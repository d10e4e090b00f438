"""The benchmark's output checks must fail on a wrong job output.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import zlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from perfbench.checks import check_output, load_reference  # noqa: E402

URLS = [f"https://site.example/p/{i}" for i in range(6)]
TEXTS = [f"text of page {i}" for i in range(6)]
PLANTED = {URLS[4]}


def _crc(u, t):
    return zlib.crc32(u.encode() + b"\x00" + t.encode())


@pytest.fixture
def ref(tmp_path):
    crcs = [_crc(u, t) for u, t in zip(URLS, TEXTS)]
    pq.write_table(pa.table({
        "url": URLS, "crc": pa.array(crcs, pa.int64()),
        "html_bytes": pa.array([100] * 6, pa.int64()),
        "planted": [u in PLANTED for u in URLS],
    }), tmp_path / "reference.parquet")
    return load_reference(str(tmp_path))


def _write_output(d, urls, texts, keep=None):
    """A job-shaped output: two partitions plus their manifests."""
    os.makedirs(d / "_manifests")
    half = len(urls) // 2
    for pid, sl in enumerate((slice(0, half), slice(half, None))):
        cols = {"url": urls[sl], "extracted_text": texts[sl],
                "ok": [True] * len(urls[sl])}
        if keep is not None:
            cols["neardup_keep"] = keep[sl]
        os.makedirs(d / f"part-{pid:06d}")
        pq.write_table(pa.table(cols), d / f"part-{pid:06d}" / "0.parquet")
        with open(d / "_manifests" / f"part-{pid:06d}.json", "w") as f:
            json.dump({"partition_id": pid}, f)
    return str(d)


def _check(out, ref, neardup=False):
    return check_output(out, ref, 2, ref["checksum"], neardup)["problems"]


def test_exact_output_passes(tmp_path, ref):
    out = _write_output(tmp_path / "out", URLS, TEXTS)
    assert _check(out, ref) == []


def test_one_altered_text_row_fails(tmp_path, ref):
    texts = list(TEXTS)
    texts[3] = texts[3] + "!"
    out = _write_output(tmp_path / "out", URLS, texts)
    problems = _check(out, ref)
    assert any("checksum" in p for p in problems), problems


def test_one_dropped_row_fails(tmp_path, ref):
    out = _write_output(tmp_path / "out", URLS[:-1], TEXTS[:-1])
    problems = _check(out, ref)
    assert any("missing" in p for p in problems), problems
    assert any("rows, expected" in p for p in problems), problems


def test_missing_manifest_fails(tmp_path, ref):
    out = _write_output(tmp_path / "out", URLS, TEXTS)
    os.remove(os.path.join(out, "_manifests", "part-000001.json"))
    assert any("manifests" in p for p in _check(out, ref))


def test_wrong_job_checksum_fails(tmp_path, ref):
    out = _write_output(tmp_path / "out", URLS, TEXTS)
    problems = check_output(out, ref, 2, ref["checksum"] + 1,
                            False)["problems"]
    assert any("job checksum" in p for p in problems), problems


def test_neardup_drops_must_be_the_planted_copies(tmp_path, ref):
    keep = [u not in PLANTED for u in URLS]
    out = _write_output(tmp_path / "ok", URLS, TEXTS, keep)
    assert _check(out, ref, neardup=True) == []
    keep[0] = False  # an unplanted doc dropped
    out = _write_output(tmp_path / "bad", URLS, TEXTS, keep)
    assert any("near-dup" in p for p in _check(out, ref, neardup=True))
