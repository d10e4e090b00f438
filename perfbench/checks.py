"""Output checks that fail a benchmark run.

A job output passes when it has one row per input url (no missing, no
extra, no duplicate url), every partition manifest is present, the
checksum the job reports and the checksum recomputed from the written
text both equal the in-process reference, and, for the near-dup
workload, the rows marked ``neardup_keep = false`` are exactly the
planted copies.
"""

from __future__ import annotations

import glob
import os
import zlib

import pyarrow.dataset as pads
import pyarrow.parquet as pq

_MASK = 0xFFFFFFFFFFFFFFFF


def load_reference(fx: str) -> dict:
    t = pq.read_table(os.path.join(fx, "reference.parquet")).to_pydict()
    return {
        "crc": dict(zip(t["url"], t["crc"])),
        "checksum": sum(t["crc"]) & _MASK,
        "html_bytes": sum(t["html_bytes"]),
        "planted": {u for u, p in zip(t["url"], t["planted"]) if p},
    }


def check_output(out_dir: str, ref: dict, partitions: int,
                 job_checksum: int | None, neardup: bool) -> dict:
    """Compare one job output directory with the reference. Returns
    ``{"rows", "failed_rows", "missing", "problems"}``; the output is
    correct when ``problems`` is empty."""
    from zhtml_ray.stages.manifest import completed_partitions

    problems = []
    n_manifests = len(completed_partitions(out_dir))
    if n_manifests != partitions:
        problems.append(f"{n_manifests} manifests, expected {partitions}")
    files = sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
    cols = ["url", "extracted_text", "ok"] + (["neardup_keep"] if neardup
                                              else [])
    t = pads.dataset(files).to_table(columns=cols).to_pydict() if files \
        else {c: [] for c in cols}
    urls = t["url"]
    seen = set(urls)
    want = ref["crc"]
    missing = len(want.keys() - seen)
    if len(urls) != len(want):
        problems.append(f"{len(urls)} rows, expected {len(want)}")
    if len(seen) != len(urls):
        problems.append(f"{len(urls) - len(seen)} duplicate urls")
    if missing:
        problems.append(f"{missing} input urls missing from the output")
    if seen - want.keys():
        problems.append(f"{len(seen - want.keys())} urls not in the input")
    checksum, bad = 0, []
    for u, text in zip(urls, t["extracted_text"]):
        crc = zlib.crc32((u or "").encode() + b"\x00" + text.encode())
        checksum = (checksum + crc) & _MASK
        if want.get(u) != crc:
            bad.append(u)
    if checksum != ref["checksum"]:
        problems.append(f"text checksum {checksum} != reference "
                        f"{ref['checksum']} ({len(bad)} rows differ, "
                        f"first {bad[:3]})")
    if job_checksum is not None and job_checksum != ref["checksum"]:
        problems.append(f"job checksum {job_checksum} != reference "
                        f"{ref['checksum']}")
    if neardup:
        dropped = {u for u, k in zip(urls, t["neardup_keep"]) if not k}
        if dropped != ref["planted"]:
            problems.append(
                f"near-dup drops differ from the planted copies: "
                f"{len(dropped - ref['planted'])} unplanted dropped, "
                f"{len(ref['planted'] - dropped)} planted kept")
    return {"rows": len(urls),
            "failed_rows": sum(1 for ok in t["ok"] if not ok),
            "missing": missing,
            "problems": problems}
