"""JSONL source tests: parse fast path, per-line failure isolation,
gzip framing, schema pinning, and a DuckDB differential."""

import gzip
import json
import zlib

import pyarrow as pa
import pytest

from zhtml_ray.sources.jsonl import parse_jsonl_bytes, read_jsonl

SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _jl(rows) -> bytes:
    return ("\n".join(json.dumps(r, separators=(",", ":"))
                      for r in rows) + "\n").encode()


def test_parse_fast_path():
    rows = [{"doc_id": 1, "text": "a"}, {"doc_id": 2, "text": "b\n\"c"}]
    t = parse_jsonl_bytes(_jl(rows), schema=SCHEMA)
    assert t.to_pylist() == rows


def test_malformed_line_skipped_not_fatal():
    buf = (b'{"doc_id":1,"text":"ok"}\n'
           b'{"doc_id":2 "text":"missing comma"}\n'
           b'{"doc_id":3,"text":"also ok"}\n')
    t = parse_jsonl_bytes(buf, schema=SCHEMA)
    assert t["doc_id"].to_pylist() == [1, 3]


def test_gzip_and_nulls():
    rows = [{"doc_id": 1, "text": None}, {"doc_id": None, "text": "x"}]
    t = parse_jsonl_bytes(gzip.compress(_jl(rows)), schema=SCHEMA)
    assert t.to_pylist() == rows


def test_all_garbage_file_yields_typed_empty():
    t = parse_jsonl_bytes(b"not json at all\n%%%\n", schema=SCHEMA)
    assert t.num_rows == 0
    assert t.schema.field("doc_id").type == pa.int64()


def test_truncated_and_corrupt_gzip_raise():
    """A cut or corrupt .gz shard fails the read loudly; only
    malformed lines are skipped."""
    gz = gzip.compress(_jl([{"doc_id": i, "text": "t"} for i in range(50)]))
    with pytest.raises(EOFError):
        parse_jsonl_bytes(gz[: len(gz) // 2], schema=SCHEMA)
    corrupt = bytearray(gz)
    corrupt[10] = 0xFF  # deflate block type 3 is invalid
    with pytest.raises(zlib.error):
        parse_jsonl_bytes(bytes(corrupt), schema=SCHEMA)


def test_read_jsonl_dataset_roundtrip(ray_session, tmp_path):
    rows = [{"doc_id": i, "text": f"doc {i} é ​"} for i in range(20)]
    (tmp_path / "a.jsonl").write_bytes(_jl(rows[:10]))
    (tmp_path / "b.jsonl.gz").write_bytes(gzip.compress(_jl(rows[10:])))
    (tmp_path / "ignored.txt").write_text("not a shard")
    ds = read_jsonl(tmp_path, schema=SCHEMA, columns=["doc_id", "text"])
    got = sorted(ds.take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in got] == list(range(20))
    assert got[15]["text"] == "doc 15 é ​"


def test_jsonl_docs_matches_duckdb(ray_session):
    import duckdb

    from zhtml_ray.pipelines.ops_queries import _sql_jsonl_docs, q_jsonl_docs

    got = sorted((r["doc_id"], r["lang"], r["n_chars_text"])
                 for r in q_jsonl_docs("/root/testdata/sf0.001").take_all())
    con = duckdb.connect()
    want = sorted(map(tuple, con.sql(_sql_jsonl_docs()).fetchall()))
    assert got == want and len(got) == 500
