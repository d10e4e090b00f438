"""CSV source tests: RFC-4180 quoting (embedded delimiter/quote/
newline), per-row failure isolation, gzip framing, schema pinning,
TSV dialect, and a DuckDB differential."""

import gzip
import zlib

import pyarrow as pa
import pytest

from zhtml_ray.sources.csvsrc import parse_csv_bytes, read_csv_shards

SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def test_parse_quoted_fields():
    buf = (b'doc_id,text\n'
           b'1,"comma, inside"\n'
           b'2,"quote "" inside"\n'
           b'3,"newline\ninside"\n')
    t = parse_csv_bytes(buf, schema=SCHEMA)
    assert t["text"].to_pylist() == ['comma, inside', 'quote " inside',
                                     'newline\ninside']


def test_invalid_rows_skipped_not_fatal():
    buf = (b'doc_id,text\n'
           b'1,ok\n'
           b'2,extra,column,here\n'
           b'3,also ok\n')
    t = parse_csv_bytes(buf, schema=SCHEMA)
    assert t["doc_id"].to_pylist() == [1, 3]


def test_gzip_nulls_and_garbage():
    buf = b'doc_id,text\n1,\n,x\n'
    t = parse_csv_bytes(gzip.compress(buf), schema=SCHEMA)
    # empty field -> NULL (not ""), matching DuckDB read_csv's default
    assert t.to_pylist() == [{"doc_id": 1, "text": None},
                             {"doc_id": None, "text": "x"}]
    # an unparseable shard yields a typed empty table, not a crash
    empty = parse_csv_bytes(b"", schema=SCHEMA)
    assert empty.num_rows == 0
    assert empty.schema.field("doc_id").type == pa.int64()


def test_truncated_and_corrupt_gzip_raise():
    """A cut or corrupt .gz shard fails the read loudly; only invalid
    rows are skipped."""
    gz = gzip.compress(b"doc_id,text\n" + b"".join(
        b"%d,t\n" % i for i in range(50)))
    with pytest.raises(EOFError):
        parse_csv_bytes(gz[: len(gz) // 2], schema=SCHEMA)
    corrupt = bytearray(gz)
    corrupt[10] = 0xFF  # deflate block type 3 is invalid
    with pytest.raises(zlib.error):
        parse_csv_bytes(bytes(corrupt), schema=SCHEMA)


def test_tsv_dialect():
    t = parse_csv_bytes(b"doc_id\ttext\n5\thello world\n",
                        schema=SCHEMA, delimiter="\t")
    assert t.to_pylist() == [{"doc_id": 5, "text": "hello world"}]


def test_read_csv_shards_roundtrip(ray_session, tmp_path):
    (tmp_path / "a.csv").write_bytes(
        b'doc_id,text\n' + b"".join(b'%d,"doc %d \xc3\xa9"\n' % (i, i)
                                    for i in range(10)))
    (tmp_path / "b.csv.gz").write_bytes(gzip.compress(
        b'doc_id,text\n' + b"".join(b'%d,doc %d\n' % (i, i)
                                    for i in range(10, 20))))
    (tmp_path / "ignored.txt").write_text("not a shard")
    ds = read_csv_shards(tmp_path, schema=SCHEMA,
                         columns=["doc_id", "text"])
    got = sorted(ds.take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in got] == list(range(20))
    assert got[3]["text"] == "doc 3 é"


def test_csv_docs_matches_duckdb(ray_session):
    import duckdb

    from zhtml_ray.pipelines.ops_queries import _sql_csv_docs, q_csv_docs

    got = sorted((r["doc_id"], r["source"], r["n_chars_text"])
                 for r in q_csv_docs("/root/testdata/sf0.001").take_all())
    con = duckdb.connect()
    want = sorted(map(tuple, con.sql(_sql_csv_docs()).fetchall()))
    assert got == want and len(got) == 500


def test_large_shard_with_quoted_newlines():
    """Shards beyond the reader's 1 MB block size with quoted embedded
    newlines desync the chunker unless newlines_in_values is set — the
    failure mode was a SILENT zero-row parse (review find)."""
    body = b'"line one\nline two three four five six seven eight nine"'
    buf = b'doc_id,text\n' + b"".join(
        b"%d,%s\n" % (i, body) for i in range(40000))
    assert len(buf) > 2_000_000
    t = parse_csv_bytes(buf, schema=SCHEMA)
    assert t.num_rows == 40000
    assert t["text"][0].as_py() == body.decode()[1:-1]
