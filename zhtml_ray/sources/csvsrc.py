"""CSV/TSV source → Dataset.

Label tables, crawl manifests and legacy exports ship as (often
gzipped) CSV shards, so alongside parquet, WARC and JSONL this is the
fourth on-ramp a reference user needs. The FILE is the parallelism
unit: ``read_csv_shards`` is a ``sources/files.read_files`` read, one
task per file that parses its own file through pyarrow's C++ CSV
reader; no per-row Python on the happy path.

Quoted fields (embedded delimiters, quotes, newlines) follow RFC 4180
— the same dialect DuckDB's ``read_csv`` speaks, which is what the
gate oracle certifies. An explicit ``schema`` pins column types so an
all-digits text shard can't drift the inferred schema between files;
structurally invalid rows are SKIPPED per row (not per shard) via the
reader's invalid-row handler (the per-record isolation rule of the
WARC/extract paths). A ``.gz`` shard that is cut short or corrupt is
not recovered: ``sources/files.gunzip`` raises (``EOFError``,
``zlib.error`` or ``gzip.BadGzipFile``), and the read fails loudly.
"""

from __future__ import annotations

import io

import pyarrow as pa

from zhtml_ray.sources.files import gunzip, read_files

_EXTS = (".csv", ".tsv", ".csv.gz", ".tsv.gz")


def parse_csv_bytes(buf: bytes, schema: pa.Schema | None = None,
                    delimiter: str = ",") -> pa.Table:
    """One shard's bytes → Arrow table (header row required). Invalid
    rows (wrong column count) are skipped row-wise; a shard whose
    header/structure is beyond repair yields an empty typed table."""
    from pyarrow import csv as pa_csv

    if buf[:2] == b"\x1f\x8b":
        buf = gunzip(buf)
    # strings_can_be_null: empty fields read as NULL — the DuckDB
    # read_csv default, which the gate oracle certifies
    convert = pa_csv.ConvertOptions(
        strings_can_be_null=True,
        column_types={f.name: f.type for f in schema}
        if schema is not None else None)
    # one task = one file: per-file reader threads would oversubscribe
    read = pa_csv.ReadOptions(use_threads=False)
    # newlines_in_values: without it, quoted embedded newlines in any
    # shard larger than the reader's 1 MB block size desync the
    # chunker and the WHOLE shard parses to zero rows (review find)
    parse = pa_csv.ParseOptions(delimiter=delimiter,
                                newlines_in_values=True,
                                invalid_row_handler=lambda _row: "skip")
    try:
        return pa_csv.read_csv(io.BytesIO(buf), read_options=read,
                               parse_options=parse,
                               convert_options=convert)
    except (pa.ArrowInvalid, pa.ArrowKeyError):
        if schema is not None:
            return pa.table({f.name: pa.array([], f.type)
                             for f in schema})
        return pa.table({})


def read_csv_shards(paths_or_dir, schema: pa.Schema | None = None,
                    delimiter: str = ",",
                    columns: list[str] | None = None):
    """CSV shard files → Dataset. ``schema`` pins the parsed types
    (recommended — inference is per-file); ``columns`` projects after
    parse (the CSV text of a row must be scanned either way — no
    read-level pruning to push down, unlike parquet)."""
    if columns is not None:
        # validate HERE, not inside a Ray task
        if schema is None:
            raise ValueError("columns projection requires a schema "
                             "(per-file inference cannot guarantee them)")
        missing = set(columns) - set(schema.names)
        if missing:
            raise ValueError(f"columns not in schema: {sorted(missing)}")

    def load(path: str) -> pa.Table:
        with open(path, "rb") as f:
            t = parse_csv_bytes(f.read(), schema=schema,
                                delimiter=delimiter)
        return t.select(columns) if columns is not None else t

    return read_files(paths_or_dir, _EXTS, load)
