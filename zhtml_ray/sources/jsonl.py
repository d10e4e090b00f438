"""JSONL (newline-delimited JSON) source → documents-shaped Dataset.

Processed web corpora ship as JSONL shards (Dolma, RedPajama, C4 dumps:
one JSON object per line, usually gzip-compressed), so alongside the
parquet and WARC sources this is the third on-ramp a reference user
needs. The FILE is the parallelism unit (shards are sized for exactly
that role): ``read_jsonl`` is a ``sources/files.read_files`` read, one
task per file that opens and parses its own file.

Parsing is pyarrow's C++ JSON reader (``pyarrow.json.read_json``) on
the whole decompressed buffer — one vectorized pass, no per-line Python
on the happy path. A file whose parse fails (one malformed line fails
the whole C++ read) drops to a per-line recovery pass that skips just
the bad lines, matching the per-record failure isolation of the WARC
and extract paths. A ``.gz`` shard that is cut short or corrupt is not
recovered: ``sources/files.gunzip`` raises (``EOFError``,
``zlib.error`` or ``gzip.BadGzipFile``), and the read fails loudly.

An explicit ``schema`` pins column types so a shard of all-null or
all-int values can't drift the inferred schema between files.
"""

from __future__ import annotations

import io

import pyarrow as pa

from zhtml_ray.sources.files import gunzip, read_files

_EXTS = (".jsonl", ".ndjson", ".json", ".jsonl.gz", ".ndjson.gz",
         ".json.gz")


def parse_jsonl_bytes(buf: bytes, schema: pa.Schema | None = None
                      ) -> pa.Table:
    """One shard's bytes → Arrow table. Vectorized C++ parse first;
    per-line recovery (skipping malformed lines) only on failure."""
    from pyarrow import json as pa_json

    if buf[:2] == b"\x1f\x8b":
        buf = gunzip(buf)
    opts = (pa_json.ParseOptions(explicit_schema=schema)
            if schema is not None else None)
    try:
        return pa_json.read_json(io.BytesIO(buf), parse_options=opts)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        good = []
        for line in buf.split(b"\n"):
            if not line.strip():
                continue
            try:
                good.append(pa_json.read_json(io.BytesIO(line),
                                              parse_options=opts))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                continue
        if not good:
            return (pa.table({f.name: pa.array([], f.type)
                              for f in schema})
                    if schema is not None else pa.table({}))
        return pa.concat_tables(good, promote_options="default")


def read_jsonl(paths_or_dir, schema: pa.Schema | None = None,
               columns: list[str] | None = None):
    """JSONL shard files → Dataset. ``schema`` pins the parsed types
    (recommended — inference is per-file); ``columns`` projects after
    parse (the JSON text of a row must be scanned either way, so
    unlike parquet there is no read-level pruning to push down)."""
    def load(path: str) -> pa.Table:
        with open(path, "rb") as f:
            t = parse_jsonl_bytes(f.read(), schema=schema)
        return t.select(columns) if columns is not None else t

    return read_files(paths_or_dir, _EXTS, load)
