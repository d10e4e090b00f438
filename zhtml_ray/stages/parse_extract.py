"""The core Ray Data stage: per-document parse + extract as a batch UDF.

Stateless tasks: ``extract_pages`` maps a ``ParseExtractBatch``
instance as a plain task-pool ``map_batches`` (no actors). Module import
cost (entity table, compiled regexes — the state the reference rebuilds
per tokenizer instance) is still paid once per worker process, since Ray
reuses workers; per-batch work is Arrow in / Arrow out. The parse itself
is irreducibly sequential per document (one state machine per row,
/root/reference/src/tokenizer.zig:2302-2323) but vectorized at the batch
boundary.

Per-row failure isolation: a hostile/malformed document yields an error
row (ok=False, empty text) — exceptions never escape the UDF; untrusted
web bytes must not kill a 100 TB job.
"""

from __future__ import annotations

import pyarrow as pa

from zhtml_ray.html.extract import extract_document

SPAN_TYPE = pa.list_(pa.struct([
    ("start", pa.int64()), ("end", pa.int64()),
    ("node_id", pa.int32()), ("kind", pa.string()),
]))

# SURVEY §1.3: parse errors as typed structs (1-based line/col)
ERROR_TYPE = pa.list_(pa.struct([
    ("code", pa.string()), ("line", pa.int32()), ("col", pa.int32()),
]))

# The stage's emitted column order EXACTLY (r3 review: the previous
# constant had row_crc ninth where the stage emits it second, breaking
# positional consumers). When ``include_spans=False`` the spans field
# is absent; the ``PASSTHROUGH`` columns present in the input append
# AFTER these.
OUT_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("row_crc", pa.int64()),
    ("extracted_text", pa.large_string()),
    ("spans", SPAN_TYPE),
    ("quirks", pa.int8()),
    ("doctype_name", pa.string()),
    ("errors", ERROR_TYPE),
    ("n_nodes", pa.int32()),
    ("html_bytes", pa.int64()),
    ("ok", pa.bool_()),
    ("fail_reason", pa.string()),
])

# input columns copied through to the output when present
PASSTHROUGH = ("lang",)


class ParseExtractBatch:
    """Callable instance → stateless Ray task-pool map via
    ``ds.map_batches(ParseExtractBatch(...), batch_format="pyarrow",
    batch_size=B)`` (pipelines/extract.py:extract_pages).

    ``include_spans=False`` drops the spans column (cheaper output when a
    downstream stage only needs text). The ``PASSTHROUGH`` input columns
    are copied to the output (url is always kept)."""

    def __init__(self, include_spans: bool = True, thresholds=None):
        """``thresholds``: optional `html.extract.ExtractThresholds` —
        extraction config shipped to the tasks with the instance
        (SURVEY.md §2.3 ST6). None = the pinned oracle defaults."""
        self.include_spans = include_spans
        self.thresholds = thresholds

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        n = len(urls)
        texts = [""] * n
        spans = [[] for _ in range(n)]
        quirks = [0] * n
        doctypes = [""] * n
        errors = [[] for _ in range(n)]
        nnodes = [0] * n
        ok = [True] * n
        fail = [""] * n
        hbytes = [0] * n
        for i in range(n):
            raw = htmls[i]
            hbytes[i] = len(raw) if raw is not None else 0
            try:
                out = extract_document(raw if raw is not None else b"",
                                       thresholds=self.thresholds)
                texts[i] = out["extracted_text"]
                spans[i] = out["spans"]
                quirks[i] = out["quirks"]
                doctypes[i] = out["doctype_name"]
                errors[i] = out["errors"]
                nnodes[i] = out["n_nodes"]
            except Exception as e:  # noqa: BLE001 — per-row isolation
                ok[i] = False
                fail[i] = f"{type(e).__name__}: {e}"[:500]
        # per-row content checksum, computed where the data already is:
        # manifests sum it without re-reading text driver-side
        import zlib
        # (u or "") — a null url cell must degrade to an error row's
        # crc, never an exception escaping the batch (per-row isolation)
        crcs = [zlib.crc32((u or "").encode() + b"\x00" + t.encode())
                for u, t in zip(urls, texts)]
        cols = {
            "url": pa.array(urls, pa.string()),
            "row_crc": pa.array(crcs, pa.int64()),
            "extracted_text": pa.array(texts, pa.large_string()),
        }
        if self.include_spans:
            # build the (largest) Arrow struct column only when kept —
            # converting then deleting it wasted the dominant cost of
            # the include_spans=False mode (r3 review); position 4
            # matches OUT_SCHEMA
            cols["spans"] = pa.array(spans, SPAN_TYPE)
        cols.update({
            "quirks": pa.array(quirks, pa.int8()),
            "doctype_name": pa.array(doctypes, pa.string()),
            "errors": pa.array(errors, ERROR_TYPE),
            "n_nodes": pa.array(nnodes, pa.int32()),
            "html_bytes": pa.array(hbytes, pa.int64()),
            "ok": pa.array(ok, pa.bool_()),
            "fail_reason": pa.array(fail, pa.string()),
        })
        for name in PASSTHROUGH:
            if name in batch.column_names:
                cols[name] = batch.column(name)
        return pa.table(cols)
