"""Generate the pinned golden extraction table (FIXTURES.md §3).

Single-process, no Ray: the per-document kernel IS the oracle. Any
change to zhtml_ray/html/* that alters output must regenerate goldens
(and is a semantics change to be called out in the commit message).

Usage: python tools/gen_golden.py [n_rows] [out.parquet]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

from zhtml_ray.html.extract import extract_document
from zhtml_ray.sources.pages import gen_pages_table
from zhtml_ray.stages.parse_extract import SPAN_TYPE


def golden_table(n_rows: int, seed: int = 42) -> pa.Table:
    pages = gen_pages_table(n_rows, seed=seed)
    urls = pages["url"].to_pylist()
    htmls = pages["html"].to_pylist()
    texts, spans, quirks, errs = [], [], [], []
    for h in htmls:
        out = extract_document(h)
        texts.append(out["extracted_text"])
        spans.append(out["spans"])
        quirks.append(out["quirks"])
        errs.append([e["code"] for e in out["errors"]])
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "extracted_text": pa.array(texts, pa.large_string()),
        "spans": pa.array(spans, SPAN_TYPE),
        "quirks": pa.array(quirks, pa.int8()),
        "error_codes": pa.array(errs, pa.list_(pa.string())),
    })


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    out = sys.argv[2] if len(sys.argv) > 2 else f"tests/golden/golden_{n}.parquet"
    import os
    os.makedirs(os.path.dirname(out), exist_ok=True)
    pq.write_table(golden_table(n), out)
    print(f"wrote {out} ({n} rows)")
