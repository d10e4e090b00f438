"""Flagship pipeline: pages parquet → parse+extract → (url, extracted_text,
spans, …). The lifecycle of SURVEY.md §3.4.

The synthetic pages table is derived deterministically per scale factor
(FIXTURES.md §1: smoke=500 / correctness=5,000 / bench=50,000 rows,
seed=42) and cached under /tmp — the driver's sf dirs carry the TPC-H-ish
tables; the HTML pages table is this repo's own deterministic fixture
(`BASELINE.json:input_hint` shape).
"""

from __future__ import annotations

import os

from zhtml_ray.sources.pages import (plan_pages, read_pages,
                                     write_pages_dataset)

# FIXTURES.md scales, keyed by the sf token in the dir name
_SF_PAGES = {"sf0.001": 500, "sf0.01": 5000, "sf0.1": 50000}
_PAGES_CACHE_ROOT = os.environ.get("ZHTML_RAY_PAGES_CACHE",
                                   "/tmp/zhtml_ray_pages")


def n_pages_for(sf_dir: str) -> int:
    token = os.path.basename(os.path.normpath(sf_dir))
    if token in _SF_PAGES:
        return _SF_PAGES[token]
    return 500


def pages_cache_dir(n: int, seed: int = 42, mega_docs: int = 0) -> str:
    """THE cache-dir key for a pages fixture — the single place the
    format lives (bench.py shares the same directories)."""
    from zhtml_ray.sources.pages import FIXTURE_VERSION
    return os.path.join(_PAGES_CACHE_ROOT,
                        f"v{FIXTURE_VERSION}_n{n}_seed{seed}_mega{mega_docs}")


def pages_dir_for(sf_dir: str, mega_docs: int = 0, seed: int = 42) -> str:
    """Materialize (once; cached, deterministic) the pages table matching
    this scale factor; returns the parquet directory."""
    n = n_pages_for(sf_dir)
    out = pages_cache_dir(n, seed=seed, mega_docs=mega_docs)
    write_pages_dataset(out, n, seed=seed, rows_per_file=1000,
                        mega_docs=mega_docs)
    return out


def extract_pages(ds, include_spans: bool = True, batch_size: int | None = None,
                  thresholds=None):
    """pages Dataset → extraction Dataset (the core map_batches stage).

    ``batch_size=None`` (default) = block-as-batch: read-output blocks
    are already byte-bounded (``DataContext.target_max_block_size``), so
    each block becomes exactly one task with no slice/coalesce overhead
    — measured 1.5× faster than batch_size=64 on the sf0.1 fixture and
    the lever that isolates giant docs (stages/skew.py). Pass an int to
    re-batch when feeding from unbounded in-memory blocks. The map runs
    as stateless tasks (one per block): the kernel's warm state is
    module-level, so tasks are as warm as actors after first touch and
    autoscale better.
    """
    from zhtml_ray.stages.parse_extract import ParseExtractBatch

    return ds.map_batches(ParseExtractBatch(include_spans=include_spans,
                                            thresholds=thresholds),
                          batch_format="pyarrow", batch_size=batch_size,
                          num_cpus=1.0)


def run_extract(sf_dir: str, include_spans: bool = True):
    """End-to-end: derive pages for sf_dir, read (one planned read,
    ``sources/pages.read_pages``), extract. Lazy Dataset."""
    ds = read_pages(plan_pages(pages_dir_for(sf_dir)), ["url", "html", "lang"])
    return extract_pages(ds, include_spans=include_spans)
