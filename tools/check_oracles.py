"""Dev stand-in for the driver's correctness gate: run each queries()
entry and its oracle_sql() via DuckDB on the same sf dir, compare
row-count + sorted-column value content (order-insensitive).

Comparison semantics (r3 review hardening): every non-float column is
compared EXACTLY — the driver's gate is an exact value hash, and a
tolerance on integer IDs/counts/CRCs silently passed genuinely wrong
values (confirmed: vec_id off by 1 at 1e5 magnitude slipped through
rtol=1e-5). Floats are rounded to 6 decimals BEFORE the row sort so a
sub-tolerance float difference in a sort key cannot reorder the two
sides differently and misalign rows.

`--exact` (r4, driver parity): float64 columns are compared as raw
IEEE-754 bit patterns — no 6-dp rounding, no rtol. This is the bug
class the default mode cannot see: a decimal-pinned aggregate whose
pin boundary sits within accumulation-order noise flips its last
pinned digit (relative error ~1e-9, passes rtol=1e-5) yet fails the
driver's exact value hash (q9_nation_margin, r3). Under --exact every
pinned float must be the identical double on both sides.

Usage: python tools/check_oracles.py [--exact] [sf_dir] [name ...]
"""

import os
import sys

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res):
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame, exact: bool = False) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.copy()
    if not exact:
        # round floats BEFORE sorting: rounding after the sort let two
        # within-tolerance float sort keys order rows differently on
        # the two sides, misaligning the row-wise compare (r3 review)
        for c in df.columns:
            if df[c].dtype == "float64":
                df[c] = df[c].round(6)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def frames_match(got: pd.DataFrame, want: pd.DataFrame,
                 exact: bool = False) -> None:
    """Exact compare for non-float columns. Floats: with exact=False
    the historical rtol=1e-5 on 6dp-rounded values; with exact=True a
    bit-pattern compare (uint64 view — NaN equals same-bits NaN,
    -0.0 differs from 0.0, any last-ulp drift fails), mirroring the
    driver's exact value hash."""
    for c in got.columns:
        if got[c].dtype == "float64" or want[c].dtype == "float64":
            if exact:
                a = got[c].astype("float64").to_numpy()
                b = want[c].astype("float64").to_numpy()
                bad = a.view(np.uint64) != b.view(np.uint64)
                if bad.any():
                    i = int(np.flatnonzero(bad)[0])
                    raise AssertionError(
                        f"column {c!r}: {int(bad.sum())} bit-level float "
                        f"mismatches; first at row {i}: "
                        f"{a[i]!r} ({a[i].hex()}) != {b[i]!r} ({b[i].hex()})")
            else:
                pd.testing.assert_series_equal(
                    got[c].astype("float64"), want[c].astype("float64"),
                    check_exact=False, rtol=1e-5, atol=1e-9,
                    check_names=False)
        else:
            pd.testing.assert_series_equal(
                got[c], want[c], check_dtype=False, check_exact=True,
                check_names=False)


def main():
    argv = [a for a in sys.argv[1:] if a != "--exact"]
    exact = "--exact" in sys.argv[1:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])
    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import importlib
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    entry = importlib.import_module("__ray_entry__")

    con = duckdb.connect()
    # an in-memory connection has NO temp_directory, so a big oracle
    # (the unrolled-HITS CTE at sf0.1: 608k edges) dies on its first
    # spill instead of offloading — give it a roomy spill dir and a
    # memory ceiling that leaves Ray its share (r4: the one sf0.1
    # non-match was this, not the engine)
    os.makedirs("/tmp/zhtml_ray_duckdb_tmp", exist_ok=True)
    con.execute("SET temp_directory='/tmp/zhtml_ray_duckdb_tmp'")
    con.execute("SET max_temp_directory_size='40GB'")
    con.execute("SET memory_limit='24GB'")
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    # gate-integrity checks: an oracle key orphaned from its query, or
    # a typo'd `only` name, must FAIL loudly — not silently check less
    orphaned = set(oracles) - set(qs)
    if orphaned:
        print(f"FAIL <gate>: oracle_sql() keys with no queries() entry: "
              f"{sorted(orphaned)}")
        failures += 1
    unknown = only - set(qs)
    if unknown:
        print(f"FAIL <gate>: unknown query names requested: "
              f"{sorted(unknown)}")
        failures += 1
    try:
        for name, fn in qs.items():
            if only and name not in only:
                continue
            try:
                got = to_pandas(fn(sf_dir))
                if name in oracles:
                    got = normalize(got, exact)
            except Exception as e:
                print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
                failures += 1
                continue
            if name not in oracles:
                print(f"ok   {name}: rows={len(got)} "
                      "(rows-only check, no oracle)")
                continue
            try:
                want = normalize(con.execute(oracles[name]).df(), exact)
            except Exception as e:
                # one broken golden/SQL must not abort the whole gate
                print(f"FAIL {name}: oracle raised "
                      f"{type(e).__name__}: {e}")
                failures += 1
                continue
            if list(got.columns) != list(want.columns):
                print(f"FAIL {name}: columns {list(got.columns)} != "
                      f"{list(want.columns)}")
                failures += 1
                continue
            if len(got) != len(want):
                print(f"FAIL {name}: rows {len(got)} != {len(want)}")
                failures += 1
                continue
            try:
                frames_match(got, want, exact)
                tag = "MATCH(exact)" if exact else "MATCH"
                print(f"ok   {name}: rows={len(got)} {tag}")
            except AssertionError as e:
                print(f"FAIL {name}: value mismatch: {str(e)[:400]}")
                failures += 1
    finally:
        ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
