"""Rot guard for the ops bench (tools/bench_ops.py): every table entry
resolves and runs once, without warm-up, on tiny fixtures, so a broken
fixture builder or a renamed engine function fails here, not in the
next measurement."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_ops", os.path.join(ROOT, "tools", "bench_ops.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# the smallest testdata dir, next to bench.py's
SF = os.path.join(os.path.dirname(bench.SF_DIR), "sf0.001")
# 60 media rows: the fewest at which the media fixture plants a duplicate
# image; without one phash_neardup finds no pair and returns no rows
SCALE = 0.002


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return bench.Fixtures(SF, SCALE,
                          root=str(tmp_path_factory.mktemp("ops_bench")))


def test_table_resolves():
    import __ray_entry__
    registry = __ray_entry__.queries()
    assert len(bench.OPS) == 83
    assert set(bench.TRACKED) <= set(bench.OPS)
    for op_id, op in bench.OPS.items():
        kind = op_id.split(":")[0]
        assert kind in ("sf", "media") or kind in bench.BUILDERS, op_id
        if isinstance(op.run, str):
            assert op.run in registry, op_id
        else:
            assert callable(op.run), op_id


def test_select():
    assert bench.select(["edges"]) == [
        "edges:pagerank_5it", "edges:components", "edges:degree_hist",
        "edges:hits"]
    assert bench.select(["all", "sf:pq_topk"]) == list(bench.OPS)
    with pytest.raises(KeyError):
        bench.select(["minhash_dedup"])  # ambiguous without a kind


def test_out_is_never_overwritten(tmp_path, capsys):
    out = tmp_path / "BENCH_OPS.json"
    out.write_text("{}")
    assert bench.main(["sf:pq_topk", "--out", str(out)]) == 2
    assert out.read_text() == "{}"
    assert "never overwritten" in capsys.readouterr().err


@pytest.mark.parametrize("op_id", list(bench.OPS))
def test_op_runs(ray_session, fixtures, op_id):
    rec = bench.run_op(op_id, fixtures, warmup=False)
    assert rec["rows"] > 0, rec
    assert rec["wall_s"] >= 0
    json.dumps(rec)
    want = {"docs:minhash_dedup": {"n_dup"},
            "emb:semantic_dedup": {"dropped"},
            "docs:invidx_probe": {"invidx_buckets_read",
                                  "invidx_buckets_total"}}
    assert set(rec.get("counts", {})) == want.get(op_id, set())
