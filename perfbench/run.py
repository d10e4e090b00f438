#!/usr/bin/env python3
"""Benchmark of the zhtml_ray extraction job on generated workloads.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Closed loop, one driver, one job at a time: this process owns a local
Ray session sized from its CPU affinity, and calls
``zhtml_ray.job.main([...])`` (which reuses the session) back to back on
the workload's generated parquet shards for ``--seconds``, checking
every output against an in-process reference (perfbench/checks.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` instead makes the traced run of perfbench/layers.py and
reports the per-layer metrics. Human-readable lines come first; the
last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 170     # a run that would outlive this fails loudly
SETUPS = 3           # setup_s is the median of this many set-ups
MIN_JOBS = 3         # timed jobs per run, at least
GROUP_SIZE = 4       # the job's default shards per partition


def run_job(argv: list[str]) -> tuple[int, dict]:
    """One ``zhtml_ray.job.main`` call; its JSON summary is captured so
    that this process's stdout stays a clean report."""
    from zhtml_ray import job
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = job.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return rc, (json.loads(lines[-1]) if lines else {})


def job_argv(workload: str, inputs: str, out: str, index: str | None):
    argv = ["--input", inputs, "--output", out]
    if workload == "incremental_dedup":
        argv += ["--clean", "--neardup-index", index]
    return argv


def one_shard_job(workload: str, fx: str, run_dir: str, tag: str) -> None:
    """The workload's job over its smallest shard."""
    from perfbench import fixtures
    shard = min(fixtures.input_files(fx), key=os.path.getsize)
    rc, _ = run_job(job_argv(workload, shard,
                             os.path.join(run_dir, f"{tag}-out"),
                             os.path.join(run_dir, f"{tag}-idx")))
    if rc != 0:
        raise RuntimeError(f"{tag} job exited {rc}")


def set_up(sess, fx: str, run_dir: str, k: int) -> float:
    """``ray.init`` then a warm-up job (plain extraction, the same for
    every workload) over one shard; returns seconds."""
    t0 = time.perf_counter()
    sess.start()
    one_shard_job("plain", fx, run_dir, f"warm{k}")
    return time.perf_counter() - t0


def timed_jobs(workload: str, fx: str, run_dir: str, index: str | None,
               seconds: float, min_jobs: int) -> list[dict]:
    """Back-to-back jobs for ``seconds`` (at least ``min_jobs``), each on
    a fresh output dir (and a fresh copy of the near-dup index)."""
    from perfbench import checks, fixtures, layers
    from perfbench.session import RssSampler
    from zhtml_ray.stages.manifest import completed_partitions, partition_plan

    ref = checks.load_reference(fx)
    files = fixtures.input_files(fx)
    partitions = len(partition_plan(files, GROUP_SIZE))
    iters: list[dict] = []
    t_begin = time.perf_counter()
    while len(iters) < min_jobs or time.perf_counter() - t_begin < seconds:
        k = len(iters)
        out = os.path.join(run_dir, f"out-{k}")
        idx = None
        if index is not None:
            idx = os.path.join(run_dir, f"idx-{k}")
            shutil.copytree(index, idx)
        argv = job_argv(workload, os.path.join(fx, "input"), out, idx)
        with RssSampler() as rss:
            t0 = time.perf_counter()
            rc, summary = run_job(argv)
            wall = time.perf_counter() - t0
        chk = checks.check_output(out, ref, partitions,
                                  summary.get("checksum"), idx is not None)
        if rc != 0:
            chk["problems"].append(f"job exited {rc}")
        iters.append(dict(chk, wall_s=wall, peak_rss_mb=rss.peak_mb,
                          manifests=list(completed_partitions(out).values()),
                          output_mb=layers.dir_mb(out)))
        shutil.rmtree(out, ignore_errors=True)
        if idx:
            shutil.rmtree(idx, ignore_errors=True)
    return iters


def end_to_end(iters: list[dict], setups: list[float], n_rows: int,
               html_bytes: int) -> dict:
    walls = [it["wall_s"] for it in iters]
    bad = sum(it["failed_rows"] + it["missing"] for it in iters)
    return {
        "docs_per_s": (statistics.median(n_rows / w for w in walls), "docs/s"),
        "html_mb_per_s": (statistics.median(html_bytes / 1e6 / w
                                            for w in walls), "MB/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iters),
                        "MB"),
        "ok_share": (1.0 - bad / (n_rows * len(iters)), "share"),
    }


def run_one(args) -> int:
    from perfbench import checks, fixtures, layers
    from perfbench.session import (Deadline, RaySession, affinity_cpus,
                                   cpu_times, steal_pct)

    work = os.path.abspath(args.work)
    sess = RaySession(ROOT, work, affinity_cpus())
    with Deadline(DEADLINE_S, sess.temp_dir):
        stat0 = cpu_times()
        t_start = time.perf_counter()
        phases = []

        def phase(name: str) -> None:
            phases.append((name, time.perf_counter() - t_start))

        fx = fixtures.build(work, args.workload, args.seed)
        phase("fixture")
        ref = checks.load_reference(fx)
        n_rows = len(ref["crc"])
        run_dir = os.path.join(work, "runs", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            setups = []
            for k in range(1 if args.trace else SETUPS):
                if k:
                    sess.stop()
                setups.append(set_up(sess, fx, run_dir, k))
                phase(f"setup{k}")
            index = None
            if args.workload == "incremental_dedup":
                index = fixtures.ensure_index(fx, lambda a: run_job(a)[0])
                phase("index")
            # the first full job after the warm-up ran slower (lazy set-up
            # in the session and in the workers); one more small job with
            # the workload's own flags absorbs it
            one_shard_job(args.workload, fx, run_dir, "prime")
            phase("prime")
            iters = timed_jobs(args.workload, fx, run_dir, index,
                               0 if args.trace else args.seconds, MIN_JOBS)
            phase("jobs")
            if args.trace:
                trace_path = os.path.join(
                    work, "traces", f"{args.workload}-s{args.seed}.json")
                metrics = layers.traced_run(
                    args.workload, fx, run_dir, index, iters, sess.cpus,
                    GROUP_SIZE, trace_path)
                print(f"spans written to {trace_path}")
            else:
                metrics = end_to_end(iters, setups, n_rows,
                                     ref["html_bytes"])
        finally:
            sess.stop()
            shutil.rmtree(run_dir, ignore_errors=True)
        phase("end")
        steal = steal_pct(stat0, cpu_times())
    if args.trace:
        metrics["host.steal_pct"] = (steal, "%")
    problems = [p for it in iters for p in it["problems"]]
    failed = sum(it["failed_rows"] + it["missing"] for it in iters)
    walls = [it["wall_s"] for it in iters]
    print(f"workload {args.workload} seed {args.seed} cpus {sess.cpus} "
          f"rows {n_rows} html_mb {ref['html_bytes'] / 1e6:.2f} "
          f"jobs {len(iters)}")
    print("job wall_s " + " ".join(f"{w:.3f}" for w in walls))
    print("phase end_s " + " ".join(f"{n}={t:.1f}" for n, t in phases))
    if not args.trace:
        print(f"host.steal_pct {steal:.6g} %")
        print(f"failed_share {failed / (n_rows * len(iters)):.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": n_rows * len(iters),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst, results = 0, {}
    from perfbench.fixtures import WORKLOADS
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", args.work]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, p.returncode)
        results[w] = json.loads(lines[-1]) if p.returncode in (0, 1) \
            and lines else {"correct": False}
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.fixtures import WORKLOADS
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", default=os.path.join(ROOT, ".perfbench_work"),
                   help="fixture cache, Ray temp dir and job outputs")
    args = p.parse_args(argv)
    args.work = os.path.abspath(args.work)
    if not os.path.isdir(os.path.join(ROOT, "zhtml_ray")):
        print(f"perfbench: no zhtml_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
