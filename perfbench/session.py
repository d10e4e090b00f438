"""The benchmark process's Ray session and host probes.

The benchmark owns one local Ray session sized from the CPU affinity;
``zhtml_ray.job.main`` then reuses it (and still applies
``cap_block_size``). Everything Ray writes goes under a temp dir inside
the work directory, so stray raylet / gcs processes of an earlier killed
run are recognised by that path in their command line and killed before
``ray.init``, which would otherwise hang on them.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<pid>/sockets/plasma_store (about 62 bytes)
_SOCKET_SUFFIX = 64


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def ray_temp_dir(work: str) -> str:
    d = os.path.join(os.path.abspath(work), "ray")
    if len(d) + _SOCKET_SUFFIX > 107:
        # a deep checkout cannot host Ray's sockets; use a short
        # per-checkout dir instead
        import hashlib
        tag = hashlib.sha1(d.encode()).hexdigest()[:8]
        d = os.path.join("/tmp", f"perfbench-{tag}")
    return d


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\x00", b" ").decode(errors="replace")
    except OSError:
        return ""


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _ppid_map() -> dict[int, int]:
    out = {}
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/stat") as f:
                st = f.read()
        except OSError:
            continue
        # field 4 after the parenthesised command name
        out[pid] = int(st[st.rindex(")") + 2:].split()[1])
    return out


def descendants(root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def session_pids(temp_dir: str) -> list[int]:
    """Ray processes (raylet, gcs_server, agents) of sessions rooted at
    ``temp_dir``, plus all their descendants (the workers)."""
    me = os.getpid()
    roots = [p for p in _pids() if p != me and temp_dir in _cmdline(p)]
    found = set(roots)
    for r in roots:
        found.update(descendants(r))
    found.discard(me)
    return sorted(found)


def kill_session(temp_dir: str, wait_s: float = 15.0) -> int:
    """SIGKILL every process of sessions under ``temp_dir`` and wait
    until they are gone. Returns how many were killed."""
    pids = session_pids(temp_dir)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline and session_pids(temp_dir):
        time.sleep(0.05)
    return len(pids)


class RaySession:
    """One local Ray session at a time, owned by this process."""

    def __init__(self, root: str, work: str, cpus: int):
        self.root = root
        self.cpus = cpus
        self.temp_dir = ray_temp_dir(work)

    def start(self) -> None:
        import logging

        import ray
        import ray.data as rd

        kill_session(self.temp_dir)
        # session dirs of ended sessions (logs, spill files) go too
        shutil.rmtree(self.temp_dir, ignore_errors=True)
        os.makedirs(self.temp_dir)
        # workers import zhtml_ray from the checkout, whatever the cwd
        path = os.environ.get("PYTHONPATH", "")
        if self.root not in path.split(os.pathsep):
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (self.root, path) if p)
        ray.init(address="local", num_cpus=self.cpus,
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=512 * 1024 * 1024,
                 _temp_dir=self.temp_dir)
        rd.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray
        try:
            ray.shutdown()
        finally:
            kill_session(self.temp_dir)
            shutil.rmtree(self.temp_dir, ignore_errors=True)


class Deadline:
    """Fails the run loudly instead of letting a hung session block:
    after ``seconds`` it kills the Ray processes and exits with 3."""

    def __init__(self, seconds: float, temp_dir: str):
        self._timer = threading.Timer(seconds, self._fire, (seconds,))
        self._timer.daemon = True
        self._temp_dir = temp_dir

    def _fire(self, seconds: float) -> None:
        print(f"perfbench: deadline of {seconds:.0f} s exceeded, "
              "killing the run", file=sys.stderr, flush=True)
        kill_session(self._temp_dir, wait_s=5.0)
        os._exit(3)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Low-rate sampler of the summed RSS of this process and all its
    descendants (raylet, gcs, every Ray worker) while the ``with`` block
    runs; ``peak_mb`` is the highest sum seen."""

    def __init__(self, period_s: float = 0.2):
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        total = rss_bytes(me) + sum(rss_bytes(p) for p in descendants(me))
        self.peak = max(self.peak, total)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.period_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 1e6


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two
    ``cpu_times`` samples, in percent."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d)
    return 100.0 * d[7] / total if total else 0.0
