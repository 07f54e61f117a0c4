"""Shared pieces of the benchmark: statistics, the per-run context,
the operation ledger and process-tree resource accounting.

Nothing here imports :mod:`repro`, so the steadiness report and the
benchmark's own tests can use it without the toolkit on the path.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: the repository checkout the benchmark runs in (parent of this package)
ROOT = Path(__file__).resolve().parent.parent
#: the toolkit's source tree inside that checkout
SRC = ROOT / "src"
#: everything a run writes lives under here (ignored by git)
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper_sweep", "fuzz_campaign", "corpus_replay", "serve_mixed")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the 'exclusive' method); a single value is its own
    quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def worse_by(first: float, second: float, better: str) -> float:
    """How much *second* is worse than *first*, as a share of *first*
    (negative when it is better)."""
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One timed operation: its latency and whether it succeeded."""

    name: str
    latency_ms: float
    ok: bool = True
    detail: str = ""


class Ledger:
    """Operations of one run plus run-level problems.

    A failed operation (an error, or an output that differs from its
    reference) counts in ``failed``; a run-level problem (cache state,
    isolation) makes the run incorrect.
    """

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.problems: list[str] = []

    def add(self, name: str, latency_ms: float, ok: bool = True, detail: str = "") -> Op:
        op = Op(name, latency_ms, ok, detail)
        self.ops.append(op)
        return op

    def fail(self, op: Op, detail: str) -> None:
        """Mark an already-recorded operation failed (a later check)."""
        if op.ok:
            op.ok = False
            op.detail = detail

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def failures(self, limit: int = 5) -> list[str]:
        return [f"{op.name}: {op.detail}" for op in self.ops if not op.ok][:limit]


# ---------------------------------------------------------------------------
# the run's private directories and environment
# ---------------------------------------------------------------------------


class RunContext:
    """Directories and environment of one benchmark run.

    Every process of the run sees ``REPRO_CACHE_DIR`` pointing at the
    run's own store and ``TMPDIR`` at the run's own temporary directory
    (where the native engine keeps its ``.so`` files and ``cc`` its
    scratch files), so no run reads or writes a shared cache.
    """

    def __init__(self, workload: str, seed: int, seconds: float, jobs: int,
                 root: Path | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.jobs = jobs
        self.dir = Path(root) if root is not None else (
            WORK / "runs" / f"{workload}-s{seed}-p{os.getpid()}"
        )
        self.store_dir = self.dir / "store"
        self.tmp_dir = self.dir / "tmp"

    def create(self) -> "RunContext":
        if self.dir.exists():
            shutil.rmtree(self.dir)
        for path in (self.store_dir, self.tmp_dir, self.dir / "xdg"):
            path.mkdir(parents=True)
        return self

    def env(self) -> dict:
        """Environment for this run's processes (and this one)."""
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(self.store_dir)
        env["TMPDIR"] = str(self.tmp_dir)
        env["XDG_CACHE_HOME"] = str(self.dir / "xdg")
        env.pop("REPRO_NO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        return env

    def apply(self) -> None:
        """Make this process one of the run's processes."""
        env = self.env()
        os.environ.clear()
        os.environ.update(env)
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR

    def subdir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def cpu_budget() -> int:
    """Worker processes, server jobs and client connections per run."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# process-tree accounting
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return kids


def _proc_cpu_ticks(pid: int) -> int:
    """utime + stime + cutime + cstime of *pid* (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0
    return sum(int(f) for f in fields[11:15])


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and all its descendants.

    Live descendants are read from ``/proc``; finished ones that were
    waited for are inside their parent's ``cutime``/``cstime``, so a
    job process reaped by the service's fork server still counts.
    Falls back to ``getrusage`` where ``/proc`` is absent.
    """
    if not os.path.isdir("/proc/self/task"):
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    ticks = 0
    pending = [os.getpid()]
    seen: set[int] = set()
    while pending:
        pid = pending.pop()
        if pid in seen:
            continue
        seen.add(pid)
        ticks += _proc_cpu_ticks(pid)
        pending.extend(_proc_children(pid))
    return ticks / _TICK


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    The service's fork server outlives the server process that started
    it; as our own child it can be waited for, so its resource usage
    (and that of the job processes it reaped) reaches ``getrusage``.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every remaining child (adopted orphans included); kill
    whatever is still running after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for kid in _proc_children(os.getpid()):
                try:
                    os.kill(kid, 9)
                except OSError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return max(own, kids) / scale


class Timer:
    """Wall clock and process-tree CPU of a timed region."""

    def __enter__(self) -> "Timer":
        self.cpu0 = tree_cpu_s()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self.cpu_s = tree_cpu_s() - self.cpu0
