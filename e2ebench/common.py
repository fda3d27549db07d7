"""Shared plumbing of the end-to-end benchmark: paths, statistics,
subprocess environment, the correctness ledger and result printing.

Nothing here imports ``repro``: the CLI workload never loads the
package into the benchmark process, so its numbers are those of cold
processes only.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

#: Root of the checkout the benchmark measures (``e2ebench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
#: Everything the benchmark writes lives under here (git-ignored).
OUT = ROOT / ".e2ebench"

clock = time.perf_counter


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    The gated timings start from CPU time, not wall time: on a shared
    host the wall time of one operation also counts the moments the
    scheduler gives its core to someone else, and that share changes
    from minute to minute.  The program's work does not; the wall times
    are printed beside the CPU times.  See also :class:`SpeedProbe`.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: The reference speed: gated metrics are CPU seconds on a machine where
#: :func:`speed_probe_loop` takes this long (the shared 2-core x86_64 VM
#: the benchmark was written on takes 0.03-0.05 s, with Python 3.11).
REFERENCE_PROBE_S = 0.05


def speed_probe_loop() -> None:
    """A fixed pure-Python task: tuple keys into a dict, a sort, strings.

    It uses the interpreter the way the program does (hashing,
    allocation, dict and list work) and nothing of the program, so its
    CPU time tracks how fast the machine runs Python right now.
    """
    counts: dict[tuple[int, int], int] = {}
    state = 12345
    for i in range(16_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state % 50_000, i % 97)
        counts[key] = counts.get(key, 0) + 1
    "".join([str(item) for item in sorted(counts.items())])


class SpeedProbe:
    """Samples the machine's speed between a run's timed operations.

    The shared host this benchmark runs on changes speed by a quarter
    and more from minute to minute (other tenants' load on the same
    cores and caches), and CPU time stretches with it.  Each gated
    metric is therefore scaled to the reference speed: a run's median
    CPU seconds times ``REFERENCE_PROBE_S`` over the median CPU time of
    this probe, sampled before every timed operation of the same run.
    The probe runs none of the program, so a change to the program
    moves the scaled figure exactly as it moves CPU time.  Set-up is not
    scaled: it runs in the first seconds of a run, apart from the
    operations the probe is sampled between.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the probe twice and keep the faster: a core that has just
        been idle runs the first tens of milliseconds slowly."""
        times = []
        for _ in range(2):
            started = time.process_time()
            speed_probe_loop()
            times.append(time.process_time() - started)
        self.samples.append(min(times))

    def scale(self) -> float:
        """Factor from this run's CPU seconds to reference seconds."""
        return REFERENCE_PROBE_S / median(self.samples)

    def report(self, report: "Report") -> None:
        report.add_latency("speed_probe_s", self.samples)


#: The CPUs this process may run on, as it was started.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The host's cores do not run at the same speed at the same moment, so
    the speed probe and the operations it scales must share one.  The
    workloads are one closed-loop client, so one CPU serves them.
    """
    os.sched_setaffinity(0, {max(ALL_CPUS)})


def process_cpu(pid: int) -> float:
    """CPU seconds a live process has used so far, all threads included.

    Reads the process's CPU-time clock (``clock_getcpuclockid``), which
    Linux names ``(~pid << 3) | CPUCLOCK_SCHED``; nanosecond resolution.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_SAMPLES = 5


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: Sequence[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            ordered = sorted(values)
            rank = min(n - 1, math.ceil(pct / 100 * n) - 1)
            return f"p{pct:g}", ordered[rank]
    return None


def size_adjusted(
    values: Sequence[float], sizes: Sequence[int], reference: float
) -> float:
    """Median latency of an input of size *reference*.

    Fits ``log(value) = a + b * log(size)`` with the Theil-Sen
    estimator (median of pairwise slopes, then median intercept) over
    all of a run's samples, and evaluates it at *reference*.  A short
    run of heavy-tailed inputs sees a different size mix per seed;
    the fit uses every sample to answer the same question each time.
    The raw median is always printed beside it.
    """
    points = [(math.log(max(size, 1)), math.log(value)) for value, size in zip(values, sizes)]
    slopes = [
        (y2 - y1) / (x2 - x1)
        for i, (x1, y1) in enumerate(points)
        for x2, y2 in points[i + 1 :]
        if x2 != x1
    ]
    slope = statistics.median(slopes) if slopes else 0.0
    intercept = statistics.median(y - slope * x for x, y in points)
    return math.exp(intercept + slope * math.log(reference))


def done_enough(
    started: float, seconds: float, ops: int, min_ops: int = 20, hard_stop: float = 1.5
) -> bool:
    """Whether a timed loop may stop.

    Loops run for ``seconds`` and until ``min_ops`` operations are done,
    but never past ``hard_stop`` times ``seconds``: a seed that draws a
    budget-exhausting spec early still gets enough samples.
    """
    elapsed = clock() - started
    if ops == 0:
        return False
    return elapsed >= seconds * hard_stop or (elapsed >= seconds and ops >= min_ops)


# ----------------------------------------------------------------------
# Processes and files
# ----------------------------------------------------------------------
def work_dir(workload: str) -> Path:
    """A fresh per-run scratch directory inside the checkout."""
    path = OUT / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    return path


def child_env(work: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The package is imported from the checkout's ``src``; temp files and
    any default cache land inside the run's scratch directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(
    args: Sequence[str], env: dict[str, str], timeout: float = 120.0
) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run one process to completion; returns it, its wall and CPU time."""
    cpu = cpu_clock()
    started = clock()
    proc = subprocess.run(
        list(args),
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc, clock() - started, cpu_clock() - cpu


def bench_child(
    workload: str, seed: int, seconds: float, env: dict[str, str], *extra: str
) -> tuple[dict[str, Any], float, float]:
    """Run this benchmark's own entry point in a child process.

    Used for set-up samples (``--child setup``) and for traced passes
    that must start with cold in-process memos.  The child prints one
    JSON document as its last stdout line.  Returns it with the child's
    wall and CPU time.
    """
    proc, wall, cpu = run_child(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            *extra,
        ],
        env,
        timeout=170.0,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark child {extra} failed ({proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, cpu


def self_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest peak RSS among the waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def load_goldens() -> dict[str, dict[str, Any]]:
    """The read-only zoo goldens (interpreter, safety-only payloads)."""
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(GOLDENS.glob("*.json"))
    }


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Payload fields that legitimately differ between runs of one job: the
#: wall time, and ``stats.scenarios``, which the kernel reports as 0 when
#: its successor memos are already warm (documented in docs/KERNEL.md).
RUN_DEPENDENT = ("elapsed_seconds", "scenarios")


def comparable(payload: dict[str, Any]) -> dict[str, Any]:
    """A payload without its run-dependent fields."""
    out = dict(payload)
    out["stats"] = {
        k: v for k, v in payload["stats"].items() if k not in RUN_DEPENDENT
    }
    return out


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced pass writes its spans (one JSON list)."""
    return OUT / f"spans-{workload}-seed{seed}-{os.getpid()}.json"


def dump_samples(workload: str, seed: int, samples: dict[str, Any]) -> None:
    """Keep a run's raw per-operation samples beside its spans."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"samples-{workload}-seed{seed}-{os.getpid()}.json"
    path.write_text(json.dumps(samples) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Correctness ledger and output
# ----------------------------------------------------------------------
class Ledger:
    """Counts operations and checks attempted, and those that failed.

    Every timed operation and every untimed correctness check is one
    attempt; a wrong or missing verdict, an error status, an unexpected
    exit code or an HTTP failure is one failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Report:
    """Named metrics with units, printed for people and as JSON."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.values[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def add_latency(
        self, name: str, samples: Sequence[float], value: float | None = None
    ) -> None:
        """A median timing plus its sample count and tail percentile."""
        shown = median(samples) if value is None else value
        note = f"n={len(samples)}"
        if value is not None:
            note += f", raw median={median(samples):.6f}"
        edge = tail(samples)
        note += (
            f", {edge[0]}={edge[1]:.6f}" if edge else ", no tail (n<20)"
        )
        self.add(name, shown, "s", note)

    def print_lines(self, title: str) -> None:
        print(f"== {self.workload}: {title}")
        for name, (value, unit) in self.values.items():
            note = self.notes.get(name, "")
            print(f"  {name:<28} {value:>14.6f} {unit:<6} {note}".rstrip())

    def metrics(self, names: Sequence[str]) -> dict[str, dict[str, Any]]:
        return {
            name: {"value": self.values[name][0], "unit": self.values[name][1]}
            for name in names
        }


def finish(
    ledger: Ledger, metrics: dict[str, dict[str, Any]]
) -> int:
    """Print the ledger and the final JSON line; return the exit code."""
    print(
        f"== checks: attempted={ledger.attempted} failed={ledger.failed} "
        f"fail_ratio={ledger.fail_ratio:.6f}"
    )
    for problem in ledger.problems:
        print(f"  FAIL {problem}")
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
