"""Workload ``cli-verify``: cold ``python -m repro verify <p> --quiet``.

A closed loop of one client.  The seed shuffles the ten zoo protocols
each pass; every protocol is verified twice in a row, and the second
process is the "warm" sample.  The CLI keeps no state between
processes, so the prediction is warm == cold: this workload is the
control on which cache changes must show nothing, while import and
other fixed costs show fully.  The gated timings are the CPU seconds
of each process at the reference speed (see :class:`common.SpeedProbe`).
"""

from __future__ import annotations

import random
import re
import statistics
import sys
from typing import Any

from common import (
    SETUP_SAMPLES,
    Ledger,
    Report,
    SpeedProbe,
    bench_child,
    children_rss_mb,
    clock,
    load_goldens,
    median,
    run_child,
    spans_path,
)
from layers import decomposition_metrics, print_layer_table

SUMMARY = re.compile(r": (\w+); (\d+) essential states, (\d+) state visits")
IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def _check_process(
    ledger: Ledger, name: str, proc: Any, golden: dict[str, Any]
) -> None:
    found = SUMMARY.search(proc.stdout)
    expected = ("VERIFIED", len(golden["essential_states"]), golden["stats"]["visits"])
    ledger.check(
        proc.returncode == 0
        and found is not None
        and (found[1], int(found[2]), int(found[3])) == expected,
        f"verify {name}: exit {proc.returncode}, output "
        f"{proc.stdout.strip()[:200]!r}, expected {expected}",
    )


def _verify_cmd(name: str) -> list[str]:
    return [sys.executable, "-m", "repro", "verify", name, "--quiet"]


def _import_sample(env: dict[str, str]) -> tuple[float, float]:
    """Wall and CPU seconds of one ``python -c "import repro"`` process."""
    proc, wall, cpu = run_child([sys.executable, "-c", "import repro"], env)
    if proc.returncode != 0:
        raise RuntimeError(f"import repro failed: {proc.stderr[-2000:]}")
    return wall, cpu


def measure(args, env, work, ledger: Ledger, report: Report) -> None:
    goldens = load_goldens()
    names = sorted(goldens)
    rng = random.Random(args.seed)
    # Set-up of a CLI call is starting Python and importing the package.
    setups = [_import_sample(env) for _ in range(SETUP_SAMPLES)]
    probe = SpeedProbe()

    # (wall, CPU) seconds per process.
    cold: list[tuple[float, float]] = []
    warm: list[tuple[float, float]] = []
    deadline = clock() + args.seconds
    order: list[str] = []
    while clock() < deadline or not cold:
        if not order:
            order = rng.sample(names, len(names))
        name = order.pop()
        for samples in (cold, warm):
            probe.sample()
            proc, wall, cpu = run_child(_verify_cmd(name), env)
            _check_process(ledger, name, proc, goldens[name])
            samples.append((wall, cpu))

    illinois = goldens["illinois"]
    ledger.check(
        (len(illinois["essential_states"]), illinois["stats"]["visits"]) == (5, 23),
        "Illinois golden must have 5 essential states and 23 visits",
    )
    scale = probe.scale()
    report.add_latency("setup_s", [cpu for _, cpu in setups])
    report.add_latency("cold_ref_p50_s", [cpu * scale for _, cpu in cold])
    report.add_latency("warm_ref_p50_s", [cpu * scale for _, cpu in warm])
    probe.report(report)
    report.add_latency("cold_cpu_p50_s", [cpu for _, cpu in cold])
    report.add_latency("warm_cpu_p50_s", [cpu for _, cpu in warm])
    report.add_latency("setup_wall_s", [wall for wall, _ in setups])
    report.add_latency("cold_p50_s", [wall for wall, _ in cold])
    report.add_latency("warm_p50_s", [wall for wall, _ in warm])
    report.add("peak_rss_mb", children_rss_mb(), "MB", "largest verify process")
    report.add_latency("cli_verify_p50_s", [wall for wall, _ in cold + warm])
    report.add("fail_ratio", ledger.fail_ratio, "ratio")
    report.print_lines("end-to-end (cold processes, 1 closed-loop client)")


def _import_breakdown(env: dict[str, str], runs: int = 5) -> dict[str, float]:
    """Cumulative import seconds per module, median over ``runs``."""
    samples: dict[str, list[float]] = {"repro": [], "numpy": [], "networkx": []}
    for _ in range(runs):
        proc, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import repro"], env)
        seen: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            found = IMPORTTIME.search(line)
            if found and found[2] in samples:
                seen[found[2]] = max(seen.get(found[2], 0.0), int(found[1]) / 1e6)
        for module, bucket in samples.items():
            bucket.append(seen.get(module, 0.0))
    return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}


def trace(args, env, work, ledger: Ledger, report: Report) -> None:
    goldens = load_goldens()
    names = sorted(goldens)
    imports = _import_breakdown(env)
    walls = []
    for name in names:
        proc, wall, _ = run_child(_verify_cmd(name), env)
        _check_process(ledger, name, proc, goldens[name])
        walls.append(wall)
    passes = [bench_child("cli-verify", args.seed, args.seconds, env, "--child", "decompose")[0] for _ in range(2)]
    inproc = bench_child("cli-verify", args.seed, args.seconds, env, "--child", "untraced")[0]
    untraced = {
        "wall": sum(walls),
        "inproc_wall": inproc["wall"],
        "extra": imports,
    }
    decomposition_metrics(passes, untraced, ledger, report)
    print(f"== cli-verify: median process wall {median(walls):.6f} s over {len(walls)} protocols")
    print_layer_table(report, "verify process")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child(args, work) -> dict[str, Any]:
    """In-process replica of ``repro verify <p> --quiet`` per protocol."""
    from repro.core.essential import explore
    from repro.core.verifier import VerificationReport, verify
    from repro.protocols.registry import get_protocol

    from tracing import Tracer

    names = sorted(load_goldens())
    if args.child == "untraced":
        started = clock()
        for name in names:
            str(verify(get_protocol(name)))
        return {"wall": clock() - started, "ops": len(names)}
    tracer = Tracer()
    started = clock()
    for name in names:
        with tracer.op(name, "cli.verify"):
            with tracer.layer("protocols.resolve"):
                spec = get_protocol(name)
            with tracer.layer("validate"), tracer.probing(spec, "validate"):
                spec.validate()
            with tracer.layer("interp.expand"):
                result = explore(spec)
            str(VerificationReport(result))
    wall = clock() - started
    tracer.dump(spans_path("cli-verify", args.seed))
    return {
        "self": tracer.self_times(),
        "probes": dict(tracer.probes),
        "counts": dict(tracer.counts),
        "wall": wall,
        "ops": len(names),
    }
