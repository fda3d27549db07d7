"""Workload ``fresh-specs``: generated DSL specs, each new to the process.

The seed drives ``SpecGenerator(seed, GeneratorConfig(p_stall=0.2))``.
Each cold operation is what a user handing the tool a new DSL file
waits for: parse and validate the source, then one ``run_batch`` call
(kernel backend, ``mode="both"``, ``preflight="annotate"``, the fuzz
default ``max_visits=60_000``).  The kernel memos are cold and the
result cache misses.  The warm operation resubmits the same source
against the cache the cold run filled (three times; the median counts).

Sizes are heavy-tailed, so a 20 s run sees a different size mix per
seed; the medians are size-adjusted to :data:`MEDIAN_VISITS`
(see :func:`common.size_adjusted`).  As on the other workloads, the
``*_ref_p50_s`` timings are CPU seconds at the reference speed (see
:class:`common.SpeedProbe`).
"""

from __future__ import annotations

import random
from typing import Any

from common import (
    SETUP_SAMPLES,
    Ledger,
    Report,
    SpeedProbe,
    bench_child,
    canonical,
    clock,
    comparable,
    cpu_clock,
    done_enough,
    dump_samples,
    median,
    self_rss_mb,
    spans_path,
    size_adjusted,
)
from layers import decomposition_metrics, print_layer_table

OPTIONS = {"backend": "kernel", "mode": "both", "preflight": "annotate"}
MAX_VISITS = 60_000
#: Median kernel visit count of one generated spec, measured over 360
#: specs from generator seeds 1000-1023.
MEDIAN_VISITS = 670
#: The interpreter oracle checks specs up to this size (a 4,000-visit
#: spec costs the interpreter about 1.5 s on a 2-core machine) ...
ORACLE_MAX_VISITS = 4_000
#: ... within this share of the run length.
ORACLE_SHARE = 0.1
WARM_RESUBMITS = 3


def draw_sources(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` checked generator draws, rendered to DSL source."""
    from repro.testkit.generate import GeneratorConfig, SpecGenerator

    generator = SpecGenerator(seed, GeneratorConfig(p_stall=0.2))
    return [
        (model.name, model.render())
        for model, _ in (generator.draw_checked() for _ in range(count))
    ]


def pool_size(seconds: float) -> int:
    return max(8, int(6 * seconds))


def traced_count(seconds: float) -> int:
    """Specs per traced pass: fixed by the run length, so counts repeat."""
    return max(2, int(seconds / 3))


def submit(
    name: str, source: str, cache: Any, max_visits: int = MAX_VISITS
) -> tuple[Any, float]:
    """One user operation: parse, validate and verify a DSL source.

    Returns the job's result and the seconds spent inside ``run_batch``.
    """
    from repro.engine import VerificationJob, run_batch
    from repro.protocols.dsl import parse_protocol

    spec = parse_protocol(source, default_name=name)
    spec.validate()
    job = VerificationJob(spec=spec, max_visits=max_visits, label=name)
    started = clock()
    result = run_batch([job], cache=cache, **OPTIONS).results[0]
    return result, clock() - started


def _check(ledger: Ledger, name: str, result: Any, cached: bool) -> None:
    from repro.engine import JobStatus

    ledger.check(
        result.status in JobStatus.WITH_PAYLOAD and result.cached == cached,
        f"{name}: status {result.status} (cached={result.cached}, "
        f"expected {cached}): {result.error}",
    )


def _oracle(ledger: Ledger, seed: int, checkable: list[tuple[str, str, Any]], budget: float) -> str:
    """Interpreter vs kernel on a seeded sample of the verified specs."""
    from repro.core.serialize import result_to_dict
    from repro.core.verifier import verify
    from repro.engine import Budget, Guard
    from repro.protocols.dsl import parse_protocol

    sample = list(checkable)
    random.Random(seed).shuffle(sample)
    checked = 0
    deadline = clock() + budget
    for name, source, result in sample:
        if checked and clock() >= deadline:
            break
        spec = parse_protocol(source, default_name=name)
        reference = verify(
            spec, backend="interp", mode="both", validate_spec=False,
            guard=Guard(Budget(max_visits=MAX_VISITS)),
        )
        expected = result_to_dict(reference.result)
        mine = result.payload
        live = (mine.get("liveness") or {}).get("violations")
        ledger.check(
            mine["essential_states"] == expected["essential_states"]
            and mine["violations"] == expected["violations"]
            and live == (expected.get("liveness") or {}).get("violations"),
            f"{name}: kernel verdict/essential set/violations differ from the interpreter",
        )
        checked += 1
    return (
        f"interpreter oracle: seeded sample of {checked} specs "
        f"(<= {ORACLE_MAX_VISITS} visits)"
    )


def measure(args, env, work, ledger: Ledger, report: Report) -> None:
    from repro.engine import ResultCache

    setups = [
        bench_child("fresh-specs", args.seed, args.seconds, env, "--child", "setup")[1:]
        for _ in range(SETUP_SAMPLES)
    ]
    probe = SpeedProbe()
    sources = draw_sources(args.seed, pool_size(args.seconds))
    cache = ResultCache(work / "cache")
    # (wall, CPU) seconds per spec.
    cold: list[tuple[float, float]] = []
    warm: list[tuple[float, float]] = []
    visits: list[int] = []
    checkable: list[tuple[str, str, Any]] = []
    loop_started = clock()
    for name, source in sources:
        if done_enough(loop_started, args.seconds, len(cold), min_ops=40, hard_stop=2.0):
            break
        probe.sample()
        started, cpu = clock(), cpu_clock()
        first, _ = submit(name, source, cache)
        cold.append((clock() - started, cpu_clock() - cpu))
        # A resubmission takes milliseconds, so one GC pause or clock
        # hiccup would dominate it: each spec's warm sample is the
        # median of WARM_RESUBMITS.
        resubmits = []
        for _ in range(WARM_RESUBMITS):
            started, cpu = clock(), cpu_clock()
            again, _ = submit(name, source, cache)
            resubmits.append((clock() - started, cpu_clock() - cpu))
            _check(ledger, name, again, cached=True)
        warm.append(tuple(median(column) for column in zip(*resubmits)))
        _check(ledger, name, first, cached=False)
        if first.payload is None or again.payload is None:
            continue
        ledger.check(
            canonical(comparable(again.payload)) == canonical(comparable(first.payload)),
            f"{name}: warm payload differs from the cold one",
        )
        visits.append(first.payload["stats"]["visits"])
        if visits[-1] <= ORACLE_MAX_VISITS:
            checkable.append((name, source, first))
    elapsed = sum(wall for wall, _ in cold)
    dump_samples("fresh-specs", args.seed, {"cold": cold, "warm": warm, "visits": visits})
    note = _oracle(ledger, args.seed, checkable, ORACLE_SHARE * args.seconds)
    note += f" of {len(cold)} verified"

    sizes = visits if len(visits) == len(cold) else [1] * len(cold)
    columns = {"cold": list(zip(*cold)), "warm": list(zip(*warm))}
    adjusted = {
        (kind, i): size_adjusted(columns[kind][i], sizes, MEDIAN_VISITS)
        for kind in columns
        for i in (0, 1)
    }
    scale = probe.scale()
    report.add_latency("setup_s", [cpu for _, cpu in setups])
    report.add_latency("cold_ref_p50_s", [cpu * scale for cpu in columns["cold"][1]], adjusted["cold", 1] * scale)
    report.add_latency("warm_ref_p50_s", [cpu * scale for cpu in columns["warm"][1]], adjusted["warm", 1] * scale)
    probe.report(report)
    report.add_latency("cold_cpu_p50_s", columns["cold"][1], adjusted["cold", 1])
    report.add_latency("warm_cpu_p50_s", columns["warm"][1], adjusted["warm", 1])
    report.add_latency("setup_wall_s", [wall for wall, _ in setups])
    report.add_latency("cold_p50_s", columns["cold"][0], adjusted["cold", 0])
    report.add_latency("warm_p50_s", columns["warm"][0], adjusted["warm", 0])
    report.add("peak_rss_mb", self_rss_mb(), "MB", "benchmark process")
    report.add_latency("fresh_spec_p50_s", columns["cold"][0], adjusted["cold", 0])
    report.add("fresh_specs_per_s", len(cold) / elapsed, "1/s", f"{len(cold)} specs, median visits {median(visits):.0f}")
    report.add("fail_ratio", ledger.fail_ratio, "ratio")
    report.print_lines("end-to-end (1 closed-loop client, cold then warm per spec)")
    print(f"  {note}")


def trace(args, env, work, ledger: Ledger, report: Report) -> None:
    passes = [
        bench_child("fresh-specs", args.seed, args.seconds, env, "--child", kind)[0]
        for kind in ("decompose", "decompose", "untraced")
    ]
    decomposition_metrics(passes[:2], passes[2], ledger, report)
    print_layer_table(report, "spec (cold run + warm resubmission)")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child(args, work) -> dict[str, Any]:
    if args.child == "setup":
        draw_sources(args.seed, pool_size(args.seconds))
        return {}
    from repro.engine import ResultCache

    cache = ResultCache(work / "cache")
    chosen = draw_sources(args.seed, traced_count(args.seconds))
    if args.child == "untraced":
        batch_wall = 0.0
        started = clock()
        for name, source in chosen:
            for _ in range(2):
                batch_wall += submit(name, source, cache)[1]
        wall = clock() - started
        return {"wall": wall, "batch_wall": batch_wall, "ops": len(chosen)}

    from repro.engine import VerificationJob
    from repro.protocols.dsl import parse_protocol

    from tracing import Tracer, traced_job

    tracer = Tracer()
    started = clock()
    for name, source in chosen:
        for phase in ("cold", "warm"):
            with tracer.op(f"{name}.{phase}", f"spec.{phase}"):
                with tracer.layer("parse"):
                    spec = parse_protocol(source, default_name=name)
                with tracer.layer("validate"), tracer.probing(spec, "validate"):
                    spec.validate()
                job = VerificationJob(
                    spec=spec, max_visits=MAX_VISITS, label=name, **OPTIONS
                )
                traced_job(tracer, job, cache)
    wall = clock() - started
    tracer.dump(spans_path("fresh-specs", args.seed))
    return {
        "self": tracer.self_times(),
        "probes": dict(tracer.probes),
        "counts": dict(tracer.counts),
        "wall": wall,
        "ops": len(chosen),
    }
