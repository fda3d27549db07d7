"""Workload ``zoo-campaign``: in-process ``run_batch`` over the zoo and
its mutants (kernel backend, ``mode="both"``, ``preflight="annotate"``).

Each round has two timed phases on one seed-permuted job list: serial
with an empty result cache (which fills it), then serial replays
against that warm cache.  After the last round one ``workers=2`` batch
runs with no cache.  One input set exercises the runner, liveness,
serialization and the cache.  An untimed safety-only warm-up batch
compiles every spec first, so every timed batch sees warm kernel
memos, as in any long-lived process; the result cache is what "cold"
refers to.  The gated timings are CPU seconds at the reference speed
(see :class:`common.SpeedProbe`); wall times are printed beside them.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
from dataclasses import replace
from typing import Any

from common import (
    ALL_CPUS,
    SETUP_SAMPLES,
    Ledger,
    Report,
    SpeedProbe,
    bench_child,
    canonical,
    clock,
    comparable,
    cpu_clock,
    dump_samples,
    load_goldens,
    pin_one_cpu,
    self_rss_mb,
    spans_path,
)
from layers import decomposition_metrics, print_layer_table

OPTIONS = {"backend": "kernel", "mode": "both", "preflight": "annotate"}
WARM_REPLAYS = 2


def build_jobs(seed: int) -> list[Any]:
    """The zoo plus every applicable mutant, in a seed-permuted order."""
    from repro.engine import VerificationJob
    from repro.protocols.mutations import mutants_for
    from repro.protocols.registry import get_protocol, protocol_names

    jobs = []
    for name in protocol_names():
        jobs.append(VerificationJob(protocol=name))
        for mutant in mutants_for(get_protocol(name)):
            jobs.append(VerificationJob(protocol=name, mutant=mutant.mutation.key))
    random.Random(seed).shuffle(jobs)
    return jobs


def _check_batch(ledger: Ledger, phase: str, report: Any, cached: bool) -> None:
    from repro.engine import JobStatus

    for result in report.results:
        expected = JobStatus.VIOLATION if result.job.mutant else JobStatus.VERIFIED
        ledger.check(
            result.status == expected and result.cached == cached,
            f"{phase} {result.job.label}: status {result.status} "
            f"(cached={result.cached}), expected {expected} (cached={cached})",
        )


def _check_warmup(ledger: Ledger, batch: Any) -> dict[str, dict[str, Any]]:
    """Goldens and Illinois, on the untimed warm-up batch.

    The warm-up is a safety-only batch on cold kernel memos, so its
    payloads must equal the interpreter's goldens field for field.
    """
    goldens = load_goldens()
    payloads = {r.job.label: r.payload for r in batch.results}
    for label, golden in goldens.items():
        mine = dict(payloads[label])
        mine["stats"] = {
            k: v for k, v in mine["stats"].items() if k != "elapsed_seconds"
        }
        ledger.check(
            mine == golden,
            f"{label}: kernel payload differs from tests/goldens/{label}.json",
        )
    illinois = payloads["illinois"]
    ledger.check(
        (len(illinois["essential_states"]), illinois["stats"]["visits"]) == (5, 23),
        "illinois: expected 5 essential states and 23 visits",
    )
    return payloads


def _check_payloads(
    ledger: Ledger, phase: str, batch: Any, wanted: dict[str, str]
) -> None:
    """Every phase's payloads are identical to the first cold batch's."""
    for result in batch.results:
        mine = canonical(comparable(result.payload))
        if result.job.label not in wanted:
            wanted[result.job.label] = mine
        ledger.check(
            mine == wanted[result.job.label],
            f"{phase} {result.job.label}: payload differs from the first cold run",
        )


def measure(args, env, work, ledger: Ledger, report: Report) -> None:
    from repro.engine import ResultCache, run_batch

    setups = [
        bench_child("zoo-campaign", args.seed, args.seconds, env, "--child", "setup")[1:]
        for _ in range(SETUP_SAMPLES)
    ]
    probe = SpeedProbe()
    jobs = build_jobs(args.seed)
    ledger.check(
        sum(1 for j in jobs if j.mutant) == 41 and len(jobs) == 51,
        f"expected 10 protocols + 41 mutants, got {len(jobs)} jobs",
    )
    # Untimed warm-up: compiles every spec once, so each timed cold
    # batch sees the same warm kernel memos (a long-lived process);
    # "cold" is the result cache.
    safety = run_batch(jobs, backend="kernel", mode="safety")
    reference = _check_warmup(ledger, safety)
    wanted: dict[str, str] = {}
    times: dict[str, list[float]] = {"cold": [], "warm": [], "j2": []}
    cpu: dict[str, list[float]] = {"cold": [], "warm": [], "j2": []}

    def timed(phase: str, **kwargs: Any) -> None:
        gc.collect()
        probe.sample()
        started, cpu_started = clock(), cpu_clock()
        batch = run_batch(jobs, **kwargs, **OPTIONS)
        times[phase].append(clock() - started)
        cpu[phase].append(cpu_clock() - cpu_started)
        _check_batch(ledger, phase, batch, cached=phase == "warm")
        if not wanted:
            for result in batch.results:
                mine = {k: v for k, v in result.payload.items() if k != "liveness"}
                ledger.check(
                    comparable(mine) == comparable(reference[result.job.label]),
                    f"{result.job.label}: mode=both payload differs from the safety run",
                )
        _check_payloads(ledger, phase, batch, wanted)

    # Whole rounds only, so every run has WARM_REPLAYS warm samples per
    # cold one; the workers=2 batch runs once, after the last round.
    loop_started = clock()
    rounds = 0
    while rounds == 0 or clock() - loop_started < args.seconds:
        cache_dir = work / f"cache-{rounds}"
        cache = ResultCache(cache_dir)
        for phase in ["cold"] + ["warm"] * WARM_REPLAYS:
            timed(phase, cache=cache)
        shutil.rmtree(cache_dir, ignore_errors=True)
        rounds += 1
    # The run is pinned to one CPU (common.pin_one_cpu); workers=2
    # gets them all.
    os.sched_setaffinity(0, ALL_CPUS)
    timed("j2", workers=2)
    pin_one_cpu()
    dump_samples("zoo-campaign", args.seed, {"cpu": cpu, "wall": times, "probe": probe.samples})

    scale = probe.scale()
    report.add_latency("setup_s", [c for _, c in setups])
    report.add_latency("cold_ref_p50_s", [c * scale for c in cpu["cold"]])
    report.add_latency("warm_ref_p50_s", [c * scale for c in cpu["warm"]])
    probe.report(report)
    report.add_latency("cold_cpu_p50_s", cpu["cold"])
    report.add_latency("warm_cpu_p50_s", cpu["warm"])
    report.add_latency("setup_wall_s", [w for w, _ in setups])
    report.add_latency("cold_p50_s", times["cold"])
    report.add_latency("warm_p50_s", times["warm"])
    report.add("peak_rss_mb", self_rss_mb(), "MB", "benchmark process (serial runs in-process)")
    report.add_latency("batch_cold_s", times["cold"])
    report.add_latency("batch_warm_s", times["warm"])
    report.add_latency("batch_j2_s", times["j2"])
    report.add("fail_ratio", ledger.fail_ratio, "ratio")
    report.print_lines(f"end-to-end ({len(jobs)} jobs per batch, {rounds} rounds)")


def trace(args, env, work, ledger: Ledger, report: Report) -> None:
    passes = [
        bench_child("zoo-campaign", args.seed, args.seconds, env, "--child", "decompose")[0]
        for _ in range(2)
    ]
    untraced = bench_child("zoo-campaign", args.seed, args.seconds, env, "--child", "untraced")[0]
    decomposition_metrics(passes, untraced, ledger, report)
    print_layer_table(report, "cycle (one cold batch + one warm batch)")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child(args, work) -> dict[str, Any]:
    if args.child == "setup":
        build_jobs(args.seed)
        return {}
    from repro.engine import ResultCache, run_batch

    jobs = build_jobs(args.seed)
    if args.child == "untraced":
        cache = ResultCache(work / "cache")
        started = clock()
        for _ in range(2):  # one cold batch, one warm replay
            run_batch(jobs, cache=cache, **OPTIONS)
        wall = clock() - started
        started = clock()
        run_batch(jobs, **OPTIONS)
        serial = clock() - started
        started = clock()
        run_batch(jobs, workers=2, **OPTIONS)
        parallel = clock() - started
        return {
            "wall": wall,
            "batch_wall": wall,
            "ops": 1,
            "extra": {"runner.parallel_speedup": serial / parallel},
        }

    from tracing import Tracer, traced_job

    # run_batch applies its backend/mode/preflight overrides to the jobs.
    jobs = [replace(job, **OPTIONS) for job in jobs]
    tracer = Tracer()
    cache = ResultCache(work / "cache")
    started = clock()
    for phase in ("cold", "warm"):
        with tracer.op(phase, f"batch.{phase}"):
            for job in jobs:
                traced_job(tracer, job, cache)
    wall = clock() - started
    tracer.dump(spans_path("zoo-campaign", args.seed))
    return {
        "self": tracer.self_times(),
        "probes": dict(tracer.probes),
        "counts": dict(tracer.counts),
        "wall": wall,
        "ops": 1,
    }
