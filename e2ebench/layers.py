"""Per-layer metrics: names, units, and the traced-run report.

Every workload reports every per-layer metric; a layer that is not on
a workload's path reads 0.  Times and counts are per operation of the
workload's traced cycle (see README.md).
"""

from __future__ import annotations

from typing import Any

from common import Ledger, Report

#: (metric, unit) in the order they are printed.
PER_LAYER: list[tuple[str, str]] = [
    ("import.repro_s", "s"),
    ("import.numpy_s", "s"),
    ("import.networkx_s", "s"),
    ("protocols.resolve_s", "s"),
    ("parse.s", "s"),
    ("lint.s", "s"),
    ("lint.react_probes", "count"),
    ("validate.s", "s"),
    ("validate.react_probes", "count"),
    ("fingerprint.s", "s"),
    ("fingerprint.react_probes", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("lower.s", "s"),
    ("lower.react_probes", "count"),
    ("compile.s", "s"),
    ("kernel.expand.s", "s"),
    ("expand.visits", "count"),
    ("expand.expanded", "count"),
    ("kernel.containment.hits", "count"),
    ("kernel.intern.hits", "count"),
    ("kernel.intern.misses", "count"),
    ("interp.expand.s", "s"),
    ("interp.visits", "count"),
    ("liveness.s", "s"),
    ("liveness.nodes", "count"),
    ("liveness.over_expand", "ratio"),
    ("serialize.s", "s"),
    ("serialize.bytes", "bytes"),
    ("batch.unattributed_s", "s"),
    ("runner.parallel_speedup", "ratio"),
    ("serve.submit_s", "s"),
    ("serve.first_event_s", "s"),
    ("serve.stream_s", "s"),
    ("serve.report_get_s", "s"),
    ("serve.cache.served", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]

#: Span name -> per-layer time metric.
SPAN_METRIC = {
    "protocols.resolve": "protocols.resolve_s",
    "parse": "parse.s",
    "lint": "lint.s",
    "validate": "validate.s",
    "fingerprint": "fingerprint.s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "lower": "lower.s",
    "compile": "compile.s",
    "kernel.expand": "kernel.expand.s",
    "interp.expand": "interp.expand.s",
    "liveness": "liveness.s",
    "serialize": "serialize.s",
    "serve.submit": "serve.submit_s",
    "serve.first_event": "serve.first_event_s",
    "serve.stream": "serve.stream_s",
    "serve.report_get": "serve.report_get_s",
}
#: Layers that run inside ``run_batch`` (for ``batch.unattributed_s``).
BATCH_SPANS = (
    "protocols.resolve", "lint", "fingerprint", "cache.get", "cache.put",
    "lower", "compile", "kernel.expand", "liveness", "serialize",
)
#: (span:counter) -> per-layer count metric.
COUNTER_METRIC = {
    "kernel.expand:expand.visits": "expand.visits",
    "kernel.expand:expand.expanded": "expand.expanded",
    "kernel.expand:kernel.containment.hits": "kernel.containment.hits",
    "kernel.expand:kernel.intern.hits": "kernel.intern.hits",
    "kernel.expand:kernel.intern.misses": "kernel.intern.misses",
    "interp.expand:expand.visits": "interp.visits",
    "liveness:liveness.nodes": "liveness.nodes",
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "serialize.bytes": "serialize.bytes",
    "serve.cache.served": "serve.cache.served",
}
#: Times that are part of another row (or not of the operation).
NESTED = (
    "import.numpy_s", "import.networkx_s", "batch.unattributed_s",
    "trace.overhead_s",
)
PROBE_METRIC = {
    "lint": "lint.react_probes",
    "validate": "validate.react_probes",
    "fingerprint": "fingerprint.react_probes",
    "lower": "lower.react_probes",
}


def decomposition_metrics(
    passes: list[dict[str, Any]],
    untraced: dict[str, Any],
    ledger: Ledger,
    report: Report,
) -> None:
    """Fold two traced passes and one untraced pass into *report*.

    Each pass is the JSON a ``--child decompose`` / ``--child untraced``
    process printed: ``self`` (span self times), ``probes``,
    ``counts``, ``wall`` (traced cycle wall) and ``ops``.  The work
    counts of the two traced passes must repeat exactly.
    """
    first, second = passes
    for key in ("probes", "counts", "ops"):
        ledger.check(
            first[key] == second[key],
            f"traced {key} differ between two traced runs: "
            f"{first[key]} != {second[key]}",
        )
    ops = first["ops"]
    values = {name: 0.0 for name, _ in PER_LAYER}
    self_s = {
        span: sum(p["self"].get(span, 0.0) for p in passes) / len(passes) / ops
        for span in SPAN_METRIC
    }
    for span, metric in SPAN_METRIC.items():
        values[metric] = self_s[span]
    for key, metric in COUNTER_METRIC.items():
        values[metric] = first["counts"].get(key, 0) / ops
    for span, metric in PROBE_METRIC.items():
        values[metric] = first["probes"].get(span, 0) / ops
    lookups = values["cache.hits"] + values["cache.misses"]
    values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
    if values["kernel.expand.s"] > 0:
        values["liveness.over_expand"] = (
            values["liveness.s"] / values["kernel.expand.s"]
        )
    # Layers measured outside the traced process (the CLI's import).
    extra = untraced.get("extra", {})
    values.update(extra)
    outside = sum(
        value for key, value in extra.items()
        if key.endswith("_s") and key not in NESTED
    )
    values["unattributed_s"] = (
        untraced["wall"] / ops - sum(self_s.values()) - outside
    )
    if "batch_wall" in untraced:
        values["batch.unattributed_s"] = untraced["batch_wall"] / ops - sum(
            self_s[span] for span in BATCH_SPANS
        )
    traced_wall = sum(p["wall"] for p in passes) / len(passes) / ops
    values["trace.overhead_s"] = (
        traced_wall - untraced.get("inproc_wall", untraced["wall"]) / ops
    )
    for name, unit in PER_LAYER:
        report.add(name, values[name], unit)


def print_layer_table(report: Report, op: str) -> None:
    """Self time per layer with its share of the untraced operation."""
    times = {
        name: value
        for name, (value, unit) in report.values.items()
        if unit == "s" and name not in NESTED
    }
    total = sum(times.values())
    print(f"== {report.workload}: self time per layer, per {op}")
    for name, value in times.items():
        if value:
            share = value / total if total else 0.0
            print(f"  {name:<28} {value:>12.6f} s  {share:6.1%}")
    print(f"  {'(untraced op = sum)':<28} {total:>12.6f} s")
    overhead = report.values["trace.overhead_s"][0]
    print(f"  tracing overhead per {op}: {overhead:.6f} s")
