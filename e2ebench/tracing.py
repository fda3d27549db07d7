"""Spans and work counts recorded from the benchmark's own files.

The traced run does not change the package: it calls each layer's
public entry point itself, in the order :func:`repro.engine.run_batch`
and :func:`repro.core.verifier.verify` call them, and records one span
per call.  Spans stay in memory and are written out once at the end.

Work counts come from two places: the program's own counters, read
through :func:`repro.obs.use_collector` around each call, and ``react``
probes, counted by wrapping ``react`` on the benchmark's own input
specification instances.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from common import canonical, clock, comparable


class Tracer:
    """In-memory span recorder with per-layer work counts.

    A span is ``(name, start, end, parent, trace)``; spans of one
    benchmark operation share its ``trace`` id.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.probes: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self.trace_id = ""

    @contextmanager
    def op(self, trace: str, name: str) -> Iterator[None]:
        """Root span of one benchmark operation."""
        self.trace_id = trace
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        now = clock()
        index = self.record(name, now, now, parent)
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = clock()
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float, parent: int | None = None
    ) -> int:
        """Add a span; returns its index (the id children refer to)."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "trace": self.trace_id,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def layer(self, name: str) -> Iterator[None]:
        """A layer span whose program counters are charged to it."""
        from repro.obs import Collector, use_collector

        collector = Collector(name)
        with self.span(name), use_collector(collector):
            yield
        for counter, instrument in collector.counters.items():
            self.counts[f"{name}:{counter}"] += int(instrument.value)

    @contextmanager
    def probing(self, spec: Any, layer: str) -> Iterator[None]:
        """Count ``react`` calls on *spec* while *layer* runs.

        The counting wrapper is an instance attribute that exists only
        inside the block, so layers that are not probed run unwrapped.
        """
        original = spec.react

        def react(state, op, ctx):
            self.probes[layer] += 1
            return original(state, op, ctx)

        spec.react = react
        try:
            yield
        finally:
            del spec.react

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: Counter[str] = Counter()
        for i, record in enumerate(self.spans):
            totals[record["name"]] += (
                record["end"] - record["start"] - child_time[i]
            )
        return dict(totals)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def traced_job(tracer: Tracer, job: Any, cache: Any) -> Any:
    """One batch job, layer by layer, in the order ``run_batch`` runs it.

    Admission resolves the spec afresh for the preflight and again for
    the fingerprint, and the worker resolves it once more -- exactly as
    the engine does -- so every layer sees the same instances it would
    see there.  Returns the job's :class:`~repro.engine.JobResult`.
    """
    from repro.core.serialize import result_to_dict
    from repro.engine import Guard, JobResult, JobStatus, spec_fingerprint
    from repro.ir import lower
    from repro.kernel import compile_protocol
    from repro.kernel import explore as kernel_explore
    from repro.lint import lint_spec
    from repro.liveness import analyze_liveness

    if job.preflight != "off":
        with tracer.layer("protocols.resolve"):
            spec = job.resolve_spec()
        with tracer.layer("lint"), tracer.probing(spec, "lint"):
            lint_spec(spec, target=job.label)
    with tracer.layer("protocols.resolve"):
        spec = job.resolve_spec()
    with tracer.layer("fingerprint"), tracer.probing(spec, "fingerprint"):
        fingerprint = spec_fingerprint(spec)
    with tracer.layer("cache.get"):
        hit = cache.get(fingerprint, job)
    if hit is not None:
        tracer.counts["cache.hits"] += 1
        return hit
    tracer.counts["cache.misses"] += 1

    started = clock()
    with tracer.layer("protocols.resolve"):
        spec = job.resolve_spec()
    if job.validate_spec:
        with tracer.layer("validate"), tracer.probing(spec, "validate"):
            spec.validate()
    with tracer.layer("lower"), tracer.probing(spec, "lower"):
        ir = lower(spec)
    with tracer.layer("compile"):
        compiled = compile_protocol(ir)
    with tracer.layer("kernel.expand"):
        result = kernel_explore(spec, guard=Guard(job.budget()), compiled=compiled)
    if job.mode != "safety":
        with tracer.layer("liveness"):
            result.liveness = analyze_liveness(result)
    with tracer.layer("serialize"):
        payload = result_to_dict(result)
    tracer.counts["serialize.bytes"] += len(canonical(comparable(payload)))
    if result.violations:
        status = JobStatus.VIOLATION
    elif result.partial:
        status = JobStatus.PARTIAL
    elif result.liveness is not None and result.liveness.violations:
        status = JobStatus.LIVENESS_VIOLATION
    else:
        status = JobStatus.VERIFIED
    outcome = JobResult(
        job,
        status,
        payload=payload,
        error=result.exhausted.describe() if result.partial and result.exhausted else None,
        elapsed=clock() - started,
        fingerprint=fingerprint,
    )
    with tracer.layer("cache.put"):
        cache.put(fingerprint, job, outcome)
    return outcome
