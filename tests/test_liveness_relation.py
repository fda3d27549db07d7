"""The liveness edge relation and its two providers.

* the containment index (`HomeIndex`) finds the linear scan's home on
  every successor of every essential state, on both backends;
* a kernel-backend liveness run reads the kernel's successor memo
  only: zero interpreter reaction scans, zero interpreter `contains`
  calls (exact counts, so the gate cannot flake);
* both providers feed the graph pass the same work, visible in the
  `liveness.*` counters and tagged on the `liveness.check` span;
* the kernel gate check pits the providers against each other on
  stalling generated specs (the starvation mutants run through the
  same check in `test_liveness_diff.py`).
"""

from __future__ import annotations

import pytest

from repro.core import covering
from repro.core.covering import contains
from repro.core.essential import HomeIndex, PruningMode, explore
from repro.core.expansion import SymbolicExpander
from repro.core.verifier import verify
from repro.kernel import compile_protocol
from repro.kernel import explore as kernel_explore
from repro.kernel.essential import _home_index
from repro.liveness import analyze_liveness
from repro.obs import Collector, use_collector
from repro.protocols.dsl import builtin_spec_names, load_builtin
from repro.protocols.mutations import liveness_mutants_for, mutants_for
from repro.protocols.registry import all_protocols, get_protocol
from repro.testkit import GeneratorConfig, SpecGenerator
from repro.testkit.gates import gate, subjects


def _zoo():
    return list(all_protocols()) + [load_builtin(n) for n in builtin_spec_names()]


def _liveness_mutants():
    return [m for spec in _zoo() for m in liveness_mutants_for(spec)]


def _linear_home(state, essential, pruning):
    """The pre-index reference: first essential state containing *state*."""
    for candidate in essential:
        if pruning is PruningMode.DUPLICATES:
            if candidate == state:
                return candidate
        elif contains(state, candidate):
            return candidate
    raise AssertionError(f"{state} has no home")


def _generated(count, seed, p_stall):
    generator = SpecGenerator(seed=seed, config=GeneratorConfig(p_stall=p_stall))
    return [generator.draw_checked()[1] for _ in range(count)]


def _home_cases():
    zoo = _zoo()
    specs = zoo + [m for s in zoo for m in mutants_for(s) + liveness_mutants_for(s)]
    specs += _generated(4, seed=5, p_stall=0.5)
    return specs


@pytest.mark.parametrize(
    "pruning", [PruningMode.CONTAINMENT, PruningMode.DUPLICATES]
)
def test_indexed_home_equals_linear_scan(pruning):
    checked = 0
    specs = _home_cases() if pruning is PruningMode.CONTAINMENT else _zoo()
    for spec in specs:
        # The kernel expansion supplies the essential set and every
        # successor cheaply; the homes are checked on both sides.
        result = kernel_explore(spec, pruning=pruning, max_visits=60_000)
        cp = compile_protocol(spec)
        essential_ids = tuple(cp.intern(cp.encode(s)) for s in result.essential)
        homes = HomeIndex(result.essential, pruning)
        kernel_homes = _home_index(cp, essential_ids, pruning)
        for source in essential_ids:
            for _opid, _init, target_id in cp.successors(source)[0]:
                target = cp.decoded(target_id)
                linear = _linear_home(target, result.essential, pruning)
                assert homes(target) == linear, spec.name
                assert cp.decoded(kernel_homes(target_id)) == linear, spec.name
                checked += 1
    assert checked > 1000


def test_kernel_liveness_never_reenters_the_interpreter(monkeypatch):
    def refuse(self, state):
        raise AssertionError("kernel liveness re-derived reactions")

    monkeypatch.setattr(SymbolicExpander, "reaction_events", refuse)
    specs = _zoo() + _liveness_mutants()
    not_live = 0
    probes: list[bool] = []
    for spec in specs:
        report = verify(spec, backend="kernel", mode="both")
        assert report.result.relation.provider == "kernel", spec.name
        result = kernel_explore(spec)
        covering.set_probe(probes.append)
        try:
            liveness = analyze_liveness(result)
        finally:
            covering.set_probe(None)
        assert liveness.to_dict() == report.liveness.to_dict()
        not_live += liveness.live is False
    assert probes == []  # zero interpreter `contains` calls
    assert not_live >= 10


def test_safety_runs_scan_no_liveness_facts():
    result = kernel_explore(load_builtin(builtin_spec_names()[0]))
    assert result.relation is not None and result.relation.edge_count == 0
    assert explore(all_protocols()[0]).relation.edge_count == 0


def _liveness_metrics(spec, backend):
    collector = Collector(spec.name)
    with use_collector(collector):
        report = verify(spec, backend=backend, mode="both")
    metrics = collector.metrics_snapshot()
    spans = [s for s in collector.spans if s.name == "liveness.check"]
    assert [s.attrs["provider"] for s in spans] == [backend]
    names = ("pending", "nodes", "violations", "edges")
    return report, {n: metrics[f"liveness.{n}"] for n in names}


@pytest.mark.parametrize("which", [0, 1])
def test_liveness_counters_are_backend_independent(which):
    spec = [get_protocol("lock-msi"), _liveness_mutants()[0]][which]
    interp, interp_counts = _liveness_metrics(spec, "interp")
    kernel, kernel_counts = _liveness_metrics(spec, "kernel")
    assert interp_counts == kernel_counts
    assert interp_counts["pending"] > 0 and interp_counts["edges"] > 0
    assert interp.liveness.to_dict() == kernel.liveness.to_dict()
    assert interp_counts["violations"] == len(interp.liveness.violations)


def test_kernel_gate_on_stalling_specs():
    reports = [
        report
        for seed in (3, 4, 7)
        for report in gate(subjects("stalling", 3, seed=seed), ("kernel",))
    ]
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.describe() for r in bad)
    assert not any(r.skipped for r in reports)
    assert sum(1 for r in reports if r.live is False) >= 1
