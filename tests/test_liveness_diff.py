"""The liveness invariants of the differential gate (`repro.testkit.gates`).

Two halves:

* the gate itself -- the zoo, the starvation mutants, the pinned
  corpus and generated stalling specifications all keep every
  invariant (lassos replay, no static contradiction, witnesses pair
  up, analysis deterministic, seeded starvers caught), and the zoo and
  starvers keep kernel parity over the same shared expansions;
* property tests -- hypothesis drives the generator across seeds and
  stall densities, re-executing every lasso through the reaction
  semantics, so the invariants hold on protocols nobody wrote.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.essential import explore
from repro.core.verifier import verify
from repro.liveness import analyze_liveness, replay_lasso
from repro.protocols.registry import get_protocol
from repro.testkit import GeneratorConfig, SpecGenerator
from repro.testkit.gates import Finding, GateReport, _Subject, gate, subjects


def _bad(reports):
    return "\n".join(r.describe() for r in reports if not r.ok)


# ----------------------------------------------------------------------
# The gate over the shipped surface
# ----------------------------------------------------------------------
def test_zoo_and_starvation_mutants_keep_every_invariant():
    # One gate run: each spec is expanded once per backend, and both
    # the kernel parity and the liveness invariants read that work.
    zoo = list(subjects("zoo"))
    reports = gate([*zoo, *subjects("starvers")], ("kernel", "liveness"))
    assert all(r.ok for r in reports), _bad(reports)
    assert not any(r.skipped for r in reports)
    assert all(r.live for r in reports[: len(zoo)])
    starvers = reports[len(zoo) :]
    # Every seeded starver is caught, with a witnessed NOT LIVE verdict.
    assert len(starvers) >= 10 and all(r.live is False for r in starvers)


def test_corpus_keeps_every_invariant():
    reports = gate(subjects("corpus"), ("liveness",))
    assert all(r.ok for r in reports), _bad(reports)
    # The three pinned liveness entries are checked as expect_not_live.
    assert sum(1 for r in reports if r.live is False) >= 3


def test_generated_stalling_specs_keep_every_invariant():
    reports = gate(subjects("stalling", 8, seed=4), ("liveness",))
    assert all(r.ok for r in reports), _bad(reports)


def test_expect_not_live_flags_a_live_spec():
    subject = _Subject(get_protocol("msi"), expect_not_live=True)
    [report] = gate([subject], ("liveness",))
    assert not report.ok
    assert [f.kind for f in report.findings] == ["mutant-live"]


def test_skipped_comparisons_are_ok():
    from repro.engine.guard import Budget, Guard

    # A partial expansion cannot be analyzed: the product graph is only
    # closed over the complete essential set.
    spec = get_protocol("illinois")
    result = explore(spec, guard=Guard(Budget(max_visits=3)))
    assert result.partial
    assert not analyze_liveness(result).checked
    # A blown visit budget degrades to skipped, never to findings.
    [report] = gate([_Subject(spec, max_visits=3)], ("liveness",))
    assert report.ok and report.skipped is not None


def test_describe_renders_verdict_and_findings():
    [ok] = gate([get_protocol("msi")], ("liveness",))
    assert "live" in ok.describe()
    report = GateReport(
        spec="x",
        findings=(Finding("liveness", "lasso-replay", "x", "boom"),),
        live=False,
    )
    text = report.describe()
    assert "NOT LIVE" in text and "[liveness/lasso-replay] x: boom" in text
    skipped = GateReport(spec="x", findings=(), skipped="liveness: unchecked")
    assert "skipped" in skipped.describe()


# ----------------------------------------------------------------------
# Property tests: hypothesis drives the generator
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10)
def test_property_stall_free_draws_are_live(seed):
    # The default generator never draws a stall, so the static
    # approximation is exact: every draw must be dynamically live.
    generator = SpecGenerator(seed=seed)
    _, spec = generator.draw_checked()
    report = verify(spec, mode="liveness", validate_spec=False)
    assert report.liveness is not None
    if report.liveness.checked:
        assert report.liveness.live, report.liveness.summary()


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.2, max_value=0.9),
)
@settings(max_examples=10)
def test_property_lassos_always_reexecute(seed, p_stall):
    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, max_visits=60_000)
    liveness = analyze_liveness(result)
    if not liveness.checked:
        return
    # Witnessed verdicts: one lasso per violation, every lasso runs.
    assert len(liveness.lassos) == len(liveness.violations)
    for lasso in liveness.lassos:
        ok, reason = replay_lasso(result, lasso)
        assert ok, f"{spec.name}: {lasso.signature}: {reason}"


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=10)
def test_property_analysis_is_a_pure_function(seed, p_stall):
    import json

    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, max_visits=60_000)
    first = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    second = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    assert first == second


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5)
def test_property_generated_specs_pass_the_full_gate(seed):
    reports = gate(subjects("stalling", 2, seed=seed), ("liveness",))
    assert all(r.ok for r in reports), _bad(reports)
