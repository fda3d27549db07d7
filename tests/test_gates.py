"""The differential gates (`repro.testkit.gates`).

* the 11 `(check, kind)` claims the gates can report are pinned, so a
  renamed or dropped claim is a visible change;
* one injected divergence per check is caught under the expected kind;
* shared work is exact: gating one spec with every check expands it
  once per backend;
* budgets degrade to skipped, and the CI entry point runs.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect

import pytest

from repro.core import essential
from repro.ir import ProtocolIR, lower
from repro.protocols.mutations import get_mutant
from repro.protocols.registry import get_protocol
from repro.testkit import gates
from repro.testkit.gates import CHECKS, Finding, GateReport, gate, main, subjects


def _kinds(report):
    return sorted({(f.check, f.kind) for f in report.findings})


def test_the_eleven_claims_are_pinned():
    # Every (check, kind) literal the module can report.
    tree = ast.parse(inspect.getsource(gates))
    claims = {
        (call.args[0].value, call.args[1].value)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) in ("Finding", "_same_expansion")
        and all(isinstance(a, ast.Constant) for a in call.args[:2])
    }
    assert claims == {
        ("kernel", "explore"),
        ("kernel", "enumerate"),
        ("kernel", "liveness"),
        ("liveness", "lasso-replay"),
        ("liveness", "static-contradiction"),
        ("liveness", "witness-mismatch"),
        ("liveness", "determinism"),
        ("liveness", "mutant-live"),
        ("ir", "roundtrip"),
        ("ir", "serialization"),
        ("ir", "flow"),
    }
    assert list(CHECKS) == ["kernel", "liveness", "ir"]


# ----------------------------------------------------------------------
# One injected divergence per check
# ----------------------------------------------------------------------
def test_kernel_result_missing_an_essential_state_is_an_explore_finding():
    subject = gates._Subject(get_protocol("illinois"), ns=())
    kern = subject.kernel
    subject.kernel = dataclasses.replace(kern, essential=kern.essential[:-1])
    findings = list(CHECKS["kernel"](subject))
    assert ("kernel", "explore") in {(f.check, f.kind) for f in findings}
    assert any("essential sets differ" in f.detail for f in findings)


def test_tampered_lasso_is_a_lasso_replay_finding():
    starver = next(subjects("starvers"))
    report = starver.liveness
    assert report.lassos, "the starvation mutant must come with a lasso"
    lasso = report.lassos[0]
    broken = dataclasses.replace(
        lasso,
        loop=tuple(dataclasses.replace(s, label="no-such-label") for s in lasso.loop),
    )
    starver.liveness = dataclasses.replace(report, lassos=(broken, *report.lassos[1:]))
    [result] = gate([starver], ("liveness",))
    assert ("liveness", "lasso-replay") in _kinds(result)


def test_changed_round_trip_spec_is_a_roundtrip_finding(monkeypatch):
    other = lower(get_mutant(get_protocol("illinois"), "drop-invalidation"))
    twin = other.to_protocol()
    monkeypatch.setattr(ProtocolIR, "to_protocol", lambda self: twin)
    [report] = gate([get_protocol("illinois")], ("ir",))
    assert _kinds(report) == [("ir", "roundtrip")]


def test_expect_not_live_flags_a_live_spec():
    subject = gates._Subject(get_protocol("msi"), expect_not_live=True)
    [report] = gate([subject], ("liveness",))
    assert _kinds(report) == [("liveness", "mutant-live")]
    assert report.live is True


# ----------------------------------------------------------------------
# Shared work
# ----------------------------------------------------------------------
def test_every_check_shares_one_expansion_per_backend(monkeypatch):
    import repro.kernel

    interp_calls, kernel_calls = [], []

    def counting(calls, explore):
        def wrapped(spec, **kwargs):
            calls.append(spec)
            return explore(spec, **kwargs)

        return wrapped

    monkeypatch.setattr(
        essential, "explore", counting(interp_calls, essential.explore)
    )
    monkeypatch.setattr(
        repro.kernel, "explore", counting(kernel_calls, repro.kernel.explore)
    )
    spec = get_protocol("illinois")
    [report] = gate([spec])
    assert report.ok and report.skipped is None, report.describe()
    assert kernel_calls == [spec]
    # One interpreter expansion of the gated spec; the only other one is
    # the IR round trip's lifted twin, a different spec by construction.
    assert interp_calls[0] is spec
    assert [type(s).__name__ for s in interp_calls[1:]] == ["IRProtocol"]


# ----------------------------------------------------------------------
# Budgets, sources, reports and the entry point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("check", list(CHECKS))
def test_a_blown_budget_is_skipped_not_a_finding(check):
    subject = gates._Subject(get_protocol("illinois"), max_visits=3)
    [report] = gate([subject], (check,))
    assert report.ok and report.skipped.startswith(f"{check}: budget exhausted")
    assert report.essential == 0 and report.live is None


def test_sources_tag_what_each_subject_must_show():
    zoo = list(subjects("zoo"))
    assert len(zoo) == 20 and not any(s.expect_not_live for s in zoo)
    assert all(s.expect_not_live for s in subjects("starvers"))
    corpus = {s.name: s.expect_not_live for s in subjects("corpus")}
    assert sum(corpus.values()) == 3
    assert [s.ns for s in subjects("stalling", 2)] == [(1,), (1,)]
    with pytest.raises(ValueError, match="unknown spec source"):
        next(subjects("everything"))


def test_describe_renders_verdict_findings_and_skips():
    report = GateReport(
        spec="x",
        findings=(Finding("liveness", "lasso-replay", "x", "boom"),),
        skipped="kernel: unsupported",
        essential=4,
        live=False,
    )
    text = report.describe()
    assert "NOT LIVE" in text and "[liveness/lasso-replay] x: boom" in text
    assert "skipped (kernel: unsupported)" in text


def test_entry_point_runs_one_check(capsys):
    assert main(["ir"]) == 0
    out = capsys.readouterr().out
    assert "check ir: 20 specs, 0 skipped, 0 not live, 0 findings" in out
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
