"""The differential gates: everything the interpreter is checked against.

The interpreter (:mod:`repro.core.essential`) is the paper-faithful
reference.  Three layers promise to agree with it, and each promise is
a check over one *subject* (a specification plus where it came from):

``kernel``
    The compiled kernel (:mod:`repro.kernel`) must be observably
    identical to the interpreter.  ``explore``: same violation kinds,
    essential-state set (by canonical ``pretty()`` rendering) and visit
    count.  ``enumerate``: for the subject's cache counts, the same
    concrete states and violation kinds under both equivalences.
    ``liveness``: the two backends' edge relations
    (:mod:`repro.core.relation`) hold the same progress edges and
    stall/serve cells on every essential state, and the starvation
    analysis over each yields a byte-identical verdict document.

``liveness``
    The starvation analysis (:mod:`repro.liveness`) must be witnessed
    and soundly bounded.  ``lasso-replay``: every lasso re-executes
    through :func:`repro.liveness.replay_lasso`.
    ``static-contradiction``: a spec with no statically reachable stall
    (rule PL008's flow analysis) is dynamically live -- the converse
    does not hold, see docs/LIVENESS.md.  ``witness-mismatch``:
    violations and lassos pair up one-to-one with matching flavours.
    ``determinism``: re-analysing the same expansion gives a
    byte-identical document.  ``mutant-live``: a subject expected not
    live (a seeded starvation mutant, a ``liveness-*`` corpus entry)
    is not analysed as live.

``ir``
    The guarded-action IR (:mod:`repro.ir`) and the flow analysis on
    it (:mod:`repro.lint.flow`).  ``roundtrip``: the lifted twin
    ``lower(spec).to_protocol()`` expands to the same violation kinds
    and essential set.  ``serialization``: ``to_dict``/``from_dict``
    keeps the fingerprint.  ``flow``: the over-approximation is never
    contradicted -- every exercised initiator transition lands in a
    flow-completing cell and every state the essential set guarantees
    populated is flow-reachable.

A subject computes each piece of shared work at most once, whichever
check asks first: the interpreter expansion, its liveness report, the
lowered IR with its flow analysis, and the kernel expansion.  A spec
gated by all three checks is expanded once per backend; the round
trip's lifted twin is the only other interpreter expansion.

An inconclusive comparison is *skipped*, never a finding: a blown visit
budget, a partial result, a spec that cannot be lowered, a liveness
analysis that could not run.  :func:`subjects` draws from one source,
:func:`gate` runs checks over subjects, and ``python -m
repro.testkit.gates [CHECK ...]`` runs the fixed CI table and exits 1 on
any finding.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..core import essential
from ..core.operators import Rep
from ..core.protocol import ProtocolSpec
from ..enumeration.exhaustive import Equivalence, enumerate_space

__all__ = ["CHECKS", "Finding", "GateReport", "gate", "main", "subjects"]

#: Visit budget of every expansion a subject runs.
MAX_VISITS = 1_000_000

#: The pinned regression corpus, relative to the repository root.
CORPUS = "tests/corpus"


@dataclass(frozen=True)
class Finding:
    """One broken promise: which check, which claim, on which spec."""

    check: str
    kind: str
    spec: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}/{self.kind}] {self.spec}: {self.detail}"


@dataclass(frozen=True)
class GateReport:
    """Outcome of the gate on one subject."""

    spec: str
    findings: tuple[Finding, ...]
    #: Why some check was inconclusive (``None`` when every one ran).
    skipped: str | None = None
    #: Essential composite states (0 when the expansion never finished).
    essential: int = 0
    #: The interpreter's liveness verdict (``None`` when never analysed).
    live: bool | None = None

    @property
    def ok(self) -> bool:
        """True iff no divergence was observed (skipped counts as ok)."""
        return not self.findings

    def describe(self) -> str:
        """One summary line plus one line per finding."""
        verdict = {None: "", True: ", live", False: ", NOT LIVE"}[self.live]
        status = "ok" if self.ok else f"{len(self.findings)} findings"
        if self.skipped is not None:
            status += f", skipped ({self.skipped})"
        lines = [f"{self.spec}: {self.essential} essential states{verdict} -- {status}"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


class _Skip(Exception):
    """The comparison is inconclusive; reported as ``skipped``."""


class _shared:
    """A per-subject memo; a skip is remembered and re-raised like a value."""

    def __init__(self, build: Callable) -> None:
        self.build = build
        self.name = build.__name__

    def __get__(self, subject, owner=None):
        if subject is None:
            return self
        if self.name not in subject.memo:
            try:
                subject.memo[self.name] = self.build(subject)
            except _Skip as skip:
                subject.memo[self.name] = skip
        value = subject.memo[self.name]
        if isinstance(value, _Skip):
            raise value
        return value

    def __set__(self, subject, value) -> None:
        subject.memo[self.name] = value


def _complete(run: Callable):
    """*run*'s expansion, or a skip when the budget cut it short."""
    try:
        result = run()
    except essential.ExpansionLimitError as exc:
        raise _Skip(f"budget exhausted ({exc})") from exc
    if result.partial:
        raise _Skip("budget exhausted")
    return result


class _Subject:
    """One specification under test, and the work its checks share."""

    def __init__(
        self,
        spec: ProtocolSpec,
        *,
        expect_not_live: bool = False,
        ns: tuple[int, ...] = (1, 2),
        max_visits: int = MAX_VISITS,
    ) -> None:
        self.spec = spec
        self.name = spec.name or "<spec>"
        self.expect_not_live = expect_not_live
        #: Cache counts of the kernel check's enumeration comparison.
        self.ns = ns
        self.max_visits = max_visits
        self.memo: dict[str, object] = {}

    @_shared
    def interp(self):
        return _complete(
            lambda: essential.explore(self.spec, max_visits=self.max_visits)
        )

    @_shared
    def liveness(self):
        from ..liveness import analyze_liveness

        return analyze_liveness(self.interp)

    @_shared
    def ir(self):
        from ..ir import IRError, lower

        try:
            return lower(self.spec)
        except IRError as exc:
            raise _Skip(f"unsupported: {exc}") from exc

    @_shared
    def flow(self):
        from ..lint.flow import FlowAnalysis  # local: lint imports repro.ir

        return FlowAnalysis(self.ir)

    @_shared
    def compiled(self):
        from ..kernel import KernelUnsupportedError, compile_protocol

        try:
            return compile_protocol(self.ir)
        except KernelUnsupportedError as exc:
            raise _Skip(f"unsupported: {exc}") from exc

    @_shared
    def kernel(self):
        from .. import kernel

        return _complete(
            lambda: kernel.explore(
                self.spec, max_visits=self.max_visits, compiled=self.compiled
            )
        )

    def peek(self, name: str):
        """Shared work already done, or ``None`` (never computes)."""
        value = self.memo.get(name)
        return None if isinstance(value, _Skip) else value


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _kinds(result) -> list[str]:
    return sorted(v.kind.value for v in result.violations)


def _same_expansion(check, kind, name, base, other, label):
    """Violation kinds and essential sets of two expansions agree."""
    base_kinds, other_kinds = _kinds(base), _kinds(other)
    if base_kinds != other_kinds:
        yield Finding(
            check,
            kind,
            name,
            f"violation kinds differ: {base_kinds} (interp) vs "
            f"{other_kinds} ({label})",
        )
    base_key = frozenset(s.pretty() for s in base.essential)
    other_key = frozenset(s.pretty() for s in other.essential)
    if base_key != other_key:
        only_base = sorted(base_key - other_key)
        only_other = sorted(other_key - base_key)
        yield Finding(
            check,
            kind,
            name,
            f"essential sets differ: {len(only_base)} interpreter-only "
            f"{only_base[:3]}, {len(only_other)} {label}-only "
            f"{only_other[:3]}",
        )


def _relation_rows(result):
    """Every essential state's relation facts, keyed by rendering."""
    rows = {}
    for state in result.essential:
        edges, stalls, serves = result.relation.facts(state)
        rows[state.pretty()] = (
            [(e.label, e.target.pretty(), e.moves) for e in edges],
            sorted((symbol, op.value) for symbol, op in stalls),
            sorted((symbol, op.value) for symbol, op in serves),
        )
    return rows


def _document(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _check_kernel(subject: _Subject) -> Iterator[Finding]:
    from .. import kernel
    from ..liveness import analyze_liveness

    name, base, kern = subject.name, subject.interp, subject.kernel
    yield from _same_expansion("kernel", "explore", name, base, kern, "kernel")
    if base.stats.visits != kern.stats.visits:
        yield Finding(
            "kernel",
            "explore",
            name,
            f"visit counts differ: {base.stats.visits} (interp) vs "
            f"{kern.stats.visits} (kernel)",
        )

    base_rows, kern_rows = _relation_rows(base), _relation_rows(kern)
    differing = sorted(s for s in base_rows if base_rows[s] != kern_rows.get(s))
    if differing:
        yield Finding(
            "kernel",
            "liveness",
            name,
            f"edge relations differ on {len(differing)} essential states "
            f"({base.relation.provider} vs {kern.relation.provider}), "
            f"first {differing[0]}",
        )
    if _document(subject.liveness) != _document(analyze_liveness(kern)):
        yield Finding(
            "kernel",
            "liveness",
            name,
            "liveness documents differ between interpreter and kernel "
            "expansions",
        )

    for n in subject.ns:
        for equivalence in (Equivalence.STRICT, Equivalence.COUNTING):
            eb = _complete(
                lambda: enumerate_space(subject.spec, n, equivalence=equivalence)
            )
            ek = _complete(
                lambda: kernel.enumerate_space(
                    subject.spec, n, equivalence=equivalence, compiled=subject.compiled
                )
            )
            where = f"n={n}, {equivalence.value}"
            if _kinds(eb) != _kinds(ek):
                yield Finding(
                    "kernel",
                    "enumerate",
                    name,
                    f"violation kinds differ at {where}: {_kinds(eb)} "
                    f"(interp) vs {_kinds(ek)} (kernel)",
                )
            base_states = frozenset(s.pretty() for s in eb.states)
            kern_states = frozenset(s.pretty() for s in ek.states)
            if base_states != kern_states:
                yield Finding(
                    "kernel",
                    "enumerate",
                    name,
                    f"state spaces differ at {where}: {len(base_states)} "
                    f"(interp) vs {len(kern_states)} (kernel) states",
                )


def _static_can_stall(subject: _Subject) -> bool:
    """Whether the flow analysis reaches any stalling transition."""
    try:
        return bool(subject.flow.stalls)
    except _Skip:
        return True  # cannot lower: cannot prove stall-freedom


def _check_liveness(subject: _Subject) -> Iterator[Finding]:
    from ..liveness import analyze_liveness, replay_lasso

    name, report = subject.name, subject.liveness
    if not report.checked:
        raise _Skip(f"unchecked ({report.reason})")
    for lasso in report.lassos:
        ok, reason = replay_lasso(subject.interp, lasso)
        if not ok:
            yield Finding(
                "liveness", "lasso-replay", name, f"{lasso.signature}: {reason}"
            )
    if not report.live and not _static_can_stall(subject):
        yield Finding(
            "liveness",
            "static-contradiction",
            name,
            "no statically reachable stall, yet "
            f"{len(report.violations)} starvable requests",
        )
    if len(report.violations) != len(report.lassos):
        yield Finding(
            "liveness",
            "witness-mismatch",
            name,
            f"{len(report.violations)} violations but "
            f"{len(report.lassos)} lassos",
        )
    else:
        for violation, lasso in zip(report.violations, report.lassos):
            if violation.kind is not lasso.kind:
                yield Finding(
                    "liveness",
                    "witness-mismatch",
                    name,
                    f"violation {violation.kind.value} paired with "
                    f"{lasso.kind.value} lasso ({lasso.signature})",
                )
    if _document(report) != _document(analyze_liveness(subject.interp)):
        yield Finding(
            "liveness", "determinism", name, "re-analysis produced a different document"
        )
    if subject.expect_not_live and report.live:
        yield Finding(
            "liveness",
            "mutant-live",
            name,
            "seeded starvation mutant analyzed as live",
        )


def _check_ir(subject: _Subject) -> Iterator[Finding]:
    from ..ir import ProtocolIR

    name, ir = subject.name, subject.ir
    replica = ProtocolIR.from_dict(ir.to_dict())
    if replica.fingerprint() != ir.fingerprint():
        yield Finding(
            "ir",
            "serialization",
            name,
            "to_dict/from_dict round-trip changed the fingerprint "
            f"({ir.fingerprint()[:12]} -> {replica.fingerprint()[:12]})",
        )
    base = subject.interp
    lifted = _complete(
        lambda: essential.explore(ir.to_protocol(), max_visits=subject.max_visits)
    )
    yield from _same_expansion("ir", "roundtrip", name, base, lifted, "round-trip")

    # Every exercised initiator transition completes in some reachable
    # concrete context, so its cell must be flow-completing.  A cell
    # whose transitions are all stalls is exempt: the expansion still
    # records the refused attempt (a self-loop the liveness analysis
    # feeds on), but nothing ever completes there, and the flow
    # analysis is right to say so.
    flow = subject.flow
    exercised = {(t.label.initiator, t.label.op.value) for t in base.transitions}
    for state, op in sorted(exercised):
        cell = (ir.state_id(state), ir.op_id(op))
        rules = [t for t in ir.transitions if (t.state, t.op) == cell]
        if rules and all(t.action.stalled for t in rules):
            continue
        if cell not in flow.completes:
            yield Finding(
                "ir",
                "flow",
                name,
                f"expansion exercises ({state}, {op}) but the flow "
                "analysis never completes that cell",
            )
    # Every state the essential set guarantees populated (a `1` or `+`
    # class) is concretely reachable, so it must be flow-reachable.
    guaranteed = {
        label.symbol
        for state in base.essential
        for label, rep in state.classes
        if rep in (Rep.ONE, Rep.PLUS) and label.symbol != ir.states[ir.invalid]
    }
    for symbol in sorted(guaranteed):
        if ir.state_id(symbol) not in flow.reachable_states:
            yield Finding(
                "ir",
                "flow",
                name,
                f"essential states guarantee a {symbol} copy but the "
                "flow analysis never reaches it",
            )


#: Every check, by name: ``check(subject) -> findings``.
CHECKS: dict[str, Callable[[_Subject], Iterable[Finding]]] = {
    "kernel": _check_kernel,
    "liveness": _check_liveness,
    "ir": _check_ir,
}


# ----------------------------------------------------------------------
# Spec sources and the gate
# ----------------------------------------------------------------------
def subjects(source: str, count: int = 10, seed: int = 2026) -> Iterator[_Subject]:
    """The subjects one source holds, each tagged with what it must show.

    ``zoo`` is the registry plus the builtin DSL specs; ``mutants`` and
    ``starvers`` are the zoo's safety and starvation mutants (starvers
    are expected not live); ``corpus`` is the pinned regression corpus
    (``liveness-*`` entries are expected not live); ``generated`` and
    ``stalling`` are *count* fresh draws from *seed*, stall-free and at
    stall density 0.5 -- the latter enumerated at one cache only.
    """
    if source in ("generated", "stalling"):
        from .generate import GeneratorConfig, SpecGenerator

        stalling = source == "stalling"
        generator = SpecGenerator(
            seed=seed, config=GeneratorConfig(p_stall=0.5 if stalling else 0.0)
        )
        for _ in range(count):
            yield _Subject(generator.draw_checked()[1], ns=(1,) if stalling else (1, 2))
    elif source == "corpus":
        from .corpus import Corpus

        for entry in Corpus(CORPUS).entries():
            yield _Subject(
                entry.compile(), expect_not_live=entry.kind.startswith("liveness-")
            )
    elif source in ("zoo", "mutants", "starvers"):
        from ..protocols.dsl import builtin_spec_names, load_builtin
        from ..protocols.mutations import liveness_mutants_for, mutants_for
        from ..protocols.registry import all_protocols

        builtins = (load_builtin(name) for name in builtin_spec_names())
        for spec in [*all_protocols(), *builtins]:
            if source == "zoo":
                yield _Subject(spec)
            elif source == "mutants":
                yield from map(_Subject, mutants_for(spec))
            else:
                for mutant in liveness_mutants_for(spec):
                    yield _Subject(mutant, expect_not_live=True)
    else:
        raise ValueError(f"unknown spec source {source!r}")


def gate(
    specs: Iterable[_Subject | ProtocolSpec], checks: Iterable[str] = tuple(CHECKS)
) -> list[GateReport]:
    """Run *checks* over every subject (a bare spec expects nothing)."""
    checks = tuple(checks)
    reports = []
    for item in specs:
        subject = item if isinstance(item, _Subject) else _Subject(item)
        findings: list[Finding] = []
        skips: list[str] = []
        for check in checks:
            try:
                for finding in CHECKS[check](subject):
                    findings.append(finding)
            except _Skip as skip:
                skips.append(f"{check}: {skip}")
        base, liveness = subject.peek("interp"), subject.peek("liveness")
        live = liveness.live if liveness is not None and liveness.checked else None
        reports.append(
            GateReport(
                spec=subject.name,
                findings=tuple(findings),
                skipped="; ".join(skips) or None,
                essential=len(base.essential) if base is not None else 0,
                live=live,
            )
        )
    return reports


#: What CI gates: ``(source, count, checks)``.  Kernel parity covers
#: every source; the liveness invariants every source a verdict can be
#: expected from; the IR round trip the zoo.
CI_TABLE: tuple[tuple[str, int, tuple[str, ...]], ...] = (
    ("zoo", 0, ("kernel", "liveness", "ir")),
    ("mutants", 0, ("kernel",)),
    ("starvers", 0, ("kernel", "liveness")),
    ("corpus", 0, ("kernel", "liveness")),
    ("generated", 10, ("kernel",)),
    ("stalling", 30, ("kernel", "liveness")),
)


def _tally(reports: list[GateReport]) -> str:
    return (
        f"{sum(r.skipped is not None for r in reports)} skipped, "
        f"{sum(r.live is False for r in reports)} not live, "
        f"{sum(len(r.findings) for r in reports)} findings"
    )


def main(argv: list[str] | None = None) -> int:
    """Run the CI table; exit 1 on any finding or a vacuous run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.gates", description=main.__doc__
    )
    parser.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help=f"checks to run (default: all of {', '.join(CHECKS)})",
    )
    selected = parser.parse_args(argv).checks or list(CHECKS)
    unknown = sorted(set(selected) - set(CHECKS))
    if unknown:
        parser.error(f"unknown check: {', '.join(unknown)}")

    runs: dict[str, tuple[list[str], list[GateReport]]] = {}
    for source, count, checks in CI_TABLE:
        run = [check for check in checks if check in selected]
        if not run:
            continue
        reports = gate(subjects(source, count), run)
        runs[source] = (run, reports)
        for report in reports:
            if not report.ok or report.skipped is not None:
                print(report.describe())
        print(f"{source}: {len(reports)} specs [{', '.join(run)}], {_tally(reports)}")
    for check in selected:
        reports = [r for run, rs in runs.values() if check in run for r in rs]
        print(f"check {check}: {len(reports)} specs, {_tally(reports)}")

    every = [r for _, reports in runs.values() for r in reports]
    vacuous = []
    if "kernel" in selected or "liveness" in selected:
        # Non-vacuity: the gate must have seen starvation to vouch for it.
        if sum(r.live is False for r in every) < 13:
            vacuous.append("fewer than 13 not-live verdicts")
        if all(r.live is not False for r in runs["stalling"][1]):
            vacuous.append("no stalling draw is NOT LIVE")
        if any(r.live is not False for r in runs["starvers"][1]):
            vacuous.append("a starvation mutant is not NOT LIVE")
    for message in vacuous:
        print(f"vacuous gate: {message}")
    failed = sum(not r.ok for r in every)
    print(f"{len(every)} specs gated, {failed} with findings")
    return 1 if failed or vacuous else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
