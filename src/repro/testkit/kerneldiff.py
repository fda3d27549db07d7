"""Differential parity gate for the compiled expansion kernel.

:mod:`repro.kernel` compiles a protocol into packed integer tables and
promises that its :func:`~repro.kernel.explore` and
:func:`~repro.kernel.enumerate_space` are *observably identical* to the
interpreter -- same verdicts, same violation kinds, same essential
composite-state set, same concrete state space.  This module is the
harness that enforces the promise, the same way
:mod:`repro.testkit.irdiff` pits the IR round-trip against the
verifier.  Three claim families, each a finding when violated:

``explore``
    The kernel's Figure 3 expansion must produce the same verdict, the
    same sorted violation kinds and the same essential-state set
    (compared by canonical ``pretty()`` rendering) as the interpreter.

``enumerate``
    For small cache counts, the kernel's Figure 2 enumeration must
    reach the same concrete states and report the same violation kinds
    under both equivalences.

``liveness``
    The two backends supply the liveness pass with independently
    computed edge relations (:mod:`repro.core.relation`): the
    interpreter re-derives every reaction, the kernel reads its
    successor memo.  Both relations must hold the same progress edges
    and stall/serve cells on every essential state, and the starvation
    analysis (:mod:`repro.liveness`) run over each must produce
    byte-identical verdict documents -- same violations, same lassos,
    same signatures.

Specifications the kernel cannot lower, and runs a budget guard cuts
short on either side, degrade to *skipped* -- an inconclusive
comparison is not a parity failure.  Run one spec with
:func:`kernel_diff_spec`, the shipped zoo (registry + builtin DSL
specs) with :func:`kernel_diff_all`, the pinned regression corpus with
:func:`kernel_diff_corpus` and freshly generated specifications with
:func:`kernel_diff_generated`; the CI ``kernel-parity`` job runs all
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.essential import explore
from ..core.protocol import ProtocolSpec
from ..enumeration.exhaustive import Equivalence, enumerate_space

__all__ = [
    "KernelDiffFinding",
    "KernelDiffReport",
    "kernel_diff_spec",
    "kernel_diff_all",
    "kernel_diff_corpus",
    "kernel_diff_generated",
]


@dataclass(frozen=True)
class KernelDiffFinding:
    """One observable difference between the kernel and the interpreter."""

    #: ``explore`` / ``enumerate``.
    kind: str
    spec: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.spec}: {self.detail}"


@dataclass(frozen=True)
class KernelDiffReport:
    """Outcome of the parity harness on one specification."""

    spec: str
    findings: tuple[KernelDiffFinding, ...]
    #: Essential composite states (0 when the comparison was skipped).
    essential: int
    #: Why the comparison was inconclusive (``None`` when it ran).
    skipped: str | None = None
    #: The interpreter's liveness verdict (``None`` when unchecked).
    live: bool | None = None

    @property
    def ok(self) -> bool:
        """True iff no divergence was observed (skipped counts as ok)."""
        return not self.findings

    def describe(self) -> str:
        """One summary line plus one line per finding."""
        if self.skipped is not None:
            return f"{self.spec}: skipped ({self.skipped})"
        verdict = "parity" if self.ok else f"{len(self.findings)} findings"
        lines = [f"{self.spec}: {self.essential} essential states -- {verdict}"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


def _kinds(result) -> list[str]:
    return sorted(v.kind.value for v in result.violations)


def _explore_findings(name, base, kern):
    base_kinds, kern_kinds = _kinds(base), _kinds(kern)
    if base_kinds != kern_kinds:
        yield KernelDiffFinding(
            "explore",
            name,
            f"violation kinds differ: {base_kinds} (interp) vs "
            f"{kern_kinds} (kernel)",
        )
    base_key = frozenset(s.pretty() for s in base.essential)
    kern_key = frozenset(s.pretty() for s in kern.essential)
    if base_key != kern_key:
        only_base = sorted(base_key - kern_key)
        only_kern = sorted(kern_key - base_key)
        yield KernelDiffFinding(
            "explore",
            name,
            f"essential sets differ: {len(only_base)} interpreter-only "
            f"{only_base[:3]}, {len(only_kern)} kernel-only {only_kern[:3]}",
        )
    if base.stats.visits != kern.stats.visits:
        yield KernelDiffFinding(
            "explore",
            name,
            f"visit counts differ: {base.stats.visits} (interp) vs "
            f"{kern.stats.visits} (kernel)",
        )


def _relation_rows(result):
    """Every essential state's relation facts, keyed by rendering."""
    relation = result.relation
    rows = {}
    for state in result.essential:
        edges, stalls, serves = relation.facts(state)
        rows[state.pretty()] = (
            [(e.label, e.target.pretty(), e.moves) for e in edges],
            sorted((symbol, op.value) for symbol, op in stalls),
            sorted((symbol, op.value) for symbol, op in serves),
        )
    return rows


def _liveness_findings(name, base, kern):
    """Relation and verdict-document parity; returns ``(findings, live)``."""
    import json

    from ..liveness import analyze_liveness

    findings = []
    base_rows, kern_rows = _relation_rows(base), _relation_rows(kern)
    differing = sorted(
        state for state in base_rows if base_rows[state] != kern_rows.get(state)
    )
    if differing:
        findings.append(
            KernelDiffFinding(
                "liveness",
                name,
                f"edge relations differ on {len(differing)} essential states "
                f"({base.relation.provider} vs {kern.relation.provider}), "
                f"first {differing[0]}",
            )
        )
    base_report = analyze_liveness(base)
    base_doc = json.dumps(base_report.to_dict(), sort_keys=True)
    kern_doc = json.dumps(analyze_liveness(kern).to_dict(), sort_keys=True)
    if base_doc != kern_doc:
        findings.append(
            KernelDiffFinding(
                "liveness",
                name,
                "liveness documents differ between interpreter and kernel "
                "expansions",
            )
        )
    return findings, base_report.live


def _enumerate_findings(name, n, equivalence, base, kern):
    base_kinds, kern_kinds = _kinds(base), _kinds(kern)
    where = f"n={n}, {equivalence.value}"
    if base_kinds != kern_kinds:
        yield KernelDiffFinding(
            "enumerate",
            name,
            f"violation kinds differ at {where}: {base_kinds} (interp) "
            f"vs {kern_kinds} (kernel)",
        )
    base_states = frozenset(s.pretty() for s in base.states)
    kern_states = frozenset(s.pretty() for s in kern.states)
    if base_states != kern_states:
        yield KernelDiffFinding(
            "enumerate",
            name,
            f"state spaces differ at {where}: {len(base_states)} "
            f"(interp) vs {len(kern_states)} (kernel) states",
        )


def kernel_diff_spec(
    spec: ProtocolSpec,
    *,
    augmented: bool = True,
    max_visits: int = 1_000_000,
    ns: tuple[int, ...] = (1, 2),
) -> KernelDiffReport:
    """Run every parity check on one specification.

    ``ns`` gives the cache counts for the enumeration comparison (both
    strict and counting equivalence at each); pass ``()`` to compare
    only the symbolic expansion.
    """
    from ..kernel import KernelUnsupportedError, compile_protocol
    from ..kernel import enumerate_space as kernel_enumerate
    from ..kernel import explore as kernel_explore

    name = spec.name or "<spec>"
    try:
        compile_protocol(spec)
    except KernelUnsupportedError as exc:
        return KernelDiffReport(
            spec=name, findings=(), essential=0, skipped=f"unsupported: {exc}"
        )

    findings: list[KernelDiffFinding] = []
    base = explore(spec, augmented=augmented, max_visits=max_visits)
    kern = kernel_explore(spec, augmented=augmented, max_visits=max_visits)
    if base.partial or kern.partial:
        return KernelDiffReport(
            spec=name, findings=(), essential=0, skipped="budget exhausted"
        )
    findings.extend(_explore_findings(name, base, kern))
    live_findings, live = _liveness_findings(name, base, kern)
    findings.extend(live_findings)

    for n in ns:
        for equivalence in (Equivalence.STRICT, Equivalence.COUNTING):
            eb = enumerate_space(spec, n, equivalence=equivalence)
            ek = kernel_enumerate(spec, n, equivalence=equivalence)
            if eb.partial or ek.partial:
                return KernelDiffReport(
                    spec=name,
                    findings=tuple(findings),
                    essential=len(base.essential),
                    skipped="budget exhausted",
                    live=live,
                )
            findings.extend(_enumerate_findings(name, n, equivalence, eb, ek))

    return KernelDiffReport(
        spec=name,
        findings=tuple(findings),
        essential=len(base.essential),
        live=live,
    )


def kernel_diff_all(
    *,
    augmented: bool = True,
    mutants: bool = False,
    ns: tuple[int, ...] = (1, 2),
) -> list[KernelDiffReport]:
    """Run the gate over the whole shipped zoo (registry + DSL specs).

    ``mutants=True`` additionally covers every injected-bug variant of
    both catalogs -- the kernel must reproduce the interpreter's safety
    *violations* and its starvation lassos, not just its clean verdicts.
    """
    from ..protocols.dsl import builtin_spec_names, load_builtin
    from ..protocols.mutations import liveness_mutants_for, mutants_for
    from ..protocols.registry import all_protocols

    specs: list[ProtocolSpec] = list(all_protocols())
    if mutants:
        specs.extend(
            m
            for spec in list(specs)
            for m in mutants_for(spec) + liveness_mutants_for(spec)
        )
    specs.extend(load_builtin(name) for name in builtin_spec_names())
    return [kernel_diff_spec(spec, augmented=augmented, ns=ns) for spec in specs]


def kernel_diff_corpus(
    root: str = "tests/corpus", *, ns: tuple[int, ...] = (1, 2)
) -> list[KernelDiffReport]:
    """Replay the pinned regression corpus through the parity gate."""
    from .corpus import Corpus

    return [
        kernel_diff_spec(entry.compile(), ns=ns)
        for entry in Corpus(root).entries()
    ]


def kernel_diff_generated(
    count: int = 10,
    *,
    seed: int = 0,
    ns: tuple[int, ...] = (1, 2),
    p_stall: float = 0.0,
) -> list[KernelDiffReport]:
    """Run the gate over freshly generated well-formed specifications.

    ``p_stall`` is the generator's stall density (default 0.0, the
    unchanged default draw stream); a positive value draws protocols
    that stall, so the liveness relations and lassos get compared too.
    """
    from .generate import GeneratorConfig, SpecGenerator

    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    reports = []
    for _ in range(count):
        _, spec = generator.draw_checked()
        reports.append(kernel_diff_spec(spec, ns=ns))
    return reports
