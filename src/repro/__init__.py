"""repro -- symbolic verification of cache coherence protocols.

A from-scratch reproduction of Fong Pong and Michel Dubois, "The
Verification of Cache Coherence Protocols", SPAA 1993: composite states
with repetition operators, containment-pruned symbolic state-space
expansion to essential states, data-consistency checking through
context variables, plus the exhaustive-enumeration baselines the paper
compares against and an executable snooping-bus multiprocessor that
runs the same protocol specifications.

Quickstart::

    from repro import verify

    report = verify("illinois")
    print(report.render())

Profiling a verification (see ``docs/OBSERVABILITY.md``)::

    from repro import Collector, use_collector, verify

    collector = Collector("illinois")
    with use_collector(collector):
        verify("illinois")
    print(collector.span_totals())
"""

from ._lazy import attach as _attach

__version__ = "1.9.0"

# Public names resolve on first use (PEP 562), so ``import repro`` does
# not load the engine, lint, liveness or analysis layers up front.
__getattr__, __dir__, __all__ = _attach(
    __name__,
    {
        ".core": (
            "CompositeState",
            "DataValue",
            "ExpansionResult",
            "Op",
            "ProtocolSpec",
            "PruningMode",
            "Rep",
            "SharingLevel",
            "VerificationReport",
            "explore",
            "verify",
        ),
        ".engine": (
            "BatchReport",
            "ResultCache",
            "RunJournal",
            "VerificationJob",
            "run_batch",
        ),
        ".lint": ("LintError", "LintReport", "lint_all", "lint_spec"),
        ".liveness": (
            "LassoWitness",
            "LivenessReport",
            "analyze_liveness",
            "replay_lasso",
        ),
        ".obs": ("Collector", "render_report", "use_collector"),
        ".protocols": ("all_protocols", "get_protocol", "protocol_names"),
    },
)
__all__.append("__version__")
