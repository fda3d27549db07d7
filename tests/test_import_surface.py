"""Start-up cost gate: what a cold ``repro`` process imports.

``repro verify`` is a short process, so its wall time is mostly
import time.  The package surface is lazy (PEP 562 ``__getattr__``
tables in ``repro``, ``repro.core``, ``repro.analysis`` and
``repro.engine``) and each CLI subcommand imports what it uses inside
its handler.  These tests count modules, not seconds: after
``import repro``, ``repro --help`` and ``repro verify illinois
--quiet`` none of the heavy or unrelated layers below may be loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Must not be in ``sys.modules`` after any of the cold entry points.
FORBIDDEN = (
    "numpy",
    "networkx",
    "repro.engine",
    "repro.serve",
    "repro.simulator",
    "repro.kernel",
    "repro.lint",
)

#: The public names of each package whose ``__init__`` is a lazy
#: export table -- the same names the eager ``__init__`` files exported.
PUBLIC_NAMES = {
    "repro": """
        BatchReport Collector CompositeState DataValue ExpansionResult
        LassoWitness LintError LintReport LivenessReport Op ProtocolSpec
        PruningMode Rep ResultCache RunJournal SharingLevel VerificationJob
        VerificationReport __version__ all_protocols analyze_liveness explore
        get_protocol lint_all lint_spec protocol_names render_report
        replay_lasso run_batch use_collector verify
    """.split(),
    "repro.core": """
        CompositeState CountCase Ctx DataValue Disposition ErrorKind
        ExpansionLimitError ExpansionResult ExpansionStats ForbidMultiple
        ForbidState ForbidTogether INITIATOR Label LoadFrom MEMORY
        ObserverReaction Op Outcome ProtocolDefinitionError ProtocolSpec
        PruningMode Rep SharingLevel StatePattern SymbolicExpander
        SymbolicTransition TraceEntry TransitionLabel VerificationReport
        Violation Witness aggregate ascii_diagram build_graph contains explore
        from_cache is_essential_among leq make_state parse_class_spec remove_one
        result_to_dict result_to_json state_from_dict state_to_dict stay
        structurally_covers to_dot verify
    """.split(),
    "repro.analysis": """
        ComparisonReport DiagramShape GrowthFit LocalFsm TrafficPoint
        check_definition_1 compare_protocols diagram_shape essential_state_rows
        expansion_listing figure4_table fit_exponential_growth format_table
        local_fsm max_states metric_series sweep_table traffic_sweep
        visit_lower_bound
    """.split(),
    "repro.engine": """
        BackoffPolicy BatchCancelled BatchReport BreakerState Budget
        CircuitBreaker ENGINE_VERSION Exhaustion ExhaustionReason Guard
        JobResult JobStatus JournalFollower ParallelRunner ResultCache
        RunJournal SerialRunner VerificationJob current_rss_mb default_cache_dir
        execute_job job_key make_runner run_batch spec_fingerprint
    """.split(),
}

_RUN_CLI = """
import json, runpy, sys
sys.argv = ["repro", *{argv!r}]
code = None
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("RESULT=" + json.dumps({{"modules": sorted(sys.modules), "exit": code}}))
"""


def _child(code: str) -> tuple[object, str]:
    """Run *code* in a fresh interpreter; return its ``RESULT=`` JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    [result] = [
        line for line in proc.stdout.splitlines() if line.startswith("RESULT=")
    ]
    return json.loads(result.removeprefix("RESULT=")), proc.stdout


def _loaded_forbidden(modules: list[str]) -> list[str]:
    return sorted(
        m for m in modules if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    )


def test_import_repro_loads_nothing_heavy():
    modules, _ = _child(
        "import json, sys, repro\n"
        "print('RESULT=' + json.dumps(sorted(sys.modules)))"
    )
    assert _loaded_forbidden(modules) == []
    assert "repro.core" not in modules


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["verify", "illinois", "--quiet"]],
    ids=["help", "verify"],
)
def test_cli_entry_points_load_nothing_heavy(argv):
    result, stdout = _child(_RUN_CLI.format(argv=argv))
    modules = result["modules"]
    assert _loaded_forbidden(modules) == []
    assert result["exit"] == 0
    if argv[0] == "verify":
        assert "VERIFIED; 5 essential states, 23 state visits" in stdout
        assert not any(m.startswith("repro.analysis") for m in modules)


_SURFACE = """
import importlib, json
problems = []
for name in {packages!r}:
    package = importlib.import_module(name)
    listing = dir(package)
    for attr in package.__all__:
        try:
            getattr(package, attr)
        except AttributeError as exc:
            problems.append(f"{{name}}.{{attr}}: {{exc}}")
        if attr not in listing:
            problems.append(f"{{name}}.{{attr}} missing from dir()")
namespace = {{}}
exec("from repro import *", namespace)
problems += [n for n in importlib.import_module("repro").__all__ if n not in namespace]
print("RESULT=" + json.dumps(problems))
"""


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_packages_keep_their_public_names(package):
    assert sorted(importlib.import_module(package).__all__) == sorted(
        PUBLIC_NAMES[package]
    )


def test_lazy_exports_resolve_and_list():
    problems, _ = _child(_SURFACE.format(packages=sorted(PUBLIC_NAMES)))
    assert problems == []


def test_unknown_attribute_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")


def test_workload_choices_match_the_simulator():
    from repro.cli import _WORKLOAD_CHOICES
    from repro.simulator.workloads import WORKLOADS

    assert list(_WORKLOAD_CHOICES) == sorted(WORKLOADS)
