"""Smoke test of the benchmark at tiny sizes (about two minutes).

Runs every workload once with ``--seconds 1``, untraced and traced, and
checks that every named metric is printed with its unit and that no
check failed.  Also checks that the correctness gate fails on a wrong
verdict, and that the benchmark refuses to run without the package.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import OUT, Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Raw CPU and wall times every workload prints beside the gated ones.
WALL = [
    "speed_probe_s", "cold_cpu_p50_s", "warm_cpu_p50_s",
    "setup_wall_s", "cold_p50_s", "warm_p50_s",
]
#: Metrics each workload prints for people, beyond the gated ones.
PRINTED = {
    "cli-verify": ["cli_verify_p50_s", "peak_rss_mb", "fail_ratio"],
    "zoo-campaign": ["batch_cold_s", "batch_warm_s", "batch_j2_s", "peak_rss_mb", "fail_ratio"],
    "fresh-specs": ["fresh_spec_p50_s", "fresh_specs_per_s", "peak_rss_mb", "fail_ratio"],
    "serve-mixed": ["serve_warm_p50_s", "serve_cold_p50_s", "peak_rss_mb", "fail_ratio"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


#: fresh-specs runs through the same command but is not gated (see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["fresh-specs"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = [m["name"] for m in declared]
    if not trace:
        printed += WALL + PRINTED[workload]
    for name in printed:
        assert re.search(rf"^  {re.escape(name)} +\S+ \S+", proc.stdout, re.M), name
    assert re.search(r"^  fail_ratio +0\.000000 ratio", proc.stdout, re.M) or trace


def test_wrong_verdict_fails_the_gate() -> None:
    import zoo_campaign
    from repro.engine import JobResult, JobStatus, VerificationJob

    job = VerificationJob(protocol="illinois", mutant="drop-invalidation")
    report = SimpleNamespace(results=[JobResult(job, JobStatus.VERIFIED)])
    ledger = Ledger()
    zoo_campaign._check_batch(ledger, "cold", report, cached=False)
    assert ledger.failed == 1 and ledger.fail_ratio == 1.0


def test_refuses_to_run_without_the_package() -> None:
    bare = OUT / "smoke-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("zoo-campaign", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
