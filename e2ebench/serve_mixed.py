"""Workload ``serve-mixed``: a ``repro serve`` subprocess driven by one
closed-loop client through ``repro.serve.client.submit`` and ``watch``.

The client alternates two kinds of campaign (kernel backend,
``mode="both"``, ``preflight="annotate"``): the zoo, which the server
cache answers after the campaign that set-up ran, and two freshly
generated inline DSL specs, which are cold.  Without this workload the
HTTP, scheduler, store and SSE layers would go unmeasured.  The gated
timings are CPU seconds of the server process plus the client, at the
reference speed (see :class:`common.SpeedProbe`); the client's wall
times are printed beside them.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any

from common import (
    SETUP_SAMPLES,
    Ledger,
    Report,
    SpeedProbe,
    clock,
    dump_samples,
    load_goldens,
    process_cpu,
    spans_path,
    size_adjusted,
)
from fresh_specs import ORACLE_MAX_VISITS, ORACLE_SHARE, draw_sources, submit as submit_inproc
from layers import decomposition_metrics, print_layer_table

SPECS_PER_CAMPAIGN = 2
#: Visit budget of each cold spec.  One generated spec in a hundred
#: runs to the fuzz default of 60,000 visits (10-20 s in the server),
#: and a half-minute run draws one or two such specs; under this budget
#: they end as correct ``partial`` results within a second, so a run
#: holds enough campaigns for a steady median.  Most specs (median
#: 670 visits) finish well inside it.
MAX_VISITS = 5_000
#: Generator seed of the pool of cold specs (see :func:`cold_campaigns`).
POOL_SEED = 1000
#: Cold campaigns in a run's pool, per second of ``--seconds``: about
#: what one client gets through in that time on a 2-core VM.  The run
#: ends when the pool is done, or at ``HARD_STOP`` times ``--seconds``.
CAMPAIGNS_PER_SECOND = 1.3
HARD_STOP = 1.25
#: Median total kernel visits of two generated specs (resampled from
#: the population behind fresh_specs.MEDIAN_VISITS).
MEDIAN_CAMPAIGN_VISITS = 2221
COMMON = {"backend": "kernel", "mode": "both", "preflight": "annotate"}


class Server:
    """One ``repro serve`` process on an ephemeral local port."""

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.started = clock()
        self.client_cpu_started = time.process_time()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--state-dir", str(root / "state"),
                "--cache-dir", str(root / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"(http://\S+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = found[1]
        from repro.serve.client import ServiceError, get_json

        while True:
            try:
                get_json(self.url, "/healthz", timeout=5)
                break
            except (OSError, ServiceError):
                if clock() - self.started > 60:
                    self.stop()
                    raise

    def cpu(self) -> float:
        """CPU seconds of the server process and of this client so far."""
        return process_cpu(self.proc.pid) + time.process_time()

    def setup_cpu(self) -> float:
        """CPU seconds of both sides since this server was started."""
        return process_cpu(self.proc.pid) + time.process_time() - self.client_cpu_started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status)[1]) / 1024.0

    def cache_served(self) -> int:
        """``serve.cache.served`` as the Prometheus scrape reports it."""
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10) as response:
            text = response.read().decode()
        found = re.search(r"^repro_serve_cache_served_total (\S+)", text, re.M)
        return int(float(found[1])) if found else 0

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def zoo_campaign() -> dict[str, Any]:
    return {"protocols": sorted(load_goldens()), **COMMON}


def cold_campaigns(seed: int, count: int) -> list[dict[str, Any]]:
    """``count`` two-spec campaigns of the cold pool, in a seed-chosen order.

    The specs come from :data:`POOL_SEED`, not from ``seed``: every run
    verifies the same heavy-tailed mix, as zoo-campaign verifies the
    same zoo, and the seed orders the campaigns.  They are new to each
    run's server, so every one of them is cold.
    """
    sources = draw_sources(POOL_SEED, count * SPECS_PER_CAMPAIGN)
    campaigns = [
        {
            "specs": dict(sources[i : i + SPECS_PER_CAMPAIGN]),
            "max_visits": MAX_VISITS,
            **COMMON,
        }
        for i in range(0, len(sources), SPECS_PER_CAMPAIGN)
    ]
    random.Random(seed).shuffle(campaigns)
    return campaigns


def run_campaign(server: Server, payload: dict[str, Any], phases: dict[str, float] | None = None) -> dict[str, Any]:
    """Submit and watch one campaign; optionally time its client phases."""
    from repro.serve.client import ServiceError, get_json, submit, watch

    events: list[float] = []
    started = clock()
    try:
        accepted = submit(server.url, payload)
        submitted = clock()
        record = watch(
            server.url,
            accepted["id"],
            on_event=(lambda _event: events.append(clock())) if phases is not None else None,
        )
        if phases is not None:
            watched = clock()
            record = get_json(server.url, f"/campaigns/{accepted['id']}")
    except (OSError, ServiceError) as exc:
        # An HTTP failure is a failed operation: the checks record it.
        return {"id": None, "error": f"{type(exc).__name__}: {exc}"}
    if phases is not None:
        phases.update(
            start=started,
            submitted=submitted,
            first=events[0] if events else submitted,
            last=events[-1] if events else submitted,
            watched=watched,
            end=clock(),
        )
    return record


def _check_zoo(ledger: Ledger, record: dict[str, Any], goldens: dict[str, Any], cached: bool) -> None:
    report = record.get("report") or {}
    ledger.check(
        record.get("exit_code") == 0
        and report.get("counts", {}).get("cache_hits") == (len(goldens) if cached else 0),
        f"zoo campaign {record.get('id')}: exit {record.get('exit_code')}, counts {report.get('counts')}",
    )
    for result in report.get("results", []):
        golden = goldens.get(result["label"])
        ledger.check(
            golden is not None
            and result["status"] == "verified"
            and (result["visits"], result["essential"])
            == (golden["stats"]["visits"], len(golden["essential_states"])),
            f"zoo campaign {record.get('id')} {result['label']}: "
            f"{result['status']} visits={result['visits']} essential={result['essential']}",
        )


def _check_cold(ledger: Ledger, record: dict[str, Any]) -> None:
    report = record.get("report") or {}
    results = report.get("results", [])
    statuses = {r["status"] for r in results}
    # A spec that exhausts the fuzz budget is a correct partial result.
    expected_exit = 2 if "partial" in statuses else 1 if statuses - {"verified"} else 0
    ledger.check(
        record.get("exit_code") == expected_exit
        and len(results) == SPECS_PER_CAMPAIGN
        and report.get("counts", {}).get("cache_hits") == 0
        and statuses <= {"verified", "violation", "liveness-violation", "partial"},
        f"cold campaign {record.get('id')}: exit {record.get('exit_code')}, counts {report.get('counts')}",
    )


def _check_counts(ledger: Ledger, seed: int, done: list[tuple[dict, dict]], budget: float, work: Path) -> str:
    """Server report counts equal in-process counts on a seeded sample."""
    from repro.engine import ResultCache

    pairs = []
    for payload, record in done:
        by_label = {r["label"]: r for r in (record.get("report") or {}).get("results", [])}
        for name, source in payload["specs"].items():
            served = by_label.get(name)
            if served and (served["visits"] or 0) <= ORACLE_MAX_VISITS:
                pairs.append((name, source, served))
    random.Random(seed).shuffle(pairs)
    checked = 0
    deadline = clock() + budget
    cache = ResultCache(work / "inproc-cache")
    for name, source, served in pairs:
        if checked and clock() >= deadline:
            break
        mine, _ = submit_inproc(name, source, cache, MAX_VISITS)
        ledger.check(
            (mine.status, mine.payload["stats"]["visits"], len(mine.payload["essential_states"]))
            == (served["status"], served["visits"], served["essential"]),
            f"{name}: served counts {served['status']}/{served['visits']}/{served['essential']} "
            f"differ from in-process {mine.status}",
        )
        checked += 1
    return f"in-process recount of {checked} served specs (seeded sample)"


def measure(args, env, work: Path, ledger: Ledger, report: Report) -> None:
    goldens = load_goldens()
    campaigns = cold_campaigns(args.seed, max(4, int(CAMPAIGNS_PER_SECOND * args.seconds)))
    # (wall, CPU) seconds per set-up and per campaign.
    setups: list[tuple[float, float]] = []
    warm: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []
    sizes: list[int] = []
    done: list[tuple[dict, dict]] = []
    probe = SpeedProbe()
    server = None
    try:
        for i in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = Server(work / f"setup-{i}", env)
            record = run_campaign(server, zoo_campaign())
            setups.append((clock() - server.started, server.setup_cpu()))
            _check_zoo(ledger, record, goldens, cached=False)
        loop_started = clock()
        for payload in campaigns:
            if cold and clock() - loop_started >= HARD_STOP * args.seconds:
                break
            probe.sample()
            started, cpu = clock(), server.cpu()
            record = run_campaign(server, zoo_campaign())
            warm.append((clock() - started, server.cpu() - cpu))
            _check_zoo(ledger, record, goldens, cached=True)
            started, cpu = clock(), server.cpu()
            record = run_campaign(server, payload)
            cold.append((clock() - started, server.cpu() - cpu))
            _check_cold(ledger, record)
            results = (record.get("report") or {}).get("results", [])
            sizes.append(sum(r["visits"] or 0 for r in results))
            done.append((payload, record))
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    dump_samples("serve-mixed", args.seed, {"cold": cold, "warm": warm, "visits": sizes})
    note = _check_counts(ledger, args.seed, done, ORACLE_SHARE * args.seconds, work)

    cold_wall = [wall for wall, _ in cold]
    cold_cpu = [cpu for _, cpu in cold]
    cold_p50 = size_adjusted(cold_wall, sizes, MEDIAN_CAMPAIGN_VISITS)
    cold_cpu_p50 = size_adjusted(cold_cpu, sizes, MEDIAN_CAMPAIGN_VISITS)
    scale = probe.scale()
    report.add_latency("setup_s", [cpu for _, cpu in setups])
    report.add_latency("cold_ref_p50_s", [cpu * scale for cpu in cold_cpu], cold_cpu_p50 * scale)
    report.add_latency("warm_ref_p50_s", [cpu * scale for _, cpu in warm])
    probe.report(report)
    report.add_latency("cold_cpu_p50_s", cold_cpu, cold_cpu_p50)
    report.add_latency("warm_cpu_p50_s", [cpu for _, cpu in warm])
    report.add_latency("setup_wall_s", [wall for wall, _ in setups])
    report.add_latency("cold_p50_s", cold_wall, cold_p50)
    report.add_latency("warm_p50_s", [wall for wall, _ in warm])
    report.add("peak_rss_mb", rss, "MB", "repro serve process")
    report.add_latency("serve_warm_p50_s", [wall for wall, _ in warm])
    report.add_latency("serve_cold_p50_s", cold_wall, cold_p50)
    report.add("fail_ratio", ledger.fail_ratio, "ratio")
    report.print_lines("end-to-end (1 client, 1 connection at a time, closed loop)")
    print(f"  {note}")


def _pass(args, env, work: Path, tag: str, count: int, traced: bool, ledger: Ledger) -> dict[str, Any]:
    """A fixed sequence of ``count`` warm/cold campaign pairs on a fresh server."""
    from tracing import Tracer

    goldens = load_goldens()
    server = Server(work / tag, env)
    tracer = Tracer()
    counts = {"cache.hits": 0, "cache.misses": 0, "kernel.expand:expand.visits": 0}
    try:
        run_campaign(server, zoo_campaign())
        started = clock()
        for i, payload in enumerate(cold_campaigns(args.seed, count)):
            for kind, body in (("warm", zoo_campaign()), ("cold", payload)):
                phases: dict[str, float] | None = {} if traced else None
                record = run_campaign(server, body, phases)
                if kind == "warm":
                    _check_zoo(ledger, record, goldens, cached=True)
                else:
                    _check_cold(ledger, record)
                for result in (record.get("report") or {}).get("results", []):
                    counts["cache.hits" if result["cached"] else "cache.misses"] += 1
                    if not result["cached"]:
                        counts["kernel.expand:expand.visits"] += result["visits"] or 0
                if phases:
                    tracer.trace_id = f"{tag}.{i}.{kind}"
                    root = tracer.record(f"campaign.{kind}", phases["start"], phases["end"])
                    tracer.record("serve.submit", phases["start"], phases["submitted"], root)
                    tracer.record("serve.first_event", phases["submitted"], phases["first"], root)
                    tracer.record("serve.stream", phases["first"], phases["last"], root)
                    tracer.record("serve.report_get", phases["watched"], phases["end"], root)
        wall = clock() - started
        counts["serve.cache.served"] = server.cache_served()
    finally:
        server.stop()
    if traced:
        tracer.dump(spans_path("serve-mixed", args.seed))
    return {"self": tracer.self_times(), "probes": {}, "counts": counts, "wall": wall, "ops": count}


def trace(args, env, work: Path, ledger: Ledger, report: Report) -> None:
    count = max(2, int(args.seconds / 5))
    passes = [_pass(args, env, work, f"traced-{i}", count, True, ledger) for i in range(2)]
    untraced = _pass(args, env, work, "untraced", count, False, ledger)
    decomposition_metrics(passes, untraced, ledger, report)
    print_layer_table(report, "campaign pair (one warm zoo + one cold fresh-spec campaign)")
