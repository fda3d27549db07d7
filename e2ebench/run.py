"""End-to-end benchmark of the paths users wait on.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload zoo-campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced decomposition and reports the per-layer
metrics.  Every run checks the program's outputs; any wrong or missing
verdict makes the run print ``"correct": false`` and exit 1.  The last
line of standard output is one JSON object.  See e2ebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import SRC, Ledger, Report, child_env, finish, pin_one_cpu, work_dir

WORKLOADS = ("cli-verify", "zoo-campaign", "fresh-specs", "serve-mixed")
END_TO_END = ("setup_s", "cold_ref_p50_s", "warm_ref_p50_s")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: child processes of this benchmark (set-up samples and
    # traced passes that need cold in-process memos).
    parser.add_argument("--child", choices=("setup", "decompose", "untraced"))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exit so the finally blocks stop the servers
    # and child processes this run started and remove its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no package to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.trace and args.child is None:
        pin_one_cpu()  # children inherit it

    import cli_verify
    import fresh_specs
    import serve_mixed
    import zoo_campaign
    from layers import PER_LAYER

    module = {
        "cli-verify": cli_verify,
        "zoo-campaign": zoo_campaign,
        "fresh-specs": fresh_specs,
        "serve-mixed": serve_mixed,
    }[args.workload]
    work = work_dir(args.workload)
    env = child_env(work)
    os.environ.update(env)  # temp files of this process stay in the checkout
    try:
        if args.child is not None:
            print(json.dumps(module.child(args, work)))
            return 0
        ledger = Ledger()
        report = Report(args.workload)
        if args.trace:
            module.trace(args, env, work, ledger, report)
            report.print_lines("per-layer metrics (traced run)")
            return finish(ledger, report.metrics([name for name, _ in PER_LAYER]))
        module.measure(args, env, work, ledger, report)
        return finish(ledger, report.metrics(END_TO_END))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
