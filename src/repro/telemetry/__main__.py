"""CLI for fleet telemetry: ``python -m repro.telemetry``.

Examples::

    python -m repro.telemetry run --scenario smoke --workers 2
    python -m repro.telemetry run --scenario metro \\
        --openmetrics metrics.om --rule "duty: radio_duty_cycle.p95 < 8%"
    python -m repro.telemetry --smoke      # the CI gate

The smoke gate runs a telemetry-enabled scenario on one and two
workers, checks the merged documents are byte-identical, validates the
OpenMetrics exposition against the grammar, evaluates the default
health rules, and writes the artifacts (OpenMetrics text, health JSON,
JSONL samples) for CI to upload.  Exit status is non-zero on any
failure, so CI gates directly on the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _cmd_run(args) -> int:
    from repro.fleet.runner import run_scenario
    from repro.fleet.scenario import SCENARIOS
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.export import to_csv, to_jsonl, to_openmetrics
    from repro.telemetry.health import DEFAULT_RULES, SloRule, evaluate
    from repro.telemetry.report import dashboard, health_table

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario '{args.scenario}'", file=sys.stderr)
        return 2
    scenario = SCENARIOS[args.scenario]
    overrides = {
        "telemetry": TelemetryConfig(
            cadence_s=args.cadence, per_node=args.per_node,
        ),
    }
    if args.nodes is not None:
        overrides["things"] = args.nodes
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    scenario = scenario.scaled(**overrides)

    rules = list(DEFAULT_RULES)
    if args.rule:
        try:
            rules = [SloRule.parse(text) for text in args.rule]
        except ValueError as exc:
            print(f"bad --rule: {exc}", file=sys.stderr)
            return 2

    result = run_scenario(scenario, workers=args.workers)
    document = result.telemetry_document()
    print(dashboard(document))
    report = evaluate(rules, document)
    print()
    print(health_table(report.as_dict()))

    writers = (
        (args.openmetrics,
         lambda: to_openmetrics(document, history=True)),
        (args.jsonl, lambda: to_jsonl(document)),
        (args.csv, lambda: to_csv(document)),
        (args.json, lambda: json.dumps(
            {"telemetry": document, "health": report.as_dict()},
            sort_keys=True, indent=2) + "\n"),
    )
    for path, render in writers:
        if not path:
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render())
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {path}")
    return 0 if report.status in ("ok", "recovered", "no-data") else 1


def _cmd_smoke(args) -> int:
    from repro.fleet.runner import run_scenario
    from repro.fleet.scenario import SCENARIOS
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.export import (
        to_jsonl,
        to_openmetrics,
        validate_openmetrics,
    )
    from repro.telemetry.health import DEFAULT_RULES, evaluate
    from repro.telemetry.report import dashboard, health_table

    failures = []
    scenario = SCENARIOS["smoke"].scaled(
        telemetry=TelemetryConfig(cadence_s=1.0))

    documents = {}
    for workers in (1, 2):
        result = run_scenario(scenario, workers=workers)
        documents[workers] = result.telemetry_document()
    blobs = {
        w: json.dumps(d, sort_keys=True) for w, d in documents.items()
    }
    if blobs[1] == blobs[2]:
        print("merge determinism: ok (workers 1 == workers 2)")
    else:
        failures.append("merged telemetry differs across worker counts")
    document = documents[1]
    series_count = len(document.get("series", ()))
    print(f"series collected : {series_count}")
    if series_count == 0:
        failures.append("no series collected")

    text = to_openmetrics(document, history=True)
    errors = validate_openmetrics(text)
    if errors:
        failures.append(f"OpenMetrics validation: {len(errors)} errors")
        for error in errors[:10]:
            print(f"  {error}")
    else:
        print(f"openmetrics      : valid "
              f"({len(text.splitlines())} lines)")

    report = evaluate(DEFAULT_RULES, document)
    print()
    print(dashboard(document))
    print()
    print(health_table(report.as_dict()))
    if report.status == "degraded":
        failures.append("smoke scenario health degraded")

    out_dir = args.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        artifacts = (
            ("telemetry.om", text),
            ("health.json", json.dumps(report.as_dict(), sort_keys=True,
                                       indent=2) + "\n"),
            ("telemetry.jsonl", to_jsonl(document)),
        )
        for name, content in artifacts:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        print(f"\nartifacts in {out_dir}/: "
              + ", ".join(name for name, _ in artifacts))

    if failures:
        print("\nsmoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsmoke passed")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # CI invokes the gate as ``python -m repro.telemetry --smoke`` —
    # accept the flag spelling for the subcommand.
    argv = ["smoke" if arg == "--smoke" else arg for arg in argv]

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="fleet time-series telemetry and health",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario with telemetry")
    run_p.add_argument("--scenario", default="smoke")
    run_p.add_argument("--nodes", type=int, default=None)
    run_p.add_argument("--duration", type=float, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--cadence", type=float, default=1.0,
                       help="sim-time sampling cadence, seconds")
    run_p.add_argument("--per-node", action="store_true",
                       help="also record per-Thing series")
    run_p.add_argument("--rule", action="append", metavar="RULE",
                       help="health rule, e.g. "
                            "'duty: radio_duty_cycle.p95 < 8%% window=10' "
                            "(repeatable; replaces the defaults)")
    run_p.add_argument("--openmetrics", metavar="PATH")
    run_p.add_argument("--jsonl", metavar="PATH")
    run_p.add_argument("--csv", metavar="PATH")
    run_p.add_argument("--json", metavar="PATH",
                       help="full telemetry + health JSON document")

    smoke_p = sub.add_parser("smoke", help="CI gate: determinism, "
                                           "grammar, health")
    smoke_p.add_argument("--out-dir", default="telemetry-artifacts",
                         help="artifact directory ('' to skip writing)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
