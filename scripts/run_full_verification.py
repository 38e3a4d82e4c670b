#!/usr/bin/env python3
"""Run every verification suite and write the reports to disk.

Produces one JSON and one CSV report per suite plus a combined `all` report
(the four suite reports concatenated, byte-identical to `run_suite("all")`),
prints a per-suite summary table, and exits nonzero if any case fails.
Reports are byte-deterministic for a fixed (seed, window, trials) triple.

Usage:
    python3 scripts/run_full_verification.py --out reports/
    python3 scripts/run_full_verification.py --seed 7 --window 4096 --trials 50
"""

import argparse
import pathlib
import sys
import time

from calderon.report import RunConfig, VerificationReport, emit_report_csv, emit_report_json
from calderon.suites import run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--window", type=int, default=65536)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--out", default="reports", help="directory for report files")
    args = ap.parse_args()

    config = RunConfig(seed=args.seed, window=args.window, trials=args.trials)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    combined = VerificationReport(suite="all", environment=config.environment_echo())
    any_failed = False
    print(f"{'suite':<12} {'pass':>5} {'fail':>5} {'inconclusive':>13} {'seconds':>8}")
    for name in ("core", "norms", "operators", "optrange"):
        t0 = time.perf_counter()
        report = run_suite(name, config)
        dt = time.perf_counter() - t0
        combined.extend(report)
        counts = report.counts()
        any_failed |= not report.passed
        print(f"{name:<12} {counts['pass']:>5} {counts['fail']:>5} "
              f"{counts['inconclusive']:>13} {dt:>8.2f}")
        with open(out_dir / f"{name}.json", "w", newline="\n") as fh:
            emit_report_json(report, fh)
        with open(out_dir / f"{name}.csv", "w", newline="\n") as fh:
            emit_report_csv(report, fh)
        for case in report.cases:
            if case.status == "fail":
                print(f"  FAIL {case.name}: constant={case.observed_constant} "
                      f"{case.note}", file=sys.stderr)

    with open(out_dir / "all.json", "w", newline="\n") as fh:
        emit_report_json(combined, fh)
    print(f"\nreports written to {out_dir}/")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
