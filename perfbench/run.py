#!/usr/bin/env python3
"""Benchmark of the calderon package: one workload per call, or all of them.

    python3 perfbench/run.py --workload verify_all|fnorm_mix|cli_oneshot|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is taken from ./src as it is;
nothing is installed.  Each workload runs in a fresh worker process (one
client, closed loop); set-up is timed from the moment the worker process is
started, three times per plain run, and reported as the median.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The exit code is 0 only when every output check passed (the two
known CLI faults excepted, which count as failed operations).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, E2E_UNITS, ROOT, SRC, child_env, layer_unit

WORKLOADS = ("verify_all", "fnorm_mix", "cli_oneshot")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run ends well inside 180 s


def _worker_cmd(args, workload, workdir, setup_only=False):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    return cmd + (["--setup-only"] if setup_only else [])


def _spawn(cmd, deadline):
    """Run a worker to completion in its own process group, which is killed
    if the worker outlives the deadline or this process is stopped.
    Returns (start time, the worker's JSON line)."""
    start = time.monotonic()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                         cwd=str(ROOT), start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded the time limit: {' '.join(cmd[2:])}") from None
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
    if p.returncode != 0:
        raise RuntimeError(f"worker exited {p.returncode}: {' '.join(cmd[2:])}")
    return start, json.loads(out.strip().splitlines()[-1])


# layer numbers that only some workloads produce; the others report 0
LAYER_EXTRAS = (
    "suites.core.s", "suites.norms.s", "suites.operators.s", "suites.optrange.s",
    "report.emit_report_json.s",
    "cli.import_s", "cli.norm.ms", "cli.norm_sum.ms", "cli.calderon.ms", "cli.hilbert.ms",
    "cli.fnorm.ms",
)


def layer_numbers(res) -> dict:
    from tracer import layer_metrics

    metrics = layer_metrics(res["layers"])
    metrics.update(res["extra"] if "extra" in res else {})
    for name in LAYER_EXTRAS:
        metrics.setdefault(name, 0.0)
    calls = sum(v for k, v in res["layers"]["calls"].items() if not k.endswith(".in_f_norm"))
    metrics["trace.overhead_pct"] = 100.0 * (res["traced_s"] / res["untraced_s"] - 1.0)
    metrics["trace.wrapper_cost_pct"] = 100.0 * calls * res["wrapper_call_s"] / res["traced_s"]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}


def run_workload(args, workload, tmp, deadline) -> dict:
    workdir = os.path.join(tmp, workload)
    start, res = _spawn(_worker_cmd(args, workload, workdir), deadline)
    if args.trace:
        res["metrics"] = layer_numbers(res)
        return res
    setups = [res["ready"] - start]
    for i in range(SETUP_SAMPLES - 1):
        s, ready = _spawn(_worker_cmd(args, workload, f"{workdir}-setup{i}", True), deadline)
        setups.append(ready["ready"] - s)
    metrics = dict(res["metrics"], setup_s=statistics.median(setups))
    res["metrics"] = {k: {"value": metrics[k], "unit": E2E_UNITS[k]} for k in sorted(metrics)}
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "calderon" / "__init__.py").is_file():
        print(f"perfbench: no calderon sources under {SRC}", file=sys.stderr)
        return 2
    # the "build": byte-compile once so that set-up times never include it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)

    # a stop request unwinds through the finally clauses that kill the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(tmp)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            results[w] = run_workload(args, w, tmp, deadline)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it

    for w, res in results.items():
        print(f"== {w}  seed={args.seed} trace={args.trace}  attempted={res['attempted']}"
              f" failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:48s} {m['value']:.6g} {m['unit']}")
        for err in res["errors"]:
            print(f"   CHECK FAILED: {err}")
        for err in res.get("selftest", []):
            print(f"   SELF-TEST FAILED: {err}")
        print("   machine: " + json.dumps(res["machine"], sort_keys=True))
    correct = all(not r["errors"] and not r.get("selftest") for r in results.values())
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
