"""Runs one workload in this process and prints one JSON line.

`worker.py --setup-only` does the set-up alone (interpreter start, `import
calderon`, input generation) and reports when it was ready; run.py times
this against the moment it started the process."""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from common import machine_record

MODULES = {"verify_all": "wl_verify", "fnorm_mix": "wl_fnorm", "cli_oneshot": "wl_cli"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    mod = importlib.import_module(MODULES[args.workload])
    state = mod.setup(args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        from tracer import Tracer, wrapper_cost_s

        result = mod.run_traced(state, Tracer())
        result["wrapper_call_s"] = wrapper_cost_s()
    else:
        result = mod.run(state, args.seconds)
    result["selftest"] = mod.selftest(state)
    result["ready"] = ready
    result["machine"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
