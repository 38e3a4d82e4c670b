"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function of `calderon` at
every place it is bound -- the defining module and every `calderon.*` module
that imported it by name -- with a wrapper that counts calls and measures
self time: the wrapper's elapsed time minus the time spent in nested traced
calls.  Function-local imports inside the program read the defining module at
call time, so they see the wrapper too.  `uninstall()` puts the originals back.

The end-to-end numbers are measured with no wrapper installed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (defining module, function name) for every traced layer call
TRACED = (
    ("calderon.optimal_range", "f_norm_upper"),
    ("calderon.optimal_range", "check_domination"),
    ("calderon.optimal_range", "weak_l1_membership"),
    ("calderon.operators", "calderon"),
    ("calderon.operators", "calderon_min_kernel"),
    ("calderon.operators", "hilbert"),
    ("calderon.spaces", "lp_norm"),
    ("calderon.spaces", "weak_l1_quasinorm"),
    ("calderon.spaces", "llog_norm"),
    ("calderon.spaces", "lorentz_phi_norm"),
    ("calderon.spaces", "marcinkiewicz_norm"),
    ("calderon.spaces", "sum_space_quasinorm"),
    ("calderon.brackets", "choose_tail_start"),
    ("calderon.brackets", "powerlog_tail"),
    ("calderon.brackets", "ratio_profile_sup"),
    ("calderon.sequences", "decreasing_rearrangement"),
    ("calderon.sequences", "weighted_tail_sum"),
    ("calderon.sequences", "harmonic_numbers"),
    ("calderon.report", "emit_report_json"),
    ("calderon.families", "generate_family"),
)

F_NORM = "optimal_range.f_norm_upper"


def _label(module: str, name: str) -> str:
    return f"{module.split('.', 1)[1]}.{name}"


def _hilbert_label(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "fast_convolution")
    return "operators.hilbert.naive" if method == "naive" else "operators.hilbert.fast"


def _hilbert_points(args, kwargs) -> int:
    lo = kwargs.get("out_lo", args[1] if len(args) > 1 else 0)
    hi = kwargs.get("out_hi", args[2] if len(args) > 2 else 0)
    return int(hi) - int(lo) + 1


def _window_points(args, kwargs) -> int:
    return int(kwargs.get("window", args[1] if len(args) > 1 else 0))


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.points: Counter = Counter()
        self.active: Counter = Counter()
        self.enabled = False
        self._stack: list = []
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, label: str, fn):
        classify = _hilbert_label if label == "operators.hilbert" else None
        points = {
            "operators.hilbert": _hilbert_points,
            "operators.calderon": _window_points,
        }.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = classify(args, kwargs) if classify else label
            child = [0.0]
            self._stack.append(child)
            self.active[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.active[key] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[key] += 1
                self.self_s[key] += elapsed - child[0]
                if points:
                    n = points(args, kwargs)
                    self.points[key] += n
                    if key == "operators.calderon" and self.active[F_NORM]:
                        self.calls["operators.calderon.in_f_norm"] += 1
                        self.points["operators.calderon.in_f_norm"] += n

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a `calderon` module binds it."""
        for modname, name in TRACED:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items()) if n == "calderon" or n.startswith("calderon.")]
        for modname, name in TRACED:
            original = getattr(sys.modules[modname], name)
            wrapper = self._wrap(_label(modname, name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Traced calls pass through unrecorded (used around the benchmark's
        own re-checks)."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "points": dict(self.points),
        }


def wrapper_cost_s(repeats: int = 200_000) -> float:
    """Measured cost of one recorded call through a wrapper, over the bare call."""
    def bare():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", bare)
    tracer.enabled = True
    clock = time.perf_counter
    t0 = clock()
    for _ in range(repeats):
        bare()
    t1 = clock()
    for _ in range(repeats):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)


def merge(into: dict, snap: dict) -> dict:
    """Add one snapshot's counters into an accumulated snapshot."""
    for part in ("calls", "self_s", "points"):
        acc = into.setdefault(part, {})
        for k, v in snap.get(part, {}).items():
            acc[k] = acc.get(k, 0) + v
    return into


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a (merged) snapshot.
    A layer that did not run in the workload reads 0."""
    calls, self_s, points = snap.get("calls", {}), snap.get("self_s", {}), snap.get("points", {})
    out = {}

    def both(key):
        out[f"{key}.calls"] = int(calls.get(key, 0))
        out[f"{key}.self_s"] = float(self_s.get(key, 0.0))

    for key in (
        "optimal_range.f_norm_upper",
        "optimal_range.check_domination",
        "optimal_range.weak_l1_membership",
    ):
        both(key)
    n_f = calls.get(F_NORM, 0)
    in_f = "operators.calderon.in_f_norm"
    out["optimal_range.calderon_calls_per_f_norm"] = calls.get(in_f, 0) / n_f if n_f else 0.0
    out["optimal_range.calderon_points_per_f_norm"] = points.get(in_f, 0) / n_f if n_f else 0.0
    both("operators.calderon")
    out["operators.calderon.points"] = int(points.get("operators.calderon", 0))
    both("operators.calderon_min_kernel")
    for route in ("fast", "naive"):
        key = f"operators.hilbert.{route}"
        both(key)
        out[f"{key}.out_points"] = int(points.get(key, 0))
    for name in (
        "lp_norm",
        "weak_l1_quasinorm",
        "llog_norm",
        "lorentz_phi_norm",
        "marcinkiewicz_norm",
        "sum_space_quasinorm",
    ):
        both(f"spaces.{name}")
    both("brackets.choose_tail_start")
    out["brackets.powerlog_tail.calls"] = int(calls.get("brackets.powerlog_tail", 0))
    out["brackets.ratio_profile_sup.calls"] = int(calls.get("brackets.ratio_profile_sup", 0))
    both("sequences.decreasing_rearrangement")
    both("sequences.weighted_tail_sum")
    out["sequences.harmonic_numbers.self_s"] = float(self_s.get("sequences.harmonic_numbers", 0.0))
    both("families.generate_family")
    return out
