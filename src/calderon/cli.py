"""Command-line interface.

Exit codes: 0 all requested checks passed (or pure computation succeeded),
1 at least one check failed or a computation could not certify a result
(any ArithmeticError, overflow included, or an unresolvable head), 2 usage
errors.  All verification output is deterministic in (seed, config);
wall-clock timing appears only under the `bench` subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import IO, Optional

import numpy as np

from .brackets import InvariantError
from .families import FAMILY_KINDS, generate_family
from .operators import (
    METHOD_FAST,
    METHOD_NAIVE,
    OperatorOutput,
    bench_hilbert,
    calderon,
    calderon_min_kernel,
    hilbert,
)
from .optimal_range import (
    GridConfig,
    NoWitnessFoundError,
    f_norm_upper,
    weak_l1_membership,
)
from .report import (
    RunConfig,
    emit_report_csv,
    emit_report_json,
    emit_values_csv,
    fmt17,
    json_safe_float,
)
from .sequences import HeadResolutionError, decreasing_rearrangement, sequence_from_json
from .spaces import (
    LLOG,
    M1INF,
    SUM_SPACE,
    WEAK_L1,
    PhiTemplate,
    SpaceSpec,
    lp_space,
    space_norm,
    space_spec_from_json,
)
from .suites import OPTRANGE_SUBSUITES, SUITE_NAMES, run_suite

_SPACE_SHORTHAND = {
    "weak_l1": WEAK_L1,
    "m1inf": M1INF,
    "llog": LLOG,
    "sum": SUM_SPACE,
}


class UsageError(ValueError):
    pass


def _load_sequence(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read sequence file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"sequence file {path!r} is not valid JSON: {e}") from e
    return sequence_from_json(data)


def _load_space(spec: str) -> SpaceSpec:
    """A space argument is a shorthand name (weak_l1, m1inf, llog, sum,
    lp:P, lorentz:log1p, lorentz:power:T) or a path to a JSON spec file."""
    if spec in _SPACE_SHORTHAND:
        return _SPACE_SHORTHAND[spec]
    if spec.startswith("lp:"):
        return lp_space(float(spec[3:]))
    if spec == "lorentz:log1p":
        return SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("log1p", None))
    if spec.startswith("lorentz:power:"):
        return SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("power", float(spec.split(":")[2])))
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return space_spec_from_json(json.load(fh))
        except OSError as e:
            raise UsageError(f"cannot read space file {spec!r}: {e}") from e
    raise UsageError(
        f"unknown space {spec!r}: not a shorthand name and not an existing file"
    )


@contextmanager
def _open_out(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        try:
            fh = open(path, "w", encoding="utf-8", newline="\n")
        except OSError as e:
            raise UsageError(f"cannot write output file {path!r}: {e}") from e
        with fh:
            yield fh


def _write_json(fh: IO[str], doc) -> None:
    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_operator_output(out: OperatorOutput, args) -> None:
    """Write an operator image; OverflowError, before any output is opened,
    when a value or half-width is not a double."""
    if not (np.all(np.isfinite(out.window_values)) and np.all(np.isfinite(out.tail_halfwidth_per_index))):
        raise OverflowError("an operator value exceeds the double range")
    with _open_out(args.out) as fh:
        if args.format == "csv":
            emit_values_csv(out.indices(), out.window_values, out.tail_halfwidth_per_index, fh)
        else:
            # both arrays are float64, so tolist() yields the same Python floats
            _write_json(fh, {
                "offset": int(out.offset),
                "values": out.window_values.tolist(),
                "tail_halfwidth": out.tail_halfwidth_per_index.tolist(),
                "evaluation_method": out.evaluation_method,
            })


def _global_flags(ap: argparse.ArgumentParser, suppress: bool) -> None:
    """The four global flags are accepted both before and after the
    subcommand; the post-subcommand copies use SUPPRESS defaults so they only
    override the top-level values when actually given."""
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument(
        "--seed",
        type=int,
        default=d if suppress else 1,
        help="seed for every random family",
    )
    ap.add_argument(
        "--window",
        type=int,
        default=d if suppress else 65536,
        help="evaluation window size",
    )
    ap.add_argument(
        "--out",
        type=str,
        default=d if suppress else None,
        help="write output to this path",
    )
    ap.add_argument(
        "--format",
        choices=("json", "csv"),
        default=d if suppress else "json",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="calderon",
        description=(
            "Averaging-operator and discrete Hilbert transform toolkit: "
            "rearrangements, sequence-space norms, certified windows, and the "
            "constructive optimal-range machinery, with a deterministic "
            "verification harness."
        ),
    )
    _global_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rearrange", parents=[common], help="decreasing rearrangement of a sequence file"
    )
    p.add_argument("--in", dest="infile", required=True, help="sequence JSON file")

    p = sub.add_parser("norm", parents=[common], help="evaluate a symmetric sequence-space norm")
    p.add_argument("--in", dest="infile", required=True, help="sequence JSON file")
    p.add_argument("--space", required=True, help="space shorthand or JSON spec file")

    p = sub.add_parser(
        "calderon", parents=[common], help="apply the averaging-plus-tail operator"
    )
    p.add_argument("--in", dest="infile", required=True, help="sequence JSON file")
    p.add_argument(
        "--min-kernel",
        action="store_true",
        help="use the two-dimensional min-kernel route instead of prefix sums",
    )

    p = sub.add_parser("hilbert", parents=[common], help="apply the discrete Hilbert transform")
    p.add_argument("--in", dest="infile", required=True, help="sequence JSON file")
    p.add_argument("--lo", type=int, default=None, help="lowest output index (inclusive)")
    p.add_argument("--hi", type=int, default=None, help="highest output index (inclusive)")
    p.add_argument(
        "--method",
        choices=("naive", "fast"),
        default="fast",
        help="direct double sum or FFT convolution",
    )

    p = sub.add_parser("optrange", help="optimal-range computations")
    osub = p.add_subparsers(dest="optrange_command", required=True)

    q = osub.add_parser(
        "fnorm", parents=[common], help="certified upper estimate of the range quasi-norm"
    )
    q.add_argument("--in", dest="infile", required=True, help="sequence JSON file")
    q.add_argument("--space", default="weak_l1", help="domain space (default weak_l1)")

    q = osub.add_parser(
        "member-weakl1", parents=[common], help="membership functional for the range space"
    )
    q.add_argument("--in", dest="infile", required=True, help="sequence JSON file")

    q = osub.add_parser(
        "verify", parents=[common], help="focused optimal-range verification suites"
    )
    q.add_argument("--suite", required=True, choices=OPTRANGE_SUBSUITES)
    q.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("bench", parents=[common], help="time the transform evaluation routes")
    p.add_argument(
        "--sizes",
        type=str,
        default="4096,16384",
        help="comma-separated support sizes",
    )

    p = sub.add_parser("family", parents=[common], help="emit a deterministic test family")
    p.add_argument("--kind", required=True, choices=FAMILY_KINDS)
    p.add_argument("--count", type=int, default=10)
    return ap


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        window=max(16, args.window),
        trials=getattr(args, "trials", 200),
    )


def _cmd_rearrange(args) -> int:
    x = _load_sequence(args.infile)
    mu = decreasing_rearrangement(x)
    n = len(mu.values) if mu.tail.is_zero else max(args.window, len(mu.values))
    head = mu.head(n)
    with _open_out(args.out) as fh:
        if args.format == "csv":
            emit_values_csv(range(len(head)), head, np.zeros(len(head)), fh)
        else:
            _write_json(fh, {"values": head.tolist(), "exact_beyond_window": not mu.tail.is_zero})
    return 0


def _cmd_norm(args) -> int:
    x = _load_sequence(args.infile)
    spec = _load_space(args.space)
    nv = space_norm(spec, x, window=max(16, args.window))
    with _open_out(args.out) as fh:
        if args.format == "csv":
            fh.write("space,value,tail_halfwidth,window\n")
            val = "Infinity" if nv.is_infinite else fmt17(nv.value)
            fh.write(f"{spec.label},{val},{fmt17(nv.tail_halfwidth)},{nv.window}\n")
        else:
            d = {"space": spec.label}
            d.update(nv.to_json_dict())
            _write_json(fh, d)
    return 0


def _cmd_calderon(args) -> int:
    x = _load_sequence(args.infile)
    out = calderon_min_kernel(x, args.window) if args.min_kernel else calderon(x, args.window)
    _emit_operator_output(out, args)
    return 0


def _cmd_hilbert(args) -> int:
    x = _load_sequence(args.infile)
    method = METHOD_NAIVE if args.method == "naive" else METHOD_FAST
    if (args.lo is None) != (args.hi is None):
        raise UsageError("--lo and --hi must be given together")
    lo, hi = (-args.window, args.window) if args.lo is None else (args.lo, args.hi)
    _emit_operator_output(hilbert(x, lo, hi, method), args)
    return 0


def _cmd_fnorm(args) -> int:
    x = _load_sequence(args.infile)
    spec = _load_space(args.space)
    try:
        est = f_norm_upper(x, spec, GridConfig.for_window(args.window))
    except NoWitnessFoundError as e:
        with _open_out(args.out) as fh:
            _write_json(fh, {"error": str(e)})
        return 1
    with _open_out(args.out) as fh:
        _write_json(fh, est.to_json_dict())
    return 0 if est.witness.verified else 1  # a refuted witness is printed for replay


def _cmd_member(args) -> int:
    x = _load_sequence(args.infile)
    res = weak_l1_membership(x, window=max(16, args.window))
    with _open_out(args.out) as fh:
        _write_json(fh, {"member": res.member, "c_a": json_safe_float(res.c_a)})
    return 0


def _emit_report(report, args) -> int:
    with _open_out(args.out) as fh:
        if args.format == "csv":
            emit_report_csv(report, fh)
        else:
            emit_report_json(report, fh)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    return _emit_report(run_suite(args.suite, _config_from(args)), args)


def _cmd_optrange_verify(args) -> int:
    return _emit_report(run_suite(f"optrange/{args.suite}", _config_from(args)), args)


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as e:
        raise UsageError(f"--sizes takes comma-separated integers, got {args.sizes!r}") from e
    if not sizes:
        raise UsageError("--sizes must name at least one size")
    rows = bench_hilbert(sizes, seed=args.seed)
    with _open_out(args.out) as fh:
        if args.format == "csv":
            fh.write("size,naive_seconds,fast_seconds,speedup,max_relative_deviation\n")
            for r in rows:
                fh.write(
                    f"{r.size},{fmt17(r.naive_seconds)},{fmt17(r.fast_seconds)},"
                    f"{fmt17(r.speedup)},{fmt17(r.max_relative_deviation)}\n"
                )
        else:
            _write_json(fh, [
                {
                    "size": r.size,
                    "naive_seconds": r.naive_seconds,
                    "fast_seconds": r.fast_seconds,
                    "speedup": json_safe_float(r.speedup),
                    "max_relative_deviation": r.max_relative_deviation,
                }
                for r in rows
            ])
    return 0


def _cmd_family(args) -> int:
    from .sequences import sequence_to_json

    fam = generate_family(args.kind, args.count, args.seed)
    with _open_out(args.out) as fh:
        _write_json(fh, [sequence_to_json(x) for x in fam])
    return 0


_DISPATCH = {
    "rearrange": _cmd_rearrange,
    "norm": _cmd_norm,
    "calderon": _cmd_calderon,
    "hilbert": _cmd_hilbert,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "family": _cmd_family,
    "optrange fnorm": _cmd_fnorm,
    "optrange member-weakl1": _cmd_member,
    "optrange verify": _cmd_optrange_verify,
}
_JSON_ONLY = {_cmd_family, _cmd_fnorm, _cmd_member}


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        verb = " ".join(filter(None, (args.command, getattr(args, "optrange_command", None))))
        if args.window < 1:  # raw operators honor it exactly; certified norms floor it at 16
            raise UsageError("--window must be at least 1")
        if _DISPATCH[verb] in _JSON_ONLY and args.format == "csv":
            raise UsageError(f"{verb} writes JSON only; --format csv is not supported")
        return _DISPATCH[verb](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, HeadResolutionError) as e:
        print(f"computation could not certify a result: {e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
