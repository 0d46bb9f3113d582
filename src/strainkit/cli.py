"""Command-line front end.

Exit codes distinguish failure classes so scripts can react:

    0   success (every residual exactly "0")
    1   identity-check failure (a verified theorem did not hold)
    2   mathematical precondition failure (incompatible strain, singular
        metric, non-invertible block)
    64  usage error (bad flags)
    65  input parse error (unreadable or malformed field file)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__, fieldio
from .calculus import curl_curl, sym_grad
from .complexes import (MIN_COMPLEX_DEGREE, SCHUR_CANCELLATIONS,
                        build_elasticity_complex, build_grad_curl_div_complex,
                        build_w_complex, derive_elasticity, schur_reduce,
                        verify_complex)
from .connection import normalize_rigid, saint_venant_reconstruct
from .errors import (CompatibilityError, FieldFormatError, SingularBlockError,
                     SingularMetricError)
from .fields import SYM_INDEX_PAIRS
from .riemannian import PolyMetric, linearized_einstein, pointwise_curvature
from .suites import (MIN_DEGREE, MIN_TRIALS, SUITE_NAMES, SuiteConfig,
                     check_names, residual_text, run_suite)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional "usage" exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_at_least(name: str, least: int):
    """Parser of an integer flag that must be at least `least`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}") from exc
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}")
        return value

    return parse


def _point(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"a point is three comma-separated rationals, got {text!r}")
    return tuple(_rational(p) for p in parts)


def _load_field(path: str, kind: str):
    with open(path, "r", encoding="utf-8") as fp:
        return fieldio.load(fp, expect_kind=kind)


def _save_field(field, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fieldio.save(field, fp)


def _sym_grad_is(x, sigma) -> bool:
    """Whether sym_grad(x) == sigma, decided on integer numerators: with
    x = X/M and sigma = S/L, L (d_i X_j + d_j X_i) == 2 M S_ij."""
    xn, m = x.numerators()
    sn, den = sigma.numerators()
    return all((xn.comp(j).partial(i) + xn.comp(i).partial(j)) * den
               == sn.entry(i, j) * (2 * m) for i, j in SYM_INDEX_PAIRS)


def _rows(mat) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(v) for v in row) + "]" for row in mat) + "]"


# -- subcommands -------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.corrupt is not None and args.corrupt not in check_names(args.suite):
        args.usage_error(f"argument --corrupt: {args.corrupt!r} is not a check "
                         f"of suite {args.suite!r}")
    config = SuiteConfig(suite=args.suite, degree=args.degree,
                         trials=args.trials, seed=args.seed,
                         corrupt=args.corrupt)
    report = run_suite(config)
    for record in report.records:
        if record.passed:
            print(f"PASS {record.name}")
        else:
            print(f"FAIL {record.name}  residual: {record.residual}")
    passed = sum(1 for r in report.records if r.passed)
    print(f"{passed}/{len(report.records)} checks passed "
          f"(suite={config.suite}, degree={config.degree}, "
          f"trials={config.trials}, seed={config.seed})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
            fp.write("\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_reconstruct(args) -> int:
    sigma = _load_field(args.input, "sym")
    try:
        x = saint_venant_reconstruct(sigma)
    except CompatibilityError as exc:
        print("strain is not compatible; curl curl residual:", file=sys.stderr)
        print(residual_text(exc.residual), file=sys.stderr)
        return EXIT_PRECONDITION
    if args.normalize:
        x = normalize_rigid(x)
    _save_field(x, args.output)
    print(f"wrote displacement field to {args.output}")
    if args.verify_output:
        if not _sym_grad_is(x, sigma):
            print("round trip failed; residual: "
                  + residual_text(sym_grad(x) - sigma), file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("round trip verified: sym_grad(output) equals the input strain")
    return EXIT_OK


def cmd_linearize(args) -> int:
    sigma = _load_field(args.input, "sym")
    einstein = linearized_einstein(sigma)
    _save_field(einstein, args.output)
    print(f"wrote first-order Einstein field to {args.output}")
    if args.check:
        residual = einstein - curl_curl(sigma)
        if not residual.is_zero():
            print("check failed; residual: " + residual_text(residual),
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("check passed: linearization equals the compatibility tensor")
    return EXIT_OK


def _component_shape(space) -> int:
    return sum(s.ncomp for s in space.slots)


def _print_complex_report(report) -> bool:
    print(f"complex {report.name}")
    dims = [sum(s["dim"] for s in slots) for slots in report.slot_info]
    print("  dimensions: " + " -> ".join(str(d) for d in dims))
    print("  ranks: " + ", ".join(str(r) for r in report.ranks))
    print("  kernel dims: " + ", ".join(str(k) for k in report.kernel_dims))
    print("  compositions: " + ", ".join(report.composition_residuals))
    print("  exactness defects: " + ", ".join(str(d) for d in report.defects))
    return report.compositions_zero and report.is_exact_interior


def cmd_complex(args) -> int:
    payload = {}
    ok = True
    if args.derive == "none":
        for builder in (build_grad_curl_div_complex, build_elasticity_complex,
                        build_w_complex):
            report = verify_complex(builder(args.degree))
            ok = _print_complex_report(report) and ok
            payload[report.name] = report.to_dict()
    elif args.derive == "halfway":
        halfway = schur_reduce(build_w_complex(args.degree), *SCHUR_CANCELLATIONS[0])
        report = verify_complex(halfway)
        shape = " -> ".join(str(_component_shape(s)) for s in halfway.spaces)
        print(f"halfway complex (matrix pair cancelled); "
              f"components per point: {shape}")
        ok = _print_complex_report(report) and ok
        payload[report.name] = report.to_dict()
        payload["components_per_point"] = [_component_shape(s) for s in halfway.spaces]
    else:
        result = derive_elasticity(args.degree)
        shape = " -> ".join(str(_component_shape(s)) for s in result.halfway.spaces)
        print(f"halfway components per point: {shape}")
        print("reduced dimensions: "
              + " -> ".join(str(s.dim) for s in result.reduced.spaces))
        print("stage proportionality factors vs hand-coded operators: "
              + ", ".join(str(f) for f in result.stage_factors))
        ok = _print_complex_report(result.reduced_report) and ok
        if not result.factors_ok:
            print("FAIL: a reduced stage is not proportional to its "
                  "hand-coded counterpart")
            ok = False
        if not result.defects_preserved:
            print("FAIL: exactness defects changed under reduction")
            ok = False
        payload = result.to_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_ricci(args) -> int:
    entries = _load_field(args.metric, "sym")
    metric = PolyMetric(entries)
    values = pointwise_curvature(metric, args.point)
    print("point: (" + ", ".join(str(c) for c in args.point) + ")")
    print("ricci: " + _rows(values.ricci))
    print("scalar: " + str(values.scalar))
    print("einstein: " + _rows(values.einstein))
    return EXIT_OK


# -- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="strainkit",
                     description="Exact tensor calculus for linear elasticity.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[], help="run identity-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--degree", type=_int_at_least("degree", MIN_DEGREE), default=3)
    p.add_argument("--trials", type=_int_at_least("trials", MIN_TRIALS), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write a machine-readable report")
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    p = sub.add_parser("reconstruct",
                       help="integrate a compatible strain to a displacement")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="JSON file holding a 'sym' strain field")
    p.add_argument("--output", required=True, metavar="PATH")
    p.add_argument("--normalize", action="store_true",
                   help="fix the gauge: zero displacement and rotation at 0")
    p.add_argument("--verify-output", action="store_true",
                   help="re-derive the strain from the output and compare")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("linearize",
                       help="first-order Einstein tensor of delta + strain")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--output", required=True, metavar="PATH")
    p.add_argument("--check", action="store_true",
                   help="compare against the compatibility tensor")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("complex", help="exactness and derivation reports")
    p.add_argument("--degree", type=_int_at_least("degree", MIN_COMPLEX_DEGREE),
                   default=3)
    p.add_argument("--derive", choices=("none", "halfway", "elasticity"),
                   default="none")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write a machine-readable report")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("ricci", help="exact curvature of a metric at a point")
    p.add_argument("--metric", required=True, metavar="PATH",
                   help="JSON file holding the metric as a 'sym' field")
    p.add_argument("--point", required=True, type=_point,
                   help="evaluation point 'a,b,c' with rational entries")
    p.set_defaults(func=cmd_ricci)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FieldFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CompatibilityError, SingularMetricError, SingularBlockError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
