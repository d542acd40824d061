"""Command line front end: verification suites and report emission.

Exit codes: 0 when every requested check or certificate passes, 1 when a
check fails, 2 for input or configuration errors. All outputs are
deterministic for a fixed command line (reports carry no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bloch, norms, verification
from .errors import (
    DomainError,
    NumericalSearchError,
    PreconditionError,
    SeriesFormatError,
)
from .serialization import _json_text, load_series
from .series import _require_degree_cap

_SCHEMA = "quatregular/1"


def _emit_text(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    try:
        text = _json_text(payload)
    except ValueError as exc:
        raise NumericalSearchError(f"report holds a non-finite number: {exc}") from exc
    _emit_text(text, output)


def _load_input(args) -> "Series":
    f = load_series(args.input)
    _require_degree_cap(f)
    return f


def cmd_verify(args) -> int:
    extra = _load_input(args) if args.input else None
    suites = args.suite or None
    results = verification.run_checks(suites=suites, seed=args.seed,
                                      scale=args.samples / 100.0,
                                      extra_series=extra)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.suite}/{res.name}: margin={res.margin:.3e} "
              f"tol={res.tolerance:.3e} time={res.seconds:.3f}s", file=sys.stderr)
    all_passed = all(res.passed for res in results)
    payload = {
        "schema": _SCHEMA,
        "command": "verify",
        "seed": args.seed,
        "suites": sorted(suites) if suites else sorted(verification.SUITES),
        "passed": all_passed,
        "checks": [res.to_dict() for res in results],
    }
    _emit_json(payload, args.output)
    return 0 if all_passed else 1


def _report(args, payload: dict, passed: bool = True) -> int:
    """Write a series subcommand's report, stamped with the schema, the command
    and the input file; the exit code is 0 when ``passed``, else 1."""
    _emit_json({**payload, "schema": _SCHEMA, "command": args.command, "input": args.input},
               args.output)
    return 0 if passed else 1


def cmd_rho(args) -> int:
    return _report(args, {"rho": bloch.rho_lemma(_load_input(args))})


def cmd_search(args) -> int:
    report = bloch.bl_search(_load_input(args), args.r)
    return _report(args, report.to_dict(), report.diagnostics["rho_bound_ok"])


def cmd_coverage(args) -> int:
    f = _load_input(args)
    rho = args.rho if args.rho is not None else bloch.rho_lemma(f)
    report = bloch.coverage_report(f, rho, samples=args.samples, seed=args.seed)
    return _report(args, report.to_dict(), not report.misses)


def cmd_norm(args) -> int:
    f = _load_input(args)
    if args.r is not None:
        return _report(args, {"kind": "ball", **norms.sup_norm_ball(f, args.r).to_dict()})
    return _report(args, {"kind": "split", **norms.split_norm(f).to_dict()})


def cmd_oset(args) -> int:
    points = bloch.oset_slice_curve(args.rho, args.n)
    lines = ["x,y"]
    lines.extend(f"{x!r},{y!r}" for x, y in points)
    _emit_text("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatregular",
        description="Verification and report tooling for quaternionic power series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="series JSON file "
                       '({"radius": R, "coeffs": [[x0,x1,x2,x3], ...]})')
        p.add_argument("-o", "--output", help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--suite", action="append",
                          choices=sorted(verification.SUITES),
                          help="restrict to one suite (repeatable)")
    p_verify.add_argument("--input", help="optional extra series file to include")
    p_verify.add_argument("--samples", type=int, default=100,
                          help="per-check sample counts, percent of defaults")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("-o", "--output")
    p_verify.set_defaults(func=cmd_verify)

    p_rho = sub.add_parser("rho", help="coverage radius of a normalised series")
    common(p_rho)
    p_rho.set_defaults(func=cmd_rho)

    p_search = sub.add_parser("search", help="constructive coverage search")
    common(p_search)
    p_search.add_argument("--r", type=float, default=0.99,
                          help="working radius in (0, 1), default 0.99")
    p_search.set_defaults(func=cmd_search)

    p_cov = sub.add_parser("coverage", help="attainment certificates on the pinched set")
    common(p_cov)
    p_cov.add_argument("--rho", type=float, default=None,
                       help="pinched set radius (default: derived from the series)")
    p_cov.add_argument("--samples", type=int, default=500,
                       help="number of certified sample points")
    p_cov.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_cov.set_defaults(func=cmd_coverage)

    p_norm = sub.add_parser("norm", help="norm report for a series")
    common(p_norm)
    p_norm.add_argument("--r", type=float, default=None,
                        help="report the uniform norm on the ball of this radius "
                             "instead of the slice-supremum norm")
    p_norm.set_defaults(func=cmd_norm)

    p_oset = sub.add_parser("oset", help="figure-eight boundary curve as CSV")
    p_oset.add_argument("--rho", type=float, required=True)
    p_oset.add_argument("--n", type=int, default=256, help="number of points")
    p_oset.add_argument("-o", "--output")
    p_oset.set_defaults(func=cmd_oset)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SeriesFormatError, PreconditionError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
