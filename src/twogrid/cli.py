"""Command-line front end.

Four subcommands:

* ``run``: solve one benchmark instance, print or save a one-row report.
* ``study``: run an ``N:r`` refinement schedule and report observed orders.
* ``derive-stencil``: print exact rational coefficients for the transition
  stencils (hanging-node, 1D border, 2D border).
* ``reference``: print the published comparison errors shipped as static
  data (never recomputed here).

Exit status: 0 on success, 2 when the assembled operator violates the
M-matrix sign pattern (or no sign-safe irregular stencil exists), 1 on any
other error, a file that cannot be written among them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import stencils
from .errors import BadParams, SignViolation, TwoGridError
from .grid import dump_grid_json
from .harness import (convergence_study, reference_errors, run_case, to_csv,
                      to_json)
from .problems import make_problem, problem_names


def _fraction(text: str, flag: str) -> Fraction:
    """Parse an exact rational such as ``1/40`` given to ``flag``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"{flag} expects a rational number, got {text!r}") \
            from None


def _real(text: str, flag: str) -> float:
    """Parse ``text`` like :func:`_fraction` and return it as a float."""
    try:
        return float(_fraction(text, flag))
    except OverflowError:
        raise BadParams(f"{flag} is too large for a float, got {text!r}") \
            from None


def _parse_params(pairs) -> dict:
    """``--param key=value`` pairs as a dict of exact rationals; a value
    may be written as a fraction like ``17/30``."""
    params = {}
    for pair in pairs or ():
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not (eq and key):
            raise BadParams(f"--param expects KEY=VALUE, got {pair!r}")
        params[key] = _fraction(value, f"--param {key}")
    return params


def _parse_schedule(text: str):
    schedule = []
    for item in text.split(","):
        n_str, _, r_str = item.strip().partition(":")
        try:
            schedule.append((int(n_str), int(r_str) if r_str else 2))
        except ValueError:
            raise BadParams(f"--schedule expects N:r, got {item!r}") from None
    return schedule


def _write_or_print(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_writable(*paths) -> None:
    """Raise ``OSError`` for an output path that cannot be written, before
    any solve; a file that exists keeps its content, and none is left
    behind."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _add_case_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=problem_names())
    p.add_argument("--lam", default="2",
                   help="tube half-width in coarse cells, may be a fraction "
                        "like 3/2 (default 2)")
    p.add_argument("--hf-mode", choices=("ratio", "h2"), default="ratio",
                   help="fine spacing: h/r, or h**2, which sets r = N on "
                        "the unit interval in place of --r; only 1D and "
                        "line problems accept h2")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="problem parameter, repeatable (e.g. --param "
                        "alpha=17/30, --param kappa_minus=7/2, --param "
                        "eps=1/100)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-check", action="store_true",
                   help="skip the M-matrix verification")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twogrid",
        description="Two-grid composite solver for interface and layer "
                    "benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a single instance")
    _add_case_args(run_p)
    run_p.add_argument("--N", required=True, type=int,
                       help="coarse cells per direction")
    run_p.add_argument("--r", type=int, default=2, help="refinement ratio")
    run_p.add_argument("--dump-grid", metavar="PATH",
                       help="write the node list as JSON")
    run_p.add_argument("--dump-matrix", metavar="PATH",
                       help="write the assembled sparse matrix (MatrixMarket)")

    study_p = sub.add_parser("study", help="run a refinement schedule")
    _add_case_args(study_p)
    study_p.add_argument("--schedule", required=True,
                         help="comma-separated N:r pairs, e.g. 20:2,40:4")

    ref_p = sub.add_parser("reference",
                           help="published comparison errors (static data)")
    ref_p.add_argument("--problem", required=True, choices=problem_names())
    ref_p.add_argument("--out", help="write JSON here instead of stdout")

    der_p = sub.add_parser("derive-stencil",
                           help="exact rational transition coefficients")
    der_p.add_argument("--kind", required=True,
                       choices=("hanging", "border-1d", "border-2d"))
    der_p.add_argument("--r", type=int, help="refinement ratio (hanging)")
    der_p.add_argument("--j", type=int,
                       help="fine offset from the left coarse node (hanging)")
    der_p.add_argument("--h1", help="left spacing (border kinds)")
    der_p.add_argument("--h2", help="right spacing (border kinds)")
    der_p.add_argument("--hy", help="transverse spacing (border-2d)")
    der_p.add_argument("--kappa", default="1", help="diffusion coefficient")
    der_p.add_argument("--K", default="0", help="reaction coefficient")
    der_p.add_argument("--out", help="write JSON here instead of stdout")
    return ap


def _stencil_json(st) -> str:
    def key(k):
        return ",".join(map(str, k)) if isinstance(k, tuple) else str(k)

    return json.dumps({
        "alphas": {key(k): str(v) for k, v in sorted(st.alphas.items())},
        "betas": {key(k): str(v) for k, v in sorted(st.betas.items())},
        "alpha_sum": str(st.alpha_sum()),
        "beta_sum": str(st.beta_sum()),
    }, indent=1)


def _cmd_derive(args) -> int:
    kappa, K = _fraction(args.kappa, "--kappa"), _fraction(args.K, "--K")
    if args.kind == "hanging":
        if args.r is None or args.j is None:
            raise TwoGridError("hanging stencils need --r and --j")
        st = stencils.derive_hanging_coeffs(args.r, args.j, kappa=kappa, K=K)
    elif args.kind == "border-1d":
        if not (args.h1 and args.h2):
            raise TwoGridError("border-1d needs --h1 and --h2")
        st = stencils.border_coeffs_1d(_fraction(args.h1, "--h1"),
                                       _fraction(args.h2, "--h2"), kappa, K)
    else:
        if not (args.h1 and args.h2 and args.hy):
            raise TwoGridError("border-2d needs --h1, --h2 and --hy")
        if kappa != 1 or K != 0:
            raise TwoGridError("border-2d is derived for kappa=1, K=0; "
                               "scale the U-weights by kappa afterwards")
        st = stencils.border_coeffs_2d(
            _fraction(args.h1, "--h1"), _fraction(args.h2, "--h2"),
            _fraction(args.hy, "--hy"))
    _write_or_print(_stencil_json(st), args.out)
    return 0


def _cmd_reference(args) -> int:
    ref = reference_errors(args.problem)
    if ref is None:
        raise TwoGridError(
            f"no published reference data shipped for {args.problem!r}")
    _write_or_print(json.dumps(ref, indent=1), args.out)
    return 0


def _emit_reports(reports, args) -> None:
    text = to_csv(reports) if args.format == "csv" else to_json(reports)
    _write_or_print(text, args.out)


def _cmd_run(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.param))
    _check_writable(args.out, args.dump_grid, args.dump_matrix)
    res = run_case(problem, args.N, args.r, lam=args.lam,
                   hf_mode=args.hf_mode, check_operator=not args.no_check,
                   detail=True)
    if args.dump_grid:
        dump_grid_json(res.grid, args.dump_grid)
    if args.dump_matrix:
        import scipy.io
        with open(args.dump_matrix, "wb") as fh:
            scipy.io.mmwrite(fh, res.system.matrix.tocoo(),
                             symmetry="general")
    _emit_reports([res.report], args)
    mm = res.report.m_matrix
    if mm is not None and not mm["sign_ok"]:
        rows = sorted({o["row"] for o in mm["offenders"]
                       if o["kind"] != "row_sum"})
        print(f"M-matrix sign check failed; offending rows: {rows[:8]}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_study(args) -> int:
    problem = make_problem(args.problem, _parse_params(args.param))
    _check_writable(args.out)
    reports = convergence_study(
        problem, _parse_schedule(args.schedule), lam=args.lam,
        hf_mode=args.hf_mode, check_operator=not args.no_check)
    _emit_reports(reports, args)
    bad = [rep for rep in reports
           if rep.m_matrix is not None and not rep.m_matrix["sign_ok"]]
    if bad:
        print(f"M-matrix sign check failed on {len(bad)} case(s)",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "study"):
            args.lam = _real(args.lam, "--lam")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "reference":
            return _cmd_reference(args)
        return _cmd_derive(args)
    except SignViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TwoGridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
