"""Benchmark driver: build, assemble, solve, measure, report."""
from __future__ import annotations

import io
import json
import math
import numbers
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from .assembly import assemble
from .errors import BadParams
from .grid import (GridParams, _square, build_line_two_grid_2d,
                   build_tube_two_grid_2d, build_two_grid_1d)
from .linsolve import solve, verify_m_matrix
from .problems import ProblemSpec, exact_error


@dataclass
class CaseReport:
    problem: str
    N: int
    r: int
    lam: float
    hf_mode: str
    unknowns: int
    err_coarse: float
    err_fine: float
    order_coarse: Optional[float] = None
    order_fine: Optional[float] = None
    m_matrix: Optional[dict] = None
    wall_time: float = 0.0


def build_grid(problem: ProblemSpec, N: int, r: int, lam: float = 2.0,
               hf_mode: str = "ratio"):
    """The mesh the problem's geometry asks for: a 1D grid, or a tube
    around ``interface``, or a strip along the line ``x = alpha``.

    ``hf_mode="h2"``, the paper's ``h_f = h**2`` on 1D and line problems,
    sets ``r = N / (b - a)`` on the x-interval (``r = N`` on the unit
    interval) in place of the given ``r``.
    """
    if hf_mode == "h2":
        if problem.interface is not None:
            raise BadParams("hf_mode='h2' is for 1D and line problems")
        if not isinstance(N, numbers.Integral):
            raise BadParams(f"N must be an integer, got {N!r}")
        (a, b), _ = _square(problem.domain)
        ratio = N / (b - a)
        r = round(ratio)
        if r < 2 or abs(ratio - r) > 1e-9 * ratio:
            raise BadParams("h**2 spacing needs N / (b - a) to be a whole "
                            f"number >= 2, got {ratio:.6g}")
    elif hf_mode != "ratio":
        raise BadParams(f"unknown hf_mode {hf_mode!r}")
    params = GridParams(N=N, r=r, lam=lam, domain=problem.domain)
    if problem.dim == 1:
        return build_two_grid_1d(params, problem.alpha)
    if problem.interface is not None:
        return build_tube_two_grid_2d(params, problem.interface)
    return build_line_two_grid_2d(params, problem.alpha)


def run_case(problem: ProblemSpec, N: int, r: int, lam: float = 2.0,
             hf_mode: str = "ratio", check_operator: bool = True,
             detail: bool = False):
    """Solve one benchmark instance and measure errors by node class.

    Returns a :class:`CaseReport`, or a namespace carrying the report plus
    the grid, assembled system and solution vector when ``detail`` is set.
    """
    t0 = time.perf_counter()
    grid = build_grid(problem, N, r, lam, hf_mode)
    system = assemble(grid, problem)
    mm = verify_m_matrix(system) if check_operator else None
    u = solve(system)
    if problem.exact is not None:
        errs = exact_error(problem, grid, u)
    else:
        errs = {"coarse": math.nan, "fine": math.nan}
    report = CaseReport(
        problem=problem.name, N=N, r=round(grid.h / grid.h_f),
        lam=lam, hf_mode=hf_mode,
        unknowns=int((~system.boundary).sum()),
        err_coarse=errs["coarse"], err_fine=errs["fine"],
        m_matrix=mm, wall_time=time.perf_counter() - t0)
    if detail:
        return SimpleNamespace(report=report, grid=grid, system=system,
                               solution=u)
    return report


def _order(e_prev: float, e_cur: float, scale: float) -> Optional[float]:
    if not (e_prev > 0 and e_cur > 0 and scale > 1):
        return None
    return math.log(e_prev / e_cur) / math.log(scale)


def convergence_study(problem: ProblemSpec,
                      schedule: Sequence[Tuple[int, int]],
                      lam: float = 2.0, hf_mode: str = "ratio",
                      check_operator: bool = True) -> List[CaseReport]:
    """Run a refinement schedule of ``(N, r)`` pairs and attach observed
    orders: coarse errors against the coarse spacing, fine errors against
    the fine spacing."""
    reports = []
    for N, r in schedule:
        reports.append(run_case(problem, N, r, lam=lam, hf_mode=hf_mode,
                                check_operator=check_operator))
    for prev, cur in zip(reports, reports[1:]):
        cur.order_coarse = _order(prev.err_coarse, cur.err_coarse,
                                  cur.N / prev.N)
        cur.order_fine = _order(prev.err_fine, cur.err_fine,
                                (cur.N * cur.r) / (prev.N * prev.r))
    return reports


# Published max-norm errors for the circular-interface benchmark, obtained
# with the immersed boundary method and the immersed interface method on a
# uniform N x N grid. Static reference data for comparison output; these are
# literature values and are never recomputed here.
# Provenance: the values are transcribed as published and are not edited.
# The IIM column does not fall steadily with N (2.3908e-3 at N=20, then
# 8.3461e-3 at N=40, 2.4451e-4 at N=80, 6.6573e-4 at N=160), so it is not a
# convergence sequence to fit orders to.
_REFERENCE_ERRORS = {
    "peskin_circle": {
        "source": "published results, immersed boundary (IB) and immersed "
                  "interface (IIM) methods on uniform grids",
        "IB": {20: 3.614e-1, 40: 2.6467e-2, 80: 1.3204e-2,
               160: 6.6847e-3, 320: 3.3393e-3},
        "IIM": {20: 2.3908e-3, 40: 8.3461e-3, 80: 2.4451e-4,
                160: 6.6573e-4, 320: 1.5672e-5},
    },
}


def reference_errors(problem: str) -> Optional[dict]:
    """Published comparison errors for ``problem``, or None.

    Keys besides ``source`` map method names to ``{N: max_error}`` tables.
    """
    ref = _REFERENCE_ERRORS.get(problem)
    if ref is None:
        return None
    return {k: dict(v) if isinstance(v, dict) else v for k, v in ref.items()}


_CSV_COLUMNS = ("N", "r", "lambda", "unknowns", "err_coarse", "err_fine",
                "order_coarse", "order_fine")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6g}"
    return str(value)


def to_csv(reports: Sequence[CaseReport]) -> str:
    out = io.StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for rep in reports:
        row = (rep.N, rep.r, rep.lam, rep.unknowns, rep.err_coarse,
               rep.err_fine, rep.order_coarse, rep.order_fine)
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def to_json(reports: Sequence[CaseReport]) -> str:
    def clean(rep: CaseReport) -> dict:
        d = {
            "problem": rep.problem, "N": rep.N, "r": rep.r,
            "lambda": rep.lam, "hf_mode": rep.hf_mode,
            "unknowns": rep.unknowns,
            "err_coarse": rep.err_coarse, "err_fine": rep.err_fine,
            "order_coarse": rep.order_coarse, "order_fine": rep.order_fine,
            "wall_time": round(rep.wall_time, 4),
        }
        if rep.m_matrix is not None:
            d["m_matrix"] = {"sign_ok": rep.m_matrix["sign_ok"],
                             "row_sum_ok": rep.m_matrix["row_sum_ok"],
                             "offender_count": rep.m_matrix["offender_count"]}
        ref = _REFERENCE_ERRORS.get(rep.problem)
        if ref is not None:
            row = {method: table[rep.N] for method, table in ref.items()
                   if isinstance(table, dict) and rep.N in table}
            if row:
                row["source"] = ref["source"]
                d["reference"] = row
        for k, v in list(d.items()):
            if isinstance(v, float) and math.isnan(v):
                d[k] = None
        return d

    return json.dumps([clean(r) for r in reports], indent=1)
