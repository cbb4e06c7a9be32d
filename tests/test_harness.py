"""Benchmark driver: report fields, orders, CSV/JSON serialization."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from twogrid import harness
from twogrid.errors import BadParams
from twogrid.grid import Grid1D, Grid2DLine, Grid2DTube
from twogrid.harness import (CaseReport, convergence_study, reference_errors,
                             run_case, to_csv, to_json)
from twogrid.problems import ProblemSpec, make_problem

CSV_HEADER = "N,r,lambda,unknowns,err_coarse,err_fine,order_coarse,order_fine"


def report(**kw):
    base = dict(problem="piecewise_kappa_1d", N=10, r=2, lam=2.0,
                hf_mode="ratio", unknowns=44, err_coarse=1.0e-5,
                err_fine=2.0e-5)
    base.update(kw)
    return CaseReport(**base)


def test_csv_header_and_row_formatting():
    rep = report(err_coarse=1.2345678e-5, err_fine=float("nan"),
                 order_coarse=None, order_fine=3.25)
    lines = to_csv([rep]).splitlines()
    assert lines[0] == CSV_HEADER
    # %.6g floats, empty fields for None and NaN
    assert lines[1] == "10,2,2,44,1.23457e-05,,,3.25"


def test_csv_empty_report_list_is_header_only():
    assert to_csv([]) == CSV_HEADER + "\n"


def test_order_formula():
    assert harness._order(1e-2, 1e-4, 10.0) == pytest.approx(2.0, rel=1e-12)
    assert harness._order(8e-3, 1e-3, 2.0) == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("args", [
    (0.0, 1e-3, 2.0),
    (1e-3, 0.0, 2.0),
    (-1e-3, 1e-3, 2.0),
    (1e-3, 1e-4, 1.0),
    (float("nan"), 1e-3, 2.0),
])
def test_order_undefined_cases(args):
    assert harness._order(*args) is None


def test_run_case_report_fields():
    prob = make_problem("piecewise_kappa_1d")
    rep = run_case(prob, 10, 8, lam=2.0)
    assert rep.problem == "piecewise_kappa_1d"
    assert (rep.N, rep.r, rep.lam, rep.hf_mode) == (10, 8, 2.0, "ratio")
    # frozen from the hand-counted grid: 46 nodes, 2 of them boundary
    assert rep.unknowns == 44
    assert 0 < rep.err_coarse < 1e-4
    assert 0 < rep.err_fine < 1e-4
    assert rep.wall_time > 0
    assert rep.m_matrix["sign_ok"] is True
    assert rep.m_matrix["row_sum_ok"] is True
    assert rep.order_coarse is None and rep.order_fine is None


def test_run_case_check_operator_toggle():
    prob = make_problem("piecewise_kappa_1d")
    rep = run_case(prob, 10, 4, check_operator=False)
    assert rep.m_matrix is None


def test_run_case_rejects_non_numeric_lam():
    with pytest.raises(BadParams, match="half-width"):
        run_case(make_problem("peskin_circle"), 40, 2, lam="2")


def test_run_case_is_deterministic():
    prob = make_problem("piecewise_kappa_1d")
    a = run_case(prob, 10, 4)
    b = run_case(prob, 10, 4)
    assert a.err_coarse == b.err_coarse
    assert a.err_fine == b.err_fine
    assert a.unknowns == b.unknowns
    assert a.m_matrix == b.m_matrix


def test_run_case_detail_namespace():
    prob = make_problem("piecewise_kappa_1d")
    out = run_case(prob, 10, 4, detail=True)
    assert out.solution.shape[0] == out.grid.x.size
    assert out.system.matrix.shape == (out.grid.x.size,) * 2
    plain = run_case(prob, 10, 4)
    assert out.report.err_coarse == plain.err_coarse
    assert out.report.err_fine == plain.err_fine


def test_run_case_h2_mode_reports_effective_ratio():
    # h = 1/10, h_f = h**2, so the recorded ratio is 1/h = 10
    prob = make_problem("piecewise_kappa_1d")
    rep = run_case(prob, 10, 2, hf_mode="h2")
    assert rep.hf_mode == "h2"
    assert rep.r == 10


@pytest.mark.parametrize("name, N, r, hf_mode, expect", [
    ("line_interface_2d", 12, 2, "h2", 12),
    ("peskin_circle", 20, 2, "ratio", 2),
])
def test_run_case_reports_ratio_of_spacings(name, N, r, hf_mode, expect):
    rep = run_case(make_problem(name), N, r, hf_mode=hf_mode,
                   check_operator=False)
    assert rep.r == expect


def test_build_grid_follows_the_geometry():
    # a 1D domain, an interface curve or the line x = alpha picks the mesh
    cases = {"piecewise_kappa_1d": Grid1D, "boundary_layer_1d": Grid1D,
             "peskin_circle": Grid2DTube, "line_interface_2d": Grid2DLine}
    for name, grid_type in cases.items():
        grid = harness.build_grid(make_problem(name), 20, 2)
        assert type(grid) is grid_type, name


def _solution_parts(u):
    # a longdouble vector's padding bytes are uninitialized, so compare its
    # float64 part and the remainder instead of its raw bytes
    head = u.astype(np.float64)
    return head.tobytes(), (u - head).astype(np.float64).tobytes()


@pytest.mark.parametrize("name, N", [
    ("line_interface_2d", 12),
    ("line_interface_2d", 42),      # the longdouble path
    ("piecewise_kappa_1d", 10),
    ("boundary_layer_1d", 10),
])
def test_h2_mode_is_ratio_n(name, N):
    # h_f = h**2 on the unit interval is r = N: build_grid picks it in
    # place of the given r, and every array that follows is the same
    prob = make_problem(name)
    h2 = run_case(prob, N, 2, hf_mode="h2", detail=True)
    ratio = run_case(prob, N, N, detail=True)
    for key in ("x", "y", "tags", "side"):
        assert (getattr(h2.grid, key).tobytes()
                == getattr(ratio.grid, key).tobytes()), key
    a, b = h2.system.matrix, ratio.system.matrix
    for key in ("data", "indices", "indptr"):
        assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
    assert h2.system.rhs.tobytes() == ratio.system.rhs.tobytes()
    assert h2.solution.dtype == ratio.solution.dtype
    assert _solution_parts(h2.solution) == _solution_parts(ratio.solution)
    assert (h2.report.err_coarse, h2.report.err_fine, h2.report.r) == (
        ratio.report.err_coarse, ratio.report.err_fine, N)
    if N == 42:
        assert h2.solution.dtype == np.longdouble


def test_build_grid_rejects_what_h2_cannot_mean():
    piecewise = make_problem("piecewise_kappa_1d")
    with pytest.raises(BadParams, match="unknown hf_mode"):
        harness.build_grid(piecewise, 10, 2, hf_mode="cubed")
    # a tube grid takes a ratio
    with pytest.raises(BadParams, match="1D and line"):
        harness.build_grid(make_problem("peskin_circle"), 10, 2,
                           hf_mode="h2")
    # h = 1.3 / 10 does not divide into h**2 steps: N / (b - a) = 7.69
    with pytest.raises(BadParams, match="whole number"):
        harness.build_grid(replace(piecewise, domain=(0.0, 1.3)), 10, 2,
                           hf_mode="h2")
    with pytest.raises(BadParams, match="integer"):
        harness.build_grid(piecewise, "10", 2, hf_mode="h2")


def test_convergence_study_attaches_orders():
    prob = make_problem("piecewise_kappa_1d")
    reps = convergence_study(prob, [(10, 4), (20, 4)])
    assert reps[0].order_coarse is None and reps[0].order_fine is None
    expect_c = harness._order(reps[0].err_coarse, reps[1].err_coarse, 2.0)
    expect_f = harness._order(reps[0].err_fine, reps[1].err_fine, 2.0)
    assert reps[1].order_coarse == pytest.approx(expect_c, rel=1e-12)
    assert reps[1].order_fine == pytest.approx(expect_f, rel=1e-12)


def test_convergence_study_refining_only_the_tube():
    # same N twice: no coarse scale change, fine scale is the r ratio
    prob = make_problem("piecewise_kappa_1d")
    reps = convergence_study(prob, [(10, 2), (10, 8)])
    assert reps[1].order_coarse is None
    expect_f = harness._order(reps[0].err_fine, reps[1].err_fine, 4.0)
    assert reps[1].order_fine == pytest.approx(expect_f, rel=1e-12)


def test_reference_errors_known_values_and_copy():
    ref = reference_errors("peskin_circle")
    assert ref["IB"][20] == pytest.approx(3.614e-1)
    assert ref["IIM"][320] == pytest.approx(1.5672e-5)
    assert "uniform grids" in ref["source"]
    ref["IB"][20] = 0.0
    again = reference_errors("peskin_circle")
    assert again["IB"][20] == pytest.approx(3.614e-1)


def test_reference_errors_missing_problem():
    assert reference_errors("flower") is None


def test_to_json_round_trip_and_reference_block():
    rep = report(problem="peskin_circle", N=40, r=4, err_coarse=5.9e-6,
                 err_fine=1.6e-5, order_coarse=2.1)
    rows = json.loads(to_json([rep]))
    assert len(rows) == 1
    row = rows[0]
    assert row["problem"] == "peskin_circle"
    assert row["lambda"] == 2.0
    assert row["order_fine"] is None
    assert row["reference"]["IB"] == pytest.approx(2.6467e-2)
    assert row["reference"]["IIM"] == pytest.approx(8.3461e-3)
    assert "source" in row["reference"]


def test_to_json_skips_reference_off_table():
    rep = report(problem="peskin_circle", N=30)
    row = json.loads(to_json([rep]))[0]
    assert "reference" not in row
    other = json.loads(to_json([report(problem="flower")]))[0]
    assert "reference" not in other


def test_to_json_nan_errors_become_null():
    rep = report(err_coarse=float("nan"), err_fine=float("nan"))
    row = json.loads(to_json([rep]))[0]
    assert row["err_coarse"] is None
    assert row["err_fine"] is None


def test_to_json_summarizes_operator_check():
    mm = {"sign_ok": True, "row_sum_ok": False,
          "offenders": [{"row": 1, "col": -1, "kind": "row_sum",
                         "value": 0.5}] * 2, "offender_count": 2}
    row = json.loads(to_json([report(m_matrix=mm)]))[0]
    assert row["m_matrix"] == {"sign_ok": True, "row_sum_ok": False,
                               "offender_count": 2}
    bare = json.loads(to_json([report()]))[0]
    assert "m_matrix" not in bare


def test_to_json_counts_every_offender():
    # the centered layer scheme at eps=1e-3 has a negative off-diagonal in
    # 398 interior rows and a positive interior row sum in 399; the list
    # keeps the first 50 of each kind
    rep = run_case(make_problem("boundary_layer_1d"), 400, 2)
    assert len(rep.m_matrix["offenders"]) == 100
    row = json.loads(to_json([rep]))[0]
    assert row["m_matrix"]["offender_count"] == 398 + 399


def test_boundary_layer_converges_in_h2_mode():
    # with h_f = h**2 the layer zone resolves eps = 1e-3 from N = 20: the
    # fine error falls 0.387 -> 0.0243 -> 1.50e-3, second order in h_f,
    # and the coarse error stays at or below 1.1e-9
    reports = convergence_study(make_problem("boundary_layer_1d"),
                                [(20, 20), (40, 40), (80, 80)],
                                hf_mode="h2")
    assert [rep.r for rep in reports] == [20, 40, 80]
    assert all(rep.order_fine >= 1.9 for rep in reports[1:])
    assert all(rep.err_coarse < 1e-8 for rep in reports)


def test_empty_node_class_reports_nan():
    # a tube wider than the interval leaves no coarse interior node; its
    # error is missing, not zero
    rep = run_case(make_problem("piecewise_kappa_1d"), 10, 2, lam=100)
    assert math.isnan(rep.err_coarse) and rep.err_fine > 0
    assert to_csv([rep]).splitlines()[1].split(",")[4] == ""
    assert json.loads(to_json([rep]))[0]["err_coarse"] is None


def test_run_case_without_exact_solution_reports_nan():
    prob = make_problem("piecewise_kappa_1d")
    blind = ProblemSpec(name=prob.name, domain=prob.domain,
                        f=prob.f, boundary=prob.boundary, exact=None,
                        kappa_minus=prob.kappa_minus,
                        kappa_plus=prob.kappa_plus, jumps=prob.jumps,
                        alpha=prob.alpha)
    rep = run_case(blind, 10, 4)
    assert math.isnan(rep.err_coarse) and math.isnan(rep.err_fine)
