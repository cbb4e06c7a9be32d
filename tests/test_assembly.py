"""Assembly: row contents against the stencil generators, invariants."""
import math
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq

from derivation import eliminate_hanging
from twogrid import iim, linsolve, problems, stencils
from twogrid.assembly import _Builder, assemble
from twogrid.errors import (BadParams, MissingNeighbor, MultipleCrossings,
                            NonConvergence, SignViolation, TubeTooWide,
                            TwoGridError)
from twogrid.geometry import LevelSet
from twogrid.grid import (Grid2DLine, GridParams, NodeTag,
                          build_line_two_grid_2d, build_tube_two_grid_2d,
                          build_two_grid_1d)
from twogrid.harness import build_grid, run_case
from twogrid.iim import (_RING2, IrregularNodes, JumpData,
                         iim_1d_irregular, iim_discontinuous_stencil_2d,
                         singular_source_stencil_2d)
from twogrid.problems import ProblemSpec


def stub_1d(f, kappa=(1.0, 1.0), alpha=0.55, jumps=None, K=0.0,
            boundary=lambda x, y, side: 0.0 * x):
    return ProblemSpec(name="stub", domain=(0.0, 1.0), f=f, boundary=boundary,
                       kappa_minus=kappa[0], kappa_plus=kappa[1], K=K,
                       jumps=jumps or JumpData(), alpha=alpha)


def row_dict(system, i):
    m = system.matrix.getrow(i)
    return dict(zip(m.indices.tolist(), m.data.tolist()))


def test_constant_state_is_in_the_kernel_split():
    # with f = 0 and zero jumps every interior row annihilates a constant
    # vector, so A c = b when the boundary holds the same constant
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55)
    prob = stub_1d(lambda x, y, s: 0.0 * x, kappa=(2.0, 5.0),
                   boundary=lambda x, y, side: 3.7 + 0.0 * x)
    sys_ = assemble(g, prob)
    resid = sys_.matrix @ np.full(g.n, 3.7) - sys_.rhs
    assert np.abs(resid).max() < 1e-8


def test_boundary_rows_are_identity():
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    sys_ = assemble(g, stub_1d(lambda x, y, s: 0.0 * x))
    for i in np.nonzero(sys_.boundary)[0]:
        assert row_dict(sys_, i) == {int(i): 1.0}


def test_assembly_is_deterministic():
    prob = problems.make_problem("peskin_circle", {})
    g = build_tube_two_grid_2d(
        GridParams(N=20, r=2, lam=2.0, domain=(-1.0, 1.0)), prob.interface)
    a = assemble(g, prob)
    b = assemble(g, prob)
    assert (a.matrix != b.matrix).nnz == 0
    assert (a.matrix.data == b.matrix.data).all()
    assert (a.rhs == b.rhs).all()


def test_rhs_is_linear_in_f():
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55)
    one = assemble(g, stub_1d(lambda x, y, s: np.sin(3.0 * x)))
    two = assemble(g, stub_1d(lambda x, y, s: 2.0 * np.sin(3.0 * x)))
    assert (one.matrix != two.matrix).nnz == 0
    assert two.rhs == pytest.approx(2.0 * one.rhs)


def test_1d_rows_match_generators():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=prob.alpha)
    sys_ = assemble(g, prob)
    # a coarse node on the minus side carries the compact scheme, the
    # border form at equal spacings
    i = int(np.nonzero(g.tags == NodeTag.COARSE_REGULAR)[0][0])
    st = stencils.border_coeffs_1d(g.h, g.h, prob.kappa_minus, 0.0)
    got = row_dict(sys_, i)
    for off, a in st.alphas.items():
        assert got[i + off] == pytest.approx(float(a))
    assert sys_.rhs[i] == pytest.approx(
        sum(float(bw) * prob.f(g.x[i + off], 0.0, -1)
            for off, bw in st.betas.items()))
    # border rows use the two local spacings
    ib = int(np.nonzero(g.tags == NodeTag.BORDER)[0][0])
    stb = stencils.border_coeffs_1d(float(g.x[ib] - g.x[ib - 1]),
                                    float(g.x[ib + 1] - g.x[ib]),
                                    prob.kappa_minus, 0.0)
    gotb = row_dict(sys_, ib)
    for off, a in stb.alphas.items():
        assert gotb[ib + off] == pytest.approx(float(a))


def test_1d_layer_uses_centered_scheme():
    prob = problems.make_problem("boundary_layer_1d", {})
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=3.0), alpha=None)
    sys_ = assemble(g, prob)
    i = 2  # interior coarse node, uniform spacing h
    st = stencils.centered_nonuniform_1d(prob.kappa_plus, prob.conv, prob.K,
                                         g.h, g.h)
    got = row_dict(sys_, i)
    for off, a in st.alphas.items():
        assert got[i + off] == pytest.approx(float(a))
    assert sys_.rhs[i] == pytest.approx(float(prob.f(g.x[i], 0.0, 1)))


def test_line_coarse_row_is_nine_point():
    prob = problems.make_problem("line_interface_2d", {})
    g = build_line_two_grid_2d(GridParams(N=12, r=2, lam=2.0), prob.alpha)
    sys_ = assemble(g, prob)
    cols = g.cols
    c = int(np.nonzero(cols.tags == NodeTag.COARSE_REGULAR)[0][0])
    i = 3 * g.ncol + c
    st = stencils.border_coeffs_2d(g.h, g.h, g.h)
    got = row_dict(sys_, i)
    assert len(got) == 9
    for (dx, dy), a in st.alphas.items():
        assert got[(3 + dy) * g.ncol + c + dx] == pytest.approx(
            float(a) * prob.kappa_minus)


def test_line_fine_row_is_mixed_strip():
    prob = problems.make_problem("line_interface_2d", {})
    g = build_line_two_grid_2d(GridParams(N=6, r=4, lam=2.0), prob.alpha)
    sys_ = assemble(g, prob)
    cols = g.cols
    fine = np.nonzero(cols.tags == NodeTag.FINE_REGULAR)[0]
    c = int(fine[0])
    side = -1 if cols.x[c] <= g.alpha else 1
    kc = prob.kappa_minus if side < 0 else prob.kappa_plus
    st = stencils.strip_mixed_order_2d(g.h_f, g.h_y, kappa=kc)
    i = 2 * g.ncol + c
    got = row_dict(sys_, i)
    for (dx, dy), a in st.alphas.items():
        assert got[(2 + dy) * g.ncol + c + dx] == pytest.approx(float(a))


def test_tube_rows_match_generators():
    prob = problems.make_problem("peskin_circle", {})
    g = build_tube_two_grid_2d(
        GridParams(N=20, r=2, lam=2.0, domain=(-1.0, 1.0)), prob.interface)
    sys_ = assemble(g, prob)

    # coarse row: nine-point at stride r, kappa from the node's side
    i = int(np.nonzero(g.tags == NodeTag.COARSE_REGULAR)[0][0])
    kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
    st = stencils.border_coeffs_2d(g.h, g.h, g.h)
    got = row_dict(sys_, i)
    for (dx, dy), a in st.alphas.items():
        j = int(g.id_of(int(g.codes[i]) + (dy * g.W + dx) * g.r)[0])
        assert got[j] == pytest.approx(float(a) * kc)

    # fine row: plain five-point over h_f
    i = int(np.nonzero(g.tags == NodeTag.FINE_REGULAR)[0][0])
    kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
    got = row_dict(sys_, i)
    assert got[int(i)] == pytest.approx(-4.0 * kc / g.h_f**2)
    for delta in (1, -1, g.W, -g.W):
        j = int(g.id_of(int(g.codes[i]) + delta)[0])
        assert got[j] == pytest.approx(kc / g.h_f**2)

    # hanging row: table coefficients scaled by kappa / h^2, axis-mapped
    hidx = np.nonzero(g.tags == NodeTag.HANGING)[0]
    for i in hidx[:8]:
        jj = int(g.hang_j[i])
        st = stencils.hanging_coeffs(g.r, jj)
        kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
        flip = g.hang_axis[i] == 1
        got = row_dict(sys_, int(i))
        for (kx, ky), a in st.alphas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            j = int(g.id_of(int(g.codes[i]) + dy * g.W + dx)[0])
            assert got[j] == pytest.approx(float(a) * kc / g.h**2)


def test_tube_without_interface_folds_irregular_nodes():
    # layer problems carry no jump data: former irregular nodes join the
    # compact fine scheme, except concave patch corners which stay five-point
    prob = problems.make_problem("internal_layer", {})
    g = build_tube_two_grid_2d(
        GridParams(N=40, r=2, lam=2.0, domain=prob.domain), prob.interface)
    sys_ = assemble(g, prob)
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    assert len(irr)
    sizes = {len(row_dict(sys_, int(i))) for i in irr}
    assert sizes <= {5, 9}
    assert 9 in sizes


def test_2d_rejects_reaction_term():
    prob = problems.make_problem("line_interface_2d", {})
    with pytest.raises(BadParams, match="only K == 0"):
        ProblemSpec(name="bad", domain=prob.domain,
                    f=prob.f, boundary=prob.boundary, K=1.0,
                    kappa_minus=1.0, kappa_plus=1.0, jumps=JumpData(),
                    alpha=prob.alpha)


def test_tube_rejects_reaction_term():
    with pytest.raises(BadParams, match="only K == 0"):
        replace(problems.make_problem("peskin_circle"), K=1.0)


def test_assemble_rejects_an_unknown_grid_type():
    with pytest.raises(BadParams, match="unknown grid type SimpleNamespace"):
        assemble(SimpleNamespace(n=3), problems.make_problem("peskin_circle"))


def layer_with_source_at(eps):
    """The internal layer problem with its closed-form source written out
    at ``eps``, which ``make_problem`` rejects once that source overflows."""
    def f(x, y, side):
        sg = x * x + y * y + 0.75
        r2 = sg - 0.75
        s = (np.sqrt(sg) - 1.0) / eps
        lap_s = (2.0 / np.sqrt(sg) - r2 / sg**1.5) / eps
        grad_s2 = r2 / (eps * eps * sg)
        return lap_s / (1.0 + s * s) - 2.0 * s * grad_s2 / (1.0 + s * s) ** 2

    return replace(problems.make_problem("internal_layer"), f=f)


@pytest.mark.parametrize("eps", [1e-300, 1e-150])
def test_assemble_rejects_a_non_finite_right_side(monkeypatch, eps):
    # at these eps the layer's source overflows to inf or NaN at most
    # nodes; assembly names the first such node before anything is factored
    def no_factor(*args, **kwargs):
        raise AssertionError("a system with a non-finite right side was "
                             "factored")

    monkeypatch.setattr(linsolve.spla, "splu", no_factor)
    prob = layer_with_source_at(eps)
    g = build_grid(prob, 20, 2)
    with np.errstate(all="ignore"), pytest.raises(BadParams) as info:
        run_case(prob, 20, 2)
    msg = str(info.value)
    m = re.fullmatch(r"internal_layer: the right side is not finite at "
                     r"node (\d+) \(x=(\S+), y=(\S+)\)", msg)
    assert m, msg
    i = int(m.group(1))
    assert (float(m.group(2)), float(m.group(3))) == pytest.approx(
        (g.x[i], g.y[i]), abs=1e-6)


@pytest.mark.parametrize("params, what", [
    ({"kappa_minus": 1e308}, "a matrix entry"),
    ({"kappa_plus": 1e308}, "a matrix entry"),
    ({"kappa_minus": 1e308, "kappa_plus": 1e308}, "the right side"),
], ids=["minus", "plus", "both"])
def test_assemble_rejects_a_non_finite_matrix_entry(monkeypatch, params,
                                                    what):
    # a kappa of 1e308 overflows its side's weights to inf, which once
    # ended in a singular factor; assembly names the first row that holds
    # one (with both kappas that large the interface correction is NaN
    # first) before anything is factored
    def no_factor(*args, **kwargs):
        raise AssertionError("a system with a non-finite entry was factored")

    monkeypatch.setattr(linsolve.spla, "splu", no_factor)
    prob = problems.make_problem("piecewise_kappa_1d", params)
    g = build_grid(prob, 10, 8)
    with np.errstate(all="ignore"), pytest.raises(BadParams) as info:
        run_case(prob, 10, 8)
    msg = str(info.value)
    m = re.fullmatch(rf"piecewise_kappa_1d: {what} is not finite at node "
                     r"(\d+) \(x=(\S+), y=0\)", msg)
    assert m, msg
    i = int(m.group(1))
    assert float(m.group(2)) == pytest.approx(g.x[i], abs=1e-6)
    if len(params) == 1:
        # every interior row on the large kappa's side is inf; the first
        side = -1 if "kappa_minus" in params else 1
        assert i == np.flatnonzero((g.tags != NodeTag.BOUNDARY)
                                   & (g.side == side)).min()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [
    {"kappa_minus": 1e308}, {"kappa_plus": 1e308},
    {"kappa_minus": 1e308, "kappa_plus": 1e308},
], ids=["minus", "plus", "both"])
def test_an_overflowing_kappa_is_bad_params_without_a_warning(params):
    # with warnings as errors and numpy's default error state, the
    # overflow inside the row writers once ended in a RuntimeWarning
    prob = problems.make_problem("piecewise_kappa_1d", params)
    with pytest.raises(BadParams, match="is not finite at node"):
        run_case(prob, 10, 8)


@pytest.mark.parametrize("name, params, N, r, lam, hf_mode, ordered", [
    ("internal_layer", {}, 40, 3, 4.0, "ratio", True),
    ("peskin_circle", {}, 40, 4, 2.0, "ratio", False),
    ("flower", {"kappa_minus": 50.0, "kappa_plus": 1.0}, 40, 2, 2.0,
     "ratio", False),
    ("line_interface_2d", {}, 12, 2, 2.0, "h2", False),
    ("piecewise_kappa_1d", {}, 10, 8, 2.0, "ratio", False),
    ("boundary_layer_1d", {}, 10, 2, 2.0, "ratio", False),
])
def test_only_tubes_without_jumps_carry_a_dissection_order(
        name, params, N, r, lam, hf_mode, ordered):
    prob = problems.make_problem(name, params)
    grid = build_grid(prob, N, r, lam, hf_mode)
    system = assemble(grid, prob)
    if ordered:
        assert np.array_equal(system.order, grid.dissection_order())
    else:
        assert system.order is None


def test_strip_rejects_oblong_coarse_cells():
    prob = replace(problems.make_problem("line_interface_2d"),
                   domain=((0.0, 1.0), (0.0, 2.0)))
    g = build_grid(prob, 10, 2)
    with pytest.raises(BadParams, match="need square cells"):
        assemble(g, prob)


def test_no_sign_feasible_fitted_stencil():
    # a one-cell tube around the flower leaves one fine node without a
    # monotone stencil on all of its 5x5 ring
    prob = problems.make_problem("flower")
    g = build_grid(prob, 10, 2, lam=1.0)
    with pytest.raises(SignViolation, match=r"at \(-0\.5,-0\.1\)"):
        assemble(g, prob)


@pytest.mark.parametrize("name, N, r", [("piecewise_kappa_1d", 10, 2),
                                         ("line_interface_2d", 12, 2),
                                         ("peskin_circle", 20, 2)])
def test_assemble_writes_dirichlet_rows(name, N, r):
    # every boundary row is its identity entry with g(x, y) on the right,
    # and only boundary rows take g: the interior right sides are those of
    # the same problem with g = 0
    prob = problems.make_problem(name)
    g = build_grid(prob, N, r)
    bnd = np.nonzero(g.tags == NodeTag.BOUNDARY)[0]
    sys_ = assemble(g, prob)
    assert (sys_.boundary == (g.tags == NodeTag.BOUNDARY)).all()
    assert len(bnd)
    assert (sys_.rhs[bnd]
            == prob.boundary(g.x[bnd], g.y[bnd], g.side[bnd])).all()
    for i in bnd:
        assert row_dict(sys_, i) == {int(i): 1.0}
    zero = assemble(g, replace(prob, boundary=lambda x, y, side: 0.0 * x))
    assert (zero.rhs[bnd] == 0.0).all()
    assert (zero.rhs[~sys_.boundary] == sys_.rhs[~sys_.boundary]).all()
    assert (zero.matrix != sys_.matrix).nnz == 0


def test_builder_rejects_missing_neighbor():
    # a batched lookup marks a missing neighbour with column -1
    b = _Builder(4)
    b.add([0, 1], [0, -1], [1.0, 2.0])
    with pytest.raises(MissingNeighbor):
        b.finish()


def reference_pair(cols, prob):
    """Fitted stencils of the two 1D nodes flanking the interface point,
    keyed by node index."""
    j = int(np.nonzero(cols.x <= cols.alpha)[0][-1])
    return dict(zip((j, j + 1), iim_1d_irregular(
        prob.kappa_minus, prob.kappa_plus, cols.alpha, float(cols.x[j]),
        cols.h_f, prob.jumps, float(cols.x[j + 1]))))


def exact_row(entries, centre, target=0.0):
    """The row ``{column: value}`` as assembly stores it, rounded one row
    at a time: every off-diagonal on the power-of-two grid of twice the
    spacing of their magnitude sum, and the diagonal, at column
    ``centre``, ``target`` minus their sum, which is then exact. An entry
    whose given value is exactly 0.0 is not stored."""
    q = 2 * math.ulp(math.fsum(abs(v) for c, v in entries.items()
                               if c != centre))
    out = {c: round(v / q) * q for c, v in entries.items() if c != centre}
    out[centre] = target - math.fsum(out.values())
    return {c: v for c, v in out.items() if entries[c] != 0.0}


def reference_1d_rows(g, prob):
    """Interior rows built node by node, one scalar ``f`` call per right-side
    weight: ``{row: (entries, rhs)}`` with ``entries`` as ``{column:
    value}``."""
    x, tags, side, h_f = g.x, g.tags, g.side, g.h_f
    pair_st = reference_pair(g, prob) if g.alpha is not None else {}

    def kappa_of(s):
        return prob.kappa_minus if s < 0 else prob.kappa_plus

    out = {}
    for i in range(g.n):
        t = tags[i]
        if t == NodeTag.BOUNDARY:
            continue
        if prob.jumps is None:
            st = stencils.centered_nonuniform_1d(
                kappa_of(side[i]), prob.conv, prob.K,
                float(x[i] - x[i - 1]), float(x[i + 1] - x[i]))
        elif t in (NodeTag.COARSE_REGULAR, NodeTag.BORDER):
            st = stencils.border_coeffs_1d(
                float(x[i] - x[i - 1]), float(x[i + 1] - x[i]),
                kappa_of(side[i]), prob.K)
        elif t == NodeTag.FINE_REGULAR:
            k = kappa_of(side[i])
            st = stencils.Stencil(
                alphas={-1: k / h_f**2, 0: -2.0 * k / h_f**2, 1: k / h_f**2},
                betas={0: 1.0})
        else:  # FINE_IRREGULAR
            st = pair_st[i]
        entries = exact_row(
            {i + off: float(a) for off, a in st.alphas.items()}, i, prob.K)
        acc = st.correction
        for off, bw in st.betas.items():
            j = i + off
            acc += float(bw) * prob.f(float(x[j]), 0.0, int(side[j]))
        out[i] = (entries, acc)
    return out


def reference_strip_rows(g, prob):
    """Interior rows of a strip grid built column by column, one ``f`` call
    per right-side weight and column; same format as
    :func:`reference_1d_rows`."""
    cols, ncol, h_y = g.cols, g.ncol, g.h_y
    jr = np.arange(1, g.N)
    side_col = np.where(cols.x <= g.alpha, -1, 1)
    pair_st = reference_pair(cols, prob)
    out = {}
    for c in range(1, ncol - 1):
        t = cols.tags[c]
        kc = prob.kappa_minus if side_col[c] < 0 else prob.kappa_plus
        if t in (NodeTag.COARSE_REGULAR, NodeTag.BORDER):
            st = stencils.border_coeffs_2d(
                float(cols.x[c] - cols.x[c - 1]),
                float(cols.x[c + 1] - cols.x[c]), h_y)
            st.alphas = {k: kc * v for k, v in st.alphas.items()}
        elif t == NodeTag.FINE_REGULAR:
            st = stencils.strip_mixed_order_2d(g.h_f, h_y, kappa=kc)
        else:  # FINE_IRREGULAR
            a = pair_st[c].alphas
            st = stencils.strip_mixed_order_2d(
                g.h_f, h_y, xgamma=(a[-1], a[0], a[1]),
                correction=pair_st[c].correction, kappa=kc)
        acc = np.full(len(jr), float(st.correction))
        for (dx, dy), bw in st.betas.items():
            acc += float(bw) * prob.f(float(cols.x[c + dx]),
                                      g.y[(jr + dy) * ncol],
                                      int(side_col[c + dx]))
        for k, row in enumerate(jr):
            i = int(row * ncol + c)
            out[i] = (exact_row({int((row + dy) * ncol + c + dx): float(w)
                                 for (dx, dy), w in st.alphas.items()}, i),
                      acc[k])
    return out


def assert_rows_are_reference(sys_, ref):
    """``ref`` covers every interior row, and each row holds exactly its
    entries and the same right-side bits."""
    assert set(ref) == set(np.nonzero(~sys_.boundary)[0].tolist())
    A = sys_.matrix
    for i, (entries, _) in ref.items():
        lo, hi = A.indptr[i], A.indptr[i + 1]
        assert dict(zip(A.indices[lo:hi].tolist(),
                        A.data[lo:hi].tolist())) == entries
    assert (sys_.rhs[list(ref)].tobytes()
            == np.array([rhs for _, rhs in ref.values()]).tobytes())


def sin_cos_source(x, y, side):
    return np.sin(3.0 * x) * np.cos(2.0 * y) + side


JUMPS = JumpData(w=-0.3, v=0.7)
SMALL_SYSTEMS = {
    "piecewise 10/2": lambda: (
        build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), 17.0 / 30.0),
        problems.make_problem("piecewise_kappa_1d", {})),
    "stub 10/4 K": lambda: (
        build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55),
        stub_1d(sin_cos_source, kappa=(2.0, 5.0), jumps=JUMPS, K=1.5)),
    "layer 10/4": lambda: (
        build_two_grid_1d(GridParams(N=10, r=4, lam=3.0), alpha=None),
        problems.make_problem("boundary_layer_1d", {})),
    "line 12/2": lambda: (
        build_line_two_grid_2d(GridParams(N=12, r=2, lam=2.0), 33.0 / 70.0),
        problems.make_problem("line_interface_2d", {})),
    "line 6/4": lambda: (
        build_line_two_grid_2d(GridParams(N=6, r=4, lam=2.0), 33.0 / 70.0),
        problems.make_problem("line_interface_2d", {})),
    "line h2 12": lambda: (
        build_line_two_grid_2d(GridParams(N=12, r=12, lam=2.0), 33.0 / 70.0),
        problems.make_problem("line_interface_2d", {})),
}


@pytest.mark.parametrize("name", sorted(SMALL_SYSTEMS))
def test_small_rows_match_per_node_reference(name):
    g, prob = SMALL_SYSTEMS[name]()
    ref = (reference_strip_rows if isinstance(g, Grid2DLine)
           else reference_1d_rows)(g, prob)
    assert_rows_are_reference(assemble(g, prob), ref)


def grid_and_problem(name, N, r, lam=2.0, hf_mode="ratio", **params):
    prob = problems.make_problem(name, params)
    return build_grid(prob, N, r, lam, hf_mode), prob


ROW_WRITER_CELLS = {
    "piecewise 10/8": lambda: grid_and_problem("piecewise_kappa_1d", 10, 8),
    "stub 10/4 K": SMALL_SYSTEMS["stub 10/4 K"],
    "layer 10/2": lambda: grid_and_problem("boundary_layer_1d", 10, 2),
    "line h2 12/2": lambda: grid_and_problem("line_interface_2d", 12, 2,
                                             hf_mode="h2"),
    "peskin 40/4": lambda: grid_and_problem("peskin_circle", 40, 4),
    "flower (50,1) 40/2": lambda: grid_and_problem(
        "flower", 40, 2, kappa_minus=50.0, kappa_plus=1.0),
    "internal_layer 40/2": lambda: grid_and_problem("internal_layer", 40, 2,
                                                    lam=4.0),
}


@pytest.mark.parametrize("name", list(ROW_WRITER_CELLS))
def test_interior_rows_sum_exactly_to_K(name):
    # a consistent row of kappa Lap u + K u sums to K (0 in 2D); the stored
    # floats do so exactly on every row writer, fitted rows included
    g, prob = ROW_WRITER_CELLS[name]()
    sys_ = assemble(g, prob)
    A = sys_.matrix
    sums = {math.fsum(A.data[A.indptr[i]:A.indptr[i + 1]].tolist())
            for i in np.flatnonzero(~sys_.boundary)}
    assert sums == {prob.K}


STORED_PATTERN_CELLS = {
    **ROW_WRITER_CELLS,
    "layer 500/2": lambda: grid_and_problem("boundary_layer_1d", 500, 2),
    "flower (50,1) 80/8": lambda: grid_and_problem(
        "flower", 80, 8, kappa_minus=50.0, kappa_plus=1.0),
    "peskin 320/8": lambda: grid_and_problem("peskin_circle", 320, 8),
    "internal_layer 160/8": lambda: grid_and_problem("internal_layer", 160,
                                                     8, lam=4.0),
}


@pytest.mark.parametrize("name", list(STORED_PATTERN_CELLS))
def test_no_exact_zero_weight_is_stored(name):
    # the acceptance cells of every row writer, the large benchmark cells
    # and the 1D layer at h = 0.002, where the centred scheme's right
    # weight is exactly 0.0 on some rows
    g, prob = STORED_PATTERN_CELLS[name]()
    assert np.count_nonzero(assemble(g, prob).matrix.data == 0.0) == 0


def test_dropped_zero_weights_leave_the_layer_report_unchanged():
    # boundary_layer_1d 500/2 stored 1,505 entries, 8 of them 0.0; without
    # those the audit and both errors are what they were
    res = run_case(problems.make_problem("boundary_layer_1d"), 500, 2,
                   detail=True)
    assert res.system.matrix.nnz == 1497
    mm = res.report.m_matrix
    assert (mm["sign_ok"], mm["row_sum_ok"], mm["offender_count"]) == (
        True, False, 499)
    assert (res.report.err_coarse, res.report.err_fine) == pytest.approx(
        (0.03677824373756966, 0.08593013997282872), rel=1e-12)


def border_coeffs_2d_one_plus_t(h1, h2, h_y):
    """:func:`stencils.border_coeffs_2d` written as each nine-point weight
    times ``1 + t``, with ``t`` vanishing at equal spacings: the same
    rationals, other floats."""
    s, d, hy2 = h1 + h2, h1 - h2, h_y * h_y
    u1, u2, u12 = hy2 - h1 * h1, hy2 - h2 * h2, hy2 - h1 * h2
    six = 6 * h_y * h_y
    corner, edge = 1 / six, 4 / six
    alphas = {
        (-1, 0): edge * (1 + (3 * u1 + 3 * u12 - u2) / (2 * h1 * s)),
        (0, 0): -20 / six * (1 + (d * d + 5 * u12) / (10 * h1 * h2)),
        (1, 0): edge * (1 + (3 * u2 + 3 * u12 - u1) / (2 * h2 * s)),
    }
    for dj in (-1, 1):
        alphas[(-1, dj)] = corner * (1 + u2 / (h1 * s))
        alphas[(0, dj)] = edge * (1 + (d * d - u12) / (4 * h1 * h2))
        alphas[(1, dj)] = corner * (1 + u1 / (h2 * s))
    betas = {
        (0, 0): (1 + d * d / (4 * h1 * h2)) * 8 / 12,
        (1, 0): (1 - d * (h2 + 2 * h1) / (h2 * s)) / 12,
        (-1, 0): (1 + d * (h1 + 2 * h2) / (h1 * s)) / 12,
        (0, 1): Fraction(1, 12),
        (0, -1): Fraction(1, 12),
    }
    return stencils.Stencil(alphas=alphas, betas=betas)


def test_stored_rows_do_not_depend_on_how_a_weight_is_written(monkeypatch):
    g, prob = grid_and_problem("peskin_circle", 80, 8)
    h = Fraction(1, 7)
    assert (border_coeffs_2d_one_plus_t(h, 2 * h, 3 * h).alphas
            == stencils.border_coeffs_2d(h, 2 * h, 3 * h).alphas)
    assert (border_coeffs_2d_one_plus_t(g.h, g.h, g.h).alphas
            != stencils.border_coeffs_2d(g.h, g.h, g.h).alphas)
    plain = assemble(g, prob)
    monkeypatch.setattr(stencils, "border_coeffs_2d",
                        border_coeffs_2d_one_plus_t)
    other = assemble(g, prob)
    assert other.matrix.data.tobytes() == plain.matrix.data.tobytes()
    assert other.rhs.tobytes() == plain.rhs.tobytes()


@settings(max_examples=100, deadline=None)
@given(alpha=hs.floats(0.01, 0.99), N=hs.integers(4, 40),
       r=hs.integers(2, 16), lam=hs.floats(0.2, 3.0),
       h2=hs.booleans(), strip=hs.booleans(),
       kappa=hs.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.5, 3.0)]),
       K=hs.sampled_from([0.0, -2.0, 1.5]))
# a fitted strip row whose y-weights g0/12 + kappa/h_y**2 cancel to 0.0
@example(alpha=0.5, N=4, r=2, lam=1.0, h2=False, strip=True,
         kappa=(1.5, 3.0), K=0.0)
def test_1d_and_strip_rows_match_per_node_reference(alpha, N, r, lam, h2,
                                                     strip, kappa, K):
    # kappa ratios within 2 keep the fitted pair's denominators clear of
    # zero; where the reference raises, the assembly raises the same error;
    # h2 is the paper's h_f = h**2, which is r = N on the unit interval
    params = GridParams(N=N, r=N if h2 else r, lam=lam)
    if strip:
        g = build_line_two_grid_2d(params, alpha)
        prob = stub_1d(sin_cos_source, kappa=kappa, alpha=alpha, jumps=JUMPS)
        reference = reference_strip_rows
    else:
        g = build_two_grid_1d(params, alpha)
        prob = stub_1d(sin_cos_source, kappa=kappa, alpha=alpha, jumps=JUMPS,
                       K=K)
        reference = reference_1d_rows
    try:
        ref = reference(g, prob)
    except TwoGridError as exc:
        with pytest.raises(type(exc)):
            assemble(g, prob)
        return
    assert_rows_are_reference(assemble(g, prob), ref)


@pytest.mark.parametrize("alpha", [0.97, 0.03])
@pytest.mark.parametrize("name", ["piecewise_kappa_1d", "line_interface_2d"])
def test_pair_in_an_end_fine_cell_keeps_the_dirichlet_node(name, alpha):
    # alpha lies in the tube's last (0.97) or first (0.03) fine cell, next
    # to a Dirichlet node: that node stays a boundary node, and the fine
    # member of the pair alone takes the fitted row
    rep = run_case(problems.make_problem(name, {"alpha": alpha}), 10, 2,
                   lam=1.0, detail=True)
    cols = getattr(rep.grid, "cols", rep.grid)
    irr = np.nonzero(cols.tags == NodeTag.FINE_IRREGULAR)[0]
    j = int(np.nonzero(cols.x <= alpha)[0][-1])
    assert irr.tolist() == [j if alpha > 0.5 else j + 1]
    assert cols.tags[0] == cols.tags[-1] == NodeTag.BOUNDARY
    assert max(rep.report.err_coarse, rep.report.err_fine) < 1e-4


def test_pair_bracket_uses_the_stored_fine_node():
    # with h2 spacing the stored node after the pair is 0.33333333333333337
    # while x[j] + h_f rounds to alpha = 1/3 itself; the bracket check must
    # take the grid's node, or a valid interface point is rejected
    alpha = 1.0 / 3.0
    rep = run_case(problems.make_problem("piecewise_kappa_1d",
                                         {"alpha": alpha}),
                   15, 2, lam=2.0, hf_mode="h2", detail=True)
    x, h_f = rep.grid.x, rep.grid.h_f
    j = int(np.searchsorted(x, alpha, "right")) - 1
    assert x[j] + h_f == alpha < x[j + 1]
    assert max(rep.report.err_coarse, rep.report.err_fine) < 1e-4


def reference_tube_rows(g, prob):
    """Hanging and irregular rows built node by node, with one
    single-element ``id_of`` lookup per stencil offset: ``{row: (entries,
    rhs)}`` with ``entries`` as ``{column: value}``."""
    km, kp = prob.kappa_minus, prob.kappa_plus
    kap = np.where(g.side < 0, km, kp).astype(float)

    def nbr(i, dx, dy):
        return int(g.id_of(g.codes[i] + dy * g.W + dx)[0])

    def f_at(j):
        return prob.f(float(g.x[j]), float(g.y[j]), int(g.side[j]))

    out = {}
    hanging = np.nonzero(g.tags == NodeTag.HANGING)[0]
    # the elimination engine, independent of the closed form, as the oracle
    rows = {j: eliminate_hanging(g.r, j)
            for j in set(g.hang_j[hanging].tolist())}
    for i in hanging:
        st = rows[int(g.hang_j[i])]
        flip = g.hang_axis[i] == 1
        scal = kap[i] / g.h**2
        entries, acc = {}, 0.0
        for (kx, ky), a in st.alphas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            entries[nbr(i, dx, dy)] = float(a) * scal
        for (kx, ky), bw in st.betas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            acc += float(bw) * f_at(nbr(i, dx, dy))
        out[int(i)] = (exact_row(entries, int(i)), acc)
    for i in np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]:
        ids = [nbr(i, dx, dy) for dx, dy in _RING2]
        node = IrregularNodes(
            x=g.x[[i]], y=g.y[[i]], h_f=g.h_f,
            ring_side=np.array([[g.side[j] if j >= 0 else 0 for j in ids]]))
        if km == kp:
            weights, corr = singular_source_stencil_2d(node, g.ls, km,
                                                       prob.jumps, prob.f)
        else:
            weights, corr = iim_discontinuous_stencil_2d(node, g.ls, km, kp,
                                                         prob.jumps, prob.f)
        entries = {j: float(w) for j, w in zip(ids, weights[0]) if w != 0.0}
        out[int(i)] = (exact_row(entries, int(i)), f_at(i) + corr[0])
    return out


@pytest.mark.parametrize("name", ["peskin_circle", "flower"])
@pytest.mark.parametrize("r", [2, 3, 4, 8])
def test_tube_rows_match_per_node_reference(name, r):
    # r=3 is not tabulated, so its hanging rows come from the derivation;
    # N=40 at r=2 because the flower's N=28 r=2 tube has an arm that meets
    # the interface twice
    N = {2: 40, 3: 32, 4: 20, 8: 20}[r]
    prob = problems.make_problem(name, {})
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=prob.domain), prob.interface)
    sys_ = assemble(g, prob)
    ref = reference_tube_rows(g, prob)
    assert ref
    assert {NodeTag(int(g.tags[i])) for i in ref} == {
        NodeTag.HANGING, NodeTag.FINE_IRREGULAR}
    for i, (entries, rhs) in ref.items():
        assert row_dict(sys_, i) == entries
        assert sys_.rhs[i] == pytest.approx(rhs, rel=1e-14, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(shape=hs.one_of(
           hs.tuples(hs.just("peskin_circle"),
                     hs.fixed_dictionaries({"radius": hs.floats(0.2, 0.7)})),
           hs.tuples(hs.just("flower"), hs.fixed_dictionaries({
               "kappa_minus": hs.floats(1.0, 50.0),
               "kappa_plus": hs.floats(1.0, 50.0)}))),
       N=hs.integers(10, 24), r=hs.sampled_from([2, 3, 4, 5, 8]),
       lam=hs.floats(0.5, 3.0))
def test_tube_diagonals_are_negative_or_the_failure_is_typed(shape, N, r,
                                                             lam):
    # every tube node projects onto the interface, so NonConvergence is not
    # an accepted failure
    name, params = shape
    prob = problems.make_problem(name, params)
    try:
        g = build_tube_two_grid_2d(
            GridParams(N=N, r=r, lam=lam, domain=prob.domain),
            prob.interface)
        sys_ = assemble(g, prob)
    except TwoGridError as exc:
        assert not isinstance(exc, NonConvergence), exc
        return
    assert (sys_.matrix.diagonal()[~sys_.boundary] < 0.0).all()


def star_problem(R, modes, kappa, seeded, center=(0.0, 0.0)):
    """A star-shaped interface rho(theta) = R + sum a sin(k theta + p)
    around ``center``, given by its level set alone, with seed samples or
    without."""
    cx, cy = center

    def rho(th):
        return R + sum(a * np.sin(k * th + p) for k, a, p in modes)

    th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    samples = (np.column_stack([cx + rho(th) * np.cos(th),
                                cy + rho(th) * np.sin(th)])
               if seeded else None)
    ls = LevelSet(phi=lambda x, y: (np.hypot(x - cx, y - cy)
                                    - rho(np.arctan2(y - cy, x - cx))),
                  samples=samples)
    return ProblemSpec(
        name="star", domain=((-1.0, 1.0), (-1.0, 1.0)),
        f=lambda x, y, side: np.where(np.asarray(side) < 0, 4.0, 1.0 + x),
        boundary=lambda x, y, side: 0.0 * x, kappa_minus=kappa[0],
        kappa_plus=kappa[1], jumps=JumpData(w=0.5, v=1.0),
        interface=ls)


@settings(max_examples=25, deadline=None)
@given(R=hs.floats(0.3, 0.6),
       modes=hs.lists(hs.tuples(hs.integers(1, 6), hs.floats(-0.08, 0.08),
                                hs.floats(0.0, 2.0 * np.pi)),
                      min_size=1, max_size=3),
       kappa=hs.sampled_from([(1.0, 1.0), (1.0, 10.0), (50.0, 1.0)]),
       seeded=hs.booleans(), N=hs.integers(12, 32), r=hs.integers(2, 3))
def test_star_interfaces_assemble_or_fail_typed(R, modes, kappa, seeded, N,
                                                r):
    # curves known only through phi: every gradient, normal and curvature
    # comes from finite differences
    assert_star_assembles_or_fails_typed(
        star_problem(R, modes, kappa, seeded), N, r)


@settings(max_examples=25, deadline=None)
@given(data=hs.data(),
       kappa=hs.sampled_from([(1.0, 1.0), (1.0, 10.0), (50.0, 1.0)]),
       seeded=hs.booleans(), N=hs.integers(12, 32), r=hs.integers(2, 3))
def test_lattice_centred_stars_assemble_or_fail_typed(data, kappa, seeded, N,
                                                      r):
    # centre and mean radius on the h_f/4 lattice: a round star passes
    # through fine nodes and touches grid lines at its extremes, and a
    # mode of amplitude h_f/4 moves it by a quarter of a fine cell
    q = 2.0 / (N * r) / 4.0
    center = tuple(data.draw(hs.integers(-8, 8)) * q for _ in range(2))
    R = data.draw(hs.integers(int(0.3 / q), int(0.6 / q))) * q
    modes = data.draw(hs.lists(
        hs.tuples(hs.integers(1, 6), hs.integers(-1, 1).map(lambda k: k * q),
                  hs.sampled_from([0.0, 0.5 * np.pi])),
        max_size=2))
    assert_star_assembles_or_fails_typed(
        star_problem(R, modes, kappa, seeded, center), N, r)


def assert_star_assembles_or_fails_typed(prob, N, r):
    """Assemble ``prob`` on the N/r tube: the operator has a negative
    interior diagonal, or the typed error raised holds its claim."""
    params = GridParams(N=N, r=r, lam=2.0, domain=prob.domain)
    try:
        g = build_tube_two_grid_2d(params, prob.interface)
        sys_ = assemble(g, prob)
    except TubeTooWide:
        assert tube_reaches_the_rim(params, prob.interface.phi)
        return
    except MultipleCrossings:
        assert some_arm_crosses_twice(g, prob.interface.phi)
        return
    except TwoGridError:
        return
    assert (sys_.matrix.diagonal()[~sys_.boundary] < 0.0).all()


def tube_reaches_the_rim(params, phi):
    """Whether a coarse node with ``|phi| <= lam*h`` lies within two coarse
    cells of the boundary: the claim of :class:`TubeTooWide`."""
    (a, b), _ = params.domain
    h = (b - a) / params.N
    i = np.arange(params.N + 1)
    I, J = np.meshgrid(i, i, indexing="ij")
    # the grid's inclusive tolerance on |phi| <= lam*h
    near = np.abs(phi(a + I * h, a + J * h)) <= params.lam * h + 1e-12
    rim = np.minimum(np.minimum(I, J), params.N - np.maximum(I, J)) < 2
    return bool((near & rim).any())


def some_arm_crosses_twice(g, phi):
    """Whether phi changes sign at least twice along one arm of a
    fine-irregular node, sampled at 64 equal steps from the node to its
    neighbour: the claim of :class:`MultipleCrossings`."""
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    t = np.linspace(0.0, 1.0, 65)[:, None]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nbr = g.id_of(g.codes[irr] + dy * g.W + dx)
        k = irr[nbr >= 0]
        x = (1.0 - t) * g.x[k] + t * g.x[nbr[nbr >= 0]]
        y = (1.0 - t) * g.y[k] + t * g.y[nbr[nbr >= 0]]
        side = np.where(phi(x, y) <= 0.0, -1, 1)
        if ((side[1:] != side[:-1]).sum(axis=0) >= 2).any():
            return True
    return False


def flower_nodes(km, kp, N, r):
    prob = problems.make_problem("flower", {"kappa_minus": km,
                                            "kappa_plus": kp})
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=prob.domain), prob.interface)
    return prob, g


def test_fitted_stencils_take_one_program_per_block(monkeypatch):
    # each candidate stage fits its nodes in block-diagonal programs of at
    # most 128 nodes, six rows per node, one column per candidate and one
    # scale column per node: the 332 nodes of the 3x3 stage take programs
    # of 128, 128 and 76 nodes; on the (1, 10) tube four nodes have no
    # sign-feasible stencil on the 3x3 block or the 13-point set, and each
    # wider stage takes one more program, never a retry
    import scipy.optimize
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    for (km, kp), wider in (((50.0, 1.0), ()), ((1.0, 10.0), (13, 25))):
        calls.clear()
        prob, g = flower_nodes(km, kp, 40, 2)
        assemble(g, prob)
        assert int((g.tags == NodeTag.FINE_IRREGULAR).sum()) == 332
        assert calls == ([(6 * n, 10 * n) for n in (128, 128, 76)]
                         + [(6 * 4, (size + 1) * 4) for size in wider])


def test_widened_fits_match_single_node_calls():
    # four nodes of this tube have no sign-feasible stencil on the 3x3 block
    # and go on to the wider candidate sets; the batch gives every node the
    # same bits as fitting it alone
    prob, g = flower_nodes(1.0, 10.0, 40, 2)
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    nbrs = np.array([[int(g.id_of(g.codes[i] + dy * g.W + dx)[0])
                      for dx, dy in _RING2] for i in irr])
    ring = np.where(nbrs >= 0, g.side[nbrs], 0)
    nodes = IrregularNodes(x=g.x[irr], y=g.y[irr], h_f=g.h_f, ring_side=ring)
    weights, corr = iim_discontinuous_stencil_2d(
        nodes, g.ls, prob.kappa_minus, prob.kappa_plus, prob.jumps, prob.f)
    outer = [c for c, (dx, dy) in enumerate(_RING2) if max(abs(dx), abs(dy)) > 1]
    assert (weights[:, outer] != 0.0).any(axis=1).sum() == 4
    for k, i in enumerate(irr):
        node = IrregularNodes(x=g.x[[i]], y=g.y[[i]], h_f=g.h_f,
                              ring_side=ring[[k]])
        w1, c1 = iim_discontinuous_stencil_2d(node, g.ls, prob.kappa_minus,
                                              prob.kappa_plus, prob.jumps,
                                              prob.f)
        assert w1.tobytes() == weights[k].tobytes()
        assert c1.tobytes() == corr[[k]].tobytes()


def test_large_stages_split_into_programs_of_at_most_128_nodes(
        monkeypatch):
    # the 3x3 stage of this tube fits 668 nodes: six programs of at most
    # 128 nodes each, and the least-squares re-solve on each node's
    # support gives the bits of one program over the whole stage
    import scipy.optimize
    prob, g = flower_nodes(50.0, 1.0, 80, 2)
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    assert len(irr) == 668
    nbrs = np.array([[int(g.id_of(g.codes[i] + dy * g.W + dx)[0])
                      for dx, dy in _RING2] for i in irr])
    nodes = IrregularNodes(x=g.x[irr], y=g.y[irr], h_f=g.h_f,
                           ring_side=np.where(nbrs >= 0, g.side[nbrs], 0))
    linprog = scipy.optimize.linprog
    rows = []

    def counted(*args, **kwargs):
        rows.append(kwargs["A_eq"].shape[0])
        return linprog(*args, **kwargs)

    def fit():
        return iim_discontinuous_stencil_2d(
            nodes, g.ls, prob.kappa_minus, prob.kappa_plus, prob.jumps, prob.f)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    weights, corr = fit()
    assert rows == [6 * 128] * 5 + [6 * 28]
    monkeypatch.setattr(iim, "_BLOCK_NODES", len(irr))
    whole_w, whole_c = fit()
    assert rows[6:] == [6 * 668]
    assert weights.tobytes() == whole_w.tobytes()
    assert corr.tobytes() == whole_c.tobytes()


@pytest.mark.parametrize("kappas", [(1.0, 10.0), (50.0, 1.0)])
@pytest.mark.parametrize("N, r", [(16, 2), (16, 3), (16, 4), (24, 2), (24, 3),
                                  (32, 2), (36, 2)])
def test_small_flower_tubes_solve(kappas, N, r):
    # petal tips and valleys within these tubes have |1 - kappa d| far from
    # 1, where a projection that leaves the curvature out of its Newton
    # step stalls
    prob = problems.make_problem("flower", {"kappa_minus": kappas[0],
                                            "kappa_plus": kappas[1]})
    rep = run_case(prob, N, r)
    assert rep.m_matrix["sign_ok"]
    assert rep.err_coarse < 1e-2 and rep.err_fine < 1e-2


@pytest.mark.parametrize("kappas", [(1.0, 10.0), (50.0, 1.0)])
def test_flower_28_2_double_crossing_is_real(kappas):
    # arm (1,0) of the fine node (-3/28, -11/28) ends on one side of the
    # flower, but a petal valley pokes about 1e-3 through it, so the arm
    # really meets r = rho(theta) twice: MultipleCrossings is the right answer
    prob, g = flower_nodes(*kappas, 28, 2)
    with pytest.raises(MultipleCrossings,
                       match=r"arm \(1,0\) of node \(-0\.1071,-0\.3929\)"):
        assemble(g, prob)

    y = -11.0 / 28.0

    def gap(x):   # r - rho(theta) along the arm, in closed form
        return np.hypot(x, y) - 0.5 - 0.1 * np.sin(8.0 * np.arctan2(y, x))

    xs = np.linspace(-3.0 / 28.0, -2.0 / 28.0, 2001)
    flips = np.flatnonzero(np.diff(np.sign(gap(xs))))
    assert np.sign(gap(xs[0])) == np.sign(gap(xs[-1]))
    roots = [brentq(gap, xs[k], xs[k + 1]) for k in flips]
    assert roots == pytest.approx([-0.0916, -0.0758], abs=5e-5)
