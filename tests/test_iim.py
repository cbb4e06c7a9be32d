"""Fitted interface stencils: exactness, consistency order, error paths."""
from fractions import Fraction

import numpy as np
import pytest

from twogrid import iim, problems
from twogrid.errors import (BadParams, DegenerateDenominator,
                            MissingNeighbor, MultipleCrossings)
from twogrid.geometry import LevelSet, project_to_interface

ALL_NEIGHBORS = {(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 if (di, dj) != (0, 0)}


def line_ls(alpha):
    return LevelSet(phi=lambda x, y: x - alpha,
                    samples=[[alpha, t] for t in np.linspace(0.0, 1.0, 50)])


def circle_ls(R=0.5):
    return LevelSet(phi=lambda x, y: np.hypot(x, y) - R)


def source(minus, plus):
    """A side-aware source, ``minus`` on the minus side, else ``plus``."""
    return lambda x, y, side: np.where(np.asarray(side) < 0, minus,
                                       plus) + 0.0 * x


no_source = source(0.0, 0.0)


def piecewise_quadratic(al, minus, plus):
    """``u(x, y)`` that is the quadratic with coefficients ``minus`` at
    ``x <= al`` and ``plus`` elsewhere, each over the monomials
    ``(1, X, y, X**2, X y, y**2)`` of ``X = x - al``."""
    def u(x, y):
        c = minus if x <= al else plus
        X = x - al
        return (c[0] + c[1] * X + c[2] * y + c[3] * X * X + c[4] * X * y
                + c[5] * y * y)
    return u


def node_at(x, y, h_f, side, ls, available=ALL_NEIGHBORS):
    """The batch of one node at ``(x, y)``; the grid has its neighbors at
    the offsets ``available``, on the sides that ``phi`` gives them."""
    ring = [side if off == (0, 0) else
            0 if off not in available else
            -1 if float(ls.phi(x + off[0] * h_f, y + off[1] * h_f)) <= 0.0
            else 1 for off in iim._RING2]
    return iim.IrregularNodes(x=np.array([x]), y=np.array([y]), h_f=h_f,
                              ring_side=np.array([ring], dtype=np.int8))


def weight(out, off):
    """The weight of the node's neighbor at ``off`` in a builder's output."""
    return out[0][0, iim._RING2.index(off)]


def residual_2d(out, node, u_of, f_center):
    weights, corr = out
    acc = sum(g * u_of(node.x[0] + di * node.h_f, node.y[0] + dj * node.h_f)
              for (di, dj), g in zip(iim._RING2, weights[0]) if g != 0.0)
    return acc - f_center - corr[0]


def lsq_slope(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# one-dimensional pair
# ---------------------------------------------------------------------------

def test_1d_no_jump_reduces_to_standard():
    st_j, st_jp1 = iim.iim_1d_irregular(3.0, 3.0, 0.55, 0.5, 0.1,
                                        iim.JumpData(), 0.6)
    for st in (st_j, st_jp1):
        assert st.alphas[-1] == pytest.approx(300.0)
        assert st.alphas[0] == pytest.approx(-600.0)
        assert st.alphas[1] == pytest.approx(300.0)
        assert st.correction == pytest.approx(0.0, abs=1e-12)


def test_1d_exact_on_piecewise_quadratic():
    # exact-rational oracle: a piecewise quadratic that satisfies both jump
    # conditions and has a continuous right side is reproduced exactly
    km, kp = Fraction(2), Fraction(5)
    alpha, h, xj = Fraction(17, 30), Fraction(1, 10), Fraction(1, 2)
    a, b, c = Fraction(3), Fraction(-2), Fraction(4)
    Cbar, C = Fraction(7, 9), Fraction(3, 4)
    bp = (km * b + C) / kp
    d = km * c / kp
    f = 2 * km * c

    def u(x):
        if x <= alpha:
            return a + b * (x - alpha) + c * (x - alpha) ** 2
        return (a + Cbar) + bp * (x - alpha) + d * (x - alpha) ** 2

    st_j, st_jp1 = iim.iim_1d_irregular(km, kp, alpha, xj, h,
                                        iim.JumpData(w=Cbar, v=C), xj + h)
    for st, ctr in ((st_j, xj), (st_jp1, xj + h)):
        res = sum(g * u(ctr + k * h) for k, g in st.alphas.items())
        res -= f + st.correction
        assert res == 0


def test_1d_consistency_order_on_quartic():
    # the pair is first-order consistent on the quartic benchmark state;
    # grid-snapped interface offsets make per-step ratios noisy, so fit a
    # least-squares slope across four dyadic levels
    km, kp, al = 4.0, 50.0, 17.0 / 30.0
    Cbar = al**4 * (1.0 / kp - 1.0 / km)
    jumps = iim.JumpData(w=Cbar, v=0.0)

    def u(x):
        return x**4 / km if x <= al else x**4 / kp

    hs = [1 / 20, 1 / 40, 1 / 80, 1 / 160]
    errs = []
    for h in hs:
        xj = np.floor(al / h) * h
        if xj + h <= al:
            xj += h
        st_j, st_jp1 = iim.iim_1d_irregular(km, kp, al, xj, h, jumps,
                                            xj + h)
        r1 = sum(g * u(xj + k * h) for k, g in st_j.alphas.items())
        r1 -= 12 * xj**2 + st_j.correction
        r2 = sum(g * u(xj + h + k * h) for k, g in st_jp1.alphas.items())
        r2 -= 12 * (xj + h) ** 2 + st_jp1.correction
        errs.append(max(abs(r1), abs(r2)))
    assert errs[-1] < errs[0]
    assert lsq_slope(hs, errs) >= 0.9


def test_1d_rejects_alpha_outside_cell():
    with pytest.raises(BadParams):
        iim.iim_1d_irregular(1.0, 2.0, 0.75, 0.5, 0.1, iim.JumpData(),
                             0.6)


@pytest.mark.parametrize("jumps", [
    iim.JumpData(w=lambda x, y: x, wp=lambda x, y: 0 * x,
                 wpp=lambda x, y: 0 * x),
    iim.JumpData(v=lambda x, y: x, vp=lambda x, y: 0 * x),
], ids=["w", "v"])
def test_1d_rejects_field_jumps(jumps):
    # the pair, and each row of a strip, take one scalar pair of jumps
    with pytest.raises(BadParams, match="scalar jumps"):
        iim.iim_1d_irregular(1.0, 2.0, 0.55, 0.5, 0.1, jumps, 0.6)


def test_1d_degenerate_denominator():
    # a near-vanishing coefficient with the interface almost on the far node
    # drives the fitted denominator under the guard threshold
    with pytest.raises(DegenerateDenominator):
        iim.iim_1d_irregular(1.0, 1e-6, 0.09999, 0.0, 0.1, iim.JumpData(),
                             0.1)


# ---------------------------------------------------------------------------
# Taylor-data transfer
# ---------------------------------------------------------------------------

def test_transfer_matches_hand_derived_jump_relations():
    # flat interface (chi = 0), constant jumps: the plus-side Taylor vector
    # follows from [u] = w, [kappa u_n] = v, tangential differentiation, and
    # the plus-side PDE. Hand-derived expectation, frozen here.
    km, kp = 2.0, 5.0
    w, v, fj = 0.7, -1.3, 2.0
    Tm = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    fm = km * (Tm[3] + Tm[5])
    fp = fm + fj
    js = {"w": w, "v": v, "wp": 0.0, "wpp": 0.0, "vp": 0.0}
    M, J0, jf = iim.transfer_minus_to_plus(km, kp, 0.0, js)
    got = M @ Tm + J0 + jf * fp
    expect = np.array([
        Tm[0] + w,
        (km * Tm[1] + v) / kp,
        Tm[2],
        fp / kp - Tm[5],
        km * Tm[4] / kp,
        Tm[5],
    ])
    assert got == pytest.approx(expect, rel=1e-14)


def test_transfer_from_plus_side_swaps_roles():
    km, kp = 2.0, 5.0
    js = {"w": 0.7, "v": -1.3, "wp": 0.1, "wpp": 0.2, "vp": 0.3}
    Mf, J0f, _ = iim.transfer_from_side(-1, km, kp, 0.4, js)
    Mr, J0r, _ = iim.transfer_from_side(+1, km, kp, 0.4, js)
    neg = {k: -val for k, val in js.items()}
    Mr2, J0r2, _ = iim.transfer_minus_to_plus(kp, km, 0.4, neg)
    assert Mr == pytest.approx(Mr2)
    assert J0r == pytest.approx(J0r2)
    assert not np.allclose(Mf, Mr)


def test_field_jumps_need_their_tangential_derivatives():
    with pytest.raises(BadParams):
        iim.JumpData(w=lambda x, y: x)
    with pytest.raises(BadParams):
        iim.JumpData(w=lambda x, y: x, wp=lambda x, y: 0.0)
    with pytest.raises(BadParams):
        iim.JumpData(v=lambda x, y: y)
    # scalar jumps have zero tangential derivatives
    ls = circle_ls()
    js = iim.jump_scalars(iim.JumpData(w=0.3, v=1.0),
                          project_to_interface(ls, [(0.5, 0.0)]), no_source)
    assert tuple(js[k][0] for k in ("w", "v", "wp", "wpp", "vp")) == (
        0.3, 1.0, 0.0, 0.0, 0.0)


def test_jump_scalars_prefers_supplied_derivatives():
    ls = circle_ls()
    frame = project_to_interface(ls, [(0.5, 0.0)])
    jd = iim.JumpData(w=lambda x, y: x, v=lambda x, y: y,
                      wp=lambda x, y: 11.0, wpp=lambda x, y: 12.0,
                      vp=lambda x, y: 13.0)
    js = iim.jump_scalars(jd, frame, no_source)
    assert tuple(js[k][0] for k in ("wp", "wpp", "vp")) == (11.0, 12.0, 13.0)


# ---------------------------------------------------------------------------
# corrected five-point scheme (continuous kappa)
# ---------------------------------------------------------------------------

def test_singular_source_exact_on_piecewise_linear():
    al = 33.0 / 70.0
    ls = line_ls(al)
    hf = 0.04
    node = node_at(al - 0.3 * hf, 0.5, hf, -1, ls)
    out = iim.singular_source_stencil_2d(node, ls, 1.0, iim.JumpData(v=1.0),
                                         no_source)

    def u(x, y):
        return x * (al - 1.0) if x <= al else al * (x - 1.0)

    assert abs(residual_2d(out, node, u, 0.0)) < 1e-10
    assert weight(out, (0, 0)) == pytest.approx(-4.0 / hf**2)
    assert weight(out, (1, 0)) == pytest.approx(1.0 / hf**2)


@pytest.mark.parametrize("side", [-1, 1])
def test_singular_source_exact_when_f_jumps(side):
    # equal kappas, [u] = 1/2 and [kappa u_x] = 1 along the line, and a
    # kappa Lap u that jumps from 3 to 9: the correction must carry [f]
    al, kappa, hf = 33.0 / 70.0, 2.0, 0.04
    ls = line_ls(al)
    minus = (0.3, 1.0, 3.0, 1.0, 0.5, -0.25)
    plus = (0.8, 1.5, 3.0, 2.5, 0.5, -0.25)
    f = source(3.0, 9.0)
    u = piecewise_quadratic(al, minus, plus)
    node = node_at(al + side * 0.3 * hf, 0.5, hf, side, ls)
    out = iim.singular_source_stencil_2d(node, ls, kappa,
                                         iim.JumpData(w=0.5, v=1.0), f)
    assert abs(residual_2d(out, node, u, f(node.x, node.y, side)[0])) < 1e-9


def test_singular_source_correction_is_linear_in_jumps():
    al = 33.0 / 70.0
    ls = line_ls(al)
    node = node_at(al - 0.01, 0.5, 0.04, -1, ls)
    base_w, base_c = iim.singular_source_stencil_2d(
        node, ls, 1.0, iim.JumpData(w=0.3, v=1.0), no_source)
    double_w, double_c = iim.singular_source_stencil_2d(
        node, ls, 1.0, iim.JumpData(w=0.6, v=2.0), no_source)
    assert double_c[0] == pytest.approx(2.0 * base_c[0], rel=1e-12)
    assert (double_w == base_w).all()


def test_singular_source_consistency_order_on_circle():
    # log-harmonic outside state of the circular benchmark: the corrected
    # five-point residual at a fixed relative node position shrinks like h
    R, th = 0.5, 0.3
    ls = circle_ls(R)
    jumps = iim.JumpData(w=0.0, v=1.0 / R)

    def u(x, y):
        r = np.hypot(x, y)
        return 1.0 if r <= R else 1.0 + np.log(2.0 * r)

    hs = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for h in hs:
        cx = (R + 0.3 * h) * np.cos(th)
        cy = (R + 0.3 * h) * np.sin(th)
        node = node_at(cx, cy, h, +1, ls)
        out = iim.singular_source_stencil_2d(node, ls, 1.0, jumps, no_source)
        errs.append(abs(residual_2d(out, node, u, 0.0)))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert lsq_slope(hs, errs) >= 0.8


def test_arm_side_override_controls_crossing_detection():
    # neighbor exactly on the interface: phi = 0 counts as minus, so by
    # default the east arm does not cross; the grid may have classified the
    # node as plus, and the override must win
    al = 0.5
    ls = line_ls(al)
    hf = 0.1
    node = node_at(al - hf, 0.5, hf, -1, ls)
    east = iim._RING2.index((1, 0))
    assert node.ring_side[0, east] == -1
    _, corr_plain = iim.singular_source_stencil_2d(node, ls, 1.0,
                                                   iim.JumpData(w=1.0),
                                                   no_source)
    assert corr_plain[0] == 0.0
    node.ring_side[0, east] = +1
    _, corr_forced = iim.singular_source_stencil_2d(node, ls, 1.0,
                                                    iim.JumpData(w=1.0),
                                                    no_source)
    assert corr_forced[0] != 0.0


def test_double_crossing_arm_is_rejected():
    # phi = (x - 0.5)^2 - 0.01 has two vertical zero lines; an arm jumping
    # across both has same-side ends and an opposite-side midpoint
    ls = LevelSet(phi=lambda x, y: (x - 0.5) ** 2 - 0.01)
    node = node_at(0.3, 0.5, 0.4, +1, ls, available={(1, 0)})
    with pytest.raises(MultipleCrossings):
        iim.singular_source_stencil_2d(node, ls, 1.0, iim.JumpData(),
                                       no_source)


@pytest.mark.parametrize("arm", sorted(iim._CROSS))
def test_singular_source_needs_every_five_point_arm(arm):
    ls = line_ls(0.5)
    node = node_at(0.48, 0.5, 0.04, -1, ls, available=ALL_NEIGHBORS - {arm})
    with pytest.raises(MissingNeighbor,
                       match=r"node \(0\.48,0\.5\) lacks a five-point arm"):
        iim.singular_source_stencil_2d(node, ls, 1.0, iim.JumpData(v=1.0),
                                       no_source)


# ---------------------------------------------------------------------------
# fitted stencil (discontinuous kappa)
# ---------------------------------------------------------------------------

def test_discontinuous_exact_on_piecewise_quadratic():
    al = 33.0 / 70.0
    km, kp = 2.0, 5.0
    ls = line_ls(al)
    hf = 0.04
    node = node_at(al - 0.3 * hf, 0.5, hf, -1, ls)

    def u(x, y):
        base = (x - al) + (x - al) ** 2
        return (base if x <= al else km / kp * base) + 3.0 * y

    out = iim.iim_discontinuous_stencil_2d(node, ls, km, kp, iim.JumpData(),
                                           source(2.0 * km, 2.0 * km))
    assert abs(residual_2d(out, node, u, 2.0 * km)) < 1e-9


@pytest.mark.parametrize("side", [-1, 1])
def test_discontinuous_exact_when_f_jumps(side):
    # kappa 2 | 5, [u] = 1/2 and [kappa u_x] = 1 along the line, and a
    # kappa Lap u that jumps from 3 to 17.5: the fitted row must carry [f]
    al, km, kp, hf = 33.0 / 70.0, 2.0, 5.0, 0.04
    ls = line_ls(al)
    minus = (0.3, 1.0, 3.0, 1.0, 0.5, -0.25)
    plus = (0.8, 0.6, 3.0, 2.0, 0.2, -0.25)
    f = source(3.0, 17.5)
    u = piecewise_quadratic(al, minus, plus)
    node = node_at(al + side * 0.3 * hf, 0.5, hf, side, ls)
    out = iim.iim_discontinuous_stencil_2d(node, ls, km, kp,
                                           iim.JumpData(w=0.5, v=1.0), f)
    assert abs(residual_2d(out, node, u, f(node.x, node.y, side)[0])) < 1e-9


def test_discontinuous_monotone_sign_pattern_and_zero_row_sum():
    al = 33.0 / 70.0
    ls = line_ls(al)
    node = node_at(al - 0.012, 0.5, 0.04, -1, ls)
    weights, _ = iim.iim_discontinuous_stencil_2d(node, ls, 2.0, 5.0,
                                                  iim.JumpData(), no_source)
    center = iim._RING2.index((0, 0))
    assert weights[0, center] < 0
    assert (np.delete(weights[0], center) >= 0).all()
    assert weights[0].sum() == pytest.approx(0.0, abs=1e-9 / node.h_f**2)


def test_discontinuous_equal_kappa_matches_smooth_quadratic():
    # with no coefficient jump and zero jumps the fitted stencil must still
    # reproduce a globally smooth quadratic exactly
    al = 33.0 / 70.0
    ls = line_ls(al)
    node = node_at(al - 0.012, 0.5, 0.04, -1, ls)
    out = iim.iim_discontinuous_stencil_2d(node, ls, 3.0, 3.0, iim.JumpData(),
                                           source(-6.0, -6.0))

    def u(x, y):
        return x**2 + x * y - 2.0 * y**2 + x - y + 1.0

    assert abs(residual_2d(out, node, u, 3.0 * (2.0 - 4.0))) < 1e-9


def test_discontinuous_consistency_order_on_flower():
    # manufactured benchmark state with a tenfold coefficient jump: the
    # fitted residual at fixed relative node positions is first order
    prob = problems.make_problem("flower", {})
    ls = prob.interface
    hs = [0.02, 0.01, 0.005]
    errs = []
    for h in hs:
        worst = 0.0
        for th in (0.2, 1.1, 2.5, 4.0):
            rho = 0.5 + 0.1 * np.sin(8.0 * th)
            for off in (-0.35, 0.35):
                cx = (rho + off * h) * np.cos(th)
                cy = (rho + off * h) * np.sin(th)
                side = -1 if float(ls.phi(cx, cy)) <= 0.0 else +1
                node = node_at(cx, cy, h, side, ls)
                out = iim.iim_discontinuous_stencil_2d(
                    node, ls, prob.kappa_minus, prob.kappa_plus, prob.jumps,
                    prob.f)

                def u(x, y):
                    s = -1 if float(ls.phi(x, y)) <= 0.0 else +1
                    return prob.exact(x, y, s)

                res = residual_2d(out, node, u, prob.f(cx, cy, side))
                worst = max(worst, abs(res))
        errs.append(worst)
    assert lsq_slope(hs, errs) >= 0.9
