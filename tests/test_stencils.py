"""Stencil generators against symbolic Taylor and exact-rational oracles."""
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy

from derivation import eliminate_border_2d, eliminate_hanging
from twogrid import stencils
from twogrid.errors import BadParams

X, Y, T = sympy.symbols("x y t", real=True, positive=True)


def residual_1d(st, u, x0, scale=1, kappa=1, K=0):
    """Exact residual sum(alpha u) - sum(beta f) - corr about x0.

    Offset keys are node steps of size ``scale``; f = kappa u'' + K u.
    """
    f = kappa * sympy.diff(u, X, 2) + K * u
    acc = -sympy.sympify(st.correction)
    for off, a in st.alphas.items():
        acc += a * u.subs(X, x0 + off * scale)
    for off, b in st.betas.items():
        acc -= b * f.subs(X, x0 + off * scale)
    return sympy.simplify(acc)


def residual_2d(st, u, x0, y0, sx=1, sy=1, kappa=1, K=0):
    """Same as residual_1d for (di, dj) offsets with steps (sx, sy)."""
    f = kappa * (sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)) + K * u
    acc = -sympy.sympify(st.correction)
    for (di, dj), a in st.alphas.items():
        acc += a * u.subs({X: x0 + di * sx, Y: y0 + dj * sy})
    for (di, dj), b in st.betas.items():
        acc -= b * f.subs({X: x0 + di * sx, Y: y0 + dj * sy})
    return sympy.expand(acc)


# ---------------------------------------------------------------------------
# border_coeffs_1d at equal spacings: the fourth-order compact row
# ---------------------------------------------------------------------------

def test_compact4_direct_formula():
    st = stencils.border_coeffs_1d(0.1, 0.1, kappa=1.0, K=0.0)
    assert st.alphas[-1] == pytest.approx(100.0)
    assert st.alphas[0] == pytest.approx(-200.0)
    assert st.alphas[1] == pytest.approx(100.0)
    assert st.betas == {-1: pytest.approx(1 / 12), 0: pytest.approx(10 / 12),
                        1: pytest.approx(1 / 12)}


def test_compact4_reaction_folding():
    st = stencils.border_coeffs_1d(1.0, 1.0, kappa=1.0, K=1.0)
    assert st.alphas[0] == pytest.approx(-2.0 + 10.0 / 12.0)
    assert st.alphas[-1] == pytest.approx(1.0 + 1.0 / 12.0)


def test_compact4_fourth_order_on_sin():
    # Taylor oracle: series of the residual on u = sin(x) starts at h**4
    h = sympy.Symbol("h", positive=True)
    st = stencils.border_coeffs_1d(h, h, kappa=1, K=1)
    u = sympy.sin(X)
    f = sympy.diff(u, X, 2) + u
    expr = sum(sympy.nsimplify(a) * u.subs(X, X + k * h)
               for k, a in st.alphas.items())
    expr -= sum(sympy.nsimplify(b) * f.subs(X, X + k * h)
                for k, b in st.betas.items())
    series = sympy.series(expr, h, 0, 5).removeO()
    poly = sympy.Poly(sympy.expand(series), h)
    for power in range(4):
        assert sympy.simplify(poly.coeff_monomial(h**power)) == 0
    assert sympy.simplify(poly.coeff_monomial(h**4)) != 0


@pytest.mark.parametrize("kappa,h", [(1.0, 0.5), (3.0, 0.01), (0.2, 2.0)])
def test_compact4_zero_row_sum_at_k0(kappa, h):
    st = stencils.border_coeffs_1d(h, h, kappa=kappa, K=0.0)
    assert st.alpha_sum() == pytest.approx(0.0, abs=1e-12 / h**2)
    assert st.beta_sum() == pytest.approx(1.0)


def test_border1d_reduces_to_compact4():
    for h, kappa in ((Fraction(1, 4), Fraction(2)),
                     (Fraction(3, 7), Fraction(5, 3))):
        st = stencils.border_coeffs_1d(h, h, kappa, Fraction(0))
        assert st.betas == {-1: Fraction(1, 12), 0: Fraction(10, 12),
                            1: Fraction(1, 12)}
        assert st.alphas == {-1: kappa / h**2, 0: -2 * kappa / h**2,
                             1: kappa / h**2}


# ---------------------------------------------------------------------------
# border_coeffs_1d at a mesh-size jump
# ---------------------------------------------------------------------------

def _border_oracle(h1, h2):
    """Independently solve the moment conditions that define the border row.

    Six unknowns (three alphas, three betas), exact on 1, x, x**2, x**3,
    x**4 with f = u'' and beta-sum one.
    """
    a = sympy.symbols("a:3")
    b = sympy.symbols("b:3")
    xs = (-sympy.Rational(h1), sympy.Integer(0), sympy.Rational(h2))
    eqs = [sum(b) - 1]
    for k in range(5):
        u = X**k
        f = sympy.diff(u, X, 2)
        eqs.append(sum(ai * u.subs(X, xi) for ai, xi in zip(a, xs))
                   - sum(bi * f.subs(X, xi) for bi, xi in zip(b, xs)))
    sol = sympy.solve(eqs, list(a) + list(b), dict=True)
    assert len(sol) == 1
    return ([sol[0][ai] for ai in a], [sol[0][bi] for bi in b])


@pytest.mark.parametrize("h1,h2", [(2, 1), (1, 2), (1, 4), (3, 1), (5, 7)])
def test_border1d_matches_moment_oracle(h1, h2):
    a_ref, b_ref = _border_oracle(h1, h2)
    st = stencils.border_coeffs_1d(Fraction(h1), Fraction(h2),
                                   Fraction(1), Fraction(0))
    got_a = [st.alphas[k] for k in (-1, 0, 1)]
    got_b = [st.betas[k] for k in (-1, 0, 1)]
    for got, ref in zip(got_a + got_b, a_ref + b_ref):
        assert sympy.Rational(got.numerator, got.denominator) == ref


def test_border1d_frozen_values():
    # oracle-derived row for (h1, h2) = (2, 1), kappa=1, K=0
    st = stencils.border_coeffs_1d(Fraction(2), Fraction(1),
                                   Fraction(1), Fraction(0))
    assert st.alphas == {-1: Fraction(1, 3), 0: Fraction(-1),
                         1: Fraction(2, 3)}
    assert st.betas == {-1: Fraction(5, 36), 0: Fraction(11, 12),
                        1: Fraction(-1, 18)}
    assert st.beta_sum() == 1


@pytest.mark.parametrize("h1,h2", [(1, 2), (1, 4), (3, 1)])
def test_border1d_exact_through_degree_four(h1, h2):
    # LTE on u = x**5 vanishes through the h**4 terms: with nodes scaled by
    # t the residual about a generic center is a multiple of t**3 exactly
    st = stencils.border_coeffs_1d(Fraction(h1), Fraction(h2),
                                   Fraction(1), Fraction(0))
    sc = {-1: -h1 * T, 0: sympy.Integer(0), 1: h2 * T}
    u = (X + 1) ** 5
    f = sympy.diff(u, X, 2)
    acc = sum(sympy.Rational(a.numerator, a.denominator)
              * u.subs(X, sc[k]) for k, a in st.alphas.items())
    # alphas were built for unit spacings; rescale to spacing t
    acc = acc / T**2
    acc -= sum(sympy.Rational(b.numerator, b.denominator)
               * f.subs(X, sc[k]) for k, b in st.betas.items())
    poly = sympy.Poly(sympy.expand(acc), T)
    assert all(poly.coeff_monomial(T**p) == 0 for p in range(3))
    assert poly.coeff_monomial(T**3) != 0


# ---------------------------------------------------------------------------
# centered_nonuniform_1d
# ---------------------------------------------------------------------------

def test_centered_uniform_diffusion_only():
    st = stencils.centered_nonuniform_1d(eps=1.0, p=0.0, q=0.0, h1=0.5, h2=0.5)
    assert st.alphas == {-1: pytest.approx(4.0), 0: pytest.approx(-8.0),
                         1: pytest.approx(4.0)}


def test_centered_uniform_convection_only():
    st = stencils.centered_nonuniform_1d(eps=0.0, p=1.0, q=0.0, h1=0.5, h2=0.5)
    assert st.alphas[-1] == pytest.approx(-1.0)
    assert st.alphas[0] == pytest.approx(0.0)
    assert st.alphas[1] == pytest.approx(1.0)


@pytest.mark.parametrize("h1,h2", [(0.5, 0.5), (0.1, 0.7), (1.0, 0.25)])
def test_centered_exact_on_quadratic(h1, h2):
    st = stencils.centered_nonuniform_1d(eps=1.0, p=0.0, q=0.0, h1=h1, h2=h2)
    u = (X - 3) ** 2
    vals = {k: float(u.subs(X, {-1: -h1, 0: 0.0, 1: h2}[k]))
            for k in (-1, 0, 1)}
    assert sum(st.alphas[k] * vals[k] for k in vals) == pytest.approx(2.0)


@pytest.mark.parametrize("h1,h2", [(0.0, 0.5), (0.5, -0.1),
                                   (0.5, np.array([0.1, 0.0]))])
def test_centered_rejects_non_positive_spacing(h1, h2):
    with pytest.raises(BadParams, match="spacings must be positive"):
        stencils.centered_nonuniform_1d(eps=1.0, p=0.0, q=0.0, h1=h1, h2=h2)


# ---------------------------------------------------------------------------
# border_coeffs_2d at equal spacings: the compact nine-point row
# ---------------------------------------------------------------------------

def test_nine_point_reference_weights():
    st = stencils.border_coeffs_2d(1.0, 1.0, 1.0)
    assert st.alphas[(1, 1)] == pytest.approx(1 / 6)
    assert st.alphas[(1, 0)] == pytest.approx(4 / 6)
    assert st.alphas[(0, 0)] == pytest.approx(-20 / 6)
    assert st.alpha_sum() == pytest.approx(0.0)
    assert st.beta_sum() == pytest.approx(1.0)


def test_nine_point_exact_on_quartics():
    # Taylor oracle: the h**2 residual coefficient vanishes, so the scheme
    # annihilates x**4 + y**4 (and any quartic) up to the float rounding
    # that the stencil's 0.0 correction brings in
    h = sympy.Rational(1, 3)
    st = stencils.border_coeffs_2d(h, h, h)
    u = (X + 2) ** 4 + (Y - 1) ** 4
    res = residual_2d(st, u, x0=sympy.Rational(1, 7), y0=sympy.Rational(2, 5),
                      sx=h, sy=h)
    assert abs(float(res)) < 1e-10


def test_nine_point_h4_error_on_sextic():
    st = stencils.border_coeffs_2d(T, T, T)
    res = residual_2d(st, X**6, x0=sympy.Integer(0), y0=sympy.Integer(0),
                      sx=T, sy=T)
    poly = sympy.Poly(res, T)
    # the 0.0 correction puts the poly over RR, so compare through float
    assert abs(float(poly.coeff_monomial(T**2))) < 1e-12
    assert abs(float(poly.coeff_monomial(T**4))) > 0.1


# ---------------------------------------------------------------------------
# strip_mixed_order_2d
# ---------------------------------------------------------------------------

def test_strip_cross_term_factor():
    hf, hy = 0.125, 0.5
    st = stencils.strip_mixed_order_2d(hf, hy)
    assert st.alphas[(1, 1)] == pytest.approx(hy**2 / (12 * hf**2) / hy**2)
    # written out: the x-neighbor weight 1/hf**2 carries the 1/12 row factor
    assert st.alphas[(1, 1)] == pytest.approx(1.0 / (12 * hf**2))


@pytest.mark.parametrize("hf,hy", [(0.1, 0.1), (0.05, 0.2), (0.01, 0.3)])
def test_strip_zero_row_sum(hf, hy):
    st = stencils.strip_mixed_order_2d(hf, hy)
    assert st.alpha_sum() == pytest.approx(0.0, abs=1e-10 / hf**2)


def _shifted_coeff(res, power):
    """Coefficient of T**power in res, where res may carry 1/T**2 terms.

    The strip weights scale as 1/h**2, so multiply through by T**2 first
    (Poly rejects negative exponents) and read the shifted monomial.
    """
    poly = sympy.Poly(sympy.expand(res * T**2), T)
    return float(poly.coeff_monomial(T ** (power + 2)))


def test_strip_mixed_order_taylor():
    """Second order in x, fourth in y: residual orders on pure powers."""
    st = stencils.strip_mixed_order_2d(T, T)
    zero = sympy.Integer(0)
    res = residual_2d(st, (X + 1) ** 3 + (Y + 1) ** 5, zero, zero, T, T)
    assert all(abs(_shifted_coeff(res, p)) < 1e-12 for p in range(-2, 7))
    res_x = residual_2d(st, (X + 1) ** 4, zero, zero, T, T)
    assert all(abs(_shifted_coeff(res_x, p)) < 1e-12 for p in range(-2, 2))
    assert abs(_shifted_coeff(res_x, 2)) > 0.1
    res_y = residual_2d(st, (Y + 1) ** 6, zero, zero, T, T)
    assert all(abs(_shifted_coeff(res_y, p)) < 1e-12 for p in range(-2, 4))
    assert abs(_shifted_coeff(res_y, 4)) > 0.1


def test_strip_xgamma_override_and_correction():
    g = (3.0, -7.0, 4.0)
    st = stencils.strip_mixed_order_2d(0.1, 0.2, xgamma=g, correction=1.5)
    assert st.alphas[(-1, 1)] == pytest.approx(3.0 / 12)
    assert st.correction == 1.5


# ---------------------------------------------------------------------------
# border_coeffs_2d at a mesh-size jump, and its exact twin
# ---------------------------------------------------------------------------

def test_border2d_uniform_limit_is_nine_point():
    for h in (Fraction(1, 4), Fraction(2, 9)):
        st = stencils.border_coeffs_2d(h, h, h)
        want = {(di, dj): Fraction(1 if di and dj else 4, 6) / h**2
                for di in (-1, 0, 1) for dj in (-1, 0, 1)}
        want[(0, 0)] = Fraction(-20, 6) / h**2
        assert st.alphas == want
        assert st.betas == {(0, 0): Fraction(8, 12), (1, 0): Fraction(1, 12),
                            (-1, 0): Fraction(1, 12), (0, 1): Fraction(1, 12),
                            (0, -1): Fraction(1, 12)}


def test_border2d_beta_sum_one():
    st = stencils.border_coeffs_2d(1.0, 2.0, 1.0)
    assert st.beta_sum() == pytest.approx(1.0, rel=1e-14)


def test_border2d_swap_antisymmetry():
    a = stencils.border_coeffs_2d(1.0, 3.0, 2.0)
    b = stencils.border_coeffs_2d(3.0, 1.0, 2.0)
    for dj in (-1, 0, 1):
        assert a.alphas[(1, dj)] == pytest.approx(b.alphas[(-1, dj)])
        assert a.alphas[(-1, dj)] == pytest.approx(b.alphas[(1, dj)])


@pytest.mark.parametrize("h1,h2,hy", [(1, 1, 1), (1, 2, 1), (2, 3, 5),
                                      (1, 4, 2)])
def test_border2d_closed_forms_match_derivation(h1, h2, hy):
    exact = eliminate_border_2d(h1, h2, hy)
    closed = stencils.border_coeffs_2d(Fraction(h1), Fraction(h2),
                                       Fraction(hy))
    assert closed.alphas == exact.alphas
    assert closed.betas == exact.betas
    assert all(isinstance(v, Fraction) for v in
               [*closed.alphas.values(), *closed.betas.values()])


def test_border2d_exact_through_degree_four():
    # the shipped closed form and the elimination oracle, each against sympy
    sx = {-1: -1, 0: 0, 1: 2}
    x0, y0 = sympy.Rational(1, 3), sympy.Rational(3, 7)
    at = {(di, dj): {X: x0 + sx[di], Y: y0 + 3 * dj}
          for di in (-1, 0, 1) for dj in (-1, 0, 1)}
    for st in (stencils.border_coeffs_2d(Fraction(1), Fraction(2),
                                         Fraction(3)),
               eliminate_border_2d(1, 2, 3)):
        for k1 in range(5):
            for k2 in range(5 - k1):
                u = X**k1 * Y**k2
                f = sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)
                acc = sum(sympy.Rational(a) * u.subs(at[k])
                          for k, a in st.alphas.items())
                acc -= sum(sympy.Rational(b) * f.subs(at[k])
                           for k, b in st.betas.items())
                assert sympy.simplify(acc) == 0, (k1, k2)


# ---------------------------------------------------------------------------
# hanging-node stencils: closed form, elimination oracle, properties
# ---------------------------------------------------------------------------

F = Fraction

# published primitive rows at ratios 2, 4, 8 and 16, keyed by (ratio,
# offset): (corner_left, corner_right, mid_left, mid_right, self, beta_left,
# beta_right) at coarse spacing 1; a non-primitive pair reduces by the gcd
# and an offset past the midpoint mirrors left and right
PUBLISHED_ROWS = {
    (2, 1): (F(1, 2), F(1, 2), F(3), F(3), F(-8), F(1, 2), F(1, 2)),
    (4, 1): (F(7, 12), F(5, 12), F(41, 6), F(11, 6), F(-32, 3), F(7, 12),
             F(5, 12)),
    (8, 1): (F(5, 8), F(3, 8), F(59, 4), F(43, 28), F(-128, 7), F(5, 8),
             F(3, 8)),
    (8, 3): (F(13, 24), F(11, 24), F(17, 4), F(137, 60), F(-128, 15),
             F(13, 24), F(11, 24)),
    (16, 1): (F(31, 48), F(17, 48), F(737, 24), F(57, 40), F(-512, 15),
              F(31, 48), F(17, 48)),
    (16, 3): (F(29, 48), F(19, 48), F(227, 24), F(521, 312), F(-512, 39),
              F(29, 48), F(19, 48)),
    (16, 5): (F(9, 16), F(7, 16), F(211, 40), F(179, 88), F(-512, 55),
              F(9, 16), F(7, 16)),
    (16, 7): (F(25, 48), F(23, 48), F(593, 168), F(187, 72), F(-512, 63),
              F(25, 48), F(23, 48)),
}


def all_table_pairs():
    return [(r, j) for r in (2, 4, 8, 16) for j in range(1, r)]


def hanging_pairs():
    """The published ratios plus ratios 3, 5, 6 and 12."""
    return [(r, j) for r in (2, 3, 4, 5, 6, 8, 12, 16) for j in range(1, r)]


def published_row(r, j):
    g = gcd(r, j)
    rr, jj = r // g, j // g
    if jj > rr - jj:
        a1, a2, a3, a4, a5, b1, b2 = PUBLISHED_ROWS[(rr, rr - jj)]
        return (a2, a1, a4, a3, a5, b2, b1)
    return PUBLISHED_ROWS[(rr, jj)]


@pytest.mark.parametrize("r,j", all_table_pairs())
def test_hanging_reproduces_published_rows(r, j):
    a1, a2, a3, a4, a5, b1, b2 = published_row(r, j)
    st = stencils.hanging_coeffs(r, j)
    assert st.alphas == {(-j, -r): a1, (r - j, -r): a2, (-j, 0): a3,
                         (r - j, 0): a4, (-j, r): a1, (r - j, r): a2,
                         (0, 0): a5}
    assert st.betas == {(-j, 0): b1, (r - j, 0): b2}


def test_hanging_closed_form_equals_derivation_up_to_ratio_32():
    for r in range(2, 33):
        for j in range(1, r):
            closed = stencils.hanging_coeffs(r, j)
            derived = eliminate_hanging(r, j)
            assert closed.alphas == derived.alphas, (r, j)
            assert closed.betas == derived.betas, (r, j)
            assert all(isinstance(v, Fraction) for v in
                       [*closed.alphas.values(), *closed.betas.values()])


def test_hanging_r2_row():
    st = stencils.hanging_coeffs(2, 1)
    assert st.alphas[(-1, -2)] == Fraction(1, 2)
    assert st.alphas[(1, -2)] == Fraction(1, 2)
    assert st.alphas[(-1, 0)] == Fraction(3)
    assert st.alphas[(1, 0)] == Fraction(3)
    assert st.alphas[(0, 0)] == Fraction(-8)
    assert st.betas == {(-1, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)}


def test_hanging_r4_j1_row():
    st = stencils.hanging_coeffs(4, 1)
    assert st.alphas[(-1, -4)] == Fraction(7, 12)
    assert st.alphas[(3, -4)] == Fraction(5, 12)
    assert st.alphas[(-1, 0)] == Fraction(41, 6)
    assert st.alphas[(3, 0)] == Fraction(11, 6)
    assert st.alphas[(0, 0)] == Fraction(-32, 3)
    assert st.betas[(-1, 0)] == Fraction(7, 12)
    assert st.betas[(3, 0)] == Fraction(5, 12)


def test_hanging_ratio_invariance_r16_j8():
    # j/r = 1/2 must reproduce the r=2 row on its own offsets
    a = stencils.hanging_coeffs(16, 8)
    b = stencils.hanging_coeffs(2, 1)
    assert a.alphas[(-8, -16)] == b.alphas[(-1, -2)]
    assert a.alphas[(8, 0)] == b.alphas[(1, 0)]
    assert a.alphas[(0, 0)] == b.alphas[(0, 0)]
    assert a.betas[(-8, 0)] == b.betas[(-1, 0)]


def test_hanging_derive_r8_j3_row():
    st = stencils.derive_hanging_coeffs(8, 3)
    assert st.alphas[(-3, -8)] == Fraction(13, 24)
    assert st.alphas[(5, -8)] == Fraction(11, 24)
    assert st.alphas[(-3, 0)] == Fraction(17, 4)
    assert st.alphas[(5, 0)] == Fraction(137, 60)
    assert st.alphas[(0, 0)] == Fraction(-128, 15)
    assert st.betas[(-3, 0)] == Fraction(13, 24)
    assert st.betas[(5, 0)] == Fraction(11, 24)


def test_derivation_reproduces_whole_table_quickly():
    t0 = time.perf_counter()
    for r, j in hanging_pairs():
        table = stencils.hanging_coeffs(r, j)
        derived = eliminate_hanging(r, j)
        assert derived.alphas == table.alphas, (r, j)
        assert derived.betas == table.betas, (r, j)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("r,j", [(2, 1), (4, 3), (8, 5), (16, 11)])
def test_hanging_reversal_symmetry(r, j):
    a = stencils.hanging_coeffs(r, j)
    b = stencils.hanging_coeffs(r, r - j)
    for dj in (-r, 0, r):
        assert a.alphas[(-j, dj)] == b.alphas[(r - (r - j), dj)]
        assert a.alphas[(r - j, dj)] == b.alphas[(-(r - j), dj)]
    assert a.alphas[(0, 0)] == b.alphas[(0, 0)]


@pytest.mark.parametrize("r,j", hanging_pairs())
def test_hanging_sign_and_sums(r, j):
    st = stencils.hanging_coeffs(r, j)
    assert st.alphas[(0, 0)] < 0
    assert all(v > 0 for k, v in st.alphas.items() if k != (0, 0))
    assert st.alpha_sum() == 0
    bs = [v for v in st.betas.values() if v != 0]
    assert len(bs) == 2 and all(v > 0 for v in bs) and sum(bs) == 1


def test_hanging_zero_row_sum_identity_r4():
    # the r=4, j=1 neighbors sum to 32/3, the negated diagonal
    st = stencils.hanging_coeffs(4, 1)
    nb = sum(v for k, v in st.alphas.items() if k != (0, 0))
    assert nb == Fraction(32, 3) == -st.alphas[(0, 0)]


def test_hanging_annihilates_low_monomials():
    """Exact on every monomial of total degree <= 4 except x**4 and y**4."""
    r, j = 8, 3
    st = stencils.derive_hanging_coeffs(r, j)
    d = Fraction(1, r)
    for k1 in range(5):
        for k2 in range(5 - k1):
            u = X**k1 * Y**k2
            f = sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)
            acc = sum(sympy.Rational(a) * u.subs({X: di * d, Y: dj * d})
                      for (di, dj), a in st.alphas.items())
            acc -= sum(sympy.Rational(b) * f.subs({X: di * d, Y: dj * d})
                       for (di, dj), b in st.betas.items())
            if (k1, k2) in ((4, 0), (0, 4)):
                assert sympy.simplify(acc) != 0, (k1, k2)
            else:
                assert sympy.simplify(acc) == 0, (k1, k2)


def test_hanging_super_third_order_on_quintic():
    # residual on a fixed quintic with f = Lap u is O(h**3): scale the
    # geometry by t and check the polynomial valuation. Pure x**4 and y**4
    # are the two released monomials (their residuals are genuinely O(h**2),
    # see the frozen coefficients below), so the quintic avoids them.
    rng_coeffs = [3, -1, 2, 5, -4, 1, 2, -3, 1, 7, -2, 4, 1, -1, 2, 3, -5,
                  2, 1]
    terms = [(k1, k2) for k1 in range(6) for k2 in range(6 - k1)
             if (k1, k2) not in ((4, 0), (0, 4))]
    u = sum(c * X**a * Y**b for c, (a, b) in zip(rng_coeffs, terms))
    f = sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)
    r, j = 4, 1
    st = stencils.derive_hanging_coeffs(r, j)
    d = T / r
    acc = sum(sympy.Rational(a) * u.subs({X: di * d, Y: dj * d})
              for (di, dj), a in st.alphas.items()) / T**2
    acc -= sum(sympy.Rational(b) * f.subs({X: di * d, Y: dj * d})
               for (di, dj), b in st.betas.items())
    poly = sympy.Poly(sympy.expand(acc), T)
    for power in range(3):
        assert poly.coeff_monomial(T**power) == 0
    assert poly.coeff_monomial(T**3) != 0


@pytest.mark.parametrize("r,j,cx4,cy4", [
    (2, 1, Fraction(-5, 2), Fraction(2)),
    (4, 1, Fraction(-19, 8), Fraction(2)),
])
def test_hanging_released_quartic_residuals(r, j, cx4, cy4):
    # the derivation drops the x**4 and y**4 moment equations; the leading
    # residual coefficients were frozen from a direct symbolic expansion
    st = stencils.hanging_coeffs(r, j)
    d = T / r
    for u, expect in ((X**4, cx4), (Y**4, cy4)):
        f = sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)
        acc = sum(sympy.Rational(a) * u.subs({X: di * d, Y: dj * d})
                  for (di, dj), a in st.alphas.items()) / T**2
        acc -= sum(sympy.Rational(b) * f.subs({X: di * d, Y: dj * d})
                   for (di, dj), b in st.betas.items())
        assert sympy.expand(acc) == sympy.Rational(expect) * T**2


def test_hanging_reaction_fold_equals_elimination():
    # kappa * a + K * beta on each U-weight is the row the elimination
    # derives for kappa Lap u + K u; its self f-weight is always zero
    for r in range(2, 9):
        for j in range(1, r):
            for kappa in (1, Fraction(7, 2), 2):
                for K in (0, 1, Fraction(-3, 2), 5):
                    closed = stencils.derive_hanging_coeffs(r, j, kappa, K)
                    derived = eliminate_hanging(r, j, kappa, K)
                    assert closed.alphas == derived.alphas, (r, j, kappa, K)
                    assert closed.betas == derived.betas, (r, j, kappa, K)


def test_hanging_derive_with_reaction_term():
    st = stencils.derive_hanging_coeffs(4, 1, kappa=Fraction(2), K=Fraction(1))
    assert st.beta_sum() == 1
    # exactness against f = 2 Lap u + u on the released monomial set
    d = Fraction(1, 4)
    for k1, k2 in ((0, 0), (1, 0), (2, 0), (0, 2), (2, 2), (1, 2)):
        u = X**k1 * Y**k2
        f = 2 * (sympy.diff(u, X, 2) + sympy.diff(u, Y, 2)) + u
        acc = sum(sympy.Rational(a) * u.subs({X: di * d, Y: dj * d})
                  for (di, dj), a in st.alphas.items())
        acc -= sum(sympy.Rational(b) * f.subs({X: di * d, Y: dj * d})
                   for (di, dj), b in st.betas.items())
        assert sympy.simplify(acc) == 0, (k1, k2)


def test_hanging_rejects_bad_arguments():
    with pytest.raises(BadParams):
        stencils.hanging_coeffs(1, 1)
    with pytest.raises(BadParams):
        stencils.hanging_coeffs(4, 0)
    with pytest.raises(BadParams):
        stencils.hanging_coeffs(4, 4)
    with pytest.raises(BadParams):
        stencils.derive_hanging_coeffs(1, 1)


def test_hanging_derive_untabulated_ratio():
    st = stencils.derive_hanging_coeffs(3, 1)
    assert st.alpha_sum() == 0
    assert st.beta_sum() == 1
    assert st.alphas[(0, 0)] < 0
    assert all(v > 0 for k, v in st.alphas.items() if k != (0, 0))
