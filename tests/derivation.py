"""Exact-rational elimination engines: the test oracle of the closed forms.

Each engine sets up the moment-matching system of a transition stencil
on its own and solves it by Gaussian elimination over ``Fraction``s. It
shares no code with ``twogrid.stencils``, so comparing its rows with the
shipped closed forms is an independent check of both.
"""
from fractions import Fraction

from twogrid.errors import BadParams
from twogrid.stencils import Stencil


def _solve_exact(rows, rhs):
    """Gaussian elimination over exact rationals; raises on singular systems."""
    n = len(rows)
    A = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((k for k in range(col, n) if A[k][col] != 0), None)
        if piv is None:
            raise ValueError("derivation system is singular")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [v / pv for v in A[col]]
        for k in range(n):
            if k != col and A[k][col] != 0:
                fac = A[k][col]
                A[k] = [vk - fac * vc for vk, vc in zip(A[k], A[col])]
    return [A[k][n] for k in range(n)]


def _mono(k1: int, k2: int, x: Fraction, y: Fraction) -> Fraction:
    return x**k1 * y**k2


def _lap(k1: int, k2: int, x: Fraction, y: Fraction) -> Fraction:
    """Laplacian of the monomial ``x**k1 * y**k2`` at ``(x, y)``."""
    out = Fraction(0)
    if k1 >= 2:
        out += k1 * (k1 - 1) * x ** (k1 - 2) * y**k2
    if k2 >= 2:
        out += k2 * (k2 - 1) * x**k1 * y ** (k2 - 2)
    return out


def eliminate_hanging(r: int, j: int, kappa=1, K=0) -> Stencil:
    """The transition stencil derived in exact rational arithmetic.

    Builds the scheme ``sum alpha u = sum beta (kappa Lap u + K u)`` on the
    seven-point support, symmetric in y, that annihilates every monomial of
    total degree <= 4 except the pure ``x**4`` and ``y**4`` terms, with the
    f-weights (on both coarse neighbors and on the node itself) summing to
    one. The system is square and uniquely solvable for any ratio
    ``r >= 2``. Geometry is normalized to a coarse spacing of one; offset
    keys are fine steps, as in ``twogrid.stencils.hanging_coeffs``.
    """
    r, j = int(r), int(j)
    if not 1 <= j <= r - 1:
        raise BadParams(f"offset j={j} out of range for ratio {r}")
    kap = Fraction(kappa)
    KK = Fraction(K)
    d2 = Fraction(j, r)   # distance to the left coarse neighbor
    d1 = 1 - d2           # distance to the right one
    zero, one = Fraction(0), Fraction(1)

    def source(k1: int, k2: int, x: Fraction, y: Fraction) -> Fraction:
        return kap * _lap(k1, k2, x, y) + KK * _mono(k1, k2, x, y)

    # y-odd monomials hold by symmetry; x**4 and y**4 are released
    monos = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (1, 2), (2, 2)]
    rows, rhs = [], []
    for k1, k2 in monos:
        rows.append([
            _mono(k1, k2, -d2, one) + _mono(k1, k2, -d2, -one),  # corner pair, left
            _mono(k1, k2, d1, one) + _mono(k1, k2, d1, -one),    # corner pair, right
            _mono(k1, k2, -d2, zero),                            # mid left
            _mono(k1, k2, d1, zero),                             # mid right
            _mono(k1, k2, zero, zero),                           # self
            -source(k1, k2, -d2, zero),                          # beta left
            -source(k1, k2, d1, zero),                           # beta right
            -source(k1, k2, zero, zero),                         # beta self
        ])
        rhs.append(zero)
    rows.append([zero] * 5 + [one] * 3)
    rhs.append(one)
    a1, a2, a3, a4, a5, b1, b2, b3 = _solve_exact(rows, rhs)

    alphas = {(-j, -r): a1, (r - j, -r): a2, (-j, 0): a3, (r - j, 0): a4,
              (-j, r): a1, (r - j, r): a2, (0, 0): a5}
    betas = {(-j, 0): b1, (r - j, 0): b2}
    if b3 != 0:
        betas[(0, 0)] = b3
    return Stencil(alphas=alphas, betas=betas, correction=zero)


def eliminate_border_2d(h1, h2, h_y) -> Stencil:
    """The 2D border row derived in exact rational arithmetic.

    Solves the degree-four matching system for ``Lap u = f`` with
    y-symmetric U-weights on the 3x3 patch (x-offsets ``-h1, 0, +h2``,
    y-step ``h_y``) and f-weights on the x-triple and the two y-neighbors,
    summing to one. Offset keys are ``(di, dj)`` node steps, as in
    ``twogrid.stencils.border_coeffs_2d``.
    """
    h1, h2, h_y = Fraction(h1), Fraction(h2), Fraction(h_y)
    if h1 <= 0 or h2 <= 0 or h_y <= 0:
        raise BadParams("spacings must be positive")
    zero = Fraction(0)

    # unknowns: aW aC aE (dy=0), aWn aCn aEn (dy=+-1 pairs),
    #           bW bC bE (dy=0), bCn (dy=+-1 pair)
    monos = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 2), (0, 4), (1, 2), (2, 2)]
    xs = (-h1, zero, h2)
    rows, rhs = [], []
    for k1, k2 in monos:
        row = [_mono(k1, k2, x, zero) for x in xs]
        row += [_mono(k1, k2, x, h_y) + _mono(k1, k2, x, -h_y) for x in xs]
        row += [-_lap(k1, k2, x, zero) for x in xs]
        row += [-(_lap(k1, k2, zero, h_y) + _lap(k1, k2, zero, -h_y))]
        rows.append(row)
        rhs.append(zero)
    rows.append([zero] * 6 + [Fraction(1)] * 3 + [Fraction(2)])
    rhs.append(Fraction(1))
    aW, aC, aE, aWn, aCn, aEn, bW, bC, bE, bCn = _solve_exact(rows, rhs)
    alphas = {(-1, 0): aW, (0, 0): aC, (1, 0): aE}
    for dj in (-1, 1):
        alphas[(-1, dj)] = aWn
        alphas[(0, dj)] = aCn
        alphas[(1, dj)] = aEn
    betas = {(-1, 0): bW, (0, 0): bC, (1, 0): bE, (0, -1): bCn, (0, 1): bCn}
    return Stencil(alphas=alphas, betas=betas, correction=zero)
