"""Finite-difference stencils for the composite two-grid discretization.

Every generator returns a :class:`Stencil` describing one row of the linear
system in the form

    sum_k alpha_k * U(x_center + offset_k)  =  sum_k beta_k * f(...) + correction

Offsets are dictionary keys; their units are documented per generator.
The spacings and coefficients of the 1D and strip generators may be arrays of
per-row values, which makes every weight an array over those rows. Sign
convention throughout: negative diagonal, nonnegative off-diagonal entries
(the assembled operator approximates ``kappa * Lap u + K u``).

The fourth-order compact rows of the coarse lattice and the border rows at
a mesh-size jump come from one closed form per dimension, taken at each
node's own spacings: equal spacings give the compact row. These, and the
transition ("hanging") stencils that tie fine tube nodes to the coarse
lattice, are exact rationals for every refinement ratio and for rational
spacings, with a general ``kappa`` and reaction term folded in where the
scheme allows.

Assembly owns the rounding of the rows it stores: it rounds each row's
off-diagonal weights and writes the diagonal as the row's target minus
their sum. So a closed form here is written for its rationals, not for the
bits of its floats, and no generator's diagonal reaches the matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .errors import BadParams

Number = Union[float, Fraction]


@dataclass
class Stencil:
    """One discrete equation: U-weights, f-weights, and an RHS correction."""

    alphas: Dict
    betas: Dict
    correction: Number = 0.0

    def alpha_sum(self) -> Number:
        return sum(self.alphas.values())

    def beta_sum(self) -> Number:
        return sum(self.betas.values())


# ---------------------------------------------------------------------------
# one-dimensional stencils
# ---------------------------------------------------------------------------

def border_coeffs_1d(h1: float, h2: float, kappa: float, K: float) -> Stencil:
    """Compact scheme for ``kappa u'' + K u = f`` at spacings ``h1``, ``h2``.

    The center node has a neighbor at distance ``h1`` to the left and ``h2``
    to the right. Offset keys -1, 0, +1 refer to those three nodes. Third
    order at a mesh-size transition; ``h1 == h2 == h`` gives the
    fourth-order compact row, f-weights ``(1, 10, 1)/12`` and U-weights
    ``kappa (1, -2, 1)/h**2``. The reaction term is folded onto the left
    side through the f-weights. The f-weights sum to one; the outer ones
    may be negative for strongly graded spacings.

    Arithmetic is type-preserving: Fraction inputs give exact rational
    coefficients.
    """
    if np.any(h1 <= 0) or np.any(h2 <= 0):
        raise BadParams(f"spacings must be positive, got h1={h1}, h2={h2}")
    s = h1 + h2
    betas = {
        -1: (h1 * h1 - h2 * h2 + h1 * h2) / (6 * h1 * s),
        0: (h1 * h1 + h2 * h2 + 3 * h1 * h2) / (6 * h1 * h2),
        1: (-h1 * h1 + h2 * h2 + h1 * h2) / (6 * h2 * s),
    }
    alphas = {
        -1: 2 * kappa / (h1 * s) + K * betas[-1],
        0: -2 * kappa / (h1 * h2) + K * betas[0],
        1: 2 * kappa / (h2 * s) + K * betas[1],
    }
    return Stencil(alphas=alphas, betas=betas)


def centered_nonuniform_1d(eps: float, p: float, q: float,
                           h1: float, h2: float) -> Stencil:
    """Second-order centered scheme for ``eps u'' + p u' + q u = f``.

    ``eps`` is the diffusion coefficient kappa of the 1D layer. Neighbors at
    ``-h1`` and ``+h2``; plain pointwise right side. ``eps``, ``h1`` and
    ``h2`` may each be a scalar or one value per row.
    """
    if np.any(h1 <= 0) or np.any(h2 <= 0):
        raise BadParams(f"spacings must be positive, got h1={h1}, h2={h2}")
    s = h1 + h2
    d2 = {-1: 2.0 / (h1 * s), 0: -2.0 / (h1 * h2), 1: 2.0 / (h2 * s)}
    d1 = {-1: -h2 / h1 / s, 0: (h2 / h1 - h1 / h2) / s, 1: h1 / h2 / s}
    alphas = {k: eps * d2[k] + p * d1[k] for k in (-1, 0, 1)}
    alphas[0] += q
    return Stencil(alphas=alphas, betas={0: 1.0})


# ---------------------------------------------------------------------------
# two-dimensional stencils
# ---------------------------------------------------------------------------

def strip_mixed_order_2d(h_f: float, h_y: float,
                         xgamma: Optional[Tuple[float, float, float]] = None,
                         correction: float = 0.0,
                         kappa: float = 1.0) -> Stencil:
    """Anisotropic scheme for strips refined in x only (fine ``h_f``, coarse ``h_y``).

    Couples a fourth-order compact treatment of ``kappa u_xx`` (1-10-1
    weighting of the rows above/at/below) with the plain three-point
    ``kappa u_yy``. Offset keys ``(di, dj)``: x-steps of ``h_f``, y-steps of
    ``h_y``.

    ``xgamma`` overrides the three x-direction weights, which is how an
    interface-fitted triple (with its RHS ``correction``) is lifted into the
    strip; the default is ``kappa * (1, -2, 1)/h_f**2``. ``kappa`` always
    scales the y-part.
    """
    if xgamma is None:
        xgamma = (kappa / h_f**2, -2.0 * kappa / h_f**2, kappa / h_f**2)
    gm, g0, gp = xgamma
    w = {-1: gm, 0: g0, 1: gp}
    alphas: Dict[Tuple[int, int], float] = {}
    for di in (-1, 0, 1):
        alphas[(di, 0)] = 10.0 / 12.0 * w[di]
        alphas[(di, 1)] = w[di] / 12.0
        alphas[(di, -1)] = w[di] / 12.0
    alphas[(0, 1)] += kappa / h_y**2
    alphas[(0, -1)] += kappa / h_y**2
    alphas[(0, 0)] += -2.0 * kappa / h_y**2
    betas = {(0, -1): 1.0 / 12.0, (0, 0): 10.0 / 12.0, (0, 1): 1.0 / 12.0}
    return Stencil(alphas=alphas, betas=betas, correction=correction)


def border_coeffs_2d(h1: float, h2: float, h_y: float) -> Stencil:
    """Compact scheme for ``Lap u = f`` at x-spacings ``h1``, ``h2``.

    The x-neighbors are at ``-h1`` and ``+h2``, the y-step is ``h_y``.
    Nine U-weights on the 3x3 patch and five f-weights (the x-triple plus the
    two y-neighbors; no corner f-weights). Offset keys ``(di, dj)`` with
    ``di`` in (-1, 0, 1) mapping to physical x-offsets ``(-h1, 0, +h2)``.
    Scale the U-weights by ``kappa`` for ``kappa Lap u``. The f-weights sum
    to one. ``h1 == h2 == h_y == h`` gives the fourth-order compact
    nine-point row: U-weights ``(1, 4, -20)/(6 h**2)`` at the corners, edges
    and center, f-weights 8/12 at the center and 1/12 per edge. Derived by
    matching all monomials through total degree four. Arithmetic is
    type-preserving: Fraction spacings give exact rational coefficients.
    """
    if np.any(h1 <= 0) or np.any(h2 <= 0) or h_y <= 0:
        raise BadParams("spacings must be positive")
    s = h1 + h2
    hy2 = h_y * h_y
    alphas = {
        (-1, 0): (-h1 * h1 - h1 * h2 + h2 * h2 + 5 * hy2) / (3 * h1 * hy2 * s),
        (0, 0): -(h1 * h1 + 3 * h1 * h2 + h2 * h2 + 5 * hy2) / (3 * h1 * h2 * hy2),
        (1, 0): (h1 * h1 - h1 * h2 - h2 * h2 + 5 * hy2) / (3 * h2 * hy2 * s),
    }
    for dj in (-1, 1):
        alphas[(-1, dj)] = (h1 * h1 + h1 * h2 - h2 * h2 + hy2) / (6 * h1 * hy2 * s)
        alphas[(0, dj)] = (h1 * h1 + 3 * h1 * h2 + h2 * h2 - hy2) / (6 * h1 * h2 * hy2)
        alphas[(1, dj)] = (-h1 * h1 + h1 * h2 + h2 * h2 + hy2) / (6 * h2 * hy2 * s)
    betas = {
        (-1, 0): (h1 * h1 + h1 * h2 - h2 * h2) / (6 * h1 * s),
        (0, 0): s * s / (6 * h1 * h2),
        (1, 0): (-h1 * h1 + h1 * h2 + h2 * h2) / (6 * h2 * s),
        (0, -1): Fraction(1, 12),
        (0, 1): Fraction(1, 12),
    }
    return Stencil(alphas=alphas, betas=betas)


# ---------------------------------------------------------------------------
# transition (hanging-node) stencils
# ---------------------------------------------------------------------------

def hanging_coeffs(r: int, j: int) -> Stencil:
    """Seven-point transition stencil for a tube-edge fine node, any ratio.

    The node sits between two coarse neighbors a coarse step ``h`` apart, at
    ``j`` fine steps (``j*h/r``) from the left one. The seven U-weights live
    on the two coarse columns at y-offsets ``0, +-h`` plus the node itself;
    the two f-weights sit on the flanking coarse nodes. Offset keys are in
    fine steps ``h/r`` relative to the node, so the coarse columns are at
    ``-j`` and ``r - j`` and the y-offsets are ``+-r``. Values are exact
    rationals normalized to ``h = 1``; scale by ``kappa / h**2`` to apply.

    With ``d = j/r``: corners and f-weights ``(2-d)/3`` left, ``(1+d)/3``
    right; middles ``2(d**2-2d+3)/(3d)`` and ``2(d**2+2)/(3(1-d))``; center
    ``2/(d(d-1))``. These are the unique y-symmetric weights on this support
    that are exact on every monomial of total degree <= 4 except ``x**4``
    and ``y**4``, with f-weights summing to one.
    """
    r, j = int(r), int(j)
    if not 1 <= j <= r - 1:
        raise BadParams(f"offset j={j} out of range for ratio {r}")
    d = Fraction(j, r)
    left, right = (2 - d) / 3, (1 + d) / 3
    alphas = {
        (-j, -r): left, (r - j, -r): right,
        (-j, 0): 2 * (d * d - 2 * d + 3) / (3 * d),
        (r - j, 0): 2 * (d * d + 2) / (3 * (1 - d)),
        (-j, r): left, (r - j, r): right,
        (0, 0): 2 / (d * (d - 1)),
    }
    betas = {(-j, 0): left, (r - j, 0): right}
    return Stencil(alphas=alphas, betas=betas, correction=Fraction(0))


def derive_hanging_coeffs(r: int, j: int, kappa=1, K=0) -> Stencil:
    """Transition stencil of :func:`hanging_coeffs` for ``kappa Lap u + K u``.

    Every U-weight is ``kappa * a + K * beta`` at its offset and the
    f-weights are unchanged: the reaction term is folded onto the left side
    through the f-weights, as in :func:`border_coeffs_1d`. Exact rationals
    for rational ``kappa`` and ``K``; ``kappa=1, K=0`` gives
    :func:`hanging_coeffs` itself.
    """
    st = hanging_coeffs(r, j)
    kappa, K = Fraction(kappa), Fraction(K)
    alphas = {k: kappa * a + K * st.betas.get(k, 0)
              for k, a in st.alphas.items()}
    return Stencil(alphas=alphas, betas=st.betas, correction=st.correction)
