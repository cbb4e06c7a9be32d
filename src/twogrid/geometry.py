"""Level-set geometry: interface location, local frames, curvature.

Conventions used throughout the package:

* the interface is the zero set of a scalar field ``phi``;
* ``phi < 0`` is the "minus" side (inside), ``phi > 0`` the "plus" side;
* the unit normal points toward ``phi > 0``;
* the unit tangent is the normal rotated a quarter turn counterclockwise,
  so for a closed curve traversed counterclockwise the minus side is the
  enclosed region;
* curvature is ``div(grad phi / |grad phi|)`` at the foot point, which is
  positive for a circle enclosing the minus side (``1/R``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import NonConvergence

Point = Sequence[float]


@dataclass
class LevelSet:
    """Scalar field whose zero set is the interface.

    Parameters
    ----------
    phi : callable
        ``phi(x, y) -> float``; must also accept numpy arrays elementwise.
    grad : callable, optional
        ``grad(x, y) -> (gx, gy)``. Finite differences are used when absent.
    samples : array_like, optional
        Points on (or near) the interface used as initial guesses for
        projection; shape ``(m, 2)``.
    scale : float
        Characteristic length of the geometry. Sets finite-difference steps
        and convergence tolerances.
    """

    phi: Callable[[float, float], float]
    grad: Optional[Callable[[float, float], tuple]] = None
    samples: Optional[np.ndarray] = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.samples is not None:
            self.samples = np.asarray(self.samples, dtype=float)


@dataclass(frozen=True)
class InterfaceFrame:
    """Local frame of the interface at a projection foot.

    ``normal`` points toward ``phi > 0``; ``tangent`` is the normal rotated
    90 degrees counterclockwise; ``curvature`` is the divergence of the unit
    normal field at the foot.
    """

    foot: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    curvature: float


def _grad(ls: LevelSet, x: float, y: float) -> np.ndarray:
    if ls.grad is not None:
        gx, gy = ls.grad(x, y)
        return np.array([float(gx), float(gy)])
    d = 1e-4 * ls.scale
    f = ls.phi
    gx = (-f(x + 2 * d, y) + 8 * f(x + d, y) - 8 * f(x - d, y) + f(x - 2 * d, y)) / (12 * d)
    gy = (-f(x, y + 2 * d) + 8 * f(x, y + d) - 8 * f(x, y - d) + f(x, y - 2 * d)) / (12 * d)
    return np.array([float(gx), float(gy)])


def _d2_central(f: Callable[[float], float], d: float) -> float:
    # fourth-order five-point second derivative at 0
    return (-f(2 * d) + 16 * f(d) - 30 * f(0.0) + 16 * f(-d) - f(-2 * d)) / (12 * d * d)


def _d1_central(f: Callable[[float], float], d: float) -> float:
    return (-f(2 * d) + 8 * f(d) - 8 * f(-d) + f(-2 * d)) / (12 * d)


def curvature_at(ls: LevelSet, p: Point) -> float:
    """Divergence of the unit normal at ``p`` via fourth-order differences."""
    x, y = float(p[0]), float(p[1])
    d = 1e-3 * ls.scale
    f = ls.phi
    fxx = _d2_central(lambda t: f(x + t, y), d)
    fyy = _d2_central(lambda t: f(x, y + t), d)
    fxy = _d1_central(lambda s: _d1_central(lambda t: f(x + s, y + t), d), d)
    g = _grad(ls, x, y)
    gn = float(np.hypot(g[0], g[1]))
    return float((fxx * g[1] ** 2 - 2.0 * g[0] * g[1] * fxy + fyy * g[0] ** 2) / gn**3)


def project_to_interface(ls: LevelSet, p: Point, max_iter: int = 50) -> InterfaceFrame:
    """Orthogonal projection of ``p`` onto the zero set of ``ls``.

    Damped Newton iteration on the coupled conditions ``phi(X) = 0`` and
    ``(X - p) . tangent(X) = 0``. Raises :class:`NonConvergence` if the
    residual does not drop below ``1e-12 * scale`` within ``max_iter`` steps.
    """
    p = np.asarray(p, dtype=float)
    tol = 1e-12 * ls.scale

    X = p.copy()
    if ls.samples is not None and len(ls.samples):
        d2 = np.sum((ls.samples - p) ** 2, axis=1)
        X = ls.samples[int(np.argmin(d2))].copy()

    # a few gradient-descent steps onto the curve before the coupled solve
    for _ in range(3):
        g = _grad(ls, X[0], X[1])
        gn2 = float(g @ g)
        if gn2 == 0.0:
            break
        X = X - float(ls.phi(X[0], X[1])) / gn2 * g

    def residual(X: np.ndarray) -> tuple:
        g = _grad(ls, X[0], X[1])
        gn = float(np.hypot(g[0], g[1]))
        if gn == 0.0:
            raise NonConvergence("level-set gradient vanished during projection")
        n = g / gn
        t = np.array([-n[1], n[0]])
        F = np.array([float(ls.phi(X[0], X[1])) / gn, float((X - p) @ t)])
        return F, n, t

    F, n, t = residual(X)
    for _ in range(max_iter):
        if float(np.abs(F).max()) < tol:
            kappa = curvature_at(ls, X)
            return InterfaceFrame(foot=X, normal=n, tangent=t, curvature=kappa)
        # rows: grad(phi)/|g| ~ n ; tangency condition ~ t (curvature terms dropped)
        J = np.vstack([n, t])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("singular projection Jacobian") from exc
        lam = 1.0
        best = float(np.abs(F).max())
        for _ in range(30):
            Xn = X + lam * step
            Fn, nn, tn = residual(Xn)
            if float(np.abs(Fn).max()) < best:
                X, F, n, t = Xn, Fn, nn, tn
                break
            lam *= 0.5  # damping
        else:
            raise NonConvergence("projection line search stalled")
    raise NonConvergence(f"projection did not converge in {max_iter} iterations")


def segment_crossing(ls: LevelSet, a: Point, b: Point) -> np.ndarray:
    """Root of ``phi`` along the segment from ``a`` to ``b``.

    The endpoints must straddle the zero set. Returns the crossing point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = float(ls.phi(a[0], a[1]))
    fb = float(ls.phi(b[0], b[1]))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("segment endpoints do not straddle the interface")
    tstar = brentq(lambda t: float(ls.phi(*(a + t * (b - a)))), 0.0, 1.0, xtol=1e-15)
    return a + tstar * (b - a)
