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

Every query takes a batch of points, an ``(m, 2)`` array (``m`` may be 0),
and gives results with a leading axis of length ``m``; any other shape
raises :class:`BadParams`. Each point's result depends on that point alone,
bit for bit, whatever else is in the batch. Gradients and curvature come
from finite differences of ``phi``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, NonConvergence

# Sample distances computed at once when seeding a projection: 4 MB per
# temporary, so the seeding never holds an (m, n_samples) array.
_SEED_CHUNK = 1 << 19
# Newton steps a projection may take before it gives up.
_NEWTON_STEPS = 50


@dataclass
class LevelSet:
    """Scalar field whose zero set is the interface.

    Parameters
    ----------
    phi : callable
        ``phi(x, y) -> float``; must also accept numpy arrays elementwise.
    samples : array_like, optional
        Points on (or near) the interface used as initial guesses for
        projection; shape ``(m, 2)``.

    Finite-difference steps and the projection tolerance assume a geometry
    of unit size.
    """

    phi: Callable[[float, float], float]
    samples: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.samples is not None:
            self.samples = np.asarray(self.samples, dtype=float)


@dataclass(frozen=True)
class InterfaceFrame:
    """Local frame of the interface at a projection foot.

    ``normal`` points toward ``phi > 0``; ``tangent`` is the normal rotated
    90 degrees counterclockwise; ``curvature`` is the divergence of the unit
    normal field at the foot. ``foot``, ``normal`` and ``tangent`` have
    shape ``(m, 2)`` and ``curvature`` shape ``(m,)``.
    """

    foot: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    curvature: np.ndarray


def _xy(p) -> tuple:
    """Contiguous coordinate arrays of an ``(m, 2)`` point batch. Contiguous
    copies keep every elementwise kernel on the same code path whatever the
    batch size."""
    P = np.asarray(p, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise BadParams(f"expected an (m, 2) batch of points, got shape "
                        f"{P.shape}")
    return np.ascontiguousarray(P[:, 0]), np.ascontiguousarray(P[:, 1])


def _grad(ls: LevelSet, x: np.ndarray, y: np.ndarray) -> tuple:
    d = 1e-4
    f = ls.phi
    gx = _d1_central(lambda t: f(x + t, y), d)
    gy = _d1_central(lambda t: f(x, y + t), d)
    return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)


def _d2_central(f: Callable, d: float):
    # fourth-order five-point second derivative at 0
    return (-f(2 * d) + 16 * f(d) - 30 * f(0.0) + 16 * f(-d) - f(-2 * d)) / (12 * d * d)


def _d1_central(f: Callable, d: float):
    return (-f(2 * d) + 8 * f(d) - 8 * f(-d) + f(-2 * d)) / (12 * d)


def _curvature(ls: LevelSet, x: np.ndarray, y: np.ndarray, gx: np.ndarray,
               gy: np.ndarray) -> np.ndarray:
    """Curvature at ``(x, y)``, where the gradient is ``(gx, gy)``."""
    d = 1e-3
    f = ls.phi
    fxx = _d2_central(lambda t: f(x + t, y), d)
    fyy = _d2_central(lambda t: f(x, y + t), d)
    fxy = _d1_central(lambda s: _d1_central(lambda t: f(x + s, y + t), d), d)
    gn = np.hypot(gx, gy)
    return np.asarray((fxx * gy**2 - 2.0 * gx * gy * fxy + fyy * gx**2) / gn**3,
                      dtype=float)


def _nearest_samples(ls: LevelSet, x: np.ndarray, y: np.ndarray) -> tuple:
    """The interface sample nearest to each point (first on ties), or the
    points themselves when the level set has no samples."""
    if ls.samples is None or not len(ls.samples):
        return x.copy(), y.copy()
    sx = np.ascontiguousarray(ls.samples[:, 0])
    sy = np.ascontiguousarray(ls.samples[:, 1])
    idx = np.empty(len(x), dtype=np.intp)
    rows = max(1, _SEED_CHUNK // len(sx))
    for lo in range(0, len(x), rows):
        hi = lo + rows
        d2 = (sx - x[lo:hi, None]) ** 2 + (sy - y[lo:hi, None]) ** 2
        idx[lo:hi] = np.argmin(d2, axis=1)
    return sx[idx], sy[idx]


def _point(x: np.ndarray, y: np.ndarray, k: int) -> str:
    return f"point {k} ({x[k]:.6g}, {y[k]:.6g})"


def project_to_interface(ls: LevelSet, p) -> InterfaceFrame:
    """Orthogonal projection of ``p`` onto the zero set of ``ls``.

    Undamped Newton iteration on ``F0 = phi / |grad phi|`` and
    ``F1 = (X - p) . t``, run for all points of the batch at once from the
    nearest interface sample. The Jacobian has the rows ``n`` and
    ``(1 - kappa d) t``, where ``d = (X - p) . n`` (Saye, CAMCoS 9, 2014),
    so a step is ``X -= F0 n + F1 / (1 - kappa d) t``. A point leaves the
    iteration once ``max(|F0|, |F1|) < 1e-12`` and reports the normal and
    curvature of that iterate. Raises :class:`NonConvergence`, naming the
    first point that failed, if a point's gradient vanishes or it does not
    converge within 50 Newton steps.
    """
    px, py = _xy(p)
    X, Y = _nearest_samples(ls, px, py)
    m = len(X)
    NX, NY, K = np.empty(m), np.empty(m), np.empty(m)
    act = np.arange(m)
    for _ in range(_NEWTON_STEPS):
        x, y = X[act], Y[act]
        gx, gy = _grad(ls, x, y)
        gn = np.hypot(gx, gy)
        if (gn == 0.0).any():
            k = act[np.argmax(gn == 0.0)]
            raise NonConvergence("level-set gradient vanished during "
                                 f"projection of {_point(px, py, k)}")
        nx, ny = gx / gn, gy / gn
        kappa = _curvature(ls, x, y, gx, gy)
        lx, ly = x - px[act], y - py[act]
        F0 = np.asarray(ls.phi(x, y), dtype=float) / gn
        F1 = -lx * ny + ly * nx
        conv = np.maximum(np.abs(F0), np.abs(F1)) < 1e-12
        c = act[conv]
        NX[c], NY[c], K[c] = nx[conv], ny[conv], kappa[conv]
        keep = ~conv
        act, x, y, lx, ly, nx, ny, kappa, F0, F1 = (
            a[keep] for a in (act, x, y, lx, ly, nx, ny, kappa, F0, F1))
        if not len(act):
            break
        s = F1 / (1.0 - kappa * (lx * nx + ly * ny))
        X[act] = x - F0 * nx + s * ny
        Y[act] = y - F0 * ny - s * nx
    else:
        raise NonConvergence(
            f"projection of {_point(px, py, act[0])} did not converge in "
            f"{_NEWTON_STEPS} iterations")
    return InterfaceFrame(foot=np.column_stack([X, Y]),
                          normal=np.column_stack([NX, NY]),
                          tangent=np.column_stack([-NY, NX]), curvature=K)


def segment_crossing(ls: LevelSet, a, b) -> np.ndarray:
    """Root of ``phi`` along each segment from ``a[k]`` to ``b[k]``, for two
    ``(m, 2)`` batches of endpoints.

    The endpoints of every segment must straddle the zero set; a segment
    whose endpoints do not raises :class:`BadParams`. An endpoint where
    ``phi`` is exactly zero is returned as is; otherwise a bisection on the
    segment parameter runs for all segments at once until the bracket is
    narrower than ``1e-15``. Returns the crossing points.
    """
    ax, ay = _xy(a)
    bx, by = _xy(b)
    if len(ax) != len(bx):
        raise BadParams(f"{len(ax)} segment starts but {len(bx)} ends")
    fa = np.asarray(ls.phi(ax, ay), dtype=float)
    fb = np.asarray(ls.phi(bx, by), dtype=float)
    if (fa * fb > 0.0).any():
        k = int(np.argmax(fa * fb > 0.0))
        raise BadParams(f"segment {k} from ({ax[k]:.6g}, {ay[k]:.6g}) to "
                        f"({bx[k]:.6g}, {by[k]:.6g}) does not straddle "
                        "the interface")
    dx, dy = bx - ax, by - ay
    t = np.zeros(len(ax))
    act = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    lo, hi = np.zeros(len(act)), np.ones(len(act))
    flo, fhi = fa[act], fb[act]
    while len(act):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(ls.phi(ax[act] + mid * dx[act],
                               ay[act] + mid * dy[act]), dtype=float)
        left = (fm * flo) > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
        fhi = np.where(left, fhi, fm)
        # an exact root becomes the end hi, where phi is zero
        fin = (fm == 0.0) | (hi - lo <= 1e-15)
        t[act[fin]] = np.where(np.abs(flo) <= np.abs(fhi), lo, hi)[fin]
        keep = ~fin
        act, lo, hi, flo, fhi = act[keep], lo[keep], hi[keep], flo[keep], fhi[keep]
    X = np.where(fa == 0.0, ax, np.where(fb == 0.0, bx, ax + t * dx))
    Y = np.where(fa == 0.0, ay, np.where(fb == 0.0, by, ay + t * dy))
    return np.column_stack([X, Y])
