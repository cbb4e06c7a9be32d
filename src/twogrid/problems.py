"""Benchmark problem definitions with closed-form solutions.

Every problem carries side-aware callables: the source ``f(x, y, side)``,
the Dirichlet trace ``boundary(x, y, side)`` and ``exact(x, y, side)``,
where ``side`` is -1 on the minus side of the interface (``phi <= 0``)
and +1 elsewhere; all accept numpy arrays. 1D problems ignore ``y``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import BadParams, NoExactSolution, UnknownProblem
from .geometry import InterfaceFrame, LevelSet, project_to_interface
from .grid import NodeTag, tagged
from .iim import JumpData, jump_scalars


@dataclass
class ProblemSpec:
    """A benchmark instance: coefficients, data, geometry, exact solution.

    The equation is ``kappa Lap u + conv u_x + K u = f``, where ``kappa`` is
    ``kappa_minus`` on the minus side of the interface and ``kappa_plus``
    elsewhere. The geometry selects the mesh and the scheme:

    * a 1D ``domain`` ``(a, b)`` with the interface point ``alpha``: fitted
      rows at the point and fourth-order compact rows elsewhere; it takes
      ``jumps``, both kappas and ``K``;
    * a 1D domain without ``alpha``: a boundary layer refined at the right
      end, with centred convection-reaction rows; it takes one kappa (the
      layer's ``eps``), ``conv`` and ``K``;
    * a 2D domain ``((ax, bx), (ay, by))`` refined around the zero set of
      ``interface`` or the line ``x = alpha``, exactly one of which it
      names; it takes ``jumps`` and both kappas, with ``conv = K = 0``.

    Both kappas are positive and finite, ``K`` and ``conv`` finite. A 1D
    problem names no ``interface``, an ``alpha`` interface carries
    ``jumps`` with scalar ``w`` and ``v`` and no ``wp``, ``wpp`` or ``vp``,
    ``jumps`` need an interface, and unequal kappas need ``jumps``. A
    setting its geometry does not take raises :class:`BadParams` here,
    since assembly would ignore it. ``boundary`` takes ``(x, y, side)``.
    """

    name: str
    domain: Tuple
    f: Callable
    boundary: Callable
    exact: Optional[Callable] = None
    kappa_minus: float = 1.0
    kappa_plus: float = 1.0
    K: float = 0.0
    jumps: Optional[JumpData] = None
    interface: Optional[LevelSet] = None
    alpha: Optional[float] = None
    conv: float = 0.0

    def __post_init__(self) -> None:
        for key in ("kappa_minus", "kappa_plus"):
            if not 0 < getattr(self, key) < math.inf:
                raise BadParams(f"{self.name}: {key} must be positive and "
                                f"finite, got {getattr(self, key)}")
        for key in ("K", "conv"):
            if not math.isfinite(getattr(self, key)):
                raise BadParams(f"{self.name}: {key} must be finite, got "
                                f"{getattr(self, key)}")
        if self.dim == 1 and self.interface is not None:
            raise BadParams(f"{self.name}: a 1D problem has no interface "
                            "curve; its interface is the point alpha")
        if self.dim == 2 and (self.interface is None) == (self.alpha is None):
            raise BadParams(f"{self.name}: a 2D problem needs exactly one of "
                            "interface and alpha")
        if self.alpha is not None and self.jumps is None:
            raise BadParams(f"{self.name}: an alpha interface needs jumps")
        if self.alpha is not None and any(
                q is not None for q in (self.jumps.wp, self.jumps.wpp,
                                        self.jumps.vp)):
            raise BadParams(f"{self.name}: an alpha interface takes scalar "
                            "jumps w and v, without wp, wpp or vp")
        if (self.jumps is not None and self.alpha is None
                and self.interface is None):
            raise BadParams(f"{self.name}: jumps need an interface")
        if self.conv and not (self.dim == 1 and self.alpha is None):
            raise BadParams(f"{self.name}: only the 1D layer takes conv")
        if self.kappa_minus != self.kappa_plus and self.jumps is None:
            raise BadParams(f"{self.name}: unequal kappas need jumps")
        if self.K and self.dim == 2:
            raise BadParams(f"{self.name}: 2D assembly supports only K == 0")

    @property
    def dim(self) -> int:
        return np.ndim(self.domain)


def _take(params: Optional[dict], defaults: dict, name: str) -> dict:
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise BadParams(f"{name}: unknown parameters {sorted(unknown)}; "
                        f"accepted: {sorted(defaults)}")
    out = dict(defaults)
    for key, value in params.items():
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError("a flag is not a number")
            out[key] = float(value)
        except (TypeError, ValueError, OverflowError):
            raise BadParams(f"{name}: parameter {key!r} must be a number, "
                            f"got {value!r}") from None
    return out


# ---------------------------------------------------------------------------
# 1D benchmarks
# ---------------------------------------------------------------------------

def _boundary_layer_1d(params) -> ProblemSpec:
    p = _take(params, {"eps": 1e-3}, "boundary_layer_1d")
    eps = p["eps"]
    if not 0 < eps <= 0.25:
        raise BadParams(f"eps must be in (0, 1/4], got {eps}")
    m = (1.0 + math.sqrt(1.0 - 4.0 * eps)) / (2.0 * eps)
    c2 = 2.0 / (1.0 - math.exp(-m))
    c1 = 3.0 - c2

    def exact(x, y, side):
        return c1 + c2 * np.exp(m * (np.asarray(x, dtype=float) - 1.0))

    return ProblemSpec(
        name="boundary_layer_1d", domain=(0.0, 1.0),
        f=lambda x, y, side: c1 + 0.0 * np.asarray(x, dtype=float),
        boundary=exact, exact=exact, kappa_minus=eps, kappa_plus=eps,
        conv=-1.0, K=1.0)


def _piecewise_kappa_1d(params) -> ProblemSpec:
    p = _take(params, {"alpha": 17.0 / 30.0, "kappa_minus": 4.0,
                       "kappa_plus": 50.0}, "piecewise_kappa_1d")
    alpha, km, kp = p["alpha"], p["kappa_minus"], p["kappa_plus"]
    if not 0 < alpha < 1:
        raise BadParams(f"alpha must be interior to (0, 1), got {alpha}")

    def exact(x, y, side):
        x = np.asarray(x, dtype=float)
        shift = alpha**4 * (1.0 / km - 1.0 / kp)
        return np.where(np.asarray(side) < 0, x**4 / km, x**4 / kp + shift)

    return ProblemSpec(
        name="piecewise_kappa_1d", domain=(0.0, 1.0),
        f=lambda x, y, side: 12.0 * np.asarray(x, dtype=float) ** 2,
        boundary=exact, exact=exact, kappa_minus=km, kappa_plus=kp,
        jumps=JumpData(w=0.0, v=0.0), alpha=alpha)


# ---------------------------------------------------------------------------
# 2D benchmarks
# ---------------------------------------------------------------------------

def _line_interface_2d(params) -> ProblemSpec:
    p = _take(params, {"alpha": 33.0 / 70.0}, "line_interface_2d")
    alpha = p["alpha"]
    if not 0 < alpha < 1:
        raise BadParams(f"alpha must be interior to (0, 1), got {alpha}")

    def exact(x, y, side):
        x = np.asarray(x, dtype=float)
        base = np.sin(np.pi * np.asarray(y, dtype=float))
        return np.where(np.asarray(side) < 0,
                        x * (alpha - 1.0) + base, alpha * (x - 1.0) + base)

    return ProblemSpec(
        name="line_interface_2d", domain=((0.0, 1.0), (0.0, 1.0)),
        f=lambda x, y, side: (-np.pi**2 * np.sin(np.pi * np.asarray(y, float))
                              + 0.0 * np.asarray(x, dtype=float)),
        boundary=exact, exact=exact, jumps=JumpData(w=0.0, v=1.0),
        alpha=alpha)


def _peskin_circle(params) -> ProblemSpec:
    p = _take(params, {"radius": 0.5}, "peskin_circle")
    R = p["radius"]
    if not 0 < R < 1:
        raise BadParams(f"radius must be in (0, 1), got {R}")

    def phi(x, y):
        return np.hypot(x, y) - R

    ts = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    samples = np.column_stack([R * np.cos(ts), R * np.sin(ts)])

    def exact(x, y, side):
        r2 = np.maximum(np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2,
                        1e-300)
        return np.where(np.asarray(side) < 0, 1.0,
                        1.0 + np.log(np.sqrt(r2) / R))

    return ProblemSpec(
        name="peskin_circle", domain=((-1.0, 1.0), (-1.0, 1.0)),
        f=lambda x, y, side: 0.0 * np.asarray(x, dtype=float),
        boundary=exact, exact=exact, jumps=JumpData(w=0.0, v=1.0 / R),
        interface=LevelSet(phi=phi, samples=samples))


def _flower(params) -> ProblemSpec:
    p = _take(params, {"kappa_minus": 1.0, "kappa_plus": 10.0}, "flower")
    km, kp = p["kappa_minus"], p["kappa_plus"]

    def phi(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        raw = r - 0.5 - 0.1 * np.sin(8.0 * th)
        norm = np.sqrt(1.0 + (0.8 * np.cos(8.0 * th)
                              / np.maximum(r, 0.35)) ** 2)
        return raw / norm

    ts = np.linspace(0.0, 2.0 * math.pi, 1440, endpoint=False)
    rho_s = 0.5 + 0.1 * np.sin(8.0 * ts)
    samples = np.column_stack([rho_s * np.cos(ts), rho_s * np.sin(ts)])

    def exact(x, y, side):
        r2 = np.maximum(np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2,
                        1e-300)
        return np.where(np.asarray(side) < 0, r2 / km,
                        (r2 * r2 - 0.1 * np.log(2.0 * np.sqrt(r2))) / kp)

    jumps = _flower_jumps(km, kp)

    return ProblemSpec(
        name="flower", domain=((-1.0, 1.0), (-1.0, 1.0)),
        f=lambda x, y, side: np.where(
            np.asarray(side) < 0, 4.0,
            16.0 * (np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2)),
        boundary=exact, exact=exact, kappa_minus=km, kappa_plus=kp,
        jumps=jumps, interface=LevelSet(phi=phi, samples=samples))


def _flower_jumps(km: float, kp: float) -> JumpData:
    """Interface data for the flower benchmark in closed form, evaluated
    through the polar angle of the foot.

    On the curve ``rho(theta) = 1/2 + sin(8 theta)/10`` the speed is
    ``S = sqrt(rho'^2 + rho^2)``, the outward normal's radial component is
    ``rho / S`` and ``d/ds = (1/S) d/dtheta``. The jumps are functions of
    ``rho`` alone, ``w = W(rho)`` and ``v = Q(rho) / S``, so the chain rule
    gives every arclength derivative.
    """
    def fields(x, y):
        th = np.arctan2(y, x)
        rho = 0.5 + 0.1 * np.sin(8.0 * th)
        d1 = 0.8 * np.cos(8.0 * th)                  # rho'
        d2 = -6.4 * np.sin(8.0 * th)                 # rho''
        S = np.sqrt(d1 * d1 + rho * rho)
        dS = d1 * (d2 + rho) / S                     # dS/dtheta
        W = (rho**4 - 0.1 * np.log(2.0 * rho)) / kp - rho**2 / km
        dW = (4.0 * rho**3 - 0.1 / rho) / kp - 2.0 * rho / km
        ddW = (12.0 * rho**2 + 0.1 / rho**2) / kp - 2.0 / km
        Q = 4.0 * rho**4 - 2.0 * rho**2 - 0.1       # (kappa du/dr jump) * rho
        dQ = 16.0 * rho**3 - 4.0 * rho
        wp = dW * d1 / S
        v = Q / S
        return {"w": W, "wp": wp,
                "wpp": (ddW * d1 * d1 + dW * d2 - wp * dS) / (S * S),
                "v": v, "vp": (dQ * d1 - v * dS) / (S * S)}

    def on_curve(name):
        return lambda x, y: fields(x, y)[name]

    return JumpData(
        w=on_curve("w"), v=on_curve("v"), wp=on_curve("wp"),
        wpp=on_curve("wpp"), vp=on_curve("vp"))


def _internal_layer(params) -> ProblemSpec:
    p = _take(params, {"eps": 0.01}, "internal_layer")
    eps = p["eps"]
    if not 0 < eps < math.inf:
        raise BadParams(f"eps must be positive and finite, got {eps}")

    def sigma(x, y):
        return (np.asarray(x, dtype=float) ** 2
                + np.asarray(y, dtype=float) ** 2 + 0.75)

    def exact(x, y, side):
        return np.arctan((np.sqrt(sigma(x, y)) - 1.0) / eps)

    def f(x, y, side):
        sg = sigma(x, y)
        r2 = sg - 0.75
        s = (np.sqrt(sg) - 1.0) / eps
        lap_s = (2.0 / np.sqrt(sg) - r2 / sg**1.5) / eps
        grad_s2 = r2 / (eps * eps * sg)
        return lap_s / (1.0 + s * s) - 2.0 * s * grad_s2 / (1.0 + s * s) ** 2

    def phi(x, y):
        return np.sqrt(sigma(x, y)) - 1.0

    # |s| and |grad s|**2 peak at the corners, so no term of f overflows on
    # the domain where none overflows there. (1 + s*s)**2 is the first to,
    # for eps below about 5.7e-78, and f then drops its second term
    try:
        with np.errstate(over="raise", divide="raise"):
            f(1.0, 1.0, 1)
    except FloatingPointError:
        raise BadParams(f"eps={eps} is too small: the source overflows"
                        ) from None

    ts = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    samples = 0.5 * np.column_stack([np.cos(ts), np.sin(ts)])

    return ProblemSpec(
        name="internal_layer", domain=((-1.0, 1.0), (-1.0, 1.0)),
        f=f, boundary=exact, exact=exact,
        interface=LevelSet(phi=phi, samples=samples))


# ---------------------------------------------------------------------------
# registry and error measurement
# ---------------------------------------------------------------------------

_REGISTRY = {
    "boundary_layer_1d": _boundary_layer_1d,
    "piecewise_kappa_1d": _piecewise_kappa_1d,
    "line_interface_2d": _line_interface_2d,
    "peskin_circle": _peskin_circle,
    "flower": _flower,
    "internal_layer": _internal_layer,
}


def problem_names() -> list:
    return sorted(_REGISTRY)


def make_problem(name: str, params: Optional[dict] = None) -> ProblemSpec:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            f"{name!r}; known problems: {', '.join(problem_names())}") from None
    return builder(params)


# sixth-order central difference weights on offsets -3..3
_FD_OFFSETS = np.arange(-3, 4)
_FD_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD_D2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _fd_axis(fn, x, y, side, hd: float, weights, order: int, axis: int):
    acc = 0.0
    for off, wgt in zip(_FD_OFFSETS, weights):
        if axis == 0:
            acc = acc + wgt * np.asarray(fn(x + off * hd, y, side), float)
        else:
            acc = acc + wgt * np.asarray(fn(x, y + off * hd, side), float)
    return acc / hd**order


def _sample_off_interface(problem: ProblemSpec, rng, n: int, pad: float,
                          margin: float):
    """Uniform points in the domain, clear of boundaries and of the
    interface or layer by ``margin``. Returns (x, y, side)."""
    if problem.dim == 1:
        a, b = problem.domain
        hi = b - pad - (margin if problem.alpha is None else 0.0)
        xs = np.empty(0)
        while len(xs) < n:
            cand = rng.uniform(a + pad, hi, size=2 * n)
            if problem.alpha is not None:
                cand = cand[np.abs(cand - problem.alpha) >= margin]
            xs = np.concatenate([xs, cand])[:n]
        ys = np.zeros_like(xs)
    else:
        (ax, bx), (ay, by) = problem.domain
        xs = np.empty(0)
        ys = np.empty(0)
        while len(xs) < n:
            cx = rng.uniform(ax + pad, bx - pad, size=4 * n)
            cy = rng.uniform(ay + pad, by - pad, size=4 * n)
            if problem.alpha is not None:
                keep = np.abs(cx - problem.alpha) >= margin
            else:
                keep = np.abs(problem.interface.phi(cx, cy)) >= margin
            xs = np.concatenate([xs, cx[keep]])[:n]
            ys = np.concatenate([ys, cy[keep]])[:n]
    if problem.alpha is not None:
        side = np.where(xs <= problem.alpha, -1, 1)
    elif problem.interface is not None:
        side = np.where(problem.interface.phi(xs, ys) <= 0, -1, 1)
    else:
        side = np.ones(len(xs), dtype=int)
    return xs, ys, side


def selfcheck(problem: ProblemSpec) -> dict:
    """Spot-check the closed-form data of a fixture against its own PDE.

    Applies the problem's differential operator to ``exact`` by sixth-order
    central differences at 100 random points (seed 0) away from the
    interface or layer and compares with ``f``; where jump data is
    prescribed, the value and flux jumps of the closed forms are
    compared against it on interface points: the projections of 20 samples
    of a curve, or 8 random points of the line ``x = alpha`` (the point
    itself in 1D), with the flux taken along the normal. Residuals are relative with the
    denominator floored at one. Returns ``{n, pde_max_rel[, jump_max_rel]}``.
    """
    if problem.exact is None:
        raise NoExactSolution(f"{problem.name} has no closed-form solution")
    rng = np.random.default_rng(0)
    hd = 1e-3
    margin = 0.05
    x, y, side = _sample_off_interface(problem, rng, 100, 4 * hd, margin)

    lap = _fd_axis(problem.exact, x, y, side, hd, _FD_D2, 2, 0)
    if problem.dim == 2:
        lap = lap + _fd_axis(problem.exact, x, y, side, hd, _FD_D2, 2, 1)
    ux = _fd_axis(problem.exact, x, y, side, hd, _FD_D1, 1, 0)
    kap = np.where(side < 0, problem.kappa_minus, problem.kappa_plus)
    lhs = (kap * lap + problem.conv * ux
           + problem.K * np.asarray(problem.exact(x, y, side), float))
    fv = np.asarray(problem.f(x, y, side), float)
    rel = np.abs(lhs - fv) / np.maximum(1.0, np.abs(fv))
    out = {"n": int(len(x)), "pde_max_rel": float(rel.max())}

    if problem.jumps is None:
        return out
    if problem.interface is not None:
        rows = problem.interface.samples
        if rows is None:
            raise BadParams(f"{problem.name}: the jump check needs interface "
                            "samples")
        picks = rng.choice(len(rows), size=min(20, len(rows)), replace=False)
        frame = project_to_interface(problem.interface, rows[picks])
    else:
        ys = (rng.uniform(*problem.domain[1], size=8)
              if problem.dim == 2 else np.zeros(8))
        frame = InterfaceFrame(
            foot=np.column_stack([np.full(8, problem.alpha), ys]),
            normal=np.tile([1.0, 0.0], (8, 1)),
            tangent=np.tile([0.0, 1.0], (8, 1)), curvature=np.zeros(8))
    js = jump_scalars(problem.jumps, frame, problem.f)
    px, py = frame.foot.T
    nx, ny = frame.normal.T
    line = lambda t, _, s: problem.exact(px + t * nx, py + t * ny, s)
    du = problem.exact(px, py, 1) - problem.exact(px, py, -1)
    flux = (problem.kappa_plus * _fd_axis(line, 0.0, 0.0, 1, hd, _FD_D1, 1, 0)
            - problem.kappa_minus * _fd_axis(line, 0.0, 0.0, -1, hd, _FD_D1,
                                             1, 0))
    worst = max(np.abs(du - js["w"]).max(),
                (np.abs(flux - js["v"])
                 / np.maximum(1.0, np.abs(js["v"]))).max())
    out["jump_max_rel"] = float(worst)
    return out


_COARSE_TAGS = (NodeTag.COARSE_REGULAR, NodeTag.BORDER)
_FINE_TAGS = (NodeTag.FINE_REGULAR, NodeTag.FINE_IRREGULAR, NodeTag.HANGING)


def exact_error(problem: ProblemSpec, grid, u: np.ndarray) -> dict:
    """Max-norm solution error split by node class.

    ``coarse`` covers coarse-regular plus border nodes, ``fine`` the tube
    classes (fine regular/irregular and hanging). Boundary nodes are
    excluded everywhere. A class without nodes reads NaN.
    """
    if problem.exact is None:
        raise NoExactSolution(f"{problem.name} has no closed-form solution")
    uex = np.asarray(problem.exact(grid.x, grid.y, grid.side.astype(int)),
                     dtype=float)
    err = np.abs(u - uex)

    def emax(tag_list):
        ids = tagged(grid.tags, *tag_list)
        return float(err[ids].max()) if len(ids) else math.nan

    return {
        "coarse": emax(_COARSE_TAGS),
        "fine": emax(_FINE_TAGS),
        "interior": emax(_COARSE_TAGS + _FINE_TAGS),
    }
