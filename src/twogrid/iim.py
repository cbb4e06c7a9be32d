"""Interface-fitted stencils for nodes whose arms cross the interface.

Both dimensions impose the jump conditions

    [u] = w(s),   [kappa du/dn] = v(s)      (s = arclength)

One dimension: closed-form three-point coefficients for a diffusion
coefficient that jumps at ``alpha``, with right-side corrections built from
the scalar jumps ``w`` and ``v``.

Two dimensions: the solution's Taylor data on one side of the interface
determines the data on the other side through the jump conditions
together with the PDE ``kappa Lap u = f`` on each side (no reaction term
here). The affine transfer between the two six-component Taylor vectors is
the engine behind both 2D stencil builders: a corrected five-point scheme
when ``kappa`` is continuous, and a fitted multi-point scheme when it jumps.

Local frame convention (see :mod:`twogrid.geometry`): ``xi`` along the
normal toward the plus side, ``eta`` along the tangent; the interface is
locally the graph ``xi = chi/2 * eta**2`` with ``chi = -curvature``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .errors import (BadParams, DegenerateDenominator, MissingNeighbor,
                     MultipleCrossings, SignViolation)
from .geometry import InterfaceFrame, LevelSet, project_to_interface, segment_crossing
from .stencils import Stencil

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]
ScalarOrField = Union[float, Field]

_CROSS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_BLOCK3 = tuple((di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1))
_EXTENDED = ((2, 0), (-2, 0), (0, 2), (0, -2))
_RING2 = tuple((di, dj) for dj in (-2, -1, 0, 1, 2) for di in (-2, -1, 0, 1, 2))


@dataclass
class JumpData:
    """Prescribed interface jumps, always oriented plus-side minus minus-side.

    ``w`` and ``v`` are the value and flux jumps, scalars or fields evaluated
    on the interface; a point or straight-line interface takes scalars.
    ``wp``, ``wpp``, ``vp`` are the arclength derivatives along the
    canonical tangent: a field ``w`` needs ``wp`` and ``wpp``, and a field
    ``v`` needs ``vp``, else :class:`BadParams` is raised; a scalar jump's
    derivatives default to zero. The 2D builders read ``[f]`` from ``f``.
    A field is called with coordinate arrays, all feet of a batch at once,
    and must evaluate elementwise.
    """

    w: ScalarOrField = 0.0
    v: ScalarOrField = 0.0
    wp: Optional[Field] = None
    wpp: Optional[Field] = None
    vp: Optional[Field] = None

    def __post_init__(self):
        if callable(self.w) and (self.wp is None or self.wpp is None):
            raise BadParams("a field jump w needs its derivatives wp and wpp")
        if callable(self.v) and self.vp is None:
            raise BadParams("a field jump v needs its derivative vp")


# ---------------------------------------------------------------------------
# one-dimensional pair
# ---------------------------------------------------------------------------

def iim_1d_irregular(kminus: float, kplus: float, alpha: float, xj: float,
                     h_f: float, jumps: JumpData,
                     x_next: float) -> Tuple[Stencil, Stencil]:
    """Fitted three-point stencils for the node pair straddling ``alpha``.

    ``xj`` is the last node on the minus side and ``x_next`` the grid's
    stored node after it (which can differ from ``xj + h_f`` by an ulp), so
    ``xj <= alpha < x_next``.
    Returns the stencils for ``xj`` and ``xj + h_f``; offset keys are node
    steps relative to each stencil's own center. The schemes approximate
    ``kappa u'' = f`` with pointwise right side plus the returned correction.
    """
    if not xj <= alpha < x_next:
        raise BadParams(f"alpha={alpha} not in [{xj}, {x_next})")
    if callable(jumps.w) or callable(jumps.v):
        raise BadParams("a point or straight-line interface takes scalar "
                        "jumps w and v")
    dk = kplus - kminus
    xjm1, xjp1, xjp2 = xj - h_f, xj + h_f, xj + 2 * h_f

    Dj = h_f**2 + dk * (xjm1 - alpha) * (xj - alpha) / (2 * kminus)
    Djp1 = h_f**2 - dk * (xjp2 - alpha) * (xjp1 - alpha) / (2 * kplus)
    if abs(Dj) < 1e-3 * h_f**2 or abs(Djp1) < 1e-3 * h_f**2:
        raise DegenerateDenominator(
            f"fitted-stencil denominator too small: D={Dj:.3e}, {Djp1:.3e}")

    gj = ((kminus - dk * (xj - alpha) / h_f) / Dj,
          (-2 * kminus + dk * (xjm1 - alpha) / h_f) / Dj,
          kplus / Dj)
    gjp1 = (kminus / Djp1,
            (-2 * kplus + dk * (xjp2 - alpha) / h_f) / Djp1,
            (kplus - dk * (xjp1 - alpha) / h_f) / Djp1)

    # corrections: jump polynomial of the one arm that lands across the
    # interface, written from the center node's side
    corr_j = gj[2] * (jumps.w + (xjp1 - alpha) * jumps.v / kplus)
    corr_jp1 = -gjp1[0] * (jumps.w + (xj - alpha) * jumps.v / kminus)

    st_j = Stencil(alphas={-1: gj[0], 0: gj[1], 1: gj[2]},
                   betas={0: 1.0}, correction=corr_j)
    st_jp1 = Stencil(alphas={-1: gjp1[0], 0: gjp1[1], 1: gjp1[2]},
                     betas={0: 1.0}, correction=corr_jp1)
    return st_j, st_jp1


# ---------------------------------------------------------------------------
# jump-data evaluation on the curve
# ---------------------------------------------------------------------------

def _ev(q: ScalarOrField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    val = q(x, y) if callable(q) else q
    return np.broadcast_to(np.asarray(val, dtype=float), np.shape(x))


def jump_scalars(jumps: JumpData, frame: InterfaceFrame, f: Callable) -> dict:
    """Evaluate w, v, [f] and the tangential derivatives at a frame's feet.

    ``[f]`` is ``f(x, y, 1) - f(x, y, -1)``. Every value has shape ``(m,)``,
    one per foot of the batch. A derivative that ``jumps`` does not give is
    zero, which :class:`JumpData` allows only for scalar jumps.
    """
    x = np.ascontiguousarray(frame.foot[:, 0])
    y = np.ascontiguousarray(frame.foot[:, 1])
    fields = {"w": jumps.w, "v": jumps.v, "fj": f(x, y, 1) - f(x, y, -1),
              "wp": jumps.wp, "wpp": jumps.wpp, "vp": jumps.vp}
    return {name: _ev(0.0 if q is None else q, x, y)
            for name, q in fields.items()}


# ---------------------------------------------------------------------------
# Taylor-data transfer across the interface
# ---------------------------------------------------------------------------

def transfer_minus_to_plus(km, kp, chi, js: dict):
    """Affine map from minus-side to plus-side Taylor data at a foot point.

    Component order ``(u, u_xi, u_eta, u_xixi, u_xieta, u_etaeta)``. Returns
    ``(M, J0, jf)`` with ``T_plus = M @ T_minus + J0 + jf * f_plus``; the
    ``u_xixi`` component is produced by the plus-side PDE, so the map never
    reads ``u_xixi`` of the minus side. The arguments broadcast: arrays of
    shape ``S`` give ``M``, ``J0`` and ``jf`` of shapes ``S + (6, 6)``,
    ``S + (6,)`` and ``S + (6,)``.
    """
    w, wp, wpp, v, vp = js["w"], js["wp"], js["wpp"], js["v"], js["vp"]
    shape = np.broadcast(km, kp, chi, w, wp, wpp, v, vp).shape
    q = km / kp
    M = np.zeros(shape + (6, 6))
    M[..., 0, 0] = 1.0
    M[..., 1, 1] = q
    M[..., 2, 2] = 1.0
    M[..., 3, 1] = chi * (km - kp) / kp
    M[..., 3, 5] = -1.0
    M[..., 4, 2] = chi * (1.0 - q)
    M[..., 4, 4] = q
    M[..., 5, 1] = chi * (1.0 - q)
    M[..., 5, 5] = 1.0
    J0 = np.stack(np.broadcast_arrays(
        w,
        v / kp,
        wp,
        chi * v / kp - wpp,
        chi * wp + vp / kp,
        wpp - chi * v / kp,
    ), axis=-1, dtype=float)
    jf = np.zeros(shape + (6,))
    jf[..., 3] = 1.0 / kp
    return M, J0, jf


def transfer_from_side(side, km: float, kp: float, chi, js: dict):
    """Transfer away from ``side`` (-1: minus->plus, +1: plus->minus).

    The reverse map is the forward one with the roles of the two sides
    swapped and the jump data negated; the frame (and ``chi``) is unchanged.
    ``side`` may be an array, one side per foot.
    """
    minus = np.asarray(side) < 0
    sgn = np.where(minus, 1.0, -1.0)
    return transfer_minus_to_plus(
        np.where(minus, km, kp), np.where(minus, kp, km), chi,
        {k: sgn * js[k] for k in ("w", "wp", "wpp", "v", "vp")})


def _basis_row(dx, dy, frame: InterfaceFrame) -> np.ndarray:
    """Taylor monomials ``(1, xi, eta, xi^2/2, xi eta, eta^2/2)`` of the
    offsets ``(dx, dy)`` in each foot's frame, stacked on a new first axis;
    ``dx`` and ``dy`` broadcast against ``frame.normal[:, 0]``."""
    xi = dx * frame.normal[:, 0] + dy * frame.normal[:, 1]
    eta = dx * frame.tangent[:, 0] + dy * frame.tangent[:, 1]
    return np.stack(np.broadcast_arrays(
        1.0, xi, eta, 0.5 * xi * xi, xi * eta, 0.5 * eta * eta))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two ``(m, n)`` arrays, summed in column
    order, so a row's value never depends on the other rows."""
    return sum(a[:, c] * b[:, c] for c in range(a.shape[1]))


# ---------------------------------------------------------------------------
# irregular nodes handed over by the assembler
# ---------------------------------------------------------------------------

_CENTER = _RING2.index((0, 0))
_DI = np.array([di for di, _ in _RING2])
_DJ = np.array([dj for _, dj in _RING2])
_CROSS_COLS = np.array([_RING2.index(off) for off in _CROSS])
# candidate sets of the fitted stencil, widened in this order, as columns
# of the ring
_STAGES = tuple(np.array([_RING2.index(off) for off in offsets])
                for offsets in (_BLOCK3, _BLOCK3 + _EXTENDED, _RING2))
_REWARD = 1e6       # see _constrained_fit
# nodes per HiGHS program. HiGHS's memory grows with the program: fitting
# the 2,684-node stage of flower_jump raised the process peak by 76 MB as one
# program, 28 MB in blocks of 512 and 21 MB in blocks of 128, which gave the
# same supports in the same time; 64 nodes saved under 1 MB more
_BLOCK_NODES = 128


@dataclass
class IrregularNodes:
    """A batch of irregular fine nodes, the form both 2D stencil builders
    work on.

    ``ring_side[k, c]`` is the grid's side (-1 / +1) of node ``k``'s
    neighbor at the ring offset ``_RING2[c]``, or 0 where the grid has no
    node there; the center column holds the node's own side. A neighbor on
    the interface must keep the side the grid gave its unknown, which phi
    at other coordinate arithmetic can miss by one ulp.
    """

    x: np.ndarray         # (m,)
    y: np.ndarray         # (m,)
    h_f: float
    ring_side: np.ndarray  # (m, 25)

    @property
    def side(self) -> np.ndarray:
        return self.ring_side[:, _CENTER]


def _check_single_crossings(nodes: IrregularNodes, ls: LevelSet) -> None:
    """Raise :class:`MultipleCrossings` if an arm of ``nodes`` crosses the
    interface twice: its ends on one side and its midpoint on the other."""
    h = nodes.h_f
    di, dj = _DI[_CROSS_COLS], _DJ[_CROSS_COLS]
    mid = np.asarray(ls.phi(nodes.x[:, None] + 0.5 * di * h,
                            nodes.y[:, None] + 0.5 * dj * h), dtype=float)
    mid = np.where(mid <= 0.0, -1, 1)
    ends = nodes.ring_side[:, _CROSS_COLS]
    bad = (ends != 0) & (mid != nodes.side[:, None]) & (mid != ends)
    if bad.any():
        k, a = np.argwhere(bad)[0]
        di, dj = _CROSS[a]
        raise MultipleCrossings(
            f"arm ({di},{dj}) of node ({nodes.x[k]:.4g},{nodes.y[k]:.4g}) "
            "crosses the interface more than once")


# ---------------------------------------------------------------------------
# continuous-kappa path: five-point scheme with jump corrections
# ---------------------------------------------------------------------------

def singular_source_stencil_2d(nodes: IrregularNodes, ls: LevelSet,
                               kappa: float, jumps: JumpData, f: Callable):
    """Corrected five-point scheme for ``kappa Lap u = f`` with interface jumps.

    ``kappa`` must be the same on both sides, and ``f`` is read only for
    ``[f]``. Each arm that crosses the interface adds the jump Taylor
    polynomial, expanded at that arm's own crossing point, to the right side
    correction. The crossings of all arms of all nodes are found in one
    call, and projected in one call.

    Returns ``(weights, correction)`` for the batch of ``m`` nodes: the
    ``(m, 25)`` weights over the ring offsets ``_RING2`` and the ``(m,)``
    right-side corrections.
    """
    _check_single_crossings(nodes, ls)
    h = nodes.h_f
    side = nodes.side
    ends = nodes.ring_side[:, _CROSS_COLS]
    if (ends == 0).any():
        k = int(np.argmax((ends == 0).any(axis=1)))
        raise MissingNeighbor(f"node ({nodes.x[k]:.4g},{nodes.y[k]:.4g}) "
                              "lacks a five-point arm")
    weights = np.zeros((len(side), len(_RING2)))
    weights[:, _CENTER] = -4.0 * kappa / h**2
    weights[:, _CROSS_COLS] = kappa / h**2

    k, a = np.nonzero(ends != side[:, None])
    cx, cy = nodes.x[k], nodes.y[k]
    ex = cx + _DI[_CROSS_COLS][a] * h     # the far ends of the arms
    ey = cy + _DJ[_CROSS_COLS][a] * h
    # grid-side tie: the crossing sits on an endpoint to within rounding,
    # so phi shows no sign change along the arm; take the nearer endpoint
    fc = np.asarray(ls.phi(cx, cy), dtype=float)
    fe = np.asarray(ls.phi(ex, ey), dtype=float)
    tie = fc * fe > 0.0
    near = np.abs(fe) <= np.abs(fc)
    Xc = np.column_stack([np.where(near, ex, cx), np.where(near, ey, cy)])
    Xc[~tie] = segment_crossing(ls, np.column_stack([cx, cy])[~tie],
                                np.column_stack([ex, ey])[~tie])

    frame = project_to_interface(ls, Xc)
    js = jump_scalars(jumps, frame, f)
    _, J0, jf = transfer_minus_to_plus(kappa, kappa, -frame.curvature, js)
    jtaylor = J0 + jf * js["fj"][:, None]   # T_plus - T_minus
    b = _basis_row(ex - frame.foot[:, 0], ey - frame.foot[:, 1], frame)
    jpoly = sum(jtaylor[:, i] * b[i] for i in range(6))
    sgn = np.where(side[k] < 0, 1.0, -1.0)
    term = sgn * (kappa / h**2) * jpoly
    corr = np.zeros(len(side))
    for arm in range(len(_CROSS)):   # at most one term per node and arm
        sel = a == arm
        corr[k[sel]] += term[sel]
    return weights, corr


# ---------------------------------------------------------------------------
# discontinuous-kappa path: fitted stencil via constrained least squares
# ---------------------------------------------------------------------------

def _candidate_rows(nodes: IrregularNodes, frame: InterfaceFrame, kc, M, J0,
                    jf):
    """Every node's expansion over the center side's reduced Taylor basis,
    one column per ring offset.

    Basis: ``(u, u_xi, u_eta, u_xieta, u_etaeta)`` of the center side plus
    carriers for f on each side; ``u_xixi`` is eliminated through the PDE.
    Returns the ``(m, 6, 25)`` constraint matrices, whose last row carries
    f, and the ``(m, 25)`` constant and other-side-f terms.
    """
    h = nodes.h_f
    dx = nodes.x + _DI[:, None] * h - frame.foot[:, 0]   # (25, m)
    dy = nodes.y + _DJ[:, None] * h - frame.foot[:, 1]
    b = _basis_row(dx, dy, frame)
    c = [sum(M[:, i, j] * b[i] for i in range(6)) for j in range(6)]  # M^T b
    const = sum(J0[:, i] * b[i] for i in range(6))
    fother = sum(jf[:, i] * b[i] for i in range(6))
    same = nodes.ring_side.T == nodes.side
    A = np.stack([np.where(same, b[0], c[0]),
                  np.where(same, b[1], c[1]),
                  np.where(same, b[2], c[2]),
                  np.where(same, b[4], c[4]),
                  np.where(same, b[5] - b[3], c[5]),
                  np.where(same, b[3] / kc, fother)])
    return (A.transpose(2, 0, 1), np.where(same, 0.0, const).T,
            np.where(same, 0.0, fother).T)


def _block_program(An: np.ndarray, last: np.ndarray, cand: np.ndarray,
                   center: int) -> np.ndarray:
    """Solve the block-diagonal program of :func:`_constrained_fit` for the
    normalized rows ``An`` of a block of nodes, whose last right-side
    entries are ``last``; the ``(n, K)`` weights it finds, all zero if
    HiGHS fails."""
    from scipy.optimize import linprog

    n, nrow, K = An.shape
    # one column per candidate, then node k's scale t_k on its last row
    k, c = np.nonzero(cand)
    m = len(k)
    vals = np.concatenate([An[k, :, c].ravel(), -last])
    rows = np.concatenate([(nrow * k[:, None] + np.arange(nrow)).ravel(),
                           nrow * np.arange(n) + nrow - 1])
    cols = np.concatenate([np.repeat(np.arange(m), nrow), m + np.arange(n)])
    nz = vals != 0.0
    A_eq = sp.csc_matrix((vals[nz], (rows[nz], cols[nz])),
                         shape=(nrow * n, m + n))
    ctr = c == center
    cost = np.concatenate([np.where(ctr, 0.0, 1.0), np.full(n, -_REWARD)])
    lower = np.concatenate([np.where(ctr, -np.inf, 0.0), np.zeros(n)])
    upper = np.concatenate([np.where(ctr, 0.0, np.inf), np.ones(n)])
    res = linprog(cost, A_eq=A_eq, b_eq=np.zeros(nrow * n),
                  bounds=np.column_stack([lower, upper]), method="highs")
    g = np.zeros((n, K))
    g[k, c] = res.x[:m] if res.success else 0.0
    return g


def _constrained_fit(A: np.ndarray, cand: np.ndarray, scale: np.ndarray,
                     center: int):
    """Find, for every node ``k``, ``g`` with ``A[k] g = e_5`` over the
    candidates ``cand[k]``, off-center ``g >= 0`` and ``g[center] < 0``.

    Each node's problem is a small linear program minimizing the total
    off-center weight (the constant-consistency row forces a zero row sum,
    so the diagonal is minus that total and monotonicity comes out maximally
    diagonally dominant). ``scale`` is each node's natural weight magnitude,
    used to condition its program and to reject a vanishing diagonal. The
    nodes' programs are stacked into block-diagonal programs of at most
    ``_BLOCK_NODES`` nodes each, always feasible since node ``k``'s right
    side is scaled by ``t_k`` in ``[0, 1]`` at a reward of ``_REWARD`` per
    unit: ``g = 0, t = 0`` solves it. A node with a stencil takes
    ``t_k = 1`` and its own optimum (normalized off-center totals reach
    61.5 on the flower benchmarks), a node without one zero weights.
    Returns ``(g, ok)``: the ``(n, K)`` weights, zero for failed nodes and
    outside each node's candidates, and whether each node's fit succeeded.
    """
    n, nrow, K = A.shape
    As = np.where(cand[:, None, :], A * scale[:, None, None], 0.0)
    rownorm = np.maximum(np.abs(As).max(axis=2), 1e-300)
    An = As / rownorm[:, :, None]
    bn = np.zeros((n, nrow))
    bn[:, -1] = 1.0 / rownorm[:, -1]
    ghat = np.zeros((n, K))
    for lo in range(0, n, _BLOCK_NODES):
        blk = slice(lo, lo + _BLOCK_NODES)
        ghat[blk] = _block_program(An[blk], bn[blk, -1], cand[blk], center)
    # The program fixes each node's support, at most nrow columns since its
    # solutions are basic. The weights on the support are then the
    # least-squares solution of the node's own rows, so they do not depend
    # on the solver's rounding in a block's program (which differs from a
    # single node's at a degenerate vertex) or on how nodes share blocks.
    support = np.abs(ghat) >= 1e-13
    k, c = np.nonzero(support)
    pos = np.cumsum(support, axis=1)[k, c] - 1
    B = np.zeros((n, nrow, nrow))
    B[k, :, pos] = An[k, :, c]
    ghat = np.zeros((n, K))
    ghat[k, c] = np.linalg.pinv(B)[k, pos, -1] * bn[k, -1]
    resid = np.abs((An * ghat[:, None, :]).sum(axis=2) - bn).max(axis=1)
    # a node whose program failed has zero weights, so fails the last test
    ok = (resid <= 1e-7) & (ghat[:, center] <= -1e-9)
    g = ghat * scale[:, None]
    g[np.abs(g) < 1e-13 * scale[:, None]] = 0.0
    g[~ok] = 0.0
    return g, ok


def iim_discontinuous_stencil_2d(nodes: IrregularNodes, ls: LevelSet,
                                 kminus: float, kplus: float, jumps: JumpData,
                                 f: Callable):
    """Fitted stencil at fine nodes where the diffusion coefficient jumps.

    All available 3x3 neighbors are candidates; consistency with the
    interface problem (both sides expanded about the common projection foot,
    coupled by the jump transfer) fixes six linear conditions, and the
    remaining freedom is spent on the monotone sign pattern with the least
    total off-center weight. Nodes with no sign-feasible stencil on the 3x3
    block go on together to the distance-2 arm points and then to the full
    5x5 ring before giving up; every stage fits its nodes in
    block-diagonal linear programs of at most ``_BLOCK_NODES`` (128) nodes,
    since HiGHS's memory grows with the program;
    ``f`` is read only for ``[f]`` at the feet.

    Returns ``(weights, correction)`` for the batch of ``m`` nodes: the
    ``(m, 25)`` weights over the ring offsets ``_RING2`` and the ``(m,)``
    right-side corrections.
    """
    _check_single_crossings(nodes, ls)
    frame = project_to_interface(ls, np.column_stack([nodes.x, nodes.y]))
    js = jump_scalars(jumps, frame, f)
    side = nodes.side
    kc = np.where(side < 0, kminus, kplus)
    M, J0, jf = transfer_from_side(side, kminus, kplus, -frame.curvature, js)
    A, const, fother = _candidate_rows(nodes, frame, kc, M, J0, jf)
    scale = kc / nodes.h_f**2

    weights = np.zeros((len(side), len(_RING2)))
    todo = np.arange(len(side))
    for cols in _STAGES:
        cand = nodes.ring_side[np.ix_(todo, cols)] != 0
        g, ok = _constrained_fit(A[todo][:, :, cols], cand, scale[todo],
                                 int(np.flatnonzero(cols == _CENTER)[0]))
        weights[np.ix_(todo[ok], cols)] = g[ok]
        todo = todo[~ok]
        if not len(todo):
            break
    else:
        k = todo[0]
        raise SignViolation("no sign-feasible fitted stencil at "
                            f"({nodes.x[k]:.4g},{nodes.y[k]:.4g})")
    fold = np.where(side < 0, 1.0, -1.0)   # f_other = f_center + fold * [f]
    corr = _rowdot(weights, const) + _rowdot(weights, fother) * fold * js["fj"]
    return weights, corr
