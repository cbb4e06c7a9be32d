"""System assembly: one discrete equation per node, dispatched on node tag.

The assembled matrix is full-size with identity rows at Dirichlet nodes, so
node ids and matrix rows coincide and structural checks can look at
interior rows without reindexing.
``assemble`` leaves the boundary right-hand side at zero;
:func:`apply_dirichlet` fills it in.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import stencils
from .errors import BadParams, MissingNeighbor, UnsupportedRatio
from .grid import Grid1D, Grid2DLine, Grid2DTube, NodeTag
from .iim import (_RING2, IrregularNodes, iim_1d_irregular,
                  iim_discontinuous_stencil_2d, singular_source_stencil_2d)


@dataclass
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary: np.ndarray        # bool mask over rows
    tags: np.ndarray
    x: np.ndarray
    y: np.ndarray


class _Builder:
    def __init__(self, n: int):
        self.n = n
        self.rows = []
        self.cols = []
        self.vals = []
        self.rhs = np.zeros(n)

    def add(self, row, col, val) -> None:
        self.rows.append(np.atleast_1d(np.asarray(row, dtype=np.int64)))
        self.cols.append(np.atleast_1d(np.asarray(col, dtype=np.int64)))
        self.vals.append(np.atleast_1d(np.asarray(val, dtype=float)))

    def finish(self, grid) -> SparseSystem:
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        if rows.min() < 0 or cols.min() < 0:
            raise MissingNeighbor("stencil referenced a node outside the grid")
        vals = np.concatenate(self.vals)
        mat = sp.coo_matrix((vals, (rows, cols)),
                            shape=(self.n, self.n)).tocsr()
        return SparseSystem(matrix=mat, rhs=self.rhs,
                            boundary=np.asarray(grid.tags) == NodeTag.BOUNDARY,
                            tags=np.asarray(grid.tags),
                            x=np.asarray(grid.x), y=np.asarray(grid.y))


def apply_dirichlet(system: SparseSystem, g) -> SparseSystem:
    """Fill boundary rows of the right side with ``g(x, y)``."""
    idx = np.nonzero(system.boundary)[0]
    system.rhs[idx] = g(system.x[idx], system.y[idx])
    return system


def assemble(grid, problem) -> SparseSystem:
    if isinstance(grid, Grid1D):
        system = _assemble_1d(grid, problem)
    elif isinstance(grid, Grid2DLine):
        system = _assemble_line(grid, problem)
    elif isinstance(grid, Grid2DTube):
        system = _assemble_tube(grid, problem)
    else:
        raise BadParams(f"unknown grid type {type(grid).__name__}")
    _release_free_heap()
    return system


def _release_free_heap() -> None:
    """Return the C heap's free pages to the operating system.

    Assembly frees tens of MB of scratch, most of it the fitted stencils'
    linear program inside HiGHS, which glibc keeps mapped. The LU
    factorisation that follows maps its large arrays afresh, so without
    this the peak memory of a solve carries both. Does nothing where the C
    library has no ``malloc_trim``.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _kappa_of(problem, side: int) -> float:
    return problem.kappa_minus if side < 0 else problem.kappa_plus


def _interface_pair(grid: Grid1D, problem) -> dict:
    """Fitted stencils of the two irregular nodes flanking the interface
    point, keyed by node index; empty when the grid has no such pair."""
    pair = np.nonzero(grid.tags == NodeTag.FINE_IRREGULAR)[0]
    if not len(pair):
        return {}
    st_lo, st_hi = iim_1d_irregular(
        problem.kappa_minus, problem.kappa_plus, grid.alpha,
        float(grid.x[pair[0]]), grid.h_f, problem.jumps)
    return {int(pair[0]): st_lo, int(pair[1]): st_hi}


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

def _assemble_1d(grid: Grid1D, problem) -> SparseSystem:
    n = grid.n
    x, tags = grid.x, grid.tags
    side = grid.sides()
    b = _Builder(n)
    h_f = grid.h_f
    pair_st = _interface_pair(grid, problem)

    for i in range(n):
        t = tags[i]
        if t == NodeTag.BOUNDARY:
            b.add(i, i, 1.0)
            continue
        if problem.epsilon is not None:
            st = stencils.centered_nonuniform_1d(
                problem.epsilon, problem.conv, problem.K,
                float(x[i] - x[i - 1]), float(x[i + 1] - x[i]))
        elif t == NodeTag.COARSE_REGULAR:
            st = stencils.compact4_uniform_1d(
                _kappa_of(problem, side[i]), problem.K, grid.h)
        elif t == NodeTag.BORDER:
            st = stencils.border_coeffs_1d(
                float(x[i] - x[i - 1]), float(x[i + 1] - x[i]),
                _kappa_of(problem, side[i]), problem.K)
        elif t == NodeTag.FINE_REGULAR:
            k = _kappa_of(problem, side[i])
            st = stencils.Stencil(
                center=0,
                alphas={-1: k / h_f**2, 0: -2.0 * k / h_f**2 + problem.K,
                        1: k / h_f**2},
                betas={0: 1.0})
        else:  # FINE_IRREGULAR
            st = pair_st[i]
            if problem.K:
                st.alphas[0] += problem.K
        for off, a in st.alphas.items():
            b.add(i, i + off, float(a))
        acc = st.correction
        for off, bw in st.betas.items():
            j = i + off
            acc += float(bw) * problem.f(float(x[j]), 0.0, int(side[j]))
        b.rhs[i] = acc
    return b.finish(grid)


# ---------------------------------------------------------------------------
# 2D strip around a vertical interface line
# ---------------------------------------------------------------------------

def _assemble_line(grid: Grid2DLine, problem) -> SparseSystem:
    if problem.K:
        raise BadParams("2D assembly supports only K == 0")
    cols = grid.cols
    ncol, N = grid.ncol, grid.N
    h_y = grid.h_y
    b = _Builder(grid.n)

    side_col = np.where(cols.x <= grid.alpha, -1, 1)
    pair_st = _interface_pair(cols, problem)

    bnd = np.nonzero(grid.tags == NodeTag.BOUNDARY)[0]
    b.add(bnd, bnd, np.ones(len(bnd)))

    jr = np.arange(1, N)
    for c in range(1, ncol - 1):
        t = cols.tags[c]
        kc = _kappa_of(problem, side_col[c])
        if t == NodeTag.COARSE_REGULAR:
            if abs(h_y - grid.h) > 1e-12 * grid.h:
                raise BadParams("coarse strip columns need square cells")
            st = stencils.nine_point_compact_2d(grid.h, 0.0, kc)
        elif t == NodeTag.BORDER:
            st = stencils.border_coeffs_2d(
                float(cols.x[c] - cols.x[c - 1]),
                float(cols.x[c + 1] - cols.x[c]), h_y)
            st.alphas = {k: kc * v for k, v in st.alphas.items()}
        elif t == NodeTag.FINE_REGULAR:
            st = stencils.strip_mixed_order_2d(grid.h_f, h_y, kappa=kc)
        else:  # FINE_IRREGULAR
            g = pair_st[c].alphas
            st = stencils.strip_mixed_order_2d(
                grid.h_f, h_y, xgamma=(g[-1], g[0], g[1]),
                correction=pair_st[c].correction, kappa=kc)
        base = jr * ncol + c
        for (dx, dy), w in st.alphas.items():
            b.add(base, (jr + dy) * ncol + (c + dx), np.full(len(jr), w))
        acc = np.full(len(jr), float(st.correction))
        for (dx, dy), bw in st.betas.items():
            ys = grid.y[(jr + dy) * ncol]
            acc += float(bw) * problem.f(
                float(cols.x[c + dx]), ys, int(side_col[c + dx]))
        b.rhs[base] = acc
    return b.finish(grid)


# ---------------------------------------------------------------------------
# 2D tube around a level-set interface
# ---------------------------------------------------------------------------

_FIVE_POINT = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
               (0, 0): -4.0}


def _deltas(keys, W: int, step: int = 1, flip: bool = False) -> dict:
    """Fine-lattice code delta of each ``(dx, dy)`` stencil key, whose unit
    is ``step`` fine steps; ``flip`` swaps the axes."""
    return {(kx, ky): ((kx * W + ky) if flip else (ky * W + kx)) * step
            for kx, ky in keys}


def _neighbors(grid, rows, offsets) -> np.ndarray:
    """``(len(rows), len(offsets))`` ids of the nodes at the code deltas
    ``offsets`` from each row's node; -1 where the grid has no node."""
    return grid.id_of(grid.codes[rows][:, None]
                      + np.array(list(offsets.values())))


def _emit(b, grid, rows, offsets, alphas, betas, scale, fvec) -> None:
    """Add the equations of ``rows``, which share one stencil, to ``b``.

    ``offsets`` maps every key of ``alphas`` and ``betas`` to its code
    delta. Each row gets ``alpha * scale`` in the column of the node at
    that delta (``scale`` is a scalar or one value per row) and the right
    side ``sum beta * f`` over the same nodes.
    """
    if not len(rows):
        return
    col = dict(zip(offsets, _neighbors(grid, rows, offsets).T))
    for k, a in alphas.items():
        b.add(rows, col[k], float(a) * scale)
    acc = np.zeros(len(rows))
    for k, bw in betas.items():
        acc += float(bw) * fvec(col[k])
    b.rhs[rows] = acc


def _assemble_tube(grid: Grid2DTube, problem) -> SparseSystem:
    if problem.K:
        raise BadParams("2D assembly supports only K == 0")
    tags, side = grid.tags, grid.side
    km, kp = problem.kappa_minus, problem.kappa_plus
    kap = np.where(side < 0, km, kp).astype(float)
    W, r = grid.W, grid.r
    h, h_f = grid.h, grid.h_f
    b = _Builder(grid.n)

    def fvec(ids):
        return problem.f(grid.x[ids], grid.y[ids], side[ids].astype(int))

    bnd = np.nonzero(tags == NodeTag.BOUNDARY)[0]
    b.add(bnd, bnd, np.ones(len(bnd)))

    coarse = np.nonzero(tags == NodeTag.COARSE_REGULAR)[0]
    proto = stencils.nine_point_compact_2d(h, 0.0, 1.0)
    _emit(b, grid, coarse, _deltas(proto.alphas, W, r), proto.alphas,
          proto.betas, kap[coarse], fvec)

    plain = problem.jumps is None
    if plain:
        # Without an interface the side classification is vacuous, so nodes
        # straddling the level set's zero curve are ordinary fine nodes.
        # The solution is smooth in the tube and the compact fourth order
        # scheme applies on the fine lattice as well.  A concave corner of
        # the patch union can lack one diagonal neighbour; those nodes keep
        # the five point scheme.
        fine = np.nonzero((tags == NodeTag.FINE_REGULAR)
                          | (tags == NodeTag.FINE_IRREGULAR))[0]
        proto = stencils.nine_point_compact_2d(h_f, 0.0, 1.0)
        offs = _deltas(proto.alphas, W)
        ok = (_neighbors(grid, fine, offs) >= 0).all(axis=1)
        _emit(b, grid, fine[ok], offs, proto.alphas, proto.betas,
              kap[fine[ok]], fvec)
        fine = fine[~ok]
    else:
        fine = np.nonzero(tags == NodeTag.FINE_REGULAR)[0]
    _emit(b, grid, fine, _deltas(_FIVE_POINT, W), _FIVE_POINT, {(0, 0): 1.0},
          kap[fine] / h_f**2, fvec)

    hanging = tags == NodeTag.HANGING
    for j in np.unique(grid.hang_j[hanging]):
        try:
            st = stencils.hanging_coeffs(r, int(j))
        except UnsupportedRatio:
            st = stencils.derive_hanging_coeffs(r, int(j))
        for axis in (0, 1):
            rows = np.nonzero(hanging & (grid.hang_j == j)
                              & (grid.hang_axis == axis))[0]
            offs = _deltas({**st.alphas, **st.betas}, W, flip=axis == 1)
            _emit(b, grid, rows, offs, st.alphas, st.betas, kap[rows] / h**2,
                  fvec)

    irr = np.nonzero(tags == NodeTag.FINE_IRREGULAR)[0]
    if plain or not len(irr):
        return b.finish(grid)
    nbrs = _neighbors(grid, irr, _deltas(_RING2, W))
    nodes = IrregularNodes(x=grid.x[irr], y=grid.y[irr], h_f=h_f,
                           ring_side=np.where(nbrs >= 0, side[nbrs], 0))
    if km == kp:
        weights, corr = singular_source_stencil_2d(nodes, grid.ls, km,
                                                   problem.jumps)
    else:
        weights, corr = iim_discontinuous_stencil_2d(nodes, grid.ls, km, kp,
                                                     problem.jumps)
    nz = weights != 0.0
    b.add(np.broadcast_to(irr[:, None], nz.shape)[nz], nbrs[nz], weights[nz])
    b.rhs[irr] = fvec(irr) + corr
    return b.finish(grid)
