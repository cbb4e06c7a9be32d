"""System assembly: one discrete equation per node, dispatched on node tag.

The assembled matrix is full-size with identity rows at Dirichlet nodes, so
node ids and matrix rows coincide and structural checks can look at
interior rows without reindexing. :func:`assemble` builds every system:
it writes the Dirichlet rows, an identity entry and ``problem.boundary`` on
the right side, and the grid's row writer adds the interior node classes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import stencils
from .errors import BadParams, MissingNeighbor
from .grid import Grid1D, Grid2DLine, Grid2DTube, NodeTag, tagged
from .iim import (_RING2, IrregularNodes, iim_1d_irregular,
                  iim_discontinuous_stencil_2d, singular_source_stencil_2d)


@dataclass
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary: np.ndarray        # bool mask over rows


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

    def finish(self) -> sp.csr_matrix:
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        if rows.min() < 0 or cols.min() < 0:
            raise MissingNeighbor("stencil referenced a node outside the grid")
        vals = np.concatenate(self.vals)
        return sp.coo_matrix((vals, (rows, cols)),
                             shape=(self.n, self.n)).tocsr()


def assemble(grid, problem) -> SparseSystem:
    """The system of ``problem`` on ``grid``, Dirichlet rows included."""
    write = _ROW_WRITERS.get(type(grid))
    if write is None:
        raise BadParams(f"unknown grid type {type(grid).__name__}")
    side = grid.side
    kap = np.where(side < 0, problem.kappa_minus,
                   problem.kappa_plus).astype(float)
    fv = problem.f(grid.x, grid.y, side.astype(int))
    b = _Builder(grid.n)
    bnd = tagged(grid.tags, NodeTag.BOUNDARY)
    b.add(bnd, bnd, np.ones(len(bnd)))
    write(b, grid, problem, kap, fv)
    matrix, rhs = b.finish(), b.rhs
    del b   # free the COO pieces before the boundary arrays: peak RSS
    boundary = grid.tags == NodeTag.BOUNDARY
    rhs[boundary] = problem.boundary(grid.x[boundary], grid.y[boundary],
                                     side[boundary].astype(int))
    bad = np.flatnonzero(~np.isfinite(rhs))
    if len(bad):
        i = bad[0]
        raise BadParams(f"{problem.name}: the right side is not finite at "
                        f"node {i} (x={grid.x[i]:.6g}, y={grid.y[i]:.6g})")
    return SparseSystem(matrix=matrix, rhs=rhs, boundary=boundary)


def _emit(b, grid, rows, st, scale, fv, target=0.0, step=1,
          flip=False) -> None:
    """Add the equations of ``rows``, which share the stencil ``st``, to ``b``.

    This is the one writer of interior rows. Each key of ``st`` is a lattice
    offset in units of ``step`` steps, with its axes swapped if ``flip``;
    ``grid.neighbors`` finds the node there. Each row gets ``alpha * scale``
    in that node's column wherever that weight is not exactly 0.0, rounded
    by :func:`_exact_rows` to sum to ``target``, and the right side
    ``st.correction + sum beta * fv`` over the same nodes, summed in key
    order; ``fv`` is the source at every node. Every weight, ``scale`` and
    the correction is a scalar or one value per row.
    """
    if not len(rows):
        return
    keys = list({**st.alphas, **st.betas})
    offs = [np.multiply(k[::-1] if flip else k, step) for k in keys]
    col = dict(zip(keys, grid.neighbors(rows, offs).T))
    w = np.stack([np.broadcast_to(np.asarray(a, dtype=float) * scale,
                                  rows.shape) for a in st.alphas.values()], 1)
    nz = w != 0.0
    # the centre key is 0 in 1D and (0, 0) in 2D
    _exact_rows(w, [not np.any(k) for k in st.alphas].index(True), target)
    for k, wk, keep in zip(st.alphas, w.T, nz.T):
        keep = slice(None) if keep.all() else keep     # a view, not a copy
        b.add(rows[keep], col[k][keep], wk[keep])
    acc = np.array(np.broadcast_to(st.correction, rows.shape), dtype=float)
    for k, bw in st.betas.items():
        acc += np.asarray(bw, dtype=float) * fv[col[k]]
    b.rhs[rows] = acc


def _exact_rows(w, centre: int, target=0.0) -> None:
    """Round the rows ``w`` of stencil weights, one equation each, in place
    to the values that are stored.

    Each off-diagonal weight is rounded to a power-of-two grid of its row,
    twice the spacing of the row's sum of off-diagonal magnitudes, so that
    their float sum is exact; the diagonal, in column ``centre``, becomes
    ``target`` minus that sum. The given diagonal is never read. A
    consistent row of ``kappa Lap u + K u`` sums to ``K``, which is 0 in 2D,
    and the stored row sums to it exactly wherever ``K`` lies on the row's
    grid, as 0 always does.
    """
    w[:, centre] = 0.0
    q = 2 * np.spacing(np.abs(w).sum(axis=1, keepdims=True))
    w[:] = np.round(w / q) * q
    w[:, centre] = target - w.sum(axis=1)


def _interface_pair(grid: Grid1D, problem, side):
    """Fitted three-point weights ``(3, len(side))`` and right-side
    corrections of the nodes of the 1D pair that flanks the interface
    point, the left one where ``side`` is -1 and the right one where +1."""
    j = int(np.searchsorted(grid.x, grid.alpha, "right")) - 1
    pair = iim_1d_irregular(
        problem.kappa_minus, problem.kappa_plus, grid.alpha,
        float(grid.x[j]), grid.h_f, problem.jumps, float(grid.x[j + 1]))
    m = (side > 0).astype(int)
    weights = np.array([[st.alphas[k] for st in pair] for k in (-1, 0, 1)])
    return weights[:, m], np.array([st.correction for st in pair])[m]


def _spacings(grid, rows, left, right):
    """x-distances from ``rows`` to their neighbours at offsets ``left`` and
    ``right``."""
    lo, hi = grid.neighbors(rows, [left, right]).T
    return grid.x[rows] - grid.x[lo], grid.x[hi] - grid.x[rows]


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------

def _assemble_1d(b, grid: Grid1D, problem, kap, fv) -> None:
    K, h_f = problem.K, grid.h_f

    def emit(rows, st):
        _emit(b, grid, rows, st, 1.0, fv, target=K)

    if problem.jumps is None:
        rows = np.nonzero(grid.tags != NodeTag.BOUNDARY)[0]
        emit(rows, stencils.centered_nonuniform_1d(
            kap[rows], problem.conv, K, *_spacings(grid, rows, -1, 1)))
        return

    rows = tagged(grid.tags, NodeTag.COARSE_REGULAR, NodeTag.BORDER)
    emit(rows, stencils.border_coeffs_1d(*_spacings(grid, rows, -1, 1),
                                         kap[rows], K))
    rows = tagged(grid.tags, NodeTag.FINE_REGULAR)
    k = kap[rows]
    emit(rows, stencils.Stencil(
        alphas={-1: k / h_f**2, 0: -2.0 * k / h_f**2, 1: k / h_f**2},
        betas={0: 1.0}))
    rows = tagged(grid.tags, NodeTag.FINE_IRREGULAR)
    if len(rows):
        (gm, g0, gp), corr = _interface_pair(grid, problem, grid.side[rows])
        emit(rows, stencils.Stencil(alphas={-1: gm, 0: g0, 1: gp},
                                    betas={0: 1.0}, correction=corr))


# ---------------------------------------------------------------------------
# 2D strip around a vertical interface line
# ---------------------------------------------------------------------------

def _assemble_line(b, grid: Grid2DLine, problem, kap, fv) -> None:
    h_y = grid.h_y
    rows = tagged(grid.tags, NodeTag.COARSE_REGULAR)
    if len(rows) and abs(h_y - grid.h) > 1e-12 * grid.h:
        raise BadParams("coarse strip columns need square cells")
    rows = tagged(grid.tags, NodeTag.COARSE_REGULAR, NodeTag.BORDER)
    _emit(b, grid, rows, stencils.border_coeffs_2d(
        *_spacings(grid, rows, (-1, 0), (1, 0)), h_y), kap[rows], fv)
    rows = tagged(grid.tags, NodeTag.FINE_REGULAR)
    _emit(b, grid, rows,
          stencils.strip_mixed_order_2d(grid.h_f, h_y, kappa=kap[rows]),
          1.0, fv)
    rows = tagged(grid.tags, NodeTag.FINE_IRREGULAR)
    if len(rows):
        xgamma, corr = _interface_pair(grid.cols, problem, grid.side[rows])
        _emit(b, grid, rows, stencils.strip_mixed_order_2d(
            grid.h_f, h_y, xgamma=xgamma, correction=corr, kappa=kap[rows]),
            1.0, fv)


# ---------------------------------------------------------------------------
# 2D tube around a level-set interface
# ---------------------------------------------------------------------------

_FIVE_POINT = stencils.Stencil({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0,
                                 (0, -1): 1.0, (0, 0): -4.0}, {(0, 0): 1.0})


def _assemble_tube(b, grid: Grid2DTube, problem, kap, fv) -> None:
    km, kp = problem.kappa_minus, problem.kappa_plus
    r, h, h_f = grid.r, grid.h, grid.h_f

    coarse = tagged(grid.tags, NodeTag.COARSE_REGULAR)
    _emit(b, grid, coarse, stencils.border_coeffs_2d(h, h, h), kap[coarse],
          fv, step=r)

    plain = problem.jumps is None
    if plain:
        # Without an interface the side classification is vacuous, so nodes
        # straddling the level set's zero curve are ordinary fine nodes.
        # The solution is smooth in the tube and the compact fourth order
        # scheme applies on the fine lattice as well.  A concave corner of
        # the patch union can lack one diagonal neighbour; those nodes keep
        # the five point scheme.
        fine = tagged(grid.tags, NodeTag.FINE_REGULAR, NodeTag.FINE_IRREGULAR)
        st = stencils.border_coeffs_2d(h_f, h_f, h_f)
        ok = (grid.neighbors(fine, list(st.alphas)) >= 0).all(axis=1)
        _emit(b, grid, fine[ok], st, kap[fine[ok]], fv)
        fine = fine[~ok]
    else:
        fine = tagged(grid.tags, NodeTag.FINE_REGULAR)
    _emit(b, grid, fine, _FIVE_POINT, kap[fine] / h_f**2, fv)

    hanging = grid.tags == NodeTag.HANGING
    hang_axis, hang_j = grid.hang_axis, grid.hang_j    # computed per read
    for j in np.unique(hang_j[hanging]):
        st = stencils.hanging_coeffs(r, int(j))
        for axis in (0, 1):
            rows = np.nonzero(hanging & (hang_j == j)
                              & (hang_axis == axis))[0]
            _emit(b, grid, rows, st, kap[rows] / h**2, fv, flip=axis == 1)

    irr = tagged(grid.tags, NodeTag.FINE_IRREGULAR)
    if plain or not len(irr):
        return
    nbrs = grid.neighbors(irr, _RING2)
    nodes = IrregularNodes(x=grid.x[irr], y=grid.y[irr], h_f=h_f,
                           ring_side=np.where(nbrs >= 0, grid.side[nbrs], 0))
    if km == kp:
        weights, corr = singular_source_stencil_2d(nodes, grid.ls, km,
                                                   problem.jumps, problem.f)
    else:
        weights, corr = iim_discontinuous_stencil_2d(nodes, grid.ls, km, kp,
                                                     problem.jumps, problem.f)
    _emit(b, grid, irr, stencils.Stencil(dict(zip(_RING2, weights.T)),
                                         {(0, 0): 1.0}, corr), 1.0, fv)


# each grid's row writer: adds the equations of its interior node classes
_ROW_WRITERS = {Grid1D: _assemble_1d, Grid2DLine: _assemble_line,
                Grid2DTube: _assemble_tube}
