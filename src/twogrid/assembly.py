"""System assembly: one discrete equation per node, dispatched on node tag.

The assembled matrix is full-size with identity rows at Dirichlet nodes, so
node ids and matrix rows coincide and structural checks can look at
interior rows without reindexing. :func:`assemble` builds every system:
it writes the Dirichlet rows, an identity entry and ``problem.boundary`` on
the right side, and the grid's row writer adds the interior node classes,
one block of rows per class and stencil. The builder writes each block
straight into the CSR arrays: every grid numbers its nodes in the order
of their lattice offsets, so each row's columns already ascend and no
triplet is sorted or summed. A tube without interface jumps also gets the
grid's nested-dissection order, which :func:`twogrid.linsolve.solve`
factors in.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    order: Optional[np.ndarray] = None  # elimination order for the factor


class _Builder:
    """A system's rows, one block per node class, which :meth:`finish`
    writes straight into the CSR arrays."""

    def __init__(self, n: int):
        self.n = n
        self.blocks = []
        self.rhs = np.zeros(n)

    def add(self, rows, cols, vals, keep=None) -> None:
        """Add ``rows`` with their ``(m, k)`` columns, ascending along each
        row, the values there and the mask of those stored (None: all)."""
        rows = np.asarray(rows, dtype=np.int64)
        self.blocks.append((rows, np.reshape(cols, (len(rows), -1)),
                            np.reshape(vals, (len(rows), -1)), keep))

    def finish(self) -> sp.csr_matrix:
        """The CSR matrix, with int32 indices while its size and entry count
        stay below 2**31, as scipy would pick."""
        n, count = self.n, np.zeros(self.n, dtype=np.int64)
        written = np.zeros(n, dtype=bool)
        for rows, cols, _, keep in self.blocks:
            written[rows] = True
            count[rows] = cols.shape[1] if keep is None else keep.sum(axis=1)
        if np.count_nonzero(written) < sum(len(b[0]) for b in self.blocks):
            raise ValueError("two blocks write the same row")
        nnz = int(count.sum())
        dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(count, out=indptr[1:])
        indices, data = np.empty(nnz, dtype=dtype), np.empty(nnz)
        while self.blocks:      # each block is freed once it is written
            rows, cols, vals, keep = self.blocks.pop()
            first = indptr[rows][:, None]
            if keep is None:
                slots = first + np.arange(cols.shape[1], dtype=dtype)
            else:
                slots = (first + np.cumsum(keep, axis=1, dtype=dtype) - 1)[keep]
                cols, vals = cols[keep], vals[keep]
            indices[slots], data[slots] = cols, vals
        if nnz and indices.min() < 0:
            raise MissingNeighbor("stencil referenced a node outside the grid")
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble(grid, problem) -> SparseSystem:
    """The system of ``problem`` on ``grid``, Dirichlet rows included."""
    write = _ROW_WRITERS.get(type(grid))
    if write is None:
        raise BadParams(f"unknown grid type {type(grid).__name__}")
    side = grid.side
    kap = np.where(side < 0, problem.kappa_minus,
                   problem.kappa_plus).astype(float)
    # a tube computes x and y from its codes on each read: they are read
    # once, and dropped before the row writers, whose peak they would raise
    x, y = grid.x, grid.y
    fv = problem.f(x, y, side.astype(int))
    b = _Builder(grid.n)
    bnd = tagged(grid.tags, NodeTag.BOUNDARY)
    trace = problem.boundary(x[bnd], y[bnd], side[bnd].astype(int))
    del x, y
    b.add(bnd, bnd, np.ones(len(bnd)))
    # an entry that overflows is not warned about: the checks below name
    # the first node whose row or right side is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        write(b, grid, problem, kap, fv)
    matrix, rhs = b.finish(), b.rhs
    rhs[bnd] = trace
    # the matrix's data is read in place, with one boolean temporary; its
    # first bad entry names its row
    for what, vals, indptr in (("the right side", rhs, None),
                               ("a matrix entry", matrix.data, matrix.indptr)):
        ok = np.isfinite(vals)
        if not ok.all():
            i = np.argmin(ok)   # the first entry that is not finite
            i = i if indptr is None else np.searchsorted(indptr, i, "right") - 1
            raise BadParams(f"{problem.name}: {what} is not finite at node "
                            f"{i} (x={grid.x[i]:.6g}, y={grid.y[i]:.6g})")
    # a tube without jumps couples each node only to its lattice neighbours,
    # so a dissection of the lattice gives its factor less fill than minimum
    # degree does; with fitted interface rows it gave more
    order = (grid.dissection_order()
             if isinstance(grid, Grid2DTube) and problem.jumps is None
             else None)
    return SparseSystem(matrix=matrix, rhs=rhs,
                        boundary=grid.tags == NodeTag.BOUNDARY, order=order)


def _emit(b, grid, rows, st, scale, fv, target=0.0, step=1, flip=False,
          nbrs=None) -> None:
    """Add the equations of ``rows``, which share the stencil ``st``, to
    ``b`` as one block.

    This is the one writer of interior rows. Each key of ``st`` is a lattice
    offset in units of ``step`` steps, with its axes swapped if ``flip``;
    ``grid.neighbors`` finds the node there, unless ``nbrs`` holds those
    ids in the key order of :func:`_lattice_keys`, which every grid's node
    numbering follows, so each row's columns ascend. Each row gets
    ``alpha * scale`` in that node's column wherever that weight is not
    exactly 0.0, rounded by :func:`_exact_rows` to sum to ``target``, and
    the right side ``st.correction + sum beta * fv`` over the same nodes,
    summed in key order; ``fv`` is the source at every node. Every weight,
    ``scale`` and the correction is a scalar or one value per row.
    """
    if not len(rows):
        return
    keys, offs = _lattice_keys(st, step, flip)
    if nbrs is None:
        nbrs = grid.neighbors(rows, offs)
    alphas = [np.asarray(a, dtype=float) for a in st.alphas.values()]
    scale, inv = np.broadcast_to(np.asarray(scale, dtype=float),
                                 rows.shape), slice(None)
    if all(a.ndim == 0 for a in alphas):
        # rows differ only by scale: one row per distinct scale is rounded,
        # told apart by its bits so that -0.0 and NaNs never merge
        bits, inv = np.unique(scale.view(np.int64), return_inverse=True)
        scale = bits.view(float)
    w = np.stack([np.broadcast_to(a * scale, scale.shape) for a in alphas], 1)
    nz = w != 0.0
    # the centre key is 0 in 1D and (0, 0) in 2D
    _exact_rows(w, [not np.any(k) for k in st.alphas].index(True), target)
    at = [list(st.alphas).index(k) for k in keys[:len(st.alphas)]]
    b.add(rows, nbrs[:, :len(at)], w[:, at][inv],
          None if nz.all() else nz[:, at][inv])
    col = dict(zip(keys, nbrs.T))
    acc = np.array(np.broadcast_to(np.asarray(st.correction, dtype=float),
                                   rows.shape))
    for k, bw in st.betas.items():
        acc += np.asarray(bw, dtype=float) * fv[col[k]]
    b.rhs[rows] = acc


def _lattice_keys(st, step=1, flip=False):
    """The keys of ``st``, its alpha keys first, each group in the
    ``(dy, dx)`` order of their lattice offsets, and those offsets."""
    offs = {k: np.multiply(k[::-1] if flip else k, step)
            for k in {**st.alphas, **st.betas}}
    keys = sorted(offs, key=lambda k: (k not in st.alphas,
                                       *np.atleast_1d(offs[k])[::-1]))
    return keys, [offs[k] for k in keys]


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
        nbrs = grid.neighbors(fine, _lattice_keys(st)[1])
        ok = (nbrs >= 0).all(axis=1)
        _emit(b, grid, fine[ok], st, kap[fine[ok]], fv, nbrs=nbrs[ok])
        fine = fine[~ok]
    else:
        fine = tagged(grid.tags, NodeTag.FINE_REGULAR)
    _emit(b, grid, fine, _FIVE_POINT, kap[fine] / h_f**2, fv)

    hang, axis, j = grid.hanging()
    sts = {jj: stencils.hanging_coeffs(r, jj) for jj in np.unique(j).tolist()}
    key = 2 * j + axis
    order = np.argsort(key, kind="stable")  # by (j, axis), ids ascending
    for g in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        rows = hang[g]
        _emit(b, grid, rows, sts[int(j[g[0]])], kap[rows] / h**2, fv,
              flip=axis[g[0]] == 1)

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
