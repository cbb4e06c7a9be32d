"""Composite two-grid meshes: coarse background plus a refined interface tube.

Three constructions share one node taxonomy:

* 1D: coarse nodes outside a tube around the interface point (or abutting
  one boundary for layer problems), fine nodes inside, one border node on
  each seam.
* 2D "line": a vertical-interface strip; every 1D column is extruded along
  uniform coarse rows.
* 2D "tube": a full coarse lattice everywhere; coarse nodes within
  ``lam * h`` of the interface sprout ``(2r+1)`` x ``(2r+1)`` fine patches
  whose union is the tube. Fine nodes on the tube rim that do not coincide
  with the coarse lattice hang between two coarse neighbors. The tube stores
  each node's fine-lattice code, tag and side, and a bitmap of the codes;
  it computes coordinates and hanging placement from the codes when they
  are read, and a nested-dissection order of its nodes for the factor.

Node ids are deterministic: sorted by x in 1D and row-major (y, then x)
in 2D. Only this module knows that numbering: each grid's ``neighbors``
turns a lattice offset from a node into the id of the node there.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Tuple, Union

import numpy as np

from .errors import BadParams, EmptyTube, TubeTooWide
from .geometry import LevelSet


class NodeTag(IntEnum):
    COARSE_REGULAR = 0
    FINE_REGULAR = 1
    FINE_IRREGULAR = 2
    BORDER = 3
    HANGING = 4
    BOUNDARY = 5


TAG_NAMES = {t: t.name.lower() for t in NodeTag}


def tagged(tags: np.ndarray, *wanted: NodeTag) -> np.ndarray:
    """Ids of the nodes whose tag is any of ``wanted``, ascending."""
    return np.nonzero(np.logical_or.reduce([tags == t for t in wanted]))[0]


@dataclass
class GridParams:
    """Mesh parameters: ``N`` coarse cells, refinement ratio ``r`` (the fine
    spacing is ``h_f = h / r``), tube half-width ``lam`` in units of the
    coarse spacing.

    ``domain`` is ``(a, b)`` in 1D and ``((ax, bx), (ay, by))`` in 2D (a bare
    ``(a, b)`` is promoted to the square). The paper's ``h_f = h**2`` on 1D
    and line grids is ``r = N / (b - a)``, ``r = N`` on the unit interval,
    which :func:`twogrid.harness.build_grid` sets.
    """

    N: int
    r: int
    lam: float = 2.0
    domain: Tuple = (0.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("N", "r"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise BadParams(f"{name} must be an integer, got {value!r}")
        if self.N < 4:
            raise BadParams(f"need at least 4 coarse cells, got N={self.N}")
        if self.r < 2:
            raise BadParams(f"refinement ratio must be >= 2, got {self.r}")
        lam = self.lam
        if (isinstance(lam, bool)
                or not (isinstance(lam, numbers.Real) and 0 < lam < math.inf)):
            raise BadParams("tube half-width must be positive and finite, "
                            f"got {lam!r}")


def _interval(domain) -> Tuple[float, float]:
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise BadParams(f"empty interval ({a}, {b})")
    return a, b


def _square(domain) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    if np.ndim(domain[0]) == 0:
        iv = _interval(domain)
        return iv, iv
    return _interval(domain[0]), _interval(domain[1])


# ---------------------------------------------------------------------------
# one dimension
# ---------------------------------------------------------------------------

@dataclass
class Grid1D:
    x: np.ndarray
    tags: np.ndarray
    side: np.ndarray            # -1 at x <= alpha, else (or no alpha) +1
    h: float
    h_f: float
    r: int
    alpha: Optional[float] = None       # None: boundary-layer grid

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def y(self) -> np.ndarray:
        return np.zeros_like(self.x)

    def neighbors(self, ids, offsets) -> np.ndarray:
        """``(len(ids), len(offsets))`` ids of the nodes ``d`` nodes right
        of each of ``ids`` (left for ``d < 0``), for each ``d`` in
        ``offsets``; ids run along x."""
        return ids[:, None] + np.asarray(offsets)


def build_two_grid_1d(params: GridParams, alpha: Optional[float]) -> Grid1D:
    """One-dimensional composite grid.

    With ``alpha`` given, the tube is the smallest coarse-node interval
    containing ``[alpha - lam*h, alpha + lam*h]`` (borders snap outward onto
    coarse nodes). With ``alpha=None`` the fine zone spans the last ``lam``
    coarse cells instead, for boundary-layer problems, and ends exactly at
    the right end of the domain.
    """
    a, b = _interval(params.domain)
    N, r = params.N, params.r
    h = (b - a) / N
    h_f = h / r

    if alpha is None:
        i_lo, i_hi = int(math.floor(N - params.lam + 1e-10)), N
        if i_lo == N:
            raise BadParams(f"layer width lam={params.lam} snaps to no fine "
                            "cell at the right end")
        if i_lo < 1:
            raise TubeTooWide(f"layer zone of {params.lam} cells leaves no "
                              f"coarse interior for N={N}")
    else:
        if not a < alpha < b:
            raise BadParams(f"alpha={alpha} outside ({a}, {b})")
        # snap outward to coarse nodes; a tube hitting the boundary is fine
        # in 1D (the border node simply degenerates into a Dirichlet node)
        i_lo = max(0, int(math.floor((alpha - params.lam * h - a) / h + 1e-10)))
        i_hi = min(N, int(math.ceil((alpha + params.lam * h - a) / h - 1e-10)))
        if i_hi <= i_lo:
            raise BadParams(f"tube half-width lam={params.lam} snaps to no "
                            f"fine cell around alpha={alpha}")

    m = (i_hi - i_lo) * r
    x = np.concatenate([a + np.arange(i_lo + 1) * h,
                        (a + i_lo * h) + np.arange(1, m) * h_f,
                        a + np.arange(i_hi, N + 1) * h])
    tags = np.repeat(np.array([NodeTag.COARSE_REGULAR, NodeTag.FINE_REGULAR,
                               NodeTag.COARSE_REGULAR], dtype=np.int8),
                     [i_lo + 1, m - 1, N - i_hi + 1])
    tags[[i_lo, i_lo + m]] = NodeTag.BORDER
    tags[[0, -1]] = NodeTag.BOUNDARY

    if alpha is None:
        x[-1] = b
        side = np.ones(len(x), dtype=np.int8)
    else:
        side = np.where(x <= alpha, -1, 1).astype(np.int8)
        # the pair flanking alpha; a member that is a border or boundary
        # node (alpha in the tube's first or last fine cell) keeps its tag
        j = int(np.searchsorted(x, alpha, "right")) - 1
        pair = tags[j:j + 2]
        pair[pair == NodeTag.FINE_REGULAR] = NodeTag.FINE_IRREGULAR

    return Grid1D(x=x, tags=tags, side=side, h=h, h_f=h_f, r=r, alpha=alpha)


# ---------------------------------------------------------------------------
# 2D, refined along a vertical interface line
# ---------------------------------------------------------------------------

@dataclass
class Grid2DLine:
    """Strip grid; the node in ``(row, col)`` has id ``row * ncol + col``."""

    cols: Grid1D
    N: int
    h: float
    h_y: float
    alpha: float
    x: np.ndarray
    y: np.ndarray
    tags: np.ndarray
    side: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def ncol(self) -> int:
        return self.cols.n

    @property
    def h_f(self) -> float:
        return self.cols.h_f

    def neighbors(self, ids, offsets) -> np.ndarray:
        """``(len(ids), len(offsets))`` ids of the nodes ``dx`` columns
        right and ``dy`` rows up of each of ``ids``, for each ``(dx, dy)``
        in ``offsets``."""
        return ids[:, None] + np.asarray(offsets) @ (1, self.ncol)


def build_line_two_grid_2d(params: GridParams, alpha: float) -> Grid2DLine:
    """Strip grid for a straight interface ``x = alpha``: columns from the 1D
    construction, uniform coarse rows in y."""
    (ax, bx), (ay, by) = _square(params.domain)
    cols = build_two_grid_1d(
        GridParams(params.N, params.r, params.lam, (ax, bx)), alpha)
    h_y = (by - ay) / params.N
    ncol = cols.n
    nrow = params.N + 1

    x = np.tile(cols.x, nrow)
    y = np.repeat(ay + h_y * np.arange(nrow), ncol)
    tags = np.tile(cols.tags, nrow)
    tags[:ncol] = NodeTag.BOUNDARY
    tags[-ncol:] = NodeTag.BOUNDARY
    tags[::ncol] = NodeTag.BOUNDARY
    tags[ncol - 1::ncol] = NodeTag.BOUNDARY

    return Grid2DLine(cols=cols, N=params.N, h=cols.h, h_y=h_y, alpha=alpha,
                      x=x, y=y, tags=tags, side=np.tile(cols.side, nrow))


# ---------------------------------------------------------------------------
# 2D, refined in a tube around a level-set interface
# ---------------------------------------------------------------------------

@dataclass
class Grid2DTube:
    ls: LevelSet
    N: int
    h: float
    h_f: float
    r: int
    W: int                      # row stride of the global fine lattice
    ax: float                   # the lattice origin, code 0
    ay: float
    codes: np.ndarray           # sorted: code = py * W + px
    tags: np.ndarray
    side: np.ndarray            # -1 where phi <= 0, +1 elsewhere
    words: np.ndarray = field(repr=False)   # node bitmap, bit c = code c
    rank: np.ndarray = field(repr=False)    # int32 nodes before each word

    # Coordinates and hanging placement are computed from ``codes`` on each
    # read and never kept: a kept copy would outlive assembly and sit beside
    # the factor.

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def x(self) -> np.ndarray:
        return self.ax + self.codes % self.W * self.h_f

    @property
    def y(self) -> np.ndarray:
        return self.ay + self.codes // self.W * self.h_f

    @property
    def hang_axis(self) -> np.ndarray:
        """0 at hanging nodes between x-neighbors, 1 between y-neighbors,
        -1 elsewhere."""
        hx, hy = self._hanging()
        return np.select([hx, hy], [0, 1], -1).astype(np.int8)

    @property
    def hang_j(self) -> np.ndarray:
        """Fine offset of each hanging node from its lower/left coarse
        neighbor; 0 elsewhere."""
        hx, hy = self._hanging()
        return np.select([hx, hy], [self.codes % self.W % self.r,
                                    self.codes // self.W % self.r],
                         0).astype(np.int32)

    def _hanging(self):
        """Masks of the hanging nodes on a coarse x-line and of those on a
        coarse y-line only."""
        hanging = self.tags == NodeTag.HANGING
        hx = hanging & (self.codes // self.W % self.r == 0)
        return hx, hanging & ~hx & (self.codes % self.W % self.r == 0)

    def id_of(self, codes) -> np.ndarray:
        """Node ids for fine-lattice codes; -1 where no node exists."""
        # as uint64 a negative code wraps past W**2; bit c & 63 of its word
        # shifted up to bit 63 keeps the node bits at or below it
        c = np.atleast_1d(np.asarray(codes, dtype=np.int64)).view(np.uint64)
        word = c >> 6
        kept = self.words.take(word, mode="clip") << (63 - (c & 63))
        hit = (kept >> 63).astype(bool) & (c < self.W * self.W)
        ids = self.rank.take(word, mode="clip") + np.bitwise_count(kept)
        return np.where(hit, ids - 1, -1).astype(np.int64)

    def neighbors(self, ids, offsets) -> np.ndarray:
        """``(len(ids), len(offsets))`` ids of the nodes ``dx`` fine steps
        right and ``dy`` up of each of ``ids``, for each ``(dx, dy)`` in
        ``offsets``; -1 where the grid has no node there."""
        deltas = np.asarray(offsets) @ (1, self.W)
        return self.id_of(self.codes[ids][:, None] + deltas)

    def dissection_order(self) -> np.ndarray:
        """A nested-dissection order of the node ids (George, SIAM J. Numer.
        Anal. 10, 1973): entry ``i`` is the node eliminated ``i``-th.

        The lattice is cut alternately along x and y, with each axis cut as
        :func:`_bisection` does. A node's x line is cut at depth ``dx`` and
        its y line at ``dy``, so it lies on a separator of level
        ``min(2 dx, 2 dy + 1)``. Its key holds the interleaved x and y path
        bits above that level and ones from there down, which puts every
        separator after both of its halves; among equal keys the deeper
        level goes first.
        """
        depth, bits = _bisection(self.W, self.r)
        px, py = self.codes % self.W, self.codes // self.W
        level = np.minimum(2 * depth[px], 2 * depth[py] + 1)
        key = (bits[px] << 1) | bits[py] | ((1 << (2 * _DEPTH - level)) - 1)
        return np.lexsort((-level, key))


_DEPTH = 31     # bisection depths a key can hold; 62 bits in all


def _bisection(W: int, r: int):
    """Recursive bisection of the fine lattice lines ``0 .. W - 1`` of one
    axis: the depth at which each line is cut, and its path of left (0) and
    right (1) turns above that depth, the turn at depth ``d`` at bit
    ``2 (_DEPTH - 1 - d)``. An interval of more than ``2 r`` steps is cut
    on the coarse line nearest its midpoint, a shorter one on its midpoint
    line."""
    depth = np.zeros(W, dtype=np.int64)
    bits = np.zeros(W, dtype=np.int64)
    stack = [(0, W - 1, 0, 0)]
    while stack:
        lo, hi, d, path = stack.pop()
        if lo > hi:
            continue
        cut = ((lo + hi + r) // (2 * r) * r if hi - lo > 2 * r
               else (lo + hi) // 2)
        depth[cut], bits[cut] = d, path
        turn = 1 << (2 * (_DEPTH - 1 - d))
        stack += [(lo, cut - 1, d + 1, path), (cut + 1, hi, d + 1, path | turn)]
    return depth, bits


def build_tube_two_grid_2d(params: GridParams, ls: LevelSet) -> Grid2DTube:
    """Tube-refined grid around the zero set of ``ls``.

    Every coarse node within ``lam * h`` of the interface (inclusive, as
    measured by ``|phi|``) is a patch parent; parents must stay two coarse
    cells clear of the boundary or :class:`TubeTooWide` is raised, so no
    patch reaches the boundary.
    """
    (ax, bx), (ay, by) = _square(params.domain)
    N, r = params.N, params.r
    h = (bx - ax) / N
    if abs((by - ay) / N - h) > 1e-12 * h:
        raise BadParams("tube grids need square coarse cells")
    h_f = h / r
    W = N * r + 1

    ii = np.arange(N + 1)
    CI, CJ = np.meshgrid(ii, ii, indexing="ij")
    phi_c = np.asarray(ls.phi(ax + CI * h, ay + CJ * h), dtype=float)
    pmask = np.abs(phi_c) <= params.lam * h + 1e-12
    if not pmask.any():
        raise EmptyTube("no coarse node lies within lam*h of the interface")
    pi, pj = CI[pmask], CJ[pmask]
    if pi.min() < 2 or pi.max() > N - 2 or pj.min() < 2 or pj.max() > N - 2:
        raise TubeTooWide("refinement patches reach within two coarse cells "
                          "of the boundary; shrink lam or refine")

    # patch[py, px] is the union of the patches; the node bitmap adds the
    # coarse lattice and is padded to whole 64-bit words
    off = np.arange(-r, r + 1)
    patch = np.zeros((W, W), dtype=bool)
    patch[(pj * r)[:, None, None] + off[:, None],
          (pi * r)[:, None, None] + off] = True
    in_patch = patch.ravel()
    flat = np.zeros(-(-W * W // 64) * 64, dtype=bool)
    flat[:W * W] = in_patch
    flat[:W * W].reshape(W, W)[::r, ::r] = True
    codes = np.flatnonzero(flat)

    px = codes % W
    py = codes // W
    x = ax + px * h_f
    y = ay + py * h_f
    phi = np.asarray(ls.phi(x, y), dtype=float)
    side = np.where(phi <= 0.0, -1, 1).astype(np.int8)

    # patch nodes sit r >= 2 steps inside, so their arms stay on the lattice
    inR = in_patch[codes]
    arms = (1, -1, W, -W)
    fine4 = np.zeros(len(codes), dtype=bool)
    fine4[inR] = np.all([in_patch[codes[inR] + d] for d in arms], axis=0)
    on_xline = py % r == 0
    on_yline = px % r == 0

    fine_cls = inR & fine4
    # a patch node missing a 4-neighbour lies on its patch's edge, which is
    # a coarse lattice line
    hanging = inR & ~fine4 & ~(on_xline & on_yline)

    tags = np.full(len(codes), NodeTag.COARSE_REGULAR, dtype=np.int8)
    tags[fine_cls] = NodeTag.FINE_REGULAR
    tags[hanging] = NodeTag.HANGING

    # fine nodes whose arms change side are irregular; the arms are nodes
    side_at = np.zeros(W * W, dtype=np.int8)
    side_at[codes] = side
    fc = codes[fine_cls]
    irr = np.any([side_at[fc + d] != side_at[fc] for d in arms], axis=0)
    tags[np.flatnonzero(fine_cls)[irr]] = NodeTag.FINE_IRREGULAR

    # a side without a regular fine node is thinner than the fine lattice
    # resolves: a circle of radius below h_f solved to errors of up to 879
    for sgn, name in ((-1, "minus (phi <= 0)"), (1, "plus (phi > 0)")):
        if not np.any(tags[side == sgn] == NodeTag.FINE_REGULAR):
            raise EmptyTube(f"the tube holds no fine-regular node on the "
                            f"{name} side of the interface; refine so the "
                            "fine spacing resolves it")

    on_boundary = (px == 0) | (px == N * r) | (py == 0) | (py == N * r)
    tags[on_boundary] = NodeTag.BOUNDARY

    words = np.packbits(flat, bitorder="little").view("<u8")
    rank = np.zeros(len(words), dtype=np.int32)
    np.cumsum(np.bitwise_count(words[:-1]), out=rank[1:], dtype=np.int32)

    return Grid2DTube(ls=ls, N=N, h=h, h_f=h_f, r=r, W=W, ax=ax, ay=ay,
                      codes=codes, tags=tags, side=side, words=words,
                      rank=rank)


Grid = Union[Grid1D, Grid2DLine, Grid2DTube]


def dump_grid_json(grid: Grid, path: str) -> None:
    """Write the node list as compact JSON records ``{id, x, y, tag}``."""
    names = list(TAG_NAMES.values())
    rows = [{"id": i, "x": x, "y": y, "tag": names[t]}
            for i, (x, y, t) in enumerate(zip(grid.x.tolist(),
                                              grid.y.tolist(),
                                              grid.tags.tolist()))]
    with open(path, "w") as fh:
        fh.write(json.dumps(rows, separators=(",", ":")))
