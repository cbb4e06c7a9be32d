"""Composite grid construction: structure, tags, failure modes."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from twogrid import stencils
from twogrid.errors import (BadParams, EmptyTube, MissingNeighbor,
                            TubeTooWide, TwoGridError)
from twogrid.geometry import LevelSet
from twogrid.grid import (TAG_NAMES, GridParams, NodeTag,
                          build_line_two_grid_2d, build_tube_two_grid_2d,
                          build_two_grid_1d, dump_grid_json)
from twogrid.harness import build_grid, run_case
from twogrid.iim import _RING2
from twogrid.problems import make_problem


def tag_counts(grid):
    out = {}
    for t in NodeTag:
        out[t] = int(np.count_nonzero(grid.tags == t))
    return out


def circle_ls(R=0.5):
    return LevelSet(phi=lambda x, y: np.hypot(x, y) - R)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(BadParams):
        GridParams(N=3, r=2)
    with pytest.raises(BadParams):
        GridParams(N=10, r=1)
    with pytest.raises(BadParams):
        GridParams(N=10, r=2, lam=0.0)


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(N=10, r=2, lam=float("nan")), id="lam-nan"),
    pytest.param(dict(N=10, r=2, lam=float("inf")), id="lam-inf"),
    pytest.param(dict(N=10, r=2, lam=-float("inf")), id="lam-minus-inf"),
    pytest.param(dict(N=10.5, r=2), id="N-fractional"),
    pytest.param(dict(N=10.0, r=2), id="N-float"),
    pytest.param(dict(N=10, r=2.5), id="r-fractional"),
    pytest.param(dict(N="10", r=2), id="N-string"),
    pytest.param(dict(N=10, r=2, lam="2"), id="lam-string"),
    pytest.param(dict(N=10, r=2, lam=None), id="lam-none"),
    pytest.param(dict(N=10, r=2, lam=True), id="lam-bool"),
])
def test_params_reject_non_finite_lam_and_non_integer_sizes(kwargs):
    with pytest.raises(BadParams):
        GridParams(**kwargs)


def test_params_accept_numpy_integers():
    p = GridParams(N=np.int64(10), r=np.int32(2), lam=np.float64(2.0))
    assert np.array_equal(build_two_grid_1d(p, alpha=0.55).x,
                          build_two_grid_1d(GridParams(N=10, r=2), 0.55).x)


# ---------------------------------------------------------------------------
# one dimension
# ---------------------------------------------------------------------------

def test_1d_structure_frozen_counts():
    # hand-derived for N=10, r=8, lam=2, alpha=17/30 on (0, 1): the tube
    # snaps to coarse nodes 3 and 8, so 4 + 39 + 3 nodes in total
    g = build_two_grid_1d(GridParams(N=10, r=8, lam=2.0), alpha=17.0 / 30.0)
    assert g.n == 46
    assert g.h == pytest.approx(0.1)
    assert g.h_f == pytest.approx(0.1 / 8)
    c = tag_counts(g)
    assert c[NodeTag.BOUNDARY] == 2
    assert c[NodeTag.BORDER] == 2
    assert c[NodeTag.COARSE_REGULAR] == 3
    assert c[NodeTag.FINE_REGULAR] == 37
    assert c[NodeTag.FINE_IRREGULAR] == 2
    assert c[NodeTag.HANGING] == 0
    # border nodes sit on the snapped coarse positions
    border_x = g.x[g.tags == NodeTag.BORDER]
    assert border_x == pytest.approx([0.3, 0.8])
    # the irregular pair straddles alpha with fine spacing
    irr_x = g.x[g.tags == NodeTag.FINE_IRREGULAR]
    assert len(irr_x) == 2
    assert irr_x[0] <= g.alpha < irr_x[1]
    assert irr_x[1] - irr_x[0] == pytest.approx(g.h_f)


def test_1d_nodes_sorted_and_spaced():
    g = build_two_grid_1d(GridParams(N=20, r=4, lam=3.0), alpha=0.345)
    dx = np.diff(g.x)
    assert (dx > 0).all()
    fine = np.isin(g.tags, (NodeTag.FINE_REGULAR, NodeTag.FINE_IRREGULAR))
    # any step adjacent to a strictly fine node is the fine spacing
    inner = fine[:-1] & fine[1:]
    assert dx[inner] == pytest.approx(g.h_f)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    assert (g.y == 0.0).all()


def test_1d_sides_split_at_alpha():
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    s = g.side
    assert ((g.x <= 0.55) == (s == -1)).all()
    assert set(np.unique(s)) == {-1, 1}


def test_1d_tube_swallows_whole_interval():
    # an oversized tube is legal in 1D: everything refines, borders vanish
    g = build_two_grid_1d(GridParams(N=4, r=2, lam=10.0), alpha=0.5)
    assert g.n == 4 * 2 + 1
    c = tag_counts(g)
    assert c[NodeTag.BORDER] == 0
    assert c[NodeTag.COARSE_REGULAR] == 0
    assert c[NodeTag.BOUNDARY] == 2


def test_1d_h2_mode():
    # h_f = h**2 is r = N / (b - a), which build_grid picks in place of r
    prob = make_problem("piecewise_kappa_1d")
    g = build_grid(prob, 10, 2, hf_mode="h2")
    assert g.r == 10
    assert g.h_f == pytest.approx(g.h**2)
    g = build_grid(replace(prob, domain=(0.0, 2.0)), 20, 2, hf_mode="h2")
    assert g.r == 10
    assert g.h_f == pytest.approx(g.h**2)


def test_1d_layer_zone_at_right_edge():
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=3.0), alpha=None)
    assert g.n == 8 + 11 + 1
    c = tag_counts(g)
    assert c[NodeTag.BORDER] == 1
    assert c[NodeTag.FINE_IRREGULAR] == 0
    assert g.x[g.tags == NodeTag.BORDER] == pytest.approx([0.7])
    assert (g.side == 1).all()


def test_1d_layer_zone_too_wide():
    with pytest.raises(TubeTooWide):
        build_two_grid_1d(GridParams(N=10, r=2, lam=10.0), alpha=None)


def test_1d_layer_of_no_fine_cell_is_bad_params():
    # a vanishing width leaves the layer zone empty, not too wide
    with pytest.raises(BadParams, match="lam=1e-12"):
        run_case(make_problem("boundary_layer_1d"), 10, 2, lam=1e-12)


def test_1d_layer_grid_ends_exactly_at_b():
    # 49 * (1/49) != 1 in floating point; the last node is b itself
    g = build_two_grid_1d(GridParams(N=49, r=2, lam=2.0), alpha=None)
    assert 49 * (1 / 49) != 1.0
    assert g.x[-1] == 1.0
    assert g.tags[-1] == NodeTag.BOUNDARY
    assert (np.diff(g.x) > 0).all()


def test_1d_alpha_required_and_in_domain():
    with pytest.raises(BadParams):
        build_two_grid_1d(GridParams(N=10, r=2), alpha=0.0)
    with pytest.raises(BadParams):
        build_two_grid_1d(GridParams(N=10, r=2), alpha=1.5)
    with pytest.raises(BadParams):
        build_two_grid_1d(GridParams(N=10, r=2, domain=(1.0, 0.0)), alpha=0.5)


@pytest.mark.parametrize("name", ["piecewise_kappa_1d", "line_interface_2d"])
def test_tube_of_no_fine_cell_is_bad_params(name):
    # alpha on a coarse node with a vanishing half-width snaps both tube
    # ends onto that node
    prob = make_problem(name, {"alpha": 0.5})
    with pytest.raises(BadParams, match="lam=1e-12"):
        build_grid(prob, 10, 2, lam=1e-12)


# ---------------------------------------------------------------------------
# 2D strip around a vertical line
# ---------------------------------------------------------------------------

def test_line_grid_extrudes_columns():
    al = 33.0 / 70.0
    g = build_line_two_grid_2d(GridParams(N=6, r=2, lam=2.0), alpha=al)
    assert g.n == 7 * g.ncol
    # frame rows and columns are boundary
    tg = g.tags.reshape(7, g.ncol)
    assert (tg[0] == NodeTag.BOUNDARY).all()
    assert (tg[-1] == NodeTag.BOUNDARY).all()
    assert (tg[:, 0] == NodeTag.BOUNDARY).all()
    assert (tg[:, -1] == NodeTag.BOUNDARY).all()
    # interior rows repeat the 1D column tagging
    cols = g.cols
    assert (tg[3, 1:-1] == cols.tags[1:-1]).all()
    assert g.h_y == pytest.approx(1.0 / 6)
    assert g.h_f == cols.h_f
    assert ((g.x <= al) == (g.side == -1)).all()


def test_line_grid_h2_mode():
    g = build_grid(make_problem("line_interface_2d"), 6, 2, hf_mode="h2")
    assert g.cols.r == 6
    assert g.h_f == pytest.approx((1.0 / 6) ** 2)


# ---------------------------------------------------------------------------
# 2D tube around a level set
# ---------------------------------------------------------------------------

def brute_force_tube_sets(N, r, lam, dom, phi):
    """Set-comprehension re-derivation of the composite node set."""
    a, b = dom
    h = (b - a) / N
    parents = [(i, j) for i in range(N + 1) for j in range(N + 1)
               if abs(phi(a + i * h, a + j * h)) <= lam * h + 1e-12]
    patch = {(i * r + oi, j * r + oj) for i, j in parents
             for oi in range(-r, r + 1) for oj in range(-r, r + 1)}
    lattice = {(i * r, j * r) for i in range(N + 1) for j in range(N + 1)}
    return patch, patch | lattice


def test_tube_nodes_match_brute_force():
    N, r, lam = 20, 2, 2.0
    dom = (-1.0, 1.0)
    ls = circle_ls()
    g = build_tube_two_grid_2d(GridParams(N=N, r=r, lam=lam, domain=dom),
                               ls=ls)
    patch, allnodes = brute_force_tube_sets(N, r, lam, dom, ls.phi)
    got = set(zip((g.codes % g.W).tolist(), (g.codes // g.W).tolist()))
    assert got == allnodes
    assert g.n == len(allnodes)

    # brute-force tag classification on the patch set
    def in_patch(p):
        return p in patch

    bf_fine = bf_hang = 0
    for p in patch:
        nbs = [(p[0] + 1, p[1]), (p[0] - 1, p[1]),
               (p[0], p[1] + 1), (p[0], p[1] - 1)]
        full = all(in_patch(q) for q in nbs)
        coincident = p[0] % r == 0 and p[1] % r == 0
        if full:
            bf_fine += 1
        elif not coincident:
            bf_hang += 1
    c = tag_counts(g)
    assert c[NodeTag.FINE_REGULAR] + c[NodeTag.FINE_IRREGULAR] == bf_fine
    assert c[NodeTag.HANGING] == bf_hang
    assert c[NodeTag.BOUNDARY] == 4 * N
    assert sum(c.values()) == g.n


def test_tube_invariants_on_circle():
    N, r = 20, 4
    ls = circle_ls()
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=(-1.0, 1.0)), ls=ls)

    coarse = g.tags == NodeTag.COARSE_REGULAR
    px, py = g.codes % g.W, g.codes // g.W
    assert ((px[coarse] % r == 0) & (py[coarse] % r == 0)).all()

    hang, axis, hang_j = g.hanging()
    assert len(hang)
    assert np.array_equal(hang, np.flatnonzero(g.tags == NodeTag.HANGING))
    assert set(np.unique(axis)) <= {0, 1}
    assert ((hang_j > 0) & (hang_j < r)).all()
    # every hanging node can reach its seven-point neighborhood: the two
    # flanking coarse columns at -j and r-j in fine steps, on rows 0, +-r
    for i, a, j in zip(hang.tolist(), axis.tolist(), hang_j.tolist()):
        if a == 0:
            offs = [(dx, dy) for dx in (-j, r - j) for dy in (-r, 0, r)]
        else:
            offs = [(dx, dy) for dy in (-j, r - j) for dx in (-r, 0, r)]
        for dx, dy in offs:
            code = int(g.codes[i]) + dy * g.W + dx
            assert g.id_of(code) >= 0, (i, dx, dy)

    # irregular fine nodes hug the interface; |grad phi| = 1 for a circle
    irr = g.tags == NodeTag.FINE_IRREGULAR
    assert irr.any()
    phi_irr = np.abs(np.hypot(g.x[irr], g.y[irr]) - 0.5)
    assert (phi_irr <= 1.5 * g.h_f).all()

    # side matches the sign convention phi <= 0 -> -1
    phi_all = np.hypot(g.x, g.y) - 0.5
    assert ((phi_all <= 0.0) == (g.side == -1)).all()

    # fine nodes keep their full five-point neighborhood
    fine = g.tags == NodeTag.FINE_REGULAR
    for delta in (1, -1, g.W, -g.W):
        assert (g.id_of(g.codes[fine] + delta) >= 0).all()


def search_ids(codes, queries):
    """Node ids by binary search over the sorted ``codes``; -1 if absent."""
    queries = np.asarray(queries, dtype=np.int64)
    pos = np.clip(np.searchsorted(codes, queries), 0, len(codes) - 1)
    return np.where(codes[pos] == queries, pos, -1)


def reference_tube_grid(params, ls):
    """The tube grid built by sorting and searching lattice codes: the
    construction the bitmap builder replaced, kept as its oracle."""
    (ax, bx), (ay, _) = (params.domain if np.ndim(params.domain[0])
                         else (params.domain, params.domain))
    N, r = params.N, params.r
    h = (bx - ax) / N
    h_f, W = h / r, N * r + 1
    ii = np.arange(N + 1)
    CI, CJ = np.meshgrid(ii, ii, indexing="ij")
    pmask = np.abs(ls.phi(ax + CI * h, ay + CJ * h)) <= params.lam * h + 1e-12
    if not pmask.any():
        raise EmptyTube("empty")
    pi, pj = CI[pmask], CJ[pmask]
    if pi.min() < 2 or pi.max() > N - 2 or pj.min() < 2 or pj.max() > N - 2:
        raise TubeTooWide("too wide")
    off = np.arange(-r, r + 1)
    OX, OY = np.meshgrid(off, off, indexing="ij")
    patch_px = (pi[:, None, None] * r + OX[None]).ravel()
    patch_py = (pj[:, None, None] * r + OY[None]).ravel()
    rcodes = np.unique(patch_py.astype(np.int64) * W + patch_px)
    ccodes = CJ.ravel().astype(np.int64) * r * W + CI.ravel() * r
    codes = np.unique(np.concatenate([rcodes, ccodes]))

    px, py = codes % W, codes // W
    side = np.where(ls.phi(ax + px * h_f, ay + py * h_f) <= 0.0,
                    -1, 1).astype(np.int8)
    inR = search_ids(rcodes, codes) >= 0
    fine4 = np.all([search_ids(rcodes, codes + d) >= 0
                    for d in (1, -1, W, -W)], axis=0)
    coincident = (px % r == 0) & (py % r == 0)
    tags = np.full(len(codes), NodeTag.COARSE_REGULAR, dtype=np.int8)
    hang_axis = np.full(len(codes), -1, dtype=np.int8)
    hang_j = np.zeros(len(codes), dtype=np.int32)
    fine_cls = inR & fine4
    hanging = inR & ~fine4 & ~coincident
    tags[fine_cls] = NodeTag.FINE_REGULAR
    on_xline, on_yline = py % r == 0, px % r == 0
    if (hanging & ~on_xline & ~on_yline).any():
        raise MissingNeighbor("off the lines")
    hx = hanging & on_xline
    hy = hanging & on_yline & ~on_xline
    tags[hanging] = NodeTag.HANGING
    hang_axis[hx], hang_axis[hy] = 0, 1
    hang_j[hx], hang_j[hy] = px[hx] % r, py[hy] % r
    idx_fine = np.nonzero(fine_cls)[0]
    irr = np.zeros(len(idx_fine), dtype=bool)
    for d in (1, -1, W, -W):
        irr |= side[search_ids(codes, codes[idx_fine] + d)] != side[idx_fine]
    tags[idx_fine[irr]] = NodeTag.FINE_IRREGULAR
    for sgn in (-1, 1):
        if not (tags[side == sgn] == NodeTag.FINE_REGULAR).any():
            raise EmptyTube("no fine-regular node on one side")
    tags[(px == 0) | (px == N * r) | (py == 0) | (py == N * r)] = \
        NodeTag.BOUNDARY
    return dict(codes=codes, x=ax + px * h_f, y=ay + py * h_f, tags=tags,
                side=side, hang_axis=hang_axis, hang_j=hang_j)


def assert_matches_reference(params, ls):
    try:
        want = reference_tube_grid(params, ls)
    except TwoGridError as exc:
        with pytest.raises(type(exc)):
            build_tube_two_grid_2d(params, ls)
        return
    g = build_tube_two_grid_2d(params, ls)
    hang_axis, hang_j = want.pop("hang_axis"), want.pop("hang_j")
    for name, ref in want.items():
        got = getattr(g, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name
    hang, axis, j = g.hanging()
    assert np.array_equal(hang, np.flatnonzero(hang_axis >= 0))
    for name, got, ref in (("axis", axis, hang_axis[hang]),
                           ("j", j, hang_j[hang])):
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


TUBE_PROBLEMS = [
    ("peskin_circle", {}, 2.0),
    ("flower", {"kappa_minus": 1.0, "kappa_plus": 10.0}, 2.0),
    ("flower", {"kappa_minus": 50.0, "kappa_plus": 1.0}, 2.0),
    ("internal_layer", {}, 4.0),
]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("name,params,lam", TUBE_PROBLEMS)
def test_tube_grid_matches_sort_and_search_reference(name, params, lam, r):
    prob = make_problem(name, params)
    gp = GridParams(N=40, r=r, lam=lam, domain=prob.domain)
    want = reference_tube_grid(gp, prob.interface)
    assert len(want["codes"]) > 0
    assert_matches_reference(gp, prob.interface)


@pytest.mark.parametrize("r", [2, 5])
def test_tube_grid_matches_reference_off_centre(r):
    # distinct, non-zero origins: a coordinate that drops or swaps them
    # lands on other values
    ls = LevelSet(phi=lambda x, y: np.hypot(x - 1.25, y + 0.5) - 0.5)
    gp = GridParams(N=40, r=r, lam=2.0, domain=((0.25, 2.25), (-1.5, 0.5)))
    want = reference_tube_grid(gp, ls)
    assert (want["tags"] == NodeTag.HANGING).any()
    assert_matches_reference(gp, ls)


@settings(max_examples=60, deadline=None)
@given(radius=hs.floats(0.05, 0.95), N=hs.integers(10, 40),
       r=hs.integers(2, 8), lam=hs.floats(0.25, 6.0))
def test_tube_grid_matches_reference_or_fails_alike(radius, N, r, lam):
    prob = make_problem("peskin_circle", {"radius": radius})
    assert_matches_reference(
        GridParams(N=N, r=r, lam=lam, domain=prob.domain), prob.interface)


def test_tube_id_of_roundtrip_and_miss():
    ls = circle_ls()
    g = build_tube_two_grid_2d(
        GridParams(N=16, r=2, lam=2.0, domain=(-1.0, 1.0)), ls=ls)
    ids = g.id_of(g.codes)
    assert (ids == np.arange(g.n)).all()
    missing = int(g.codes[-1]) + 1
    assert g.id_of(missing) == -1

    W2 = g.W * g.W
    assert W2 % 64 != 0            # the last 64-bit word is partial
    assert g.id_of(-1) == -1
    assert (g.id_of([-W2, -64, -63, -1]) == -1).all()
    beyond = [W2, W2 + 1, len(g.words) * 64 - 1, len(g.words) * 64,
              2 * W2, 2**40]
    assert (g.id_of(beyond) == -1).all()
    # the last lattice point is the top-right corner, in the partial word
    tail = np.arange(W2 // 64 * 64, W2)
    assert (g.id_of(tail) == search_ids(g.codes, tail)).all()
    assert g.id_of(W2 - 1) == g.n - 1

    # coarse-lattice points off the tube are nodes; fine ones are not
    lattice = np.zeros((g.W, g.W), dtype=bool)
    lattice[::g.r, ::g.r] = True
    patch = np.isin(np.arange(W2), g.codes[np.isin(
        g.tags, (NodeTag.FINE_REGULAR, NodeTag.FINE_IRREGULAR,
                 NodeTag.HANGING))])
    off_coarse = np.flatnonzero(lattice.ravel() & ~patch)
    assert len(off_coarse) > 0
    assert (g.codes[g.id_of(off_coarse)] == off_coarse).all()
    assert np.isin(g.tags[g.id_of(off_coarse)],
                   (NodeTag.COARSE_REGULAR, NodeTag.BOUNDARY)).all()

    # every code, in and around the lattice, against binary search
    sweep = np.arange(-2 * g.W, W2 + 2 * g.W)
    assert np.array_equal(g.id_of(sweep), search_ids(g.codes, sweep))
    assert np.array_equal(g.id_of(sweep.reshape(-1, g.W)),
                          search_ids(g.codes, sweep).reshape(-1, g.W))
    assert g.id_of(sweep).dtype == np.int64


def test_tube_lookup_state_is_a_bitmap_not_a_lattice():
    g = build_tube_two_grid_2d(
        GridParams(N=40, r=8, lam=2.0, domain=(-1.0, 1.0)), ls=circle_ls())
    W2 = g.W * g.W
    lookup = sum(v.nbytes for v in vars(g).values()
                 if isinstance(v, np.ndarray) and v.shape != (g.n,))
    assert 0 < lookup <= W2 / 8 + W2 / 16 + 64


def test_tube_stores_ten_bytes_per_node():
    # codes (8), tags (1) and side (1); coordinates and hanging placement
    # are computed from the codes when read
    g = build_tube_two_grid_2d(
        GridParams(N=40, r=8, lam=2.0, domain=(-1.0, 1.0)), ls=circle_ls())
    per_node = sum(v.nbytes for v in vars(g).values()
                   if isinstance(v, np.ndarray) and v.shape == (g.n,))
    assert per_node <= 10 * g.n


def test_tube_failure_modes():
    far = LevelSet(phi=lambda x, y: np.hypot(x, y) - 10.0)
    with pytest.raises(EmptyTube):
        build_tube_two_grid_2d(
            GridParams(N=10, r=2, lam=2.0, domain=(-1.0, 1.0)), ls=far)
    with pytest.raises(TubeTooWide):
        build_tube_two_grid_2d(
            GridParams(N=10, r=2, lam=20.0, domain=(-1.0, 1.0)),
            ls=circle_ls())
    with pytest.raises(BadParams):
        build_tube_two_grid_2d(
            GridParams(N=10, r=2, lam=2.0,
                       domain=((0.0, 1.0), (0.0, 2.0))), ls=circle_ls())


@pytest.mark.parametrize("radius", [0.02, 0.01, 1e-3])
def test_tube_without_a_regular_fine_node_on_one_side_names_it(radius):
    # at N=20, r=2 (h_f = 0.05) these circles hold at most one node, which
    # takes a fitted row; the cases solved to coarse errors of 0.26 to 879
    prob = make_problem("peskin_circle", {"radius": radius})
    with pytest.raises(EmptyTube, match=r"minus \(phi <= 0\) side"):
        run_case(prob, 20, 2)
    with pytest.raises(EmptyTube, match="plus"):
        build_tube_two_grid_2d(
            GridParams(N=20, r=2, lam=2.0, domain=(-1.0, 1.0)),
            LevelSet(phi=lambda x, y: radius - np.hypot(x, y)))


# ---------------------------------------------------------------------------
# nested-dissection order
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(N=hs.integers(10, 80), r=hs.integers(2, 8), lam=hs.floats(1.0, 6.0))
def test_tube_dissection_order_is_a_permutation(N, r, lam):
    prob = make_problem("internal_layer")
    try:
        g = build_tube_two_grid_2d(
            GridParams(N=N, r=r, lam=lam, domain=prob.domain),
            prob.interface)
    except TubeTooWide:
        assume(False)
    order = g.dissection_order()
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(g.n))


@pytest.mark.parametrize("r", [2, 5, 8])
def test_tube_dissection_eliminates_the_first_cut_last(r):
    # the first cut is the coarse x line nearest the middle, then each half
    # is cut along y on the coarse line nearest its middle, and so on
    prob = make_problem("internal_layer")
    g = build_tube_two_grid_2d(
        GridParams(N=40, r=r, lam=4.0, domain=prob.domain), prob.interface)
    px, py = g.codes % g.W, g.codes // g.W
    order = g.dissection_order()
    mid = 20 * r
    first = np.flatnonzero(px == mid)
    assert set(order[-len(first):]) == set(first)
    rest = order[:-len(first)]
    left = rest[px[rest] < mid]
    right = rest[px[rest] > mid]
    # the left half is eliminated first, then the right one
    assert np.array_equal(rest, np.concatenate([left, right]))
    for half in (left, right):
        cut = half[py[half] == mid]
        assert len(cut) > 0
        assert set(half[-len(cut):]) == set(cut)


def test_dump_grid_json_roundtrip(tmp_path):
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    path = tmp_path / "grid.json"
    dump_grid_json(g, str(path))
    rows = json.loads(path.read_text())
    assert len(rows) == g.n
    assert [row["id"] for row in rows] == list(range(g.n))
    assert rows[0]["tag"] == "boundary"
    assert {row["tag"] for row in rows} <= {
        "coarse_regular", "fine_regular", "fine_irregular", "border",
        "hanging", "boundary"}
    xs = np.array([row["x"] for row in rows])
    assert xs == pytest.approx(g.x)

    g = build_tube_two_grid_2d(
        GridParams(N=20, r=4, lam=2.0, domain=(-1.0, 1.0)), ls=circle_ls())
    dump_grid_json(g, str(path))
    rows = json.loads(path.read_text())
    assert [row["id"] for row in rows] == list(range(g.n))
    assert [row["tag"] for row in rows] == [
        TAG_NAMES[NodeTag(t)] for t in g.tags.tolist()]
    assert np.array_equal([row["x"] for row in rows], g.x)
    assert np.array_equal([row["y"] for row in rows], g.y)
    assert {row["tag"] for row in rows} >= {"hanging", "fine_irregular"}


# ---------------------------------------------------------------------------
# neighbour lookup
# ---------------------------------------------------------------------------

BLOCK = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


def interior(grid):
    return np.flatnonzero(grid.tags != NodeTag.BOUNDARY)


def x_after_steps(cols, x, d):
    """x of ``d`` steps from ``x`` on the 1D grid ``cols``: ``h_f`` within
    the fine zone between its two border nodes, ``h`` outside it."""
    lo, hi = cols.x[cols.tags == NodeTag.BORDER]
    fine = x + d * cols.h_f
    inside = (fine > lo - 1e-12) & (fine < hi + 1e-12)
    return np.where(inside, fine, x + d * cols.h)


def test_1d_lookup_steps_along_x():
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55)
    ids = interior(g)
    nb = g.neighbors(ids, [-1, 0, 1])
    for k, d in enumerate((-1, 0, 1)):
        assert np.allclose(g.x[nb[:, k]], x_after_steps(g, g.x[ids], d),
                           rtol=0, atol=1e-12)


def test_strip_lookup_steps_by_columns_and_rows():
    g = build_line_two_grid_2d(GridParams(N=12, r=4, lam=2.0), 33.0 / 70.0)
    ids = interior(g)
    nb = g.neighbors(ids, BLOCK)
    for k, (dx, dy) in enumerate(BLOCK):
        assert np.allclose(g.x[nb[:, k]], x_after_steps(g.cols, g.x[ids], dx),
                           rtol=0, atol=1e-12)
        assert np.allclose(g.y[nb[:, k]], g.y[ids] + dy * g.h_y,
                           rtol=0, atol=1e-12)


def test_tube_lookup_steps_on_the_fine_lattice():
    # every offset the tube's row writers look up: the coarse rows' block in
    # steps of r, the fitted ring (which holds the fine block and the five
    # point star) and the hanging rows' offsets in both orientations
    g = build_tube_two_grid_2d(
        GridParams(N=16, r=4, lam=2.0, domain=(-1.0, 1.0)), ls=circle_ls())
    r = g.r
    hanging = [k for j in range(1, r)
               for k in stencils.hanging_coeffs(r, j).alphas]
    offsets = ([(r * dx, r * dy) for dx, dy in BLOCK] + list(_RING2)
               + hanging + [(dy, dx) for dx, dy in hanging])
    px = np.rint((g.x + 1.0) / g.h_f).astype(int).tolist()
    py = np.rint((g.y + 1.0) / g.h_f).astype(int).tolist()
    at = {xy: i for i, xy in enumerate(zip(px, py))}
    ids = interior(g)
    want = [[at.get((px[i] + dx, py[i] + dy), -1) for dx, dy in offsets]
            for i in ids]
    nb = g.neighbors(ids, offsets)
    assert nb.tolist() == want
    assert (nb == -1).any() and (nb >= 0).any()
