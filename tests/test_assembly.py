"""Assembly: row contents against the stencil generators, invariants."""
import numpy as np
import pytest

from twogrid import problems, stencils
from twogrid.assembly import _Builder, apply_dirichlet, assemble
from twogrid.errors import BadParams, MissingNeighbor, UnsupportedRatio
from twogrid.grid import (GridParams, NodeTag, build_line_two_grid_2d,
                          build_tube_two_grid_2d, build_two_grid_1d)
from twogrid.iim import (_RING2, IrregularNode, IrregularNodes, JumpData,
                         iim_discontinuous_stencil_2d,
                         singular_source_stencil_2d)
from twogrid.problems import ProblemSpec


def stub_1d(f, kappa=(1.0, 1.0), alpha=0.55, jumps=None):
    return ProblemSpec(name="stub", kind="interface_1d", domain=(0.0, 1.0),
                       f=f, boundary=lambda x, y: 0.0 * x,
                       kappa_minus=kappa[0], kappa_plus=kappa[1],
                       jumps=jumps or JumpData(), alpha=alpha)


def row_dict(system, i):
    m = system.matrix.getrow(i)
    return dict(zip(m.indices.tolist(), m.data.tolist()))


def test_constant_state_is_in_the_kernel_split():
    # with f = 0 and zero jumps every interior row annihilates a constant
    # vector, so A c = b after the Dirichlet fill with the same constant
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55)
    prob = stub_1d(lambda x, y, s: 0.0 * x, kappa=(2.0, 5.0))
    sys_ = assemble(g, prob)
    apply_dirichlet(sys_, lambda x, y: 3.7 + 0.0 * x)
    resid = sys_.matrix @ np.full(g.n, 3.7) - sys_.rhs
    assert np.abs(resid).max() < 1e-8


def test_boundary_rows_are_identity():
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    sys_ = assemble(g, stub_1d(lambda x, y, s: 0.0 * x))
    for i in np.nonzero(sys_.boundary)[0]:
        assert row_dict(sys_, i) == {int(i): 1.0}


def test_assembly_is_deterministic():
    prob = problems.make_problem("peskin_circle", {})
    g = build_tube_two_grid_2d(
        GridParams(N=20, r=2, lam=2.0, domain=(-1.0, 1.0)), prob.interface)
    a = assemble(g, prob)
    b = assemble(g, prob)
    assert (a.matrix != b.matrix).nnz == 0
    assert (a.matrix.data == b.matrix.data).all()
    assert (a.rhs == b.rhs).all()


def test_rhs_is_linear_in_f():
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=2.0), alpha=0.55)
    one = assemble(g, stub_1d(lambda x, y, s: np.sin(3.0 * x)))
    two = assemble(g, stub_1d(lambda x, y, s: 2.0 * np.sin(3.0 * x)))
    assert (one.matrix != two.matrix).nnz == 0
    assert two.rhs == pytest.approx(2.0 * one.rhs)


def test_1d_rows_match_generators():
    prob = problems.make_problem("piecewise_kappa_1d", {})
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=prob.alpha)
    sys_ = assemble(g, prob)
    # a coarse node on the minus side carries the compact scheme
    i = int(np.nonzero(g.tags == NodeTag.COARSE_REGULAR)[0][0])
    st = stencils.compact4_uniform_1d(prob.kappa_minus, 0.0, g.h)
    got = row_dict(sys_, i)
    for off, a in st.alphas.items():
        assert got[i + off] == pytest.approx(float(a))
    assert sys_.rhs[i] == pytest.approx(
        sum(float(bw) * prob.f(g.x[i + off], 0.0, -1)
            for off, bw in st.betas.items()))
    # border rows use the two local spacings
    ib = int(np.nonzero(g.tags == NodeTag.BORDER)[0][0])
    stb = stencils.border_coeffs_1d(float(g.x[ib] - g.x[ib - 1]),
                                    float(g.x[ib + 1] - g.x[ib]),
                                    prob.kappa_minus, 0.0)
    gotb = row_dict(sys_, ib)
    for off, a in stb.alphas.items():
        assert gotb[ib + off] == pytest.approx(float(a))


def test_1d_layer_uses_centered_scheme():
    prob = problems.make_problem("boundary_layer_1d", {})
    g = build_two_grid_1d(GridParams(N=10, r=4, lam=3.0), alpha=None,
                          refine_edge="right")
    sys_ = assemble(g, prob)
    i = 2  # interior coarse node, uniform spacing h
    st = stencils.centered_nonuniform_1d(prob.epsilon, prob.conv, prob.K,
                                         g.h, g.h)
    got = row_dict(sys_, i)
    for off, a in st.alphas.items():
        assert got[i + off] == pytest.approx(float(a))
    assert sys_.rhs[i] == pytest.approx(float(prob.f(g.x[i], 0.0, 1)))


def test_line_coarse_row_is_nine_point():
    prob = problems.make_problem("line_interface_2d", {})
    g = build_line_two_grid_2d(GridParams(N=12, r=2, lam=2.0), prob.alpha)
    sys_ = assemble(g, prob)
    cols = g.cols
    c = int(np.nonzero(cols.tags == NodeTag.COARSE_REGULAR)[0][0])
    i = g.node_id(3, c)
    st = stencils.nine_point_compact_2d(g.h, 0.0, prob.kappa_minus)
    got = row_dict(sys_, i)
    assert len(got) == 9
    for (dx, dy), a in st.alphas.items():
        assert got[g.node_id(3 + dy, c + dx)] == pytest.approx(float(a))


def test_line_fine_row_is_mixed_strip():
    prob = problems.make_problem("line_interface_2d", {})
    g = build_line_two_grid_2d(GridParams(N=6, r=4, lam=2.0), prob.alpha)
    sys_ = assemble(g, prob)
    cols = g.cols
    fine = np.nonzero(cols.tags == NodeTag.FINE_REGULAR)[0]
    c = int(fine[0])
    side = -1 if cols.x[c] <= g.alpha else 1
    kc = prob.kappa_minus if side < 0 else prob.kappa_plus
    st = stencils.strip_mixed_order_2d(g.h_f, g.h_y, kappa=kc)
    i = g.node_id(2, c)
    got = row_dict(sys_, i)
    for (dx, dy), a in st.alphas.items():
        assert got[g.node_id(2 + dy, c + dx)] == pytest.approx(float(a))


def test_tube_rows_match_generators():
    prob = problems.make_problem("peskin_circle", {})
    g = build_tube_two_grid_2d(
        GridParams(N=20, r=2, lam=2.0, domain=(-1.0, 1.0)), prob.interface)
    sys_ = assemble(g, prob)

    # coarse row: nine-point at stride r, kappa from the node's side
    i = int(np.nonzero(g.tags == NodeTag.COARSE_REGULAR)[0][0])
    kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
    st = stencils.nine_point_compact_2d(g.h, 0.0, 1.0)
    got = row_dict(sys_, i)
    for (dx, dy), a in st.alphas.items():
        j = int(g.id_of(int(g.codes[i]) + (dy * g.W + dx) * g.r)[0])
        assert got[j] == pytest.approx(float(a) * kc)

    # fine row: plain five-point over h_f
    i = int(np.nonzero(g.tags == NodeTag.FINE_REGULAR)[0][0])
    kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
    got = row_dict(sys_, i)
    assert got[int(i)] == pytest.approx(-4.0 * kc / g.h_f**2)
    for delta in (1, -1, g.W, -g.W):
        j = int(g.id_of(int(g.codes[i]) + delta)[0])
        assert got[j] == pytest.approx(kc / g.h_f**2)

    # hanging row: table coefficients scaled by kappa / h^2, axis-mapped
    hidx = np.nonzero(g.tags == NodeTag.HANGING)[0]
    for i in hidx[:8]:
        jj = int(g.hang_j[i])
        st = stencils.hanging_coeffs(g.r, jj)
        kc = prob.kappa_minus if g.side[i] < 0 else prob.kappa_plus
        flip = g.hang_axis[i] == 1
        got = row_dict(sys_, int(i))
        for (kx, ky), a in st.alphas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            j = int(g.id_of(int(g.codes[i]) + dy * g.W + dx)[0])
            assert got[j] == pytest.approx(float(a) * kc / g.h**2)


def test_tube_without_interface_folds_irregular_nodes():
    # layer problems carry no jump data: former irregular nodes join the
    # compact fine scheme, except concave patch corners which stay five-point
    prob = problems.make_problem("internal_layer", {})
    g = build_tube_two_grid_2d(
        GridParams(N=40, r=2, lam=2.0, domain=prob.domain), prob.interface)
    sys_ = assemble(g, prob)
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    assert len(irr)
    sizes = {len(row_dict(sys_, int(i))) for i in irr}
    assert sizes <= {5, 9}
    assert 9 in sizes


def test_2d_rejects_reaction_term():
    prob = problems.make_problem("line_interface_2d", {})
    g = build_line_two_grid_2d(GridParams(N=6, r=2, lam=2.0), prob.alpha)
    bad = ProblemSpec(name="bad", kind="line", domain=prob.domain,
                      f=prob.f, boundary=prob.boundary, K=1.0,
                      kappa_minus=1.0, kappa_plus=1.0, jumps=JumpData(),
                      alpha=prob.alpha)
    with pytest.raises(BadParams):
        assemble(g, bad)


def test_apply_dirichlet_only_touches_boundary():
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    sys_ = assemble(g, stub_1d(lambda x, y, s: np.cos(x)))
    before = sys_.rhs.copy()
    apply_dirichlet(sys_, lambda x, y: 10.0 + x)
    bnd = sys_.boundary
    assert sys_.rhs[bnd] == pytest.approx(10.0 + sys_.x[bnd])
    assert (sys_.rhs[~bnd] == before[~bnd]).all()


def test_builder_rejects_missing_neighbor():
    # a batched lookup marks a missing neighbour with column -1
    g = build_two_grid_1d(GridParams(N=10, r=2, lam=2.0), alpha=0.55)
    b = _Builder(g.n)
    b.add([0, 1], [0, -1], [1.0, 2.0])
    with pytest.raises(MissingNeighbor):
        b.finish(g)


def reference_tube_rows(g, prob):
    """Hanging and irregular rows built node by node, with one
    single-element ``id_of`` lookup per stencil offset: ``{row: (entries,
    rhs)}`` with ``entries`` as ``{column: value}``."""
    km, kp = prob.kappa_minus, prob.kappa_plus
    kap = np.where(g.side < 0, km, kp).astype(float)

    def nbr(i, dx, dy):
        return int(g.id_of(g.codes[i] + dy * g.W + dx)[0])

    def f_at(j):
        return prob.f(float(g.x[j]), float(g.y[j]), int(g.side[j]))

    out = {}
    for i in np.nonzero(g.tags == NodeTag.HANGING)[0]:
        try:
            st = stencils.hanging_coeffs(g.r, int(g.hang_j[i]))
        except UnsupportedRatio:
            st = stencils.derive_hanging_coeffs(g.r, int(g.hang_j[i]))
        flip = g.hang_axis[i] == 1
        scal = kap[i] / g.h**2
        entries, acc = {}, 0.0
        for (kx, ky), a in st.alphas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            entries[nbr(i, dx, dy)] = float(a) * scal
        for (kx, ky), bw in st.betas.items():
            dx, dy = (ky, kx) if flip else (kx, ky)
            acc += float(bw) * f_at(nbr(i, dx, dy))
        out[int(i)] = (entries, acc)
    for i in np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]:
        amap = {(0, 0): int(i)}
        for dx in (-2, -1, 0, 1, 2):
            for dy in (-2, -1, 0, 1, 2):
                j = nbr(i, dx, dy)
                if (dx, dy) != (0, 0) and j >= 0:
                    amap[(dx, dy)] = j
        node = IrregularNode(x=float(g.x[i]), y=float(g.y[i]), h_f=g.h_f,
                             side=int(g.side[i]),
                             available=set(amap) - {(0, 0)},
                             arm_side={off: int(g.side[j])
                                       for off, j in amap.items()})
        if km == kp:
            st = singular_source_stencil_2d(node, g.ls, km, prob.jumps)
        else:
            st = iim_discontinuous_stencil_2d(node, g.ls, km, kp, prob.jumps)
        entries = {amap[off]: float(a) for off, a in st.alphas.items()}
        out[int(i)] = (entries, f_at(i) + st.correction)
    return out


@pytest.mark.parametrize("name", ["peskin_circle", "flower"])
@pytest.mark.parametrize("r", [2, 3, 4, 8])
def test_tube_rows_match_per_node_reference(name, r):
    # r=3 is not tabulated, so its hanging rows come from the derivation;
    # N=40 at r=2 because the flower's projection fails there at N=32
    N = {2: 40, 3: 32, 4: 20, 8: 20}[r]
    prob = problems.make_problem(name, {})
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=prob.domain), prob.interface)
    sys_ = assemble(g, prob)
    ref = reference_tube_rows(g, prob)
    assert ref
    assert {NodeTag(int(g.tags[i])) for i in ref} == {
        NodeTag.HANGING, NodeTag.FINE_IRREGULAR}
    for i, (entries, rhs) in ref.items():
        assert row_dict(sys_, i) == entries
        assert sys_.rhs[i] == pytest.approx(rhs, rel=1e-14, abs=0.0)


def flower_nodes(km, kp, N, r):
    prob = problems.make_problem("flower", {"kappa_minus": km,
                                            "kappa_plus": kp})
    g = build_tube_two_grid_2d(
        GridParams(N=N, r=r, lam=2.0, domain=prob.domain), prob.interface)
    return prob, g


def test_fitted_stencils_take_one_linear_program(monkeypatch):
    # every irregular node of the tube is fitted in one block-diagonal
    # program when all of them are feasible on the 3x3 block
    import scipy.optimize
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    prob, g = flower_nodes(50.0, 1.0, 40, 2)
    assemble(g, prob)
    n_irr = int((g.tags == NodeTag.FINE_IRREGULAR).sum())
    assert calls == [(6 * n_irr, 9 * n_irr)]


def test_widened_fits_match_single_node_calls():
    # four nodes of this tube have no sign-feasible stencil on the 3x3 block
    # and go on to the wider candidate sets; the batch gives every node the
    # same bits as fitting it alone
    prob, g = flower_nodes(1.0, 10.0, 40, 2)
    irr = np.nonzero(g.tags == NodeTag.FINE_IRREGULAR)[0]
    nbrs = np.array([[int(g.id_of(g.codes[i] + dy * g.W + dx)[0])
                      for dx, dy in _RING2] for i in irr])
    ring = np.where(nbrs >= 0, g.side[nbrs], 0)
    nodes = IrregularNodes(x=g.x[irr], y=g.y[irr], h_f=g.h_f, ring_side=ring)
    weights, corr = iim_discontinuous_stencil_2d(
        nodes, g.ls, prob.kappa_minus, prob.kappa_plus, prob.jumps)
    outer = [c for c, (dx, dy) in enumerate(_RING2) if max(abs(dx), abs(dy)) > 1]
    assert (weights[:, outer] != 0.0).any(axis=1).sum() == 4
    for k, i in enumerate(irr):
        node = IrregularNode(
            x=float(g.x[i]), y=float(g.y[i]), h_f=g.h_f, side=int(g.side[i]),
            available={off for off, j in zip(_RING2, nbrs[k])
                       if j >= 0 and off != (0, 0)},
            arm_side={off: int(s) for off, s in zip(_RING2, ring[k]) if s})
        st = iim_discontinuous_stencil_2d(node, g.ls, prob.kappa_minus,
                                          prob.kappa_plus, prob.jumps)
        assert st.alphas == {off: w for off, w in zip(_RING2, weights[k])
                             if w != 0.0}
        assert st.correction == corr[k]
