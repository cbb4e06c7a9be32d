"""Solver contract, extended-precision fallback, operator checks."""
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from twogrid import linsolve, problems
from twogrid.assembly import assemble
from twogrid.errors import NonConvergence, SingularMatrix, TwoGridError
from twogrid.grid import GridParams, build_two_grid_1d
from twogrid.harness import build_grid, run_case
from twogrid.linsolve import solve, verify_m_matrix


def fake_system(dense, boundary=None, rhs=None):
    n = len(dense)
    return SimpleNamespace(
        matrix=sp.csr_matrix(np.asarray(dense, dtype=float)),
        rhs=np.zeros(n) if rhs is None else np.asarray(rhs, dtype=float),
        boundary=np.zeros(n, dtype=bool) if boundary is None
        else np.asarray(boundary, dtype=bool))


def assembled_1d(N=10, r=4):
    prob = problems.make_problem("piecewise_kappa_1d", {})
    g = build_two_grid_1d(GridParams(N=N, r=r, lam=2.0), alpha=prob.alpha)
    return assemble(g, prob)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_meets_residual_contract():
    sys_ = assembled_1d()
    u = solve(sys_)
    res = np.linalg.norm(sys_.matrix @ u - sys_.rhs)
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_solve_zero_rhs_returns_zero():
    sys_ = fake_system(np.diag([2.0, 3.0, 4.0]))
    u = solve(sys_)
    assert (np.asarray(u, dtype=float) == 0.0).all()


def test_solve_singular_matrix():
    sys_ = fake_system([[1.0, 0.0], [0.0, 0.0]], rhs=[1.0, 1.0])
    with pytest.raises(SingularMatrix):
        solve(sys_)


def test_solve_extended_precision_fallback():
    # a cancellation-heavy row: the double-precision residual floor
    # eps * ||A| |u|| sits above the contract, the longdouble pass does not
    big = 1e6
    sys_ = fake_system([[big, -big + 1.0], [0.0, 1.0]], rhs=[0.1, 0.1])
    u = solve(sys_)
    assert u.dtype == np.longdouble
    assert np.asarray(u, dtype=float) == pytest.approx([0.1, 0.1])
    res = np.linalg.norm(np.asarray(
        sys_.matrix.astype(np.longdouble) @ u - sys_.rhs, dtype=float))
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_solve_reports_unattainable_contract():
    big = 1e12
    sys_ = fake_system([[big, -big + 1.0], [0.0, 1.0]], rhs=[0.1, 0.1])
    with pytest.raises(NonConvergence, match="exceeds"):
        solve(sys_)


def cyclic_shift(n):
    rows = np.arange(n)
    shift = sp.csr_matrix((np.ones(n), (rows, (rows + 1) % n)), shape=(n, n))
    return shift + 1e-12 * sp.eye(n)


@pytest.mark.parametrize("n", [8, 40])
def test_solve_falls_back_to_partial_pivoting(n):
    # a cyclic shift with a tiny diagonal: the unpivoted symmetric-mode
    # factor misses the contract (residual 3e25 at n=8) or is non-finite
    # (n=40); COLAMD with partial pivoting solves it exactly
    sys_ = SimpleNamespace(matrix=cyclic_shift(n), rhs=np.arange(1.0, n + 1))
    u = solve(sys_)
    assert u.dtype == np.float64
    res = np.linalg.norm(sys_.matrix @ u - sys_.rhs)
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_symmetric_ordering_factors_once_with_less_fill(monkeypatch):
    prob = problems.make_problem("peskin_circle", {})
    sys_ = assemble(build_grid(prob, 80, 4), prob)
    splu = linsolve.spla.splu
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    solve(sys_)
    assert len(factors) == 1
    plain = splu(sys_.matrix.tocsc())
    fill = factors[0].L.nnz + factors[0].U.nnz
    assert fill <= 0.65 * (plain.L.nnz + plain.U.nnz)


@pytest.fixture
def splu_calls(monkeypatch):
    """Every factorization ``solve`` makes, as (matrix dtype, ordering)."""
    splu = linsolve.spla.splu
    calls = []

    def recording_splu(A, **kwargs):
        calls.append((A.dtype, kwargs.get("permc_spec", "COLAMD")))
        return splu(A, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    return calls


def test_first_factor_is_single_precision(splu_calls):
    sys_ = assembled_1d()
    solve(sys_)
    assert splu_calls == [(np.float32, "MMD_AT_PLUS_A")]


@pytest.mark.parametrize("name, N, r, hf_mode", [
    ("line_interface_2d", 42, 2, "h2"),
    ("piecewise_kappa_1d", 40, 16, "ratio"),
])
def test_worst_scaled_cells_meet_the_contract_in_single_precision(
        splu_calls, name, N, r, hf_mode):
    # the acceptance cells whose float32 refinement is slowest (line h2
    # N=42 takes five float64 steps); both have a float64 residual floor
    # above the contract (2.9e-12 and 1.6e-11 of |b|), so they finish in
    # longdouble, with corrections from the same float32 factor
    prob = problems.make_problem(name, {})
    sys_ = assemble(build_grid(prob, N, r, 2.0, hf_mode), prob)
    u = solve(sys_)
    assert splu_calls == [(np.float32, "MMD_AT_PLUS_A")]
    assert u.dtype == np.longdouble
    res = np.linalg.norm(np.asarray(
        sys_.matrix.astype(np.longdouble) @ u - sys_.rhs, dtype=float))
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


@pytest.mark.parametrize("scale", [1e-36, 1e36])
def test_single_precision_path_is_scale_free(splu_calls, scale):
    # |b| near float32's underflow and overflow: residuals are scaled by
    # their max-norm before each float32 solve, so no fallback is needed
    sys_ = assembled_1d()
    sys_.rhs *= scale
    u = solve(sys_)
    assert splu_calls == [(np.float32, "MMD_AT_PLUS_A")]
    res = np.linalg.norm(sys_.matrix @ u - sys_.rhs)
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_too_ill_conditioned_for_single_precision_falls_back(splu_calls):
    # a 1D Laplacian shifted to 1e-9 from singular (cond 4e9): rounding
    # its diagonal to float32 moves the smallest eigenvalue by up to 6e-8,
    # so refinement with the float32 factor cannot converge; the float64
    # COLAMD factor meets the contract
    n = 100
    lam1 = 2.0 - 2.0 * np.cos(np.pi / (n + 1))
    off = np.ones(n - 1)
    A = sp.diags([off, np.full(n, lam1 - 2.0 - 1e-9), off], [-1, 0, 1],
                 format="csr")
    assert np.linalg.cond(A.toarray()) > 1e9
    x = np.random.default_rng(0).uniform(0.5, 1.5, n)
    sys_ = SimpleNamespace(matrix=A, rhs=A @ x)
    u = solve(sys_)
    assert splu_calls == [(np.float32, "MMD_AT_PLUS_A"),
                          (np.float64, "COLAMD")]
    assert u.dtype == np.float64
    res = np.linalg.norm(A @ u - sys_.rhs)
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_solve_leaves_the_system_untouched():
    sys_ = assembled_1d()
    matrix, rhs = sys_.matrix, sys_.rhs
    before = [a.tobytes() for a in (matrix.data, matrix.indices,
                                    matrix.indptr, rhs)]
    solve(sys_)
    assert sys_.matrix is matrix and sys_.rhs is rhs
    assert matrix.dtype == np.float64 and matrix.format == "csr"
    assert [a.tobytes() for a in (matrix.data, matrix.indices,
                                  matrix.indptr, rhs)] == before


def non_canonical(dense):
    """``dense`` as a CSR matrix whose row 1 stores its columns in reverse
    order and its diagonal as two halves, one of them last."""
    indices, data, indptr = [], [], [0]
    for i, line in enumerate(dense):
        cols = np.flatnonzero(line)
        vals = line[cols]
        if i == 1:
            vals = np.where(cols == i, vals / 2, vals)
            cols, vals = np.r_[cols[::-1], i], np.r_[vals[::-1], line[i] / 2]
        indices += list(cols)
        data += list(vals)
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)),
                         shape=dense.shape)


@pytest.mark.parametrize("dense, path", [
    (np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0] * 3, 1)
     + np.diag([1.0] * 3, -1), [np.float32]),
    (cyclic_shift(8).toarray(), [np.float32, np.float64]),
], ids=["single", "fallback"])
def test_solve_leaves_a_non_canonical_matrix_untouched(splu_calls, dense,
                                                       path):
    # SuperLU sums the duplicates of its input in place, so solve must not
    # hand it the arrays of a matrix that has any
    matrix = non_canonical(dense)
    assert not matrix.has_canonical_format
    assert (matrix.toarray() == dense).all()
    before = [a.tobytes() for a in (matrix.data, matrix.indices,
                                    matrix.indptr)]
    rhs = np.arange(1.0, len(dense) + 1)
    u = solve(SimpleNamespace(matrix=matrix, rhs=rhs))
    assert [dtype for dtype, _ in splu_calls] == path
    assert [a.tobytes() for a in (matrix.data, matrix.indices,
                                  matrix.indptr)] == before
    res = np.linalg.norm(dense @ np.asarray(u, dtype=float) - rhs)
    assert res <= 1e-12 * np.linalg.norm(rhs)


def test_every_factor_reads_the_callers_index_arrays(monkeypatch):
    # the CSR's arrays read as CSC are A^T: each factor's input shares the
    # caller's index arrays, and the float64 fallback its values as well
    n = 100
    off = np.ones(n - 1)
    A = sp.diags([off, np.full(n, -2.0 * np.cos(np.pi / (n + 1)) - 1e-9),
                  off], [-1, 0, 1], format="csr")
    splu = linsolve.spla.splu
    inputs = []

    def recording_splu(M, **kwargs):
        inputs.append((M.format, M.dtype, np.shares_memory(M.indices,
                                                           A.indices),
                       np.shares_memory(M.indptr, A.indptr),
                       np.shares_memory(M.data, A.data)))
        return splu(M, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    solve(SimpleNamespace(matrix=A, rhs=A @ np.ones(n)))
    assert inputs == [("csc", np.float32, True, True, False),
                      ("csc", np.float64, True, True, True)]


def test_longdouble_solutions_are_byte_reproducible():
    # a longdouble carries 6 padding bytes per entry on x86-64; a cast copy
    # leaves them uninitialized, so only a zeroed buffer updated in place
    # makes two solves of one system give the same bytes
    sys_ = assembled_1d(10, 16)
    first, second = solve(sys_), solve(sys_)
    assert first.dtype == np.longdouble
    assert first.tobytes() == second.tobytes()


def no_c_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_c_library, lambda name: object()],
                         ids=["no-library", "no-malloc-trim"])
def test_solve_runs_where_the_c_library_has_no_malloc_trim(monkeypatch,
                                                           cdll):
    # the heap trim before each factorization is skipped, and nothing else
    sys_ = assembled_1d()
    plain = solve(sys_)
    calls = []

    def counted(name):
        calls.append(name)
        return cdll(name)

    monkeypatch.setattr(linsolve.ctypes, "CDLL", counted)
    assert solve(sys_).tobytes() == plain.tobytes()
    assert calls == [None]


def test_solve_allocates_less_than_a_float64_copy_of_the_matrix():
    # the factor's input is the CSR's own index arrays, read as A^T, with
    # values cast to float32, and the residuals use the CSR itself, so the
    # arrays solve allocates stay below the CSR's float64 values (the
    # factor's own memory is SuperLU's and is not traced)
    prob = problems.make_problem("peskin_circle", {})
    sys_ = assemble(build_grid(prob, 80, 4), prob)
    A = sys_.matrix
    solve(sys_)     # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        solve(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.data.nbytes


def test_every_factor_keeps_relaxation_within_its_panel(monkeypatch):
    # SuperLU's supernode relaxation wider than its panel has crashed the
    # interpreter at exit; the float32 factor's 4-column panels keep its
    # working memory small. A call without the options gets SuperLU's
    # defaults, a 20-column panel and a relaxation of 10.
    splu = linsolve.spla.splu
    calls = []

    def recording_splu(A, **kwargs):
        calls.append((A.dtype, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    solve(assembled_1d())
    n = 100
    off = np.ones(n - 1)
    shifted = sp.diags([off, np.full(n, -2.0 * np.cos(np.pi / (n + 1))
                                     - 1e-9), off], [-1, 0, 1], format="csr")
    solve(SimpleNamespace(matrix=shifted, rhs=shifted @ np.ones(n)))
    assert [dtype for dtype, _ in calls] == [np.float32, np.float32,
                                             np.float64]
    for dtype, kwargs in calls:
        assert kwargs.get("relax", 10) <= kwargs.get("panel_size", 20)
        if dtype == np.float32:
            assert kwargs["panel_size"] == 4


def test_streamed_longdouble_residual_equals_whole_matrix_product(
        monkeypatch):
    # blocks of 7 rows over a system whose last block is partial
    sys_ = assembled_1d()
    A, b = sys_.matrix, sys_.rhs
    n = A.shape[0]
    monkeypatch.setattr(linsolve, "_LD_ROWS", 7)
    assert n > 3 * 7 and n % 7
    rng = np.random.default_rng(3)
    u_x = np.zeros(n, dtype=np.longdouble)
    u_x[...] = rng.uniform(-1.0, 1.0, n)
    u_x += np.longdouble(1e-19) * rng.uniform(-1.0, 1.0, n)
    b_x = b.astype(np.longdouble)
    whole = np.asarray(b_x - A.astype(np.longdouble) @ u_x, dtype=np.float64)
    streamed = linsolve._longdouble_residual(A, b, u_x)
    assert streamed.dtype == np.float64
    assert streamed.tobytes() == whole.tobytes()


def test_longdouble_stage_allocates_less_than_a_longdouble_copy_of_a():
    # line h2 42/2 finishes in longdouble; its residuals cast one block of
    # rows at a time, so no 16-byte copy of A's values is ever made
    prob = problems.make_problem("line_interface_2d", {})
    sys_ = assemble(build_grid(prob, 42, 2, 2.0, "h2"), prob)
    A = sys_.matrix
    assert A.shape[0] > 2 * linsolve._LD_ROWS
    assert solve(sys_).dtype == np.longdouble
    tracemalloc.start()
    try:
        solve(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.dtype(np.longdouble).itemsize * A.nnz


@pytest.mark.filterwarnings("error")
def test_contract_norms_do_not_overflow():
    # |b|_2 squared is about 1e404: the norms are taken of vectors scaled
    # by a power of two at or above max|b|, so the bound stays finite and
    # is met, and nothing overflows
    sys_ = assembled_1d()
    sys_.rhs *= 1e200
    u = solve(sys_)
    s = np.max(np.abs(sys_.rhs))
    res = np.linalg.norm((sys_.matrix @ u - sys_.rhs) / s)
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs / s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, params, N, r", [
    ("piecewise_kappa_1d", {"kappa_minus": 1e-200}, 10, 2),
    ("peskin_circle", {"radius": 1e-200}, 20, 2),
])
def test_extreme_scales_meet_a_finite_bound_or_raise(name, params, N, r):
    prob = problems.make_problem(name, params)
    try:
        res = run_case(prob, N, r, detail=True)
    except TwoGridError:
        return
    A, b, u = res.system.matrix, res.system.rhs, res.solution
    s = np.max(np.abs(b))
    resid = np.asarray(A.astype(np.longdouble) @ u - b, dtype=float) / s
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b / s)


# ---------------------------------------------------------------------------
# the nested-dissection path of plain tubes
# ---------------------------------------------------------------------------

def plain_tube(N=40, r=2):
    prob = problems.make_problem("internal_layer", {})
    return assemble(build_grid(prob, N, r, 4.0), prob)


@pytest.mark.parametrize("name, params, N, r, lam, hf_mode, ordering", [
    ("internal_layer", {}, 40, 2, 4.0, "ratio", "NATURAL"),
    ("internal_layer", {}, 30, 5, 4.0, "ratio", "NATURAL"),
    ("peskin_circle", {}, 40, 4, 2.0, "ratio", "MMD_AT_PLUS_A"),
    ("flower", {"kappa_minus": 1.0, "kappa_plus": 10.0}, 40, 2, 2.0,
     "ratio", "MMD_AT_PLUS_A"),
    ("line_interface_2d", {}, 12, 2, 2.0, "h2", "MMD_AT_PLUS_A"),
    ("piecewise_kappa_1d", {}, 10, 8, 2.0, "ratio", "MMD_AT_PLUS_A"),
    ("boundary_layer_1d", {}, 10, 2, 2.0, "ratio", "MMD_AT_PLUS_A"),
])
def test_only_plain_tubes_are_factored_in_their_own_order(
        splu_calls, name, params, N, r, lam, hf_mode, ordering):
    prob = problems.make_problem(name, params)
    sys_ = assemble(build_grid(prob, N, r, lam, hf_mode), prob)
    u = solve(sys_)
    assert splu_calls == [(np.float32, ordering)]
    res = np.linalg.norm(np.asarray(
        sys_.matrix.astype(np.longdouble) @ u - sys_.rhs, dtype=float))
    assert res <= 1e-12 * np.linalg.norm(sys_.rhs)


@pytest.mark.parametrize("N, r", [(40, 3), (60, 5), (80, 6), (70, 7),
                                  (80, 8)])
def test_dissection_fill_is_at_most_minimum_degree(monkeypatch, N, r):
    sys_ = plain_tube(N, r)
    splu = linsolve.spla.splu
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(linsolve.spla, "splu", recording_splu)
    solve(sys_)
    assert len(factors) == 1
    A = sys_.matrix
    mmd = splu(sp.csc_matrix((A.data.astype(np.float32), A.indices,
                              A.indptr), shape=A.shape),
               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               panel_size=4, relax=4, options={"SymmetricMode": True})
    assert factors[0].nnz <= mmd.nnz


def dense_rows_matrix(n=60, seed=5):
    """A CSR matrix with rows of 1 to ``n`` entries and a full diagonal."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < rng.random((n, 1)),
                     rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    dense[np.arange(n), np.arange(n)] = 4.0 + np.arange(n)
    dense[7] = rng.uniform(-1.0, 1.0, n)     # one full row
    return sp.csr_matrix(dense)


@pytest.mark.parametrize("rows", [1, 7, 1024])
@pytest.mark.parametrize("which", ["plain_tube", "dense_rows"])
def test_permuted_copy_is_the_sorted_symmetric_permutation(monkeypatch,
                                                            rows, which):
    # SuperLU reads a column's row indices in order: with the rows left
    # unsorted, the first residual of internal_layer 40/2 was 0.057
    # against a bound of 1.7e-8
    monkeypatch.setattr(linsolve, "_PERM_ROWS", rows)
    if which == "plain_tube":
        sys_ = plain_tube()
        A, order = sys_.matrix, sys_.order
    else:
        A = dense_rows_matrix()
        order = np.random.default_rng(1).permutation(A.shape[0])
    want = A[order][:, order].tocsr()
    want.sort_indices()
    got = linsolve._permuted(A, order)
    assert got.data.dtype == np.float32
    assert got.indices.dtype == got.indptr.dtype == np.int32
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data.astype(np.float32))


def test_an_ordered_system_solves_to_the_contract():
    # an order attached to a system that is not a tube: corrections are
    # permuted into the factor's order and back out of it
    A = dense_rows_matrix()
    order = np.random.default_rng(2).permutation(A.shape[0])
    b = A @ np.linspace(1.0, 2.0, A.shape[0])
    sys_ = SimpleNamespace(matrix=A, rhs=b, order=order)
    u = solve(sys_)
    assert np.linalg.norm(A @ u - b) <= 1e-12 * np.linalg.norm(b)


def test_ordered_solve_allocates_less_than_the_matrix_arrays():
    # the permuted copy holds float32 values and int32 indices and is built
    # 1024 rows at a time; it is freed once factored, before refinement
    sys_ = plain_tube(80, 6)
    A = sys_.matrix
    assert sys_.order is not None
    solve(sys_)     # imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        solve(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.data.nbytes + A.indices.nbytes


# ---------------------------------------------------------------------------
# verify_m_matrix
# ---------------------------------------------------------------------------

def laplacian_like(n=6):
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = 1.0
        d[i, i] = -2.0
        d[i, i + 1] = 1.0
    d[0, 0] = d[-1, -1] = 1.0
    bnd = np.zeros(n, dtype=bool)
    bnd[0] = bnd[-1] = True
    return d, bnd


def test_verify_clean_operator():
    d, bnd = laplacian_like()
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert rep["sign_ok"] and rep["row_sum_ok"]
    assert rep["offenders"] == []


def test_verify_flags_positive_diagonal():
    d, bnd = laplacian_like()
    d[2, 2] = 2.0
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert not rep["sign_ok"]
    kinds = [o for o in rep["offenders"] if o["kind"] == "diagonal_sign"]
    assert kinds == [{"row": 2, "col": 2, "kind": "diagonal_sign",
                      "value": 2.0}]


def test_verify_flags_negative_offdiagonal():
    d, bnd = laplacian_like()
    d[2, 3] = -0.5
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert not rep["sign_ok"]
    off = [o for o in rep["offenders"]
           if o["kind"] == "negative_offdiagonal"]
    assert off == [{"row": 2, "col": 3, "kind": "negative_offdiagonal",
                    "value": -0.5}]


def test_verify_flags_positive_row_sum():
    d, bnd = laplacian_like()
    d[2, 3] = 3.0   # interior row sum becomes +2, signs stay legal
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert rep["sign_ok"]
    assert not rep["row_sum_ok"]
    sums = [o for o in rep["offenders"] if o["kind"] == "row_sum"]
    assert sums == [{"row": 2, "col": -1, "kind": "row_sum", "value": 2.0}]


def test_verify_requires_dominance_witness():
    # interior block with exact zero row sums and no boundary coupling:
    # weak dominance alone cannot rule out a singular operator
    d = np.array([[1.0, 0.0, 0.0],
                  [0.0, -2.0, 2.0],
                  [0.0, 2.0, -2.0]])
    bnd = np.array([True, False, False])
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert rep["sign_ok"]
    assert not rep["row_sum_ok"]
    assert {"row": -1, "col": -1, "kind": "row_sum",
            "value": 0.0} in rep["offenders"]


def test_verify_tolerates_roundoff_noise():
    d, bnd = laplacian_like()
    d[2, 3] = -1e-15   # far below the relative sign tolerance
    d[3, 3] = -2.0 + 1e-15
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert rep["sign_ok"] and rep["row_sum_ok"]


def test_verify_caps_offender_list():
    n = 80
    d = np.diag(np.ones(n))   # every interior diagonal has the wrong sign
    bnd = np.zeros(n, dtype=bool)
    bnd[0] = bnd[-1] = True
    rep = verify_m_matrix(fake_system(d, boundary=bnd))
    assert not rep["sign_ok"]
    diag_off = [o for o in rep["offenders"] if o["kind"] == "diagonal_sign"]
    assert len(diag_off) == 50
    # 78 wrong diagonals, 78 positive row sums and no strict row; the count
    # covers the offenders the capped list leaves out
    assert rep["offender_count"] == 78 + 78 + 1
    assert len(rep["offenders"]) == 50 + 50 + 1


def test_verify_all_boundary_is_vacuously_fine():
    d = np.diag([1.0, 1.0])
    rep = verify_m_matrix(fake_system(d, boundary=[True, True]))
    assert rep["sign_ok"] and rep["row_sum_ok"]


def test_verify_on_assembled_benchmark():
    rep = verify_m_matrix(assembled_1d())
    assert rep["sign_ok"] and rep["row_sum_ok"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(1, 1), (1, 0)], ids=["diagonal", "off"])
def test_verify_fails_a_non_finite_entry(value, at):
    # rows 0 and 2 are boundary rows; column 0 is a boundary column
    d = np.array([[1.0, 0.0, 0.0],
                  [1.0, -2.0, 1.0],
                  [0.0, 0.0, 1.0]])
    d[at] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_m_matrix(fake_system(d, boundary=[True, False, True]))
    assert not rep["sign_ok"]
    assert 1 in {o["row"] for o in rep["offenders"]
                 if o["kind"] in ("diagonal_sign", "negative_offdiagonal")}


def reference_audit(A, boundary):
    """``verify_m_matrix``'s report by a plain loop over the rows of the
    CSR matrix ``A``: per kind, offenders in row order (a row's entries in
    stored order), the first 50 listed, then the missing-witness marker."""
    diag, off, sums = [], [], []
    witness = not (~boundary).any()
    for i in range(A.shape[0]):
        entries = list(zip(A.indices[A.indptr[i]:A.indptr[i + 1]],
                           A.data[A.indptr[i]:A.indptr[i + 1]]))
        if boundary[i]:
            continue
        scale = max((abs(v) for _, v in entries), default=0.0) or 1.0
        a_ii = next((v for c, v in entries if c == i), 0.0)
        if not a_ii < -1e-12 * scale:
            diag.append({"row": i, "col": i, "kind": "diagonal_sign",
                         "value": a_ii})
        off += [{"row": i, "col": int(c), "kind": "negative_offdiagonal",
                 "value": v} for c, v in entries
                if c != i and not v >= -1e-12 * scale]
        total = 0.0
        for c, v in entries:
            if not boundary[c]:
                total += v
        if not total <= 1e-8 * scale:
            sums.append({"row": i, "col": -1, "kind": "row_sum",
                         "value": total})
        # a stored zero in a boundary column couples the row
        witness |= total < -1e-8 * scale and any(boundary[c]
                                                 for c, _ in entries)
    missing = [] if witness else [{"row": -1, "col": -1, "kind": "row_sum",
                                   "value": 0.0}]
    return {
        "sign_ok": not diag and not off,
        "row_sum_ok": not sums and bool(witness),
        "offenders": diag[:50] + off[:50] + sums[:50] + missing,
        "offender_count": len(diag) + len(off) + len(sums) + len(missing),
    }


def csr(data, indices, indptr):
    n = len(indptr) - 1
    return sp.csr_matrix((np.array(data, dtype=float),
                          np.array(indices, dtype=np.int32), indptr),
                         shape=(n, n))


@hs.composite
def csr_systems(draw):
    """A small CSR matrix, its columns in random order per row, with stored
    zeros, rows without a diagonal, empty rows, and a boundary mask that
    may cover every row."""
    n = draw(hs.integers(1, 7))
    value = hs.one_of(hs.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, -4.0]),
                      hs.floats(-4.0, 4.0))
    rows = [draw(hs.lists(hs.integers(0, n - 1), unique=True, max_size=n))
            for _ in range(n)]
    indices = [c for cols in rows for c in cols]
    data = draw(hs.lists(value, min_size=len(indices),
                         max_size=len(indices)))
    indptr = np.cumsum([0] + [len(cols) for cols in rows])
    boundary = np.array(draw(hs.lists(hs.booleans(), min_size=n,
                                      max_size=n)))
    return csr(data, indices, indptr), boundary


@settings(max_examples=300, deadline=None)
@given(system=csr_systems())
# row 1 couples to boundary column 0 only through a stored 0.0
@example(system=(csr([1.0, 0.0, -2.0, 1.0, 1.0, -1.0], [0, 0, 1, 2, 1, 2],
                     [0, 1, 4, 6]), np.array([True, False, False])))
# an empty interior row and an empty boundary row
@example(system=(csr([-1.0], [0], [0, 1, 1, 1]),
                 np.array([False, False, True])))
# every row a boundary row
@example(system=(csr([1.0, 0.0, 1.0], [0, 0, 1], [0, 1, 3]),
                 np.array([True, True])))
def test_verify_matches_a_per_row_reference(system):
    A, boundary = system
    rep = verify_m_matrix(SimpleNamespace(matrix=A, boundary=boundary))
    assert rep == reference_audit(A, boundary)


# ---------------------------------------------------------------------------
# the comparison principle
# ---------------------------------------------------------------------------

def test_comparison_principle_on_perturbed_rhs():
    # the assembled operator has negative diagonal and non-negative
    # off-diagonals with weak dominance, so raising f anywhere lowers the
    # solution everywhere
    sys_ = assembled_1d()
    u0 = np.asarray(solve(sys_), dtype=float)
    rng = np.random.default_rng(7)
    interior = np.nonzero(~sys_.boundary)[0]
    for row in rng.choice(interior, size=5, replace=False):
        rhs = sys_.rhs.copy()
        rhs[row] += 1.0
        u1 = np.asarray(solve(SimpleNamespace(matrix=sys_.matrix, rhs=rhs)),
                        dtype=float)
        diff = u1 - u0
        assert diff.max() <= 1e-10
        assert diff.min() < -1e-12
