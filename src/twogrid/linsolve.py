"""Sparse direct solve plus structural checks on the assembled operator."""
from __future__ import annotations

import ctypes
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularMatrix

_TOL = 1e-12            # residual contract of solve, relative to |b|_2
_F64_STEPS = 10         # cap on float64 refinement steps
_LD_STEPS = 5           # longdouble refinement steps
_LD_ROWS = 4096         # rows per block of a longdouble residual
_PERM_ROWS = 1024       # rows per block of a permuted copy
_PANEL = 4              # SuperLU panel width and supernode relaxation of the
                        # float32 factor; a relaxation wider than the panel
                        # has crashed the interpreter at exit
_SIGN_RTOL = 1e-12      # audit tolerances, relative to a row's largest entry
_ROW_SUM_RTOL = 1e-8
_MAX_OFFENDERS = 50     # offenders listed per kind


def solve(system) -> np.ndarray:
    """LU-solve the assembled system to ``|A u - b|_2 <= 1e-12 * |b|_2``.

    The composite operators have a structurally symmetric pattern and
    (mostly) M-matrix rows, which need no row pivoting, and a symmetric
    permutation of an M-matrix is again one. So the factor is made in
    float32 and takes the diagonal pivots as they come
    (``diag_pivot_thresh=0``), which roughly halves the fill of COLAMD with
    partial pivoting, and its values take half the memory of a float64
    factor. Its order depends on the system:

    * a system that carries an ``order`` (a tube without interface jumps,
      whose grid gives a nested dissection of its lattice) is factored in
      that order: the factor's input is a copy of ``A`` permuted
      symmetrically, with float32 values and int32 indices, gathered 1024
      rows at a time and then sorted row by row in place, and SuperLU keeps
      its order (``permc_spec="NATURAL"``);
    * every other system (interface tubes, strips, 1D grids) is ordered by
      multiple minimum degree on ``A + A^T``.

    SuperLU builds the factor in 4-column panels with supernodes relaxed to
    4 columns: its working memory grows with the panel width, and on the
    benchmark systems the fill is the same as with SuperLU's default
    20-column panels.

    Iterative refinement with that factor recovers float64 accuracy
    (Langou et al. 2006): residuals are computed in float64, scaled by their
    max-norm before the float32 triangular solves and scaled back after,
    and permuted into the factor's order and back. The float64 steps stop
    when the contract is met, when a step no longer halves the residual, or
    after 10 steps. If the float64 floor still misses the contract, which
    happens on the worst-scaled systems (peskin N=320 r=8, line h2 N=42),
    up to five more steps take their residuals in extended precision, with
    corrections from the same factor, and the result is a longdouble vector
    whose padding bytes are zero, so equal solves give equal bytes.
    Otherwise it is float64. The norms of the contract are taken of ``b``
    and the residual divided by a power of two at or above ``max|b|``, so
    they do not overflow.

    If the float32 factor raises, gives a non-finite solution or its
    refinement misses the contract, the system is factored again in
    float64 with COLAMD and partial pivoting and refined the same way.
    Raises :class:`SingularMatrix` when that fallback factorization fails
    or its solution is non-finite, and :class:`NonConvergence` when its
    refinement misses the bound.

    Every residual is taken with the caller's CSR matrix. Unless the system
    carries an order, its arrays, read as CSC, are ``A^T``: that is what is
    factored, with its values cast to the factor's dtype over the CSR's own
    index arrays, and each correction is a transposed solve, so the float64
    fallback copies nothing. A CSR with unsorted or duplicate column
    indices is made canonical on a copy first, since SuperLU sums
    duplicates in place. The C heap's free pages go back to the system just
    before each factorization. A longdouble residual casts the values of
    4096 rows at a time, so no longdouble copy of ``A`` is made, and it
    equals the product with the whole matrix bit for bit. ``system`` is not
    modified.
    """
    A = system.matrix.tocsr()
    if not A.has_canonical_format:
        A = A.tocoo().tocsr()
    b = system.rhs
    order = getattr(system, "order", None)
    try:
        return _refine(A, b, _factor(
            A, np.float32, order,
            permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
            diag_pivot_thresh=0.0, panel_size=_PANEL, relax=_PANEL,
            options={"SymmetricMode": True}))
    except (SingularMatrix, NonConvergence):
        pass
    return _refine(A, b, _factor(A, np.float64))


def _factor(A, dtype, order=None, **opts):
    """``(splu(csc, **opts), dtype, order)``, where ``csc`` is ``M^T``: the
    index arrays of ``M``, read as CSC, with its values cast to ``dtype``.
    ``M`` is the canonical CSR matrix ``A``, or with an ``order`` its copy
    from :func:`_permuted`, which is freed when the factor is made. The
    free heap is trimmed first."""
    M = A if order is None else _permuted(A, order)
    _release_free_heap()
    try:
        return spla.splu(sp.csc_matrix(
            (M.data.astype(dtype, copy=False), M.indices, M.indptr),
            shape=M.shape[::-1]), **opts), dtype, order
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc


def _permuted(A, order) -> sp.csr_matrix:
    """``P A P^T`` with float32 values and int32 indices, where row ``i`` of
    ``P A`` is row ``order[i]`` of the canonical CSR matrix ``A``, and each
    row's columns are sorted, as SuperLU needs them.

    The rows are gathered ``_PERM_ROWS`` at a time, with their columns
    relabelled through the inverse permutation, so no float64 copy and no
    whole-matrix temporary is made; one ``sort_indices`` then sorts each
    row of the copy in place.
    """
    n = A.shape[0]
    new = np.empty(n, dtype=np.int32)
    new[order] = np.arange(n, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.diff(A.indptr)[order], out=indptr[1:])
    data = np.empty(A.nnz, dtype=np.float32)
    indices = np.empty(A.nnz, dtype=np.int32)
    for i in range(0, n, _PERM_ROWS):
        j = min(i + _PERM_ROWS, n)
        lo, hi = indptr[i], indptr[j]
        # the source of each entry: its row's start in A plus its slot
        src = np.arange(lo, hi, dtype=np.int64) + np.repeat(
            A.indptr[order[i:j]] - indptr[i:j], np.diff(indptr[i:j + 1]))
        indices[lo:hi] = new[A.indices[src]]
        data[lo:hi] = A.data[src]
    M = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    M.sort_indices()
    return M


def _release_free_heap() -> None:
    """Return the C heap's free pages to the operating system before a
    factorization maps its arrays: glibc keeps what assembly, HiGHS and the
    M-matrix audit freed, 25 MB of it after the audit on layer_solve. Does
    nothing where the C library has no ``malloc_trim``."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _correction(factor, r) -> np.ndarray:
    """The float64 solution of ``A d = r``, a transposed solve with the
    factor of ``A^T``, or of ``(P A P^T)^T`` with ``r`` permuted into its
    order and ``d`` back out of it. ``r`` is scaled by its max-norm before
    it is cast to the factor's dtype, so a small residual neither
    underflows nor loses digits in float32."""
    lu, dtype, order = factor
    scale = float(np.max(np.abs(r), initial=0.0))
    if scale == 0.0:
        return np.zeros(len(r))
    p = slice(None) if order is None else order
    d = np.empty(len(r))
    d[p] = lu.solve((r[p] / scale).astype(dtype), trans="T")
    return d * scale


def _refine(A, b, factor) -> np.ndarray:
    """Solve with ``factor`` and refine to the contract of :func:`solve`:
    float64 steps while each one at least halves the residual, then up to
    five longdouble ones. ``A`` is the caller's CSR matrix. Norms are taken
    of vectors divided by a power of two at or above ``max|b|``, so
    neither ``|b|`` nor the bound overflows."""
    u = _correction(factor, b)
    if not np.all(np.isfinite(u)):
        raise SingularMatrix("solution contains non-finite entries")
    # a power of two at or above max|b|: the scaled norms compare exactly
    # as the plain ones would where those are finite
    scale = math.ldexp(1.0, math.frexp(np.max(np.abs(b), initial=0.0))[1])

    def norm(v):
        return float(np.linalg.norm(v / scale))

    bnorm = norm(b)
    bound = _TOL * (bnorm if bnorm > 0.0 else 1.0)
    r = b - A @ u
    res = norm(r)
    for _ in range(_F64_STEPS):
        if res <= bound:
            return u
        u = u + _correction(factor, r)
        r = b - A @ u
        last, res = res, norm(r)
        if not res <= 0.5 * last:
            break
    if res <= bound:
        return u
    # a cast to a fresh longdouble array leaves its padding bytes
    # uninitialized; assignment and in-place sums into a zeroed buffer
    # write only the value bytes
    u_x = np.zeros(len(u), dtype=np.longdouble)
    u_x[...] = u
    for _ in range(_LD_STEPS):
        r = _longdouble_residual(A, b, u_x)
        res = norm(r)
        if res <= bound:
            return u_x
        u_x += _correction(factor, r)
    raise NonConvergence(
        f"solve residual {res * scale:.3e} exceeds {_TOL:.1e} * |b|_2 = "
        f"{bound * scale:.3e}")


def _longdouble_residual(A, b, u_x) -> np.ndarray:
    """``b - A u_x`` summed in longdouble and rounded to float64. The CSR
    matrix ``A`` is taken in blocks of ``_LD_ROWS`` rows, and only one
    block's values are cast to longdouble at a time. Each row is summed in
    the order of a product with the whole matrix, so the result is the
    same."""
    n = A.shape[0]
    r = np.empty(n)
    for i in range(0, n, _LD_ROWS):
        j = min(i + _LD_ROWS, n)
        lo, hi = A.indptr[i], A.indptr[j]
        r[i:j] = b[i:j] - sp.csr_matrix(
            (A.data[lo:hi].astype(np.longdouble), A.indices[lo:hi],
             A.indptr[i:j + 1] - lo), shape=(j - i, A.shape[1])) @ u_x
    return r


def verify_m_matrix(system) -> dict:
    """Check the sign pattern and weak diagonal dominance of the operator.

    ``sign_ok`` requires every interior row to have a negative diagonal and
    non-negative off-diagonal entries. ``row_sum_ok`` requires every row sum
    of the Dirichlet-reduced block (interior rows restricted to interior
    columns) to be non-positive, with strict inequality on at least one row
    that couples to boundary data; a stored entry in a boundary column
    couples even when its value is 0.0. Tolerances are relative to the
    largest entry of each row: 1e-12 for the signs, 1e-8 for the row sums.
    Each test is passed only by a value that meets it, so a NaN or infinite
    entry in an interior row fails the sign test.

    Returns ``{sign_ok, row_sum_ok, offenders, offender_count}`` where each
    offender is ``{row, col, value, kind}`` with kind one of
    ``diagonal_sign``, ``negative_offdiagonal``, ``row_sum`` (col is -1 for
    row-sum entries, which concern the whole row; row -1 marks a missing
    strict row). The list holds the first 50 offenders of each kind, in
    row order (off-diagonal entries in CSR order); ``offender_count``
    counts all of them. The CSR matrix is read in place: row maxima are
    reductions over its rows, row sums one product with it.
    """
    A = system.matrix.tocsr()
    n = A.shape[0]
    interior = ~system.boundary
    row = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    filled = np.flatnonzero(np.diff(A.indptr))
    scale = np.zeros(n)
    scale[filled] = np.maximum.reduceat(np.abs(A.data), A.indptr[filled])
    scale[scale == 0.0] = 1.0

    diag = A.diagonal()
    bad_diag = np.flatnonzero(interior & ~(diag < -_SIGN_RTOL * scale))
    neg_off = np.flatnonzero(~(A.data >= (-_SIGN_RTOL * scale)[row])
                             & interior[row] & (A.indices != row))
    # boundary columns add 0.0, so each row sums its interior entries in
    # stored order
    row_sum = A @ interior.astype(float)
    bad_sum = np.flatnonzero(interior & ~(row_sum <= _ROW_SUM_RTOL * scale))
    coupled = np.zeros(n, dtype=bool)
    coupled[row[system.boundary[A.indices]]] = True
    strict = interior & coupled & (row_sum < -_ROW_SUM_RTOL * scale)
    missing = [] if strict.any() or not interior.any() else [-1]

    d, k, s = (bad[:_MAX_OFFENDERS] for bad in (bad_diag, neg_off, bad_sum))
    offenders = [
        {"row": int(r), "col": int(c), "kind": kind, "value": float(v)}
        for kind, rows, cols, values in (
            ("diagonal_sign", d, d, diag[d]),
            ("negative_offdiagonal", row[k], A.indices[k], A.data[k]),
            ("row_sum", s, np.full_like(s, -1), row_sum[s]),
            ("row_sum", missing, missing, [0.0] * len(missing)))
        for r, c, v in zip(rows, cols, values)]
    return {
        "sign_ok": len(bad_diag) == 0 and len(neg_off) == 0,
        "row_sum_ok": len(bad_sum) == 0 and not missing,
        "offenders": offenders,
        "offender_count": len(bad_diag) + len(neg_off) + len(bad_sum)
        + len(missing),
    }
