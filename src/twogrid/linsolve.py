"""Sparse direct solve plus structural checks on the assembled operator."""
from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularMatrix


def solve(system, tol: float = 1e-12) -> np.ndarray:
    """LU-solve the assembled system to ``|A u - b|_2 <= tol * |b|_2``.

    The composite operators have a structurally symmetric pattern and
    (mostly) M-matrix rows, which need no row pivoting. So the first
    factorization orders ``A + A^T`` by multiple minimum degree and takes
    the diagonal pivots as they come (``diag_pivot_thresh=0``); that
    roughly halves the fill of COLAMD with partial pivoting. If it raises,
    gives a non-finite solution or misses the contract after refinement,
    the system is factored again with COLAMD and partial pivoting and
    refined the same way.

    Rows of the composite operator differ in scale by several orders of
    magnitude (coarse vs fine spacing), so a single factorization pass can
    leave a residual above the contract; iterative refinement with the same
    factors is applied: two float64 steps, then up to five in extended
    precision. The result is float64 unless the float64 steps miss the
    bound; it is a longdouble vector on the worst-scaled systems (peskin
    N=320 r=8, line h2 N=42), where even the rounded exact solution misses
    the bound in double precision. Raises :class:`SingularMatrix` when the
    fallback factorization fails or its solution is non-finite, and
    :class:`NonConvergence` when its refinement misses the bound.
    """
    A = system.matrix.tocsc()
    b = system.rhs
    try:
        return _refine(A, b, _factor(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}), tol)
    except (SingularMatrix, NonConvergence):
        pass
    return _refine(A, b, _factor(A), tol)


def _factor(A, **opts):
    try:
        return spla.splu(A, **opts)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc


def _refine(A, b, lu, tol: float) -> np.ndarray:
    """Solve with the factors ``lu`` and refine to the contract of
    :func:`solve`: two float64 steps, then up to five longdouble ones."""
    u = lu.solve(b)
    if not np.all(np.isfinite(u)):
        raise SingularMatrix("solution contains non-finite entries")
    bnorm = float(np.linalg.norm(b))
    bound = tol * (bnorm if bnorm > 0.0 else 1.0)
    res = float(np.linalg.norm(A @ u - b))
    for _ in range(2):
        if res <= bound:
            return u
        u = u + lu.solve(b - A @ u)
        res = float(np.linalg.norm(A @ u - b))
    if res <= bound:
        return u
    A_x = A.astype(np.longdouble)
    b_x = b.astype(np.longdouble)
    u_x = u.astype(np.longdouble)
    for _ in range(5):
        r_x = A_x @ u_x - b_x
        res = float(np.linalg.norm(np.asarray(r_x, dtype=np.float64)))
        if res <= bound:
            return u_x
        u_x = u_x - lu.solve(np.asarray(r_x, dtype=np.float64)).astype(
            np.longdouble)
    raise NonConvergence(
        f"solve residual {res:.3e} exceeds {tol:.1e} * |b|_2 = {bound:.3e}")


def verify_m_matrix(system, sign_rtol: float = 1e-12,
                    row_sum_rtol: float = 1e-8, max_offenders: int = 50) -> dict:
    """Check the sign pattern and weak diagonal dominance of the operator.

    ``sign_ok`` requires every interior row to have a negative diagonal and
    non-negative off-diagonal entries. ``row_sum_ok`` requires every row sum
    of the Dirichlet-reduced block (interior rows restricted to interior
    columns) to be non-positive, with strict inequality on at least one row
    that couples to boundary data. Tolerances are relative to the largest
    entry of each row.

    Returns ``{sign_ok, row_sum_ok, offenders}`` where each offender is
    ``{row, col, value, kind}`` with kind one of ``diagonal_sign``,
    ``negative_offdiagonal``, ``row_sum`` (col is -1 for row-sum entries,
    which concern the whole row).
    """
    A = system.matrix.tocsr()
    n = A.shape[0]
    interior = ~system.boundary
    coo = A.tocoo()

    row_abs_max = np.zeros(n)
    np.maximum.at(row_abs_max, coo.row, np.abs(coo.data))
    row_abs_max[row_abs_max == 0.0] = 1.0

    diag = A.diagonal()
    offdiag = coo.row != coo.col
    neg_off = offdiag & (coo.data < -sign_rtol * row_abs_max[coo.row]) \
        & interior[coo.row]
    bad_diag_rows = np.nonzero(interior & (diag >= -sign_rtol * row_abs_max))[0]

    # row sums of the interior block, and couplings to boundary columns
    interior_entry = interior[coo.row] & interior[coo.col]
    int_row_sum = np.zeros(n)
    np.add.at(int_row_sum, coo.row[interior_entry], coo.data[interior_entry])
    bnd_coupled = np.zeros(n, dtype=bool)
    bnd_coupled[coo.row[interior[coo.row] & system.boundary[coo.col]]] = True

    bad_sum_rows = np.nonzero(
        interior & (int_row_sum > row_sum_rtol * row_abs_max))[0]
    strict = interior & bnd_coupled \
        & (int_row_sum < -row_sum_rtol * row_abs_max)
    has_witness = bool(strict.any()) or not interior.any()

    offenders = []
    for row in bad_diag_rows[:max_offenders]:
        offenders.append({"row": int(row), "col": int(row),
                          "kind": "diagonal_sign", "value": float(diag[row])})
    seen = 0
    for k in np.nonzero(neg_off)[0]:
        if seen >= max_offenders:
            break
        offenders.append({"row": int(coo.row[k]), "col": int(coo.col[k]),
                          "kind": "negative_offdiagonal",
                          "value": float(coo.data[k])})
        seen += 1
    for row in bad_sum_rows[:max_offenders]:
        offenders.append({"row": int(row), "col": -1, "kind": "row_sum",
                          "value": float(int_row_sum[row])})
    if not has_witness:
        offenders.append({"row": -1, "col": -1, "kind": "row_sum",
                          "value": 0.0})

    return {
        "sign_ok": len(bad_diag_rows) == 0 and not neg_off.any(),
        "row_sum_ok": len(bad_sum_rows) == 0 and has_witness,
        "offenders": offenders[:3 * max_offenders],
    }
