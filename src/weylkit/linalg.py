"""Dense exact linear algebra modulo a prime.

Matrices are numpy int64 arrays with entries reduced into [0, p).  Pivots are
always chosen as the first nonzero entry in column order, so echelon forms,
ranks and kernel bases are bit-stable across runs.
"""

from __future__ import annotations

import numpy as np


def rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Return (R, pivots) with R the reduced row echelon form of mat over F_p.

    The input is not mutated.  ``pivots`` lists the pivot column of each
    nonzero row of R in order.
    """
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = nz[0] + row
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row] = (a[row] * inv) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != row]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[row])) % p
        pivots.append(col)
        row += 1
    return a, pivots


def rank_mod(mat: np.ndarray, p: int) -> int:
    """Rank of mat over F_p."""
    if mat.size == 0:
        return 0
    return len(rref_mod(mat, p)[1])


def kernel_basis_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space of mat over F_p, one vector per row.

    The basis is the canonical one read off the reduced row echelon form
    (one vector per free column, unit in that coordinate), listed in
    ascending free-column order.
    """
    mat = np.asarray(mat, dtype=np.int64)
    ncols = mat.shape[1]
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if mat.shape[0] == 0:
        return np.eye(ncols, dtype=np.int64)
    red, pivots = rref_mod(mat, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-red[i, f]) % p
    return basis
