"""Exact linear algebra modulo a prime.

Two storage forms are used.  Small matrices (Gram matrices, radicals) are
dense numpy int64 arrays with entries reduced into [0, p); ``rref_mod`` and
``kernel_basis_mod`` work on them and always pivot on the first nonzero
entry in column order, so echelon forms and kernel bases are bit-stable
across runs.  Hom-complex differentials and box-relation systems, which are
mostly zero, are ``SparseMod`` matrices: only their nonzero entries, in
canonical row-major order.  One sparse kernel, ``_pivots``, does all
sparse elimination: rows in the order given, each reduced on its highest
column.  It ranks both forms, and with a pivot ``limit`` it straightens the
weight slices of ``weyl``, which certifies the rows it never read by one
product instead of reducing them.  ``complex_ranks`` ranks
a cochain complex from its last differential down, skipping the rows of
``diffs[k]`` at the pivot columns of ``diffs[k+1]``, which ``d^2 = 0`` makes
combinations of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SparseMod:
    """A matrix over F_p stored as its nonzero entries.

    ``rows``, ``cols`` and ``vals`` are read-only int64 arrays sorted in
    row-major order, with no position repeated and every value in [1, p).
    Build one with ``from_entries`` (or ``from_dense``), which puts the
    entries into that canonical form, so two equal matrices have equal
    arrays.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, shape, rows, cols, vals, p: int) -> "SparseMod":
        """The matrix with the given entries; entries at one position are
        summed mod p and zero sums are dropped."""
        nrows, ncols = (int(x) for x in shape)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.int64).ravel() % p
        if not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals differ in length")
        if rows.size and not (
            0 <= rows.min() and rows.max() < nrows and 0 <= cols.min() and cols.max() < ncols
        ):
            raise ValueError(f"entry position outside the shape {(nrows, ncols)}")
        if not vals.size:
            return cls((nrows, ncols), _EMPTY, _EMPTY, _EMPTY)
        keys = rows * ncols + cols
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)  # first entry at each position
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(vals[order], starts) % p
        keep = sums != 0
        rows, cols = np.divmod(keys[starts][keep], ncols)
        vals = sums[keep]
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        return cls((nrows, ncols), rows, cols, vals)

    @classmethod
    def from_dense(cls, mat, p: int) -> "SparseMod":
        """The sparse form of a dense integer matrix, reduced mod p."""
        a = np.asarray(mat, dtype=np.int64) % p
        rows, cols = np.nonzero(a)
        return cls.from_entries(a.shape, rows, cols, a[rows, cols], p)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def row_dicts(self) -> list[dict[int, int]]:
        """One {column: value} dict per row."""
        bounds = np.searchsorted(self.rows, np.arange(self.shape[0] + 1)).tolist()
        cols, vals = self.cols.tolist(), self.vals.tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(bounds, bounds[1:])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMod):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(x, y)
            for x, y in ((self.rows, other.rows), (self.cols, other.cols), (self.vals, other.vals))
        )

    __hash__ = None


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


def _pivots(rows, p: int, limit: int | None = None) -> dict[int, dict[int, int]]:
    """{column: monic pivot row} of the given {column: value} rows over F_p:
    each row in turn is reduced on its highest column against the pivot
    rows so far, until it is zero or that column is new.  Rows are consumed,
    and none past the one that makes the ``limit``-th pivot."""
    pivots: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    while len(pivots) != limit:
        row = next(rows, None)
        if row is None:
            break
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = row if inv == 1 else {j: v * inv % p for j, v in row.items()}
                break
            f = row[col]
            for j, v in pivot.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
    return pivots


def rank_mod(mat: SparseMod | np.ndarray, p: int) -> int:
    """Rank over F_p of a SparseMod or a dense array."""
    return complex_ranks([mat], p)[0]


def complex_ranks(diffs: list, p: int) -> list[int]:
    """Ranks over F_p of a cochain complex's differentials (SparseMod or
    dense), ``diffs[k]`` of shape (dims[k+1], dims[k]), with
    ``diffs[k+1] @ diffs[k] == 0``.

    One sweep from the last differential down: ``diffs[k]`` is reduced
    without its rows at the pivot columns A of the reduced rows E of
    ``diffs[k+1]``.  The rank is unchanged: ``E @ diffs[k] == 0`` and
    ``E[:, A]`` is unitriangular, so the rows A of ``diffs[k]`` equal
    ``-E[:, A]⁻¹ E[:, Aᶜ] diffs[k][Aᶜ, :]``, combinations of the rest.  The
    rows left number rank ``diffs[k]`` + dim H^(k+1), so almost none of
    them has to be reduced to zero.
    """
    ranks = [0] * len(diffs)
    cleared: set[int] = set()  # pivot columns of the reduced diffs[k+1]
    for k in reversed(range(len(diffs))):
        mat = diffs[k] if isinstance(diffs[k], SparseMod) else SparseMod.from_dense(diffs[k], p)
        # only the rows not cleared become {column: value} dicts
        keep = np.ones(mat.shape[0], dtype=bool)
        keep[list(cleared)] = False
        entries = keep[mat.rows]
        cols, vals = mat.cols[entries].tolist(), mat.vals[entries].tolist()
        bounds = np.searchsorted(mat.rows[entries], np.flatnonzero(keep)).tolist() + [len(cols)]
        rows = (dict(zip(cols[a:b], vals[a:b])) for a, b in zip(bounds, bounds[1:]))
        pivots = _pivots(rows, p)
        ranks[k] = len(pivots)
        cleared = set(pivots)
    return ranks


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
