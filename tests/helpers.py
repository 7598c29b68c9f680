"""Small helpers that only the tests read."""

import numpy as np

from weylkit.shapes import plus_shift_matrix


def is_upper_triangular(w) -> bool:
    return not np.tril(np.array(w), -1).any()


def is_lower_triangular(w) -> bool:
    return not np.triu(np.array(w), 1).any()


def plus_shift_tensor(t, d: int, p: int):
    """Add p^d to the (1, 1, 1) entry of a tensor (a tuple of matrices)."""
    return (plus_shift_matrix(t[0], d, p),) + tuple(tuple(map(tuple, w)) for w in t[1:])


def to_dense(mat) -> np.ndarray:
    """A ``SparseMod`` as a dense int64 array."""
    out = np.zeros(mat.shape, dtype=np.int64)
    out[mat.rows, mat.cols] = mat.vals
    return out
