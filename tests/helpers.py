"""Small helpers that only the tests read."""

import numpy as np

from weylkit.shapes import _upper_triangular_array, plus_shift_matrix


def is_upper_triangular(w) -> bool:
    return not np.tril(np.array(w), -1).any()


def is_lower_triangular(w) -> bool:
    return not np.triu(np.array(w), 1).any()


def upper_triangular(row_sums):
    """The steps out of the weight ``row_sums`` as tuples of matrices:
    ``shapes._upper_triangular_array`` decoded, in its order."""
    return tuple(tuple(map(tuple, w)) for w in _upper_triangular_array(tuple(row_sums)).tolist())


def tensor_margins(t):
    """(sum over first index, sum over middle index, sum over last index)."""
    n = len(t)
    rng = range(n)
    m1 = tuple(tuple(sum(t[s][a][b] for s in rng) for b in rng) for a in rng)
    m2 = tuple(tuple(sum(t[s][a][b] for a in rng) for b in rng) for s in rng)
    m3 = tuple(tuple(sum(t[s][a][b] for b in rng) for a in rng) for s in rng)
    return m1, m2, m3


def plus_shift_tensor(t, d: int, p: int):
    """Add p^d to the (1, 1, 1) entry of a tensor (a tuple of matrices)."""
    return (plus_shift_matrix(t[0], d, p),) + tuple(tuple(map(tuple, w)) for w in t[1:])


def to_dense(mat) -> np.ndarray:
    """A ``SparseMod`` as a dense int64 array."""
    out = np.zeros(mat.shape, dtype=np.int64)
    out[mat.rows, mat.cols] = mat.vals
    return out
