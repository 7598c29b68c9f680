"""Index combinatorics: compositions, dominance, weight matrices and tensors,
tableaux, and the degree-raising shift that adds p^d to a leading entry.

Conventions used throughout the package:

* A composition of r with n parts is a tuple of n nonnegative ints summing
  to r.  A partition is a weakly decreasing composition.
* A weight matrix w is an n x n tuple-of-tuples; its margins are
  ``margin1(w)`` = column sums and ``margin2(w)`` = row sums.
* A weight 3-tensor t[s][t][q] has three margin matrices: the sums over s,
  over t and over q.
* A tableau of shape mu is stored as the count matrix c[i][j] = number of
  entries i+1 in row j+1, padded to n x n.  Column sums give the shape and
  row sums give the weight, so the tableau/matrix correspondence is the
  identity on this representation.
* Every enumeration returns a duplicate-free list sorted by the flattened
  integer tuple in descending lexicographic order.  This single rule fixes
  all basis orderings downstream.

Matrices with prescribed margins, which index the divided monomials of a
weight slice, are enumerated in bulk with numpy, a row at a time for all
partial matrices at once, and memoised as that array only: the tuple views
(``enumerate_omega``, ``enumerate_theta``, ``enumerate_sst``) decode it on
each call.  The semistandard tableaux are the count matrices among them
that pass one vectorised column-strictness test, ``sst_indices``, and
``kostka`` counts those positions without decoding a tableau.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb, prod
from typing import Iterator

import numpy as np

Composition = tuple[int, ...]
Matrix = tuple[Composition, ...]
Tensor = tuple[Matrix, ...]

INT64_MAX = int(np.iinfo(np.int64).max)
INT32_MAX = int(np.iinfo(np.int32).max)


# ---------------------------------------------------------------------------
# compositions and dominance


def validate_composition(parts, n: int | None = None, r: int | None = None) -> Composition:
    parts = tuple(int(x) for x in parts)
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts}")
    if n is not None and len(parts) != n:
        raise ValueError(f"expected {n} parts, got {parts}")
    if r is not None and sum(parts) != r:
        raise ValueError(f"expected total {r}, got {parts}")
    return parts


def is_partition(parts) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def validate_partition(parts) -> Composition:
    parts = validate_composition(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not weakly decreasing")
    return parts


def pad(parts, n: int) -> Composition:
    parts = tuple(parts)
    if len(parts) > n:
        raise ValueError(f"{parts} has more than {n} parts")
    return parts + (0,) * (n - len(parts))


def dominates(a, b) -> bool:
    """Dominance order: every prefix sum of a is >= the matching prefix of b."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or sum(a) != sum(b):
        raise ValueError(f"cannot compare {a} and {b}: different length or total")
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


def linked(a, b, p: int) -> bool:
    """Whether the multisets {a_i - i mod p} and {b_i - i mod p} agree: for
    two compositions of one total, whether a and b are linked, that is, in
    one orbit of the affine Weyl group of GL_n under the dot action.  By the
    linkage principle, Ext between the Weyl module of a and the Weyl module
    of b, or its simple head, is zero in every degree unless they are.
    Adding p^d to the first parts keeps every residue, so a pair and its
    shift are linked or not alike."""
    def residues(parts):
        return sorted((x - i) % p for i, x in enumerate(parts, 1))

    return residues(a) == residues(b)


def _compositions_bounded(total: int, bounds: tuple[int, ...]) -> Iterator[Composition]:
    # Descending-lex generation of tuples c with sum(c) = total, 0 <= c_i <= bounds_i.
    if not bounds:
        if total == 0:
            yield ()
        return
    # the rest holds at most sum(bounds[1:]), which bounds the head from below
    head_min = max(total - sum(bounds[1:]), 0)
    for head in range(min(total, bounds[0]), head_min - 1, -1):
        for rest in _compositions_bounded(total - head, bounds[1:]):
            yield (head,) + rest


@lru_cache(maxsize=None)
def enumerate_compositions(n: int, r: int) -> tuple[Composition, ...]:
    """All of Lambda(n;r) in descending lexicographic order."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return tuple(_compositions_bounded(r, (r,) * n))


def _partitions_bounded(total: int, parts: int, cap: int) -> Iterator[Composition]:
    # Descending-lex generation of the partitions of total into exactly
    # ``parts`` parts (zeros included), each at most cap.
    if not parts:
        if total == 0:
            yield ()
        return
    # the rest holds at most head * (parts - 1), which bounds the head from below
    for head in range(min(total, cap), -(-total // parts) - 1, -1):
        for rest in _partitions_bounded(total - head, parts - 1, head):
            yield (head,) + rest


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, r: int) -> tuple[Composition, ...]:
    """All partitions of r with at most n parts (padded to length n), in
    descending lexicographic order, each generated directly."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return tuple(_partitions_bounded(r, n, r))


def enumerate_dominating(lam) -> list[Composition]:
    """The compositions that dominate lam, lam included (and last), in
    descending lexicographic order.  Raises ResourceLimitError past
    ``MAX_LAYOUT_ROWS`` of them (see ``_dominating_array``)."""
    return list(map(tuple, _dominating_array(tuple(lam)).tolist()))


def enumerate_strictly_dominating(lam) -> list[Composition]:
    lam = tuple(lam)
    return [a for a in enumerate_dominating(lam) if a != lam]


# ---------------------------------------------------------------------------
# weight matrices and 3-tensors


def validate_matrix(w, n: int | None = None) -> Matrix:
    w = tuple(tuple(int(x) for x in row) for row in w)
    size = len(w)
    if n is not None and size != n:
        raise ValueError(f"expected a {n}x{n} matrix")
    if any(len(row) != size for row in w):
        raise ValueError("matrix must be square")
    if any(x < 0 for row in w for x in row):
        raise ValueError("matrix entries must be nonnegative")
    return w


def margin1(w) -> Composition:
    """Column sums."""
    return tuple(map(sum, zip(*w)))


def margin2(w) -> Composition:
    """Row sums."""
    return tuple(map(sum, w))


def matrix_margins(w) -> tuple[Composition, Composition]:
    """(column sums, row sums) of a weight matrix."""
    return margin1(w), margin2(w)


def matrix_total(w) -> int:
    return sum(sum(row) for row in w)


def transpose_matrix(w) -> Matrix:
    n = len(w)
    return tuple(tuple(w[s][t] for s in range(n)) for t in range(n))


def diagonal_matrix(nu) -> Matrix:
    n = len(nu)
    return tuple(tuple(nu[s] if s == t else 0 for t in range(n)) for s in range(n))


def _flatten_matrix(w) -> tuple[int, ...]:
    return tuple(x for row in w for x in row)


def _flatten_tensor(t) -> tuple[int, ...]:
    return tuple(x for plane in t for row in plane for x in row)


@lru_cache(maxsize=None)
def _row_table(total: int, bounds: Composition) -> np.ndarray:
    """The compositions of total under ``bounds``, descending-lex, as one
    read-only (k, len(bounds)) int64 array: the candidates of one row of a
    contingency matrix whose column sums are ``bounds``."""
    table = np.array(tuple(_compositions_bounded(total, bounds)), dtype=np.int64).reshape(-1, len(bounds))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def contingency_array(row_sums: Composition, col_sums: Composition) -> np.ndarray:
    """All nonnegative integer matrices with the given row and column sums,
    as one read-only array of shape (matrices, len(row_sums), len(col_sums)),
    in descending-lex order of the flattened matrix.

    Empty when the two totals disagree.  The matrices grow a row at a time,
    all at once in numpy: the compositions of the next row sum that fit
    under the column sums (``_row_table``) are tested against every partial
    matrix's remaining column budget in one broadcast comparison, and the
    last row is the budget that remains.  Bounding the candidates by the
    column sums keeps a shifted row sum r + p^d from listing all of its
    compositions.  Partial matrices stay in descending-lex order and each
    one's candidates come in descending-lex order, so the whole array is
    descending-lex.

    Its dtype is uint8 while the total is below 256 and int64 beyond.  The
    weight slices of ``weyl`` read it as their monomial basis, and the
    Schur products of ``schur`` read its rows as their steps.
    """
    shape = (len(row_sums), len(col_sums))
    dtype = np.uint8 if sum(col_sums) < 256 else np.int64
    if sum(row_sums) != sum(col_sums):
        out = np.zeros((0, *shape), dtype=dtype)
    elif not row_sums or not col_sums:
        out = np.zeros((1, *shape), dtype=dtype)
    else:
        budget = np.array([col_sums], dtype=np.int64)
        tables: list[np.ndarray] = []  # per row but the last
        picks: list[np.ndarray] = []  # per row but the last, the candidate of each matrix
        for total in row_sums[:-1]:
            table = _row_table(total, col_sums)
            state, pick = np.nonzero((table[None, :, :] <= budget[:, None, :]).all(axis=2))
            picks = [earlier[state] for earlier in picks] + [pick]
            budget = budget[state] - table[pick]
            tables.append(table)
        out = np.empty((len(budget), *shape), dtype=dtype)
        for k, (table, pick) in enumerate(zip(tables, picks)):
            out[:, k] = table[pick]
        out[:, -1] = budget
    out.flags.writeable = False
    return out


def decode_matrices(array: np.ndarray) -> tuple[Matrix, ...]:
    """The matrices of an (m, rows, cols) array as tuples of row tuples."""
    return tuple(tuple(map(tuple, w)) for w in array.tolist())


def enumerate_omega(alpha, beta) -> list[Matrix]:
    """Matrices with row margin alpha and column margin beta."""
    return list(decode_matrices(contingency_array(tuple(alpha), tuple(beta))))


def enumerate_theta(w, pi) -> list[Tensor]:
    """3-tensors whose last-index margin is w and first-index margin is pi.

    For each middle index the slice (theta[s][t][q])_{s,q} is a contingency
    matrix with row sums given by column t of w and column sums given by
    row t of pi; the result is the cartesian product over t.
    """
    n = len(w)
    if matrix_total(w) != matrix_total(pi):
        return []
    slices = [decode_matrices(contingency_array(tuple(row[t] for row in w), tuple(pi[t]))) for t in range(n)]
    # slice t of each choice is theta[.][t][.], so theta[s] is row s of every slice
    results = [tuple(zip(*chosen)) for chosen in product(*slices)]
    results.sort(key=_flatten_tensor, reverse=True)
    return results


# ---------------------------------------------------------------------------
# degree-raising shift


def _shifted(x: int, d: int, p: int) -> int:
    """x + p^d, kept inside the int64 range of the engine's arrays."""
    if d < 1:
        raise ValueError("shift exponent d must be >= 1")
    if p < 2:
        raise ValueError("p must be at least 2")
    q = p**d
    if q > INT64_MAX:
        raise ValueError(f"shift p^d = {p}^{d} exceeds the 64-bit integer range")
    if x + q > INT64_MAX:
        raise ValueError(f"shifted entry {x} + {p}^{d} exceeds the 64-bit integer range")
    return x + q


def plus_shift_composition(a, d: int, p: int) -> Composition:
    """Add p^d to the first part."""
    a = tuple(a)
    return (_shifted(a[0], d, p),) + a[1:]


def plus_shift_matrix(w, d: int, p: int) -> Matrix:
    """Add p^d to the (1, 1) entry."""
    return ((_shifted(w[0][0], d, p),) + tuple(w[0][1:]),) + tuple(tuple(row) for row in w[1:])


# ---------------------------------------------------------------------------
# tableaux


class Tableau:
    """A filling of a Young diagram with entries from {1, ..., n}.

    Entries within a row commute, so the canonical storage is the count
    matrix ``counts[i][j]`` = multiplicity of entry i+1 in row j+1 (an n x n
    matrix).  Arbitrary fillings are normalised to this row-sorted form on
    ingestion.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts: Matrix = validate_matrix(counts)

    @classmethod
    def from_entries(cls, rows, n: int) -> "Tableau":
        counts = [[0] * n for _ in range(n)]
        if len(rows) > n:
            raise ValueError(f"more than {n} rows")
        for j, row in enumerate(rows):
            for entry in row:
                if not 1 <= entry <= n:
                    raise ValueError(f"entry {entry} outside 1..{n}")
                counts[entry - 1][j] += 1
        return cls(tuple(tuple(row) for row in counts))

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> Composition:
        return margin1(self.counts)

    @property
    def weight(self) -> Composition:
        return margin2(self.counts)

    def to_matrix(self) -> Matrix:
        return self.counts

    def rows(self) -> list[list[int]]:
        """Rows as sorted entry lists, trailing empty rows dropped."""
        out = []
        for j in range(self.n):
            row = []
            for i in range(self.n):
                row.extend([i + 1] * self.counts[i][j])
            out.append(row)
        while out and not out[-1]:
            out.pop()
        return out

    def is_semistandard(self) -> bool:
        """Rows weakly increase by construction; columns must strictly increase."""
        shape = self.shape
        if not is_partition(shape):
            return False
        rows = self.rows()
        for j in range(len(rows) - 1):
            upper, lower = rows[j], rows[j + 1]
            for k, entry in enumerate(lower):
                if entry <= upper[k]:
                    return False
        return True

    def plus_shift(self, d: int, p: int) -> "Tableau":
        """Insert p^d entries equal to 1 at the start of the top row."""
        return Tableau(plus_shift_matrix(self.counts, d, p))

    def key(self) -> tuple[int, ...]:
        return _flatten_matrix(self.counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"Tableau({format_tableau(self)!r}, n={self.n})"


def sst_indices(mu: Composition, alpha: Composition) -> np.ndarray:
    """The positions in ``contingency_array(alpha, mu)`` of the semistandard
    tableaux of shape mu and weight alpha, ascending.  Like that function
    it takes tuples and checks nothing: mu a partition, alpha a composition
    of the same length and total.

    These are the count matrices in which row j+1 fits strictly under row
    j: with c the count matrix summed down the entries, no entry 1 lies
    below the top row, and the lower row's count of entries <= v never
    exceeds the upper row's count of entries <= v-1.  One vectorised test
    over the whole array, unmemoised.  A partial sum down a column stays
    within its column sum, so it keeps the array's dtype.
    """
    counts = contingency_array(alpha, mu)
    cum = counts.cumsum(axis=1, dtype=counts.dtype)
    keep = ~counts[:, :1, 1:].any(axis=(1, 2)) & (cum[:, 1:, 1:] <= cum[:, :-1, :-1]).all(axis=(1, 2))
    return keep.nonzero()[0]


def _check_degree(r: int):
    """Raise ValueError when a degree r, a total of nonnegative parts,
    passes the int64 range of the engine's arrays; a degree inside it keeps
    every part inside it."""
    if r > INT64_MAX:
        raise ValueError(f"degree {r} exceeds the 64-bit integer range")


def _check_weight(mu, alpha) -> tuple[Composition, Composition]:
    """(mu, alpha) as tuples, alpha a weight of the partition mu's length and
    total, which fits int64."""
    mu = validate_partition(mu)
    alpha = validate_composition(alpha)
    if len(alpha) != len(mu) or sum(alpha) != sum(mu):
        raise ValueError(f"weight {alpha} incompatible with shape {mu}")
    _check_degree(sum(mu))
    return mu, alpha


def enumerate_sst(mu, alpha) -> tuple[Tableau, ...]:
    """Semistandard tableaux of shape mu and weight alpha, the rows of
    ``contingency_array(alpha, mu)`` at ``sst_indices(mu, alpha)``, decoded
    on each call."""
    mu, alpha = _check_weight(mu, alpha)
    return tuple(map(Tableau, decode_matrices(contingency_array(alpha, mu)[sst_indices(mu, alpha)])))


def kostka(mu, alpha) -> int:
    """Number of semistandard tableaux of shape mu and weight alpha."""
    return len(sst_indices(*_check_weight(mu, alpha)))


# ---------------------------------------------------------------------------
# dominance chains of upper triangular steps


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the slices bounds[t]:bounds[t+1]."""
    total = np.concatenate(([0], np.cumsum(values)))
    return total[bounds[1:]] - total[bounds[:-1]]


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[i], starts[i] + counts[i]) over i."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


def sorted_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, first) for a 2-D integer array: ``order`` sorts its rows in
    ascending lex order, and ``first`` holds the positions in that order
    where a new row begins.

    The rows are numbered in the mixed radix of their columns' ranges and
    sorted by that one int64 key while it fits, and sorted as rows
    (``np.lexsort``) past it.  The work runs on a contiguous copy of the
    columns, since numpy reduces a narrow array along its long axis slowly
    (50,000 rows of 2: min over axis 0 about 1.4 ms, over the contiguous
    columns about 17 us).
    """
    if not len(rows):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    cols = np.ascontiguousarray(rows.T, dtype=np.int64)
    low = cols.min(axis=1)
    radix = (cols.max(axis=1) - low + 1).tolist()
    if prod(radix) < 2**63:
        place = np.array([prod(radix[j + 1 :]) for j in range(len(radix))], dtype=np.int64)
        key = place @ (cols - low[:, None])
        order = np.argsort(key)
        key = key[order]
        changed = key[1:] != key[:-1]
    else:
        order = np.lexsort(cols[::-1])
        changed = (cols[:, order[1:]] != cols[:, order[:-1]]).any(axis=0)
    return order, np.flatnonzero(np.concatenate(([True], changed)))


def number_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, ids) for a 2-D integer array: ``distinct`` holds the
    position of one row of each value, in ascending lex order of the values,
    and ``ids[i]`` the index in ``distinct`` of row i's value.  The numbering
    is ``sorted_groups``'."""
    order, first = sorted_groups(rows)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.repeat(np.arange(len(first)), np.diff(np.append(first, len(rows))))
    return order[first], ids


# Most rows that one array of a chain layout may hold: the tops, the
# candidates for one matrix row, the partial matrices after each row, and the
# steps, each counted before it is made.  A layout peaks at about 1.3 KB per
# step at n = 4, 1.5 KB at n = 5 and 2.6 KB at n = 7 over an idle run's
# 29 MB, most of it the steps as tuples ((1^7) has 150,719 steps and peaks
# at 418 MB), so a layout the cap admits stays near 0.55 GB for n <= 7.
MAX_LAYOUT_ROWS = 200_000
# Chain counts are held at this ceiling, so that a sum of at most
# MAX_LAYOUT_ROWS of them stays inside int64: over the steps of a layout,
# its tops, or its degrees, which are fewer than its tops.  No degree with
# that many chains is ever built.
CHAIN_COUNT_CEILING = INT64_MAX // MAX_LAYOUT_ROWS


class ResourceLimitError(RuntimeError):
    """A configured size cap would be exceeded; nothing was computed."""


def _check_layout_rows(lam: Composition, rows: int, what: str):
    """Raise ResourceLimitError when an array of lam's chain layout, not yet
    made, would hold more than MAX_LAYOUT_ROWS rows."""
    if rows > MAX_LAYOUT_ROWS:
        raise ResourceLimitError(
            f"the chain layout of {lam} needs {rows} {what}, exceeding the cap {MAX_LAYOUT_ROWS}"
        )


def _children(lam: Composition, counts: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(parent, offset) of every row of the next array of lam's chain
    layout, when row i of the last one has counts[i] children, numbered
    0 .. counts[i]-1.  Checked by ``_check_layout_rows`` first."""
    _check_layout_rows(lam, int(counts.sum()), what)
    return np.repeat(np.arange(len(counts)), counts), expand_ranges(np.zeros_like(counts), counts)


def _dominating_array(lam: Composition) -> np.ndarray:
    """The compositions dominating lam, lam included, as an (m, n) int64
    array in descending-lex order.

    They grow a part at a time for all prefixes at once.  Past a prefix of
    sum S, part j runs down from r - S to the least value that keeps the sum
    at lam's prefix sum P_j or above: min(r - S, r - P_j) + 1 values.  The
    first part alone takes r - lam_1 + 1, so the counts do not grow with a
    shift of lam's first part.
    """
    r = sum(lam)
    _check_degree(r)
    parts = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for floor in accumulate(lam):
        parent, offset = _children(lam, np.minimum(r - sums, r - floor) + 1, "tops")
        part = (r - sums)[parent] - offset
        parts = np.concatenate((parts[parent], part[:, None]), axis=1)
        sums = sums[parent] + part
    return parts


@lru_cache(maxsize=None)
def _budget_table(parts: int, most: int) -> np.ndarray:
    """The compositions of 0, 1, ..., most into ``parts`` parts, by total and
    each total's in descending-lex order, as one read-only (C(most + parts,
    parts), parts) int64 array.  Its first C(m + parts, parts) rows are
    those of total at most m."""
    rows = [c for total in range(most + 1) for c in _compositions_bounded(total, (total,) * parts)]
    table = np.array(rows, dtype=np.int64).reshape(len(rows), parts)
    table.flags.writeable = False
    return table


def _step_array(lam: Composition, tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(matrices, owner): the upper triangular matrices with the row sums of
    a top and column sums that dominate lam, as an (m, n, n) int64 array,
    and the index of each one's top.  They come top by top, each top's in
    descending-lex order, so each top's first is its diagonal matrix.

    The column sums dominate lam when, for each j, the mass that rows up to
    j send past column j is at most e_j, the excess of the top's prefix sum
    over lam's.  The matrices grow a row at a time, for all tops at once,
    and row s settles that test for column s: a partial matrix whose earlier
    rows send c past column s takes the rows that send m <= e_s - c past it
    and keep alpha_s - m on the diagonal.  By m ascending, those candidates
    are a prefix of ``_budget_table``, whose length is a binomial, so every
    array is counted before it is made.  A partial matrix with c > e_s has
    none and ends there.  Adding p^d to the first parts of lam and its tops
    changes no e_j, so it changes none of the counts.
    """
    n = len(lam)
    excess = np.cumsum(tops, axis=1) - np.cumsum(lam)
    matrices = np.zeros((len(tops), n, n), dtype=np.int64)
    owner = np.arange(len(tops))
    for s in range(n):
        width = n - s - 1
        crossing = matrices[:, :s, s + 1 :].sum(axis=(1, 2))
        budget = np.minimum(tops[owner, s], excess[owner, s] - crossing)
        # every top's diagonal partial matrix has budget >= 0
        most = int(budget.max())
        _check_layout_rows(lam, comb(most + width, width), "candidates for one row")
        table = _budget_table(width, most)
        mass = table.sum(axis=1)
        parent, pick = _children(lam, np.searchsorted(mass, budget, side="right"), "partial steps")
        matrices, owner = matrices[parent], owner[parent]
        matrices[:, s, s] = tops[owner, s] - mass[pick]
        matrices[:, s, s + 1 :] = table[pick]
    return matrices, owner


class ChainSpace:
    """Chains (w_1, ..., w_k) of upper-triangular non-diagonal weight matrices
    linking a top weight down to a fixed bottom weight lam:

        alpha = rowsums(w_1), colsums(w_i) = rowsums(w_{i+1}), colsums(w_k) = lam.

    The chain resolution of lam has one degree-k summand per length-k chain
    from one of ``tops``: lam itself (the empty chain), then the weights
    strictly dominating it.  The steps are numbered: ``steps[s]`` is the
    matrix of step s, the steps out of ``tops[t]`` are the ids
    ``first[t]:first[t+1]`` in descending-lex order, and ``step_target[s]``
    is the index of the top that step s reaches.  Only steps whose column
    sum still dominates lam are kept: no other step reaches lam.

    ``profiles[t, k]`` counts the length-k chains from ``tops[t]``, which
    gives both the counts used for cheap resource estimates and the
    resolution length.  The chains of degree k are listed top by top, in
    ``tops`` order (the block of top t starts at ``starts[k, t]``), and
    within a top by first step, then by the chain that follows it;
    ``layer(k)`` holds them as rows of step ids.  So a chain's
    index in its top's block is the sum over its steps s_j of
    ``prefix[s_j, k-1-j]``, the number of chains of that length that leave
    the same weight by an earlier step.  The chains of all degrees are
    numbered one after another, degree k from ``chain_starts[k]`` on, and
    ``chain_tops`` gives each one's top.  The numbers are int32 and held at
    its maximum; ``prefix`` has a column for each degree numbered below it,
    the only degrees that can be built.
    """

    def __init__(self, lam: Composition):
        self.lam = tuple(lam)
        self.tops = (self.lam, *enumerate_strictly_dominating(self.lam))
        self.top_index = {alpha: t for t, alpha in enumerate(self.tops)}
        matrices, owner = _step_array(self.lam, np.array(self.tops, dtype=np.int64))
        # drop each top's first matrix, its diagonal one
        blocks = np.searchsorted(owner, np.arange(len(self.tops) + 1))
        table = np.delete(matrices, blocks[:-1], axis=0)
        self.steps: list[Matrix] = [tuple(map(tuple, w)) for w in table.tolist()]
        self.first = blocks - np.arange(len(self.tops) + 1)
        targets = map(tuple, table.sum(axis=1).tolist())
        self.step_target = np.array([self.top_index[b] for b in targets], dtype=np.int64)

        counts = [np.zeros(len(self.tops), dtype=np.int64)]
        counts[0][0] = 1  # the empty chain of lam
        while counts[-1].any():
            below = _segment_sums(counts[-1][self.step_target], self.first)
            counts.append(np.minimum(below, CHAIN_COUNT_CEILING))
        self.profiles = np.stack(counts[:-1], axis=1)
        # starts[k, t]: the index in degree k of the first chain from tops[t];
        # the last column is the number of degree-k chains
        self.starts = np.zeros((self.profiles.shape[1], len(self.tops) + 1), dtype=np.int64)
        np.cumsum(self.profiles.T, axis=1, out=self.starts[:, 1:])
        # int32, as the arrows' rows are, so that searching them copies
        # nothing; held at its maximum, past which no degree is built
        totals = np.concatenate(([0], np.cumsum(np.minimum(self.starts[:, -1], INT32_MAX))))
        self.chain_starts = np.minimum(totals, INT32_MAX).astype(np.int32)
        # prefix has a column per degree that can be built, not one per
        # degree of the resolution, which may be hundreds long
        numbered = int(np.searchsorted(self.chain_starts[1:], INT32_MAX))
        below = self.profiles[self.step_target, :numbered]
        self.prefix = np.cumsum(below, axis=0) - below
        source = np.repeat(np.arange(len(self.tops)), np.diff(self.first))
        self.prefix -= self.prefix[self.first[source]]
        self._layer_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def count(self, alpha: Composition, k: int) -> int:
        """The number of length-k chains from alpha.  Raises
        ResourceLimitError for a count held at ``CHAIN_COUNT_CEILING``."""
        t = self.top_index.get(tuple(alpha))
        count = int(self.profiles[t, k]) if t is not None and 0 <= k < self.profiles.shape[1] else 0
        if count >= CHAIN_COUNT_CEILING:
            raise ResourceLimitError(f"{alpha} has at least {count} chains of length {k}")
        return count

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(chains, tails) for 0 <= k <= ``max_length()``: the degree-k chains
        as a (count, k) int32 array of step ids, and for k >= 1 the index in
        degree k-1 of each chain with its first step dropped."""
        if k not in self._layer_cache:
            if k == 0:
                chains = np.zeros((1, 0), dtype=np.int32)  # the empty chain of lam
                tails = np.zeros(0, dtype=np.int32)
            else:
                below, _ = self.layer(k - 1)
                starts = self.starts[k - 1]
                sizes = np.diff(starts)[self.step_target]
                tails = expand_ranges(starts[:-1][self.step_target], sizes).astype(np.int32)
                firsts = np.repeat(np.arange(len(self.steps), dtype=np.int32), sizes)
                chains = np.concatenate((firsts[:, None], below[tails]), axis=1)
            self._layer_cache[k] = (chains, tails)
        return self._layer_cache[k]

    def chain_tops(self, degrees: int) -> np.ndarray:
        """The top index of every chain of degrees 0 .. degrees-1, in order."""
        counts = self.profiles[:, :degrees]
        return np.repeat(np.tile(np.arange(len(counts)), degrees), counts.T.ravel())

    def chains(self, alpha: Composition, k: int) -> tuple[tuple[Matrix, ...], ...]:
        """The length-k chains from alpha as tuples of matrices."""
        t = self.top_index.get(tuple(alpha))
        if t is None or self.count(alpha, k) == 0:
            return ()
        block = self.layer(k)[0][self.starts[k, t] : self.starts[k, t + 1]]
        return tuple(tuple(map(self.steps.__getitem__, chain)) for chain in block.tolist())

    def max_length(self) -> int:
        """Largest k for which some chain exists from a top down to lam."""
        return self.profiles.shape[1] - 1


@lru_cache(maxsize=None)
def chain_space(lam: Composition) -> ChainSpace:
    return ChainSpace(lam)


# ---------------------------------------------------------------------------
# text formats: "8,3" for compositions, "1,1/0,0" for matrices,
# "1,2/2,2" for tableaux (rows of entries)


def parse_composition(text: str, n: int | None = None) -> Composition:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse composition {text!r}") from exc
    if n is not None:
        parts = pad(parts, n)
    return validate_composition(parts)


def format_composition(parts) -> str:
    return ",".join(str(x) for x in parts)


def parse_matrix(text: str) -> Matrix:
    rows = tuple(tuple(int(x) for x in row.split(",")) for row in text.split("/"))
    return validate_matrix(rows)


def parse_tableau_rows(text: str) -> list[list[int]]:
    """Entry lists of a tableau written row by row, e.g. "1,1,2/2,3"."""
    return [[int(x) for x in row.split(",")] if row else [] for row in text.split("/")]


def format_tableau(tab: Tableau) -> str:
    return "/".join(",".join(str(x) for x in row) for row in tab.rows())
