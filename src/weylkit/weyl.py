"""Exact weight-space models of Weyl modules and their simple heads.

A Weyl module of highest weight mu is realised as the quotient of the
divided-power module D(mu) by the span of the box relations: for each
adjacent pair of rows (i, i+1) and each 1 <= t <= mu_{i+1}, the generators
of D(mu_1, ..., mu_i + t, mu_{i+1} - t, ...) map in by splitting t boxes off
row i (coefficient-free comultiplication of divided powers) and merging them
into row i+1 (multiplication, which contributes binomial coefficients).

Everything is computed one weight at a time.  The weight-alpha slice of
D(mu) has the divided monomials as basis, indexed by matrices with column
margin mu and row margin alpha.  The relations are stored sparse, as a
``linalg.SparseMod`` built in bulk with numpy: each monomial, together with
every nonzero vector of boxes moved back out of its column i+1, names one
generator that reaches it.  The semistandard tableaux of weight alpha
survive as a basis of the quotient, so sparse elimination that pivots only
on the other monomials leaves one row per other monomial holding
semistandard columns alone: its normal form, the straightening map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .fparith import binom_mod, binom_table, check_prime
from .linalg import SparseMod, rref_mod
from .schur import xi_product_terms
from .shapes import (
    Composition,
    Matrix,
    Tableau,
    _compositions_bounded,
    enumerate_compositions,
    enumerate_omega,
    enumerate_sst,
    kostka,
    margin1,
    margin2,
    transpose_matrix,
    validate_composition,
    validate_partition,
)


@dataclass(frozen=True, eq=False)
class WeightSpaceModel:
    """The weight-alpha slice of the Weyl module of highest weight mu over F_p.

    ``monomials`` lists the divided-monomial basis of the ambient slice of
    D(mu); ``sst`` the semistandard tableaux of this weight; ``normal_form``
    maps monomial coordinates to semistandard coordinates (one row per
    monomial).
    """

    mu: Composition
    alpha: Composition
    p: int
    monomials: tuple[Matrix, ...]
    sst: tuple[Tableau, ...]
    relation_rank: int
    normal_form: np.ndarray
    index: dict[Matrix, int]

    @property
    def dim(self) -> int:
        return len(self.sst)

    def monomial_class(self, w: Matrix) -> np.ndarray:
        """Semistandard coordinates of the class of the divided monomial w."""
        return self.normal_form[self.index[w]]


def _sub_vectors(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, v): every nonzero v with 0 <= v <= c[owner], for each row of c.

    The vectors below a row are numbered in mixed radix c + 1 and decoded
    digit by digit, so nothing is enumerated in Python.
    """
    radix = c + 1
    stride = np.ones_like(radix)
    for s in range(c.shape[1] - 2, -1, -1):
        stride[:, s] = stride[:, s + 1] * radix[:, s + 1]
    counts = stride[:, 0] * radix[:, 0]
    owner = np.repeat(np.arange(len(c)), counts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    owner, k = owner[k > 0], k[k > 0]  # k = 0 is the zero vector
    return owner, k[:, None] // stride[owner] % radix[owner]


def _distinct_rows(keys: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of distinct rows, rank of each row among them in lex order)
    of a nonnegative integer array.

    Each row is compared as one byte string: in big-endian order the bytes
    of nonnegative ints sort as the ints do, and nothing can overflow.
    """
    rows = np.ascontiguousarray(keys, dtype=">i8")
    strings = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    distinct, ids = np.unique(strings, return_inverse=True)
    return len(distinct), ids


def box_relation_vectors(mu, alpha, p: int) -> tuple[tuple[Matrix, ...], SparseMod]:
    """Images of the box-relation generators in the weight-alpha monomial basis.

    Returns (monomials, relations) where relations is a ``SparseMod`` over
    F_p with one row per relation generator, in monomial coordinates.  The
    rows run over the row pairs (i, i+1), then t, then the generators of
    D(..., mu_i + t, mu_{i+1} - t, ...) in descending lex order.

    The generator rho reaches the monomial w when w is rho with some v,
    |v| = t, moved from column i to column i+1, with coefficient
    prod_s C(w[s][i+1], v_s).  So the nonzero v <= column i+1 of w list
    every (generator, image) pair once, read off the monomials in bulk.
    """
    mu = validate_partition(mu)
    alpha = validate_composition(alpha, n=len(mu), r=sum(mu))
    check_prime(p)
    n = len(mu)
    monomials = tuple(enumerate_omega(alpha, mu))
    m = len(monomials)
    if n < 2:
        return monomials, SparseMod.from_entries((0, m), [], [], [], p)
    cube = np.array(monomials, dtype=np.int64).reshape(m, n, n)
    # one row per (monomial w, row pair i): column i+1 of w, as w[s][i+1]
    col_next = cube[:, :, 1:].transpose(0, 2, 1).reshape(m * (n - 1), n)
    owner, moved = _sub_vectors(col_next)
    w, i = np.divmod(owner, n - 1)
    rho = cube[w]
    e, s = np.arange(w.size)[:, None], np.arange(n)
    rho[e, s, i[:, None]] += moved
    rho[e, s, i[:, None] + 1] -= moved
    binom, top = binom_table(p), mu[1]  # column i+1 holds at most mu[1] boxes
    dense = np.array([[binom[a, b] for b in range(top + 1)] for a in range(top + 1)], dtype=np.int64)
    factors = dense[col_next[owner], moved]
    coeff = factors[:, 0]
    for k in range(1, n):
        coeff = coeff * factors[:, k] % p
    # number the generators in (i, t, rho descending) order
    keys = np.column_stack([i, moved.sum(axis=1), sum(mu) - rho.reshape(w.size, n * n)])
    generators, rows = _distinct_rows(keys)
    relations = SparseMod.from_entries((generators, m), rows, w, coeff, p)
    return monomials, relations


def _frozen(x):
    # lists (of lists) as tuples (of tuples), so they can be hashed
    return tuple(map(_frozen, x)) if isinstance(x, (list, tuple)) else x


def _memo_on_tuples(fn):
    """``lru_cache`` for a function of (x, y, p) that also accepts lists: a
    composition x or y becomes a tuple, and a weight matrix a tuple of row
    tuples, before the cache lookup.  The returned function keeps the
    cache's ``cache_info``."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(x, y, p: int):
        try:
            hash((x, y))
        except TypeError:  # a list somewhere in x or y
            x, y = _frozen(x), _frozen(y)
        return cached(x, y, p)

    call.cache_info = cached.cache_info
    return call


def _reduce_onto(relations: SparseMod, keep: set[int], p: int) -> dict[int, dict[int, int]] | None:
    """Gauss-Jordan elimination of the relation rows that pivots only on
    columns outside ``keep``.

    Returns {pivot column: row dict}, each row free of every pivot column
    and standing for 1 at its pivot plus its entries, or None as soon as a
    relation reduces to a nonzero row on the ``keep`` columns alone.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in relations.row_dicts():
        for col in [c for c in row if c in pivots]:
            _subtract(row, row.pop(col), pivots[col], p)
        col = next((c for c in row if c not in keep), None)
        if col is None:
            if row:
                return None
            continue
        inv = pow(row.pop(col), -1, p)
        row = {c: v * inv % p for c, v in row.items()}
        for other in pivots.values():  # substitute the new pivot into the earlier rows
            if col in other:
                _subtract(other, other.pop(col), row, p)
        pivots[col] = row
    return pivots


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int):
    # row -= f * other, in place
    for c, v in other.items():
        x = (row.get(c, 0) - f * v) % p
        if x:
            row[c] = x
        else:
            row.pop(c, None)


@_memo_on_tuples
def build_weight_space(mu: Composition, alpha: Composition, p: int) -> WeightSpaceModel:
    """Build (and cache) the weight-alpha model of the Weyl module of shape mu."""
    monomials, relations = box_relation_vectors(mu, alpha, p)
    sst = enumerate_sst(mu, alpha)
    index = {w: i for i, w in enumerate(monomials)}
    sst_pos = {index[t.to_matrix()]: j for j, t in enumerate(sst)}
    pivots = _reduce_onto(relations, set(sst_pos), p)
    others = len(monomials) - len(sst)
    if pivots is None or len(pivots) != others:
        found = "a relation on SST columns alone" if pivots is None else f"rank {len(pivots)}"
        raise AssertionError(
            f"SST basis violated for mu={mu}, alpha={alpha}, p={p}: "
            f"{found}, non-SST columns {others}"
        )
    # the pivot row of col says: monomial(col) + its SST entries = 0 in the quotient
    normal_form = np.zeros((len(monomials), len(sst)), dtype=np.int64)
    normal_form[list(sst_pos), list(sst_pos.values())] = 1
    for col, row in pivots.items():
        for c, v in row.items():
            normal_form[col, sst_pos[c]] = -v % p
    normal_form.flags.writeable = False
    return WeightSpaceModel(mu, alpha, p, monomials, sst, others, normal_form, index)


def straighten(tab: Tableau, p: int, mu=None) -> np.ndarray:
    """Semistandard coordinates of the class of a tableau in its Weyl module.

    The shape is read off the tableau unless given explicitly; the weight is
    always read off the tableau.  The result has one entry per semistandard
    tableau of that shape and weight.
    """
    shape = tuple(mu) if mu is not None else tab.shape
    if tab.shape != shape:
        raise ValueError(f"tableau has shape {tab.shape}, expected {shape}")
    model = build_weight_space(shape, tab.weight, p)
    return model.monomial_class(tab.to_matrix())


def two_row_straighten(tab: Tableau, mu, p: int) -> np.ndarray:
    """Straighten a two-row tableau by the closed-form exchange expansion.

    If the multiplicities of the entry 1 in the two rows sum to more than
    mu_1 the class is zero.  Otherwise all 1s move to the top row: the b_1
    bottom 1s are exchanged against i_2 + ... + i_n = b_1 top entries, each
    term weighted by (-1)^{b_1} prod_s C(b_s + i_s, b_s).  The coefficients
    do not depend on a_1.  Terms that are still not semistandard (the
    expansion only normalises the entry 1) are resolved against the relation
    span.
    """
    mu = validate_partition(mu)
    if len([m for m in mu if m > 0]) > 2:
        raise ValueError(f"{mu} has more than two rows")
    if tab.shape != mu:
        raise ValueError(f"tableau has shape {tab.shape}, expected {mu}")
    n = tab.n
    a = tuple(tab.counts[s][0] for s in range(n))
    b = tuple(tab.counts[s][1] for s in range(n))
    model = build_weight_space(mu, tab.weight, p)
    out = np.zeros(model.dim, dtype=np.int64)
    if a[0] + b[0] > mu[0]:
        return out
    sign = (-1) ** b[0] % p
    for moved in _compositions_bounded(b[0], a[1:]):
        coeff = sign
        for s in range(1, n):
            coeff = coeff * binom_mod(b[s] + moved[s - 1], b[s], p) % p
        if coeff == 0:
            continue
        top = (a[0] + b[0],) + tuple(a[s] - moved[s - 1] for s in range(1, n))
        bottom = (0,) + tuple(b[s] + moved[s - 1] for s in range(1, n))
        counts = tuple(
            (top[s], bottom[s]) + (0,) * (n - 2) for s in range(n)
        )
        term = Tableau(counts)
        if term.is_semistandard():
            j = model.sst.index(term)
            out[j] = (out[j] + coeff) % p
        else:
            out = (out + coeff * model.monomial_class(term.to_matrix())) % p
    return out


# ---------------------------------------------------------------------------
# the algebra action on weight spaces


@_memo_on_tuples
def act_matrix(w: Matrix, mu: Composition, p: int) -> np.ndarray:
    """Matrix of xi_w on the Weyl module of shape mu, from the weight slice
    at the column margin of w to the slice at its row margin, in
    semistandard coordinates."""
    src = build_weight_space(mu, margin1(w), p)
    tgt = build_weight_space(mu, margin2(w), p)
    out = np.zeros((tgt.dim, src.dim), dtype=np.int64)
    for j, tab in enumerate(src.sst):
        col = np.zeros(tgt.dim, dtype=np.int64)
        for m, c in xi_product_terms(w, tab.to_matrix(), p):
            col = (col + c * tgt.monomial_class(m)) % p
        out[:, j] = col
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# contravariant form, radical, simple head


@dataclass(frozen=True, eq=False)
class GramData:
    """Gram matrix of the contravariant form on a weight slice, normalised by
    <v_mu, v_mu> = 1, together with coordinates for the quotient by its
    radical (the simple head's weight slice).

    ``projection`` is the nonzero rows of the reduced row echelon form of
    the Gram matrix: its kernel is the radical, since the Gram matrix is
    symmetric, and it is the identity on the ``pivots`` columns, so those
    basis vectors represent the quotient coordinates.
    """

    mu: Composition
    alpha: Composition
    p: int
    gram: np.ndarray
    pivots: tuple[int, ...]
    projection: np.ndarray  # quotient coords from full coords

    @property
    def radical_dim(self) -> int:
        return len(self.gram) - len(self.pivots)

    @property
    def simple_dim(self) -> int:
        return len(self.pivots)


@_memo_on_tuples
def gram_data(mu: Composition, alpha: Composition, p: int) -> GramData:
    """Gram matrix G[i, j] = coefficient of the canonical highest tableau in
    xi_{w(T_i)^t} . [T_j], plus the simple head's coordinates."""
    model = build_weight_space(mu, alpha, p)
    k = model.dim
    gram = np.zeros((k, k), dtype=np.int64)
    if k:
        top = build_weight_space(mu, mu, p)
        if top.dim != 1:
            raise AssertionError(f"highest weight slice of {mu} is not one-dimensional")
        for i, tab in enumerate(model.sst):
            gram[i, :] = act_matrix(transpose_matrix(tab.to_matrix()), mu, p)[0, :]
    if not np.array_equal(gram, gram.T):
        raise AssertionError(f"contravariant Gram matrix not symmetric for {mu}, {alpha}, p={p}")
    reduced, pivots = rref_mod(gram, p)
    projection = reduced[: len(pivots)]
    for arr in (gram, projection):
        arr.flags.writeable = False
    return GramData(mu, alpha, p, gram, tuple(pivots), projection)


def simple_dim(mu, alpha, p: int) -> int:
    """Dimension of the weight-alpha slice of the simple head (p-Kostka number)."""
    return gram_data(mu, alpha, p).simple_dim


@_memo_on_tuples
def act_matrix_simple(w: Matrix, mu: Composition, p: int) -> np.ndarray:
    """Matrix of xi_w between weight slices of the simple head of shape mu."""
    src = gram_data(mu, margin1(w), p)
    tgt = gram_data(mu, margin2(w), p)
    out = tgt.projection @ act_matrix(w, mu, p)[:, src.pivots] % p
    out.flags.writeable = False
    return out


def simple_weight_dims(mu, p: int) -> dict[Composition, int]:
    """Weight-slice dimensions of the simple head, for every weight that
    occurs in the Weyl module of shape mu."""
    mu = validate_partition(mu)
    out: dict[Composition, int] = {}
    for alpha in enumerate_compositions(len(mu), sum(mu)):
        if kostka(mu, alpha) > 0:
            out[alpha] = simple_dim(mu, alpha, p)
    return out
