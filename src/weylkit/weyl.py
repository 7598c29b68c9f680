"""Exact weight-space models of Weyl modules and their simple heads.

A Weyl module of highest weight mu is realised as the quotient of the
divided-power module D(mu) by the span of the box relations: for each
adjacent pair of rows (i, i+1) and each 1 <= t <= mu_{i+1}, the generators
of D(mu_1, ..., mu_i + t, mu_{i+1} - t, ...) map in by splitting t boxes off
row i (coefficient-free comultiplication of divided powers) and merging them
into row i+1 (multiplication, which contributes binomial coefficients).

Everything is computed one weight at a time.  The weight-alpha slice of
D(mu) has the divided monomials as basis, indexed by matrices with column
margin mu and row margin alpha.  A slice holds them as one numpy array
(``shapes.contingency_array``) with an ascending integer key per monomial,
and finds a monomial by a key search, never through Python tuples.  The
relations are stored sparse, as a ``linalg.SparseMod`` built in bulk with
numpy: each monomial, together with every nonzero vector of boxes moved
back out of its column i+1, names one generator that reaches it.  The
semistandard tableaux of weight alpha, found among the monomials by
``shapes.sst_indices``, survive as a basis of the quotient.  With their
columns numbered first, ``linalg._pivots`` finds one pivot row per other
monomial and stops there, and back-substitution writes every monomial in
semistandard coordinates: its normal form, the straightening map.  The
relations the elimination never read are certified rather than reduced:
each must vanish on the normal form.  The pivot rows span the kernel of
the normal form, a complement of the semistandard span, so this holds
exactly when the relations span that kernel, which is what a full
Gauss-Jordan elimination would check.  Every slice is built by one
body that generates the relations of several slices in one numpy pass
(``_box_relations``): ``build_weight_space`` is its memoised one-slice
case, and ``build_weight_spaces``, which the Hom oracle reads, builds the
slices it is missing together.  The action of xi_w between two slices
(``act_matrix``) looks up the product terms of all its columns in one key
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .fparith import binom_array, binom_mod, check_prime
from .linalg import SparseMod, _pivots, rref_mod
from .schur import _xi_states
from .shapes import (
    Composition,
    Matrix,
    Tableau,
    _check_weight,
    _compositions_bounded,
    contingency_array,
    decode_matrices,
    enumerate_compositions,
    kostka,
    margin1,
    margin2,
    sst_indices,
    transpose_matrix,
    validate_matrix,
    validate_partition,
)


@dataclass(frozen=True, eq=False)
class WeightSpaceModel:
    """The weight-alpha slice of the Weyl module of highest weight mu over F_p.

    ``array`` holds the divided-monomial basis of the ambient slice of
    D(mu), ``shapes.contingency_array(alpha, mu)``, and ``keys`` an
    ascending integer key per monomial (``_monomial_keys``), so that a
    monomial is found by ``np.searchsorted``; ``sst`` lists the
    semistandard tableaux of this weight; ``normal_form`` maps monomial
    coordinates to semistandard coordinates (one row per monomial).
    """

    mu: Composition
    alpha: Composition
    p: int
    array: np.ndarray
    keys: np.ndarray
    sst: tuple[Tableau, ...]
    relation_rank: int
    normal_form: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.sst)

    @property
    def monomials(self) -> tuple[Matrix, ...]:
        """The monomials as matrices, decoded from ``array`` on each call."""
        return decode_matrices(self.array)

    def monomial_class(self, w: Matrix) -> np.ndarray:
        """Semistandard coordinates of the class of the divided monomial w."""
        w = validate_matrix(w, len(self.mu))
        if margin2(w) != self.alpha or margin1(w) != self.mu:
            raise KeyError(f"{w} is not a monomial of weight {self.alpha} in D({self.mu})")
        return self.normal_form[_positions(self.keys, np.array([w]), sum(self.mu))[0]]


@lru_cache(maxsize=None)
def _key_digits(n: int, total: int) -> tuple[np.ndarray, int]:
    """(place, span) for keying n x n matrices of known margins and the
    given total.  Such a matrix is fixed by its block without the last row
    and column, and two of them compare in lex order as those blocks do, so
    the block's digits in radix total + 1 (``place`` holds their weights,
    highest first) give a value below ``span`` in that order.  The dtype is
    int64 while ``span`` fits, and Python ints (object) beyond."""
    radix, width = total + 1, (n - 1) ** 2
    span = radix**width
    dtype = np.int64 if span < 2**63 else object
    place = np.array([radix**k for k in range(width - 1, -1, -1)], dtype=dtype)
    place.flags.writeable = False
    return place, span


def _monomial_keys(ws: np.ndarray, total: int) -> np.ndarray:
    """A key per matrix of the (k, n, n) array ``ws``, all with one pair of
    margins and the given total: the block value counted down, so that the
    descending-lex monomials of a slice get ascending keys."""
    place, span = _key_digits(ws.shape[1], total)
    block = ws[:, :-1, :-1].reshape(len(ws), place.size)
    return (span - 1) - (block if place.dtype == np.int64 else block.astype(object)) @ place


def _positions(keys: np.ndarray, ws: np.ndarray, total: int) -> np.ndarray:
    """The index of each matrix of the (k, n, n) array ``ws`` among the
    monomials of a slice of total ``total`` whose keys are ``keys``.  The
    matrices must have the slice's margins, which the key alone does not
    check; a KeyError if one of them is still not a monomial there."""
    wanted = _monomial_keys(ws, total)
    found = np.searchsorted(keys, wanted)
    hit = keys.take(found, mode="clip") == wanted if len(keys) else np.zeros(len(ws), dtype=bool)
    if not hit.all():
        raise KeyError(f"{decode_matrices(ws[~hit][:1])[0]} is not a monomial of the slice")
    return found


def _sub_vectors(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, v): every nonzero v with 0 <= v <= c[owner], for each row of c.

    The vectors below a row are numbered in mixed radix c + 1 and decoded
    digit by digit, so nothing is enumerated in Python.
    """
    radix = c.astype(np.int64) + 1
    counts = radix.prod(axis=1) - 1  # k = 0, the zero vector, left out
    owner = np.repeat(np.arange(len(c)), counts)
    k = np.arange(1, owner.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    radix = radix[owner]
    v = np.empty_like(radix)
    for s in range(c.shape[1] - 1, -1, -1):
        k, v[:, s] = np.divmod(k, radix[:, s])
    return owner, v


def _check_slice(mu, alpha, p: int) -> tuple[Composition, Composition]:
    check_prime(p)
    return _check_weight(mu, alpha)


def _box_relations(slices: list[tuple[Composition, Composition]], p: int) -> list[SparseMod]:
    """Images of the box-relation generators in the monomial basis of each
    (mu, alpha) of several weight slices, all with n rows, generated in one
    pass over all their monomials.

    Each slice gets a ``SparseMod`` over F_p with one row per relation
    generator, in monomial coordinates.  The rows run over the row pairs
    (i, i+1), then t, then the generators of D(..., mu_i + t, mu_{i+1} - t,
    ...) in descending lex order.

    The generator rho reaches the monomial w when w is rho with some v,
    |v| = t, moved from column i to column i+1, with coefficient
    prod_s C(w[s][i+1], v_s).  So the nonzero v <= column i+1 of w list
    every (generator, image) pair once, read off the monomials in bulk.

    The slice leads every generator's key, so one ``np.unique`` numbers the
    generators of all slices, each slice's in a block of its own.
    """
    n = len(slices[0][0])
    if any(len(mu) != n for mu, _ in slices):
        raise ValueError("the slices of one pass must have one number of rows")
    cubes = [contingency_array(alpha, mu) for mu, alpha in slices]
    sizes = [len(cube) for cube in cubes]
    if n < 2:
        return [SparseMod.from_entries((0, m), [], [], [], p) for m in sizes]
    cube = np.concatenate(cubes)
    m, total = len(cube), max(sum(mu) for mu, _ in slices)
    # one row per (monomial w, row pair i): column i+1 of w, as w[s][i+1]
    col_next = cube[:, :, 1:].transpose(0, 2, 1).reshape(m * (n - 1), n)
    owner, moved = _sub_vectors(col_next)
    w, i = np.divmod(owner, n - 1)
    # column i+1 of w holds at most mu[1] boxes
    top = max(mu[1] for mu, _ in slices)
    factors = binom_array(col_next[owner], moved, p)
    coeff = factors[:, 0]
    for k in range(1, n):
        coeff = coeff * factors[:, k] % p
    # One integer key numbers the generators in (slice, i, t, rho
    # descending) order: the slice, i and t lead, then rho's block value
    # (``_key_digits``) counted down.
    place, span = _key_digits(n, total)
    dtype = np.int64 if len(slices) * (n - 1) * (top + 1) * span < 2**63 else object
    place = place.astype(dtype).reshape(n - 1, n - 1)
    # rho is w with v moved back from column i+1 to column i
    step = place.T - np.vstack([place.T[1:], np.zeros((1, n - 1), dtype=dtype)])
    rho = cube[:, :-1, :-1].reshape(m, place.size).astype(dtype) @ place.ravel()
    rho = rho[w] + (moved[:, :-1] * step[i]).sum(axis=1)
    prefix = (np.repeat(np.arange(len(slices)), sizes)[w] * (n - 1) + i) * (top + 1) + moved.sum(axis=1)
    distinct, rows = np.unique(prefix.astype(dtype) * span + (span - 1 - rho), return_inverse=True)
    first = (distinct // (span * (n - 1) * (top + 1))).astype(np.int64)  # the slice of each generator
    row_start = np.searchsorted(first, np.arange(len(slices) + 1))
    mon_start = np.cumsum([0] + sizes)
    keep = coeff != 0
    rows, w, coeff = rows[keep], w[keep], coeff[keep]
    order = np.argsort(rows * m + w)  # row-major, as a SparseMod stores them
    rows, w, coeff = rows[order], w[order], coeff[order]
    bounds = np.searchsorted(rows, row_start).tolist()
    out = []
    for k in range(len(slices)):
        a, b = bounds[k], bounds[k + 1]
        entries = (rows[a:b] - row_start[k], w[a:b] - mon_start[k], coeff[a:b])
        for arr in entries:
            arr.flags.writeable = False
        out.append(SparseMod((int(row_start[k + 1] - row_start[k]), sizes[k]), *entries))
    return out


def _frozen(x):
    # lists (of lists) as tuples (of tuples), so they can be hashed
    return tuple(map(_frozen, x)) if isinstance(x, (list, tuple)) else x


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: None
    currsize: int


def _memo_on_tuples(fn):
    """An unbounded memo for a function of (x, y, p) that also accepts
    lists: a composition x or y becomes a tuple, and a weight matrix a tuple
    of row tuples, before the lookup.  The returned function has
    ``cache_info`` and ``cache_clear`` as an ``lru_cache`` does, and
    ``memo``, the {(x, y, p): value} dict itself."""
    memo: dict = {}
    stats = [0, 0]  # hits, misses

    @wraps(fn)
    def call(x, y, p: int):
        try:
            value = memo.get((x, y, p), memo)
        except TypeError:  # a list somewhere in x or y
            x, y = _frozen(x), _frozen(y)
            value = memo.get((x, y, p), memo)
        if value is not memo:
            stats[0] += 1
            return value
        stats[1] += 1
        value = memo[x, y, p] = fn(x, y, p)
        return value

    def cache_clear():
        memo.clear()
        stats[:] = [0, 0]

    call.cache_info = lambda: CacheInfo(stats[0], stats[1], None, len(memo))
    call.cache_clear = cache_clear
    call.memo = memo
    return call


def _normal_form(relations: SparseMod, sst_cols: list[int], p: int, label: str) -> np.ndarray:
    """The straightening map of a weight slice with m monomials: one row of
    semistandard coordinates per monomial, the s semistandard tableaux
    being the monomials at ``sst_cols``.

    The SST columns are numbered first, so ``linalg._pivots`` (highest
    column first) pivots on one of them only for a relation on SST columns
    alone.  One row per leading column goes first, each a new pivot with
    nothing to reduce, and the elimination stops at m - s pivots.
    Back-substitution in ascending pivot order then writes each other
    monomial in SST coordinates.

    The rows the elimination never reached are certified instead: every
    relation row r must satisfy r @ normal_form = 0.  The m - s pivot rows
    span a space P with P + span(SST) = F_p^m, and P is the kernel of the
    normal form, so that check says the relation space is exactly P, as a
    full Gauss-Jordan elimination would.  An AssertionError naming the
    slice by ``label`` says which way the tableaux fail to be a basis.
    """
    m, s = relations.shape[1], len(sst_cols)

    def violated(found: str) -> AssertionError:
        return AssertionError(f"SST basis violated for {label}: {found}, non-SST columns {m - s}")

    is_sst = set(sst_cols)
    new = np.empty(m, dtype=np.int64)  # the column number of each monomial
    new[sst_cols + [c for c in range(m) if c not in is_sst]] = np.arange(m)
    cols, vals = new[relations.cols].tolist(), relations.vals.tolist()
    bounds = np.searchsorted(relations.rows, np.arange(relations.shape[0] + 1)).tolist()
    spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]  # of the nonempty rows

    def rows():
        # a row whose leading column is new comes at once, a pivot with
        # nothing to reduce; the others wait until every row has been seen
        seen, rest = set(), []
        for a, b in spans:
            lead = max(cols[a:b])
            if lead in seen:
                rest.append((a, b))
            else:
                seen.add(lead)
                yield dict(zip(cols[a:b], vals[a:b]))
        for a, b in rest:
            yield dict(zip(cols[a:b], vals[a:b]))

    pivots = _pivots(rows(), p, limit=m - s)
    if min(pivots, default=s) < s:
        raise violated("a relation on SST columns alone")
    if len(pivots) < m - s:
        raise violated(f"rank {len(pivots)}")
    if not s:
        return np.zeros((m, 0), dtype=np.int64)
    # the pivot row of c says: monomial c + its lower entries = 0 in the
    # quotient, and every lower column already has its SST coordinates
    coords = [[int(j == q) for q in range(s)] for j in range(s)]
    for c in sorted(pivots):
        acc = [0] * s
        for j, v in pivots[c].items():
            if j < s:
                acc[j] += v
            elif j != c:
                acc = [a + v * x for a, x in zip(acc, coords[j])]
        coords.append([-a % p for a in acc])
    normal_form = np.array(coords, dtype=np.int64)[new]
    if spans:
        starts = [a for a, _ in spans]
        images = np.add.reduceat(relations.vals[:, None] * normal_form[relations.cols], starts)
        if (images % p).any():
            raise violated("a relation on SST columns alone")
    return normal_form


def _build_weight_spaces(slices: list[tuple[Composition, Composition]], p: int) -> list[WeightSpaceModel]:
    """The weight-alpha model of the Weyl module of shape mu at each checked
    (mu, alpha) of several slices with one number of rows, their relations
    from one ``_box_relations`` pass.  Unmemoised."""
    models = []
    for (mu, alpha), relations in zip(slices, _box_relations(slices, p)):
        array = contingency_array(alpha, mu)
        keys = _monomial_keys(array, sum(mu))
        positions = sst_indices(mu, alpha)
        normal_form = _normal_form(relations, positions.tolist(), p, f"mu={mu}, alpha={alpha}, p={p}")
        for arr in (keys, normal_form):
            arr.flags.writeable = False
        sst = tuple(map(Tableau, decode_matrices(array[positions])))
        models.append(WeightSpaceModel(mu, alpha, p, array, keys, sst, len(array) - len(sst), normal_form))
    return models


@_memo_on_tuples
def build_weight_space(mu: Composition, alpha: Composition, p: int) -> WeightSpaceModel:
    """Build (and cache) the weight-alpha model of the Weyl module of shape mu."""
    return _build_weight_spaces([_check_slice(mu, alpha, p)], p)[0]


def build_weight_spaces(slices, p: int) -> list[WeightSpaceModel]:
    """``build_weight_space`` at each (mu, alpha) of several weight slices
    with one number of rows: every slice not yet memoised is built from one
    ``_box_relations`` pass and memoised."""
    slices = [_check_slice(mu, alpha, p) for mu, alpha in slices]
    memo = build_weight_space.memo
    missing = [key for key in dict.fromkeys(slices) if (*key, p) not in memo]
    if missing:
        memo.update(((*key, p), model) for key, model in zip(missing, _build_weight_spaces(missing, p)))
    return [memo[(*key, p)] for key in slices]


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
    semistandard coordinates.

    Column j is the class of xi_w times the j-th source tableau: its
    product terms are found among the target monomials by one key search
    for all columns, and their normal-form rows are summed in one pass."""
    src = build_weight_space(mu, margin1(w), p)
    tgt = build_weight_space(mu, margin2(w), p)
    flat, coeffs, cols, starts = [], [], [], []
    for j, tab in enumerate(src.sst):
        terms = _xi_states(w, tab.counts, p)
        if terms:
            cols.append(j)
            starts.append(len(flat))
            flat.extend(terms)
            coeffs.extend(terms.values())
    out = np.zeros((tgt.dim, src.dim), dtype=np.int64)
    if flat:
        # every term has the target slice's margins
        n = len(mu)
        rows = _positions(tgt.keys, np.array(flat, dtype=np.int64).reshape(-1, n, n), sum(mu))
        images = tgt.normal_form[rows] * np.array(coeffs, dtype=np.int64)[:, None]
        out[:, cols] = np.add.reduceat(images, starts, axis=0).T % p
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
