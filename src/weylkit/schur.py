"""The Schur algebra in its basis of weight-matrix symbols.

Basis elements xi_w are indexed by n x n nonnegative integer matrices of
total r.  The product is

    xi_w . xi_pi = sum over 3-tensors theta with last margin w and first
    margin pi of [theta] . xi_{theta^2},

where the structure constant [theta] is a product of multinomial
coefficients taken along the middle index.  The sum is empty (product zero)
unless the column margin of w equals the row margin of pi.

The product is computed without listing the tensors.  A multinomial
telescopes into binomials of partial sums,

    [theta] = prod_{s,q} prod_t C(sum_{u<=t} theta[s][u][q], theta[s][t][q]),

so a dynamic program over the middle index t needs only the partial sum
S = sum_{u<=t} theta[.][u][.] as its state.  Slice t of theta is any
contingency matrix X with row sums column t of w and column sums row t of
pi, a row of ``shapes.contingency_array`` read flat; it moves S to S + X
and multiplies the coefficient by the binomials of that step.  Tensors
that reach the same partial sum are merged by adding their coefficients
mod p, and the final S is the term's matrix theta^2.

The program runs in two forms.  ``_xi_products`` runs it for a whole batch
of pairs at once in numpy, states as rows of (pair, S) merged by one sort
per step; the merge tables of ``resolutions`` make every product of one
chain space in one call.  ``_xi_states`` runs it for one pair in Python
dicts.  It is the reference the batched form is tested against, and the
path of the small calls (``weyl.act_matrix`` and ``xi_product_terms``),
where numpy's fixed cost per call would outweigh the work.
``enumerate_theta`` and ``structure_constant_int`` compute the same sum
tensor by tensor, as the reference for both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

import numpy as np

from .fparith import binom_array, binom_table, check_prime, multinom_mod
from .shapes import (
    Matrix,
    _check_degree,
    contingency_array,
    diagonal_matrix,
    enumerate_compositions,
    expand_ranges,
    margin1,
    margin2,
    matrix_total,
    number_rows,
    sorted_groups,
    transpose_matrix,
    validate_matrix,
)


def structure_constant_int(theta, p: int) -> int:
    """[theta] mod p: product over (s, q) of the multinomial of the middle fibre."""
    n = len(theta)
    result = 1
    for s in range(n):
        for q in range(n):
            parts = [theta[s][t][q] for t in range(n)]
            total = sum(parts)
            result = result * multinom_mod(total, parts, p) % p
            if result == 0:
                return 0
    return result


def _xi_states(w: Matrix, pi: Matrix, p: int) -> dict[tuple[int, ...], int]:
    """The terms of xi_w . xi_pi as {flattened matrix: coefficient}, zeros
    dropped, in no particular order: the dynamic program, unmemoised."""
    if margin1(w) != margin2(pi):
        return {}
    n = len(w)
    binom = binom_table(p)
    states = {(0,) * (n * n): 1}  # flattened partial sum S -> coefficient
    for t in range(n):
        options = contingency_array(tuple(row[t] for row in w), tuple(pi[t])).reshape(-1, n * n).tolist()
        merged: dict[tuple[int, ...], int] = {}
        for s, c0 in states.items():
            for x in options:
                new = tuple(map(add, s, x))
                c = c0
                for a, b in zip(new, x):  # C(S'[s][q], X[s][q]), which is 1 where X is 0
                    if b:
                        c = c * binom[a, b] % p
                merged[new] = merged.get(new, 0) + c
        states = {s: c % p for s, c in merged.items() if c % p}
    return states


def _xi_products(ws, pis, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi_{ws[i]} . xi_{pis[i]} for every i of two (k, n, n) integer arrays
    at once, as (indptr, terms, coeffs): pair i has the (m, n, n) matrices
    ``terms[indptr[i]:indptr[i+1]]`` with ``coeffs[indptr[i]:indptr[i+1]]``,
    zeros dropped, in the descending-lex order of ``xi_product_terms``.  A
    pair whose margins disagree has no terms.

    This is the dynamic program of ``_xi_states`` run for all pairs
    together, with a state as a row: its pair and its flattened partial sum
    S.  At step t each state is crossed with the options of its pair, the
    contingency matrices with row sums column t of w and column sums row t
    of pi, fetched once per distinct margin pair.  One sort then merges
    equal states.  S has fixed margins per pair and step, so its block
    without the last row and column fixes it, and lex order on S is lex
    order on that block (as for ``weyl._key_digits``): the states are
    sorted as the rows (pair, -block), which leaves each pair's terms in
    descending-lex order.
    """
    ws = np.asarray(ws, dtype=np.int64)
    pis = np.asarray(pis, dtype=np.int64)
    k, n = len(ws), ws.shape[-1]
    live = np.flatnonzero((ws.sum(axis=1) == pis.sum(axis=2)).all(axis=1))
    # the options' margins, row sums then column sums, of every step and
    # pair: one group per distinct margin row, one options list per group
    margins = np.concatenate((ws[live].transpose(2, 0, 1), pis[live].transpose(1, 0, 2)), axis=2)
    distinct, group = number_rows(margins.reshape(-1, 2 * n))
    options = [contingency_array(tuple(m[:n]), tuple(m[n:])).reshape(-1, n * n)
               for m in margins.reshape(-1, 2 * n)[distinct].tolist()]
    sizes = np.array([len(x) for x in options], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    options = np.concatenate([np.zeros((0, n * n), dtype=np.int64), *options], dtype=np.int64)
    group = group.reshape(n, len(live))
    # the states: the index in ``live`` of their pair, S, and the coefficient
    slot = np.arange(len(live))
    states = np.zeros((len(live), n * n), dtype=np.int64)
    coeffs = np.ones(len(live), dtype=np.int64)
    block = np.arange(n * n).reshape(n, n)[:-1, :-1].ravel()
    for t in range(n):
        counts = sizes[group[t, slot]]
        source = np.repeat(np.arange(len(slot)), counts)
        x = options[expand_ranges(offsets[group[t, slot]], counts)]
        slot, states, coeffs = slot[source], states[source] + x, coeffs[source]
        if not t:
            continue  # C(X, X) = 1, and one pair's options are distinct states
        # C(S'[s][q], X[s][q]), which is 1 where X is 0
        factors = np.ones(x.shape, dtype=np.int64)
        nonzero = x != 0
        factors[nonzero] = binom_array(states[nonzero], x[nonzero], p)
        for j in np.flatnonzero(nonzero.any(axis=0)).tolist():
            coeffs = coeffs * factors[:, j] % p
        slot, states, coeffs = slot[coeffs != 0], states[coeffs != 0], coeffs[coeffs != 0]
        order, first = sorted_groups(np.concatenate((slot[:, None], -states[:, block]), axis=1))
        coeffs = np.add.reduceat(coeffs[order], first) % p
        kept = order[first[coeffs != 0]]
        slot, states, coeffs = slot[kept], states[kept], coeffs[coeffs != 0]
    indptr = np.searchsorted(live[slot], np.arange(k + 1))
    return indptr, states.reshape(-1, n, n), coeffs


@lru_cache(maxsize=None)
def xi_product_terms(w: Matrix, pi: Matrix, p: int) -> tuple[tuple[Matrix, int], ...]:
    """Sparse terms of xi_w . xi_pi as ((matrix, coefficient), ...), zeros dropped.

    Memoised for ``xi_product``, ``element_product`` and
    ``resolutions.sy_arrows``, which spells out the chain arrows one chain
    at a time and meets each product of steps in many chains.  The merge
    tables of the numbered chain arrows use the batched ``_xi_products``
    instead, and ``weyl.act_matrix``, whose products seldom repeat, reads
    the unmemoised ``_xi_states``.
    """
    n = len(w)
    states = _xi_states(w, pi, p)
    # sorted on the flattened S, which is the order of the row-tuple matrices
    return tuple((tuple(zip(*[iter(s)] * n)), c) for s, c in sorted(states.items(), reverse=True))


@dataclass(frozen=True)
class SchurElement:
    """A sparse F_p linear combination of basis symbols xi_w."""

    n: int
    r: int
    p: int
    terms: tuple[tuple[Matrix, int], ...] = field(default=())

    def __post_init__(self):
        check_prime(self.p)
        cleaned: dict[Matrix, int] = {}
        for w, c in self.terms:
            w = validate_matrix(w, self.n)
            if matrix_total(w) != self.r:
                raise ValueError(f"{w} does not have total {self.r}")
            c %= self.p
            if c:
                cleaned[w] = (cleaned.get(w, 0) + c) % self.p
        object.__setattr__(
            self, "terms", tuple((w, c) for w, c in sorted(cleaned.items(), reverse=True) if c)
        )

    @classmethod
    def basis(cls, w, p: int) -> "SchurElement":
        w = validate_matrix(w)
        return cls(len(w), matrix_total(w), p, ((w, 1),))

    @classmethod
    def zero(cls, n: int, r: int, p: int) -> "SchurElement":
        return cls(n, r, p)

    def _check_context(self, other: "SchurElement"):
        if (self.n, self.r, self.p) != (other.n, other.r, other.p):
            raise ValueError("elements live in different Schur algebras")

    def __add__(self, other: "SchurElement") -> "SchurElement":
        self._check_context(other)
        return SchurElement(self.n, self.r, self.p, self.terms + other.terms)

    def __sub__(self, other: "SchurElement") -> "SchurElement":
        return self + other.scale(-1)

    def scale(self, c: int) -> "SchurElement":
        return SchurElement(self.n, self.r, self.p, tuple((w, k * c) for w, k in self.terms))

    def __mul__(self, other: "SchurElement") -> "SchurElement":
        return element_product(self, other)

    def transpose(self) -> "SchurElement":
        """Image under the anti-automorphism xi_w -> xi_{w^t}."""
        return SchurElement(
            self.n, self.r, self.p, tuple((transpose_matrix(w), c) for w, c in self.terms)
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*xi[{'/'.join(','.join(map(str, row)) for row in w)}]" for w, c in self.terms)


def xi_product(w, pi, p: int) -> SchurElement:
    """Product xi_w . xi_pi as a sparse element, coefficients mod p."""
    w = validate_matrix(w)
    pi = validate_matrix(pi, len(w))
    check_prime(p)
    n, r = len(w), matrix_total(w)
    _check_degree(r)
    return SchurElement(n, r, p, xi_product_terms(w, pi, p))


def element_product(x: SchurElement, y: SchurElement) -> SchurElement:
    """Bilinear extension of xi_product."""
    x._check_context(y)
    acc: dict[Matrix, int] = {}
    for w, a in x.terms:
        for pi, b in y.terms:
            for m, c in xi_product_terms(w, pi, x.p):
                acc[m] = (acc.get(m, 0) + a * b * c) % x.p
    return SchurElement(x.n, x.r, x.p, tuple(acc.items()))


def identity_element(n: int, r: int, p: int) -> SchurElement:
    """Sum of the diagonal idempotents over all weights: the unit of the algebra."""
    terms = tuple((diagonal_matrix(nu), 1) for nu in enumerate_compositions(n, r))
    return SchurElement(n, r, p, terms)
