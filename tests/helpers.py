"""Small helpers that only the tests read."""

import itertools
from bisect import bisect_right

import numpy as np

from weylkit.linalg import rank_mod
from weylkit.resolutions import BoxFamily
from weylkit.schur import xi_product_terms
from weylkit.shapes import (
    chain_space,
    decode_matrices,
    diagonal_matrix,
    dominates,
    enumerate_compositions,
    enumerate_partitions,
    kostka,
    plus_shift_composition,
    plus_shift_matrix,
)
from weylkit.weyl import act_matrix, build_weight_space


def is_upper_triangular(w) -> bool:
    return not np.tril(np.array(w), -1).any()


def is_lower_triangular(w) -> bool:
    return not np.triu(np.array(w), 1).any()


def upper_triangular_array(row_sums) -> np.ndarray:
    """Upper triangular matrices with the given row sums and at least one
    nonzero entry strictly above the diagonal, the row-sum fibre of the span
    usually written Lambda^1, as an (m, n, n) int64 array.

    Row s is (0,) * s followed by a composition of row_sums[s] into n - s
    parts, so the matrices are the product of the rows' choices.  Row 0
    varies slowest and each row's choices come in descending-lex order, so
    the product is descending-lex on the flattened matrix; its first element
    puts each row sum on the diagonal and is dropped.
    """
    n = len(row_sums)
    rows = [
        np.array([(0,) * s + c for c in enumerate_compositions(n - s, total)], dtype=np.int64)
        for s, total in enumerate(row_sums)
    ]
    # the index grid in C order lets row 0 vary slowest, as a product does
    picks = np.indices([len(row) for row in rows]).reshape(n, -1)
    return np.stack([row[pick] for row, pick in zip(rows, picks)], axis=1)[1:]


def upper_triangular(row_sums):
    """The steps out of the weight ``row_sums`` as tuples of matrices:
    ``upper_triangular_array`` decoded, in its order."""
    return tuple(tuple(map(tuple, w)) for w in upper_triangular_array(tuple(row_sums)).tolist())


def chain_layout(lam):
    """(tops, steps, first, step_target, profiles) of the chains down to
    lam, made by product and filter: the tops are every composition of
    lam's total that dominates it, and the steps out of a top are all of
    ``upper_triangular_array``, filtered to those whose column sums still
    dominate lam.  The reference for ``shapes.ChainSpace``, which generates
    only what it keeps; its time grows with p^d on a shifted lam."""
    lam = tuple(lam)
    dominating = [a for a in enumerate_compositions(len(lam), sum(lam)) if dominates(a, lam)]
    tops = (lam, *(a for a in dominating if a != lam))
    top_index = {alpha: t for t, alpha in enumerate(tops)}
    floor = np.cumsum(lam)
    tables = []
    for alpha in tops:
        table = upper_triangular_array(alpha)
        tables.append(table[(table.sum(axis=1).cumsum(axis=1) >= floor).all(axis=1)])
    table = np.concatenate(tables)
    steps = [tuple(map(tuple, w)) for w in table.tolist()]
    first = np.concatenate(([0], np.cumsum([len(t) for t in tables])))
    step_target = np.array([top_index[tuple(b)] for b in table.sum(axis=1).tolist()], dtype=np.int64)
    counts = [np.zeros(len(tops), dtype=np.int64)]
    counts[0][0] = 1  # the empty chain of lam
    while counts[-1].any():
        below = counts[-1][step_target]
        counts.append(np.array([below[a:b].sum() for a, b in zip(first, first[1:])], dtype=np.int64))
    return tops, steps, first, step_target, np.stack(counts[:-1], axis=1)


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


def dominated_pairs(n: int, r: int):
    """The pairs (lam, mu) of partitions of r into at most n parts with mu
    dominating lam."""
    parts = enumerate_partitions(n, r)
    return [(lam, mu) for lam, mu in itertools.product(parts, parts) if dominates(mu, lam)]


def numbered_grid():
    """(lam, mu, p): the dominated pairs with n in {2, 3, 4} and r <= 6 for
    p in {2, 3}, each followed by its shifts by p^d, d in {1, 2}."""
    for n in (2, 3, 4):
        for r in range(1, 7):
            for lam, mu in dominated_pairs(n, r):
                for p in (2, 3):
                    yield lam, mu, p
                    for d in (1, 2):
                        yield plus_shift_composition(lam, d, p), plus_shift_composition(mu, d, p), p


def merge_table_by_pairs(space, p: int, degrees: int):
    """``resolutions._merge_table`` made pair by pair: ``xi_product_terms``
    for each step a and each live step b out of the weight a reaches, and a
    dict from matrix to step id for the merged steps.  The reference for
    the batched table."""
    steps = decode_matrices(space.steps)
    step_index = {w: s for s, w in enumerate(steps)}
    live = space.profiles[:, : degrees - 2].any(axis=1)[space.step_target].tolist()
    # per top, its live steps in order; per step, the live steps before it
    # out of its weight
    live_out = [[b for b in range(space.first[t], space.first[t + 1]) if live[b]]
                for t in range(len(space.tops))]
    live_index = np.array([sum(live[space.first[t] : b]) for t in range(len(space.tops))
                           for b in range(space.first[t], space.first[t + 1])], dtype=np.int64)
    pair_start, sizes, merged, coeffs = [], [], [], []
    for w, t in zip(steps, space.step_target.tolist()):
        pair_start.append(len(sizes))
        for b in live_out[t]:
            terms = xi_product_terms(w, steps[b], p)
            sizes.append(len(terms))
            merged.extend(step_index[m] for m, _ in terms)
            coeffs.extend(c for _, c in terms)
    indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    return (np.array(pair_start, dtype=np.int64), live_index, indptr,
            np.array(merged, dtype=np.int64), np.array(coeffs, dtype=np.int64))


def basis_elements(complex_, k: int) -> list[tuple[tuple, tuple]]:
    """Flat degree-k basis of a Weyl-target chain complex as (chain,
    tableau counts) pairs, in basis order, spelled out in tuples: each
    summand's chain is its row of step ids decoded from
    ``ChainSpace.steps``, and its slice has the semistandard tableaux of its
    top as basis, read off the slice's model."""
    space = chain_space(complex_.lam)
    chains = space.layer(k)[0]
    starts = space.starts[k].tolist()  # a chain's top is the block it falls in
    mu, p = complex_.mu, complex_.p
    return [
        (decode_matrices(space.steps[chains[index]]), t.counts)
        for index in complex_.summands[k].tolist()
        for t in build_weight_space(mu, space.tops[bisect_right(starts, index) - 1], p).sst
    ]


def tuple_bases_match(here, there, d: int) -> bool:
    """Whether ``here``'s basis in every degree both complexes store, each
    step and tableau with p^d added at (1,1), is ``there``'s element for
    element, with both spelled out by ``basis_elements``."""
    p = here.p
    for k in range(min(here.stored_degrees(), there.stored_degrees())):
        shifted = [
            (tuple(plus_shift_matrix(w, d, p) for w in chain), plus_shift_matrix(counts, d, p))
            for chain, counts in basis_elements(here, k)
        ]
        if shifted != basis_elements(there, k):
            return False
    return True


def every_t_families(lam) -> list[BoxFamily]:
    """The box presentation of lam with a family for every 1 <= t <=
    lam_{i+1}, in ``resolutions.box_presentation``'s order: the full
    presentation over the integers, whose relations the p-power families
    span over F_p."""
    lam = tuple(lam)
    return [BoxFamily(i + 1, t, lam[:i] + (lam[i] + t, lam[i + 1] - t) + lam[i + 2:])
            for i in range(len(lam) - 1) for t in range(1, lam[i + 1] + 1)]


def box_rho(lam, family: BoxFamily):
    """diag(lam) with t moved from (i+1, i+1) to (i, i+1): xi of it maps the
    weight-lam slice to the family's source slice."""
    rho = [list(row) for row in diagonal_matrix(tuple(lam))]
    rho[family.i - 1][family.i] = family.t
    rho[family.i][family.i] -= family.t
    return tuple(map(tuple, rho))


def hom_dim_oracle_every_t(lam, mu, p: int) -> int:
    """``ext.hom_dim_oracle`` with every family of ``every_t_families``, one
    act_matrix per family, and no cap: the vectors of the weight-lam slice
    of Weyl(mu) killed by every E_i^(t), t <= lam_{i+1}.  lam and mu are
    partitions of one length."""
    if not kostka(mu, lam):
        return 0
    model = build_weight_space(tuple(mu), tuple(lam), p)
    families = every_t_families(lam)
    if not families:
        return model.dim
    stacked = np.vstack([act_matrix(box_rho(lam, family), tuple(mu), p) for family in families])
    return model.dim - rank_mod(stacked, p)
