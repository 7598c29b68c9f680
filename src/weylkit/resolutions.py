"""Symbolic bookkeeping for three projective resolutions of a Weyl module.

* The chain resolution B_*: degree k is a direct sum of cyclic projectives,
  one per length-k chain of upper-triangular non-diagonal weight matrices
  descending from a top weight to lam; within a degree the chain alone
  names its summand.  The differential out of a chain has one arrow that
  composes with its first step and arrows that merge two adjacent steps;
  matrices only appear after applying a Hom functor, where each summand
  collapses to a single weight slice.  ``chain_arrows`` lists the arrows of
  every degree up to a bound at once as integer arrays over the numbered
  chains of ``shapes.ChainSpace``, which holds the layout; ``sy_degree`` and
  ``sy_arrows`` spell out the same summands and arrows one chain at a time,
  in matrices.
* The hook resolution P_*(a, b) for lam = (a, 1^b): degree i is a sum of
  divided-power modules indexed by positive compositions with first part in
  [a, a+i]; the differential splits one tensor factor in two.
* The two-step box presentation over F_p, a relation family per row pair
  and power of p, that realises the Weyl module as a quotient of D(lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fparith import check_prime, p_powers
from .schur import _xi_products, xi_product_terms
from .shapes import (
    ChainSpace,
    Composition,
    Matrix,
    chain_space,
    decode_matrices,
    enumerate_compositions,
    expand_ranges,
    is_partition,
    number_rows,
    validate_partition,
)


class ChainSummand(NamedTuple):
    """One cyclic summand of degree k: the chain and its top weight."""

    top_weight: Composition
    chain: tuple[Matrix, ...]


def sy_degree(lam, k: int) -> list[ChainSummand]:
    """Summands of degree k of the chain resolution of lam."""
    lam = validate_partition(lam)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    space = chain_space(lam)
    return [ChainSummand(alpha, chain) for alpha in space.tops for chain in space.chains(alpha, k)]


def sy_arrows(chain: tuple[Matrix, ...], p: int) -> list[tuple]:
    """The differential components out of the summand of a length-k chain
    (k >= 1), as (target chain, step, scalar) triples.

    The compose arrow drops the first step; its step is that matrix, whose
    action is the induced map on Hom spaces.  A merge arrow replaces steps
    i, i+1 by the middle margin of a linking tensor, keeping the top weight;
    its step is None (an identity block) and its scalar is (-1)^i times the
    structure constant.  Degree-1 summands only have their compose arrow.
    """
    check_prime(p)
    k = len(chain)
    if k < 1:
        raise ValueError("degree-0 summand has no outgoing differential")
    arrows = [(chain[1:], chain[0], 1)]
    for i in range(1, k):
        sign = (-1) ** i
        for merged, coeff in xi_product_terms(chain[i - 1], chain[i], p):
            arrows.append((chain[: i - 1] + (merged,) + chain[i + 1 :], None, sign * coeff % p))
    return arrows


def _merge_table(space: ChainSpace, p: int, degrees: int):
    """(pair_start, live_index, indptr, merged, coeffs): the products of
    the pairs of steps that meet in a chain of degree < ``degrees``, a step
    a and a live step b out of the weight a reaches.

    A step is live when it reaches a weight with a chain of length
    <= degrees - 3 down to lam: every step after the first of a chain of
    degree < degrees is, and no other step is the second of a pair that
    meets in one.  ``live_index[b]`` counts the live steps before b out of
    its weight, which numbers the live ones from 0, and pair
    ``pair_start[a] + live_index[b]`` has the terms of xi_a . xi_b, in the
    order of ``xi_product_terms``, as merged step ids and coefficients in
    ``merged[indptr[i]:indptr[i+1]]`` and ``coeffs[...]``.  All of them are
    multiplied in one call of the batched dynamic program
    ``schur._xi_products``, and one numbering of the steps and merged
    matrices together (``shapes.number_rows``) maps the merged matrices to
    step ids.
    """
    n, steps = len(space.lam), space.steps
    live = space.profiles[:, : degrees - 2].any(axis=1)[space.step_target]
    # the live steps before each step, and before each top's first
    before = np.concatenate(([0], np.cumsum(live)))
    live_first = before[space.first]
    source = np.repeat(np.arange(len(space.tops)), np.diff(space.first))
    live_index = before[:-1] - live_first[source]
    # per step a, the number of live steps b that can follow it, and the pairs
    followers = np.diff(live_first)[space.step_target]
    pair_start = np.cumsum(followers) - followers
    a = np.repeat(np.arange(len(steps)), followers)
    b = np.flatnonzero(live)[expand_ranges(live_first[space.step_target], followers)]
    indptr, terms, coeffs = _xi_products(steps[a], steps[b], p)
    # every merged matrix is a step out of a's weight: number the steps and
    # the merged matrices together, and raise on a number held by no step
    distinct, ids = number_rows(np.concatenate((steps, terms)).reshape(-1, n * n))
    step_of = np.full(len(distinct), -1, dtype=np.int64)
    step_of[ids[: len(steps)]] = np.arange(len(steps))
    merged = step_of[ids[len(steps) :]]
    if (merged < 0).any():
        missing = terms[np.flatnonzero(merged < 0)[:1]]
        raise KeyError(f"{decode_matrices(missing)[0]} is not a step of the chains of {space.lam}")
    return pair_start, live_index, indptr, merged, coeffs


def _degree_arrows(space: ChainSpace, k: int, p: int, pair_start, live_index, indptr, merged,
                   coeffs) -> tuple[np.ndarray, ...]:
    """The arrows out of the degree-k chains, k >= 1, as ``chain_arrows``
    lists them, from the merge table of ``_merge_table``."""
    starts = space.chain_starts
    chains, tails = space.layer(k)
    n = len(chains)
    rows = starts[k] + np.arange(n)
    tops = np.repeat(np.arange(len(space.tops)), space.profiles[:, k])
    parts = [(rows, starts[k - 1] + tails, chains[:, 0], np.ones(n, dtype=np.int64))]
    if k > 1:
        # a merge at position i moves each step j < i-1 one place nearer
        # the end of a shorter chain and keeps each step j > i in place
        kept = space.prefix[chains, np.arange(k - 1, -1, -1)]
        moved = space.prefix[chains[:, : k - 1], np.arange(k - 2, -1, -1)]
        zero = np.zeros((n, 1), dtype=np.int64)
        before = np.concatenate((zero, moved.cumsum(axis=1)), axis=1)
        after = np.concatenate((kept[:, ::-1].cumsum(axis=1)[:, ::-1], zero), axis=1)
        base = starts[k - 1] + space.starts[k - 1][tops]
        for i in range(1, k):
            a, b = chains[:, i - 1], chains[:, i]
            pair = pair_start[a] + live_index[b]
            sizes = indptr[pair + 1] - indptr[pair]
            entries = expand_ranges(indptr[pair], sizes)
            source = np.repeat(np.arange(n), sizes)
            cols = (base + before[:, i - 1] + after[:, i + 1])[source]
            cols += space.prefix[merged[entries], k - 1 - i]
            keys = len(space.steps) + tops[source]
            parts.append((rows[source], cols, keys, (-1) ** i * coeffs[entries] % p))
    # int32 holds every chain number, step id and scalar (p <= 2^16)
    return tuple(np.concatenate(column, dtype=np.int32) for column in zip(*parts))


@lru_cache(maxsize=None)
def chain_arrows(lam: Composition, p: int, degrees: int) -> tuple[np.ndarray, ...]:
    """The differentials among degrees 0 .. degrees-1 (at most
    ``sy_max_degree(lam) + 1``) of the chain resolution of lam over F_p, as
    int32 arrays (rows, cols, keys, scalars) over the numbered chains of
    ``chain_space(lam)``, built once per (lam, p, degrees).

    There is one entry per arrow of ``sy_arrows`` out of the chains of
    degrees 1 .. degrees-1, degree by degree: row and col are the numbers
    (``ChainSpace.chain_starts``) of the source chain and of the target
    chain one degree lower, and the key names the block, step s for the
    compose arrow with that step and ``len(space.steps) + t`` for the
    identity on top t, which every merge arrow carries.

    The merge arrows' matrices and scalars come from one merge table
    (``_merge_table``), every product of two steps that meet in a chain of
    these degrees made in one batched call, and each degree's arrows are
    gathered from it by array indexing.
    """
    check_prime(p)
    space = chain_space(validate_partition(lam))
    table = _merge_table(space, p, degrees)
    empty = np.zeros(0, dtype=np.int32)
    parts = [(empty,) * 4] + [_degree_arrows(space, k, p, *table) for k in range(1, degrees)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def sy_max_degree(lam) -> int:
    """Largest degree with a nonzero term; beyond it the resolution is zero."""
    return chain_space(validate_partition(lam)).max_length()


# ---------------------------------------------------------------------------
# hook resolution


@dataclass(frozen=True)
class HookResolution:
    """Terms of the finite resolution of the hook (a, 1^b), by degree.

    ``terms[i]`` lists the compositions (all parts positive, first part
    between a and a+i) indexing the divided-power summands of degree i.  The
    resolution has length b.
    """

    a: int
    b: int
    terms: tuple[tuple[Composition, ...], ...]

    def degree(self, i: int) -> tuple[Composition, ...]:
        if i < 0 or i > self.b:
            return ()
        return self.terms[i]


@lru_cache(maxsize=None)
def hook_resolution(a: int, b: int) -> HookResolution:
    """The length-b resolution of the hook (a, 1^b)."""
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    terms = []
    r = a + b
    for i in range(b + 1):
        # the first part runs down from a + i to a; the rest is a positive
        # composition of r - first into b - i parts, c + 1 for the
        # compositions c of a + i - first, in the same descending-lex order
        degree_terms = ((r,),) if i == b else tuple(
            (first,) + tuple(x + 1 for x in c)
            for first in range(a + i, a - 1, -1)
            for c in enumerate_compositions(b - i, a + i - first)
        )
        for alpha in degree_terms:
            if any(x > i + 1 for x in alpha[1:]):
                raise AssertionError(f"hook term {alpha} violates the part bound at degree {i}")
        terms.append(degree_terms)
    return HookResolution(a, b, tuple(terms))


# ---------------------------------------------------------------------------
# box presentation


class BoxFamily(NamedTuple):
    """One relation family of the box presentation: split t boxes off row
    i+1 of lam into row i (1-based rows i, i+1), t a power of p."""

    i: int
    t: int
    source: Composition  # the divided-power module D(source) mapping in


def box_presentation(lam, p: int) -> list[BoxFamily]:
    """Generator data of the two-step presentation of the Weyl module of lam
    over F_p: t runs over ``fparith.p_powers(p, lam_{i+1})`` alone."""
    check_prime(p)
    lam = validate_partition(lam)
    n = len(lam)
    families = []
    for i in range(n - 1):
        for t in p_powers(p, lam[i + 1]):
            gamma = list(lam)
            gamma[i] += t
            gamma[i + 1] -= t
            families.append(BoxFamily(i + 1, t, tuple(gamma)))
    return families


def is_hook(lam) -> bool:
    """True when lam is (a, 1^b) up to trailing zeros, with a >= 1."""
    lam = tuple(lam)
    if not lam or not is_partition(lam):
        return False
    nonzero = [x for x in lam if x > 0]
    return bool(nonzero) and all(x == 1 for x in nonzero[1:])
