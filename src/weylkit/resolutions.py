"""Symbolic bookkeeping for three projective resolutions of a Weyl module.

* The chain resolution B_*: degree k is a direct sum of cyclic projectives,
  one per length-k chain of upper-triangular non-diagonal weight matrices
  descending from a top weight to lam; within a degree the chain alone
  names its summand.  Differentials are stored as arrows, plain (target
  chain, step, scalar) triples (compose with the first chain step, or merge
  two adjacent steps), never as materialised algebra elements; matrices only
  appear after applying a Hom functor, where each summand collapses to a
  single weight slice.
* The hook resolution P_*(a, b) for lam = (a, 1^b): degree i is a sum of
  divided-power modules indexed by positive compositions with first part in
  [a, a+i]; the differential splits one tensor factor in two.
* The two-step box presentation that realises the Weyl module as a quotient
  of D(lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .fparith import check_prime
from .schur import xi_product_terms
from .shapes import (
    Composition,
    Matrix,
    chain_space,
    enumerate_compositions,
    is_partition,
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


def hook_splits(beta: Composition, position: int) -> list[tuple[int, int]]:
    """Positive two-part splits (u, v) of the entry of beta at ``position``."""
    total = beta[position]
    return [(u, total - u) for u in range(total - 1, 0, -1)]


# ---------------------------------------------------------------------------
# box presentation


class BoxFamily(NamedTuple):
    """One relation family of the box presentation: split t boxes off row
    i+1 of lam into row i (1-based rows i, i+1)."""

    i: int
    t: int
    source: Composition  # the divided-power module D(source) mapping in


def box_presentation(lam) -> list[BoxFamily]:
    """Generator data of the two-step presentation of the Weyl module of lam."""
    lam = validate_partition(lam)
    n = len(lam)
    families = []
    for i in range(n - 1):
        for t in range(1, lam[i + 1] + 1):
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
