"""Cochain complexes of Hom spaces out of projective resolutions, their
cohomology (Ext groups), an independent Hom oracle, and the verifiers for
the degree-raising periodicity statements.

Applying Hom(-, M) to a cyclic projective summand indexed by a weight alpha
collapses it to the weight-alpha slice of M, so every differential is a
small exact matrix over F_p assembled from action matrices (compose arrows)
and scalars (merge arrows).  M is either a Weyl module or its simple head.
A build reads each action block from the memo of ``weyl``, which holds it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fparith import check_prime
from .linalg import SparseMod, complex_ranks, rank_mod
from .resolutions import (
    box_presentation,
    chain_arrows,
    hook_resolution,
    is_hook,
)
from .shapes import (
    Composition,
    Matrix,
    ResourceLimitError,
    _check_degree,
    _shifted,
    chain_space,
    contingency_array,
    dominates,
    expand_ranges,
    kostka,
    linked,
    margin2,
    pad,
    plus_shift_composition,
    plus_shift_matrix,
    validate_partition,
)
from .weyl import act_matrix, act_matrix_simple, build_weight_space, build_weight_spaces, gram_data

# Most chains, and most basis elements, that one Hom complex may hold over
# all its stored degrees, each sum counted before anything is built.  An
# ext build peaks at 0.5-0.7 KB per chain over an idle run's 34 MB
# ((1^5) -> (5): 267,998 chains, 215 MB; (6,6,3) -> (15) at p=3: 348,160
# chains, 261 MB), so a complex the cap admits stays near 0.4 GB.  A 1.1.1
# verify holds two and compares their bases: (20,20) -> (40) at d=30 to
# degree 8, 431,910 chains a side, peaks at 851 MB.  Far below INT32_MAX,
# so every stored chain has an int32 number.
MAX_COMPLEX_SIZE = 500_000
# Largest accepted max_degree, far above any resolution length: along a chain
# of length k down to lam, the top at place j dominates the j tops below it,
# and from a top there is a step down to every weight it dominates, so the
# layout has at least k(k + 1)/2 steps.  Under shapes.MAX_LAYOUT_ROWS that
# keeps k at most 631.  Degrees past the length only add zeros to ext_dims.
MAX_DEGREE = 100_000
# Most box-relation generator entries one Hom oracle call builds, over all
# the slices it requests.  A build peaks at about 165 bytes per entry over
# an idle run's 34 MB (verify 6.1 of (4,4,4,4) at p=3 reads 2.79 million on
# its shifted side and peaks at 488 MB), so a call the cap admits stays
# near 0.7 GB.
MAX_RELATION_ENTRIES = 4_000_000
# Most relation families, sum(lam[1:]), one Hom oracle call lists.  Each
# costs about 0.2 ms and 3 KB in Python before any entry is counted, and on
# a one-row mu it adds no entries: verify 6.1 of (10000,10000) -> (20000),
# two calls of 10,000 families, takes 4.2 s and peaks at 97 MB.
MAX_RELATION_FAMILIES = 10_000


class TheoremViolationError(AssertionError):
    """A verified statement's hypotheses hold but its conclusion failed.

    This signals an implementation bug, never expected mathematics; the
    offending comparison report is attached.
    """

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


@lru_cache(maxsize=None)
def _weight_dim(mu: Composition, alpha: Composition, p: int, target: str) -> int:
    """Dimension of the weight-alpha slice of M, the Weyl module of mu or its
    simple head: the dimension of Hom out of a summand with top alpha."""
    if target == "weyl":
        return kostka(mu, alpha)
    if target == "simple":
        if kostka(mu, alpha) == 0:
            return 0
        return gram_data(mu, alpha, p).simple_dim
    raise ValueError(f"unknown target {target!r}")


@dataclass(eq=False)
class HomComplex:
    """Hom(resolution of lam, M) as explicit matrices over F_p.

    ``summands[k]`` is an int array of the degree-k summands with a nonzero
    weight slice, each by its index within the degree (among the degree-k
    chains of ``chain_space(lam)``, or the hook terms), in basis order: each
    contributes its slice's coordinates, one summand after another.
    ``diffs[k]`` maps degree-k coordinates to degree-(k+1) coordinates and
    is stored sparse, as a ``SparseMod`` of shape (dims[k+1], dims[k])
    holding only its nonzero entries.  Cohomology in degree i is exact for
    all i <= report_degree.
    """

    lam: Composition
    mu: Composition
    p: int
    target: str
    report_degree: int
    natural_length: int
    summands: list[np.ndarray]
    dims: list[int]
    diffs: list[SparseMod]
    _ranks: list[int] | None = field(default=None, repr=False)

    def stored_degrees(self) -> int:
        return len(self.dims)

    def diff_ranks(self) -> list[int]:
        if self._ranks is None:
            self._ranks = complex_ranks(self.diffs, self.p)
        return self._ranks

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k < len(self.dims) else 0

    def rank(self, k: int) -> int:
        ranks = self.diff_ranks()
        return ranks[k] if 0 <= k < len(ranks) else 0

    def ext_dims(self) -> list[int]:
        return [self.dim(i) - self.rank(i) - self.rank(i - 1) for i in range(self.report_degree + 1)]

    def check_dsquare(self) -> bool:
        """True when every composite diffs[k+1] . diffs[k] is zero mod p."""
        for k in range(len(self.diffs) - 1):
            inner = self.diffs[k].row_dicts()
            for row in self.diffs[k + 1].row_dicts():
                product: defaultdict[int, int] = defaultdict(int)
                for j, v in row.items():
                    for c, w in inner[j].items():
                        product[c] += v * w
                if any(x % self.p for x in product.values()):
                    return False
        return True


def euler_check(complex_: HomComplex) -> tuple[bool, bool]:
    """(applicable, holds): alternating sums of Ext dims and of degree dims agree.

    Only applicable when the stored degrees cover the whole finite
    resolution; a truncated complex is skipped.
    """
    if complex_.stored_degrees() <= complex_.natural_length:
        return False, True
    ext_alt = sum((-1) ** i * d for i, d in enumerate(complex_.ext_dims()))
    deg_alt = sum((-1) ** k * d for k, d in enumerate(complex_.dims))
    return True, ext_alt == deg_alt


def _check_pair(lam, mu) -> tuple[Composition, Composition]:
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if len(lam) != len(mu):
        raise ValueError(f"{lam} and {mu} must have the same length")
    if sum(lam) != sum(mu):
        raise ValueError(f"{lam} and {mu} are partitions of different degrees")
    _check_degree(sum(lam))
    return lam, mu


_EMPTY = np.zeros(0, dtype=np.int64)


def _top_dims(tops, mu: Composition, p: int, target: str) -> np.ndarray:
    return np.array([_weight_dim(mu, top, p, target) for top in tops], dtype=np.int64)


def _assemble(top_dims, summand_tops, starts, arrows, steps, mu: Composition, p: int,
              target: str):
    """Lay out the bases of a Hom complex into M and collect its
    differentials' nonzero entries into one ``SparseMod`` per degree.

    The summands of all degrees are numbered one after another, degree k
    from ``starts[k]`` to ``starts[k+1]``, in basis order.  Summand i has
    top ``summand_tops[i]`` and contributes the weight slice of M
    (``target`` of ``mu``) of dimension ``top_dims[summand_tops[i]]``.
    ``arrows`` is (rows, cols, keys, scalars), ordered by the degree of
    their row: each arrow runs from summand ``rows[i]`` to summand
    ``cols[i]`` one degree lower, and its block is the action matrix of
    ``steps[key]``, or for key ``len(steps) + t`` the identity on the slice
    of top t, times its scalar.  Arrows with a zero-dimensional end are
    dropped before any block is made.  Returns (summands, dims, diffs) in
    the layout of ``HomComplex``.
    """
    rows, cols, keys, scalars = arrows
    width = top_dims[summand_tops]
    coords = np.zeros(len(width) + 1, dtype=np.int64)  # of each summand, over all degrees
    np.cumsum(width, out=coords[1:])
    bases = coords[starts].tolist()
    dims = [b - a for a, b in zip(bases, bases[1:])]
    summands = [width[a:b].nonzero()[0] for a, b in zip(starts, starts[1:])]
    live = (width[rows] * width[cols]).nonzero()[0]
    if live.size:
        # the nonzero (rows, cols, vals) of each block in use, before its scalar:
        # a step's action matrix, held in weyl's memo, or the identity on a slice
        used, slot = np.unique(keys[live], return_inverse=True)
        act = act_matrix if target == "weyl" else act_matrix_simple
        blocks = []
        for key in used.tolist():
            if key < len(steps):
                block = act(steps[key], mu, p)
                blocks.append((*block.nonzero(), block[block != 0]))
            else:
                diagonal = np.arange(top_dims[key - len(steps)])
                blocks.append((diagonal, diagonal, np.ones_like(diagonal)))
        r, c, v = map(np.concatenate, zip(*blocks))
        sizes = np.array([len(block[0]) for block in blocks], dtype=np.int64)
        firsts = np.cumsum(sizes) - sizes
    diffs = []
    # the arrows into degree k+1 make diffs[k]
    cuts = rows[live].searchsorted(starts[1:]).tolist()
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        # one degree at a time, which bounds the memory the entries take
        if a == b:
            diffs.append(SparseMod.from_entries((dims[k + 1], dims[k]), _EMPTY, _EMPTY, _EMPTY, p))
            continue
        counts = sizes[slot[a:b]]
        entries = expand_ranges(firsts[slot[a:b]], counts)
        arrow = np.repeat(live[a:b], counts)
        diffs.append(SparseMod.from_entries(
            (dims[k + 1], dims[k]),
            r[entries] + (coords[rows[arrow]] - bases[k + 1]),
            c[entries] + (coords[cols[arrow]] - bases[k]),
            v[entries] * scalars[arrow],
            p,
        ))
    return summands, dims, diffs


def _plan(lam: Composition, mu: Composition, p: int, target: str, max_degree):
    """The checks a chain-resolution Hom complex of a checked pair passes
    before anything is built, and its size from chain counts alone.

    Returns (report, natural, totals, top_dims): the last reported degree,
    the resolution length, the basis dimension of every stored degree
    (0 .. min(natural, report + 1)), and the slice dimension of every top
    of ``chain_space(lam)``.  When mu does not dominate lam, every top
    weight dominates lam, so no weight slice of M survives: one zero degree
    is stored, the length counts as 0 and top_dims is None.  Raises
    ResourceLimitError when the stored degrees together hold more than
    ``MAX_COMPLEX_SIZE`` chains or basis elements (raw chains count too,
    since even zero-dimensional summands cost their enumeration); below
    that bound every stored chain has an int32 number.  The chain layout
    refuses itself past ``shapes.MAX_LAYOUT_ROWS``.
    """
    check_prime(p)
    if max_degree is not None and not 0 <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max_degree must lie in [0, {MAX_DEGREE}], got {max_degree}")
    if not dominates(mu, lam):
        return 0 if max_degree is None else max_degree, 0, [0], None

    space = chain_space(lam)
    natural = space.max_length()
    report = natural if max_degree is None else max_degree
    counts = space.profiles[:, : min(natural, report + 1) + 1]
    top_dims = _top_dims(space.tops, mu, p, target)
    # sizes as Python ints: a chain count may be near the ceiling
    chains = sum(counts.sum(axis=0).tolist())
    totals = (top_dims.astype(object) @ counts).tolist()
    if max(chains, sum(totals)) > MAX_COMPLEX_SIZE:
        raise ResourceLimitError(
            f"degrees 0 to {len(totals) - 1} need {chains} chains and {sum(totals)} basis "
            f"elements, exceeding the cap {MAX_COMPLEX_SIZE}"
        )
    return report, natural, totals, top_dims


def build_hom_complex(
    lam,
    mu,
    p: int,
    target: str = "weyl",
    max_degree: int | None = None,
) -> HomComplex:
    """Hom(chain resolution of lam, M) with M the Weyl module of mu
    (target="weyl") or its simple head (target="simple")."""
    lam, mu = _check_pair(lam, mu)
    report, natural, totals, top_dims = _plan(lam, mu, p, target, max_degree)
    if top_dims is None:
        return HomComplex(lam, mu, p, target, report, 0, [_EMPTY], [0], [])
    space = chain_space(lam)
    degrees = len(totals)
    summands, dims, diffs = _assemble(
        top_dims,
        space.chain_tops(degrees),
        space.chain_starts[: degrees + 1],
        chain_arrows(lam, p, degrees),
        space.steps,
        mu,
        p,
        target,
    )
    return HomComplex(lam, mu, p, target, report, natural, summands, dims, diffs)


def compute_ext(
    lam,
    mu,
    p: int,
    target: str = "weyl",
    max_degree: int | None = None,
) -> tuple[list[int], bool | None]:
    """Ext dims of (lam, M) as ``build_hom_complex`` gives them, with the
    Euler check's verdict (None when it does not apply, see ``euler_check``).

    An unlinked pair (``shapes.linked``) has zero Ext in every degree by the
    linkage principle, so its list is returned after the checks and the size
    caps of a full build, with no chain enumerated and no rank taken.  Its
    Euler check is then that the alternating sum of the per-degree basis
    dimensions, counted for the caps, is 0.  The oracles (the periodicity
    verifiers, the Hom oracle, the hook cross-check) never take this path.
    """
    lam, mu = _check_pair(lam, mu)
    check_prime(p)
    if linked(lam, mu, p):
        complex_ = build_hom_complex(lam, mu, p, target, max_degree)
        applicable, holds = euler_check(complex_)
        return complex_.ext_dims(), holds if applicable else None
    report, natural, totals, _ = _plan(lam, mu, p, target, max_degree)
    holds = sum((-1) ** k * d for k, d in enumerate(totals)) == 0
    return [0] * (report + 1), holds if len(totals) > natural else None


# ---------------------------------------------------------------------------
# independent Hom oracle from the box presentation


def hom_dim_oracle(lam, mu, p: int) -> int:
    """dim Hom(Weyl(lam), Weyl(mu)) computed from the box presentation of lam:
    the vectors in the weight-lam slice of Weyl(mu) killed by every relation
    family, by left exactness of Hom(-, Weyl(mu)).

    The family (i, t) acts from the weight-lam slice to the weight
    lam + t alpha_i one.  Those slices are read only when the weight-lam
    slice is nonzero, and then all of them are built together; when it is
    zero, nothing is built and the dimension is 0.  Raises
    ResourceLimitError first if lam has more than ``MAX_RELATION_FAMILIES``
    families, or if their relations have more than ``MAX_RELATION_ENTRIES``
    generator entries, built or not."""
    lam, mu = _check_pair(lam, mu)
    check_prime(p)
    families = sum(lam[1:])  # one per (i, t <= lam_{i+1})
    if families > MAX_RELATION_FAMILIES:
        raise ResourceLimitError(
            f"the Hom oracle needs {families} relation families, exceeding the cap "
            f"{MAX_RELATION_FAMILIES}"
        )
    n = len(lam)
    rhos = []
    for family in box_presentation(lam):
        i0 = family.i - 1
        rho = [[lam[s] if s == c else 0 for c in range(n)] for s in range(n)]
        rho[i0][i0 + 1] = family.t
        rho[i0 + 1][i0 + 1] -= family.t
        rhos.append(tuple(map(tuple, rho)))
    nonzero = kostka(mu, lam) > 0
    weights = [lam] + [margin2(rho) for rho in rhos] if nonzero else [lam]
    # a generator entry is a monomial w, a row pair i and a nonzero vector
    # v <= column i+1 of w, as ``weyl._box_relations`` lists them
    entries = 0
    for weight in dict.fromkeys(weights):
        columns = contingency_array(weight, mu)[:, :, 1:].astype(np.int64)
        entries += int(((columns + 1).prod(axis=1) - 1).sum())
    if entries > MAX_RELATION_ENTRIES:
        raise ResourceLimitError(
            f"the Hom oracle needs {entries} relation entries, exceeding the cap {MAX_RELATION_ENTRIES}"
        )
    if not nonzero:
        return 0
    model = build_weight_spaces([(mu, weight) for weight in weights], p)[0]
    if not rhos:
        return model.dim
    stacked = np.vstack([act_matrix(rho, mu, p) for rho in rhos])
    return model.dim - rank_mod(stacked, p)


# ---------------------------------------------------------------------------
# hypothesis predicates for the built-in verification presets


THEOREMS = ("1.1.1", "1.1.2", "6.1", "6.4")


def check_hypotheses(lam, mu, p: int, d: int, theorem: str) -> dict:
    """Evaluate the named inequalities guarding each verification preset.

    The returned flags are pure arithmetic; ``all_hold`` conjoins them
    (for preset 6.4 the degree-dependent bound p^d > i is reported as the
    largest covered degree instead of a boolean).
    """
    lam, mu = _check_pair(lam, mu)
    check_prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    r = sum(lam)
    pd = p**d
    if theorem == "1.1.1":
        flags = {
            "pd_gt_r_minus_l1": pd > r - lam[0],
            "mu2_le_l1": (mu[1] if len(mu) > 1 else 0) <= lam[0],
        }
    elif theorem == "1.1.2":
        flags = {
            "pd_gt_r_minus_l1": pd > r - lam[0],
            "l1_ge_half_r": 2 * lam[0] >= r,
        }
    elif theorem == "6.1":
        lam2 = lam[1] if len(lam) > 1 else 0
        flags = {
            "pd_gt_min_l2_m1_minus_l1": pd > min(lam2, mu[0] - lam[0]),
            "mu2_le_l1": (mu[1] if len(mu) > 1 else 0) <= lam[0],
        }
    elif theorem == "6.4":
        flags = {
            "lambda_is_hook": is_hook(lam),
            "max_degree_covered": pd - 1,
        }
    else:
        raise ValueError(f"unknown theorem selector {theorem!r}; choose from {THEOREMS}")
    flags["all_hold"] = all(v for k, v in flags.items() if isinstance(v, bool))
    return flags


def _pad_equal(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    width = max(len(a), len(b))
    return a + [0] * (width - len(a)), b + [0] * (width - len(b))


def _verdict(all_equal: bool, hypotheses_hold: bool) -> str:
    if all_equal:
        return "PASS"
    return "SHARPNESS" if not hypotheses_hold else "FAIL"


def _shift_report(head: dict, dims: list[int], shifted_dims: list[int], shifted_pair: dict,
                  failure: str) -> dict:
    """The report comparing the dims of a pair with those of its shift,
    degree by degree: ``head`` (the pair, p, d, ... and "hypotheses"), the
    padded dims with ``shifted_pair`` between them, the comparison and the
    verdict.  On FAIL, raises TheoremViolationError with ``failure``."""
    dims, shifted_dims = _pad_equal(dims, shifted_dims)
    per_degree = [x == y for x, y in zip(dims, shifted_dims)]
    all_equal = all(per_degree)
    report = {
        **head,
        "ext_dims": dims,
        **shifted_pair,
        "shifted_ext_dims": shifted_dims,
        "per_degree_equal": per_degree,
        "all_equal": all_equal,
        "verdict": _verdict(all_equal, head["hypotheses"]["all_hold"]),
    }
    if report["verdict"] == "FAIL":
        raise TheoremViolationError(failure, report)
    return report


def verify_periodicity(
    lam,
    mu,
    p: int,
    d: int,
    target: str = "weyl",
    max_degree: int | None = None,
) -> dict:
    """Compare Ext dimensions before and after adding p^d to the first parts.

    Both sides are computed in full (or to ``max_degree``).  When the
    hypotheses hold and any degree differs, a TheoremViolationError is
    raised: the statement guarantees equality, so a mismatch is a bug.  For
    the Weyl target with the hypotheses satisfied, the same two complexes are
    then compared entrywise (``verify_complex_isomorphism``), and that report
    is added under "isomorphism".
    """
    lam, mu = _check_pair(lam, mu)
    theorem = "1.1.1" if target == "weyl" else "1.1.2"
    flags = check_hypotheses(lam, mu, p, d, theorem)
    here = build_hom_complex(lam, mu, p, target, max_degree)
    lam_s = plus_shift_composition(lam, d, p)
    mu_s = plus_shift_composition(mu, d, p)
    there = build_hom_complex(lam_s, mu_s, p, target, max_degree)
    report = _shift_report(
        {"lambda": list(lam), "mu": list(mu), "p": p, "d": d, "target": target,
         "theorem": theorem, "hypotheses": flags},
        here.ext_dims(),
        there.ext_dims(),
        {"shifted_lambda": list(lam_s), "shifted_mu": list(mu_s)},
        f"periodicity failed with hypotheses satisfied: {lam} -> {mu}, p={p}, d={d}",
    )
    if target == "weyl" and flags["all_hold"]:
        report["isomorphism"] = verify_complex_isomorphism(here, there, d, flags)
    return report


def verify_hom_bound(lam, mu, p: int, d: int) -> dict:
    """Compare Hom dimensions under the improved bound preset (6.1), via the
    box-presentation oracle on both sides."""
    lam, mu = _check_pair(lam, mu)
    flags = check_hypotheses(lam, mu, p, d, "6.1")
    a = hom_dim_oracle(lam, mu, p)
    b = hom_dim_oracle(plus_shift_composition(lam, d, p), plus_shift_composition(mu, d, p), p)
    return _shift_report(
        {"lambda": list(lam), "mu": list(mu), "p": p, "d": d, "theorem": "6.1", "hypotheses": flags},
        [a],
        [b],
        {},
        f"hom bound failed with hypotheses satisfied: {lam} -> {mu}, p={p}, d={d}",
    )


# ---------------------------------------------------------------------------
# entrywise complex isomorphism under the canonical degree-raising bijections


def _basis_elements(complex_: HomComplex, k: int) -> list[tuple[tuple, tuple]]:
    """Flat degree-k basis of a Weyl-target chain complex as (chain,
    tableau counts) pairs, in basis order: each summand's slice has the
    semistandard tableaux of its top as basis, read off the slice's model."""
    space = chain_space(complex_.lam)
    chains = space.layer(k)[0]
    starts = space.starts[k].tolist()  # a chain's top is the block it falls in
    mu, p = complex_.mu, complex_.p
    return [
        (tuple(map(space.steps.__getitem__, chains[index].tolist())), t.counts)
        for index in complex_.summands[k].tolist()
        for t in build_weight_space(mu, space.tops[bisect_right(starts, index) - 1], p).sst
    ]


def verify_complex_isomorphism(
    here: HomComplex, there: HomComplex, d: int, hypotheses: dict
) -> dict:
    """Check that two Weyl-target Hom complexes, ``here`` for (lam, mu) and
    ``there`` for the pair with p^d added to the first parts, are identical
    matrices once bases are matched by the canonical bijections (shift every
    chain step at its (1,1) entry; insert p^d leading 1s into every tableau).

    The bijections preserve basis order: chains, tops and tableaux are all
    listed by one rule, descending lex on flattened tuples, and the shift
    adds the same p^d to the leading entry of every element it compares.  So
    ``here``'s shifted basis must equal ``there``'s element for element, and
    then the differentials must be equal as they stand.

    The bijections are defined when ``hypotheses``, the preset 1.1.1 flags,
    all hold; the caller makes sure they do, and the report carries them.
    """
    p = here.p
    degrees = min(here.stored_degrees(), there.stored_degrees())
    for k in range(degrees):
        shifted = [
            (tuple(plus_shift_matrix(w, d, p) for w in chain), plus_shift_matrix(counts, d, p))
            for chain, counts in _basis_elements(here, k)
        ]
        if shifted != _basis_elements(there, k):
            raise TheoremViolationError(
                f"shifted basis differs from the shifted pair's basis in degree {k}",
                {"degree": k},
            )
    per_degree = [here.diffs[k] == there.diffs[k] for k in range(degrees - 1)]
    report = {
        "refused": False,  # never: the caller checks the hypotheses first
        "hypotheses": hypotheses,
        "degrees_compared": degrees,
        "per_degree_equal": per_degree,
        "all_equal": all(per_degree),
    }
    if not report["all_equal"]:
        raise TheoremViolationError("differential matrices differ entrywise", report)
    return report


# ---------------------------------------------------------------------------
# hook resolution complex and the cross-resolution check


def build_hook_hom_complex(a: int, b: int, mu, p: int) -> HomComplex:
    """Hom(hook resolution of (a, 1^b), Weyl module of mu) as matrices.

    The degree-i basis is one weight slice per term of the resolution; the
    differential splits a tensor position in two, which on Hom spaces is the
    action of the explicit monomial matrix that repeats the split letter.
    """
    mu = validate_partition(mu)
    check_prime(p)
    n = len(mu)
    if b + 1 > n:
        raise ValueError(f"hook (a, 1^{b}) needs at least {b + 1} rows, mu has {n}")
    if a + b != sum(mu):
        raise ValueError(f"hook degree {a + b} does not match mu of degree {sum(mu)}")
    res = hook_resolution(a, b)
    lam = pad((a,) + (1,) * b, n)

    def split(beta: Composition, t: int, u: int, v: int) -> Matrix:
        # the monomial matrix that splits position t of beta into (u, v)
        rho = [[0] * n for _ in range(n)]
        for j in range(t):
            rho[j][j] = beta[j]
        rho[t][t] = u
        rho[t][t + 1] = v
        for j in range(t + 2, len(beta) + 1):
            rho[j - 1][j] = beta[j - 1]
        return tuple(map(tuple, rho))

    terms = [res.degree(i) for i in range(b + 1)]
    tops = [pad(beta, n) for degree in terms for beta in degree]
    starts = np.cumsum([0] + [len(degree) for degree in terms]).tolist()
    steps: dict[Matrix, int] = {}  # split matrix -> block key
    arrows = []
    for i in range(b):
        # cochain differential degree i -> i+1: precompose with the split
        # maps, one per pair of adjacent parts of a degree-i term whose
        # merge is a degree-(i+1) term
        rows = {beta: starts[i + 1] + j for j, beta in enumerate(terms[i + 1])}
        arrows.extend(
            (rows[beta], starts[i] + col,
             steps.setdefault(split(beta, t, *alpha[t : t + 2]), len(steps)), (-1) ** t)
            for col, alpha in enumerate(terms[i])
            for t in range(len(alpha) - 1)
            for beta in [alpha[:t] + (alpha[t] + alpha[t + 1],) + alpha[t + 2 :]]
            if beta in rows
        )
    # the rows of each differential come after those of the one before
    table = np.array(arrows, dtype=np.int64).reshape(-1, 4).T
    summands, dims, diffs = _assemble(
        _top_dims(tops, mu, p, "weyl"),
        np.arange(len(tops)),
        starts,
        table,
        list(steps),
        mu,
        p,
        "weyl",
    )
    return HomComplex(lam, mu, p, "weyl", b, b, summands, dims, diffs)


def hook_ext_crosscheck(
    a: int,
    b: int,
    mu,
    p: int,
    shift_ds: tuple[int, ...] | None = None,
) -> dict:
    """Ext dims of the hook (a, 1^b) against the Weyl module of mu, computed
    independently from the chain resolution and from the hook resolution,
    with vanishing beyond degree b, plus the degree-raising comparisons.

    Two per-degree coverage flags accompany each shifted comparison:

    * ``stated``: p^d > i, the per-degree bound this preset is named for;
    * ``supported``: p^d > min(i + 1, b), the bound the commuting-diagram
      argument actually delivers (the stage-i differential carries binomial
      coefficients from weights with parts up to i + 1, so p^d = i + 1 sits
      outside it; the last stage is capped by the resolution length b).

    Desk-scale search shows the stated bound really does fail on its
    boundary p^d = i + 1 (and, without the inherited hypothesis
    mu_2 <= lambda_1, already in degree 0), so only a mismatch inside the
    supported bound with mu_2 <= lambda_1 raises: that would be a bug.
    """
    mu = validate_partition(mu)
    check_prime(p)
    n = len(mu)
    lam = pad((a,) + (1,) * b, n)
    sy = build_hom_complex(lam, mu, p, "weyl")
    hook = build_hook_hom_complex(a, b, mu, p)
    sy_dims = sy.ext_dims()
    hook_dims, sy_cmp = _pad_equal(hook.ext_dims(), sy_dims)
    per_degree = [x == y for x, y in zip(sy_cmp, hook_dims)]
    vanishing = all(x == 0 for x in sy_cmp[b + 1 :])
    mu2_le_l1 = (mu[1] if n > 1 else 0) <= a

    if shift_ds is None:
        d_full = 1
        while p**d_full <= b:
            d_full += 1
        shift_ds = (1,) if d_full == 1 else (1, d_full)
    shifted = []
    for d in shift_ds:
        pd = p**d
        base_dims = hook.ext_dims()
        other = build_hook_hom_complex(_shifted(a, d, p), b, plus_shift_composition(mu, d, p), p)
        other_dims = other.ext_dims()
        rows = []
        for i in range(b + 1):
            rows.append(
                {
                    "degree": i,
                    "stated": pd > i,
                    "supported": pd > min(i + 1, b),
                    "equal": base_dims[i] == other_dims[i],
                }
            )
        shifted.append(
            {
                "d": d,
                "ext_dims": base_dims,
                "shifted_ext_dims": other_dims,
                "degrees": rows,
                "stated_bound_holds": all(r["equal"] for r in rows if r["stated"]),
                "supported_bound_holds": all(r["equal"] for r in rows if r["supported"]),
            }
        )

    report = {
        "a": a,
        "b": b,
        "mu": list(mu),
        "p": p,
        "mu2_le_l1": mu2_le_l1,
        "sy_ext_dims": sy_cmp,
        "hook_ext_dims": hook_dims,
        "per_degree_equal": per_degree,
        "methods_agree": all(per_degree),
        "vanishing_beyond_b": vanishing,
        "shifted_checks": shifted,
        "stated_bound_holds": all(s["stated_bound_holds"] for s in shifted),
        "supported_bound_holds": all(s["supported_bound_holds"] for s in shifted),
    }
    if not (report["methods_agree"] and vanishing):
        raise TheoremViolationError(
            f"hook cross-check failed for (a={a}, b={b}), mu={mu}, p={p}", report
        )
    if mu2_le_l1 and not report["supported_bound_holds"]:
        raise TheoremViolationError(
            f"supported-bound shifted equality failed for (a={a}, b={b}), mu={mu}, p={p}",
            report,
        )
    return report
