import itertools
import math

import numpy as np
import weylkit.shapes

import pytest
from hypothesis import given, settings, strategies as st

from weylkit.shapes import (
    INT32_MAX,
    ChainSpace,
    ResourceLimitError,
    Tableau,
    _count_bounded,
    _row_table,
    chain_space,
    contingency_array,
    decode_matrices,
    diagonal_matrix,
    dominates,
    enumerate_compositions,
    enumerate_dominating,
    enumerate_omega,
    enumerate_partitions,
    enumerate_sst,
    enumerate_strictly_dominating,
    enumerate_theta,
    format_composition,
    format_tableau,
    is_partition,
    kostka,
    linked,
    matrix_margins,
    number_rows,
    parse_composition,
    parse_matrix,
    parse_tableau_rows,
    plus_shift_composition,
    plus_shift_matrix,
    sorted_groups,
    transpose_matrix,
)

from helpers import (
    chain_layout,
    is_lower_triangular,
    plus_shift_tensor,
    tensor_margins,
    upper_triangular,
)


def compositions(n, r):
    return st.sampled_from(enumerate_compositions(n, r))


# ---------------------------------------------------------------------------
# dominance


def test_dominates_examples():
    assert dominates((2, 0), (1, 1))
    assert dominates((1, 1), (1, 1))
    assert not dominates((1, 2), (2, 1))


def test_dominates_rejects_mismatch():
    with pytest.raises(ValueError):
        dominates((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        dominates((2, 0), (1, 0))


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 6))))
def test_dominance_partial_order(nr):
    n, r = nr
    comps = enumerate_compositions(n, r)
    for a in comps:
        assert dominates(a, a)
    for a, b in itertools.product(comps, repeat=2):
        if dominates(a, b) and dominates(b, a):
            assert a == b
    import random

    rng = random.Random(r * 10 + n)
    for _ in range(50):
        a, b, c = (rng.choice(comps) for _ in range(3))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


# ---------------------------------------------------------------------------
# enumerations


def test_enumerate_compositions_examples():
    assert enumerate_compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert enumerate_compositions(1, 5) == ((5,),)
    assert len(enumerate_compositions(3, 1)) == 3


def test_enumerate_compositions_count():
    import math

    for n in (1, 2, 3, 4):
        for r in range(6):
            assert len(enumerate_compositions(n, r)) == math.comb(r + n - 1, n - 1)


def test_partitions_are_the_partitioned_compositions():
    # generated directly: filtering the compositions listed all C(27, 13)
    # of them for n = r = 14, which took minutes and gigabytes
    for n in range(1, 7):
        for r in range(10):
            expected = tuple(a for a in enumerate_compositions(n, r) if is_partition(a))
            assert enumerate_partitions.__wrapped__(n, r) == expected, (n, r)
    assert len(enumerate_partitions.__wrapped__(14, 14)) == 135
    with pytest.raises(ValueError):
        enumerate_partitions.__wrapped__(0, 2)


def test_enumerate_strictly_dominating():
    assert enumerate_strictly_dominating((1, 1)) == [(2, 0)]
    assert enumerate_strictly_dominating((4, 0)) == []
    # full composition scan: four strict dominators of (1,1,1)
    expected = [
        a
        for a in enumerate_compositions(3, 3)
        if a != (1, 1, 1) and dominates(a, (1, 1, 1))
    ]
    got = enumerate_strictly_dominating((1, 1, 1))
    assert got == expected
    assert set(got) == {(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0)}


def test_matrix_margins_examples():
    assert matrix_margins(((1, 1), (0, 0))) == ((1, 1), (2, 0))
    nu = (3, 1)
    assert matrix_margins(diagonal_matrix(nu)) == (nu, nu)
    assert matrix_margins(((0, 2), (0, 0))) == ((0, 2), (2, 0))


def test_enumerate_omega_examples():
    assert enumerate_omega((2, 0), (1, 1)) == [((1, 1), (0, 0))]
    assert enumerate_omega((3,), (3,)) == [((3,),)]
    two = enumerate_omega((1, 1), (1, 1))
    assert set(two) == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def contingency_bruteforce(rows, cols):
    """Every matrix with entries bounded by its margins, kept when the margins
    match, in descending-lex order of the flattened matrix."""
    cells = [range(min(a, b) + 1) for a in rows for b in cols]
    out = []
    for flat in itertools.product(*cells):
        mat = tuple(tuple(flat[i * len(cols):(i + 1) * len(cols)]) for i in range(len(rows)))
        if tuple(map(sum, mat)) == rows and tuple(sum(row[j] for row in mat) for j in range(len(cols))) == cols:
            out.append(mat)
    return tuple(reversed(out))


def test_bounded_compositions_skip_heads_the_rest_cannot_hold(monkeypatch):
    # a row sum shifted by 2^16 against column sums (2^16 + 3, 0): the
    # second part holds nothing, so the head is the whole sum; trying every
    # head down to 0 made one call per head, 131079 in all
    bounded = weylkit.shapes._compositions_bounded
    calls = []

    def counted(*args):
        calls.append(args)
        return bounded(*args)

    monkeypatch.setattr(weylkit.shapes, "_compositions_bounded", counted)
    big = 2**16 + 2
    assert decode_matrices(contingency_array.__wrapped__((big, 1), (big + 1, 0))) == (((big, 0), (1, 0)),)
    assert len(calls) == 3


@pytest.mark.parametrize("rows, cols", [
    ((), ()), ((), (0, 0)), ((0, 0), ()), ((0,), (0,)), ((0, 0, 0), (0, 0)),
    ((2, 1), (1, 1)), ((1,), (2,)),  # mismatched totals
    ((3,), (3,)), ((4,), (1, 0, 3)), ((1, 0, 3), (4,)),  # one row or one column
    ((1, 1, 1, 1), (1, 1, 1, 1)), ((2, 0, 1), (0, 3, 0)),
])
def test_enumerate_contingency_edge_cases(rows, cols):
    expected = contingency_bruteforce(rows, cols)
    assert tuple(enumerate_omega(rows, cols)) == expected
    assert decode_matrices(contingency_array.__wrapped__(rows, cols)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=3), st.lists(st.integers(0, 2), max_size=3))
def test_enumerate_contingency_matches_bruteforce(rows, cols):
    rows, cols = tuple(rows), tuple(cols)
    expected = contingency_bruteforce(rows, cols)
    assert tuple(enumerate_omega(rows, cols)) == expected
    assert decode_matrices(contingency_array.__wrapped__(rows, cols)) == expected


def contingency_by_rows(rows, cols):
    """Matrices with the given margins, a row at a time in Python: each
    first row that fits under the column sums, in descending-lex order,
    followed by every matrix of the remaining rows under what is left."""
    def heads(total, bounds):
        if not bounds:
            if total == 0:
                yield ()
            return
        for head in range(min(total, bounds[0]), max(total - sum(bounds[1:]), 0) - 1, -1):
            for rest in heads(total - head, bounds[1:]):
                yield (head,) + rest

    if not rows:
        return [()] if not any(cols) else []
    return [
        (first,) + rest
        for first in heads(rows[0], cols)
        for rest in contingency_by_rows(rows[1:], tuple(c - x for c, x in zip(cols, first)))
    ]


def test_contingency_array_matches_enumerate_omega_row_by_row():
    # square margins with n <= 4 and total <= 8: every pair of compositions
    # for n <= 3, and every composition against every partition for n = 4
    cases = 0
    for n in (1, 2, 3, 4):
        for total in range(9):
            margins = enumerate_partitions(n, total) if n == 4 else enumerate_compositions(n, total)
            for rows in enumerate_compositions(n, total):
                for cols in margins:
                    array = contingency_array(rows, cols)
                    assert array.dtype == np.uint8 and array.shape[1:] == (n, n)
                    expected = contingency_by_rows(rows, cols)
                    assert len(array) == len(expected) == len(enumerate_omega(rows, cols)), (rows, cols)
                    for row, matrix, reference in zip(array.tolist(), enumerate_omega(rows, cols), expected):
                        assert tuple(map(tuple, row)) == matrix == reference, (rows, cols)
                    cases += 1
    assert cases > 5000


@pytest.mark.parametrize("rows, cols, shape", [
    ((2, 1), (1, 1), (0, 2, 2)), ((1,), (2, 0, 0), (0, 1, 3)), ((3, 0), (0, 2), (0, 2, 2)),  # unequal totals
    ((), (), (1, 0, 0)), ((), (0, 0), (1, 0, 2)), ((0, 0, 0), (), (1, 3, 0)), ((), (1,), (0, 0, 1)),
])
def test_contingency_array_empty_cases(rows, cols, shape):
    array = contingency_array(rows, cols)
    assert array.shape == shape
    assert array.tolist() == [list(map(list, w)) for w in contingency_by_rows(rows, cols)]
    assert enumerate_omega(rows, cols) == [tuple(map(tuple, w)) for w in array.tolist()]


@pytest.mark.parametrize("rows, cols", [
    ((200, 100), (150, 150)),  # total 300: past uint8
    ((255, 1), (128, 128)),  # total 256, the first int64 total
    ((2**40 + 2, 1, 0), (2**40 + 1, 2, 0)),  # an entry shifted by 2^40
])
def test_contingency_array_large_totals(rows, cols):
    array = contingency_array(rows, cols)
    assert array.dtype == np.int64
    assert [tuple(map(tuple, w)) for w in array.tolist()] == contingency_by_rows(rows, cols)
    assert enumerate_omega(rows, cols) == contingency_by_rows(rows, cols)


def test_contingency_array_is_read_only():
    array = contingency_array((2, 1, 1), (2, 2, 0))
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0, 0] = 1
    assert contingency_array((2, 1, 1), (2, 2, 0)) is array


def test_contingency_array_cap_edge(monkeypatch, deadline):
    # before each row but the last, its partial matrices times its candidate
    # rows: the partial matrices are those of the earlier rows with the rest
    # lumped into one row, and each candidate row has one completion
    rows, cols = (3, 2, 2, 1), (4, 2, 2, 0)
    pairs = max(
        len(contingency_by_rows(rows[:j] + (sum(rows[j:]),), cols))
        * len(contingency_by_rows((rows[j], sum(cols) - rows[j]), cols))
        for j in range(len(rows) - 1)
    )
    expected = [list(map(list, w)) for w in contingency_by_rows(rows, cols)]
    monkeypatch.setattr(weylkit.shapes, "MAX_CONTINGENCY_PAIRS", pairs)
    assert contingency_array.__wrapped__(rows, cols).tolist() == expected
    monkeypatch.setattr(weylkit.shapes, "MAX_CONTINGENCY_PAIRS", pairs - 1)
    with pytest.raises(ResourceLimitError, match=rf"need {pairs} \(partial, row\) pairs, exceeding the cap {pairs - 1}$"):
        contingency_array.__wrapped__(rows, cols)


def test_candidate_count_is_the_row_table_length():
    # the inclusion-exclusion count of the compositions under the bounds
    cases = 0
    for n in range(1, 5):
        for bounds in itertools.product(range(5), repeat=n):
            for total in range(14):
                assert _count_bounded(total, bounds) == len(_row_table(total, bounds)), (total, bounds)
                cases += 1
    assert cases == 10920
    # past int64 it stays exact: compositions of 2^62 into four unbounded parts
    assert _count_bounded(2**62, (2**62,) * 4) == math.comb(2**62 + 3, 3)


@pytest.mark.parametrize("deadline", [2], indirect=True)
def test_kostka_past_the_contingency_cap_is_refused_early(deadline):
    # 8,001 first rows, each tested against 5,001 candidates for the second:
    # the test ran to 1.09 GB and 2.1 s before it ended in MemoryError
    with pytest.raises(ResourceLimitError, match="need 40013001 "):
        kostka((12000, 8000, 0), (10000, 5000, 5000))


def test_enumerate_omega_margins_and_determinism():
    for alpha in enumerate_compositions(3, 3):
        for beta in enumerate_compositions(3, 3):
            mats = enumerate_omega(alpha, beta)
            assert mats == enumerate_omega(alpha, beta)
            assert len(set(mats)) == len(mats)
            for w in mats:
                assert matrix_margins(w) == (beta, alpha)


def test_enumerate_theta_examples():
    w = ((1, 1), (0, 0))
    pi = ((1, 0), (1, 0))
    thetas = enumerate_theta(w, pi)
    assert len(thetas) == 1
    theta = thetas[0]
    assert theta[0][0][0] == 1 and theta[0][1][0] == 1
    assert sum(x for plane in theta for row in plane for x in row) == 2

    nu = (2, 1)
    diag = diagonal_matrix(nu)
    thetas = enumerate_theta(diag, diag)
    assert len(thetas) == 1
    assert all(thetas[0][s][s][s] == nu[s] for s in range(2))

    assert enumerate_theta(((1, 0), (0, 0)), ((2, 0), (0, 0))) == []


def test_enumerate_theta_margins():
    for w in enumerate_omega((2, 1), (1, 2)):
        for pi in enumerate_omega((2, 1), (3, 0)):
            for theta in enumerate_theta(w, pi):
                m1, _, m3 = tensor_margins(theta)
                assert m3 == w and m1 == pi


def test_transpose_swaps_margins():
    w = ((1, 1), (0, 0))
    assert transpose_matrix(w) == ((1, 0), (1, 0))
    assert matrix_margins(transpose_matrix(w)) == matrix_margins(w)[::-1]


# ---------------------------------------------------------------------------
# shifts


def test_plus_shift_examples():
    assert plus_shift_composition((1, 1), 1, 2) == (3, 1)
    assert plus_shift_matrix(diagonal_matrix((2, 1)), 1, 3) == diagonal_matrix((5, 1))
    t = Tableau.from_entries([[1, 2], [2, 2]], 2)
    shifted = t.plus_shift(1, 3)
    assert shifted.shape == (5, 2)
    assert shifted.counts[0][0] == 4  # four 1s in the top row
    with pytest.raises(ValueError):
        plus_shift_composition((1,), 0, 2)


def test_linked_examples():
    # residues lam_i - i mod p: (2, 2, 2, 1) gives {1, 0, 1, 1}, (5, 2) gives {0, 0, 1, 0}
    assert not linked((2, 2, 2, 1), (5, 2, 0, 0), 2)
    assert linked((2, 1), (3, 0), 3)  # {1, 2} against {2, 1}
    assert not linked((2, 1), (3, 0), 2)  # {1, 1} against {0, 0}
    assert not linked((2, 1), (3, 0), 5)  # {1, 4} against {2, 3}
    assert linked((4, 1), (4, 1), 5)


def test_linked_is_kept_by_the_shift():
    # the degree-raising shift adds p^d to a first part, keeping its residue
    for p in (2, 3, 5):
        for lam, mu in itertools.product(enumerate_partitions(3, 5), repeat=2):
            assert linked(lam, mu, p) == linked(mu, lam, p)
            shifted = linked(plus_shift_composition(lam, 1, p), plus_shift_composition(mu, 1, p), p)
            assert linked(lam, mu, p) == shifted


def test_plus_shift_tensor():
    theta = enumerate_theta(diagonal_matrix((1, 1)), diagonal_matrix((1, 1)))[0]
    shifted = plus_shift_tensor(theta, 1, 2)
    assert shifted[0][0][0] == theta[0][0][0] + 2
    assert tensor_margins(shifted)[0][0][0] == tensor_margins(theta)[0][0][0] + 2


def test_plus_shift_injective_on_compositions():
    seen = {}
    for a in enumerate_compositions(3, 4):
        image = plus_shift_composition(a, 1, 2)
        assert image not in seen
        seen[image] = a


# ---------------------------------------------------------------------------
# tableaux


def test_enumerate_sst_examples():
    assert len(enumerate_sst((2, 1, 0), (1, 1, 1))) == 2
    mu = (3, 2, 0)
    assert [t for t in enumerate_sst(mu, mu)] == [Tableau(diagonal_matrix(mu))]
    assert enumerate_sst((2, 2), (1, 3)) == ()


def test_sst_are_semistandard_and_sorted():
    for n, r in ((2, 6), (3, 5), (4, 5)):
        for mu in enumerate_partitions(n, r):
            for alpha in enumerate_compositions(n, r):
                tabs = enumerate_sst(mu, alpha)
                keys = [t.key() for t in tabs]
                assert keys == sorted(keys, reverse=True)
                for t in tabs:
                    assert t.shape == mu and t.weight == alpha
                filtered = [Tableau(w) for w in enumerate_omega(alpha, mu)]
                assert list(tabs) == [t for t in filtered if t.is_semistandard()]
                assert kostka(mu, alpha) == len(tabs)
    assert kostka([3, 2, 1], [2, 2, 2]) == len(enumerate_sst([3, 2, 1], [2, 2, 2])) == 2


def test_kostka_counts_without_decoding(monkeypatch):
    for mu, alpha in [((2, 1), (1, 2, 0)), ((3, 1, 1), (1, 2)), ((2, 1, 0), (1, 1, 0)), ((1, 2), (2, 1))]:
        with pytest.raises(ValueError):
            kostka(mu, alpha)

    def refuse(array):
        raise AssertionError("kostka decoded a tableau")

    pairs = [(mu, alpha) for mu in enumerate_partitions(5, 7) for alpha in [(2, 1, 1, 2, 1), (1, 1, 1, 1, 3)]]
    monkeypatch.setattr(weylkit.shapes, "decode_matrices", refuse)
    counts = [kostka(mu, alpha) for mu, alpha in pairs]
    monkeypatch.undo()
    assert counts == [len(enumerate_sst(mu, alpha)) for mu, alpha in pairs]
    assert sum(counts) > 0


def test_kostka_symmetry_under_weight_permutation():
    mu = (3, 1, 0)
    for alpha in enumerate_compositions(3, 4):
        sorted_alpha = tuple(sorted(alpha, reverse=True))
        assert kostka(mu, alpha) == kostka(mu, sorted_alpha)


def test_tableau_matrix_bijection():
    mu = (2, 2)
    assert Tableau(diagonal_matrix(mu)).to_matrix() == diagonal_matrix(mu)
    t = Tableau.from_entries([[1, 2], [2, 2]], 2)
    assert t.to_matrix() == ((1, 0), (1, 2))
    for tab in enumerate_sst((3, 2, 1), (2, 2, 2)):
        assert is_lower_triangular(tab.to_matrix())
        assert Tableau(tab.to_matrix()) == tab
    with pytest.raises(ValueError):
        from weylkit.weyl import straighten

        straighten(Tableau(((1, 0), (1, 2))), 3, mu=(3, 1))  # column sums are (2, 2)


def test_row_numbering_matches_unique_rows(monkeypatch):
    # small ranges go by one int64 key, wide ones (a column spanning 2^62)
    # by the row sort; views of either layout, negative entries and the
    # empty array included
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
    rng = np.random.default_rng(11)
    for k, high in ((1, 4), (3, 3), (9, 2), (4, 2**62)):
        rows = rng.integers(-2, 3, size=(300, k))
        rows[::7, -1] = high
        for view in (rows, np.asfortranarray(rows), rows[::-1]):
            order, first = sorted_groups(view)
            values, inverse = np.unique(view, axis=0, return_inverse=True)
            assert view[order].tolist() == sorted(view.tolist())
            assert view[order[first]].tolist() == values.tolist()
            distinct, ids = number_rows(view)
            assert view[distinct].tolist() == values.tolist()
            assert ids.tolist() == inverse.ravel().tolist()
    assert sorts == [4] * 6  # sorted_groups and number_rows on each view
    empty = np.zeros((0, 3), dtype=np.int64)
    assert [len(x) for x in sorted_groups(empty) + number_rows(empty)] == [0, 0, 0, 0]


def test_tableau_normalises_row_order():
    a = Tableau.from_entries([[2, 1], [2, 2]], 2)
    b = Tableau.from_entries([[1, 2], [2, 2]], 2)
    assert a == b


# ---------------------------------------------------------------------------
# chains


def test_enumerate_chains_examples():
    chains = chain_space((1, 1)).chains((2, 0), 1)
    assert chains == ((((1, 1), (0, 0)),),)
    # beyond the longest strict dominance chain everything vanishes
    assert chain_space((1, 1)).chains((2, 0), 2) == ()
    assert chain_space((2, 1, 0)).count((3, 0, 0), 9) == 0


def test_chains_against_pair_bruteforce():
    lam, alpha, k = (1, 1, 1), (3, 0, 0), 2
    singles = [
        w
        for beta in enumerate_compositions(3, 3)
        for w in upper_triangular(beta)
    ]
    brute = [
        (w1, w2)
        for w1 in singles
        for w2 in singles
        if matrix_margins(w1)[1] == alpha
        and matrix_margins(w1)[0] == matrix_margins(w2)[1]
        and matrix_margins(w2)[0] == lam
    ]
    assert sorted(chain_space(lam).chains(alpha, k)) == sorted(brute)
    assert chain_space(lam).count(alpha, k) == len(brute)


def test_enumerate_upper_triangular_matches_bruteforce():
    # upper triangular, the given row sums, not diagonal; descending-lex on
    # the flattened matrix, the order the chain layout pins depend on
    for n in range(1, 5):
        for r in range(6):
            for alpha in enumerate_compositions(n, r):
                # every entry bounded by its row sum, zero below the diagonal
                ranges = [range(alpha[s] + 1) if t >= s else (0,) for s in range(n) for t in range(n)]
                brute = []
                for flat in itertools.product(*ranges):
                    w = tuple(flat[s * n : s * n + n] for s in range(n))
                    if tuple(map(sum, w)) == alpha and w != diagonal_matrix(alpha):
                        brute.append(w)
                brute.sort(key=lambda w: sum(w, ()), reverse=True)
                assert upper_triangular(alpha) == tuple(brute), alpha


def _layout_grid():
    """Every partition with n <= 4 parts and r <= 8, then its shifts by 2^1,
    3^1 and 2^3."""
    for n in range(1, 5):
        for r in range(9):
            for lam in enumerate_partitions(n, r):
                yield lam
                for p, d in ((2, 1), (3, 1), (2, 3)):
                    yield plus_shift_composition(lam, d, p)


def test_chain_space_matches_the_product_and_filter_layout():
    # the layout generated row by row, keeping only what dominates lam, is
    # the one the full product of row compositions, filtered, gives
    for lam in _layout_grid():
        space = chain_space(lam)
        tops, steps, first, step_target, profiles = chain_layout(lam)
        assert space.steps.dtype == np.int64 and not space.steps.flags.writeable, lam
        assert space.tops == tops and list(decode_matrices(space.steps)) == steps, lam
        for got, want in ((space.first, first), (space.step_target, step_target),
                          (space.profiles, profiles)):
            assert got.dtype == want.dtype and np.array_equal(got, want), lam


def test_chain_space_shift_adds_p_to_the_d_at_one_one():
    # the (1,1) entry of every step is at least the first part of lam, which
    # carries the shift, so the layout of the shifted lam is lam's with p^d
    # added there, whatever p^d is
    for n in range(1, 5):
        for r in range(7):
            for lam in enumerate_partitions(n, r):
                space = chain_space(lam)
                for p, d in ((2, 40), (5, 20), (3, 2)):
                    shifted = chain_space(plus_shift_composition(lam, d, p))
                    assert shifted.tops == tuple(plus_shift_composition(a, d, p) for a in space.tops)
                    assert list(decode_matrices(shifted.steps)) == [
                        plus_shift_matrix(w, d, p) for w in decode_matrices(space.steps)
                    ]
                    for name in ("first", "step_target", "profiles"):
                        assert np.array_equal(getattr(shifted, name), getattr(space, name)), lam


def test_chain_counts_are_held_at_the_ceiling(monkeypatch):
    # (1^5) has up to 37,559 chains from a top in one degree; held at 1000,
    # every count is min(count, 1000), and count() refuses a held one
    lam = (1, 1, 1, 1, 1)
    *_, profiles = chain_layout(lam)
    monkeypatch.setattr(weylkit.shapes, "CHAIN_COUNT_CEILING", 1000)
    space = ChainSpace(lam)
    assert np.array_equal(space.profiles, np.minimum(profiles, 1000))
    t, k = np.argwhere(profiles >= 1000)[0]
    with pytest.raises(ResourceLimitError, match=f"at least 1000 chains of length {k}"):
        space.count(space.tops[t], k)
    t, k = np.argwhere((profiles > 0) & (profiles < 1000))[-1]
    assert space.count(space.tops[t], k) == profiles[t, k]


def test_chain_numbers_past_int32_are_held():
    # (4,4,4,4) has 3.2e13 chains from one top in one degree, past int32
    # once summed over the degrees before it; the numbers there used to wrap
    space = ChainSpace((4, 4, 4, 4))
    totals = space.profiles.sum(axis=0).tolist()
    exact = [sum(totals[:k]) for k in range(len(totals) + 1)]
    assert exact[-1] > INT32_MAX and space.chain_starts.dtype == np.int32
    assert space.chain_starts.tolist() == [min(x, INT32_MAX) for x in exact]


def test_layout_cap_edge(monkeypatch):
    # the largest array of the (3,3,3) layout is its last row's partial
    # matrices, every step and each top's diagonal matrix; its tops are
    # counted in full after their last part
    lam = (3, 3, 3)
    tops, steps, *_ = chain_layout(lam)
    rows = len(steps) + len(tops)
    monkeypatch.setattr(weylkit.shapes, "MAX_LAYOUT_ROWS", rows)
    assert list(decode_matrices(ChainSpace(lam).steps)) == steps
    monkeypatch.setattr(weylkit.shapes, "MAX_LAYOUT_ROWS", rows - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {rows} partial steps, exceeding the cap {rows - 1}"):
        ChainSpace(lam)
    monkeypatch.setattr(weylkit.shapes, "MAX_LAYOUT_ROWS", len(tops))
    assert enumerate_dominating(lam) == [*tops[1:], lam]
    monkeypatch.setattr(weylkit.shapes, "MAX_LAYOUT_ROWS", len(tops) - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {len(tops)} tops"):
        enumerate_dominating(lam)


def test_chain_relations_hold():
    lam = (2, 1, 0)
    for alpha in enumerate_strictly_dominating(lam):
        for k in (1, 2, 3):
            for chain in chain_space(lam).chains(alpha, k):
                assert matrix_margins(chain[0])[1] == alpha
                assert matrix_margins(chain[-1])[0] == lam
                for a, b in zip(chain, chain[1:]):
                    assert matrix_margins(a)[0] == matrix_margins(b)[1]
                for w in chain:
                    rows, cols = matrix_margins(w)[::-1]
                    assert rows != cols and dominates(rows, cols)


def test_chain_count_shift_invariance():
    for p in (2, 3):
        for n in (2, 3):
            for r in (2, 3, 4):
                for lam in enumerate_partitions(n, r):
                    lam_s = plus_shift_composition(lam, 1, p)
                    for alpha in enumerate_strictly_dominating(lam):
                        al_s = plus_shift_composition(alpha, 1, p)
                        k = 1
                        while True:
                            c = chain_space(lam).count(alpha, k)
                            assert c == chain_space(lam_s).count(al_s, k)
                            if c == 0:
                                break
                            k += 1


def test_dominating_set_shift_bijection():
    for p in (2, 3):
        for lam in enumerate_partitions(3, 4):
            image = {plus_shift_composition(a, 1, p) for a in enumerate_dominating(lam)}
            assert image == set(enumerate_dominating(plus_shift_composition(lam, 1, p)))


def test_theta_shift_bijection():
    # double enumeration on both sides, omega upper triangular or pi lower triangular
    for p in (2, 3):
        for n in (2, 3):
            for r in (2, 3):
                comps = enumerate_compositions(n, r)
                uppers = [
                    w for a in comps for w in (diagonal_matrix(a), *upper_triangular(a))
                ]
                everything = {
                    w for a in comps for b in comps for w in enumerate_omega(a, b)
                }
                for w in uppers:
                    for pi in everything:
                        if matrix_margins(pi)[1] != matrix_margins(w)[0]:
                            continue
                        left = {plus_shift_tensor(t, 1, p) for t in enumerate_theta(w, pi)}
                        right = set(
                            enumerate_theta(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p))
                        )
                        assert left == right
                lowers = [transpose_matrix(w) for w in uppers]
                for pi in lowers:
                    for w in everything:
                        if matrix_margins(pi)[1] != matrix_margins(w)[0]:
                            continue
                        left = {plus_shift_tensor(t, 1, p) for t in enumerate_theta(w, pi)}
                        right = set(
                            enumerate_theta(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p))
                        )
                        assert left == right


def test_sst_shift_bijection():
    # insertion of p^d leading 1s is a bijection on semistandard tableaux
    # whenever the second row fits under the first-row weight
    for p in (2, 3):
        for n in (2, 3):
            for r in (1, 2, 3, 4, 5):
                for mu in enumerate_partitions(n, r):
                    for alpha in enumerate_compositions(n, r):
                        if (mu[1] if n > 1 else 0) > alpha[0]:
                            continue
                        left = {t.plus_shift(1, p) for t in enumerate_sst(mu, alpha)}
                        right = set(
                            enumerate_sst(
                                plus_shift_composition(mu, 1, p),
                                plus_shift_composition(alpha, 1, p),
                            )
                        )
                        assert left == right


# ---------------------------------------------------------------------------
# text formats


def test_text_roundtrips():
    assert parse_composition("8,3") == (8, 3)
    assert parse_composition("11", n=2) == (11, 0)
    assert format_composition((8, 3)) == "8,3"
    assert parse_matrix("1,1/0,0") == ((1, 1), (0, 0))
    t = Tableau.from_entries(parse_tableau_rows("1,2/2,2"), 2)
    assert t.counts == ((1, 0), (1, 2))
    assert format_tableau(t) == "1,2/2,2"
    with pytest.raises(ValueError):
        parse_composition("1,x")
