import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylkit.schur import (
    SchurElement,
    _xi_products,
    _xi_states,
    element_product,
    identity_element,
    structure_constant_int,
    xi_product,
    xi_product_terms,
)
from weylkit.shapes import (
    chain_space,
    diagonal_matrix,
    dominates,
    enumerate_compositions,
    enumerate_omega,
    enumerate_theta,
    matrix_margins,
    plus_shift_matrix,
    transpose_matrix,
)

from helpers import is_lower_triangular, is_upper_triangular, numbered_grid, tensor_margins


def all_matrices(n, r):
    comps = enumerate_compositions(n, r)
    out = []
    seen = set()
    for a in comps:
        for b in comps:
            for w in enumerate_omega(a, b):
                if w not in seen:
                    seen.add(w)
                    out.append(w)
    return out


def test_structure_constant_examples():
    theta = enumerate_theta(((1, 1), (0, 0)), ((1, 0), (1, 0)))[0]
    assert structure_constant_int(theta, 5) == 2
    assert structure_constant_int(theta, 2) == 0

    nu = (2, 1)
    single = enumerate_theta(diagonal_matrix(nu), diagonal_matrix(nu))[0]
    assert structure_constant_int(single, 3) == 1


def test_structure_constant_shift():
    # pi lower triangular, column margin of omega dominating lam, p^d > r - lam_1
    lam = (2, 1)
    w = ((2, 1), (0, 0))  # upper triangular, column margin (2,1) = lam
    pi = ((2, 0), (1, 0))  # lower triangular with row margin (2,1)
    assert matrix_margins(w)[0] == matrix_margins(pi)[1]
    assert dominates(matrix_margins(w)[0], lam)
    for p in (2, 3, 5):  # r - lam_1 = 1, so p > r - lam_1 for every prime
        for theta in enumerate_theta(w, pi):
            shifted = None
            for cand in enumerate_theta(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p)):
                if cand[0][0][0] == theta[0][0][0] + p:
                    rest_equal = all(
                        cand[s][t][q] == theta[s][t][q]
                        for s in range(2)
                        for t in range(2)
                        for q in range(2)
                        if (s, t, q) != (0, 0, 0)
                    )
                    if rest_equal:
                        shifted = cand
            assert shifted is not None
            assert structure_constant_int(theta, p) == structure_constant_int(shifted, p)


def test_xi_product_examples():
    prod = xi_product(((1, 1), (0, 0)), ((1, 0), (1, 0)), 3)
    assert prod.terms == ((((2, 0), (0, 0)), 2),)
    assert not xi_product(((1, 1), (0, 0)), ((1, 0), (1, 0)), 2).terms
    # diagonal idempotent absorbs on the left
    for w in all_matrices(2, 3):
        alpha = matrix_margins(w)[1]
        assert xi_product(diagonal_matrix(alpha), w, 3).terms == ((w, 1),)
    assert xi_product(((3,),), ((3,),), 2).terms == ((((3,),), 1),)


def theta_sum(w, pi, p):
    """xi_w . xi_pi tensor by tensor: [theta] summed onto each middle margin."""
    acc = {}
    for theta in enumerate_theta(w, pi):
        mid = tensor_margins(theta)[1]
        acc[mid] = (acc.get(mid, 0) + structure_constant_int(theta, p)) % p
    return tuple((m, c) for m, c in sorted(acc.items(), reverse=True) if c)


@st.composite
def composable_pairs(draw):
    """(w, pi, p) with n in {2, 3, 4}, total r <= 6 and margin1(w) == margin2(pi)."""
    n = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.integers(0, 6))
    comps = enumerate_compositions(n, r)
    w = draw(st.sampled_from(enumerate_omega(draw(st.sampled_from(comps)), draw(st.sampled_from(comps)))))
    alpha = matrix_margins(w)[0]
    pi = draw(st.sampled_from(enumerate_omega(alpha, draw(st.sampled_from(comps)))))
    return w, pi, draw(st.sampled_from((2, 3, 5)))


@settings(max_examples=200, deadline=None)
@given(composable_pairs(), st.sampled_from((0, 1, 3)))
def test_xi_product_terms_matches_theta_sum(case, d):
    w, pi, p = case
    if d:  # entries up to r + p^d index the binomials
        w, pi = plus_shift_matrix(w, d, p), plus_shift_matrix(pi, d, p)
    assert xi_product_terms(w, pi, p) == theta_sum(w, pi, p)


def test_xi_product_terms_keeps_its_cache_info():
    xi_product_terms(((1, 0), (0, 1)), ((1, 0), (0, 1)), 2)
    assert xi_product_terms.cache_info().currsize >= 1


def assert_batch_matches_xi_states(ws, pis, p):
    """``_xi_products`` on a batch equals ``_xi_states`` pair by pair, in
    the descending-lex order of ``xi_product_terms``."""
    ws, pis = np.asarray(ws, dtype=np.int64), np.asarray(pis, dtype=np.int64)
    indptr, terms, coeffs = _xi_products(ws, pis, p)
    k, n = ws.shape[:2]
    assert len(indptr) == k + 1 and indptr[0] == 0 and indptr[-1] == len(terms) == len(coeffs)
    assert terms.shape[1:] == (n, n)
    flat = list(map(tuple, terms.reshape(-1, n * n).tolist()))
    for i, (w, pi) in enumerate(zip(ws.tolist(), pis.tolist())):
        expected = sorted(_xi_states(tuple(map(tuple, w)), tuple(map(tuple, pi)), p).items(), reverse=True)
        a, b = indptr[i], indptr[i + 1]
        assert list(zip(flat[a:b], coeffs[a:b].tolist())) == expected, (w, pi, p)


def test_batched_products_match_the_reference_on_chain_steps():
    # every pair of a step and a step out of the weight it reaches, in the
    # chain spaces of the numbered grid, shifted ones included
    pairs = 0
    for lam, p in dict.fromkeys((lam, p) for lam, _, p in numbered_grid()):
        space = chain_space(lam)
        steps = np.array(space.steps, dtype=np.int64).reshape(-1, len(lam), len(lam))
        followers = np.diff(space.first)[space.step_target]
        a = np.repeat(np.arange(len(steps)), followers)
        b = np.concatenate([np.arange(space.first[t], space.first[t + 1]) for t in space.step_target]
                           + [np.zeros(0, dtype=np.int64)])
        assert_batch_matches_xi_states(steps[a], steps[b], p)
        pairs += len(a)
    assert pairs == 11384


def test_batched_products_of_mismatched_and_empty_batches():
    # pairs whose margins disagree get no terms, between pairs that have some
    rng = random.Random(3)
    for n in (2, 3):
        mats = all_matrices(n, 3) + all_matrices(n, 2)
        ws = [rng.choice(mats) for _ in range(60)]
        pis = [rng.choice(mats) for _ in range(60)]
        assert sum(matrix_margins(w)[0] != matrix_margins(pi)[1] for w, pi in zip(ws, pis)) > 40
        for p in (2, 3):
            assert_batch_matches_xi_states(ws, pis, p)
    indptr, terms, coeffs = _xi_products(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), 2)
    assert indptr.tolist() == [0] and terms.shape == (0, 3, 3) and coeffs.shape == (0,)


def test_batched_products_sort_rows_past_int64(monkeypatch):
    # n = 5 with entries 20: the states' block entries span 0..20 in each of
    # 16 places, 21^16 > 2^63, so the states are sorted as rows
    rows, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: rows.append(len(keys)) or lexsort(keys))
    cyclic = [np.roll(np.eye(5, dtype=np.int64), k, axis=1) for k in range(5)]
    ws = [20 * np.eye(5, dtype=np.int64)] * 5 + [20 * c for c in cyclic]
    pis = [20 * c for c in cyclic] + [20 * np.eye(5, dtype=np.int64)] * 5
    rng = random.Random(5)
    small = all_matrices(5, 2)
    for _ in range(30):
        w = rng.choice(small)
        ws.append(w)
        pis.append(rng.choice([pi for pi in small if matrix_margins(pi)[1] == matrix_margins(w)[0]]))
    for p in (2, 3):
        assert_batch_matches_xi_states(ws, pis, p)
    assert 17 in rows


def test_non_composable_product_is_zero():
    w = ((2, 0), (0, 0))  # column margin (2, 0)
    pi = ((0, 0), (0, 2))  # row margin (0, 2)
    assert not xi_product(w, pi, 3).terms


def test_idempotent_orthogonality():
    for nu, xi in itertools.product(enumerate_compositions(2, 2), repeat=2):
        prod = xi_product(diagonal_matrix(nu), diagonal_matrix(xi), 3)
        if nu == xi:
            assert prod.terms == ((diagonal_matrix(nu), 1),)
        else:
            assert not prod.terms


def test_identity_element():
    for p in (2, 3):
        for r in (1, 2, 3):
            e = identity_element(2, r, p)
            for w in all_matrices(2, r):
                x = SchurElement.basis(w, p)
                assert element_product(x, e).terms == x.terms
                assert element_product(e, x).terms == x.terms
            z = SchurElement.zero(2, r, p)
            assert not element_product(e, z).terms


def test_associativity_exhaustive_small():
    for p in (2, 3):
        for r in (1, 2, 3):
            mats = all_matrices(2, r)
            for x, y, z in itertools.product(mats, repeat=3):
                left = element_product(xi_product(x, y, p), SchurElement.basis(z, p))
                right = element_product(SchurElement.basis(x, p), xi_product(y, z, p))
                assert left.terms == right.terms, (x, y, z, p)


def test_associativity_random_n3():
    rng = random.Random(7)
    for _ in range(150):
        r = rng.randint(1, 4)
        p = rng.choice((2, 3))
        mats = all_matrices(3, r)
        x, y, z = (rng.choice(mats) for _ in range(3))
        left = element_product(xi_product(x, y, p), SchurElement.basis(z, p))
        right = element_product(SchurElement.basis(x, p), xi_product(y, z, p))
        assert left.terms == right.terms, (x, y, z, p)


def test_transpose_anti_automorphism():
    rng = random.Random(11)
    assert SchurElement.basis(diagonal_matrix((2, 1)), 3).transpose().terms == (
        (diagonal_matrix((2, 1)), 1),
    )
    assert transpose_matrix(((1, 1), (0, 0))) == ((1, 0), (1, 0))
    for _ in range(200):
        n = rng.choice((2, 3))
        r = rng.randint(1, 3)
        mats = all_matrices(n, r)
        w, pi = rng.choice(mats), rng.choice(mats)
        lhs = xi_product(w, pi, 3).transpose()
        rhs = xi_product(transpose_matrix(pi), transpose_matrix(w), 3)
        assert lhs.terms == rhs.terms, (w, pi)


def _lt_hypothesis_holds(alpha, r, p):
    # some partition lam dominated by alpha has p > r - lam_1
    from weylkit.shapes import enumerate_partitions

    return any(
        dominates(alpha, lam) and p > r - lam[0]
        for lam in enumerate_partitions(len(alpha), r)
    )


def test_product_shift_compatibility():
    # terms of the shifted product are exactly the shifted terms, when
    # omega is upper triangular and pi is upper triangular, or pi is lower
    # triangular with the column margin of omega dominating a partition lam
    # with p^d > r - lam_1
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            mats = all_matrices(2, r)
            for w in mats:
                if not is_upper_triangular(w):
                    continue
                for pi in mats:
                    if matrix_margins(pi)[1] != matrix_margins(w)[0]:
                        continue
                    if is_upper_triangular(pi):
                        applicable = True
                    elif is_lower_triangular(pi):
                        applicable = _lt_hypothesis_holds(matrix_margins(w)[0], r, p)
                    else:
                        applicable = False
                    if not applicable:
                        continue
                    base = dict(xi_product(w, pi, p).terms)
                    shifted = dict(
                        xi_product(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p), p).terms
                    )
                    assert {plus_shift_matrix(m, 1, p): c for m, c in base.items()} == shifted


def test_lower_triangular_shift_compatibility_general_omega():
    # pi lower triangular, omega arbitrary with column margin alpha
    # dominating lam, p^d > r - lam_1
    p, r = 3, 3
    mats = all_matrices(2, r)
    for w in mats:
        alpha = matrix_margins(w)[0]
        if not _lt_hypothesis_holds(alpha, r, p):
            continue
        for pi in mats:
            if not is_lower_triangular(pi) or matrix_margins(pi)[1] != alpha:
                continue
            base = dict(xi_product(w, pi, p).terms)
            shifted = dict(
                xi_product(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p), p).terms
            )
            assert {plus_shift_matrix(m, 1, p): c for m, c in base.items()} == shifted


def test_context_mismatch_rejected():
    x = SchurElement.basis(((1,),), 2)
    y = SchurElement.basis(((1, 0), (0, 0)), 2)
    with pytest.raises(ValueError):
        element_product(x, y)
