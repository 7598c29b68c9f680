import itertools
import random
from collections import Counter

import numpy as np
import pytest

from weylkit.shapes import (
    Tableau,
    diagonal_matrix,
    dominates,
    enumerate_compositions,
    enumerate_omega,
    enumerate_partitions,
    enumerate_sst,
    kostka,
    margin1,
    margin2,
    matrix_margins,
    plus_shift_composition,
    sst_indices,
    transpose_matrix,
)
from weylkit.linalg import SparseMod, kernel_basis_mod, rref_mod
from weylkit.ext import hom_dim_oracle
from weylkit.resolutions import box_presentation
from weylkit.schur import xi_product, xi_product_terms
from weylkit import weyl
from weylkit.weyl import (
    act_matrix,
    act_matrix_simple,
    build_weight_space,
    gram_data,
    simple_dim,
    simple_weight_dims,
    straighten,
    two_row_straighten,
)

from helpers import to_dense


def _relations(mu, alpha, p):
    """The box relations of one weight slice, from a pass over it alone."""
    return weyl._box_relations([(mu, alpha)], p)[0]


def test_box_relations_column_shape():
    # the column pair (1,1) at weight (2,0): a single relation killing the
    # lone monomial, over every prime
    relations = _relations((1, 1), (2, 0), 2)
    assert len(enumerate_omega((2, 0), (1, 1))) == 1
    assert relations.shape == (1, 1)
    assert to_dense(relations)[0, 0] % 2 == 1
    for p in (2, 3, 5):
        model = build_weight_space((1, 1), (2, 0), p)
        assert model.dim == 0  # no semistandard filling of a column with two 1s


def test_box_relations_single_row_empty():
    relations = _relations((4,), (4,), 3)
    assert relations.shape[0] == 0


def _relations_by_right_multiplication(mu, alpha, p):
    """The box relations at weight alpha as right multiplication by xi_rho,
    rho being diag(mu) with t moved from (i+1, i+1) to (i, i+1): one row
    per family (i, t) and generator x of D(source) at weight alpha, the row
    holding the terms of xi_x . xi_rho, families and generators in order."""
    monomials = enumerate_omega(alpha, mu)
    index = {w: j for j, w in enumerate(monomials)}
    generators = 0
    rows, cols, vals = [], [], []
    for family in box_presentation(mu):
        i = family.i - 1
        rho = [list(row) for row in diagonal_matrix(mu)]
        rho[i][i + 1] = family.t
        rho[i + 1][i + 1] -= family.t
        rho = tuple(map(tuple, rho))
        for x in enumerate_omega(alpha, family.source):
            for w, c in xi_product_terms(x, rho, p):
                rows.append(generators)
                cols.append(index[w])
                vals.append(c)
            generators += 1
    return SparseMod.from_entries((generators, len(monomials)), rows, cols, vals, p)


def test_box_relations_are_right_multiplication():
    # _box_relations builds the same rows without any product: every
    # coefficient, row and row position must agree
    cases = [(n, r) for n in (1, 2, 3) for r in range(1, 7)] + [(4, r) for r in range(1, 6)]
    shifted = [((2, 1, 0), (1, 1, 1), 2, 1), ((2, 2, 0), (2, 1, 1), 3, 1),
               ((3, 1), (2, 2), 2, 2), ((2, 1, 1), (1, 2, 1), 2, 1)]
    checked = 0
    for p in (2, 3):
        for n, r in cases:
            for mu in enumerate_partitions(n, r):
                for alpha in enumerate_compositions(n, r):
                    relations = _relations(mu, alpha, p)
                    assert relations == _relations_by_right_multiplication(mu, alpha, p), (mu, alpha, p)
                    checked += 1
    for mu, alpha, p, d in shifted:
        mu, alpha = plus_shift_composition(mu, d, p), plus_shift_composition(alpha, d, p)
        relations = _relations(mu, alpha, p)
        assert relations == _relations_by_right_multiplication(mu, alpha, p), (mu, alpha, p)
    assert checked > 1000


def _dense_model(mu, alpha, p):
    """(monomials, relation rank, normal form) from a dense ``rref_mod`` of
    the relation matrix with the non-SST columns first."""
    monomials, relations = tuple(enumerate_omega(alpha, mu)), _relations(mu, alpha, p)
    index = {w: i for i, w in enumerate(monomials)}
    sst_cols = [index[t.to_matrix()] for t in enumerate_sst(mu, alpha)]
    others = [c for c in range(len(monomials)) if c not in sst_cols]
    reduced, pivots = rref_mod(to_dense(relations)[:, others + sst_cols], p)
    assert pivots == list(range(len(others))), (mu, alpha, p)
    normal_form = np.zeros((len(monomials), len(sst_cols)), dtype=np.int64)
    normal_form[sst_cols, range(len(sst_cols))] = 1
    for i, col in enumerate(others):
        normal_form[col] = -reduced[i, len(others):] % p
    return monomials, len(pivots), normal_form


def test_sparse_models_match_dense_reduction():
    # every weight of every partition with n <= 3, r <= 7 and n = 4, r <= 6,
    # and one n = 5, r = 15 slice below the top weight, whose 25 matrix
    # entries up to 15 overflow any int64 mixed-radix key
    cases = [
        (mu, alpha)
        for n, r_max in ((1, 7), (2, 7), (3, 7), (4, 6))
        for r in range(r_max + 1)
        for mu in enumerate_partitions(n, r)
        for alpha in enumerate_compositions(n, r)
    ]
    cases.append(((11, 2, 1, 1, 0), (10, 2, 1, 1, 1)))
    for mu, alpha in cases:
        # the SST filter's positions are those of the tableaux among the monomials
        omega = enumerate_omega(alpha, mu)
        positions = [omega.index(t.to_matrix()) for t in enumerate_sst(mu, alpha)]
        assert sst_indices(mu, alpha).tolist() == positions, (mu, alpha)
        for p in (2, 3, 5):
            model = build_weight_space(mu, alpha, p)
            monomials, rank, normal_form = _dense_model(mu, alpha, p)
            assert model.monomials == monomials == tuple(enumerate_omega(alpha, mu))
            assert model.relation_rank == rank, (mu, alpha, p)
            assert np.array_equal(model.normal_form, normal_form), (mu, alpha, p)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_sst_assertion_fires(monkeypatch, change):
    # with one tableau too few the relations cannot reach every other
    # monomial; with a non-semistandard one added, some relation reduces to
    # a nonzero row on the tableau columns alone
    mu, alpha, p = (3, 2, 1), (2, 2, 2), 3
    tableaux = sst_indices(mu, alpha)
    assert len(tableaux) > 1
    extra = min(set(range(len(enumerate_omega(alpha, mu)))) - set(tableaux.tolist()))
    fake = tableaux[1:] if change == "drop" else np.append(tableaux, extra)
    monkeypatch.setattr(weyl, "sst_indices", lambda *_: fake)
    found = "rank" if change == "drop" else "SST columns alone"
    with pytest.raises(AssertionError, match=f"SST basis violated.*{found}"):
        build_weight_space.__wrapped__(mu, alpha, p)


def test_certificate_catches_a_corrupt_row_the_elimination_never_reaches(monkeypatch):
    # The elimination stops at m - s pivots, so the rows after that point
    # are checked only by the certificate r @ normal_form = 0.  The last
    # relation here is not the first row of its leading column, so it comes
    # last in elimination order; one coefficient of it, on an SST column,
    # is changed.
    mu, alpha, p = (3, 2, 1), (2, 2, 2), 3
    monomials, relations = enumerate_omega(alpha, mu), _relations(mu, alpha, p)
    index = {w: i for i, w in enumerate(monomials)}
    sst_cols = [index[t.to_matrix()] for t in enumerate_sst(mu, alpha)]
    column = np.full(len(monomials), -1)  # SST columns first, as the build numbers them
    column[sst_cols] = range(len(sst_cols))
    column[column < 0] = range(len(sst_cols), len(monomials))
    lead = np.full(relations.shape[0], -1)
    np.maximum.at(lead, relations.rows, column[relations.cols])
    last = relations.shape[0] - 1
    assert (lead >= 0).all() and lead[last] in lead[:last]
    corrupt = SparseMod.from_entries(
        relations.shape,
        np.append(relations.rows, last),
        np.append(relations.cols, sst_cols[0]),
        np.append(relations.vals, 1),
        p,
    )
    assert corrupt != relations
    read = []
    real_pivots = weyl._pivots

    def counting_pivots(rows, p, limit=None):
        def counted():
            for row in rows:
                read.append(row)
                yield row

        return real_pivots(counted(), p, limit)

    monkeypatch.setattr(weyl, "_pivots", counting_pivots)
    monkeypatch.setattr(weyl, "_box_relations", lambda slices, p: [corrupt])
    with pytest.raises(AssertionError, match="SST basis violated.*SST columns alone"):
        build_weight_space.__wrapped__(mu, alpha, p)
    assert len(read) < relations.shape[0]  # so the last row was never read


def _oracle_batches(n: int, r: int):
    """The slices ``hom_dim_oracle`` builds in one pass for each pair of
    partitions with n parts of r: the weight lam and each lam + t alpha_i."""
    for lam in enumerate_partitions(n, r):
        weights = [lam]
        for family in box_presentation(lam):
            i = family.i - 1
            weights.append(lam[:i] + (lam[i] + family.t, lam[i + 1] - family.t) + lam[i + 2:])
        for mu in enumerate_partitions(n, r):
            if kostka(mu, lam):
                yield [(mu, alpha) for alpha in weights]


def _assert_same_models(batch, p, singles):
    build_weight_space.cache_clear()  # so every slice of the batch is generated in the pass
    for (mu, alpha), model in zip(batch, weyl.build_weight_spaces(batch, p)):
        key = (mu, alpha, p)
        if key not in singles:
            singles[key] = build_weight_space.__wrapped__(mu, alpha, p)
        single = singles[key]
        assert model.monomials == single.monomials, key
        assert model.relation_rank == single.relation_rank, key
        assert model.normal_form.dtype == single.normal_form.dtype, key
        assert model.normal_form.shape == single.normal_form.shape, key
        assert model.normal_form.tobytes() == single.normal_form.tobytes(), key


def test_batched_models_match_single_builds():
    singles = {}
    batches = 0
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for r in range(1, 7):
                for batch in _oracle_batches(n, r):
                    _assert_same_models(batch, p, singles)
                    batches += len(batch) > 1
    # one pass over two shapes, and the n = 5, r = 15 slice beside a
    # neighbour, whose keys overflow int64
    mixed = [((3, 2, 1, 0), (2, 2, 1, 1)), ((4, 1, 1, 0), (2, 2, 1, 1)), ((4, 1, 1, 0), (3, 1, 1, 1)),
             ((3, 2, 1, 0), (3, 2, 1, 0))]
    wide = [((11, 2, 1, 1, 0), (10, 2, 1, 1, 1)), ((11, 2, 1, 1, 0), (11, 2, 1, 1, 0)),
            ((12, 1, 1, 1, 0), (10, 2, 1, 1, 1))]
    for p in (2, 3, 5):
        _assert_same_models(mixed, p, singles)
        _assert_same_models(wide, p, singles)
    assert batches > 100


def test_verify_hom_bound_generates_each_slice_once_and_keeps_no_prefetch(monkeypatch, capsys):
    # over a small verify --theorem 6.1 grid from cold memos, each slice's
    # relations are generated once, only for a slice that is then built
    from weylkit.cli import main

    for memo in (build_weight_space, act_matrix, act_matrix_simple, gram_data):
        memo.cache_clear()
    generated = Counter()
    passes = []
    real = weyl._box_relations

    def counting(slices, p):
        generated.update((mu, alpha, p) for mu, alpha in slices)
        passes.append(len(slices))
        return real(slices, p)

    monkeypatch.setattr(weyl, "_box_relations", counting)
    for p in (2, 3):
        for r in (4, 5):
            for lam in enumerate_partitions(3, r):
                for mu in enumerate_partitions(3, r):
                    argv = ["verify", "--theorem", "6.1", "--p", str(p), "--d", "1",
                            "--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu))]
                    assert main(argv) in (0, 1), argv
    capsys.readouterr()
    assert max(generated.values()) == 1
    assert sum(generated.values()) == build_weight_space.cache_info().currsize
    assert max(passes) > 1


def test_act_matrix_leaves_the_product_memo_alone():
    # act_matrix reads the unmemoised product; the memo is for the chain
    # arrows and SchurElement products
    act_matrix.cache_clear()
    before = xi_product_terms.cache_info().currsize
    for p in (2, 3):
        for lam in enumerate_partitions(4, 6):
            for mu in enumerate_partitions(4, 6):
                hom_dim_oracle(lam, mu, p)
    assert act_matrix.cache_info().currsize > 100
    assert xi_product_terms.cache_info().currsize == before


def test_act_matrix_matches_the_column_by_column_sum():
    # each column is the sum of the target classes of the product terms of
    # xi_w with one source tableau
    checked = 0
    for p in (2, 3):
        for n, r in ((2, 4), (3, 4), (4, 4)):
            comps = enumerate_compositions(n, r)
            for mu in enumerate_partitions(n, r)[1:]:
                for a, b in itertools.product(comps, comps):
                    for w in enumerate_omega(a, b)[::3]:
                        src, tgt = build_weight_space(mu, b, p), build_weight_space(mu, a, p)
                        expected = np.zeros((tgt.dim, src.dim), dtype=np.int64)
                        for j, tab in enumerate(src.sst):
                            for m, c in xi_product_terms(w, tab.to_matrix(), p):
                                expected[:, j] = (expected[:, j] + c * tgt.monomial_class(m)) % p
                        got = act_matrix(w, mu, p)
                        assert got.shape == expected.shape and np.array_equal(got, expected), (w, mu, p)
                        checked += 1
    assert checked > 500


@pytest.mark.parametrize("mu, alpha", [
    ((3, 2, 1), (2, 2, 2)),
    ((4, 2, 1, 1), (2, 2, 2, 2)),
    ((11, 2, 1, 1, 0), (10, 2, 1, 1, 1)),  # keys past int64
    (plus_shift_composition((2, 1, 0), 40, 2), plus_shift_composition((1, 1, 1), 40, 2)),
])
def test_monomial_class_is_the_normal_form_row(mu, alpha):
    model = build_weight_space(mu, alpha, 3)
    big = len(mu) == 5 or max(mu) > 2**40
    assert (model.keys.dtype == object) == big
    assert (np.diff(model.keys) > 0).all()
    for i, w in enumerate(model.monomials):
        assert np.array_equal(model.monomial_class(w), model.normal_form[i]), (w, i)
    w = [list(row) for row in model.monomials[-1]]
    w[-1][-1] += 1  # the same key, other margins
    with pytest.raises(KeyError):
        model.monomial_class(w)


def test_box_relations_reject_a_pass_over_two_row_counts():
    with pytest.raises(ValueError, match="one number of rows"):
        weyl._box_relations([((2, 1), (2, 1)), ((2, 1, 0), (2, 1, 0))], 3)


def test_box_relation_rank_example():
    model = build_weight_space((2, 1, 0), (1, 1, 1), 3)
    assert len(model.monomials) - model.relation_rank == 2
    assert model.relation_rank == len(model.monomials) - kostka((2, 1, 0), (1, 1, 1))


def test_build_weight_space_examples():
    for p in (2, 3):
        mu = (3, 1)
        model = build_weight_space(mu, mu, p)
        assert model.dim == 1
        assert model.sst[0] == Tableau(diagonal_matrix(mu))
        # the end-of-range sharpness pair
        zero = build_weight_space((2, 2), (1, 3), p)
        assert zero.dim == 0
        shifted = build_weight_space(
            plus_shift_composition((2, 2), 1, p), plus_shift_composition((1, 3), 1, p), p
        )
        assert shifted.dim == 1
        u_plus = Tableau.from_entries([[1, 2], [2, 2]], 2).plus_shift(1, p)
        assert np.any(shifted.monomial_class(u_plus.to_matrix()))


def test_kostka_dimension_assertion_grid():
    for p in (2, 3, 5):
        for n in (2, 3):
            for r in range(1, 7):
                for mu in enumerate_partitions(n, r):
                    for alpha in enumerate_compositions(n, r):
                        model = build_weight_space(mu, alpha, p)
                        assert model.dim == kostka(mu, alpha), (mu, alpha, p)


def test_straighten_semistandard_is_unit_vector():
    model = build_weight_space((3, 2, 0), (2, 2, 1), 3)
    for i, tab in enumerate(model.sst):
        coords = straighten(tab, 3)
        expected = np.zeros(model.dim, dtype=np.int64)
        expected[i] = 1
        assert np.array_equal(coords, expected)


def test_straighten_sharpness_witness():
    u = Tableau.from_entries([[1, 2], [2, 2]], 2)
    for p in (2, 3):
        assert straighten(u, p).size == 0  # the whole weight slice vanishes
        shifted = u.plus_shift(1, p)
        coords = straighten(shifted, p)
        assert coords.size == 1 and coords[0] != 0


def test_straighten_closed_form_example():
    u = Tableau.from_entries([[1, 2], [1, 2]], 2)
    coords = straighten(u, 3, (2, 2))
    model = build_weight_space((2, 2), (2, 2), 3)
    assert model.sst == (Tableau.from_entries([[1, 1], [2, 2]], 2),)
    assert coords.tolist() == [1]  # -2 = 1 mod 3


def test_straighten_shape_mismatch():
    u = Tableau.from_entries([[1, 2], [2, 2]], 2)
    with pytest.raises(ValueError):
        straighten(u, 2, (3, 1))


def test_two_row_vanishing_branch():
    # top and bottom 1s overflowing the first row kill the class
    t = Tableau.from_entries([[1, 1], [1, 2]], 2)
    assert not np.any(two_row_straighten(t, (2, 2), 3))


def test_two_row_trivial_branch():
    t = Tableau.from_entries([[1, 2], [2, 3]], 3)
    mu = (2, 2, 0)
    coords = two_row_straighten(t, mu, 5)
    model = build_weight_space(mu, t.weight, 5)
    assert coords[model.sst.index(t)] == 1 and np.count_nonzero(coords) == 1


def test_two_row_agrees_with_relation_space():
    for p in (2, 3):
        for r in range(1, 7):
            shapes = [m for m in enumerate_partitions(2, r)]
            shapes += [m + (0,) for m in enumerate_partitions(2, r)]
            for mu in shapes:
                n = len(mu)
                for alpha in enumerate_compositions(n, r):
                    for w in enumerate_omega(alpha, mu):
                        tab = Tableau(w)
                        closed = two_row_straighten(tab, mu, p)
                        reduced = straighten(tab, p, mu)
                        assert np.array_equal(closed, reduced), (mu, alpha, w, p)


def test_straightening_shift_compatibility():
    # coefficients of a tableau class and of its shifted class agree
    # entrywise under the tableau bijection, when mu_2 <= alpha_1
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                for mu in enumerate_partitions(n, r):
                    for alpha in enumerate_compositions(n, r):
                        if (mu[1] if n > 1 else 0) > alpha[0]:
                            continue
                        model = build_weight_space(mu, alpha, p)
                        shifted = build_weight_space(
                            plus_shift_composition(mu, 1, p),
                            plus_shift_composition(alpha, 1, p),
                            p,
                        )
                        mapping = [shifted.sst.index(t.plus_shift(1, p)) for t in model.sst]
                        for w in model.monomials:
                            v = model.monomial_class(w)
                            vs = shifted.monomial_class(Tableau(w).plus_shift(1, p).to_matrix())
                            assert all(v[i] == vs[mapping[i]] for i in range(len(v)))


def test_linear_combination_shift_equivalence():
    # random linear combinations vanish exactly when the shifted ones do
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice((2, 3))
        r = rng.randint(2, 5)
        mu = rng.choice(enumerate_partitions(2, r))
        alphas = [a for a in enumerate_compositions(2, r) if mu[1] <= a[0]]
        alpha = rng.choice(alphas)
        model = build_weight_space(mu, alpha, p)
        shifted = build_weight_space(
            plus_shift_composition(mu, 1, p), plus_shift_composition(alpha, 1, p), p
        )
        coeffs = [rng.randrange(p) for _ in model.monomials]
        total = np.zeros(model.dim, dtype=np.int64)
        total_shifted = np.zeros(shifted.dim, dtype=np.int64)
        for c, w in zip(coeffs, model.monomials):
            total = (total + c * model.monomial_class(w)) % p
            ws = Tableau(w).plus_shift(1, p).to_matrix()
            total_shifted = (total_shifted + c * shifted.monomial_class(ws)) % p
        assert bool(np.any(total)) == bool(np.any(total_shifted))


# ---------------------------------------------------------------------------
# action


def test_act_diagonal_identity():
    mu, beta, p = (3, 1), (2, 2), 3
    model = build_weight_space(mu, beta, p)
    m = act_matrix(diagonal_matrix(beta), mu, p)
    assert np.array_equal(m, np.eye(model.dim, dtype=np.int64))


def test_act_on_highest_vector_gives_monomial_class():
    mu, p = (2, 1, 0), 3
    for alpha in enumerate_compositions(3, 3):
        for w in enumerate_omega(alpha, mu):
            model = build_weight_space(mu, alpha, p)
            image = act_matrix(w, mu, p) @ np.ones(1, dtype=np.int64) % p
            assert np.array_equal(image, model.monomial_class(w))


def test_act_module_axiom_random():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        p = rng.choice((2, 3))
        r = rng.randint(1, 4)
        comps = enumerate_compositions(2, r)
        mu = rng.choice(enumerate_partitions(2, r))
        a, b, c = (rng.choice(comps) for _ in range(3))
        ws, pis = enumerate_omega(a, b), enumerate_omega(b, c)
        if not ws or not pis:
            continue
        w, pi = rng.choice(ws), rng.choice(pis)
        src = build_weight_space(mu, c, p)
        if src.dim == 0:
            continue
        v = np.array([rng.randrange(p) for _ in range(src.dim)], dtype=np.int64)
        lhs = np.zeros(build_weight_space(mu, a, p).dim, dtype=np.int64)
        for m, coef in xi_product(w, pi, p).terms:
            lhs = (lhs + coef * (act_matrix(m, mu, p) @ v)) % p
        rhs = act_matrix(w, mu, p) @ (act_matrix(pi, mu, p) @ v % p) % p
        assert np.array_equal(lhs, rhs)
        checked += 1


# ---------------------------------------------------------------------------
# gram, radical, simple head


def test_gram_examples():
    assert gram_data((3, 1), (3, 1), 5).gram.tolist() == [[1]]
    g2 = gram_data((2, 0), (1, 1), 2)
    assert g2.gram.tolist() == [[0]] and g2.radical_dim == 1
    g3 = gram_data((2, 0), (1, 1), 3)
    assert g3.gram.tolist() == [[2]] and g3.radical_dim == 0
    empty = gram_data((2, 2), (1, 3), 2)
    assert empty.gram.shape == (0, 0) and empty.radical_dim == 0


def test_gram_data_accepts_lists():
    # list arguments are normalised to tuples before the cache lookup
    from_lists = gram_data([3, 1, 0], [2, 1, 1], 3)
    from_tuples = gram_data((3, 1, 0), (2, 1, 1), 3)
    assert from_lists.mu == (3, 1, 0) and from_lists.alpha == (2, 1, 1)
    for name in ("gram", "projection"):
        assert np.array_equal(getattr(from_lists, name), getattr(from_tuples, name))
    assert from_lists.pivots == from_tuples.pivots
    assert gram_data.cache_info().currsize >= 1


def test_weight_space_and_action_accept_lists():
    # lists, and rows given as lists, are normalised to tuples before the
    # cache lookup
    from_lists = build_weight_space([3, 1, 0], [2, 1, 1], 3)
    from_tuples = build_weight_space((3, 1, 0), (2, 1, 1), 3)
    assert from_lists.mu == (3, 1, 0) and from_lists.alpha == (2, 1, 1)
    assert from_lists.monomials == from_tuples.monomials
    assert from_lists.sst == from_tuples.sst and from_lists.dim == 2
    assert np.array_equal(from_lists.normal_form, from_tuples.normal_form)
    w = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    expected = act_matrix(w, (3, 1, 0), 3)
    assert expected.shape == (2, 2) and expected.any()
    for w_given in ([list(row) for row in w], tuple(list(row) for row in w)):
        assert np.array_equal(act_matrix(w_given, [3, 1, 0], 3), expected)
    assert np.array_equal(act_matrix([[1, 0], [1, 0]], [2, 0], 2),
                          act_matrix(((1, 0), (1, 0)), (2, 0), 2))
    assert build_weight_space.cache_info().currsize >= 1
    assert act_matrix.cache_info().currsize >= 1


def test_simple_action_accepts_lists():
    assert act_matrix_simple([[1, 0], [1, 0]], [2, 0], 2).shape == (0, 1)
    w = ((1, 1), (0, 0))
    expected = act_matrix_simple(w, (2, 0), 3)
    assert expected.shape == (1, 1) and expected.any()
    assert np.array_equal(act_matrix_simple([list(row) for row in w], [2, 0], 3), expected)
    assert act_matrix_simple.cache_info().currsize >= 1


def test_simple_action_is_induced_on_the_quotient():
    # projecting and then acting on the simple head equals acting on the
    # Weyl module and then projecting
    checked = 0
    for p in (2, 3):
        for n, top in ((2, 4), (3, 3)):
            for r in range(1, top + 1):
                comps = enumerate_compositions(n, r)
                for mu in enumerate_partitions(n, r):
                    for a, b in itertools.product(comps, comps):
                        for w in enumerate_omega(a, b):
                            src, tgt = gram_data(mu, margin1(w), p), gram_data(mu, margin2(w), p)
                            lhs = act_matrix_simple(w, mu, p) @ src.projection % p
                            rhs = tgt.projection @ act_matrix(w, mu, p) % p
                            assert np.array_equal(lhs, rhs), (w, mu, p)
                            checked += 1
    assert checked > 1500


def test_gram_symmetric_and_radical_semisimple_case():
    # p > r: every Gram matrix is nonsingular
    p, r = 5, 3
    for mu in enumerate_partitions(2, r):
        for alpha in enumerate_compositions(2, r):
            data = gram_data(mu, alpha, p)
            assert np.array_equal(data.gram, data.gram.T)
            assert data.radical_dim == 0


def test_contravariance():
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            comps = enumerate_compositions(2, r)
            for mu in enumerate_partitions(2, r):
                for a in comps:
                    for b in comps:
                        for w in enumerate_omega(a, b):
                            src = gram_data(mu, b, p)
                            tgt = gram_data(mu, a, p)
                            m = act_matrix(w, mu, p)
                            mt = act_matrix(transpose_matrix(w), mu, p)
                            assert np.array_equal(
                                (m.T @ tgt.gram) % p, (src.gram @ mt) % p
                            ), (mu, w, p)


def test_radical_is_submodule():
    for p in (2, 3):
        for r in (2, 3, 4):
            comps = enumerate_compositions(2, r)
            for mu in enumerate_partitions(2, r):
                for a in comps:
                    for b in comps:
                        for w in enumerate_omega(a, b):
                            src = gram_data(mu, b, p)
                            if src.radical_dim == 0:
                                continue
                            tgt = gram_data(mu, a, p)
                            image = (act_matrix(w, mu, p) @ kernel_basis_mod(src.gram, p).T) % p
                            assert not np.any((tgt.gram @ image) % p)


def test_simple_weight_dims_examples():
    assert simple_weight_dims((2, 0), 2) == {(2, 0): 1, (1, 1): 0, (0, 2): 1}
    for p in (2, 3, 5):
        for mu in enumerate_partitions(3, 4):
            dims = simple_weight_dims(mu, p)
            assert dims[mu] == 1


def test_p_kostka_shift_equality():
    # partitions alpha with alpha_1 >= r/2 and p^d > r - alpha_1
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                for mu in enumerate_partitions(n, r):
                    for alpha in enumerate_partitions(n, r):
                        if not dominates(mu, alpha):
                            continue
                        if 2 * alpha[0] < r or p <= r - alpha[0]:
                            continue
                        left = simple_dim(mu, alpha, p)
                        right = simple_dim(
                            plus_shift_composition(mu, 1, p),
                            plus_shift_composition(alpha, 1, p),
                            p,
                        )
                        assert left == right, (mu, alpha, p)


def test_radical_invariant_under_global_scaling():
    from weylkit.linalg import kernel_basis_mod

    data = gram_data((2, 1, 0), (1, 1, 1), 2)
    for scale in (1, 2):
        scaled = (scale * data.gram) % 3
        assert kernel_basis_mod(scaled, 3).shape[0] == kernel_basis_mod(data.gram % 3, 3).shape[0]
