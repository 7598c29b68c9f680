import hashlib
import itertools
import json

import pytest

import weylkit.resolutions
from weylkit.cli import main
from weylkit.linalg import SparseMod, complex_ranks
from weylkit.resolutions import (
    BoxFamily,
    _merge_table,
    box_presentation,
    chain_arrows,
    hook_resolution,
    is_hook,
    sy_arrows,
    sy_degree,
    sy_max_degree,
)
from weylkit.shapes import (
    chain_space,
    enumerate_partitions,
    enumerate_strictly_dominating,
    enumerate_theta,
    matrix_margins,
    plus_shift_composition,
)


def test_sy_degree_examples():
    assert sy_degree((2, 1), 0) == [((2, 1), ())]
    layer = sy_degree((1, 1), 1)
    assert len(layer) == 1
    assert layer[0].top_weight == (2, 0)
    assert layer[0].chain == (((1, 1), (0, 0)),)
    assert sy_degree((4, 0), 1) == []
    assert sy_degree((4, 0), 3) == []


def _chain_space_grid():
    # every partition with n <= 4 parts and total r <= 7, and its shifts by p = 2, 3
    for n in range(1, 5):
        for r in range(8):
            for lam in enumerate_partitions(n, r):
                shifts = [plus_shift_composition(lam, 1, p) for p in (2, 3)] if r else []
                yield from [lam] + shifts


def test_sy_degree_multiplicities_match_chain_counts():
    lam = (2, 1, 0)
    for k in range(1, sy_max_degree(lam) + 1):
        layer = sy_degree(lam, k)
        for alpha in enumerate_strictly_dominating(lam):
            got = sum(1 for s in layer if s.top_weight == alpha)
            assert got == chain_space(lam).count(alpha, k) == len(chain_space(lam).chains(alpha, k))
    for mu in _chain_space_grid():
        space = chain_space(mu)
        for alpha in space.tops:
            for k in range(space.max_length() + 2):
                assert space.count(alpha, k) == len(space.chains(alpha, k)), (mu, alpha, k)


def test_sy_arrows_degree_one():
    summand = sy_degree((1, 1), 1)[0]
    arrows = sy_arrows(summand.chain, 2)
    assert arrows == [((), summand.chain[0], 1)]  # compose onto the empty chain of lam


def test_sy_arrows_merge_margins():
    lam = (1, 1, 1)
    for summand in sy_degree(lam, 2):
        arrows = sy_arrows(summand.chain, 3)
        composes = [a for a in arrows if a[1] is not None]
        merges = [a for a in arrows if a[1] is None]
        assert composes == [(summand.chain[1:], summand.chain[0], 1)]
        for target, _step, _scalar in merges:
            (merged,) = target
            w1, w2 = summand.chain
            assert matrix_margins(merged)[1] == matrix_margins(w1)[1]
            assert matrix_margins(merged)[0] == matrix_margins(w2)[0]


def test_sy_arrows_match_theta_enumeration():
    # one merge arrow per linking tensor with a nonzero structure constant,
    # coefficients grouped by the merged matrix
    from weylkit.schur import structure_constant_int

    lam = (1, 1, 1)
    p = 5
    for summand in sy_degree(lam, 2):
        w1, w2 = summand.chain
        expected = {}
        for theta in enumerate_theta(w1, w2):
            c = structure_constant_int(theta, p)
            if c:
                n = len(theta)
                mid = tuple(
                    tuple(sum(theta[s][t][q] for t in range(n)) for q in range(n))
                    for s in range(n)
                )
                expected[mid] = (expected.get(mid, 0) - c) % p  # sign (-1)^1
        got = {}
        for target, step, scalar in sy_arrows(summand.chain, p):
            if step is None:
                (merged,) = target
                got[merged] = (got.get(merged, 0) + scalar) % p
        assert got == expected


def test_hook_resolution_terms():
    res = hook_resolution(2, 2)
    assert res.degree(0) == ((2, 1, 1),)
    assert set(res.degree(1)) == {(2, 2), (3, 1)}
    assert res.degree(2) == ((4,),)
    assert res.degree(3) == ()

    assert hook_resolution(4, 0).degree(0) == ((4,),)

    for a, b in [(1, 3), (2, 3), (3, 2), (5, 0)]:
        res = hook_resolution(a, b)
        for i in range(b + 1):
            for alpha in res.degree(i):
                assert sum(alpha) == a + b
                assert a <= alpha[0] <= a + i
                assert all(x >= 1 for x in alpha)
                assert all(x <= i + 1 for x in alpha[1:])

    # positive compositions of a + b into b + 1 - i parts with first part in
    # [a, a + i], in descending order
    for a in range(1, 7):
        for b in range(6):
            res = hook_resolution(a, b)
            for i in range(b + 1):
                length = b + 1 - i
                parts = range(1, a + b + 2 - length)  # the other parts are at least 1
                brute = sorted(
                    (c for c in itertools.product(parts, repeat=length)
                     if sum(c) == a + b and a <= c[0] <= a + i),
                    reverse=True,
                )
                assert res.degree(i) == tuple(brute), (a, b, i)

    # a hook shifted by 2^12: the terms are bounded by the first part's
    # range, not listed from every composition of a + b
    res = hook_resolution(4098, 3)
    assert res.degree(0) == ((4098, 1, 1, 1),)
    assert res.degree(1) == ((4099, 1, 1), (4098, 2, 1), (4098, 1, 2))
    assert len(res.degree(2)) == 3 and res.degree(2)[0] == (4100, 1)
    assert res.degree(3) == ((4101,),)


def test_hook_resolution_rejects_bad_input():
    with pytest.raises(ValueError):
        hook_resolution(0, 1)


def test_box_presentation_examples():
    for p in (2, 3, 5):
        assert box_presentation((4,), p) == []
        assert box_presentation((1, 1), p) == [BoxFamily(1, 1, (2, 0))]
        assert box_presentation((2, 1), p) == [BoxFamily(1, 1, (3, 0))]
    assert box_presentation((3, 2, 1), 2) == [
        BoxFamily(1, 1, (4, 1, 1)),
        BoxFamily(1, 2, (5, 0, 1)),
        BoxFamily(2, 1, (3, 3, 0)),
    ]
    # t runs over the powers of p up to the lower row, so p = 3 drops t = 2
    assert box_presentation((3, 2, 1), 3) == [BoxFamily(1, 1, (4, 1, 1)), BoxFamily(2, 1, (3, 3, 0))]
    # 41 families, t = 1, 2, 4, ..., 2^40, where every t would make 2^40
    rows = 2**40
    assert box_presentation((rows, rows), 2) == [
        BoxFamily(1, 2**j, (rows + 2**j, rows - 2**j)) for j in range(41)
    ]
    # at p = 1 the powers would never pass the lower row
    for p in (1, 4):
        with pytest.raises(ValueError, match="prime"):
            box_presentation((2, 1), p)


def test_is_hook():
    assert is_hook((3, 1, 1, 0))
    assert is_hook((4, 0))
    assert not is_hook((3, 2))
    assert not is_hook((0, 0))


def test_resolution_finiteness():
    for lam in [(2, 1, 0), (1, 1, 1), (3, 1)]:
        bound = sy_max_degree(lam)
        assert sy_degree(lam, bound + 1) == []
        if bound:
            assert sy_degree(lam, bound)


def _longest_by_counting(lam):
    # the largest k with a length-k chain from some top, found by listing
    # chains at every length until none is left
    space = chain_space(lam)
    tops = enumerate_strictly_dominating(lam)
    k = 0
    while any(len(space.chains(a, k + 1)) for a in tops):
        k += 1
    return k


def test_max_length_is_longest_chain():
    for mu in _chain_space_grid():
        length = chain_space(mu).max_length()
        assert length == _longest_by_counting(mu), mu
        assert sy_degree(mu, length + 1) == []
        if length:
            assert sy_degree(mu, length)


def test_degree_one_merge_homology_counts_the_generators_reaching_lam():
    # A merge arrow keeps the top weight, so the merge arrows alone form a
    # complex.  Degree-1 chains have no merge arrow out, so its degree-1
    # homology is the number of degree-1 chains less the rank of the merge
    # arrows out of degree 2.  It counts the divided powers E_{i,i+1}^(p^j)
    # that reach lam: one per (i, j) with p^j <= lam_{i+1}.
    cases = 0
    for n in (2, 3, 4):
        for r in range(1, 9):
            for lam in enumerate_partitions(n, r):
                space = chain_space(lam)
                degrees = min(3, space.max_length() + 1)
                # chain counts and first chain numbers of degrees 0, 1, 2
                counts = space.starts[:, -1].tolist() + [0, 0]
                starts = space.chain_starts.tolist() + [0]
                for p in (2, 3, 5):
                    rows, cols, keys, vals = chain_arrows(lam, p, degrees)
                    merge = keys >= len(space.steps)  # all of them out of degree 2
                    arrows = SparseMod.from_entries(
                        (counts[2], counts[1]),
                        rows[merge] - starts[2],
                        cols[merge] - starts[1],
                        vals[merge],
                        p,
                    )
                    generators = sum(p**j <= lam[i] for i in range(1, n) for j in range(lam[i].bit_length()))
                    assert counts[1] - complex_ranks([arrows], p)[0] == generators, (lam, p)
                    # one relation family of the box presentation per generator
                    assert len(box_presentation(lam, p)) == generators, (lam, p)
                    cases += 1
    assert cases == 348


def test_merge_table_rejects_a_product_that_is_no_step(monkeypatch):
    # every merged matrix must be found among the steps, whole: one moved
    # box in a product has no step id and raises
    space = chain_space((2, 1, 1))
    assert len(_merge_table(space, 3, space.max_length() + 1)[2])

    def moved(ws, pis, p):
        starts, products, values = weylkit.schur._xi_products(ws, pis, p)
        products = products.copy()
        products[-1, 0, 0] -= 1
        products[-1, 1, 0] += 1
        return starts, products, values

    monkeypatch.setattr(weylkit.resolutions, "_xi_products", moved)
    with pytest.raises(KeyError, match="is not a step"):
        _merge_table(space, 3, space.max_length() + 1)


# recorded before the chain layout moved behind ChainSpace: resolution
# length, per-degree totals and sha256 of the JSON of
# ``resolve-info --max-degree 20``
RESOLVE_INFO_PINS = {
    "3,2,1": (4, [1, 8, 16, 12, 3],
              "c60a1de857bbc043181104ed662ad9836859ee9915d85123c86fe1fe1040f9fc"),
    "2,2,2,1": (9, [1, 71, 781, 3484, 8234, 11460, 9724, 4943, 1380, 162],
                "ca32defb4d7d656ba9f08e0797cb36f5ff6db18834c8396ff7b48807084b3cf0"),
    "1,1,1,1": (6, [1, 23, 107, 206, 195, 90, 16],
                "c06607cf590f174f584b60c36aece25d1ea16281965541057db7ded33179dd87"),
}


@pytest.mark.parametrize("lam", sorted(RESOLVE_INFO_PINS))
def test_resolve_info_pinned(capsys, lam):
    code = main(["resolve-info", "--lambda", lam, "--max-degree", "20", "--format", "json"])
    text = capsys.readouterr().out.strip()
    assert code == 0
    length, totals, digest = RESOLVE_INFO_PINS[lam]
    payload = json.loads(text)
    assert payload["resolution_length"] == length
    assert [deg["total"] for deg in payload["degrees"]] == totals
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of repr([sy_degree(lam, k) for k in 0..length+1]), recorded with the pins above
SY_DEGREE_PINS = {
    (3, 2, 1): "efe81444472faa7e590da7c3d8a350b3ffc1d16699aa488bf757a9c8b0ebfb60",
    (2, 2, 2, 1): "423eae74e8518ff818c4c079226bdc4a5f52ae91d9f8936ed44b205efb9d5d98",
}


@pytest.mark.parametrize("lam", sorted(SY_DEGREE_PINS))
def test_sy_degree_layout_pinned(lam):
    layers = [sy_degree(lam, k) for k in range(sy_max_degree(lam) + 2)]
    assert hashlib.sha256(repr(layers).encode()).hexdigest() == SY_DEGREE_PINS[lam]
