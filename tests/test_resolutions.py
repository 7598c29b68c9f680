import pytest

from weylkit.resolutions import (
    BoxFamily,
    box_presentation,
    hook_resolution,
    hook_splits,
    is_hook,
    sy_arrows,
    sy_degree,
    sy_max_degree,
)
from weylkit.shapes import (
    chain_space,
    enumerate_strictly_dominating,
    enumerate_theta,
    matrix_margins,
)


def test_sy_degree_examples():
    assert sy_degree((2, 1), 0) == [((2, 1), ())]
    layer = sy_degree((1, 1), 1)
    assert len(layer) == 1
    assert layer[0].top_weight == (2, 0)
    assert layer[0].chain == (((1, 1), (0, 0)),)
    assert sy_degree((4, 0), 1) == []
    assert sy_degree((4, 0), 3) == []


def test_sy_degree_multiplicities_match_chain_counts():
    lam = (2, 1, 0)
    for k in range(1, sy_max_degree(lam) + 1):
        layer = sy_degree(lam, k)
        for alpha in enumerate_strictly_dominating(lam):
            got = sum(1 for s in layer if s.top_weight == alpha)
            assert got == chain_space(lam).count(alpha, k) == len(chain_space(lam).chains(alpha, k))


def test_sy_arrows_degree_one():
    summand = sy_degree((1, 1), 1)[0]
    arrows = sy_arrows(summand, 2)
    assert len(arrows) == 1
    assert arrows[0].kind == "compose"
    assert arrows[0].target == ((1, 1), ())


def test_sy_arrows_merge_margins():
    lam = (1, 1, 1)
    for summand in sy_degree(lam, 2):
        arrows = sy_arrows(summand, 3)
        composes = [a for a in arrows if a.kind == "compose"]
        merges = [a for a in arrows if a.kind == "merge"]
        assert len(composes) == 1
        for arrow in merges:
            merged = arrow.omega
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
        for arrow in sy_arrows(summand, p):
            if arrow.kind == "merge":
                got[arrow.omega] = (got.get(arrow.omega, 0) + arrow.scalar) % p
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


def test_hook_splits():
    assert hook_splits((4, 1), 0) == [(3, 1), (2, 2), (1, 3)]
    assert hook_splits((4, 1), 1) == []


def test_hook_resolution_rejects_bad_input():
    with pytest.raises(ValueError):
        hook_resolution(0, 1)


def test_box_presentation_examples():
    assert box_presentation((4,)) == []
    assert box_presentation((1, 1)) == [BoxFamily(1, 1, (2, 0))]
    assert box_presentation((2, 1)) == [BoxFamily(1, 1, (3, 0))]
    fams = box_presentation((3, 2, 1))
    assert fams == [
        BoxFamily(1, 1, (4, 1, 1)),
        BoxFamily(1, 2, (5, 0, 1)),
        BoxFamily(2, 1, (3, 3, 0)),
    ]


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
