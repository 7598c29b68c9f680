import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import weylkit.ext
from weylkit.ext import (
    HomComplex,
    ResourceLimitError,
    TheoremViolationError,
    build_hom_complex,
    build_hook_hom_complex,
    check_hypotheses,
    compute_ext,
    euler_check,
    hom_dim_oracle,
    hook_ext_crosscheck,
    verify_complex_isomorphism,
    verify_hom_bound,
    verify_periodicity,
)
from weylkit.linalg import SparseMod
from weylkit.resolutions import _merge_table, chain_arrows, is_hook, sy_arrows, sy_degree
from weylkit.shapes import (
    INT32_MAX,
    ChainSpace,
    chain_space,
    contingency_array,
    dominates,
    enumerate_partitions,
    enumerate_sst,
    linked,
    matrix_margins,
    pad,
    plus_shift_composition,
    sst_indices,
    transpose_matrix,
)
from weylkit.weyl import _sub_vectors, act_matrix, act_matrix_simple

from helpers import (
    basis_elements,
    dominated_pairs,
    hom_dim_oracle_every_t,
    merge_table_by_pairs,
    numbered_grid,
    to_dense,
    tuple_bases_match,
)


def test_complex_dims_worked_example():
    hc = build_hom_complex((1, 1), (2, 0), 2)
    assert hc.dims[:2] == [1, 1]
    assert hc.ext_dims() == [1, 1]
    assert hc.check_dsquare()


def test_zero_complex_when_mu_does_not_dominate():
    hc = build_hom_complex((2, 0), (1, 1), 2)
    assert hc.ext_dims() == [0]
    assert [s.tolist() for s in hc.summands] == [[]]
    assert euler_check(hc) == (True, True)


def test_end_ring_is_one_dimensional():
    for p in (2, 3):
        for n in (2, 3):
            for r in (2, 3, 4):
                for lam in enumerate_partitions(n, r):
                    assert build_hom_complex(lam, lam, p, max_degree=0).ext_dims()[0] == 1
                    assert hom_dim_oracle(lam, lam, p) == 1


def test_ext0_matches_hom_oracle():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                parts = enumerate_partitions(n, r)
                for lam, mu in itertools.product(parts, parts):
                    if not dominates(mu, lam):
                        continue
                    oracle = hom_dim_oracle(lam, mu, p)
                    sy = build_hom_complex(lam, mu, p, max_degree=0).ext_dims()[0]
                    assert oracle == sy, (lam, mu, p)


def test_hom_oracle_reported_dimensions():
    assert hom_dim_oracle((8, 3), (11, 0), 3) == 1
    assert hom_dim_oracle((11, 3), (14, 0), 3) == 0
    assert hom_dim_oracle((1, 1, 1, 1), (2, 2, 0, 0), 3) == 1
    assert hom_dim_oracle((4, 1, 1, 1), (5, 2, 0, 0), 3) == 0


def test_hom_oracle_of_p_power_families_matches_every_t():
    # the hom-oracle bench grid: every ordered pair of partitions with n = 4
    # and r in {6, 7, 8} at p in {2, 3}, and its shift by p at (1, 1); the
    # relations of every t <= lam_{i+1} kill no more than those of t = p^j
    values = nonzero = 0
    for r in (6, 7, 8):
        parts = enumerate_partitions(4, r)
        for p in (2, 3):
            for lam, mu in itertools.product(parts, parts):
                for pair in ((lam, mu), (plus_shift_composition(lam, 1, p), plus_shift_composition(mu, 1, p))):
                    dim = hom_dim_oracle(*pair, p)
                    assert dim == hom_dim_oracle_every_t(*pair, p), (pair, p)
                    values += 1
                    nonzero += dim > 0
    assert (values, nonzero) == (1708, 370)


def test_hom_oracle_caps_the_relation_entries_of_every_slice(monkeypatch):
    # one entry per monomial, row pair and nonzero vector of boxes moved back
    # out of the next column, as _box_relations lists them, summed over every
    # slice the oracle asks for, whether an earlier call built it or not
    requested = []
    build, cap = weylkit.ext.build_weight_spaces, weylkit.ext.MAX_RELATION_ENTRIES
    monkeypatch.setattr(weylkit.ext, "build_weight_spaces",
                        lambda slices, p: requested.extend(slices) or build(slices, p))
    for lam, mu, p in [((2, 1, 1), (3, 1, 0), 2), ((3, 2, 0), (4, 1, 0), 3),
                       ((1, 1, 1, 1), (2, 2, 0, 0), 3)]:
        requested.clear()
        monkeypatch.setattr(weylkit.ext, "MAX_RELATION_ENTRIES", cap)
        dim = hom_dim_oracle(lam, mu, p)
        entries = 0
        for shape, alpha in dict.fromkeys(requested):
            columns = contingency_array(alpha, shape)[:, :, 1:].transpose(0, 2, 1)
            entries += len(_sub_vectors(columns.reshape(-1, len(shape)))[0])
        assert len(requested) > 1 and entries > 0
        monkeypatch.setattr(weylkit.ext, "MAX_RELATION_ENTRIES", entries)
        assert hom_dim_oracle(lam, mu, p) == dim
        monkeypatch.setattr(weylkit.ext, "MAX_RELATION_ENTRIES", entries - 1)
        with pytest.raises(ResourceLimitError, match=f"needs {entries} relation entries"):
            hom_dim_oracle(lam, mu, p)


@pytest.mark.parametrize("deadline", [2], indirect=True)
def test_hom_oracle_stops_at_the_first_slice_past_the_entry_cap(monkeypatch, deadline):
    # the first of the 1,001 slices of (1000,500,500) -> (1200,800,0) has
    # 2.4e12 entries; counting every slice before the check held 9.4 GB of
    # them and ended in MemoryError
    counted = []
    monkeypatch.setattr(weylkit.ext, "contingency_array",
                        lambda *margins: counted.append(margins) or contingency_array(*margins))
    with pytest.raises(ResourceLimitError, match=r"needs 2395384571490 relation entries"):
        hom_dim_oracle((1000, 500, 500), (1200, 800, 0), 3)
    assert counted == [((1000, 500, 500), (1200, 800, 0))]


def test_hom_oracle_builds_nothing_for_a_zero_weight_slice(monkeypatch):
    # when mu does not dominate lam, the weight-lam slice of Weyl(mu) is zero
    monkeypatch.setattr(weylkit.ext, "build_weight_spaces", _raise_if_called)
    pairs = [(upper, lower) for lower, upper in dominated_pairs(3, 5) if lower != upper]
    assert len(pairs) == 10
    for lam, mu in pairs:
        for p in (2, 3):
            assert hom_dim_oracle(lam, mu, p) == 0, (lam, mu, p)


def test_semisimple_regime():
    # p > r: Hom is the identity pairing and higher Ext vanishes
    p, r = 5, 3
    parts = enumerate_partitions(2, r)
    for lam, mu in itertools.product(parts, parts):
        if not dominates(mu, lam):
            continue
        dims = build_hom_complex(lam, mu, p).ext_dims()
        assert dims[0] == (1 if lam == mu else 0)
        assert all(d == 0 for d in dims[1:])


def test_dsquare_zero_everywhere():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                parts = enumerate_partitions(n, r)
                for lam, mu in itertools.product(parts, parts):
                    for target in ("weyl", "simple"):
                        hc = build_hom_complex(lam, mu, p, target)
                        assert hc.check_dsquare(), (lam, mu, p, target)


def _two_term_complex(p: int, value: int) -> HomComplex:
    # F -> F^2 -> F with d0 = (1, 1)^T and d1 = (1, value): d1 . d0 = 1 + value
    d0 = SparseMod.from_entries((2, 1), [0, 1], [0, 0], [1, 1], p)
    d1 = SparseMod.from_entries((1, 2), [0, 0], [0, 1], [1, value], p)
    return HomComplex((1, 1), (1, 1), p, "weyl", 2, 2, [[], [], []], [1, 2, 1], [d0, d1])


def test_check_dsquare_detects_nonzero_composite():
    assert not _two_term_complex(3, 1).check_dsquare()  # 2 != 0 mod 3
    assert not _two_term_complex(5, 3).check_dsquare()  # 4 != 0 mod 5
    assert _two_term_complex(3, 2).check_dsquare()  # 3 = 0 mod 3
    assert _two_term_complex(2, 1).check_dsquare()  # 2 = 0 mod 2


def test_dense_blocks_never_allocated():
    # the dense int64 differentials would take 8 * sum dims[k] * dims[k+1]
    # bytes (77 MB here); the sparse build must stay far below that
    tracemalloc.start()
    try:
        hc = build_hom_complex((3, 3, 3), (9, 0, 0), 3, "simple")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = 8 * sum(a * b for a, b in zip(hc.dims, hc.dims[1:]))
    assert dense > 50 * 2**20
    assert peak < dense / 4, (peak, dense)


def test_euler_characteristic_identity():
    for p in (2, 3):
        for r in (2, 3, 4):
            parts = enumerate_partitions(2, r)
            for lam, mu in itertools.product(parts, parts):
                hc = build_hom_complex(lam, mu, p)
                applicable, holds = euler_check(hc)
                assert applicable and holds
                truncated = build_hom_complex(lam, mu, p, max_degree=0)
                if truncated.natural_length > 1:
                    assert euler_check(truncated)[0] is False


def test_check_hypotheses_examples():
    flags = check_hypotheses((8, 3), (11, 0), 3, 1, "1.1.1")
    assert flags["pd_gt_r_minus_l1"] is False and not flags["all_hold"]
    flags = check_hypotheses((8, 3), (11, 0), 3, 2, "1.1.1")
    assert flags["pd_gt_r_minus_l1"] and flags["mu2_le_l1"] and flags["all_hold"]
    flags = check_hypotheses((1, 1), (1, 1), 2, 1, "1.1.2")
    assert flags["pd_gt_r_minus_l1"] and flags["l1_ge_half_r"] and flags["all_hold"]
    flags = check_hypotheses((1, 1, 1, 1), (2, 2, 0, 0), 3, 1, "6.1")
    assert flags["pd_gt_min_l2_m1_minus_l1"] and not flags["mu2_le_l1"]
    flags = check_hypotheses((2, 1, 1), (4, 0, 0), 2, 1, "6.4")
    assert flags["lambda_is_hook"] and flags["max_degree_covered"] == 1
    with pytest.raises(ValueError):
        check_hypotheses((1, 1), (2, 0), 2, 1, "9.9")


def test_verify_periodicity_cases():
    rep = verify_periodicity((2, 1), (2, 1), 2, 1, "weyl")
    assert rep["verdict"] == "PASS" and rep["hypotheses"]["all_hold"]
    rep = verify_periodicity((1, 1), (2, 0), 2, 1, "simple")
    assert rep["verdict"] == "PASS"
    rep = verify_periodicity((8, 3), (11, 0), 3, 1, "weyl")
    assert rep["verdict"] == "SHARPNESS"
    assert rep["ext_dims"][0] == 1 and rep["shifted_ext_dims"][0] == 0


def test_verify_hom_bound_sharpness_witnesses():
    rep = verify_hom_bound((8, 3), (11, 0), 3, 1)
    assert rep["verdict"] == "SHARPNESS"
    assert rep["ext_dims"] == [1] and rep["shifted_ext_dims"] == [0]
    rep = verify_hom_bound((1, 1, 1, 1), (2, 2, 0, 0), 3, 1)
    assert rep["verdict"] == "SHARPNESS"
    assert rep["ext_dims"] == [1] and rep["shifted_ext_dims"] == [0]
    rep = verify_hom_bound((2, 1), (3, 0), 3, 1)
    assert rep["verdict"] == "PASS"


def test_hom_bound_grid():
    # degree-0 equality under the improved bound, oracle on both sides
    for p in (2, 3):
        for d in (1, 2):
            for n in (2, 3):
                for r in range(2, 6):
                    parts = enumerate_partitions(n, r)
                    for lam, mu in itertools.product(parts, parts):
                        flags = check_hypotheses(lam, mu, p, d, "6.1")
                        if not flags["all_hold"]:
                            continue
                        rep = verify_hom_bound(lam, mu, p, d)
                        assert rep["verdict"] == "PASS", (lam, mu, p, d, rep)


def test_verify_complex_isomorphism_cases():
    rep = verify_periodicity((1, 1), (2, 0), 2, 1, "weyl")["isomorphism"]
    assert rep["all_equal"] and not rep["refused"]
    rep = verify_periodicity((2, 1), (2, 1), 3, 1, "weyl")["isomorphism"]
    assert rep["all_equal"]
    # hypotheses fail: the bijection need not be defined, so no check runs
    rep = verify_periodicity((1, 1, 1, 1), (2, 2, 0, 0), 3, 1, "weyl")
    assert not rep["hypotheses"]["all_hold"] and "isomorphism" not in rep
    # the simple target has no entrywise check
    assert "isomorphism" not in verify_periodicity((1, 1), (2, 0), 2, 1, "simple")


def test_verify_ranks_the_shifted_complex_only_when_no_isomorphism_is_proved(monkeypatch):
    # once verify_complex_isomorphism has shown the two complexes equal, the
    # shifted side takes the unshifted ranks: one complex_ranks call a
    # verify, two when the hypotheses fail or the target is simple
    calls = []
    ranks = weylkit.ext.complex_ranks
    monkeypatch.setattr(weylkit.ext, "complex_ranks", lambda diffs, p: calls.append(p) or ranks(diffs, p))
    held = 0
    for p in (2, 3):
        for lam, mu in dominated_pairs(3, 5):
            for target in ("weyl", "simple"):
                calls.clear()
                report = verify_periodicity(lam, mu, p, 1, target)
                proved = target == "weyl" and report["hypotheses"]["all_hold"]
                assert len(calls) == (1 if proved else 2), (lam, mu, p, target)
                assert (list(report)[-1] == "isomorphism") == proved
                if proved:
                    held += 1
                    shifted = build_hom_complex(report["shifted_lambda"], report["shifted_mu"], p)
                    assert report["shifted_ext_dims"] == shifted.ext_dims(), (lam, mu, p)
    assert held > 10


@pytest.mark.parametrize("side", ["here", "there"])
def test_complex_isomorphism_catches_one_altered_entry(monkeypatch, side):
    build = weylkit.ext.build_hom_complex
    calls = []

    def altered_build(*args, **kwargs):
        hc = build(*args, **kwargs)
        calls.append(hc)
        if len(calls) == (1 if side == "here" else 2):
            k = max(k for k, d in enumerate(hc.diffs) if d.nnz)
            d = hc.diffs[k]
            vals = d.vals.copy()
            vals[-1] += 1
            hc.diffs[k] = SparseMod.from_entries(d.shape, d.rows, d.cols, vals, hc.p)
        return hc

    case = ((2, 1, 1), (4, 0, 0), 3, 1, "weyl")
    assert verify_periodicity(*case)["isomorphism"]["all_equal"]
    monkeypatch.setattr(weylkit.ext, "build_hom_complex", altered_build)
    # matched on the entrywise message, so that a FAIL of the dimension
    # comparison cannot stand in for the isomorphism check
    with pytest.raises(TheoremViolationError, match="entrywise"):
        verify_periodicity(*case)
    assert len(calls) == 2


def _reverse_summands(hc: HomComplex, k: int):
    """The same complex with degree k's summands in reverse order: the rows
    of diffs[k-1] and columns of diffs[k] moved along with their slices."""
    space = chain_space(hc.lam)
    tops = np.searchsorted(space.starts[k], hc.summands[k], side="right") - 1
    dims = [weylkit.ext._weight_dim(hc.mu, space.tops[t], hc.p, hc.target) for t in tops.tolist()]
    offsets = np.cumsum([0] + dims)
    old_of_new = np.concatenate([np.arange(a, b) for a, b in zip(offsets, offsets[1:])][::-1])
    new_of_old = np.argsort(old_of_new)
    hc.summands[k] = hc.summands[k][::-1]
    if k > 0:
        a = hc.diffs[k - 1]
        hc.diffs[k - 1] = SparseMod.from_entries(a.shape, new_of_old[a.rows], a.cols, a.vals, hc.p)
    if k < len(hc.diffs):
        b = hc.diffs[k]
        hc.diffs[k] = SparseMod.from_entries(b.shape, b.rows, new_of_old[b.cols], b.vals, hc.p)


def test_complex_isomorphism_rejects_a_reordered_basis(monkeypatch):
    # both complexes list their bases by one rule, so the shifted basis must
    # match in order; a reordered but isomorphic complex is a different layout
    build = weylkit.ext.build_hom_complex
    calls = []

    def reordered_build(*args, **kwargs):
        hc = build(*args, **kwargs)
        calls.append(hc)
        if len(calls) == 2:
            k = max(range(hc.stored_degrees()), key=lambda k: len(hc.summands[k]))
            assert len(hc.summands[k]) > 1
            dims = hc.ext_dims()
            _reverse_summands(hc, k)
            hc._ranks = None
            assert hc.check_dsquare() and hc.ext_dims() == dims
        return hc

    case = ((2, 1, 1), (4, 0, 0), 3, 1, "weyl")
    monkeypatch.setattr(weylkit.ext, "build_hom_complex", reordered_build)
    with pytest.raises(TheoremViolationError, match="basis") as exc:
        verify_periodicity(*case)
    assert set(exc.value.report) == {"degree"}
    assert len(calls) == 2


def _isomorphism_case(lam, mu, p, d):
    """(here, there, flags): the two Weyl-target complexes of a pair and its
    shift by p^d, and the 1.1.1 flags, which must all hold."""
    flags = check_hypotheses(lam, mu, p, d, "1.1.1")
    assert flags["all_hold"]
    there = build_hom_complex(plus_shift_composition(lam, d, p), plus_shift_composition(mu, d, p), p)
    return build_hom_complex(lam, mu, p), there, flags


def test_complex_isomorphism_rejects_an_altered_step(monkeypatch):
    here, there, flags = _isomorphism_case((2, 1, 1), (4, 0, 0), 3, 1)
    assert verify_complex_isomorphism(here, there, 1, flags)["all_equal"]
    altered = ChainSpace(there.lam)
    steps = altered.steps.copy()
    steps[-1, 0, 1] += 1
    altered.steps = steps
    monkeypatch.setattr(weylkit.ext, "chain_space",
                        lambda lam: altered if lam == there.lam else chain_space(lam))
    with pytest.raises(TheoremViolationError, match="basis") as exc:
        verify_complex_isomorphism(here, there, 1, flags)
    assert exc.value.report == {"layout": "steps"}


def test_complex_isomorphism_rejects_reordered_tableaux(monkeypatch):
    # the degree-0 summand's top, lam, has two tableaux of shape mu
    here, there, flags = _isomorphism_case((2, 1, 1), (3, 1, 0), 3, 1)
    assert verify_complex_isomorphism(here, there, 1, flags)["all_equal"]
    top = there.lam
    assert len(sst_indices(there.mu, top)) == 2

    def reordered(mu, alpha):
        positions = sst_indices(mu, alpha)
        return positions[::-1] if (mu, alpha) == (there.mu, top) else positions

    monkeypatch.setattr(weylkit.ext, "sst_indices", reordered)
    with pytest.raises(TheoremViolationError, match="basis") as exc:
        verify_complex_isomorphism(here, there, 1, flags)
    assert exc.value.report == {"degree": 0}


def test_array_basis_check_agrees_with_the_tuple_bases():
    # on the numbered grid, wherever the 1.1.1 hypotheses hold, the arrays
    # compared pass exactly where the bases spelled out in tuples are equal
    cases = 0
    for lam, mu, p in numbered_grid():
        for d in (1, 2):
            flags = check_hypotheses(lam, mu, p, d, "1.1.1")
            if not flags["all_hold"]:
                continue
            here, there, _ = _isomorphism_case(lam, mu, p, d)
            try:
                passed = verify_complex_isomorphism(here, there, d, flags)["all_equal"]
            except TheoremViolationError as exc:
                assert "basis" in str(exc), (lam, mu, p, d)
                passed = False
            assert passed == tuple_bases_match(here, there, d), (lam, mu, p, d)
            cases += 1
    assert cases == 1465


def test_periodicity_exhaustive_small_grid():
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            parts = enumerate_partitions(2, r)
            for lam, mu in itertools.product(parts, parts):
                flags = check_hypotheses(lam, mu, p, 1, "1.1.1")
                if flags["all_hold"]:
                    rep = verify_periodicity(lam, mu, p, 1, "weyl")
                    assert rep["verdict"] == "PASS"
                    assert rep["isomorphism"]["all_equal"]
                flags = check_hypotheses(lam, mu, p, 1, "1.1.2")
                if flags["all_hold"]:
                    assert verify_periodicity(lam, mu, p, 1, "simple")["verdict"] == "PASS"


def test_hook_complex_matches_chain_resolution():
    for p in (2, 3):
        rep = hook_ext_crosscheck(2, 1, (2, 1, 0), p)
        assert rep["methods_agree"] and rep["vanishing_beyond_b"]
        assert rep["stated_bound_holds"] and rep["supported_bound_holds"]
    rep = hook_ext_crosscheck(3, 0, (2, 1), 2)
    assert rep["hook_ext_dims"][0] == hom_dim_oracle((3, 0), (2, 1), 2)


def test_hook_shifted_equality_worked_example():
    # (a, b) = (2, 2) against mu = (2, 1, 1) in four rows: degree-1 shifted
    # equality holds at p = 2, d = 1
    rep = hook_ext_crosscheck(2, 2, (2, 1, 1, 0), 2, shift_ds=(1,))
    check = rep["shifted_checks"][0]
    row = check["degrees"][1]
    assert row["stated"] and row["equal"]
    assert rep["methods_agree"] and rep["vanishing_beyond_b"]


def test_hook_stated_bound_boundary_witness():
    # the preset's per-degree bound admits a boundary failure at
    # p^d = i + 1: degree-1 dims differ while 2^1 > 1
    rep = hook_ext_crosscheck(2, 2, (4, 0, 0, 0), 2, shift_ds=(1, 2))
    assert rep["methods_agree"] and rep["vanishing_beyond_b"]
    d1 = rep["shifted_checks"][0]
    assert d1["ext_dims"][1] == 1 and d1["shifted_ext_dims"][1] == 0
    assert not d1["stated_bound_holds"]
    assert d1["supported_bound_holds"]
    d2 = rep["shifted_checks"][1]
    assert d2["stated_bound_holds"] and d2["supported_bound_holds"]


def test_hook_complex_degree_zero_is_hom():
    # single-column and general hooks: kernel at degree zero equals the oracle
    for p in (2, 3):
        for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            n = b + 1
            lam = pad((a,) + (1,) * b, n)
            for mu in enumerate_partitions(n, a + b):
                hook = build_hook_hom_complex(a, b, mu, p)
                assert hook.ext_dims()[0] == hom_dim_oracle(lam, mu, p), (a, b, mu, p)
                assert hook.check_dsquare()


def _diffs_digest(complex_) -> str:
    h = hashlib.sha256()
    for d in complex_.diffs:
        h.update(repr(d.shape).encode())
        h.update(np.ascontiguousarray(to_dense(d), dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def test_hook_complex_differentials_pinned():
    # the matrices themselves, not only the Ext dims: over F_2 a wrong split
    # sign keeps every dim; digests recorded when build_hook_hom_complex
    # still had its own assembly loop
    cases = [
        ((2, 2, (4, 0, 0, 0), 2), [1, 2, 1], "4f6e4813c1bdcf13"),
        ((4, 2, (6, 0, 0, 0), 2), [1, 2, 1], "4404d367ef2e509e"),
        ((3, 3, (4, 2, 0, 0), 3), [3, 5, 2, 0], "b84d66ab34493119"),
        ((2, 4, (3, 3, 0, 0, 0), 2), [3, 7, 5, 1, 0], "f8613d29ff1498dc"),
        ((2, 4, (4, 2, 0, 0, 0), 3), [6, 15, 12, 3, 0], "1e0d904895a1193b"),
    ]
    for args, dims, digest in cases:
        hook = build_hook_hom_complex(*args)
        assert hook.dims == dims and _diffs_digest(hook) == digest, args


def test_hook_complex_input_validation():
    with pytest.raises(ValueError):
        build_hook_hom_complex(2, 2, (4, 0), 2)  # hook needs 3 rows
    with pytest.raises(ValueError):
        build_hook_hom_complex(2, 1, (2, 1, 1), 2)  # degree mismatch


def test_resource_caps(monkeypatch):
    with pytest.raises(ResourceLimitError, match="chain layout"):
        build_hom_complex((3, 3, 3, 3, 3), (15, 0, 0, 0, 0), 2)
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", 0)
    with pytest.raises(ResourceLimitError):
        build_hom_complex((2, 1, 0), (3, 0, 0), 2)


def test_complex_size_cap_edge(monkeypatch):
    # the cap bounds the chains and the basis elements summed over every
    # stored degree; (3,2,1) -> (4,2,0) stores all 5 degrees
    lam, mu = (3, 2, 1), (4, 2, 0)
    chains = int(chain_space(lam).profiles.sum())
    basis = sum(build_hom_complex(lam, mu, 3).dims)
    assert (chains, basis) == (40, 8)
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", chains)
    assert sum(build_hom_complex(lam, mu, 3).dims) == basis
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", chains - 1)
    with pytest.raises(ResourceLimitError, match=f"degrees 0 to 4 need {chains} chains and "
                       f"{basis} basis elements, exceeding the cap {chains - 1}"):
        build_hom_complex(lam, mu, 3)


def test_chains_past_int32_numbers_are_refused():
    # (4,4,4,4) has 3.6e14 chains in degrees 0..24, past their int32
    # numbers, which used to wrap; a cap below INT32_MAX on the chains of
    # the whole complex refuses it, and any complex past those numbers
    assert weylkit.ext.MAX_COMPLEX_SIZE < INT32_MAX
    with pytest.raises(ResourceLimitError, match="degrees 0 to 24 need .* exceeding the cap"):
        build_hom_complex((4, 4, 4, 4), (16, 0, 0, 0), 2)


def test_max_degree_extends_with_zeros():
    hc = build_hom_complex((1, 1), (2, 0), 2, max_degree=5)
    assert hc.ext_dims() == [1, 1, 0, 0, 0, 0]


def test_cohomology_of_handmade_complexes():
    from weylkit.ext import HomComplex

    zero = HomComplex((2, 0), (1, 1), 2, "weyl", 2, 0, [[]], [0], [])
    assert zero.ext_dims() == [0, 0, 0]
    exact = HomComplex(
        (1, 1), (1, 1), 3, "weyl", 1, 1, [[], []], [2, 2], [np.eye(2, dtype=np.int64)]
    )
    assert exact.ext_dims() == [0, 0]


def test_rank_one_algebra():
    hc = build_hom_complex((4,), (4,), 3)
    assert hc.ext_dims() == [1]
    assert hom_dim_oracle((4,), (4,), 3) == 1


def test_complex_dimension_decomposition():
    # degree dimension is the sum of the weight-slice dimensions over the
    # chain summands with that degree
    from weylkit.shapes import chain_space, enumerate_strictly_dominating, kostka

    lam, mu, p = (1, 1, 1), (2, 1, 0), 3
    hc = build_hom_complex(lam, mu, p)
    for k in range(hc.stored_degrees()):
        if k == 0:
            expected = kostka(mu, lam)
        else:
            expected = sum(
                chain_space(lam).count(alpha, k) * kostka(mu, alpha)
                for alpha in enumerate_strictly_dominating(lam)
            )
        assert hc.dims[k] == expected


def _raise_if_called(*args, **kwargs):
    raise AssertionError("the linkage shortcut enumerated a chain")


def test_unlinked_shortcut_matches_the_full_build(monkeypatch):
    # every unlinked pair: the full build has zero Ext (the linkage
    # principle), and compute_ext returns its list and Euler verdict from
    # the counts alone, with no chain enumerated
    expected = {}
    for n, top_r in ((2, 8), (3, 6), (4, 5)):
        for r in range(1, top_r + 1):
            for lam, mu in dominated_pairs(n, r):
                for p in (2, 3, 5):
                    if linked(lam, mu, p):
                        continue
                    length = build_hom_complex(lam, mu, p, max_degree=0).natural_length
                    for max_degree in {None, 1, max(length - 1, 0)}:
                        for target in ("weyl", "simple"):
                            full = build_hom_complex(lam, mu, p, target, max_degree)
                            dims = full.ext_dims()
                            assert not any(dims), (lam, mu, p, target)
                            applicable, holds = euler_check(full)
                            expected[lam, mu, p, target, max_degree] = (
                                dims, holds if applicable else None)
    assert len(expected) == 930
    monkeypatch.setattr(weylkit.ext, "chain_arrows", _raise_if_called)
    monkeypatch.setattr(ChainSpace, "layer", _raise_if_called)
    for (lam, mu, p, target, max_degree), (dims, consistent) in expected.items():
        got = compute_ext(lam, mu, p, target, max_degree)
        assert got == (dims, consistent), (lam, mu, p, target, max_degree)
        euler = sum((-1) ** i * d for i, d in enumerate(got[0]))
        assert euler == sum((-1) ** i * d for i, d in enumerate(dims))


def test_linked_pairs_take_the_full_build():
    for lam, mu in dominated_pairs(3, 5):
        for p in (2, 3):
            if not linked(lam, mu, p):
                continue
            full = build_hom_complex(lam, mu, p, "simple")
            applicable, holds = euler_check(full)
            assert compute_ext(lam, mu, p, "simple") == (full.ext_dims(), holds)
            assert applicable


def test_unlinked_pairs_keep_the_size_caps(monkeypatch):
    # (2, 1) -> (3) is unlinked at p = 2: residues {1, 1} against {0, 0}
    assert not linked((2, 1), (3, 0), 2)
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", 0)
    with pytest.raises(ResourceLimitError):
        compute_ext((2, 1), (3, 0), 2)
    with pytest.raises(ValueError):
        compute_ext((2, 1), (3, 0), 2, max_degree=-1)


def _ext(cache: dict, lam, mu, p: int, target: str) -> list[int]:
    """Ext dims with trailing zeros removed; a pair of partitions of 0 has
    Ext [1] (the trivial module)."""
    if sum(lam) == 0:
        return [1]
    key = (lam, mu, p, target)
    if key not in cache:
        dims = build_hom_complex(lam, mu, p, target).ext_dims()
        while dims and dims[-1] == 0:
            dims.pop()
        cache[key] = dims
    return cache[key]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def test_row_removal_splits_ext():
    # Donkin's row removal: when the first k rows of lam and mu have the same
    # total, Ext^*(lam, mu) is the tensor product of Ext^* of the top k rows
    # and Ext^* of the remaining rows, so its dims are the convolution
    cache: dict = {}
    cases = 0
    for n in (3, 4):
        for r in range(2, 7):
            for lam, mu in dominated_pairs(n, r):
                for k in range(1, n):
                    if sum(lam[:k]) != sum(mu[:k]):
                        continue
                    for p in (2, 3):
                        for target in ("weyl", "simple"):
                            split = _convolve(_ext(cache, lam[:k], mu[:k], p, target),
                                              _ext(cache, lam[k:], mu[k:], p, target))
                            assert _ext(cache, lam, mu, p, target) == split, (lam, mu, k, p)
                            cases += 1
    assert cases == 816


def test_determinant_twist_keeps_ext():
    # tensoring with the determinant: subtracting 1 from every part of lam
    # and mu (both with a last part >= 1) leaves Ext unchanged
    cache: dict = {}
    cases = 0
    for n in (3, 4):
        for r in range(2, 7):
            for lam, mu in dominated_pairs(n, r):
                if lam[-1] < 1 or mu[-1] < 1:
                    continue
                lam1 = tuple(x - 1 for x in lam)
                mu1 = tuple(x - 1 for x in mu)
                for p in (2, 3):
                    for target in ("weyl", "simple"):
                        assert _ext(cache, lam, mu, p, target) == _ext(cache, lam1, mu1, p, target)
                        cases += 1
    assert cases == 64


# ---------------------------------------------------------------------------
# the numbered chain resolution against the per-chain arrows


def _diffs_from_sy_arrows(lam, mu, p, target, degrees):
    """The differentials of Hom(chain resolution of lam, M) laid out one
    chain at a time from ``sy_degree`` and ``sy_arrows``: summands with a
    zero-dimensional slice dropped, blocks the action matrix of the arrow's
    step or the identity, entries summed mod p."""
    act = act_matrix if target == "weyl" else act_matrix_simple
    offsets, dims = [], []
    for k in range(degrees):
        place, offset = {}, 0
        for top, chain in sy_degree(lam, k):
            d = weylkit.ext._weight_dim(mu, top, p, target)
            if d:
                place[chain] = (offset, d)
                offset += d
        offsets.append(place)
        dims.append(offset)
    diffs = []
    for k in range(degrees - 1):
        rows, cols, vals = [], [], []
        for chain, (row_off, d) in offsets[k + 1].items():
            for to, step, scalar in sy_arrows(chain, p):
                if to not in offsets[k]:
                    continue
                block = np.eye(d, dtype=np.int64) if step is None else act(step, mu, p)
                r, c = np.nonzero(block)
                rows.append(r + row_off)
                cols.append(c + offsets[k][to][0])
                vals.append(block[r, c] * scalar)
        pieces = [np.concatenate([np.zeros(0, dtype=np.int64), *part]) for part in (rows, cols, vals)]
        diffs.append(SparseMod.from_entries((dims[k + 1], dims[k]), *pieces, p))
    return dims, diffs


def test_numbered_differentials_match_the_per_chain_arrows():
    # the arrows compared are built here, not left in the memo by another test
    chain_arrows.cache_clear()
    cases = 0
    for lam, mu, p in numbered_grid():
        for target in ("weyl", "simple"):
            for max_degree in (1, None):
                hc = build_hom_complex(lam, mu, p, target, max_degree)
                dims, diffs = _diffs_from_sy_arrows(lam, mu, p, target, hc.stored_degrees())
                assert hc.dims == dims, (lam, mu, p, target)
                assert all(a == b for a, b in zip(hc.diffs, diffs, strict=True)), (lam, mu, p, target)
                if target == "weyl" and max_degree is None:
                    # the basis the isomorphism check compares, against sy_degree
                    for k in range(hc.stored_degrees()):
                        assert basis_elements(hc, k) == [
                            (chain, t.counts)
                            for top, chain in sy_degree(lam, k)
                            for t in enumerate_sst(mu, top)
                        ], (lam, mu, p, k)
            cases += 1
    assert cases == 2160


def test_truncated_arrows_are_the_full_arrows_cut_by_degree():
    # a truncated build multiplies only the step pairs its degrees reach,
    # yet lists exactly the full build's arrows out of those degrees
    cases = 0
    for lam, p in dict.fromkeys((lam, p) for lam, _, p in numbered_grid()):
        space = chain_space(lam)
        full = chain_arrows(lam, p, space.max_length() + 1)
        for degrees in range(1, space.max_length() + 1):
            cut = full[0] < space.chain_starts[degrees]
            for column, whole in zip(chain_arrows(lam, p, degrees), full, strict=True):
                assert column.dtype == np.int32
                assert np.array_equal(column, whole[cut]), (lam, p, degrees)
            cases += 1
    assert cases == 636


def test_merge_table_matches_the_per_pair_products():
    # the batched merge table against the table made pair by pair from
    # xi_product_terms, on every (lam, p, degrees) of the truncation test
    cases = 0
    for lam, p in dict.fromkeys((lam, p) for lam, _, p in numbered_grid()):
        space = chain_space(lam)
        for degrees in range(1, space.max_length() + 1):
            table = _merge_table(space, p, degrees)
            for column, expected in zip(table, merge_table_by_pairs(space, p, degrees), strict=True):
                assert column.dtype == expected.dtype
                assert np.array_equal(column, expected), (lam, p, degrees)
            cases += 1
    assert cases == 636


def test_prefix_counts_index_the_chains():
    # the prefix-count formula gives every chain its place in its top's
    # block, in the order of ChainSpace.chains: descending lex on the steps,
    # each step's matrix read row by row
    for n in (2, 3, 4):
        for r in range(1, 7):
            for lam in enumerate_partitions(n, r):
                space = chain_space(lam)
                for k in range(space.max_length() + 1):
                    chains, _ = space.layer(k)
                    for t, top in enumerate(space.tops):
                        block = chains[space.starts[k, t] : space.starts[k, t + 1]]
                        decoded = space.chains(top, k)
                        assert len(decoded) == space.count(top, k) == len(block)
                        assert list(decoded) == sorted(set(decoded), reverse=True)
                        index = space.prefix[block, np.arange(k - 1, -1, -1)].sum(axis=1)
                        assert index.tolist() == list(range(len(block)))


def test_action_blocks_only_for_arrows_between_nonzero_slices(monkeypatch):
    requested = []

    def recording(act, target):
        def call(w, mu, p):
            requested.append((w, mu, p, target))
            return act(w, mu, p)
        return call

    monkeypatch.setattr(weylkit.ext, "act_matrix", recording(act_matrix, "weyl"))
    monkeypatch.setattr(weylkit.ext, "act_matrix_simple", recording(act_matrix_simple, "simple"))
    cases = [((2, 2, 1), (4, 1, 0), 2), ((3, 2, 1), (5, 1, 0), 3), ((2, 1, 1), (4, 0, 0), 3)]
    for lam, mu, p in cases:
        for target in ("weyl", "simple"):
            build_hom_complex(lam, mu, p, target)
    assert requested
    for w, mu, p, target in requested:
        rows, cols = matrix_margins(w)[::-1]
        assert weylkit.ext._weight_dim(mu, rows, p, target) > 0
        assert weylkit.ext._weight_dim(mu, cols, p, target) > 0


def test_ext_into_the_dual_weyl_module_is_delta(monkeypatch):
    # Ext^i(Weyl(lam), dual Weyl(mu)) is F_p when i = 0 and lam = mu, and 0
    # otherwise (Jantzen, Representations of Algebraic Groups, II.4.13).  The
    # dual Weyl module is the contravariant dual of Weyl(mu) through the
    # transpose anti-automorphism: it has the same weight slices, and xi_w
    # acts on it as the transpose of xi_{w^T} on Weyl(mu).  A corrupted
    # differential tends to have maximal rank, which gives delta as well, so
    # d^2 = 0 is checked beside it.
    monkeypatch.setattr(weylkit.ext, "act_matrix",
                        lambda w, mu, p: act_matrix(transpose_matrix(w), mu, p).T)
    chain = hook = 0
    for n, top in ((2, 8), (3, 7), (4, 5)):
        for r in range(1, top + 1):
            for lam, mu in dominated_pairs(n, r):
                for p in (2, 3, 5):
                    hc = build_hom_complex(lam, mu, p)
                    assert hc.ext_dims() == [int(lam == mu)] + [0] * hc.report_degree, (lam, mu, p)
                    assert hc.check_dsquare(), (lam, mu, p)
                    chain += 1
                    if is_hook(lam):
                        b = sum(x > 0 for x in lam[1:])
                        hc = build_hook_hom_complex(lam[0], b, mu, p)
                        assert hc.ext_dims() == [int(lam == mu)] + [0] * b, (lam, mu, p)
                        assert hc.check_dsquare(), (lam, mu, p)
                        hook += 1
    assert (chain, hook) == (591, 285)
