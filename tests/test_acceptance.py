"""Acceptance suite: one test per criterion, every comparison exact.

Each criterion prints a PASS line on success (run with ``pytest -v -s
tests/test_acceptance.py`` to see them); failures surface as ordinary
assertion errors.  Stated runtime budgets are enforced.
"""

import itertools
import math
import time

import numpy as np

from weylkit.ext import (
    build_hom_complex,
    check_hypotheses,
    hom_dim_oracle,
    hook_ext_crosscheck,
    verify_periodicity,
)
from weylkit.fparith import binom_mod
from weylkit.linalg import kernel_basis_mod
from weylkit.schur import SchurElement, element_product, xi_product
from weylkit.shapes import (
    Tableau,
    chain_space,
    diagonal_matrix,
    dominates,
    enumerate_compositions,
    enumerate_omega,
    enumerate_partitions,
    enumerate_sst,
    enumerate_theta,
    kostka,
    matrix_margins,
    plus_shift_composition,
    plus_shift_matrix,
    transpose_matrix,
)
from weylkit.weyl import (
    act_matrix,
    build_weight_space,
    gram_data,
    straighten,
    two_row_straighten,
)

from helpers import plus_shift_tensor, upper_triangular


def report(criterion: str, started: float, budget: float, detail: str):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {elapsed:.1f}s)")


def test_criterion_1_hom_dimension_quadruple():
    cases = [
        ((8, 3), (11, 0), 1),
        ((11, 3), (14, 0), 0),
        ((1, 1, 1, 1), (2, 2, 0, 0), 1),
        ((4, 1, 1, 1), (5, 2, 0, 0), 0),
    ]
    started = time.monotonic()
    for lam, mu, expected in cases:
        t0 = time.monotonic()
        assert hom_dim_oracle(lam, mu, 3) == expected, (lam, mu)
        assert build_hom_complex(lam, mu, 3, max_degree=0).ext_dims()[0] == expected, (lam, mu)
        assert time.monotonic() - t0 < 10, (lam, mu, "single case over 10s")
    report("criterion 1 (Hom dimension quadruple over F_3)", started, 40, "4 cases, 2 methods")


def test_criterion_2_straightening_sharpness_witness():
    started = time.monotonic()
    u = Tableau.from_entries([[1, 2], [2, 2]], 2)
    for p in (2, 3):
        vanished = straighten(u, p, (2, 2))
        assert vanished.size == 0  # the weight slice itself is zero
        coords = straighten(u.plus_shift(1, p), p)
        assert coords.size > 0 and np.any(coords), p
    report("criterion 2 (tableau class vanishes, shifted class does not)", started, 10, "p in {2,3}")


def test_criterion_3_weyl_periodicity_exhaustive_grid():
    started = time.monotonic()
    checked = 0
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            parts = enumerate_partitions(2, r)
            for lam, mu in itertools.product(parts, parts):
                flags = check_hypotheses(lam, mu, p, 1, "1.1.1")
                if not flags["all_hold"]:
                    continue
                rep = verify_periodicity(lam, mu, p, 1, "weyl")
                assert rep["verdict"] == "PASS", (lam, mu, p, rep)
                assert rep["isomorphism"]["all_equal"], (lam, mu, p)
                checked += 1
    assert checked >= 30
    report("criterion 3 (weyl-target periodicity + complex isomorphism)", started, 120,
           f"{checked} hypothesis-satisfying pairs")


def test_criterion_4_simple_periodicity_grid():
    started = time.monotonic()
    checked = 0
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            parts = enumerate_partitions(2, r)
            for lam, mu in itertools.product(parts, parts):
                flags = check_hypotheses(lam, mu, p, 1, "1.1.2")
                if not flags["all_hold"]:
                    continue
                rep = verify_periodicity(lam, mu, p, 1, "simple")
                assert rep["verdict"] == "PASS", (lam, mu, p, rep)
                checked += 1
    assert checked >= 30
    report("criterion 4 (simple-target periodicity)", started, 120,
           f"{checked} hypothesis-satisfying pairs")


def _hook_grid():
    for r in range(2, 6):
        n = min(4, r)
        for b in range(0, min(3, r - 1) + 1):
            a = r - b
            if b + 1 > n:
                continue
            for mu in enumerate_partitions(n, r):
                for p in (2, 3):
                    yield a, b, mu, p


def test_criterion_5_hook_cross_resolution():
    started = time.monotonic()
    checked = 0
    reports = {}
    for a, b, mu, p in _hook_grid():
        rep = hook_ext_crosscheck(a, b, mu, p)
        reports[(a, b, mu, p)] = rep
        assert rep["methods_agree"], (a, b, mu, p)
        assert rep["vanishing_beyond_b"], (a, b, mu, p)
        checked += 1
    # the commuting-diagram argument's own bound p^d > min(i+1, b) holds
    # throughout (with the inherited hypothesis mu_2 <= lambda_1)
    for key, rep in reports.items():
        if rep["mu2_le_l1"]:
            assert rep["supported_bound_holds"], key
    report("criterion 5 (hook vs chain resolution, vanishing, supported shifted bound)",
           started, 300, f"{checked} (hook, mu, p) triples")


def test_criterion_5_shifted_equality_at_stated_bound():
    """Criterion 5's final clause exactly as stated: for d with p^d > i the
    shifted Ext dimensions agree degree by degree.

    This is knowingly red.  The stated per-degree bound fails on its
    boundary p^d = i + 1: both resolutions (and a hand computation of the
    binomial coefficients C(4;2,2) = 6 = 0 and C(6;4,2) = 15 = 1 mod 2)
    give Ext^1(hook (2,1,1), mu (4)) = 1 but Ext^1(hook (4,1,1), mu (6)) = 0
    at p = 2, d = 1, where 2^1 > 1.  The argument's stage-i differential
    carries coefficients from weights with parts up to i + 1, so the bound
    it actually supports is p^d > min(i + 1, b); that version passes
    exhaustively in test_criterion_5_hook_cross_resolution.
    """
    started = time.monotonic()
    witnesses = []
    for a, b, mu, p in _hook_grid():
        rep = hook_ext_crosscheck(a, b, mu, p)
        if not rep["mu2_le_l1"]:
            # inherited from the weyl-target periodicity hypotheses this
            # bound refines; without it the
            # degree-0 sharpness example already fails for any d
            continue
        for check in rep["shifted_checks"]:
            for row in check["degrees"]:
                if row["stated"] and not row["equal"]:
                    witnesses.append((a, b, mu, p, check["d"], row["degree"]))
    elapsed = time.monotonic() - started
    assert elapsed < 300
    if witnesses:
        print(f"ACCEPTANCE criterion 5 stated-bound clause: FAIL ({len(witnesses)} boundary "
              f"witnesses, {elapsed:.1f}s)")
    else:
        print(f"ACCEPTANCE criterion 5 stated-bound clause: PASS ({elapsed:.1f}s)")
    assert not witnesses, (
        "stated bound p^d > i fails on its boundary p^d = i + 1; witnesses "
        f"(a, b, mu, p, d, degree): {witnesses}"
    )


def test_criterion_6_property_suites():
    started = time.monotonic()

    # Lucas digits against the big-integer oracle
    for p in (2, 3, 5, 7):
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod(a, b, p) == math.comb(a, b) % p

    # product associativity (exhaustive n=2, random n=3), idempotent
    # absorption, anti-automorphism
    import random

    for p in (2, 3):
        for r in (1, 2, 3):
            comps = enumerate_compositions(2, r)
            mats = []
            seen = set()
            for aa in comps:
                for bb in comps:
                    for w in enumerate_omega(aa, bb):
                        if w not in seen:
                            seen.add(w)
                            mats.append(w)
            for x, y, z in itertools.product(mats, repeat=3):
                left = element_product(xi_product(x, y, p), SchurElement.basis(z, p))
                right = element_product(SchurElement.basis(x, p), xi_product(y, z, p))
                assert left.terms == right.terms
            for w in mats:
                assert xi_product(diagonal_matrix(matrix_margins(w)[1]), w, p).terms == (
                    (w, 1),
                )
    rng = random.Random(17)
    for _ in range(100):
        r = rng.randint(1, 4)
        p = rng.choice((2, 3))
        comps = enumerate_compositions(3, r)
        aa, bb, cc = (rng.choice(comps) for _ in range(3))
        ws, pis = enumerate_omega(aa, bb), enumerate_omega(bb, cc)
        if not ws or not pis:
            continue
        w, pi = rng.choice(ws), rng.choice(pis)
        assert xi_product(w, pi, p).transpose().terms == xi_product(
            transpose_matrix(pi), transpose_matrix(w), p
        ).terms

    # weight-space dimension equals the tableau count in every built model
    for p in (2, 3, 5):
        for n in (2, 3):
            for r in range(1, 7):
                for mu in enumerate_partitions(n, r):
                    for alpha in enumerate_compositions(n, r):
                        assert build_weight_space(mu, alpha, p).dim == kostka(mu, alpha)

    # closed-form two-row straightening against the relation space
    for p in (2, 3):
        for r in range(1, 7):
            for mu in enumerate_partitions(2, r):
                for alpha in enumerate_compositions(2, r):
                    for w in enumerate_omega(alpha, mu):
                        assert np.array_equal(
                            two_row_straighten(Tableau(w), mu, p), straighten(Tableau(w), p, mu)
                        )

    # chain-count shift equality and the linking-tensor shift bijection
    for p in (2, 3):
        for n in (2, 3):
            for r in (2, 3, 4):
                for lam in enumerate_partitions(n, r):
                    lam_s = plus_shift_composition(lam, 1, p)
                    for alpha in enumerate_compositions(n, r):
                        if alpha == lam or not dominates(alpha, lam):
                            continue
                        al_s = plus_shift_composition(alpha, 1, p)
                        k = 1
                        while True:
                            c = chain_space(lam).count(alpha, k)
                            assert c == chain_space(lam_s).count(al_s, k)
                            if c == 0:
                                break
                            k += 1
    for p in (2, 3):
        for n in (2, 3):
            r = 3 if n == 3 else 4
            comps = enumerate_compositions(n, r)
            uppers = [
                w for aa in comps for w in (diagonal_matrix(aa), *upper_triangular(aa))
            ]
            everything = {w for aa in comps for bb in comps for w in enumerate_omega(aa, bb)}
            for w in uppers:
                for pi in everything:
                    if matrix_margins(pi)[1] != matrix_margins(w)[0]:
                        continue
                    left = {plus_shift_tensor(t, 1, p) for t in enumerate_theta(w, pi)}
                    right = set(
                        enumerate_theta(plus_shift_matrix(w, 1, p), plus_shift_matrix(pi, 1, p))
                    )
                    assert left == right

    # Gram symmetry, contravariance, radical stability, semisimple regime
    for p in (2, 3):
        for r in (1, 2, 3, 4):
            comps = enumerate_compositions(2, r)
            for mu in enumerate_partitions(2, r):
                for aa in comps:
                    for bb in comps:
                        for w in enumerate_omega(aa, bb):
                            src, tgt = gram_data(mu, bb, p), gram_data(mu, aa, p)
                            assert np.array_equal(src.gram, src.gram.T)
                            m = act_matrix(w, mu, p)
                            mt = act_matrix(transpose_matrix(w), mu, p)
                            assert np.array_equal((m.T @ tgt.gram) % p, (src.gram @ mt) % p)
                            if src.radical_dim:
                                image = (m @ kernel_basis_mod(src.gram, p).T) % p
                                assert not np.any((tgt.gram @ image) % p)
    for mu in enumerate_partitions(2, 3):
        for alpha in enumerate_compositions(2, 3):
            data = gram_data(mu, alpha, 5)
            assert data.radical_dim == 0
            assert kernel_basis_mod(data.gram, 5).shape[0] == 0

    # complex sanity: d.d = 0 everywhere, degree-zero cohomology equals the
    # independent oracle, endomorphism rings are one-dimensional
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                parts = enumerate_partitions(n, r)
                for lam, mu in itertools.product(parts, parts):
                    hc = build_hom_complex(lam, mu, p)
                    assert hc.check_dsquare()
                    if dominates(mu, lam):
                        assert hc.ext_dims()[0] == hom_dim_oracle(lam, mu, p)
                for lam in parts:
                    assert build_hom_complex(lam, lam, p, max_degree=0).ext_dims()[0] == 1

    report("criterion 6 (property suites)", started, 300, "all exact subsuites")
