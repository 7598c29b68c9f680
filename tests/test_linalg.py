"""Sparse storage and sparse rank mod p against the dense RREF oracle."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.ext import HomComplex, build_hom_complex, build_hook_hom_complex
from weylkit.linalg import SparseMod, _pivots, complex_ranks, rank_mod, rref_mod
from weylkit.shapes import dominates, enumerate_partitions, linked

from helpers import to_dense

ROOT = Path(__file__).resolve().parents[1]


def dense_rank(mat: np.ndarray, p: int) -> int:
    return len(rref_mod(mat, p)[1]) if mat.size else 0


@st.composite
def entry_lists(draw):
    """(p, shape, rows, cols, vals) with fill up to 40 % and repeated positions."""
    p = draw(st.sampled_from([2, 3, 5]))
    shape = (draw(st.integers(0, 12)), draw(st.integers(0, 12)))
    if 0 in shape:
        return p, shape, [], [], []
    fill = draw(st.floats(0, 0.4))
    position = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    size = round(fill * shape[0] * shape[1])
    positions = draw(st.lists(position, min_size=size, max_size=size))
    positions += draw(st.lists(st.sampled_from(positions), max_size=5)) if positions else []
    vals = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=len(positions), max_size=len(positions)))
    rows = [r for r, _ in positions]
    cols = [c for _, c in positions]
    return p, shape, rows, cols, vals


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_sparse_rank_matches_dense_rref(case):
    p, shape, rows, cols, vals = case
    dense = np.zeros(shape, dtype=np.int64)
    np.add.at(dense, (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)), vals)
    dense %= p
    mat = SparseMod.from_entries(shape, rows, cols, vals, p)
    assert mat.shape == shape
    assert np.array_equal(to_dense(mat), dense)
    assert mat.nnz == np.count_nonzero(dense)
    # canonical form: strictly increasing row-major positions, values in [1, p)
    keys = mat.rows * max(shape[1], 1) + mat.cols
    assert np.all(np.diff(keys) > 0)
    assert np.all((mat.vals >= 1) & (mat.vals < p))
    assert mat == SparseMod.from_dense(dense, p)
    assert rank_mod(mat, p) == dense_rank(dense, p)
    assert rank_mod(dense, p) == dense_rank(dense, p)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes(shape):
    mat = SparseMod.from_entries(shape, [], [], [], 3)
    assert mat.shape == shape and mat.nnz == 0
    assert to_dense(mat).shape == shape
    assert rank_mod(mat, 3) == 0
    assert rank_mod(np.zeros(shape, dtype=np.int64), 3) == 0


def test_entries_outside_shape_rejected():
    with pytest.raises(ValueError):
        SparseMod.from_entries((2, 2), [2], [0], [1], 3)
    with pytest.raises(ValueError):
        SparseMod.from_entries((2, 2), [0], [-1], [1], 3)


def test_low_rank_products_with_fill_in():
    # products B @ C of sparse factors: rank below both sizes, and
    # elimination has to create and cancel entries
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(10):
            k = int(rng.integers(1, 15))
            b = rng.integers(0, p, (40, k)) * (rng.random((40, k)) < 0.2)
            c = rng.integers(0, p, (k, 50)) * (rng.random((k, 50)) < 0.2)
            dense = b @ c % p
            assert rank_mod(SparseMod.from_dense(dense, p), p) == dense_rank(dense, p)


def _chain_grid():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 6):
                parts = enumerate_partitions(n, r)
                for lam, mu in itertools.product(parts, parts):
                    for target in ("weyl", "simple"):
                        for max_degree in (None, 0, 1, 2):
                            yield build_hom_complex(lam, mu, p, target, max_degree)


def _hook_grid():
    for p in (2, 3):
        for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for mu in enumerate_partitions(b + 1, a + b):
                yield build_hook_hom_complex(a, b, mu, p)
    for args in [(4, 2, (6, 0, 0, 0), 2), (3, 3, (4, 2, 0, 0), 3), (2, 4, (4, 2, 0, 0, 0), 3)]:
        yield build_hook_hom_complex(*args)


def test_rank_of_every_grid_differential_matches_dense():
    # each differential alone by rank_mod, and the whole complex by the
    # sweep of diff_ranks, whose skipped rows are dependent only when
    # diffs[k+1] @ diffs[k] == 0
    checked = 0
    for hc in itertools.chain(_chain_grid(), _hook_grid()):
        case = (hc.lam, hc.mu, hc.p, hc.target, hc.report_degree)
        assert hc.check_dsquare(), case
        dense = [dense_rank(to_dense(d), hc.p) for d in hc.diffs]
        for d, rank in zip(hc.diffs, dense):
            assert isinstance(d, SparseMod)
            assert rank_mod(d, hc.p) == rank, case
            checked += 1
        assert hc.diff_ranks() == dense, case
    assert checked > 100


def test_sweep_skips_nonzero_dependent_rows():
    # C^0 = F^2 -> C^1 = F^3 -> C^2 = F^1.  The one pivot column of diffs[1]
    # is its highest, 2, so the sweep drops row 2 of diffs[0], which is
    # nonzero but minus row 1.  Dropping row 0, the index of the pivot
    # row rather than of its column, would lose rank.
    p = 3
    d0 = np.array([[1, 0], [0, 1], [0, p - 1]], dtype=np.int64)
    d1 = np.array([[0, 1, 1]], dtype=np.int64)
    assert not (d1 @ d0 % p).any() and d0[2].any()
    assert dense_rank(d0[1:], p) == 1
    assert complex_ranks([d0, d1], p) == [2, 1] == [dense_rank(d, p) for d in (d0, d1)]
    sparse = [SparseMod.from_dense(d, p) for d in (d0, d1)]
    assert complex_ranks(sparse, p) == [2, 1]
    hc = HomComplex((2, 1), (3, 0), p, "weyl", 2, 2, [[], [], []], [2, 3, 1], sparse)
    assert hc.check_dsquare()
    assert hc.ext_dims() == [0, 0, 0]


def test_sweep_matches_rank_of_each_differential_on_a_larger_grid():
    # past the sizes where dense rref fits: n = 4, r <= 7, dominated and
    # linked pairs (an unlinked complex is exact, and the grids above have
    # those too)
    checked = 0
    for r in range(1, 8):
        parts = enumerate_partitions(4, r)
        for lam, mu in itertools.product(parts, parts):
            for p, target in itertools.product((2, 3), ("weyl", "simple")):
                if not (dominates(mu, lam) and linked(lam, mu, p)):
                    continue
                hc = build_hom_complex(lam, mu, p, target)
                assert hc.diff_ranks() == [rank_mod(d, p) for d in hc.diffs], (lam, mu, p, target)
                checked += len(hc.diffs)
    assert checked > 1000


@pytest.mark.parametrize("limit, taken, pivots", [
    (None, 6, [0, 1, 2, 3]),  # every row, the two that reduce to zero too
    (0, 0, []),
    (1, 1, [0]),
    (2, 3, [0, 1]),  # the second row reduces to zero on the way
    (3, 4, [0, 1, 2]),
    (4, 6, [0, 1, 2, 3]),
    (9, 6, [0, 1, 2, 3]),  # a limit above the rank reads every row
])
def test_pivots_stop_at_the_limit(limit, taken, pivots):
    rows = [{0: 2}, {0: 1}, {1: 1, 0: 1}, {2: 2, 1: 1}, {2: 1, 1: 2, 0: 2}, {3: 1}]
    read = []

    def counted():
        for row in rows:
            read.append(row)
            yield dict(row)

    found = _pivots(counted(), 3, limit=limit)
    assert len(read) == taken
    assert sorted(found) == pivots
    assert all(found[col][col] == 1 and max(found[col]) == col for col in found)


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, weylkit, weylkit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
