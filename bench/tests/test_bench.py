"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, draw_ops, op_key  # noqa: E402


def _refs() -> dict:
    return json.loads(run.REFERENCES.read_text(encoding="utf-8"))["ops"]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# self-time arithmetic

# root [0, 10] -> a [1, 4] -> b [2, 3]
#              -> c [5, 7]
#              -> a [8, 9]
SYNTHETIC = [
    (2, 1, "b", 2.0, 3.0),
    (1, 0, "a", 1.0, 4.0),
    (3, 0, "c", 5.0, 7.0),
    (4, 0, "a", 8.0, 9.0),
    (0, -1, "root", 0.0, 10.0),
]
EXPECTED_SELF = {"root": 10 - 3 - 2 - 1, "a": (3 - 1) + 1, "b": 1, "c": 2}


def test_self_times_reference_on_synthetic_tree():
    assert tracer.self_times(SYNTHETIC) == pytest.approx(EXPECTED_SELF)


def test_tracer_totals_match_reference():
    t = tracer.Tracer()
    for sid, parent, name, start, end in SYNTHETIC:
        t._stack.append((sid, t.name_id(name)))
        t.close(sid, t.name_id(name), parent, start, end)
    own, inclusive, count = t.totals()
    assert own == pytest.approx(EXPECTED_SELF)
    assert inclusive == pytest.approx({"b": 1, "a": 4, "c": 2, "root": 10})
    assert count == {"b": 1, "a": 2, "c": 1, "root": 1}


def test_wrap_records_nesting_and_skips_direct_recursion():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    inner_traced = t.wrap("inner", inner)

    def countdown(k):
        return inner_traced(k) if k == 0 else countdown_traced(k - 1)

    countdown_traced = t.wrap("outer", countdown)
    sizes = []
    outer = t.wrap("top", lambda k: countdown_traced(k),
                   inspect=lambda counts, args, result: sizes.append(result))
    t.op_id = 7
    assert outer(3) == 1
    spans = {name: (sid, parent, op) for sid, parent, name, op, _s, _e in t.spans()}
    assert set(spans) == {"inner", "outer", "top", tracer.INSPECT}
    assert spans["inner"][1] == spans["outer"][0]  # recursion collapsed into one span
    assert spans["outer"][1] == spans["top"][0]
    assert spans["top"][1] == -1
    assert all(op == 7 for _sid, _parent, op in spans.values())
    assert sizes == [1]


def test_install_patches_importing_namespaces_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    from weylkit import ext, linalg, weyl

    original_rank = linalg.rank_mod
    t = tracer.Tracer()
    undo, missing = tracer.install(t)
    try:
        assert missing == []
        assert ext.rank_mod is not original_rank
        assert linalg.rank_mod is original_rank  # rank_mod keeps its rref time
        assert weyl.rref_mod is not linalg.rref_mod
    finally:
        tracer.uninstall(undo)
    assert ext.rank_mod is original_rank
    assert weyl.rref_mod is linalg.rref_mod


# ---------------------------------------------------------------------------
# the workloads and their metrics


def test_benchmark_json_names_match_the_harness():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracer.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracer.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_op_has_a_reference_digest():
    refs = _refs()
    for workload in WORKLOADS.values():
        for argv in workload.grid + workload.tiny:
            assert op_key(argv) in refs


def test_seed_draws_order_only():
    workload = WORKLOADS["hom-oracle"]
    a, b, c = draw_ops(workload, 1, 0), draw_ops(workload, 2, 0), draw_ops(workload, 1, 1)
    assert a == draw_ops(workload, 1, 0)
    assert a != b and a != c
    assert sorted(a) == sorted(b) == sorted(c) == sorted(list(op) for op in workload.grid)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    record = run.run_workload(WORKLOADS[name], 3, 0.5, trace, _refs(), ROOT, tmp_path, tiny=True)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= len(WORKLOADS[name].tiny)
    expected = tracer.LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in record["metrics"].items()} == dict(expected)
    assert record["details"]["missing_trace_targets"] == []
    if trace:
        assert record["metrics"]["cli.records"]["value"] == len(WORKLOADS[name].tiny)
        _check_span_files(record, tmp_path.glob(f"spans-{name}-pass0-*.npz"))
    else:
        assert all(v["value"] > 0 for v in record["metrics"].values())


def _check_span_files(record, paths):
    """The written spans reproduce the reported self times, and the self
    times of a child add up to the time inside its root spans."""
    own: dict[str, float] = {}
    for path in paths:
        with np.load(path) as spans:
            names = spans["names"]
            rows = list(zip(spans["id"], spans["parent"], names[spans["name"]],
                            spans["start"], spans["end"]))
        per_name = tracer.self_times(rows)
        roots = sum(end - start for _sid, parent, _n, start, end in rows if parent < 0)
        assert sum(per_name.values()) == pytest.approx(roots)
        for key, value in per_name.items():
            own[key] = own.get(key, 0.0) + value
    assert own, "no span files written"
    assert record["details"]["traced_passes"] == 1
    for span_name, metric in (("cli.main", "cli.self_s"), ("linalg.rank", "linalg.rank_s"),
                              ("weyl.weight_space", "weyl.weight_space_s")):
        assert record["metrics"][metric]["value"] == pytest.approx(own.get(span_name, 0.0))


def test_wrong_reference_digest_is_caught_and_counted(tmp_path, monkeypatch, capsys):
    payload = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    victim = op_key(WORKLOADS["verify-shift"].tiny[0])
    payload["ops"][victim]["digest"] = "0" * 64
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCES", corrupted)

    status = run.main(["--workload", "verify-shift", "--tiny", "--seconds", "0.5", "--seed", "4"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False
    passes = last["attempted"] // len(WORKLOADS["verify-shift"].tiny)
    assert last["failed"] == passes >= 1
