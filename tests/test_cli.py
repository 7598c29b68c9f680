import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit.cli
import weylkit.ext
import weylkit.resolutions
from weylkit.cli import build_parser, main
from weylkit.ext import MAX_DEGREE
from weylkit.resolutions import chain_arrows
from weylkit.shapes import ChainSpace

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_ext_hom_example(capsys):
    code, out, _ = run(capsys, "ext", "--p", "3", "--lambda", "8,3", "--mu", "11", "--max-degree", "0")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["ext_dims"] == [1]
    assert record["result"]["key"]["mu"] == [11, 0]
    assert record["result"]["key"]["r"] == 11


def test_ext_semisimple_example(capsys):
    code, out, _ = run(capsys, "ext", "--p", "5", "--lambda", "2,1", "--mu", "3", "--max-degree", "2")
    assert code == 0
    assert json.loads(out)["result"]["ext_dims"] == [0, 0, 0]


def test_ext_end_ring_example(capsys):
    code, out, _ = run(capsys, "ext", "--p", "2", "--lambda", "2,1", "--mu", "2,1", "--max-degree", "0")
    assert code == 0
    assert json.loads(out)["result"]["ext_dims"] == [1]


def test_verify_sharpness_example(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1.1.1", "--p", "3", "--d", "1",
                       "--lambda", "8,3", "--mu", "11")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["verdict"] == "SHARPNESS"
    report = record["result"]["report"]
    assert report["ext_dims"][0] == 1 and report["shifted_ext_dims"][0] == 0


def test_verify_pass_example(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1.1.1", "--p", "2", "--d", "1",
                       "--lambda", "1,1", "--mu", "2")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["verdict"] == "PASS"
    assert record["result"]["report"]["isomorphism"]["all_equal"]


def test_verify_hom_bound_sharpness(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "6.1", "--p", "3", "--d", "1",
                       "--lambda", "1,1,1,1", "--mu", "2,2")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["verdict"] == "SHARPNESS"
    assert record["result"]["report"]["ext_dims"] == [1]
    assert record["result"]["report"]["shifted_ext_dims"] == [0]


def test_verify_hook_preset(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "6.4", "--p", "2", "--d", "1",
                       "--lambda", "2,1", "--mu", "2,1", "--n", "3")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "PASS"


def test_tool_examples(capsys):
    code, out, _ = run(capsys, "straighten", "--p", "3", "--mu", "2,2", "--tableau", "1,2/2,2")
    assert code == 0 and out == "0"
    code, out, _ = run(capsys, "straighten", "--p", "3", "--mu", "2,2", "--tableau", "1,2/1,2")
    assert code == 0 and out == "1*[1,1/2,2]"
    code, out, _ = run(capsys, "p-kostka", "--p", "2", "--mu", "2", "--alpha", "1,1")
    assert code == 0 and out == "0"
    code, out, _ = run(capsys, "kostka", "--mu", "2,1", "--alpha", "1,1,1")
    assert code == 0 and out == "2"
    code, out, _ = run(capsys, "schur-mul", "--p", "2", "--omega", "1,1/0,0", "--pi", "1,0/1,0")
    assert code == 0 and out == "0"
    code, out, _ = run(capsys, "schur-mul", "--p", "3", "--omega", "1,1/0,0", "--pi", "1,0/1,0")
    assert code == 0 and out == "2*xi[2,0/0,0]"
    code, out, _ = run(capsys, "gram", "--p", "2", "--mu", "2", "--alpha", "1,1")
    assert code == 0 and out.splitlines()[-1] == "radical_dim: 1"


def test_resolve_info(capsys):
    code, out, _ = run(capsys, "resolve-info", "--lambda", "1,1", "--max-degree", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolution_length"] == 1
    assert payload["degrees"][1]["summands"] == [{"top": [2, 0], "multiplicity": 1}]


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "ext", "--p", "6", "--lambda", "2,1", "--mu", "3")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "ext", "--p", "2", "--lambda", "2,1", "--mu", "4")
    assert code == 2
    code, out, err = run(capsys, "survey", "--p", "0", "--r", "2")
    assert (code, out) == (2, "") and "prime" in err


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", 0)
    code, _, err = run(capsys, "ext", "--p", "2", "--lambda", "2,1", "--mu", "3")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "1.1.1", "--p", "2", "--d", "1", "--lambda", "2,1", "--mu", "3",
     "--max-basis", "0"),
    ("kostka", "--mu", "2,1", "--alpha", "1,1,1", "--cache-dir", "x"),
    ("kostka", "--mu", "2,1", "--alpha", "1,1,1", "--format", "json"),
    ("survey", "--p", "2", "--r", "2", "--format", "table"),
    ("ext", "--p", "2", "--lambda", "2,1", "--mu", "3", "--max-basis", "0"),
    ("survey", "--p", "2", "--r", "2", "--max-basis", "0"),
], ids=["verify-max-basis", "kostka-cache-dir", "kostka-format", "survey-format",
        "ext-max-basis", "survey-max-basis"])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    # no command takes a size cap (each Hom complex is held to one constant),
    # kostka writes no cache record and prints one number whatever the
    # format, survey always writes JSON lines
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_determinism_and_cache(tmp_path, capsys):
    args = ("ext", "--p", "2", "--lambda", "2,2", "--mu", "4", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    cached_files = list(tmp_path.glob("*.json"))
    assert len(cached_files) == 1
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # warm cache reuses the record verbatim
    code, out3, _ = run(capsys, *args, "--recheck")
    assert code == 0 and json.loads(out3)["result"] == json.loads(out1)["result"]


def test_determinism_without_cache(capsys):
    args = ("ext", "--p", "3", "--lambda", "2,1", "--mu", "2,1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert json.loads(out1)["result"] == json.loads(out2)["result"]


def test_survey(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "survey", "--p", "2", "--r", "2", "--n", "2",
                     "--max-degree", "2", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_path))
    assert code == 0
    lines = [json.loads(line) for line in out_path.read_text().splitlines() if line]
    pairs = {(tuple(x["result"]["key"]["lambda"]), tuple(x["result"]["key"]["mu"])) for x in lines}
    assert pairs == {((2, 0), (2, 0)), ((1, 1), (1, 1)), ((1, 1), (2, 0))}
    first = out_path.read_bytes()
    code, _, _ = run(capsys, "survey", "--p", "2", "--r", "2", "--n", "2",
                     "--max-degree", "2", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_path))
    assert out_path.read_bytes() == first  # warm cache: byte-identical rerun


def test_survey_specht_labels(capsys):
    code, out, _ = run(capsys, "survey", "--p", "5", "--r", "3", "--n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line]
    labelled = [r for r in records if r["result"]["labels"]]
    assert labelled, "r == n and p > 2 rows must carry symmetric-group labels"
    mu_top = [r for r in records if r["result"]["key"]["mu"] == [3, 0, 0]]
    assert any("cohomology" in lab for r in mu_top for lab in r["result"]["labels"])


def test_survey_streams_records_before_a_failure(capsys, monkeypatch):
    # the third pair runs out of memory: the first two records are already out
    run_cached = weylkit.cli._run_cached
    calls = []

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MemoryError()
        return run_cached(*args)

    monkeypatch.setattr(weylkit.cli, "_run_cached", third_fails)
    code, out, err = run(capsys, "survey", "--p", "2", "--r", "2", "--n", "2", "--max-degree", "2")
    assert code == 3 and "out of memory" in err
    pairs = [(r["result"]["key"]["lambda"], r["result"]["key"]["mu"])
             for r in map(json.loads, out.splitlines())]
    assert pairs == [([2, 0], [2, 0]), ([1, 1], [2, 0])]


def test_survey_progress_on_stderr(tmp_path, capsys, monkeypatch):
    # at p = 3, (1, 1) and (2) are unlinked: residues {0, 2} against {1, 1}
    argv = ("survey", "--p", "3", "--r", "2", "--n", "2", "--cache-dir", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert code == 0
    handled = [re.fullmatch(r"survey (\d)/3 (\S+) -> (\S+): \d+ ms, (.+)", line).groups()
               for line in err.splitlines()]
    assert handled == [("1", "2,0", "2,0", "built"), ("2", "1,1", "2,0", "unlinked"),
                       ("3", "1,1", "1,1", "built")]
    assert all(set(json.loads(line)["result"]) == {"key", "ext_dims", "labels", "engine_version"}
               for line in out.splitlines())
    code, _, err = run(capsys, *argv)
    assert [line.rsplit(", ", 1)[1] for line in err.splitlines()] == ["cached"] * 3
    monkeypatch.setattr(weylkit.ext, "MAX_COMPLEX_SIZE", 0)
    code, out, err = run(capsys, *argv[:-2])
    assert code == 0 and out == ""
    assert [line.rsplit(", ", 1)[1] for line in err.splitlines()] == ["skipped: cap"] * 3


# ``result`` payloads of unlinked pairs, recorded before ext returned their
# zero Ext from the chain counts alone
UNLINKED_RECORDS = [
    (
        ("--p", "2", "--lambda", "2,2,2,1", "--mu", "5,2,0,0"),
        '{"key": {"p": 2, "n": 4, "r": 7, "lambda": [2, 2, 2, 1], "mu": [5, 2, 0, 0], '
        '"target": "weyl", "max_degree": null}, "ext_dims": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
        '"euler": 0, "euler_consistent": true, "engine_version": "0.1.0"}',
    ),
    (
        ("--p", "3", "--lambda", "3,1", "--mu", "4", "--target", "simple"),
        '{"key": {"p": 3, "n": 2, "r": 4, "lambda": [3, 1], "mu": [4, 0], '
        '"target": "simple", "max_degree": null}, "ext_dims": [0, 0], "euler": 0, '
        '"euler_consistent": true, "engine_version": "0.1.0"}',
    ),
    (
        ("--p", "2", "--lambda", "2,2,2,1", "--mu", "5,2,0,0", "--max-degree", "3"),
        '{"key": {"p": 2, "n": 4, "r": 7, "lambda": [2, 2, 2, 1], "mu": [5, 2, 0, 0], '
        '"target": "weyl", "max_degree": 3}, "ext_dims": [0, 0, 0, 0], "euler": 0, '
        '"euler_consistent": null, "engine_version": "0.1.0"}',
    ),
]


@pytest.mark.parametrize("argv, expected", UNLINKED_RECORDS, ids=["weyl", "simple", "truncated"])
def test_unlinked_ext_records_pinned_without_chains(capsys, monkeypatch, argv, expected):
    monkeypatch.setattr(weylkit.ext, "chain_arrows", _raise(AssertionError("arrows listed")))
    monkeypatch.setattr(ChainSpace, "layer", _raise(AssertionError("chain enumerated")))
    code, out, _ = run(capsys, "ext", *argv)
    assert code == 0
    assert json.dumps(json.loads(out)["result"]) == expected


# each case names a stage of the resolution's build by the per-chain function
# that did it before the chains were numbered: sy_degree enumerated the chains,
# sy_arrows listed the arrows; chain_arrows is the one entry point (the id
# keeps the name of the memo it replaced)
@pytest.mark.parametrize("owner, attr", [
    (ChainSpace, "layer"),
    (weylkit.resolutions, "_degree_arrows"),
    (weylkit.ext, "chain_arrows"),
], ids=["sy_degree", "sy_arrows", "chain_resolution"])
def test_verify_builds_unlinked_pairs_in_full(capsys, monkeypatch, owner, attr):
    # the periodicity oracle never takes the linkage shortcut: on the
    # unlinked pair (2, 1) -> (3) at p = 2 it still builds the resolution;
    # an uncached builder keeps earlier builds from hiding the enumeration
    monkeypatch.setattr(weylkit.ext, "chain_arrows", chain_arrows.__wrapped__)
    monkeypatch.setattr(owner, attr, _raise(LookupError("reached")))
    code, out, err = run(capsys, "verify", "--theorem", "1.1.1", "--p", "2", "--d", "1",
                         "--lambda", "2,1", "--mu", "3")
    assert code == 4 and out == ""
    assert err == "internal error: LookupError: reached"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYLKIT_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "ext", "--p", "2", "--lambda", "1,1", "--mu", "2")
    assert code == 0
    assert list(tmp_path.glob("*.json"))


# ``result`` payloads of the hook preset, recorded before the chain and hook
# Hom complexes shared one assembly path (the d = 12 one, whose shifted hook
# has first part 4098, before the hook terms came from enumerate_compositions);
# no benchmark workload runs this preset
HOOK_RECORDS = [
    (
        ("--lambda", "2,1,1", "--mu", "4", "--n", "4", "--p", "2", "--d", "1"),
        '{"key": {"p": 2, "n": 4, "r": 4, "lambda": [2, 1, 1, 0], "mu": [4, 0, 0, 0], '
        '"theorem": "6.4", "d": 1, "max_degree": null}, "report": {"a": 2, "b": 2, "mu": [4, '
        '0, 0, 0], "p": 2, "mu2_le_l1": true, "sy_ext_dims": [0, 1, 1, 0], '
        '"hook_ext_dims": [0, 1, 1, 0], "per_degree_equal": [true, true, true, true], '
        '"methods_agree": true, "vanishing_beyond_b": true, "shifted_checks": [{"d": 1, '
        '"ext_dims": [0, 1, 1], "shifted_ext_dims": [0, 0, 0], "degrees": [{"degree": 0, '
        '"stated": true, "supported": true, "equal": true}, {"degree": 1, "stated": true, '
        '"supported": false, "equal": false}, {"degree": 2, "stated": false, '
        '"supported": false, "equal": false}], "stated_bound_holds": false, '
        '"supported_bound_holds": true}], "stated_bound_holds": false, '
        '"supported_bound_holds": true, "verdict": "SHARPNESS", '
        '"hypotheses": {"lambda_is_hook": true, "max_degree_covered": 1, "all_hold": true}}, '
        '"verdict": "SHARPNESS", "engine_version": "0.1.0"}',
    ),
    (
        ("--lambda", "2,1,1", "--mu", "4", "--n", "4", "--p", "2", "--d", "2"),
        '{"key": {"p": 2, "n": 4, "r": 4, "lambda": [2, 1, 1, 0], "mu": [4, 0, 0, 0], '
        '"theorem": "6.4", "d": 2, "max_degree": null}, "report": {"a": 2, "b": 2, "mu": [4, '
        '0, 0, 0], "p": 2, "mu2_le_l1": true, "sy_ext_dims": [0, 1, 1, 0], '
        '"hook_ext_dims": [0, 1, 1, 0], "per_degree_equal": [true, true, true, true], '
        '"methods_agree": true, "vanishing_beyond_b": true, "shifted_checks": [{"d": 2, '
        '"ext_dims": [0, 1, 1], "shifted_ext_dims": [0, 1, 1], "degrees": [{"degree": 0, '
        '"stated": true, "supported": true, "equal": true}, {"degree": 1, "stated": true, '
        '"supported": true, "equal": true}, {"degree": 2, "stated": true, "supported": true, '
        '"equal": true}], "stated_bound_holds": true, "supported_bound_holds": true}], '
        '"stated_bound_holds": true, "supported_bound_holds": true, "verdict": "PASS", '
        '"hypotheses": {"lambda_is_hook": true, "max_degree_covered": 3, "all_hold": true}}, '
        '"verdict": "PASS", "engine_version": "0.1.0"}',
    ),
    (
        ("--lambda", "2,1", "--mu", "2,1", "--n", "3", "--p", "3", "--d", "1"),
        '{"key": {"p": 3, "n": 3, "r": 3, "lambda": [2, 1, 0], "mu": [2, 1, 0], '
        '"theorem": "6.4", "d": 1, "max_degree": null}, "report": {"a": 2, "b": 1, "mu": [2, '
        '1, 0], "p": 3, "mu2_le_l1": true, "sy_ext_dims": [1, 0], "hook_ext_dims": [1, 0], '
        '"per_degree_equal": [true, true], "methods_agree": true, '
        '"vanishing_beyond_b": true, "shifted_checks": [{"d": 1, "ext_dims": [1, 0], '
        '"shifted_ext_dims": [1, 0], "degrees": [{"degree": 0, "stated": true, '
        '"supported": true, "equal": true}, {"degree": 1, "stated": true, "supported": true, '
        '"equal": true}], "stated_bound_holds": true, "supported_bound_holds": true}], '
        '"stated_bound_holds": true, "supported_bound_holds": true, "verdict": "PASS", '
        '"hypotheses": {"lambda_is_hook": true, "max_degree_covered": 2, "all_hold": true}}, '
        '"verdict": "PASS", "engine_version": "0.1.0"}',
    ),
    (
        ("--lambda", "2,1,1", "--mu", "4,0,0", "--p", "2", "--d", "12"),
        '{"key": {"p": 2, "n": 3, "r": 4, "lambda": [2, 1, 1], "mu": [4, 0, 0], '
        '"theorem": "6.4", "d": 12, "max_degree": null}, "report": {"a": 2, "b": 2, "mu": '
        '[4, 0, 0], "p": 2, "mu2_le_l1": true, "sy_ext_dims": [0, 1, 1, 0], '
        '"hook_ext_dims": [0, 1, 1, 0], "per_degree_equal": [true, true, true, true], '
        '"methods_agree": true, "vanishing_beyond_b": true, "shifted_checks": [{"d": 12, '
        '"ext_dims": [0, 1, 1], "shifted_ext_dims": [0, 1, 1], "degrees": [{"degree": 0, '
        '"stated": true, "supported": true, "equal": true}, {"degree": 1, "stated": true, '
        '"supported": true, "equal": true}, {"degree": 2, "stated": true, "supported": '
        'true, "equal": true}], "stated_bound_holds": true, "supported_bound_holds": '
        'true}], "stated_bound_holds": true, "supported_bound_holds": true, "verdict": '
        '"PASS", "hypotheses": {"lambda_is_hook": true, "max_degree_covered": 4095, '
        '"all_hold": true}}, "verdict": "PASS", "engine_version": "0.1.0"}',
    ),
]


@pytest.mark.parametrize("argv, expected", HOOK_RECORDS, ids=["p2-d1", "p2-d2", "p3-d1", "p2-d12"])
def test_verify_hook_records_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, "verify", "--theorem", "6.4", *argv)
    assert code == 0
    assert json.dumps(json.loads(out)["result"]) == expected


@pytest.fixture
def deadline(request):
    """Fail the test once it has run for 10 s (or the seconds passed by an
    indirect parametrize), rather than let it hang."""
    seconds = getattr(request, "param", 10)

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ``result`` payloads of the two presets without a size cap at a shift of
# 2^40, which used to take time linear in p^d: 66 s at d = 24 for 6.1
SHIFT_40_RECORDS = [
    (
        "6.1",
        '{"key": {"p": 2, "n": 2, "r": 3, "lambda": [2, 1], "mu": [3, 0], "theorem": "6.1", '
        '"d": 40, "max_degree": null}, "report": {"lambda": [2, 1], "mu": [3, 0], "p": 2, '
        '"d": 40, "theorem": "6.1", "hypotheses": {"pd_gt_min_l2_m1_minus_l1": true, '
        '"mu2_le_l1": true, "all_hold": true}, "ext_dims": [0], "shifted_ext_dims": [0], '
        '"per_degree_equal": [true], "all_equal": true, "verdict": "PASS"}, "verdict": "PASS", '
        '"engine_version": "0.1.0"}',
    ),
    (
        "6.4",
        '{"key": {"p": 2, "n": 2, "r": 3, "lambda": [2, 1], "mu": [3, 0], "theorem": "6.4", '
        '"d": 40, "max_degree": null}, "report": {"a": 2, "b": 1, "mu": [3, 0], "p": 2, '
        '"mu2_le_l1": true, "sy_ext_dims": [0, 0], "hook_ext_dims": [0, 0], '
        '"per_degree_equal": [true, true], "methods_agree": true, "vanishing_beyond_b": true, '
        '"shifted_checks": [{"d": 40, "ext_dims": [0, 0], "shifted_ext_dims": [0, 0], '
        '"degrees": [{"degree": 0, "stated": true, "supported": true, "equal": true}, '
        '{"degree": 1, "stated": true, "supported": true, "equal": true}], '
        '"stated_bound_holds": true, "supported_bound_holds": true}], '
        '"stated_bound_holds": true, "supported_bound_holds": true, "verdict": "PASS", '
        '"hypotheses": {"lambda_is_hook": true, "max_degree_covered": 1099511627775, '
        '"all_hold": true}}, "verdict": "PASS", "engine_version": "0.1.0"}',
    ),
]


@pytest.mark.parametrize("theorem, expected", SHIFT_40_RECORDS, ids=["6.1", "6.4"])
def test_verify_large_shift_records_pinned(capsys, deadline, theorem, expected):
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--p", "2", "--d", "40",
                       "--lambda", "2,1", "--mu", "3")
    assert code == 0
    assert json.dumps(json.loads(out)["result"]) == expected


@pytest.mark.parametrize("theorem", ["1.1.1", "6.1", "6.4"])
@pytest.mark.parametrize("p, d", [(3, 40), (2, 63)], ids=["3^40", "2^63"])
def test_shift_past_int64_is_usage_error(capsys, deadline, theorem, p, d):
    # 6.1 and 6.4 used to end as exit 4, "internal error: OverflowError",
    # and 1.1.1 as a resource cap on the shifted degree
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--p", str(p), "--d", str(d),
                         "--lambda", "2,1", "--mu", "3")
    assert code == 2 and out == ""
    assert err == f"error: shift p^d = {p}^{d} exceeds the 64-bit integer range"


BIG = str(2**62)  # a part that fits int64, but not once 2^62 is added to it


@pytest.mark.parametrize("theorem, mu", [
    # 6.1 used to end as exit 4, "internal error: OverflowError"
    ("6.1", str(2**62 + 1)),
    # 6.4 checks the shift of the hook's first part before mu's; with a mu
    # whose parts shift safely it used to pass on a first part of 2^63
    ("6.4", str(2**62 + 1)),
    ("6.4", f"{2**61 + 1},{2**61}"),
], ids=["6.1", "6.4", "6.4-non-dominating"])
def test_shifted_part_past_int64_is_not_internal_error(capsys, deadline, theorem, mu):
    got, out, err = run(capsys, "verify", "--theorem", theorem, "--p", "2", "--d", "62",
                        "--lambda", f"{BIG},1", "--mu", mu)
    message = f"error: shifted entry {BIG} + 2^62 exceeds the 64-bit integer range"
    assert (got, out, err) == (2, "", message)


def test_hom_bound_past_the_relation_entry_cap(capsys, deadline):
    # (5,5,5,5) needs 13.2 million box-relation entries; before the cap it
    # ran out of memory, or was killed on a host that overcommits
    code, out, err = run(capsys, "verify", "--theorem", "6.1", "--p", "2", "--d", "1",
                         "--lambda", "5,5,5,5", "--mu", "5,5,5,5")
    assert code == 3 and out == ""
    assert err.startswith("resource cap:")


@pytest.mark.parametrize("rows", [100_000, 300_000, 2**40])
def test_hom_bound_past_the_relation_family_cap(capsys, deadline, rows):
    # (rows, rows) has rows relation families, listed one at a time before
    # any entry was counted, and against a one-row mu they have no entries:
    # 100,000 took 37 s, and the larger ones ran out of memory
    code, out, err = run(capsys, "verify", "--theorem", "6.1", "--p", "2", "--d", "1",
                         "--lambda", f"{rows},{rows}", "--mu", f"{2 * rows},0")
    assert code == 3 and out == ""
    assert err == (f"resource cap: the Hom oracle needs {rows} relation families, "
                   f"exceeding the cap {weylkit.ext.MAX_RELATION_FAMILIES}")


PAST_INT64 = str(2**63)


@pytest.mark.parametrize("argv", [
    ("kostka", "--mu", PAST_INT64, "--alpha", PAST_INT64),
    ("gram", "--p", "2", "--mu", PAST_INT64, "--alpha", PAST_INT64),
    ("p-kostka", "--p", "2", "--mu", PAST_INT64, "--alpha", PAST_INT64),
    ("verify", "--theorem", "6.1", "--p", "2", "--d", "1", "--lambda", f"{2**63 - 1},1",
     "--mu", PAST_INT64),
], ids=lambda argv: argv[0])
def test_parts_past_int64_are_usage_errors(capsys, deadline, argv):
    # each used to end as exit 4, "internal error: OverflowError"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: degree {PAST_INT64} exceeds the 64-bit integer range")


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "1.1.1", "--lambda", "20,20", "--mu", "40", "--p", "2", "--d", "30"),
    ("ext", "--p", "2", "--lambda", "20,20", "--mu", "40"),
    ("ext", "--p", "2", "--lambda", "4,4,4,4", "--mu", "16"),
], ids=["verify-20,20", "ext-20,20", "ext-4^4"])
def test_complexes_past_the_size_cap_are_refused_early(capsys, deadline, argv):
    # (20,20) has 2^20 chains over its 21 degrees, at most 184,756 in one:
    # the verify took 40 s at 1.3 GB while the cap judged one degree at a
    # time; (4,4,4,4) has 3.6e14 chains
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert re.fullmatch(r"resource cap: degrees 0 to \d+ need \d+ chains and \d+ basis elements, "
                        rf"exceeding the cap {weylkit.ext.MAX_COMPLEX_SIZE}", err)


def test_survey_of_a_large_rank_starts(capsys, deadline, monkeypatch):
    # the 135 partitions of 14 used to be filtered from all 20,058,300
    # compositions of 14 into 14 parts, made as tuples: no pair was
    # reached in 30 s, and memory passed 1 GB; stop after the first pair
    run_cached = weylkit.cli._run_cached
    calls = []

    def second_stops(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError()
        return run_cached(*args)

    monkeypatch.setattr(weylkit.cli, "_run_cached", second_stops)
    code, out, err = run(capsys, "survey", "--p", "2", "--r", "14", "--n", "14")
    assert code == 3 and len(out.splitlines()) == 1
    top = ",".join(["14"] + ["0"] * 13)
    assert re.fullmatch(rf"survey 1/7775 {top} -> {top}: \d+ ms, built", err.splitlines()[0])


def test_hom_bound_of_a_non_dominated_pair_builds_no_slice(capsys, monkeypatch):
    # (3,3) does not dominate (4,2), nor does (5,3) dominate (6,2): both Hom
    # spaces are zero, and no weight slice is built for either
    monkeypatch.setattr(weylkit.ext, "build_weight_spaces", _raise(AssertionError("slice built")))
    code, out, _ = run(capsys, "verify", "--theorem", "6.1", "--p", "2", "--d", "1",
                       "--lambda", "4,2", "--mu", "3,3")
    assert code == 0
    assert json.dumps(json.loads(out)["result"]) == (
        '{"key": {"p": 2, "n": 2, "r": 6, "lambda": [4, 2], "mu": [3, 3], "theorem": "6.1", '
        '"d": 1, "max_degree": null}, "report": {"lambda": [4, 2], "mu": [3, 3], "p": 2, "d": 1, '
        '"theorem": "6.1", "hypotheses": {"pd_gt_min_l2_m1_minus_l1": true, "mu2_le_l1": true, '
        '"all_hold": true}, "ext_dims": [0], "shifted_ext_dims": [0], "per_degree_equal": [true], '
        '"all_equal": true, "verdict": "PASS"}, "verdict": "PASS", "engine_version": "0.1.0"}'
    )


# shifts past the old cap of 20 on the degree: the shifted chain layout is
# the unshifted one with p^d added at (1,1), so each takes well under a second
SHIFTED_RECORDS = [
    (("1.1.1", "2,1", "3", "2", "5"), [0, 0], True),
    (("1.1.1", "2,1", "3", "2", "40"), [0, 0], True),
    (("1.1.1", "2,2,1", "5", "2", "20"), [0, 1, 1, 0, 0], True),
    (("1.1.1", "3,1,1,1", "4,2", "2", "12"), [1, 2, 1, 0, 0, 0, 0], True),
    (("1.1.2", "3,3,3", "9", "3", "3"), [0, 0, 1, 1, 0, 1, 1, 0, 0, 0], None),
]


@pytest.mark.parametrize("argv, dims, isomorphic", SHIFTED_RECORDS,
                         ids=["2,1-2^5", "2,1-2^40", "2,2,1-2^20", "3,1,1,1-2^12", "3,3,3-3^3"])
def test_verify_past_the_old_degree_cap(capsys, deadline, argv, dims, isomorphic):
    theorem, lam, mu, p, d = argv
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--lambda", lam, "--mu", mu,
                       "--p", p, "--d", d)
    assert code == 0
    report = json.loads(out)["result"]["report"]
    assert report["verdict"] == "PASS"
    assert report["ext_dims"] == report["shifted_ext_dims"] == dims
    assert report["shifted_lambda"][0] == int(lam.split(",")[0]) + int(p) ** int(d)
    assert report.get("isomorphism", {}).get("all_equal") is isomorphic


ONES_20, TWOS_10 = ",".join(["1"] * 20), ",".join(["2"] * 10)


@pytest.mark.parametrize("argv", [
    ("ext", "--p", "2", "--lambda", "3,3,3,3,3", "--mu", "15"),
    ("ext", "--p", "2", "--lambda", "4,4,4,4,4", "--mu", "20"),
    ("ext", "--p", "2", "--lambda", ONES_20, "--mu", "20"),
    ("ext", "--p", "2", "--lambda", TWOS_10, "--mu", "20"),
    ("ext", "--p", "2", "--lambda", "6,6,6,6", "--mu", "24"),
    ("ext", "--p", "2", "--lambda", "12,12,12,12", "--mu", "48"),
    ("resolve-info", "--lambda", "4,4,4,4,4", "--max-degree", "1"),
], ids=["3^5", "4^5", "1^20", "2^10", "6^4", "12^4", "resolve-info-4^5"])
def test_oversized_chain_layouts_are_refused_early(capsys, deadline, argv):
    # each ran out of memory, or refused only after 50-100 s, before the
    # chain layout was counted ahead of being made
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("resource cap: the chain layout of")


# (4,3,2,1) -> (10) at p = 3 is a heavy linked pair of the r = 10, n = 4
# survey (145792 chains); each target took about 8 s while every
# differential was ranked alone, and takes about 1 s ranked in one sweep
HEAVY_RECORDS = [
    ("weyl", [0, 1, 2, 2, 2, 1, 0, 0, 0, 0, 0]),
    ("simple", [0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0]),
]


@pytest.mark.parametrize("deadline", [6], indirect=True)
@pytest.mark.parametrize("target, dims", HEAVY_RECORDS, ids=["weyl", "simple"])
def test_heavy_ext_records_pinned(capsys, deadline, target, dims):
    code, out, _ = run(capsys, "ext", "--p", "3", "--lambda", "4,3,2,1", "--mu", "10",
                       "--target", target)
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["ext_dims"], result["euler"], result["euler_consistent"]) == (dims, 0, True)


# ``result`` payloads of the 1.1.1 preset, recorded while the isomorphism check
# still rebuilt both Hom complexes: a PASS carrying its isomorphism report,
# the same truncated to degree 1, and a SHARPNESS without one
PERIODICITY_RECORDS = [
    (
        ("--lambda", "2,2", "--mu", "4", "--n", "3", "--p", "3", "--d", "1"),
        '{"key": {"p": 3, "n": 3, "r": 4, "lambda": [2, 2, 0], "mu": [4, 0, 0], '
        '"theorem": "1.1.1", "d": 1, "max_degree": null}, "report": {"lambda": [2, 2, 0], '
        '"mu": [4, 0, 0], "p": 3, "d": 1, "target": "weyl", "theorem": "1.1.1", '
        '"hypotheses": {"pd_gt_r_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"ext_dims": [1, 1, 0], "shifted_lambda": [5, 2, 0], "shifted_mu": [7, 0, 0], '
        '"shifted_ext_dims": [1, 1, 0], "per_degree_equal": [true, true, true], '
        '"all_equal": true, "verdict": "PASS", "isomorphism": {"refused": false, '
        '"hypotheses": {"pd_gt_r_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"degrees_compared": 3, "per_degree_equal": [true, true], "all_equal": true}}, '
        '"verdict": "PASS", "engine_version": "0.1.0"}',
    ),
    (
        ("--lambda", "2,2", "--mu", "4", "--n", "3", "--p", "3", "--d", "1", "--max-degree", "1"),
        '{"key": {"p": 3, "n": 3, "r": 4, "lambda": [2, 2, 0], "mu": [4, 0, 0], '
        '"theorem": "1.1.1", "d": 1, "max_degree": 1}, "report": {"lambda": [2, 2, 0], '
        '"mu": [4, 0, 0], "p": 3, "d": 1, "target": "weyl", "theorem": "1.1.1", '
        '"hypotheses": {"pd_gt_r_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"ext_dims": [1, 1], "shifted_lambda": [5, 2, 0], "shifted_mu": [7, 0, 0], '
        '"shifted_ext_dims": [1, 1], "per_degree_equal": [true, true], "all_equal": true, '
        '"verdict": "PASS", "isomorphism": {"refused": false, "hypotheses": '
        '{"pd_gt_r_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"degrees_compared": 3, "per_degree_equal": [true, true], "all_equal": true}}, '
        '"verdict": "PASS", "engine_version": "0.1.0"}',
    ),
    (
        ("--lambda", "2,1,1", "--mu", "4", "--p", "2", "--d", "1"),
        '{"key": {"p": 2, "n": 3, "r": 4, "lambda": [2, 1, 1], "mu": [4, 0, 0], '
        '"theorem": "1.1.1", "d": 1, "max_degree": null}, "report": {"lambda": [2, 1, 1], '
        '"mu": [4, 0, 0], "p": 2, "d": 1, "target": "weyl", "theorem": "1.1.1", '
        '"hypotheses": {"pd_gt_r_minus_l1": false, "mu2_le_l1": true, "all_hold": false}, '
        '"ext_dims": [0, 1, 1, 0], "shifted_lambda": [4, 1, 1], "shifted_mu": [6, 0, 0], '
        '"shifted_ext_dims": [0, 0, 0, 0], "per_degree_equal": [true, false, false, true], '
        '"all_equal": false, "verdict": "SHARPNESS"}, "verdict": "SHARPNESS", '
        '"engine_version": "0.1.0"}',
    ),
]


@pytest.mark.parametrize("argv, expected", PERIODICITY_RECORDS,
                         ids=["pass", "pass-max-degree", "sharpness"])
def test_verify_periodicity_records_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, "verify", "--theorem", "1.1.1", *argv)
    assert code == 0
    assert json.dumps(json.loads(out)["result"]) == expected


def test_verify_builds_each_complex_once(capsys, monkeypatch):
    build = weylkit.ext.build_hom_complex
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(weylkit.ext, "build_hom_complex", counted)
    code, out, _ = run(capsys, "verify", "--theorem", "1.1.1", "--p", "3", "--d", "1",
                       "--lambda", "2,2", "--mu", "4", "--n", "3")
    assert code == 0
    assert "isomorphism" in json.loads(out)["result"]["report"]
    # one build for the pair and one for its shift
    assert [tuple(map(tuple, c)) for c in calls] == [((2, 2, 0), (4, 0, 0)), ((5, 2, 0), (7, 0, 0))]


def _shift_oracle(monkeypatch):
    # the shifted pair's Hom dimension is one too large
    oracle = weylkit.ext.hom_dim_oracle
    monkeypatch.setattr(weylkit.ext, "hom_dim_oracle",
                        lambda lam, mu, p: oracle(lam, mu, p) + (lam[0] > 2))


def _shift_complex(monkeypatch):
    # the shifted pair's complex gets one more degree-0 basis vector, so its
    # Ext^0 is one too large
    build = weylkit.ext.build_hom_complex

    def altered(lam, *args, **kwargs):
        hc = build(lam, *args, **kwargs)
        if lam[0] > 2:
            hc.dims[0] += 1
        return hc

    monkeypatch.setattr(weylkit.ext, "build_hom_complex", altered)


# the comparison reports of a FAIL; the hypotheses hold at both pairs
FAIL_REPORTS = [
    (
        "6.1", _shift_oracle,
        '{"lambda": [2, 1], "mu": [3, 0], "p": 3, "d": 1, "theorem": "6.1", '
        '"hypotheses": {"pd_gt_min_l2_m1_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"ext_dims": [1], "shifted_ext_dims": [2], "per_degree_equal": [false], '
        '"all_equal": false, "verdict": "FAIL"}',
    ),
    (
        "1.1.1", _shift_complex,
        '{"lambda": [2, 1], "mu": [3, 0], "p": 3, "d": 1, "target": "weyl", "theorem": "1.1.1", '
        '"hypotheses": {"pd_gt_r_minus_l1": true, "mu2_le_l1": true, "all_hold": true}, '
        '"ext_dims": [1, 1], "shifted_lambda": [5, 1], "shifted_mu": [6, 0], '
        '"shifted_ext_dims": [2, 1], "per_degree_equal": [false, true], '
        '"all_equal": false, "verdict": "FAIL"}',
    ),
]


@pytest.mark.parametrize("theorem, alter, expected", FAIL_REPORTS, ids=["6.1", "1.1.1"])
def test_verify_fail_exits_1(tmp_path, capsys, monkeypatch, theorem, alter, expected):
    argv = ("verify", "--theorem", theorem, "--p", "3", "--d", "1", "--lambda", "2,1",
            "--mu", "3", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    (passed,) = tmp_path.iterdir()
    passed.unlink()
    alter(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    message, report = err.splitlines()
    assert message.startswith("FAIL:")
    assert json.dumps(json.loads(report)) == expected
    assert not list(tmp_path.iterdir())  # no record of a FAIL is cached


@pytest.mark.parametrize("argv", [
    ("ext", "--p", "2", "--lambda", "2,1", "--mu", "3"),
    ("verify", "--theorem", "1.1.1", "--p", "3", "--d", "1", "--lambda", "2,1", "--mu", "3"),
], ids=["ext", "verify"])
def test_max_degree_above_bound_is_usage_error(capsys, argv):
    # past the resolution length every Ext dim is zero, so a larger bound
    # would only allocate a list of zeros
    code, out, err = run(capsys, *argv, "--max-degree", str(MAX_DEGREE + 1))
    assert code == 2 and out == ""
    assert "max_degree" in err


@pytest.mark.parametrize("argv, expected", [
    (
        ("ext", "--p", "3", "--lambda", "2,1", "--mu", "3"),
        "Ext^0(Weyl[2, 1], weyl[3, 0]) = 1\n"
        "Ext^1(Weyl[2, 1], weyl[3, 0]) = 1",
    ),
    (
        ("verify", "--theorem", "1.1.1", "--p", "3", "--d", "1", "--lambda", "2,2", "--mu", "4",
         "--n", "3"),
        "theorem 1.1.1: verdict PASS\n"
        "dims:         [1, 1, 0]\n"
        "shifted dims: [1, 1, 0]\n"
        "  pd_gt_r_minus_l1: True\n"
        "  mu2_le_l1: True\n"
        "  all_hold: True",
    ),
    (
        ("verify", "--theorem", "6.4", "--p", "2", "--d", "1", "--lambda", "2,1", "--mu", "2,1",
         "--n", "3"),
        "theorem 6.4: verdict PASS\n"
        "d=1: dims         [1, 0]\n"
        "d=1: shifted dims [1, 0]\n"
        "  lambda_is_hook: True\n"
        "  max_degree_covered: 1\n"
        "  all_hold: True",
    ),
], ids=["ext", "verify-1.1.1", "verify-6.4"])
def test_table_format(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--format", "table")
    assert code == 0 and out == expected


@pytest.mark.parametrize("theorem", ["6.1", "6.4"])
def test_verify_max_degree_unused_is_usage_error(capsys, theorem):
    # neither preset builds a truncated complex, so a degree bound would be
    # silently ignored while still entering the cache key
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--p", "2", "--d", "1",
                         "--lambda", "2,1,1", "--mu", "4", "--max-degree", "0")
    assert code == 2 and out == ""
    assert "--max-degree" in err


# straighten --format json output recorded before the tableau text was parsed
# only once; the first call needs the entry-max rule for n (mu has one part)
STRAIGHTEN_RECORDS = [
    (
        ("--p", "3", "--mu", "3", "--tableau", "1,2,3"),
        '{"mu": [3, 0, 0], "tableau": "1,2,3", "p": 3, '
        '"coefficients": [{"tableau": "1,2,3", "c": 1}]}',
    ),
    (
        ("--p", "2", "--mu", "2,1", "--tableau", "2,3/1"),
        '{"mu": [2, 1, 0], "tableau": "2,3/1", "p": 2, '
        '"coefficients": [{"tableau": "1,2/3", "c": 1}, {"tableau": "1,3/2", "c": 1}]}',
    ),
    (
        ("--p", "3", "--mu", "4,2", "--tableau", "2,2,1,1/1,2", "--n", "3"),
        '{"mu": [4, 2, 0], "tableau": "2,2,1,1/1,2", "p": 3, '
        '"coefficients": [{"tableau": "1,1,1,2/2,2", "c": 1}]}',
    ),
]


@pytest.mark.parametrize("argv, expected", STRAIGHTEN_RECORDS, ids=["entry-max", "two-terms", "n"])
def test_straighten_records_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, "straighten", "--format", "json", *argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("damage", ["truncated", "empty-object", "list", "null", "other-pair", "key-only"])
def test_truncated_cache_record_is_recomputed(tmp_path, capsys, damage):
    # a record that does not decode, or decodes to anything but a record of
    # the requested key with the fields ext reads, is warned about once,
    # recomputed and replaced
    args = ("ext", "--p", "2", "--lambda", "2,1", "--mu", "3", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    (path,) = tmp_path.glob("*.json")
    good = path.read_text()
    if damage == "other-pair":
        other = tmp_path / "other"
        run(capsys, "ext", "--p", "2", "--lambda", "1,1", "--mu", "2", "--cache-dir", str(other))
        (other_path,) = other.glob("*.json")
        path.write_text(other_path.read_text())
    elif damage == "key-only":
        path.write_text(json.dumps({"result": {"key": json.loads(good)["result"]["key"]}}))
    else:
        damaged = {"truncated": good[: len(good) // 2], "empty-object": "{}", "list": "[1, 2]", "null": "null"}
        path.write_text(damaged[damage])
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert json.loads(out2)["result"] == json.loads(out1)["result"]
    assert len(err.splitlines()) == 1 and err.startswith("warning:")
    assert json.loads(path.read_text())["result"] == json.loads(good)["result"]
    code, _, err = run(capsys, *args)
    assert code == 0 and err == ""


def test_cache_key_includes_engine_version(tmp_path, capsys, monkeypatch):
    args = ("ext", "--p", "2", "--lambda", "1,1", "--mu", "2", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr("weylkit.cli.__version__", "0.0.0-other")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["result"]["engine_version"] == "0.0.0-other"  # recomputed
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert not list(tmp_path.glob("*.tmp"))


def _raise(exc):
    def build(*args, **kwargs):
        raise exc
    return build


def test_memory_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("weylkit.cli.compute_ext", _raise(MemoryError()))
    code, _, err = run(capsys, "ext", "--p", "2", "--lambda", "2,1", "--mu", "3")
    assert code == 3 and err.startswith("resource cap:")


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("weylkit.cli.compute_ext", _raise(KeyError("two\nlines")))
    code, _, err = run(capsys, "ext", "--p", "2", "--lambda", "2,1", "--mu", "3")
    assert code == 4
    assert err.startswith("internal error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, env", [
    (("ext", "--p", "2", "--lambda", "2,1", "--mu", "3", "--out", "{missing}/x.json"), None),
    (("survey", "--p", "2", "--r", "2", "--out", "{missing}/x.json"), None),
    (("ext", "--p", "2", "--lambda", "2,1", "--mu", "3", "--cache-dir", "{file}"), None),
    (("ext", "--p", "2", "--lambda", "2,1", "--mu", "3"), "{file}"),
], ids=["ext-out", "survey-out", "cache-dir", "cache-env"])
def test_unusable_path_is_usage_error(tmp_path, capsys, monkeypatch, argv, env):
    # these used to end as exit 4, "internal error: FileNotFoundError" or
    # "NotADirectoryError"
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    paths["file"].write_text("", encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("WEYLKIT_CACHE", env.format(**paths))
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _checkout_env():
    """The environment of a command run from this checkout's ``src`` without an install."""
    env = {k: v for k, v in os.environ.items() if k not in ("WEYLKIT_CACHE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_package_runs_as_module():
    argv = ["kostka", "--mu", "2,1", "--alpha", "1,1,1", "--n", "3"]
    proc = subprocess.run([sys.executable, "-m", "weylkit", *argv], env=_checkout_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")


@pytest.mark.parametrize("argv, keep", [
    # `weylkit ext ... | head -c 30`: the reader leaves after 30 bytes of a
    # record of about 300 kB, more than a pipe holds
    (["ext", "--p", "3", "--lambda", "2,1", "--mu", "3", "--max-degree", "100000"], 30),
    # `weylkit kostka ... | true`: the reader is gone before the buffered
    # record is flushed
    (["kostka", "--mu", "2,1", "--alpha", "1,1,1", "--n", "3"], 0),
], ids=["mid-record", "at-flush"])
def test_closed_stdout_exits_quietly(argv, keep):
    proc = subprocess.Popen([sys.executable, "-m", "weylkit.cli", *argv], env=_checkout_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""
    assert len(head) == keep


def test_resolve_info_negative_max_degree_is_usage_error(capsys):
    # ext and verify reject a negative degree bound; resolve-info used to
    # print the length with no degree lines and exit 0
    code, out, err = run(capsys, "resolve-info", "--lambda", "2,1", "--max-degree", "-1")
    assert code == 2 and out == ""
    assert "--max-degree" in err


@pytest.mark.parametrize("argv", [
    ("ext", "--p", "3", "--lambda", "2,1", "--mu", "3"),
    ("verify", "--theorem", "1.1.1", "--p", "2", "--d", "1", "--lambda", "2,1", "--mu", "3"),
    ("survey", "--p", "2", "--r", "2"),
    ("kostka", "--mu", "2,1", "--alpha", "1,1,1"),
    ("p-kostka", "--p", "2", "--mu", "2,1", "--alpha", "1,1,1"),
    ("straighten", "--p", "2", "--mu", "2,1", "--tableau", "1,2/2"),
    ("gram", "--p", "2", "--mu", "2,1", "--alpha", "1,1,1"),
    ("resolve-info", "--lambda", "2,1", "--max-degree", "2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_rank_below_one_is_usage_error(capsys, argv, n):
    # ext and survey used to read --n 0 as "not given"
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 2 and out == ""
    assert "--n must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("ext", "--p", "2", "--lambda", "2,1", "--mu", "3", "--max-r", "20"),
    ("survey", "--p", "2", "--r", "2", "--max-r", "20"),
], ids=["ext", "survey"])
def test_degree_cap_option_is_gone(capsys, argv):
    # the chain layout bounds itself, so the degree needs no cap of its own
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-r 20" in capsys.readouterr().err
