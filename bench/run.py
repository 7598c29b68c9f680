"""weylkit benchmark: end-to-end metrics per workload, and a traced
per-layer split.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ext-full --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all           # every workload in turn
    python3 bench/run.py --workload all --tiny    # smoke test of the harness
    python3 bench/run.py --record-references      # re-pin the result digests

A run spawns fresh child interpreters (``child.py``) from a single client
and runs its ops back to back in a closed loop: one client, one op at a
time, no threads.  It repeats passes over the workload's ops, each pass in
an order drawn from the seed, until the next pass would overrun
``--seconds`` (at least one pass), checks every op's
result digest against ``references.json``, prints each metric by name with
its unit, writes the details to ``.bench_out/`` and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  It exits 1 when any op failed, and 2 when it cannot run
at all (for instance when ``src/weylkit`` is missing).

With ``--trace 1`` it alternates untraced and traced passes (at least one
of each) and reports the per-layer metrics of ``tracer.py`` instead, as
medians over the traced passes.  See README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYER_METRICS, combine  # noqa: E402
from workloads import WORKLOADS, Workload, draw_ops, op_key  # noqa: E402

CHILD = BENCH_DIR / "child.py"
REFERENCES = BENCH_DIR / "references.json"
SETUP_PROBES = 5  # import-only children per run, for a steadier setup_s
RUN_DEADLINE_S = 170  # no child may run past this, counted from the run's start

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def child_env(root: Path) -> dict[str, str]:
    """A hermetic environment: no result cache, one BLAS/OpenMP thread,
    fixed hashing, and no inherited Python path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "WEYLKIT_CACHE"}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


class Runner:
    """Spawns children for one run and keeps the run's deadline."""

    def __init__(self, root: Path, deadline_s: float | None = RUN_DEADLINE_S):
        self.root = root
        self.env = child_env(root)
        self.deadline_s = deadline_s
        self.started = time.monotonic()
        self.numpy_version = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, ops, rlimit_mb: int, trace_out: Path | None = None) -> dict:
        """Run ops in one fresh child; return its reply, with ``setup_s``
        (spawn until ``weylkit.cli`` was imported), or an ``error``."""
        request = {
            "src": str(self.root / "src"),
            "ops": ops,
            "rlimit_mb": rlimit_mb,
            "trace_out": str(trace_out) if trace_out else None,
        }
        timeout = None
        if self.deadline_s is not None:
            timeout = max(1.0, self.deadline_s - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD)], input=json.dumps(request), capture_output=True,
                text=True, env=self.env, cwd=self.root, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        try:
            reply = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return {"error": f"child printed no reply: {proc.stdout.strip()[-500:]}"}
        reply["setup_s"] = reply["import_done"] - spawned
        self.numpy_version = reply["numpy"]
        return reply


def run_pass(runner: Runner, workload: Workload, ops, refs: dict, trace_out: Path | None) -> dict:
    """One pass over ops: a child per op or one child for all of them."""
    groups = [[op] for op in ops] if workload.child_per_op else [ops]
    started = time.monotonic()
    latencies, failures, setups, rss, layers, missing = [], [], [], [], [], set()
    for index, group in enumerate(groups):
        out = None
        if trace_out is not None:
            out = trace_out.with_name(f"{trace_out.stem}-{index}.npz")
        reply = runner.spawn(group, workload.rlimit_mb, out)
        if "error" in reply:
            failures.extend({"op": op_key(op), "error": reply["error"]} for op in group)
            continue
        setups.append(reply["setup_s"])
        rss.append(reply["maxrss_kb"] / 1024)
        if "layers" in reply:
            layers.append(reply["layers"])
            missing.update(reply["missing_targets"])
        for op, result in zip(group, reply["ops"]):
            key = op_key(op)
            latencies.append(result["ms"])
            expected = refs.get(key, {}).get("digest")
            if result["error"] or result["rc"] != 0:
                failures.append({"op": key, "error": result["error"] or f"exit {result['rc']}"})
            elif expected is None:
                failures.append({"op": key, "error": "no reference digest"})
            elif result["digest"] != expected:
                failures.append({"op": key, "error": f"digest {result['digest']} != {expected}"})
    return {
        "wall_s": sum(latencies) / 1000,
        "elapsed_s": time.monotonic() - started,
        "op_ms": latencies,
        "attempted": len(ops),
        "failures": failures,
        "setup_s": setups,
        "peak_rss_mb": max(rss, default=0.0),
        "layers": combine(layers) if trace_out is not None and layers else None,
        "missing_targets": sorted(missing),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples; 0 without any."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, refs: dict,
                 root: Path, out_dir: Path, tiny: bool = False) -> dict:
    """Run one workload for about ``seconds``; return the run's record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root)

    runner.spawn([], workload.rlimit_mb)  # warm-up: file cache and bytecode
    probes = [runner.spawn([], workload.rlimit_mb) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes if "setup_s" in p]

    if trace:  # keep only the latest traced run's spans of this workload
        for old in out_dir.glob(f"spans-{workload.name}-pass*.npz"):
            old.unlink()
    plain, traced = [], []
    while True:
        kind_traced = trace and len(traced) < len(plain)
        trace_out = None
        if kind_traced:
            trace_out = out_dir / f"spans-{workload.name}-pass{len(traced)}.npz"
        ops = draw_ops(workload, seed, len(plain) + len(traced), tiny)
        (traced if kind_traced else plain).append(
            run_pass(runner, workload, ops, refs, trace_out))
        if trace and not traced:
            continue
        upcoming = traced if trace and len(traced) < len(plain) else plain
        estimate = statistics.mean(p["elapsed_s"] for p in upcoming)
        if runner.elapsed() + estimate > seconds:
            break

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    setups += [s for p in passes for s in p["setup_s"]]
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        metrics = {}
        for name, unit in LAYER_METRICS:
            values = [p["layers"].get(name, 0.0) for p in traced if p["layers"]]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"]["value"] = traced_wall - plain_wall
    else:
        values = {
            "wall_s": plain_wall,
            "op_p50_ms": statistics.median(percentile(p["op_ms"], 50) for p in plain),
            "op_p90_ms": statistics.median(percentile(p["op_ms"], 90) for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "tiny": tiny,
            "ops_per_pass": len(ops),
            "passes": len(plain),
            "traced_passes": len(traced),
            "fail_ratio": len(failures) / attempted if attempted else 0.0,
            "failures": failures[:50],
            "pass_wall_s": [p["wall_s"] for p in plain],
            "traced_pass_wall_s": [p["wall_s"] for p in traced],
            "setup_samples_s": setups,
            "missing_trace_targets": sorted({m for p in traced for m in p["missing_targets"]}),
            "environment": environment(root, runner.numpy_version),
        },
    }


def environment(root: Path, numpy_version: str | None) -> dict:
    """Where a result came from: code, interpreter, numpy, cores."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "weylkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def print_run(record: dict):
    d = record["details"]
    env = d["environment"]
    print(f"# {d['workload']} seed={d['seed']} trace={int(d['trace'])} "
          f"passes={d['passes']}+{d['traced_passes']} ops/pass={d['ops_per_pass']} "
          f"commit={env['commit']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']}")
    for name, metric in record["metrics"].items():
        print(f"{d['workload']:<13} {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{d['workload']:<13} {'fail_ratio':<30} {d['fail_ratio']:>14.6g} "
          f"ratio ({record['failed']}/{record['attempted']})")
    for failure in d["failures"][:5]:
        print(f"FAILED {failure['op']}: {failure['error']}")


def record_references(root: Path) -> int:
    """Pin each op's result digest by running every op of every workload
    once, tiny ops too."""
    runner = Runner(root, deadline_s=None)
    refs = {}
    for workload in WORKLOADS.values():
        for ops in (workload.grid, workload.tiny):
            ops = [list(op) for op in ops]
            groups = [[op] for op in ops] if workload.child_per_op else [ops]
            for group in groups:
                reply = runner.spawn(group, workload.rlimit_mb)
                if "error" in reply:
                    print(reply["error"], file=sys.stderr)
                    return 1
                for op, result in zip(group, reply["ops"]):
                    if result["error"] or result["rc"] != 0 or result["digest"] is None:
                        print(f"{op_key(op)}: {result}", file=sys.stderr)
                        return 1
                    refs[op_key(op)] = {"digest": result["digest"]}
            print(f"{workload.name}: {len(ops)} ops pinned", file=sys.stderr)
    payload = {"environment": environment(root, runner.numpy_version), "ops": refs}
    REFERENCES.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload's tiny op list instead (a smoke test)")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "weylkit" / "cli.py").is_file():
        print(f"no weylkit sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_references:
        return record_references(root)
    if not REFERENCES.is_file():
        print(f"missing {REFERENCES}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["ops"]

    out_dir = root / ".bench_out"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), refs,
                              root, out_dir, args.tiny)
        tag = "-tiny" if args.tiny else ""
        (out_dir / f"{name}{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print_run(record)
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                         "metrics")}))
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
