"""One benchmark child: a fresh interpreter that runs a list of CLI ops.

Started by ``run.py``; not meant to be run by hand.  It reads one JSON
request from stdin::

    {"src": ".../src", "ops": [[argv...], ...], "rlimit_mb": 1024,
     "trace_out": null or a path for the span file}

caps its own address space, imports ``weylkit.cli`` from ``src``, runs every
op as ``weylkit.cli.main(argv)`` with stdout and stderr captured, and writes
one JSON object to stdout: the monotonic time at which the import finished,
each op's latency, exit code, result digest and error, the peak RSS, and,
when traced, the raw per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def result_digest(stdout: str) -> str | None:
    """sha256 of the canonical JSON of the last record's ``result``, or None
    when the op printed no JSON record."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or "result" not in record:
        return None
    canonical = json.dumps(record["result"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        rc = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # the op failed; the pass goes on
        error = f"{type(exc).__name__}: {exc}"[:300]
    ms = (time.perf_counter() - start) * 1000
    if rc not in (0, None) and error is None:
        error = err.getvalue().strip()[:300] or f"exit code {rc}"
    return {"ms": ms, "rc": rc, "digest": result_digest(out.getvalue()), "error": error}


def main() -> int:
    request = json.loads(sys.stdin.read())
    limit = int(request["rlimit_mb"]) * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    src = os.path.realpath(request["src"])
    sys.path.insert(0, src)
    from weylkit import cli

    import_done = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"weylkit was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if request.get("trace_out"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer)
        spaces = tracing.track_chain_spaces(undo)
        cache_before = tracing.cache_stats()

    ops = []
    for op_id, argv in enumerate(request["ops"]):
        if tracer is not None:
            tracer.op_id = op_id
        ops.append(run_op(cli, argv))

    reply = {
        "import_done": import_done,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.counts["cli.records"] = sum(op["digest"] is not None for op in ops)
        cache_after = tracing.cache_stats()
        entries = tracing.cache_entries(spaces)
        tracing.uninstall(undo)
        reply["layers"] = tracing.layer_metrics(tracer, cache_before, cache_after, entries)
        reply["missing_targets"] = missing
        tracer.write(request["trace_out"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
