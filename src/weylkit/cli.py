"""Command line interface: Ext tables, periodicity verification, batch
surveys, and thin wrappers over the straightening / Gram / product tools.

Results are emitted as single-line JSON records.  The deterministic payload
lives under "result" (stable field order, no timestamps); timing sits next
to it and is excluded from cache comparisons.  Records are cached under a
content hash of their key and the engine version when a cache directory is
configured (flag --cache-dir or the WEYLKIT_CACHE environment variable).

Exit codes: 0 success or PASS/SHARPNESS verdicts, 1 FAIL (a verified
statement broke with its hypotheses satisfied: an engine bug), 2 usage
errors, 3 resource caps (including running out of memory), 4 any other
internal error.  A closed stdout (``weylkit ... | head``) ends the command
quietly with exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path

from . import __version__
from .ext import (
    THEOREMS,
    ResourceLimitError,
    TheoremViolationError,
    check_hypotheses,
    compute_ext,
    hook_ext_crosscheck,
    verify_hom_bound,
    verify_periodicity,
)
from .resolutions import is_hook
from .schur import xi_product
from .shapes import (
    Tableau,
    chain_space,
    dominates,
    enumerate_partitions,
    format_composition,
    format_tableau,
    kostka,
    linked,
    pad,
    parse_composition,
    parse_matrix,
    parse_tableau_rows,
    validate_partition,
)
from .weyl import build_weight_space, gram_data, simple_dim, straighten

CACHE_ENV = "WEYLKIT_CACHE"


def _rank(args, default):
    """--n when it is given, else ``default``; a rank below 1 is a usage error."""
    if args.n is None:
        return default
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    return args.n


def _partitions_from(args):
    lam = parse_composition(args.lam)
    mu = parse_composition(args.mu)
    n = _rank(args, max(len(lam), len(mu)))
    lam = validate_partition(pad(lam, n))
    mu = validate_partition(pad(mu, n))
    if sum(mu) != sum(lam):
        raise ValueError(f"lambda and mu must have equal totals, got {lam} and {mu}")
    return lam, mu, n


def _key_hash(key: dict) -> str:
    # records of another engine version never match
    hashed = {**key, "engine_version": __version__}
    return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()


def _cache_dir(args) -> Path | None:
    raw = args.cache_dir or os.environ.get(CACHE_ENV)
    return Path(raw) if raw else None


def _cache_load(cache: Path | None, key: dict, fields: tuple[str, ...]) -> dict | None:
    if cache is None:
        return None
    path = cache / f"{_key_hash(key)}.json"
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError as exc:  # undecodable or truncated
        problem = exc
    else:
        result = record.get("result") if isinstance(record, dict) else None
        if isinstance(result, dict) and result.get("key") == key and result.keys() >= set(fields):
            return record
        problem = "not a record of this key with the fields " + ", ".join(fields)
    print(f"warning: ignoring unreadable cache record {path}: {problem}", file=sys.stderr)
    return None


def _cache_store(cache: Path | None, key: dict, record: dict):
    if cache is None:
        return
    cache.mkdir(parents=True, exist_ok=True)
    # write a temp file beside the record and rename it into place, so a
    # reader never sees a partial record
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        os.replace(tmp, cache / f"{_key_hash(key)}.json")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _record(key: dict, result_fields: dict, started: float) -> dict:
    result = {"key": key, **result_fields, "engine_version": __version__}
    return {"result": result, "wall_time_ms": int((time.monotonic() - started) * 1000)}


def _run_cached(args, key: dict, fields: tuple[str, ...], compute) -> dict:
    """Fetch a record from the cache or compute and store it.

    With --recheck a cached record is additionally recomputed and the two
    result payloads must match exactly.  A stored record counts only when
    its ``result`` carries ``key`` and the ``fields`` the command reads.
    """
    cache = _cache_dir(args)
    cached = _cache_load(cache, key, fields)
    if cached is not None and not args.recheck:
        return cached
    started = time.monotonic()
    record = _record(key, compute(), started)
    if cached is not None:
        if cached["result"] != record["result"]:
            raise TheoremViolationError(
                "cache integrity violation: recomputation disagrees with stored record",
                {"cached": cached["result"], "fresh": record["result"]},
            )
        return cached
    _cache_store(cache, key, record)
    return record


# ---------------------------------------------------------------------------
# subcommands


def cmd_ext(args) -> int:
    lam, mu, n = _partitions_from(args)
    key = {
        "p": args.p,
        "n": n,
        "r": sum(lam),
        "lambda": list(lam),
        "mu": list(mu),
        "target": args.target,
        "max_degree": args.max_degree,
    }

    def compute():
        dims, consistent = compute_ext(lam, mu, args.p, args.target, args.max_degree)
        euler = sum((-1) ** i * d for i, d in enumerate(dims))
        return {"ext_dims": dims, "euler": euler, "euler_consistent": consistent}

    record = _run_cached(args, key, ("ext_dims", "euler", "euler_consistent"), compute)
    if args.format == "table":
        lines = [f"Ext^{i}(Weyl{list(lam)}, {args.target}{list(mu)}) = {d}"
                 for i, d in enumerate(record["result"]["ext_dims"])]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(record))
    return 0


def cmd_verify(args) -> int:
    if args.max_degree is not None and args.theorem in ("6.1", "6.4"):
        # these presets build no truncated complex, so the bound would go unread
        raise ValueError(f"--max-degree does not apply to theorem {args.theorem}")
    lam, mu, n = _partitions_from(args)
    key = {
        "p": args.p,
        "n": n,
        "r": sum(lam),
        "lambda": list(lam),
        "mu": list(mu),
        "theorem": args.theorem,
        "d": args.d,
        "max_degree": args.max_degree,
    }

    def compute():
        if args.theorem in ("1.1.1", "1.1.2"):
            target = "weyl" if args.theorem == "1.1.1" else "simple"
            report = verify_periodicity(lam, mu, args.p, args.d, target, args.max_degree)
        elif args.theorem == "6.1":
            report = verify_hom_bound(lam, mu, args.p, args.d)
        elif args.theorem == "6.4":
            if not is_hook(lam):
                raise ValueError(f"theorem 6.4 needs a hook shape, got {lam}")
            b = sum(1 for x in lam[1:] if x > 0)
            crosscheck = hook_ext_crosscheck(lam[0], b, mu, args.p, shift_ds=(args.d,))
            crosscheck["verdict"] = "PASS" if crosscheck["stated_bound_holds"] else "SHARPNESS"
            crosscheck["hypotheses"] = check_hypotheses(lam, mu, args.p, args.d, "6.4")
            report = crosscheck
        else:
            raise ValueError(f"unknown theorem selector {args.theorem!r}")
        return {"report": report, "verdict": report["verdict"]}

    record = _run_cached(args, key, ("report", "verdict"), compute)
    report = record["result"]["report"]
    if args.format == "table":
        lines = [f"theorem {args.theorem}: verdict {report['verdict']}"]
        if "ext_dims" in report:
            lines.append(f"dims:         {report['ext_dims']}")
            lines.append(f"shifted dims: {report['shifted_ext_dims']}")
        for check in report.get("shifted_checks", ()):
            lines.append(f"d={check['d']}: dims         {check['ext_dims']}")
            lines.append(f"d={check['d']}: shifted dims {check['shifted_ext_dims']}")
        hyp = report.get("hypotheses", {})
        lines.extend(f"  {k}: {v}" for k, v in hyp.items())
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(record))
    return 0


def cmd_survey(args) -> int:
    n = _rank(args, min(args.r, 4))
    partitions = enumerate_partitions(n, args.r)
    pairs = [(lam, mu) for lam in partitions for mu in partitions if dominates(mu, lam)]
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for index, (lam, mu) in enumerate(pairs, 1):
            key = {
                "p": args.p,
                "n": n,
                "r": args.r,
                "lambda": list(lam),
                "mu": list(mu),
                "target": args.target,
                "max_degree": args.max_degree,
            }
            handled = "cached"

            def compute(lam=lam, mu=mu):
                nonlocal handled
                dims, _ = compute_ext(lam, mu, args.p, args.target, args.max_degree)
                handled = "built" if linked(lam, mu, args.p) else "unlinked"
                # when the rank equals the degree and p is odd, degree ranges
                # of these numbers transport to the symmetric group
                labels = []
                if args.r == n and args.p > 2:
                    labels.append("degree 0 computes a Specht-module Hom space")
                    if args.p > 3:
                        labels.append(
                            f"degrees 0..{args.p - 2} compute Specht-module Ext groups"
                        )
                    if all(x == 0 for x in mu[1:]):
                        labels.append(
                            f"degrees 0..{2 * args.p - 4} compute symmetric-group "
                            "cohomology of the Specht module"
                        )
                return {"ext_dims": dims, "labels": labels}

            started = time.monotonic()
            try:
                record = _run_cached(args, key, ("ext_dims", "labels"), compute)
            except ResourceLimitError:
                handled = "skipped: cap"  # skip only this pair
            else:
                # write each record as soon as it is made: a later failure
                # (exit 3 or 4) keeps every record before it
                out.write(json.dumps(record) + "\n")
                out.flush()
            ms = int((time.monotonic() - started) * 1000)
            print(f"survey {index}/{len(pairs)} {format_composition(lam)} -> "
                  f"{format_composition(mu)}: {ms} ms, {handled}", file=sys.stderr)
    return 0


def _shape_and_weight(args):
    """Parse --mu/--alpha, defaulting the rank to the longest tuple given."""
    mu = parse_composition(args.mu)
    alpha = parse_composition(args.alpha)
    n = _rank(args, max(len(mu), len(alpha)))
    return validate_partition(pad(mu, n)), pad(alpha, n)


def cmd_straighten(args) -> int:
    mu = parse_composition(args.mu)
    rows = parse_tableau_rows(args.tableau)
    entry_max = max((max(row) for row in rows if row), default=1)
    n = _rank(args, max(len(mu), entry_max))
    mu = validate_partition(pad(mu, n))
    tab = Tableau.from_entries(rows, n)
    coords = straighten(tab, args.p, mu)
    model = build_weight_space(mu, tab.weight, args.p)
    pairs = [(format_tableau(t), int(c)) for t, c in zip(model.sst, coords) if c]
    if args.format == "json":
        _emit(args, json.dumps({"mu": list(mu), "tableau": args.tableau, "p": args.p,
                                "coefficients": [{"tableau": t, "c": c} for t, c in pairs]}))
    else:
        _emit(args, " + ".join(f"{c}*[{t}]" for t, c in pairs) if pairs else "0")
    return 0


def cmd_gram(args) -> int:
    mu, alpha = _shape_and_weight(args)
    data = gram_data(mu, alpha, args.p)
    if args.format == "json":
        _emit(args, json.dumps({"mu": list(mu), "alpha": list(alpha), "p": args.p,
                                "gram": data.gram.tolist(), "radical_dim": data.radical_dim}))
    else:
        rows = ["  ".join(str(x) for x in row) for row in data.gram.tolist()]
        rows.append(f"radical_dim: {data.radical_dim}")
        _emit(args, "\n".join(rows))
    return 0


def cmd_kostka(args) -> int:
    mu, alpha = _shape_and_weight(args)
    _emit(args, str(kostka(mu, alpha)))
    return 0


def cmd_p_kostka(args) -> int:
    mu, alpha = _shape_and_weight(args)
    _emit(args, str(simple_dim(mu, alpha, args.p)))
    return 0


def cmd_schur_mul(args) -> int:
    omega = parse_matrix(args.omega)
    pi = parse_matrix(args.pi)
    _emit(args, repr(xi_product(omega, pi, args.p)))
    return 0


def cmd_resolve_info(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    lam = validate_partition(parse_composition(args.lam, n=_rank(args, None)))
    space = chain_space(lam)
    length = space.max_length()
    degrees = []
    for k in range(min(args.max_degree, length) + 1):
        counts = ((alpha, space.count(alpha, k)) for alpha in space.tops)
        entries = [{"top": list(alpha), "multiplicity": m} for alpha, m in counts if m]
        degrees.append({"degree": k, "summands": entries,
                        "total": sum(e["multiplicity"] for e in entries)})
    payload = {"lambda": list(lam), "resolution_length": length, "degrees": degrees}
    if args.format == "json":
        _emit(args, json.dumps(payload))
    else:
        lines = [f"resolution length {length}"]
        for deg in degrees:
            parts = ", ".join(f"{tuple(e['top'])}x{e['multiplicity']}" for e in deg["summands"])
            lines.append(f"degree {deg['degree']}: total {deg['total']} [{parts}]")
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 8,3")
    sub.add_argument("--mu", required=True, help="partition, e.g. 11")
    sub.add_argument("--p", type=int, required=True, help="prime modulus")
    sub.add_argument("--n", type=int, default=None, help="rank; defaults to the parts given")


def _add_out(sub):
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_output(sub, default_format="json"):
    sub.add_argument("--format", choices=("json", "table"), default=default_format)
    _add_out(sub)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every default it holds
    is a constant, and the cache directory is read at call time."""
    parser = argparse.ArgumentParser(prog="weylkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # flags of the commands that write cache records
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache-dir", default=None, help=f"result cache (default ${CACHE_ENV})")
    cached.add_argument("--recheck", action="store_true",
                        help="recompute cached records and compare")

    ext = subs.add_parser("ext", parents=[cached],
                          help="Ext dimension table for a pair of partitions")
    _add_common(ext)
    ext.add_argument("--target", choices=("weyl", "simple"), default="weyl")
    ext.add_argument("--max-degree", type=int, default=None)
    _add_output(ext)
    ext.set_defaults(func=cmd_ext)

    verify = subs.add_parser("verify", parents=[cached], help="verify a periodicity statement")
    verify.add_argument("--theorem", choices=THEOREMS, required=True)
    _add_common(verify)
    verify.add_argument("--d", type=int, required=True, help="shift exponent")
    verify.add_argument("--max-degree", type=int, default=None,
                        help="last Ext degree compared (theorems 1.1.1 and 1.1.2)")
    _add_output(verify)
    verify.set_defaults(func=cmd_verify)

    survey = subs.add_parser("survey", parents=[cached],
                             help="Ext records for all dominated pairs in a grid")
    survey.add_argument("--p", type=int, required=True)
    survey.add_argument("--r", type=int, required=True)
    survey.add_argument("--n", type=int, default=None)
    survey.add_argument("--target", choices=("weyl", "simple"), default="weyl")
    survey.add_argument("--max-degree", type=int, default=None)
    _add_out(survey)
    survey.set_defaults(func=cmd_survey)

    st = subs.add_parser("straighten", help="semistandard expansion of a tableau class")
    st.add_argument("--p", type=int, required=True)
    st.add_argument("--mu", required=True)
    st.add_argument("--tableau", required=True, help="rows of entries, e.g. 1,2/2,2")
    st.add_argument("--n", type=int, default=None)
    _add_output(st, default_format="table")
    st.set_defaults(func=cmd_straighten)

    gram = subs.add_parser("gram", help="contravariant Gram matrix of a weight slice")
    gram.add_argument("--p", type=int, required=True)
    gram.add_argument("--mu", required=True)
    gram.add_argument("--alpha", required=True)
    gram.add_argument("--n", type=int, default=None)
    _add_output(gram, default_format="table")
    gram.set_defaults(func=cmd_gram)

    ko = subs.add_parser("kostka", help="number of semistandard tableaux")
    ko.add_argument("--mu", required=True)
    ko.add_argument("--alpha", required=True)
    ko.add_argument("--n", type=int, default=None)
    _add_out(ko)
    ko.set_defaults(func=cmd_kostka)

    pk = subs.add_parser("p-kostka", help="weight multiplicity in the simple head")
    pk.add_argument("--p", type=int, required=True)
    pk.add_argument("--mu", required=True)
    pk.add_argument("--alpha", required=True)
    pk.add_argument("--n", type=int, default=None)
    _add_out(pk)
    pk.set_defaults(func=cmd_p_kostka)

    sm = subs.add_parser("schur-mul", help="product of two basis symbols")
    sm.add_argument("--p", type=int, required=True)
    sm.add_argument("--omega", required=True, help="matrix, e.g. 1,1/0,0")
    sm.add_argument("--pi", required=True)
    _add_out(sm)
    sm.set_defaults(func=cmd_schur_mul)

    ri = subs.add_parser("resolve-info", help="summand counts of the chain resolution")
    ri.add_argument("--lambda", dest="lam", required=True)
    ri.add_argument("--max-degree", type=int, required=True)
    ri.add_argument("--n", type=int, default=None)
    _add_output(ri, default_format="table")
    ri.set_defaults(func=cmd_resolve_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except TheoremViolationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        print(json.dumps(exc.report), file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (`weylkit ... | head`): stop quietly, and
        # let the interpreter's last flush of stdout go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:  # a path given by --out, --cache-dir or $WEYLKIT_CACHE
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
