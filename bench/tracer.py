"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the weylkit modules from outside, so
the engine itself carries no instrumentation.  Modules import functions by
name (``ext`` does ``from .linalg import rank_mod``), so a wrapper has to
replace the name in every module namespace that holds it; replacing
``linalg.rank_mod`` alone would miss every call made through ``ext``.

Each call through a wrapper records one span (name, start, end, parent,
op id) in memory.  Spans are written out once the pass ends.  A layer's
self time is the summed duration of its spans minus the time covered by
their direct children; since one thread records all spans, children never
overlap and the covered time is the sum of their durations.

A target that no longer exists in the engine is skipped and listed as
missing, so a refactor that renames a function empties its metrics instead
of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (span name, defining module, attribute, patch the defining module too)
#
# The defining module is left alone where one public function of a layer
# calls another and the outer one should keep that time: rank_mod and
# kernel_basis_mod call rref_mod inside linalg, and multinom_mod calls
# binom_mod inside fparith.
TARGETS = (
    ("cli.main", "cli", "main", True),
    ("ext.verify", "ext", "verify_periodicity", True),
    ("ext.verify", "ext", "verify_hom_bound", True),
    ("ext.iso", "ext", "verify_complex_isomorphism", True),
    ("ext.hom_oracle", "ext", "hom_dim_oracle", True),
    ("ext.build", "ext", "build_hom_complex", True),
    ("resolutions.sy_degree", "resolutions", "sy_degree", True),
    ("resolutions.sy_arrows", "resolutions", "sy_arrows", True),
    ("shapes.chain_length", "shapes", "ChainSpace.max_length", True),
    ("shapes.chains", "shapes", "ChainSpace.chains", True),
    ("shapes.kostka", "shapes", "kostka", False),
    ("weyl.weight_space", "weyl", "build_weight_space", True),
    ("weyl.act_matrix", "weyl", "act_matrix", True),
    ("weyl.act_simple", "weyl", "act_matrix_simple", True),
    ("weyl.gram", "weyl", "gram_data", True),
    ("schur.xi_terms", "schur", "xi_product_terms", True),
    ("linalg.rank", "linalg", "rank_mod", False),
    ("linalg.rref", "linalg", "rref_mod", False),
    ("linalg.kernel", "linalg", "kernel_basis_mod", False),
    ("fparith.binom", "fparith", "binom_mod", False),
)

MODULES = ("cli", "ext", "resolutions", "shapes", "weyl", "schur", "linalg", "fparith")

# memo caches whose hit and miss counts are reported, by metric prefix
CACHES = (
    ("weyl.weight_space", "weyl", "build_weight_space"),
    ("weyl.act_matrix", "weyl", "act_matrix"),
    ("weyl.gram", "weyl", "gram_data"),
    ("schur.xi_terms", "schur", "xi_product_terms"),
)

INSPECT = "trace.inspect"

# per-layer metrics reported by a traced run, with their units
LAYER_METRICS = (
    ("linalg.rank_s", "s"),
    ("linalg.rank_calls", "count"),
    ("linalg.rank_entries", "count"),
    ("linalg.rref_s", "s"),
    ("linalg.rref_calls", "count"),
    ("linalg.kernel_s", "s"),
    ("ext.build_s", "s"),
    ("ext.assemble_self_s", "s"),
    ("ext.iso_s", "s"),
    ("ext.hom_oracle_s", "s"),
    ("ext.verify_s", "s"),
    ("ext.diff_entries", "count"),
    ("ext.diff_nnz", "count"),
    ("ext.diff_fill", "ratio"),
    ("ext.diff_dense_mb", "MB"),
    ("ext.diff_dense_mb_max", "MB"),
    ("ext.basis_dim_max", "count"),
    ("ext.basis_dim_sum", "count"),
    ("resolutions.sy_arrows_s", "s"),
    ("resolutions.arrows", "count"),
    ("resolutions.sy_degree_s", "s"),
    ("resolutions.summands", "count"),
    ("shapes.chain_length_s", "s"),
    ("shapes.chain_length_calls", "count"),
    ("shapes.chains_s", "s"),
    ("shapes.kostka_s", "s"),
    ("shapes.cache_entries", "count"),
    ("weyl.weight_space_s", "s"),
    ("weyl.weight_space_misses", "count"),
    ("weyl.weight_space_hit_ratio", "ratio"),
    ("weyl.act_matrix_s", "s"),
    ("weyl.act_matrix_misses", "count"),
    ("weyl.act_matrix_hit_ratio", "ratio"),
    ("weyl.act_simple_s", "s"),
    ("weyl.gram_s", "s"),
    ("weyl.gram_misses", "count"),
    ("weyl.cache_entries", "count"),
    ("schur.xi_terms_s", "s"),
    ("schur.xi_terms_misses", "count"),
    ("schur.xi_terms_hit_ratio", "ratio"),
    ("schur.cache_entries", "count"),
    ("fparith.binom_s", "s"),
    ("fparith.binom_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.records", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """Records spans in column arrays; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[tuple[int, int]] = []  # (span id, name id) of open spans
        self._next = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, nid))
        return sid, parent

    def close(self, sid: int, nid: int, parent: int, start: float, end: float):
        self._stack.pop()
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, span_name: str, fn, inspect=None):
        """Wrap fn so each call records a span; ``inspect(counts, args,
        result)`` runs after the call inside its own ``trace.inspect`` span,
        so its cost is charged to the tracer, not to the caller.

        A direct recursive call (the innermost open span has the same name)
        runs unwrapped: the outer span already covers it.
        """
        nid = self.name_id(span_name)
        inspect_nid = self.name_id(INSPECT)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][1] == nid:
                return fn(*args, **kwargs)
            sid, parent = self.open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid, nid, parent, start, clock())
            if inspect is not None:
                isid, iparent = self.open(inspect_nid)
                istart = clock()
                try:
                    inspect(self.counts, args, result)
                finally:
                    self.close(isid, inspect_nid, iparent, istart, clock())
            return result

        traced.__traced__ = fn
        return traced

    def spans(self) -> list[tuple[int, int, str, int, float, float]]:
        """All closed spans as (id, parent id, name, op id, start, end)."""
        return [
            (self.sid[i], self.parent[i], self.names[self.name[i]], self.op[i],
             self.start[i], self.end[i])
            for i in range(len(self.sid))
        ]

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(self time, inclusive time, span count) per span name."""
        sid = np.frombuffer(self.sid, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, np.float64)
        covered = np.zeros(int(sid.max()) + 1 if sid.size else 0)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        size = len(self.names)
        own = np.bincount(name, weights=dur - covered[sid], minlength=size)
        inclusive = np.bincount(name, weights=dur, minlength=size)
        count = np.bincount(name, minlength=size)
        return (
            {n: float(own[i]) for i, n in enumerate(self.names)},
            {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            {n: int(count[i]) for i, n in enumerate(self.names)},
        )

    def write(self, path):
        """Write the spans as a numpy ``.npz`` of columns (id, parent, name,
        op, start, end) plus the ``names`` table that ``name`` indexes."""
        np.savez(
            path,
            id=np.frombuffer(self.sid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )


def self_times(spans) -> dict[str, float]:
    """Self time per span name from (id, parent id, name, start, end) rows:
    each span's duration minus the summed durations of its direct children.

    Reference form of ``Tracer.totals`` for the benchmark's tests.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        out[name] += (end - start) - covered[sid]
    return dict(out)


# ---------------------------------------------------------------------------
# inspection of arguments and return values


def _count_build(counts, args, complex_):
    dims = list(getattr(complex_, "dims", ()))
    diffs = list(getattr(complex_, "diffs", ()))
    entries = sum(dims[k] * dims[k + 1] for k in range(min(len(diffs), len(dims) - 1)))
    nnz = 0
    for mat in diffs:
        stored = getattr(mat, "nnz", None)
        nnz += int(stored) if stored is not None else int(np.count_nonzero(mat))
    counts["ext.diff_entries"] += entries
    counts["ext.diff_nnz"] += nnz
    counts["ext.basis_dim_sum"] += sum(dims)
    counts["ext.basis_dim_max"] = max(counts["ext.basis_dim_max"], max(dims, default=0))
    counts["ext.diff_bytes_max"] = max(counts["ext.diff_bytes_max"], 8 * entries)


def _count_len(key):
    def inspect(counts, args, result):
        counts[key] += len(result)
    return inspect


def _count_rank(counts, args, result):
    shape = getattr(args[0], "shape", (0, 0))
    counts["linalg.rank_entries"] += int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


INSPECTORS = {
    "ext.build": _count_build,
    "resolutions.sy_degree": _count_len("resolutions.summands"),
    "resolutions.sy_arrows": _count_len("resolutions.arrows"),
    "linalg.rank": _count_rank,
}


# ---------------------------------------------------------------------------
# installing the wrappers


def _modules() -> dict[str, object]:
    return {name: importlib.import_module(f"weylkit.{name}") for name in MODULES}


def _resolve(module, attr: str):
    """(owner, leaf name, current value) for ``attr``, or None if missing."""
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Patch every target; return (undo list, missing target names)."""
    modules = _modules()
    undo = []
    missing = []
    for span_name, mod_name, attr, patch_home in TARGETS:
        found = _resolve(modules[mod_name], attr)
        if found is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        owner, leaf, original = found
        wrapped = tracer.wrap(span_name, original, INSPECTORS.get(span_name))
        if owner is not modules[mod_name]:  # a method: patch the class
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            continue
        for name, module in modules.items():
            if name == mod_name and not patch_home:
                continue
            if module.__dict__.get(leaf) is original:
                undo.append((module, leaf, original))
                setattr(module, leaf, wrapped)
    return undo, missing


def uninstall(undo):
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each reported memo cache."""
    modules = _modules()
    out = {}
    for prefix, mod_name, attr in CACHES:
        fn = getattr(modules[mod_name], attr, None)
        fn = getattr(fn, "__traced__", fn)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            stats = info()
            out[prefix] = (stats.hits, stats.misses)
    return out


def cache_entries(chain_spaces=()) -> dict[str, int]:
    """Entries held by the memo caches of shapes, weyl and schur.

    Counts ``currsize`` of every ``lru_cache`` defined in the module, plus,
    for shapes, the dict memos held by the chain spaces passed in.
    """
    out = {}
    for name, module in _modules().items():
        if name not in ("shapes", "weyl", "schur"):
            continue
        total = 0
        for value in list(vars(module).values()):
            value = getattr(value, "__traced__", value)
            info = getattr(value, "cache_info", None)
            if info is not None and getattr(value, "__module__", None) == module.__name__:
                total += info().currsize
        out[f"{name}.cache_entries"] = total
    out["shapes.cache_entries"] += sum(
        len(memo) for space in chain_spaces for memo in vars(space).values()
        if isinstance(memo, dict)
    )
    return out


def track_chain_spaces(undo) -> list:
    """Keep every chain space built from now on, for ``cache_entries``."""
    spaces: list = []
    shapes = importlib.import_module("weylkit.shapes")
    cls = getattr(shapes, "ChainSpace", None)
    if cls is None:
        return spaces
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        spaces.append(self)

    undo.append((cls, "__init__", original))
    cls.__init__ = init
    return spaces


def layer_metrics(tracer: Tracer, cache_before, cache_after, entries) -> dict[str, float]:
    """Per-layer metrics of one traced child, before summing over children."""
    own, inclusive, calls = tracer.totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for span_name, metric in (
        ("linalg.rank", "linalg.rank_s"),
        ("linalg.rref", "linalg.rref_s"),
        ("linalg.kernel", "linalg.kernel_s"),
        ("ext.build", "ext.assemble_self_s"),
        ("ext.iso", "ext.iso_s"),
        ("ext.hom_oracle", "ext.hom_oracle_s"),
        ("ext.verify", "ext.verify_s"),
        ("resolutions.sy_arrows", "resolutions.sy_arrows_s"),
        ("resolutions.sy_degree", "resolutions.sy_degree_s"),
        ("shapes.chain_length", "shapes.chain_length_s"),
        ("shapes.chains", "shapes.chains_s"),
        ("shapes.kostka", "shapes.kostka_s"),
        ("weyl.weight_space", "weyl.weight_space_s"),
        ("weyl.act_matrix", "weyl.act_matrix_s"),
        ("weyl.act_simple", "weyl.act_simple_s"),
        ("weyl.gram", "weyl.gram_s"),
        ("schur.xi_terms", "schur.xi_terms_s"),
        ("fparith.binom", "fparith.binom_s"),
        ("cli.main", "cli.self_s"),
    ):
        out[metric] = own.get(span_name, 0.0)
    out["ext.build_s"] = inclusive.get("ext.build", 0.0)
    for span_name, metric in (
        ("linalg.rank", "linalg.rank_calls"),
        ("linalg.rref", "linalg.rref_calls"),
        ("shapes.chain_length", "shapes.chain_length_calls"),
        ("fparith.binom", "fparith.binom_calls"),
    ):
        out[metric] = calls.get(span_name, 0)
    for key in ("linalg.rank_entries", "ext.diff_entries", "ext.diff_nnz", "ext.diff_bytes_max",
                "ext.basis_dim_sum", "ext.basis_dim_max", "resolutions.summands",
                "resolutions.arrows", "cli.records"):
        out[key] = counts[key]
    for prefix, (hits_after, misses_after) in cache_after.items():
        hits_before, misses_before = cache_before.get(prefix, (0, 0))
        out[f"{prefix}_hits"] = hits_after - hits_before
        out[f"{prefix}_misses"] = misses_after - misses_before
    out.update(entries)
    out["trace.spans"] = len(tracer.sid)
    return out


def combine(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a pass from its children's raw metrics: sums,
    except maxima, and ratios taken on the sums."""
    total: dict[str, float] = defaultdict(float)
    for raw in children:
        for key, value in raw.items():
            if key in ("ext.basis_dim_max", "ext.diff_bytes_max"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    out = dict(total)
    entries = out.get("ext.diff_entries", 0)
    out["ext.diff_fill"] = out.get("ext.diff_nnz", 0) / entries if entries else 0.0
    out["ext.diff_dense_mb"] = 8 * entries / 2**20
    out["ext.diff_dense_mb_max"] = out.pop("ext.diff_bytes_max", 0) / 2**20
    for prefix, _mod, _attr in CACHES:
        hits = out.pop(f"{prefix}_hits", 0)
        misses = out.get(f"{prefix}_misses", 0)
        out[f"{prefix}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
