"""The benchmark's workloads: which CLI ops they run and how a seed picks them.

Every op is one ``weylkit.cli.main(argv)`` call, the path a user's command
takes.  The seed draws the op order of every pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _fmt(parts) -> str:
    return ",".join(str(x) for x in parts)


def partitions(n: int, r: int) -> list[tuple[int, ...]]:
    """Partitions of r with at most n parts, padded to length n, in reverse
    lexicographic order (the order ``weylkit.shapes.enumerate_partitions``
    uses)."""
    def build(remaining, parts_left, cap):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        for head in range(min(remaining, cap), -1, -1):
            for tail in build(remaining - head, parts_left - 1, head):
                yield (head,) + tail

    return list(build(r, n, r))


def ext_op(p, lam, mu, target="weyl") -> list[str]:
    argv = ["ext", "--p", str(p), "--lambda", _fmt(lam), "--mu", _fmt(mu)]
    return argv + ["--target", target] if target != "weyl" else argv


def verify_op(theorem, p, d, lam, mu) -> list[str]:
    return ["verify", "--theorem", theorem, "--p", str(p), "--d", str(d),
            "--lambda", _fmt(lam), "--mu", _fmt(mu)]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


@dataclass(frozen=True)
class Workload:
    """A named list of ops.

    ``child_per_op``: run every op in its own fresh interpreter, as
    separate ``weylkit`` commands would, instead of one interpreter per
    pass whose ops share the memo caches.  ``rlimit_mb``: the address-space cap
    of each child, well above its measured peak.
    """

    name: str
    why: str
    grid: tuple[tuple[str, ...], ...]
    tiny: tuple[tuple[str, ...], ...]
    child_per_op: bool
    rlimit_mb: int


def _ext_full() -> Workload:
    grid = (
        ext_op(3, (3, 3, 3), (9, 0, 0)),
        ext_op(3, (3, 3, 3), (9, 0, 0), "simple"),
        ext_op(2, (2, 2, 2, 1), (5, 2, 0, 0)),
    )
    tiny = (
        ext_op(3, (2, 1, 0), (3, 0, 0)),
        ext_op(3, (2, 1, 0), (3, 0, 0), "simple"),
        ext_op(2, (1, 1, 1), (2, 1, 0)),
    )
    return Workload(
        "ext-full",
        "three full-length ext ops; dense differentials and rank_mod take most of the time "
        "and set the memory",
        tuple(map(tuple, grid)), tuple(map(tuple, tiny)),
        child_per_op=True, rlimit_mb=3072,
    )


def _verify_shift() -> Workload:
    grid = []
    tiny = []
    for r in (5, 6, 7):
        shapes = partitions(3, r)
        for p, d in ((2, 3), (3, 2)):
            for theorem in ("1.1.1", "1.1.2"):
                grid.extend(verify_op(theorem, p, d, lam, mu) for lam in shapes for mu in shapes)
    for theorem in ("1.1.1", "1.1.2"):
        tiny.extend(verify_op(theorem, 2, 1, lam, (3, 0, 0)) for lam in partitions(3, 3))
    return Workload(
        "verify-shift",
        "many small verify 1.1.1/1.1.2 ops sharing memo caches; chain-length counting on "
        "shifted partitions dominates",
        tuple(map(tuple, grid)), tuple(map(tuple, tiny)),
        child_per_op=False, rlimit_mb=1536,
    )


def _hom_oracle() -> Workload:
    grid = []
    for r in (6, 7, 8):
        shapes = partitions(4, r)
        for p in (2, 3):
            grid.extend(verify_op("6.1", p, 1, lam, mu) for lam in shapes for mu in shapes)
    tiny = [verify_op("6.1", 2, 1, lam, (2, 2, 0, 0)) for lam in partitions(4, 4)]
    return Workload(
        "hom-oracle",
        "verify 6.1 box-presentation Hom oracle: weight spaces, action matrices and small "
        "dense rref, no chains",
        tuple(map(tuple, grid)), tuple(map(tuple, tiny)),
        child_per_op=False, rlimit_mb=1536,
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (_ext_full(), _verify_shift(), _hom_oracle())}


def draw_ops(workload: Workload, seed: int, pass_index: int, tiny: bool = False) -> list[list[str]]:
    """The ops of one pass of a run, in an order drawn from the seed.

    Every pass of a run gets its own order.  Op latencies and the peak RSS
    of a grid depend on the order, because it decides which op fills the
    shared memo caches; a median over several orders follows the seed less.
    """
    ops = [list(argv) for argv in (workload.tiny if tiny else workload.grid)]
    random.Random(f"{workload.name}:{seed}:{pass_index}").shuffle(ops)
    return ops
