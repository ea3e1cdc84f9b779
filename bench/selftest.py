"""Self-tests of the benchmark's reference gate and tracer.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They show that the pinned block multisets follow from the D-class
structure theorem, that a corrupted answer (a wrong block multiset, a
wrong exit code) or a raising op is counted as a failed op without
stopping the pass, and that the tracer sees nested calls and puts the
package back as it found it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import sys
import tempfile
from collections import Counter
from math import isqrt
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import invsg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tables() -> dict[str, list[list[int]]]:
    """Cayley tables written out here, independent of invsg.groups."""

    def dihedral(n):
        def compose(x, y):
            s1, k1 = (1, x) if x < n else (-1, x - n)
            s2, k2 = (1, y) if y < n else (-1, y - n)
            k = (s1 * k2 + k1) % n
            return k if s1 * s2 == 1 else n + k

        return [[compose(x, y) for y in range(2 * n)] for x in range(2 * n)]

    return {
        "cyclic:4": workloads.cyclic_table(4),
        "klein4": [[a ^ b for b in range(4)] for a in range(4)],
        "cyclic:5": workloads.cyclic_table(5),
        "dihedral:3": dihedral(3),
        "cyclic:6": workloads.cyclic_table(6),
        "cyclic:7": workloads.cyclic_table(7),
    }


def _irreducible_degrees(t, subgroup: list[int], e: int, inv: list[int]) -> list[int]:
    """Degrees for the small subgroups met here: abelian, or with exactly
    one non-linear irreducible (as for S3)."""
    h = len(subgroup)
    if all(t[a][b] == t[b][a] for a in subgroup for b in subgroup):
        return [1] * h
    classes = {frozenset(t[t[g][x]][inv[g]] for g in subgroup) for x in subgroup}
    derived = {t[t[t[a][b]][inv[a]]][inv[b]] for a in subgroup for b in subgroup}
    while True:
        grown = derived | {t[a][b] for a in derived for b in derived}
        if grown == derived:
            break
        derived = grown
    linear = h // len(derived)
    assert len(classes) - linear == 1, "needs a character table"
    d = isqrt(h - linear)
    assert d * d == h - linear
    return [1] * linear + [d]


def d_class_blocks(t) -> dict[int, int]:
    """Block multiset of the semigroup algebra from its D-classes: the
    D-class of an idempotent F is {s^-1 F : s in F}, its maximal subgroup
    the stabiliser {s : sF = F}, and each irreducible degree d of the
    stabiliser gives one block of size |D| d."""
    p = len(t)
    e = workloads._identity(t)
    inv = [t[a].index(e) for a in range(p)]
    idempotents = {frozenset([e] + [i for i in range(p) if m >> i & 1]) for m in range(1 << p)}
    seen: set[frozenset] = set()
    blocks: Counter = Counter()
    for f in sorted(idempotents, key=sorted):
        if f in seen:
            continue
        d_class = {frozenset(t[inv[s]][x] for x in f) for s in f}
        seen |= d_class
        stabiliser = [s for s in range(p) if frozenset(t[s][x] for x in f) == f]
        for d in _irreducible_degrees(t, stabiliser, e, inv):
            blocks[len(d_class) * d] += 1
    return dict(blocks)


def test_reference_blocks_follow_from_d_classes():
    for spec, table in _tables().items():
        blocks = d_class_blocks(table)
        assert blocks == workloads.BLOCKS[spec], spec
        assert sum(blocks.values()) == workloads.CENTER_DIM[spec], spec
        assert sum(n * n * k for n, k in blocks.items()) == workloads.formula(len(table)), spec


@contextlib.contextmanager
def _workdir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _sink():
    return spans.Tracer(invsg, {})


def test_wrong_block_multiset_is_counted_failed():
    with _workdir() as workdir:
        ops = [op for op in workloads.decompose(0, workdir, False) if op.order <= 5]
    klein = next(op for op in ops if op.name.endswith("klein4"))
    klein.run = lambda work: (1,) * 11 + (2, 1)  # C^12 + M_2 instead of C^11 + M_3
    result = run.run_pass(ops, _sink())
    assert [o.op for o in result.outcomes] == [op.name for op in ops]
    bad = [o for o in result.outcomes if not o.ok]
    assert [o.op for o in bad] == ["decompose klein4"] and bad[0].wrong
    assert run.max_order_ok([result]) == 0  # klein4 has order 4, the ladder's first rung


def test_wrong_exit_code_is_counted_failed():
    with _workdir() as workdir:
        ops = workloads.cli_ops(0, workdir, in_process=True)
        pick = [op for op in ops if op.name in ("invsg sg order cyclic:28", "invsg pa extend invalid.json")]
        assert [op.exit_code for op in pick] == [0, 1]
        honest = run.run_pass(pick, _sink())
        assert all(o.ok for o in honest.outcomes)
        for op in pick:
            real = op.run
            op.run = lambda work, real=real, code=1 - op.exit_code: dataclasses.replace(real(work), code=code)
        corrupted = run.run_pass(pick, _sink())
        assert [o.ok for o in corrupted.outcomes] == [False, False]
        assert all(o.exit_mismatch and o.wrong for o in corrupted.outcomes)


def test_raising_ops_are_counted_and_the_pass_goes_on():
    def typed(work):
        raise invsg.NonIntegerBlockDim("corner dimension 2 is not a perfect square")

    def untyped(work):
        raise TypeError("a bug")

    ops = [
        workloads.Op("typed", 6, typed, lambda a: None),
        workloads.Op("untyped", 7, untyped, lambda a: None),
        workloads.Op("fine", 4, lambda work: 1, lambda a: None if a == 1 else "wrong"),
    ]
    result = run.run_pass(ops, _sink())
    assert [(o.op, o.ok, o.wrong) for o in result.outcomes] == [
        ("typed", False, False),  # a loud typed error: failed, not a wrong answer
        ("untyped", False, True),
        ("fine", True, False),
    ]
    assert run.max_order_ok([result]) == 4


def test_tracer_sees_nested_calls_and_restores_the_package():
    modules = {name: getattr(invsg, name) for name in spans.LAYERS if name != "cli"}
    modules["cli"] = workloads.cli
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    scan = invsg.actions.InverseAction.__dict__["check_multiplicative"]
    tracer = spans.Tracer(invsg, modules)
    tracer.spans = []
    tracer.install()
    try:
        alg = invsg.algebra.build_algebra(invsg.groups.group_from_spec("klein4"))
        invsg.algebra.wedderburn(alg, seed=0)
    finally:
        tracer.uninstall()
    assert all(dict(vars(mod)) == before[name] for name, mod in modules.items())
    assert invsg.actions.InverseAction.__dict__["check_multiplicative"] is scan
    names = {sid: name for _, sid, _, name, _, _ in tracer.spans}
    parents = {(names.get(parent), name) for _, _, parent, name, _, _ in tracer.spans}
    assert ("algebra.build_algebra", "semigroup.multiplication_tables") in parents
    assert ("algebra.wedderburn", "algebra.center") in parents
    assert ("algebra.wedderburn", "algebra.multiply_elements") in parents
    assert tracer.counts["semigroup.enumerate_semigroup.elements"] == 20
    total_self = sum(tracer.self_s.values())
    assert abs(total_self - tracer.top_level_s) < 1e-6


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
