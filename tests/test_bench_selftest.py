"""The benchmark's self-test runs in the suite, so renaming or removing a
function that the benchmark tracer wraps fails here, not in a benchmark
run."""

import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import invsg
from invsg import groups

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_methods_are_public_methods_of_the_scanning_classes():
    wrapped = {cls: (layer, methods) for layer, classes in spans.METHODS.items() for cls, methods in classes.items()}
    assert {"InverseAction", "SgRepresentation"} <= set(wrapped)
    for cls_name, (layer, methods) in wrapped.items():
        cls = getattr(getattr(invsg, layer), cls_name)
        for name in methods:
            assert not name.startswith("_") and inspect.isfunction(cls.__dict__.get(name)), (cls_name, name)


def test_tracer_counts_the_pair_scans_of_bernoulli_ops():
    """One Bernoulli action op and its 0/1 rep op: every call of
    check_multiplicative scans n^2 pairs, and the per-layer times of the
    wrapped scans are recorded; the rep's runs inside restrict_to_group,
    which calls the private scan, not max_multiplicative_deviation."""
    group = groups.group_from_spec("cyclic:4")
    modules = {name: getattr(invsg, name) for name in spans.LAYERS if name != "cli"}
    modules["cli"] = workloads.cli
    rep = invsg.reps.PartialRep(group, workloads.zero_one(workloads.bernoulli_maps(group.table)))
    ops = [workloads._action_op("cyclic:4", group), workloads._rep_op("rep", group, rep, exact=True)]
    tracer = spans.Tracer(invsg, modules)
    tracer.install()
    try:
        for op in ops:
            assert op.check(op.run(Counter())) is None
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    n = invsg.semigroup.order_formula(group.order)
    calls = totals["actions.InverseAction.check_multiplicative.calls"]
    assert calls >= 1 and totals["actions.check_multiplicative.pairs"] == calls * n * n
    for name in ("actions.InverseAction.check_multiplicative", "reps.restrict_to_group"):
        assert totals[f"{name}.s"] > 0
    assert totals["reps.matmuls"] > 0


def test_tracer_counts_every_product_of_a_closure_op(tmp_path):
    """One closure op on dihedral:3: one traced closure call that finds
    106 new subspaces.  Its 112 * 6 = 672 products go through the private
    batched product, which the tracer does not wrap; tests/test_graded.py
    counts them."""
    op = next(op for op in workloads.closure(1, tmp_path, True) if op.name == "closure dihedral:3")
    modules = {name: getattr(invsg, name) for name in spans.LAYERS if name != "cli"}
    modules["cli"] = workloads.cli
    tracer = spans.Tracer(invsg, modules)
    tracer.install()
    try:
        assert op.check(op.run(Counter())) is None
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["graded.generated_semigroup.calls"] == 1
    assert totals["graded.closure.new"] == 106
