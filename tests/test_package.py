"""The package namespace: every exported name, resolved from its home layer on first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import invsg
from conftest import fresh_env

EXPORTS = {
    "groups": [
        "FiniteGroup", "GroupSpecError", "GroupTableError", "NoIdentity", "NoInverse", "NotAssociative",
        "NotLatinSquare", "cyclic", "dihedral", "direct_product", "from_cayley_table", "group_from_spec",
        "klein_four", "load_group",
    ],
    "semigroup": [
        "CapExceeded", "ConditionsViolated", "Counterexample", "SgElement", "act_on_subset", "enumerate_semigroup",
        "generator", "idempotent", "natural_partial_order", "order_formula", "reduce_word", "unit",
        "universal_extension", "verify_inverse_semigroup",
    ],
    "actions": [
        "InverseAction", "PartialAction", "PartialBijection", "bernoulli_partial_action", "from_inverse_action",
        "restriction_action", "to_inverse_action", "validate_axioms", "validate_semigroup_form",
    ],
    "reps": [
        "PartialRep", "SgRepresentation", "extend_to_semigroup", "partial_rep_from_partial_action",
        "restrict_to_group", "validate_partial_rep",
    ],
    "algebra": [
        "BlockDecomposition", "EigenvalueClusterAmbiguous", "NonIntegerBlockDim", "StructureAlgebra",
        "build_algebra", "center", "group_algebra", "multiply_elements", "wedderburn",
    ],
    "graded": ["GradedSubspace", "element_subspace", "generated_semigroup", "grading", "subspace_product"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
HOMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


def test_all_lists_the_exported_names():
    assert invsg.__all__ == NAMES
    assert invsg.__version__ == "0.1.0"


@pytest.mark.parametrize("layer, name", HOMES, ids=[name for _, name in HOMES])
def test_each_name_is_the_object_in_its_home_layer(layer, name):
    home = getattr(importlib.import_module(f"invsg.{layer}"), name)
    namespace = {}
    exec(f"from invsg import {name}", namespace)
    assert getattr(invsg, name) is home and namespace[name] is home


def test_dir_lists_the_names_and_the_layers():
    assert set(dir(invsg)) >= {*NAMES, *EXPORTS}


def test_a_layer_resolves_before_anything_imports_it():
    script = (
        "import sys, invsg\n"
        "assert 'invsg.reps' not in sys.modules\n"
        "print(getattr(invsg, 'reps') is sys.modules['invsg.reps'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="'invsg' has no attribute 'nonsense'"):
        invsg.nonsense
    with pytest.raises(ImportError):
        exec("from invsg import nonsense", {})
    assert not hasattr(invsg, "DEFAULT_DIM_CAP")


def test_star_import_binds_the_exported_names():
    namespace = {}
    exec("from invsg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_every_private_helper_is_used_elsewhere_in_the_package():
    """Each private module-level function or class of ``src/invsg`` is
    read as a name or an attribute by package code outside its own
    definition; a mention in a docstring does not count.  So a helper
    that a fork leaves behind fails here."""
    statements = [stmt for path in Path(invsg.__file__).parent.glob("*.py") for stmt in ast.parse(path.read_text()).body]
    reads = [
        {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        for stmt in statements
    ]
    private = [
        (i, stmt.name) for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") and not stmt.name.endswith("__")
    ]
    assert private
    assert [name for i, name in private if not any(name in names for j, names in enumerate(reads) if j != i)] == []


def _readers(name):
    """The module-level statements of ``src/invsg`` that read or import
    ``name``, as module.statement."""
    return {
        f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}"
        for path in Path(invsg.__file__).parent.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    }


def _defined_or_read(name):
    """Whether any statement of ``src/invsg`` defines or reads ``name``."""
    return bool(_readers(name)) or any(
        getattr(node, "name", None) == name
        for path in Path(invsg.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_universal_extension_reads_the_memoised_fold():
    """The memoised ``semigroup.extension_formula`` is deleted: the one
    extension formula is the batched ``semigroup._extension_rows``, for
    Python targets too.  So no statement of ``src/invsg`` defines or
    reads the memoised fold, and ``universal_extension`` reads the
    batched one."""
    assert not _defined_or_read("extension_formula")
    assert "semigroup.universal_extension" in _readers("_extension_rows")


@pytest.mark.parametrize("law", ["_triple_law", "_derived_law"])
def test_only_the_extension_conditions_read_the_generic_laws(law):
    """The pair-by-pair ``_triple_law`` and ``_derived_law`` are deleted:
    the partial-representation identities are ``semigroup._stacked_laws``
    for Python targets too, which ``check_extension_conditions`` reaches
    through ``semigroup._checked_boxes``.  So no statement of
    ``src/invsg`` defines or reads the pair-by-pair law."""
    assert not _defined_or_read(law)
    assert "semigroup._checked_boxes" in _readers("_stacked_laws")
    assert "semigroup.check_extension_conditions" in _readers("_checked_boxes")


def test_only_the_algebra_builds_the_product_table(monkeypatch):
    """The multiplicativity scans and every check of the certificate look
    a row's products up when they read it, from the row source
    ``semigroup._products`` that also fills the n x n
    ``multiplication_tables``.  So only the algebra builder reads the
    whole table, and a certificate runs with it refused wherever the
    package binds it, passing or failing.  No statement of ``src/invsg``
    defines or reads the rows-only wrapper ``_row_scan`` or the separate
    ``_key_lookup``."""
    readers = _readers("multiplication_tables") - {"algebra.ImportFrom"}
    assert readers == {"algebra.build_algebra"}
    assert not _defined_or_read("_row_scan") and not _defined_or_read("_key_lookup")
    assert {"semigroup.multiplication_tables", "semigroup._worst_pair", "semigroup.verify_inverse_semigroup"} <= _readers("_products")

    import numpy as np

    from invsg import semigroup
    from invsg.groups import dihedral

    g = dihedral(3)
    elements = semigroup.enumerate_semigroup(g)
    mult, star, unit_index = semigroup.multiplication_tables(elements)
    mult[-1, star[-1]] = (int(mult[-1, star[-1]]) + 1) % len(elements)  # a wrong a a* in the last row

    def refuse(elements):
        raise AssertionError("multiplication_tables was called")

    def rows(i, out=None):
        out = np.empty((len(i), len(mult)), dtype=mult.dtype) if out is None else out
        np.take(mult, i, axis=0, out=out[: len(i)])
        return out

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "invsg" and hasattr(module, "multiplication_tables"):
            monkeypatch.setattr(module, "multiplication_tables", refuse)
    assert semigroup.verify_inverse_semigroup(g).passed
    monkeypatch.setattr(semigroup, "_products", lambda *_: (rows, rows, lambda i, j: mult[i, j], star, unit_index))
    report = semigroup.verify_inverse_semigroup(g)
    assert [c.passed for c in report.checks] == [False, False, False, True]


def test_one_batched_product_serves_both_graded_products():
    """The per-pair Python-int ``_product_mask`` and the bit-by-bit
    ``_set_bits`` are deleted: ``subspace_product`` and
    ``generated_semigroup`` both read the one batched OR of packed row
    masks, ``graded._batched_product``, and decode through
    ``graded._decode``.  So no statement of ``src/invsg`` defines or
    reads the per-pair product or the bit-by-bit decoder."""
    assert not _defined_or_read("_product_mask") and not _defined_or_read("_set_bits")
    for name in ("_batched_product", "_decode"):
        assert {"graded.subspace_product", "graded.generated_semigroup"} <= _readers(name)
