"""Partial actions of finite groups, the universal inverse semigroup
attached to a group, and the block structure of its semigroup algebra.

The package is organized bottom-up:

- :mod:`invsg.groups`    validated Cayley-table groups
- :mod:`invsg.semigroup` exact canonical-form semigroup arithmetic
- :mod:`invsg.actions`   partial bijections and partial actions
- :mod:`invsg.reps`      partial representations by complex matrices
- :mod:`invsg.algebra`   the semigroup algebra and its matrix blocks
- :mod:`invsg.graded`    graded subspaces as exact index sets
- :mod:`invsg.cli`       the ``invsg`` command-line tool

Layers load on first use: ``import invsg`` imports no submodule, and a
name below (``invsg.wedderburn``, ``from invsg import cyclic``) or a
layer (``invsg.reps``) imports its home module when it is first read.
"""

import importlib

_EXPORTS = {
    "groups": "FiniteGroup GroupSpecError GroupTableError NoIdentity NoInverse NotAssociative NotLatinSquare"
    " cyclic dihedral direct_product from_cayley_table group_from_spec klein_four load_group",
    "semigroup": "CapExceeded ConditionsViolated Counterexample SgElement act_on_subset enumerate_semigroup"
    " generator idempotent natural_partial_order order_formula reduce_word unit universal_extension"
    " verify_inverse_semigroup",
    "actions": "InverseAction PartialAction PartialBijection bernoulli_partial_action from_inverse_action"
    " restriction_action to_inverse_action validate_axioms validate_semigroup_form",
    "reps": "PartialRep SgRepresentation extend_to_semigroup partial_rep_from_partial_action restrict_to_group"
    " validate_partial_rep",
    "algebra": "BlockDecomposition EigenvalueClusterAmbiguous NonIntegerBlockDim StructureAlgebra build_algebra"
    " center group_algebra multiply_elements wedderburn",
    "graded": "GradedSubspace element_subspace generated_semigroup grading subspace_product",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A layer, or an exported name read from its home layer (not cached
    here, so it is always the home module's current binding)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
