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
"""

from .groups import (
    FiniteGroup,
    GroupSpecError,
    GroupTableError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    group_from_spec,
    klein_four,
    load_group,
)
from .semigroup import (
    CapExceeded,
    ConditionsViolated,
    Counterexample,
    SgElement,
    act_on_subset,
    enumerate_semigroup,
    generator,
    idempotent,
    natural_partial_order,
    order_formula,
    reduce_word,
    unit,
    universal_extension,
    verify_inverse_semigroup,
)
from .actions import (
    InverseAction,
    PartialAction,
    PartialBijection,
    bernoulli_partial_action,
    from_inverse_action,
    restriction_action,
    to_inverse_action,
    validate_axioms,
    validate_semigroup_form,
)
from .reps import (
    PartialRep,
    SgRepresentation,
    extend_to_semigroup,
    partial_rep_from_partial_action,
    restrict_to_group,
    validate_partial_rep,
)
from .algebra import (
    BlockDecomposition,
    EigenvalueClusterAmbiguous,
    NonIntegerBlockDim,
    StructureAlgebra,
    build_algebra,
    center,
    group_algebra,
    multiply_elements,
    wedderburn,
)
from .graded import (
    GradedSubspace,
    element_subspace,
    generated_semigroup,
    grading,
    subspace_product,
)

__version__ = "0.1.0"
