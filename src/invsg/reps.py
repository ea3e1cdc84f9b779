"""Partial representations of a finite group by complex matrices.

A partial representation assigns a matrix to each group element so
that the triple-product law M_s M_t M_{t^-1} = M_{st} M_{t^-1} holds,
inverses go to adjoints, and the identity goes to the identity matrix.
Such a family extends to a star-preserving, multiplicative assignment
on the whole enumerated semigroup, with every extended image a partial
isometry.  Matrices coming from partial actions are 0/1 and all checks
on them are exact; elsewhere a max-entry tolerance applies.

The triple-product laws, the extension formula and the multiplicativity
scan shared with :mod:`invsg.actions` are ``semigroup.law_distances``,
``semigroup.extension_formula`` and ``semigroup.pair_distances``, used
here with the matrix product and the max-abs distance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, document_group, group_to_dict
from .semigroup import (
    DEFAULT_ENUMERATION_CAP,
    SgElement,
    _worst_case,
    enumerate_semigroup,
    extension_formula,
    generator,
    law_distances,
    pair_distances,
)
from .actions import PartialAction

FLOAT_TOL = 1e-9


class NotRepresentation(ValueError):
    """A claimed semigroup representation fails an identity; carries the witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


def max_abs(m: np.ndarray) -> float:
    """Max absolute entry; the matrix norm used for all tolerances here."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    return max_abs(x - y)


def _as_square(m, dim: int | None = None) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"matrix has dimension {a.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


class PartialRep:
    """One matrix per group element, all square of the same dimension.

    ``exact`` is true when every matrix has an integer dtype, in which
    case the default validation tolerance is 0.
    """

    def __init__(self, group: FiniteGroup, matrices: Sequence[np.ndarray]):
        if len(matrices) != group.order:
            raise ValueError("need one matrix per group element")
        mats = [_as_square(m) for m in matrices]
        dim = mats[0].shape[0]
        mats = [_as_square(m, dim) for m in mats]
        self.group = group
        self.dim = dim
        self.matrices = tuple(mats)
        self.exact = all(np.issubdtype(m.dtype, np.integer) for m in mats)

    def default_tol(self) -> float:
        return 0.0 if self.exact else FLOAT_TOL


@dataclass
class RepCheck:
    name: str
    deviation: float
    witness: tuple | None = None

    def describe(self) -> str:
        where = f" at {self.witness}" if self.witness else ""
        return f"{self.name}: max deviation {self.deviation:.3e}{where}"


@dataclass
class RepReport:
    tol: float
    checks: list[RepCheck]

    @property
    def passed(self) -> bool:
        return all(c.deviation <= self.tol for c in self.checks)

    def describe(self) -> str:
        head = f"tolerance {self.tol:.1e}: " + ("pass" if self.passed else "FAIL")
        return "\n".join([head] + [c.describe() for c in self.checks])


def validate_partial_rep(rep: PartialRep, tol: float | None = None) -> RepReport:
    """Per-axiom max deviations for the three partial-representation laws."""
    g = rep.group
    if tol is None:
        tol = rep.default_tol()

    laws = law_distances(g, rep.matrices, operator.matmul, _distance)
    dev_triple, wit_triple = _worst_case((triple, (s, t)) for s, t, triple, _ in laws)
    dev_star, wit_star = _worst_case(
        (_distance(rep.matrices[g.inv(t)], adjoint(rep.matrices[t])), (t,)) for t in g.elements()
    )
    dev_unit = _distance(rep.matrices[g.identity], np.eye(rep.dim))

    return RepReport(
        tol,
        [
            RepCheck("triple product", dev_triple, wit_triple),
            RepCheck("adjoint of inverse", dev_star, wit_star),
            RepCheck("identity image", dev_unit, (g.identity,)),
        ],
    )


def partial_rep_from_partial_action(action: PartialAction) -> PartialRep:
    """0/1 matrices of the partial bijections: M[y, x] = 1 iff theta(x) = y."""
    n = action.set_size
    mats = []
    for f in action.theta:
        m = np.zeros((n, n), dtype=np.int64)
        for x, y in f.graph():
            m[y, x] = 1
        mats.append(m)
    return PartialRep(action.group, mats)


class SgRepresentation:
    """Matrices for every element of the enumerated semigroup; the
    table of :func:`extend_to_semigroup` is in enumeration order."""

    def __init__(self, group: FiniteGroup, dim: int, table: Mapping[SgElement, np.ndarray]):
        self.group = group
        self.dim = dim
        self.table = dict(table)

    def __call__(self, a: SgElement) -> np.ndarray:
        return self.table[a]

    def max_multiplicative_deviation(self) -> tuple[float, tuple | None]:
        return _worst_case(pair_distances(self.table, operator.matmul, _distance))

    def max_star_deviation(self) -> tuple[float, tuple | None]:
        return _worst_case((_distance(self.table[a.star()], adjoint(m)), (a,)) for a, m in self.table.items())

    def max_partial_isometry_deviation(self) -> tuple[float, tuple | None]:
        """Deviation from m @ m^adj @ m == m over all images."""
        return _worst_case((_distance(m @ adjoint(m) @ m, m), (a,)) for a, m in self.table.items())


def extend_to_semigroup(
    rep: PartialRep,
    tol: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SgRepresentation:
    """Extend a validated partial representation to the whole semigroup.

    The element (F, s) maps to the product over r in F (ascending) of
    M_r M_{r^-1}, times M_s.  Raises with the validation report if the
    input fails its axioms.
    """
    report = validate_partial_rep(rep, tol)
    if not report.passed:
        raise ValueError("not a partial representation:\n" + report.describe())
    g = rep.group
    extend = extension_formula(g, rep.matrices, operator.matmul)
    return SgRepresentation(g, rep.dim, {a: extend(a) for a in enumerate_semigroup(g, cap)})


def restrict_to_group(
    sgrep: SgRepresentation, tol: float | None = None
) -> PartialRep:
    """Generator images of a semigroup representation, as a partial rep.

    The input must be multiplicative and star-preserving within ``tol``
    (default 0 for integer tables, otherwise 1e-9); the first offending
    pair or element is reported.
    """
    if tol is None:
        exact = all(np.issubdtype(m.dtype, np.integer) for m in sgrep.table.values())
        tol = 0.0 if exact else FLOAT_TOL
    dev, witness = sgrep.max_multiplicative_deviation()
    if dev > tol:
        raise NotRepresentation(f"not multiplicative (deviation {dev:.3e})", witness or ())
    dev, witness = sgrep.max_star_deviation()
    if dev > tol:
        raise NotRepresentation(f"not star-preserving (deviation {dev:.3e})", witness or ())
    g = sgrep.group
    mats = [sgrep(generator(g, t)) for t in g.elements()]
    return PartialRep(g, mats)


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(data: Sequence) -> np.ndarray:
    if len(data) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    rows = []
    for row in data:
        rows.append([complex(float(v[0]), float(v[1])) for v in row])
    m = np.array(rows, dtype=np.complex128)
    if np.max(np.abs(m.imag)) == 0.0 and np.all(m.real == np.round(m.real)):
        return m.real.astype(np.int64)
    return m


def rep_to_dict(rep: PartialRep) -> dict:
    return {
        "group": group_to_dict(rep.group),
        "dim": rep.dim,
        "matrices": {str(t): matrix_to_json(rep.matrices[t]) for t in rep.group.elements()},
    }


def rep_from_dict(data: Mapping) -> PartialRep:
    group = document_group(data, ("matrices",))
    raw = data["matrices"]
    keys = {str(t) for t in group.elements()}
    if set(raw) != keys:
        raise ValueError(
            f"matrices need one key per index of a group of order {group.order}: "
            f"missing {sorted(keys - set(raw), key=int)}, unknown {sorted(set(raw) - keys)}"
        )
    mats = [matrix_from_json(raw[str(t)]) for t in group.elements()]
    rep = PartialRep(group, mats)
    if rep.dim != int(data.get("dim", rep.dim)):
        raise ValueError("declared dim does not match the matrices")
    return rep
