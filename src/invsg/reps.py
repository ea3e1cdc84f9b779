"""Partial representations of a finite group by complex matrices.

A partial representation assigns a matrix to each group element so
that the triple-product law M_s M_t M_{t^-1} = M_{st} M_{t^-1} holds,
inverses go to adjoints, and the identity goes to the identity matrix.
Such a family extends to a star-preserving, multiplicative assignment
on the whole enumerated semigroup, with every extended image a partial
isometry.  Integer matrices are checked exactly; elsewhere a max-entry
tolerance applies.

By the correspondence between partial actions and partial
representations, a family of integer 0/1 matrices with at most one 1 per
row and per column (a partial-permutation rep, as every rep coming from
a partial action is) is the same thing as a partial action on the
basis.  Such a rep is checked as one: its laws compose partial
bijections, its extension is its action's ``InverseAction.table``,
whose index-array rows its semigroup checks scatter and gather (with
the action's ``actions._row_scan``), and a matrix is built only when
one is read.  So it reaches the enumeration cap: at order 10 its 2816
images on 512 points take one 2.9 MB array, where the dense int64
images alone would take about 5.9 GB.

The triple-product laws, the extension fold and the multiplicativity
scan shared with :mod:`invsg.actions` are ``semigroup._triple_law`` (the
derived law ``semigroup._derived_law`` is not reported here),
``semigroup._extension_rows`` and ``semigroup._worst_pair``, used here
with the matrix product and the max-abs distance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, document_group, group_to_dict, json_value
from .semigroup import (
    DEFAULT_ENUMERATION_CAP,
    Counterexample,
    SgElement,
    _extension_rows,
    _triple_law,
    _worst_pair,
    enumerate_semigroup,
    generator,
    multiplication_tables,
)
from .actions import InverseAction, PartialAction, PartialBijection, _index_rows, _row_scan, _RowTable

FLOAT_TOL = 1e-9


class NonFiniteProduct(ValueError):
    """A float matrix product or difference overflowed or went NaN: the
    entries are too large for float64 arithmetic."""


def _finite(op: Callable[..., np.ndarray], *args: np.ndarray, **kwargs) -> np.ndarray:
    """op(*args, **kwargs), where float overflow or an invalid value raises NonFiniteProduct."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return op(*args, **kwargs)
    except FloatingPointError as exc:
        raise NonFiniteProduct(f"float matrix arithmetic is not finite: {exc}") from None


class NotRepresentation(Counterexample):
    """A claimed semigroup representation fails an identity, or lacks a generator's image."""


def max_abs(m: np.ndarray) -> float:
    """Max absolute entry; the matrix norm used for all tolerances here."""
    if m.dtype.kind in "iu":
        return float(_int_max_abs(m))
    return float(np.max(np.abs(m))) if m.size else 0.0


def _int_max_abs(m: np.ndarray) -> int:
    """max|m| of an integer matrix (0 if empty) as a Python int, where
    |-2^63| does not wrap the way ``np.abs`` does in int64."""
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _abs_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entrywise |x - y|.  An int64 difference wraps at 2^63, so for
    integers this is larger minus smaller, taken mod 2^64 and read as
    uint64, where it always fits."""
    if x.dtype.kind in "iu" and y.dtype.kind in "iu":
        return np.subtract(np.maximum(x, y), np.minimum(x, y), dtype=np.int64).view(np.uint64)
    return np.abs(_finite(np.subtract, x, y))


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    diff = _abs_diff(x, y)
    return float(np.max(diff)) if diff.size else 0.0


def _worst_case(deviations: Iterable[tuple[float, tuple]]) -> tuple[float, tuple | None]:
    """The largest deviation and the first witness attaining it;
    (0.0, None) when no deviation is positive.  Private: bench/spans.py
    times public functions, and a lazy scan belongs to its caller."""
    worst, witness = 0.0, None
    for d, w in deviations:
        if d > worst:
            worst, witness = d, w
    return worst, witness


def _exact_dtype(bound: int) -> np.dtype:
    """The dtype of exact integer arithmetic whose entries and partial
    sums are at most ``bound`` in magnitude: float64, which goes through
    BLAS, below 2^53, int64 below 2^63; past that a sum could wrap, so
    ValueError."""
    if bound < 2**53:
        return np.dtype(np.float64)
    if bound >= 2**63:
        raise ValueError(f"integer matrix arithmetic may overflow int64: bound {bound} >= 2^63")
    return np.dtype(np.int64)


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The exact product x @ y (stacks broadcast as in ``np.matmul``).

    Integer operands come back as int64, multiplied in the
    :func:`_exact_dtype` of b = max|x| * max|y| * k (k the inner
    dimension), which bounds every entry and partial sum.  Anything else
    is multiplied in the operands' own dtype, and NonFiniteProduct is
    raised if that overflows.
    """
    if x.dtype.kind in "iu" and y.dtype.kind in "iu":
        dtype = _exact_dtype(_int_max_abs(x) * _int_max_abs(y) * x.shape[-1])
        return np.matmul(x.astype(dtype), y.astype(dtype)).astype(np.int64, copy=False)
    return _finite(np.matmul, x, y)


def _mismatch(f: PartialBijection, h: PartialBijection) -> float:
    """The max-abs distance of the 0/1 matrices of two partial bijections."""
    return float(f != h)


def _partial_bijections(matrices: Sequence[np.ndarray]) -> list[PartialBijection] | None:
    """The partial bijections f with M[f(x), x] = 1, the ones
    :func:`partial_rep_from_partial_action` maps to ``matrices``, if every
    matrix is a nonempty integer 0/1 matrix with at most one 1 per row and
    per column; else None."""
    maps = []
    for m in matrices:
        if m.dtype.kind not in "iu" or m.size == 0 or m.min() < 0 or m.max() > 1:
            return None
        if m.sum(axis=0).max() > 1 or m.sum(axis=1).max() > 1:
            return None
        image = m.argmax(axis=0).tolist()
        maps.append(PartialBijection(tuple(y if d else None for y, d in zip(image, m.any(axis=0).tolist()))))
    return maps


def _zero_one(row: np.ndarray) -> np.ndarray:
    """The int64 matrix of an index-array row (``actions._index_rows``):
    M[y, x] = 1 iff row[x] = y, the last entry being the undefined marker."""
    dim = len(row) - 1
    m = np.zeros((dim, dim), dtype=np.int64)
    domain = np.flatnonzero(row[:-1] != dim)
    m[row[domain], domain] = 1
    return m


def _tolerance(matrices: Iterable[np.ndarray]) -> float:
    """The default tolerance: 0 (exact) if every matrix has an integer dtype."""
    return 0.0 if all(np.issubdtype(m.dtype, np.integer) for m in matrices) else FLOAT_TOL


def _as_square(m, dim: int | None = None) -> np.ndarray:
    """``m`` as a finite square array, of dimension ``dim`` if given; a
    bool matrix is read as the int64 0/1 matrix it denotes."""
    a = np.asarray(m)
    if a.dtype == bool:
        a = a.astype(np.int64)
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
    case the default validation tolerance is 0 (see ``_tolerance``).
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
        self.exact = _tolerance(mats) == 0.0


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
    """Per-axiom max deviations for the three partial-representation laws;
    a partial-permutation rep is checked on its partial bijections."""
    g = rep.group
    tol = _tolerance(rep.matrices) if tol is None else tol
    maps = _partial_bijections(rep.matrices)
    if maps is None:  # looked up per call, so a patched ``_matmul`` is seen
        images, mul, distance, star, identity = rep.matrices, _matmul, _distance, adjoint, np.eye
    else:  # partial bijections compose as their 0/1 matrices multiply
        images, mul, distance = maps, operator.mul, _mismatch
        star, identity = PartialBijection.invert, PartialBijection.identity

    laws = _triple_law(g, images, mul, distance)
    dev_triple, wit_triple = _worst_case((triple, (s, t)) for s, t, triple in laws)
    dev_star, wit_star = _worst_case((distance(images[g.inv(t)], star(images[t])), (t,)) for t in g.elements())
    dev_unit = distance(images[g.identity], identity(rep.dim))

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
    return PartialRep(action.group, [_zero_one(row) for row in _index_rows(action.theta, action.set_size)])


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """Every index-array row inverted by one scatter, x to [i, rows[i, x]];
    the undefined points wrote to the marker column, which is then reset."""
    marker = rows.shape[1] - 1
    inverse = np.full_like(rows, marker)
    inverse[np.arange(len(rows))[:, None], rows] = np.arange(marker + 1)
    inverse[:, marker] = marker
    return inverse


class SgRepresentation:
    """Matrices for every element of the enumerated semigroup; the
    table of :func:`extend_to_semigroup` is in enumeration order.

    :func:`extend_to_semigroup` gives a partial-permutation rep the rows
    of its action's table, read as 0/1 matrices: the checks below run on
    those rows, and a matrix is built only when an entry is read.  Any
    other table given here is copied into a dict of finite matrices of
    dimension ``dim`` (see :func:`_as_square`).
    """

    def __init__(self, group: FiniteGroup, dim: int, table: Mapping[SgElement, np.ndarray]):
        self.group = group
        self.dim = dim
        self.table = table if isinstance(table, _RowTable) else {a: _as_square(m, dim) for a, m in table.items()}

    def __call__(self, a: SgElement) -> np.ndarray:
        return self.table[a]

    def max_multiplicative_deviation(self) -> tuple[float, tuple | None]:
        """The largest max-abs distance of M(ab) from M(a)M(b) and its first pair.

        The images are stacked once per scan.  A block of columns
        b = lo .. lo + k - 1 of row a then costs one gather of the
        targets M(ab), one product of M(a) with a slice of the stack and
        one difference, each allocated by the block.  With m = max|entry|
        of the stack, an integer table is cast once to the
        :func:`_exact_dtype` of m + m^2 dim, which bounds every entry of a
        difference.  Float overflow raises NonFiniteProduct.  A table of
        index rows is scanned by ``actions._row_scan``, where a mismatch
        is the distance 1.0 of two 0/1 matrices.
        """
        mult = multiplication_tables(list(self.table))[0]
        if isinstance(self.table, _RowTable):
            return _row_scan(self.table, mult)
        images = np.stack(list(self.table.values()))
        exact = images.dtype.kind in "iu"
        if exact:
            m = _int_max_abs(images)
            images = images.astype(_exact_dtype(m * (m * self.dim + 1)), copy=False)

        def distances(a: int, targets: np.ndarray, lo: int) -> np.ndarray:
            product = _finite(np.matmul, images[a], images[lo : lo + len(targets)])
            return np.abs(_finite(np.subtract, images[targets], product)).max(axis=(1, 2), initial=0)

        return _worst_pair(self.table, mult, images[0].nbytes, distances, exact)

    def max_star_deviation(self) -> tuple[float, tuple | None]:
        """Deviation of M(a^*) from M(a)^adj over all images.  On an
        action's rows, the row of a^* is compared with the inverse row."""
        if isinstance(self.table, _RowTable):
            rows, index, elements = self.table.rows, self.table.index, self.table.elements
            stars = rows[[index[a.star()] for a in elements]]
            bad = (stars != _inverse_rows(rows)).any(axis=1).tolist()
            return _worst_case((float(d), (a,)) for a, d in zip(elements, bad))
        return _worst_case((_distance(self.table[a.star()], adjoint(m)), (a,)) for a, m in self.table.items())

    def max_partial_isometry_deviation(self) -> tuple[float, tuple | None]:
        """Deviation from m @ m^adj @ m == m over all images.  An action's
        row is a composite of partial bijections, so it is one, and its 0/1
        matrix is a partial isometry: (0.0, None) without reading a row."""
        if isinstance(self.table, _RowTable):
            return 0.0, None
        return _worst_case((_distance(_matmul(_matmul(m, adjoint(m)), m), m), (a,)) for a, m in self.table.items())


def extend_to_semigroup(
    rep: PartialRep,
    tol: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SgRepresentation:
    """Extend a validated partial representation to the whole semigroup.

    The element (F, s) maps to the product over r in F (ascending) of
    M_r M_{r^-1}, times M_s: ``_extension_rows`` of the stacked matrices.
    Raises with the validation report if the input fails its axioms.  A
    partial-permutation rep extends as its partial action: the rows of
    the action's table, each read as a 0/1 matrix when it is looked up.
    """
    report = validate_partial_rep(rep, tol)
    if not report.passed:
        raise ValueError("not a partial representation:\n" + report.describe())
    g = rep.group
    maps = _partial_bijections(rep.matrices)
    if maps is not None:
        return SgRepresentation(g, rep.dim, replace(InverseAction(g, rep.dim, maps).table(cap), read=_zero_one))
    elements = enumerate_semigroup(g, cap)
    return SgRepresentation(g, rep.dim, dict(zip(elements, _extension_rows(g, np.stack(rep.matrices), elements, _matmul))))


def restrict_to_group(sgrep: SgRepresentation) -> PartialRep:
    """Generator images of a semigroup representation, as a partial rep.

    The input must hold every generator and be multiplicative and
    star-preserving, exactly when every matrix has an integer dtype and
    else to ``FLOAT_TOL``; the first missing generator, or the first worst
    pair or element, is reported.
    """
    gens = [generator(sgrep.group, t) for t in sgrep.group.elements()]
    missing = [a for a in gens if a not in sgrep.table]
    if missing:
        raise NotRepresentation(f"no image of the generator {missing[0]}", (missing[0],))
    tol = 0.0 if isinstance(sgrep.table, _RowTable) else _tolerance(sgrep.table.values())
    dev, witness = sgrep.max_multiplicative_deviation()
    if dev > tol:
        raise NotRepresentation(f"not multiplicative (deviation {dev:.3e})", witness or ())
    dev, witness = sgrep.max_star_deviation()
    if dev > tol:
        raise NotRepresentation(f"not star-preserving (deviation {dev:.3e})", witness or ())
    return PartialRep(sgrep.group, [sgrep(a) for a in gens])


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(data: Sequence, name: str = "matrix") -> np.ndarray:
    """Rows of [re, im] pairs as a matrix, or ValueError naming ``name``."""
    if len(json_value(data, "a list of rows of [re, im] pairs", name)) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    try:
        m = np.array([[complex(float(re), float(im)) for re, im in row] for row in data], dtype=np.complex128)
    except OverflowError:
        raise ValueError(f"{name} has an entry too large for float64") from None
    if np.all(m.imag == 0) and np.all(m.real == np.round(m.real)) and np.all(np.abs(m.real) < 2**53):
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
    raw = json_value(data["matrices"], "an object", "matrices")
    keys = {str(t) for t in group.elements()}
    if set(raw) != keys:
        raise ValueError(
            f"matrices need one key per index of a group of order {group.order}: "
            f"missing {sorted(keys - set(raw), key=int)}, unknown {sorted(set(raw) - keys)}"
        )
    mats = [matrix_from_json(raw[str(t)], f"matrices[{t}]") for t in group.elements()]
    rep = PartialRep(group, mats)
    if rep.dim != json_value(data.get("dim", rep.dim), "an integer", "dim"):
        raise ValueError("declared dim does not match the matrices")
    return rep
