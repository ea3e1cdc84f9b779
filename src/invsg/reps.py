"""Partial representations of a finite group by complex matrices.

A partial representation assigns a matrix to each group element so
that the triple-product law M_s M_t M_{t^-1} = M_{st} M_{t^-1} holds,
inverses go to adjoints, and the identity goes to the identity matrix.
Such a family extends to a star-preserving, multiplicative assignment
on the whole enumerated semigroup, with every extended image a partial
isometry.  A rep's matrices are one stack in one dtype: int64 when
every matrix is an integer one, checked exactly; else the dtype the
stack promotes them to, with a max-entry tolerance.

By the correspondence between partial actions and partial
representations, a family of integer 0/1 matrices with at most one 1 per
row and per column (a partial-permutation rep, as every rep coming from
a partial action is) is the same thing as a partial action on the
basis.  Such a rep is checked as one: its laws compose the index rows
of its partial bijections, its extension is its action's
``InverseAction.table``, whose index-array rows its semigroup checks
scatter and gather (its product scan is an action's), and a matrix is
built only when one is read.  So it reaches the enumeration
cap: at order 10 its 2816 images on 512 points take one 2.9 MB array,
where the dense int64 images alone would take about 5.9 GB.

The triple-product law, the extension fold, whose array is the table
of any other rep, and the multiplicativity scan shared with
:mod:`invsg.actions` are ``semigroup._stacked_laws`` (the derived law
is not computed here), ``_extension_rows`` and ``_worst_pair``, used
here on the stacked matrices with the matrix product and the max-abs
distance (:func:`_distance`); the star and partial-isometry checks
compare stacks too.

S(G) is generated by the p generators [t].  So an integer table passes
if its generator rows pass, and :func:`restrict_to_group` passes a float
table whose :func:`_product_bound` from those rows is at most half the
tolerance; only otherwise are all n^2 pairs scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .groups import FiniteGroup, document_group, group_to_dict, json_value
from .semigroup import (
    DEFAULT_ENUMERATION_CAP,
    SCAN_BYTES,
    Counterexample,
    SgElement,
    _element_arrays,
    _exact_certificate,
    _extension_rows,
    _products,
    _stacked_laws,
    _worst_pair,
    enumerate_semigroup,
    generator,
    order_formula,
)
from .actions import InverseAction, PartialAction, PartialBijection, _index_rows, _RowTable

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
    """Max absolute entry (0.0 of an empty matrix).  The package's own
    checks measure deviations with :func:`_distance`, this norm of a
    difference taken stack by stack."""
    if m.dtype.kind in "iu":
        return float(_int_max_abs(m))
    return float(np.max(np.abs(m))) if m.size else 0.0


def _int_max_abs(m: np.ndarray) -> int:
    """max|m| of an integer matrix (0 if empty) as a Python int, where
    |-2^63| does not wrap the way ``np.abs`` does in int64."""
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _int_max_abs_each(m: np.ndarray) -> np.ndarray:
    """:func:`_int_max_abs` of each matrix of an integer stack, as an
    object array of Python ints."""
    low = m.min(axis=(-2, -1), initial=0).astype(object)
    return np.maximum(m.max(axis=(-2, -1), initial=0).astype(object), -low)


def adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose, of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max|x - y| per matrix of the broadcast stacks (over the last two
    axes), 0 where a matrix is empty.  As an int64 difference wraps at
    2^63, integers subtract larger minus smaller mod 2^64, read as
    uint64; float overflow raises NonFiniteProduct."""
    if x.dtype.kind in "iu" and y.dtype.kind in "iu":
        diff = np.subtract(np.maximum(x, y), np.minimum(x, y), dtype=np.int64).view(np.uint64)
    else:
        diff = np.abs(_finite(np.subtract, x, y))
    return diff.max(axis=(-2, -1), initial=0)


def _worst_case(deviations: Iterable[tuple[float, tuple]]) -> tuple[float, tuple | None]:
    """The largest deviation and the first witness attaining it;
    (0.0, None) when no deviation is positive.  Private: bench/spans.py
    times public functions, and a lazy scan belongs to its caller."""
    worst, witness = 0.0, None
    for d, w in deviations:
        if d > worst:
            worst, witness = d, w
    return worst, witness


def _per_image(images: np.ndarray, distances: Callable[[slice], np.ndarray]) -> list[float]:
    """The distances of every image of a stack, as floats: ``distances``
    of each run of consecutive images taking about SCAN_BYTES, so no
    temporary is a copy of the whole stack."""
    out = np.empty(len(images))
    step = max(1, SCAN_BYTES // max(images[:1].nbytes, 1))  # images per block
    for lo in range(0, len(images), step):
        out[lo : lo + step] = distances(slice(lo, lo + step))
    return out.tolist()


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
    dimension), which bounds every entry and partial sum; of stacks, b is
    the largest such bound of a pair of matrices multiplied, so a stack
    is refused only where one of its pairs, multiplied alone, would be.
    Anything else is multiplied in the operands' own dtype, and
    NonFiniteProduct is raised if that overflows.
    """
    if x.dtype.kind in "iu" and y.dtype.kind in "iu":
        bound = _int_max_abs(x) * _int_max_abs(y) * x.shape[-1]  # of all pairs; past 2^53 refined pair by pair
        if bound >= 2**53 and min(x.ndim, y.ndim) > 2:
            bound = int((_int_max_abs_each(x) * _int_max_abs_each(y)).max(initial=0)) * x.shape[-1]
        dtype = _exact_dtype(bound)
        return np.matmul(x.astype(dtype), y.astype(dtype)).astype(np.int64, copy=False)
    return _finite(np.matmul, x, y)


def _partial_bijections(m: np.ndarray) -> list[PartialBijection] | None:
    """The partial bijections f with M[f(x), x] = 1, the ones
    :func:`partial_rep_from_partial_action` maps to the stack
    ``m``, if they are nonempty integer 0/1 matrices with at most one 1
    per row and per column; else None."""
    if m.dtype.kind not in "iu" or m.size == 0 or m.min() < 0 or m.max() > 1:
        return None
    if m.sum(axis=1).max() > 1 or m.sum(axis=2).max() > 1:
        return None
    images, defined = m.argmax(axis=1).tolist(), m.any(axis=1).tolist()
    return [PartialBijection(tuple(y if d else None for y, d in zip(*f))) for f in zip(images, defined)]


def _zero_one(row: np.ndarray) -> np.ndarray:
    """The int64 matrix of an index-array row (``actions._index_rows``):
    M[y, x] = 1 iff row[x] = y, the last entry being the undefined marker."""
    dim = len(row) - 1
    m = np.zeros((dim, dim), dtype=np.int64)
    domain = np.flatnonzero(row[:-1] != dim)
    m[row[domain], domain] = 1
    return m


def _tolerance(images: np.ndarray) -> float:
    """The default tolerance of a stack: 0 (exact) if its dtype is an integer one."""
    return 0.0 if images.dtype.kind in "iu" else FLOAT_TOL


def _as_square(m, dim: int | None = None) -> np.ndarray:
    """``m`` as a finite square array, of dimension ``dim`` if given.  An
    integer or bool matrix is read as int64, so that a stack of them is
    exact; ValueError if an unsigned entry is past 2^63 - 1."""
    a = np.asarray(m)
    if a.dtype.kind == "u" and a.size and int(a.max()) >= 2**63:
        raise ValueError(f"matrix entry {int(a.max())} is past the int64 maximum 2^63 - 1")
    if a.dtype.kind in "biu":
        a = a.astype(np.int64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"matrix has dimension {a.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


class PartialRep:
    """One matrix per group element, all square of the same dimension:
    ``matrices`` is their (p, dim, dim) stack, in the dtype ``np.stack``
    promotes them to once :func:`_as_square` has read each integer one
    as int64.  ``exact`` is true when that dtype is int64, in which case
    the default validation tolerance is 0 (see ``_tolerance``).
    """

    def __init__(self, group: FiniteGroup, matrices: Sequence[np.ndarray]):
        if len(matrices) != group.order:
            raise ValueError("need one matrix per group element")
        mats = [_as_square(m) for m in matrices]
        self.group, self.dim = group, mats[0].shape[0]
        self.matrices = np.stack([_as_square(m, self.dim) for m in mats])
        self.exact = self.matrices.dtype.kind == "i"


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
    """Per-axiom max deviations for the three partial-representation
    laws, the triple law by ``semigroup._stacked_laws``.  A
    partial-permutation rep is checked on the index rows of its partial
    bijections, which compose as their 0/1 matrices multiply and, where
    they differ, are at max-abs distance 1.0; any other on its stack of
    matrices."""
    g = rep.group
    tol = _tolerance(rep.matrices) if tol is None else tol
    inverses = list(g.inverses)
    maps = _partial_bijections(rep.matrices)
    # ``_matmul`` is looked up per call, so a patched one is seen
    if maps is not None:
        images = _index_rows(maps, rep.dim)
        triple = _stacked_laws(g, images, derived=False)[0].ravel().tolist()
        star = (images[inverses] != _inverse_rows(images)).any(axis=1).astype(float).tolist()
        dev_unit = float((images[g.identity] != np.arange(rep.dim + 1)).any())
    else:
        images = rep.matrices
        triple = _stacked_laws(g, images, _matmul, _distance, derived=False)[0].ravel().tolist()
        star = _distance(images[inverses], adjoint(images)).astype(float).tolist()
        dev_unit = float(_distance(images[g.identity], np.eye(rep.dim)))

    pairs = ((s, t) for s in g.elements() for t in g.elements())
    dev_triple, wit_triple = _worst_case(zip(triple, pairs))
    dev_star, wit_star = _worst_case(zip(star, ((t,) for t in g.elements())))

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


def _product_bound(generators: np.ndarray, worst: float) -> float:
    """A bound on every distance that the multiplicativity scan computes
    on a float table over S(G), from the stacked generator images f(t)
    and the largest distance ``worst`` on their rows.

    In dimension d, with E(a, x) = f(ax) - f(a)f(x) and the spectral
    norm, ||E|| <= d max|E|, and a computed product AB is off by at most
    r ||A|| ||B|| per entry, r = 2 (d + 2) eps.  So err(N), below, bounds
    ||E(t, x)|| when ||f(x)|| <= N, kappa = max ||f(t)||.  Each (F, s) is a
    word of at most max(1, |F|) <= p generators, so its image norm is at
    most N_p (N_1 = kappa, N_L = kappa N_(L-1) + err(N_(L-1))), and eps =
    err(N_p) bounds every generator row.  As f(tbx) - f(tb)f(x) = E(t, bx)
    + f(t) E(b, x) - E(t, b) f(x), the row of a word of length L is within
    D_L = eps (1 + N_p) + kappa D_(L-1), D_1 = eps, and a computed distance
    within D_p + r (D_p + N_p^2), which is returned.  Certifying only
    below tol / 2 leaves room for the rounding of this arithmetic and of
    the SVDs.
    """
    p, d = len(generators), generators.shape[-1]
    r = 2 * (d + 2) * float(np.finfo(generators.dtype).eps)
    # as complex128, since linalg takes no float16 or longdouble
    kappa = float(np.linalg.norm(generators.astype(np.complex128), 2, axis=(1, 2)).max())

    def err(norm: float) -> float:
        return d * (worst + r * (worst + kappa * norm))

    norm = kappa
    for _ in range(p - 1):
        norm = kappa * norm + err(norm)
    eps = dev = err(norm)
    for _ in range(p - 1):
        dev = eps * (1 + norm) + kappa * dev
    return dev + r * (dev + norm * norm)


class SgRepresentation:
    """Matrices for every element of the enumerated semigroup, held in an
    ``actions._RowTable`` (enumeration order from the extension).

    A partial-permutation rep's table holds its action's index rows (2-D),
    read as 0/1 matrices: the checks below run on those rows, and a matrix
    is built only when an entry is read.  Any other holds an (n, dim, dim)
    stack, each image a view of it; a mapping given here is checked image
    by image (see :func:`_as_square`), then stacked once in the dtype the
    images promote to, as a :class:`PartialRep` is.
    """

    def __init__(self, group: FiniteGroup, dim: int, table: Mapping[SgElement, np.ndarray]):
        self.group = group
        self.dim = dim
        if not isinstance(table, _RowTable):
            mats = [_as_square(m, dim) for m in table.values()]
            table = _RowTable(list(table), np.array(mats).reshape(len(mats), dim, dim), np.asarray)
        self.table = table

    def __call__(self, a: SgElement) -> np.ndarray:
        return self.table[a]

    def max_multiplicative_deviation(self) -> tuple[float, tuple | None]:
        """The largest max-abs distance of M(ab) from M(a)M(b) and its first pair.

        The scan reads the table's stack.  A block of columns
        b = lo .. lo + k - 1 of row a costs one gather of the targets
        M(ab), one product of M(a) with a slice of the stack and one
        difference, each allocated by the block.  With m = max|entry| of
        the stack, an integer table is cast once to the
        :func:`_exact_dtype` of m + m^2 dim, which bounds every entry of a
        difference, and is certified from its generator rows when they
        pass.  Float overflow raises NonFiniteProduct, and a table not
        closed under multiplication ValueError before any product.  A
        table of index rows is scanned as an action's, where a mismatch
        is the distance 1.0 of two 0/1 matrices.
        """
        return self._multiplicative(0.0)

    def _multiplicative(self, tol: float) -> tuple[float, tuple | None]:
        """:meth:`max_multiplicative_deviation`, except that with tol > 0
        a float table whose :func:`_product_bound` b is at most tol / 2
        answers (b, None) from its p generator rows."""
        if not self.table:  # no pair, and no element to key the table by
            return 0.0, None
        n, p = len(self.table), self.group.order
        if p > 1 and n < order_formula(p):  # not all of S(G): refused before any product if not closed
            rows, _, _, star, _ = _products(self.group, *_element_arrays(self.table.elements))
            out = np.empty((1, n), dtype=star.dtype)
            for a in range(n):
                rows([a], out)
        images = self.table.rows
        if images.ndim == 2:
            return _worst_pair(self.table, images, certify=_exact_certificate)
        certify = None
        if images.dtype.kind in "iu":
            m = _int_max_abs(images)
            images = images.astype(_exact_dtype(m * (m * self.dim + 1)), copy=False)
            certify = _exact_certificate
        elif tol > 0:
            def certify(rows: np.ndarray, worst: float) -> float | None:
                bound = _product_bound(images[rows], worst)
                return bound if bound <= tol / 2 else None

        return _worst_pair(self.table, images, partial(_finite, np.matmul), _distance, certify)

    def max_star_deviation(self) -> tuple[float, tuple | None]:
        """Deviation of M(a^*) from M(a)^adj over all images; ValueError
        naming the first a whose a^* has no image.  Index rows are compared
        with the inverse rows, matrices with the adjoints of a block of
        the stack at a time (:func:`_per_image`)."""
        rows, elements = self.table.rows, self.table.elements
        stars = _products(self.group, *_element_arrays(elements))[3]
        missing = np.flatnonzero(stars == len(elements))
        if missing.size:
            lost = elements[missing[0]]
            raise ValueError(f"no image of the star {lost.star()} of {lost}")
        if rows.ndim == 2:
            bad = (rows[stars] != _inverse_rows(rows)).any(axis=1).astype(float).tolist()
        else:
            bad = _per_image(rows, lambda block: _distance(rows[stars[block]], adjoint(rows[block])))
        return _worst_case(zip(bad, ((a,) for a in elements)))

    def max_partial_isometry_deviation(self) -> tuple[float, tuple | None]:
        """Deviation from m @ m^adj @ m == m over all images, a block of
        the stack at a time (:func:`_per_image`).  An index row is a
        composite of partial bijections, so it is one, and its 0/1 matrix
        is a partial isometry: (0.0, None) without reading a row."""
        rows = self.table.rows
        if rows.ndim == 2:
            return 0.0, None

        def deviations(block: slice) -> np.ndarray:
            m = rows[block]
            return _distance(_matmul(_matmul(m, adjoint(m)), m), m)

        return _worst_case(zip(_per_image(rows, deviations), ((a,) for a in self.table.elements)))


def extend_to_semigroup(
    rep: PartialRep,
    tol: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SgRepresentation:
    """Extend a validated partial representation to the whole semigroup.

    The element (F, s) maps to the product over r in F (ascending) of
    M_r M_{r^-1}, times M_s: the table is ``_extension_rows`` of the stacked
    matrices.  Raises with the validation report if the input fails its
    axioms.  A partial-permutation rep extends as its partial action: the
    rows of the action's table, each read as a 0/1 matrix when looked up.
    """
    report = validate_partial_rep(rep, tol)
    if not report.passed:
        raise ValueError("not a partial representation:\n" + report.describe())
    g = rep.group
    maps = _partial_bijections(rep.matrices)
    if maps is not None:
        return SgRepresentation(g, rep.dim, replace(InverseAction(g, rep.dim, maps).table(cap), read=_zero_one))
    elements = enumerate_semigroup(g, cap)
    return SgRepresentation(g, rep.dim, _RowTable(elements, _extension_rows(g, rep.matrices, _matmul), np.asarray))


def restrict_to_group(sgrep: SgRepresentation) -> PartialRep:
    """Generator images of a semigroup representation, as a partial rep.

    The input must hold every generator and be multiplicative and
    star-preserving, exactly when every matrix has an integer dtype and
    else to ``FLOAT_TOL``; the first missing generator, or the first worst
    pair or element, is reported.  A float table is first bounded from
    its p generator rows (:func:`_product_bound`); only a bound past
    FLOAT_TOL / 2, or a non-finite product or norm, leaves the verdict to
    the n^2 scan, so every answer and error is the scan's.
    """
    gens = [generator(sgrep.group, t) for t in sgrep.group.elements()]
    missing = [a for a in gens if a not in sgrep.table]
    if missing:
        raise NotRepresentation(f"no image of the generator {missing[0]}", (missing[0],))
    tol = _tolerance(sgrep.table.rows)
    dev, witness = sgrep._multiplicative(tol)
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
