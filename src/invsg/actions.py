"""Partially defined bijections of a finite set and partial group actions.

A partial bijection on X = {0..n-1} is stored as a tuple with ``None``
marking undefined points.  Composition follows the largest-sensible-
domain rule, so these form the symmetric inverse monoid on X.  A
partial action of a group assigns one partial bijection per group
element; two equivalent axiom systems for "partial action" are
implemented as independent validators, and the translation to and from
homomorphisms of the universal inverse semigroup is exact.

The triple-product laws and the multiplicativity scan shared with
:mod:`invsg.reps` are ``semigroup._stacked_laws`` and
``semigroup._worst_pair``, run here on the index rows of the partial
bijections (``_index_rows``), composed by a gather, with ``!=`` as the
distance.  An :class:`InverseAction` composes its rows the same way;
its table, which every single image is read off, is their
``semigroup._extension_rows``, as the certificate's model of S(G) is
that of the Bernoulli rows, ``semigroup._bernoulli_rows``.
That view of the array (``_RowTable``) is scanned by ``_worst_pair``,
for actions and for the 0/1 reps of :mod:`invsg.reps` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .groups import FiniteGroup, document_group, group_to_dict, json_value
from .semigroup import (
    DEFAULT_ENUMERATION_CAP,
    CapExceeded,
    Counterexample,
    SgElement,
    _bernoulli_rows,
    _check_cap,
    _exact_certificate,
    _extension_rows,
    _stacked_laws,
    _worst_pair,
    enumerate_semigroup,
    generator,
    identity_masks,
    order_formula,
    unit,
)

V = TypeVar("V")

MATERIALIZE_BUDGET = 10**6  # the largest set_size an action file may declare


class InvalidGroupAction(ValueError):
    """A claimed permutation action fails to be one."""


class NotMultiplicative(Counterexample):
    """A claimed semigroup action fails multiplicativity; the witness is the pair."""


@dataclass(frozen=True, slots=True)
class PartialBijection:
    """Injective partial map on {0..n-1}; immutable and hashable.

    ``mapping[x]`` is the image of x, or None where x is undefined.
    """

    mapping: tuple[int | None, ...]

    def __post_init__(self) -> None:
        m = tuple(None if v is None else int(v) for v in self.mapping)
        n = len(m)
        seen: set[int] = set()
        for x, v in enumerate(m):
            if v is None:
                continue
            if not 0 <= v < n:
                raise ValueError(f"image {v} of {x} out of range [0, {n})")
            if v in seen:
                raise ValueError(f"not injective: {v} has two preimages")
            seen.add(v)
        object.__setattr__(self, "mapping", m)

    @classmethod
    def _trusted(cls, mapping: tuple[int | None, ...]) -> PartialBijection:
        """A partial bijection from a normalised tuple known to be one
        (a composite or an inverse), without the checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "mapping", mapping)
        return f

    @classmethod
    def identity(cls, n: int) -> PartialBijection:
        return cls(tuple(range(n)))

    @classmethod
    def empty(cls, n: int) -> PartialBijection:
        return cls((None,) * n)

    @classmethod
    def identity_on(cls, n: int, subset: Iterable[int]) -> PartialBijection:
        keep = set(subset)
        return cls(tuple(x if x in keep else None for x in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> PartialBijection:
        m: list[int | None] = [None] * n
        for x, y in pairs:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range [0, {n})")
            if m[x] is not None:
                raise ValueError(f"point {x} has two images")
            m[x] = y
        return cls(m)

    @property
    def size(self) -> int:
        return len(self.mapping)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.mapping) if v is not None)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(v for v in self.mapping if v is not None)

    def __call__(self, x: int) -> int | None:
        return self.mapping[x]

    def apply_to_set(self, points: Iterable[int]) -> frozenset[int]:
        """Image of a subset (silently drops points outside the domain)."""
        return frozenset(self.mapping[x] for x in points if self.mapping[x] is not None)

    def graph(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, v) for x, v in enumerate(self.mapping) if v is not None)

    def invert(self) -> PartialBijection:
        m: list[int | None] = [None] * len(self.mapping)
        for x, v in enumerate(self.mapping):
            if v is not None:
                m[v] = x
        return PartialBijection._trusted(tuple(m))

    def __mul__(self, other: PartialBijection) -> PartialBijection:
        """Composition self(other(x)): ``other`` acts first."""
        if len(self.mapping) != len(other.mapping):
            raise ValueError("partial bijections live on different ground sets")
        m = self.mapping
        return PartialBijection._trusted(tuple([None if v is None else m[v] for v in other.mapping]))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}->{v}" for x, v in sorted(self.graph()))
        return f"PartialBijection({len(self.mapping)}; {pairs})"


@dataclass(frozen=True)
class PartialAction:
    """One partial bijection per group element on a common ground set.

    The domain subsets are derived: D_t is the image of theta[t], and a
    valid action has theta[t] mapping D_{t^-1} onto D_t.
    """

    group: FiniteGroup
    set_size: int
    theta: tuple[PartialBijection, ...]

    def __post_init__(self) -> None:
        if len(self.theta) != self.group.order:
            raise ValueError("need exactly one partial bijection per group element")
        for t, f in enumerate(self.theta):
            if f.size != self.set_size:
                raise ValueError(f"theta[{t}] lives on a set of size {f.size}, expected {self.set_size}")

    def domain_of(self, t: int) -> frozenset[int]:
        """D_t, realized as the image of theta[t]."""
        return self.theta[t].image


@dataclass
class AxiomFailure:
    axiom: str
    witness: tuple

    def describe(self) -> str:
        return f"{self.axiom} fails at {self.witness}"


@dataclass
class ActionReport:
    failures: list[AxiomFailure]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return "partial action: all axioms hold"
        return "\n".join(f.describe() for f in self.failures)


def validate_axioms(action: PartialAction) -> ActionReport:
    """Check the domain/range axioms of a partial action directly.

    (0) theta[t] maps D_{t^-1} to D_t (domain bookkeeping),
    (i) the identity acts as the full identity map,
    (ii) theta[r](D_{r^-1} & D_s) == D_r & D_{rs},
    (iii) theta[r](theta[s](x)) == theta[rs](x) for x in D_{s^-1} & D_{s^-1 r^-1}.

    Failures carry the witnessing (r, s) or (r, s, x).
    """
    g, theta = action.group, action.theta
    inv, mul = g.inverses, g.table
    ran = [f.image for f in theta]
    failures = [AxiomFailure("domains", (t,)) for t, f in enumerate(theta) if f.domain != ran[inv[t]]]

    if theta[g.identity] != PartialBijection.identity(action.set_size):
        failures.append(AxiomFailure("identity", (g.identity,)))

    for r in g.elements():
        for s in g.elements():
            if theta[r].apply_to_set(ran[inv[r]] & ran[s]) != ran[r] & ran[mul[r][s]]:
                failures.append(AxiomFailure("domain translation", (r, s)))

    for r in g.elements():
        for s in g.elements():
            fr, fs, frs = theta[r].mapping, theta[s].mapping, theta[mul[r][s]].mapping
            for x in sorted(ran[inv[s]] & ran[mul[inv[s]][inv[r]]]):
                y = fs[x]
                if (None if y is None else fr[y]) != frs[x]:
                    failures.append(AxiomFailure("composition", (r, s, x)))
                    break

    return ActionReport(failures)


def validate_semigroup_form(action: PartialAction) -> ActionReport:
    """Check the composition-algebra form of the axioms inside the
    symmetric inverse monoid:

    (i) theta[s] theta[t] theta[t^-1] == theta[st] theta[t^-1],
    (ii) theta[e] == id,
    and the derived (iii) theta[s^-1] theta[s] theta[t] == theta[s^-1] theta[st].
    """
    g, theta = action.group, action.theta
    triple, derived = _stacked_laws(g, _index_rows(theta, action.set_size))
    failures = [AxiomFailure("triple product", (s, t)) for s, t in np.argwhere(triple).tolist()]
    if theta[g.identity] != PartialBijection.identity(action.set_size):
        failures.append(AxiomFailure("identity", (g.identity,)))
    failures += [AxiomFailure("derived triple product", (s, t)) for s, t in np.argwhere(derived).tolist()]
    return ActionReport(failures)


def restriction_action(
    group: FiniteGroup,
    permutations: Sequence[Sequence[int]],
    subset: Iterable[int],
) -> PartialAction:
    """Restrict a genuine permutation action on Y to a subset X.

    ``permutations[t][y]`` is t.y on Y; the result acts on X re-indexed
    as 0..|X|-1 in increasing Y-order, with theta[t] defined where both
    the point and its image lie in X.
    """
    try:
        # int() admits no undefined point (None raises TypeError): each map
        # PartialBijection accepts is a permutation
        perms = tuple(PartialBijection(tuple(map(int, p))) for p in permutations)
        y_size = perms[0].size if perms else 0
        action = PartialAction(group, y_size, perms)
    except (TypeError, ValueError) as exc:
        raise InvalidGroupAction(f"not an action: {exc}") from None
    report = validate_axioms(action)
    if not report.passed:  # a partial action whose domains are all of Y is a group action
        raise InvalidGroupAction("not an action: " + report.describe())

    points = sorted(set(subset))
    if any(not 0 <= y < y_size for y in points):
        raise InvalidGroupAction("subset contains points outside the ground set")
    pos = {y: i for i, y in enumerate(points)}
    theta = tuple(PartialBijection([pos.get(f.mapping[y]) for y in points]) for f in perms)
    return PartialAction(group, len(points), theta)


def bernoulli_partial_action(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> PartialAction:
    """Left translation on the subsets of G that contain the identity.

    The ground set is the 2^(p-1) identity-containing subsets in
    ascending bitmask order (``semigroup.identity_masks``); theta[t]
    sends E to tE wherever t^-1 lies in E.  Read off the mask columns of
    ``semigroup._bernoulli_rows``, which the certificate's model shares.
    """
    _check_cap(group, cap)
    half = 1 << (group.order - 1)
    return PartialAction(group, half, tuple(_bijection(row, half) for row in _bernoulli_rows(group, identity_masks(group))))


def _index_rows(images: Sequence[PartialBijection], set_size: int) -> np.ndarray:
    """The partial bijections as rows of an index array, in the narrowest
    unsigned dtype holding ``set_size``, with ``set_size`` for undefined
    points and one ``set_size`` column appended: composing with a row f
    is the gather f[h], where the marker picks the appended column."""
    rows = [[set_size if v is None else v for v in f.mapping] + [set_size] for f in images]
    return np.array(rows, dtype=np.min_scalar_type(set_size))


def _bijection(row: np.ndarray, size: int) -> PartialBijection:
    """The partial bijection on {0..size-1} of the first ``size`` entries
    of an index row, where every entry of ``size`` or more is undefined."""
    return PartialBijection._trusted(tuple([None if v >= size else v for v in row[:size].tolist()]))


@dataclass(eq=False)
class _RowTable(Mapping[SgElement, V]):
    """A read-only table of ``elements``, their ``index``, built here, and
    one of ``rows`` each, read as ``read(row)`` when looked up: index rows
    (2-D) for an :class:`InverseAction`, or a dense rep's matrices (3-D)."""

    elements: list[SgElement]
    rows: np.ndarray
    read: Callable[[np.ndarray], V]
    index: dict[SgElement, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {a: i for i, a in enumerate(self.elements)}

    def __getitem__(self, a: SgElement) -> V:
        return self.read(self.rows[self.index[a]])

    def __contains__(self, a: object) -> bool:
        return a in self.index

    def __iter__(self) -> Iterator[SgElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class InverseAction:
    """Action of the enumerated semigroup by partial bijections.

    :meth:`table` holds every image as index-array rows (:func:`_index_rows`),
    the unchecked extension formula of the generator rows batched by
    ``_extension_rows``; a single image is read off it, within its caps.
    """

    def __init__(
        self,
        group: FiniteGroup,
        set_size: int,
        generator_images: Sequence[PartialBijection],
    ):
        self.group = group
        self.set_size = set_size
        # one image per group element, on one ground set
        self.generator_images = PartialAction(group, set_size, tuple(generator_images)).theta
        self._rows = _index_rows(self.generator_images, set_size)
        self._table: _RowTable[PartialBijection] | None = None
        self._verdict: tuple[tuple | None] | None = None  # (witness,) of the one multiplicativity scan

    def __call__(self, a: SgElement) -> PartialBijection:
        if a.group != self.group:
            raise ValueError("element belongs to a different group")
        return self.table()[a]

    def table(self, cap: int = DEFAULT_ENUMERATION_CAP) -> _RowTable[PartialBijection]:
        """The action of every element as rows of one index array, read
        as partial bijections.  ``cap`` is checked on every call, cached
        table or not.  The array is built once, if its elements times
        ground-set size stay within the Bernoulli table's at the default
        order cap (2816 x 512), so the package's own actions extend at
        every order the cap allows."""
        _check_cap(self.group, cap)
        if self._table is None:
            elements = enumerate_semigroup(self.group, cap)
            p = DEFAULT_ENUMERATION_CAP
            bound = order_formula(p) << (p - 1)
            if len(elements) * max(self.set_size, 1) > bound:
                raise CapExceeded(f"full action table exceeds {bound} entries, the Bernoulli table's at order {p}")
            rows = _extension_rows(self.group, self._rows)
            self._table = _RowTable(elements, rows, lambda row: _bijection(row, self.set_size))
        return self._table

    def check_multiplicative(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple | None:
        """The first pair (a, b) of ``table(cap)`` with pi(ab) != pi(a)pi(b),
        or None: the verdict, kept, of one ``semigroup._worst_pair`` scan of
        its index rows, which a valid table passes on its p generator rows."""
        table = self.table(cap)
        if self._verdict is None:
            self._verdict = (_worst_pair(table, table.rows, certify=_exact_certificate)[1],)
        return self._verdict[0]


def to_inverse_action(action: PartialAction) -> InverseAction:
    """Package a partial action as a semigroup action.

    The element (F, s) acts by theta[s] restricted to the points whose
    image lies in every D_r with r in F; on generators this is theta
    itself, and multiplicativity over the whole semigroup is a theorem
    (re-checked exhaustively in the tests).
    """
    report = validate_axioms(action)
    if not report.passed:
        raise ValueError("invalid partial action: " + report.describe())
    return InverseAction(action.group, action.set_size, action.theta)


def from_inverse_action(inv_action: InverseAction) -> PartialAction:
    """Recover the partial action from a semigroup action.

    Requires the unit to act as the identity and the assignment to be
    multiplicative; the first offending pair is reported otherwise.
    """
    g = inv_action.group
    if inv_action(unit(g)) != PartialBijection.identity(inv_action.set_size):
        raise NotMultiplicative("unit does not act as the identity", (unit(g),))
    witness = inv_action.check_multiplicative()
    if witness is not None:
        raise NotMultiplicative(f"not multiplicative at {witness}", witness)
    theta = tuple(inv_action(generator(g, t)) for t in g.elements())
    return PartialAction(g, inv_action.set_size, theta)


def action_to_dict(action: PartialAction) -> dict:
    """JSON-ready form with the group inlined; see FORMATS.md."""
    theta = {
        str(t): [[x, y] for x, y in sorted(action.theta[t].graph())]
        for t in action.group.elements()
    }
    return {
        "group": group_to_dict(action.group),
        "set_size": action.set_size,
        "theta": theta,
    }


def action_from_dict(data: Mapping) -> PartialAction:
    group = document_group(data, ("set_size", "theta"))
    n = json_value(data["set_size"], "an integer", "set_size")
    if n < 0:
        raise ValueError(f"set_size {n} is negative")
    if n > MATERIALIZE_BUDGET:
        raise ValueError(f"set_size {n} exceeds the materialization budget {MATERIALIZE_BUDGET}")
    raw = json_value(data["theta"], "an object", "theta")
    unknown = set(raw) - {str(t) for t in group.elements()}
    if unknown:
        raise ValueError(f"theta keys {sorted(unknown)} are not indices of a group of order {group.order}")
    theta = []
    for t in group.elements():
        pairs = json_value(raw.get(str(t), []), "a list of [point, image] pairs", f"theta[{t}]")
        theta.append(PartialBijection.from_pairs(n, pairs))
    return PartialAction(group, n, tuple(theta))
