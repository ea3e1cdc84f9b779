"""Partially defined bijections of a finite set and partial group actions.

A partial bijection on X = {0..n-1} is stored as a tuple with ``None``
marking undefined points.  Composition follows the largest-sensible-
domain rule, so these form the symmetric inverse monoid on X.  A
partial action of a group assigns one partial bijection per group
element; two equivalent axiom systems for "partial action" are
implemented as independent validators, and the translation to and from
homomorphisms of the universal inverse semigroup is exact.

The triple-product laws, the extension formula and the multiplicativity
scan shared with :mod:`invsg.reps` are ``semigroup.law_distances``,
``semigroup.extension_formula`` and ``semigroup.pair_distances``, used
here with composition as the product and ``!=`` as the distance.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .groups import FiniteGroup, document_group, group_to_dict
from .semigroup import (
    DEFAULT_ENUMERATION_CAP,
    CapExceeded,
    SgElement,
    _worst_case,
    enumerate_semigroup,
    extension_formula,
    generator,
    identity_masks,
    law_distances,
    pair_distances,
    unit,
)

MATERIALIZE_BUDGET = 10**6  # elements times ground-set size in a full action table


class InvalidGroupAction(ValueError):
    """A claimed permutation action fails to be one."""


class NotMultiplicative(ValueError):
    """A claimed semigroup action fails multiplicativity; carries the pair."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class PartialBijection:
    """Injective partial map on {0..n-1}; immutable and hashable."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Sequence[int | None]):
        m = tuple(None if v is None else int(v) for v in mapping)
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
        self._map = m

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
            if m[x] is not None:
                raise ValueError(f"point {x} has two images")
            m[x] = y
        return cls(m)

    @property
    def size(self) -> int:
        return len(self._map)

    @property
    def mapping(self) -> tuple[int | None, ...]:
        return self._map

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self._map) if v is not None)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(v for v in self._map if v is not None)

    def __call__(self, x: int) -> int | None:
        return self._map[x]

    def apply_to_set(self, points: Iterable[int]) -> frozenset[int]:
        """Image of a subset (silently drops points outside the domain)."""
        return frozenset(self._map[x] for x in points if self._map[x] is not None)

    def graph(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, v) for x, v in enumerate(self._map) if v is not None)

    def invert(self) -> PartialBijection:
        m: list[int | None] = [None] * len(self._map)
        for x, v in enumerate(self._map):
            if v is not None:
                m[v] = x
        return PartialBijection(m)

    def restrict(self, subset: Iterable[int]) -> PartialBijection:
        keep = set(subset)
        return PartialBijection(
            tuple(v if x in keep else None for x, v in enumerate(self._map))
        )

    def __mul__(self, other: PartialBijection) -> PartialBijection:
        """Composition self(other(x)): ``other`` acts first."""
        if len(self._map) != len(other._map):
            raise ValueError("partial bijections live on different ground sets")
        return PartialBijection(
            tuple(
                None if v is None else self._map[v]
                for v in other._map
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialBijection):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(self._map)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}->{v}" for x, v in sorted(self.graph()))
        return f"PartialBijection({len(self._map)}; {pairs})"


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
    passed: bool
    failures: list[AxiomFailure]

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
    g = action.group
    failures: list[AxiomFailure] = []
    dom = [action.theta[t].domain for t in g.elements()]
    ran = [action.theta[t].image for t in g.elements()]

    for t in g.elements():
        if dom[t] != ran[g.inv(t)]:
            failures.append(AxiomFailure("domains", (t,)))

    if action.theta[g.identity] != PartialBijection.identity(action.set_size):
        failures.append(AxiomFailure("identity", (g.identity,)))

    for r in g.elements():
        for s in g.elements():
            left = action.theta[r].apply_to_set(ran[g.inv(r)] & ran[s])
            right = ran[r] & ran[g.mul(r, s)]
            if left != right:
                failures.append(AxiomFailure("domain translation", (r, s)))

    for r in g.elements():
        for s in g.elements():
            pts = ran[g.inv(s)] & ran[g.mul(g.inv(s), g.inv(r))]
            rs = g.mul(r, s)
            for x in sorted(pts):
                y = action.theta[s](x)
                z = None if y is None else action.theta[r](y)
                if z != action.theta[rs](x):
                    failures.append(AxiomFailure("composition", (r, s, x)))
                    break

    return ActionReport(not failures, failures)


def validate_semigroup_form(action: PartialAction) -> ActionReport:
    """Check the composition-algebra form of the axioms inside the
    symmetric inverse monoid:

    (i) theta[s] theta[t] theta[t^-1] == theta[st] theta[t^-1],
    (ii) theta[e] == id,
    and the derived (iii) theta[s^-1] theta[s] theta[t] == theta[s^-1] theta[st].
    """
    g = action.group
    triple: list[AxiomFailure] = []
    derived: list[AxiomFailure] = []
    for s, t, bad_triple, bad_derived in law_distances(g, action.theta, operator.mul, operator.ne):
        if bad_triple:
            triple.append(AxiomFailure("triple product", (s, t)))
        if bad_derived:
            derived.append(AxiomFailure("derived triple product", (s, t)))

    identity = []
    if action.theta[g.identity] != PartialBijection.identity(action.set_size):
        identity.append(AxiomFailure("identity", (g.identity,)))

    failures = triple + identity + derived
    return ActionReport(not failures, failures)


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
    perms = [tuple(int(v) for v in p) for p in permutations]
    if len(perms) != group.order:
        raise InvalidGroupAction("need one permutation per group element")
    y_size = len(perms[0])
    for t, p in enumerate(perms):
        if len(p) != y_size or sorted(p) != list(range(y_size)):
            raise InvalidGroupAction(f"permutations[{t}] is not a permutation")
    if perms[group.identity] != tuple(range(y_size)):
        raise InvalidGroupAction("identity element must act as the identity")
    for t in group.elements():
        for s in group.elements():
            ts = group.mul(t, s)
            for y in range(y_size):
                if perms[t][perms[s][y]] != perms[ts][y]:
                    raise InvalidGroupAction(
                        f"not an action: t={t}, s={s}, y={y}"
                    )

    points = sorted(set(subset))
    if any(not 0 <= y < y_size for y in points):
        raise InvalidGroupAction("subset contains points outside the ground set")
    pos = {y: i for i, y in enumerate(points)}
    in_x = set(points)
    theta = []
    for t in group.elements():
        m: list[int | None] = [None] * len(points)
        for i, y in enumerate(points):
            ty = perms[t][y]
            if ty in in_x:
                m[i] = pos[ty]
        theta.append(PartialBijection(m))
    return PartialAction(group, len(points), tuple(theta))


def bernoulli_partial_action(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> PartialAction:
    """Left translation on the subsets of G that contain the identity.

    The ground set is the 2^(p-1) identity-containing subsets in
    ascending bitmask order (``semigroup.identity_masks``); theta[t]
    sends E to tE wherever t^-1 lies in E.
    """
    p = group.order
    if p > cap:
        raise CapExceeded(f"group order {p} exceeds cap {cap}")
    masks = identity_masks(group)
    index = {mask: i for i, mask in enumerate(masks)}

    theta = []
    for t in group.elements():
        t_inv = group.inv(t)
        m: list[int | None] = [None] * len(masks)
        for i, mask in enumerate(masks):
            if (mask >> t_inv) & 1:
                m[i] = index[group.left_translate(t, mask)]
        theta.append(PartialBijection(m))
    return PartialAction(group, len(masks), tuple(theta))


class InverseAction:
    """Action of the enumerated semigroup by partial bijections.

    Stores the generator images and evaluates arbitrary elements with
    the (unchecked) extension formula; the full table over the
    enumerated semigroup is materialized on demand, and kept, when its
    size stays within ``MATERIALIZE_BUDGET``.
    """

    def __init__(
        self,
        group: FiniteGroup,
        set_size: int,
        generator_images: Sequence[PartialBijection],
    ):
        if len(generator_images) != group.order:
            raise ValueError("need one generator image per group element")
        for f in generator_images:
            if f.size != set_size:
                raise ValueError("generator images live on the wrong ground set")
        self.group = group
        self.set_size = set_size
        self.generator_images = tuple(generator_images)
        self._extend = extension_formula(group, self.generator_images, operator.mul)
        self._table: dict[SgElement, PartialBijection] | None = None

    def __call__(self, a: SgElement) -> PartialBijection:
        return self._extend(a)

    def table(self, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[SgElement, PartialBijection]:
        """The action of every element, in enumeration order.  ``cap`` is
        checked on every call: enumerating past it raises CapExceeded,
        cached table or not."""
        if self._table is None or self.group.order > cap:
            elements = enumerate_semigroup(self.group, cap)
            if len(elements) * max(self.set_size, 1) > MATERIALIZE_BUDGET:
                raise CapExceeded("full action table exceeds the materialization budget")
            self._table = {a: self._extend(a) for a in elements}
        return self._table

    def check_multiplicative(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple | None:
        """Return the first pair (a, b) with pi(ab) != pi(a)pi(b), or None."""
        return _worst_case(pair_distances(self.table(cap), operator.mul, operator.ne))[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InverseAction):
            return NotImplemented
        return (
            self.group == other.group
            and self.set_size == other.set_size
            and self.generator_images == other.generator_images
        )

    def __hash__(self) -> int:
        return hash((self.set_size, self.generator_images))


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


def from_inverse_action(inv_action: InverseAction, cap: int = DEFAULT_ENUMERATION_CAP) -> PartialAction:
    """Recover the partial action from a semigroup action.

    Requires the unit to act as the identity and the assignment to be
    multiplicative; the first offending pair is reported otherwise.
    """
    g = inv_action.group
    if inv_action(unit(g)) != PartialBijection.identity(inv_action.set_size):
        raise NotMultiplicative("unit does not act as the identity", (unit(g),))
    witness = inv_action.check_multiplicative(cap)
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
    n = int(data["set_size"])
    theta = []
    raw = data["theta"]
    unknown = set(raw) - {str(t) for t in group.elements()}
    if unknown:
        raise ValueError(f"theta keys {sorted(unknown)} are not indices of a group of order {group.order}")
    for t in group.elements():
        pairs = raw.get(str(t), [])
        theta.append(PartialBijection.from_pairs(n, [(int(x), int(y)) for x, y in pairs]))
    return PartialAction(group, n, tuple(theta))
