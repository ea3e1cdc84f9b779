"""Exact arithmetic in the universal inverse semigroup of a finite group.

The semigroup attached to a group G is generated by one symbol per
group element, subject to the relations that make the generator map a
"partial" homomorphism.  Every element has a unique canonical form
consisting of a support subset of G (always containing the identity
and the degree) together with a degree element, and on canonical forms
the product and the involution are closed two-line formulas:

    (F, s) * (H, u) = (F | s.H, s*u)        (s.H = left translate of H)
    (F, s)^*        = (s^-1.F, s^-1)

Supports are bitmasks over group indices, so products are O(|G|) and
the whole semigroup (size 2^(p-2) * (p+1) for |G| = p >= 2) can be
enumerated and multiplied out exhaustively at small orders.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .groups import FiniteGroup

T = TypeVar("T")
D = TypeVar("D")  # a distance: a float, or a bool for exact targets

DEFAULT_ENUMERATION_CAP = 10
EXHAUSTIVE_BUDGET = 10**8
SAMPLE_SIZE = 10**6


class CapExceeded(ValueError):
    """An enumeration or table build would exceed its configured cap."""


class ConditionsViolated(ValueError):
    """A generator map fails the extension conditions; carries the witness pair."""

    def __init__(self, message: str, witness: tuple[int, int]):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class SgElement:
    """Canonical element: support bitmask plus degree, tied to its group.

    Invariants (checked on construction): the identity bit and the
    degree bit are set in ``support`` and no bit beyond the group order
    is set.
    """

    group: FiniteGroup
    support: int
    degree: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SgElement):
            return NotImplemented
        return (
            self.support == other.support
            and self.degree == other.degree
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        return hash((self.support, self.degree))

    def __post_init__(self) -> None:
        g = self.group
        if not 0 <= self.degree < g.order:
            raise ValueError(f"degree {self.degree} out of range for order {g.order}")
        if self.support >> g.order:
            raise ValueError("support has bits beyond the group order")
        if not (self.support >> g.identity) & 1:
            raise ValueError("support must contain the identity")
        if not (self.support >> self.degree) & 1:
            raise ValueError("support must contain the degree")

    def support_set(self) -> frozenset[int]:
        return frozenset(i for i in self.group.elements() if (self.support >> i) & 1)

    def is_idempotent(self) -> bool:
        return self.degree == self.group.identity

    def star(self) -> SgElement:
        g = self.group
        s_inv = g.inv(self.degree)
        return SgElement(g, g.left_translate(s_inv, self.support), s_inv)

    def __mul__(self, other: SgElement) -> SgElement:
        if self.group != other.group:
            raise ValueError("elements belong to different groups")
        g = self.group
        support = self.support | g.left_translate(self.degree, other.support)
        return SgElement(g, support, g.mul(self.degree, other.degree))

    def __le__(self, other: SgElement) -> bool:
        return natural_partial_order(self, other)

    def __repr__(self) -> str:
        return f"SgElement({sorted(self.support_set())}, deg={self.degree})"


def unit(group: FiniteGroup) -> SgElement:
    return SgElement(group, 1 << group.identity, group.identity)


def generator(group: FiniteGroup, t: int) -> SgElement:
    """The generator attached to group element ``t``: ({e, t}, t)."""
    return SgElement(group, (1 << group.identity) | (1 << t), t)


def idempotent(group: FiniteGroup, r: int) -> SgElement:
    """The idempotent generator(r) * generator(r^-1): ({e, r}, e)."""
    return SgElement(group, (1 << group.identity) | (1 << r), group.identity)


def reduce_word(group: FiniteGroup, word: Sequence[int]) -> SgElement:
    """Canonical form of a product of generators.

    The support comes out as {e, t1, t1*t2, ..., t1*...*tk} and the
    degree as the full product.
    """
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    acc = generator(group, word[0])
    for t in word[1:]:
        acc = acc * generator(group, t)
    return acc


def order_formula(p: int) -> int:
    """Size of the semigroup for a group of order p >= 2: 2^(p-2) * (p+1).

    Python integers are arbitrary precision, so the value is exact for
    any p; no overflow case exists.
    """
    if p < 2:
        raise ValueError(f"order formula requires group order >= 2, got {p}")
    return (1 << (p - 2)) * (p + 1)


def identity_masks(group: FiniteGroup) -> list[int]:
    """The subsets of G that contain the identity, as ascending bitmasks.

    The one enumeration of these subsets: the supports of the semigroup
    elements and the ground set of the Bernoulli partial action are
    both drawn from it, in this order.
    """
    e = 1 << group.identity
    return [mask for mask in range(1 << group.order) if mask & e]


def enumerate_semigroup(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[SgElement]:
    """All canonical elements, sorted by (degree, support mask).

    These are exactly the pairs (F, s) with identity and s in F: per
    degree s, the identity masks holding s, so in order as generated.
    """
    p = group.order
    if p > cap:
        raise CapExceeded(f"group order {p} exceeds enumeration cap {cap}")
    masks = identity_masks(group)
    return [SgElement(group, mask, s) for s in group.elements() for mask in masks if mask >> s & 1]


def natural_partial_order(a: SgElement, b: SgElement) -> bool:
    """a <= b iff a equals (idempotent) * b; here: same degree, larger support."""
    if a.group != b.group:
        raise ValueError("elements belong to different groups")
    return a.degree == b.degree and (a.support | b.support) == a.support


def act_on_subset(a: SgElement, subset: Iterable[int]) -> frozenset[int]:
    """Action on finite subsets of G containing the identity: E -> sE | F.

    Applied to the singleton {identity} this recovers the support of ``a``.
    """
    g = a.group
    e_set = frozenset(subset)
    if g.identity not in e_set:
        raise ValueError("subset must contain the identity element")
    if any(not 0 <= x < g.order for x in e_set):
        raise ValueError("subset contains indices outside the group")
    row = g.table[a.degree]
    return frozenset(row[x] for x in e_set) | a.support_set()


def multiplication_tables(
    elements: Sequence[SgElement],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Index-based product and involution tables over an enumerated semigroup.

    Returns (mult, star, unit_index) where mult[i, j] is the index of
    elements[i] * elements[j] and star[i] the index of elements[i]^*.
    Vectorized: one left-translation lookup table per group element
    turns every product row into array indexing.
    """
    group = elements[0].group
    p = group.order
    n = len(elements)
    supports = np.array([a.support for a in elements], dtype=np.int64)
    degrees = np.array([a.degree for a in elements], dtype=np.int64)

    all_masks = np.arange(1 << p, dtype=np.int64)
    translate = np.zeros((p, 1 << p), dtype=np.int64)
    for s in group.elements():
        row = group.table[s]
        lut = translate[s]
        for b in range(p):
            lut |= ((all_masks >> b) & 1) << row[b]

    # dense (support, degree) -> index lookup; -1 marks non-elements
    key_of = supports * p + degrees
    index_of = np.full((1 << p) * p, -1, dtype=np.int64)
    index_of[key_of] = np.arange(n)

    group_mul = np.array([list(row) for row in group.table], dtype=np.int64)
    mult = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        sup = supports[i] | translate[degrees[i]][supports]
        deg = group_mul[degrees[i]][degrees]
        mult[i] = index_of[sup * p + deg]
    if (mult < 0).any():
        raise ValueError("element list is not closed under multiplication")

    inverses = np.array(group.inverses, dtype=np.int64)
    star_deg = inverses[degrees]
    star_sup = translate[star_deg, supports]
    star_idx = index_of[star_sup * p + star_deg]
    unit_idx = int(index_of[(1 << group.identity) * p + group.identity])
    return mult, star_idx, unit_idx


@dataclass
class CheckResult:
    name: str
    passed: bool
    mode: str  # "exhaustive" or "sampled"
    checked: int
    counterexample: tuple | None = None

    def describe(self) -> str:
        status = "ok" if self.passed else f"FAIL at {self.counterexample}"
        return f"{self.name}: {status} ({self.mode}, {self.checked} cases)"


@dataclass
class SemigroupReport:
    group_order: int
    size: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def describe(self) -> str:
        head = f"semigroup on group of order {self.group_order}: {self.size} elements"
        return "\n".join([head] + [c.describe() for c in self.checks])


def verify_inverse_semigroup(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP, seed: int = 0
) -> SemigroupReport:
    """Brute-force certification that the enumerated structure is an
    inverse semigroup.

    Checks associativity, the two involution identities a a* a = a and
    a* a a* = a*, uniqueness of the generalized inverse, and pairwise
    commutation of idempotents.  Pair/triple scans switch to fixed-seed
    uniform sampling of ``SAMPLE_SIZE`` cases once they would exceed
    ``EXHAUSTIVE_BUDGET``.
    """
    elements = enumerate_semigroup(group, cap)
    n = len(elements)
    mult, star_idx, _ = multiplication_tables(elements)
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    def first_false(mask_bad: np.ndarray, idx_arrays: tuple[np.ndarray, ...]) -> tuple:
        flat = int(np.flatnonzero(mask_bad)[0])
        return tuple(elements[int(ix[flat])] for ix in idx_arrays)

    # associativity: mult[mult[i, j], k] == mult[i, mult[j, k]]
    if n**3 <= EXHAUSTIVE_BUDGET:
        bad = None
        count = 0
        for i in range(n):
            left = mult[mult[i, :], :]            # (n, n): (i*j)*k
            right = mult[i, mult]                 # (n, n): i*(j*k)
            count += n * n
            if not np.array_equal(left, right):
                j, k = map(int, np.argwhere(left != right)[0])
                bad = (elements[i], elements[j], elements[k])
                break
        checks.append(CheckResult("associativity", bad is None, "exhaustive", count, bad))
    else:
        ii = rng.integers(0, n, size=SAMPLE_SIZE)
        jj = rng.integers(0, n, size=SAMPLE_SIZE)
        kk = rng.integers(0, n, size=SAMPLE_SIZE)
        left = mult[mult[ii, jj], kk]
        right = mult[ii, mult[jj, kk]]
        neq = left != right
        bad = first_false(neq, (ii, jj, kk)) if neq.any() else None
        checks.append(
            CheckResult("associativity", bad is None, "sampled", SAMPLE_SIZE, bad)
        )

    # a a* a == a  and  a* a a* == a*
    idx = np.arange(n)
    lhs = mult[mult[idx, star_idx], idx]
    ok1 = lhs == idx
    lhs2 = mult[mult[star_idx, idx], star_idx]
    ok2 = lhs2 == star_idx
    both = ok1 & ok2
    bad = (elements[int(np.flatnonzero(~both)[0])],) if not both.all() else None
    checks.append(CheckResult("involution identities", bad is None, "exhaustive", n, bad))

    # uniqueness: for each a exactly one b with a b a == a and b a b == b
    bad = None
    for i in range(n):
        v = mult[i, :]                       # a*b over b
        w = mult[v, i] == i                  # (a*b)*a == a
        u = mult[:, i]                       # b*a over b
        z = mult[u, idx] == idx              # (b*a)*b == b
        witnesses = np.flatnonzero(w & z)
        if witnesses.size != 1 or witnesses[0] != star_idx[i]:
            bad = (elements[i], [elements[int(j)] for j in witnesses])
            break
    checks.append(CheckResult("unique inverses", bad is None, "exhaustive", n * n, bad))

    # idempotents commute pairwise
    idem = np.flatnonzero(mult[idx, idx] == idx)
    sub = mult[np.ix_(idem, idem)]
    comm = sub == sub.T
    if comm.all():
        bad = None
    else:
        i_, j_ = map(int, np.argwhere(~comm)[0])
        bad = (elements[int(idem[i_])], elements[int(idem[j_])])
    checks.append(
        CheckResult("idempotents commute", bad is None, "exhaustive", int(idem.size) ** 2, bad)
    )

    return SemigroupReport(group.order, n, checks)


def law_distances(
    group: FiniteGroup, images: Sequence[T], mul: Callable[[T, T], T], distance: Callable[[T, T], D]
) -> Iterator[tuple[int, int, D, D]]:
    """Distances of the two triple-product laws, pair by pair.

    Yields (s, t, triple, derived) with s, then t, ascending, where
    ``triple`` is the distance of f(s)f(t)f(t^-1) from f(st)f(t^-1) and
    ``derived`` that of f(s^-1)f(s)f(t) from f(s^-1)f(st).  Lazy, so a
    caller that stops at the first failure computes nothing past it.
    """
    for s in group.elements():
        fs = images[s]
        f_s_inv = images[group.inv(s)]
        for t in group.elements():
            ft = images[t]
            f_st = images[group.mul(s, t)]
            f_t_inv = images[group.inv(t)]
            triple = distance(mul(mul(fs, ft), f_t_inv), mul(f_st, f_t_inv))
            derived = distance(mul(mul(f_s_inv, fs), ft), mul(f_s_inv, f_st))
            yield s, t, triple, derived


def check_extension_conditions(
    group: FiniteGroup, images: Mapping[int, T], mul: Callable[[T, T], T]
) -> None:
    """Check the identities a generator map must satisfy before it
    extends to the whole semigroup; raise ConditionsViolated on the
    first failure: per s, the unit law f(s)f(e) = f(s), then per t the
    derived law and the triple-product law."""
    e = group.identity
    for s, t, triple, derived in law_distances(group, images, mul, operator.ne):
        # the unit law for s comes before the first pair of its row
        if t == 0 and mul(images[s], images[e]) != images[s]:
            raise ConditionsViolated(f"f({s})f({e}) != f({s})", (s, e))
        s_inv, t_inv = group.inv(s), group.inv(t)
        if derived:
            raise ConditionsViolated(
                f"f({s_inv})f({s})f({t}) != f({s_inv})f({s}*{t})", (s, t)
            )
        if triple:
            raise ConditionsViolated(
                f"f({s})f({t})f({t_inv}) != f({s}*{t})f({t_inv})", (s, t)
            )


def extension_formula(
    group: FiniteGroup, images: Sequence[T], mul: Callable[[T, T], T]
) -> Callable[[SgElement], T]:
    """The extension of a generator map to the semigroup, unchecked.

    (F, s) goes to the product of f(r)f(r^-1) over r in F (ascending
    index, read off the support bits; the factors commute once the
    extension conditions hold) times f(s).  The p projections
    f(r)f(r^-1) are computed once.
    """
    projections = [mul(images[r], images[group.inv(r)]) for r in group.elements()]

    def extended(a: SgElement) -> T:
        if a.group != group:
            raise ValueError("element belongs to a different group")
        support = (projections[r] for r in group.elements() if a.support >> r & 1)
        return mul(reduce(mul, support), images[a.degree])

    return extended


def universal_extension(
    group: FiniteGroup, images: Mapping[int, T], mul: Callable[[T, T], T]
) -> Callable[[SgElement], T]:
    """Extend a generator map into any semigroup to the full semigroup.

    ``images`` sends each group element to the target; ``mul`` is the
    target's multiplication.  Checks the extension conditions, then
    returns :func:`extension_formula`.
    """
    check_extension_conditions(group, images, mul)
    return extension_formula(group, images, mul)


def pair_distances(
    table: Mapping[SgElement, T], mul: Callable[[T, T], T], distance: Callable[[T, T], D]
) -> Iterator[tuple[D, tuple[SgElement, SgElement]]]:
    """Multiplicativity of a table over a closed set of elements.

    Yields (distance(f(ab), f(a)f(b)), (a, b)) for every pair in the
    table's order, row by row; products are looked up in the
    :func:`multiplication_tables` index table.
    """
    elements = list(table)
    images = list(table.values())
    mult = multiplication_tables(elements)[0].tolist()
    for a, fa, row in zip(elements, images, mult):
        for b, fb, ab in zip(elements, images, row):
            yield distance(images[ab], mul(fa, fb)), (a, b)


def _worst_case(deviations: Iterable[tuple[float, tuple]]) -> tuple[float, tuple | None]:
    """The largest deviation and the first witness attaining it;
    (0.0, None) when no deviation is positive.  Private: bench/spans.py
    times public functions, and a lazy scan belongs to its caller."""
    worst, witness = 0.0, None
    for d, w in deviations:
        if d > worst:
            worst, witness = d, w
    return worst, witness


def idempotent_elements(group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP) -> list[SgElement]:
    """All idempotents: exactly the degree-identity elements."""
    return [a for a in enumerate_semigroup(group, cap) if a.is_idempotent()]


def element_to_dict(a: SgElement) -> dict:
    """JSON encoding: {"support": [indices], "degree": index}."""
    return {"support": sorted(a.support_set()), "degree": a.degree}


def element_from_dict(group: FiniteGroup, data: Mapping) -> SgElement:
    mask = 0
    for i in data["support"]:
        mask |= 1 << int(i)
    return SgElement(group, mask, int(data["degree"]))
