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
enumerated and multiplied out exhaustively at small orders; the
certificate decides the product rows per class of products and never
holds the table whole.  Arithmetic and enumeration run without numpy;
the index tables, the certificate, the pair scans and the extension
of a generator map import it when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Mapping, Sequence, TypeVar

from .groups import FiniteGroup

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")

DEFAULT_ENUMERATION_CAP = 10
DEFAULT_DIM_CAP = 1000  # of an algebra over the enumerated semigroup: group order <= 8
SCAN_BYTES = 1 << 17  # bytes per block of rows of a table build or a certificate check, or of images per pair-scan block


class CapExceeded(ValueError):
    """An enumeration or table build would exceed its configured cap."""


class Counterexample(ValueError):
    """A claimed identity fails; ``witness`` is the tuple of elements where it does."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class ConditionsViolated(Counterexample):
    """A generator map fails the extension conditions; the witness is a pair (s, t)."""


@dataclass(frozen=True)
class SgElement:
    """Canonical element: support bitmask plus degree, tied to its group.

    Invariants (checked on construction): the identity bit and the
    degree bit are set in ``support`` and no bit beyond the group order
    is set.  Equal when group, support and degree are; hashing reads the
    group's cached hash, never its table.
    """

    group: FiniteGroup
    support: int
    degree: int

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

    @classmethod
    def _trusted(cls, group: FiniteGroup, support: int, degree: int) -> SgElement:
        """An element known to be canonical (an enumerated one), without the checks."""
        a = object.__new__(cls)  # set as __init__ does: vars(a) would give each element a dict
        object.__setattr__(a, "group", group)
        object.__setattr__(a, "support", support)
        object.__setattr__(a, "degree", degree)
        return a

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


def _check_cap(group: FiniteGroup, cap: int) -> None:
    """The one order-cap rule; private, so a trace charges CapExceeded to its caller."""
    if group.order > cap:
        raise CapExceeded(f"group order {group.order} exceeds enumeration cap {cap}")


def enumerate_semigroup(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[SgElement]:
    """All canonical elements, sorted by (degree, support mask).

    These are exactly the pairs (F, s) with identity and s in F: per
    degree s, the identity masks holding s, so in order as generated.
    """
    _check_cap(group, cap)
    masks = identity_masks(group)
    return [SgElement._trusted(group, mask, s) for s in group.elements() for mask in masks if mask >> s & 1]


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


def _translates(group: FiniteGroup) -> np.ndarray:
    """translate[s, mask] = s.mask as int64 bitmasks, built in place by
    top bit b: s.(2^b + rest) = s.rest | 2^(sb) for each rest < 2^b."""
    import numpy as np
    translate = np.zeros((group.order, 1 << group.order), dtype=np.int64)
    for b, bit in enumerate(1 << np.array(group.table, dtype=np.int64).T[:, :, None]):  # bit[s] = 2^(sb)
        np.bitwise_or(translate[:, : 1 << b], bit, out=translate[:, 1 << b : 2 << b])
    return translate


def _canonical(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """:func:`enumerate_semigroup`'s elements, in its order, as intp arrays (supports, degrees)."""
    import numpy as np
    masks = np.arange(1 << group.order)
    return np.nonzero(masks >> group.identity & masks >> np.arange(group.order)[:, None] & 1)[::-1]


def _element_arrays(elements: Sequence[SgElement]) -> np.ndarray:
    """The (supports, degrees) of a list of elements, the rows of one 2 x n int64 array."""
    import numpy as np
    return np.array([(a.support, a.degree) for a in elements], dtype=np.int64).reshape(-1, 2).T


def _products(group: FiniteGroup, supports: np.ndarray, degrees: np.ndarray) -> tuple[Callable, tuple, Callable, np.ndarray, int]:
    """Products and stars by index of the elements x_i = (supports[i],
    degrees[i]): (rows, factors, product, star, unit_index).  ``rows(i,
    out)`` writes the rows i of the table into out[:len(i)], out[r, j]
    the index of x_i[r] x_j, and returns ``out``; ValueError if a product
    leaves the list.  ``product(i, j)``, the index of x_i x_j, broadcasts
    i against j (a column against a row is one gather of rows); star[i]
    is that of x_i^*.  Both give n where it is missing, n = len(degrees),
    in the narrowest unsigned dtype holding n, that of ``out``.  An
    element is keyed as F' << k | degree, F' being F without bit e,
    which every support holds, and k bits a degree, in the narrowest
    unsigned dtype holding every key (uint16 through order 13).  As (F,
    s)(H, u) = (F | s.H, su), the key row of x = (F, s) is K[x] = M[s] |
    L[x]: ``factors`` = (M, c, L), c(x) = s, L[x] = F' << k and M the p x
    n keys of the translates s.(H, u), in C order.  ``rows``, here alone,
    looks them up, a gather of M, an OR and a lookup per block of about
    SCAN_BYTES: equal key rows are equal index rows.
    """
    import numpy as np
    p, n, e = group.order, len(degrees), group.identity
    k = max(1, (p - 1).bit_length())
    translate = _translates(group)
    squeeze = lambda masks: masks >> (e + 1) << e | masks & ((1 << e) - 1)  # F': bit e dropped
    index_of = np.full(1 << (p - 1 + k), n, dtype=np.min_scalar_type(n))
    index_of[squeeze(supports) << k | degrees] = np.arange(n)
    key_dtype = np.min_scalar_type(len(index_of) - 1)
    moved = squeeze(translate[:, supports]) << k | np.array(group.table, dtype=np.int64)[:, degrees]  # keys of s.(H, u)
    moved, left = moved.astype(key_dtype, order="C"), (squeeze(supports) << k).astype(key_dtype)
    step = max(1, SCAN_BYTES // (key_dtype.itemsize * max(n, 1)))  # rows per block

    def rows(i: np.ndarray, out: np.ndarray) -> np.ndarray:
        for lo in range(0, len(i), step):
            at = i[lo : lo + step]
            key = np.take(moved, degrees[at], axis=0)
            key = np.bitwise_or(key, left[at, None], out=key)
            block = np.take(index_of, key, out=out[lo : lo + len(at)], mode="clip")  # keys are in range
            if block.max() == n:
                raise ValueError("element list is not closed under multiplication")
        return out

    def product(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        key = moved[:, j].take(degrees[i[:, 0]], axis=0) if i.shape[1:] == (1,) and j.ndim == 1 else moved[degrees[i], j]
        return np.take(index_of, np.bitwise_or(key, left[i], out=key))

    star_deg = np.array(group.inverses, dtype=np.int64)[degrees]
    star = index_of[squeeze(translate[star_deg, supports]) << k | star_deg]
    return rows, (moved, degrees, left), product, star, int(index_of[e])


def multiplication_tables(elements: Sequence[SgElement]) -> tuple[np.ndarray, np.ndarray, int]:
    """Index-based product and involution tables over a list of elements:
    (mult, star, unit_index) of :func:`_products`, mult[i, j] the index
    of elements[i] * elements[j], filled by its ``rows``, so ValueError
    if the list is not closed.  Cast the narrow index arrays (to int64,
    say) before any arithmetic."""
    import numpy as np
    n = len(elements)
    rows, _, _, star, unit_idx = _products(elements[0].group, *_element_arrays(elements))
    return rows(np.arange(n), np.empty((n, n), dtype=star.dtype)), star, unit_idx


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    counterexample: tuple | None = None
    mode: ClassVar[str] = "exhaustive"  # every case is scanned; kept in the report schema

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


def _generator_rows(group: FiniteGroup, supports: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The indices of the generators ({e, t}, t) among the elements (supports[i], degrees[i]), ascending."""
    return (supports == 1 << group.identity | 1 << degrees).nonzero()[0]


def _extension_rows(
    group: FiniteGroup, images: np.ndarray, compose: Callable = lambda f, h: f.take(h, axis=-1)
) -> np.ndarray:
    """The extension formula of the p stacked generator ``images`` at
    every element of :func:`enumerate_semigroup`, in its order: (F, s)
    goes to the product of f(r)f(r^-1) over r in F, ascending (the
    factors commute once the extension conditions hold), times f(s).
    ``compose(f, h)`` composes each image of a stack f with one image h:
    the gather f[h] of index rows (the ``InverseAction`` layout) by
    default, ``reps._matmul`` for matrices, ``mul`` on boxed objects in
    :func:`universal_extension`.  Per stage it runs p times: the
    projections; the products over the masks by top bit, P[2^k] =
    proj[k], P[2^k + rest] = P[rest] o proj[k]; and P[F] o images[s] per
    degree s, one range of rows.  A support F holds the identity e, and
    so does each of its prefixes past bit e, so only the masks holding e
    and those below 2^e are composed (half of the 2^p when e = 0); the
    other entries of P are never read."""
    import numpy as np
    p, e = group.order, group.identity
    projections = np.stack([compose(images[r], images[group.inv(r)]) for r in group.elements()])
    products = np.empty((1 << p, *projections.shape[1:]), dtype=projections.dtype)
    for k in range(p):
        products[1 << k] = projections[k]
        if k <= e:
            products[(1 << k) + 1 : 2 << k] = compose(products[1 : 1 << k], projections[k])
        else:  # a view of the masks holding e: axes bit k, bits k-1..e+1, bit e, bits below e
            held = products[: 2 << k].reshape(2, 1 << (k - e - 1), 2, 1 << e, *projections.shape[1:])[:, :, 1]
            held[1] = compose(held[0], projections[k])
    supports, degrees = _canonical(group)
    out = np.empty((len(degrees), *projections.shape[1:]), dtype=projections.dtype)
    for s in group.elements():
        out[degrees == s] = compose(products[supports[degrees == s]], images[s])
    return out


def _bernoulli_rows(group: FiniteGroup, masks: Sequence[int]) -> np.ndarray:
    """The generator rows of the Bernoulli action E -> tE on ``masks``,
    identity masks of a family it keeps, then of the regular action g ->
    tg, in the ``InverseAction`` layout over m = len(masks) + p points
    (the masks as given, then G) and the narrowest unsigned dtype
    holding m.  As every mask holds e, tE is in the family iff t^-1 is
    in E, so one 2^p lookup from mask to place, m elsewhere, reads both."""
    import numpy as np
    p, m = group.order, len(masks) + group.order
    place = np.full(1 << p, m)
    place[masks] = np.arange(len(masks))
    rows = np.hstack([place[_translates(group)[:, masks]], m - p + np.array(group.table), np.full((p, 1), m)])
    return rows.astype(np.min_scalar_type(m))


def _closure_tree(right: np.ndarray, unit_idx: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Breadth-first closure of the unit under right multiplication by
    the generators, read off right[x, k] = x * gens[k]: (layers, via,
    parent), layers[0] = [unit], then the new elements of each layer's
    products, ascending.  Each x but the unit is reached at its first
    product x' * gens[via[x]], x'-major, x' = parent[x]; -1 elsewhere."""
    import numpy as np
    n = len(right)
    via, parent = np.full(n, -1), np.full(n, -1)
    layers = [np.array([unit_idx])]
    while (frontier := layers[-1]).size:
        found, first = np.unique(right[frontier].ravel(), return_index=True)
        new = (via[found] < 0) & (found != unit_idx)
        found, first = found[new], first[new]
        parent[found], via[found] = np.divmod(first, right.shape[1])
        parent[found] = frontier[parent[found]]
        layers.append(found)
    return layers[:-1], via, parent


def _tree_keys_agree(factors: tuple, gen_rows: np.ndarray, via: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Check (c) of :func:`_bernoulli_check`: for each x = x' * a of the
    tree (via[x] >= 0, x' = parent[x], row a = gen_rows[via[x]]), in
    order, whether K[x] = K[x'][row a], K[x] = M[c(x)] | L[x] for
    ``factors`` = (M, c, L).  With A = M[c(x)] and B = M[c(x')][row a],
    that is A[y] | L[x] = B[y] | L[x'] for all y, which holds at a bit
    iff: if only L[x] has it, every B[y] has it, so AND_y B does; if
    only L[x'] has it, AND_y A does; if neither has it, A[y] and B[y]
    agree there, so OR_y (A ^ B) lacks it; if both have it, always.  A
    and B depend only on the class (c(x), c(x'), a), at most p^2 on
    S(G): each is built and reduced once, in blocks of about SCAN_BYTES,
    then every x is decided at once, O(p^2 n) work."""
    import numpy as np
    moved, cls, left = factors
    x = np.flatnonzero(via >= 0)
    classes, of_x = np.unique((cls[x] * len(moved) + cls[parent[x]]) * len(gen_rows) + via[x], return_inverse=True)
    c_x, c_parent, a = np.unravel_index(classes, (len(moved), len(moved), len(gen_rows)))
    reduced = np.empty((3, classes.size), dtype=moved.dtype)  # AND_y A, AND_y B, OR_y (A ^ B)
    step = max(1, SCAN_BYTES // (8 * moved.shape[1]))  # classes per block, by their int64 gather indices
    for lo in range(0, classes.size, step):
        at = slice(lo, lo + step)
        A, B = moved[c_x[at]], _gather(moved[c_parent[at]], gen_rows[a[at]])
        np.bitwise_and.reduce(A, axis=1, out=reduced[0, at])
        np.bitwise_and.reduce(B, axis=1, out=reduced[1, at])
        np.bitwise_or.reduce(np.bitwise_xor(A, B, out=A), axis=1, out=reduced[2, at])
    (and_a, and_b, or_ab), lx, lp = reduced[:, of_x], left[x], left[parent[x]]
    return ((lx & ~lp & ~and_b) | (lp & ~lx & ~and_a) | (~(lx | lp) & or_ab)) == 0


def _bernoulli_check(
    group: FiniteGroup, rows: Callable, factors: tuple, gens: np.ndarray, layers: list, via: np.ndarray, parent: np.ndarray
) -> int | None:
    """Certify the table of the row source ``rows`` and ``factors`` (of
    :func:`_products`) associative through a model phi of S(G) built
    from the group alone, never read off the table: the number of
    entries read, or None when a check fails (which does not make the
    table non-associative).  ``layers``, ``via`` and ``parent`` are a
    :func:`_closure_tree` of ``gens`` reaching every element.

    phi is the :func:`_extension_rows` of the :func:`_bernoulli_rows` on
    m = 2p - 1 points: the sets G - {g}, g != e ascending, which E -> tE
    keeps, sending G - {g} to G - {tg} unless tg = e; then the group, g
    -> tg.  Row (F, s) is defined at G - {g} iff g is not in s^-1 F,
    and sends 0 to s0, so its first p entries tell every (F, s) apart.

    (a) phi[unit] is the identity and unit * y = y; (b) phi(ay) =
    phi(a) o phi(y) for every generator a and every y; (c) for every x
    = x' * a of the tree, x' earlier, row x of the table is row x'
    composed with row a, xy = x'(ay) for every y; (d) the rows of phi
    are pairwise distinct.  By induction on the depth of x, phi(xy) =
    phi(x) o phi(y) for every y: at the unit by (a), and for x = x' * a
    by (c), induction, (b) and induction at y = a, phi(x'(ay)) =
    phi(x') o phi(a) o phi(y) = phi(x) o phi(y).  So phi((xy)z) =
    phi(x) o phi(y) o phi(z) = phi(x(yz)), and (d) gives (xy)z = x(yz).

    (c) is :func:`_tree_keys_agree` on ``factors``, which ``rows`` looks
    up, so row x = row x' o row a; the unit's and generator rows come
    from ``rows``, which raises on a product outside the list, so no row
    holds the marker n.  Entries read: n^2 products, each decided once in
    (a) or (c); p n composites of m + 1 entries in (b); n p in (d).
    """
    import numpy as np
    p = group.order
    co_singletons = [(1 << p) - 1 ^ 1 << g for g in group.elements() if g != group.identity]  # G - {g}
    phi = _extension_rows(group, _bernoulli_rows(group, co_singletons))
    n, width = phi.shape
    looked_up = rows(np.array([*layers[0], *gens]), np.empty((1 + len(gens), n), dtype=np.min_scalar_type(n)))
    unit_row, gen_rows = looked_up[0], looked_up[1:]
    if not (np.array_equal(phi[layers[0][0]], np.arange(width)) and np.array_equal(unit_row, np.arange(n))):  # (a)
        return None

    if not _tree_keys_agree(factors, gen_rows, via, parent).all():  # (c)
        return None
    # (b) every row of phi, as intp once, composed with every generator
    images = phi.astype(np.intp)
    if not all(np.array_equal(phi[a_row], phi[a][images]) for a, a_row in zip(gens, gen_rows)):
        return None
    # (d) the first p columns, sorted, have no two equal rows
    probes = phi[np.lexsort(phi[:, :p].T), :p]
    if not (probes[1:] != probes[:-1]).any(axis=1).all():
        return None
    return n * n + len(gens) * n * width + n * p


def _associativity(
    group: FiniteGroup, name: Callable, gens: np.ndarray, rows: Callable, factors: tuple, product: Callable, unit_idx: int
) -> CheckResult:
    """The associativity check of :func:`verify_inverse_semigroup` on the
    ``rows``, ``factors`` and ``product`` of :func:`_products` and the
    ``gens`` of :func:`_generator_rows`; ``name(i)`` is element i, for a
    witness.  A generation scan, the certificate's one
    :func:`_closure_tree`, closes the unit under right multiplication by
    the generators A = {[t] : t in G}, p lookups per element reached; an
    unreached element is the counterexample.  Then :func:`_bernoulli_check`
    certifies the table along that tree.  If it cannot, Light's test
    decides: as A generates, (xa)y = x(ay) for all x, y and a in A
    certifies it, and the first failing (x, a, y), a-major, is the
    counterexample.  Per a, it builds the rows x in blocks of about
    SCAN_BYTES, then the rows xa, and compares row xa with row x composed
    with row a.  ``checked`` counts the generation lookups, then the
    model's reads or n^2 per generator scanned.
    """
    import numpy as np
    n = len(factors[1])  # c: one class per element
    layers, via, parent = _closure_tree(product(np.arange(n)[:, None], gens), unit_idx)
    reached = (via >= 0) | (np.arange(n) == unit_idx)
    count = len(gens) * int(reached.sum())
    if not reached.all():
        return CheckResult("associativity", False, count, (name(np.argmin(reached)),))
    model = _bernoulli_check(group, rows, factors, gens, layers, via, parent)
    if model is not None:
        return CheckResult("associativity", True, count + model)
    dtype = np.min_scalar_type(n)
    gen_rows = rows(gens, np.empty((len(gens), n), dtype=dtype))
    step = max(1, SCAN_BYTES // (dtype.itemsize * n))  # rows per block
    x_rows, xa_rows = np.empty((2, min(step, n), n), dtype=dtype)
    for a, a_row in zip(gens, gen_rows):
        count += n * n
        for lo in range(0, n, step):
            x = rows(np.arange(lo, min(lo + step, n)), x_rows)[: n - lo]
            left = rows(x[:, a], xa_rows)[: len(x)]  # (xa)y
            right = x.take(a_row, axis=1)  # x(ay)
            if not np.array_equal(left, right):
                x, y = map(int, np.argwhere(left != right)[0])
                return CheckResult("associativity", False, count, (name(lo + x), name(a), name(y)))
    return CheckResult("associativity", True, count)


def _inverse_scan(name: Callable, rows: Callable, product: Callable, star_idx: np.ndarray) -> CheckResult:
    """The unique-inverses scan on the ``rows``, ``product`` and ``star``
    of :func:`_products`, ``name`` as in :func:`_associativity`: for
    each a exactly one b with a b a == a and b a b == b, and that b is
    a*.  Per block of a, about SCAN_BYTES of intp, (ab)a == a from the
    rows ab and (ba)b == b from the column ba.  The first failing a is
    the counterexample, with every inverse it has; n^2 cases."""
    import numpy as np
    ids = np.arange(n := len(star_idx))
    step = max(1, SCAN_BYTES // (ids.itemsize * n))  # rows a per block
    ab = np.empty((min(step, n), n), dtype=np.min_scalar_type(n))
    for lo in range(0, n, step):
        a = ids[lo : lo + step]
        inverse = product(rows(a, ab)[: len(a)], a[:, None]) == a[:, None]  # (ab)a == a
        inverse &= (product(product(ids[:, None], a), ids[:, None]) == ids[:, None]).T  # (ba)b == b
        inverse[ids[: len(a)], star_idx[a]] ^= True  # now a row is all False iff a* is the one inverse of a
        fails = np.flatnonzero(inverse.any(axis=1))
        if fails.size:
            r = int(fails[0])
            inverse[r, star_idx[lo + r]] ^= True
            witnesses = [name(j) for j in np.flatnonzero(inverse[r])]
            return CheckResult("unique inverses", False, n * n, (name(lo + r), witnesses))
    return CheckResult("unique inverses", True, n * n)


def verify_inverse_semigroup(
    group: FiniteGroup, cap: int = DEFAULT_ENUMERATION_CAP, seed: int = 0
) -> SemigroupReport:
    """Exhaustive certification that the enumerated structure is an inverse
    semigroup; ``seed`` is accepted and ignored.  Every check reads the rows
    and products of :func:`_products` on the arrays of :func:`_canonical`,
    none a table; an SgElement only names a witness.  Associativity is
    :func:`_associativity`: a generation scan from the unit, then S(G)'s
    action on the 2p - 1 points G - {g} (g != e) and G along the same
    closure tree, with Light's test to find the witness when that model
    cannot certify the table.  The involution identities a a* a = a and
    a* a a* = a* scan every case.  With ``factors`` (M, c, L), ij is the
    element of key M[c(i)][j] | L[i]: so if the idempotents share one class
    c and M[c][f] = L[f] | M[c][unit] for each, ef and fe have the one key
    L[e] | L[f] | M[c][unit], and all |E|^2 pairs commute, in O(|E|).  On
    S(G), c = e and M[e][f] = L[f] | e, the key of e.f = f.  Else (a served
    table has one class per element) the pairs are scanned in blocks of
    rows, the first failing one, row-major, the witness.  Unique inverses
    follow from those three: if b and c are inverses of a, then ba, ca,
    ab and ac are idempotents, so b = bab = (ba)(ca)b = (ca)(ba)b = cab
    and c = cac = c(ab)(ac) = c(ac)(ab) = cab; and a* is one inverse of
    a.  So when all three pass, unique inverses passes on the cases it
    rests on, the n involution cases and the idempotent pairs (n +
    4^(p-1) on S(G)); otherwise :func:`_inverse_scan` decides.
    """
    import numpy as np
    _check_cap(group, cap)
    supports, degrees = _canonical(group)
    name = lambda i: SgElement._trusted(group, int(supports[i]), int(degrees[i]))
    rows, factors, product, star_idx, unit_idx = _products(group, supports, degrees)
    assoc = _associativity(group, name, _generator_rows(group, supports, degrees), rows, factors, product, unit_idx)

    # a a* a == a  and  a* a a* == a*
    idx = np.arange(n := len(degrees))
    both = (product(product(idx, star_idx), idx) == idx) & (product(product(star_idx, idx), star_idx) == star_idx)
    bad = (name(np.flatnonzero(~both)[0]),) if not both.all() else None
    invol = CheckResult("involution identities", bad is None, n, bad)

    # idempotents commute pairwise: at once in one class, else per block of rows ef, e >= lo, against the columns fe
    (moved, cls, left), idem = factors, np.flatnonzero(product(idx, idx) == idx)
    c, step, bad = cls[idem[:1]], max(1, SCAN_BYTES // (star_idx.itemsize * max(idem.size, 1))), None
    one_class = (cls[idem] == c).all() and (moved[c, idem] == left[idem] | moved[c, unit_idx]).all()
    for lo in range(0, 0 if one_class else idem.size, step):
        e, rest = idem[lo : lo + step], idem[lo:]
        fails = np.argwhere(product(e[:, None], rest) != product(rest[:, None], e).T)
        if fails.size:  # the first in row-major order: a failing pair below the diagonal has its mirror above
            bad = (name(e[fails[0, 0]]), name(rest[fails[0, 1]]))
            break
    commute = CheckResult("idempotents commute", bad is None, int(idem.size) ** 2, bad)

    if assoc.passed and invol.passed and commute.passed:
        unique = CheckResult("unique inverses", True, invol.checked + commute.checked)
    else:
        unique = _inverse_scan(name, rows, product, star_idx)
    return SemigroupReport(group.order, n, [assoc, invol, unique, commute])


def _gather(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Two stacks of index rows composed row by row, f[h], broadcasting
    over all axes but the last as ``np.matmul`` does over stacks."""
    import numpy as np
    starts = np.arange(0, f.size, f.shape[-1]).reshape(*f.shape[:-1], 1)  # of each row of f, flat
    return f.ravel()[starts + h]


def _stacked_laws(
    group: FiniteGroup,
    images: np.ndarray,
    compose: Callable = _gather,
    distance: Callable = lambda x, y: (x != y).any(axis=-1),
    derived: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The partial-representation identities of the p stacked ``images``:
    the (p, p) float arrays, s-major, of the distance of
    (f(s)f(t))f(t^-1) from f(st)f(t^-1) (the triple law) and of
    (f(s^-1)f(s))f(t) from f(s^-1)f(st) (the derived law), the latter
    None unless ``derived``.  ``compose(f, h)`` composes two stacks image
    by image, broadcasting as ``np.matmul`` does: :func:`_gather` of
    index rows (the ``InverseAction`` layout) by default,
    ``reps._matmul`` for matrices, ``mul`` on boxed objects in
    :func:`_checked_boxes`; ``distance`` maps two stacks to
    the distances of their images, by default 1.0 where two index rows
    differ.  Rows s run in blocks whose p pairs of images take about
    SCAN_BYTES; per block, the triple law composes three stacks and the
    derived law three."""
    import numpy as np
    p = group.order
    mul, inv = np.array(group.table), np.array(group.inverses)
    after_t, undo_t = images[None], images[inv][None]  # f(t) and f(t^-1), one column each
    laws = np.empty((1 + derived, p, p))  # the triple law's distances, then the derived law's
    step = max(1, SCAN_BYTES // max(p * images[:1].nbytes, 1))  # rows s per block
    for lo in range(0, p, step):
        s = np.arange(lo, min(p, lo + step))
        f_s, f_st = images[s][:, None], images[mul[s]]
        laws[0, s] = distance(compose(compose(f_s, after_t), undo_t), compose(f_st, undo_t))
        if derived:
            undo_s = images[inv[s]][:, None]
            laws[1, s] = distance(compose(compose(undo_s, f_s), after_t), compose(undo_s, f_st))
    return laws[0], laws[1] if derived else None


class _Box:
    """One value of a Python target as one entry of an object array,
    which numpy would unpack into its items were it a tuple or a list."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


def _checked_boxes(group: FiniteGroup, images: Mapping[int, T], mul: Callable[[T, T], T]) -> tuple[np.ndarray, Callable]:
    """:func:`check_extension_conditions` on the p images boxed as one
    object array: (boxes, compose) for :func:`_extension_rows`, where
    ``compose`` is ``mul`` on two stacks of boxes."""
    import numpy as np
    missing = [t for t in group.elements() if t not in images]
    if missing:
        raise ValueError(f"no image of the group element {missing[0]}")
    boxes = np.array([_Box(images[t]) for t in group.elements()])
    compose = np.frompyfunc(lambda f, h: _Box(mul(f.value, h.value)), 2, 1)
    distance = np.frompyfunc(lambda f, h: bool(f.value != h.value), 2, 1)
    e = group.identity
    unit = distance(compose(boxes, boxes[e]), boxes).astype(bool)
    triple, derived = _stacked_laws(group, boxes, compose, distance)
    bad = np.flatnonzero(unit | derived.any(axis=1) | triple.any(axis=1))
    if bad.size:
        s = int(bad[0])
        if unit[s]:
            raise ConditionsViolated(f"f({s})f({e}) != f({s})", (s, e))
        t = int(np.flatnonzero(derived[s] + triple[s])[0])  # the first t where either law fails
        s_inv, t_inv = group.inv(s), group.inv(t)
        if derived[s, t]:
            raise ConditionsViolated(f"f({s_inv})f({s})f({t}) != f({s_inv})f({s}*{t})", (s, t))
        raise ConditionsViolated(f"f({s})f({t})f({t_inv}) != f({s}*{t})f({t_inv})", (s, t))
    return boxes, compose


def check_extension_conditions(
    group: FiniteGroup, images: Mapping[int, T], mul: Callable[[T, T], T]
) -> None:
    """Check the identities a generator map must satisfy before it
    extends to the whole semigroup; raise ConditionsViolated on the
    first failure: per s, the unit law f(s)f(e) = f(s), then per t the
    derived law and the triple-product law (see :func:`_stacked_laws`).
    ValueError names the first element without an image, before any
    product; else ``mul`` runs 5p^2 + 2p times, on every pair even
    after a failure."""
    _checked_boxes(group, images, mul)


def universal_extension(
    group: FiniteGroup, images: Mapping[int, T], mul: Callable[[T, T], T]
) -> Callable[[SgElement], T]:
    """Extend a generator map into any semigroup to the full semigroup.

    ``images`` sends each group element to the target; ``mul`` is the
    target's multiplication.  Eager: raises CapExceeded past
    DEFAULT_ENUMERATION_CAP before any product, checks the extension
    conditions, then computes every image by :func:`_extension_rows`, at
    most p + 2^(p-1) + n products when the identity has index 0.  The
    returned map looks an element's image up.
    """
    _check_cap(group, DEFAULT_ENUMERATION_CAP)
    boxes, compose = _checked_boxes(group, images, mul)
    keys = zip(*(a.tolist() for a in _canonical(group)))  # (support, degree) in enumerate_semigroup's order
    table = {key: box.value for key, box in zip(keys, _extension_rows(group, boxes, compose))}

    def extended(a: SgElement) -> T:
        if a.group != group:
            raise ValueError("element belongs to a different group")
        return table[a.support, a.degree]

    return extended


def _exact_certificate(rows: np.ndarray, worst: float) -> float | None:
    """The :func:`_worst_pair` certificate of an exact table, whose
    integer images multiply exactly and so associatively: if its
    generator rows pass, f(bx) = f(b)f(x) for every b by induction on
    word length, so 0.0; else None."""
    return None if worst else 0.0


def _worst_pair(
    table: Mapping[SgElement, T],
    images: np.ndarray,
    compose: Callable = _gather,
    distance: Callable = lambda x, y: (x != y).any(axis=-1),
    certify: Callable[[np.ndarray, float], float | None] | None = None,
) -> tuple[float, tuple[SgElement, SgElement] | None]:
    """Multiplicativity of a table over a closed set of elements.

    The largest distance of f(ab) from f(a)f(b) and the first pair
    (a, b), in the table's order row by row, attaining it; (0.0, None)
    when every distance is 0.  ``images`` stacks the table's images in
    its order; ``compose`` and ``distance`` act on stacks as in
    :func:`_stacked_laws`, by default a gather of index rows and True
    where two differ.  The products of row a are looked up
    (:func:`_products`, p rows at a time) when the scan reaches it; its
    columns b run in blocks whose images take about SCAN_BYTES, each
    one ``compose`` of f(a) with a slice of the stack and one
    ``distance`` from the gathered f(ab).  A boolean distance stops the
    scan at its first True pair, which attains the maximum.  Private,
    so a trace charges the scan to its caller.

    S(G) is generated by the generators [t].  So if the table holds all
    p of them, ``certify(rows, worst)`` is given their row indices and
    the largest distance on those rows, and may return a bound b on
    every distance: then (b, None) is the answer, from p rows (see
    :func:`_exact_certificate` and ``reps._product_bound``).  Otherwise,
    or on None, or if a row raises ValueError (a non-finite product,
    say), the full scan runs, and raises where it first meets the error.
    """
    import numpy as np
    elements = list(table)
    group, n = elements[0].group, len(elements)
    supports, degrees = _element_arrays(elements)
    products, _, _, star, _ = _products(group, supports, degrees)
    targets = np.empty((group.order, n), dtype=star.dtype)  # the products of up to p rows
    width = min(n, max(1, SCAN_BYTES // max(images[:1].nbytes, 1)))

    def scan(rows: np.ndarray) -> tuple[float, tuple[SgElement, SgElement] | None]:
        worst, witness = 0.0, None
        for first in range(0, len(rows), len(targets)):
            block = rows[first : first + len(targets)]
            for a, row in zip(block, products(block, targets)):
                for lo in range(0, n, width):
                    d = distance(images[row[lo : lo + width]], compose(images[a], images[lo : lo + width]))
                    j = int(np.argmax(d))
                    if d[j] > worst:
                        worst, witness = float(d[j]), (elements[a], elements[lo + j])
                        if d.dtype == bool:
                            return worst, witness
        return worst, witness

    rows = _generator_rows(group, supports, degrees) if certify else []
    if len(rows) == group.order:
        try:
            bound = certify(rows, scan(rows)[0])
        except ValueError:  # the full scan below raises it where it first occurs
            bound = None
        if bound is not None:
            return bound, None
    return scan(np.arange(n))


def idempotent_elements(group: FiniteGroup) -> list[SgElement]:
    """All idempotents: exactly the degree-identity elements."""
    return [a for a in enumerate_semigroup(group) if a.is_idempotent()]


def element_to_dict(a: SgElement) -> dict:
    """JSON encoding: {"support": [indices], "degree": index}."""
    return {"support": sorted(a.support_set()), "degree": a.degree}


def element_from_dict(group: FiniteGroup, data: Mapping) -> SgElement:
    mask = 0
    for i in data["support"]:
        mask |= 1 << int(i)
    return SgElement(group, mask, int(data["degree"]))
