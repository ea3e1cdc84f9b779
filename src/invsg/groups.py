"""Finite groups as validated Cayley tables.

Elements of a group of order ``p`` are the integers ``0..p-1`` and all
structure lives in dense lookup tables.  Construction checks the full
set of group axioms, which is cheap at the intended scale (orders up to
about 16; everything downstream of the semigroup enumeration caps out
far below that anyway).
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence


class GroupTableError(ValueError):
    """A proposed Cayley table violates one of the group axioms."""


class NotLatinSquare(GroupTableError):
    pass


class NoIdentity(GroupTableError):
    pass


class NoInverse(GroupTableError):
    pass


class NotAssociative(GroupTableError):
    pass


class GroupSpecError(ValueError):
    """Unrecognized builtin group name or unreadable group file."""


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group on the index set ``0..order-1``.

    ``table[a][b]`` is the product ``a*b``.  ``identity`` and
    ``inverses`` are computed during validation.  Instances hash and
    compare by table contents, so independently built copies of the
    same group interoperate; they are safe to share between threads.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # cache the hash: element hashing must not re-hash the table
        object.__setattr__(self, "_hash", hash((self.table, self.identity)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        """Multiplicative order of element ``a``."""
        n, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def left_translate(self, t: int, mask: int) -> int:
        """Image of the subset ``mask`` (a bitmask) under x -> t*x."""
        row = self.table[t]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << row[low.bit_length() - 1]
            mask ^= low
        return out

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order %d' % self.order})"


def from_cayley_table(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Raises :class:`NotLatinSquare`, :class:`NoIdentity`,
    :class:`NoInverse` or :class:`NotAssociative`, naming the violating
    entries.
    """
    rows = tuple(tuple(int(x) for x in row) for row in table)
    p = len(rows)
    if p == 0:
        raise NotLatinSquare("table is empty")
    for a, row in enumerate(rows):
        if len(row) != p:
            raise NotLatinSquare(f"row {a} has length {len(row)}, expected {p}")
        seen: dict[int, int] = {}
        for b, v in enumerate(row):
            if not 0 <= v < p:
                raise NotLatinSquare(f"entry table[{a}][{b}] = {v} out of range [0, {p})")
            if v in seen:
                raise NotLatinSquare(f"row {a} repeats entry {v} at columns {seen[v]} and {b}")
            seen[v] = b
    for b in range(p):
        seen = {}
        for a in range(p):
            v = rows[a][b]
            if v in seen:
                raise NotLatinSquare(f"column {b} repeats entry {v} at rows {seen[v]} and {a}")
            seen[v] = a

    identity = None
    for i in range(p):
        if all(rows[i][b] == b for b in range(p)) and all(rows[a][i] == a for a in range(p)):
            identity = i
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    inverses = []
    for a in range(p):
        inv = rows[a].index(identity)
        if rows[inv][a] != identity:
            raise NoInverse(f"element {a}: right inverse {inv} is not a left inverse")
        inverses.append(inv)

    for a in range(p):
        for b in range(p):
            ab = rows[a][b]
            for c in range(p):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")

    return FiniteGroup(rows, identity, tuple(inverses), name)


def cyclic(n: int, name: str = "") -> FiniteGroup:
    """Cyclic group of order ``n`` written additively mod ``n``."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return from_cayley_table(table, name or f"cyclic:{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with the pairing (a, b) -> a * |g2| + b."""
    p2 = g2.order
    order = g1.order * p2
    table = [[0] * order for _ in range(order)]
    for a1 in g1.elements():
        for b1 in g2.elements():
            x = a1 * p2 + b1
            for a2 in g1.elements():
                for b2 in g2.elements():
                    table[x][a2 * p2 + b2] = g1.mul(a1, a2) * p2 + g2.mul(b1, b2)
    label = name or (f"{g1.name}x{g2.name}" if g1.name and g2.name else "")
    return from_cayley_table(table, label)


def klein_four() -> FiniteGroup:
    """The non-cyclic group of order 4 (every element self-inverse)."""
    return direct_product(cyclic(2), cyclic(2), name="klein4")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order ``2n``: maps x -> s*x + k on Z/nZ, s = +/-1.

    Indices 0..n-1 are the rotations (s = +1, shift k), n..2n-1 the
    reflections (s = -1, shift k).
    """
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")

    def compose(x: int, y: int) -> int:
        s1, k1 = (1, x) if x < n else (-1, x - n)
        s2, k2 = (1, y) if y < n else (-1, y - n)
        s, k = s1 * s2, (s1 * k2 + k1) % n
        return k if s == 1 else n + k

    table = [[compose(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return from_cayley_table(table, f"dihedral:{n}")


def group_to_dict(group: FiniteGroup) -> dict:
    """JSON-ready form of a group: ``{"order": p, "table": [[...], ...]}``."""
    return {"order": group.order, "table": [list(row) for row in group.table]}


def group_from_dict(data: dict, name: str = "") -> FiniteGroup:
    table = data.get("table") if isinstance(data, Mapping) else None
    if not isinstance(table, list):
        raise GroupSpecError("group object must carry a 'table' list")
    if "order" in data and json_value(data["order"], "an integer", "order") != len(table):
        raise GroupSpecError(f"declared order {data['order']} does not match table size {len(table)}")
    return from_cayley_table(json_value(table, "a list of rows of integers", "table"), name)


def load_group(path: str) -> FiniteGroup:
    """Load a group from a JSON file in the ``group_to_dict`` format."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return group_from_dict(data, name=os.path.basename(path))


def group_from_spec(spec: str) -> FiniteGroup:
    """Resolve a group given on the command line.

    A path to an existing JSON file wins over builtin names; builtins
    are ``cyclic:n``, ``klein4`` and ``dihedral:n``.
    """
    if os.path.exists(spec):
        return load_group(spec)
    if spec == "klein4":
        return klein_four()
    kind, _, arg = spec.partition(":")
    if kind in ("cyclic", "dihedral") and arg:
        try:
            n = int(arg)
        except ValueError:
            raise GroupSpecError(f"bad group parameter in {spec!r}") from None
        try:
            return cyclic(n) if kind == "cyclic" else dihedral(n)
        except ValueError as exc:
            raise GroupSpecError(str(exc)) from None
    raise GroupSpecError(
        f"unknown group {spec!r}: expected a JSON file path, 'cyclic:n', 'klein4' or 'dihedral:n'"
    )


def document_group(data: object, keys: Sequence[str]) -> FiniteGroup:
    """The group of a JSON document that carries one.

    Checks that ``data`` is an object holding ``group`` and every key in
    ``keys``, then reads ``group`` as an inline group object or else as
    a :func:`group_from_spec` specifier.  Raises ValueError naming the
    wrong type or the missing keys.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    missing = [key for key in ("group", *keys) if key not in data]
    if missing:
        raise ValueError(f"missing keys {missing}")
    spec = data["group"]
    return group_from_dict(spec) if isinstance(spec, Mapping) else group_from_spec(str(spec))


def _scalar(kind: type) -> Callable[[object], bool]:
    # json.load gives exactly int or float, so test those types first and
    # the ABC (which also admits NumPy scalars) only for other values
    exact = frozenset(t for t in (int, float) if issubclass(t, kind))
    return lambda v: type(v) in exact or (isinstance(v, kind) and not isinstance(v, bool))


def _list_of(item: Callable[[object], bool], length: int | None = None) -> Callable[[object], bool]:
    return lambda v: isinstance(v, list) and length in (None, len(v)) and all(map(item, v))


_JSON_KINDS: dict[str, Callable[[object], bool]] = {
    "an object": lambda v: isinstance(v, Mapping),
    "an integer": _scalar(numbers.Integral),
    "a list of rows of integers": _list_of(_list_of(_scalar(numbers.Integral))),
    "a list of [point, image] pairs": _list_of(_list_of(_scalar(numbers.Integral), 2)),
    "a list of rows of [re, im] pairs": _list_of(_list_of(_list_of(_scalar(numbers.Real), 2))),
}


def json_value(value: object, kind: str, name: str):
    """``value`` if it is ``kind`` (a ``_JSON_KINDS`` key), else ValueError naming field ``name``."""
    if not _JSON_KINDS[kind](value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value
