"""Graded subspaces of a monomial-basis algebra as exact index sets.

Because every product of basis monomials is again a basis monomial,
the linear span of a set of monomials is described exactly by its set
of basis indices, and the span-of-products of two such subspaces is
again one.  That turns the lattice of grading-generated subspaces into
finite combinatorics: products are index-set images under the
multiplication table, and closures terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import StructureAlgebra
from .semigroup import SgElement


@dataclass(frozen=True)
class GradedSubspace:
    """Span of a set of basis monomials, named by their indices."""

    algebra: StructureAlgebra
    indices: frozenset[int]

    def __mul__(self, other: GradedSubspace) -> GradedSubspace:
        return subspace_product(self, other)

    def star(self) -> GradedSubspace:
        """Elementwise involution of the spanning monomials."""
        st = self.algebra.star
        return GradedSubspace(self.algebra, frozenset(int(st[i]) for i in self.indices))

    def degrees(self) -> frozenset[int]:
        """Degrees of the member monomials (one element for graded pieces)."""
        return frozenset(self.algebra.basis[i].degree for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"GradedSubspace({sorted(self.indices)})"


def subspace_product(x: GradedSubspace, y: GradedSubspace) -> GradedSubspace:
    """Exact span of pairwise products: the image of the index sets
    under the multiplication table."""
    if x.algebra is not y.algebra:
        raise ValueError("subspaces live in different algebras")
    mult = x.algebra.mult
    out = {int(mult[i, j]) for i in x.indices for j in y.indices}
    return GradedSubspace(x.algebra, frozenset(out))


def grading(a: StructureAlgebra) -> dict[int, GradedSubspace]:
    """The degree grading: piece t spans the monomials of degree t.

    The pieces partition the basis; piece sizes are 2^(p-1) at the
    identity and 2^(p-2) elsewhere.
    """
    pieces: dict[int, set[int]] = {t: set() for t in a.group.elements()}
    for i, b in enumerate(a.basis):
        pieces[b.degree].add(i)
    return {t: GradedSubspace(a, frozenset(ix)) for t, ix in pieces.items()}


def generated_semigroup(
    pieces: Mapping[int, GradedSubspace] | Iterable[GradedSubspace],
) -> set[GradedSubspace]:
    """Closure of the given subspaces under the subspace product.

    Worklist algorithm: multiply each frontier subspace on the right by
    every generator until nothing new appears; terminates because index
    sets live in a finite power set.  One side is enough when the
    algebra's ``mult`` is associative, as it is for ``build_algebra``
    and ``group_algebra``: then the subspace product is associative too,
    every product g1...gk equals (g1...gk-1)gk, and g1...gk-1 was on an
    earlier frontier.
    """
    gens = list(pieces.values()) if isinstance(pieces, Mapping) else list(pieces)
    found: set[GradedSubspace] = set(gens)
    frontier = list(found)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                candidate = x * g
                if candidate not in found:
                    found.add(candidate)
                    fresh.append(candidate)
        frontier = fresh
    return found


def element_subspace(a: StructureAlgebra, elem: SgElement) -> GradedSubspace:
    """The subspace the closure attaches to one semigroup element:
    monomials of the same degree whose support contains the element's.

    The map elem -> element_subspace is an injective semigroup
    homomorphism onto the closure of the grading pieces.
    """
    want = elem.support
    out = frozenset(
        i
        for i, b in enumerate(a.basis)
        if b.degree == elem.degree and (b.support | want) == b.support
    )
    return GradedSubspace(a, out)
