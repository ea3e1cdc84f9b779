"""Graded subspaces of a monomial-basis algebra as exact index sets.

Because every product of basis monomials is again a basis monomial,
the linear span of a set of monomials is described exactly by its set
of basis indices, and the span-of-products of two such subspaces is
again one.  That turns the lattice of grading-generated subspaces into
finite combinatorics: products are index-set images under the
multiplication table, and closures terminate.  A subspace used as a
right operand keeps one Python-int bitmask per basis row, row i marking
the images of b_i times its monomials; a product ORs the rows of its
left operand's indices into its own mask, whose set bits are its
indices.  A closure keys its subspaces by mask, decoding only new ones.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .algebra import StructureAlgebra
from .semigroup import SCAN_BYTES, SgElement


@dataclass(frozen=True)
class GradedSubspace:
    """Span of a set of basis monomials, named by their indices."""

    algebra: StructureAlgebra
    indices: frozenset[int]

    def __mul__(self, other: GradedSubspace) -> GradedSubspace:
        return subspace_product(self, other)

    @functools.cached_property
    def _rows(self) -> list[int]:
        """Row masks, built on the first product with this subspace on
        the right and kept: derived data, outside equality and the hash."""
        return _row_masks(self.algebra, self.indices)

    def star(self) -> GradedSubspace:
        """Elementwise involution of the spanning monomials."""
        return GradedSubspace(self.algebra, frozenset(self.algebra.star[_array(self.indices)].tolist()))

    def degrees(self) -> frozenset[int]:
        """Degrees of the member monomials (one element for graded pieces)."""
        return frozenset(self.algebra.basis[i].degree for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"GradedSubspace({sorted(self.indices)})"


def _array(indices: frozenset[int]) -> np.ndarray:
    return np.fromiter(indices, dtype=np.intp, count=len(indices))


def _row_masks(a: StructureAlgebra, indices: frozenset[int]) -> list[int]:
    """Row mask i has bit k set iff k = mult[i, j] for some j in
    ``indices``.  Per block of rows: one gather, offset row by row and
    scattered into a flat boolean array, packed to bytes, one int per
    row; a block's temporaries take about SCAN_BYTES."""
    dim = a.dim
    cols = _array(indices)
    width = (dim + 7) // 8  # bytes per packed row
    step = max(1, SCAN_BYTES // (dim + 8 * len(cols)))  # rows per block
    masks: list[int] = []
    for lo in range(0, dim, step):
        count = min(step, dim - lo)
        images = a.mult[lo : lo + step, cols] + dim * np.arange(count)[:, None]  # an intp sum: no wrap
        hit = np.zeros(count * dim, dtype=bool)
        hit[images] = True
        packed = np.packbits(hit.reshape(count, dim), axis=1, bitorder="little").tobytes()
        masks.extend(int.from_bytes(packed[k : k + width], "little") for k in range(0, len(packed), width))
    return masks


def _set_bits(mask: int) -> frozenset[int]:
    """Positions of the set bits, cleared from the top one at a time."""
    bits = []
    while mask:
        k = mask.bit_length() - 1
        bits.append(k)
        mask ^= 1 << k
    return frozenset(bits)


def _product_mask(x: GradedSubspace, y: GradedSubspace) -> int:
    """Bitmask of x·y: the OR of y's row masks at x's indices."""
    if x.algebra is not y.algebra:
        raise ValueError("subspaces live in different algebras")
    return functools.reduce(operator.or_, map(y._rows.__getitem__, x.indices), 0)


def subspace_product(x: GradedSubspace, y: GradedSubspace) -> GradedSubspace:
    """Exact span of pairwise products: the image of the index sets
    under the multiplication table, decoded from the product's mask."""
    return GradedSubspace(x.algebra, _set_bits(_product_mask(x, y)))


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

    Worklist algorithm: multiply each subspace, in the order found, on
    the right by every generator until nothing new appears; terminates
    because index sets live in a finite power set.  One side is enough
    when the algebra's ``mult`` is associative, as it is for
    ``build_algebra`` and ``group_algebra``: then the subspace product
    is associative too, every product g1...gk equals (g1...gk-1)gk, and
    g1...gk-1 was found earlier.  Subspaces are keyed by bitmask, and
    only a new product's set bits are read.
    """
    gens = list(pieces.values()) if isinstance(pieces, Mapping) else list(pieces)
    found = {sum(1 << i for i in g.indices): g for g in gens}
    queue = list(found.values())
    for x in queue:  # grows while it is read
        for g in gens:
            mask = _product_mask(x, g)
            if mask not in found:
                found[mask] = GradedSubspace(x.algebra, _set_bits(mask))
                queue.append(found[mask])
    return set(queue)


def element_subspace(a: StructureAlgebra, elem: SgElement) -> GradedSubspace:
    """The subspace the closure attaches to one semigroup element: the
    span of the monomials b <= elem in the natural partial order.

    The map elem -> element_subspace is an injective semigroup
    homomorphism onto the closure of the grading pieces.  One array test
    over the basis, read off the tables: b <= elem iff b = (b b*) elem,
    that is, b has elem's degree and a support containing elem's.
    """
    if elem not in a.index:  # another group's element, or any element of a group algebra
        raise ValueError(f"{elem!r} is not a basis element of the algebra")
    idx = np.arange(a.dim)
    below = a.mult[a.mult[idx, a.star], a.index[elem]] == idx
    return GradedSubspace(a, frozenset(np.flatnonzero(below).tolist()))
