"""Graded subspaces of a monomial-basis algebra as exact index sets.

Because every product of basis monomials is again a basis monomial,
the linear span of a set of monomials is described exactly by its set
of basis indices, and the span-of-products of two such subspaces is
again one.  That turns the lattice of grading-generated subspaces into
finite combinatorics: products are index-set images under the
multiplication table, and closures terminate.  A right operand keeps
one (dim, ceil(dim / 64)) uint64 array of row masks, row i marking the
images of b_i times its monomials; one batched product ORs the rows at
the indices of many left operands, once per layer of a closure.
"""

from __future__ import annotations

import functools
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
    def _rows(self) -> np.ndarray:
        """Row masks, built on the first product with this subspace on
        the right and kept: derived data, outside equality and the hash."""
        return _row_masks(self.algebra, self.indices)

    def star(self) -> GradedSubspace:
        """Elementwise involution of the spanning monomials."""
        return GradedSubspace(self.algebra, frozenset(self.algebra.star[_array(self.indices)].tolist()))

    def degrees(self) -> frozenset[int]:
        """Degrees of the member monomials (one element for graded pieces)."""
        return frozenset(getattr(self.algebra.basis[i], "degree", i) for i in self.indices)  # as in grading

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"GradedSubspace({sorted(self.indices)})"


def _array(indices: frozenset[int]) -> np.ndarray:
    return np.fromiter(indices, dtype=np.intp, count=len(indices))


def _row_masks(a: StructureAlgebra, indices: frozenset[int]) -> np.ndarray:
    """Row mask i has bit k set iff k = mult[i, j] for some j in ``indices``;
    blocks of rows set their images in about SCAN_BYTES of booleans."""
    cols, bits = _array(indices), -(-a.dim // 64) * 64
    step = max(1, SCAN_BYTES // (bits + 8 * len(cols)))  # rows per block
    masks = np.empty((a.dim, bits // 64), dtype=np.uint64)
    for lo in range(0, a.dim, step):
        hit = np.zeros((min(step, a.dim - lo), bits), dtype=bool)
        hit.ravel()[a.mult[lo : lo + step, cols] + bits * np.arange(len(hit))[:, None]] = True  # an intp sum: no wrap
        masks[lo : lo + step] = np.packbits(hit, axis=1, bitorder="little").view(np.uint64)
    return masks


def _batched_product(rows: list[np.ndarray], seg: np.ndarray, idx: np.ndarray, count: int) -> np.ndarray:
    """(len(rows), count, W) masks of x·y: for each y, given by its row
    masks, and each of ``count`` x, the OR of y's rows at x's indices
    (zero if x is empty), where ``idx`` concatenates the x's indices and
    seg[k], ascending, is the x of idx[k].  Blocks of about SCAN_BYTES per y."""
    out = np.zeros((len(rows), count, rows[0].shape[1]), dtype=np.uint64)
    step = max(1, SCAN_BYTES // rows[0][:1].nbytes)
    for lo in range(0, len(idx), step):
        s, block = seg[lo : lo + step], idx[lo : lo + step]
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
        heads = s[starts]
        for o, r in zip(out, rows):
            o[heads] |= np.bitwise_or.reduceat(r[block], starts, axis=0)
    return out


def _decode(masks: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, list[frozenset[int]]]:
    """The set bits of (k, W) ``masks``, one ``unpackbits`` of the nonzero
    words: as the (seg, idx) of :func:`_batched_product`, and as k sets."""
    row, word = np.nonzero(masks)
    at, bit = np.nonzero(np.unpackbits(masks[row, word].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"))
    seg, idx = row[at], word[at] * 64 + bit
    ends, cols = np.bincount(seg, minlength=len(masks)).cumsum().tolist(), idx.tolist()
    return seg, idx, [frozenset(cols[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def subspace_product(x: GradedSubspace, y: GradedSubspace) -> GradedSubspace:
    """Exact span of pairwise products: the image of the index sets
    under the multiplication table, decoded from the product's mask."""
    if x.algebra is not y.algebra:
        raise ValueError("subspaces live in different algebras")
    masks = _batched_product([y._rows], np.zeros(len(x), dtype=np.intp), _array(x.indices), 1)
    return GradedSubspace(x.algebra, _decode(masks[0], x.algebra.dim)[2][0])


def grading(a: StructureAlgebra) -> dict[int, GradedSubspace]:
    """The degree grading: piece t spans the monomials of degree t.

    The pieces partition the basis; piece sizes are 2^(p-1) at the
    identity and 2^(p-2) elsewhere, and 1 in a group algebra.
    """
    pieces: dict[int, set[int]] = {t: set() for t in a.group.elements()}
    for i, b in enumerate(a.basis):
        pieces[getattr(b, "degree", b)].add(i)  # a group algebra's basis is its group's indices
    return {t: GradedSubspace(a, frozenset(ix)) for t, ix in pieces.items()}


def generated_semigroup(
    pieces: Mapping[int, GradedSubspace] | Iterable[GradedSubspace],
) -> set[GradedSubspace]:
    """Closure of the given subspaces under the subspace product.

    Layer by layer, from the distinct generators: one batched product
    multiplies a layer on the right by every generator, and the new
    masks among the products, keyed by their exact bytes, are decoded
    together as the next layer.  Right products are enough when ``mult``
    is associative, as for ``build_algebra`` and ``group_algebra``:
    then g1...gk = (g1...gk-1)gk, and g1...gk-1 was found earlier.
    """
    gens = list(dict.fromkeys(pieces.values() if isinstance(pieces, Mapping) else pieces))
    if not gens:
        return set()
    alg = gens[0].algebra
    if any(g.algebra is not alg for g in gens):
        raise ValueError("subspaces live in different algebras")
    rows, key = [g._rows for g in gens], np.dtype((np.void, gens[0]._rows[:1].nbytes))  # a mask's bytes
    found = set(np.stack([r[alg.unit_index] for r in rows]).view(key).ravel().tolist())  # a row at the unit: its own mask
    seg = np.repeat(np.arange(len(gens)), [len(g) for g in gens])
    idx, closure, new = np.concatenate([_array(g.indices) for g in gens]), set(gens), gens
    while new:
        masks = _batched_product(rows, seg, idx, len(new)).reshape(-1, rows[0].shape[1])
        fresh = {m: k for k, m in enumerate(masks.view(key).ravel().tolist()) if m not in found}  # a row of each new mask
        found.update(fresh)
        seg, idx, new = _decode(masks[list(fresh.values())], alg.dim)
        closure.update(GradedSubspace(alg, ix) for ix in new)
    return closure


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
