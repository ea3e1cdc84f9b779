"""The complex semigroup algebra of the enumerated inverse semigroup.

The basis is the enumerated semigroup itself; the product of two basis
elements is a single basis element, so the algebra is described by an
integer multiplication table plus an involution table.  This finite-
dimensional model is what the package means by the "partial group
algebra" of a finite group: its monomial basis multiplies exactly like
the spanning monomials (projection times group shift) of the partial
crossed product, and all block computations happen here.

Finite inverse-semigroup algebras are semisimple, so the numerical
block decomposition works inside the center: the center is the
commutant of the algebra generators, the eigenvectors of a random
central element acting on the center give the central primitive
idempotents, and each block size is read off the trace of left
multiplication by its idempotent, with no rank cut-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .semigroup import (
    CapExceeded,
    enumerate_semigroup,
    generator,
    multiplication_tables,
    order_formula,
)

DEFAULT_DIM_CAP = 1000
NULLSPACE_TOL = 1e-10  # center's null spaces cut singular values at this times the matrix size
BLOCK_TOL = 1e-9  # wedderburn: least relative eigenvalue gap; times dim, most trace integrality error


class EigenvalueClusterAmbiguous(RuntimeError):
    """Two eigenvalues of the random central element sit dangerously
    close; retry with a new seed.  ``relative_gap`` is their distance
    relative to the largest eigenvalue."""

    def __init__(self, message: str, relative_gap: float = float("nan")):
        super().__init__(message)
        self.relative_gap = relative_gap


class NonIntegerBlockDim(RuntimeError):
    """A block dimension failed its integrality check (non-semisimple
    input or a tolerance failure).  ``integrality_error`` is the worst
    distance of a block trace from a perfect square."""

    def __init__(self, message: str, integrality_error: float = float("nan")):
        super().__init__(message)
        self.integrality_error = integrality_error


class RankThresholdBreach(RuntimeError):
    """A singular value fell inside the decision band of a rank cutoff."""


class StructureAlgebra:
    """Basis-indexed algebra: mult[i, j] is the basis index of b_i b_j.

    Built over the enumerated semigroup by :func:`build_algebra`; the
    same shape also carries the plain group algebra for contrast tests
    (see :func:`group_algebra`).  ``generators`` are basis elements that
    generate the algebra together with the unit; they are stored as
    basis indices.  Instances are immutable in use and compare by
    identity.
    """

    def __init__(
        self,
        group: FiniteGroup,
        basis: tuple,
        mult: np.ndarray,
        star: np.ndarray,
        unit_index: int,
        generators: tuple,
    ):
        self.group = group
        self.basis = basis
        self.mult = mult
        self.star = star
        self.unit_index = unit_index
        self.index = {b: i for i, b in enumerate(basis)}
        self.generators = tuple(self.index[g] for g in generators)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit_vector(self, dtype=np.float64) -> np.ndarray:
        v = np.zeros(self.dim, dtype=dtype)
        v[self.unit_index] = 1
        return v

    def basis_vector(self, i: int, dtype=np.float64) -> np.ndarray:
        v = np.zeros(self.dim, dtype=dtype)
        v[i] = 1
        return v


def build_algebra(group: FiniteGroup, cap: int = DEFAULT_DIM_CAP) -> StructureAlgebra:
    """Tables for the semigroup algebra; dimension 2^(p-2)(p+1)."""
    if group.order >= 2 and order_formula(group.order) > cap:
        raise CapExceeded(
            f"algebra dimension {order_formula(group.order)} exceeds cap {cap}"
        )
    elements = enumerate_semigroup(group, cap=group.order)
    mult, star, unit_idx = multiplication_tables(elements)
    generators = tuple(generator(group, t) for t in group.elements() if t != group.identity)
    return StructureAlgebra(group, tuple(elements), mult, star, unit_idx, generators)


def group_algebra(group: FiniteGroup) -> StructureAlgebra:
    """The plain group algebra on the same chassis (basis = group indices)."""
    mult = np.array([list(row) for row in group.table], dtype=np.int64)
    star = np.array(group.inverses, dtype=np.int64)
    elements = tuple(group.elements())
    return StructureAlgebra(group, elements, mult, star, group.identity, elements)


def multiply_elements(a: StructureAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear extension of the basis product to coefficient vectors."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != (a.dim,) or y.shape != (a.dim,):
        raise ValueError("coefficient vectors have the wrong length")
    out = np.zeros(a.dim, dtype=np.result_type(x.dtype, y.dtype))
    prod = np.outer(x, y)
    np.add.at(out, a.mult.ravel(), prod.ravel())
    return out


def left_regular_matrix(a: StructureAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by x in the monomial basis."""
    x = np.asarray(x)
    if x.shape != (a.dim,):
        raise ValueError("coefficient vector has the wrong length")
    n = a.dim
    flat = (a.mult * n + np.arange(n)).ravel()  # entry (basis_i basis_j, j) gets x_i
    out = np.empty((n, n), dtype=np.result_type(x.dtype, np.float64))
    out.real = np.bincount(flat, weights=np.repeat(x.real, n), minlength=n * n).reshape(n, n)
    if np.iscomplexobj(x):  # bincount takes real weights only
        out.imag = np.bincount(flat, weights=np.repeat(x.imag, n), minlength=n * n).reshape(n, n)
    return out


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space, with a guard band
    around the singular-value cutoff ``NULLSPACE_TOL`` times the size."""
    if m.size == 0:
        return np.eye(m.shape[1])
    _, svals, vt = np.linalg.svd(m)
    cutoff = NULLSPACE_TOL * max(m.shape)
    in_band = (svals > cutoff / 10) & (svals < cutoff * 10)
    if np.any(in_band):
        raise RankThresholdBreach(
            f"singular value {svals[in_band][0]:.3e} inside the cutoff band around {cutoff:.3e}"
        )
    rank = int(np.sum(svals > cutoff))
    return vt[rank:].conj().T


def center(a: StructureAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center.

    An element is central exactly when it commutes with a generating set,
    so this intersects the null spaces of the commutator maps
    z -> z g - g z over the generators g of ``a`` only, one generator at
    a time; the running basis stays orthonormal, so the result needs no
    further orthogonalization.
    """
    n = a.dim
    cols = np.arange(n)
    k = np.eye(n)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for i in a.generators:
            left = np.zeros((n, n))
            left[a.mult[i, :], cols] = 1.0          # g * z
            right = np.zeros((n, n))
            right[a.mult[:, i], cols] = 1.0         # z * g
            k = k @ _nullspace((right - left) @ k)
    return [k[:, j].copy() for j in range(k.shape[1])]


@dataclass
class BlockDecomposition:
    """Sorted matrix-block sizes with the matching central primitive
    idempotents and eigenvalues of the random central element."""

    blocks: tuple[int, ...]
    idempotents: list[np.ndarray]
    eigenvalues: tuple[complex, ...]
    residual: float

    @property
    def dimension(self) -> int:
        return int(sum(b * b for b in self.blocks))

    def describe(self) -> str:
        return (
            f"blocks {list(self.blocks)}; {len(self.blocks)} summands; "
            f"residual {self.residual:.3e}"
        )


def wedderburn(a: StructureAlgebra, seed: int = 0) -> BlockDecomposition:
    """Numerical block decomposition of a (semisimple) structure algebra.

    Everything happens inside the k-dimensional center.  A random
    central element z acts on the center by a k x k matrix whose
    eigenvectors are the central primitive idempotents up to scale; each
    is scaled by its square (w^2 = mu w, e = w / mu).  The block of e has
    size n with n^2 = trace(L_e) = f . e, where f_i counts the basis
    elements b_j with b_i b_j = b_j.  Raises
    EigenvalueClusterAmbiguous when two eigenvalues of z lie within a
    relative distance ``BLOCK_TOL`` (reseed), and NonIntegerBlockDim when
    a trace lies farther than ``BLOCK_TOL * dim`` from a positive perfect
    square or the squares do not add up to the dimension.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        kb = np.array(center(a)).T
        rng = np.random.default_rng(seed)
        z = kb @ rng.uniform(size=kb.shape[1])
        eigs, vecs = np.linalg.eig(kb.T @ left_regular_matrix(a, z) @ kb)
        dist = np.abs(eigs[:, None] - eigs[None, :])
        np.fill_diagonal(dist, np.inf)
        gap = float(dist.min() / np.abs(eigs).max())
        if gap < BLOCK_TOL:
            raise EigenvalueClusterAmbiguous(
                f"relative eigenvalue gap {gap:.3e} of the random central element "
                f"is below {BLOCK_TOL:.1e}; reseed",
                gap,
            )

        w = kb @ vecs
        mu = np.array([np.vdot(v, multiply_elements(a, v, v)) / np.vdot(v, v) for v in w.T])
        e = w / mu
        fixes = np.count_nonzero(a.mult == np.arange(a.dim), axis=1)
        traces = fixes @ e
        roots = np.rint(np.sqrt(np.abs(traces.real)))
        error = float(np.max(np.abs(traces - roots**2)))
        if error > BLOCK_TOL * a.dim or roots.min() < 1:
            raise NonIntegerBlockDim(
                f"block traces are not all positive perfect squares: worst integrality "
                f"error {error:.3e}, smallest trace {traces.real.min():.3e}",
                error,
            )
        if int(np.sum(roots**2)) != a.dim:
            raise NonIntegerBlockDim(
                f"block dimensions sum to {int(np.sum(roots**2))}, expected {a.dim}", error
            )

        residual = float(np.max(np.abs(e.sum(axis=1) - a.unit_vector())))
        for i in range(e.shape[1]):
            prod = left_regular_matrix(a, e[:, i]) @ e      # e_i e_j for every j
            prod[:, i] -= e[:, i]
            residual = max(residual, float(np.max(np.abs(prod))))

    order = np.argsort(roots, kind="stable")
    return BlockDecomposition(
        tuple(int(r) for r in roots[order]),
        list(e.T[order]),
        tuple(complex(x) for x in eigs[order]),
        residual,
    )


def generator_index(a: StructureAlgebra, t: int) -> int:
    """Basis index of the monomial u_t = ({e, t}, t).

    These satisfy the partial-representation identities exactly inside
    the structure constants (u_s u_t u_{t^-1} = u_{st} u_{t^-1},
    star(u_t) = u_{t^-1}, u_e = unit).
    """
    return a.index[generator(a.group, t)]
