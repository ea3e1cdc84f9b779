"""The complex semigroup algebra of the enumerated inverse semigroup.

The basis is the enumerated semigroup itself; the product of two basis
elements is a single basis element, so the algebra is described by an
integer multiplication table plus an involution table.  This finite-
dimensional model is what the package means by the "partial group
algebra" of a finite group: its monomial basis multiplies exactly like
the spanning monomials (projection times group shift) of the partial
crossed product, and all block computations happen here.

Finite inverse-semigroup algebras are semisimple, so the numerical
block decomposition works inside the center.  The center is exact:
the Moebius basis makes the algebra a groupoid algebra, whose center
has one 0/1 vector per conjugacy orbit of loops (see :func:`center`).
The eigenvectors of a random central element acting on the center
give the central primitive idempotents, and each block size is read
off the trace of left multiplication by its idempotent, with no rank
cut-off.
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


class StructureAlgebra:
    """Basis-indexed algebra: mult[i, j] is the basis index of b_i b_j.

    Built over the enumerated semigroup by :func:`build_algebra`; the
    same shape also carries the plain group algebra for contrast tests
    (see :func:`group_algebra`).  Instances are immutable in use and
    compare by identity.
    """

    def __init__(
        self,
        group: FiniteGroup,
        basis: tuple,
        mult: np.ndarray,
        star: np.ndarray,
        unit_index: int,
    ):
        self.group = group
        self.basis = basis
        self.mult = mult
        self.star = star
        self.unit_index = unit_index
        self.index = {b: i for i, b in enumerate(basis)}

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
    return StructureAlgebra(group, tuple(elements), mult, star, unit_idx)


def group_algebra(group: FiniteGroup) -> StructureAlgebra:
    """The plain group algebra on the same chassis (basis = group indices)."""
    mult = np.array([list(row) for row in group.table], dtype=np.int64)
    star = np.array(group.inverses, dtype=np.int64)
    return StructureAlgebra(group, tuple(group.elements()), mult, star, group.identity)


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


def center(a: StructureAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center, computed exactly from the tables.

    The Moebius basis [s] = sum over t <= s of mu(t, s) t turns the
    algebra into a groupoid algebra (Steinberg): [s] is an arrow from
    d(s) = s*s to r(s) = ss*, and [s][t] = [st] when d(s) = r(t), else 0.
    The center of a groupoid algebra has one 0/1 vector per conjugacy
    orbit {g s g* : d(g) = r(s)} of loops (d(s) = r(s)).  Monomials
    expand as s = sum over t <= s of [t], with t <= s iff r(t) s = t, so
    the orbit sums come back to the monomial basis through the inverse
    of that zeta matrix, I + N with N nilpotent: the alternating sum of
    powers of N, whose integer products float64 computes exactly.  One
    QR then orthonormalizes the result.
    """
    n = a.dim
    mult, star = a.mult, a.star
    idx = np.arange(n)
    r = mult[idx, star]
    d = mult[star, idx]
    loops = np.flatnonzero(d == r)
    conj = mult[mult[:, loops], star[:, None]]  # conj[g, j] = g s g* for s = loops[j]
    orbit_min = np.where(d[:, None] == r[loops], conj, n).min(axis=0)
    _, orbit = np.unique(orbit_min, return_inverse=True)
    ind = np.zeros((n, orbit.max() + 1))
    ind[loops, orbit] = 1.0                        # orbit sums in the Moebius basis
    nil = (mult[r] == idx[:, None]) - np.eye(n)    # zeta - I, zeta[t, s] = [t <= s]
    x = term = ind
    while term.any():                              # zeta^-1 = sum over j of (-N)^j
        term = -(nil @ term)
        x = x + term
    q, _ = np.linalg.qr(x)
    return list(q.T.copy())


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
