"""The complex semigroup algebra of the enumerated inverse semigroup.

The basis is the enumerated semigroup itself; the product of two basis
elements is a single basis element, so the algebra is described by an
integer multiplication table plus an involution table.  This finite-
dimensional model is what the package means by the "partial group
algebra" of a finite group: its monomial basis multiplies exactly like
the spanning monomials (projection times group shift) of the partial
crossed product, and all block computations happen here.

The Moebius basis, one exact step per coatom from the monomials, makes
it a groupoid algebra (Steinberg): center and blocks come off the tables,
and only the maximal subgroups' group algebras are split numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .semigroup import (
    DEFAULT_DIM_CAP,
    CapExceeded,
    enumerate_semigroup,
    generator,
    multiplication_tables,
    order_formula,
)

BLOCK_TOL = 1e-9  # wedderburn: least relative eigenvalue gap; times |H|, most trace integrality error


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


@dataclass(eq=False, repr=False)
class StructureAlgebra:
    """Basis-indexed algebra: mult[i, j] is the basis index of b_i b_j.

    Built over the enumerated semigroup by :func:`build_algebra`, or over
    a group by :func:`group_algebra`; immutable in use, equal by identity.
    ``mult`` and ``star`` are index arrays in the narrowest unsigned
    dtype holding ``dim``: cast before arithmetic.
    """

    group: FiniteGroup
    basis: tuple
    mult: np.ndarray
    star: np.ndarray
    unit_index: int

    def __post_init__(self) -> None:
        self.index = {b: i for i, b in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit_vector(self, dtype=np.float64) -> np.ndarray:
        return self.basis_vector(self.unit_index, dtype)

    def basis_vector(self, i: int, dtype=np.float64) -> np.ndarray:
        v = np.zeros(self.dim, dtype=dtype)
        v[i] = 1
        return v


def build_algebra(group: FiniteGroup, cap: int = DEFAULT_DIM_CAP) -> StructureAlgebra:
    """Tables for the semigroup algebra; dimension 2^(p-2)(p+1)."""
    dim = order_formula(group.order) if group.order >= 2 else 1
    if dim > cap:
        raise CapExceeded(f"algebra dimension {dim} exceeds cap {cap}")
    elements = enumerate_semigroup(group, cap=group.order)
    mult, star, unit_idx = multiplication_tables(elements)
    return StructureAlgebra(group, tuple(elements), mult, star, unit_idx)


def group_algebra(group: FiniteGroup) -> StructureAlgebra:
    """The plain group algebra on the same chassis (basis = group indices)."""
    dtype = np.min_scalar_type(group.order)
    mult, star = np.array(group.table, dtype=dtype), np.array(group.inverses, dtype=dtype)
    return StructureAlgebra(group, tuple(group.elements()), mult, star, group.identity)


def multiply_elements(a: StructureAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear extension of the basis product to coefficient vectors, or
    column by column to two dim x k arrays.  Only pairs of nonzero
    coefficients are visited."""
    x, y, n = np.asarray(x), np.asarray(y), a.dim
    if x.shape != y.shape or x.shape[:1] != (n,) or x.ndim > 2:
        raise ValueError("coefficient vectors have the wrong length")
    xs, ys = x.reshape(n, -1), y.reshape(n, -1)
    (cx, ix), (cy, iy) = xs.T.nonzero(), ys.T.nonzero()  # by column, then row
    lo, hi = cy.searchsorted(cx), cy.searchsorted(cx, "right")  # the nonzeros of y in column cx
    p = np.arange(cx.size).repeat(hi - lo)
    q = np.arange(p.size) - (hi - lo).cumsum()[p] + hi[p]  # pair (p, q) for each of them
    col, i, j = cx[p], ix[p], iy[q]
    key = col * n + a.mult[i, j]
    w = xs[i, col] * ys[j, col]
    out = np.bincount(key, w.real, xs.size)  # bincount takes real weights only
    out = out + 1j * np.bincount(key, w.imag, xs.size) if np.iscomplexobj(w) else out
    return out.astype(np.result_type(x, y), copy=False).reshape(-1, n).T.reshape(x.shape)


def _orbit_sums(a: StructureAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, r, d, orbit): r(s) = ss*, d(s) = s*s, orbit[s] the conjugacy orbit
    of a loop s (-1 elsewhere), column j of x the monomial coordinates of orbit j.

    The Moebius basis [s] = sum over t <= s of mu(t, s) t turns the
    algebra into a groupoid algebra (Steinberg): [s] is an arrow from
    d(s) to r(s), and [s][t] = [st] when d(s) = r(t), else 0.  The center
    of a groupoid algebra has one 0/1 vector per conjugacy orbit
    {g s g* : d(g) = r(s)} of loops (d(s) = r(s)).  Below s = (F, s) lie
    the (F', s) with F' a superset of F, so [s] is the product over the
    coatoms c = ({e, g}, e) with cs != s of (1 - c) s: one step per
    coatom, exact as it subtracts small integers and, since c sends the
    s it moves to distinct cs, writes no entry twice.
    """
    n, mult, star = a.dim, a.mult, a.star
    idx = np.arange(n)
    r, d = mult[idx, star], mult[star, idx]
    loops = np.flatnonzero(d == r)
    conj = mult[mult[:, loops], star[:, None]]  # conj[g, j] = g s g* for s = loops[j]
    orbit_min = np.where(d[:, None] == r[loops], conj, n).min(axis=0)
    orbit = np.full(n, -1)
    orbit[loops] = (np.bincount(orbit_min, minlength=n) > 0).cumsum()[orbit_min] - 1  # by least element
    x = np.zeros((n, orbit.max() + 1))
    x[loops, orbit[loops]] = 1.0  # orbit sums in the Moebius basis
    e = np.flatnonzero(r == idx)  # the idempotents; f <= e iff ef = f
    for c in e[(mult[e[:, None], e] == e).sum(axis=0) == 2]:  # coatoms: only c and the unit lie above c
        moved = mult[c] != idx  # t -> t - ct where ct != t
        x[mult[c, moved]] -= x[moved]
    return x, r, d, orbit


def center(a: StructureAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of the center, computed exactly from the tables:
    the orbit sums of :func:`_orbit_sums`, orthonormalized by one QR."""
    q, _ = np.linalg.qr(_orbit_sums(a)[0])
    return list(q.T.copy())


@dataclass
class BlockDecomposition:
    """Sorted matrix-block sizes with the matching central primitive
    idempotents and a bound on their residual."""

    blocks: tuple[int, ...]
    idempotents: list[np.ndarray]
    residual: float

    @property
    def dimension(self) -> int:
        return int(sum(b * b for b in self.blocks))


def _split_group_algebra(a: StructureAlgebra, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(blocks, idempotent columns, residual) of a group algebra CH: the
    eigenvectors w of a random central element on the center are its
    central primitive idempotents up to scale (w^2 = mu w, e = w / mu), a
    block of size m has m^2 = trace(L_e) = |H| e[1], and ``residual``
    bounds every e_i e_j - delta_ij e_i.  Raises as :func:`wedderburn`."""
    n, kb = a.dim, np.array(center(a)).T
    k = kb.shape[1]
    pairs = multiply_elements(a, kb.repeat(k, axis=1), kb[:, np.arange(k * k) % k])
    pairs = pairs.reshape(n, k, k)  # kb_i kb_j: the structure constants of the center
    z = np.random.default_rng(seed).uniform(size=k)  # coordinates of z in kb
    eigs, vecs = np.linalg.eig(kb.T @ (pairs @ z))
    dist = np.abs(np.subtract.outer(eigs, eigs)) + np.diag(np.full(k, np.inf))
    gap = float(dist.min() / np.abs(eigs).max())
    if gap < BLOCK_TOL:
        message = f"relative eigenvalue gap {gap:.3e} is below {BLOCK_TOL:.1e}; reseed"
        raise EigenvalueClusterAmbiguous(message, gap)
    w, ww = kb @ vecs, vecs.T @ pairs @ vecs  # ww[:, i, j] = w_i w_j
    scale = np.sum(np.abs(w) ** 2, axis=0) / np.sum(w.conj() * ww.diagonal(0, 1, 2), axis=0)
    e = w * scale  # w / mu
    traces = n * e[a.unit_index]
    roots = np.rint(np.sqrt(np.abs(traces.real)))
    error = float(np.max(np.abs(traces - roots**2)))
    if error > BLOCK_TOL * n or roots.min() < 1:
        raise NonIntegerBlockDim(
            f"block traces are not all positive perfect squares: worst integrality "
            f"error {error:.3e}, smallest trace {traces.real.min():.3e}", error
        )
    prod = ww * np.outer(scale, scale)  # e_i e_j
    prod[:, np.arange(k), np.arange(k)] -= e
    return roots.astype(np.int64), e, float(np.max(np.abs(prod)))


def wedderburn(a: StructureAlgebra, seed: int = 0) -> BlockDecomposition:
    """Block decomposition of a (semisimple) structure algebra.

    In the groupoid basis of :func:`_orbit_sums`, a D-class D of
    idempotents is M_|D|(CH), with H the loops at its head, the least
    object one arrow from each: a block |D| m per block m of CH, whose
    idempotent puts its value at g on the orbit of g.  A group algebra is
    one D-class whose H is the whole group.  CH is split numerically by
    :func:`_split_group_algebra`, once per table, and only if |H| > 1.

    Raises EigenvalueClusterAmbiguous when two eigenvalues lie within a
    relative distance ``BLOCK_TOL`` (reseed), and NonIntegerBlockDim when
    a trace lies farther than ``BLOCK_TOL * |H|`` from a positive perfect
    square or the squared blocks do not add up to the dimension.
    ``residual``, the worst of each CH's, of sum e_i - 1 and of
    e_i^2 - e_i, bounds every e_i e_j - delta_ij e_i, as D-classes are
    disjoint.
    """
    n = a.dim
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x, r, d, orbit = _orbit_sums(a)
        label = np.full(n, n)
        np.minimum.at(label, d, r)  # the head of each object
        count = np.bincount(label[r == np.arange(n)], minlength=n)  # |D| at each head
        heads = np.flatnonzero(count)
        loops = np.flatnonzero((d == r) & (label[r] == r))  # the maximal subgroups
        owner = heads.searchsorted(r[loops])
        trivial = np.bincount(owner) == 1  # one block of size |D|, its coefficient 1
        coeffs = [np.eye(x.shape[1])[:, orbit[heads[trivial]]]]  # the orbit of each head
        blocks, splits = [count[heads[trivial]]], {}
        for c, head in zip(np.flatnonzero(~trivial), heads[~trivial]):
            h = loops[owner == c]
            table = h.searchsorted(a.mult[h[:, None], h])
            key = table.tobytes()
            if key not in splits:
                unit, inverses = int(h.searchsorted(head)), tuple(h.searchsorted(a.star[h]).tolist())
                sub = FiniteGroup(tuple(map(tuple, table.tolist())), unit, inverses)
                splits[key] = _split_group_algebra(group_algebra(sub), seed)
            roots, idempotents, _ = splits[key]
            coeffs.append(np.zeros((x.shape[1], len(roots)), dtype=np.complex128))
            coeffs[-1][orbit[h]] = idempotents
            blocks.append(count[head] * roots)
        roots = np.concatenate(blocks)
        if int(np.sum(roots**2)) != n:
            raise NonIntegerBlockDim(f"squared blocks sum to {int((roots**2).sum())}, not {n}")
        e = x @ np.hstack(coeffs)
        unit_error = np.max(np.abs(e.sum(axis=1) - a.unit_vector()))
        square_error = np.max(np.abs(multiply_elements(a, e, e) - e))
        residual = float(max([unit_error, square_error] + [s[2] for s in splits.values()]))

    order = np.argsort(roots, kind="stable")
    return BlockDecomposition(tuple(map(int, roots[order])), list(e.T[order]), residual)


def generator_index(a: StructureAlgebra, t: int) -> int:
    """Basis index of the monomial u_t = ({e, t}, t), which satisfies the
    partial-representation identities exactly inside the structure
    constants (u_s u_t u_{t^-1} = u_{st} u_{t^-1}, star(u_t) = u_{t^-1},
    u_e = unit)."""
    return a.index[generator(a.group, t)]
