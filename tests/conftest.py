"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: the wall-clock bounds
# of the order-8 round trips must not depend on what else holds a CPU.
# Set before numpy is first imported, which is when BLAS reads them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from invsg.actions import PartialAction, PartialBijection, restriction_action
from invsg.algebra import StructureAlgebra, center, group_algebra
from invsg.groups import FiniteGroup, cyclic, dihedral, from_cayley_table, klein_four
from invsg.reps import PartialRep


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def small_groups() -> list[FiniteGroup]:
    return [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5)]


def model_checked(n: int, p: int) -> int:
    """Associativity's ``checked`` on a table of n elements over a group
    of order p that the model certifies: n p generation lookups, then
    the model's reads, m = 2p - 1 points (the sets G - {g}, g != e, then
    G): n^2 products, p n composites of m + 1 entries and the n p
    entries of its first p columns."""
    m = 2 * p - 1
    return n * p + n * n + p * n * (m + 1) + n * p


def inverses_checked(n: int, p: int) -> int:
    """Unique inverses' ``checked`` on a table of n elements over a group
    of order p whose other three checks pass, so that no scan runs: the
    n involution cases and the (2^(p-1))^2 pairs of idempotents."""
    return n + 4 ** (p - 1)


def left_regular_matrix(a: StructureAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication by x in the monomial basis."""
    x = np.asarray(x)
    if x.shape != (a.dim,):
        raise ValueError("coefficient vector has the wrong length")
    n = a.dim
    flat = (a.mult.astype(np.intp) * n + np.arange(n)).ravel()  # entry (basis_i basis_j, j) gets x_i
    out = np.empty((n, n), dtype=np.result_type(x.dtype, np.float64))
    out.real = np.bincount(flat, weights=np.repeat(x.real, n), minlength=n * n).reshape(n, n)
    if np.iscomplexobj(x):  # bincount takes real weights only
        out.imag = np.bincount(flat, weights=np.repeat(x.imag, n), minlength=n * n).reshape(n, n)
    return out


def draw_the_unit(monkeypatch, a: StructureAlgebra) -> None:
    """Make every random central element the unit of ``a``: the stand-in
    for ``np.random.default_rng`` draws the unit's coordinates in
    ``center(a)``, and checks that the draw has that length."""
    coeffs = np.array(center(a)) @ a.unit_vector()

    class UnitDraw:
        def __init__(self, seed):
            pass

        def uniform(self, size):
            assert size == len(coeffs)
            return coeffs

    monkeypatch.setattr(np.random, "default_rng", UnitDraw)


def reflection_commutant() -> list[np.ndarray]:
    """Orthonormal basis of the commutant of one reflection in C[S3]
    (``group_algebra(dihedral(3))``), which is C^4 but not the center."""
    ga = group_algebra(dihedral(3))
    reflection = 3
    assert ga.mult[reflection, reflection] == ga.unit_index
    # the commutant is spanned by the orbit sums of conjugation by the
    # reflection: e, the reflection, the two rotations, the other two reflections
    orbits = sorted({tuple(sorted({x, ga.mult[ga.mult[reflection, x], reflection]})) for x in range(ga.dim)})
    assert len(orbits) == 4
    commutant = []
    for orbit in orbits:
        v = np.zeros(ga.dim)
        v[list(orbit)] = 1 / np.sqrt(len(orbit))
        commutant.append(v)
    return commutant


def relabelled(group: FiniteGroup, new_index: list[int]) -> FiniteGroup:
    """The same group with element ``a`` renamed ``new_index[a]``."""
    p = group.order
    table = [[0] * p for _ in range(p)]
    for a in group.elements():
        for b in group.elements():
            table[new_index[a]][new_index[b]] = new_index[group.mul(a, b)]
    return from_cayley_table(table)


def quaternion() -> FiniteGroup:
    """Q8 from the unit rule i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j:
    element 4h + u is (-1)^h times the unit u of (1, i, j, k)."""

    def mul(a: int, b: int) -> int:
        u, v = a % 4, b % 4
        if u == 0 or v == 0:
            sign, w = 1, u + v
        elif u == v:
            sign, w = -1, 0
        else:  # ij = k, jk = i, ki = j and their reverses
            sign, w = (1 if (v - u) % 3 == 1 else -1), 6 - u - v
        return 4 * ((a // 4 + b // 4 + (sign < 0)) % 2) + w

    return from_cayley_table([[mul(a, b) for b in range(8)] for a in range(8)])


def conjugated_regular_rep(group: FiniteGroup, seed: int = 0) -> PartialRep:
    """The regular representation of ``group``, conjugated by a seeded
    random orthogonal matrix: a dense float64 group representation, so a
    partial one, that is not a partial-permutation rep."""
    p = group.order
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))
    mats = []
    for t in group.elements():
        m = np.zeros((p, p))
        m[[group.mul(t, y) for y in range(p)], range(p)] = 1
        mats.append(q @ m @ q.T)
    return PartialRep(group, mats)


def translation_permutations(group: FiniteGroup, copies: int) -> list[list[int]]:
    """Left translation on ``copies`` disjoint copies of the group."""
    p = group.order
    perms = []
    for t in group.elements():
        perm = []
        for c in range(copies):
            perm.extend(group.mul(t, y) + c * p for y in range(p))
        perms.append(perm)
    return perms


def signed_rep(rep: PartialRep) -> PartialRep:
    """``rep`` times t -> (-1)^t, a character of cyclic groups of even
    order and of klein4: a valid integer partial rep when ``rep`` is one,
    with entries -1, 0 and 1, so not a partial-permutation rep."""
    return PartialRep(rep.group, [(-1) ** t * m for t, m in enumerate(rep.matrices)])


def extension_laws(group: FiniteGroup, images, mul, distance) -> tuple[list, list]:
    """The test oracle of the extension conditions, read pair by pair off
    the two relations [s^-1][s][t] = [s^-1][st] and [s][t][t^-1] =
    [st][t^-1]: the (s, t, distance) lists, s then t ascending, of the
    triple law (f(s)f(t))f(t^-1) against f(st)f(t^-1) and of the derived
    law (f(s^-1)f(s))f(t) against f(s^-1)f(st)."""
    triple, derived = [], []
    for s in group.elements():
        for t in group.elements():
            s_inv, t_inv, st = group.inv(s), group.inv(t), group.mul(s, t)
            f_s, f_t, f_st, f_s_inv, f_t_inv = (images[x] for x in (s, t, st, s_inv, t_inv))
            triple.append((s, t, distance(mul(mul(f_s, f_t), f_t_inv), mul(f_st, f_t_inv))))
            derived.append((s, t, distance(mul(mul(f_s_inv, f_s), f_t), mul(f_s_inv, f_st))))
    return triple, derived


def random_restriction_action(rng: random.Random) -> PartialAction:
    """A random valid partial action: restrict a translation action on
    up to 8 points to a random subset."""
    group = rng.choice([cyclic(2), cyclic(3), cyclic(4), klein_four()])
    copies = rng.randint(1, max(1, 8 // group.order))
    y_size = group.order * copies
    perms = translation_permutations(group, copies)
    subset = [y for y in range(y_size) if rng.random() < 0.6]
    return restriction_action(group, perms, subset)


def perturb_one_image(action: PartialAction, rng: random.Random) -> PartialAction | None:
    """Move one defined image of a non-identity map to a fresh point.

    Returns None when no map has both a defined point and a free
    target.
    """
    g = action.group
    candidates = [
        t for t in g.elements() if t != g.identity and action.theta[t].domain
    ]
    rng.shuffle(candidates)
    for t in candidates:
        f = action.theta[t]
        free = sorted(set(range(action.set_size)) - f.image)
        if not free:
            continue
        x = rng.choice(sorted(f.domain))
        target = rng.choice(free)
        mapping = list(f.mapping)
        mapping[x] = target
        theta = list(action.theta)
        theta[t] = PartialBijection(mapping)
        return PartialAction(g, action.set_size, tuple(theta))
    return None
