import random
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from invsg import algebra
from invsg.graded import GradedSubspace, element_subspace, generated_semigroup, grading
from invsg.groups import cyclic, dihedral, group_from_spec, klein_four
from invsg.semigroup import SCAN_BYTES, CapExceeded, SgElement, enumerate_semigroup, generator, order_formula
from invsg.algebra import (
    EigenvalueClusterAmbiguous,
    NonIntegerBlockDim,
    build_algebra,
    center,
    generator_index,
    group_algebra,
    multiply_elements,
    wedderburn,
)
from conftest import draw_the_unit, left_regular_matrix, quaternion, reflection_commutant, relabelled


def _group(spec):
    """A builtin group, or Q8 for ``q8``."""
    return quaternion() if spec == "q8" else group_from_spec(spec)


def test_dimensions():
    assert build_algebra(cyclic(2)).dim == 3
    assert build_algebra(cyclic(4)).dim == 20
    assert build_algebra(klein_four()).dim == 20


@pytest.mark.parametrize("g", [cyclic(5), cyclic(6), dihedral(3), cyclic(8)])
def test_dimension_matches_formula(g):
    assert build_algebra(g).dim == order_formula(g.order)


def test_cap():
    with pytest.raises(CapExceeded):
        build_algebra(cyclic(9))
    assert build_algebra(cyclic(9), cap=2000).dim == 1280


def test_basis_products_match_semigroup():
    g = cyclic(4)
    alg = build_algebra(g)
    for s in g.elements():
        i = generator_index(alg, s)
        for t in g.elements():
            j = generator_index(alg, t)
            assert alg.basis[alg.mult[i, j]] == generator(g, s) * generator(g, t)


def test_mult_table_associative():
    for g in [cyclic(3), cyclic(4), klein_four(), cyclic(5)]:
        m = build_algebra(g).mult
        n = m.shape[0]
        for i in range(n):
            assert np.array_equal(m[m[i, :], :], m[i, m])


def test_star_table_antimultiplicative():
    for g in [cyclic(3), cyclic(4), klein_four()]:
        alg = build_algebra(g)
        m, st = alg.mult, alg.star
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                assert st[m[i, j]] == m[st[j], st[i]]


def test_multiply_elements_bilinear():
    alg = build_algebra(cyclic(3))
    rng = np.random.default_rng(1)
    x, y, z = (rng.normal(size=alg.dim) for _ in range(3))
    u = alg.unit_vector()
    assert np.allclose(multiply_elements(alg, u, x), x)
    assert np.allclose(multiply_elements(alg, x, u), x)
    lhs = multiply_elements(alg, x + y, z)
    rhs = multiply_elements(alg, x, z) + multiply_elements(alg, y, z)
    assert np.allclose(lhs, rhs)
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = multiply_elements(alg, alg.basis_vector(i), alg.basis_vector(j))
            expected = alg.basis_vector(alg.mult[i, j])
            assert (prod == expected).all()


def test_multiply_elements_columns():
    # independent oracle: the left regular matrix, column by column
    alg = build_algebra(klein_four())
    rng = np.random.default_rng(4)
    x = rng.normal(size=(alg.dim, 5)) + 1j * rng.normal(size=(alg.dim, 5))
    y = rng.normal(size=(alg.dim, 5))
    x[::2, 1] = 0   # sparse columns, and a zero one
    y[:15, 2] = 0
    x[:, 3] = 0
    prod = multiply_elements(alg, x, y)
    assert prod.shape == x.shape and prod.dtype == np.complex128
    for k in range(5):
        assert np.allclose(prod[:, k], left_regular_matrix(alg, x[:, k]) @ y[:, k], atol=1e-12)
    with pytest.raises(ValueError):
        multiply_elements(alg, x, y[:, :4])


def test_left_regular_matrix():
    alg = build_algebra(cyclic(3))
    assert np.array_equal(left_regular_matrix(alg, alg.unit_vector()), np.eye(alg.dim))
    for i in range(alg.dim):
        li = left_regular_matrix(alg, alg.basis_vector(i))
        assert set(np.unique(li)) <= {0.0, 1.0}
        assert (li.sum(axis=0) == 1).all()
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=alg.dim), rng.normal(size=alg.dim)
    assert np.allclose(left_regular_matrix(alg, x) @ y, multiply_elements(alg, x, y))
    lx, ly = left_regular_matrix(alg, x), left_regular_matrix(alg, y)
    lxy = left_regular_matrix(alg, multiply_elements(alg, x, y))
    assert np.allclose(lxy, lx @ ly)
    assert np.allclose(lx[:, alg.unit_index], x)


def test_center_dimensions():
    dims = {"cyclic:2": 3, "cyclic:4": 9, "klein4": 12, "dihedral:3": 25,
            "cyclic:7": 25, "cyclic:8": 48, "dihedral:4": 69, "q8": 51}
    for spec, k in dims.items():
        assert len(center(build_algebra(_group(spec)))) == k


def test_center_of_z2_by_brute_force():
    # independent oracle: the three basis monomials commute pairwise,
    # so the whole 3-dimensional algebra is its own center
    alg = build_algebra(cyclic(2))
    for i in range(3):
        for j in range(3):
            assert alg.mult[i, j] == alg.mult[j, i]
    basis = center(alg)
    assert len(basis) == 3
    gram = np.array([[float(u @ v) for v in basis] for u in basis])
    assert np.allclose(gram, np.eye(3))


def test_center_elements_commute_with_everything():
    alg = build_algebra(klein_four())
    for v in center(alg):
        for j in range(alg.dim):
            b = alg.basis_vector(j)
            assert np.allclose(
                multiply_elements(alg, v, b), multiply_elements(alg, b, v), atol=1e-12
            )


def test_wedderburn_z2_with_diagonalization_oracle():
    alg = build_algebra(cyclic(2))
    # independent oracle: the regular matrix of a random element of this
    # commutative algebra has 3 well-separated eigenvalues, so the
    # algebra splits into three one-dimensional blocks
    rng = np.random.default_rng(3)
    z = rng.uniform(size=3)
    eigs = np.sort_complex(np.linalg.eigvals(left_regular_matrix(alg, z)))
    assert min(abs(eigs[i + 1] - eigs[i]) for i in range(2)) > 1e-3
    decomposition = wedderburn(alg)
    assert decomposition.blocks == (1, 1, 1)


def test_wedderburn_order_four_groups():
    d4 = wedderburn(build_algebra(cyclic(4)))
    assert d4.blocks == (1, 1, 1, 1, 1, 1, 1, 2, 3)
    dk = wedderburn(build_algebra(klein_four()))
    assert dk.blocks == tuple([1] * 11 + [3])
    for d, n in ((d4, 20), (dk, 20)):
        assert d.dimension == n
        assert d.residual <= 1e-6


def test_wedderburn_seed_independent():
    alg = build_algebra(klein_four())
    blocks = {wedderburn(alg, seed=s).blocks for s in (0, 1, 2, 7)}
    assert len(blocks) == 1


def test_wedderburn_idempotent_identities():
    for g in (cyclic(4), dihedral(3), cyclic(7)):
        alg = build_algebra(g)
        d = wedderburn(alg)
        unit_vec = alg.unit_vector(dtype=np.complex128)
        total = np.zeros(alg.dim, dtype=np.complex128)
        tol = 1e3 * np.finfo(float).eps * alg.dim
        eye = np.eye(alg.dim, dtype=np.complex128)
        for i, zi in enumerate(d.idempotents):
            total += zi
            for j, zj in enumerate(d.idempotents):
                prod = multiply_elements(alg, zi, zj)
                target = zi if i == j else np.zeros(alg.dim)
                assert np.max(np.abs(prod - target)) <= tol
            # centrality: column k holds zi b_k - b_k zi
            zs = np.repeat(zi[:, None], alg.dim, axis=1)
            diff = multiply_elements(alg, zs, eye) - multiply_elements(alg, eye, zs)
            assert np.max(np.abs(diff)) <= tol
        assert np.max(np.abs(total - unit_vec)) <= tol
        assert d.residual <= tol


# Block multisets {size: count} from the D-class structure theorem:
# each D-class D with maximal subgroup H gives one block of size |D| d
# per irreducible degree d of H.
D_CLASS_BLOCKS = {
    "cyclic:4": {1: 7, 2: 1, 3: 1},
    "klein4": {1: 11, 3: 1},
    "cyclic:5": {1: 6, 2: 2, 3: 2, 4: 1},
    "cyclic:6": {1: 12, 2: 4, 3: 3, 4: 2, 5: 1},
    "dihedral:3": {1: 12, 2: 8, 3: 3, 4: 1, 5: 1},
    "cyclic:7": {1: 8, 2: 3, 3: 5, 4: 5, 5: 3, 6: 1},
    "cyclic:8": {1: 15, 2: 5, 3: 9, 4: 8, 5: 7, 6: 3, 7: 1},
    "dihedral:4": {1: 27, 2: 10, 3: 17, 4: 6, 5: 7, 6: 1, 7: 1},
    "q8": {1: 19, 2: 4, 3: 9, 4: 8, 5: 7, 6: 3, 7: 1},
    "cyclic:2": {1: 3},
    "cyclic:3": {1: 4, 2: 1},
}
# The plain group algebras: one block per irreducible degree of the group
# (an abelian group has only linear characters; D_n has 2 or 4 of them
# and the rest of degree 2).
GROUP_ALGEBRA = "group-algebra-"
D_CLASS_BLOCKS.update(
    {
        GROUP_ALGEBRA + "cyclic:2": {1: 2},
        GROUP_ALGEBRA + "cyclic:3": {1: 3},
        GROUP_ALGEBRA + "cyclic:4": {1: 4},
        GROUP_ALGEBRA + "klein4": {1: 4},
        GROUP_ALGEBRA + "cyclic:5": {1: 5},
        GROUP_ALGEBRA + "cyclic:6": {1: 6},
        GROUP_ALGEBRA + "dihedral:3": {1: 2, 2: 1},
        GROUP_ALGEBRA + "cyclic:7": {1: 7},
        GROUP_ALGEBRA + "cyclic:8": {1: 8},
        GROUP_ALGEBRA + "dihedral:4": {1: 4, 2: 1},
        GROUP_ALGEBRA + "q8": {1: 4, 2: 1},
    }
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", list(D_CLASS_BLOCKS))
def test_wedderburn_matches_d_class_blocks(spec, seed):
    if spec.startswith(GROUP_ALGEBRA):
        g = _group(spec.removeprefix(GROUP_ALGEBRA))
        alg, dim = group_algebra(g), g.order
    else:
        g = _group(spec)
        alg, dim = build_algebra(g), 2 ** (g.order - 2) * (g.order + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = wedderburn(alg, seed=seed)
    assert dict(Counter(d.blocks)) == D_CLASS_BLOCKS[spec]
    assert d.dimension == alg.dim == dim
    assert len(d.blocks) == len(center(alg))
    assert d.residual <= 1e-6


@pytest.mark.parametrize(
    "group",
    [cyclic(p) for p in (*range(1, 9), 10)]
    + [klein_four(), dihedral(3), dihedral(4), quaternion(), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])],
    ids=[f"cyclic:{p}" for p in (*range(1, 9), 10)] + ["klein4", "dihedral:3", "dihedral:4", "q8", "relabelled-dihedral:3"],
)
def test_orbit_sums_match_the_moebius_function_of_the_order(group):
    """Independent oracle for the coatom steps: x[t, j] is the sum over
    the loops s of orbit j with t <= s of mu(t, s) = (-1)^(|supp t| -
    |supp s|), read from supports and degrees, never from ``mult``."""
    alg = build_algebra(group, cap=3000)
    x, _, _, orbit = algebra._orbit_sums(alg)
    support = np.array([b.support for b in alg.basis])
    degree = np.array([b.degree for b in alg.basis])
    size = np.array([b.support.bit_count() for b in alg.basis])
    expected = np.zeros_like(x)
    for s in np.flatnonzero(orbit >= 0):
        below = (degree == degree[s]) & (support | support[s] == support)  # natural_partial_order(t, s)
        expected[below, orbit[s]] += (-1.0) ** (size[below] - size[s])
    assert np.array_equal(x, expected)


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: build_algebra(dihedral(3)), 25),
        (lambda: build_algebra(cyclic(7)), 25),
        (lambda: group_algebra(dihedral(3)), 3),
    ],
    ids=["dihedral:3", "cyclic:7", "group-algebra-dihedral:3"],
)
def test_center_by_brute_force(make, k):
    alg = make()
    basis = np.array(center(alg))
    assert basis.shape == (k, alg.dim)
    assert np.allclose(basis @ basis.T, np.eye(k), atol=1e-12)
    # independent oracle: v b_j - b_j v straight from the product table,
    # column j for every basis element b_j at once
    n = alg.dim
    cols = np.broadcast_to(np.arange(n), (n, n))
    for v in basis:
        comm = np.zeros((n, n))
        np.add.at(comm, (alg.mult, cols), v[:, None])         # v_i b_i b_j
        np.subtract.at(comm, (alg.mult.T, cols), v[:, None])  # b_j v_i b_i
        assert np.max(np.abs(comm)) <= 1e-12


def test_group_algebra_of_dihedral_3():
    ga = group_algebra(dihedral(3))
    assert len(center(ga)) == 3
    assert wedderburn(ga).blocks == (1, 1, 2)


def test_wedderburn_degenerate_central_element_raises(monkeypatch):
    # The one nontrivial maximal subgroup of S(Z3) is Z3 itself, the loops
    # at the full support, labelled as in cyclic(3): only its group
    # algebra draws a random central element, here its unit.
    alg = build_algebra(cyclic(3))
    draw_the_unit(monkeypatch, group_algebra(cyclic(3)))
    with pytest.raises(EigenvalueClusterAmbiguous) as info:
        wedderburn(alg)
    assert info.value.relative_gap < 1e-12


def test_wedderburn_too_few_generators_raises(monkeypatch):
    # The commutant of one reflection in C[S3] is C^4 but not the center:
    # its primitive idempotents split the M_2 block into two halves whose
    # traces are 2, not a perfect square.
    ga = group_algebra(dihedral(3))
    commutant = reflection_commutant()
    monkeypatch.setattr(algebra, "center", lambda a: commutant)
    with pytest.raises(NonIntegerBlockDim) as info:
        wedderburn(ga)
    assert abs(info.value.integrality_error - 1.0) < 1e-9


@pytest.mark.parametrize(
    "make, orders",
    [
        (lambda: build_algebra(klein_four()), [2, 4]),
        (lambda: build_algebra(dihedral(3)), [2, 3, 6]),
        (lambda: group_algebra(dihedral(3)), [6]),
    ],
    ids=["klein4", "dihedral:3", "group-algebra-dihedral:3"],
)
def test_wedderburn_splits_each_maximal_subgroup_once_without_recursing(monkeypatch, make, orders):
    """One call of ``wedderburn`` per decomposition, through the module
    attribute, and one numeric split per distinct nontrivial maximal
    subgroup: Z2 and K4 in S(K4); Z2, Z3 and S3 in S(S3)."""
    calls, splits = [], []
    wedderburn_, split = algebra.wedderburn, algebra._split_group_algebra

    def counted(a, seed=0):
        calls.append(a)
        return wedderburn_(a, seed)

    def counted_split(a, seed):
        splits.append(a.dim)
        return split(a, seed)

    monkeypatch.setattr(algebra, "wedderburn", counted)
    monkeypatch.setattr(algebra, "_split_group_algebra", counted_split)
    alg = make()
    assert algebra.wedderburn(alg).dimension == alg.dim
    assert calls == [alg]
    assert sorted(splits) == orders


def test_generator_vectors():
    g = cyclic(4)
    alg = build_algebra(g)
    assert (alg.basis_vector(generator_index(alg, 0)) == alg.unit_vector()).all()
    for t in g.elements():
        i = generator_index(alg, t)
        assert alg.star[i] == generator_index(alg, g.inv(t))
        # u_s u_t u_{t^-1} == u_{st} u_{t^-1} in the structure constants
        for s in g.elements():
            j = generator_index(alg, s)
            t_inv = generator_index(alg, g.inv(t))
            st = generator_index(alg, g.mul(s, t))
            assert alg.mult[alg.mult[j, i], t_inv] == alg.mult[st, t_inv]
    u1 = generator_index(alg, 1)
    assert alg.basis[alg.mult[u1, u1]] == SgElement(g, 0b0111, 2)


def test_group_algebra_chassis():
    g = cyclic(4)
    ga = group_algebra(g)
    assert ga.dim == 4
    assert ga.unit_index == g.identity
    for a in g.elements():
        for b in g.elements():
            assert ga.mult[a, b] == g.mul(a, b)


def test_trivial_group_algebra():
    alg = build_algebra(cyclic(1))
    assert alg.dim == 1
    assert wedderburn(alg).blocks == (1,)


@pytest.mark.parametrize(
    ("build", "g", "dtype"),
    [
        (build_algebra, cyclic(6), np.uint8),
        (build_algebra, cyclic(7), np.uint16),  # n = 256: the marker value n needs 9 bits
        (group_algebra, dihedral(4), np.uint8),
    ],
    ids=["cyclic6", "cyclic7", "group_dihedral4"],
)
def test_tables_are_in_the_narrowest_unsigned_dtype(build, g, dtype):
    """Both builders keep one table in the dtype ``multiplication_tables``
    picks: the narrowest unsigned one holding ``dim``."""
    alg = build(g)
    assert alg.mult.dtype == alg.star.dtype == np.min_scalar_type(alg.dim) == dtype


def test_build_algebra_holds_one_narrow_table():
    """No widened copy of the 663 KB uint16 table at order 8: the traced
    peak stays below two tables and a few scan blocks (3.42 MB with an
    intp copy)."""
    tracemalloc.start()
    try:
        alg = build_algebra(cyclic(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = alg.dim**2 * np.min_scalar_type(alg.dim).itemsize
    assert peak < 2 * table_bytes + 4 * SCAN_BYTES  # 1.85 MB


@pytest.mark.parametrize(
    ("build", "g"),
    [(build_algebra, g) for g in (cyclic(5), cyclic(6), cyclic(7), dihedral(3), dihedral(4), quaternion())]
    + [(group_algebra, dihedral(4))],
    ids=["cyclic5", "cyclic6", "cyclic7", "dihedral3", "dihedral4", "q8", "group_dihedral4"],
)
def test_narrow_tables_agree_with_a_widened_copy(build, g):
    """Across the uint8/uint16 boundary, the narrow tables give what an
    intp copy of them gives: center, blocks, idempotents, residual, and
    every subspace product, star and element subspace."""
    narrow = build(g)
    mult, star = narrow.mult.astype(np.intp), narrow.star.astype(np.intp)
    wide = algebra.StructureAlgebra(g, narrow.basis, mult, star, narrow.unit_index)
    assert all(np.array_equal(u, v) for u, v in zip(center(narrow), center(wide), strict=True))
    x, y = wedderburn(narrow), wedderburn(wide)
    assert x.blocks == y.blocks and x.residual == y.residual
    assert all(np.array_equal(u, v) for u, v in zip(x.idempotents, y.idempotents, strict=True))
    if isinstance(narrow.basis[0], SgElement):
        pieces = {a: list(grading(a).values()) for a in (narrow, wide)}
        for b in narrow.basis:
            assert element_subspace(narrow, b).indices == element_subspace(wide, b).indices
    else:  # a group algebra, graded by the singleton spans of the group basis
        pieces = {a: [GradedSubspace(a, frozenset({t})) for t in range(a.dim)] for a in (narrow, wide)}
    assert [p.star().indices for p in pieces[narrow]] == [p.star().indices for p in pieces[wide]]
    closures = [{s.indices for s in generated_semigroup(pieces[a])} for a in (narrow, wide)]
    assert closures[0] == closures[1]
