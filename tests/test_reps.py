import operator
import random

import numpy as np
import pytest

from invsg.actions import (
    PartialBijection,
    bernoulli_partial_action,
    restriction_action,
    to_inverse_action,
)
from invsg import reps
from invsg.algebra import build_algebra
from invsg.groups import cyclic, klein_four
from invsg.reps import (
    NotRepresentation,
    PartialRep,
    SgRepresentation,
    adjoint,
    extend_to_semigroup,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    partial_rep_from_partial_action,
    rep_from_dict,
    rep_to_dict,
    restrict_to_group,
    validate_partial_rep,
)
from invsg.semigroup import enumerate_semigroup, generator, idempotent, unit, universal_extension

from conftest import left_regular_matrix, random_restriction_action, translation_permutations


def unitary_character_rep(n):
    """Genuine one-dimensional unitary representation of cyclic(n)."""
    g = cyclic(n)
    omega = np.exp(2j * np.pi / n)
    return PartialRep(g, [np.array([[omega**t]]) for t in g.elements()])


def test_unitary_rep_validates():
    rep = unitary_character_rep(4)
    report = validate_partial_rep(rep)
    assert report.passed
    assert all(c.deviation < 1e-12 for c in report.checks)


def test_identity_axiom_failure():
    g = cyclic(2)
    rep = PartialRep(g, [np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)])
    report = validate_partial_rep(rep)
    assert not report.passed
    assert report.checks[2].deviation == 1.0


def test_dimension_mismatch():
    g = cyclic(2)
    with pytest.raises(ValueError):
        PartialRep(g, [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        PartialRep(g, [np.eye(2)])


def test_rep_from_global_action_is_permutation_matrices():
    g = cyclic(3)
    action = restriction_action(g, translation_permutations(g, 1), range(3))
    rep = partial_rep_from_partial_action(action)
    assert rep.exact
    for t in g.elements():
        m = rep.matrices[t]
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
    assert validate_partial_rep(rep).passed


def test_rep_from_bernoulli_z2():
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(2)))
    assert rep.matrices[1].tolist() == [[0, 0], [0, 1]]
    report = validate_partial_rep(rep)
    assert report.passed and report.tol == 0.0


def test_zero_matrix_is_a_partial_isometry_image():
    g = cyclic(2)
    action_theta = (PartialBijection.identity(1), PartialBijection.empty(1))
    from invsg.actions import PartialAction

    rep = partial_rep_from_partial_action(PartialAction(g, 1, action_theta))
    assert rep.matrices[1].tolist() == [[0]]
    assert validate_partial_rep(rep).passed


def test_extension_on_z4_restriction_action():
    g = cyclic(4)
    action = restriction_action(g, translation_permutations(g, 1), [0, 1])
    rep = partial_rep_from_partial_action(action)
    ext = extend_to_semigroup(rep)
    assert len(ext.table) == 20
    assert max_abs(ext(unit(g)) - np.eye(2)) == 0
    for r in g.elements():
        proj = ext(idempotent(g, r))
        expected = rep.matrices[r] @ rep.matrices[g.inv(r)]
        assert (proj == expected).all()
        assert (proj @ proj == proj).all()
        assert (adjoint(proj) == proj).all()
    assert ext.max_multiplicative_deviation()[0] == 0
    assert ext.max_star_deviation()[0] == 0
    assert ext.max_partial_isometry_deviation()[0] == 0


def test_extension_rejects_invalid_input():
    g = cyclic(2)
    rep = PartialRep(g, [np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]])])
    assert not validate_partial_rep(rep).passed
    with pytest.raises(ValueError):
        extend_to_semigroup(rep)


def test_round_trip_both_ways():
    rng = random.Random(5)
    for _ in range(10):
        action = random_restriction_action(rng)
        rep = partial_rep_from_partial_action(action)
        ext = extend_to_semigroup(rep)
        back = restrict_to_group(ext)
        assert all(
            (back.matrices[t] == rep.matrices[t]).all() for t in action.group.elements()
        )
        ext2 = extend_to_semigroup(back)
        assert all((ext2(a) == ext(a)).all() for a in ext.table)


def test_trivial_rep_of_group_passes():
    g = klein_four()
    rep = PartialRep(g, [np.eye(3, dtype=np.int64) for _ in g.elements()])
    assert validate_partial_rep(rep).passed
    ext = extend_to_semigroup(rep)
    for a in ext.table:
        assert (ext(a) == np.eye(3)).all()


def test_left_regular_on_generators_is_not_star_compatible():
    g = cyclic(2)
    alg = build_algebra(g)
    table = {
        a: left_regular_matrix(alg, alg.basis_vector(alg.index[a]))
        for a in enumerate_semigroup(g)
    }
    rho = SgRepresentation(g, alg.dim, table)
    assert rho.max_multiplicative_deviation()[0] == 0
    dev, witness = rho.max_star_deviation()
    assert dev > 0
    with pytest.raises(NotRepresentation):
        restrict_to_group(rho)
    assert witness is not None


def test_derived_relation_numerically():
    rng = random.Random(6)
    for _ in range(5):
        action = random_restriction_action(rng)
        rep = partial_rep_from_partial_action(action)
        g = action.group
        for s in g.elements():
            s_inv = g.inv(s)
            for t in g.elements():
                lhs = rep.matrices[s_inv] @ rep.matrices[s] @ rep.matrices[t]
                rhs = rep.matrices[s_inv] @ rep.matrices[g.mul(s, t)]
                assert max_abs(lhs - rhs) == 0


def test_extension_projection_pairs_commute():
    g = klein_four()
    action = bernoulli_partial_action(g)
    ext = extend_to_semigroup(partial_rep_from_partial_action(action))
    mats = list(ext.table.values())[:8]
    for m in mats:
        left = m @ adjoint(m)
        right = adjoint(m) @ m
        assert (left @ left == left).all() and (right @ right == right).all()
        assert (left @ right == right @ left).all()
    # images of idempotents commute pairwise
    idem = [ext(a) for a in ext.table if a.is_idempotent()]
    for x in idem:
        for y in idem:
            assert (x @ y == y @ x).all()


def test_matrix_json_round_trip():
    m = np.array([[1 + 2j, 0], [0.5j, -1]])
    data = matrix_to_json(m)
    back = matrix_from_json(data)
    assert max_abs(back - m) == 0
    exact = np.array([[1, 0], [2, 3]], dtype=np.int64)
    back_exact = matrix_from_json(matrix_to_json(exact))
    assert back_exact.dtype == np.int64


def test_huge_integral_floats_stay_complex():
    """1e300 is integral but not an int64; it stays a complex entry
    instead of being cast to -2^63."""
    data = rep_to_dict(PartialRep(cyclic(2), [np.eye(1), np.array([[1e300]])]))
    rep = rep_from_dict(data)
    assert rep.matrices[0].dtype == np.int64
    assert rep.matrices[1].dtype == np.complex128
    assert rep.matrices[1][0, 0] == 1e300
    assert not rep.exact


def test_rep_json_round_trip():
    g4 = cyclic(4)
    empty = restriction_action(g4, translation_permutations(g4, 1), [])
    for action in (bernoulli_partial_action(cyclic(3)), empty):
        rep = partial_rep_from_partial_action(action)
        assert validate_partial_rep(rep).passed
        back = rep_from_dict(rep_to_dict(rep))
        assert back.exact and back.dim == rep.dim
        assert all(
            back.matrices[t].shape == rep.matrices[t].shape
            and (back.matrices[t] == rep.matrices[t]).all()
            for t in rep.group.elements()
        )


def _zero_one(f: PartialBijection) -> np.ndarray:
    m = np.zeros((f.size, f.size), dtype=np.int64)
    for x, y in f.graph():
        m[y, x] = 1
    return m


def test_action_and_rep_extensions_agree():
    """The semigroup action, the extended partial rep and the universal
    extension give the same map on every element."""
    rng = random.Random(11)
    for _ in range(15):
        action = random_restriction_action(rng)
        inv_action = to_inverse_action(action)
        ext = extend_to_semigroup(partial_rep_from_partial_action(action))
        universal = universal_extension(action.group, dict(enumerate(action.theta)), operator.mul)
        for a in enumerate_semigroup(action.group):
            f = inv_action(a)
            assert universal(a) == f
            assert np.array_equal(_zero_one(f), ext(a))


def test_restrict_to_group_accepts_float_noise():
    """A float table is checked to 1e-9, so rounding-sized noise passes."""
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(3)))
    ext = extend_to_semigroup(rep)
    rng = np.random.default_rng(0)
    noisy = {a: m + rng.normal(scale=1e-12, size=m.shape) for a, m in ext.table.items()}
    back = restrict_to_group(SgRepresentation(ext.group, ext.dim, noisy))
    assert not back.exact
    assert all(max_abs(back.matrices[t] - rep.matrices[t]) < 1e-11 for t in rep.group.elements())


def test_restrict_to_group_checks_integer_tables_exactly():
    """An integer table with one product off by one is not a representation."""
    ext = extend_to_semigroup(partial_rep_from_partial_action(bernoulli_partial_action(cyclic(3))))
    table = dict(ext.table)
    a = next(a for a in table if bin(a.support).count("1") == 3)
    table[a] = table[a].copy()
    table[a][0, 0] += 1
    with pytest.raises(NotRepresentation, match="not multiplicative"):
        restrict_to_group(SgRepresentation(ext.group, ext.dim, table))


def test_default_tolerance_follows_the_dtype():
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(3)))
    as_float = PartialRep(rep.group, [m.astype(np.float64) for m in rep.matrices])
    as_complex = PartialRep(rep.group, [m.astype(np.complex128) for m in rep.matrices])
    assert rep.exact and validate_partial_rep(rep).tol == 0.0
    for other in (as_float, as_complex):
        assert not other.exact and validate_partial_rep(other).tol == 1e-9


def test_int64_distances_do_not_wrap():
    """np.abs of an int64 difference wraps at -2^63; these distances cannot."""
    g = cyclic(3)
    assert max_abs(np.array([[-2**63]])) == 2.0**63
    # M_2 = [[0]] is not the adjoint of M_1 = [[-2^63]], at distance 2^63;
    # validation multiplies the images past the int64 bound and refuses
    rep = PartialRep(g, [np.array([[1]]), np.array([[-2**63]]), np.array([[0]])])
    with pytest.raises(ValueError, match=r"2\^63"):
        validate_partial_rep(rep, tol=0.0)
    # the adjoint law on the semigroup multiplies nothing and reports it
    table = dict(extend_to_semigroup(PartialRep(g, [np.eye(1, dtype=np.int64)] * 3)).table)
    table[generator(g, 1)], table[generator(g, 2)] = rep.matrices[1], rep.matrices[2]
    assert SgRepresentation(g, 1, table).max_star_deviation() == (2.0**63, (generator(g, 1),))
    # as does the multiplicativity scan, in int64 buffers: at the unit u,
    # f(u)f(u) = 2^62 against f(uu) = -2^31, the first pair and the worst
    table = {a: np.array([[2**31]]) for a in table}
    table[unit(g)] = np.array([[-(2**31)]])
    assert SgRepresentation(g, 1, table).max_multiplicative_deviation() == (2.0**62 + 2**31, (unit(g), unit(g)))


def test_restrict_to_group_names_the_first_missing_generator():
    """The idempotents of the klein4 0/1 table pass both scans but hold only
    the generator [e]: the first missing generator is the witness."""
    g = klein_four()
    ext = extend_to_semigroup(partial_rep_from_partial_action(bernoulli_partial_action(g)))
    idempotents = SgRepresentation(g, ext.dim, {a: m for a, m in ext.table.items() if a.is_idempotent()})
    assert idempotents.max_multiplicative_deviation() == idempotents.max_star_deviation() == (0.0, None)
    with pytest.raises(NotRepresentation, match="generator") as info:
        restrict_to_group(idempotents)
    assert info.value.witness == (generator(g, 1),)


def test_validation_multiplies_only_for_the_triple_law(monkeypatch):
    """Three products per pair (s, t): the derived law is not computed."""
    calls, matmul = [], reps._matmul

    def spy(x, y):
        calls.append(1)
        return matmul(x, y)

    monkeypatch.setattr(reps, "_matmul", spy)
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(6)))
    assert validate_partial_rep(rep).passed
    assert len(calls) == 3 * 6**2
