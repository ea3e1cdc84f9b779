import operator
import random
from functools import reduce

import numpy as np
import pytest

from invsg.actions import (
    InverseAction,
    PartialBijection,
    _index_rows,
    bernoulli_partial_action,
    restriction_action,
    to_inverse_action,
)
from invsg import reps, semigroup
from invsg.algebra import build_algebra
from invsg.groups import cyclic, dihedral, group_from_spec, klein_four
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
from invsg.semigroup import (
    CapExceeded,
    _stacked_laws,
    enumerate_semigroup,
    generator,
    idempotent,
    unit,
    universal_extension,
)

from conftest import (
    conjugated_regular_rep,
    extension_laws,
    left_regular_matrix,
    perturb_one_image,
    quaternion,
    random_restriction_action,
    signed_rep,
    translation_permutations,
)


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
    instead of being cast to -2^63, and the exact identity beside it is
    stacked as complex128 with it."""
    data = rep_to_dict(PartialRep(cyclic(2), [np.eye(1), np.array([[1e300]])]))
    rep = rep_from_dict(data)
    assert rep.matrices.dtype == np.complex128 and rep.matrices.shape == (2, 1, 1)
    assert rep.matrices[1][0, 0] == 1e300
    assert not rep.exact


def test_unsigned_matrices_stack_as_exact_int64():
    """A uint64 matrix beside int64 ones is read as int64, so the stack
    stays exact; a uint64 entry at 2^63 or past it is refused."""
    g = cyclic(2)
    rep = PartialRep(g, [np.eye(1, dtype=np.uint64), np.array([[1]], dtype=np.int64)])
    assert rep.matrices.dtype == np.int64 and rep.exact and validate_partial_rep(rep).tol == 0.0
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="int64"):
            PartialRep(g, [np.eye(1, dtype=np.int64), np.array([[big]], dtype=np.uint64)])


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


@pytest.mark.parametrize("bad", ["nan", "inf", "dimension"])
def test_a_dense_table_refuses_non_finite_and_misshapen_images(bad):
    """One image of the cyclic:3 0/1 table as float64, not a generator's,
    made all NaN, given an infinite entry or one more row and column: the
    table is refused before any scan could read it."""
    g = cyclic(3)
    ext = extend_to_semigroup(_zero_one_rep())
    table = {a: m.astype(np.float64) for a, m in ext.table.items()}
    a = list(table)[5]
    assert a not in {generator(g, t) for t in g.elements()}
    if bad == "nan":
        table[a] = np.full_like(table[a], np.nan)
    elif bad == "inf":
        table[a][0, 0] = np.inf
    else:
        table[a] = np.eye(ext.dim + 1)
    with pytest.raises(ValueError, match="non-finite" if bad != "dimension" else "expected 4"):
        SgRepresentation(g, ext.dim, table)


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


def test_a_dense_table_without_a_star_is_refused_by_name():
    """The cyclic:3 table holding only [1]: the star scan names [1], whose
    star [2] has no image, in a ValueError, as the product scan refuses
    the same table for not being closed."""
    g = cyclic(3)
    sgrep = SgRepresentation(g, 2, {generator(g, 1): np.eye(2)})
    with pytest.raises(ValueError, match="not closed"):
        sgrep.max_multiplicative_deviation()
    with pytest.raises(ValueError, match=r"no image of the star SgElement\(\[0, 2\], deg=2\) of SgElement\(\[0, 1\], deg=1\)"):
        sgrep.max_star_deviation()


def test_a_table_that_is_not_closed_is_refused_before_any_product():
    """The cyclic:3 table holding the unit and [1], whose square [1][1]
    it lacks: refused for not being closed before the first row's
    product overflows float64 and before integer entries past 2^31 are
    refused for int64."""
    g = cyclic(3)
    for big in (np.array([[1e200]]), np.array([[2**40]])):
        sgrep = SgRepresentation(g, 1, {unit(g): big, generator(g, 1): np.ones((1, 1), dtype=big.dtype)})
        with pytest.raises(ValueError, match="not closed"):
            sgrep.max_multiplicative_deviation()


def test_a_mixed_mapping_is_one_float_stack():
    """Every other image of the cyclic:3 0/1 table as float64, one entry
    of a non-generator set to 2: the table is one float64 stack of the
    same values, and each scan reports what it reports on the all-float
    table.  The valid mixed table restricts to float64 matrices."""
    g = cyclic(3)
    ext = extend_to_semigroup(_zero_one_rep())
    valid = {a: m.astype(np.float64) if i % 2 else m for i, (a, m) in enumerate(ext.table.items())}
    mixed = dict(valid)
    a = list(mixed)[5]
    mixed[a] = mixed[a].copy()
    mixed[a][0, 0] = 2
    assert {m.dtype for m in mixed.values()} == {np.dtype(np.int64), np.dtype(np.float64)}
    sgrep = SgRepresentation(g, ext.dim, mixed)
    floats = SgRepresentation(g, ext.dim, {a: m.astype(np.float64) for a, m in mixed.items()})
    assert sgrep.table.rows.dtype == np.float64 and sgrep.table.rows.shape == (len(mixed), ext.dim, ext.dim)
    assert all(np.array_equal(sgrep(a), m) for a, m in mixed.items())
    scans = ("max_multiplicative_deviation", "max_star_deviation", "max_partial_isometry_deviation")
    assert [getattr(sgrep, scan)() for scan in scans] == [getattr(floats, scan)() for scan in scans]
    assert sgrep.max_multiplicative_deviation()[0] > 0
    back = restrict_to_group(SgRepresentation(g, ext.dim, valid))
    assert not back.exact and all(np.array_equal(b, m) for b, m in zip(back.matrices, _zero_one_rep().matrices))


def test_an_empty_mapping_is_refused_at_its_first_generator():
    """An empty table is constructible and its element scans find
    nothing; restricting it names the generator of the first index."""
    g = cyclic(3)
    empty = SgRepresentation(g, 2, {})
    assert len(empty.table) == 0 and empty.table.rows.shape == (0, 2, 2)
    assert empty.max_star_deviation() == empty.max_partial_isometry_deviation() == (0.0, None)
    assert empty.max_multiplicative_deviation() == (0.0, None)
    with pytest.raises(NotRepresentation, match=r"no image of the generator SgElement\(\[0\], deg=0\)") as info:
        restrict_to_group(empty)
    assert info.value.witness == (generator(g, 0),)


def test_a_dense_extension_is_read_off_its_stack():
    """Each image of the dense extension of a float rep of dihedral:3 is
    a view of the table's one (112, 6, 6) array; the restriction copies
    its generator images, so it does not keep that array alive."""
    ext = extend_to_semigroup(conjugated_regular_rep(dihedral(3)))
    assert ext.table.rows.shape == (112, 6, 6)
    assert all(np.shares_memory(ext(a), ext.table.rows) for a in ext.table)
    assert not any(np.shares_memory(m, ext.table.rows) for m in restrict_to_group(ext).matrices)


def test_validation_multiplies_only_for_the_triple_law(monkeypatch):
    """Three products per pair (s, t) of a matrix rep (the signed
    Bernoulli rep, which is not a partial-permutation rep), counted by
    batch size: the derived law is not computed."""
    calls = _count_products(monkeypatch)
    rep = signed_rep(partial_rep_from_partial_action(bernoulli_partial_action(cyclic(6))))
    assert validate_partial_rep(rep).passed
    assert sum(calls) == 3 * 6**2


_MIXED = {  # int64 beside float64 matrices: one float64 stack
    "mixed dtypes": (cyclic(2), [np.array([[2097144]]), np.array([[2.0**-40]])]),  # c^3 - c^2 is rounded
    "mixed dtypes past 2^63": (cyclic(3), [np.array([[1]]), np.array([[2**40]]), np.array([[2.0**-40]])]),  # finite in float64
}


def _law_case(case):
    """A rep for the law oracle below."""
    rng = np.random.default_rng(5)
    if case == "noisy float":
        mats = conjugated_regular_rep(cyclic(5), 1).matrices
        return PartialRep(cyclic(5), [m + rng.normal(scale=1e-12, size=m.shape) for m in mats])
    if case == "noisy complex":
        g = cyclic(4)
        q = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
        mats = partial_rep_from_partial_action(bernoulli_partial_action(g)).matrices
        return PartialRep(g, [q @ m @ q.conj().T + rng.normal(scale=1e-12, size=m.shape) for m in mats])
    if case == "zero-one":
        action = perturb_one_image(bernoulli_partial_action(klein_four()), random.Random(3))
        return partial_rep_from_partial_action(action)
    if case == "integer near 2^63":  # (c c) c - c, close to 2^63, is exact only in the uint64 view
        return PartialRep(cyclic(2), [np.array([[1]]), np.array([[-(2**21 - 1)]])])
    if case == "integer past 2^63":
        return PartialRep(cyclic(3), [np.array([[1]]), np.array([[-(2**63)]]), np.array([[0]])])
    if case == "integer pairs below 2^63":  # each pair's bound is at most 2^50, all products' 2^75
        return PartialRep(cyclic(3), [np.array([[1]]), np.array([[2**25]]), np.array([[1]])])
    if case in _MIXED:
        return PartialRep(*_MIXED[case])
    return PartialRep(cyclic(3), [np.zeros((0, 0))] * 3)


def _raised_or(compute):
    try:
        return compute()
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("rows_per_block", [None, 1])
@pytest.mark.parametrize(
    "case",
    [
        "noisy float",
        "noisy complex",
        "zero-one",
        "integer near 2^63",
        "integer past 2^63",
        "integer pairs below 2^63",
        "mixed dtypes",
        "mixed dtypes past 2^63",
        "dim 0",
    ],
)
def test_stacked_laws_are_the_generic_laws(monkeypatch, case, rows_per_block):
    """``_stacked_laws`` gives, pair for pair and bit for bit, the
    distances of the pair-by-pair oracle ``extension_laws``: with
    ``_matmul`` and the max-abs distance on the matrices, or composition
    and ``!=`` on the partial bijections of a 0/1 rep against its index
    rows.  The triple-product check of ``validate_partial_rep`` is their
    first worst pair; both raise where a product would pass 2^63, and
    only there.  Matrices of mixed dtypes are one stack in the dtype they
    promote to, and validate as the same matrices cast to it."""
    if rows_per_block:
        monkeypatch.setattr(semigroup, "SCAN_BYTES", 1)
    rep = _law_case(case)
    g = rep.group
    if case in _MIXED:
        assert rep.matrices.dtype == np.float64 and not rep.exact
        cast = PartialRep(g, [m.astype(np.float64) for m in _MIXED[case][1]])
        assert validate_partial_rep(rep, tol=0.0) == validate_partial_rep(cast, tol=0.0)
    maps = reps._partial_bijections(rep.matrices)
    if maps is None:
        generic = (rep.matrices, reps._matmul, lambda x, y: float(reps._distance(x, y)))
        batched = (rep.matrices, reps._matmul, reps._distance)
    else:
        generic = (maps, operator.mul, lambda f, h: float(f != h))
        batched = (_index_rows(maps, rep.dim),)
    laws = _raised_or(lambda: [[d for _, _, d in law] for law in extension_laws(g, *generic)])
    stacked = _raised_or(lambda: [law.ravel().tolist() for law in _stacked_laws(g, *batched)])
    assert stacked == laws
    check = _raised_or(lambda: _checks(validate_partial_rep(rep, tol=0.0))[0])
    if laws is ValueError:
        assert check is ValueError
    else:
        assert check == _first_max(zip(laws[0], ((s, t) for s in g.elements() for t in g.elements())))
        assert case == "dim 0" or check[0] > 0


def _first_max(deviations):
    worst, witness = 0.0, None
    for d, w in deviations:
        if d > worst:
            worst, witness = d, w
    return worst, witness


def _matrix_report(rep):
    """The (deviation, witness) of each law on the matrices themselves:
    the triple law of ``extension_laws`` with ``_matmul``, and max-abs
    distances."""
    g, mats = rep.group, rep.matrices
    laws = extension_laws(g, mats, reps._matmul, lambda x, y: max_abs(x - y))[0]
    return [
        _first_max((d, (s, t)) for s, t, d in laws),
        _first_max((max_abs(mats[g.inv(t)] - mats[t].T), (t,)) for t in g.elements()),
        (max_abs(mats[g.identity] - np.eye(rep.dim, dtype=np.int64)), (g.identity,)),
    ]


def _checks(report):
    return [(c.deviation, c.witness) for c in report.checks]


def _count_products(monkeypatch):
    """One entry per ``_matmul`` call: the number of matrix products it
    makes, one per matrix of its broadcast stacks."""
    calls, matmul = [], reps._matmul

    def spy(x, y):
        calls.append(int(np.prod(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]))))
        return matmul(x, y)

    monkeypatch.setattr(reps, "_matmul", spy)
    return calls


def _zero_one_rep():
    return partial_rep_from_partial_action(bernoulli_partial_action(cyclic(3)))


@pytest.mark.parametrize(
    "change",
    ["two 1s in a column", "two 1s in a row", "an entry 2", "an entry -1", "float dtype", "bool dtype", "dimension 0"],
)
def test_partial_permutation_reps_are_recognised_exactly(change):
    """Only integer 0/1 matrices with at most one 1 per row and per
    column, of positive dimension, are read as partial bijections, and
    then as the ones whose 0/1 matrices they are."""
    rep = _zero_one_rep()
    action = bernoulli_partial_action(cyclic(3))
    assert reps._partial_bijections(rep.matrices) == list(action.theta)
    mats = [m.copy() for m in rep.matrices]
    m = mats[1]
    x = int(np.flatnonzero(m.any(axis=0))[0])  # a defined point, m[y, x] = 1
    y = int(np.argmax(m[:, x]))
    if change == "two 1s in a column":
        m[(y + 1) % rep.dim, x] = 1
    elif change == "two 1s in a row":
        m[y, (x + 1) % rep.dim] = 1
    elif change == "an entry 2":
        m[y, x] = 2
    elif change == "an entry -1":
        m[y, x] = -1
    elif change == "float dtype":
        mats = [a.astype(np.float64) for a in mats]
    elif change == "bool dtype":
        mats = [a.astype(bool) for a in mats]
    else:
        mats = [np.zeros((0, 0), dtype=np.int64)] * 3
    assert reps._partial_bijections(np.stack(mats)) is None


def test_bool_matrices_are_read_as_zero_one_integers():
    """A bool matrix denotes its int64 0/1 matrix: the all-ones J of
    cyclic:2 gets the int64 copy's report, where J J J = 4J fails the
    triple law, and a bool copy of the cyclic:3 0/1 rep is a
    partial-permutation rep that round-trips exactly."""
    mats = [np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)]
    rep = PartialRep(cyclic(2), mats)
    report = validate_partial_rep(rep)
    assert report == validate_partial_rep(PartialRep(cyclic(2), [m.astype(np.int64) for m in mats]))
    assert not report.passed and report.checks[0].deviation == 3.0
    zero_one = _zero_one_rep()
    as_bool = PartialRep(zero_one.group, [m.astype(bool) for m in zero_one.matrices])
    assert as_bool.exact and reps._partial_bijections(as_bool.matrices) is not None
    ext = extend_to_semigroup(as_bool)
    assert isinstance(ext.table, reps._RowTable)
    back = restrict_to_group(ext)
    assert all(m.dtype == np.int64 and np.array_equal(m, r) for m, r in zip(back.matrices, zero_one.matrices))


def test_a_zero_one_rep_with_two_ones_in_a_column_takes_the_matrix_route(monkeypatch):
    """One 1 added to a column of a 0/1 Bernoulli matrix: still 0/1, no
    longer a partial permutation, so the laws multiply matrices, and the
    report is the matrix reference."""
    rep = _zero_one_rep()
    mats = [m.copy() for m in rep.matrices]
    x = int(np.flatnonzero(mats[1].any(axis=0))[0])
    mats[1][:, x] = 1
    bad = PartialRep(rep.group, mats)
    expected = _matrix_report(bad)
    calls = _count_products(monkeypatch)
    report = validate_partial_rep(bad)
    assert calls and not report.passed
    assert _checks(report) == expected


def _invalid_partial_permutation_reps():
    rng = random.Random(8)
    found = []
    while len(found) < 12:
        action = perturb_one_image(random_restriction_action(rng), rng)
        if action is not None:
            found.append(partial_rep_from_partial_action(action))
    found.append(PartialRep(cyclic(2), [np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)]))
    return found


def test_invalid_partial_permutation_reps_report_as_the_matrices_do(monkeypatch):
    """Perturbed actions give invalid partial-permutation reps: each law
    has the deviation and the first witness of the matrix reference, and
    no matrix is multiplied."""
    failed = 0
    for rep in _invalid_partial_permutation_reps():
        assert reps._partial_bijections(rep.matrices) is not None
        expected = _matrix_report(rep)
        calls = _count_products(monkeypatch)
        report = validate_partial_rep(rep)
        assert calls == [] and _checks(report) == expected
        failed += not report.passed
        monkeypatch.undo()
    assert failed >= 10


def test_both_routes_extend_and_check_alike(monkeypatch):
    """Valid and invalid partial-permutation reps, extended at tolerance 1
    so the invalid ones extend too: the table, and every deviation and
    witness of the semigroup checks, are those of the matrix route."""
    rng = random.Random(9)
    cases = _invalid_partial_permutation_reps()[:6] + [
        partial_rep_from_partial_action(random_restriction_action(rng)) for _ in range(4)
    ]
    cases.append(partial_rep_from_partial_action(bernoulli_partial_action(klein_four())))

    def checked(rep):
        ext = extend_to_semigroup(rep, tol=1.0)
        summary = (
            ext.max_multiplicative_deviation(),
            ext.max_star_deviation(),
            ext.max_partial_isometry_deviation(),
        )
        return _checks(validate_partial_rep(rep, tol=1.0)), summary, list(ext.table.items())

    via_actions = [checked(rep) for rep in cases]
    monkeypatch.setattr(reps, "_partial_bijections", lambda matrices: None)
    via_matrices = [checked(rep) for rep in cases]
    assert any(summary[0][0] == 1.0 for _, summary, _ in via_matrices)
    for (report, summary, table), (report_m, summary_m, table_m) in zip(via_actions, via_matrices):
        assert report == report_m and summary == summary_m
        assert [a for a, _ in table] == [a for a, _ in table_m]
        assert all(m.dtype == np.int64 and np.array_equal(m, r) for (_, m), (_, r) in zip(table, table_m))


def test_bernoulli_round_trip_multiplies_no_matrix(monkeypatch):
    """The 0/1 Bernoulli rep of dihedral:3 goes through its partial
    action: no matrix product, and dense matrices for the p generators of
    the restriction only."""
    g = dihedral(3)
    rep = partial_rep_from_partial_action(bernoulli_partial_action(g))
    calls = _count_products(monkeypatch)
    built, zero_one = [], reps._zero_one

    def spy(f):
        built.append(f)
        return zero_one(f)

    monkeypatch.setattr(reps, "_zero_one", spy)
    assert validate_partial_rep(rep).passed
    ext = extend_to_semigroup(rep)
    assert ext.max_partial_isometry_deviation() == ext.max_star_deviation() == (0.0, None)
    back = restrict_to_group(ext)
    assert calls == [] and len(built) <= g.order
    assert all(m.dtype == np.int64 and np.array_equal(m, r) for m, r in zip(back.matrices, rep.matrices))
    assert list(ext.table) == enumerate_semigroup(g) and len(ext.table) == 112
    a = enumerate_semigroup(g)[57]
    assert a in ext.table and np.array_equal(ext(a), _zero_one(to_inverse_action(bernoulli_partial_action(g))(a)))


@pytest.mark.parametrize(
    "g",
    [cyclic(1), cyclic(2), cyclic(3), klein_four(), cyclic(5), cyclic(6), dihedral(3)],
    ids=["cyclic1", "cyclic2", "cyclic3", "klein4", "cyclic5", "cyclic6", "dihedral3"],
)
def test_index_array_rows_are_partial_isometries(g):
    """Why the isometry check of an action-backed rep reads no row: from
    random generator images that are no partial action, every row of the
    index array is a composite of partial bijections, so it is injective
    on its domain, and the dense check of its 0/1 matrices gives 0."""
    rng = random.Random(g.order)
    n = 5
    images = []
    for _ in g.elements():
        perm = rng.sample(range(n), n)
        images.append(PartialBijection(tuple(perm[x] if rng.random() < 0.7 else None for x in range(n))))
    assert any(images[g.inv(r)] != images[r].invert() for r in g.elements())
    table = InverseAction(g, n, images).table()
    elements, rows = table.elements, table.rows
    for row in rows.tolist():
        defined = [y for y in row[:n] if y != n]
        assert len(set(defined)) == len(defined)
    dense = SgRepresentation(g, n, {a: reps._zero_one(row) for a, row in zip(elements, rows)})
    assert dense.max_partial_isometry_deviation() == (0.0, None)


def test_isometry_check_of_an_action_backed_rep_builds_no_matrix(monkeypatch):
    """At cyclic:10, 2816 images of the regular rep: with ``_zero_one``
    refusing to run from the extension on, the isometry check passes."""
    g = cyclic(10)
    rep = partial_rep_from_partial_action(restriction_action(g, translation_permutations(g, 1), range(10)))

    def no_matrix(row):
        raise AssertionError("a 0/1 matrix was built")

    monkeypatch.setattr(reps, "_zero_one", no_matrix)
    ext = extend_to_semigroup(rep)
    assert len(ext.table) == 2816
    assert ext.max_partial_isometry_deviation() == (0.0, None)


def test_the_action_route_keeps_the_cap():
    """The order-11 trivial rep of dimension 1 extends at cap 11 and its
    scans run at that cap; at the default cap it is refused."""
    g = cyclic(11)
    rep = PartialRep(g, [np.eye(1, dtype=np.int64)] * g.order)
    ext = extend_to_semigroup(rep, cap=11)
    assert len(ext.table) == 6144
    assert ext.max_multiplicative_deviation() == ext.max_star_deviation() == (0.0, None)
    with pytest.raises(CapExceeded):
        extend_to_semigroup(rep)


def test_dense_extension_is_the_plain_fold_bit_for_bit():
    """The 0/1 Bernoulli rep of dihedral:3 conjugated by a seeded random
    unitary, a float rep: each image of its dense extension (the batched
    fold) has the bytes of the ascending fold of M_r M_r^-1 over its
    support times M_s."""
    g = dihedral(3)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    q = np.linalg.qr(z)[0]
    zero_one = partial_rep_from_partial_action(bernoulli_partial_action(g)).matrices
    rep = PartialRep(g, [q @ m @ q.conj().T for m in zero_one])
    mats = rep.matrices
    ext = extend_to_semigroup(rep)
    for a in enumerate_semigroup(g):
        projections = [reps._matmul(mats[r], mats[g.inv(r)]) for r in g.elements() if a.support >> r & 1]
        folded = reps._matmul(reduce(reps._matmul, projections), mats[a.degree])
        assert ext(a).tobytes() == folded.tobytes()


@pytest.mark.parametrize("spec", ["dihedral:3", "cyclic:5", "Q8"])
def test_a_dense_extension_takes_three_products_per_group_element(monkeypatch, spec):
    """Past the triple law's 3p^2 products, counted by batch size, the
    batched fold of a dense rep makes 3p ``_matmul`` calls: one per
    projection, one per top bit over the 2^p masks and one per degree."""
    g = quaternion() if spec == "Q8" else group_from_spec(spec)
    rep = conjugated_regular_rep(g)
    calls = _count_products(monkeypatch)
    fold_starts, fold = [], reps._extension_rows

    def spy(*args):
        fold_starts.append(len(calls))
        return fold(*args)

    monkeypatch.setattr(reps, "_extension_rows", spy)
    extend_to_semigroup(rep)
    (start,) = fold_starts
    assert sum(calls[:start]) == 3 * g.order**2
    assert len(calls) - start == 3 * g.order


def test_a_dense_extension_has_one_dtype():
    """The generator images are stacked into one array, so an int64
    identity beside float64 images extends as float64 throughout, with
    the values and the deviation of the all-float rep."""
    g = dihedral(3)
    floats = [np.eye(6) if t == g.identity else m for t, m in enumerate(conjugated_regular_rep(g).matrices)]
    mixed = [np.eye(6, dtype=np.int64) if t == g.identity else m for t, m in enumerate(floats)]
    ext, ref = extend_to_semigroup(PartialRep(g, mixed)), extend_to_semigroup(PartialRep(g, floats))
    assert {m.dtype for m in ext.table.values()} == {np.dtype(np.float64)}
    assert all(np.array_equal(ext(a), ref(a)) for a in ref.table)
    assert ext.max_multiplicative_deviation()[0] == ref.max_multiplicative_deviation()[0] <= reps.FLOAT_TOL
