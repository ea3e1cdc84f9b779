"""The row-streamed multiplicativity scan against a pairwise reference.

``InverseAction.check_multiplicative`` and
``SgRepresentation.max_multiplicative_deviation`` must report the same
deviation and the same first witness, in the table's row-major order,
as the loop over every pair below, whatever the column blocks.
"""

import dataclasses
import inspect
import math
import operator
import sys
import time
import tracemalloc

import numpy as np
import pytest

from invsg import actions, reps, semigroup
from invsg.actions import (
    PartialAction,
    PartialBijection,
    bernoulli_partial_action,
    from_inverse_action,
    to_inverse_action,
)
from invsg.groups import cyclic, dihedral, group_from_spec, klein_four
from invsg.reps import (
    NotRepresentation,
    PartialRep,
    SgRepresentation,
    extend_to_semigroup,
    _matmul,
    max_abs,
    partial_rep_from_partial_action,
    restrict_to_group,
    validate_partial_rep,
)

from conftest import conjugated_regular_rep, quaternion, relabelled, signed_rep


def _pairwise(table, mul, distance):
    """The reference: products by SgElement arithmetic, every pair in
    row-major order, the first pair attaining the largest distance."""
    worst, witness = 0.0, None
    for a, fa in table.items():
        for b, fb in table.items():
            d = distance(table[a * b], mul(fa, fb))
            if d > worst:
                worst, witness = d, (a, b)
    return worst, witness


def _matrix_distance(x, y):
    return max_abs(x - y)


def _record_blocks(monkeypatch, module):
    """Record the row a of every block of columns that the pair scan
    behind ``module``'s multiplicativity check computes, read off f(a),
    the view of the stacked images that each block composes first, and
    the scan's (deviation, witness)."""
    blocks, results = [], []
    real = semigroup._worst_pair
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs)
        arguments.apply_defaults()
        images, compose = arguments.arguments["images"], arguments.arguments["compose"]
        start = images.__array_interface__["data"][0]

        def recorded(f, h):
            blocks.append((f.__array_interface__["data"][0] - start) // images.strides[0])
            return compose(f, h)

        arguments.arguments["compose"] = recorded
        results.append(real(*arguments.args, **arguments.kwargs))
        return results[-1]

    monkeypatch.setattr(module, "_worst_pair", spy)
    return blocks, results


def _columns_per_block(monkeypatch, image_bytes, columns):
    """Make the scan run ``columns`` columns per block (None: the default)."""
    if columns is not None:
        monkeypatch.setattr(semigroup, "SCAN_BYTES", columns * image_bytes)


def _bernoulli_rep_table(g):
    return extend_to_semigroup(partial_rep_from_partial_action(bernoulli_partial_action(g)))


def _corrupt_action_image(inv_action, a):
    """Drop the last defined point of the image of ``a`` in the action's
    index array, which its table and its scan both read."""
    _corrupt_row(inv_action.table(), a)


def _corrupt_row(table, a):
    """Drop the last defined point of the row of ``a`` in a row table."""
    row = table.rows[table.index[a]]
    marker = len(row) - 1
    row[np.flatnonzero(row[:-1] != marker)[-1]] = marker


GROUPS = [cyclic(3), cyclic(4), klein_four()]
GROUP_IDS = ["cyclic3", "cyclic4", "klein4"]
COLUMNS = [1, 3, None]


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_valid_bernoulli_tables_match_the_reference(g):
    inv_action = to_inverse_action(bernoulli_partial_action(g))
    assert inv_action.check_multiplicative() is None
    assert _pairwise(inv_action.table(), operator.mul, operator.ne) == (0.0, None)
    sgrep = _bernoulli_rep_table(g)
    assert sgrep.max_multiplicative_deviation() == (0.0, None)
    assert _pairwise(sgrep.table, operator.matmul, _matrix_distance) == (0.0, None)


def _positions(n, columns):
    """The first row, the last row, and the first column of the second block."""
    return [0, n - 1, columns if columns and columns < n else n // 2]


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_one_corrupted_image_matches_the_reference(monkeypatch, g, columns):
    """The last defined point dropped from one row of the action's index
    array; the reference reads the corrupted rows."""
    set_size = 1 << (g.order - 1)
    _columns_per_block(monkeypatch, np.min_scalar_type(set_size).itemsize * (set_size + 1), columns)
    for pos in _positions(len(semigroup.enumerate_semigroup(g)), columns):
        inv_action = to_inverse_action(bernoulli_partial_action(g))
        table = inv_action.table()
        _corrupt_action_image(inv_action, list(table)[pos])
        expected = _pairwise(table, operator.mul, operator.ne)[1]
        assert expected is not None
        assert inv_action.check_multiplicative() == expected


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_one_corrupted_entry_matches_the_reference(monkeypatch, g, columns):
    """One entry of one matrix of the exact 0/1 table set to 2."""
    dim = 1 << (g.order - 1)
    _columns_per_block(monkeypatch, 8 * dim * dim, columns)
    ext = _bernoulli_rep_table(g)
    for pos in _positions(len(ext.table), columns):
        table = dict(ext.table)
        a = list(table)[pos]
        table[a] = table[a].copy()
        table[a][dim - 1, 0] = 2
        sgrep = SgRepresentation(g, dim, table)
        expected = _pairwise(table, operator.matmul, _matrix_distance)
        assert expected[1] is not None
        assert sgrep.max_multiplicative_deviation() == expected


@pytest.mark.parametrize(
    "dtype, columns",
    [(np.float64, c) for c in COLUMNS] + [(np.complex128, c) for c in COLUMNS],
    ids=[str(c) for c in COLUMNS] + [f"complex-{c}" for c in COLUMNS],
)
def test_float_noise_matches_the_reference_bit_for_bit(monkeypatch, dtype, columns):
    g = klein_four()
    ext = _bernoulli_rep_table(g)
    _columns_per_block(monkeypatch, np.dtype(dtype).itemsize * ext.dim * ext.dim, columns)
    rng = np.random.default_rng(0)
    noisy = {a: m + rng.normal(scale=1e-12, size=m.shape).astype(dtype) for a, m in ext.table.items()}
    if dtype is np.complex128:
        noisy = {a: m + 1j * rng.normal(scale=1e-12, size=m.shape) for a, m in noisy.items()}
    deviation, witness = SgRepresentation(g, ext.dim, noisy).max_multiplicative_deviation()
    assert 0.0 < deviation < 1e-10
    assert (deviation, witness) == _pairwise(noisy, operator.matmul, _matrix_distance)


def test_mixed_integer_and_float_images_match_the_reference():
    """Every other image of the klein4 0/1 table as float64 and one entry
    set to 2: the stack promotes to float64, and the full scan gives the
    reference's deviation and witness."""
    g = klein_four()
    ext = _bernoulli_rep_table(g)
    table = {a: m.astype(np.float64) if i % 2 else m for i, (a, m) in enumerate(ext.table.items())}
    _corrupt_rep_image(table, list(table)[len(table) // 2])
    assert {m.dtype for m in table.values()} == {np.dtype(np.int64), np.dtype(np.float64)}
    expected = _pairwise(table, operator.matmul, _matrix_distance)
    assert expected[1] is not None
    assert SgRepresentation(g, ext.dim, table).max_multiplicative_deviation() == expected


@pytest.mark.parametrize("columns", COLUMNS)
def test_a_conjugated_float_rep_matches_the_reference(monkeypatch, columns):
    """The regular rep of dihedral:3, orthogonally conjugated and extended
    to its 112 elements: rounding noise in every product, and the
    reference's deviation and witness bit for bit, whatever the blocks."""
    ext = extend_to_semigroup(conjugated_regular_rep(dihedral(3)))
    _columns_per_block(monkeypatch, 8 * ext.dim * ext.dim, columns)
    deviation, witness = ext.max_multiplicative_deviation()
    assert 0.0 < deviation < 1e-12
    assert (deviation, witness) == _pairwise(ext.table, operator.matmul, _matrix_distance)


def test_the_scan_keeps_one_stacked_copy_of_the_images():
    """The dihedral:3 0/1 table conjugated by a unitary, 112 complex
    images of dimension 32 (1.75 MiB): the one stacked copy is the
    table's, built by the constructor, so the traced peak of the scan is
    the temporaries of a few blocks of SCAN_BYTES, within the size of
    the product table, which the scan does not build, and four blocks."""
    ext = _bernoulli_rep_table(dihedral(3))
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(ext.dim, ext.dim)) + 1j * rng.normal(size=(ext.dim, ext.dim)))
    sgrep = SgRepresentation(ext.group, ext.dim, {a: q @ m @ q.conj().T for a, m in ext.table.items()})
    images = sum(m.nbytes for m in sgrep.table.values())
    mult = semigroup.multiplication_tables(list(sgrep.table))[0]
    tracemalloc.start()
    try:
        deviation, _ = sgrep.max_multiplicative_deviation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < deviation < 1e-12
    assert images == 112 * 32 * 32 * 16
    assert peak < mult.nbytes + 4 * semigroup.SCAN_BYTES


def test_the_certified_scans_build_no_product_table(monkeypatch):
    """At cyclic:10 (n = 2816), a certified ``restrict_to_group`` of the
    dim-10 float regular rep and a passing ``check_multiplicative`` of
    the Bernoulli action look up the products of their generator rows
    only: neither calls ``multiplication_tables``, wherever the package
    binds it, and the traced peak of each stays below n^2 bytes, the
    size of any n x n array (the uint16 table takes 15.9 MB)."""

    def refuse(elements):
        raise AssertionError("multiplication_tables was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "invsg" and hasattr(module, "multiplication_tables"):
            monkeypatch.setattr(module, "multiplication_tables", refuse)
    g = cyclic(10)
    ext = extend_to_semigroup(conjugated_regular_rep(g))
    inv_action = to_inverse_action(bernoulli_partial_action(g))
    n = len(inv_action.table())
    assert n == len(ext.table) == 2816
    for check, expected in ((lambda: restrict_to_group(ext).dim, 10), (inv_action.check_multiplicative, None)):
        tracemalloc.start()
        try:
            assert check() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n


def _sheared(table, k):
    """M -> P M P^-1 for P = I + k E_xy, where some M has M[y, x] = 1: a
    multiplicative integer table with entries of size k^2 whose products
    cancel.  For k odd the products are not exact in float64."""
    m = next(m for m in table.values() if np.any(m - np.diag(np.diag(m))))
    y, x = map(int, np.argwhere(m - np.diag(np.diag(m)))[0])
    p = np.eye(len(m), dtype=np.int64)
    p_inv = np.eye(len(m), dtype=np.int64)
    p[x, y], p_inv[x, y] = k, -k
    return {a: p @ m @ p_inv for a, m in table.items()}


def test_large_integer_entries_stay_exact():
    """Entries near 2^30 put products past 2^53 but below 2^63: the scan
    multiplies in int64, where the cancellation is exact, and finds an
    off-by-one."""
    ext = _bernoulli_rep_table(cyclic(3))
    table = _sheared(ext.table, 30_001)
    assert max(max_abs(m) for m in table.values()) ** 2 * ext.dim >= 2**53
    assert SgRepresentation(ext.group, ext.dim, table).max_multiplicative_deviation() == (0.0, None)
    a = list(table)[len(table) // 2]
    table[a] = table[a] + np.eye(ext.dim, dtype=np.int64)
    deviation, witness = SgRepresentation(ext.group, ext.dim, table).max_multiplicative_deviation()
    assert deviation >= 1.0
    assert (deviation, witness) == _pairwise(table, operator.matmul, _matrix_distance)
    # the extension of the sheared generator images is the sheared table;
    # a shear is not unitary, so only the adjoint law fails, and is let through
    sheared = _sheared(ext.table, 30_001)
    g = ext.group
    rep = PartialRep(g, [sheared[semigroup.generator(g, t)] for t in g.elements()])
    triple, adjoint_law, identity = validate_partial_rep(rep, tol=0.0).checks
    assert triple.deviation == identity.deviation == 0.0 < adjoint_law.deviation
    extended = extend_to_semigroup(rep, tol=adjoint_law.deviation).table
    assert list(extended) == list(sheared)
    assert all(m.dtype == np.int64 and np.array_equal(m, sheared[a]) for a, m in extended.items())
    # entries near 2^40 put products past 2^63, where int64 could wrap: refused
    huge = _sheared(ext.table, 1_000_003)
    with pytest.raises(ValueError, match=r"2\^63"):
        SgRepresentation(ext.group, ext.dim, huge).max_multiplicative_deviation()


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("past", [False, True], ids=["float64", "int64"])
def test_random_integer_tables_match_the_reference_on_both_sides_of_2_53(monkeypatch, past, columns):
    """max|entry| m at the largest m whose differences, at most
    m + m^2 dim, stay below 2^53, where the scan multiplies in float64
    buffers, and at m + 1, just past it, where it multiplies in int64
    buffers: the same deviation and witness as the reference either way,
    and ``_matmul`` is never called."""
    g, dim = cyclic(3), 4
    m = math.isqrt(2**53 // dim)
    while m * (m * dim + 1) >= 2**53:
        m -= 1
    assert (m + 1) * ((m + 1) * dim + 1) >= 2**53
    _columns_per_block(monkeypatch, 8 * dim * dim, columns)
    rng = np.random.default_rng(4)
    table = {a: rng.integers(-m, m + past, size=(dim, dim), endpoint=True) for a in semigroup.enumerate_semigroup(g)}
    next(iter(table.values()))[0, 0] = m + past  # max|entry|
    expected = _pairwise(table, operator.matmul, _matrix_distance)
    products = []

    def spy(x, y):
        products.append(x.dtype)
        return _matmul(x, y)

    monkeypatch.setattr(reps, "_matmul", spy)
    assert SgRepresentation(g, dim, table).max_multiplicative_deviation() == expected
    assert expected[0] > 0 and products == []


def test_float_overflow_in_the_scan_raises():
    """The 0/1 table times 1e300: every product overflows float64."""
    ext = _bernoulli_rep_table(cyclic(3))
    table = {a: m * 1e300 for a, m in ext.table.items()}
    with pytest.raises(reps.NonFiniteProduct, match="overflow"):
        SgRepresentation(ext.group, ext.dim, table).max_multiplicative_deviation()


def test_empty_images():
    """Dimension 0 and ground-set size 0: every distance is 0."""
    g = cyclic(3)
    rep = PartialRep(g, [np.zeros((0, 0), dtype=np.int64)] * g.order)
    assert extend_to_semigroup(rep).max_multiplicative_deviation() == (0.0, None)
    action = PartialAction(g, 0, (PartialBijection(()),) * g.order)
    assert to_inverse_action(action).check_multiplicative() is None


ORDER_8 = [cyclic(8), dihedral(4), quaternion()]
ORDER_8_IDS = ["cyclic8", "dihedral4", "q8"]


@pytest.mark.parametrize("g", ORDER_8, ids=ORDER_8_IDS)
def test_order_8_bernoulli_round_trip(g):
    """576 elements on 128 points: the scan covers 331,776 pairs."""
    action = bernoulli_partial_action(g)
    start = time.perf_counter()
    back = from_inverse_action(to_inverse_action(action))
    elapsed = time.perf_counter() - start
    assert back == action
    assert elapsed < 1.0


def test_order_10_bernoulli_round_trip():
    """The largest Bernoulli action the order cap allows, 2816 elements
    on 512 points: its table is the size bound of ``InverseAction.table``."""
    action = bernoulli_partial_action(cyclic(10))
    inv_action = to_inverse_action(action)
    assert len(inv_action.table()) == 2816
    assert from_inverse_action(inv_action) == action


def test_an_action_table_past_the_bound_is_refused_before_any_image(monkeypatch):
    """Ten empty maps on 10^5 points: 2816 x 10^5 entries.  Neither the
    table nor a single image, which is read off the table, is computed."""
    inv_action = actions.InverseAction(cyclic(10), 10**5, [PartialBijection.empty(10**5)] * 10)

    def no_image(*args):
        raise AssertionError("an image was built")

    monkeypatch.setattr(actions, "_extension_rows", no_image)
    with pytest.raises(semigroup.CapExceeded):
        inv_action.table()
    with pytest.raises(semigroup.CapExceeded):
        inv_action(semigroup.unit(cyclic(10)))


def test_action_scan_stops_at_the_first_failing_pair(monkeypatch):
    """One image of the unit corrupted in the cyclic:8 Bernoulli table:
    the witness is the first failing pair in row-major order, and the
    scan ends inside row 0 instead of covering all 331,776 pairs."""
    inv_action = to_inverse_action(bernoulli_partial_action(cyclic(8)))
    table = inv_action.table()
    unit = semigroup.unit(cyclic(8))
    assert next(iter(table)) == unit
    _corrupt_action_image(inv_action, unit)
    expected = next((a, b) for a in table for b in table if table[a * b] != table[a] * table[b])
    assert expected[0] == unit

    blocks, results = _record_blocks(monkeypatch, actions)
    assert inv_action.check_multiplicative() == expected
    assert results == [(1.0, expected)]
    # all in row 0, which both the generator rows and the full scan start with
    assert set(blocks) == {0}
    row_bytes = np.min_scalar_type(128).itemsize * 129  # 128 points and the marker column
    assert len(blocks) <= 2 * -(-len(table) // (semigroup.SCAN_BYTES // row_bytes))


def _corrupt_rep_image(table, a):
    table[a] = table[a].copy()
    table[a][-1, 0] = 2


@pytest.mark.parametrize("g", [cyclic(3), klein_four()], ids=["cyclic3", "klein4"])
def test_every_corrupted_image_is_caught(g):
    """Each image of the action and of the 0/1 rep table corrupted in
    turn, generator rows and the others: the answer is the reference's,
    whether the generator rows or the full scan find it."""
    action = bernoulli_partial_action(g)
    for a in semigroup.enumerate_semigroup(g):
        inv_action = to_inverse_action(action)
        table = inv_action.table()
        _corrupt_action_image(inv_action, a)
        expected = _pairwise(table, operator.mul, operator.ne)[1]
        assert expected is not None
        assert inv_action.check_multiplicative() == expected
    ext = _bernoulli_rep_table(g)
    for a in ext.table:
        table = dict(ext.table)
        _corrupt_rep_image(table, a)
        expected = _pairwise(table, operator.matmul, _matrix_distance)
        assert expected[1] is not None
        assert SgRepresentation(g, ext.dim, table).max_multiplicative_deviation() == expected


@pytest.mark.parametrize("g", [cyclic(3), klein_four(), cyclic(5)], ids=["cyclic3", "klein4", "cyclic5"])
def test_row_star_and_isometry_scans_match_the_bijection_route(g):
    """The star and partial-isometry scans of a 0/1 rep run on the rows
    of its action's index array; with one, then a second, row corrupted,
    they report what ``_worst_case`` reports over the partial bijections
    a row table reads from the same rows."""
    ext = _bernoulli_rep_table(g)
    bijections = dataclasses.replace(ext.table, read=lambda row: actions._bijection(row, ext.dim))

    def by_bijections():
        star = reps._worst_case((float(bijections[a.star()] != f.invert()), (a,)) for a, f in bijections.items())
        isometry = reps._worst_case((float(f * f.invert() * f != f), (a,)) for a, f in bijections.items())
        return star, isometry

    assert (ext.max_star_deviation(), ext.max_partial_isometry_deviation()) == by_bijections() == ((0.0, None),) * 2
    elements = list(bijections)
    for a in (elements[len(elements) // 2], elements[1]):
        _corrupt_row(ext.table, a)
        expected = by_bijections()
        assert expected[0][0] == 1.0
        assert (ext.max_star_deviation(), ext.max_partial_isometry_deviation()) == expected


def test_a_table_without_the_generators_gets_the_full_scan():
    """The idempotents are closed but hold only the generator [e], the
    unit: a corrupted idempotent, which the unit row cannot see, is
    found as in the reference."""
    g = klein_four()
    rep_table = {a: m for a, m in _bernoulli_rep_table(g).table.items() if a.is_idempotent()}
    a = list(rep_table)[-1]
    assert a != semigroup.unit(g)
    _corrupt_rep_image(rep_table, a)
    expected = _pairwise(rep_table, operator.matmul, _matrix_distance)
    assert expected[1] is not None
    dim = 1 << (g.order - 1)
    assert SgRepresentation(g, dim, rep_table).max_multiplicative_deviation() == expected


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_only_integer_tables_are_certified_on_the_generator_rows(monkeypatch, dtype):
    """A valid 0/1 table: as int64 only its p generator rows are
    scanned, as float64 every row is.  (``restrict_to_group`` may bound
    a float table from its generator rows; see the tests below.)"""
    g = klein_four()
    table = {a: m.astype(dtype) for a, m in _bernoulli_rep_table(g).table.items()}
    blocks, _ = _record_blocks(monkeypatch, reps)
    assert SgRepresentation(g, 8, table).max_multiplicative_deviation() == (0.0, None)
    index = {a: i for i, a in enumerate(table)}
    generators = {index[semigroup.generator(g, t)] for t in g.elements()}
    assert set(blocks) == (generators if dtype is np.int64 else set(range(len(table))))


@pytest.mark.parametrize("g", ORDER_8, ids=ORDER_8_IDS)
def test_order_8_bernoulli_rep_round_trip(g):
    """The 0/1 rep on 128 points: 576 matrices of size 128, checked exactly."""
    rep = partial_rep_from_partial_action(bernoulli_partial_action(g))
    start = time.perf_counter()
    back = restrict_to_group(extend_to_semigroup(rep))
    elapsed = time.perf_counter() - start
    assert all(m.dtype == np.int64 and np.array_equal(m, r) for m, r in zip(back.matrices, rep.matrices))
    assert elapsed < 6.0


@pytest.mark.parametrize("g", [cyclic(10), dihedral(5)], ids=["cyclic10", "dihedral5"])
def test_order_10_bernoulli_rep_round_trip(g):
    """The 0/1 rep on 512 points at the order cap, 2816 images: exact,
    with a traced peak far below the 5.9 GB of the dense images."""
    rep = partial_rep_from_partial_action(bernoulli_partial_action(g))
    tracemalloc.start()
    try:
        assert validate_partial_rep(rep).passed
        ext = extend_to_semigroup(rep)
        assert ext.max_partial_isometry_deviation() == (0.0, None)
        back = restrict_to_group(ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ext.table) == 2816
    assert all(m.dtype == np.int64 and np.array_equal(m, r) for m, r in zip(back.matrices, rep.matrices))
    assert peak < 500 * 2**20


def test_a_float_rep_of_q8_round_trips():
    """The regular rep of Q8, orthogonally conjugated: dense float64
    images of dimension 8 for all 576 elements, multiplicative (by the
    bound on its 8 generator rows) and star-preserving to FLOAT_TOL."""
    rep = conjugated_regular_rep(quaternion())
    ext = extend_to_semigroup(rep)
    assert len(ext.table) == 576 and ext.dim == 8
    back = restrict_to_group(ext)
    assert max(max_abs(b - m) for b, m in zip(back.matrices, rep.matrices)) <= reps.FLOAT_TOL


def test_integer_reps_keep_an_integer_dtype(monkeypatch):
    """Every product of the validation, the extension and the isometry
    check of an integer matrix rep (the signed Bernoulli rep, which is not
    a partial-permutation rep) comes back as int64."""
    products = []

    def spy(x, y):
        products.append(_matmul(x, y))
        return products[-1]

    monkeypatch.setattr(reps, "_matmul", spy)
    rep = signed_rep(partial_rep_from_partial_action(bernoulli_partial_action(klein_four())))
    for check in (
        lambda: validate_partial_rep(rep).passed,
        lambda: all(m.dtype == np.int64 for m in extend_to_semigroup(rep).table.values()),
        lambda: extend_to_semigroup(rep).max_partial_isometry_deviation() == (0.0, None),
    ):
        products.clear()
        assert check()
        assert products and all(m.dtype == np.int64 for m in products)


def test_matmul_is_exact():
    """Below the bound through float64, past it in the operands' dtype."""
    rng = np.random.default_rng(1)
    x, y = rng.integers(-1000, 1000, size=(2, 5, 5))
    assert _matmul(x, y).dtype == np.int64
    assert np.array_equal(_matmul(x, y), x @ y)
    assert np.array_equal(_matmul(x, y[None]), x @ y[None])
    big = np.array([[2**27 + 1]])  # its square is not a float64
    assert _matmul(big, big)[0, 0] == (2**27 + 1) ** 2
    assert _matmul(x.astype(np.int32), y.astype(np.int32)).dtype == np.int64
    assert _matmul(x.astype(float), y).dtype == np.float64
    assert _matmul(x * 1j, y).dtype == np.complex128


def test_matmul_refuses_int64_overflow():
    """Past max|x| * max|y| * k = 2^63 an int64 product could wrap
    (2^40 * 2^40 wraps to 0), so the bound is named in a ValueError."""
    with pytest.raises(ValueError, match=r"2\^63"):
        _matmul(np.array([[2**40]]), np.array([[2**40]]))
    with pytest.raises(ValueError, match=r"2\^63"):
        _matmul(np.array([[2**31, 2**31]]), np.array([[2**31], [2**31]]))
    below = np.array([[2**30, 2**30]])  # 2^30 * 2^30 * 2 = 2^61
    assert _matmul(below, below.T)[0, 0] == 2**61


def test_stacks_multiply_as_their_pairs_one_at_a_time():
    """Stacks of integer matrices take the bound of their worst pair, not
    the product of the stacks' largest entries: m m^adj m of each of a, b
    stays below 2^63, but the largest entry of the m m^adj stack (from
    a) times that of the m stack (from b) does not."""
    a, b = 1_300_000, 1_650_000  # 4a^3 and 2b^3 are below 2^63, 4a^2 b is not
    m = np.array([[[a, a], [a, a]], [[b, 0], [0, 0]]])
    each = [_matmul(_matmul(x, x.T), x) for x in m]
    assert np.array_equal(_matmul(_matmul(m, m.swapaxes(1, 2)), m), np.stack(each))
    with pytest.raises(ValueError, match=r"2\^63"):  # a pair past 2^63 is still refused
        _matmul(np.array([[[1]], [[2**40]]]), np.array([[[1]], [[2**40]]]))


def _unitary_bernoulli_rep(g, seed=0):
    """The 0/1 Bernoulli rep of ``g`` conjugated by a seeded random
    unitary: dense complex images, not a partial-permutation rep."""
    rep = partial_rep_from_partial_action(bernoulli_partial_action(g))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim)))
    return PartialRep(g, [q @ m @ q.conj().T for m in rep.matrices])


def _generator_indices(table):
    g = next(iter(table)).group
    index = {a: i for i, a in enumerate(table)}
    return {index[semigroup.generator(g, t)] for t in g.elements()}


def _group_rep_table(g, matrices):
    """(F, s) -> matrices[s]: multiplicative on S(G) whenever the
    matrices form a group representation, star-preserving only when they
    are unitary."""
    return {a: matrices[a.degree] for a in semigroup.enumerate_semigroup(g)}


CERTIFIED = [f"cyclic:{p}" for p in range(2, 11)] + [f"dihedral:{p}" for p in range(3, 6)]
CERTIFIED += ["Q8", "relabelled-dihedral:3", "unitary-dihedral:3"]


@pytest.mark.parametrize("spec", CERTIFIED)
def test_the_bound_certifies_float_reps_from_their_generator_rows(monkeypatch, spec):
    """``restrict_to_group`` on the extension of an orthogonally conjugated
    regular rep, or of the dim-32 unitary dihedral:3 Bernoulli rep: the
    scan kernel reads the p generator rows only, the bound is at most
    FLOAT_TOL / 2, and the generator images come back bit for bit, as
    the full scan lets them.  Up to order 8 the full scan also runs, and
    its maximum is at most the bound."""
    if spec == "unitary-dihedral:3":
        rep = _unitary_bernoulli_rep(dihedral(3))
    elif spec == "relabelled-dihedral:3":
        rep = conjugated_regular_rep(relabelled(dihedral(3), [4, 2, 0, 5, 1, 3]))
    else:
        rep = conjugated_regular_rep(quaternion() if spec == "Q8" else group_from_spec(spec))
    ext = extend_to_semigroup(rep)
    g = ext.group
    blocks, results = _record_blocks(monkeypatch, reps)
    back = restrict_to_group(ext)
    assert set(blocks) == _generator_indices(ext.table)
    [(bound, witness)] = results
    assert witness is None and 0.0 < bound <= reps.FLOAT_TOL / 2
    assert [m.tobytes() for m in back.matrices] == [ext(semigroup.generator(g, t)).tobytes() for t in g.elements()]
    if len(ext.table) <= 576:
        assert ext.max_multiplicative_deviation()[0] <= bound


def test_rounding_sized_noise_is_certified(monkeypatch):
    """1e-12 of noise on every image of the conjugated regular rep of
    cyclic:3: certified from the 3 generator rows, and the full scan
    agrees."""
    ext = extend_to_semigroup(conjugated_regular_rep(cyclic(3)))
    rng = np.random.default_rng(0)
    noisy = SgRepresentation(ext.group, ext.dim, {a: m + rng.normal(scale=1e-12, size=m.shape) for a, m in ext.table.items()})
    blocks, results = _record_blocks(monkeypatch, reps)
    restrict_to_group(noisy)
    assert set(blocks) == _generator_indices(noisy.table)
    [(bound, witness)] = results
    assert witness is None and bound <= reps.FLOAT_TOL / 2
    assert 0.0 < noisy.max_multiplicative_deviation()[0] <= bound


def test_noise_near_the_tolerance_is_left_to_the_scan(monkeypatch):
    """Noise scaled so that the scan's maximum is about 0.9 FLOAT_TOL: the
    bound does not certify it, and the full scan runs and passes it."""
    ext = extend_to_semigroup(conjugated_regular_rep(dihedral(3)))
    rng = np.random.default_rng(1)
    noise = {a: rng.normal(size=m.shape) for a, m in ext.table.items()}

    def noisy(scale):
        return SgRepresentation(ext.group, ext.dim, {a: m + scale * noise[a] for a, m in ext.table.items()})

    scale = 0.9 * reps.FLOAT_TOL / noisy(1e-12).max_multiplicative_deviation()[0] * 1e-12
    table = noisy(scale)
    expected = table.max_multiplicative_deviation()
    assert 0.8 * reps.FLOAT_TOL < expected[0] <= reps.FLOAT_TOL
    blocks, results = _record_blocks(monkeypatch, reps)
    restrict_to_group(table)
    assert set(blocks) == set(range(len(table.table)))
    assert results == [expected]


def test_a_moved_image_is_refused_as_the_scan_refuses_it():
    """One image that is no generator's moved by 2 FLOAT_TOL: the
    message and the witness are those of the full scan."""
    ext = extend_to_semigroup(conjugated_regular_rep(dihedral(3)))
    table = dict(ext.table)
    a = list(table)[len(table) // 2]
    assert a not in {semigroup.generator(ext.group, t) for t in ext.group.elements()}
    table[a] = table[a] + 2 * reps.FLOAT_TOL
    sgrep = SgRepresentation(ext.group, ext.dim, table)
    deviation, witness = sgrep.max_multiplicative_deviation()
    assert witness is not None
    with pytest.raises(NotRepresentation) as info:
        restrict_to_group(sgrep)
    assert str(info.value) == f"not multiplicative (deviation {deviation:.3e})"
    assert info.value.witness == witness


def test_large_images_are_left_to_the_scan(monkeypatch):
    """The regular rep of cyclic:3 conjugated by diag(1, 2^10, 2^20): every
    product is exact, so the scan reads 0, but ||f(t)|| = 2^20 puts the
    bound far past FLOAT_TOL.  The full scan runs, and the table is
    refused as not star-preserving, as the parent refuses it."""
    g = cyclic(3)
    s = np.diag([1.0, 2.0**10, 2.0**20])
    regular = [np.eye(3)[[g.mul(t, y) for y in range(3)]].T for t in g.elements()]
    sgrep = SgRepresentation(g, 3, _group_rep_table(g, [s @ m @ np.linalg.inv(s) for m in regular]))
    blocks, results = _record_blocks(monkeypatch, reps)
    deviation, witness = sgrep.max_star_deviation()
    with pytest.raises(NotRepresentation, match="not star-preserving") as info:
        restrict_to_group(sgrep)
    assert info.value.witness == witness and deviation > 1.0
    assert results == [(0.0, None)] and set(blocks) == set(range(len(sgrep.table)))


def test_an_overflowing_generator_row_raises_as_the_scan_does():
    """The generator image f([1]) of the cyclic:3 regular rep times
    1e200: f([1])f([1]) overflows, and restrict_to_group raises the
    NonFiniteProduct of the full scan."""
    g = cyclic(3)
    table = _group_rep_table(g, list(conjugated_regular_rep(g).matrices))
    table[semigroup.generator(g, 1)] = table[semigroup.generator(g, 1)] * 1e200
    sgrep = SgRepresentation(g, 3, table)
    with pytest.raises(reps.NonFiniteProduct) as scanned:
        sgrep.max_multiplicative_deviation()
    with pytest.raises(reps.NonFiniteProduct) as restricted:
        restrict_to_group(sgrep)
    assert str(restricted.value) == str(scanned.value)


def test_no_random_table_is_certified_past_its_scan():
    """A seeded sweep over small float tables: conjugated regular reps,
    some also conjugated by a random diagonal (so not star-preserving),
    and unitary Bernoulli reps, with noise of scale 1e-15 to 1e-8 on every
    image or on one.  A certified table's scan maximum is at most its
    bound, so at most FLOAT_TOL / 2; any other table gets the full scan's
    answer."""
    rng = np.random.default_rng(7)
    groups = [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5), dihedral(3)]
    certified = scanned = 0
    for _ in range(80):
        g = groups[rng.integers(len(groups))]
        if g.order <= 4 and rng.random() < 0.3:
            table = dict(extend_to_semigroup(_unitary_bernoulli_rep(g, int(rng.integers(100)))).table)
        else:
            mats = conjugated_regular_rep(g, int(rng.integers(100))).matrices
            if rng.random() < 0.3:
                d = np.diag(rng.uniform(0.5, 2.0, g.order))
                mats = [d @ m @ np.linalg.inv(d) for m in mats]
            table = _group_rep_table(g, mats)
        scale = 10.0 ** rng.uniform(-15, -8)
        moved = list(table) if rng.random() < 0.5 else [list(table)[rng.integers(len(table))]]
        for a in moved:
            table[a] = table[a] + rng.normal(scale=scale, size=table[a].shape)
        sgrep = SgRepresentation(g, len(next(iter(table.values()))), table)
        expected = sgrep.max_multiplicative_deviation()
        bound, witness = sgrep._multiplicative(reps.FLOAT_TOL)
        if witness is None:
            certified += 1
            assert expected[0] <= bound <= reps.FLOAT_TOL / 2
        else:
            scanned += 1
            assert (bound, witness) == expected
    assert certified >= 10 and scanned >= 10


def test_the_order_10_float_rep_round_trips_in_time():
    """The dim-10 float rep of cyclic:10: 2816 images, whose full scan
    reads 7.9 M pairs, certified from 10 generator rows."""
    rep = conjugated_regular_rep(cyclic(10))
    start = time.perf_counter()
    back = restrict_to_group(extend_to_semigroup(rep))
    elapsed = time.perf_counter() - start
    assert max(max_abs(b - m) for b, m in zip(back.matrices, rep.matrices)) <= reps.FLOAT_TOL
    assert elapsed < 1.5
