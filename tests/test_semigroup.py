import operator
import random
import sys
import tracemalloc

import numpy as np
import pytest

from invsg.actions import (
    PartialBijection,
    bernoulli_partial_action,
    restriction_action,
    validate_axioms,
    validate_semigroup_form,
)
from invsg.algebra import build_algebra, wedderburn
from invsg.graded import generated_semigroup, grading
from invsg import semigroup
from invsg.groups import cyclic, dihedral, direct_product, group_from_spec, klein_four
from invsg.semigroup import (
    CapExceeded,
    ConditionsViolated,
    SgElement,
    act_on_subset,
    check_extension_conditions,
    element_from_dict,
    element_to_dict,
    enumerate_semigroup,
    generator,
    idempotent,
    idempotent_elements,
    identity_masks,
    multiplication_tables,
    natural_partial_order,
    order_formula,
    reduce_word,
    unit,
    universal_extension,
    verify_inverse_semigroup,
)

from conftest import (
    extension_laws,
    inverses_checked,
    model_checked,
    perturb_one_image,
    quaternion,
    relabelled,
    small_groups,
    translation_permutations,
)


def test_generator_examples():
    g2 = cyclic(2)
    assert generator(g2, 0) == unit(g2)
    assert generator(g2, 1) == SgElement(g2, 0b11, 1)
    g4 = cyclic(4)
    assert generator(g4, 1) == SgElement(g4, 0b0011, 1)


def test_multiply_paper_examples():
    g2 = cyclic(2)
    t = generator(g2, 1)
    assert t * t == idempotent(g2, 1)
    g4 = cyclic(4)
    for a in enumerate_semigroup(g4):
        assert unit(g4) * a == a
        assert a * unit(g4) == a
    assert generator(g4, 1) * generator(g4, 1) == SgElement(g4, 0b0111, 2)


def test_multiply_group_mismatch():
    with pytest.raises(ValueError):
        generator(cyclic(2), 1) * generator(cyclic(3), 1)


def test_star_examples():
    g4 = cyclic(4)
    for t in g4.elements():
        assert generator(g4, t).star() == generator(g4, g4.inv(t))
    assert unit(g4).star() == unit(g4)
    # recompute by elementwise translation: 2^-1 = 2, 2*{0,1,2} = {2,3,0}
    assert SgElement(g4, 0b0111, 2).star() == SgElement(g4, 0b1101, 2)


def test_star_is_involutive_antiautomorphism():
    for g in [cyclic(3), cyclic(4), klein_four(), cyclic(5)]:
        elements = enumerate_semigroup(g)
        for a in elements:
            assert a.star().star() == a
        for a in elements:
            for b in elements:
                assert (a * b).star() == b.star() * a.star()


def test_idempotent_examples():
    g4 = cyclic(4)
    assert idempotent(g4, 0) == unit(g4)
    for r in g4.elements():
        e_r = idempotent(g4, r)
        assert e_r * e_r == e_r
        assert e_r.star() == e_r
        assert generator(g4, r) * generator(g4, g4.inv(r)) == e_r
        for s in g4.elements():
            assert idempotent(g4, r) * idempotent(g4, s) == idempotent(g4, s) * idempotent(g4, r)


def test_idempotents_are_degree_identity_and_form_union_band():
    g = klein_four()
    elements = enumerate_semigroup(g)
    idem = [a for a in elements if a * a == a]
    assert idem == [a for a in elements if a.is_idempotent()]
    assert idem == idempotent_elements(g)
    for a in idem:
        for b in idem:
            prod = a * b
            assert prod.support == a.support | b.support
            assert prod.is_idempotent()


def test_degree_is_homomorphism():
    g = dihedral(3)
    elements = enumerate_semigroup(g)
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.choice(elements), rng.choice(elements)
        assert (a * b).degree == g.mul(a.degree, b.degree)
    for t in g.elements():
        assert generator(g, t).degree == t
        assert idempotent(g, t).degree == g.identity


def test_defining_relations_hold_everywhere():
    for g in small_groups():
        e = g.identity
        for s in g.elements():
            s_inv = g.inv(s)
            assert generator(g, s) * generator(g, e) == generator(g, s)
            assert generator(g, e) * generator(g, s) == generator(g, s)
            for t in g.elements():
                lhs = generator(g, s_inv) * generator(g, s) * generator(g, t)
                rhs = generator(g, s_inv) * generator(g, g.mul(s, t))
                assert lhs == rhs
                t_inv = g.inv(t)
                lhs = generator(g, s) * generator(g, t) * generator(g, t_inv)
                rhs = generator(g, g.mul(s, t)) * generator(g, t_inv)
                assert lhs == rhs


def test_reduce_word():
    g4 = cyclic(4)
    assert reduce_word(g4, [2]) == generator(g4, 2)
    s, s_inv = 1, 3
    assert reduce_word(g4, [s, s_inv, s]) == generator(g4, s)
    assert reduce_word(g4, [1, 1, 1, 1]) == SgElement(g4, 0b1111, 0)
    with pytest.raises(ValueError):
        reduce_word(g4, [])


def test_reduce_word_support_formula():
    g = dihedral(3)
    rng = random.Random(3)
    for _ in range(200):
        word = [rng.randrange(g.order) for _ in range(rng.randint(1, 12))]
        a = reduce_word(g, word)
        prefix, expected = g.identity, {g.identity}
        for t in word:
            prefix = g.mul(prefix, t)
            expected.add(prefix)
        assert a.support_set() == frozenset(expected)
        assert a.degree == prefix


def test_reduce_word_concatenation():
    g = cyclic(4)
    rng = random.Random(11)
    for _ in range(200):
        w1 = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
        w2 = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
        assert reduce_word(g, w1 + w2) == reduce_word(g, w1) * reduce_word(g, w2)


def test_enumerate_counts():
    assert len(enumerate_semigroup(cyclic(1))) == 1
    assert len(enumerate_semigroup(cyclic(2))) == 3
    assert len(enumerate_semigroup(cyclic(4))) == 20
    assert len(enumerate_semigroup(klein_four())) == 20
    with pytest.raises(CapExceeded):
        enumerate_semigroup(cyclic(11))


@pytest.mark.parametrize("p", range(1, 9))
def test_enumerated_elements_are_the_validated_ones(p):
    """Enumeration builds its elements without re-running the four
    checks, since the identity masks make them valid: each equals, and
    hashes as, the validated element of its mask and degree."""
    g = cyclic(p)
    for a in enumerate_semigroup(g):
        valid = SgElement(g, a.support, a.degree)
        assert a == valid and hash(a) == hash(valid) and vars(a) == vars(valid)


def test_a_built_element_is_still_checked():
    g = cyclic(4)
    for support, degree in [(0b0011, 4), (0b10011, 1), (0b0010, 1), (0b0101, 1)]:
        with pytest.raises(ValueError):
            SgElement(g, support, degree)


def test_enumerate_closed_under_product_and_star():
    for g in small_groups():
        elements = enumerate_semigroup(g)
        universe = set(elements)
        assert len(universe) == len(elements)
        for a in elements:
            assert a.star() in universe
        for a in elements:
            for b in elements:
                assert a * b in universe


def test_multiplication_tables_match_the_product(monkeypatch):
    # small blocks, so each table is filled over many blocks of 1 to 6 rows;
    # the index dtype is the narrowest holding the marker n: n = 256 needs uint16
    monkeypatch.setattr(semigroup, "SCAN_BYTES", 1000)
    for g, dtype in (
        (klein_four(), np.uint8),
        (dihedral(3), np.uint8),
        (relabelled(cyclic(5), [3, 0, 4, 1, 2]), np.uint8),
        (cyclic(7), np.uint16),
        (dihedral(4), np.uint16),
    ):
        elements = enumerate_semigroup(g)
        mult, star, unit_index = multiplication_tables(elements)
        assert mult.dtype == star.dtype == dtype
        index = {a: i for i, a in enumerate(elements)}
        assert mult.tolist() == [[index[a * b] for b in elements] for a in elements]
        assert star.tolist() == [index[a.star()] for a in elements]
        assert elements[unit_index] == unit(g)
    # not closed at both widths; at n = 255 the marker is the largest uint8
    for elements in (
        [generator(klein_four(), t) for t in range(4)],
        enumerate_semigroup(cyclic(7))[:-1],
        enumerate_semigroup(cyclic(8))[:-1],
    ):
        with pytest.raises(ValueError, match="not closed"):
            multiplication_tables(elements)


def test_certificate_peak_memory_at_order_10():
    """The uint16 table of cyclic(10) takes 15.1 MiB and is built without
    an int64 one (63 MiB): the traced peak of the whole certificate,
    the 55 KiB model and its 440 KiB intp copy included, stays under
    17 MiB (16.25 MiB measured), and the report is the one the
    closed-form counts give."""
    tracemalloc.start()
    try:
        report = verify_inverse_semigroup(cyclic(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**20
    assert report.passed and report.size == 2816
    assert [(c.name, c.checked, c.counterexample) for c in report.checks] == [
        ("associativity", model_checked(2816, 10), None),
        ("involution identities", 2816, None),
        ("unique inverses", inverses_checked(2816, 10), None),
        ("idempotents commute", 262144, None),
    ]


def test_order_formula():
    assert order_formula(2) == 3
    assert order_formula(10) == 2816
    assert order_formula(28) == 1946157056
    with pytest.raises(ValueError):
        order_formula(1)


def test_counting_matches_formula_for_builtins():
    groups = [cyclic(p) for p in range(2, 8)]
    groups += [klein_four(), dihedral(2), dihedral(3), direct_product(cyclic(2), cyclic(3))]
    for g in groups:
        assert len(enumerate_semigroup(g)) == order_formula(g.order)


def test_natural_partial_order():
    g4 = cyclic(4)
    for a in enumerate_semigroup(g4):
        assert natural_partial_order(a, a)
    smaller = SgElement(g4, 0b0111, 1)
    larger = SgElement(g4, 0b0011, 1)
    assert natural_partial_order(smaller, larger)
    # witness idempotent: ({0,2}, 0) * ({0,1}, 1) recovers the smaller element
    witness = SgElement(g4, 0b0101, 0)
    assert witness * larger == smaller
    assert not natural_partial_order(generator(g4, 1), generator(g4, 2))
    with pytest.raises(ValueError, match="different groups"):
        natural_partial_order(unit(g4), unit(cyclic(3)))


def test_natural_partial_order_iff_idempotent_witness():
    g = cyclic(3)
    elements = enumerate_semigroup(g)
    idem = idempotent_elements(g)
    for a in elements:
        for b in elements:
            has_witness = any(e * b == a for e in idem)
            assert natural_partial_order(a, b) == has_witness


def test_act_on_subset():
    g4 = cyclic(4)
    e = g4.identity
    for t in g4.elements():
        assert act_on_subset(generator(g4, t), {e}) == {e, t}
    subset = frozenset({0, 2})
    assert act_on_subset(idempotent(g4, 3), subset) == {0, 2, 3}
    assert act_on_subset(unit(g4), subset) == subset
    with pytest.raises(ValueError):
        act_on_subset(unit(g4), {1, 2})
    with pytest.raises(ValueError, match="outside the group"):
        act_on_subset(unit(cyclic(3)), {0, 3})


def test_act_on_subset_is_homomorphism_and_recovers_support():
    for g in [cyclic(3), cyclic(4), klein_four()]:
        elements = enumerate_semigroup(g)
        subsets = [frozenset(a.support_set()) for a in idempotent_elements(g)]
        for a in elements:
            assert act_on_subset(a, {g.identity}) == a.support_set()
            for b in elements:
                for E in subsets[:4]:
                    assert act_on_subset(a * b, E) == act_on_subset(a, act_on_subset(b, E))


def test_standard_form_uniqueness():
    for g in small_groups():
        elements = enumerate_semigroup(g)
        keys = {(a.degree, act_on_subset(a, {g.identity})) for a in elements}
        assert len(keys) == len(elements)


def test_product_with_star_closed_forms():
    g = klein_four()
    for a in enumerate_semigroup(g):
        assert a * a.star() == SgElement(g, a.support, g.identity)
        expected = g.left_translate(g.inv(a.degree), a.support)
        assert a.star() * a == SgElement(g, expected, g.identity)


@pytest.mark.parametrize("g", [cyclic(1), cyclic(2), cyclic(4), klein_four(), cyclic(5)])
def test_verify_inverse_semigroup(g):
    report = verify_inverse_semigroup(g)
    assert report.passed, report.describe()
    assert all(c.mode == "exhaustive" for c in report.checks)


def test_verify_exhaustive_at_orders_8_and_10():
    # 576 and 2816 elements: associativity is certified through the
    # 2p - 1 point model, which reads every product once, not sampled
    for g in (cyclic(8), quaternion(), dihedral(5)):
        report = verify_inverse_semigroup(g)
        assert report.passed, report.describe()
        assert all(c.mode == "exhaustive" for c in report.checks)
        assert report.size == order_formula(g.order)
        assert report.checks[0].checked == model_checked(report.size, g.order)


def _model(elements):
    """The Bernoulli model of ``elements``, an ``enumerate_semigroup``
    list, whose rows the certificate's model restricts to 2p - 1 points."""
    g = elements[0].group
    return semigroup._extension_rows(g, semigroup._bernoulli_rows(g, identity_masks(g)))


def _bernoulli_model_reference(g, elements):
    """The model's rows by ``left_translate``: row (F, s) sends the point
    E (an identity mask) to sE where F is in sE and the point of g to sg,
    the marker m elsewhere; and m."""
    masks = identity_masks(g)
    m = len(masks) + g.order
    rows = []
    for a in elements:
        moved = [g.left_translate(a.degree, E) for E in masks]
        rows.append([masks.index(sE) if a.support & ~sE == 0 else m for sE in moved])
        rows[-1] += [len(masks) + g.mul(a.degree, t) for t in g.elements()] + [m]
    return rows, m


@pytest.mark.parametrize(
    "g",
    [cyclic(1), cyclic(2), cyclic(3), klein_four(), cyclic(6), dihedral(3), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])],
    ids=["cyclic1", "cyclic2", "cyclic3", "klein4", "cyclic6", "dihedral3", "relabelled-dihedral3"],
)
def test_bernoulli_model_is_a_faithful_action(g):
    """The model's rows are the reference's; composing rows is the
    product, and no two rows are equal."""
    elements = enumerate_semigroup(g)
    phi = _model(elements)
    expected, m = _bernoulli_model_reference(g, elements)
    assert phi.shape == (len(elements), m + 1) and phi.dtype == np.min_scalar_type(m)
    assert phi.tolist() == expected
    mult, _, _ = multiplication_tables(elements)
    for i in range(len(elements)):
        assert np.array_equal(phi[mult[i]], phi[i][phi])
    assert len({row.tobytes() for row in phi}) == len(elements)


def test_bernoulli_model_is_built_without_the_product_table(monkeypatch):
    """The certificate rests on its model, a restriction of this one, not
    being derived from the table it certifies: with
    ``multiplication_tables`` refusing to run, the model of dihedral:3
    is built, and is the reference's."""
    g = dihedral(3)
    elements = enumerate_semigroup(g)

    def no_table(*args):
        raise AssertionError("the model read a product table")

    monkeypatch.setattr(semigroup, "multiplication_tables", no_table)
    assert _model(elements).tolist() == _bernoulli_model_reference(g, elements)[0]


def _co_singletons(g):
    """The sets G - {x}, x != e ascending, as masks."""
    return [(1 << g.order) - 1 ^ 1 << x for x in g.elements() if x != g.identity]


def _restricted_bernoulli_rows(g):
    """The Bernoulli rows on every identity mask at the columns of the
    sets G - {x}, x != e ascending, then of the group and the marker,
    each entry renamed to its column's place in that list (a KeyError
    if the columns were not an invariant set)."""
    masks = identity_masks(g)
    cols = [masks.index(mask) for mask in _co_singletons(g)]
    cols += [len(masks) + x for x in g.elements()] + [len(masks) + g.order]
    place = {c: i for i, c in enumerate(cols)}
    return [[place[int(v)] for v in row[cols]] for row in semigroup._bernoulli_rows(g, masks)]


MODEL_GROUPS = [cyclic(p) for p in range(1, 11)] + [
    klein_four(), dihedral(3), dihedral(4), dihedral(5), quaternion(), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])
]
MODEL_IDS = [f"cyclic{p}" for p in range(1, 11)] + ["klein4", "dihedral3", "dihedral4", "dihedral5", "quaternion", "relabelled-dihedral3"]


@pytest.mark.parametrize("family", [identity_masks, _co_singletons], ids=["identity-masks", "co-singletons"])
@pytest.mark.parametrize("g", MODEL_GROUPS, ids=MODEL_IDS)
def test_bernoulli_rows_are_left_translation(g, family):
    """Row t of the builder by ``left_translate``: the place of tE among
    the masks where t^-1 is in E, else the marker m; then the place of
    tg; then m; in the narrowest unsigned dtype holding m."""
    masks = family(g)
    place, m = {mask: i for i, mask in enumerate(masks)}, len(masks) + g.order
    expected = [
        [place[g.left_translate(t, E)] if E >> g.inv(t) & 1 else m for E in masks]
        + [len(masks) + g.mul(t, x) for x in g.elements()] + [m]
        for t in g.elements()
    ]
    rows = semigroup._bernoulli_rows(g, masks)
    assert rows.dtype == np.min_scalar_type(m) and rows.tolist() == expected


def test_translates_peak_memory_at_order_14():
    """The p x 2^p int64 translates of cyclic(14) take 1.75 MiB; built
    in place one bit at a time, the traced peak stays under 3 times that
    (about 1.1 times measured), where a p x p x 2^p int64 intermediate
    would take 14 times."""
    g = cyclic(14)
    tracemalloc.start()
    try:
        translate = semigroup._translates(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert translate.shape == (14, 1 << 14) and peak < 3 * translate.nbytes
    for mask in (0, 1, 0b10110010011101, (1 << 14) - 1):
        assert translate[:, mask].tolist() == [g.left_translate(s, mask) for s in g.elements()]


@pytest.mark.parametrize("g", MODEL_GROUPS, ids=MODEL_IDS)
def test_certificate_model_is_the_bernoulli_model_on_2p_minus_1_points(monkeypatch, g):
    """The certificate's generator rows are the Bernoulli rows restricted
    to the p - 1 sets G - {x}, x != e, and the group, re-indexed, in
    uint8; its model has 2p columns, and its rows over the semigroup
    are pairwise distinct."""
    calls, real = [], semigroup._extension_rows
    monkeypatch.setattr(semigroup, "_extension_rows", lambda *args: calls.append((args[1], real(*args))) or calls[-1][1])
    elements = enumerate_semigroup(g)
    rows, keys, product, _, unit_index = semigroup._products(g, elements)
    assoc = semigroup._associativity(elements, rows, keys, product, unit_index)
    assert assoc.passed and assoc.checked == model_checked(len(elements), g.order)
    ((rows, phi),) = calls
    assert rows.dtype == np.uint8 and rows.tolist() == _restricted_bernoulli_rows(g)
    assert phi.shape == (len(elements), 2 * g.order)
    assert len({row.tobytes() for row in phi}) == len(elements)


def test_past_the_cap_certificate_is_the_models(monkeypatch):
    """cyclic(11) with cap 11, 6144 elements and a 72 MiB table: the
    model certifies associativity, so Light's test never runs and the
    table is never built, and unique inverses is derived without the
    scan."""
    real = semigroup._bernoulli_check

    def model_or_fail(*args):
        checked = real(*args)
        assert checked is not None, "the model refused the table, so Light's test would run"
        return checked

    monkeypatch.setattr(semigroup, "_bernoulli_check", model_or_fail)
    monkeypatch.setattr(semigroup, "_inverse_scan", _never_scanned)
    monkeypatch.setattr(semigroup, "multiplication_tables", _no_table)
    report = verify_inverse_semigroup(cyclic(11), cap=11)
    assert report.passed and report.size == order_formula(11) == 6144
    assert report.checks[0].checked == model_checked(6144, 11)
    assert report.checks[2].checked == inverses_checked(6144, 11)


def test_a_passing_certificate_builds_no_product_table(monkeypatch):
    """cyclic(10), n = 2816: with ``multiplication_tables`` refused
    wherever the package binds it, the certificate passes on rows it
    streams a closure-tree layer at a time, and its traced peak stays
    below n^2 bytes, the size of any n x n array (the uint16 table
    takes 15.9 MB)."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "invsg" and hasattr(module, "multiplication_tables"):
            monkeypatch.setattr(module, "multiplication_tables", _no_table)
    tracemalloc.start()
    try:
        report = verify_inverse_semigroup(cyclic(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.size == 2816 and peak < 2816 * 2816


def test_no_row_call_copies_the_translate_keys():
    """cyclic(10): one single-row ``rows`` call, the row source built
    before tracing, traces a peak below the p x n key entries of the
    translates, so it gathers one row of them and copies none whole."""
    g = cyclic(10)
    elements = enumerate_semigroup(g)
    rows, keys, _, star, _ = semigroup._products(g, elements)
    out = np.empty((1, len(elements)), dtype=star.dtype)
    key_bytes = g.order * len(elements) * keys(np.array([0])).itemsize
    tracemalloc.start()
    try:
        rows(np.array([len(elements) - 1]), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < key_bytes
    index = {a: i for i, a in enumerate(elements)}
    assert out[0].tolist() == [index[elements[-1] * b] for b in elements]


def test_keys_are_uint16_through_order_13():
    """The identity bit, set in every support, is no part of a key, so
    the 12 + 4 bits of a key at order 13 fit uint16; the unit's key is
    the identity."""
    g = cyclic(13)
    elements = enumerate_semigroup(g, cap=13)
    _, keys, _, _, unit_index = semigroup._products(g, elements)
    assert keys(np.array([unit_index])).dtype == np.uint16
    assert keys(np.array([unit_index]))[0, unit_index] == g.identity


@pytest.mark.parametrize("g", [cyclic(5), klein_four(), dihedral(3), relabelled(cyclic(4), [2, 0, 3, 1])], ids=str)
def test_the_closure_tree_takes_the_first_parent(g):
    """Each x of a layer is reached from the first x' of the layer before
    with some x' * a = x, at the first such generator a: the rule read
    off every product of the layer before."""
    elements = enumerate_semigroup(g)
    mult, _, unit_index = multiplication_tables(elements)
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    layers, via, parent = semigroup._closure_tree(mult[:, gens], unit_index)
    for before, layer in zip(layers, layers[1:]):
        first = {}
        for x in before:
            for k, a in enumerate(gens):
                first.setdefault(int(mult[x, a]), (int(x), k))
        assert [(parent[x], via[x]) for x in layer] == [first[int(x)] for x in layer]


def test_few_rows_of_a_layer_have_children():
    """cyclic(13): taking the first parent gathers the children, so at
    most 1716 elements of two adjacent layers have children, the rows
    check (c) keeps, where taking the first generator kept 6006."""
    g = cyclic(13)
    elements = enumerate_semigroup(g, cap=13)
    _, _, product, _, unit_index = semigroup._products(g, elements)
    right = product(np.arange(len(elements))[:, None], np.array(semigroup._generator_rows(elements)))
    layers, _, parent = semigroup._closure_tree(right, unit_index)
    kept = [np.isin(layer, parent).sum() for layer in layers]
    assert max(a + b for a, b in zip(kept, kept[1:])) == 1716


@pytest.mark.parametrize(
    "g", [cyclic(5), dihedral(4), relabelled(cyclic(4), [2, 0, 3, 1])], ids=["cyclic5", "dihedral4", "relabelled-cyclic4"]
)
def test_a_corrupted_row_source_fails_the_key_check(monkeypatch, g):
    """The real row source of ``_products`` with the left factors F << k
    of two elements x, y of distinct supports swapped, so the products
    of x read (F_y | s.H, su) and those of y likewise, all still listed;
    x and y are neither the unit nor a generator, so no other row
    changes, the unit's row and the generator rows stay right and only
    check (c), on key rows, can refuse the table.  Over seeded pairs it
    refuses every one, and the report is that of the n^3 reference scan
    and Light's test on the table ``multiplication_tables`` reads off
    the same source."""
    real = semigroup._products
    swap = []

    def corrupted(group, elements):
        source = real(group, elements)
        keys = source[1]
        left = keys.__closure__[keys.__code__.co_freevars.index("left")].cell_contents
        left[swap] = left[swap[::-1]]
        return source

    elements = enumerate_semigroup(g)
    clean, _, unit_index = multiplication_tables(elements)
    monkeypatch.setattr(semigroup, "_products", corrupted)
    n, p = len(elements), g.order
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    others = sorted(set(range(n)) - set(gens) - {unit_index})
    rng = np.random.default_rng(5)
    for _ in range(10):
        swap[:] = map(int, rng.choice(others, size=2, replace=False))
        if elements[swap[0]].support == elements[swap[1]].support:  # the same left factor
            continue
        mult = multiplication_tables(elements)[0]
        assert set(np.flatnonzero((mult != clean).any(axis=1))) <= set(swap)
        assert not _associative(mult) and len(_generated(mult, unit_index, gens)) == n
        rows, keys, _, _, _ = semigroup._products(g, elements)
        tree = semigroup._closure_tree(mult[:, gens], unit_index)
        assert semigroup._bernoulli_check(elements, rows, keys, gens, *tree) is None
        assoc = verify_inverse_semigroup(g).checks[0]
        k, (x, a, y) = _first_light_failure(mult, gens)
        assert assoc.counterexample == (elements[x], elements[a], elements[y])
        assert assoc.checked == n * p + (k + 1) * n * n


def test_idempotent_pairs_are_checked_in_blocks(monkeypatch):
    """cyclic(12), 2048 idempotents and 4^11 pairs: with associativity
    stubbed to pass, the traced peak of the other checks stays below
    the 8 MiB one uint16 array of every pair takes.  On cyclic(10), two
    wrong products ef = e of idempotents, below the diagonal and in
    later row blocks, give the first failing pair in row-major order."""
    passing = semigroup.CheckResult("associativity", True, 0)
    monkeypatch.setattr(semigroup, "_associativity", lambda *args: passing)
    tracemalloc.start()
    try:
        report = verify_inverse_semigroup(cyclic(12), cap=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checks[3].checked == 4**11
    assert peak < 2 * 4**11

    g = cyclic(10)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    idem = np.flatnonzero(mult[np.arange(len(elements)), np.arange(len(elements))] == np.arange(len(elements)))
    block = semigroup.SCAN_BYTES // (star.itemsize * idem.size)
    for e, f in [(idem[400], idem[block + 1]), (idem[block + 3], idem[block + 2])]:
        mult[e, f] = e
    _serve_table(monkeypatch, mult, star, unit_index)
    commute = verify_inverse_semigroup(g).checks[3]
    pairs = mult[np.ix_(idem, idem)]
    i, j = np.argwhere(pairs != pairs.T)[0]
    assert (i, j) == (block + 1, 400)
    assert commute.counterexample == (elements[idem[i]], elements[idem[j]])
    assert commute.checked == idem.size**2


@pytest.mark.parametrize("g", MODEL_GROUPS, ids=MODEL_IDS)
def test_streamed_reports_are_the_reference_counts(monkeypatch, g):
    """Without the whole table, every model group's report passes each
    check with the closed-form counts: the model's reads, the n
    involution cases, the derived unique inverses and the 4^(p-1)
    idempotent pairs."""
    monkeypatch.setattr(semigroup, "multiplication_tables", _no_table)
    report = verify_inverse_semigroup(g)
    n, p = report.size, g.order
    assert n == (order_formula(p) if p > 1 else 1)
    assert [(c.name, c.passed, c.checked, c.counterexample) for c in report.checks] == [
        ("associativity", True, model_checked(n, p), None),
        ("involution identities", True, n, None),
        ("unique inverses", True, inverses_checked(n, p), None),
        ("idempotents commute", True, 4 ** (p - 1), None),
    ]


_real_tables = semigroup.multiplication_tables


def _no_table(*args):
    raise AssertionError("the whole product table was built")


def _table_source(mult):
    """The ``rows``, ``keys`` and ``product`` of ``semigroup._products``,
    read off the table ``mult`` itself, whose index rows serve as its
    key rows."""

    def rows(i, out=None):
        out = np.empty((len(i), len(mult)), dtype=mult.dtype) if out is None else out
        np.take(mult, i, axis=0, out=out[: len(i)])
        return out

    return rows, rows, lambda i, j: mult[i, j]


def _serve_table(monkeypatch, mult, star, unit_index):
    """Make ``mult`` and ``star`` the products the certificate reads:
    the rows, the key rows and the looked-up products of ``_products``,
    which every check reads, passing or failing, all read off the one
    array ``mult``, never a copy."""
    products = (*_table_source(mult), star, unit_index)
    monkeypatch.setattr(semigroup, "_products", lambda *_: products)


def _associative(mult):
    """The n^3 reference scan: (ij)k = i(jk) for every triple."""
    return all(np.array_equal(mult[mult[i]], mult[i, mult]) for i in range(len(mult)))


def _first_light_failure(mult, gens):
    """(k, (x, a, y)): the first generator a = gens[k] with some (xa)y !=
    x(ay), and its first failing x, then y."""
    for k, a in enumerate(gens):
        diff = mult[mult[:, a]] != mult[:, mult[a]]
        if diff.any():
            x, y = map(int, np.argwhere(diff)[0])
            return k, (x, a, y)
    return None


def _corrupted_tables(elements):
    """The product a * b* in place of a * b, and one pair of idempotents
    e, f with e * f = e: every check of the certificate fails."""
    mult, star, unit_index = _real_tables(elements)
    bad = mult[:, star]
    g = elements[0].group
    e, f = (elements.index(idempotent(g, r)) for r in (1, 2))
    bad[e, f] = e
    return bad, star, unit_index


@pytest.mark.parametrize("g", [cyclic(4), cyclic(8)])
def test_verify_reports_counterexamples(monkeypatch, g):
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _corrupted_tables(elements)
    _serve_table(monkeypatch, mult, star, unit_index)
    report = verify_inverse_semigroup(g)
    ix = {a: i for i, a in enumerate(elements)}
    assoc, invol, unique, commute = report.checks
    assert not report.passed and not any(c.passed for c in report.checks)
    assert [c.name for c in report.checks] == [
        "associativity", "involution identities", "unique inverses", "idempotents commute"
    ]
    assert "FAIL at" in report.describe()
    assert all(c.mode == "exhaustive" for c in report.checks)

    # the generators are closed under *, so the generation scan reaches
    # every element (n p lookups) and Light's test finds the failure
    x, a, y = (ix[b] for b in assoc.counterexample)
    assert mult[mult[x, a], y] != mult[x, mult[a, y]]
    n, p = len(elements), g.order
    k, first = _first_light_failure(mult, [ix[generator(g, t)] for t in g.elements()])
    assert (x, a, y) == first and assoc.checked == n * p + (k + 1) * n * n

    (a,) = invol.counterexample
    i = ix[a]
    assert mult[mult[i, star[i]], i] != i or mult[mult[star[i], i], star[i]] != star[i]

    a, witnesses = unique.counterexample
    i = ix[a]
    expected = [
        b for b in elements
        if mult[mult[i, ix[b]], i] == i and mult[mult[ix[b], i], ix[b]] == ix[b]
    ]
    assert witnesses == expected and witnesses != [elements[star[i]]]

    e, f = (ix[a] for a in commute.counterexample)
    assert mult[e, e] == e and mult[f, f] == f and mult[e, f] != mult[f, e]


def test_associativity_scans_every_row_block(monkeypatch):
    """One wrong entry in the last row of the 576-element table of
    cyclic(8) first shows at a row past the first block of Light's test."""
    g = cyclic(8)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n = len(elements)
    mult[n - 1, n - 1] = (mult[n - 1, n - 1] + 1) % n
    _serve_table(monkeypatch, mult, star, unit_index)
    assoc = verify_inverse_semigroup(g).checks[0]
    k, (x, a, y) = _first_light_failure(mult, [elements.index(generator(g, t)) for t in g.elements()])
    assert x >= semigroup.SCAN_BYTES // (mult.itemsize * n)  # Light's test reads rows in blocks of this many
    assert assoc.counterexample == (elements[x], elements[a], elements[y])
    assert assoc.checked == n * g.order + (k + 1) * n * n


@pytest.mark.parametrize("where", ["last layer", "no parent", "unit"])
def test_one_wrong_streamed_row_fails_the_model(monkeypatch, where):
    """One wrong entry of the cyclic(8) table, at a column that is no
    generator (so the closure tree stays), in a row of the tree's last
    layer, in a row of a middle layer with no children, or in the
    unit's row: the streamed model check refuses the table, and Light's
    test on the whole table reports the first failing triple."""
    g = cyclic(8)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n, p = len(elements), g.order
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    layers, via, parent = semigroup._closure_tree(mult[:, gens], unit_index)
    middle = layers[len(layers) // 2]
    x = {
        "last layer": layers[-1][-1],
        "no parent": middle[~np.isin(middle, parent)][-1],
        "unit": unit_index,
    }[where]
    y = max(set(range(n)) - set(gens))
    mult[x, y] = (int(mult[x, y]) + 1) % n
    calls, real = [], semigroup._bernoulli_check
    monkeypatch.setattr(semigroup, "_bernoulli_check", lambda *args: calls.append(real(*args)) or calls[-1])
    _serve_table(monkeypatch, mult, star, unit_index)
    assoc = verify_inverse_semigroup(g).checks[0]
    assert calls == [None]
    k, (x, a, y) = _first_light_failure(mult, gens)
    assert assoc.counterexample == (elements[x], elements[a], elements[y])
    assert assoc.checked == n * p + (k + 1) * n * n


def test_failing_certificate_at_order_10(monkeypatch):
    """One wrong entry of the last row of the cyclic(10) table, a a* for
    the last element a: Light's test and the unique-inverses scan both
    run, and report what the reference loops do.  The table is built
    before tracing, so the traced peak is the checks' own: the n x n
    boolean relation (7.6 MiB) and the blocks of Light's test."""
    g = cyclic(10)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n, p = len(elements), g.order
    mult[n - 1, star[n - 1]] = (int(mult[n - 1, star[n - 1]]) + 1) % n
    _serve_table(monkeypatch, mult, star, unit_index)
    tracemalloc.start()
    try:
        report = verify_inverse_semigroup(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assoc, invol, unique, commute = report.checks
    k, (x, a, y) = _first_light_failure(mult, [elements.index(generator(g, t)) for t in g.elements()])
    assert assoc.counterexample == (elements[x], elements[a], elements[y])
    assert assoc.checked == n * p + (k + 1) * n * n
    assert not invol.passed and commute.passed
    first, witnesses = _first_non_unique_inverse(mult, star)
    assert unique.counterexample == (elements[first], [elements[j] for j in witnesses])
    assert unique.checked == n * n


def test_a_failing_certificate_builds_no_product_table(monkeypatch):
    """The corruption of the order-10 test above, with
    ``multiplication_tables`` refused wherever the package binds it:
    Light's test and the unique-inverses scan read the served rows and
    products, report what the reference loops do, and the traced peak
    stays below n^2 bytes, the size of any n x n array."""
    g = cyclic(10)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n, p = len(elements), g.order
    mult[n - 1, star[n - 1]] = (int(mult[n - 1, star[n - 1]]) + 1) % n
    _serve_table(monkeypatch, mult, star, unit_index)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "invsg" and hasattr(module, "multiplication_tables"):
            monkeypatch.setattr(module, "multiplication_tables", _no_table)
    tracemalloc.start()
    try:
        report = verify_inverse_semigroup(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n
    assoc, invol, unique, commute = report.checks
    k, (x, a, y) = _first_light_failure(mult, [elements.index(generator(g, t)) for t in g.elements()])
    assert assoc.counterexample == (elements[x], elements[a], elements[y])
    assert assoc.checked == n * p + (k + 1) * n * n
    assert not invol.passed and commute.passed
    first, witnesses = _first_non_unique_inverse(mult, star)
    assert unique.counterexample == (elements[first], [elements[j] for j in witnesses])
    assert unique.checked == n * n


def _first_non_unique_inverse(mult, star):
    """The reference loop: the first a without exactly one b such that
    aba = a and bab = b, or whose one such b is not a*; with every b."""
    idx = np.arange(len(mult))
    for i in idx:
        witnesses = np.flatnonzero((mult[mult[i], i] == i) & (mult[mult[:, i], idx] == idx))
        if witnesses.size != 1 or witnesses[0] != star[i]:
            return int(i), [int(j) for j in witnesses]
    return None


def test_unique_inverses_reports_a_second_inverse(monkeypatch):
    """Setting a * b to a a* for b = a* e (e idempotent, b != a*) in the
    table of cyclic(8) makes a and b each other's second inverse: aba =
    a a* a = a and bab = b.  Both lie past the first row block; the block
    scan reports the first of them, with its witnesses, as the loop does."""
    g = cyclic(8)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    block = semigroup.SCAN_BYTES // len(elements)  # rows per block of the boolean relation
    a = block + 5
    e = next(
        elements.index(f) for f in idempotent_elements(g)
        if mult[star[a], elements.index(f)] != star[a]
    )
    b = int(mult[star[a], e])
    mult[a, b] = mult[a, star[a]]
    _serve_table(monkeypatch, mult, star, unit_index)
    unique = verify_inverse_semigroup(g).checks[2]
    first, witnesses = _first_non_unique_inverse(mult, star)
    assert first == min(a, b) >= block and len(witnesses) == 2
    assert unique.counterexample == (elements[first], [elements[j] for j in witnesses])


def test_unique_inverses_checks_the_inverse_is_the_star(monkeypatch):
    """A star table that sends a past the first row block to itself, not
    to its inverse: a still has one inverse, but it is not star[a]."""
    g = cyclic(8)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    a = next(i for i in range(semigroup.SCAN_BYTES // len(elements), len(elements)) if star[i] != i)
    true_inverse = int(star[a])
    star = star.copy()
    star[a] = a
    _serve_table(monkeypatch, mult, star, unit_index)
    unique = verify_inverse_semigroup(g).checks[2]
    assert _first_non_unique_inverse(mult, star) == (a, [true_inverse])
    assert unique.counterexample == (elements[a], [elements[true_inverse]])


@pytest.mark.parametrize("g", [klein_four(), cyclic(5), cyclic(8)], ids=["klein4", "cyclic5", "cyclic8"])
def test_unique_inverses_match_the_reference_loop_on_random_corruptions(monkeypatch, g):
    """Seeded single-entry corruptions, two of the product table to one of
    the star table: the block scan of the boolean relation reports what
    the reference loop does.  klein4 has n = 20 and fits in one block;
    cyclic(8) spans several row blocks."""
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n = len(elements)
    rng = np.random.default_rng(7)
    outcomes = set()
    for trial in range(60):
        bad_mult, bad_star = mult.copy(), star.copy()
        i, j = map(int, rng.integers(n, size=2))
        if trial % 3:
            bad_mult[i, j] = (int(bad_mult[i, j]) + int(rng.integers(1, n))) % n
        else:
            bad_star[i] = (int(bad_star[i]) + int(rng.integers(1, n))) % n
        _serve_table(monkeypatch, bad_mult, bad_star, unit_index)
        assoc, invol, unique, commute = verify_inverse_semigroup(g).checks
        expected = _first_non_unique_inverse(bad_mult, bad_star)
        assert unique.passed == (expected is None)
        if assoc.passed and invol.passed and commute.passed:  # unique inverses is derived
            assert unique.checked == n + commute.checked
        else:  # the scan ran
            assert unique.checked == n * n
        if expected is not None:
            first, witnesses = expected
            assert unique.counterexample == (elements[first], [elements[k] for k in witnesses])
        outcomes.add(unique.passed)
    assert outcomes == {True, False}



def _counting_scan(monkeypatch):
    """Wrap ``semigroup._inverse_scan``: the list of its arguments, one
    entry per call, and the unwrapped scan."""
    calls, real = [], semigroup._inverse_scan
    monkeypatch.setattr(semigroup, "_inverse_scan", lambda *args: calls.append(args) or real(*args))
    return calls, real


def _never_scanned(*args):
    raise AssertionError("the unique-inverses scan ran")


@pytest.mark.parametrize(
    "g",
    [cyclic(p) for p in range(1, 9)] + [klein_four(), dihedral(3), dihedral(4), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])],
    ids=[f"cyclic{p}" for p in range(1, 9)] + ["klein4", "dihedral3", "dihedral4", "relabelled-dihedral3"],
)
def test_passing_certificates_derive_unique_inverses(monkeypatch, g):
    """On S(G) the other three checks pass, so unique inverses is derived
    from them and counts their cases: the scan never runs."""
    monkeypatch.setattr(semigroup, "_inverse_scan", _never_scanned)
    report = verify_inverse_semigroup(g)
    assert report.passed, report.describe()
    assert report.checks[2].checked == inverses_checked(report.size, g.order)


@pytest.mark.parametrize("broken", ["associativity", "involution identities", "idempotents commute"])
def test_one_failed_prerequisite_runs_the_scan_once(monkeypatch, broken):
    """Break one of the three checks the derivation rests on, the other
    two passing: a wrong product xy, x not idempotent and y neither x
    nor x* (an entry the other two never read); a wrong star entry; or
    ef := e for idempotents e, f with ef not in {e, f}, associativity
    stubbed to pass.  The scan runs once and its result is the report's."""
    g = cyclic(5)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    mult, star = mult.copy(), star.copy()
    n = len(elements)
    idem = [i for i in range(n) if mult[i, i] == i]
    if broken == "associativity":
        x = next(i for i in range(n) if i not in idem)
        y = next(j for j in range(n) if j not in (x, star[x]))
        mult[x, y] = (int(mult[x, y]) + 1) % n
    elif broken == "involution identities":
        x = next(i for i in range(n) if star[i] != i)
        star[x] = x
    else:
        e, f = next((e, f) for e in idem for f in idem if mult[e, f] not in (e, f))
        mult[e, f] = e
        passing = semigroup.CheckResult("associativity", True, 0)
        monkeypatch.setattr(semigroup, "_associativity", lambda *args: passing)
    _serve_table(monkeypatch, mult, star, unit_index)
    calls, scan = _counting_scan(monkeypatch)
    report = verify_inverse_semigroup(g)
    assoc, invol, unique, commute = report.checks
    assert [c.name for c in (assoc, invol, commute) if not c.passed] == [broken]
    assert len(calls) == 1 and unique == scan(*calls[0]) and unique.checked == n * n


@pytest.mark.parametrize(
    "g",
    [klein_four(), cyclic(5), dihedral(3), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])],
    ids=["klein4", "cyclic5", "dihedral3", "relabelled-dihedral3"],
)
def test_derived_unique_inverses_agree_with_the_reference_loop(monkeypatch, g):
    """The table itself, then seeded corruptions of one or two entries of
    the product or the star table, 80 per group: wherever unique inverses
    is derived the reference loop finds every inverse unique, and
    wherever the scan runs its report is the loop's witness, n^2 cases."""
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n = len(elements)
    calls, _ = _counting_scan(monkeypatch)
    rng = np.random.default_rng(13)
    derived = scanned = 0
    for trial in range(81):
        bad_mult, bad_star = mult.copy(), star.copy()
        for _ in range(int(rng.integers(1, 3)) if trial else 0):
            i, j = map(int, rng.integers(n, size=2))
            if rng.random() < 0.5:
                bad_mult[i, j] = (int(bad_mult[i, j]) + int(rng.integers(1, n))) % n
            else:
                bad_star[i] = (int(bad_star[i]) + int(rng.integers(1, n))) % n
        _serve_table(monkeypatch, bad_mult, bad_star, unit_index)
        before = len(calls)
        _, invol, unique, commute = verify_inverse_semigroup(g).checks
        expected = _first_non_unique_inverse(bad_mult, bad_star)
        if len(calls) == before:
            derived += 1
            assert expected is None and unique.passed and unique.counterexample is None
            assert unique.checked == invol.checked + commute.checked
        else:
            scanned += 1
            assert unique.checked == n * n and unique.passed == (expected is None)
            if expected is not None:
                first, witnesses = expected
                assert unique.counterexample == (elements[first], [elements[k] for k in witnesses])
    assert derived >= 1 and scanned >= 70

def _generated(mult, unit_index, gens):
    """The reference closure of the unit under right multiplication by gens."""
    reached, todo = {unit_index}, [unit_index]
    while todo:
        x = todo.pop()
        for y in (int(mult[x, b]) for b in gens):
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


@pytest.mark.parametrize("g", [cyclic(4), klein_four()])
def test_associativity_check_is_sound(monkeypatch, g):
    """Single corrupted entries, 200 per group: the certificate never
    passes associativity where the n^3 scan fails, and each reported
    counterexample is real (an unreached element or a failing triple)."""
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    n = len(elements)
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    rng = np.random.default_rng(0)
    kinds = {1: 0, 3: 0}
    for _ in range(200):
        bad = mult.copy()
        i, j = rng.integers(n, size=2)
        bad[i, j] = (bad[i, j] + rng.integers(1, n)) % n
        _serve_table(monkeypatch, bad, star, unit_index)
        assoc = verify_inverse_semigroup(g).checks[0]
        if assoc.passed:
            assert _associative(bad)
            continue
        found = [elements.index(a) for a in assoc.counterexample]
        kinds[len(found)] += 1
        if len(found) == 1:
            assert found[0] not in _generated(bad, unit_index, gens)
        else:
            x, a, y = found
            assert a in gens and bad[bad[x, a], y] != bad[x, bad[a, y]]
    assert kinds[1] and kinds[3]


def test_associative_table_outside_the_generated_one_fails(monkeypatch):
    """The left-zero table xy = x is associative, but the generators
    reach only the unit: the certificate cannot vouch for it."""
    g = cyclic(4)
    elements = enumerate_semigroup(g)
    _, star, unit_index = _real_tables(elements)
    n = len(elements)
    left_zero = np.repeat(np.arange(n)[:, None], n, axis=1)
    assert _associative(left_zero)
    _serve_table(monkeypatch, left_zero, star, unit_index)
    assoc = verify_inverse_semigroup(g).checks[0]
    assert not assoc.passed and assoc.checked == g.order
    (a,) = assoc.counterexample
    assert elements.index(a) != unit_index


@pytest.mark.parametrize(
    "g",
    [klein_four(), cyclic(5), dihedral(3), relabelled(dihedral(3), [4, 2, 0, 5, 1, 3])],
    ids=["klein4", "cyclic5", "dihedral3", "relabelled-dihedral3"],
)
def test_associativity_reports_match_the_references_on_random_corruptions(g):
    """Seeded corruptions of one to three entries, 80 per group: a pass
    implies the n^3 scan, an unreached element is the first one the
    generators miss, and every other failure is the first failing
    triple of Light's test, with its count, whatever the model decided."""
    elements = enumerate_semigroup(g)
    mult, _, unit_index = _real_tables(elements)
    n, p = len(elements), g.order
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    rng = np.random.default_rng(11)
    triples = 0
    for _ in range(80):
        bad = mult.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, j = map(int, rng.integers(n, size=2))
            bad[i, j] = (int(bad[i, j]) + int(rng.integers(1, n))) % n
        assoc = semigroup._associativity(elements, *_table_source(bad), unit_index)
        reached = _generated(bad, unit_index, gens)
        if assoc.passed:
            assert _associative(bad) and assoc.checked == model_checked(n, p)
        elif len(reached) < n:
            first = min(set(range(n)) - reached)
            assert assoc.counterexample == (elements[first],) and assoc.checked == len(reached) * p
        else:
            triples += 1
            k, (x, a, y) = _first_light_failure(bad, gens)
            assert assoc.counterexample == (elements[x], elements[a], elements[y])
            assert assoc.checked == n * p + (k + 1) * n * n
    assert triples > 40  # the generators reach every element, so the model was consulted


def test_opposite_table_falls_back_to_lights_test(monkeypatch):
    """The opposite table xy := yx of dihedral(3) is associative and
    generated by the generators, but the Bernoulli model is no
    homomorphism for it: the model check fails, and Light's test passes
    it after scanning every generator.  It is an inverse semigroup, so
    unique inverses is derived without the scan, as the loop agrees."""
    g = dihedral(3)
    elements = enumerate_semigroup(g)
    mult, star, unit_index = _real_tables(elements)
    opposite = np.ascontiguousarray(mult.T)
    n, p = len(elements), g.order
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    assert _associative(opposite) and len(_generated(opposite, unit_index, gens)) == n
    tree = semigroup._closure_tree(opposite[:, gens], unit_index)
    assert semigroup._bernoulli_check(elements, *_table_source(opposite)[:2], gens, *tree) is None
    _serve_table(monkeypatch, opposite, star, unit_index)
    monkeypatch.setattr(semigroup, "_inverse_scan", _never_scanned)
    report = verify_inverse_semigroup(g)
    assoc, unique = report.checks[0], report.checks[2]
    assert assoc.passed and assoc.counterexample is None
    assert assoc.checked == n * p + p * n * n
    assert report.passed and _first_non_unique_inverse(opposite, star) is None
    assert unique.checked == inverses_checked(n, p)


def test_an_unfaithful_model_certifies_nothing(monkeypatch):
    """Set a * y to the unit for a generator a and an element y where the
    entry is no edge of the tree, then rebuild every row along the tree,
    x = x' a giving row x = row x' o row a.  The table keeps its tree and
    passes the unit and tree checks, but is not associative: at cyclic(4)
    the first such entry is (generator 1, element 1).  The model refuses
    it at the composition check; a model whose rows all act as the
    identity passes that check for any table, and the distinctness check
    refuses it.  Either way Light's test reports the first failing triple."""
    g = cyclic(4)
    elements = enumerate_semigroup(g)
    mult, _, unit_index = _real_tables(elements)
    n = len(elements)
    gens = [elements.index(generator(g, t)) for t in g.elements()]
    layers, via, parent = semigroup._closure_tree(mult[:, gens], unit_index)
    edges = {(int(parent[x]), gens[via[x]]) for x in np.flatnonzero(via >= 0)}
    k, y = next((k, y) for k in range(1, g.order) for y in range(n) if y != unit_index and (gens[k], y) not in edges)
    assert (k, y) == (1, 1)
    bad = mult.copy()
    bad[gens[k], y] = unit_index
    depth = np.zeros(n, dtype=int)
    for _ in range(n):
        depth[via >= 0] = depth[parent[via >= 0]] + 1
    for x in sorted(np.flatnonzero(via >= 0), key=lambda x: depth[x]):
        bad[x] = bad[parent[x]][bad[gens[via[x]]]]
    assert not _associative(bad)
    _, bad_via, bad_parent = semigroup._closure_tree(bad[:, gens], unit_index)
    assert np.array_equal(bad_via, via) and np.array_equal(bad_parent, parent)
    bad_rows, _, bad_product = _table_source(bad)
    assert semigroup._bernoulli_check(elements, bad_rows, bad_rows, gens, layers, via, parent) is None

    phi = _model(elements)
    trivial = np.broadcast_to(phi[unit_index], phi.shape).copy()
    monkeypatch.setattr(semigroup, "_extension_rows", lambda *_: trivial)
    assert semigroup._bernoulli_check(elements, bad_rows, bad_rows, gens, layers, via, parent) is None
    _, (x, a, z) = _first_light_failure(bad, gens)
    assoc = semigroup._associativity(elements, bad_rows, bad_rows, bad_product, unit_index)
    assert assoc.counterexample == (elements[x], elements[a], elements[z])


def test_identity_not_at_index_zero():
    """Cyclic group of order 4 with its identity renamed 2: the masks,
    the enumeration order, the Bernoulli ground set and every
    downstream count hold as for the standard labelling."""
    g = relabelled(cyclic(4), [2, 0, 3, 1])
    assert g.identity == 2
    masks = identity_masks(g)
    assert masks == sorted(m for m in range(16) if m & 4)
    elements = enumerate_semigroup(g)
    assert len(elements) == 20
    assert [(a.degree, a.support) for a in elements] == sorted((a.degree, a.support) for a in elements)

    action = bernoulli_partial_action(g)
    assert action.set_size == len(masks) == 8
    for t in g.elements():
        expected = {i: masks.index(g.left_translate(t, m)) for i, m in enumerate(masks) if m >> g.inv(t) & 1}
        assert dict(action.theta[t].graph()) == expected
    assert validate_axioms(action).passed and validate_semigroup_form(action).passed

    assert verify_inverse_semigroup(g).passed
    alg = build_algebra(g)
    assert list(wedderburn(alg).blocks) == [1] * 7 + [2, 3]
    assert len(generated_semigroup(grading(alg))) == 20


def test_universal_extension_degree():
    g = cyclic(4)
    ext = universal_extension(g, {t: t for t in g.elements()}, g.mul)
    for a in enumerate_semigroup(g):
        assert ext(a) == a.degree


def _subset_state_map(g, t):
    """Function table of E -> tE | {e} on identity-containing subsets."""
    idem = idempotent_elements(g)
    states = [a.support_set() for a in idem]
    index = {s: i for i, s in enumerate(states)}
    out = []
    for s in states:
        image = frozenset(g.mul(t, x) for x in s) | {g.identity}
        out.append(index[image])
    return tuple(out)


def test_universal_extension_subset_action():
    g = cyclic(3)
    states = [a.support_set() for a in idempotent_elements(g)]

    def compose_tables(f, h):
        return tuple(f[h[i]] for i in range(len(h)))

    ext = universal_extension(g, {t: _subset_state_map(g, t) for t in g.elements()}, compose_tables)
    for a in enumerate_semigroup(g):
        table = ext(a)
        for i, s in enumerate(states):
            assert states[table[i]] == act_on_subset(a, s)


def test_universal_extension_trivial_target():
    g = cyclic(4)
    ext = universal_extension(g, {t: 0 for t in g.elements()}, lambda x, y: 0)
    assert ext(unit(g)) == 0


def test_universal_extension_order_independence():
    g = klein_four()
    images = {t: _subset_state_map(g, t) for t in g.elements()}

    def compose_tables(f, h):
        return tuple(f[h[i]] for i in range(len(h)))

    ext = universal_extension(g, images, compose_tables)
    rng = random.Random(5)
    for a in enumerate_semigroup(g):
        support = sorted(a.support_set())
        for _ in range(5):
            rng.shuffle(support)
            acc = None
            for r in support:
                proj = compose_tables(images[r], images[g.inv(r)])
                acc = proj if acc is None else compose_tables(acc, proj)
            assert compose_tables(acc, images[a.degree]) == ext(a)


def test_a_missing_image_is_named_before_any_product():
    """A generator map with no image of 2 over Z/3 is refused with a
    ValueError naming 2, and ``mul`` is never called."""
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x

    for check in (universal_extension, check_extension_conditions):
        with pytest.raises(ValueError, match="^no image of the group element 2$"):
            check(cyclic(3), {0: 0, 1: 1}, mul)
    assert calls == []


def test_universal_extension_counts_its_products_and_keeps_its_caps(monkeypatch):
    """Into Python objects, the Bernoulli partial bijections of Z/6 with
    the identity at index 0: 5p^2 + 2p products for the laws (3p^2 for
    the triple law, 2p^2 + p for the derived law, p for the unit law),
    then at most p + 2^(p-1) + n for the fold, all before the map is
    returned.  Past the enumeration cap CapExceeded comes before any
    product, and an element of another group is refused."""
    calls, fold_starts, fold = [], [], semigroup._extension_rows

    def mul(f, h):
        calls.append(1)
        return f * h

    def spy(*args):
        fold_starts.append(len(calls))
        return fold(*args)

    monkeypatch.setattr(semigroup, "_extension_rows", spy)
    g = cyclic(6)
    assert g.identity == 0
    images = dict(enumerate(bernoulli_partial_action(g).theta))
    ext = universal_extension(g, images, mul)
    p, n = g.order, len(enumerate_semigroup(g))
    assert fold_starts == [5 * p**2 + 2 * p]
    assert len(calls) - fold_starts[0] <= p + 2 ** (p - 1) + n
    before = len(calls)
    for a in enumerate_semigroup(g):
        ext(a)
    assert len(calls) == before
    with pytest.raises(ValueError, match="element belongs to a different group"):
        ext(unit(cyclic(5)))

    calls.clear()
    big = cyclic(semigroup.DEFAULT_ENUMERATION_CAP + 1)
    with pytest.raises(CapExceeded):
        universal_extension(big, {t: t for t in big.elements()}, mul)
    assert calls == []


def test_extension_conditions_violated():
    g = cyclic(2)
    # sending everything to the non-identity of Z/2 breaks f(s)f(e) = f(s)
    with pytest.raises(ConditionsViolated) as err:
        check_extension_conditions(g, {0: 1, 1: 1}, g.mul)
    assert err.value.witness in {(0, 0), (1, 1), (0, 1), (1, 0)}


@pytest.mark.parametrize(
    "images, message, witness",
    [
        ([PartialBijection.identity(2), PartialBijection.from_pairs(2, [(0, 1)])], "f(1)f(1)f(1) != f(1)f(1*1)", (1, 1)),
        ([PartialBijection.empty(2), PartialBijection.from_pairs(2, [(1, 1)])], "f(0)f(1)f(1) != f(0*1)f(1)", (0, 1)),
    ],
    ids=["derived-law", "triple-law"],
)
def test_extension_conditions_name_the_failing_law(images, message, witness):
    """Partial bijections of a 2-point set over Z/2 that pass the unit
    law: the first pair to fail names its law and is the witness."""
    with pytest.raises(ConditionsViolated) as err:
        check_extension_conditions(cyclic(2), dict(enumerate(images)), operator.mul)
    assert str(err.value) == message and err.value.witness == witness


def _first_extension_failure(g, images, mul):
    """(law, message, witness) of the failure ``check_extension_conditions``
    raises, from the oracle ``extension_laws``: per s, the unit law, then
    per t the derived law and the triple law; None when all hold."""
    triple, derived = extension_laws(g, images, mul, operator.ne)
    e, p = g.identity, g.order
    for s in g.elements():
        if mul(images[s], images[e]) != images[s]:
            return "unit", f"f({s})f({e}) != f({s})", (s, e)
        for (_, t, bad_triple), (_, _, bad_derived) in zip(triple[s * p : (s + 1) * p], derived[s * p : (s + 1) * p]):
            s_inv, t_inv = g.inv(s), g.inv(t)
            if bad_derived:
                return "derived", f"f({s_inv})f({s})f({t}) != f({s_inv})f({s}*{t})", (s, t)
            if bad_triple:
                return "triple", f"f({s})f({t})f({t_inv}) != f({s}*{t})f({t_inv})", (s, t)
    return None


def test_extension_conditions_raise_the_oracles_first_failure():
    """Seeded generator maps of orders 3 to 6 (restricted translations,
    one image perturbed, and random partial bijections):
    ``check_extension_conditions`` raises the oracle's first failure,
    with its message and witness, and passes where the oracle does."""
    rng = random.Random(36)
    specs = ["cyclic:3", "klein4", "cyclic:5", "cyclic:6", "dihedral:3"]
    laws = {"valid": 0, "unit": 0, "derived": 0, "triple": 0}
    for i in range(150):
        g = group_from_spec(specs[i % len(specs)])
        action = restriction_action(g, translation_permutations(g, 2), [y for y in range(2 * g.order) if rng.random() < 0.5])
        images = list(action.theta)
        if i % 3 == 1:
            images = list((perturb_one_image(action, rng) or action).theta)
        elif i % 3 == 2:
            n = rng.randint(1, 5)
            images = [PartialBijection([y if rng.random() < 0.7 else None for y in rng.sample(range(n), n)]) for _ in g.elements()]
        expected = _first_extension_failure(g, images, operator.mul)
        if expected is None:
            check_extension_conditions(g, dict(enumerate(images)), operator.mul)
            laws["valid"] += 1
            continue
        with pytest.raises(ConditionsViolated) as err:
            check_extension_conditions(g, dict(enumerate(images)), operator.mul)
        law, message, witness = expected
        assert (str(err.value), err.value.witness) == (message, witness)
        laws[law] += 1
    assert min(laws.values()) >= 15, laws


def test_element_json_round_trip():
    g = cyclic(4)
    for a in enumerate_semigroup(g):
        data = element_to_dict(a)
        assert element_from_dict(g, data) == a
        assert data["support"] == sorted(data["support"])
