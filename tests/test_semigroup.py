import random

import pytest

from invsg.actions import bernoulli_partial_action, validate_axioms, validate_semigroup_form
from invsg.algebra import build_algebra, wedderburn
from invsg.graded import generated_semigroup, grading
from invsg.groups import cyclic, dihedral, direct_product, klein_four
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
    natural_partial_order,
    order_formula,
    reduce_word,
    unit,
    universal_extension,
    verify_inverse_semigroup,
)

from conftest import relabelled, small_groups


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


def test_verify_sampled_mode():
    # 576^3 associativity triples exceed EXHAUSTIVE_BUDGET
    report = verify_inverse_semigroup(cyclic(8))
    assert report.passed
    assert report.checks[0].mode == "sampled"


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


def test_extension_conditions_violated():
    g = cyclic(2)
    # sending everything to the non-identity of Z/2 breaks f(s)f(e) = f(s)
    with pytest.raises(ConditionsViolated) as err:
        check_extension_conditions(g, {0: 1, 1: 1}, g.mul)
    assert err.value.witness in {(0, 0), (1, 1), (0, 1), (1, 0)}


def test_element_json_round_trip():
    g = cyclic(4)
    for a in enumerate_semigroup(g):
        data = element_to_dict(a)
        assert element_from_dict(g, data) == a
        assert data["support"] == sorted(data["support"])
