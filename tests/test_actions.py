import random

import pytest

from invsg.actions import (
    InverseAction,
    NotMultiplicative,
    PartialAction,
    PartialBijection,
    action_from_dict,
    action_to_dict,
    bernoulli_partial_action,
    from_inverse_action,
    restriction_action,
    to_inverse_action,
    validate_axioms,
    validate_semigroup_form,
)
from invsg.groups import cyclic, klein_four
from invsg.semigroup import CapExceeded, enumerate_semigroup, generator, idempotent, unit

from conftest import (
    perturb_one_image,
    random_restriction_action,
    translation_permutations,
)


def pb(n, pairs):
    return PartialBijection.from_pairs(n, pairs)


def test_partial_bijection_basics():
    f = pb(3, [(0, 1)])
    assert f.domain == {0} and f.image == {1}
    assert f(0) == 1 and f(2) is None
    with pytest.raises(ValueError):
        PartialBijection([1, 1, None])
    with pytest.raises(ValueError):
        PartialBijection([3, None, None])


def test_compose_examples():
    g = pb(3, [(2, 0), (1, 2)])
    assert PartialBijection.identity(3) * g == g
    f = pb(3, [(0, 1)])
    assert f * g == pb(3, [(2, 1)])
    rng = random.Random(0)
    for _ in range(50):
        m = [None] * 4
        targets = rng.sample(range(4), 4)
        for x in range(4):
            if rng.random() < 0.6:
                m[x] = targets[x]
        h = PartialBijection(m)
        assert h * h.invert() == PartialBijection.identity_on(4, h.image)
        assert h * h.invert() * h == h
        assert h.invert().invert() == h


def test_invert_examples():
    assert PartialBijection.identity(2).invert() == PartialBijection.identity(2)
    assert pb(2, [(0, 1)]).invert() == pb(2, [(1, 0)])


def test_compose_mismatched_ground_sets():
    with pytest.raises(ValueError):
        PartialBijection.identity(2) * PartialBijection.identity(3)


def test_validate_axioms_global_action():
    g = klein_four()
    perms = translation_permutations(g, 1)
    action = restriction_action(g, perms, range(g.order))
    assert validate_axioms(action).passed
    assert all(action.domain_of(t) == frozenset(range(4)) for t in g.elements())


def test_validate_axioms_z2_examples():
    g = cyclic(2)
    ok = PartialAction(g, 2, (PartialBijection.identity(2), pb(2, [(0, 0)])))
    assert validate_axioms(ok).passed
    assert validate_semigroup_form(ok).passed

    bad = PartialAction(g, 2, (PartialBijection.identity(2), pb(2, [(0, 1)])))
    report = validate_axioms(bad)
    assert not report.passed
    assert any(f.axiom == "domain translation" for f in report.failures)
    assert not validate_semigroup_form(bad).passed


def test_validate_semigroup_form_identity_failure():
    g = cyclic(2)
    bad = PartialAction(g, 2, (pb(2, [(0, 0)]), PartialBijection.identity(2)))
    report = validate_semigroup_form(bad)
    assert not report.passed
    assert any(f.axiom == "identity" for f in report.failures)


def test_restriction_action_examples():
    g4 = cyclic(4)
    perms = translation_permutations(g4, 1)
    action = restriction_action(g4, perms, [0, 1])
    assert action.domain_of(1) == {1}
    assert action.theta[1] == pb(2, [(0, 1)])
    assert validate_axioms(action).passed

    empty = restriction_action(g4, perms, [])
    assert empty.set_size == 0
    assert validate_axioms(empty).passed

    with pytest.raises(Exception, match="not an action"):
        restriction_action(g4, [perms[0], perms[2], perms[1], perms[3]], [0, 1])


def test_bernoulli_examples():
    g2 = cyclic(2)
    b = bernoulli_partial_action(g2)
    assert b.set_size == 2
    assert b.theta[0] == PartialBijection.identity(2)
    # ordering is [{e}, {e,t}]; theta_t fixes {e,t}
    assert b.theta[1] == pb(2, [(1, 1)])

    for p in range(2, 6):
        action = bernoulli_partial_action(cyclic(p))
        assert action.set_size == 2 ** (p - 1)
        assert action.theta[0] == PartialBijection.identity(action.set_size)
        assert validate_axioms(action).passed
        assert validate_semigroup_form(action).passed


def test_extension_property_theta_r_theta_s():
    for action in [bernoulli_partial_action(klein_four()), bernoulli_partial_action(cyclic(4))]:
        g = action.group
        for r in g.elements():
            for s in g.elements():
                lhs = action.theta[r] * action.theta[s]
                assert lhs.graph() <= action.theta[g.mul(r, s)].graph()


def test_theta_star_is_theta_inverse():
    action = bernoulli_partial_action(cyclic(4))
    g = action.group
    for t in g.elements():
        assert action.theta[t].invert() == action.theta[g.inv(t)]


def test_to_inverse_action_formula():
    g = cyclic(4)
    action = bernoulli_partial_action(g)
    inv_action = to_inverse_action(action)
    assert inv_action(unit(g)) == PartialBijection.identity(action.set_size)
    for r in g.elements():
        assert inv_action(idempotent(g, r)) == PartialBijection.identity_on(
            action.set_size, action.domain_of(r)
        )
    for t in g.elements():
        assert inv_action(generator(g, t)) == action.theta[t]


def test_to_inverse_action_multiplicative_small():
    action = bernoulli_partial_action(cyclic(2))
    inv_action = to_inverse_action(action)
    assert inv_action.check_multiplicative() is None
    table = inv_action.table()
    assert len(table) == 3


def test_table_checks_cap_on_every_call():
    inv_action = to_inverse_action(bernoulli_partial_action(cyclic(5)))
    assert len(inv_action.table()) == 48
    with pytest.raises(CapExceeded):
        inv_action.table(cap=3)
    assert inv_action.table(cap=5) is inv_action.table()


def test_round_trips_on_random_actions():
    rng = random.Random(42)
    for _ in range(30):
        action = random_restriction_action(rng)
        inv_action = to_inverse_action(action)
        assert from_inverse_action(inv_action) == action
        assert inv_action.check_multiplicative() is None
        rebuilt = to_inverse_action(from_inverse_action(inv_action))
        assert rebuilt.table() == inv_action.table()


def test_validators_agree_on_perturbations():
    rng = random.Random(99)
    seen_invalid = 0
    for _ in range(40):
        action = random_restriction_action(rng)
        assert validate_axioms(action).passed and validate_semigroup_form(action).passed
        mutated = perturb_one_image(action, rng)
        if mutated is None:
            continue
        a = validate_axioms(mutated).passed
        b = validate_semigroup_form(mutated).passed
        assert a == b
        seen_invalid += 0 if a else 1
    assert seen_invalid > 0


def test_from_inverse_action_rejects_non_multiplicative():
    g = cyclic(2)
    # theta_t a proper involution nowhere near a partial action shape:
    # swap on a 3-point set with theta restricted to break composition
    images = (PartialBijection.identity(3), pb(3, [(0, 1), (1, 2), (2, 0)]))
    inv_action = InverseAction(g, 3, images)
    with pytest.raises(NotMultiplicative):
        from_inverse_action(inv_action)


def test_from_inverse_action_of_group_action_is_global():
    g = cyclic(3)
    perms = translation_permutations(g, 1)
    action = restriction_action(g, perms, range(3))
    inv_action = to_inverse_action(action)
    back = from_inverse_action(inv_action)
    assert all(back.domain_of(t) == frozenset(range(3)) for t in g.elements())


def test_action_json_round_trip():
    action = bernoulli_partial_action(klein_four())
    data = action_to_dict(action)
    assert action_from_dict(data) == action
