import operator
import random
from functools import reduce

import pytest

from invsg.actions import (
    InvalidGroupAction,
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
from invsg import actions, semigroup
from invsg.groups import cyclic, group_from_spec, klein_four
from invsg.semigroup import CapExceeded, enumerate_semigroup, generator, idempotent, unit

from conftest import (
    extension_laws,
    perturb_one_image,
    random_restriction_action,
    relabelled,
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


@pytest.mark.parametrize(
    "permutations, subset",
    [
        ([], [0]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1]], [0]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]], [0]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 4], [3, 0, 1, 2]], [0]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0], [3, 0, 1, 2]], [0]),
        ([[1, 0, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], [0]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], [0, 4]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], [-1]),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, None], [3, 0, 1, 2]], [0]),
    ],
    ids=[
        "no-permutations", "too-few", "repeated-point", "point-off-the-set", "wrong-length",
        "identity-moves-points", "subset-too-large", "subset-negative", "undefined-point",
    ],
)
def test_restriction_action_rejects_each_non_action(permutations, subset):
    with pytest.raises(InvalidGroupAction):
        restriction_action(cyclic(4), permutations, subset)


def test_an_undefined_point_is_no_permutation():
    """int(None) raises TypeError, reported as the InvalidGroupAction of a non-action."""
    with pytest.raises(InvalidGroupAction, match="not an action"):
        restriction_action(cyclic(2), [[0, 1], [1, None]], [0])


def _random_partial_bijection(rng, n):
    return PartialBijection([y if rng.random() < 0.7 else None for y in rng.sample(range(n), n)])


def test_composites_equal_validated_constructions():
    """A composite or an inverse is built without the constructor's
    checks: on random pairs it equals, and hashes as, the validated
    construction of the pointwise composite or inverse."""
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 7)
        f, h = _random_partial_bijection(rng, n), _random_partial_bijection(rng, n)
        composite = f * h
        expected = PartialBijection([None if h(x) is None else f(h(x)) for x in range(n)])
        assert composite == expected and hash(composite) == hash(expected)
        assert type(composite.mapping) is tuple and composite.mapping == expected.mapping
        inverse = PartialBijection([next((x for x in range(n) if f(x) == y), None) for y in range(n)])
        assert f.invert() == inverse and hash(f.invert()) == hash(inverse)
    for bad, message in (((0, 0), "not injective"), ((2, None), "out of range"), ((-1,), "out of range")):
        with pytest.raises(ValueError, match=message):
            PartialBijection(bad)
    with pytest.raises(ValueError, match="different ground sets"):
        PartialBijection((0,)) * PartialBijection((0, 1))


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


@pytest.mark.parametrize("spec", ["cyclic:7", "cyclic:2"])
def test_a_round_trip_scans_its_table_once(monkeypatch, spec):
    """check_multiplicative keeps its verdict beside the table, so the
    from_inverse_action that follows it runs no second scan; the cap is
    still checked on every call.  cyclic:2 is the non-multiplicative
    action, whose kept witness the round trip reports."""
    g = group_from_spec(spec)
    if spec == "cyclic:7":
        inv_action = to_inverse_action(bernoulli_partial_action(g))
    else:
        inv_action = InverseAction(g, 3, (PartialBijection.identity(3), pb(3, [(0, 1), (1, 2), (2, 0)])))
    scans, real = [], actions._worst_pair

    def spy(*args, **kwargs):
        scans.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(actions, "_worst_pair", spy)
    witness = inv_action.check_multiplicative()
    assert (witness is None) == (spec == "cyclic:7")
    if witness is None:
        assert from_inverse_action(inv_action) == bernoulli_partial_action(g)
    else:
        with pytest.raises(NotMultiplicative) as err:
            from_inverse_action(inv_action)
        assert err.value.witness == witness
    assert len(scans) == 1 and inv_action.check_multiplicative() == witness and len(scans) == 1
    with pytest.raises(CapExceeded):
        inv_action.check_multiplicative(cap=g.order - 1)


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


def _semigroup_form_by_pairs(action):
    """The reference for ``validate_semigroup_form``: the pair-by-pair
    oracle ``extension_laws`` over the partial bijections, composition
    as the product."""
    g, theta = action.group, action.theta
    triple, derived = extension_laws(g, theta, operator.mul, operator.ne)
    failures = [("triple product", (s, t)) for s, t, bad in triple if bad]
    if theta[g.identity] != PartialBijection.identity(action.set_size):
        failures.append(("identity", (g.identity,)))
    return failures + [("derived triple product", (s, t)) for s, t, bad in derived if bad]


@pytest.mark.parametrize("rows_per_block", [None, 1])
def test_stacked_semigroup_form_is_the_generic_one(monkeypatch, rows_per_block):
    """On seeded partial actions of orders 3 to 6, valid (restricted
    translations), perturbed, and random images, the failure list of
    ``validate_semigroup_form`` is the reference's, in its order."""
    if rows_per_block:
        monkeypatch.setattr(semigroup, "SCAN_BYTES", 1)
    rng = random.Random(34)
    specs = ["cyclic:3", "klein4", "cyclic:5", "cyclic:6", "dihedral:3"]
    counts = {"valid": 0, "invalid": 0}
    for i in range(150):
        g = group_from_spec(specs[i % len(specs)])
        subset = [y for y in range(2 * g.order) if rng.random() < 0.4]
        action = restriction_action(g, translation_permutations(g, 2), subset)
        if i % 3 == 1:
            action = perturb_one_image(action, rng) or action
        elif i % 3 == 2:
            n = rng.randint(0, 5)
            action = PartialAction(g, n, tuple(_random_partial_bijection(rng, n) for _ in g.elements()))
        failures = [(f.axiom, f.witness) for f in validate_semigroup_form(action).failures]
        assert failures == _semigroup_form_by_pairs(action)
        counts["invalid" if failures else "valid"] += 1
    assert min(counts.values()) >= 40


def test_from_inverse_action_rejects_non_multiplicative():
    g = cyclic(2)
    # theta_t a proper involution nowhere near a partial action shape:
    # swap on a 3-point set with theta restricted to break composition
    images = (PartialBijection.identity(3), pb(3, [(0, 1), (1, 2), (2, 0)]))
    inv_action = InverseAction(g, 3, images)
    with pytest.raises(NotMultiplicative):
        from_inverse_action(inv_action)


def test_to_inverse_action_rejects_an_invalid_action():
    g = cyclic(2)
    bad = PartialAction(g, 2, (PartialBijection.identity(2), pb(2, [(0, 1)])))
    with pytest.raises(ValueError) as err:
        to_inverse_action(bad)
    assert str(err.value) == (
        "invalid partial action: domains fails at (1,)\n"
        "domain translation fails at (1, 0)\n"
        "domain translation fails at (1, 1)\n"
        "composition fails at (1, 1, 1)"
    )


def test_from_inverse_action_needs_the_unit_to_act_as_the_identity():
    g = cyclic(2)
    inv_action = InverseAction(g, 2, (pb(2, [(0, 0)]), PartialBijection.identity(2)))
    with pytest.raises(NotMultiplicative) as err:
        from_inverse_action(inv_action)
    assert str(err.value) == "unit does not act as the identity"
    assert err.value.witness == (unit(g),)


def test_an_inverse_action_refuses_another_groups_element():
    """A single image is read off the table, whose lookup alone would
    raise KeyError on an element of klein4 beside cyclic:4."""
    inv_action = to_inverse_action(bernoulli_partial_action(cyclic(4)))
    with pytest.raises(ValueError, match="element belongs to a different group"):
        inv_action(unit(klein_four()))


@pytest.mark.parametrize(
    "images",
    [(PartialBijection.identity(2),), (PartialBijection.identity(2), PartialBijection.identity(3))],
    ids=["too-few", "wrong-ground-set"],
)
def test_inverse_action_needs_one_image_per_element_on_one_ground_set(images):
    with pytest.raises(ValueError):
        InverseAction(cyclic(2), 2, images)


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


@pytest.mark.parametrize("spec", ["klein4", "cyclic:5", "dihedral:3", "cyclic:1", "relabelled-cyclic:4"])
def test_index_array_rows_are_the_extension_formula_off_partial_actions(spec):
    """Random generator images that are no partial action (some image of
    r^-1 is not the inverse of r's): every row of the index array, every
    table entry and every single image is the extension formula multiplied
    out as the plain ascending fold of partial bijections.  On the trivial
    group and on a group whose identity is not at index 0, the batched
    fold runs through products over masks that are no support."""
    g = relabelled(cyclic(4), [2, 0, 3, 1]) if spec == "relabelled-cyclic:4" else group_from_spec(spec)
    rng = random.Random(spec)
    n = 6
    images = []
    for _ in g.elements():
        perm = rng.sample(range(n), n)
        images.append(PartialBijection(tuple(perm[x] if rng.random() < 0.7 else None for x in range(n))))
    assert any(images[g.inv(r)] != images[r].invert() for r in g.elements())
    inv_action = InverseAction(g, n, images)
    table = inv_action.table()
    for i, a in enumerate(enumerate_semigroup(g)):
        projections = [images[r] * images[g.inv(r)] for r in g.elements() if a.support >> r & 1]
        expected = reduce(operator.mul, projections) * images[a.degree]
        assert table[a] == inv_action(a) == expected
        assert table.rows[i].tolist() == [n if v is None else v for v in expected.mapping] + [n]
