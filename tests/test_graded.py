import pytest

from invsg.algebra import build_algebra, group_algebra
from invsg.graded import (
    GradedSubspace,
    element_subspace,
    generated_semigroup,
    grading,
    subspace_product,
)
from invsg.groups import cyclic, dihedral, klein_four
from invsg.semigroup import enumerate_semigroup, generator, order_formula


def test_grading_sizes():
    g = cyclic(4)
    pieces = grading(build_algebra(g))
    assert len(pieces[g.identity]) == 8
    for t in g.elements():
        if t != g.identity:
            assert len(pieces[t]) == 4
    assert sum(len(p) for p in pieces.values()) == 20


def test_grading_partitions_basis():
    alg = build_algebra(klein_four())
    pieces = grading(alg)
    seen = set()
    for piece in pieces.values():
        assert not (piece.indices & seen)
        seen |= piece.indices
        assert len(piece.degrees()) <= 1
    assert seen == set(range(alg.dim))


def test_trivial_group_grading():
    alg = build_algebra(cyclic(1))
    pieces = grading(alg)
    assert len(pieces) == 1 and len(pieces[0]) == 1


def test_star_swaps_pieces():
    g = cyclic(4)
    pieces = grading(build_algebra(g))
    for t in g.elements():
        assert pieces[t].star() == pieces[g.inv(t)]


def test_products_of_pieces():
    g = cyclic(4)
    alg = build_algebra(g)
    pieces = grading(alg)
    e = g.identity
    for s in g.elements():
        for t in g.elements():
            prod = pieces[s] * pieces[t]
            assert prod.indices <= pieces[g.mul(s, t)].indices
    for t in g.elements():
        assert pieces[t] * pieces[g.inv(t)] * pieces[t] == pieces[t]
    assert pieces[e] * pieces[e] == pieces[e]


@pytest.mark.parametrize(
    "g,expected",
    [(cyclic(2), 3), (cyclic(4), 20), (klein_four(), 20), (cyclic(5), 48), (dihedral(3), 112)],
)
def test_generated_semigroup_count(g, expected):
    alg = build_algebra(g)
    closure = generated_semigroup(grading(alg))
    assert len(closure) == expected == (
        order_formula(g.order) if g.order >= 2 else 1
    )
    assert closure == {element_subspace(alg, a) for a in alg.basis}


def test_element_subspace_is_bijective_homomorphism():
    for g in [cyclic(2), cyclic(4), klein_four()]:
        alg = build_algebra(g)
        elements = enumerate_semigroup(g)
        images = {}
        for a in elements:
            sub = element_subspace(alg, a)
            assert sub.degrees() <= {a.degree}
            images[a] = sub
        # injective
        assert len(set(images.values())) == len(elements)
        # homomorphism
        for a in elements:
            for b in elements:
                assert images[a] * images[b] == images[a * b]
        # image equals the closure of the grading pieces
        assert set(images.values()) == generated_semigroup(grading(alg))


def test_element_subspace_of_generator_is_piece():
    g = klein_four()
    alg = build_algebra(g)
    pieces = grading(alg)
    for t in g.elements():
        assert element_subspace(alg, generator(g, t)) == pieces[t]


def test_grading_identities():
    for g in [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5)]:
        alg = build_algebra(g)
        pieces = grading(alg)
        e = g.identity
        for s in g.elements():
            s_inv = g.inv(s)
            assert pieces[s] * pieces[e] == pieces[s]
            for t in g.elements():
                st = g.mul(s, t)
                t_inv = g.inv(t)
                assert (
                    pieces[s_inv] * pieces[s] * pieces[t]
                    == pieces[s_inv] * pieces[st]
                )
                assert (
                    pieces[s] * pieces[t] * pieces[t_inv]
                    == pieces[st] * pieces[t_inv]
                )


def test_mismatched_algebras_rejected():
    a1 = build_algebra(cyclic(2))
    a2 = build_algebra(cyclic(2))
    x = GradedSubspace(a1, frozenset({0}))
    y = GradedSubspace(a2, frozenset({0}))
    with pytest.raises(ValueError):
        subspace_product(x, y)


def test_group_algebra_grading_saturates():
    # contrast case: in the plain group algebra, graded by the
    # singleton spans of the group basis, products never grow and the
    # closure is just one subspace per group element
    for g in [cyclic(4), klein_four()]:
        ga = group_algebra(g)
        singletons = {t: GradedSubspace(ga, frozenset({t})) for t in g.elements()}
        for s in g.elements():
            for t in g.elements():
                assert singletons[s] * singletons[t] == singletons[g.mul(s, t)]
        assert len(generated_semigroup(singletons)) == g.order
