import numpy as np
import pytest

from invsg import graded
from invsg.algebra import DEFAULT_DIM_CAP, build_algebra, group_algebra
from invsg.graded import (
    GradedSubspace,
    element_subspace,
    generated_semigroup,
    grading,
    subspace_product,
)
from invsg.groups import cyclic, dihedral, klein_four
from invsg.semigroup import enumerate_semigroup, generator, order_formula, unit

from conftest import quaternion


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
    [
        (cyclic(2), 3),
        (cyclic(4), 20),
        (klein_four(), 20),
        (cyclic(5), 48),
        (dihedral(3), 112),
        (cyclic(7), 256),
        (cyclic(8), 576),
        (dihedral(4), 576),
        (cyclic(9), 1280),
        (cyclic(10), 2816),
        (quaternion(), 576),
    ],
)
def test_generated_semigroup_count(g, expected):
    alg = build_algebra(g, cap=max(expected, DEFAULT_DIM_CAP))  # orders 9 and 10 lie past the default cap
    closure = generated_semigroup(grading(alg))
    assert len(closure) == expected == (
        order_formula(g.order) if g.order >= 2 else 1
    )
    assert closure == {element_subspace(alg, a) for a in alg.basis}


def test_no_generators_generate_the_empty_set():
    assert generated_semigroup([]) == set() and generated_semigroup({}) == set()


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
    with pytest.raises(ValueError):
        element_subspace(a1, enumerate_semigroup(cyclic(3))[0])
    # a group algebra's basis is the group's indices: no semigroup element
    # is in it, of its own group or another (ValueError, not KeyError)
    for elem in (unit(cyclic(3)), generator(cyclic(3), 1), unit(cyclic(2))):
        with pytest.raises(ValueError, match="not a basis element"):
            element_subspace(group_algebra(cyclic(3)), elem)


def _random_subsets(rng, dim, count):
    """Empty, a singleton, the whole basis and ``count`` random subsets."""
    subsets = [frozenset(), frozenset({int(rng.integers(dim))}), frozenset(range(dim))]
    for _ in range(count):
        size = int(rng.integers(1, dim + 1))
        subsets.append(frozenset(rng.choice(dim, size=size, replace=False).tolist()))
    return subsets


@pytest.mark.parametrize(
    "alg",
    [
        *(build_algebra(g) for g in [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5), dihedral(3), cyclic(7)]),
        group_algebra(dihedral(3)),
        group_algebra(cyclic(7)),
    ],
    ids=["cyclic2", "cyclic3", "cyclic4", "klein4", "cyclic5", "dihedral3", "cyclic7", "ga_dihedral3", "ga_cyclic7"],
)
def test_products_and_stars_match_the_pairwise_image(alg):
    """The OR of row masks against the set image of every index pair."""
    rng = np.random.default_rng(alg.dim)
    subsets = [GradedSubspace(alg, ix) for ix in _random_subsets(rng, alg.dim, 6)]
    for x in subsets:
        star = x.star()
        assert star.indices == {int(alg.star[i]) for i in x.indices}
        assert all(type(i) is int for i in star.indices)
        for y in subsets:
            prod = subspace_product(x, y)
            assert prod.indices == {int(alg.mult[i, j]) for i in x.indices for j in y.indices}
            assert isinstance(prod.indices, frozenset) and all(type(i) is int for i in prod.indices)


def _count_calls(monkeypatch, name):
    """Wrap ``graded.<name>`` so that every call is counted."""
    calls = []
    original = getattr(graded, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(graded, name, spy)
    return calls


def test_a_closure_builds_row_masks_once_per_piece(monkeypatch):
    """The closure's right operands are its generators: dihedral:3 builds
    row masks for its 6 pieces, once each and never for a product, as
    one (112, 2) uint64 array each, and the masks stay out of equality
    and the hash."""
    alg = build_algebra(dihedral(3))
    pieces = list(grading(alg).values())
    built = _count_calls(monkeypatch, "_row_masks")
    closure = generated_semigroup(pieces)
    assert len(closure) == 112 and len(built) == 6
    assert sorted((indices for _, indices in built), key=sorted) == sorted((p.indices for p in pieces), key=sorted)
    assert [s for s in closure if "_rows" in vars(s)] == [s for s in closure if any(s is p for p in pieces)]
    assert generated_semigroup(pieces) == closure and len(built) == 6
    for p in pieces:
        fresh = GradedSubspace(alg, frozenset(p.indices))
        assert "_rows" in vars(p) and "_rows" not in vars(fresh)
        assert (p._rows.shape, p._rows.dtype) == ((112, 2), np.uint64)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


def _closure_work(calls):
    """From spies on the batched product and the decoder: the (left,
    right) operand counts of each product and the rows of each decode."""
    products, decodes = calls
    return [(count, len(rows)) for rows, _, _, count in products], [len(masks) for masks, _ in decodes]


def test_a_closure_decodes_only_new_subspaces(monkeypatch):
    """dihedral:3: one batched product per frontier layer over the 6
    generators multiplies each of the 112 subspaces once by each, 672
    products in all, and only the 106 new masks are decoded, once each,
    one decode per layer."""
    pieces = grading(build_algebra(dihedral(3)))
    calls = _count_calls(monkeypatch, "_batched_product"), _count_calls(monkeypatch, "_decode")
    closure = generated_semigroup(pieces)
    products, decodes = _closure_work(calls)
    assert len(closure) == 112
    assert all(right == 6 for _, right in products)
    assert sum(left * right for left, right in products) == 672 == 112 * 6
    assert sum(decodes) == 106 and len(decodes) == len(products)
    assert products[0][0] == 6 and [left for left, _ in products[1:]] == decodes[:-1] and decodes[-1] == 0


def _reference_closure(alg, generators):
    """Naive worklist over frozensets of table images, right products only."""
    gens = {frozenset(g.indices) for g in generators}
    found, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for g in gens:
            product = frozenset(alg.mult[np.ix_(sorted(x), sorted(g))].ravel().tolist())
            if product not in found:
                found.add(product)
                todo.append(product)
    return found


def _generator_sets(alg, rng):
    """Seeded random generator sets, plus the edge cases of the mask-keyed
    closure: a repeated generator, two equal generators built apart, the
    empty subspace (mask 0) and a product that is also a generator."""
    def sub(ix):
        return GradedSubspace(alg, frozenset(ix))

    sizes = rng.integers(1, min(3, alg.dim) + 1, size=8)
    subsets = [sub(rng.choice(alg.dim, size=int(k), replace=False).tolist()) for k in sizes]
    x, y, z = subsets[:3]
    return [
        *([subsets[k], subsets[k + 1]] for k in range(3, 7)),
        [x, y, z, x],
        [x, sub(x.indices), y],
        [sub(()), x, y],
        [sub(())],
        [x, y, x * y],
        [x, x * x, y],
    ]


@pytest.mark.parametrize(
    "alg",
    [
        *(build_algebra(g) for g in [cyclic(1), cyclic(2), cyclic(3), klein_four(), dihedral(3)]),
        *(build_algebra(g) for g in [cyclic(7), dihedral(4), cyclic(8)]),
        group_algebra(dihedral(3)),
        group_algebra(dihedral(4)),
    ],
    ids=["cyclic1", "cyclic2", "cyclic3", "klein4", "dihedral3", "cyclic7", "dihedral4", "cyclic8", "ga_dihedral3", "ga_dihedral4"],
)
def test_generated_semigroup_matches_a_naive_closure(alg, monkeypatch):
    """Every seeded generator set: the reference's closure, with each
    subspace multiplied once by each distinct generator and each new
    one decoded once."""
    rng = np.random.default_rng(alg.dim)
    calls = _count_calls(monkeypatch, "_batched_product"), _count_calls(monkeypatch, "_decode")
    for gens in _generator_sets(alg, rng):
        for spied in calls:
            spied.clear()
        closure = generated_semigroup(gens)
        products, decodes = _closure_work(calls)
        assert {s.indices for s in closure} == _reference_closure(alg, gens)
        assert all(s.algebra is alg for s in closure)
        assert sum(decodes) == len(closure) - len(set(gens))
        assert sum(left * right for left, right in products) == len(closure) * len(set(gens))


def test_generators_from_two_algebras_are_rejected():
    a1, a2 = build_algebra(cyclic(2)), build_algebra(cyclic(2))
    for ix in [(0,), (1,)]:  # the same mask, then different ones
        with pytest.raises(ValueError):
            generated_semigroup([GradedSubspace(a1, frozenset({0})), GradedSubspace(a2, frozenset(ix))])


@pytest.mark.parametrize(
    "g",
    [cyclic(2), cyclic(4), klein_four(), cyclic(5), dihedral(3)],
    ids=["cyclic2", "cyclic4", "klein4", "cyclic5", "dihedral3"],
)
def test_element_subspace_matches_the_natural_order(g):
    alg = build_algebra(g)
    for a in alg.basis:
        assert element_subspace(alg, a).indices == {i for i, b in enumerate(alg.basis) if b <= a}


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


@pytest.mark.parametrize("g", [cyclic(1), cyclic(4), klein_four(), dihedral(3)], ids=["cyclic1", "cyclic4", "klein4", "dihedral3"])
def test_a_group_algebra_is_graded_by_its_singletons(g):
    """A group algebra's basis is the group's indices, each its own
    degree: its grading is the singletons that
    test_group_algebra_grading_saturates builds by hand, and their
    closure has |G| members."""
    ga = group_algebra(g)
    pieces = grading(ga)
    assert pieces == {t: GradedSubspace(ga, frozenset({t})) for t in g.elements()}
    assert all(piece.degrees() == {t} for t, piece in pieces.items())
    assert len(generated_semigroup(pieces)) == g.order
