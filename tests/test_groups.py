import numbers
from math import gcd

import numpy as np
import pytest

from invsg.groups import (
    GroupSpecError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    group_from_spec,
    group_to_dict,
    json_value,
    klein_four,
    load_group,
)

# order-5 loop: Latin square with two-sided identity and two-sided
# inverses that fails associativity at (1, 1, 2)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Latin square with two-sided identity where 1's right inverse (2) is
# not a left inverse
NO_INVERSE_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 2, 0, 4, 3],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 0, 3, 1, 2],
]


def test_trivial_group():
    g = from_cayley_table([[0]])
    assert g.order == 1 and g.identity == 0 and g.inverses == (0,)


def test_order_two():
    g = from_cayley_table([[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.mul(1, 1) == 0
    assert g.table == cyclic(2).table


def test_not_latin_square():
    with pytest.raises(NotLatinSquare, match="row 1"):
        from_cayley_table([[0, 1], [1, 1]])
    with pytest.raises(NotLatinSquare, match="out of range"):
        from_cayley_table([[0, 2], [1, 0]])
    with pytest.raises(NotLatinSquare):
        from_cayley_table([[0, 1], [0, 1]])


def test_no_identity():
    with pytest.raises(NoIdentity):
        from_cayley_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


def test_no_inverse():
    with pytest.raises(NoInverse, match="element 1"):
        from_cayley_table(NO_INVERSE_TABLE)


def test_not_associative():
    with pytest.raises(NotAssociative, match=r"\(1, 1, 2\)"):
        from_cayley_table(NONASSOC_LOOP)


def test_cyclic_basics():
    assert cyclic(1).order == 1
    assert cyclic(4).inverses[1] == 3
    assert cyclic(2).table == from_cayley_table([[0, 1], [1, 0]]).table
    with pytest.raises(ValueError):
        cyclic(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_element_orders(n):
    g = cyclic(n)
    for a in g.elements():
        assert g.element_order(a) == n // gcd(a, n)


def test_direct_product_with_trivial():
    g = cyclic(4)
    assert direct_product(cyclic(1), g).table == g.table
    assert direct_product(g, cyclic(1)).table == g.table


def test_klein_four_self_inverse():
    k = klein_four()
    assert k.order == 4
    for a in k.elements():
        assert k.mul(a, a) == k.identity


def test_product_c2_c3_has_order_six_element():
    g = direct_product(cyclic(2), cyclic(3))
    a = 1 * 3 + 1  # the pair (1, 1)
    # independent oracle: iterate the product until the identity returns
    x, n = a, 1
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    assert n == 6


@pytest.mark.parametrize("g", [cyclic(5), klein_four(), dihedral(3)])
def test_associativity_holds(g):
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_dihedral():
    d3 = dihedral(3)
    assert d3.order == 6
    # any reflection squares to the identity
    assert d3.mul(3, 3) == d3.identity
    # non-abelian
    assert d3.mul(1, 3) != d3.mul(3, 1)


def test_left_translate():
    g = cyclic(4)
    # 2 * {0, 1, 2} = {2, 3, 0}
    assert g.left_translate(2, 0b0111) == 0b1101


def test_group_spec_and_json(tmp_path):
    assert group_from_spec("cyclic:4").table == cyclic(4).table
    assert group_from_spec("klein4").table == klein_four().table
    assert group_from_spec("dihedral:3").order == 6
    with pytest.raises(GroupSpecError):
        group_from_spec("nonsense")
    with pytest.raises(GroupSpecError):
        group_from_spec("cyclic:x")

    path = tmp_path / "g.json"
    import json

    path.write_text(json.dumps(group_to_dict(klein_four())))
    loaded = load_group(str(path))
    assert loaded.table == klein_four().table
    # files override builtins
    assert group_from_spec(str(path)).table == klein_four().table


def test_value_equality_across_constructions():
    assert cyclic(4) == group_from_spec("cyclic:4")
    assert cyclic(4) != klein_four()


def _abc_scalar(kind):
    """The reference rule for a number: an instance of the ABC, not a bool."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool)


def _abc_list(item, length=None):
    return lambda v: isinstance(v, list) and length in (None, len(v)) and all(map(item, v))


_REFERENCE_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "an integer": _abc_scalar(numbers.Integral),
    "a list of rows of integers": _abc_list(_abc_list(_abc_scalar(numbers.Integral))),
    "a list of [point, image] pairs": _abc_list(_abc_list(_abc_scalar(numbers.Integral), 2)),
    "a list of rows of [re, im] pairs": _abc_list(_abc_list(_abc_list(_abc_scalar(numbers.Real), 2))),
}

_SCALARS = [3, -1, 2.5, 1.0, True, False, np.int64(3), np.float64(2.5), np.bool_(True), "1", None, 2**70, 1 + 0j]


def _samples():
    """Each scalar alone, as a row entry, as a pair entry and as a re or im
    part; pairs and [re, im] entries of the wrong length; non-lists."""
    yield {}
    yield {"a": 1}
    yield []
    for x in _SCALARS:
        yield x
        yield [x]
        yield [[x]]
        yield [[0, x]]
        yield [[x, 1], [2, 3]]
        yield [[[x, 0.0]]]
        yield [[[0.0, x], [1.0, 0.0]]]
    for bad in ([[1]], [[1, 2, 3]], [[[1.0]]], [[[1.0, 0.0, 0.0]]], [[]], [[[]]], [(1, 2)], ((1, 2),)):
        yield bad


@pytest.mark.parametrize("kind", list(_REFERENCE_KINDS))
def test_json_value_accepts_and_rejects_as_the_abc_rule(kind):
    """The exact int/float fast path changes no verdict and no message:
    bools are still refused as numbers, NumPy scalars still accepted."""
    reference = _REFERENCE_KINDS[kind]
    verdicts = set()
    for value in _samples():
        if reference(value):
            assert json_value(value, kind, "field") is value
        else:
            with pytest.raises(ValueError) as info:
                json_value(value, kind, "field")
            assert str(info.value) == f"field must be {kind}, got {value!r}"
        verdicts.add(reference(value))
    assert verdicts == {True, False}
