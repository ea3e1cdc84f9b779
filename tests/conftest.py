"""Shared builders for the test suite."""

from __future__ import annotations

import random

from invsg.actions import PartialAction, PartialBijection, restriction_action
from invsg.groups import FiniteGroup, cyclic, from_cayley_table, klein_four


def small_groups() -> list[FiniteGroup]:
    return [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5)]


def relabelled(group: FiniteGroup, new_index: list[int]) -> FiniteGroup:
    """The same group with element ``a`` renamed ``new_index[a]``."""
    p = group.order
    table = [[0] * p for _ in range(p)]
    for a in group.elements():
        for b in group.elements():
            table[new_index[a]][new_index[b]] = new_index[group.mul(a, b)]
    return from_cayley_table(table)


def translation_permutations(group: FiniteGroup, copies: int) -> list[list[int]]:
    """Left translation on ``copies`` disjoint copies of the group."""
    p = group.order
    perms = []
    for t in group.elements():
        perm = []
        for c in range(copies):
            perm.extend(group.mul(t, y) + c * p for y in range(p))
        perms.append(perm)
    return perms


def random_restriction_action(rng: random.Random) -> PartialAction:
    """A random valid partial action: restrict a translation action on
    up to 8 points to a random subset."""
    group = rng.choice([cyclic(2), cyclic(3), cyclic(4), klein_four()])
    copies = rng.randint(1, max(1, 8 // group.order))
    y_size = group.order * copies
    perms = translation_permutations(group, copies)
    subset = [y for y in range(y_size) if rng.random() < 0.6]
    return restriction_action(group, perms, subset)


def perturb_one_image(action: PartialAction, rng: random.Random) -> PartialAction | None:
    """Move one defined image of a non-identity map to a fresh point.

    Returns None when no map has both a defined point and a free
    target.
    """
    g = action.group
    candidates = [
        t for t in g.elements() if t != g.identity and action.theta[t].domain
    ]
    rng.shuffle(candidates)
    for t in candidates:
        f = action.theta[t]
        free = sorted(set(range(action.set_size)) - f.image)
        if not free:
            continue
        x = rng.choice(sorted(f.domain))
        target = rng.choice(free)
        mapping = list(f.mapping)
        mapping[x] = target
        theta = list(action.theta)
        theta[t] = PartialBijection(mapping)
        return PartialAction(g, action.set_size, tuple(theta))
    return None
