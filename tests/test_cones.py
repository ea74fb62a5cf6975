"""Cone.is_face_of against the brute-force face list, Cone.dim against the SNF,
Cone.extremal_rays against a second double description."""

import itertools
import random

import pytest

from fanifolds.cones import Cone, dual_description, zero_cone
from fanifolds.lattice import mat, smith_normal_form


def face_keys(other):
    """The old definition's face list: keys of every cone in other.faces()."""
    return {f.key for f in other.faces()}


def random_strongly_convex(rng, rank):
    """A strongly convex cone of rank `rank`, often not full-dimensional."""
    while True:
        dim = rng.randint(1, rank)
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
        gens = [
            [sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(rank)]
            if dim < rank
            else [rng.randint(-3, 3) for _ in range(rank)]
            for _ in range(rng.randint(dim, rank + 3))
        ]
        c = Cone(gens, rank)
        if c.gens and c.is_strongly_convex:
            return c


def check(c, other, keys):
    expected = c.key in keys
    assert c.is_face_of(other) == expected, (c, other)
    return expected


def test_is_face_of_matches_face_enumeration():
    rng = random.Random(11)
    verdicts = set()
    for rank in (2, 3, 4):
        for _ in range(25):
            other = random_strongly_convex(rng, rank)
            keys = face_keys(other)
            for f in other.faces():
                assert check(f, other, keys)
            rays = other.extremal_rays
            for size in range(len(rays) + 1):
                for sub in itertools.combinations(rays, size):
                    verdicts.add(check(Cone(sub, rank), other, keys))
            for g in other.gens:
                verdicts.add(check(Cone([g], rank), other, keys))
            for _ in range(3):
                cone = random_strongly_convex(rng, rank)
                meet = other.intersection(cone)
                verdicts.add(check(meet, other, keys))
                verdicts.add(check(meet, cone, face_keys(cone)))
                verdicts.add(check(cone, other, keys))
            assert not Cone(other.gens, rank).is_face_of(
                Cone([g + (0,) for g in other.gens], rank + 1)
            )
            assert not zero_cone(rank + 1).is_face_of(other)
    assert verdicts == {True, False}


def test_is_face_of_needs_strongly_convex_other():
    line = Cone([(1, 0), (-1, 0)], 2)
    with pytest.raises(ValueError):
        zero_cone(2).is_face_of(line)
    with pytest.raises(ValueError):
        Cone([(1, 0)], 2).is_face_of(line)


def test_dim_matches_the_smith_rank_of_the_generators():
    rng = random.Random(3301)
    seen_line = seen_zero = False
    for rank in range(5):
        for _ in range(40):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 2))
            ]
            if gens and rng.random() < 0.3:
                gens.append(tuple(-x for x in gens[0]))  # often a line
            c = Cone(gens, rank)
            expected = smith_normal_form(mat(c.gens)).rank if c.gens else 0
            assert c.dim == expected, c
            seen_zero |= not c.gens
            seen_line |= bool(c.gens) and not c.is_strongly_convex
    assert seen_zero and seen_line


def test_extremal_rays_match_the_double_description_of_the_dual():
    """The combinatorial rule against the rays a double description recovers
    from the dual: rank 0-4, lower-dimensional cones, gens that are sums of
    other gens, and cones with a line."""
    rng = random.Random(6061)
    seen = {"zero": 0, "low": 0, "full": 0, "sum": 0, "line": 0}
    for rank in range(5):
        for _ in range(60):
            dim = rng.randint(1, rank) if rank else 0
            basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
            gens = [
                tuple(sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(rank))
                for _ in range(rng.randint(1, rank + 3))
            ]
            if len(gens) >= 2 and rng.random() < 0.4:
                gens.append(tuple(x + y for x, y in zip(gens[0], gens[1])))
                seen["sum"] += 1
            if gens and rng.random() < 0.2:
                gens.append(tuple(-x for x in gens[-1]))  # often a line
            c = Cone(gens, rank)
            want = dual_description(c.dual_rays, c.perp_basis, c.rank)[1]
            assert c.extremal_rays == want, c
            if c.is_strongly_convex:
                assert set(want) <= set(c.gens), c
            seen["zero"] += not c.gens
            seen["low"] += 0 < c.dim < rank
            seen["full"] += 0 < c.dim == rank
            seen["line"] += not c.is_strongly_convex
    assert all(seen.values()), seen
