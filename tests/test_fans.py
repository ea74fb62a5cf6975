"""Cones, fans, quotients, subdivisions, and stacky structure."""

import copy
import itertools
import math
import os
import pickle
import random

import pytest

from fanifolds.cones import Cone, product_cone, zero_cone
from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    orthant_fan,
    p1_fan,
    projective_fan,
    quadric_fan,
    stacky_quadric_fan,
)
from fanifolds.fanifold import from_fan
from fanifolds.fans import (
    Fan,
    FanQuotient,
    RefinesResult,
    StackyFan,
    _held,
    _pair_facets,
    _plain_fan,
    _set_valid,
    _star_quotient,
    cones_cover,
    face_closure,
    fan_key,
    quotient_fan,
    refines,
    resolve_to_smooth,
    stellar_subdivision,
)
from fanifolds.files import load_fanifold
from fanifolds.lattice import (
    identity_matrix,
    lattice_map,
    mat,
    mat_vec,
    primitivize,
    quotient_with_torsion,
    smith_normal_form,
)
from test_cones import contains_cone, is_face_of
from test_properties import random_fan


def test_cone_basics():
    c = Cone([(1, 0), (0, 1)], 2)
    assert c.dim == 2
    assert len(c.facets()) == 2
    assert len(c.faces()) == 4  # itself, two rays, origin
    assert contains_cone(c, Cone([(1, 1)], 2))
    assert not contains_cone(Cone([(1, 1)], 2), c)
    assert zero_cone(3).dim == 0


def test_cone_extremal_rays_drop_redundant_generators():
    c = Cone([(1, 0), (1, 1), (0, 1)], 2)
    assert sorted(c.extremal_rays) == [(0, 1), (1, 0)]
    assert c == Cone([(1, 0), (0, 1)], 2)


def test_face_tests_on_a_validated_fan_build_no_cone(monkeypatch):
    coarse = orthant_fan(2)
    fine = stellar_subdivision(coarse, (1, 1))
    fans = [projective_fan(2), orthant_fan(3), quadric_fan(), p1_fan(), coarse, fine]
    for fan in fans:
        assert fan.validate() == []
    built = []
    init = Cone.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", counted)
    for fan in fans:
        assert fan.is_face_closed
        fan.completeness_witness()
        fan.properties()
    assert refines(fine, coarse).ok
    assert cones_cover(coarse.cones[0], [c for c in fine.cones if c.dim == 2])
    assert not built


def test_product_cone():
    p = product_cone(Cone([(1,)], 1), Cone([(1,)], 1))
    assert p.rank == 2
    assert p == Cone([(1, 0), (0, 1)], 2)


def test_fan_validate_catches_overlap():
    problem = ["cones 0 and 1 do not intersect in a common face"]
    bad = Fan([Cone([(1, 0), (0, 1)], 2), Cone([(1, 1), (1, -1)], 2)], 2)
    assert bad.validate() == problem == problems_by_containment(bad)  # interiors overlap
    # the meet is all of cone 1, which is not a face of cone 0
    bad = Fan([Cone([(1, 0), (0, 1)], 2), Cone([(1, 0), (1, 1)], 2)], 2)
    assert bad.validate() == problem == problems_by_containment(bad)
    # the meet is the ray (1,1,0), inside a facet of the orthant
    orthant = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    bad = Fan([orthant, Cone([(1, 1, 0), (1, 1, -1)], 3)], 3)
    assert bad.validate() == problem == problems_by_containment(bad)


def meet_rule(fan):
    """The pairwise problems of a fan found by building every meet and
    asking whether it is a face of both cones: the oracle for the
    nested-pair shortcut in ``Fan.validate``."""
    return [
        f"cones {i} and {j} do not intersect in a common face"
        for (i, ci), (j, cj) in itertools.combinations(enumerate(fan.cones), 2)
        if not all(is_face_of(ci.intersection(cj), c) for c in (ci, cj))
    ]


def problems_by_containment(fan):
    """``Fan.validate``'s problem list by the rule it used before it nested
    cones by their extremal rays: the reference for that shortcut.  Nesting
    is read off the containment table ``_held`` (one ``Cone.contains`` per
    cone and distinct gen); a nested pair gets a face test, the pairs of
    maximal cones a meet, and a fan that fails either has every pair
    scanned.  Reads none of the fan's cached tables but ``_first_index``."""
    problems = []
    for i, c in enumerate(fan.cones):
        if c.rank != fan.rank:
            return problems + [f"cone {i}: ambient rank {c.rank} != {fan.rank}"]
        if not c.is_strongly_convex:
            problems.append(f"cone {i}: contains a line")
    for i, c in enumerate(fan.cones):
        first = fan._first_index[c.key]
        if first != i:
            problems.append(f"cone {i} duplicates cone {first}")
    if problems:
        return problems
    inside = [
        {j for j, c in enumerate(fan.cones) if j != i and h.issuperset(c.gens)}
        for i, h in enumerate(_held(fan.cones, fan.cones))
    ]

    def meets_in_a_face(i, j):
        ci, cj = fan.cones[i], fan.cones[j]
        if i in inside[j]:
            return cj._has_face(ci)
        if j in inside[i]:
            return ci._has_face(cj)
        meet = ci.intersection(cj)
        return ci._has_face(meet) and cj._has_face(meet)

    held = set().union(*inside)
    tops = [i for i in range(len(fan.cones)) if i not in held]
    nested = [(i, j) for j, ins in enumerate(inside) for i in ins]
    pairs = itertools.chain(nested, itertools.combinations(tops, 2))
    if all(meets_in_a_face(i, j) for i, j in pairs):
        return []
    return [
        f"cones {i} and {j} do not intersect in a common face"
        for i, j in itertools.combinations(range(len(fan.cones)), 2)
        if not meets_in_a_face(i, j)
    ]


def test_validate_matches_the_meet_rule_on_the_bundled_examples():
    """Each stratum fan, and the same fan with a ray through the interior of
    one of its cones added first or last: the ray lies in that cone but is
    not one of its faces."""
    broken = 0
    for name, build in EXAMPLES.items():
        for st in build().strata:
            fan = st.plain_fan
            assert fan.validate() == meet_rule(fan) == [], (name, st.name)
            for c in fan.cones:
                if c.dim < 2:
                    continue
                ray = Cone([[sum(x) for x in zip(*c.extremal_rays)]], fan.rank)
                for cones in ((ray,) + fan.cones, fan.cones + (ray,)):
                    bad = Fan(cones, fan.rank)
                    assert bad.validate() == meet_rule(bad) != [], (name, st.name, c)
                    assert bad.validate() == problems_by_containment(bad), (name, st.name, c)
                    broken += 1
    assert broken > 20


def test_validate_meets_only_the_pairs_that_are_not_nested(monkeypatch):
    """``Fan.validate`` builds no meet for a pair nested by extremal rays,
    which meets in its smaller cone whichever comes first: on a valid fan it
    meets the pairs of maximal cones alone, and on an invalid one no pair of
    which one cone's rays hold the other's.  (On an invalid fan, a pair
    nested otherwise is met: two cones maximal by rays, or any pair the scan
    reaches.)  On each bundled stratum fan, and on it with a ray through the
    interior of a cone added first or last."""
    met = []
    intersection = Cone.intersection

    def recording(self, other):
        met.append((self, other))
        return intersection(self, other)

    monkeypatch.setattr(Cone, "intersection", recording)
    seen = {"valid": 0, "invalid": 0}
    for name, build in sorted(EXAMPLES.items()):
        for st in build().strata:
            fan = st.fan
            cases = [fan.cones]
            for c in fan.cones:
                if c.dim >= 2:
                    ray = Cone([[sum(x) for x in zip(*c.extremal_rays)]], fan.rank)
                    cases += [(ray,) + fan.cones, fan.cones + (ray,)]
            for cones in cases:
                del met[:]
                fresh = Fan(cones, fan.rank)
                valid = not fresh.validate()
                seen["valid" if valid else "invalid"] += 1
                assert not any(
                    set(a.extremal_rays) <= set(b.extremal_rays)
                    or set(b.extremal_rays) <= set(a.extremal_rays)
                    for a, b in met
                ), (name, st.name, len(cones))
                if valid:
                    assert not any(contains_cone(a, b) or contains_cone(b, a) for a, b in met), (
                        name, st.name, len(cones)
                    )
                    tops = len(fresh.maximal_cone_indices())
                    assert len(met) == tops * (tops - 1) // 2, (name, st.name)
    assert seen["valid"] > 50 and seen["invalid"] > 20, seen


def test_set_valid_keeps_what_was_checked():
    """``_set_valid`` records a fan valid, with the containment table carried
    from the source's through the star map, only where nothing was
    checked: a problem list a check already made stays, so the table still
    refuses that fan, and a valid fan keeps the table its check recorded."""
    quadrant = Cone([(1, 0), (0, 1)], 2)
    inner = Cone([(1, 0), (1, 1)], 2)  # inside the quadrant, not a face
    source = Fan([Cone([(1, 0)], 2), Cone([(0, 1)], 2)], 2)
    star = {0: 0, 1: 1}
    checked = Fan([quadrant, inner], 2)
    problems = checked.validate()
    assert problems == problems_by_containment(checked) == [
        "cones 0 and 1 do not intersect in a common face"
    ]
    _set_valid(checked, source, star)
    assert checked.validate() == problems
    with pytest.raises(ValueError, match="^invalid fan: cones 0 and 1 do not intersect"):
        checked._inside
    valid = Fan([quadrant, Cone([(1, 0)], 2)], 2)
    inside = valid._inside
    assert valid.validate() == [] and inside == (frozenset({1}), frozenset())
    _set_valid(valid, source, star)
    assert valid._inside is inside
    carried = Fan([quadrant, inner], 2)
    _set_valid(carried, source, star)
    assert carried.validate() == [] and carried._inside == source._inside


def test_validate_matches_the_meet_rule_on_random_fans():
    """Random cones of rank 2 and 3 mixed with their faces and with rays
    inside them, so nested pairs meet both in a face and off one."""
    rng = random.Random(8081)
    seen = {"valid": 0, "invalid": 0, "face": 0, "not a face": 0}
    for _ in range(300):
        rank = rng.choice((2, 3))
        pool = []
        while len(pool) < 3:
            gens = [
                [rng.randint(-2, 2) for _ in range(rank)]
                for _ in range(rng.randint(1, rank + 1))
            ]
            c = Cone(gens, rank)
            if c.gens and c.is_strongly_convex:
                pool.append(c)
        for c in list(pool):
            pool += [Cone(f, rank) for f in c.faces()]
            weights = [rng.randint(0, 2) for _ in c.extremal_rays]
            inside = [sum(w * r[i] for w, r in zip(weights, c.extremal_rays)) for i in range(rank)]
            pool.append(Cone([inside], rank))
        picked = {}
        for c in rng.sample(pool, rng.randint(2, 5)):
            picked.setdefault(c.key, c)
        fan = Fan(picked.values(), rank)
        assert fan.validate() == meet_rule(fan) == problems_by_containment(fan), fan.cones
        seen["invalid" if fan.validate() else "valid"] += 1
        for ci, cj in itertools.permutations(fan.cones, 2):
            if ci.gens and contains_cone(cj, ci):
                seen["face" if is_face_of(ci, cj) else "not a face"] += 1
    assert min(seen.values()) >= 20, seen


def test_fan_validate_runs_once(monkeypatch):
    """Counted by meets: validation builds one per pair of maximal cones
    and tests nested pairs with ``Cone._has_face`` alone."""
    calls = []
    intersection = Cone.intersection

    def counted(self, other):
        calls.append(1)
        return intersection(self, other)

    monkeypatch.setattr(Cone, "intersection", counted)
    fan = projective_fan(2)
    first = fan.validate()
    assert first == [] and calls
    before = len(calls)
    assert fan.validate() == first
    assert len(calls) == before


def test_cone_index_returns_the_first_equal_cone():
    a, b = Cone([(1, 0), (0, 1)], 2), Cone([(1, 0)], 2)
    # cone 2 is cone 0 again, spanned by other gens
    fan = Fan([a, b, Cone([(1, 0), (1, 1), (0, 1)], 2), zero_cone(2), b], 2)
    assert fan.validate() == ["cone 2 duplicates cone 0", "cone 4 duplicates cone 1"]
    assert fan.validate() == problems_by_containment(fan)
    assert fan.cone_index(Cone([(0, 1), (2, 1), (1, 0)], 2)) == 0
    assert fan.cone_index(b) == 1
    assert fan.cone_index(zero_cone(2)) == 3
    assert fan.cone_index(Cone([(0, 1)], 2)) is None  # absent
    assert fan.cone_index(Cone([(1, 0, 0)], 3)) is None  # another rank
    assert fan.cone_index(zero_cone(3)) is None


def test_fan_properties_projective_plane():
    props = projective_fan(2).properties()
    assert props["valid"] and props["complete"] and props["smooth"]
    assert props["simplicial"] and props["face_closed"]
    assert props["n_cones"] == 7


def test_fan_properties_quadric():
    props = quadric_fan().properties()
    assert props["valid"] and not props["complete"]
    assert props["simplicial"] and not props["smooth"]
    assert props["non_smooth_multiplicity"] == 2


def _c(*gens):
    return Cone(list(gens), len(gens[0]))


def facet_connected(tops):
    """Are the equal-dimensional cones ``tops`` one component under
    sharing a facet?  The reference for the search ``_pair_facets`` once
    ran after pairing; on a valid fan the tiling lemma in the ``fans``
    docstring makes it follow from the pairing."""
    ray_sets = [set(t.extremal_rays) for t in tops]
    neighbours = [
        {j for f in t.facets() for j, rays in enumerate(ray_sets) if j != i and rays.issuperset(f)}
        for i, t in enumerate(tops)
    ]
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = neighbours[frontier.pop()] - reached
        reached |= nxt
        frontier.extend(nxt)
    return len(reached) == len(tops)


def test_completeness_witness_strings_on_small_fans():
    """Each reason ``fan props`` can print, on the smallest fan that gives
    it; complete fans give None.  Two complete fans laid over each other are
    no fan, so their witness is refused; their maximal cones pass facet
    pairing, and the reference search finds them not facet-connected, which
    no valid fan's paired cones are (the tiling lemma)."""
    hexagon = list(projective_fan(2).cones) + [
        _c((1, 1), (-2, 1)), _c((-2, 1), (1, -2)), _c((1, -2), (1, 1)),
    ]  # two complete fans laid over each other: each pairs its facets within itself
    cases = [
        (Fan([_c((1, 0), (0, 1))], 2), "not closed under taking faces"),
        (Fan([], 2), "empty fan"),
        (
            face_closure(Fan([_c((1, 0))], 2)),
            "maximal cone [(1, 0)] has dimension 1 < 2",
        ),
        (
            orthant_fan(2),
            "facet [(0, 1)] of a maximal cone is shared by 0 other maximal cones, expected 1",
        ),
        (
            face_closure(Fan([_c((1, 0), (0, 1)), _c((0, 1), (-1, 0))], 2)),
            "facet [(1, 0)] of a maximal cone is shared by 0 other maximal cones, expected 1",
        ),
        (projective_fan(2), None),
        (p1_fan(), None),
        (Fan([zero_cone(0)], 0), None),
    ]
    for fan, witness in cases:
        assert fan.completeness_witness() == witness, fan.cones
        assert fan.is_complete == (witness is None)
    overlaid = face_closure(Fan(hexagon, 2))
    problems = overlaid.validate()
    assert len(problems) == 12
    with pytest.raises(ValueError) as refused:
        overlaid.completeness_witness()
    assert str(refused.value) == "invalid fan: " + "; ".join(problems)
    tops = [c for c in overlaid.cones if c.dim == 2]
    assert _pair_facets(tops, None) is None and not facet_connected(tops)


def test_cones_cover_both_ways():
    quadrant = _c((1, 0), (0, 1))
    low, high = _c((1, 0), (1, 1)), _c((1, 1), (0, 1))
    outside = _c((1, 0), (1, -1))  # shares the boundary facet (1, 0) of ``low``
    rays = [_c((1, 0)), _c((0, 1)), _c((1, 1))]
    ray = _c((1, 0))
    assert cones_cover(quadrant, [low, high])
    assert cones_cover(quadrant, [low, high] + rays)  # pieces on the boundary
    assert not cones_cover(quadrant, [low])  # an interior facet unpaired
    assert not cones_cover(quadrant, [low, high, outside])  # a boundary facet paired
    assert not cones_cover(quadrant, rays)  # no full-dimensional piece
    assert cones_cover(ray, [ray])  # sigma below full dimension
    assert not cones_cover(ray, [])
    assert cones_cover(zero_cone(2), [zero_cone(2)])
    assert not cones_cover(zero_cone(2), [])


def test_quotient_fan_star_of_projective_ray():
    fan = projective_fan(2)
    k = fan.cone_index(Cone([(1, 0)], 2))
    fq = quotient_fan(fan, k)
    # star of a ray in the plane fan is a complete line fan
    assert fq.fan.rank == 1
    assert fq.fan.is_complete
    assert len(fq.fan.cones) == 3
    assert fq.torsion == ()
    # section really sections the projection
    comp = fq.projection.compose(fq.section)
    assert comp.matrix == ((1,),)


def test_quotient_fan_star_indices_align():
    fan = projective_fan(2)
    k = fan.cone_index(Cone([(1, 0)], 2))
    fq = quotient_fan(fan, k)
    sigma = fan.cones[k]
    for qi, si in enumerate(fq.star):
        assert contains_cone(fan.cones[si], sigma)
        assert fan.cones[si].image(fq.projection) == fq.fan.cones[qi]


def test_quotient_fan_is_kept_on_the_fan():
    """One star quotient per (fan, cone index), handed out on every call."""
    for build in EXAMPLES.values():
        for st in build().strata:
            fan = st.plain_fan
            for k in range(len(fan.cones)):
                assert quotient_fan(fan, k) is quotient_fan(fan, k)


def test_a_failing_quotient_raises_on_every_call(monkeypatch):
    """Errors are not kept: a quotient of a fan that is no fan is tried, and
    raises with the fan's problems, each time; a valid fan's is kept."""
    built = []

    def counted(fan, cone_index):
        built.append(cone_index)
        return _star_quotient(fan, cone_index)

    monkeypatch.setattr("fanifolds.fans._star_quotient", counted)
    # not a fan: one 2-cone over the ray (1, 0) lies inside the other, so
    # both would project onto the one ray of its quotient
    bad = Fan([Cone([(1, 0)], 2), Cone([(1, 0), (1, 1)], 2), Cone([(1, 0), (2, 1)], 2)], 2)
    for k in (0, 0, 1):
        with pytest.raises(ValueError, match="^invalid fan: cones 1 and 2 do not intersect"):
            quotient_fan(bad, k)
    assert built == [0, 0, 1] and bad._quotients == {}
    good = Fan(bad.cones[:2], 2)
    assert quotient_fan(good, 0) is quotient_fan(good, 0)
    assert built == [0, 0, 1, 0]


def test_a_star_quotient_refuses_a_cone_of_another_rank_or_an_image_with_a_line():
    """Two inputs no valid fan gives, each refused with the fan's problem,
    not answered: a cone whose rank is not the fan's, and a ray inside a
    2-cone, not as its face, so that the 2-cone's image would hold a line.
    A stacky fan's quotient refuses them as its plain fan's does."""
    cases = [
        (Fan([zero_cone(3)], 2), 0, "^invalid fan: cone 0: ambient rank 3 != 2$"),
        (
            Fan([zero_cone(2), Cone([(1, 0)], 2), Cone([(1, 1), (1, -1)], 2)], 2),
            1,
            "^invalid fan: cones 1 and 2 do not intersect in a common face$",
        ),
    ]
    for fan, k, message in cases:
        for f in (fan, StackyFan(fan)):
            with pytest.raises(ValueError, match=message):
                quotient_fan(f, k)


def test_resolve_quadric():
    result = resolve_to_smooth(quadric_fan())
    assert result.fan.is_smooth
    assert (0, 1) in result.added_rays
    assert refines(result.fan, quadric_fan()).ok


def test_resolve_smooth_fan_is_identity():
    fan = projective_fan(2)
    result = resolve_to_smooth(fan)
    assert result.steps == ()
    assert result.fan is fan


def test_resolving_the_cube_splits_each_square_at_its_centre_first():
    """A non-simplicial cone is split at the primitive sum of its rays
    before any box point is sought: the cube's six square cones first, at
    the six axis vectors, then the simplicial cones of multiplicity 2 they
    leave, at the twelve edge midpoints."""
    cube = _cube_face_fan()
    result = resolve_to_smooth(cube)
    vectors = list(itertools.product((-1, 0, 1), repeat=3))
    axes = {v for v in vectors if sum(map(abs, v)) == 1}
    edges = {v for v in vectors if sum(map(abs, v)) == 2}
    assert set(result.steps[:6]) == axes and len(result.steps) == 18
    assert set(result.steps[6:]) == edges == set(result.added_rays) - axes
    assert result.fan.is_smooth and refines(result.fan, cube).ok


def test_resolve_a_smooth_stacky_fan_gives_its_plain_fan():
    """Every cone of the orthant is smooth, so no step runs, and the result
    is the plain fan, smooth, not the stacky one with its own meaning of
    smooth."""
    sf = StackyFan(orthant_fan(2), {(1, 0): 2})
    assert not sf.is_smooth
    result = resolve_to_smooth(sf)
    assert type(result.fan) is Fan
    assert result.fan.is_smooth
    assert result.steps == () and result.added_rays == ()
    assert result.fan.cones == sf.cones


def test_stellar_subdivision_stays_face_closed():
    fan = orthant_fan(2)
    sub = stellar_subdivision(fan, (1, 1))
    assert not sub.validate()
    assert sub.is_face_closed
    assert refines(sub, fan).ok
    assert not refines(fan, sub).ok


def test_refines_failure_reports_problem():
    r = refines(orthant_fan(2), projective_fan(2))
    assert not r.ok
    assert r.problems


def test_refines_randomized_subdivisions():
    rng = random.Random(6021)
    for _ in range(25):
        fan = [orthant_fan(2), projective_fan(2), quadric_fan()][rng.randrange(3)]
        cur = fan
        for _ in range(rng.randint(1, 3)):
            two = [c for c in cur.cones if c.dim == 2]
            if not two:
                break
            c = two[rng.randrange(len(two))]
            point = tuple(sum(g[i] for g in c.gens) for i in range(2))
            cur = stellar_subdivision(cur, point)
        assert refines(cur, fan).ok


def _random_basis_fans(seed=9091):
    """Plain, subdivided and stacky fans, each in a random lattice basis."""
    rng = random.Random(seed)
    out = []
    for k, base in enumerate(
        [orthant_fan(2), quadric_fan(), projective_fan(2)] * 2 + [orthant_fan(3)]
    ):
        n = base.rank
        m = [list(r) for r in identity_matrix(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            t = rng.choice((-2, -1, 1, 2))
            m[i] = [x + t * y for x, y in zip(m[i], m[j])]
        rng.shuffle(m)
        fan = Fan([Cone([mat_vec(m, g) for g in c.gens], n) for c in base.cones], n)
        if k % 2 or k == 6:
            cone = rng.choice([c for c in fan.cones if c.dim >= 2])
            fan = stellar_subdivision(fan, tuple(map(sum, zip(*cone.gens))))
        if k >= 3:
            fan = StackyFan(fan, {r: rng.randint(1, 3) for r in fan.rays})
        out.append(fan)
    return out


def _refines_by_pairs(fine, coarse):
    """The oracle for ``refines``: ``contains_cone`` on every (coarse,
    fine) pair, once in each of its two checks."""
    if fine.rank != coarse.rank:
        return RefinesResult(False, ("ambient ranks differ",))
    problems = [
        f"fine cone {i} is not inside any coarse cone"
        for i, c in enumerate(fine.cones)
        if not any(contains_cone(big, c) for big in coarse.cones)
    ]
    problems += [
        f"coarse cone {i} is not tiled by its fine cones"
        for i, big in enumerate(coarse.cones)
        if not cones_cover(big, [c for c in fine.cones if contains_cone(big, c)])
    ]
    return RefinesResult(not problems, tuple(problems))


def test_refines_matches_the_pairwise_containment_reference():
    """Seeded pairs in random lattice bases, the plain fans of stacky draws
    among them (refinement is of the cones): each fan's stellar
    subdivisions and resolution refine it; swapped pairs, unrelated fans of
    one rank and fans of unequal rank do not.  ``refines`` gives the
    reference's verdict and problem list, in order."""
    fans = [_plain_fan(f) for seed in (9091, 17, 23) for f in _random_basis_fans(seed)]
    rng = random.Random(3607)
    pairs = []
    for k, fan in enumerate(fans):
        cone = rng.choice([c for c in fan.cones if c.dim >= 2])
        sub = stellar_subdivision(fan, tuple(map(sum, zip(*cone.gens))))
        resolved = resolve_to_smooth(fan).fan
        other = fans[(k + 1) % len(fans)]
        pairs += [(sub, fan), (resolved, fan), (fan, sub), (fan, resolved), (fan, other)]
    pairs += [(orthant_fan(2), orthant_fan(3)), (Fan([], 2), orthant_fan(2)), (orthant_fan(2), Fan([], 2))]
    seen = {"ok": 0, "fine": 0, "coarse": 0, "rank": 0}
    for fine, coarse in pairs:
        got = refines(fine, coarse)
        assert got == _refines_by_pairs(fine, coarse), (fine.cones, coarse.cones)
        seen["ok"] += got.ok
        seen["fine"] += any(p.startswith("fine") for p in got.problems)
        seen["coarse"] += any(p.startswith("coarse") for p in got.problems)
        seen["rank"] += got.problems == ("ambient ranks differ",)
    assert all(seen.values()), seen


def test_a_tiling_that_pairs_its_facets_is_connected():
    """The tiling lemma in the ``fans`` docstring, on every distinct stratum
    fan of the bundled examples and the plain fans of ``_random_basis_fans``
    draws, each with a stellar subdivision and its resolution: every set of
    fine cones of a coarse cone's dimension inside it (``contains_cone``),
    and every fine fan's full-dimensional cones against the whole space,
    that passes facet pairing is facet-connected by the reference search.
    On each (fine, coarse) pair, a fan against itself among them,
    ``refines`` gives the pairwise reference's verdict and problems."""
    fans = {fan_key(st.plain_fan): st.plain_fan for build in EXAMPLES.values() for st in build().strata}
    fans = list(fans.values()) + [_plain_fan(f) for seed in (9091, 17) for f in _random_basis_fans(seed)]
    rng = random.Random(4909)
    paired = unpaired = 0
    for fan in fans:
        big = [c for c in fan.cones if c.dim >= 2]
        sub = stellar_subdivision(fan, tuple(map(sum, zip(*rng.choice(big).gens)))) if big else fan
        resolved = resolve_to_smooth(fan).fan
        for fine, coarse in [(fan, fan), (sub, fan), (resolved, fan), (resolved, sub), (fan, sub)]:
            assert refines(fine, coarse) == _refines_by_pairs(fine, coarse), (fine.cones, coarse.cones)
            regions = [
                (sigma, [c for c in fine.cones if c.dim == sigma.dim and contains_cone(sigma, c)])
                for sigma in coarse.cones
                if sigma.dim > 0
            ]
            regions.append((None, [c for c in fine.cones if c.dim == fine.rank]))
            for sigma, tops in regions:
                if tops and _pair_facets(tops, sigma) is None:
                    assert facet_connected(tops), (sigma, tops)
                    paired += 1
                else:
                    unpaired += 1
    assert paired > 500 and unpaired > 50, (paired, unpaired)


def test_refines_refuses_two_tilings_laid_over_each_other():
    """Two stellar subdivisions of the rank-3 orthant laid over each other,
    one at (1,1,0), the other at (1,0,1) and then at (0,1,1): each tiles
    the orthant, so their 5 maximal cones pair every facet, yet they are
    two facet-connected components, so they overlap and are no fan.
    ``refines`` refuses them on either side in one line, where it once
    answered that the orthant is not tiled."""
    orthant = orthant_fan(3)
    one = stellar_subdivision(orthant, (1, 1, 0))
    two = stellar_subdivision(stellar_subdivision(orthant, (1, 0, 1)), (0, 1, 1))
    tops = [c for f in (one, two) for c in f.cones if c.dim == 3]
    (sigma,) = [c for c in orthant.cones if c.dim == 3]
    assert len(tops) == 5
    assert _pair_facets(tops, sigma) is None and not facet_connected(tops)
    overlay = face_closure(Fan(tops, 3))
    problems = overlay.validate()
    assert problems
    for fine, coarse in ((overlay, orthant), (orthant, overlay), (overlay, overlay)):
        with pytest.raises(ValueError) as refused:
            refines(fine, coarse)
        assert str(refused.value) == "invalid fan: " + "; ".join(problems)


def test_refines_refuses_a_stacky_fan_on_either_side():
    """Refinement is of the cones, so ``refines`` takes plain fans: a
    stacky fan on either side names its plain fan ``.fan``, as it does
    against itself."""
    sf = stacky_quadric_fan()
    fine = resolve_to_smooth(sf).fan
    for args in ((fine, sf), (sf, fine)):
        with pytest.raises(AttributeError, match=r"no attribute '_inside': .* plain fan \.fan$"):
            refines(*args)
    assert refines(fine, sf.fan).ok


def test_stacky_quadric_component_group():
    sf = stacky_quadric_fan()
    two_cone = next(c for c in sf.cones if c.dim == 2)
    assert sf.component_group(two_cone) == (2,)
    assert math.prod(sf.component_group(two_cone)) == 2
    # rays and the origin carry no isotropy
    for c in sf.cones:
        if c.dim < 2:
            assert sf.component_group(c) == ()
    assert not sf.is_smooth


def _smooth_by_smith_form(sf):
    """The per-cone Smith-form rule ``StackyFan.is_smooth`` ran before it
    read the component groups."""
    for c in sf.cones:
        gens = sf.stacky_gens(c)
        if len(gens) != c.dim:
            return False
        snf = smith_normal_form(mat(gens))
        if snf.rank != len(gens) or any(d != 1 for d in snf.invariant_factors):
            return False
    return True


def test_component_groups_and_smoothness_match_their_old_definitions():
    """On seeded random stacky fans: each cone's component group is the
    torsion of the quotient by its stacky generators, and ``is_smooth``
    agrees with the per-cone Smith-form rule."""
    rng = random.Random(5150)
    smooth, groups = set(), set()
    for _ in range(120):
        fan = random_fan(rng)
        sf = StackyFan(fan, {r: rng.choice((1, 1, 1, 2, 3)) for r in fan.rays})
        for c in fan.cones:
            want = quotient_with_torsion(sf.rank, sf.stacky_gens(c)).torsion
            assert sf.component_group(c) == want
            groups.add(want)
        assert sf.is_smooth == _smooth_by_smith_form(sf)
        smooth.add(sf.is_smooth)
    assert smooth == {True, False}
    assert len(groups) > 4, groups


def test_plain_fan_has_trivial_component_groups():
    sf = StackyFan(projective_fan(2), {r: 1 for r in projective_fan(2).rays})
    for c in sf.cones:
        assert sf.component_group(c) == ()


def test_stacky_multiples_create_isotropy_on_smooth_cone():
    fan = orthant_fan(2)
    sf = StackyFan(fan, {(1, 0): 2, (0, 1): 3})
    top = next(c for c in fan.cones if c.dim == 2)
    assert math.prod(sf.component_group(top)) == 6
    ray = next(c for c in fan.cones if c.dim == 1 and c.gens[0] == (1, 0))
    assert sf.component_group(ray) == (2,)
    assert sf.stacky_generator((1, 0)) == (2, 0)


def test_stacky_quotient_propagates_multiples():
    fan = orthant_fan(2)
    sf = StackyFan(fan, {(1, 0): 1, (0, 1): 3})
    k = fan.cone_index(Cone([(1, 0)], 2))
    fq = quotient_fan(sf, k)
    assert isinstance(fq.fan, StackyFan)
    assert fq.fan.rank == 1
    # the surviving ray keeps its multiple in the quotient lattice
    (ray,) = fq.fan.rays
    assert fq.fan.multiples[ray] == 3


def test_stacky_rank_zero_quotient_drops_torsion_with_warning():
    sf = stacky_quadric_fan()
    k = next(i for i, c in enumerate(sf.cones) if c.dim == 2)
    fq = quotient_fan(sf, k)
    assert fq.fan.rank == 0
    # the rank-0 lattice cannot carry the Z/2: it survives only in fq.torsion
    assert fq.torsion == (2,)
    assert fq.fan.rays == ()


def test_stacky_quotient_is_kept_and_is_stacky():
    sf = stacky_quadric_fan()
    for k in range(len(sf.cones)):
        fq = quotient_fan(sf, k)
        assert isinstance(fq.fan, StackyFan)
        assert quotient_fan(sf, k) is fq


def test_a_stacky_fan_is_a_fan_and_its_multiples():
    """A stacky fan is no ``Fan``: it holds its plain fan, reads the cones,
    rank and rays off it, and has no table of its own to validate or
    index with."""
    fan = quadric_fan()
    sf = StackyFan(fan, {(1, 1): 2})
    assert not isinstance(sf, Fan) and sf.fan is fan
    assert sf.cones is fan.cones and sf.rank == fan.rank and sf.rays is fan.rays
    assert sf.multiples == {r: 2 if r == (1, 1) else 1 for r in fan.rays}
    assert not any(
        hasattr(sf, name) for name in ("validate", "cone_index", "_inside", "_problems", "_owner")
    )
    # a plain fan's quotient stays plain
    assert type(quotient_fan(fan, 0).fan) is Fan


def test_a_fan_operation_on_a_stacky_fan_names_its_plain_fan():
    """Passing a stacky fan where a ``Fan`` is needed raises an
    AttributeError that points at the plain fan ``.fan``; any other missing
    name keeps the usual message, and a stacky fan still copies and
    pickles."""
    sf = StackyFan(quadric_fan(), {(1, 1): 2})
    calls = [
        (lambda: stellar_subdivision(sf, (1, 1)), "support_contains"),
        (lambda: refines(sf, sf), "_inside"),
        (lambda: sf.validate(), "validate"),
    ]
    for call, name in calls:
        with pytest.raises(AttributeError) as refused:
            call()
        assert str(refused.value) == (
            f"'StackyFan' object has no attribute {name!r}: it is a Fan's,"
            " so use the stacky fan's plain fan .fan"
        )
    with pytest.raises(AttributeError) as refused:
        sf.no_such_name
    assert str(refused.value) == "'StackyFan' object has no attribute 'no_such_name'"
    for twin in (copy.copy(sf), copy.deepcopy(sf), pickle.loads(pickle.dumps(sf))):
        assert type(twin) is StackyFan and twin.multiples == sf.multiples
        assert twin.fan.cones == sf.fan.cones and not hasattr(twin, "_inside")


def test_a_stacky_fan_refuses_a_multiple_off_its_rays_or_below_one():
    """Multiples default to 1, and sit only on rays, each a positive
    integer."""
    fan = orthant_fan(2)
    assert StackyFan(fan).multiples == StackyFan(fan, {(1, 0): 1}).multiples == {r: 1 for r in fan.rays}
    with pytest.raises(ValueError, match=r"\(1, 1\) is not a ray of the fan"):
        StackyFan(fan, {(1, 1): 2})
    for k in (0, -2):
        with pytest.raises(ValueError, match="ray multiples must be positive"):
            StackyFan(fan, {(1, 0): k})


def _pushed_by_scan(sfan, fq):
    """The multiples push as a scan of every star ray per quotient ray: the
    reference for ``quotient_fan``'s one pass."""
    warnings = []
    multiples = {}
    for rbar in fq.fan.rays:
        pre = []
        for c in (sfan.cones[i] for i in fq.star):
            for r in c.extremal_rays:
                im = fq.projection(r)
                if any(im) and primitivize(im) == rbar and r not in pre:
                    pre.append(r)
        if len(pre) != 1:
            warnings.append(
                f"quotient ray {rbar}: {len(pre)} preimage rays, keeping multiple 1"
            )
            continue
        im = fq.projection(sfan.stacky_generator(pre[0]))
        k = 0
        prim = primitivize(im)
        if prim == rbar:
            nz = next(i for i, x in enumerate(im) if x)
            k = im[nz] // rbar[nz]
        if k < 1:
            warnings.append(
                f"quotient ray {rbar}: stacky generator does not project to a "
                "positive multiple, keeping multiple 1"
            )
            continue
        multiples[rbar] = k
    return {r: multiples.get(r, 1) for r in fq.fan.rays}, tuple(warnings)


def _cube_face_fan():
    """The fans over the faces of the cube [-1, 1]^3: six square cones, so a
    quotient by an edge sends two rays to one ray."""
    corners = list(itertools.product((-1, 1), repeat=3))
    squares = [
        Cone([v for v in corners if v[axis] == sign], 3)
        for axis in range(3)
        for sign in (-1, 1)
    ]
    return face_closure(Fan(squares, 3))


def test_stacky_quotient_push_matches_the_scan():
    """The one-pass push equals the scan on every stacky fan drawn, and the
    scan finds one preimage ray per quotient ray (the push lemma).  The
    cube face fans, which are not simplicial, are refused as stacky fans."""
    rng = random.Random(5150)
    stacky = [stacky_quadric_fan()] + [
        st.fan for st in EXAMPLES["quadric_stacky"]().strata
    ]
    cube = _cube_face_fan()
    drawn = [(cube, {r: rng.choice((1, 2, 3)) for r in cube.rays}) for _ in range(3)]
    for _ in range(120):
        fan = random_fan(rng)
        drawn.append((fan, {r: rng.choice((1, 1, 1, 2, 3)) for r in fan.rays}))
    refused = 0
    for fan, multiples in drawn:
        if all(c.is_simplicial for c in fan.cones):
            stacky.append(StackyFan(fan, multiples))
            continue
        with pytest.raises(ValueError, match="is not simplicial"):
            StackyFan(fan, multiples)
        refused += 1
    assert refused == 3
    pushes = 0
    for sf in stacky:
        assert isinstance(sf, StackyFan)
        for k in range(len(sf.cones)):
            fq = quotient_fan(sf, k)
            assert (fq.fan.multiples, ()) == _pushed_by_scan(sf, fq)
            pushes += 1
    assert pushes > 500, pushes


def test_a_stacky_fan_refuses_a_cone_that_is_not_simplicial():
    """A stacky fan is simplicial: a square cone of the cube face fan, the
    first cone of the fan, is refused by its index, as is a cone with a
    line.  A quotient records no warnings, since the push has one rule."""
    with pytest.raises(ValueError) as refused:
        StackyFan(_cube_face_fan())
    assert str(refused.value) == "cone 0 is not simplicial: a stacky fan's cones are"
    line = Fan([zero_cone(1), Cone([(1,), (-1,)], 1)], 1)
    with pytest.raises(ValueError, match="^cone 1 is not simplicial"):
        StackyFan(line, {})
    assert "warnings" not in FanQuotient._fields


def test_face_closure_lists_top_cone_first():
    fan = orthant_fan(2)
    assert fan.cones[0].dim == 2
    assert face_closure(Fan([Cone([(1,)], 1)], 1)).is_face_closed


def test_cone_image_under_map():
    c = Cone([(1, 0), (0, 1)], 2)
    proj = lattice_map(((1, 0),), 2, 1)
    assert c.image(proj) == Cone([(1,)], 1)
    collapsed = Cone([(0, 1)], 2).image(lattice_map(((1, 0),), 2, 1))
    assert collapsed.dim == 0


def test_small_fans_shapes():
    assert len(a1_fan().cones) == 2
    assert len(p1_fan().cones) == 3
    assert p1_fan().is_complete
    assert not a1_fan().is_complete
    assert orthant_fan(3).rank == 3
    assert len(orthant_fan(3).cones) == 8
    mixed = Fan([Cone([(1, 0)], 2), Cone([(1,)], 1)], 2)
    assert mixed.validate() == ["cone 1: ambient rank 1 != 2"] == problems_by_containment(mixed)


# -- the containment table ----------------------------------------------------


def _inside_by_pairs(fan):
    """The oracle for ``Fan._inside``: ``contains_cone`` on every ordered
    pair of distinct cones."""
    return tuple(
        frozenset(j for j, d in enumerate(fan.cones) if j != i and contains_cone(c, d))
        for i, c in enumerate(fan.cones)
    )


def _maximal_by_pairs(fan):
    return [
        i
        for i, c in enumerate(fan.cones)
        if not any(j != i and contains_cone(d, c) for j, d in enumerate(fan.cones))
    ]


def _moved(fan, rng):
    """The fan in a random basis of Z^n: a signed permutation times shears."""
    n = fan.rank
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        m[i][j] = rng.choice((-1, 1))
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        m[i] = [x + t * y for x, y in zip(m[i], m[j])]
    move = lattice_map(m, n, n)
    return Fan([c.image(move) for c in fan.cones], n)


def test_containment_table_matches_contains_cone_on_valid_fans(monkeypatch):
    """Fresh fans on the cones of every stratum fan of every example, of
    seeded random fans with subdivisions in random lattice bases, and of
    the plain fans of drawn plain and stacky fans, which nothing validated:
    the table, ``maximal_cone_indices`` and the stars of ``quotient_fan``
    validate each fan on first reading, run no ``Cone.contains``, and equal
    the ``contains_cone`` oracles.  The source fans' tables, checked or
    carried, equal the fresh ones."""
    rng = random.Random(1111)
    fans = [st.plain_fan for build in EXAMPLES.values() for st in build().strata]
    fans += [_moved(random_fan(rng), rng) for _ in range(40)]
    fans += [_plain_fan(f) for f in _random_basis_fans(1113)]
    fresh = [Fan(f.cones, f.rank) for f in fans]

    def refuse(*args):
        raise AssertionError("a membership test on a fan's containment table")

    with monkeypatch.context() as m:
        m.setattr(Cone, "contains", refuse)
        got = [
            (
                fan._inside,
                fan.maximal_cone_indices(),
                [quotient_fan(fan, k).star for k in range(len(fan.cones))],
            )
            for fan in fresh
        ]
    nested = 0
    for source, fan, (inside, maximal, stars) in zip(fans, fresh, got):
        assert fan.validate() == []
        assert inside == _inside_by_pairs(fan) == source._inside, fan.cones
        assert maximal == _maximal_by_pairs(fan)
        assert stars == [
            tuple(i for i, c in enumerate(fan.cones) if contains_cone(c, sigma))
            for sigma in fan.cones
        ], fan.cones
        nested += sum(map(len, inside))
    assert nested > 600


def test_containment_table_refuses_invalid_fans():
    """A duplicated cone, two 2-cones overlapping off a face, and a cone
    holding a line: validation reports each as the containment rule does,
    and the table, every reader of it (maximal cones, stars, star
    quotients, completeness, a fan refining itself) and
    ``resolve_to_smooth``, which subdivides the second before it would read
    a table, refuse the fan with those problems, on one line."""
    z = zero_cone(2)
    cases = [
        (
            [Cone([(1, 0), (0, 1)], 2), Cone([(1, 0)], 2), Cone([(0, 1), (1, 0)], 2), z],
            ["cone 2 duplicates cone 0"],
        ),
        (
            [
                Cone([(1, 0), (0, 1)], 2),
                Cone([(1, 1), (1, -1)], 2),
                Cone([(1, 0)], 2),
                Cone([(1, 1)], 2),
                z,
            ],
            [
                "cones 0 and 1 do not intersect in a common face",
                "cones 0 and 3 do not intersect in a common face",
                "cones 1 and 2 do not intersect in a common face",
            ],
        ),
        (
            [
                Cone([(1, 0), (-1, 0), (0, 1)], 2),
                Cone([(1, 0)], 2),
                Cone([(0, 1)], 2),
                Cone([(1, 0), (0, 1)], 2),
                z,
            ],
            ["cone 0: contains a line"],
        ),
    ]
    readers = [
        lambda fan: fan._inside,
        lambda fan: fan._stars,
        Fan.maximal_cone_indices,
        Fan.completeness_witness,
        lambda fan: quotient_fan(fan, 1),
        lambda fan: refines(fan, fan),
        resolve_to_smooth,
    ]
    for cones, problems in cases:
        fan = Fan(cones, 2)
        assert fan.validate() == problems == problems_by_containment(fan)
        message = "invalid fan: " + "; ".join(problems)
        for read in readers:
            with pytest.raises(ValueError) as refused:
                read(fan)
            assert str(refused.value) == message


def test_cone_quotient_equals_a_fresh_quotient():
    """The cached span quotient of every example cone, of every cone of
    their star quotients and of seeded random cones (lines and the zero cone
    among them) equals ``quotient_with_torsion`` run afresh, and
    ``quotient_fan`` hands out that one quotient."""
    cones = []
    for build in EXAMPLES.values():
        for st in build().strata:
            fan = st.plain_fan
            cones += fan.cones
            for k, c in enumerate(fan.cones):
                fq = quotient_fan(fan, k)
                assert fq.projection is c.quotient.projection
                assert fq.section is c.quotient.section
                assert fq.torsion == c.quotient.torsion
                cones += fq.fan.cones
    rng = random.Random(1201)
    for _ in range(200):
        rank = rng.randint(1, 4)
        gens = [
            [rng.randint(-3, 3) for _ in range(rank)]
            for _ in range(rng.randint(0, rank + 1))
        ]
        cones.append(Cone(gens, rank))
    assert sum(not c.is_strongly_convex for c in cones) >= 10
    for c in cones:
        assert c.quotient == quotient_with_torsion(c.rank, c.gens), c


def test_validate_matches_the_meet_rule_on_non_maximal_mutants():
    """Seeded random fans in random bases, each with one cone added inside a
    maximal cone: the span of some of its rays and a point inside it or one
    of its faces.  Every bad pair involves that non-maximal cone, so the
    nested and maximal pairs must reject exactly the fans the meet rule
    rejects, and the full scan must then list every bad pair, nested or
    not.  (Random fans are face-closed, so such a cone is never a face.)"""
    rng = random.Random(1202)
    seen = {"mutants": 0, "bad non-nested pairs": 0}
    for _ in range(250):
        fan = _moved(random_fan(rng), rng)
        tops = [fan.cones[i] for i in fan.maximal_cone_indices() if fan.cones[i].dim >= 2]
        if not tops:
            continue
        tau = rng.choice(tops)
        rays = list(tau.extremal_rays)
        face = rng.sample(rays, rng.randint(2, len(rays)))
        weights = [rng.randint(1, 3) for _ in face]
        point = [sum(w * r[i] for w, r in zip(weights, face)) for i in range(fan.rank)]
        sigma = Cone(rng.sample(rays, rng.randint(0, len(rays) - 1)) + [point], fan.rank)
        if sigma.key in fan._first_index:
            continue
        at = rng.randint(0, len(fan.cones))
        mutant = Fan(fan.cones[:at] + (sigma,) + fan.cones[at:], fan.rank)
        assert at not in _maximal_by_pairs(mutant)
        inside = _inside_by_pairs(mutant)
        problems = mutant.validate()
        assert problems == meet_rule(mutant) == problems_by_containment(mutant) != [], mutant.cones
        seen["mutants"] += 1
        for p in problems:
            i, j = (int(w) for w in p.split()[1:4:2])
            assert at in (i, j), p
            other = j if i == at else i
            if other not in inside[at] and at not in inside[other]:
                seen["bad non-nested pairs"] += 1
    assert seen["mutants"] >= 150 and seen["bad non-nested pairs"] >= 8, seen


# -- validation by extremal rays -------------------------------------------------


def _checked_fresh(fan):
    """A fresh plain fan on ``fan``'s cones (a stacky fan's multiples do not
    bear on validity), validated: its problems equal
    ``problems_by_containment``'s, and a valid one records its containment
    table, which equals ``_inside_by_pairs``."""
    fresh = Fan(fan.cones, fan.rank)
    problems = fresh.validate()
    assert problems == problems_by_containment(fresh), fresh.cones
    if not problems:
        assert fresh.__dict__["_inside"] == _inside_by_pairs(fresh), fresh.cones
    return problems


def test_validation_matches_the_containment_rule_on_bundled_and_drawn_fans():
    """Every stratum fan of every bundled example, built and loaded, and
    fans drawn as ``random-fans`` draws them (base fans in random lattice
    bases, subdivided, stacky or not) with each of their star quotients:
    all valid, each with the problem list and, once validated, the
    containment table of the rule that reads nesting off ``_held``."""
    fans = [st.fan for build in EXAMPLES.values() for st in build().strata]
    data = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
    for name in sorted(os.listdir(data)):
        fans += [st.fan for st in load_fanifold(os.path.join(data, name)).strata]
    rng = random.Random(1244)
    drawn = [f for seed in range(1244, 1249) for f in _random_basis_fans(seed)]
    drawn += [_moved(random_fan(rng), rng) for _ in range(30)]
    for fan in drawn:
        fans += [fan] + [quotient_fan(fan, k).fan for k in range(len(fan.cones))]
    assert sum(isinstance(f, StackyFan) for f in fans) >= 100
    for fan in fans:
        assert _checked_fresh(fan) == [], fan.cones


def test_a_ray_subset_that_is_no_face_is_rejected_by_the_face_test():
    """The cone over a square with the cone on two of its opposite rays:
    those rays are extremal rays of the square cone, so the pair nests by
    rays, but the diagonal cuts through the interior.  The face test of the
    nested pair must say no, on its own and with every face of the square
    cone added."""
    square = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    diagonal = Cone([(1, 0, 1), (-1, 0, 1)], 3)
    assert set(diagonal.extremal_rays) <= set(square.extremal_rays)
    assert not square._has_face(diagonal)
    faces = [Cone(f, 3) for f in square.faces()[:-1]]
    for cones in ([square, diagonal], [diagonal, square], [square] + faces + [diagonal]):
        fan = Fan(cones, 3)
        at = cones.index(diagonal)
        i, j = sorted((cones.index(square), at))
        problem = f"cones {i} and {j} do not intersect in a common face"
        assert fan.validate() == [problem]
        assert _checked_fresh(fan) != []
        with pytest.raises(ValueError, match=f"^invalid fan: {problem}$"):
            fan._inside


def _nested_otherwise():
    """Invalid fans, as (cones, rank), each holding a cone inside another
    whose rays do not hold its own: that pair is met, and its meet, the
    smaller cone, is no face of the larger, as the containment rule's face
    test says."""
    quadrant = Cone([(1, 0), (0, 1)], 2)
    inner = Cone([(1, 0), (1, 1)], 2)  # inside the quadrant, not a face
    square = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    return [
        ([quadrant, inner], 2),
        ([inner, quadrant], 2),
        ([Cone([(1, 1)], 2), quadrant, Cone([(0, 1)], 2)], 2),
        ([square, Cone([(1, 0, 1), (0, 0, 1)], 3)] + [Cone(f, 3) for f in square.faces()[:-1]], 3),
    ]


def test_loading_validating_and_from_fan_run_no_membership_test(monkeypatch):
    """Each bundled file loaded and validated, and ``from_fan`` of each fan
    example, call no ``Cone.contains``: every fan they validate is valid,
    so its nesting is read off its extremal rays.  Neither does validating
    an invalid fan (``_nested_otherwise``), which is scanned by that same
    nesting, and its problems are the containment rule's."""
    invalid = _nested_otherwise()
    expected = [problems_by_containment(Fan(cones, rank)) for cones, rank in invalid]
    assert all(expected)
    calls = []
    contains = Cone.contains

    def counted(self, v):
        calls.append(self)
        return contains(self, v)

    monkeypatch.setattr(Cone, "contains", counted)
    data = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
    for name in sorted(os.listdir(data)):
        assert load_fanifold(os.path.join(data, name)).validate().coherent, name
    fans = [a1_fan(), p1_fan(), quadric_fan(), stacky_quadric_fan()]
    fans += [orthant_fan(n) for n in (1, 2, 3)] + [projective_fan(n) for n in (1, 2, 3)]
    for fan in fans:
        assert from_fan(fan).validate().coherent, fan
    assert [Fan(cones, rank).validate() for cones, rank in invalid] == expected
    assert not calls


def test_a_rejected_fan_meets_each_pair_once(monkeypatch):
    """Validation answers each pair of cones once: the scan of a fan the
    fast path rejects reads the answers the fast path already got, so no
    pair goes through ``Fan._meet_is_a_face`` twice in one validation, and
    the problems stay the containment rule's.  On the invalid cases of the
    membership count law, and the bundled stratum fans with a ray through
    the interior of a cone of dim >= 2 added first or last."""
    cases = [Fan(cones, rank) for cones, rank in _nested_otherwise()]
    for build in EXAMPLES.values():
        for fan in {id(st.fan): st.fan for st in build().strata}.values():
            for c in fan.cones:
                if c.dim >= 2:
                    ray = Cone([tuple(map(sum, zip(*c.gens)))], fan.rank)
                    cases += [Fan((ray,) + fan.cones, fan.rank), Fan(fan.cones + (ray,), fan.rank)]
                    break
    expected = [problems_by_containment(Fan(f.cones, f.rank)) for f in cases]
    met = []
    meet = Fan._meet_is_a_face

    def counted(fan, i, j, by_rays):
        met.append((id(fan), min(i, j), max(i, j)))
        return meet(fan, i, j, by_rays)

    monkeypatch.setattr(Fan, "_meet_is_a_face", counted)
    for fan, problems in zip(cases, expected):
        met.clear()
        assert fan.validate() == problems != [], fan.cones
        assert len(set(met)) == len(met), (fan.cones, sorted(met))
    assert len(cases) >= 20, len(cases)


def test_from_fan_of_a_stacky_fan_computes_on_its_plain_fan(monkeypatch):
    """``from_fan(StackyFan(f, m))`` computes on ``f`` itself: after it
    validates and builds the star quotients, ``f`` is valid with its
    containment table, stars and cone index, its star quotients are the
    plain halves of the stacky ones (a second stacky twin pushes its
    multiples onto those same plain quotients), and ``quotient_fan``,
    ``resolve_to_smooth`` and ``refines`` on it run no ``Cone.contains``.
    Smooth fans in random lattice bases, so that the resolution adds no ray
    (a subdivision tests membership by design)."""
    rng = random.Random(4502)
    bases = [orthant_fan(2), orthant_fan(3), projective_fan(2), projective_fan(3)] * 3
    calls = []
    contains = Cone.contains

    def counted(self, v):
        calls.append(self)
        return contains(self, v)

    monkeypatch.setattr(Cone, "contains", counted)
    for base in bases:
        n = base.rank
        m = [list(r) for r in identity_matrix(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            t = rng.choice((-1, 1))
            m[i] = [x + t * y for x, y in zip(m[i], m[j])]
        f = Fan([Cone([mat_vec(m, g) for g in c.gens], n) for c in base.cones], n)
        sf = StackyFan(f, {r: rng.randint(1, 3) for r in f.rays})
        phi = from_fan(sf)
        assert phi.validate().valid
        zero = next(i for i, c in enumerate(f.cones) if c.dim == 0)
        assert phi.stratum(f"s{zero}").plain_fan is f
        assert {"_problems", "_inside", "_stars", "_first_index"} <= set(vars(f))
        assert f._problems == []
        for k in range(len(f.cones)):
            fq, sq = quotient_fan(f, k), quotient_fan(sf, k)
            assert sq.fan.fan is fq.fan and sq.star is fq.star
        images = [quotient_fan(f, k).fan for k in range(len(f.cones))]
        twin = StackyFan(f, sf.multiples)  # finds the star images on f
        for k, image in enumerate(images):
            assert quotient_fan(twin, k).fan.fan is image is quotient_fan(f, k).fan
        for fan in (f, sf):
            resolved = resolve_to_smooth(fan)
            assert resolved.fan is f and resolved.steps == ()
        assert refines(resolved.fan, f).ok
        assert not calls, (f.cones, len(calls))
