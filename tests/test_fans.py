"""Cones, fans, quotients, subdivisions, and stacky structure."""

import itertools
import os
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
    RefinesResult,
    StackyFan,
    _held,
    _set_valid,
    _star_quotient,
    cones_cover,
    face_closure,
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
from test_cones import is_face_of
from test_properties import random_fan


def test_cone_basics():
    c = Cone([(1, 0), (0, 1)], 2)
    assert c.dim == 2
    assert len(c.facets()) == 2
    assert len(c.faces()) == 4  # itself, two rays, origin
    assert c.contains_cone(Cone([(1, 1)], 2))
    assert not Cone([(1, 1)], 2).contains_cone(c)
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
                    assert not any(a.contains_cone(b) or b.contains_cone(a) for a, b in met), (
                        name, st.name, len(cones)
                    )
                    tops = len(fresh.maximal_cone_indices())
                    assert len(met) == tops * (tops - 1) // 2, (name, st.name)
    assert seen["valid"] > 50 and seen["invalid"] > 20, seen


def test_set_valid_keeps_what_was_checked():
    """``_set_valid`` records a fan valid, with the containment table carried
    from the source's through the star map, only where nothing was
    computed: a problem list and a table a check already made stay."""
    quadrant = Cone([(1, 0), (0, 1)], 2)
    inner = Cone([(1, 0), (1, 1)], 2)  # inside the quadrant, not a face
    source = Fan([Cone([(1, 0)], 2), Cone([(0, 1)], 2)], 2)
    star = {0: 0, 1: 1}
    checked = Fan([quadrant, inner], 2)
    problems, inside = checked.validate(), checked._inside
    assert problems == problems_by_containment(checked)
    assert problems and inside == (frozenset({1}), frozenset())
    _set_valid(checked, source, star)
    assert checked.validate() == problems and checked._inside is inside
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
            if ci.gens and cj.contains_cone(ci):
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


def test_completeness_witness_strings_on_small_fans():
    """Each reason ``fan props`` can print, on the smallest fan that gives
    it; complete fans give None."""
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
        (
            face_closure(Fan(hexagon, 2)),
            "maximal cones do not form one facet-connected component",
        ),
        (projective_fan(2), None),
        (p1_fan(), None),
        (Fan([zero_cone(0)], 0), None),
    ]
    for fan, witness in cases:
        assert fan.completeness_witness() == witness, fan.cones
        assert fan.is_complete == (witness is None)


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
        assert fan.cones[si].contains_cone(sigma)
        assert fan.cones[si].image(fq.projection) == fq.fan.cones[qi]


def test_quotient_fan_is_kept_on_the_fan():
    """One star quotient per (fan, cone index), handed out on every call."""
    for build in EXAMPLES.values():
        for st in build().strata:
            fan = st.plain_fan
            for k in range(len(fan.cones)):
                assert quotient_fan(fan, k) is quotient_fan(fan, k)


def test_a_failing_quotient_raises_on_every_call(monkeypatch):
    """Errors are not kept: a bad cone is built, and raises, each time."""
    built = []

    def counted(fan, cone_index):
        built.append(cone_index)
        return _star_quotient(fan, cone_index)

    monkeypatch.setattr("fanifolds.fans._star_quotient", counted)
    # not a fan: the two 2-cones over the ray (1, 0) meet only in it, but
    # both project onto the one ray of its quotient
    bad = Fan([Cone([(1, 0)], 2), Cone([(1, 0), (1, 1)], 2), Cone([(1, 0), (2, 1)], 2)], 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="same image"):
            quotient_fan(bad, 0)
    assert built == [0, 0]
    assert quotient_fan(bad, 1) is quotient_fan(bad, 1)
    assert built == [0, 0, 1]


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
        if not any(big.contains_cone(c) for big in coarse.cones)
    ]
    problems += [
        f"coarse cone {i} is not tiled by its fine cones"
        for i, big in enumerate(coarse.cones)
        if not cones_cover(big, [c for c in fine.cones if big.contains_cone(c)])
    ]
    return RefinesResult(not problems, tuple(problems))


def test_refines_matches_the_pairwise_containment_reference():
    """Seeded pairs in random lattice bases, plain and stacky: each fan's
    stellar subdivisions and resolution refine it; swapped pairs, unrelated
    fans of one rank and fans of unequal rank do not.  ``refines`` gives
    the reference's verdict and problem list, in order."""
    fans = [f for seed in (9091, 17, 23) for f in _random_basis_fans(seed)]
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


def test_stacky_quadric_component_group():
    sf = stacky_quadric_fan()
    two_cone = next(c for c in sf.cones if c.dim == 2)
    assert sf.component_group(two_cone) == (2,)
    assert sf.group_order(two_cone) == 2
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
    assert sf.group_order(top) == 6
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
    assert fq.warnings == ()


def test_stacky_rank_zero_quotient_drops_torsion_with_warning():
    sf = stacky_quadric_fan()
    k = next(i for i, c in enumerate(sf.cones) if c.dim == 2)
    fq = quotient_fan(sf, k)
    assert fq.fan.rank == 0
    # the rank-0 lattice cannot carry the Z/2: it survives only in fq.torsion
    assert fq.torsion == (2,)
    assert fq.fan.rays == ()


def test_stacky_quotient_is_kept_and_its_warnings_are_a_tuple():
    sf = stacky_quadric_fan()
    for k in range(len(sf.cones)):
        fq = quotient_fan(sf, k)
        assert isinstance(fq.fan, StackyFan) and isinstance(fq.warnings, tuple)
        assert quotient_fan(sf, k) is fq


def test_stacky_fan_is_its_fan():
    fan = quadric_fan()
    sf = StackyFan(fan, {(1, 1): 2})
    assert isinstance(sf, Fan)
    assert sf.cones == fan.cones and sf.rank == fan.rank and sf.rays == fan.rays
    assert not any(hasattr(StackyFan, name) for name in ("fan", "quotient"))
    assert "_quotients" not in vars(StackyFan) and "rays" not in vars(StackyFan)
    # a plain fan's quotient stays plain, with no warnings
    assert type(quotient_fan(fan, 0).fan) is Fan
    assert quotient_fan(fan, 0).warnings == ()


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
    rng = random.Random(5150)
    stacky = [stacky_quadric_fan()] + [
        st.fan for st in EXAMPLES["quadric_stacky"]().strata
    ]
    cube = _cube_face_fan()
    stacky += [StackyFan(cube, {r: rng.choice((1, 2, 3)) for r in cube.rays}) for _ in range(3)]
    for _ in range(120):
        fan = random_fan(rng)
        stacky.append(StackyFan(fan, {r: rng.choice((1, 1, 1, 2, 3)) for r in fan.rays}))
    pushes = warned = 0
    for sf in stacky:
        assert isinstance(sf, StackyFan)
        for k in range(len(sf.cones)):
            fq = quotient_fan(sf, k)
            assert (fq.fan.multiples, fq.warnings) == _pushed_by_scan(sf, fq)
            pushes += 1
            warned += bool(fq.warnings)
    assert pushes > 500 and warned > 10, (pushes, warned)


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
        frozenset(j for j, d in enumerate(fan.cones) if j != i and c.contains_cone(d))
        for i, c in enumerate(fan.cones)
    )


def _maximal_by_pairs(fan):
    return [
        i
        for i, c in enumerate(fan.cones)
        if not any(j != i and d.contains_cone(c) for j, d in enumerate(fan.cones))
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


def test_containment_table_matches_contains_cone_on_valid_fans():
    """Every stratum fan of every example, and seeded random fans with
    subdivisions in random lattice bases; the stars of ``quotient_fan`` and
    ``maximal_cone_indices`` read the table, so they are checked too."""
    rng = random.Random(1111)
    fans = [st.plain_fan for build in EXAMPLES.values() for st in build().strata]
    fans += [_moved(random_fan(rng), rng) for _ in range(40)]
    nested = 0
    for fan in fans:
        assert fan.validate() == []
        assert fan._inside == _inside_by_pairs(fan), fan.cones
        assert fan.maximal_cone_indices() == _maximal_by_pairs(fan)
        for k, sigma in enumerate(fan.cones):
            star = tuple(i for i, c in enumerate(fan.cones) if c.contains_cone(sigma))
            assert quotient_fan(fan, k).star == star
        nested += sum(map(len, fan._inside))
    assert nested > 600


def test_containment_table_matches_contains_cone_on_invalid_fans():
    """A duplicated cone, two 2-cones overlapping off a face, and a cone
    holding a line: the table still answers every pair as ``contains_cone``
    does, and validation reports what it did before the table."""
    z = zero_cone(2)
    cases = [
        (
            [Cone([(1, 0), (0, 1)], 2), Cone([(1, 0)], 2), Cone([(0, 1), (1, 0)], 2), z],
            ["cone 2 duplicates cone 0"],
            [],
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
            [0, 1],
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
            [0],
        ),
    ]
    for cones, problems, maximal in cases:
        fan = Fan(cones, 2)
        assert fan._inside == _inside_by_pairs(fan)
        assert fan.validate() == problems == problems_by_containment(fan)
        assert fan.maximal_cone_indices() == _maximal_by_pairs(fan) == maximal


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
        assert at not in mutant.maximal_cone_indices()
        problems = mutant.validate()
        assert problems == meet_rule(mutant) == problems_by_containment(mutant) != [], mutant.cones
        seen["mutants"] += 1
        for p in problems:
            i, j = (int(w) for w in p.split()[1:4:2])
            assert at in (i, j), p
            other = j if i == at else i
            if other not in mutant._inside[at] and at not in mutant._inside[other]:
                seen["bad non-nested pairs"] += 1
    assert seen["mutants"] >= 150 and seen["bad non-nested pairs"] >= 8, seen


# -- validation by extremal rays -------------------------------------------------


def _checked_fresh(fan):
    """A fresh copy of ``fan`` (stacky if it is), validated: its problems
    equal ``problems_by_containment``'s, and a valid copy records its
    containment table on the fan that keeps its tables (a stacky copy's
    plain fan), which equals ``_inside_by_pairs``."""
    fresh = Fan(fan.cones, fan.rank)
    if isinstance(fan, StackyFan):
        fresh = StackyFan(fresh, fan.multiples)
    problems = fresh.validate()
    assert problems == problems_by_containment(fresh), fresh.cones
    if not problems:
        assert fresh._owner.__dict__["_inside"] == _inside_by_pairs(fresh), fresh.cones
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
        assert fan.validate() == [f"cones {i} and {j} do not intersect in a common face"]
        assert _checked_fresh(fan) != []
        assert fan._inside == _inside_by_pairs(fan)


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


def test_a_stacky_fan_and_its_plain_fan_share_their_tables(monkeypatch):
    """A stacky fan keeps its tables on its plain fan: after ``from_fan``
    of ``StackyFan(f, m)`` validates the stacky fan and builds its star
    quotients, the plain ``f`` is valid with the same containment table,
    its star quotients are the plain halves of the stacky ones (a second
    stacky twin pushes its multiples onto those same plain quotients), and
    ``quotient_fan``, ``resolve_to_smooth`` and ``refines`` on it run no
    ``Cone.contains``.  Smooth fans in random lattice bases, so that the
    resolution adds no ray (a subdivision tests membership by design)."""
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
        assert f._problems is sf._problems == [] and f._inside is sf._inside
        assert f._stars is sf._stars and f._first_index is sf._first_index
        for k in range(len(f.cones)):
            fq, sq = quotient_fan(f, k), quotient_fan(sf, k)
            assert sq.fan._owner is fq.fan and sq.star is fq.star
        images = [quotient_fan(f, k).fan for k in range(len(f.cones))]
        twin = StackyFan(f, sf.multiples)  # finds the star images on f
        for k, image in enumerate(images):
            assert quotient_fan(twin, k).fan._owner is image is quotient_fan(f, k).fan
        resolved = resolve_to_smooth(f)
        assert resolved.fan is f and resolved.steps == ()
        assert refines(resolved.fan, f).ok and refines(f, sf).ok
        assert not calls, (f.cones, len(calls))
