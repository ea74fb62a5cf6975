"""Section rings of glued toric spaces: diagrams, censuses, subalgebras."""

import itertools
import json
import os
import random
import sys
import weakref
from fractions import Fraction

import pytest

from fanifolds import bmodel
from fanifolds.bmodel import (
    ChartObject,
    ToricDiagram,
    _census_classes,
    chart_diagram,
    components,
    full_diagram,
    limit_census,
    subalgebra_check,
    u_functor,
)
from fanifolds.cones import Cone, zero_cone
from fanifolds.examples import (
    EXAMPLES,
    orthant_fan,
    projective_fan,
    quadric_fan,
    stacky_quadric_fan,
)
from fanifolds.fanifold import (
    Fanifold,
    Stratum,
    disjoint_union,
    from_fan,
    product,
    require_valid,
    suspension_boundary,
    unrolled_closure,
)
from fanifolds.fans import Fan, StackyFan, quotient_fan, stellar_subdivision
from fanifolds.lattice import (
    dot,
    identity_matrix,
    invert_unimodular,
    lattice_map,
    mat_mul,
    mat_vec,
    transpose,
)
from fanifolds.cli import resolve_input
from fanifolds.files import dumps, fanifold_from_dict, load_fanifold, loads
from fanifolds.skeleton import skeleton_model
from test_properties import composite_by_search, kept_charts_count_as_deletion, random_fan
import test_fuzz


def census_dims(phi, degrees):
    diagram = full_diagram(phi)
    return [limit_census(diagram, d).dimension for d in degrees]


def test_full_diagram_one_chart_per_stratum_cone():
    tri = EXAMPLES["3a1"]()
    diagram = full_diagram(tri)
    expected = sum(len(s.plain_fan.cones) for s in tri.strata)
    assert len(diagram.objects) == expected
    kinds = {a.kind for a in diagram.arrows}
    assert kinds == {"restrict", "collapse"}


def test_components_classification():
    tri = components(EXAMPLES["3a1"]())
    assert len(tri) == 3
    assert all(c.toric_dim == 1 and not c.complete and not c.stacky for c in tri)

    neck = components(EXAMPLES["necklace2"]())
    assert len(neck) == 2
    assert all(c.toric_dim == 1 and c.complete for c in neck)

    quad = components(EXAMPLES["quadric_stacky"]())
    assert len(quad) == 1
    assert quad[0].stacky


def test_census_affine_line_and_plane():
    # bounded-degree polynomial counts: box of exponents in each chart
    assert census_dims(EXAMPLES["affine1"](), range(5)) == [1, 2, 3, 4, 5]
    assert census_dims(EXAMPLES["affine2"](), range(4)) == [1, 4, 9, 16]


def test_census_complete_spaces_see_only_constants():
    assert census_dims(EXAMPLES["proj1"](), range(5)) == [1] * 5
    assert census_dims(EXAMPLES["proj2"](), range(4)) == [1] * 4
    assert census_dims(EXAMPLES["necklace2"](), range(5)) == [1] * 5
    assert census_dims(EXAMPLES["necklace3"](), range(5)) == [1] * 5


def test_census_three_lines_through_origin():
    # triples (f, g, h) agreeing at the origin
    assert census_dims(EXAMPLES["3a1"](), range(6)) == [3 * d + 1 for d in range(6)]


def test_census_interval_two_lines():
    assert census_dims(EXAMPLES["interval"](), range(6)) == [
        2 * d + 1 for d in range(6)
    ]


def test_census_overflow_guard_sits_at_its_boundary():
    # the largest degree whose box side 2D + 1 is still an index: the two
    # lines glued at a point count exactly sys.maxsize sections there
    interval = full_diagram(EXAMPLES["interval"]())
    top = (sys.maxsize - 1) // 2
    assert limit_census(interval, top).dimension == sys.maxsize
    with pytest.raises(ValueError, match=rf"^degree {top + 1} is too large$"):
        limit_census(interval, top + 1)


def test_census_unigon_nodal_cubic_pattern():
    assert census_dims(EXAMPLES["unigon"](), range(5)) == [
        d * d + d + 1 for d in range(5)
    ]


def test_census_with_basis_matches_dimension():
    census = limit_census(full_diagram(EXAMPLES["interval"]()), 2, with_basis=True)
    assert census.dimension == 5
    assert census.basis is not None
    assert len(census.basis) == 5


def test_unigon_subalgebra_relation_and_span():
    uni = EXAMPLES["unigon"]()
    gens = [
        ("a", {"v": {(1, 0): 1, (0, 1): 1}}),
        ("b", {"v": {(1, 1): 1}}),
        ("c", {"v": {(1, 2): 1}}),
    ]
    rels = [("b^3 + c^2 - a*b*c", {(0, 3, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1})]
    report = subalgebra_check(uni, gens, rels, degree=4)
    assert report.relations == [("b^3 + c^2 - a*b*c", True)]
    assert not report.problems
    assert report.census_dimension == 21
    assert report.span_rank == 21


def test_subalgebra_detects_a_false_relation():
    uni = EXAMPLES["unigon"]()
    gens = [
        ("a", {"v": {(1, 0): 1, (0, 1): 1}}),
        ("b", {"v": {(1, 1): 1}}),
    ]
    rels = [("a*b - b", {(1, 1): 1, (0, 1): -1})]
    report = subalgebra_check(uni, gens, rels, degree=3)
    assert report.relations == [("a*b - b", False)]


def test_subalgebra_proper_subalgebra_does_not_span():
    tri = EXAMPLES["3a1"]()
    # constants only: x on one branch, zero elsewhere is missed
    gens = [("t", {"a": {(1,): 1}, "b": {(1,): 1}, "c": {(1,): 1}})]
    report = subalgebra_check(tri, gens, degree=3)
    assert report.census_dimension == 10
    assert report.span_rank < report.census_dimension


def test_subalgebra_names_the_first_three_irregular_monomials():
    """A value that is not regular on a chart is reported once, by the chart's
    cone, with its three smallest offending monomials in sorted order."""
    tri = EXAMPLES["3a1"]()
    a = {(-1,): 1, (-2,): 1, (-3,): 1, (-4,): 1}
    gens = [("t", {"a": a, "b": {(1,): 1}, "c": {(1,): 1}})]
    report = subalgebra_check(tri, gens, degree=1)
    assert report.problems[0] == (
        "generator 't': value on 'a' is not regular on the chart of cone 1"
        " (monomials [(-4,), (-3,), (-2,)])"
    )


def test_chart_diagram_restricts_to_closure():
    neck = EXAMPLES["necklace2"]()
    diagram = chart_diagram(neck, "e1")
    # both vertices sit below the edge, keeping only the cones aimed at it
    strata = {o.stratum for o in diagram.objects}
    assert strata == {"v1", "v2", "e1"}
    assert len(diagram.objects) == 5
    assert not diagram.warnings


def test_chart_diagram_unrolls_non_posets():
    uni = EXAMPLES["unigon"]()
    diagram = chart_diagram(uni, "u")
    assert diagram.warnings
    # the one refusal of an unknown name, library and CLI alike
    for call in (lambda: uni.stratum("nope"), lambda: chart_diagram(uni, "nope")):
        with pytest.raises(ValueError, match="^unknown stratum 'nope'$"):
            call()


def test_u_functor_marks_closed_charts():
    neck = EXAMPLES["necklace2"]()
    desc = u_functor(neck, ["v1"])
    assert desc.closed == ("v1",)
    assert set(desc.open_strata) == {"v2", "e1", "e2"}
    marked_strata = {desc.diagram.objects[i].stratum for i in desc.marked}
    assert marked_strata == {"v1"}
    with pytest.raises(ValueError):
        u_functor(neck, ["e1"])  # missing the vertices below the edge


def test_u_functor_empty_and_everything():
    tri = EXAMPLES["3a1"]()
    none = u_functor(tri, [])
    assert none.closed == () and not none.marked
    every = u_functor(tri, [s.name for s in tri.strata])
    assert len(every.marked) == len(every.diagram.objects)


def _closed_sets(phi):
    """Every non-empty down-closed set of a diagram of at most 14 strata;
    on a larger one, the closures of one or two strata."""
    names = [s.name for s in phi.strata]
    if len(names) <= 14:
        sets = (
            z
            for k in range(1, len(names) + 1)
            for z in itertools.combinations(names, k)
            if phi.is_down_closed(z)
        )
    else:
        sets = (phi.down_closure(z) for k in (1, 2) for z in itertools.combinations(names, k))
    return sorted({tuple(sorted(z)) for z in sets})


def test_kept_charts_count_as_the_deleted_complement_on_every_closed_set():
    """On every closed set of every poset example, built and loaded, at
    D = 1 and 2: the census of the charts the set keeps has the dimension,
    chart count and map count of the full census with the rest deleted."""
    sets = 0
    for name, build in sorted(EXAMPLES.items()):
        for phi in (build(), load_fanifold(resolve_input(f"{name}.json"))):
            if phi.validate().is_poset:
                for z in _closed_sets(phi):
                    kept_charts_count_as_deletion(phi, z)
                    sets += 1
    assert sets == 414


# -- oracles for the census kernel -------------------------------------------


def _collapse_pair(phi, a):
    """The monomial matrices (forward, backward) of the collapse along a
    fanifold arrow, from its iso a, its star quotient's projection p and
    section s: forward = a^-T s^T and backward = p^T a^T.  A rank-0 target
    gives forward no rows and backward no columns."""
    m = a.iso.matrix
    if not m:
        return (), ((),) * phi.stratum(a.source).lattice_rank
    fq = quotient_fan(phi.stratum(a.source).fan, a.cone_index)
    return (
        mat_mul(transpose(invert_unimodular(m)), transpose(fq.section.matrix)),
        mat_mul(transpose(fq.projection.matrix), transpose(m)),
    )


def test_collapse_forward_is_the_oracles_and_inverts_backward():
    """On every arrow of every example, built and loaded, the fanifold's
    ``forward`` is the one built from the iso and the section, and it
    inverts ``backward``, which is the transpose of the arrow's map."""
    checked = 0
    for name, build in sorted(EXAMPLES.items()):
        for phi in (build(), load_fanifold(resolve_input(f"{name}.json"))):
            for a in phi.arrows:
                forward, backward = _collapse_pair(phi, a)
                assert phi._collapse_forward(a) == forward, (name, a)
                rank = phi.stratum(a.target).lattice_rank
                if rank:
                    assert mat_mul(forward, backward) == identity_matrix(rank), (name, a)
                    assert backward == transpose(phi.arrow_map(a).matrix), (name, a)
                checked += 1
    assert checked == 2 * sum(len(build().arrows) for build in EXAMPLES.values())


def _box_support(cone, degree):
    return [
        u
        for u in itertools.product(range(-degree, degree + 1), repeat=cone.rank)
        if all(dot(u, g) >= 0 for g in cone.gens)
    ]


def _random_cones(rng):
    for rank in range(5):
        yield zero_cone(rank)
        for _ in range(12 if rank else 0):
            # single rays, simplicial cones and cones with extra generators
            count = rng.choice([1, rank, rank + 1, rank + 2])
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)
            ]
            yield Cone(gens, rank)
        for k in range(rank):
            yield Cone([tuple(int(j == k) for j in range(rank))], rank)


def _product_cuts(points):
    """The intervals of the last coordinate, one per prefix of the others,
    of points given in product order."""
    lasts = {}
    for u in points:
        lasts.setdefault(u[:-1], []).append(u[-1])
    cuts = [(prefix, xs[0], xs[-1]) for prefix, xs in lasts.items()]
    assert all(xs == list(range(xs[0], xs[-1] + 1)) for xs in lasts.values())
    return cuts


def test_support_is_the_box_filter_in_product_order():
    """A chart's support as ``_box_cuts`` yields it: the box filter's points
    grouped by prefix, in product order, one non-empty interval each; and
    ``_box_count`` counts it, rank 0 included."""
    rng = random.Random(20260317)
    cones = list(_random_cones(rng))
    assert any(not c.gens for c in cones) and any(len(c.gens) > c.rank for c in cones)
    # last coordinates of every sign, so every cut of the walk runs
    assert {(g[-1] > 0) - (g[-1] < 0) for c in cones for g in c.gens} == {-1, 0, 1}
    for degree in range(7):
        for cone in cones:
            box = _box_support(cone, degree)
            assert bmodel._box_count(cone.gens, cone.rank, degree) == len(box)
            if cone.rank:
                cuts = list(bmodel._box_cuts(cone.gens, cone.rank, degree))
                assert cuts == _product_cuts(box), (cone, degree)


_REFERENCES = {}
_TEXTS = weakref.WeakKeyDictionary()  # fanifold -> its dumps


@pytest.fixture(autouse=True, scope="module")
def _references_last_one_module():
    """The references are read by this module's tests only, so the table
    is emptied after them and later modules do not carry it."""
    yield
    _REFERENCES.clear()


def _reference_census(diagram, degree):
    """The box walk the census used to do: every box point of every chart,
    with restriction and collapse maps applied point by point.  Returns the
    dimension, support sizes, basis (classes in the order of their first
    chart point) and the class of every chart point (i, u): its root, or
    None when the class is zero.

    Computed once for each fanifold (by its ``dumps``, found once per
    fanifold object), chart tuple and degree while this module runs;
    callers only read what it returns."""
    phi = diagram.fanifold
    text = _TEXTS.get(phi)
    if text is None:
        text = _TEXTS[phi] = dumps(phi)
    key = (text, diagram.objects, degree)
    out = _REFERENCES.get(key)
    if out is None:
        out = _REFERENCES[key] = _box_walk_census(diagram, degree)
    return out


def _box_walk_census(diagram, degree):
    supports, var, parent, zero = [], {}, [], []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
            zero[rx] = zero[rx] or zero[ry]

    def mark_zero(x):
        zero[find(x)] = True

    def in_box(w):
        return all(abs(c) <= degree for c in w)

    for i in range(len(diagram.objects)):
        sup = _box_support(diagram.object_cone(i), degree)
        supports.append(sup)
        for u in sup:
            var[(i, u)] = len(parent)
            parent.append(len(parent))
            zero.append(False)
    phi = diagram.fanifold
    for arrow in diagram.arrows:
        src, tgt = arrow.source, arrow.target
        if arrow.kind == "collapse":
            cone = phi.arrow_cone(arrow.arrow)
            forward, backward = _collapse_pair(phi, arrow.arrow)
        for u in supports[src]:
            if arrow.kind == "restrict":
                w = u
            elif any(dot(u, g) != 0 for g in cone.gens):
                continue
            else:
                w = mat_vec(forward, u)
            if in_box(w):
                union(var[(src, u)], var[(tgt, w)])
            else:
                mark_zero(var[(src, u)])
        src_gens = diagram.object_cone(src).gens
        for w in supports[tgt]:
            if arrow.kind == "restrict":
                u = w if all(dot(w, g) >= 0 for g in src_gens) else None
            else:
                u = mat_vec(backward, w)
            if u is None or not in_box(u):
                mark_zero(var[(tgt, w)])
    classes = {}
    members = {}
    for (i, u), x in var.items():
        r = find(x)
        classes[(i, u)] = None if zero[r] else r
        if not zero[r]:
            members.setdefault(r, {})[(diagram.objects[i], u)] = 1
    sizes = {diagram.objects[i]: len(sup) for i, sup in enumerate(supports)}
    return len(members), sizes, list(members.values()), classes


def _kernel_classes(diagram, degree, points):
    """The kernel's class of each chart point (i, u), or None when zero: the
    class of u in the chart's stratum, u's own class when no collapse
    touches it, or the zero sink when u does not survive."""
    uf, supports = _census_classes(diagram, degree)
    ids = {name: dict(support.points()) for name, support in supports.items()}
    out = {}
    for i, u in points:
        name = diagram.objects[i].stratum
        if u not in ids[name]:
            out[(i, u)] = None
        elif ids[name][u] is None:
            out[(i, u)] = (name, u)
        else:
            r = uf.find(ids[name][u])
            out[(i, u)] = None if r == uf.find(0) else r
    return out


def _same_partition(a, b):
    """Same chart points, the same ones zero, and the free classes of one
    matched one to one with those of the other."""
    if a.keys() != b.keys():
        return False
    pairs = {(a[k], b[k]) for k in a}
    if any((x is None) != (y is None) for x, y in pairs):
        return False
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


def _unimodular(rng, n):
    """A small random matrix in GL(n, Z): signed permutation times shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((-1, 1))
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _rebased(phi, rng):
    """The same diagram with each stratum's lattice in a random basis (and
    its plain fan, since the census never reads stacky data).  The box is
    not invariant, so the collapse maps can carry box points out of it."""
    moves = {
        s.name: tuple(map(tuple, _unimodular(rng, s.lattice_rank)))
        for s in phi.strata
    }
    strata = []
    for s in phi.strata:
        n = s.lattice_rank
        move = lattice_map(moves[s.name], n, n)
        fan = Fan([c.image(move) for c in s.plain_fan.cones], n)
        strata.append(s._replace(fan=fan))
    ranks = {s.name: s.lattice_rank for s in strata}
    arrows = []
    for a in phi.arrows:
        src = next(s for s in strata if s.name == a.source)
        fq = quotient_fan(src.plain_fan, a.cone_index)
        iso = ()
        if ranks[a.target]:
            moved_map = mat_mul(
                mat_mul(moves[a.target], phi.arrow_map(a).matrix),
                invert_unimodular(moves[a.source]),
            )
            iso = mat_mul(moved_map, fq.section.matrix)
        iso = lattice_map(iso, fq.fan.rank, ranks[a.target])
        arrows.append(a._replace(iso=iso))
    out = Fanifold(phi.dimension, strata, arrows)
    require_valid(out)
    return out


def _oracle_diagrams():
    """Full diagrams of the examples, as given and in random lattice bases;
    each stratum's chart diagram (unrolled closures included); products with
    interval and unigon; two ideal boundaries; and seeded random fans in
    random lattice bases."""
    rng = random.Random(20261018)
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        yield name, full_diagram(phi)
        yield f"{name} rebased", full_diagram(_rebased(phi, rng))
        for s in phi.strata:
            yield f"{name} [{s.name}]", chart_diagram(phi, s.name)
    for left, right in [
        ("interval", "unigon"),
        ("unigon", "interval"),
        ("3a1", "interval"),
        ("proj1", "unigon"),
    ]:
        phi = product(EXAMPLES[left](), EXAMPLES[right]())
        yield f"{left} x {right}", full_diagram(phi)
    for fan in (orthant_fan(2), projective_fan(2)):
        phi = suspension_boundary(fan)
        yield f"boundary of R x {fan!r}", full_diagram(phi)
    for k in range(8):
        fan = random_fan(rng, allow_rank3=k % 4 == 0)
        m = lattice_map(tuple(map(tuple, _unimodular(rng, fan.rank))), fan.rank, fan.rank)
        moved = Fan([c.image(m) for c in fan.cones], fan.rank)
        yield f"random fan {k}", full_diagram(from_fan(moved))


def drawn_fan(rng):
    """A fan drawn as the benchmark's random-fans workload draws one: a base
    fan (the 2-orthant, the quadric, P2 or the 3-orthant) moved to a random
    basis in GL(n, Z), then 0-2 stellar subdivisions (at the sum of a cone's
    gens, then beside one of its gens), plain or with multiples 1-3 on its
    rays.  Returns the fan and the raw generator rows it was built from."""
    base = rng.choice([lambda: orthant_fan(2), quadric_fan, lambda: projective_fan(2),
                       lambda: orthant_fan(3)])()
    n = base.rank
    m = _unimodular(rng, n)
    gens = [[tuple(dot(r, g) for r in m) for g in c.gens] for c in base.cones]
    fan = Fan([Cone(g, n) for g in gens], n)
    big = [g for g in gens if len(g) >= 2]
    pick = big[rng.randrange(len(big))]
    p = tuple(map(sum, zip(*pick)))
    points = [p, tuple(map(sum, zip(p, rng.choice(pick))))][: rng.randint(0, 2)]
    for point in points:
        fan = stellar_subdivision(fan, point)
    if rng.random() < 0.5:
        fan = StackyFan(fan, {r: rng.randint(1, 3) for r in fan.rays})
    return fan, [g for c in gens for g in c] + points


def test_census_of_a_fan_counts_its_dual_in_the_box():
    """The glued space of ``from_fan(fan)`` is its toric variety, whose
    functions are the characters in the dual of the support: at degree D
    the census is the number of u in the box [-D, D]^n with u . g >= 0 for
    every generator g the fan was built from (subdivision points lie in the
    support, so they add no condition).  A recount that shares no code with
    the package's cones, on the seven fan examples and on 40 fans drawn as
    the random-fans workload draws them, at D = 1 and 2."""
    cases = []
    for name in ("affine1", "affine2", "affine3", "proj1", "proj2", "proj3", "quadric_stacky"):
        fan = EXAMPLES[name]().source_fan
        cases.append((fan, [g for c in fan.cones for g in c.gens]))
    rng = random.Random(3403)
    cases += [drawn_fan(rng) for _ in range(40)]
    stacky = rank3 = 0
    for fan, gens in cases:
        diagram = full_diagram(from_fan(fan))
        for degree in (1, 2):
            box = itertools.product(range(-degree, degree + 1), repeat=fan.rank)
            want = sum(all(sum(a * b for a, b in zip(u, g)) >= 0 for g in gens) for u in box)
            assert limit_census(diagram, degree).dimension == want, (fan, degree)
        stacky += isinstance(fan, StackyFan)
        rank3 += fan.rank == 3
    assert stacky > 10 and rank3 > 5, (stacky, rank3)


def test_census_matches_the_box_walk_reference():
    cols = []  # whether each walk's image row moves along its interval
    for label, diagram in _oracle_diagrams():
        cols += [any(walk.col) for walk in bmodel._plan(diagram).walks]
        for degree in range(6):
            census = limit_census(diagram, degree, with_basis=True)
            dimension, sizes, basis, classes = _reference_census(diagram, degree)
            # every chart point in the same class, and zero, as in the walk
            kernel = _kernel_classes(diagram, degree, classes)
            assert _same_partition(kernel, classes), (label, degree)
            assert census.dimension == dimension, (label, degree)
            assert census.support_sizes == sizes, (label, degree)
            assert census.warnings is diagram.warnings, (label, degree)
            assert isinstance(census.warnings, tuple), (label, degree)
            assert census.basis == basis, (label, degree)
    # walks whose image row is fixed along an interval and walks whose row
    # moves with the last coordinate (re-based affine3 and proj3)
    assert (cols.count(False), cols.count(True)) == (491, 5)


def _touched_points(phi, degree):
    """Every surviving point of a collapse target, and in a stratum that is
    only a source the distinct sigma^perp points its collapses read; a
    stratum point survives the restriction arrows when it lies in the dual
    of every cone of the stratum's charts.  Returns the touched, the
    untouched and the collapse targets' counts."""
    box = range(-degree, degree + 1)
    targets = {a.target for a in phi.arrows}
    touched = untouched = targeted = 0
    for s in phi.strata:
        gens = [g for c in s.fan.cones for g in c.gens]
        cones = [phi.arrow_cone(a) for a in phi.out_arrows(s.name)]
        for u in itertools.product(box, repeat=s.lattice_rank):
            if not all(dot(u, g) >= 0 for g in gens):
                continue
            if s.name in targets or any(
                all(dot(u, g) == 0 for g in c.gens) for c in cones
            ):
                touched += 1
                targeted += s.name in targets
            else:
                untouched += 1
    return touched, untouched, targeted


def _generating(phi, arrows):
    """The arrows of ``arrows``, in order, that are no coherent composite
    of two of them, found by a search over every pair of them
    (``composite_by_search``, which needs a valid diagram)."""
    composites = {
        composite_by_search(phi, a, b) for a in arrows for b in arrows if b.source == a.target
    }
    return [c for c in arrows if c not in composites]


def _planned_walks(phi, arrows):
    """The plan's walks along ``arrows``, read off the fanifold independently
    of the plan, in plan order: sorted by the position of each target's
    first arrow, stably, so the walks into one target come together in
    arrow order.  Each holds t, the sum of the arrow cone's gens, split
    into its first rank - 1 coordinates and its last (0 at rank 0); the
    collapse matrix, or one empty row into a rank-0 target; its last
    column (0 in an empty row), split into the entries of the rows but the
    last and that of the last row; and whether no later walk shares the
    walk's target."""
    first = {}
    for k, fa in enumerate(arrows):
        first.setdefault(fa.target, k)
    arrows = sorted(arrows, key=lambda fa: first[fa.target])
    out = []
    for k, fa in enumerate(arrows):
        cone = phi.arrow_cone(fa)
        t = [sum(g[i] for g in cone.gens) for i in range(cone.rank)]
        forward = phi._collapse_forward(fa)
        if not phi.stratum(fa.target).lattice_rank:
            assert forward == (), fa  # no rows
            forward = ((),)
        closes = all(b.target != fa.target for b in arrows[k + 1:])
        col = [v[-1] if v else 0 for v in forward]
        out.append(
            bmodel._Walk(fa, tuple(t[:-1]), t[-1] if t else 0, forward, tuple(col[:-1]), col[-1], closes)
        )
    return out


class _WalkLog(list):
    """A plan's walk list that logs each walk when the census reads it,
    with the intervals it reads and the unions made until the next one."""

    def __init__(self, walks, log):
        super().__init__(walks)
        self.log = log

    def __iter__(self):
        for walk in super().__iter__():
            self.log.append((walk, [], []))
            yield walk


def _log_walks(monkeypatch):
    """Log every walk a census reads off its plan (``_WalkLog``), the
    intervals of its source it reads (``bmodel._perp_cuts``: prefix, the
    part a..b of its interval, and the id of the point at a or None) and
    the unions it makes, while ``live[0]`` is true.  Returns (log, live)."""
    log, live = [], [True]
    plan, perp_cuts, union = bmodel._plan, bmodel._perp_cuts, bmodel._UnionFind.union

    def logged_plan(diagram):
        got = plan(diagram)
        return got._replace(walks=_WalkLog(got.walks, log))

    def logged_cuts(row, head, last, degree):
        for cut in perp_cuts(row, head, last, degree):
            if live[0]:
                log[-1][1].append(cut)
            yield cut

    def logged_union(uf, x, y):
        if live[0]:
            log[-1][2].append((x, y))
        union(uf, x, y)

    monkeypatch.setattr(bmodel, "_plan", logged_plan)
    monkeypatch.setattr(bmodel, "_perp_cuts", logged_cuts)
    monkeypatch.setattr(bmodel._UnionFind, "union", logged_union)
    return log, live


def test_census_allocates_ids_only_to_touched_points(monkeypatch):
    """Only touched points have ids, and of those only the collapse
    targets' points have ids of their own: a read point of a stratum that
    is only a source takes its image's id or the sink's."""
    degree = 12
    # affine3: of the rank-3 stratum's 13^3 surviving points, the 12^3 off
    # the coordinate planes are untouched, and the other 13^3 - 12^3 are
    # read; of proj3's 15 touched points only the rank-3 stratum's origin
    # is in no collapse target
    for name, touched, untouched, targeted in [
        ("proj3", 15, 0, 14), ("affine3", 1016, 12**3, 1016 - (13**3 - 12**3))
    ]:
        phi = EXAMPLES[name]()
        assert _touched_points(phi, degree) == (touched, untouched, targeted), name
        uf, supports = _census_classes(full_diagram(phi), degree)
        assert len(uf.parent) == targeted + 1, name  # and the zero sink
        read = [s.touched for s in supports.values() if s.touched is not None]
        assert sum(map(len, read)) == touched - targeted, name
        assert all(0 <= x < len(uf.parent) for t in read for x in t.values()), name
        assert sum(s.untouched for s in supports.values()) == untouched, name

    phi = EXAMPLES["proj3"]()
    diagram = full_diagram(phi)
    log, live = _log_walks(monkeypatch)
    _census_classes(diagram, degree)
    live[0] = False
    # one walk per generating arrow, grouped by target, out of the chart of
    # the arrow's cone by the arrow's own collapse: 28 of proj3's 50 arrows
    # are no composite of two others
    generating = _generating(phi, phi.arrows)
    assert len(log) == len(generating) == 28 and len(phi.arrows) == 50
    assert sum(a.kind == "collapse" for a in diagram.arrows) == 110
    assert [walk for walk, _, _ in log] == _planned_walks(phi, generating)
    assert sorted(walk.arrow for walk, _, _ in log) == sorted(generating)
    assert [walk.forward for walk, _, _ in log] == [
        phi._collapse_forward(walk.arrow) or ((),) for walk, _, _ in log
    ]
    census = limit_census(diagram, degree)
    assert census.dimension == 1
    assert sum(census.support_sizes.values()) == 80081


def test_census_counts_support_sizes_only_when_read(monkeypatch):
    """The census walks no chart for its support sizes; reading
    ``support_sizes`` counts each chart once, in object order."""
    calls = []
    box_count = bmodel._box_count

    def counted(gens, rank, degree):
        calls.append((gens, rank, degree))
        return box_count(gens, rank, degree)

    monkeypatch.setattr(bmodel, "_box_count", counted)
    diagram = full_diagram(EXAMPLES["affine3"]())
    census = limit_census(diagram, 4, with_basis=True)
    assert census.dimension == 125 and calls == []
    sizes = census.support_sizes
    assert list(sizes) == list(diagram.objects)
    assert len(calls) == len(diagram.objects)
    # the orthant's chart and the zero chart of the rank-3 stratum
    assert sizes[ChartObject("s1", 0)] == 5**3
    assert sizes[ChartObject("s1", 1)] == 9**3


def test_census_rejects_a_stratum_without_its_zero_chart():
    phi = EXAMPLES["affine1"]()
    s = next(s for s in phi.strata if s.lattice_rank)
    ray = next(k for k, c in enumerate(s.plain_fan.cones) if c.gens)
    diagram = ToricDiagram(phi, [ChartObject(s.name, ray)])
    with pytest.raises(ValueError, match="has no zero-cone chart"):
        limit_census(diagram, 1)


def _fit(points):
    """Lagrange interpolation through (x, y) pairs, as exact Fractions."""

    def poly(x):
        total = Fraction(0)
        for j, (xj, yj) in enumerate(points):
            term = Fraction(yj)
            for k, (xk, _) in enumerate(points):
                if k != j:
                    term *= Fraction(x - xk, xj - xk)
            total += term
        return total

    return poly


def test_rank_two_censuses_are_polynomials_in_the_degree():
    # Ehrhart-type growth: the fit through D = 1..4 predicts D = 5..16
    rank_two = [
        name
        for name, build in sorted(EXAMPLES.items())
        if max(s.lattice_rank for s in build().strata) == 2
    ]
    assert rank_two == ["affine2", "proj2", "quadric_stacky", "square", "unigon"]
    for name in rank_two:
        diagram = full_diagram(EXAMPLES[name]())
        dims = {d: limit_census(diagram, d).dimension for d in range(1, 17)}
        poly = _fit([(d, dims[d]) for d in range(1, 5)])
        assert [poly(d) for d in range(5, 17)] == [dims[d] for d in range(5, 17)], name


def test_census_closed_forms_up_to_degree_eight():
    forms = {
        "unigon": lambda d: d * d + d + 1,
        "3a1": lambda d: 3 * d + 1,
        "interval": lambda d: 2 * d + 1,
        "affine3": lambda d: (d + 1) ** 3,
    }
    for name, form in forms.items():
        degrees = range(9)
        assert census_dims(EXAMPLES[name](), degrees) == [form(d) for d in degrees], name


def test_census_closed_forms_past_the_ladder_cap():
    # the benchmark ladder stops the rank-3 examples at D = 12 and the
    # others at D = 16; the census cost follows the points collapses touch
    rungs = [
        ("affine3", 16, 17**3),
        ("proj3", 16, 1),
        ("affine3", 48, 49**3),
        ("proj3", 48, 1),
        ("square", 256, 513**2),
        ("unigon", 256, 256**2 + 257),
    ]
    for name, degree, dimension in rungs:
        census = limit_census(full_diagram(EXAMPLES[name]()), degree)
        assert census.dimension == dimension, (name, degree)


def test_perp_points_are_the_surviving_points_perpendicular_to_the_cone(
    monkeypatch,
):
    """On every collapse walk of the oracle diagrams, the points the walk
    reads off the source stratum's cut list are its surviving points in
    sigma^perp, in id order, each read once.  Each point makes one union,
    with its image's id when that is a surviving target point and with the
    sink otherwise, except a point of a stratum that is only a source, on
    its first read: it makes none, and takes that id.  After them only the
    last walk into a target makes unions, one with the sink per surviving
    target point that some walk into the target reached from no point.
    Besides the oracle diagrams, affine3 and proj3 in the random bases of
    seed 0, where the target row of a walk moves by 2 or 3 per step along
    an interval."""
    log, live = _log_walks(monkeypatch)
    lasts, wrong = [], []
    closing = zeroed = 0
    steep = [
        (f"{name} rebased by seed 0", full_diagram(_rebased(EXAMPLES[name](), random.Random(0))))
        for name in ("affine3", "proj3")
    ]
    for label, diagram in itertools.chain(_oracle_diagrams(), steep):
        phi = diagram.fanifold
        for degree in range(6):
            log.clear()
            live[0] = True
            _, supports = _census_classes(diagram, degree)
            live[0] = False
            ids = {name: dict(s.points()) for name, s in supports.items()}
            missed = {}  # target -> surviving points some walk missed
            read = set()  # (stratum, point) read so far
            for walk, cuts, unions in log:
                fa = walk.arrow
                gens = phi.arrow_cone(fa).gens
                source, target = ids[fa.source], ids[fa.target]
                rank = supports[fa.source].rank
                points = [p + (x,) if rank else () for p, a, b, _ in cuts for x in range(a, b + 1)]
                # each interval names the id of the point at its start, or
                # None where the source is no collapse target
                for p, a, b, i in cuts:
                    if i != (None if supports[fa.source].touched is not None else source[p + (a,) if rank else ()]):
                        wrong.append((label, degree, fa, p, a))
                want = [u for u in source if all(dot(u, g) == 0 for g in gens)]
                expected = []
                images = set()
                for u in want:
                    w = mat_vec(phi._collapse_forward(fa), u)
                    y = target.get(w, 0)  # the sink's id when w is no target point
                    if w in target:
                        images.add(w)
                    if supports[fa.source].touched is None or (fa.source, u) in read:
                        expected.append(sorted((source[u], y)))
                    elif source[u] != y:  # a first read takes the image's id
                        wrong.append((label, degree, fa, u))
                    read.add((fa.source, u))
                missed.setdefault(fa.target, set()).update(set(target) - images)
                n = len(expected)
                if walk.closes:
                    expected += [[0, target[w]] for w in sorted(missed.pop(fa.target))]
                    closing += 1
                    zeroed += len(expected) - n
                # one union per point read, in order; then the zeroes, in any order
                got = [sorted(pair) for pair in unions]
                if points != want or got[:n] != expected[:n] or sorted(got[n:]) != sorted(expected[n:]):
                    wrong.append((label, degree, fa))
                lasts.append((walk.last, any(walk.head)))
            # in a collapse target ids run through the points in order
            for name, target in ids.items():
                if supports[name].touched is None and list(target.values()) != sorted(target.values()):
                    wrong.append((label, degree, name))
            assert not missed, (label, degree)
    assert not wrong
    # both cases of the cut, t_last zero (with t' solved for) or not, and
    # targets both zeroed and not; t = 0 would need a zero arrow cone
    assert {(bool(last), solved) for last, solved in lasts} >= {(True, True), (False, True)}
    assert closing and zeroed
    assert max(abs(c) for _, diagram in steep for walk in bmodel._plan(diagram).walks for c in walk.col) == 3


class _LoggedRow(dict):
    """A cut list's row map that logs each prefix looked up and each scan."""

    def __init__(self, row):
        super().__init__(row)
        self.looked_up, self.scans = [], 0

    def get(self, prefix, default=None):
        self.looked_up.append(prefix)
        return super().get(prefix, default)

    def items(self):
        self.scans += 1
        return super().items()


def test_a_walk_with_t_last_zero_reads_only_the_prefixes_it_solves_for():
    """With t_last = 0 and t' != 0, ``_perp_cuts`` looks up exactly the box
    prefixes p with p . t' = 0, in lexicographic order, and scans no
    interval, unless the row holds no more intervals than that solve
    would look up, (2D + 1)^(rank - 2), when it scans the row and looks
    nothing up.  Either way it yields the intervals a scan of every prefix
    would keep, whole.  With t = 0 every interval is kept.  On the whole
    box and on cut lists of random gens in rank 3 and 4, with targets' ids
    and a source's None, for t' whose last nonzero entry is 1, -2 or 3 and
    is followed by zeros or not."""
    rng = random.Random(4040)
    heads = [(1, 0), (0, 1), (2, -1), (1, -2), (3, 0), (0, 3, 0), (1, 0, 0), (2, 0, -3), (0, -2, 0)]
    ways = {"solved": 0, "scanned": 0}
    for head in heads:
        rank, degree = len(head) + 1, 3
        box = range(-degree, degree + 1)
        solve = [p for p in itertools.product(box, repeat=rank - 1) if not dot(p, head)]
        for k in range(6):
            gens = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)]
            gens = [g for g in gens if any(g)]
            row, start = {}, 1
            for prefix, lo, hi in bmodel._box_cuts(gens, rank, degree):
                row[prefix] = (lo, hi, start if k % 2 else None)
                start += hi - lo + 1
            logged = _LoggedRow(row)
            got = list(bmodel._perp_cuts(logged, head, 0, degree))
            want = [(p, lo, hi, first) for p, (lo, hi, first) in row.items() if not dot(p, head)]
            assert got == want, (head, gens)
            if len(row) > (2 * degree + 1) ** (rank - 2):
                assert (logged.scans, logged.looked_up) == (0, solve), (head, gens)
                ways["solved"] += 1
            else:
                assert (logged.scans, logged.looked_up) == (1, []), (head, gens)
                ways["scanned"] += 1
            everything = list(bmodel._perp_cuts(row, (0,) * len(head), 0, degree))
            assert everything == [(p, lo, hi, first) for p, (lo, hi, first) in row.items()]
    # both ways; at D = 3 in rank 3 a row of 7 intervals is scanned, and
    # one of 8 solved for
    assert ways["solved"] > 10 and ways["scanned"] > 3, ways
    for n, way in [(7, (1, [])), (8, (0, [(0, y) for y in range(-3, 4)]))]:
        row = _LoggedRow({(x, y): (0, 0, None) for x, y in itertools.islice(itertools.product(range(-1, 2), repeat=2), n)})
        assert list(bmodel._perp_cuts(row, (1, 0), 0, 3)) == [((0, y), 0, 0, None) for y in (-1, 0, 1)]
        assert (row.scans, row.looked_up) == way, n


# -- incidence tables: one per fan and per arrow ----------------------------------


def _arrows_with_forward(diagram):
    """Each map with the collapse matrix of its fanifold arrow, if any."""
    phi = diagram.fanifold
    return [
        (a, a.arrow and phi._collapse_forward(a.arrow))
        for a in diagram.arrows
    ]


def test_diagrams_and_skeleton_do_no_cone_algebra_once_the_tables_exist(monkeypatch):
    """The first pass builds each fan's containment table and each arrow's
    star map and collapse matrix; a second pass with every cone test and
    cone image refused gives the same diagrams and skeleton models."""
    phis = [build() for _, build in sorted(EXAMPLES.items())]

    def outputs(phi):
        out = [_arrows_with_forward(full_diagram(phi))]
        if phi.validate().is_poset:
            out += [_arrows_with_forward(chart_diagram(phi, s.name)) for s in phi.strata]
        model = skeleton_model(phi)
        out.append((model.strata, model.incidences))
        return out

    before = [outputs(phi) for phi in phis]

    def refuse(*args):
        raise AssertionError("cone linear algebra after the tables exist")

    for name in ("contains", "image"):
        monkeypatch.setattr(Cone, name, refuse)
    assert [outputs(phi) for phi in phis] == before


def test_collapse_forward_is_built_only_where_read():
    """``full_diagram`` and ``chart_diagram`` build no collapse matrix.  The
    census builds those of the arrows it walks, each out of the chart of
    its own cone into a zero-cone chart, and no others.  Its walks, read
    off the fanifold's arrows, are the diagram's collapses into a zero-cone
    chart whose arrows are no composite of two others', in plan order
    (``_planned_walks``, which puts the walks into one target together): the same
    fanifold arrow, cone gens and ``forward``, read through the fanifold.
    So the collapse matrices built are the generating arrows'.  A collapse
    names a fanifold arrow, and a restriction none."""
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        diagrams = [full_diagram(phi)]
        if phi.validate().is_poset:
            diagrams += [chart_diagram(phi, s.name) for s in phi.strata]
        assert phi._collapses == {}, name
        walked = set()
        for diagram in diagrams:
            limit_census(diagram, 2)
            walks = [
                a.arrow
                for a in diagram.arrows
                if a.kind == "collapse" and not diagram.object_cone(a.target).gens
            ]
            walks = _generating(phi, walks)
            walked |= set(walks)
            assert bmodel._plan(diagram).walks == _planned_walks(phi, walks), name
        assert set(phi._collapses) == walked == set(_generating(phi, phi.arrows)), name
        for a in diagrams[0].arrows:
            assert (a.arrow in phi.arrows) == (a.kind == "collapse"), name


def test_every_walked_target_is_a_zero_cone_chart():
    """The image of an arrow's own cone is the target's zero cone, so each
    collapse the census walks lands on a zero-cone chart: on every example's
    full diagram and on the kept charts of every closed set of the poset
    examples, built and loaded.  The walks are the arrows between charted
    strata that are no composite of two of them, and on these valid
    diagrams those are the arrows along a ray."""
    diagrams = 0
    for name, build in sorted(EXAMPLES.items()):
        for phi in (build(), load_fanifold(resolve_input(f"{name}.json"))):
            kept = [full_diagram(phi)]
            if phi.validate().is_poset:
                kept += [bmodel._diagram(phi, phi.kept_cones(z)) for z in _closed_sets(phi)]
            for diagram in kept:
                walked = [walk.arrow for walk in bmodel._plan(diagram).walks]
                for fa in walked:
                    star = phi._star_map(fa)
                    target = diagram.index[(fa.target, star[fa.cone_index])]
                    assert not diagram.object_cone(target).gens, (name, fa)
                charted = {o.stratum for o in diagram.objects}
                between = [
                    fa for fa in phi.arrows if fa.source in charted and fa.target in charted
                ]
                generating = _generating(phi, between)
                assert walked == [w.arrow for w in _planned_walks(phi, generating)], name
                assert generating == [fa for fa in between if phi.arrow_cone(fa).dim == 1], name
                diagrams += 1
    assert diagrams == 30 + 414


def test_a_diagrams_maps_are_plain_values():
    """A map names its charts by index and a collapse its fanifold arrow, so
    an example's maps are equal whether it is built or loaded."""
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        built = full_diagram(phi).arrows
        loaded = full_diagram(load_fanifold(resolve_input(f"{name}.json"))).arrows
        assert built == loaded, name
        assert any(a.kind == "collapse" for a in built) == bool(phi.arrows), name


def test_the_census_builds_no_map_list(monkeypatch):
    """A diagram's map list is built on its first read, and the census does
    not read it: ``arrow_count`` builds it once, when read."""
    builds = []
    restriction_arrows = bmodel._restriction_arrows

    def counted(phi, objects):
        builds.append(objects)
        return restriction_arrows(phi, objects)

    monkeypatch.setattr(bmodel, "_restriction_arrows", counted)
    counts = {}
    for name, build in sorted(EXAMPLES.items()):
        for with_basis in (False, True):
            diagram = full_diagram(build())
            census = limit_census(diagram, 3, with_basis=with_basis)
            assert "arrows" not in vars(diagram) and builds == [], name
            counts[name] = census.arrow_count
            assert census.arrow_count == len(diagram.arrows) == counts[name], name
            assert vars(diagram)["arrows"] is diagram.arrows, name
            assert builds == [diagram.objects], name
            builds.clear()
    assert counts["proj3"] == 220 and counts["affine3"] == 74


def test_a_missing_star_image_is_refused_by_the_map_list_and_the_census():
    """A fanifold whose target fan lacks the image of a star cone gets no
    diagram, so neither a map list nor a census: every way of building one
    raises validation's error, and keeps no chart set.  A target fan with no
    cones lacks every image, and the zero cone first."""
    phi = EXAMPLES["affine2"]()
    fa = next(a for a in phi.arrows if phi.stratum(a.target).lattice_rank == 1)
    target = phi.stratum(fa.target)
    # the opposite ray: the image of the source's full cone is missing
    flipped = Fan(
        [Cone([tuple(-x for x in g) for g in c.gens], 1) for c in target.fan.cones], 1
    )
    messages = (
        r"arrow 1 \(s1->s2\): quotient fan does not match the target fan",
        "stratum 's2' fan: missing the zero cone",
    )
    for fan, message in zip((flipped, Fan([], 1)), messages):
        strata = [s._replace(fan=fan) if s is target else s for s in phi.strata]
        mutant = Fanifold(phi.dimension, strata, phi.arrows)
        builds = (
            lambda: full_diagram(mutant),
            lambda: chart_diagram(mutant, fa.target),
            lambda: ToricDiagram(mutant, [ChartObject(fa.source, 0)]),
        )
        for build in builds:
            with pytest.raises(ValueError, match=f"^invalid fanifold: {message}$"):
                build()
        assert mutant._chart_sets == {}


def _negative_dimension_square():
    """square.json with ``"dimension": -1``: it loads, and every stratum
    fails the dimension check."""
    doc = json.loads(dumps(EXAMPLES["square"]()))
    doc["dimension"] = -1
    return fanifold_from_dict(doc)


LIBRARY_ENTRY_POINTS = {
    "full_diagram": full_diagram,
    "chart_diagram": lambda phi: chart_diagram(phi, "(s0,s0)"),
    "u_functor": lambda phi: u_functor(phi, ["(s2,s2)"]),
    "subalgebra_check": lambda phi: subalgebra_check(
        phi, [("x", {"(s2,s2)": {(1, 0): 1}})], degree=1
    ),
    "ToricDiagram": lambda phi: ToricDiagram(phi, [ChartObject("(s2,s2)", 0)]),
}


@pytest.mark.parametrize("entry", sorted(LIBRARY_ENTRY_POINTS))
def test_every_library_entry_point_refuses_an_invalid_fanifold(entry):
    """Each public way to a diagram raises validation's error on the
    ``"dimension": -1`` square, and keeps no chart set: the census never
    sees an invalid fanifold."""
    phi = _negative_dimension_square()
    with pytest.raises(ValueError) as refused:
        LIBRARY_ENTRY_POINTS[entry](phi)
    assert str(refused.value).startswith("invalid fanifold: stratum '(s0,s0)': dim 2")
    assert phi._chart_sets == {}


def test_every_unrolled_closure_of_a_bundled_example_validates():
    """The gate on a closure's diagram never refuses ``chart_diagram`` on a
    valid file: every unrolled closure of every stratum of every bundled
    example that is not a poset, built and loaded, validates."""
    closures = 0
    for name, build in sorted(EXAMPLES.items()):
        for phi in (build(), load_fanifold(resolve_input(f"{name}.json"))):
            if require_valid(phi).is_poset:
                continue
            for s in phi.strata:
                assert unrolled_closure(phi, s.name).validate().valid, (name, s.name)
                assert chart_diagram(phi, s.name).warnings, (name, s.name)
                closures += 1
    assert closures == 10  # necklace1 and unigon, 5 closures each way


def test_diagram_repr_reads_only_the_chart_tuple():
    """repr names the chart count and builds no map list, so it does not
    pay for the maps.  A fanifold whose map list would lack a star image
    gets no diagram to print: building one raises."""
    diagram = full_diagram(EXAMPLES["proj3"]())
    assert repr(diagram) == f"ToricDiagram(objects={len(diagram.objects)})"
    assert "arrows" not in diagram.__dict__
    phi = EXAMPLES["affine2"]()
    target = phi.stratum("s2")
    strata = [s._replace(fan=Fan([], 1)) if s is target else s for s in phi.strata]
    mutant = Fanifold(phi.dimension, strata, phi.arrows)
    with pytest.raises(ValueError, match="^invalid fanifold: stratum 's2' fan: missing the zero cone$"):
        full_diagram(mutant)


def test_a_fan_with_a_duplicated_cone_gets_no_restriction_arrows():
    """Two equal cones contain each other, so they would restrict to each
    other; validation rejects the fan, and no diagram of it, full or of
    both cones' charts, is built."""
    fan = Fan(
        [Cone([(1, 0), (0, 1)], 2), Cone([(0, 1), (1, 0)], 2), Cone([(1, 0)], 2), zero_cone(2)],
        2,
    )
    phi = Fanifold(2, [Stratum("s", 0, fan)], [])
    message = "^invalid fanifold: stratum 's' fan: cone 1 duplicates cone 0$"
    with pytest.raises(ValueError, match=message):
        full_diagram(phi)
    with pytest.raises(ValueError, match=message):
        ToricDiagram(phi, [ChartObject("s", 0), ChartObject("s", 1)])
    assert phi._chart_sets == {}


def test_skeleton_incidences_are_the_diagram_arrow_pairs():
    """Both builders index (stratum, cone) alike, a restriction is an
    incidence (face, cone) and a collapse one (source, target).  Unigon's
    two parallel arrows collapse the same charts, so its 12 diagram arrows
    give 11 incidences; every other example has one arrow per incidence."""
    counts = {}
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        diagram, model = full_diagram(phi), skeleton_model(phi)
        assert [(o.stratum, o.cone_index) for o in diagram.objects] == [
            (s.base, s.cone_index) for s in model.strata
        ]
        pairs = [
            (a.target, a.source) if a.kind == "restrict" else (a.source, a.target)
            for a in diagram.arrows
        ]
        assert set(pairs) == set(model.incidences), name
        counts[name] = (len(pairs), len(model.incidences))
    assert counts.pop("unigon") == (12, 11)
    assert all(n == m for n, m in counts.values()), counts


def test_unrolled_chart_diagrams_carry_one_warning_per_call():
    """The warning goes on a fresh diagram each call: the cached tables
    hold no diagram."""
    uni = EXAMPLES["unigon"]()
    assert not uni.validate().is_poset
    for s in uni.strata:
        for _ in range(2):
            assert chart_diagram(uni, s.name).warnings == (
                f"stratum {s.name!r} has an unrolled closure"
                " (the exit diagram is not a poset)",
            )


def _arrow_orders(build):
    out = []
    for name in sorted(EXAMPLES):
        phi = build(name)
        diagrams = [("full", full_diagram(phi))]
        diagrams += [(f"chart {s.name}", chart_diagram(phi, s.name)) for s in phi.strata]
        for label, d in diagrams:
            out.append([name, label, [[a.source, a.target, a.kind] for a in d.arrows]])
    return out


def test_diagram_arrow_order_matches_the_golden():
    """The (source, target, kind) arrows of ``full_diagram`` and of every
    ``chart_diagram``, in order, for each bundled file and each example
    constructor (``bmodel chart`` prints this order; the golden is written
    by ``tools/regen_goldens.py``)."""
    path = os.path.join(os.path.dirname(__file__), "goldens", "diagram_arrows.json")
    with open(path) as fh:
        golden = json.load(fh)
    assert len(golden) == 15 + sum(len(b().strata) for b in EXAMPLES.values())
    assert _arrow_orders(lambda n: load_fanifold(resolve_input(f"{n}.json"))) == golden
    assert _arrow_orders(lambda n: EXAMPLES[n]()) == golden


# -- the census plan: built once per fanifold and chart set -----------------


def _chart_set_diagrams():
    """(label, a function making a fresh diagram) for every example: its full
    diagram, built and loaded, and on a poset the kept charts of every
    closed set of the built one."""
    for name, build in sorted(EXAMPLES.items()):
        phi, loaded = build(), load_fanifold(resolve_input(f"{name}.json"))
        yield f"{name} loaded", lambda loaded=loaded: full_diagram(loaded)
        yield name, lambda phi=phi: full_diagram(phi)
        if phi.validate().is_poset:
            for z in _closed_sets(phi):
                kept = phi.kept_cones(z)
                yield f"{name} {z}", lambda phi=phi, kept=kept: bmodel._diagram(phi, kept)


def test_planned_censuses_in_any_degree_order_match_the_box_walk_reference():
    """Censuses at D = 0..4, taken in a shuffled degree order, each on a
    fresh diagram of the same chart set (so every degree after the first
    reads the plan the first one built), equal the box-walk reference: the
    dimension, the support sizes, the basis and every chart point's class."""
    rng = random.Random(3501)
    sets = 0
    for label, diagram_of in _chart_set_diagrams():
        degrees = list(range(5))
        rng.shuffle(degrees)
        for degree in degrees:
            diagram = diagram_of()
            census = limit_census(diagram, degree, with_basis=True)
            dimension, sizes, basis, classes = _reference_census(diagram, degree)
            assert census.dimension == dimension, (label, degree)
            assert census.support_sizes == sizes, (label, degree)
            assert census.basis == basis, (label, degree)
            assert _same_partition(_kernel_classes(diagram, degree, classes), classes), (label, degree)
        sets += 1
    assert sets == 30 + 207


def test_the_plan_is_built_once_per_fanifold_and_chart_set(monkeypatch):
    """Over D = 1..16, each on a fresh diagram, a chart set's plan is built
    at its first census and read by the others: once per fanifold and chart
    set, for the full diagram and each stratum's chart diagram of every
    example, built and loaded.  An unrolled closure is a fanifold of its
    own, built afresh by each ``chart_diagram`` call."""
    builds = []
    build_plan = bmodel._build_plan

    def counted(diagram):
        builds.append((diagram.fanifold, diagram.objects))
        return build_plan(diagram)

    monkeypatch.setattr(bmodel, "_build_plan", counted)
    censuses = 0
    for name, build in sorted(EXAMPLES.items()):
        for phi in (build(), load_fanifold(resolve_input(f"{name}.json"))):
            makers = [lambda: full_diagram(phi)]
            if phi.validate().is_poset:
                makers += [lambda s=s: chart_diagram(phi, s.name) for s in phi.strata]
            for make in makers:
                for degree in range(1, 17):
                    limit_census(make(), degree)
                    censuses += 1
            # the closure of a top stratum can keep every chart
            chart_tuples = {make().objects for make in makers}
            assert sorted(objects for _, objects in builds) == sorted(chart_tuples), name
            assert all(f is phi for f, _ in builds), name
            builds.clear()
    assert censuses == 16 * (30 + 2 * 71)  # 71 strata on the poset examples

    uni = EXAMPLES["unigon"]()
    for degree in (1, 2):
        limit_census(chart_diagram(uni, "u"), degree)
    assert len(builds) == 2 and builds[0][0] is not builds[1][0]
    assert builds[0][1] == builds[1][1]


def _faulty_diagrams():
    """A fanifold whose target fan lacks a star cone's image, which gets no
    diagram, and a diagram whose stratum lacks its zero-cone chart, whose
    census raises: each with its fanifold, two ways to make the diagram,
    and the message each raises."""
    phi = EXAMPLES["affine2"]()
    fa = next(a for a in phi.arrows if phi.stratum(a.target).lattice_rank == 1)
    target = phi.stratum(fa.target)
    flipped = Fan(
        [Cone([tuple(-x for x in g) for g in c.gens], 1) for c in target.fan.cones], 1
    )
    strata = [s._replace(fan=flipped) if s is target else s for s in phi.strata]
    mutant = Fanifold(phi.dimension, strata, phi.arrows)
    objects = [ChartObject(s.name, k) for s in mutant.strata for k in range(len(s.fan.cones))]
    yield mutant, (lambda: full_diagram(mutant), lambda: ToricDiagram(mutant, objects)), (
        r"^invalid fanifold: arrow 1 \(s1->s2\): quotient fan does not match the target fan$"
    )
    line = EXAMPLES["affine1"]()
    s = next(s for s in line.strata if s.lattice_rank)
    ray = next(k for k, c in enumerate(s.fan.cones) if c.gens)
    diagram = ToricDiagram(line, [ChartObject(s.name, ray)])
    yield line, (lambda: diagram, lambda: ToricDiagram(line, diagram.objects)), (
        "has no zero-cone chart"
    )


def test_a_faulty_chart_set_raises_at_every_degree_on_every_call():
    """The invalid fanifold's error comes from the diagram, and the
    no-zero-chart error from the plan, before the degree checks: at every
    degree, a negative one and one past the box index included, on every
    call.  A build that raises keeps no plan and no collapse matrix."""
    for phi, makers, message in _faulty_diagrams():
        for degree in (1, -1, 0, 16, 2**70, 3):
            for _ in range(2):
                for make in makers:
                    with pytest.raises(ValueError, match=message):
                        limit_census(make(), degree)
        assert all(charts.plan is None for charts in phi._chart_sets.values()), message
        assert phi._collapses == {}, message


def _every_walk_plan(diagram):
    """The census plan with a walk along every charted arrow whose own
    cone's image is a kept chart, composites included, built as
    ``bmodel._build_plan`` builds its plan but with no witness."""
    phi, index = diagram.fanifold, diagram.index
    walked = [
        fa
        for fa, star in bmodel._charted_arrows(diagram)
        if (fa.target, star[fa.cone_index]) in index
    ]
    gens, ranks = {}, {}
    for i, obj in enumerate(diagram.objects):
        gens.setdefault(obj.stratum, []).append(diagram.object_cone(i).gens)
        ranks[obj.stratum] = diagram.object_rank(i)
    strata = []
    for name, kept in gens.items():
        if all(kept):
            raise ValueError(f"stratum {name!r} has no zero-cone chart")
        distinct = tuple(dict.fromkeys(g for c in kept for g in c))
        strata.append((name, ranks[name], distinct, any(fa.target == name for fa in walked)))
    return bmodel._Plan(tuple(strata), _planned_walks(phi, walked))


def _censuses_or_error(diagram, degrees):
    """Each degree's dimension and basis, or the error the census raised,
    as type and text."""
    out = []
    for degree in degrees:
        try:
            census = limit_census(diagram, degree, with_basis=True)
        except Exception as e:
            out.append(f"{type(e).__name__}: {e}")
        else:
            out.append((census.dimension, census.basis))
    return out


def _walk_law_cases():
    """(label, a function making a fresh fanifold, its chart sets: None for
    the full diagram, else kept cones): every example, built and loaded,
    its full diagram, on a poset the kept charts of every closed set, and
    four random chart sets that keep each zero chart;
    ``from_fan`` of drawn fans, and products of examples and of drawn fans;
    and every one-edit fuzz mutant of the bundled files
    (``tests/test_fuzz.py``'s seed) that loads, valid or not."""
    rng = random.Random(3601)
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        charts = [None]
        if phi.validate().is_poset:
            charts += [phi.kept_cones(z) for z in _closed_sets(phi)]
        # charts that no closed set keeps: each zero chart and a random half
        # of the others, so a walk's own chart or its witness's can be gone
        charts += [
            {s.name: [k for k, c in enumerate(s.fan.cones) if not c.dim or rng.random() < 0.5]
             for s in phi.strata}
            for _ in range(4)
        ]
        text = dumps(phi)
        yield name, build, charts
        yield f"{name} loaded", lambda text=text: loads(text), charts
    fans = [drawn_fan(rng)[0] for _ in range(24)]
    for k, fan in enumerate(fans):
        yield f"drawn fan {k}", lambda fan=fan: from_fan(fan), [None]
    pairs = [(EXAMPLES[x], EXAMPLES[y]) for x, y in
             [("proj1", "proj2"), ("square", "interval"), ("unigon", "interval"), ("affine2", "proj1")]]
    pairs += [(lambda f=f: from_fan(f), lambda g=g: from_fan(g))
              for f, g in zip(fans, fans[1:]) if f.rank == g.rank == 2][:4]
    for k, (left, right) in enumerate(pairs):
        yield f"product {k}", lambda left=left, right=right: product(left(), right()), [None]
    rng = random.Random(test_fuzz.SEED)
    docs = test_fuzz._documents()
    names = sorted(docs)
    for k in range(test_fuzz.MUTANTS):
        name = names[k % len(names)]
        doc, kind = test_fuzz._mutate(docs[name], rng)
        try:
            fanifold_from_dict(doc)
        except ValueError:
            continue
        yield f"mutant {k} of {name} ({kind})", lambda doc=doc: fanifold_from_dict(doc), [None]


def test_the_planned_census_equals_the_census_that_walks_every_charted_arrow(monkeypatch):
    """Dropping the walks that factor changes no census: at D = 0..2 the
    dimension and the basis, or the error raised, equal those of a plan
    that walks every charted arrow, which is built on a fanifold of its
    own.  On every example with its chart sets, on ``from_fan`` of drawn
    fans and on products, and on the valid fuzz mutants that load.  A
    mutant that validation rejects gets no diagram, so no census on either
    side: the witness that drops a walk reads validation's coherence."""
    degrees = (0, 1, 2)
    cases = dropped = mutants = refused = raised = 0
    for label, make, charts in _walk_law_cases():
        phis = make(), make()
        if not phis[0].validate().valid:
            for phi in phis:
                with pytest.raises(ValueError, match="^invalid fanifold: "):
                    full_diagram(phi)
            refused += 1
            continue
        for kept in charts:
            diagrams = [full_diagram(phi) if kept is None else bmodel._diagram(phi, kept) for phi in phis]
            planned = _censuses_or_error(diagrams[0], degrees)
            with monkeypatch.context() as m:
                m.setattr(bmodel, "_build_plan", _every_walk_plan)
                every = _censuses_or_error(diagrams[1], degrees)
            assert planned == every, (label, kept)
            cases += 1
            raised += isinstance(planned[0], str)
            # a plan is kept once built, and a plan that raised keeps nothing
            plans = [d._charts.plan for d in diagrams]
            fewer = None not in plans and len(plans[0].walks) < len(plans[1].walks)
            dropped += fewer
            mutants += label.startswith("mutant")
    # 245 of 660 chart sets drop a walk, 64 of them on valid mutants, none
    # raises, and 186 invalid mutants are refused (the loader refuses two
    # more, each with a zero ray)
    assert (cases, dropped, mutants, refused, raised) == (660, 245, 64, 186, 0)


# -- descent and product laws on fan diagrams ---------------------------------


def _dual_points(rays, degree, rank):
    """The box points u with u . g >= 0 for every ray g, as a set."""
    box = itertools.product(range(-degree, degree + 1), repeat=rank)
    return {u for u in box if all(sum(a * b for a, b in zip(u, g)) >= 0 for g in rays)}


def _moved(fan, rng):
    m = _unimodular(rng, fan.rank)
    return Fan([Cone([tuple(dot(r, g) for r in m) for g in c.gens], fan.rank) for c in fan.cones], fan.rank)


def test_mayer_vietoris_on_fan_diagrams():
    """On ``from_fan`` of a fan, a closed set Z of strata is a subfan, and
    the census of its kept charts counts the box points in the dual of the
    subfan's rays.  For the closures C and D of two strata, of the cones a
    and b, those rays are a's, b's, the common ones (C n D) and all of them
    (C u D), read off the fan and not off the diagram.  Mayer-Vietoris for
    X_C u X_D, degree by degree, gives dim(C u D) + dim(C n D) - dim C -
    dim D = #{u in (C n D)^v, not in C^v, not in D^v}: one class of H^1 per
    such u (Cox, Little and Schenck, Toric Varieties, Thm 9.1.3).  On every
    pair of strata of P1-P3, the 2- and 3-orthants, the quadric, the stacky
    quadric and four random lattice bases each of P2 and the 3-orthant, at
    D = 1 and 2."""
    rng = random.Random(3515)
    fans = [projective_fan(n) for n in (1, 2, 3)]
    fans += [orthant_fan(2), orthant_fan(3), quadric_fan(), stacky_quadric_fan()]
    fans += [_moved(projective_fan(2), rng) for _ in range(4)]
    fans += [_moved(orthant_fan(3), rng) for _ in range(4)]
    squares = defects = 0
    for fan in fans:
        phi = from_fan(fan)
        rays = {f"s{i}": set(c.gens) for i, c in enumerate(fan.cones)}
        for a, b in itertools.combinations(sorted(rays), 2):
            c, d = phi.down_closure([a]), phi.down_closure([b])
            sets = {"C": (c, rays[a]), "D": (d, rays[b]), "C u D": (c | d, rays[a] | rays[b]),
                    "C n D": (c & d, rays[a] & rays[b])}
            for degree in (1, 2):
                dims, duals = {}, {}
                for key, (z, z_rays) in sets.items():
                    duals[key] = _dual_points(z_rays, degree, fan.rank)
                    kept = bmodel._diagram(phi, phi.kept_cones(z))
                    dims[key] = limit_census(kept, degree).dimension
                    assert dims[key] == len(duals[key]), (fan, a, b, key, degree)
                defect = dims["C u D"] + dims["C n D"] - dims["C"] - dims["D"]
                assert defect == len(duals["C n D"] - duals["C"] - duals["D"]), (fan, a, b, degree)
                squares += 1
                defects += defect != 0
    assert (squares, defects) == (742, 258)  # the naive identity fails on 258


def test_census_is_multiplicative_on_products_and_additive_on_disjoint_unions():
    """Kuenneth, census(product(phi, psi), D) = census(phi, D) *
    census(psi, D), and the census of a disjoint union is the sum of the
    two, at D = 1 and 2: on the fan examples and on fans drawn as the
    random-fans workload draws them, over pairs of total rank at most 4
    (products) and of equal rank (disjoint unions)."""
    rng = random.Random(3502)
    phis = [EXAMPLES[n]() for n in ("affine1", "affine2", "affine3", "proj1", "proj2", "proj3", "quadric_stacky")]
    phis += [from_fan(drawn_fan(rng)[0]) for _ in range(6)]

    def censuses(phi):
        diagram = full_diagram(phi)
        return [limit_census(diagram, degree).dimension for degree in (1, 2)]

    factors = [censuses(phi) for phi in phis]
    products = unions = 0
    for (i, left), (j, right) in itertools.combinations_with_replacement(enumerate(phis), 2):
        pairs = list(zip(factors[i], factors[j]))
        if left.dimension + right.dimension <= 4:
            assert censuses(product(left, right)) == [a * b for a, b in pairs], (left, right)
            products += 1
        if left.dimension == right.dimension:
            assert censuses(disjoint_union(left, right)) == [a + b for a, b in pairs], (left, right)
            unions += 1
    assert (products, unions) == (61, 45)
