"""Section rings of glued toric spaces: diagrams, censuses, subalgebras."""

import itertools
import random
from fractions import Fraction

import pytest

from fanifolds.bmodel import (
    ToricDiagram,
    _census_classes,
    chart_diagram,
    components,
    full_diagram,
    limit_census,
    subalgebra_check,
    u_functor,
    u_identities_hold,
)
from fanifolds.cones import Cone, zero_cone
from fanifolds.examples import EXAMPLES
from fanifolds.lattice import dot, mat_vec


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
    assert report.spans


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
    assert not report.spans


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
    with pytest.raises(ValueError):
        chart_diagram(uni, "nope")


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


def test_u_identities_on_examples():
    sq = EXAMPLES["square"]()
    assert u_identities_hold(sq, ["(s2,s2)"], ["(s3,s3)"])
    # two full edges (each with both corners), overlapping in one corner
    assert u_identities_hold(
        sq,
        ["(s2,s2)", "(s2,s3)", "(s2,s0)"],
        ["(s2,s3)", "(s3,s3)", "(s0,s3)"],
    )
    tri = EXAMPLES["3a1"]()
    assert u_identities_hold(tri, ["a"], ["a", "b"])


# -- oracles for the census kernel -------------------------------------------


class _OneChart(ToricDiagram):
    """A diagram with the single chart of one cone, for testing ``support``."""

    def __init__(self, cone):
        self.cone = cone

    def object_rank(self, i):
        return self.cone.rank

    def object_cone(self, i):
        return self.cone


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


def test_support_is_the_box_filter_in_product_order():
    rng = random.Random(20260317)
    cones = list(_random_cones(rng))
    assert any(not c.gens for c in cones) and any(len(c.gens) > c.rank for c in cones)
    for cone in cones:
        chart = _OneChart(cone)
        for degree in (0, 1, 3):
            assert chart.support(0, degree) == _box_support(cone, degree), (
                cone,
                degree,
            )


def _reference_census(diagram, degree):
    """The box walk the census used to do: every box point of every chart,
    with restriction and collapse maps applied point by point.  Returns the
    dimension, support sizes, basis and the union-find arrays as they stood
    after the last map."""
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
    for arrow in diagram.arrows:
        src, tgt = arrow.source, arrow.target
        for u in supports[src]:
            if arrow.kind == "restrict":
                w = u
            elif any(dot(u, g) != 0 for g in arrow.cone.gens):
                continue
            else:
                w = mat_vec(arrow.forward, u)
            if in_box(w):
                union(var[(src, u)], var[(tgt, w)])
            else:
                mark_zero(var[(src, u)])
        src_gens = diagram.object_cone(src).gens
        for w in supports[tgt]:
            if arrow.kind == "restrict":
                u = w if all(dot(w, g) >= 0 for g in src_gens) else None
            else:
                u = mat_vec(arrow.backward, w)
            if u is None or not in_box(u):
                mark_zero(var[(tgt, w)])
    arrays = (list(parent), list(zero))
    free = sorted(r for r in {find(x) for x in range(len(parent))} if not zero[r])
    members = {r: {} for r in free}
    for (i, u), x in var.items():
        r = find(x)
        if r in members:
            members[r][(diagram.objects[i], u)] = 1
    sizes = {diagram.objects[i]: len(sup) for i, sup in enumerate(supports)}
    return len(free), sizes, [members[r] for r in free], arrays


def test_census_matches_the_box_walk_reference():
    for name, build in sorted(EXAMPLES.items()):
        diagram = full_diagram(build())
        for degree in range(4):
            census = limit_census(diagram, degree, with_basis=True)
            dimension, sizes, basis, arrays = _reference_census(diagram, degree)
            # same union and mark calls, in the same order, on the same ids
            uf = _census_classes(diagram, degree)[0]
            assert (uf.parent, uf.zero) == arrays, (name, degree)
            assert census.dimension == dimension, (name, degree)
            assert census.support_sizes == sizes, (name, degree)
            assert census.basis == basis, (name, degree)


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
