"""End-to-end checks on the bundled examples plus the randomized suites.

Each test is a self-contained scenario: it builds the relevant glued toric
space, computes the quantity in question, and compares against an oracle
computed by independent elementary means (closed-form dimension counts,
CW-style Euler recounts, brute-force cone images).  Runtime bounds keep the
whole file desk-scale.
"""

import time

from fanifolds.bmodel import (
    components,
    full_diagram,
    limit_census,
    subalgebra_check,
)
from fanifolds.examples import EXAMPLES, a1_fan, orthant_fan, p1_fan, stacky_quadric_fan
from fanifolds.fanifold import sphere_section, suspension_boundary
from fanifolds.fans import refines, resolve_to_smooth
from fanifolds.lattice import quotient_with_torsion
from fanifolds.mesh import export_mesh
from fanifolds.skeleton import (
    euler_characteristic_c,
    handle_plan,
    skeleton_model,
)

from test_properties import (
    SEED,
    chi_cw_oracle,
    run_constructor_validation_suite,
    run_euler_suite,
    run_quotient_composition_suite,
    run_restriction_suite,
    run_snf_suite,
    run_u_identity_suite,
)
from test_skeleton import fan_pieces


def census_dims(phi, degrees):
    diagram = full_diagram(phi)
    return [limit_census(diagram, d).dimension for d in degrees]


def test_unigon_ring_relation_span_and_census():
    # a = x+y, b = xy, c = xy^2 satisfy b^3 + c^2 - abc = 0 exactly and
    # generate everything the degree-6 census sees; census itself follows
    # the quadratic count D^2 + D + 1.
    t0 = time.monotonic()
    uni = EXAMPLES["unigon"]()
    gens = [
        ("a", {"v": {(1, 0): 1, (0, 1): 1}}),
        ("b", {"v": {(1, 1): 1}}),
        ("c", {"v": {(1, 2): 1}}),
    ]
    rels = [("b^3 + c^2 - a*b*c", {(0, 3, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1})]
    report = subalgebra_check(uni, gens, rels, degree=6)
    assert report.relations == [("b^3 + c^2 - a*b*c", True)]
    assert not report.problems
    assert report.span_rank == report.census_dimension

    dims = census_dims(uni, range(7))
    assert dims == [d * d + d + 1 for d in range(7)]
    assert time.monotonic() - t0 < 5.0


def test_necklace_components_census_and_kronecker_shape():
    # r >= 2 projective lines glued in a cycle: r complete 1-dim components,
    # global sections are the constants in every degree.  The r = 1 loop is
    # coherent but not a poset: two objects with two parallel arrows.
    t0 = time.monotonic()
    p1_rays = sorted(p1_fan().rays)
    for r in (2, 3):
        neck = EXAMPLES[f"necklace{r}"]()
        comps = components(neck)
        assert len(comps) == r
        assert all(c.toric_dim == 1 and c.complete and not c.stacky for c in comps)
        for s in neck.minimal_strata():
            assert sorted(s.plain_fan.rays) == p1_rays
        assert census_dims(neck, range(7)) == [1] * 7

    n1 = EXAMPLES["necklace1"]()
    report = n1.validate()
    assert report.valid and report.coherent and not report.is_poset
    assert len(n1.strata) == 2
    assert [(a.source, a.target) for a in n1.arrows] == [("v1", "e1"), ("v1", "e1")]
    assert n1.arrows[0].cone_index != n1.arrows[1].cone_index
    assert time.monotonic() - t0 < 5.0


def test_three_lines_census_euler_and_mesh():
    # three affine lines glued at one point: censuses count triples of
    # polynomials agreeing at the origin, compactly-supported Euler number
    # matches a direct cell recount, and the mesh shows one cylinder per
    # line plus one triangle at the junction.
    t0 = time.monotonic()
    tri = EXAMPLES["3a1"]()
    comps = components(tri)
    assert len(comps) == 3
    assert all(c.toric_dim == 1 and not c.complete and not c.stacky for c in comps)

    # oracle: 3 polynomials of degree <= d, minus 2 matching conditions at 0
    assert census_dims(tri, range(9)) == [3 * (d + 1) - 2 for d in range(9)]

    assert euler_characteristic_c(tri) == 1 == chi_cw_oracle(tri)

    obj = export_mesh(skeleton_model(tri), resolution=16)
    names = [line[2:] for line in obj.splitlines() if line.startswith("g ")]
    assert sum(1 for g in names if g.endswith(".cylinder")) == 3
    assert sum(1 for g in names if g.endswith(".triangle")) == 1
    assert time.monotonic() - t0 < 5.0


def test_square_poset_handles_and_flag_count():
    # compact toric surface cut into 4 corners + 4 edges + 1 face: a
    # coherent poset whose handle decomposition attaches 4 + 4 + 1 handles
    # of index 0, 1, 2, and whose skeleton has one stratum per (stratum,
    # cone) flag.
    sq = EXAMPLES["square"]()
    report = sq.validate()
    assert report.valid and report.is_poset and report.coherent
    assert len(sq.strata) == 9

    plan = handle_plan(sq)
    assert plan.counts_by_index() == {0: 4, 1: 4, 2: 1}

    model = skeleton_model(sq)
    predicted = sum(len(s.plain_fan.cones) for s in sq.strata)
    assert len(model.strata) == predicted == 25


def test_stacky_quadric_isotropy_resolution_and_fltz():
    # quadric cone with a doubled ray generator: Smith normal form of the
    # generator matrix exposes a Z/2 isotropy group; star subdivision
    # resolves to a smooth refinement whose skeleton refines the original;
    # the Lagrangian piece over the 2-cone remembers the order-2 group.
    sf = stacky_quadric_fan()
    two_cone = next(c for c in sf.cones if c.dim == 2)
    assert sf.component_group(two_cone) == (2,)
    gens = [sf.stacky_generator(tuple(r)) for r in two_cone.extremal_rays]
    assert quotient_with_torsion(sf.rank, gens).torsion == (2,)

    result = resolve_to_smooth(sf)
    assert result.fan.is_smooth
    assert refines(result.fan, sf.fan).ok  # refinement is of the cones
    assert not refines(sf.fan, result.fan).ok

    pieces = [p for p in fan_pieces(sf) if p.cone_dim == 2]
    assert len(pieces) == 1
    assert pieces[0].group_order == 2
    assert sf.cones[pieces[0].cone_index] == two_cone


def test_boundary_sphere_census_two_lines_glued():
    # the sphere at infinity of the plane's orthant fan is two affine lines
    # glued at a point; so is the ideal boundary of the halfplane.  Either
    # way the census counts pairs (f, g) with f(0) = g(0):
    # (D+1) + (D+1) - 1 = 2D + 1.
    oracle = [2 * (d + 1) - 1 for d in range(9)]
    section = sphere_section(orthant_fan(2))
    assert census_dims(section, range(9)) == oracle
    boundary = suspension_boundary(a1_fan())
    assert census_dims(boundary, range(9)) == oracle


def test_property_suites_fixed_seed_under_budget():
    # six randomized suites, >= 200 cases each, one fixed seed, < 60 s.
    t0 = time.monotonic()
    run_quotient_composition_suite(seed=SEED)
    run_snf_suite(seed=SEED)
    run_constructor_validation_suite(seed=SEED)
    run_euler_suite(seed=SEED)
    run_u_identity_suite(seed=SEED)
    run_restriction_suite(seed=SEED)
    assert time.monotonic() - t0 < 60.0
