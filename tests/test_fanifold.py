"""Exit diagrams: construction, validation, order structure, surgery."""

import dataclasses

import pytest

from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    orthant_fan,
    p1_fan,
    projective_fan,
)
from fanifolds.fanifold import (
    delete_strata,
    disjoint_union,
    empty_fanifold,
    from_fan,
    ideal_boundary,
    manifold,
    product,
    sphere_section,
    unrolled_closure,
)


def test_from_fan_affine_line():
    phi = from_fan(a1_fan())
    assert phi.dimension == 1
    assert [s.name for s in phi.strata] == ["s0", "s1"]
    # the zero cone is the deepest stratum (the cone point of the support),
    # carrying the whole fan; the ray interior is an open half-line
    assert phi.stratum("s0").dim == 0 and phi.stratum("s0").lattice_rank == 1
    assert phi.stratum("s1").dim == 1 and phi.stratum("s1").lattice_rank == 0
    assert len(phi.arrows) == 1
    assert phi.arrows[0].source == "s0" and phi.arrows[0].target == "s1"


def test_from_fan_strata_match_cones():
    fan = projective_fan(2)
    phi = from_fan(fan)
    assert len(phi.strata) == len(fan.cones)
    for i, c in enumerate(fan.cones):
        st = phi.stratum(f"s{i}")
        assert st.dim == c.dim
        assert st.lattice_rank == fan.rank - c.dim
    # one arrow per strict face inclusion, composites included
    pairs = sum(
        1
        for c in fan.cones
        for d in fan.cones
        if c is not d and d.contains_cone(c)
    )
    assert len(phi.arrows) == pairs


def test_from_fan_validates():
    for fan in (a1_fan(), p1_fan(), orthant_fan(2), projective_fan(2)):
        report = from_fan(fan).validate()
        assert report.valid and report.is_poset and report.coherent


def test_examples_registry_all_validate():
    for name, build in sorted(EXAMPLES.items()):
        report = build().validate()
        assert report.valid, (name, report.errors)
        assert report.coherent, name
        expect_poset = name not in ("unigon", "necklace1")
        assert report.is_poset == expect_poset, name


def test_validate_is_computed_once():
    phi = EXAMPLES["square"]()
    assert phi.validate() is phi.validate()


def test_strata_arrows_and_reports_are_frozen():
    phi = EXAMPLES["square"]()
    report = phi.validate()
    assert isinstance(report.errors, tuple)
    for obj, field in (
        (phi.strata[0], "dim"),
        (phi.arrows[0], "cone_index"),
        (report, "errors"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))


def test_leq_and_down_closure_on_square():
    sq = EXAMPLES["square"]()
    corner, edge, face = "(s2,s2)", "(s2,s0)", "(s0,s0)"
    assert sq.leq(corner, edge)
    assert sq.leq(corner, face)
    assert sq.leq(edge, face)
    assert not sq.leq(face, corner)
    down = sq.down_closure([edge])
    assert down == {corner, "(s2,s3)", edge}
    assert sq.is_down_closed(down)
    assert not sq.is_down_closed({edge})


def _minimal_names(phi):
    return {s.name for s in phi.minimal_strata()}


def test_minimal_strata():
    assert _minimal_names(EXAMPLES["3a1"]()) == {"a", "b", "c"}
    assert _minimal_names(EXAMPLES["necklace2"]()) == {"v1", "v2"}
    assert _minimal_names(EXAMPLES["square"]()) == {
        "(s2,s2)",
        "(s2,s3)",
        "(s3,s2)",
        "(s3,s3)",
    }


def test_necklace1_is_not_a_poset_but_coherent():
    n1 = EXAMPLES["necklace1"]()
    report = n1.validate()
    assert not report.is_poset
    assert report.coherent and report.valid
    # two parallel arrows from the vertex to the edge, one per direction
    assert len(n1.strata) == 2
    assert [(a.source, a.target) for a in n1.arrows] == [("v1", "e1"), ("v1", "e1")]
    assert n1.arrows[0].cone_index != n1.arrows[1].cone_index


def test_square_shape():
    sq = EXAMPLES["square"]()
    assert sq.dimension == 2
    assert len(sq.strata) == 9
    # composites are explicit: 8 corner-to-edge, 4 edge-to-face, 4 corner-to-face
    assert len(sq.arrows) == 16
    by_dim = {}
    for s in sq.strata:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 4, 1: 4, 2: 1}


def test_product_and_disjoint_union_counts():
    a = EXAMPLES["interval"]()
    b = from_fan(a1_fan())
    p = product(a, b)
    assert p.dimension == a.dimension + b.dimension
    assert len(p.strata) == len(a.strata) * len(b.strata)
    d = disjoint_union(a, b)
    assert len(d.strata) == len(a.strata) + len(b.strata)
    assert len(d.arrows) == len(a.arrows) + len(b.arrows)
    assert d.validate().valid


def test_sphere_section_interval():
    phi = sphere_section(orthant_fan(2))
    assert phi.dimension == 1
    dims = sorted(s.dim for s in phi.strata)
    assert dims == [0, 0, 1]
    assert phi.validate().valid
    # endpoints exit into the edge
    assert {(a.source, a.target) for a in phi.arrows} == {
        (s.name, "s0") for s in phi.strata if s.dim == 0
    }


def test_manifold_and_empty():
    m = manifold(3)
    assert m.dimension == 3
    assert len(m.strata) == 1 and not m.arrows
    e = empty_fanifold(2)
    assert not e.strata
    assert e.validate().valid


def test_delete_strata():
    sq = EXAMPLES["square"]()
    sub = delete_strata(sq, ["(s0,s0)"])
    assert len(sub.strata) == 8
    assert sub.validate().valid
    # removing a minimal stratum also leaves a valid diagram (composite
    # arrows are explicit, so nothing dangles)
    notched = delete_strata(sq, ["(s2,s2)"])
    assert len(notched.strata) == 8 and notched.validate().valid
    with pytest.raises(ValueError):
        delete_strata(sq, ["not-a-stratum"])


def test_delete_all_and_nothing():
    tri = EXAMPLES["3a1"]()
    assert len(delete_strata(tri, []).strata) == 4
    assert not delete_strata(tri, [s.name for s in tri.strata]).strata


def test_unrolled_closure_of_necklace1_edge():
    n1 = EXAMPLES["necklace1"]()
    uc = unrolled_closure(n1, "e1")
    report = uc.fanifold.validate()
    assert report.valid and report.is_poset
    # the self-glued edge unrolls into two vertex copies over one edge
    dims = sorted(s.dim for s in uc.fanifold.strata)
    assert dims == [0, 0, 1]


def test_ideal_boundary_of_halfplane():
    bd = ideal_boundary(EXAMPLES["halfplane"]())
    report = bd.validate()
    assert report.valid and report.is_poset
    assert sorted(s.dim for s in bd.strata) == [0, 0, 1]
    assert len(bd.arrows) == 2


def test_compact_flags():
    assert EXAMPLES["necklace2"]().compact
    assert not EXAMPLES["3a1"]().compact
    assert from_fan(p1_fan()).compact is False  # non-trivial fan direction


def test_arrow_maps_compose_coherently_on_square():
    sq = EXAMPLES["square"]()
    # for corner <= edge <= face the composite arrow exists with matching map
    report = sq.validate()
    assert report.coherent
    for a in sq.arrows:
        amap = sq.arrow_map(a)
        assert amap.matrix is not None
        fq = sq.arrow_quotient(a)
        assert fq.fan.rank == sq.stratum(a.target).lattice_rank
