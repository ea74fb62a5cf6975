"""Exit diagrams: construction, validation, order structure, surgery."""

import gc
import itertools
import os
import random
import re
import subprocess
import sys
import weakref

import pytest

from fanifolds import fanifold as fanifold_module
from fanifolds import fans
from fanifolds.bmodel import components, full_diagram, limit_census, subalgebra_check, u_functor
from fanifolds.cli import resolve_input
from fanifolds.cones import Cone, zero_cone
from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    orthant_fan,
    p1_fan,
    projective_fan,
    quadric_fan,
    stacky_quadric_fan,
)
from fanifolds.fanifold import (
    Arrow,
    Fanifold,
    Stratum,
    _coords_in_span,
    _iso_through_section,
    _span_basis,
    delete_strata,
    disjoint_union,
    from_fan,
    manifold,
    product,
    require_valid,
    sphere_section,
    suspension_boundary,
    unrolled_closure,
)
from fanifolds.files import dumps, fanifold_from_dict, load_fanifold
from fanifolds.fans import (
    Fan,
    StackyFan,
    fan_key,
    quotient_fan,
    refines,
    resolve_to_smooth,
)
from fanifolds.lattice import (
    LatticeMap,
    identity_matrix,
    integer_kernel,
    invert_unimodular,
    lattice_map,
    mat_mul,
    quotient_with_torsion,
    smith_normal_form,
    transpose,
)
from fanifolds.mirror import mirror_dictionary, restriction_pairs
from fanifolds.skeleton import handle_plan, skeleton_model
from test_bmodel import drawn_fan
from test_cones import contains_cone
from test_fans import _inside_by_pairs, _random_basis_fans
from test_properties import (
    assert_carries_what_validation_finds,
    composite_by_search,
    fresh_fan,
    rebuilt,
)
import test_fuzz


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
        if c is not d and contains_cone(d, c)
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
    """One instance of every record of the package: none takes a field
    assignment, nor a new attribute."""
    phi = EXAMPLES["square"]()
    report = phi.validate()
    assert isinstance(report.errors, tuple)
    fan = quadric_fan()
    diagram = full_diagram(phi)
    model = skeleton_model(phi)
    plan = handle_plan(phi)
    md = mirror_dictionary(phi)
    closed = sorted(phi.down_closure([phi.strata[0].name]))
    subalgebra = subalgebra_check(
        EXAMPLES["3a1"](), [("t", {"a": {(1,): 1}, "b": {(1,): 1}, "c": {(1,): 1}})], degree=1
    )
    records = [
        phi.arrows[0].iso,
        smith_normal_form(((2, 0), (0, 3))),
        quotient_with_torsion(2, [(2, 0)]),
        quotient_fan(fan, 1),
        resolve_to_smooth(fan),
        refines(fan, fan),
        phi.strata[0],
        phi.arrows[0],
        report,
        diagram.objects[0],
        diagram.arrows[0],
        limit_census(diagram, 1),
        components(phi)[0],
        subalgebra,
        u_functor(phi, closed),
        model.strata[0],
        model,
        plan.handles[0],
        plan,
        md.stratum_labels[0],
        md.arrow_labels[0],
        md.certificate,
        md,
        restriction_pairs(phi, closed),
    ]
    assert len({type(r) for r in records}) == 24
    for obj in records:
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = None


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
    e = Fanifold(2, [], [])
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


def built_and_loaded():
    """Every bundled example as its builder makes it, then as its file
    loads, with a label."""
    for name, build in sorted(EXAMPLES.items()):
        yield f"{name} built", build()
        yield f"{name} loaded", load_fanifold(resolve_input(f"{name}.json"))


def closed_sets(phi):
    """Down-closed sets of strata, as sorted tuples: all of them on a diagram
    of at most 14 strata, else the closures of one or two strata."""
    names = [s.name for s in phi.strata]
    if len(names) <= 14:
        subsets = (c for k in range(len(names) + 1) for c in itertools.combinations(names, k))
        return [tuple(sorted(c)) for c in subsets if phi.is_down_closed(c)]
    return sorted(
        {tuple(sorted(phi.down_closure(c))) for k in (1, 2) for c in itertools.combinations(names, k)}
    )


def test_kept_cones_are_the_zero_cones_and_the_cones_aimed_inside():
    """On a valid poset, the cones a closure keeps are its strata's zero
    cones and the cones of the arrows that stay inside it: the rule
    ``chart_diagram`` used to apply itself."""
    checked = 0
    for label, phi in built_and_loaded():
        if not phi.validate().is_poset:
            continue
        for f in phi.strata:
            below = [s.name for s in phi.strata if phi.leq(s.name, f.name)]
            old_rule = {
                g: tuple(sorted(
                    {i for i, c in enumerate(phi.stratum(g).fan.cones) if c.dim == 0}
                    | {a.cone_index for a in phi.out_arrows(g) if a.target in below}
                ))
                for g in below
            }
            assert list(phi.kept_cones(below).items()) == list(old_rule.items()), (label, f.name)
            checked += 1
    assert checked == 142


def test_delete_strata_keeps_the_kept_cones_of_what_is_left():
    """Deleting the complement of a closed set leaves a valid diagram whose
    fans hold exactly the cones ``kept_cones`` names, in order."""
    count = 0
    for label, phi in built_and_loaded():
        for closed in closed_sets(phi):
            complement = [s.name for s in phi.strata if s.name not in closed]
            sub = delete_strata(phi, complement)
            kept = phi.kept_cones(closed)
            assert [s.name for s in sub.strata] == list(kept), (label, closed)
            for s in sub.strata:
                cones = phi.stratum(s.name).fan.cones
                assert s.fan.cones == tuple(cones[i] for i in kept[s.name]), (label, closed)
            count += 1
    assert count == 452


def test_unrolled_closure_of_necklace1_edge():
    n1 = EXAMPLES["necklace1"]()
    uc = unrolled_closure(n1, "e1")
    report = uc.validate()
    assert report.valid and report.is_poset
    # the self-glued edge unrolls into two vertex copies over one edge
    dims = sorted(s.dim for s in uc.strata)
    assert dims == [0, 0, 1]


def test_ideal_boundary_of_halfplane():
    bd = suspension_boundary(a1_fan())
    report = bd.validate()
    assert report.valid and report.is_poset
    assert sorted(s.dim for s in bd.strata) == [0, 0, 1]
    assert len(bd.arrows) == 2


def test_arrow_maps_compose_coherently_on_square():
    sq = EXAMPLES["square"]()
    # for corner <= edge <= face the composite arrow exists with matching map
    report = sq.validate()
    assert report.coherent
    for a in sq.arrows:
        amap = sq.arrow_map(a)
        assert amap.matrix is not None
        fq = quotient_fan(sq.stratum(a.source).fan, a.cone_index)
        assert fq.fan.rank == sq.stratum(a.target).lattice_rank


def test_validate_rejects_an_arrow_iso_that_is_not_unimodular():
    phi = EXAMPLES["affine2"]()
    k, a = next((k, a) for k, a in enumerate(phi.arrows) if a.iso.source_rank == 1)
    doubled = a._replace(iso=lattice_map(((2 * a.iso.matrix[0][0],),), 1, 1))
    arrows = phi.arrows[:k] + (doubled,) + phi.arrows[k + 1:]
    report = Fanifold(phi.dimension, phi.strata, arrows).validate()
    assert report.errors == (
        f"arrow {k} ({a.source}->{a.target}): iso not unimodular",
    )


def test_validate_names_the_first_fault_of_one_replaced_arrow():
    """One arrow of square replaced at a time: an unknown endpoint is
    reported before anything else, a cone index one past the fan is out of
    range, and an iso with one rank off is a shape mismatch, not a
    unimodularity failure."""
    sq = EXAMPLES["square"]()
    a = sq.arrows[0]  # corner (s2,s2) -> face (s0,s0) on the 2-cone
    k, b = next((k, b) for k, b in enumerate(sq.arrows) if b.iso.source_rank == 1)
    ab = f"arrow {k} ({b.source}->{b.target})"
    corner = f"stratum {a.source!r}"
    table = [
        (0, a._replace(target="nowhere"), ("arrow 0: unknown stratum id",)),
        (0, a._replace(source="nowhere"), (
            "arrow 0: unknown stratum id", f"{corner}: cones [0] have no arrow",
        )),
        (0, a._replace(cone_index=len(sq.stratum(a.source).fan.cones)), (
            "arrow 0: cone index 4 out of range",
            f"{corner}: cones [0] have no arrow",
            f"{corner}: arrows on non-cone indices [4]",
        )),
        (k, b._replace(iso=lattice_map(((1,), (0,)), 1, 2)), (f"{ab}: iso shape mismatch",)),
        (k, b._replace(iso=lattice_map(((1, 0),), 2, 1)), (f"{ab}: iso shape mismatch",)),
    ]
    for i, replaced, errors in table:
        arrows = sq.arrows[:i] + (replaced,) + sq.arrows[i + 1:]
        assert Fanifold(sq.dimension, sq.strata, arrows).validate().errors == errors, replaced


def test_validate_names_an_arrow_on_the_zero_cone_whose_star_maps_onto_its_target():
    """An arrow on the zero cone between two strata of one dimension and
    one fan, with the identity iso, passes every other arrow check (its
    star, the whole fan, maps one to one onto the target's cones); it is
    still named as on the zero cone, and the cones it leaves bare too."""
    fan = orthant_fan(1)
    zero = next(i for i, c in enumerate(fan.cones) if c.dim == 0)
    strata = [Stratum("g", 0, fan), Stratum("h", 0, fan)]
    arrow = Arrow("g", "h", zero, lattice_map(identity_matrix(1), 1, 1))
    assert Fanifold(1, strata, [arrow]).validate() == (True, False, (
        "arrow 0 (g->h): zero cone",
        "stratum 'g': cones [0] have no arrow",
        "stratum 'g': arrows on non-cone indices [1]",
        "stratum 'h': cones [0] have no arrow",
    ))


def test_validate_names_a_valid_fan_without_its_zero_cone():
    """A stratum fan that validates but lacks the zero cone is reported as
    that alone, and the report stops before the arrows."""
    strata = [
        Stratum("v", 0, Fan([Cone([(1,)], 1)], 1)),
        Stratum("e", 1, Fan([zero_cone(0)], 0)),
    ]
    arrows = [Arrow("v", "e", 0, lattice_map((), 0, 0))]
    assert Fanifold(1, strata, arrows).validate().errors == (
        "stratum 'v' fan: missing the zero cone",
    )


def test_validate_names_a_duplicate_stratum_id_and_stops():
    """A diagram with two strata of one name is reported as that alone,
    before the arrows: neither a poset nor coherent."""
    phi = from_fan(a1_fan())
    report = Fanifold(phi.dimension, phi.strata + phi.strata[:1], phi.arrows).validate()
    assert report == (False, False, ("duplicate stratum id 's0'",))


def test_validate_reports_the_dimension_difference_an_arrow_needs():
    """An arrow of the octant's exit diagram retargeted two strata up names
    its cone's dimension and the difference of its strata's dimensions."""
    phi = from_fan(orthant_fan(3))
    a = phi.arrows[8]
    assert (a.source, a.target) == ("s2", "s5")
    arrows = phi.arrows[:8] + (a._replace(target="s0"),) + phi.arrows[9:]
    assert Fanifold(phi.dimension, phi.strata, arrows).validate().errors == (
        "arrow 8 (s2->s0): cone dim 1 != dim difference 2",
    )


def test_coherence_checks_where_the_composite_sends_the_cone():
    """from_fan of the fan of P1 x P1, with the two arrows out of one edge
    stratum sent to each other's corner.  Every fan, arrow and iso still
    validates, and every corner arrow has a rank-0 target, so all their maps
    agree; only the image condition sees that the face arrow holding the
    quadrant whose image is b's cone goes to the other corner."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    quadrants = [[0, 1], [1, 2], [2, 3], [3, 0]]
    cones = quadrants + [[0], [1], [2], [3], []]
    fan = Fan([Cone([rays[i] for i in c], 2) for c in cones], 2)
    phi = from_fan(fan)
    edge = phi.arrows[0].source
    k, m = [k for k, a in enumerate(phi.arrows) if a.source == edge]
    arrows = list(phi.arrows)
    arrows[k] = phi.arrows[k]._replace(target=phi.arrows[m].target)
    arrows[m] = phi.arrows[m]._replace(target=phi.arrows[k].target)
    report = Fanifold(phi.dimension, phi.strata, arrows).validate()
    (a,) = [a for a in phi.arrows if a.target == edge]
    assert report.is_poset and not report.coherent
    assert report.errors == tuple(
        f"no coherent composite for {a.source}->{edge}->{b.target}"
        f" (cones {a.cone_index}, {b.cone_index})"
        for b in (arrows[k], arrows[m])
    )


def test_arrow_check_ignores_the_order_of_the_target_cones():
    # cone keys hold frozensets, which have no total order; in these diagrams
    # the quotient's images and the target fan list the rays in other orders
    assert unrolled_closure(EXAMPLES["affine3"](), "s0").validate().valid
    assert product(EXAMPLES["unigon"](), EXAMPLES["interval"]()).validate().valid


# -- arrow quotients and isos from the constructors -----------------------------


def _example_fans():
    """The examples' fans (interval's, then quadric_stacky's, affine1-3's
    and proj1-3's) and the random fans, built afresh."""
    return [
        orthant_fan(2),
        stacky_quadric_fan(),
        *(orthant_fan(n) for n in (1, 2, 3)),
        *(projective_fan(n) for n in (1, 2, 3)),
    ] + _random_basis_fans()


def _from_fan_diagrams():
    """from_fan and sphere_section on ``_example_fans``."""
    return [
        (fan, build(fan)) for fan in _example_fans() for build in (from_fan, sphere_section)
    ]


def _product_diagrams():
    interval = EXAMPLES["interval"]()
    factors = [build() for _, build in sorted(EXAMPLES.items())] + [
        from_fan(fan) for fan in _random_basis_fans()
    ]
    return [(phi, interval, product(phi, interval)) for phi in factors]


def _boundary_diagrams():
    """Ideal boundaries of R x from_fan, each glued from a sphere section and
    the zero stratum of a from_fan diagram."""
    return [
        suspension_boundary(fan)
        for fan, phi in _from_fan_diagrams()
        if phi.source_fan is not None
    ]


def _constructed_diagrams():
    out = [phi for _, phi in _from_fan_diagrams()]
    out += [p for _, _, p in _product_diagrams()]
    out += _boundary_diagrams()
    for _, build in sorted(EXAMPLES.items()):
        phi = build()
        out += [unrolled_closure(phi, s.name) for s in phi.strata]
    return out


def _count_star_quotients(monkeypatch):
    """Record each (fan, cone index) whose star quotient is built, not read
    from the fan's cache; holding the fans keeps their ids apart.  An entry
    on a stacky fan is a push of multiples; the entry on its plain fan, if
    that fan had no such quotient yet, follows it and builds the images."""
    built = []
    build = fans._star_quotient

    def counted(fan, cone_index):
        built.append((fan, cone_index))
        return build(fan, cone_index)

    monkeypatch.setattr(fans, "_star_quotient", counted)
    return built


def _no_star_quotient_twice(built):
    keys = [(id(fan), i) for fan, i in built]
    return len(set(keys)) == len(keys)


def _pushes_and_images(built):
    """``built`` split into the pushes (stacky fans) and the star images
    (plain fans), each as (fan id, cone index) in order."""
    pushes = [(id(f), i) for f, i in built if isinstance(f, StackyFan)]
    return pushes, [(id(f), i) for f, i in built if not isinstance(f, StackyFan)]


def test_constructing_and_validating_builds_each_star_quotient_once(monkeypatch):
    """Construction builds each star quotient once, and only as a stratum
    fan of ``from_fan`` or ``sphere_section`` (the random factors of the
    products are ``from_fan`` diagrams too): each star's images once on the
    plain fan, and a stacky fan's pushes once on top of them.  Validation
    builds none: its arrow tables map the star cones through
    ``arrow_map``."""
    built = _count_star_quotients(monkeypatch)
    diagrams = _constructed_diagrams()
    constructed = len(built)
    reports = [phi.validate() for phi in diagrams]
    # 30 from_fan and sphere_section, 22 products, 15 boundaries and 76
    # unrolled closures
    assert len(diagrams) == 143
    pushes, images = _pushes_and_images(built)
    assert (len(images), len(pushes)) == (349, 109)
    assert len(built) == constructed
    assert _no_star_quotient_twice(built)
    assert all(r.valid for r in reports)


def test_only_stratum_fans_build_star_quotients(monkeypatch):
    """An arrow's iso is read off the span quotient of its cone, so
    ``product`` and ``unrolled_closure`` build no star quotient; ``from_fan``
    of a fresh fan builds one per cone, its stratum fans (the images on its
    plain fan, and on a stacky fan a push of each), and ``sphere_section``
    after it builds none."""
    built = _count_star_quotients(monkeypatch)
    pairs = [(phi, other) for phi, other, _ in _product_diagrams()]
    examples = [build() for _, build in sorted(EXAMPLES.items())]
    built.clear()
    products = [product(phi, other) for phi, other in pairs]
    closures = [unrolled_closure(phi, s.name) for phi in examples for s in phi.strata]
    assert (len(products), len(closures)) == (22, 76)
    assert built == []
    fresh = _example_fans()
    assert len(fresh) == 15
    for fan in fresh:
        from_fan(fan)
        cones = range(len(fan.cones))
        pushes, images = _pushes_and_images(built)
        assert images == [(id(fans._plain_fan(fan)), i) for i in cones]
        assert pushes == ([(id(fan), i) for i in cones] if isinstance(fan, StackyFan) else [])
        built.clear()
        sphere_section(fan)
        assert built == []


def test_a_product_of_a_factor_whose_star_is_no_fan_reports_it():
    """Construction takes no star quotient fan, so a factor whose fan is no
    fan (a cone inside another, not as a face), which its star quotient
    refuses, gives a product diagram, and its validation names the bad
    fan."""
    bad = Fan(
        [zero_cone(2), Cone([(1, 0)], 2), Cone([(1, 0), (0, 1)], 2), Cone([(1, 0), (1, 1)], 2)],
        2,
    )
    line = Fan([zero_cone(1), Cone([(1,)], 1)], 1)
    phi = Fanifold(
        2,
        [Stratum("g", 0, bad), Stratum("f", 1, line)],
        [Arrow("g", "f", 1, lattice_map(((1,),), 1, 1))],
    )
    refusal = "^invalid fan: cones 2 and 3 do not intersect in a common face$"
    with pytest.raises(ValueError, match=refusal):
        quotient_fan(bad, 1)
    assert phi.validate().errors == (
        "stratum 'g' fan: cones 2 and 3 do not intersect in a common face",
    )
    p = product(phi, manifold(1))
    assert [(a.source, a.target, a.cone_index) for a in p.arrows] == [
        ("(g,cell)", "(f,cell)", 1)
    ]
    assert p.validate().errors == (
        "stratum '(g,cell)' fan: cones 2 and 3 do not intersect in a common face",
    )


def test_a_stacky_product_with_a_cone_that_is_not_simplicial_names_its_stratum_pair():
    """A stacky factor makes each product fan stacky, and a stacky fan's
    cones are simplicial.  The cone on a square is not: its ``from_fan``
    stratum s1 holds the fan on it, so either product with the stacky
    quadric refuses the first stratum pair whose product fan holds it,
    naming the pair."""
    square = Cone([(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)], 3)
    cone_on_square = from_fan(fans.face_closure(Fan([square], 3)))
    assert not cone_on_square.stratum("s1").fan.cones[0].is_simplicial
    quadric = EXAMPLES["quadric_stacky"]()
    for pair, args in (("s0,s1", (quadric, cone_on_square)), ("s1,s0", (cone_on_square, quadric))):
        line = f"stratum '({pair})': fan cone 0 is not simplicial: a stacky fan's cones are"
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
            product(*args)


def test_validating_an_ideal_boundary_builds_no_quotient(monkeypatch):
    """The endpoints' arrows read the quotients the sphere section's strata
    were built from."""
    built = _count_star_quotients(monkeypatch)
    boundary = suspension_boundary(orthant_fan(3))
    constructed = len(built)
    assert len(boundary.arrows) == 26
    assert boundary.validate().valid
    assert len(built) == constructed
    assert _no_star_quotient_twice(built)


def test_arrow_quotients_equal_fresh_ones():
    """Each arrow's star quotient is the one its source fan keeps, and equals
    one built afresh; ``quotient_fan`` reads each cone's cached lattice
    quotient, so the projection, section and torsion are also checked
    against a fresh ``quotient_with_torsion``."""
    for phi in _constructed_diagrams():
        for a in phi.arrows:
            fan = phi.stratum(a.source).fan
            fq = quotient_fan(fan, a.cone_index)
            assert phi.arrow_map(a) == a.iso.compose(fq.projection)
            fresh = fans._star_quotient(fan, a.cone_index)
            lattice = quotient_with_torsion(fan.rank, fan.cones[a.cone_index].gens)
            assert fq.projection == fresh.projection == lattice.projection
            assert fq.section == fresh.section == lattice.section
            assert fq.star == fresh.star
            assert fq.torsion == fresh.torsion == lattice.torsion
            assert [c.key for c in fq.fan.cones] == [c.key for c in fresh.fan.cones]


def test_sphere_section_shares_the_charts_quotient_fans(monkeypatch):
    """After ``from_fan(f)``, ``sphere_section(f)`` builds no star quotient:
    its strata hold the chart's quotient fans, with their cached tables."""
    built = _count_star_quotients(monkeypatch)
    for fan in _random_basis_fans():
        chart = from_fan(fan)
        before = len(built)
        section = sphere_section(fan)
        assert section.validate().valid
        assert len(built) == before
        assert section.strata
        # the same fan objects, so the same cached arrow quotients
        for s in section.strata:
            assert s.fan is chart.stratum(s.name).fan


def test_stacky_charts_and_sphere_section_push_each_cone_once(monkeypatch):
    """``from_fan`` then ``sphere_section`` of a stacky fan push each cone's
    multiples once, onto the star images its plain fan builds once: the
    stacky fan keeps its quotients, so the two diagrams hold the same
    stratum fan objects."""
    built = _count_star_quotients(monkeypatch)
    stacky = [f for f in _random_basis_fans() if isinstance(f, StackyFan)]
    assert stacky
    for fan in stacky:
        built.clear()
        chart, section = from_fan(fan), sphere_section(fan)
        cones = list(range(len(fan.cones)))
        pushes, images = _pushes_and_images(built)
        assert pushes == [(id(fan), i) for i in cones]
        assert images == [(id(fan.fan), i) for i in cones]
        assert section.strata
        for s in section.strata:
            assert isinstance(s.fan, StackyFan)
            assert s.fan is chart.stratum(s.name).fan


# -- equal stratum fans are one Fan ---------------------------------------------


def _content(fan):
    """What makes two fans interchangeable, spelled out without ``fan_key``."""
    return (
        isinstance(fan, StackyFan),
        fan.rank,
        [c.gens for c in fan.cones],
        fan.multiples if isinstance(fan, StackyFan) else None,
    )


def test_from_fan_holds_the_source_fan_at_its_zero_cone():
    for fan in _example_fans():
        zero = next(i for i, c in enumerate(fan.cones) if c.dim == 0)
        assert from_fan(fan).stratum(f"s{zero}").fan is fan


def test_stratum_fans_are_one_object_exactly_when_their_content_agrees():
    diagrams = [phi for _, phi in _from_fan_diagrams()]
    diagrams += [p for _, _, p in _product_diagrams()]
    diagrams += [
        product(EXAMPLES[name](), EXAMPLES[name]()) for name in ("square", "proj2", "necklace3")
    ]
    shared = 0
    for phi in diagrams:
        for s, t in itertools.combinations(phi.strata, 2):
            same = _content(s.fan) == _content(t.fan)
            assert (s.fan is t.fan) == same, (phi, s.name, t.name)
            assert (fan_key(s.fan) == fan_key(t.fan)) == same
            shared += same
    assert shared > 1000


def _uncarried_fans(phi):
    """Ids of the plain fans of the strata no arrow carries: those no arrow
    enters.  On a valid diagram every other stratum fan is an arrow's star
    quotient image, valid by the star lemma."""
    targets = {a.target for a in phi.arrows}
    return {id(s.plain_fan) for s in phi.strata if s.name not in targets}


def test_validation_checks_each_distinct_fan_once(monkeypatch):
    """Construction and validation run ``Fan._problems`` at most once per
    distinct stratum fan (its plain fan), and only on fans no checked arrow
    carries: the fan a diagram was built from and the fans of strata no
    arrow enters.  Construction carries its fans, so validation is measured
    on the diagram rebuilt through ``Fanifold(...)`` with fresh copies of
    every stratum fan but the source fan, which construction checked.  A
    ``from_fan`` diagram checks its source fan alone: its zero stratum
    holds it, and an arrow from there carries every other fan."""
    calls = []
    problems = Fan.__dict__["_problems"]
    check = problems.func

    def counted(fan):
        calls.append(fan)
        return check(fan)

    monkeypatch.setattr(problems, "func", counted)
    checked = strata = 0
    for build in (from_fan, sphere_section):
        for fan in _example_fans():
            calls.clear()
            phi = rebuilt(build(fan), keep=[fan])
            plain = fans._plain_fan(fan)
            assert phi.validate().valid
            ids = [id(f) for f in calls]
            assert len(set(ids)) == len(ids)
            assert set(ids) <= _uncarried_fans(phi) | {id(plain)}
            assert id(plain) in ids
            if build is from_fan:
                assert calls == [plain]
            checked += len(calls)
            strata += len(phi.strata)
    # the 15 source fans and 29 fans of sphere-section rays; checking each
    # distinct fan of each diagram would take 126
    assert (checked, strata) == (59, 175)
    for name in ("square", "proj2", "necklace3"):
        phi1, phi2 = EXAMPLES[name](), EXAMPLES[name]()
        for s in phi1.strata + phi2.strata:
            s.plain_fan.validate()
        calls.clear()
        phi = product(phi1, phi2)
        assert phi.validate().valid
        ids = [id(f) for f in calls]
        assert len(set(ids)) == len(ids)
        assert set(ids) <= _uncarried_fans(phi)
        assert len(ids) == 1 < len({id(s.plain_fan) for s in phi.strata})


def test_the_full_check_carries_fans_the_proof_did_not_reach(monkeypatch):
    """A diagram that fails a cheap arrow check gets the full check before
    the proof walks any stratum, and the full check carries fans itself:
    ``from_fan`` of each example fan of rank 2 or more, rebuilt but for
    its source fan (which ``from_fan`` checked) and with its first arrow on
    a 2-cone dropped, checks no fan, since every other fan is still the
    target of an arrow that passes from a valid fan."""
    calls = []
    problems = Fan.__dict__["_problems"]
    check = problems.func

    def counted(fan):
        calls.append(fan)
        return check(fan)

    monkeypatch.setattr(problems, "func", counted)
    for fan in _example_fans():
        if fan.rank < 2:
            continue
        phi = rebuilt(from_fan(fan), keep=[fan])
        k, a = next((k, a) for k, a in enumerate(phi.arrows) if phi.arrow_cone(a).dim == 2)
        calls.clear()
        report = Fanifold(phi.dimension, phi.strata, phi.arrows[:k] + phi.arrows[k + 1:]).validate()
        assert report.errors == (f"stratum {a.source!r}: cones [{a.cone_index}] have no arrow",)
        assert calls == [], fan


@pytest.mark.parametrize(
    "name, strata, built, loaded",
    [("square", 81, 5, 7), ("proj2", 49, 13, 13), ("necklace3", 36, 3, 3)],
)
def test_product_shares_equal_product_fans(name, strata, built, loaded):
    """The square of an example holds one ``Fan`` per distinct product
    fan.  The built square is itself interval x interval, so its face fan
    is the product of its edge fans and its square has fewer distinct fans
    than the loaded one's, whose face fan lists its rays in another order."""
    for phi, distinct in (
        (EXAMPLES[name](), built),
        (load_fanifold(resolve_input(f"{name}.json")), loaded),
    ):
        sq = product(phi, phi)
        assert len(sq.strata) == strata
        assert len({id(s.fan) for s in sq.strata}) == distinct
        assert len({fan_key(s.fan) for s in sq.strata}) == distinct
        assert sq.validate().valid


def test_product_builds_each_pair_of_factor_fans_once(monkeypatch):
    """``product`` builds one product fan per pair of factor ``Fan``
    objects, not one per stratum pair: on square^2 x square, 15 of 729 for
    the built square (5 x 3 fans) and 21 for the loaded one (7 x 3)."""
    calls = []
    build = fanifold_module._product_fan
    monkeypatch.setattr(
        fanifold_module, "_product_fan", lambda f1, f2: calls.append((f1, f2)) or build(f1, f2)
    )
    loaded = load_fanifold(resolve_input("square.json"))
    for sq, builds in ((EXAMPLES["square"](), 15), (loaded, 21)):
        phi1 = product(sq, sq)
        calls.clear()
        phi = product(phi1, sq)
        pairs = {(id(s1.fan), id(s2.fan)) for s1 in phi1.strata for s2 in sq.strata}
        assert len(phi.strata) == 729
        assert len(calls) == len(pairs) == len({(id(f1), id(f2)) for f1, f2 in calls}) == builds


def _fan_refs(phi):
    """Weak references to every fan a diagram reaches: its strata's, its
    source fan, the plain fans of stacky ones, and the star quotients kept
    on them, recursively."""
    todo = [s.fan for s in phi.strata] + [phi.source_fan] * (phi.source_fan is not None)
    seen = {}
    while todo:
        fan = todo.pop()
        if id(fan) not in seen:
            seen[id(fan)] = weakref.ref(fan)
            todo += [fq.fan for fq in fan._quotients.values()]
            if isinstance(fan, StackyFan):
                todo.append(fan.fan)
    return list(seen.values())


def test_no_fan_outlives_its_diagram():
    """With the collector off, every fan of ``from_fan(f)``,
    ``sphere_section(f)`` and ``product(phi, psi)`` dies with the diagram
    and its inputs: no fan holds itself and no table outlives a call."""

    gc.collect()
    gc.disable()
    try:
        refs = []
        for fan in _example_fans():
            refs.append(weakref.ref(fan))
            for build in (from_fan, sphere_section):
                phi = build(fan)
                assert phi.validate().valid
                refs += _fan_refs(phi)
        for phi in (
            product(EXAMPLES["square"](), EXAMPLES["proj2"]()),
            product(from_fan(stacky_quadric_fan()), EXAMPLES["necklace3"]()),
        ):
            assert phi.validate().valid
            refs += _fan_refs(phi)
        del fan, phi
        assert len(refs) > 100
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_arrow_isos_satisfy_their_defining_identity():
    # from_fan / sphere_section: the arrow s<i> -> s<j> carries p_i to p_j
    checked = 0
    for fan, phi in _from_fan_diagrams():
        for a in phi.arrows:
            p_i = quotient_fan(fan, int(a.source[1:])).projection
            p_j = quotient_fan(fan, int(a.target[1:])).projection
            assert mat_mul(phi.arrow_map(a).matrix, p_i.matrix) == p_j.matrix
            checked += 1
    # product: the arrow map is block-diagonal in the factors' arrow maps,
    # with an identity on a factor that stands still
    for phi1, phi2, phi in _product_diagrams():
        by_key = {(a.source, a.cone_index): a for a in phi.arrows}
        seen = 0
        for a1, g1 in _moves(phi1):
            for a2, g2 in _moves(phi2):
                if a1 is None and a2 is None:
                    continue
                m1, c1 = _move_map(phi1, a1, g1)
                m2, c2 = _move_map(phi2, a2, g2)
                block = tuple(r + (0,) * c2 for r in m1) + tuple(
                    (0,) * c1 + r for r in m2
                )
                len2 = len(phi2.stratum(g2).plain_fan.cones)
                index = _move_index(phi1, a1, g1) * len2 + _move_index(phi2, a2, g2)
                a = by_key[(f"({g1},{g2})", index)]
                assert phi.arrow_map(a).matrix == block
                seen += 1
        assert seen == len(phi.arrows)
        checked += seen
    assert checked > 500


def _moves(phi):
    """Each arrow with its source, then each stratum standing still."""
    return [(a, a.source) for a in phi.arrows] + [(None, s.name) for s in phi.strata]


def _move_map(phi, a, name):
    rank = phi.stratum(name).lattice_rank
    return (phi.arrow_map(a).matrix if a else identity_matrix(rank)), rank


def _move_index(phi, a, name):
    if a is not None:
        return a.cone_index
    return next(i for i, c in enumerate(phi.stratum(name).plain_fan.cones) if c.dim == 0)


def _image_walk(phi, a):
    """The star map as a walk: every source cone containing the arrow's
    cone, mapped by ``arrow_map`` and looked up in the target fan."""
    sigma = phi.arrow_cone(a)
    amap = phi.arrow_map(a)
    tgt = phi.stratum(a.target).plain_fan
    return [
        (k, tgt.cone_index(tau.image(amap)))
        for k, tau in enumerate(phi.stratum(a.source).plain_fan.cones)
        if contains_cone(tau, sigma)
    ]


def test_star_maps_match_the_image_walk():
    """Each arrow's star map against the walk it replaces.  Every example,
    and the from_fan, sphere_section, product, boundary and unrolled
    diagrams built from the examples and from random fans in random lattice
    bases."""
    diagrams = [build() for _, build in sorted(EXAMPLES.items())] + _constructed_diagrams()
    checked = 0
    for phi in diagrams:
        for a in phi.arrows:
            want = _image_walk(phi, a)
            assert list(phi._star_map(a).items()) == want, (phi, a)
            assert phi._star_map(a) is phi._star_map(a)
            checked += len(want)
    assert checked > 4000


def _images_from_star_maps(monkeypatch):
    """Record each ``Cone.image`` made while a star map is built."""
    images, depth = [], []
    image, star_map = Cone.image, Fanifold._star_map

    def counted_image(self, lmap):
        if depth:
            images.append(self)
        return image(self, lmap)

    def counted_star_map(self, a):
        depth.append(a)
        try:
            return star_map(self, a)
        finally:
            depth.pop()

    monkeypatch.setattr(Cone, "image", counted_image)
    monkeypatch.setattr(Fanifold, "_star_map", counted_star_map)
    return images


def test_a_star_map_builds_the_image_of_a_cone_it_cannot_key_by_rays(monkeypatch):
    """Over a cone on a square, the star of one of its rays holds the square,
    whose opposite ray goes inside the image of the square: the four images
    are not the extremal rays of any cone, so the star map builds the image
    cone and keys it, and agrees with the walk."""
    square = Cone([(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)], 3)
    # from_fan carries its star maps: rebuilt, validation builds them
    phi = rebuilt(from_fan(fans.face_closure(Fan([square], 3))))
    images = _images_from_star_maps(monkeypatch)
    assert phi.validate().valid
    # the star map of each ray builds the image of the square, and nothing
    # else; a 2-face's star map keys the square by the rays it maps to
    assert images == [square] * 4, images
    for a in phi.arrows:
        assert list(phi._star_map(a).items()) == _image_walk(phi, a), a


def test_star_maps_match_the_image_walk_off_valid_diagrams_and_on_random_fans():
    """With every iso doubled (not unimodular, so validation fails where the
    target is not a point) a star map still equals the walk: a ray set names
    the image cone for any linear map.  Also on from_fan of 200 seeded fans
    drawn as the random-fans workload draws them."""
    checked = 0
    for label, phi in built_and_loaded():
        doubled = []
        for a in phi.arrows:
            m = tuple(tuple(2 * x for x in r) for r in a.iso.matrix)
            doubled.append(a._replace(iso=a.iso._replace(matrix=m)))
        bad = Fanifold(phi.dimension, phi.strata, doubled)
        for a in bad.arrows:
            want = _image_walk(bad, a)
            assert list(bad._star_map(a).items()) == want, (label, a)
            checked += len(want)
    rng = random.Random(3401)
    for _ in range(200):
        phi = from_fan(drawn_fan(rng)[0])
        for a in phi.arrows:
            want = _image_walk(phi, a)
            assert list(phi._star_map(a).items()) == want, (phi, a)
            checked += len(want)
    assert checked > 6000, checked


def test_a_star_cone_of_another_rank_raises_as_its_image_does():
    """A fan holding a cone of another rank is no fan, and a star map on it
    raises with the fan's problem before mapping any gen, even where the
    map's images (all zero, into a rank-0 target) would name a cone; no
    map is kept."""
    fan = Fan([zero_cone(1), Cone([(1,)], 1), Cone([(1, 0)], 2)], 1)
    point = Fan([zero_cone(0)], 0)
    phi = Fanifold(
        1,
        [Stratum("a", 0, fan), Stratum("b", 1, point)],
        [Arrow("a", "b", 1, lattice_map((), 0, 0))],
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="^invalid fan: cone 2: ambient rank 2 != 1$"):
            phi._star_map(phi.arrows[0])
    assert phi._star_maps == {}


def test_loading_and_validating_the_examples_builds_no_image_cone(monkeypatch):
    """Every star cone of a valid example is simplicial or keyed by its ray
    images, so no star map builds an image cone, built or loaded."""
    images = _images_from_star_maps(monkeypatch)
    checked = 0
    for label, phi in built_and_loaded():
        assert phi.validate().valid, label
        checked += len(phi._star_maps)
    assert images == [] and checked > 100, (images, checked)


def test_coords_in_span_round_trip_on_saturated_sublattices():
    """On kernel bases of random integer matrices: the coordinates of a
    combination of the rows are its coefficients, and a vector off the span
    raises, whether the leading entry leaves a remainder or the residue
    stays nonzero."""
    rng = random.Random(20261019)
    spans = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 3), rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(rows))
        basis = integer_kernel(a, rows, cols)
        coeffs = tuple(rng.randint(-6, 6) for _ in basis)
        v = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols))
        assert _coords_in_span(basis, v) == coeffs
        spans += bool(basis)
        off = tuple(rng.randint(-6, 6) for _ in range(cols))
        if any(sum(x * y for x, y in zip(row, off)) for row in a):
            with pytest.raises(ValueError, match="not in saturated span"):
                _coords_in_span(basis, off)
    assert spans > 200
    basis = integer_kernel(((1, -2),), 1, 2)
    assert basis == ((2, 1),)
    assert _coords_in_span(basis, (4, 2)) == (2,)
    for off in ((1, 1), (2, 0)):  # a remainder, then a nonzero residue
        with pytest.raises(ValueError, match="not in saturated span"):
            _coords_in_span(basis, off)


# -- the composite search ------------------------------------------------------


def _reference_unrolled_closure(phi, f_name):
    """The strata and arrows of ``unrolled_closure`` by a plain search that
    finds no composite: object a maps to object b along each arrow c out of
    a's source whose cone is a nonzero face of a's cone, with b . c = a as
    maps and the star map of c sending a's cone to b's."""
    objects = [(f"{a.source}.via{k}", a) for k, a in enumerate(phi.in_arrows(f_name))]
    strata = [(f"{f_name}.top", phi.stratum(f_name).dim, (zero_cone(0),))]
    basis, face_fan = {}, {}
    for name, a in objects:
        sigma = phi.arrow_cone(a)
        span = basis[name] = _span_basis(sigma)
        face_fan[name] = Fan(
            [Cone([_coords_in_span(span, g) for g in f], len(span)) for f in sigma.faces()],
            len(span),
        )
        strata.append((name, phi.stratum(a.source).dim, face_fan[name].cones))
    arrows = []
    for name_a, a in objects:
        ffan = face_fan[name_a]
        top = next(i for i, c in enumerate(ffan.cones) if c.dim == ffan.rank)
        arrows.append((name_a, f"{f_name}.top", top, ()))
        inside_a = phi.stratum(a.source).plain_fan._inside[a.cone_index] | {a.cone_index}
        for name_b, b in objects:
            if name_b == name_a:
                continue
            cone_b = phi.stratum(b.source).plain_fan.cone_index(phi.arrow_cone(b))
            for c in phi.out_arrows(a.source):
                sigma_c, map_c = phi.arrow_cone(c), phi.arrow_map(c)
                if (
                    c.target != b.source
                    or c.cone_index not in inside_a
                    or sigma_c.dim == 0
                    or mat_mul(phi.arrow_map(b).matrix, map_c.matrix)
                    != phi.arrow_map(a).matrix
                    or phi._star_map(c).get(a.cone_index) != cone_b
                ):
                    continue
                span_a, span_b = basis[name_a], basis[name_b]
                ci = ffan.cone_index(
                    Cone([_coords_in_span(span_a, g) for g in sigma_c.gens], len(span_a))
                )
                rows = [_coords_in_span(span_b, map_c(v)) for v in span_a]
                span_map = tuple(tuple(r[i] for r in rows) for i in range(len(span_b)))
                iso = _iso_through_section(span_map, ffan.cones[ci].quotient, len(span_b))
                arrows.append((name_a, name_b, ci, iso.matrix))
    return strata, arrows


def test_unrolled_closure_matches_the_plain_factorization_search():
    """Every stratum of every example and of every constructed diagram:
    the same strata and fans, arrows, cone indices and iso matrices."""
    diagrams = [build() for _, build in sorted(EXAMPLES.items())] + _constructed_diagrams()
    factored = 0
    for phi in diagrams:
        for s in phi.strata:
            uc = unrolled_closure(phi, s.name)
            strata, arrows = _reference_unrolled_closure(phi, s.name)
            assert [(t.name, t.dim, t.plain_fan.cones) for t in uc.strata] == strata
            assert [
                (a.source, a.target, a.cone_index, a.iso.matrix) for a in uc.arrows
            ] == arrows, (phi, s.name)
            factored += sum(1 for a in arrows if not a[1].endswith(".top"))
    assert factored > 2500


def test_composite_carries_the_composed_map():
    """On every example and constructed diagram, each composable pair's
    composite, found by the search, is the arrow on the cone that a's star
    map sends onto b's cone; it goes from a's source to b's target, and
    its map is b's after a's."""
    diagrams = [build() for _, build in sorted(EXAMPLES.items())] + _constructed_diagrams()
    pairs = 0
    for phi in diagrams:
        for a in phi.arrows:
            onto = {j: i for i, j in phi._star_map(a).items()}
            for b in phi.out_arrows(a.target):
                c = composite_by_search(phi, a, b)
                assert c is phi._arrow_on[a.source, onto[b.cone_index]]
                assert (c.source, c.target) == (a.source, b.target)
                assert phi._star_map(a)[c.cone_index] == b.cone_index
                assert phi.arrow_map(c).matrix == mat_mul(
                    phi.arrow_map(b).matrix, phi.arrow_map(a).matrix
                )
                pairs += 1
    assert pairs > 2500


def test_a_negated_iso_has_no_coherent_composite():
    """proj3 with the iso of an arrow from the zero-cone stratum to a
    2-cone stratum negated.  The quotient still matches the rank-1 target
    fan, so only the composites see it: the two factorizations through ray
    strata by their maps, the two composites onward by their star maps."""
    phi = EXAMPLES["proj3"]()
    k, a = next(
        (k, a) for k, a in enumerate(phi.arrows)
        if len(a.iso.matrix) == 1 and phi.stratum(a.source).dim == 0
    )
    negated = a._replace(iso=lattice_map([[-x for x in r] for r in a.iso.matrix], 1, 1))
    arrows = phi.arrows[:k] + (negated,) + phi.arrows[k + 1:]
    report = Fanifold(phi.dimension, phi.strata, arrows).validate()
    through = [
        (x, y)
        for x in phi.out_arrows(a.source)
        for y in phi.out_arrows(x.target)
        if y.target == a.target
    ]
    onward = [(a, y) for y in phi.out_arrows(a.target)]
    assert len(through) == len(onward) == 2
    assert report.is_poset and not report.coherent
    assert sorted(report.errors) == sorted(
        f"no coherent composite for {x.source}->{x.target}->{y.target}"
        f" (cones {x.cone_index}, {y.cone_index})"
        for x, y in through + onward
    )


# -- composites by lookup against the search -----------------------------------


def _report_by_search(phi):
    """``phi``'s validation report with its coherence loop run by the
    reference search (``composite_by_search``), over the same pairs in the
    same order; the checks before that loop are validation's own."""
    report = phi.validate()
    errors = [e for e in report.errors if not e.startswith("no coherent composite")]
    if errors:
        return report._replace(coherent=False, errors=tuple(errors))
    for a in phi.arrows:
        for b in phi.out_arrows(a.target):
            if composite_by_search(phi, a, b) is None:
                errors.append(
                    f"no coherent composite for {a.source}->{a.target}"
                    f"->{b.target} (cones {a.cone_index}, {b.cone_index})"
                )
    return report._replace(coherent=not errors, errors=tuple(errors))


def _closure_by_search(phi, f_name):
    """``unrolled_closure`` with the reference search picking its
    factorizations: object a maps to object b along each arrow c into b's
    source whose composite with b is a (``composite_by_search``)."""
    require_valid(phi)
    f = phi.stratum(f_name)
    objects = [(f"{f_name}.top", None)]
    for k, a in enumerate(phi.in_arrows(f_name)):
        objects.append((f"{a.source}.via{k}", a))
    strata, span_basis, face_fans = [], {}, {}
    for name, a in objects:
        if a is None:
            strata.append(Stratum(name=name, dim=f.dim, fan=Fan([zero_cone(0)], 0)))
            continue
        sigma = phi.arrow_cone(a)
        basis = span_basis[name] = _span_basis(sigma)
        face_fans[name] = Fan(
            [Cone([_coords_in_span(basis, g) for g in face], len(basis)) for face in sigma.faces()],
            len(basis),
        )
        strata.append(Stratum(name=name, dim=phi.stratum(a.source).dim, fan=face_fans[name]))
    arrows = []
    for name_a, a in objects:
        if a is None:
            continue
        ffan = face_fans[name_a]
        top = next(i for i, c in enumerate(ffan.cones) if c.dim == ffan.rank)
        arrows.append(Arrow(name_a, f"{f_name}.top", top, lattice_map((), 0, 0)))
        for name_b, b in objects:
            if b is None or name_b == name_a:
                continue
            for c in phi.out_arrows(a.source):
                if c.target != b.source or composite_by_search(phi, c, b) is not a:
                    continue
                map_c = phi.arrow_map(c)
                basis_a, basis_b = span_basis[name_a], span_basis[name_b]
                ci = ffan.cone_index(
                    Cone([_coords_in_span(basis_a, g) for g in phi.arrow_cone(c).gens], len(basis_a))
                )
                rows = [_coords_in_span(basis_b, map_c(v)) for v in basis_a]
                span_map = tuple(tuple(r[i] for r in rows) for i in range(len(basis_b)))
                iso = _iso_through_section(span_map, ffan.cones[ci].quotient, len(basis_b))
                arrows.append(Arrow(name_a, name_b, ci, iso))
    return Fanifold(dimension=f.dim, strata=strata, arrows=arrows)


def _coherence_law_inputs():
    """Labelled diagrams: every example built and loaded, the constructed
    diagrams (small products among them), from_fan and sphere_section of
    fans drawn as the random-fans workload draws them, the mutants of both
    fuzz runs that load, and every built example with one arrow's iso
    negated, or with two arrows out of one stratum into strata of one
    dimension swapping targets (fuzzing alone seldom reaches the
    coherence loop)."""
    yield from built_and_loaded()
    for k, phi in enumerate(_constructed_diagrams()):
        yield f"constructed {k}", phi
    rng = random.Random(4207)
    for k in range(20):
        fan, _ = drawn_fan(rng)
        yield f"from_fan of drawn fan {k}", from_fan(fan)
        yield f"sphere_section of drawn fan {k}", sphere_section(fan)
    docs = test_fuzz._documents()
    names = sorted(docs)
    for seed, count in (
        (test_fuzz.SEED, test_fuzz.MUTANTS), (test_fuzz.MORE_SEED, test_fuzz.MORE_MUTANTS)
    ):
        rng = random.Random(seed)  # the fuzz runs' own mutants, in order
        for k in range(count):
            doc, kind = test_fuzz._mutate(docs[names[k % len(names)]], rng)
            try:
                phi = fanifold_from_dict(doc)
            except ValueError:
                continue
            yield f"fuzz seed {seed} mutant {k} ({kind})", phi
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        arrows = phi.arrows
        for k, a in enumerate(arrows):
            if a.iso.matrix:
                m = [[-x for x in r] for r in a.iso.matrix]
                negated = a._replace(iso=lattice_map(m, a.iso.source_rank, a.iso.target_rank))
                yield f"{name}: arrow {k} negated", Fanifold(
                    phi.dimension, phi.strata, arrows[:k] + (negated,) + arrows[k + 1:]
                )
        for k, m in itertools.combinations(range(len(arrows)), 2):
            a, b = arrows[k], arrows[m]
            if a.source == b.source and a.target != b.target and (
                phi.stratum(a.target).dim == phi.stratum(b.target).dim
            ):
                swapped = list(arrows)
                swapped[k], swapped[m] = a._replace(target=b.target), b._replace(target=a.target)
                yield f"{name}: arrows {k}, {m} swap targets", Fanifold(
                    phi.dimension, phi.strata, swapped
                )


def test_composites_by_lookup_match_the_reference_search():
    """Validation's coherence loop and ``unrolled_closure`` look composites
    up (``Fanifold._arrow_on`` and the star maps).  On every law input the
    report (errors in order, ``is_poset`` and ``coherent``) equals the one
    the reference search gives, and on every valid input each stratum's
    unrolled closure dumps byte for byte as the closure the search builds."""
    reports = incoherent = closures = 0
    for label, phi in _coherence_law_inputs():
        report = phi.validate()
        assert report == _report_by_search(phi), label
        reports += 1
        incoherent += any(e.startswith("no coherent composite") for e in report.errors)
        if report.valid:
            for s in phi.strata:
                want = dumps(_closure_by_search(phi, s.name))
                assert dumps(unrolled_closure(phi, s.name)) == want, (label, s.name)
                closures += 1
    # the loader refuses five fuzz mutants, each with a zero ray, that
    # loaded as invalid diagrams before it refused a ray no cone holds
    assert (reports, incoherent, closures) == (729, 97, 1814)


# -- carried fans and quotient-free arrow tables ---------------------------------


def _reference_report(phi):
    """``phi``'s report with every stratum fan checked first: each distinct
    fan is replaced by a fresh copy and validated before the diagram is, so
    validation takes no fan as carried."""
    fresh = {}
    for s in phi.strata:
        if id(s.fan) not in fresh:
            fresh[id(s.fan)] = fresh_fan(s.fan)
            fans._plain_fan(fresh[id(s.fan)]).validate()
    strata = [s._replace(fan=fresh[id(s.fan)]) for s in phi.strata]
    return Fanifold(phi.dimension, strata, phi.arrows).validate()


def _assert_carried_fans_change_no_report(phi):
    """The report equals the reference, and each stratum fan's recorded
    problems, checked or carried, equal a fresh check's."""
    report = phi.validate()
    assert report == _reference_report(phi), phi
    for s in phi.strata:
        assert s.plain_fan.validate() == Fan._problems.func(s.plain_fan), (phi, s.name)
    return report


def _mutant_fan(fan, rng):
    """One random edit of a copy of ``fan``: a ray moved, negated or nudged
    in every cone holding it, a gen dropped from or added to a cone, a cone
    dropped or duplicated, or two cones swapped.  A stacky fan keeps the
    multiples of the rays it keeps."""
    cones = [list(c.gens) for c in fan.cones]
    gens = sorted({g for c in cones for g in c})
    kind = rng.choice((
        "ray moved", "ray negated", "ray nudged", "gen dropped", "gen added",
        "cone dropped", "cone duplicated", "cones swapped",
    ))
    if kind.startswith("ray") and gens:
        old = rng.choice(gens)
        if kind == "ray moved":
            new = tuple(rng.randint(-2, 2) for _ in old)
        elif kind == "ray negated":
            new = tuple(-x for x in old)
        else:
            i = rng.randrange(len(old))
            new = old[:i] + (old[i] + rng.choice((-1, 1)),) + old[i + 1:]
        cones = [[new if g == old else g for g in c] for c in cones]
    elif kind == "gen dropped" and any(cones):
        c = rng.choice([c for c in cones if c])
        c.pop(rng.randrange(len(c)))
    elif kind == "gen added" and cones and gens:
        rng.choice(cones).append(rng.choice(gens))
    elif kind == "cone dropped" and cones:
        cones.pop(rng.randrange(len(cones)))
    elif kind == "cone duplicated" and cones:
        cones.append(list(rng.choice(cones)))
    elif kind == "cones swapped" and len(cones) >= 2:
        i, j = rng.sample(range(len(cones)), 2)
        cones[i], cones[j] = cones[j], cones[i]
    out = Fan([Cone(c, fan.rank) for c in cones], fan.rank)
    if isinstance(fan, StackyFan):
        out = StackyFan(out, {r: k for r, k in fan.multiples.items() if r in out.rays})
    return out


def _record_carried_tables(monkeypatch):
    """The fans validation gives a containment table by carrying it: each
    fan ``_set_valid`` meets with no table yet, in the order met."""
    carried = []
    carry = fanifold_module._set_valid

    def recording(fan, source, star):
        if "_inside" not in fan.__dict__:
            carried.append(fan)
        carry(fan, source, star)

    monkeypatch.setattr(fanifold_module, "_set_valid", recording)
    return carried


def _assert_carried_tables_are_fresh(carried):
    """Each carried ``_inside`` equals the ``contains_cone`` table of its
    cones, and ``_stars`` is its reverse."""
    for fan in carried:
        fresh = _inside_by_pairs(fan)
        assert fan._inside == fresh, fan.cones
        n = len(fan.cones)
        assert fan._stars == tuple(
            tuple(j for j in range(n) if j == i or i in fresh[j]) for i in range(n)
        ), fan.cones


def test_carried_fans_change_no_report(monkeypatch):
    """Validation checks no fan a checked arrow carries (the star lemma in
    ``fans``), and carries its containment table with it.  Its report
    equals the one checking every fan first, every fan it did not check is
    valid when checked afresh, and every carried table is a fresh fan's: on
    every example built and loaded, the constructed diagrams (small products
    among them), from_fan and sphere_section of 40 fans drawn as the
    random-fans workload draws them, and seeded mutants that edit one fan
    of any stratum of an example."""
    carried = _record_carried_tables(monkeypatch)
    rng = random.Random(4303)
    drawn = [drawn_fan(rng)[0] for _ in range(40)]
    assert any(isinstance(f, StackyFan) for f in drawn)
    examples = [phi for _, phi in built_and_loaded()]
    diagrams = examples + _constructed_diagrams()
    diagrams += [build(f) for f in drawn for build in (from_fan, sphere_section)]
    for phi in diagrams:
        assert _assert_carried_fans_change_no_report(phi).valid
    _assert_carried_tables_are_fresh(carried)
    assert len(carried) > 500, len(carried)
    rng = random.Random(3203)
    invalid = carried_invalid = 0
    for _ in range(600):
        phi = rng.choice(examples)
        target = rng.choice(phi.strata)
        fan = _mutant_fan(target.fan, rng)
        strata = [s._replace(fan=fan) if s is target else s for s in phi.strata]
        mutant = Fanifold(phi.dimension, strata, phi.arrows)
        report = _assert_carried_fans_change_no_report(mutant)
        invalid += not report.valid
        # an invalid fan in a stratum arrows enter: no arrow may carry it
        carried_invalid += bool(Fan._problems.func(fans._plain_fan(fan))) and any(
            a.target == target.name for a in phi.arrows
        )
    assert invalid > 300 and carried_invalid > 75, (invalid, carried_invalid)
    _assert_carried_tables_are_fresh(carried)


def _random_fans_draws(monkeypatch, seeds=(1, 2, 3)):
    """The fan of each op of the benchmark's random-fans workload on
    ``seeds``, built as the op builds it: subdivided, then stacky."""
    import fanifolds

    root = os.path.join(os.path.dirname(__file__), "..")
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    monkeypatch.setattr(workloads, "fan_op", lambda pkg, spec: spec)
    out = []
    for seed in seeds:
        for op in workloads.build_random_fans(fanifolds, seed, root):
            spec = op.run()
            fan = spec.base
            for p in spec.points:
                fan = fans.stellar_subdivision(fan, p)
            out.append(StackyFan(fan, dict(spec.multiples)) if spec.multiples else fan)
    return out


def test_from_fan_and_sphere_section_carry_what_validation_finds(monkeypatch):
    """``from_fan`` and ``sphere_section`` carry their report, every star
    map and every stratum fan's containment table (the cone strata lemma
    in ``fanifold``), and each equals full validation of the diagram
    rebuilt with fresh fans: on every bundled fan and on the fans of the
    random-fans workload's ops for seeds 1-3, stacky ones included."""
    drawn = _random_fans_draws(monkeypatch)
    assert len(drawn) == 243 and sum(isinstance(f, StackyFan) for f in drawn) > 100
    checked = 0
    for fan in _example_fans() + drawn:
        for build in (from_fan, sphere_section):
            report = assert_carries_what_validation_finds(build(fan))
            assert report.valid and report.coherent
            checked += 1
    assert checked == 516


def test_from_fan_runs_cone_contains_on_its_source_fan_alone(monkeypatch):
    """Every stratum fan of ``from_fan(fan)`` but ``fan`` itself is carried,
    with its containment table: building and validating the diagram runs
    ``Cone.contains`` only on cones of ``fan``'s rank, on the example fans
    and on 20 fans drawn as the random-fans workload draws them."""
    rng = random.Random(4319)
    fans_ = [EXAMPLES[name]().source_fan for name in ("proj2", "proj3", "quadric_stacky")]
    fans_ += [drawn_fan(rng)[0] for _ in range(20)]
    ranks = []
    contains = Cone.contains

    def recording(self, v):
        ranks.append(self.rank)
        return contains(self, v)

    monkeypatch.setattr(Cone, "contains", recording)
    for fan in fans_:
        del ranks[:]
        phi = from_fan(fan)
        assert phi.validate().valid and len(phi.strata) > 1
        assert set(ranks) <= {fan.rank}, (fan, sorted(set(ranks)))


def _quotient_tables(phi, a):
    """An arrow's star map and arrow map in two steps, through its star
    quotient fan and then the iso, and the star quotient itself."""
    fq = quotient_fan(phi.stratum(a.source).fan, a.cone_index)
    tgt = phi.stratum(a.target).plain_fan
    star = {k: tgt.cone_index(c.image(a.iso)) for k, c in zip(fq.star, fq.fan.cones)}
    return star, a.iso.compose(fq.projection), fq


def test_arrow_tables_equal_their_star_quotient_forms():
    """``_star_map``, ``arrow_map`` and ``_collapse_forward`` map the star
    cones through the cone's span quotient and the iso in one step, and
    equal the tables read off the star quotient fan: on every example built
    and loaded, the constructed diagrams, and from_fan and sphere_section of
    200 seeded random fans."""
    diagrams = [phi for _, phi in built_and_loaded()] + _constructed_diagrams()
    random_fans = [f for seed in range(29) for f in _random_basis_fans(seed)][:200]
    diagrams += [build(f) for f in random_fans for build in (from_fan, sphere_section)]
    checked = 0
    for phi in diagrams:
        assert phi.validate().valid
        for a in phi.arrows:
            star, amap, fq = _quotient_tables(phi, a)
            m = a.iso.matrix
            collapse = (
                mat_mul(transpose(invert_unimodular(m)), transpose(fq.section.matrix))
                if m else ()
            )
            assert phi._star_map(a) == star, (phi, a)
            assert (phi.arrow_map(a), phi._collapse_forward(a)) == (amap, collapse), (phi, a)
            checked += 1
    assert checked > 6000
    # a linear map sends the normalized gens to the same normalized gens in
    # one step or two, so the star maps agree with isos that are not
    # unimodular too, on diagrams that fail validation
    for _, phi in built_and_loaded():
        doubled = []
        for a in phi.arrows:
            m = tuple(tuple(2 * x for x in r) for r in a.iso.matrix)
            doubled.append(a._replace(iso=a.iso._replace(matrix=m)))
        bad = Fanifold(phi.dimension, phi.strata, doubled)
        assert bad.validate().valid == all(not a.iso.matrix for a in phi.arrows)
        for a in bad.arrows:
            star, amap, _ = _quotient_tables(bad, a)
            assert (bad._star_map(a), bad.arrow_map(a)) == (star, amap), (phi, a)


def test_unimodularity_is_decided_once_per_iso(monkeypatch):
    """The table an arrow check fills agrees with ``is_unimodular``: on
    every example's arrows, and on the iso ``()`` of a rank-0 target, which
    is unimodular from a rank-0 quotient and not from a rank-1 one, in
    either order.  Validating an example, rebuilt so that validation runs,
    decides each distinct iso once."""
    for _, phi in built_and_loaded():
        table = {}
        for k, a in enumerate(phi.arrows):
            assert phi._arrow_error(k, a, table) is None
        assert table == {a.iso: a.iso.is_unimodular() for a in phi.arrows}
        assert all(table.values())
    decided = []
    is_unimodular = LatticeMap.is_unimodular

    def recording(self):
        decided.append(self)
        return is_unimodular(self)

    monkeypatch.setattr(LatticeMap, "is_unimodular", recording)
    for label, phi in built_and_loaded():
        phi = rebuilt(phi)
        del decided[:]
        assert phi.validate().valid, label
        assert len(decided) == len({a.iso for a in phi.arrows}), label
    # the full check reads the isos the proof decided before it failed
    phi = EXAMPLES["proj3"]()
    a = phi.arrows[8]
    negated = a._replace(iso=lattice_map([[-x for x in r] for r in a.iso.matrix], 1, 1))
    phi = Fanifold(phi.dimension, phi.strata, phi.arrows[:8] + (negated,) + phi.arrows[9:])
    del decided[:]
    assert not phi.validate().coherent
    assert len(decided) == len({a.iso for a in phi.arrows})
    # the corner arrow along the quadrant of from_fan(orthant 2) has a
    # rank-0 target and quotient; an arrow along a ray to a point stratum
    # has a rank-0 target and a rank-1 quotient
    chart = from_fan(orthant_fan(2))
    corner = next(a for a in chart.arrows if chart.arrow_cone(a).dim == 2)
    ray = next(a for a in chart.out_arrows(corner.source) if chart.arrow_cone(a).dim == 1)
    edge = ray._replace(target="point", iso=lattice_map((), 1, 0))
    assert corner.iso.matrix == edge.iso.matrix == ()
    assert corner.iso.is_unimodular() and not edge.iso.is_unimodular()
    point = Stratum("point", 1, Fan([zero_cone(0)], 0))
    phi = Fanifold(2, chart.strata + (point,), ())
    for order in ((corner, edge), (edge, corner)):
        table = {}
        errors = [phi._arrow_error(k, a, table) for k, a in enumerate(order)]
        assert table == {corner.iso: True, edge.iso: False}
        k = order.index(edge)
        expected = [None, None]
        expected[k] = f"arrow {k} ({edge.source}->point): iso not unimodular"
        assert errors == expected


def test_a_hidden_stratum_carries_no_fan():
    """Two strata named g: arrows out of g read the last one's fan, which
    is invalid, so the valid fan of the first carries nothing, and the
    arrow's check, which reads that fan's star, refuses it.  The star's
    images form the target fan h, which is invalid; its errors stay
    reported."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    sigma = Cone([e3], 3)
    tau1, tau2 = Cone([e3, e1, e2], 3), Cone([e3, (1, 1, 0), (-1, 1, 0)], 3)
    bad = Fan([sigma, tau1, tau2, zero_cone(3)], 3)
    arrow = Arrow("g", "h", 0, lattice_map(identity_matrix(2), 2, 2))
    amap = Fanifold(3, [Stratum("g", 0, bad)], ()).arrow_map(arrow)
    h = Fan([c.image(amap) for c in bad.cones[:3]], 2)  # the star's images
    strata = [Stratum("g", 0, Fan([zero_cone(3)], 3)), Stratum("g", 0, bad), Stratum("h", 1, h)]
    phi = Fanifold(3, strata, [arrow])
    refusal = "^invalid fan: cones 1 and 2 do not intersect in a common face$"
    with pytest.raises(ValueError, match=refusal):
        phi._arrow_error(0, arrow, {})
    report = _assert_carried_fans_change_no_report(phi)
    assert "stratum 'h' fan: cones 1 and 2 do not intersect in a common face" in report.errors


# -- the generating arrow proof against the full check ---------------------------


def _assert_proof_agrees_with_the_full_check(label, phi):
    """Validate ``rebuilt(phi)``, where the generating arrow proof runs, and
    a second ``rebuilt(phi)`` by the full check alone (``_full_report``).
    The reports are equal, errors in order; each star map the first keeps,
    derived or mapped, is the one the second maps, in the same order; and on
    a valid diagram every arrow has a star map and each stratum fan's
    containment table is the second's.  Returns the first diagram."""
    proved, full = rebuilt(phi), rebuilt(phi)
    report = proved.validate()
    assert report == full._full_report({}), label
    for a, star in proved._star_maps.items():
        assert list(star.items()) == list(full._star_map(a).items()), (label, a)
    if report.valid:
        assert len(proved._star_maps) == len(proved.arrows), label
        for s, t in zip(proved.strata, full.strata):
            assert s.plain_fan._inside == t.plain_fan._inside, (label, s.name)
    return proved


def _record_full_reports(monkeypatch):
    """The diagrams ``_full_report`` runs on, held weakly."""
    runs = weakref.WeakSet()
    full_report = Fanifold._full_report

    def recording(self, unimodular):
        runs.add(self)
        return full_report(self, unimodular)

    monkeypatch.setattr(Fanifold, "_full_report", recording)
    return runs


def _arrow_fuzz_mutants():
    """The mutants of the arrow fuzz run (``test_fuzz.run_arrow_fuzz``) that
    load, in order."""
    rng = random.Random(test_fuzz.ARROW_SEED)
    docs = test_fuzz._documents()
    names = sorted(docs)
    for k in range(test_fuzz.ARROW_MUTANTS):
        doc, kind = test_fuzz._mutate_arrow(docs[names[k % len(names)]], rng)
        try:
            yield f"arrow fuzz mutant {k} ({kind})", fanifold_from_dict(doc)
        except ValueError:
            continue


def _lone_incoherent_pairs():
    """from_fan of the fans of orthant 3 and P3 with their 3-cones dropped,
    each with one arrow's iso negated.  A 2-cone's stratum then has a fan
    of rank 1 with no cone but zero, so negating a generating arrow into it
    breaks one pair alone: the arrow from the zero cone's stratum to its
    source, then it."""
    for name, fan in (("orthant 3", orthant_fan(3)), ("P3", projective_fan(3))):
        phi = from_fan(Fan([c for c in fan.cones if c.dim < 3], 3))
        for k, a in enumerate(phi.arrows):
            m = [[-x for x in r] for r in a.iso.matrix]
            negated = a._replace(iso=lattice_map(m, a.iso.source_rank, a.iso.target_rank))
            arrows = phi.arrows[:k] + (negated,) + phi.arrows[k + 1:]
            yield f"{name} without its 3-cones: arrow {k} negated", Fanifold(
                phi.dimension, phi.strata, arrows
            )


def _products_and_unions():
    """Products of the bundled examples two at a time, where the product
    has at most 60 strata, and the disjoint union of each example with
    every example of its dimension."""
    examples = sorted(EXAMPLES.items())
    for (x, bx), (y, by) in itertools.combinations_with_replacement(examples, 2):
        phi, psi = bx(), by()
        if len(phi.strata) * len(psi.strata) <= 60:
            yield f"{x} x {y}", product(phi, psi)
        if phi.dimension == psi.dimension:
            yield f"{x} + {y}", disjoint_union(phi, psi)


def test_the_generating_arrow_proof_agrees_with_the_full_check(monkeypatch):
    """Validation proves a valid diagram from its generating arrows (the
    lemma in ``fanifold``) and falls back to the full check on any other.
    On every input the report, every star map it keeps and every stratum
    fan's containment table equal the full check's on a fresh rebuild: the
    examples built and loaded, the composite-law inputs (constructed
    diagrams, drawn fans, both fuzz runs' mutants that load, negated isos
    and swapped targets), the arrow fuzz run's mutants, the random-fans
    workload's fans of seeds 1-3 through from_fan and sphere_section, and
    products and disjoint unions of the examples."""
    drawn = _random_fans_draws(monkeypatch)
    full_runs = _record_full_reports(monkeypatch)
    inputs = itertools.chain(
        _coherence_law_inputs(),
        _arrow_fuzz_mutants(),
        _lone_incoherent_pairs(),
        ((f"{b.__name__} of draw {k}", b(f)) for k, f in enumerate(drawn)
         for b in (from_fan, sphere_section)),
        _products_and_unions(),
    )
    valid = invalid = lone = 0
    for label, phi in inputs:
        proved = _assert_proof_agrees_with_the_full_check(label, phi)
        report = proved.validate()
        if report.valid:
            assert proved not in full_runs, label  # the proof alone passed it
            valid += 1
        else:
            invalid += 1
            lone += len(report.errors) == 1 and report.errors[0].startswith("no coherent")
    assert (valid, invalid, lone) == (1154, 517, 18), (valid, invalid, lone)


def test_a_cone_whose_rays_are_no_cones_of_its_fan_gets_the_full_check(monkeypatch):
    """A fan need not hold the faces of its cones: the quadrant alone, with
    the zero cone, is a valid fan, and its one arrow, to a point stratum, is
    valid.  The quadrant holds no ray of the fan, so no generating arrow
    proves anything about it, and the full check runs and passes."""
    full_runs = _record_full_reports(monkeypatch)
    quadrant = Cone([(1, 0), (0, 1)], 2)
    strata = [
        Stratum("g", 0, Fan([zero_cone(2), quadrant], 2)),
        Stratum("f", 2, Fan([zero_cone(0)], 0)),
    ]
    phi = Fanifold(2, strata, [Arrow("g", "f", 1, lattice_map((), 0, 0))])
    proved = _assert_proof_agrees_with_the_full_check("quadrant", phi)
    assert proved.validate() == (True, True, ())
    assert proved in full_runs and proved._star_maps


# Per loaded file, in a fresh process: (Smith forms for cone quotients, star
# maps built by mapping gens, coherence products) one validation runs
VALIDATION_WORK = {
    "proj3": (13, 28, 48),
    "affine3": (8, 12, 15),
    "proj2": (3, 9, 6),
    "square": (2, 12, 8),
}

_COUNT_VALIDATION_WORK = """
import sys
from fanifolds import cones, fanifold
from fanifolds.cli import resolve_input
from fanifolds.files import load_fanifold

snf, mapped, products = [], [], []
quotient, star_map, mat_mul = cones.quotient_with_torsion, fanifold.Fanifold._star_map, fanifold.mat_mul

def counted_quotient(*args):
    snf.append(args)
    return quotient(*args)

def counted_star_map(self, a):
    if a not in self._star_maps:
        mapped.append(a)
    return star_map(self, a)

def counted_mat_mul(*args):
    products.append(args)
    return mat_mul(*args)

phi = load_fanifold(resolve_input(sys.argv[1] + ".json"))
cones.quotient_with_torsion = counted_quotient
fanifold.Fanifold._star_map = counted_star_map
fanifold.mat_mul = counted_mat_mul
assert phi.validate().valid
print(len(snf), len(mapped), len(products))
"""


def _recorded_star_map_builds(monkeypatch):
    """The arrows whose star map ``_star_map`` builds by mapping gens."""
    built = []
    star_map = Fanifold._star_map

    def recording(self, a):
        if a not in self._star_maps:
            built.append((self, a))
        return star_map(self, a)

    monkeypatch.setattr(Fanifold, "_star_map", recording)
    return built


def test_validation_maps_gens_for_generating_arrows_alone(monkeypatch):
    """Validating each file of ``VALIDATION_WORK``, loaded in a fresh
    process (so no cone another test holds hides a Smith form), does the
    work pinned there; before the generating arrow proof and the zero
    quotient rule it was (22, 50, 60), (11, 19, 18), (8, 12, 6) and (4, 16,
    8).  And validating any example, built and rebuilt or loaded, maps gens
    only for arrows whose cone is a ray: a composite arrow's map is
    derived."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name, work in VALIDATION_WORK.items():
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_VALIDATION_WORK, name],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(map(int, proc.stdout.split())) == work, name
    built = _recorded_star_map_builds(monkeypatch)
    for label, phi in built_and_loaded():
        phi = rebuilt(phi)
        assert phi.validate().valid, label
    assert len(built) > 100 and {phi.arrow_cone(a).dim for phi, a in built} == {1}
