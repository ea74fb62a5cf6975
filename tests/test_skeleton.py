"""Conic Lagrangian skeleta: strata, Euler counts, handles and refinements."""

import math
import random

from fanifolds import skeleton
from fanifolds.cli import resolve_input, run
from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    orthant_fan,
    p1_fan,
    projective_fan,
    quadric_fan,
    stacky_quadric_fan,
)
from fanifolds.fanifold import Fanifold, Stratum, from_fan, sphere_section
from fanifolds.files import dumps, load_fanifold
from fanifolds.fans import Fan, StackyFan, refines, resolve_to_smooth
from fanifolds.skeleton import (
    euler_characteristic_c,
    handle_plan,
    skeleton_model,
)
from test_bmodel import drawn_fan
from test_cones import contains_cone


def fan_pieces(fan):
    """The skeleton's FLTZ pieces over the fan itself: the strata of
    ``skeleton_model(from_fan(fan))`` over its stratum of full lattice rank."""
    phi = from_fan(fan)
    (base,) = [s.name for s in phi.strata if s.lattice_rank == fan.rank]
    model = skeleton_model(phi)
    return [model.strata[i] for i in model.strata_over(base)]


def test_fltz_pieces_plain_fan():
    # one piece per cone on every named plain fan: the annihilator subtorus
    # of rank = corank, connected
    assert len(fan_pieces(projective_fan(2))) == 7
    for fan in (a1_fan(), p1_fan(), orthant_fan(3), projective_fan(2), projective_fan(3),
                quadric_fan()):
        assert [(p.cone_index, p.cone_dim, p.torus_rank, p.group_order)
                for p in fan_pieces(fan)] == [
            (i, c.dim, fan.rank - c.dim, 1) for i, c in enumerate(fan.cones)
        ], fan


def test_fltz_pieces_stacky_quadric():
    fan = stacky_quadric_fan()
    pieces = fan_pieces(fan)
    # one component per element of the cone's group
    assert [(p.cone_index, p.cone_dim, p.torus_rank, p.group_order) for p in pieces] == [
        (i, c.dim, fan.rank - c.dim, math.prod(fan.component_group(c)))
        for i, c in enumerate(fan.cones)
    ]
    two = [p for p in pieces if p.cone_dim == 2]
    assert len(two) == 1
    assert fan.component_group(fan.cones[two[0].cone_index]) == (2,)
    assert two[0].group_order == 2
    assert two[0].torus_rank == 0


def test_skeleton_strata_are_half_dimensional():
    for name, build in sorted(EXAMPLES.items()):
        model = skeleton_model(build())
        assert model.dimension_check(), name
        assert model.assembly_check(), name


def test_skeleton_counts_flags_of_a_fan():
    # one skeleton stratum per pair (cone of the fan at F) over each F;
    # for from_fan these biject with flags sigma <= tau of the fan
    fan = projective_fan(2)
    model = skeleton_model(from_fan(fan))
    flags = sum(
        1 for c in fan.cones for d in fan.cones if contains_cone(d, c)
    )
    assert len(model.strata) == flags == 19


def test_skeleton_square_count():
    model = skeleton_model(EXAMPLES["square"]())
    assert len(model.strata) == 25
    # face: 1 chart; edges: 2 each; corners: 4 each
    assert len(model.strata_over("(s0,s0)")) == 1
    assert len(model.strata_over("(s2,s0)")) == 2
    assert len(model.strata_over("(s2,s2)")) == 4


def test_skeleton_incidences_close_downward():
    model = skeleton_model(EXAMPLES["square"]())
    n = len(model.strata)
    for i, j in model.incidences:
        assert 0 <= i < n and 0 <= j < n and i != j


def test_euler_characteristic_oracles():
    assert euler_characteristic_c(from_fan(a1_fan())) == -1
    assert euler_characteristic_c(from_fan(p1_fan())) == -2
    assert euler_characteristic_c(from_fan(orthant_fan(2))) == 1
    assert euler_characteristic_c(from_fan(projective_fan(2))) == 3
    assert euler_characteristic_c(from_fan(projective_fan(3))) == -4
    assert euler_characteristic_c(EXAMPLES["interval"]()) == -1
    assert euler_characteristic_c(EXAMPLES["3a1"]()) == 1
    assert euler_characteristic_c(EXAMPLES["square"]()) == 1
    assert euler_characteristic_c(EXAMPLES["unigon"]()) == 1
    for r in (1, 2, 3):
        assert euler_characteristic_c(EXAMPLES[f"necklace{r}"]()) == -r


def chi_by_model(phi):
    """chi_c summed over the whole skeleton model: each stratum of torus
    rank 0 and cone dimension 0 over a lattice-rank-0 base stratum counts
    the base's chi_c times its group order.  The rule
    ``euler_characteristic_c`` followed before it stopped building the
    model, kept as its reference."""
    total = 0
    for s in skeleton_model(phi).strata:
        if s.torus_rank == 0 and s.cone_dim == 0:
            st = phi.stratum(s.base)
            if st.lattice_rank == 0:
                total += st.chi * s.group_order
    return total


def test_euler_characteristic_builds_no_model_and_equals_the_model_sum(monkeypatch):
    """``euler_characteristic_c`` builds no skeleton model, from a fanifold
    or from a model, and equals ``chi_by_model``: on every example built and
    loaded, and on from_fan and sphere_section of 40 fans drawn as the
    random-fans workload draws them (stacky ones among them)."""
    rng = random.Random(4311)
    drawn = [drawn_fan(rng)[0] for _ in range(40)]
    diagrams = [build() for _, build in sorted(EXAMPLES.items())]
    diagrams += [load_fanifold(resolve_input(f"{name}.json")) for name in sorted(EXAMPLES)]
    diagrams += [build(f) for f in drawn for build in (from_fan, sphere_section)]
    models = [skeleton_model(phi) for phi in diagrams[::2]]
    built = []
    monkeypatch.setattr(skeleton, "skeleton_model", built.append)
    chis = [euler_characteristic_c(phi) for phi in diagrams]
    from_models = [euler_characteristic_c(model) for model in models]
    monkeypatch.undo()
    assert built == []
    expected = [chi_by_model(phi) for phi in diagrams]
    assert chis == expected
    assert from_models == expected[::2]
    # stacky multiples reach the sum: a stacky fan's chi_c is not its
    # plain fan's
    assert any(
        euler_characteristic_c(from_fan(f)) != euler_characteristic_c(from_fan(Fan(f.cones, f.rank)))
        for f in drawn
        if isinstance(f, StackyFan)
    )


def test_valid_diagram_whose_arrows_lift_different_component_groups(tmp_path, capsys):
    """``necklace(2)`` with vertex v1 on the stacky line whose positive ray
    has multiple 2: validation compares no multiples, so it is a valid,
    coherent poset, yet its two arrows into e1 lift groups of orders 1 and
    2.  The model warns, ``skeleton report`` prints the warning, and chi_c
    takes the larger order: -2 for the necklace, -1 more from e1."""
    phi = EXAMPLES["necklace2"]()
    strata = [
        Stratum(name=st.name, dim=st.dim, fan=StackyFan(p1_fan(), {(1,): 2})) if st.name == "v1" else st
        for st in phi.strata
    ]
    psi = Fanifold(dimension=phi.dimension, strata=strata, arrows=list(phi.arrows))
    report = psi.validate()
    assert report.is_poset and report.coherent and report.errors == ()
    warning = "component groups over 'e1' cone 0 disagree between arrows: [1, 2]"
    assert skeleton_model(psi).warnings == (warning,)
    assert euler_characteristic_c(psi) == -3
    path = tmp_path / "stacky-bead.json"
    path.write_text(dumps(psi), encoding="utf-8")
    assert run(["skeleton", "report", "--file", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("warning:")] == [f"warning: {warning}"]


def test_euler_characteristic_stacky_quadric_doubles():
    # the Z/2 isotropy doubles the contribution of the cone point stratum
    assert euler_characteristic_c(EXAMPLES["quadric_stacky"]()) == 2
    assert euler_characteristic_c(from_fan(quadric_fan())) == 1


def test_handle_plan_square():
    plan = handle_plan(EXAMPLES["square"]())
    assert plan.counts_by_index() == {0: 4, 1: 4, 2: 1}
    assert len(plan.handles) == 9
    top = [h for h in plan.handles if h.index == 2]
    assert top[0].stratum == "(s0,s0)"
    assert len(top[0].attaching) == 8  # four edges and four corners flow in


def test_handle_plan_replace_and_make_work():
    plan = handle_plan(EXAMPLES["square"]())
    top = tuple(h for h in plan.handles if h.index == 2)
    assert plan._replace(handles=top).handles == top
    assert type(plan)._make([top]) == plan._replace(handles=top)
    assert len(plan) == 1  # the record's one field


def test_handle_plan_labels_and_attaching():
    plan = handle_plan(EXAMPLES["3a1"]())
    by_name = {h.stratum: h for h in plan.handles}
    assert by_name["a"].label == "T*(a)^o x T*T^1"
    assert by_name["a"].attaching == ()
    assert by_name["u"].attaching == ("a", "b", "c")
    assert by_name["u"].attaching_label == "d(u)^o x T^0"
    # minimal strata have nothing to attach along
    assert all((not h.attaching) == (h.index == 1) for h in plan.handles)


def test_handle_plan_self_gluing_multiplicity():
    plan = handle_plan(EXAMPLES["necklace1"]())
    edge = next(h for h in plan.handles if h.stratum == "e1")
    assert edge.attaching == ("v1", "v1")


def test_handle_plan_trivial_flags_for_conical_diagrams():
    plan = handle_plan(from_fan(orthant_fan(2)))
    for h in plan.handles:
        assert h.trivial == (h.index > 0)
    # glued diagrams are not conical, nothing is marked trivial
    assert not any(h.trivial for h in handle_plan(EXAMPLES["square"]()).handles)


def test_handles_sorted_by_index_then_name():
    plan = handle_plan(EXAMPLES["square"]())
    keys = [(h.index, h.stratum) for h in plan.handles]
    assert keys == sorted(keys)


def test_skeleton_refinement_check_quadric():
    """A refinement only grows the skeleton, so ``refines`` certifies it."""
    coarse = stacky_quadric_fan().fan  # refinement is of the cones
    fine = resolve_to_smooth(coarse).fan
    assert refines(fine, coarse).ok
    backwards = refines(coarse, fine)  # not a refinement that way
    assert not backwards.ok and backwards.problems


def test_sphere_section_skeleton():
    model = skeleton_model(sphere_section(orthant_fan(2)))
    assert model.dimension_check()
    assert len(model.strata) == 1 + 2 + 2  # edge torus chart + two endpoints' pairs
