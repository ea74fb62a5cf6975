"""Conic Lagrangian skeleta: strata, Euler counts, handles and refinements."""

import math
import random

import pytest

from fanifolds import skeleton
from fanifolds.cli import resolve_input, run
from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    necklace,
    orthant_fan,
    p1_fan,
    projective_fan,
    quadric_fan,
    stacky_quadric_fan,
)
from fanifolds.fanifold import Fanifold, from_fan, sphere_section
from fanifolds.files import dumps, load_fanifold
from fanifolds.fans import Fan, StackyFan, refines, resolve_to_smooth
from fanifolds.lattice import quotient_with_torsion
from fanifolds.mirror import mirror_dictionary
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


def outcome(call, phi):
    """("chi", what ``call(phi)`` returns) or ("refused", its ValueError)."""
    try:
        return "chi", call(phi)
    except ValueError as e:
        return "refused", str(e)


def test_euler_characteristic_builds_no_model_and_equals_the_model_sum(monkeypatch):
    """``euler_characteristic_c`` builds no skeleton model, from a fanifold
    or from a model, and either equals ``chi_by_model`` or refuses with the
    model's own line: on every example built and loaded, and on from_fan
    and sphere_section of 40 fans drawn as the random-fans workload draws
    them (stacky ones among them).  Every from_fan is answered; a stacky
    fan's sphere section can lift two groups onto one cone, and at least
    one is refused."""
    rng = random.Random(4311)
    drawn = [drawn_fan(rng)[0] for _ in range(40)]
    diagrams = [build() for _, build in sorted(EXAMPLES.items())]
    diagrams += [load_fanifold(resolve_input(f"{name}.json")) for name in sorted(EXAMPLES)]
    examples = len(diagrams)
    diagrams += [build(f) for f in drawn for build in (from_fan, sphere_section)]
    expected = [outcome(chi_by_model, phi) for phi in diagrams]
    models = [
        skeleton_model(phi)
        for phi, (kind, _) in zip(diagrams[::2], expected[::2])
        if kind == "chi"
    ]
    built = []
    monkeypatch.setattr(skeleton, "skeleton_model", built.append)
    chis = [outcome(euler_characteristic_c, phi) for phi in diagrams]
    from_models = [euler_characteristic_c(model) for model in models]
    monkeypatch.undo()
    assert built == []
    assert chis == expected
    assert from_models == [chi for kind, chi in expected[::2] if kind == "chi"]
    kinds = [kind for kind, _ in expected]
    assert set(kinds[:examples]) == set(kinds[examples::2]) == {"chi"}
    assert "refused" in kinds[examples + 1::2]
    # stacky multiples reach the sum: a stacky fan's chi_c is not its
    # plain fan's
    assert any(
        euler_characteristic_c(from_fan(f)) != euler_characteristic_c(from_fan(Fan(f.cones, f.rank)))
        for f in drawn
        if isinstance(f, StackyFan)
    )


def _stacky_bead(r, multiples):
    """``necklace(r)`` with vertex i on the stacky line whose positive and
    negative rays have ``multiples[i - 1]``."""
    phi = necklace(r)
    strata = [
        st._replace(fan=StackyFan(p1_fan(), dict(zip([(1,), (-1,)], multiples[i]))))
        for i, st in enumerate(phi.strata[:r])  # the vertices come first
    ]
    strata += phi.strata[r:]
    return Fanifold(dimension=phi.dimension, strata=strata, arrows=list(phi.arrows))


def test_valid_diagram_whose_arrows_lift_different_component_groups(tmp_path, capsys):
    """``necklace(2)`` with vertex v1 on the stacky line whose positive ray
    has multiple 2: validation compares no multiples, so it is a valid,
    coherent poset, yet arrow 0 (v1 -> e1) lifts Z/2 onto e1 and arrow 3
    (v2 -> e1) lifts the trivial group.  No group is determined, so the
    model, chi_c and the mirror dictionary refuse it in one line, and so do
    the commands that read them; the handle plan reads no group."""
    psi = _stacky_bead(2, [(2, 1), (1, 1)])
    report = psi.validate()
    assert report.is_poset and report.coherent and report.errors == ()
    line = "component groups over 'e1' cone 0 disagree: arrow 0 lifts [2], arrow 3 lifts []"
    for call in (skeleton_model, euler_characteristic_c, mirror_dictionary):
        with pytest.raises(ValueError) as refused:
            call(psi)
        assert str(refused.value) == line, call
    path = tmp_path / "stacky-bead.json"
    path.write_text(dumps(psi), encoding="utf-8")
    for command in (["skeleton", "report"], ["skeleton", "euler"], ["skeleton", "mesh"],
                    ["mirror", "dict"]):
        assert run([*command, "--file", str(path)]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line}\n"), command
    assert run(["skeleton", "handles", "--file", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _lifted_by_scan(phi):
    """(target, cone index) -> the set of groups the arrows' star maps lift
    onto it, each read off its source cone's stacky generators: the
    reference on diagrams whose sources no arrow enters."""
    sources = {a.source for a in phi.arrows}
    assert not any(a.target in sources for a in phi.arrows)
    lifted = {}
    for a in phi.arrows:
        src = phi.stratum(a.source)
        for k, j in phi._star_map(a).items():
            cone = src.plain_fan.cones[k]
            gens = [src.fan.stacky_generator(r) for r in cone.extremal_rays]
            group = quotient_with_torsion(src.lattice_rank, gens).torsion
            lifted.setdefault((a.target, j), set()).add(group)
    return lifted


def test_the_skeleton_refuses_exactly_the_necklaces_whose_lifts_differ():
    """``necklace(r)``, r = 1..4, with every vertex on a stacky line of
    multiples 1-3, 40 draws each.  Every draw validates.  ``skeleton_model``
    and ``euler_characteristic_c`` refuse, with one line, exactly the draws
    onto one of whose cones the arrows lift two groups (a scan of every
    arrow's star map), and chi_c of every other draw is each edge's chi_c
    times the order of its one lifted group."""
    rng = random.Random(2626)
    answered = refused = 0
    for r in range(1, 5):
        for _ in range(40):
            multiples = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(r)]
            phi = _stacky_bead(r, multiples)
            assert phi.validate().valid
            lifted = _lifted_by_scan(phi)
            model, chi = outcome(skeleton_model, phi), outcome(euler_characteristic_c, phi)
            if any(len(groups) > 1 for groups in lifted.values()):
                assert model[0] == chi[0] == "refused" and model == chi, (r, multiples)
                refused += 1
                continue
            expected = sum(
                st.chi * math.prod(next(iter(lifted[st.name, 0])))
                for st in phi.strata
                if st.lattice_rank == 0
            )
            assert chi == ("chi", expected) and model[0] == "chi", (r, multiples)
            answered += 1
    assert answered > 10 and refused > 10, (answered, refused)


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
