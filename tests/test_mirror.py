"""Matched chart-side / skeleton-side labels and restriction pairs."""

import gc
import json
import os
import weakref

import pytest

from fanifolds import mirror
from fanifolds.bmodel import ToricDiagram, full_diagram
from fanifolds.examples import EXAMPLES
from fanifolds.fanifold import Fanifold, delete_strata
from fanifolds.files import load_fanifold
from fanifolds.mirror import (
    A_SIDE_CONVENTION,
    _certify,
    mirror_dictionary,
    restriction_pairs,
)
from fanifolds.skeleton import handle_plan, skeleton_model
from test_fanifold import built_and_loaded, closed_sets


def test_dictionary_labels_every_stratum_and_arrow():
    for name in ("3a1", "square", "necklace2", "interval", "unigon"):
        phi = EXAMPLES[name]()
        md = mirror_dictionary(phi)
        assert {s.stratum for s in md.stratum_labels} == {
            s.name for s in phi.strata
        }, name
        assert len(md.arrow_labels) == len(phi.arrows), name
        assert md.certificate.ok, name


def test_dictionary_certificate_is_a_bijection():
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        md = mirror_dictionary(phi)
        assert md.certificate.ok, name
        names = sorted(s.name for s in phi.strata)
        assert md.certificate.matching == tuple((n, n) for n in names), name


# -- mutants of one side that the certificate must refuse ---------------------


def _drop_incidence(phi):
    model = skeleton_model(phi)
    return full_diagram(phi), model._replace(incidences=model.incidences[1:])


def _bump_last_piece(phi, field):
    """Raise one field of the last skeleton piece by 1."""
    model = skeleton_model(phi)
    strata = list(model.strata)
    strata[-1] = strata[-1]._replace(**{field: getattr(strata[-1], field) + 1})
    return full_diagram(phi), model._replace(strata=tuple(strata))


def _move_collapse_target(phi):
    """Send one collapse arrow to another chart of its target stratum, one
    it does not already reach."""
    diagram = full_diagram(phi)
    reached = {(a.source, a.target) for a in diagram.arrows if a.kind == "collapse"}
    for k, a in enumerate(diagram.arrows):
        if a.kind != "collapse":
            continue
        stratum = diagram.objects[a.target].stratum
        for t, o in enumerate(diagram.objects):
            if o.stratum == stratum and (a.source, t) not in reached:
                arrows = list(diagram.arrows)
                arrows[k] = a._replace(target=t)
                mutant = ToricDiagram(phi, diagram.objects)
                mutant.arrows = tuple(arrows)
                return mutant, skeleton_model(phi)
    raise AssertionError("no collapse target to move")


MUTANTS = {
    "drop-incidence": _drop_incidence,
    "relabel-piece": lambda phi: _bump_last_piece(phi, "cone_index"),
    "raise-torus-rank": lambda phi: _bump_last_piece(phi, "torus_rank"),
    "move-collapse-target": _move_collapse_target,
}


@pytest.mark.parametrize("name", ["unigon", "proj3", "square"])
@pytest.mark.parametrize("mutate", sorted(MUTANTS))
def test_certificate_refuses_a_mutated_side(name, mutate):
    phi = EXAMPLES[name]()
    assert _certify(full_diagram(phi), skeleton_model(phi)).ok
    certificate = _certify(*MUTANTS[mutate](phi))
    assert not certificate.ok
    assert certificate.matching == ()


def test_dictionary_prints_a_failed_certificate(monkeypatch):
    def dropped(phi):
        return _drop_incidence(phi)[1]

    monkeypatch.setattr(mirror, "skeleton_model", dropped)
    md = mirror_dictionary(EXAMPLES["unigon"]())
    assert not md.certificate.ok
    assert md.to_text().endswith("shape isomorphism: FAILED\n")
    assert md.to_json_dict()["certificate"] == {"ok": False, "matching": []}


def test_dictionary_leaves_no_reference_cycle():
    """With the cyclic collector off, the fanifold (and the cones it holds)
    is freed as soon as the caller drops it."""
    data = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
    gc.collect()
    gc.disable()
    try:
        for name in sorted(os.listdir(data)):
            phi = load_fanifold(os.path.join(data, name))
            ref = weakref.ref(phi)
            assert mirror_dictionary(phi).certificate.ok, name
            del phi
            assert ref() is None, name
    finally:
        gc.enable()


def test_dictionary_convention_is_recorded_verbatim():
    md = mirror_dictionary(EXAMPLES["interval"]())
    assert md.a_side_convention == A_SIDE_CONVENTION


def test_dictionary_serializations_are_stable():
    md = mirror_dictionary(EXAMPLES["3a1"]())
    blob = json.dumps(md.to_json_dict(), indent=2)
    assert blob == json.dumps(mirror_dictionary(EXAMPLES["3a1"]()).to_json_dict(), indent=2)
    text = md.to_text()
    assert "a" in text and "u" in text


def test_restriction_pair_vertex_of_necklace():
    pair = restriction_pairs(EXAMPLES["necklace2"](), ["v1"])
    assert pair.closed == ("v1",)
    assert pair.a_removed == ("e1", "e2", "v2")
    assert pair.b_descriptor is not None
    assert {o.stratum for o in pair.b_descriptor.diagram.objects} >= {"v1"}


def test_restriction_pair_empty_closed_set():
    pair = restriction_pairs(EXAMPLES["3a1"](), [])
    assert pair.closed == ()
    assert pair.b_descriptor is None
    # removing everything strips every handle
    full = handle_plan(EXAMPLES["3a1"]())
    assert set(pair.a_removed) == {h.stratum for h in full.handles}


def test_restriction_pair_whole_space():
    tri = EXAMPLES["3a1"]()
    pair = restriction_pairs(tri, [s.name for s in tri.strata])
    assert pair.a_removed == ()


def test_restriction_pairs_reject_non_closed_sets():
    with pytest.raises(ValueError):
        restriction_pairs(EXAMPLES["necklace2"](), ["e1"])
    with pytest.raises(ValueError):
        restriction_pairs(EXAMPLES["3a1"](), ["mystery"])


def test_restriction_nesting_is_contravariant():
    sq = EXAMPLES["square"]()
    small = restriction_pairs(sq, ["(s2,s2)"])
    big = restriction_pairs(sq, ["(s2,s2)", "(s2,s3)", "(s2,s0)"])
    assert set(big.a_removed) <= set(small.a_removed)


def test_restriction_gluing_identities_on_corners():
    sq = EXAMPLES["square"]()
    c = ["(s2,s2)"]
    d = ["(s3,s3)"]
    union = sorted(set(c) | set(d))
    inter = sorted(set(c) & set(d))
    rc = restriction_pairs(sq, c)
    rd = restriction_pairs(sq, d)
    ru = restriction_pairs(sq, union)
    ri = restriction_pairs(sq, inter)
    assert set(ru.a_removed) == set(rc.a_removed) & set(rd.a_removed)
    assert set(ri.a_removed) == set(rc.a_removed) | set(rd.a_removed)


def test_restriction_pairs_validates_each_diagram_once(monkeypatch):
    runs = []
    body = Fanifold._report.func

    def counted(phi):
        runs.append(phi)
        return body(phi)

    monkeypatch.setattr(Fanifold._report, "func", counted)
    sq = EXAMPLES["square"]()
    restriction_pairs(sq, ["(s2,s2)", "(s2,s3)", "(s2,s0)"])
    # the square itself: the restriction builds no diagram of the closed set
    assert runs == [sq]


def _reference_pair(phi, pair):
    """``pair`` with its skeleton side read off the subdomain's own diagram:
    the plan of ``delete_strata`` of the complement, and as removed the
    handles of the full plan missing from it."""
    closed = pair.closed
    sub = delete_strata(phi, [s.name for s in phi.strata if s.name not in closed])
    sub_plan = handle_plan(sub)
    kept = {h.stratum for h in sub_plan.handles}
    removed = tuple(sorted(h.stratum for h in handle_plan(phi).handles if h.stratum not in kept))
    zset = ",".join(closed) if closed else "(empty)"
    return pair._replace(
        a_subdomain=sub_plan,
        a_removed=removed,
        a_sequence=(
            f"subdomain of the skeleton over [{zset}]; removed cocores: "
            f"{list(removed)}"
        ),
    )


def test_restriction_pairs_match_the_subdomain_diagram():
    """On every closed set of every example, built and loaded, the pair
    split off the full handle plan prints what the subdomain's own diagram
    gives; its plan differs at most in the trivial marks, which only a
    ``from_fan`` diagram carries."""
    count = 0
    for label, phi in built_and_loaded():
        for closed in closed_sets(phi):
            pair = restriction_pairs(phi, closed)
            ref = _reference_pair(phi, pair)
            assert pair.to_json_dict() == ref.to_json_dict(), (label, closed)
            assert pair.to_text() == ref.to_text(), (label, closed)
            assert pair.a_removed == ref.a_removed, (label, closed)
            assert [h._replace(trivial=False) for h in pair.a_subdomain.handles] == [
                h._replace(trivial=False) for h in ref.a_subdomain.handles
            ], (label, closed)
            count += 1
    assert count == 452


def test_the_subdomain_of_every_stratum_is_the_full_plan():
    """Keeping every stratum keeps every handle as the full plan has it,
    trivial marks included."""
    phi = EXAMPLES["affine2"]()
    plan = handle_plan(phi)
    assert [h.trivial for h in plan.handles] == [False, True, True, True]
    assert restriction_pairs(phi, [s.name for s in phi.strata]).a_subdomain == plan


def test_restriction_pair_json_round_trip():
    pair = restriction_pairs(EXAMPLES["necklace2"](), ["v1"])
    d = pair.to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert "closed" in d and "removed_handles" in d
    assert "v1" in pair.to_text()
