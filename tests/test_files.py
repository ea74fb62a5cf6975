"""fanifold/1 JSON round-trips and schema validation."""

import copy
import json
import os

import pytest

from fanifolds import files
from fanifolds.bmodel import chart_diagram, components, full_diagram, limit_census
from fanifolds.cli import run
from fanifolds.cones import Cone, zero_cone
from fanifolds.examples import EXAMPLES, orthant_fan, projective_fan
from fanifolds.fanifold import (
    Arrow,
    Fanifold,
    Stratum,
    from_fan,
    product,
    sphere_section,
)
from fanifolds.fans import Fan, StackyFan
from fanifolds.lattice import lattice_map
from fanifolds.mesh import export_mesh
from fanifolds.mirror import mirror_dictionary, restriction_pairs
from fanifolds.skeleton import euler_characteristic_c, handle_plan, skeleton_model
from test_fans import _random_basis_fans


def fanifold_to_dict(phi: Fanifold) -> dict:
    """The ``fanifold/1`` document as a dict: the reference ``files.dumps``
    writes byte for byte as ``json.dumps(..., indent=2)`` does."""
    strata = []
    fans = {}  # stratum name -> its fan entry; the last one wins, as in by_name
    for st in phi.strata:
        fans[st.name] = fan = files._fan_to_dict(st.fan)
        entry = {
            "id": st.name,
            "dim": st.dim,
            "interior": st.interior,
            "lattice_rank": st.lattice_rank,
            "fan": fan,
        }
        if st.chi_c is not None:
            entry["chi_c"] = st.chi_c
        strata.append(entry)
    arrows = [
        {
            "from": a.source,
            "to": a.target,
            "cone": list(fans[a.source]["cones"][a.cone_index]),
            "quotient_matrix": [list(row) for row in a.iso.matrix],
        }
        for a in phi.arrows
    ]
    return {
        "format": files.FORMAT,
        "dimension": phi.dimension,
        "strata": strata,
        "arrows": arrows,
    }


DATA_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "fanifolds", "data"
)


def test_every_example_round_trips_bit_exactly():
    for name, build in sorted(EXAMPLES.items()):
        phi = build()
        text = files.dumps(phi)
        again = files.dumps(files.loads(text))
        assert text == again, name


def test_round_trip_preserves_structure():
    for name in ("square", "quadric_stacky", "necklace1"):
        phi = EXAMPLES[name]()
        phi2 = files.loads(files.dumps(phi))
        assert phi2.dimension == phi.dimension
        assert [s.name for s in phi2.strata] == [s.name for s in phi.strata]
        for a, b in zip(phi.strata, phi2.strata):
            assert a.plain_fan.cones == b.plain_fan.cones
            assert a.is_stacky == b.is_stacky
            if a.is_stacky:
                assert a.fan.multiples == b.fan.multiples
        assert [
            (a.source, a.target, a.cone_index, a.iso.matrix) for a in phi.arrows
        ] == [(a.source, a.target, a.cone_index, a.iso.matrix) for a in phi2.arrows]


def test_bundled_data_matches_builders():
    for name, build in sorted(EXAMPLES.items()):
        path = os.path.join(DATA_DIR, f"{name}.json")
        assert os.path.exists(path), name
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == files.dumps(build()), name


def _diagram_key(diagram):
    """A chart diagram as plain values: its maps are values already."""
    return diagram.objects, diagram.arrows, diagram.warnings


def _answers(phi):
    """Everything the library answers from a diagram, except handle plans
    and meshes (see below)."""
    closures = [tuple(sorted(phi.down_closure([s.name]))) for s in phi.strata]
    model = skeleton_model(phi)
    return (
        phi.validate(),
        components(phi),
        [_diagram_key(chart_diagram(phi, s.name)) for s in phi.strata],
        [limit_census(full_diagram(phi), d).dimension for d in range(4)],
        model.strata,
        model.incidences,
        euler_characteristic_c(model),
        mirror_dictionary(phi).to_text(),
        [restriction_pairs(phi, z).to_text() for z in closures],
    )


def _mesh(phi):
    try:
        return export_mesh(skeleton_model(phi), 4)
    except ValueError as exc:  # total dimension above 2
        return str(exc)


def test_bundled_files_answer_as_their_builders():
    """A bundled file gives the answers its builder gives.  Handle plans and
    meshes still read ``Fanifold.source_fan``, which only ``from_fan`` sets
    and files do not carry (ROADMAP item 1), so on those the examples where
    built and loaded differ are listed; the lists may only shrink."""
    handles_differ, meshes_differ = [], []
    for name, build in sorted(EXAMPLES.items()):
        built = build()
        loaded = files.load_fanifold(os.path.join(DATA_DIR, f"{name}.json"))
        assert _answers(built) == _answers(loaded), name
        if handle_plan(built) != handle_plan(loaded):
            handles_differ.append(name)
        if _mesh(built) != _mesh(loaded):
            meshes_differ.append(name)
    # the from_fan examples, whose built positive-dimensional handles are trivial
    assert handles_differ == [
        "affine1", "affine2", "affine3", "proj1", "proj2", "proj3", "quadric_stacky",
    ]
    # the fan layout of the from_fan examples in dimension 2 and 1 (affine1
    # draws the same either way), and square and unigon, whose files list a
    # corner's rays in another order, so their sectors differ
    assert meshes_differ == [
        "affine2", "proj1", "proj2", "quadric_stacky", "square", "unigon",
    ]


def _renamed(phi, names):
    """``phi`` with its strata renamed by ``names``."""
    return Fanifold(
        dimension=phi.dimension,
        strata=[s._replace(name=names[s.name]) for s in phi.strata],
        arrows=[
            a._replace(source=names[a.source], target=names[a.target])
            for a in phi.arrows
        ],
    )


def test_dumps_writes_what_json_dumps_writes():
    """The writer against ``json.dumps(d, indent=2)``, byte for byte: every
    example, from_fan, sphere_section and product of plain, subdivided and
    stacky fans in random lattice bases, the empty diagram, ids that need
    escaping, and an unvalidated diagram with a stratum's ``chi_c``, a
    stacky fan entry, a fan with no rays and no cones, a rank-0 target iso
    (``"quotient_matrix": []``) and a matrix of zero-length rows.  A
    diagram whose ids repeat is written too (an arrow names its cone by the
    last entry of its source's id), but does not load."""
    interval = EXAMPLES["interval"]()
    diagrams = [build() for _, build in sorted(EXAMPLES.items())]
    for fan in _random_basis_fans():
        chart = from_fan(fan)
        diagrams += [chart, sphere_section(fan), product(chart, interval)]
    diagrams.append(Fanifold(2, [], []))
    plane = orthant_fan(2)  # cone 0 is the quadrant
    strata = [
        Stratum(name="p", dim=0, fan=plane, chi_c=5),
        Stratum(name="q", dim=1, fan=StackyFan(plane, {(1, 0): 3}), interior=False),
        Stratum(name="empty", dim=2, fan=Fan([], 2)),
        Stratum(name="pt", dim=2, fan=Fan([zero_cone(0)], 0), chi_c=-2),
    ]
    arrows = [
        Arrow("p", "pt", 0, lattice_map((), 0, 0)),
        Arrow("q", "empty", 0, lattice_map(((), ()), 0, 2)),
    ]
    hand = Fanifold(2, strata, arrows)
    diagrams.append(hand)
    ids = ['a "quoted" \\ id', "caf\u00e9 \u2192 \u221e", "tab\there\nnewline", "\U0001d54f"]
    square = EXAMPLES["square"]()
    names = {s.name: f"{ids[k % 4]}{k}" for k, s in enumerate(square.strata)}
    diagrams.append(_renamed(square, names))
    for phi in diagrams:
        text = files.dumps(phi)
        assert text == json.dumps(fanifold_to_dict(phi), indent=2) + "\n"
        assert files.dumps(files.loads(text)) == text
    assert "\\u00e9" in files.dumps(diagrams[-1])
    repeated = Fanifold(
        2,
        [*strata, Stratum(name="p", dim=0, fan=projective_fan(2))],
        [Arrow("p", "pt", 2, lattice_map((), 1, 0))],
    )
    text = files.dumps(repeated)
    assert text == json.dumps(fanifold_to_dict(repeated), indent=2) + "\n"
    text = files.dumps(hand)
    for needle in ('"chi_c": 5', '"stacky_beta": [', '"rays": [],', '"quotient_matrix": []', "[],\n        []"):
        assert needle in text, needle


def test_the_writer_writes_none_as_json_dumps_does():
    """CLI reports go through ``_indented``; ``None`` is ``null``, alone,
    as a value and in a list, and nothing outside JSON is written."""
    for value in (None, {"a": None, "b": [None, 1, True]}, [[None], {}, []]):
        assert files._indented(value, "") == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        files._indented({"x": 1.5}, "")


def test_save_and_load_files(tmp_path):
    phi = EXAMPLES["interval"]()
    path = tmp_path / "interval.json"
    files.save_fanifold(phi, str(path))
    assert files.dumps(files.load_fanifold(str(path))) == files.dumps(phi)


def test_dumps_refuses_a_cone_with_a_line():
    halfplane = Fan([Cone([(1, 0), (-1, 0), (0, 1)], 2)], 2)
    phi = Fanifold(2, [Stratum(name="s", dim=0, fan=halfplane)], [])
    with pytest.raises(ValueError, match="^cone is not recovered by its extremal rays$"):
        files.dumps(phi)


def _base():
    return json.loads(files.dumps(EXAMPLES["3a1"]()))


def _expect_value_error(doc):
    with pytest.raises(ValueError):
        files.fanifold_from_dict(doc)


def test_load_rejects_wrong_format():
    d = _base()
    d["format"] = "fanifold/2"
    _expect_value_error(d)


def test_load_rejects_duplicate_ids():
    d = _base()
    d["strata"].append(copy.deepcopy(d["strata"][0]))
    _expect_value_error(d)


def test_load_rejects_unknown_arrow_endpoints():
    d = _base()
    d["arrows"][0]["from"] = "ghost"
    _expect_value_error(d)


def test_load_rejects_missing_ray_references():
    d = _base()
    d["arrows"][0]["cone"] = [9]
    _expect_value_error(d)
    d = _base()
    d["strata"][0]["fan"]["cones"] = [[0, 1]]
    _expect_value_error(d)


def test_load_rejects_bad_quotient_matrix_shape():
    d = _base()
    d["arrows"][0]["quotient_matrix"] = [[1]]
    _expect_value_error(d)


def test_load_rejects_bad_stacky_beta():
    d = json.loads(files.dumps(EXAMPLES["quadric_stacky"]()))
    target = next(
        s for s in d["strata"] if s["fan"].get("stacky_beta") and s["fan"]["rays"]
    )
    good = copy.deepcopy(d)

    target_i = d["strata"].index(target)
    bad = copy.deepcopy(good)
    bad["strata"][target_i]["fan"]["stacky_beta"][0] = [5, 7]
    _expect_value_error(bad)

    bad = copy.deepcopy(good)
    bad["strata"][target_i]["fan"]["stacky_beta"][0] = [1, -1]
    _expect_value_error(bad)

    bad = copy.deepcopy(good)
    bad["strata"][target_i]["fan"]["stacky_beta"] = [[1, 1]]
    _expect_value_error(bad)


def test_loads_rejects_junk():
    with pytest.raises(ValueError):
        files.loads("{this is not json")


def test_stacky_beta_encodes_multiples():
    d = json.loads(files.dumps(EXAMPLES["quadric_stacky"]()))
    origin = next(
        s for s in d["strata"] if len(s["fan"].get("rays", [])) == 2
    )
    assert origin["fan"]["stacky_beta"] == origin["fan"]["rays"]


def _cli_load_error(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run(["validate", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_malformed_shapes_exit_2_naming_the_culprit(tmp_path, capsys):
    d = _base()
    d["strata"][0]["fan"] = "x"
    name = d["strata"][0]["id"]
    assert _cli_load_error(tmp_path, capsys, d) == (
        f"error: stratum {name!r}: fan must be a JSON object"
    )

    d = _base()
    del d["arrows"][1]["from"]
    assert _cli_load_error(tmp_path, capsys, d) == "error: arrow 1 lacks 'from'"

    for key in ("strata", "arrows"):
        for junk in ("x", {}, 3):
            d = _base()
            d[key] = junk
            assert _cli_load_error(tmp_path, capsys, d) == (
                f"error: {key} must be a JSON list"
            )

    d = _base()
    d["strata"][2] = ["not", "a", "stratum"]
    assert _cli_load_error(tmp_path, capsys, d) == (
        "error: stratum 2 must be a JSON object"
    )
    assert _cli_load_error(tmp_path, capsys, [1]) == (
        "error: the document must be a JSON object"
    )


def _permute_rays(d: dict, stratum: str, order: list[int]) -> dict:
    """The same document with one stratum's rays listed in ``order``: its
    fan cones, stacky rows and outgoing arrow cones follow the rays."""
    d = copy.deepcopy(d)
    new_index = {old: new for new, old in enumerate(order)}
    fan = next(s["fan"] for s in d["strata"] if s["id"] == stratum)
    fan["rays"] = [fan["rays"][i] for i in order]
    fan["cones"] = [[new_index[i] for i in c] for c in fan["cones"]]
    if "stacky_beta" in fan:
        fan["stacky_beta"] = [fan["stacky_beta"][i] for i in order]
    for a in d["arrows"]:
        if a["from"] == stratum:
            a["cone"] = [new_index[i] for i in a["cone"]]
    return d


@pytest.mark.parametrize(
    "name, stratum, order",
    [("proj1", "s2", [1, 0]), ("proj2", "s3", [2, 0, 1]), ("quadric_stacky", "s1", [1, 0])],
)
def test_arrow_cones_index_the_file_ray_list(name, stratum, order):
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as fh:
        text = fh.read()
    bundled = files.loads(text)
    permuted = files.fanifold_from_dict(_permute_rays(json.loads(text), stratum, order))
    assert permuted.validate().valid
    assert [
        (a.source, a.target, a.cone_index, a.iso.matrix) for a in permuted.arrows
    ] == [(a.source, a.target, a.cone_index, a.iso.matrix) for a in bundled.arrows]
    assert files.dumps(permuted) == text


def _bundled(name: str) -> dict:
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_arrow_cones_are_found_by_the_cone_rule(name):
    """The loader matches an arrow's cone to a fan entry by its ray indices;
    the rule it replaces builds the cone and compares it with every cone of
    the fan, and both give each arrow the same cone index."""
    d = _bundled(name)
    phi = files.fanifold_from_dict(d)
    rays = {s["id"]: s["fan"]["rays"] for s in d["strata"]}
    for a, entry in zip(phi.arrows, d["arrows"]):
        fan = phi.stratum(a.source).plain_fan
        idx, r = entry["cone"], rays[a.source]
        cone = Cone([r[i] for i in idx], fan.rank) if idx else zero_cone(fan.rank)
        assert a.cone_index == fan.cone_index(cone), (name, entry)


def test_an_arrow_cone_listed_twice_in_its_fan_takes_the_first_entry():
    """A fan entry listed twice makes the fan invalid, yet the file loads,
    and its arrow takes the first entry, as ``Fan.cone_index`` does."""
    d = _bundled("square")
    arrow = d["arrows"][0]
    src = next(s for s in d["strata"] if s["id"] == arrow["from"])
    src["fan"]["cones"].append(list(arrow["cone"]))
    phi = files.fanifold_from_dict(d)
    assert phi.arrows[0].cone_index == src["fan"]["cones"].index(arrow["cone"]) == 0
    assert not phi.validate().valid


@pytest.mark.parametrize(
    "name, fans, strata",
    [("proj3", 7, 15), ("affine3", 5, 8), ("square", 3, 9), ("necklace3", 2, 6)],
)
def test_equal_fan_entries_load_as_one_fan(name, fans, strata):
    d = _bundled(name)
    entries = {(s["lattice_rank"], json.dumps(s["fan"], sort_keys=True)) for s in d["strata"]}
    phi = files.fanifold_from_dict(d)
    assert len(phi.strata) == strata
    assert len({id(s.fan) for s in phi.strata}) == len(entries) == fans


def test_a_stacky_fan_entry_never_shares_with_a_plain_one():
    """(s0,s2), (s0,s3) and (s2,s0) of square.json list one plain fan; with
    trivial multiples on (s0,s3), it loads as a stacky fan of its own."""
    d = _bundled("square")
    by_id = {s["id"]: s for s in d["strata"]}
    by_id["(s0,s3)"]["fan"]["stacky_beta"] = [[1]]
    fan = {s.name: s.fan for s in files.fanifold_from_dict(d).strata}
    assert fan["(s0,s2)"] is fan["(s2,s0)"]
    assert isinstance(fan["(s0,s3)"], StackyFan)
    assert not isinstance(fan["(s0,s2)"], StackyFan)
    assert fan["(s0,s3)"].cones == fan["(s0,s2)"].cones
    by_id["(s2,s0)"]["fan"]["stacky_beta"] = [[1]]
    fan = {s.name: s.fan for s in files.fanifold_from_dict(d).strata}
    assert fan["(s0,s3)"] is fan["(s2,s0)"] is not fan["(s0,s2)"]


def test_an_arrow_cone_named_through_a_repeated_ray_loads(tmp_path, capsys):
    """Arrow 0 of square.json names its cone through a second copy of a ray
    of its source fan, which no fan entry uses: the ray indices match no
    entry, so the loader compares it as a cone and finds the same one."""
    d = _bundled("square")
    src = next(s for s in d["strata"] if s["id"] == d["arrows"][0]["from"])
    rays = src["fan"]["rays"]
    rays.append(rays[0])
    assert d["arrows"][0]["cone"] == [0, 1]
    d["arrows"][0]["cone"] = [1, len(rays) - 1]
    phi = files.fanifold_from_dict(d)
    bundled = files.load_fanifold(os.path.join(DATA_DIR, "square.json"))
    assert phi.validate().valid
    assert [(a.cone_index, a.iso.matrix) for a in phi.arrows] == [
        (a.cone_index, a.iso.matrix) for a in bundled.arrows
    ]
    assert files.dumps(phi) == files.dumps(bundled)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert run(["validate", "--file", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid: true"



_S02 = ("strata", 1)  # the stratum '(s0,s2)' of square.json, of lattice rank 1
_DROP = object()  # delete the key instead of setting it


def _edited(name: str, edits: dict) -> dict:
    """Bundled document ``name`` with each path of ``edits`` set to its
    value, or deleted where the value is ``_DROP``."""
    d = _bundled(name)
    for path, value in edits.items():
        entry = d
        for key in path[:-1]:
            entry = entry[key]
        if value is _DROP:
            del entry[path[-1]]
        else:
            entry[path[-1]] = value
    return d


_SQUARE_CONE = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]  # four rays, dimension 3

# square.json edits, each with the loader's line
NUMBER_FAULTS = [
    ({_S02 + ("fan", "rays", 0, 0): 1.5}, "stratum '(s0,s2)': fan rays: 1.5 is not an integer"),
    ({_S02 + ("dim",): 1.25}, "stratum '(s0,s2)': dim: 1.25 is not an integer"),
    ({_S02 + ("dim",): True}, "stratum '(s0,s2)': dim: True is not an integer"),
    ({_S02 + ("lattice_rank",): "1"}, "stratum '(s0,s2)': lattice_rank: '1' is not an integer"),
    ({_S02 + ("chi_c",): -1.0}, "stratum '(s0,s2)': chi_c: -1.0 is not an integer"),
    ({("dimension",): "2"}, "dimension: '2' is not an integer"),
    ({("arrows", 3, "quotient_matrix", 0, 0): 1.0}, "arrow 3: quotient_matrix: 1.0 is not an integer"),
    ({_S02 + ("interior",): "no"}, "stratum '(s0,s2)': interior 'no' is not true or false"),
    ({_S02 + ("interior",): 1}, "stratum '(s0,s2)': interior 1 is not true or false"),
    ({_S02 + ("fan", "cones", 0, 0): False}, "stratum '(s0,s2)': fan cone 0 refers to missing ray False"),
    ({("arrows", 3, "cone", 0): True}, "arrow 3: cone refers to missing ray True"),
    (
        {
            _S02 + ("fan", "rays", 0, 0): 1.5,
            _S02 + ("dim",): 1.25,
            _S02 + ("interior",): "no",
        },
        "stratum '(s0,s2)': interior 'no' is not true or false",
    ),
    ({_S02 + ("fan", "rays", 0): []}, "stratum '(s0,s2)': ray () does not have 1 entries"),
    ({_S02 + ("fan", "stacky_beta"): [[]]}, "stratum '(s0,s2)': stacky generator () does not have 1 entries"),
    ({_S02 + ("fan", "stacky_beta"): []}, "stratum '(s0,s2)': stacky_beta needs one row per ray"),
    (
        {_S02 + ("fan",): {"rays": [[1], [2]], "cones": [[0], []], "stacky_beta": [[3], [2]]}},
        "stratum '(s0,s2)': stacky_beta row 1 is a second row for ray (1,)",
    ),
    ({_S02 + ("fan", "stacky_beta"): [[0]]}, "stratum '(s0,s2)': stacky generator (0,) is not a positive multiple of (1,)"),
    ({_S02 + ("fan", "stacky_beta"): [[-2]]}, "stratum '(s0,s2)': stacky generator (-2,) is not a positive multiple of (1,)"),
    (
        {
            _S02 + ("lattice_rank",): 3,
            _S02 + ("fan",): {
                "rays": _SQUARE_CONE,
                "cones": [[], [0, 1, 2, 3]],
                "stacky_beta": _SQUARE_CONE,
            },
        },
        "stratum '(s0,s2)': fan cone 1 is not simplicial: a stacky fan's cones are",
    ),
    ({_S02 + ("fan", "rays", 0): [0]}, "stratum '(s0,s2)': ray (0,) is zero"),
]


@pytest.mark.parametrize("edits, line", NUMBER_FAULTS)
def test_malformed_numbers_and_flags_exit_2(tmp_path, capsys, edits, line):
    """A float, string or boolean where the schema has an integer, and
    anything but a boolean for ``interior``; each once loaded as a nearby
    value, ``[1.5]`` as ray ``(1,)`` and ``true`` as ray index 1.  A bad
    ray index, a short ray, a zero ray and a short or missing
    ``stacky_beta`` row name their stratum or arrow too, and so do a stacky
    fan entry that reads two ways: two ``stacky_beta`` rows for one ray
    (the last row once won) and a cone that is not simplicial."""
    assert _cli_load_error(tmp_path, capsys, _edited("square", edits)) == f"error: {line}"


def test_a_negative_lattice_rank_is_refused_naming_its_stratum(tmp_path, capsys):
    """A lattice of rank -1 is no lattice.  Loaded, a one-stratum file with
    one listing the zero cone made validation report the wrong fault: the
    zero cone of rank -1 has dimension -1, so "missing the zero cone"."""
    d = {
        "format": "fanifold/1",
        "dimension": 0,
        "strata": [{"id": "a", "dim": 1, "lattice_rank": -1, "fan": {"rays": [], "cones": [[]]}}],
        "arrows": [],
    }
    line = "stratum 'a': lattice_rank -1 is negative"
    assert _cli_load_error(tmp_path, capsys, d) == f"error: {line}"
    d["strata"][0]["lattice_rank"] = 0
    assert files.fanifold_from_dict(d).stratum("a").lattice_rank == 0


_A3 = ("arrows", 3)  # square.json's arrow (s2,s2) -> (s0,s2) on cone [1], matrix [[1]]


# square.json edits of arrow 3, each with the loader's line
ARROW_FAULTS = [
    ({_A3: ["(s2,s2)", "(s0,s2)"]}, "arrow 3 must be a JSON object"),
    ({_A3: None}, "arrow 3 must be a JSON object"),
    ({_A3 + ("from",): _DROP}, "arrow 3 lacks 'from'"),
    ({_A3 + ("to",): _DROP}, "arrow 3 lacks 'to'"),
    ({_A3 + ("cone",): _DROP}, "arrow 3 lacks 'cone'"),
    ({_A3 + ("quotient_matrix",): _DROP}, "arrow 3 lacks 'quotient_matrix'"),
    ({_A3 + ("from",): 4}, "arrow 3: from 4 is not a stratum id"),
    ({_A3 + ("to",): None}, "arrow 3: to null is not a stratum id"),
    ({_A3 + ("to",): "(s9,s9)"}, 'arrow 3: to "(s9,s9)" is not a stratum id'),
    ({_A3 + ("cone", 0): True}, "arrow 3: cone refers to missing ray True"),
    ({_A3 + ("cone", 0): 1.0}, "arrow 3: cone refers to missing ray 1.0"),
    ({_A3 + ("cone", 0): -1}, "arrow 3: cone refers to missing ray -1"),
    ({_A3 + ("cone", 0): 2}, "arrow 3: cone refers to missing ray 2"),
    ({_A3 + ("cone",): 1}, "arrow 3: cone must be a JSON list"),
    ({_A3 + ("cone",): "1"}, "arrow 3: cone must be a JSON list"),
    ({_A3 + ("cone",): [0, 1]}, "arrow 3: quotient_matrix must be 1 x 0"),
    ({_A3 + ("quotient_matrix",): [[1], [0]]}, "arrow 3: quotient_matrix must be 1 x 1"),
    ({_A3 + ("quotient_matrix",): []}, "arrow 3: quotient_matrix must be 1 x 1"),
    ({_A3 + ("quotient_matrix",): [[1, 0]]}, "arrow 3: quotient_matrix must be 1 x 1"),
    ({_A3 + ("quotient_matrix",): [[]]}, "arrow 3: quotient_matrix must be 1 x 1"),
    ({_A3 + ("quotient_matrix", 0, 0): True}, "arrow 3: quotient_matrix: True is not an integer"),
    ({_A3 + ("quotient_matrix", 0, 0): 1.0}, "arrow 3: quotient_matrix: 1.0 is not an integer"),
    ({_A3 + ("quotient_matrix",): 1}, "arrow 3: quotient_matrix must be a JSON list"),
    ({_A3 + ("quotient_matrix", 0): 1}, "arrow 3: quotient_matrix must be a JSON list"),
    # two faults: the first in schema order is named
    ({_A3 + ("from",): _DROP, _A3 + ("cone",): _DROP}, "arrow 3 lacks 'from', 'cone'"),
    (
        {_A3 + ("cone", 0): True, _A3 + ("quotient_matrix", 0, 0): 1.0},
        "arrow 3: cone refers to missing ray True",
    ),
    ({_A3 + ("to",): "x", _A3 + ("cone", 0): 1.0}, 'arrow 3: to "x" is not a stratum id'),
    (
        {_A3 + ("quotient_matrix",): [[1], [1.0]]},
        "arrow 3: quotient_matrix: 1.0 is not an integer",
    ),
    (
        {_A3 + ("quotient_matrix",): [[True, 1]]},
        "arrow 3: quotient_matrix: True is not an integer",
    ),
    ({_A3 + ("from",): []}, "arrow 3: from [] is not a stratum id"),
    # a bad from and a bad to: from is checked first
    ({_A3 + ("from",): "y", _A3 + ("to",): None}, 'arrow 3: from "y" is not a stratum id'),
]


@pytest.mark.parametrize("edits, line", ARROW_FAULTS)
def test_malformed_arrow_entries_exit_2_with_the_first_fault(tmp_path, capsys, edits, line):
    """A malformed arrow entry is named by its index and its first fault in
    schema order (object, keys, ``from``, ``to``, cone, matrix entries,
    matrix shape), the cone and the matrix in the words the stratum fan
    checks use: ``true`` and ``1.0`` are no ray index or matrix entry, an
    endpoint is printed as JSON, and a matrix of the wrong shape names the
    shape its arrow needs."""
    assert _cli_load_error(tmp_path, capsys, _edited("square", edits)) == f"error: {line}"


# the line of the necklace2.json edit that names, on arrow 0, rays of no cone
NO_CONE_FAULT = ({("arrows", 0, "cone"): [0, 1]}, "arrow 0: cone [0, 1] is not a cone of the fan at 'v1'")


def test_an_arrow_cone_on_rays_of_no_cone_is_named_by_its_arrow(tmp_path, capsys):
    """The rays [-1] and [1] of the line span no cone of its fan."""
    edits, line = NO_CONE_FAULT
    assert _cli_load_error(tmp_path, capsys, _edited("necklace2", edits)) == f"error: {line}"


def test_a_stacky_generator_for_a_ray_no_cone_holds_names_its_stratum(tmp_path, capsys):
    """Every cone of quadric_stacky.json's ``s1`` that held ray [-1, 1] is
    dropped, and its ``stacky_beta`` row stays.  The loader names the
    stratum and the ray, where the stacky fan's own check named neither:
    the ray no cone holds is refused before its row is read."""
    d = _bundled("quadric_stacky")
    fan = next(s for s in d["strata"] if s["id"] == "s1")["fan"]
    fan["cones"] = [c for c in fan["cones"] if 0 not in c]
    line = "stratum 's1': no cone holds ray (-1, 1)"
    assert _cli_load_error(tmp_path, capsys, d) == f"error: {line}"


def test_a_ray_no_cone_holds_is_refused_naming_its_stratum(tmp_path, capsys):
    """A ray that no cone entry holds, by vector, once loaded as valid, and
    ``dumps`` wrote the file back without it.  A ray listed twice, both
    entries a vector some cone holds, still loads, and dumps as the file."""
    d = _bundled("square")
    fan = next(s for s in d["strata"] if s["id"] == "(s2,s2)")["fan"]
    fan["rays"].append([5, 7])
    line = "stratum '(s2,s2)': no cone holds ray (5, 7)"
    assert _cli_load_error(tmp_path, capsys, d) == f"error: {line}"
    fan["rays"][-1] = list(fan["rays"][0])
    with open(os.path.join(DATA_DIR, "square.json"), encoding="utf-8") as fh:
        assert files.dumps(files.fanifold_from_dict(d)) == fh.read()


def test_loading_runs_no_kernel(monkeypatch):
    """Loading a bundled file reads each arrow cone's dimension off one
    Hermite pass (``Cone.dim``), so it builds no perp basis and runs no
    ``integer_kernel``.  The loaded diagram still dumps to the file."""
    from fanifolds import cones, fanifold

    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("integer_kernel ran while loading")

    for mod in (cones, fanifold):
        monkeypatch.setattr(mod, "integer_kernel", counted)
    texts = {}
    for name in sorted(os.listdir(DATA_DIR)):
        with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
            texts[name] = fh.read()
    loaded = {name: files.loads(text) for name, text in texts.items()}
    assert len(loaded) == 15 and not calls
    monkeypatch.undo()
    for name, phi in loaded.items():
        assert files.dumps(phi) == texts[name], name


def test_an_arrow_takes_the_fan_entry_its_ray_indices_name():
    """An arrow whose cone is a fan entry equal to an earlier one (its rays
    and a ray through its interior) loads on the entry its ray indices
    name, not on the first equal cone."""
    d = _bundled("square")
    arrow = d["arrows"][0]
    src = next(s for s in d["strata"] if s["id"] == arrow["from"])
    rays, cones = src["fan"]["rays"], src["fan"]["cones"]
    rays.append([x + y for x, y in zip(*(rays[i] for i in arrow["cone"]))])
    arrow["cone"] = arrow["cone"] + [len(rays) - 1]
    cones.append(arrow["cone"])
    phi = files.fanifold_from_dict(d)
    fan = phi.stratum(src["id"]).fan
    assert phi.arrows[0].cone_index == len(cones) - 1
    assert fan.cone_index(fan.cones[-1]) < len(cones) - 1
