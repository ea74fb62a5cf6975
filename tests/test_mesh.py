"""Schematic OBJ export of skeleton models."""

import pytest

from fanifolds import mesh
from fanifolds.cli import resolve_input
from fanifolds.examples import EXAMPLES, a1_fan, projective_fan
from fanifolds.fanifold import from_fan, manifold
from fanifolds.files import load_fanifold
from fanifolds.mesh import export_mesh
from fanifolds.skeleton import skeleton_model


def groups(obj_text):
    return [line[2:] for line in obj_text.splitlines() if line.startswith("g ")]


def parse_counts(obj_text):
    v = f = l = 0
    for line in obj_text.splitlines():
        if line.startswith("v "):
            v += 1
        elif line.startswith("f "):
            f += 1
        elif line.startswith("l "):
            l += 1
    return v, f, l


def test_three_lines_mesh_groups():
    obj = export_mesh(skeleton_model(EXAMPLES["3a1"]()), resolution=16)
    gs = groups(obj)
    assert [g for g in gs if g.endswith("cylinder")] == [
        "a.tau0.cylinder",
        "b.tau0.cylinder",
        "c.tau0.cylinder",
    ]
    assert [g for g in gs if g.endswith("triangle")] == ["u.tau0.triangle"]
    assert gs[-1] == "boundary"
    v, f, l = parse_counts(obj)
    assert f > 0 and l > 0


def test_affine_line_mesh_kinds():
    obj = export_mesh(skeleton_model(from_fan(a1_fan())), resolution=12)
    assert groups(obj) == [
        "s0.tau0.circle",
        "s0.tau1.ray",
        "s1.tau0.segment",
        "boundary",
    ]


def test_square_mesh_one_group_per_skeleton_stratum():
    model = skeleton_model(EXAMPLES["square"]())
    obj = export_mesh(model, resolution=8)
    gs = groups(obj)
    assert len(gs) == len(model.strata) + 1  # plus the boundary trims
    assert gs[-1] == "boundary"


def test_necklace_mesh_has_circles_per_vertex():
    obj = export_mesh(skeleton_model(EXAMPLES["necklace2"]()), resolution=10)
    gs = groups(obj)
    assert sum(1 for g in gs if g.endswith("circle")) == 2
    assert sum(1 for g in gs if g.endswith("segment")) == 2
    assert sum(1 for g in gs if g.endswith("ray")) == 4


def test_mesh_deterministic():
    model = skeleton_model(EXAMPLES["interval"]())
    assert export_mesh(model, resolution=9) == export_mesh(model, resolution=9)


def test_mesh_faces_reference_existing_vertices():
    for name in ("3a1", "square", "interval", "quadric_stacky"):
        obj = export_mesh(skeleton_model(EXAMPLES[name]()), resolution=6)
        n_v, _, _ = parse_counts(obj)
        for line in obj.splitlines():
            if line.startswith(("f ", "l ")):
                for tok in line.split()[1:]:
                    idx = int(tok)
                    assert 1 <= idx <= n_v, (name, line)


def test_mesh_vertex_format_avoids_negative_zero():
    obj = export_mesh(skeleton_model(EXAMPLES["interval"]()), resolution=8)
    assert "-0.000000" not in obj


def test_mesh_rejects_high_dimensions_and_tiny_resolution():
    with pytest.raises(ValueError):
        export_mesh(skeleton_model(manifold(3)), resolution=8)
    with pytest.raises(ValueError):
        export_mesh(skeleton_model(EXAMPLES["interval"]()), resolution=2)


def test_mesh_projective_plane_renders_fan_layout():
    obj = export_mesh(skeleton_model(from_fan(projective_fan(2))), resolution=12)
    gs = groups(obj)
    assert len(gs) == 19 + 1
    assert any(g.endswith("sector") for g in gs)


_OLD_COORDINATES = {}


def _old_coordinate(c):
    """One coordinate as the per-coordinate writer printed it.  Memoized by
    value across the tests; -0.0 and 0.0 share a key, and print alike."""
    text = _OLD_COORDINATES.get(c)
    if text is None:
        text = _OLD_COORDINATES[c] = f"{round(c, 6) + 0.0:.6f}"
    return text


class _PerCoordinateWriter(mesh._Writer):
    """The OBJ writer before batching, fed the same calls as the package's:
    one rounding and one format per coordinate, one join per face.  It keeps
    its own lines beside the package's."""

    made = []

    def __init__(self):
        super().__init__()
        self.old = []
        self.made.append(self)

    def group(self, name):
        self.old.append(f"g {name}")
        super().group(name)

    def vertices(self, points):
        for p in points:
            self.old.append("v " + " ".join([_old_coordinate(c) for c in p]))
        return super().vertices(points)

    def quads(self, quads):
        for q in quads:
            self.old.append("f " + " ".join(str(i) for i in q))
        super().quads(quads)

    def face(self, ids):
        self.old.append("f " + " ".join(str(i) for i in ids))
        super().face(ids)

    def line(self, ids):
        self.old.append("l " + " ".join(str(i) for i in ids))
        super().line(ids)

    def old_text(self):
        return "\n".join(self.old) + "\n"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_mesh_bytes_match_the_per_coordinate_writer(name, monkeypatch):
    """On every example of dimension at most 2, built and loaded, at every
    resolution from 3 to 40, the batched writer's text is the one the
    per-coordinate writer gives for the same geometry."""
    monkeypatch.setattr(mesh, "_Writer", _PerCoordinateWriter)
    for phi in (EXAMPLES[name](), load_fanifold(resolve_input(f"{name}.json"))):
        model = skeleton_model(phi)
        if phi.dimension > 2:
            assert name in ("affine3", "proj3")
            with pytest.raises(ValueError):
                export_mesh(model, resolution=3)
            continue
        for resolution in range(3, 41):
            _PerCoordinateWriter.made.clear()
            text = export_mesh(model, resolution)
            (writer,) = _PerCoordinateWriter.made
            assert text == writer.old_text(), (name, resolution)


def test_mesh_vertices_print_tiny_negatives_as_zero_and_round_ties_to_even():
    w = mesh._Writer()
    tiny = [(-1e-9, -0.0, -2.0 ** -22), (-4.999e-7, 1e-300, -1e-300)]
    ties = [(k / 128, -k / 128, 3 + k / 128) for k in (1, 3, 5, 7)]
    assert w.vertices(tiny + ties) == range(1, 7)
    lines = w.text().splitlines()
    assert lines[:2] == ["v 0.000000 0.000000 0.000000"] * 2
    assert lines[2] == "v 0.007812 -0.007812 3.007812"  # 0.0078125 -> even
    assert lines[3] == "v 0.023438 -0.023438 3.023438"  # 0.0234375 -> even
    assert lines == ["v " + " ".join(_old_coordinate(c) for c in p) for p in tiny + ties]
