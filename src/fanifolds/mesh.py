"""Schematic OBJ rendering of skeleton models in total dimension <= 2.

One named group per skeleton stratum, ordered by base stratum then cone,
plus a final ``boundary`` group holding the polylines where non-compact
pieces were trimmed.  Group names carry a geometric kind suffix:

    torus     point base, rank-2 fiber torus
    cylinder  curve base, rank-1 fiber torus
    tube      point base, rank-1 fiber torus along a cone direction
    strip     curve base extruded along a cone direction
    sector    flat wedge spanned by a two-dimensional cone
    triangle / quad / <k>gon   a two-cell, named by its corner count
    circle / segment / ray / point   the one- and zero-dimensional kinds

Base geometry is laid out by simple schematic rules: diagrams built by
``from_fan`` are drawn literally (rays and wedges from the origin,
trimmed at unit radius); one-dimensional diagrams are drawn as a chain or
a cycle; diagrams with a single two-cell bounded by its edge strata
become a regular polygon; anything else falls back to a disconnected
grid.  All coordinates are emitted with six fractional digits and a fixed
sampling order, so output is deterministic.
"""

from __future__ import annotations

import math

from .fans import quotient_fan
from .skeleton import SkeletonModel

_RADIUS = 1.0
_TORUS_MAJOR = 0.22
_TORUS_MINOR = 0.08
_FIBER_RADIUS = 0.12
_STRIP_WIDTH = 0.3
_GERM_LENGTH = 0.35
_SECTOR_RADIUS = 0.45


def _planar(v):
    """A lattice vector of rank <= 2 as a point in the plane."""
    x = float(v[0]) if len(v) > 0 else 0.0
    y = float(v[1]) if len(v) > 1 else 0.0
    return (x, y)


def _unit(v):
    x, y = _planar(v)
    n = math.hypot(x, y)
    if n == 0.0:
        return (0.0, 0.0)
    return (x / n, y / n)


class _Writer:
    """OBJ text, a batch of lines at a time.  Vertices are numbered from 1 in
    the order they are emitted.

    A coordinate prints as ``%.6f``: its exact binary value rounded half to
    even at six digits, the digits that rounding it to six places and then
    printing them gives for any |c| below 2**32.  A negative zero prints as
    ``0.000000``."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.count = 0

    def group(self, name: str) -> None:
        self.lines.append(f"g {name}")

    def vertices(self, points) -> range:
        """One ``v`` line per (x, y, z) point; returns their ids in order."""
        first = self.count + 1
        if points:
            block = "\n".join(["v %.6f %.6f %.6f" % p for p in points])
            self.lines.append(block.replace(" -0.000000", " 0.000000"))
            self.count += len(points)
        return range(first, self.count + 1)

    def quads(self, quads) -> None:
        """One ``f`` line per quadruple of vertex ids."""
        if quads:
            self.lines.append("\n".join(["f %d %d %d %d" % q for q in quads]))

    def face(self, ids) -> None:
        self.lines.append("f " + " ".join(str(i) for i in ids))

    def line(self, ids) -> None:
        self.lines.append("l " + " ".join(str(i) for i in ids))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Layout:
    """Planar positions for base strata plus directions for cone pieces."""

    def __init__(self) -> None:
        self.point: dict[str, tuple] = {}
        self.curve: dict[str, list] = {}
        self.curve_ideal: dict[str, tuple] = {}
        self.cell: dict[str, tuple] = {}  # ("poly", loop) or ("sector", apex, d1, d2)
        self.fiber_dir: dict[tuple, tuple] = {}
        self.fiber_sector: dict[tuple, tuple] = {}
        self.strip_dir: dict[tuple, tuple] = {}
        self.circle_normal: dict[str, tuple] = {}  # unset: (0, 1)


def _sample_segment(p, q, steps):
    return [
        (p[0] + (q[0] - p[0]) * s / steps, p[1] + (q[1] - p[1]) * s / steps)
        for s in range(steps + 1)
    ]


def _sample_arc(center, radius, a0, a1, steps):
    return [
        (
            center[0] + radius * math.cos(a0 + (a1 - a0) * s / steps),
            center[1] + radius * math.sin(a0 + (a1 - a0) * s / steps),
        )
        for s in range(steps + 1)
    ]


def _fan_layout(model: SkeletonModel, resolution: int) -> _Layout:
    phi = model.fanifold
    fan = phi.source_fan
    lay = _Layout()
    origin = (0.0, 0.0)
    for i, st in enumerate(phi.strata):
        c = fan.cones[i]
        if c.dim == 0:
            lay.point[st.name] = origin
        elif c.dim == 1:
            d = _unit(c.gens[0])
            end = (d[0] * _RADIUS, d[1] * _RADIUS)
            lay.curve[st.name] = _sample_segment(origin, end, resolution)
            lay.curve_ideal[st.name] = (False, True)
        else:
            d1 = _unit(c.gens[0])
            d2 = _unit(c.gens[-1])
            lay.cell[st.name] = ("sector", origin, d1, d2)
    for i, st in enumerate(phi.strata):
        fq = quotient_fan(fan, i)
        base = fan.cones[i]
        for k in range(len(st.fan.cones)):
            orig = fan.cones[fq.star[k]]
            if orig.dim <= base.dim:
                continue
            if base.dim == 0:
                if orig.dim == 1:
                    lay.fiber_dir[(st.name, k)] = _unit(orig.gens[0])
                else:
                    lay.fiber_sector[(st.name, k)] = (
                        _unit(orig.gens[0]),
                        _unit(orig.gens[-1]),
                    )
            elif base.dim == 1:
                rho = _unit(base.gens[0])
                w = (0.0, 0.0)
                for g in orig.gens:
                    u = _unit(g)
                    w = (w[0] + u[0], w[1] + u[1])
                t = (w[0] - (w[0] * rho[0] + w[1] * rho[1]) * rho[0],
                     w[1] - (w[0] * rho[0] + w[1] * rho[1]) * rho[1])
                if t == (0.0, 0.0):
                    t = (-rho[1], rho[0])
                lay.strip_dir[(st.name, k)] = _unit(t)
    return lay


def _incidence(phi, verts, edges):
    """Each vertex's sorted edge targets, and each edge's vertices in vertex
    order (a vertex twice for two arrows into one edge)."""
    edge_set = set(edges)
    out = {
        v: sorted(a.target for a in phi.out_arrows(v) if a.target in edge_set)
        for v in verts
    }
    ends: dict[str, list[str]] = {e: [] for e in edges}
    for v in verts:
        for e in out[v]:
            ends[e].append(v)
    return out, ends


def _cycle_or_chain_layout(model: SkeletonModel, resolution: int) -> _Layout | None:
    """A cycle when every vertex and edge has two ends, else a chain.  In
    a valid one-dimensional diagram every stratum is a vertex or an edge,
    and a vertex exits only into edges."""
    phi = model.fanifold
    verts = sorted(s.name for s in phi.strata if s.dim == 0)
    edges = sorted(s.name for s in phi.strata if s.dim == 1)
    if not edges:
        return None
    out, ends = _incidence(phi, verts, edges)
    if any(len(x) != 2 for x in (*out.values(), *ends.values())):
        return _chain_layout(phi, verts, edges, ends, resolution)
    order = _walk_cycle(out, ends, verts[0], out[verts[0]][0])
    if order is None:
        return None
    lay = _Layout()
    r = len(order)
    for i, (v, e) in enumerate(order):
        a0 = math.pi / 2 + 2 * math.pi * i / r
        a1 = math.pi / 2 + 2 * math.pi * (i + 1) / r
        pos = (math.cos(a0) * _RADIUS, math.sin(a0) * _RADIUS)
        lay.point.setdefault(v, pos)
        lay.circle_normal.setdefault(v, _unit(pos))
        lay.curve[e] = _sample_arc((0.0, 0.0), _RADIUS, a0, a1, resolution)
        lay.curve_ideal[e] = (False, False)
        st = phi.stratum(v)
        for k, c in enumerate(st.fan.cones):
            if c.dim == 1:
                s = 1.0 if c.gens[0][0] > 0 else -1.0
                tangent = (-math.sin(a0) * s, math.cos(a0) * s)
                lay.fiber_dir[(v, k)] = tangent
    return lay


def _chain_layout(phi, verts, edges, ends, resolution: int) -> _Layout | None:
    if any(len(vs) > 2 for vs in ends.values()):
        return None
    # place edges left to right, sharing vertex positions when attached
    lay = _Layout()
    x = 0.0
    placed: dict[str, float] = {}
    for e in edges:
        vs = sorted(set(ends[e]))
        left = placed.get(vs[0]) if vs else None
        x0 = left if left is not None else x
        x1 = x0 + 1.0
        lay.curve[e] = _sample_segment((x0, 0.0), (x1, 0.0), resolution)
        ideal_l = not vs
        ideal_r = len(vs) < 2
        if vs:
            placed.setdefault(vs[0], x0)
            lay.point.setdefault(vs[0], (placed[vs[0]], 0.0))
            if len(vs) == 2:
                placed.setdefault(vs[1], x1)
                lay.point.setdefault(vs[1], (placed[vs[1]], 0.0))
        lay.curve_ideal[e] = (ideal_l, ideal_r)
        x = x1 + 1.0
    for v in verts:
        lay.point.setdefault(v, (x, 0.0))
        st = phi.stratum(v)
        for k, c in enumerate(st.fan.cones):
            if c.dim == 1:
                s = 1.0 if c.gens[0][0] > 0 else -1.0
                lay.fiber_dir[(v, k)] = (s, 0.0)
    return lay


def _polygon_layout(model: SkeletonModel, resolution: int) -> _Layout | None:
    phi = model.fanifold
    cells = sorted(s.name for s in phi.strata if s.dim == 2)
    edges = sorted(s.name for s in phi.strata if s.dim == 1)
    corners = sorted(s.name for s in phi.strata if s.dim == 0)
    if len(cells) != 1 or len(edges) < 3:
        return None
    top = cells[0]
    if not all(any(a.target == top for a in phi.out_arrows(e)) for e in edges):
        return None
    if corners:
        sides = _edge_cycle(phi, edges, corners)
        if sides is None:
            return None
    else:
        sides = [(None, e) for e in edges]
    k = len(sides)
    pts = [
        (
            _RADIUS * math.cos(math.pi / 2 + 2 * math.pi * i / k),
            _RADIUS * math.sin(math.pi / 2 + 2 * math.pi * i / k),
        )
        for i in range(k)
    ]
    lay = _Layout()
    loop = [pts[i] for i in range(k)]
    lay.cell[top] = ("poly", loop)
    for i, (v, e) in enumerate(sides):
        p, q = pts[i], pts[(i + 1) % k]
        lay.curve[e] = _sample_segment(p, q, resolution)
        nxt = sides[(i + 1) % k][0]
        lay.curve_ideal[e] = (v is None, nxt is None)
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        inward = _unit((-mid[0], -mid[1]))
        st = phi.stratum(e)
        for kk, c in enumerate(st.fan.cones):
            if c.dim == 1:
                lay.strip_dir[(e, kk)] = inward
        if v is not None:
            lay.point[v] = p
            _point_fibers(lay, phi.stratum(v))
    return lay


def _point_fibers(lay, st):
    """A vertex's rays as germ directions and its 2-cones as sectors."""
    for k, c in enumerate(st.fan.cones):
        if c.dim == 1:
            lay.fiber_dir[(st.name, k)] = _unit(c.gens[0])
        elif c.dim == 2:
            lay.fiber_sector[(st.name, k)] = (_unit(c.gens[0]), _unit(c.gens[-1]))


def _edge_cycle(phi, edges, corners):
    """Order edges and corners into one cycle: (corner entering, edge)."""
    vert_edges, edge_verts = _incidence(phi, corners, edges)
    if any(len(x) != 2 for x in (*vert_edges.values(), *edge_verts.values())):
        return None
    e = edges[0]
    return _walk_cycle(vert_edges, edge_verts, min(edge_verts[e]), e)


def _walk_cycle(out, ends, v, e):
    """The (corner entering, edge) pairs met walking from corner ``v`` along
    edge ``e``: each step crosses the edge to its other end and leaves by
    the first edge there not yet walked.  ``out`` maps a corner to its
    edges, ``ends`` each edge to its two corners.  None when the walk
    closes up before every edge of ``ends`` is walked."""
    order = []
    used = set()
    while True:
        order.append((v, e))
        used.add(e)
        pair = ends[e]
        v = pair[1] if pair[0] == v else pair[0]
        nxt = [x for x in out[v] if x not in used]
        if not nxt:
            return order if len(order) == len(ends) else None
        e = nxt[0]


def _grid_layout(model: SkeletonModel, resolution: int) -> _Layout:
    phi = model.fanifold
    lay = _Layout()
    x = 0.0
    for st in phi.strata:
        if st.dim == 0:
            lay.point[st.name] = (x, 0.0)
            _point_fibers(lay, st)
        elif st.dim == 1:
            lay.curve[st.name] = _sample_segment((x, 0.0), (x + 1.0, 0.0), resolution)
            lay.curve_ideal[st.name] = (True, True)
            for k, c in enumerate(st.fan.cones):
                if c.dim == 1:
                    lay.strip_dir[(st.name, k)] = (0.0, 1.0)
        else:
            loop = [(x, 0.0), (x + 1.0, 0.0), (x + 1.0, 1.0), (x, 1.0)]
            lay.cell[st.name] = ("poly", loop)
        x += 2.0
    return lay


# -- piece renderers ---------------------------------------------------------


def _circle(radius, res):
    """``radius`` times the cosine and the sine of each of ``res`` equally
    spaced angles, from 0."""
    out = []
    for j in range(res):
        t = 2 * math.pi * j / res
        out.append((radius * math.cos(t), radius * math.sin(t)))
    return out


def _emit_torus(w, center, res):
    minor = _circle(_TORUS_MINOR, res)
    circles = []
    for cu, su in _circle(1.0, res):
        cx = center[0] + _TORUS_MAJOR * cu
        cy = center[1] + _TORUS_MAJOR * su
        circles.append([(cx + rr * cu, cy + rr * su, z) for rr, z in minor])
    rings = _rings(w, circles)
    _quads_between(w, [*rings, rings[0]])


def _ring(center, normal, offsets):
    """Circle around a planar point, in the plane spanned by the given
    planar normal direction and the z axis, as points; ``offsets`` is the
    fiber circle's ``_circle``."""
    cx, cy = center
    nx, ny = normal
    return [(cx + c * nx, cy + c * ny, z) for c, z in offsets]


def _rings(w, rings):
    """Emit equally long lists of points, one after another; their ids, list
    by list."""
    ids = w.vertices([p for ring in rings for p in ring])
    k = len(rings[0])
    return [ids[i * k:(i + 1) * k] for i in range(len(rings))]


def _emit_tube_along(w, start, direction, length, offsets, boundary):
    """Cylinder from a point along a planar direction; far ring is ideal."""
    normal = (-direction[1], direction[0])
    rings = _rings(w, [
        _ring((start[0] + direction[0] * s, start[1] + direction[1] * s), normal, offsets)
        for s in (0.0, length)
    ])
    _quads_between(w, rings)
    boundary.append([*rings[-1], rings[-1][0]])


def _emit_cylinder(w, curve, ideal, offsets, boundary):
    circles = []
    for i, p in enumerate(curve):
        if i + 1 < len(curve):
            t = _unit((curve[i + 1][0] - p[0], curve[i + 1][1] - p[1]))
        else:
            t = _unit((p[0] - curve[i - 1][0], p[1] - curve[i - 1][1]))
        circles.append(_ring(p, (-t[1], t[0]), offsets))
    rings = _rings(w, circles)
    _quads_between(w, rings)
    if ideal[0]:
        boundary.append([*rings[0], rings[0][0]])
    if ideal[1]:
        boundary.append([*rings[-1], rings[-1][0]])


def _quads_between(w, rings):
    """The quads joining each ring of ids to the next, around the ring."""
    k = len(rings[0])
    steps = [(j, (j + 1) % k) for j in range(k)]
    w.quads([
        (r0[j], r1[j], r1[jn], r0[jn])
        for r0, r1 in zip(rings, rings[1:])
        for j, jn in steps
    ])


def _emit_strip(w, curve, direction, boundary):
    inner, outer = _rings(w, [
        [(p[0], p[1], 0.0) for p in curve],
        [
            (p[0] + direction[0] * _STRIP_WIDTH, p[1] + direction[1] * _STRIP_WIDTH, 0.0)
            for p in curve
        ],
    ])
    w.quads([(inner[i], inner[i + 1], outer[i + 1], outer[i]) for i in range(len(curve) - 1)])
    boundary.append(list(outer))


def _emit_sector(w, apex, d1, d2, radius, res, boundary):
    a0 = math.atan2(d1[1], d1[0])
    a1 = math.atan2(d2[1], d2[0])
    while a1 <= a0:
        a1 += 2 * math.pi
    arc = _sample_arc(apex, radius, a0, a1, res)
    top, *ids = w.vertices([(apex[0], apex[1], 0.0), *((p[0], p[1], 0.0) for p in arc)])
    for i in range(len(ids) - 1):
        w.face((top, ids[i], ids[i + 1]))
    boundary.append(list(ids))


def _emit_cell(w, loop):
    cx = sum(p[0] for p in loop) / len(loop)
    cy = sum(p[1] for p in loop) / len(loop)
    center, *ids = w.vertices([(cx, cy, 0.0), *((p[0], p[1], 0.0) for p in loop)])
    for i in range(len(ids)):
        w.face((center, ids[i], ids[(i + 1) % len(ids)]))


def _cell_kind(cell) -> str:
    if cell[0] == "sector":
        return "sector"
    k = len(cell[1])
    return {3: "triangle", 4: "quad"}.get(k, f"{k}gon")


def export_mesh(model: SkeletonModel, resolution: int) -> str:
    """Render the skeleton model as OBJ text.

    One group per skeleton stratum (named ``<base>.tau<cone>.<kind>``,
    in model order) and a trailing ``boundary`` group collecting the
    trim polylines of non-compact pieces.
    """
    n = model.fanifold.dimension
    if n > 2:
        raise ValueError("mesh export supports total dimension at most 2")
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    phi = model.fanifold
    lay: _Layout | None = None
    if phi.source_fan is not None and n >= 1:
        lay = _fan_layout(model, resolution)
    elif n == 1:
        lay = _cycle_or_chain_layout(model, resolution)
    elif n == 2:
        lay = _polygon_layout(model, resolution)
    if lay is None:
        lay = _grid_layout(model, resolution)
    w = _Writer()
    offsets = _circle(_FIBER_RADIUS, resolution)
    boundary: list[list[int]] = []
    for s in model.strata:
        b, t, c = s.base_dim, s.torus_rank, s.cone_dim
        key = (s.base, s.cone_index)
        if b == 0 and t == 0 and c == 0:
            w.group(f"{s.ident}.point")
            w.vertices([(*lay.point[s.base], 0.0)])
        elif b == 0 and t == 2:
            w.group(f"{s.ident}.torus")
            _emit_torus(w, lay.point[s.base], resolution)
        elif b == 0 and t == 1 and c == 1:
            w.group(f"{s.ident}.tube")
            _emit_tube_along(
                w, lay.point[s.base], lay.fiber_dir[key], _RADIUS / 2,
                offsets, boundary,
            )
        elif b == 0 and t == 1 and c == 0:
            # a flat circle unless a cycle layout turned it to face outward
            w.group(f"{s.ident}.circle")
            ids = w.vertices(_ring(
                lay.point[s.base], lay.circle_normal.get(s.base, (0.0, 1.0)), offsets,
            ))
            w.line([*ids, ids[0]])
        elif b == 0 and t == 0 and c == 1:
            w.group(f"{s.ident}.ray")
            d = lay.fiber_dir[key]
            p = lay.point[s.base]
            w.line(w.vertices([
                (p[0], p[1], 0.0),
                (p[0] + d[0] * _GERM_LENGTH, p[1] + d[1] * _GERM_LENGTH, 0.0),
            ]))
        elif b == 0 and t == 0 and c == 2:
            w.group(f"{s.ident}.sector")
            d1, d2 = lay.fiber_sector[key]
            _emit_sector(
                w, lay.point[s.base], d1, d2, _SECTOR_RADIUS, resolution, boundary
            )
        elif b == 1 and t == 1:
            w.group(f"{s.ident}.cylinder")
            _emit_cylinder(
                w, lay.curve[s.base], lay.curve_ideal[s.base], offsets, boundary
            )
        elif b == 1 and t == 0 and c == 1:
            w.group(f"{s.ident}.strip")
            _emit_strip(w, lay.curve[s.base], lay.strip_dir[key], boundary)
        elif b == 1 and t == 0 and c == 0:
            w.group(f"{s.ident}.segment")
            w.line(w.vertices([(p[0], p[1], 0.0) for p in lay.curve[s.base]]))
        elif b == 2:
            cell = lay.cell[s.base]
            w.group(f"{s.ident}.{_cell_kind(cell)}")
            if cell[0] == "sector":
                _emit_sector(
                    w, cell[1], cell[2], cell[3], _RADIUS, resolution, boundary
                )
            else:
                _emit_cell(w, cell[1])
        else:
            raise ValueError(
                f"no renderer for piece {s.ident} (base {b}, torus {t}, cone {c})"
            )
    w.group("boundary")
    for ids in boundary:
        w.line(ids)
    return w.text()
