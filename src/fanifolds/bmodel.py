"""Chart diagrams for glued toric spaces, with exact section censuses.

Every stratum contributes one affine chart per cone of its fan.  Charts are
tied together by two kinds of monomial maps: face localizations inside one
stratum, and collapse maps along fanifold arrows (the monomials not
perpendicular to the collapsed cone are sent to zero).  A diagram is its
charts: the maps are read off the fanifold, from tables built at most once
and shared with ``skeleton_model``: each fan's containment table
(``Fan._inside``) and each arrow's star map (``Fanifold._star_map``).  The
list of maps, ``ToricDiagram.arrows``, is built on its first read and kept;
the census never reads it, and walks the fanifold's arrows instead.  A map
is a plain value: a collapse (``DiagramArrow``) names the fanifold arrow it
collapses along, and its cone and collapse matrix are read off the fanifold
(``Fanifold.arrow_cone``, ``Fanifold._collapse_forward``), the matrix built
on its first read, by the census for the collapses it walks, not with the
diagram.  A global section is a coefficient tuple compatible with every
map, so censuses are exact linear bookkeeping.

The census counts classes of box points under these maps.  Since every
stratum keeps its zero-cone chart, the face localizations join all copies
of a point in one stratum, so a class belongs to a stratum lattice point:
only the points in the dual of every kept cone survive, and one zero sink
stands for the rest.  A walk zeroes a point by a union with the sink, so
the zero class is the sink's class and no other zero mark is kept.  Each
fanifold arrow is walked at most once, out of the chart of its own cone,
whose collapse makes every identification the larger charts' collapses
make.  An arrow c that is b after a, by one
witness the plan checks (``_factors``), is not walked at all: the walks of
a and b make every identification c's would, so the census walks only the
arrows that do not factor, which in a full diagram are the arrows along a
ray.  ``_census_classes`` gives both proofs.

A census has a part that does not depend on the degree, its plan
(``_Plan``): each charted stratum's rank, the distinct gens of its kept
cones and whether a collapse targets it, and for each arrow that does not
factor its walk (``_Walk``): the arrow, the sum of its cone's gens split
at the last coordinate, its collapse matrix and that matrix's last column,
and whether it is the last walk into its target; the walks into one target
come together.  The plan is built at the first census of a chart set and
kept with the chart tuple and its index (``_ChartSet``) in the fanifold's
``_chart_sets`` table, so every
later census of that chart set, at any degree and on any diagram of it,
pays only for its box walk; ``full_diagram`` shares the fanifold's full
chart tuple and index.  That table holds plain data only, names, tuples and
matrices, and never a diagram: a diagram refers to its fanifold, so a
diagram in the table would make a reference cycle, and a fanifold of a
one-shot command would outlive the command, with its interned cones and
their cached duals and quotients, until the garbage collector ran.

Validity is checked once, where a diagram is born: ``ToricDiagram`` refuses
an invalid fanifold, so the census meets none.  What it still checks is the
chart set, which a caller may choose freely: a charted stratum must keep
its zero-cone chart.  A plan build that raises keeps nothing, so such a
chart set raises on every call, before any degree check.

Box points are walked as intervals of the last coordinate, one per prefix
of the others.  Each gen's dot with a prefix of the first rank - 2
coordinates is computed once, and the coordinate before the last steps by
adding the gen's coefficient there (``_cut_rows``).  Each stratum keeps its
surviving points as such a cut list, in a row map prefix -> (lo, hi, first
id).  A walk reads the surviving points in sigma^perp of its source, found
with one dot per interval (or solved for, when the last coordinate of the
cone's gen sum is 0), each once, and joins each to its image in the
target, found through the row map, or to the sink.  It maps intervals,
not points: the image of an interval's start is computed once, and along
the interval it moves by the collapse matrix's last column, which on the
bundled examples moves no target row, so the row is looked up once per
interval.  A target's surviving
points that some walk into it missed are joined to the sink once, after
its last walk.  Only a collapse target's points get ids of their own: a
point of a stratum that is only a source takes, on its first read, its
image's id or the sink's.  An untouched surviving point is a free class
of its own, counted from interval lengths.  So the census costs the
intervals plus the touched points, not the surviving-point volume.  A
chart's support size is counted from the lengths of the intervals
``_box_cuts`` yields, which owns the rank-0 point too, only when
``SectionCensus.support_sizes`` is read, and a zero-cone chart is counted
as the whole box with no walk.  Chart points are listed only for a basis
or a subalgebra check.
"""

from __future__ import annotations

import itertools
import sys
from itertools import repeat
from operator import floordiv, mul, neg
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .cones import Cone, cached_property
from .fanifold import Arrow, Fanifold, require_valid, unrolled_closure
from .lattice import (
    Mat,
    Vec,
    dot,
    mat_vec,
    matrix_rank,
)


class ChartObject(NamedTuple):
    stratum: str
    cone_index: int


class DiagramArrow(NamedTuple):
    """A map between two charts, by object index.  A collapse names the
    fanifold arrow it collapses along; its cone and monomial matrix are
    that arrow's (``Fanifold.arrow_cone``, ``Fanifold._collapse_forward``)."""

    source: int
    target: int
    kind: str  # "restrict" (face localization) or "collapse" (orbit closure)
    arrow: Arrow | None = None  # collapse: the fanifold arrow


class _Walk(NamedTuple):
    """One collapse the census walks, with the numbers of it that do not
    depend on the degree: the fanifold arrow, t = the sum of the arrow
    cone's gens split into its first rank - 1 coordinates ``head`` and its
    last one, the collapse matrix F (``Fanifold._collapse_forward``) in the
    rank-0 convention of ``_box_cuts``, F's last column split into the
    entries of its rows but the last, ``col``, and that of its last row,
    ``step``, and whether it is the last walk into its target, after which
    the target's unreached points are zeroed (``_census_classes``).  The
    last column is what an image moves by as the source point steps along
    its interval: ``col`` moves the target row, ``step`` the point in it."""

    arrow: Arrow
    head: Vec
    last: int
    forward: Mat
    col: Vec
    step: int
    closes: bool


class _Plan(NamedTuple):
    """The degree-independent part of a census of one chart set.

    ``strata`` holds, for each charted stratum in object order, its name,
    its lattice rank, the distinct gens of its kept cones and whether a
    collapse targets it.  ``walks`` holds each collapse the census walks,
    one per charted arrow that does not factor through two others
    (``_factors``), grouped by target in order of each target's first
    arrow, and in arrow order within a target (``_Walk``)."""

    strata: tuple[tuple[str, int, tuple[Vec, ...], bool], ...]
    walks: list[_Walk]


class _ChartSet:
    """One chart tuple of a fanifold, its index and its census plan, built
    on the first census; kept in ``Fanifold._chart_sets``."""

    __slots__ = ("objects", "index", "plan")

    def __init__(self, objects: tuple[ChartObject, ...]):
        self.objects = objects
        self.index = {o: i for i, o in enumerate(objects)}
        self.plan: _Plan | None = None


class ToricDiagram:
    """The charts of a fanifold's (stratum, cone) pairs, in object order.

    A diagram is its charts: its maps are read off the fanifold's tables.
    ``arrows`` lists them, restrictions then collapses, built on the first
    read and kept; the census reads the collapses it walks off the chart
    set's plan and never builds the list.  ``warnings`` is a tuple, set
    when the diagram is built.  Diagrams of equal chart tuples on one
    fanifold share its chart set: the tuple, its index and its plan.

    A diagram exists only for a valid fanifold: building one on any other
    raises ValueError (``require_valid``), whatever its chart tuple.  The
    chart tuple is the caller's choice, and the census checks its shape.
    """

    def __init__(
        self,
        fanifold: Fanifold,
        objects: Sequence[ChartObject],
        warnings: Sequence[str] = (),
    ):
        require_valid(fanifold)
        self.fanifold = fanifold
        self.warnings = tuple(warnings)
        objects = tuple(objects)
        charts = fanifold._chart_sets.get(objects)
        if charts is None:
            charts = fanifold._chart_sets[objects] = _ChartSet(objects)
        self._charts = charts
        self.objects, self.index = charts.objects, charts.index

    @cached_property
    def arrows(self) -> tuple[DiagramArrow, ...]:
        """Every restriction, from each chart to each kept chart of a cone
        inside it, then every collapse, along each fanifold arrow from each
        kept chart of its star to the kept chart of its image."""
        phi, index = self.fanifold, self.index
        arrows = _restriction_arrows(phi, self.objects)
        for fa, star in _charted_arrows(self):
            for k, tk in star.items():
                source = index.get((fa.source, k))
                target = index.get((fa.target, tk))
                if source is not None and target is not None:
                    arrows.append(DiagramArrow(source, target, "collapse", fa))
        return tuple(arrows)

    def __repr__(self) -> str:
        return f"ToricDiagram(objects={len(self.objects)})"

    def object_cone(self, i: int) -> Cone:
        o = self.objects[i]
        return self.fanifold.stratum(o.stratum).fan.cones[o.cone_index]

    def object_rank(self, i: int) -> int:
        return self.fanifold.stratum(self.objects[i].stratum).lattice_rank


def _cut_rows(
    gens: Sequence[Vec], rank: int, degree: int
) -> Iterator[tuple[Vec, int, list[int], list[int]]]:
    """The box points u with u.g >= 0 for every g in ``gens``, one prefix of
    the first rank - 2 coordinates at a time, in lexicographic order.

    For each such outer prefix, yields (outer, ylo, los, his): the
    coordinate before the last runs over a window from ylo, and at its k-th
    value the last coordinate runs over los[k]..his[k], empty when
    lo > hi.  Each gen's dot with the outer prefix is computed once, and
    stepping the coordinate before the last adds the gen's coefficient
    there.  A gen whose last coordinate is 0 cuts the window, as the others
    cut the last coordinate.  Needs rank >= 2.
    """
    flat = [(g[:-2], g[-2]) for g in gens if not g[-1]]
    sloped = [(g[:-2], g[-2], g[-1]) for g in gens if g[-1]]
    for outer in itertools.product(range(-degree, degree + 1), repeat=rank - 2):
        ylo, yhi = -degree, degree
        for head, step in flat:
            s = sum(map(mul, outer, head))
            if step > 0:
                ylo = max(ylo, -(s // step))
            elif step < 0:
                yhi = min(yhi, s // -step)
            elif s < 0:
                break
            if ylo > yhi:
                break
        else:
            n = yhi - ylo + 1
            los, his = [-degree] * n, [degree] * n
            for head, step, last in sloped:
                s = sum(map(mul, outer, head))
                # the gen's dot with the prefix at each value of the window
                if step:
                    dots = range(s + ylo * step, s + (yhi + 1) * step, step)
                else:
                    dots = repeat(s, n)
                if last > 0:  # x >= -dot / last
                    bounds = map(neg, map(floordiv, dots, repeat(last)))
                    los = list(map(max, los, bounds))
                else:  # x <= dot / -last
                    his = list(map(min, his, map(floordiv, dots, repeat(-last))))
            yield outer, ylo, los, his


def _box_cuts(
    gens: Sequence[Vec], rank: int, degree: int
) -> Iterator[tuple[Vec, int, int]]:
    """The box points u with u.g >= 0 for every g in ``gens``, as intervals.

    Only the first rank - 1 coordinates walk the box, in lexicographic
    order; for each such prefix the inequalities cut the last coordinate
    down to one integer interval lo..hi, yielded when it is not empty.  A
    rank-0 lattice's one point, (), is the interval 0..0 of the empty
    prefix: its last coordinate reads as 0 and is no coordinate of the
    point.  ``_cut_points`` builds an interval's points by this rule, the
    census walk the key of a source-only point's id by it, and ``_walk``
    reads a rank-0 lattice's sums and images by it.
    """
    if rank == 0:
        yield (), 0, 0
        return
    if rank == 1:  # the empty prefix, at which every dot is 0
        lo = 0 if any(g[0] > 0 for g in gens) else -degree
        hi = 0 if any(g[0] < 0 for g in gens) else degree
        yield (), lo, hi
        return
    for outer, ylo, los, his in _cut_rows(gens, rank, degree):
        for y, lo, hi in zip(itertools.count(ylo), los, his):
            if lo <= hi:
                yield outer + (y,), lo, hi


def _cut_points(prefix: Vec, lo: int, hi: int, rank: int) -> list[Vec]:
    """The points of the interval lo..hi of ``prefix`` in a cut list, in
    order: prefix + (x,) for each x, or a rank-0 lattice's one point, ()
    (``_box_cuts``)."""
    if not rank:
        return [()]
    return [prefix + (x,) for x in range(lo, hi + 1)]


def _perp_cuts(
    row: Mapping[Vec, tuple[int, int, int | None]], head: Vec, last: int, degree: int
) -> Iterator[tuple[Vec, int, int, int | None]]:
    """The intervals of a cut list ``row`` (``_Support``) that meet the
    points u with u . t = 0, for t split into ``head`` and ``last`` as in
    ``_Walk``, in lexicographic order (``_census_classes`` gives the cut).
    For each yields (prefix, a, b, i): the points there are prefix + (x,)
    for x in a..b, and i is the id of the one at a, or None in a stratum
    that is only a source.

    When t_last = 0 an interval meets them whole or not at all, and the
    prefixes p with p . t' = 0 are solved for, not scanned, unless the row
    holds no more intervals than the (2 degree + 1)^(rank - 2) prefixes a
    solve looks up: for the last j with t'_j != 0,
    p_j = -(sum over k < j of p_k t'_k) / t'_j, and the other coordinates
    run over the box in lexicographic order, so the prefixes come in the
    row's order.  A t' of 0 keeps every interval.
    """
    if last or not any(head) or len(row) <= (2 * degree + 1) ** (len(head) - 1):
        for prefix, (lo, hi, first) in row.items():
            s = sum(map(mul, prefix, head))
            if last:
                x, r = divmod(-s, last)
                if not r and lo <= x <= hi:
                    yield prefix, x, x, None if first is None else first + x - lo
            elif not s:
                yield prefix, lo, hi, first
        return
    j = max(k for k, c in enumerate(head) if c)
    box = range(-degree, degree + 1)
    for before in itertools.product(box, repeat=j):
        y, r = divmod(-sum(map(mul, before, head)), head[j])
        if r or not -degree <= y <= degree:
            continue
        for after in itertools.product(box, repeat=len(head) - j - 1):
            prefix = before + (y,) + after
            cut = row.get(prefix)
            if cut is not None:
                yield prefix, cut[0], cut[1], cut[2]


def _box_count(gens: Sequence[Vec], rank: int, degree: int) -> int:
    if not gens:  # the zero cone's chart is the whole box
        return (2 * degree + 1) ** rank
    return sum(hi - lo + 1 for _, lo, hi in _box_cuts(gens, rank, degree))


def _restriction_arrows(
    phi: Fanifold, objects: Sequence[ChartObject]
) -> list[DiagramArrow]:
    """One arrow from each chart to each kept chart of a cone inside it.

    A stratum's charts are contiguous and in cone-index order, so reading
    each chart's containment set (``Fan._inside``) in sorted order lists its
    targets in object order."""
    charts: dict[str, dict[int, int]] = {}
    for i, (name, k) in enumerate(objects):
        charts.setdefault(name, {})[k] = i
    arrows = []
    for name, kept in charts.items():
        inside = phi.stratum(name).plain_fan._inside
        for big, i in kept.items():
            for small in sorted(inside[big]):
                j = kept.get(small)
                if j is not None:
                    arrows.append(DiagramArrow(i, j, "restrict"))
    return arrows


def _charted_arrows(diagram: ToricDiagram) -> Iterator[tuple[Arrow, dict[int, int]]]:
    """The fanifold arrows out of strata with charts, in order, each with
    its star map, which on a valid fanifold maps every star cone onto a
    cone of the target fan.  An arrow into a stratum without charts gives
    no map and no walk."""
    phi = diagram.fanifold
    charted = {o.stratum for o in diagram.objects}
    return ((fa, phi._star_map(fa)) for fa in phi.arrows if fa.source in charted)


def _diagram(phi: Fanifold, allowed: Mapping[str, Iterable[int]]) -> ToricDiagram:
    """The charts of the allowed cones of each stratum, in cone-index order."""
    return ToricDiagram(
        phi, [ChartObject(g, k) for g, ks in allowed.items() for k in sorted(ks)]
    )


def full_diagram(phi: Fanifold) -> ToricDiagram:
    """One chart per (stratum, cone) pair, with all induced monomial maps.
    The chart tuple is built once per fanifold and shared."""
    full = phi._chart_sets.get(None)
    if full is not None:
        return ToricDiagram(phi, full.objects)
    diagram = _diagram(phi, {s.name: range(len(s.fan.cones)) for s in phi.strata})
    phi._chart_sets[None] = diagram._charts
    return diagram


def chart_diagram(phi: Fanifold, f_name: str) -> ToricDiagram:
    """Diagram of the closure of one stratum.

    For poset fanifolds the charts are the cones the closure keeps
    (``Fanifold.kept_cones``): each deeper stratum's cones whose arrow, if
    any, points at the chosen stratum or its intermediaries.  Otherwise the
    closure is unrolled first.
    """
    phi.stratum(f_name)  # an unknown name is refused before validity
    if not require_valid(phi).is_poset:
        closure = unrolled_closure(phi, f_name)
        warning = (
            f"stratum {f_name!r} has an unrolled closure"
            " (the exit diagram is not a poset)"
        )
        return ToricDiagram(closure, full_diagram(closure).objects, (warning,))
    return _diagram(phi, phi.kept_cones(phi.down_closure([f_name])))


# -- census ------------------------------------------------------------------


class _UnionFind:
    """Classes of ids, by parent links.  The zero class is the class of the
    sink, id 0: a walk zeroes an id by joining it to the sink, so a class
    is zero exactly when its root is ``find(0)``."""

    def __init__(self):
        self.parent: list[int] = []

    def extend(self, n: int) -> int:
        """Add n singleton classes; return the id of the first."""
        start = len(self.parent)
        self.parent.extend(range(start, start + n))
        return start

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class _Support(NamedTuple):
    """One stratum's surviving points, and the ids of those a collapse touches.

    ``row`` maps each prefix of the first rank - 1 coordinates, in
    lexicographic order, to (lo, hi, first): the surviving points with that
    prefix are those whose last coordinate runs over lo..hi; a rank-0
    stratum's one point is the interval ``_box_cuts`` gives it.  In a
    collapse target every surviving point has an id, first + x - lo, and
    ``touched`` is None.  Elsewhere first is None, and ``touched`` maps each
    point that a collapse out of the stratum reads to an id of its class:
    that of the image the first such collapse found, or the sink's.
    ``size`` counts the surviving points, summed as the row is built.
    """

    rank: int
    row: dict[Vec, tuple[int, int, int | None]]
    touched: dict[Vec, int] | None
    size: int

    def points(self) -> Iterator[tuple[Vec, int | None]]:
        """Every surviving point in lexicographic order, with its id, or
        None when no collapse touches it."""
        touched = self.touched
        for prefix, (lo, hi, first) in self.row.items():
            points = _cut_points(prefix, lo, hi, self.rank)
            if first is None:
                yield from zip(points, map(touched.get, points))
            else:
                yield from zip(points, itertools.count(first))

    @property
    def untouched(self) -> int:
        """The surviving points no collapse touches, counted from the
        interval lengths as the row was built: each is a free class of its
        own."""
        if self.touched is None:
            return 0
        return self.size - len(self.touched)


class SectionCensus(NamedTuple):
    degree: int
    dimension: int
    object_count: int
    diagram: ToricDiagram
    warnings: tuple[str, ...] = ()
    basis: list[dict[tuple[ChartObject, Vec], int]] | None = None

    @property
    def arrow_count(self) -> int:
        """The diagram's maps, counted when read: the census walks the
        fanifold's arrows and never builds the diagram's map list."""
        return len(self.diagram.arrows)

    @property
    def support_sizes(self) -> dict[ChartObject, int]:
        """Each chart's box points in the dual of its cone, in object order,
        counted when read: the census itself never walks a chart."""
        diagram = self.diagram
        return {
            obj: _box_count(diagram.object_cone(i).gens, diagram.object_rank(i), self.degree)
            for i, obj in enumerate(diagram.objects)
        }


def _census_classes(
    diagram: ToricDiagram, degree: int
) -> tuple[_UnionFind, dict[str, _Support]]:
    """Union-find classes of the box coefficients under all compatibility maps.

    A class belongs to a stratum lattice point, not to a chart point.
    Three facts about the diagrams ``full_diagram`` and ``chart_diagram``
    build make this exact:

    * Every stratum keeps its zero-cone chart, and a restriction arrow runs
      from each chart to the chart of every kept cone it contains, the zero
      cone included.  So the restrictions join all copies of u in one
      stratum, and they zero u unless it lies in the dual of every kept
      cone.  Only those points survive; every other box point of the
      stratum reads the sink, id 0, zero from the start.
    * For a fanifold arrow with cone sigma, each kept chart tau >= sigma
      collapses onto the target's chart of the image of tau.  Its points in
      sigma^perp are those of the sigma chart cut down by the dual of tau,
      the image chart's points are those of the zero chart cut down by the
      dual of the image, and u lies in the one dual exactly when its image
      lies in the other.  So the collapse of the sigma chart into the zero
      chart makes every union the others make, and it is the one
      collapse walked per arrow, unless the arrow factors (below).  The
      walks are read off the fanifold's arrows and star maps
      (``_build_plan``), not off the diagram's map list.
    * ``forward`` = a^-T s^T (``Fanifold._collapse_forward``) and
      ``backward`` = p^T a^T, the transpose of ``Fanifold.arrow_map``, for
      the iso a, the projection p and its section s, are inverse bijections
      between sigma^perp and the target lattice; only the census oracle in
      the tests builds ``backward``.  p s = I gives
      forward(backward(w)) = w.  backward(forward(u)) = (s p)^T u, and
      u . (v - s p v) = 0 for every v, since v - s p v lies in ker p, the
      saturated span of sigma, on which u vanishes.  So the walk joins
      exactly the surviving u in sigma^perp whose image is a surviving
      target point; every other surviving u in sigma^perp, and every
      surviving target point that no such u reaches, it joins to the sink.

    So a collapse touches only two sets of points: the surviving points in
    sigma^perp of its source, and every surviving point of its target.  Only
    touched points have an id.  An untouched surviving point is a free class
    of its own, so the census counts it from interval lengths
    (``_Support.untouched``) and never lists it.  Each stratum keeps its
    surviving points as a cut list, one interval of the last coordinate per
    prefix of the others, in a row map prefix -> (lo, hi, first id):

    * In a collapse target, ids run contiguously through each interval in
      lexicographic order, and a collapse finds the id of its image w by one
      lookup, ``row[w[:-1]]``, and lo <= w[-1] <= hi.
    * In a stratum that is only a source, a point is read only by the
      walks out of it, and each joins it to its image or to the sink.  So
      the first walk that reads it gives it the id of that image, or the
      sink's, where a fresh id joined to that image would make the same
      class; every later walk that reads it joins its own image, or the
      sink, to that id.  A read point of such a stratum is thus never a
      class of its own, with a fresh id or without one, and only target
      points and the sink have ids.

    A walk makes one pass over the intervals of its source's cut list that
    meet sigma^perp (``_perp_cuts``), and maps intervals, not points.  For
    each point there it finds its id and joins it to its image or to the
    sink, or on a source-only point's first read gives it that id, so it
    reads each of its points once.  It finds the surviving points in
    sigma^perp by the sum t of sigma's gens, split in the plan into t' and
    t_last (``_walk``):

    * Every surviving source point lies in the dual of sigma, whose chart
      is kept, so it lies in sigma^perp exactly when it is perpendicular to
      t, the sum of sigma's gens: each u . g is >= 0, and they sum to u . t.
    * On the interval of a prefix p, u . t = s + x t_last with s = p . t'
      for the first rank - 1 coordinates t' of t.  When t_last != 0 only
      x = -s / t_last can vanish it, and it is a point of the interval
      exactly when it is an integer in lo..hi: one dot per interval.  When
      t_last = 0 the dot is s for every x, so the interval lies in
      sigma^perp when s = 0 and misses it otherwise, and the prefixes with
      s = 0 are solved for, not scanned.

    The image of u = p + (x,) under F = ``forward`` is, row by row,
    (F u)_i = F_i[:-1] . p + F_i[-1] x, in exact integers.  So the walk
    dots p with F's rows once per interval, which gives the image of
    p + (0,): the key of its target row from the rows but the last, and z0
    from the last.  Along the interval the key moves by x ``col`` and the
    last coordinate by x ``step``, F's last column (``_Walk``).  When
    ``col`` is zero, as on every bundled example in its own basis, every
    point of the interval lands in one target row, looked up once;
    otherwise the row is looked up per point, in the same loop.  Per point
    what is left is z = z0 + x step, the row's range test, the ids and one
    union, and a point tuple is built only as the key of a source-only
    stratum's ``touched`` map.  Unions make the same classes in any order,
    and target ids are still given in row order.

    A walk zeroes each surviving point of its target that it reaches from
    no point.  The census makes the same unions with one pass per target:
    a surviving target point is zeroed exactly when some walk into its
    stratum misses it, that is, when it lies outside the intersection of
    those walks' hit sets, the target ids they reach.  The plan puts the
    walks into one target together, so each walk intersects its hit set
    with that of the walks before it into the same target, and the last of
    them (``_Walk.closes``) joins every surviving target point outside the
    intersection to the sink, with no pass when the intersection is the
    whole target: one hit set is alive at a time.
    Unions make the same classes in any order, so these are the classes of
    walks that each zero their own misses.

    A walk along an arrow c: S -> T that factors through walks a: S -> R
    and b: R -> T, by the witness ``_factors`` finds, makes no union that
    theirs do not, with the sink or between points, so the plan drops it.
    Write F_x for an arrow's ``forward`` and A_x for its ``arrow_map``; as
    above, F_x(u) . A_x(y) = u . y for u in sigma_x^perp and every y, and
    F_x is one to one on sigma_x^perp.  The witness gives sigma_a inside sigma_c,
    sigma_b = A_a(sigma_c) (the star map), and kept charts of sigma_c and
    sigma_b, so the surviving points of S and R lie in their duals.  The
    fanifold is valid, so A_c = A_b A_a (``_factors``), each iso is
    unimodular and each A_x onto.  "Joined" below means in one class, and "zeroes x"
    means joins x to the sink, whose class is the zero class.

    * For u in sigma_a^perp and v = F_a(u), v . A_a(y) = u . y, so v lies
      in sigma_b^perp exactly when u lies in sigma_c^perp, and then
      F_b(v) . A_c(y) = u . y = F_c(u) . A_c(y), so F_b(v) = F_c(u).
    * Let u be a surviving point of S in sigma_c^perp, so in sigma_a^perp,
      and v = F_a(u).  If v is a surviving point of R, walk a joins u to v,
      and walk b joins v to F_c(u), or zeroes v when F_c(u) is no
      surviving point of T.  If v is not (outside R's box, or outside a
      kept dual), walk a zeroes u, and walk b zeroes F_c(u) if it is a
      surviving point of T: v is its only preimage in sigma_b^perp.
    * Let w be a surviving point of T that c's walk reaches from no
      point, so c's walk zeroes it.  If walk b reaches w from no point, it
      zeroes w.  If it reaches w from v, walk a reaches v from no point,
      since from u it would put u in sigma_c^perp with F_c(u) = w; so walk
      a zeroes v, which walk b joins to w.

    sigma_a and sigma_b are smaller than sigma_c, so by induction on the
    cone's dimension this holds when every walk that factors is dropped at
    once.  Every collapse matrix of a valid fanifold builds, so the plan
    raises exactly when a plan of every walk would: on a fault of the
    chart set, before any matrix is built.

    Everything above but the box is degree-independent: the kept gens of
    each stratum, which strata are collapse targets, and the walks are the
    chart set's plan (``_plan``), built once and kept on the fanifold.  The
    per-degree part reads only the plan and walks the box.

    Returns the classes of the target points and the sink, and each
    stratum's support.
    """
    plan = _plan(diagram)  # a chart set's faults are refused whatever the degree
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if 2 * degree + 1 > sys.maxsize:
        raise ValueError(f"degree {degree} is too large")
    uf = _UnionFind()
    uf.extend(1)  # the sink, id 0
    supports: dict[str, _Support] = {}
    ids: dict[str, range] = {}  # a collapse target's ids
    for name, rank, gens, target in plan.strata:
        row, size, start = {}, 0, len(uf.parent)
        for prefix, lo, hi in _box_cuts(gens, rank, degree):
            row[prefix] = (lo, hi, start + size if target else None)
            size += hi - lo + 1
        if target:
            ids[name] = range(uf.extend(size), start + size)
        supports[name] = _Support(rank, row, None if target else {}, size)

    union = uf.union
    before = None  # the target points every walk so far into this target hit
    for fa, head, last, forward, col, step, closes in plan.walks:
        source, row = supports[fa.source], supports[fa.target].row
        touched, rank = source.touched, source.rank
        *above, top = forward
        moving = any(col)
        # a target of rank 0 or 1 has one row, that of the empty prefix
        cut = None if above else row.get(())
        hit = set()
        for prefix, a, b, i in _perp_cuts(source.row, head, last, degree):
            # the image of prefix + (x,) is the target row key + x col, at
            # z0 + x step in it
            if above:
                key = [sum(map(mul, prefix, v)) for v in above]
                if not moving:
                    cut = row.get(tuple(key))
            z = sum(map(mul, prefix, top)) + a * step
            for x in range(a, b + 1):
                if moving:
                    cut = row.get(tuple([k + x * c for k, c in zip(key, col)]))
                if i is None:
                    # a source-only point: its first read gives it the id
                    # of its image, or the sink's
                    u = prefix + (x,) if rank else ()
                    j = touched.get(u)
                else:
                    j = i + x - a
                if cut is not None and cut[0] <= z <= cut[1]:
                    y = cut[2] + z - cut[0]
                    hit.add(y)
                    if j is None:
                        touched[u] = y
                    else:
                        union(j, y)
                elif j is None:
                    touched[u] = 0
                else:
                    union(0, j)
                z += step
        if before is not None:
            hit &= before
        before = None if closes else hit
        if closes and len(hit) < len(ids[fa.target]):
            for y in ids[fa.target]:
                if y not in hit:
                    union(0, y)
    return uf, supports


def _plan(diagram: ToricDiagram) -> _Plan:
    """The census plan of the diagram's chart set, built on its first
    census and kept with the chart set; a build that raises keeps nothing,
    so a chart set without a zero-cone chart raises on every call."""
    charts = diagram._charts
    if charts.plan is None:
        charts.plan = _build_plan(diagram)
    return charts.plan


def _build_plan(diagram: ToricDiagram) -> _Plan:
    """The walks and the charted strata of a census (``_Plan``).

    A walk is one collapse per fanifold arrow whose image of its own cone
    is a kept chart, unless the arrow factors through two others
    (``_factors``).  That image is always the target's zero cone, so the
    chart is a zero-cone chart.  The chart of the arrow's own cone is then
    kept too: every cone has a chart in a full diagram, and a closed set
    keeps an arrow's cone exactly when it keeps the arrow's target.  A
    dropped walk builds no collapse matrix.

    Raises ValueError on a charted stratum without its zero-cone chart,
    before any collapse matrix is built."""
    phi, index = diagram.fanifold, diagram.index
    walked = [
        fa
        for fa, star in _charted_arrows(diagram)
        if (fa.target, star[fa.cone_index]) in index
    ]
    walked_set = set(walked)
    generating = [fa for fa in walked if not _factors(phi, index, walked_set, fa)]
    targets = {fa.target for fa in generating}
    cones: dict[str, list[Cone]] = {}
    ranks: dict[str, int] = {}
    for i, obj in enumerate(diagram.objects):
        cones.setdefault(obj.stratum, []).append(diagram.object_cone(i))
        ranks[obj.stratum] = diagram.object_rank(i)
    strata = []
    for name, kept in cones.items():
        if all(c.gens for c in kept):
            raise ValueError(f"stratum {name!r} has no zero-cone chart")
        gens = tuple(dict.fromkeys(g for c in kept for g in c.gens))
        strata.append((name, ranks[name], gens, name in targets))
    into: dict[str, list[Arrow]] = {}
    for fa in generating:
        into.setdefault(fa.target, []).append(fa)
    walks = [
        _walk(phi, fa, k == len(arrows) - 1) for arrows in into.values() for k, fa in enumerate(arrows)
    ]
    return _Plan(tuple(strata), walks)


def _walk(phi: Fanifold, fa: Arrow, closes: bool) -> _Walk:
    """The degree-independent numbers of the walk along ``fa`` (``_Walk``).

    A rank-0 lattice's one point reads as 0 in the interval 0..0 of the
    empty prefix (``_box_cuts``): so t at rank 0 reads as t_last = 0, and
    a rank-0 target's collapse matrix, which has no rows, as one empty row,
    whose image of every point is that 0; an empty row's last entry, out
    of a rank-0 source or in that one row, reads as 0 too."""
    cone = phi.arrow_cone(fa)
    t = [sum(g[i] for g in cone.gens) for i in range(cone.rank)]
    forward = phi._collapse_forward(fa) or ((),)
    col = tuple(sum(v[-1:]) for v in forward[:-1])
    return _Walk(fa, tuple(t[:-1]), sum(t[-1:]), forward, col, sum(forward[-1][-1:]), closes)


def _factors(
    phi: Fanifold,
    index: Mapping[ChartObject, int],
    walked: set[Arrow],
    c: Arrow,
) -> bool:
    """Whether the walk along c: S -> T is the walks along a and b after
    each other, by one witness and no search (``_census_classes`` gives the
    proof).  ``walked`` is the set of walked arrows.

    a is the arrow out of S on the first nonzero face of sigma_c in index
    order, and b the arrow out of a's target on the image of sigma_c under
    a (``Fanifold._star_map``), both read off ``Fanifold._arrow_on``; a
    must be walked, and the charts of sigma_c and sigma_b kept.  On a valid
    fanifold the rest holds whenever a is walked: validation's coherence
    loop finds b after a as the arrow on the one cone that a's star map
    sends onto sigma_b, and that cone is sigma_c, so the composite is c.
    So b goes into T and is walked, sigma_a is a proper face of sigma_c,
    dim sigma_b = dim sigma_c - dim sigma_a, and ``arrow_map(b) .
    arrow_map(a) == arrow_map(c)``."""
    fan, k = phi.stratum(c.source).plain_fan, c.cone_index
    f = min((f for f in fan._inside[k] if fan.cones[f].dim), default=None)
    a = phi._arrow_on.get((c.source, f))
    if a not in walked:
        return False
    b = phi._arrow_on[a.target, phi._star_map(a)[k]]
    return (c.source, k) in index and (b.source, b.cone_index) in index


def _free_roots(uf: _UnionFind) -> list[int]:
    """Class representatives other than the sink's, in increasing order."""
    zero = uf.find(0)
    return [x for x, p in enumerate(uf.parent) if p == x and x != zero]


def limit_census(
    diagram: ToricDiagram, degree: int, with_basis: bool = False
) -> SectionCensus:
    """Dimension of the compatible coefficient tuples up to the degree box.

    With ``with_basis``, one ``{(object, u): 1}`` dict per free class, over
    its chart points; the classes come in the order of their first chart
    point, walking the objects in order and each chart in support order.
    """
    uf, supports = _census_classes(diagram, degree)
    basis = None
    if with_basis:
        find, zero = uf.find, uf.find(0)
        members: dict[object, dict[tuple[ChartObject, Vec], int]] = {}
        # A chart's support holds every surviving point of its stratum, in
        # the same lexicographic order, and its other points read the sink.
        # An untouched point is its own class, keyed by its stratum and u.
        for obj in diagram.objects:
            for u, x in supports[obj.stratum].points():
                if x is None:
                    key: object = (obj.stratum, u)
                else:
                    key = find(x)
                    if key == zero:
                        continue
                members.setdefault(key, {})[(obj, u)] = 1
        basis = list(members.values())
    return SectionCensus(
        degree=degree,
        dimension=len(_free_roots(uf)) + sum(s.untouched for s in supports.values()),
        object_count=len(diagram.objects),
        diagram=diagram,
        warnings=diagram.warnings,
        basis=basis,
    )


# -- components --------------------------------------------------------------


class Component(NamedTuple):
    stratum: str
    toric_dim: int
    complete: bool
    stacky: bool


def components(phi: Fanifold) -> list[Component]:
    """Irreducible pieces of the glued space: one per minimal stratum.
    Raises ValueError on an invalid fanifold (``require_valid``)."""
    require_valid(phi)
    out = []
    for s in phi.minimal_strata():
        out.append(
            Component(
                stratum=s.name,
                toric_dim=s.lattice_rank,
                complete=s.plain_fan.is_complete,
                stacky=s.is_stacky,
            )
        )
    return out


# -- subalgebra spans --------------------------------------------------------


Laurent = dict[Vec, int]


def _laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = tuple(x + y for x, y in zip(u, v))
            c = out.get(w, 0) + cu * cv
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def _laurent_add(a: Laurent, b: Laurent, scale: int = 1) -> Laurent:
    out = dict(a)
    for u, c in b.items():
        s = out.get(u, 0) + scale * c
        if s:
            out[u] = s
        elif u in out:
            del out[u]
    return out


def _push_stratum(sigma: Cone, forward: Mat, value: Laurent) -> Laurent:
    out: Laurent = {}
    for u, c in value.items():
        if any(dot(u, g) != 0 for g in sigma.gens):
            continue
        w = mat_vec(forward, u)
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _stratum_values(
    phi: Fanifold, seed: Mapping[str, Laurent]
) -> tuple[dict[str, Laurent], list[str]]:
    """Propagate per-stratum Laurent values up the exit diagram, along each
    stratum's out arrows by their collapse matrices
    (``Fanifold._collapse_forward``)."""
    problems: list[str] = []
    minimal = {s.name for s in phi.minimal_strata()}
    missing = minimal - set(seed)
    extra = set(seed) - minimal
    if missing:
        problems.append(f"no value on minimal strata {sorted(missing)}")
    if extra:
        problems.append(f"values given on non-minimal strata {sorted(extra)}")
    values: dict[str, Laurent] = {k: dict(v) for k, v in seed.items() if k in minimal}
    order = sorted(phi.strata, key=lambda s: s.dim)
    for s in order:
        value = values.get(s.name)
        if value is None:
            continue
        for a in phi.out_arrows(s.name):
            pushed = _push_stratum(phi.arrow_cone(a), phi._collapse_forward(a), value)
            if a.target in values:
                if values[a.target] != pushed:
                    problems.append(
                        f"inconsistent values on {a.target!r} along different arrows"
                    )
            else:
                values[a.target] = pushed
    for s in phi.strata:
        if s.name not in values:
            problems.append(f"stratum {s.name!r} not reached from a minimal stratum")
            values[s.name] = {}
    # regularity: the value must live in every chart's monoid
    for s in phi.strata:
        fan = s.plain_fan
        for c in fan.cones:
            bad = [
                u
                for u in values.get(s.name, {})
                if not all(dot(u, g) >= 0 for g in c.gens)
            ]
            if bad:
                problems.append(
                    f"value on {s.name!r} is not regular on the chart of"
                    f" cone {fan.cone_index(c)} (monomials {sorted(bad)[:3]})"
                )
                break
    return values, problems


class SubalgebraReport(NamedTuple):
    degree: int
    census_dimension: int
    span_rank: int
    relations: list[tuple[str, bool]]
    problems: list[str]


def subalgebra_check(
    phi: Fanifold,
    generators: Sequence[tuple[str, Mapping[str, Laurent]]],
    relations: Sequence[tuple[str, Mapping[tuple[int, ...], int]]] = (),
    degree: int = 4,
) -> SubalgebraReport:
    """Check relations exactly, and whether the products of at most
    ``degree`` generators span the census space.  Raises ValueError on an
    invalid fanifold before reading any generator."""
    diagram = full_diagram(phi)
    problems: list[str] = []
    gen_values: list[dict[str, Laurent]] = []
    for name, seed in generators:
        vals, errs = _stratum_values(phi, seed)
        gen_values.append(vals)
        problems.extend(f"generator {name!r}: {e}" for e in errs)

    rel_results: list[tuple[str, bool]] = []
    minimal = [s.name for s in phi.minimal_strata()]
    for rel_name, combo in relations:
        holds = True
        for m in minimal:
            total: Laurent = {}
            for expo, coeff in combo.items():
                term: Laurent = {(0,) * phi.stratum(m).lattice_rank: 1}
                for gi, e in enumerate(expo):
                    for _ in range(e):
                        term = _laurent_mul(term, gen_values[gi][m])
                total = _laurent_add(total, term, coeff)
            if total:
                holds = False
        rel_results.append((rel_name, holds))

    uf, supports = _census_classes(diagram, degree)
    free = _free_roots(uf)
    free_pos = {r: i for i, r in enumerate(free)}

    def tuple_vector(values: dict[str, Laurent]) -> list[int] | None:
        """The class coefficients of the chart points' values: those of the
        free roots, then one per untouched point, its own class.  A chart
        point reads the class of its stratum point, or the zero sink; the
        values passed the regularity check, so every monomial in the box
        lies in the dual of every cone and none falls on the sink."""
        coeffs: dict[int, int] = {}
        untouched: list[int] = []
        for name, support in supports.items():
            val = values[name]
            for u, x in support.points():
                c = val.get(u, 0)
                if x is None:
                    untouched.append(c)
                    continue
                r = uf.find(x)
                if coeffs.setdefault(r, c) != c:
                    return None
        vec = [0] * len(free)
        for x, c in coeffs.items():
            if x in free_pos:
                vec[free_pos[x]] = c
            elif c:
                return None  # nonzero value on a forced-zero class
        return vec + untouched

    rows: list[list[int]] = []
    names = [g[0] for g in generators]
    for count in range(degree + 1):
        for combo in itertools.combinations_with_replacement(
            range(len(generators)), count
        ):
            values = {
                m: {(0,) * phi.stratum(m).lattice_rank: 1} for m in minimal
            }
            for gi in combo:
                for m in list(values):
                    values[m] = _laurent_mul(values[m], gen_values[gi][m])
            # extend to every stratum by pushing forward
            full_vals, errs = _stratum_values(phi, {m: values[m] for m in minimal})
            if errs:
                problems.append(
                    "product "
                    + "".join(names[gi] for gi in combo)
                    + ": "
                    + "; ".join(errs)
                )
                continue
            v = tuple_vector(full_vals)
            if v is None:
                problems.append(
                    "product "
                    + ("".join(names[gi] for gi in combo) or "1")
                    + " is inconsistent with the degree box"
                )
                continue
            rows.append(v)

    return SubalgebraReport(
        degree=degree,
        census_dimension=len(free) + sum(s.untouched for s in supports.values()),
        span_rank=matrix_rank(rows),
        relations=rel_results,
        problems=problems,
    )


# -- open complements --------------------------------------------------------


class UFunctorDescriptor(NamedTuple):
    closed: tuple[str, ...]
    open_strata: tuple[str, ...]
    diagram: ToricDiagram
    marked: tuple[int, ...]  # chart objects supported on the closed part


def u_functor(phi: Fanifold, closed: Iterable[str]) -> UFunctorDescriptor:
    """Descriptor of the open complement of a closed union of strata.
    Raises ValueError on an invalid fanifold before reading ``closed``."""
    diagram = full_diagram(phi)
    closed = phi.require_closed(closed)
    marked = tuple(
        i for i, o in enumerate(diagram.objects) if o.stratum in closed
    )
    open_strata = tuple(s.name for s in phi.strata if s.name not in closed)
    return UFunctorDescriptor(
        closed=closed, open_strata=open_strata, diagram=diagram, marked=marked
    )

