"""Stock exit diagrams used by the tests, the CLI, and the bundled data.

Each builder returns a freshly constructed, validating Fanifold.  The
registry at the bottom maps the bundled file names to zero-argument
builders.
"""

from __future__ import annotations

from .cones import Cone, zero_cone
from .fanifold import Arrow, Fanifold, Stratum, from_fan, manifold, product, sphere_section
from .fans import Fan, StackyFan, face_closure
from .lattice import lattice_map


def a1_fan() -> Fan:
    """The half-line fan: origin plus one ray."""
    return Fan([zero_cone(1), Cone([(1,)], 1)], 1)


def p1_fan() -> Fan:
    """The complete fan on a line: origin and both rays."""
    return Fan([zero_cone(1), Cone([(1,)], 1), Cone([(-1,)], 1)], 1)


def orthant_fan(n: int) -> Fan:
    """All faces of the nonnegative orthant in rank n."""
    axes = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return face_closure(Fan([Cone(axes, n)], n))


def projective_fan(n: int) -> Fan:
    """The standard complete fan with rays e_1..e_n and -(e_1+..+e_n)."""
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    tops = []
    for omit in range(n + 1):
        tops.append(Cone([r for i, r in enumerate(rays) if i != omit], n))
    return face_closure(Fan(tops, n))


def quadric_fan() -> Fan:
    """Face closure of the cone spanned by (-1,1) and (1,1).

    The two ray generators span an index-2 sublattice, which matters once
    they are taken verbatim as stacky generators; as a plain fan this is
    the ordinary quadric-cone singularity.
    """
    return face_closure(Fan([Cone([(-1, 1), (1, 1)], 2)], 2))


def stacky_quadric_fan() -> StackyFan:
    """The quadric cone with its rays taken as honest stacky generators."""
    return StackyFan(quadric_fan(), {(-1, 1): 1, (1, 1): 1})


# -- exit diagrams -----------------------------------------------------------


def affine_space(n: int) -> Fanifold:
    if n == 0:
        return from_fan(Fan([zero_cone(0)], 0))
    return from_fan(orthant_fan(n))


def projective_space(n: int) -> Fanifold:
    return from_fan(projective_fan(n))


def stacky_quadric() -> Fanifold:
    return from_fan(stacky_quadric_fan())


def interval() -> Fanifold:
    """Two endpoint strata and an open edge: the sphere slice of a corner."""
    return sphere_section(orthant_fan(2))


def square() -> Fanifold:
    """Product of two intervals: 4 corners, 4 edges, 1 face."""
    return product(interval(), interval())


def halfplane() -> Fanifold:
    """A line times a half-line: the simplest diagram with ideal boundary."""
    return product(manifold(1), from_fan(a1_fan()))


def three_a1() -> Fanifold:
    """Three affine lines exiting into one common open plane stratum."""
    edge_fan = a1_fan()
    top_fan = Fan([zero_cone(0)], 0)
    empty = lattice_map((), 0, 0)
    strata = [
        Stratum(name="a", dim=1, fan=edge_fan),
        Stratum(name="b", dim=1, fan=edge_fan),
        Stratum(name="c", dim=1, fan=edge_fan),
        Stratum(name="u", dim=2, fan=top_fan),
    ]
    arrows = [
        Arrow(source="a", target="u", cone_index=1, iso=empty),
        Arrow(source="b", target="u", cone_index=1, iso=empty),
        Arrow(source="c", target="u", cone_index=1, iso=empty),
    ]
    return Fanifold(dimension=2, strata=strata, arrows=arrows)


def necklace(r: int) -> Fanifold:
    """A cycle of r projective lines: r point strata and r open edges.

    Vertex i exits along its positive ray into edge i and along its
    negative ray into edge i-1 (cyclically).  For r = 1 both arrows hit
    the same edge, so the diagram is not a poset.
    """
    if r < 1:
        raise ValueError("need at least one bead")
    vfan = p1_fan()
    efan = Fan([zero_cone(0)], 0)
    empty = lattice_map((), 0, 0)
    strata = []
    arrows = []
    for i in range(1, r + 1):
        strata.append(Stratum(name=f"v{i}", dim=0, fan=vfan))
    for i in range(1, r + 1):
        strata.append(Stratum(name=f"e{i}", dim=1, fan=efan))
    for i in range(1, r + 1):
        prev = r if i == 1 else i - 1
        arrows.append(Arrow(source=f"v{i}", target=f"e{i}", cone_index=1, iso=empty))
        arrows.append(Arrow(source=f"v{i}", target=f"e{prev}", cone_index=2, iso=empty))
    return Fanifold(dimension=1, strata=strata, arrows=arrows)


def unigon() -> Fanifold:
    """A corner whose two boundary rays are glued into a single edge.

    Sections over it are polynomials in two variables whose restrictions
    to the two axes agree, which squeezes the chart diagram into a
    non-poset: two parallel arrows from the vertex to the edge.
    """
    vfan = orthant_fan(2)
    efan = a1_fan()
    ufan = Fan([zero_cone(0)], 0)
    one = lattice_map(((1,),), 1, 1)
    empty = lattice_map((), 0, 0)
    ray1 = vfan.cone_index(Cone([(1, 0)], 2))
    ray2 = vfan.cone_index(Cone([(0, 1)], 2))
    top = vfan.cone_index(Cone([(1, 0), (0, 1)], 2))
    strata = [
        Stratum(name="v", dim=0, fan=vfan),
        Stratum(name="e", dim=1, fan=efan),
        Stratum(name="u", dim=2, fan=ufan),
    ]
    arrows = [
        Arrow(source="v", target="e", cone_index=ray1, iso=one),
        Arrow(source="v", target="e", cone_index=ray2, iso=one),
        Arrow(source="v", target="u", cone_index=top, iso=empty),
        Arrow(source="e", target="u", cone_index=1, iso=empty),
    ]
    return Fanifold(dimension=2, strata=strata, arrows=arrows)


EXAMPLES = {
    "unigon": unigon,
    "necklace1": lambda: necklace(1),
    "necklace2": lambda: necklace(2),
    "necklace3": lambda: necklace(3),
    "interval": interval,
    "square": square,
    "halfplane": halfplane,
    "3a1": three_a1,
    "quadric_stacky": stacky_quadric,
    "affine1": lambda: affine_space(1),
    "affine2": lambda: affine_space(2),
    "affine3": lambda: affine_space(3),
    "proj1": lambda: projective_space(1),
    "proj2": lambda: projective_space(2),
    "proj3": lambda: projective_space(3),
}
