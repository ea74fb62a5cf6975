"""Paired chart/skeleton dictionaries and restriction bookkeeping.

Both sides of the dictionary are labeled copies of the same exit diagram:
the chart side views a stratum through the monoid rings of its local fan,
the skeleton side through the conic pieces of the same fan.  Categories
never appear here — only labels and the combinatorial shape, which is
checked by an explicit isomorphism search between the two decorated
graphs.

Restriction pairs track what happens when a down-closed set of strata is
kept: the chart side restricts section data to the closed set, the
skeleton side removes the handles of the complement.  The two removal
lists are required to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bmodel import UFunctorDescriptor, u_functor
from .fanifold import Fanifold, delete_strata, require_valid
from .skeleton import HandlePlan, handle_plan

A_SIDE_CONVENTION = (
    "opposite-side sign conventions are absorbed by negating the "
    "symplectic form; recorded once here and never acted on"
)


@dataclass(frozen=True)
class StratumLabels:
    stratum: str
    b_label: str
    a_label: str


@dataclass(frozen=True)
class ArrowLabels:
    source: str
    target: str
    cone_index: int
    b_label: str
    a_label: str


@dataclass(frozen=True)
class ShapeCertificate:
    """Result of the exhaustive matching between the two labeled diagrams."""

    ok: bool
    matching: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class MirrorDictionary:
    fanifold: Fanifold
    stratum_labels: tuple[StratumLabels, ...]
    arrow_labels: tuple[ArrowLabels, ...]
    a_side_convention: str
    certificate: ShapeCertificate

    def to_json_dict(self) -> dict:
        return {
            "strata": [
                {"stratum": s.stratum, "b": s.b_label, "a": s.a_label}
                for s in self.stratum_labels
            ],
            "arrows": [
                {
                    "source": a.source,
                    "target": a.target,
                    "cone": a.cone_index,
                    "b": a.b_label,
                    "a": a.a_label,
                }
                for a in self.arrow_labels
            ],
            "a_side_convention": self.a_side_convention,
            "certificate": {
                "ok": self.certificate.ok,
                "matching": [list(p) for p in self.certificate.matching],
            },
        }

    def to_text(self) -> str:
        rows = ["stratum | chart side | skeleton side"]
        for s in self.stratum_labels:
            rows.append(f"{s.stratum} | {s.b_label} | {s.a_label}")
        rows.append("arrow | chart side | skeleton side")
        for a in self.arrow_labels:
            rows.append(
                f"{a.source}->{a.target}[{a.cone_index}] | {a.b_label} | {a.a_label}"
            )
        rows.append(f"convention: {self.a_side_convention}")
        rows.append(
            "shape isomorphism: "
            + ("certified" if self.certificate.ok else "FAILED")
        )
        return "\n".join(rows) + "\n"


def _node_shape(phi: Fanifold, name: str) -> tuple:
    st = phi.stratum(name)
    fan = st.plain_fan
    cone_dims = tuple(sorted(c.dim for c in fan.cones))
    groups = ()
    if st.is_stacky:
        groups = tuple(sorted(st.fan.group_order(c) for c in fan.cones))
    return (st.dim, st.lattice_rank, cone_dims, groups)


def _edge_multiset(phi: Fanifold, name_map) -> dict:
    out: dict = {}
    for a in phi.arrows:
        key = (
            name_map[a.source],
            name_map[a.target],
            phi.arrow_cone(a).dim,
        )
        out[key] = out.get(key, 0) + 1
    return out


def _first_bijection(names, candidates, accept, chosen=()) -> dict | None:
    """The first assignment, in backtracking order, of a distinct candidate
    to each name (``candidates[i]`` lists those for ``names[i]``, in the
    order tried) that ``accept`` takes; None when there is none."""
    i = len(chosen)
    if i == len(names):
        assignment = dict(zip(names, chosen))
        return assignment if accept(assignment) else None
    for a in candidates[i]:
        if a not in chosen:
            found = _first_bijection(names, candidates, accept, chosen + (a,))
            if found is not None:
                return found
    return None


def _shape_isomorphism(phi_b: Fanifold, phi_a: Fanifold) -> ShapeCertificate:
    """Backtracking search for a decoration-preserving bijection of strata."""
    b_names = sorted(s.name for s in phi_b.strata)
    a_names = sorted(s.name for s in phi_a.strata)
    if len(b_names) != len(a_names):
        return ShapeCertificate(False)
    b_shape = {n: _node_shape(phi_b, n) for n in b_names}
    a_shape = {n: _node_shape(phi_a, n) for n in a_names}
    a_edges = _edge_multiset(phi_a, {n: n for n in a_names})

    def edges_ok(assignment: dict[str, str]) -> bool:
        return _edge_multiset(phi_b, assignment) == a_edges

    candidates = [[a for a in a_names if a_shape[a] == b_shape[b]] for b in b_names]
    assignment = _first_bijection(b_names, candidates, edges_ok)
    if assignment is not None:
        return ShapeCertificate(
            True, tuple(sorted((b, assignment[b]) for b in b_names))
        )
    return ShapeCertificate(False)


def mirror_dictionary(phi: Fanifold) -> MirrorDictionary:
    """Label both sides of every stratum and arrow, and certify the shape.

    The two labeled diagrams are built over the same exit diagram, so the
    certificate amounts to finding a decoration-preserving automorphism;
    the search is still exhaustive rather than assumed.
    """
    require_valid(phi)
    stratum_labels = []
    for st in phi.strata:
        r = st.lattice_rank
        stratum_labels.append(
            StratumLabels(
                stratum=st.name,
                b_label=(
                    f"monoid-ring charts of the rank-{r} fan at {st.name} "
                    f"({len(st.plain_fan.cones)} cone(s))"
                ),
                a_label=(
                    f"conic pieces of the same fan in the cotangent bundle "
                    f"of T^{r}, one per cone"
                ),
            )
        )
    arrow_labels = []
    for a in phi.arrows:
        d = phi.arrow_cone(a).dim
        arrow_labels.append(
            ArrowLabels(
                source=a.source,
                target=a.target,
                cone_index=a.cone_index,
                b_label=(
                    f"orbit-closure restriction along a {d}-dimensional "
                    f"exit cone (pushforward with its pullback)"
                ),
                a_label=(
                    f"microlocal restriction along the annihilator of the "
                    f"same {d}-dimensional cone"
                ),
            )
        )
    certificate = _shape_isomorphism(phi, phi)
    return MirrorDictionary(
        fanifold=phi,
        stratum_labels=tuple(stratum_labels),
        arrow_labels=tuple(arrow_labels),
        a_side_convention=A_SIDE_CONVENTION,
        certificate=certificate,
    )


# -- restriction pairs -------------------------------------------------------


@dataclass(frozen=True)
class RestrictionPair:
    """Matched chart-side and skeleton-side views of keeping a closed set."""

    closed: tuple[str, ...]
    b_descriptor: UFunctorDescriptor | None
    b_sequence: str
    a_subdomain: HandlePlan
    a_removed: tuple[str, ...]
    a_sequence: str

    def to_json_dict(self) -> dict:
        return {
            "closed": list(self.closed),
            "b_sequence": self.b_sequence,
            "a_sequence": self.a_sequence,
            "removed_handles": list(self.a_removed),
            "subdomain_handles": [h.stratum for h in self.a_subdomain.handles],
            "marked_charts": (
                len(self.b_descriptor.marked) if self.b_descriptor else 0
            ),
        }

    def to_text(self) -> str:
        rows = [
            f"closed set: {', '.join(self.closed) if self.closed else '(empty)'}",
            f"chart side: {self.b_sequence}",
            f"skeleton side: {self.a_sequence}",
            f"subdomain handles: {[h.stratum for h in self.a_subdomain.handles]}",
            f"removed handles: {list(self.a_removed)}",
        ]
        return "\n".join(rows) + "\n"


def restriction_pairs(phi: Fanifold, closed) -> RestrictionPair:
    """Restriction data for a down-closed set of strata.

    Chart side: the section functor supported on the closed set, with its
    three-term exactness label.  Skeleton side: the handle plan of the
    subdomain cut out by the closed set, plus the handles removed from the
    full plan.  The removed list is verified against the plain set
    difference of interior strata.
    """
    closed = tuple(sorted(set(closed)))
    names = {s.name for s in phi.strata}
    unknown = [z for z in closed if z not in names]
    if unknown:
        raise ValueError(f"unknown strata: {unknown}")
    if not phi.is_down_closed(closed):
        raise ValueError("the chosen strata are not closed (missing deeper strata)")
    full_plan = handle_plan(phi)
    sub = delete_strata(phi, [n for n in names if n not in closed])
    sub_plan = handle_plan(sub)
    removed = tuple(
        sorted(
            {h.stratum for h in full_plan.handles}
            - {h.stratum for h in sub_plan.handles}
        )
    )
    expect = tuple(
        sorted(
            s.name for s in phi.strata if s.interior and s.name not in closed
        )
    )
    if removed != expect:
        raise ValueError(
            f"handle bookkeeping mismatch: removed {removed}, expected {expect}"
        )
    b_descriptor = u_functor(phi, closed) if closed else None
    zset = ",".join(closed) if closed else "(empty)"
    b_sequence = (
        f"sections off [{zset}] -> sections of the whole diagram -> "
        f"restricted sections on [{zset}] -> 0"
    )
    a_sequence = (
        f"subdomain of the skeleton over [{zset}]; removed cocores: "
        f"{list(removed)}"
    )
    return RestrictionPair(
        closed=closed,
        b_descriptor=b_descriptor,
        b_sequence=b_sequence,
        a_subdomain=sub_plan,
        a_removed=removed,
        a_sequence=a_sequence,
    )
