"""Paired chart/skeleton dictionaries and restriction bookkeeping.

Both sides of the dictionary are labeled copies of the same exit diagram:
the chart side views a stratum through the monoid rings of its local fan,
the skeleton side through the conic pieces of the same fan.  Categories
never appear here — only labels and a certificate that the two builders
agree: ``full_diagram`` and ``skeleton_model`` must give the same
(stratum, cone) keys, matching ranks (chart lattice rank less cone
dimension is the piece's torus rank) and the same incidences (chart maps
against skeleton incidences).  Both read each fan's containment table and
each arrow's star map, so the certificate checks the two builders against
each other, not against the geometry; it compares no group orders, since
the chart side carries none.

Restriction pairs track what happens when a down-closed set of strata is
kept: the chart side restricts section data to the closed set, the
skeleton side splits the full handle plan, keeping the handles of the
closed strata and removing the others (the interior strata outside the
closed set).  No diagram is built for the closed set.
"""

from __future__ import annotations

from typing import NamedTuple

from .bmodel import ToricDiagram, UFunctorDescriptor, full_diagram, u_functor
from .fanifold import Fanifold, require_valid
from .skeleton import HandlePlan, SkeletonModel, handle_plan, skeleton_model

A_SIDE_CONVENTION = (
    "opposite-side sign conventions are absorbed by negating the "
    "symplectic form; recorded once here and never acted on"
)


class StratumLabels(NamedTuple):
    stratum: str
    b_label: str
    a_label: str


class ArrowLabels(NamedTuple):
    source: str
    target: str
    cone_index: int
    b_label: str
    a_label: str


class ShapeCertificate(NamedTuple):
    """Whether the chart diagram and the skeleton model agree.

    On success ``matching`` pairs each stratum with itself: both sides are
    indexed by the same (stratum, cone) keys.
    """

    ok: bool
    matching: tuple[tuple[str, str], ...] = ()


class MirrorDictionary(NamedTuple):
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


def _certify(diagram: ToricDiagram, model: SkeletonModel) -> ShapeCertificate:
    """Compare the chart diagram with the skeleton model, (stratum, cone) by
    (stratum, cone).

    Charts and pieces must carry the same keys in the same order, each
    chart's lattice rank less its cone's dimension must be the piece's
    torus rank, and the chart maps must give the incidences: a restriction
    as (target, source), a collapse as (source, target).  Maps are compared
    as a set, so parallel maps between two charts count once.
    """
    pairs = {
        (a.target, a.source) if a.kind == "restrict" else (a.source, a.target)
        for a in diagram.arrows
    }
    agree = (
        [(o.stratum, o.cone_index) for o in diagram.objects]
        == [(s.base, s.cone_index) for s in model.strata]
        and all(
            diagram.object_rank(i) - diagram.object_cone(i).dim == s.torus_rank
            for i, s in enumerate(model.strata)
        )
        and pairs == set(model.incidences)
    )
    if not agree:
        return ShapeCertificate(False)
    names = sorted(st.name for st in diagram.fanifold.strata)
    return ShapeCertificate(True, tuple((n, n) for n in names))


def mirror_dictionary(phi: Fanifold) -> MirrorDictionary:
    """Label both sides of every stratum and arrow, and certify the shape.

    The certificate compares ``full_diagram(phi)`` with ``skeleton_model(phi)``
    as built: charts against pieces, ranks against torus ranks, chart maps
    against incidences (see ``_certify``).  Both builders read the same
    containment tables and star maps, so it checks that they agree; it
    compares no group orders.
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
                    f"({len(st.fan.cones)} cone(s))"
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
    certificate = _certify(full_diagram(phi), skeleton_model(phi))
    return MirrorDictionary(
        fanifold=phi,
        stratum_labels=tuple(stratum_labels),
        arrow_labels=tuple(arrow_labels),
        a_side_convention=A_SIDE_CONVENTION,
        certificate=certificate,
    )


# -- restriction pairs -------------------------------------------------------


class RestrictionPair(NamedTuple):
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
    three-term exactness label.  Skeleton side: the handles of ``phi``'s
    plan (``handle_plan``, one handle per interior stratum) split in two.
    The subdomain cut out by the closed set keeps the handles of its
    strata, in plan order; the others, sorted by stratum, are removed.
    """
    closed = phi.require_closed(closed)
    plan = handle_plan(phi)
    sub_plan = HandlePlan(tuple(h for h in plan.handles if h.stratum in closed))
    removed = tuple(sorted(h.stratum for h in plan.handles if h.stratum not in closed))
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
