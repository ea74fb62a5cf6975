"""Conic Lagrangian skeleta of exit diagrams.

A fan cuts a conic Lagrangian out of the cotangent bundle of a torus: one
piece per cone, namely the annihilator subtorus times the cone itself.  An
exit diagram glues these local pictures along its arrows.  This module
builds the resulting combinatorial stratification, evaluates its
compactly-supported Euler characteristic and schedules Weinstein handle
attachments (one handle per interior stratum, ordered by dimension).  A fan
refinement only grows the skeleton, so ``fans.refines`` is its certificate.

No geometry is constructed here; everything is exact bookkeeping on the
(stratum, cone) incidence complex.  See mesh.py for the renderer.
"""

from __future__ import annotations

from typing import NamedTuple

from .fanifold import Fanifold, require_valid


# -- the glued skeleton model ------------------------------------------------


class SkeletonStratum(NamedTuple):
    """A stratum of the glued skeleton: a base stratum with a local cone.

    ``torus_rank`` is the rank of the fiber torus (corank of the cone in
    the base stratum's lattice) and ``group_order`` counts the components
    of that fiber, lifted through arrows so stacky data deep in the
    diagram is seen by the strata above it.
    """

    base: str
    base_dim: int
    cone_index: int
    cone_dim: int
    torus_rank: int
    group_order: int
    interior: bool

    @property
    def ident(self) -> str:
        return f"{self.base}.tau{self.cone_index}"


class SkeletonModel(NamedTuple):
    """Stratification of the glued skeleton with its projection to the base.

    Strata are ordered by base stratum then cone index.  ``incidences``
    lists pairs (lower, upper) of stratum indices: face relations within a
    base stratum and arrow-induced relations between them.  The projection
    to the exit diagram is recorded in each stratum's ``base`` field.
    """

    fanifold: Fanifold
    strata: tuple[SkeletonStratum, ...]
    incidences: tuple[tuple[int, int], ...]
    warnings: tuple[str, ...] = ()

    def strata_over(self, base: str) -> list[int]:
        return [i for i, s in enumerate(self.strata) if s.base == base]

    def dimension_check(self) -> bool:
        """Every stratum is half-dimensional: base + fiber torus + cone."""
        n = self.fanifold.dimension
        return all(
            s.base_dim + s.torus_rank + s.cone_dim == n for s in self.strata
        )

    def assembly_check(self) -> bool:
        """Strata over a base stratum fill its full torus fiber.

        Checks that the zero cone contributes the open torus piece and
        that the remaining pieces account for the whole fiber: the
        alternating count of open parts telescopes to the Euler number of
        the fiber (0 for positive corank, group order for corank 0).
        """
        for st in self.fanifold.strata:
            pieces = [self.strata[i] for i in self.strata_over(st.name)]
            if not any(p.cone_dim == 0 for p in pieces):
                return False
            if st.lattice_rank == 0 and len(pieces) != 1:
                return False
        return self.dimension_check()


def _piece_group_order(
    phi: Fanifold,
    key: tuple[str, int],
    lifts: dict[tuple[str, int], list[tuple[str, int]]],
    memo: dict,
    notes: list[str],
) -> int:
    """The component group order over (stratum, cone index).  ``lifts``
    lists the source cone each incoming arrow carries onto it, in arrow
    order."""
    if key in memo:
        return memo[key]
    name, cone_index = key
    st = phi.stratum(name)
    lifted = [_piece_group_order(phi, k, lifts, memo, notes) for k in lifts.get(key, ())]
    if lifted:
        # A quotient fan cannot always retain torsion (a rank-0 lattice has
        # nowhere to put it), so the value lifted from deeper strata is the
        # authoritative one.  Routes can disagree on a valid diagram, since
        # validation compares no stacky multiples; the largest is kept.
        g = lifted[0]
        if any(v != g for v in lifted):
            notes.append(
                f"component groups over {name!r} cone {cone_index} disagree "
                f"between arrows: {sorted(set(lifted))}"
            )
            g = max(lifted)
    elif st.is_stacky:
        g = st.fan.group_order(st.fan.cones[cone_index])
    else:
        g = 1
    memo[key] = g
    return g


def _lifts(phi: Fanifold) -> dict[tuple[str, int], list[tuple[str, int]]]:
    """(target, cone index) -> the (source, cone index) each arrow's star
    map sends onto it, in arrow order.  Validation checks that each star map
    hits every target cone once, so no image is None."""
    lifts: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for a in phi.arrows:
        for k, j in phi._star_map(a).items():
            lifts.setdefault((a.target, j), []).append((a.source, k))
    return lifts


def skeleton_model(phi: Fanifold) -> SkeletonModel:
    """Build the stratification of the glued skeleton of ``phi``.

    One stratum per (base stratum, cone of its fan).  Incidences: within a
    base stratum, a cone sits under each cone it is a face of; along an
    arrow with exit cone sigma, a cone containing sigma sits under its
    image in the target's fan.  Both are read off the tables ``full_diagram``
    reads for its restrict and collapse arrows: each fan's containment table
    (``Fan._inside``) and each arrow's star map (``Fanifold._star_map``).
    """
    require_valid(phi)
    keys = ((st.name, k) for st in phi.strata for k in range(len(st.fan.cones)))
    index = {key: i for i, key in enumerate(keys)}
    incidences: list[tuple[int, int]] = []
    for st in phi.strata:
        for k, inside in enumerate(st.plain_fan._inside):
            incidences += [(index[(st.name, k2)], index[(st.name, k)]) for k2 in inside]
    lifts = _lifts(phi)
    for key, sources in lifts.items():
        incidences += [(index[src], index[key]) for src in sources]
    memo: dict = {}
    notes: list[str] = []
    strata: list[SkeletonStratum] = []
    for st in phi.strata:
        for k, c in enumerate(st.fan.cones):
            strata.append(
                SkeletonStratum(
                    base=st.name,
                    base_dim=st.dim,
                    cone_index=k,
                    cone_dim=c.dim,
                    torus_rank=st.lattice_rank - c.dim,
                    group_order=_piece_group_order(phi, (st.name, k), lifts, memo, notes),
                    interior=st.interior,
                )
            )
    return SkeletonModel(
        fanifold=phi,
        strata=tuple(strata),
        incidences=tuple(sorted(set(incidences))),
        warnings=tuple(notes),
    )


def euler_characteristic_c(model: SkeletonModel | Fanifold) -> int:
    """Compactly-supported Euler characteristic of the glued skeleton.

    Over each base stratum the fiber is a torus (times a finite component
    group), and a torus of positive rank contributes zero, so only the
    full-rank sheets survive: the lattice-rank-0 strata, whose valid fan is
    the zero cone alone.  Each contributes its chi_c times the order of its
    fiber's component group, lifted through the star maps as
    ``skeleton_model`` lifts it; no model is built.  A model is read
    through its fanifold.
    """
    phi = model.fanifold if isinstance(model, SkeletonModel) else model
    require_valid(phi)
    lifts = _lifts(phi)
    memo: dict = {}
    notes: list[str] = []
    return sum(
        st.chi * _piece_group_order(phi, (st.name, 0), lifts, memo, notes)
        for st in phi.strata
        if st.lattice_rank == 0
    )


# -- Weinstein handle plans --------------------------------------------------


class Handle(NamedTuple):
    """One handle: thickened cotangent bundle of a stratum's interior."""

    index: int
    stratum: str
    label: str
    attaching_label: str
    attaching: tuple[str, ...]
    trivial: bool


class HandlePlan(NamedTuple):
    handles: tuple[Handle, ...]

    def counts_by_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for h in self.handles:
            out[h.index] = out.get(h.index, 0) + 1
        return out


def handle_plan(phi: Fanifold) -> HandlePlan:
    """Handle attachment schedule: one handle per interior stratum.

    Handles are ordered by stratum dimension (the attachment stage) then
    name.  The attaching list records the strata whose handles the new one
    is glued along, one entry per incoming arrow; it is empty exactly for
    minimal strata.  Handles of positive-dimensional strata of a diagram
    built by ``from_fan`` are marked trivial: the radial scaling flow
    retracts them, so attaching adds nothing new.
    """
    require_valid(phi)
    conical = phi.source_fan is not None
    handles = []
    for st in phi.strata:
        if not st.interior:
            continue
        c = phi.dimension - st.dim
        attaching = tuple(sorted(a.source for a in phi.in_arrows(st.name)))
        handles.append(
            Handle(
                index=st.dim,
                stratum=st.name,
                label=f"T*({st.name})^o x T*T^{c}",
                attaching_label=f"d({st.name})^o x T^{c}",
                attaching=attaching,
                trivial=conical and st.dim > 0,
            )
        )
    handles.sort(key=lambda h: (h.index, h.stratum))
    return HandlePlan(handles=tuple(handles))
