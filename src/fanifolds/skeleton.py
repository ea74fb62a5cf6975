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

A piece's component group is lifted onto its cone by the incoming arrows.
Validation compares no stacky multiples, so two arrows can lift different
groups onto one cone; no group is determined then, and every reader of the
lift table (``_lift_table``) refuses the diagram with ValueError.
"""

from __future__ import annotations

import math
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


def _lift_table(phi: Fanifold) -> tuple[dict, dict]:
    """``(lifts, groups)``, keyed by (stratum, cone index).  ``lifts``
    lists (arrow index, source key) for each arrow whose star map sends a
    source cone onto the key, in arrow order; validation checks that each
    star map hits every target cone once.  ``groups`` holds every cone's
    component group (``_piece_group``): one table, so every reader refuses
    the same diagrams."""
    lifts: dict[tuple[str, int], list] = {}
    for n, a in enumerate(phi.arrows):
        for k, j in phi._star_map(a).items():
            lifts.setdefault((a.target, j), []).append((n, (a.source, k)))
    groups: dict[tuple[str, int], tuple[int, ...]] = {}
    for st in phi.strata:
        for k in range(len(st.fan.cones)):
            _piece_group(phi, (st.name, k), lifts, groups)
    return lifts, groups


def _piece_group(phi: Fanifold, key: tuple[str, int], lifts: dict, groups: dict) -> tuple[int, ...]:
    """The invariant factors of the component group over ``key``, kept in
    ``groups``: the group the incoming arrows lift onto it, else its stacky
    fan's own (none on a plain stratum).  A quotient fan cannot always
    carry torsion (a rank-0 lattice has nowhere to put it), so a lifted
    group is the one read.  ValueError when two arrows lift different
    groups."""
    g = groups.get(key)
    if g is None:
        lifted = [(n, _piece_group(phi, src, lifts, groups)) for n, src in lifts.get(key, ())]
        if lifted:
            (n0, g), *rest = lifted
            for n, h in rest:
                if h != g:
                    raise ValueError(
                        f"component groups over {key[0]!r} cone {key[1]} disagree: "
                        f"arrow {n0} lifts {list(g)}, arrow {n} lifts {list(h)}"
                    )
        else:
            st = phi.stratum(key[0])
            g = st.fan.component_group(st.fan.cones[key[1]]) if st.is_stacky else ()
        groups[key] = g
    return g


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
    lifts, groups = _lift_table(phi)
    for key, sources in lifts.items():
        incidences += [(index[src], index[key]) for _, src in sources]
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
                    group_order=math.prod(groups[st.name, k]),
                    interior=st.interior,
                )
            )
    return SkeletonModel(
        fanifold=phi,
        strata=tuple(strata),
        incidences=tuple(sorted(set(incidences))),
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
    _, groups = _lift_table(phi)
    return sum(
        st.chi * math.prod(groups[st.name, 0])
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
