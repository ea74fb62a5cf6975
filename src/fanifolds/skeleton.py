"""Conic Lagrangian skeleta of exit diagrams.

A fan cuts a conic Lagrangian out of the cotangent bundle of a torus: one
piece per cone, namely the annihilator subtorus times the cone itself.  An
exit diagram glues these local pictures along its arrows.  This module
builds the resulting combinatorial stratification, evaluates its
compactly-supported Euler characteristic, schedules Weinstein handle
attachments (one handle per interior stratum, ordered by dimension), and
certifies skeleton inclusions induced by fan refinements.

No geometry is constructed here; everything is exact bookkeeping on the
(stratum, cone) incidence complex.  See mesh.py for the renderer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone
from .fans import Fan, StackyFan, refines, require_valid_fan
from .fanifold import Fanifold, require_valid
from .lattice import dot, identity_matrix, invert_unimodular, mat_mul, transpose


# -- conic pieces of a single fan --------------------------------------------


@dataclass(frozen=True)
class FLTZPiece:
    """One cone's contribution: annihilator subtorus times the cone."""

    cone_index: int
    cone: Cone
    torus_rank: int
    component_group: tuple[int, ...] = ()

    @property
    def group_order(self) -> int:
        n = 1
        for k in self.component_group:
            n *= k
        return n


def fltz_pieces(fan: Fan | StackyFan) -> list[FLTZPiece]:
    """One piece per cone.

    The torus rank is the corank of the cone; the component group is the
    torsion of the lattice modulo the span of the cone's (stacky)
    generators.  Plain fans always give connected annihilators because the
    lattice points of a cone generate the saturation of its span.
    """
    plain = require_valid_fan(fan)
    pieces = []
    for i, c in enumerate(plain.cones):
        group: tuple[int, ...] = ()
        if isinstance(fan, StackyFan):
            group = fan.component_group(c)
        pieces.append(
            FLTZPiece(
                cone_index=i,
                cone=c,
                torus_rank=plain.rank - c.dim,
                component_group=group,
            )
        )
    return pieces


# -- the glued skeleton model ------------------------------------------------


@dataclass(frozen=True)
class SkeletonStratum:
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


@dataclass
class SkeletonModel:
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

    def pi(self, i: int) -> str:
        """Projection to the base exit diagram."""
        return self.strata[i].base

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
    name: str,
    cone_index: int,
    memo: dict,
    notes: list[str],
) -> int:
    key = (name, cone_index)
    if key in memo:
        return memo[key]
    st = phi.stratum(name)
    tau = st.plain_fan.cones[cone_index]
    lifted = []
    for a in phi.in_arrows(name):
        sigma = phi.arrow_cone(a)
        amap = phi.arrow_map(a)
        src_fan = phi.stratum(a.source).plain_fan
        for k, c in enumerate(src_fan.cones):
            if c.contains_cone(sigma) and c.image(amap) == tau:
                lifted.append(_piece_group_order(phi, a.source, k, memo, notes))
                break
    if lifted:
        # A quotient fan cannot always retain torsion (a rank-0 lattice has
        # nowhere to put it), so the value lifted from deeper strata is the
        # authoritative one; routes only disagree on incoherent diagrams.
        g = lifted[0]
        if any(v != g for v in lifted):
            notes.append(
                f"component groups over {name!r} cone {cone_index} disagree "
                f"between arrows: {sorted(set(lifted))}"
            )
            g = max(lifted)
    elif st.is_stacky:
        g = st.fan.group_order(tau)
    else:
        g = 1
    memo[key] = g
    return g


def skeleton_model(phi: Fanifold) -> SkeletonModel:
    """Build the stratification of the glued skeleton of ``phi``.

    One stratum per (base stratum, cone of its fan).  Incidences: within a
    base stratum, a cone sits under each cone it is a face of; along an
    arrow with exit cone sigma, a cone containing sigma sits under its
    image in the target's fan.
    """
    require_valid(phi)
    memo: dict = {}
    notes: list[str] = []
    strata: list[SkeletonStratum] = []
    for st in phi.strata:
        fan = st.plain_fan
        for k, c in enumerate(fan.cones):
            strata.append(
                SkeletonStratum(
                    base=st.name,
                    base_dim=st.dim,
                    cone_index=k,
                    cone_dim=c.dim,
                    torus_rank=st.lattice_rank - c.dim,
                    group_order=_piece_group_order(phi, st.name, k, memo, notes),
                    interior=st.interior,
                )
            )
    index = {(s.base, s.cone_index): i for i, s in enumerate(strata)}
    incidences: list[tuple[int, int]] = []
    for st in phi.strata:
        fan = st.plain_fan
        for k, c in enumerate(fan.cones):
            for k2, c2 in enumerate(fan.cones):
                if k2 != k and c.contains_cone(c2):
                    incidences.append(
                        (index[(st.name, k2)], index[(st.name, k)])
                    )
    for a in phi.arrows:
        sigma = phi.arrow_cone(a)
        amap = phi.arrow_map(a)
        src_fan = phi.stratum(a.source).plain_fan
        tgt_fan = phi.stratum(a.target).plain_fan
        for k, c in enumerate(src_fan.cones):
            if not c.contains_cone(sigma):
                continue
            j = tgt_fan.cone_index(c.image(amap))
            if j is None:
                raise ValueError(
                    f"arrow {a.source!r} -> {a.target!r} does not carry cone "
                    f"{k} into the target fan"
                )
            incidences.append((index[(a.source, k)], index[(a.target, j)]))
    return SkeletonModel(
        fanifold=phi,
        strata=tuple(strata),
        incidences=tuple(sorted(set(incidences))),
        warnings=tuple(notes),
    )


def euler_characteristic_c(model: SkeletonModel | Fanifold) -> int:
    """Compactly-supported Euler characteristic of the glued skeleton.

    Over each base stratum the fiber is a torus (times a finite component
    group), and a torus of positive rank contributes zero, so only strata
    of full dimension survive; each contributes its own chi_c times the
    order of its fiber's component group.
    """
    if isinstance(model, Fanifold):
        model = skeleton_model(model)
    total = 0
    for s in model.strata:
        if s.torus_rank == 0 and s.cone_dim == 0:
            st = model.fanifold.stratum(s.base)
            if st.lattice_rank == 0:
                total += st.chi * s.group_order
    return total


# -- Weinstein handle plans --------------------------------------------------


@dataclass(frozen=True)
class Handle:
    """One handle: thickened cotangent bundle of a stratum's interior."""

    index: int
    stratum: str
    label: str
    attaching_label: str
    attaching: tuple[str, ...]
    trivial: bool


@dataclass(frozen=True)
class HandlePlan:
    handles: tuple[Handle, ...]

    def counts_by_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for h in self.handles:
            out[h.index] = out.get(h.index, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.handles)


def handle_plan(phi: Fanifold) -> HandlePlan:
    """Handle attachment schedule: one handle per interior stratum.

    Handles are ordered by stratum dimension (the attachment stage) then
    name.  The attaching list records the strata whose handles the new one
    is glued along, one entry per incoming arrow; it is empty exactly for
    minimal strata.  Handles of positive-dimensional strata of a fan's own
    exit diagram are marked trivial: the radial scaling flow retracts
    them, so attaching adds nothing new.
    """
    require_valid(phi)
    conical = phi.provenance is not None and phi.provenance[0] == "fan"
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


# -- consistency certificates ------------------------------------------------


def canonical_section_check(model: SkeletonModel) -> bool:
    """Does picking the identity point of every fiber torus glue?

    The identity character lies in every annihilator, so the only thing
    that can go wrong is an arrow whose lattice identification fails to
    carry fibers to fibers: its matrix must be unimodular and the induced
    torus map must invert the quotient's section against its projection.
    A corrupted identification makes this fail.
    """
    phi = model.fanifold
    for a in phi.arrows:
        try:
            fq = phi.arrow_quotient(a)
            amat = a.iso.matrix
            c = fq.fan.rank
            if c == 0:
                continue
            if len(amat) != c or any(len(r) != c for r in amat):
                return False
            a_inv = invert_unimodular(amat)
            forward = mat_mul(transpose(a_inv), transpose(fq.section.matrix))
            backward = mat_mul(transpose(fq.projection.matrix), transpose(amat))
            if mat_mul(forward, backward) != identity_matrix(c):
                return False
            tgt_fan = phi.stratum(a.target).plain_fan
            for t in fq.fan.cones:
                if tgt_fan.cone_index(t.image(a.iso)) is None:
                    return False
        except (ValueError, IndexError):
            return False
    return True


def skeleton_refinement_check(
    coarse: Fan | StackyFan, fine: Fan | StackyFan
) -> bool:
    """Certify that subdividing a fan only grows its skeleton.

    Requires ``fine`` to refine ``coarse`` (precondition: raises
    otherwise), then checks, cone by cone, that the refining cones cover
    the coarse cone and their spans stay inside its span — so every
    annihilator of the coarse fan contains an annihilator of the fine one,
    giving the piecewise inclusion of skeleta.
    """
    cplain = coarse.fan if isinstance(coarse, StackyFan) else coarse
    fplain = fine.fan if isinstance(fine, StackyFan) else fine
    res = refines(fplain, cplain)
    if not res.ok:
        raise ValueError(f"not a refinement: {res.problems[0]}")
    for big in cplain.cones:
        pieces = [c for c in fplain.cones if big.contains_cone(c)]
        span_ok = all(
            dot(g, p) == 0
            for c in pieces
            for g in c.gens
            for p in big.perp_basis
        )
        if not span_ok:
            return False
    return True
