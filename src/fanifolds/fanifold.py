"""Fanifolds: finite exit diagrams of strata decorated with lattices and fans.

A stratum stores its manifold dimension and a transverse fan whose rank is
the codimension.  An arrow from a deeper stratum G to a nearby stratum F
records a cone of G's fan together with a unimodular identification of the
quotient lattice with F's lattice.  Everything downstream (glued toric
spaces, skeleta, mirrors) is computed from this diagram alone.

A composite is looked up, not searched for: on a valid diagram, b after a
is the arrow on the cone that a's star map sends onto b's cone
(``Fanifold._arrow_on``), as validation's coherence loop proves.

The one record a diagram keeps beyond it is ``Fanifold.source_fan``: the fan
a diagram built by ``from_fan`` came from, None for every other diagram and
for every diagram read from a file.  Only ``skeleton.handle_plan`` and the
fan layout of ``mesh.export_mesh`` read it.

Validation happens once, at the boundary.  A diagram built directly or read
from a file is validated at its first use; ``from_fan`` and
``sphere_section`` check their fan and carry what validation would find,
by the cone strata lemma below: the report, each arrow's star map, and each
stratum fan recorded valid with its containment table (``fans._set_valid``).
Validation itself proves a valid diagram from its generating arrows, those
whose cone is a ray, by the generating arrow lemma below
(``Fanifold._proved``); a diagram that proof does not pass gets every check
(``Fanifold._full_report``), so an invalid diagram's report names each
fault.

Generating arrow lemma.  Suppose the strata have distinct names and dims
adding up to the total dimension, and each arrow joins two strata along a
nonzero cone of its source fan whose dim is the dim difference, with a
unimodular iso of rank (source rank - cone dim) onto the target's rank,
each nonzero cone carrying exactly one arrow.  Suppose further that,
walking the strata by dim, each stratum fan is valid with a zero cone, and
each generating arrow's star map is one to one onto its target's cones;
that each cone of dim >= 2 with an arrow holds a ray of its fan; and that
each pair (a, b) with a generating is coherent.  Then every arrow passes
``Fanifold._arrow_error`` and every pair is coherent, so every check of
``Fanifold._full_report`` passes.  For c on sigma, with rho the first ray
of the fan in sigma, a1 the arrow on rho and a2 the arrow on a1's image
kappa of sigma, c's star map is a2's after a1's.

Proof.  (fans) A generating arrow leaves a stratum of lower dim than its
target, whose fan is valid, so its target fan, the image of a star, is
valid (the star lemma in ``fans``) and holds the image of the ray, the
zero cone: walking by dim, a carried fan's check reads its recorded empty
problems.  (arrows) The span quotient of a cone of a valid fan has free
rank (rank - dim), so a generating arrow passes ``_arrow_error``.  Take c
on sigma of dim >= 2, by induction on dim sigma.  The star map f1 of a1 is
one to one from the star of rho onto the cones of a1's target and keeps
nesting both ways (star lemma), so it sends the star of sigma one to one
onto the star of kappa = f1(sigma), which is nonzero, as sigma is not rho.
The arrow a2 on kappa has a cone of dim sigma - 1, so by induction its star
map f2 is its own and one to one onto its target's cones.  The pair (a1,
a2) is coherent: the composite looked up is the arrow on the cone f1 sends
onto kappa, sigma, which is c, so c goes to a2's target and its arrow map
is a2's after a1's.  The image of a cone under a composite is the image of
its image, so c's star map is f2 after f1 on the star of sigma, one to one
onto the target's cones: c passes, and the derived map is c's own.
(coherence) Take a pair (a, b), by induction on dim sigma_a; generating a
was checked.  Otherwise write a's maps as a2's after a1's, as above.  Let
tau be the cone a's star map sends onto sigma_b, and tau' = f1(tau), which
holds kappa, so it is nonzero and carries one arrow e.  The pair (a2, b) is
coherent by induction: the arrow on the cone f2 sends onto sigma_b, tau',
is e, which goes to b's target with map b's after a2's.  The pair (a1, e)
was checked: the arrow on tau, the composite looked up for (a, b), goes to
e's target, b's, with map e's after a1's, that is b's after a's.

Cone strata lemma.  Let F be a valid fan of rank n, K a set of its cones
holding every cone that holds one of them, and s >= 0, with dim i >= s on
K.  For i in K let p_i be the projection of i's span quotient and F_i the
star quotient of i (the images under p_i of the cones holding i).  The
diagram of dimension n - s with a stratum s<i> of dimension dim i - s and
fan F_i per i in K, and for each cone j holding i (j != i) an arrow
s<i> -> s<j> along the image k of j with an iso g, g . p_k . p_i = p_j,
passes every check of ``Fanifold.validate``, is coherent and has no
parallel arrows.

Proof.  (dims) dim i - s + (n - dim i) = n - s, and dim i - s >= 0.
(fans) F_i is a valid fan (the star lemma in ``fans``), and holds p_i(i),
the zero cone; its cones nest as their preimages do.  (arrows) The images
under p_i of the cones holding i are distinct, and only p_i(i) is zero, so
each nonzero cone k of F_i is the image of exactly one j != i, which is in
K: it carries exactly one arrow, and no two arrows join one pair of
strata.  The cone k has dimension dim j - dim i, the dim difference, and
its quotient has rank n - dim j, the target's.  p_k . p_i and p_j are
surjections of Z^n onto Z^(n - dim j) with one kernel, the saturated span
of j (the span of i lies in it), so they differ by a unique automorphism:
g exists and is unimodular.  (star maps) A cone p_i(t) of F_i holds k
exactly when t holds j, as the cones nest as their preimages do, and the
arrow map g . p_k sends it to g . p_k . p_i (t) = p_j(t), the cone of F_j
at the place of t in j's star: the star map is one to one onto F_j's
cones.  (coherence) Take a: s<i> -> s<j> and b: s<j> -> s<l>.  The star
map of a sends the image of l in F_i onto b's cone, the image of l in
F_j, so the composite looked up is the arrow c: s<i> -> s<l>, whose target
is b's; and its arrow map and b's after a's both give p_l after p_i,
which is onto, so they are equal.  ``_cone_strata`` builds this diagram
(``from_fan``: K all cones and s = 0; ``sphere_section``: the nonzero
cones and s = 1), and reads each star map off the star quotients.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .cones import Cone, cached_property, cone_key, product_cone, zero_cone
from .fans import (
    Fan,
    StackyFan,
    _plain_fan,
    _set_valid,
    fan_key,
    quotient_fan,
    require_valid_fan,
)
from .lattice import (
    LatticeMap,
    Mat,
    QuotientResult,
    Vec,
    identity_matrix,
    integer_kernel,
    invert_unimodular,
    lattice_map,
    mat,
    mat_mul,
    primitivize,
    transpose,
    vec_scale,
    vec_sub,
)


class Stratum(NamedTuple):
    name: str
    dim: int
    fan: Fan | StackyFan  # stacky data as a StackyFan; tables on ``plain_fan``
    interior: bool = True
    chi_c: int | None = None  # None means the contractible default (-1)^dim

    @property
    def plain_fan(self) -> Fan:
        """The fan that computes: ``fan``, or a stacky ``fan``'s plain fan.
        Read it for ``Fan`` methods and tables; ``fan`` for the cones, the
        rank, the rays and the multiples."""
        return _plain_fan(self.fan)

    @property
    def is_stacky(self) -> bool:
        return isinstance(self.fan, StackyFan)

    @property
    def lattice_rank(self) -> int:
        return self.fan.rank

    @property
    def chi(self) -> int:
        return self.chi_c if self.chi_c is not None else (-1) ** self.dim


class Arrow(NamedTuple):
    source: str
    target: str
    cone_index: int  # index into the source stratum's fan
    iso: LatticeMap  # free quotient of the source lattice by the cone's span -> target lattice


class ValidationReport(NamedTuple):
    is_poset: bool
    coherent: bool
    errors: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.errors


class Fanifold:
    """An exit diagram of strata and arrows in total dimension ``dimension``.

    ``source_fan`` is the fan a diagram built by ``from_fan`` came from, and
    None otherwise; files do not carry it.
    """

    def __init__(
        self,
        dimension: int,
        strata: Iterable[Stratum],
        arrows: Iterable[Arrow],
        source_fan: Fan | None = None,
    ):
        """Strata may hold one ``Fan`` between them: the loader and the
        constructors give equal stratum fans (``fans.fan_key``) one object.
        The arrow tables (``arrow_map``, ``_star_map``, ``_collapse_forward``)
        read the span quotient of the arrow's cone (``Cone.quotient``) and
        build no star quotient fan; the constructors take each arrow's iso
        from that same span quotient, and build star quotient fans only as
        the stratum fans of ``from_fan`` and ``sphere_section``."""
        self.dimension = dimension
        self.strata = tuple(strata)
        self.arrows = tuple(arrows)
        self.source_fan = source_fan
        self.by_name = {s.name: s for s in self.strata}
        out: dict[str, list[Arrow]] = {}
        into: dict[str, list[Arrow]] = {}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
            into.setdefault(a.target, []).append(a)
        self._out = {name: tuple(arrows) for name, arrows in out.items()}
        self._in = {name: tuple(arrows) for name, arrows in into.items()}
        self._arrow_maps: dict[Arrow, LatticeMap] = {}
        self._star_maps: dict[Arrow, dict[int, int | None]] = {}
        self._collapses: dict[Arrow, Mat] = {}
        # bmodel's chart sets: each chart tuple -> its index and census
        # plan, and None -> the full diagram's.  Plain data only, never a
        # diagram: nothing in it refers back to this fanifold.
        self._chart_sets: dict[tuple | None, object] = {}

    def __repr__(self) -> str:
        return (
            f"Fanifold(dim={self.dimension}, strata={len(self.strata)}, "
            f"arrows={len(self.arrows)})"
        )

    def stratum(self, name: str) -> Stratum:
        try:
            return self.by_name[name]
        except KeyError:
            raise ValueError(f"unknown stratum {name!r}") from None

    def out_arrows(self, name: str) -> tuple[Arrow, ...]:
        return self._out.get(name, ())

    def in_arrows(self, name: str) -> tuple[Arrow, ...]:
        return self._in.get(name, ())

    def arrow_cone(self, a: Arrow) -> Cone:
        return self.stratum(a.source).fan.cones[a.cone_index]

    def arrow_map(self, a: Arrow) -> LatticeMap:
        """The composite lattice map source lattice -> target lattice, the
        iso after the cone's span quotient, built once per arrow."""
        out = self._arrow_maps.get(a)
        if out is None:
            out = self._arrow_maps[a] = a.iso.compose(self.arrow_cone(a).quotient.projection)
        return out

    def _star_map(self, a: Arrow) -> dict[int, int | None]:
        """Each source cone containing the arrow's cone, in index order ->
        the index of its image under ``arrow_map`` in the target fan (None
        when it is no cone there), as ``tgt.cone_index(c.image(lmap))``
        gives it.  No star quotient fan is built.  ``from_fan`` and
        ``sphere_section`` carry their arrows' maps, read off their star
        quotients, and validation of a valid diagram keeps each composite
        arrow's map, derived from two others (``_proved``).

        Each distinct gen of the star is mapped once.  The image of a cone c
        is the cone on the images of its gens (not of its extremal rays: a
        cone with a line is not spanned by those).  When the primitive
        nonzero images are exactly the extremal rays of a strongly convex
        target cone, the image is that cone, for any linear map, unimodular
        or not; so looking their set up in the target's ``_first_index``
        gives the index ``cone_index`` would.  A miss (a non-simplicial star
        cone, where a ray's image can fall inside the image cone) builds the
        image cone and keys it.  Reading the star needs a valid source fan,
        and every cone of one has the map's source rank."""
        out = self._star_maps.get(a)
        if out is None:
            fan, i = self.stratum(a.source).plain_fan, a.cone_index
            lmap, tgt = self.arrow_map(a), self.stratum(a.target).plain_fan
            ray_of: dict[Vec, Vec | None] = {}  # gen -> primitive image, None if 0
            out = {}
            for k in fan._stars[i]:
                c = fan.cones[k]
                for g in c.gens:
                    if g not in ray_of:
                        im = lmap(g)
                        ray_of[g] = primitivize(im) if any(im) else None
                rays = {ray_of[g] for g in c.gens}
                rays.discard(None)
                j = tgt._first_index.get(cone_key(lmap.target_rank, rays))
                out[k] = tgt.cone_index(c.image(lmap)) if j is None else j
            self._star_maps[a] = out
        return out

    def _collapse_forward(self, a: Arrow) -> Mat:
        """Monomial matrix of the orbit-closure co-map along an arrow, from
        the source lattice's sigma^perp to the target lattice (no rows for a
        rank-0 target), built once per arrow."""
        out = self._collapses.get(a)
        if out is None:
            section, m = self.arrow_cone(a).quotient.section, a.iso.matrix
            out = self._collapses[a] = mat_mul(
                transpose(invert_unimodular(m)), transpose(section.matrix)
            )
        return out

    def minimal_strata(self) -> list[Stratum]:
        targets = {a.target for a in self.arrows}
        return [s for s in self.strata if s.name not in targets]

    def leq(self, g: str, f: str) -> bool:
        """Exit order: g below f (g == f, or an arrow g -> f exists)."""
        return g == f or any(a.target == f for a in self.out_arrows(g))

    def down_closure(self, names: Iterable[str]) -> set[str]:
        want = set(names)
        return {s.name for s in self.strata if any(self.leq(s.name, f) for f in want)}

    def is_down_closed(self, names: Iterable[str]) -> bool:
        names = set(names)
        return all(
            a.source in names for a in self.arrows if a.target in names
        )

    def require_closed(self, names: Iterable[str]) -> tuple[str, ...]:
        """The distinct names, sorted; ValueError naming the unknown ones,
        or when the set is not down-closed."""
        closed = tuple(sorted(set(names)))
        unknown = [z for z in closed if z not in self.by_name]
        if unknown:
            raise ValueError(f"unknown strata: {unknown}")
        if not self.is_down_closed(closed):
            raise ValueError("the chosen strata are not closed (missing deeper strata)")
        return closed

    def kept_cones(self, closed: Iterable[str]) -> dict[str, tuple[int, ...]]:
        """The cones a closed set of strata keeps: for each of its strata, in
        diagram order, the indices of the cones whose arrow, if any, stays
        inside the set.  ``chart_diagram`` charts these cones of a closure,
        and ``delete_strata`` keeps them."""
        closed = set(closed)
        kept = {}
        for s in self.strata:
            if s.name in closed:
                dropped = {
                    a.cone_index for a in self.out_arrows(s.name) if a.target not in closed
                }
                kept[s.name] = tuple(i for i in range(len(s.fan.cones)) if i not in dropped)
        return kept

    @cached_property
    def _arrow_on(self) -> dict[tuple[str, int], Arrow]:
        """(stratum, cone index) -> the arrow on that cone (one, if valid)."""
        return {(a.source, a.cone_index): a for a in self.arrows}

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Computed on the first call (nothing reassigns strata or arrows),
        or carried by ``from_fan`` and ``sphere_section``."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        """The generating arrow proof (``_proved``, the lemma in the module
        docstring), which keeps the composite arrows' star maps it derives;
        a diagram it does not prove valid gets ``_full_report``."""
        unimodular: dict[LatticeMap, bool] = {}
        derived = self._proved(unimodular)
        if derived is None:
            return self._full_report(unimodular)
        self._star_maps.update(derived)
        return ValidationReport(is_poset=self._is_poset(), coherent=True)

    def _is_poset(self) -> bool:
        """No two arrows join one pair of strata."""
        return len({(a.source, a.target) for a in self.arrows}) == len(self.arrows)

    def _proved(self, unimodular: dict[LatticeMap, bool]) -> dict[Arrow, dict[int, int]] | None:
        """Each composite arrow's star map when the generating arrow lemma
        proves the diagram valid and coherent; None when a check it runs
        fails, and then no derived map is kept.  The generating arrows'
        star maps are built (``_star_map``) and their target fans carried
        (``_set_valid``) as ``_full_report`` would."""
        by_name, arrow_on = self.by_name, self._arrow_on
        if len(by_name) != len(self.strata) or len(arrow_on) != len(self.arrows):
            return None
        if any(s.dim < 0 or s.dim + s.lattice_rank != self.dimension for s in self.strata):
            return None
        generating: dict[str, list[Arrow]] = {}
        composite: list[Arrow] = []
        for a in self.arrows:
            src, tgt = by_name.get(a.source), by_name.get(a.target)
            if src is None or tgt is None or not 0 <= a.cone_index < len(src.fan.cones):
                return None
            # with the dims adding up, a unimodular iso of this source rank
            # has the target's rank
            d = src.fan.cones[a.cone_index].dim
            if d == 0 or d != tgt.dim - src.dim or a.iso.source_rank != src.lattice_rank - d:
                return None
            ok = unimodular.get(a.iso)
            if ok is None:
                ok = unimodular[a.iso] = a.iso.is_unimodular()
            if not ok:
                return None
            if d == 1:
                generating.setdefault(a.source, []).append(a)
            else:
                composite.append(a)
        # the arrows sit on distinct nonzero cones; as many as there are
        if sum(c.dim > 0 for s in self.strata for c in s.fan.cones) != len(self.arrows):
            return None
        maps: dict[Arrow, dict[int, int]] = {}
        for s in sorted(self.strata, key=lambda s: s.dim):
            fan = s.plain_fan  # a carried fan reads its recorded empty problems
            if fan.validate() or all(c.dim for c in fan.cones):
                return None
            for a in generating.get(s.name, ()):
                star = maps[a] = self._star_map(a)
                tgt = by_name[a.target].plain_fan
                if len(star) != len(tgt.cones) or set(star.values()) != set(range(len(tgt.cones))):
                    return None
                _set_valid(tgt, fan, star)
        for c in sorted(composite, key=lambda a: -by_name[a.source].dim):
            fan, sigma = by_name[c.source].plain_fan, c.cone_index
            rho = min((k for k in fan._inside[sigma] if fan.cones[k].dim == 1), default=None)
            if rho is None:
                return None
            # c is a2 after a1 once the pair (a1, a2) is checked below, which
            # also ends c at a2's target
            a1 = arrow_on[c.source, rho]
            m1 = maps[a1]
            m2 = maps[arrow_on[a1.target, m1[sigma]]]
            maps[c] = {k: m2[m1[k]] for k in fan._stars[sigma]}
        for name, outs in generating.items():
            for a in outs:
                onto = {j: i for i, j in maps[a].items()}
                a_map = self.arrow_map(a).matrix
                for b in self.out_arrows(a.target):
                    c = arrow_on[name, onto[b.cone_index]]
                    composed = mat_mul(self.arrow_map(b).matrix, a_map)
                    if c.target != b.target or self.arrow_map(c).matrix != composed:
                        return None
        return {c: maps[c] for c in composite}

    def _full_report(self, unimodular: dict[LatticeMap, bool]) -> ValidationReport:
        """Every check in turn, the reference the generating arrow proof
        agrees with: strata and fans, then arrows and cones, then, if all of
        that passes, coherence: each composable pair's composite, looked
        up.  ``unimodular`` is as in ``_arrow_error``."""
        errors: list[str] = []
        checked = self._carry_valid_fans(unimodular)
        seen: set[str] = set()
        for s in self.strata:
            if s.name in seen:
                errors.append(f"duplicate stratum id {s.name!r}")
            seen.add(s.name)
        for s in self.strata:
            if s.dim < 0 or s.dim + s.lattice_rank != self.dimension:
                errors.append(
                    f"stratum {s.name!r}: dim {s.dim} + fan rank {s.lattice_rank}"
                    f" != total dimension {self.dimension}"
                )
            fan_problems = s.plain_fan.validate()
            for p in fan_problems:
                errors.append(f"stratum {s.name!r} fan: {p}")
            if not fan_problems and not any(c.dim == 0 for c in s.fan.cones):
                errors.append(f"stratum {s.name!r} fan: missing the zero cone")
        if errors:
            return ValidationReport(is_poset=False, coherent=False, errors=tuple(errors))

        for k, a in enumerate(self.arrows):
            error = checked[k] if k in checked else self._arrow_error(k, a, unimodular)
            if error is not None:
                errors.append(error)

        for s in self.strata:
            outs = self.out_arrows(s.name)
            used = [a.cone_index for a in outs]
            if len(set(used)) != len(used):
                errors.append(f"stratum {s.name!r}: two arrows share a cone")
            nonzero = {i for i, c in enumerate(s.fan.cones) if c.dim > 0}
            missing = nonzero - set(used)
            extra = set(used) - nonzero
            if missing:
                errors.append(
                    f"stratum {s.name!r}: cones {sorted(missing)} have no arrow"
                )
            if extra:
                errors.append(
                    f"stratum {s.name!r}: arrows on non-cone indices {sorted(extra)}"
                )

        coherent = True
        if not errors:
            # Each nonzero cone has exactly one arrow, and each star map is
            # one to one onto the target's cones (both checked above).  So
            # the only arrow that can be b after a is the arrow on the one
            # cone that a's star map sends onto sigma_b.
            arrow_on = self._arrow_on
            for a in self.arrows:
                onto = {j: i for i, j in self._star_map(a).items()}
                a_map = self.arrow_map(a).matrix
                for b in self.out_arrows(a.target):
                    c = arrow_on[a.source, onto[b.cone_index]]
                    composed = mat_mul(self.arrow_map(b).matrix, a_map)
                    if c.target != b.target or self.arrow_map(c).matrix != composed:
                        coherent = False
                        errors.append(
                            f"no coherent composite for {a.source}->{a.target}"
                            f"->{b.target} (cones {a.cone_index}, {b.cone_index})"
                        )
        else:
            coherent = False
        return ValidationReport(
            is_poset=self._is_poset(), coherent=coherent, errors=tuple(errors)
        )

    def _carry_valid_fans(self, unimodular: dict[LatticeMap, bool]) -> dict[int, str | None]:
        """Check the arrows out of each stratum whose fan is valid, sources
        before targets (by dim), and record the target fan of each arrow
        that passes as valid unchecked (the star lemma in ``fans``).  Returns
        arrow index -> ``_arrow_error`` for the arrows checked.  A stratum
        another one of its name hides is skipped: its arrows read the
        other's fan."""
        out_k: dict[str, list[int]] = {}
        for k, a in enumerate(self.arrows):
            out_k.setdefault(a.source, []).append(k)
        checked: dict[int, str | None] = {}
        for s in sorted(self.strata, key=lambda s: s.dim):
            fan = s.plain_fan
            if self.by_name[s.name] is not s or fan._problems:
                continue
            for k in out_k.get(s.name, ()):
                a = self.arrows[k]
                checked[k] = self._arrow_error(k, a, unimodular)
                if checked[k] is None:
                    _set_valid(self.stratum(a.target).plain_fan, fan, self._star_map(a))
        return checked

    def _arrow_error(
        self, k: int, a: Arrow, unimodular: dict[LatticeMap, bool]
    ) -> str | None:
        """The error arrow k reports, or None when it passes every check;
        its source fan must be valid.  A passing arrow's star map hits each
        target cone once.  ``unimodular`` holds ``is_unimodular`` per
        distinct iso, filled as isos are met: the matrix alone does not
        decide it, since ``()`` is the iso of every rank-0 target."""
        if a.source not in self.by_name or a.target not in self.by_name:
            return f"arrow {k}: unknown stratum id"
        src, tgt = self.stratum(a.source), self.stratum(a.target)
        if not (0 <= a.cone_index < len(src.fan.cones)):
            return f"arrow {k}: cone index {a.cone_index} out of range"
        cone = src.fan.cones[a.cone_index]
        name = f"arrow {k} ({a.source}->{a.target})"
        if cone.dim == 0:
            return f"{name}: zero cone"
        if cone.dim != tgt.dim - src.dim:
            return f"{name}: cone dim {cone.dim} != dim difference {tgt.dim - src.dim}"
        if a.iso.source_rank != cone.quotient.free_rank or a.iso.target_rank != tgt.lattice_rank:
            return f"{name}: iso shape mismatch"
        ok = unimodular.get(a.iso)
        if ok is None:
            ok = unimodular[a.iso] = a.iso.is_unimodular()
        if not ok:
            return f"{name}: iso not unimodular"
        # the target's cones are distinct: each must be hit exactly once
        images = list(self._star_map(a).values())
        n = len(tgt.fan.cones)
        if len(images) != n or set(images) != set(range(n)):
            return f"{name}: quotient fan does not match the target fan"
        return None


def require_valid(phi: Fanifold) -> ValidationReport:
    """The report of a valid diagram; ValueError listing every error otherwise."""
    report = phi.validate()
    if not report.valid:
        raise ValueError("invalid fanifold: " + "; ".join(report.errors))
    return report


# -- constructors ------------------------------------------------------------


def _iso_through_section(numerator: Mat, q: QuotientResult, target_rank: int) -> LatticeMap:
    """The map ``iso`` with ``iso . q.projection == numerator``, where ``q``
    is the span quotient of the arrow's cone (``Cone.quotient``).

    ``numerator`` must vanish on the kernel of the projection.  Then the iso
    is unique, and since the quotient's section is a right inverse of the
    projection, it is ``numerator @ section``.
    """
    free = q.free_rank
    return lattice_map(
        mat_mul(numerator, q.section.matrix) if free else (), free, target_rank
    )


def _cone_strata(
    fan: Fan, keep: Sequence[int], shift: int
) -> tuple[list[Stratum], list[Arrow], dict[Arrow, dict[int, int]], ValidationReport]:
    """One stratum ``s<cone index>`` of dimension dim - shift per kept cone,
    its face arrows, each arrow's star map, and the report the cone strata
    lemma (module docstring) proves.  ``fan`` must be valid, and ``keep``
    must hold every cone holding a kept cone.

    A stratum's fan is its cone's star quotient, recorded valid with the
    containment table of its star (``_set_valid``), and stratum fans with
    equal ``fan_key`` are one object, so each distinct fan is
    star-quotiented once.  The table starts with ``fan`` itself: the zero
    cone's quotient is ``fan`` again (identity projection, same cones), so
    its stratum holds the source fan and reads the quotients built here.

    The arrow from the stratum of cone i to that of cone j (i a face of j)
    leaves along the cone k of i's stratum fan that j goes to.  With p and
    s the projection and section of a span quotient, its iso is
    ``p_j @ s_i @ s_k``: it satisfies ``iso . p_k . p_i == p_j``, and
    ``p_k`` is the span quotient of cone k, which validation reads too.
    Its star map sends the image of each cone t holding j to the image of
    t in j's star quotient."""
    fqs = {i: quotient_fan(fan, i) for i in keep}
    shared = {fan_key(fan): fan}
    fans = {i: shared.setdefault(fan_key(fq.fan), fq.fan) for i, fq in fqs.items()}
    # i -> (cone t of ``fan`` holding cone i -> the index of its image in fans[i])
    at = {i: {t: k for k, t in enumerate(fq.star)} for i, fq in fqs.items()}
    for i in keep:
        _set_valid(_plain_fan(fans[i]), _plain_fan(fan), at[i])
    strata = [
        Stratum(name=f"s{i}", dim=fan.cones[i].dim - shift, fan=fans[i]) for i in keep
    ]
    arrows: list[Arrow] = []
    star_maps: dict[Arrow, dict[int, int]] = {}
    for i in keep:
        for k, j in enumerate(fqs[i].star):
            if j != i:
                p_j = fqs[j].projection.matrix
                iso = _iso_through_section(
                    mat_mul(p_j, fqs[i].section.matrix), fans[i].cones[k].quotient, len(p_j)
                )
                a = Arrow(source=f"s{i}", target=f"s{j}", cone_index=k, iso=iso)
                arrows.append(a)
                star_maps[a] = {
                    k2: at[j][t] for k2, t in enumerate(fqs[i].star) if t in at[j]
                }
    return strata, arrows, star_maps, ValidationReport(is_poset=True, coherent=True)


def _carrying(
    phi: Fanifold, star_maps: dict[Arrow, dict[int, int]], report: ValidationReport
) -> Fanifold:
    """``phi`` with the star maps and the report ``_cone_strata`` proved:
    the report is assigned over the ``_report`` the first ``validate``
    would compute."""
    phi._star_maps.update(star_maps)
    phi._report = report
    return phi


def from_fan(fan: Fan) -> Fanifold:
    """One stratum per cone; the cone's dimension is the stratum's dimension.
    Carries its report, star maps and fan tables (the cone strata lemma)."""
    require_valid_fan(fan)
    strata, arrows, star_maps, report = _cone_strata(fan, range(len(fan.cones)), 0)
    phi = Fanifold(dimension=fan.rank, strata=strata, arrows=arrows, source_fan=fan)
    return _carrying(phi, star_maps, report)


def sphere_section(fan: Fan) -> Fanifold:
    """Fanifold structure on the unit-sphere slice of the fan's support.
    Carries its report, star maps and fan tables (the cone strata lemma)."""
    require_valid_fan(fan)
    keep = [i for i, c in enumerate(fan.cones) if c.dim > 0]
    strata, arrows, star_maps, report = _cone_strata(fan, keep, 1)
    phi = Fanifold(dimension=fan.rank - 1, strata=strata, arrows=arrows)
    return _carrying(phi, star_maps, report)


def manifold(k: int) -> Fanifold:
    """A single k-dimensional stratum with trivial transverse data."""
    cell = Stratum(name="cell", dim=k, fan=Fan([zero_cone(0)], 0))
    return Fanifold(dimension=k, strata=[cell], arrows=[])


def _product_fan(f1: Fan, f2: Fan) -> Fan:
    cones = [
        product_cone(c1, c2) for c1 in f1.cones for c2 in f2.cones
    ]
    prod = Fan(cones, f1.rank + f2.rank)
    if not isinstance(f1, StackyFan) and not isinstance(f2, StackyFan):
        return prod
    multiples = {}
    if isinstance(f1, StackyFan):
        for r, k in f1.multiples.items():
            multiples[r + (0,) * f2.rank] = k
    if isinstance(f2, StackyFan):
        for r, k in f2.multiples.items():
            multiples[(0,) * f1.rank + r] = k
    return StackyFan(prod, multiples)


def product(phi1: Fanifold, phi2: Fanifold) -> Fanifold:
    """Stratum pairs with product fans; arrow pairs (either side may stand
    still).  Equal product fans (``fan_key``) are one ``Fan``, so each
    distinct one is validated once; each pair of factor ``Fan`` objects has
    its product built once.  Each iso is read off the span quotient of its
    product cone (``Cone.quotient``), so a factor whose star pushes to no
    fan gives a diagram whose validation says so."""
    strata = []
    shared: dict[tuple, Fan] = {}
    by_pair: dict[tuple[Fan, Fan], Fan] = {}
    for s1 in phi1.strata:
        for s2 in phi2.strata:
            pf = by_pair.get((s1.fan, s2.fan))
            if pf is None:
                try:
                    pf = _product_fan(s1.fan, s2.fan)
                except ValueError as e:  # a stacky product cone that is not simplicial
                    raise ValueError(f"stratum '({s1.name},{s2.name})': fan {e}") from None
                pf = by_pair[s1.fan, s2.fan] = shared.setdefault(fan_key(pf), pf)
            strata.append(
                Stratum(
                    name=f"({s1.name},{s2.name})",
                    dim=s1.dim + s2.dim,
                    fan=pf,
                    interior=s1.interior and s2.interior,
                    chi_c=s1.chi * s2.chi,
                )
            )
    by_name = {s.name: s for s in strata}

    def zero_index(phi: Fanifold, name: str) -> int:
        f = phi.stratum(name).fan
        for i, c in enumerate(f.cones):
            if c.dim == 0:
                return i
        raise ValueError(f"stratum {name} has no zero cone")

    arrows = []
    moves1 = [(a, a.source, a.target) for a in phi1.arrows] + [
        (None, s.name, s.name) for s in phi1.strata
    ]
    moves2 = [(a, a.source, a.target) for a in phi2.arrows] + [
        (None, s.name, s.name) for s in phi2.strata
    ]
    for (a1, g1, f1), (a2, g2, f2) in itertools.product(moves1, moves2):
        if a1 is None and a2 is None:
            continue
        src = f"({g1},{g2})"
        tgt = f"({f1},{f2})"
        len2 = len(phi2.stratum(g2).fan.cones)
        i1 = a1.cone_index if a1 else zero_index(phi1, g1)
        i2 = a2.cone_index if a2 else zero_index(phi2, g2)
        cone_index = i1 * len2 + i2
        m1 = (
            phi1.arrow_map(a1).matrix
            if a1
            else identity_matrix(phi1.stratum(g1).lattice_rank)
        )
        m2 = (
            phi2.arrow_map(a2).matrix
            if a2
            else identity_matrix(phi2.stratum(g2).lattice_rank)
        )
        r1, r2 = len(m1), len(m2)
        c1 = phi1.stratum(g1).lattice_rank
        c2 = phi2.stratum(g2).lattice_rank
        block = [
            tuple(m1[i]) + (0,) * c2 for i in range(r1)
        ] + [
            (0,) * c1 + tuple(m2[i]) for i in range(r2)
        ]
        q = by_name[src].fan.cones[cone_index].quotient
        iso = _iso_through_section(block, q, r1 + r2)
        arrows.append(Arrow(source=src, target=tgt, cone_index=cone_index, iso=iso))
    return Fanifold(
        dimension=phi1.dimension + phi2.dimension, strata=strata, arrows=arrows
    )


def disjoint_union(a: Fanifold, b: Fanifold) -> Fanifold:
    """``a`` and ``b`` side by side, their strata renamed ``L.<name>`` and
    ``R.<name>``."""
    if a.dimension != b.dimension:
        raise ValueError("disjoint union needs equal dimensions")
    strata: list[Stratum] = []
    arrows: list[Arrow] = []
    for pre, side in (("L.", a), ("R.", b)):
        strata += [s._replace(name=pre + s.name) for s in side.strata]
        arrows += [x._replace(source=pre + x.source, target=pre + x.target) for x in side.arrows]
    return Fanifold(dimension=a.dimension, strata=strata, arrows=arrows)


def delete_strata(phi: Fanifold, names: Iterable[str]) -> Fanifold:
    """Remove strata, their incident arrows, and the cones that pointed at
    them: the others keep ``kept_cones`` of the strata left."""
    doomed = set(names)
    unknown = doomed - set(phi.by_name)
    if unknown:
        raise ValueError(f"unknown strata: {sorted(unknown)}")
    kept = phi.kept_cones(s.name for s in phi.strata if s.name not in doomed)
    strata = []
    index_maps: dict[str, dict[int, int]] = {}
    for s in phi.strata:
        if s.name in doomed:
            continue
        keep = kept[s.name]
        index_maps[s.name] = {old: new for new, old in enumerate(keep)}
        if len(keep) == len(s.fan.cones):
            strata.append(s)
            continue
        new_fan = Fan([s.fan.cones[i] for i in keep], s.fan.rank)
        if isinstance(s.fan, StackyFan):
            mm = {
                r: k for r, k in s.fan.multiples.items() if r in new_fan.rays
            }
            new_fan = StackyFan(new_fan, mm)
        strata.append(s._replace(fan=new_fan))
    arrows = [
        a._replace(cone_index=index_maps[a.source][a.cone_index])
        for a in phi.arrows
        if a.source not in doomed and a.target not in doomed
    ]
    out = Fanifold(dimension=phi.dimension, strata=strata, arrows=arrows)
    report = out.validate()
    if not report.valid:
        raise ValueError(
            "deletion breaks the diagram: " + "; ".join(report.errors)
        )
    return out


# -- unrolled closures -------------------------------------------------------


def _span_basis(cone: Cone) -> Mat:
    """Basis (rows) of the saturated span of a cone."""
    return integer_kernel(mat(cone.perp_basis), len(cone.perp_basis), cone.rank)


def _coords_in_span(basis: Mat, v: Vec) -> Vec:
    """Coordinates of v in a canonical (row-style Hermite) basis, such as
    ``_span_basis`` returns.  Each row's leading entry is zero in every row
    below it, so reading the rows from the top down, each coordinate is one
    exact division of what is left of v."""
    rest, coords = v, []
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        q, r = divmod(rest[lead], row[lead])
        if r:
            raise ValueError("vector not in saturated span")
        coords.append(q)
        rest = vec_sub(rest, vec_scale(q, row))
    if any(rest):
        raise ValueError("vector not in saturated span")
    return tuple(coords)


def unrolled_closure(phi: Fanifold, f_name: str) -> Fanifold:
    """Closure of one stratum, with its boundary unrolled arrow-by-arrow.

    Objects are the arrows into the chosen stratum plus an identity object;
    each object is a copy of its source stratum whose transverse fan is the
    face fan of the arrow's cone, re-expressed in the cone's span lattice.
    Object a maps to object b along each arrow c with a = b . c.  The
    diagram must be valid: then b after c is the one arrow on the cone that
    c's star map sends onto sigma_b (validation's coherence loop), so c
    qualifies exactly when that cone is sigma_a.
    """
    require_valid(phi)
    f = phi.stratum(f_name)
    objects: list[tuple[str, Arrow | None]] = [(f"{f_name}.top", None)]
    for k, a in enumerate(phi.in_arrows(f_name)):
        objects.append((f"{a.source}.via{k}", a))

    strata = []
    span_basis: dict[str, Mat] = {}
    face_fans: dict[str, Fan] = {}
    for name, a in objects:
        if a is None:
            strata.append(Stratum(name=name, dim=f.dim, fan=Fan([zero_cone(0)], 0)))
            continue
        src = phi.stratum(a.source)
        sigma = phi.arrow_cone(a)
        basis = _span_basis(sigma)
        local = [
            Cone([_coords_in_span(basis, g) for g in face], len(basis))
            for face in sigma.faces()
        ]
        ffan = Fan(local, len(basis))
        span_basis[name] = basis
        face_fans[name] = ffan
        strata.append(Stratum(name=name, dim=src.dim, fan=ffan))

    arrows = []
    for name_a, a in objects:
        if a is None:
            continue
        # arrow to the identity object along the full cone
        ffan = face_fans[name_a]
        top_index = next(
            i for i, c in enumerate(ffan.cones) if c.dim == ffan.rank
        )
        arrows.append(
            Arrow(
                source=name_a,
                target=f"{f_name}.top",
                cone_index=top_index,
                iso=lattice_map((), 0, 0),
            )
        )
        # arrows to other boundary objects along factorizations a = b . c
        for name_b, b in objects:
            if b is None or name_b == name_a:
                continue
            for c in phi.out_arrows(a.source):
                if c.target != b.source or phi._star_map(c).get(a.cone_index) != b.cone_index:
                    continue
                map_c = phi.arrow_map(c)
                basis_a, basis_b = span_basis[name_a], span_basis[name_b]
                local_c = Cone(
                    [_coords_in_span(basis_a, g) for g in phi.arrow_cone(c).gens],
                    len(basis_a),
                )
                ci = face_fans[name_a].cone_index(local_c)
                # span(sigma_a) -> span(sigma_b) through the original arrow c
                rows = [_coords_in_span(basis_b, map_c(v)) for v in basis_a]
                span_map = tuple(
                    tuple(r[i] for r in rows) for i in range(len(basis_b))
                )  # matrix dim_b x dim_a acting on coordinates
                iso = _iso_through_section(
                    span_map, face_fans[name_a].cones[ci].quotient, len(basis_b)
                )
                arrows.append(
                    Arrow(source=name_a, target=name_b, cone_index=ci, iso=iso)
                )
    return Fanifold(dimension=f.dim, strata=strata, arrows=arrows)


# -- suspension boundary -----------------------------------------------------


def suspension_boundary(sigma_fan: Fan) -> Fanifold:
    """The boundary of (real line) x ``from_fan(sigma_fan)``: two
    fan-decorated endpoints.  (``sphere_section(fan)`` is the boundary of
    ``from_fan(fan)`` itself.)

    The mid strata are the sphere section's, with its arrows.  Each endpoint
    carries the fan itself and has the arrows out of the zero stratum of
    ``from_fan``: one along each nonzero cone j to the mid stratum of j,
    whose lattice is the quotient lattice of j, so the iso is the identity:
    the mid stratum's fan is the star quotient ``quotient_fan(fan, j)``,
    whose projection is the span quotient of cone j (``Cone.quotient``).
    """
    mid = sphere_section(sigma_fan)
    strata = [
        Stratum(name="end0", dim=0, fan=sigma_fan),
        Stratum(name="end1", dim=0, fan=sigma_fan),
    ]
    for s in mid.strata:
        strata.append(Stratum(name=s.name, dim=s.dim + 1, fan=s.fan))
    arrows = list(mid.arrows)
    for end in ("end0", "end1"):
        for j, c in enumerate(sigma_fan.cones):
            if c.dim:
                r = sigma_fan.rank - c.dim
                iso = lattice_map(identity_matrix(r), r, r)
                arrows.append(Arrow(source=end, target=f"s{j}", cone_index=j, iso=iso))
    return Fanifold(dimension=sigma_fan.rank, strata=strata, arrows=arrows)
