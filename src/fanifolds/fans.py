"""Fans of strongly convex cones: validity, quotients, subdivision, stacky data.

A fan here is an ordered list of cones (order matters to callers that index
into it); it is *not* required to contain every face of every cone.  The
pairwise condition -- any two cones meet in a common face -- is still enforced
by ``Fan.validate``, which nests cones by their extremal rays and builds meets
only between maximal cones (see the lemma below).

A ``StackyFan`` is a ``Fan`` with a multiple on each ray.  ``quotient_fan``
is the one star quotient and ``Fan._quotients`` its one cache: stacky in,
stacky out, the quotient of a stacky fan carrying the pushed multiples and
the push's ``warnings``.  A stacky fan keeps no table of its own: its
checks, containment table, stars and cone index are its plain fan's
(``Fan._owner``), and its star quotients push the multiples onto the plain
fan's, so a stacky fan and its plain fan compute each of these once.
``Stratum.plain_fan`` is the stratum's fan itself, kept for the benchmark's
workloads.  ``fan_key`` is the one rule for when two fans are
interchangeable; the file loader and the constructors give equal stratum
fans of one diagram one ``Fan`` by it, so its checks, containment table and
star quotients are computed at most once.

Write sigma <= tau when every extremal ray of sigma is one of tau, for
distinct strongly convex cones; distinct such cones have distinct rays, so
this orders them.

Lemma.  Suppose every pair sigma < tau has sigma a face of tau, and every
two distinct <=-maximal cones meet in a common face.  Then any two cones
meet in a common face, and <= is containment.  Conversely, on a valid fan
both hold.  (Face-closedness is not needed.)

Proof.  (i) sigma <= tau puts sigma in tau: a strongly convex cone is
spanned by its extremal rays.  (ii) On a valid fan, sigma in tau makes
sigma = sigma meet tau a face of tau, and a face keeps only extremal rays
of its cone (Cox, Little and Schenck, Toric Varieties, 1.2), so sigma <=
tau.  So <= is containment there, its maximal cones are the maximal cones,
and both conditions hold.  (iii) The conditions give any two cones a
common face.  Take <=-maximal sigma' >= sigma and tau' >= tau; sigma is a
face of sigma', and tau of tau'.  If sigma' = tau', put F = sigma';
otherwise F = sigma' meet tau', a face of both.  Either way F is a face of
sigma' and of tau'.  As sigma and F are faces of sigma', so is sigma meet
F; it lies in F, so it is a face of F, and a hyperplane supporting F in
sigma' cuts it out of sigma, so it is a face of sigma.  The same holds for
tau meet F.  Now sigma meet tau = (sigma meet F) meet (tau meet F), a meet
of two faces of F, so a face of F; lying in the face sigma meet F of F, it
is a face of sigma meet F, hence of sigma.  Likewise of tau.  The fan is
then valid, so by (ii) <= is containment.

Star lemma.  Let sigma be a cone of a valid fan and p the projection to the
free quotient of the lattice by its span.  The images under p of the cones
holding sigma (its star) are distinct, nest as the cones do, and form a
valid fan (Cox, Little and Schenck, Toric Varieties, 3.2), and so do their
images under a unimodular map.  So when a fan is valid, an arrow out of it
that passes every check of ``Fanifold._arrow_error`` (its unimodular iso
maps the star of its cone one to one onto the target fan's cones) proves
the target fan valid, and ``Fanifold.validate`` records it so unchecked
(``_set_valid``).  Validation carries the containment table along with
validity: the target's ``_inside`` is the star's, read through the arrow's
star map, so validation runs no ``Cone.contains`` on a carried fan.

Proof.  Every tau in the star has sigma as a face.  So some u >= 0 on tau
cuts sigma out of it, and tau meet span(sigma) lies in tau meet u-perp =
sigma.  If p(tau) held a line through y, then y = p(x1), -y = p(x2) with
x1, x2 in tau and x1 + x2 in tau meet span(sigma) = sigma; u(x1) + u(x2) = 0
with both terms >= 0 puts x1 and x2 in sigma, so y = 0: p(tau) is strongly
convex.  For tau1, tau2 in the star, rho = tau1 meet tau2 is a face of both
holding sigma, so they are separated by a u >= 0 on tau1, <= 0 on tau2, with
tau1 meet u-perp = rho = tau2 meet u-perp (Cox, Little and Schenck, 1.2.13).
This u vanishes on rho, so on sigma, and is ubar . p for a ubar on the
quotient.  Then p(tau1) meet ubar-perp = p(tau1 meet u-perp) = p(rho), and
likewise for tau2; since ubar >= 0 on p(tau1) and <= 0 on p(tau2), the two
images meet inside ubar-perp, in p(rho), which ubar cuts out of each as a
face.  If p(tau1) lies in p(tau2), it is p(rho), of dimension dim rho - dim
sigma, so rho, a face of tau1 of its dimension, is tau1: tau1 lies in tau2,
and equal images come from equal cones.  A unimodular map keeps cones,
lines, faces, containment and distinctness.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cones import Cone, cached_property, cone_key
from .lattice import (
    LatticeMap,
    Mat,
    Vec,
    primitivize,
    smith_normal_form,
    vec,
    vec_add,
    vec_scale,
)


class Fan:
    """Ordered collection of strongly convex cones meeting along faces."""

    def __init__(self, cones: Iterable[Cone], rank: int):
        self.rank = rank
        self.cones = tuple(cones)
        self._quotients: dict[int, FanQuotient] = {}  # see ``quotient_fan``

    def __len__(self) -> int:
        return len(self.cones)

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, n_cones={len(self.cones)})"

    @property
    def _owner(self) -> "Fan":
        """The fan that keeps this fan's tables: itself (a stacky fan's are
        its plain fan's)."""
        return self

    @cached_property
    def rays(self) -> Mat:
        """All extremal rays appearing in the fan, sorted."""
        seen: set[Vec] = set()
        for c in self.cones:
            seen.update(c.extremal_rays)
        return tuple(sorted(seen))

    def maximal_cone_indices(self) -> list[int]:
        return _uncovered(self._inside)

    @cached_property
    def _inside(self) -> tuple[frozenset[int], ...]:
        """For each cone, the indices of the other cones it contains, on any
        fan, valid or not.  Read off the containment table ``_held(self.cones,
        self.cones)``, unless validation proved the fan valid first and
        recorded the table off the extremal rays (the lemma in the module
        docstring), or a carried fan took it from its source (``_set_valid``)."""
        return tuple(
            frozenset(j for j, c in enumerate(self.cones) if j != i and h.issuperset(c.gens))
            for i, h in enumerate(_held(self.cones, self.cones))
        )

    @cached_property
    def _stars(self) -> tuple[tuple[int, ...], ...]:
        """For each cone, in index order, the indices of the cones holding
        it, itself included: the reverse of ``_inside``."""
        stars: list[list[int]] = [[] for _ in self.cones]
        for j, inside in enumerate(self._inside):
            stars[j].append(j)
            for i in inside:
                stars[i].append(j)
        return tuple(map(tuple, stars))

    def cone_index(self, cone: Cone) -> int | None:
        """Index of the first cone equal to ``cone``, or None."""
        return self._first_index.get(cone.key)

    @cached_property
    def _first_index(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for i, c in enumerate(self.cones):
            out.setdefault(c.key, i)
        return out

    def support_contains(self, v: Sequence[int]) -> bool:
        return any(c.contains(v) for c in self.cones)

    # -- validity and shape ------------------------------------------------

    def validate(self) -> list[str]:
        """Problems that make this not a fan; empty when valid.

        A bad rank, a line or a duplicate is reported first.  Otherwise the
        lemma in the module docstring decides validity from the pairs nested
        by extremal rays (a face test each, no meet) and the pairs of
        maximal cones (a meet each), with no membership test; a fan that
        passes records that nesting as its containment table ``_inside``.
        Only a fan this rejects scans every pair, by the same rule, so its
        problem list names each pair that fails; the scan reads the answers
        the pairs already checked got, so no pair is met twice.  Computed once per fan:
        nothing reassigns a fan's cones or rank.  A fan that diagram
        validation proved valid by the star lemma is recorded so, unchecked.
        """
        return list(self._problems)

    @cached_property
    def _problems(self) -> list[str]:
        problems: list[str] = []
        for i, c in enumerate(self.cones):
            if c.rank != self.rank:
                problems.append(f"cone {i}: ambient rank {c.rank} != {self.rank}")
                return problems
            if not c.is_strongly_convex:
                problems.append(f"cone {i}: contains a line")
        for i, c in enumerate(self.cones):
            first = self._first_index[c.key]
            if first != i:
                problems.append(f"cone {i} duplicates cone {first}")
        if problems:
            return problems
        rays = [frozenset(c.extremal_rays) for c in self.cones]
        by_rays = tuple(
            frozenset(j for j, r in enumerate(rays) if j != i and r <= s)
            for i, s in enumerate(rays)
        )
        nested = [(min(i, j), max(i, j)) for j, inside in enumerate(by_rays) for i in inside]
        tops = itertools.combinations(_uncovered(by_rays), 2)
        met: dict[tuple[int, int], bool] = {}  # (i, j), i < j -> the pair's answer
        for i, j in itertools.chain(nested, tops):
            met[i, j] = self._meet_is_a_face(i, j, by_rays)
            if not met[i, j]:
                break
        else:
            self._owner.__dict__.setdefault("_inside", by_rays)
            return problems
        for i, j in itertools.combinations(range(len(self.cones)), 2):
            if (i, j) not in met:
                met[i, j] = self._meet_is_a_face(i, j, by_rays)
        return [
            f"cones {i} and {j} do not intersect in a common face"
            for (i, j), ok in sorted(met.items())
            if not ok
        ]

    def _meet_is_a_face(self, i: int, j: int, by_rays: Sequence[frozenset[int]]) -> bool:
        """Do cones i and j meet in a common face?  ``by_rays`` lists, for
        each cone, the cones whose extremal rays are among its own: such a
        nested pair meets in the smaller cone, so only its face test runs.
        A pair nested otherwise (only on an invalid fan) is met and answers
        no, as a face test would: its meet is the smaller cone, no face of
        the larger, since a face keeps only extremal rays of its cone."""
        ci, cj = self.cones[i], self.cones[j]
        if i in by_rays[j]:
            return cj._has_face(ci)
        if j in by_rays[i]:
            return ci._has_face(cj)
        meet = ci.intersection(cj)
        return ci._has_face(meet) and cj._has_face(meet)

    @property
    def is_face_closed(self) -> bool:
        return not self._missing_faces

    @cached_property
    def _missing_faces(self) -> dict[tuple, Mat]:
        """Key -> rays of each face of a cone that is not a cone of the fan,
        in the order first met."""
        out: dict[tuple, Mat] = {}
        for c in self.cones:
            for f in c.faces():
                key = cone_key(c.rank, f)
                if key not in self._first_index:
                    out.setdefault(key, f)
        return out

    @property
    def is_simplicial(self) -> bool:
        return all(c.is_simplicial for c in self.cones)

    @property
    def is_smooth(self) -> bool:
        return all(c.is_smooth for c in self.cones)

    @property
    def is_complete(self) -> bool:
        return self.completeness_witness() is None

    def completeness_witness(self) -> str | None:
        """None when the support of this valid fan is everything, else a
        short reason.  A fan with cones but no maximal cone lists one cone
        twice: ValueError with its problems."""
        if not self.is_face_closed:
            return "not closed under taking faces"
        if not self.cones:
            return "empty fan"
        if self.rank == 0:
            return None
        tops = [self.cones[i] for i in self.maximal_cone_indices()]
        if not tops:
            require_valid_fan(self)
        bad = next((c for c in tops if c.dim != self.rank), None)
        if bad is not None:
            return f"maximal cone {list(bad.gens)} has dimension {bad.dim} < {self.rank}"
        unpaired, connected = _pair_facets(tops, None)
        if unpaired is not None:
            f, n = unpaired
            return (
                f"facet {list(f)} of a maximal cone is shared by "
                f"{n} other maximal cones, expected 1"
            )
        if not connected:
            return "maximal cones do not form one facet-connected component"
        return None

    def properties(self) -> dict:
        """Summary of the usual fan predicates with first witnesses."""
        problems = self.validate()
        out: dict = {
            "rank": self.rank,
            "n_cones": len(self.cones),
            "valid": not problems,
            "problems": problems,
        }
        if problems:
            return out
        missing = next(iter(self._missing_faces.values()), None)
        out["face_closed"] = missing is None
        if missing is not None:
            out["missing_face"] = [list(r) for r in missing]
        bad_simp = next((c for c in self.cones if not c.is_simplicial), None)
        out["simplicial"] = bad_simp is None
        if bad_simp is not None:
            out["non_simplicial_cone"] = [list(g) for g in bad_simp.gens]
        bad_smooth = next((c for c in self.cones if not c.is_smooth), None)
        out["smooth"] = bad_smooth is None
        if bad_smooth is not None:
            out["non_smooth_cone"] = [list(g) for g in bad_smooth.gens]
            if bad_smooth.is_simplicial:
                out["non_smooth_multiplicity"] = bad_smooth.multiplicity
        witness = self.completeness_witness()
        out["complete"] = witness is None
        if witness is not None:
            out["completeness_witness"] = witness
        return out


def _uncovered(inside: Sequence[frozenset[int]]) -> list[int]:
    """The indices in no entry of ``inside``: the cones no other cone holds."""
    held = set().union(*inside)
    return [i for i in range(len(inside)) if i not in held]


def _held(holders: Sequence[Cone], cones: Sequence[Cone]) -> list[frozenset[Vec]]:
    """For each holder, the distinct gens of ``cones`` it contains.

    A cone is the conic hull of its gens, so a holder contains a cone of
    ``cones`` exactly when its entry is a superset of that cone's gens:
    one ``Cone.contains`` per (holder, distinct gen) answers
    ``Cone.contains_cone`` on every pair."""
    gens = dict.fromkeys(g for c in cones for g in c.gens)
    return [frozenset(g for g in gens if h.contains(g)) for h in holders]


def fan_key(fan: Fan) -> tuple:
    """Two fans with equal keys are interchangeable: the rank, each cone's
    gens in order, and a stacky fan's sorted multiples (None for a plain
    fan).  Cones are interned by (rank, gens), so equal keys mean the same
    cones in the same order."""
    multiples = tuple(sorted(fan.multiples.items())) if isinstance(fan, StackyFan) else None
    return fan.rank, tuple(c.gens for c in fan.cones), multiples


def _set_valid(fan: Fan, source: Fan, star: Mapping[int, int]) -> None:
    """Record ``fan`` as valid without checking it, and its containment
    table with it: the caller has proved that ``star`` maps the star of a
    cone of the valid fan ``source`` one to one onto ``fan``'s cones, so
    ``fan`` is a fan whose cones nest as their preimages do (the star
    lemma).  A problem list or a table already computed stays."""
    cache = fan._owner.__dict__
    cache.setdefault("_problems", [])
    if "_inside" not in cache:
        inside = [frozenset()] * len(fan.cones)
        for k, j in star.items():
            inside[j] = frozenset(star[m] for m in source._inside[k] if m in star)
        cache["_inside"] = tuple(inside)


def require_valid_fan(fan: Fan) -> None:
    """ValueError when ``fan`` is not a fan."""
    problems = fan.validate()
    if problems:
        raise ValueError("invalid fan: " + "; ".join(problems))


# -- quotients ---------------------------------------------------------------


class FanQuotient(NamedTuple):
    """Star of a cone pushed to the quotient lattice of its span."""

    fan: Fan  # a StackyFan when the source fan is one
    projection: LatticeMap
    section: LatticeMap
    star: tuple[int, ...]  # source cone indices, aligned with fan.cones
    torsion: tuple[int, ...]
    warnings: tuple[str, ...] = ()  # quotient rays that kept multiple 1


def quotient_fan(fan: Fan, cone_index: int) -> FanQuotient:
    """The star of cone ``cone_index`` pushed to the quotient lattice of its
    span; on a stacky fan, a stacky fan carrying the pushed multiples.
    Built once per (fan, cone index) and kept on the fan, which nothing
    mutates, so every diagram holding the fan shares it; a cone whose star
    does not push to a fan raises on every call."""
    fq = fan._quotients.get(cone_index)
    if fq is None:
        fq = fan._quotients[cone_index] = _star_quotient(fan, cone_index)
    return fq


def _star_quotient(fan: Fan, cone_index: int) -> FanQuotient:
    """The star quotient ``quotient_fan`` keeps for ``fan``.  A stacky
    fan's is its plain fan's with the multiples pushed (``_pushed``); the
    plain one is read from, or added to, the plain fan's cache, so a stacky
    fan and its plain fan build the star's images once."""
    if not isinstance(fan, StackyFan):
        return _star_images(fan, cone_index)
    plain = fan._owner
    fq = plain._quotients.get(cone_index)
    if fq is None:
        fq = plain._quotients[cone_index] = _star_images(plain, cone_index)
    return _pushed(fan, fq)


def _star_images(fan: Fan, cone_index: int) -> FanQuotient:
    """The plain star quotient: the images of the star's cones under the
    projection of the cone's span quotient."""
    sigma = fan.cones[cone_index]
    if sigma.rank != fan.rank:
        raise ValueError("cone rank does not match the fan rank")
    q = sigma.quotient
    star = fan._stars[cone_index]
    images = [fan.cones[i].image(q.projection) for i in star]
    for im in images:
        if not im.is_strongly_convex:
            raise ValueError("quotient image is not strongly convex")
    keys = [im.key for im in images]
    if len(set(keys)) != len(keys):
        raise ValueError("two star cones project to the same image")
    return FanQuotient(
        fan=Fan(images, q.free_rank),
        projection=q.projection,
        section=q.section,
        star=star,
        torsion=q.torsion,
    )


def _pushed(fan: StackyFan, fq: FanQuotient) -> FanQuotient:
    """The plain star quotient ``fq`` of ``fan`` with the multiples pushed
    in one pass over the star's extremal rays: each quotient ray inherits
    the projected stacky generator of its unique preimage ray, and keeps
    multiple 1 with a warning when its preimage is missing or ambiguous."""
    # primitive image -> (preimage ray, its image), in star order; the
    # cone's own rays land on the zero image, which no quotient ray reads
    preimages: dict[Vec, list[tuple[Vec, Vec]]] = {}
    seen: set[Vec] = set()
    for i in fq.star:
        for r in fan.cones[i].extremal_rays:
            if r not in seen:
                seen.add(r)
                im = fq.projection(r)
                preimages.setdefault(primitivize(im), []).append((r, im))
    multiples: dict[Vec, int] = {}
    warnings: list[str] = []
    for rbar in fq.fan.rays:
        pre = preimages.get(rbar, ())
        if len(pre) != 1:
            warnings.append(
                f"quotient ray {rbar}: {len(pre)} preimage rays, keeping multiple 1"
            )
            continue
        # the image is a positive multiple of rbar, so by linearity the
        # stacky generator's image is one too
        ((r, im),) = pre
        nz = next(i for i, x in enumerate(rbar) if x)
        multiples[rbar] = fan.multiples[r] * (im[nz] // rbar[nz])
    return fq._replace(fan=StackyFan(fq.fan, multiples), warnings=tuple(warnings))


# -- subdivision and resolution ----------------------------------------------


def face_closure(fan: Fan) -> Fan:
    """The same fan with every face of every cone appended (deduplicated)."""
    extra = [Cone(f, fan.rank) for f in fan._missing_faces.values()]
    extra.sort(key=lambda c: (c.dim, c.gens))
    return Fan(fan.cones + tuple(extra), fan.rank)


def stellar_subdivision(fan: Fan, point: Sequence[int]) -> Fan:
    """Subdivide every cone containing the given lattice point.

    A cone through the point is replaced by the cones spanned by the point
    together with the facets not containing it; other cones are kept.  The
    point must lie in the fan's support.  Face-closedness is preserved.
    """
    v = primitivize(vec(point))
    if not fan.support_contains(v):
        raise ValueError("subdivision point is outside the fan support")
    closed = fan.is_face_closed
    out: list[Cone] = []
    seen: set[tuple] = set()

    def push(c: Cone) -> None:
        if c.key not in seen:
            seen.add(c.key)
            out.append(c)

    for c in fan.cones:
        if not c.contains(v):
            push(c)
            continue
        star = set(c._cut((v,)))
        for f in c.facets():
            if not star.issubset(f):
                push(Cone(list(f) + [v], fan.rank))
    result = Fan(out, fan.rank)
    return face_closure(result) if closed else result


class ResolveResult(NamedTuple):
    fan: Fan
    added_rays: tuple[Vec, ...]
    steps: tuple[Vec, ...]  # subdivision points in order


def _parallelepiped_point(cone: Cone) -> Vec | None:
    """A nonzero lattice point in the half-open span box of a simplicial cone."""
    gens = cone.extremal_rays
    n = cone.multiplicity
    if n == 1:
        return None
    best: tuple | None = None
    d = len(gens)
    for ks in itertools.product(range(n), repeat=d):
        if not any(ks):
            continue
        pt_num = [
            sum(k * g[i] for k, g in zip(ks, gens)) for i in range(cone.rank)
        ]
        if any(x % n for x in pt_num):
            continue
        cand = (sum(ks), ks)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    ks = best[1]
    return primitivize(
        tuple(sum(k * g[i] for k, g in zip(ks, gens)) // n for i in range(cone.rank))
    )


_RESOLVE_STEPS = 1000  # subdivisions before resolve_to_smooth gives up


def resolve_to_smooth(fan: Fan) -> ResolveResult:
    """Refine until every cone is smooth, by repeated stellar subdivision.

    Non-simplicial cones are first split at the primitive sum of their rays;
    then simplicial cones of multiplicity > 1 are split at a lattice point of
    the fundamental box, which strictly lowers the worst multiplicity.  The
    refinement is of the cones: a stacky fan's multiples do not carry, so
    it resolves as its plain fan, and the result is a plain ``Fan``.
    """
    current = fan._owner
    steps: list[Vec] = []
    for _ in range(_RESOLVE_STEPS):
        target = next((c for c in current.cones if not c.is_simplicial), None)
        if target is not None:
            total = (0,) * current.rank
            for g in target.extremal_rays:
                total = vec_add(total, g)
            v = primitivize(total)
            steps.append(v)
            current = stellar_subdivision(current, v)
            continue
        rough = [c for c in current.cones if not c.is_smooth]
        if not rough:
            before = {r for r in fan.rays}
            added = tuple(r for r in current.rays if r not in before)
            return ResolveResult(fan=current, added_rays=added, steps=tuple(steps))
        worst = max(rough, key=lambda c: (c.multiplicity, c.gens))
        v = _parallelepiped_point(worst)
        if v is None:
            raise AssertionError("multiplicity > 1 but no box point found")
        steps.append(v)
        current = stellar_subdivision(current, v)
    raise RuntimeError(f"resolution did not terminate in {_RESOLVE_STEPS} steps")


# -- refinement --------------------------------------------------------------


def _pair_facets(
    tops: Sequence[Cone], sigma: Cone | None
) -> tuple[tuple[Mat, int] | None, bool]:
    """Pair the facets of the equal-dimensional cones ``tops`` (not empty)
    as a tiling of ``sigma`` (None: the whole space) needs: a facet on the
    boundary of sigma lies in no other top, any other facet in exactly one.

    Returns the first facet that breaks this, with the number of other tops
    holding it (else None), and whether the tops are facet-connected.
    """
    ray_sets = [set(t.extremal_rays) for t in tops]
    neighbours: list[set[int]] = [set() for _ in tops]
    for i, t in enumerate(tops):
        for f in t.facets():
            expected = 1 if sigma is None or sigma._cut(f) == sigma.extremal_rays else 0
            sharers = [
                j for j, rays in enumerate(ray_sets) if j != i and rays.issuperset(f)
            ]
            if len(sharers) != expected:
                return (f, len(sharers)), False
            neighbours[i].update(sharers)
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = neighbours[frontier.pop()] - reached
        reached |= nxt
        frontier.extend(nxt)
    return None, len(reached) == len(tops)


def cones_cover(sigma: Cone, pieces: Sequence[Cone]) -> bool:
    """Do the given subcones tile the cone?  Facet-pairing criterion.

    Assumes the pieces come from a valid fan (pairwise face intersections)
    and are contained in ``sigma``.
    """
    d = sigma.dim
    if d == 0:
        return any(p.dim == 0 for p in pieces)
    tops = [p for p in pieces if p.dim == d]
    if not tops:
        return False
    unpaired, connected = _pair_facets(tops, sigma)
    return unpaired is None and connected


class RefinesResult(NamedTuple):
    ok: bool
    problems: tuple[str, ...] = ()


def refines(fine: Fan, coarse: Fan) -> RefinesResult:
    """Is every fine cone inside a coarse cone, with equal total support?

    Both checks read one containment table: for each coarse cone, the
    fine cones inside it.  It comes from ``_held(coarse.cones,
    fine.cones)``: a coarse cone contains a fine cone exactly when its
    entry holds the fine cone's gens, so no pair of cones is tested twice.
    A fan against itself (or its stacky twin) reads its own ``_inside``
    instead, each cone with itself added, and runs no membership test.
    The problems come in order: the fine cones inside no coarse cone, then
    the coarse cones their fine cones do not tile."""
    problems: list[str] = []
    if fine.rank != coarse.rank:
        return RefinesResult(False, ("ambient ranks differ",))
    if fine._owner is coarse._owner:
        inside = [{i, *js} for i, js in enumerate(coarse._inside)]
    else:
        inside = [
            {j for j, c in enumerate(fine.cones) if h.issuperset(c.gens)}
            for h in _held(coarse.cones, fine.cones)
        ]
    covered = set().union(*inside)
    for i in range(len(fine.cones)):
        if i not in covered:
            problems.append(f"fine cone {i} is not inside any coarse cone")
    for i, (big, js) in enumerate(zip(coarse.cones, inside)):
        pieces = [c for j, c in enumerate(fine.cones) if j in js]
        if not cones_cover(big, pieces):
            problems.append(f"coarse cone {i} is not tiled by its fine cones")
    return RefinesResult(not problems, tuple(problems))


# -- stacky fans -------------------------------------------------------------


def _plain_table(name: str) -> cached_property:
    """A stacky fan's table ``name``: its plain fan's.  When the plain fan
    has none yet, ``Fan``'s rule fills it with the stacky fan as ``self``;
    the two share cones and rank, all a table reads.  So a stacky fan and
    its plain fan compute each table once between them."""
    rule = vars(Fan)[name]

    def read(fan: "StackyFan"):
        cache = fan._plain.__dict__
        if name not in cache:
            cache[name] = rule.func(fan)
        return cache[name]

    return cached_property(read)


class StackyFan(Fan):
    """A fan with a positive integer multiple attached to each ray.

    A stacky fan is its fan: its cones, rank, rays, cached tables and star
    quotients are a ``Fan``'s, and ``quotient_fan`` pushes the multiples to
    each quotient.  Its tables are its plain fan's (``_plain_table``), and
    its star quotients push the multiples onto the plain fan's, so a stacky
    fan and its plain fan compute each table and each star once.  The ray
    times its multiple is the distinguished lattice generator; the
    cokernel torsion of those generators is the finite group datum carried
    by each cone.
    """

    def __init__(self, fan: Fan, multiples: Mapping[Sequence[int], int] | None = None):
        super().__init__(fan.cones, fan.rank)
        self._plain = fan._owner
        mm: dict[Vec, int] = {r: 1 for r in self.rays}
        if multiples:
            for r, k in multiples.items():
                r = vec(r)
                if r not in mm:
                    raise ValueError(f"{r} is not a ray of the fan")
                k = int(k)
                if k < 1:
                    raise ValueError("ray multiples must be positive")
                mm[r] = k
        self.multiples = mm

    _inside = _plain_table("_inside")
    _stars = _plain_table("_stars")
    _first_index = _plain_table("_first_index")
    _problems = _plain_table("_problems")
    _missing_faces = _plain_table("_missing_faces")

    @property
    def _owner(self) -> Fan:
        """The plain fan whose tables this stacky fan reads and fills."""
        return self._plain

    def stacky_generator(self, ray: Sequence[int]) -> Vec:
        ray = vec(ray)
        return vec_scale(self.multiples[ray], ray)

    def stacky_gens(self, cone: Cone) -> Mat:
        return tuple(self.stacky_generator(r) for r in cone.extremal_rays)

    def component_group(self, cone: Cone) -> tuple[int, ...]:
        """Cokernel torsion of the stacky generators of the cone: the
        invariant factors > 1 of their matrix, rows or columns alike."""
        return smith_normal_form(self.stacky_gens(cone)).torsion

    def group_order(self, cone: Cone) -> int:
        out = 1
        for d in self.component_group(cone):
            out *= d
        return out

    @property
    def is_smooth(self) -> bool:
        """Every cone simplicial (its extremal rays, as many as its
        dimension, are independent) with no component group."""
        return all(
            len(c.extremal_rays) == c.dim and not self.component_group(c)
            for c in self.cones
        )
