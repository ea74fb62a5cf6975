"""Rational polyhedral cones over Z with exact dual descriptions.

A cone is stored by integer ray generators.  The dual description (facet
normals plus the perpendicular lattice) is computed with a double-description
pass, so membership and faces are exact -- no floating point anywhere.  A
face of a strongly convex cone is the sorted tuple of the extremal rays it
keeps.  A cone's dimension is the rank of its gens (one Hermite pass), so
it needs no dual data, and a full-dimensional cone has no perp basis to
build.

Cones are interned: equal normalized generator tuples in the same rank share
one live, immutable ``Cone``, so its dual description, extremal rays, key and
span quotient are computed once for every caller that holds it.  The table
holds cones weakly, so a cone lives only while some caller holds it.  Gens
that are already a live cone's normalized tuple find it without being
normalized again.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from itertools import repeat
from typing import Iterable, Sequence

from .lattice import (
    LatticeMap,
    Mat,
    QuotientResult,
    Vec,
    _abs_det,
    dot,
    identity_matrix,
    integer_kernel,
    mat,
    matrix_rank,
    primitivize,
    quotient_with_torsion,
    row_hermite,
    smith_normal_form,
    vec,
    vec_scale,
    vec_sub,
)


_MISSING = object()


class cached_property(functools.cached_property):
    """``functools.cached_property`` without its lock: the one caching
    descriptor of the package (``fans``, ``fanifold`` and ``bmodel`` import
    it from here).

    On Python 3.11 the standard ``__get__`` takes one lock per property on
    every first access.  Nothing here shares an object between threads, and
    every cached value is a deterministic function of an immutable object,
    so the lock guards nothing (Python 3.12 dropped it).  A hit never gets
    here: the value sits in the instance ``__dict__``, which a non-data
    descriptor yields to.  It stays a ``functools.cached_property`` and
    calls ``self.func`` on each miss, so a tracer that finds properties by
    that class and replaces ``func`` still sees every first access.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cache = instance.__dict__
        val = cache.get(self.attrname, _MISSING)
        if val is _MISSING:
            val = cache[self.attrname] = self.func(instance)
        return val


def cone_key(rank: int, rays: Iterable[Vec], lineality: Mat = ()) -> tuple:
    """The equality key of the cone with these extremal rays and lineality
    basis: ``Cone.key``, ``Fan._missing_faces`` and the star maps build it
    here."""
    return (rank, frozenset(rays), lineality)


def _dedup(vectors: Iterable[Vec]) -> list[Vec]:
    out: list[Vec] = []
    seen: set[Vec] = set()
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _step(
    lineality: list[Vec],
    rays: list[Vec],
    a: Vec,
    processed: list[Vec],
) -> tuple[list[Vec], list[Vec]]:
    """One double-description refinement by the half-space <a, x> >= 0."""
    vals_l = [dot(a, l) for l in lineality]
    hit = next((i for i, v in enumerate(vals_l) if v != 0), None)
    if hit is not None:
        l0, c0 = lineality[hit], vals_l[hit]
        if c0 < 0:
            l0, c0 = vec_scale(-1, l0), -c0
        new_lin = [
            primitivize(vec_sub(vec_scale(c0, l), vec_scale(vals_l[i], l0)))
            for i, l in enumerate(lineality)
            if i != hit
        ]
        new_rays = [
            primitivize(vec_sub(vec_scale(c0, r), vec_scale(dot(a, r), l0)))
            for r in rays
        ]
        new_rays.append(l0)
        return new_lin, _dedup(new_rays)

    vals = [dot(a, r) for r in rays]
    if all(v >= 0 for v in vals):
        return lineality, rays
    keep = [r for r, v in zip(rays, vals) if v >= 0]
    pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
    neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
    zero_sets = {
        r: frozenset(i for i, c in enumerate(processed) if dot(c, r) == 0)
        for r in rays
    }
    combos: list[Vec] = []
    for (p, vp), (q, vq) in itertools.product(pos, neg):
        common = zero_sets[p] & zero_sets[q]
        adjacent = not any(
            r is not p and r is not q and zero_sets[r] >= common for r in rays
        )
        if adjacent:
            combos.append(
                primitivize(vec_sub(vec_scale(vp, q), vec_scale(vq, p)))
            )
    return lineality, _dedup(keep + combos)


def dual_description(
    inequalities: Sequence[Sequence[int]],
    equations: Sequence[Sequence[int]] = (),
    rank: int = 0,
) -> tuple[Mat, Mat]:
    """Minimal generators of {x : <a, x> >= 0, <b, x> = 0}.

    Returns (lineality, rays): the lineality part spans the largest linear
    subspace inside the set, in no canonical form (``Cone.intersection``
    puts it in Hermite form, the one reader that needs it), and the rays
    are primitive, deduplicated and sorted so the output is reproducible.
    """
    lineality = [vec(r) for r in identity_matrix(rank)]
    rays: list[Vec] = []
    todo: list[Vec] = []
    for b in equations:
        b = vec(b)
        todo.append(b)
        todo.append(vec_scale(-1, b))
    todo.extend(vec(a) for a in inequalities)
    processed: list[Vec] = []
    for a in todo:
        lineality, rays = _step(lineality, rays, a, processed)
        processed.append(a)
    return tuple(lineality), tuple(sorted(rays))


class Cone:
    """Convex rational polyhedral cone spanned by integer generators.

    The generators are made primitive and deduplicated in their given order.
    Equal normalized generators in the same rank share one live, immutable
    instance, which carries every cached property below; nothing assigns to
    a cone once it is built.
    """

    _live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, generators: Iterable[Sequence[int]], rank: int):
        # a key is a normalized gens tuple, so a hit is exactly the cone
        # normalizing would give; unhashable gens (lists) normalize first
        generators = tuple(generators)
        try:
            self = cls._live.get((rank, generators))
        except TypeError:
            self = None
        if self is not None:
            return self
        if rank < 0:
            raise ValueError(f"rank {rank} is negative")
        gens: list[Vec] = []
        seen: set[Vec] = set()
        for g in generators:
            g = tuple(map(int, g))
            if len(g) != rank:
                raise ValueError("generator length does not match ambient rank")
            if any(g):
                p = primitivize(g)
                if p not in seen:
                    seen.add(p)
                    gens.append(p)
        key = (rank, tuple(gens))
        self = cls._live.get(key)
        if self is None:
            self = super().__new__(cls)
            self.rank, self.gens = key
            cls._live[key] = self
        return self

    def __init__(self, generators: Iterable[Sequence[int]], rank: int):
        """Nothing left to do: ``__new__`` normalized and interned the cone."""

    def __reduce__(self):
        # copies and unpickled cones go through the table too
        return Cone, (self.gens, self.rank)

    # -- dual data ---------------------------------------------------------

    @cached_property
    def quotient(self) -> QuotientResult:
        """Z^rank modulo the span of the gens: one SNF and one inverse per
        cone, shared by every star quotient taken along it."""
        return quotient_with_torsion(self.rank, self.gens)

    @cached_property
    def dual_rays(self) -> Mat:
        """Extremal rays of the dual cone (facet data modulo the perp lattice)."""
        return dual_description(self.gens, (), self.rank)[1]

    @cached_property
    def perp_basis(self) -> Mat:
        """Saturated basis of {u : <u, v> = 0 for all v in the cone}: none
        for a full-dimensional cone, which ``dim`` tells without a kernel."""
        if self.dim == self.rank:
            return ()
        return integer_kernel(mat(self.gens), len(self.gens), self.rank)

    @cached_property
    def extremal_rays(self) -> Mat:
        """Minimal generating rays (unique for a strongly convex cone), sorted.

        A cone with as many gens as its dimension is simplicial: its gens
        are linearly independent, so each spans a ray of the cone, and no
        double description runs.  Otherwise, for a strongly convex cone the
        dual rays vanishing on a gen cut out the smallest face holding it,
        and that face is a ray exactly when no gen vanishes on a strictly
        larger set of dual rays (Fukuda and Prodon, "Double description
        method revisited", 1996).  A cone with a line runs the double
        description back from its dual.
        """
        if len(self.gens) == self.dim:
            return tuple(sorted(self.gens))
        if self.lineality_basis:
            return dual_description(self.dual_rays, self.perp_basis, self.rank)[1]
        zeros = [
            frozenset(i for i, u in enumerate(self.dual_rays) if dot(u, g) == 0)
            for g in self.gens
        ]
        return tuple(sorted(
            g for g, z in zip(self.gens, zeros) if not any(w > z for w in zeros)
        ))

    @cached_property
    def lineality_basis(self) -> Mat:
        """Saturated basis of the largest linear subspace inside the cone.

        The sum of the dual rays lies in the relative interior of the dual, so
        it vanishes on the cone exactly along that subspace, and a cone whose
        gens it is positive on holds no line.  Linearly independent gens
        (as many as the dimension) span no line, so no dual is read then.
        """
        if len(self.gens) == self.dim:
            return ()
        s = [sum(u[i] for u in self.dual_rays) for i in range(self.rank)]
        if all(dot(s, g) > 0 for g in self.gens):
            return ()
        rows = list(self.dual_rays) + list(self.perp_basis)
        return integer_kernel(mat(rows), len(rows), self.rank)

    # -- basic invariants --------------------------------------------------

    @cached_property
    def dim(self) -> int:
        """The rank of the gens, from one Hermite pass: the span of the
        cone is the span of its gens.  No perp basis is built (its kernel
        takes two reductions), so a reader that needs only the dimension,
        such as the file loader, pays for no dual data."""
        return matrix_rank(self.gens)

    @cached_property
    def is_strongly_convex(self) -> bool:
        return not self.lineality_basis

    @cached_property
    def is_simplicial(self) -> bool:
        """Gens as many as the dimension answer with no double description."""
        return self.is_strongly_convex and len(self.extremal_rays) == self.dim

    @cached_property
    def multiplicity(self) -> int:
        """Index of Z(rays) inside the lattice of the spanned subspace: the
        product of the rays' invariant factors (their Smith form).  A
        full-dimensional cone spans Z^rank, so there the index is |det| of
        its rays, which ``_abs_det`` reads off a Hermite form, as
        ``is_unimodular`` does, and no Smith form runs."""
        if not self.is_simplicial:
            raise ValueError("multiplicity needs a simplicial cone")
        if self.dim == self.rank:
            return _abs_det([list(r) for r in self.extremal_rays], self.rank)
        out = 1
        for d in smith_normal_form(mat(self.extremal_rays)).invariant_factors:
            out *= d
        return out

    @cached_property
    def is_smooth(self) -> bool:
        return self.is_simplicial and (self.dim == 0 or self.multiplicity == 1)

    # -- membership --------------------------------------------------------

    def contains(self, v: Sequence[int]) -> bool:
        v = vec(v)
        return not any(map(dot, self.perp_basis, repeat(v))) and all(
            dot(r, v) >= 0 for r in self.dual_rays
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def key(self) -> tuple:
        """Equality key: two cones agree iff they agree as point sets."""
        return cone_key(self.rank, self.extremal_rays, self.lineality_basis)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cone) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Cone(rank={self.rank}, gens={list(self.gens)})"

    def _cut(self, vectors: Sequence[Vec]) -> Mat:
        """Extremal rays of the smallest face holding ``vectors``.

        The vectors lie in this strongly convex cone, and the dual rays that
        vanish on all of them cut that face out (Fulton, Introduction to Toric
        Varieties, 1.2).
        """
        if not self.is_strongly_convex:
            raise ValueError("face enumeration needs a strongly convex cone")
        cut = [u for u in self.dual_rays if not any(map(dot, repeat(u), vectors))]
        return tuple(
            r for r in self.extremal_rays if not any(map(dot, cut, repeat(r)))
        )

    def facets(self) -> list[Mat]:
        """The facets, one per dual ray: the extremal rays it vanishes on."""
        if not self.is_strongly_convex:
            raise ValueError("face enumeration needs a strongly convex cone")
        return sorted({
            tuple(r for r in self.extremal_rays if dot(u, r) == 0)
            for u in self.dual_rays
        })

    def faces(self) -> list[Mat]:
        """All faces, the cone itself included, ordered by (dimension, rays).

        A simplicial cone's faces are exactly the subsets of its rays (Cox,
        Little and Schenck, Toric Varieties, 1.2): its rays are independent,
        so for each subset S some u is 0 on S and 1 on the other rays, and u
        cuts out the face spanned by S, of dimension |S|; every face is
        spanned by the rays it holds.  ``combinations`` of the sorted rays
        meets the subsets in (dimension, rays) order.  Otherwise every
        proper face is a meet of facets (Ziegler, Lectures on Polytopes,
        ch. 2), and a meet keeps the rays both faces keep.
        """
        if self.is_simplicial:
            rays = self.extremal_rays
            return [f for k in range(len(rays) + 1) for f in itertools.combinations(rays, k)]
        found = {self.extremal_rays}
        for f in self.facets():
            found |= {tuple(r for r in g if r in f) for g in found}
        return sorted(found, key=lambda f: (matrix_rank(f), f))

    def _has_face(self, inner: "Cone") -> bool:
        """Is ``inner`` a face of this strongly convex cone, given that it
        lies in it?  (On any ``inner``, true when it is a face.)

        On a simplicial cone, gens of ``inner`` that are all among its rays
        span a face, since its faces are its ray subsets (``faces``), and
        no cut runs.  Otherwise ``inner`` is a face exactly when it holds
        every extremal ray r of the smallest face holding it.  Such an r is
        extremal here, so if it lies in the smaller ``inner`` it is extremal
        there too, hence a positive multiple of a gen of ``inner``; gens are
        primitive, so r is one of them.  No dual description of ``inner`` is
        needed.
        """
        gens = set(inner.gens)
        if self.is_simplicial and gens.issubset(self.extremal_rays):
            return True
        return all(r in gens for r in self._cut(inner.gens))

    def intersection(self, other: "Cone") -> "Cone":
        """The meet, dualized from both cones' dual data; its gens list
        the lineality in Hermite form, a basis that depends only on the
        lattice the double description's lineality spans."""
        if self.rank != other.rank:
            raise ValueError("ambient ranks differ")
        lin, rays = dual_description(
            list(self.dual_rays) + list(other.dual_rays),
            list(self.perp_basis) + list(other.perp_basis),
            self.rank,
        )
        gens = list(rays)
        for l in row_hermite(lin, self.rank):
            gens.append(l)
            gens.append(vec_scale(-1, l))
        return Cone(gens, self.rank)

    def image(self, lmap: LatticeMap) -> "Cone":
        if lmap.source_rank != self.rank:
            raise ValueError("map source does not match ambient rank")
        return Cone([lmap(g) for g in self.gens], lmap.target_rank)


def zero_cone(rank: int) -> Cone:
    return Cone((), rank)


def product_cone(a: Cone, b: Cone) -> Cone:
    """Direct product inside the direct sum of the ambient lattices."""
    gens = [g + (0,) * b.rank for g in a.gens]
    gens += [(0,) * a.rank + g for g in b.gens]
    return Cone(gens, a.rank + b.rank)
