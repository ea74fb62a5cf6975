"""Cone.faces, Cone.facets and the face test against the subset enumeration
of the dual rays, Cone.dim against the SNF, Cone.extremal_rays against a
second double description, Cone.lineality_basis against the kernel; one live
cone per normalized generator tuple."""

import collections
import copy
import functools
import gc
import itertools
import math
import os
import random
import weakref
from fractions import Fraction

import pytest

from fanifolds import cones
from fanifolds.cones import Cone, dual_description, zero_cone
from fanifolds.files import load_fanifold
from fanifolds.lattice import dot, integer_kernel, mat, smith_normal_form


def is_face_of(inner, outer):
    """True when ``inner`` is a face of the strongly convex ``outer``: the
    plain definition the fan validator's meet-rule tests check against.
    ``_has_face`` is true on every face, so when it says no the containment
    test is not needed."""
    if inner.rank != outer.rank:
        return False
    return outer._has_face(inner) and outer.contains_cone(inner)


def reference_faces(c):
    """Every subset of the dual rays cuts out the extremal rays it vanishes
    on; the faces in order of (dimension, rays), the dimension read from a
    cone built on each face."""
    found = set()
    for size in range(len(c.dual_rays) + 1):
        for sub in itertools.combinations(c.dual_rays, size):
            found.add(tuple(
                g for g in c.extremal_rays if all(dot(u, g) == 0 for u in sub)
            ))
    return sorted(found, key=lambda f: (Cone(f, c.rank).dim, f))


def face_keys(other):
    return {Cone(f, other.rank).key for f in reference_faces(other)}


def random_strongly_convex(rng, rank, most=None):
    """A strongly convex cone of rank `rank`, often not full-dimensional,
    with at most `most` (default rank + 3) generators.  Below full dimension
    each gen is a nonnegative combination of `dim` basis vectors, so the
    cone lies in their span."""

    def combination(basis):
        ks = [rng.randint(0, 2) for _ in basis]
        return [sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank)]

    while True:
        dim = rng.randint(1, rank)
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
        gens = [
            combination(basis) if dim < rank else [rng.randint(-3, 3) for _ in range(rank)]
            for _ in range(rng.randint(dim, most or rank + 3))
        ]
        c = Cone(gens, rank)
        if c.gens and c.is_strongly_convex:
            return c


def check(c, other, keys):
    expected = c.key in keys
    assert is_face_of(c, other) == expected, (c, other)
    return expected


def test_is_face_of_matches_face_enumeration():
    rng = random.Random(11)
    verdicts = set()
    for rank in (2, 3, 4):
        for _ in range(25):
            other = random_strongly_convex(rng, rank)
            keys = face_keys(other)
            for f in other.faces():
                assert check(Cone(f, rank), other, keys)
            rays = other.extremal_rays
            for size in range(len(rays) + 1):
                for sub in itertools.combinations(rays, size):
                    verdicts.add(check(Cone(sub, rank), other, keys))
            for g in other.gens:
                verdicts.add(check(Cone([g], rank), other, keys))
            for _ in range(3):
                cone = random_strongly_convex(rng, rank)
                meet = other.intersection(cone)
                verdicts.add(check(meet, other, keys))
                verdicts.add(check(meet, cone, face_keys(cone)))
                verdicts.add(check(cone, other, keys))
            assert not is_face_of(
                Cone(other.gens, rank), Cone([g + (0,) for g in other.gens], rank + 1)
            )
            assert not is_face_of(zero_cone(rank + 1), other)
    assert verdicts == {True, False}


def test_faces_and_facets_match_the_subset_enumeration():
    rng = random.Random(7207)
    seen = {"zero": 0, "low": 0, "full": 0, "non-simplicial": 0}
    for rank in range(6):
        for _ in range(30):
            if rank == 0 or rng.random() < 0.1:
                c = zero_cone(rank)
            else:
                c = random_strongly_convex(rng, rank, most=rank + 1 if rank == 5 else None)
            want = reference_faces(c)
            assert c.faces() == want, c
            assert c.facets() == [
                f for f in want if Cone(f, rank).dim == c.dim - 1
            ], c
            seen["zero"] += not c.gens
            seen["low"] += 0 < c.dim < rank
            seen["full"] += 0 < c.dim == rank
            seen["non-simplicial"] += not c.is_simplicial
    assert all(seen.values()), seen
    with pytest.raises(ValueError):
        Cone([(1, 0), (-1, 0)], 2).faces()
    with pytest.raises(ValueError):
        Cone([(1, 0), (-1, 0), (0, 1)], 2).facets()


def test_simplicial_facets_are_the_ray_subsets_the_dual_rays_cut_out():
    """A simplicial cone's facets are its subsets of dim - 1 rays, in
    ``combinations`` order, and a zero cone has none: ``facets`` (one facet
    per dual ray, the rays it vanishes on) gives exactly these on 400 seeded
    simplicial cones of rank 0 to 4 and on every cone of every bundled
    example."""

    def ray_subsets(c):
        return list(itertools.combinations(c.extremal_rays, c.dim - 1)) if c.dim else []

    rng = random.Random(3901)
    drawn = collections.Counter()
    while sum(drawn.values()) < 400:
        rank = rng.randint(0, 4)
        dim = rng.randint(0, rank)
        gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(dim)]
        c = Cone(gens, rank)
        if len(c.gens) != dim or c.dim != dim:
            continue  # dependent draws
        assert c.is_simplicial and c.facets() == ray_subsets(c), c
        drawn[(rank, dim)] += 1
    assert len(drawn) == 15, drawn  # every 0 <= dim <= rank <= 4
    examples = 0
    data = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
    for path in sorted(os.listdir(data)):
        for s in load_fanifold(os.path.join(data, path)).strata:
            for c in s.fan.cones:
                assert c.is_simplicial and c.facets() == ray_subsets(c), (path, s.name, c)
                examples += 1
    assert examples == 208  # every example cone is simplicial


def test_lineality_basis_matches_the_kernel_of_the_dual():
    """The shortcut (no line when the sum of the dual rays is positive on
    every gen) against the kernel of the dual rays and the perp basis."""
    rng = random.Random(4409)
    lines = 0
    for rank in range(5):
        for _ in range(60):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 2))
            ]
            if gens and rng.random() < 0.3:
                gens.append(tuple(-x for x in gens[-1]))  # often a line
            c = Cone(gens, rank)
            rows = list(c.dual_rays) + list(c.perp_basis)
            assert c.lineality_basis == integer_kernel(mat(rows), len(rows), rank), c
            lines += bool(c.lineality_basis)
    assert lines >= 30, lines


def test_is_face_of_needs_strongly_convex_other():
    line = Cone([(1, 0), (-1, 0)], 2)
    with pytest.raises(ValueError):
        is_face_of(zero_cone(2), line)
    with pytest.raises(ValueError):
        is_face_of(Cone([(1, 0)], 2), line)


def test_dim_matches_the_smith_rank_of_the_generators():
    rng = random.Random(3301)
    seen_line = seen_zero = False
    for rank in range(5):
        for _ in range(40):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 2))
            ]
            if gens and rng.random() < 0.3:
                gens.append(tuple(-x for x in gens[0]))  # often a line
            c = Cone(gens, rank)
            expected = smith_normal_form(mat(c.gens)).rank if c.gens else 0
            assert c.dim == expected, c
            seen_zero |= not c.gens
            seen_line |= bool(c.gens) and not c.is_strongly_convex
    assert seen_zero and seen_line


def perp_by_kernel(c):
    """The integer kernel of the gens: the perp basis with no shortcut."""
    return integer_kernel(mat(c.gens), len(c.gens), c.rank)


def dim_by_perp(c):
    """The rank minus the size of the perp basis, from the kernel: the rule
    ``Cone.dim`` followed before it read the rank of the gens, kept as its
    reference."""
    return c.rank - len(perp_by_kernel(c))


def test_dim_equals_the_perp_rule_in_random_bases(monkeypatch):
    """``Cone.dim``, one Hermite pass over the gens, equals the perp rule
    on random cones of every rank up to 4, each moved by a random matrix
    in GL(n, Z): cones with a line, lower-dimensional cones, full cones and
    the zero cone; and ``perp_basis``, which skips the kernel on a full
    cone, is the kernel.  A zero cone of negative rank, which only a
    malformed file gives, keeps the rank as its dimension under both
    rules."""
    kernels = []
    kernel = cones.integer_kernel

    def counted(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(cones, "integer_kernel", counted)
    rng = random.Random(4501)
    seen = collections.Counter()
    for rank in range(5):
        for _ in range(80):
            span = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, rank))]
            gens = [
                [sum(rng.randint(-1, 2) * b[i] for b in span) for i in range(rank)]
                for _ in range(rng.randint(0, rank + 2))
            ]
            if gens and rng.random() < 0.3:
                gens.append([-x for x in gens[0]])
            m = _unimodular(rng, rank)
            c = Cone([[dot(r, g) for r in m] for g in gens], rank)
            assert c.dim == dim_by_perp(c), c
            before = len(kernels)
            assert c.perp_basis == perp_by_kernel(c), c
            if c.dim == rank:
                assert len(kernels) == before, c  # a full cone needs no kernel
            if not c.gens:
                seen["zero"] += 1
            elif not c.is_strongly_convex:
                seen["line"] += 1
            else:
                seen["full" if c.dim == rank else "lower"] += 1
    assert min(seen.values()) >= 30, seen
    negative = Cone((), -1)
    assert negative.dim == dim_by_perp(negative) == -1


def test_extremal_rays_match_the_double_description_of_the_dual():
    """The combinatorial rule against the rays a double description recovers
    from the dual: rank 0-4, lower-dimensional cones, gens that are sums of
    other gens, and cones with a line."""
    rng = random.Random(6061)
    seen = {"zero": 0, "low": 0, "full": 0, "sum": 0, "line": 0}
    for rank in range(5):
        for _ in range(60):
            dim = rng.randint(1, rank) if rank else 0
            basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
            gens = [
                tuple(sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(rank))
                for _ in range(rng.randint(1, rank + 3))
            ]
            if len(gens) >= 2 and rng.random() < 0.4:
                gens.append(tuple(x + y for x, y in zip(gens[0], gens[1])))
                seen["sum"] += 1
            if gens and rng.random() < 0.2:
                gens.append(tuple(-x for x in gens[-1]))  # often a line
            c = Cone(gens, rank)
            want = dual_description(c.dual_rays, c.perp_basis, c.rank)[1]
            assert c.extremal_rays == want, c
            if c.is_strongly_convex:
                assert set(want) <= set(c.gens), c
            seen["zero"] += not c.gens
            seen["low"] += 0 < c.dim < rank
            seen["full"] += 0 < c.dim == rank
            seen["line"] += not c.is_strongly_convex
    assert all(seen.values()), seen


def _dd_values(c):
    """Extremal rays, lineality basis, key and simpliciality as the double
    description gives them: the rays dualized back from the dual, and the
    lineality as the kernel of the dual rays and the perp lattice."""
    dual = dual_description(c.gens, (), c.rank)[1]
    perp = integer_kernel(mat(c.gens), len(c.gens), c.rank)
    rays = dual_description(dual, perp, c.rank)[1]
    rows = list(dual) + list(perp)
    lineality = integer_kernel(mat(rows), len(rows), c.rank)
    key = (c.rank, frozenset(rays), lineality)
    return rays, lineality, key, not lineality and len(rays) == c.rank - len(perp)


def test_simplicial_cones_are_keyed_without_a_double_description(monkeypatch):
    """On 300 seeded cones (simplicial, with more gens than their dimension,
    with a line, and zero) the key's parts equal the double description's.
    Once its dimension is known, keying a simplicial cone runs no double
    description, and a cone without a line reads its lineality off its dual
    rays with no kernel."""
    calls = collections.Counter()
    for name in ("dual_description", "integer_kernel"):
        def counted(*args, _name=name, _func=getattr(cones, name)):
            calls[_name] += 1
            return _func(*args)

        monkeypatch.setattr(cones, name, counted)
    rng = random.Random(3402)
    seen = collections.Counter()
    for k in range(300):
        rank = rng.randint(1, 4)
        dim = rng.randint(1, rank)
        basis = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(dim)]
        count = (0, dim, dim + rng.randint(1, 3), dim)[k % 4]
        gens = [
            [sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(rank)]
            for _ in range(count)
        ]
        if k % 4 == 2 and rank >= 3:  # a cone over a polygon or polytope
            gens = [
                [rng.randint(-2, 2) for _ in range(rank - 1)] + [1]
                for _ in range(rng.randint(rank + 1, rank + 3))
            ]
        if k % 4 == 3 and gens:
            gens.append([-x for x in gens[0]])  # often a line
        c = Cone(gens, rank)
        fresh = "key" not in vars(c)
        simplicial = len(c.gens) == c.dim
        calls.clear()
        key = c.key
        if fresh and simplicial:
            assert not calls, (c, calls)
        if fresh and c.is_strongly_convex:
            assert not calls["integer_kernel"], (c, calls)
        want = _dd_values(c)
        assert (c.extremal_rays, c.lineality_basis, key, c.is_simplicial) == want, c
        seen["zero"] += not c.gens
        seen["fresh simplicial"] += simplicial and fresh and bool(c.gens)
        seen["non-simplicial"] += c.is_strongly_convex and not c.is_simplicial
        seen["line"] += not c.is_strongly_convex
    assert min(seen.values()) > 20, seen


def test_the_package_caches_through_one_lock_free_descriptor():
    """Every cached property of the package is ``cones.cached_property``, a
    ``functools.cached_property`` computed once per instance without taking
    a lock; replacing its ``func``, as the benchmark's tracer does, sees
    each first access."""
    from fanifolds import bmodel, fanifold, fans

    assert issubclass(cones.cached_property, functools.cached_property)
    found = [
        (f"{cls.__name__}.{name}", type(attr))
        for mod in (cones, fans, fanifold, bmodel)
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)
    ]
    assert len(found) > 15, found
    assert all(t is cones.cached_property for _, t in found), found

    class Probe:
        def __init__(self, v):
            self.v = v

        @cones.cached_property
        def double(self):
            calls.append(self.v)
            return 2 * self.v

    class NoLock:
        def __enter__(self):
            raise AssertionError("a first access took the lock")

        def __exit__(self, *exc):
            return False

    Probe.double.lock = NoLock()  # the lock Python 3.11 takes
    calls = []
    probes = [Probe(1), Probe(2)]
    assert [p.double for p in probes * 2] == [2, 4, 2, 4]
    assert calls == [1, 2] and Probe.double.attrname == "double"
    assert isinstance(vars(Probe)["double"], functools.cached_property)
    first = []
    func = Probe.double.func
    Probe.double.func = functools.wraps(func)(lambda self: first.append(self) or func(self))
    probes += [Probe(3), Probe(4)]
    assert [p.double for p in probes * 2] == [2, 4, 6, 8] * 2
    assert first == probes[2:] and calls == [1, 2, 3, 4]


def test_equal_normalized_gens_share_one_live_cone():
    c = Cone([(1, 0), (0, 1)], 2)
    assert Cone([(2, 0), (0, 3)], 2) is c
    assert Cone(iter([(1, 0), (0, 0), (3, 0), (0, 1)]), 2) is c
    assert copy.deepcopy(c) is c
    assert zero_cone(2) is not zero_cone(3)
    permuted = Cone([(0, 1), (1, 0)], 2)
    assert permuted is not c
    assert permuted == c
    assert permuted.gens == ((0, 1), (1, 0))


def test_interning_finds_normalized_gens_without_normalizing(monkeypatch):
    """Gens as lists, or with non-primitive, duplicate or zero entries, give
    the cone normalizing gives; gens that are already a live cone's
    normalized tuple find it and call no ``primitivize``."""
    c = Cone([(1, -2, 0), (0, 1, 1)], 3)
    calls = []
    primitivize = cones.primitivize
    monkeypatch.setattr(cones, "primitivize", lambda v: calls.append(v) or primitivize(v))
    for gens in (
        c.gens, list(c.gens), iter(c.gens), [(True, -2, False), (0, 1.0, 1)],
    ):
        assert Cone(gens, 3) is c
    assert calls == []
    for gens in (
        [[1, -2, 0], [0, 1, 1]],
        [(2, -4, 0), (0, 3, 3)],
        [(1, -2, 0), (1, -2, 0), (0, 1, 1)],
        [(0, 0, 0), (1, -2, 0), (0, 0, 0), (0, 1, 1)],
        [[3, -6, 0], (0, 1, 1), [0, 2, 2]],
    ):
        calls.clear()
        assert Cone(gens, 3) is c, gens
        assert calls
    with pytest.raises(ValueError, match="generator length"):
        Cone([[1, 0]], 3)


def test_a_cone_lives_only_while_someone_holds_it():
    gc.collect()
    gc.disable()
    try:
        c = Cone([(5, 7, 11), (1, 2, 3)], 3)
        c.faces()
        ref = weakref.ref(c)
        del c
        assert ref() is None
        assert (3, ((5, 7, 11), (1, 2, 3))) not in Cone._live
    finally:
        gc.enable()


def test_loading_and_validating_an_example_dualizes_each_cone_once(monkeypatch):
    """No cone is dualized twice, and only 15 are dualized in all: fan
    validation nests cones by their extremal rays, so a simplicial cone is
    dualized only for a meet of two maximal cones (51 when each cone's
    containment was read off ``Cone.contains``)."""
    data = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds", "data")
    dualized = collections.Counter()
    dual = Cone.dual_rays.func

    def counted(self):
        dualized[self.rank, self.gens] += 1
        return dual(self)

    monkeypatch.setattr(Cone.dual_rays, "func", counted)
    total = 0
    for name in sorted(os.listdir(data)):
        dualized.clear()
        assert load_fanifold(os.path.join(data, name)).validate().coherent, name
        assert max(dualized.values(), default=1) == 1, (name, dualized.most_common(3))
        total += len(dualized)
    assert total == 15


def test_a_cone_dual_puts_no_lattice_in_hermite_form(monkeypatch):
    """A cone's dual rays run one double description and no ``row_hermite``;
    a meet puts its lineality in Hermite form itself, so meets of cones
    with lines keep their gens (about a third of these lineality bases do
    not come out of the double description in Hermite form)."""
    calls = []
    hermite = cones.row_hermite

    def counted(vectors, rank):
        calls.append(rank)
        return hermite(vectors, rank)

    monkeypatch.setattr(cones, "row_hermite", counted)
    rng = random.Random(5)
    dualized = meets = reordered = 0
    for _ in range(300):
        rank = rng.randint(2, 4)
        pair = []
        for _ in range(2):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 1))
            ]
            gens.append(tuple(-x for x in gens[0]))  # a line when gens[0] != 0
            c = Cone(gens, rank)
            dualized += "dual_rays" not in c.__dict__
            c.dual_rays
            pair.append(c)
        assert calls == []
        a, b = pair
        lin, rays = dual_description(
            list(a.dual_rays) + list(b.dual_rays),
            list(a.perp_basis) + list(b.perp_basis),
            rank,
        )
        want = hermite(lin, rank)
        lines = [v for l in want for v in (l, tuple(-x for x in l))]
        assert a.intersection(b).gens == Cone(list(rays) + lines, rank).gens
        assert calls == [rank]
        calls.clear()
        meets += bool(lin)
        reordered += want != lin
    assert dualized > 300 and meets > 30 and reordered > 10, (dualized, meets, reordered)


def _solve(cols, v):
    """The unique rational lam with sum(lam_i cols_i) = v, or None when the
    columns are dependent or v is not in their span."""
    k = len(cols)
    rows = [[Fraction(c[i]) for c in cols] + [Fraction(v[i])] for i in range(len(v))]
    for c in range(k):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[i][k] for i in range(k)]


def brute_contains(gens, v):
    """v is a nonnegative combination of the gens; by Caratheodory's theorem
    of linearly independent ones, whose coefficients one exact solve finds.
    No dual description is used."""
    if not any(v):
        return True
    for k in range(1, len(v) + 1):
        for sub in itertools.combinations(gens, k):
            lam = _solve(sub, v)
            if lam is not None and min(lam) >= 0:
                return True
    return False


def test_contains_and_cut_match_a_brute_reference():
    """``contains`` against Caratheodory on random cones (lines included),
    and ``_cut`` against the face of the sum: for vectors in a strongly
    convex cone the smallest face holding them holds their sum p, and an
    extremal ray r lies in it exactly when p - r / N stays in the cone for
    large N; N = 10**6 exceeds every u . r of a dual ray u on these cones."""
    rng = random.Random(20152)
    big = 2**65 + 3
    for _ in range(150):
        rank = rng.randint(1, 3)
        gens = [
            [rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 4))
        ]
        c = Cone(gens, rank)
        probes = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(4)]
        probes += [[big * x for x in v] for v in probes[:2]]
        for _ in range(2):
            coeffs = [rng.randint(0, 2) for _ in c.gens]
            probes.append(
                [sum(a * g[i] for a, g in zip(coeffs, c.gens)) for i in range(rank)]
            )
        for v in probes:
            assert c.contains(v) == brute_contains(c.gens, v), (c, v)
    for _ in range(150):
        c = random_strongly_convex(rng, rng.randint(1, 3))
        vectors = []
        for _ in range(rng.randint(0, 3)):
            picked = rng.sample(c.gens, rng.randint(0, len(c.gens)))
            coeffs = [rng.choice((1, 2, big)) for _ in picked]
            vectors.append(tuple(
                sum(a * g[i] for a, g in zip(coeffs, picked)) for i in range(c.rank)
            ))
        p = [sum(col) for col in zip(*vectors)] or [0] * c.rank
        expected = tuple(
            r for r in c.extremal_rays
            if brute_contains(c.gens, [10**6 * x - y for x, y in zip(p, r)])
        )
        assert c._cut(vectors) == expected, (c, vectors)


def _unimodular(rng, n):
    """A random matrix in GL(n, Z): a signed permutation times shears."""
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        m[i][j] = rng.choice((-1, 1))
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        m[i] = [a + t * b for a, b in zip(m[i], m[j])]
    return m


def multiplicity_by_smith(c):
    """The product of the invariant factors of a simplicial cone's rays
    (their Smith form): the rule ``Cone.multiplicity`` follows in every
    dimension but the full one, kept as its reference."""
    return math.prod(smith_normal_form(mat(c.extremal_rays)).invariant_factors)


def random_simplicial_cones(seed, count=15):
    """``count`` simplicial cones of each dimension up to their rank, for
    ranks 1-4, each in a random basis of GL(n, Z).  The rows of a
    triangular matrix with diagonal 1-3 span a sublattice of that
    dimension, and the basis change moves it off the coordinate axes."""
    rng = random.Random(seed)
    out = []
    for rank in range(1, 5):
        for dim in range(rank + 1):
            for _ in range(count):
                rows = [
                    [rng.randint(-3, 3) for _ in range(i)] + [rng.randint(1, 3)]
                    + [0] * (rank - i - 1)
                    for i in range(dim)
                ]
                m = _unimodular(rng, rank)
                c = Cone([[dot(r, g) for r in m] for g in rows], rank)
                assert c.is_simplicial and c.dim == dim, c
                out.append(c)
    return out


def test_multiplicity_is_the_product_of_the_smith_invariant_factors(monkeypatch):
    """``Cone.multiplicity`` equals ``multiplicity_by_smith`` on random
    simplicial cones of every dimension up to their rank, for ranks 1-4:
    a full-dimensional cone reads |det| of its rays, with no Smith form."""
    smith = []
    monkeypatch.setattr(
        cones, "smith_normal_form", lambda m: smith.append(m) or smith_normal_form(m)
    )
    seen = collections.Counter()
    for c in random_simplicial_cones(4313):
        before = len(smith)
        assert c.multiplicity == multiplicity_by_smith(c), c
        full = c.dim == c.rank
        assert not (full and len(smith) > before), c
        seen["full" if full else "lower", c.multiplicity > 1] += 1
    assert all(seen[k, big] > 5 for k in ("full", "lower") for big in (False, True)), seen
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    for c in (Cone(square, 3), Cone([g + (0,) for g in square], 4)):
        with pytest.raises(ValueError, match="simplicial"):
            c.multiplicity


def test_a_simplicial_cone_takes_its_ray_subsets_as_faces_without_a_cut(monkeypatch):
    """``_has_face`` of a simplicial cone on a cone spanned by some of its
    rays is true and runs no cut; on any other cone it is ``is_face_of``."""
    cases = random_simplicial_cones(4317, count=4)
    keys = [face_keys(c) for c in cases]
    others = [
        Cone([tuple(map(sum, zip(g, h))) for g, h in zip(c.gens, c.gens[1:])], c.rank)
        for c in cases
    ]
    monkeypatch.setattr(Cone, "_cut", lambda self, vectors: pytest.fail("a cut ran"))
    for c in cases:
        rays = c.extremal_rays
        for size in range(len(rays) + 1):
            for sub in itertools.combinations(rays, size):
                assert c._has_face(Cone(sub, c.rank))
    monkeypatch.undo()
    verdicts = set()
    for c, other, k in zip(cases, others, keys):
        verdicts.add(check(other, c, k))
    assert verdicts == {True, False}
