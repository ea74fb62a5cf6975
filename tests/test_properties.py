"""Randomized property suites.

Each suite runs at least 200 cases from a fixed seed.  The drivers are
plain functions so the acceptance tests can re-run them with their own
budget; the pytest wrappers below call them with the defaults.
"""

import random

from fanifolds import bmodel
from fanifolds.bmodel import full_diagram, limit_census, u_functor
from fanifolds.cones import Cone
from fanifolds.examples import (
    EXAMPLES,
    a1_fan,
    orthant_fan,
    p1_fan,
    projective_fan,
    quadric_fan,
)
from fanifolds.fanifold import Fanifold, delete_strata, from_fan, sphere_section
from fanifolds.fans import Fan, StackyFan, quotient_fan, stellar_subdivision
from fanifolds.lattice import (
    identity_matrix,
    is_unimodular,
    mat_mul,
    matrix_rank,
    quotient_with_torsion,
    smith_normal_form,
)
from fanifolds.mirror import restriction_pairs
from fanifolds.skeleton import euler_characteristic_c
from test_lattice import _ref_smith_normal_form, det

SEED = 9157
CASES = 200


# -- shared generators -------------------------------------------------------


_FAN_BASES = (
    a1_fan,
    p1_fan,
    lambda: orthant_fan(2),
    lambda: orthant_fan(3),
    lambda: projective_fan(2),
    quadric_fan,
)


def random_fan(rng, max_subdivisions=2, allow_rank3=True):
    bases = _FAN_BASES if allow_rank3 else _FAN_BASES[:3] + _FAN_BASES[4:]
    fan = bases[rng.randrange(len(bases))]()
    for _ in range(rng.randint(0, max_subdivisions)):
        big = [c for c in fan.cones if c.dim >= 2]
        if not big:
            break
        c = big[rng.randrange(len(big))]
        point = tuple(sum(g[i] for g in c.gens) for i in range(fan.rank))
        fan = stellar_subdivision(fan, point)
    return fan


def random_down_closed(rng, phi):
    names = [s.name for s in phi.strata]
    picked = [n for n in names if rng.random() < 0.4]
    return sorted(phi.down_closure(picked))


# -- shared oracles ----------------------------------------------------------


def composite_by_search(phi, a, b):
    """The arrow c out of a's source, whose cone holds sigma_a and goes
    onto sigma_b under a, that equals b after a; None if there is none.
    Needs valid fans.  A search over a's out-arrows with one ``mat_mul``
    per candidate: the tests' reference for the composites the package
    looks up (``Fanifold._arrow_on``)."""
    star_a = phi._star_map(a)
    composed = mat_mul(phi.arrow_map(b).matrix, phi.arrow_map(a).matrix)
    return next(
        (
            c
            for c in phi.out_arrows(a.source)
            if c.target == b.target
            and star_a.get(c.cone_index) == b.cone_index
            and phi.arrow_map(c).matrix == composed
        ),
        None,
    )


def fresh_fan(fan):
    """A new fan object with ``fan``'s cones, rank and multiples and nothing
    cached, so nothing about it was checked or carried."""
    plain = Fan(fan.cones, fan.rank)
    return StackyFan(plain, fan.multiples) if isinstance(fan, StackyFan) else plain


def rebuilt(phi, keep=()):
    """``phi`` rebuilt through ``Fanifold(...)``: the same strata and arrows,
    with one fresh copy per distinct stratum fan (fans shared stay shared)
    but the fans in ``keep``, and nothing carried."""
    fresh = {id(f): f for f in keep}
    for s in phi.strata:
        if id(s.fan) not in fresh:
            fresh[id(s.fan)] = fresh_fan(s.fan)
    strata = [s._replace(fan=fresh[id(s.fan)]) for s in phi.strata]
    return Fanifold(phi.dimension, strata, phi.arrows, phi.source_fan)


def assert_carries_what_validation_finds(phi):
    """``phi``, fresh from ``from_fan`` or ``sphere_section``, carries a
    report, a star map per arrow and a containment table per stratum fan,
    and each equals what full validation of ``rebuilt(phi)`` computes
    (star maps in the same order).  Returns the report."""
    carried = dict(phi._star_maps)
    assert "_report" in vars(phi), phi
    assert len(carried) == len(phi.arrows), phi
    fresh = rebuilt(phi)
    report = fresh.validate()
    assert phi.validate() == report, (phi, report.errors)
    for a in phi.arrows:
        assert list(carried[a].items()) == list(fresh._star_map(a).items()), (phi, a)
    for s in phi.strata:
        assert s.plain_fan._inside == fresh.stratum(s.name).plain_fan._inside, (phi, s.name)
    return report


# -- suite 1: quotient composition vs brute force ----------------------------


def run_quotient_composition_suite(seed=SEED, cases=CASES):
    """Quotienting by a cone in two stages matches the one-stage quotient."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        fan = random_fan(rng)
        taus = [i for i, c in enumerate(fan.cones) if c.dim >= 1]
        if not taus:
            continue
        it = taus[rng.randrange(len(taus))]
        tau = fan.cones[it]
        faces = [Cone(f, fan.rank) for f in tau.faces()]
        sigma = faces[rng.randrange(len(faces))]
        isig = fan.cone_index(sigma)
        assert isig is not None

        one = quotient_fan(fan, it)
        first = quotient_fan(fan, isig)
        tau_bar = tau.image(first.projection)
        j = first.fan.cone_index(tau_bar)
        assert j is not None
        second = quotient_fan(first.fan, j)

        comp = second.projection.compose(first.projection)
        # brute force: the composite projection reproduces the two-stage cones
        for pos, sj in enumerate(second.star):
            orig = first.star[sj]
            assert fan.cones[orig].image(comp) == second.fan.cones[pos]
        # same star set either way
        assert {first.star[sj] for sj in second.star} == set(one.star)
        # the two projections differ by a unimodular change of coordinates
        section = first.section.compose(second.section)
        a = one.projection.compose(section)
        assert is_unimodular(a.matrix)
        assert mat_mul(a.matrix, comp.matrix) == one.projection.matrix
        done += 1


def test_quotient_composition_suite():
    run_quotient_composition_suite()


# -- suite 2: Smith normal form ----------------------------------------------


def run_snf_suite(seed=SEED, cases=CASES):
    """A = U D V with unimodular U, V and a divisibility chain on D, V from
    the tests' reference Smith form, and U U^-1 = I."""
    rng = random.Random(seed)
    for _ in range(cases):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        bound = 9 if rng.random() < 0.7 else 99
        a = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(cols))
            for _ in range(rows)
        )
        snf = smith_normal_form(a)
        U, D, V = _ref_smith_normal_form(a)
        assert (snf.U, snf.D) == (U, D)
        assert mat_mul(mat_mul(snf.U, snf.D), V) == a
        assert mat_mul(snf.U, snf.Uinv) == identity_matrix(rows)
        if rows:
            assert abs(det(snf.U)) == 1
        if cols:
            assert abs(det(V)) == 1
        diag = snf.diagonal
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert len(nz) == matrix_rank(a)


def test_snf_suite():
    run_snf_suite()


# -- suite 3: constructors always validate -----------------------------------


def run_constructor_validation_suite(seed=SEED, cases=CASES):
    """from_fan and sphere_section of any fan carry the report, star maps
    and fan tables that full validation of the diagram rebuilt with fresh
    fans computes, and that report says a valid coherent poset."""
    rng = random.Random(seed)
    for k in range(cases):
        if k % 5 == 0:
            # rank-3 fans grow quadratically many arrows; keep them shallow
            # and less frequent so the suite stays fast
            fan = random_fan(rng, max_subdivisions=1, allow_rank3=True)
        else:
            fan = random_fan(rng, allow_rank3=False)
        report = assert_carries_what_validation_finds(from_fan(fan))
        assert report.valid and report.is_poset and report.coherent
        if any(c.dim for c in fan.cones):
            section = sphere_section(fan)
            report = assert_carries_what_validation_finds(section)
            assert report.valid and report.coherent
            assert section.dimension == fan.rank - 1


def test_constructor_validation_suite():
    run_constructor_validation_suite()


# -- suite 4: euler characteristic vs direct recount -------------------------


def _sheets_from_minimal_arrow(phi, name):
    """Isotropy order of a top stratum, read off one minimal in-arrow.

    Only stacky generator data creates sheets; a plain fan's orbit lattice
    is saturated, so its sheet count is always 1.
    """
    minimal = {s.name for s in phi.minimal_strata()}
    for a in phi.arrows:
        if a.target != name or a.source not in minimal:
            continue
        src = phi.stratum(a.source)
        sigma = src.plain_fan.cones[a.cone_index]
        if sigma.dim != src.lattice_rank:
            continue
        if not src.is_stacky:
            return 1
        gens = [src.fan.stacky_generator(tuple(r)) for r in sigma.extremal_rays]
        q = quotient_with_torsion(src.lattice_rank, gens)
        order = 1
        for t in q.torsion:
            order *= t
        return order
    return 1


def chi_cw_oracle(phi):
    """Alternating cell count of the full-rank sheets, from raw arrows."""
    total = 0
    for st in phi.strata:
        if st.lattice_rank == 0:
            total += st.chi * _sheets_from_minimal_arrow(phi, st.name)
    return total


def run_euler_suite(seed=SEED, cases=CASES):
    rng = random.Random(seed)
    small = [
        name
        for name, build in sorted(EXAMPLES.items())
        if build().dimension <= 2
    ]
    done = 0
    while done < cases:
        roll = rng.random()
        if roll < 0.3:
            phi = EXAMPLES[small[rng.randrange(len(small))]]()
        else:
            fan = random_fan(rng, allow_rank3=False)
            if fan.rank > 2:
                continue
            if roll < 0.8:
                if rng.random() < 0.5 and fan.rays:
                    multiples = {
                        tuple(r): rng.randint(1, 3) for r in fan.rays
                    }
                    phi = from_fan(StackyFan(fan, multiples))
                else:
                    phi = from_fan(fan)
            else:
                if not any(c.dim for c in fan.cones):
                    continue
                phi = sphere_section(fan)
        assert euler_characteristic_c(phi) == chi_cw_oracle(phi)
        done += 1


def test_euler_suite():
    run_euler_suite()


# -- suite 5: kept charts count as the deleted complement ---------------------


_POSET_EXAMPLES = ("3a1", "interval", "necklace2", "square", "halfplane")


def kept_charts_count_as_deletion(phi, closed):
    """Assert that, at D = 1 and 2, the census of the charts a closed set
    keeps, read off the whole diagram, has the dimension, chart count and
    map count of the full census of the diagram with the rest deleted."""
    kept = bmodel._diagram(phi, phi.kept_cones(closed))
    sub = full_diagram(delete_strata(phi, {s.name for s in phi.strata} - set(closed)))
    for degree in (1, 2):
        got, want = (
            (c.dimension, c.object_count, c.arrow_count)
            for c in (limit_census(kept, degree), limit_census(sub, degree))
        )
        assert got == want, (phi, closed, degree)


def run_u_identity_suite(seed=SEED, cases=CASES):
    rng = random.Random(seed)
    pool = [EXAMPLES[n]() for n in _POSET_EXAMPLES]
    pool.append(from_fan(orthant_fan(2)))
    pool.append(from_fan(p1_fan()))
    for k in range(cases):
        phi = pool[k % len(pool)]
        c = random_down_closed(rng, phi)
        d = random_down_closed(rng, phi)
        big = sorted(set(c) | set(d))
        kept_charts_count_as_deletion(phi, c)
        kept_charts_count_as_deletion(phi, big)
        # marking is monotone in the closed set
        assert set(u_functor(phi, c).marked) <= set(u_functor(phi, big).marked)


def test_u_identity_suite():
    run_u_identity_suite()


# -- suite 6: restriction pairs are contravariant ----------------------------


def run_restriction_suite(seed=SEED, cases=CASES):
    rng = random.Random(seed)
    pool = [EXAMPLES[n]() for n in _POSET_EXAMPLES]
    pool.append(from_fan(quadric_fan()))
    for k in range(cases):
        phi = pool[k % len(pool)]
        z1 = random_down_closed(rng, phi)
        extra = [s.name for s in phi.strata if rng.random() < 0.3]
        z2 = sorted(phi.down_closure(set(z1) | set(extra)))
        assert set(z1) <= set(z2)
        p1 = restriction_pairs(phi, z1)
        p2 = restriction_pairs(phi, z2)
        # keeping more means deleting fewer handles
        assert set(p2.a_removed) <= set(p1.a_removed)
        removed = {
            s.name for s in phi.strata if s.interior and s.name not in z2
        }
        assert set(p2.a_removed) == removed


def test_restriction_suite():
    run_restriction_suite()
