"""Integer linear algebra: Smith form, quotients, kernels, Hermite form."""

import itertools
import math
import random

import pytest

from fanifolds.lattice import (
    LatticeMap,
    content,
    det,
    identity_matrix,
    integer_kernel,
    invert_unimodular,
    is_unimodular,
    lattice_map,
    mat_mul,
    mat_vec,
    matrix_rank,
    primitivize,
    quotient_with_torsion,
    row_hermite,
    smith_normal_form,
    solve_integer,
    transpose,
)


def random_matrix(rng, rows, cols, bound=9):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def test_content_and_primitivize():
    assert content((4, -6, 10)) == 2
    assert content((0, 0)) == 0
    assert primitivize((4, -6, 10)) == (2, -3, 5)
    assert primitivize((0, -7, 0)) == (0, -1, 0)


def test_det_and_rank_small():
    assert det(((2, 1), (1, 1))) == 1
    assert det(((2, 0), (0, 3))) == 6
    assert matrix_rank(((1, 2), (2, 4))) == 1
    assert matrix_rank(()) == 0


def test_invert_unimodular_round_trip():
    m = ((2, 1), (1, 1))
    inv = invert_unimodular(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    assert mat_mul(inv, m) == identity_matrix(2)
    with pytest.raises(ValueError):
        invert_unimodular(((2, 0), (0, 1)))
    assert is_unimodular(((1, 5), (0, -1)))
    assert not is_unimodular(((2, 0), (0, 2)))


def test_smith_normal_form_examples():
    snf = smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, -4, -16)))
    assert snf.invariant_factors == (2, 6, 12)
    # divisibility chain is part of the contract
    d = snf.invariant_factors
    assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


def test_smith_normal_form_random_reconstruction():
    rng = random.Random(20319)
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        a = random_matrix(rng, rows, cols)
        snf = smith_normal_form(a)
        assert mat_mul(mat_mul(snf.U, snf.D), snf.V) == a
        assert abs(det(snf.U)) == 1 or rows == 0
        assert abs(det(snf.V)) == 1 or cols == 0
        diag = snf.diagonal
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


def test_quotient_with_torsion_basics():
    q = quotient_with_torsion(2, [])
    assert q.free_rank == 2 and q.torsion == ()
    assert q.projection.matrix == identity_matrix(2)

    q = quotient_with_torsion(2, [(2, 0), (0, 3)])
    assert q.free_rank == 0
    assert q.torsion == (6,)

    q = quotient_with_torsion(2, [(1, 0)])
    assert q.free_rank == 1 and q.torsion == ()
    # projection kills the span and section is a right inverse
    assert q.projection((1, 0)) == (0,)
    assert q.projection(q.section((1,))) == (1,)

    # a non-primitive generator leaves torsion beside the free part
    q = quotient_with_torsion(2, [(2, 0)])
    assert q.free_rank == 1 and q.torsion == (2,)
    assert q.projection((2, 0)) == (0,)


def test_quotient_projection_section_random():
    rng = random.Random(4321)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        q = quotient_with_torsion(n, vecs)
        for v in vecs:
            assert q.projection(v) == (0,) * q.free_rank
        for i in range(q.free_rank):
            e = tuple(1 if j == i else 0 for j in range(q.free_rank))
            assert q.projection(q.section(e)) == e


def test_annihilator():
    # characters vanishing on (2, 0): a saturated rank-1 basis, and the
    # component group Z^2 / Z(2, 0) has torsion of order 2
    basis = integer_kernel(((2, 0),), 1, 2)
    assert len(basis) == 1
    assert all(sum(x * y for x, y in zip(row, (2, 0))) == 0 for row in basis)
    q = quotient_with_torsion(2, [(2, 0)])
    assert q.free_rank == len(basis)
    assert q.torsion == (2,)
    assert math.prod(q.torsion) == 2


def test_solve_integer():
    a = ((2, 0), (0, 3))
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 0)) is None
    assert solve_integer(identity_matrix(0), ()) == ()


def _elementary(rng, n):
    """A random elementary integer matrix: a shear, a row swap or a sign flip."""
    e = [list(r) for r in identity_matrix(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    kind = rng.randrange(3)
    if kind == 0 and i != j:
        e[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    elif kind == 1:
        e[i], e[j] = e[j], e[i]
    else:
        e[i][i] = -1
    return tuple(map(tuple, e))


def test_invert_unimodular_on_products_of_elementary_matrices():
    rng = random.Random(6021)
    for n in range(7):
        for _ in range(25):
            m = identity_matrix(n)
            for _ in range(rng.randint(0, 3 * n)):
                m = mat_mul(m, _elementary(rng, n))
            inv = invert_unimodular(m)
            assert mat_mul(m, inv) == identity_matrix(n)
            assert mat_mul(inv, m) == identity_matrix(n)
    assert invert_unimodular(()) == ()


def test_invert_unimodular_rejects_non_unimodular():
    rng = random.Random(4417)
    for target in (0, 2, -2, 6):
        found = 0
        while found < 10:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 3)
            if det(m) != target:
                continue
            with pytest.raises(ValueError, match=rf"\(det = {det(m)}\)"):
                invert_unimodular(m)
            found += 1
    with pytest.raises(ValueError):
        invert_unimodular(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        invert_unimodular(((1, 0), (0, 1), (0, 0)))


def test_integer_kernel_saturated():
    k = integer_kernel(((2, 4),), 1, 2)
    assert len(k) == 1
    assert k[0] in ((2, -1), (-2, 1))
    rng = random.Random(90125)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, 5)
        ker = integer_kernel(a, rows, cols)
        for v in ker:
            assert mat_vec(a, v) == (0,) * rows
        assert len(ker) == cols - matrix_rank(a)
        # saturation: quotient by the kernel has no torsion
        assert quotient_with_torsion(cols, ker).torsion == ()
    assert integer_kernel((), 0, 3) == identity_matrix(3)
    assert integer_kernel(((),), 1, 0) == ()
    # 500 distinct matrices against a second algorithm, the SNF kernel
    seen = set()
    for a, rows, cols in _kernel_cases(random.Random(2104)):
        if len(seen) == 500:
            break
        if a in seen:
            continue
        seen.add(a)
        ker = integer_kernel(a, rows, cols)
        for v in ker:
            assert mat_vec(a, v) == (0,) * rows
        assert len(ker) == cols - matrix_rank(a)
        assert matrix_rank(a) == smith_normal_form(a).rank
        # the returned basis is already the canonical Hermite one
        assert ker == row_hermite(_snf_kernel(a, cols), cols)


def _snf_kernel(a, cols):
    """Second algorithm: the last columns of V^-1 from A = U D V."""
    snf = smith_normal_form(a)
    vinv = invert_unimodular(snf.V)
    return tuple(tuple(row[j] for row in vinv) for j in range(snf.rank, cols))


def _kernel_cases(rng):
    """Fixed-seed matrices: zero, tall, repeated rows, full-rank square, random."""
    for i in itertools.count():
        kind = i % 5
        if kind == 0:
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            yield ((0,) * cols,) * rows, rows, cols
        elif kind == 1:
            cols = rng.randint(1, 4)
            rows = rng.randint(cols + 1, 6)
            yield random_matrix(rng, rows, cols, 6), rows, cols
        elif kind == 2:
            rows, cols = rng.randint(1, 3), rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, 7)
            a = a + tuple(rng.choice(a) for _ in range(rng.randint(1, 3)))
            yield a, len(a), cols
        elif kind == 3:
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, 9)
            while det(a) == 0:
                a = random_matrix(rng, n, n, 9)
            yield a, n, n
        else:
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            yield random_matrix(rng, rows, cols, rng.choice((1, 3, 12))), rows, cols


def test_row_hermite_canonical():
    h = row_hermite([(2, 4), (4, 2)], 2)
    # canonical form: applying it again changes nothing
    assert row_hermite(h, 2) == h
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        h = row_hermite(vecs, n)
        assert row_hermite(h, n) == h
        # same span: every input row solves in terms of h and vice versa
        for v in vecs:
            assert solve_integer(transpose(h), v) is not None or not h
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert row_hermite(shuffled, n) == h


def test_lattice_map_compose_and_call():
    f = lattice_map(((1, 2), (0, 1)), 2, 2)
    g = lattice_map(((0, 1),), 2, 1)
    gf = g.compose(f)
    assert isinstance(gf, LatticeMap)
    v = (3, 4)
    assert gf(v) == g(f(v))
    with pytest.raises(ValueError):
        f.compose(g)  # ranks do not line up


def test_lattice_map_validates_shape():
    with pytest.raises(ValueError):
        lattice_map(((1, 0),), 3, 1)
