"""Integer linear algebra: Smith form, quotients, kernels, Hermite form.

``det`` here is the Bareiss determinant, a third elimination kept outside the
package as the oracle for its unimodular tests and Smith transforms;
``solve_integer``, a solver through the Smith form, is the span oracle for
its Hermite bases.  The package's Smith form keeps no V, so the tests take
V from ``_ref_smith_normal_form`` and check A = U D V in full."""

import itertools
import math
import random

import pytest

from fanifolds.lattice import (
    LatticeMap,
    content,
    identity_matrix,
    integer_kernel,
    invert_unimodular,
    is_unimodular,
    lattice_map,
    mat_mul,
    mat_shape,
    mat_vec,
    matrix_rank,
    primitivize,
    quotient_with_torsion,
    row_hermite,
    smith_normal_form,
    transpose,
)


def det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_integer(a, b):
    """One integer solution x of A x = b through the Smith form, or None if
    none exists."""
    m, n = mat_shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if m == 0:
        return (0,) * n
    snf = smith_normal_form(a)
    c = mat_vec(invert_unimodular(snf.U), b)
    diag = snf.diagonal
    y = [0] * n
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < n:
                y[i] = c[i] // d
    return mat_vec(invert_unimodular(_ref_smith_normal_form(a)[2]), y) if n else ()


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
        U, D, V = _ref_smith_normal_form(a)
        assert (snf.U, snf.D) == (U, D)
        assert mat_mul(mat_mul(snf.U, snf.D), V) == a
        assert mat_mul(snf.U, snf.Uinv) == identity_matrix(rows)
        assert abs(det(snf.U)) == 1 or rows == 0
        assert abs(det(V)) == 1 or cols == 0
        diag = snf.diagonal
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


def test_quotient_with_torsion_basics():
    for n in range(5):
        q = quotient_with_torsion(n, [])
        assert q.free_rank == n and q.torsion == ()
        assert q.projection.matrix == identity_matrix(n)
        assert q.section.matrix == identity_matrix(n)

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
            assert is_unimodular(m)
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
            with pytest.raises(ValueError, match=rf"\(\|det\| = {abs(det(m))}\)"):
                invert_unimodular(m)
            found += 1
    with pytest.raises(ValueError, match=r"\(shape \(2, 3\)\)"):
        invert_unimodular(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match=r"\(shape \(3, 2\)\)"):
        invert_unimodular(((1, 0), (0, 1), (0, 0)))


def test_is_unimodular_matches_the_bareiss_determinant():
    """Square with n pivots all equal to 1, against det in {1, -1}, on
    random matrices of every shape up to 4 x 5."""
    rng = random.Random(5519)
    verdicts = set()
    for _ in range(2000):
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, rng.choice((1, 2, 5)))
        expected = rows in (0, cols) and det(m) in (1, -1)
        assert is_unimodular(m) == expected, m
        verdicts.add(expected)
    assert verdicts == {True, False}


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
    """Second algorithm: the last columns of V^-1 from A = U D V, with V
    from the reference Smith form."""
    snf = smith_normal_form(a)
    vinv = invert_unimodular(_ref_smith_normal_form(a)[2])
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


def test_lattice_map_composes_through_a_rank_zero_lattice():
    """Through rank 0 the composite is the zero map between the outer
    ranks, one row per target coordinate and one column per source
    coordinate: with a zero outer rank on either side, on both, or on
    neither."""
    for n, m in [(0, 2), (2, 0), (0, 0), (1, 1), (2, 3), (3, 2)]:
        into = lattice_map((), n, 0)
        out_of = lattice_map([()] * m, 0, m)
        gf = out_of.compose(into)
        assert gf == lattice_map([[0] * n] * m, n, m), (n, m)
        assert gf(tuple(range(1, n + 1))) == (0,) * m


def test_lattice_map_validates_shape():
    with pytest.raises(ValueError):
        lattice_map(((1, 0),), 3, 1)


# -- the kernels against their generator-expression definitions --------------
#
# The vector kernels and row operations of ``lattice`` are written with
# C-level builtins.  The definitions below are the per-entry generator
# expressions they replaced, kept as the reference: on the same inputs each
# kernel must return the same values, of the same types, and raise the same
# exceptions.


def _ref_vec(xs):
    return tuple(int(x) for x in xs)


def _ref_mat(rows):
    return tuple(_ref_vec(r) for r in rows)


def _ref_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _ref_mat_mul(a, b):
    if len(a) == 0:
        return ()
    inner = len(a[0])
    if inner != len(b):
        raise ValueError(f"shape mismatch: {mat_shape(a)} @ {mat_shape(b)}")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(ra[k] * bc[k] for k in range(inner)) for bc in bt) for ra in a
    )


def _ref_mat_vec(m, v):
    if m and len(m[0]) != len(v):
        raise ValueError(f"shape mismatch: {mat_shape(m)} @ vec{len(v)}")
    return tuple(sum(r[k] * v[k] for k in range(len(v))) for r in m)


def _ref_content(v):
    g = 0
    for a in v:
        g = math.gcd(g, abs(a))
    return g


def _ref_primitivize(v):
    g = _ref_content(v)
    return _ref_vec(v) if g == 0 else tuple(a // g for a in v)


def _ref_echelon(work, ncols):
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(work)) if work[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(work[i][c]), i))
            work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(work) and work[r][c] != 0:
            for i in range(r):
                q = work[i][c] // work[r][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
            r += 1
    return r


def _ref_row_hermite(vectors, rank):
    work = [list(_ref_vec(v)) for v in vectors]
    return _ref_mat(work[: _ref_echelon(work, rank)])


def _ref_integer_kernel(a, rows, cols):
    work = [
        [a[i][j] for i in range(rows)] + [int(k == j) for k in range(cols)]
        for j in range(cols)
    ]
    kernel = [row[rows:] for row in work[_ref_echelon(work, rows):]]
    return _ref_mat(kernel[: _ref_echelon(kernel, cols)])


def _ref_invert_unimodular(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError(f"matrix is not unimodular (shape {mat_shape(m)})")
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    if _ref_echelon(work, n) == n and all(work[i][i] == 1 for i in range(n)):
        return tuple(tuple(r[n:]) for r in work)
    raise ValueError(f"matrix is not unimodular (|det| = {abs(det(m))})")


def _ref_smith_normal_form(a):
    """(U, D, V) by the per-entry row and column loops, same pivot rules."""
    a = _ref_mat(a)
    m, n = len(a), len(a[0]) if a else 0
    D = [list(r) for r in a]
    U = [list(r) for r in _ref_identity(m)]
    V = [list(r) for r in _ref_identity(n)]

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            for r in U:
                r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        if q:
            for k in range(n):
                D[i][k] += q * D[j][k]
            for r in U:
                r[j] -= q * r[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        for r in U:
            r[i] = -r[i]

    def swap_cols(i, j):
        if i != j:
            for r in D:
                r[i], r[j] = r[j], r[i]
            V[i], V[j] = V[j], V[i]

    def add_col(i, j, q):
        if q:
            for r in D:
                r[i] += q * r[j]
            for k in range(n):
                V[j][k] -= q * V[i][k]

    def find_pivot(s):
        best, best_abs = None, None
        for i in range(s, m):
            for j in range(s, n):
                x = D[i][j]
                if x != 0 and (best_abs is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        return best
        return best

    r = 0
    for s in range(min(m, n)):
        while True:
            piv = find_pivot(s)
            if piv is None:
                break
            swap_rows(s, piv[0])
            swap_cols(s, piv[1])
            if D[s][s] < 0:
                negate_row(s)
            p = D[s][s]
            for i in range(s + 1, m):
                add_row(i, s, -(D[i][s] // p))
            for j in range(s + 1, n):
                add_col(j, s, -(D[s][j] // p))
            if all(D[i][s] == 0 for i in range(s + 1, m)) and all(
                D[s][j] == 0 for j in range(s + 1, n)
            ):
                break
        if piv is None:
            break
        r += 1
    while True:
        for i in range(r):
            if D[i][i] < 0:
                negate_row(i)
        bad = next((s for s in range(r - 1) if D[s + 1][s + 1] % D[s][s] != 0), None)
        if bad is None:
            break
        add_col(bad, bad + 1, 1)
        s, t = bad, bad + 1
        while True:
            entries = [(i, j) for i in (s, t) for j in (s, t) if D[i][j] != 0]
            if not entries:
                break
            i, j = min(entries, key=lambda ij: (abs(D[ij[0]][ij[1]]), ij))
            swap_rows(s, i)
            swap_cols(s, j)
            if D[s][s] < 0:
                negate_row(s)
            p = D[s][s]
            add_row(t, s, -(D[t][s] // p))
            add_col(t, s, -(D[s][t] // p))
            if D[t][s] == 0 and D[s][t] == 0:
                break
    return _ref_mat(U), _ref_mat(D), _ref_mat(V)


def _entry(rng):
    """Zero, a small entry of either sign, or one past 2**64."""
    kind = rng.random()
    if kind < 0.25:
        return 0
    if kind < 0.8:
        return rng.randint(-6, 6)
    return rng.choice((-1, 1)) * (2**64 + rng.randint(0, 2**66))


def _vector(rng, n):
    if rng.random() < 0.15:
        return (0,) * n
    return tuple(_entry(rng) for _ in range(n))


def _matrix(rng, rows, cols):
    return tuple(_vector(rng, cols) for _ in range(rows))


def _unimodular(rng, n):
    """A product of elementary matrices, some with multipliers past 2**64."""
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((rng.randint(-3, 3), 2**65 + rng.randint(0, 9)))
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], [-x for x in m[i]]
    return tuple(tuple(r) for r in m)


def _outcome(fn, *args):
    """The value with its types, or the exception raised, comparably."""
    try:
        value = fn(*args)
    except (ValueError, IndexError, TypeError) as e:
        return ("raised", type(e), str(e))
    return ("value", value, repr(value))


def test_vector_kernels_match_their_generator_definitions():
    from fanifolds import lattice as L

    rng = random.Random(20150)
    for _ in range(600):
        n = rng.randint(0, 6)
        u, v = _vector(rng, n), _vector(rng, n)
        c = _entry(rng)
        assert L.vec(u) == _ref_vec(u) and type(L.vec(u)) is tuple
        assert L.vec([str(x) for x in u]) == _ref_vec([str(x) for x in u])
        assert L.dot(u, v) == sum(a * b for a, b in zip(u, v))
        assert L.vec_add(u, v) == tuple(a + b for a, b in zip(u, v))
        assert L.vec_sub(u, v) == tuple(a - b for a, b in zip(u, v))
        assert L.vec_scale(c, u) == tuple(c * a for a in u)
        assert L.content(u) == _ref_content(u)
        assert _outcome(L.primitivize, u) == _outcome(_ref_primitivize, u)
        rows, inner, cols = rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
        a, b = _matrix(rng, rows, inner), _matrix(rng, inner, cols)
        assert L.mat(a) == _ref_mat(a)
        assert _outcome(L.mat_mul, a, b) == _outcome(_ref_mat_mul, a, b)
        for w in (_vector(rng, inner), _vector(rng, inner + 1)):
            assert _outcome(L.mat_vec, a, w) == _outcome(_ref_mat_vec, a, w)
        b = _matrix(rng, inner + 1, cols)
        assert _outcome(L.mat_mul, a, b) == _outcome(_ref_mat_mul, a, b)
        assert L.identity_matrix(n) == _ref_identity(n)


def test_eliminations_match_their_generator_definitions():
    from fanifolds import lattice as L

    rng = random.Random(20151)
    for _ in range(250):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        a = _matrix(rng, rows, cols)
        if rng.random() < 0.3 and rows:  # a dependent row
            k = rng.randint(-3, 3)
            a = a[:-1] + (tuple(k * x for x in a[0]),)
        ncols = rng.randint(0, cols)
        work, ref = [list(r) for r in a], [list(r) for r in a]
        assert L._echelon(work, ncols) == _ref_echelon(ref, ncols)
        assert work == ref
        assert row_hermite(a, cols) == _ref_row_hermite(a, cols)
        if rows:
            assert integer_kernel(a, rows, cols) == _ref_integer_kernel(a, rows, cols)
            snf = smith_normal_form(a)
            U, D, V = _ref_smith_normal_form(a)
            assert (snf.U, snf.D) == (U, D)
            assert snf.Uinv == invert_unimodular(U)
            assert mat_mul(mat_mul(U, D), V) == a
        n = rng.randint(1, 4)
        for m in (_unimodular(rng, n), _matrix(rng, n, n), _matrix(rng, n, n + 1)):
            assert _outcome(invert_unimodular, m) == _outcome(_ref_invert_unimodular, m)
