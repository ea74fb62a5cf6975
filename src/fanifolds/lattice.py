"""Exact integer lattice arithmetic: Smith normal form, quotients, kernels.

Everything works on plain Python ints (arbitrary precision), vectors are
tuples, matrices are tuples of row tuples.  A matrix M maps column vectors on
the right: (M @ v)[i] = sum_j M[i][j] * v[j].  Two exact routines do all the
elimination: the Smith normal form (torsion and quotients) and the integer
Hermite reduction ``_echelon`` (rank, kernels, unimodular tests and
inverses, canonical bases).  The Smith form tracks only the row transform U
and its inverse, through the row operations; its column transform V is read
by no caller, so it is not kept.  A quotient reads both maps off one Smith
form and inverts nothing.

The vector kernels (products, row operations, gcds) run no Python frame per
vector entry: a product, a row operation or an entrywise sum is one pass of
C-level builtins, such as ``sum(map(mul, u, v))`` or
``list(map(sub, row, map(mul, repeat(q), pivot)))``; scaling by one number is
one list comprehension, which beats ``map`` with ``repeat`` on short vectors.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, prod
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


# ---------------------------------------------------------------------------
# small matrix/vector helpers


def vec(xs: Iterable[int]) -> Vec:
    return tuple(map(int, xs))


def mat(rows: Iterable[Iterable[int]]) -> Mat:
    return tuple(map(vec, rows))


def identity_matrix(n: int) -> Mat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_mul(a: Mat, b: Mat) -> Mat:
    rows_a = len(a)
    if rows_a == 0:
        return ()
    inner = len(a[0])
    cols_b = len(b[0]) if b else 0
    if inner != len(b):
        raise ValueError(f"shape mismatch: {mat_shape(a)} @ {mat_shape(b)}")
    bt = list(zip(*b)) if b else []
    return tuple(tuple(sum(map(mul, ra, bc)) for bc in bt) for ra in a)


def mat_vec(m: Mat, v: Sequence[int]) -> Vec:
    if m and len(m[0]) != len(v):
        raise ValueError(f"shape mismatch: {mat_shape(m)} @ vec{len(v)}")
    return tuple(sum(map(mul, r, v)) for r in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(map(add, u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(map(sub, u, v))


def vec_scale(c: int, v: Sequence[int]) -> Vec:
    return tuple([c * a for a in v])


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return gcd(*v)


def primitivize(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = content(v)
    if g == 0:
        return vec(v)
    return tuple([a // g for a in v])


def matrix_rank(m: Mat) -> int:
    """Rank over Q: the pivot count of the integer Hermite reduction."""
    return _echelon([list(r) for r in m], len(m[0]) if m else 0)


def invert_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with determinant +-1.

    Hermite-reduces [M | I]: when M is unimodular the left block becomes I
    and the right block, the row transform, is M^-1.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError(f"matrix is not unimodular (shape {mat_shape(m)})")
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    d = _abs_det(work, n)
    if d != 1:
        raise ValueError(f"matrix is not unimodular (|det| = {d})")
    return tuple(tuple(r[n:]) for r in work)


def is_unimodular(m: Mat) -> bool:
    n = len(m)
    return all(len(r) == n for r in m) and _abs_det([list(r) for r in m], n) == 1


def _abs_det(work: list[list[int]], n: int) -> int:
    """|det| of the square matrix in the first n columns of ``work``, which
    is Hermite-reduced in place.  Row operations are unimodular, so it is
    the product of the n pivots, and 0 when one is missing."""
    if _echelon(work, n) < n:
        return 0
    return prod(work[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# lattice maps


class LatticeMap(NamedTuple):
    """Z-linear map given by an integer matrix (source rank = #columns)
    between lattices of the given ranks, each with its chosen basis.

    Built unchecked: ``lattice_map`` checks the ranks and the shape of maps
    given from outside, and ``compose`` builds from two valid maps."""

    matrix: Mat
    source_rank: int
    target_rank: int

    def __call__(self, v: Sequence[int]) -> Vec:
        if self.target_rank == 0:
            return ()
        return mat_vec(self.matrix, v)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        if other.target_rank != self.source_rank:
            raise ValueError("composition rank mismatch")
        if 0 in (self.target_rank, self.source_rank, other.source_rank):
            # the zero map, written out: an empty factor hides from
            # ``mat_mul`` how many columns the product has
            m = ((0,) * other.source_rank,) * self.target_rank
        else:
            m = mat_mul(self.matrix, other.matrix)
        return LatticeMap(m, other.source_rank, self.target_rank)

    def is_unimodular(self) -> bool:
        return self.source_rank == self.target_rank and is_unimodular(self.matrix)


def lattice_map(rows: Iterable[Iterable[int]], source_rank: int, target_rank: int) -> LatticeMap:
    m = mat(rows)
    if target_rank == 0:
        m = ()
    if source_rank < 0 or target_rank < 0:
        raise ValueError("negative rank")
    if len(m) != target_rank:
        raise ValueError("matrix rows != target rank")
    if m and len(m[0]) != source_rank:
        raise ValueError("matrix cols != source rank")
    return LatticeMap(m, source_rank, target_rank)


# ---------------------------------------------------------------------------
# Smith normal form


class SNFResult(NamedTuple):
    """Decomposition A = U @ D @ V with U, V unimodular and D diagonal.

    Carries U, its inverse ``Uinv`` and D, the parts callers read; V is not
    kept.  So ``Uinv @ A = D @ V``: row i of ``Uinv @ A`` is d_i times row i
    of V.  The diagonal entries are nonnegative and satisfy d1 | d2 | ... ;
    trailing entries may be zero.
    """

    U: Mat
    Uinv: Mat
    D: Mat

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(mat_shape(self.D))))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


class _SNFWork:
    """Mutable state for the SNF reduction, maintaining U^-1 @ A = D @ V for
    a V that is not kept.

    U is kept transposed, as ``Ut``, so its column operations are row
    operations too.  Each row operation E on D acts on U as U <- U @ E^-1
    and on ``Uinv`` as U^-1 <- E @ U^-1; column operations touch only D."""

    def __init__(self, a: Mat):
        self.m, self.n = mat_shape(a)
        eye = identity_matrix(self.m)
        self.D = [list(r) for r in a]
        self.Ut = [list(r) for r in eye]
        self.Uinv = [list(r) for r in eye]

    def swap_rows(self, i, j):
        if i == j:
            return
        self.D[i], self.D[j] = self.D[j], self.D[i]
        self.Ut[i], self.Ut[j] = self.Ut[j], self.Ut[i]
        self.Uinv[i], self.Uinv[j] = self.Uinv[j], self.Uinv[i]

    def add_row(self, i, j, q):
        """row i += q * row j."""
        if q == 0:
            return
        self.D[i] = list(map(add, self.D[i], map(mul, repeat(q), self.D[j])))
        self.Ut[j] = list(map(sub, self.Ut[j], map(mul, repeat(q), self.Ut[i])))
        self.Uinv[i] = list(map(add, self.Uinv[i], map(mul, repeat(q), self.Uinv[j])))

    def negate_row(self, i):
        self.D[i] = list(map(neg, self.D[i]))
        self.Ut[i] = list(map(neg, self.Ut[i]))
        self.Uinv[i] = list(map(neg, self.Uinv[i]))

    def swap_cols(self, i, j):
        if i == j:
            return
        for r in self.D:
            r[i], r[j] = r[j], r[i]

    def add_col(self, i, j, q):
        """col i += q * col j."""
        if q == 0:
            return
        for r in self.D:
            r[i] += q * r[j]

    def find_pivot(self, s):
        """Smallest-absolute-value nonzero entry of D[s:, s:], row-major ties."""
        best = None
        best_abs = 0
        for i in range(s, self.m):
            tail = list(map(abs, self.D[i][s:]))
            x = min(filter(None, tail), default=0)
            if x and (best is None or x < best_abs):
                best, best_abs = (i, s + tail.index(x)), x
                if x == 1:
                    return best
        return best

    def clear_at(self, s):
        """Diagonalize position s; returns False when the tail block is zero."""
        while True:
            piv = self.find_pivot(s)
            if piv is None:
                return False
            self.swap_rows(s, piv[0])
            self.swap_cols(s, piv[1])
            if self.D[s][s] < 0:
                self.negate_row(s)
            p = self.D[s][s]
            # Row elimination first, then column elimination (pinned order).
            for i in range(s + 1, self.m):
                self.add_row(i, s, -(self.D[i][s] // p))
            for j in range(s + 1, self.n):
                self.add_col(j, s, -(self.D[s][j] // p))
            if not any(r[s] for r in self.D[s + 1:]) and not any(self.D[s][s + 1:]):
                return True

    def clear_pair(self, s):
        """Re-diagonalize the 2x2 block at (s, s) after a chain-fix fold.

        Only rows/columns s and s+1 are touched; everything outside the block
        in those rows and columns is zero and stays zero.
        """
        t = s + 1
        while True:
            entries = [(i, j) for i in (s, t) for j in (s, t) if self.D[i][j] != 0]
            if not entries:
                return
            i, j = min(entries, key=lambda ij: (abs(self.D[ij[0]][ij[1]]), ij))
            self.swap_rows(s, i)
            self.swap_cols(s, j)
            if self.D[s][s] < 0:
                self.negate_row(s)
            p = self.D[s][s]
            self.add_row(t, s, -(self.D[t][s] // p))
            self.add_col(t, s, -(self.D[s][t] // p))
            if self.D[t][s] == 0 and self.D[s][t] == 0:
                return


def smith_normal_form(a: Mat | Iterable[Iterable[int]]) -> SNFResult:
    """Smith normal form A = U @ D @ V over Z, returned as U, U^-1 and D.

    The reduction repeatedly moves the smallest-absolute-value entry of the
    remaining block to the pivot position and eliminates its row and column
    (rows first); afterwards the diagonal is fixed up to satisfy the
    divisibility chain.  The pivoting rule makes the transforms reproducible.
    """
    a = mat(a)
    w = _SNFWork(a)
    r = 0
    for s in range(min(w.m, w.n)):
        if not w.clear_at(s):
            break
        r += 1
    # Enforce d1 | d2 | ...: a violating pair (ds, dt) is fixed by folding
    # column s+1 into column s and re-eliminating the 2x2 block, which
    # replaces ds by gcd(ds, dt).  Earlier entries still divide the new gcd,
    # later ones may need a rescan, so restart; ds strictly drops each fix.
    while True:
        for i in range(r):
            if w.D[i][i] < 0:
                w.negate_row(i)
        bad = next((s for s in range(r - 1) if w.D[s + 1][s + 1] % w.D[s][s] != 0), None)
        if bad is None:
            break
        w.add_col(bad, bad + 1, 1)
        w.clear_pair(bad)
    # U^-1 @ [A | U] = [D @ V | I] for some V: row i of U^-1 @ A is d_i
    # times an integer row, and zero past the rank.
    cols = [*zip(*a), *w.Ut]  # the columns of A, then those of U
    for i, ui in enumerate(w.Uinv):
        row = [sum(map(mul, ui, c)) for c in cols]
        head, tail = row[: w.n], row[w.n :]
        assert tail[i] == 1 and sum(map(abs, tail)) == 1, "SNF inverse failed"
        assert (
            gcd(w.D[i][i], *head) == w.D[i][i] if i < r else not any(head)
        ), "SNF reconstruction failed"
    return SNFResult(transpose(w.Ut), tuple(map(tuple, w.Uinv)), tuple(map(tuple, w.D)))


# ---------------------------------------------------------------------------
# quotients


class QuotientResult(NamedTuple):
    """M / span(vectors): free part with projection, plus torsion invariants.

    ``projection`` maps M onto the free quotient Z^free_rank (kernel = the
    saturation of the span); ``section`` is a right inverse of it;
    ``torsion`` lists the invariant factors > 1 of M / Zspan(vectors).
    """

    free_rank: int
    torsion: tuple[int, ...]
    projection: LatticeMap
    section: LatticeMap


def quotient_with_torsion(ambient_rank: int, vectors: Sequence[Sequence[int]]) -> QuotientResult:
    """Quotient of Z^ambient_rank by the integer span of the given vectors.

    With A (columns = the vectors) = U @ D @ V of rank r, the projection is
    rows r.. of U^-1 and the section columns r.. of U, both read off one
    Smith form; they are valid maps by construction, so built unchecked.
    """
    for v in vectors:
        if len(v) != ambient_rank:
            raise ValueError("vector length != ambient rank")
    n = ambient_rank
    # n x k, columns = vectors; n x 0 when there are none
    snf = smith_normal_form([[v[i] for v in vectors] for i in range(n)])
    factors = snf.invariant_factors
    rank = len(factors)
    free = n - rank
    sec = transpose(transpose(snf.U)[rank:]) if free else ((),) * n
    return QuotientResult(
        free_rank=free,
        torsion=tuple(d for d in factors if d > 1),
        projection=LatticeMap(snf.Uinv[rank:], n, free),
        section=LatticeMap(sec, free, n),
    )


def integer_kernel(a: Mat, rows: int, cols: int) -> tuple[Vec, ...]:
    """Canonical (row-style Hermite) basis of {x in Z^cols : A x = 0}.

    Integer row reduction of [A^T | I] that tracks its transform (Cohen, "A
    Course in Computational Algebraic Number Theory", section 2.4).  The
    unimodular row operations pivot only on the A^T columns, so the identity
    part of the rows whose A^T part ends up zero is a saturated kernel basis;
    a second reduction of those rows makes it the canonical one that
    ``row_hermite`` returns for the same lattice.
    """
    columns = zip(*a) if rows else repeat(())
    work = [[*col, *e] for col, e in zip(columns, identity_matrix(cols))]
    kernel = [row[rows:] for row in work[_echelon(work, rows):]]
    return tuple(map(tuple, kernel[: _echelon(kernel, cols)]))


def row_hermite(vectors: Sequence[Sequence[int]], rank: int) -> Mat:
    """Canonical (row-style Hermite) basis of the lattice spanned by the rows.

    The result depends only on the spanned sublattice, so it doubles as an
    equality key for sublattices of Z^rank.
    """
    work = [list(vec(v)) for v in vectors]
    for v in work:
        if len(v) != rank:
            raise ValueError("vector length does not match rank")
    return tuple(map(tuple, work[: _echelon(work, rank)]))


def _echelon(work: list[list[int]], ncols: int) -> int:
    """Hermite-reduce the rows of ``work`` in place on their first ncols entries.

    Only unimodular integer row operations are used; entries past ncols are
    carried along.  Returns the number r of pivot rows: afterwards work[:r]
    is in reduced row-style Hermite form on the first ncols entries and
    work[r:] is zero there.

    The pivot of column c is the row with the smallest nonzero |entry|, the
    first such row on a tie.  Each elimination pass leaves remainders
    smaller than the pivot, so the pass itself finds the next pivot.
    """
    r = 0
    nrows = len(work)
    for c in range(ncols):
        if r == nrows:
            break
        i0, best = -1, 0
        for i in range(r, nrows):
            x = work[i][c]
            if x:
                if x < 0:
                    x = -x
                if i0 < 0 or x < best:
                    i0, best = i, x
        if i0 < 0:
            continue
        while i0 >= 0:
            work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = list(map(neg, work[r]))
            pivot = work[r]
            p = pivot[c]
            i0 = -1
            for i in range(r + 1, nrows):
                if work[i][c]:
                    row = list(map(sub, work[i], map(mul, repeat(work[i][c] // p), pivot)))
                    work[i] = row
                    x = row[c]
                    if x and (i0 < 0 or x < best):
                        i0, best = i, x
        for i in range(r):
            q = work[i][c] // p
            if q:
                work[i] = list(map(sub, work[i], map(mul, repeat(q), pivot)))
        r += 1
    return r
