import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfrskit.intlinalg import (
    INFINITE,
    AbelianGroupStructure,
    AbelianQuotient,
    IntMatrix,
    abelian_group_from_relations,
    det,
    finite_order_semisimple_check,
    hnf,
    hnf_basis,
    is_unimodular,
    is_unipotent,
    lattice_index,
    lattice_member,
    left_kernel,
    matrix_from_text,
    matrix_to_text,
    saturate,
    snf,
    xgcd,
    _gcd_step,
)

M = IntMatrix.from_rows


def random_matrix(rng, max_dim=5, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return M([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


# ---------------------------------------------------------------- xgcd


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert x * a + y * b == g


# ---------------------------------------------------------------- hnf


def test_hnf_already_diagonal():
    h, u = hnf(M([[2, 0], [0, 3]]))
    assert h == M([[2, 0], [0, 3]])
    assert u == IntMatrix.identity(2)


def test_hnf_row_swap():
    h, _ = hnf(M([[0, 1], [1, 0]]))
    assert h == IntMatrix.identity(2)


def test_hnf_reduction_example():
    a = M([[2, 4], [6, 8]])
    h, u = hnf(a)
    assert h == M([[2, 0], [0, 4]])
    assert u @ a == h
    assert abs(det(u)) == 1


def _check_hnf_shape(h):
    # positive pivots, echelon staircase, entries above pivots reduced
    last = -1
    for i in range(h.rows):
        nz = [j for j in range(h.cols) if h.entry(i, j) != 0]
        if not nz:
            for k in range(i, h.rows):
                assert not any(h.row(k))
            break
        j = nz[0]
        assert j > last
        last = j
        p = h.entry(i, j)
        assert p > 0
        for k in range(i):
            assert 0 <= h.entry(k, j) < p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_hnf_random(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, max_dim=4, bound=7)
    h, u = hnf(a)
    assert u @ a == h
    assert abs(det(u)) == 1
    _check_hnf_shape(h)


def reference_hnf(a):
    """Column-by-column elimination: the Hermite form of the earlier
    implementation, kept as the reference for the row-insertion `hnf`.
    Each row carries its row of the transform after its row of a."""
    m, n = a.rows, a.cols
    work = [list(a.row(i)) + [int(k == i) for k in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if work[i][j] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, m):
            if work[i][j]:
                work[r], work[i] = _gcd_step(work[r], work[i], j)
        if work[r][j] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][j]
        for i in range(r):
            q = work[i][j] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    if m == 0:
        return a, IntMatrix.identity(0)
    return M([w[:n] for w in work]), M([w[n:] for w in work])


def reference_hnf_basis(a):
    rows = [r for r in reference_hnf(a)[0].to_rows() if any(r)]
    return M(rows) if rows else IntMatrix(0, a.cols, ())


def reference_left_kernel(a):
    h, u = reference_hnf(a)
    rows = [list(u.row(i)) for i in range(a.rows) if not any(h.row(i))]
    return reference_hnf_basis(M(rows)) if rows else IntMatrix(0, a.rows, ())


def reference_saturate(a):
    return reference_left_kernel(reference_left_kernel(a.transpose()).transpose())


@st.composite
def hnf_inputs(draw):
    """Matrices up to 8 x 8 with entries in [-20, 20]: wide, tall and
    square, with zero rows, zero columns, duplicate rows and rows that are
    combinations of others (rank-deficient)."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8))
    entries = st.integers(-20, 20)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.integers(-3, 3))
        rows[i] = draw(st.sampled_from([
            [0] * n,
            list(rows[k]),
            [x + c * y for x, y in zip(rows[i], rows[k])],
        ]))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    return IntMatrix(m, n, tuple(x for r in rows for x in r))


@settings(max_examples=400, deadline=None)
@given(hnf_inputs())
def test_hnf_matches_column_elimination_reference(a):
    h, u = hnf(a)
    ref_h, ref_u = reference_hnf(a)
    assert h == ref_h
    rank = sum(1 for i in range(h.rows) if any(h.row(i)))
    if rank == a.rows:
        assert u == ref_u
    else:
        assert u @ a == h
        assert abs(det(u)) == 1
    assert hnf_basis(a) == reference_hnf_basis(a)
    assert left_kernel(a) == reference_left_kernel(a)
    assert saturate(a) == reference_saturate(a)


def test_hnf_matches_sympy_on_nonsingular_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        if det(M(rows)) == 0:
            continue
        # sympy's form is column-style with pivots ending the columns:
        # transposed, it is the row Hermite form of a with the order of
        # rows and of columns reversed.
        w = hermite_normal_form(sympy.Matrix(rows).T).T.tolist()
        h, _ = hnf(M([r[::-1] for r in rows]))
        assert h.to_rows() == [[int(x) for x in r[::-1]] for r in w[::-1]]


# ---------------------------------------------------------------- snf


def test_snf_zero_matrix():
    dec = snf(IntMatrix.zeros(2, 3))
    assert dec.d == IntMatrix.zeros(2, 3)


def test_snf_identity():
    dec = snf(IntMatrix.identity(3))
    assert dec.d == IntMatrix.identity(3)


def test_snf_example_divisors():
    a = M([[2, 4], [6, 8]])
    dec = snf(a)
    assert dec.diagonal() == [2, 4]
    # d1 * d2 = |det| = 8
    assert abs(det(a)) == 8


def _check_snf(a, dec):
    assert dec.u @ a @ dec.v == dec.d
    assert is_unimodular(dec.u)
    assert is_unimodular(dec.v)
    diag = dec.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert dec.d.entry(i, j) == 0
    for i, x in enumerate(diag):
        assert x >= 0
        if i + 1 < len(diag) and x != 0:
            assert diag[i + 1] % x == 0
        if x == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_snf_random(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, max_dim=4, bound=7)
    _check_snf(a, snf(a))


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    rng = random.Random(21)
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            # a zero row, or a row that is a combination of two others
            i, k, l = (rng.randrange(m) for _ in range(3))
            c = rng.randint(-3, 3)
            rows[i] = rng.choice([[0] * n, [x + c * y for x, y in zip(rows[k], rows[l])]])
        d = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
        assert snf(M(rows)).diagonal() == [abs(int(d[i, i])) for i in range(min(m, n))]


def reference_snf(a):
    """The Smith form with its D|U and V loops written out twice, as the
    earlier implementation had them (`swap_cols`, `gcd_col_op`), kept as
    the reference for `snf`'s one column loop over the D|U and V rows."""
    m, n = a.rows, a.cols
    d = [list(a.row(i)) + [int(k == i) for k in range(m)] for i in range(m)]
    v = IntMatrix.identity(n).to_rows()

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def gcd_col_op(t, j):
        a0, b0 = d[t][t], d[t][j]
        if b0 == 0:
            return
        if a0 != 0 and b0 % a0 == 0:
            q = b0 // a0
            for row in d:
                row[j] -= q * row[t]
            for row in v:
                row[j] -= q * row[t]
            return
        g, x, y = xgcd(a0, b0)
        ag, bg = a0 // g, b0 // g
        for row in d:
            ct, cj = row[t], row[j]
            row[t] = x * ct + y * cj
            row[j] = -bg * ct + ag * cj
        for row in v:
            ct, cj = row[t], row[j]
            row[t] = x * ct + y * cj
            row[j] = -bg * ct + ag * cj

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    d[t], d[i] = _gcd_step(d[t], d[i], t)
            for j in range(t + 1, n):
                gcd_col_op(t, j)
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                continue
            p = d[t][t]
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % p), None
            )
            if bad is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[bad[0]])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return (
        IntMatrix(m, m, tuple(x for r in d for x in r[n:])),
        IntMatrix(m, n, tuple(x for r in d for x in r[:n])),
        IntMatrix(n, n, tuple(x for r in v for x in r)),
    )


@settings(max_examples=300, deadline=None)
@given(hnf_inputs())
def test_snf_matches_written_out_reference(a):
    dec = snf(a)
    assert (dec.u, dec.d, dec.v) == reference_snf(a)


def _transform_case(seed):
    """A fixed matrix up to 10 x 10 with entries in [-50, 50]; every third
    one has a last row that is a combination of its first two."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 10), rng.randint(1, 10)
    rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
    if seed % 3 == 0:
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    return M(rows)


def _transform_digest(*mats):
    # hex, as the benchmark renders them: transform entries can pass the
    # 4300-digit limit of int -> str
    text = "|".join(f"{a.rows}x{a.cols}:" + ",".join(format(x, "x") for x in a.entries) for a in mats)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (seed, digest of snf's (U, D, V), digest of hnf's (H, U)); U, V and
# hnf's U on a rank-deficient input are not unique, so these pin the
# particular transforms the elimination order gives
TRANSFORM_DIGESTS = [
    (0, "cebe1828b2a67f86", "62d658ab0e131104"),  # 8 x 7, rank-deficient
    (1, "c0936d770055aa20", "6349a719a3dc4809"),  # 4 x 10
    (2, "8d48224ae6d247d0", "25d5f0f8f67c01a0"),  # 2 x 2
    (3, "ccb3315b9aa946fc", "5ffe05e0426cfdc9"),  # 5 x 10, rank-deficient
    (4, "1e41f59a5ca136b9", "157f44ccb5bfd674"),  # 5 x 5
    (5, "30e00bad87791e45", "7bc3d10adb5ae52e"),  # 6 x 6
    (6, "4d59d386387cb4d6", "2e7a8e7e8fa593d5"),  # 3 x 8, rank-deficient
    (7, "779769a57c6672b3", "8634884316098449"),  # 7 x 3
    (8, "541a9d893e24eed3", "e40c16d45560af9f"),  # 5 x 6
    (9, "4171a9f7a0859932", "50d71e5949b5e1d7"),  # 9 x 10, rank-deficient
    (10, "3760047ffe427d78", "b12a63ef7cb877d6"),  # 2 x 7
    (11, "de191acd2ab26b63", "299c587ad26ae272"),  # 9 x 9
]


@pytest.mark.parametrize("seed, snf_digest, hnf_digest", TRANSFORM_DIGESTS)
def test_transform_bytes_are_pinned(seed, snf_digest, hnf_digest):
    a = _transform_case(seed)
    dec = snf(a)
    assert _transform_digest(dec.u, dec.d, dec.v) == snf_digest
    assert _transform_digest(*hnf(a)) == hnf_digest


# ------------------------------------------------ abelian group structure


def test_structure_validation():
    with pytest.raises(ValueError):
        AbelianGroupStructure(free_rank=0, invariant_factors=(2, 3))
    with pytest.raises(ValueError):
        AbelianGroupStructure(free_rank=0, invariant_factors=(1,))


def test_abelian_no_relations():
    s = abelian_group_from_relations(IntMatrix(0, 2, ()))
    assert s.free_rank == 2 and s.invariant_factors == ()


def test_abelian_heisenberg_style():
    s = abelian_group_from_relations(M([[0, 0, 1]]))
    assert s.free_rank == 2 and s.invariant_factors == ()


def test_abelian_torsion():
    s = abelian_group_from_relations(M([[0, 0, 2]]))
    assert s.free_rank == 2 and s.invariant_factors == (2,)
    assert s.describe() == "Z^2 x Z/2"


def _quotient_order_counts(relations, n):
    """Brute-force oracle: order statistics of the torsion part of Z^n / L.

    Enumerates the finite group sat(L)/L by BFS over coset representatives
    and counts, for each divisor m of its cardinality, the number of
    elements killed by m.  Isomorphism type is determined by these counts.
    """
    sat = saturate(relations)
    lat = hnf_basis(relations)
    if sat.rows == 0:
        return {1: 1}
    # express torsion part as Z^r / (rows of lat in sat-coordinates)
    # solve lat = C @ sat over the integers by back-substitution per row
    pivots = []
    for i in range(sat.rows):
        j = next(k for k in range(sat.cols) if sat.entry(i, k) != 0)
        pivots.append(j)
    coords = []
    for i in range(lat.rows):
        w = list(lat.row(i))
        c = [0] * sat.rows
        for r, j in enumerate(pivots):
            q, rem = divmod(w[j], sat.entry(r, j))
            assert rem == 0
            c[r] = q
            w = [x - q * y for x, y in zip(w, sat.row(r))]
        assert not any(w)
        coords.append(c)
    inner = M(coords) if coords else IntMatrix(0, sat.rows, ())
    size = lattice_index(inner)
    assert size is not INFINITE
    # BFS cosets of inner lattice in Z^r
    r = sat.rows
    seen = set()
    frontier = [(0,) * r]
    seen.add((0,) * r)

    def canon(v):
        # reduce mod the lattice using membership tests over a small box
        # (representative = lexicographically smallest reachable by subtracting
        # basis rows greedily via HNF reduction)
        h = hnf_basis(inner)
        w = list(v)
        for i in range(h.rows):
            j = next(k for k in range(h.cols) if h.entry(i, k) != 0)
            q = w[j] // h.entry(i, j)
            w = [x - q * y for x, y in zip(w, h.row(i))]
        return tuple(w)

    frontier = [canon((0,) * r)]
    seen = {frontier[0]}
    units = [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    while frontier:
        cur = frontier.pop()
        for e in units:
            for s in (1, -1):
                nxt = canon(tuple(x + s * y for x, y in zip(cur, e)))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert len(seen) == size
    counts = {}
    for m in range(1, int(size) + 1):
        if size % m == 0:
            counts[m] = sum(1 for v in seen if canon(tuple(m * x for x in v)) == canon((0,) * r))
    return counts


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_abelian_structure_matches_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(0, 3)
    rel = M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]) if m else IntMatrix(0, n, ())
    s = abelian_group_from_relations(rel)
    counts = _quotient_order_counts(rel, n)
    for m_, observed in counts.items():
        predicted = 1
        for d in s.invariant_factors:
            predicted *= math.gcd(d, m_)
        assert observed == predicted


def test_quotient_projection():
    q = AbelianQuotient(M([[0, 0, 2]]))
    free, tors = q.project((0, 0, 1))
    assert all(x == 0 for x in free)
    assert tors and q.image_order((0, 0, 1)) == 2
    assert q.is_torsion((0, 0, 1))
    assert not q.is_torsion((1, 0, 0))


# ---------------------------------------------------------------- lattices


def test_lattice_member_examples():
    b = M([[2, 0], [0, 2]])
    assert lattice_member(b, (2, 4))
    assert not lattice_member(b, (1, 0))
    b2 = M([[2, 4], [6, 8]])
    assert lattice_member(b2, (4, 8))
    # oracle: search small integer combinations
    found = any(
        (x * 2 + y * 6, x * 4 + y * 8) == (4, 8) for x in range(-9, 10) for y in range(-9, 10)
    )
    assert found


def hnf_then_sift(basis, vec):
    """Reference membership: Hermite form first, then clear the columns
    of vec from left to right."""
    h = hnf_basis(basis)
    pivot_row = {next(j for j, x in enumerate(h.row(i)) if x): h.row(i) for i in range(h.rows)}
    w = list(vec)
    for j in range(len(w)):
        if w[j]:
            row = pivot_row.get(j)
            if row is None or w[j] % row[j]:
                return False
            q = w[j] // row[j]
            w = [x - q * y for x, y in zip(w, row)]
    return True


@st.composite
def messy_lattices(draw):
    """(rows, basis, vec, combined): basis spans the lattice of rows but is
    shuffled, has negated (often pivot) rows, zero, duplicate and dependent
    rows; vec is a combination of rows (combined) or one nudged from it."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    combined = draw(st.booleans())
    if not combined:
        vec[draw(st.integers(0, n - 1))] += draw(st.integers(-2, 2))
    start = rows
    if rows and draw(st.booleans()):
        start = hnf_basis(M(rows)).to_rows()
    messy = [[-x for x in r] if draw(st.booleans()) else r for r in start]
    messy += [[0] * n] * draw(st.integers(0, 2))
    if rows:
        picks = st.sampled_from(rows)
        messy += draw(st.lists(picks, max_size=2))
        messy += [[x + y for x, y in zip(draw(picks), draw(picks))] for _ in range(draw(st.integers(0, 2)))]
    messy = draw(st.permutations(messy))
    return rows, IntMatrix(len(messy), n, tuple(x for r in messy for x in r)), tuple(vec), combined


@settings(max_examples=300, deadline=None)
@given(messy_lattices())
def test_lattice_member_matches_hnf_then_sift(case):
    rows, basis, vec, combined = case
    member = lattice_member(basis, vec)
    assert member == hnf_then_sift(basis, vec)
    if rows:
        assert member == hnf_then_sift(M(rows), vec)
    if combined:
        assert member


def test_lattice_member_on_echelon_bases_with_negative_pivots():
    b = M([[-2, 1, 0], [0, 0, -3]])
    assert lattice_member(b, (4, -2, 3))
    assert not lattice_member(b, (2, 0, 0))
    assert not lattice_member(b, (0, 0, 2))
    assert not lattice_member(M([[0, 2], [1, 0]]), (0, 1))


def test_lattice_member_refuses_non_integral_entries():
    b = M([[1, 0], [0, 2]])
    assert not lattice_member(b, [2.5, 0])
    assert not lattice_member(b, [Fraction(1, 2), 0])
    assert not lattice_member(b, [0, Fraction(5, 2)])
    assert not lattice_member(b, [0, 0.5])
    # integral values of other types answer as their ints do
    assert lattice_member(b, [Fraction(3), 4])
    assert lattice_member(b, [3, 4]) and not lattice_member(b, [3, 3])


def test_lattice_member_dimension_mismatch():
    with pytest.raises(ValueError):
        lattice_member(M([[1, 0]]), (1, 2, 3))


@st.composite
def echelon_bases(draw):
    """Row echelon bases (strictly increasing pivot columns, no zero rows)
    with pivots of either sign and unreduced entries above them."""
    n = draw(st.integers(1, 5))
    cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    rows = []
    for j in cols:
        pivot = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
        tail = draw(st.lists(st.integers(-9, 9), min_size=n - j - 1, max_size=n - j - 1))
        rows.append([0] * j + [pivot] + tail)
    return IntMatrix(len(rows), n, tuple(x for r in rows for x in r))


@settings(max_examples=200, deadline=None)
@given(echelon_bases())
def test_lattice_index_on_echelon_bases_matches_hermite_basis(b):
    h = hnf_basis(b)
    expected = INFINITE if h.rows < b.cols else math.prod(h.entry(i, i) for i in range(h.rows))
    assert lattice_index(b) == expected


def test_lattice_index_examples():
    assert lattice_index(IntMatrix.identity(3)) == 1
    assert lattice_index(M([[2, 0], [0, 2]])) == 4
    assert lattice_index(M([[2, 4], [6, 8]])) == 8
    assert lattice_index(M([[1, 0, 0], [0, 1, 0]])) is INFINITE


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_lattice_index_unimodular_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    b = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    rows = b.to_rows()
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    assert lattice_index(M(rows)) == lattice_index(b)


def test_saturate():
    assert saturate(M([[2, 0], [0, 2]])) == IntMatrix.identity(2)
    assert saturate(M([[2, 4]])) == M([[1, 2]])
    s = saturate(M([[0, 0, 2]]))
    assert s == M([[0, 0, 1]])


def test_saturate_single_row_matches_reference():
    """One-row inputs against the two-kernel reference, including negative
    leading entries, a single nonzero entry, a common factor and the zero
    row."""
    rng = random.Random(11)
    cases = [[-4, 6, 0], [0, 0, -7], [0, 12, -18, 30], [0, 0, 0], [5], [-1, 0]]
    for _ in range(200):
        n = rng.randint(1, 6)
        g = rng.choice([1, 2, 3, 6])
        cases.append([g * rng.randint(-5, 5) * rng.choice([0, 1, 1]) for _ in range(n)])
    for row in cases:
        a = M([row])
        assert saturate(a) == reference_saturate(a), row
    assert saturate(M([[0, -6, 4]])) == M([[0, 3, -2]])
    assert saturate(M([[0, 0]])) == IntMatrix(0, 2, ())


LATTICE_CASES = [
    M([[2, 1, 0], [0, 3, 1], [0, 0, 4]]),  # Hermite
    M([[-2, 1, 0], [0, 0, -3]]),  # echelon, negative pivots, rank deficient
    M([[1, 0, 0], [0, 2, 0]]),  # rank deficient: the last column is never a pivot
    M([[0, 2, 1], [1, 0, 0], [1, 2, 3]]),  # not echelon: goes through hnf_basis
    M([[0, 0, 5], [2, 0, 1]]),  # not echelon, pivot columns out of order
    IntMatrix(0, 3, ()),
]


def test_echelon_cache_leaves_value_semantics_alone():
    for a in LATTICE_CASES:
        for v in itertools.product(range(-2, 3), repeat=3):
            lattice_member(a, v)
        lattice_index(a)
        fresh = IntMatrix(a.rows, a.cols, tuple(a.entries))
        assert a == fresh and fresh == a
        assert hash(a) == hash(fresh)
        assert repr(a) == repr(fresh)
        assert dataclasses.replace(a) == fresh
        assert dataclasses.replace(a, entries=(0,) * len(a.entries)) == IntMatrix.zeros(a.rows, a.cols)
        back = pickle.loads(pickle.dumps(a))
        assert back == fresh and hash(back) == hash(fresh)
        assert dataclasses.astuple(a) == dataclasses.astuple(fresh)


def test_repeated_membership_agrees_with_a_fresh_copy():
    for a in LATTICE_CASES:
        for _ in range(2):
            for v in itertools.product(range(-3, 4), repeat=3):
                fresh = IntMatrix(a.rows, a.cols, tuple(a.entries))
                assert lattice_member(a, v) == lattice_member(fresh, v) == hnf_then_sift(a, v)
            assert lattice_index(a) == lattice_index(IntMatrix(a.rows, a.cols, tuple(a.entries)))
    b = LATTICE_CASES[2]
    assert lattice_member(b, (3, 4, 0)) and not lattice_member(b, (3, 4, 1))
    c = LATTICE_CASES[4]
    assert lattice_member(c, (2, 0, 6)) and not lattice_member(c, (0, 0, 1))
    assert lattice_index(c) is INFINITE and lattice_index(LATTICE_CASES[3]) == 4


def test_left_kernel():
    k = left_kernel(M([[1, 0], [2, 0], [0, 1]]))
    assert k.rows == 1
    assert list(k.row(0))[0:2] != [0, 0]
    assert k @ M([[1, 0], [2, 0], [0, 1]]) == IntMatrix.zeros(1, 2)


# ----------------------------------------------------------- unipotence


def test_is_unipotent_examples():
    assert is_unipotent(IntMatrix.identity(3))
    assert is_unipotent(M([[1, 1], [0, 1]]))
    rot = M([[0, -1], [1, 0]])
    assert not is_unipotent(rot)
    # (A - I)^2 = [[0, 2], [-2, 0]] != 0
    nil = M([[-1, -1], [1, -1]])
    sq = nil @ nil
    assert sq == M([[0, 2], [-2, 0]])


def test_is_unipotent_requires_square():
    with pytest.raises(ValueError):
        is_unipotent(M([[1, 0, 0], [0, 1, 0]]))


def test_finite_order_examples():
    assert finite_order_semisimple_check(IntMatrix.identity(2)) == (
        finite_order_semisimple_check(IntMatrix.identity(2))
    )
    r = finite_order_semisimple_check(IntMatrix.identity(2))
    assert r.order == 1 and r.unipotent
    r = finite_order_semisimple_check(M([[-1, 0], [0, -1]]))
    assert r.order == 2 and not r.unipotent
    r = finite_order_semisimple_check(M([[0, -1], [1, -1]]))
    assert r.order == 3 and not r.unipotent


def test_finite_order_rejects_singular():
    with pytest.raises(ValueError):
        finite_order_semisimple_check(M([[2, 0], [0, 1]]))


def test_infinite_order_reports_none():
    r = finite_order_semisimple_check(M([[1, 1], [0, 1]]))
    assert r.order is None and r.unipotent


def reference_order(a):
    """Order of a by stepping through a, a^2, ... up to the largest order
    the dimension allows (12 for n <= 4), None when no power is I."""
    n = a.rows

    def totient(m):
        return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))

    bound = 12 if n <= 4 else math.lcm(*(m for m in range(1, 3 * n * n + 2) if totient(m) <= n))
    ident = IntMatrix.identity(n)
    power = a
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = power @ a
    return None


def upper_unitriangular_inverse(rows):
    n = len(rows)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            inv[i] = [x - rows[i][j] * y for x, y in zip(inv[i], inv[j])]
    return inv


def test_finite_order_matches_power_stepping():
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        # a signed permutation matrix conjugated by c = U^T U, U unitriangular
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        p = M([[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)])
        upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
        u, u_inv = M(upper), M(upper_unitriangular_inverse(upper))
        c, c_inv = u.transpose() @ u, u_inv @ u_inv.transpose()
        assert c @ c_inv == IntMatrix.identity(n)
        cases.append(c @ p @ c_inv)
    for n in range(2, 7):
        # U^T U with 3 on U's superdiagonal: symmetric positive definite, not I
        u = M([[int(i == j) + 3 * (j == i + 1) for j in range(n)] for i in range(n)])
        cases.append(u.transpose() @ u)
    cases += [M([[1, 1], [0, 1]]), M([[2, 1], [1, 1]]), M([[0, 1, 0], [0, 0, 1], [1, 1, 0]])]
    orders = [finite_order_semisimple_check(a).order for a in cases]
    assert orders == [reference_order(a) for a in cases]
    assert None in orders and max(o for o in orders if o) >= 6


# ------------------------------------------------------------- plumbing


def test_serialization_roundtrip():
    a = M([[1, -2, 3], [0, 5, -6]])
    assert matrix_from_text(matrix_to_text(a)) == a


def test_det_against_fraction_elimination():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        # oracle: Gaussian elimination over Fractions
        m = [[Fraction(x) for x in row] for row in a.to_rows()]
        d = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                d = Fraction(0)
                break
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                d = -d
            d *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        assert det(a) == d
