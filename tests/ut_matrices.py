"""Independent model of ut(n): upper unitriangular integer matrices.

Generator t of `unitriangular(n)` is the transvection I + E_pos with pos
the t-th entry of `ut_positions(n)`.  A product by a transvection power is
one column operation; everything else is plain matrix arithmetic.
"""


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ut_positions(n):
    # strictly-upper positions ordered by diagonal, then row
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def transvection_power(n, pos, e):
    t = mat_eye(n)
    t[pos[0]][pos[1]] = e
    return t


def times_transvection(m, pos, e):
    """m (I + e E_pos), in place: column c gains e times column r."""
    r, c = pos
    for row in m:
        row[c] += e * row[r]
    return m


def word_to_matrix(n, word):
    """Product of the transvection powers of a word of (generator index, exponent) pairs."""
    positions = ut_positions(n)
    m = mat_eye(n)
    for idx, e in word:
        times_transvection(m, positions[idx], e)
    return m


def coords_to_matrix(n, coords):
    """Ordered product of transvection powers along the standard basis."""
    return word_to_matrix(n, enumerate(coords))


def ut_inverse(a):
    """Inverse of a unitriangular matrix: I - N + N^2 - ... with N = a - I."""
    n = len(a)
    nil = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = mat_eye(n)
    term = mat_eye(n)
    sign = 1
    for _ in range(1, n):
        term = mat_mul(term, nil)
        sign = -sign
        for i in range(n):
            for j in range(n):
                out[i][j] += sign * term[i][j]
    return out


def ut_peel(mat):
    """Coordinates of a unitriangular matrix as an ordered product of transvections."""
    n = len(mat)
    exps = []
    cur = [row[:] for row in mat]
    for (r, c) in ut_positions(n):
        e = cur[r][c]
        exps.append(e)
        # the left product by I - e E_rc: row r loses e times row c
        cur[r] = [x - e * y for x, y in zip(cur[r], cur[c])]
    assert cur == mat_eye(n), "peeling did not reach the identity"
    return tuple(exps)


def matrix_ut_rules(n):
    """Commutator table of ut(n) extracted from matrix arithmetic."""
    mats = [transvection_power(n, pos, 1) for pos in ut_positions(n)]
    rules = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            # [g_b, g_a] = g_b^-1 g_a^-1 g_b g_a
            prod = mat_mul(
                mat_mul(ut_inverse(mats[b]), ut_inverse(mats[a])), mat_mul(mats[b], mats[a])
            )
            vec = ut_peel(prod)
            if any(vec):
                rules[(a, b)] = vec
    return rules


def mat_pow(a, e):
    if e < 0:
        a, e = ut_inverse(a), -e
    out = mat_eye(len(a))
    for _ in range(e):
        out = mat_mul(out, a)
    return out
