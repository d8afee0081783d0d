"""Correctness oracles that share no code with rfrskit.

Every check takes plain Python data (lists of ints, parsed JSON) and
returns None when the answer is right, or a one-line reason when it is
wrong.  The benchmark runs them outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, isqrt


# ------------------------------------------------------------ linear algebra


def matmul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


# Mersenne prime exponents.  Elimination runs modulo the first prime above
# twice the product of the row norms; that product bounds every minor
# (Hadamard), so rank and determinant modulo the prime are exact.
MERSENNE = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
            11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839)


def eliminate(rows):
    """Exact (rank, determinant) of an integer matrix by modular Gaussian
    elimination; the determinant is only meaningful for square input."""
    bound = 1
    for row in rows:
        bound *= isqrt(sum(x * x for x in row)) + 1
    p = next(q for q in ((1 << e) - 1 for e in MERSENNE) if q > 2 * bound)
    m = [[x % p for x in row] for row in rows]
    rank, det = 0, 1
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][j] % p
        inv = pow(m[rank][j], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank, (det - p if det > p // 2 else det)


def modular_det(rows) -> int:
    return eliminate(rows)[1]


def is_hermite(rows) -> bool:
    """Row echelon, positive pivots, entries above a pivot in [0, pivot),
    zero rows at the bottom."""
    last_pivot = -1
    seen_zero = False
    for i, row in enumerate(rows):
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            seen_zero = True
            continue
        if seen_zero or j <= last_pivot or row[j] <= 0:
            return False
        if any(not 0 <= rows[t][j] < row[j] for t in range(i)):
            return False
        last_pivot = j
    return True


def _unimodular(mats, a, diagonal_product):
    """|det| = 1 for every transform.  For square nonsingular A the result
    has det = det(transforms) * det(A), so comparing |det| of the result,
    a product of its diagonal, with |det A| settles all transforms at once
    without eliminating their large entries."""
    if len(a) == len(a[0]):
        det_a = abs(modular_det(a))
        if det_a:
            return diagonal_product == det_a
    return all(abs(modular_det(m)) == 1 for m in mats)


def _diagonal_product(m) -> int:
    prod = 1
    for i in range(min(len(m), len(m[0]))):
        prod *= m[i][i]
    return abs(prod)


def check_hnf(a, h, u):
    if matmul(u, a) != h:
        return "H != U*A"
    if not is_hermite(h):
        return "H is not in Hermite form"
    if not _unimodular([u], a, _diagonal_product(h)):
        return "U is not unimodular"
    return None


def check_snf(a, u, d, v):
    if matmul(matmul(u, a), v) != d:
        return "U*A*V != D"
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    if any(d[i][j] for i in range(len(d)) for j in range(len(d[0])) if i != j):
        return "D is not diagonal"
    nonzero = [x for x in diag if x]
    if any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
        return "D has negative or misplaced entries"
    if any(nonzero[k + 1] % nonzero[k] for k in range(len(nonzero) - 1)):
        return "diagonal is not a divisibility chain"
    if not _unimodular([u, v], a, _diagonal_product(d)):
        return "U or V is not unimodular"
    return None


def check_det(a, value):
    return None if modular_det(a) == value else "det disagrees with elimination"


def check_left_kernel(a, k):
    rank_a, _ = eliminate(a)
    if k and any(any(row) for row in matmul(k, a)):
        return "K*A != 0"
    if (eliminate(k)[0] if k else 0) != len(a) - rank_a:
        return "kernel basis has the wrong rank"
    if not is_hermite(k):
        return "kernel basis is not in Hermite form"
    return None


def _solve_echelon(basis, vec):
    """Coefficients x with x*basis == vec for an echelon basis, or None."""
    w = [Fraction(x) for x in vec]
    coeffs = []
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        c = w[j] / row[j]
        coeffs.append(c)
        if c:
            w = [x - c * y for x, y in zip(w, row)]
    return coeffs if not any(w) else None


def check_saturate(a, s):
    if not is_hermite(s) or any(not any(row) for row in s):
        return "saturation basis is not a reduced Hermite basis"
    if eliminate(s)[0] != eliminate(a)[0]:
        return "saturation changes the rank"
    for row in a:
        coeffs = _solve_echelon(s, row)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            return "an input row is not an integer combination of the saturation"
    # Z^n / L is torsion-free iff the invariant factors of S, which are
    # those of its transpose, are all 1
    if s and torsion_order([list(col) for col in zip(*s)]) != 1:
        return "lattice is not saturated"
    return None


def torsion_order(a):
    """Order of the torsion of Z^n / rowspace(a) for full column rank a:
    the product of the pivots of an integer echelon form, reached by
    Euclid's algorithm on each column (no transform is kept)."""
    work = [list(r) for r in a]
    order = 1
    for j in range(len(work[0])):
        rows = [r for r in work if r[j]]
        rest = [r for r in work if not r[j]]
        while len(rows) > 1:
            rows.sort(key=lambda r: abs(r[j]))
            head = rows[0]
            reduced = [[x - (r[j] // head[j]) * y for x, y in zip(r, head)] for r in rows[1:]]
            rows = [head] + [r for r in reduced if r[j]]
            rest += [r for r in reduced if not r[j]]
        order *= abs(rows[0][j])
        work = rest
    return order


def check_abelian(a, free_rank, factors):
    n = len(a[0])
    rank_a, _ = eliminate(a)
    if free_rank != n - rank_a:
        return "free rank disagrees with the rank of the relations"
    if any(x < 2 for x in factors) or any(factors[k + 1] % factors[k] for k in range(len(factors) - 1)):
        return "invariant factors are not a divisibility chain of numbers >= 2"
    if rank_a == n:
        prod = 1
        for x in factors:
            prod *= x
        if prod != torsion_order(a):
            return "torsion order disagrees with integer elimination"
    return None


# ----------------------------------------------------------- census counts


def heisenberg_normal_counts(bound: int) -> list[int]:
    """Partial sums of zeta(s) zeta(s-1) zeta(3s-2) (Grunewald, Segal and
    Smith), by Dirichlet convolution; entry k counts normal subgroups of
    index <= k."""
    one = [0] + [1] * bound
    ident = [0] + list(range(1, bound + 1))
    cube = [0] * (bound + 1)
    m = 1
    while m ** 3 <= bound:
        cube[m ** 3] = m * m
        m += 1

    def conv(f, g):
        h = [0] * (bound + 1)
        for i in range(1, bound + 1):
            if f[i]:
                for j in range(1, bound // i + 1):
                    h[i * j] += f[i] * g[j]
        return h

    coeffs = conv(conv(one, ident), cube)
    sums, total = [0], 0
    for k in range(1, bound + 1):
        total += coeffs[k]
        sums.append(total)
    return sums


# ------------------------------------------------------- unitriangular model


def ut_positions(n: int):
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def ut_matrix(n: int, exps):
    """prod_k (I + e_k E_k) over the transvection basis, in basis order."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for (r, c), e in zip(ut_positions(n), exps):
        if e:
            # right-multiplying by I + e E_rc adds e * column r to column c
            for i in range(n):
                mat[i][c] += e * mat[i][r]
    return mat


def ut_inverse(n: int, mat):
    """Back substitution for the inverse of a unitriangular matrix."""
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(mat[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


def ut_power(n: int, mat, e: int):
    base = mat if e >= 0 else ut_inverse(n, mat)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(abs(e)):
        out = matmul(out, base)
    return out


def check_collect(n: int, op: str, args, result):
    u = ut_matrix(n, args[0])
    if op == "multiply":
        want = matmul(u, ut_matrix(n, args[1]))
    elif op == "inverse":
        want = ut_inverse(n, u)
    elif op == "power":
        want = ut_power(n, u, args[1])
    else:  # commutator u^-1 v^-1 u v
        v = ut_matrix(n, args[1])
        want = matmul(matmul(ut_inverse(n, u), ut_inverse(n, v)), matmul(u, v))
    return None if ut_matrix(n, result) == want else f"{op} disagrees with the matrix model"


def check_analyze_ut(n: int, report: dict):
    m = n * (n - 1) // 2
    want = {
        "generators": m,
        "nilpotency_class": n - 1,
        "hirsch_rank": m,
        "center_rank": 1,
        "abelianization": {"free_rank": n - 1, "invariant_factors": []},
        "center_to_abelianization_injective": False,
    }
    for key, value in want.items():
        if report.get(key) != value:
            return f"analyze ut({n}): {key} is {report.get(key)!r}, expected {value!r}"
    return None


# ------------------------------------------------------------- graph groups


def clique_polynomial(vertex_count: int, edges) -> list[int]:
    adj = {frozenset(e) for e in edges}
    coeffs = [0] * (vertex_count + 1)
    for k in range(vertex_count + 1):
        for subset in combinations(range(vertex_count), k):
            if all(frozenset((x, y)) in adj for x, y in combinations(subset, 2)):
                coeffs[k] += 1
    return coeffs


def raag_growth(vertex_count: int, edges, length: int) -> list[int]:
    """Coefficients of 1/C(-2t/(1+t)) up to t^length: the number of group
    elements of each word length (C is the clique polynomial)."""
    clique = clique_polynomial(vertex_count, edges)
    # u = -2t/(1+t) = sum_{i>=1} 2 (-1)^i t^i
    u = [Fraction(0)] + [Fraction(2 * (-1) ** i) for i in range(1, length + 1)]

    def mul(f, g):
        h = [Fraction(0)] * (length + 1)
        for i, x in enumerate(f):
            if x:
                for j in range(length + 1 - i):
                    h[i + j] += x * g[j]
        return h

    denom = [Fraction(0)] * (length + 1)
    power = [Fraction(1)] + [Fraction(0)] * length
    for c in clique:
        denom = [x + c * y for x, y in zip(denom, power)]
        power = mul(power, u)
    inv = [Fraction(0)] * (length + 1)
    inv[0] = 1 / denom[0]
    for k in range(1, length + 1):
        inv[k] = -sum(denom[i] * inv[k - i] for i in range(1, k + 1)) / denom[0]
    assert all(x.denominator == 1 for x in inv)
    return [int(x) for x in inv]


def check_rtfn(vertex_count: int, edges, max_len: int, report: dict):
    want = sum(raag_growth(vertex_count, edges, max_len)[1:])
    if report.get("elements_checked") != want:
        return f"elements_checked {report.get('elements_checked')} != growth series sum {want}"
    if report.get("separated") is not True or report.get("failures"):
        return "a nontrivial element was not separated"
    return None


def _gen_binomial(e: int, k: int) -> int:
    """Coefficient of x^k in (1 + x)^e for any integer e."""
    if e >= 0:
        return comb(e, k)
    return (-1) ** k * comb(-e + k - 1, k)


def check_magnus(letters, degree: int, report: dict):
    """Commuting the variables maps the series to prod_v (1 + x_v)^(E_v),
    E_v the exponent sum of v; so the coefficients of each letter multiset
    must sum to a product of binomials."""
    totals: dict[int, int] = {}
    for v, e in letters:
        totals[v] = totals.get(v, 0) + e
    sums: dict[tuple[int, ...], int] = {}
    for term in report["terms"]:
        mono = term["monomial"]
        key = _trim(tuple(mono.count(v) for v in range(max(mono, default=-1) + 1)))
        sums[key] = sums.get(key, 0) + Fraction(term["coefficient"])
    got = {k: c for k, c in sums.items() if c}
    want: dict[tuple[int, ...], int] = {(): 1}
    for v in sorted(totals):
        nxt: dict[tuple[int, ...], int] = {}
        for key, c in want.items():
            deg = sum(key)
            for k in range(degree - deg + 1):
                b = _gen_binomial(totals[v], k)
                if b:
                    new = list(key) + [0] * (v + 1 - len(key))
                    new[v] += k
                    nxt[_trim(tuple(new))] = nxt.get(_trim(tuple(new)), 0) + c * b
        want = nxt
    want = {k: c for k, c in want.items() if c}
    if got != want:
        return "series coefficients disagree with the commutative image"
    if report.get("is_one") != (got == {(): 1} and len(report["terms"]) == 1):
        return "is_one disagrees with the terms"
    return None


def _trim(key):
    key = list(key)
    while key and key[-1] == 0:
        key.pop()
    return tuple(key)
