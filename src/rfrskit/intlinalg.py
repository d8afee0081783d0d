"""Exact integer matrix algebra.

Everything here runs on arbitrary-precision Python integers: Hermite and
Smith normal forms with unimodular transforms, lattice membership and
index, structure of finitely generated abelian groups presented by
relation matrices, and unipotence / finite-order tests for integer
matrices.  All functions are pure; `IntMatrix` values are immutable, so
concurrent use needs no locking.

`hnf` inserts rows one at a time into a Hermite basis that it keeps fully
reduced, so intermediate entries stay near the size of the answer, which
the determinant bounds; `hnf_basis` runs the same insertion without
carrying the transform, and `left_kernel` reads the transform parts of
the rows it sifts to zero.  The basis is a list indexed by pivot column,
and both rows of a step vanish before its pivot column, so a step
computes only the columns from there on.  `AbelianQuotient` and
`saturate` take the Smith form of the Hermite basis of their input
rather than of the input itself, and `saturate` takes none when every
pivot of that basis is 1.

Each basis is scanned once.  `hnf_basis` scans its input with
`_echelon_rows` and returns it as it is when it already is a Hermite
basis; any other it builds by the insertion.  Either way the pivot rows
it checked or built become `IntMatrix._echelon` of the matrix it
returns, and `lattice_member`, `lattice_index` and
`subgroups.Subgroup.basis_elements` read them there, with no second scan
and no slicing; a matrix it returned, given to it again, comes back
unscanned.  A matrix that did not come from `hnf_basis` is scanned
on its first such query: its rows are used as given when they are in row
echelon form, else those of its Hermite basis, found once and kept (a
pure function of the entries, so two threads racing to fill the cache
store equal values).

`hnf`, `left_kernel` and `snf` carry the transform in the rows of
[a | I], and one unimodular two-row step, `_gcd_step`, clears an entry
below a pivot for both normal forms.  `snf` keeps the rows of V below
those rows, so a column swap or step is one loop over one list.  The
column step stays written out: routing it through `_gcd_step`, as a row
pass over the transposed block with V kept transposed, gave the same
bytes but read 5-13 % slower on the benchmark's `matrices_graphs` wall
time (Python 3.11, 2-core Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .digits import _decimal

INFINITE = math.inf


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows_data) -> "IntMatrix":
        rows_data = [list(r) for r in rows_data]
        m = len(rows_data)
        n = len(rows_data[0]) if m else 0
        if any(len(r) != n for r in rows_data):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows_data for x in r)
        return IntMatrix(m, n, flat)

    @staticmethod
    def _from_int_rows(rows, cols: int) -> "IntMatrix":
        """Matrix of a list of rows the library built itself: each a
        sequence of `cols` ints, taken as it is.  Outside input goes through
        `from_rows`, which converts and checks it."""
        return IntMatrix(len(rows), cols, tuple(chain.from_iterable(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                ait = a[base + t]
                if ait:
                    brow = t * m
                    orow = i * m
                    for j in range(m):
                        out[orow + j] += ait * b[brow + j]
        return IntMatrix(n, m, tuple(out))

    @cached_property
    def _echelon(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(pivot column, pivot entry, row) per pivot row of the row
        lattice: the rows as given when they are in row echelon form (no
        zero rows, pivot columns strictly increasing), else those of
        `hnf_basis`.  Computed once: the matrix never changes, and
        `hnf_basis` fills it in on the matrix it returns."""
        rows = _echelon_rows(self)
        return hnf_basis(self)._echelon if rows is None else rows

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IntMatrix(" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + ")"


def _echelon_rows(a: IntMatrix) -> tuple[tuple[int, int, tuple[int, ...]], ...] | None:
    # (pivot column, pivot entry, row) per row of a when a is in row
    # echelon form (no zero rows, pivot columns strictly increasing), else
    # None.
    out = []
    for i in range(a.rows):
        row = a.row(i)
        j = 0
        while j < a.cols and not row[j]:
            j += 1
        if j == a.cols or (out and j <= out[-1][0]):
            return None
        out.append((j, row[j], row))
    return tuple(out)


def _is_hermite(rows) -> bool:
    # Whether echelon rows from `_echelon_rows` have positive pivots and
    # the entries above each pivot in [0, pivot).
    for i, (j, p, _) in enumerate(rows):
        if p <= 0:
            return False
        for _, _, r in rows[:i]:
            if not 0 <= r[j] < p:
                return False
    return True


def _gcd_step(r: list[int], s: list[int], j: int) -> tuple[list[int], list[int]]:
    # The rows (r, s) after the unimodular 2x2 step that clears s[j], with
    # r[j] nonzero: subtract a multiple of r when r[j] divides s[j] (r comes
    # back as it is), else take the xgcd combination, which leaves
    # gcd(r[j], s[j]) at r[j].  Both rows vanish before column j, so only
    # the columns from j on are computed; any trailing columns ride along.
    a, b = r[j], s[j]
    q, rem = divmod(b, a)
    head = [0] * j
    if not rem:
        return r, head + [y - q * x for x, y in zip(r[j:], s[j:])]
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    rt, st = r[j:], s[j:]
    return head + [x * p + y * q for p, q in zip(rt, st)], head + [ag * q - bg * p for p, q in zip(rt, st)]


def _reduce_at(basis: list, row: list[int], cols) -> list[int]:
    # Reduce row's entries at the pivot columns cols (increasing) into
    # [0, pivot); the pivot row of column k vanishes before k, so each step
    # leaves the columns before it unchanged.
    for k in cols:
        piv = basis[k]
        q = row[k] // piv[k]
        if q:
            row = row[:k] + [x - q * y for x, y in zip(row[k:], piv[k:])]
    return row


def _install(basis: list, j: int, row: list[int]) -> None:
    # Put row in as the pivot row of column j and restore full reduction:
    # row at the later pivots, then every earlier pivot row from column j
    # on (a changed row j also changes what it leaves in later columns).
    later = [k for k in range(j + 1, len(basis)) if basis[k] is not None]
    basis[j] = _reduce_at(basis, row, later)
    later.insert(0, j)
    for i in range(j):
        if basis[i] is not None:
            basis[i] = _reduce_at(basis, basis[i], later)


def _hermite_rows(rows, n: int) -> tuple[list[tuple[int, list[int]]], list[list[int]]]:
    # Insert the rows one at a time into a Hermite basis kept fully
    # reduced (Kannan–Bachem), so intermediate entries stay near the size
    # of the answer.  Pivots are sought in the first n columns; any later
    # columns ride along.  `basis[j]` is the pivot row of column j, or
    # None.  Returns the (pivot column, row) pairs in column order and the
    # rows that sifted to zero there.
    basis: list = [None] * n
    kernel = []
    for row in rows:
        j = 0
        while True:
            while j < n and not row[j]:
                j += 1
            if j == n:
                kernel.append(row)
                break
            piv = basis[j]
            if piv is None:
                _install(basis, j, row if row[j] > 0 else [-x for x in row])
                break
            merged, row = _gcd_step(piv, row, j)
            if merged is not piv:
                _install(basis, j, merged)
            j += 1
    return [(j, r) for j, r in enumerate(basis) if r is not None], kernel


def _with_identity(a: IntMatrix) -> list[list[int]]:
    # The rows of [a | I]: a row step carries each row's transform along.
    return [list(a.row(i)) + [int(k == i) for k in range(a.rows)] for i in range(a.rows)]


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ a, U unimodular, H in row echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot).  Rows of zeros sink to the bottom, and the rows of U
    beside them are a basis of the left kernel of a.  H is unique; so is
    U when a has full row rank.

    The rows of [a | I] go through `_hermite_rows`.
    """
    m, n = a.rows, a.cols
    pivots, kernel = _hermite_rows(_with_identity(a), n)
    rows = [r for _, r in pivots] + kernel
    return (
        IntMatrix(m, n, tuple(x for r in rows for x in r[:n])),
        IntMatrix(m, m, tuple(x for r in rows for x in r[n:])),
    )


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical lattice basis.

    A matrix whose rows already are one (row echelon form with positive
    pivots and the entries above each pivot in [0, pivot)) comes back as
    it is; any other is built without the transform U.  The pivot rows
    found either way are kept as the returned matrix's `_echelon`, and a
    matrix that `hnf_basis` returned comes back at once, unscanned."""
    if "_hermite" in a.__dict__:
        return a
    rows = _echelon_rows(a)
    if rows is None or not _is_hermite(rows):
        pivots, _ = _hermite_rows((list(a.row(i)) for i in range(a.rows)), a.cols)
        rows = tuple((j, r[j], tuple(r)) for j, r in pivots)
        a = IntMatrix._from_int_rows([r for _, _, r in rows], a.cols)
    # `_echelon` is what `IntMatrix._echelon` would find
    a.__dict__.update(_echelon=rows, _hermite=True)
    return a


def left_kernel(a: IntMatrix) -> IntMatrix:
    """Canonical basis of {x : x @ a == 0}: the Hermite basis of the
    transform parts of the rows of [a | I] that `_hermite_rows` sifts to
    zero."""
    n = a.cols
    _, kernel = _hermite_rows(_with_identity(a), n)
    return hnf_basis(IntMatrix._from_int_rows([r[n:] for r in kernel], a.rows))


def saturate(a: IntMatrix) -> IntMatrix:
    """Basis of (Q-rowspace of a) intersected with Z^n.

    A Hermite basis H of a whose pivots are all 1 comes back as it is:
    its entries above each pivot are 0, so its minor on the pivot columns
    is the identity, Z^n / H is torsion-free, and a rational combination
    of its rows is integral only when its coefficients, the entries at
    the pivot columns, are.  Any other H is read off its Smith form
    U H V = D: U H is D V^-1, so its rows, each divided by its invariant
    d_i, are rows of the unimodular V^-1 and span the saturation.  H has
    full row rank, so every d_i is positive, and when all are 1, H is its
    own saturation.
    """
    h = hnf_basis(a)
    if all(piv == 1 for _, piv, _ in h._echelon):
        return h
    dec = snf(h)
    diag = dec.diagonal()
    if all(d == 1 for d in diag):
        return h
    uh = dec.u @ h
    return hnf_basis(IntMatrix._from_int_rows([[x // d for x in uh.row(i)] for i, d in enumerate(diag)], h.cols))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.d.entry(i, i) for i in range(min(self.d.rows, self.d.cols))]

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations on one row
    list: the rows of [a | I] (D|U), then the rows of V.  Row steps touch
    the D|U rows; a column swap or step at step t skips the D|U rows above
    t, which are zero from column t on."""
    m, n = a.rows, a.cols
    d = _with_identity(a) + IntMatrix.identity(n).to_rows()
    for t in range(min(m, n)):
        piv = best = None
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
            for row in d[t:]:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    d[t], d[i] = _gcd_step(d[t], d[i], t)
            # The D|U rows below t are now zero in column t, so a divisible
            # column step changes only row t and V until an xgcd step fills
            # that column again.
            live = [d[t], *d[m:]]
            for j in range(t + 1, n):
                a0, b0 = d[t][t], d[t][j]
                q, rem = divmod(b0, a0)
                if not rem:
                    if q:
                        for row in live:
                            row[j] -= q * row[t]
                    continue
                live = d[t:]
                g, x, y = xgcd(a0, b0)
                ag, bg = a0 // g, b0 // g
                for row in live:
                    ct, cj = row[t], row[j]
                    row[t] = x * ct + y * cj
                    row[j] = -bg * ct + ag * cj
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
    return SmithDecomposition(
        IntMatrix(m, m, tuple(x for r in d[:m] for x in r[n:])),
        IntMatrix(m, n, tuple(x for r in d[:m] for x in r[:n])),
        IntMatrix._from_int_rows(d[m:], n),
    )


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.is_square() and abs(det(a)) == 1


def lattice_member(basis: IntMatrix, vec) -> bool:
    """True iff vec lies in the integer row span of basis.

    A basis already in row echelon form (every Hermite basis is) is used
    as given; any other is brought to Hermite form first.  One pass over
    the pivot rows tests each coordinate once: the gap before a pivot
    must already be zero, since later rows vanish there.  The entries of
    vec are taken as they are, so a non-integral one leaves a nonzero
    remainder or residue and the answer is False.
    """
    w = vec
    if len(w) != basis.cols:
        raise ValueError("vector length does not match lattice dimension")
    rows = basis._echelon
    start = 0
    for j, piv, row in rows:
        if any(w[start:j]):
            return False
        q, rem = divmod(w[j], piv)
        if rem:
            return False
        if q:
            w = [x - q * y for x, y in zip(w, row)]
        start = j + 1
    return not any(w[start:])


def lattice_index(basis: IntMatrix):
    """Index of the row lattice in Z^n: |det| if full rank, else INFINITE.

    Like `lattice_member`, takes a row echelon basis as given.
    """
    rows = basis._echelon
    if len(rows) < basis.cols:
        return INFINITE
    return abs(math.prod(piv for _, piv, _ in rows))


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Z^free_rank plus cyclic factors Z/d_1 x ... with d_1 | d_2 | ..."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{_decimal(d)}" for d in self.invariant_factors]
        return " x ".join(parts) if parts else "1"


class AbelianQuotient:
    """Structure of Z^n modulo the row span of a relation matrix.

    Carries the coordinate change needed to project vectors: `project`
    splits the image of a vector into free coordinates and torsion
    residues, and `is_torsion` tests whether the image dies rationally.
    """

    def __init__(self, relations: IntMatrix):
        n = relations.cols
        dec = snf(hnf_basis(relations))
        diag = dec.diagonal()
        rank = sum(1 for x in diag if x)
        self.n = n
        self._v = dec.v
        self._free_cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
        self._torsion = [(j, diag[j]) for j in range(rank) if diag[j] >= 2]
        self.structure = AbelianGroupStructure(
            free_rank=n - rank,
            invariant_factors=tuple(d for _, d in self._torsion),
        )

    def _transform(self, vec) -> list[int]:
        vec = [int(x) for x in vec]
        if len(vec) != self.n:
            raise ValueError("vector length does not match generator count")
        v = self._v
        return [sum(vec[i] * v.entry(i, j) for i in range(self.n)) for j in range(self.n)]

    def project(self, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Image of vec as (free coordinates, torsion residues)."""
        w = self._transform(vec)
        free = tuple(w[j] for j in self._free_cols)
        tors = tuple(w[j] % d for j, d in self._torsion)
        return free, tors

    def is_torsion(self, vec) -> bool:
        """True iff the image of vec has finite order in the quotient."""
        free, _ = self.project(vec)
        return all(x == 0 for x in free)

    def image_order(self, vec):
        """Order of the image of vec, or INFINITE."""
        free, _ = self.project(vec)
        if any(free):
            return INFINITE
        w = self._transform(vec)
        result = 1
        for j, d in self._torsion:
            r = w[j] % d
            if r:
                result = lcm(result, d // gcd(d, r))
        return result


def abelian_group_from_relations(relations: IntMatrix) -> AbelianGroupStructure:
    """Structure of Z^n / rowspace(relations), n = relations.cols."""
    return AbelianQuotient(relations).structure


def is_unipotent(a: IntMatrix) -> bool:
    """True iff (a - I)^n == 0 for the n x n matrix a."""
    if not a.is_square():
        raise ValueError("unipotence requires a square matrix")
    n = a.rows
    nil = IntMatrix(n, n, tuple(a.entry(i, j) - (1 if i == j else 0) for i in range(n) for j in range(n)))
    *_, top = _squarings(nil, n)
    return top.is_zero()


def _squarings(a: IntMatrix, e: int):
    """The powers of a that repeated squaring computes on the way to a^e
    (e >= 0), ending with a^e."""
    result = IntMatrix.identity(a.rows)
    for bit in bin(e)[2:]:
        result = result @ result
        if bit == "1":
            result = result @ a
        yield result


def _totient(m: int) -> int:
    result = m
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _order_bound(n: int) -> int:
    # Orders of finite-order elements of GL_n(Z) divide the lcm of all m
    # with totient(m) <= n.
    candidates = [m for m in range(1, 3 * n * n + 2) if _totient(m) <= n]
    return lcm(*candidates)


@dataclass(frozen=True)
class MatrixOrderReport:
    order: int | None
    unipotent: bool


def finite_order_semisimple_check(a: IntMatrix) -> MatrixOrderReport:
    """Detect finite multiplicative order of an integer matrix.

    Requires a to be invertible over the integers.  Every finite order in
    GL_n(Z) divides the order bound L for the dimension, so `order` is None
    when a^L is not the identity; otherwise powers of a are stepped through
    up to the first identity.  A finite-order matrix has roots of unity as
    eigenvalues, so the walk to a^L stops at a power with |trace| > n.  A
    finite-order matrix other than the identity is semisimple, never
    unipotent, which the paired `unipotent` flag lets callers confirm.
    """
    if not a.is_square():
        raise ValueError("order check requires a square matrix")
    if abs(det(a)) != 1:
        raise ValueError("matrix is not invertible over the integers")
    n = a.rows
    ident = IntMatrix.identity(n)
    order = None
    for power in _squarings(a, _order_bound(n)):
        if abs(sum(power.entry(i, i) for i in range(n))) > n:
            break  # then power != I, and order stays None
    if power == ident:
        order, power = 1, a
        while power != ident:
            order, power = order + 1, power @ a
    return MatrixOrderReport(order=order, unipotent=is_unipotent(a))
