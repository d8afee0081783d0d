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
the rows it sifts to zero.  `AbelianQuotient` takes the Smith form of the
Hermite basis of its relations rather than of the relations themselves.
`lattice_member` and `lattice_index` read the pivot rows of a lattice
from `IntMatrix._echelon`: a basis in row echelon form as given, any
other through its Hermite basis, found once and kept (a pure function of
the entries, so two threads racing to fill the cache store equal values).

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
        `hnf_basis`.  Computed once: the matrix never changes."""
        out = []
        for i in range(self.rows):
            row = self.row(i)
            j = next((k for k, x in enumerate(row) if x), None)
            if j is None or (out and j <= out[-1][0]):
                return hnf_basis(self)._echelon
            out.append((j, row[j], row))
        return tuple(out)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IntMatrix(" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + ")"


def matrix_to_text(a: IntMatrix) -> str:
    """Serialize as 'rows cols' header plus one line per row."""
    lines = [f"{a.rows} {a.cols}"]
    lines += [" ".join(str(x) for x in a.row(i)) for i in range(a.rows)]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> IntMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    return IntMatrix(rows, cols, tuple(int(t) for t in body))


def _gcd_step(r: list[int], s: list[int], j: int) -> tuple[list[int], list[int]]:
    # The rows (r, s) after the unimodular 2x2 step that clears s[j], with
    # r[j] nonzero: subtract a multiple of r when r[j] divides s[j] (r comes
    # back as it is), else take the xgcd combination, which leaves
    # gcd(r[j], s[j]) at r[j].  Any trailing columns ride along.
    a, b = r[j], s[j]
    q, rem = divmod(b, a)
    if not rem:
        return r, [y - q * x for x, y in zip(r, s)]
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    return [x * p + y * q for p, q in zip(r, s)], [ag * q - bg * p for p, q in zip(r, s)]


def _reduce_at(basis: dict[int, list[int]], row: list[int], cols) -> list[int]:
    # Reduce row's entries at the pivot columns cols (increasing) into
    # [0, pivot); each step leaves the columns before it unchanged.
    for k in cols:
        piv = basis[k]
        q = row[k] // piv[k]
        if q:
            row = [x - q * y for x, y in zip(row, piv)]
    return row


def _install(basis: dict[int, list[int]], j: int, row: list[int]) -> None:
    # Put row in as the pivot row of column j and restore full reduction:
    # row at the later pivots, then every earlier pivot row from column j
    # on (a changed row j also changes what it leaves in later columns).
    later = sorted(k for k in basis if k > j)
    basis[j] = _reduce_at(basis, row, later)
    later.insert(0, j)
    for i in [k for k in basis if k < j]:
        basis[i] = _reduce_at(basis, basis[i], later)


def _hermite_rows(rows, n: int) -> tuple[list[list[int]], list[list[int]]]:
    # Insert the rows one at a time into a Hermite basis kept fully
    # reduced (Kannan–Bachem), so intermediate entries stay near the size
    # of the answer.  Pivots are sought in the first n columns; any later
    # columns ride along.  Returns the pivot rows in column order and the
    # rows that sifted to zero there.
    basis: dict[int, list[int]] = {}
    kernel = []
    for row in rows:
        j = 0
        while True:
            j = next((k for k in range(j, n) if row[k]), None)
            if j is None:
                kernel.append(row)
                break
            piv = basis.get(j)
            if piv is None:
                _install(basis, j, row if row[j] > 0 else [-x for x in row])
                break
            merged, row = _gcd_step(piv, row, j)
            if merged is not piv:
                _install(basis, j, merged)
            j += 1
    return [basis[j] for j in sorted(basis)], kernel


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
    rows = pivots + kernel
    return (
        IntMatrix(m, n, tuple(x for r in rows for x in r[:n])),
        IntMatrix(m, m, tuple(x for r in rows for x in r[n:])),
    )


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical lattice basis.

    Built without the transform U."""
    pivots, _ = _hermite_rows((list(a.row(i)) for i in range(a.rows)), a.cols)
    return IntMatrix._from_int_rows(pivots, a.cols)


def left_kernel(a: IntMatrix) -> IntMatrix:
    """Canonical basis of {x : x @ a == 0}: the Hermite basis of the
    transform parts of the rows of [a | I] that `_hermite_rows` sifts to
    zero."""
    n = a.cols
    _, kernel = _hermite_rows(_with_identity(a), n)
    return hnf_basis(IntMatrix._from_int_rows([r[n:] for r in kernel], a.rows))


def saturate(a: IntMatrix) -> IntMatrix:
    """Basis of (Q-rowspace of a) intersected with Z^n.

    Computed as the left kernel of the transpose of the right kernel, so
    no matrix inversion is needed; the result is a saturated lattice
    containing the row space with finite index.
    """
    right_null = left_kernel(a.transpose())
    return left_kernel(right_null.transpose())


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
    the D|U rows; a column swap or step runs over the whole list."""
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
            for row in d:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    d[t], d[i] = _gcd_step(d[t], d[i], t)
            for j in range(t + 1, n):
                a0, b0 = d[t][t], d[t][j]
                q, rem = divmod(b0, a0)
                if not rem:
                    if q:
                        for row in d:
                            row[j] -= q * row[t]
                    continue
                g, x, y = xgcd(a0, b0)
                ag, bg = a0 // g, b0 // g
                for row in d:
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
        parts += [f"Z/{d}" for d in self.invariant_factors]
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
        self.relations = relations
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
    return _matrix_power(nil, n).is_zero()


def _matrix_power(a: IntMatrix, e: int) -> IntMatrix:
    """a^e for e >= 0, by repeated squaring."""
    result = IntMatrix.identity(a.rows)
    for bit in bin(e)[2:]:
        result = result @ result
        if bit == "1":
            result = result @ a
    return result


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
    up to the first identity.  A finite-order matrix other than the
    identity is semisimple, never unipotent, which the paired `unipotent`
    flag lets callers confirm.
    """
    if not a.is_square():
        raise ValueError("order check requires a square matrix")
    if abs(det(a)) != 1:
        raise ValueError("matrix is not invertible over the integers")
    n = a.rows
    ident = IntMatrix.identity(n)
    order = None
    if _matrix_power(a, _order_bound(n)) == ident:
        order, power = 1, a
        while power != ident:
            order, power = order + 1, power @ a
    return MatrixOrderReport(order=order, unipotent=is_unipotent(a))
