"""Subgroups of power-commutator groups as integer lattices, and the
structural invariants built on them: lower central series, center, Hirsch
rank, rational kernels, induced presentations, and normal-subgroup
enumeration.

`rational_kernel(s)` is the kernel of s -> s^ab tensor Q in ambient
coordinates, for every s: s meet the saturation of [s, s].  For s of
finite index that saturation is V, the kernel of G -> G^ab tensor Q,
the integer vectors in the rational span of the rule values.  V is one
lattice per presentation, built on first use, and `center_ab_report`
reads its central witness off the centre's meet with V, with no Smith
form.  `Subgroup.intersect` returns the smaller operand when one lattice
contains the other, and is otherwise one Hermite form of
[[B1, B1], [B2, 0]] (Zassenhaus).

For class <= 2 a subgroup here is one whose Mal'cev coordinates form a
sublattice of Z^n, stored as its canonical Hermite basis, so subgroup
algebra is exact lattice algebra.  A normal or generated class-2 subgroup
need not be one: `subgroup_closure` returns the smallest lattice-closed
subgroup holding the rows, on heisenberg the basis (1, 1, 0), (0, 0, 1)
for (1, 1, 0) and (0, 0, 2), though z is not in <(1, 1, 0), z^2>; and
the censuses count and list the normal subgroups that are lattices.
Class >= 3 groups (the unitriangular families) keep element arithmetic,
lower central series, center, rank, and whole-group abelianization; the
general subgroup operations refuse them, naming the presentation's
`_off_centre` (`_require_class2`).  `center` is one walk in every class,
down the generator weights (`PcPresentation._weights`): each step is an
integer kernel of the weight-d coordinates of commutators with the
generators of weight below d, over the exponents of the previous step's
triangular basis.

In class <= 2, u v = u + v + B(u, v) with B bilinear and central valued,
read off the commutator table (`PcPresentation._beta`).  Two functions
list what a lattice must hold: `_product_corrections` the values of B on
its rows, for closed (`subgroup_closure` takes the Hermite basis of the
generators' span and inserts only the values of B on its rows that the
span lacks, so a block that already is a closed Hermite basis costs
membership tests and no insertion; `Subgroup.from_lattice` accepts a
lattice closure leaves as it is),
and `_commutator_values` the [u, g] of its rows with the generators, in
any class, for normal (`Subgroup.is_normal`) and central (`center`), or
with the rows of a larger subgroup, for normal in it (the chain checks of
`rfrs`).  Both skip rows that are products of central generators, and
`_commutator_values` skips the central generators.  The census takes the
same values by bilinearity from the table of B on the noncentral
generators, read off `PcPresentation.rules`, not `_beta` (`_CensusPairs`).

Three routines carry the group side in any class.  `_sift` divides an
element by powers of a triangular basis in pivot order (a noncommutative
Hermite sift, Sims ch. 9): `express_in_basis` and the induced bases of
the lower central series go through it, and `_subgroup_from_induced`, the
one lattice check for triangular bases, uses it to confirm that each
Hermite row is an ordered product of the basis, for the lower central
series and the center alike.
`_ordered_product` multiplies such powers back together, for each step
of the center walk.
`_InducedBasis.close` sifts in commutators until a pass changes nothing:
once the commutators of the slots sift to the identity, their ordered
products form a subgroup, so inverses and products add nothing.  Lattice
membership is `intlinalg.lattice_member`, which takes a Hermite basis as
it is.  A subgroup's basis carries the pivot rows that `hnf_basis` found
on construction, and `contains`, `index` and `basis_elements` read them;
a census centre finds its pivot rows on its first test and keeps them.
V, which `rational_kernel` and `center_ab_report` wrap as a subgroup on
every call, is an `hnf_basis` output, so the wrapping scans nothing.

A class-2 lattice of full rank is a projection M off the central
coordinates, a centre N in them and a gluing, closed and normal when N
holds K(M), the Hermite basis of the span of M's needed values.  One
walk over the pairs of an index, `_CensusPairs.passing`, with one pair
test and one work account capped at `CENSUS_WORK_CAP`, serves two
censuses.  The listing, `enumerate_normal_subgroups`, walks every index
and emits every gluing of a passing pair untested.  The counter,
`_normal_subgroup_counts`, which `obstruction_certificate` runs, walks prime-power
indices only, adds the number of gluings of a passing pair, and
multiplies elsewhere, since the counts are multiplicative over coprime
indices.

Subgroup and chain files share one reader, `_row_blocks`: integer rows,
'#' comments and blank-line blocks.  `chain_from_text` closes each block
and tests that the first is the whole group as index 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .digits import _decimal, _from_decimal
from .errors import ResourceLimitExceeded
from .intlinalg import (
    IntMatrix,
    _hermite_rows,
    hnf_basis,
    lattice_index,
    lattice_member,
    left_kernel,
    saturate,
    xgcd,
)
from .pcgroups import Element, PcPresentation, _dense, _word


def _require_class2(p: PcPresentation, what: str) -> None:
    """The one class-2 admission.  A refusal names `p._off_centre`, the first rule value, in
    pair order, on a non-central generator; it computes no class and builds no collector."""
    if not p._class2:
        i, j, k = p._off_centre
        raise ValueError(f"{what} supports nilpotency class <= 2 only, with commutator values on central "
                         f"generators; [g{j}, g{i}] has a value on the non-central generator g{k}")


def _lead(v: Element) -> int | None:
    return next((k for k, x in enumerate(v) if x), None)


def _sift(p: PcPresentation, rows, w: Element) -> tuple[list[int], Element]:
    """Divide w from the left by powers of triangular rows b_0, b_1, ...,
    given as (pivot column, row) pairs in increasing pivot order, so that
    w = b_0^e_0 * b_1^e_1 * ... * residue.

    Stops at the first coordinate that no row clears, so the residue is
    the identity exactly when w is an ordered product of the rows, and
    otherwise leads with a coordinate that is no row's pivot or is not a
    multiple of that row's pivot entry.  Returns (exponents, residue).
    """
    exps = []
    for j, b in rows:
        q = 0
        if w[j]:
            if any(w[:j]):
                break
            q, rem = divmod(w[j], b[j])
            if rem:
                break
            w = p.multiply(p.power(b, -q), w)
        exps.append(q)
    return exps, w


def _noncentral_rows(p: PcPresentation, vecs) -> list[Element]:
    """The vecs with a nonzero noncentral coordinate.  The others are
    products of central generators, so [u, g] vanishes on them in any
    class, and B(u, v) in class 2."""
    return [v for v in vecs if any(v[k] for k in p._noncentral)]


def _product_corrections(p: PcPresentation, vecs) -> list[Element]:
    """The distinct nonzero B(u, v) = u v - u - v over ordered pairs (u, v)
    of vecs, read off the class-2 table."""
    vecs = _noncentral_rows(p, vecs)
    vals = (tuple(p._beta(u, v)) for u in vecs for v in vecs)
    return list(dict.fromkeys(w for w in vals if any(w)))


def _commutator_values(p: PcPresentation, vecs, tops=None) -> list[Element]:
    """The distinct nonzero [u, g] over the noncentral rows u of vecs and
    the noncentral rows g of tops, by default the generators.  In any
    class the other [u, g] are 1, as a product of central generators
    commutes with everything, so over the generators the list is empty
    exactly when every row of vecs is central."""
    if tops is None:
        gens = [p.generator(k) for k in p._noncentral]
    else:
        gens = _noncentral_rows(p, tops)
    vals = (p.commutator(u, g) for u in _noncentral_rows(p, vecs) for g in gens)
    return list(dict.fromkeys(w for w in vals if any(w)))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup whose Mal'cev coordinate set is an integer lattice.

    `basis` is brought to the canonical Hermite basis (zero rows dropped)
    on construction, so equal subgroups compare equal as values and a
    nested meet can return an operand as it is.
    """

    ambient: PcPresentation
    basis: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", hnf_basis(self.basis))

    @staticmethod
    def from_lattice(p: PcPresentation, rows) -> "Subgroup":
        s = Subgroup(p, IntMatrix._from_int_rows([p.element(r) for r in rows], p.n))
        if subgroup_closure(p, s.basis_elements()) != s:
            raise ValueError("lattice is not closed under the group operations")
        return s

    @staticmethod
    def whole_group(p: PcPresentation) -> "Subgroup":
        return Subgroup(p, IntMatrix.identity(p.n))

    @staticmethod
    def trivial(p: PcPresentation) -> "Subgroup":
        return Subgroup(p, IntMatrix(0, p.n, ()))

    # ------------------------------------------------------------- queries

    def rank(self) -> int:
        return self.basis.rows

    def is_full_rank(self) -> bool:
        return self.basis.rows == self.ambient.n

    def basis_elements(self) -> list[Element]:
        return [r for _, _, r in self.basis._echelon]

    def contains(self, u: Element) -> bool:
        return lattice_member(self.basis, u)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(self.contains(v) for v in other.basis_elements())

    def index(self):
        """Index in the ambient group: coordinates biject the group with
        Z^n, so this is the lattice index ([Z^n : L]); INFINITE when the
        basis is rank deficient."""
        return lattice_index(self.basis)

    def is_normal(self) -> bool:
        # one side suffices: subgroups of a polycyclic group satisfy the max
        # condition, so g^-1 H g <= H for every generator g gives equality
        # (H <= g H g^-1 <= g^2 H g^-2 <= ... must stop growing); and for
        # u in H, u^g is in H exactly when u^-1 u^g = [u, g] is
        return all(map(self.contains, _commutator_values(self.ambient, self.basis_elements())))

    def intersect(self, other: "Subgroup") -> "Subgroup":
        """The meet.  When one lattice contains the other, the meet is the
        smaller operand, returned as it is.  Otherwise it is built by
        Zassenhaus: in the Hermite form of [[B1, B1], [B2, 0]] the rows that
        vanish on the first block are (0, v) with v in both lattices, and
        their second blocks are already the meet's Hermite basis.  Two
        subgroups meet in a subgroup whose coordinates are the meet of their
        lattices, so it is closed by construction."""
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambient groups")
        if self.contains_subgroup(other):
            return other
        if other.contains_subgroup(self):
            return self
        n = self.ambient.n
        rows = [r + r for r in self.basis_elements()]
        rows += [r + (0,) * n for r in other.basis_elements()]
        h = hnf_basis(IntMatrix._from_int_rows(rows, 2 * n))
        meet = [r[n:] for k, _, r in h._echelon if k >= n]
        return Subgroup(self.ambient, IntMatrix._from_int_rows(meet, n))


def subgroup_closure(p: PcPresentation, gens) -> Subgroup:
    """Smallest lattice-closed subgroup containing the given elements.

    Class <= 2 only.  There u v = u + v + B(u, v) with B bilinear, central
    valued and zero on central vectors, so on the span L of the generators
    s_i and the values B(s_i, s_j), B takes values in span{B(s_i, s_j)}.
    Hence L holds u v and u^-1 = -u + B(u, u) for all u, v in L, and any
    closed lattice holding the s_i holds L: the closure is L, in one step.
    B is bilinear, so the values on the Hermite rows of span{s_i} span
    what those on the s_i do, and L is that span plus the values it lacks.
    """
    _require_class2(p, "subgroup closure")
    span = Subgroup(p, IntMatrix._from_int_rows([r for r in map(p.element, gens) if any(r)], p.n))
    rows = span.basis_elements()
    missing = [w for w in _product_corrections(p, rows) if not span.contains(w)]
    return Subgroup(p, IntMatrix._from_int_rows(rows + missing, p.n)) if missing else span


def express_in_basis(s: Subgroup, u: Element) -> tuple[int, ...] | None:
    """Exponents a with u = b_1^a1 * ... * b_r^ar over the Hermite basis,
    or None when u is not an ordered product of the basis elements."""
    exps, rest = _sift(s.ambient, [(_lead(b), b) for b in s.basis_elements()], u)
    return None if any(rest) else tuple(exps)


def _ordered_product(p: PcPresentation, rows, exps) -> Element:
    """b_0^e_0 * b_1^e_1 * ... over the rows b and exponents e."""
    out = p.identity()
    for row, e in zip(rows, exps):
        if e:
            out = p.multiply(out, p.power(row, e))
    return out


def induced_presentation(s: Subgroup) -> PcPresentation:
    """Presentation of a subgroup of any rank on its Hermite basis:
    generator i is basis row i of s, so exponents a over the presentation
    are the ambient element b_1^a1 * ... * b_r^ar, and `express_in_basis`
    maps back."""
    p = s.ambient
    _require_class2(p, "induced presentations")
    vecs = s.basis_elements()
    r = len(vecs)
    rules = {}
    for a in range(r):
        for b in range(a + 1, r):
            w = p.commutator(vecs[b], vecs[a])
            exps = express_in_basis(s, w)
            if exps is None:  # pragma: no cover - guarded by closure checks
                raise ValueError("commutator left the subgroup lattice")
            if any(exps[: b + 1]):  # pragma: no cover - theory guarantees this
                raise ValueError("induced commutator table is not triangular")
            rules[(a, b)] = tuple(_word(exps))
    return PcPresentation(r, rules)


# ----------------------------------------------------- normal subgroup census


def _hermite_bases(dim: int, index: int):
    """Rows of each Hermite basis of a lattice of the given index in Z^dim:
    the last coordinate's pivot d has entries in [0, d) above it."""
    if not dim:
        yield from [[]] if index == 1 else []
        return
    for d in (d for d in range(1, index + 1) if index % d == 0):
        pivot = (0,) * (dim - 1) + (d,)
        for rows in _hermite_bases(dim - 1, index // d):
            for col in itertools.product(range(d), repeat=len(rows)):
                yield [r + (x,) for r, x in zip(rows, col)] + [pivot]


# Cap on the pair tests plus subgroups found by one census: far above the
# 23,003 subgroups of H x Z at index 32.
CENSUS_WORK_CAP = 1_000_000


class _CensusPairs:
    """The (projection, centre) pairs of a class-2 census, their one test
    and the census's work account, shared by `enumerate_normal_subgroups`
    and `_normal_subgroup_counts`.

    A projection M is a Hermite basis of a lattice in the r noncentral
    coordinates, and a centre N one in the s central coordinates, each in
    those coordinates alone.  The pair passes when N holds K(M), the
    Hermite basis of the span of M's needed values: B(m_i, m_j) and
    [m_i, g_c] over M's Hermite rows m_i and the noncentral generators
    g_c.  K(M) has at most s rows, so a pair test is at most s membership
    tests, and none when N is Z^C itself.

    Both kinds of value are bilinear and vanish on central arguments, so
    they come from the nonzero values B(g_a, g_b) over noncentral a, b,
    read off `p.rules`, not `_beta`: B(u, v) = sum u_a v_b B(g_a, g_b)
    and [u, g_c] = B(u, g_c) - B(g_c, u).  Only B(m_i, m_j) with i <= j is
    taken: B(m_j, m_i) = B(m_i, m_j) - [m_i, m_j], and [m_i, m_j] is a
    combination of the [m_i, g_c].  Each K(M) is reduced once, on the
    first test that needs it, and kept.

    The work, pair tests plus subgroups found, may not pass
    CENSUS_WORK_CAP: each unit is charged (`spend`) before it is done,
    and the charge that would pass the cap raises instead.  Construction
    refuses a group off the class-2 scan and a bound below 1, for both
    censuses.
    """

    def __init__(self, p: PcPresentation, max_index: int):
        _require_class2(p, "normal subgroup enumeration")
        if max_index < 1:
            raise ValueError("max_index must be positive")
        self.r, self.s = len(p._noncentral), len(p._central)
        # (a, b, B(g_a, g_b) on the central coordinates) in noncentral places; rule (i, j) is B(g_j, g_i)
        place = {k: a for a, k in enumerate(p._noncentral)}
        self._beta = sorted((place[j], place[i], tuple(map(_dense(p.n, word).__getitem__, p._central)))
                            for (i, j), word in p.rules.items())
        self._projections: dict[int, list[tuple]] = {}
        self._centres: dict[int, list[IntMatrix]] = {}
        self._kernels: dict[tuple, list[list[int]]] = {}
        self._whole = self.centres(1)[0]
        self.max_index = max_index
        self.tests = self.found = 0

    def projections(self, d: int) -> list[tuple]:
        """The Hermite rows of each projection of index d."""
        out = self._projections.get(d)
        if out is None:
            out = self._projections[d] = list(map(tuple, _hermite_bases(self.r, d)))
        return out

    def centres(self, d: int) -> list[IntMatrix]:
        """The Hermite basis of each centre of index d."""
        out = self._centres.get(d)
        if out is None:
            bases = _hermite_bases(self.s, d)
            out = self._centres[d] = [IntMatrix._from_int_rows(rows, self.s) for rows in bases]
        return out

    def spend(self, k: int, tests: int = 0, found: int = 0) -> None:
        """Charge pair tests and subgroups found at index k."""
        if self.tests + self.found + tests + found > CENSUS_WORK_CAP:
            raise ResourceLimitExceeded(
                f"census work cap of {CENSUS_WORK_CAP} reached at index {k} of {self.max_index}: "
                f"{self.tests} (projection, centre) pairs tested, {self.found} subgroups found"
            )
        self.tests += tests
        self.found += found

    def passing(self, k: int):
        """The pairs of index k that pass, each test charged: (M's rows,
        the centre's index e, its place in `centres(e)`)."""
        for d in (d for d in range(1, k + 1) if k % d == 0):
            for m, (j, centre) in itertools.product(self.projections(d), enumerate(self.centres(k // d))):
                self.spend(k, tests=1)
                if self.passes(m, centre):
                    yield m, k // d, j

    def passes(self, m: tuple, centre: IntMatrix) -> bool:
        """Whether the centre holds K(M) for the projection rows m."""
        return centre is self._whole or all(lattice_member(centre, w) for w in self._needed(m))

    def _needed(self, m: tuple) -> list[list[int]]:
        """The rows of K(M) for the projection rows m: the Hermite basis of
        the span of the [m_i, g_c] and of the B(m_i, m_j) with i <= j."""
        out = self._kernels.get(m)
        if out is None:
            vals = (w for i, u in enumerate(m) for w in self._values(u, m[i:]))
            pivots, _ = _hermite_rows([list(w) for w in dict.fromkeys(map(tuple, vals)) if any(w)], self.s)
            out = self._kernels[m] = [w for _, w in pivots]
        return out

    def _values(self, u, rows) -> list[list[int]]:
        """[u, g_c] over the c where it is not 0, and B(u, v) over v in rows."""
        # B(g_a, g_b) = w adds u_a w to [u, g_b] and -u_b w to [u, g_a]
        comms: dict[int, list[int]] = {}
        for a, b, w in self._beta:
            for c, x in ((b, u[a]), (a, -u[b])):
                if x:
                    acc = comms.get(c)
                    comms[c] = [x * y for y in w] if acc is None else [z + x * y for z, y in zip(acc, w)]
        out = list(comms.values())
        for v in rows:
            acc = [0] * self.s
            for a, b, w in self._beta:
                x = u[a] * v[b]
                if x:
                    acc = [z + x * y for z, y in zip(acc, w)]
            out.append(acc)
        return out


def enumerate_normal_subgroups(p: PcPresentation, max_index: int) -> list[Subgroup]:
    """The normal full-rank subgroups of index <= max_index whose
    coordinates form a lattice, sorted by (index, basis entries).

    Class 2, C the central coordinates, Z^C in Z(G): with Hermite rows
    ordered by pivot column, a full-rank lattice of Z^n is determined by
    its projection M off C, its centre N in Z^C and a gluing M -> Z^C / N;
    it is closed and normal exactly when N holds m_i m_j - m_i - m_j and
    [m_i, g_k] for the Hermite rows m_i of M, whatever the gluing.  So the
    census tests each Hermite pair (M, N) once (`_CensusPairs`), going up
    the index [M] [N], and emits all [Z^C : N]^rank(M) gluings of a
    passing pair.

    The work, pair tests plus subgroups emitted, may not pass
    CENSUS_WORK_CAP.
    """
    pairs = _CensusPairs(p, max_index)
    top, cen, n = p._noncentral, p._central, p.n

    @functools.cache
    def gluings(e: int) -> list:
        # each centre of index e: its rows in Z^n and the reduced representatives of Z^C / N
        out = []
        for centre in pairs.centres(e):
            c_rows = [_dense(n, zip(cen, r)) for r in centre.to_rows()]
            box = itertools.product(*(range(r[j]) for r, j in zip(c_rows, cen)))
            out.append((c_rows, [_dense(n, zip(cen, c)) for c in box]))
        return out

    found: list[Subgroup] = []
    for k in range(1, max_index + 1):
        start = len(found)
        for m, e, j in pairs.passing(k):
            c_rows, reps = gluings(e)[j]
            m_rows = [_dense(n, zip(top, u)) for u in m]
            for glue in itertools.product(reps, repeat=len(m)):
                pairs.spend(k, found=1)
                rows = [[a + b for a, b in zip(u, c)] for u, c in zip(m_rows, glue)] + c_rows
                found.append(Subgroup(p, IntMatrix._from_int_rows(rows, n)))
        # every subgroup found in this pass has index k
        found[start:] = sorted(found[start:], key=lambda s: s.basis.entries)
    return found


def _least_prime_part(k: int) -> int:
    """The full power of the least prime dividing k: k itself when k is 1
    or a prime power."""
    q = next((q for q in range(2, math.isqrt(k) + 1) if k % q == 0), k)
    part = q
    while part < k and k % (part * q) == 0:
        part *= q
    return part


def _normal_subgroup_counts(p: PcPresentation, max_index: int) -> list[int]:
    """a_1, ..., a_max_index, a_k the number of normal subgroups of index
    k whose coordinates form a lattice when k is 1 or a prime power, with
    no subgroup built.

    G / N is a finite nilpotent group, the product of its Sylow
    subgroups, so a normal N of index k = q k' with coprime q and k' is
    the meet of exactly one normal subgroup of index q and one of index
    k', and a_k = a_q a_k' (Grunewald, Segal and Smith, Invent. Math. 93,
    1988).  So the pairs are tested at index 1 and the prime powers only,
    as `enumerate_normal_subgroups` tests them, and a passing pair (M, N)
    adds its [Z^C : N]^rank(M) gluings; any other a_k is a_q a_(k/q),
    with q the full power of k's least prime.

    The work, pair tests plus subgroups counted, may not pass
    CENSUS_WORK_CAP, charged as the listing charges it except that a
    passing pair's gluings, or a product a_q a_(k/q), are one charge.
    """
    pairs = _CensusPairs(p, max_index)
    counts = [0]  # a_0 is no index
    for k in range(1, max_index + 1):
        before = pairs.found
        q = _least_prime_part(k)
        if q < k:
            pairs.spend(k, found=counts[q] * counts[k // q])
        else:
            for m, e, _ in pairs.passing(k):
                pairs.spend(k, found=e ** len(m))
        counts.append(pairs.found - before)
    return counts[1:]


# ------------------------------------------------ induced bases (any class)


class _InducedBasis:
    """Triangular generating set of a subgroup, valid in any class.

    Keeps at most one basis vector per leading coordinate and reduces new
    vectors against it with group operations (a noncommutative Hermite
    sift).  After `close`, the elements of the generated subgroup are
    exactly the ordered products of the slot vectors.
    """

    def __init__(self, p: PcPresentation):
        self.p = p
        self.slots: dict[int, Element] = {}

    def vectors(self) -> list[Element]:
        return [v for _, v in sorted(self.slots.items())]

    def reduce(self, w: Element) -> Element:
        """Residue of w after sifting by the slot vectors; the identity
        exactly when w is an ordered product of the slots."""
        return _sift(self.p, sorted(self.slots.items()), w)[1]

    def sift(self, w: Element) -> bool:
        """Insert w; returns True when the generated subgroup grew."""
        p = self.p
        changed = False
        queue = [w]
        while queue:
            v = self.reduce(queue.pop())
            lead = _lead(v)
            if lead is None:
                continue
            cur = self.slots.get(lead)
            if cur is None:
                self.slots[lead] = v
                changed = True
                continue
            # a correct `_sift` leaves v[lead] not a multiple of cur[lead], so the
            # merge shrinks a positive integer, the slot's lead, and sift stops
            g, x, y = xgcd(cur[lead], v[lead])
            if g >= abs(cur[lead]):
                raise RuntimeError(f"sift made no progress at coordinate {lead}")
            comb = p.multiply(p.power(cur, x), p.power(v, y))
            self.slots[lead] = comb
            changed = True
            queue.append(cur)
            queue.append(v)
        return changed

    def close(self, gens=()) -> None:
        """Sift in [u, g] for every slot u and every g in gens or the slots
        until a pass changes nothing.

        Once every [b_j, b_i] sifts to the identity, each slot b_i
        normalizes the ordered products of the later slots (one side
        suffices, as in `Subgroup.is_normal`), so those products form a
        subgroup and inverses and products add nothing.  Each change fills
        an empty leading coordinate or shrinks a slot's leading entry to a
        proper divisor (`sift` raises otherwise), so the passes stop.
        """
        p = self.p
        changed = True
        while changed:
            changed = False
            for u in self.vectors():
                for g in [*gens, *self.vectors()]:
                    changed |= self.sift(p.commutator(u, g))


def _subgroup_from_induced(p: PcPresentation, vectors) -> Subgroup:
    """The subgroup whose elements are the ordered products of the
    triangular `vectors` (in increasing pivot order), as the lattice they
    span: faithful only when every Hermite row of that lattice is itself
    such an ordered product, which is checked here."""
    sub = Subgroup(p, IntMatrix._from_int_rows(vectors, p.n))
    slots = [(_lead(v), v) for v in vectors]
    for v in sub.basis_elements():
        if any(_sift(p, slots, v)[1]):  # pragma: no cover
            raise NotImplementedError("subgroup coordinates do not form a lattice here")
    return sub


# --------------------------------------------------------- central series


def lower_central_series(p: PcPresentation) -> list[Subgroup]:
    """G = gamma_1 >= gamma_2 >= ... >= gamma_{c+1} = 1, each term the
    smallest subgroup containing [previous, G] and closed under further
    commutation with G."""
    gens = [p.generator(k) for k in range(p.n)]
    terms = [Subgroup.whole_group(p)]
    cur_vectors = gens
    while cur_vectors:
        nxt = _InducedBasis(p)
        for u in cur_vectors:
            for g in gens:
                nxt.sift(p.commutator(u, g))
        nxt.close(gens)
        cur_vectors = nxt.vectors()
        terms.append(_subgroup_from_induced(p, cur_vectors))
    return terms


def hirsch_rank(p: PcPresentation) -> int:
    """Sum of free ranks of the lower-central-series quotients.

    That is p.n: every generator has infinite order modulo the later ones,
    so the ranks along the series telescope to the rank of the whole group.
    """
    return p.n


# ------------------------------------------------------------------ center


def center(p: PcPresentation) -> Subgroup:
    """Center as a lattice subgroup, in any class.

    With W_d the elements whose coordinates vanish at every generator of
    weight below d (`PcPresentation._weights`), [W_d, G] <= W_(d+1), so
    C_d = {u : [u, g] in W_d for all g} runs from C_2 = G down to
    C_(D+1) = Z(G), D the largest weight.  On C_d, u -> (weight-d
    coordinates of [u, g_k])_k is a homomorphism with kernel C_(d+1): each
    step is one integer kernel in the exponents over C_d's triangular
    basis, and the ordered products of that basis by the kernel's Hermite
    rows are again triangular, a basis of C_(d+1).  Only generators of
    weight below d enter step d: [u, g] lies in W_(w(g)+1), so its
    weight-d coordinates vanish when w(g) >= d.  In class <= 2 the walk is
    one step, the linear commutation system over the weight-1 generators.
    """
    gens = [p.generator(k) for k in range(p.n)]
    weights, depth = p._weights
    basis = gens
    for d in range(2, depth + 1):
        cols = [l for l, w in enumerate(weights) if w == d]
        low = [g for g, w in zip(gens, weights) if w < d]
        values = [[c[l] for c in row for l in cols] for row in p._commutators(basis, low)]
        ker = left_kernel(IntMatrix._from_int_rows(values, len(low) * len(cols)))
        basis = [_ordered_product(p, basis, ker.row(i)) for i in range(ker.rows)]
    sub = _subgroup_from_induced(p, basis)
    if _commutator_values(p, sub.basis_elements()):  # pragma: no cover
        raise NotImplementedError("center is not a coordinate lattice here")
    return sub


# ----------------------------------------------------------- rational kernel


def rational_kernel(s: Subgroup) -> Subgroup:
    """ker(s -> s^ab tensor Q) in ambient coordinates: the elements of s
    with a power in [s, s], for any s (class <= 2).

    [s, s] is central and commutators are bilinear in class 2, so [s, s]
    is the Z-span of the commutators of s's Hermite rows.  If u in s has
    u^e in [s, s], e >= 1, then the noncentral coordinates of u^e, e
    times u's, vanish, so u is central and u^e = e u: the kernel is s
    meet the saturation of that span.  For s of finite index m, [s, s] has finite
    index in [G, G]: every u in G has a power u^e in s with 1 <= e <= m
    (two of the cosets s u^i, i = 0..m, agree), and [u, v]^(e f) =
    [u^e, v^f].  So the saturation is V, the kernel of G -> G^ab tensor
    Q, built once per presentation, and the kernel is one meet with V.
    """
    p = s.ambient
    _require_class2(p, "rational kernels")
    if s.is_full_rank():
        return s.intersect(Subgroup(p, p._torsion_lattice))
    rows = s.basis_elements()
    comms = IntMatrix._from_int_rows(_commutator_values(p, rows, rows), p.n)
    return s.intersect(Subgroup(p, saturate(comms)))


# --------------------------------------------------------- center/ab report


@dataclass(frozen=True)
class CenterAbReport:
    """Does the center inject into the abelianization?

    For a nonabelian presentation `kernel_witness` is a central element
    generating an infinite cyclic subgroup whose abelianization image is
    torsion; for abelian presentations the map is injective and there is
    no witness.
    """

    center_basis: tuple[Element, ...]
    injective: bool
    kernel_witness: Element | None

    @property
    def center_rank(self) -> int:
        return len(self.center_basis)


def center_ab_report(p: PcPresentation) -> CenterAbReport:
    """The centre's Hermite basis and its meet with V, the kernel of
    G -> G^ab tensor Q: a central element has torsion image in G^ab
    exactly when it lies in V, in any class.  The map injects when the
    meet is trivial; otherwise the witness is the meet's first Hermite
    row, which leads positive."""
    z = center(p)
    meet = z.intersect(Subgroup(p, p._torsion_lattice)).basis_elements()
    return CenterAbReport(
        center_basis=tuple(z.basis_elements()),
        injective=not meet,
        kernel_witness=meet[0] if meet else None,
    )


# ------------------------------------------------------------- file format


def chain_to_text(subgroups: list[Subgroup]) -> str:
    """Blocks of basis rows separated by blank lines; first block is the
    whole group."""
    blocks = []
    for s in subgroups:
        rows = s.basis.to_rows()
        blocks.append("\n".join(" ".join(map(_decimal, row)) for row in rows))
    return "\n\n".join(blocks) + "\n"


def _row_blocks(text: str) -> list[list[tuple[int, ...]]]:
    """Integer rows of a subgroup or chain file, one per line, grouped into
    blocks by blank lines; lines starting with '#' are skipped."""
    blocks: list[list[tuple[int, ...]]] = [[]]
    for ln in map(str.strip, text.splitlines()):
        if ln.startswith("#"):
            continue
        if ln:
            blocks[-1].append(tuple(map(_from_decimal, ln.split())))
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def chain_from_text(p: PcPresentation, text: str) -> list[Subgroup]:
    blocks = _row_blocks(text)
    if not blocks:
        raise ValueError("empty chain file")
    subs = [subgroup_closure(p, rows) for rows in blocks]
    if subs[0].index() != 1:
        raise ValueError("first block of a chain file must generate the whole group")
    return subs
