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

For class <= 2 the Mal'cev coordinates of a normal or closure-generated
subgroup form a sublattice of Z^n, so subgroups are stored as canonical
Hermite bases and all subgroup algebra reduces to exact lattice algebra.
Class >= 3 groups (the unitriangular families) keep element arithmetic,
lower central series, center, rank, and whole-group abelianization; the
general subgroup operations refuse them.  `center` is one walk in every
class, down the generator weights (`PcPresentation._weights`): each step
is an integer kernel of the weight-d coordinates of commutators with the
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
`rfrs`).  The census takes both.  Both skip rows that are products of central
generators, and `_commutator_values` skips the central generators.

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

The normal-subgroup census tests each (projection, centre) pair of a
class-2 lattice once, emits every gluing of a passing pair untested, and
caps the pair tests plus subgroups emitted at `CENSUS_WORK_CAP`.

Subgroup and chain files share one reader, `_row_blocks`: integer rows,
'#' comments and blank-line blocks.  `chain_from_text` closes each block
and tests that the first is the whole group as index 1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import ResourceLimitExceeded
from .intlinalg import (
    IntMatrix,
    _from_decimal,
    hnf_basis,
    lattice_index,
    lattice_member,
    left_kernel,
    saturate,
    xgcd,
)
from .pcgroups import Element, PcPresentation


def _require_class2(p: PcPresentation, what: str) -> None:
    if not p._class2:
        raise ValueError(f"{what} supports nilpotency class <= 2 only, "
                         "with commutator values on central generators")


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
    rules: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(r):
        for b in range(a + 1, r):
            w = p.commutator(vecs[b], vecs[a])
            exps = express_in_basis(s, w)
            if exps is None:  # pragma: no cover - guarded by closure checks
                raise ValueError("commutator left the subgroup lattice")
            if any(exps[: b + 1]):  # pragma: no cover - theory guarantees this
                raise ValueError("induced commutator table is not triangular")
            if any(exps):
                rules[(a, b)] = exps
    return PcPresentation(r, rules)


# ----------------------------------------------------- normal subgroup census


def _hermite_bases(n: int, coords: list[int], index: int):
    """Rows of each Hermite basis of a full-rank lattice of the given index
    in the coordinates `coords`, embedded in Z^n: the last coordinate's
    pivot d has entries in [0, d) above it."""
    if not coords:
        yield from [[]] if index == 1 else []
        return
    j = coords[-1]
    for d in (d for d in range(1, index + 1) if index % d == 0):
        pivot = tuple(d if t == j else 0 for t in range(n))
        for rows in _hermite_bases(n, coords[:-1], index // d):
            for col in itertools.product(range(d), repeat=len(rows)):
                yield [r[:j] + (x,) + r[j + 1 :] for r, x in zip(rows, col)] + [pivot]


# Cap on the pair tests plus subgroups emitted by one census: far above the
# 23,003 subgroups of H x Z at index 32.
CENSUS_WORK_CAP = 1_000_000


def enumerate_normal_subgroups(p: PcPresentation, max_index: int) -> list[Subgroup]:
    """All normal full-rank subgroups of index <= max_index, sorted by
    (index, basis entries).

    In class <= 2, u v - u - v and [u, g] depend only on the noncentral
    coordinates and land in the central ones, C.  A full-rank lattice is
    its projection M off C, its centre N in Z^C and a gluing M -> Z^C / N;
    it is a normal subgroup exactly when N holds m_i m_j - m_i - m_j and
    [m_i, g_k] for the Hermite rows m_i of M, whatever the gluing.  So the
    census tests each Hermite pair (M, N) once, going up the index
    [M] [N], and emits all [Z^C : N]^rank(M) gluings of a passing pair.

    The work, pair tests plus subgroups emitted, may not pass
    CENSUS_WORK_CAP.
    """
    _require_class2(p, "normal subgroup enumeration")
    if max_index < 1:
        raise ValueError("max_index must be positive")
    top, cen = p._noncentral, p._central

    @functools.cache
    def projections(d: int) -> list:
        # each M with the distinct nonzero values its centre must hold
        out = []
        for m in _hermite_bases(p.n, top, d):
            out.append((m, dict.fromkeys(_product_corrections(p, m) + _commutator_values(p, m))))
        return out

    @functools.cache
    def centres(d: int) -> list:
        # each N with its rows and the reduced representatives of Z^C / N
        out = []
        for rows in _hermite_bases(p.n, cen, d):
            box = itertools.product(*(range(r[j]) for r, j in zip(rows, cen)))
            reps = [tuple(dict(zip(cen, c)).get(k, 0) for k in range(p.n)) for c in box]
            out.append((IntMatrix._from_int_rows(rows, p.n), rows, reps))
        return out

    found: list[Subgroup] = []
    tests = 0

    def spend(k: int) -> None:
        if tests + len(found) >= CENSUS_WORK_CAP:
            raise ResourceLimitExceeded(
                f"census work cap of {CENSUS_WORK_CAP} reached at index {k} of {max_index}: "
                f"{tests} (projection, centre) pairs tested, {len(found)} subgroups found"
            )

    for k in range(1, max_index + 1):
        start = len(found)
        for d in (d for d in range(1, k + 1) if k % d == 0):
            for (m, needs), (centre, c_rows, reps) in itertools.product(
                projections(d), centres(k // d)
            ):
                spend(k)
                tests += 1
                if all(lattice_member(centre, w) for w in needs):
                    for glue in itertools.product(reps, repeat=len(m)):
                        spend(k)
                        rows = [[a + b for a, b in zip(u, c)] for u, c in zip(m, glue)] + c_rows
                        found.append(Subgroup(p, IntMatrix._from_int_rows(rows, p.n)))
        # every subgroup found in this pass has index k
        found[start:] = sorted(found[start:], key=lambda s: s.basis.entries)
    return found


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
        values = [[c[l] for c in (p.commutator(b, g) for g in low) for l in cols] for b in basis]
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
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in rows))
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
