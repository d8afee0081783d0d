"""Subgroups of power-commutator groups as integer lattices, and the
structural invariants built on them: lower central series, center, Hirsch
rank, isolators, rational kernels, induced presentations, and
normal-subgroup enumeration.

`rational_kernel(s)` is the kernel of s -> s^ab tensor Q in ambient
coordinates, computed in the central coordinates C: in class <= 2 every
commutator is central, so the kernel is s meet Z^C meet the rational span
of the basis-pair commutators, one integer kernel at most |C| wide, and
none when the commutators have rank |C|.  The witness tests of `rfrs`
need less: for z in s, `_in_commutator_span` decides z in
`rational_kernel(s)` by one rank comparison in the central columns.
`center_ab_report` takes the central witness from the same kernel step,
so no Smith form is built here.  `Subgroup.intersect` is one Hermite form
of [[B1, B1], [B2, 0]] (Zassenhaus).

For class <= 2 the Mal'cev coordinates of a normal or closure-generated
subgroup form a sublattice of Z^n, so subgroups are stored as canonical
Hermite bases and all subgroup algebra reduces to exact lattice algebra.
Class >= 3 groups (the unitriangular families) keep element arithmetic,
lower central series, center, rank, and whole-group abelianization; the
general subgroup operations refuse them.  `center` is one walk in every
class, down the generator weights of `pcgroups._weights`: each step is
an integer kernel of the weight-d coordinates of commutators with the
generators of weight below d, over the exponents of the previous step's
triangular basis.

In class <= 2, u v = u + v + B(u, v) with B bilinear and central valued,
and `_product_corrections` is the one function that computes B:
`subgroup_closure` adds its values on the generators to their span in one
step, `Subgroup.from_lattice` accepts a lattice that closure leaves as it
is, and the census takes from it the values a projection's centre must
hold.  B(u, v) and [u, g] vanish when u or g is a product of central
generators, so `_product_corrections`, `Subgroup.is_normal` and the
commutator lists of the rational kernel skip such basis rows, and
`is_normal` skips the central generators.

Three routines carry the group side in any class.  `_sift` divides an
element by powers of a triangular basis in pivot order (a noncommutative
Hermite sift, Sims ch. 9): `express_in_basis` and the induced bases of
the lower central series go through it, and `_subgroup_from_induced`, the
one lattice check for triangular bases, uses it to confirm that each
Hermite row is an ordered product of the basis, for the lower central
series and the center alike.
`_ordered_product` multiplies such powers back together, for
`map_into_ambient` and for each step of the center walk.
`_InducedBasis.close` sifts in commutators until a pass changes nothing:
once the commutators of the slots sift to the identity, their ordered
products form a subgroup, so inverses and products add nothing.  Lattice
membership is `intlinalg.lattice_member`, which takes a Hermite basis as
it is; the basis matrix finds its pivot rows once and keeps them, so a
subgroup or census centre pays for them once however often it is asked.

The normal-subgroup census tests each (projection, centre) pair of a
class-2 lattice once, emits every gluing of a passing pair untested, and
caps the pair tests plus subgroups emitted.

Subgroup and chain files share one reader, `_row_blocks`: integer rows,
'#' comments and blank-line blocks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import ResourceLimitExceeded
from .intlinalg import (
    IntMatrix,
    hnf_basis,
    lattice_index,
    lattice_member,
    left_kernel,
    saturate,
    xgcd,
)
from .pcgroups import Element, PcPresentation, _weights


def _require_class2(p: PcPresentation, what: str) -> None:
    if p.nilpotency_class > 2:
        raise ValueError(f"{what} supports nilpotency class <= 2 only")


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
            w = p.multiply(p.inverse(p.power(b, q)), w)
        exps.append(q)
    return exps, w


def _central_split(p: PcPresentation) -> tuple[list[int], list[int]]:
    """(noncentral, central) generator indices, each in increasing order."""
    return [k for k, c in enumerate(p.central) if not c], [k for k, c in enumerate(p.central) if c]


def _noncentral_rows(p: PcPresentation, vecs) -> list[Element]:
    """The vecs with a nonzero noncentral coordinate.  The others are
    products of central generators, so [u, g] vanishes on them in any
    class, and B(u, v) in class 2."""
    top = _central_split(p)[0]
    return [v for v in vecs if any(v[k] for k in top)]


def _product_corrections(p: PcPresentation, vecs) -> list[Element]:
    """The distinct nonzero u v - u - v over ordered pairs (u, v) of vecs."""
    vecs = _noncentral_rows(p, vecs)
    vals = (tuple(w - a - b for w, a, b in zip(p.multiply(u, v), u, v)) for u in vecs for v in vecs)
    return list(dict.fromkeys(w for w in vals if any(w)))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup whose Mal'cev coordinate set is an integer lattice.

    `basis` is the canonical Hermite basis (zero rows dropped), so equal
    subgroups compare equal as values.
    """

    ambient: PcPresentation
    basis: IntMatrix

    @staticmethod
    def from_lattice(p: PcPresentation, rows) -> "Subgroup":
        s = Subgroup(p, hnf_basis(IntMatrix._from_int_rows([p.element(r) for r in rows], p.n)))
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
        return [tuple(self.basis.row(i)) for i in range(self.basis.rows)]

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
        # u in H, u^g is in H exactly when u^-1 u^g = [u, g] is (central
        # rows and central generators give [u, g] = 1)
        p = self.ambient
        gens = [p.generator(k) for k in _central_split(p)[0]]
        return all(
            self.contains(p.commutator(u, g))
            for u in _noncentral_rows(p, self.basis_elements())
            for g in gens
        )

    def intersect(self, other: "Subgroup") -> "Subgroup":
        """The meet, by Zassenhaus: in the Hermite form of [[B1, B1], [B2, 0]]
        the rows that vanish on the first block are (0, v) with v in both
        lattices, and their second blocks are already the meet's Hermite
        basis.  Two subgroups meet in a subgroup whose coordinates are the
        meet of their lattices, so it is closed by construction."""
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambient groups")
        n = self.ambient.n
        rows = [r + r for r in self.basis_elements()]
        rows += [r + (0,) * n for r in other.basis_elements()]
        h = hnf_basis(IntMatrix._from_int_rows(rows, 2 * n))
        meet = [r[n:] for r in map(h.row, range(h.rows)) if not any(r[:n])]
        return Subgroup(self.ambient, IntMatrix._from_int_rows(meet, n))


def subgroup_closure(p: PcPresentation, gens) -> Subgroup:
    """Smallest lattice-closed subgroup containing the given elements.

    Class <= 2 only.  There u v = u + v + B(u, v) with B bilinear, central
    valued and zero on central vectors, so on the span L of the generators
    s_i and the values B(s_i, s_j), B takes values in span{B(s_i, s_j)}.
    Hence L holds u v and u^-1 = -u + B(u, u) for all u, v in L, and any
    closed lattice holding the s_i holds L: the closure is L, in one step.
    """
    _require_class2(p, "subgroup closure")
    rows = [r for r in map(p.element, gens) if any(r)]
    rows += _product_corrections(p, rows)
    return Subgroup(p, hnf_basis(IntMatrix._from_int_rows(rows, p.n)))


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


def map_into_ambient(s: Subgroup, exps) -> Element:
    """Ordered product of basis elements with the given exponents."""
    return _ordered_product(s.ambient, s.basis_elements(), exps)


@dataclass(frozen=True)
class InducedPresentation:
    """A subgroup presented on its own Hermite basis: generator i of
    `presentation` is basis row i of `subgroup`, and `to_ambient` /
    `from_ambient` move elements across the inclusion.
    """

    presentation: PcPresentation
    subgroup: Subgroup

    def to_ambient(self, exps) -> Element:
        return map_into_ambient(self.subgroup, exps)

    def from_ambient(self, u: Element) -> tuple[int, ...] | None:
        return express_in_basis(self.subgroup, u)


def induced_presentation(s: Subgroup) -> InducedPresentation:
    """Presentation of a subgroup of any rank on its Hermite basis."""
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
    cls = 2 if rules else 1
    induced = PcPresentation(r, rules, nilpotency_class=cls)
    return InducedPresentation(presentation=induced, subgroup=s)


def verify_inclusion_homomorphism(ip: InducedPresentation) -> bool:
    """Check the inclusion on all generator pairs: products computed in
    the induced presentation match ambient products of the images."""
    sub = ip.presentation
    for a in range(sub.n):
        for b in range(sub.n):
            prod = sub.multiply(sub.generator(a), sub.generator(b))
            ambient_prod = ip.subgroup.ambient.multiply(
                ip.to_ambient(sub.generator(a)), ip.to_ambient(sub.generator(b))
            )
            if ip.to_ambient(prod) != ambient_prod:
                return False
    return True


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


def enumerate_normal_subgroups(
    p: PcPresentation, max_index: int, candidate_cap: int = 1_000_000
) -> list[Subgroup]:
    """All normal full-rank subgroups of index <= max_index, sorted by
    (index, basis entries).

    In class <= 2, u v - u - v and [u, g] depend only on the noncentral
    coordinates and land in the central ones, C.  A full-rank lattice is
    its projection M off C, its centre N in Z^C and a gluing M -> Z^C / N;
    it is a normal subgroup exactly when N holds m_i m_j - m_i - m_j and
    [m_i, g_k] for the Hermite rows m_i of M, whatever the gluing.  So the
    census tests each Hermite pair (M, N) once, going up the index
    [M] [N], and emits all [Z^C : N]^rank(M) gluings of a passing pair.

    `candidate_cap` bounds the work: pair tests plus subgroups emitted.
    """
    _require_class2(p, "normal subgroup enumeration")
    if max_index < 1:
        raise ValueError("max_index must be positive")
    top = [k for k in range(p.n) if not p.central[k]]
    cen = [k for k in range(p.n) if p.central[k]]

    @functools.cache
    def projections(d: int) -> list:
        # each M with the distinct nonzero values its centre must hold
        out = []
        for m in _hermite_bases(p.n, top, d):
            comms = [p.commutator(u, p.generator(k)) for u in m for k in top]
            vals = _product_corrections(p, m) + [w for w in comms if any(w)]
            out.append((m, list(dict.fromkeys(vals))))
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
        if tests + len(found) >= candidate_cap:
            raise ResourceLimitExceeded(
                f"census work cap of {candidate_cap} reached at index {k} of {max_index}: "
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
                        found.append(Subgroup(p, hnf_basis(IntMatrix._from_int_rows(rows, p.n))))
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

    def contains(self, w: Element) -> bool:
        return not any(self.reduce(w))

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
            # the residue's leading entry is not a multiple of cur's
            _, x, y = xgcd(cur[lead], v[lead])
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
        an empty leading coordinate or shrinks a slot's leading entry, so
        the passes stop.
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
    sub = Subgroup(p, hnf_basis(IntMatrix._from_int_rows(vectors, p.n)))
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
    weight below d (`pcgroups._weights`), [W_d, G] <= W_(d+1), so
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
    weights = _weights(p)
    basis = gens
    for d in range(2, max(weights, default=1) + 1):
        cols = [l for l, w in enumerate(weights) if w == d]
        low = [g for g, w in zip(gens, weights) if w < d]
        values = [[c[l] for c in (p.commutator(b, g) for g in low) for l in cols] for b in basis]
        ker = left_kernel(IntMatrix._from_int_rows(values, len(low) * len(cols)))
        basis = [_ordered_product(p, basis, ker.row(i)) for i in range(ker.rows)]
    sub = _subgroup_from_induced(p, basis)
    for v in sub.basis_elements():
        if any(any(p.commutator(v, g)) for g in gens):  # pragma: no cover
            raise NotImplementedError("center is not a coordinate lattice here")
    return sub


# ----------------------------------------------------------------- isolator


def isolator(p: PcPresentation, s: Subgroup) -> Subgroup:
    """Smallest root-closed subgroup containing s (class <= 2).

    In class <= 2 this is exactly the saturation of the coordinate
    lattice, which is automatically closed under the group operations.
    """
    _require_class2(p, "isolators")
    if s.ambient != p:
        raise ValueError("subgroup belongs to a different presentation")
    return Subgroup(p, saturate(s.basis))


def _torsion_image_kernel(b: IntMatrix, comms) -> IntMatrix:
    """Canonical basis of the k with k b in the rational span of comms:
    the left kernel of b perp^T, perp the integer kernel of comms^T.  When
    comms span all of Q^m, every k qualifies and the second kernel is
    skipped."""
    perp = left_kernel(IntMatrix._from_int_rows(comms, b.cols).transpose())
    if not perp.rows:
        return IntMatrix.identity(b.rows)
    return left_kernel(b @ perp.transpose())


def _central_commutators(p: PcPresentation, s: Subgroup, cen: list[int]) -> list[list[int]]:
    """The central coordinates of the nonzero commutators of s's basis
    pairs; central basis rows contribute none."""
    vecs = _noncentral_rows(p, s.basis_elements())
    comms = (p.commutator(v, u) for i, u in enumerate(vecs) for v in vecs[i + 1 :])
    return [[w[k] for k in cen] for w in comms if any(w)]


def rational_kernel(s: Subgroup) -> Subgroup:
    """ker(s -> s^ab tensor Q) in ambient coordinates: the elements of s
    with a power in [s, s] (class <= 2).

    In class <= 2 [s, s] is the span of the central, bilinear basis-pair
    commutators, and u in s has a power in it exactly when u is in their
    rational span (u^m = m u when u has zero noncentral coordinates).  That
    span lies in Z^C, C the central coordinates, so the kernel is s meet
    Z^C meet the span, and the linear algebra needs only the |C| central
    columns.  With the central columns put last, s meet Z^C is spanned by
    the Hermite rows whose pivot is central.
    """
    p = s.ambient
    _require_class2(p, "rational kernels")
    top, cen = _central_split(p)
    t = len(top)
    basis = s.basis
    if cen != list(range(t, p.n)):
        order = top + cen
        basis = hnf_basis(IntMatrix._from_int_rows([[v[k] for k in order] for v in s.basis_elements()], p.n))
    low = IntMatrix._from_int_rows([row[t:] for j, _, row in basis._echelon if j >= t], len(cen))
    ker = _torsion_image_kernel(low, _central_commutators(p, s, cen))
    embed = IntMatrix._from_int_rows([p.generator(k) for k in cen], p.n)
    return Subgroup(p, hnf_basis(ker @ low @ embed))


def _in_commutator_span(s: Subgroup, z: Element) -> bool:
    """For z in s (class <= 2): whether z lies in `rational_kernel(s)`,
    that is, in the rational span of the basis-pair commutators.  That
    span lies in Z^C, so this is one rank comparison in the central
    coordinates, with no kernel."""
    p = s.ambient
    top, cen = _central_split(p)
    if any(z[k] for k in top):
        return False
    comms = hnf_basis(IntMatrix._from_int_rows(_central_commutators(p, s, cen), len(cen)))
    if comms.rows == len(cen):
        return True
    both = IntMatrix._from_int_rows(comms.to_rows() + [[z[k] for k in cen]], len(cen))
    return hnf_basis(both).rows == comms.rows


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
    z = center(p)
    basis = tuple(z.basis_elements())
    # in any class G^ab is Z^n modulo the commutator-table values, so a
    # central element has torsion image exactly in their rational span
    ker = _torsion_image_kernel(z.basis, list(p.rules.values()))
    if ker.rows == 0:
        return CenterAbReport(center_basis=basis, injective=True, kernel_witness=None)
    # kernel row 0 and the centre's Hermite rows lead positive, so does w
    w = (IntMatrix._from_int_rows([ker.row(0)], ker.cols) @ z.basis).row(0)
    return CenterAbReport(center_basis=basis, injective=False, kernel_witness=w)


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
            blocks[-1].append(tuple(int(t) for t in ln.split()))
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def chain_from_text(p: PcPresentation, text: str) -> list[Subgroup]:
    blocks = _row_blocks(text)
    if not blocks:
        raise ValueError("empty chain file")
    subs = [subgroup_closure(p, rows) for rows in blocks]
    if subs[0] != Subgroup.whole_group(p):
        raise ValueError("first block of a chain file must generate the whole group")
    return subs
