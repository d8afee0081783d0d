"""Subgroups of power-commutator groups as integer lattices, and the
structural invariants built on them: lower central series, center, Hirsch
rank, isolators, rational kernels, induced presentations, and
normal-subgroup enumeration.

`rational_kernel(s)` is the kernel of s -> s^ab tensor Q, computed in
ambient coordinates as s meet isolator([s, s]); the RFRS checks of
`rfrs` all go through it.

For class <= 2 the Mal'cev coordinates of a normal or closure-generated
subgroup form a sublattice of Z^n, so subgroups are stored as canonical
Hermite bases and all subgroup algebra reduces to exact lattice algebra.
Class >= 3 groups (the unitriangular families) keep element arithmetic,
lower central series, center, rank, and whole-group abelianization; the
general subgroup operations refuse them.

In class <= 2, u v = u + v + B(u, v) with B bilinear and central valued,
and `_product_corrections` is the one function that computes B:
`subgroup_closure` adds its values on the generators to their span in one
step, `Subgroup.from_lattice` accepts a lattice that closure leaves as it
is, and the census takes from it the values a projection's centre must
hold.

Two routines carry the group side in any class.  `_sift` divides an
element by powers of a triangular basis in pivot order (a noncommutative
Hermite sift, Sims ch. 9): `express_in_basis`, the induced bases of the
lower central series and the center all go through it.
`_closure_candidates` yields the inverses, products and commutators that
`_InducedBasis.close` sifts in until the basis is stable.  Lattice
membership is `intlinalg.lattice_member`, which takes a Hermite basis as
it is; the basis matrix finds its pivot rows once and keeps them, so a
subgroup or census centre pays for them once however often it is asked.

The normal-subgroup census tests each (projection, centre) pair of a
class-2 lattice once, emits every gluing of a passing pair untested, and
caps the pair tests plus subgroups emitted.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import ResourceLimitExceeded
from .intlinalg import (
    AbelianQuotient,
    IntMatrix,
    hnf_basis,
    lattice_index,
    lattice_member,
    left_kernel,
    saturate,
    xgcd,
)
from .pcgroups import Element, PcPresentation, abelianization

_CLOSURE_ROUNDS_CAP = 64


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


def _product_corrections(p: PcPresentation, vecs) -> list[Element]:
    """The distinct nonzero u v - u - v over ordered pairs (u, v) of vecs."""
    vals = (tuple(w - a - b for w, a, b in zip(p.multiply(u, v), u, v)) for u in vecs for v in vecs)
    return list(dict.fromkeys(w for w in vals if any(w)))


def _closure_candidates(p: PcPresentation, vecs: list[Element]):
    """For each u in vecs, its inverse, then u v and [u, v] for each v."""
    for u in vecs:
        yield p.inverse(u)
        for v in vecs:
            yield p.multiply(u, v)
            yield p.commutator(u, v)


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
        mat = IntMatrix.from_rows([list(r) for r in rows]) if rows else IntMatrix(0, p.n, ())
        if mat.cols != p.n:
            raise ValueError("row length must equal the generator count")
        s = Subgroup(p, hnf_basis(mat))
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
        # (H <= g H g^-1 <= g^2 H g^-2 <= ... must stop growing)
        p = self.ambient
        return all(
            self.contains(p.conjugate(u, p.generator(k)))
            for u in self.basis_elements()
            for k in range(p.n)
        )

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.ambient != other.ambient:
            raise ValueError("subgroups live in different ambient groups")
        b1, b2 = self.basis, other.basis
        if b1.rows == 0 or b2.rows == 0:
            return Subgroup.trivial(self.ambient)
        stacked = IntMatrix.from_rows(b1.to_rows() + [[-x for x in row] for row in b2.to_rows()])
        ker = left_kernel(stacked)
        if ker.rows == 0:
            return Subgroup.trivial(self.ambient)
        coeffs = IntMatrix.from_rows(ker.row(i)[: b1.rows] for i in range(ker.rows))
        # two subgroups meet in a subgroup whose coordinates are the meet of
        # their lattices, so this lattice is closed by construction
        return Subgroup(self.ambient, hnf_basis(coeffs @ b1))


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
    return Subgroup(p, hnf_basis(IntMatrix(len(rows), p.n, tuple(x for r in rows for x in r))))


def express_in_basis(s: Subgroup, u: Element) -> tuple[int, ...] | None:
    """Exponents a with u = b_1^a1 * ... * b_r^ar over the Hermite basis,
    or None when u is not an ordered product of the basis elements."""
    exps, rest = _sift(s.ambient, [(_lead(b), b) for b in s.basis_elements()], u)
    return None if any(rest) else tuple(exps)


def map_into_ambient(s: Subgroup, exps) -> Element:
    """Ordered product of basis elements with the given exponents."""
    p = s.ambient
    out = p.identity()
    for row, e in zip(s.basis_elements(), exps):
        if e:
            out = p.multiply(out, p.power(row, e))
    return out


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
            out.append((IntMatrix.from_rows(rows), rows, reps))
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
                        found.append(Subgroup(p, hnf_basis(IntMatrix.from_rows(rows))))
    found.sort(key=lambda s: (s.index(), s.basis.entries))
    return found


# ------------------------------------------------ induced bases (any class)


class _InducedBasis:
    """Triangular generating set of a subgroup, valid in any class.

    Keeps at most one basis vector per leading coordinate and reduces new
    vectors against it with group operations (a noncommutative Hermite
    sift).  Elements of the subgroup are exactly the ordered products of
    the slot vectors.
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

    def close(self) -> None:
        """Stabilize under products, inverses, and pairwise commutators."""
        for _ in range(_CLOSURE_ROUNDS_CAP):
            changed = False
            for w in _closure_candidates(self.p, self.vectors()):
                changed |= self.sift(w)
            if not changed:
                return
        raise RuntimeError("induced basis failed to stabilize")  # pragma: no cover

    def close_under_commutators_with(self, gens: list[Element]) -> None:
        p = self.p
        for _ in range(_CLOSURE_ROUNDS_CAP):
            changed = False
            for u in self.vectors():
                for g in gens:
                    changed |= self.sift(p.commutator(u, g))
            if changed:
                self.close()
            else:
                return
        raise RuntimeError("commutator closure failed to stabilize")  # pragma: no cover


def _subgroup_from_induced(p: PcPresentation, basis: _InducedBasis) -> Subgroup:
    vecs = basis.vectors()
    if not vecs:
        return Subgroup.trivial(p)
    lattice = hnf_basis(IntMatrix.from_rows([list(v) for v in vecs]))
    sub = Subgroup(p, lattice)
    if p.nilpotency_class > 2:
        # the lattice span is faithful only when every canonical basis row
        # is itself an ordered product of the sifted generators
        for i in range(lattice.rows):
            if not basis.contains(tuple(lattice.row(i))):  # pragma: no cover
                raise NotImplementedError(
                    "subgroup coordinates do not form a lattice; "
                    "only coordinate-graded class >= 3 groups are supported"
                )
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
        nxt.close()
        nxt.close_under_commutators_with(gens)
        terms.append(_subgroup_from_induced(p, nxt))
        cur_vectors = nxt.vectors()
        if len(terms) > p.n + 2:  # pragma: no cover - inconsistent data
            raise RuntimeError("lower central series failed to terminate")
    return terms


def hirsch_rank(p: PcPresentation) -> int:
    """Sum of free ranks of the lower-central-series quotients.

    That is p.n: every generator has infinite order modulo the later ones,
    so the ranks along the series telescope to the rank of the whole group.
    """
    return p.n


# ------------------------------------------------------------------ center


def _center_class2(p: PcPresentation) -> Subgroup:
    # u is central iff the commutator map c(u, g_k) vanishes for all k;
    # in class <= 2 that map is linear in u
    gens = [p.generator(k) for k in range(p.n)]
    # row t is [g_t, g_0] ... [g_t, g_(n-1)] laid end to end
    rows = [[x for g in gens for x in p.commutator(e, g)] for e in gens]
    ker = left_kernel(IntMatrix.from_rows(rows))
    return Subgroup(p, hnf_basis(ker)) if ker.rows else Subgroup.trivial(p)


def _solve_with_torsion(values, free_len, torsion_moduli):
    """Integer solutions c of sum_s c_s * values[s] = 0 where each value is
    (free coords, torsion residues); returns rows of a kernel basis."""
    r = len(values)
    t = len(torsion_moduli)
    rows = []
    for free, tors in values:
        rows.append(list(free) + list(tors))
    for j, d in enumerate(torsion_moduli):
        rows.append([0] * free_len + [d if jj == j else 0 for jj in range(t)])
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    ker = left_kernel(IntMatrix.from_rows(rows))
    return [tuple(ker.row(i)[:r]) for i in range(ker.rows)]


def center(p: PcPresentation) -> Subgroup:
    """Center as a lattice subgroup.

    Class <= 2 solves the linear commutation system exactly.  Higher
    class walks down the lower central series: at stage k the map
    h -> [h, g] into gamma_k / gamma_{k+1} is a homomorphism, linear in
    the ordered-product coordinates of the current candidate subgroup, so
    each refinement is an integer kernel with torsion congruences.
    """
    if p.nilpotency_class <= 2:
        return _center_class2(p)
    series = lower_central_series(p)
    gens = [p.generator(k) for k in range(p.n)]
    candidates: list[Element] = list(gens)
    for k in range(1, len(series) - 1):
        gamma_k, gamma_next = series[k], series[k + 1]
        base = _InducedBasis(p)
        for v in gamma_k.basis_elements():
            base.sift(v)
        base.close()
        slots = sorted(base.slots.items())

        def slot_exponents(w: Element) -> list[int]:
            exps, rest = _sift(p, slots, w)
            if any(rest):
                raise ValueError("element is not in the subgroup spanned by the slots")
            return exps

        # structure of gamma_k / gamma_{k+1} on the slot coordinates
        rel_rows = [slot_exponents(v) for v in gamma_next.basis_elements()]
        rel = (
            IntMatrix.from_rows(rel_rows)
            if rel_rows
            else IntMatrix(0, len(slots), ())
        )
        quot = AbelianQuotient(rel)
        values = []
        for b in candidates:
            free_all: list[int] = []
            tors_all: list[int] = []
            for g in gens:
                free, tors = quot.project(slot_exponents(p.commutator(b, g)))
                free_all.extend(free)
                tors_all.extend(tors)
            values.append((tuple(free_all), tuple(tors_all)))
        free_len = len(gens) * quot.structure.free_rank
        moduli = list(quot.structure.invariant_factors) * len(gens)
        # reshape torsion residues: project() returned per-generator pieces
        sols = _solve_with_torsion(values, free_len, moduli)
        new_basis = _InducedBasis(p)
        for c in sols:
            elt = p.identity()
            for coeff, b in zip(c, candidates):
                if coeff:
                    elt = p.multiply(elt, p.power(b, coeff))
            if any(elt):
                new_basis.sift(elt)
        new_basis.close()
        candidates = new_basis.vectors()
        if not candidates:
            return Subgroup.trivial(p)
    final = _InducedBasis(p)
    for v in candidates:
        if not all(p.commutator(v, g) == p.identity() for g in gens):  # pragma: no cover
            raise NotImplementedError("central candidate failed verification")
        final.sift(v)
    final.close()
    sub = _subgroup_from_induced(p, final)
    for v in sub.basis_elements():
        if not all(p.commutator(v, g) == p.identity() for g in gens):  # pragma: no cover
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
    if s.basis.rows == 0:
        return s
    return Subgroup(p, saturate(s.basis))


def rational_kernel(s: Subgroup) -> Subgroup:
    """ker(s -> s^ab tensor Q) in ambient coordinates: the elements of s
    with a power in [s, s], that is s meet isolator([s, s]) (class <= 2).

    In class <= 2 commutators are central and bilinear, so [s, s] is the
    lattice spanned by the commutators of basis pairs.
    """
    p = s.ambient
    vecs = s.basis_elements()
    derived = subgroup_closure(
        p, [p.commutator(u, v) for i, u in enumerate(vecs) for v in vecs[i + 1 :]]
    )
    return s.intersect(isolator(p, derived))


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
    quot = abelianization(p)
    basis = z.basis_elements()
    if not basis:
        return CenterAbReport(center_basis=(), injective=True, kernel_witness=None)
    # the projection is linear in Mal'cev coordinates, so restrict its free
    # part to the center lattice and take the integer kernel
    free_images = [list(quot.project(v)[0]) for v in basis]
    ker = left_kernel(IntMatrix.from_rows(free_images))
    if ker.rows == 0:
        return CenterAbReport(center_basis=tuple(basis), injective=True, kernel_witness=None)
    coeff = ker.row(0)
    witness = [0] * p.n
    for c, v in zip(coeff, basis):
        for t in range(p.n):
            witness[t] += c * v[t]
    w = tuple(witness)
    lead = next(k for k in range(p.n) if w[k])
    if w[lead] < 0:
        w = tuple(-x for x in w)
    return CenterAbReport(center_basis=tuple(basis), injective=False, kernel_witness=w)


# ------------------------------------------------------------- file format


def chain_to_text(subgroups: list[Subgroup]) -> str:
    """Blocks of basis rows separated by blank lines; first block is the
    whole group."""
    blocks = []
    for s in subgroups:
        rows = s.basis.to_rows()
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in rows))
    return "\n\n".join(blocks) + "\n"


def chain_from_text(p: PcPresentation, text: str) -> list[Subgroup]:
    blocks: list[list[list[int]]] = []
    cur: list[list[int]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("#"):
            continue
        if not ln:
            if cur:
                blocks.append(cur)
                cur = []
            continue
        cur.append([int(t) for t in ln.split()])
    if cur:
        blocks.append(cur)
    if not blocks:
        raise ValueError("empty chain file")
    subs = [subgroup_closure(p, [tuple(r) for r in rows]) for rows in blocks]
    if subs[0] != Subgroup.whole_group(p):
        raise ValueError("first block of a chain file must generate the whole group")
    return subs
