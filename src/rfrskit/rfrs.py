"""Verification of RFRS-style filtration conditions and obstruction
certificates for nonabelian class-2 groups.

A chain T = T_0 > T_1 > ... of finite-index subgroups of a group T
satisfies the step conditions when each term is normal in T and contains
the kernel of the previous term's rational abelianization map.  An
element has torsion abelianization image precisely when some power of it
is a product of commutators, so that kernel is `subgroups.rational_kernel`
of the term: the term meet the saturation of its own commutators, which
for a term of finite index in G is one meet with V, the kernel of
G -> G^ab tensor Q, one lattice per presentation, built once.

One private loop, `_steps`, checks such a chain in the ambient
coordinates, with the top group T as a parameter: the whole group for
`verify_rfrs_chain`, and a subgroup H for `rfrs-restrict`, which checks
the terms G_i meet H without building H's induced presentation.  The
index [T : T_i] is the ratio of the Hermite pivot products of T_i and T,
which span the same rational space; T_i is normal in T when it holds
[k, b] for the Hermite rows k of T_i and b of T, since commutators are
bilinear in class 2; and the kernel step is `rational_kernel` of the
previous term.

The class-2 scan puts V on central generators, so Z(G) meet V is V, and
the central witness z is V's first Hermite row.  For every finite-index
term t that holds z, z lies in `rational_kernel(t)`: the witness check in
every term of a verified chain is a membership test.  `restrict_chain`
returns the restriction as a filtration of H on H's own basis, for the
library; it builds the induced presentation.

The obstruction certificate is one fact, z in V, plus the number of
normal lattice subgroups of each index up to a bound, counted by
`subgroups._normal_subgroup_counts` with no subgroup built;
`ObstructionCertificate` states why that traps the witness in every
conditioned chain within the bound.  `rfrs-obstruct` prints the one
certificate `obstruction_certificate` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pcgroups import PcPresentation, Element
from .subgroups import (
    Subgroup,
    _commutator_values,
    _normal_subgroup_counts,
    _ordered_product,
    _require_class2,
    express_in_basis,
    induced_presentation,
    rational_kernel,
    subgroup_closure,
)


@dataclass(frozen=True)
class Filtration:
    """Descending chain of finite-index subgroups, chain[0] = whole group."""

    ambient: PcPresentation
    chain: tuple[Subgroup, ...]

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("a filtration needs at least the whole group")
        if self.chain[0].ambient != self.ambient or self.chain[0].index() != 1:
            raise ValueError("chain must start with the whole group")
        for k, sub in enumerate(self.chain):
            if sub.ambient != self.ambient:
                raise ValueError("chain term lives in a different ambient group")
            if not sub.is_full_rank():
                raise ValueError(f"chain term {k} has infinite index")
            if k:
                prev = self.chain[k - 1]
                if not prev.contains_subgroup(sub):
                    raise ValueError(f"chain is not descending at step {k}")
                if prev == sub:
                    raise ValueError(f"chain repeats a term at step {k}")

    @staticmethod
    def from_subgroups(ambient: PcPresentation, subs) -> "Filtration":
        return Filtration(ambient, tuple(subs))


@dataclass(frozen=True)
class RfrsStep:
    index: int
    normal_in_g: bool
    kernel_contained: bool

    @property
    def passed(self) -> bool:
        return self.normal_in_g and self.kernel_contained


@dataclass(frozen=True)
class RfrsReport:
    filtration: Filtration  # the chain these steps were checked on
    steps: tuple[RfrsStep, ...]
    overall: bool
    intersection: Subgroup


def _pivot_product(s: Subgroup) -> int:
    return math.prod(piv for _, piv, _ in s.basis._echelon)


def _steps(top: Subgroup, terms) -> tuple[RfrsStep, ...]:
    """The step conditions of the descending chain `terms` of finite-index
    subgroups of `top`, in the ambient coordinates, each term's kernel its
    `rational_kernel`.  For top = G, [k, b] over the rows b of the
    identity is `Subgroup.is_normal`."""
    p, tops, base = top.ambient, top.basis_elements(), _pivot_product(top)
    return tuple(
        RfrsStep(
            _pivot_product(nxt) // base,
            all(map(nxt.contains, _commutator_values(p, nxt.basis_elements(), tops))),
            nxt.contains_subgroup(rational_kernel(prev)),
        )
        for prev, nxt in zip(terms, terms[1:])
    )


def verify_rfrs_chain(f: Filtration) -> RfrsReport:
    """Check normality, finite index, and kernel containment per step."""
    steps = _steps(f.chain[0], f.chain)
    # a Filtration descends, so its last term is the meet of all of them
    return RfrsReport(f, steps, all(s.passed for s in steps), f.chain[-1])


def trapped_central_witness(report: RfrsReport) -> Element | None:
    """The central witness, verified to stay in every term of the chain
    that `report` (from `verify_rfrs_chain`) checked, with torsion
    abelianization image there.

    Returns None when the ambient group is abelian (no witness exists) or
    when some term fails the trap, which a conditioned chain on a
    nonabelian class-2 group can never do.  Raises when the report shows
    the chain violating the step conditions.  The witness z is the first
    Hermite row of V, the kernel of G -> G^ab tensor Q, which the class-2
    scan puts on central generators.  Every term t has finite index, so
    `rational_kernel(t)` is t meet V, and z lies in it exactly when t
    holds z.
    """
    f = report.filtration
    p = f.ambient
    if p.is_abelian():
        return None
    _require_class2(p, "the trapped-witness check")
    if not report.overall:
        raise ValueError("chain fails the filtration step conditions; verify first")
    z = p._torsion_lattice.row(0)
    return z if all(t.contains(z) for t in f.chain) else None


@dataclass(frozen=True)
class ObstructionCertificate:
    """Bounded-index certificate that the witness is trapped.

    `counts` is (a_1, ..., a_bound), a_k the census's number of normal
    subgroups of index k: those whose coordinates form a lattice at the
    prime powers, products elsewhere.  `all_pass` is the one fact proved:
    the witness z lies in V, the kernel of G -> G^ab tensor Q, which holds
    by construction (z is V's first Hermite row) until the certificate
    carries a re-check that can fail.  Every census subgroup H has finite
    index, so `rational_kernel(H)` is H meet V, and z has torsion image in
    H^ab whenever H holds z.  By induction, a chain of normal subgroups
    with indices within the bound that satisfies the step conditions keeps
    z in every term, so its intersection is nontrivial.  A subgroup
    without z cannot occur in such a chain at all, which is why the
    certificate is an implication.  It tests no subgroup, so it keeps only
    how many there are of each index.
    """

    witness: Element
    index_bound: int
    depth_note: str
    all_pass: bool
    counts: tuple[int, ...]

    @property
    def checked_subgroups(self) -> int:
        return sum(self.counts)


def obstruction_certificate(p: PcPresentation, max_index: int) -> ObstructionCertificate:
    """Certificate over the normal subgroups of index <= max_index, which
    it counts (`_normal_subgroup_counts`).

    The witness is the first Hermite row of V: the class-2 scan puts V on
    central generators, so it is the first row of Z(G) meet V, the
    witness of `center_ab_report`."""
    _require_class2(p, "obstruction certification")
    if p.is_abelian():
        raise ValueError("obstruction certificates apply to nonabelian class-2 groups")
    z = p._torsion_lattice.row(0)
    return ObstructionCertificate(
        witness=z,
        index_bound=max_index,
        depth_note=(
            f"any chain of normal subgroups with indices <= {max_index} satisfying the "
            "step conditions keeps the witness in every term; its intersection is nontrivial"
        ),
        all_pass=True,  # z is V's first Hermite row
        counts=tuple(_normal_subgroup_counts(p, max_index)),
    )


def _restricted_terms(f: Filtration, h: Subgroup) -> list[Subgroup]:
    """The terms G_i meet H in the ambient coordinates, equal consecutive
    ones collapsed."""
    if h.ambient != f.ambient:
        raise ValueError("subgroup belongs to a different ambient group")
    if h.basis.rows == 0:
        raise ValueError("cannot restrict to the trivial subgroup")
    terms: list[Subgroup] = []
    for term in f.chain:
        inter = term.intersect(h)
        if not terms or terms[-1] != inter:
            terms.append(inter)
    return terms


def _restriction(f: Filtration, h: Subgroup) -> tuple[list[Subgroup], tuple[RfrsStep, ...]]:
    """The terms of the restriction of f to h, in the ambient coordinates,
    and the steps that `verify_rfrs_chain(restrict_chain(f, h))` reports,
    checked without an induced presentation, for an ambient group that
    passes the class-2 scan.  Each term K has finite index in h, so [K, K]
    has finite index in [h, h] and `rational_kernel(K)` is K meet the
    isolator of [h, h], as on h's own basis."""
    terms = _restricted_terms(f, h)
    return terms, _steps(h, terms)


def restrict_chain(f: Filtration, h: Subgroup) -> Filtration:
    """Restriction {G_i intersect H} as a filtration of H.

    The ambient of the result is the induced presentation of H; equal
    consecutive intersections collapse to one term.  When the original
    chain satisfies the step conditions, so does the restriction.  The
    `rfrs-restrict` command checks the same terms in G's coordinates
    instead (`_restriction`); this library form is its test oracle.

    Coordinates on H's basis are ordered products, not sums, so a term
    that is a lattice in G's coordinates need not be one in H's: on
    heisenberg, G_1 = <(1, 0, 2), (0, 3, 2), (0, 0, 3)> meets
    H = <(1, 1, 0), (0, 2, 0), (0, 0, 1)> in a subgroup of index 9 in H,
    whose closure on H's basis has index 3.  Such a restriction is
    refused: each term's closure on H's basis must map back into the term.
    """
    terms = _restricted_terms(f, h)
    sub = induced_presentation(h)
    rows = h.basis_elements()
    local_terms: list[Subgroup] = []
    for k, inter in enumerate(terms):
        local_rows = []
        for v in inter.basis_elements():
            exps = express_in_basis(h, v)
            if exps is None:  # pragma: no cover - intersections stay inside h
                raise RuntimeError("intersection element escaped the subgroup basis")
            local_rows.append(exps)
        local = subgroup_closure(sub, local_rows)
        if not all(inter.contains(_ordered_product(h.ambient, rows, r)) for r in local.basis_elements()):
            raise ValueError(f"restricted term {k} is not a lattice on the subgroup's Hermite basis")
        local_terms.append(local)
    return Filtration(sub, tuple(local_terms))
