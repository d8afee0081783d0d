"""Verification of RFRS-style filtration conditions and obstruction
certificates for nonabelian class-2 groups.

A chain G = G_0 > G_1 > ... of finite-index subgroups satisfies the step
conditions when each term is normal in G and contains the kernel of the
previous term's rational abelianization map.  An element has torsion
abelianization image precisely when some power of it is a product of
commutators, so that kernel is `subgroups.rational_kernel(T)`, the meet
of T with the isolator of [T, T], computed in the ambient coordinates.
Each step check takes the kernel of the previous term.  For T of finite
index that kernel is T meet V, V the kernel of G -> G^ab tensor Q, one
lattice per presentation, built once.  The central witness z is the
first Hermite row of Z(G) meet V, so for every finite-index T that holds
z, z lies in `rational_kernel(T)`: the witness check in every term of a
verified chain is a membership test.  Only `restrict_chain` builds an
induced presentation, because it returns a filtration of H on H's own
basis.

The obstruction certificate is the census of normal subgroups up to an
index bound plus one fact, z in V; `ObstructionCertificate` states why
that traps the witness in every conditioned chain within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import lattice_member
from .pcgroups import PcPresentation, Element
from .subgroups import (
    Subgroup,
    _require_class2,
    center_ab_report,
    enumerate_normal_subgroups,
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
        if self.chain[0] != Subgroup.whole_group(self.ambient):
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


def verify_rfrs_chain(f: Filtration) -> RfrsReport:
    """Check normality, finite index, and kernel containment per step."""
    steps = tuple(
        RfrsStep(nxt.index(), nxt.is_normal(), nxt.contains_subgroup(rational_kernel(prev)))
        for prev, nxt in zip(f.chain, f.chain[1:])
    )
    # a Filtration descends, so its last term is the meet of all of them
    return RfrsReport(f, steps, all(s.passed for s in steps), f.chain[-1])


def trapped_central_witness(report: RfrsReport) -> Element | None:
    """The central witness, verified to stay in every term of the chain
    that `report` (from `verify_rfrs_chain`) checked, with torsion
    abelianization image there.

    Returns None when the ambient group is abelian (no witness exists) or
    when some term fails the trap, which a conditioned chain on a
    nonabelian class-2 group can never do.  Raises when the report shows
    the chain violating the step conditions.  Every term t has finite
    index, so `rational_kernel(t)` is t meet V, V the kernel of
    G -> G^ab tensor Q; z lies in V, so z lies in `rational_kernel(t)`
    exactly when t holds it.
    """
    f = report.filtration
    p = f.ambient
    if p.is_abelian():
        return None
    _require_class2(p, "the trapped-witness check")
    if not report.overall:
        raise ValueError("chain fails the filtration step conditions; verify first")
    z = center_ab_report(p).kernel_witness
    return z if all(t.contains(z) for t in f.chain) else None


@dataclass(frozen=True)
class ObstructionCertificate:
    """Bounded-index certificate that the witness is trapped.

    `subgroups` is the census of normal subgroups of index within the
    bound, and `all_pass` the one fact proved: the witness z lies in V,
    the kernel of G -> G^ab tensor Q.  Every census subgroup H has finite
    index, so `rational_kernel(H)` is H meet V, and z has torsion image in
    H^ab whenever H holds z.  By induction, a chain of normal subgroups
    with indices within the bound that satisfies the step conditions
    keeps z in every term, so its intersection is nontrivial.  A subgroup
    without z cannot occur in such a chain at all, which is why the
    certificate is an implication.
    """

    witness: Element
    index_bound: int
    depth_note: str
    all_pass: bool
    subgroups: tuple[Subgroup, ...]

    @property
    def checked_subgroups(self) -> int:
        return len(self.subgroups)


def obstruction_certificate(p: PcPresentation, max_index: int) -> ObstructionCertificate:
    """Certificate over the normal subgroups of index <= max_index."""
    _require_class2(p, "obstruction certification")
    if p.is_abelian():
        raise ValueError("obstruction certificates apply to nonabelian class-2 groups")
    z = center_ab_report(p).kernel_witness
    assert z is not None
    note = (
        f"any chain of normal subgroups with indices <= {max_index} satisfying the "
        "step conditions keeps the witness in every term; its intersection is nontrivial"
    )
    return ObstructionCertificate(
        witness=z,
        index_bound=max_index,
        depth_note=note,
        all_pass=lattice_member(p._torsion_lattice, z),
        subgroups=tuple(enumerate_normal_subgroups(p, max_index)),
    )


def restrict_chain(f: Filtration, h: Subgroup) -> Filtration:
    """Restriction {G_i intersect H} as a filtration of H.

    The ambient of the result is the induced presentation of H; equal
    consecutive intersections collapse to one term.  When the original
    chain satisfies the step conditions, so does the restriction.
    """
    if h.ambient != f.ambient:
        raise ValueError("subgroup belongs to a different ambient group")
    if h.basis.rows == 0:
        raise ValueError("cannot restrict to the trivial subgroup")
    sub = induced_presentation(h)
    local_terms: list[Subgroup] = []
    for term in f.chain:
        inter = term.intersect(h)
        local_rows = []
        for v in inter.basis_elements():
            exps = express_in_basis(h, v)
            if exps is None:  # pragma: no cover - intersections stay inside h
                raise RuntimeError("intersection element escaped the subgroup basis")
            local_rows.append(exps)
        local = subgroup_closure(sub, local_rows)
        if not local_terms or local_terms[-1] != local:
            local_terms.append(local)
    return Filtration(sub, tuple(local_terms))
