import collections
import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfrskit import intlinalg, rfrs, subgroups
from rfrskit.cli import main
from rfrskit.intlinalg import IntMatrix, det, hnf_basis, lattice_member, left_kernel
from rfrskit.pcgroups import (
    PcPresentation,
    abelianization,
    build_standard,
    direct_product,
    free_abelian,
    heisenberg,
    presentation_from_text,
    unitriangular,
)
from rfrskit.rfrs import (
    Filtration,
    RfrsReport,
    obstruction_certificate,
    restrict_chain,
    trapped_central_witness,
    verify_rfrs_chain,
)
from rfrskit.subgroups import (
    Subgroup,
    center,
    center_ab_report,
    enumerate_normal_subgroups,
    express_in_basis,
    induced_presentation,
    rational_kernel,
    subgroup_closure,
    _InducedBasis,
)
from tables import dense_rules, table
from test_cli import HH_CHAIN, HH_SUB
from test_intlinalg import reference_saturate
from test_subgroups import CENSUS_CASES, CENTER_CASES, INTERLEAVED_TABLES, isolator, map_into_ambient

H = heisenberg()
X, Y, Z = H.generator(0), H.generator(1), H.generator(2)


def scaled_lattice(p, k):
    return Subgroup.from_lattice(p, [[k if i == j else 0 for j in range(p.n)] for i in range(p.n)])


def heisenberg_chain():
    return Filtration.from_subgroups(
        H,
        [
            Subgroup.whole_group(H),
            subgroup_closure(H, [H.power(X, 2), Y, Z]),
            subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), Z]),
        ],
    )


# ---------------------------------------------------------------- validation


def test_filtration_requires_whole_group_start():
    with pytest.raises(ValueError):
        Filtration.from_subgroups(H, [subgroup_closure(H, [H.power(X, 2), Y, Z])])


def test_filtration_rejects_non_descending():
    a = subgroup_closure(H, [H.power(X, 2), Y, Z])
    b = subgroup_closure(H, [X, H.power(Y, 2), Z])
    with pytest.raises(ValueError):
        Filtration.from_subgroups(H, [Subgroup.whole_group(H), a, b])


def test_filtration_rejects_rank_deficient():
    with pytest.raises(ValueError):
        Filtration.from_subgroups(H, [Subgroup.whole_group(H), subgroup_closure(H, [X, Z])])


# ------------------------------------------------------------------ verify


def test_verify_abelian_congruence_chain():
    p = free_abelian(2)
    f = Filtration.from_subgroups(
        p, [Subgroup.whole_group(p), scaled_lattice(p, 2), scaled_lattice(p, 4)]
    )
    report = verify_rfrs_chain(f)
    assert report.overall
    assert [s.index for s in report.steps] == [4, 16]
    assert report.intersection == scaled_lattice(p, 4)


def test_verify_heisenberg_good_step():
    f = Filtration.from_subgroups(
        H, [Subgroup.whole_group(H), subgroup_closure(H, [H.power(X, 2), Y, Z])]
    )
    report = verify_rfrs_chain(f)
    assert report.overall
    assert report.intersection.contains(Z)


def test_verify_heisenberg_bad_step():
    bad = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), H.power(Z, 2)])
    f = Filtration.from_subgroups(H, [Subgroup.whole_group(H), bad])
    report = verify_rfrs_chain(f)
    assert not report.overall
    assert report.steps[0].normal_in_g
    assert not report.steps[0].kernel_contained


def test_kernel_subgroup_is_z_line():
    assert rational_kernel(Subgroup.whole_group(H)).basis.to_rows() == [[0, 0, 1]]


def test_verify_soundness_against_coset_bruteforce():
    """Step condition <=> every coset representative with torsion image in
    the term's abelianization lies in the next term (index <= 16)."""
    chains = [heisenberg_chain()]
    bad = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), H.power(Z, 2)])
    chains.append(Filtration.from_subgroups(H, [Subgroup.whole_group(H), bad]))
    for f in chains:
        report = verify_rfrs_chain(f)
        for k in range(len(f.chain) - 1):
            term, nxt = f.chain[k], f.chain[k + 1]
            sub = induced_presentation(term)
            # enumerate coset representatives of nxt inside term by BFS
            reps = [H.identity()]
            frontier = [H.identity()]
            gens = term.basis_elements()
            while frontier:
                cur = frontier.pop()
                for g in list(gens) + [H.inverse(g) for g in gens]:
                    w = H.multiply(cur, g)
                    if not any(
                        nxt.contains(H.multiply(H.inverse(w), r)) for r in reps
                    ):
                        reps.append(w)
                        frontier.append(w)
                assert len(reps) <= 16
            brute = all(
                nxt.contains(w)
                for w in reps
                if abelianization(sub).is_torsion(express_in_basis(term, w))
            )
            assert brute == report.steps[k].kernel_contained


# ---------------------------------------------------------- trapped witness


def test_trapped_witness_heisenberg_chain():
    z = trapped_central_witness(verify_rfrs_chain(heisenberg_chain()))
    assert z == (0, 0, 1)


def test_trapped_witness_orders_along_chain():
    f = heisenberg_chain()
    orders = []
    for term in f.chain:
        local = express_in_basis(term, (0, 0, 1))
        orders.append(abelianization(induced_presentation(term)).image_order(local))
    assert orders == [1, 2, 4]


def test_trapped_witness_trivial_chain():
    f = Filtration.from_subgroups(H, [Subgroup.whole_group(H)])
    assert trapped_central_witness(verify_rfrs_chain(f)) == (0, 0, 1)


def test_trapped_witness_abelian_none():
    p = free_abelian(2)
    f = Filtration.from_subgroups(p, [Subgroup.whole_group(p), scaled_lattice(p, 2)])
    assert trapped_central_witness(verify_rfrs_chain(f)) is None


def test_trapped_witness_requires_valid_chain():
    bad = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), H.power(Z, 2)])
    f = Filtration.from_subgroups(H, [Subgroup.whole_group(H), bad])
    with pytest.raises(ValueError):
        trapped_central_witness(verify_rfrs_chain(f))


def test_refused_trap_walks_no_centre(monkeypatch):
    """A report that fails the step conditions is refused before the
    centre is computed."""
    bad = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), H.power(Z, 2)])
    report = verify_rfrs_chain(Filtration.from_subgroups(H, [Subgroup.whole_group(H), bad]))
    assert not report.overall
    calls = []

    def counted(p):
        calls.append(p)
        return center(p)

    monkeypatch.setattr(subgroups, "center", counted)
    with pytest.raises(ValueError, match="chain fails the filtration step conditions"):
        trapped_central_witness(report)
    assert calls == []


def test_verify_then_trap_computes_each_kernel_once(tmp_path, monkeypatch, capsys):
    """`rfrs-verify` on a passing 4-term chain takes the rational kernel of
    each term but the last once, in the step checks; the witness check
    takes none.  The report bytes do not change."""
    path = tmp_path / "chain4.txt"
    path.write_text(
        "1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 1 0\n0 0 1\n\n"
        "2 0 0\n0 2 0\n0 0 1\n\n4 0 0\n0 2 0\n0 0 1\n"
    )
    args = ["rfrs-verify", "--group", "heisenberg", "--chain", str(path), "--json"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    calls = []

    def counted(s):
        calls.append(s)
        return rational_kernel(s)

    monkeypatch.setattr(rfrs, "rational_kernel", counted)
    assert main(args) == 0
    assert capsys.readouterr().out == plain
    assert [s.index() for s in calls] == [1, 2, 4]
    report = json.loads(plain)
    assert report["overall"] and report["witness"] == [0, 0, 1]
    assert [s["index"] for s in report["steps"]] == [2, 4, 8]


def _in_span_by_rank(s, z):
    """Reference span test: z is in the rational span of the basis-pair
    commutators of s exactly when adding it leaves their Hermite rank as
    it is."""
    p = s.ambient
    vecs = s.basis_elements()
    comms = [p.commutator(v, u) for i, u in enumerate(vecs) for v in vecs[i + 1 :]]
    rank = hnf_basis(IntMatrix.from_rows(comms) if comms else IntMatrix(0, p.n, ())).rows
    return hnf_basis(IntMatrix.from_rows(comms + [z])).rows == rank


def _trapped_by_kernels(report):
    """Reference trap: the witness lies in the rational kernel of every
    term but the last, and in the last term with a rank comparison."""
    z = center_ab_report(report.filtration.ambient).kernel_witness
    if z is None:
        return None
    if not report.overall:
        raise ValueError("chain fails the step conditions")
    *init, last = report.filtration.chain
    trapped = all(rational_kernel(t).contains(z) for t in init)
    return z if trapped and last.contains(z) and _in_span_by_rank(last, z) else None


def _census_meet_chains(p, bound, count, rng):
    """Chains whose terms are running meets of random census subgroups."""
    census = enumerate_normal_subgroups(p, bound)
    chains = []
    for _ in range(count):
        terms = [Subgroup.whole_group(p)]
        for s in rng.sample(census, rng.randint(1, 3)):
            meet = terms[-1].intersect(s)
            if meet != terms[-1]:
                terms.append(meet)
        chains.append(Filtration.from_subgroups(p, terms))
    return chains


def _trap_or_raise(trap, report):
    try:
        return trap(report)
    except ValueError:
        return "raises"


def test_trapped_witness_matches_kernel_route():
    """The membership test per term against the kernel route, on chains of
    meets of census subgroups: as verified, and with the report forced to
    pass, so that terms without the witness reach the trap.  A verified
    passing chain always traps the central witness: each step keeps the
    previous term's rational kernel, which holds z whenever the term does
    (the paper's induction)."""
    rng = random.Random(7)
    chains = _census_meet_chains(H, 16, 60, rng)
    for p in (direct_product(H, free_abelian(1)), direct_product(free_abelian(1), H)):
        chains += _census_meet_chains(p, 8, 30, rng)
    seen = set()
    for f in chains:
        report = verify_rfrs_chain(f)
        forced = dataclasses.replace(report, overall=True)
        for r in (report, forced):
            got = _trap_or_raise(trapped_central_witness, r)
            assert got == _trap_or_raise(_trapped_by_kernels, r)
            seen.add((r.overall, got is None, got == "raises"))
        if report.overall:
            z = center_ab_report(f.ambient).kernel_witness
            assert z is not None and trapped_central_witness(report) == z
    assert {(True, False, False), (True, True, False), (False, False, True)} <= seen
    p = free_abelian(2)
    abelian = verify_rfrs_chain(Filtration.from_subgroups(p, [Subgroup.whole_group(p), scaled_lattice(p, 2)]))
    assert trapped_central_witness(abelian) is None and _trapped_by_kernels(abelian) is None
    bad = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), H.power(Z, 2)])
    failing = verify_rfrs_chain(Filtration.from_subgroups(H, [Subgroup.whole_group(H), bad]))
    assert _trap_or_raise(trapped_central_witness, failing) == "raises"
    assert _trap_or_raise(_trapped_by_kernels, failing) == "raises"


# ------------------------------------------------------------- certificate


def _torsion_image_oracle(sub_pres, local):
    """Rational-rank oracle: the image is torsion iff the vector lies in
    the Q-row space of the commutator relations (Fraction elimination)."""
    rows = [list(vec) for vec in dense_rules(sub_pres).values()]
    n = sub_pres.n

    def rank(mat):
        mat = [[Fraction(x) for x in row] for row in mat]
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            for i in range(len(mat)):
                if i != r and mat[i][col]:
                    f = mat[i][col] / mat[r][col]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
        return r

    return rank(rows + [list(local)]) == rank(rows) if rows else not any(local)


def _rational_kernel_by_induced_presentation(s):
    """Reference kernel of s -> s^ab tensor Q: the isolator of the derived
    subgroup of the induced presentation, mapped back to the ambient group."""
    sub = induced_presentation(s)
    derived = Subgroup.from_lattice(sub, list(dense_rules(sub).values()))
    isolated = isolator(sub, derived)
    return subgroup_closure(s.ambient, [map_into_ambient(s, v) for v in isolated.basis_elements()])


def _rational_kernel_by_meet(s):
    """Reference kernel as s meet isolator([s, s]), with [s, s] the closure
    of the basis-pair commutators."""
    p = s.ambient
    vecs = s.basis_elements()
    comms = [p.commutator(u, v) for i, u in enumerate(vecs) for v in vecs[i + 1 :]]
    return s.intersect(isolator(p, subgroup_closure(p, comms)))


def _random_class2_tables(seed, count):
    """Four generators: the first two or three noncentral, with random
    commutator values in the rest."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        k = rng.choice([2, 3])
        rules = {}
        for i, j in itertools.combinations(range(k), 2):
            val = tuple(rng.randint(-2, 2) for _ in range(k, 4))
            if any(val):
                rules[(i, j)] = (0,) * k + val
        if rules:
            tables.append(table(4, rules))
    return tables


def test_rational_kernel_matches_induced_route():
    """Subgroups of finite and of infinite index against the three
    references and the torsion oracle, among them closures of random
    elements and the rows k e_i, which have finite index but need not be
    normal."""
    hz = direct_product(H, free_abelian(1))
    zh = direct_product(free_abelian(1), H)  # its central coordinate comes first
    hh = direct_product(H, H)
    tables = _random_class2_tables(13, 6)
    groups = [H, hz, zh, hh] + tables
    rng = random.Random(11)
    subs = enumerate_normal_subgroups(H, 16) + enumerate_normal_subgroups(hz, 6)
    subs += enumerate_normal_subgroups(zh, 6) + enumerate_normal_subgroups(hh, 3)
    subs += [s for p in tables for s in enumerate_normal_subgroups(p, 4)]
    infinite = [subgroup_closure(H, gens) for gens in ([X, Z], [X], [X, H.power(Z, 2)])]
    for p in groups:
        subs.append(Subgroup.whole_group(p))
        infinite.append(Subgroup.trivial(p))
        for _ in range(15):
            gens = [tuple(rng.randint(-2, 2) for _ in range(p.n)) for _ in range(2)]
            s = subgroup_closure(p, gens)
            (subs if s.is_full_rank() else infinite).append(s)
    full_rng = random.Random(17)
    for p in groups:
        for _ in range(12):
            gens = [tuple(full_rng.randint(-3, 3) for _ in range(p.n)) for _ in range(full_rng.randint(1, 3))]
            gens += [tuple(full_rng.randint(1, 4) if j == i else 0 for j in range(p.n)) for i in range(p.n)]
            subs.append(subgroup_closure(p, gens))
    assert not any(s.is_full_rank() for s in infinite)
    witness = {p: center_ab_report(p).kernel_witness for p in groups}
    for s in subs + infinite:
        kernel = rational_kernel(s)
        assert kernel == _rational_kernel_by_induced_presentation(s)
        assert kernel == _rational_kernel_by_meet(s)
        assert kernel == _rational_kernel_full_width(s)
        z = witness[s.ambient]
        if s.contains(z):
            local = express_in_basis(s, z)
            assert kernel.contains(z) == _torsion_image_oracle(induced_presentation(s), local)
        else:
            assert not kernel.contains(z)


def _rational_kernel_full_width(s):
    """Reference kernel from s's own commutators rather than the group's
    lattice V: s meet the rational span of the basis-pair commutators, by
    an integer kernel of the commutators and one of the basis against it,
    each with its transform."""
    p = s.ambient
    vecs = s.basis_elements()
    comms = [p.commutator(v, u) for i, u in enumerate(vecs) for v in vecs[i + 1 :]]
    perp = left_kernel(IntMatrix(len(comms), p.n, tuple(x for w in comms for x in w)).transpose())
    ker = left_kernel(s.basis @ perp.transpose())
    return Subgroup(p, hnf_basis(ker @ s.basis))


def _doubled_filiform5():
    """Class 4: [g_j, g_0] = g_(j+1)^2 for j = 1..3, so V is spanned by
    e_2, e_3, e_4 while the rule values span only twice that."""
    return PcPresentation(5, {(0, j): ((j + 1, 2),) for j in range(1, 4)})


POWER_TEST_GROUPS = [
    ("ut(4)", lambda: unitriangular(4)),
    ("ut(5)", lambda: unitriangular(5)),
    ("direct_product(ut(4),heisenberg)", lambda: direct_product(unitriangular(4), H)),
    ("doubled filiform(5)", _doubled_filiform5),
]


@pytest.mark.parametrize("name,build", POWER_TEST_GROUPS, ids=[c[0] for c in POWER_TEST_GROUPS])
def test_torsion_lattice_is_the_rational_kernel_in_class_3_and_4(name, build):
    """For H of finite index in a class >= 3 group, ker(H -> H^ab tensor Q)
    is H meet V: h in H has a power in [H, H] exactly when h lies in
    `_torsion_lattice`.  Each H is the closure of g_k^(m_k), 1 <= m_k <= 3,
    and two random elements; [H, H] is the closure of the slot commutators
    under the slots, and h^L with L = lcm(1..40) stands for "a power of h".
    Half the samples are products of the slots that lie in V, so that each
    kind comes up: outside V, in [H, H], and in V but not in [H, H]."""
    p = build()
    v_lattice = p._torsion_lattice
    big = math.lcm(*range(1, 41))
    rng = random.Random(12)
    kinds = set()
    for _ in range(15):
        h = _InducedBasis(p)
        for k in range(p.n):
            h.sift(p.power(p.generator(k), rng.randint(1, 3)))
        for _ in range(2):
            h.sift(tuple(rng.randint(-2, 2) for _ in range(p.n)))
        h.close()
        slots = h.vectors()
        derived = _InducedBasis(p)
        for a, b in itertools.combinations(slots, 2):
            derived.sift(p.commutator(a, b))
        derived.close(slots)
        in_v = [u for u in slots if lattice_member(v_lattice, u)]
        for i in range(12):
            x = p.identity()
            for u in in_v if i % 2 else slots:
                x = p.multiply(x, p.power(u, rng.randint(-2, 2)))
            member = lattice_member(v_lattice, x)
            assert (not any(derived.reduce(p.power(x, big)))) == member
            kinds.add("in [H, H]" if not any(derived.reduce(x)) else "in V only" if member else "outside V")
    assert kinds == {"outside V", "in [H, H]", "in V only"}


def _intersect_by_kernel(s, t):
    """Reference meet: the left kernel of [B1; -B2], its first block of
    coefficients times B1, brought to Hermite form."""
    b1, b2 = s.basis, t.basis
    rows = b1.to_rows() + [[-x for x in row] for row in b2.to_rows()]
    ker = left_kernel(IntMatrix(len(rows), b1.cols, tuple(x for r in rows for x in r)))
    coeffs = IntMatrix(ker.rows, b1.rows, tuple(x for i in range(ker.rows) for x in ker.row(i)[: b1.rows]))
    return Subgroup(s.ambient, hnf_basis(coeffs @ b1))


def _census_cases():
    """(group, census) pairs: heisenberg to 32, H x Z and Z x H to 8 (the
    central coordinate of Z x H comes first), the two tables of
    `CENSUS_CASES` whose central generators sit between the others to 8,
    H x H to 4 and six random class-2 tables to 4."""
    cases = [(H, 32), (direct_product(H, free_abelian(1)), 8), (direct_product(free_abelian(1), H), 8)]
    cases += [(CENSUS_CASES[name][0], 8) for name in ("4 2 / 1 3 : 2", "4 2 / 2 3 : 3")]
    cases += [(direct_product(H, H), 4)] + [(p, 4) for p in _random_class2_tables(13, 6)]
    return [(p, enumerate_normal_subgroups(p, bound)) for p, bound in cases]


def test_central_coordinates_match_full_width_references():
    """`rational_kernel` against the kernel built from each subgroup's own
    commutators, and `intersect` against a kernel reference, on every
    census subgroup and on random closures holding the witness, which
    need not be normal or of finite index; the kernels and meets must be
    equal as bases.  The kernel holds the witness in
    every finite-index subgroup that does, and only infinite index can
    drop it."""
    rng = random.Random(5)
    verdicts = set()
    for p, census in _census_cases():
        z = center_ab_report(p).kernel_witness
        subs = list(census)
        for _ in range(20):
            gens = [tuple(rng.randint(-2, 2) for _ in range(p.n)) for _ in range(rng.randint(1, 3))]
            subs.append(subgroup_closure(p, gens + [z]))
        for s in subs:
            reference = _rational_kernel_full_width(s)
            assert rational_kernel(s) == reference
            if s.contains(z):
                inside = reference.contains(z)
                verdicts.add(inside)
                assert inside or not s.is_full_rank()
        for s, t in zip(census, census[1:] + census[:1]):
            assert s.intersect(t) == _intersect_by_kernel(s, t)
            u = rng.choice(subs)
            assert s.intersect(u) == _intersect_by_kernel(s, u)
    assert verdicts == {True, False}


_MEET_GROUPS = [H, direct_product(free_abelian(1), H), direct_product(H, H)] + _random_class2_tables(3, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersect_matches_kernel_reference(data):
    p = data.draw(st.sampled_from(_MEET_GROUPS))
    vec = st.tuples(*[st.integers(-3, 3)] * p.n)
    s = subgroup_closure(p, data.draw(st.lists(vec, max_size=3)))
    t = subgroup_closure(p, data.draw(st.lists(vec, max_size=3)))
    meet = s.intersect(t)
    assert meet == _intersect_by_kernel(s, t) == t.intersect(s)
    assert s.contains_subgroup(meet) and t.contains_subgroup(meet)



def test_nested_meets_return_the_smaller_operand():
    """For s inside t, both s.intersect(t) and t.intersect(s) are s itself
    (when s == t, one of the two), equal to the kernel reference: census
    subgroups of H against the whole group, the trivial subgroup and each
    other."""
    census = enumerate_normal_subgroups(H, 8)
    subs = [Subgroup.trivial(H), Subgroup.whole_group(H)] + census
    proper = 0
    for s in subs:
        for t in subs:
            if t.contains_subgroup(s):
                for meet in (s.intersect(t), t.intersect(s)):
                    assert meet is s or (meet is t and t == s)
                assert s == _intersect_by_kernel(s, t)
                proper += s != t and s.rank() and t.index() > 1
    assert proper > 50


def test_subgroup_basis_is_brought_to_hermite_form():
    """A basis given in another form is replaced by its Hermite basis, so
    a subgroup equals itself however its basis was written, and a nested
    meet, which returns an operand as it is, gives the same value."""
    whole = Subgroup.whole_group(H)
    s = Subgroup(H, IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert s.basis == IntMatrix.identity(3) and s == whole
    assert whole.intersect(s) == whole == s.intersect(whole)
    t = Subgroup(H, IntMatrix.from_rows([[0, 0, 0], [0, -2, 4], [2, 0, 0], [0, 0, 2]]))
    assert t.basis == IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert whole.intersect(t) is t and t.intersect(s) is t


# 5 2 / 1 2 : 1 -1 0 / 1 3 : 0 1 / 1 4 : 1 is nonabelian of class 2, but
# [g2, g1] = g3 g4^-1 lands on the noncentral g3
NONCENTRAL_VALUES = presentation_from_text("5 2\n1 2 : 1 -1 0\n1 3 : 0 1\n1 4 : 1\n")


def test_certificates_name_the_central_value_condition():
    p = NONCENTRAL_VALUES
    assert p.nilpotency_class == 2 and not p.is_abelian()
    refusal = "supports nilpotency class <= 2 only, with commutator values on central generators"
    with pytest.raises(ValueError, match=refusal):
        obstruction_certificate(p, 4)
    g = Subgroup.whole_group(p)
    report = RfrsReport(Filtration(p, (g,)), (), True, g)
    with pytest.raises(ValueError, match=refusal):
        trapped_central_witness(report)
    with pytest.raises(ValueError, match="nonabelian class-2"):
        obstruction_certificate(free_abelian(2), 4)


def _index_counts(subs, bound):
    """The number of subgroups of each index 1, ..., bound in a listing."""
    counts = collections.Counter(int(s.index()) for s in subs)
    return tuple(counts[k] for k in range(1, bound + 1))


def test_certificate_heisenberg_max8():
    cert = obstruction_certificate(H, 8)
    subs = enumerate_normal_subgroups(H, 8)
    assert cert.all_pass
    assert cert.witness == (0, 0, 1)
    assert cert.counts == _index_counts(subs, 8)
    assert cert.checked_subgroups == len(subs)
    for sub in subs:
        assert sub == Subgroup.from_lattice(H, sub.basis.to_rows())
        if sub.contains((0, 0, 1)):
            local = express_in_basis(sub, (0, 0, 1))
            assert _torsion_image_oracle(induced_presentation(sub), local)


@pytest.mark.parametrize(
    "p, bound", [(direct_product(H, free_abelian(1)), 8), (direct_product(free_abelian(1), H), 6)], ids=["HxZ", "ZxH"]
)
def test_certificate_records_match_torsion_oracle(p, bound):
    """The certificate reads torsion off membership; the Fraction-rank
    oracle on the induced presentation of each census subgroup holding the
    witness must agree.  The central coordinate of Z x H comes first."""
    cert = obstruction_certificate(p, bound)
    subs = enumerate_normal_subgroups(p, bound)
    assert cert.all_pass
    assert cert.counts == _index_counts(subs, bound)
    z = cert.witness
    assert any(s.contains(z) for s in subs)
    for sub in subs:
        if sub.contains(z):
            local = express_in_basis(sub, z)
            assert _torsion_image_oracle(induced_presentation(sub), local)


def test_certificate_exists_subgroup_without_witness_at_8():
    # the all-even lattice is normal of index 8 and omits z: the reason the
    # certificate is stated as an implication
    cert = obstruction_certificate(H, 8)
    subs = enumerate_normal_subgroups(H, 8)
    assert cert.counts == _index_counts(subs, 8)
    missing = [s for s in subs if not s.contains(cert.witness)]
    assert missing
    assert all(s.index() == 8 for s in missing)
    assert cert.all_pass


def test_certificate_small_indices_contain_witness():
    cert = obstruction_certificate(H, 4)
    subs = enumerate_normal_subgroups(H, 4)
    assert cert.counts == _index_counts(subs, 4)
    assert cert.all_pass
    assert all(s.contains(cert.witness) for s in subs)


def test_certificate_trivial_bound():
    cert = obstruction_certificate(H, 1)
    assert cert.all_pass and cert.checked_subgroups == 1


def test_certificate_all_bounds_up_to_8():
    for bound in range(1, 9):
        cert = obstruction_certificate(H, bound)
        assert cert.all_pass, f"certificate failed at bound {bound}"
        assert cert.witness == (0, 0, 1)


def test_certificate_direct_product():
    p = direct_product(H, free_abelian(1))
    cert = obstruction_certificate(p, 4)
    assert cert.all_pass
    assert cert.witness == (0, 0, 1, 0)


def test_certificate_rejects_abelian():
    with pytest.raises(ValueError):
        obstruction_certificate(free_abelian(2), 4)


def test_class2_table_declared_class_3_is_admitted():
    """The table admits the class-2 machinery: a presentation built from
    heisenberg's rules, once declarable as class 3, gets heisenberg's
    closure, census, trapped witness and certificate."""
    p = PcPresentation(3, H.rules)
    gens = [H.power(X, 2), Y]
    assert subgroup_closure(p, gens).basis == subgroup_closure(H, gens).basis
    census = enumerate_normal_subgroups(p, 8)
    assert len(census) == 60
    assert [s.basis for s in census] == [s.basis for s in enumerate_normal_subgroups(H, 8)]
    chain = Filtration.from_subgroups(p, [Subgroup(p, t.basis) for t in heisenberg_chain().chain])
    assert trapped_central_witness(verify_rfrs_chain(chain)) == (0, 0, 1)
    cert = obstruction_certificate(p, 8)
    assert (cert.witness, cert.all_pass, cert.checked_subgroups) == ((0, 0, 1), True, 60)


# -------------------------------------------------------------- restriction


def test_restrict_abelian_to_summand():
    p = free_abelian(2)
    f = Filtration.from_subgroups(p, [Subgroup.whole_group(p), scaled_lattice(p, 2)])
    h = Subgroup.from_lattice(p, [[1, 0]])
    g = restrict_chain(f, h)
    assert g.ambient.n == 1
    assert [s.basis.to_rows() for s in g.chain] == [[[1]], [[2]]]
    assert verify_rfrs_chain(g).overall


def test_restrict_collapses_to_subgroup():
    sub = subgroup_closure(H, [H.power(X, 2), Y, Z])
    f = Filtration.from_subgroups(H, [Subgroup.whole_group(H), sub])
    g = restrict_chain(f, sub)
    assert len(g.chain) == 1
    assert verify_rfrs_chain(g).overall


def test_restrict_free_abelian3_to_rank2():
    p = free_abelian(3)
    f = Filtration.from_subgroups(
        p, [Subgroup.whole_group(p), scaled_lattice(p, 2), scaled_lattice(p, 4)]
    )
    h = Subgroup.from_lattice(p, [[1, 0, 0], [0, 1, 0]])
    g = restrict_chain(f, h)
    assert verify_rfrs_chain(g).overall
    orig = [s.index for s in verify_rfrs_chain(f).steps]
    restr = [s.index for s in verify_rfrs_chain(g).steps]
    for o, r in zip(orig, restr):
        assert o % r == 0


def test_restrict_heisenberg_chain_to_index2():
    f = heisenberg_chain()
    h = subgroup_closure(H, [H.power(X, 2), Y, Z])
    g = restrict_chain(f, h)
    assert verify_rfrs_chain(g).overall


def test_inheritance_randomized():
    rng = random.Random(20260810)
    p = free_abelian(3)
    for _ in range(20):
        chain = [Subgroup.whole_group(p)]
        cur = IntMatrix.identity(3)
        for _ in range(rng.randint(1, 3)):
            # triangular scale with positive diagonal: nonsingular, nested
            scale = [
                [rng.choice([1, 2, 3]) if i == j else (rng.randint(0, 1) if j > i else 0) for j in range(3)]
                for i in range(3)
            ]
            cur = IntMatrix.from_rows(scale) @ cur
            cand = Subgroup.from_lattice(p, cur.to_rows())
            if cand != chain[-1]:
                chain.append(cand)
        if len(chain) == 1:
            continue
        f = Filtration.from_subgroups(p, chain)
        assert verify_rfrs_chain(f).overall
        h_rows = [[rng.choice([1, 2]) if i == j else 0 for j in range(3)] for i in range(3)]
        h = Subgroup.from_lattice(p, h_rows)
        g = restrict_chain(f, h)
        assert verify_rfrs_chain(g).overall
    # and the documented nonabelian example
    for h in enumerate_normal_subgroups(H, 8):
        g = restrict_chain(heisenberg_chain(), h)
        assert verify_rfrs_chain(g).overall


def test_restrict_ambient_mismatch():
    f = heisenberg_chain()
    with pytest.raises(ValueError):
        restrict_chain(f, Subgroup.whole_group(free_abelian(3)))


# Q2(P4), the class-2 quotient of the path graph group on four vertices
Q2P4 = presentation_from_text("7 2\n1 3 : 0 1 0 0\n1 4 : 0 1 0\n2 4 : 0 0 1\n")

RESTRICT_GROUPS = {
    "heisenberg": H,
    "HxZ": direct_product(H, free_abelian(1)),
    # the central coordinate comes first
    "ZxH": direct_product(free_abelian(1), H),
    "HxH": direct_product(H, H),
    "Q2(P4)": Q2P4,
    **{f"random-{k}": p for k, p in enumerate(_random_class2_tables(29, 2))},
    "free_abelian(3)": free_abelian(3),
}


def _random_full_rank_closure(p, rng):
    rows = [
        [rng.choice([1, 1, 2, 3]) if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(p.n)]
        for i in range(p.n)
    ]
    return subgroup_closure(p, rows)


def _random_meet_chain(p, rng):
    """1-4 running meets of random full-rank closures, repeats dropped."""
    while True:
        terms = [Subgroup.whole_group(p)]
        for _ in range(rng.randint(1, 4)):
            meet = terms[-1].intersect(_random_full_rank_closure(p, rng))
            if meet != terms[-1]:
                terms.append(meet)
        if len(terms) > 1:
            return Filtration.from_subgroups(p, terms)


def _random_nontrivial_closure(p, rng):
    """The closure of p.n random vectors (most often full rank) or of fewer
    (infinite index)."""
    while True:
        k = p.n if rng.random() < 0.6 else rng.randint(1, p.n - 1)
        h = subgroup_closure(p, [[rng.randint(-2, 2) for _ in range(p.n)] for _ in range(k)])
        if h.rank():
            return h


def _restriction_reference(f, h):
    """The terms and steps of the restriction of f to h, in G's coordinates,
    with nothing from `rfrs._steps`: terms by `_intersect_by_kernel`,
    indices by Gram determinants ([h : k]^2 = det(K K^T) / det(B B^T)),
    normality by conjugating each Hermite row of a term by each Hermite row
    of h and its inverse, and kernels by `_intersect_by_kernel` with the
    two-kernel saturation of the commutators of h's Hermite rows."""
    p = h.ambient
    terms = []
    for t in f.chain:
        inter = _intersect_by_kernel(t, h)
        if not terms or terms[-1] != inter:
            terms.append(inter)
    rows = h.basis_elements()
    comms = [c for i, a in enumerate(rows) for b in rows[i + 1 :] if any(c := p.commutator(b, a))]
    v_h = Subgroup(p, reference_saturate(IntMatrix.from_rows(comms))) if comms else None

    def gram(s):
        return det(s.basis @ s.basis.transpose())

    steps = []
    for prev, nxt in zip(terms, terms[1:]):
        square, rem = divmod(gram(nxt), gram(h))
        index = math.isqrt(square)
        assert not rem and index * index == square
        normal = all(
            nxt.contains(p.conjugate(k, g))
            for k in nxt.basis_elements() for b in rows for g in (b, p.inverse(b))
        )
        kernel = v_h is None or nxt.contains_subgroup(_intersect_by_kernel(prev, v_h))
        steps.append(rfrs.RfrsStep(index, normal, kernel))
    return terms, tuple(steps)


def test_restriction_steps_match_the_induced_presentation_route():
    """The command's restriction check, in G's coordinates, against
    `verify_rfrs_chain(restrict_chain(f, h))` on H's induced presentation:
    steps, overall, restricted length and rank, on 1200 seeded cases over
    eight groups, where a passing chain must restrict to a passing one, with chains of 1-4 meets of random full-rank closures and
    H a random closure of finite or infinite index.  The inputs that
    `restrict_chain` refuses (an induced table off the class-2 scan on
    H x H, or a term that is no lattice on H's basis) and every tenth other
    one go to `_restriction_reference`."""
    rng = random.Random(34)
    seen = set()
    cases = refused = 0
    for name, p in RESTRICT_GROUPS.items():
        for i in range(150):
            f, h = _random_meet_chain(p, rng), _random_nontrivial_closure(p, rng)
            terms, steps = rfrs._restriction(f, h)
            cases += 1
            # the inheritance property: a passing chain restricts to a passing one
            assert all(s.passed for s in steps) or not verify_rfrs_chain(f).overall
            seen.add("infinite index" if not h.is_full_rank() else "finite index")
            seen.add("passes" if all(s.passed for s in steps) else "fails")
            if not all(s.normal_in_g for s in steps):
                seen.add("not normal")
            try:
                g = restrict_chain(f, h)
            except ValueError:
                refused += 1
                seen.add(f"refused on {name}")
                assert _restriction_reference(f, h) == (terms, steps), name
                continue
            rep = verify_rfrs_chain(g)
            assert rep.steps == steps, name
            assert rep.overall == all(s.passed for s in steps)
            assert len(g.chain) == len(terms)
            assert g.ambient.n == h.rank() == rep.intersection.rank() == terms[-1].rank()
            if i % 10 == 0:
                assert _restriction_reference(f, h) == (terms, steps), name
    assert cases >= 1000 and 0 < refused < 20
    assert {"infinite index", "finite index", "passes", "fails", "not normal", "refused on HxH"} <= seen


def test_restrict_chain_refuses_a_term_that_is_no_lattice_on_the_subgroup_basis(tmp_path, capsys):
    """Coordinates on H's Hermite basis are ordered products: on heisenberg,
    G_1 meet H has index 9 in H (coset enumeration), but its closure on
    H's basis has index 3.  `restrict_chain` refuses the restriction, and
    `rfrs-restrict`, which checks it in G's coordinates, reports index 9,
    not normal, kernel not contained."""
    g1 = Subgroup(H, IntMatrix.from_rows([[1, 0, 2], [0, 3, 2], [0, 0, 3]]))
    h = Subgroup(H, IntMatrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 1]]))
    assert subgroup_closure(H, g1.basis_elements()) == g1 and subgroup_closure(H, h.basis_elements()) == h
    f = Filtration.from_subgroups(H, [Subgroup.whole_group(H), g1])
    meet = g1.intersect(h)

    def same_coset(u, v):
        return meet.contains(H.multiply(H.inverse(u), v))

    reps, frontier = [H.identity()], [H.identity()]
    gens = h.basis_elements()
    while frontier:
        cur = frontier.pop()
        for g in gens + [H.inverse(g) for g in gens]:
            w = H.multiply(cur, g)
            if not any(same_coset(w, r) for r in reps):
                reps.append(w)
                frontier.append(w)
    assert len(reps) == 9
    with pytest.raises(ValueError, match="restricted term 1 is not a lattice"):
        restrict_chain(f, h)
    steps = (rfrs.RfrsStep(9, False, False),)
    assert rfrs._restriction(f, h) == ([h, meet], steps) == _restriction_reference(f, h)
    (tmp_path / "chain.txt").write_text("1 0 0\n0 1 0\n0 0 1\n\n1 0 2\n0 3 2\n0 0 3\n")
    (tmp_path / "sub.txt").write_text("1 1 0\n0 2 0\n0 0 1\n")
    args = ["rfrs-restrict", "--group", "heisenberg", "--chain", str(tmp_path / "chain.txt"),
            "--restrict-to", str(tmp_path / "sub.txt"), "--json"]
    assert main(args) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == [{"index": 9, "normal": False, "kernel_contained": False}]


# --------------------------------------------------------- V and the witness


def _class2_test_groups():
    """The nonabelian groups of these tests and of test_subgroups that pass
    the class-2 scan, each once."""
    groups = [*RESTRICT_GROUPS.values(), *_MEET_GROUPS, *_random_class2_tables(13, 6)]
    groups += [p for p, _ in CENSUS_CASES.values()] + [p for p, _ in INTERLEAVED_TABLES] + CENTER_CASES
    groups += [direct_product(H, free_abelian(1)), presentation_from_text("4 2\n1 3 : 2\n")]
    return [p for p in dict.fromkeys(groups) if p._class2 and not p.is_abelian()]


def test_torsion_lattice_is_central_and_its_first_row_is_the_witness():
    """V lies in the centre, so Z(G) meet V is V: every row of V commutes
    with every generator, and its first row is `center_ab_report`'s
    witness, which `trapped_central_witness` and `obstruction_certificate`
    return."""
    groups = _class2_test_groups()
    assert len(groups) > 60
    for p in groups:
        v = p._torsion_lattice
        gens = [p.generator(k) for k in range(p.n)]
        assert all(not any(p.commutator(v.row(i), g)) for i in range(v.rows) for g in gens)
        z = v.row(0)
        assert z == center_ab_report(p).kernel_witness
        whole = Subgroup.whole_group(p)
        assert trapped_central_witness(verify_rfrs_chain(Filtration(p, (whole,)))) == z
        assert obstruction_certificate(p, 1).witness == z


@pytest.mark.parametrize("spec", ["heisenberg", "direct_product(heisenberg,free_abelian(1))",
                                  "ut(3)", "ut(4)", "ut(5)", "ut(6)", "ut(7)"])
def test_torsion_lattice_with_unit_pivots_takes_no_smith_form(spec, monkeypatch):
    """The rule values of these groups span a lattice whose Hermite pivots
    are all 1, so V is that Hermite basis after one echelon scan."""
    calls = []
    real = intlinalg.snf
    monkeypatch.setattr(intlinalg, "snf", lambda a: calls.append(a) or real(a))
    p = build_standard(spec)
    v = p._torsion_lattice
    assert calls == [] and v == reference_saturate(IntMatrix.from_rows(list(dense_rules(p).values())))


def test_restriction_where_the_induced_table_is_off_the_class2_scan():
    """The `hh-restrict` console case: H has index 80 in H x H, and its
    Hermite basis presents it with [b1, b0] = b2^-2 b3 b5^-13, off the
    class-2 scan, so `restrict_chain` refuses it.  The check in G's
    coordinates answers, as the reference does."""
    p = direct_product(H, H)
    f = Filtration.from_subgroups(p, subgroups.chain_from_text(p, HH_CHAIN))
    h = subgroup_closure(p, [list(map(int, line.split())) for line in HH_SUB.splitlines()])
    assert h.index() == 80
    assert induced_presentation(h).rules[(0, 1)] == ((2, -2), (3, 1), (5, -13))
    with pytest.raises(ValueError, match="supports nilpotency class <= 2 only"):
        restrict_chain(f, h)
    terms, steps = rfrs._restriction(f, h)
    assert (terms, steps) == _restriction_reference(f, h)
    assert len(terms) == 2 and steps == (rfrs.RfrsStep(2, True, True),)
