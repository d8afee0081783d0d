import functools
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfrskit import subgroups
from rfrskit.errors import ResourceLimitExceeded
from rfrskit.intlinalg import (
    INFINITE,
    AbelianQuotient,
    IntMatrix,
    hnf,
    hnf_basis,
    lattice_member,
    left_kernel,
    saturate,
)
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
from rfrskit.rfrs import obstruction_certificate
from rfrskit.subgroups import (
    Subgroup,
    center,
    center_ab_report,
    chain_from_text,
    chain_to_text,
    enumerate_normal_subgroups,
    express_in_basis,
    hirsch_rank,
    induced_presentation,
    lower_central_series,
    subgroup_closure,
    _InducedBasis,
    _normal_subgroup_counts,
    _ordered_product,
    _row_blocks,
    _sift,
    _subgroup_from_induced,
)
from tables import table

H = heisenberg()
X, Y, Z = H.generator(0), H.generator(1), H.generator(2)


def lat(p, rows):
    return Subgroup.from_lattice(p, rows)


def map_into_ambient(s, exps):
    """Ordered product of the basis rows of s to the given exponents."""
    return _ordered_product(s.ambient, s.basis_elements(), exps)


def isolator(p, s):
    """Smallest root-closed subgroup containing s: in class <= 2 the
    saturation of its lattice, which the group operations keep closed."""
    return Subgroup(p, saturate(s.basis))


def verify_inclusion_homomorphism(s):
    """Check the inclusion on all generator pairs: products computed in
    the induced presentation of s match ambient products of the images."""
    sub = induced_presentation(s)
    gens = [sub.generator(a) for a in range(sub.n)]
    into = functools.partial(map_into_ambient, s)
    return all(into(sub.multiply(u, v)) == s.ambient.multiply(into(u), into(v)) for u in gens for v in gens)


def in_induced(base, w):
    """Is w an ordered product of the slots of an `_InducedBasis`?"""
    return not any(base.reduce(w))


def sweep(p, lattice):
    """Yield the inverses, products and commutators of the Hermite basis
    rows that the lattice lacks: none exactly when it is closed."""
    vecs = [tuple(lattice.row(i)) for i in range(lattice.rows)]

    def candidates():
        for u in vecs:
            yield p.inverse(u)
            for v in vecs:
                yield p.multiply(u, v)
                yield p.commutator(u, v)

    return (list(w) for w in candidates() if not lattice_member(lattice, w))


def is_closed(p, lattice):
    return next(sweep(p, lattice), None) is None


def _closure_candidates(p, vecs):
    """For each u in vecs, its inverse, then u v and [u, v] for each v."""
    for u in vecs:
        yield p.inverse(u)
        for v in vecs:
            yield p.multiply(u, v)
            yield p.commutator(u, v)


def reference_induced_close(base, gens=()):
    """Close an induced basis by the full sweep: sift in the inverses,
    products and commutators of the slots in rounds until one changes
    nothing, then commutators of the slots with gens, sweeping again after
    every round of those that changed something; each loop capped at 64
    rounds."""
    p = base.p

    def sweep_closed():
        for _ in range(64):
            if not any([base.sift(w) for w in _closure_candidates(p, base.vectors())]):
                return
        raise AssertionError("induced basis failed to stabilize")

    sweep_closed()
    for _ in range(64):
        if not any([base.sift(p.commutator(u, g)) for u in base.vectors() for g in gens]):
            return
        sweep_closed()
    raise AssertionError("commutator closure failed to stabilize")


def reference_closure(p, gens):
    """The fixpoint sweep: add what `sweep` finds until the basis is stable
    (an ascending chain of lattices in Z^n stops)."""
    rows = [list(g) for g in gens if any(g)]
    lattice = hnf_basis(IntMatrix.from_rows(rows)) if rows else IntMatrix(0, p.n, ())
    while fresh := list(sweep(p, lattice)):
        lattice = hnf_basis(IntMatrix.from_rows(lattice.to_rows() + fresh))
    return Subgroup(p, lattice)


# ----------------------------------------------------------------- closure


def test_closure_generates_commutator():
    s = subgroup_closure(H, [X, Y])
    assert s == Subgroup.whole_group(H)


def test_closure_index_two():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    assert s.basis.to_rows() == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_closure_empty():
    assert subgroup_closure(H, []) == Subgroup.trivial(H)


def test_closure_matches_word_enumeration():
    """Oracle: BFS over products of generator words of length <= 4."""
    gens = [H.power(X, 2), Y, Z]
    s = subgroup_closure(H, gens)
    seen = {H.identity()}
    frontier = [H.identity()]
    alphabet = gens + [H.inverse(g) for g in gens]
    for _ in range(4):
        nxt = []
        for u in frontier:
            for a in alphabet:
                w = H.multiply(u, a)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    for w in seen:
        assert s.contains(w)


def test_closure_of_nonlattice_generator_saturates():
    # the group generated by xy alone is not a coordinate lattice; the
    # closure is the smallest lattice subgroup containing it
    s = subgroup_closure(H, [(1, 1, 0)])
    assert s.contains((1, 1, 0))
    assert s.contains(H.multiply((1, 1, 0), (1, 1, 0)))
    assert s.basis.to_rows() == [[1, 1, 0], [0, 0, 1]]


def test_closure_rejects_class3():
    with pytest.raises(ValueError):
        subgroup_closure(unitriangular(4), [unitriangular(4).generator(0)])


def test_from_lattice_rejects_unclosed():
    with pytest.raises(ValueError):
        lat(H, [[1, 0, 0], [0, 1, 0]])  # missing z, products escape


def test_from_lattice_rejects_class3():
    with pytest.raises(ValueError, match="class <= 2"):
        lat(unitriangular(4), [[1 if i == j else 0 for j in range(6)] for i in range(6)])


# ----------------------------------------------------------------- index


def test_index_examples():
    assert Subgroup.whole_group(H).index() == 1
    assert subgroup_closure(H, [H.power(X, 2), Y, Z]).index() == 2
    assert subgroup_closure(H, [X, Z]).index() is INFINITE


def test_index_matches_coset_enumeration():
    """Oracle: BFS coset enumeration with pairwise membership tests."""
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])

    def same_coset(u, v):
        return s.contains(H.multiply(H.inverse(u), v))

    reps = [H.identity()]
    frontier = [H.identity()]
    gens = [X, Y, Z]
    while frontier:
        cur = frontier.pop()
        for g in gens + [H.inverse(g) for g in gens]:
            w = H.multiply(cur, g)
            if not any(same_coset(w, r) for r in reps):
                reps.append(w)
                frontier.append(w)
        if len(reps) > 8:
            break
    assert len(reps) == s.index() == 2


def test_index_multiplicativity():
    s1 = subgroup_closure(H, [H.power(X, 2), Y, Z])
    s2 = subgroup_closure(H, [H.power(X, 2), H.power(Y, 2), Z])
    assert s1.contains_subgroup(s2)
    # relative lattice index of s2 inside s1
    rel = s1.index() and s2.index() // s1.index()
    assert s2.index() == s1.index() * rel


# ---------------------------------------------------------------- normality


def test_normality_examples():
    assert subgroup_closure(H, [H.power(X, 2), Y, Z]).is_normal()
    # <x, z^2>: infinite index, conjugation by y moves x off the lattice
    s = lat(H, [[1, 0, 0], [0, 0, 2]])
    assert not s.is_normal()


def test_normality_by_conjugation_oracle():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    for u in s.basis_elements():
        for g in (X, Y, Z):
            assert s.contains(H.conjugate(u, g))


def _normal_two_sided(s):
    """Reference normality test: conjugates by every generator and by its
    inverse stay in s."""
    p = s.ambient
    return all(
        s.contains(p.conjugate(u, g)) and s.contains(p.conjugate(u, p.inverse(g)))
        for u in s.basis_elements()
        for g in map(p.generator, range(p.n))
    )


def test_is_normal_matches_two_sided_reference():
    four = table(4, {(0, 1): (0, 0, 0, 2), (0, 2): (0, 0, 0, -1), (1, 2): (0, 0, 0, 3)})
    rng = random.Random(7)
    verdicts = []
    for p in (H, direct_product(H, free_abelian(1)), four):
        for _ in range(25):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(p.n)) for _ in range(rng.randint(1, 3))
            ]
            s = subgroup_closure(p, gens)
            verdicts.append(s.is_normal())
            assert verdicts[-1] == _normal_two_sided(s)
    for s in lower_central_series(unitriangular(4)):
        assert s.is_normal() and _normal_two_sided(s)
    assert True in verdicts and False in verdicts


def _normal_all_pairs(s):
    """Reference normality test: [u, g] in s for every basis row u and
    every generator g, central ones included."""
    p = s.ambient
    gens = [p.generator(k) for k in range(p.n)]
    return all(s.contains(p.commutator(u, g)) for u in s.basis_elements() for g in gens)


def _closure_all_pairs(p, gens):
    """Reference class-2 closure: the generators and u v - u - v over all
    ordered pairs of them, central ones included, in one Hermite basis."""
    rows = [p.element(g) for g in gens]
    rows += [tuple(w - a - b for w, a, b in zip(p.multiply(u, v), u, v)) for u in rows for v in rows]
    return Subgroup(p, hnf_basis(IntMatrix(len(rows), p.n, tuple(x for r in rows for x in r))))


def test_normality_and_closure_match_all_pairs_references_central_first():
    """Z x H: its central coordinate comes first, so skipping central rows
    and generators is not skipping a suffix."""
    zh = direct_product(free_abelian(1), H)
    rng = random.Random(17)
    subs = enumerate_normal_subgroups(zh, 6)
    verdicts = set()
    for _ in range(150):
        gens = [tuple(rng.randint(-3, 3) for _ in range(zh.n)) for _ in range(rng.randint(0, 3))]
        s = subgroup_closure(zh, gens)
        assert s == _closure_all_pairs(zh, gens) == reference_closure(zh, gens)
        subs.append(s)
    for s in subs:
        normal = s.is_normal()
        verdicts.add(normal)
        assert normal == _normal_all_pairs(s) == _normal_two_sided(s)
    assert verdicts == {True, False}


def test_full_rank_subgroups_containing_derived_sub_are_normal():
    for rows in ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], [[2, 1, 0], [0, 2, 0], [0, 0, 1]]):
        s = lat(H, rows)
        assert s.contains(Z)
        assert s.is_normal()


# ---------------------------------------------------------------- intersect


def test_intersect_examples():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    assert s.intersect(Subgroup.whole_group(H)) == s
    assert s.intersect(s) == s
    trivial = Subgroup.trivial(H)
    assert s.intersect(trivial) == trivial.intersect(s) == trivial
    t = subgroup_closure(H, [X, H.power(Y, 2), Z])
    meet = s.intersect(t)
    assert meet.basis.to_rows() == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_intersect_oracle():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    t = subgroup_closure(H, [X, H.power(Y, 2), Z])
    meet = s.intersect(t)
    for v in itertools.product(range(-4, 5), repeat=3):
        expected = s.contains(v) and t.contains(v)
        assert meet.contains(v) == expected


def test_intersect_matches_closure_checked_meet():
    """The meet is built without a closure re-check; `from_lattice` on the
    same meet rows runs that check and must give the same subgroup."""
    subs = enumerate_normal_subgroups(H, 8)
    for s, t in itertools.combinations_with_replacement(subs, 2):
        b1, b2 = s.basis.to_rows(), t.basis.to_rows()
        ker = left_kernel(IntMatrix.from_rows(b1 + [[-x for x in r] for r in b2]))
        rows = [
            [sum(c * r[j] for c, r in zip(ker.row(i), b1)) for j in range(H.n)]
            for i in range(ker.rows)
        ]
        assert s.intersect(t) == Subgroup.from_lattice(H, rows)


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        Subgroup.whole_group(H).intersect(Subgroup.whole_group(free_abelian(3)))


# -------------------------------------------------------------- enumeration


def test_enumerate_free_abelian_rank1():
    p = free_abelian(1)
    subs = enumerate_normal_subgroups(p, 3)
    assert [s.basis.to_rows() for s in subs] == [[[1]], [[2]], [[3]]]


def test_enumerate_heisenberg_index2():
    subs = enumerate_normal_subgroups(H, 2)
    assert len(subs) == 4  # whole group + three index-2 subgroups
    assert [s.index() for s in subs] == [1, 2, 2, 2]
    for s in subs[1:]:
        assert s.contains(Z)


def test_enumerate_heisenberg_index1():
    subs = enumerate_normal_subgroups(H, 1)
    assert subs == [Subgroup.whole_group(H)]


def test_enumeration_matches_bruteforce():
    """Oracle: filter all Hermite sublattices by elementwise closure and
    normality over a coordinate box, independent of Subgroup internals."""
    bound = 8
    found = enumerate_normal_subgroups(H, bound)
    oracle = []
    for d1 in range(1, bound + 1):
        for d2 in range(1, bound // d1 + 1):
            for d3 in range(1, bound // (d1 * d2) + 1):
                for a in range(d2):
                    for b in range(d3):
                        for c in range(d3):
                            rows = [[d1, a, b], [0, d2, c], [0, 0, d3]]
                            mat = IntMatrix.from_rows(rows)
                            if hnf_basis(mat).to_rows() != rows:
                                continue
                            vecs = [tuple(r) for r in rows]
                            closed = all(
                                lattice_member(mat, H.multiply(u, v))
                                and lattice_member(mat, H.inverse(u))
                                for u in vecs
                                for v in vecs
                            )
                            if not closed:
                                continue
                            normal = all(
                                lattice_member(mat, H.conjugate(u, g))
                                and lattice_member(mat, H.conjugate(u, H.inverse(g)))
                                for u in vecs
                                for g in (X, Y, Z)
                            )
                            if normal:
                                oracle.append(rows)
    assert sorted(s.basis.to_rows() for s in found) == sorted(oracle)


def _diagonals(n, bound):
    """All positive diagonal tuples with product <= bound."""
    if n == 0:
        yield ()
        return
    for d in range(1, bound + 1):
        for rest in _diagonals(n - 1, bound // d):
            yield (d,) + rest


def _reference_census(p, max_index):
    """Every Hermite basis with diagonal product <= max_index, kept when
    the lattice is closed under the group operations and normal, by
    commutators with every generator (not `is_normal`, which shares the
    census's `_commutator_values`)."""
    n = p.n
    found = []
    for diag in _diagonals(n, max_index):
        rows_template = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]

        def fill(col, rows):
            if col == n:
                yield [row[:] for row in rows]
                return

            def rec(i):
                if i == col:
                    yield from fill(col + 1, rows)
                    return
                for v in range(diag[col]):
                    rows[i][col] = v
                    yield from rec(i + 1)
                rows[i][col] = 0

            yield from rec(0)

        for rows in fill(0, rows_template):
            cand = Subgroup(p, IntMatrix.from_rows(rows))
            if is_closed(p, cand.basis) and _normal_all_pairs(cand):
                found.append(cand)
    found.sort(key=lambda s: (s.index(), s.basis.entries))
    return found


CENSUS_CASES = {
    "heisenberg": (H, 8),
    "HxZ": (direct_product(H, free_abelian(1)), 5),
    "free_abelian(3)": (free_abelian(3), 6),
    # central generators g2, g4 and g1, g4: not a suffix of the coordinates
    "4 2 / 1 3 : 2": (presentation_from_text("4 2\n1 3 : 2\n"), 4),
    "4 2 / 2 3 : 3": (presentation_from_text("4 2\n2 3 : 3\n"), 4),
    "4 2 / 1 2 : 1 -2": (presentation_from_text("4 2\n1 2 : 1 -2\n"), 4),
    "4 2 / three rules": (
        presentation_from_text("4 2\n1 2 : 0 1\n1 3 : -2\n2 3 : 1\n"), 4
    ),
    # the first census here that needs the products m_i m_j of distinct
    # basis rows, not only squares and commutators: at index 8
    "5 2 / four rules": (
        presentation_from_text("5 2\n1 2 : 0 0 1\n1 4 : 1\n2 3 : 0 1\n3 4 : 1\n"), 8
    ),
}


CLOSURE_GROUPS = [p for p, _ in CENSUS_CASES.values()] + [direct_product(H, H)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closure_matches_fixpoint_sweep(data):
    """One-step closure against the sweep, on generator sets with zero,
    duplicate and dependent rows; `from_lattice` accepts a lattice exactly
    when the sweep leaves it as it is."""
    p = data.draw(st.sampled_from(CLOSURE_GROUPS))
    entries = st.integers(-3, 3)
    base = data.draw(st.lists(st.lists(entries, min_size=p.n, max_size=p.n), max_size=3))
    combos = data.draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), max_size=3)
    )
    rows = base + base[:1] + [[sum(c * r[j] for c, r in zip(cs, base)) for j in range(p.n)] for cs in combos]
    rows = data.draw(st.permutations(rows))
    closure = subgroup_closure(p, rows)
    assert closure == reference_closure(p, rows)
    assert lat(p, closure.basis.to_rows()) == closure
    span = hnf_basis(IntMatrix(len(rows), p.n, tuple(x for r in rows for x in r)))
    if is_closed(p, span):
        assert lat(p, rows).basis == span
    else:
        with pytest.raises(ValueError, match="not closed"):
            lat(p, rows)


def _closure_in_one_hermite_form(p, gens):
    """The closure as first written: the nonzero generators and every
    u v - u - v over ordered pairs of them, through one `hnf_basis`."""
    rows = [list(g) for g in gens if any(g)]
    rows += [[w - a - b for w, a, b in zip(p.multiply(u, v), u, v)] for u in rows for v in rows]
    return Subgroup(p, IntMatrix(len(rows), p.n, tuple(x for r in rows for x in r)))


FOUR_RULES = CENSUS_CASES["5 2 / four rules"][0]
MEET_GROUPS = {
    "heisenberg": H,
    "H x Z": direct_product(H, free_abelian(1)),
    "Z x H": direct_product(free_abelian(1), H),
    "four rules": FOUR_RULES,
}


def _generator_sets(p, rng):
    """Seeded generator sets: random rows, with repeats and zero rows mixed
    in; central-only rows; rank-deficient sets; the empty set; and closed
    Hermite bases given as they are, alone and with a row added."""
    central = [k for k in range(p.n) if k not in p._noncentral]

    def row(bound=3):
        return [rng.randint(-bound, bound) for _ in range(p.n)]

    for _ in range(40):
        rows = [row() for _ in range(rng.randint(1, p.n + 1))]
        yield rows
        yield rows + rows[:1] + [[0] * p.n] + [list(rows[-1])]
        yield [[rng.randint(-4, 4) if k in central else 0 for k in range(p.n)] for _ in range(2)]
        base = [row() for _ in range(rng.randint(1, max(1, p.n - 2)))]
        yield base + [[sum(rng.randint(-2, 2) * r[j] for r in base) for j in range(p.n)]]
        closed = subgroup_closure(p, rows).basis.to_rows()
        yield closed
        yield closed + [row(2)]
    yield []
    yield [[0] * p.n, [0] * p.n]


@pytest.mark.parametrize("name", list(MEET_GROUPS))
def test_closure_matches_the_one_hermite_form_formula(name):
    """Closure from the Hermite basis of the span plus the corrections it
    lacks gives the lattice of all rows and all corrections at once."""
    p = MEET_GROUPS[name]
    rng = random.Random(37)
    for rows in _generator_sets(p, rng):
        assert subgroup_closure(p, rows) == _closure_in_one_hermite_form(p, rows), rows


def _zassenhaus_meet(s, t):
    """The meet read off the Hermite form of [[B1, B1], [B2, 0]], with no
    containment test first."""
    n = s.ambient.n
    rows = [r + r for r in s.basis.to_rows()] + [r + [0] * n for r in t.basis.to_rows()]
    h, _ = hnf(IntMatrix(len(rows), 2 * n, tuple(x for r in rows for x in r)))
    meet = [r[n:] for r in h.to_rows() if any(r[n:]) and not any(r[:n])]
    return Subgroup(s.ambient, IntMatrix(len(meet), n, tuple(x for r in meet for x in r)))


@pytest.mark.parametrize("name", list(MEET_GROUPS))
def test_intersect_matches_zassenhaus_meet(name):
    """Seeded pairs of closures, of finite and infinite index, with nested
    pairs in both orders and unequal pairs of equal index: the meet is the
    Zassenhaus meet, and a nested pair gives its smaller operand."""
    p = MEET_GROUPS[name]
    rng = random.Random(41)
    subs = [subgroup_closure(p, rows) for rows in _generator_sets(p, rng)]
    subs += enumerate_normal_subgroups(p, 4)
    assert any(s.index() == INFINITE for s in subs)
    pairs = [tuple(rng.sample(subs, 2)) for _ in range(300)]
    pairs += [(s, s.intersect(t)) for s, t in pairs[:100]]
    pairs += [(m, s) for s, m in pairs[-100:]]
    pairs += [(s, t) for s, t in itertools.combinations(subs[-40:], 2) if s.index() == t.index() and s != t]
    assert any(s.index() == t.index() != INFINITE and s != t for s, t in pairs)
    for s, t in pairs:
        meet = s.intersect(t)
        assert meet == _zassenhaus_meet(s, t), (s.basis, t.basis)
        if s.contains_subgroup(t):
            assert meet is t
        elif t.contains_subgroup(s):
            assert meet is s


@pytest.mark.parametrize("name", list(CENSUS_CASES))
def test_census_matches_hermite_candidate_filter(name):
    """The census by central gluing lists exactly the Hermite candidates
    that pass the closure and normality tests, in the same order."""
    p, bound = CENSUS_CASES[name]
    reference = _reference_census(p, bound)
    for k in range(1, bound + 1):
        assert enumerate_normal_subgroups(p, k) == [s for s in reference if s.index() <= k]


def _zeta_product_counts(factors, bound):
    """Coefficients a_1 .. a_bound of the Dirichlet series prod zeta(c s - d)
    over (c, d) in factors; zeta(c s - d) puts m^d at k = m^c."""
    coeffs = [0, 1] + [0] * (bound - 1)
    for c, d in factors:
        factor = [0] * (bound + 1)
        for m in range(1, bound + 1):
            if m**c <= bound:
                factor[m**c] = m**d
        coeffs = [0] + [
            sum(coeffs[a] * factor[k // a] for a in range(1, k + 1) if k % a == 0)
            for k in range(1, bound + 1)
        ]
    return coeffs


@pytest.mark.parametrize(
    "p, factors, bound",
    [
        (H, [(1, 0), (1, 1), (3, 2)], 64),
        (free_abelian(2), [(1, 0), (1, 1)], 16),
        (free_abelian(3), [(1, 0), (1, 1), (1, 2)], 8),
    ],
    ids=["heisenberg", "free_abelian(2)", "free_abelian(3)"],
)
def test_census_counts_match_zeta_functions(p, factors, bound):
    """Grunewald-Segal-Smith: the normal zeta function of the Heisenberg
    group is zeta(s) zeta(s-1) zeta(3s-2), that of Z^n is
    zeta(s) zeta(s-1) ... zeta(s-n+1); the census at bound k must count
    their partial sums up to k."""
    coeffs = _zeta_product_counts(factors, bound)
    found = enumerate_normal_subgroups(p, bound)
    for k in range(1, bound + 1):
        expected = sum(coeffs[: k + 1])
        assert sum(1 for s in found if s.index() <= k) == expected
        if k <= bound // 2:
            assert len(enumerate_normal_subgroups(p, k)) == expected
    if p is H:
        assert sum(coeffs[:9]) == 60 and sum(coeffs[:17]) == 236 and sum(coeffs) == 3679


def _prime_power_parts(k):
    """The largest power of each prime dividing k, by increasing prime;
    they are pairwise coprime with product k."""
    parts, d = [], 2
    while k > 1:
        q = 1
        while k % d == 0:
            k, q = k // d, q * d
        if q > 1:
            parts.append(q)
        d += 1
    return parts


MULTIPLICATIVE_CASES = {
    "heisenberg": (H, 24),
    "HxZ": (direct_product(H, free_abelian(1)), 12),
    "ZxH": (direct_product(free_abelian(1), H), 12),
    # the class-2 quotient of the path graph group on 4 vertices
    "Q2(P4)": (presentation_from_text("7 2\n1 3 : 0 1 0 0\n1 4 : 0 1 0\n2 4 : 0 0 1\n"), 8),
}


@pytest.mark.parametrize("name", list(MULTIPLICATIVE_CASES))
def test_census_is_multiplicative_over_coprime_meets(name):
    """A finite nilpotent group is the direct product of its Sylow
    subgroups, so a normal subgroup of index k is, in exactly one way, the
    meet of normal subgroups of the prime-power indices q of k: the census
    counts a_k = prod a_q, and at k not a prime power the census is the
    set of those meets."""
    p, bound = MULTIPLICATIVE_CASES[name]
    by_index = {k: [] for k in range(1, bound + 1)}
    for s in enumerate_normal_subgroups(p, bound):
        by_index[int(s.index())].append(s)
    for k, census in by_index.items():
        parts = _prime_power_parts(k)
        assert len(census) == math.prod(len(by_index[q]) for q in parts)
        if len(parts) > 1:
            meets = {
                functools.reduce(Subgroup.intersect, pick).basis.entries
                for pick in itertools.product(*(by_index[q] for q in parts))
            }
            assert sorted(meets) == [s.basis.entries for s in census]


def _unimodular(size, seed):
    """A seeded unimodular integer matrix: 3 * size random row additions and swaps."""
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        a, b = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
        if rng.random() < 0.3:
            u[a], u[b] = u[b], u[a]
    return u


def _rebased(p, seed):
    """The class-2 table p on new generators, an isomorphic presentation.
    The block is the noncentral generators and the central ones that no
    rule value involves (so outside V); the new generators h_i are the rows
    of a seeded unimodular U on the block, then the other central
    generators, kept.  The rules are [h_j, h_i], from p's `commutator`,
    which lie on the kept coordinates.  The map is onto, between
    torsion-free nilpotent groups of equal Hirsch length, so it is an
    isomorphism."""
    values = {l for word in p.rules.values() for l, _ in word}
    block = [k for k in range(p.n) if not p.central[k] or k not in values]
    kept = [k for k in range(p.n) if p.central[k] and k in values]
    gens = []
    for row in _unimodular(len(block), seed):
        v = [0] * p.n
        for k, x in zip(block, row):
            v[k] = x
        gens.append(tuple(v))
    rules = {}
    for i, j in itertools.combinations(range(len(gens)), 2):
        c = p.commutator(gens[j], gens[i])
        word = tuple((len(block) + t, c[k]) for t, k in enumerate(kept) if c[k])
        if word:
            rules[i, j] = word
    return PcPresentation(p.n, rules)


def _answers(p, bound):
    """What an answer about the group p presents may not depend on its table."""
    ab = abelianization(p).structure
    return (p.nilpotency_class, center(p).rank(), ab.free_rank, ab.invariant_factors,
            p._torsion_lattice.rows, [s.rank() for s in lower_central_series(p)],
            obstruction_certificate(p, bound).counts)


HXZ = direct_product(H, free_abelian(1))
REBASE_CASES = {
    "heisenberg": H,
    "HxZ": HXZ,
    "F(2,3)": presentation_from_text("6 2\n1 2 : 0 1 0 0\n1 3 : 0 1 0\n2 3 : 0 0 1\n"),
    "Q2(P4)": MULTIPLICATIVE_CASES["Q2(P4)"][0],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(REBASE_CASES))
def test_a_rebased_table_gives_the_same_answers(name, seed):
    """Re-basing is a law: a class-2 table and its re-basing by a seeded
    unimodular U agree on the class, the centre rank, the abelianization,
    the rank of V, the ranks of the lower central series and the census
    counts to index 7."""
    p = REBASE_CASES[name]
    q = _rebased(p, seed)
    assert q != p or name == "heisenberg"
    assert _answers(q, 7) == _answers(p, 7)


# T presents H x Z with the central w moved into the noncentral block
T_TABLE = "4 2\n1 2 : 0 1\n1 3 : 1\n2 3 : -1\n"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 24: the census counts the normal subgroups whose coordinates form a lattice, and T "
    "has normal subgroups of index 8 that are none: 155 against H x Z's 163"))
def test_a_rebased_table_gives_the_same_census_at_index_8():
    t = presentation_from_text(T_TABLE)
    assert _answers(t, 7) == _answers(HXZ, 7)
    assert obstruction_certificate(t, 8).counts == obstruction_certificate(HXZ, 8).counts


def test_enumerated_heisenberg_subgroups_are_nonabelian():
    for s in enumerate_normal_subgroups(H, 8):
        assert induced_presentation(s).rules  # nonempty commutator table


def test_enumeration_resource_cap(monkeypatch):
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 10)
    with pytest.raises(ResourceLimitExceeded):
        enumerate_normal_subgroups(H, 64)


def test_enumeration_cap_counts_work_and_reports_progress(monkeypatch):
    # index 1: one pair test, one subgroup; index 2: four pair tests (one
    # centre of index 2, three projections of index 2), three subgroups
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 9)
    assert len(enumerate_normal_subgroups(H, 2)) == 4
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 8)
    with pytest.raises(ResourceLimitExceeded) as exc:
        enumerate_normal_subgroups(H, 2)
    assert str(exc.value) == (
        "census work cap of 8 reached at index 2 of 2: "
        "5 (projection, centre) pairs tested, 3 subgroups found"
    )
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 10)
    with pytest.raises(ResourceLimitExceeded) as exc:
        enumerate_normal_subgroups(H, 64)
    assert str(exc.value) == (
        "census work cap of 10 reached at index 3 of 64: "
        "6 (projection, centre) pairs tested, 4 subgroups found"
    )


# ------------------------------------------------------ counting census


def _listing_counts(p, bound):
    """a_1 .. a_bound read off the listing census."""
    counts = [0] * bound
    for s in enumerate_normal_subgroups(p, bound):
        counts[int(s.index()) - 1] += 1
    return counts


@pytest.mark.parametrize(
    "p, bound",
    list(MULTIPLICATIVE_CASES.values()) + list(CENSUS_CASES.values()),
    ids=[f"multiplicative-{k}" for k in MULTIPLICATIVE_CASES] + [f"census-{k}" for k in CENSUS_CASES],
)
def test_counts_match_the_listing_census(p, bound):
    """The counter tests pairs at prime-power indices only and multiplies
    elsewhere; the listing tests every index and builds every subgroup."""
    assert _normal_subgroup_counts(p, bound) == _listing_counts(p, bound)


@pytest.mark.parametrize(
    "p, factors, bound",
    [
        (H, [(1, 0), (1, 1), (3, 2)], 512),
        (free_abelian(2), [(1, 0), (1, 1)], 256),
        (free_abelian(3), [(1, 0), (1, 1), (1, 2)], 64),
    ],
    ids=["heisenberg", "free_abelian(2)", "free_abelian(3)"],
)
def test_counts_match_zeta_functions(p, factors, bound):
    """The counts are the coefficients of the normal zeta functions of
    `test_census_counts_match_zeta_functions`, far past the listing's reach:
    heisenberg to 512 has 233,533 normal subgroups."""
    counts = _normal_subgroup_counts(p, bound)
    assert [0] + counts == _zeta_product_counts(factors, bound)
    if p is H:
        assert sum(counts) == 233_533


@pytest.mark.parametrize(
    "p, bound",
    [(H, 16), (direct_product(H, free_abelian(1)), 16), (direct_product(free_abelian(1), H), 16),
     (MULTIPLICATIVE_CASES["Q2(P4)"][0], 16), (FOUR_RULES, 8)],
    ids=["heisenberg", "HxZ", "ZxH", "Q2(P4)", "four rules"],
)
def test_needed_lattice_spans_the_needed_values(p, bound):
    """For every projection M of index <= bound, K(M), built by bilinearity
    from the table of B on the generators, is the Hermite basis of the
    span of the list the census once tested one by one: the values
    m_i m_j - m_i - m_j and [m_i, g_k] over M's Hermite rows m_i, here
    from the group operations on whole rows (each row or pair once).  On
    the first four groups the products of distinct rows lie in the span
    of the commutators; on the four-rules table they do not."""
    gens = [p.generator(k) for k in p._noncentral]

    @functools.cache
    def row(m_row):
        out = [0] * p.n
        for k, x in zip(p._noncentral, m_row):
            out[k] = x
        return tuple(out)

    @functools.cache
    def commutators(u):
        return [p.commutator(u, g) for g in gens]

    @functools.cache
    def correction(u, v):
        return tuple(w - a - b for w, a, b in zip(p.multiply(u, v), u, v))

    pairs = subgroups._CensusPairs(p, bound)
    for d in range(1, bound + 1):
        for m in subgroups._hermite_bases(pairs.r, d):
            rows = [row(u) for u in m]
            needs = [correction(u, v) for u in rows for v in rows] + [w for u in rows for w in commutators(u)]
            needs = dict.fromkeys(needs)
            assert not any(w[k] for w in needs for k in p._noncentral)
            central = [[w[k] for k in p._central] for w in needs if any(w)]
            span = hnf_basis(IntMatrix(len(central), len(p._central), tuple(x for w in central for x in w)))
            assert pairs._needed(tuple(m)) == span.to_rows(), m


def test_counting_cap_charges_pair_tests_and_subgroups_counted(monkeypatch):
    """On heisenberg, indices 1-3 cost 10 pair tests and count 8
    subgroups; index 4 costs 11 pair tests and counts 7, index 5 costs 7
    and counts 6, and index 6 = 2 * 3 costs no test and counts
    a_2 a_3 = 12 in one charge.  Each census charges a unit of work
    before doing it, so up to index 5, where both walk the same pairs,
    the counter stops where the listing stops, with the same message."""
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 18)
    assert _normal_subgroup_counts(H, 3) == [1, 3, 4]
    for census in (_normal_subgroup_counts, enumerate_normal_subgroups):
        with pytest.raises(ResourceLimitExceeded) as exc:
            census(H, 4)
        assert str(exc.value) == (
            "census work cap of 18 reached at index 4 of 4: "
            "10 (projection, centre) pairs tested, 8 subgroups found"
        )
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 61)
    assert _normal_subgroup_counts(H, 6) == [1, 3, 4, 7, 6, 12]
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 60)
    with pytest.raises(ResourceLimitExceeded) as exc:
        _normal_subgroup_counts(H, 6)
    assert str(exc.value) == (
        "census work cap of 60 reached at index 6 of 6: "
        "28 (projection, centre) pairs tested, 21 subgroups found"
    )


def test_counting_answers_where_the_listings_pair_tests_pass_the_cap():
    """H x Z to 113 has 971,616 normal subgroups (the listing, with the cap
    raised, finds the same counts).  The listing also tests every (M, N)
    pair at every index, sum over k and d | k of sigma(d) sigma(k / d) of
    them (Z^2 has sigma(d) lattices of index d), and that passes
    CENSUS_WORK_CAP; the counter tests pairs at prime-power indices only,
    and `obstruction_certificate` certifies through it."""
    hxz = direct_product(H, free_abelian(1))
    sigma = [0] + [sum(e for e in range(1, d + 1) if d % e == 0) for d in range(1, 114)]
    tests = sum(sigma[d] * sigma[k // d] for k in range(1, 114) for d in range(1, k + 1) if k % d == 0)
    counts = _normal_subgroup_counts(hxz, 113)
    assert sum(counts) == 971_616
    assert tests + sum(counts) > subgroups.CENSUS_WORK_CAP
    cert = obstruction_certificate(hxz, 113)
    assert cert.checked_subgroups == 971_616
    assert cert.counts == tuple(counts)


# ------------------------------------------------------ induced presentations


def test_induced_whole_group():
    assert induced_presentation(Subgroup.whole_group(H)) == H


def test_induced_index_two():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    sub = induced_presentation(s)
    assert sub.n == 3
    # [u, y] = z^2 on the new basis (u = x^2)
    assert sub.commutator(sub.generator(0), sub.generator(1)) == (0, 0, 2)
    q = abelianization(sub)
    assert q.structure.free_rank == 2
    assert q.structure.invariant_factors == (2,)


def test_induced_scaled_free_abelian():
    p = free_abelian(2)
    s = Subgroup.from_lattice(p, [[2, 0], [0, 2]])
    assert induced_presentation(s) == free_abelian(2)


def test_induced_rank_deficient():
    s = subgroup_closure(H, [X, Z])
    assert induced_presentation(s) == free_abelian(2)
    assert verify_inclusion_homomorphism(s)


def test_induced_inclusion_is_homomorphism():
    for s in enumerate_normal_subgroups(H, 8):
        assert verify_inclusion_homomorphism(s)


def test_induced_preserves_hirsch_rank():
    for s in enumerate_normal_subgroups(H, 6):
        assert hirsch_rank(induced_presentation(s)) == hirsch_rank(H)


def test_express_and_map_roundtrip():
    s = subgroup_closure(H, [H.power(X, 2), Y, Z])
    rng = random.Random(2)
    for _ in range(50):
        exps = tuple(rng.randint(-3, 3) for _ in range(3))
        u = map_into_ambient(s, exps)
        assert s.contains(u)
        assert express_in_basis(s, u) == exps
    assert express_in_basis(s, (1, 0, 0)) is None


def _ordered_product_gen_sets(p):
    g = [p.generator(k) for k in range(p.n)]
    return [
        g,
        [p.multiply(g[0], g[1]), p.power(g[2], 2)],
        [p.multiply(p.power(g[0], 2), g[2]), p.multiply(g[1], p.power(g[4], 3))],
        [p.multiply(g[0], g[-1]), p.power(g[1], 2), p.power(g[2], 2)],
    ]


@pytest.mark.parametrize("name", ["ut(4)", "direct_product(ut(4),heisenberg)"])
def test_induced_basis_and_express_agree_with_ordered_products(name):
    p = build_standard(name)
    g = [p.generator(k) for k in range(p.n)]
    rng = random.Random(4)
    for gens in _ordered_product_gen_sets(p):
        base = _InducedBasis(p)
        for x in gens:
            base.sift(x)
        base.close()
        s = _subgroup_from_induced(p, base.vectors())
        for _ in range(15):
            exps = tuple(rng.randint(-3, 3) for _ in range(s.rank()))
            u = map_into_ambient(s, exps)
            assert express_in_basis(s, u) == exps
            assert in_induced(base, u)
            # u is in s, so u g_k is in s exactly when g_k is
            k = rng.randrange(p.n)
            w = p.multiply(u, g[k])
            assert in_induced(base, w) == in_induced(base, g[k]) == (express_in_basis(s, g[k]) is not None)
            for v in (w, tuple(rng.randint(-2, 2) for _ in range(p.n))):
                found = express_in_basis(s, v)
                assert in_induced(base, v) == (found is not None)
                if found is not None:
                    assert map_into_ambient(s, found) == v


# ------------------------------------------------------------ central series


def test_lcs_free_abelian():
    series = lower_central_series(free_abelian(2))
    assert len(series) == 2
    assert series[0].rank() == 2 and series[1].rank() == 0


def test_lcs_heisenberg():
    series = lower_central_series(H)
    assert len(series) == 3
    assert series[1].basis.to_rows() == [[0, 0, 1]]
    assert series[2].rank() == 0


def test_lcs_ut4():
    p = unitriangular(4)
    series = lower_central_series(p)
    assert len(series) == 4
    assert [s.rank() for s in series] == [6, 3, 1, 0]
    # gamma_2 = span of the two-step and corner transvections
    assert series[1].basis.to_rows() == [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    assert series[2].basis.to_rows() == [[0, 0, 0, 0, 0, 1]]


def test_lcs_ut5_class4():
    p = unitriangular(5)
    series = lower_central_series(p)
    assert [s.rank() for s in series] == [10, 6, 3, 1, 0]
    assert hirsch_rank(p) == 10
    z = center(p)
    assert z.rank() == 1 and z.basis.to_rows()[0][-1] == 1


def test_lcs_with_scaled_commutator():
    # [y, x] = z^2: gamma_2 is the proper sublattice 2Z in the z-line
    p = table(3, {(0, 1): (0, 0, 2)})
    series = lower_central_series(p)
    assert series[1].basis.to_rows() == [[0, 0, 2]]


def test_hirsch_rank_examples():
    assert hirsch_rank(free_abelian(4)) == 4
    assert hirsch_rank(H) == 3
    assert hirsch_rank(unitriangular(4)) == 6


@pytest.mark.parametrize(
    "spec", ["heisenberg", "ut(4)", "ut(5)", "ut(6)", "direct_product(ut(4),heisenberg)", "free_abelian(3)"]
)
def test_hirsch_rank_is_sum_of_series_quotient_ranks(spec):
    p = build_standard(spec)
    series = lower_central_series(p)
    assert series[-1].rank() == 0
    quotient_ranks = [a.rank() - b.rank() for a, b in zip(series, series[1:])]
    assert all(r > 0 for r in quotient_ranks)
    assert hirsch_rank(p) == sum(quotient_ranks)


def test_hirsch_rank_additive_on_products():
    p = direct_product(H, free_abelian(2))
    assert hirsch_rank(p) == hirsch_rank(H) + 2


# ------------------------------------------------------------------ center


def test_center_heisenberg():
    z = center(H)
    assert z.basis.to_rows() == [[0, 0, 1]]


def test_center_free_abelian():
    assert center(free_abelian(3)) == Subgroup.whole_group(free_abelian(3))


def test_center_direct_product():
    p = direct_product(H, free_abelian(1))
    z = center(p)
    assert z.rank() == 2
    assert z.basis.to_rows() == [[0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("name", ["heisenberg", "direct_product(heisenberg,free_abelian(1))",
                                  "direct_product(heisenberg,heisenberg)"])
def test_center_of_a_class_2_table_builds_no_collector(name):
    """Class <= 2 takes the closed-form commutator; only collection builds
    the conjugation table."""
    p = build_standard(name)
    center(p)
    assert "_collector" not in p.__dict__


def test_center_ut4():
    p = unitriangular(4)
    z = center(p)
    assert z.basis.to_rows() == [[0, 0, 0, 0, 0, 1]]


def test_center_with_offdiagonal_central_element():
    # [y, x] = w, [z, x] = w, [z, y] = 1: y z^-1 is central but is not a
    # flagged central generator
    p = table(4, {(0, 1): (0, 0, 0, 1), (0, 2): (0, 0, 0, 1)})
    z = center(p)
    assert z.contains((0, 1, -1, 0))
    assert z.rank() == 2


def reference_center(p):
    """The center by the lower central series: at stage k, h -> [h, g]
    into gamma_k / gamma_(k+1) is a homomorphism, linear in the
    ordered-product exponents of the current candidates, so each
    refinement is an integer kernel with torsion congruences."""
    series = lower_central_series(p)
    gens = [p.generator(k) for k in range(p.n)]
    candidates = list(gens)
    for gamma_k, gamma_next in zip(series[1:], series[2:]):
        base = _InducedBasis(p)
        for v in gamma_k.basis_elements():
            base.sift(v)
        reference_induced_close(base)
        slots = sorted(base.slots.items())

        def slot_exponents(w):
            exps, rest = _sift(p, slots, w)
            assert not any(rest)
            return exps

        rel = [slot_exponents(v) for v in gamma_next.basis_elements()]
        quot = AbelianQuotient(IntMatrix.from_rows(rel) if rel else IntMatrix(0, len(slots), ()))
        # row per candidate: free images of [b, g] for each g, then torsion
        # residues, and one row per torsion modulus
        rows = []
        for b in candidates:
            images = [quot.project(slot_exponents(p.commutator(b, g))) for g in gens]
            rows.append([x for free, _ in images for x in free] + [x for _, tors in images for x in tors])
        free_len = len(gens) * quot.structure.free_rank
        moduli = list(quot.structure.invariant_factors) * len(gens)
        for j, d in enumerate(moduli):
            rows.append([0] * free_len + [d if t == j else 0 for t in range(len(moduli))])
        ker = left_kernel(IntMatrix.from_rows(rows))
        new_basis = _InducedBasis(p)
        for i in range(ker.rows):
            elt = p.identity()
            for c, b in zip(ker.row(i), candidates):
                if c:
                    elt = p.multiply(elt, p.power(b, c))
            new_basis.sift(elt)
        reference_induced_close(new_basis)
        candidates = new_basis.vectors()
    final = _InducedBasis(p)
    for v in candidates:
        final.sift(v)
    reference_induced_close(final)
    return _subgroup_from_induced(p, final.vectors())


def random_consistent_tables(seed, attempts):
    """Sparse random triangular tables on 3..7 generators, declared class
    3, kept when the presentation's consistency checks pass."""
    rng = random.Random(seed)

    def entry():
        return rng.choice([-2, -1, 1, 1, 2]) if rng.random() < 0.4 else 0

    tables = []
    for _ in range(attempts):
        n = rng.randint(3, 7)
        rules = {}
        for i in range(n):
            for j in range(i + 1, n - 1):
                if rng.random() < 0.5:
                    rules[(i, j)] = (0,) * (j + 1) + tuple(entry() for _ in range(j + 1, n))
        try:
            p = table(n, rules)
            p.check_consistency()
            tables.append(p)
        except ValueError:
            continue
    return tables


def interleaved_class2_tables(seed, count):
    """Class-2 tables on 5..7 generators with a central generator just
    before a noncentral one, and rule values spanning rank 2 or 3, so
    that the centre meets V, the integer points of that span, in rank 2
    or 3.  Returns (table, rank) pairs."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        n = rng.randint(5, 7)
        top = sorted(rng.sample(range(n - 2), 3))
        rules = {}
        for i, j in itertools.combinations(top, 2):
            vec = tuple(rng.randint(-2, 2) if k > j and k not in top else 0 for k in range(n))
            if any(vec):
                rules[(i, j)] = vec
        if not rules:
            continue
        p = table(n, rules)
        rank = hnf_basis(IntMatrix.from_rows(list(rules.values()))).rows
        if rank >= 2 and any(c and not d for c, d in zip(p.central, p.central[1:])):
            tables.append((p, rank))
    return tables


RANDOM_TABLES = random_consistent_tables(0, 400)
INTERLEAVED_TABLES = interleaved_class2_tables(1, 60)
CENTER_CASES = [
    build_standard(name)
    for name in [
        "heisenberg",
        "ut(3)",
        "ut(4)",
        "ut(5)",
        "ut(6)",
        "ut(7)",
        "direct_product(heisenberg,free_abelian(1))",
        "direct_product(free_abelian(1),heisenberg)",
        "direct_product(heisenberg,heisenberg)",
        "direct_product(ut(4),heisenberg)",
        "direct_product(free_abelian(2),ut(5))",
    ]
] + [
    table(3, {(0, 1): (0, 0, 2)}),
    table(4, {(0, 1): (0, 0, 0, 1), (0, 2): (0, 0, 0, 1)}),
] + RANDOM_TABLES


def test_random_tables_reach_class_3_and_oblique_centres():
    deep = [p for p in RANDOM_TABLES if p._weights[1] >= 3]
    assert len(deep) >= 40
    units = {p.generator(k) for p in deep for k in range(p.n)}
    assert any(set(reference_center(p).basis_elements()) - units for p in deep)


def test_center_matches_lower_central_series_reference():
    """The weight-filtration walk against the lower-central-series walk;
    the result commutes with G and holds the ordered products of its rows."""
    rng = random.Random(7)
    for p in CENTER_CASES:
        z = center(p)
        assert z == reference_center(p)
        rows = z.basis_elements()
        assert all(not any(p.commutator(v, p.generator(k))) for v in rows for k in range(p.n))
        for _ in range(5):
            assert z.contains(map_into_ambient(z, [rng.randint(-2, 2) for _ in rows]))


def unpruned_center(p):
    """The weight walk of `center` with commutators taken against every
    generator at every step, also those of weight >= d, whose weight-d
    coordinates vanish."""
    gens = [p.generator(k) for k in range(p.n)]
    weights, depth = p._weights
    basis = gens
    for d in range(2, depth + 1):
        cols = [l for l, w in enumerate(weights) if w == d]
        values = [[c[l] for c in (p.commutator(b, g) for g in gens) for l in cols] for b in basis]
        ker = left_kernel(IntMatrix._from_int_rows(values, len(gens) * len(cols)))
        basis = [_ordered_product(p, basis, ker.row(i)) for i in range(ker.rows)]
    return _subgroup_from_induced(p, basis)


def test_center_matches_unpruned_walk():
    cases = [build_standard(f"ut({n})") for n in range(4, 8)] + [
        build_standard("direct_product(ut(5),ut(4))"),
        build_standard("direct_product(heisenberg,ut(4))"),
    ]
    deep = [p for p in RANDOM_TABLES if p._weights[1] >= 3]
    for p in cases + deep:
        z, ref = center(p), unpruned_center(p)
        assert z.basis == ref.basis
        assert z.basis_elements() == ref.basis_elements()


def test_center_elements_commute():
    for p in (H, unitriangular(4), direct_product(H, free_abelian(1))):
        z = center(p)
        for v in z.basis_elements():
            for k in range(p.n):
                assert p.commutator(v, p.generator(k)) == p.identity()


# ---------------------------------------------------- induced-basis closure

INDUCED_CLOSE_CASES = [build_standard(f"ut({n})") for n in range(3, 8)] + [
    build_standard("direct_product(ut(4),heisenberg)")
] + RANDOM_TABLES


def _close_both_ways(p, elements, gens=()):
    """`_InducedBasis.close` and the sweep reference, each on a basis
    holding the given elements."""
    bases = _InducedBasis(p), _InducedBasis(p)
    for base in bases:
        for x in elements:
            base.sift(x)
    bases[0].close(gens)
    reference_induced_close(bases[1], gens)
    return bases


def test_induced_close_matches_sweep_reference():
    """Closing under commutators alone gives what the sweep of inverses,
    products and commutators gives: every lower-central-series term, and
    the subgroups of the ordered-product test's generator sets and of
    random elements."""
    rng = random.Random(12)
    for p in INDUCED_CLOSE_CASES:
        gens = [p.generator(k) for k in range(p.n)]
        terms, cur = [Subgroup.whole_group(p)], gens
        while cur:
            new, ref = _close_both_ways(p, [p.commutator(u, g) for u in cur for g in gens], gens)
            terms.append(_subgroup_from_induced(p, ref.vectors()))
            assert _subgroup_from_induced(p, new.vectors()) == terms[-1]
            cur = ref.vectors()
        assert lower_central_series(p) == terms
        elements = [tuple(rng.randint(-2, 2) for _ in range(p.n)) for _ in range(2)]
        new, ref = _close_both_ways(p, elements)
        assert all(in_induced(ref, v) for v in new.vectors())
        assert all(in_induced(new, v) for v in ref.vectors())
    for name in ["ut(4)", "direct_product(ut(4),heisenberg)"]:
        p = build_standard(name)
        for elements in _ordered_product_gen_sets(p):
            new, ref = _close_both_ways(p, elements)
            assert _subgroup_from_induced(p, new.vectors()) == _subgroup_from_induced(p, ref.vectors())


# ----------------------------------------------------------------- isolator


def test_isolator_examples():
    s = lat(H, [[0, 0, 2]])
    assert isolator(H, s).basis.to_rows() == [[0, 0, 1]]
    p = free_abelian(2)
    s2 = Subgroup.from_lattice(p, [[2, 0]])
    assert isolator(p, s2).basis.to_rows() == [[1, 0]]
    derived = lat(H, [[0, 0, 1]])
    assert isolator(H, derived) == derived
    assert isolator(H, Subgroup.trivial(H)) == Subgroup.trivial(H)


def test_isolator_root_closed_oracle():
    s = lat(H, [[0, 0, 2]])
    iso = isolator(H, s)
    for v in itertools.product(range(-3, 4), repeat=3):
        for k in (2, 3):
            if iso.contains(H.power(v, k)):
                assert iso.contains(v)


# --------------------------------------------------------- center/ab report


def test_center_ab_report_abelian():
    r = center_ab_report(free_abelian(3))
    assert r.injective and r.kernel_witness is None


def test_center_ab_report_heisenberg():
    r = center_ab_report(H)
    assert not r.injective
    assert r.kernel_witness == (0, 0, 1)
    assert r.center_rank == 1


def test_center_ab_report_ut4():
    r = center_ab_report(unitriangular(4))
    assert not r.injective
    assert r.kernel_witness == (0, 0, 0, 0, 0, 1)


def reference_center_ab_report(p):
    """The Smith-form route to the witness: project the centre's Hermite
    rows through the abelianization and take the integer kernel of their
    free images."""
    z = center(p)
    quot = abelianization(p)
    basis = z.basis_elements()
    free = [quot.project(v)[0] for v in basis]
    ker = left_kernel(IntMatrix(len(free), quot.structure.free_rank, tuple(x for f in free for x in f)))
    if ker.rows == 0:
        return tuple(basis), True, None
    return tuple(basis), False, (IntMatrix.from_rows([ker.row(0)]) @ z.basis).row(0)


def test_central_split_matches_the_commutator_rules():
    """The (noncentral, central) index tuples split `central`, and a
    generator is central exactly when its commutator rule with every
    other generator is trivial, also where central generators sit
    between noncentral ones."""
    cases = CENTER_CASES + [p for p, _ in INTERLEAVED_TABLES]
    for p in cases:
        central = tuple(
            k for k in range(p.n) if not any(any(p.commutator_rule(k, j)) for j in range(p.n) if j != k)
        )
        assert p._central == central == tuple(k for k, c in enumerate(p.central) if c)
        assert p._noncentral == tuple(k for k, c in enumerate(p.central) if not c)
    assert sum(any(c and not d for c, d in zip(p.central, p.central[1:])) for p in cases) >= 60


def test_class2_fact_is_the_weight_bound():
    """`_class2`, read off the table whatever class is declared, holds
    exactly when the largest generator weight is at most 2; some tables
    declared class 3 have it."""
    cases = CENTER_CASES + [p for p, _ in INTERLEAVED_TABLES]
    for p in cases:
        assert p._class2 == (p._weights[1] <= 2)
    assert {p._class2 for p in RANDOM_TABLES} == {True, False}


MUTANT_SIFT = """
from rfrskit import subgroups
from rfrskit.pcgroups import unitriangular


def mutant(p, rows, w):
    # `_sift` multiplying by b^q instead of b^-q: the pivot is never cleared
    exps = []
    for j, b in rows:
        q = 0
        if w[j]:
            if any(w[:j]):
                break
            q, rem = divmod(w[j], b[j])
            if rem:
                break
            w = p.multiply(p.power(b, q), w)
        exps.append(q)
    return exps, w


subgroups._sift = mutant
subgroups.lower_central_series(unitriangular(4))
"""


def test_sift_without_progress_raises_instead_of_hanging():
    """A broken `_sift` makes `_InducedBasis.sift` raise at the first merge
    that does not shrink a slot's leading entry, instead of looping."""
    src = str(pathlib.Path(subgroups.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", MUTANT_SIFT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert "RuntimeError: sift made no progress at coordinate" in proc.stderr


def test_center_ab_report_matches_smith_route():
    """The first Hermite row of the centre's meet with V is the witness
    that projecting through the abelianization's Smith form gives, in
    every class, and on class-2 tables whose central generators sit
    between the others and whose meet has rank 2 or 3."""
    assert {rank for _, rank in INTERLEAVED_TABLES} == {2, 3}
    for p in CENTER_CASES + [p for p, _ in INTERLEAVED_TABLES]:
        r = center_ab_report(p)
        assert (r.center_basis, r.injective, r.kernel_witness) == reference_center_ab_report(p)


def test_injectivity_iff_abelian():
    cases = [
        free_abelian(1),
        free_abelian(4),
        H,
        unitriangular(4),
        direct_product(H, free_abelian(2)),
        direct_product(free_abelian(1), H),
    ]
    for p in cases:
        r = center_ab_report(p)
        assert r.injective == p.is_abelian()
        if r.kernel_witness is not None:
            assert abelianization(p).is_torsion(r.kernel_witness)


# ------------------------------------------------------------- file format


@functools.cache
def _census(name):
    """The normal subgroups of heisenberg to index 8, or of H x Z to 6."""
    if name == "heisenberg":
        return enumerate_normal_subgroups(H, 8)
    return enumerate_normal_subgroups(direct_product(H, free_abelian(1)), 6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_roundtrip(data):
    """A descending chain of meets of census subgroups, whole group first,
    reads back from its file as the same chain."""
    census = _census(data.draw(st.sampled_from(["heisenberg", "HxZ"])))
    chain = [Subgroup.whole_group(census[0].ambient)]
    for s in data.draw(st.lists(st.sampled_from(census), max_size=4)):
        meet = chain[-1].intersect(s)
        if meet != chain[-1]:
            chain.append(meet)
    assert chain_from_text(chain[0].ambient, chain_to_text(chain)) == chain


def test_row_blocks_skip_comments_and_split_on_blank_runs():
    text = "# chain\n1 0 0\n 0 1 0 \n0 0 1\n\n  \n# next\n\n2 0 0\n# mid\n0 1 0\n0 0 1\n\n"
    assert _row_blocks(text) == [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(2, 0, 0), (0, 1, 0), (0, 0, 1)],
    ]
    assert _row_blocks("# only a comment\n\n") == []
    assert chain_from_text(H, text) == [
        Subgroup.whole_group(H),
        subgroup_closure(H, [H.power(X, 2), Y, Z]),
    ]


def test_chain_requires_full_first_block():
    text = "2 0 0\n0 1 0\n0 0 1\n"
    with pytest.raises(ValueError):
        chain_from_text(H, text)
