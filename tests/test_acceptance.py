"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated runtime bound is asserted with time checks where the
criterion names one.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from rfrskit.intlinalg import (
    IntMatrix,
    det,
    finite_order_semisimple_check,
    is_unimodular,
    is_unipotent,
    snf,
    hnf,
)
from rfrskit.pcgroups import (
    abelianization,
    direct_product,
    free_abelian,
    heisenberg,
    unitriangular,
)
from rfrskit.raags import Graph, rtfn_witness
from rfrskit.rfrs import (
    Filtration,
    obstruction_certificate,
    restrict_chain,
    verify_rfrs_chain,
)
from rfrskit.subgroups import (
    Subgroup,
    center,
    center_ab_report,
    enumerate_normal_subgroups,
    express_in_basis,
    hirsch_rank,
    induced_presentation,
    lower_central_series,
    subgroup_closure,
)
from tables import dense_rules, table
from ut_matrices import coords_to_matrix, word_to_matrix

M = IntMatrix.from_rows
H = heisenberg()


def _report(num, name):
    print(f"acceptance criterion {num} ({name}): PASS")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_exact_linalg_random_suite():
    rng = random.Random(20260810)
    start = time.monotonic()
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = M([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.d
        assert is_unimodular(dec.u) and is_unimodular(dec.v)
        diag = dec.diagonal()
        for i, x in enumerate(diag):
            assert x >= 0
            if x and i + 1 < len(diag):
                assert diag[i + 1] % x == 0
        h, u = hnf(a)
        assert u @ a == h
        assert abs(det(u)) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"linalg suite took {elapsed:.1f}s"
    _report(1, "snf/hnf random suite")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_finite_order_classes():
    start = time.monotonic()
    # conjugacy class representatives of the finite-order elements of GL2(Z)
    reps = [
        (M([[1, 0], [0, 1]]), 1),
        (M([[-1, 0], [0, -1]]), 2),
        (M([[1, 0], [0, -1]]), 2),
        (M([[0, 1], [1, 0]]), 2),
        (M([[0, -1], [1, -1]]), 3),
        (M([[0, -1], [1, 0]]), 4),
        (M([[0, -1], [1, 1]]), 6),
    ]
    ident = IntMatrix.identity(2)
    for a, order in reps:
        rep = finite_order_semisimple_check(a)
        assert rep.order == order
        # oracle: direct power iteration
        p = a
        k = 1
        while p != ident:
            p = p @ a
            k += 1
        assert k == order
        assert rep.unipotent == (a == ident)
        assert is_unipotent(a) == (a == ident)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, "finite-order matrices are never unipotent")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_matrix_model_equivalence():
    start = time.monotonic()
    for n in (3, 4):
        p = unitriangular(n)
        letters = [(i, e) for i in range(p.n) for e in (-1, 1)]
        for length in (1, 2, 3):
            for word in itertools.product(letters, repeat=length):
                assert coords_to_matrix(n, p.collect(word)) == word_to_matrix(n, word)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"matrix-model check took {elapsed:.1f}s"
    _report(3, "collection matches unitriangular matrices")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_rank_additivity():
    # heisenberg: center rank 1, abelian quotient rank 2
    z = center(H)
    assert z.rank() == 1
    assert hirsch_rank(H) == 3 == z.rank() + (H.n - z.rank())
    series = lower_central_series(H)
    assert [series[k].rank() - series[k + 1].rank() for k in range(len(series) - 1)] == [2, 1]

    # ut(4): center rank 1, LCS quotient ranks 3 + 2 + 1
    p4 = unitriangular(4)
    assert center(p4).rank() == 1
    series = lower_central_series(p4)
    ranks = [series[k].rank() - series[k + 1].rank() for k in range(len(series) - 1)]
    assert ranks == [3, 2, 1]
    assert hirsch_rank(p4) == 6 == sum(ranks)

    # five random class-2 presentations with n <= 5
    rng = random.Random(4)
    built = 0
    while built < 5:
        n = rng.randint(2, 5)
        n_central = rng.randint(1, n - 1)
        bulk = n - n_central
        rules = {}
        for i in range(bulk):
            for j in range(i + 1, bulk):
                vec = [0] * n
                for k in range(max(bulk, j + 1), n):
                    vec[k] = rng.randint(-3, 3)
                if any(vec):
                    rules[(i, j)] = tuple(vec)
        p = table(n, rules)
        z = center(p)
        assert hirsch_rank(p) == z.rank() + (p.n - z.rank())
        built += 1

    # additivity over direct products
    for a, b in [(H, free_abelian(2)), (H, H), (unitriangular(4), free_abelian(1))]:
        assert hirsch_rank(direct_product(a, b)) == hirsch_rank(a) + hirsch_rank(b)
    _report(4, "Hirsch rank additivity")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_center_injectivity_iff_abelian():
    cases = [
        H,
        unitriangular(4),
        free_abelian(1),
        free_abelian(2),
        free_abelian(3),
        free_abelian(4),
        direct_product(H, free_abelian(1)),
        direct_product(free_abelian(2), H),
        direct_product(free_abelian(2), free_abelian(2)),
        direct_product(H, unitriangular(4)),
    ]
    for p in cases:
        rep = center_ab_report(p)
        assert rep.injective == p.is_abelian()
        assert (rep.kernel_witness is None) == rep.injective
        if rep.kernel_witness is not None:
            assert abelianization(p).is_torsion(rep.kernel_witness)
    _report(5, "center injects into abelianization iff abelian")


# ------------------------------------------------------------ criterion 6


def _torsion_oracle_rational_rank(pres, vec):
    """Independent check that vec has torsion abelianization image: it must
    lie in the Q-span of the commutator relations (Fraction elimination)."""
    rows = [list(v) for v in dense_rules(pres).values()]
    if not rows:
        return not any(vec)
    n = pres.n

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
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            r += 1
        return r

    return rank(rows + [list(vec)]) == rank(rows)


def test_criterion_6_main_theorem_certificate():
    start = time.monotonic()
    cert = obstruction_certificate(H, 8)
    assert cert.all_pass
    assert cert.witness == (0, 0, 1)
    subs = enumerate_normal_subgroups(H, 8)
    assert cert.checked_subgroups == len(subs)
    kernel_line = Subgroup.from_lattice(H, [[0, 0, 1]])
    for s in subs:
        contains = s.contains(cert.witness)
        # every subgroup that can appear in a conditioned chain (it must
        # contain the rational-abelianization kernel) holds the witness
        if s.contains_subgroup(kernel_line):
            assert contains
        if contains:
            sub = induced_presentation(s)
            local = express_in_basis(s, cert.witness)
            assert abelianization(sub).is_torsion(local)
            # cross-check against the rational-rank oracle
            assert _torsion_oracle_rational_rank(sub, local)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"certificate took {elapsed:.1f}s"
    _report(6, "bounded obstruction certificate with witness (0,0,1)")


def test_criterion_6_certificate_at_index_64():
    # every normal subgroup of index <= 64: the Grunewald-Segal-Smith count
    cert = obstruction_certificate(H, 64)
    assert cert.all_pass
    assert cert.checked_subgroups == 3679
    _report(6, "certificate over all 3679 normal subgroups of index <= 64")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_inheritance():
    rng = random.Random(7)
    p = free_abelian(3)
    checked = 0
    while checked < 20:
        chain = [Subgroup.whole_group(p)]
        cur = IntMatrix.identity(3)
        for _ in range(rng.randint(1, 3)):
            scale = [
                [rng.choice([1, 2, 3]) if i == j else (rng.randint(0, 1) if j > i else 0) for j in range(3)]
                for i in range(3)
            ]
            cur = IntMatrix.from_rows(scale) @ cur
            cand = Subgroup.from_lattice(p, cur.to_rows())
            if cand != chain[-1]:
                chain.append(cand)
        if len(chain) < 2:
            continue
        f = Filtration.from_subgroups(p, chain)
        assert verify_rfrs_chain(f).overall
        h = Subgroup.from_lattice(
            p, [[rng.choice([1, 2]) if i == j else 0 for j in range(3)] for i in range(3)]
        )
        g = restrict_chain(f, h)
        assert verify_rfrs_chain(g).overall
        checked += 1

    heis_chain = Filtration.from_subgroups(
        H,
        [
            Subgroup.whole_group(H),
            subgroup_closure(H, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
            subgroup_closure(H, [(2, 0, 0), (0, 2, 0), (0, 0, 1)]),
        ],
    )
    assert verify_rfrs_chain(heis_chain).overall
    for h in enumerate_normal_subgroups(H, 8):
        g = restrict_chain(heis_chain, h)
        assert verify_rfrs_chain(g).overall
    _report(7, "restricted chains inherit the step conditions")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_abelian_positive_control():
    factorials = [1, 2, 6, 24]
    for n in (1, 2, 3):
        p = free_abelian(n)
        chain = []
        for k in factorials:
            rows = [[k if i == j else 0 for j in range(n)] for i in range(n)]
            chain.append(Subgroup.from_lattice(p, rows))
        f = Filtration.from_subgroups(p, chain)
        rep = verify_rfrs_chain(f)
        assert rep.overall
        for step in rep.steps:
            assert step.normal_in_g and step.kernel_contained
        # the finite intersection shrinks strictly along the chain
        indices = [s.index() for s in f.chain]
        assert indices == sorted(set(indices))
        assert rep.intersection == chain[-1]
    _report(8, "factorial congruence chains pass on free abelian groups")


# ------------------------------------------------------------ criterion 9


def test_criterion_9_raag_separation():
    start = time.monotonic()
    graphs = [
        Graph.edgeless(2),
        Graph.complete(2),
        Graph.complete(3),
        Graph.path(3),
    ]
    for g in graphs:
        rep = rtfn_witness(g, 4)
        assert rep.separated, f"separation failed on {g}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"separation checks took {elapsed:.1f}s"
    _report(9, "short elements separated by truncated series")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_cli_golden(tmp_path):
    bad_chain = tmp_path / "bad_chain.txt"
    bad_chain.write_text("1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 2\n")
    invocations = [
        (["analyze", "--group", "heisenberg", "--json"], 0),
        (["rfrs-obstruct", "--group", "heisenberg", "--max-index", "8", "--json"], 0),
        (["rfrs-verify", "--group", "heisenberg", "--chain", str(bad_chain), "--json"], 1),
    ]
    for args, expected in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "rfrskit"] + args, capture_output=True, text=True
            )
            for _ in range(2)
        ]
        for proc in runs:
            assert proc.returncode == expected, proc.stderr
            json.loads(proc.stdout)
        assert runs[0].stdout == runs[1].stdout  # byte-identical
    _report(10, "CLI golden reports and exit codes")
