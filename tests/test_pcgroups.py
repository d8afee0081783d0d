import functools
import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfrskit import pcgroups
from rfrskit.hall import multiplication_table
from rfrskit.pcgroups import (
    MAX_GENERATORS,
    PcPresentation,
    abelianization,
    build_standard,
    direct_product,
    free_abelian,
    heisenberg,
    presentation_from_text,
    presentation_to_text,
    unitriangular,
)
from rfrskit.subgroups import _require_class2, lower_central_series
from tables import dense_rules, table
from test_subgroups import CENTER_CASES, INTERLEAVED_TABLES, RANDOM_TABLES
from ut_matrices import (
    coords_to_matrix,
    mat_mul,
    mat_pow,
    matrix_ut_rules,
    transvection_power,
    ut_inverse,
    ut_peel,
    word_to_matrix,
)


# ------------------------------------------------------- reference collector
# Step-by-step collection: the tail is conjugated through g_k one step at a
# time, abs(e) times, each generator's conjugate solved for separately.
# Products u g_k^e are memoized on (u, k, e), which leaves the algorithm as
# it is and only spares repeating it.


class StepCollector:
    def __init__(self, p):
        self.p = p
        self.n = p.n
        self.cache = {}
        self.products = {}

    def identity(self):
        return (0,) * self.n

    def conj_gen(self, m, k, sign):
        """Conjugate g_m by g_k^sign, for k < m and sign = +-1."""
        key = (m, k, sign)
        if key in self.cache:
            return self.cache[key]
        gm = self.p.generator(m)
        if sign == 1:
            rule = self.p.commutator_rule(k, m)
            result = self.mul(gm, rule) if any(rule) else gm
        else:
            # solve conj(x, k, +1) == g_m by unipotent fixed-point iteration
            x = gm
            for _ in range(self.n + 2):
                defect = self.mul(self.inv(self.conj_tail(x, k, 1)), gm)
                if not any(defect):
                    break
                x = self.mul(x, defect)
            else:
                raise RuntimeError("conjugation inversion failed to converge")
            result = x
        self.cache[key] = result
        return result

    def conj_tail(self, t, k, e):
        """Conjugate an element supported above k by g_k^e."""
        if e == 0 or not any(t):
            return t
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            acc = self.identity()
            for m in range(k + 1, self.n):
                if t[m]:
                    acc = self.mul(acc, self.pow(self.conj_gen(m, k, sign), t[m]))
            if acc == t:
                break  # a fixed point of one step is one of every later step
            t = acc
        return t

    def mul_gen_power(self, u, k, e):
        if e == 0:
            return u
        key = (u, k, e)
        if key not in self.products:
            tail = tuple(0 if t <= k else u[t] for t in range(self.n))
            new_tail = self.conj_tail(tail, k, e)
            self.products[key] = tuple(
                u[t] if t < k else (u[t] + e if t == k else new_tail[t]) for t in range(self.n)
            )
        return self.products[key]

    def mul(self, u, v):
        res = u
        for k in range(self.n):
            if v[k]:
                res = self.mul_gen_power(res, k, v[k])
        return res

    def inv(self, u):
        lead = next((k for k in range(self.n) if u[k]), None)
        if lead is None:
            return u
        tail = tuple(0 if t <= lead else u[t] for t in range(self.n))
        return self.mul_gen_power(self.inv(tail), lead, -u[lead])

    def pow(self, u, e):
        if e < 0:
            return self.pow(self.inv(u), -e)
        result = self.identity()
        base = u
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def commutator(self, u, v):
        return self.mul(self.mul(self.inv(u), self.inv(v)), self.mul(u, v))


# ---------------------------------------------------------------- builders


def test_heisenberg_shape():
    h = heisenberg()
    assert h.n == 3 and h.nilpotency_class == 2
    assert h.central == (False, False, True)
    assert h.commutator(h.generator(0), h.generator(1)) == (0, 0, 1)


def test_free_abelian_shape():
    p = free_abelian(2)
    assert p.n == 2 and p.nilpotency_class == 1 and not p.rules


def test_ut4_shape():
    p = unitriangular(4)
    assert p.n == 6 and p.nilpotency_class == 3


def test_ut3_matches_heisenberg():
    assert unitriangular(3).rules == heisenberg().rules


@pytest.mark.parametrize("n", range(2, 9))
def test_ut_steinberg_table_matches_matrix_model(n):
    assert dense_rules(unitriangular(n)) == matrix_ut_rules(n)


def test_build_standard_names():
    assert build_standard("heisenberg") == heisenberg()
    assert build_standard("free_abelian(2)") == free_abelian(2)
    assert build_standard("ut(4)") == unitriangular(4)
    # the argument is read as the numbers of every file are: a sign and int's whitespace are taken
    assert build_standard("ut(+4)") == build_standard("ut( 4\t)") == unitriangular(4)
    combo = build_standard("direct_product(heisenberg,free_abelian(1))")
    assert combo.n == 4
    with pytest.raises(ValueError):
        build_standard("dihedral")


def test_validation_rejects_nontriangular():
    message = ("rule for pair (0, 1) must be a word of (l, e_l) pairs with 1 < l < 3, "
               "l increasing and every e_l != 0")
    with pytest.raises(ValueError, match=re.escape(message)):
        PcPresentation(3, {(0, 1): ((1, 1),)})


def test_inconsistent_table_detected():
    # g3 commutes with g1 and g2, hence with [g2, g1] = g4 in any group,
    # so demanding [g4, g3] = g5 is contradictory
    with pytest.raises(ValueError):
        PcPresentation(5, {(0, 1): ((3, 1),), (2, 3): ((4, 1),)}).check_consistency()


# ---------------------------------------------------------------- collection


def test_collect_examples():
    h = heisenberg()
    assert h.collect([(0, 1), (1, 1)]) == (1, 1, 0)
    assert h.collect([(1, 1), (0, 1)]) == (1, 1, -1)
    assert h.collect([]) == (0, 0, 0)
    with pytest.raises(ValueError, match="generator index 3 out of range"):
        h.collect([(3, 1)])


CLASS2_COLLECT_CASES = [
    ("heisenberg", heisenberg),
    ("HxZ", lambda: direct_product(heisenberg(), free_abelian(1))),
    ("ZxH", lambda: direct_product(free_abelian(1), heisenberg())),
    ("HxH", lambda: direct_product(heisenberg(), heisenberg())),
    ("Q2(P4)", lambda: presentation_from_text("7 2\n1 3 : 0 1 0 0\n1 4 : 0 1 0\n2 4 : 0 0 1\n")),
    ("free_abelian(3)", lambda: free_abelian(3)),
    ("trivial", lambda: PcPresentation(0, {})),
]


@pytest.mark.parametrize("name,build", CLASS2_COLLECT_CASES, ids=[c[0] for c in CLASS2_COLLECT_CASES])
def test_class2_collect_matches_closed_form_syllable_products(name, build):
    """`collect` in class <= 2 goes through the collector; the reference is
    the closed-form product of one syllable power g_idx^e at a time."""
    p = build()
    assert p.nilpotency_class <= 2
    rng = random.Random(28)
    for _ in range(60):
        # repeated generators, any order, zero exponents; the trivial group has only the empty word
        length = rng.randint(0, 12) if p.n else 0
        word = [(rng.randrange(p.n), rng.randint(-25, 25)) for _ in range(length)]
        expected = p.identity()
        for idx, e in word:
            expected = p.multiply(expected, p.power(p.generator(idx), e))
        assert p.collect(word) == expected


def test_heisenberg_product_formula():
    h = heisenberg()
    rng = random.Random(3)
    for _ in range(200):
        u = tuple(rng.randint(-5, 5) for _ in range(3))
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        a1, b1, c1 = u
        a2, b2, c2 = v
        assert h.multiply(u, v) == (a1 + a2, b1 + b2, c1 + c2 - b1 * a2)


def test_commutator_examples():
    h = heisenberg()
    x, y = h.generator(0), h.generator(1)
    assert h.commutator(x, y) == (0, 0, 1)
    assert h.commutator(x, x) == h.identity()
    assert h.commutator(h.power(x, 2), y) == (0, 0, 2)


@pytest.mark.parametrize("n", [3, 4])
def test_collection_matches_matrix_model(n):
    p = unitriangular(n)
    m = p.n
    letters = [(i, e) for i in range(m) for e in (1, -1)]
    for length in (1, 2, 3):
        for word in itertools.product(letters, repeat=length):
            nf = p.collect(word)
            assert coords_to_matrix(n, nf) == word_to_matrix(n, word)


def test_collection_matches_matrix_model_longer_words():
    # heisenberg: exhaustive over words of length <= 4 with exponents in
    # [-2, 2]; ut(4): exhaustive at length 2 plus a seeded sample at 3-4
    p3 = unitriangular(3)
    letters3 = [(i, e) for i in range(3) for e in (-2, -1, 1, 2)]
    for length in (1, 2, 3, 4):
        for word in itertools.product(letters3, repeat=length):
            assert coords_to_matrix(3, p3.collect(word)) == word_to_matrix(3, word)
    p4 = unitriangular(4)
    letters4 = [(i, e) for i in range(6) for e in (-2, -1, 1, 2)]
    for word in itertools.product(letters4, repeat=2):
        assert coords_to_matrix(4, p4.collect(word)) == word_to_matrix(4, word)
    rng = random.Random(12)
    for _ in range(1500):
        word = [rng.choice(letters4) for _ in range(rng.choice([3, 4]))]
        assert coords_to_matrix(4, p4.collect(word)) == word_to_matrix(4, word)


def test_generic_path_matches_fast_path_class2():
    h = heisenberg()
    rng = random.Random(11)
    for _ in range(100):
        u = tuple(rng.randint(-3, 3) for _ in range(3))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        assert h._collector.mul(u, v) == h.multiply(u, v)
        assert h._collector.inv(u) == h.inverse(u)
        assert h._collector.commutator(u, v) == h.commutator(u, v)
    # the collected commutator against the closed form B(u, v) - B(v, u)
    for p in LAW_CASES:
        if not p._class2:
            continue
        for _ in range(3):
            u = tuple(rng.randint(-3, 3) for _ in range(p.n))
            v = tuple(rng.randint(-3, 3) for _ in range(p.n))
            assert p._collector.commutator(u, v) == p.commutator(u, v)


def test_commutator_laws_on_unitriangular():
    # [u, 1] = [u, u] = [u, u^3] = 1, through collection
    rng = random.Random(47)
    for n in (4, 5, 6):
        p = unitriangular(n)
        one = p.identity()
        for _ in range(40):
            u = tuple(rng.randint(-4, 4) for _ in range(p.n))
            assert p.commutator(u, one) == p.commutator(one, u) == one
            assert p.commutator(u, u) == one
            assert p.commutator(u, p.power(u, 3)) == one


def test_class2_table_declared_class_3_takes_the_closed_forms():
    """The table picks the path: a presentation built from heisenberg's
    rules, once declarable as class 3, agrees with heisenberg and builds
    no collector."""
    h = heisenberg()
    p = PcPresentation(3, h.rules)
    rng = random.Random(30)
    for _ in range(100):
        u = tuple(rng.randint(-5, 5) for _ in range(3))
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        e = rng.randint(-6, 6)
        assert p.multiply(u, v) == h.multiply(u, v)
        assert p.inverse(u) == h.inverse(u)
        assert p.power(u, e) == h.power(u, e)
        assert p.commutator(u, v) == h.commutator(u, v)
    p.check_consistency()
    assert "_collector" not in vars(p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_group_laws_random_class2(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    p = _random_class2(rng, n)
    u = tuple(rng.randint(-3, 3) for _ in range(n))
    v = tuple(rng.randint(-3, 3) for _ in range(n))
    w = tuple(rng.randint(-3, 3) for _ in range(n))
    assert p.multiply(p.multiply(u, v), w) == p.multiply(u, p.multiply(v, w))
    assert p.multiply(u, p.inverse(u)) == p.identity()
    assert p.power(u, 3) == p.multiply(u, p.multiply(u, u))
    assert p.power(u, -2) == p.inverse(p.multiply(u, u))


def _random_class2(rng, n):
    """Triangular class-<=2 table: a split into bulk + trailing central part."""
    n_central = rng.randint(1, n - 1)
    bulk = n - n_central
    rules = {}
    for i in range(bulk):
        for j in range(i + 1, bulk):
            vec = [0] * n
            for k in range(max(bulk, j + 1), n):
                vec[k] = rng.randint(-4, 4)
            if any(vec):
                rules[(i, j)] = tuple(vec)
    return table(n, rules)


def test_ut4_associativity_random_words():
    p = unitriangular(4)
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(rng.randint(-2, 2) for _ in range(6))
        v = tuple(rng.randint(-2, 2) for _ in range(6))
        w = tuple(rng.randint(-2, 2) for _ in range(6))
        assert p.multiply(p.multiply(u, v), w) == p.multiply(u, p.multiply(v, w))
        assert p.multiply(u, p.inverse(u)) == p.identity()


GENERIC_CASES = [
    ("ut(4)", 3),
    ("ut(5)", 3),
    ("direct_product(ut(4),heisenberg)", 3),
    ("ut(6)", 1),
]


@pytest.mark.parametrize("name,bound", GENERIC_CASES, ids=[f"{n}-e{b}" for n, b in GENERIC_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_polynomial_collection_matches_step_reference(name, bound, data):
    p = build_standard(name)
    ref = StepCollector(p)
    elt = st.tuples(*[st.integers(-bound, bound)] * p.n)
    u, v = data.draw(elt), data.draw(elt)
    e = data.draw(st.integers(-3, 3))
    assert p.multiply(u, v) == ref.mul(u, v)
    assert p.inverse(u) == ref.inv(u)
    assert p.power(u, e) == ref.pow(u, e)
    assert p.commutator(u, v) == ref.commutator(u, v)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_large_exponents_match_matrix_model(n):
    p = unitriangular(n)
    rng = random.Random(n)
    for _ in range(8):
        u = tuple(rng.randint(-1000, 1000) for _ in range(p.n))
        v = tuple(rng.randint(-1000, 1000) for _ in range(p.n))
        mu, mv = coords_to_matrix(n, u), coords_to_matrix(n, v)
        assert coords_to_matrix(n, p.multiply(u, v)) == mat_mul(mu, mv)
        assert coords_to_matrix(n, p.inverse(u)) == ut_inverse(mu)
        e = rng.choice([-7, -2, 2, 5])
        assert coords_to_matrix(n, p.power(u, e)) == mat_pow(mu, e)
        assert coords_to_matrix(n, p.commutator(u, v)) == mat_mul(
            mat_mul(ut_inverse(mu), ut_inverse(mv)), mat_mul(mu, mv)
        )


def test_off_grid_check_rejects_corrupted_table():
    # ut(4) with [g1, g0] = g3 g2: g2 is not central, so the table is
    # inconsistent; conjugation by g0 sends g1 to g1 g2 g3, which does not
    # commute with g2 as g1 does
    message = re.escape(
        "inconsistent presentation: conjugation by g0 breaks the relation g2 g1 = g1 g2 [g2, g1]"
    )
    rules = dense_rules(unitriangular(4))
    rules[(0, 1)] = (0, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError, match=message):
        table(6, rules).check_consistency()
    # ut(5) with [g1, g0] = g4 g2 has 10 generators; it builds, and its
    # first product refuses it
    rules = dense_rules(unitriangular(5))
    rules[(0, 1)] = (0, 0, 1, 0, 1, 0, 0, 0, 0, 0)
    p = table(10, rules)
    with pytest.raises(ValueError, match=message):
        p.multiply(p.generator(1), p.generator(0))


# The 5-generator table 5 3 / 1 2 : 0 1 0 / 3 4 : 1 with four free
# generators added: (g2 g1) g0 = (1, 1, 1, 1, 1, 0, 0, 0, 0), but
# g2 (g1 g0) = (1, 1, 1, 1, 0, 0, 0, 0, 0).
NINE_GENERATOR_INCONSISTENT = "9 3\n1 2 : 0 1 0 0 0 0 0\n3 4 : 1 0 0 0 0\n"


def sweep_consistent(p):
    """Reference: the collected products (g_c g_b) g_a and g_c (g_b g_a)
    agree for every c > b > a.  Products come from the step reference,
    which builds no conjugation table."""
    ref = StepCollector(p)
    gens = [p.generator(k) for k in range(p.n)]
    return all(
        ref.mul(ref.mul(gens[c], gens[b]), gens[a]) == ref.mul(gens[c], ref.mul(gens[b], gens[a]))
        for c, b, a in itertools.combinations(reversed(range(p.n)), 3)
    )


def test_nine_generator_inconsistent_table_is_refused():
    """The reader reads the class off the table, so it refuses the file;
    the constructor builds the table, and its first product refuses it."""
    with pytest.raises(ValueError, match="inconsistent presentation"):
        presentation_from_text(NINE_GENERATOR_INCONSISTENT)
    p = PcPresentation(9, {(0, 1): ((3, 1),), (2, 3): ((4, 1),)})
    assert not sweep_consistent(p)
    with pytest.raises(ValueError, match="inconsistent presentation"):
        p.multiply(p.generator(1), p.generator(0))


def test_relation_moved_only_through_its_commutator_is_refused():
    # conjugation by g0 fixes g1 and g2 but sends g3 = [g2, g1] to g3 g4,
    # so it breaks g2 g1 = g1 g2 g3
    p = PcPresentation(5, {(1, 2): ((3, 1),), (0, 3): ((4, 1),)})
    assert not sweep_consistent(p)
    message = "conjugation by g0 breaks the relation g2 g1 = g1 g2 [g2, g1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        p.check_consistency()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_collector_accepts_exactly_the_sweep_consistent_tables(data):
    """Tables on 4..9 generators, declared class 3: a consistent one (free
    abelian, so possibly empty) with a few entries redrawn.  The collector's
    per-level check accepts a table exactly when the triple sweep does, and
    on accepted tables it agrees with the step reference."""
    bases = [free_abelian(n) for n in range(4, 10)] + [
        unitriangular(4),
        free_class3(),
        filiform(7),
        filiform(9),
        direct_product(unitriangular(4), heisenberg()),
        direct_product(free_class3(), free_abelian(4)),
    ]
    base = data.draw(st.sampled_from(bases))
    n = base.n
    entry = st.sampled_from([1, 0, -1, 2, -2])
    rules = dense_rules(base)
    triples = list(itertools.combinations(range(n), 3))
    for i, j, l in data.draw(st.lists(st.sampled_from(triples), max_size=n)):
        vec = list(rules.get((i, j), (0,) * n))
        vec[l] = data.draw(entry)
        rules[(i, j)] = tuple(vec)
    p = table(n, rules)
    assume(p._weights[1] >= 3)
    try:
        p.check_consistency()
        accepted = True
    except ValueError as exc:
        assert str(exc).startswith("inconsistent presentation: conjugation by g")
        accepted = False
    assert accepted == sweep_consistent(p)
    if not accepted:
        return
    ref = StepCollector(p)
    elt = st.tuples(*[st.integers(-3, 3)] * n)
    u, v = data.draw(elt), data.draw(elt)
    e = data.draw(st.integers(-3, 3))
    assert p.multiply(u, v) == ref.mul(u, v)
    assert p.inverse(u) == ref.inv(u)
    assert p.power(u, e) == ref.pow(u, e)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_accepted_class2_tables_are_consistent(data):
    """A table whose commutator values are all central gets no consistency
    pass when built, so every such table must pass that check and give
    associative products and inverses on random elements.

    The tables put commutator values on generators drawn as central, and
    sometimes leak one onto a generator that is not; unless that generator
    is central after all, the table is left to the collector's check."""
    n = data.draw(st.integers(4, 7))
    flagged = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    leak = data.draw(st.booleans())
    entry = st.integers(-3, 3)
    rules = {}
    for i in range(n):
        for j in range(i + 1, n):
            if flagged[i] or flagged[j] or not data.draw(st.booleans()):
                continue
            rules[(i, j)] = (0,) * (j + 1) + tuple(
                data.draw(entry) if flagged[k] or leak else 0 for k in range(j + 1, n)
            )
    p = table(n, rules)
    if not p._class2:
        assert leak
        return
    p.check_consistency()
    elt = st.tuples(*[st.integers(-4, 4)] * n)
    u, v, w = data.draw(elt), data.draw(elt), data.draw(elt)
    assert p.multiply(p.multiply(u, v), w) == p.multiply(u, p.multiply(v, w))
    assert p.multiply(p.inverse(u), u) == p.identity()
    assert p.multiply(u, p.inverse(u)) == p.identity()


def test_conjugation_polynomials_stay_below_the_weight_bound():
    # a term C(s, i) C(e, j) has i, j >= 1 and i w(m) + j w(k) <= D, so
    # each variable's degree is at most D - 1
    for n in range(4, 8):
        p = unitriangular(n)
        p.multiply(p.generator(1), p.generator(0))
        top = p._weights[1] - 1
        assert top == n - 2
        terms = [
            t for level in p._collector.levels for poly in level.values() for _, ts in poly for t in ts
        ]
        assert terms
        assert all(1 <= i <= top and 1 <= j <= top for i, j, _ in terms)


def test_conjugation_table_is_built_lazily():
    p = unitriangular(6)
    assert "_collector" not in vars(p)
    p.multiply(p.generator(1), p.generator(0))
    assert "_collector" in vars(p)
    h = heisenberg()
    h.multiply(h.generator(1), h.generator(0))
    assert "_collector" not in vars(h)


def filiform(n):
    """Maximal class on n generators: [g_j, g_0] = g_(j+1) for 1 <= j <= n - 2."""
    return PcPresentation(n, {(0, j): ((j + 1, 1),) for j in range(1, n - 1)})


def free_class3():
    """Free nilpotent of class 3 on x = g0, y = g1: g2 = [y, x], g3 = [g2, x], g4 = [g2, y]."""
    return PcPresentation(5, {(0, 1): ((2, 1),), (0, 2): ((3, 1),), (1, 2): ((4, 1),)})


TIGHT_CASES = [(f"filiform{n}", lambda n=n: filiform(n)) for n in range(4, 10)] + [
    ("free_class3", free_class3)
]


def _pair_degrees(p):
    """{(k, m): ((bound_s, bound_e), (top i, top j))} over the pairs with a rule."""
    p.multiply(p.generator(1), p.generator(0))
    w, top = p._weights
    out = {}
    for k, level in enumerate(p._collector.levels):
        for m, poly in level.items():
            terms = [t for _, ts in poly for t in ts]
            bounds = ((top - w[k]) // w[m], (top - w[m]) // w[k])
            out[(k, m)] = (bounds, (max(i for i, _, _ in terms), max(j for _, j, _ in terms)))
    assert set(out) == set(p.rules)
    return top, out


@pytest.mark.parametrize("name,build", TIGHT_CASES, ids=[c[0] for c in TIGHT_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tight_grid_tables_match_step_reference(name, build, data):
    p = build()
    ref = StepCollector(p)
    elt = st.tuples(*[st.integers(-3, 3)] * p.n)
    u, v = data.draw(elt), data.draw(elt)
    e = data.draw(st.integers(-3, 3))
    assert p.multiply(u, v) == ref.mul(u, v)
    assert p.inverse(u) == ref.inv(u)
    assert p.power(u, e) == ref.pow(u, e)
    assert p.commutator(u, v) == ref.commutator(u, v)


# the last: [g1, g0] = g2 and [g2, g1] = g3, so g0^-e g1^s g0^e reaches the
# weight-3 g3 only through the rule between g1 and g2, not through a conjugation
REACH_CASES = [(f"ut({n})", lambda n=n: unitriangular(n)) for n in range(4, 9)] + TIGHT_CASES + [
    ("free_class3/[g2,g0]", lambda: PcPresentation(4, {(0, 1): ((2, 1),), (1, 2): ((3, 1),)}))
]


@pytest.mark.parametrize("name,build", REACH_CASES, ids=[c[0] for c in REACH_CASES])
def test_reach_grids_give_the_levels_of_the_weight_bound(name, build, monkeypatch):
    # a reach of every generator sizes each pair's grid on D, the largest weight
    p = build()
    levels = pcgroups._Collector(p).levels
    monkeypatch.setattr(pcgroups, "_reach", lambda ruled, k, m: range(len(ruled)))
    assert pcgroups._Collector(p).levels == levels


@pytest.mark.parametrize("n", range(4, 10))
def test_filiform_grids_reach_the_e_bound(n):
    # g_0^-e g_j^s g_0^e has coordinate j + i equal to s C(e, i), so every
    # pair's e-degree is its bound D - w(j), which is D - 1 at j = 1
    top, pairs = _pair_degrees(filiform(n))
    assert top == n - 1
    for (k, m), (bounds, degrees) in pairs.items():
        assert degrees == (1, bounds[1])
    assert pairs[(0, 1)][1] == (1, top - 1)


def test_free_class3_grids_reach_both_bounds():
    # x^-e y^s x^e = y^s [y, x]^(s e) [y, x, x]^(s C(e, 2)) [y, x, y]^(C(s, 2) e)
    top, pairs = _pair_degrees(free_class3())
    assert top == 3
    assert all(degrees == bounds for bounds, degrees in pairs.values())
    assert pairs[(0, 1)][1] == (top - 1, top - 1)
    assert pairs[(0, 2)][1] == pairs[(1, 2)][1] == (1, 1)


class UtBlockReference:
    """StepCollector's interface on block-diagonal ut(n_1) + ut(n_2) + ...:
    the coordinates split into one block per size, products are matrix
    products, and `ut_peel` reads the coordinates back."""

    def __init__(self, p, sizes):
        self.p = p
        self.n = p.n
        self.sizes = sizes

    def identity(self):
        return (0,) * self.n

    def blocks(self, u):
        out, start = [], 0
        for size in self.sizes:
            width = size * (size - 1) // 2
            out.append(coords_to_matrix(size, u[start : start + width]))
            start += width
        return out

    def coords(self, mats):
        return tuple(x for m in mats for x in ut_peel(m))

    def mul(self, u, v):
        return self.coords(mat_mul(a, b) for a, b in zip(self.blocks(u), self.blocks(v)))

    def inv(self, u):
        return self.coords(ut_inverse(a) for a in self.blocks(u))

    def pow(self, u, e):
        return self.coords(mat_pow(a, e) for a in self.blocks(u))

    def commutator(self, u, v):
        return self.mul(self.mul(self.inv(u), self.inv(v)), self.mul(u, v))


# name, builder, and the ut block sizes of a matrix reference (None: StepCollector)
WORD_CASES = [
    ("ut(5)", lambda: unitriangular(5), (5,)),
    ("filiform7", lambda: filiform(7), None),
    ("free_class3", free_class3, None),
    # a class-2 block below a class-4 block; heisenberg's table is ut(3)'s
    ("direct_product(heisenberg,ut(5))", lambda: build_standard("direct_product(heisenberg,ut(5))"), (3, 5)),
]


@pytest.fixture(scope="module")
def word_references():
    """One reference per group name, so a StepCollector's memo outlives an example."""
    return {}


@pytest.mark.parametrize("name,build,blocks", WORD_CASES, ids=[c[0] for c in WORD_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_collect_matches_step_reference_on_words(name, build, blocks, word_references, data):
    if name not in word_references:
        p = build()
        word_references[name] = StepCollector(p) if blocks is None else UtBlockReference(p, blocks)
    ref = word_references[name]
    p = ref.p
    # repeated generators, any order, zero exponents
    word = data.draw(st.lists(st.tuples(st.integers(0, p.n - 1), st.integers(-25, 25)), max_size=12))
    expected = ref.identity()
    for idx, e in word:
        expected = ref.mul(expected, tuple(e if t == idx else 0 for t in range(p.n)))
    assert p.collect(word) == expected
    elt = st.tuples(*[st.integers(-8, 8)] * p.n)
    u, v = data.draw(elt), data.draw(elt)
    e = data.draw(st.integers(-8, 8))
    assert p.multiply(u, v) == ref.mul(u, v)
    assert p.inverse(u) == ref.inv(u)
    assert p.power(u, e) == ref.pow(u, e)
    assert p.commutator(u, v) == ref.commutator(u, v)


class WriteLog(list):
    """An exponent list that records the coordinates written into it."""

    def __init__(self, values):
        super().__init__(values)
        self.written = []

    def __setitem__(self, k, value):
        self.written.append(k)
        super().__setitem__(k, value)


def test_commuting_prefix_of_the_tail_is_copied():
    # in ut(4), g0 = E01 commutes with g2 = E23, g3 = E02 and g5 = E03, not with g4 = E13
    p = unitriangular(4)
    collector = p._collector
    for u in [(0, 0, 3, -2, 5, 1), (4, 0, -1, 2, -3, 0), (0, 0, 0, 7, 2, -4)]:
        for e in (-3, 1, 4):
            r = WriteLog(u)
            got = collector._collect(r, [(0, e)])
            assert got == p.multiply(u, (e, 0, 0, 0, 0, 0))
            assert coords_to_matrix(4, got) == mat_mul(
                coords_to_matrix(4, u), transvection_power(4, (0, 1), e)
            )
            # g2 and g3 sit in the run below g4 that stays on the list, so
            # no syllable of theirs is pushed back and collected again
            assert 0 in r.written and 2 not in r.written and 3 not in r.written
    # g0 commutes with the whole tail: only its own coordinate moves
    r = WriteLog((1, 0, 3, -2, 0, 6))
    assert collector._collect(r, [(0, 5)]) == (6, 0, 3, -2, 0, 6)
    assert r.written == [0]


def test_commuting_block_above_a_noncommuting_one():
    # direct_product(ut(4), heisenberg): the heisenberg block commutes with
    # every ut(4) generator, but not with itself
    p = build_standard("direct_product(ut(4),heisenberg)")
    a, b = unitriangular(4), heisenberg()
    rng = random.Random(17)
    for _ in range(60):
        u = tuple(rng.randint(-9, 9) for _ in range(9))
        v = tuple(rng.randint(-9, 9) for _ in range(9))
        e = rng.choice([-4, -1, 2, 3])
        assert p.multiply(u, v) == a.multiply(u[:6], v[:6]) + b.multiply(u[6:], v[6:])
        assert p.inverse(u) == a.inverse(u[:6]) + b.inverse(u[6:])
        assert p.power(u, e) == a.power(u[:6], e) + b.power(u[6:], e)
        assert p.commutator(u, v) == a.commutator(u[:6], v[:6]) + b.commutator(u[6:], v[6:])


def test_commutator_is_one_collection(monkeypatch):
    p = unitriangular(5)
    p.check_consistency()  # the collector's own build collects too
    rng = random.Random(4)
    u = tuple(rng.randint(-3, 3) for _ in range(p.n))
    v = tuple(rng.randint(-3, 3) for _ in range(p.n))
    calls = []

    def count(cls, name):
        real = getattr(cls, name)

        def counted(self, *args):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(cls, name, counted)

    count(PcPresentation, "multiply")
    count(PcPresentation, "inverse")
    count(pcgroups._Collector, "_collect")
    got = p.commutator(u, v)
    assert calls == ["_collect"]
    mu, mv = coords_to_matrix(5, u), coords_to_matrix(5, v)
    assert coords_to_matrix(5, got) == mat_mul(
        mat_mul(ut_inverse(mu), ut_inverse(mv)), mat_mul(mu, mv)
    )


# ------------------------------------------------------------ abelianization


def test_abelianization_heisenberg():
    q = abelianization(heisenberg())
    assert q.structure.free_rank == 2 and not q.structure.invariant_factors
    free, tors = q.project((0, 0, 1))
    assert not any(free) and not any(tors)


def test_abelianization_free_abelian_identity():
    q = abelianization(free_abelian(3))
    assert q.structure.free_rank == 3
    free, _ = q.project((1, 2, 3))
    assert sorted(abs(x) for x in free) == [1, 2, 3]


def test_abelianization_ut4():
    q = abelianization(unitriangular(4))
    assert q.structure.free_rank == 3 and not q.structure.invariant_factors


def test_rational_kernel_membership():
    h = heisenberg()
    assert abelianization(h).is_torsion((0, 0, 1))
    assert not abelianization(h).is_torsion((1, 0, 0))


def test_commutators_die_rationally():
    for p in (heisenberg(), unitriangular(4), direct_product(heisenberg(), free_abelian(2))):
        rng = random.Random(1)
        for _ in range(20):
            u = tuple(rng.randint(-2, 2) for _ in range(p.n))
            v = tuple(rng.randint(-2, 2) for _ in range(p.n))
            assert abelianization(p).is_torsion(p.commutator(u, v))


# ------------------------------------------------------------ nilpotency class

# [g1, g0] = g2 g3^-1 and [g2, g0] = [g3, g0] = g4: g2 and g3 are not
# central, so g4 has weight 3, but g2 g3^-1 is, and the class is 2
FOUND30 = PcPresentation(5, {(0, 1): ((2, 1), (3, -1)), (0, 2): ((4, 1),), (0, 3): ((4, 1),)})


def test_class_is_the_lower_central_series_length():
    """The class read off the table against the length of the lower
    central series, on tables of class 0 to 8, two of them of class below
    their largest generator weight."""
    below = [FOUND30, direct_product(FOUND30, heisenberg())]
    assert all(p.nilpotency_class < p._weights[1] for p in below)
    cases = (
        CENTER_CASES
        + [p for p, _ in INTERLEAVED_TABLES]
        + [build() for _, build in CLASS2_COLLECT_CASES]
        + [unitriangular(n) for n in range(2, 9)]
        + [direct_product(unitriangular(5), unitriangular(4)), free_class3(), PcPresentation(0)]
        + [filiform(n) for n in range(4, 10)]
        + below
    )
    for p in cases:
        assert p.nilpotency_class == len(lower_central_series(p)) - 1
    assert {p.nilpotency_class for p in cases} == set(range(9))


def test_generator_bound_admits_its_own_count():
    # one more is refused (tests/test_public_api.py, REFUSALS)
    assert free_abelian(MAX_GENERATORS).n == MAX_GENERATORS


def test_class_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        PcPresentation(3, heisenberg().rules, nilpotency_class=2)
    assert PcPresentation(3, heisenberg().rules) == heisenberg()


# ------------------------------------------------------------ the rule words
# The reference expressions below read the rules as exponent vectors
# (`dense_rules`), as the presentation's readers did before they read the words.


def free_class2(k):
    """The free nilpotent group of class 2 on g_0 .. g_(k-1), then
    z_ij = [g_j, g_i] for i < j, central, in pair order."""
    pairs = list(itertools.combinations(range(k), 2))
    return PcPresentation(k + len(pairs), {pair: ((k + t, 1),) for t, pair in enumerate(pairs)})


# g3 = [g2, g1] g4 is the product of the centre of <g1, g2> with g4, so it
# weighs 2, and [g3, g0] = [g4, g0] = g5 then weighs 3.  A pass over the
# rules in pair order reads (0, 3) before (1, 2) and gives g5 the weight 2.
PAIR_ORDER_WEIGHTS = PcPresentation(6, {(1, 2): ((3, 1), (4, -1)), (0, 3): ((5, 1),), (0, 4): ((5, 1),)})


INDEX_CASES = RANDOM_TABLES + [unitriangular(n) for n in range(4, 9)] + [FOUND30, free_class2(12)]


def _dense_scans(p):
    """`central`, `_class2` and the class-2 refusal's (i, j, k), scanned off the dense rules."""
    rules = dense_rules(p)
    central = tuple(all(k not in pair for pair in rules) for k in range(p.n))
    noncentral = [k for k, c in enumerate(central) if not c]
    class2 = not any(vec[k] for vec in rules.values() for k in noncentral)
    off = next(((i, j, k) for (i, j), vec in sorted(rules.items()) for k in noncentral if vec[k]), None)
    return central, class2, off


def _dense_beta(p, u, v):
    out = [0] * p.n
    for (i, k), vec in sorted(dense_rules(p).items()):
        c = u[k] * v[i]
        if c:
            for t in range(k + 1, p.n):
                if vec[t]:
                    out[t] += c * vec[t]
    return out


def _dense_weights(p):
    rules = dense_rules(p)
    w = [1] * p.n
    for l in range(p.n):
        for (i, j), vec in rules.items():
            if vec[l]:
                w[l] = max(w[l], w[i] + w[j])
    return tuple(w), max(w, default=1)


def test_the_index_holds_the_nonzero_entries_of_the_rules_in_pair_order():
    """The rules run in pair order, and the word of each pair (i, j) is the
    nonzero entries of [g_j, g_i] as the group's own product computes it;
    a pair with no word commutes."""
    for p in INDEX_CASES:
        assert list(p.rules) == sorted(p.rules)
        gens = [p.generator(k) for k in range(p.n)]
        for i, j in itertools.combinations(range(p.n), 2):
            value = p.commutator(gens[j], gens[i])
            assert p.rules.get((i, j), ()) == tuple((l, x) for l, x in enumerate(value) if x)


def test_the_class2_scan_and_its_refusal_match_the_dense_scans():
    """`central`, `_class2` and `_off_centre` against the dense scans; the
    refusal names the commutator and generator the dense scan finds first."""
    refused = 0
    for p in INDEX_CASES:
        central, class2, off = _dense_scans(p)
        assert (p.central, p._class2, p._off_centre) == (central, class2, off)
        if class2:
            _require_class2(p, "the test")
            continue
        i, j, k = off
        refused += 1
        with pytest.raises(ValueError) as info:
            _require_class2(p, "the test")
        assert str(info.value).endswith(f"; [g{j}, g{i}] has a value on the non-central generator g{k}")
    assert refused >= 20


def test_beta_matches_the_dense_loop():
    rng = random.Random(45)
    for p in INDEX_CASES:
        for _ in range(10):
            u, v = (tuple(rng.randint(-3, 3) for _ in range(p.n)) for _ in range(2))
            assert p._beta(u, v) == _dense_beta(p, u, v)


def test_weights_match_the_dense_loop():
    # on PAIR_ORDER_WEIGHTS a pass in pair order gives other weights than a pass by j
    w = [1] * 6
    for (i, j), word in PAIR_ORDER_WEIGHTS.rules.items():
        for l, _ in word:
            w[l] = max(w[l], w[i] + w[j])
    assert w == [1, 1, 1, 2, 2, 2]
    PAIR_ORDER_WEIGHTS.check_consistency()
    cases = INDEX_CASES + [build() for _, build in TIGHT_CASES] + [PAIR_ORDER_WEIGHTS]
    for p in cases:
        assert p._weights == _dense_weights(p)
    assert PAIR_ORDER_WEIGHTS._weights == ((1, 1, 1, 2, 2, 3), 3)


def test_equality_and_hash_read_the_table_not_its_insertion_order():
    rng = random.Random(45)
    for p in INDEX_CASES:
        if len(p.rules) < 2:
            continue
        items = list(dense_rules(p).items())
        rng.shuffle(items)
        q = table(p.n, dict(items))
        assert q == p and hash(q) == hash(p)
        (i, j), vec = items[0]
        l = rng.randrange(j + 1, p.n)
        r = table(p.n, {**dict(items), (i, j): vec[:l] + (vec[l] + 1,) + vec[l + 1:]})
        assert r != p


# The laws below hold the word table to the group it presents, on these
# tables and on direct products of neighbours among them.
LAW_BASES = (RANDOM_TABLES + [p for p, _ in INTERLEAVED_TABLES] + [unitriangular(n) for n in range(4, 9)]
             + [FOUND30, PAIR_ORDER_WEIGHTS, free_class2(12)])
LAW_CASES = LAW_BASES + [direct_product(p, q) for p, q in zip(LAW_BASES, LAW_BASES[1:])]


def test_the_dense_rules_and_the_file_give_back_the_presentation():
    for p in LAW_CASES:
        assert table(p.n, dense_rules(p)) == p
        assert presentation_from_text(presentation_to_text(p)) == p


def test_commutator_rule_is_the_word_as_an_element():
    for p in LAW_CASES:
        for i, j in itertools.combinations(range(p.n), 2):
            rule = p.commutator_rule(i, j)
            assert p.commutator_rule(j, i) == rule
            if (i, j) not in p.rules:
                assert rule == p.identity()
                continue
            vec = [0] * p.n
            for l, e in p.rules[i, j]:
                vec[l] = e
            assert rule == tuple(vec)


def test_rules_run_in_pair_order_whatever_the_insertion_order():
    rng = random.Random(46)
    for p in LAW_CASES:
        items = list(p.rules.items())
        rng.shuffle(items)
        q = PcPresentation(p.n, dict(items))
        assert list(q.rules.items()) == list(p.rules.items()) == sorted(p.rules.items())
        assert q == p and hash(q) == hash(p)


def test_direct_product_rules_are_the_factors_words_shifted():
    for p, q in zip(LAW_CASES, LAW_CASES[1:]):
        shifted = [((i + p.n, j + p.n), tuple((l + p.n, e) for l, e in word)) for (i, j), word in q.rules.items()]
        assert list(direct_product(p, q).rules.items()) == list(p.rules.items()) + shifted


# ------------------------------------------------ multiplication polynomials


@functools.cache
def _table_and_collector(p):
    """The multiplication table of a fresh copy of p, built whatever its
    class, and that copy's collector; the shared cases stay as they are."""
    q = PcPresentation(p.n, p.rules)
    return multiplication_table(q._collector), q._collector


TABLE_CASES = LAW_CASES + [build() for _, build in TIGHT_CASES]
# half of the coordinates small, zeros among them, so skipped terms are hit
COORDINATE = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_table_products_inverses_and_powers_match_the_collector(data):
    p = data.draw(st.sampled_from(TABLE_CASES))
    table, collector = _table_and_collector(p)
    assert table is not None
    elt = st.tuples(*[COORDINATE] * p.n)
    u, v = data.draw(elt), data.draw(elt)
    e = data.draw(st.integers(-40, 40))
    assert table.mul(u, v) == collector.mul(u, v)
    assert table.inv(u) == collector.inv(u)
    assert table.pow(u, e) == collector.pow(u, e)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_table_matches_matrix_model_with_large_exponents(n):
    p = unitriangular(n)
    p.multiply(p.identity(), p.identity())
    assert p._table is not None
    rng = random.Random(100 + n)
    for _ in range(6):
        # a sparse u, as the centre walk's ordered products take, and a dense v
        u = tuple(rng.choice([0, 0, rng.randint(-10**9, 10**9)]) for _ in range(p.n))
        v = tuple(rng.randint(-10**9, 10**9) for _ in range(p.n))
        mu, mv = coords_to_matrix(n, u), coords_to_matrix(n, v)
        assert coords_to_matrix(n, p._table.mul(u, v)) == mat_mul(mu, mv)
        assert coords_to_matrix(n, p._table.mul(v, u)) == mat_mul(mv, mu)
        assert coords_to_matrix(n, p._table.inv(v)) == ut_inverse(mv)
        e = rng.choice([-30, -11, 17, 40])
        assert coords_to_matrix(n, p._table.pow(v, e)) == mat_pow(mv, e)


def test_tables_past_the_budget_keep_collecting():
    """ut(8) gets a table and ut(9) and ut(12) do not; all three give the
    matrix model's answers."""
    rng = random.Random(12)
    for n, tabled in ((8, True), (9, False), (12, False)):
        p = unitriangular(n)
        u = tuple(rng.randint(-50, 50) for _ in range(p.n))
        v = tuple(rng.randint(-50, 50) for _ in range(p.n))
        mu, mv = coords_to_matrix(n, u), coords_to_matrix(n, v)
        assert coords_to_matrix(n, p.multiply(u, v)) == mat_mul(mu, mv)
        assert (p._table is not None) == tabled
        assert coords_to_matrix(n, p.inverse(u)) == ut_inverse(mu)
        assert coords_to_matrix(n, p.power(u, -3)) == mat_pow(mu, -3)


def test_class2_tables_construction_and_commutators_build_no_table():
    h, hz, p = heisenberg(), direct_product(heisenberg(), free_abelian(1)), unitriangular(5)
    for q in (h, hz):
        x, y = q.generator(0), q.generator(1)
        q.multiply(x, y), q.inverse(x), q.power(x, 5), q.commutator(x, y), q.conjugate(x, y)
        assert "_table" not in vars(q) and "_collector" not in vars(q)
    assert "_table" not in vars(p)
    p.commutator(p.generator(1), p.generator(0))
    assert "_collector" in vars(p) and "_table" not in vars(p)
    p.collect([(1, 1), (0, 1)])
    assert "_table" not in vars(p)


# ------------------------------------------------------------ file format


@st.composite
def class2_scan_tables(draw):
    """A table that passes the class-2 scan: rules only between generators
    drawn as noncentral, with values only on the generators drawn as
    central, which are then in no rule pair."""
    n = draw(st.integers(0, 7))
    central = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rules = {}
    for i in range(n):
        for j in range(i + 1, n):
            if central[i] or central[j] or not draw(st.booleans()):
                continue
            rules[(i, j)] = (0,) * (j + 1) + tuple(
                draw(st.integers(-3, 3)) if central[k] else 0 for k in range(j + 1, n))
    p = table(n, rules)
    assert p._class2
    return p


# the builders' groups up to ut(5), and products of two of them
BUILT = st.sampled_from(["heisenberg", "free_abelian(1)", "free_abelian(2)", "ut(2)", "ut(3)", "ut(4)", "ut(5)"])
BUILDER_PRODUCTS = st.one_of(BUILT, st.builds("direct_product({},{})".format, BUILT, BUILT)).map(build_standard)


@settings(max_examples=60, deadline=None)
@given(st.one_of(class2_scan_tables(), BUILDER_PRODUCTS))
def test_presentation_roundtrip(p):
    assert presentation_from_text(presentation_to_text(p)) == p


def test_presentation_text_headers():
    assert presentation_to_text(PcPresentation(0)) == "0 0\n"
    assert presentation_to_text(FOUND30).splitlines()[0] == "5 2"
    assert presentation_from_text(presentation_to_text(FOUND30)) == FOUND30


@pytest.mark.parametrize(
    "text,declared,actual",
    [
        ("3 3\n1 2 : -1\n", 3, 2),
        ("3 1\n1 2 : -1\n", 1, 2),
        ("0 1\n", 1, 0),
        ("6 2\n1 2 : 0 -1 0 0\n1 5 : -1\n2 3 : 0 -1 0\n3 4 : 0 1\n", 2, 3),
    ],
    ids=["heisenberg-class3", "heisenberg-class1", "trivial-class1", "ut4-class2"],
)
def test_reader_refuses_a_header_that_is_not_the_tables_class(text, declared, actual):
    message = f"declares nilpotency class {declared}, but its lower central series has class {actual}"
    with pytest.raises(ValueError, match=re.escape(message)):
        presentation_from_text(text)


def test_presentation_text_shape():
    text = presentation_to_text(heisenberg())
    assert text.splitlines()[0] == "3 2"
    assert text.splitlines()[1] == "1 2 : -1"
