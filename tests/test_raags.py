import dataclasses
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfrskit import raags
from rfrskit.errors import ResourceLimitExceeded
from rfrskit.raags import (
    Graph,
    RaagWord,
    TruncatedSeries,
    graph_from_text,
    graph_to_text,
    magnus_image,
    normal_form,
    rtfn_witness,
    series_multiply,
    word_from_tokens,
    _append_normal,
    _extends_normally,
    _pile_units,
)

PATH3 = Graph.path(3)
FREE2 = Graph.edgeless(2)
K2 = Graph.complete(2)
FOUR_VERTEX = {
    "path": Graph.path(4),
    "cycle": Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "star": Graph.build(4, [(0, 1), (0, 2), (0, 3)]),
    "edgeless": Graph.edgeless(4),
}


def W(*letters):
    return RaagWord.build(letters)


# ------------------------------------------------------------------- graphs


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 5)])
    g = Graph.build(3, [(1, 0), (0, 1)])
    assert len(g.edges) == 1


def test_noncommuter_cache_leaves_graph_values_alone():
    """A normal form computes and keeps the non-commuter lists; equality,
    hashing, repr and pickling still see only the vertex count and edges."""
    for g in list(FOUR_VERTEX.values()) + [PATH3, FREE2, K2]:
        fresh = Graph(g.vertex_count, frozenset(g.edges))
        word = W((g.vertex_count - 1, 2), (0, -1), (g.vertex_count - 1, -1))
        nf = normal_form(g, word)
        assert "noncommuters" in vars(g) and "noncommuters" not in vars(fresh)
        assert g.noncommuters == tuple(
            tuple(u for u in range(g.vertex_count) if u != v and not g.commutes(u, v))
            for v in range(g.vertex_count)
        )
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        assert dataclasses.replace(g) == fresh
        back = pickle.loads(pickle.dumps(g))
        assert back == fresh and hash(back) == hash(fresh)
        assert normal_form(back, word) == normal_form(fresh, word) == nf


def test_presentation_shapes():
    assert sorted(Graph.complete(3).edges) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(FREE2.edges) == []
    assert sorted(PATH3.edges) == [(0, 1), (1, 2)]
    assert str(W((0, 1), (1, 1), (2, 1))) == "a,b,c"


# -------------------------------------------------------------- normal form


def test_nf_commuting_sort():
    assert normal_form(K2, W((1, 1), (0, 1))) == W((0, 1), (1, 1))


def test_nf_free_cancellation():
    w = W((0, 1), (1, 1), (1, -1), (0, -1))
    assert normal_form(FREE2, w).is_identity_word()


def test_nf_blocked_swap():
    # path a-b-c: a and c do not commute, so c.a stays put
    w = W((2, 1), (0, 1))
    assert normal_form(PATH3, w) == w


def test_nf_hidden_cancellation():
    # a b a^-1 with a,b commuting collapses to b
    g = K2
    w = W((0, 1), (1, 1), (0, -1))
    assert normal_form(g, w) == W((1, 1))


def _commutation_class(g, units, max_size=100000):
    """Oracle: all unit words reachable by swaps and free cancellations."""
    seen = {tuple(units)}
    frontier = [tuple(units)]
    while frontier:
        cur = frontier.pop()
        for t in range(len(cur) - 1):
            (u, e1), (v, e2) = cur[t], cur[t + 1]
            if u != v and g.commutes(u, v):
                nxt = cur[:t] + (cur[t + 1], cur[t]) + cur[t + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            if u == v and e1 == -e2:
                nxt = cur[:t] + cur[t + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) < max_size
    return seen


def test_nf_idempotent_and_class_constant():
    graphs = [FREE2, K2, PATH3, Graph.complete(3), Graph.edgeless(3)]
    for g in graphs:
        alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
        for length in range(1, 5):
            for units in itertools.product(alphabet, repeat=length):
                w = RaagWord.build(units)
                nf = normal_form(g, w)
                assert normal_form(g, nf) == nf
                # constant on the commutation-and-cancellation class
                for other in _commutation_class(g, list(units)):
                    assert normal_form(g, RaagWord.build(other)) == nf
                # the normal form is the lex-least fully reduced class member
                cls = _commutation_class(g, list(units))
                min_len = min(len(c) for c in cls)
                shortest = sorted(c for c in cls if len(c) == min_len)
                assert tuple(nf.units()) == shortest[0]


# ------------------------------------------------------------------ series


def test_magnus_identity():
    assert magnus_image(PATH3, W(), 3).is_one()


def test_magnus_free_commutator_degree2():
    w = W((0, 1), (1, 1), (0, -1), (1, -1))
    s = magnus_image(FREE2, w, 2)
    assert s.coefficient((0, 1)) == 1
    assert s.coefficient((1, 0)) == -1
    assert s.coefficient(()) == 1
    assert s.coefficient((0,)) == 0 and s.coefficient((1,)) == 0


def test_magnus_commuting_commutator_trivial():
    w = W((0, 1), (1, 1), (0, -1), (1, -1))
    assert magnus_image(K2, w, 4).is_one()


def test_magnus_matches_direct_expansion():
    # oracle: multiply (1+X)(1+Y)(1-X+X^2)(1-Y+Y^2) by hand at degree 2
    x, y = (0,), (1,)
    terms = {(): Fraction(1)}

    def mul(t1, t2):
        out = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                if len(m1) + len(m2) > 2:
                    continue
                out[m1 + m2] = out.get(m1 + m2, Fraction(0)) + c1 * c2
        return {k: v for k, v in out.items() if v}

    fx = {(): Fraction(1), x: Fraction(1)}
    fy = {(): Fraction(1), y: Fraction(1)}
    fxi = {(): Fraction(1), x: Fraction(-1), x + x: Fraction(1)}
    fyi = {(): Fraction(1), y: Fraction(-1), y + y: Fraction(1)}
    expected = mul(mul(mul(fx, fy), fxi), fyi)
    s = magnus_image(FREE2, W((0, 1), (1, 1), (0, -1), (1, -1)), 2)
    assert {k: v for k, v in s.coefficients.items()} == expected


def test_magnus_homomorphism_property():
    rng = random.Random(9)
    for g in (FREE2, K2, PATH3):
        alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
        for _ in range(30):
            w1 = RaagWord.build(rng.choices(alphabet, k=rng.randint(0, 4)))
            w2 = RaagWord.build(rng.choices(alphabet, k=rng.randint(0, 4)))
            d = 3
            lhs = magnus_image(g, RaagWord.build(list(w1.letters) + list(w2.letters)), d)
            rhs = series_multiply(g, magnus_image(g, w1, d), magnus_image(g, w2, d))
            assert lhs.coefficients == rhs.coefficients


def test_magnus_trivial_words_map_to_one():
    for g in (FREE2, K2, PATH3):
        alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
        for length in range(1, 5):
            for units in itertools.product(alphabet, repeat=length):
                w = RaagWord.build(units)
                if normal_form(g, w).is_identity_word():
                    assert magnus_image(g, w, 4).is_one()


def test_magnus_degree1_is_exponent_sum():
    rng = random.Random(17)
    for g in (FREE2, PATH3):
        alphabet = [(v, e) for v in range(g.vertex_count) for e in (-2, -1, 1, 2)]
        for _ in range(40):
            w = RaagWord.build(rng.choices(alphabet, k=rng.randint(0, 5)))
            s = magnus_image(g, w, 2)
            sums = [0] * g.vertex_count
            for v, e in w.letters:
                sums[v] += e
            for v in range(g.vertex_count):
                assert s.coefficient((v,)) == sums[v]


def test_powers_expand_binomially():
    s = magnus_image(FREE2, W((0, 3)), 3)
    assert s.coefficient((0,)) == 3
    assert s.coefficient((0, 0)) == 3
    assert s.coefficient((0, 0, 0)) == 1
    s = magnus_image(FREE2, W((0, -2)), 2)
    assert s.coefficient((0,)) == -2
    assert s.coefficient((0, 0)) == 3


def test_magnus_coefficients_are_ints():
    w = W((0, 2), (1, -3), (2, 1), (0, -1))
    s = magnus_image(PATH3, w, 4)
    assert all(type(c) is int for c in s.coefficients.values())
    assert all(type(c) is int for c in TruncatedSeries.one(2).coefficients.values())


def test_magnus_cap_trips_and_reports_progress(monkeypatch):
    with pytest.raises(ResourceLimitExceeded, match="after 0 of 1 syllables"):
        magnus_image(FREE2, W((0, -1)), 10**9)
    # a,b,a,b forms 1 x 2, 2 x 2, 4 x 2 and then 7 x 2 term pairs
    monkeypatch.setattr(raags, "MAX_TERM_PAIRS", 13)
    assert len(magnus_image(FREE2, W((0, 1), (1, 1), (0, 1)), 4).coefficients) == 7
    with pytest.raises(ResourceLimitExceeded, match="after 3 of 4 syllables"):
        magnus_image(FREE2, W((0, 1), (1, 1), (0, 1), (1, 1)), 4)


def _greedy_canonical(g, mono):
    """Reference: lex-least rearrangement by greedy extraction, repeatedly
    pulling out the least letter whose earlier letters all commute with it."""
    letters = list(mono)
    out = []
    while letters:
        best = None
        for p, s in enumerate(letters):
            if all(g.commutes(s, letters[q]) for q in range(p)):
                if best is None or s < letters[best]:
                    best = p
        out.append(letters.pop(best))
    return tuple(out)


def _reference_multiply(g, s1, s2):
    d = s1.degree_bound
    out = {}
    for m1, c1 in s1.coefficients.items():
        for m2, c2 in s2.coefficients.items():
            if len(m1) + len(m2) <= d:
                key = _greedy_canonical(g, m1 + m2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


@st.composite
def graphs(draw, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_incremental_normal_form_matches_greedy(data):
    g = data.draw(graphs())
    letters = st.integers(0, g.vertex_count - 1)
    mono = tuple(data.draw(st.lists(letters, max_size=8)))
    blocks = g.blocking
    assert _append_normal(blocks, (), mono) == _greedy_canonical(g, mono)
    cut = data.draw(st.integers(0, len(mono)))
    prefix = _greedy_canonical(g, mono[:cut])
    assert _append_normal(blocks, prefix, mono[cut:]) == _greedy_canonical(g, mono)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_series_multiply_matches_greedy_reference(data):
    g = data.draw(graphs(max_vertices=4))
    syllables = st.tuples(st.integers(0, g.vertex_count - 1), st.integers(-2, 2))
    w1, w2 = (RaagWord.build(data.draw(st.lists(syllables, max_size=4))) for _ in range(2))
    d = data.draw(st.integers(1, 4))
    s1, s2 = magnus_image(g, w1, d), magnus_image(g, w2, d)
    assert series_multiply(g, s1, s2).coefficients == _reference_multiply(g, s1, s2)


# ------------------------------------------------------------------ witness


def test_rtfn_witness_k2():
    rep = rtfn_witness(K2, 3)
    assert rep.separated


def test_rtfn_witness_free2():
    rep = rtfn_witness(FREE2, 4)
    assert rep.separated
    # free group growth: 4 + 12 + 36 + 108 normal forms
    assert rep.elements_checked == 160


def test_rtfn_witness_path3():
    rep = rtfn_witness(PATH3, 3)
    assert rep.separated


@pytest.mark.parametrize("name", sorted(FOUR_VERTEX))
def test_rtfn_extension_test_matches_piling(name):
    # every one-letter extension of every normal word of length <= 5
    g = FOUR_VERTEX[name]
    blocks = g.blocking
    alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
    level = [[]]
    for length in range(6):
        longer = []
        for units in level:
            for letter in alphabet:
                cand = units + [letter]
                normal = _pile_units(g, cand) == cand
                assert _extends_normally(blocks, units, letter) == normal, (units, letter)
                if normal and length < 5:
                    longer.append(cand)
        level = longer


def _growth_count(g, max_len):
    """Nontrivial elements of length <= max_len: the partial sum of the
    growth series 1/C(-2t/(1+t)), C the clique polynomial of the graph."""
    cliques = Counter(
        k
        for k in range(g.vertex_count + 1)
        for c in itertools.combinations(range(g.vertex_count), k)
        if all(g.commutes(u, v) for u, v in itertools.combinations(c, 2))
    )
    top = max(cliques)
    # clear denominators: (1+t)^top / sum_k c_k (-2t)^k (1+t)^(top-k)
    num = [comb(top, i) for i in range(top + 1)]
    den = [0] * (top + 1)
    for k, c in cliques.items():
        for i in range(top - k + 1):
            den[k + i] += c * (-2) ** k * comb(top - k, i)
    assert den[0] == 1
    growth = []
    for j in range(max_len + 1):
        lead = num[j] if j <= top else 0
        growth.append(lead - sum(den[i] * growth[j - i] for i in range(1, min(j, top) + 1)))
    return sum(growth[1:])


@pytest.mark.parametrize("name", sorted(FOUR_VERTEX))
def test_rtfn_counts_match_growth_series(name):
    g = FOUR_VERTEX[name]
    rep = rtfn_witness(g, 4)
    assert rep.separated
    assert rep.elements_checked == _growth_count(g, 4)


def test_rtfn_path4_length5_count():
    rep = rtfn_witness(FOUR_VERTEX["path"], 5)
    assert rep.separated
    assert rep.elements_checked == _growth_count(FOUR_VERTEX["path"], 5) == 7024


def test_rtfn_witness_resource_bounds():
    with pytest.raises(ResourceLimitExceeded):
        rtfn_witness(Graph.edgeless(5), 2)
    with pytest.raises(ResourceLimitExceeded):
        rtfn_witness(K2, 7)


# ------------------------------------------------------------- file formats


def test_graph_roundtrip():
    g = Graph.build(4, [(0, 1), (2, 3), (1, 2)])
    assert graph_from_text(graph_to_text(g)) == g


def test_word_parsing():
    w = word_from_tokens(PATH3, "a, b^-1, a^2, c")
    assert w.letters == ((0, 1), (1, -1), (0, 2), (2, 1))
    with pytest.raises(ValueError):
        word_from_tokens(PATH3, "q^2")
    with pytest.raises(ValueError):
        word_from_tokens(FREE2, "c")


def test_word_str():
    assert str(W((0, 1), (1, -2))) == "a,b^-2"
    assert str(W()) == "1"
