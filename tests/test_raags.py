import dataclasses
import itertools
import pickle
import random
import re
from collections import Counter, deque
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
    word_from_tokens,
    _extension_masks,
    _times_letter,
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


def _noncommuter_table(g):
    """table[v]: the vertices v does not commute with, read from
    `g.commutes` alone, for the reference algorithms below."""
    n = g.vertex_count
    return [[u for u in range(n) if not g.commutes(u, v)] for v in range(n)]


def test_noncommuter_cache_leaves_graph_values_alone():
    """After a normal form, equality, hashing, repr and pickling still see
    only the vertex count and edges."""
    for g in list(FOUR_VERTEX.values()) + [PATH3, FREE2, K2]:
        fresh = Graph(g.vertex_count, frozenset(g.edges))
        word = W((g.vertex_count - 1, 2), (0, -1), (g.vertex_count - 1, -1))
        nf = normal_form(g, word)
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


def _pile_units(g, units):
    """Reference piling on unit letters: each (v, +-1) cancels the opposite
    unit on top of v's pile, or goes on it with a 0 marker on the pile of
    every vertex that does not commute with v; unpiling takes the least
    vertex whose pile starts with a letter."""
    piles = [deque() for _ in range(g.vertex_count)]
    noncomm = _noncommuter_table(g)
    for v, eps in units:
        if piles[v] and piles[v][-1] == -eps:
            piles[v].pop()
            for u in noncomm[v]:
                assert piles[u].pop() == 0
        else:
            piles[v].append(eps)
            for u in noncomm[v]:
                piles[u].append(0)
    out = []
    while ready := [v for v in range(g.vertex_count) if piles[v] and piles[v][0]]:
        v = ready[0]
        out.append((v, piles[v].popleft()))
        for u in noncomm[v]:
            assert piles[u].popleft() == 0
    assert not any(piles)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_normal_form_matches_unit_piling(data):
    """Piling whole syllables against piling their units one at a time."""
    g = data.draw(graphs())
    syllables = st.tuples(st.integers(0, g.vertex_count - 1), st.integers(-3, 3))
    w = RaagWord.build(data.draw(st.lists(syllables, max_size=12)))
    nf = normal_form(g, w)
    assert nf == RaagWord.build(_pile_units(g, w.units()))
    assert all(e for _, e in nf.letters)
    assert all(a[0] != b[0] for a, b in zip(nf.letters, nf.letters[1:]))


def test_normal_form_matches_unit_piling_on_seeded_words():
    """3,000 seeded words of up to 16 syllables, exponents in [-3, 3], over
    random graphs on up to 6 vertices: enough that a syllable often meets
    its inverse across commuting letters."""
    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randint(1, 6)
        g = Graph.build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        w = RaagWord.build((rng.randrange(n), rng.randint(-3, 3)) for _ in range(rng.randint(0, 16)))
        assert normal_form(g, w) == RaagWord.build(_pile_units(g, w.units())), (g, w)


def _deque_normal_form(g, w):
    """The piling normal form as it was first written: deques, unpiled by
    popleft from the least vertex whose pile starts with a syllable."""
    piles = [deque() for _ in range(g.vertex_count)]
    noncomm = _noncommuter_table(g)
    for v, e in w.letters:
        pile = piles[v]
        if pile and pile[-1]:
            pile[-1] += e
            if pile[-1]:
                continue
            pile.pop()
            for u in noncomm[v]:
                piles[u].pop()
        elif e:
            pile.append(e)
            for u in noncomm[v]:
                piles[u].append(0)
    out = []
    while (v := next((u for u, pile in enumerate(piles) if pile and pile[0]), None)) is not None:
        out.append((v, piles[v].popleft()))
        for u in noncomm[v]:
            piles[u].popleft()
    return RaagWord(tuple(out))


def test_normal_form_matches_deque_piling_on_long_words():
    """Seeded 2000-letter words over random graphs on up to 6 vertices, in
    unit letters and in syllables of exponent up to 3 that merge and cancel."""
    rng = random.Random(15)
    for trial in range(60):
        n = rng.randint(1, 6)
        g = Graph.build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        exponents = (1, -1) if trial % 2 else (-3, -2, -1, 1, 2, 3)
        w = RaagWord.build((rng.randrange(n), rng.choice(exponents)) for _ in range(2000))
        assert normal_form(g, w) == _deque_normal_form(g, w), (g, trial)


@pytest.mark.parametrize("shape", ["edgeless", "path"])
def test_word_commands_read_only_the_words_vertices(shape, monkeypatch):
    """On a graph of 44,211 vertices, a 5-letter word on k = 4 of them asks
    `Graph.commutes` at most k^2 times in `normal_form` and in
    `magnus_image`, and both return what they return on the word
    relabelled, in order, onto the k-vertex graph its vertices span."""
    big = getattr(Graph, shape)(44_211)
    word = W((2, 1), (0, 1), (44_210, -1), (1, 2), (0, -1))
    vertices = sorted({v for v, _ in word.letters})
    k = len(vertices)
    at = {v: i for i, v in enumerate(vertices)}
    small = Graph.build(k, [(at[u], at[v]) for u, v in itertools.combinations(vertices, 2)
                            if big.commutes(u, v)])
    small_word = RaagWord.build((at[v], e) for v, e in word.letters)
    nf = normal_form(small, small_word)
    image = magnus_image(small, small_word, 3).coefficients
    calls = 0
    commutes = Graph.commutes

    def spy(self, u, v):
        nonlocal calls
        calls += 1
        return commutes(self, u, v)

    monkeypatch.setattr(Graph, "commutes", spy)
    assert normal_form(big, word) == RaagWord(tuple((vertices[v], e) for v, e in nf.letters))
    assert calls <= k * k
    calls = 0
    assert magnus_image(big, word, 3).coefficients == {
        tuple(vertices[v] for v in mono): c for mono, c in image.items()}
    assert calls <= k * k


def test_magnus_image_checks_vertices_before_the_term_pair_cap(monkeypatch):
    """A word that would trip the cap and holds a vertex the graph lacks is
    refused for the vertex."""
    monkeypatch.setattr(raags, "MAX_TERM_PAIRS", 1)
    with pytest.raises(ResourceLimitExceeded):
        magnus_image(PATH3, W((0, 1), (2, 1)), 2)
    with pytest.raises(ValueError, match="word vertex 3 out of range for a graph on 3 vertices"):
        magnus_image(PATH3, W((0, 1), (3, 1)), 2)


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
            rhs = _reference_multiply(g, magnus_image(g, w1, d), magnus_image(g, w2, d))
            assert lhs.coefficients == rhs


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
def graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(n, [e for e, keep in zip(pairs, mask) if keep])


def _letter_series(v, e, d):
    """Image of v^e: the binomial series of (1 + X_v)^e, as a series."""
    return TruncatedSeries(d, {
        (v,) * k: comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
        for k in range((min(e, d) if e >= 0 else d) + 1)
    })


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_times_letter_matches_series_products(data):
    """The letter kernel against the greedy product by the letter's
    binomial series, with |e| above the degree bound and negative e both
    drawn."""
    g = data.draw(graphs())
    syllables = st.tuples(st.integers(0, g.vertex_count - 1), st.integers(-2, 2))
    d = data.draw(st.integers(1, 6))
    s = magnus_image(g, RaagWord.build(data.draw(st.lists(syllables, max_size=3))), d)
    v = data.draw(st.integers(0, g.vertex_count - 1))
    e = data.draw(st.integers(-7, 7).filter(bool))
    before = dict(s.coefficients)
    product = _times_letter(dict(enumerate(_noncommuter_table(g))), s, v, e)
    assert s.coefficients == before
    letter = _letter_series(v, e, d)
    assert product.degree_bound == d
    assert product.coefficients == _reference_multiply(g, s, letter)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_magnus_image_is_the_product_of_the_unmerged_letters(data):
    """Piling the word first changes nothing: the image equals the greedy
    product of every drawn letter's binomial series, for words that merge
    and cancel, with exponents up to 7 in size."""
    g = data.draw(graphs())
    letters = st.tuples(st.integers(0, g.vertex_count - 1), st.integers(-7, 7))
    head, middle, tail = (data.draw(st.lists(letters, max_size=3)) for _ in range(3))
    drawn = head + middle + [(v, -e) for v, e in reversed(middle)] + tail
    d = data.draw(st.integers(1, 4))
    expected = {(): 1}
    for v, e in drawn:
        expected = _reference_multiply(g, TruncatedSeries(d, expected), _letter_series(v, e, d))
    assert magnus_image(g, RaagWord.build(drawn), d).coefficients == expected


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


def _extends_normally(noncomm, units, letter):
    """Reference extension test: units + [letter] is a normal form, given
    that units is one, when scanning back through the letters that
    commute with the new letter meets neither a larger vertex (it belongs
    earlier) nor its inverse (the two cancel)."""
    v, eps = letter
    row = noncomm[v]
    for u, f in reversed(units):
        if u == v:
            return f == eps
        if u in row:
            return True
        if u > v:
            return False
    return True


@pytest.mark.parametrize("name", sorted(FOUR_VERTEX))
def test_rtfn_extension_test_matches_piling(name):
    """Every one-letter extension of every normal word of length <= 5:
    the scan and the one-step rule of `_extension_masks` both agree with
    piling."""
    g = FOUR_VERTEX[name]
    noncomm = dict(enumerate(_noncommuter_table(g)))
    fresh, above = _extension_masks(g)
    alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
    level = [([], (1 << len(alphabet)) - 1)]
    for length in range(6):
        longer = []
        for units, extending in level:
            for bit, letter in enumerate(alphabet):
                cand = units + [letter]
                normal = _pile_units(g, cand) == cand
                assert _extends_normally(noncomm, units, letter) == normal, (units, letter)
                assert bool(extending >> bit & 1) == normal, (units, letter)
                if normal and length < 5:
                    w = letter[0]
                    longer.append((cand, fresh[w] | 1 << bit | extending & above[w]))
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


@pytest.mark.parametrize("g, max_len", [
    *((FOUR_VERTEX[name], 4) for name in sorted(FOUR_VERTEX)),
    (FOUR_VERTEX["edgeless"], 6),
    (Graph.path(5), 5),
    (Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]), 4),
    (Graph.complete(6), 5),
], ids=[*sorted(FOUR_VERTEX), "edgeless-6", "path5-5", "cycle6-chord-4", "K6-5"])
def test_rtfn_counts_match_growth_series(g, max_len):
    rep = rtfn_witness(g, max_len)
    assert rep.separated and not rep.failures
    assert rep.elements_checked == _growth_count(g, max_len)


def test_rtfn_path4_length5_count():
    rep = rtfn_witness(FOUR_VERTEX["path"], 5)
    assert rep.separated
    assert rep.elements_checked == _growth_count(FOUR_VERTEX["path"], 5) == 7024


def test_rtfn_witness_resource_bounds(monkeypatch):
    """No vertex or length bound: the cap counts the elements, charged
    before each one, and its message names the count and the length."""
    rep = rtfn_witness(Graph.edgeless(5), 2)
    assert rep.separated and rep.elements_checked == _growth_count(Graph.edgeless(5), 2) == 100
    rep = rtfn_witness(K2, 7)
    assert rep.separated and rep.elements_checked == _growth_count(K2, 7) == 112
    # depth first on FREE2 (A, B the inverses): a, aa, aaa, aaaa, aaab, aaaB,
    # aab, aaba, aabA, aabb; the eleventh, aaB, has length 3
    monkeypatch.setattr(raags, "RTFN_ELEMENT_CAP", 10)
    with pytest.raises(ResourceLimitExceeded, match="more than 10 elements: stopped after 10 elements at length 3 of 4"):
        rtfn_witness(FREE2, 4)
    monkeypatch.setattr(raags, "RTFN_ELEMENT_CAP", 160)
    assert rtfn_witness(FREE2, 4).elements_checked == 160


def test_rtfn_witness_walks_long_lengths_without_recursion():
    rep = rtfn_witness(Graph.complete(1), 5000)
    assert rep.separated and rep.elements_checked == 10_000


def test_rtfn_witness_multiplies_no_series(monkeypatch):
    calls = 0
    times_letter = raags._times_letter

    def spy(*args):
        nonlocal calls
        calls += 1
        return times_letter(*args)

    monkeypatch.setattr(raags, "_times_letter", spy)
    rep = rtfn_witness(FOUR_VERTEX["path"], 4)
    assert rep.separated and not rep.failures and calls == 0
    magnus_image(PATH3, W((0, 1), (2, -1)), 2)
    assert calls == 2


@pytest.mark.parametrize("g", [*FOUR_VERTEX.values(), K2, FREE2, PATH3],
                         ids=[*FOUR_VERTEX, "K2", "FREE2", "PATH3"])
def test_normal_forms_have_their_syllable_monomial(g):
    """The lemma `rtfn_witness` rests on: each normal form v_1^e_1...v_k^e_k
    of length <= 5 has coefficient e_1*...*e_k, at degree 5, at the key
    that `_times_letter` builds for X_v_1...X_v_k."""
    noncomm = dict(enumerate(_noncommuter_table(g)))
    alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
    keys = {}
    level = [[]]
    for _ in range(5):
        level = [units + [letter] for units in level for letter in alphabet
                 if _extends_normally(noncomm, units, letter)]
        for units in level:
            w = RaagWord.build(units)
            vertices = tuple(v for v, _ in w.letters)
            if vertices not in keys:
                key = TruncatedSeries.one(len(vertices))
                for v in vertices:
                    key = _times_letter(noncomm, key, v, 1)
                (keys[vertices],) = [m for m in key.coefficients if len(m) == len(vertices)]
                assert keys[vertices] == _greedy_canonical(g, vertices)
            product = 1
            for _, e in w.letters:
                product *= e
            assert magnus_image(g, w, 5).coefficient(keys[vertices]) == product, units


# ------------------------------------------------------------- file formats


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_graph_roundtrip(data):
    n = data.draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.build(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    assert graph_from_text(graph_to_text(g)) == g


def test_word_parsing():
    w = word_from_tokens(PATH3, "a, b^-1, a^2, c")
    assert w.letters == ((0, 1), (1, -1), (0, 2), (2, 1))
    with pytest.raises(ValueError):
        word_from_tokens(PATH3, "q^2")
    with pytest.raises(ValueError):
        word_from_tokens(FREE2, "c")


def _reference_word_from_tokens(g, text):
    """The token parser as it was first written, one token at a time, with
    the digits of a `v<digits>` name held to ASCII and an exponent held to
    ASCII text with no '_'."""
    letters = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            name, exp = token.split("^", 1)
            if not exp.isascii() or "_" in exp:
                raise ValueError(f"invalid literal for int() with base 10: {exp!r}")
            e = int(exp)
        else:
            name, e = token, 1
        name = name.strip()
        if len(name) == 1 and name in raags._LETTER_NAMES:
            v = raags._LETTER_NAMES.index(name)
        elif name.startswith("v") and name[1:].isascii() and name[1:].isdigit():
            v = int(name[1:])
        else:
            raise ValueError(f"bad word token {token!r}")
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {name!r} out of range for this graph")
        letters.append((v, e))
    return RaagWord.build(letters)


WORD_TOKENS = [
    "a", " b ", "c", "a^-1", "b^2", " c ^ -3", "a^0", "a^+2", "v0", "v2^-2", "v01", "", "  ",
    "d", "v3", "v12^2", "q", "A", "ab", "v", "^2", "a^", "a^x", "a^1.5", "a^^2", " a^ x ", "q^x",
    "v²", "v٣", "a^1_0", "a^٣",
]


def _expected_word_error(g, tokens):
    """The message expected for the first token, in order, that the
    reference refuses: the reference's own, except that an exponent int()
    refuses is reported as a bad token.  None if it refuses none."""
    for token in tokens:
        try:
            _reference_word_from_tokens(g, token)
        except ValueError as exc:
            message = str(exc)
            if not message.startswith(("bad word token", "vertex")):
                message = f"bad word token {token.strip()!r}"
            return message
    return None


def test_word_from_tokens_matches_reference_parser():
    """Seeded token lists, with repeats, blanks and every kind of bad token:
    the same word as the reference, or the error for the first bad token."""
    rng = random.Random(15)
    for trial in range(3000):
        g = PATH3 if trial % 2 else FREE2
        k = rng.randint(0, 8)
        pool = WORD_TOKENS[:13] if trial % 3 else WORD_TOKENS
        tokens = [rng.choice(pool) for _ in range(k)]
        text = ",".join(tokens)
        expected = _expected_word_error(g, tokens)
        if expected is None:
            assert word_from_tokens(g, text) == _reference_word_from_tokens(g, text), text
        else:
            with pytest.raises(ValueError) as info:
                word_from_tokens(g, text)
            assert str(info.value) == expected, text
    # long words over two or three vertices, with zero exponents and
    # blanks, where cancellations such as a,b,b^-1,a^-1 cascade through
    # the merge
    long_pool = ["a", "a^-1", "b", "b^-1", "b^2", "a^0", "", " c ", "c^-1", "b^-2"]
    for trial in range(40):
        pool = long_pool[:6] if trial % 2 else long_pool
        tokens = [rng.choice(pool) for _ in range(rng.randint(200, 2000))]
        if trial % 4 == 3:  # a run and its inverse, which cancel from the middle out
            run = tokens[:rng.randint(1, 100)]
            fold = run + [_inverse_token(t) for t in reversed(run)]
            assert word_from_tokens(PATH3, ",".join(fold)).is_identity_word()
            tokens = fold + tokens
        text = ",".join(tokens)
        assert word_from_tokens(PATH3, text) == _reference_word_from_tokens(PATH3, text), trial


def _inverse_token(token):
    name, _, exp = token.strip().partition("^")
    return f"{name}^{-int(exp or 1)}" if name else token


@pytest.mark.parametrize("token", ["a^", "a^x", "a^1.5", "a^^2"])
def test_bad_exponent_names_the_token(token):
    with pytest.raises(ValueError, match=rf"^bad word token '{re.escape(token)}'$"):
        word_from_tokens(PATH3, f"b, {token} ,c")


def test_refusals_clip_long_tokens():
    """A token of up to 40 characters is echoed whole; a longer one by its
    start, its length and the graph's vertex count.  The first bad token in
    word order is still the one named."""
    at_limit, past = "a^" + "x" * 38, "a^" + "x" * 39
    with pytest.raises(ValueError, match=rf"^bad word token '{re.escape(at_limit)}'$"):
        word_from_tokens(PATH3, f"b,{at_limit},v9")
    with pytest.raises(ValueError) as info:
        word_from_tokens(PATH3, f"b,{past},v9")
    assert str(info.value) == f"bad word token '{past[:32]}'... (41 characters; the graph has 3 vertices)"
    name = "v" + "9" * 5000
    with pytest.raises(ValueError) as info:
        word_from_tokens(PATH3, f"a, {name}^2 ,{past}")
    assert str(info.value) == (
        f"vertex '{name[:32]}'... (5001 characters; the graph has 3 vertices) out of range for this graph"
    )
    with pytest.raises(ValueError, match=r"^vertex 'v" + "9" * 39 + "' out of range for this graph$"):
        word_from_tokens(PATH3, "v" + "9" * 39)


def test_word_str():
    assert str(W((0, 1), (1, -2))) == "a,b^-2"
    assert str(W()) == "1"


def test_identity_token_reads_as_the_empty_word():
    """'1', as `str` writes the identity, reads back as the empty word, alone
    or among other tokens; any other token on the digit 1 is refused."""
    assert word_from_tokens(PATH3, str(W())) == W()
    assert word_from_tokens(PATH3, " 1 ,a,1,b^2,1") == W((0, 1), (1, 2))
    for token in ["1^2", "01", "+1", "-1", "1a"]:
        with pytest.raises(ValueError, match=rf"^bad word token '{re.escape(token)}'$"):
            word_from_tokens(PATH3, f"a,{token}")


@pytest.mark.parametrize(
    "letters,message,built",
    [
        (((0, 0), (1, 2)), "a word syllable has exponent 0", ((1, 2),)),
        (((0, 0),), "a word syllable has exponent 0", ()),
        (((1, 2), (0, 1), (0, -3)), "adjacent word syllables share a vertex", ((1, 2), (0, -2))),
        # a zero exponent and a negative vertex: the first in order wins
        (((0, 0), (-1, 2)), "a word syllable has exponent 0", "word vertex -1 is negative"),
        (((-1, 2), (0, 0)), "word vertex -1 is negative", "word vertex -1 is negative"),
        (((-2, 0), (1, 1)), "a word syllable has exponent 0", ((1, 1),)),
        # a negative vertex wins over a repeated vertex, before or after it
        (((1, 1), (1, 2), (-1, 1)), "word vertex -1 is negative", "word vertex -1 is negative"),
        (((-3, 1), (2, 1), (2, -1)), "word vertex -3 is negative", "word vertex -3 is negative"),
    ],
)
def test_word_constructor_refuses_unreduced_letters(letters, message, built):
    """The constructor holds the rules that `build` establishes, so no word
    prints a zero exponent or passes for a non-identity word unmerged.
    `built` is the merged word, or the refusal of a word that merging
    cannot mend."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        RaagWord(letters)
    if isinstance(built, str):
        with pytest.raises(ValueError, match=f"^{built}$"):
            RaagWord.build(letters)
        return
    assert RaagWord.build(letters) == RaagWord(built)
    assert RaagWord(built).is_identity_word() == (not built)


LETTER = st.tuples(st.integers(0, 2), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(LETTER | LETTER.map(list) | LETTER.map(lambda letter: tuple(map(str, letter))), max_size=40))
def test_build_matches_pairwise_merge(letters):
    """`build` against a merge of mutable [vertex, exponent] pairs, over
    three vertices so that syllables often merge and cancel; a letter
    given as a list, or with entries that int() reads, comes out a tuple
    of ints."""
    merged = []
    for v, e in letters:
        v, e = int(v), int(e)
        if not e:
            continue
        if merged and merged[-1][0] == v:
            merged[-1][1] += e
            if not merged[-1][1]:
                merged.pop()
        else:
            merged.append([v, e])
    assert RaagWord.build(letters).letters == tuple(map(tuple, merged))


# -------------------------------------------- commutators of graph-group words

# the paper's corollary on the graph-group side, on graphs with paths,
# an odd cycle and no edges at all
COROLLARY_GRAPHS = {
    "P4": Graph.path(4),
    "P5": Graph.path(5),
    "C5": Graph.build(5, [(i, (i + 1) % 5) for i in range(5)]),
    "edgeless3": Graph.edgeless(3),
}


@st.composite
def graph_and_pair(draw):
    """A corollary graph and words u, v of 1 to 5 syllables on it."""
    g = COROLLARY_GRAPHS[draw(st.sampled_from(sorted(COROLLARY_GRAPHS)))]
    letter = st.tuples(st.integers(0, g.vertex_count - 1), st.sampled_from([-2, -1, 1, 2]))
    u, v = (RaagWord.build(draw(st.lists(letter, min_size=1, max_size=5))) for _ in range(2))
    return g, u, v


def _inverse(w):
    return RaagWord(tuple((v, -e) for v, e in reversed(w.letters)))


def _commutator(g, x, y):
    """The normal form of [x, y] = x^-1 y^-1 x y."""
    return normal_form(g, RaagWord.build(_inverse(x).letters + _inverse(y).letters + x.letters + y.letters))


@settings(max_examples=100, deadline=None)
@given(graph_and_pair())
def test_noncommuting_words_have_no_trivial_left_normed_commutator(case):
    """Two elements of a graph group commute or generate a free group of
    rank 2 (Baudisch 1981).  In the free group on u and v, each
    [u, v, x_3, ..., x_d] with every x_i in {u, v} is nontrivial, so once
    [u, v] has a nonempty normal form, none to depth 6 has an empty one."""
    g, u, v = case
    layer = [_commutator(g, u, v)]
    if layer[0].is_identity_word():
        return
    for depth in range(3, 7):
        layer = [_commutator(g, w, x) for w in layer for x in (u, v)]
        assert not any(w.is_identity_word() for w in layer), depth


@settings(max_examples=100, deadline=None)
@given(graph_and_pair(), st.integers(2, 5), st.data())
def test_c_fold_commutators_have_no_magnus_terms_below_degree_c(case, c, data):
    """The Magnus map sends the c-th term of the lower central series into
    1 plus terms of degree >= c (Duchamp and Krob 1992), so a c-fold
    commutator [u, v, x_3, ..., x_c] has no term of degree 1 .. c - 1."""
    g, u, v = case
    w = _commutator(g, u, v)
    for x in data.draw(st.lists(st.sampled_from([u, v]), min_size=c - 2, max_size=c - 2)):
        w = _commutator(g, w, x)
    s = magnus_image(g, w, c)
    assert s.coefficient(()) == 1
    assert all(len(mono) >= c for mono in s.coefficients if mono)
