"""Graph groups: piling normal forms and truncated power-series embeddings.

A finite simple graph presents a group with one generator per vertex and
commutation relations exactly on edges.  Words are put in normal form by
the piling construction: letters fall through per-vertex stacks, inverse
pairs cancel when nothing blocks them, and unpiling greedily by least
vertex yields the lexicographically least reduced representative.

Generators also embed into the free partially-commutative power-series
algebra by v -> 1 + X_v.  Truncating at a degree bound gives nilpotent
quotients whose elements separate short nontrivial words, which is what
`rtfn_witness` certifies exhaustively up to a length bound.  Series
coefficients are exact integers, and each monomial is keyed by its
lexicographic trace normal form, built one letter at a time (Diekert &
Rozenberg, eds., The Book of Traces, 1995).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .errors import ResourceLimitExceeded

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 0 .. vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def build(vertex_count: int, edges) -> "Graph":
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((min(u, v), max(u, v)))
        return Graph(vertex_count, frozenset(norm))

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def edgeless(n: int) -> "Graph":
        return Graph.build(n, [])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.build(n, [(i, i + 1) for i in range(n - 1)])

    def commutes(self, u: int, v: int) -> bool:
        return u == v or (min(u, v), max(u, v)) in self.edges

    @cached_property
    def noncommuters(self) -> tuple[tuple[int, ...], ...]:
        """noncommuters[v]: the other vertices v does not commute with."""
        n = self.vertex_count
        return tuple(tuple(u for u in range(n) if not self.commutes(u, v)) for v in range(n))

    @cached_property
    def blocking(self) -> tuple[tuple[bool, ...], ...]:
        """blocking[v][u]: u does not commute with v."""
        n = self.vertex_count
        return tuple(tuple(not self.commutes(u, v) for u in range(n)) for v in range(n))


@dataclass(frozen=True)
class RaagWord:
    """Word in the graph group: (vertex, exponent) syllables, adjacent
    same-vertex syllables merged, no zero exponents."""

    letters: tuple[tuple[int, int], ...]

    @staticmethod
    def build(letters) -> "RaagWord":
        merged: list[list[int]] = []
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
        return RaagWord(tuple((v, e) for v, e in merged))

    def units(self) -> list[tuple[int, int]]:
        out = []
        for v, e in self.letters:
            step = 1 if e > 0 else -1
            out.extend([(v, step)] * abs(e))
        return out

    def is_identity_word(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        parts = []
        for v, e in self.letters:
            name = _LETTER_NAMES[v] if v < len(_LETTER_NAMES) else f"v{v}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return ",".join(parts) if parts else "1"


# -------------------------------------------------------------- normal form


def _pile_units(g: Graph, units) -> list[tuple[int, int]]:
    piles: list[deque] = [deque() for _ in range(g.vertex_count)]
    noncomm = g.noncommuters
    for v, eps in units:
        pile = piles[v]
        if pile and pile[-1] == -eps:
            pile.pop()
            for u in noncomm[v]:
                piles[u].pop()
        else:
            pile.append(eps)
            for u in noncomm[v]:
                piles[u].append(0)
    out = []
    while True:
        ready = [v for v in range(g.vertex_count) if piles[v] and piles[v][0] != 0]
        if not ready:
            break
        v = min(ready)
        eps = piles[v].popleft()
        out.append((v, eps))
        for u in noncomm[v]:
            marker = piles[u].popleft()
            assert marker == 0
    assert all(not p for p in piles)
    return out


def normal_form(g: Graph, w: RaagWord) -> RaagWord:
    """Lexicographically least reduced representative; empty iff trivial."""
    return RaagWord.build(_pile_units(g, w.units()))


# ---------------------------------------------------------- truncated series

# Cap on the term pairs one series product in `magnus_image` may form, which
# also caps the terms of the product: far above the 1365 x 6 pairs of a
# 4-vertex, degree-5 image.
MAX_TERM_PAIRS = 200_000


def _append_normal(
    blocks: tuple[tuple[bool, ...], ...], word: tuple[int, ...], letters
) -> tuple[int, ...]:
    """Lexicographic trace normal form of word + letters, `word` already
    normal.  Each letter settles just after the last letter that blocks it,
    then steps right past smaller letters."""
    out = list(word)
    for a in letters:
        row = blocks[a]
        p = n = len(out)
        while p and not row[out[p - 1]]:
            p -= 1
        while p < n and out[p] < a:
            p += 1
        out.insert(p, a)
    return tuple(out)


@dataclass
class TruncatedSeries:
    """Element of the partially-commutative power-series algebra modulo
    terms of degree above `degree_bound`.  Coefficients are exact integers;
    keys are lexicographic trace normal forms of monomials."""

    degree_bound: int
    coefficients: dict[tuple[int, ...], int] = field(default_factory=dict)

    @staticmethod
    def one(d: int) -> "TruncatedSeries":
        return TruncatedSeries(d, {(): 1})

    def is_one(self) -> bool:
        return self.coefficients == {(): 1}

    def coefficient(self, mono: tuple[int, ...]) -> int:
        return self.coefficients.get(mono, 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.coefficients.items(), key=lambda kv: (len(kv[0]), kv[0]))


def series_multiply(g: Graph, s1: TruncatedSeries, s2: TruncatedSeries) -> TruncatedSeries:
    if s1.degree_bound != s2.degree_bound:
        raise ValueError("degree bounds differ")
    d = s1.degree_bound
    blocks = g.blocking
    terms2 = sorted(((len(m2), m2, c2) for m2, c2 in s2.coefficients.items()), key=lambda t: t[0])
    out: dict[tuple[int, ...], int] = {}
    for m1, c1 in s1.coefficients.items():
        room = d - len(m1)
        for n2, m2, c2 in terms2:
            if n2 > room:
                break
            key = _append_normal(blocks, m1, m2) if m2 else m1
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return TruncatedSeries(d, out)


def _letter_terms(e: int, d: int) -> int:
    return (min(e, d) if e >= 0 else d) + 1


def _letter_series(v: int, e: int, d: int) -> TruncatedSeries:
    """Image of v^e: the binomial series of (1 + X_v)^e."""
    return TruncatedSeries(d, {
        (v,) * k: comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
        for k in range(_letter_terms(e, d))
    })


def magnus_image(g: Graph, w: RaagWord, d: int) -> TruncatedSeries:
    """Image of w under v -> 1 + X_v, truncated beyond degree d.

    Raises ResourceLimitExceeded before a product that would form more
    than MAX_TERM_PAIRS term pairs."""
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    out = TruncatedSeries.one(d)
    for done, (v, e) in enumerate(w.letters):
        pairs = len(out.coefficients) * _letter_terms(e, d)
        if pairs > MAX_TERM_PAIRS:
            raise ResourceLimitExceeded(
                f"series product of {pairs} term pairs exceeds the cap of {MAX_TERM_PAIRS} "
                f"after {done} of {len(w.letters)} syllables at degree {d}"
            )
        out = series_multiply(g, out, _letter_series(v, e, d))
    return out


# ------------------------------------------------------- separation witness


@dataclass(frozen=True)
class RtfnWitnessReport:
    """Exhaustive check that nontrivial words up to a length bound have
    nontrivial truncated-series image, i.e. are separated by the degree
    filtration's torsion-free nilpotent quotients."""

    max_len: int
    degree: int
    elements_checked: int
    separated: bool
    failures: tuple[tuple[tuple[int, int], ...], ...]


def _extends_normally(blocks: tuple[tuple[bool, ...], ...], units: list[tuple[int, int]],
                      letter: tuple[int, int]) -> bool:
    """Whether units + [letter] is a normal form, given that units is one:
    scanning back through the letters that commute with the new letter, it
    must meet neither a larger vertex (it belongs earlier) nor its inverse
    (the two cancel)."""
    v, eps = letter
    for u, f in reversed(units):
        if u == v:
            return f == eps
        if blocks[v][u]:
            return True
        if u > v:
            return False
    return True


def rtfn_witness(g: Graph, max_len: int) -> RtfnWitnessReport:
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if g.vertex_count > 4 or max_len > 6:
        raise ResourceLimitExceeded(
            "separation witness is bounded to at most 4 vertices and length 6"
        )
    alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
    blocks = g.blocking
    failures: list[tuple[tuple[int, int], ...]] = []
    checked = 0

    def extend(units: list[tuple[int, int]], series: TruncatedSeries) -> None:
        nonlocal checked
        for letter in alphabet:
            if not _extends_normally(blocks, units, letter):
                continue
            cand = units + [letter]
            s2 = series_multiply(g, series, _letter_series(letter[0], letter[1], max_len))
            checked += 1
            if s2.is_one():
                failures.append(tuple(cand))
            if len(cand) < max_len:
                extend(cand, s2)

    extend([], TruncatedSeries.one(max_len))
    return RtfnWitnessReport(
        max_len=max_len,
        degree=max_len,
        elements_checked=checked,
        separated=not failures,
        failures=tuple(failures),
    )


# ------------------------------------------------------------- file formats


def graph_to_text(g: Graph) -> str:
    lines = [str(g.vertex_count)]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.build(n, edges)


def word_from_tokens(g: Graph, text: str) -> RaagWord:
    """Parse comma-separated tokens like 'a', 'a^-1', 'b^2'."""
    letters = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            name, exp = token.split("^", 1)
            e = int(exp)
        else:
            name, e = token, 1
        name = name.strip()
        if len(name) == 1 and name in _LETTER_NAMES:
            v = _LETTER_NAMES.index(name)
        elif name.startswith("v") and name[1:].isdigit():
            v = int(name[1:])
        else:
            raise ValueError(f"bad word token {token!r}")
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {name!r} out of range for this graph")
        letters.append((v, e))
    return RaagWord.build(letters)
