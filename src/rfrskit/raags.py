"""Graph groups: piling normal forms and truncated power-series embeddings.

A finite simple graph presents a group with one generator per vertex and
commutation relations exactly on edges.  Words are put in normal form by
the piling construction: syllables fall onto per-vertex piles, add to
the syllable on top of their pile when nothing blocks them and leave it
when the sum is 0, and unpiling greedily by least vertex yields the
lexicographically least reduced representative, syllables merged.  The
piles are plain lists; unpiling reads each from the bottom through a
head index, so nothing is removed from the front of a pile.

`Graph` holds its vertex count and edges only; `commutes` reads them.
`_noncommuters` builds the non-commuting relation over just the vertices
a call reads (a word's distinct vertices, or the at most 4 of
`rtfn_witness`) and refuses a vertex the graph lacks, so a word of length
L on k vertices costs O(L*k + k^2) whatever the graph's vertex count.

Generators also embed into the free partially-commutative power-series
algebra by v -> 1 + X_v.  Truncating at a degree bound gives nilpotent
quotients whose elements separate short nontrivial words, which is what
`rtfn_witness` certifies exhaustively up to a length bound.  Series
coefficients are exact integers, and each monomial is keyed by its
lexicographic trace normal form, built one letter at a time (Diekert &
Rozenberg, eds., The Book of Traces, 1995).

`magnus_image` and `rtfn_witness` multiply by one syllable v^e at a
time through the letter kernel `_times_letter`: every power v^k settles
in a normal monomial m at the same place p, so p is found once per
monomial and the product's new keys are m[:p] + (v,)*k + m[p:].  It is
the only series product; the tests hold it to a greedy reference.

A word is read in one pass: `word_from_tokens` parses each distinct
token once, and `RaagWord.build` merges the list of their letters,
keeping a letter tuple that merges with nothing as it is.  The
constructor tests its three rules in one loop over the syllables and
scans again, in order, only to name the first bad one; `str` names each
vertex once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .digits import _decimal, _echo, _from_decimal
from .errors import ResourceLimitExceeded

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _vertex_names(vertices) -> list[str]:
    """a .. z for vertices 0 .. 25, then v26, v27, ..., as `word_from_tokens` reads them."""
    return [_LETTER_NAMES[v] if v < 26 else "v" + _decimal(v) for v in vertices]


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 0 .. vertex_count-1, edges (u, v) with
    u < v; the constructor checks, `build` orders each pair."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        bad = min(((u, v) for u, v in self.edges if not 0 <= u < v < n), default=None)
        if bad is not None:
            u, v = bad
            if u == v:
                raise ValueError("loops are not allowed")
            raise ValueError(f"edge ({_echo(u)}, {_echo(v)}) out of range")

    @staticmethod
    def build(vertex_count: int, edges) -> "Graph":
        return Graph(vertex_count, frozenset((min(u, v), max(u, v)) for u, v in edges))

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


@dataclass(frozen=True)
class RaagWord:
    """Word in the graph group: (vertex, exponent) syllables, adjacent same-vertex
    syllables merged, no zero exponents or negative vertices; the constructor
    checks, `build` merges."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # One pass tests the three rules together; only a word that breaks
        # one is scanned again, in order, to name its first bad syllable.
        prev = None
        for v, e in self.letters:
            if v == prev or not e or v < 0:
                break
            prev = v
        else:
            return
        bad = next(((v, e) for v, e in self.letters if not e or v < 0), None)
        if bad is not None:
            v, e = bad
            raise ValueError(f"word vertex {v} is negative" if e else "a word syllable has exponent 0")
        raise ValueError("adjacent word syllables share a vertex")

    @staticmethod
    def build(letters) -> "RaagWord":
        """The word of letters, in one merge pass: zero exponents dropped,
        adjacent syllables on one vertex added, and a sum of 0 removed, so
        that cancellations cascade.  A letter that is an (int, int) tuple
        and merges with nothing is kept as it is."""
        merged: list[tuple[int, int]] = []
        last = None  # the vertex of merged[-1]
        for letter in letters:
            v, e = letter
            if type(letter) is not tuple or type(v) is not int or type(e) is not int:
                v, e = letter = (int(v), int(e))
            if not e:
                continue
            if v == last:
                e += merged.pop()[1]
                if not e:
                    last = merged[-1][0] if merged else None
                    continue
                letter = (v, e)
            merged.append(letter)
            last = v
        return RaagWord(tuple(merged))

    def units(self) -> list[tuple[int, int]]:
        out = []
        for v, e in self.letters:
            step = 1 if e > 0 else -1
            out.extend([(v, step)] * abs(e))
        return out

    def is_identity_word(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        vertices = {v for v, _ in self.letters}
        name = dict(zip(vertices, _vertex_names(vertices)))
        return ",".join([name[v] if e == 1 else f"{name[v]}^{_decimal(e)}" for v, e in self.letters])


# -------------------------------------------------------------- normal form


def _noncommuters(g: Graph, letters) -> dict[int, set[int]]:
    """Each distinct vertex of `letters`, in increasing order, mapped to
    the set of those of them it does not commute with: k^2 `g.commutes`
    calls for k vertices, whatever g's size.  Refuses the first letter
    whose vertex g does not have."""
    vertices = sorted({v for v, _ in letters})
    if vertices and vertices[-1] >= g.vertex_count:
        v = next(v for v, _ in letters if v >= g.vertex_count)
        raise ValueError(f"word vertex {v} out of range for a graph on {g.vertex_count} vertices")
    return {v: {u for u in vertices if not g.commutes(u, v)} for v in vertices}


def normal_form(g: Graph, w: RaagWord) -> RaagWord:
    """Lexicographically least reduced representative; empty iff trivial.

    Each of the word's vertices has a pile of syllable exponents and 0
    markers, one per syllable of a vertex that does not commute with it,
    between a 0 at the bottom and, once piled, one on top.  A syllable
    adds to its pile's top when that is a syllable (nothing blocking came
    since), and a sum of 0 leaves with its markers.  The piles are read
    from the bottom through head indices: the least vertex whose head is
    a syllable goes out, stepping its own head and its noncommuters'
    heads past their markers, and the scan goes back to the least of
    these, the only vertices that can have become ready."""
    noncomm = _noncommuters(g, w.letters)
    piles = {v: [0] for v in noncomm}
    cells = {v: (piles[v], [piles[u] for u in us]) for v, us in noncomm.items()}
    for v, e in w.letters:
        pile, others = cells[v]
        top = pile[-1]
        if top:
            e += top
            if e:
                pile[-1] = e
                continue
            pile.pop()
            for other in others:
                other.pop()
        else:
            pile.append(e)
            for other in others:
                other.append(0)
    order = list(noncomm)
    at = {v: i for i, v in enumerate(order)}
    stacks = [piles[v] for v in order]
    for pile in stacks:
        pile.append(0)
    blocked = [[at[u] for u in noncomm[v]] for v in order]
    rescan = [min([i, *js]) for i, js in enumerate(blocked)]
    heads = [1] * len(order)
    out = []
    i = 0
    while i < len(order):
        pile, h = stacks[i], heads[i]
        if pile[h]:
            out.append((order[i], pile[h]))
            heads[i] = h + 1
            for j in blocked[i]:
                heads[j] += 1
            i = rescan[i]
        else:
            i += 1
    return RaagWord(tuple(out))


# ---------------------------------------------------------- truncated series

# Cap on the term pairs one series product in `magnus_image` may form, which
# also caps the terms of the product: far above the 1365 x 6 pairs of a
# 4-vertex, degree-5 image.
MAX_TERM_PAIRS = 200_000


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


def _letter_terms(e: int, d: int) -> int:
    return (min(e, d) if e >= 0 else d) + 1


def _times_letter(
    noncomm: dict[int, set[int]], s: TruncatedSeries, v: int, e: int
) -> TruncatedSeries:
    """s times the image of v^e, the binomial series of (1 + X_v)^e.
    Every power v^k settles in a normal monomial m at one place p: just
    after the last letter of m that blocks v, then right past smaller
    letters.  So the product's keys are m[:p] + (v,)*k + m[p:]; the k = 0
    term is s itself."""
    d = s.degree_bound
    powers = [
        comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
        for k in range(1, _letter_terms(e, d))
    ]
    row = noncomm[v]
    out = dict(s.coefficients)
    for m, c in s.coefficients.items():
        n = len(m)
        if n >= d:
            continue
        p = n
        while p and m[p - 1] not in row:
            p -= 1
        while p < n and m[p] < v:
            p += 1
        head, tail = m[:p], m[p:]
        for b in powers[:d - n]:
            head += (v,)
            key = head + tail
            val = out.get(key, 0) + c * b
            if val:
                out[key] = val
            else:
                del out[key]
    return TruncatedSeries(d, out)


def magnus_image(g: Graph, w: RaagWord, d: int) -> TruncatedSeries:
    """Image of w under v -> 1 + X_v, truncated beyond degree d.

    Checks the word's vertices first, then raises ResourceLimitExceeded
    before a product that would form more than MAX_TERM_PAIRS term pairs."""
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    noncomm = _noncommuters(g, w.letters)
    out = TruncatedSeries.one(d)
    for done, (v, e) in enumerate(w.letters):
        pairs = len(out.coefficients) * _letter_terms(e, d)
        if pairs > MAX_TERM_PAIRS:
            raise ResourceLimitExceeded(
                f"series product of {pairs} term pairs exceeds the cap of {MAX_TERM_PAIRS} "
                f"after {done} of {len(w.letters)} syllables at degree {d}"
            )
        out = _times_letter(noncomm, out, v, e)
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


def _extends_normally(noncomm: dict[int, set[int]], units: list[tuple[int, int]],
                      letter: tuple[int, int]) -> bool:
    """Whether units + [letter] is a normal form, given that units is one:
    scanning back through the letters that commute with the new letter, it
    must meet neither a larger vertex (it belongs earlier) nor its inverse
    (the two cancel)."""
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


def rtfn_witness(g: Graph, max_len: int) -> RtfnWitnessReport:
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if g.vertex_count > 4 or max_len > 6:
        raise ResourceLimitExceeded(
            "separation witness is bounded to at most 4 vertices and length 6"
        )
    alphabet = [(v, e) for v in range(g.vertex_count) for e in (1, -1)]
    noncomm = _noncommuters(g, alphabet)
    failures: list[tuple[tuple[int, int], ...]] = []
    checked = 0

    def extend(units: list[tuple[int, int]], series: TruncatedSeries) -> None:
        nonlocal checked
        for letter in alphabet:
            if not _extends_normally(noncomm, units, letter):
                continue
            cand = units + [letter]
            s2 = _times_letter(noncomm, series, *letter)
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
    lines = [_decimal(g.vertex_count)]
    lines += [f"{_decimal(u)} {_decimal(v)}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    n = _from_decimal(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {_echo(ln)}")
        edges.append((_from_decimal(parts[0]), _from_decimal(parts[1])))
    return Graph.build(n, edges)


def _token(g: Graph, token: str) -> str:
    """A word token as a refusal writes it: `_echo`'s clipped form names
    the graph's vertex count as well."""
    return _echo(token, f"; the graph has {_decimal(g.vertex_count)} vertices")


def _word_letter(g: Graph, token: str) -> tuple[int, int]:
    """The (vertex, exponent) of one token like 'a', 'a^-1', 'v12^2'; (0, 0), a letter that
    `RaagWord.build` drops, for a blank token or '1', the identity as `RaagWord.__str__` writes it."""
    token = token.strip()
    if not token or token == "1":
        return 0, 0
    name, caret, exp = token.partition("^")
    try:
        e = _from_decimal(exp) if caret else 1
    except ValueError:
        raise ValueError(f"bad word token {_token(g, token)}") from None
    name = name.strip()
    if len(name) == 1 and name in _LETTER_NAMES:
        v = _LETTER_NAMES.index(name)
    elif name.startswith("v") and name[1:].isascii() and name[1:].isdigit():
        v = _from_decimal(name[1:])
    else:
        raise ValueError(f"bad word token {_token(g, token)}")
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {_token(g, name)} out of range for this graph")
    return v, e


def word_from_tokens(g: Graph, text: str) -> RaagWord:
    """Parse comma-separated tokens like 'a', 'a^-1', 'b^2'.  Each distinct
    token is parsed once, in order of first appearance, so the first bad
    token is the one reported; `RaagWord.build` then merges the list of
    their letters in one pass."""
    tokens = text.split(",")
    letters = {token: _word_letter(g, token) for token in dict.fromkeys(tokens)}
    return RaagWord.build(list(map(letters.__getitem__, tokens)))
