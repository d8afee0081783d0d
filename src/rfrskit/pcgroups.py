"""Finitely generated torsion-free nilpotent groups via power-commutator data.

A presentation lists generators g_1 .. g_n and, for each pair i < j, the
normal form of the commutator [g_j, g_i] = g_j^-1 g_i^-1 g_j g_i, stored
once as a word in the generators with index strictly greater than j.
That triangularity makes the group nilpotent and identifies it with Z^n
as a set: every element has a unique normal form g_1^e1 ... g_n^en, and
elements are plain exponent tuples here.

Multiplication is collection: to append g_k^e to a normal form, the tail
of higher generators is conjugated through g_k^e, which stays inside the
subgroup they generate.  That descent to higher generators terminates, so
no rewriting strategy or termination heuristics are needed.  A table whose
commutator values are all central has class <= 2 and gets a closed-form
fast path for all but `collect`:

    u * v = u + v + B(u, v),   B(u, v) = sum_{i<k} u_k v_i [g_k, g_i]

with all correction terms central and B read off the rule words.

Words in every class, and products over any other table, collect through
conjugation polynomials (P. Hall 1957): the coordinates of
g_k^-e g_m^s g_k^e are integer-valued polynomials in (s, e), stored as
integer coefficients of C(s, i) C(e, j).  The table, the cached property
`PcPresentation._collector`, is built on the first `collect` or generic
product, from the top generator down.  A term has i, j >= 1 and
i w(m) + j w(k) <= w(l), with w the generator weights
(`PcPresentation._weights`), on a coordinate l in the pair's reach: the
generators that conjugation by g_k and the rules among them lead to from
g_m (`_reach`).  With D the largest weight in the reach, pair (k, m) takes
its values on the grid 0..d_s x 0..d_e, d_s = (D - w(k)) // w(m) and
d_e = (D - w(m)) // w(k), from repeated single conjugations
g_l^(g_k) = g_l [g_l, g_k], and 2-D Newton forward differences turn them
into coefficients.  Before level k is built, conjugation by g_k is checked
against every relation of <g_(k+1), ...> that it moves, so an inconsistent
table raises ValueError at every generator count.  Products are then
collected from the left on one exponent list and a stack of syllables
g_k^e (Leedham-Green and Soicher 1990): appending g_k^e pushes back the
tail from the first generator that does not commute with g_k as the
syllables of its conjugated factors, whatever the size of e, and past the
last generator that has a rule with a higher one, a syllable only adds to
its coordinate.  So a commutator is one collection of the word
u^-1 v^-1 u v, with no products composed, and a table of commutators
(`PcPresentation._commutators`) splits each element into syllables once
for its row or column, not once per entry.  Elements and words convert in
one place each way, for every module: `_word` turns an element into its
syllables, `_dense` a word into an element, and `_inverse` reverses a word.

Class >= 3 `multiply`, `inverse` and `power` evaluate Hall's
multiplication polynomials instead, (u v)_l = u_l + v_l + f_l(u_<l, v_<l),
and those of u^-1: on the first of them, one run of the collector on
polynomial exponents gives them, and `hall` compiles them once to
straight-line Python, in 0.15 ms on ut(4) to 3.8 ms on ut(8).  Past a term
budget, crossed between ut(8) and ut(9), they keep collecting, as
`commutator`, `collect` and the collector's own build always do.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, partial
from operator import index, itemgetter, sub

from .digits import _decimal, _echo, _from_decimal
from .intlinalg import AbelianQuotient, IntMatrix, saturate

Element = tuple[int, ...]
Word = tuple[tuple[int, int], ...]  # (generator, nonzero exponent) pairs, generators increasing

# The most generators a presentation may have, checked before any
# per-generator work.  `analyze` takes time and memory at least quadratic
# in the count: on free_abelian(2000), about 2.5 s and 140 MB on a 2-core
# Xeon.  `rfrs-obstruct` refuses ut(64), 2,016 generators, in 0.4 s and 40 MB.
MAX_GENERATORS = 2048


def _check_generator_count(n: int) -> None:
    if n > MAX_GENERATORS:
        raise ValueError(f"generator count {_echo(n)} is above the bound of {MAX_GENERATORS}")


def _pair_key(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError("commutator table is indexed by distinct generators")
    return (i, j) if i < j else (j, i)


class PcPresentation:
    """Power-commutator presentation with triangular integer data.

    `rules`, the one table, maps 0-based pairs (i, j) with i < j, in pair
    order, to the normal form of [g_j, g_i] as a word: (l, e_l) pairs with
    j < l < n, l increasing and every e_l != 0; absent pairs commute.  Every
    reader takes it, and `commutator_rule` gives a rule as an element.
    Instances are immutable.  The table picks the code path, and the class
    is read off it.  A table whose commutator values are all central is
    consistent by construction; any other is checked when its conjugation
    table, the cached property `_collector`, is built, on its first product
    or `collect`, or by `check_consistency`.  At most MAX_GENERATORS
    generators are accepted.
    """

    def __init__(self, n: int, rules: dict[tuple[int, int], Word] | None = None):
        if n < 0:
            raise ValueError("generator count must be nonnegative")
        _check_generator_count(n)
        table = []
        for key, word in (rules or {}).items():
            pair = key if type(key) is tuple else (key,)
            try:
                ok = len(pair) == 2 and 0 <= index(pair[0]) < index(pair[1]) < n
            except TypeError:  # a generator that is not an integer
                ok = False
            if not ok:
                raise ValueError(f"bad generator pair ({', '.join(map(_echo, pair))})")
            i, j = map(index, pair)
            try:
                word = tuple((index(l), index(e)) for l, e in word)
                # each l above the one before it, the first above j
                ok = all(e and a < l < n for (a, _), (l, e) in zip(((j, 0), *word), word))
            except (TypeError, ValueError):  # not a sequence of integer pairs
                ok = False
            if not ok:
                raise ValueError(f"rule for pair ({i}, {j}) must be a word of (l, e_l) pairs with {j} < l < {n}, "
                                 f"l increasing and every e_l != 0")
            if word:
                table.append(((i, j), word))
        self.n = n
        self.rules = dict(sorted(table))
        # g_k is central exactly when every pair containing k commutes
        ruled = {k for pair in self.rules for k in pair}
        self.central = tuple(k not in ruled for k in range(n))
        # (noncentral, central) generator indices, each in increasing order
        self._noncentral = tuple(k for k, c in enumerate(self.central) if not c)
        self._central = tuple(k for k, c in enumerate(self.central) if c)
        # the first (i, j, l) in pair order with a rule value on a non-central g_l; None: class <= 2
        self._off_centre = next(((i, j, l) for (i, j), w in self.rules.items() for l, _ in w if l in ruled), None)
        self._class2 = self._off_centre is None

    # -------------------------------------------------------------- basics

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, PcPresentation) and self.n == other.n and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.rules.items())))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PcPresentation(n={self.n}, rules={len(self.rules)})"

    def identity(self) -> Element:
        return (0,) * self.n

    def generator(self, k: int) -> Element:
        if not 0 <= k < self.n:
            raise ValueError(f"generator index {k} out of range")
        return _dense(self.n, ((k, 1),))

    def element(self, exps) -> Element:
        exps = tuple(int(x) for x in exps)
        if len(exps) != self.n:
            raise ValueError("exponent vector length must equal generator count")
        return exps

    def commutator_rule(self, i: int, j: int) -> Element:
        """Normal form of [g_max, g_min] for the pair {i, j}."""
        return _dense(self.n, self.rules.get(_pair_key(i, j), ()))

    def is_abelian(self) -> bool:
        return not self.rules

    @cached_property
    def _torsion_lattice(self) -> IntMatrix:
        """Hermite basis of V, the kernel of G -> G^ab tensor Q, built on
        first use.  G^ab is Z^n modulo the rule values, so V is Z^n meet
        their rational span, in every class."""
        return saturate(IntMatrix._from_int_rows([_dense(self.n, w) for w in self.rules.values()], self.n))

    @cached_property
    def _weights(self) -> tuple[tuple[int, ...], int]:
        """(w, D): the generator weights, w(l) = max(1, w(i) + w(j) over
        the rules (i, j) whose value involves g_l), and D the largest.

        Generators of weight >= w span a normal subgroup G_w with
        [G_a, G_b] <= G_(a+b), so D bounds the class.
        """
        w = [1] * self.n
        # by j: a value on g_j comes from a rule (a, b) with b < j, so w[i] and w[j] are final
        for i, j in sorted(self.rules, key=itemgetter(1)):
            for l, _ in self.rules[i, j]:
                w[l] = max(w[l], w[i] + w[j])
        return tuple(w), max(w, default=1)

    @cached_property
    def nilpotency_class(self) -> int:
        """The largest c with a nontrivial commutator [x_1, ..., x_c] of
        generators (0 for the trivial group).  Once gamma_(c+1) = 1, these
        generate gamma_c (M. Hall, The Theory of Groups, 1959, ch. 10), and
        gamma_(D+1) <= G_(D+1) = 1; so counting down from c = D, the first c
        with a nontrivial one is the class.  A prefix lies in G_a, a the least
        weight on its support, and is dropped once a plus the depth still to
        add passes D.  A class >= 3 table builds its collector here."""
        w, bound = self._weights
        for c in range(bound, 1, -1):
            # each of the c entries weighs at least 1
            gens = [self.generator(k) for k in self._noncentral if w[k] + c - 1 <= bound]
            layer = set(gens)
            for left in range(c - 2, -1, -1):
                layer = {v for v in (self.commutator(u, g) for u in layer for g in gens)
                         if any(v) and min(w[k] for k, _ in _word(v)) + left <= bound}
            if layer:
                return c
        return 1 if self.n else 0

    # -------------------------------------------------------- class-2 path

    def _beta(self, u: Element, v: Element) -> list[int]:
        out = [0] * self.n
        for (i, k), word in self.rules.items():
            c = u[k] * v[i]
            if c:
                for t, x in word:
                    out[t] += c * x
        return out

    # ------------------------------------------------------ generic path

    @cached_property
    def _collector(self) -> _Collector:
        """The conjugation polynomials, built on the first generic product or `collect`."""
        return _Collector(self)

    @cached_property
    def _table(self):
        """The multiplication polynomials (`hall`), read off one symbolic run
        of the collector on the first class >= 3 `multiply`, `inverse` or
        `power`; None past their term budget, and then those collect."""
        from .hall import multiplication_table

        return multiplication_table(self._collector)

    # ------------------------------------------------------------ public

    def multiply(self, u: Element, v: Element) -> Element:
        if len(u) != self.n or len(v) != self.n:
            raise _length_error(self.n, u, v)
        if self._class2:
            return tuple(x + y + z for x, y, z in zip(u, v, self._beta(u, v)))
        return (self._table or self._collector).mul(u, v)

    def inverse(self, u: Element) -> Element:
        if len(u) != self.n:
            raise _length_error(self.n, u)
        if self._class2:
            return self.power(u, -1)
        return (self._table or self._collector).inv(u)

    def power(self, u: Element, e: int) -> Element:
        if len(u) != self.n:
            raise _length_error(self.n, u)
        try:
            e = index(e)
        except TypeError:
            raise ValueError(f"power exponent must be an integer, not {type(e).__name__}") from None
        if self._class2:
            # u^e = e*u + (e choose 2) * B(u, u), valid for every integer e
            b = self._beta(u, u)
            c = e * (e - 1) // 2
            return tuple(e * x + c * z for x, z in zip(u, b))
        return (self._table or self._collector).pow(u, e)

    def conjugate(self, u: Element, g: Element) -> Element:
        """g^-1 u g."""
        return self.multiply(self.multiply(self.inverse(g), u), g)

    def commutator(self, u: Element, v: Element) -> Element:
        """u^-1 v^-1 u v."""
        if len(u) != self.n or len(v) != self.n:
            raise _length_error(self.n, u, v)
        if self._class2:
            b1 = self._beta(u, v)
            b2 = self._beta(v, u)
            return tuple(x - y for x, y in zip(b1, b2))
        return self._collector.commutator(u, v)

    def _commutators(self, us, vs) -> Iterator[Iterator[Element]]:
        """For each u in us, the [u, v] for v in vs, one at a time: the closed
        form in class <= 2, else each element is split into syllables once,
        not once per commutator."""
        if self._class2:
            return (map(partial(self.commutator, u), vs) for u in us)
        return self._collector.commutators(us, vs)

    def collect(self, word) -> Element:
        """Normal form of a word of (generator index, exponent) pairs, in one pass in any class."""
        syllables = []
        for idx, e in word:
            if not 0 <= idx < self.n:
                raise ValueError(f"generator index {idx} out of range")
            if e:
                syllables.append((idx, e))
        return self._collector._collect([0] * self.n, syllables)

    def check_consistency(self) -> None:
        """Build the conjugation table now; it refuses an inconsistent table.

        A table with a commutator value on a non-central generator is checked
        level by level as it is built (see `_Collector`), at every generator
        count, so it is refused here or on its first product or `collect`.
        Any other table is consistent by construction (B is bilinear,
        central valued and zero on central arguments):
        (u v) w = u (v w) = u + v + w + B(u, v) + B(u, w) + B(v, w), and
        u^-1 u = B(u, u) - B(u, u) = 0.
        """
        if not self._class2:
            self._collector


def _length_error(n: int, *elements) -> ValueError:
    k = next(len(u) for u in elements if len(u) != n)
    return ValueError(f"exponent vector length {k} must equal generator count {n}")


# ------------------------------------------------------- generic collection


def _dense(n: int, word) -> Element:
    """The element of Z^n with coordinate e_l at each (l, e_l) of a word, and 0 elsewhere."""
    out = [0] * n
    for l, e in word:
        out[l] = e
    return tuple(out)


def _word(u: Element, start: int = 0) -> list[tuple[int, int]]:
    """The syllables (k, u_k) of an element's nonzero coordinates, k increasing;
    `start` is the index of u's first coordinate when u is a tail."""
    return [(k, e) for k, e in enumerate(u, start) if e]


def _inverse(word) -> list[tuple[int, int]]:
    """The syllables of a word's inverse: reversed, each exponent negated."""
    return [(k, -e) for k, e in reversed(word)]


def _binomials(x: int, d: int) -> list[int]:
    """C(x, 0), ..., C(x, d), exact for negative x too."""
    out = [1]
    for i in range(1, d + 1):
        out.append(out[-1] * (x - i + 1) // i)
    return out


def _forward_differences(vals: list) -> None:
    """In place, coordinatewise: vals[i] becomes the i-th forward difference at 0."""
    for i in range(1, len(vals)):
        for a in range(len(vals) - 1, i - 1, -1):
            vals[a] = list(map(sub, vals[a], vals[a - 1]))


def _reach(ruled: list, k: int, m: int) -> set[int]:
    """The reach of the pair (k, m): the least set of generators that holds
    m and, with k, the support of every rule between two of its members.
    The elements supported on it form a subgroup that conjugation by g_k
    maps to itself, so it holds every g_k^-e g_m^s g_k^e."""
    reach = {m}
    todo = [m]
    while todo:
        a = todo.pop()
        for b, support in ruled[a]:
            # met once a and b are both in, at the latest when the second is popped
            if b == k or b in reach:
                for l in support:
                    if l not in reach:
                        reach.add(l)
                        todo.append(l)
    return reach


class _Collector:
    """Collection in any class through conjugation polynomials.

    For k < m with a nonzero rule, `levels[k][m]` holds pairs (l, terms),
    one per nonzero coordinate l > m of g_k^-e g_m^s g_k^e, whose value is
    sum(a * C(s, i) * C(e, j) for i, j, a in terms).  Coordinate m is s and
    the ones below m are 0; commuting pairs have no entry, and the keys of
    `levels[k]` run in increasing order.  A term has
    i, j >= 1 and i w(m) + j w(k) <= w(l) <= D, the largest weight in the
    pair's reach (`_reach`), so the pair's grid is 0..d_s x 0..d_e with
    d_s = (D - w(k)) // w(m) and d_e = (D - w(m)) // w(k).  `degrees[k]`
    holds the largest i and j in the terms of level k.  Each level first checks that conjugation by g_k
    is an automorphism of the group above it (`_check_conjugation`), so the
    table is consistent once it is built.

    `_collect` appends syllables g_k^e from a stack to an exponent list.  If
    g_k commutes with the list's tail, or k >= `top` (from there on the
    generators commute pairwise), only coordinate k changes.  Otherwise the
    tail from the first generator of `blocking[k]`, the keys of `levels[k]`,
    that is nonzero on the list is zeroed and pushed back as g_m^s and then
    the nonzero coordinates l > m of g_k^-e g_m^s g_k^e, for each nonzero m,
    whatever the size of e.  On a level of degrees (1, 1), as every level of
    ut(n) is, each coordinate has the one term (1, 1, a) and is read as the
    product a s e, with no binomials.

    `mul` collects the syllables of v onto u; `inv` and `commutator`
    collect the words u^-1 and u^-1 v^-1 u v from the identity, and
    `commutators` a table of the latter.  Each entry is one `_collect` call
    on syllables from `_word`.  The build splits no element: a level's
    images of g_l are the syllables g_l and the rule of (k, l).  On
    exponents that are polynomials, one `mul` and one `inv` give the
    multiplication polynomials of `hall`, which products and powers then
    run, compiled, in place of collecting.
    """

    __slots__ = ("n", "top", "levels", "blocking", "degrees")

    def __init__(self, p: PcPresentation):
        self.n = p.n
        # from `top` on, no generator has a rule with a higher one
        self.top = max((i + 1 for i, _ in p.rules), default=0)
        w = p._weights[0]
        # ruled[a]: (b, support of the rule value) for each rule between g_a and g_b
        ruled: list[list[tuple[int, list[int]]]] = [[] for _ in range(p.n)]
        for (i, j), word in p.rules.items():
            support = [l for l, _ in word]
            ruled[i].append((j, support))
            ruled[j].append((i, support))
        self.levels: list[dict[int, tuple]] = [{} for _ in range(p.n)]
        # the keys of levels[k]: the generators that do not commute with g_k, in order
        self.blocking: list[tuple[int, ...]] = [()] * p.n
        self.degrees: list[tuple[int, int]] = [(0, 0)] * p.n
        # level k multiplies only inside <g_(k+1), ...>, which uses the levels above it
        for k in reversed(range(p.n)):
            self.levels[k], self.degrees[k] = self._level(p, k, w, ruled)
            self.blocking[k] = tuple(self.levels[k])

    def _level(self, p: PcPresentation, k: int, w: tuple[int, ...], ruled: list) -> tuple:
        n, rules = self.n, p.rules
        # g_l^(g_k) = g_l [g_l, g_k], as syllables: the rule's value lies above l
        images = {l: [(l, 1), *rules[k, l]] for l, _ in ruled[k] if l > k}
        if not images:  # g_k commutes with every generator above it
            return {}, (0, 0)
        self._check_conjugation(p, k, images, ruled)
        level = {}
        max_s = max_e = 0
        for m in sorted(images):
            bound = max(map(w.__getitem__, _reach(ruled, k, m)))
            d_s = (bound - w[k]) // w[m]
            d_e = (bound - w[m]) // w[k]
            # grid[a][b] = g_k^-b g_m^a g_k^b on 0..d_s x 0..d_e
            col = [p.generator(m)]
            for _ in range(d_e):
                col.append(self._collect([0] * n, self._conj_once(images, _word(col[-1]))))
            grid = [[(0,) * n] * (d_e + 1)]
            for _ in range(d_s):
                grid.append([self.mul(x, y) for x, y in zip(grid[-1], col)])
            # 2-D Newton forward differences give the binomial coefficients;
            # above m they vanish at s = 0 and at e = 0, and row 0 is zero
            for row in grid[1:]:
                _forward_differences(row)
            for b in range(1, d_e + 1):
                column = [row[b] for row in grid]
                _forward_differences(column)
                for row, val in zip(grid, column):
                    row[b] = val
            poly = []
            for l in range(m + 1, n):
                terms = tuple(
                    (i, j, grid[i][j][l])
                    for i in range(1, d_s + 1)
                    for j in range(1, d_e + 1)
                    if grid[i][j][l]
                )
                if terms:
                    poly.append((l, terms))
            poly = tuple(poly)
            level[m] = poly
            for _, terms in poly:
                for i, j, _ in terms:
                    max_s, max_e = max(max_s, i), max(max_e, j)
        return level, (max_s, max_e)

    def _check_conjugation(self, p: PcPresentation, k: int, images: dict[int, list], ruled: list) -> None:
        """Refuse the table unless g_l -> images[l] respects every relation
        g_j g_i = g_i g_j r_ij (k < i < j) of G_(k+1) = <g_(k+1), ...>.

        Then conjugation by g_k is an endomorphism of G_(k+1), onto because
        images[l] is g_l times generators above l, and so an automorphism, as
        finitely generated nilpotent groups are Hopfian.  So G_k is the
        semidirect product <g_k> x G_(k+1) and the table is consistent from k
        on (Sims, Computation with Finitely Presented Groups, ch. 9).  Two
        kinds of relation hold at once and are skipped.  One whose generators,
        g_i, g_j and those of r_ij, are all fixed maps to itself, and it holds
        in G_(k+1) already.  One with no rule asks that images[i] and
        images[j] commute, and they do when no generator of the one's support
        has a rule with a generator of the other's: G_(k+1) was checked at the
        levels above, so the commutations its table states hold there.
        """
        n, rules = self.n, p.rules
        # the support of images[l]
        support = {l: [l, *rule_support] for l, rule_support in ruled[k] if l > k}
        for j in range(k + 2, n):
            y_support = support.get(j)
            for i in range(k + 1, j):
                rule = rules.get((i, j))
                x_support = support.get(i)
                if x_support is None and y_support is None:
                    if rule is None or not any(l in images for l, _ in rule):
                        continue
                elif rule is None and not any(
                    (min(a, b), max(a, b)) in rules for a in x_support or (i,) for b in y_support or (j,)
                ):
                    continue
                x, y = images.get(i) or [(i, 1)], images.get(j) or [(j, 1)]
                right = y + self._conj_once(images, rule) if rule is not None else y
                if self._collect(list(_dense(n, y)), x) != self._collect(list(_dense(n, x)), right):
                    raise ValueError(f"inconsistent presentation: conjugation by g{k} breaks "
                                     f"the relation g{j} g{i} = g{i} g{j} [g{j}, g{i}]")

    def _conj_once(self, images: dict[int, list], word) -> list[tuple[int, int]]:
        """Syllables of g_k^-1 x g_k for the word x, supported above k, with
        images[l] the syllables of g_k^-1 g_l g_k, so that an exponent of
        +-1, as every rule of ut(n) has, takes no product."""
        out = []
        for l, e in word:
            img = images.get(l)
            if img is None:
                out.append((l, e))
            elif e == 1:
                out += img
            elif e == -1:
                out += _inverse(img)
            else:
                out += _word(self.pow(_dense(self.n, img), e))
        return out

    def _collect(self, r: list[int], word) -> Element:
        """r times a word of (generator, nonzero exponent) syllables, collected from the left."""
        n, top, levels, blocking, degrees = self.n, self.top, self.levels, self.blocking, self.degrees
        stack = word[::-1]
        pop = stack.pop
        while stack:
            k, e = pop()
            if k < top:
                for first in blocking[k]:
                    if r[first]:
                        break
                else:
                    r[k] += e
                    continue
                # the commuting run below `first` stays; the rest is conjugated
                level = levels[k]
                d_s, d_e = degrees[k]
                pushed = []
                push = pushed.append
                if d_s == d_e == 1:
                    # every term is (1, 1, a): coordinate l is a * s * e, never 0
                    for m in range(first, n):
                        s = r[m]
                        if s:
                            r[m] = 0
                            push((m, s))
                            poly = level.get(m)
                            if poly is not None:
                                se = s * e
                                for l, ((_, _, a),) in poly:
                                    push((l, a * se))
                else:
                    be = _binomials(e, d_e)
                    for m in range(first, n):
                        s = r[m]
                        if s:
                            r[m] = 0
                            push((m, s))
                            poly = level.get(m)
                            if poly is not None:
                                bs = _binomials(s, d_s)
                                for l, terms in poly:
                                    c = sum(a * bs[i] * be[j] for i, j, a in terms)
                                    if c:
                                        push((l, c))
                pushed.reverse()
                stack += pushed
            r[k] += e
        return tuple(r)

    def mul(self, u: Element, v: Element) -> Element:
        return self._collect(list(u), _word(v))

    def inv(self, u: Element) -> Element:
        # u^-1 = g_(n-1)^-u_(n-1) ... g_0^-u_0
        return self._collect([0] * self.n, _inverse(_word(u)))

    def commutator(self, u: Element, v: Element) -> Element:
        """u^-1 v^-1 u v, collected as one word."""
        wu, wv = _word(u), _word(v)
        return self._collect([0] * self.n, _inverse(wu) + _inverse(wv) + wu + wv)

    def commutators(self, us, vs) -> Iterator[Iterator[Element]]:
        """For each u in us, the [u, v] for v in vs, each collected as
        `commutator` collects it, from syllables that `_word` and `_inverse`
        build once per element.  One commutator is made at a time: a row of
        them held at once, n coordinates each, raised the peak RSS of
        `analyze` on ut(32) from 79 to 95 MB (Python 3.11)."""
        right = [(_inverse(w), w) for w in map(_word, vs)]
        return (self._commutator_row(_word(u), right) for u in us)

    def _commutator_row(self, wu, right) -> Iterator[Element]:
        n, collect, left = self.n, self._collect, _inverse(wu)
        for iv, wv in right:
            yield collect([0] * n, left + iv + wu + wv)

    def pow(self, u: Element, e: int) -> Element:
        if e < 0:
            u, e = self.inv(u), -e
        result = (0,) * self.n
        while e:
            if e & 1:
                result = self.mul(result, u)
            e >>= 1
            if e:
                u = self.mul(u, u)
        return result


# ------------------------------------------------------------------ builders


def heisenberg() -> PcPresentation:
    """<x, y, z | [x, y] = z, z central>, coordinates (a, b, c)."""
    return PcPresentation(3, {(0, 1): ((2, -1),)})


def free_abelian(n: int) -> PcPresentation:
    if n < 1:
        raise ValueError("free abelian rank must be positive")
    return PcPresentation(n, {})


def _ut_positions(n: int) -> list[tuple[int, int]]:
    # strictly-upper positions ordered by diagonal, then row
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def unitriangular(n: int) -> PcPresentation:
    """Upper unitriangular n x n integer matrices on the transvection basis.

    Generators are I + E_(i,j) ordered along successive superdiagonals.
    The commutator table comes from the Steinberg relations: with the
    commutator [x, y] = x^-1 y^-1 x y, [I + E_ij, I + E_jl] = I + E_il,
    and transvections sharing no inner index commute.
    """
    if n < 2:
        raise ValueError("unitriangular groups need size at least 2")
    _check_generator_count(n * (n - 1) // 2)
    positions = _ut_positions(n)
    place = {pos: t for t, pos in enumerate(positions)}
    m = len(positions)
    rules: dict[tuple[int, int], Word] = {}
    for a, (i, j) in enumerate(positions):
        for b in range(a + 1, m):
            k, l = positions[b]
            # [g_b, g_a] with g_a = I + E_ij and g_b = I + E_kl
            if l == i:
                rules[(a, b)] = ((place[(k, j)], 1),)
            elif j == k:
                rules[(a, b)] = ((place[(i, l)], -1),)
    return PcPresentation(m, rules)


def direct_product(p: PcPresentation, q: PcPresentation) -> PcPresentation:
    rules = dict(p.rules)
    for (i, j), word in q.rules.items():
        rules[(i + p.n, j + p.n)] = tuple((l + p.n, e) for l, e in word)
    return PcPresentation(p.n + q.n, rules)


# The most parenthesised calls, each one '(', that a builder name may
# hold.  `build_standard` recurses once per direct_product level: a
# product of 101 heisenbergs takes 0.2 s to build, and one of 1001 would
# pass the interpreter's recursion limit.
_BUILDER_CALLS = 100


def build_standard(name: str) -> PcPresentation:
    """Builders by name: heisenberg, ut(n), free_abelian(n), direct_product(a,b)."""
    name = name.strip()
    if name.count("(") > _BUILDER_CALLS:
        raise ValueError(f"builder name has more than {_BUILDER_CALLS} parenthesised calls")
    if name == "heisenberg":
        return heisenberg()
    for prefix, fn in (("ut", unitriangular), ("free_abelian", free_abelian)):
        if name.startswith(prefix + "(") and name.endswith(")"):
            try:
                arg = _from_decimal(name[len(prefix) + 1 : -1])
            except ValueError:
                raise ValueError(f"bad argument in builder name {_echo(name)}") from None
            return fn(arg)
    if name.startswith("direct_product(") and name.endswith(")"):
        inner = name[len("direct_product(") : -1]
        depth = 0
        split = None
        for t, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split = t
                break
        if split is None:
            raise ValueError(f"direct_product needs two arguments: {_echo(name)}")
        return direct_product(build_standard(inner[:split]), build_standard(inner[split + 1 :]))
    raise ValueError(f"unknown group builder {_echo(name)}")


# ------------------------------------------------------------ abelianization


def abelianization(p: PcPresentation) -> AbelianQuotient:
    """Quotient by the normal closure of all commutators.

    The relation matrix stacks the commutator-table values; the returned
    quotient carries both the abelian group structure and the projection
    splitting images into free and torsion coordinates.
    """
    rows = [_dense(p.n, word) for word in p.rules.values()]
    return AbelianQuotient(IntMatrix._from_int_rows(rows, p.n))


# ------------------------------------------------------------ file format


def presentation_to_text(p: PcPresentation) -> str:
    """Lines: 'n class' then '<i> <j> : e_(j+1) .. e_n' per nontrivial pair (1-based);
    the class is the one read off the table."""
    lines = [f"{p.n} {p.nilpotency_class}"]
    for i, j in p.rules:
        tail = " ".join(map(_decimal, p.commutator_rule(i, j)[j + 1 :]))
        lines.append(f"{i + 1} {j + 1} : {tail}")
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str, admit=None) -> PcPresentation:
    """The presentation a file in `presentation_to_text`'s format holds;
    ValueError unless its header's class is the table's.  admit, if given,
    runs on the table before the class is read off it, so a table it
    refuses costs no class computation, which on a class >= 3 table builds
    the collector."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty presentation file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n class'")
    n, cls = _from_decimal(head[0]), _from_decimal(head[1])
    rules: dict[tuple[int, int], Word] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise ValueError(f"bad rule line {_echo(ln)}")
        left, right = ln.split(":", 1)
        parts = left.split()
        if len(parts) != 2:
            raise ValueError(f"bad rule line {_echo(ln)}")
        i, j = _from_decimal(parts[0]), _from_decimal(parts[1])
        if not 1 <= i < j <= n:
            raise ValueError(f"bad generator pair ({_echo(i)}, {_echo(j)})")
        if (i - 1, j - 1) in rules:
            raise ValueError(f"repeated generator pair ({_echo(i)}, {_echo(j)})")
        tail = list(map(_from_decimal, right.split()))
        if len(tail) != n - j:
            raise ValueError(f"rule for pair ({_echo(i)}, {_echo(j)}) needs {_echo(n - j)} exponents, "
                             f"got {len(tail)}")
        rules[(i - 1, j - 1)] = tuple(_word(tail, j))
    p = PcPresentation(n, rules)
    if admit is not None:
        admit(p)
    if cls != p.nilpotency_class:
        raise ValueError(f"declares nilpotency class {_echo(cls)}, but its lower central series has class "
                         f"{p.nilpotency_class}")
    return p
