"""Multiplication polynomials of a class >= 3 presentation (P. Hall 1957).

The normal form of a product u v is polynomial in the coordinates:
(u v)_l = u_l + v_l + f_l(u_<l, v_<l), and the coordinates of u^-1 are
polynomials in u.  Following Deep Thought (Leedham-Green and Soicher,
Symbolic collection using Deep Thought, LMS J. Comput. Math. 1, 1998),
`multiplication_table` reads these polynomials off one run of the
presentation's collector on exponents that are polynomials (`_Poly`), and
`_Table` evaluates them.  That run is exact: each step of `_collect` is a
group identity for every integer value of its exponents, 0 included, so
the normal form it reaches holds at every integer point, and an
integer-valued polynomial is fixed by those values.

`PcPresentation` builds the table on its first class >= 3 `multiply`,
`inverse` or `power`, after the collector it runs, and loads this module
only then.
"""

from __future__ import annotations

from math import gcd, lcm

from .pcgroups import Element, _Collector

# The most terms a table's symbolic run may make in products of two
# polynomials; past it the presentation keeps collecting.  Every term of
# degree >= 2 in a table comes from such a product, and the run makes
# 1.1 to 1.3 times the table's terms.  Set from the crossover of one
# product, table against collector, on random coordinates up to 8 (and up
# to 1) in size, best of 5, Python 3.11 on a loaded 2-core Xeon: ut(8),
# 612 terms, 145 against 285 us (85 against 114); ut(9), 1,440 terms,
# 283 against 426 us (152 against 142); ut(10), 3,225 terms, 887 against
# 830 us (428 against 294); filiform(12), 452 terms, 75 against 78 us (48
# against 40).  Inverses win by 2 to 5 times on these ut(n).  The runs of
# ut(8) and filiform(12) make under 1,000 terms, those of ut(9) and
# filiform(15) more.
_TERM_BUDGET = 1000


class _OverBudget(Exception):
    """A symbolic run made more terms than `_TERM_BUDGET`."""


class _Poly:
    """A polynomial with rational coefficients in variables x_0, x_1, ...:
    `terms` maps each monomial, a sorted tuple of variable indices with
    repeats, to an integer numerator over the one positive denominator
    `den`, kept in lowest terms, so the zero polynomial has no terms.
    Integers mix in as constants, and `//` by a positive integer, as
    `_binomials` takes it, is exact division.  The polynomials of one run
    share `budget`, a list holding the terms their products may still make.
    """

    __slots__ = ("terms", "den", "budget")

    def __init__(self, terms: dict[tuple[int, ...], int], den: int, budget: list[int]):
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        self.terms, self.den, self.budget = terms, den, budget

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> _Poly:
        return _Poly({m: -c for m, c in self.terms.items()}, self.den, self.budget)

    def __add__(self, other) -> _Poly:
        if not isinstance(other, _Poly):
            if not other:
                return self
            other = _Poly({(): other}, 1, self.budget)
        # copy the longer, run over the shorter
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        den = big.den
        if den == small.den:
            terms, scale = big.terms.copy(), 1
        else:
            den = lcm(den, small.den)
            a, scale = den // big.den, den // small.den
            terms = {m: c * a for m, c in big.terms.items()}
        for m, c in small.terms.items():
            c = terms.get(m, 0) + c * scale
            if c:
                terms[m] = c
            else:
                del terms[m]
        return _Poly(terms, den, self.budget)

    __radd__ = __add__

    def __sub__(self, other) -> _Poly:
        return self + -other

    def __mul__(self, other) -> _Poly:
        if not isinstance(other, _Poly):
            if other == 1:
                return self
            return _Poly({m: c * other for m, c in self.terms.items()} if other else {}, self.den, self.budget)
        terms: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        self.budget[0] -= len(terms)
        if self.budget[0] < 0:
            raise _OverBudget
        return _Poly(terms, self.den * other.den, self.budget)

    __rmul__ = __mul__

    def __floordiv__(self, d: int) -> _Poly:
        return _Poly(self.terms, self.den * d, self.budget)


def _grouped(polys) -> tuple:
    """(l, den, groups) for each nonzero polys[l]: groups pairs each least
    variable a of its monomials with the (numerator, other variables) of
    the terms that have it, so an evaluation at x with x_a = 0 skips them."""
    out = []
    for l, p in enumerate(polys):
        if p:
            groups: dict[int, list] = {}
            for m, c in p.terms.items():
                groups.setdefault(m[0], []).append((c, m[1:]))
            out.append((l, p.den, tuple((a, tuple(terms)) for a, terms in groups.items())))
    return tuple(out)


def _evaluate(x, out: list[int], polys) -> Element:
    """out plus the values at x of `_grouped` polynomials."""
    for l, den, groups in polys:
        t = 0
        for a, terms in groups:
            xa = x[a]
            if xa:
                s = 0
                for c, rest in terms:
                    for b in rest:
                        c *= x[b]
                    s += c
                t += xa * s
        if t:
            out[l] += t // den
    return tuple(out)


class _Table:
    """The polynomials f_l of products, in the variables u_0..u_(n-1),
    v_0..v_(n-1) of x = u + v, and those of the coordinates of u^-1, as
    `_grouped` holds them."""

    __slots__ = ("n", "products", "inverses")

    def __init__(self, n: int, products: tuple, inverses: tuple):
        self.n, self.products, self.inverses = n, products, inverses

    def mul(self, u: Element, v: Element) -> Element:
        return _evaluate((*u, *v), [a + b for a, b in zip(u, v)], self.products)

    def inv(self, u: Element) -> Element:
        return _evaluate(u, [0] * self.n, self.inverses)

    # u^e by squaring, over this table's products and inverse
    pow = _Collector.pow


def multiplication_table(collector: _Collector) -> _Table | None:
    """The table of a presentation, from one symbolic `mul` and one `inv`
    of its collector, or None once the run passes `_TERM_BUDGET`."""
    n = collector.n
    budget = [_TERM_BUDGET]
    u = [_Poly({(l,): 1}, 1, budget) for l in range(n)]
    v = [_Poly({(n + l,): 1}, 1, budget) for l in range(n)]
    try:
        products = collector.mul(u, v)
        inverses = collector.inv(u)
    except _OverBudget:
        return None
    return _Table(n, _grouped(p - a - b for p, a, b in zip(products, u, v)), _grouped(inverses))
