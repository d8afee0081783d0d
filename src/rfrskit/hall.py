"""Multiplication polynomials of a class >= 3 presentation (P. Hall 1957).

The normal form of a product u v is polynomial in the coordinates:
(u v)_l = u_l + v_l + f_l(u_<l, v_<l), and the coordinates of u^-1 are
polynomials in u.  Following Deep Thought (Leedham-Green and Soicher,
Symbolic collection using Deep Thought, LMS J. Comput. Math. 1, 1998),
`multiplication_table` reads these polynomials off one run of the
presentation's collector on exponents that are polynomials (`_Poly`).  That
run is exact: each step of `_collect` is a group identity for every integer
value of its exponents, 0 included, so the normal form it reaches holds at
every integer point, and an integer-valued polynomial is fixed by those
values.  `_Table` then writes the polynomials once as the source of two
straight-line Python functions, `mul(u, v)` and `inv(u)`, and compiles it;
each coordinate sums its whole numerator, factored by least variables,
skips a factored group whose variable is 0, and divides once by its
denominator.  The source and its compile cost 0.15, 0.73 and 3.8 ms once,
on ut(4), ut(6) and ut(8), beside the run; products then take 0.5, 4.0 and
29 us (best of 5, Python 3.11.7, 2-core Xeon).

`PcPresentation` builds the table on its first class >= 3 `multiply`,
`inverse` or `power`, after the collector it runs, and loads this module
only then.
"""

from __future__ import annotations

from math import gcd, lcm

from .pcgroups import _Collector

# The most terms a table's symbolic run may make in products of two
# polynomials; past it the presentation keeps collecting.  Every term of
# degree >= 2 in a table comes from such a product, and the run makes
# 1.1 to 1.3 times the table's terms.  One product, compiled table against
# collector, on random coordinates up to 8 (and up to 1) in size, best of
# 5 over three runs, Python 3.11.7 on a loaded 2-core Xeon: ut(8), 612
# terms, 28 against 151 us (8 against 55); ut(9), 1,440 terms, 74 against
# 249 us (27 against 96); ut(10), 3,225 terms, 183 against 435 us (66
# against 160); filiform(12), 452 terms, 8 against 35 us (5 against 16).
# Inverses win by 4 to 21 times.  So the table wins every product here, and
# the budget bounds its one-time cost, the symbolic run and the compile:
# 6.8, 15 and 32 ms on ut(8), ut(9) and ut(10) (compile alone 3.3, 7.3 and
# 17 ms), and 4.5 ms on filiform(12).  The runs of ut(8) and filiform(12)
# make under 1,000 terms, those of ut(9) and filiform(15) more.
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


# The most operands one generated sum chains; a longer sum nests in
# parentheses, _CHAIN operands at a time.  `compile` recurses once per
# operand of a chain and runs out of depth at about 3,000 operands from the
# top of the stack, fewer when it is called deep in the stack.
_CHAIN = 16


def _sum(parts: list[tuple[str, str]]) -> str:
    """The (sign, operand) parts as one sum, no chain longer than _CHAIN."""
    while len(parts) > _CHAIN:
        parts = [("+", f"({_sum(parts[i:i + _CHAIN])})") for i in range(0, len(parts), _CHAIN)]
    return " ".join(f"{sign} {operand}" for sign, operand in parts).removeprefix("+ ")


def _parts(terms, names: list[str], top: bool = True) -> list[tuple[str, str]]:
    """The (monomial, numerator) terms as (sign, operand) parts of a sum:
    the terms with the same least variable share one product by it, and so
    on inwards, so a monomial of degree d costs at most d products.  At the
    top, a shared product is skipped when its variable is 0, as it is in
    the sparse rows of `center`.  Numerators are written in hex, which no
    int-to-str digit limit bounds."""
    parts, groups = [], {}
    for m, c in terms:
        if m:
            groups.setdefault(m[0], []).append((m[1:], c))
        else:
            parts.append(("-" if c < 0 else "+", hex(abs(c))))
    for a, rest in groups.items():
        if len(rest) == 1:
            ((m, c),) = rest
            factors = [names[b] for b in (a, *m)]
            if abs(c) != 1:
                factors.append(hex(abs(c)))
            parts.append(("-" if c < 0 else "+", "*".join(factors)))
            continue
        inner = _parts(rest, names, False)
        if len(inner) > 1:
            sign, operand = "+", f"{names[a]}*({_sum(inner)})"
        else:
            ((sign, operand),) = inner
            operand = f"{names[a]}*{operand}"
        parts.append((sign, f"({names[a]} and {operand})" if top else operand))
    return parts


def _function(head: str, args: str, polys: list[_Poly]) -> str:
    """The source of `def head`, whose coordinate l is u_l + v_l for the
    arguments u, v (-u_l for the one argument u) plus polys[l] over its
    denominator."""
    n = len(polys)
    names = [f"{arg}{i}" for arg in args for i in range(n)]
    sign = "+" if len(args) == 2 else "-"
    items = []
    for l, p in enumerate(polys):
        parts = [(sign, names[i]) for i in range(l, len(names), n)]
        if p.den == 1:
            parts += _parts(p.terms.items(), names)
        else:
            parts.append(("+", f"({_sum(_parts(p.terms.items(), names))}) // {hex(p.den)}"))
        items.append(_sum(parts))
    lines = [f"def {head}:"]
    lines += [f"    {', '.join(names[j * n:(j + 1) * n])}, = {arg}" for j, arg in enumerate(args)]
    lines.append(f"    return ({', '.join(items)},)")
    return "\n".join(lines) + "\n"


class _Table:
    """`mul` and `inv` of a presentation on n generators, compiled from the
    polynomials f_l of products, in the variables u_0..u_(n-1),
    v_0..v_(n-1) of x = u + v, and g_l of inverses, (u^-1)_l = -u_l + g_l.
    Each coordinate is a sum over the whole numerator, divided once by its
    denominator.  The source holds only integer literals and the names of
    the variables, and runs in a namespace whose `__builtins__` is empty."""

    __slots__ = ("n", "mul", "inv")

    def __init__(self, n: int, products: list[_Poly], inverses: list[_Poly]):
        source = _function("mul(u, v)", "uv", products) + _function("inv(u)", "u", inverses)
        namespace = {"__builtins__": {}}
        exec(compile(source, "<multiplication table>", "exec", dont_inherit=True), namespace)
        self.n, self.mul, self.inv = n, namespace["mul"], namespace["inv"]

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
    return _Table(n, [p - a - b for p, a, b in zip(products, u, v)], [p + a for p, a in zip(inverses, u)])
