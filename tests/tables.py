"""Presentations written as exponent vectors, for tests.

A presentation's rules are words of (l, e_l) pairs; a test that writes a
table as one exponent vector per rule, or reads it back that way, goes
through these two conversions.
"""

from rfrskit.pcgroups import PcPresentation


def table(n, dense):
    """The presentation on n generators whose rule (i, j) is the exponent vector dense[(i, j)]."""
    return PcPresentation(n, {pair: tuple((l, e) for l, e in enumerate(vec) if e) for pair, vec in dense.items()})


def dense_rules(p):
    """p's rules as exponent vectors, in pair order."""
    return {pair: p.commutator_rule(*pair) for pair in p.rules}
