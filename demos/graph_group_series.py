"""Graph groups: normal forms and the 1 + X series embedding.

Generators of a graph group commute exactly along edges.  The piling
normal form solves the word problem; sending each generator v to 1 + X_v
in the free partially-commutative power-series algebra and truncating by
degree produces torsion-free nilpotent quotients that separate short
elements.  `magnus_image` multiplies a word's normal form, one syllable
at a time.  `rtfn_witness` enumerates every element up to a length once,
as its normal form v_1^e_1...v_k^e_k, and certifies it by one
coefficient: e_1*...*e_k, never 0, at the monomial X_v_1...X_v_k.
"""

from rfrskit import (
    Graph,
    RaagWord,
    magnus_image,
    normal_form,
    rtfn_witness,
)

path = Graph.path(3)  # a - b - c: a,b commute; b,c commute; a,c do not
free2 = Graph.edgeless(2)  # free group on a, b
k2 = Graph.complete(2)  # Z^2

w = RaagWord.build([(1, 1), (0, 1)])  # b.a
print("on the path graph, b.a normalizes to:", normal_form(path, w))
w = RaagWord.build([(2, 1), (0, 1)])  # c.a
print("c.a stays put (no commutation):      ", normal_form(path, w))

print()
comm = RaagWord.build([(0, 1), (1, 1), (0, -1), (1, -1)])  # a b a^-1 b^-1
print("commutator [a, b] at degree 2:")
s = magnus_image(free2, comm, 2)
print("  free group:   ", {"".join("ab"[v] for v in m): str(c) for m, c in s.sorted_terms()})
s = magnus_image(k2, comm, 4)
print("  commuting pair: is the constant series 1?", s.is_one())

print()
for name, g in [
    ("free group F2", free2),
    ("Z^2", k2),
    ("Z^3", Graph.complete(3)),
    ("path on 3 vertices", Graph.path(3)),
]:
    rep = rtfn_witness(g, max_len=4)
    print(
        f"{name}: {rep.elements_checked} elements of length <= {rep.max_len} "
        f"all separated at degree {rep.degree}: {rep.separated}"
    )
