"""The exported names of the package, pinned so that any change to the
public API shows up in a diff of this file, and the messages with which
those names refuse malformed input."""

import itertools

import pytest

import rfrskit
from rfrskit.pcgroups import MAX_GENERATORS

PUBLIC_API = [
    "AbelianGroupStructure",
    "AbelianQuotient",
    "CenterAbReport",
    "Element",
    "Filtration",
    "Graph",
    "INFINITE",
    "IntMatrix",
    "MatrixOrderReport",
    "ObstructionCertificate",
    "PcPresentation",
    "RaagWord",
    "ResourceLimitExceeded",
    "RfrsReport",
    "RfrsStep",
    "RtfnWitnessReport",
    "SmithDecomposition",
    "Subgroup",
    "TruncatedSeries",
    "abelian_group_from_relations",
    "abelianization",
    "build_standard",
    "center",
    "center_ab_report",
    "chain_from_text",
    "chain_to_text",
    "det",
    "direct_product",
    "enumerate_normal_subgroups",
    "express_in_basis",
    "finite_order_semisimple_check",
    "free_abelian",
    "graph_from_text",
    "graph_to_text",
    "heisenberg",
    "hirsch_rank",
    "hnf",
    "hnf_basis",
    "induced_presentation",
    "is_unimodular",
    "is_unipotent",
    "lattice_index",
    "lattice_member",
    "left_kernel",
    "lower_central_series",
    "magnus_image",
    "normal_form",
    "obstruction_certificate",
    "presentation_from_text",
    "presentation_to_text",
    "rational_kernel",
    "restrict_chain",
    "rtfn_witness",
    "saturate",
    "snf",
    "subgroup_closure",
    "trapped_central_witness",
    "unitriangular",
    "verify_rfrs_chain",
    "word_from_tokens",
    "xgcd",
]


def test_all_is_pinned():
    assert len(set(rfrskit.__all__)) == len(rfrskit.__all__)
    assert sorted(rfrskit.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    for name in rfrskit.__all__:
        assert getattr(rfrskit, name) is not None, name


H = rfrskit.heisenberg()
PATH3 = rfrskit.graph_from_text("3\n0 1\n1 2\n")
ROW = rfrskit.IntMatrix.from_rows([[1, 2]])
UT4 = rfrskit.unitriangular(4)
# the least n for which ut(n) has more than MAX_GENERATORS generators
UT_OVER = next(n for n in itertools.count(2) if n * (n - 1) // 2 > MAX_GENERATORS)

# Each refusal of malformed input that no other test reaches: a thunk, and
# the start of the ValueError message it must raise.
REFUSALS = {
    "filtration-empty": (
        lambda: rfrskit.Filtration(H, ()), "a filtration needs at least the whole group"),
    "filtration-other-ambient": (
        lambda: rfrskit.Filtration(H, (rfrskit.Subgroup.whole_group(H),
                                       rfrskit.Subgroup.whole_group(rfrskit.free_abelian(3)))),
        "chain term lives in a different ambient group"),
    "filtration-repeated-term": (
        lambda: rfrskit.Filtration(H, (rfrskit.Subgroup.whole_group(H),) * 2),
        "chain repeats a term at step 1"),
    "restrict-to-trivial": (
        lambda: rfrskit.restrict_chain(
            rfrskit.Filtration(H, (rfrskit.Subgroup.whole_group(H),)), rfrskit.Subgroup.trivial(H)),
        "cannot restrict to the trivial subgroup"),
    "census-index-0": (
        lambda: rfrskit.enumerate_normal_subgroups(H, 0), "max_index must be positive"),
    "certificate-index-0": (
        lambda: rfrskit.obstruction_certificate(H, 0), "max_index must be positive"),
    "magnus-degree-0": (
        lambda: rfrskit.magnus_image(PATH3, rfrskit.word_from_tokens(PATH3, "a"), 0),
        "degree bound must be at least 1"),
    "rtfn-len-0": (lambda: rfrskit.rtfn_witness(PATH3, 0), "max_len must be at least 1"),
    "graph-reversed-edge": (
        lambda: rfrskit.Graph(2, frozenset({(1, 0)})), "edge (1, 0) out of range"),
    "word-negative-vertex": (
        lambda: rfrskit.RaagWord.build([(-1, 1)]), "word vertex -1 is negative"),
    "nf-vertex-out-of-range": (
        lambda: rfrskit.normal_form(PATH3, rfrskit.RaagWord.build([(0, 1), (3, 2)])),
        "word vertex 3 out of range for a graph on 3 vertices"),
    "magnus-vertex-out-of-range": (
        lambda: rfrskit.magnus_image(PATH3, rfrskit.RaagWord.build([(0, 1), (3, 2)]), 2),
        "word vertex 3 out of range for a graph on 3 vertices"),
    # the first vertex out of range in word order, not the largest
    "nf-first-bad-vertex": (
        lambda: rfrskit.normal_form(PATH3, rfrskit.RaagWord.build([(3, 1), (5, 1)])),
        "word vertex 3 out of range for a graph on 3 vertices"),
    "magnus-first-bad-vertex": (
        lambda: rfrskit.magnus_image(PATH3, rfrskit.RaagWord.build([(3, 1), (5, 1)]), 2),
        "word vertex 3 out of range for a graph on 3 vertices"),
    "builder-bad-argument": (
        lambda: rfrskit.build_standard("ut(x)"), "bad argument in builder name 'ut(x)'"),
    "builder-one-factor": (
        lambda: rfrskit.build_standard("direct_product(heisenberg)"),
        "direct_product needs two arguments: 'direct_product(heisenberg)'"),
    # a long builder name is echoed clipped, with its length
    "builder-unknown-long": (
        lambda: rfrskit.build_standard("x" * 5000),
        "unknown group builder '" + "x" * 32 + "'... (5000 characters)"),
    "builder-bad-argument-long": (
        lambda: rfrskit.build_standard("ut(" + "x" * 5000 + ")"),
        "bad argument in builder name 'ut(" + "x" * 29 + "'... (5004 characters)"),
    "builder-one-factor-long": (
        lambda: rfrskit.build_standard("direct_product(" + "x" * 5000 + ")"),
        "direct_product needs two arguments: 'direct_product(" + "x" * 17 + "'... (5016 characters)"),
    # the builder recurses once per level, and 1000 levels pass the recursion limit
    "builder-nested-1000": (
        lambda: rfrskit.build_standard("direct_product(" * 1000 + "heisenberg" + ",heisenberg)" * 1000),
        "builder name has more than 100 parenthesised calls"),
    "free-abelian-0": (lambda: rfrskit.free_abelian(0), "free abelian rank must be positive"),
    "unitriangular-1": (
        lambda: rfrskit.unitriangular(1), "unitriangular groups need size at least 2"),
    "generator-out-of-range": (lambda: H.generator(3), "generator index 3 out of range"),
    "collect-out-of-range": (lambda: H.collect([(3, 1)]), "generator index 3 out of range"),
    "commutator-rule-diagonal": (
        lambda: H.commutator_rule(1, 1), "commutator table is indexed by distinct generators"),
    "presentation-short-rule": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): (0, 0)}),
        "rule vectors must have one entry per generator"),
    "presentation-reversed-pair": (
        lambda: rfrskit.PcPresentation(3, {(1, 0): (0, 0, 1)}), "bad generator pair (1, 0)"),
    # the generator count is checked before any per-generator work
    "presentation-over-bound": (
        lambda: rfrskit.PcPresentation(MAX_GENERATORS + 1),
        f"generator count {MAX_GENERATORS + 1} is above the bound of {MAX_GENERATORS}"),
    "free-abelian-over-bound": (
        lambda: rfrskit.free_abelian(MAX_GENERATORS + 1),
        f"generator count {MAX_GENERATORS + 1} is above the bound of {MAX_GENERATORS}"),
    "unitriangular-over-bound": (
        lambda: rfrskit.unitriangular(UT_OVER),
        f"generator count {UT_OVER * (UT_OVER - 1) // 2} is above the bound of {MAX_GENERATORS}"),
    # the first rule value, in sorted pair order, on a non-central generator
    "closure-class3": (
        lambda: rfrskit.subgroup_closure(UT4, [UT4.generator(0)]),
        "subgroup closure supports nilpotency class <= 2 only, with commutator values on central "
        "generators; [g1, g0] has a value on the non-central generator g3"),
    "det-not-square": (lambda: rfrskit.det(ROW), "determinant requires a square matrix"),
    "order-not-square": (
        lambda: rfrskit.finite_order_semisimple_check(ROW), "order check requires a square matrix"),
    "ragged-rows": (lambda: rfrskit.IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "matmul-mismatch": (lambda: ROW @ ROW, "dimension mismatch in matrix product"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_malformed_input_is_refused_with_a_message(case):
    thunk, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        thunk()
    assert str(info.value).startswith(message)


def test_class2_refusal_computes_no_class():
    """The class-2 refusal reads the rules alone: it builds no collector and
    computes no class."""
    with pytest.raises(ValueError):
        REFUSALS["closure-class3"][0]()
    assert "_collector" not in vars(UT4) and "nilpotency_class" not in vars(UT4)
