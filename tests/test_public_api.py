"""The exported names of the package, pinned so that any change to the
public API shows up in a diff of this file."""

import rfrskit

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
