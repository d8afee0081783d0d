"""rfrskit: exact certificates for nilpotent groups and graph groups.

Pure-Python, arbitrary-precision toolkit covering integer lattice algebra
(Hermite/Smith normal forms), power-commutator presentations of finitely
generated torsion-free nilpotent groups, their finite-index subgroup
lattices, verification of descending-chain (RFRS) conditions with bounded
obstruction certificates, and graph-group word problems with truncated
power-series embeddings.

All values are immutable and all functions pure, so everything is safe
for concurrent use.

Importing the package loads only `errors`.  Every other exported name is
read off `_EXPORTS`, which names the module that defines it: its first use
imports that module (and the modules it imports) and binds the name here,
so a graph-group computation never loads the nilpotent-group layers.  A
first use from several threads at once is safe: importlib's per-module
locks run each module once, the modules import one another without a
cycle, so no two first uses wait on each other, and every thread binds
the same object.
"""

import importlib

from .errors import ResourceLimitExceeded

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "ResourceLimitExceeded": "errors",
    **dict.fromkeys((
        "INFINITE",
        "AbelianGroupStructure",
        "AbelianQuotient",
        "IntMatrix",
        "MatrixOrderReport",
        "SmithDecomposition",
        "abelian_group_from_relations",
        "det",
        "finite_order_semisimple_check",
        "hnf",
        "hnf_basis",
        "is_unimodular",
        "is_unipotent",
        "lattice_index",
        "lattice_member",
        "left_kernel",
        "saturate",
        "snf",
        "xgcd",
    ), "intlinalg"),
    **dict.fromkeys((
        "Element",
        "PcPresentation",
        "abelianization",
        "build_standard",
        "direct_product",
        "free_abelian",
        "heisenberg",
        "presentation_from_text",
        "presentation_to_text",
        "unitriangular",
    ), "pcgroups"),
    **dict.fromkeys((
        "Graph",
        "RaagWord",
        "RtfnWitnessReport",
        "TruncatedSeries",
        "graph_from_text",
        "graph_to_text",
        "magnus_image",
        "normal_form",
        "rtfn_witness",
        "word_from_tokens",
    ), "raags"),
    **dict.fromkeys((
        "Filtration",
        "ObstructionCertificate",
        "RfrsReport",
        "RfrsStep",
        "obstruction_certificate",
        "restrict_chain",
        "trapped_central_witness",
        "verify_rfrs_chain",
    ), "rfrs"),
    **dict.fromkeys((
        "CenterAbReport",
        "Subgroup",
        "center",
        "center_ab_report",
        "chain_from_text",
        "chain_to_text",
        "enumerate_normal_subgroups",
        "express_in_basis",
        "hirsch_rank",
        "induced_presentation",
        "lower_central_series",
        "rational_kernel",
        "subgroup_closure",
    ), "subgroups"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, or a library module, loaded on first use and bound here."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _EXPORTS.values():
        # `import rfrskit` made every library module an attribute before names were lazy
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
