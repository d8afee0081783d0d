"""The exported names of the package, pinned so that any change to the
public API shows up in a diff of this file, and the messages with which
those names refuse malformed input."""

import importlib
import inspect
import itertools
import json
import subprocess
import sys

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


def test_every_exported_name_is_its_modules_object():
    for name in rfrskit.__all__:
        module = importlib.import_module(f"rfrskit.{rfrskit._EXPORTS[name]}")
        value = getattr(rfrskit, name)
        assert value is getattr(module, name), name
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_exported_name():
    """In a fresh process, where no exported name has been used yet."""
    code = (
        "import json, rfrskit\n"
        "listed = dir(rfrskit)\n"
        "ns = {}\n"
        "exec('from rfrskit import *', ns)\n"
        "print(json.dumps([listed, sorted(k for k in ns if k != '__builtins__')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    listed, bound = json.loads(proc.stdout)
    assert set(rfrskit.__all__) <= set(listed)
    assert bound == sorted(rfrskit.__all__)


def test_first_use_from_many_threads_binds_one_object():
    """In a fresh process, 8 threads on a short switch interval read every
    exported name at once; each name is one object, its module's."""
    code = """if True:
        import importlib, sys, threading
        import rfrskit
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(t):
            barrier.wait()
            seen[t] = [getattr(rfrskit, name) for name in rfrskit.__all__]

        threads = [threading.Thread(target=read, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        for k, name in enumerate(rfrskit.__all__):
            own = getattr(importlib.import_module("rfrskit." + rfrskit._EXPORTS[name]), name)
            assert all(values[k] is own for values in seen), name
        print("ok")
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.stdout == "ok\n", proc.stderr


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'rfrskit' has no attribute 'nope'"):
        rfrskit.nope
    assert not hasattr(rfrskit, "nope")


# The rfrskit modules that each entry loads: a package import, one exported
# name, and each command through `python -m rfrskit`.
_BASE = {"rfrskit", "rfrskit.errors"}
_CLI = _BASE | {"rfrskit.digits", "rfrskit.cli"}
_NILPOTENT = _CLI | {"rfrskit.intlinalg", "rfrskit.pcgroups", "rfrskit.subgroups"}
_RAAGS = _CLI | {"rfrskit.raags"}
# arguments to python, with {dir} the directory of INPUT_FILES, and the modules loaded
LOADED_MODULES = {
    "import rfrskit": (["-c", "import rfrskit"], _BASE),
    "import rfrskit.cli": (["-c", "import rfrskit.cli"], _CLI),
    "rfrskit.hnf": (["-c", "import rfrskit; rfrskit.hnf"], _BASE | {"rfrskit.digits", "rfrskit.intlinalg"}),
    "analyze": (["-m", "rfrskit", "analyze", "--group", "heisenberg"], _NILPOTENT),
    "rfrs-verify": (
        ["-m", "rfrskit", "rfrs-verify", "--group", "heisenberg", "--chain", "{dir}/chain.txt"],
        _NILPOTENT | {"rfrskit.rfrs"},
    ),
    "rfrs-obstruct": (
        ["-m", "rfrskit", "rfrs-obstruct", "--group", "heisenberg", "--max-index", "4"],
        _NILPOTENT | {"rfrskit.rfrs"},
    ),
    "rfrs-restrict": (
        ["-m", "rfrskit", "rfrs-restrict", "--group", "heisenberg", "--chain", "{dir}/chain.txt",
         "--restrict-to", "{dir}/sub.txt"],
        _NILPOTENT | {"rfrskit.rfrs"},
    ),
    "raag-nf": (["-m", "rfrskit", "raag-nf", "--graph", "{dir}/path3.txt", "--word", "a,b,a^-1"], _RAAGS),
    "raag-magnus": (
        ["-m", "rfrskit", "raag-magnus", "--graph", "{dir}/path3.txt", "--word", "a,c", "--degree", "2"], _RAAGS),
    "raag-rtfn": (["-m", "rfrskit", "raag-rtfn", "--graph", "{dir}/path3.txt", "--max-len", "2"], _RAAGS),
}
INPUT_FILES = {
    "chain.txt": "1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 1 0\n0 0 1\n",
    "sub.txt": "1 0 0\n0 2 0\n0 0 1\n",
    "path3.txt": "3\n0 1\n1 2\n",
}


@pytest.mark.parametrize("entry", list(LOADED_MODULES))
def test_each_entry_loads_only_the_layers_it_runs(entry, tmp_path):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    args, expected = LOADED_MODULES[entry]
    # -v writes "import 'name' # loader" for each module loaded, also through importlib
    argv = [sys.executable, "-v", *(a.format(dir=tmp_path) for a in args)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}
    assert {m for m in loaded if m.split(".")[0] == "rfrskit"} == expected


H = rfrskit.heisenberg()
PATH3 = rfrskit.graph_from_text("3\n0 1\n1 2\n")
ROW = rfrskit.IntMatrix.from_rows([[1, 2]])
UT4 = rfrskit.unitriangular(4)
# the least n for which ut(n) has more than MAX_GENERATORS generators
UT_OVER = next(n for n in itertools.count(2) if n * (n - 1) // 2 > MAX_GENERATORS)
# the one refusal of a malformed rule for the pair (0, 1) on three generators
RULE_WORD_0_1 = ("rule for pair (0, 1) must be a word of (l, e_l) pairs with 1 < l < 3, "
                 "l increasing and every e_l != 0")

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
    # an argument is read as `_from_decimal` reads a number: ASCII, no '_', one optional sign
    "builder-two-minus-signs": (
        lambda: rfrskit.build_standard("ut(--3)"), "bad argument in builder name 'ut(--3)'"),
    "builder-superscript-digit": (
        lambda: rfrskit.build_standard("ut(²)"), "bad argument in builder name 'ut(²)'"),
    "builder-arabic-indic-digit": (
        lambda: rfrskit.build_standard("free_abelian(٣)"), "bad argument in builder name 'free_abelian(٣)'"),
    "builder-digit-separator": (
        lambda: rfrskit.build_standard("ut(1_0)"), "bad argument in builder name 'ut(1_0)'"),
    # past the int-to-str digit limit, named by the generator-count bound, not by int()
    "builder-argument-past-digit-limit": (
        lambda: rfrskit.build_standard("ut(" + "9" * 5000 + ")"),
        "generator count 4" + "9" * 31 + f"... (10000 characters) is above the bound of {MAX_GENERATORS}"),
    "word-superscript-digit": (
        lambda: rfrskit.word_from_tokens(PATH3, "a,v²"), "bad word token 'v²'"),
    "word-arabic-indic-digit": (
        lambda: rfrskit.word_from_tokens(PATH3, "v٣"), "bad word token 'v٣'"),
    # an exponent too, though int reads both as 10 and 3
    "word-exponent-digit-separator": (
        lambda: rfrskit.word_from_tokens(PATH3, "a^1_0"), "bad word token 'a^1_0'"),
    "word-exponent-arabic-indic-digit": (
        lambda: rfrskit.word_from_tokens(PATH3, "b,a^٣"), "bad word token 'a^٣'"),
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
    # an element of the wrong length, refused before any work in every class
    "multiply-short-element": (
        lambda: H.multiply((1, 2), (3, 4, 5)), "exponent vector length 2 must equal generator count 3"),
    "inverse-short-element": (
        lambda: UT4.inverse((1, 2)), "exponent vector length 2 must equal generator count 6"),
    "multiply-long-element": (
        lambda: UT4.multiply((1,) * 7, (1,) * 6), "exponent vector length 7 must equal generator count 6"),
    "multiply-short-left-element": (
        lambda: UT4.multiply((1, 2, 3), (1,) * 6), "exponent vector length 3 must equal generator count 6"),
    "power-short-element": (
        lambda: UT4.power((1,) * 5, 2), "exponent vector length 5 must equal generator count 6"),
    "commutator-short-element": (
        lambda: H.commutator((1, 2, 3), (1, 2)), "exponent vector length 2 must equal generator count 3"),
    "commutator-long-element": (
        lambda: UT4.commutator((1,) * 6, (1,) * 8), "exponent vector length 8 must equal generator count 6"),
    "power-float-exponent": (
        lambda: H.power((1, 1, 0), 2.5), "power exponent must be an integer, not float"),
    "power-float-exponent-class3": (
        lambda: UT4.power((1,) * 6, 2.0), "power exponent must be an integer, not float"),
    "commutator-rule-diagonal": (
        lambda: H.commutator_rule(1, 1), "commutator table is indexed by distinct generators"),
    # a rule is a word of (l, e_l) pairs; each malformed one gets the same refusal, naming its pair
    "presentation-short-rule": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((2,),)}), RULE_WORD_0_1),
    "presentation-dense-rule": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): (0, 0, -1)}), RULE_WORD_0_1),
    "presentation-rule-long-pair": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((2, -1, 0),)}), RULE_WORD_0_1),
    "presentation-rule-float-exponent": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((2, -1.0),)}), RULE_WORD_0_1),
    "presentation-rule-text-generator": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): (("2", -1),)}), RULE_WORD_0_1),
    "presentation-rule-at-j": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((1, -1),)}), RULE_WORD_0_1),
    "presentation-rule-at-n": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((3, -1),)}), RULE_WORD_0_1),
    "presentation-rule-decreasing": (
        lambda: rfrskit.PcPresentation(5, {(1, 2): ((4, 1), (3, 1))}),
        "rule for pair (1, 2) must be a word of (l, e_l) pairs with 2 < l < 5, l increasing and every e_l != 0"),
    "presentation-rule-repeated": (
        lambda: rfrskit.PcPresentation(4, {(0, 1): ((2, 1), (2, 1))}),
        "rule for pair (0, 1) must be a word of (l, e_l) pairs with 1 < l < 4, l increasing and every e_l != 0"),
    "presentation-rule-zero-exponent": (
        lambda: rfrskit.PcPresentation(3, {(0, 1): ((2, 0),)}), RULE_WORD_0_1),
    "presentation-reversed-pair": (
        lambda: rfrskit.PcPresentation(3, {(1, 0): (0, 0, 1)}), "bad generator pair (1, 0)"),
    "presentation-float-pair": (
        lambda: rfrskit.PcPresentation(3, {(0.5, 1): ((2, 1),)}), "bad generator pair (0.5, 1)"),
    # a key that is not two generators, read inside the pair check
    "presentation-int-key": (lambda: rfrskit.PcPresentation(3, {5: ()}), "bad generator pair (5)"),
    "presentation-triple-key": (
        lambda: rfrskit.PcPresentation(3, {(0, 1, 2): ((2, 1),)}), "bad generator pair (0, 1, 2)"),
    # a key that unpacks into two generators but is not a tuple: a frozenset's order would pick i
    "presentation-bytes-key": (
        lambda: rfrskit.PcPresentation(3, {b"\x00\x01": ((2, 1),)}), "bad generator pair (b'\\x00\\x01')"),
    "presentation-frozenset-key": (
        lambda: rfrskit.PcPresentation(3, {frozenset({0, 1}): ((2, 1),)}),
        "bad generator pair (frozenset({0, 1}))"),
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


def test_product_refusals_build_nothing():
    """A wrong-length element or a non-integer exponent is refused before
    the collector or the multiplication table is built."""
    p = rfrskit.unitriangular(5)
    for thunk in (lambda: p.multiply((1,) * 9, (1,) * 10), lambda: p.inverse((1,) * 11),
                  lambda: p.power((1,) * 10, 1.5), lambda: p.commutator((1,) * 10, ())):
        with pytest.raises(ValueError):
            thunk()
    assert "_collector" not in vars(p) and "_table" not in vars(p)


def test_class2_refusal_computes_no_class():
    """The class-2 refusal reads the rules alone: it builds no collector and
    computes no class."""
    with pytest.raises(ValueError):
        REFUSALS["closure-class3"][0]()
    assert "_collector" not in vars(UT4) and "nilpotency_class" not in vars(UT4)
