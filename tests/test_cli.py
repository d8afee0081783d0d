import argparse
import collections
import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfrskit import cli, intlinalg, subgroups
from rfrskit.cli import RunConfig, _dumps, _load_subgroup, build_parser, main, run
from rfrskit.pcgroups import (
    MAX_GENERATORS,
    PcPresentation,
    direct_product,
    free_abelian,
    heisenberg,
    presentation_from_text,
    presentation_to_text,
    unitriangular,
)
from rfrskit.raags import Graph, graph_from_text, graph_to_text, magnus_image, normal_form, word_from_tokens
from rfrskit.subgroups import Subgroup, chain_from_text, chain_to_text, enumerate_normal_subgroups, subgroup_closure
from tables import dense_rules, table

PY = [sys.executable, "-m", "rfrskit"]


def invoke(args, cwd=None):
    proc = subprocess.run(PY + args, capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def bad_chain(tmp_path):
    path = tmp_path / "bad_chain.txt"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 2\n")
    return str(path)


@pytest.fixture
def good_chain(tmp_path):
    path = tmp_path / "good_chain.txt"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 1\n")
    return str(path)


@pytest.fixture
def path3_graph(tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("3\n0 1\n1 2\n")
    return str(path)


def test_analyze_heisenberg_exit0():
    code, out, _ = invoke(["analyze", "--group", "heisenberg"])
    assert code == 0
    assert "center rank: 1" in out
    assert "Hirsch rank: 3" in out
    assert "abelianization: Z^2" in out
    assert "injective: False" in out
    assert "witness: [0, 0, 1]" in out


def test_obstruct_heisenberg_exit0():
    code, out, _ = invoke(["rfrs-obstruct", "--group", "heisenberg", "--max-index", "8"])
    assert code == 0
    assert "all_pass: True" in out


def test_verify_bad_chain_exit1(bad_chain):
    code, out, _ = invoke(["rfrs-verify", "--group", "heisenberg", "--chain", bad_chain])
    assert code == 1
    assert "kernel contained False" in out


def test_verify_good_chain_exit0(good_chain):
    code, out, _ = invoke(["rfrs-verify", "--group", "heisenberg", "--chain", good_chain])
    assert code == 0
    assert "trapped central witness: [0, 0, 1]" in out


def test_golden_json_byte_identical(bad_chain):
    """The three documented invocations are deterministic byte for byte."""
    invocations = [
        (["analyze", "--group", "heisenberg", "--json"], 0),
        (["rfrs-obstruct", "--group", "heisenberg", "--max-index", "8", "--json"], 0),
        (["rfrs-verify", "--group", "heisenberg", "--chain", bad_chain, "--json"], 1),
    ]
    for args, expected_code in invocations:
        code1, out1, _ = invoke(args)
        code2, out2, _ = invoke(args)
        assert code1 == code2 == expected_code
        assert out1 == out2
        json.loads(out1)  # valid JSON


def test_json_schema_stable_across_rfrs_commands(bad_chain):
    _, out1, _ = invoke(["rfrs-verify", "--group", "heisenberg", "--chain", bad_chain, "--json"])
    _, out2, _ = invoke(["rfrs-obstruct", "--group", "heisenberg", "--json"])
    r1, r2 = json.loads(out1), json.loads(out2)
    shared = {"command", "group", "overall", "steps", "intersection_rank", "witness", "checked_subgroups"}
    assert shared <= set(r1) and shared <= set(r2)
    for r in (r1, r2):
        for s in r["steps"]:
            assert set(s) == {"index", "normal", "kernel_contained"}


def test_restrict_command(good_chain, tmp_path):
    sub = tmp_path / "sub.txt"
    sub.write_text("2 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = invoke(
        ["rfrs-restrict", "--group", "heisenberg", "--chain", good_chain, "--restrict-to", str(sub)]
    )
    assert code == 0
    assert "overall: True" in out


def test_subgroup_file_rows_span_blank_lines(tmp_path):
    p = heisenberg()
    path = tmp_path / "sub.txt"
    path.write_text("# index 4\n2 0 0\n\n0 2 0\n  \n# centre\n0 0 1\n")
    assert _load_subgroup(p, str(path)) == subgroup_closure(p, [(2, 0, 0), (0, 2, 0), (0, 0, 1)])


SUBGROUP_FILE_GROUPS = {
    "heisenberg": heisenberg(),
    "HxZ": direct_product(heisenberg(), free_abelian(1)),
    "ZxH": direct_product(free_abelian(1), heisenberg()),
    "Q2(P4)": presentation_from_text("7 2\n1 3 : 0 1 0 0\n1 4 : 0 1 0\n2 4 : 0 0 1\n"),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subgroup_file_written_from_a_closure_reads_back(data, tmp_path_factory):
    """A subgroup file holding the Hermite rows of a closure loads, through
    the reader of `--restrict-to`, as that closure."""
    p = SUBGROUP_FILE_GROUPS[data.draw(st.sampled_from(sorted(SUBGROUP_FILE_GROUPS)))]
    elt = st.tuples(*[st.integers(-4, 4)] * p.n).filter(any)
    s = subgroup_closure(p, data.draw(st.lists(elt, min_size=1, max_size=4)))
    path = tmp_path_factory.getbasetemp() / "closure-sub.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in s.basis_elements()))
    assert _load_subgroup(p, str(path)) == s


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raag_nf_output_reads_back_to_the_same_normal_form(data, tmp_path_factory):
    """The normal form `raag-nf` writes is a word, in the tokens that
    `--word` reads, with the normal form of the word it was given; the
    identity is written as 1, which reads back as the empty word."""
    n = data.draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.build(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    letters = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3).filter(bool)), max_size=10))
    tokens = ",".join(f"{'abcdef'[v]}^{e}" for v, e in letters)
    path = tmp_path_factory.getbasetemp() / "nf-graph.txt"
    path.write_text(graph_to_text(g))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["raag-nf", "--graph", str(path), "--word", tokens, "--json"]) == 0
    report = read_report(out.getvalue())
    nf = normal_form(g, word_from_tokens(g, tokens))
    assert normal_form(g, word_from_tokens(g, report["normal_form"])) == nf
    assert report["is_identity"] == (report["normal_form"] == "1") == nf.is_identity_word()


def test_raag_nf_command(path3_graph):
    code, out, _ = invoke(["raag-nf", "--graph", path3_graph, "--word", "b,a"])
    assert code == 0
    assert "normal form: a,b" in out
    code, out, _ = invoke(["raag-nf", "--graph", path3_graph, "--word", "c,a"])
    assert code == 0
    assert "normal form: c,a" in out


@pytest.mark.parametrize("edges,expected", [("", "a^{n},b,a^-{n}"), ("0 1\n", "b")])
def test_raag_nf_command_huge_exponents(tmp_path, edges, expected):
    """Syllables are piled whole, so an exponent of 10^18 costs no more
    than an exponent of 1."""
    n = 10**18
    path = tmp_path / "two.txt"
    path.write_text("2\n" + edges)
    code, out, _ = invoke(["raag-nf", "--graph", str(path), "--word", f"a^{n},b,a^-{n}", "--json"])
    assert code == 0
    assert json.loads(out)["normal_form"] == expected.format(n=n)


def test_raag_magnus_command(path3_graph):
    code, out, _ = invoke(
        ["raag-magnus", "--graph", path3_graph, "--word", "a,c,a^-1,c^-1", "--degree", "2", "--json"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["is_one"] is False
    coeffs = {tuple(t["monomial"]): t["coefficient"] for t in rep["terms"]}
    assert coeffs[(0, 2)] == "1" and coeffs[(2, 0)] == "-1"


def test_series_terms_are_written_as_json_dumps_writes_them(tmp_path, monkeypatch, capsys):
    """raag-magnus on random words over the four 4-vertex graphs at degrees
    1-5: the --json report is json.dumps(report, indent=2) of the report
    with one dict per term, and the human lines read the same terms."""
    graphs = {
        "path": "4\n0 1\n1 2\n2 3\n", "cycle": "4\n0 1\n1 2\n2 3\n0 3\n",
        "star": "4\n0 1\n0 2\n0 3\n", "edgeless": "4\n",
    }
    for name, text in graphs.items():
        (tmp_path / f"{name}.graph").write_text(text)
    monkeypatch.chdir(tmp_path)
    rng = random.Random(33)
    seen_identity = seen_negative = False
    for trial in range(60):
        name = list(graphs)[trial % 4]
        degree = trial % 5 + 1
        word = "a,b,b^-1,a^-1" if trial < 8 else ",".join(
            "abcd"[rng.randrange(4)] + rng.choice(("", "^-1", "^2", "^-3")) for _ in range(rng.randint(1, 12))
        )
        args = ["raag-magnus", "--graph", f"{name}.graph", "--word", word, "--degree", str(degree)]
        g = graph_from_text(graphs[name])
        pairs = magnus_image(g, word_from_tokens(g, word), degree).sorted_terms()
        report = {
            "command": "raag-magnus", "graph": f"{name}.graph", "word": word, "degree": degree,
            "terms": [{"monomial": list(mono), "coefficient": str(coeff)} for mono, coeff in pairs],
            "is_one": pairs == [((), 1)],
        }
        assert main([*args, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n", (name, degree, word)
        assert main(args) == 0
        lines = [f"  {t['coefficient']} * {''.join('abcd'[v] for v in t['monomial']) or '1'}" for t in report["terms"]]
        assert capsys.readouterr().out == "\n".join([f"series at degree {degree}:", *lines]) + "\n"
        seen_identity |= report["is_one"]
        seen_negative |= any(coeff < 0 for _, coeff in pairs)
    assert seen_identity and seen_negative


def _int_of_decimal(text):
    """The int that a decimal string names, read 500 digits at a time, so
    that the interpreter's str-to-int digit limit does not apply."""
    digits = text.removeprefix("-")
    assert digits.isdigit() and (digits == "0" or not digits.startswith("0")), text[:20]
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i : i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_raag_magnus_writes_coefficients_past_the_int_to_str_digit_limit(tmp_path, capsys):
    """a^N and a^-N with N of 1000 nines, at degree 5: the coefficient of
    X_a^k is binom(N, k), or (-1)^k binom(N + k - 1, k), about 5000 digits
    at k = 5, past the interpreter's default limit of 4300.  Both outputs
    write every coefficient exactly, and the process-wide limit is left as
    it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = tmp_path / "two.graph"
    path.write_text("2\n")
    nines = "9" * 1000
    n = int(nines)
    for sign, want in (("", [math.comb(n, k) for k in range(6)]),
                       ("-", [(-1) ** k * math.comb(n + k - 1, k) for k in range(6)])):
        args = ["raag-magnus", "--graph", str(path), "--word", f"a^{sign}{nines}", "--degree", "5"]
        assert main([*args, "--json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert [t["monomial"] for t in terms] == [[0] * k for k in range(6)]
        assert [_int_of_decimal(t["coefficient"]) for t in terms] == want
        assert len(terms[5]["coefficient"]) > 4300
        assert main(args) == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head == "series at degree 5:"
        assert [line.split(" * ") for line in lines] == [
            [f"  {t['coefficient']}", "a" * k or "1"] for k, t in enumerate(terms)
        ]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def read_report(text):
    """A JSON report, its ints read by `_int_of_decimal`, so that they may
    pass the interpreter's str-to-int digit limit."""
    return json.loads(text, parse_int=_int_of_decimal)


# Coprime, so Z/A x Z/B is Z/AB, of 4401 digits.
BIG_A, BIG_B = 10**2200 + 1, 10**2200 + 3
BIG_FACTORS = f"5 2\n1 2 : 0 {BIG_A} 0\n1 3 : 0 {BIG_B}\n"
NINES = "9" * 4300
# 10^4399, of 4400 digits, and 10^4349 + 1, of 4350, past the int-to-str digit limit
HUGE, HUGE_VERTEX = "1" + "0" * 4399, "1" + "0" * 4348 + "1"


def test_reports_write_integers_past_the_int_to_str_digit_limit(tmp_path, capsys):
    """Every report writes its integers exactly at any size, in text and in
    JSON: an invariant factor of 4401 digits, a witness entry of 4401
    digits (V's first Hermite row reduced by a pivot 2 row holding
    10^2200 + 1), a chain index of 4401 digits, and a normal-form exponent
    of 4301 digits.  The process-wide limit is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    k = 10**2200
    files = {
        "factors.txt": BIG_FACTORS,
        "witness.txt": f"6 2\n1 2 : 0 1 {2 * k} 0\n1 3 : 0 2 {k + 1}\n",
        "chain.txt": f"1 0 0\n0 1 0\n0 0 1\n\n{BIG_A} 0 0\n0 {BIG_B} 0\n0 0 1\n",
        "two.txt": "2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in files}

    def report(*argv):
        assert main([*argv, "--json"]) == 0
        json_report = read_report(capsys.readouterr().out)
        assert main(list(argv)) == 0
        return json_report, capsys.readouterr().out.splitlines()

    rep, lines = report("analyze", "--group", path["factors.txt"])
    assert rep["abelianization"] == {"free_rank": 3, "invariant_factors": [BIG_A * BIG_B]}
    head, tail = lines[5].split(" x Z/")
    assert head == "abelianization: Z^3" and _int_of_decimal(tail) == BIG_A * BIG_B
    witness = [0, 0, 0, 1, 0, -k * (k + 1)]
    rep, lines = report("analyze", "--group", path["witness.txt"])
    assert rep["witness"] == witness
    assert read_report(lines[-1].removeprefix("witness: ")) == witness
    rep, lines = report("rfrs-obstruct", "--group", path["witness.txt"], "--max-index", "2")
    assert rep["witness"] == witness
    assert read_report(lines[1].removeprefix("witness: ")) == witness
    rep, lines = report("rfrs-verify", "--group", "heisenberg", "--chain", path["chain.txt"])
    assert rep["steps"] == [{"index": BIG_A * BIG_B, "normal": True, "kernel_contained": True}]
    index, rest = lines[1].removeprefix("step 0: index ").split(", ", 1)
    assert _int_of_decimal(index) == BIG_A * BIG_B and rest == "normal True, kernel contained True"
    rep, lines = report("raag-nf", "--graph", path["two.txt"], "--word", f"a^{NINES},a^{NINES}")
    assert rep["normal_form"] == "a^1" + "9" * 4299 + "8"
    assert lines == ["normal form: " + rep["normal_form"]]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_readers_take_back_integers_past_the_int_to_str_digit_limit(tmp_path, capsys):
    """What a report writes, a reader takes back: the 4301-digit normal form
    of the `nf-digits` case, given again as a word, is its own normal form;
    a presentation file and a chain file with 4301-digit entries load.  The
    process-wide limit is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big, digits = 10**4300 + 1, "1" + "0" * 4299 + "1"
    files = {
        "two.txt": "2\n",
        "big-rule.txt": f"3 2\n1 2 : {digits}\n",
        "big-chain.txt": f"1 0 0\n0 1 0\n0 0 1\n\n{digits} 0 0\n0 1 0\n0 0 1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in files}
    normal_form = "a^1" + "9" * 4299 + "8"
    for word in (normal_form, f"a^{NINES},b,b^-1,a^{NINES}", f"a^-1,a^+1{NINES}"):
        assert main(["raag-nf", "--graph", path["two.txt"], "--word", word, "--json"]) == 0
        assert read_report(capsys.readouterr().out)["normal_form"] == normal_form
    assert main(["analyze", "--group", path["big-rule.txt"], "--json"]) == 0
    rep = read_report(capsys.readouterr().out)
    assert rep["abelianization"] == {"free_rank": 2, "invariant_factors": [big]}
    assert main(["rfrs-verify", "--group", "heisenberg", "--chain", path["big-chain.txt"], "--json"]) == 0
    rep = read_report(capsys.readouterr().out)
    assert rep["steps"] == [{"index": big, "normal": True, "kernel_contained": True}]
    assert main(["raag-nf", "--graph", path["two.txt"], "--word", "v" + "1" * 4301]) == 2
    assert capsys.readouterr().err.startswith("input error: vertex 'v111")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _normal_form_text(text):
    g = graph_from_text(HUGE)
    return str(normal_form(g, word_from_tokens(g, text)))


# a reader's input past the int-to-str digit limit and its writer: a presentation file with a 4400-digit
# exponent, a chain file with a 4400-digit pivot, a graph file with a 4400-digit vertex count, and a word
# on a 4350-digit vertex
WRITER_ROUND_TRIPS = {
    "presentation": (f"3 2\n1 2 : {HUGE}\n", lambda t: presentation_to_text(presentation_from_text(t))),
    "chain": (
        f"1 0 0\n0 1 0\n0 0 1\n\n{HUGE} 0 0\n0 1 0\n0 0 1\n",
        lambda t: chain_to_text(chain_from_text(heisenberg(), t)),
    ),
    "graph": (f"{HUGE}\n0 1\n1 {HUGE_VERTEX}\n", lambda t: graph_to_text(graph_from_text(t))),
    "normal-form": (f"v{HUGE_VERTEX},a^2,v{HUGE_VERTEX}^-1", _normal_form_text),
}


@pytest.mark.parametrize("case", list(WRITER_ROUND_TRIPS))
def test_writers_write_back_integers_past_the_int_to_str_digit_limit(case):
    """Every integer a reader takes, its writer writes back: each text
    survives the round trip unchanged, and the process-wide limit is left
    as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text, round_trip = WRITER_ROUND_TRIPS[case]
    assert round_trip(text) == text
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_vertices_from_26_on_print_as_word_tokens(tmp_path, capsys):
    """raag-magnus names vertex 26 `v26`, as raag-nf does and as words are
    read, not by the character after `z`."""
    path = tmp_path / "edgeless27.txt"
    path.write_text("27\n")
    assert main(["raag-magnus", "--graph", str(path), "--word", "v26,a", "--degree", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "series at degree 2:", "  1 * 1", "  1 * a", "  1 * v26", "  1 * v26a",
    ]
    assert main(["raag-nf", "--graph", str(path), "--word", "v26,a"]) == 0
    assert capsys.readouterr().out.splitlines() == ["normal form: v26,a"]


def test_raag_rtfn_command(path3_graph):
    code, out, _ = invoke(["raag-rtfn", "--graph", path3_graph, "--max-len", "3"])
    assert code == 0
    assert "True" in out


def test_exit2_on_missing_file():
    code, _, err = invoke(["rfrs-verify", "--group", "heisenberg", "--chain", "/nonexistent"])
    assert code == 2
    assert "chain file not found" in err


def test_exit2_on_unknown_group():
    code, _, err = invoke(["analyze", "--group", "quaternion"])
    assert code == 2
    assert "unknown group builder" in err


def test_exit2_on_resource_cap(path3_graph):
    # the path on 3 vertices has 6,377,262 elements of length at most 13
    code, _, err = invoke(["raag-rtfn", "--graph", path3_graph, "--max-len", "13"])
    assert code == 2
    assert "resource cap exceeded" in err
    assert "elements at length 13 of 13" in err


def test_exit2_on_rtfn_graphs_past_the_cap(tmp_path):
    """The cap bounds the work as well as the count: 10^5 vertices are
    refused before their extension masks are built, and on the complete
    graph on 1,000 vertices, where few letters extend, the walk stops at
    the element cap."""
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("100000\n")
    complete = tmp_path / "complete.txt"
    complete.write_text("1000\n" + "".join(f"{i} {j}\n" for i in range(1000) for j in range(i + 1, 1000)))
    for graph, length, message in [
        (edgeless, "1", "on 100000 vertices would read more than 1000000 vertex pairs"),
        (complete, "3", "stopped after 1000000 elements at length 3 of 3"),
    ]:
        code, _, err = invoke(["raag-rtfn", "--graph", str(graph), "--max-len", length])
        assert code == 2
        assert "resource cap exceeded" in err and message in err


def test_exit2_on_abelian_obstruct():
    code, _, err = invoke(["rfrs-obstruct", "--group", "free_abelian(2)"])
    assert code == 2
    assert "nonabelian" in err


@pytest.mark.parametrize("command", ["rfrs-verify", "rfrs-obstruct", "rfrs-restrict"])
def test_exit2_on_class3_rfrs_commands(command, tmp_path):
    """A class-3 group is refused before its chain or subgroup file is
    read, with a message naming the commutator whose value lies on a
    non-central generator, not the file."""
    whole = "\n".join(" ".join("1" if t == k else "0" for t in range(6)) for k in range(6)) + "\n"
    (tmp_path / "chain.txt").write_text(whole)
    (tmp_path / "sub.txt").write_text(whole)
    args = [command, "--group", "ut(4)"]
    if command != "rfrs-obstruct":
        args += ["--chain", str(tmp_path / "chain.txt")]
    if command == "rfrs-restrict":
        args += ["--restrict-to", str(tmp_path / "sub.txt")]
    code, out, err = invoke(args)
    assert code == 2 and not out
    assert err.endswith("[g1, g0] has a value on the non-central generator g3\n")
    assert "bad chain file" not in err


def test_run_config_api(bad_chain):
    cfg = RunConfig(command="rfrs-verify", group="heisenberg", chain=bad_chain)
    assert run(cfg) == 1
    cfg = RunConfig(command="analyze", group="heisenberg")
    assert run(cfg) == 0
    cfg = RunConfig(command="analyze")
    assert run(cfg) == 2


def test_group_from_presentation_file(tmp_path):
    path = tmp_path / "heis.txt"
    path.write_text("3 2\n1 2 : -1\n")
    code, out, _ = invoke(["analyze", "--group", str(path)])
    assert code == 0
    assert "Hirsch rank: 3" in out


# ut(4) rule lines, without the 'n class' header
UT4_RULES = "1 2 : 0 -1 0 0\n1 5 : -1\n2 3 : 0 -1 0\n3 4 : 0 1\n"
# a class-2 table whose generator g4 has weight 3: [g2, g1] = g3 g4^-1,
# [g3, g1] = [g4, g1] = g5, and g3 g4^-1 is central
FOUND30_RULES = "1 2 : 1 -1 0\n1 3 : 0 1\n1 4 : 1\n"


@pytest.mark.parametrize(
    "text,declared,actual",
    [
        ("3 1\n1 2 : -1\n", 1, 2),
        ("3 3\n1 2 : -1\n", 3, 2),
        ("6 5\n" + UT4_RULES, 5, 3),
        ("3 2\n", 2, 1),
        ("0 1\n", 1, 0),
        ("2 0\n", 0, 1),
        ("5 3\n" + FOUND30_RULES, 3, 2),
        ("6 2\n" + UT4_RULES, 2, 3),
    ],
    ids=["heisenberg-class1", "heisenberg-class3", "ut4-class5", "abelian-class2", "trivial-class1",
         "abelian-class0", "found30-class3", "ut4-class2"],
)
def test_exit2_on_wrong_declared_class(text, declared, actual, tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text(text)
    assert run(RunConfig(command="analyze", group=str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: bad presentation file")
    assert f"class {declared}" in err
    if actual is not None:
        assert f"class {actual}" in err


def test_trivial_group_file_has_class_0(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    path.write_text("0 0\n")
    assert run(RunConfig(command="analyze", group=str(path), json_output=True)) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["generators"], report["nilpotency_class"]) == (0, 0)


def test_presentation_file_with_correct_class(tmp_path, capsys):
    path = tmp_path / "ut4.txt"
    path.write_text("6 3\n" + UT4_RULES)
    assert run(RunConfig(command="analyze", group=str(path))) == 0
    out = capsys.readouterr().out
    assert "nilpotency class: 3" in out and "Hirsch rank: 6" in out
    assert presentation_from_text(path.read_text()) == unitriangular(4)


def test_analyze_ut4():
    code, out, _ = invoke(["analyze", "--group", "ut(4)"])
    assert code == 0
    assert "Hirsch rank: 6" in out
    assert "center rank: 1" in out


def test_analyze_computes_the_weights_once(monkeypatch, capsys):
    """`analyze` on ut(6) reads the generator weights in the collector and
    in the centre walk; they are derived once, on the presentation."""
    args = ["analyze", "--group", "ut(6)", "--json"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    weights = PcPresentation.__dict__["_weights"]
    calls = []

    def counted(p):
        calls.append(p)
        return weights.func(p)

    spy = functools.cached_property(counted)
    spy.__set_name__(PcPresentation, "_weights")
    monkeypatch.setattr(PcPresentation, "_weights", spy)
    assert main(args) == 0
    assert capsys.readouterr().out == plain
    assert calls == [unitriangular(6)]


MALFORMED = {
    "subgroup": [
        ("token", "2 0 x\n", "invalid literal"),
        ("row-length", "2 0\n", "exponent vector length"),
        ("zero-row-length", "0 1 0\n0 0\n", "exponent vector length must equal generator count"),
        ("empty", "# no rows\n", "empty subgroup file"),
    ],
    "chain": [
        ("token", "1 0 0\n0 1 0\n0 0 q\n", "invalid literal"),
        ("row-length", "1 0\n", "exponent vector length"),
        (
            "zero-row-length",
            "1 0 0\n0 1 0\n0 0 1\n0 0 0 0\n",
            "exponent vector length must equal generator count",
        ),
        ("empty", "\n", "empty chain file"),
        ("first-block", "2 0 0\n0 1 0\n0 0 1\n", "must generate the whole group"),
    ],
    "presentation": [
        ("empty", "# nothing\n", "empty presentation file"),
        ("header", "3\n", "first line must be 'n class'"),
        ("header-token", "3 z\n", "invalid literal"),
        ("negative-count", "-1 2\n", "generator count must be nonnegative"),
        ("no-colon", "3 2\n1 2 -1\n", "bad rule line"),
        ("pair", "3 2\n1 : -1\n", "bad rule line"),
        ("exponent-token", "3 2\n1 2 : y\n", "invalid literal"),
        ("exponent-count", "3 2\n1 2 : -1 4\n", "needs 1 exponents, got 2"),
        ("pair-below-range", "3 2\n0 1 : 1 0\n", "bad generator pair (0, 1)"),
        ("pair-above-range", "3 2\n1 4 :\n", "bad generator pair (1, 4)"),
        ("pair-order", "3 2\n2 1 : 1\n", "bad generator pair (2, 1)"),
        ("repeated-pair", "3 2\n1 2 : 1\n1 2 : 5\n", "repeated generator pair (1, 2)"),
        (
            "over-bound",
            f"{MAX_GENERATORS + 1} 1\n",
            f"generator count {MAX_GENERATORS + 1} is above the bound of {MAX_GENERATORS}\n",
        ),
        # refusals clip what they echo: an int past the int-to-str digit
        # limit, or a line of 3,000 tokens, to its first 32 characters
        (
            "pair-digits",
            "3 2\n1 " + "9" * 5000 + " : 0\n",
            "bad generator pair (1, " + "9" * 32 + "... (5000 characters))\n",
        ),
        (
            "class-digits",
            "3 " + "9" * 5000 + "\n1 2 : -1\n",
            "declares nilpotency class " + "9" * 32 + "... (5000 characters), but its lower central "
            "series has class 2\n",
        ),
        (
            "rule-line-long",
            "3 2\n" + "1 " * 2999 + "1\n",
            "bad rule line '" + "1 " * 16 + "'... (5999 characters)\n",
        ),
        # the class >= 3 table is built lazily, so the declared-class check
        # is the first to meet the bad rule
        (
            "inconsistent-class4",
            presentation_to_text(unitriangular(5)).replace(
                "2 3 : 0 0 -1 0 0 0 0", "2 3 : -1 0 -1 0 0 0 0"
            ),
            "inconsistent presentation",
        ),
        # an inconsistent 5-generator table with four free generators added
        (
            "inconsistent-9-generators",
            "9 3\n1 2 : 0 1 0 0 0 0 0\n3 4 : 1 0 0 0 0\n",
            "inconsistent presentation",
        ),
    ],
    "graph": [
        ("empty", "\n", "empty graph file"),
        ("count-token", "x\n", "invalid literal"),
        ("negative-count", "-2\n", "vertex count must be nonnegative"),
        ("edge-line", "3\n0 1 2\n", "bad edge line"),
        ("edge-token", "3\n0 b\n", "invalid literal"),
        ("loop", "3\n1 1\n", "loops are not allowed"),
        ("edge-range", "3\n0 5\n", "out of range"),
        (
            "edge-digits",
            "4\n0 " + "9" * 5000 + "\n",
            "edge (0, " + "9" * 32 + "... (5000 characters)) out of range\n",
        ),
        (
            "edge-line-long",
            "3\n" + "1 " * 2999 + "1\n",
            "bad edge line '" + "1 " * 16 + "'... (5999 characters)\n",
        ),
    ],
}


def _config_for(kind, path, good_chain):
    if kind == "subgroup":
        return RunConfig(command="rfrs-restrict", group="heisenberg", chain=good_chain, restrict_to=path)
    if kind == "chain":
        return RunConfig(command="rfrs-verify", group="heisenberg", chain=path)
    if kind == "presentation":
        return RunConfig(command="analyze", group=path)
    return RunConfig(command="raag-nf", graph=path, word="a")


@pytest.mark.parametrize(
    "kind,text,message",
    [(kind, text, msg) for kind, cases in MALFORMED.items() for _, text, msg in cases],
    ids=[f"{kind}-{name}" for kind, cases in MALFORMED.items() for name, _, _ in cases],
)
def test_exit2_on_malformed_file(kind, text, message, good_chain, tmp_path, capsys):
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    assert run(_config_for(kind, str(path), good_chain)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: bad {kind} file")
    assert message in err


@pytest.mark.parametrize("kind", ["subgroup", "chain", "graph"])
def test_exit2_on_missing_input_file(kind, good_chain, capsys):
    assert run(_config_for(kind, "/nonexistent", good_chain)) == 2
    assert f"{kind} file not found" in capsys.readouterr().err


# one command per reader path, with PATH where the input file goes
INPUT_FILE_ARGS = [
    (["analyze", "--group", "PATH"], "presentation"),
    (["raag-nf", "--graph", "PATH", "--word", "a"], "graph"),
    (["rfrs-verify", "--group", "heisenberg", "--chain", "PATH"], "chain"),
]


@pytest.mark.parametrize("args, kind", INPUT_FILE_ARGS)
def test_exit2_on_directory_input(args, kind, tmp_path):
    code, out, err = invoke([str(tmp_path) if a == "PATH" else a for a in args])
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot read {kind} file {tmp_path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("args, kind", INPUT_FILE_ARGS)
def test_exit2_on_non_utf8_input(args, kind, tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff3\n0 1\n")
    code, out, err = invoke([str(path) if a == "PATH" else a for a in args])
    assert code == 2
    assert out == ""
    assert err == f"input error: cannot read {kind} file {path}: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["raag-nf", "raag-magnus"])
@pytest.mark.parametrize("token", ["a^", "a^x", "a^1.5", "a^^2"])
def test_exit2_on_bad_exponent_token(command, token, path3_graph, capsys):
    assert main([command, "--graph", path3_graph, "--word", f"b,{token}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: bad word token '{token}'\n"


def test_exit2_on_magnus_cap(path3_graph):
    code, _, err = invoke(["raag-magnus", "--graph", path3_graph, "--word", "a^-1", "--degree", "1000000"])
    assert code == 2
    assert "resource cap exceeded" in err


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (["rfrs-obstruct", "--group", "heisenberg"], "--max-index", "8"),
        (["raag-magnus", "--graph", "GRAPH", "--word", "a,b,a^-1,b^-1"], "--degree", "3"),
        (["raag-rtfn", "--graph", "GRAPH"], "--max-len", "3"),
    ],
)
def test_left_out_bounds_take_runconfig_defaults(args, flag, value, path3_graph, capsys):
    args = [path3_graph if a == "GRAPH" else a for a in args] + ["--json"]
    outputs = []
    for argv in (args, args + [flag, value]):
        code = main(argv)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].out


GROUP_HELP = "builder name (heisenberg, ut(4), free_abelian(3), direct_product(a,b)) or presentation file"
CHAIN_HELP = "chain file: blocks of generator rows, blank-line separated"
GRAPH_HELP = "graph file: vertex count, then 'u v' edges"
WORD_HELP = "comma-separated tokens: a, a^-1, b^2"
JSON_FLAG = (["--json"], "json_output", False, None, False, "emit a JSON report")

# (help text, [(option_strings, dest, required, type, default, help), ...])
CLI_SHAPE = {
    "analyze": (
        "structural invariants of a nilpotent presentation",
        [(["--group"], "group", True, None, None, GROUP_HELP), JSON_FLAG],
    ),
    "rfrs-verify": (
        "check the chain step conditions on a filtration file",
        [
            (["--group"], "group", True, None, None, GROUP_HELP),
            (["--chain"], "chain", True, None, None, CHAIN_HELP),
            JSON_FLAG,
        ],
    ),
    "rfrs-obstruct": (
        "bounded-index trapped-witness certificate",
        [
            (["--group"], "group", True, None, None, GROUP_HELP),
            (["--max-index"], "max_index", False, int, None, None),
            JSON_FLAG,
        ],
    ),
    "rfrs-restrict": (
        "restrict a chain to a subgroup and re-verify",
        [
            (["--group"], "group", True, None, None, GROUP_HELP),
            (["--chain"], "chain", True, None, None, CHAIN_HELP),
            (["--restrict-to"], "restrict_to", True, None, None, "subgroup file: generator rows"),
            JSON_FLAG,
        ],
    ),
    "raag-nf": (
        "normal form of a graph-group word",
        [
            (["--graph"], "graph", True, None, None, GRAPH_HELP),
            (["--word"], "word", True, None, None, WORD_HELP),
            JSON_FLAG,
        ],
    ),
    "raag-magnus": (
        "truncated series image of a graph-group word",
        [
            (["--graph"], "graph", True, None, None, GRAPH_HELP),
            (["--word"], "word", True, None, None, WORD_HELP),
            (["--degree"], "degree", False, int, None, None),
            JSON_FLAG,
        ],
    ),
    "raag-rtfn": (
        "exhaustive separation check up to a length bound",
        [
            (["--graph"], "graph", True, None, None, GRAPH_HELP),
            (["--max-len"], "max_len", False, int, None, None),
            JSON_FLAG,
        ],
    ),
}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_cli_shape_is_pinned():
    sub = _subcommands()
    assert list(sub.choices) == list(CLI_SHAPE)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help_text) for name, (help_text, _) in CLI_SHAPE.items()
    ]
    for name, (_, flags) in CLI_SHAPE.items():
        shape = [
            (a.option_strings, a.dest, a.required, a.type, a.default, a.help)
            for a in sub.choices[name]._actions
            if a.dest != "help"
        ]
        assert shape == flags, name


@pytest.mark.parametrize("command", list(CLI_SHAPE))
def test_help_exits_0(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: rfrskit {command}")


def test_main_repeats_after_usage_error(bad_chain, capsys):
    """In one process, a usage error between two calls changes nothing."""
    invocations = [
        ["analyze", "--group", "heisenberg", "--json"],
        ["rfrs-obstruct", "--group", "heisenberg", "--max-index", "8", "--json"],
        ["rfrs-verify", "--group", "heisenberg", "--chain", bad_chain, "--json"],
    ]
    for args in invocations:
        first = main(args), capsys.readouterr().out
        assert main(args + ["--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert (main(args), capsys.readouterr().out) == first


def test_closed_standard_output_exits_141_without_a_traceback():
    """A reader that closes the pipe before the report is written (as
    `| head -1` may) ends the run with the status SIGPIPE gives, 141,
    and nothing on standard error; exit 1 would read as a false verdict."""
    proc = subprocess.Popen(PY + ["analyze", "--group", "ut(4)", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


# ------------------------------------------------------------- JSON output

# strings json escapes: control characters, quotes, non-ASCII, astral and lone surrogates
JSON_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f\"\\/", "é \U0001f600", "\ud800"])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300])
    | JSON_STRINGS
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([[], {}, (), [[]], {"": {}}, [(), [{}]]])
@example({"é\x01": ["\n", True, False, None, -(2**100), -0.0, math.inf, -math.inf, math.nan]})
@example(((1, "a"), {"k": (None,)}))
def test_dumps_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.fixture
def json_inputs(tmp_path, monkeypatch):
    """The input files of JSON_INVOCATIONS and OBSTRUCT_DIGESTS, named
    relative to the working directory, since reports echo the names of
    graph and presentation files."""
    (tmp_path / "path3.graph").write_text("3\n0 1\n1 2\n")
    (tmp_path / "good_chain.txt").write_text(
        "1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 1\n"
    )
    (tmp_path / "sub.txt").write_text("2 0 0\n0 1 0\n0 0 1\n")
    (tmp_path / "comm_square.txt").write_text("4 2\n1 3 : 2\n")
    monkeypatch.chdir(tmp_path)


# One fixed --json invocation of each command, with the sha256 of its
# standard output as the json module's indent=2 encoder wrote it.
JSON_INVOCATIONS = {
    "analyze": (
        ["--group", "ut(4)"],
        "05d72a19508dfc70f1cf8574439aca2825c6347d7e2457b5f2d89277de74ee33",
    ),
    "rfrs-verify": (
        ["--group", "heisenberg", "--chain", "good_chain.txt"],
        "6d6bcc67d11d8768110f841e91ce10bee5e44a07e34c0823530a44f64c997c6e",
    ),
    "rfrs-obstruct": (
        ["--group", "heisenberg", "--max-index", "8"],
        "431ab9f1e1ed108675c555f0f291ad8fe885c56bd9c2008a5d7cd3a9bfa9ad7d",
    ),
    "rfrs-restrict": (
        ["--group", "heisenberg", "--chain", "good_chain.txt", "--restrict-to", "sub.txt"],
        "9ed3a5dfc89f93d1edbeef70bbf2458f297bb826d1b50b2afbcb1ea0c5acb559",
    ),
    "raag-nf": (
        ["--graph", "path3.graph", "--word", "b,a,c^-2,a^3,b^-1,a^-3"],
        "0f354464579e9ec7c6e2e674dae17fa91373d98f3c55b408e91e2004030667a9",
    ),
    "raag-magnus": (
        ["--graph", "path3.graph", "--word", "a,c,a^-1,c^-1,b^-2", "--degree", "4"],
        "69ace7f3caf012cd66dfb49848214e483bcb84d24753715362675eb7b55ae7c4",
    ),
    "raag-rtfn": (
        ["--graph", "path3.graph", "--max-len", "3"],
        "1c5824f93e7d523a97de5e792635ad661c8590d347bfac5a6e2fdfbd9b248a22",
    ),
}


@pytest.mark.parametrize("command", list(JSON_INVOCATIONS))
def test_json_stdout_is_pinned(command, json_inputs, capsys):
    args, digest = JSON_INVOCATIONS[command]
    assert main([command, *args, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# rfrs-obstruct --json on a group whose central witness comes first and on
# one whose commutator is a square, with the sha256 of the standard output
# recorded while the certificate kept a per-subgroup record of each step.
OBSTRUCT_DIGESTS = {
    "ZxH": (
        ["--group", "direct_product(free_abelian(1),heisenberg)", "--max-index", "6"],
        "1fe12cd8cbd20f5ecd0ebc2164236a254c4ba07b41ca90cf0afe634c92b1a588",
    ),
    "comm-square": (
        ["--group", "comm_square.txt", "--max-index", "8"],
        "17ca6622d4fb0a58434a5909ab261cfa00ef02e80d2e0d27347e32709266c799",
    ),
}


@pytest.mark.parametrize("case", list(OBSTRUCT_DIGESTS))
def test_obstruct_json_stdout_is_pinned(case, json_inputs, capsys):
    args, digest = OBSTRUCT_DIGESTS[case]
    assert main(["rfrs-obstruct", *args, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The sha256 of the human-readable standard output of each invocation in
# JSON_INVOCATIONS (without --json), recorded while every command still
# built its lines before choosing the output mode.
HUMAN_DIGESTS = {
    "analyze": "0242ec6cf6336b033dfab0828d1a489e73b27cf3b1bb9fe6783848c829b1e8fc",
    "rfrs-verify": "2063eba74de5648de35245e45e8b6e56a339783858334b4215b22d9d8d718be1",
    "rfrs-obstruct": "af0fd8a52711a7655c8392938b6e577166b0bb89430afcd3c0e33b522046b1be",
    "rfrs-restrict": "e57863317ab39049f4bda908cc7909eade69dc94b575f279f6a32ca5c4789097",
    "raag-nf": "0417095cdda698320a6594951a31b739704419b08035509aefc54b8819d3d63f",
    "raag-magnus": "1934da0cde6b06151165c75a17491017ad3ccc987a341d459e0c7ce4544bb74c",
    "raag-rtfn": "a5f9729e97c82b597fd06ff02ede4e27124e29ca6827946e9a394280c53051c2",
}


@pytest.mark.parametrize("command", list(JSON_INVOCATIONS))
def test_human_lines_are_pinned_and_built_only_when_printed(command, json_inputs, capsys, monkeypatch):
    args, _ = JSON_INVOCATIONS[command]
    built = []
    emit = cli._emit

    def spy(report, human_lines, cfg):
        emit(report, lambda: built.append(cfg.json_output) or human_lines(), cfg)

    monkeypatch.setattr(cli, "_emit", spy)
    assert main([command, *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUMAN_DIGESTS[command]
    assert main([command, *args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == command
    assert built == [False]


@pytest.mark.parametrize(
    "cfg, message",
    [
        (RunConfig(command="nope"), "unknown command: nope"),
        (RunConfig(command="rfrs-obstruct", group="heisenberg", max_index=0),
         "input error: max_index must be positive"),
        (RunConfig(command="raag-magnus", graph="PATH3", word="a,b", degree=0),
         "input error: degree bound must be at least 1"),
        (RunConfig(command="raag-rtfn", graph="PATH3", max_len=0), "input error: max_len must be at least 1"),
    ],
    ids=["unknown-command", "max-index-0", "degree-0", "max-len-0"],
)
def test_exit2_on_unknown_command_or_nonpositive_bound(cfg, message, path3_graph, capsys):
    """Each bound is refused, with a message naming it, by the one library
    function that reads it."""
    if cfg.graph == "PATH3":
        cfg = dataclasses.replace(cfg, graph=path3_graph)
    assert run(cfg) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and not captured.out


def test_abelian_chain_reports_no_witness(tmp_path, capsys):
    """A passing chain in an abelian group has no central witness: the
    report says so, with the bytes recorded while rfrs-verify still asked
    whether the group was abelian before looking for one."""
    (tmp_path / "ab2.txt").write_text("1 0\n0 1\n\n2 0\n0 1\n")
    assert main(["rfrs-verify", "--group", "free_abelian(2)", "--chain", str(tmp_path / "ab2.txt"), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["witness"] is None
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d4102bcdb9e4482d658cc8165836c4a1bbffa277661bfcf6eb682a4491333ec"
    )


# --------------------------------------------------- the CI console script

# A subgroup of index 80 in H x H whose Hermite basis presents it with
# [b1, b0] = b2^-2 b3 b5^-13, off the class-2 scan, and a chain of index 2.
HH_SUB = "2 0 0 1 16 0\n0 1 0 0 5 0\n0 0 1 1 8 0\n0 0 0 2 16 0\n0 0 0 0 20 0\n0 0 0 0 0 1\n"
HH_CHAIN = (
    "1 0 0 0 0 0\n0 1 0 0 0 0\n0 0 1 0 0 0\n0 0 0 1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n\n"
    "1 0 0 0 0 0\n0 2 0 0 0 0\n0 0 1 0 0 0\n0 0 0 1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n"
)


def rules_text(p, declared):
    """p's table in the presentation file format under the header 'n declared',
    written off its rules: `presentation_to_text` would compute the class."""
    return f"{p.n} {declared}\n" + "".join(
        f"{i + 1} {j + 1} : {' '.join(map(str, vec[j + 1 :]))}\n" for (i, j), vec in dense_rules(p).items()
    )


# The input files of CONSOLE_CASES, written to the working directory.
CONSOLE_FILES = {
    "filiform6.txt": "6 5\n1 2 : 1 0 0 0\n1 3 : 1 0 0\n1 4 : 1 0\n1 5 : 1\n",
    "nine.txt": "9 3\n1 2 : 0 1 0 0 0 0 0\n3 4 : 1 0 0 0 0\n",
    "trivial0.txt": "0 0\n",
    "trivial1.txt": "0 1\n",
    "h3.txt": "3 3\n1 2 : -1\n",
    "found30.txt": "5 2\n" + FOUND30_RULES,
    "ut16.txt": rules_text(unitriangular(16), 15),
    "chain4.txt": "1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 1\n\n4 0 0\n0 2 0\n0 0 1\n",
    "even.txt": "1 0 0\n0 1 0\n0 0 1\n\n2 0 0\n0 2 0\n0 0 2\n",
    "zhchain.txt": (
        "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n"
        "2 0 0 0\n0 2 0 0\n0 0 1 0\n0 0 0 1\n\n4 0 0 0\n0 2 0 0\n0 0 2 0\n0 0 0 1\n"
    ),
    "path4.txt": "4\n0 1\n1 2\n2 3\n",
    # index 2 in Z x H, and its heisenberg factor, of infinite index
    "zhsub.txt": "1 0 0 0\n0 2 0 0\n0 0 1 0\n0 0 0 1\n",
    "zhfactor.txt": "0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    "zero3.txt": "0 0 0\n",
    "hhchain.txt": HH_CHAIN,
    "hhsub.txt": HH_SUB,
    "two.txt": "2\n",
    "bigfactors.txt": BIG_FACTORS,
    # an edgeless graph on 44,211 vertices
    "big-graph.txt": "44211\n",
    # numbers int reads that the readers refuse: a '_' separator, a non-ASCII digit
    "separator-rule.txt": "3 2\n1 2 : 1_0\n",
    "arabic-indic-graph.txt": "\u0663\n",
    "separator-chain.txt": "1 0 0\n0 1 0\n0 0 1\n\n1_0 0 0\n0 1 0\n0 0 1\n",
    # an edgeless graph whose vertex count has 4400 digits
    "huge-graph.txt": HUGE + "\n",
}

# The only list of the cases that the "Console script" step of
# .github/workflows/tests.yml runs through the installed executable: argv,
# exit code, and either a check on the JSON report or a text that standard
# error must hold, with standard output empty.  Reports are read by
# `read_report`, which takes ints of any size.
ZH = "direct_product(free_abelian(1),heisenberg)"
NF_BLOCK = "a,b,c^2,d,d^-1,c^-2,b^-1,a^-1"
CONSOLE_CASES = {
    "ut7": (
        ["analyze", "--group", "ut(7)", "--json"], 0,
        lambda r: (r["hirsch_rank"], r["center_rank"], r["nilpotency_class"]) == (21, 1, 6),
    ),
    "ut5ut4": (
        ["analyze", "--group", "direct_product(ut(5),ut(4))", "--json"], 0,
        lambda r: (r["generators"], r["nilpotency_class"], r["center_rank"], r["hirsch_rank"]) == (16, 4, 2, 16),
    ),
    "filiform6": (
        ["analyze", "--group", "filiform6.txt", "--json"], 0,
        lambda r: (r["generators"], r["nilpotency_class"], r["hirsch_rank"], r["center_rank"], r["witness"])
        == (6, 5, 6, 1, [0, 0, 0, 0, 0, 1]),
    ),
    "nine": (["analyze", "--group", "nine.txt"], 2, "inconsistent presentation"),
    "trivial0": (
        ["analyze", "--group", "trivial0.txt", "--json"], 0,
        lambda r: (r["generators"], r["nilpotency_class"]) == (0, 0),
    ),
    "trivial1": (["analyze", "--group", "trivial1.txt"], 2, "declares nilpotency class 1"),
    # the reader refuses the declaration: the table has class 2
    "h3": (["rfrs-obstruct", "--group", "h3.txt"], 2, "declares nilpotency class 3"),
    "found30": (
        ["analyze", "--group", "found30.txt", "--json"], 0,
        lambda r: (r["generators"], r["nilpotency_class"], r["center_rank"], r["witness"])
        == (5, 2, 2, [0, 0, 1, -1, 0]),
    ),
    # class 2, but [g1, g0] = g2 g3^-1 lies on the non-central g2 and g3
    "found30-obstruct": (
        ["rfrs-obstruct", "--group", "found30.txt"], 2,
        "supports nilpotency class <= 2 only, with commutator values on central generators; "
        "[g1, g0] has a value on the non-central generator g2",
    ),
    # refused off the rules, with no class computed, where it once ran for minutes
    "ut32-obstruct": (
        ["rfrs-obstruct", "--group", "ut(32)"], 2,
        "input error: rfrs-obstruct supports nilpotency class <= 2 only, with commutator values on central "
        "generators; [g1, g0] has a value on the non-central generator g31\n",
    ),
    # the same refusal for a file, before its header's class 15 is checked through the collector
    "ut16-file-obstruct": (
        ["rfrs-obstruct", "--group", "ut16.txt"], 2,
        "input error: rfrs-obstruct supports nilpotency class <= 2 only, with commutator values on central "
        "generators; [g1, g0] has a value on the non-central generator g15\n",
    ),
    # the largest builder inside MAX_GENERATORS: 2,016 generators, refused off its rule words
    "ut64-obstruct": (
        ["rfrs-obstruct", "--group", "ut(64)"], 2,
        "input error: rfrs-obstruct supports nilpotency class <= 2 only, with commutator values on central "
        "generators; [g1, g0] has a value on the non-central generator g63\n",
    ),
    "chain4": (
        ["rfrs-verify", "--group", "heisenberg", "--chain", "chain4.txt", "--json"], 0,
        lambda r: (r["overall"], r["witness"], [s["index"] for s in r["steps"]]) == (True, [0, 0, 1], [2, 4, 8]),
    ),
    "even": (
        ["rfrs-verify", "--group", "heisenberg", "--chain", "even.txt", "--json"], 1,
        lambda r: r["witness"] is None,
    ),
    "zh6": (
        ["rfrs-obstruct", "--group", ZH, "--max-index", "6", "--json"], 0,
        lambda r: (r["overall"], r["witness"], r["checked_subgroups"]) == (True, [0, 0, 0, 1], 178),
    ),
    "zhchain": (
        ["rfrs-verify", "--group", ZH, "--chain", "zhchain.txt", "--json"], 0,
        lambda r: (r["overall"], r["witness"], [s["index"] for s in r["steps"]]) == (True, [0, 0, 0, 1], [2, 4, 16]),
    ),
    "hh": (
        ["analyze", "--group", "direct_product(heisenberg,heisenberg)", "--json"], 0,
        lambda r: (r["center_rank"], r["witness"]) == (2, [0, 0, 1, 0, 0, 0]),
    ),
    "magnus": (
        ["raag-magnus", "--graph", "path4.txt", "--word", "a,c,a^-1,c^-1,d^2", "--degree", "4", "--json"], 0,
        lambda r: (len(r["terms"]), r["is_one"]) == (23, False),
    ),
    "rtfn": (
        ["raag-rtfn", "--graph", "path4.txt", "--max-len", "5", "--json"], 0,
        lambda r: (r["elements_checked"], r["separated"], r["degree"]) == (7024, True, 5),
    ),
    # every copy of NF_BLOCK cancels, from its middle out
    "nf-long": (
        ["raag-nf", "--graph", "path4.txt", "--json", "--word", ",".join([
            "d,b", NF_BLOCK, "c,a", NF_BLOCK, "a,a^-1,c^-1", NF_BLOCK, "d^3,b^2,a", NF_BLOCK,
            "c,a^-1,d^-3,b", NF_BLOCK, "a,a",
        ])], 0,
        lambda r: (r["normal_form"], r["is_identity"]) == ("c,d,a,b,c^-1,d^3,a,b^2,c,a^-1,d^-3,a^2,b", False),
    ),
    "nf-bad-token": (["raag-nf", "--graph", "path4.txt", "--word", "a,b,a^x,c"], 2, "bad word token 'a^x'"),
    # a refusal echoes a long token clipped, with its length and the vertex count
    "nf-long-vertex": (
        ["raag-nf", "--graph", "two.txt", "--word", "a,v" + "1" * 4301 + ",b^x"], 2,
        "input error: vertex 'v" + "1" * 31 + "'... (4302 characters; the graph has 2 vertices) "
        "out of range for this graph\n",
    ),
    "zh-restrict": (
        ["rfrs-restrict", "--group", ZH, "--chain", "zhchain.txt", "--restrict-to", "zhsub.txt", "--json"], 0,
        lambda r: (r["overall"], [s["index"] for s in r["steps"]], r["restricted_length"], r["intersection_rank"])
        == (True, [2, 8], 3, 4),
    ),
    "zh-restrict-infinite": (
        ["rfrs-restrict", "--group", ZH, "--chain", "zhchain.txt", "--restrict-to", "zhfactor.txt", "--json"], 0,
        lambda r: (r["overall"], [s["index"] for s in r["steps"]], r["restricted_length"], r["intersection_rank"])
        == (True, [2, 4], 3, 3),
    ),
    "restrict-trivial": (
        ["rfrs-restrict", "--group", "heisenberg", "--chain", "chain4.txt", "--restrict-to", "zero3.txt"], 2,
        "cannot restrict to the trivial subgroup",
    ),
    # the steps of `test_rfrs._restriction_reference`; H's induced table
    # is off the class-2 scan, so `restrict_chain` refuses this input
    "hh-restrict": (
        ["rfrs-restrict", "--group", "direct_product(heisenberg,heisenberg)", "--chain", "hhchain.txt",
         "--restrict-to", "hhsub.txt", "--json"], 0,
        lambda r: (r["overall"], r["steps"], r["restricted_length"], r["intersection_rank"])
        == (True, [{"index": 2, "normal": True, "kernel_contained": True}], 2, 6),
    ),
    # a builder argument is read as the numbers of a file are, and refused in the builder's own words
    "ut-two-minus-signs": (
        ["analyze", "--group", "ut(--3)"], 2, "input error: bad argument in builder name 'ut(--3)'\n",
    ),
    # a number is ASCII with no '_', though int reads these as 10 and 3
    "rule-digit-separator": (
        ["analyze", "--group", "separator-rule.txt"], 2,
        "input error: bad presentation file separator-rule.txt: invalid literal for int() with base 10: '1_0'\n",
    ),
    "graph-arabic-indic-digit": (
        ["raag-nf", "--graph", "arabic-indic-graph.txt", "--word", "a"], 2,
        "input error: bad graph file arabic-indic-graph.txt: invalid literal for int() with base 10: '\u0663'\n",
    ),
    "chain-digit-separator": (
        ["rfrs-verify", "--group", "heisenberg", "--chain", "separator-chain.txt"], 2,
        "input error: bad chain file separator-chain.txt: invalid literal for int() with base 10: '1_0'\n",
    ),
    # too long for a file name: read as a builder name
    "long-group": (["analyze", "--group", "x" * 300], 2, "unknown group builder"),
    # and its refusal echoes the name clipped, with its length
    "long-group-clipped": (
        ["analyze", "--group", "x" * 5000], 2,
        "input error: unknown group builder '" + "x" * 32 + "'... (5000 characters)\n",
    ),
    # the exponents merge into 2 (10^4300 - 1), past the int-to-str digit limit
    "nf-digits": (
        ["raag-nf", "--graph", "two.txt", "--word", f"a^{NINES},a^{NINES}", "--json"], 0,
        lambda r: r["normal_form"] == "a^1" + "9" * 4299 + "8",
    ),
    # a word on 3 of 44,211 vertices costs what it costs on a 3-vertex graph
    "big-graph": (
        ["raag-nf", "--graph", "big-graph.txt", "--word", "a,b,v44210,a^-1", "--json"], 0,
        lambda r: (r["normal_form"], r["is_identity"]) == ("a,b,v44210,a^-1", False),
    ),
    "big-graph-magnus": (
        ["raag-magnus", "--graph", "big-graph.txt", "--word", "a,b,v44210,a^-1", "--degree", "3", "--json"], 0,
        lambda r: (len(r["terms"]), r["terms"][2], r["is_one"])
        == (14, {"monomial": [44210], "coefficient": "1"}, False),
    ),
    # a word on a vertex of 4350 digits, written back whole
    "huge-vertex-nf": (
        ["raag-nf", "--graph", "huge-graph.txt", "--word", f"a,v{HUGE_VERTEX},a", "--json"], 0,
        lambda r: (r["normal_form"], r["is_identity"]) == (f"a,v{HUGE_VERTEX},a", False),
    ),
    "huge-vertex-magnus": (
        ["raag-magnus", "--graph", "huge-graph.txt", "--word", f"a,v{HUGE_VERTEX}", "--degree", "2", "--json"], 0,
        lambda r: [t["monomial"] for t in r["terms"]] == [[], [0], [_int_of_decimal(HUGE_VERTEX)],
                                                         [0, _int_of_decimal(HUGE_VERTEX)]],
    ),
    "big-factors": (
        ["analyze", "--group", "bigfactors.txt", "--json"], 0,
        lambda r: r["abelianization"] == {"free_rank": 3, "invariant_factors": [BIG_A * BIG_B]},
    ),
    # refused before any per-generator work, where it once ran for seconds
    "over-generator-bound": (
        ["analyze", "--group", f"free_abelian({MAX_GENERATORS + 1})"], 2,
        f"input error: generator count {MAX_GENERATORS + 1} is above the bound of {MAX_GENERATORS}\n",
    ),
}


@pytest.mark.parametrize("case", [*CONSOLE_CASES, "python-m"])
def test_console_script_cases(case, tmp_path, monkeypatch, capsys):
    """The CI console-script cases, run in-process through `main`, and one
    case through `python -m rfrskit` in a subprocess."""
    if case == "python-m":
        code, out, err = invoke(["analyze", "--group", "heisenberg", "--json"])
        expected, check = 0, lambda r: (r["generators"], r["center_rank"], r["witness"]) == (3, 1, [0, 0, 1])
    else:
        for name, text in CONSOLE_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        argv, expected, check = CONSOLE_CASES[case]
        code = main(argv)
        out, err = capsys.readouterr()
    assert code == expected
    if isinstance(check, str):
        assert check in err and not out
    else:
        assert check(read_report(out))


def _limit_memory():
    # in the child only: a misplaced bound check dies of MemoryError here
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


def _exit_2_within(argv, seconds) -> str:
    """The standard error of `python -m rfrskit argv`, run in a child
    process with a 512 MB address-space limit, which must exit 2 within
    `seconds` with one line of standard error and nothing on standard output."""
    proc = subprocess.run(PY + argv, capture_output=True, text=True, preexec_fn=_limit_memory, timeout=seconds)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.count("\n") == 1
    return proc.stderr


@pytest.mark.parametrize("argv,count,text", [
    (["analyze", "--group", "free_abelian(100000000)"], 100_000_000, ""),
    (["analyze", "--group", "ut(20000)"], 199_990_000, ""),
    (["analyze", "--group", "PATH"], 100_000_000, "100000000 1\n"),
    # one rule near the top generator: its tail is read as it stands, not padded to n entries
    (["analyze", "--group", "PATH"], 10_000_000_000, "10000000000 2\n1 9999999999 : 1\n"),
], ids=["free-abelian", "ut", "file", "file-with-rule"])
def test_huge_generator_counts_exit_2_at_once(argv, count, text, tmp_path):
    """Counts far past the bound, each of which once hung or raised
    MemoryError, exit 2 with one line within 1 s, in a child process with
    a 512 MB address-space limit."""
    path = tmp_path / "big-header.txt"
    path.write_text(text)
    argv = [str(path) if a == "PATH" else a for a in argv]
    err = _exit_2_within(argv, 1)
    assert err.endswith(f"generator count {count} is above the bound of {MAX_GENERATORS}\n")


@pytest.mark.parametrize("command", ["rfrs-verify", "rfrs-obstruct", "rfrs-restrict"])
def test_class3_refusal_builds_no_collector(command, tmp_path):
    """ut(32), of class 31 on 496 generators, is refused off its rules
    within 5 s, before its chain or subgroup file (here missing) is read;
    computing its class, as the refusal once did, ran for minutes."""
    argv = [command, "--group", "ut(32)"]
    if command != "rfrs-obstruct":
        argv += ["--chain", str(tmp_path / "chain.txt")]
    if command == "rfrs-restrict":
        argv += ["--restrict-to", str(tmp_path / "sub.txt")]
    err = _exit_2_within(argv, 5)
    assert err == (f"input error: {command} supports nilpotency class <= 2 only, with commutator values on "
                   "central generators; [g1, g0] has a value on the non-central generator g31\n")


def test_the_largest_builder_is_refused_within_the_memory_limit():
    """ut(64), on 2,016 generators, is the largest unitriangular group
    inside MAX_GENERATORS.  Its 41,664 rules are words of one (l, e_l) pair
    each, so it is built and refused well within the 512 MB limit."""
    err = _exit_2_within(["rfrs-obstruct", "--group", "ut(64)"], 5)
    assert err == ("input error: rfrs-obstruct supports nilpotency class <= 2 only, with commutator values on "
                   "central generators; [g1, g0] has a value on the non-central generator g63\n")


def test_class3_presentation_file_is_refused_before_its_class(tmp_path):
    """The text of ut(32), whose header declares its class 31, is refused by
    the class-2 scan within 5 s: checking the header first computes the
    class through the collector, which takes minutes."""
    path = tmp_path / "ut32.txt"
    path.write_text(rules_text(unitriangular(32), 31))
    err = _exit_2_within(["rfrs-obstruct", "--group", str(path)], 5)
    assert err == ("input error: rfrs-obstruct supports nilpotency class <= 2 only, with commutator values on "
                   "central generators; [g1, g0] has a value on the non-central generator g31\n")


def test_loading_a_hermite_chain_file_scans_each_block_once(tmp_path, monkeypatch):
    """A chain file whose blocks are closed Hermite bases, as `chain_to_text`
    writes them, loads with no Hermite insertion and at most one echelon
    scan per block: closure, the whole-group test and the descent checks
    read the rows that scan found."""
    census = enumerate_normal_subgroups(heisenberg(), 8)
    rng = random.Random(3)
    chains = [
        ("heisenberg", CONSOLE_FILES["chain4.txt"]),
        (ZH, CONSOLE_FILES["zhchain.txt"]),
        ("direct_product(heisenberg,heisenberg)", HH_CHAIN),
    ]
    for _ in range(20):
        terms = [Subgroup.whole_group(heisenberg())]
        for s in rng.sample(census, 3):
            if terms[-1].intersect(s) != terms[-1]:
                terms.append(terms[-1].intersect(s))
        chains.append(("heisenberg", chain_to_text(terms)))
    calls = collections.Counter()

    def spy(name):
        original = getattr(intlinalg, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(intlinalg, name, counted)

    spy("_hermite_rows")
    spy("_echelon_rows")
    path = tmp_path / "chain.txt"
    for group, text in chains:
        p = cli._load_class2_group(RunConfig(command="rfrs-verify", group=group))
        path.write_text(text)
        calls.clear()
        f = cli._load_chain(p, str(path))
        assert calls["_hermite_rows"] == 0, text
        assert calls["_echelon_rows"] <= len(f.chain), text
        assert chain_to_text(list(f.chain)) == text


def test_a_verify_and_restrict_run_scans_v_at_most_once_per_presentation(tmp_path, monkeypatch, capsys):
    """V, the kernel of G -> G^ab tensor Q, is built once per presentation
    and carries its pivot rows: every rational kernel of a `rfrs-verify`
    and `rfrs-restrict` run reads them, so V is scanned at most once,
    whichever terms meet it."""
    for name, text in CONSOLE_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    loaded, scanned = [], []
    load, scan = cli._load_class2_group, intlinalg._echelon_rows
    monkeypatch.setattr(cli, "_load_class2_group", lambda cfg: loaded.append(load(cfg)) or loaded[-1])
    monkeypatch.setattr(intlinalg, "_echelon_rows", lambda a: scanned.append(a) or scan(a))
    runs = [
        ("heisenberg", "chain4.txt", "even.txt"),
        (ZH, "zhchain.txt", "zhsub.txt"),
        (ZH, "zhchain.txt", "zhfactor.txt"),
        ("direct_product(heisenberg,heisenberg)", "hhchain.txt", "hhsub.txt"),
    ]
    for group, chain, sub in runs:
        loaded.clear()
        scanned.clear()
        assert main(["rfrs-verify", "--group", group, "--chain", chain]) in (0, 1)
        assert main(["rfrs-restrict", "--group", group, "--chain", chain, "--restrict-to", sub]) in (0, 1)
        assert len(loaded) == 2
        for p in loaded:
            v = p._torsion_lattice
            assert sum(a is v for a in scanned) <= 1, (group, chain, sub)
    capsys.readouterr()


def _random_class2_table(rng):
    """A nonabelian class-2 table on four generators: the commutators of the
    first two or three land in the generators after them, which commute
    with everything."""
    top = rng.choice([2, 3])
    while True:
        rules = {
            (i, j): (0,) * top + tuple(rng.randint(-3, 3) for _ in range(4 - top))
            for i in range(top) for j in range(i + 1, top) if rng.random() < 0.8
        }
        p = table(4, rules)
        if p.rules:
            return presentation_to_text(p)


def _listing_route(group, bound):
    """The text and JSON reports that `rfrs-obstruct` wrote while it listed
    the census: one step per subgroup of `enumerate_normal_subgroups`, read
    off its index.  The witness z is V's first Hermite row and `all_pass`
    its membership in V, taken here rather than from the certificate."""
    p = cli._load_class2_group(RunConfig(command="rfrs-obstruct", group=group))
    v = p._torsion_lattice
    z = v.row(0)
    all_pass = intlinalg.lattice_member(v, z)
    subs = enumerate_normal_subgroups(p, bound)
    note = (f"any chain of normal subgroups with indices <= {bound} satisfying the "
            "step conditions keeps the witness in every term; its intersection is nontrivial")
    steps = [{"index": int(s.index()), "normal": True, "kernel_contained": all_pass} for s in subs]
    report = cli._rfrs_schema("rfrs-obstruct", group, all_pass, steps, None, z, len(subs),
                              index_bound=bound, note=note)
    text = "\n".join([
        f"obstruction certificate for {group} at index bound {bound}",
        f"witness: {list(z)}",
        f"normal subgroups checked: {len(subs)}",
        f"all_pass: {all_pass}",
        note,
    ]) + "\n"
    return text, _dumps(report) + "\n"


def test_obstruct_output_is_the_listing_routes_byte_for_byte(json_inputs, monkeypatch, capsys):
    """rfrs-obstruct counts the census and writes each index's step once per
    subgroup; its text and JSON bytes are those of the listing route, at
    every bound up to 12.  With the work cap made small it still exits 2."""
    rng = random.Random(11)
    groups = ["heisenberg", "direct_product(heisenberg,free_abelian(1))",
              "direct_product(free_abelian(1),heisenberg)", "q2p4.txt", "comm_square.txt"]
    with open("q2p4.txt", "w") as f:
        f.write("7 2\n1 3 : 0 1 0 0\n1 4 : 0 1 0\n2 4 : 0 0 1\n")
    for k in range(4):
        with open(f"random-{k}.txt", "w") as f:
            f.write(_random_class2_table(rng))
        groups.append(f"random-{k}.txt")
    for group in groups:
        for bound in range(1, 13):
            argv = ["rfrs-obstruct", "--group", group, "--max-index", str(bound)]
            for args, expected in zip((argv, argv + ["--json"]), _listing_route(group, bound)):
                assert main(args) == 0
                assert capsys.readouterr().out == expected, (args, bound)
    monkeypatch.setattr(subgroups, "CENSUS_WORK_CAP", 50)
    for group in groups:
        assert main(["rfrs-obstruct", "--group", group, "--max-index", "12"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("resource cap exceeded: census work cap of 50 reached at index ") and not out
