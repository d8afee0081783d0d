import argparse
import json
import subprocess
import sys

import pytest

from rfrskit.cli import RunConfig, _load_subgroup, build_parser, main, run
from rfrskit.pcgroups import heisenberg, presentation_from_text, presentation_to_text, unitriangular
from rfrskit.subgroups import subgroup_closure

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
    code, _, err = invoke(["raag-rtfn", "--graph", path3_graph, "--max-len", "9"])
    assert code == 2
    assert "resource cap exceeded" in err


def test_exit2_on_abelian_obstruct():
    code, _, err = invoke(["rfrs-obstruct", "--group", "free_abelian(2)"])
    assert code == 2
    assert "nonabelian" in err


@pytest.mark.parametrize("command", ["rfrs-verify", "rfrs-obstruct", "rfrs-restrict"])
def test_exit2_on_class3_rfrs_commands(command, tmp_path):
    """A class-3 group is refused before its chain or subgroup file is
    read, with a message naming the group and its class, not the file."""
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
    assert "group ut(4) has class 3" in err
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


@pytest.mark.parametrize(
    "text,declared,actual",
    [("3 1\n1 2 : -1\n", 1, None), ("6 5\n" + UT4_RULES, 5, 3), ("3 2\n", 2, 1)],
    ids=["heisenberg-class1", "ut4-class5", "abelian-class2"],
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
        # 10 generators: past the constructor's consistency check, so the
        # declared-class check is the first to meet the bad rule
        (
            "inconsistent-class4",
            presentation_to_text(unitriangular(5)).replace(
                "2 3 : 0 0 -1 0 0 0 0", "2 3 : -1 0 -1 0 0 0 0"
            ),
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


@pytest.mark.parametrize(
    "args, kind",
    [
        (["analyze", "--group", "DIR"], "presentation"),
        (["raag-nf", "--graph", "DIR", "--word", "a"], "graph"),
        (["rfrs-verify", "--group", "heisenberg", "--chain", "DIR"], "chain"),
    ],
)
def test_exit2_on_directory_input(args, kind, tmp_path):
    code, out, err = invoke([str(tmp_path) if a == "DIR" else a for a in args])
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot read {kind} file {tmp_path}: ")
    assert "Traceback" not in err


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
