"""Command-line front end.

One table, `_COMMANDS`, declares each command once: its handler, help
text, required inputs and optional integer bound.  The argparse parser
(built once per process) and `run`'s check for required inputs both come
from that table, and every input file goes through one reader.

Exit codes: 0 when the computation completed with an overall pass/true
result, 1 when it completed with a fail/false result, 2 on input errors
(any ValueError, which `run` alone reports) or exceeded resource caps,
and 141, the status of a process that SIGPIPE ends, when standard output
is closed before the report is written.  Each refusal is the library's:
a bound below 1 by the function that reads it, an RFRS group off the
class-2 scan by `_require_class2`, which names the offending commutator
(for a presentation file, before its header's class is read), and a
presentation header of the wrong class by `presentation_from_text`.
Reports print human-readable by default and as JSON with --json; the
RFRS-family commands share one JSON field set so scripts can parse them
uniformly.  Each command hands `_emit` a function that builds its
human-readable lines, so a --json run never builds them.  JSON reports
are written by `_dumps`, a direct recursive emitter whose output equals
json.dumps(report, indent=2) byte for byte (the json module's indented
encoder runs in pure Python, and took about a third of the time of a
graph-group series report).  Two values `_dumps` does not walk, since
the report holds a callable that writes them.  A series report's terms
are `_series_terms` of the sorted (monomial, coefficient) pairs, which
writes each term with one format and each vertex's digits once; the
human-readable lines read the same pairs.  `rfrs-obstruct` prints the
certificate `obstruction_certificate` returns, whose steps, one per
normal subgroup within the bound, are `_obstruct_steps` of its counts
a_k of normal subgroups of each index k: the step of index k is written
once and repeated a_k times, so a text run builds no steps at all.

Each loader and handler imports the library layers it calls when it runs,
so that a process loads only what its command uses.  Importing this module
loads `errors` and `digits` (for `_decimal`); the `raag-*` commands add
`raags`, `analyze` adds `intlinalg`, `pcgroups` and `subgroups`, and the
`rfrs-*` commands add those three and `rfrs`.  The import reads the
layer's module attributes at each call, so a wrapper bound there is the
function called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .digits import _decimal
from .errors import ResourceLimitExceeded

if TYPE_CHECKING:
    from .pcgroups import PcPresentation
    from .rfrs import Filtration
    from .subgroups import Subgroup


@dataclass
class RunConfig:
    command: str
    group: str | None = None
    chain: str | None = None
    graph: str | None = None
    restrict_to: str | None = None
    word: str | None = None
    max_index: int = 8
    degree: int = 3
    max_len: int = 3
    json_output: bool = False


class _Refused(ValueError):
    """A command's refusal of the group a file holds, reported as raised
    rather than as a bad file: the file itself is well formed."""


def _read_input(spec: str, kind: str, parse):
    """parse applied to the text of file spec.  A missing or unreadable
    file, or a ValueError from parse other than a `_Refused`, becomes a
    ValueError naming the kind of file."""
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ValueError(f"{kind} file not found: {spec}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {spec}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ValueError(f"cannot read {kind} file {spec}: not UTF-8 text") from None
    try:
        return parse(text)
    except _Refused:
        raise
    except ValueError as exc:
        raise ValueError(f"bad {kind} file {spec}: {exc}") from exc


def _load_group(spec: str, admit=None) -> PcPresentation:
    """A presentation file if spec names one, else a builder name.  admit,
    if given, runs on the table and may refuse it; on a file it runs before
    the header's class is checked (`presentation_from_text`)."""
    from .pcgroups import build_standard, presentation_from_text

    # os.path.exists is False, where Path.exists raises, on a name too long for a file
    if os.path.exists(spec):
        return _read_input(spec, "presentation", functools.partial(presentation_from_text, admit=admit))
    p = build_standard(spec)
    if admit is not None:
        admit(p)
    return p


def _load_class2_group(cfg: RunConfig) -> PcPresentation:
    """An RFRS command's group, refused by `_require_class2` before other input is read."""
    from .subgroups import _require_class2

    def admit(p: PcPresentation) -> None:
        try:
            _require_class2(p, cfg.command)
        except ValueError as exc:
            raise _Refused(str(exc)) from None

    return _load_group(cfg.group, admit)


def _load_chain(p: PcPresentation, spec: str) -> Filtration:
    from .rfrs import Filtration
    from .subgroups import chain_from_text

    return _read_input(spec, "chain", lambda text: Filtration.from_subgroups(p, chain_from_text(p, text)))


def _load_subgroup(p: PcPresentation, spec: str) -> Subgroup:
    from .subgroups import _row_blocks, subgroup_closure

    def parse(text: str) -> Subgroup:
        rows = [row for block in _row_blocks(text) for row in block]
        if not rows:
            raise ValueError("empty subgroup file")
        return subgroup_closure(p, rows)

    return _read_input(spec, "subgroup", parse)


def _dumps(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2), byte for byte, for dicts with string keys,
    lists, tuples and JSON scalars; `indent` is the newline and indentation
    that precede x's closing bracket.  Exact ints take `_decimal`, which
    writes what json's encoder does and is not stopped by the int-to-str
    digit limit; true, false and null are written here; a callable writes
    its own value, as x(indent); other non-string scalars go to json.dumps."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return _decimal(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in x]) + indent + "]"
    if callable(x):
        return x(indent)
    return json.dumps(x)


def _int_list(v) -> str:
    """str(list(v)) for a vector v of ints of any size."""
    return "[" + ", ".join(map(_decimal, v)) + "]"


def _series_terms(pairs: list[tuple[tuple[int, ...], int]], digits: Callable[[int], str], indent: str) -> str:
    """`_dumps` of the list of {"monomial": list(mono), "coefficient":
    _decimal(coeff)} objects of a series' (mono, coeff) pairs, never empty,
    one format per term; `digits` gives each vertex's `_decimal`, once per report."""
    item, field, entry = indent + "  ", indent + "    ", indent + "      "
    head = "{" + field + '"monomial": '
    sep = "," + entry
    mid = "," + field + '"coefficient": "'
    tail = '"' + item + "}"
    terms = [
        f"{head}[{entry}{sep.join(map(digits, mono))}{field}]{mid}{_decimal(coeff)}{tail}" if mono
        else f"{head}[]{mid}{_decimal(coeff)}{tail}"
        for mono, coeff in pairs
    ]
    return "[" + item + ("," + item).join(terms) + indent + "]"


def _emit(report: dict, human_lines: Callable[[], list[str]], cfg: RunConfig) -> None:
    """Print the report as JSON under --json, else the lines that
    `human_lines` builds; a JSON run never builds them."""
    if cfg.json_output:
        print(_dumps(report))
    else:
        for line in human_lines():
            print(line)


def _rfrs_schema(command: str, group: str, overall: bool, steps, intersection_rank,
                 witness, checked_subgroups: int, **extra) -> dict:
    report = {
        "command": command,
        "group": group,
        "overall": overall,
        "steps": steps,
        "intersection_rank": intersection_rank,
        "witness": list(witness) if witness is not None else None,
        "checked_subgroups": checked_subgroups,
    }
    report.update(extra)
    return report


def _chain_schema(command: str, group: str, steps, intersection_rank: int, witness, **extra) -> dict:
    """`_rfrs_schema` of checked chain steps (`rfrs.RfrsStep`)."""
    rows = [
        {"index": s.index, "normal": s.normal_in_g, "kernel_contained": s.kernel_contained}
        for s in steps
    ]
    overall = all(s.passed for s in steps)
    return _rfrs_schema(command, group, overall, rows, intersection_rank, witness, 0, **extra)


def _cmd_analyze(cfg: RunConfig) -> int:
    from .pcgroups import abelianization
    from .subgroups import center_ab_report, hirsch_rank

    p = _load_group(cfg.group)
    quot = abelianization(p)
    rep = center_ab_report(p)
    report = {
        "command": "analyze",
        "group": cfg.group,
        "generators": p.n,
        "nilpotency_class": p.nilpotency_class,
        "hirsch_rank": hirsch_rank(p),
        "center_rank": rep.center_rank,
        "abelianization": {
            "free_rank": quot.structure.free_rank,
            "invariant_factors": list(quot.structure.invariant_factors),
        },
        "center_to_abelianization_injective": rep.injective,
        "witness": list(rep.kernel_witness) if rep.kernel_witness else None,
    }
    _emit(report, lambda: [
        f"group: {cfg.group}",
        f"generators: {p.n}",
        f"nilpotency class: {p.nilpotency_class}",
        f"Hirsch rank: {report['hirsch_rank']}",
        f"center rank: {rep.center_rank}",
        f"abelianization: {quot.structure.describe()}",
        f"center-to-abelianization injective: {rep.injective}",
        f"witness: {_int_list(rep.kernel_witness) if rep.kernel_witness else None}",
    ], cfg)
    return 0


def _cmd_rfrs_verify(cfg: RunConfig) -> int:
    from .rfrs import trapped_central_witness, verify_rfrs_chain

    p = _load_class2_group(cfg)
    f = _load_chain(p, cfg.chain)
    rep = verify_rfrs_chain(f)
    witness = trapped_central_witness(rep) if rep.overall else None
    report = _chain_schema("rfrs-verify", cfg.group, rep.steps, rep.intersection.rank(), witness)
    def lines() -> list[str]:
        out = [f"chain of length {len(f.chain)} on {cfg.group}"]
        for k, s in enumerate(rep.steps):
            out.append(
                f"step {k}: index {_decimal(s.index)}, normal {s.normal_in_g}, "
                f"kernel contained {s.kernel_contained}"
            )
        out.append(f"overall: {rep.overall}")
        if witness is not None:
            out.append(f"trapped central witness: {_int_list(witness)}")
        return out

    _emit(report, lines, cfg)
    return 0 if rep.overall else 1


def _obstruct_steps(counts: tuple[int, ...], all_pass: bool, indent: str) -> str:
    """`_dumps` of the list that holds, for k = 1, 2, ..., counts[k - 1]
    copies of the step {"index": k, "normal": true, "kernel_contained":
    all_pass}, one per normal subgroup of index k; each index's step is
    written once."""
    item = indent + "  "
    steps: list[str] = []
    for k, count in enumerate(counts, 1):
        if count:
            steps += [_dumps({"index": k, "normal": True, "kernel_contained": all_pass}, item)] * count
    return "[" + item + ("," + item).join(steps) + indent + "]" if steps else "[]"


def _cmd_rfrs_obstruct(cfg: RunConfig) -> int:
    from .rfrs import obstruction_certificate

    cert = obstruction_certificate(_load_class2_group(cfg), cfg.max_index)
    report = _rfrs_schema(
        "rfrs-obstruct",
        cfg.group,
        cert.all_pass,
        functools.partial(_obstruct_steps, cert.counts, cert.all_pass),
        None,
        cert.witness,
        cert.checked_subgroups,
        index_bound=cert.index_bound,
        note=cert.depth_note,
    )
    _emit(report, lambda: [
        f"obstruction certificate for {cfg.group} at index bound {cert.index_bound}",
        f"witness: {_int_list(cert.witness)}",
        f"normal subgroups checked: {cert.checked_subgroups}",
        f"all_pass: {cert.all_pass}",
        cert.depth_note,
    ], cfg)
    return 0 if cert.all_pass else 1


def _cmd_rfrs_restrict(cfg: RunConfig) -> int:
    from .rfrs import _restriction

    p = _load_class2_group(cfg)
    f = _load_chain(p, cfg.chain)
    h = _load_subgroup(p, cfg.restrict_to)
    terms, steps = _restriction(f, h)
    # every term has finite index in h, so the last has h's rank
    report = _chain_schema("rfrs-restrict", cfg.group, steps, h.rank(), None, restricted_length=len(terms))
    _emit(report, lambda: [
        f"restricted chain has {len(terms)} terms in a rank-{h.rank()} subgroup",
        f"overall: {report['overall']}",
    ], cfg)
    return 0 if report["overall"] else 1


def _cmd_raag_nf(cfg: RunConfig) -> int:
    from .raags import graph_from_text, normal_form, word_from_tokens

    g = _read_input(cfg.graph, "graph", graph_from_text)
    nf = normal_form(g, word_from_tokens(g, cfg.word or ""))
    text = str(nf)
    report = {
        "command": "raag-nf",
        "graph": cfg.graph,
        "word": cfg.word,
        "normal_form": text,
        "is_identity": nf.is_identity_word(),
    }
    _emit(report, lambda: [f"normal form: {text}"], cfg)
    return 0


def _cmd_raag_magnus(cfg: RunConfig) -> int:
    from .raags import _vertex_names, graph_from_text, magnus_image, word_from_tokens

    g = _read_input(cfg.graph, "graph", graph_from_text)
    word = word_from_tokens(g, cfg.word or "")
    series = magnus_image(g, word, cfg.degree)
    pairs = series.sorted_terms()
    digits = {v: _decimal(v) for v in {v for v, _ in word.letters}}
    report = {
        "command": "raag-magnus",
        "graph": cfg.graph,
        "word": cfg.word,
        "degree": cfg.degree,
        "terms": functools.partial(_series_terms, pairs, digits.__getitem__),
        "is_one": series.is_one(),
    }
    _emit(report, lambda: [f"series at degree {cfg.degree}:"] + [
        f"  {_decimal(coeff)} * {''.join(_vertex_names(mono)) or '1'}" for mono, coeff in pairs
    ], cfg)
    return 0


def _cmd_raag_rtfn(cfg: RunConfig) -> int:
    from .raags import graph_from_text, rtfn_witness

    g = _read_input(cfg.graph, "graph", graph_from_text)
    rep = rtfn_witness(g, cfg.max_len)
    report = {
        "command": "raag-rtfn",
        "graph": cfg.graph,
        "max_len": rep.max_len,
        "degree": rep.degree,
        "elements_checked": rep.elements_checked,
        "separated": rep.separated,
        "failures": [[list(u) for u in f] for f in rep.failures],
    }
    _emit(report, lambda: [
        f"checked {rep.elements_checked} nontrivial elements of length <= {rep.max_len}",
        f"all separated by degree-{rep.degree} truncation: {rep.separated}",
    ], cfg)
    return 0 if rep.separated else 1


@dataclass(frozen=True)
class _Command:
    handler: Callable[[RunConfig], int]
    help: str
    inputs: tuple[str, ...]  # RunConfig fields, each a required --flag
    bound: str | None = None  # optional integer RunConfig field


_COMMANDS = {
    "analyze": _Command(_cmd_analyze, "structural invariants of a nilpotent presentation", ("group",)),
    "rfrs-verify": _Command(_cmd_rfrs_verify, "check the chain step conditions on a filtration file",
                            ("group", "chain")),
    "rfrs-obstruct": _Command(_cmd_rfrs_obstruct, "bounded-index trapped-witness certificate",
                              ("group",), "max_index"),
    "rfrs-restrict": _Command(_cmd_rfrs_restrict, "restrict a chain to a subgroup and re-verify",
                              ("group", "chain", "restrict_to")),
    "raag-nf": _Command(_cmd_raag_nf, "normal form of a graph-group word", ("graph", "word")),
    "raag-magnus": _Command(_cmd_raag_magnus, "truncated series image of a graph-group word",
                            ("graph", "word"), "degree"),
    "raag-rtfn": _Command(_cmd_raag_rtfn, "exhaustive separation check up to a length bound",
                          ("graph",), "max_len"),
}

_INPUT_HELP = {
    "group": "builder name (heisenberg, ut(4), free_abelian(3), direct_product(a,b)) or presentation file",
    "chain": "chain file: blocks of generator rows, blank-line separated",
    "restrict_to": "subgroup file: generator rows",
    "graph": "graph file: vertex count, then 'u v' edges",
    "word": "comma-separated tokens: a, a^-1, b^2",
}


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    command = _COMMANDS.get(cfg.command)
    if command is None:
        print(f"unknown command: {cfg.command}", file=sys.stderr)
        return 2
    for field in command.inputs:
        if getattr(cfg, field) is None:
            print(f"{cfg.command} requires {_flag(field)}", file=sys.stderr)
            return 2
    try:
        return command.handler(cfg)
    except ValueError as exc:
        # the library's internal-invariant failures are other exceptions
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for `_COMMANDS`, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="rfrskit",
        description=(
            "Exact certificates for nilpotent groups and graph groups: "
            "structural invariants, descending-chain (RFRS) conditions, and "
            "truncated-series separation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        s = sub.add_parser(name, help=command.help)
        for field in command.inputs:
            s.add_argument(_flag(field), dest=field, required=True, help=_INPUT_HELP[field])
        if command.bound:
            s.add_argument(_flag(command.bound), dest=command.bound, type=int)
        s.add_argument("--json", dest="json_output", action="store_true", help="emit a JSON report")
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        # options left out keep their RunConfig defaults
        code = run(RunConfig(**{k: v for k, v in vars(ns).items() if v is not None}))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output: send the unwritten rest to the
        # null device, so the flush at exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
