"""Command-line front end.

One table, `_COMMANDS`, declares each command once: its handler, help
text, required inputs and optional integer bound.  The argparse parser
(built once per process) and `run`'s check for required inputs both come
from that table, and every input file goes through one reader.

Exit codes: 0 when the computation completed with an overall pass/true
result, 1 when it completed with a fail/false result, 2 on input errors
(any ValueError, which `run` alone reports) or exceeded resource caps.
Reports print human-readable by default and as JSON with --json; the
RFRS-family commands share one JSON field set so scripts can parse them
uniformly.  Each command hands `_emit` a function that builds its
human-readable lines, so a --json run never builds them.  JSON reports
are written by `_dumps`, a direct recursive emitter whose output equals
json.dumps(report, indent=2) byte for byte (the json module's indented
encoder runs in pure Python, and took about a third of the time of a
graph-group series report).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ResourceLimitExceeded
from .pcgroups import (
    PcPresentation,
    abelianization,
    build_standard,
    presentation_from_text,
)
from .raags import (
    graph_from_text,
    magnus_image,
    normal_form,
    rtfn_witness,
    word_from_tokens,
)
from .rfrs import (
    Filtration,
    RfrsReport,
    obstruction_certificate,
    restrict_chain,
    trapped_central_witness,
    verify_rfrs_chain,
)
from .subgroups import (
    Subgroup,
    _row_blocks,
    center_ab_report,
    chain_from_text,
    hirsch_rank,
    lower_central_series,
    subgroup_closure,
)


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


def _read_input(spec: str, kind: str, parse):
    """parse applied to the text of file spec.  A missing or unreadable
    file, or a ValueError from parse, becomes a ValueError naming the kind
    of file."""
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
    except ValueError as exc:
        raise ValueError(f"bad {kind} file {spec}: {exc}") from exc


def _presentation_with_checked_class(text: str) -> PcPresentation:
    p = presentation_from_text(text)
    # the constructor already requires central commutator values up to
    # class 2, where the class is then 1 or 2 by whether the table is empty
    if p.nilpotency_class <= 2:
        actual = 2 if p.rules else 1
    else:
        actual = len(lower_central_series(p)) - 1
    if actual != p.nilpotency_class:
        raise ValueError(
            f"declares nilpotency class {p.nilpotency_class}, "
            f"but its lower central series has class {actual}"
        )
    return p


def _load_group(spec: str) -> PcPresentation:
    """A presentation file if spec names one, else a builder name."""
    if Path(spec).exists():
        return _read_input(spec, "presentation", _presentation_with_checked_class)
    return build_standard(spec)


def _load_class2_group(cfg: RunConfig) -> PcPresentation:
    """An RFRS command's group, refused above class 2 before other input is read."""
    p = _load_group(cfg.group)
    if p.nilpotency_class > 2:
        raise ValueError(f"{cfg.command} supports nilpotency class <= 2 only; "
                         f"group {cfg.group} has class {p.nilpotency_class}")
    return p


def _load_chain(p: PcPresentation, spec: str) -> Filtration:
    return _read_input(spec, "chain", lambda text: Filtration.from_subgroups(p, chain_from_text(p, text)))


def _load_subgroup(p: PcPresentation, spec: str) -> Subgroup:
    def parse(text: str) -> Subgroup:
        rows = [row for block in _row_blocks(text) for row in block]
        if not rows:
            raise ValueError("empty subgroup file")
        return subgroup_closure(p, rows)

    return _read_input(spec, "subgroup", parse)


def _dumps(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2), byte for byte, for dicts with string keys,
    lists, tuples and JSON scalars; `indent` is the newline and indentation
    that precede x's closing bracket.  Exact ints take int.__repr__, as
    json's encoder does; other non-string scalars go to json.dumps."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
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
    return json.dumps(x)


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


def _chain_schema(command: str, group: str, rep: RfrsReport, witness, **extra) -> dict:
    """`_rfrs_schema` of a chain that `verify_rfrs_chain` checked."""
    steps = [
        {"index": s.index, "normal": s.normal_in_g, "kernel_contained": s.kernel_contained}
        for s in rep.steps
    ]
    return _rfrs_schema(command, group, rep.overall, steps, rep.intersection.rank(), witness, 0, **extra)


def _cmd_analyze(cfg: RunConfig) -> int:
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
        f"witness: {report['witness']}",
    ], cfg)
    return 0


def _cmd_rfrs_verify(cfg: RunConfig) -> int:
    p = _load_class2_group(cfg)
    f = _load_chain(p, cfg.chain)
    rep = verify_rfrs_chain(f)
    witness = trapped_central_witness(rep) if rep.overall and not p.is_abelian() else None
    report = _chain_schema("rfrs-verify", cfg.group, rep, witness)
    def lines() -> list[str]:
        out = [f"chain of length {len(f.chain)} on {cfg.group}"]
        for k, s in enumerate(rep.steps):
            out.append(
                f"step {k}: index {s.index}, normal {s.normal_in_g}, kernel contained {s.kernel_contained}"
            )
        out.append(f"overall: {rep.overall}")
        if witness is not None:
            out.append(f"trapped central witness: {list(witness)}")
        return out

    _emit(report, lines, cfg)
    return 0 if rep.overall else 1


def _cmd_rfrs_obstruct(cfg: RunConfig) -> int:
    cert = obstruction_certificate(_load_class2_group(cfg), cfg.max_index)
    steps = [
        {
            "index": r.index,
            "normal": True,
            "kernel_contained": (not r.contains_witness) or bool(r.witness_torsion_in_ab),
        }
        for r in cert.records
    ]
    report = _rfrs_schema(
        "rfrs-obstruct",
        cfg.group,
        cert.all_pass,
        steps,
        None,
        cert.witness,
        cert.checked_subgroups,
        index_bound=cert.index_bound,
        note=cert.depth_note,
    )
    _emit(report, lambda: [
        f"obstruction certificate for {cfg.group} at index bound {cert.index_bound}",
        f"witness: {list(cert.witness)}",
        f"normal subgroups checked: {cert.checked_subgroups}",
        f"all_pass: {cert.all_pass}",
        cert.depth_note,
    ], cfg)
    return 0 if cert.all_pass else 1


def _cmd_rfrs_restrict(cfg: RunConfig) -> int:
    p = _load_class2_group(cfg)
    f = _load_chain(p, cfg.chain)
    g = restrict_chain(f, _load_subgroup(p, cfg.restrict_to))
    rep = verify_rfrs_chain(g)
    report = _chain_schema("rfrs-restrict", cfg.group, rep, None, restricted_length=len(g.chain))
    _emit(report, lambda: [
        f"restricted chain has {len(g.chain)} terms in a rank-{g.ambient.n} subgroup",
        f"overall: {rep.overall}",
    ], cfg)
    return 0 if rep.overall else 1


def _cmd_raag_nf(cfg: RunConfig) -> int:
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
    g = _read_input(cfg.graph, "graph", graph_from_text)
    series = magnus_image(g, word_from_tokens(g, cfg.word or ""), cfg.degree)
    terms = [
        {"monomial": list(mono), "coefficient": str(coeff)}
        for mono, coeff in series.sorted_terms()
    ]
    report = {
        "command": "raag-magnus",
        "graph": cfg.graph,
        "word": cfg.word,
        "degree": cfg.degree,
        "terms": terms,
        "is_one": series.is_one(),
    }
    def lines() -> list[str]:
        out = [f"series at degree {cfg.degree}:"]
        for t in terms:
            mono = "".join(chr(ord("a") + v) for v in t["monomial"]) or "1"
            out.append(f"  {t['coefficient']} * {mono}")
        return out

    _emit(report, lines, cfg)
    return 0


def _cmd_raag_rtfn(cfg: RunConfig) -> int:
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
    if cfg.max_index < 1 or cfg.degree < 1 or cfg.max_len < 1:
        print("numeric bounds must be positive", file=sys.stderr)
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
    # options left out keep their RunConfig defaults
    return run(RunConfig(**{k: v for k, v in vars(ns).items() if v is not None}))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
