"""Span tracing of rfrskit from outside the library.

`Tracer.install` wraps the public functions and methods of each layer
module and rebinds every name under which an rfrskit module refers to
them, so calls between modules are traced too.  Each call becomes a span
(name, module, start, end, parent) kept in flat arrays; `uninstall`
restores the originals.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("intlinalg", "pcgroups", "subgroups", "rfrs", "raags", "cli")

# Methods of value types called once per matrix entry, letter or monomial.
# Wrapping them would multiply the tracing overhead; their time stays in
# the caller's self time.
UNWRAPPED = {
    "intlinalg.IntMatrix",
    "intlinalg.SmithDecomposition",
    "intlinalg.AbelianGroupStructure",
    "pcgroups.PcPresentation.identity",
    "pcgroups.PcPresentation.generator",
    "pcgroups.PcPresentation.element",
    "pcgroups.PcPresentation.is_abelian",
    "pcgroups.PcPresentation.commutator_rule",
    "subgroups.Subgroup.rank",
    "subgroups.Subgroup.is_full_rank",
    "subgroups.Subgroup.basis_elements",
    "subgroups.Subgroup.whole_group",
    "subgroups.Subgroup.trivial",
    "raags.Graph",
    "raags.RaagWord",
    "raags.TruncatedSeries",
}
# Constructors that do real work.
WRAPPED_INITS = {"pcgroups.PcPresentation", "intlinalg.AbelianQuotient"}

BUILD_SPANS = {
    "pcgroups.PcPresentation.__init__",
    "pcgroups.PcPresentation.check_consistency",
    "pcgroups.build_standard",
    "pcgroups.heisenberg",
    "pcgroups.free_abelian",
    "pcgroups.unitriangular",
    "pcgroups.direct_product",
    "pcgroups.presentation_from_text",
}

# per-layer metric -> (statistic, span names)
SPAN_METRICS = {
    "intlinalg.lattice_member.calls": ("calls", {"intlinalg.lattice_member"}),
    "intlinalg.lattice_member.self_s": ("self", {"intlinalg.lattice_member"}),
    "intlinalg.hnf.calls": ("calls", {"intlinalg.hnf"}),
    "intlinalg.hnf.self_s": ("self", {"intlinalg.hnf"}),
    "intlinalg.snf.self_s": ("self", {"intlinalg.snf"}),
    "intlinalg.det.self_s": ("self", {"intlinalg.det"}),
    "pcgroups.multiply.calls": ("calls", {"pcgroups.PcPresentation.multiply"}),
    "pcgroups.multiply.self_s": ("self", {"pcgroups.PcPresentation.multiply"}),
    "pcgroups.power.self_s": ("self", {"pcgroups.PcPresentation.power"}),
    "pcgroups.build.self_s": ("self", BUILD_SPANS),
    "subgroups.census.self_s": ("self", {"subgroups.enumerate_normal_subgroups"}),
    "subgroups.contains.calls": ("calls", {"subgroups.Subgroup.contains"}),
    "subgroups.closure.self_s": ("self", {"subgroups.subgroup_closure"}),
    "subgroups.induced.self_s": (
        "self", {"subgroups.induced_presentation", "subgroups._induced_any_rank"}
    ),
    "subgroups.series.self_s": ("self", {"subgroups.lower_central_series"}),
    "rfrs.obstruct.self_s": ("self", {"rfrs.obstruction_certificate"}),
    "rfrs.verify.self_s": ("self", {"rfrs.verify_rfrs_chain"}),
    "raags.series_multiply.calls": ("calls", {"raags.series_multiply"}),
    "raags.series_multiply.self_s": ("self", {"raags.series_multiply"}),
    "raags.normal_form.self_s": ("self", {"raags.normal_form"}),
}
COUNTERS = ("intlinalg.transform_bits_max", "subgroups.census.found", "raags.terms_multiplied")


def _bits(mat) -> int:
    return max((abs(x).bit_length() for x in mat.entries), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.modules: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []
        self._hook_id = self.name_id("bench.hook", "bench")

    def name_id(self, name: str, module: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(module)
        return nid

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str, module: str):
        """A span around benchmark code."""
        i = self._open(self.name_id(name, module))
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def _open(self, nid: int) -> int:
        i = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _wrap(self, fn, name: str, module: str, hook=None):
        nid = self.name_id(name, module)
        tracer, clock, stack, start, end = self, time.perf_counter, self.stack, self.start, self.end
        pre, post = hook or (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            i = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if post is not None:
                h = tracer._open(tracer._hook_id)
                start[h] = clock()
                post(tracer, result)
                end[h] = clock()
                stack.pop()
            return result

        return wrapper

    # ------------------------------------------------------ installation

    def install(self) -> None:
        mods = {name: importlib.import_module(f"rfrskit.{name}") for name in LAYERS}
        every = [m for n, m in sys.modules.items() if n == "rfrskit" or n.startswith("rfrskit.")]
        imported_elsewhere = {
            id(v) for m in every for k, v in vars(m).items() if k.startswith("_") and inspect.isfunction(v)
            and getattr(v, "__module__", None) != m.__name__
        }
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or id(obj) in imported_elsewhere):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, HOOKS.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not attr.startswith("_") and f"{layer}.{attr}" not in UNWRAPPED:
                    self._wrap_class(layer, obj)
        for m in every:
            for attr, obj in list(vars(m).items()):
                if id(obj) in replace:
                    self._patch(m, attr, replace[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            if qual in UNWRAPPED:
                continue
            if attr == "__init__" and f"{layer}.{cls.__name__}" not in WRAPPED_INITS:
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, qual, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, qual, layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def self_times(self) -> tuple[list[float], list[float]]:
        n = len(self.name_of)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        dur, own = self.self_times()
        calls = [0] * len(self.names)
        self_by_name = [0.0] * len(self.names)
        incl_by_name = [0.0] * len(self.names)
        for nid, d, s in zip(self.name_of, dur, own):
            calls[nid] += 1
            self_by_name[nid] += s
            incl_by_name[nid] += d
        ids = self._ids
        out: dict[str, float] = {}
        for metric, (stat, names) in SPAN_METRICS.items():
            picked = [ids[n] for n in names if n in ids]
            if stat == "calls":
                out[metric] = sum(calls[i] for i in picked)
            else:
                out[metric] = sum(self_by_name[i] for i in picked)
        out.update(self.counters)
        mul = ids.get("pcgroups.PcPresentation.multiply")
        out["pcgroups.us_per_product"] = (
            incl_by_name[mul] / calls[mul] * 1e6 if mul is not None and calls[mul] else 0.0
        )
        for layer in LAYERS:
            picked = [i for i, m in enumerate(self.modules) if m == layer]
            layer_self = sum(self_by_name[i] for i in picked)
            out[f"{layer}.calls"] = sum(calls[i] for i in picked)
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = layer_self / traced_wall_s if traced_wall_s else 0.0
        out["bench.self_s"] = sum(s for i, s in enumerate(self_by_name) if self.modules[i] == "bench")
        out["trace.wall_s"] = traced_wall_s
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return out

    def write(self, path) -> None:
        """Spans as gzip: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "modules": self.modules,
            "count": len(self.name_of),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path):
    """Inverse of Tracer.write: (header, [(name, module, start, end, parent)])."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            arrays.append(arr)
    names, modules = header["names"], header["modules"]
    spans = [
        (names[k], modules[k], s, e, p) for k, p, s, e in zip(*arrays)
    ]
    return header, spans


# ------------------------------------------------------------------ hooks


def _transform_bits(tracer, result):
    mats = (result[1],) if isinstance(result, tuple) else (result.u, result.v)
    c = tracer.counters
    c["intlinalg.transform_bits_max"] = max(c["intlinalg.transform_bits_max"], *map(_bits, mats))


def _census_found(tracer, result):
    tracer.counters["subgroups.census.found"] += len(result)


def _terms(tracer, args):
    tracer.counters["raags.terms_multiplied"] += len(args[1].coefficients) * len(args[2].coefficients)


# span name -> (called with the arguments, called with the result)
HOOKS = {
    "intlinalg.hnf": (None, _transform_bits),
    "intlinalg.snf": (None, _transform_bits),
    "subgroups.enumerate_normal_subgroups": (None, _census_found),
    "raags.series_multiply": (_terms, None),
}
