"""Workloads: seeded job lists, how each job runs, and its oracle.

A workload is made of job families (`Part`s), and each family has:

- `setup_inputs(seed, workdir)`: writes the files set-up reads (no rfrskit);
- `build(rf, raw)`: the timed set-up, presentations and graphs built
  through the library;
- `fixed_jobs(...)` and `batch(..., k, ...)`: the job list (untimed);
- `call(rf, ctx, job)`: runs one job (timed);
- `check(rf, ctx, job, result)`: the oracle (untimed), None or a reason.

A job list is `batches(seconds)` seeded batches, each holding one batch of
every family, with the fixed jobs of every family, whose inputs do not
depend on the seed, spread between them.  No job input repeats within a
run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracles


@dataclass
class Job:
    id: str
    kind: str
    args: tuple
    part: str = ""


class JobFailed(Exception):
    pass


def job_rng(seed: int, family: str, job_id: str) -> random.Random:
    return random.Random(f"{seed}/{family}/{job_id}")


def run_cli(rf, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = rf.cli.main(argv)
    if rc not in (0, 1):
        raise JobFailed(f"exit code {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def render(result) -> str:
    """Canonical text of a job result, compared byte for byte.  Integers
    are written in hex: decimal conversion is quadratic in the length of
    the thousands-of-digits entries of some transforms."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        return f"exit {result[0]}\n{result[1]}"
    if isinstance(result, (list, tuple)):
        return "[" + ",".join(map(render, result)) + "]"
    return format(result, "x")


def _cli_report(result):
    rc, text = result
    report = json.loads(text)
    expected_rc = 0 if report.get("overall", report.get("separated", True)) else 1
    if rc != expected_rc:
        raise JobFailed(f"exit code {rc} does not match the verdict")
    return report


class Part:
    name = ""
    batch_seconds = 1.0  # cost of one seeded batch when the benchmark was added
    fixed_seconds = 0.0  # cost of the fixed jobs when the benchmark was added

    def setup_inputs(self, seed, workdir):
        return {}

    def build(self, rf, raw):
        return {}


class Workload:
    def __init__(self, name: str, *parts: Part):
        self.name = name
        self.parts = {p.name: p for p in parts}

    def batches(self, seconds: float) -> int:
        """Sized so that the list took about `seconds` when the benchmark was added."""
        fixed = sum(p.fixed_seconds for p in self.parts.values())
        per_batch = sum(p.batch_seconds for p in self.parts.values())
        return max(1, round((seconds - fixed) / per_batch))

    def setup_inputs(self, seed, workdir):
        return {name: p.setup_inputs(seed, workdir) for name, p in self.parts.items()}

    def build(self, rf, raw):
        return {name: p.build(rf, raw[name]) for name, p in self.parts.items()}

    def jobs(self, rf, ctx, seed, seconds, workdir):
        def tagged(name, jobs):
            for job in jobs:
                job.part = name
            return jobs

        fixed = [job for name, p in self.parts.items()
                 for job in tagged(name, p.fixed_jobs(rf, ctx[name], seed, workdir))]
        n = self.batches(seconds)
        jobs = []
        for k in range(n):
            # fixed jobs are spread over the run, so that a slow spell of the
            # host does not fall on all of them at once
            jobs += fixed[k * len(fixed) // n:(k + 1) * len(fixed) // n]
            for name, p in self.parts.items():
                jobs += tagged(name, p.batch(rf, ctx[name], seed, k, workdir))
        return jobs

    def call(self, rf, ctx, job):
        return self.parts[job.part].call(rf, ctx[job.part], job)

    def check(self, rf, ctx, job, result):
        return self.parts[job.part].check(rf, ctx[job.part], job, result)


# ------------------------------------------------------------------ certify


HXZ = "direct_product(heisenberg,free_abelian(1))"


def random_class2_text(rng: random.Random) -> str:
    """A nonabelian class-2 presentation on four generators."""
    while True:
        if rng.random() < 0.5:
            # x1, x2 noncentral; [x2, x1] lands in the central x3, x4
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            lines = [f"1 2 : {a} {b}"] if a or b else []
        else:
            # x1, x2, x3 with commutators in the central x4
            c = [rng.randint(-3, 3) for _ in range(3)]
            lines = [line for line, v in zip(
                (f"1 2 : 0 {c[0]}", f"1 3 : {c[1]}", f"2 3 : {c[2]}"), c) if v]
        if lines:
            return "4 2\n" + "\n".join(lines) + "\n"


class Certify(Part):
    name = "certify"
    heisenberg_bounds = (6, 8, 10, 12, 14, 16)
    hxz_bounds = (3, 4, 5)
    random_groups = 4
    random_bound = 4
    batch_seconds = 0.039
    fixed_seconds = 5.3

    def setup_inputs(self, seed, workdir):
        rng = job_rng(seed, self.name, "groups")
        texts: list[str] = []
        while len(texts) < self.random_groups:
            t = random_class2_text(rng)
            if t not in texts:
                texts.append(t)
        names = []
        for k, text in enumerate(texts):
            names.append(f"group-{k}.pres")
            Path(workdir, names[-1]).write_text(text)
        return {"groups": names}

    def build(self, rf, raw):
        return {
            "heisenberg": rf.build_standard("heisenberg"),
            "hxz": rf.build_standard(HXZ),
            "groups": [
                rf.presentation_from_text(Path(name).read_text()) for name in raw["groups"]
            ],
            "group_files": raw["groups"],
            "verdicts": {},
        }

    def fixed_jobs(self, rf, ctx, seed, workdir):
        # the chains of the batches are drawn from this census
        ctx["census"] = rf.enumerate_normal_subgroups(ctx["heisenberg"], 8)
        ctx["chains"] = set()
        jobs = [Job(f"obstruct-h{b}", "obstruct", ("heisenberg", b)) for b in self.heisenberg_bounds]
        jobs += [Job(f"obstruct-hxz{b}", "obstruct", (HXZ, b)) for b in self.hxz_bounds]
        return jobs + [
            Job(f"obstruct-{name}", "obstruct", (name, self.random_bound))
            for name in ctx["group_files"]
        ]

    def batch(self, rf, ctx, seed, k, workdir):
        rng = job_rng(seed, self.name, f"chain-{k}")
        census = ctx["census"]
        while True:
            chain = [rf.Subgroup.whole_group(ctx["heisenberg"])]
            for _ in range(rng.randint(2, 4)):
                nxt = chain[-1].intersect(rng.choice(census))
                if nxt != chain[-1]:
                    chain.append(nxt)
            sub = rng.choice(census)
            key = (tuple(s.basis.entries for s in chain), sub.basis.entries)
            if len(chain) > 1 and key not in ctx["chains"]:
                ctx["chains"].add(key)
                break
        chain_file, sub_file = f"chain-{k}.txt", f"sub-{k}.txt"
        Path(workdir, chain_file).write_text(rf.chain_to_text(chain))
        Path(workdir, sub_file).write_text(
            "\n".join(" ".join(map(str, row)) for row in sub.basis.to_rows()) + "\n"
        )
        rows = [s.basis.to_rows() for s in chain]
        return [
            Job(f"verify-{k}", "verify", (chain_file, rows)),
            Job(f"restrict-{k}", "restrict", (chain_file, sub_file, rows)),
        ]

    def call(self, rf, ctx, job):
        if job.kind == "obstruct":
            group, bound = job.args
            return run_cli(rf, ["rfrs-obstruct", "--group", group, "--max-index", str(bound), "--json"])
        if job.kind == "verify":
            return run_cli(rf, ["rfrs-verify", "--group", "heisenberg", "--chain", job.args[0], "--json"])
        return run_cli(rf, ["rfrs-restrict", "--group", "heisenberg", "--chain", job.args[0],
                            "--restrict-to", job.args[1], "--json"])

    def check(self, rf, ctx, job, result):
        report = _cli_report(result)
        if job.kind == "obstruct":
            group, bound = job.args
            if report["overall"] is not True:
                return "all_pass is false for a nonabelian class-2 group"
            if report["index_bound"] != bound or len(report["steps"]) != report["checked_subgroups"]:
                return "certificate fields are inconsistent"
            if group == "heisenberg":
                want = oracles.heisenberg_normal_counts(bound)[bound]
                if report["checked_subgroups"] != want:
                    return f"census found {report['checked_subgroups']}, zeta count is {want}"
            return None
        rows = job.args[-1]
        if job.kind == "verify":
            ctx["verdicts"][job.args[0]] = report["overall"]
            if [s["index"] for s in report["steps"]] != [
                abs(oracles.modular_det(r)) for r in rows[1:]
            ]:
                return "step indices disagree with the chain determinants"
            if not all(s["normal"] for s in report["steps"]):
                return "an intersection of normal subgroups was reported not normal"
            if report["intersection_rank"] != 3 or report["overall"] != all(
                s["kernel_contained"] for s in report["steps"]
            ):
                return "verdict fields are inconsistent"
            return None
        if ctx["verdicts"].get(job.args[0]) and not report["overall"]:
            return "restriction of a passing chain fails"
        if report["restricted_length"] > len(rows):
            return "restricted chain is longer than the chain"
        return None


# ------------------------------------------------------------------ lattice


def random_matrix(rng, rows, cols):
    return [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]


def matrix_job(rf, job_id, kind, rows):
    return Job(job_id, kind, (rows, rf.IntMatrix.from_rows(rows)))


class Lattice(Part):
    name = "lattice"
    # Larger matrices, the same in every run: they reach the sizes where
    # coefficient growth makes the cost heavy-tailed without making the
    # run's total depend on the seed.
    fixed = (
        ("hnf", 20, 20),
        ("hnf", 20, 20),
        ("hnf", 20, 20),
        ("hnf", 20, 20),
        ("hnf", 24, 24),
        ("hnf", 24, 24),
        ("snf", 20, 20),
        ("snf", 20, 20),
        ("snf", 24, 24),
        ("snf", 24, 24),
        ("left_kernel", 20, 10),
        ("left_kernel", 20, 10),
        ("left_kernel", 24, 12),
        ("left_kernel", 24, 12),
        ("saturate", 12, 24),
        ("saturate", 12, 24),
        ("abelian", 36, 18),
        ("det", 40, 40),
        ("det", 40, 40),
        ("det", 40, 40),
        ("det", 40, 40),
    )
    shapes = (
        ("hnf", 16, 16),
        ("hnf", 17, 17),
        ("snf", 16, 16),
        ("snf", 18, 18),
        ("left_kernel", 16, 8),
        ("saturate", 8, 16),
        ("abelian", 28, 14),
    )
    batch_seconds = 0.033
    fixed_seconds = 4.3

    def fixed_jobs(self, rf, ctx, seed, workdir):
        return [
            matrix_job(rf, f"fixed-{kind}{r}x{c}-{k}", kind, random_matrix(
                random.Random(f"lattice/fixed/{k}"), r, c))
            for k, (kind, r, c) in enumerate(self.fixed)
        ]

    def batch(self, rf, ctx, seed, k, workdir):
        jobs = []
        for kind, r, c in self.shapes:
            job_id = f"{kind}{r}x{c}-{k}"
            jobs.append(matrix_job(rf, job_id, kind, random_matrix(
                job_rng(seed, self.name, job_id), r, c)))
        return jobs

    def call(self, rf, ctx, job):
        a = job.args[1]
        if job.kind == "hnf":
            h, u = rf.hnf(a)
            return h.to_rows(), u.to_rows()
        if job.kind == "snf":
            dec = rf.snf(a)
            return dec.u.to_rows(), dec.d.to_rows(), dec.v.to_rows()
        if job.kind == "det":
            return rf.det(a)
        if job.kind == "left_kernel":
            return rf.left_kernel(a).to_rows()
        if job.kind == "saturate":
            return rf.saturate(a).to_rows()
        s = rf.abelian_group_from_relations(a)
        return s.free_rank, s.invariant_factors

    def check(self, rf, ctx, job, result):
        a = job.args[0]
        if job.kind == "hnf":
            return oracles.check_hnf(a, *result)
        if job.kind == "snf":
            return oracles.check_snf(a, *result)
        if job.kind == "det":
            return oracles.check_det(a, result)
        if job.kind == "left_kernel":
            return oracles.check_left_kernel(a, result)
        if job.kind == "saturate":
            return oracles.check_saturate(a, result)
        return oracles.check_abelian(a, result[0], list(result[1]))


# ------------------------------------------------------------------ collect


class Collect(Part):
    name = "collect"
    analyze_sizes = (4, 5, 6, 7)
    fixed_products = 3  # ut(4) products with exponents up to 25, the same in every run
    ops = (
        ("multiply", 4, 1),
        ("multiply", 4, 5),
        ("multiply", 4, 8),
        ("multiply", 5, 3),
        ("multiply", 6, 1),
        ("multiply", 6, 2),
        ("inverse", 6, 3),
        ("power", 4, 3),
        ("commutator", 4, 5),
        ("commutator", 6, 1),
    )
    batch_seconds = 0.15
    fixed_seconds = 3.9

    def build(self, rf, raw):
        return {n: rf.unitriangular(n) for n in (4, 5, 6)}

    def fixed_jobs(self, rf, ctx, seed, workdir):
        jobs = [Job(f"analyze-ut{n}", "analyze", (n,)) for n in self.analyze_sizes]
        fixed = random.Random("collect/fixed")
        for k in range(self.fixed_products):
            u, v = (tuple(fixed.randint(-25, 25) for _ in range(6)) for _ in range(2))
            jobs.append(Job(f"multiply4e25-{k}", "multiply", (4, (u, v))))
        return jobs

    def batch(self, rf, ctx, seed, k, workdir):
        jobs = []
        for op, n, bound in self.ops:
            job_id = f"{op}{n}e{bound}-{k}"
            rng = job_rng(seed, self.name, job_id)
            m = n * (n - 1) // 2

            def vec():
                return tuple(rng.randint(-bound, bound) for _ in range(m))

            if op == "inverse":
                args = (vec(),)
            elif op == "power":
                args = (vec(), rng.choice((-3, 3)))
            else:
                args = (vec(), vec())
            jobs.append(Job(job_id, op, (n, args)))
        return jobs

    def call(self, rf, ctx, job):
        if job.kind == "analyze":
            return run_cli(rf, ["analyze", "--group", f"ut({job.args[0]})", "--json"])
        n, args = job.args
        return getattr(ctx[n], job.kind)(*args)

    def check(self, rf, ctx, job, result):
        if job.kind == "analyze":
            return oracles.check_analyze_ut(job.args[0], _cli_report(result))
        n, args = job.args
        return oracles.check_collect(n, job.kind, args, result)


# ------------------------------------------------------------------- graphs


GRAPHS = {
    "path": [(0, 1), (1, 2), (2, 3)],
    "cycle": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "edgeless": [],
}


def word_text(letters) -> str:
    return ",".join("abcd"[v] + ("" if e == 1 else f"^{e}") for v, e in letters)


class Graphs(Part):
    name = "graphs"
    rtfn = tuple((g, 4) for g in GRAPHS) + (("cycle", 5),)
    # (kind, degree, letters)
    words = (("magnus", 3, 40), ("magnus", 4, 40), ("magnus", 5, 16), ("nf", 0, 2000), ("nf", 0, 2000))
    batch_seconds = 0.10
    fixed_seconds = 5.6

    def setup_inputs(self, seed, workdir):
        for name, edges in GRAPHS.items():
            Path(workdir, f"{name}.graph").write_text(
                "4\n" + "".join(f"{u} {v}\n" for u, v in edges)
            )
        return {}

    def build(self, rf, raw):
        return {name: rf.graph_from_text(Path(f"{name}.graph").read_text()) for name in GRAPHS}

    def fixed_jobs(self, rf, ctx, seed, workdir):
        return [Job(f"rtfn-{g}{n}", "rtfn", (g, n)) for g, n in self.rtfn]

    def batch(self, rf, ctx, seed, k, workdir):
        graph = list(GRAPHS)[k % len(GRAPHS)]
        jobs = []
        for t, (kind, degree, length) in enumerate(self.words):
            job_id = f"{kind}{degree or length}-{k}-{t}"
            rng = job_rng(seed, self.name, job_id)
            letters = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(length)]
            jobs.append(Job(job_id, kind, (graph, degree, letters)))
        return jobs

    def call(self, rf, ctx, job):
        graph = f"{job.args[0]}.graph"
        if job.kind == "rtfn":
            return run_cli(rf, ["raag-rtfn", "--graph", graph, "--max-len", str(job.args[1]), "--json"])
        word = word_text(job.args[2])
        if job.kind == "magnus":
            return run_cli(rf, ["raag-magnus", "--graph", graph, "--word", word,
                                "--degree", str(job.args[1]), "--json"])
        return run_cli(rf, ["raag-nf", "--graph", graph, "--word", word, "--json"])

    def check(self, rf, ctx, job, result):
        report = _cli_report(result)
        graph = job.args[0]
        if job.kind == "rtfn":
            return oracles.check_rtfn(4, GRAPHS[graph], job.args[1], report)
        if job.kind == "magnus":
            return oracles.check_magnus(job.args[2], job.args[1], report)
        return check_normal_form(rf, ctx[graph], job.args[2], report)


def check_normal_form(rf, g, letters, report):
    """nf is idempotent, nf(w w^-1) is empty, and nf(w) w^-1 is trivial."""
    nf_text = report["normal_form"]
    if report["is_identity"] != (nf_text == "1"):
        return "is_identity disagrees with the normal form"
    nf = rf.word_from_tokens(g, "" if nf_text == "1" else nf_text)
    if str(rf.normal_form(g, nf)) != nf_text:
        return "normal form is not idempotent"
    inverse = [(v, -e) for v, e in reversed(letters)]
    if not rf.normal_form(g, rf.RaagWord.build(list(letters) + inverse)).is_identity_word():
        return "w w^-1 does not reduce to the identity"
    back = [(v, -e) for v, e in reversed(nf.letters)]
    if not rf.normal_form(g, rf.RaagWord.build(list(letters) + back)).is_identity_word():
        return "the normal form is not equal to the word"
    if sum(abs(e) for _, e in nf.letters) > len(letters):
        return "the normal form is longer than the word"
    return None


PARTS = {p.name: p for p in (Certify(), Collect(), Lattice(), Graphs())}
# Two workloads, so that each run is long enough to average out the drift
# in host speed (see README.md).  Each optimization named in the roadmap
# runs on one and is bypassed on the other.
WORKLOADS = {
    "nilpotent": Workload("nilpotent", PARTS["certify"], PARTS["collect"]),
    "matrices_graphs": Workload("matrices_graphs", PARTS["lattice"], PARTS["graphs"]),
}
