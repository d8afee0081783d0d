"""Self-tests of the benchmark: every oracle rejects a corrupted answer,
failed jobs are counted without stopping the run, tracing changes no
output, and job times follow the host's reference speed.  Run with `python3 -m pytest -q benchmarks`."""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PARTS, Job, run_cli  # noqa: E402

rf = run.import_rfrskit()
A = [[4, -7, 3], [2, 9, -5], [-6, 1, 8]]
TALL = [[3, 1], [-2, 5], [7, 4], [1, -6]]


def _bump(rows, i=0, j=-1):
    rows = copy.deepcopy(rows)
    rows[i][j] += 1
    return rows


def test_hnf_oracle():
    h, u = rf.hnf(rf.IntMatrix.from_rows(A))
    h, u = h.to_rows(), u.to_rows()
    assert oracles.check_hnf(A, h, u) is None
    assert oracles.check_hnf(A, _bump(h), u) is not None
    assert oracles.check_hnf(A, h, _bump(u)) is not None


def test_hnf_oracle_tall_checks_unimodularity_directly():
    h, u = rf.hnf(rf.IntMatrix.from_rows(TALL))
    h, u = h.to_rows(), u.to_rows()
    assert oracles.check_hnf(TALL, h, u) is None
    # doubling a row of U that maps A to a zero row keeps H = U*A but breaks |det U| = 1
    bad = copy.deepcopy(u)
    bad[-1] = [2 * x for x in bad[-1]]
    assert oracles.check_hnf(TALL, h, bad) == "U is not unimodular"


def test_snf_and_det_oracles():
    dec = rf.snf(rf.IntMatrix.from_rows(A))
    u, d, v = dec.u.to_rows(), dec.d.to_rows(), dec.v.to_rows()
    assert oracles.check_snf(A, u, d, v) is None
    assert oracles.check_snf(A, u, _bump(d, 2, 2), v) is not None
    assert oracles.check_det(A, rf.det(rf.IntMatrix.from_rows(A))) is None
    assert oracles.check_det(A, rf.det(rf.IntMatrix.from_rows(A)) + 1) is not None


def test_kernel_saturation_and_abelian_oracles():
    k = rf.left_kernel(rf.IntMatrix.from_rows(TALL)).to_rows()
    assert oracles.check_left_kernel(TALL, k) is None
    assert oracles.check_left_kernel(TALL, _bump(k)) is not None
    wide = [[2, 4, 6, 0], [1, 3, 0, 5]]
    s = rf.saturate(rf.IntMatrix.from_rows(wide)).to_rows()
    assert oracles.check_saturate(wide, s) is None
    assert oracles.check_saturate(wide, [[2 * x for x in s[0]]] + s[1:]) is not None
    rel = [[2, 0], [0, 6], [4, 6], [2, 12]]
    g = rf.abelian_group_from_relations(rf.IntMatrix.from_rows(rel))
    factors = list(g.invariant_factors)
    assert factors == [2, 6]
    assert oracles.check_abelian(rel, g.free_rank, factors) is None
    assert oracles.check_abelian(rel, g.free_rank, [2, 12]) is not None
    assert oracles.check_abelian(rel, g.free_rank + 1, factors) is not None


def test_census_count_off_by_one_is_rejected(tmp_path):
    os.chdir(tmp_path)
    wl = PARTS["certify"]
    job = Job("obstruct-h6", "obstruct", ("heisenberg", 6))
    rc, text = wl.call(rf, {}, job)
    assert wl.check(rf, {}, job, (rc, text)) is None
    report = json.loads(text)
    assert report["checked_subgroups"] == oracles.heisenberg_normal_counts(6)[6]
    report["checked_subgroups"] += 1
    report["steps"].append(report["steps"][-1])
    assert "zeta" in wl.check(rf, {}, job, (rc, json.dumps(report)))


def test_zeta_and_growth_counts():
    counts = oracles.heisenberg_normal_counts(32)
    assert (counts[8], counts[16], counts[32]) == (60, 236, 926)
    path = [(0, 1), (1, 2), (2, 3)]
    assert sum(oracles.raag_growth(4, path, 5)[1:]) == 7024


def test_wrong_product_is_rejected():
    p = rf.unitriangular(4)
    u, v = (1, -2, 3, 0, 5, -1), (2, 2, -1, 4, 0, 3)
    good = p.multiply(u, v)
    assert oracles.check_collect(4, "multiply", (u, v), good) is None
    wrong = (good[0] + 1,) + good[1:]
    assert oracles.check_collect(4, "multiply", (u, v), wrong) is not None
    for op, args in (("inverse", (u,)), ("power", (u, -3)), ("commutator", (u, v))):
        result = getattr(p, op)(*args)
        assert oracles.check_collect(4, op, args, result) is None
        assert oracles.check_collect(4, op, args, result[:-1] + (result[-1] + 1,)) is not None


def test_graph_oracles(tmp_path):
    os.chdir(tmp_path)
    wl = PARTS["graphs"]
    wl.setup_inputs(0, tmp_path)
    ctx = wl.build(rf, {})
    letters = [(0, 1), (1, -1), (0, -1), (2, 1), (1, 1), (3, 1), (3, -1)] * 3
    for job in (
        Job("rtfn", "rtfn", ("path", 3)),
        Job("magnus", "magnus", ("path", 3, letters)),
        Job("nf", "nf", ("cycle", 0, letters)),
    ):
        rc, text = wl.call(rf, ctx, job)
        assert wl.check(rf, ctx, job, (rc, text)) is None
        report = json.loads(text)
        if job.kind == "rtfn":
            report["elements_checked"] += 1
        elif job.kind == "magnus":
            report["terms"][-1]["coefficient"] = str(int(report["terms"][-1]["coefficient"]) + 1)
        else:
            report["normal_form"] = "b," + report["normal_form"]
        assert wl.check(rf, ctx, job, (rc, json.dumps(report))) is not None


def test_capped_job_counts_as_failed_and_run_continues(tmp_path):
    os.chdir(tmp_path)

    class Capped:
        def call(self, rf_, ctx, job):
            if job.kind == "cap":
                return rf_.rtfn_witness(rf_.Graph.edgeless(5), 3)  # over the vertex cap
            if job.kind == "cli-cap":
                return run_cli(rf_, ["raag-rtfn", "--graph", "g", "--max-len", "7", "--json"])
            return rf_.det(rf_.IntMatrix.from_rows(A))

        def check(self, rf_, ctx, job, result):
            return oracles.check_det(A, result)

    Path("g").write_text("2\n0 1\n")
    jobs = [Job("a", "det", ()), Job("b", "cap", ()), Job("c", "cli-cap", ()), Job("d", "det", ())]
    rows = run.execute(Capped(), rf, {}, jobs)
    assert [r[0] for r in rows] == ["a", "b", "c", "d"]
    assert [bool(r[3]) for r in rows] == [False, True, True, False]
    assert "ResourceLimitExceeded" in rows[1][3]


def test_tracing_keeps_outputs_and_accounts_for_wall_time(tmp_path):
    os.chdir(tmp_path)
    wl = PARTS["certify"]
    ctx = wl.build(rf, wl.setup_inputs(3, tmp_path))
    jobs = wl.fixed_jobs(rf, ctx, 3, tmp_path)[:1] + wl.batch(rf, ctx, 3, 0, tmp_path)
    assert [j.id for j in jobs] == ["obstruct-h6", "verify-0", "restrict-0"]
    plain = run.execute(wl, rf, ctx, jobs)
    assert not any(r[3] for r in plain)
    original = rf.subgroups.lattice_member
    fresh = wl.build(rf, {"groups": ctx["group_files"]})
    tracer = Tracer()
    tracer.install()
    try:
        assert rf.subgroups.lattice_member is not original
        traced = run.execute(wl, rf, fresh, jobs, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    assert rf.subgroups.lattice_member is original
    assert [r[4] for r in traced] == [r[4] for r in plain]
    wall = sum(r[2] for r in traced)
    metrics = tracer.layer_metrics(wall, sum(r[2] for r in plain))
    assert metrics["subgroups.census.found"] == oracles.heisenberg_normal_counts(6)[6]
    assert metrics["intlinalg.lattice_member.calls"] > 0 and metrics["cli.calls"] >= len(jobs)
    attributed = sum(metrics[f"{m}.self_s"] for m in ("intlinalg", "pcgroups", "subgroups",
                                                      "rfrs", "raags", "cli"))
    assert attributed + metrics["bench.self_s"] == pytest.approx(wall, rel=0.02)
    path = tmp_path / "spans.gz"
    tracer.write(path)
    from tracing import read_spans

    header, spans = read_spans(path)
    assert header["count"] == len(spans) and spans[0][0] == "bench.job"


def test_benchmark_json_lists_every_trace_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    produced = set(tracer.layer_metrics(1.0, 1.0))
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_scale_factors_follow_the_reference_window():
    w = run.REFERENCE_WINDOW
    nominal = run.REFERENCE_MS / 1e3
    # the host runs at half speed for the second half of the run
    refs = [nominal] * (4 * w) + [2 * nominal] * (4 * w + 1)
    factors = run.scale_factors(refs, 8 * w)
    assert len(factors) == 8 * w
    assert factors[0] == pytest.approx(1.0) and factors[-1] == pytest.approx(0.5)
    assert all(a >= b for a, b in zip(factors, factors[1:]))
