"""rfrskit benchmark: seeded workloads run as a closed loop with one client.

    python3 benchmarks/run.py --workload nilpotent --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --record benchmarks/records/BENCH_new.json

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics of a traced pass over the job list of half the
time.  The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
REFERENCE_MS = 0.5  # nominal duration of one reference call; see host_reference
REFERENCE_WINDOW = 50  # jobs on each side whose reference calls scale a job

sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, render  # noqa: E402


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_rfrskit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rfrskit
    import rfrskit.cli

    if not Path(rfrskit.__file__).resolve().is_relative_to(src):
        fail(f"imported rfrskit from {rfrskit.__file__}, not from this checkout")
    return rfrskit


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def enter_workdir(tag: str) -> Path:
    """A private directory for the run's input files, made the working
    directory so that reports name the files the same way in every run."""
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    return workdir


def leave_workdir(workdir: Path) -> None:
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------- host speed


_REF_TABLE = list(range(256))


def host_reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with rfrskit, with the garbage collector off so that the
    program's heap does not enter it.  The host's speed drifts by tens of
    percent over seconds (CPU time drifts with it), so every time the
    benchmark reports is scaled by REFERENCE_MS over the reference calls
    made around it: times in ms "at the reference speed"."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = _REF_TABLE
        acc = 1
        t0 = time.perf_counter()
        for i in range(2000):
            acc = (acc * 1103515245 + table[i & 255]) % 2147483647
            table[i & 255] = acc & 0xFFFF
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factors(refs: list[float], n: int) -> list[float]:
    """`refs` holds a reference call before each of `n` jobs and one after
    the last.  A job's factor is REFERENCE_MS over the median of the calls
    within REFERENCE_WINDOW jobs of it."""
    w = REFERENCE_WINDOW
    return [
        REFERENCE_MS / 1e3 / statistics.median(refs[max(0, i - w):i + w + 2])
        for i in range(n)
    ]


# ---------------------------------------------------------------- set-up


def probe_setup(wl, seed: int) -> tuple[float, float]:
    """Fresh interpreter: time `import rfrskit` plus the workload's build;
    returns it raw and scaled by reference calls made just before and after."""
    workdir = enter_workdir(f"probe-{wl.name}")
    try:
        raw = wl.setup_inputs(seed, workdir)
        refs = [host_reference() for _ in range(5)]
        t0 = time.perf_counter()
        rf = import_rfrskit()
        wl.build(rf, raw)
        elapsed = time.perf_counter() - t0
        refs += [host_reference() for _ in range(5)]
        return elapsed, elapsed * REFERENCE_MS / 1e3 / statistics.median(refs)
    finally:
        leave_workdir(workdir)


def measure_setup(wl, seed: int) -> list[tuple[float, float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


# ------------------------------------------------------------------ jobs


def execute(wl, rf, ctx, jobs, golden=None, tracer=None, check=True, refs=None):
    """Run the jobs one after another; one row per job:
    (id, kind, latency_s, failure reason or None, output digest).
    With `refs`, a host reference call is appended before each job and
    after the last."""
    rows = []
    golden = golden or {}
    for job in jobs:
        if refs is not None:
            refs.append(host_reference())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.call(rf, ctx, job)
            else:
                with tracer.span("bench.job", "bench"):
                    result = wl.call(rf, ctx, job)
            reason = None
        except Exception as exc:  # a job that raises is a failed job
            result, reason = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        digest = None
        if reason is None:
            digest = hashlib.sha256(render(result).encode()).hexdigest()[:16]
            if check:
                try:
                    reason = wl.check(rf, ctx, job, result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            want = golden.get(job.id)
            if reason is None and want is not None and want != digest:
                reason = "output differs from its digest in golden.json"
        rows.append((job.id, job.kind, latency, reason, digest))
    if refs is not None:
        refs.append(host_reference())
    return rows


def timings(lat, setup_times) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def end_to_end(rows, refs, setup_times) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics at the reference speed, and the raw times."""
    lat = [r[2] for r in rows]
    scaled = [t * f for t, f in zip(lat, scale_factors(refs, len(rows)))]
    metrics = timings(scaled, [s[1] for s in setup_times])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = timings(lat, [s[0] for s in setup_times])
    raw["reference_ms"] = statistics.median(refs) * 1e3
    return metrics, raw


def run_workload(wl, seed: int, seconds: float, trace: bool, write_golden: bool):
    section = load_spec()["per_layer" if trace else "end_to_end"]
    setup_times = [] if trace else measure_setup(wl, seed)
    workdir = enter_workdir(wl.name)
    try:
        raw = wl.setup_inputs(seed, workdir)
        rf = import_rfrskit()
        ctx = wl.build(rf, raw)
        # the traced run makes two passes, so it takes the list of half the time
        jobs = wl.jobs(rf, ctx, seed, seconds / 2 if trace else seconds, workdir)
        golden = {}
        if seed == DEFAULT_SEED and GOLDEN.exists() and not write_golden:
            golden = json.loads(GOLDEN.read_text()).get(wl.name, {})
        gc.collect()
        refs = []
        rows = execute(wl, rf, ctx, jobs, golden, refs=refs)
        raw_times = {}
        if not trace:
            metrics, raw_times = end_to_end(rows, refs, setup_times)
        else:
            from tracing import Tracer

            ctx = wl.build(rf, raw)  # fresh objects, so per-object caches start cold again
            tracer = Tracer()
            tracer.install()
            gc.collect()
            try:
                traced = execute(wl, rf, ctx, jobs, tracer=tracer, check=False)
            finally:
                tracer.uninstall()
            untraced_wall = sum(r[2] for r in rows)
            metrics = tracer.layer_metrics(sum(r[2] for r in traced), untraced_wall)
            rows = [
                r if r[3] or r[4] == t[4] else r[:3] + ("traced output differs",) + r[4:]
                for r, t in zip(rows, traced)
            ]
            tracer.write(OUT / f"spans-{wl.name}-s{seed}.gz")
    finally:
        leave_workdir(workdir)

    failed = sum(1 for r in rows if r[3])
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows),
        "setup_runs_s": setup_times,
        "metrics": metrics,
        "raw": raw_times,
        "jobs": [[r[0], round(r[2] * 1e3, 3), r[3]] for r in rows],
    }
    (OUT / f"run-{wl.name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record))
    if write_golden:
        if failed:
            fail("not writing digests from a run with failed jobs")
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[wl.name] = {r[0]: r[4] for r in rows}
        GOLDEN.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")

    for r in rows:
        if r[3]:
            print(f"FAILED {r[0]}: {r[3]}")
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    for m in section:
        print(f"{wl.name} {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    for name, value in raw_times.items():
        print(f"{wl.name} raw.{name} {value:.6g}")
    print(f"{wl.name} failed_frac {failed / len(rows):.6g} ratio ({failed} of {len(rows)} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }))


# ------------------------------------------------------------- all, record


def machine_info() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        info["cpu_model"] = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        info["cpu_model"] = platform.processor() or None
    info["loadavg_at_start"] = list(os.getloadavg())
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = None
    return info


def run_all(seed: int, seconds: float, record: str | None) -> None:
    info = machine_info()
    runs = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            if proc.returncode != 0:
                fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr.strip()}")
            ok = ok and json.loads(proc.stdout.splitlines()[-1])["correct"]
            run = json.loads((OUT / f"run-{name}-s{seed}-t{trace}.json").read_text())
            if trace:
                del run["jobs"]  # the per-job rows come from the untraced run
            runs.append(run)
    if record:
        # one run per line keeps the per-job rows compact
        body = ",\n".join(json.dumps(r) for r in runs)
        Path(record).write_text(f'{{"machine": {json.dumps(info)},\n"runs": [\n{body}\n]}}\n')
    print(json.dumps({"correct": ok, "workloads": list(WORKLOADS)}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the combined run record here")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the output digests of the default seed in golden.json")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "rfrskit" / "__init__.py").is_file():
        fail(f"no rfrskit sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        fail(f"golden digests come from an untraced run of the default seed {DEFAULT_SEED}")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        run_all(args.seed, seconds, args.record)
        return
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        print(*map(repr, probe_setup(wl, args.seed)))
        return
    run_workload(wl, args.seed, seconds, bool(args.trace), args.write_golden)


if __name__ == "__main__":
    main()
