"""chainsurg benchmark: closed-loop CLI jobs with checked outputs.

    python3 perfbench/run.py --workload plan_ladder --seed 1 --seconds 30 --trace 0

One process, one client: each job is a call to `chainsurg.cli.main(argv)`
on files generated at set-up, and the next job starts when the previous
one returns. Whole rounds of the workload's job mix run for about
`--seconds` and at least MIN_JOBS jobs. Every job's output is checked after
the loop (see checks.py).

--trace 0 prints the end-to-end metrics, with every time taken in process
CPU time and scaled to the reference host speed (see hostspeed.py); the
wall-clock figures are printed on the lines before the result. --trace 1
runs each round twice, untraced and then with the tracer installed, and
prints the per-layer metrics; spans go to .perfbench_out/. The last stdout
line is the JSON result; the lines before it are for people.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()
T_START_CPU = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_JOBS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_chainsurg() -> dict:
    """Import chainsurg from the checkout's src/; returns the modules set-up needs."""
    src = ROOT / "src"
    if not (src / "chainsurg" / "__init__.py").is_file():
        raise FileNotFoundError(f"chainsurg sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import chainsurg.catalog
    import chainsurg.cli
    import chainsurg.csscode
    import chainsurg.f2linalg

    return {"catalog": chainsurg.catalog, "cli": chainsurg.cli, "csscode": chainsurg.csscode,
            "f2linalg": chainsurg.f2linalg}


def run_job(cli, job, work: Path):
    """Run one job in-process; returns checks.JobResult."""
    from checks import JobResult, digest  # imports numpy, which must load after main() pins BLAS threads

    out_path = work / job.out if job.out else None
    if out_path is not None and out_path.exists():
        out_path.unlink()
    argv = job.resolved_argv(work)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    # Start every job from an empty collector, as a fresh CLI process does; otherwise when the
    # collector frees a job's cyclic garbage, and so the peak RSS, depends on the jobs before it.
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        error = traceback.format_exc()
    seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    files = {job.out: out_path.read_bytes()} if out_path is not None and out_path.exists() else {}
    res = JobResult(job, rc, out.getvalue(), err.getvalue(), files, seconds, cpu_seconds, error)
    res.digest = digest(res)
    res.out_bytes = len(res.stdout.encode()) + len(res.stderr.encode())
    return res


def run_round(cli, jobs, work: Path, seen: set, tracer=None, first_tag: int = 0, host=None):
    """Run one round's jobs back to back; returns (results, wall seconds).

    `seen` holds the (job id, digest) pairs of earlier results; a repeat
    drops its output, so peak memory does not grow with the run length.
    With `host` (a hostspeed.HostSpeed), the calibration kernel is timed
    after each job, outside the job's time.
    """
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.start_job(first_tag + len(results))
        res = run_job(cli, job, work)
        if host is not None:
            res.calibration = host.calibrate()
        if (job.id, res.digest) in seen:
            res.drop_output()
        seen.add((job.id, res.digest))
        results.append(res)
    return results, time.perf_counter() - t0


def another_round(wall: float, rounds: int, seconds: float) -> bool:
    """Start another round if the loop would then end nearer `seconds` than past it."""
    return rounds == 0 or wall + wall / rounds / 2 < seconds


def measure(cli, jobs, work: Path, seconds: float, host):
    """Untraced closed loop with calibration; returns (results, rounds, loop wall seconds)."""
    results, wall, rounds, seen = [], 0.0, 0, set()
    while another_round(wall, rounds, seconds) or len(results) < MIN_JOBS:
        res, w = run_round(cli, jobs.round(rounds), work, seen, host=host)
        results += res
        wall += w
        rounds += 1
    return results, rounds, wall


def measure_traced(cli, jobs, work: Path, seconds: float, tracer):
    """Each round untraced, then traced, so warm-up and drift hit both sides alike.

    Returns (untraced results, traced results, rounds, untraced wall, traced wall).
    """
    untraced, traced, wall_u, wall_t, rounds, seen = [], [], 0.0, 0.0, 0, set()
    while another_round(wall_u + wall_t, rounds, seconds):
        res, w = run_round(cli, jobs.round(rounds), work, seen)
        untraced += res
        wall_u += w
        tracer.install()
        try:
            res, w = run_round(cli, jobs.round(rounds), work, seen, tracer, len(traced))
        finally:
            tracer.uninstall()
        traced += res
        wall_t += w
        rounds += 1
    tracer.counters["loop:cli.bytes_out"] += sum(res.out_bytes for res in traced)
    return untraced, traced, rounds, wall_u, wall_t


def environment(seed: int) -> str:
    import numpy

    cpu, threads = platform.processor() or "unknown", "?"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = line.split()[1]
    except OSError:
        pass
    return (f"seed={seed} python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} cpu={cpu!r} os_threads={threads}")


def job_metrics(seconds: list[float], unit: str = "s") -> dict:
    """Throughput of the closed loop (jobs / summed job time) and per-job quantiles."""
    q = statistics.quantiles(seconds, n=10)
    return {"jobs_per_s": (len(seconds) / sum(seconds), f"1/{unit}"),
            "job_p50_s": (q[4], unit), "job_p90_s": (q[8], unit)}


# Per-function metrics reported from the traced loop, as (function, calls?, self_s?).
FUNCTION_METRICS = (
    ("f2linalg.rref", True, True), ("f2linalg.solve", True, True), ("f2linalg.matmul", True, True),
    ("chaincomplex.homology", True, False), ("chaincomplex.class_coordinates", True, True),
    ("chaincomplex.induced_on_homology", False, True),
    ("csscode.from_parity_checks", True, True), ("csscode.dual_x_basis", False, True),
    ("csscode.encoder_isometry", True, True),
    ("surgery.quotient_merge", True, True), ("surgery.validate_subcode", False, True),
    ("surgery.analyze_merge", False, True),
    ("protocols.build_cnot_plan", False, True), ("protocols.plan_to_json", False, True),
    ("protocols.plan_from_json", False, True), ("protocols.plan_channel", True, True),
    ("protocols.propagate_pauli", True, False),
    ("simverify.apply_linear", True, True), ("simverify.extract_logical_channel", False, True),
    ("cli.main", True, False),
)


def layer_metrics(tracer, rounds: int, untraced_rate: float, traced_rate: float, jobs: int) -> dict:
    """Per-layer metrics of the traced loop, per round, plus the traced set-up."""
    from tracer import LAYERS

    calls, self_s = tracer.self_times(lambda job: job != "setup")
    s_calls, s_self = tracer.self_times(lambda job: job == "setup")
    c = tracer.counters

    def layer_sum(times, layer):
        return sum(v for k, v in times.items() if k.startswith(layer + "."))

    m = {f"{layer}.self_s": (layer_sum(self_s, layer) / rounds, "s/round") for layer in LAYERS}
    for name, with_calls, with_self in FUNCTION_METRICS:
        if with_calls:
            m[f"{name}.calls"] = (calls[name] / rounds, "count/round")
        if with_self:
            m[f"{name}.self_s"] = (self_s[name] / rounds, "s/round")
    rref_calls = calls["f2linalg.rref"]
    m["f2linalg.rref.cells"] = (c["loop:f2linalg.rref.cells"] / rounds, "count/round")
    m["f2linalg.rref.unique_ratio"] = (c["loop:f2linalg.rref.distinct"] / rref_calls if rref_calls else 1.0, "ratio")
    m["csscode.encoder_isometry.bytes"] = (c["loop:csscode.encoder_isometry.bytes"] / rounds, "B/round")
    m["simverify.apply_linear.bytes"] = (c["loop:simverify.apply_linear.bytes"] / rounds, "B/round")
    m["cli.bytes_out"] = (c["loop:cli.bytes_out"] / rounds, "B/round")
    for layer in ("f2linalg", "csscode", "catalog"):
        m[f"setup.{layer}.self_s"] = (layer_sum(s_self, layer), "s")
    m["setup.f2linalg.rref.calls"] = (s_calls["f2linalg.rref"], "count")
    m["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    m["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    m["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    m["trace.rounds"] = (rounds, "count")
    m["trace.jobs"] = (jobs, "count")
    return m


def print_result(metrics: dict, attempted: int, failures: dict, results) -> None:
    by_spec: dict[str, list[float]] = {}
    for r in results:
        by_spec.setdefault(r.job.id, []).append(r.seconds)
    for spec, secs in sorted(by_spec.items()):
        print(f"#   job {spec} {statistics.median(secs):.4f} s")
    for job_id, reasons in list(failures.values())[:20]:
        print(f"# FAILED {job_id}: {'; '.join(reasons)}")
    print(f"failed_ratio = {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # simverify's complex matmuls would otherwise start BLAS threads; set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        modules = load_chainsurg()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from hostspeed import REF_SECONDS, HostSpeed
    from tracer import Tracer

    import_s, import_cpu = time.perf_counter() - T_START, time.process_time() - T_START_CPU
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(wl.name, {})
    cli = modules["cli"]
    jobs = workloads.JobList(wl, args.seed)
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.start_job("setup")
            try:
                with redirect_stdout(io.StringIO()):  # catalog export prints the files it wrote
                    workloads.prepare(wl, work, modules)
            finally:
                tracer.uninstall()
        else:
            host = HostSpeed()
            gen, gen_cpu, setup_cal = [], [], [host.calibrate()]
            for _ in range(SETUP_REPEATS):
                t0, c0 = time.perf_counter(), time.process_time()
                with redirect_stdout(io.StringIO()):
                    workloads.prepare(wl, work, modules)
                gen.append(time.perf_counter() - t0)
                gen_cpu.append(time.process_time() - c0)
                setup_cal.append(host.calibrate())
            setup_wall = import_s + statistics.median(gen)
            # Each generation is scaled by the kernel times just before and after it, the imports by all of them.
            setup_s = import_cpu * HostSpeed.scale(setup_cal) + statistics.median(
                g * HostSpeed.scale(setup_cal[i:i + 2]) for i, g in enumerate(gen_cpu))

        print(f"perfbench workload={wl.name} trace={args.trace} {environment(args.seed)}")
        if not args.trace:
            results, rounds, wall = measure(cli, jobs, work, args.seconds, host)
            failures = checks.check_results(results, reference, work)
            wall_s = [r.seconds for r in results]
            cal = [r.calibration for r in results]
            scaled = HostSpeed.scaled([r.cpu_seconds for r in results], cal)
            metrics = {"setup_s": (setup_s, "s"), **job_metrics(scaled, "ref_s"),
                       "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
            print(f"# {len(results)} jobs in {rounds} rounds, {wall:.2f} s loop; "
                  f"setup_s = imports + median of {SETUP_REPEATS} input generations")
            q = statistics.quantiles(cal, n=4)
            print(f"# host calibration kernel: median {statistics.median(cal) * 1e3:.3f} ms, quartiles "
                  f"{q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms; reference {REF_SECONDS * 1e3:.3f} ms; jobs ran "
                  f"{sum(r.cpu_seconds for r in results) / sum(wall_s):.3f} of their wall time")
            print(f"# wall clock: setup_s = {setup_wall:.6g} s (imports {import_s:.4f} s, "
                  f"input generation {statistics.median(gen):.4f} s), "
                  + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in job_metrics(wall_s).items()))
        else:
            untraced, traced, rounds, wall_u, wall_t = measure_traced(cli, jobs, work, args.seconds, tracer)
            results = untraced + traced
            failures = checks.check_results(results, reference, work)
            for i, (u, t) in enumerate(zip(untraced, traced)):
                if u.digest != t.digest:
                    failures.setdefault(len(untraced) + i, (t.job.id, []))[1].append("traced digest differs")
            metrics = layer_metrics(tracer, rounds, len(untraced) / wall_u, len(traced) / wall_t, len(traced))
            spans_path = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.json"
            tracer.write(spans_path, {i: r.job.id for i, r in enumerate(traced)})
            print(f"# {len(traced)} traced jobs in {rounds} rounds; spans in {spans_path.relative_to(ROOT)}")
            stages: dict[tuple[str, str], list[float]] = {}
            for (job, label), sec in tracer.stage_times(lambda job: job != "setup").items():
                stages.setdefault((traced[job].job.id, label), []).append(sec)
            for (spec, label), secs in sorted(stages.items()):
                print(f"#   stage {spec} {label} {statistics.median(secs):.4f} s")
        print_result(metrics, len(results), failures, results)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
