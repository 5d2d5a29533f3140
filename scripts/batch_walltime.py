"""Wall time of one `chainsurg batch` process against one process per job.

The jobs are one round of a perfbench workload: `plan_ladder` (52 `cnot
--out` jobs on toric and surface codes, the default), `simulate_small`
(`cnot --simulate --out` chains whose plans `simulate --plan` reads back)
or `analyze_hgp` (merge analyses and logical maps on hypergraph-product
codes). Each side runs in its own work directory: first one `python -m
chainsurg.cli` process per job, one after another, then one `batch`
process fed every job on stdin. The script checks that every batch record
holds the exit code, stdout and stderr of the separate process, and that
both sides wrote the same files. It prints one JSON line.

    python scripts/batch_walltime.py [--workload plan_ladder] [--seed 7] [--round 0]
"""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from chainsurg import catalog, cli, csscode, f2linalg  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND = [sys.executable, "-m", "chainsurg.cli"]
WORKLOADS = ("plan_ladder", "simulate_small", "analyze_hgp")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--round", type=int, default=0)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    jobs = workloads.JobList(wl, args.seed).round(args.round)
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        single_dir, batch_dir = Path(tmp, "single"), Path(tmp, "batch")
        modules = {"catalog": catalog, "cli": cli, "csscode": csscode, "f2linalg": f2linalg}
        for work in (single_dir, batch_dir):
            with redirect_stdout(io.StringIO()):  # analyze_hgp's set-up exports print their files
                workloads.prepare(wl, work, modules)

        t0 = time.perf_counter()
        singles = [subprocess.run(COMMAND + job.resolved_argv(single_dir), env=env, capture_output=True, text=True)
                   for job in jobs]
        separate_s = time.perf_counter() - t0

        lines = "".join(json.dumps(job.resolved_argv(batch_dir)) + "\n" for job in jobs)
        t0 = time.perf_counter()
        done = subprocess.run(COMMAND + ["batch"], input=lines, env=env, capture_output=True, text=True)
        batch_s = time.perf_counter() - t0

        records = [json.loads(line) for line in done.stdout.splitlines()]
        same = done.returncode == 0 and len(records) == len(jobs) and all(
            (r["exit"], r["stdout"], r["stderr"]) == (s.returncode, s.stdout, s.stderr)
            for r, s in zip(records, singles)
        ) and all(
            (single_dir / job.out).read_bytes() == (batch_dir / job.out).read_bytes() for job in jobs if job.out
        )
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "round": args.round, "jobs": len(jobs),
        "separate_s": round(separate_s, 4), "batch_s": round(batch_s, 4),
        "speedup": round(separate_s / batch_s, 2), "records_match": same,
    }))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
