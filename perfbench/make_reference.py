"""Record reference.json: the output digest of every job spec of every workload.

    python3 perfbench/make_reference.py

Runs each variant of each family once, in catalogue order, and refuses to
record a job that fails its independent checks. Re-record only when a
change to chainsurg's output bytes is intended.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import checks
import workloads
from run import REFERENCE, ROOT, load_chainsurg, run_job


def main() -> int:
    modules = load_chainsurg()
    reference = {}
    bad = 0
    for wl in workloads.WORKLOADS.values():
        work = ROOT / ".perfbench_work" / f"reference-{wl.name}-{os.getpid()}"
        try:
            work.mkdir(parents=True)
            with redirect_stdout(io.StringIO()):
                workloads.prepare(wl, work, modules)
            digests = {}
            for unit in wl.units():
                for job in unit:
                    res = run_job(modules["cli"], job, work)
                    errs = checks.independent_errors(res, work)
                    if errs:
                        bad += 1
                        print(f"{wl.name} {job.id}: {'; '.join(errs)}", file=sys.stderr)
                    digests[job.id] = res.digest
            reference[wl.name] = digests
            print(f"{wl.name}: {len(digests)} job specs")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if bad:
        print(f"{bad} job specs fail their checks; reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
