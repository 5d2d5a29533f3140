"""Output checks for benchmark jobs.

Two kinds of check run on every job:

* The digest (SHA-256 over the exit code, the stdout/stderr JSON with
  every float replaced by a marker, and the bytes of the file the job
  wrote) is compared with `reference.json`. It only catches regressions:
  the reference was recorded from chainsurg itself.
* The independent checks below use plain numpy and `hgp.py`, never
  chainsurg: channels against the benchmark's own permutation matrices,
  plan bases against the CSS commutation and duality relations, merge
  reports against the exact-sequence counts and the catalog's `expect`
  records. Floats are checked here, within 1e-9, not by the digest.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hgp import gf2_matmul, gf2_rank

CHANNEL_TOL = 1e-9
REPORT_SCHEMA = "chainsurg-report/1"


@dataclass
class JobResult:
    job: object  # workloads.Job
    rc: int | None
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)  # relative name -> bytes
    seconds: float = 0.0  # wall time
    cpu_seconds: float = 0.0  # process CPU time, which leaves out time the host gave to others
    error: str | None = None  # traceback if the CLI raised
    digest: str = ""
    out_bytes: int = 0  # stdout and stderr bytes
    calibration: float = 0.0  # host-speed kernel time just after the job, see hostspeed.py

    def drop_output(self) -> None:
        """Forget the output of a repeat; its digest stands for it, and memory stays flat."""
        self.stdout = self.stderr = ""
        self.files = {}


def _strip_floats(doc):
    if isinstance(doc, float):
        return "<float>"
    if isinstance(doc, list):
        return [_strip_floats(x) for x in doc]
    if isinstance(doc, dict):
        return {k: _strip_floats(v) for k, v in doc.items()}
    return doc


def _parse(text: str):
    try:
        return json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        return {"unparsed": text}


def digest(res: JobResult) -> str:
    doc = {
        "rc": res.rc,
        "stdout": _strip_floats(_parse(res.stdout)),
        "stderr": _strip_floats(_parse(res.stderr)),
        "files": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(res.files.items())},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# --- the benchmark's own expected channels ------------------------------------


def _index(bits: list[int]) -> int:
    out = 0
    for b in bits:  # qubit 0 is the most significant bit, as in chainsurg's docs
        out = (out << 1) | b
    return out


def expected_channel(spec: dict) -> np.ndarray:
    """Permutation matrix of the logical channel a CNOT plan must implement.

    kind "cnot": CNOT(control -> target) on k data qubits.
    kind "anc_target": CNOT from `control` onto a fresh |0> qubit appended
    after the k data qubits (k inputs, k + 1 outputs).
    """
    k = spec["k"]
    k_out = k + 1 if spec["kind"] == "anc_target" else k
    mat = np.zeros((1 << k_out, 1 << k))
    for i in range(1 << k):
        bits = [(i >> (k - 1 - q)) & 1 for q in range(k)]
        if spec["kind"] == "anc_target":
            bits.append(bits[spec["control"]])
        else:
            bits[spec["target"]] ^= bits[spec["control"]]
        mat[_index(bits), i] = 1.0
    return mat


# --- independent checks -------------------------------------------------------


def _plan_errors(plan_bytes: bytes | None, base_n: int | None = None) -> list[str]:
    if plan_bytes is None:
        return ["plan file was not written"]
    doc = json.loads(plan_bytes)
    mats = {}
    for key in ("base_hx", "base_hz", "base_zl", "base_xl"):
        mats[key] = np.array(doc[key], dtype=np.uint8)
    n = max(m.shape[1] for m in mats.values() if m.ndim == 2)
    for key, m in mats.items():
        if m.size == 0:
            mats[key] = np.zeros((0, n), dtype=np.uint8)
    hx, hz, zl, xl = mats["base_hx"], mats["base_hz"], mats["base_zl"], mats["base_xl"]
    errs = []
    if gf2_matmul(hx, hz.T).any():
        errs.append("plan: hx . hz^T != 0")
    if gf2_matmul(hx, zl.T).any():
        errs.append("plan: hx . zl^T != 0")
    if gf2_matmul(hz, xl.T).any():
        errs.append("plan: hz . xl^T != 0")
    if zl.shape[0] != xl.shape[0] or not np.array_equal(gf2_matmul(xl, zl.T), np.eye(zl.shape[0], dtype=np.uint8)):
        errs.append("plan: xl . zl^T != I")
    if base_n is not None and n != base_n:
        errs.append(f"plan: base code has {n} qubits, expected {base_n}")
    return errs


def _channel_errors(doc: dict, spec: dict) -> list[str]:
    ch = np.array(doc["channel"], dtype=float)
    ch = ch[..., 0] + 1j * ch[..., 1]
    want = expected_channel(spec)
    if ch.shape != want.shape:
        return [f"channel shape {ch.shape} != {want.shape}"]
    dev = float(np.max(np.abs(ch - want)))
    return [] if dev <= CHANNEL_TOL else [f"channel deviates from the permutation by {dev:.3e}"]


def _sequence_errors(analysis: dict, k_src: int, k_tgt: int) -> list[str]:
    """killed = k_src - rank(induced) and created = k_tgt - rank(induced)."""
    induced = analysis["induced_matrix"]
    r = gf2_rank(induced) if induced else 0
    errs = []
    if len(analysis["killed"]) != k_src - r:
        errs.append(f"killed {len(analysis['killed'])} != k_src {k_src} - rank {r}")
    if len(analysis["created"]) != k_tgt - r:
        errs.append(f"created {len(analysis['created'])} != k_tgt {k_tgt} - rank {r}")
    return errs


def _source_target_k(analysis: dict) -> tuple[int, int]:
    induced, killed, created = analysis["induced_matrix"], analysis["killed"], analysis["created"]
    k_tgt = len(induced) if induced else (len(created[0]) if created else 0)
    k_src = len(induced[0]) if induced and induced[0] else (len(killed[0]) if killed else 0)
    return k_src, k_tgt


def _check_plan(res, doc, work):
    errs = _plan_errors(res.files.get(res.job.out), res.job.params.get("base_n"))
    if doc.get("type") != "cnot-plan":
        errs.append(f"unexpected report type {doc.get('type')!r}")
    if "base_n" in res.job.params and doc.get("base_n") != res.job.params["base_n"]:
        errs.append(f"base_n {doc.get('base_n')} != {res.job.params['base_n']}")
    return errs


def _check_cnot_simulate(res, doc, work):
    errs = _check_plan(res, doc, work)
    if not doc.get("max_deviation", 1.0) < CHANNEL_TOL:
        errs.append(f"max_deviation {doc.get('max_deviation')} >= {CHANNEL_TOL}")
    return errs


def _check_simulate(res, doc, work):
    errs = _channel_errors(doc, res.job.params["channel"])
    if not doc.get("max_deviation", 1.0) < CHANNEL_TOL:
        errs.append(f"max_deviation {doc.get('max_deviation')} >= {CHANNEL_TOL}")
    return errs


def _check_switch(res, doc, work):
    errs = _plan_errors(res.files.get(res.job.out))
    if doc.get("merged") != {"n": 15, "k": 1, "d": 3}:
        errs.append(f"merged code {doc.get('merged')} is not [[15,1,3]]")
    if doc.get("p1_star") != [[1, 1]] or doc.get("round_trip_identity") is not True:
        errs.append("switch: induced map or round trip is wrong")
    return errs


def _check_hgp_analyze(res, doc, work):
    p, n, k = (res.job.params[key] for key in ("pairs", "n", "k"))
    analysis = doc["analysis"]
    errs = _sequence_errors(analysis, k, k - p)
    if _source_target_k(analysis) != (k, k - p):
        errs.append(f"induced map is {_source_target_k(analysis)}, expected ({k}, {k - p})")
    if len(analysis["killed"]) != p or analysis["created"]:
        errs.append(f"joining {p} independent logical pairs must kill {p} classes and create none")
    if doc["source_dims"][1] != n or doc["quotient_dims"][1] != n - p:
        errs.append(f"qubits {doc['source_dims'][1]} -> {doc['quotient_dims'][1]}, expected {n} -> {n - p}")
    return errs


def _check_hgp_logical_map(res, doc, work):
    p, k = res.job.params["pairs"], res.job.params["k"]
    m = np.array(doc["matrix"], dtype=np.uint8)
    if m.shape != (k - p, k):
        return [f"logical map shape {m.shape} != {(k - p, k)}"]
    return [] if gf2_rank(m) == k - p else [f"logical map rank {gf2_rank(m)} != {k - p}"]


def _expect_errors(expect: dict, doc: dict) -> list[str]:
    """Compare a catalog `expect` record with a `merge --analyze --json` report.

    `p1_in_z1_z2_basis` and `quotient_basis_degree1` refer to a quotient
    basis the CLI does not take, and the distance in `merged_params` is not
    in the report; those are not checked.
    """
    a = doc["analysis"]
    dims = a["subcode_homology"]
    h1, h0 = (dims["H1(V)"], dims["H0(V)"]) if doc["orientation"] == "Z" else (dims["H^1(W)"], dims["H^2(W)"])
    got = {
        "h1_subcode": h1,
        "h0_subcode": h0,
        "surjective": a["surjective_guaranteed"] and a["matrix_surjective"],
        "injective": a["injective_guaranteed"] and a["matrix_injective"],
        "killed_count": len(a["killed"]),
        "created_count": len(a["created"]),
        "killed_class_coords": a["killed"][0] if len(a["killed"]) == 1 else a["killed"],
        "merged_qubits": doc["quotient_dims"][1],
        "quotient_h1": len(a["induced_matrix"]),
        "quotient_dims": doc["quotient_dims"],
        "induced_matrix": a["induced_matrix"],
        "p1_star": a["induced_matrix"],
        "merged_params": [doc["quotient_dims"][1], len(a["induced_matrix"])],
    }
    errs = []
    for key, want in expect.items():
        if key == "merged_params":
            want = want[:2]
        if key in got and got[key] != want:
            errs.append(f"expect {key}: got {got[key]!r}, want {want!r}")
    return errs


def _check_example(res, doc, work):
    name = res.job.params["example"]
    expect = json.loads((work / f"{name}.expect.json").read_text())
    if not expect["valid"]:
        err = _parse(res.stderr) or {}
        want = f"degree-{expect['closure_degree']}"
        if err.get("error") != "ClosureViolated" or want not in err.get("message", ""):
            return [f"rejected example: stderr {res.stderr.strip()!r} is not a {want} ClosureViolated"]
        return []
    return _expect_errors(expect, doc) + _sequence_errors(doc["analysis"], *_source_target_k(doc["analysis"]))


CHECKS = {
    "plan": _check_plan,
    "cnot_simulate": _check_cnot_simulate,
    "simulate": _check_simulate,
    "switch": _check_switch,
    "hgp_analyze": _check_hgp_analyze,
    "hgp_logical_map": _check_hgp_logical_map,
    "example": _check_example,
}


def independent_errors(res: JobResult, work: Path) -> list[str]:
    if res.error is not None:
        return [f"raised: {res.error.strip().splitlines()[-1]}"]
    if res.rc != res.job.expect_rc:
        return [f"exit code {res.rc}, expected {res.job.expect_rc}"]
    doc = _parse(res.stdout) if res.rc == 0 else {}
    if res.rc == 0 and (not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA):
        return ["stdout is not a chainsurg-report/1 JSON document"]
    try:
        return CHECKS[res.job.check](res, doc, work)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_results(results: list[JobResult], reference: dict, work: Path) -> dict[int, tuple[str, list[str]]]:
    """Result index -> (job id, reasons) for every failed job.

    Identical outputs are checked once, at their first occurrence, which is
    the one that keeps its output (see `JobResult.drop_output`).
    """
    failures = {}
    verdicts: dict[tuple[str, str], list[str]] = {}
    for i, res in enumerate(results):
        d = res.digest
        key = (res.job.id, d)
        if key not in verdicts:
            errs = independent_errors(res, work)
            want = reference.get(res.job.id)
            if want is None:
                errs.append("no reference digest for this job spec")
            elif want != d:
                errs.append(f"digest {d[:12]} != reference {want[:12]}")
            verdicts[key] = errs
        if verdicts[key]:
            failures[i] = (res.job.id, list(verdicts[key]))
    return failures
