"""Workload catalogues: job specs, seeded job lists and input generation.

A workload is a finite catalogue of *families*. Each family has one or
more *variants*; a variant is a unit of CLI jobs run in order (a `cnot
--simulate --out PLAN` followed by the `simulate --plan PLAN` jobs that
read its plan, or a single job). Every job in every variant has a stable
id, which keys its reference digest, so a run with any seed can be
checked.

A run is a sequence of *rounds*. Each round holds `weight` units of every
family, so every round has the same job mix. The seed picks where each
family starts in its variant cycle (round r, copy c uses variant
(offset + r * weight + c) mod V, so V consecutive copies cover every
variant once) and shuffles the units of a round and the follow-up jobs
of a chain. chainsurg only sees the generated files and argv.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hgp


@dataclass(frozen=True)
class Job:
    """One CLI invocation. `{w}` in argv is replaced by the work directory."""

    id: str
    argv: tuple[str, ...]
    check: str  # name of the independent output check, see checks.py
    expect_rc: int = 0
    out: str | None = None  # file the job writes, relative to the work dir
    params: dict = field(default_factory=dict, compare=False, hash=False)

    def resolved_argv(self, work: Path) -> list[str]:
        return [a.replace("{w}", str(work)) for a in self.argv]


@dataclass(frozen=True)
class Family:
    name: str
    variants: tuple[tuple[Job, ...], ...]  # each variant: head job, then follow-ups
    weight: int = 1


def _cnot(spec_id: str, code: str, control: int, target: int | None, *extra: str, check: str, **params) -> Job:
    argv = ["--json", "cnot", f"{{w}}/{code}.code", "--control", str(control)]
    if target is not None:
        argv += ["--target", str(target)]
    argv += list(extra) + ["--out", f"{{w}}/plans/{spec_id}.json"]
    return Job(
        id=spec_id,
        argv=tuple(argv),
        check=check,
        out=f"plans/{spec_id}.json",
        params={"control": control, "target": target, **params},
    )


# --- plan_ladder ----------------------------------------------------------------
#
# Plan synthesis and plan JSON writing on n = 18..162; nothing is simulated.
# Weights put 52 jobs in a round, so two rounds complete 100 jobs, while the
# large rungs still hold most of the time. A sample quantile that falls where
# one job spec's times meet another's, or at the edge of one spec's times,
# jumps with every job's noise. So the weights put each quantile in the middle
# of many jobs of one spec (or of specs with near-equal times): p50 in the 15
# surface-5 ancilla-target jobs, above the 18 toric-3 jobs, and p90 in the 4
# surface-7 locality jobs, below the three largest rungs.


def _plan_ladder() -> list[Family]:
    fams = []

    def toric_family(L: int, weight: int, *extra: str, tag: str = "") -> Family:
        variants = []
        for a, b in ((0, 1), (1, 0)):
            sid = f"toric{L}{tag}.c{a}t{b}"
            variants.append((_cnot(sid, f"toric_{L}", a, b, *extra, check="plan", base_n=2 * L * L + 1),))
        return Family(f"toric{L}{tag}", tuple(variants), weight)

    for L, w in ((3, 18), (5, 3), (7, 1), (9, 1)):
        fams.append(toric_family(L, w))
    for d, w in ((5, 15), (7, 1), (9, 1)):
        n = d * d + (d - 1) * (d - 1)
        job = _cnot(f"surface{d}.anc_target", f"surface_{d}x{d}", 0, None, check="plan", base_n=n + 1)
        fams.append(Family(f"surface{d}", ((job,),), w))
    for d, w in ((5, 3), (7, 2)):
        n = d * d + (d - 1) * (d - 1)
        for mw in (2, 3):
            sid = f"surface{d}.locality_w{mw}"
            job = _cnot(sid, f"surface_{d}x{d}", 0, None, "--locality", "--max-weight", str(mw),
                        check="plan", base_n=n + 1)
            fams.append(Family(sid, ((job,),), w))
    for mw in (2, 3):
        fams.append(toric_family(5, 1, "--locality", "--max-weight", str(mw), tag=f".locality_w{mw}"))
    return fams


def _setup_plan_ladder(work: Path, catalog, **_) -> None:
    for L in (3, 5, 7, 9):
        (work / f"toric_{L}.code").write_text(catalog.toric(L).to_text())
    for d in (5, 7, 9):
        (work / f"surface_{d}x{d}.code").write_text(catalog.surface_patch(d, d).to_text())


# --- analyze_hgp ----------------------------------------------------------------
#
# merge --analyze and logical-map on hypergraph-product codes with k = 4..44,
# where per-logical-class loops dominate; plus every catalog worked example,
# two of which must be rejected with ClosureViolated. A round has 64 jobs:
# 28 examples below 0.05 s (all but code_switch three times), 20 [[37,4]]
# jobs near 0.08 s (Z) and 0.1 s (X), 8 on [[47,4]] and [[58,16]], and the 8
# [[117,44]] jobs, 4 near 0.85 s (Z) and 4 near 1.2 s (X). p50 falls in the
# middle of the Z [[37,4]] jobs and p90 in the middle of the Z [[117,44]]
# jobs (see the note on quantiles at plan_ladder).

# code -> pair counts. Each (code, orientation, command) draws one count per
# round from its cycle, except for the codes in EVERY_ROUND, whose counts all
# run in every round: [[117,44]] sets p90, which must not depend on the draw.
HGP_PAIR_COUNTS = {"hgp_37_4": (1, 2, 3), "hgp_47_4": (1, 2, 3), "hgp_58_16": (1, 2, 4, 8), "hgp_117_44": (1, 8)}
EVERY_ROUND = ("hgp_117_44",)
VALID_EXAMPLES = (
    "welding", "partial_boundary", "internal_cylinder", "virtual_merge",
    "steane_z_subcode", "steane_x_subcode", "worked_quotient_matrix", "code_switch",
)
REJECTED_EXAMPLES = ("wrong_merge", "steane_invalid_subcode")


def hgp_pairs(code: str, orientation: str, count: int, k: int) -> list[tuple[int, int]]:
    """`count` logical pairs forming a forest on k vertices, so their sums are independent.

    Drawn from a fixed generator per (code, orientation, count): the pairs
    are part of the catalogue, not of the run seed.
    """
    rng = random.Random(f"{code}/{orientation}/{count}")
    root = list(range(k))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        a, b = sorted(rng.sample(range(k), 2))
        if find(a) != find(b):
            root[find(a)] = find(b)
            pairs.append((a, b))
    return pairs


def _analyze_hgp() -> list[Family]:
    fams = []
    for code, counts in HGP_PAIR_COUNTS.items():
        n, k = hgp.expected_parameters(*hgp.HGP_FAMILY[code]())
        for orient in "ZX":
            for cmd in ("merge", "logical-map"):
                jobs = []
                for p in counts:
                    sub = f"{code}.{orient}{p}"
                    argv = ["--json", cmd, f"{{w}}/{code}.code", "--subcode", f"{{w}}/{sub}.sub"]
                    if cmd == "merge":
                        argv.append("--analyze")
                    check = "hgp_analyze" if cmd == "merge" else "hgp_logical_map"
                    jobs.append(Job(f"{sub}.{cmd}", tuple(argv), check, params={"pairs": p, "n": n, "k": k}))
                if code in EVERY_ROUND:
                    fams += [Family(job.id, ((job,),)) for job in jobs]
                else:
                    weight = 5 if code == "hgp_37_4" else 1
                    fams.append(Family(f"{code}.{orient}.{cmd}", tuple((job,) for job in jobs), weight))
    for name in VALID_EXAMPLES + REJECTED_EXAMPLES:
        rejected = name in REJECTED_EXAMPLES
        argv = ("--json", "merge", f"{{w}}/{name}.code", "--subcode", f"{{w}}/{name}.sub", "--analyze")
        job = Job(f"example.{name}", argv, "example", expect_rc=1 if rejected else 0, params={"example": name})
        fams.append(Family(f"example.{name}", ((job,),), 1 if name == "code_switch" else 3))
    return fams


def _subcode_text(orientation: str, gens: np.ndarray, dim2: int, dim0: int) -> str:
    def block(m: np.ndarray, cols: int) -> str:
        rows = "".join("".join(map(str, r)) + "\n" for r in m)
        return f"{m.shape[0]} {cols}\n{rows}"

    empty = np.zeros((0, 0), dtype=np.uint8)
    return (
        f"orientation: {orientation}\n"
        f"v2:\n{block(empty, dim2)}v1:\n{block(gens, gens.shape[1])}v0:\n{block(empty, dim0)}"
    )


def _setup_analyze_hgp(work: Path, cli, csscode, f2linalg, **_) -> None:
    for code_name, build in hgp.HGP_FAMILY.items():
        h1, h2 = build()
        hx, hz = hgp.hypergraph_product(h1, h2)
        hgp.check_product(h1, h2, hx, hz)
        code = csscode.from_parity_checks(f2linalg.F2Matrix(hx), f2linalg.F2Matrix(hz))
        (work / f"{code_name}.code").write_text(code.to_text())
        zl, xl = code.z_logicals.matrix().a, code.x_logicals.matrix().a
        for orient, logicals in (("Z", zl), ("X", xl)):
            for p in HGP_PAIR_COUNTS[code_name]:
                pairs = hgp_pairs(code_name, orient, p, code.k)
                gens = np.array([logicals[a] ^ logicals[b] for a, b in pairs], dtype=np.uint8)
                text = _subcode_text(orient, gens, hz.shape[0], hx.shape[0])
                (work / f"{code_name}.{orient}{p}.sub").write_text(text)
    for name in VALID_EXAMPLES + REJECTED_EXAMPLES:
        rc = cli.main(["--json", "catalog", "export", f"example:{name}", "--dir", str(work)])
        if rc != 0:
            raise RuntimeError(f"catalog export of {name} failed with exit code {rc}")


# --- simulate_small -------------------------------------------------------------
#
# State-vector verification at n <= 20: cnot --simulate writes a plan, then
# simulate --plan reads it back once per outcome pattern. The two 19-qubit
# rungs run the synthesis-and-simulate job only, to keep a round short.
# A round has 75 jobs: 27 below 0.02 s (steane, surface 2x2 and 2x3, three
# times each), 18 toric-2 jobs near 0.03 s, 10 between 0.05 and 0.13 s, the
# 18 jobs of both 15-qubit steane+steane chains near 0.3 s and the two
# 19-qubit rungs. p50 falls in the middle of the toric-2 jobs and p90 in the
# upper middle of the steane+steane jobs, whose times spread smoothly over
# 0.29-0.36 s (see the note on quantiles at plan_ladder).


def _outcome_patterns(ids: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(f"{m}={s}" for m, s in zip(ids, signs)) for signs in itertools.product((1, -1), repeat=len(ids))]


def _sim_chain(spec_id: str, code: str, control: int, target: int | None, channel: dict,
               ancilla: str | None = None, ids: tuple[str, ...] = ("zmerge.zz0",),
               follow_ups: bool = True) -> tuple[Job, ...]:
    extra = ["--simulate"] + (["--ancilla", f"{{w}}/{ancilla}.code"] if ancilla else [])
    head = _cnot(spec_id, code, control, target, *extra, check="cnot_simulate", channel=channel)
    chain = [head]
    if follow_ups:
        for pat in _outcome_patterns(ids):
            argv = ["--json", "simulate", "--plan", f"{{w}}/plans/{spec_id}.json"]
            for o in pat:
                argv += ["--outcome", o]
            tag = ",".join(o.rsplit(".", 1)[1] for o in pat)
            chain.append(Job(f"{spec_id}.sim[{tag}]", tuple(argv), "simulate", params={"channel": channel}))
    return tuple(chain)


def _anc_target(k: int, control: int) -> dict:
    """Channel: CNOT from `control` onto a fresh |0> appended after the k data qubits."""
    return {"kind": "anc_target", "k": k, "control": control}


def _full_cnot(k: int, control: int, target: int) -> dict:
    return {"kind": "cnot", "k": k, "control": control, "target": target}


def _simulate_small() -> list[Family]:
    six = ("zmerge.zz0", "xmerge.xx0", "final.za")
    fams = [
        Family("steane", (_sim_chain("steane.anc_target", "steane", 0, None, _anc_target(1, 0)),), 3),
        Family("steane.steane_anc", (_sim_chain("steane.steane_anc", "steane", 0, None, _anc_target(1, 0),
                                                ancilla="steane"),)),
    ]
    for s, weight in (("2x2", 3), ("2x3", 3), ("3x3", 1)):
        chain = _sim_chain(f"surface{s}.anc_target", f"surface_{s}", 0, None, _anc_target(1, 0))
        fams.append(Family(f"surface{s}", (chain,), weight))
    fams.append(Family("toric2.cnot", tuple(
        _sim_chain(f"toric2.c{a}t{b}", "toric_2", a, b, _full_cnot(2, a, b), ids=six) for a, b in ((0, 1), (1, 0))
    ), 2))
    fams.append(Family("toric2.surface2_anc", tuple(
        _sim_chain(f"toric2.surface2_anc.c{a}", "toric_2", a, None, _anc_target(2, a), ancilla="surface_2x2")
        for a in (0, 1)
    )))
    fams.append(Family("steane2.cnot", tuple(
        _sim_chain(f"steane2.c{a}t{b}", "steane_steane", a, b, _full_cnot(2, a, b), ids=six)
        for a, b in ((0, 1), (1, 0))
    ), 2))
    chain = _sim_chain("surface3x4.anc_target", "surface_3x4", 0, None, _anc_target(1, 0), follow_ups=False)
    fams.append(Family("surface3x4", (chain,)))
    fams.append(Family("toric3", tuple(
        _sim_chain(f"toric3.anc_target.c{a}", "toric_3", a, None, _anc_target(2, a), follow_ups=False)
        for a in (0, 1)
    )))
    switch = Job("switch", ("--json", "switch", "--out", "{w}/plans/switch.json"), "switch", out="plans/switch.json")
    fams.append(Family("switch", ((switch,),)))
    return fams


def _setup_simulate_small(work: Path, catalog, csscode, f2linalg, **_) -> None:
    steane = catalog.steane()
    codes = {
        "steane": steane,
        "surface_2x2": catalog.surface_patch(2, 2),
        "surface_2x3": catalog.surface_patch(2, 3),
        "surface_3x3": catalog.surface_patch(3, 3),
        "surface_3x4": catalog.surface_patch(3, 4),
        "toric_2": catalog.toric(2),
        "toric_3": catalog.toric(3),
    }
    hx, hz = steane.hx.a, steane.hz.a
    pair_hx = np.block([[hx, np.zeros_like(hx)], [np.zeros_like(hx), hx]])
    pair_hz = np.block([[hz, np.zeros_like(hz)], [np.zeros_like(hz), hz]])
    codes["steane_steane"] = csscode.from_parity_checks(f2linalg.F2Matrix(pair_hx), f2linalg.F2Matrix(pair_hz))
    for name, code in codes.items():
        (work / f"{name}.code").write_text(code.to_text())


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Family, ...]
    setup: Callable[..., None]  # setup(work, **modules) writes the input files

    def units(self) -> list[tuple[Job, ...]]:
        """Every variant of every family, each once."""
        return [unit for fam in self.families for unit in fam.variants]

    def jobs(self) -> list[Job]:
        """Every job spec of the catalogue, each once."""
        return [job for unit in self.units() for job in unit]


WORKLOADS = {
    "plan_ladder": Workload("plan_ladder", tuple(_plan_ladder()), _setup_plan_ladder),
    "analyze_hgp": Workload("analyze_hgp", tuple(_analyze_hgp()), _setup_analyze_hgp),
    "simulate_small": Workload("simulate_small", tuple(_simulate_small()), _setup_simulate_small),
}


def prepare(workload: Workload, work: Path, modules: dict) -> None:
    """Write every input file of the workload into `work`."""
    (work / "plans").mkdir(parents=True, exist_ok=True)
    workload.setup(work, **modules)


class JobList:
    """Seeded, endless sequence of rounds over a workload's catalogue."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.offsets = [self.rng.randrange(len(f.variants)) for f in workload.families]
        self._rounds: list[list[Job]] = []

    def round(self, r: int) -> list[Job]:
        """Jobs of round r; the same list every time it is asked for."""
        while len(self._rounds) <= r:
            self._rounds.append(self._draw(len(self._rounds)))
        return self._rounds[r]

    def _draw(self, r: int) -> list[Job]:
        units = []
        for fam, off in zip(self.workload.families, self.offsets):
            for c in range(fam.weight):
                units.append(fam.variants[(off + r * fam.weight + c) % len(fam.variants)])
        self.rng.shuffle(units)
        jobs: list[Job] = []
        for unit in units:
            tail = list(unit[1:])
            self.rng.shuffle(tail)
            jobs.append(unit[0])
            jobs.extend(tail)
        return jobs
