"""Tests of the benchmark itself: job lists, HGP inputs, tracer, output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

MODULES = run.load_chainsurg()

import checks  # noqa: E402
import hgp  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REF_SECONDS, WINDOW, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())
SIM = workloads.WORKLOADS["simulate_small"]


def _ids(wl, seed, rounds=4):
    jobs = workloads.JobList(wl, seed)
    return [job.id for r in range(rounds) for job in jobs.round(r)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_lists_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert _ids(wl, 7) == _ids(wl, 7)
    assert _ids(wl, 7) != _ids(wl, 8)
    family_of = {job.id: fam.name for fam in wl.families for unit in fam.variants for job in unit}
    for seed in (7, 8):
        jobs = workloads.JobList(wl, seed)
        mixes = [Counter(family_of[job.id] for job in jobs.round(r)) for r in range(3)]
        assert mixes[0] == mixes[1] == mixes[2]  # every round has the same job mix


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_covers_every_job_spec(name):
    ids = [job.id for job in workloads.WORKLOADS[name].jobs()]
    assert len(ids) == len(set(ids))
    assert set(REFERENCE[name]) == set(ids)


def test_hgp_products():
    params = {name: hgp.expected_parameters(*build()) for name, build in hgp.HGP_FAMILY.items()}
    assert params == {"hgp_37_4": (37, 4), "hgp_47_4": (47, 4), "hgp_58_16": (58, 16), "hgp_117_44": (117, 44)}
    for build in hgp.HGP_FAMILY.values():
        h1, h2 = build()
        hgp.check_product(h1, h2, *hgp.hypergraph_product(h1, h2))
    for L in (2, 3, 4, 5):  # HGP of two cyclic repetition codes is the toric code
        rep = hgp.repetition(L, cyclic=True)
        hx, hz = hgp.hypergraph_product(rep, rep)
        hgp.check_product(rep, rep, hx, hz)
        assert hx.shape[1] == 2 * L * L and hgp.css_k(hx, hz) == 2
    h1, h2 = hgp.HGP_FAMILY["hgp_58_16"]()
    hx, hz = hgp.hypergraph_product(h1, h2)
    hx[0, 0] ^= 1
    with pytest.raises(ValueError):
        hgp.check_product(h1, h2, hx, hz)


def test_hgp_pairs_are_independent():
    for k in (4, 16, 44):
        for count in range(1, min(8, k - 1) + 1):
            pairs = workloads.hgp_pairs("c", "Z", count, k)
            rows = np.zeros((count, k), dtype=np.uint8)
            for i, (a, b) in enumerate(pairs):
                rows[i, a] = rows[i, b] = 1
            assert hgp.gf2_rank(rows) == count


@pytest.fixture(scope="module")
def sim_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("simulate_small")
    workloads.prepare(SIM, work, MODULES)
    return work


def _small_jobs():
    fams = {f.name: f for f in SIM.families}
    return [job for name in ("steane", "toric2.cnot", "switch") for job in fams[name].variants[0]]


def _run(work, jobs, tracer=None):
    return run.run_round(MODULES["cli"], jobs, work, set(), tracer)[0]


def test_tracer_leaves_outputs_unchanged(sim_work):
    import chainsurg.f2linalg
    import chainsurg.protocols

    originals = (chainsurg.f2linalg.rref, chainsurg.protocols.solve, chainsurg.f2linalg.F2Matrix.__matmul__)
    jobs = _small_jobs()
    plain = _run(sim_work, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        assert chainsurg.protocols.solve is not originals[1]  # names copied by `from ... import` are patched too
        traced = _run(sim_work, jobs, tracer)
    finally:
        tracer.uninstall()
    assert (chainsurg.f2linalg.rref, chainsurg.protocols.solve, chainsurg.f2linalg.F2Matrix.__matmul__) == originals
    assert [r.digest for r in plain] == [r.digest for r in traced]
    calls, self_s = tracer.self_times(lambda job: True)
    assert calls["cli.main"] == len(jobs)
    assert calls["f2linalg.rref"] > 0 and calls["simverify.apply_linear"] > 0
    assert all(v >= -1e-6 for v in self_s.values())


def test_checks_pass_and_corrupted_reference_fails(sim_work):
    results = _run(sim_work, _small_jobs())
    reference = dict(REFERENCE["simulate_small"])
    assert checks.check_results(results, reference, sim_work) == {}
    victim = results[0].job.id
    good = reference[victim]
    reference[victim] = ("0" if good[0] != "0" else "1") + good[1:]
    failures = checks.check_results(results, reference, sim_work)
    assert list(failures) == [0]
    assert failures[0][0] == victim and failures[0][1][0].startswith("digest ")


def test_independent_checks_catch_a_wrong_channel(sim_work):
    res = next(r for r in _run(sim_work, _small_jobs()) if r.job.check == "simulate")
    assert checks.independent_errors(res, sim_work) == []
    doc = json.loads(res.stdout)
    doc["channel"] = [row[::-1] for row in doc["channel"]]  # swap the input columns
    res.stdout = json.dumps(doc)
    assert checks.independent_errors(res, sim_work)


def test_expected_channels_are_permutations():
    for spec in ({"kind": "cnot", "k": 2, "control": 0, "target": 1}, {"kind": "anc_target", "k": 2, "control": 1}):
        m = checks.expected_channel(spec)
        assert (m.sum(axis=0) == 1).all() and set(np.unique(m)) == {0.0, 1.0}
    cnot = checks.expected_channel({"kind": "cnot", "k": 2, "control": 0, "target": 1})
    assert cnot[3, 2] == 1 and cnot[2, 3] == 1  # |10> <-> |11>, qubit 0 most significant


def test_host_speed_scaling_follows_the_local_calibration():
    # The host runs at the reference speed, then at half of it; each job is scaled by its own window.
    n = 4 * WINDOW
    cal = [REF_SECONDS] * n + [2 * REF_SECONDS] * n
    cpu = [0.1] * n + [0.2] * n
    scaled = HostSpeed.scaled(cpu, cal)
    assert scaled[:WINDOW] == pytest.approx([0.1] * WINDOW)
    assert scaled[-WINDOW:] == pytest.approx([0.1] * WINDOW)
    assert HostSpeed().calibrate() > 0
