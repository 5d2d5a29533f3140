"""Byte identity of simulation reports on locality plans: SHA-256 digests of
the full ``--json`` stdout of ``cnot --simulate --locality`` and of
``simulate --plan --no-corrections`` in every single-flip branch.

A locality merge measures several low-weight pieces whose boundaries are
not zero, so V0 != 0 and its split carries stabilizer projections. These
are the simulate reports where a split's projections are not empty, so
they pin the ops a split reads off its merge. Re-record the digests only
for a deliberate change of the numbers.
"""
import hashlib
import json

import pytest

from chainsurg import catalog
from chainsurg.cli import main

# case -> (code, cnot arguments)
CASES = {
    "toric2_c0t1_w2": (lambda: catalog.toric(2), ["--control", "0", "--target", "1", "--max-weight", "2"]),
    "surface3_anc_target_w3": (lambda: catalog.surface_patch(3, 3), ["--control", "0", "--max-weight", "3"]),
}


def _run(capsys, argv) -> str:
    rc = main(["--json"] + argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def report_digests(tmp_path, capsys, case) -> dict:
    """{label: digest} for the cnot --simulate run and the simulate --plan run of each single flip."""
    code, cnot_args = CASES[case]
    code_file, plan_file = tmp_path / "data.code", tmp_path / "plan.json"
    code_file.write_text(code().to_text())
    text = _run(capsys, ["cnot", str(code_file), *cnot_args, "--locality", "--simulate", "--out", str(plan_file)])
    out = {"cnot": hashlib.sha256(text.encode()).hexdigest()}
    for mid in json.loads(text)["measurements"]:
        argv = ["simulate", "--plan", str(plan_file), "--outcome", f"{mid}=-1", "--no-corrections"]
        out[f"simulate[{mid}=-1]"] = hashlib.sha256(_run(capsys, argv).encode()).hexdigest()
    return out


DIGESTS = {
    "surface3_anc_target_w3": {
        "cnot": "82fe7a52c645d1f9712baaaadc104031d2007d69bf282bb01355e62cf2b1bc19",
        "simulate[zmerge.zz0=-1]": "8863e22e0cde408cd12a1e58f22a882b688eff8d3e97cf764121f469b3203cf7",
        "simulate[zmerge.zz1=-1]": "8863e22e0cde408cd12a1e58f22a882b688eff8d3e97cf764121f469b3203cf7",
    },
    "toric2_c0t1_w2": {
        "cnot": "429368e98fa1c6fe46bb1af4f820f945d74dec638f81eb9a9709a168e33cd34c",
        "simulate[zmerge.zz0=-1]": "0f4b9b464f8cb2f9bc0338a3cfa27c5723c00eb11f100180be7b17ecfef599f0",
        "simulate[zmerge.zz1=-1]": "0f4b9b464f8cb2f9bc0338a3cfa27c5723c00eb11f100180be7b17ecfef599f0",
        "simulate[xmerge.xx0=-1]": "4ab1fa8f617176efd26c06f563a832400558fdb04adabd1f6c9fabcc8027fb41",
        "simulate[xmerge.xx1=-1]": "4ab1fa8f617176efd26c06f563a832400558fdb04adabd1f6c9fabcc8027fb41",
        "simulate[final.za=-1]": "1b5a282f35d0e6dc64f77b824b6f987af5312f78e077a07a8b37b90aa925939f",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_locality_simulate_report_bytes(case, tmp_path, capsys):
    assert report_digests(tmp_path, capsys, case) == DIGESTS[case]
