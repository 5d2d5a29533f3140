"""Byte identity of simulation reports: SHA-256 digests of the full
``--json`` stdout of ``cnot --simulate`` and ``simulate --plan``, channel
floats and ``max_deviation`` included.

The digests pin every float the state-vector simulator reports, down to
the sign of a zero, so a kernel rewrite that rounds differently shows up
here. Re-record them only for a deliberate change of the numbers.
"""
import hashlib
import itertools

import pytest

from chainsurg import catalog
from chainsurg.cli import main
from chainsurg.protocols import direct_sum_code

CODES = {
    "steane": catalog.steane,
    "toric2": lambda: catalog.toric(2),
    "steane_steane": lambda: direct_sum_code(catalog.steane(), catalog.steane()),
}

THREE_IDS = ("zmerge.zz0", "xmerge.xx0", "final.za")


def _outcome_args(ids, signs):
    return [arg for m, s in zip(ids, signs) for arg in ("--outcome", f"{m}={s}")]


# case -> (code, cnot arguments, simulate --plan runs)
CASES = {
    "steane_anc_target": ("steane", ["--control", "0"], {"default": []}),
    "toric2_c0t1": (
        "toric2",
        ["--control", "0", "--target", "1"],
        {
            ",".join(map(str, signs)): _outcome_args(THREE_IDS, signs)
            for signs in itertools.product((1, -1), repeat=3)
        },
    ),
    "steane_steane_c0t1": (
        "steane_steane",
        ["--control", "0", "--target", "1"],
        {"zz0=-1": ["--outcome", "zmerge.zz0=-1"]},
    ),
    "toric2_c0t1_no_corrections": (
        "toric2",
        ["--control", "0", "--target", "1"],
        {"xx0=-1": ["--outcome", "xmerge.xx0=-1", "--no-corrections"]},
    ),
}


def _run(capsys, argv) -> str:
    rc = main(["--json"] + argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def report_digests(tmp_path, capsys, case):
    """{label: digest} for the cnot --simulate run and each simulate --plan run."""
    code, cnot_args, runs = CASES[case]
    code_file = tmp_path / f"{code}.code"
    code_file.write_text(CODES[code]().to_text())
    plan_file = tmp_path / "plan.json"
    out = {}
    text = _run(capsys, ["cnot", str(code_file), *cnot_args, "--simulate", "--out", str(plan_file)])
    out["cnot"] = hashlib.sha256(text.encode()).hexdigest()
    for label, extra in runs.items():
        text = _run(capsys, ["simulate", "--plan", str(plan_file), *extra])
        out[f"simulate[{label}]"] = hashlib.sha256(text.encode()).hexdigest()
    return out


DIGESTS = {
    "steane_anc_target": {
        "cnot": "495950b3bce9cdc08be4c9823d2718cb31f8f0ca041f482ea3d1163e9e425074",
        "simulate[default]": "21b59de9446959283827c35566788804d9aa721d2b1724f9ec583ec915125477",
    },
    "toric2_c0t1": {
        "cnot": "be84f226c4bf18d12457fd75a192bb9f00cde4a52c225111ee2bd13e02521a23",
        "simulate[1,1,1]": "eff8874454097c1310711f60716095479394ef0dce7768c028a30733a71c1f75",
        "simulate[1,1,-1]": "1bb6951ee11604ca64c24db798b828053c3162f4336ec3965ab3aaeb5eaa0493",
        "simulate[1,-1,1]": "b3bab9803f625c03d1fc75779165acdf82da32bf9d0e4d6d9cdf35567c875267",
        "simulate[1,-1,-1]": "943a39778c5837cced530a979e973fb12000e45cfa85f736524be3d54303b6b6",
        "simulate[-1,1,1]": "03bb5391adc35019da49a11d734e4025bdc29716d9a120341dd251e6e9e694c0",
        "simulate[-1,1,-1]": "22381be93b4dff436d7e72b53639fec6cec366ad2d745e6766f8335bb70d2f88",
        "simulate[-1,-1,1]": "b0e327270a39ea1894fa890b8ea1c86e7886eb60adc52d1518bd094c2b7e6064",
        "simulate[-1,-1,-1]": "41127b5ff237f75a11ef0b5e40c6599880111a1e1626ccab0e868fb6b0b4978d",
    },
    "steane_steane_c0t1": {
        "cnot": "a6def2b5bbe9ff6374e2068a5bcc793e22c963b7a7e60357827e1dbb785d9f22",
        "simulate[zz0=-1]": "168b0d4b7bd0b8e32e88fd7c67e58bf89be77b9b9c61eb872b648daec7753914",
    },
    "toric2_c0t1_no_corrections": {
        "cnot": "be84f226c4bf18d12457fd75a192bb9f00cde4a52c225111ee2bd13e02521a23",
        "simulate[xx0=-1]": "cc580248eaee4a00f14c39b8208c62f7a14cae0515745973fcfd90a691e3aa18",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_report_bytes(case, tmp_path, capsys):
    assert report_digests(tmp_path, capsys, case) == DIGESTS[case]
