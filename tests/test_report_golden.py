"""Byte identity of report JSON: SHA-256 digests of the ``--json`` stdout
of the analysis, plan and ``propagate`` commands, of the stderr of one
rejected merge and two rejected transports, and of the ``expect.json``
files that ``catalog export`` writes for the worked examples.

The digests pin the serialized bytes, so any change to the reports or to
the JSON layout shows up here. Re-record them only for a deliberate
format change.
"""
import hashlib

import pytest

from chainsurg import catalog, cli, csscode
from chainsurg.cli import main

EXAMPLES = ("welding", "steane_x_subcode", "worked_quotient_matrix", "wrong_merge")
CODES = ("steane", "toric_3", "surface_3")


def _example(name):
    return [f"{{dir}}/{name}.code", "--subcode", f"{{dir}}/{name}.sub"]


# case -> (argv after --json, which stream the digest covers)
CASES = {
    "merge_analyze_welding_z": (["merge", *_example("welding"), "--analyze"], "out"),
    "merge_analyze_steane_x": (["merge", *_example("steane_x_subcode"), "--analyze"], "out"),
    "analyze_worked_quotient": (["analyze", *_example("worked_quotient_matrix")], "out"),
    "merge_analyze_wrong_merge": (["merge", *_example("wrong_merge"), "--analyze"], "err"),
    "logical_map_welding": (["logical-map", *_example("welding")], "out"),
    "logical_map_worked_quotient": (["logical-map", *_example("worked_quotient_matrix")], "out"),
    **{
        f"homology_{code}_d{deg}": (["homology", f"{{dir}}/{code}.code", "--degree", str(deg)], "out")
        for code in ("steane", "toric_3")
        for deg in (0, 1, 2)
    },
    "validate_steane": (["validate", "{dir}/steane.code"], "out"),
    "validate_surface_3": (["validate", "{dir}/surface_3.code"], "out"),
    "catalog_list": (["catalog", "list"], "out"),
    "switch": (["switch"], "out"),
    "cnot_steane_anc_target": (["cnot", "{dir}/steane.code", "--control", "0"], "out"),
    "cnot_toric3_c0t1": (["cnot", "{dir}/toric_3.code", "--control", "0", "--target", "1"], "out"),
    # Pauli transport through a Z-merge and an X-merge; on the X-merge the
    # first two inputs flip a pattern no codespace operator realises
    "propagate_welding_x3": (["propagate", *_example("welding"), "--pauli", "X3"], "out"),
    "propagate_welding_z2x7": (["propagate", *_example("welding"), "--pauli", "Z2 X7"], "out"),
    "propagate_steane_x_x0z3": (
        ["propagate", *_example("steane_x_subcode"), "--pauli", "X0 Z3"], "err"
    ),
    "propagate_steane_x_z2x5y6": (
        ["propagate", *_example("steane_x_subcode"), "--pauli", "Z2 X5 Y6"], "err"
    ),
    "propagate_steane_x_both_sides": (
        ["propagate", *_example("steane_x_subcode"), "--pauli", "X2 X6 Z0 Z1 Z3"], "out"
    ),
}

DIGESTS = {
    "analyze_worked_quotient": "799af2e34af2c72d7a1cd432f1790535b1c7b0cd5b27784b0afbbea9e39294fb",
    "catalog_list": "33c62a4bdd1299f8cfe8dbdd81659d534ea671c0250ebb6a134ca2e17ef32c15",
    "cnot_steane_anc_target": "482afbef5e4213d9b14994452831ae4ecb149ff3543eec15af1b314327dd6e09",
    "cnot_toric3_c0t1": "f7ab622d9c4f503f7daae27f0aecbcb6bb4e95531fe0da565b9935820521e43b",
    "homology_steane_d0": "0231ced90ef0080753232cbe3da6798cb229358a8d431b282d737b62be2eebe6",
    "homology_steane_d1": "257fbb03a76d2d095c3afed60fb65e090672febb27ea1f6fb166c9e00dbc48b7",
    "homology_steane_d2": "577e9114af3e87db6323edf06fe04eea8b589dbf4306d6b2c2a71a98aad2d127",
    "homology_toric_3_d0": "66ea9bd488313d0a910e6e9d71cbedddb91f3c99191f3f3582d2fc00949f5d5b",
    "homology_toric_3_d1": "d5c65d52d5e837b39233fd25a5e417630d8e5767992f9ca0fb08dbb63c65a91d",
    "homology_toric_3_d2": "d62f8b9250bb59a703600823c0bcd407faefa1d93eee93f0946484ceb147ebdb",
    "logical_map_welding": "3bfad04851caee56b5a93447a26ca20d93e2e97ff7d1c7fec5d308904a86f9fb",
    "logical_map_worked_quotient": "c938953b785afb22fea0dfa82c75a27b026d456a3e990dc48f6a4996248a0d33",
    "merge_analyze_steane_x": "0235ba1b93280a4435af0ab15c248397a12e428801e427503f67d643684b1926",
    "merge_analyze_welding_z": "054cfcab8f71075d507a50c378f066d82d9f1257ad29d0f35e77bb233c757220",
    "merge_analyze_wrong_merge": "650d03dc0651adb0f68b2580eb299056d12951363384dfed02502c3624314c85",
    "propagate_steane_x_both_sides": "a18da2dfd9a673e5270c8f874d7020b90dfb86f2167e68c058cba2c18bdaee1b",
    "propagate_steane_x_x0z3": "7690c5309a8ed58271636bbcfd7a1ede93b82fe217d48db5aff86170d82eb237",
    "propagate_steane_x_z2x5y6": "7690c5309a8ed58271636bbcfd7a1ede93b82fe217d48db5aff86170d82eb237",
    "propagate_welding_x3": "f1ca3bb2c597e2b1734dcc0eccd60650b1a0ea1640c33d84b04f164eae20ca97",
    "propagate_welding_z2x7": "37347d3967ab0483c928648d455c425adb239a6dcaa5e7698d030b3be5c46db0",
    "switch": "85841bb5efd6f0461d756a9ac599b66500080c458271e4556c1b15105b068791",
    "validate_steane": "98dda9379420e8832699db877262bc1474f7d1de44d065d1b8c50179ffb47736",
    "validate_surface_3": "53eb7b1cc35284077bcbf7a30232ca709fdf9ec41e434dd698000099f50b71d2",
}

# example name -> digest of its exported expect.json
EXPECT_DIGESTS = {
    "welding": "9ec316ad32bd04efcaef0405f27d5a289cc36e1169b37cf704ef98168c38006b",
    "partial_boundary": "b94c9cb2cbd476e327ddefbc7fe953d958717fd5d3c210c412d27bc5e96a7686",
    "internal_cylinder": "447addc44c34d4f1465f899bde9471eed5f1bbc1e0951fc39fcbe807d0892c8b",
    "wrong_merge": "2c2bd3aa0a91cc6ffe452a3ca6616c29c69cc05ff508b90e7ca5d9ab65fb1e3e",
    "virtual_merge": "4e3edf27d234761a88e540a759758019aca860c3de30519538cd46c52a9a2c19",
    "steane_z_subcode": "d6c5181eb6f29037444a536ef521dd73404d5a36b36d1e99b49c468f088ae114",
    "steane_x_subcode": "d6c5181eb6f29037444a536ef521dd73404d5a36b36d1e99b49c468f088ae114",
    "steane_invalid_subcode": "2c2bd3aa0a91cc6ffe452a3ca6616c29c69cc05ff508b90e7ca5d9ab65fb1e3e",
    "worked_quotient_matrix": "06f1a583ebc389b7a17f520b84c9fccb04716813672660e0de3d9c4857c13515",
    "code_switch": "0747a0d381a8fd28d9ba0ae4d0e1c56588753ab6752412a28ed5dcc7e6386dd3",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("report_golden")
    for name in EXAMPLES:
        assert main(["catalog", "export", f"example:{name}", "--dir", str(d)]) == 0
    for name in CODES:
        (d / f"{name}.code").write_text(catalog.catalog_code(name).to_text())
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, files, capsys):
    argv, stream = CASES[case]
    capsys.readouterr()
    rc = main(["--json"] + [a.format(dir=files) for a in argv])
    captured = capsys.readouterr()
    assert rc == (1 if stream == "err" else 0)
    assert _sha(captured.err if stream == "err" else captured.out) == DIGESTS[case]


@pytest.mark.parametrize("name", catalog.example_names())
def test_expect_json_bytes(name, tmp_path, capsys):
    assert main(["catalog", "export", f"example:{name}", "--dir", str(tmp_path)]) == 0
    assert _sha((tmp_path / f"{name}.expect.json").read_text()) == EXPECT_DIGESTS[name]


def test_switch_distance_needs_no_enumeration(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("switch enumerated every kernel vector")

    monkeypatch.setattr(csscode, "distance_bruteforce", refuse)
    assert not hasattr(cli, "distance_bruteforce")
    capsys.readouterr()
    assert main(["--json", "switch"]) == 0
    assert _sha(capsys.readouterr().out) == DIGESTS["switch"]
