"""CLI behaviors: exit codes, round trips, schema-valid JSON, determinism."""
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from chainsurg import catalog, cli, protocols
from chainsurg.cli import main
from chainsurg.chaincomplex import ChainComplex, homology
from chainsurg.csscode import CssCode
from chainsurg.errors import MalformedInput
from chainsurg.f2linalg import Subspace
from chainsurg.protocols import direct_sum_code, plan_channel, plan_from_json
from chainsurg.surgery import Subcode, induced_logical_matrix, quotient_merge
import test_report_golden as report_golden

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


@pytest.fixture()
def steane_file(tmp_path):
    p = tmp_path / "steane.code"
    p.write_text(catalog.steane().to_text())
    return str(p)


@pytest.fixture()
def toric4_file(tmp_path):
    p = tmp_path / "toric4.code"
    p.write_text(catalog.toric(4).to_text())
    return str(p)


# a toric-4 CNOT plan with its trivial ancilla has 33 qubits
ABOVE_LIMIT = {"error": "DimensionMismatch", "message": "33 qubits exceeds the simulator limit 20"}


@pytest.fixture()
def welding_files(tmp_path):
    rc = main(["catalog", "export", "example:welding", "--dir", str(tmp_path)])
    assert rc == 0
    return str(tmp_path / "welding.code"), str(tmp_path / "welding.sub")


def run_json(capsys, argv):
    rc = main(["--json"] + argv)
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return rc, doc


class TestValidate:
    def test_steane(self, steane_file, capsys):
        rc = main(["validate", steane_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip() == "valid CSS code [[7,1,?]]"

    def test_json_schema(self, steane_file, capsys):
        rc, doc = run_json(capsys, ["validate", steane_file])
        assert rc == 0 and doc["n"] == 7 and doc["k"] == 1

    def test_invalid_code_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        bad.write_text("hx:\n1 3\n110\nhz:\n1 3\n100\n")
        rc = main(["validate", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        payload = json.loads(err)
        assert payload["error"] == "NonCommutingChecks"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2


class TestMergeCommands:
    def test_merge_analyze_human(self, welding_files, capsys):
        code, sub = welding_files
        rc = main(["merge", code, "--subcode", sub, "--analyze"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "killed classes (1): [[1, 1]]" in out

    def test_merge_json_schema(self, welding_files, capsys):
        code, sub = welding_files
        rc, doc = run_json(capsys, ["merge", code, "--subcode", sub])
        assert rc == 0
        assert doc["analysis"]["killed"] == [[1, 1]]

    def test_merge_out_readable(self, welding_files, tmp_path, capsys):
        code, sub = welding_files
        out_file = tmp_path / "merged.code"
        rc = main(["merge", code, "--subcode", sub, "--out", str(out_file)])
        capsys.readouterr()
        assert rc == 0
        merged = CssCode.from_text(out_file.read_text())
        assert (merged.n, merged.k) == (13, 1)

    def test_plain_merge_runs_no_analysis(self, welding_files, capsys, monkeypatch):
        # human output without --analyze prints nothing the analysis computes
        import chainsurg.cli

        def unused(merge):
            raise AssertionError("analyze_merge ran for output that does not use it")

        monkeypatch.setattr(chainsurg.cli, "analyze_merge", unused)
        code, sub = welding_files
        assert main(["merge", code, "--subcode", sub]) == 0
        assert capsys.readouterr().out.startswith("merged code: degree-1 dim 13")

    def test_wrong_merge_exits_1(self, tmp_path, capsys):
        rc = main(["catalog", "export", "example:wrong_merge", "--dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rc = main(
            [
                "merge",
                str(tmp_path / "wrong_merge.code"),
                "--subcode",
                str(tmp_path / "wrong_merge.sub"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert json.loads(err)["error"] == "ClosureViolated"

    def test_analyze_matches_merge_analyze(self, welding_files, capsys):
        code, sub = welding_files
        rc, doc = run_json(capsys, ["analyze", code, "--subcode", sub])
        assert rc == 0
        assert doc == run_json(capsys, ["merge", code, "--subcode", sub, "--analyze"])[1]
        assert main(["analyze", code, "--subcode", sub]) == 0
        assert "killed classes (1): [[1, 1]]" in capsys.readouterr().out

    def test_logical_map(self, welding_files, capsys):
        code, sub = welding_files
        rc, doc = run_json(capsys, ["logical-map", code, "--subcode", sub])
        assert rc == 0
        assert len(doc["matrix"]) == 1 and doc["matrix"][0] == [1, 1]


def per_entry_logical_map_text(code_path, sub_path) -> str:
    """logical-map's human text as first written: one ``str`` per entry."""
    code = CssCode.from_text(Path(code_path).read_text())
    merge = quotient_merge(code.complex, Subcode.from_text(Path(sub_path).read_text(), code.complex))
    mat = induced_logical_matrix(merge, homology(merge.source, 1), homology(merge.quotient, 1))
    return "\n".join("".join(str(b) for b in row) for row in mat.to_lists()) + "\n"


def per_entry_homology_text(code: CssCode, degree: int) -> str:
    """homology's human text as first written: one ``str`` per entry of each representative."""
    h = homology(code.complex, degree)
    reps = "\n".join("".join(map(str, r.tolist())) for r in h.representatives)
    return f"H_{degree} dimension {h.dim}\n" + reps + "\n"


VALID_EXAMPLES = [n for n in catalog.example_names() if n not in ("wrong_merge", "steane_invalid_subcode")]


class TestHumanText:
    @pytest.mark.parametrize("name", VALID_EXAMPLES)
    def test_logical_map_matches_per_entry_text(self, name, tmp_path, capsys):
        assert main(["catalog", "export", f"example:{name}", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code, sub = str(tmp_path / f"{name}.code"), str(tmp_path / f"{name}.sub")
        assert main(["logical-map", code, "--subcode", sub]) == 0
        assert capsys.readouterr().out == per_entry_logical_map_text(code, sub)

    @pytest.mark.parametrize("name", catalog.catalog_names())
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_homology_matches_per_entry_text(self, name, degree, tmp_path, capsys):
        code = catalog.catalog_code(name)
        path = tmp_path / "code"
        path.write_text(code.to_text())
        assert main(["homology", str(path), "--degree", str(degree)]) == 0
        assert capsys.readouterr().out == per_entry_homology_text(code, degree)

    def test_json_builds_no_human_text(self, welding_files, steane_file, monkeypatch, capsys):
        def unused(a):
            raise AssertionError("human text built under --json")

        monkeypatch.setattr(cli, "bit_lines", unused)
        code, sub = welding_files
        assert run_json(capsys, ["logical-map", code, "--subcode", sub])[0] == 0
        assert run_json(capsys, ["homology", steane_file])[0] == 0


class TestPlanCommands:
    def test_cnot_simulate(self, steane_file, capsys):
        rc = main(["cnot", steane_file, "--control", "0", "--simulate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logical channel = CNOT (max deviation" in out

    def test_cnot_json(self, steane_file, capsys):
        rc, doc = run_json(capsys, ["cnot", steane_file, "--control", "0", "--simulate"])
        assert rc == 0
        assert doc["max_deviation"] < 1e-9

    def test_cnot_plan_file(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        rc = main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(plan_file.read_text())
        assert doc["schema"] == "chainsurg-plan/1"

    def test_switch(self, capsys):
        rc, doc = run_json(capsys, ["switch"])
        assert rc == 0
        assert doc["merged"] == {"n": 15, "k": 1, "d": 3}
        assert doc["p1_star"] == [[1, 1]]
        assert doc["round_trip_identity"] is True

    @pytest.mark.parametrize(
        "key, coords",
        [("X0", ([1, 0], [1, 0])), ("Z0", ([1, 0], [1, 0])), ("X0", ([1, 1], [0, 0]))],
        ids=["X0.z", "Z0.x", "X0.x"],
    )
    def test_switch_checks_both_coordinates(self, capsys, monkeypatch, key, coords):
        real = protocols.plan_symplectic_action

        def action(plan):
            out = real(plan)
            assert [list(c) for c in out[key]] != [list(c) for c in coords]
            return {**out, key: tuple(np.array(c, dtype=np.uint8) for c in coords)}

        monkeypatch.setattr(cli, "plan_symplectic_action", action)
        rc, doc = run_json(capsys, ["switch"])
        assert rc == 0 and doc["round_trip_identity"] is False
        assert main(["switch"]) == 0
        assert capsys.readouterr().out.endswith("round-trip logical map NOT identity\n")

    def test_simulate_with_outcome(self, steane_file, capsys):
        rc, doc = run_json(
            capsys,
            [
                "simulate",
                steane_file,
                "--control",
                "0",
                "--outcome",
                "zmerge.zz0=-1",
            ],
        )
        assert rc == 0
        assert doc["max_deviation"] < 1e-9
        assert doc["corrections"]  # a correction was applied

    def test_cnot_non_integer_embedded_ancilla(self, steane_file, capsys):
        rc = main(["cnot", steane_file, "--control", "0", "--ancilla", "embedded:abc"])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert payload["error"] == "ChainsurgError"
        assert "embedded:abc" in payload["message"]

    def test_cnot_negative_embedded_ancilla(self, tmp_path, capsys):
        code = tmp_path / "toric3.code"
        code.write_text(catalog.toric(3).to_text())
        rc = main(["cnot", str(code), "--control", "0", "--ancilla", "embedded:-1"])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert payload["error"] == "DimensionMismatch"
        assert "-1" in payload["message"] and "0..1" in payload["message"]

    def test_cnot_simulate_above_the_qubit_limit(self, toric4_file, capsys):
        rc = main(["cnot", toric4_file, "--control", "0", "--target", "1", "--simulate"])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        assert json.loads(captured.err) == ABOVE_LIMIT

    def test_simulate_plan_above_the_qubit_limit(self, toric4_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        argv = ["cnot", toric4_file, "--control", "0", "--target", "1", "--out", str(plan_file)]
        assert main(argv) == 0
        capsys.readouterr()
        rc = main(["simulate", "--plan", str(plan_file)])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        assert json.loads(captured.err) == ABOVE_LIMIT

    def test_no_corrections_simulates_a_plan_it_would_not_correct(self, tmp_path, capsys):
        code = tmp_path / "toric2.code"
        code.write_text(catalog.toric(2).to_text())
        plan_file = tmp_path / "loc.json"
        argv = ["cnot", str(code), "--control", "0", "--target", "1", "--out", str(plan_file)]
        assert main(argv + ["--locality", "--max-weight", "2"]) == 0
        capsys.readouterr()
        simulate = ["simulate", "--plan", str(plan_file), "--outcome", "zmerge.zz0=-1"]
        rc, doc = run_json(capsys, simulate + ["--no-corrections"])
        assert rc == 0 and doc["corrections"] == []
        plan = plan_from_json(plan_file.read_text())
        channel = plan_channel(plan, {"zmerge.zz0": -1}, corrected=False)
        assert np.array_equal(np.array(doc["channel"]), np.stack([channel.real, channel.imag], axis=-1))
        assert main(simulate + ["--no-corrections"]) == 0
        assert capsys.readouterr().out.endswith("corrections applied: none\n")
        # with corrections asked for, the plan is still refused
        assert main(simulate) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "CorrectionUnavailable",
            "message": "plan carries no class correction rule",
        }

    @pytest.mark.parametrize("extra", [[], ["--no-corrections"]])
    def test_simulate_computes_the_correction_once(self, tmp_path, extra, monkeypatch, capsys):
        code = tmp_path / "toric2.code"
        code.write_text(catalog.toric(2).to_text())
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", str(code), "--control", "0", "--target", "1", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        calls, real = [], protocols._outcome_correction
        monkeypatch.setattr(
            protocols, "_outcome_correction", lambda plan, ids: calls.append(ids) or real(plan, ids)
        )
        simulate = ["simulate", "--plan", str(plan_file), "--outcome", "zmerge.zz0=-1"]
        rc, doc = run_json(capsys, simulate + extra)
        assert rc == 0 and calls == [frozenset({"zmerge.zz0"})]
        plan = plan_from_json(plan_file.read_text())
        outcomes = {m: 1 for m in plan.measurement_ids()} | {"zmerge.zz0": -1}
        labels = [c.label() for c in protocols.measurement_correction(plan, outcomes)]
        assert doc["corrections"] == labels and labels

    @pytest.mark.parametrize("outcome", ["bogus=-1", "zmerge.zz0=abc", "zmerge.zz0=2"])
    def test_simulate_bad_outcome_exits_1(self, steane_file, outcome, capsys):
        rc = main(["simulate", steane_file, "--control", "0", "--outcome", outcome])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize("defect", ["merge_without_split", "inserts_length", "inserts_mixed"])
    def test_simulate_malformed_plan_exits_1(self, tmp_path, defect, capsys):
        code = tmp_path / "two.code"
        patch = catalog.surface_patch(2, 2)
        code.write_text(direct_sum_code(patch, patch).to_text())
        plan_file = tmp_path / "plan.json"
        argv = ["cnot", str(code), "--control", "0", "--target", "1", "--out", str(plan_file)]
        assert main(argv + ["--locality"]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        merge = doc["steps"][1]
        if defect == "merge_without_split":
            del doc["steps"][2]
        elif defect == "inserts_length":
            merge["branch_inserts"].append(None)
        else:
            n = len(doc["base_hx"][0])
            merge["branch_inserts"][0] = {"x": [0] * n, "z": [0] * n}
        plan_file.write_text(json.dumps(doc))
        rc = main(["simulate", "--plan", str(plan_file)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


class TestMalformedInputs:
    """Each unreadable or malformed input file ends in exit 1 with a JSON error naming it."""

    def _error(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert payload["error"] == "MalformedInput"
        return payload

    def test_code_without_hz_section(self, tmp_path, capsys):
        bad = tmp_path / "nohz.code"
        bad.write_text("hx:\n1 3\n110\n")
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload["file"] == str(bad) and payload["section"] == "hz"

    def test_bad_matrix_header(self, tmp_path, capsys):
        bad = tmp_path / "header.code"
        bad.write_text("hx:\nx y\n110\nhz:\n0 3\n")
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload["file"] == str(bad) and payload["section"] == "hx"
        assert "x y" in payload["message"]

    @pytest.mark.parametrize("which", ["code", "subcode", "plan"])
    def test_missing_file(self, tmp_path, steane_file, which, capsys):
        missing = str(tmp_path / "missing")
        argv = {
            "code": ["validate", missing],
            "subcode": ["merge", steane_file, "--subcode", missing],
            "plan": ["simulate", "--plan", missing],
        }[which]
        assert self._error(capsys, argv)["file"] == missing

    def test_plan_without_base_hx(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        del doc["base_hx"]
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload["file"] == str(plan_file) and payload["section"] == "base_hx"

    def test_plan_with_branch_insert_flipping_no_slot(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        doc["steps"][1]["branch_inserts"][0]["x"] = doc["base_hx"][0]
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload["file"] == str(plan_file) and payload["section"] == "steps[1].branch_inserts"
        assert "branch insert 0" in payload["message"]

    MALFORMED_FIELDS = [
        (("base_hx",), 5, "base_hx"),
        (("base_hz",), [[0, 1, 2, 0, 0, 0, 0, 0]], "base_hz"),
        (("base_zl",), [[1, 1], [1]], "base_zl"),
        (("control",), "0", "control"),
        (("name",), 7, "name"),
        (("locality",), 0, "locality"),
        (("steps",), {"kind": "merge"}, "steps"),
        (("steps", 0, "state"), "bogus", "steps[0].state"),
        (("steps", 1, "v1"), [["a"]], "steps[1].v1"),
        (("steps", 1, "measurement_ids"), [3], "steps[1].measurement_ids"),
        (("steps", 1, "pivot_qubits"), [1.5], "steps[1].pivot_qubits"),
        (("steps", 1, "branch_inserts", 0), 5, "steps[1].branch_inserts[0]"),
        (("steps", 2, "logical_matrix"), "11", "steps[2].logical_matrix"),
        (("steps", 1, "p1"), [[1]], "steps[1].p1"),
        (("correction_rules", "zmerge.zz0", "x"), [0.5], "correction_rules.zmerge.zz0.x"),
        # a Pauli not on the base code's 8 qubits
        (("steps", 1, "branch_inserts", 0, "x"), [1, 0], "steps[1].branch_inserts[0].x"),
        (("correction_rules", "zmerge.zz0", "z"), [0] * 9, "correction_rules.zmerge.zz0.z"),
        # a correction rule for a measurement no merge makes
        (("correction_rules", "bogus"), {"x": [0] * 8, "z": [0] * 8}, "correction_rules.bogus"),
        (("class_correction",), {"x": [1], "z": [0]}, "class_correction.x"),
        # a derived field other than the value the loader rebuilds
        (("steps", 0, "logical_index"), 0, "steps[0].logical_index"),
        (("steps", 1, "logical_matrix"), [[1, 0]], "steps[1].logical_matrix"),
        (("steps", 2, "orientation"), "Z", "steps[2].orientation"),
        # well typed, out of range
        (("steps",), [], "steps"),
        (("steps", 0, "ancilla_n"), -1, "steps[0].ancilla_n"),
        (("ancilla_index",), 5, "ancilla_index"),
        (("data_indices",), [7], "data_indices"),
        (("control",), 1, "control"),
        # well typed, contradicting another field (a pytest.param id tells
        # apart cases whose section repeats another's)
        (("target",), 0, "target"),
        pytest.param(("data_indices",), [0, 0], "data_indices", id="data_indices.repeated"),
        pytest.param(("data_indices",), [0, 1], "data_indices", id="data_indices.ancilla"),
        (("steps", 0, "ancilla_n"), None, "steps[0].ancilla_hx"),
    ]

    @pytest.mark.parametrize(
        "field, value, section", MALFORMED_FIELDS, ids=[case[2] for case in MALFORMED_FIELDS]
    )
    def test_plan_with_malformed_field(self, steane_file, tmp_path, capsys, field, value, section):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        holder = doc
        for key in field[:-1]:
            holder = holder[key]
        holder[field[-1]] = value
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload["file"] == str(plan_file) and payload["section"] == section

    # edits of a toric-2 CNOT plan (init, Z-merge, X-split, X-merge, Z-split,
    # measure_logical, apply_correction) -> (error, section)
    TARGET_PLAN_EDITS = {
        "measure_pauli": ({(5, "pauli", "x"): [0, 0, 1]}, ("MalformedInput", "steps[5].pauli.x")),
        "correction_pauli": ({(6, "pauli", "z"): [1] * 10}, ("MalformedInput", "steps[6].pauli.z")),
        "pivot_qubits": ({(3, "pivot_qubits"): [99]}, ("MalformedInput", "steps[3].pivot_qubits")),
        "measurement_count": (
            {(3, "measurement_ids"): ["xmerge.xx0", "xmerge.xx1"]},
            ("MalformedInput", "steps[3].measurement_ids"),
        ),
        "no_measurements": (
            {(3, "measurement_ids"): [], (3, "branch_inserts"): []},
            ("DimensionMismatch", None),
        ),
        "split_matrix": (
            {(4, "logical_matrix"): [[1, 0], [0, 1], [1, 1]]},
            ("MalformedInput", "steps[4].logical_matrix"),
        ),
        "unmeasured_condition": (
            {(6, "condition"): "zmerge.zz9"}, ("MalformedInput", "steps[6].condition")
        ),
        "duplicate_id": (
            {(5, "measurement_id"): "xmerge.xx0", (6, "condition"): "xmerge.xx0"},
            ("MalformedInput", "steps"),
        ),
    }

    @pytest.mark.parametrize("case", TARGET_PLAN_EDITS)
    def test_target_plan_with_edited_fields(self, tmp_path, capsys, case):
        edits, expected = self.TARGET_PLAN_EDITS[case]
        code = tmp_path / "toric2.code"
        code.write_text(catalog.toric(2).to_text())
        plan_file = tmp_path / "plan.json"
        argv = ["cnot", str(code), "--control", "0", "--target", "1", "--out", str(plan_file)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        for (step, *keys), value in edits.items():
            holder = doc["steps"][step]
            for key in keys[:-1]:
                holder = holder[key]
            holder[keys[-1]] = value
        plan_file.write_text(json.dumps(doc))
        rc = main(["simulate", "--plan", str(plan_file)])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert (payload["error"], payload.get("section")) == expected

    @pytest.mark.parametrize("data", [[0], [1, 0]])
    def test_plan_with_edited_data_indices(self, tmp_path, capsys, data):
        # plan_encoders simulates every logical but the ancilla, whatever the field says
        code = tmp_path / "toric2.code"
        code.write_text(catalog.toric(2).to_text())
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", str(code), "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        assert (doc["ancilla_index"], doc["data_indices"]) == (2, [0, 1])
        doc["data_indices"] = data
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload == {
            "error": "MalformedInput",
            "message": "field 'data_indices' differs from the value rebuilt from the plan",
            "file": str(plan_file),
            "section": "data_indices",
        }

    def test_plan_with_edited_p1(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        doc = json.loads(plan_file.read_text())
        assert doc["steps"][1]["kind"] == "merge"
        doc["steps"][1]["p1"][0][0] ^= 1
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload["file"] == str(plan_file) and payload["section"] == "steps[1].p1"
        assert "p1" in payload["message"]


class TestNothingSilentlyAccepted:
    """Input that would otherwise be ignored or overwritten ends in exit 1 with a JSON error."""

    def _error(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        return json.loads(captured.err)

    @pytest.mark.parametrize(
        "edit, section, message",
        [
            (lambda t: t.replace("xl:", "x1:"), "x1", "unknown section 'x1:', expected one of hx, hz, zl, xl"),
            (lambda t: t + "hx:\n1 7\n1111111\n", "hx", "section 'hx:' is given twice"),
        ],
        ids=["unknown", "repeated"],
    )
    def test_code_file_sections(self, tmp_path, capsys, edit, section, message):
        bad = tmp_path / "bad.code"
        bad.write_text(edit(catalog.steane().to_text()))
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload == {"error": "MalformedInput", "message": message, "file": str(bad), "section": section}

    @pytest.mark.parametrize(
        "edit, section, message",
        [
            (
                lambda t: t.replace("hz:\n3 7\n1110100\n0011110\n0100111", "hz:\n3 6\n111010\n001111\n010011"),
                "hz",
                "hx has 7 columns, hz has 6",
            ),
            (lambda t: t.replace("zl:\n1 7\n0001011", "zl:\n1 5\n00010"), "zl", "expected length 7, got 5"),
            (lambda t: t.replace("xl:\n1 7\n1011000", "xl:\n0 5"), "xl", "expected length 7, got 5"),
        ],
        ids=["hz", "zl", "xl"],
    )
    def test_code_file_section_widths(self, tmp_path, capsys, edit, section, message):
        text = catalog.steane().to_text()
        bad = tmp_path / "bad.code"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload == {"error": "MalformedInput", "message": message, "file": str(bad), "section": section}

    @pytest.mark.parametrize(
        "text, section, message",
        [
            ("orientation: Y\nv2:\n0 3\nv1:\n0 7\nv0:\n0 3\n", "orientation", "orientation must be 'Z' or 'X'"),
            ("v2:\n0 3\nv1:\n1 6\n111000\nv0:\n0 3\n", "v1", "v1 has 6 columns, expected 7"),
            ("orientation: X\nv2:\n0 3\nv1:\n0 7\nv0:\n1 4\n1000\n", "v0", "v0 has 4 columns, expected 3"),
        ],
        ids=["orientation", "v1", "v0"],
    )
    def test_subcode_file_section_widths(self, steane_file, tmp_path, capsys, text, section, message):
        sub = tmp_path / "bad.sub"
        sub.write_text(text)
        payload = self._error(capsys, ["merge", steane_file, "--subcode", str(sub)])
        assert payload == {"error": "MalformedInput", "message": message, "file": str(sub), "section": section}

    def test_subcode_file_sections(self, welding_files, capsys):
        code, sub = welding_files
        text = Path(sub).read_text()
        Path(sub).write_text(text + "orientation: X\n")
        payload = self._error(capsys, ["merge", code, "--subcode", sub])
        assert payload == {
            "error": "MalformedInput",
            "message": "section 'orientation:' is given twice",
            "file": sub,
            "section": "orientation",
        }
        Path(sub).write_text(text.replace("v0:", "w0:"))
        payload = self._error(capsys, ["merge", code, "--subcode", sub])
        assert payload["section"] == "w0" and payload["file"] == sub
        assert payload["message"] == "unknown section 'w0:', expected one of orientation, v2, v1, v0"

    def test_complex_file_sections(self):
        text = catalog.steane().complex.to_text()
        assert ChainComplex.from_text(text).dim1 == 7
        with pytest.raises(MalformedInput, match="unknown section 'hx:'") as err:
            ChainComplex.from_text(text + "hx:\n0 7\n")
        assert err.value.section == "hx"

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["{code}"], "a code"),
            (["--control", "0"], "--control"),
            (["--target", "1"], "--target"),
            (["--ancilla", "trivial"], "--ancilla"),
            (["{code}", "--control", "0", "--ancilla", "embedded:1"], "a code, --control, --ancilla"),
        ],
    )
    def test_simulate_plan_refuses_what_the_plan_fixes(self, steane_file, tmp_path, capsys, extra, named):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        extra = [steane_file if a == "{code}" else a for a in extra]
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)] + extra)
        assert payload == {
            "error": "ChainsurgError",
            "message": f"simulate --plan takes no {named}: the plan fixes them",
        }

    @pytest.mark.parametrize("second", ["zmerge.zz0=-1", "zmerge.zz0=1"])
    def test_repeated_outcome_id(self, steane_file, capsys, second):
        argv = ["simulate", steane_file, "--control", "0", "--outcome", "zmerge.zz0=1", "--outcome", second]
        payload = self._error(capsys, argv)
        assert payload == {"error": "ChainsurgError", "message": "--outcome 'zmerge.zz0' is given twice"}


class TestUnreachedErrorPaths:
    """Error paths that no other test reaches: each asserts the exit code and the payload."""

    def _error(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        return json.loads(captured.err)

    @pytest.fixture()
    def plan_doc(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        capsys.readouterr()
        return plan_file, json.loads(plan_file.read_text())

    def test_plan_not_valid_json(self, plan_doc, capsys):
        plan_file, _ = plan_doc
        plan_file.write_text("{")
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload["error"] == "MalformedInput" and payload["file"] == str(plan_file)
        assert payload["message"].startswith("not valid JSON: ") and "section" not in payload

    @pytest.mark.parametrize("text, shown", [("[]", "None"), ('{"schema": "other/1"}', "'other/1'")])
    def test_not_a_plan_document(self, plan_doc, capsys, text, shown):
        plan_file, _ = plan_doc
        plan_file.write_text(text)
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        assert payload == {"error": "DimensionMismatch", "message": f"not a plan document: {shown}"}

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (
                lambda doc: doc["steps"].__setitem__(1, 5),
                {"error": "MalformedInput", "message": "a step must be an object", "section": "steps[1]"},
            ),
            (
                lambda doc: doc["steps"].append({"kind": "teleport"}),
                {"error": "DimensionMismatch", "message": "unknown plan step kind 'teleport'"},
            ),
            (
                lambda doc: doc.update(base_hx=[], base_hz=[], base_zl=[], base_xl=[]),
                {"error": "MalformedInput", "message": "base code matrices are all empty", "section": "base_hx"},
            ),
        ],
        ids=["step_not_object", "unknown_kind", "empty_base"],
    )
    def test_malformed_plan(self, plan_doc, capsys, edit, expected):
        plan_file, doc = plan_doc
        assert [s["kind"] for s in doc["steps"]] == ["init_ancilla", "merge", "split"]
        edit(doc)
        plan_file.write_text(json.dumps(doc))
        payload = self._error(capsys, ["simulate", "--plan", str(plan_file)])
        if expected["error"] == "MalformedInput":
            expected = {**expected, "file": str(plan_file)}
        assert payload == expected

    def test_input_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.code"
        bad.write_bytes(b"hx:\n1 2\n11\n\xe9\n")
        payload = self._error(capsys, ["validate", str(bad)])
        assert payload == {"error": "MalformedInput", "message": "input is not UTF-8 text", "file": str(bad)}

    def test_simulate_without_plan_or_control(self, steane_file, capsys):
        expected = {"error": "ChainsurgError", "message": "simulate needs either --plan or a code with --control"}
        assert self._error(capsys, ["simulate"]) == expected
        assert self._error(capsys, ["simulate", steane_file]) == expected

    def test_catalog_export_without_name(self, capsys):
        payload = self._error(capsys, ["catalog", "export"])
        assert payload == {"error": "ChainsurgError", "message": "catalog export needs a name"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["catalog", "list", "extra", "--out", "F", "--dir", "D"],
                "catalog list takes no name 'extra', --out, --dir",
            ),
            (
                ["catalog", "export", "steane", "--dir", "D"],
                "catalog export steane takes no --dir: a code goes to --out or stdout",
            ),
            (
                ["catalog", "export", "example:welding", "--out", "w.txt"],
                "catalog export example:welding takes no --out: an example's files go to --dir",
            ),
        ],
    )
    def test_catalog_refuses_arguments_it_would_ignore(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert self._error(capsys, argv) == {"error": "ChainsurgError", "message": message}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("weight", ["5", "-3", "0"])
    def test_cnot_refuses_max_weight_without_locality(self, steane_file, capsys, weight):
        argv = ["cnot", steane_file, "--control", "0", "--max-weight", weight]
        assert self._error(capsys, argv) == {
            "error": "ChainsurgError",
            "message": "cnot takes no --max-weight without --locality",
        }

    @pytest.mark.parametrize("weight", ["-3", "0"])
    def test_cnot_locality_uses_the_max_weight_given(self, steane_file, capsys, weight):
        argv = ["cnot", steane_file, "--control", "0", "--locality", "--max-weight", weight]
        assert self._error(capsys, argv) == {
            "error": "DecompositionInfeasible",
            "message": "max_weight must be at least 1",
        }

    def test_catalog_export_to_stdout(self, capsys):
        assert main(["catalog", "export", "steane"]) == 0
        assert capsys.readouterr().out == catalog.steane().to_text()

    @pytest.mark.parametrize("target", ["1", "-1"])
    def test_cnot_target_out_of_range(self, steane_file, capsys, target):
        payload = self._error(capsys, ["cnot", steane_file, "--control", "0", "--target", target])
        assert payload == {"error": "DimensionMismatch", "message": f"target index {target} out of range for k=1"}

    def test_provided_ancilla_without_logicals(self, steane_file, tmp_path, capsys):
        k0 = tmp_path / "k0.code"
        k0.write_text("hx:\n1 2\n11\nhz:\n1 2\n11\n")
        payload = self._error(capsys, ["cnot", steane_file, "--control", "0", "--ancilla", str(k0)])
        assert payload == {"error": "DimensionMismatch", "message": "ancilla code must carry a logical qubit"}

    def test_injective_flag_in_human_analysis(self, tmp_path, capsys):
        assert main(["catalog", "export", "example:partial_boundary", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code, sub = (str(tmp_path / f"partial_boundary.{ext}") for ext in ("code", "sub"))
        assert main(["merge", code, "--subcode", sub, "--analyze"]) == 0
        assert "guaranteed flags: injective\n" in capsys.readouterr().out


class TestUnwritableOutput:
    """A write to a path that cannot be written ends in exit 1 with a JSON error naming it."""

    def _error(self, capsys, argv, path):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert payload["error"] == "ChainsurgError" and str(path) in payload["message"]

    def test_cnot_out(self, steane_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "plan.json"
        self._error(capsys, ["cnot", steane_file, "--control", "0", "--out", str(out)], out)

    def test_switch_out(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "switch.json"
        self._error(capsys, ["--json", "switch", "--out", str(out)], out)

    def test_merge_out(self, welding_files, tmp_path, capsys):
        code, sub = welding_files
        out = tmp_path / "nodir" / "merged.code"
        self._error(capsys, ["merge", code, "--subcode", sub, "--out", str(out)], out)

    def test_catalog_export_out(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "steane.code"
        self._error(capsys, ["catalog", "export", "steane", "--out", str(out)], out)

    def test_catalog_export_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["catalog", "export", "example:welding", "--dir", str(blocker / "sub")]
        self._error(capsys, argv, blocker)


class TestCatalogCommands:
    def test_list(self, capsys):
        rc, doc = run_json(capsys, ["catalog", "list"])
        assert rc == 0
        assert "steane" in doc["names"]
        assert "example:welding" in doc["names"]

    def test_export_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rm15.code"
        rc = main(["catalog", "export", "reed_muller_15", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        code = CssCode.from_text(out.read_text())
        assert (code.n, code.k) == (15, 1)

    def test_deterministic_output(self, steane_file, capsys):
        main(["--json", "homology", steane_file])
        first = capsys.readouterr().out
        main(["--json", "homology", steane_file])
        second = capsys.readouterr().out
        assert first == second


class TestPropagate:
    def test_z_through_welding(self, welding_files, capsys):
        code, sub = welding_files
        rc, doc = run_json(capsys, ["propagate", code, "--subcode", sub, "--pauli", "Z2"])
        assert rc == 0
        assert doc["flips"] == []

    def test_x_flips_record(self, welding_files, capsys):
        code, sub = welding_files
        # qubit 3 is the first merged boundary qubit of the first patch
        rc, doc = run_json(capsys, ["propagate", code, "--subcode", sub, "--pauli", "X3"])
        assert rc == 0
        assert doc["flips"]

    @pytest.mark.parametrize("term", ["Xa", "X", "X99", "X16", "X-1"])
    def test_bad_term_exits_1(self, welding_files, term, capsys):
        code, sub = welding_files
        rc = main(["propagate", code, "--subcode", sub, "--pauli", f"Z2 {term}"])
        captured = capsys.readouterr()
        assert rc == 1 and not captured.out
        payload = json.loads(captured.err)
        assert payload["error"] == "ChainsurgError"
        assert repr(term) in payload["message"] and "0..15" in payload["message"]


def run_captured(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, a usage error included."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ordered pairs of argv that one parser parses one after the other
PARSE_PAIRS = {
    "outcome_then_none": (
        ["simulate", "--plan", "{plan}", "--outcome", "zmerge.zz0=-1"],
        ["simulate", "--plan", "{plan}"],
    ),
    "analyze_then_merge": (["analyze", "{code}", "--subcode", "{sub}"], ["merge", "{code}", "--subcode", "{sub}"]),
    "locality_then_plain": (
        ["cnot", "{steane}", "--control", "0", "--locality", "--max-weight", "3"],
        ["cnot", "{steane}", "--control", "0"],
    ),
    "json_then_plain": (["--json", "homology", "{steane}"], ["homology", "{steane}"]),
    "usage_error_then_valid": (["validate"], ["validate", "{steane}"]),
}


class TestOneParserPerProcess:
    @pytest.mark.parametrize("pair", sorted(PARSE_PAIRS))
    def test_no_leak_between_parses(self, pair, steane_file, welding_files, tmp_path, capsys):
        code, sub = welding_files
        plan = str(tmp_path / "plan.json")
        assert main(["cnot", steane_file, "--control", "0", "--out", plan]) == 0
        first, second = (
            [a.format(steane=steane_file, code=code, sub=sub, plan=plan) for a in argv] for argv in PARSE_PAIRS[pair]
        )
        cli._parser.cache_clear()
        fresh = run_captured(capsys, second)
        cli._parser.cache_clear()
        run_captured(capsys, first)
        parser = cli._parser()
        assert run_captured(capsys, second) == fresh
        assert cli._parser() is parser

    def test_main_builds_one_parser(self, steane_file, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for argv in (["validate", steane_file], ["--json", "validate", steane_file], ["validate"]):
            run_captured(capsys, argv)
        assert len(built) == 1


def batch_records(capsys, argv) -> list:
    """The records of one in-process ``batch`` run, which must exit 0."""
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert not captured.err
    return [json.loads(line) for line in captured.out.splitlines()]


def report_golden_files(d: Path) -> None:
    """The input files of tests/test_report_golden.py, written into ``d``."""
    for name in report_golden.EXAMPLES:
        assert main(["catalog", "export", f"example:{name}", "--dir", str(d)]) == 0
    for name in report_golden.CODES:
        (d / f"{name}.code").write_text(catalog.catalog_code(name).to_text())


class TestBatch:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_report_cases_in_shuffled_order(self, seed, tmp_path, capsys):
        report_golden_files(tmp_path)
        names = sorted(report_golden.CASES)
        random.Random(seed).shuffle(names)
        argvs = [["--json"] + [a.format(dir=tmp_path) for a in report_golden.CASES[name][0]] for name in names]
        jobs = tmp_path / "jobs"
        jobs.write_text("".join(json.dumps(argv) + "\n" for argv in argvs))
        records = batch_records(capsys, ["batch", str(jobs)])
        assert [r["argv"] for r in records] == argvs
        for name, record in zip(names, records):
            stream = report_golden.CASES[name][1]
            assert record["exit"] == (1 if stream == "err" else 0)
            text = record["stderr" if stream == "err" else "stdout"]
            assert hashlib.sha256(text.encode()).hexdigest() == report_golden.DIGESTS[name]

    def test_lines_from_stdin_match_main(self, steane_file, monkeypatch, capsys):
        argvs = [
            ["--json", "validate", steane_file],
            ["homology", steane_file],
            ["validate"],
            ["cnot", steane_file, "--control", "0", "--target", "1"],
            ["validate", "--help"],
            ["catalog", "export", "steane"],
        ]
        expected = [run_captured(capsys, argv) for argv in argvs]
        stdin = "".join(json.dumps(argv) + "\n" for argv in argvs).encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        records = batch_records(capsys, ["batch"])
        assert [(r["exit"], r["stdout"], r["stderr"]) for r in records] == expected
        assert [r["argv"] for r in records] == argvs
        assert [r["exit"] for r in records] == [0, 0, 2, 1, 0, 0]

    def test_a_crash_ends_its_line_only(self, steane_file, monkeypatch, capsys):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "homology", crash)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(
            (json.dumps(["homology", steane_file]) + "\n" + json.dumps(["validate", steane_file]) + "\n").encode()
        )))
        crashed, valid = batch_records(capsys, ["batch"])
        assert crashed["exit"] == 1 and not crashed["stdout"]
        assert crashed["stderr"].startswith("Traceback") and crashed["stderr"].endswith("RuntimeError: boom\n")
        assert (valid["exit"], valid["stdout"]) == (0, "valid CSS code [[7,1,?]]\n")

    def test_jobs_run_in_the_batch_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("jobs").write_text(
            json.dumps(["catalog", "export", "steane", "--out", "s.code"]) + "\n"
            + json.dumps(["catalog", "export", "example:welding", "--dir", "ex"]) + "\n"
        )
        records = batch_records(capsys, ["batch", "jobs"])
        assert [r["exit"] for r in records] == [0, 0]
        assert Path("s.code").read_text() == catalog.steane().to_text()
        assert (tmp_path / "ex" / "welding.sub").is_file()


# per subcommand: an argv that succeeds, one that exits 1 and one that exits 2, run in a
# directory holding steane.code, the welding example and a Steane CNOT plan.json
SUBCOMMAND_CASES = {
    "validate": (["validate", "steane.code"], ["validate", "missing.code"], ["validate"]),
    "homology": (
        ["homology", "steane.code"], ["homology", "steane.code", "--degree", "3"],
        ["homology", "steane.code", "--degree", "x"],
    ),
    "merge": (
        ["merge", "welding.code", "--subcode", "welding.sub", "--analyze"],
        ["merge", "steane.code", "--subcode", "welding.sub"], ["merge", "welding.code"],
    ),
    "analyze": (
        ["analyze", "welding.code", "--subcode", "welding.sub"],
        ["analyze", "welding.code", "--subcode", "missing.sub"], ["analyze", "welding.code"],
    ),
    "logical-map": (
        ["logical-map", "welding.code", "--subcode", "welding.sub"],
        ["logical-map", "steane.code", "--subcode", "welding.sub"], ["logical-map", "--subcode", "welding.sub"],
    ),
    "cnot": (
        ["cnot", "steane.code", "--control", "0", "--simulate"],
        ["cnot", "steane.code", "--control", "0", "--target", "1"], ["cnot", "steane.code"],
    ),
    "switch": (["switch", "--out", "switch.json"], ["switch", "--out", "nodir/switch.json"], ["switch", "extra"]),
    "simulate": (
        ["simulate", "--plan", "plan.json", "--outcome", "zmerge.zz0=-1"], ["simulate", "--plan", "missing.json"],
        ["simulate", "--plan", "plan.json", "--control", "x"],
    ),
    "catalog": (["catalog", "list"], ["catalog", "export", "nope"], ["catalog", "frob"]),
    "propagate": (
        ["propagate", "welding.code", "--subcode", "welding.sub", "--pauli", "Z0"],
        ["propagate", "welding.code", "--subcode", "welding.sub", "--pauli", "Q0"],
        ["propagate", "welding.code", "--subcode", "welding.sub"],
    ),
}


def test_every_subcommand_in_one_shuffled_batch(tmp_path, monkeypatch, capsys):
    """Each subcommand's success, exit 1 and exit 2, with and without --json, run through
    one batch in a shuffled order: every record is what a separate ``main`` run gives."""
    monkeypatch.chdir(tmp_path)
    assert main(["catalog", "export", "example:welding", "--dir", "."]) == 0
    Path("steane.code").write_text(catalog.steane().to_text())
    assert main(["cnot", "steane.code", "--control", "0", "--out", "plan.json"]) == 0
    assert sorted(SUBCOMMAND_CASES) == sorted(
        name for name in cli.build_parser()._subparsers._group_actions[0].choices if name != "batch"
    )
    argvs = [
        json_flag + argv for cases in SUBCOMMAND_CASES.values() for argv in cases for json_flag in ([], ["--json"])
    ]
    random.Random(5).shuffle(argvs)
    expected = [run_captured(capsys, argv) for argv in argvs]
    Path("jobs").write_text("".join(json.dumps(argv) + "\n" for argv in argvs))
    records = batch_records(capsys, ["batch", "jobs"])
    assert records == [
        {"argv": argv, "exit": rc, "stdout": out, "stderr": err} for argv, (rc, out, err) in zip(argvs, expected)
    ]
    exits = {tuple(argv): rc for argv, (rc, _, _) in zip(argvs, expected)}
    for cases in SUBCOMMAND_CASES.values():
        for argv, want in zip(cases, (0, 1, 2)):
            assert exits[tuple(argv)] == exits[("--json", *argv)] == want, argv


class TestInputCache:
    """A process parses each distinct input text once; a kept parse answers as a fresh one would."""

    @staticmethod
    def _digest_ok(name, rc, out, err) -> bool:
        stream = report_golden.CASES[name][1]
        text = err if stream == "err" else out
        return rc == (1 if stream == "err" else 0) and report_golden._sha(text) == report_golden.DIGESTS[name]

    def test_report_cases_cold_then_warm_in_reverse(self, tmp_path, capsys):
        report_golden_files(tmp_path)
        names = sorted(report_golden.CASES)
        argvs = {name: ["--json"] + [a.format(dir=tmp_path) for a in report_golden.CASES[name][0]] for name in names}
        for name in names:
            cli._parsed.cache_clear()
            assert self._digest_ok(name, *run_captured(capsys, argvs[name])), name
        for name in reversed(names):
            assert self._digest_ok(name, *run_captured(capsys, argvs[name])), name
        assert cli._parsed.cache_info().hits > 0

    def test_a_malformed_text_names_each_path_it_is_read_from(self, tmp_path, capsys):
        text = catalog.steane().to_text()
        paths = [tmp_path / "a.code", tmp_path / "b.code"]
        for path in paths:
            path.write_text(text.replace("hz:", "hq:"))
        for path in paths + paths:
            rc, out, err = run_captured(capsys, ["validate", str(path)])
            assert rc == 1 and not out
            assert json.loads(err) == {
                "error": "MalformedInput",
                "message": "unknown section 'hq:', expected one of hx, hz, zl, xl",
                "file": str(path),
                "section": "hq",
            }
        assert cli._parsed.cache_info().currsize == 0
        paths[0].write_text(text)
        assert run_captured(capsys, ["validate", str(paths[0])]) == (0, "valid CSS code [[7,1,?]]\n", "")

    def test_a_rewritten_code_file_is_parsed_again(self, tmp_path, capsys):
        code, plan = tmp_path / "code", tmp_path / "plan.json"
        code.write_text(catalog.steane().to_text())
        assert run_captured(capsys, ["--json", "cnot", str(code), "--control", "0", "--out", str(plan)])[0] == 0
        code.write_text(catalog.toric(2).to_text())
        argv = ["--json", "cnot", str(code), "--control", "0", "--target", "1", "--out", str(plan)]
        warm = run_captured(capsys, argv), plan.read_bytes()
        cli._parsed.cache_clear()
        cold = run_captured(capsys, argv), plan.read_bytes()
        assert warm == cold and warm[0][0] == 0

    def test_code_and_ancilla_from_one_file(self, steane_file, tmp_path, monkeypatch, capsys):
        plan = tmp_path / "plan.json"
        argv = ["--json", "cnot", steane_file, "--control", "0", "--ancilla", steane_file, "--simulate"]
        argv += ["--out", str(plan)]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parsed", cli._parsed.__wrapped__)  # every read parses afresh
            cold = run_captured(capsys, argv), plan.read_bytes()
        warm = run_captured(capsys, argv), plan.read_bytes()
        info = cli._parsed.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)  # the ancilla is the code's object
        assert warm == cold and json.loads(warm[0][1])["max_deviation"] == 0.0

    def test_one_subcode_text_is_parsed_for_each_parent(self, steane_file, tmp_path, capsys):
        # the same Steane code with its X checks in another order is another parent complex
        steane = catalog.steane()
        other = tmp_path / "rolled.code"
        rolled = steane.to_text().replace("hx:\n3 7\n1110100\n0011110\n", "hx:\n3 7\n0011110\n1110100\n", 1)
        assert rolled != steane.to_text()
        other.write_text(rolled)
        sub = tmp_path / "zero.sub"
        sub.write_text(Subcode(steane.complex, *(Subspace.zero(n) for n in (3, 7, 3))).to_text())
        argvs = [["--json", "merge", code, "--subcode", str(sub), "--analyze"] for code in (steane_file, str(other))]
        warm = [run_captured(capsys, argv) for argv in argvs]
        cold = []
        for argv in argvs:
            cli._parsed.cache_clear()
            cold.append(run_captured(capsys, argv))
        assert warm == cold and [rc for rc, _, _ in warm] == [0, 0]
        assert cli._parsed.cache_info().currsize == 2  # the rolled code and its subcode

    def test_a_kept_plan_is_read_only(self, steane_file, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["cnot", steane_file, "--control", "0", "--out", str(plan_file)]) == 0
        plan = cli._read_input(str(plan_file), plan_from_json)
        assert cli._read_input(str(plan_file), plan_from_json) is plan and plan.correction_rules
        with pytest.raises(TypeError):
            plan.correction_rules["zmerge.zz0"] = None

    def test_the_cache_holds_at_most_its_bound(self, tmp_path, capsys):
        for n in range(1, cli._INPUT_CACHE_SIZE + 6):
            path = tmp_path / f"free{n}.code"
            path.write_text(catalog.no_check(n).to_text())
            assert run_captured(capsys, ["validate", str(path)]) == (0, f"valid CSS code [[{n},{n},?]]\n", "")
        info = cli._parsed.cache_info()
        assert info.currsize == cli._INPUT_CACHE_SIZE and info.misses == cli._INPUT_CACHE_SIZE + 5


def test_batch_process_matches_separate_processes(tmp_path):
    """One ``batch`` process against one process per argv, each in its own directory."""
    src = str(Path(catalog.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argvs = [
        ["--json", "validate", "steane.code"],
        ["homology", "steane.code"],
        ["validate"],
        ["validate", "missing.code"],
        ["cnot", "steane.code", "--control", "0", "--out", "plan.json"],
    ]
    batch_dir, single_dir = tmp_path / "batch", tmp_path / "single"
    for d in (batch_dir, single_dir):
        d.mkdir()
        (d / "steane.code").write_text(catalog.steane().to_text())
    command = [sys.executable, "-m", "chainsurg.cli"]
    done = subprocess.run(
        command + ["batch"], cwd=batch_dir, env=env, capture_output=True, text=True, timeout=60,
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
    )
    assert done.returncode == 0 and not done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(records) == len(argvs)
    for argv, record in zip(argvs, records):
        single = subprocess.run(command + argv, cwd=single_dir, env=env, capture_output=True, text=True, timeout=60)
        assert record == {"argv": argv, "exit": single.returncode, "stdout": single.stdout, "stderr": single.stderr}
    assert [r["exit"] for r in records] == [0, 0, 2, 1, 0]
    assert (batch_dir / "plan.json").read_bytes() == (single_dir / "plan.json").read_bytes()
