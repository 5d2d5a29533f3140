"""Input errors that public calls reach, each with its type and message.

Each case breaks one precondition of a public call, and must end in the
raise that guards it. Checks that only a corrupted internal invariant
could fail are not here.
"""
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from chainsurg import catalog, cli
from chainsurg.chaincomplex import (
    HomologyBasis,
    homology,
    induced_on_homology,
    validate,
    validate_chain_map,
)
from chainsurg.cli import main
from chainsurg.csscode import (
    CssCode,
    PauliOperator,
    dual_x_basis,
    from_parity_checks,
    symplectic_product,
)
from chainsurg.errors import (
    DecompositionInfeasible,
    DimensionMismatch,
    MalformedInput,
    SingularMatrix,
    SquareDoesNotCommute,
    UnknownExample,
    ZeroProbabilityOutcome,
)
from chainsurg.f2linalg import F2Matrix, Subspace, as_bit_vector, hstack, quotient_basis, vstack
from chainsurg.protocols import (
    build_cnot_plan,
    decompose_merge_support,
    plan_from_json,
    plan_symplectic_action,
    plan_to_json,
)
from chainsurg.simverify import (
    HadamardConjugatedParityMap,
    PauliGate,
    PhysicalOp,
    StateVector,
    Supports,
    apply,
    apply_linear,
    fix_phase_and_scale,
    pauli_expectation,
    physical_op_sequence,
)
from chainsurg.surgery import quotient_merge, span_merge, validate_subcode
from test_assembled_spaces import identity_chain_map
from test_simverify import basis_state

STEANE = catalog.steane()
TORIC2 = catalog.toric(2)
E0 = np.eye(7, dtype=np.uint8)[0]  # not a cycle of the Steane code


def _bogus_basis(rep):
    """A Steane Z basis holding ``rep``, built without the checks ``from_parity_checks`` makes."""
    cx = STEANE.complex
    return HomologyBasis(F2Matrix.from_rows([rep], cols=cx.dim1), cx)


def _wrong_parent_merge():
    welding = catalog.worked_example("welding")
    return quotient_merge(STEANE.complex, welding.subcode)


def _symplectic_action_without_the_cocycle():
    """A toric-2 CNOT plan whose zmerge.zz0 rule is X on qubit 0, which anticommutes with a Z check."""
    plan = build_cnot_plan(TORIC2, 0, 1)
    rule = PauliOperator.from_x(np.eye(plan.base_code.n, dtype=np.uint8)[0])
    return plan_symplectic_action(replace(plan, correction_rules={**plan.correction_rules, "zmerge.zz0": rule}))


def _symplectic_action_with_a_commuting_insert():
    """A Steane plan with an X check as its branch insert, which flips no measurement: the loader refuses it."""
    doc = json.loads(plan_to_json(build_cnot_plan(STEANE, 0, None)))
    doc["steps"][1]["branch_inserts"][0]["x"] = doc["base_hx"][0]
    return plan_symplectic_action(plan_from_json(json.dumps(doc)))


CASES = {
    # catalog
    "toric_1": (lambda: catalog.toric(1), DimensionMismatch, "toric code needs L >= 2"),
    "surface_patch_0x2": (lambda: catalog.surface_patch(0, 2), DimensionMismatch, "patch needs w, h >= 1"),
    "no_check_0": (lambda: catalog.no_check(0), DimensionMismatch, "need at least one qubit"),
    "catalog_code": (lambda: catalog.catalog_code("nope"), UnknownExample, "unknown catalog code 'nope'"),
    # chain complexes and chain maps
    "validate_middle": (
        lambda: validate(F2Matrix.zeros(2, 1), F2Matrix.zeros(1, 3)),
        DimensionMismatch,
        "middle space mismatch: d1 has 3 columns, d2 has 2 rows",
    ),
    "homology_degree": (lambda: homology(STEANE.complex, 3), DimensionMismatch, "degree must be 0, 1 or 2, got 3"),
    "compose": (
        lambda: identity_chain_map(STEANE.complex).compose(identity_chain_map(TORIC2.complex)),
        DimensionMismatch,
        "chain maps are not composable",
    ),
    "chain_map_shape": (
        lambda: validate_chain_map(
            STEANE.complex, STEANE.complex, F2Matrix.identity(3), F2Matrix.identity(6), F2Matrix.identity(3)
        ),
        DimensionMismatch,
        r"f1 must be 7x7, got \(6, 6\)",
    ),
    "chain_map_square_1": (
        lambda: validate_chain_map(
            STEANE.complex, STEANE.complex, F2Matrix.identity(3), F2Matrix.identity(7), F2Matrix.zeros(3, 3)
        ),
        SquareDoesNotCommute,
        "chain-map square at degree 1 does not commute",
    ),
    "induced_on_homology": (
        lambda: induced_on_homology(identity_chain_map(STEANE.complex), 1, _bogus_basis(E0), STEANE.z_logicals),
        DimensionMismatch,
        "pushed representative is not a cycle",
    ),
    # codes and Paulis
    "pauli_sign": (lambda: PauliOperator(x=[1], z=[0], sign=2), DimensionMismatch, r"sign must be \+1 or -1"),
    "pauli_compose": (
        lambda: PauliOperator.from_x([1]).compose(PauliOperator.from_x([1, 0])),
        DimensionMismatch,
        "Pauli lengths differ",
    ),
    "symplectic_product": (
        lambda: symplectic_product(PauliOperator.from_x([1]), PauliOperator.from_z([1, 0])),
        DimensionMismatch,
        "Pauli lengths differ",
    ),
    "from_parity_checks_widths": (
        lambda: from_parity_checks(STEANE.hx, F2Matrix.zeros(1, 6)),
        DimensionMismatch,
        "hx has 7 columns, hz has 6",
    ),
    "dual_x_basis": (
        lambda: dual_x_basis(STEANE.complex, _bogus_basis(np.zeros(7, dtype=np.uint8))),
        SingularMatrix,
        "dual basis assembly failed",
    ),
    # GF(2) matrices and subspaces
    "bit_vector_shape": (lambda: as_bit_vector([[1, 0]]), DimensionMismatch, r"expected a vector, got shape \(1, 2\)"),
    "bit_vector_length": (lambda: as_bit_vector([1, 0], 3), DimensionMismatch, "expected length 3, got 2"),
    "matrix_shape": (
        lambda: F2Matrix(np.zeros((1, 1, 2))), DimensionMismatch, r"expected a matrix, got shape \(1, 1, 2\)"
    ),
    "from_rows": (lambda: F2Matrix.from_rows([]), DimensionMismatch, "empty row list needs an explicit column count"),
    "matmul": (
        lambda: F2Matrix.identity(2) @ F2Matrix.identity(3),
        DimensionMismatch,
        r"\(2, 2\) @ \(3, 3\)",
    ),
    "matmul_vector": (
        lambda: F2Matrix.identity(2) @ np.zeros(3, dtype=np.uint8),
        DimensionMismatch,
        r"\(2, 2\) @ vector of length 3",
    ),
    # F2Matrix leaves an array of any other rank to numpy, which refuses it
    "matmul_3d": (lambda: F2Matrix.identity(2) @ np.zeros((2, 2, 2)), ValueError, "matmul"),
    "add": (lambda: F2Matrix.identity(2) + F2Matrix.identity(3), DimensionMismatch, r"\(2, 2\) \+ \(3, 3\)"),
    "hstack": (lambda: hstack([]), DimensionMismatch, "need at least one block"),
    "vstack": (lambda: vstack([]), DimensionMismatch, "need at least one block"),
    "contains_rows": (
        lambda: Subspace.zero(3).contains_rows(F2Matrix.zeros(1, 2)),
        DimensionMismatch,
        "ambient dimensions differ",
    ),
    "subspace_sum": (lambda: Subspace.zero(3).sum(Subspace.zero(2)), DimensionMismatch, "ambient dimensions differ"),
    "quotient_basis": (
        lambda: quotient_basis(3, Subspace.zero(3), Subspace.zero(2)),
        DimensionMismatch,
        "ambient dimensions differ",
    ),
    # merges
    "validate_subcode_orientation": (
        lambda: validate_subcode(STEANE.complex, Subspace.zero(3), Subspace.zero(7), Subspace.zero(3), "Y"),
        DimensionMismatch,
        "orientation must be 'Z' or 'X'",
    ),
    "validate_subcode_dims": (
        lambda: validate_subcode(STEANE.complex, Subspace.zero(3), Subspace.zero(6), Subspace.zero(3)),
        DimensionMismatch,
        r"subspace ambient dims \(3, 6, 3\) do not match parent \(3, 7, 3\)",
    ),
    "quotient_merge_parent": (
        _wrong_parent_merge,
        DimensionMismatch,
        "subcode was validated against a different parent",
    ),
    "span_merge_apex": (
        lambda: span_merge(identity_chain_map(STEANE.complex), identity_chain_map(TORIC2.complex)),
        DimensionMismatch,
        "span legs have different apex complexes",
    ),
    # plans
    "decompose_equal_ends": (
        lambda: decompose_merge_support(STEANE, STEANE.z_logical(0), STEANE.z_logical(0), 2),
        DecompositionInfeasible,
        "u and w coincide; nothing to merge",
    ),
    "decompose_weight_cap": (
        lambda: decompose_merge_support(catalog.no_check(2), [1, 0], [0, 1], max_weight=1),
        DecompositionInfeasible,
        "no admissible decomposition under the weight cap",
    ),
    "decompose_second_class": (
        lambda: decompose_merge_support(TORIC2, TORIC2.z_logical(0), TORIC2.z_logical(1), max_weight=1),
        DecompositionInfeasible,
        "candidate span admits a second independent logical class",
    ),
    "action_not_a_cocycle": (
        _symplectic_action_without_the_cocycle,
        DimensionMismatch,
        "vector is not a cycle at this degree",
    ),
    "action_commuting_insert": (
        _symplectic_action_with_a_commuting_insert,
        MalformedInput,
        "branch insert 0 does not flip exactly its own slot zmerge.zz0",
    ),
    # simulation
    "state_qubit_limit": (
        lambda: StateVector(n=21, amplitudes=np.zeros(1)),
        DimensionMismatch,
        "21 qubits exceeds the simulator limit 20",
    ),
    "state_length": (
        lambda: StateVector(n=2, amplitudes=np.zeros(3)),
        DimensionMismatch,
        "amplitude array has the wrong length",
    ),
    "state_normalized": (
        lambda: StateVector(n=1, amplitudes=np.ones(2), normalized=True),
        DimensionMismatch,
        "state marked normalized but",
    ),
    "from_amplitudes_length": (
        lambda: StateVector.from_amplitudes([1, 0, 0]),
        DimensionMismatch,
        "amplitude count is not a power of two",
    ),
    "op_apply_support": (
        lambda: PhysicalOp().apply_support(Supports(1, np.zeros(0, dtype=np.int64), np.zeros(0))),
        NotImplementedError,
        "^$",
    ),
    "apply_linear_supports": (
        lambda: apply_linear(
            PauliGate(PauliOperator.from_x([1, 0])), Supports(1, np.zeros(1, dtype=np.int64), np.ones(1))
        ),
        DimensionMismatch,
        "op expects 2 qubits, states have 1",
    ),
    "apply_linear_longer": (
        lambda: apply_linear(PauliGate(PauliOperator.from_x([1, 0])), np.ones(8)),
        DimensionMismatch,
        r"op expects 4 amplitudes, array has shape \(8,\)",
    ),
    "apply_linear_shorter": (
        lambda: apply_linear(HadamardConjugatedParityMap(F2Matrix([[1, 1]])), np.ones(2)),
        DimensionMismatch,
        r"op expects 4 amplitudes, array has shape \(2,\)",
    ),
    "apply_state": (
        lambda: apply(PauliGate(PauliOperator.from_x([1, 0])), basis_state(1)),
        DimensionMismatch,
        "op expects 2 qubits, state has 1",
    ),
    "op_sequence_orientation": (
        lambda: physical_op_sequence(identity_chain_map(STEANE.complex), "Y"),
        DimensionMismatch,
        "orientation must be 'Z' or 'X'",
    ),
    "zero_channel": (
        lambda: fix_phase_and_scale(np.zeros((2, 2), dtype=np.complex128)),
        ZeroProbabilityOutcome,
        "extracted channel is identically zero",
    ),
    "zero_state_expectation": (
        lambda: pauli_expectation(PauliOperator.from_z([1]), StateVector(n=1, amplitudes=np.zeros(2))),
        ZeroProbabilityOutcome,
        "zero state has no expectation values",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_error(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "argv, payload",
    [
        (
            ["homology", "{steane}", "--degree", "3"],
            {"error": "DimensionMismatch", "message": "degree must be 0, 1 or 2, got 3"},
        ),
        (
            ["catalog", "export", "nope"],
            {"error": "UnknownExample", "message": f"unknown catalog code 'nope'; known: {catalog.catalog_names()}"},
        ),
    ],
    ids=["homology_degree", "catalog_export"],
)
def test_cli_input_error(tmp_path, capsys, argv, payload):
    steane = tmp_path / "steane.code"
    steane.write_text(STEANE.to_text())
    assert main([str(steane) if a == "{steane}" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert not captured.out and json.loads(captured.err) == payload



# a code file whose hx holds one row more than its header declares
EXTRA_ROW = "hx:\n1 3\n111\n000\nhz:\n0 3\n"


def test_extra_matrix_rows_are_refused(tmp_path, capsys):
    with pytest.raises(MalformedInput, match="^expected 1 rows, found 2$") as info:
        CssCode.from_text(EXTRA_ROW)
    assert info.value.section == "hx"
    # lines of whitespace after the rows are blank, not rows
    assert CssCode.from_text("hx:\n1 3\n111\n  \n\t\nhz:\n0 3\n").hx.shape == (1, 3)
    bad = tmp_path / "extra_row.code"
    bad.write_text(EXTRA_ROW)
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert json.loads(captured.err) == {
        "error": "MalformedInput", "message": "expected 1 rows, found 2", "file": str(bad), "section": "hx",
    }


def _batch(capsys, argv) -> tuple[int, list, str]:
    """(exit code, records, stderr) of one in-process ``batch`` run."""
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return rc, [json.loads(line) for line in captured.out.splitlines()], captured.err


def test_batch_unreadable_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.jobs")
    rc, records, err = _batch(capsys, ["batch", missing])
    assert rc == 1 and not records
    assert json.loads(err) == {
        "error": "MalformedInput", "message": "cannot read input: No such file or directory", "file": missing,
    }


BAD_LINES = ("", "not json", '{"argv": []}', "[1, 2]", '"validate"', '["catalog", null]')


@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_batch_malformed_lines(tmp_path, capsys, monkeypatch, from_stdin):
    text = "".join(line + "\n" for line in BAD_LINES) + json.dumps(["catalog", "list"]) + "\n"
    jobs = tmp_path / "jobs"
    jobs.write_text(text)
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    rc, records, err = _batch(capsys, ["batch"] if from_stdin else ["batch", str(jobs)])
    assert rc == 0 and not err
    source = "<stdin>" if from_stdin else str(jobs)
    for number, (line, record) in enumerate(zip(BAD_LINES, records), 1):
        payload = json.loads(record.pop("stderr"))
        assert record == {"argv": None, "exit": 1, "stdout": ""}
        assert payload["error"] == "MalformedInput"
        assert (payload["file"], payload["section"]) == (source, f"line {number}")
        shape = "is not JSON" if line in ("", "not json") else "is not a JSON array of strings"
        assert payload["message"].startswith(f"batch line {shape}")
    assert records[-1]["exit"] == 0 and "steane" in records[-1]["stdout"].split()


@pytest.mark.parametrize("argv", [["batch"], ["--json", "batch", "jobs"]])
def test_batch_line_runs_no_batch(tmp_path, capsys, argv):
    jobs = tmp_path / "jobs"
    jobs.write_text(json.dumps(argv) + "\n")
    rc, [record], err = _batch(capsys, ["batch", str(jobs)])
    assert rc == 0 and not err
    assert record == {
        "argv": argv, "exit": 1, "stdout": "",
        "stderr": json.dumps({"error": "ChainsurgError", "message": "a batch line cannot run batch"}) + "\n",
    }


def test_batch_refuses_json(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    jobs.write_text(json.dumps(["catalog", "list"]) + "\n")
    rc, records, err = _batch(capsys, ["--json", "batch", str(jobs)])
    assert rc == 1 and not records
    assert json.loads(err) == {
        "error": "ChainsurgError", "message": "batch takes no --json: give it in each line's argv",
    }


def _batch_file_and_stdin(tmp_path, capsys, monkeypatch, data: bytes) -> list:
    """The records of ``data`` run as a batch FILE and as batch stdin, which must be equal
    but for the source they name; each run must exit 0."""
    jobs = tmp_path / "jobs"
    jobs.write_bytes(data)
    runs = []
    for argv, source in ((["batch", str(jobs)], str(jobs)), (["batch"], "<stdin>")):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        rc, records, err = _batch(capsys, argv)
        assert rc == 0 and not err
        runs.append(json.dumps(records).replace(json.dumps(source)[1:-1], "SOURCE"))
    assert runs[0] == runs[1]
    return json.loads(runs[0])


def _assert_not_utf8(record: dict, number: int) -> None:
    assert json.loads(record.pop("stderr")) == {
        "error": "MalformedInput", "message": "batch line is not UTF-8 text", "section": f"line {number}",
        "file": "SOURCE",
    }
    assert record == {"argv": None, "exit": 1, "stdout": ""}


def test_batch_input_not_utf8(tmp_path, capsys, monkeypatch):
    valid = json.dumps(["catalog", "list"]).encode() + b"\n"
    first, bad, last = _batch_file_and_stdin(tmp_path, capsys, monkeypatch, valid + b"\xff\n" + valid)
    _assert_not_utf8(bad, 2)
    assert first == last and first["exit"] == 0 and "steane" in first["stdout"].split()


# the bytes a text stream decodes at once
_DECODE_CHUNK = 8192


@pytest.mark.parametrize("offset", [-3, 0, 3])
def test_batch_not_utf8_at_the_decode_chunk(tmp_path, capsys, monkeypatch, offset):
    # a bad byte before, at and after the chunk boundary ends only its own line
    filler = b'["validate", "--' + b"x" * 990 + b'"]\n'  # exit 2: a usage error
    lines = [filler] * 9 + [json.dumps(["catalog", "list"]).encode() + b"\r\n"]
    data = b"".join(lines)
    at = _DECODE_CHUNK + offset
    assert len(data) - len(lines[-1]) > at
    data = data[:at] + b"\xff" + data[at:]
    number = data[:at].count(b"\n") + 1
    records = _batch_file_and_stdin(tmp_path, capsys, monkeypatch, data)
    assert len(records) == len(lines)
    _assert_not_utf8(records[number - 1], number)
    assert [r["exit"] for r in records] == [1 if i == number - 1 else 2 for i in range(9)] + [0]


def _error_inputs(d) -> None:
    """The good and the malformed input files of the CLI error cases, written into ``d``."""
    steane = STEANE.to_text()
    (d / "steane.code").write_text(steane)
    assert main(["catalog", "export", "example:welding", "--dir", str(d)]) == 0
    assert main(["cnot", str(d / "steane.code"), "--control", "0", "--out", str(d / "plan.json")]) == 0
    plan = json.loads((d / "plan.json").read_text())
    edited = {
        "unknown.code": steane.replace("xl:", "x1:"),
        "narrow_hz.code": steane.replace("hz:\n3 7\n1110100\n0011110\n0100111", "hz:\n3 6\n111010\n001111\n010011"),
        "narrow_zl.code": steane.replace("zl:\n1 7\n0001011", "zl:\n1 5\n00010"),
    }
    assert steane not in edited.values()
    texts = {
        **edited,
        "nohz.code": "hx:\n1 3\n110\n",
        "header.code": "hx:\nx y\n110\nhz:\n0 3\n",
        "extra_row.code": EXTRA_ROW,
        "repeated.code": steane + "hx:\n1 7\n1111111\n",
        "orientation.sub": "orientation: Y\nv2:\n0 3\nv1:\n0 7\nv0:\n0 3\n",
        "narrow_v1.sub": "v2:\n0 3\nv1:\n1 6\n111000\nv0:\n0 3\n",
        "repeated.sub": (d / "welding.sub").read_text() + "orientation: X\n",
        "not_json.plan": "{",
        "not_a_plan.plan": '{"schema": "other/1"}',
        "no_base_hx.plan": json.dumps({k: v for k, v in plan.items() if k != "base_hx"}),
        "step_not_object.plan": json.dumps({**plan, "steps": [plan["steps"][0], 5, *plan["steps"][2:]]}),
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "latin1.code").write_bytes(b"hx:\n1 2\n11\n\xe9\n")


# (argv, exit): each failing line comes after lines that load its good files, and
# "f" holds a code, then a plan, then a code again
ERROR_LINES = [
    (["validate", "steane.code"], 0),
    (["homology", "steane.code", "--degree", "3"], 1),
    (["catalog", "export", "nope"], 1),
    *[
        line
        for bad in ("unknown", "narrow_hz", "narrow_zl", "nohz", "header", "extra_row", "repeated", "latin1", "missing")
        for line in ((["validate", "steane.code"], 0), (["--json", "validate", f"{bad}.code"], 1))
    ],
    (["merge", "welding.code", "--subcode", "welding.sub"], 0),
    (["merge", "welding.code", "--subcode", "repeated.sub"], 1),
    *[(["merge", "steane.code", "--subcode", f"{bad}.sub"], 1) for bad in ("orientation", "narrow_v1", "missing")],
    *[
        line
        for bad in ("not_json", "not_a_plan", "no_base_hx", "step_not_object", "missing")
        for line in ((["simulate", "--plan", "plan.json"], 0), (["simulate", "--plan", f"{bad}.plan"], 1))
    ],
    (["catalog", "export", "steane", "--out", "f"], 0),
    (["validate", "f"], 0),
    (["cnot", "f", "--control", "0", "--out", "f"], 0),
    (["validate", "f"], 1),
    (["simulate", "--plan", "f"], 0),
    (["catalog", "export", "steane", "--out", "f"], 0),
    (["simulate", "--plan", "f"], 1),
    (["validate", "f"], 0),
    (["cnot", "f", "--control", "0", "--out", "f"], 0),
    (["simulate", "--plan", "f"], 0),
]


def test_input_errors_in_one_batch_match_cold_runs(tmp_path, capsys, monkeypatch):
    # a kept parse never answers for a file that now fails, and a failure is never kept
    cold_dir, batch_dir = tmp_path / "cold", tmp_path / "batch"
    for d in (cold_dir, batch_dir):
        d.mkdir()
        _error_inputs(d)
    monkeypatch.chdir(cold_dir)
    expected = []
    for argv, _ in ERROR_LINES:
        cli._parsed.cache_clear()
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        expected.append({"argv": argv, "exit": rc, "stdout": captured.out, "stderr": captured.err})
    assert [r["exit"] for r in expected] == [rc for _, rc in ERROR_LINES]
    monkeypatch.chdir(batch_dir)
    cli._parsed.cache_clear()
    (batch_dir / "jobs").write_text("".join(json.dumps(argv) + "\n" for argv, _ in ERROR_LINES))
    rc, records, err = _batch(capsys, ["batch", "jobs"])
    assert rc == 0 and not err
    assert records == expected
    assert cli._parsed.cache_info().hits > 0
