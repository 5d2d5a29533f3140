"""Command-line front-end: validate codes, run merges and analyses,
synthesize plans, and verify them by simulation.

Exit codes: 0 success, 1 domain error (JSON payload on stderr), 2 usage
error. All output is deterministic for fixed inputs.

``chainsurg batch [FILE]`` runs many commands in one process. Each line of
FILE (or stdin) is a JSON array of argv strings; for each line, batch writes
one JSON line ``{"argv", "exit", "stdout", "stderr"}`` holding the exit code
and output a separate ``chainsurg`` process would give. The process parses
every command line with one parser, built on first use, and each distinct
input text once (``_read_input``).
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from . import catalog, jsontext
from .chaincomplex import ChainComplex, homology
from .csscode import CssCode, PauliOperator, certify_distance, from_complex, from_parity_checks
from .errors import ChainsurgError, MalformedInput
from .f2linalg import F2Matrix, bit_lines
from .protocols import (
    AncillaStrategy,
    MergeStep,
    build_cnot_plan,
    code_switch_plan,
    expected_plan_channel,
    plan_branch,
    plan_channel,
    plan_from_json,
    plan_symplectic_action,
    plan_to_json,
    propagate_pauli,
)
from .simverify import PHASE_TOL
from .surgery import (
    REPORT_SCHEMA,
    Subcode,
    analyze_merge,
    induced_logical_matrix,
    merge_report_json,
    quotient_merge,
)


# The most parsed inputs a process keeps: beyond it, the least recently used goes.
_INPUT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_INPUT_CACHE_SIZE)
def _parsed(parse, text: str, *context):
    """``parse(text, *context)``, kept for later jobs; a parse that raises is not kept."""
    return parse(text, *context)


def _read_input(path: str, parse, *context):
    """``parse(text, *context)`` for the text of ``path``, parsed once per process.

    The file is read on every call, and the parse is looked up by
    ``parse``, the full text and ``context`` (a subcode's parent complex):
    a rewritten file is parsed again, and the same text under another path
    gives the same object. Only successful parses are kept, the last
    ``_INPUT_CACHE_SIZE`` used. A kept object is shared by every later job
    that reads the same text, so no command may change one in place; what
    they fill in later (cached properties, eliminations) is the same
    whichever job fills it in.

    An unreadable file, or one ``parse`` finds malformed, raises
    MalformedInput naming ``path``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read input: {exc.strerror}", file=path) from None
    except UnicodeDecodeError:
        raise MalformedInput("input is not UTF-8 text", file=path) from None
    try:
        return _parsed(parse, text, *context)
    except MalformedInput as exc:
        exc.file = path
        raise


def _load_code(path: str) -> CssCode:
    return _read_input(path, CssCode.from_text)


def _load_subcode(path: str, parent: ChainComplex) -> Subcode:
    return _read_input(path, Subcode.from_text, parent)


def _output_error(path, exc: OSError) -> ChainsurgError:
    return ChainsurgError(f"cannot write output {path}: {exc.strerror or exc}")


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a failed write raises ChainsurgError naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _output_error(path, exc) from None


def _emit(args, payload: dict, human) -> None:
    """Print ``payload`` as JSON under ``--json``, else ``human``: the text, or a function that builds it."""
    if args.json:
        payload = {"schema": REPORT_SCHEMA, **payload}
        print(jsontext.dumps(payload))
    else:
        print(human() if callable(human) else human)


def _cmd_validate(args) -> int:
    code = _load_code(args.code)
    _emit(
        args,
        {"type": "validate", "n": code.n, "k": code.k, "d": code.d},
        f"valid CSS code {code.params()}",
    )
    return 0


def _cmd_homology(args) -> int:
    code = _load_code(args.code)
    h = homology(code.complex, args.degree)
    reps = h.matrix().a  # written as the list of representatives
    _emit(
        args,
        {"type": "homology", "degree": args.degree, "dim": h.dim, "representatives": reps},
        lambda: f"H_{args.degree} dimension {h.dim}\n" + bit_lines(reps)[:-1],
    )
    return 0


def _merge_from_args(args):
    code = _load_code(args.code)
    sub = _load_subcode(args.subcode, code.complex)
    return code, sub, quotient_merge(code.complex, sub)


def _cmd_merge(args) -> int:
    code, sub, merge = _merge_from_args(args)
    report = analyze_merge(merge) if args.analyze or args.json else None
    if args.out:
        out_code = from_complex(merge.merged_complex())
        _write_output(args.out, out_code.to_text())
    if args.json:
        print(merge_report_json(merge, report))
        return 0
    lines = [
        f"merged code: degree-1 dim {merge.quotient.dim1}"
        f" (from {merge.source.dim1}), orientation {merge.orientation}",
    ]
    if args.analyze:
        lines.append(_analysis_text(report))
    print("\n".join(lines))
    return 0


def _analysis_text(report) -> str:
    dims = ", ".join(f"{k} = {v}" for k, v in report.dims_label().items())
    flags = []
    if report.surjective_guaranteed:
        flags.append("surjective")
    if report.injective_guaranteed:
        flags.append("injective")
    lines = [
        f"subcode homology: {dims}",
        f"guaranteed flags: {', '.join(flags) if flags else 'none (inspect the matrix)'}",
        f"induced matrix rank facts: surjective={report.matrix_surjective}"
        f" injective={report.matrix_injective}",
        f"killed classes ({report.killed_count}): {report.killed_coords.to_lists()}",
        f"created classes ({report.created_count}): {report.created_coords.to_lists()}",
    ]
    return "\n".join(lines)


def _cmd_logical_map(args) -> int:
    code, sub, merge = _merge_from_args(args)
    src = homology(merge.source, 1)
    tgt = homology(merge.quotient, 1)
    mat = induced_logical_matrix(merge, src, tgt)
    _emit(args, {"type": "logical-map", "matrix": mat.a}, lambda: bit_lines(mat.a)[:-1])
    return 0


def _parse_ancilla(spec: str) -> AncillaStrategy:
    if spec == "trivial":
        return AncillaStrategy.trivial()
    if spec.startswith("embedded:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError:
            raise ChainsurgError(f"--ancilla {spec!r} is not embedded:IDX with integer IDX") from None
        return AncillaStrategy.embedded(index)
    return AncillaStrategy.provided(_load_code(spec))


def _deviation(plan, channel) -> float:
    """Largest entry distance of a simulated channel from the plan's target channel."""
    exp = expected_plan_channel(plan)
    exp = exp / np.max(np.abs(exp))
    return float(np.max(np.abs(channel - exp)))


def _cmd_cnot(args) -> int:
    if not args.locality:
        _refuse_ignored("cnot", (("--max-weight", args.max_weight),), " without --locality")
    code = _load_code(args.code)
    plan = build_cnot_plan(
        code,
        control=args.control,
        target=args.target,
        ancilla=_parse_ancilla(args.ancilla),
        locality=args.locality,
        max_weight=2 if args.max_weight is None else args.max_weight,
    )
    payload = {
        "type": "cnot-plan",
        "steps": [type(s).__name__ for s in plan.steps],
        "measurements": plan.measurement_ids(),
        "base_n": plan.base_code.n,
    }
    lines = [
        f"plan with {len(plan.steps)} steps on {plan.base_code.n} qubits;"
        f" measurements: {', '.join(plan.measurement_ids())}"
    ]
    if args.simulate:
        dev = _deviation(plan, plan_channel(plan))
        payload["max_deviation"] = dev
        verdict = "=" if dev < PHASE_TOL else "!="
        lines.append(f"logical channel {verdict} CNOT (max deviation {dev:.2e})")
    if args.out:
        _write_output(args.out, plan_to_json(plan))
        lines.append(f"plan written to {args.out}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_switch(args) -> int:
    plan = code_switch_plan()
    merged = plan.merged_code(plan.steps[1].merge)
    # every nontrivial logical has weight at most n, so wmax = n gives the exact distance
    d = min((s for s in certify_distance(merged, wmax=merged.n) if s is not None), default=None)
    p1 = plan.steps[1].logical_matrix
    action = plan_symplectic_action(plan)
    # both (X, Z) coordinate pairs: X0 must come back as X0 alone, Z0 as Z0 alone
    unit, zero = [1, 0], [0, 0]
    identity_ok = np.array_equal(action["X0"], (unit, zero)) and np.array_equal(action["Z0"], (zero, unit))
    payload = {
        "type": "code-switch",
        "merged": {"n": merged.n, "k": merged.k, "d": d},
        "p1_star": p1.a,
        "round_trip_identity": identity_ok,
    }
    human = (
        f"merged code [[{merged.n},{merged.k},{d}]]; induced map {p1.to_lists()};"
        f" round-trip logical map {'= identity' if identity_ok else 'NOT identity'}"
    )
    if args.out:
        _write_output(args.out, plan_to_json(plan))
    _emit(args, payload, human)
    return 0


def _refuse_ignored(command: str, arguments, reason: str = "") -> None:
    """Refuse every (name, value) of ``arguments`` that was given, as ``command`` would ignore it."""
    given = [name for name, value in arguments if value is not None]
    if given:
        raise ChainsurgError(f"{command} takes no {', '.join(given)}{reason}")


def _cmd_simulate(args) -> int:
    if args.plan:
        _refuse_ignored(
            "simulate --plan",
            (("a code", args.code), ("--control", args.control), ("--target", args.target), ("--ancilla", args.ancilla)),
            ": the plan fixes them",
        )
        plan = _read_input(args.plan, plan_from_json)
    else:
        if args.code is None or args.control is None:
            raise ChainsurgError("simulate needs either --plan or a code with --control")
        code = _load_code(args.code)
        plan = build_cnot_plan(
            code,
            control=args.control,
            target=args.target,
            ancilla=_parse_ancilla("trivial" if args.ancilla is None else args.ancilla),
        )
    outcomes = {}
    for spec in args.outcome or []:
        name, _, val = spec.partition("=")
        if name in outcomes:
            raise ChainsurgError(f"--outcome {name!r} is given twice")
        try:
            outcomes[name] = int(val)
        except ValueError:
            raise ChainsurgError(f"--outcome {spec!r} is not MEASID=+1 or MEASID=-1") from None
    ch, corrections = plan_branch(plan, outcomes or None, corrected=not args.no_corrections)
    dev = _deviation(plan, ch)
    _emit(
        args,
        {
            "type": "simulate",
            "max_deviation": dev,
            "corrections": [c.label() for c in corrections],
            "channel": [[[float(v.real), float(v.imag)] for v in row] for row in ch],
        },
        f"max deviation from target channel: {dev:.2e};"
        f" corrections applied: {[c.label() for c in corrections] or 'none'}",
    )
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _refuse_ignored("catalog list", ((f"name {args.name!r}", args.name), ("--out", args.out), ("--dir", args.dir)))
        names = catalog.catalog_names() + [f"example:{n}" for n in catalog.example_names()]
        _emit(args, {"type": "catalog", "names": names}, "\n".join(names))
        return 0
    name = args.name
    if name is None:
        raise ChainsurgError("catalog export needs a name")
    if name.startswith("example:"):
        _refuse_ignored(f"catalog export {name}", (("--out", args.out),), ": an example's files go to --dir")
        ex = catalog.worked_example(name.split(":", 1)[1])
        # the scenario's parent code (the direct sum for two-code examples)
        parent_code = from_parity_checks(ex.parent.d1, ex.parent.d2.T)
        outputs = {f"{ex.name}.code": parent_code.to_text()}
        if len(ex.codes) > 1:
            for i, code in enumerate(ex.codes):
                outputs[f"{ex.name}.part{i}.code"] = code.to_text()
        # a valid example's subspaces are validated before they are written
        sub = ex.subcode or Subcode(ex.parent, *ex.raw_spaces, orientation=ex.raw_orientation)
        outputs[f"{ex.name}.sub"] = sub.to_text()
        outputs[f"{ex.name}.expect.json"] = jsontext.dumps(ex.expect)
        outdir = Path(args.dir or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _output_error(outdir, exc) from None
        files = [str(outdir / fname) for fname in outputs]
        for path, text in zip(files, outputs.values()):
            _write_output(path, text)
        _emit(args, {"type": "catalog-export", "files": files}, "\n".join(files))
        return 0
    _refuse_ignored(f"catalog export {name}", (("--dir", args.dir),), ": a code goes to --out or stdout")
    code = catalog.catalog_code(name)
    text = code.to_text()
    if args.out:
        _write_output(args.out, text)
        _emit(args, {"type": "catalog-export", "files": [args.out]}, args.out)
    else:
        sys.stdout.write(text)
    return 0


_PAULI_TERM_RE = re.compile(r"([XYZ])([0-9]+)", re.IGNORECASE)


def _cmd_propagate(args) -> int:
    code, sub, merge = _merge_from_args(args)
    n = code.n
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    for term in args.pauli.split():
        match = _PAULI_TERM_RE.fullmatch(term)
        if match is None or int(match.group(2)) >= n:
            raise ChainsurgError(
                f"bad Pauli term {term!r}: expected X, Y or Z and a qubit index in 0..{n - 1}"
            )
        kind, idx = match.group(1).upper(), int(match.group(2))
        if kind in "XY":
            x[idx] ^= 1
        if kind in "YZ":
            z[idx] ^= 1
    v1 = sub.v1
    step = MergeStep(
        merge=merge,
        orientation=sub.orientation,
        measurement_ids=tuple(f"m{i}" for i in range(v1.dim)),
        pivot_qubits=v1.pivots,
        logical_matrix=F2Matrix.zeros(0, 0),
        branch_inserts=(None,) * v1.dim,
    )
    p = PauliOperator(x=x, z=z)
    out, flips = propagate_pauli(step, p)
    _emit(
        args,
        {
            "type": "propagate",
            "output": out.label(),
            "flips": sorted(flips),
        },
        f"transported: {out.label()}; flipped outcomes: {sorted(flips) or 'none'}",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsurg",
        description="CSS code surgery: exact homology, merges/splits, CNOT plans, simulation",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a code file")
    p.add_argument("code")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("homology", help="homology basis of a code")
    p.add_argument("code")
    p.add_argument("--degree", type=int, default=1)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("merge", help="quotient merge along a subcode")
    p.add_argument("code")
    p.add_argument("--subcode", required=True)
    p.add_argument("--analyze", action="store_true")
    p.add_argument("--out", help="write the merged code file")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("analyze", help="exact-sequence analysis of a merge")
    p.add_argument("code")
    p.add_argument("--subcode", required=True)
    p.set_defaults(func=_cmd_merge, analyze=True, out=None)

    p = sub.add_parser("logical-map", help="induced logical matrix of a merge")
    p.add_argument("code")
    p.add_argument("--subcode", required=True)
    p.set_defaults(func=_cmd_logical_map)

    p = sub.add_parser("cnot", help="synthesize a CNOT surgery plan")
    p.add_argument("code")
    p.add_argument("--control", type=int, required=True)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--ancilla", default="trivial", help="trivial | embedded:IDX | code file")
    p.add_argument("--locality", action="store_true")
    p.add_argument("--max-weight", type=int, default=None, help="with --locality; 2 when omitted")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--out", help="write the plan JSON")
    p.set_defaults(func=_cmd_cnot)

    p = sub.add_parser("switch", help="the 7-to-15-qubit code switch plan")
    p.add_argument("--out", help="write the plan JSON")
    p.set_defaults(func=_cmd_switch)

    p = sub.add_parser("simulate", help="simulate a surgery plan channel")
    p.add_argument("code", nargs="?")
    p.add_argument("--plan", help="consume a plan JSON file instead of synthesizing")
    p.add_argument("--control", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--ancilla")  # trivial when omitted
    p.add_argument("--outcome", action="append", help="MEASID=-1 (repeatable)")
    p.add_argument("--no-corrections", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("catalog", help="list or export built-in codes and examples")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.add_argument("--dir")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("propagate", help="transport a Pauli through a merge")
    p.add_argument("code")
    p.add_argument("--subcode", required=True)
    p.add_argument("--pauli", required=True, help='e.g. "X0 Z3"')
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("batch", help="run one JSON argv array per line in this process")
    p.add_argument("file", nargs="?", help="the lines to run; stdin when omitted")
    p.set_defaults(func=_cmd_batch)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing never changes it, so it is built once."""
    return build_parser()


def _write_error(exc: ChainsurgError) -> int:
    sys.stderr.write(json.dumps(exc.payload()) + "\n")
    return 1


def _batch_argv(line: bytes, section: str, file: str) -> list:
    try:
        text = line.decode()
    except UnicodeDecodeError:
        raise MalformedInput("batch line is not UTF-8 text", section, file) from None
    try:
        argv = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"batch line is not JSON: {exc.msg}", section, file) from None
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise MalformedInput("batch line is not a JSON array of strings", section, file)
    return argv


def _batch_record(line: bytes, number: int, source: str) -> dict:
    """Run one batch line as ``main`` runs its argv, with the output a separate process would write."""
    out, err = io.StringIO(), io.StringIO()
    argv = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            argv = _batch_argv(line, f"line {number}", source)
            args = _parser().parse_args(argv)
            if args.func is _cmd_batch:
                raise ChainsurgError("a batch line cannot run batch")
            code = args.func(args)
        except ChainsurgError as exc:
            code = _write_error(exc)
        except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
            code = exc.code
        except Exception:  # a crash ends this line as it would end a process, not the batch
            traceback.print_exc()
            code = 1
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cmd_batch(args) -> int:
    if args.json:
        raise ChainsurgError("batch takes no --json: give it in each line's argv")
    # one loop over binary lines for FILE and stdin, each line decoded on its own
    if args.file is None:
        source, lines = "<stdin>", sys.stdin.buffer
    else:
        try:
            source, lines = args.file, io.BytesIO(Path(args.file).read_bytes())
        except OSError as exc:
            raise MalformedInput(f"cannot read input: {exc.strerror}", file=args.file) from None
    for number, line in enumerate(lines, 1):
        print(json.dumps(_batch_record(line, number, source), separators=(",", ":")), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ChainsurgError as exc:
        return _write_error(exc)


if __name__ == "__main__":
    sys.exit(main())
