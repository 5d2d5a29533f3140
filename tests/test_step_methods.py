"""Each plan step kind owns its transport, physical ops and correction.

The dispatchers that chose this behaviour with ``isinstance`` tests on the
step classes are kept here as the oracle. On every golden and catalog
plan, the step methods must give the same transported Paulis (bytes and
sign) and flips for every logical and stabilizer generator through every
step, the same physical ops for every outcome pattern, and the same
correction (or the same error) for every set of -1 outcomes.
"""
import ast
import dataclasses
import itertools
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainsurg
from chainsurg import catalog, f2linalg
from chainsurg.csscode import PauliOperator, symplectic_product
from chainsurg.errors import ChainsurgError, CorrectionUnavailable, DimensionMismatch, EmptyOverlap
from chainsurg.f2linalg import Elimination, F2Matrix
from chainsurg.protocols import (
    _STEP_TABLE,
    AncillaStrategy,
    ApplyCorrection,
    InitAncilla,
    MeasureLogical,
    MergeStep,
    PlanStep,
    SplitStep,
    _outcome_correction,
    build_cnot_plan,
    plan_physical_ops,
    plan_symplectic_action,
    plan_to_json,
    propagate_pauli,
)
from chainsurg.simverify import PauliGate, PhysicalOp, Projection, physical_op_sequence
from chainsurg.surgery import quotient_merge
from test_index_maps import _catalog_plans
from test_plan_golden import PLANS as GOLDEN_PLANS

# --- the isinstance dispatchers, kept as the oracle ------------------------------


def old_measurement_ids(steps) -> list[str]:
    ids: list[str] = []
    for step in steps:
        if isinstance(step, MergeStep):
            ids.extend(step.measurement_ids)
        elif isinstance(step, MeasureLogical):
            ids.append(step.measurement_id)
    return ids


def old_solve_branch_gauge(step: MergeStep, signs: Sequence[int]) -> Optional[np.ndarray]:
    flips = np.array([1 if s == -1 else 0 for s in signs], dtype=np.uint8)
    w = np.zeros(step.merge.source.dim1, dtype=np.uint8)
    if not flips.any():
        return w
    inserts = step.branch_inserts
    if inserts and all(ins is not None for ins in inserts):
        for bit, ins in zip(flips, inserts):
            if bit:
                w ^= ins.x if step.orientation == "Z" else ins.z
        return w
    return step.gauge_system.solve(
        np.concatenate([flips, np.zeros(step.merge.source.dim2, dtype=np.uint8)])
    )


def old_transport(step, p: PauliOperator):
    merging = isinstance(step, MergeStep)
    m = step.merge
    f1 = m.p.f1 if merging else m.p.f1.T
    flipping, exact = (p.x, p.z) if step.orientation == "Z" else (p.z, p.x)
    v1 = m.subcode.oriented_spaces()[1]
    if merging:
        pattern = v1.basis @ flipping
        fix = old_solve_branch_gauge(step, [-1 if f else 1 for f in pattern])
        if fix is None:
            raise DimensionMismatch(
                "flip pattern inconsistent with stabilizers; transported operator corrupt"
            )
        flipping = flipping ^ fix
    pulled = Elimination(f1.T).solve(flipping)
    if pulled is None:
        raise DimensionMismatch("transport failed: the flipping side has no preimage")
    if not merging and v1.dim:
        residue = m.source.d1 @ pulled
        if residue.any():
            coeffs = step.residue_system.solve(residue)
            if coeffs is not None:
                pulled = pulled ^ (v1.basis.T @ coeffs)
    pushed = f1 @ exact
    x, z = (pulled, pushed) if step.orientation == "Z" else (pushed, pulled)
    out = PauliOperator(x=x, z=z, sign=p.sign)
    if merging:
        return out, {mid: 1 for mid, f in zip(step.measurement_ids, pattern) if f}
    return out, {
        f"{step.orientation.lower()}split.proj.{op.pauli.label()}": 1
        for op in step.ops
        if isinstance(op, Projection) and symplectic_product(out, op.pauli)
    }


def old_propagate_pauli(step, p: PauliOperator):
    if isinstance(step, (InitAncilla, ApplyCorrection)):
        return p, {}
    if isinstance(step, (MergeStep, SplitStep)):
        return old_transport(step, p)
    if isinstance(step, MeasureLogical):
        flip = symplectic_product(p, step.pauli)
        return p, ({step.measurement_id: 1} if flip else {})
    raise DimensionMismatch(f"unknown plan step {step!r}")


def old_outcome_correction(plan, flipped_ids) -> PauliOperator:
    total = PauliOperator.identity(plan.base_code.n)
    if not flipped_ids:
        return total
    if plan.locality:
        raise CorrectionUnavailable(
            "corrections for locality-decomposed merges are an open question"
        )
    for step in plan.steps:
        if isinstance(step, MergeStep):
            signs = [-1 if m in flipped_ids else 1 for m in step.measurement_ids]
            if -1 not in signs:
                continue
            if len(signs) > 1:
                total = total.compose(old_class_correction(plan, step, signs))
                continue
            old_check_branch_overlap(step)
            rule = plan.correction_rules.get(step.measurement_ids[0])
            if rule is None:
                raise CorrectionUnavailable(f"no correction rule for {step.measurement_ids[0]}")
            total = total.compose(rule)
        elif isinstance(step, ApplyCorrection) and step.condition in flipped_ids:
            total = total.compose(step.pauli)
    return total


def old_check_branch_overlap(step: MergeStep) -> None:
    insert = step.branch_inserts[0]
    if insert is None:
        return
    v = step.merge.subcode.oriented_spaces()[1].basis.row(0)
    part = insert.x if step.orientation == "Z" else insert.z
    if int(part @ v) % 2 != 1:
        raise EmptyOverlap(
            "branch gauge commutes with the measured operator; dual bases corrupted"
        )


def old_class_correction(plan, step: MergeStep, signs: Sequence[int]) -> PauliOperator:
    w = old_solve_branch_gauge(step, signs)
    if w is None:
        raise CorrectionUnavailable(
            "outcome pattern is inconsistent with the merged stabilizers"
        )
    basis = plan.base_code.x_logicals if step.orientation == "Z" else plan.base_code.z_logicals
    coords = basis.class_coordinates(w)
    if not coords.any():
        return PauliOperator.identity(plan.base_code.n)
    if plan.class_correction is None:
        raise CorrectionUnavailable("plan carries no class correction rule")
    return plan.class_correction


def old_plan_physical_ops(plan, outcomes=None) -> list:
    outcomes = outcomes or {}
    ops: list = []
    for step in plan.steps:
        if isinstance(step, InitAncilla):
            continue
        if isinstance(step, MergeStep):
            w = old_solve_branch_gauge(step, [outcomes.get(m, 1) for m in step.measurement_ids])
            if w is None:
                raise CorrectionUnavailable(
                    "outcome pattern is inconsistent with the merged stabilizers"
                )
            if w.any():
                side = PauliOperator.from_x if step.orientation == "Z" else PauliOperator.from_z
                ops.append(PauliGate(side(w)))
            ops.extend(physical_op_sequence(step.merge.p, step.orientation))
        elif isinstance(step, SplitStep):
            ops.extend(step.ops)
        elif isinstance(step, MeasureLogical):
            ops.append(Projection(step.pauli, outcomes.get(step.measurement_id, 1)))
        elif isinstance(step, ApplyCorrection):
            continue
    return ops


# --- comparable forms ------------------------------------------------------------


def _pauli_key(p: PauliOperator):
    return p.x.dtype.str, p.x.tobytes(), p.z.dtype.str, p.z.tobytes(), p.sign


def _op_key(op):
    if isinstance(op, (PauliGate, Projection)):
        return type(op).__name__, _pauli_key(op.pauli), getattr(op, "outcome", None)
    return type(op).__name__, op.matrix.shape, op.matrix.a.tobytes()


def _result(fn, *args, key):
    """key(fn(*args)), or the type and message of the chainsurg error it raises."""
    try:
        return key(fn(*args))
    except ChainsurgError as exc:
        return type(exc), str(exc)


def _transport_key(result):
    p, flips = result
    return _pauli_key(p), flips


# --- plans -----------------------------------------------------------------------


def _plans():
    """Every golden and catalog plan, each distinct plan once."""
    plans, seen = {}, set()
    golden = {f"golden_{k}": v for k, v in GOLDEN_PLANS.items()}
    for name, build in {**golden, **_catalog_plans()}.items():
        plan = build()
        text = plan_to_json(plan)
        if text not in seen:
            seen.add(text)
            plans[name] = plan
    return plans


PLANS = _plans()


def _corrupted_plans():
    """Plans whose corrections fail in each way the correction rules can."""
    toric = PLANS["toric_2_c0t1"]
    merge = toric.steps[1]
    even = PauliOperator.from_x(np.zeros(toric.base_code.n, dtype=np.uint8))
    commuting = dataclasses.replace(merge, branch_inserts=(even,))
    switch = PLANS["golden_code_switch"]
    return {
        "no_rules": dataclasses.replace(toric, correction_rules={}),
        "commuting_insert": dataclasses.replace(
            toric, steps=(toric.steps[0], commuting) + toric.steps[2:]
        ),
        "no_class_correction": dataclasses.replace(switch, class_correction=None),
    }


ALL_PLANS = {**PLANS, **_corrupted_plans()}


def _generators(code):
    """Every stabilizer and logical generator of the code, as Paulis."""
    xs = list(code.hx.a) + [code.x_logical(i) for i in range(code.k)]
    zs = list(code.hz.a) + [code.z_logical(i) for i in range(code.k)]
    return [PauliOperator.from_x(v) for v in xs] + [PauliOperator.from_z(v) for v in zs]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_transport_matches_the_dispatcher(name):
    plan = PLANS[name]
    for p in _generators(plan.base_code):
        p = PauliOperator(x=p.x, z=p.z, sign=-1) if p.z.any() else p  # both signs travel
        for step in plan.steps:
            got = _result(propagate_pauli, step, p, key=_transport_key)
            assert got == _result(old_propagate_pauli, step, p, key=_transport_key), step
            assert got == _result(step.transport, p, key=_transport_key)
            p = propagate_pauli(step, p)[0]


# the subcode of each worked example that has one, and of each merge of two plans
SUBCODES = {
    **{name: ex.subcode for name in catalog.example_names() if (ex := catalog.worked_example(name)).subcode},
    **{
        f"{name}_{i}": step.merge.subcode
        for name in ("toric_2_c0t1", "golden_code_switch")
        for i, step in enumerate(PLANS[name].steps)
        if isinstance(step, MergeStep)
    },
}


def _hand_built_step(m) -> MergeStep:
    """A merge step built by hand, as tests/test_acceptance.py builds one: each gauge solved per pattern."""
    v1 = m.subcode.v1
    return MergeStep(
        merge=m,
        orientation=m.orientation,
        measurement_ids=tuple(f"m{i}" for i in range(v1.dim)),
        pivot_qubits=v1.pivots,
        logical_matrix=F2Matrix.zeros(0, 0),
        branch_inserts=(None,) * v1.dim,
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SUBCODES)), st.booleans(), st.integers(0, 2**32 - 1))
def test_merge_pull_back_through_the_section(name, supplied, seed):
    """The pull-back s1.T x is p1.T's one preimage, with default and with supplied degree-1
    representatives, and a hand-built step transports random Paulis as the oracle does."""
    r = np.random.RandomState(seed)
    sub = SUBCODES[name]
    m = quotient_merge(sub.parent, sub)
    if supplied:  # the default representatives, each shifted by a random member of V1
        v1 = sub.v1.basis.a
        shift = (r.randint(0, 2, size=(m.p.f1.rows, v1.shape[0])) @ v1 % 2).astype(np.uint8)
        m = quotient_merge(sub.parent, sub, quotient_bases={1: list(m.sections[1].a.T ^ shift)})
        assert m.supplied[1] is not None
    p1, n = m.p.f1, m.source.dim1
    images = [p1.T @ r.randint(0, 2, size=p1.rows) for _ in range(3)]
    for x in images:
        assert np.array_equal(m.times_section(1, x), Elimination(p1.T).solve(x))
    step = _hand_built_step(m)
    for flipping in images + [r.randint(0, 2, size=n) for _ in range(3)]:
        exact = r.randint(0, 2, size=n)
        x, z = (flipping, exact) if m.orientation == "Z" else (exact, flipping)
        p = PauliOperator(x=x, z=z, sign=int(r.choice([1, -1])))
        got = _result(step.transport, p, key=_transport_key)
        assert got == _result(old_transport, step, p, key=_transport_key)


def _split_plans():
    """Every plan above, the catalog CNOTs with embedded and provided ancillas, and locality
    plans whose merges have one to three generators."""
    toric2, steane = catalog.toric(2), catalog.steane()
    plans = {
        "toric2_embedded_t0": build_cnot_plan(toric2, 1, None, ancilla=AncillaStrategy.embedded(0)),
        "toric2_provided_toric2_1": build_cnot_plan(toric2, 0, None, ancilla=AncillaStrategy.provided(toric2, 1)),
        "toric2_provided_steane_c0t1": build_cnot_plan(toric2, 0, 1, ancilla=AncillaStrategy.provided(steane)),
    }
    for size, weight in itertools.product((2, 3, 4), (2, 3)):
        plans[f"toric{size}_w{weight}"] = build_cnot_plan(catalog.toric(size), 0, 1, locality=True, max_weight=weight)
    for size, weight in itertools.product((3, 4), (2, 4)):
        patch = catalog.surface_patch(size, size)
        plans[f"surface{size}_w{weight}"] = build_cnot_plan(patch, 0, None, locality=True, max_weight=weight)
    return {**PLANS, **plans}


SPLIT_PLANS = _split_plans()


@pytest.mark.parametrize("name", sorted(SPLIT_PLANS))
def test_split_pull_back_is_the_pivot_solution_of_p1(name):
    """Each split pulls back random Paulis of the merged register as the old transport did,
    through the pivot solution of one elimination of p1; one generator or several."""
    plan = SPLIT_PLANS[name]
    r = np.random.RandomState(sum(map(ord, name)))
    splits = [step for step in plan.steps if isinstance(step, SplitStep)]
    assert splits
    for step in splits:
        p1 = step.merge.p.f1
        oracle = Elimination(p1)
        for _ in range(8):
            x, z = r.randint(0, 2, size=(2, p1.rows))
            got = _result(step.transport, PauliOperator(x=x, z=z), key=_transport_key)
            assert got == _result(old_transport, step, PauliOperator(x=x, z=z), key=_transport_key)
            # the pull-back before its residue is fixed: x at V1's free columns, reduced reversed
            flipping = x if step.orientation == "Z" else z
            pulled = np.zeros(p1.cols, dtype=np.uint8)
            pulled[step.merge.subcode.v1.free] = flipping
            reduced = f2linalg._reduce_rows(pulled[None, ::-1], step.reversed_v1)[0, ::-1]
            assert np.array_equal(reduced, oracle.solve(flipping))


def test_symplectic_action_eliminates_no_projection():
    """On a toric-9 CNOT no split is pulled back by an elimination of p1, nor is
    anything else eliminated: each transported Pauli is checked by products."""
    plan = build_cnot_plan(catalog.toric(9), 0, 1)
    shapes = {step.merge.p.f1.shape for step in plan.steps if isinstance(step, SplitStep)}
    seen = []
    original = f2linalg.rref

    def recorded(m, *args, **kwargs):
        seen.append(m.shape)
        return original(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for module in (f2linalg, chainsurg.chaincomplex, chainsurg.csscode, chainsurg.surgery):
            mp.setattr(module, "rref", recorded)
        action = plan_symplectic_action(plan)
    assert len(action) == 2 * plan.base_code.k
    assert shapes == {(162, 163)} and seen == []


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_ops_and_corrections_match_the_dispatcher_on_every_pattern(name):
    plan = ALL_PLANS[name]
    ids = plan.measurement_ids()
    assert ids == old_measurement_ids(plan.steps)
    ops_key = lambda ops: [_op_key(op) for op in ops]
    for signs in itertools.product((1, -1), repeat=len(ids)):
        outcomes = dict(zip(ids, signs))
        got = _result(plan_physical_ops, plan, outcomes, key=ops_key)
        assert got == _result(old_plan_physical_ops, plan, outcomes, key=ops_key), outcomes
        flipped = {m for m, s in outcomes.items() if s == -1}
        got = _result(_outcome_correction, plan, flipped, key=_pauli_key)
        assert got == _result(old_outcome_correction, plan, flipped, key=_pauli_key), flipped
    assert _result(plan_physical_ops, plan, None, key=ops_key) == _result(
        old_plan_physical_ops, plan, None, key=ops_key
    )


def test_the_oracle_reaches_every_refusal():
    """The plans above raise every error the old dispatchers could raise on outcomes."""
    messages = set()
    for plan in ALL_PLANS.values():
        ids = plan.measurement_ids()
        for signs in itertools.product((1, -1), repeat=len(ids)):
            flipped = {m for m, s in zip(ids, signs) if s == -1}
            outcomes = dict(zip(ids, signs))
            for fn, arg in ((old_outcome_correction, flipped), (old_plan_physical_ops, outcomes)):
                try:
                    fn(plan, arg)
                except ChainsurgError as exc:
                    messages.add(str(exc))
    assert messages == {
        "corrections for locality-decomposed merges are an open question",
        "outcome pattern is inconsistent with the merged stabilizers",
        "branch gauge commutes with the measured operator; dual bases corrupted",
        "no correction rule for zmerge.zz0",
        "no correction rule for xmerge.xx0",
        "plan carries no class correction rule",
    }


def test_steps_share_one_base_with_identity_defaults():
    assert set(_STEP_TABLE) == set(PlanStep.__subclasses__())
    plan = PLANS["toric_2_c0t1"]
    init, correction = plan.steps[0], plan.steps[-1]
    p = PauliOperator.from_x(plan.base_code.x_logical(0))
    for step in (init, correction):
        out, flips = step.transport(p)
        assert out is p and flips == {}
        assert step.physical_ops(frozenset()) == ()
        assert step.measurement_ids == ()
    assert init.correction(plan, {"final.za"}) is None
    assert correction.correction(plan, {"final.za"}) is correction.pauli
    assert correction.correction(plan, set()) is None
    assert plan.final_measurement is plan.steps[-2]
    assert PLANS["golden_steane_anc_target"].final_measurement is None


def test_merge_ops_are_built_once():
    plan = PLANS["toric_2_c0t1"]
    merge = plan.steps[1]
    first = merge.physical_ops(frozenset())
    assert first is merge.ops
    flipped = merge.physical_ops({merge.measurement_ids[0]})
    assert isinstance(flipped[0], PauliGate)
    assert all(a is b for a, b in zip(flipped[1:], first))


# --- no dispatch on step classes ------------------------------------------------

# the places that may still test a step's class: the loader, which checks that
# only merges key correction rules, and the plan's one logical measurement
ISINSTANCE_ALLOWED = {"plan_from_json", "SurgeryPlan.final_measurement"}


def scoped_nodes(node, scope=""):
    """(qualified name of the enclosing function or class, node) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from scoped_nodes(child, inner)


def step_class_isinstance_sites(package_dir: Path, step_classes: set) -> list:
    """(module, qualified function name, line) of every isinstance naming one of ``step_classes``."""
    sites = []
    for path in sorted(package_dir.glob("*.py")):
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                classes = node.args[1]
                names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
                if any(isinstance(n, ast.Name) and n.id in step_classes for n in names):
                    sites.append((path.name, scope, node.lineno))
    return sites


def test_no_isinstance_dispatch_on_step_classes():
    step_classes = {cls.__name__ for cls in _STEP_TABLE} | {"PlanStep"}
    sites = step_class_isinstance_sites(Path(chainsurg.__file__).parent, step_classes)
    stray = [site for site in sites if site[1] not in ISINSTANCE_ALLOWED]
    assert not stray, stray
    assert {scope for _, scope, _ in sites} == ISINSTANCE_ALLOWED
    assert len(sites) == 2


# the places that may still test an op's class: the renormalization of a
# projection, and the counterexample that drops the projections
OP_ISINSTANCE_ALLOWED = {"apply", "counterexample_check"}


def test_no_isinstance_dispatch_on_op_classes():
    op_classes, found = set(), [PhysicalOp]
    while found:
        cls = found.pop()
        op_classes.add(cls.__name__)
        found.extend(cls.__subclasses__())
    assert {"ParityMap", "HadamardConjugatedParityMap", "PauliGate", "Projection"} <= op_classes
    sites = step_class_isinstance_sites(Path(chainsurg.__file__).parent, op_classes | {"Encoder"})
    assert sorted(scope for _, scope, _ in sites) == sorted(OP_ISINSTANCE_ALLOWED), sites


def test_the_isinstance_scan_sees_dispatch(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(step):\n"
        "    if isinstance(step, (InitAncilla, Other)):\n"
        "        return 1\n"
        "class C:\n"
        "    def g(self, s):\n"
        "        return isinstance(s, MergeStep) or isinstance(s, int)\n"
    )
    sites = step_class_isinstance_sites(tmp_path, {"InitAncilla", "MergeStep"})
    assert sites == [("mod.py", "f", 2), ("mod.py", "C.g", 6)]


# --- outcomes are read in one place ------------------------------------------------

OUTCOME_READER = "_flipped_ids"


def outcome_read_sites(path: Path) -> list:
    """(qualified function name, line) of every read of the name ``outcomes`` outside the reader.

    Elsewhere ``outcomes`` may only be passed on unread: as a call
    argument, or in ``outcomes or {}``. Binding the name is not a read.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            passed.update(id(arg) for arg in node.args + [kw.value for kw in node.keywords])
        elif (
            isinstance(node, ast.BoolOp)
            and isinstance(node.op, ast.Or)
            and len(node.values) == 2
            and isinstance(node.values[1], ast.Dict)
            and not node.values[1].keys
        ):
            passed.add(id(node.values[0]))
    return [
        (scope, node.lineno)
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Name)
        and node.id == "outcomes"
        and isinstance(node.ctx, ast.Load)
        and id(node) not in passed
        and OUTCOME_READER not in scope.split(".")
    ]


def test_outcomes_are_read_only_by_the_reader():
    assert outcome_read_sites(Path(chainsurg.__file__).parent / "protocols.py") == []


def test_the_outcome_scan_sees_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def _flipped_ids(plan, outcomes):\n"
        "    return {i for i in outcomes if outcomes[i] == -1}\n"
        "def passes(plan, outcomes=None):\n"
        "    outcomes = outcomes or {}\n"
        "    return run(plan, outcomes), _flipped_ids(plan, outcomes=outcomes or {})\n"
        "def reads(plan, outcomes):\n"
        "    if outcomes:\n"
        "        return run(outcomes.get('a', 1))\n"
        "class S:\n"
        "    def ops(self, outcomes):\n"
        "        return [outcomes[m] for m in self.ids] + run({**outcomes})\n"
    )
    assert outcome_read_sites(path) == [("reads", 7), ("reads", 8), ("S.ops", 11), ("S.ops", 11)]
