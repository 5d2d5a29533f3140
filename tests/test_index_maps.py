"""Channel extraction and dense arrays on supports, with unchanged bytes.

Each op kind has one rule, its support rule: ``extract_logical_channel``
holds every input column on its support and applies each op once to all
of them, and ``apply_linear`` holds a dense array as one column. The old
dense path, kept here as the oracle, rebuilt every op's 2^n table once
per column. The channels must agree byte for byte (signed zeros
included) on every catalog and golden plan that the simulator takes, in
every outcome branch, with and without corrections, small channels
included. On inputs that hold zeros of either sign, each op and random
op chains must equal the oracle in value, and so have the bytes of every
nonzero component; only zeros may differ in sign, and the product with
an E^dagger-shaped array, as the hand-off forms it, must have the same
bytes either way. ``_preimages``, the one solve behind the
Hadamard-conjugated support rule, is checked against A^T on random
matrices.
"""
import itertools
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog, f2linalg, simverify
from chainsurg.csscode import SIMULATOR_QUBIT_LIMIT, PauliOperator, linear_indices, row_indices
from chainsurg.errors import ChainsurgError
from chainsurg.f2linalg import F2Matrix
from chainsurg.protocols import (
    AncillaStrategy,
    build_cnot_plan,
    direct_sum_code,
    measurement_correction,
    plan_channel,
    plan_encoders,
    plan_physical_ops,
    plan_to_json,
)
from chainsurg.simverify import (
    HadamardConjugatedParityMap,
    PhysicalOp,
    ParityMap,
    PauliGate,
    Projection,
    Supports,
    apply_linear,
    apply_sequence_linear,
    fix_phase_and_scale,
)
from test_plan_golden import PLANS as GOLDEN_PLANS

# --- the old per-column path, kept as the oracle ---------------------------------


def old_parity_indices(a: F2Matrix) -> np.ndarray:
    return linear_indices(row_indices(a.a.T))


def old_apply_pauli(p: PauliOperator, amps: np.ndarray) -> np.ndarray:
    zpar = linear_indices(p.z)
    shifted = amps * np.where(zpar, -1.0, 1.0) * p.sign
    xmask = row_indices(p.x[None, :])[0]
    if xmask:
        idx = np.arange(1 << p.n, dtype=np.int64) ^ xmask
        shifted = shifted[idx]
    return shifted


def old_apply_linear(op, amps: np.ndarray) -> np.ndarray:
    if isinstance(op, ParityMap):
        out = np.zeros(1 << op.matrix.rows, dtype=np.complex128)
        np.add.at(out, old_parity_indices(op.matrix), amps)
        return out
    if isinstance(op, HadamardConjugatedParityMap):
        a = op.matrix
        return amps[old_parity_indices(a.T)] * np.sqrt(2.0 ** (a.cols - a.rows))
    if isinstance(op, Projection):
        return (amps + op.outcome * old_apply_pauli(op.pauli, amps)) / 2.0
    return old_apply_pauli(op.pauli, amps)


def old_apply_sequence(ops, amps: np.ndarray) -> np.ndarray:
    for op in ops:
        amps = old_apply_linear(op, amps)
    return amps


def old_plan_channel(plan, outcomes, corrected):
    """plan_channel as it was: every op read afresh for every input column."""
    ops = plan_physical_ops(plan, outcomes)
    if corrected and outcomes:
        filled = {**{m: 1 for m in plan.measurement_ids()}, **outcomes}
        ops += [PauliGate(p) for p in measurement_correction(plan, filled)]
    e_in, e_out = plan_encoders(plan, outcomes)
    e_out_h = e_out.adjoint()
    mat = np.zeros((e_out_h.shape[0], 1 << e_in.k), dtype=np.complex128)
    columns = np.ascontiguousarray(e_in.matrix.T)
    for u in range(1 << e_in.k):
        mat[:, u] = e_out_h @ old_apply_sequence(ops, columns[u])
    return fix_phase_and_scale(mat)


def _outcome(fn, *args):
    """fn's result, or the type and message of the chainsurg error it raises."""
    try:
        return fn(*args).tobytes()
    except ChainsurgError as exc:
        return type(exc), str(exc)


# --- plans -----------------------------------------------------------------------


def _catalog_plans():
    plans = {}
    for name in catalog.catalog_names():
        code = catalog.catalog_code(name)
        if code.k:
            plans[f"{name}_anc_target"] = lambda c=code: build_cnot_plan(c, 0, None)
        if code.k >= 2:
            plans[f"{name}_c0t1"] = lambda c=code: build_cnot_plan(c, 0, 1)
    plans["steane_steane_c0t1"] = lambda: build_cnot_plan(
        direct_sum_code(catalog.steane(), catalog.steane()), 0, 1
    )
    return plans


def toric2_steane_c0t2():
    return build_cnot_plan(direct_sum_code(catalog.toric(2), catalog.steane()), 0, 2)


# 19-qubit ancilla-target plans beside the catalog's, as the benchmark runs them,
# and a direct sum whose xmerge.xx0 = -1 branch ends in a Z-type correction
LARGE_PLANS = {
    "toric_3_anc_target_c1": lambda: build_cnot_plan(catalog.toric(3), 1, None),
    "surface_3x4_anc_target": lambda: build_cnot_plan(catalog.surface_patch(3, 4), 0, None),
    "toric2_steane_c0t2": toric2_steane_c0t2,
}


def _simulable_plans():
    """Every catalog and golden plan of at most 20 qubits, each distinct plan once."""
    plans, seen = {}, set()
    golden = {f"golden_{k}": v for k, v in GOLDEN_PLANS.items()}
    for name, build in {**golden, **_catalog_plans(), **LARGE_PLANS}.items():
        plan = build()
        text = plan_to_json(plan)
        if plan.base_code.n <= SIMULATOR_QUBIT_LIMIT and text not in seen:
            seen.add(text)
            plans[name] = plan
    return plans


PLANS = _simulable_plans()


def _branches(plan):
    """Every outcome pattern of ``plan``: none read, then each pattern of signs."""
    ids = plan.measurement_ids()
    return [None] + [dict(zip(ids, s)) for s in itertools.product((1, -1), repeat=len(ids))]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_channel_bytes_match_the_per_column_path(name):
    plan = PLANS[name]
    for outcomes, corrected in itertools.product(_branches(plan), (True, False)):
        got = _outcome(plan_channel, plan, outcomes, corrected)
        assert got == _outcome(old_plan_channel, plan, outcomes, corrected), (outcomes, corrected)


def test_the_oracle_covers_every_op_kind_and_branch_error():
    assert {
        "golden_toric3_full",
        "golden_two_patch_locality_w2",
        "steane_steane_c0t1",
        "toric2_steane_c0t2",
    } <= set(PLANS)
    kinds, errors = set(), set()
    for plan in PLANS.values():
        ids = plan.measurement_ids()
        for signs in itertools.product((1, -1), repeat=len(ids)):
            outcomes = dict(zip(ids, signs))
            try:
                kinds |= {type(op) for op in plan_physical_ops(plan, outcomes)}
                measurement_correction(plan, outcomes)
            except ChainsurgError as exc:
                errors.add(type(exc).__name__)
    assert kinds == {ParityMap, HadamardConjugatedParityMap, Projection, PauliGate}
    assert errors  # a locality plan refuses corrections for -1 outcomes


# --- single ops on amplitudes with signed zeros ----------------------------------


def signed_zero_amps(r, n):
    """Random real-valued amplitudes in which zeros of either sign are common."""
    out = np.empty(1 << n, dtype=np.complex128)
    out.real = r.choice([0.0, -0.0, 0.5, -0.5, 0.25], size=1 << n)
    out.imag = r.choice([0.0, -0.0], size=1 << n)
    return out


def _random_ops(r, n):
    pauli = lambda: PauliOperator(x=r.randint(0, 2, n), z=r.randint(0, 2, n), sign=int(r.choice([1, -1])))
    m = r.randint(0, 2, size=(n, n))
    taller = np.vstack([m, m[:1] ^ m[-1:]])  # n + 1 rows, one of them a sum of two others
    return [
        ParityMap(F2Matrix(m)),
        ParityMap(F2Matrix(m[: n - 1])),
        ParityMap(F2Matrix(taller)),
        HadamardConjugatedParityMap(F2Matrix(m)),
        HadamardConjugatedParityMap(F2Matrix(m[: n - 1])),
        HadamardConjugatedParityMap(F2Matrix(taller)),
        PauliGate(pauli()),
        PauliGate(PauliOperator.from_z(r.randint(0, 2, n))),
        Projection(pauli(), outcome=int(r.choice([1, -1]))),
        Projection(PauliOperator.from_x(r.randint(0, 2, n)), outcome=-1),
    ]


def e_dagger_like(r, n: int, rows: int) -> np.ndarray:
    """An array shaped and laid out as Encoder.adjoint gives E^dagger: F-ordered,
    every imaginary part -0, and some entries exact zeros (0, -0)."""
    e_h = np.full((1 << n, rows), complex(0.0, -0.0)).T
    e_h.real = r.choice([0.0, 0.5, -0.5, 0.25], size=e_h.shape)
    return e_h


@pytest.mark.parametrize("n", [1, 4, 9])
def test_op_bytes_match_the_old_op_on_signed_zeros(n):
    """Each op on a dense array, through its support rule, equals its old oracle
    in value, from n_in to n_out qubits, equal or not, so every nonzero component
    has its bytes; only the sign of a zero may differ, which no product with
    E^dagger, as the channel hand-off forms it, shows."""
    r = np.random.RandomState(n)
    ops = _random_ops(r, n)
    assert {op.n_out - op.n_in for op in ops} == {-1, 0, 1}
    for op in ops:
        e_h = e_dagger_like(r, op.n_out, 3)
        for _ in range(3):
            amps = signed_zero_amps(r, op.n_in)
            got, expect = apply_linear(op, amps), old_apply_linear(op, amps)
            assert got.shape == expect.shape and np.array_equal(got, expect)
            assert (e_h @ got).tobytes() == (e_h @ expect).tobytes()


# --- random op chains on signed zeros ---------------------------------------------


def _op_on(r, n_in: int, kind: str):
    """A random op of ``kind`` on n_in qubits, from the numpy generator ``r``."""
    n_out = int(r.randint(max(1, n_in - 1), min(n_in + 1, 6) + 1))
    pauli = PauliOperator(x=r.randint(0, 2, n_in), z=r.randint(0, 2, n_in), sign=int(r.choice([1, -1])))
    if kind == "parity":  # two equal columns: not injective
        m = r.randint(0, 2, size=(n_out, n_in))
        i, j = r.choice(n_in, 2, replace=False) if n_in > 1 else (0, 0)
        m[:, i] = m[:, j] if n_in > 1 else 0
        return ParityMap(F2Matrix(m))
    if kind == "hconj":  # a zero row: ker A^T holds that unit vector
        m = r.randint(0, 2, size=(n_out, n_in))
        m[r.randint(n_out)] = 0
        return HadamardConjugatedParityMap(F2Matrix(m))
    if kind == "pauli":
        return PauliGate(pauli)
    if kind == "pauli-":
        return PauliGate(PauliOperator(x=pauli.x, z=pauli.z | (np.arange(n_in) == 0), sign=-1))
    if kind == "pauliz":
        return PauliGate(PauliOperator.from_z(pauli.z | (np.arange(n_in) == 0)))
    return Projection(pauli, outcome=-1 if kind == "project-" else int(r.choice([1, -1])))


# In every chain: a non-injective parity map, a Hadamard-conjugated one with a
# kernel, and two Paulis in a row (one of sign -1, then a Z-only one) right
# before a projection with outcome -1. The rest of each chain is random.
REQUIRED = (("parity",), ("hconj",), ("pauli-", "pauliz", "project-"))
KINDS = ("parity", "hconj", "pauli", "project")


@st.composite
def op_chains(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.RandomState(seed)
    blocks = [list(b) for b in REQUIRED] + [[k] for k in draw(st.lists(st.sampled_from(KINDS), max_size=8))]
    r.shuffle(blocks)
    n = n_in = draw(st.integers(1, 5))
    ops = []
    for kind in (k for block in blocks for k in block):
        ops.append(_op_on(r, n, kind))
        n = ops[-1].n_out
    columns = draw(st.integers(1, 3))
    inputs = np.zeros((columns, 1 << n_in), dtype=np.complex128)
    held = r.rand(columns, 1 << n_in) < 0.3
    inputs.real[held] = r.choice([0.0, -0.0, 0.5, -0.5, 0.25], size=held.sum())
    inputs.imag[held] = r.choice([0.0, -0.0, 0.5], size=held.sum())
    u, x = np.nonzero(held)
    return ops, inputs, (u << n_in) | x, e_dagger_like(r, n, draw(st.integers(1, 4)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(op_chains())
def test_support_rules_match_the_old_ops_on_signed_zeros(chain):
    ops, inputs, keys, e_h = chain
    assert any(isinstance(op, PauliGate) and op.pauli.sign == -1 for op in ops)
    assert any(isinstance(op, PauliGate) and not op.pauli.x.any() and op.pauli.z.any() for op in ops)
    assert any(isinstance(op, Projection) and op.outcome == -1 for op in ops)
    assert e_h.flags.f_contiguous
    states = Supports(ops[0].n_in, keys, inputs.reshape(-1)[keys])
    for op in ops:
        states = apply_linear(op, states)
    for u, amps in enumerate(inputs):
        expect = old_apply_sequence(ops, amps)
        assert np.array_equal(apply_sequence_linear(ops, amps), expect), u
        got = np.zeros(1 << states.n, dtype=np.complex128)
        at, values = states.held(u)
        got[at] = values
        # equal in value: every nonzero component has the dense bytes
        assert np.array_equal(got, expect), u
        assert (e_h @ got).tobytes() == (e_h @ expect).tobytes(), u


# --- the preimages of A^T, from one elimination -------------------------------------


@st.composite
def binary_matrices(draw):
    """Random 0/1 matrices of any shape up to 6 x 6, often with zero or repeated rows."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = r.randint(0, 2, size=(rows, cols))
    m[r.rand(rows) < 0.2] = 0
    if rows > 1 and draw(st.booleans()):
        i, j = r.choice(rows, 2, replace=False)
        m[i] = m[j]
    return F2Matrix(m)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(binary_matrices())
def test_preimages_solve_the_transpose_by_one_elimination(a):
    op = HadamardConjugatedParityMap(a)
    with mock.patch.object(f2linalg, "rref", wraps=f2linalg.rref) as rref:
        tables, kernel = op.support_map
    assert rref.call_count == 1
    xs = np.arange(1 << a.cols)
    solved = simverify._lookup(tables, xs)
    image = old_parity_indices(a.T)  # A^T y at every index y
    solvable = np.isin(xs, image)
    # r(x) = 0 exactly when A^T y = x is solvable, and y0(x) solves it then
    assert np.array_equal(solved >> a.rows == 0, solvable)
    assert np.array_equal(image[solved[solvable]], xs[solvable])
    # the kernel table enumerates ker A^T, each of its 2^dim indices once
    assert len(kernel) == 1 << (a.rows - f2linalg.rank(a))
    assert np.array_equal(np.sort(kernel), np.flatnonzero(image == 0))


# --- each op builds its index map once ------------------------------------------------


def _record_builds(monkeypatch) -> list:
    """The list of ops whose cached ``support_map`` is built, one entry per build."""
    built = []
    for cls in (ParityMap, HadamardConjugatedParityMap, simverify._PauliAction):
        real = cls.__dict__["support_map"].func
        prop = cached_property(lambda op, real=real: built.append(op) or real(op))
        prop.__set_name__(cls, "support_map")
        monkeypatch.setattr(cls, "support_map", prop)
    return built


def _record_applications(monkeypatch) -> list:
    """The list of (op, states) that pass through ``simverify.apply_linear``."""
    applied, real = [], simverify.apply_linear
    monkeypatch.setattr(simverify, "apply_linear", lambda op, amps: applied.append((op, amps)) or real(op, amps))
    return applied


def _step_op_ids(plan) -> set:
    return {id(op) for step in plan.steps for op in getattr(step, "ops", ())}


COUNT_PLANS = {  # name -> (plan, number of logical inputs k_in)
    "steane_provided_steane": (
        lambda: build_cnot_plan(
            catalog.steane(), 0, None, ancilla=AncillaStrategy.provided(catalog.steane())
        ),
        1,
    ),
    "steane_steane_c0t1": (
        lambda: build_cnot_plan(direct_sum_code(catalog.steane(), catalog.steane()), 0, 1),
        2,
    ),
    "toric2_steane_c0t2": (toric2_steane_c0t2, 3),
}

# (plan, the one outcome read as -1): the first measurement's branch has a gauge
# and a correction of X type; an xmerge.xx0 = -1 branch ends in a Z-type correction
COUNT_BRANCHES = [pytest.param(name, None, id=name) for name in sorted(COUNT_PLANS)] + [
    ("steane_steane_c0t1", "xmerge.xx0"),
    ("toric2_steane_c0t2", "xmerge.xx0"),
]


@pytest.mark.parametrize("name,flipped", COUNT_BRANCHES)
def test_each_op_support_map_is_built_once(name, flipped, monkeypatch):
    build, k_in = COUNT_PLANS[name]
    plan = build()
    ids = plan.measurement_ids()
    outcomes = {flipped or ids[0]: -1}
    correction = measurement_correction(plan, {m: 1 for m in ids} | outcomes)
    assert len(correction) == 1 and correction[0].z.any() == (flipped is not None)
    e_in = plan_encoders(plan, outcomes)[0]
    assert e_in.k == k_in
    maps = _record_builds(monkeypatch)
    applied = _record_applications(monkeypatch)
    eliminated, real_preimages = [], simverify._preimages
    monkeypatch.setattr(simverify, "_preimages", lambda a: eliminated.append(a) or real_preimages(a))
    plan_channel(plan, outcomes)
    ops = plan_physical_ops(plan, outcomes) + correction
    assert len(maps) == len(ops) == len({id(op) for op in maps})
    # each Hadamard-conjugated map is a step's, built from its merge's sections
    assert eliminated == []
    solved = [op for op in maps if isinstance(op, HadamardConjugatedParityMap)]
    assert solved and all(op.preimages is not None for op in solved)
    # every op is applied once, to the supports of all columns, through apply_linear
    assert [id(op) for op, _ in applied] == [id(op) for op in maps]
    assert all(isinstance(states, Supports) for _, states in applied)

    # the merge and split ops live on their steps, and keep their maps for
    # the next channel; its gauge, projection and correction ops are new
    first, step_ops = len(maps), _step_op_ids(plan)
    plan_channel(plan, outcomes)
    again = {id(op) for op, _ in applied[len(ops):]}
    assert {id(op) for op in maps[first:]} == again - step_ops
    assert len(maps) - first == len(again - step_ops) == len(ops) - len(step_ops)


# --- one rule per op: small channels and dense arrays take the support path too -----


def _channel_amplitudes(plan, outcomes) -> int:
    """2^k columns of 2^n amplitudes: the size of the channel's input states."""
    e_in = plan_encoders(plan, outcomes)[0]
    return 1 << e_in.k + e_in.code.n


SMALL = 1 << 11  # the channels a dense per-column path once simulated
SMALL_PLANS = sorted(name for name, plan in PLANS.items() if _channel_amplitudes(plan, None) <= SMALL)


def test_small_channels_are_covered():
    assert {"golden_steane_anc_target", "golden_toric2_embedded", "toric_2_c0t1"} <= set(SMALL_PLANS)
    assert any(_channel_amplitudes(PLANS[name], None) == SMALL for name in SMALL_PLANS)


@pytest.mark.parametrize("name", SMALL_PLANS)
def test_small_channels_take_the_support_path(name, monkeypatch):
    """Each op is applied once, to the supports of all columns, and the channel
    has the oracle's bytes, in every outcome branch, with and without corrections."""
    plan = PLANS[name]
    applied = _record_applications(monkeypatch)
    for outcomes, corrected in itertools.product(_branches(plan), (True, False)):
        if _channel_amplitudes(plan, outcomes) > SMALL:
            continue
        del applied[:]
        got = _outcome(plan_channel, plan, outcomes, corrected)
        assert got == _outcome(old_plan_channel, plan, outcomes, corrected), (outcomes, corrected)
        assert applied and all(isinstance(states, Supports) for _, states in applied)
        assert len({id(op) for op, _ in applied}) == len(applied)


def test_each_op_kind_has_one_rule():
    kinds, found = set(), [PhysicalOp]
    while found:
        cls = found.pop()
        kinds.add(cls)
        found.extend(cls.__subclasses__())
    assert {ParityMap, HadamardConjugatedParityMap, PauliGate, Projection} <= kinds
    for cls in kinds:
        assert not {"apply", "table"} & set(vars(cls)), cls
    for name in ("DENSE_CHANNEL_AMPLITUDES", "_parity_indices"):
        assert not hasattr(simverify, name)
    assert not hasattr(simverify.Encoder, "column")
