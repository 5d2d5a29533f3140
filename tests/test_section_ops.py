"""The physical ops of a merge and its split, read off the merge's sections.

``merge_op_sequence`` and ``split_op_sequence`` build a plan step's ops
with no elimination: a merge's coset representatives (its sections, with
p @ section = I) already solve the Hadamard-conjugated parity map's
system, and the split's projections come from V0^perp. The generic
interpretation of a chain map, ``physical_op_sequence`` with its one
elimination per Hadamard-conjugated map (``_preimages``), is the oracle:
on every catalog, golden and locality plan, and on the worked examples'
merges with default and with supplied representatives, the ops must be
equal, and for up to 14 input qubits the preimage tables must agree on
every input, both on whether it has a preimage and on the coset of them.
"""
import numpy as np
import pytest

from chainsurg import catalog, simverify
from chainsurg.f2linalg import F2Matrix
from chainsurg.protocols import (
    MergeStep,
    SplitStep,
    build_cnot_plan,
    code_switch_plan,
    plan_from_json,
    plan_symplectic_action,
    plan_to_json,
)
from chainsurg.simverify import (
    HadamardConjugatedParityMap,
    merge_op_sequence,
    physical_op_sequence,
    split_op_sequence,
    split_projections,
)
from chainsurg.surgery import quotient_merge, split_from_merge
from test_index_maps import LARGE_PLANS, _catalog_plans
from test_plan_golden import PLANS as GOLDEN_PLANS

LOCALITY_PLANS = {  # the plans of test_locality_simulate_golden
    "toric2_c0t1_locality_w2": lambda: build_cnot_plan(catalog.toric(2), 0, 1, locality=True, max_weight=2),
    "surface3_anc_target_locality_w3": lambda: build_cnot_plan(
        catalog.surface_patch(3, 3), 0, None, locality=True, max_weight=3
    ),
}

PLANS = {
    **{f"golden_{k}": v for k, v in GOLDEN_PLANS.items()},
    **_catalog_plans(),
    **LARGE_PLANS,
    **LOCALITY_PLANS,
}

# the most input qubits whose preimage tables are compared on every input
TABLE_QUBITS = 14


def assert_same_preimages(op: HadamardConjugatedParityMap, oracle: HadamardConjugatedParityMap) -> None:
    """The support maps of ``op`` and of ``oracle`` (by elimination) solve A^T y = x alike for every x."""
    assert oracle.preimages is None
    xs = np.arange(1 << op.n_in)
    (tables, kernel), (oracle_tables, oracle_kernel) = op.support_map, oracle.support_map
    solved, expect = simverify._lookup(tables, xs), simverify._lookup(oracle_tables, xs)
    hit = solved < (1 << op.n_out)
    assert np.array_equal(hit, expect < (1 << op.n_out))
    assert np.array_equal(np.sort(kernel), np.sort(oracle_kernel))
    # two solutions of one system differ by a member of the kernel
    assert np.isin(solved[hit] ^ expect[hit], kernel).all()


def assert_ops_match_the_oracle(ops, oracle) -> None:
    assert list(ops) == list(oracle)
    for op, expect in zip(ops, oracle):
        if isinstance(op, HadamardConjugatedParityMap):
            assert op.preimages is not None
            if op.n_in <= TABLE_QUBITS:
                assert_same_preimages(op, expect)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_step_ops_equal_the_generic_interpretation(name):
    plan = PLANS[name]()
    merges = [step for step in plan.steps if isinstance(step, MergeStep)]
    splits = [step for step in plan.steps if isinstance(step, SplitStep)]
    assert len(merges) == len(splits) >= 1
    for step in merges:
        assert_ops_match_the_oracle(step.ops, physical_op_sequence(step.merge.p, step.orientation))
    for step in splits:
        assert_ops_match_the_oracle(step.ops, physical_op_sequence(split_from_merge(step.merge), step.orientation))


@pytest.mark.parametrize("name", sorted(LOCALITY_PLANS))
def test_loaded_locality_plan_splits_project(name):
    plan = plan_from_json(plan_to_json(LOCALITY_PLANS[name]()))
    splits = [step for step in plan.steps if isinstance(step, SplitStep)]
    for step in splits:
        v0 = step.merge.subcode.oriented_spaces()[2]
        assert v0.dim and len(step.ops) == 1 + v0.dim
        assert_ops_match_the_oracle(step.ops, physical_op_sequence(split_from_merge(step.merge), step.orientation))


def _supplied_reps(m, r: np.random.RandomState) -> dict:
    """Per degree, the default representatives each shifted by a random member of the subcode's space."""
    out = {}
    for degree, section, space in zip((2, 1, 0), m.sections, m.subcode.oriented_spaces()):
        shift = r.randint(0, 2, size=(section.cols, space.dim)) @ space.basis.a % 2
        out[degree] = list(section.a.T ^ shift.astype(np.uint8))
    return out


VALID_EXAMPLES = [name for name in catalog.example_names() if catalog.worked_example(name).subcode is not None]


@pytest.mark.parametrize("name", VALID_EXAMPLES)
@pytest.mark.parametrize("seed", [None, 0, 1], ids=["default", "supplied0", "supplied1"])
def test_worked_example_merges_equal_the_generic_interpretation(name, seed):
    ex = catalog.worked_example(name)
    m = quotient_merge(ex.parent, ex.subcode)
    if seed is not None:
        m = quotient_merge(ex.parent, ex.subcode, quotient_bases=_supplied_reps(m, np.random.RandomState(seed)))
        assert None not in m.supplied
    other = "X" if m.orientation == "Z" else "Z"
    assert_ops_match_the_oracle(merge_op_sequence(m), physical_op_sequence(m.p, m.orientation))
    split_ops = split_op_sequence(m, split_projections(m))
    assert_ops_match_the_oracle(split_ops, physical_op_sequence(split_from_merge(m), other))


BUILT_PLANS = {**_catalog_plans(), "code_switch": code_switch_plan}


@pytest.mark.parametrize("name", sorted(BUILT_PLANS))
def test_building_or_loading_a_plan_builds_no_section(name):
    # a merge keeps only supplied representatives; only the steps' ops read its sections,
    # and transporting Paulis through every step builds no op
    built = BUILT_PLANS[name]()
    for plan in (built, plan_from_json(plan_to_json(built))):
        pairs = [(s, t) for s, t in zip(plan.steps, plan.steps[1:]) if isinstance(s, MergeStep)]
        assert pairs and all(isinstance(t, SplitStep) and t.merge is s.merge for s, t in pairs)
        plan_symplectic_action(plan)
        for merge_step, split_step in pairs:
            assert "sections" not in vars(merge_step.merge)
            assert "ops" not in vars(merge_step) and "ops" not in vars(split_step)
        for merge_step, split_step in pairs:
            assert merge_step.ops and split_step.ops
            assert "sections" in vars(merge_step.merge)


def test_equality_ignores_the_carried_solution():
    a = F2Matrix([[1, 1, 0], [0, 1, 1]])
    op = HadamardConjugatedParityMap(a, simverify._preimages(a))
    assert op == HadamardConjugatedParityMap(a) and hash(op) == hash(HadamardConjugatedParityMap(a))
