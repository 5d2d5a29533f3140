"""Plan synthesis, propagation, corrections, decomposition, Singleton."""
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.chaincomplex import induced_on_homology
from chainsurg.csscode import SIMULATOR_QUBIT_LIMIT, PauliOperator, from_parity_checks
from chainsurg.errors import (
    AncillaDistanceTooSmall,
    ChainsurgError,
    CorrectionUnavailable,
    DecompositionInfeasible,
    DimensionMismatch,
    MalformedInput,
)
from chainsurg.f2linalg import F2Matrix, Subspace
from chainsurg.protocols import (
    AncillaStrategy,
    MergeStep,
    SplitStep,
    _allowed_space,
    _check_span_exclusion,
    _outcome_correction,
    build_cnot_plan,
    cnot_unitary,
    code_switch_plan,
    decompose_merge_support,
    direct_sum_code,
    expected_plan_channel,
    measurement_correction,
    pairwise_switch_plan,
    plan_channel,
    plan_encoders,
    plan_from_json,
    plan_physical_ops,
    plan_symplectic_action,
    plan_to_json,
    propagate_pauli,
    singleton_check,
)
from chainsurg.simverify import PHASE_TOL
from chainsurg.surgery import quotient_merge, split_from_merge, validate_subcode
from test_assembled_spaces import complexes
from test_f2linalg import zassenhaus_intersect
from test_plan_golden import PLANS as GOLDEN_PLANS


@pytest.fixture(scope="module")
def two_patches():
    c = catalog.surface_patch(2, 2)
    return direct_sum_code(c, c).with_distance(2)


@pytest.fixture(scope="module")
def patch_plan(two_patches):
    return build_cnot_plan(two_patches, control=0, target=1)


class TestBuildCnotPlan:
    def test_control_equals_target_rejected(self, steane):
        with pytest.raises(DimensionMismatch):
            build_cnot_plan(catalog.toric(2), control=0, target=0)

    def test_index_out_of_range(self, steane):
        with pytest.raises(DimensionMismatch):
            build_cnot_plan(steane, control=1, target=0)

    def test_steane_reduced_merge_matrix_form(self, steane):
        # (I | e1) with k = 1 is just (1 1)
        plan = build_cnot_plan(steane, control=0, target=None)
        assert plan.steps[1].logical_matrix.to_lists() == [[1, 1]]

    def test_two_patch_matrices(self, patch_plan):
        # the merged-class-first bases reproduce the (I | e_ctrl) and
        # (I | e_tgt) displayed forms
        assert patch_plan.steps[1].logical_matrix.to_lists() == [[1, 0, 1], [0, 1, 0]]
        assert patch_plan.steps[3].logical_matrix.to_lists() == [[1, 0, 0], [0, 1, 1]]

    def test_merged_codes(self, patch_plan):
        # each merge leaves the base code for its merged code; every
        # other step starts and ends on the base code
        base = patch_plan.base_code
        for idx in (1, 3):
            merge = patch_plan.steps[idx].merge
            merged = patch_plan.merged_code(merge)
            assert merged.hx == merge.merged_complex().d1
            assert merged.k == base.k - 1

    def test_subcode_side_conditions(self, patch_plan):
        from chainsurg.surgery import analyze_merge

        z_rep = analyze_merge(patch_plan.steps[1].merge)
        assert z_rep.h0_subcode_dim == 0 and z_rep.surjective_guaranteed
        x_rep = analyze_merge(patch_plan.steps[3].merge)
        assert x_rep.h0_subcode_dim == 0 and x_rep.surjective_guaranteed

    def test_ancilla_distance_guard(self):
        with pytest.raises(AncillaDistanceTooSmall):
            build_cnot_plan(
                catalog.surface_patch(3, 3),
                control=0,
                target=None,
                ancilla=AncillaStrategy.provided(catalog.surface_patch(2, 2)),
            )

    @pytest.mark.parametrize("index", [1, -1])
    def test_provided_ancilla_index_out_of_range(self, steane, index):
        # a k = 1 ancilla code has only logical 0
        strategy = AncillaStrategy.provided(steane, index)
        with pytest.raises(DimensionMismatch) as err:
            build_cnot_plan(steane, control=0, target=None, ancilla=strategy)
        assert str(err.value) == f"ancilla index {index} out of range 0..0"

    def test_embedded_needs_spare(self, toric2):
        with pytest.raises(DimensionMismatch):
            build_cnot_plan(toric2, control=0, target=1, ancilla=AncillaStrategy.embedded(1))

    @pytest.mark.parametrize("side, step", [("Z", 1), ("X", 3)])
    def test_merge_identifying_two_logicals_rejected(self, toric2, side, step):
        # along logicals 0 and 1 of toric-2 + trivial, both orientations and
        # the loader fail alike
        from chainsurg.protocols import _joint_subcode, _merge_and_split

        base = direct_sum_code(toric2, catalog.trivial_qubit())
        sub = _joint_subcode(base, side, 0, 1, False, 2)
        match = "the merge identifies logical classes of the base code"
        with pytest.raises(DimensionMismatch, match=match):
            _merge_and_split(base, sub, 2, None)
        doc = json.loads(plan_to_json(build_cnot_plan(toric2, 0, 1)))
        assert doc["steps"][step]["orientation"] == side
        for name in ("v2", "v1", "v0"):
            doc["steps"][step][name] = getattr(sub, name).basis.to_lists()
        with pytest.raises(DimensionMismatch, match=match):
            plan_from_json(json.dumps(doc))

    def test_each_merge_of_a_type_names_its_own_slots(self, toric2):
        # two X-merges on toric-2 + Steane: the second one's slots are xmerge1.xx<i>,
        # and the loader rebuilds the same names
        from chainsurg.protocols import _assemble_plan, _joint_subcode, _resolve_ancilla

        attached = _resolve_ancilla(direct_sum_code(toric2, catalog.steane()), AncillaStrategy.trivial(), ())
        base, anc = attached[0], attached[1]
        merges = [(_joint_subcode(base, "X", a, anc, False, 2), None, None) for a in (0, 2)]
        plan = _assemble_plan("two_x_merges", attached, merges, None, 0)
        assert plan.measurement_ids() == ["xmerge.xx0", "xmerge1.xx0"]
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text

    def test_plan_json_schema(self, patch_plan):
        doc = json.loads(plan_to_json(patch_plan))
        assert doc["schema"] == "chainsurg-plan/1"
        assert doc["steps"][1]["kind"] == "merge"
        assert doc["steps"][1]["measurement_ids"] == ["zmerge.zz0"]

    def test_plan_json_round_trip_simulates_identically(self, patch_plan):
        from chainsurg.protocols import plan_from_json

        loaded = plan_from_json(plan_to_json(patch_plan))
        assert loaded.measurement_ids() == patch_plan.measurement_ids()
        for outcomes in (None, {"zmerge.zz0": -1}, {"xmerge.xx0": -1, "final.za": -1}):
            a = plan_channel(patch_plan, outcomes)
            b = plan_channel(loaded, outcomes)
            assert np.max(np.abs(a - b)) < 1e-12


class TestPlanChannels:
    def test_steane_reduced_channel(self, steane):
        plan = build_cnot_plan(steane, control=0, target=None)
        ch = plan_channel(plan)
        exp = expected_plan_channel(plan)
        exp = exp / np.max(np.abs(exp))
        assert np.max(np.abs(ch - exp)) < 1e-9

    def test_two_patch_full_channel(self, patch_plan):
        ch = plan_channel(patch_plan)
        exp = expected_plan_channel(patch_plan)
        assert np.max(np.abs(ch - exp)) < 1e-9

    def test_all_outcome_branches_corrected(self, patch_plan):
        exp = expected_plan_channel(patch_plan)
        ids = patch_plan.measurement_ids()
        for pattern in itertools.product([1, -1], repeat=len(ids)):
            outcomes = dict(zip(ids, pattern))
            ch = plan_channel(patch_plan, outcomes, corrected=True)
            assert np.max(np.abs(ch - exp)) < 1e-9, pattern

    def test_uncorrected_branch_differs(self, patch_plan):
        exp = expected_plan_channel(patch_plan)
        ch = plan_channel(patch_plan, {"final.za": -1}, corrected=False)
        assert np.max(np.abs(ch - exp)) > 0.5

    def test_embedded_ancilla_channel(self, toric2):
        plan = build_cnot_plan(
            toric2, control=0, target=None, ancilla=AncillaStrategy.embedded(1)
        )
        ch = plan_channel(plan)
        exp = expected_plan_channel(plan)
        exp = exp / np.max(np.abs(exp))
        assert np.max(np.abs(ch - exp)) < 1e-9

    def test_ancilla_with_a_spare_logical(self, toric2):
        # the ancilla code's second logical stays an idle wire of the channel,
        # and the plan names it a data logical
        plan = build_cnot_plan(toric2, 0, 1, ancilla=AncillaStrategy.provided(toric2))
        assert (plan.ancilla_index, plan.data_indices) == (2, (0, 1, 3))
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text
        exp = expected_plan_channel(plan)
        assert np.array_equal(exp, np.kron(cnot_unitary(2, 0, 1), np.eye(2)))
        for outcomes in (None, {"zmerge.zz0": -1}, {"xmerge.xx0": -1, "final.za": -1}):
            assert np.max(np.abs(plan_channel(plan, outcomes) - exp)) < 1e-9, outcomes

    def test_locality_plan_channel(self, two_patches):
        plan = build_cnot_plan(two_patches, control=0, target=1, locality=True, max_weight=2)
        assert plan.steps[1].merge.subcode.v1.dim > 1
        ch = plan_channel(plan)
        exp = expected_plan_channel(plan)
        assert np.max(np.abs(ch - exp)) < 1e-9

    @pytest.mark.parametrize("code, ancilla", [("steane", "trivial"), ("toric2", "trivial"), ("toric2", "provided")])
    def test_ancilla_target_channel_is_the_cnot_on_a_fresh_zero(self, code, ancilla, request):
        # the old form: the CNOT times the isometry that inserts a |0> at the
        # ancilla; a provided toric-2 ancilla sits between data logicals
        base = request.getfixturevalue(code)
        strategy = AncillaStrategy.trivial() if ancilla == "trivial" else AncillaStrategy.provided(base)
        plan = build_cnot_plan(base, 0, None, ancilla=strategy)
        b, anc = plan.base_code.k, plan.ancilla_index
        embed = np.zeros((1 << b, 1 << (b - 1)))
        for i in range(1 << (b - 1)):
            bits = [(i >> (b - 2 - q)) & 1 for q in range(b - 1)]
            bits.insert(anc, 0)
            embed[int("".join(map(str, bits)), 2), i] = 1.0
        expect = cnot_unitary(b, plan.control, anc) @ embed
        assert expected_plan_channel(plan).tobytes() == expect.tobytes()

    def test_one_dense_encoder_array(self):
        # toric-3 with the ancilla as target: n = 19 and k_out = 3. The one
        # 2^n x 2^k_out array is E_out^dagger (64 MiB); inputs are held on
        # their supports, seeded from the coset table, and each column is
        # written into one dense state only for its product, so beside it
        # there is room for two states only (80 MiB in all)
        plan = build_cnot_plan(catalog.toric(3), control=0, target=None)
        n, k_out = plan.base_code.n, plan.base_code.k
        assert (n, k_out) == (19, 3)
        tracemalloc.start()
        try:
            ch = plan_channel(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (1 << n) * ((1 << k_out) + 2)
        exp = expected_plan_channel(plan)
        assert np.max(np.abs(ch - exp / np.max(np.abs(exp)))) < 1e-9

    def test_above_the_qubit_limit_allocates_no_state(self):
        plan = build_cnot_plan(catalog.toric(4), control=0, target=1)
        assert plan.base_code.n == 33
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="33 qubits exceeds the simulator limit 20"):
                plan_channel(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << SIMULATOR_QUBIT_LIMIT  # less than one state at the limit


def old_cnot_unitary(k: int, control: int, target: int) -> np.ndarray:
    """The CNOT permutation as first built, bit by bit."""
    dim = 1 << k
    mat = np.zeros((dim, dim))
    for i in range(dim):
        bits = [(i >> (k - 1 - b)) & 1 for b in range(k)]
        if bits[control]:
            bits[target] ^= 1
        j = 0
        for b in bits:
            j = (j << 1) | b
        mat[j, i] = 1.0
    return mat


def old_expected_plan_channel(plan) -> np.ndarray:
    """The expected channel as first built: a CNOT on the kept logicals, a round trip, or a
    CNOT onto a fresh |0>."""
    kept = [i for i in range(plan.base_code.k) if i != plan.ancilla_index]
    if plan.target is not None:
        return old_cnot_unitary(len(kept), kept.index(plan.control), kept.index(plan.target))
    if plan.final_measurement is not None:
        return np.eye(1 << len(kept))
    b, anc = plan.base_code.k, plan.ancilla_index
    fresh = [j for j in range(1 << b) if not (j >> (b - 1 - anc)) & 1]
    return old_cnot_unitary(b, plan.control, anc)[:, fresh]


def _channel_plans() -> dict:
    """The switch, and CNOTs with every ancilla strategy: trivial (onto a target and onto the
    ancilla), embedded, and a provided code's logical 1."""
    codes = {
        "steane": catalog.steane(), "toric2": catalog.toric(2), "toric3": catalog.toric(3),
        "surface2": catalog.surface_patch(2, 2).with_distance(2), "no_check4": catalog.no_check(4).with_distance(1),
    }
    plans = {"switch": code_switch_plan()}
    for name, code in codes.items():
        provided = AncillaStrategy.provided(catalog.toric(3) if code.d == 3 else catalog.toric(2), 1)
        for c, t in itertools.product(range(code.k), [None, *range(code.k)]):
            if c == t:
                continue
            plans[f"{name}_c{c}t{t}"] = build_cnot_plan(code, c, t)
            plans[f"{name}_c{c}t{t}_provided"] = build_cnot_plan(code, c, t, ancilla=provided)
            for spare in set(range(code.k)) - {c, t}:
                plans[f"{name}_c{c}t{t}_embedded{spare}"] = build_cnot_plan(
                    code, c, t, ancilla=AncillaStrategy.embedded(spare)
                )
    return plans


def test_expected_channel_and_cnot_permutation_keep_their_bytes():
    plans = _channel_plans()
    assert len(plans) == 93
    for name, plan in plans.items():
        want = old_expected_plan_channel(plan)
        got = expected_plan_channel(plan)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    for k in range(1, 6):
        for c, t in itertools.permutations(range(k), 2):
            assert cnot_unitary(k, c, t).tobytes() == old_cnot_unitary(k, c, t).tobytes()


class TestPerStepSoundness:
    def test_each_surgery_step_channel_matches_logical_matrix(self, patch_plan):
        # every merge and split step, simulated in isolation between the
        # base- and merged-code encoders, reproduces the interpretation of its induced
        # logical matrix (merge spiders on the Z side, parity maps on X)
        from chainsurg.csscode import encoder_isometry
        from chainsurg.simverify import (
            HadamardConjugatedParityMap,
            ParityMap,
            apply_linear,
            extract_logical_channel,
            fix_phase_and_scale,
            physical_op_sequence,
        )
        from chainsurg.surgery import split_from_merge

        for idx, step in enumerate(patch_plan.steps):
            if not isinstance(step, (MergeStep, SplitStep)):
                continue
            merged, base = patch_plan.merged_code(step.merge), patch_plan.base_code
            before, after = (base, merged) if isinstance(step, MergeStep) else (merged, base)
            side = step.orientation
            if isinstance(step, MergeStep):
                ops = physical_op_sequence(step.merge.p, side)
            else:
                ops = physical_op_sequence(split_from_merge(step.merge), side)
            ch = extract_logical_channel(
                ops, encoder_isometry(before), encoder_isometry(after)
            )
            mat = step.logical_matrix
            logical_op = (
                HadamardConjugatedParityMap(mat) if side == "Z" else ParityMap(mat)
            )
            expect = np.zeros((1 << after.k, 1 << before.k), dtype=np.complex128)
            for u in range(1 << before.k):
                col = np.zeros(1 << before.k, dtype=np.complex128)
                col[u] = 1.0
                expect[:, u] = apply_linear(logical_op, col)
            assert np.max(np.abs(ch - fix_phase_and_scale(expect))) < 1e-9, idx


# the golden plans, and a provided ancilla with a spare logical; both
# split orientations, and merged codes above 20 qubits
SPLIT_ORACLE_PLANS = {
    **GOLDEN_PLANS,
    "toric2_provided_toric2": lambda: build_cnot_plan(
        catalog.toric(2), 0, 1, ancilla=AncillaStrategy.provided(catalog.toric(2))
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_ORACLE_PLANS))
def test_split_matrix_is_the_merge_matrix_transposed(name):
    # the reference is the split's induced map on homology, between the
    # other-side bases of the full merged code and of the base code
    plan = SPLIT_ORACLE_PLANS[name]()
    base = plan.base_code
    splits = [step for step in plan.steps if isinstance(step, SplitStep)]
    assert splits
    for step in splits:
        merged = plan.merged_code(step.merge)
        if step.orientation == "X":
            bases = (merged.x_logicals, base.x_logicals)
        else:
            bases = (merged.z_logicals, base.z_logicals)
        assert step.logical_matrix == induced_on_homology(split_from_merge(step.merge), 1, *bases)


class TestMeasurementCorrection:
    def test_all_positive_empty(self, patch_plan):
        ids = {m: 1 for m in patch_plan.measurement_ids()}
        assert measurement_correction(patch_plan, ids) == []

    def test_final_negative_gives_logical_x_on_target(self, patch_plan):
        ids = {m: 1 for m in patch_plan.measurement_ids()}
        ids["final.za"] = -1
        (corr,) = measurement_correction(patch_plan, ids)
        base = patch_plan.base_code
        assert np.array_equal(corr.x, base.x_logical(1))
        assert not corr.z.any()

    def test_merge_negative_verified_by_channel_equality(self, patch_plan):
        # with the correction the channel equals CNOT; without it, not
        exp = expected_plan_channel(patch_plan)
        outcomes = {m: 1 for m in patch_plan.measurement_ids()}
        outcomes["zmerge.zz0"] = -1
        with_corr = plan_channel(patch_plan, outcomes, corrected=True)
        without = plan_channel(patch_plan, outcomes, corrected=False)
        assert np.max(np.abs(with_corr - exp)) < 1e-9
        assert np.max(np.abs(without - exp)) > 0.5

    def test_missing_outcome_rejected(self, patch_plan):
        with pytest.raises(CorrectionUnavailable):
            measurement_correction(patch_plan, {"zmerge.zz0": -1})

    def test_unknown_outcome_rejected(self, patch_plan):
        outcomes = {m: 1 for m in patch_plan.measurement_ids()}
        outcomes["bogus"] = -1
        with pytest.raises(CorrectionUnavailable, match="bogus"):
            measurement_correction(patch_plan, outcomes)

    def test_missing_correction_rule_refused(self, patch_plan):
        doc = json.loads(plan_to_json(patch_plan))
        doc["correction_rules"] = {}
        plan = plan_from_json(json.dumps(doc))
        outcomes = {m: 1 for m in plan.measurement_ids()}
        outcomes["zmerge.zz0"] = -1
        with pytest.raises(CorrectionUnavailable, match="no correction rule"):
            measurement_correction(plan, outcomes)

    def test_locality_refusal(self, two_patches):
        plan = build_cnot_plan(two_patches, control=0, target=1, locality=True)
        outcomes = {m: 1 for m in plan.measurement_ids()}
        outcomes[plan.measurement_ids()[0]] = -1
        with pytest.raises(CorrectionUnavailable):
            measurement_correction(plan, outcomes)


@pytest.fixture(scope="module")
def toric_plan():
    return build_cnot_plan(catalog.toric(2), control=0, target=1)


BAD_OUTCOMES = {
    "value_2": ({"final.za": 2}, "outcomes must be +1 or -1, got ['final.za']"),
    "value_0": ({"final.za": 0}, "outcomes must be +1 or -1, got ['final.za']"),
    "unknown_id": ({"bogus": -1}, "the plan has no measurements ['bogus']"),
    "merge_value_7": ({"zmerge.zz0": 7}, "outcomes must be +1 or -1, got ['zmerge.zz0']"),
}

OUTCOME_ENTRY_POINTS = {
    "uncorrected_channel": lambda plan, o: plan_channel(plan, o, corrected=False),
    "corrected_channel": plan_channel,
    "physical_ops": plan_physical_ops,
    "encoders": plan_encoders,
}


class TestOutcomeChecks:
    """Every entry point that takes outcomes refuses what ``measurement_correction`` refuses."""

    @pytest.mark.parametrize("entry", sorted(OUTCOME_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", sorted(BAD_OUTCOMES))
    def test_bad_outcomes_refused(self, toric_plan, bad, entry):
        outcomes, message = BAD_OUTCOMES[bad]
        filled = {**{m: 1 for m in toric_plan.measurement_ids()}, **outcomes}
        with pytest.raises(CorrectionUnavailable) as expected:
            measurement_correction(toric_plan, filled)
        assert str(expected.value) == message
        with pytest.raises(CorrectionUnavailable) as got:
            OUTCOME_ENTRY_POINTS[entry](toric_plan, outcomes)
        assert str(got.value) == message

    @pytest.mark.parametrize("corrected", [True, False])
    def test_missing_ids_read_as_plus_one(self, toric_plan, corrected):
        plus = dict.fromkeys(toric_plan.measurement_ids(), 1)
        for partial, full in ((None, plus), ({"final.za": -1}, {**plus, "final.za": -1})):
            a = plan_channel(toric_plan, partial, corrected=corrected)
            assert a.tobytes() == plan_channel(toric_plan, full, corrected=corrected).tobytes()

    def test_unknown_id_reported_before_a_bad_value(self, toric_plan):
        with pytest.raises(CorrectionUnavailable, match=r"no measurements \['bogus'\]"):
            plan_physical_ops(toric_plan, {"final.za": 2, "bogus": 1})

    def test_bad_value_reported_before_a_contradicting_pattern(self):
        plan = code_switch_plan()
        outcomes = {plan.measurement_ids()[0]: -1, "final.xa": 2}  # a single pair flip contradicts
        with pytest.raises(CorrectionUnavailable, match=r"got \['final.xa'\]"):
            plan_physical_ops(plan, outcomes)
        del outcomes["final.xa"]
        with pytest.raises(CorrectionUnavailable, match="inconsistent with the merged stabilizers"):
            plan_physical_ops(plan, outcomes)


    @pytest.mark.parametrize("corrected", [True, False])
    def test_plan_branch_checks_outcomes_once(self, toric_plan, corrected, monkeypatch):
        from chainsurg import protocols

        calls = []
        original = protocols._flipped_ids

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocols, "_flipped_ids", counted)
        protocols.plan_branch(toric_plan, {"final.za": -1}, corrected)
        assert len(calls) == 1


class TestSymplecticAction:
    def test_cnot_action(self, patch_plan):
        act = plan_symplectic_action(patch_plan)
        # data block: control 0, target 1 (ancilla coordinate 2 acts
        # trivially on the measured-out ancilla)
        assert list(act["X0"][0][:2]) == [1, 1]
        assert list(act["X1"][0][:2]) == [0, 1]
        assert list(act["Z0"][1][:2]) == [1, 0]
        assert list(act["Z1"][1][:2]) == [1, 1]
        for key in ("X0", "X1"):
            assert not act[key][1].any()
        for key in ("Z0", "Z1"):
            assert not act[key][0].any()

    def test_locality_plan_refused(self, steane):
        # a single-generator locality merge has no correction rule; the
        # action is refused like its corrections, not a KeyError
        plan = build_cnot_plan(steane, 0, locality=True, max_weight=10)
        assert len(plan.steps[1].measurement_ids) == 1
        with pytest.raises(CorrectionUnavailable):
            plan_symplectic_action(plan)

    @pytest.mark.parametrize("ancilla", ["trivial", "steane", "toric2"])
    def test_in_order_propagation(self, toric2, steane, ancilla):
        # every step, the ancilla init included, transports a base-code Pauli
        strategy = {
            "trivial": AncillaStrategy.trivial(),
            "steane": AncillaStrategy.provided(steane),
            "toric2": AncillaStrategy.provided(toric2),
        }[ancilla]
        plan = build_cnot_plan(toric2, 0, 1, ancilla=strategy)
        base = plan.base_code
        act = plan_symplectic_action(plan)
        for kind in ("X", "Z"):
            for i in range(base.k):
                rep = base.x_logical(i) if kind == "X" else base.z_logical(i)
                p = PauliOperator.from_x(rep) if kind == "X" else PauliOperator.from_z(rep)
                flipped = set()
                for step in plan.steps:
                    p, flips = propagate_pauli(step, p)
                    flipped.update(flips)
                p = p.compose(_outcome_correction(plan, flipped))
                xc, zc = act[f"{kind}{i}"]
                assert np.array_equal(base.x_logicals.class_coordinates(p.x), xc)
                assert np.array_equal(base.z_logicals.class_coordinates(p.z), zc)
                # CNOT 0 -> 1 on the data; every other logical but the ancilla is idle
                keep = [j for j in range(base.k) if j != plan.ancilla_index]
                if i not in keep:
                    continue
                expect = np.eye(base.k, dtype=np.uint8)[i]
                if (kind, i) in (("X", 0), ("Z", 1)):
                    expect[1 - i] = 1
                out = xc if kind == "X" else zc
                assert np.array_equal(out[keep], expect[keep]), (kind, i)

    def test_split_projections_built_once_per_step(self, monkeypatch):
        import chainsurg.protocols

        plan = build_cnot_plan(catalog.toric(3), 0, 1)
        calls = {}
        for name in ("split_projections", "split_op_sequence"):
            original = getattr(chainsurg.protocols, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(chainsurg.protocols, name, counted)
        plan_symplectic_action(plan)
        plan_symplectic_action(plan)
        # one per split, not one per transported Pauli, and transport builds no op
        assert calls == {"split_projections": 2}

    @staticmethod
    def _action_by_class_systems(plan):
        """The action as it read classes before pairing: each base basis's class system."""
        base, out = plan.base_code, {}
        for kind in ("X", "Z"):
            for i in range(base.k):
                rep = base.x_logical(i) if kind == "X" else base.z_logical(i)
                p = PauliOperator.from_x(rep) if kind == "X" else PauliOperator.from_z(rep)
                flipped = set()
                for step in plan.steps:
                    p, flips = propagate_pauli(step, p)
                    flipped.update(flips)
                p = p.compose(_outcome_correction(plan, flipped))
                out[f"{kind}{i}"] = (
                    base.x_logicals.class_coordinates(p.x), base.z_logicals.class_coordinates(p.z)
                )
        return out

    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("reloaded", [False, True], ids=["built", "reloaded"])
    def test_pairing_reads_the_class_coordinates(self, name, reloaded):
        plan = GOLDEN_PLANS[name]()
        if reloaded:  # both bases given, so neither basis carries a class system
            plan = plan_from_json(plan_to_json(plan))
        try:
            expect = self._action_by_class_systems(plan)
        except CorrectionUnavailable:
            with pytest.raises(CorrectionUnavailable):
                plan_symplectic_action(plan)
            return
        act = plan_symplectic_action(plan)
        assert act.keys() == expect.keys()
        for key, (xc, zc) in expect.items():
            assert [c.dtype for c in act[key]] == [np.uint8, np.uint8]
            assert np.array_equal(act[key][0], xc) and np.array_equal(act[key][1], zc), key

    def test_reloaded_toric_5_cnot_runs_no_class_system_elimination(self, monkeypatch):
        from chainsurg import chaincomplex

        plan = plan_from_json(plan_to_json(build_cnot_plan(catalog.toric(5), 0, 1)))
        assert (plan.base_code.n, plan.base_code.k) == (51, 3)
        shapes = []
        real = chaincomplex.rref
        monkeypatch.setattr(chaincomplex, "rref", lambda m, *a, **kw: shapes.append(m.shape) or real(m, *a, **kw))
        act = plan_symplectic_action(plan)
        assert shapes == []
        expect = self._action_by_class_systems(plan)
        assert all(np.array_equal(np.stack(act[key]), np.stack(expect[key])) for key in expect)

    def test_switch_identity(self):
        plan = code_switch_plan()
        act = plan_symplectic_action(plan)
        assert list(act["X0"][0]) == [1, 0] and not act["X0"][1].any()
        assert list(act["Z0"][1]) == [1, 0] and not act["Z0"][0].any()


class TestCodeSwitch:
    def test_merged_parameters(self):
        plan = code_switch_plan()
        merged = plan.merged_code(plan.steps[1].merge)
        from chainsurg.csscode import distance_bruteforce

        assert (merged.n, merged.k) == (15, 1)
        assert distance_bruteforce(merged) == 3

    def test_p1_star(self):
        plan = code_switch_plan()
        assert plan.steps[1].logical_matrix.to_lists() == [[1, 1]]

    def test_p1_star_regardless_of_bases(self):
        # the merged code has k = 1, so any basis choice yields (1 1)
        ex = catalog.worked_example("code_switch")
        m = quotient_merge(ex.parent, ex.subcode)
        from chainsurg.chaincomplex import homology
        from chainsurg.surgery import induced_logical_matrix

        src = homology(m.source, 1)
        tgt = homology(m.quotient, 1)
        assert induced_logical_matrix(m, src, tgt).to_lists() == [[1, 1]]

    def test_simulable_analog_corrections(self, steane):
        # steane glued to steane pairwise: same plan shape at 14 qubits,
        # fully verifiable by state vectors including outcome branches
        plan = pairwise_switch_plan(steane, steane, _steane_pair_subcode(steane))
        assert plan.merged_code(plan.steps[1].merge).n == 7
        assert plan.steps[1].logical_matrix.to_lists() == [[1, 1]]
        ids = plan.measurement_ids()
        assert np.max(np.abs(plan_channel(plan) - np.eye(2))) < 1e-9
        # one legal merge pattern (an x-logical support), final flip, both
        step = plan.steps[1]
        legal = None
        for bits in itertools.product([0, 1], repeat=7):
            if any(bits) and step.branch_gauge(np.array(bits, dtype=np.uint8)) is not None:
                legal = bits
                break
        assert legal is not None
        merge_out = {m: (-1 if b else 1) for m, b in zip(ids[:7], legal)}
        for extra in ({}, {"final.xa": -1}):
            outcomes = {**{m: 1 for m in ids}, **merge_out, **extra}
            ch = plan_channel(plan, outcomes, corrected=True)
            assert np.max(np.abs(ch - np.eye(2))) < 1e-9, (legal, extra)

    def test_illegal_pattern_rejected(self):
        plan = code_switch_plan()
        ids = plan.measurement_ids()
        outcomes = {m: 1 for m in ids}
        outcomes[ids[0]] = -1  # single pair flip contradicts face constraints
        with pytest.raises(CorrectionUnavailable):
            measurement_correction(plan, outcomes)


    def test_custom_name_expects_identity(self, steane):
        # the target channel follows the plan's structure, not its name
        plan = pairwise_switch_plan(steane, steane, _steane_pair_subcode(steane), name="custom")
        assert np.array_equal(expected_plan_channel(plan), np.eye(2))
        assert np.max(np.abs(plan_channel(plan) - np.eye(2))) < 1e-9


class TestSingleGeneratorSwitch:
    """A switch whose merge measures the one joint operator z_0 + z_a, with k = 1 and k = 2.

    Its -1 merge outcome is corrected through the class of its solved
    branch gauge, and the ancilla follows the data logicals.
    """

    @staticmethod
    def _plan(data):
        anc = catalog.trivial_qubit()
        base = direct_sum_code(data, anc)
        cx = base.complex
        joint = Subspace.from_vectors([base.z_logical(0) ^ base.z_logical(data.k)], cx.dim1)
        sub = validate_subcode(cx, Subspace.zero(cx.dim2), joint, Subspace.zero(cx.dim0), "Z")
        return pairwise_switch_plan(data, anc, sub)

    @pytest.mark.parametrize(
        "name, ancilla, data", [("steane", 1, (0,)), ("toric_2", 2, (0, 1))]
    )
    def test_every_outcome_pattern_is_corrected(self, name, ancilla, data):
        plan = self._plan(catalog.catalog_code(name))
        assert (plan.ancilla_index, plan.data_indices) == (ancilla, data)
        ids = plan.measurement_ids()
        assert ids == ["zmerge.zz0", "final.xa"]
        expected = expected_plan_channel(plan)
        for signs in itertools.product((1, -1), repeat=len(ids)):
            channel = plan_channel(plan, dict(zip(ids, signs)))
            assert np.max(np.abs(channel - expected)) < PHASE_TOL, signs

    @pytest.mark.parametrize("name", ["steane", "toric_2"])
    def test_action_is_the_identity_on_the_data_logicals(self, name):
        plan = self._plan(catalog.catalog_code(name))
        action = plan_symplectic_action(plan)
        unit = np.eye(plan.base_code.k, dtype=np.uint8)
        for i in plan.data_indices:
            assert np.array_equal(action[f"X{i}"][0], unit[i]) and not action[f"X{i}"][1].any()
            assert np.array_equal(action[f"Z{i}"][1], unit[i]) and not action[f"Z{i}"][0].any()


def _steane_pair_subcode(steane):
    """Z-subcode identifying two Steane blocks qubit by qubit and check by check."""
    from chainsurg.chaincomplex import direct_sum

    total = direct_sum(steane.complex, steane.complex)

    def pair(dim, i):
        v = np.zeros(2 * dim, dtype=np.uint8)
        v[i] = 1
        v[dim + i] = 1
        return v

    return validate_subcode(
        total,
        Subspace.from_vectors([pair(3, i) for i in range(3)], 6),
        Subspace.from_vectors([pair(7, i) for i in range(7)], 14),
        Subspace.from_vectors([pair(3, i) for i in range(3)], 6),
        "Z",
    )


class TestPlanLoading:
    """plan_from_json rejects documents outside the merge-then-split model."""

    @pytest.fixture()
    def doc(self, patch_plan):
        return json.loads(plan_to_json(patch_plan))

    def test_merge_without_following_split(self, doc):
        del doc["steps"][2]  # the X-split after the Z-merge
        with pytest.raises(DimensionMismatch, match="followed by its split"):
            plan_from_json(json.dumps(doc))

    def test_split_without_preceding_merge(self, doc):
        doc["steps"][1], doc["steps"][2] = doc["steps"][2], doc["steps"][1]
        with pytest.raises(DimensionMismatch, match="followed by its split"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda steps: steps.insert(3, steps[0]), "initializes its ancilla more than once"),
            (
                lambda steps: steps.insert(5, {**steps[5], "measurement_id": "final.zb"}),
                "measures a logical more than once",
            ),
            (lambda steps: steps.pop(0), "does not start with an ancilla initialization"),
        ],
        ids=["second_init", "second_measurement", "no_init"],
    )
    def test_step_structure(self, toric2, edit, message):
        doc = json.loads(plan_to_json(build_cnot_plan(toric2, 0, 1)))
        assert [s["kind"] for s in doc["steps"]][5] == "measure_logical"
        edit(doc["steps"])
        with pytest.raises(DimensionMismatch, match=message):
            plan_from_json(json.dumps(doc))

    def test_branch_inserts_length(self, doc):
        doc["steps"][1]["branch_inserts"].append(None)
        with pytest.raises(DimensionMismatch, match="differ in length"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "ancilla, field",
        [("trivial", "ancilla_hz"), ("steane", "ancilla_hx")],
        ids=["extra_z_check", "dropped_x_check"],
    )
    def test_ancilla_checks_not_the_base_block(self, toric2, steane, ancilla, field):
        strategy = AncillaStrategy.trivial() if ancilla == "trivial" else AncillaStrategy.provided(steane)
        doc = json.loads(plan_to_json(build_cnot_plan(toric2, 0, 1, ancilla=strategy)))
        init = doc["steps"][0]
        init[field] = init[field] + [[1]] if ancilla == "trivial" else init[field][:-1]
        with pytest.raises(MalformedInput, match="trailing diagonal block") as err:
            plan_from_json(json.dumps(doc))
        assert err.value.section == f"steps[0].{field}"

    @pytest.mark.parametrize("step", [1, 3])
    def test_branch_insert_leaving_the_codespace(self, step):
        # a golden plan's declared gauge, moved by one qubit onto the support
        # of a check of the merge's type, no longer commutes with that check
        plan = GOLDEN_PLANS["toric3_full"]()
        doc = json.loads(plan_to_json(plan))
        merge = doc["steps"][step]
        side, checks = ("x", plan.base_code.hz) if merge["orientation"] == "Z" else ("z", plan.base_code.hx)
        qubit = int(np.flatnonzero(checks.row(0))[0])
        merge["branch_inserts"][0][side][qubit] ^= 1
        with pytest.raises(MalformedInput) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.section == f"steps[{step}].branch_inserts"
        assert str(err.value) == (
            f"branch insert 0 leaves the codespace: it anticommutes with a {merge['orientation']} check"
        )

    def test_branch_insert_flipping_no_slot(self, steane):
        # the first X check commutes with every Z check and with the measured
        # operator, so as the slot's insert it flips no slot
        doc = json.loads(plan_to_json(build_cnot_plan(steane, 0)))
        doc["steps"][1]["branch_inserts"][0]["x"] = doc["base_hx"][0]
        with pytest.raises(MalformedInput) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.section == "steps[1].branch_inserts"
        assert str(err.value) == "branch insert 0 does not flip exactly its own slot zmerge.zz0"

    def test_load_builds_each_split_once(self, patch_plan, monkeypatch):
        import chainsurg.protocols

        calls = {"from_parity_checks": 0, "split_from_merge": 0}
        for name in calls:
            original = getattr(chainsurg.protocols, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(chainsurg.protocols, name, counted)
        plan = plan_from_json(plan_to_json(patch_plan))
        # the base code and one split per merge; the init step builds no code
        assert calls == {"from_parity_checks": 1, "split_from_merge": 2}
        plan_channel(plan, {"zmerge.zz0": -1})
        plan_symplectic_action(plan)
        assert calls == {"from_parity_checks": 1, "split_from_merge": 2}

    def test_merge_creating_a_logical_rejected(self, toric2):
        # a Z-merge that also kills two X-checks leaves a third logical class
        doc = json.loads(plan_to_json(build_cnot_plan(toric2, 0, 1)))
        doc["steps"][1]["v0"] = [[1, 0, 0, 0], [0, 1, 0, 0]]
        with pytest.raises(DimensionMismatch, match="creates logical classes"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["bogus", "final.za"])
    def test_correction_rule_for_no_merge_measurement(self, toric2, key):
        doc = json.loads(plan_to_json(build_cnot_plan(toric2, 0, 1)))
        doc["correction_rules"][key] = doc["correction_rules"]["zmerge.zz0"]
        with pytest.raises(MalformedInput, match="not a merge measurement id") as err:
            plan_from_json(json.dumps(doc))
        assert err.value.section == f"correction_rules.{key}"

    def test_branch_inserts_mixed(self, two_patches):
        plan = build_cnot_plan(two_patches, control=0, target=1, locality=True, max_weight=2)
        doc = json.loads(plan_to_json(plan))
        merge = doc["steps"][1]
        assert len(merge["branch_inserts"]) > 1
        merge["branch_inserts"][0] = {"x": [0] * plan.base_code.n, "z": [0] * plan.base_code.n}
        with pytest.raises(DimensionMismatch, match="mixes null and set"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda step, base: step.update(basis="X"),
            lambda step, base: step["pauli"].update(z=base.z_logical(0).tolist()),
            lambda step, base: step["pauli"].update(sign=-1),
            lambda step, base: step["pauli"].update(x=base.x_logical(0).tolist()),
        ],
        ids=["basis_x", "data_logical", "sign_minus", "mixed_type"],
    )
    def test_measurement_not_of_the_ancilla_logical(self, toric2, edit):
        # plan_encoders fixes the ancilla by the step's basis, so a Pauli that
        # is not the ancilla's logical of that type simulates against the
        # wrong target or fails only at simulation time
        plan = build_cnot_plan(toric2, 0, 1)
        doc = json.loads(plan_to_json(plan))
        step = doc["steps"][5]
        assert step["kind"] == "measure_logical" and step["basis"] == "Z"
        edit(step, plan.base_code)
        with pytest.raises(MalformedInput, match="must be the [ZX] logical of the ancilla 2") as err:
            plan_from_json(json.dumps(doc))
        assert err.value.section == "steps[5].pauli"


def zassenhaus_span_exclusion(cplx, gens, target, allowed):
    """The old check, kept as the oracle: span(gens) ∩ cycles from one Zassenhaus elimination."""
    inside = zassenhaus_intersect(Subspace.from_vectors(gens, cplx.dim1), cplx.cycles)
    if not allowed.contains_subspace(inside):
        raise DecompositionInfeasible("candidate span admits a second independent logical class")
    total = np.zeros(cplx.dim1, dtype=np.uint8)
    for g in gens:
        total ^= g
    if not np.array_equal(total, target):
        raise DecompositionInfeasible("generators do not sum to u + w")


def _raised(fn, *args):
    try:
        fn(*args)
    except DecompositionInfeasible as exc:
        return str(exc)
    return None


class TestSpanExclusion:
    @settings(max_examples=300, deadline=None)
    @given(complexes(), st.integers(1, 4), st.booleans(), st.integers(0, 2**30 - 1))
    def test_matches_zassenhaus_check(self, cplx, count, summed, seed):
        assume(cplx.dim1)
        r = np.random.RandomState(seed)
        target = r.randint(0, 2, cplx.dim1).astype(np.uint8)
        target[r.randint(cplx.dim1)] = 1
        gens = [r.randint(0, 2, cplx.dim1).astype(np.uint8) for _ in range(count)]
        if summed:
            gens[-1] = target ^ np.bitwise_xor.reduce(gens[:-1], axis=0) if count > 1 else target
        allowed = _allowed_space(cplx, target)
        assert allowed == Subspace.from_vectors(cplx.boundaries.basis_vectors() + [target], cplx.dim1)
        got = _raised(_check_span_exclusion, cplx, gens, target, allowed)
        assert got == _raised(zassenhaus_span_exclusion, cplx, gens, target, allowed)


class TestDecomposeMergeSupport:
    def _toy_code(self):
        # five qubits; cycles include {1,3,4}+{2,5}-style operators and the
        # reducible {1,3}; blocks must avoid enclosing the latter
        hx = F2Matrix([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1]])
        return from_parity_checks(hx, F2Matrix.zeros(0, 5))

    def test_single_generator_when_weight_allows(self, steane):
        base = direct_sum_code(steane, catalog.trivial_qubit())
        u = base.z_logical(0)
        w = base.z_logical(1)
        gens = decompose_merge_support(base, u, w, max_weight=10)
        assert len(gens) == 1
        assert np.array_equal(gens[0], u ^ w)

    def test_toy_pairing(self):
        code = self._toy_code()
        u = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        w = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        gens = decompose_merge_support(code, u, w, max_weight=2)
        assert all(int(np.count_nonzero(g)) <= 2 for g in gens)
        total = np.zeros(5, dtype=np.uint8)
        for g in gens:
            total ^= g
        assert np.array_equal(total, u ^ w)
        # the greedy consecutive pairing {1,2},{3,4},{5} is admissible here
        assert [list(np.nonzero(g)[0]) for g in gens] == [[0, 1], [2, 3], [4]]

    def test_reducible_operator_not_spanned(self):
        code = self._toy_code()
        u = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        w = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        gens = decompose_merge_support(code, u, w, max_weight=2)
        span = Subspace.from_vectors(gens, 5)
        reducible = np.array([1, 0, 1, 0, 0], dtype=np.uint8)  # a second logical
        assert not span.contains(reducible)

    def test_infeasible_weight(self):
        code = self._toy_code()
        u = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        with pytest.raises(DecompositionInfeasible):
            decompose_merge_support(code, u, np.zeros(5, dtype=np.uint8), max_weight=0)

    def test_search_budget(self, monkeypatch):
        import chainsurg.protocols

        code = self._toy_code()
        u = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        w = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        # the pairing {1,2},{3,4},{5} is found at the fourth search node
        monkeypatch.setattr(chainsurg.protocols, "DECOMPOSE_NODE_CAP", 4)
        assert len(decompose_merge_support(code, u, w, max_weight=2)) == 3
        monkeypatch.setattr(chainsurg.protocols, "DECOMPOSE_NODE_CAP", 3)
        with pytest.raises(DecompositionInfeasible, match="search budget exhausted"):
            decompose_merge_support(code, u, w, max_weight=2)

    def test_backtracking_avoids_logical_pair(self, two_patches):
        base = direct_sum_code(
            catalog.surface_patch(2, 2), catalog.trivial_qubit()
        )
        u = base.z_logical(0)
        w = base.z_logical(1)
        gens = decompose_merge_support(base, u, w, max_weight=2)
        span = Subspace.from_vectors(gens, base.n)
        # z_C itself must not lie in the span (it is a logical class)
        assert not span.contains(u)
        total = np.zeros(base.n, dtype=np.uint8)
        for g in gens:
            total ^= g
        assert np.array_equal(total, u ^ w)


class TestPropagation:
    def _merge_step(self, merge):
        return MergeStep(
            merge=merge,
            orientation=merge.orientation,
            measurement_ids=tuple(f"m{i}" for i in range(merge.subcode.oriented_spaces()[1].dim)),
            pivot_qubits=merge.subcode.oriented_spaces()[1].pivots,
            logical_matrix=F2Matrix.zeros(0, 0),
            branch_inserts=(None,) * merge.subcode.oriented_spaces()[1].dim,
        )

    def test_identity_pauli(self, patch_plan):
        step = patch_plan.steps[1]
        p = PauliOperator.identity(patch_plan.base_code.n)
        out, flips = propagate_pauli(step, p)
        assert out.is_identity() and not flips

    def test_z_on_ancilla_becomes_logical_error(self, steane):
        # naive V1 = span{z_ctrl + z_anc}: a Z on the ancilla survives the
        # merge as a representative of the merged logical class
        plan = build_cnot_plan(steane, control=0, target=None)
        step = plan.steps[1]
        base = plan.base_code
        z_anc = np.zeros(base.n, dtype=np.uint8)
        z_anc[-1] = 1
        out, flips = propagate_pauli(step, PauliOperator.from_z(z_anc))
        assert not flips
        merged = plan.merged_code(step.merge)
        coords = merged.z_logicals.class_coordinates(out.z)
        assert coords.any()  # a logical error on the merged code

    def test_x_flips_zz_record(self, steane):
        plan = build_cnot_plan(steane, control=0, target=None)
        step = plan.steps[1]
        base = plan.base_code
        x_err = np.zeros(base.n, dtype=np.uint8)
        x_err[int(np.nonzero(base.z_logical(0))[0][0])] = 1
        out, flips = propagate_pauli(step, PauliOperator.from_x(x_err))
        assert flips == {"zmerge.zz0": 1}

    def test_stabilizer_z_passes_cleanly(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        step = self._merge_step(m)
        src_code = from_parity_checks(m.source.d1, m.source.d2.T)
        p = PauliOperator.from_z(src_code.hz.row(0))
        out, flips = propagate_pauli(step, p)
        assert not flips
        merged = from_parity_checks(m.quotient.d1, m.quotient.d2.T)
        assert merged.z_stabilizer_space().contains(out.z)


class TestSplitProjectionFlips:
    def test_a_non_normalizer_records_the_projection_it_anticommutes_with(self):
        # the X-split of a locality plan re-imposes the X-check IIXXXIIIIII
        # of the merged register, which a Z on merged qubit 2 anticommutes with
        split = GOLDEN_PLANS["two_patch_locality_w2"]().steps[2]
        assert isinstance(split, SplitStep) and split.orientation == "X"
        z = np.zeros(split.merge.quotient.dim1, dtype=np.uint8)
        z[2] = 1
        _, flips = propagate_pauli(split, PauliOperator.from_z(z))
        assert flips == {"xsplit.proj.+IIXXXIIIIII": 1}


class TestSingleton:
    def test_steane_pair_strict(self, steane):
        rep = singleton_check(steane, steane)
        assert rep.holds()
        assert rep.sum_params == (14, 2, 3)
        assert rep.sum_slack == 14 - 2 - 4 == 8
        assert rep.strict and rep.guaranteed_strict

    def test_steane_alone_bound(self, steane):
        rep = singleton_check(steane, steane)
        assert all(s == 7 - 1 - 4 for s in rep.code_slacks)

    def test_trivial_pair_saturates(self):
        t = catalog.trivial_qubit()
        rep = singleton_check(t, t)
        assert rep.holds()
        assert not rep.strict  # distance-one pairs can meet the bound
        assert not rep.guaranteed_strict

    def test_all_distance_two_plus_pairs_strict(self):
        codes = [
            catalog.steane(),
            catalog.reed_muller_15(),
            catalog.surface_patch(2, 2),
            catalog.surface_patch(3, 3),
            catalog.toric(2),
            catalog.toric(3),
        ]
        for a in codes:
            for b in codes:
                rep = singleton_check(a, b)
                assert rep.strict and rep.guaranteed_strict

    def test_unknown_distance_rejected(self, steane):
        bare = from_parity_checks(steane.hx, steane.hz)
        with pytest.raises(ChainsurgError):
            singleton_check(bare, bare)
