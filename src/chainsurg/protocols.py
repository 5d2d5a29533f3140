"""Surgery protocol synthesis: logical CNOT plans, code switching,
support decomposition, Pauli propagation, and outcome corrections.

A plan is an ordered list of steps (ancilla init, merges, splits,
logical measurement, declarative corrections) on one base code. Each
merge is directly followed by its split, so the register is in the
base code everywhere except between those two. Merges carry named
measurement slots: a Z-merge along V1 = span{v_1..v_r} measures the
joint Z-operators Z^{v_i}. A -1 outcome on slot i equals the ideal
branch preceded by a codespace-preserving Pauli that anticommutes with
Z^{v_i} (the branch gauge); correction rules are stated and verified in
that gauge.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from . import jsontext
from .chaincomplex import (
    HomologyBasis,
    direct_sum,
    induced_on_homology,
)
from .csscode import (
    CssCode,
    PauliOperator,
    dual_z_basis,
    encoder_isometry,
    encoder_with_fixed_logical,
    from_complex,
    from_parity_checks,
    symplectic_product,
)
from .errors import (
    AncillaDistanceTooSmall,
    ChainsurgError,
    CorrectionUnavailable,
    DecompositionInfeasible,
    DimensionMismatch,
    EmptyOverlap,
    MalformedInput,
)
from .f2linalg import (
    F2Matrix,
    Subspace,
    as_bit_vector,
    block_diag,
    solve,
    vstack,
)
from .simverify import (
    PauliGate,
    PhysicalOp,
    Projection,
    extract_logical_channel,
    physical_op_sequence,
)
from .surgery import (
    MergeResult,
    Subcode,
    quotient_merge,
    split_from_merge,
    validate_subcode,
)


# --- ancilla strategies -------------------------------------------------------


@dataclass(frozen=True)
class AncillaStrategy:
    """How the auxiliary logical qubit is introduced.

    kind "trivial": one bare physical qubit. kind "provided": a given
    code with at least one logical qubit (its distance, when known, must
    not undercut the data code's). kind "embedded": reuse an existing
    spare logical qubit of the data code itself.
    """

    kind: str
    code: Optional[CssCode] = None
    index: int = 0

    @classmethod
    def trivial(cls) -> "AncillaStrategy":
        return cls(kind="trivial")

    @classmethod
    def provided(cls, code: CssCode, index: int = 0) -> "AncillaStrategy":
        return cls(kind="provided", code=code, index=index)

    @classmethod
    def embedded(cls, index: int) -> "AncillaStrategy":
        return cls(kind="embedded", index=index)


def direct_sum_code(a: CssCode, b: CssCode) -> CssCode:
    """The two codes side by side; logical bases are the embedded blocks."""
    return from_complex(
        direct_sum(a.complex, b.complex),
        z_basis=block_diag(a.z_logicals.matrix(), b.z_logicals.matrix()),
        x_basis=block_diag(a.x_logicals.matrix(), b.x_logicals.matrix()),
    )


# --- plan steps ---------------------------------------------------------------


@dataclass(frozen=True)
class InitAncilla:
    """Introduce the auxiliary logical qubit in |+> (or |0>).

    ``ancilla`` is None for embedded strategies (no new qubits).
    """

    ancilla: Optional[CssCode]
    logical_index: int
    state: str  # "plus" | "zero"


@dataclass(frozen=True)
class MergeStep:
    merge: MergeResult
    orientation: str
    measurement_ids: tuple[str, ...]
    pivot_qubits: tuple[int, ...]
    logical_matrix: F2Matrix  # induced map on the step's own logical side
    # Codespace-preserving Pauli realizing the -1 branch of each
    # measurement (the branch gauge); corrections are derived in the
    # same gauge. All None means the gauge is solved per outcome pattern.
    branch_inserts: tuple[Optional[PauliOperator], ...] = ()


@dataclass(frozen=True)
class SplitStep:
    merge: MergeResult  # the merge this split reverses
    orientation: str  # the split's preserving type ("X" after a Z-merge)
    logical_matrix: F2Matrix


@dataclass(frozen=True)
class MeasureLogical:
    pauli: PauliOperator
    basis: str  # "Z" | "X"
    measurement_id: str


@dataclass(frozen=True)
class ApplyCorrection:
    """Declarative rule: apply ``pauli`` when ``condition`` records -1."""

    pauli: PauliOperator
    condition: str


PlanStep = Union[InitAncilla, MergeStep, SplitStep, MeasureLogical, ApplyCorrection]


@dataclass(frozen=True)
class SurgeryPlan:
    name: str
    steps: tuple[PlanStep, ...]
    base_code: CssCode  # the code every step starts and ends on, bar merge..split
    data_indices: tuple[int, ...]  # logical indices carrying data
    ancilla_index: int
    control: int
    target: Optional[int]  # None when the ancilla itself is the target
    locality: bool = False
    correction_rules: dict = field(default_factory=dict)  # meas id -> PauliOperator
    class_correction: Optional[PauliOperator] = None  # multi-generator merges

    def measurement_ids(self) -> list[str]:
        ids: list[str] = []
        for step in self.steps:
            if isinstance(step, MergeStep):
                ids.extend(step.measurement_ids)
            elif isinstance(step, MeasureLogical):
                ids.append(step.measurement_id)
        return ids

    def merged_code(self, merge: MergeResult) -> CssCode:
        """The code between ``merge`` and its split."""
        return _merged_code(merge, self.base_code, self.ancilla_index)

    def data_k(self) -> int:
        return len(self.data_indices)


# --- Pauli propagation --------------------------------------------------------


def _merge_pivots(m: MergeResult) -> tuple[int, ...]:
    return m.subcode.oriented_spaces()[1].pivots


def _merge_flip_pattern(m: MergeResult, x: np.ndarray) -> np.ndarray:
    v1 = m.subcode.oriented_spaces()[1]
    return np.array([int(v @ x) % 2 for v in v1.basis_vectors()], dtype=np.uint8)


def _solve_branch_gauge(step: MergeStep, signs: Sequence[int]) -> Optional[np.ndarray]:
    """Codespace-preserving string realizing the -1 entries of ``signs``.

    Uses the step's declared per-measurement branch inserts when it has
    them; otherwise solves for overlaps with the subcode generators under
    the preserved-type check constraints. Returns the flipping side of
    the Pauli (X for a Z-merge), or None when the pattern contradicts the
    stabilizers.
    """
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
    source = step.merge.source
    system = vstack([step.merge.subcode.oriented_spaces()[1].basis, source.d2.T])
    return solve(system, np.concatenate([flips, np.zeros(source.dim2, dtype=np.uint8)]))


def _transport_merge(step: MergeStep, x: np.ndarray, z: np.ndarray):
    """Oriented-frame transport through a quotient merge's middle map.

    ``x`` plays the 'flipping' role, ``z`` the exact one when the merge
    is Z-type (swap before calling for X-type). Flips are compensated in
    the step's branch gauge before solving for the survivor, so the
    output stays a cycle. Returns (x', z', flips).
    """
    m = step.merge
    p1 = m.p.f1
    z_out = p1 @ z
    flips = _merge_flip_pattern(m, x)
    fix = _solve_branch_gauge(step, [-1 if f else 1 for f in flips])
    if fix is None:
        raise DimensionMismatch(
            "flip pattern inconsistent with stabilizers; transported operator corrupt"
        )
    x_out = solve(p1.T, np.asarray(x, dtype=np.uint8) ^ fix)
    if x_out is None:
        raise DimensionMismatch("merge transport failed; completion invariant broken")
    return x_out, z_out, flips


def _transport_split(m: MergeResult, x: np.ndarray, z: np.ndarray):
    """Oriented-frame transport through the split dual to ``m``.

    The solve side is only determined modulo the merged subspace; the
    representative is canonicalized to a cycle when one exists (always
    the case for merges with trivial subcode H0).
    """
    p1 = m.p.f1
    x_out = p1.T @ x
    z_out = solve(p1, z)
    if z_out is None:
        raise DimensionMismatch("split transport failed; p1 lost surjectivity")
    v1 = m.subcode.oriented_spaces()[1]
    if v1.dim:
        boundary = m.source.d1
        residue = boundary @ z_out
        if residue.any():
            coeffs = solve(boundary @ v1.basis.T, residue)
            if coeffs is not None:
                z_out = z_out ^ (v1.basis.T @ coeffs)
    return x_out, z_out


def propagate_pauli(step: PlanStep, p: PauliOperator) -> tuple[PauliOperator, dict]:
    """Commute a Pauli through one plan step.

    Returns the transported Pauli on the step's output register and a
    dict of measurement ids whose post-selected outcome the input flips.
    """
    if isinstance(step, InitAncilla):
        if step.ancilla is None:
            return p, {}
        pad = step.ancilla.n
        return (
            PauliOperator(
                x=np.concatenate([p.x, np.zeros(pad, dtype=np.uint8)]),
                z=np.concatenate([p.z, np.zeros(pad, dtype=np.uint8)]),
                sign=p.sign,
            ),
            {},
        )
    if isinstance(step, MergeStep):
        if step.orientation == "Z":
            x_out, z_out, flips = _transport_merge(step, p.x, p.z)
        else:
            z_out, x_out, flips = _transport_merge(step, p.z, p.x)
        flip_map = {
            mid: 1 for mid, f in zip(step.measurement_ids, flips) if f
        }
        return PauliOperator(x=x_out, z=z_out, sign=p.sign), flip_map
    if isinstance(step, SplitStep):
        if step.orientation == "X":  # split of a Z-merge
            x_out, z_out = _transport_split(step.merge, p.x, p.z)
        else:
            z_out, x_out = _transport_split(step.merge, p.z, p.x)
        out = PauliOperator(x=x_out, z=z_out, sign=p.sign)
        flip_map: dict = {}
        # projections re-imposing subcode-degree-0 stabilizers can flip
        for op in _split_projection_ops(step):
            if symplectic_product(out, op.pauli):
                flip_map[_projection_id(step, op)] = 1
        return out, flip_map
    if isinstance(step, MeasureLogical):
        flip = symplectic_product(p, step.pauli)
        return p, ({step.measurement_id: 1} if flip else {})
    if isinstance(step, ApplyCorrection):
        return p, {}
    raise DimensionMismatch(f"unknown plan step {step!r}")


def _split_projection_ops(step: SplitStep) -> list[Projection]:
    split = split_from_merge(step.merge)
    return [
        op
        for op in physical_op_sequence(split, step.orientation)
        if isinstance(op, Projection)
    ]


def _projection_id(step: SplitStep, op: Projection) -> str:
    return f"{step.orientation.lower()}split.proj.{op.pauli.label()}"


# --- locality-aware support decomposition --------------------------------------


def decompose_merge_support(
    code: CssCode,
    u,
    w,
    max_weight: int,
    node_cap: int = 4000,
) -> list[np.ndarray]:
    """Split u + w into low-weight generators spanning a safe subcode.

    The generators v_j satisfy sum v_j = u + w, weight(v_j) <= max_weight,
    and span{v_j} meets the cycle space only inside
    stabilizers + span{u + w}, so the merge along them still identifies
    exactly [u] with [w]. Greedy pairing of support coordinates with
    backtracking; raises DecompositionInfeasible past the weight cap or
    search budget.
    """
    target = as_bit_vector(np.asarray(u, dtype=np.uint8) ^ np.asarray(w, dtype=np.uint8), code.n)
    if not target.any():
        raise DecompositionInfeasible("u and w coincide; nothing to merge")
    if max_weight < 1:
        raise DecompositionInfeasible("max_weight must be at least 1")
    if int(np.count_nonzero(target)) <= max_weight:
        return [target]
    support = [int(i) for i in np.nonzero(target)[0]]
    n = code.n
    allowed = _allowed_space(code, target)

    nodes = 0

    def block_ok(block: list[int]) -> bool:
        v = np.zeros(n, dtype=np.uint8)
        v[block] = 1
        if not kernel_contains(code, v):
            return True
        return allowed.contains(v)

    def kernel_contains(code: CssCode, v: np.ndarray) -> bool:
        return not (code.complex.d1 @ v).any() if code.complex.d1.rows else True

    def search(remaining: list[int], acc: list[list[int]]) -> Optional[list[list[int]]]:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise DecompositionInfeasible("search budget exhausted")
        if not remaining:
            return acc
        first, rest = remaining[0], remaining[1:]
        max_extra = min(max_weight - 1, len(rest))
        for extra in range(max_extra, -1, -1):
            for partners in combinations(rest, extra):
                block = [first] + list(partners)
                if not block_ok(block):
                    continue
                next_remaining = [q for q in rest if q not in partners]
                got = search(next_remaining, acc + [block])
                if got is not None:
                    return got
        return None

    blocks = search(support, [])
    if blocks is None:
        raise DecompositionInfeasible("no admissible decomposition under the weight cap")
    gens = []
    for block in blocks:
        v = np.zeros(n, dtype=np.uint8)
        v[block] = 1
        gens.append(as_bit_vector(v))
    _check_span_exclusion(code, gens, target)
    return gens


def _allowed_space(code: CssCode, target: np.ndarray) -> Subspace:
    stab = code.complex.boundaries
    return Subspace.from_vectors(list(stab.basis_vectors()) + [target], code.n)


def _check_span_exclusion(code: CssCode, gens: list[np.ndarray], target: np.ndarray) -> None:
    span = Subspace.from_vectors(gens, code.n)
    inside = span.intersect(code.complex.cycles)
    allowed = _allowed_space(code, target)
    if not allowed.contains_subspace(inside):
        raise DecompositionInfeasible(
            "candidate span admits a second independent logical class"
        )
    total = np.zeros(code.n, dtype=np.uint8)
    for g in gens:
        total ^= g
    if not np.array_equal(total, target):
        raise DecompositionInfeasible("generators do not sum to u + w")


# --- plan construction ----------------------------------------------------------


def _pushed_basis(m: MergeResult, src: HomologyBasis, indices: Sequence[int]) -> HomologyBasis:
    """Quotient-side degree-1 basis given by pushing selected src classes."""
    q = m.quotient
    reps = tuple(m.p.f1 @ src.representatives[i] for i in indices)
    return HomologyBasis(degree=1, representatives=reps, kernel=q.cycles, image=q.boundaries)


def _merged_code(m: MergeResult, base: CssCode, ancilla_index: int) -> CssCode:
    """Merged code whose logical basis pushes every base class but the ancilla's.

    A Z-merge keeps the pushed Z-basis; an X-merge keeps the pushed
    X-basis and its dual Z-basis. Fails when the pushed classes are not
    independent, i.e. when the merge identifies two data logicals.
    """
    keep = [i for i in range(base.k) if i != ancilla_index]
    if m.orientation == "Z":
        zb = _pushed_basis(m, base.z_logicals, keep)
        return from_complex(m.quotient, z_basis=zb.matrix())
    xb = _pushed_basis(m, base.x_logicals, keep)
    code_cplx = m.merged_complex()
    zb = dual_z_basis(code_cplx, xb)
    return from_complex(code_cplx, z_basis=zb.matrix(), x_basis=xb.matrix())


def build_cnot_plan(
    code: CssCode,
    control: int,
    target: Optional[int] = None,
    ancilla: AncillaStrategy = AncillaStrategy.trivial(),
    locality: bool = False,
    max_weight: int = 2,
) -> SurgeryPlan:
    """Synthesize the merge/split CNOT protocol.

    With integer ``control`` and ``target`` (distinct, < k) this is the
    six-step protocol: ancilla in |+>, Z-merge/X-split along
    z_control + z_ancilla, X-merge/Z-split along x_target + x_ancilla,
    ancilla measured in Z with a conditional X correction on the target.

    With ``target=None`` the ancilla logical itself is the CNOT target
    ("ancilla as target"): the plan stops after the Z-merge/X-split and
    the ancilla stays live, prepared in |+>; the channel equals CNOT
    from the control onto a fresh |0> qubit.
    """
    if control < 0 or control >= code.k:
        raise DimensionMismatch(f"control index {control} out of range for k={code.k}")
    if target is not None:
        if target == control:
            raise DimensionMismatch("control and target must differ")
        if target < 0 or target >= code.k:
            raise DimensionMismatch(f"target index {target} out of range for k={code.k}")

    if ancilla.kind == "embedded":
        if ancilla.index < 0:
            raise DimensionMismatch(
                f"embedded ancilla index {ancilla.index} out of range 0..{code.k - 1}"
            )
        if ancilla.index in (control, target) or ancilla.index >= code.k:
            raise DimensionMismatch("embedded ancilla must be a distinct spare logical")
        base = code
        anc = ancilla.index
        init = InitAncilla(ancilla=None, logical_index=anc, state="plus")
        data = tuple(i for i in range(code.k) if i != anc)
    else:
        anc_code = ancilla.code
        if ancilla.kind == "trivial":
            from .catalog import trivial_qubit

            anc_code = trivial_qubit()
        if anc_code is None or anc_code.k < 1:
            raise DimensionMismatch("ancilla code must carry a logical qubit")
        if (
            ancilla.kind == "provided"
            and code.d is not None
            and anc_code.d is not None
            and anc_code.d < code.d
        ):
            raise AncillaDistanceTooSmall(
                f"ancilla distance {anc_code.d} < data code distance {code.d}"
            )
        base = direct_sum_code(code, anc_code)
        anc = code.k + ancilla.index
        init = InitAncilla(ancilla=anc_code, logical_index=anc, state="plus")
        data = tuple(range(code.k))

    steps: list[PlanStep] = [init]

    # Z-merge along z_control + z_ancilla
    z_gens = _surgery_generators(
        base, base.z_logical(control), base.z_logical(anc), locality, max_weight, side="Z"
    )
    v1 = Subspace.from_vectors(z_gens, base.n)
    v0 = Subspace.from_vectors([base.complex.d1 @ g for g in z_gens], base.complex.dim0)
    sub_v = validate_subcode(base.complex, Subspace.zero(base.complex.dim2), v1, v0, "Z")
    zmerge = quotient_merge(base.complex, sub_v)
    merged_z_code = _merged_code(zmerge, base, anc)
    z_matrix = induced_on_homology(
        zmerge.p, 1, base.z_logicals, merged_z_code.z_logicals
    )
    zz_ids = tuple(f"zmerge.zz{i}" for i in range(v1.dim))
    zz_inserts: tuple[Optional[PauliOperator], ...]
    if locality:
        zz_inserts = (None,) * v1.dim
    else:
        zz_inserts = (PauliOperator.from_x(base.x_logical(control)),)
    steps.append(
        MergeStep(
            merge=zmerge,
            orientation="Z",
            measurement_ids=zz_ids,
            pivot_qubits=_merge_pivots(zmerge),
            logical_matrix=z_matrix,
            branch_inserts=zz_inserts,
        )
    )

    split_x_matrix = induced_on_homology(
        split_from_merge(zmerge), 1, merged_z_code.x_logicals, base.x_logicals
    )
    steps.append(SplitStep(merge=zmerge, orientation="X", logical_matrix=split_x_matrix))

    rules: dict[str, PauliOperator] = {}
    xx_ids: tuple[str, ...] = ()
    if target is not None:
        # X-merge along x_target + x_ancilla
        x_gens = _surgery_generators(
            base, base.x_logical(target), base.x_logical(anc), locality, max_weight, side="X"
        )
        w1 = Subspace.from_vectors(x_gens, base.n)
        w2 = Subspace.from_vectors(
            [base.complex.d2.T @ g for g in x_gens], base.complex.dim2
        )
        sub_w = validate_subcode(base.complex, w2, w1, Subspace.zero(base.complex.dim0), "X")
        xmerge = quotient_merge(base.complex, sub_w)
        merged_x_code = _merged_code(xmerge, base, anc)
        x_matrix = induced_on_homology(xmerge.p, 1, base.x_logicals, merged_x_code.x_logicals)
        xx_ids = tuple(f"xmerge.xx{i}" for i in range(w1.dim))
        if locality:
            xx_inserts: tuple[Optional[PauliOperator], ...] = (None,) * w1.dim
        else:
            xx_inserts = (PauliOperator.from_z(base.z_logical(anc)),)
        steps.append(
            MergeStep(
                merge=xmerge,
                orientation="X",
                measurement_ids=xx_ids,
                pivot_qubits=_merge_pivots(xmerge),
                logical_matrix=x_matrix,
                branch_inserts=xx_inserts,
            )
        )

        split_z_matrix = induced_on_homology(
            split_from_merge(xmerge), 1, merged_x_code.z_logicals, base.z_logicals
        )
        steps.append(SplitStep(merge=xmerge, orientation="Z", logical_matrix=split_z_matrix))

        steps.append(
            MeasureLogical(
                pauli=PauliOperator.from_z(base.z_logical(anc)),
                basis="Z",
                measurement_id="final.za",
            )
        )
        steps.append(
            ApplyCorrection(
                pauli=PauliOperator.from_x(base.x_logical(target)),
                condition="final.za",
            )
        )

        if not locality:
            # corrections are stated in the branch gauges fixed above
            rules[zz_ids[0]] = PauliOperator.from_x(
                base.x_logical(control) ^ base.x_logical(target)
            )
            rules[xx_ids[0]] = PauliOperator.from_z(base.z_logical(control))
    else:
        if not locality:
            rules[zz_ids[0]] = PauliOperator.from_x(
                base.x_logical(control) ^ base.x_logical(anc)
            )

    return SurgeryPlan(
        name="cnot",
        steps=tuple(steps),
        base_code=base,
        data_indices=data,
        ancilla_index=anc,
        control=control,
        target=target,
        locality=locality,
        correction_rules=rules,
    )


def _surgery_generators(
    base: CssCode, rep_a, rep_b, locality: bool, max_weight: int, side: str
) -> list[np.ndarray]:
    joint = as_bit_vector(np.asarray(rep_a) ^ np.asarray(rep_b), base.n)
    if not locality:
        return [joint]
    if side == "Z":
        return decompose_merge_support(base, rep_a, rep_b, max_weight)
    flipped = from_complex(base.complex.transpose())
    return decompose_merge_support(flipped, rep_a, rep_b, max_weight)


def pairwise_switch_plan(data: CssCode, anc: CssCode, sub: Subcode, name: str = "code_switch") -> SurgeryPlan:
    """Round-trip switch plan along a Z-subcode identifying the two codes.

    Init the ancilla in |+>, Z-merge along ``sub``, then reverse:
    X-split and X-basis measurement of the ancilla logical, correcting
    with a Z on the surviving qubit when the outcome is -1. Merge
    outcomes are corrected through their flip-pattern class.
    """
    base = direct_sum_code(data, anc)
    sub = validate_subcode(base.complex, sub.v2, sub.v1, sub.v0, "Z")
    merge = quotient_merge(base.complex, sub)
    merged_code = _merged_code(merge, base, 1)
    z_matrix = induced_on_homology(merge.p, 1, base.z_logicals, merged_code.z_logicals)
    ids = tuple(f"zmerge.zz{i}" for i in range(sub.v1.dim))
    split_x_matrix = induced_on_homology(
        split_from_merge(merge), 1, merged_code.x_logicals, base.x_logicals
    )
    steps: tuple[PlanStep, ...] = (
        InitAncilla(ancilla=anc, logical_index=1, state="plus"),
        MergeStep(
            merge=merge,
            orientation="Z",
            measurement_ids=ids,
            pivot_qubits=_merge_pivots(merge),
            logical_matrix=z_matrix,
            branch_inserts=(None,) * len(ids),
        ),
        SplitStep(merge=merge, orientation="X", logical_matrix=split_x_matrix),
        MeasureLogical(
            pauli=PauliOperator.from_x(base.x_logical(1)),
            basis="X",
            measurement_id="final.xa",
        ),
        ApplyCorrection(
            pauli=PauliOperator.from_z(base.z_logical(0)), condition="final.xa"
        ),
    )
    return SurgeryPlan(
        name=name,
        steps=steps,
        base_code=base,
        data_indices=(0,),
        ancilla_index=1,
        control=0,
        target=None,
        locality=False,
        correction_rules={},
        class_correction=PauliOperator.from_x(base.x_logical(0)),
    )


def code_switch_plan() -> SurgeryPlan:
    """Round-trip switch between the 7-qubit and 15-qubit codes.

    The Z-subcode identifies the 7-qubit code with the bit4 = 0 face of
    the 15-qubit code pairwise (qubits and checks); the merged code is
    again a 15-qubit code and the composed logical map is the identity.
    """
    from .catalog import reed_muller_15, steane, switch_subcode

    s = steane()
    rm = reed_muller_15()
    return pairwise_switch_plan(s, rm, switch_subcode(s, rm))


# --- outcome corrections --------------------------------------------------------


def measurement_correction(plan: SurgeryPlan, outcomes: dict) -> list[PauliOperator]:
    """Pauli corrections restoring the ideal logical channel.

    ``outcomes`` maps every measurement id of the plan, and nothing
    else, to +1 or -1. Locality-decomposed plans with any -1 outcome
    are refused: handling them is an open question, not something to
    guess at.
    """
    ids = plan.measurement_ids()
    unknown = [i for i in outcomes if i not in ids]
    if unknown:
        raise CorrectionUnavailable(f"the plan has no measurements {unknown}")
    missing = [i for i in ids if i not in outcomes]
    if missing:
        raise CorrectionUnavailable(f"outcomes missing for {missing}")
    bad = [i for i in ids if outcomes[i] not in (1, -1)]
    if bad:
        raise CorrectionUnavailable(f"outcomes must be +1 or -1, got {bad}")
    total = _outcome_correction(plan, {i for i in ids if outcomes[i] == -1})
    return [] if total.is_identity() else [total]


def _outcome_correction(plan: SurgeryPlan, flipped_ids) -> PauliOperator:
    """Product of the corrections for the measurement ids recorded as -1.

    Single-generator merges use the plan's ``correction_rules``,
    multi-generator merges their flip-pattern class, and
    ``ApplyCorrection`` steps their own Pauli.
    """
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
                total = total.compose(_class_correction(plan, step, signs))
                continue
            _check_branch_overlap(step)
            rule = plan.correction_rules.get(step.measurement_ids[0])
            if rule is None:
                raise CorrectionUnavailable(f"no correction rule for {step.measurement_ids[0]}")
            total = total.compose(rule)
        elif isinstance(step, ApplyCorrection) and step.condition in flipped_ids:
            total = total.compose(step.pauli)
    return total


def _check_branch_overlap(step: MergeStep) -> None:
    """The branch gauge must anticommute with the measured joint operator.

    Dual logical bases guarantee the odd overlap; an even one means the
    stored bases are corrupted.
    """
    insert = step.branch_inserts[0]
    if insert is None:
        return
    v = step.merge.subcode.oriented_spaces()[1].basis.row(0)
    part = insert.x if step.orientation == "Z" else insert.z
    if int(part @ v) % 2 != 1:
        raise EmptyOverlap(
            "branch gauge commutes with the measured operator; dual bases corrupted"
        )


def _class_correction(
    plan: SurgeryPlan, step: MergeStep, signs: Sequence[int]
) -> PauliOperator:
    """Correction for a multi-generator merge via the flip-pattern class.

    A -1 pattern f is physical only if some X-type operator w commuting
    with all Z-checks has overlaps (w . v_i) = f; its logical class
    determines the correction. Patterns with no such w contradict the
    stabilizer constraints among the joint measurements.
    """
    w = _solve_branch_gauge(step, signs)
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


# --- simulation glue -------------------------------------------------------------


def plan_physical_ops(plan: SurgeryPlan, outcomes: Optional[dict] = None) -> list[PhysicalOp]:
    """The plan as a list of physical ops, with forced -1 branches inserted."""
    outcomes = outcomes or {}
    ops: list[PhysicalOp] = []
    for step in plan.steps:
        if isinstance(step, InitAncilla):
            continue  # handled by the encoders
        if isinstance(step, MergeStep):
            w = _solve_branch_gauge(step, [outcomes.get(m, 1) for m in step.measurement_ids])
            if w is None:
                raise CorrectionUnavailable(
                    "outcome pattern is inconsistent with the merged stabilizers"
                )
            if w.any():
                side = PauliOperator.from_x if step.orientation == "Z" else PauliOperator.from_z
                ops.append(PauliGate(side(w)))
            ops.extend(physical_op_sequence(step.merge.p, step.orientation))
        elif isinstance(step, SplitStep):
            ops.extend(
                physical_op_sequence(split_from_merge(step.merge), step.orientation)
            )
        elif isinstance(step, MeasureLogical):
            ops.append(Projection(step.pauli, outcomes.get(step.measurement_id, 1)))
        elif isinstance(step, ApplyCorrection):
            continue  # applied via measurement_correction
    return ops


_STATES = {
    "plus": np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
    "minus": np.array([1, -1], dtype=np.complex128) / np.sqrt(2),
    "zero": np.array([1, 0], dtype=np.complex128),
    "one": np.array([0, 1], dtype=np.complex128),
}


def plan_encoders(plan: SurgeryPlan, outcomes: Optional[dict] = None):
    """(e_in, e_out) matrices for channel extraction over the data logicals."""
    outcomes = outcomes or {}
    enc = encoder_isometry(plan.base_code)
    init = plan.steps[0]
    if not isinstance(init, InitAncilla):
        raise DimensionMismatch("plan does not start with an ancilla initialization")
    e_in = encoder_with_fixed_logical(enc, plan.ancilla_index, _STATES[init.state])

    final_measure = next(
        (s for s in plan.steps if isinstance(s, MeasureLogical)), None
    )
    if final_measure is None:
        e_out = enc.matrix
    else:
        sign = outcomes.get(final_measure.measurement_id, 1)
        if final_measure.basis == "Z":
            state = _STATES["zero"] if sign == 1 else _STATES["one"]
        else:
            state = _STATES["plus"] if sign == 1 else _STATES["minus"]
        e_out = encoder_with_fixed_logical(enc, plan.ancilla_index, state)
    return e_in, e_out


def plan_channel(
    plan: SurgeryPlan,
    outcomes: Optional[dict] = None,
    corrected: bool = True,
) -> np.ndarray:
    """Simulated logical channel of the plan (post-selected branches)."""
    ops = plan_physical_ops(plan, outcomes)
    if corrected and outcomes:
        filled = {**{m: 1 for m in plan.measurement_ids()}, **outcomes}
        for pauli in measurement_correction(plan, filled):
            ops.append(PauliGate(pauli))
    e_in, e_out = plan_encoders(plan, outcomes)
    return extract_logical_channel(ops, e_in, e_out)


def cnot_unitary(k: int, control: int, target: int) -> np.ndarray:
    """CNOT on (control, target) tensored with identity, over k qubits."""
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


def _embed_zero_at(total_qubits: int, index: int) -> np.ndarray:
    """Isometry inserting a fresh |0> qubit at the given label position."""
    dim_in = 1 << (total_qubits - 1)
    mat = np.zeros((1 << total_qubits, dim_in))
    for i in range(dim_in):
        bits = [(i >> (total_qubits - 2 - b)) & 1 for b in range(total_qubits - 1)]
        bits.insert(index, 0)
        j = 0
        for b in bits:
            j = (j << 1) | b
        mat[j, i] = 1.0
    return mat


def expected_plan_channel(plan: SurgeryPlan) -> np.ndarray:
    """The target logical channel the plan claims to implement.

    A plan without a data target that measures its ancilla out is a
    round trip (a code switch): the identity on the data logicals.
    """
    if plan.target is None and any(isinstance(s, MeasureLogical) for s in plan.steps):
        return np.eye(1 << plan.data_k())
    if plan.target is not None:
        k = plan.data_k()
        ctrl = plan.data_indices.index(plan.control)
        tgt = plan.data_indices.index(plan.target)
        return cnot_unitary(k, ctrl, tgt)
    # ancilla as target: CNOT from the control onto a fresh |0> logical
    b = plan.base_code.k
    return cnot_unitary(b, plan.control, plan.ancilla_index) @ _embed_zero_at(
        b, plan.ancilla_index
    )


# --- plan-level verification helpers ---------------------------------------------


def plan_symplectic_action(plan: SurgeryPlan) -> dict:
    """End-to-end operator action of the plan, corrections included.

    Propagates a physical representative of every base-code logical
    generator through all steps; each measurement its path flips
    contributes that measurement's correction Pauli (the flip is what
    the classical control sees, so the correction is part of the
    transported operator). Returns {"X0": (xcoords, zcoords), ...} in
    the base code's logical bases.
    """
    base = plan.base_code
    out = {}
    surgery_steps = [s for s in plan.steps if not isinstance(s, InitAncilla)]
    for kind in ("X", "Z"):
        for i in range(base.k):
            rep = base.x_logical(i) if kind == "X" else base.z_logical(i)
            p = PauliOperator.from_x(rep) if kind == "X" else PauliOperator.from_z(rep)
            flipped: set = set()
            for step in surgery_steps:
                p, flips = propagate_pauli(step, p)
                flipped.update(flips)
            p = p.compose(_outcome_correction(plan, flipped))
            xc = base.x_logicals.class_coordinates(p.x) if p.x.any() else np.zeros(base.k, dtype=np.uint8)
            zc = base.z_logicals.class_coordinates(p.z) if p.z.any() else np.zeros(base.k, dtype=np.uint8)
            out[f"{kind}{i}"] = (xc, zc)
    return out


def singleton_slack(n: int, k: int, d: int) -> int:
    return n - k - 2 * (d - 1)


@dataclass(frozen=True)
class SingletonReport:
    """Quantum Singleton-bound audit of two codes and their direct sum."""

    code_slacks: tuple[int, int]
    sum_params: tuple[int, int, int]
    sum_slack: int
    strict: bool
    guaranteed_strict: bool  # true whenever max(d_C, d_A) >= 2

    def holds(self) -> bool:
        return all(s >= 0 for s in self.code_slacks) and self.sum_slack >= 0


def singleton_check(c: CssCode, a: CssCode) -> SingletonReport:
    """Verify n - k >= 2(d - 1) for both codes and strictness for the sum."""
    if c.d is None or a.d is None:
        raise ChainsurgError("singleton_check needs known distances")
    sc = singleton_slack(c.n, c.k, c.d)
    sa = singleton_slack(a.n, a.k, a.d)
    d_sum = min(c.d, a.d)
    n_sum, k_sum = c.n + a.n, c.k + a.k
    slack = singleton_slack(n_sum, k_sum, d_sum)
    return SingletonReport(
        code_slacks=(sc, sa),
        sum_params=(n_sum, k_sum, d_sum),
        sum_slack=slack,
        strict=slack > 0,
        guaranteed_strict=max(c.d, a.d) >= 2,
    )


# --- plan serialization -----------------------------------------------------------


def plan_to_json(plan: SurgeryPlan) -> str:
    def pauli_dict(p: PauliOperator) -> dict:
        return {"x": p.x, "z": p.z, "sign": p.sign}

    steps = []
    for step in plan.steps:
        if isinstance(step, InitAncilla):
            steps.append(
                {
                    "kind": "init_ancilla",
                    "state": step.state,
                    "logical_index": step.logical_index,
                    "ancilla_n": step.ancilla.n if step.ancilla else None,
                    "ancilla_hx": step.ancilla.hx.a if step.ancilla else None,
                    "ancilla_hz": step.ancilla.hz.a if step.ancilla else None,
                }
            )
        elif isinstance(step, MergeStep):
            sub = step.merge.subcode
            steps.append(
                {
                    "kind": "merge",
                    "orientation": step.orientation,
                    "v2": sub.v2.basis.a,
                    "v1": sub.v1.basis.a,
                    "v0": sub.v0.basis.a,
                    "measurement_ids": list(step.measurement_ids),
                    "pivot_qubits": list(step.pivot_qubits),
                    "p1": step.merge.p.f1.a,
                    "logical_matrix": step.logical_matrix.a,
                    "branch_inserts": [
                        None if ins is None else pauli_dict(ins)
                        for ins in step.branch_inserts
                    ],
                }
            )
        elif isinstance(step, SplitStep):
            steps.append(
                {
                    "kind": "split",
                    "orientation": step.orientation,
                    "logical_matrix": step.logical_matrix.a,
                }
            )
        elif isinstance(step, MeasureLogical):
            steps.append(
                {
                    "kind": "measure_logical",
                    "basis": step.basis,
                    "measurement_id": step.measurement_id,
                    "pauli": pauli_dict(step.pauli),
                }
            )
        elif isinstance(step, ApplyCorrection):
            steps.append(
                {
                    "kind": "apply_correction",
                    "condition": step.condition,
                    "pauli": pauli_dict(step.pauli),
                }
            )
    doc = {
        "schema": "chainsurg-plan/1",
        "name": plan.name,
        "control": plan.control,
        "target": plan.target,
        "ancilla_index": plan.ancilla_index,
        "data_indices": list(plan.data_indices),
        "locality": plan.locality,
        "base_hx": plan.base_code.hx.a,
        "base_hz": plan.base_code.hz.a,
        "base_zl": plan.base_code.z_logicals.matrix().a,
        "base_xl": plan.base_code.x_logicals.matrix().a,
        "correction_rules": {k: pauli_dict(v) for k, v in plan.correction_rules.items()},
        "class_correction": pauli_dict(plan.class_correction)
        if plan.class_correction is not None
        else None,
        "steps": steps,
    }
    return jsontext.dumps(doc)


def _is_int(v) -> bool:
    return type(v) is int  # not bool, which JSON true and false load as


def _is_ints(v) -> bool:
    return isinstance(v, list) and set(map(type, v)) <= {int}


def _is_bits(v) -> bool:
    return _is_ints(v) and set(v) <= {0, 1}


# field kind -> (description for the error message, check)
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "ints": ("a list of integers", _is_ints),
    "strs": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "bits": ("a list of 0/1 entries", _is_bits),
    "matrix": (
        "a list of equal-length lists of 0/1 entries",
        lambda v: isinstance(v, list) and all(map(_is_bits, v)) and len({len(r) for r in v}) <= 1,
    ),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


class _JsonObject(dict):
    """A JSON object whose missing or wrongly typed fields raise MalformedInput naming them."""

    def __missing__(self, key):
        raise MalformedInput(f"missing field {key!r}", section=key)

    def field(self, key: str, kind: str, nullable: bool = False, choices=None):
        """The value of ``key``, checked to be of ``kind`` (see _FIELD_KINDS) and in ``choices``."""
        value = self[key]
        if value is None and nullable:
            return None
        what, check = _FIELD_KINDS[kind]
        if not check(value) or (choices is not None and value not in choices):
            if isinstance(choices, range):
                what = f"an integer from {choices.start} to {choices.stop - 1}"
            elif choices is not None:
                what = "one of " + ", ".join(map(repr, choices))
            raise MalformedInput(
                f"field {key!r} must be {what}{' or null' if nullable else ''}, got {value!r:.40}",
                section=key,
            )
        return value

    def matrix(self, key: str, cols: Optional[int] = None) -> F2Matrix:
        """The binary matrix in ``key``; ``cols`` is its required width (None: any)."""
        rows = self.field(key, "matrix")
        width = len(rows[0]) if rows else (cols or 0)
        if cols is not None and width != cols:
            raise MalformedInput(f"field {key!r} must have {cols} columns, has {width}", section=key)
        return F2Matrix.from_rows(rows, cols=width)

    def pauli(self, key: str, nullable: bool = False) -> Optional[PauliOperator]:
        return _pauli_from_json(self.field(key, "object", nullable), key)


def _pauli_from_json(d, where: str) -> Optional[PauliOperator]:
    """A Pauli {x, z, sign} object or None; errors name ``where`` before the field."""
    if d is None:
        return None
    with _within(where):
        if not isinstance(d, dict):
            raise MalformedInput("a Pauli must be an object with 'x', 'z' and 'sign'")
        sign = d.field("sign", "int") if "sign" in d else 1
        return PauliOperator(x=np.array(d.field("x", "bits"), dtype=np.uint8),
                             z=np.array(d.field("z", "bits"), dtype=np.uint8), sign=sign)


@contextmanager
def _within(where: str):
    """Prefix the section of a MalformedInput raised inside with ``where``."""
    try:
        yield
    except MalformedInput as exc:
        exc.section = where if exc.section is None else f"{where}.{exc.section}"
        raise


def plan_from_json(text: str) -> SurgeryPlan:
    """Rebuild a plan from its JSON document.

    Merges are reconstructed by re-running the quotient construction on
    the stored subcode generators, so the loaded plan simulates and
    corrects identically to the original. Load-time structure checks
    reject a merge not directly followed by its split, ``branch_inserts``
    not matching ``measurement_ids`` one to one or mixing null and set
    entries, a stored ``p1`` other than the recomputed projection, and a
    merge whose merged code would identify data logicals. A field that is
    missing, of the wrong type or out of range raises MalformedInput whose
    section names it (``steps[2].v1`` for a field of a step).
    """
    try:
        doc = json.loads(text, object_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "chainsurg-plan/1":
        raise DimensionMismatch(f"not a plan document: {schema!r}")
    base_keys = ("base_hx", "base_hz", "base_zl", "base_xl")
    widths = [len(rows[0]) for rows in (doc.field(key, "matrix") for key in base_keys) if rows]
    if not widths:
        raise MalformedInput("base code matrices are all empty", section="base_hx")
    n = widths[0]
    hx, hz, zl, xl = (doc.matrix(key, n) for key in base_keys)
    base = from_parity_checks(hx, hz, z_basis=zl, x_basis=xl)
    entries = doc.field("steps", "list")
    if not entries:
        raise MalformedInput("a plan needs at least one step", section="steps")
    kinds = []
    for i, entry in enumerate(entries):
        with _within(f"steps[{i}]"):
            if not isinstance(entry, dict):
                raise MalformedInput("a step must be an object")
            kinds.append(entry.field("kind", "str"))
    for prev, kind in zip([None] + kinds, kinds + [None]):
        if (prev == "merge") != (kind == "split"):
            raise DimensionMismatch("every merge must be directly followed by its split")
    logicals = range(base.k)
    ancilla_index = doc.field("ancilla_index", "int", choices=logicals)
    steps: list[PlanStep] = []
    for i, entry in enumerate(entries):
        with _within(f"steps[{i}]"):
            steps.append(_step_from_json(entry, base, ancilla_index, steps))
    data_indices = doc.field("data_indices", "ints")
    if not set(data_indices) <= set(logicals):
        raise MalformedInput(
            f"field 'data_indices' must list logical qubits from 0 to {base.k - 1}",
            section="data_indices",
        )
    control = doc.field("control", "int", choices=data_indices)
    target = doc.field("target", "int", nullable=True, choices=data_indices)
    rules = doc.field("correction_rules", "object")
    with _within("correction_rules"):
        correction_rules = {k: rules.pauli(k) for k in rules}
    return SurgeryPlan(
        name=doc.field("name", "str"),
        steps=tuple(steps),
        base_code=base,
        data_indices=tuple(data_indices),
        ancilla_index=ancilla_index,
        control=control,
        target=target,
        locality=doc.field("locality", "bool"),
        correction_rules=correction_rules,
        class_correction=doc.pauli("class_correction", nullable=True)
        if "class_correction" in doc
        else None,
    )


def _step_from_json(entry: _JsonObject, base: CssCode, ancilla_index: int, steps: list) -> PlanStep:
    """One plan step; ``steps`` holds the steps before it (a split takes the last merge)."""
    kind = entry.field("kind", "str")
    if kind == "init_ancilla":
        anc = None
        an = entry.field("ancilla_n", "int", nullable=True, choices=range(base.n + 1))
        if an is not None:
            anc = from_parity_checks(entry.matrix("ancilla_hx", an), entry.matrix("ancilla_hz", an))
        return InitAncilla(
            ancilla=anc,
            logical_index=entry.field("logical_index", "int", choices=range(base.k)),
            state=entry.field("state", "str", choices=("plus", "zero")),
        )
    if kind == "merge":
        orientation = entry.field("orientation", "str", choices=("Z", "X"))
        cx = base.complex
        sub = validate_subcode(
            cx,
            Subspace.from_matrix_rows(entry.matrix("v2", cx.dim2)),
            Subspace.from_matrix_rows(entry.matrix("v1", cx.dim1)),
            Subspace.from_matrix_rows(entry.matrix("v0", cx.dim0)),
            orientation,
        )
        merge = quotient_merge(cx, sub)
        if entry.matrix("p1", merge.p.f1.cols) != merge.p.f1:
            raise MalformedInput("field 'p1' differs from the projection recomputed from v2, v1, v0",
                                 section="p1")
        _merged_code(merge, base, ancilla_index)  # raises if data logicals merge
        measurement_ids = entry.field("measurement_ids", "strs")
        inserts = [
            _pauli_from_json(d, f"branch_inserts[{j}]")
            for j, d in enumerate(entry.field("branch_inserts", "list"))
        ]
        if len(inserts) != len(measurement_ids):
            raise DimensionMismatch("branch_inserts and measurement_ids differ in length")
        if len({ins is None for ins in inserts}) > 1:
            raise DimensionMismatch("branch_inserts mixes null and set entries")
        return MergeStep(
            merge=merge,
            orientation=orientation,
            measurement_ids=tuple(measurement_ids),
            pivot_qubits=tuple(entry.field("pivot_qubits", "ints")),
            logical_matrix=entry.matrix("logical_matrix"),
            branch_inserts=tuple(inserts),
        )
    if kind == "split":
        return SplitStep(
            merge=steps[-1].merge,
            orientation=entry.field("orientation", "str", choices=("Z", "X")),
            logical_matrix=entry.matrix("logical_matrix"),
        )
    if kind == "measure_logical":
        return MeasureLogical(
            pauli=entry.pauli("pauli"),
            basis=entry.field("basis", "str", choices=("Z", "X")),
            measurement_id=entry.field("measurement_id", "str"),
        )
    if kind == "apply_correction":
        return ApplyCorrection(pauli=entry.pauli("pauli"), condition=entry.field("condition", "str"))
    raise DimensionMismatch(f"unknown plan step kind {kind!r}")
