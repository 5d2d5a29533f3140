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

Each step kind owns how a Pauli passes it (``transport``), its physical
ops (``physical_ops``) and its share of the outcome correction
(``correction``), the last two for the set of ids recorded as -1; plan-level
functions loop over steps. Only ``_flipped_ids`` reads outcome dicts, so
every entry point refuses unknown ids and values other than +1 and -1 alike
and reads a missing id as +1 (``measurement_correction`` refuses it).
Each step holds what its plan JSON fields name and builds the rest once.
A split is the dual of its merge, so a split step is read off its merge
step: its map is the merge projection transposed, it preserves the other
Pauli type, and its logical matrix is the merge's transposed. Neither
synthesis nor loading builds the merged code. An ancilla init step holds
only the ancilla's checks: the base code already contains the ancilla
qubits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, combinations
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import jsontext
from .chaincomplex import (
    ChainComplex,
    HomologyBasis,
    direct_sum,
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
    Elimination,
    F2Matrix,
    Subspace,
    _mul,
    _reduce_rows,
    as_bit_vector,
    block_diag,
    kernel_basis,
    solve,  # unused here; perfbench/test_perfbench.py checks its tracer patches protocols.solve
    vstack,
)
from .simverify import (
    PauliGate,
    PhysicalOp,
    Projection,
    extract_logical_channel,
    merge_op_sequence,
    split_op_sequence,
    split_projections,
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

    kind "trivial": one bare physical qubit. kind "provided": logical
    ``index`` of a given code (for a CNOT, its distance, when known, must
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


class PlanStep:
    """A plan step: the defaults pass a Pauli unchanged, emit no op and add no correction.

    Each kind sets ``measurement_ids``, the outcomes it records, on its
    own class: a dataclass would take a value set here as a field default.
    """

    merge_side: Optional[str] = None  # the Pauli type a merge measures; None for other kinds

    def transport(self, p: PauliOperator) -> tuple[PauliOperator, dict]:
        """The Pauli on the step's output register, and the measurement ids it flips."""
        return p, {}

    def physical_ops(self, flipped_ids) -> tuple[PhysicalOp, ...]:
        """The step's physical ops, with the branches of the ids recorded as -1 forced."""
        return ()

    def correction(self, plan: "SurgeryPlan", flipped_ids) -> Optional[PauliOperator]:
        """The step's share of the correction for the ids recorded as -1, or None."""
        return None


@dataclass(frozen=True)
class InitAncilla(PlanStep):
    """Introduce the auxiliary logical qubit in |+> (or |0>).

    ``ancilla_hx`` and ``ancilla_hz`` are the checks of the ancilla code,
    the trailing diagonal block of the plan's base code; both are None
    for embedded strategies (no new qubits). The base code already holds
    the ancilla qubits, so the step acts on the plan frame as the identity;
    the encoders prepare the ancilla.
    """

    logical_index: int
    state: str  # "plus" | "zero"
    ancilla_hx: Optional[F2Matrix] = None
    ancilla_hz: Optional[F2Matrix] = None

    measurement_ids = ()
    ancilla_n = property(lambda self: None if self.ancilla_hx is None else self.ancilla_hx.cols)


@dataclass(frozen=True)
class MergeStep(PlanStep):
    """A merge along a subcode, measuring one joint operator per generator of V1.

    A Pauli's side of the merge's type is pushed through p1. The other
    side, plus the branch gauge of the outcomes it flips, is pulled back
    through p1.T: as p1 s1 = I for the degree-1 section s1, its one
    preimage is s1.T x, a column selection for the default coset
    representatives, and it has one exactly when V1 x = 0.
    """

    merge: MergeResult
    orientation: str
    measurement_ids: tuple[str, ...]
    pivot_qubits: tuple[int, ...]
    logical_matrix: F2Matrix  # induced map on the step's own logical side
    # Codespace-preserving Pauli realizing the -1 branch of each
    # measurement (the branch gauge); corrections are derived in the
    # same gauge. All None means the gauge is solved per outcome pattern.
    branch_inserts: tuple[Optional[PauliOperator], ...] = ()

    # the subcode generators and the projection as plan JSON stores them
    merge_side = property(lambda self: self.orientation)
    v2 = property(lambda self: self.merge.subcode.v2.basis)
    v1 = property(lambda self: self.merge.subcode.v1.basis)
    v0 = property(lambda self: self.merge.subcode.v0.basis)
    p1 = property(lambda self: self.merge.p.f1)

    @cached_property
    def gauge_system(self) -> Elimination:
        """Overlaps with the subcode generators over the preserved-type checks, eliminated
        once, when first read, for every outcome pattern."""
        source = self.merge.source
        return Elimination(vstack([self.merge.subcode.v1.basis, source.d2.T]))

    @cached_property
    def ops(self) -> tuple[PhysicalOp, ...]:
        """The merge's physical ops in its all-+1 branch, read off its sections when first read."""
        return merge_op_sequence(self.merge)

    def branch_gauge(self, flips: np.ndarray) -> Optional[np.ndarray]:
        """The flipping side (X for a Z-merge) of a codespace-preserving Pauli
        realizing -1 on the slots set in the 0/1 vector ``flips``: the declared
        branch inserts when all are set, else solved from the gauge system.
        None when the pattern contradicts the stabilizers.
        """
        w = np.zeros(self.merge.source.dim1, dtype=np.uint8)
        if not flips.any():
            return w
        inserts = self.branch_inserts
        if inserts and all(ins is not None for ins in inserts):
            for bit, ins in zip(flips, inserts):
                if bit:
                    w ^= ins.x if self.orientation == "Z" else ins.z
            return w
        return self.gauge_system.solve(
            np.concatenate([flips, np.zeros(self.merge.source.dim2, dtype=np.uint8)])
        )

    def transport(self, p: PauliOperator) -> tuple[PauliOperator, dict]:
        flipping, exact = (p.x, p.z) if self.orientation == "Z" else (p.z, p.x)
        pattern = self.v1 @ flipping
        fix = self.branch_gauge(pattern)
        if fix is None:
            raise DimensionMismatch(
                "flip pattern inconsistent with stabilizers; transported operator corrupt"
            )
        flipping = flipping ^ fix
        if (self.v1 @ flipping).any():
            raise DimensionMismatch("transport failed: the flipping side has no preimage")
        pulled, pushed = self.merge.times_section(1, flipping), self.p1 @ exact
        x, z = (pulled, pushed) if self.orientation == "Z" else (pushed, pulled)
        flips = {mid: 1 for mid, f in zip(self.measurement_ids, pattern) if f}
        return PauliOperator(x=x, z=z, sign=p.sign), flips

    def _outcome_gauge(self, flipped_ids) -> np.ndarray:
        """The branch gauge of the ids recorded as -1, which must not contradict the stabilizers."""
        slots = np.array([m in flipped_ids for m in self.measurement_ids], dtype=np.uint8)
        w = self.branch_gauge(slots)
        if w is None:
            raise CorrectionUnavailable(
                "outcome pattern is inconsistent with the merged stabilizers"
            )
        return w

    def physical_ops(self, flipped_ids) -> tuple[PhysicalOp, ...]:
        """The branch gauge of ``flipped_ids`` as a Pauli gate, when not trivial, then the merge."""
        w = self._outcome_gauge(flipped_ids)
        if not w.any():
            return self.ops
        side = PauliOperator.from_x if self.orientation == "Z" else PauliOperator.from_z
        return (PauliGate(side(w)),) + self.ops

    def correction(self, plan: "SurgeryPlan", flipped_ids) -> Optional[PauliOperator]:
        """The correction for this merge's -1 outcomes, in its branch gauge.

        The outcome gauge w, which must anticommute with exactly the flipped
        measured operators, needs one exactly when its logical class is
        nontrivial: as x_i . z_j = delta_ij, when it pairs oddly with a
        base-code logical of the measured type. That is the slot's rule for
        a single-slot merge that has one, else the plan's class correction.
        """
        ids = self.measurement_ids
        if flipped_ids.isdisjoint(ids):
            return None
        w = self._outcome_gauge(flipped_ids)
        if not np.array_equal(self.v1 @ w, [m in flipped_ids for m in ids]):
            raise EmptyOverlap(
                "branch gauge commutes with the measured operator; dual bases corrupted"
            )
        if not (_logicals(plan.base_code, self.orientation).matrix() @ w).any():
            return None
        single = len(ids) == 1
        correction = plan.correction_rules.get(ids[0]) if single else None
        correction = correction or plan.class_correction
        if correction is None:
            raise CorrectionUnavailable(
                f"no correction rule for {ids[0]}" if single else "plan carries no class correction rule"
            )
        return correction


@dataclass(frozen=True)
class SplitStep(PlanStep):
    """The split that reverses ``merge_step``, read off that merge.

    Its map is the merge projection transposed (``split_from_merge``
    checks it once, when the merge is built) and it preserves the other
    Pauli type: an X-split follows a Z-merge. Its logical matrix, on the
    other side's logical bases of the merged and the base code, is the
    merge's transposed: both codes pair their X- and Z-logical bases to
    the identity, and x . (p1 z) = (p1.T x) . z for every merged-code
    representative x and base-code representative z. A Pauli is pulled
    back through p1 with no elimination of p1 (``transport``).
    """

    merge_step: MergeStep

    measurement_ids = ()
    merge = property(lambda self: self.merge_step.merge)
    orientation = property(lambda self: "X" if self.merge_step.orientation == "Z" else "Z")
    logical_matrix = property(lambda self: self.merge_step.logical_matrix.T)

    @cached_property
    def projections(self) -> tuple[PauliOperator, ...]:
        """The stabilizers the split re-imposes, built when first read; transport reads
        only these, so it builds no op."""
        return split_projections(self.merge)

    @cached_property
    def ops(self) -> tuple[PhysicalOp, ...]:
        """The split's physical ops, read off the merge's sections when first read."""
        return split_op_sequence(self.merge, self.projections)

    @cached_property
    def reversed_v1(self) -> Subspace:
        """V1 with its columns reversed, in RREF, built when first read: one row is its own,
        several take one elimination of dim V1 rows."""
        return Subspace.from_matrix_rows(F2Matrix._wrap(self.merge.subcode.v1.basis.a[:, ::-1]))

    @cached_property
    def residue_system(self) -> Elimination:
        """The merged subspace's boundaries, for canonicalizing a pulled-back side."""
        m = self.merge
        return Elimination(m.source.d1 @ m.subcode.v1.basis.T)

    def transport(self, p: PauliOperator) -> tuple[PauliOperator, dict]:
        """Push one side through p1.T and pull the other back, a cycle when one exists.

        The preimages of x under p1 are s1 x + V1, s1 x being x at V1's free
        columns for the default representatives every plan merge has. p1's
        pivot solution is the one zero at p1's non-pivot columns, the pivots
        of ``reversed_v1`` read back: s1 x reduced modulo V1, columns reversed.
        The split records the projections (re-imposed subcode stabilizers)
        that the result anticommutes with.
        """
        m = self.merge
        flipping, exact = (p.x, p.z) if self.orientation == "Z" else (p.z, p.x)
        v1 = m.subcode.v1
        pulled = np.zeros(v1.ambient_dim, dtype=np.uint8)
        pulled[v1.free] = flipping
        pulled = _reduce_rows(pulled[None, ::-1], self.reversed_v1)[0, ::-1]
        if v1.dim:
            residue = m.source.d1 @ pulled
            if residue.any():
                coeffs = self.residue_system.solve(residue)
                if coeffs is not None:
                    pulled = pulled ^ (v1.basis.T @ coeffs)
        pushed = m.p.f1.T @ exact
        x, z = (pulled, pushed) if self.orientation == "Z" else (pushed, pulled)
        out = PauliOperator(x=x, z=z, sign=p.sign)
        return out, {
            f"{self.orientation.lower()}split.proj.{s.label()}": 1
            for s in self.projections
            if symplectic_product(out, s)
        }

    def physical_ops(self, flipped_ids) -> tuple[PhysicalOp, ...]:
        return self.ops


@dataclass(frozen=True)
class MeasureLogical(PlanStep):
    """Measure a logical operator; a Pauli that anticommutes with it flips the outcome."""

    pauli: PauliOperator
    basis: str  # "Z" | "X"
    measurement_id: str

    measurement_ids = property(lambda self: (self.measurement_id,))

    def transport(self, p: PauliOperator) -> tuple[PauliOperator, dict]:
        return p, ({self.measurement_id: 1} if symplectic_product(p, self.pauli) else {})

    def physical_ops(self, flipped_ids) -> tuple[PhysicalOp, ...]:
        return (Projection(self.pauli, -1 if self.measurement_id in flipped_ids else 1),)


@dataclass(frozen=True)
class ApplyCorrection(PlanStep):
    """Declarative rule: apply ``pauli`` when ``condition`` records -1."""

    pauli: PauliOperator
    condition: str

    measurement_ids = ()

    def correction(self, plan: "SurgeryPlan", flipped_ids) -> Optional[PauliOperator]:
        return self.pauli if self.condition in flipped_ids else None


@dataclass(frozen=True)
class SurgeryPlan:
    name: str
    steps: tuple[PlanStep, ...]  # steps[0] is the ancilla's InitAncilla
    base_code: CssCode  # the code every step starts and ends on, bar merge..split
    control: int
    target: Optional[int]  # None when the ancilla itself is the target
    locality: bool = False
    correction_rules: Mapping[str, PauliOperator] = field(default_factory=dict)  # meas id -> rule, read-only
    class_correction: Optional[PauliOperator] = None  # for every merge slot without its own rule

    def __post_init__(self):
        # frozen down to its rules: one loaded plan may serve many readers
        object.__setattr__(self, "correction_rules", MappingProxyType(dict(self.correction_rules)))

    @property
    def ancilla_index(self) -> int:
        """The ancilla's logical index, as its init step declares it."""
        return self.steps[0].logical_index

    @property
    def data_indices(self) -> tuple[int, ...]:
        """The logical indices carrying data: every one but the ancilla's, an ancilla code's
        spare logicals too."""
        return tuple(i for i in range(self.base_code.k) if i != self.ancilla_index)

    def measurement_ids(self) -> list[str]:
        return [m for step in self.steps for m in step.measurement_ids]

    @property
    def final_measurement(self) -> Optional[MeasureLogical]:
        """The plan's logical measurement of the ancilla, or None when it keeps it."""
        return next((s for s in self.steps if isinstance(s, MeasureLogical)), None)

    def merged_code(self, merge: MergeResult) -> CssCode:
        """The code between ``merge`` and its split."""
        return _merged_code(merge, self.base_code, self.ancilla_index)


# --- Pauli propagation --------------------------------------------------------


def propagate_pauli(step: PlanStep, p: PauliOperator) -> tuple[PauliOperator, dict]:
    """Commute a Pauli through one plan step.

    Returns the transported Pauli on the step's output register and a
    dict of measurement ids whose post-selected outcome the input flips.
    """
    return step.transport(p)


# --- locality-aware support decomposition --------------------------------------


# The most search nodes one support decomposition may visit.
DECOMPOSE_NODE_CAP = 4000


def decompose_merge_support(code: CssCode, u, w, max_weight: int) -> list[np.ndarray]:
    """Split u + w into low-weight generators spanning a safe subcode.

    The generators v_j satisfy sum v_j = u + w, weight(v_j) <= max_weight,
    and span{v_j} meets the cycle space only inside
    stabilizers + span{u + w}, so the merge along them still identifies
    exactly [u] with [w]. Greedy pairing of support coordinates with
    backtracking; raises DecompositionInfeasible past the weight cap or
    search budget.
    """
    return _decompose_support(code.complex, u, w, max_weight)


def _decompose_support(cplx: ChainComplex, u, w, max_weight: int) -> list[np.ndarray]:
    """``decompose_merge_support`` on a complex: its cycles and boundaries stand for the code's."""
    n = cplx.dim1
    target = as_bit_vector(np.asarray(u, dtype=np.uint8) ^ np.asarray(w, dtype=np.uint8), n)
    if not target.any():
        raise DecompositionInfeasible("u and w coincide; nothing to merge")
    if max_weight < 1:
        raise DecompositionInfeasible("max_weight must be at least 1")
    if int(np.count_nonzero(target)) <= max_weight:
        return [target]
    support = [int(i) for i in np.nonzero(target)[0]]
    allowed = _allowed_space(cplx, target)

    nodes = 0

    def block_ok(block: list[int]) -> bool:
        v = np.zeros(n, dtype=np.uint8)
        v[block] = 1
        if cplx.d1.rows and (cplx.d1 @ v).any():
            return True  # not a cycle
        return allowed.contains(v)

    def search(remaining: list[int], acc: list[list[int]]) -> Optional[list[list[int]]]:
        nonlocal nodes
        nodes += 1
        if nodes > DECOMPOSE_NODE_CAP:
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
    _check_span_exclusion(cplx, gens, target, allowed)
    return gens


def _allowed_space(cplx: ChainComplex, target: np.ndarray) -> Subspace:
    """The boundaries and u + w: the cycles a safe span may contain."""
    return cplx.boundaries.sum(Subspace.from_vectors([target], cplx.dim1))


def _check_span_exclusion(
    cplx: ChainComplex, gens: list[np.ndarray], target: np.ndarray, allowed: Subspace
) -> None:
    """Raise unless span(gens) meets the cycles inside ``allowed`` and the gens sum to ``target``.

    The combinations y @ G of the generator rows G that are cycles are
    those with y in the kernel of the small dim0 x g matrix d1 @ G.T, so
    their products with G span span(gens) ∩ cycles.
    """
    g = F2Matrix.from_rows(gens, cols=cplx.dim1)
    inside = kernel_basis(cplx.d1 @ g.T).basis @ g
    if not allowed.contains_rows(inside):
        raise DecompositionInfeasible(
            "candidate span admits a second independent logical class"
        )
    total = np.zeros(cplx.dim1, dtype=np.uint8)
    for g in gens:
        total ^= g
    if not np.array_equal(total, target):
        raise DecompositionInfeasible("generators do not sum to u + w")


# --- plan construction ----------------------------------------------------------


def _merge_logical_matrix(m: MergeResult, base: CssCode, anc: int) -> F2Matrix:
    """The map p1 induces on the merge's side of the logicals, from ``base``'s basis to the
    pushed basis (every base class but the ancilla's, pushed through p1); raises unless that is a basis.

    Read off the subcode V by the exact sequence H1(V) -> H1(C) -> H1(C/V) -> H0(V), so
    ker p* = im i*. A cycle w of C has class coordinates x_i . w (z_i . w for an X-merge),
    and in the RREF of [V1 d1^T | V1's pairings] (the pairings alone when V0 = 0) the rows
    with pivots in the pairings span im i*, of rank r; the others count dim d1(V1). With
    H0(V) = 0, H1(C/V) has k - r dimensions; otherwise, as only an edited V0 gives, they are
    read off the quotient's spaces. The pushed classes are a basis exactly when there are
    k - 1 and the nonzero class c of im i* is 1 at the ancilla; p* of the ancilla's class is then
    c at the other classes."""
    _, v1, v0 = m.subcode.oriented_spaces()
    pairing = _mul(v1.basis.a, _logicals(base, "X" if m.orientation == "Z" else "Z").matrix().a.T)
    d = m.source.dim0 if v0.dim else 0
    rows = np.hstack([_mul(v1.basis.a, m.source.d1.a.T), pairing]) if d else pairing
    span = Subspace.from_matrix_rows(F2Matrix._wrap(rows))
    bounded = sum(p < d for p in span.pivots)  # dim d1(V1)
    image = span.basis.a[bounded:, d:]  # im i*, in class coordinates
    keep = [i for i in range(base.k) if i != anc]
    q = m.quotient
    if (base.k - len(image) if bounded == v0.dim else q.cycles.dim - q.boundaries.dim) > len(keep):
        raise DimensionMismatch("the merge creates logical classes the base code does not have")
    if len(image) != 1 or not image[0, anc]:
        raise DimensionMismatch("the merge identifies logical classes of the base code")
    matrix = np.eye(base.k, dtype=np.uint8)[keep]
    matrix[:, anc] = image[0, keep]
    return F2Matrix._wrap(matrix)


def _pushed_basis(m: MergeResult, src: HomologyBasis, anc: int) -> HomologyBasis:
    """The merged code's logical basis on the merge's own side: every class of ``src`` but the
    ancilla's, pushed through p1. ``_merge_logical_matrix`` has checked it is a basis."""
    keep = [i for i in range(src.dim) if i != anc]
    return HomologyBasis(F2Matrix._wrap(_mul(src.matrix().a[keep], m.p.f1.a.T)), m.quotient)


def _merged_code(m: MergeResult, base: CssCode, ancilla_index: int) -> CssCode:
    """Merged code whose logical basis pushes every base class but the ancilla's.

    A Z-merge keeps the pushed Z-basis and its dual X-basis; an X-merge
    keeps the pushed X-basis and its dual Z-basis.
    """
    pushed = _pushed_basis(m, _logicals(base, m.orientation), ancilla_index)
    if m.orientation == "Z":
        return from_complex(m.quotient, z_basis=pushed.matrix())
    code_cplx = m.merged_complex()
    zb = dual_z_basis(code_cplx, pushed)
    return from_complex(code_cplx, z_basis=zb.matrix(), x_basis=pushed.matrix())


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

    ``locality`` only caps each joint operator's pieces at ``max_weight``
    (else at ``base.n``: one piece) and sets the plan's flag (``_assemble_plan``).
    """
    if control < 0 or control >= code.k:
        raise DimensionMismatch(f"control index {control} out of range for k={code.k}")
    if target is not None:
        if target == control:
            raise DimensionMismatch("control and target must differ")
        if target < 0 or target >= code.k:
            raise DimensionMismatch(f"target index {target} out of range for k={code.k}")
    attached = _resolve_ancilla(code, ancilla, (control, target))
    base, anc, _ = attached
    if ancilla.kind == "provided" and None not in (code.d, ancilla.code.d) and ancilla.code.d < code.d:
        raise AncillaDistanceTooSmall(f"ancilla distance {ancilla.code.d} < data code distance {code.d}")
    x, z = base.x_logical, base.z_logical
    X, Z = PauliOperator.from_x, PauliOperator.from_z
    partner = anc if target is None else target  # the logical the ancilla ends on
    # each half: (side, data logical merged with the ancilla, branch gauge, rule in that gauge)
    halves = [("Z", control, X(x(control)), X(x(control) ^ x(partner)))]
    measure = None
    if target is not None:
        halves.append(("X", target, Z(z(anc)), Z(z(control))))
        measure = ("Z", X(x(target)))
    cap = max_weight if locality else base.n
    # a generator: each half's subcode is built after the merge before it
    merges = ((_joint_subcode(base, side, a, anc, cap), gauge, rule) for side, a, gauge, rule in halves)
    return _assemble_plan("cnot", attached, merges, measure, control, target, locality)


def _resolve_ancilla(code: CssCode, ancilla: AncillaStrategy, reserved: tuple) -> tuple:
    """(base code, ancilla index, init step): an embedded ancilla is a spare logical of
    ``code`` outside ``reserved``; a trivial or provided one's code is placed after ``code``.
    """
    if ancilla.kind == "embedded":
        if ancilla.index < 0:
            raise DimensionMismatch(f"embedded ancilla index {ancilla.index} out of range 0..{code.k - 1}")
        if ancilla.index in reserved or ancilla.index >= code.k:
            raise DimensionMismatch("embedded ancilla must be a distinct spare logical")
        return code, ancilla.index, InitAncilla(logical_index=ancilla.index, state="plus")
    anc_code = _trivial_qubit() if ancilla.kind == "trivial" else ancilla.code
    if anc_code is None or anc_code.k < 1:
        raise DimensionMismatch("ancilla code must carry a logical qubit")
    if not 0 <= ancilla.index < anc_code.k:
        raise DimensionMismatch(f"ancilla index {ancilla.index} out of range 0..{anc_code.k - 1}")
    anc = code.k + ancilla.index
    return direct_sum_code(code, anc_code), anc, InitAncilla(anc, "plus", anc_code.hx, anc_code.hz)


@cache
def _trivial_qubit() -> CssCode:
    """The default ancilla's code: it is immutable, so it is built once per process."""
    from .catalog import trivial_qubit

    return trivial_qubit()


def _assemble_plan(
    name, attached, merges, measure, control, target=None, locality=False, class_correction=None
) -> SurgeryPlan:
    """The plan: ancilla init, each merge with its split, then the ancilla's measurement if any.

    ``attached`` is what ``_resolve_ancilla`` returns. Each merge is
    (subcode, gauge, rule): a single slot's branch gauge and correction
    rule, or None to solve the gauge per pattern. The slot count alone
    decides: a merge of several slots always solves it and takes no rule.
    ``measure`` is (basis, correction applied when the ancilla's logical
    of that basis, measured as ``final.za`` or ``final.xa``, reads -1).
    """
    base, anc, init = attached
    steps: list[PlanStep] = [init]
    rules: dict[str, PauliOperator] = {}
    for sub, gauge, rule in merges:
        if sub.v1.dim > 1:  # a slot per piece: each pattern's gauge is solved, and no slot takes a rule
            gauge = rule = None
        merge, split = _merge_and_split(base, sub, anc, None if gauge is None else (gauge,), steps)
        steps += [merge, split]
        if rule is not None:
            rules[merge.measurement_ids[0]] = rule
    if measure is not None:
        basis, correction = measure
        side = PauliOperator.from_z if basis == "Z" else PauliOperator.from_x
        logical, mid = side(_logicals(base, basis).representatives[anc]), f"final.{basis.lower()}a"
        steps += [MeasureLogical(logical, basis, mid), ApplyCorrection(correction, mid)]
    return SurgeryPlan(name, tuple(steps), base, control, target, locality, rules, class_correction)


def _joint_subcode(base: CssCode, side: str, a: int, b: int, max_weight: int) -> Subcode:
    """Subcode along the joint ``side`` operator of logicals ``a`` and ``b``.

    Its degree-1 generators are ``_decompose_support``'s pieces of the sum of
    the two representatives, of weight at most ``max_weight`` (the sum itself,
    with no elimination, at ``base.n``); in the ``side`` frame, degree 0 holds their
    boundaries and degree 2 nothing, so it is closed by construction and
    is built without ``validate_subcode``'s products.
    """
    oriented = base.complex if side == "Z" else base.complex.transpose()
    rep = base.z_logical if side == "Z" else base.x_logical
    gens = _decompose_support(oriented, rep(a), rep(b), max_weight)
    spaces = (
        Subspace.zero(oriented.dim2),
        Subspace.from_vectors(gens, base.n),
        Subspace.from_vectors([oriented.d1 @ g for g in gens], oriented.dim0),
    )
    return Subcode(base.complex, *(spaces if side == "Z" else spaces[::-1]), side)


def _logicals(code: CssCode, side: str) -> HomologyBasis:
    return code.z_logicals if side == "Z" else code.x_logicals


def _merge_and_split(
    base: CssCode,
    sub: Subcode,
    anc: int,
    inserts: Optional[Sequence[Optional[PauliOperator]]],
    earlier: Sequence[PlanStep] = (),
) -> tuple[MergeStep, SplitStep]:
    """The merge of ``base`` along ``sub`` and the split that undoes it.

    The merge measures one slot per generator of ``sub.v1``, named
    ``zmerge.zz<i>`` (``xmerge.xx<i>`` for an X-merge) when it is the
    first merge of its type among the ``earlier`` steps, and
    ``zmerge<j>.zz<i>`` when j merges of its type come before it.
    ``inserts`` are the slots' branch gauges, or None to solve them per
    outcome pattern.
    The merge carries the map it induces on the logicals of its own side,
    from the basis of ``base`` to the pushed basis of the merged code; the
    split reads its own from the merge, without building the merged code.
    Each GF(2) product is computed once: ``quotient_merge`` shares its
    products between the quotient and its checks, the logical matrix is
    read off the subcode by the exact sequence, with no space of the
    quotient (``_merge_logical_matrix``), and the split's injectivity check
    reads p at the default section's unit columns. Synthesis and
    ``plan_from_json`` both build every merge here.
    """
    merge = quotient_merge(base.complex, sub)
    side = sub.orientation
    j = sum(step.merge_side == side for step in earlier)
    ids = tuple(f"{side.lower()}merge{j or ''}.{side.lower() * 2}{i}" for i in range(sub.v1.dim))
    inserts = (None,) * len(ids) if inserts is None else tuple(inserts)
    if len(inserts) != len(ids):
        raise DimensionMismatch(
            f"branch_inserts and measurement_ids differ in length: {len(inserts)} for {len(ids)}"
        )
    if len({ins is None for ins in inserts}) > 1:
        raise DimensionMismatch("branch_inserts mixes null and set entries")
    logical_matrix = _merge_logical_matrix(merge, base, anc)
    merge_step = MergeStep(
        merge=merge,
        orientation=side,
        measurement_ids=ids,
        pivot_qubits=sub.v1.pivots,
        logical_matrix=logical_matrix,
        branch_inserts=inserts,
    )
    split_from_merge(merge)  # the injectivity check; the split step reads its map off the merge
    return merge_step, SplitStep(merge_step)


def pairwise_switch_plan(data: CssCode, anc: CssCode, sub: Subcode) -> SurgeryPlan:
    """Round-trip switch plan along a Z-subcode identifying the two codes.

    Init the ancilla (logical 0 of ``anc``) in |+>, Z-merge along ``sub``,
    X-split, and measure the ancilla in X, correcting -1 with a Z on data
    logical 0 (the control); merge outcomes take an X on the control.
    """
    attached = _resolve_ancilla(data, AncillaStrategy.provided(anc), ())
    base, control = attached[0], 0
    sub = validate_subcode(base.complex, sub.v2, sub.v1, sub.v0, "Z")
    measure = ("X", PauliOperator.from_z(base.z_logical(control)))
    rule = PauliOperator.from_x(base.x_logical(control))
    return _assemble_plan("code_switch", attached, [(sub, None, None)], measure, control, class_correction=rule)


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


def _flipped_ids(plan: SurgeryPlan, outcomes: Optional[dict], complete: bool = False) -> frozenset:
    """The ids ``outcomes`` records as -1, after refusing, in this order, ids the plan
    does not measure, missing ids (only when ``complete``; else they read as +1) and
    values other than +1 and -1.
    """
    outcomes = outcomes or {}
    ids = plan.measurement_ids()
    unknown = [i for i in outcomes if i not in ids]
    if unknown:
        raise CorrectionUnavailable(f"the plan has no measurements {unknown}")
    missing = [i for i in ids if i not in outcomes]
    if complete and missing:
        raise CorrectionUnavailable(f"outcomes missing for {missing}")
    bad = [i for i in ids if outcomes.get(i, 1) not in (1, -1)]
    if bad:
        raise CorrectionUnavailable(f"outcomes must be +1 or -1, got {bad}")
    return frozenset(i for i in ids if outcomes.get(i) == -1)


def measurement_correction(plan: SurgeryPlan, outcomes: dict) -> list[PauliOperator]:
    """Pauli corrections restoring the ideal logical channel.

    ``outcomes`` maps every measurement id of the plan, and nothing
    else, to +1 or -1; unlike the other entry points, it refuses a missing
    id. Every plan takes its steps' corrections; a merge of several slots has
    no rule, so without a class correction a -1 outcome product on one is refused.
    """
    total = _outcome_correction(plan, _flipped_ids(plan, outcomes, complete=True))
    return [] if total.is_identity() else [total]


def _outcome_correction(plan: SurgeryPlan, flipped_ids) -> PauliOperator:
    """Product of the steps' corrections for the measurement ids recorded as -1."""
    total = PauliOperator.identity(plan.base_code.n)
    if not flipped_ids:
        return total
    for step in plan.steps:
        correction = step.correction(plan, flipped_ids)
        if correction is not None:
            total = total.compose(correction)
    return total


# --- simulation glue -------------------------------------------------------------


def plan_physical_ops(plan: SurgeryPlan, outcomes: Optional[dict] = None) -> list[PhysicalOp]:
    """The plan as a list of physical ops, with forced -1 branches inserted."""
    return _physical_ops(plan, _flipped_ids(plan, outcomes))


def _physical_ops(plan: SurgeryPlan, flipped_ids) -> list[PhysicalOp]:
    return [op for step in plan.steps for op in step.physical_ops(flipped_ids)]


_STATES = {
    "plus": np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
    "minus": np.array([1, -1], dtype=np.complex128) / np.sqrt(2),
    "zero": np.array([1, 0], dtype=np.complex128),
    "one": np.array([0, 1], dtype=np.complex128),
}


def plan_encoders(plan: SurgeryPlan, outcomes: Optional[dict] = None):
    """(e_in, e_out) Encoders for channel extraction over every logical but the ancilla."""
    return _encoders(plan, _flipped_ids(plan, outcomes))


def _encoders(plan: SurgeryPlan, flipped_ids):
    enc = encoder_isometry(plan.base_code)  # plan_from_json checks that steps[0] inits the ancilla
    e_in = encoder_with_fixed_logical(enc, plan.ancilla_index, _STATES[plan.steps[0].state])
    final_measure = plan.final_measurement
    if final_measure is None:
        return e_in, enc
    states = ("zero", "one") if final_measure.basis == "Z" else ("plus", "minus")
    state = _STATES[states[final_measure.measurement_id in flipped_ids]]
    return e_in, encoder_with_fixed_logical(enc, plan.ancilla_index, state)


def plan_channel(
    plan: SurgeryPlan,
    outcomes: Optional[dict] = None,
    corrected: bool = True,
) -> np.ndarray:
    """Simulated logical channel of the plan (post-selected branches).

    ``outcomes`` is checked as in every entry point (a missing id reads
    as +1); with ``corrected`` the correction for its -1 ids is applied.
    """
    return plan_branch(plan, outcomes, corrected)[0]


def plan_branch(
    plan: SurgeryPlan,
    outcomes: Optional[dict] = None,
    corrected: bool = True,
) -> tuple[np.ndarray, list[PauliOperator]]:
    """``plan_channel``, and the correction of the branch as a list of at most one Pauli.

    The correction is ``measurement_correction``'s for ``outcomes`` with
    missing ids read as +1, computed once, before anything is simulated.
    With ``corrected`` it is applied and a refusal is raised; without, it
    is only reported, and a CorrectionUnavailable reports none: none is
    applied, so none is refused.
    """
    flipped = _flipped_ids(plan, outcomes)
    ops = _physical_ops(plan, flipped)
    try:
        correction = _outcome_correction(plan, flipped)
    except CorrectionUnavailable:
        if corrected:
            raise
        correction = PauliOperator.identity(plan.base_code.n)
    if corrected and not correction.is_identity():
        ops.append(PauliGate(correction))
    e_in, e_out = _encoders(plan, flipped)
    return extract_logical_channel(ops, e_in, e_out), [] if correction.is_identity() else [correction]


def cnot_unitary(k: int, control: int, target: int) -> np.ndarray:
    """CNOT on (control, target) tensored with identity, over k qubits."""
    i = np.arange(1 << k)
    mat = np.zeros((1 << k, 1 << k))
    mat[i ^ (((i >> (k - 1 - control)) & 1) << (k - 1 - target)), i] = 1.0
    return mat


def expected_plan_channel(plan: SurgeryPlan) -> np.ndarray:
    """The target logical channel the plan claims to implement.

    It is CNOT from the control onto its partner on all k logicals, or the
    identity: the partner is the target, else the ancilla unless the
    ancilla is measured out (a round trip, a code switch). The ancilla
    enters fresh, so the columns where its bit is 0 are kept, and so are
    those rows when it is measured; ``plan_encoders`` drops it likewise.
    """
    k, anc = plan.base_code.k, plan.ancilla_index
    measured = plan.final_measurement is not None
    partner = plan.target if plan.target is not None or measured else anc
    full = np.eye(1 << k) if partner is None else cnot_unitary(k, plan.control, partner)
    labels = np.arange(1 << k)
    fresh = labels[(labels >> (k - 1 - anc)) & 1 == 0]
    return full[np.ix_(fresh if measured else labels, fresh)]


# --- plan-level verification helpers ---------------------------------------------


def plan_symplectic_action(plan: SurgeryPlan) -> dict:
    """End-to-end operator action of the plan, corrections included.

    Propagates a physical representative of every base-code logical
    generator through all steps; each measurement its path flips
    contributes that measurement's correction Pauli (the flip is what
    the classical control sees, so the correction is part of the
    transported operator). Returns {"X0": (xcoords, zcoords), ...} in
    the base code's logical bases, read by pairing: as x_i . z_j =
    delta_ij, the X coordinates of a cocycle are zl @ x and the Z
    coordinates of a cycle are xl @ z, with no class-system elimination.
    """
    base = plan.base_code
    zl, xl = base.z_logicals.matrix(), base.x_logicals.matrix()
    out = {}
    for kind in ("X", "Z"):
        for i in range(base.k):
            rep = base.x_logical(i) if kind == "X" else base.z_logical(i)
            p = PauliOperator.from_x(rep) if kind == "X" else PauliOperator.from_z(rep)
            flipped: set = set()
            for step in plan.steps:
                p, flips = propagate_pauli(step, p)
                flipped.update(flips)
            p = p.compose(_outcome_correction(plan, flipped))
            if (base.hz @ p.x).any() or (base.hx @ p.z).any():
                raise DimensionMismatch("vector is not a cycle at this degree")
            out[f"{kind}{i}"] = (zl @ p.x, xl @ p.z)
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


def _is_int(v) -> bool:
    return type(v) is int  # not bool, which JSON true and false load as


def _is_ints(v) -> bool:
    return isinstance(v, list) and set(map(type, v)) <= {int}


def _is_bits(v) -> bool:
    return _is_ints(v) and set(v) <= {0, 1}


def _matrix_entries(v) -> Optional[list]:
    """The entries of ``v`` row by row when it is a list of equal-length lists of 0/1
    integers, all of them read in one pass; None when it is not."""
    if not (isinstance(v, list) and set(map(type, v)) <= {list} and len(set(map(len, v))) <= 1):
        return None
    entries = list(chain.from_iterable(v))
    return entries if set(map(type, entries)) <= {int} and set(entries) <= {0, 1} else None


# field kind -> (description for the error message, check)
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "ints": ("a list of integers", _is_ints),
    "strs": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "bits": ("a list of 0/1 entries", _is_bits),
    "matrix": ("a list of equal-length lists of 0/1 entries", lambda v: _matrix_entries(v) is not None),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def _refuse(key: str, kind: str, nullable: bool, choices, value):
    """Raise the MalformedInput for a ``key`` that is not of ``kind`` or not in ``choices``."""
    what = _FIELD_KINDS[kind][0]
    if isinstance(choices, range):
        what = f"an integer from {choices.start} to {choices.stop - 1}"
    elif choices is not None:
        what = "one of " + ", ".join(map(repr, choices))
    raise MalformedInput(
        f"field {key!r} must be {what}{' or null' if nullable else ''}, got {value!r:.40}", section=key
    )


def _value(obj: dict, key: str):
    """The value of ``key`` in a JSON object; a missing field raises MalformedInput naming it."""
    try:
        return obj[key]
    except KeyError:
        raise MalformedInput(f"missing field {key!r}", section=key) from None


def _field(obj: dict, key: str, kind: str, nullable: bool = False, choices=None):
    """The value of ``key``, checked to be of ``kind`` (see _FIELD_KINDS) and in ``choices``."""
    value = _value(obj, key)
    if value is None and nullable:
        return None
    if not _FIELD_KINDS[kind][1](value) or (choices is not None and value not in choices):
        _refuse(key, kind, nullable, choices, value)
    return value


def _bit_rows(obj: dict, key: str, nullable: bool = False) -> Optional[tuple[list, list]]:
    """The "matrix" field ``key`` as (its rows, their entries row by row), or None for null."""
    rows = _value(obj, key)
    if rows is None and nullable:
        return None
    entries = _matrix_entries(rows)
    if entries is None:
        _refuse(key, "matrix", nullable, None, rows)
    return rows, entries


def _read(obj: dict, key: str, kind: str, nullable: bool = False, spec=None):
    """The value of ``key`` as a plan field of ``kind``.

    ``kind`` is a _FIELD_KINDS entry, "pauli" or "paulis" (a list of
    Paulis and nulls). ``spec`` is the width of a "matrix" (None: any;
    only then may a nullable matrix be null), the length of "bits" and
    of each Pauli, and the choices of any other kind.
    """
    if kind == "matrix":
        checked = _bit_rows(obj, key, nullable and spec is None)
        return None if checked is None else _matrix_value(key, checked, spec)
    if kind == "bits":
        bits = _field(obj, key, kind)
        if len(bits) != spec:
            raise MalformedInput(f"field {key!r} must have {spec} entries, has {len(bits)}", section=key)
        return np.array(bits, dtype=np.uint8)
    if kind == "pauli":
        return _pauli_from_json(_field(obj, key, "object", nullable), key, spec)
    if kind == "paulis":
        items = _field(obj, key, "list")
        return tuple(_pauli_from_json(d, f"{key}[{j}]", spec) for j, d in enumerate(items))
    return _field(obj, key, kind, nullable, spec)


def _matrix_value(key: str, checked: tuple[list, list], width: Optional[int]) -> F2Matrix:
    """The "matrix" field ``key``, as ``_bit_rows`` read it, as a matrix; ``width`` is its
    required number of columns, or None for any (an empty matrix then has no columns)."""
    rows, entries = checked
    cols = len(rows[0]) if rows else (width or 0)
    if width is not None and cols != width:
        raise MalformedInput(f"field {key!r} must have {width} columns, has {cols}", section=key)
    if not rows:
        return F2Matrix.zeros(0, cols)
    return F2Matrix._wrap(np.frombuffer(bytes(entries), dtype=np.uint8).reshape(len(rows), cols))


def _pauli_from_json(d, where: str, n: int) -> Optional[PauliOperator]:
    """A Pauli {x, z, sign} on ``n`` qubits or None; errors name ``where`` before the field."""
    if d is None:
        return None
    with _Within(where):
        if not isinstance(d, dict):
            raise MalformedInput("a Pauli must be an object with 'x', 'z' and 'sign'")
        sign = _field(d, "sign", "int", choices=(1, -1)) if "sign" in d else 1
        x = _read(d, "x", "bits", spec=n)
        return PauliOperator._wrap(x, _read(d, "z", "bits", spec=n), sign)


class _Within:
    """Prefix the section of a MalformedInput raised inside with ``where``."""

    __slots__ = ("where",)

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback) -> bool:
        if isinstance(exc, MalformedInput):
            exc.section = self.where if exc.section is None else f"{self.where}.{exc.section}"
        return False


def _init_from_json(ctx: dict, state: str, n: Optional[int], hx, hz) -> tuple[PlanStep]:
    """The init step; its ancilla checks must be the base code's trailing diagonal block."""
    base = ctx["base"]
    for name, block, checks in (("ancilla_hx", hx, base.hx), ("ancilla_hz", hz, base.hz)):
        if n is None and block is not None:
            raise MalformedInput(f"field {name!r} must be null when 'ancilla_n' is", section=name)
        if n is not None and not _is_trailing_block(checks, block):
            raise MalformedInput(
                f"field {name!r} is not the trailing diagonal block of the base code", section=name
            )
    return (InitAncilla(ctx["ancilla_index"], state, hx, hz),)


def _is_trailing_block(checks: F2Matrix, block: F2Matrix) -> bool:
    """Whether ``checks`` is block diagonal with ``block`` as its last block."""
    rows, cols = checks.rows - block.rows, checks.cols - block.cols
    a = checks.a
    return (
        rows >= 0
        and cols >= 0
        and np.array_equal(a[rows:, cols:], block.a)
        and not a[:rows, cols:].any()
        and not a[rows:, :cols].any()
    )


def _merge_from_json(ctx: dict, orientation: str, v2, v1, v0, inserts) -> tuple[PlanStep, ...]:
    """The merge and its split; a declared branch gauge must commute with the checks of its
    type and anticommute with its own slot's measured operator alone."""
    base = ctx["base"]
    spaces = (Subspace.from_matrix_rows(v) for v in (v2, v1, v0))
    sub = validate_subcode(base.complex, *spaces, orientation)
    steps = _merge_and_split(base, sub, ctx["ancilla_index"], inserts, ctx["steps"])
    if inserts and inserts[0] is not None:  # _merge_and_split refuses null and set entries mixed
        _check_inserts(base.hz if orientation == "Z" else base.hx, sub.v1.basis, inserts, orientation, steps[0])
    return steps


def _check_inserts(checks: F2Matrix, v1: F2Matrix, inserts, orientation: str, merge: MergeStep) -> None:
    """Refuse the first insert j, in order, that anticommutes with a check or whose flips on the
    slots are not e_j. One product gives every insert's syndrome on the checks, then its flips."""
    sides = np.array([ins.x if orientation == "Z" else ins.z for ins in inserts])
    flips = _mul(np.concatenate([checks.a, v1.a]), sides.T)  # column j: insert j
    syndromes, slots = flips[: checks.rows], flips[checks.rows :]  # slots: one row per insert
    for j in range(len(inserts)):
        if syndromes[:, j].any():
            raise MalformedInput(
                f"branch insert {j} leaves the codespace: it anticommutes with a {orientation} check",
                section="branch_inserts",
            )
        if not slots[j, j] or np.count_nonzero(slots[:, j]) != 1:
            raise MalformedInput(
                f"branch insert {j} does not flip exactly its own slot {merge.measurement_ids[j]}",
                section="branch_inserts",
            )


def _measure_from_json(ctx: dict, pauli: PauliOperator, basis: str, measurement_id: str):
    """The logical measurement; its Pauli must be the ancilla's logical of type ``basis``.

    That is the Pauli ``plan_encoders`` reads ``basis`` for: of that type
    only, with sign +1, and differing from the ancilla's representative
    by a stabilizer (its class coordinates are the unit vector at the
    ancilla).
    """
    base, anc = ctx["base"], ctx["ancilla_index"]
    side, other, logicals = (
        (pauli.z, pauli.x, base.z_logicals) if basis == "Z" else (pauli.x, pauli.z, base.x_logicals)
    )
    if other.any() or pauli.sign != 1 or not logicals.is_trivial_class(side ^ logicals.representatives[anc]):
        raise MalformedInput(
            f"field 'pauli' must be the {basis} logical of the ancilla {anc} with sign +1",
            section="pauli",
        )
    return (MeasureLogical(pauli, basis, measurement_id),)


# Spec of a derived field: plan_from_json checks it equals the rebuilt step's.
_REBUILT = object()

# Every plan step kind, once: step class -> (JSON kind, fields, builder).
# A field is (name, kind, nullable, spec) as _read takes them,
# and is the step attribute of that name. A str spec names an entry of
# the loading context or an earlier field of the step. The builder takes
# the context and the values of the fields that are not derived, in
# order, and returns the steps it rebuilds: a merge rebuilds its split.
_STEP_TABLE = {
    InitAncilla: ("init_ancilla", (
        ("state", "str", False, ("plus", "zero")),
        ("logical_index", "int", False, _REBUILT),
        ("ancilla_n", "int", True, "qubits"),
        ("ancilla_hx", "matrix", True, "ancilla_n"),
        ("ancilla_hz", "matrix", True, "ancilla_n"),
    ), _init_from_json),
    MergeStep: ("merge", (
        ("orientation", "str", False, ("Z", "X")),
        ("v2", "matrix", False, "dim2"),
        ("v1", "matrix", False, "dim1"),
        ("v0", "matrix", False, "dim0"),
        ("branch_inserts", "paulis", False, "n"),
        ("measurement_ids", "strs", False, _REBUILT),
        ("pivot_qubits", "ints", False, _REBUILT),
        ("p1", "matrix", False, _REBUILT),
        ("logical_matrix", "matrix", False, _REBUILT),
    ), _merge_from_json),
    SplitStep: ("split", (
        ("orientation", "str", False, _REBUILT),
        ("logical_matrix", "matrix", False, _REBUILT),
    ), lambda ctx: ()),
    # the fields of these two in their dataclass order, so the values build them
    MeasureLogical: ("measure_logical", (
        ("pauli", "pauli", False, "n"),
        ("basis", "str", False, ("Z", "X")),
        ("measurement_id", "str", False, None),
    ), _measure_from_json),
    ApplyCorrection: ("apply_correction", (
        ("pauli", "pauli", False, "n"),
        ("condition", "str", False, "measured"),  # a measurement made before it
    ), lambda ctx, *values: (ApplyCorrection(*values),)),
}
_STEP_KINDS = {kind: (fields, build) for kind, fields, build in _STEP_TABLE.values()}


def _json_value(kind: str, value):
    """A field value as plan_to_json writes it."""
    if value is None:
        return None
    if kind == "matrix":
        return value.a
    if kind == "pauli":
        return {"x": value.x, "z": value.z, "sign": value.sign}
    if kind == "paulis":
        return [_json_value("pauli", p) for p in value]
    return list(value) if kind in ("ints", "strs") else value


def plan_to_json(plan: SurgeryPlan) -> str:
    steps = []
    for step in plan.steps:
        kind, fields, _ = _STEP_TABLE[type(step)]
        entry = {name: _json_value(form, getattr(step, name)) for name, form, _, _ in fields}
        steps.append({"kind": kind, **entry})
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
        "correction_rules": {k: _json_value("pauli", v) for k, v in plan.correction_rules.items()},
        "class_correction": _json_value("pauli", plan.class_correction),
        "steps": steps,
    }
    return jsontext.dumps(doc)


def plan_from_json(text: str) -> SurgeryPlan:
    """Rebuild a plan from its JSON document.

    Each merge and its split are rebuilt from the stored subcode
    generators and branch inserts, so the loaded plan simulates and
    corrects identically to the original. Load-time checks reject a plan
    whose first step is not its one ancilla initialization, a plan with
    two logical measurements, a merge not directly followed by its
    split, ``branch_inserts`` not matching ``measurement_ids`` one to
    one or mixing null and set entries, a merge that identifies logical
    classes of the base code, a derived field (see _STEP_TABLE) other
    than its rebuilt value, ancilla checks that are not the base code's
    trailing diagonal block or that come without ``ancilla_n``, a
    correction conditioned on no earlier measurement, a measurement id
    used twice, ``data_indices`` other than every logical but the
    ancilla in ascending order, a ``target`` equal to ``control``, a
    ``correction_rules`` key that is not the slot of a single-slot merge
    (no other reads a rule), a ``measure_logical`` Pauli that is not the
    ancilla's logical of its ``basis`` type with sign +1 (section
    ``steps[i].pauli``), and a branch insert that anticommutes with a
    base-code check of its merge's type or does not flip exactly its own
    slot, v1 @ w_j = e_j (section ``steps[i].branch_inserts``). A field
    that is missing, of the wrong type or out of range, a Pauli not on the base
    code's qubits included, raises MalformedInput whose section names it
    (``steps[2].v1`` for a field of a step).

    Each piece of work is done once: a matrix field's entries are checked
    and converted in one pass, a Pauli keeps the bit arrays read for it,
    the steps read so far and their measurement ids grow with each step,
    one product checks every branch insert of a merge, and each merge is
    rebuilt as synthesis builds it (``_merge_and_split``), with its
    logical matrix read off its subcode and no space of its quotient.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "chainsurg-plan/1":
        raise DimensionMismatch(f"not a plan document: {schema!r}")
    base_keys = ("base_hx", "base_hz", "base_zl", "base_xl")
    base_rows = [_bit_rows(doc, key) for key in base_keys]
    widths = [len(rows[0]) for rows, _ in base_rows if rows]
    if not widths:
        raise MalformedInput("base code matrices are all empty", section="base_hx")
    n = widths[0]
    hx, hz, zl, xl = (_matrix_value(key, checked, n) for key, checked in zip(base_keys, base_rows))
    base = from_parity_checks(hx, hz, z_basis=zl, x_basis=xl)
    entries = _field(doc, "steps", "list")
    if not entries:
        raise MalformedInput("a plan needs at least one step", section="steps")
    kinds = []
    for i, entry in enumerate(entries):
        with _Within(f"steps[{i}]"):
            if not isinstance(entry, dict):
                raise MalformedInput("a step must be an object")
            kinds.append(_field(entry, "kind", "str"))
    for prev, kind in zip([None] + kinds, kinds + [None]):
        if (prev == "merge") != (kind == "split"):
            raise DimensionMismatch("every merge must be directly followed by its split")
    if kinds[0] != "init_ancilla":
        raise DimensionMismatch("plan does not start with an ancilla initialization")
    if kinds.count("init_ancilla") > 1:
        raise DimensionMismatch("plan initializes its ancilla more than once")
    if kinds.count("measure_logical") > 1:
        raise DimensionMismatch("plan measures a logical more than once")
    logicals = range(base.k)
    cx = base.complex
    ctx = {"base": base, "ancilla_index": _field(doc, "ancilla_index", "int", choices=logicals),
           "n": n, "qubits": range(n + 1), "dim2": cx.dim2, "dim1": cx.dim1, "dim0": cx.dim0,
           "steps": [], "measured": []}  # the steps rebuilt so far and the ids they measure
    steps = _steps_from_json(entries, kinds, ctx)
    ids = ctx["measured"]
    twice = [m for m in ids if ids.count(m) > 1]
    if twice:
        raise MalformedInput(f"measurement id {twice[0]!r} is used by two steps", section="steps")
    # every logical but the ancilla carries data: plan_encoders keeps them all
    data_indices = [i for i in logicals if i != ctx["ancilla_index"]]
    if _field(doc, "data_indices", "ints") != data_indices:
        raise MalformedInput(
            "field 'data_indices' differs from the value rebuilt from the plan", section="data_indices"
        )
    control = _field(doc, "control", "int", choices=data_indices)
    target = _field(doc, "target", "int", nullable=True, choices=data_indices)
    if target == control:
        raise MalformedInput("field 'target' must differ from 'control'", section="target")
    rules = _field(doc, "correction_rules", "object")
    # merge measurement id -> its merge's slot count
    slots = {m: len(s.measurement_ids) for s in steps if isinstance(s, MergeStep) for m in s.measurement_ids}
    with _Within("correction_rules"):
        for key in rules:
            if key not in slots:
                raise MalformedInput(f"key {key!r} is not a merge measurement id", section=key)
            if slots[key] > 1:
                raise MalformedInput(f"key {key!r} is one of {slots[key]} merge slots, which read no rule", section=key)
        correction_rules = {k: _read(rules, k, "pauli", spec=n) for k in rules}
    return SurgeryPlan(
        name=_field(doc, "name", "str"),
        steps=tuple(steps),
        base_code=base,
        control=control,
        target=target,
        locality=_field(doc, "locality", "bool"),
        correction_rules=correction_rules,
        class_correction=_read(doc, "class_correction", "pauli", True, n)
        if "class_correction" in doc
        else None,
    )


def _steps_from_json(entries: list, kinds: list, ctx: dict) -> list[PlanStep]:
    """The steps the entries of ``kinds`` rebuild, each derived field checked against its
    rebuilt value; ``ctx["steps"]`` and ``ctx["measured"]`` grow with every step."""
    steps, measured = ctx["steps"], ctx["measured"]
    for i, (entry, kind) in enumerate(zip(entries, kinds)):
        with _Within(f"steps[{i}]"):
            if kind not in _STEP_KINDS:
                raise DimensionMismatch(f"unknown plan step kind {kind!r}")
            fields, build = _STEP_KINDS[kind]
            values, stored = {}, []
            for name, form, nullable, spec in fields:
                if spec is _REBUILT:  # checked for its type now, and against the rebuilt step as read
                    values[name] = _bit_rows(entry, name)[0] if form == "matrix" else _field(entry, name, form)
                    continue
                if isinstance(spec, str):
                    spec = values[spec] if spec in values else ctx[spec]  # a field read before or a context entry
                values[name] = value = _read(entry, name, form, nullable, spec)
                stored.append(value)
            built = build(ctx, *stored)
            steps.extend(built)  # a split is built with its merge, so steps[i] is this entry's
            for name, form, _, spec in fields:
                if spec is _REBUILT and not _same_value(form, values[name], getattr(steps[i], name)):
                    raise MalformedInput(
                        f"field {name!r} differs from the value rebuilt from the plan", section=name
                    )
            measured.extend(m for step in built for m in step.measurement_ids)
    return steps


def _same_value(kind: str, read, rebuilt) -> bool:
    """Whether a derived field as read is the rebuilt value, as plan_to_json would write it.

    A matrix is compared as its list of rows, with no conversion of the
    field: a matrix of no rows is written as [], whatever its width.
    """
    if kind == "matrix":
        return read == rebuilt.a.tolist()
    return read == (list(rebuilt) if kind in ("ints", "strs") else rebuilt)
