"""Hilbert-space verification of preserving code maps.

Physical operations are parity maps, Hadamard-conjugated parity maps,
post-selected stabilizer projections, and Pauli gates; channels are
extracted by conjugating an operation list with encoders. Everything is
exact linear algebra on dense state vectors (n <= 20 qubits).

Encoders are coset tables (``csscode.Encoder``): an input column is built
as one 2^n state when it is simulated. The one dense 2^n x 2^k array is
E_out^dagger, because the BLAS product of it with each simulated state
fixes the channel's pinned floating-point bits.

Each op kind is a class that applies itself in O(2^n): a parity map
scatters amplitude x to A x, a Hadamard-conjugated parity map gathers
out[y] = 2^{(in-out)/2} * amps[A^T y] (no Walsh-Hadamard transform is
taken), and a Pauli gate permutes by its X part and signs by its Z
parity; a projection adds its Pauli's action to the state and halves.
Every op maps CSS states to CSS states by a fixed XOR-linear index map,
so its table depends on the op alone and not on the state: each op
builds its int32 table the first time it is applied and keeps it, so a
channel builds it once for all input columns, and ops a plan step holds
keep theirs as long as the plan.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .chaincomplex import ChainMap
from .csscode import (
    Encoder,
    PauliOperator,
    SIMULATOR_QUBIT_LIMIT,
    bits_to_index,
    from_parity_checks,
    linear_indices,
    quotient_basis_units,
)
from .errors import DimensionMismatch, ZeroProbabilityOutcome
from .f2linalg import F2Matrix, image_basis

PHASE_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Dense amplitudes over n qubits; qubit 0 is the most significant bit."""

    n: int
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.n > SIMULATOR_QUBIT_LIMIT:
            raise DimensionMismatch(
                f"{self.n} qubits exceeds the simulator limit {SIMULATOR_QUBIT_LIMIT}"
            )
        if self.amplitudes.shape != (1 << self.n,):
            raise DimensionMismatch("amplitude array has the wrong length")
        if self.normalized:
            norm = np.linalg.norm(self.amplitudes)
            if abs(norm - 1.0) > 1e-12:
                raise DimensionMismatch(f"state marked normalized but |psi| = {norm}")

    @classmethod
    def basis_state(cls, n: int, index: int = 0) -> "StateVector":
        a = np.zeros(1 << n, dtype=np.complex128)
        a[index] = 1.0
        return cls(n=n, amplitudes=a, normalized=True)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        a = np.asarray(amps, dtype=np.complex128)
        n = int(np.log2(len(a)))
        if (1 << n) != len(a):
            raise DimensionMismatch("amplitude count is not a power of two")
        return cls(n=n, amplitudes=a)


# --- physical operations -----------------------------------------------------


class PhysicalOp:
    """An op on dense amplitudes: ``apply`` maps 2^n_in of them to 2^n_out.

    Each kind builds its ``table`` (int32 indices, and a Pauli's int8 Z
    signs) the first time it is applied and keeps it for every later
    state. Indexing casts the int32 table in buffered chunks (``np.take``
    would copy it to int64 first), and each application allocates one
    output array and works in it.
    """

    def apply(self, amps: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _parity_indices(a: F2Matrix) -> np.ndarray:
    """Output basis index A @ x for every input index x, as int32 (n <= 20)."""
    return linear_indices([bits_to_index(a.a[:, j]) for j in range(a.cols)], np.int32)


@dataclass(frozen=True)
class _BinaryMap(PhysicalOp):
    """An op read off a binary matrix from n_in = cols to n_out = rows qubits."""

    matrix: F2Matrix

    n_in = property(lambda self: self.matrix.cols)
    n_out = property(lambda self: self.matrix.rows)


@dataclass(frozen=True)
class ParityMap(_BinaryMap):
    """|x> -> |A x> ... the basis-state parity map of a binary matrix."""

    @cached_property
    def table(self) -> np.ndarray:
        """The scatter table A x."""
        return _parity_indices(self.matrix)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << self.n_out, dtype=np.complex128)
        np.add.at(out, self.table, amps)
        return out


@dataclass(frozen=True)
class HadamardConjugatedParityMap(_BinaryMap):
    """H^out . ParityMap(matrix) . H^in; equivalently the transpose-fiber map.

    On basis states: |x> -> 2^{(in-out)/2} * sum_{y : matrix^T y = x} |y>.
    So on amplitudes it is the gather out[y] = 2^{(in-out)/2} * amps[matrix^T y],
    one table lookup per output index: O(2^out) work, where the literal
    transform-scatter-transform reading costs O((in + out) 2^max(in, out)).
    """

    @cached_property
    def table(self) -> np.ndarray:
        """The gather table A^T y."""
        return _parity_indices(self.matrix.T)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        out = amps[self.table]
        out *= np.sqrt(2.0 ** (self.n_in - self.n_out))
        return out


@dataclass(frozen=True)
class _PauliAction(PhysicalOp):
    """The action of a Pauli P, from one gather and one Z-sign table.

    ``apply`` multiplies the same pairs of floats, in the same order, as
    sign * (-1)^{z.x} * amps[y ^ mask]: a product with (s + 0j) is exact
    in value but not in the sign of a zero, so the Z signs, the Pauli's
    sign and a projection's outcome stay three products. Gathering first
    and multiplying by the gathered signs pairs the same operands as
    multiplying first and gathering.
    """

    pauli: PauliOperator

    n_in = n_out = property(lambda self: self.pauli.n)

    @cached_property
    def table(self) -> tuple[Optional[np.ndarray], np.ndarray]:
        """(gather, signs): the X part's gather table y ^ mask, None when it
        has none, and the Z signs (-1)^{z.x} as int8 in gathered order."""
        p = self.pauli
        signs = 1 - 2 * linear_indices(p.z, np.int8)
        xmask = bits_to_index(p.x)
        if not xmask:
            return None, signs
        gather = np.arange(1 << p.n, dtype=np.int32) ^ xmask
        return gather, signs[gather]

    def apply(self, amps: np.ndarray) -> np.ndarray:
        gather, signs = self.table
        if gather is None:
            out = amps * signs
        else:
            out = amps[gather]
            out *= signs
        out *= self.pauli.sign
        return out


@dataclass(frozen=True)
class PauliGate(_PauliAction):
    """The Pauli P applied as a gate."""


@dataclass(frozen=True)
class Projection(_PauliAction):
    """Post-selected projection (I + outcome * S)/2 for a stabilizer Pauli S."""

    outcome: int = 1

    def apply(self, amps: np.ndarray) -> np.ndarray:
        out = super().apply(amps)
        out *= self.outcome
        np.add(amps, out, out=out)
        out /= 2.0
        return out


def apply_linear(op: PhysicalOp, amps: np.ndarray) -> np.ndarray:
    """Raw linear action of an op; no renormalization."""
    return op.apply(amps)


def apply(op: PhysicalOp, state: StateVector) -> tuple[StateVector, float]:
    """Apply one op; projections renormalize and report the branch amplitude."""
    if state.n != op.n_in:
        raise DimensionMismatch(f"op expects {op.n_in} qubits, state has {state.n}")
    out = apply_linear(op, state.amplitudes)
    if isinstance(op, Projection):
        before = np.linalg.norm(state.amplitudes)
        after = np.linalg.norm(out)
        if after <= 1e-300:
            raise ZeroProbabilityOutcome("post-selected branch has zero amplitude")
        amp = float(after / before) if before else 0.0
        return StateVector(n=op.n_out, amplitudes=out / after), amp
    return StateVector(n=op.n_out, amplitudes=out), float(np.linalg.norm(out))


def apply_sequence_linear(ops: Sequence[PhysicalOp], amps: np.ndarray) -> np.ndarray:
    for op in ops:
        amps = apply_linear(op, amps)
    return amps


# --- interpretation of preserving code maps ----------------------------------


def physical_op_sequence(f: ChainMap, orientation: str = "Z") -> list[PhysicalOp]:
    """Interpretation of a preserving code map on the physical Hilbert space.

    Z orientation: f is a chain map between code complexes; the op is the
    Hadamard-conjugated parity map of f1 followed by post-selected
    projections onto the target Z-stabilizers d2 @ w for a complement
    basis {w} of im(f2). X orientation: f is the corresponding chain map
    of transposed complexes; the op is the plain parity map of f1
    followed by X-stabilizer projections (same formula in the transposed
    frame). Surjective f2 means no projections are emitted.
    """
    if orientation not in ("Z", "X"):
        raise DimensionMismatch("orientation must be 'Z' or 'X'")
    ops: list[PhysicalOp] = []
    if orientation == "Z":
        ops.append(HadamardConjugatedParityMap(f.f1))
    else:
        ops.append(ParityMap(f.f1))
    stabilizers = f.tgt.d2 @ quotient_basis_units(f.tgt.dim2, image_basis(f.f2))
    for j in range(stabilizers.cols):
        vec = stabilizers.col(j)
        if orientation == "Z":
            ops.append(Projection(PauliOperator.from_z(vec), outcome=1))
        else:
            ops.append(Projection(PauliOperator.from_x(vec), outcome=1))
    return ops


# --- logical channel extraction ----------------------------------------------


def extract_logical_channel(ops: Sequence[PhysicalOp], e_in: Encoder, e_out: Encoder) -> np.ndarray:
    """E_out^dagger . (composed ops) . E_in, column by column.

    ``e_in`` gives one 2^n column at a time, and ``e_out`` gives
    E_out^dagger from its coset table: that is the only dense 2^n x 2^k
    array, formed once for all columns. Each op builds its table on the
    first column and applies it to every later one.
    Projections are applied linearly so relative column norms are
    meaningful; the result is normalized so its largest-magnitude entry
    is exactly 1 (real positive). Raises ZeroProbabilityOutcome if
    everything post-selects to zero.
    """
    # E_out^dagger in the bytes and layout of e_out.matrix.conj().T, so BLAS
    # rounds each column as the per-column conj(e_out).T @ amps; conjugating
    # the state instead, conj(e_out.T @ conj(amps)), flips the sign of some
    # zero imaginary parts in reports.
    e_out_h = e_out.adjoint()
    mat = np.zeros((e_out_h.shape[0], 1 << e_in.k), dtype=np.complex128)
    for u in range(1 << e_in.k):
        mat[:, u] = e_out_h @ apply_sequence_linear(ops, e_in.column(u))
    return fix_phase_and_scale(mat)


def fix_phase_and_scale(mat: np.ndarray) -> np.ndarray:
    flat = np.abs(mat).ravel()
    idx = int(np.argmax(flat))
    if flat[idx] <= 1e-300:
        raise ZeroProbabilityOutcome("extracted channel is identically zero")
    return mat / mat.ravel()[idx]


def pauli_expectation(p: PauliOperator, state: StateVector) -> complex:
    nrm2 = np.vdot(state.amplitudes, state.amplitudes)
    if abs(nrm2) < 1e-300:
        raise ZeroProbabilityOutcome("zero state has no expectation values")
    return complex(np.vdot(state.amplitudes, apply_linear(PauliGate(p), state.amplitudes)) / nrm2)


# --- the two-qubit counterexample ---------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of the projection-necessity check on the two-qubit codes."""

    z1_expectation_without: float
    stabilizer_expectations_with: tuple[float, ...]
    violates_without: bool
    preserved_with: bool


def counterexample_check() -> CounterexampleReport:
    """Drop the complement projections and watch a stabilizer fail.

    Source code: one Z-check Z1Z2 and one X-check X1X2 (the Bell pair).
    Target code: Z-checks Z1 and Z2. The chain map has f1 = identity and
    a non-surjective f2, so the honest interpretation carries a
    projection; omitting it leaves the Bell state, which is not fixed by
    Z1.
    """
    src = from_parity_checks(hx=F2Matrix([[1, 1]]), hz=F2Matrix([[1, 1]]))
    tgt = from_parity_checks(hx=F2Matrix.zeros(0, 2), hz=F2Matrix.identity(2))
    from .chaincomplex import validate_chain_map

    f = validate_chain_map(
        src.complex,
        tgt.complex,
        f2=F2Matrix([[1], [1]]),
        f1=F2Matrix.identity(2),
        f0=F2Matrix.zeros(0, 1),
    )
    bell = StateVector.from_amplitudes(
        np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    )
    ops = physical_op_sequence(f, "Z")
    middle_only = [op for op in ops if not isinstance(op, Projection)]

    out_without = StateVector.from_amplitudes(
        apply_sequence_linear(middle_only, bell.amplitudes)
    )
    z1 = PauliOperator.from_z([1, 0])
    z2 = PauliOperator.from_z([0, 1])
    z1_exp = float(np.real(pauli_expectation(z1, out_without)))

    out_with = StateVector.from_amplitudes(apply_sequence_linear(ops, bell.amplitudes))
    exps = tuple(
        float(np.real(pauli_expectation(p, out_with))) for p in (z1, z2)
    )
    return CounterexampleReport(
        z1_expectation_without=z1_exp,
        stabilizer_expectations_with=exps,
        violates_without=abs(z1_exp - 1.0) > 1e-6,
        preserved_with=all(abs(e - 1.0) < 1e-12 for e in exps),
    )
