"""Hilbert-space verification of preserving code maps.

Physical operations are parity maps, Hadamard-conjugated parity maps,
post-selected stabilizer projections, and Pauli gates; channels are
extracted by conjugating an operation list with encoders. Everything is
exact floating-point arithmetic, with the bytes of dense state vectors
(n <= 20 qubits).

Every op maps CSS states to CSS states, and a CSS state lives on an
affine support (Dehaene & De Moor, PRA 68, 042318, 2003): a small share
of the 2^n indices. So each op kind has one rule, ``apply_support``, on
``Supports``: sorted (column, basis index) keys with their amplitudes.
A parity map moves key x to A x and sums collisions in ascending x, a
Hadamard-conjugated parity map moves x to its preimages y0(x) + ker A^T,
and a Pauli gate or projection pairs key x with x ^ mask and multiplies
by factor * (-1)^{z.x}, where factor is the Pauli's sign times a
projection's outcome. Entries off the supports are 0, and entries that
become 0 leave them. That is the arithmetic the op does on dense
amplitudes, in the same order, on the same operands, so every nonzero
amplitude has its bytes; no op keeps the sign of a zero, which changes
no IEEE value and no output byte.

Channel extraction holds the states of all input columns as one
``Supports``, seeded from the ``csscode.Encoder`` cosets, and
``apply_linear`` holds a dense array's nonzero entries as one column and
scatters the result back. Each op builds its support map (byte tables
of its index map) once and keeps it, so ops a plan step holds keep
theirs as long as the plan. A merge or a split reads its ops, and the
preimages y0(x) and ker A^T, off the merge's sections
(``merge_op_sequence``, ``split_op_sequence``); ``physical_op_sequence``
and an op built from a bare matrix find them by elimination. A split's
projections are their own list (``split_projections``), so reading
which of them a Pauli anticommutes with builds no op.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .chaincomplex import ChainMap
from .csscode import (
    Encoder,
    PauliOperator,
    SIMULATOR_QUBIT_LIMIT,
    from_parity_checks,
    linear_indices,
    row_indices,
)
from .errors import DimensionMismatch, ZeroProbabilityOutcome
from .f2linalg import Elimination, F2Matrix, free_column_vectors, free_columns, image_basis
from .surgery import MergeResult

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
    def from_amplitudes(cls, amps) -> "StateVector":
        a = np.asarray(amps, dtype=np.complex128)
        n = int(np.log2(len(a)))
        if (1 << n) != len(a):
            raise DimensionMismatch("amplitude count is not a power of two")
        return cls(n=n, amplitudes=a)


# --- physical operations -----------------------------------------------------


class PhysicalOp:
    """An op from n_in to n_out qubits, with one rule: ``apply_support``.

    It maps the ``Supports`` of any number of columns, entry by entry,
    from its ``support_map`` (byte tables of an XOR-linear index map, or
    a Pauli's masks), which it builds on first use and keeps; nothing of
    size 2^n is built. ``apply_linear`` reads a dense array through it.
    """

    def apply_support(self, states: "Supports") -> "Supports":
        raise NotImplementedError


def _byte_tables(columns: Sequence[int]) -> tuple[tuple[int, np.ndarray], ...]:
    """The map x -> XOR of columns[j] over the set bits x_j (x_0 the top bit), by
    bytes of x: (shift, table) pairs whose lookups of (x >> shift) XOR to its value.
    Each byte's table is ``linear_indices`` of its (at most 8) columns."""
    n = len(columns)
    return tuple(
        (max(n - start - 8, 0), linear_indices(columns[start : start + 8])) for start in range(0, n, 8)
    )


def _preimages(a: F2Matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solving A^T y = x, from one ``f2linalg.Elimination`` of A^T.

    With T its row transform, A^T y = x holds exactly when its RREF times
    y is T x. So r(x), the rows of T x below the rank, is 0 exactly when
    x is in the image, and y0(x), the rows above it scattered to the
    pivots, solves it then. Returns (y0, r, kernel): y0 and r as 0/1
    arrays whose row j is their value at the j-th unit vector, and a
    basis of ker A^T as 0/1 rows.
    """
    res = Elimination(a.T).result
    t, pivots = res.transform.a, list(res.pivots)
    y0 = np.zeros((a.cols, a.rows), dtype=np.uint8)
    y0[:, pivots] = t[: res.rank].T
    return y0, t[res.rank :].T, free_column_vectors(res.reduced.a, pivots, free_columns(pivots, a.rows))


def _lookup(tables, x: np.ndarray) -> np.ndarray:
    """The map that ``_byte_tables`` built, at every index of ``x``."""
    out = np.zeros_like(x)
    for shift, table in tables:
        out ^= table[(x >> shift) & (len(table) - 1)]
    return out


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
    def support_map(self) -> tuple:
        """A x, as byte tables."""
        return _byte_tables(row_indices(self.matrix.a.T))

    def apply_support(self, states: "Supports") -> "Supports":
        """Each key moves to A x; colliding keys sum in ascending x from +0+0j, as
        ``np.add.at`` sums them, and sums that are 0 leave the support."""
        x = states.keys & ((1 << self.n_in) - 1)
        moved = (states.keys >> self.n_in << self.n_out) | _lookup(self.support_map, x)
        keys, slots = np.unique(moved, return_inverse=True)
        out = np.zeros(len(keys), dtype=np.complex128)
        np.add.at(out, slots, states.values)
        return Supports(self.n_out, keys, out).pruned()


@dataclass(frozen=True)
class HadamardConjugatedParityMap(_BinaryMap):
    """H^out . ParityMap(matrix) . H^in; equivalently the transpose-fiber map.

    On basis states: |x> -> 2^{(in-out)/2} * sum_{y : matrix^T y = x} |y>,
    so its support rule moves each key x to every solution y, where the
    literal transform-scatter-transform reading costs O((in + out) 2^max(in, out)).

    ``preimages``, when its builder already knows how to solve A^T y = x,
    holds (y0, r, kernel) as ``_preimages`` returns them, so the support
    rule needs no elimination. It is not part of the op's value.
    """

    preimages: Optional[tuple] = field(default=None, compare=False, repr=False)

    @cached_property
    def scale(self) -> float:
        """2^{(in-out)/2}, the one factor each moved amplitude is multiplied by."""
        return np.sqrt(2.0 ** (self.n_in - self.n_out))

    @cached_property
    def support_map(self) -> tuple:
        """(tables, kernel): byte tables of x -> (r(x) << n_out) | y0(x), where
        r(x) = 0 exactly when A^T y = x is solvable and y0(x) then solves it,
        and every basis index in ker A^T: from ``preimages``, else from one
        ``f2linalg.Elimination``."""
        y0, residue, kernel = _preimages(self.matrix) if self.preimages is None else self.preimages
        # y0 has n_out columns, so row x of [residue | y0] reads (r(x) << n_out) | y0(x)
        columns = row_indices(np.hstack([residue, y0]))
        return _byte_tables(columns), linear_indices(row_indices(kernel))

    def apply_support(self, states: "Supports") -> "Supports":
        """Each key x with A^T y = x solvable moves to every y in y0(x) + ker A^T."""
        tables, kernel = self.support_map
        solved = _lookup(tables, states.keys & ((1 << self.n_in) - 1))
        hit = solved < (1 << self.n_out)
        base = (states.keys[hit] >> self.n_in << self.n_out) | solved[hit]
        keys = (base[:, None] ^ kernel).ravel()
        out = np.repeat(states.values[hit], len(kernel))
        out *= self.scale
        return states.moved(self, keys, out)


@dataclass(frozen=True)
class _PauliAction(PhysicalOp):
    """The action of a Pauli P: key x pairs with x ^ X mask, and one signed product.

    The sign is factor * (-1)^{z.x} as int8, where factor is the Pauli's
    sign (times the outcome, for a projection), read by popcount at the
    keys. A product with (s + 0j) is exact in value, so every nonzero
    amplitude has the bytes of the dense product; only the sign of a
    zero may differ.
    """

    pauli: PauliOperator

    n_in = n_out = property(lambda self: self.pauli.n)
    factor = property(lambda self: self.pauli.sign)

    def _signs(self, x: np.ndarray, zmask: int) -> np.ndarray:
        """factor * (-1)^{popcount(x & zmask)} at each index of ``x``, as int8."""
        odd = (np.bitwise_count(x & zmask) & 1).astype(np.int8)
        return self.factor * (1 - 2 * odd)

    @cached_property
    def support_map(self) -> tuple[int, int]:
        """(X mask, Z mask) as basis indices."""
        return tuple(row_indices(np.stack([self.pauli.x, self.pauli.z])))


@dataclass(frozen=True)
class PauliGate(_PauliAction):
    """The Pauli P applied as a gate."""

    def apply_support(self, states: "Supports") -> "Supports":
        """Each key x moves to x ^ mask, signed at x."""
        xmask, zmask = self.support_map
        out = states.values * self._signs(states.keys, zmask)
        return states.moved(self, states.keys ^ xmask, out)


@dataclass(frozen=True)
class Projection(_PauliAction):
    """Post-selected projection (I + outcome * S)/2 for a stabilizer Pauli S."""

    outcome: int = 1

    factor = property(lambda self: self.pauli.sign * self.outcome)

    def apply_support(self, states: "Supports") -> "Supports":
        """Each key pairs with its partner key ^ mask; the support grows by the
        partners, a partner off it reads 0, and sums that are 0 leave it."""
        xmask, zmask = self.support_map
        keys, own = states.keys, states.values
        if xmask:
            keys = np.union1d(keys, keys ^ xmask)
            own = states.read(keys)
        partners = keys ^ xmask
        out = (states.read(partners) if xmask else own) * self._signs(partners, zmask)
        np.add(own, out, out=out)
        out /= 2.0
        return Supports(self.n_out, keys, out).pruned()


# --- the states of a channel's columns, on their supports ----------------------


class Supports:
    """The states of all input columns of one channel, held on their supports.

    ``keys`` are sorted int64 (column << n) | basis index, and ``values``
    the complex128 amplitude there; every other amplitude is 0. A CSS
    state lives on an affine support (Dehaene & De Moor, PRA 68, 042318,
    2003), a small share of the 2^n indices at the sizes simulated here.
    (It is a plain class: a dataclass costs about 0.4 ms at import.)
    """

    __slots__ = ("n", "keys", "values")

    def __init__(self, n: int, keys: np.ndarray, values: np.ndarray):
        self.n, self.keys, self.values = n, keys, values

    @classmethod
    def from_encoder(cls, e: Encoder) -> "Supports":
        """Every input column of ``e``, seeded from its cosets; no dense column is built."""
        return cls(e.code.n, *e.supports())

    def moved(self, op: PhysicalOp, keys: np.ndarray, values: np.ndarray) -> "Supports":
        """The distinct ``keys`` and their ``values`` after ``op``, sorted."""
        order = np.argsort(keys)
        return Supports(op.n_out, keys[order], values[order])

    def pruned(self) -> "Supports":
        """Without the entries whose amplitude is 0."""
        held = self.values != 0
        if held.all():
            return self
        return Supports(self.n, self.keys[held], self.values[held])

    def read(self, keys: np.ndarray) -> np.ndarray:
        """The amplitudes at ``keys``: held ones, else 0."""
        out = np.zeros(len(keys), dtype=np.complex128)
        if len(self.keys):
            at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
            held = self.keys[at] == keys
            out[held] = self.values[at[held]]
        return out

    def held(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(basis indices, amplitudes) that column ``u`` holds; its other amplitudes are 0."""
        lo, hi = np.searchsorted(self.keys, [u << self.n, (u + 1) << self.n])
        return self.keys[lo:hi] & ((1 << self.n) - 1), self.values[lo:hi]


def apply_linear(op: PhysicalOp, amps: np.ndarray | Supports) -> np.ndarray | Supports:
    """Raw linear action of an op on ``Supports`` or on 2^n_in dense amplitudes; no renormalization.

    A dense array's nonzero entries are held as one column of ``Supports``,
    moved by the op's support rule and scattered back into 2^n_out zeros.
    """
    if isinstance(amps, Supports):
        if amps.n != op.n_in:
            raise DimensionMismatch(f"op expects {op.n_in} qubits, states have {amps.n}")
        return op.apply_support(amps)
    amps = np.asarray(amps)
    if amps.shape != (1 << op.n_in,):
        raise DimensionMismatch(f"op expects {1 << op.n_in} amplitudes, array has shape {amps.shape}")
    at = np.flatnonzero(amps)
    states = op.apply_support(Supports(op.n_in, at, amps[at]))
    out = np.zeros(1 << op.n_out, dtype=np.complex128)
    out[states.keys] = states.values
    return out


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

    This is the generic reading of any chain map, by elimination. Plan
    steps do not call it: a merge and its split read the same ops off the
    merge's sections (``merge_op_sequence``, ``split_op_sequence``).
    """
    if orientation not in ("Z", "X"):
        raise DimensionMismatch("orientation must be 'Z' or 'X'")
    z = orientation == "Z"
    first, side = (HadamardConjugatedParityMap, PauliOperator.from_z) if z else (ParityMap, PauliOperator.from_x)
    stabilizers = f.tgt.d2 @ image_basis(f.f2).free_units()
    return [first(f.f1)] + [Projection(side(stabilizers.col(j))) for j in range(stabilizers.cols)]


def merge_op_sequence(m: MergeResult) -> tuple[PhysicalOp, ...]:
    """``physical_op_sequence(m.p, m.orientation)``, read off the merge's sections.

    A quotient map is onto, so a merge has no projection. For a Z-merge,
    p1^T y = x has at most one solution, as ker p1^T = 0, and p1 s1 = I
    for the degree-1 section s1 gives it: y = s1^T x. It exists exactly
    when x lies in im p1^T = V1^perp, that is when V1 x = 0. Nothing is
    eliminated.
    """
    p1 = m.p.f1
    if m.orientation == "X":
        return (ParityMap(p1),)
    v1 = m.subcode.oriented_spaces()[1].basis.a
    return (HadamardConjugatedParityMap(p1, (m.sections[1].a, v1.T, np.zeros((0, p1.rows), dtype=np.uint8))),)


def split_projections(m: MergeResult) -> tuple[PauliOperator, ...]:
    """The stabilizers that the split undoing ``m`` projects onto, in order.

    The split's f2 is p0^T, whose image is V0^perp: the kernel of V0's
    rows, whose canonical basis ``kernel_basis`` gives from an elimination
    of dim V0 rows, and none when V0 = 0. The projections are onto the
    source's boundaries d1 @ w for the unit vectors w off that basis's
    pivots, the rows of d1 there, of the type the merge did not measure.
    """
    v0 = m.subcode.oriented_spaces()[2]
    side = PauliOperator.from_x if m.orientation == "Z" else PauliOperator.from_z
    d1 = m.source.d1.a
    return tuple(side(d1[j]) for j in v0.perp().free)


def split_op_sequence(m: MergeResult, projections: Sequence[PauliOperator]) -> tuple[PhysicalOp, ...]:
    """The ops of the split that undoes ``m``, as ``physical_op_sequence`` reads
    ``split_from_merge(m)`` in the other orientation, read off the merge's sections.

    The split's f1 is p1^T. For a Z-split, after an X-merge, p1 y = x is
    solved by y = s1 x + V1, since p1 s1 = I and ker p1 = V1, for every x.
    Its projections are onto ``projections``, ``split_projections(m)``.
    """
    p1t = m.p.f1.T
    if m.orientation == "Z":
        first = ParityMap(p1t)
    else:
        v1 = m.subcode.oriented_spaces()[1]
        solution = (m.sections[1].a.T, np.zeros((p1t.cols, 0), dtype=np.uint8), v1.basis.a)
        first = HadamardConjugatedParityMap(p1t, solution)
    return (first,) + tuple(Projection(p) for p in projections)


# --- logical channel extraction ----------------------------------------------


def extract_logical_channel(ops: Sequence[PhysicalOp], e_in: Encoder, e_out: Encoder) -> np.ndarray:
    """E_out^dagger . (composed ops) . E_in, column by column.

    Every column of ``e_in`` is seeded on its cosets as one ``Supports``
    and each op is applied once to all of them through its support rule.
    Each column is then handed off as one dense 2^n state to E_out^dagger,
    which ``e_out`` builds from its coset table: the only dense 2^n x 2^k
    array, formed once for all columns, because the BLAS product of it
    with each state fixes the channel's pinned floating-point bits (its
    sums start at +0, so a zero channel entry is +0). One zeroed 2^n
    array holds every column in turn: a column's held entries are written
    before its product and cleared after it. Projections are applied
    linearly so relative column norms are meaningful; the result is
    normalized so its largest-magnitude entry is exactly 1 (real
    positive). Raises ZeroProbabilityOutcome if everything post-selects
    to zero.
    """
    # E_out^dagger in the bytes and layout of e_out.matrix.conj().T, so BLAS
    # rounds each column as the per-column conj(e_out).T @ amps; conjugating
    # the state instead, conj(e_out.T @ conj(amps)), flips the sign of some
    # zero imaginary parts in reports.
    e_out_h = e_out.adjoint()
    mat = np.zeros((e_out_h.shape[0], 1 << e_in.k), dtype=np.complex128)
    states = Supports.from_encoder(e_in)
    for op in ops:
        states = apply_linear(op, states)
    column = np.zeros(1 << states.n, dtype=np.complex128)
    for u in range(mat.shape[1]):
        at, values = states.held(u)
        column[at] = values
        mat[:, u] = e_out_h @ column
        column[at] = 0
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
