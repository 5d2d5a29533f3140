"""CSS codes: chain complex plus chosen logical data.

A code stores its complex (d2 = hz.T, d1 = hx), a Z-logical basis
(degree-1 homology classes) and the dual X-logical basis (degree-1
cohomology classes with pairing x_i . z_j = delta_ij).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .chaincomplex import ChainComplex, HomologyBasis, homology
from .errors import DimensionMismatch, MalformedInput, NonCommutingChecks, SingularMatrix
from .f2linalg import (
    F2Matrix,
    Subspace,
    _reduce_rows,
    as_bit_vector,
    format_matrix,
    packed_rows,
    rref,
    section_matrix,
    split_sections,
)


@dataclass(frozen=True)
class PauliOperator:
    """A Pauli in (x|z) coordinates with a bookkeeping sign.

    The sign plays no role in the code algebra; it only records phases
    picked up while commuting corrections around. Two Paulis are equal
    when their x bits, z bits and signs are.
    """

    x: np.ndarray
    z: np.ndarray
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x", as_bit_vector(self.x))
        object.__setattr__(self, "z", as_bit_vector(self.z, len(self.x)))
        if self.sign not in (1, -1):
            raise DimensionMismatch("sign must be +1 or -1")

    def _key(self) -> tuple:
        return self.x.tobytes(), self.z.tobytes(), self.sign

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def _wrap(cls, x: np.ndarray, z: np.ndarray, sign: int = 1) -> "PauliOperator":
        """The Pauli of two 1-D 0/1 uint8 arrays of one length that the package made, and a
        sign of +1 or -1, without copies: it only marks the arrays read-only."""
        x.setflags(write=False)
        z.setflags(write=False)
        p = object.__new__(cls)
        p.__dict__.update(x=x, z=z, sign=sign)
        return p

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(x=np.zeros(n, dtype=np.uint8), z=np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_x(cls, x, sign: int = 1) -> "PauliOperator":
        x = as_bit_vector(x)
        return cls(x=x, z=np.zeros(len(x), dtype=np.uint8), sign=sign)

    @classmethod
    def from_z(cls, z, sign: int = 1) -> "PauliOperator":
        z = as_bit_vector(z)
        return cls(x=np.zeros(len(z), dtype=np.uint8), z=z, sign=sign)

    @property
    def n(self) -> int:
        return len(self.x)

    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def compose(self, other: "PauliOperator") -> "PauliOperator":
        """Product modulo phase i; signs multiply (bookkeeping only)."""
        if self.n != other.n:
            raise DimensionMismatch("Pauli lengths differ")
        return PauliOperator(x=self.x ^ other.x, z=self.z ^ other.z, sign=self.sign * other.sign)

    def label(self) -> str:
        out = []
        for xi, zi in zip(self.x, self.z):
            out.append("IXZY"[int(xi) + 2 * int(zi)])
        return ("+" if self.sign == 1 else "-") + "".join(out)


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    """0 iff the two Paulis commute."""
    if a.n != b.n:
        raise DimensionMismatch("Pauli lengths differ")
    return int((int(a.x @ b.z) + int(a.z @ b.x)) % 2)


@dataclass(frozen=True)
class CssCode:
    """A CSS code with fixed dual logical bases."""

    complex: ChainComplex
    z_logicals: HomologyBasis
    x_logicals: HomologyBasis
    d: Optional[int] = None

    @property
    def n(self) -> int:
        return self.complex.dim1

    @property
    def k(self) -> int:
        return self.z_logicals.dim

    @property
    def hx(self) -> F2Matrix:
        return self.complex.d1

    @property
    def hz(self) -> F2Matrix:
        return self.complex.d2.T

    def z_logical(self, i: int) -> np.ndarray:
        return self.z_logicals.representatives[i]

    def x_logical(self, i: int) -> np.ndarray:
        return self.x_logicals.representatives[i]

    def z_stabilizer_space(self) -> Subspace:
        return self.complex.boundaries

    def x_stabilizer_space(self) -> Subspace:
        return self.complex.transpose().boundaries

    def params(self) -> str:
        return f"[[{self.n},{self.k},{self.d if self.d is not None else '?'}]]"

    def with_distance(self, d: int) -> "CssCode":
        return replace(self, d=d)

    def to_text(self) -> str:
        text = "hx:\n" + format_matrix(self.hx) + "hz:\n" + format_matrix(self.hz)
        text += "zl:\n" + format_matrix(self.z_logicals.matrix())
        text += "xl:\n" + format_matrix(self.x_logicals.matrix())
        return text

    @classmethod
    def from_text(cls, text: str) -> "CssCode":
        """The code of a section file; a section whose width is not hx's raises
        MalformedInput naming it, with the message ``from_parity_checks`` gives."""
        sections = split_sections(text, ("hx", "hz", "zl", "xl"))
        hx = section_matrix(sections, "hx")
        hz = section_matrix(sections, "hz")
        if hz.cols != hx.cols:
            raise MalformedInput(f"hx has {hx.cols} columns, hz has {hz.cols}", section="hz")
        zl, xl = (section_matrix(sections, name) if name in sections else None for name in ("zl", "xl"))
        for name, rows in (("zl", zl), ("xl", xl)):
            if rows is not None and rows.cols != hx.cols:
                raise MalformedInput(f"expected length {hx.cols}, got {rows.cols}", section=name)
        return from_parity_checks(hx, hz, z_basis=zl, x_basis=xl)


def _basis_from_rows(rows: F2Matrix, cplx: ChainComplex) -> HomologyBasis:
    """The rows as a homology basis of ``cplx``, checked to be independent cycles spanning ker/im.

    The rows are independent modulo the image exactly when their
    reductions modulo it have full rank, so only k rows are eliminated;
    that elimination, with its row transform, is kept as the basis's
    class system.
    """
    kernel, image = cplx.cycles, cplx.boundaries
    reduced = None
    if rows.rows:
        if rows.cols != kernel.ambient_dim:
            raise DimensionMismatch(f"expected length {kernel.ambient_dim}, got {rows.cols}")
        if not kernel.contains_rows(rows):
            raise DimensionMismatch("supplied logical representative is not a cycle")
        reduced = rref(F2Matrix._wrap(_reduce_rows(rows.a, image)))
        if reduced.rank != rows.rows:
            raise DimensionMismatch("supplied logical representatives are dependent mod stabilizers")
    if rows.rows + image.dim != kernel.dim:
        k = kernel.dim - image.dim
        raise DimensionMismatch(f"supplied {rows.rows} logical representatives for {k} logical qubits")
    if reduced is None:  # no rows, whatever their width: the empty basis
        return HomologyBasis(F2Matrix.zeros(0, cplx.dim1), cplx)
    return HomologyBasis(rows, cplx)._seed(reduced)


def from_parity_checks(
    hx: F2Matrix,
    hz: F2Matrix,
    z_basis: F2Matrix | None = None,
    x_basis: F2Matrix | None = None,
) -> CssCode:
    """Build a code from parity checks; logical bases are auto-computed.

    The Z basis defaults to the pivot-complement homology basis and the X
    basis to its unique dual. Supplying ``z_basis`` (and optionally
    ``x_basis``) overrides the choice; duality is always enforced.
    """
    if hx.cols != hz.cols:
        raise DimensionMismatch(f"hx has {hx.cols} columns, hz has {hz.cols}")
    if hx.rows and hz.rows and not (hx @ hz.T).is_zero():
        raise NonCommutingChecks("hx @ hz.T != 0")
    # the two checks above are ``validate``'s, so the complex is built directly
    return from_complex(ChainComplex(d2=hz.T, d1=hx), z_basis, x_basis)


def from_complex(
    cplx: ChainComplex,
    z_basis: F2Matrix | None = None,
    x_basis: F2Matrix | None = None,
) -> CssCode:
    """The code on an already validated complex; bases as in ``from_parity_checks``.

    The code keeps ``cplx`` itself, so its cached cycles and boundaries
    (and those of its transpose) are shared with the caller.

    Two supplied bases certify each other when both are (co)cycles, k of
    them each, with pairing x_i . z_j = delta_ij. A combination of the
    z_j that is a boundary pairs to zero with every cocycle x_i, so its
    coefficients are all zero: the z_j are independent modulo the
    stabilizers, and the x_i likewise. Such a pair is taken with no rank
    elimination, and (co)cycles are told by the products hx @ zl.T and
    hz @ xl.T, so each basis's kernel and image are eliminated only when
    first read: a job on one side never eliminates the other's. Any other
    pair is checked one basis at a time, and the first check that fails
    names the error.
    """
    co = cplx.transpose()
    if z_basis is not None and x_basis is not None and _dual_pair(cplx, z_basis, x_basis):
        return CssCode(cplx, HomologyBasis(z_basis, cplx), HomologyBasis(x_basis, co))
    zb = homology(cplx, 1) if z_basis is None else _basis_from_rows(z_basis, cplx)
    if x_basis is None:
        xb = dual_x_basis(cplx, zb)
    else:
        xb = _basis_from_rows(x_basis, co)
        _check_duality(xb, zb)
    return CssCode(complex=cplx, z_logicals=zb, x_logicals=xb)


def _dual_pair(cplx: ChainComplex, z_basis: F2Matrix, x_basis: F2Matrix) -> bool:
    """Whether both bases are k x n (co)cycles with x_basis @ z_basis.T = I."""
    k = cplx.cycles.dim - cplx.boundaries.dim
    return (
        z_basis.shape == x_basis.shape == (k, cplx.dim1)
        and (cplx.d1 @ z_basis.T).is_zero()
        and (cplx.d2.T @ x_basis.T).is_zero()
        and x_basis @ z_basis.T == F2Matrix.identity(k)
    )


def _check_duality(xb: HomologyBasis, zb: HomologyBasis) -> None:
    """Raise on the first (i, j), in row-major order, with x_i . z_j != delta_ij."""
    pairing = (xb.matrix() @ zb.matrix().T).a
    bad = np.argwhere(pairing != np.eye(zb.dim, dtype=np.uint8))
    if bad.size:
        i, j = (int(t) for t in bad[0])
        raise DimensionMismatch(f"supplied bases are not dual: x_{i} . z_{j} = {int(pairing[i, j])}")


def dual_x_basis(cplx: ChainComplex, z_basis: HomologyBasis) -> HomologyBasis:
    """The unique degree-1 cohomology basis with x_i . z_j = delta_ij, read off ker d1's RREF.

    With K the cached canonical basis of ker d1 and x_i zero at K's free
    columns, x_i . K_r is x_i's entry at K_r's pivot, and it must be
    coordinate i of K_r's class: the x_i are the class coordinates of K's
    rows placed at K's pivots, one product for a seeded basis. They pair
    to zero with every boundary, so they are cocycles. A Z basis that is
    not a basis of ker/im, by its count or by a cycle of K outside its
    span, raises SingularMatrix.
    """
    n, k = cplx.dim1, z_basis.dim
    if k == 0:
        return HomologyBasis(F2Matrix.zeros(0, n), cplx.transpose())
    ker = cplx.cycles
    classes = ker.dim - cplx.boundaries.dim
    try:
        if k != classes:
            raise DimensionMismatch(f"{k} representatives for {classes} classes")
        coordinates = z_basis._coordinates(ker.basis.a)
    except DimensionMismatch as exc:
        raise SingularMatrix(f"dual basis assembly failed: {exc}") from exc
    x = np.zeros((k, n), dtype=np.uint8)
    x[:, list(ker.pivots)] = coordinates.a
    return HomologyBasis(F2Matrix._wrap(x), cplx.transpose())


def dual_z_basis(cplx: ChainComplex, x_basis: HomologyBasis) -> HomologyBasis:
    """Dual construction in the other direction (Z basis from X basis)."""
    return dual_x_basis(cplx.transpose(), x_basis)


def certify_distance(code: CssCode, wmax: int) -> tuple[Optional[int], Optional[int]]:
    """(d_Z, d_X): per side, the least weight of a nontrivial logical.

    d_Z is over v with hx v = 0 and xl v != 0, d_X over v with hz v = 0
    and zl v != 0. A side's value is exact when it is at most ``wmax``;
    otherwise it is ``wmax + 1``, a lower bound. With k = 0 both are None.
    """
    return (
        _min_logical_weight(code.hx, code.x_logicals.matrix(), wmax),
        _min_logical_weight(code.hz, code.z_logicals.matrix(), wmax),
    )


def _min_logical_weight(checks: F2Matrix, duals: F2Matrix, wmax: int) -> Optional[int]:
    """Least weight of v with checks v = 0 and duals v != 0, capped at wmax + 1.

    On ker(checks) the k-bit signature duals v is zero exactly on the
    stabilizers, as the dual logicals pair trivially with those alone.
    So a nontrivial logical is the sum of two supports with one syndrome
    and different signatures, and a least-weight one splits into disjoint
    halves of weights ceil(d/2) and floor(d/2): meet in the middle on
    syndromes (Dumer, Kovalev & Pryadko, arXiv:1611.07164). Supports are
    enumerated by radius r = 1, 2, ..., ceil(wmax/2), each held as the
    XOR of its packed columns of [checks; duals]; ``lightest`` maps each
    syndrome to the lightest weight seen per signature. Each candidate
    r + w bounds d from above, and once every support of radius
    ceil(d/2) has been met the best candidate is d; so the search stops
    after radius r as soon as the best candidate is at most 2r.
    """
    k, n = duals.rows, duals.cols
    if k == 0:
        return None
    columns = row_indices(np.concatenate([checks.a, duals.a]).T)
    mask = (1 << k) - 1
    lightest: dict[int, dict[int, int]] = {0: {0: 0}}
    best = wmax + 1
    level = [(-1, 0)]  # (last column, packed sum) of every support of the current radius
    radius = 0
    while radius < (wmax + 1) // 2 and best > 2 * radius:
        radius += 1
        next_level = []
        for last, total in level:
            for j in range(last + 1, n):
                s = total ^ columns[j]
                next_level.append((j, s))
                signature = s & mask
                bucket = lightest.setdefault(s >> k, {})
                for other, w in bucket.items():
                    if other != signature and radius + w < best:
                        best = radius + w
                bucket.setdefault(signature, radius)
        level = next_level
    return best


def distance_bruteforce(code: CssCode, cap: int = 1 << 24) -> Optional[int]:
    """Minimum weight over nontrivial Z- and X-logical coset members: the test oracle.

    Enumerates the full kernels on both sides; returns None when the
    enumeration would exceed ``cap`` elements. ``certify_distance`` is
    the search the package uses; this independent enumeration is what
    tests compare it against.
    """
    best: Optional[int] = None
    for side in (code.complex, code.complex.transpose()):
        kernel, image = side.cycles, side.boundaries
        if kernel.dim == image.dim:
            continue  # no logicals on this side
        if (1 << kernel.dim) > cap:
            return None
        for v in kernel.enumerate():
            if not v.any():
                continue
            if image.contains(v):
                continue
            w = int(np.count_nonzero(v))
            if best is None or w < best:
                best = w
    return best


@dataclass(frozen=True, eq=False)
class Encoder:
    """Isometry from logical qubits into the codespace, held as its coset table.

    Column u is the uniform superposition over the coset G @ u + S of the
    X-stabilizer span S, the affine form of a CSS state (Dehaene & De
    Moor, PRA 68, 042318, 2003): ``amplitude`` = 1/sqrt(|S|) on every
    index ``bases[u] ^ orbit``. ``orbit`` lists the basis indices of S and
    ``bases[u]`` is the index of the logical-X representative sum G @ u;
    qubit 0 is the most significant bit of labels and of indices. Cosets
    of distinct labels are disjoint.

    ``fixed``, when set, is (index, state): that logical input is
    contracted with a 1-qubit state, and labels run over the other
    logicals in their order. Nothing of size 2^n x 2^k is held:
    ``supports`` lists every label's nonzero amplitudes, from which
    channel extraction simulates, ``adjoint`` builds E^dagger, the one
    dense array channel extraction needs (its BLAS product with each
    state fixes the pinned channel bits), and ``matrix`` builds E for
    callers that read it.
    """

    code: CssCode
    orbit: np.ndarray  # int64, 2**rank(hx) entries
    bases: np.ndarray  # int64, one entry per label of all k logicals
    amplitude: float
    fixed: Optional[tuple[int, np.ndarray]] = None

    @property
    def k(self) -> int:
        """The number of logical inputs: the code's, less a fixed one."""
        return self.code.k - (self.fixed is not None)

    def _terms(self, label: int) -> list:
        """(coset base index, amplitude) for each nonzero coset of column ``label``."""
        if self.fixed is None:
            return [(self.bases[label], complex(self.amplitude))]
        index, state = self.fixed
        low = self.code.k - 1 - index  # the fixed logical's bit in a full label
        high, rest = label >> low, label & ((1 << low) - 1)
        return [
            (self.bases[(((high << 1) | b) << low) | rest], self.amplitude * state[b])
            for b in (0, 1)
            if state[b] != 0
        ]

    def _fill(self, out: np.ndarray, conjugate: bool) -> np.ndarray:
        for u in range(1 << self.k):
            for base, value in self._terms(u):
                out[self.orbit ^ base, u] = np.conj(value) if conjugate else value
        return out

    def supports(self) -> tuple[np.ndarray, np.ndarray]:
        """Every label's state on its cosets: sorted int64 keys ``(label << n) | index``
        and the complex128 amplitude column ``label`` of ``matrix`` holds at each; the rest is zero."""
        terms = [((u << self.code.n) | base, value) for u in range(1 << self.k) for base, value in self._terms(u)]
        keys = (np.array([key for key, _ in terms], dtype=np.int64)[:, None] ^ self.orbit).ravel()
        values = np.repeat(np.array([value for _, value in terms], dtype=np.complex128), len(self.orbit))
        order = np.argsort(keys)
        return keys[order], values[order]

    @property
    def matrix(self) -> np.ndarray:
        """E as a dense 2^n x 2^k array, built on every read."""
        return self._fill(np.zeros((1 << self.code.n, 1 << self.k), dtype=np.complex128), False)

    def adjoint(self) -> np.ndarray:
        """E^dagger, with the layout and bytes of ``matrix.conj().T``.

        That is the F-ordered view of a C-ordered 2^n x 2^k buffer, with
        the negative zero imaginary parts that ``conj`` writes; the buffer
        is allocated once and filled in place.
        """
        shape = (1 << self.code.n, 1 << self.k)
        return self._fill(np.full(shape, complex(0.0, -0.0)), True).T


def row_indices(a: np.ndarray) -> list[int]:
    """The computational-basis index of each row of a 2-D 0/1 array, as a Python int of any width.

    A row's first column is the most significant bit, as qubit 0 is in a
    state's index: its ``f2linalg.packed_rows`` value without the zero
    padding bits.
    """
    pad = -a.shape[1] % 8
    return [row >> pad for row in packed_rows(a)]


def linear_indices(columns) -> np.ndarray:
    """The value of the linear map x -> XOR of columns[j] over the set bits x_j, for every x.

    Entry x of the result is indexed as in ``row_indices`` (qubit 0 is
    the most significant bit). The table is built by linearity: each
    qubit, from the last to the first, doubles it with its column XORed in.
    With basis-index columns this enumerates a GF(2) span, one element
    per coordinate vector x. The table is int64.
    """
    out = np.zeros(1, dtype=np.int64)
    for c in reversed(columns):
        out = np.concatenate([out, out ^ int(c)])
    return out


SIMULATOR_QUBIT_LIMIT = 20


def encoder_isometry(code: CssCode) -> Encoder:
    """Type-preserving encoder built from the stored dual bases, as a coset table.

    The qubit limit is checked before anything of size 2^n is built.
    """
    n = code.n
    if n > SIMULATOR_QUBIT_LIMIT:
        raise DimensionMismatch(f"{n} qubits exceeds the simulator limit {SIMULATOR_QUBIT_LIMIT}")
    orbit = linear_indices(row_indices(code.x_stabilizer_space().basis.a))
    bases = linear_indices(row_indices(code.x_logicals.matrix().a))
    return Encoder(code=code, orbit=orbit, bases=bases, amplitude=1.0 / np.sqrt(len(orbit)))


def encoder_with_fixed_logical(e: Encoder, index: int, state: np.ndarray) -> Encoder:
    """The encoder with one logical input fixed to a 1-qubit state.

    It has k - 1 inputs, which keep their order; no array is built.
    """
    if e.fixed is not None:
        raise DimensionMismatch("encoder already has a fixed logical input")
    if not 0 <= index < e.k:
        raise DimensionMismatch(f"logical index {index} is outside 0..{e.k - 1}")
    return replace(e, fixed=(index, np.asarray(state, dtype=np.complex128)))
