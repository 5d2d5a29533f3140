"""Constructors for the codes and worked examples used throughout.

Qubit and check indexing conventions are fixed here once so file dumps,
docs, and tests agree bit-for-bit:

* surface patches: horizontal edges in row-major order first, then
  vertical edges; X-checks on vertices, Z-checks on faces, both
  row-major. Surface patches and toric codes are the hypergraph
  products (``hypergraph_product``) of repetition codes with X and Z
  exchanged, and these orders are the product's.
* the 7-qubit code uses the triangle layout with faces
  a = {1,2,3,5}, b = {3,4,5,6}, c = {2,5,6,7} (1-based), identical
  supports for X- and Z-checks.
* the 15-qubit code labels qubits by the nonzero 4-bit strings
  1..15; cell i is {v : bit_i(v) = 1}; the face of qubits with
  bit_4 = 0 carries a 7-qubit-code layout compatible with the
  code-switch subcode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .chaincomplex import ChainComplex, cohomology, direct_sum, homology
from .csscode import CssCode, from_parity_checks
from .errors import DimensionMismatch, UnknownExample
from .f2linalg import F2Matrix, Subspace
from .surgery import Subcode, validate_subcode


def _code(hx_rows: list[list[int]], hz_rows: list[list[int]], n: int, d: int) -> CssCode:
    hx, hz = (F2Matrix.from_rows(rows, cols=n) for rows in (hx_rows, hz_rows))
    return from_parity_checks(hx, hz).with_distance(d)


def trivial_qubit() -> CssCode:
    """One qubit, no checks: [[1,1,1]]."""
    return no_check(1)


def no_check(n: int) -> CssCode:
    """n qubits without stabilizers: [[n,n,1]].

    Nothing is eliminated: on both sides the cycles are the whole space
    and the boundaries are zero, so the logical bases are the unit
    vectors, and the X basis is dual to the Z basis.
    """
    if n < 1:
        raise DimensionMismatch("need at least one qubit")
    cplx = ChainComplex(d2=F2Matrix.zeros(n, 0), d1=F2Matrix.zeros(0, n))
    return CssCode(complex=cplx, z_logicals=homology(cplx), x_logicals=cohomology(cplx), d=1)


# faces a, b and c of the 7-qubit code's triangle layout, 1-based
_STEANE_FACES = ([1, 2, 3, 5], [3, 4, 5, 6], [2, 5, 6, 7])


def steane() -> CssCode:
    """The 7-qubit self-dual code, [[7,1,3]], in the triangle layout."""
    faces = [_support_to_row(s, 7) for s in _STEANE_FACES]
    return _code(faces, faces, 7, d=3)


def _support_to_row(support: list[int], n: int) -> list[int]:
    row = [0] * n
    for q in support:
        row[q - 1] = 1
    return row


def reed_muller_15() -> CssCode:
    """The 15-qubit code, [[15,1,3]]: cells as X-checks, faces as Z-checks.

    Qubit j (1-based) is the 4-bit string of j. X-check i is the cell
    {j : bit_i(j) = 1} (weight 8). Z-checks are ten weight-4 flats: the
    six cell intersections and four boundary faces.
    """
    n = 15

    def bit(j: int, i: int) -> int:  # i in 1..4, j in 1..15
        return (j >> (i - 1)) & 1

    cells = [[bit(j, i) for j in range(1, 16)] for i in range(1, 5)]
    faces = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            faces.append([bit(q, i) & bit(q, j) for q in range(1, 16)])
    for i in (1, 2, 3):  # faces of the bit4 = 0 boundary tetrahedron face
        faces.append([bit(q, i) & (1 - bit(q, 4)) for q in range(1, 16)])
    faces.append([bit(q, 4) & (1 - bit(q, 1)) for q in range(1, 16)])
    return _code(cells, faces, n, d=3)


@dataclass(frozen=True)
class _PatchLayout:
    """Index bookkeeping for a planar patch of width w and height h."""

    w: int
    h: int

    @property
    def n(self) -> int:
        return self.w * self.h + (self.w - 1) * (self.h - 1)

    def horizontal(self, r: int, c: int) -> int:
        return r * self.w + c

    def vertex(self, r: int, c: int) -> int:
        return r * (self.w - 1) + c


def hypergraph_product(h1, h2) -> tuple[F2Matrix, F2Matrix]:
    """The hypergraph product (hx, hz) of classical checks h1 (m1 x n1) and h2 (m2 x n2).

    hx = [H1 (x) I_n2 | I_m1 (x) H2^T] and hz = [I_n1 (x) H2 | H1^T (x) I_m2]
    on n1*n2 + m1*m2 qubits (Tillich and Zemor, arXiv:0903.0566). Each
    argument is anything ``F2Matrix()`` takes.
    """
    a, b = F2Matrix(h1).a, F2Matrix(h2).a
    (m1, n1), (m2, n2) = a.shape, b.shape
    i_m1, i_n1, i_m2, i_n2 = (np.eye(k, dtype=np.uint8) for k in (m1, n1, m2, n2))
    hx = np.hstack([np.kron(a, i_n2), np.kron(i_m1, b.T)])
    hz = np.hstack([np.kron(i_n1, b), np.kron(a.T, i_m2)])
    return F2Matrix._wrap(hx), F2Matrix._wrap(hz)


def _repetition(length: int, cyclic: bool) -> np.ndarray:
    """Checks e_i + e_(i+1) of the length-L repetition code; cyclic adds e_(L-1) + e_0."""
    eye = np.eye(length, dtype=np.uint8)
    checks = eye ^ np.roll(eye, 1, axis=1)
    return checks if cyclic else checks[: length - 1]


def surface_patch(w: int, h: int) -> CssCode:
    """Planar patch: qubits on edges, X-checks on vertices, Z-checks on faces.

    For w = h = d this is the [[d*d + (d-1)*(d-1), 1, d]] patch; the
    Z-logical runs along a row of horizontal edges, the X-logical along
    a column. It is the hypergraph product of the open repetition codes
    of lengths h and w, with X and Z exchanged.
    """
    if w < 1 or h < 1:
        raise DimensionMismatch("patch needs w, h >= 1")
    hz, hx = hypergraph_product(_repetition(h, cyclic=False), _repetition(w, cyclic=False))
    return from_parity_checks(hx, hz).with_distance(min(w, h))


def toric(L: int) -> CssCode:
    """Toric code on an L x L periodic lattice: [[2*L*L, 2, L]].

    It is the hypergraph product of the cyclic repetition code R of
    length L with R^T, with X and Z exchanged.
    """
    if L < 2:
        raise DimensionMismatch("toric code needs L >= 2")
    r = _repetition(L, cyclic=True)
    hz, hx = hypergraph_product(r, r.T)
    return from_parity_checks(hx, hz).with_distance(L)


_CATALOG = {
    "steane": steane,
    "reed_muller_15": reed_muller_15,
    "trivial_qubit": trivial_qubit,
    "surface_2": lambda: surface_patch(2, 2),
    "surface_3": lambda: surface_patch(3, 3),
    "toric_2": lambda: toric(2),
    "toric_3": lambda: toric(3),
}


def catalog_code(name: str) -> CssCode:
    if name not in _CATALOG:
        raise UnknownExample(f"unknown catalog code {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[name]()


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


@dataclass(frozen=True)
class WorkedExample:
    """A worked surgery example with a machine-checkable expectation record.

    The example is declared by its (v2, v1, v0) subspaces of ``parent``;
    an invalid one keeps them so tests can re-run validation and watch
    it fail.
    """

    name: str
    parent: ChainComplex
    codes: tuple[CssCode, ...]
    raw_spaces: tuple[Subspace, Subspace, Subspace]
    raw_orientation: str = "Z"
    expect: dict = field(default_factory=dict)

    @cached_property
    def subcode(self) -> Optional[Subcode]:
        """The validated subcode of a valid example; None for an invalid one."""
        if not self.expect.get("valid"):
            return None
        return validate_subcode(self.parent, *self.raw_spaces, self.raw_orientation)


def _pair_vector(dim_a: int, dim_b: int, ia: int, ib: int) -> np.ndarray:
    v = np.zeros(dim_a + dim_b, dtype=np.uint8)
    v[ia] = 1
    v[dim_a + ib] = 1
    return v


def _welding_pair() -> tuple[CssCode, CssCode, _PatchLayout, _PatchLayout]:
    c = surface_patch(3, 2)
    d = surface_patch(3, 2)
    return c, d, _PatchLayout(3, 2), _PatchLayout(3, 2)


def worked_example(name: str) -> WorkedExample:
    """Catalogued surgery scenarios; see the module docstring for layouts."""
    if name not in _EXAMPLES:
        raise UnknownExample(f"unknown example {name!r}; known: {sorted(_EXAMPLES)}")
    return _EXAMPLES[name]()


def example_names() -> list[str]:
    return list(_EXAMPLES)


def _boundary_pairs(
    c_lay: _PatchLayout, d_lay: _PatchLayout
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Qubit pairs (c bottom row, d top row) and vertex pairs for welding."""
    n_c = c_lay.n
    n0_c = c_lay.h * (c_lay.w - 1)
    qubit_pairs = [
        _pair_vector(n_c, d_lay.n, c_lay.horizontal(c_lay.h - 1, col), d_lay.horizontal(0, col))
        for col in range(c_lay.w)
    ]
    vertex_pairs = [
        _pair_vector(n0_c, d_lay.h * (d_lay.w - 1), c_lay.vertex(c_lay.h - 1, col), d_lay.vertex(0, col))
        for col in range(c_lay.w - 1)
    ]
    return qubit_pairs, vertex_pairs


def _example_welding() -> WorkedExample:
    c, d, c_lay, d_lay = _welding_pair()
    total = direct_sum(c.complex, d.complex)
    qubit_pairs, vertex_pairs = _boundary_pairs(c_lay, d_lay)
    return WorkedExample(
        name="welding",
        parent=total,
        codes=(c, d),
        raw_spaces=(
            Subspace.zero(total.dim2),
            Subspace.from_vectors(qubit_pairs, total.dim1),
            Subspace.from_vectors(vertex_pairs, total.dim0),
        ),
        expect={
            "valid": True,
            "h0_subcode": 0,
            "h1_subcode": 1,
            "surjective": True,
            "killed_count": 1,
            "killed_class_coords": [1, 1],
            "merged_qubits": c.n + d.n - 3,
            "quotient_h1": c.k + d.k - 1,
        },
    )


def _example_partial_boundary() -> WorkedExample:
    c, d, c_lay, d_lay = _welding_pair()
    total = direct_sum(c.complex, d.complex)
    qubit_pairs, vertex_pairs = _boundary_pairs(c_lay, d_lay)
    return WorkedExample(
        name="partial_boundary",
        parent=total,
        codes=(c, d),
        raw_spaces=(
            Subspace.zero(total.dim2),
            Subspace.from_vectors([qubit_pairs[1]], total.dim1),  # middle pair only
            Subspace.from_vectors(vertex_pairs, total.dim0),
        ),
        expect={
            "valid": True,
            "h1_subcode": 0,
            "h0_subcode": 1,
            "injective": True,
            "created_count": 1,
        },
    )


def _example_internal_cylinder() -> WorkedExample:
    c = surface_patch(3, 3)
    lay = _PatchLayout(3, 3)
    cplx = c.complex
    qubits, vertices = np.eye(lay.n, dtype=np.uint8), np.eye(3 * 2, dtype=np.uint8)
    qubit_pairs = [qubits[lay.horizontal(0, col)] ^ qubits[lay.horizontal(2, col)] for col in range(3)]
    vertex_pairs = [vertices[lay.vertex(0, col)] ^ vertices[lay.vertex(2, col)] for col in range(2)]
    return WorkedExample(
        name="internal_cylinder",
        parent=cplx,
        codes=(c,),
        raw_spaces=(
            Subspace.zero(cplx.dim2),
            Subspace.from_vectors(qubit_pairs, cplx.dim1),
            Subspace.from_vectors(vertex_pairs, cplx.dim0),
        ),
        expect={
            "valid": True,
            "h0_subcode": 0,
            "h1_subcode": 1,
            "surjective": True,
            # top and bottom rows are homologous, so nothing is killed
            "killed_count": 0,
            "quotient_h1": 1,
        },
    )


def _example_wrong_merge() -> WorkedExample:
    c, d, c_lay, d_lay = _welding_pair()
    total = direct_sum(c.complex, d.complex)
    one_pair = _pair_vector(c_lay.n, d_lay.n, c_lay.horizontal(c_lay.h - 1, 1), d_lay.horizontal(0, 1))
    return WorkedExample(
        name="wrong_merge",
        parent=total,
        codes=(c, d),
        raw_spaces=(
            Subspace.zero(total.dim2),
            Subspace.from_vectors([one_pair], total.dim1),
            Subspace.zero(total.dim0),
        ),
        expect={"valid": False, "closure_degree": 1},
    )


def _example_virtual_merge() -> WorkedExample:
    """Two tiny codes merged along an operator that is no graph gluing."""
    c_cplx = ChainComplex(d2=F2Matrix([[1], [1]]), d1=F2Matrix.zeros(0, 2))
    d_cplx = ChainComplex(d2=F2Matrix.zeros(1, 0), d1=F2Matrix([[1]]))
    c = from_parity_checks(hx=F2Matrix.zeros(0, 2), hz=F2Matrix([[1, 1]]))
    d = from_parity_checks(hx=F2Matrix([[1]]), hz=F2Matrix.zeros(0, 1))
    total = direct_sum(c_cplx, d_cplx)
    return WorkedExample(
        name="virtual_merge",
        parent=total,
        codes=(c, d),
        raw_spaces=(
            Subspace.zero(total.dim2),
            Subspace.from_vectors([np.array([1, 1, 1], dtype=np.uint8)], total.dim1),
            Subspace.from_vectors([np.array([1], dtype=np.uint8)], total.dim0),
        ),
        expect={
            "valid": True,
            "quotient_dims": [1, 2, 0],
            # p1 in the basis {[z1], [z2]} of the quotient degree-1 space
            "p1_in_z1_z2_basis": [[1, 0, 1], [0, 1, 1]],
            "quotient_basis_degree1": [[1, 0, 0], [0, 1, 0]],
        },
    )


def _example_steane_z_subcode() -> WorkedExample:
    c = steane()
    cplx = c.complex
    v2 = Subspace.from_vectors([np.array([1, 0, 1], dtype=np.uint8)], 3)  # alpha + gamma
    z13 = _support_to_row([1, 3], 7)
    z67 = _support_to_row([6, 7], 7)
    v1 = Subspace.from_vectors([np.array(z13, dtype=np.uint8), np.array(z67, dtype=np.uint8)], 7)
    v0 = Subspace.from_vectors([np.array([0, 1, 0], dtype=np.uint8)], 3)  # check b
    return WorkedExample(
        name="steane_z_subcode",
        parent=cplx,
        codes=(c,),
        raw_spaces=(v2, v1, v0),
        expect={"valid": True},
    )


def _example_steane_x_subcode() -> WorkedExample:
    """X-subcode spanned by four single-qubit X operators.

    Closure forces the degree-2 space to be the full Z-syndrome space;
    the interesting content is W^1 = {x1, x4, x5, x7} with
    W^0 = span{a+b+c}.
    """
    c = steane()
    cplx = c.complex
    w1 = Subspace.from_vectors(
        [np.array(_support_to_row([q], 7), dtype=np.uint8) for q in (1, 4, 5, 7)], 7
    )
    w0 = Subspace.from_vectors([np.array([1, 1, 1], dtype=np.uint8)], 3)
    w2 = Subspace.full(3)
    return WorkedExample(
        name="steane_x_subcode",
        parent=cplx,
        codes=(c,),
        raw_spaces=(w2, w1, w0),
        raw_orientation="X",
        expect={"valid": True},
    )


def _example_steane_invalid_subcode() -> WorkedExample:
    c = steane()
    cplx = c.complex
    return WorkedExample(
        name="steane_invalid_subcode",
        parent=cplx,
        codes=(c,),
        raw_spaces=(
            Subspace.zero(3),
            Subspace.from_vectors([np.array(_support_to_row([1, 2], 7), dtype=np.uint8)], 7),
            Subspace.from_vectors([np.array([1, 0, 1], dtype=np.uint8)], 3),
        ),
        expect={"valid": False, "closure_degree": 1},
    )


def _example_worked_quotient_matrix() -> WorkedExample:
    """The echelonized-quotient worked case on four free logical qubits.

    Basis u1..u4; kill span{u1+u3, u2+u3+u4}; the induced map in the
    pivot-complement basis {[u3], [u4]} is [[1,1,1,0],[0,1,0,1]].
    """
    c = no_check(4)
    cplx = c.complex
    v1 = Subspace.from_vectors(
        [np.array([1, 0, 1, 0], dtype=np.uint8), np.array([0, 1, 1, 1], dtype=np.uint8)], 4
    )
    return WorkedExample(
        name="worked_quotient_matrix",
        parent=cplx,
        codes=(c,),
        raw_spaces=(Subspace.zero(0), v1, Subspace.zero(0)),
        expect={
            "valid": True,
            "induced_matrix": [[1, 1, 1, 0], [0, 1, 0, 1]],
        },
    )


def switch_subcode(
    steane_code: CssCode, rm_code: CssCode
) -> Subcode:
    """Pairwise identification of the 7-qubit code with the bit4 = 0 face.

    Returns the Z-subcode of (steane + rm) whose quotient is again a
    15-qubit code: 7 qubit pairs, 3 Z-check pairs, 3 X-check pairs.
    """
    total, spaces = _switch_spaces(steane_code, rm_code)
    return validate_subcode(total, *spaces, "Z")


def _switch_spaces(
    steane_code: CssCode, rm_code: CssCode
) -> tuple[ChainComplex, tuple[Subspace, Subspace, Subspace]]:
    """The parent (steane + rm) and the unvalidated (v2, v1, v0) of ``switch_subcode``."""
    total = direct_sum(steane_code.complex, rm_code.complex)

    def rm_index(steane_q: int) -> int:
        # steane qubit q (1-based) has bit pattern column; face qubit is the
        # same 3-bit string with bit4 = 0, i.e. the integer value itself.
        return _steane_bits(steane_q) - 1

    # Z-check pairs: steane face i <-> rm boundary face x_i(1+x4), which is
    # row 6 + i of the rm hz (construction order: six x_i x_j rows first).
    # X-check pairs: steane check i <-> rm cell i.
    return total, (
        _pair_space(3, 10, [6 + i for i in range(3)]),
        _pair_space(7, 15, [rm_index(q) for q in range(1, 8)]),
        _pair_space(3, 4, [0, 1, 2]),
    )


def _pair_space(dim_a: int, dim_b: int, partners: list[int]) -> Subspace:
    """The span of the pair vectors of coordinate i of the first block and ``partners[i]`` of the second.

    Row i has its first 1 at column i and no other row has a 1 there,
    so the rows are already the canonical RREF: nothing is eliminated.
    """
    rows = np.zeros((len(partners), dim_a + dim_b), dtype=np.uint8)
    rows[range(len(partners)), range(len(partners))] = 1
    rows[range(len(partners)), [dim_a + j for j in partners]] = 1
    return Subspace(dim_a + dim_b, F2Matrix._wrap(rows), tuple(range(len(partners))))


def _steane_bits(q: int) -> int:
    """Bit pattern of steane qubit q under the triangle layout.

    Qubit q belongs to face i iff bit_i is set; the triangle layout was
    chosen so this is exactly the check membership pattern.
    """
    return sum((1 << i) for i, s in enumerate(_STEANE_FACES) if q in s)


def _example_code_switch() -> WorkedExample:
    s = steane()
    rm = reed_muller_15()
    total, spaces = _switch_spaces(s, rm)
    return WorkedExample(
        name="code_switch",
        parent=total,
        codes=(s, rm),
        raw_spaces=spaces,
        expect={
            "valid": True,
            "merged_params": [15, 1, 3],
            "p1_star": [[1, 1]],
            "h0_subcode": 0,
        },
    )


# every worked example by name, in listing order
_EXAMPLES = {
    "welding": _example_welding,
    "partial_boundary": _example_partial_boundary,
    "internal_cylinder": _example_internal_cylinder,
    "wrong_merge": _example_wrong_merge,
    "virtual_merge": _example_virtual_merge,
    "steane_z_subcode": _example_steane_z_subcode,
    "steane_x_subcode": _example_steane_x_subcode,
    "steane_invalid_subcode": _example_steane_invalid_subcode,
    "worked_quotient_matrix": _example_worked_quotient_matrix,
    "code_switch": _example_code_switch,
}
