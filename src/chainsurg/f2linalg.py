"""Exact dense linear algebra over GF(2).

Matrices are immutable wrappers around uint8 numpy arrays with entries in
{0, 1}; all arithmetic is mod 2. Everything here is deterministic: equal
inputs produce bit-identical outputs, which the rest of the package relies
on for reproducible bases and reports.

``_mul`` is the one matrix product. A product of at most 1024
multiply-adds runs in uint8, where converting to float would cost more
than the product: its sums wrap modulo 256, which keeps their parity.
Any other multiplies in float32 BLAS, which is exact while the inner
dimension is below 2**24: every sum is then an integer that float32
holds exactly. Larger inner dimensions multiply in float64.

There are two constructors. ``F2Matrix(data)`` takes data from outside the
package: it reduces mod 2 and copies, so it never aliases a caller's
array. ``F2Matrix._wrap(a)`` trusts a 2-D 0/1 uint8 array the package made
itself and nothing writes to: products, XORs, transposes, stacks, RREF
and transform blocks, identity and zero matrices, and the reduced-row and
free-column arrays other modules slice from them. It only marks the array
read-only; ``F2Matrix.row`` returns a read-only view.

``rref`` eliminates on bitset rows: each row of m, or of the augmented
array [m | I] when the caller reads the row transform, is packed into one
Python int, so a row XOR is one integer operation whatever the width,
and the next pivot is found by comparing rows rather than scanning
columns. Only ``Elimination``, ``left_inverse_block``, ``invert`` and the
class systems of homology bases read the transform; every other caller
passes ``transform=False``.
``Elimination`` is the one solve path: it reduces a matrix once with
``rref`` and then solves ``m @ x = b`` for as many right-hand sides as
the caller has. ``solve`` is the one-shot form.

What an RREF already says is read, not eliminated again:

- coordinates in a subspace's basis are the entries at its pivots;
- ``kernel_basis`` reduces m with its columns reversed, and the kernel
  vectors it reads off are then, in reverse order, the canonical RREF of
  the kernel, so one elimination gives the canonical basis; one row
  reversed is its own RREF, so it needs none;
- the default coset representatives of a subspace need none: the unit
  vectors at its free (non-pivot) columns (``Subspace.free_units``)
  complete its RREF basis to one of the whole space, as that basis is
  the identity at its pivot columns; every module takes this one rule
  from here;
- ``quotient_basis`` needs none: a subspace's pivots are among the pivots
  of any subspace holding it, and that fixes the quotient basis;
- ``Subspace.direct_sum`` needs none: two canonical bases placed
  block-diagonally, the second block's pivots shifted by the first
  block's dimension, are the canonical RREF of the sum, so the kernel and
  image of a block-diagonal map are assembled from its blocks' spaces;
- independence and coordinates modulo a subspace w are read on rows
  reduced modulo w (``_reduce_rows``): reduction is linear and kills w,
  so k rows are independent modulo w exactly when their k reductions
  have rank k, and v = sum x_i r_i + (a member of w) exactly when the
  reduction of v is sum x_i times the reductions of the r_i. That is k
  rows to eliminate where the stacked rows and w's basis are k + dim w;
- class coordinates are read at the pivots of that k-row RREF: with T
  its row transform and w a reduced cycle, y = w at the pivots, w must be
  y times the RREF rows, and the coordinates are y times T's rows;
- ``homology``'s pivot-complement representatives need no elimination for
  that RREF: they are rows of ker's canonical basis whose pivots are not
  the image's, so they are zero at the image's pivots (already reduced)
  and in RREF with the identity transform, with those kernel pivots as
  their pivots;
- the RREF that ranks k supplied rows modulo w, taken with its
  transform, is also their class system, so one elimination does both;
- two supplied bases with pairing x_i . z_j = delta_ij, k (co)cycles
  each, need no rank elimination: a combination of the z_j that is a
  boundary pairs to zero with every x_i, so its coefficients are zero,
  and likewise for the x_i;
- a matrix with no rows is already reduced: its row space is zero and
  its kernel is the whole space; a matrix of zero rows spans the zero
  space too; rows reduced modulo the zero space are themselves, with no
  product taken;
- ``Subspace.sum`` eliminates only the other space's rows reduced
  modulo this one: their RREF is zero at this space's pivots, so
  clearing its pivot columns in this space's rows and inserting its rows
  by pivot gives the canonical RREF of the sum; one nonzero row is its
  own RREF, with its pivot at its first 1;
- the quotient rule (``Subspace.project``): the image of a space U that
  holds W, under reduction modulo W read at W's free columns, is U's
  canonical basis with W's pivot rows and pivot columns dropped, since
  each of W's pivots is one of U's and U's other rows are zero there.
"""
from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedInput, NotContained, SingularMatrix


def as_bit_vector(v, length: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a read-only 1-D uint8 array of 0/1 entries."""
    a = np.asarray(v, dtype=np.uint8) % 2
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise DimensionMismatch(f"expected length {length}, got {a.shape[0]}")
    a = a.copy()
    a.setflags(write=False)
    return a


# inner dimensions below this multiply exactly in float32, which holds every integer up to 2**24
_FLOAT32_EXACT = 1 << 24
# products of at most this many multiply-adds run in uint8, where they take 0.5-0.9x the float32
# path's time; the two cross between 2048 and 4096 (1-thread OpenBLAS, x86)
_SMALL_PRODUCT = 1024


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mod-2 product of 0/1 arrays as uint8; ``a`` or ``b`` may be a vector.

    A small product, of at most ``_SMALL_PRODUCT`` multiply-adds, runs
    in uint8: its sums wrap modulo 256, which is even, so each keeps its
    parity. Any other runs in float32 BLAS and its parity is read through
    an int32 mask. Every sum is an integer no larger than the inner
    dimension, so it is exact while that dimension is below
    ``_FLOAT32_EXACT`` (2**24). At or above it the product runs in
    float64, exact below 2**53.
    """
    if a.size * (b.shape[1] if b.ndim == 2 else 1) <= _SMALL_PRODUCT:
        return (a.astype(np.uint8, copy=False) @ b.astype(np.uint8, copy=False)) & 1
    if a.shape[-1] < _FLOAT32_EXACT:
        return ((a.astype(np.float32) @ b.astype(np.float32)).astype(np.int32) & 1).astype(np.uint8)
    return ((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)


class F2Matrix:
    """Immutable dense matrix over GF(2).

    ``@`` is mod-2 matrix product (also accepts a vector on the right),
    ``+`` is entrywise XOR, ``.T`` the transpose. ``F2Matrix(data)``
    reduces and copies; ``_wrap`` trusts (see the module docstring).
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        a = np.asarray(data, dtype=np.uint8)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
        a = (a % 2).copy()
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "F2Matrix":
        """The matrix of a 0/1 uint8 array the package made, without reduction or copy."""
        a.setflags(write=False)
        m = object.__new__(cls)
        m._a = a
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls._wrap(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls._wrap(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Sequence, cols: int | None = None) -> "F2Matrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise DimensionMismatch("empty row list needs an explicit column count")
            return cls.zeros(0, cols)
        return cls(np.array([np.asarray(r, dtype=np.uint8) for r in rows]))

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def T(self) -> "F2Matrix":
        return F2Matrix._wrap(self._a.T)

    def row(self, i: int) -> np.ndarray:
        """Row i as a read-only view."""
        return self._a[i]

    def col(self, j: int) -> np.ndarray:
        return as_bit_vector(self._a[:, j])

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._a)

    def __matmul__(self, other):
        if isinstance(other, F2Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} @ {other.shape}")
            return F2Matrix._wrap(_mul(self._a, other._a))
        v = np.asarray(other, dtype=np.uint8)
        if v.ndim == 1:
            if self.cols != v.shape[0]:
                raise DimensionMismatch(f"{self.shape} @ vector of length {v.shape[0]}")
            return as_bit_vector(_mul(self._a, v))
        return NotImplemented

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return F2Matrix._wrap(self._a ^ other._a)

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __eq__(self, other) -> bool:
        # both arrays are uint8, so equal bytes are equal entries
        return isinstance(other, F2Matrix) and self.shape == other.shape and self._a.tobytes() == other._a.tobytes()

    def __hash__(self) -> int:
        return hash((self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        body = "\n".join("".join(str(int(x)) for x in row) for row in self._a)
        return f"F2Matrix({self.rows}x{self.cols})\n{body}"

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()


def hstack(blocks: Sequence[F2Matrix]) -> F2Matrix:
    if not blocks:
        raise DimensionMismatch("need at least one block")
    return F2Matrix._wrap(np.hstack([b.a for b in blocks]))


def vstack(blocks: Sequence[F2Matrix]) -> F2Matrix:
    if not blocks:
        raise DimensionMismatch("need at least one block")
    return F2Matrix._wrap(np.vstack([b.a for b in blocks]))


def block_diag(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.uint8)
    out[: a.rows, : a.cols] = a.a
    out[a.rows :, a.cols :] = b.a
    return F2Matrix._wrap(out)


@dataclass(frozen=True)
class RrefResult:
    reduced: F2Matrix
    pivots: tuple[int, ...]
    transform: F2Matrix | None  # invertible, transform @ input == reduced; None if not asked for

    @property
    def rank(self) -> int:
        return len(self.pivots)


def packed_rows(a: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as one Python int: its packed bytes read big-endian.

    Column j of a w-column array is bit ``8 * ceil(w / 8) - 1 - j``, so
    the leftmost column is the highest bit and the padding bits are zero.
    """
    nbytes = (a.shape[1] + 7) // 8
    packed = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(packed[i * nbytes : (i + 1) * nbytes], "big") for i in range(a.shape[0])]


def rref(m: F2Matrix, transform: bool = True) -> RrefResult:
    """Reduced row-echelon form, with the invertible row transform if asked for.

    Eliminates on the augmented array [m | I] (on m alone when
    ``transform`` is false, and ``RrefResult.transform`` is then None),
    each row held as one Python int: the packed bytes read big-endian, so
    column j is bit ``top - 1 - j`` and the leftmost column is the highest
    bit. The pivot of a column is its first 1 at or below the current row;
    the pivot row is XORed into every other row with a 1 in that column at
    once. Rows at or below the current row are zero left of the current
    column, so the next pivot column is the top bit of the largest of them
    and its pivot row is the first of them at least that bit: the search
    compares ints and never scans a zero column. ``floor`` is the bit of
    m's last column, so a largest row under ``floor`` has no 1 in m and no
    pivot is left. With the identity block that row is nonzero; without
    it, it is a zero row, which is under ``floor`` too.
    """
    rows, cols = m.shape
    width = cols + rows if transform else cols
    nbytes = (width + 7) // 8
    top = 8 * nbytes
    aug = np.concatenate([m.a, np.eye(rows, dtype=np.uint8)], axis=1) if transform else m.a
    bits = packed_rows(aug)
    floor = 1 << (top - cols)
    pivots: list[int] = []
    r = 0
    while r < rows:
        rest = bits[r:]
        hi = max(rest)
        if hi < floor:
            break
        bit = 1 << (hi.bit_length() - 1)
        p = r + next(compress(count(), map(bit.__le__, rest)))
        prow = bits[p]
        bits[p] = bits[r]
        bits = [x ^ prow if x & bit else x for x in bits]
        bits[r] = prow
        pivots.append(top - hi.bit_length())
        r += 1
    data = np.frombuffer(b"".join(x.to_bytes(nbytes, "big") for x in bits), dtype=np.uint8)
    aug = np.unpackbits(data.reshape(rows, nbytes), axis=1, count=width)
    return RrefResult(
        F2Matrix._wrap(aug[:, :cols]),
        tuple(pivots),
        F2Matrix._wrap(aug[:, cols:]) if transform else None,
    )


class Elimination:
    """``rref(m)`` computed once, for solving ``m @ x = b`` with many b."""

    __slots__ = ("matrix", "result")

    def __init__(self, m: F2Matrix):
        self.matrix = m
        self.result = rref(m)

    def solve(self, b) -> np.ndarray | None:
        """One solution of m @ x = b (pivot solution, free variables 0), or None."""
        bv = as_bit_vector(b)
        if bv.shape[0] != self.matrix.rows:
            raise DimensionMismatch(f"rhs length {bv.shape[0]} != rows {self.matrix.rows}")
        x = self.solve_columns(F2Matrix._wrap(bv[:, None]))
        return None if x is None else x.col(0)

    def solve_columns(self, b: F2Matrix) -> F2Matrix | None:
        """One solution of m @ X = b, column by column as in ``solve``, or None if any has none."""
        res = self.result
        rb = (res.transform @ b).a
        if rb[res.rank :].any():
            return None
        x = np.zeros((self.matrix.cols, b.cols), dtype=np.uint8)
        x[list(res.pivots)] = rb[: res.rank]
        return F2Matrix._wrap(x)


def rank(m: F2Matrix) -> int:
    return rref(m, transform=False).rank


class Subspace:
    """A subspace of F2^n held as a canonical RREF row basis.

    Two equal subspaces always carry bit-identical bases, so Subspace
    equality is plain matrix equality.
    """

    __slots__ = ("_ambient", "_basis", "_pivots", "_free")

    def __init__(self, ambient_dim: int, basis: F2Matrix, pivots: tuple[int, ...]):
        # Internal constructor; use from_vectors / zero / full.
        self._ambient = ambient_dim
        self._basis = basis
        self._pivots = pivots
        self._free = None

    @classmethod
    def from_vectors(cls, vectors: Iterable, ambient_dim: int) -> "Subspace":
        vecs = [as_bit_vector(v, ambient_dim) for v in vectors]
        return cls.from_matrix_rows(F2Matrix.from_rows(vecs, cols=ambient_dim))

    @classmethod
    def from_matrix_rows(cls, m: F2Matrix) -> "Subspace":
        if m.is_zero():  # no rows, or only zero rows: nothing to eliminate
            return cls.zero(m.cols)
        if m.rows == 1:  # a nonzero row is its own RREF, its pivot at its first 1
            return cls(m.cols, m, (int(m.a[0].argmax()),))
        res = rref(m, transform=False)
        return cls(m.cols, F2Matrix._wrap(res.reduced.a[: res.rank]), res.pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, F2Matrix.zeros(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, F2Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def dim(self) -> int:
        return self._basis.rows

    @property
    def basis(self) -> F2Matrix:
        return self._basis

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    @property
    def free(self) -> list[int]:
        """The columns that are not pivots, ascending: found on the first read and kept."""
        if self._free is None:
            self._free = free_columns(self._pivots, self._ambient)
        return self._free

    def free_units(self) -> F2Matrix:
        """The unit vectors at the free columns, as columns: a complement of this space.

        They are the default coset representatives of the quotient by it;
        along the zero space they are the identity.
        """
        return F2Matrix._wrap(np.eye(self._ambient, dtype=np.uint8)[:, self.free])

    def basis_vectors(self) -> list[np.ndarray]:
        return [self._basis.row(i) for i in range(self.dim)]

    def contains(self, v) -> bool:
        return not _reduce_rows(as_bit_vector(v, self._ambient)[None, :], self).any()

    def contains_rows(self, m: F2Matrix) -> bool:
        """Whether every row of m lies in this subspace (one product for all rows)."""
        if m.cols != self._ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return not _reduce_rows(m.a, self).any()

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.contains_rows(other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        """self + other by inserting other's rows into self's canonical basis.

        Only other's rows reduced modulo self are eliminated. Their RREF N
        is zero at self's pivots, so clearing N's pivot columns in self's
        rows keeps those rows reduced, with their leading ones in place;
        N's rows inserted among them by pivot then give the canonical RREF.
        """
        if other.ambient_dim != self._ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if not self.dim:
            return other
        new = Subspace.from_matrix_rows(F2Matrix._wrap(_reduce_rows(other.basis.a, self)))
        rows, pivots = self._basis.a, self._pivots
        for row, c in zip(new.basis.a, new.pivots):
            at = bisect(pivots, c)
            rows = rows ^ (rows[:, c, None] & row)  # clear column c: an outer product with the row
            rows = np.concatenate([rows[:at], row[None], rows[at:]])
            pivots = pivots[:at] + (c,) + pivots[at:]
        return Subspace(self._ambient, F2Matrix._wrap(rows), pivots) if new.dim else self

    def project(self, w: "Subspace") -> "Subspace":
        """The image of self, which must hold w, under the projection onto w's free columns.

        That projection is reduction modulo w read off at the columns that
        are not w's pivots. Each of w's pivots is one of self's, and self's
        other rows are zero at them, so they are already reduced: dropped
        to the free columns they are the canonical RREF of the image, and
        the rows at w's pivots are not needed.
        """
        free = np.ones(self._ambient, dtype=bool)
        free[list(w.pivots)] = False
        pivots = np.array(self._pivots, dtype=np.intp)
        keep = free[pivots]
        kept = pivots[keep]
        # a free column's position among the free columns: less the pivots of w before it
        kept -= np.searchsorted(w.pivots, kept)
        return Subspace(self._ambient - w.dim, F2Matrix._wrap(self._basis.a[keep][:, free]), tuple(kept.tolist()))

    def direct_sum(self, other: "Subspace") -> "Subspace":
        """self in the first coordinates and other in the rest, with no elimination.

        The bases placed block-diagonally are already the canonical RREF:
        each block's pivot columns are zero in the other block's rows.
        """
        return Subspace(
            self._ambient + other._ambient,
            block_diag(self._basis, other._basis),
            self._pivots + tuple(self._ambient + p for p in other._pivots),
        )

    def perp(self) -> "Subspace":
        """Orthogonal complement w.r.t. the standard bilinear form."""
        if self.dim == 0:
            return Subspace.full(self._ambient)
        return kernel_basis(self._basis)

    def enumerate(self):
        """Yield every element (2**dim of them); caller checks the dimension."""
        k = self.dim
        b = self._basis.a
        for mask in range(1 << k):
            v = np.zeros(self._ambient, dtype=np.uint8)
            for i in range(k):
                if (mask >> i) & 1:
                    v ^= b[i]
            yield v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self._ambient == other._ambient
            and self._basis == other._basis
        )

    def __hash__(self) -> int:
        return hash((self._ambient, self._basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self._ambient})"


def kernel_basis(m: F2Matrix) -> Subspace:
    """Basis of {x : m @ x = 0}, canonicalized to RREF, from one elimination.

    m is reduced with its columns reversed. In reversed coordinates the
    kernel vector of free column f' is 1 at f' and otherwise supported on
    pivots left of f'. Reversed back, its leading 1 sits at n-1-f', a
    column that is zero in every other kernel vector. So the vectors,
    ordered by n-1-f', are already the canonical RREF of the kernel, with
    pivots n-1-f'. A matrix with no rows needs no elimination, and nor
    does one row: reversed, it is its own RREF, with its pivot at its
    first 1, or none when it is zero.
    """
    n = m.cols
    if not m.rows:
        return Subspace.full(n)
    flipped = m.a[:, ::-1]
    if m.rows == 1:
        reduced, pivots = flipped, ((int(flipped[0].argmax()),) if flipped.any() else ())
    else:
        res = rref(F2Matrix._wrap(flipped), transform=False)
        reduced, pivots = res.reduced.a, res.pivots
    free = free_columns(pivots, n)[::-1]
    vecs = free_column_vectors(reduced, pivots, free)
    return Subspace(n, F2Matrix._wrap(vecs[:, ::-1]), tuple(n - 1 - f for f in free))


def free_columns(pivots: Sequence[int], n: int) -> list[int]:
    """The columns 0..n-1 that are not among ``pivots``, ascending."""
    pivot_set = set(pivots)
    return [j for j in range(n) if j not in pivot_set]


def free_column_vectors(reduced: np.ndarray, pivots: Sequence[int], free: Sequence[int]) -> np.ndarray:
    """The null vector of RREF rows ``reduced`` for each column in ``free``, as rows.

    Row j is 1 at column ``free[j]``, holds that column's entries of the
    reduced rows at ``pivots``, and is 0 elsewhere.
    """
    vecs = np.zeros((len(free), reduced.shape[1]), dtype=np.uint8)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, list(pivots)] = reduced[: len(pivots), free].T
    return vecs


def image_basis(m: F2Matrix) -> Subspace:
    """Column-space basis of m (as a map into F2^rows)."""
    return Subspace.from_matrix_rows(m.T)


def solve(m: F2Matrix, b) -> np.ndarray | None:
    """One solution of m @ x = b (pivot solution, free variables 0), or None."""
    return Elimination(m).solve(b)


def _reduce_rows(a: np.ndarray, w: Subspace) -> np.ndarray:
    """Each row of ``a`` with w's pivot entries cleared by w's RREF rows; ``a`` itself modulo the zero space."""
    return a ^ _mul(a[:, list(w.pivots)], w.basis.a) if w.dim else a


def coset_reduce(v, w: Subspace) -> np.ndarray:
    """The unique representative of v + w with zeros in w's pivot columns."""
    return as_bit_vector(_reduce_rows(as_bit_vector(v, w.ambient_dim)[None, :], w)[0])


def quotient_basis(ambient: int, u: Subspace, w: Subspace) -> list[np.ndarray]:
    """Coset representatives of a basis of u/w, in u's basis order.

    They are the members of u's basis whose pivots are not w's pivots,
    and finding them needs no elimination. As w lies in u, each of w's
    pivots is one of u's, so w's basis in u's basis coordinates (its
    entries at u's pivots) is already in RREF, with its pivots where w's
    pivots sit among u's. The members of u's basis at the other positions
    complete w to a basis of u.
    """
    if u.ambient_dim != ambient or w.ambient_dim != ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if not u.contains_subspace(w):
        raise NotContained("quotient_basis: w is not contained in u")
    w_pivots = set(w.pivots)
    return [u.basis.row(j) for j, c in enumerate(u.pivots) if c not in w_pivots]


def left_inverse_block(blocks: Sequence[F2Matrix]) -> F2Matrix:
    """Inverse of the horizontal concatenation of blocks (must be square)."""
    m = hstack(list(blocks))
    if m.rows != m.cols:
        raise DimensionMismatch(f"concatenation is {m.rows}x{m.cols}, not square")
    res = rref(m)
    if res.rank != m.rows:
        raise SingularMatrix("block concatenation is singular")
    return res.transform


def invert(m: F2Matrix) -> F2Matrix:
    return left_inverse_block([m])


# --- shared text format -----------------------------------------------------
#
# Matrix files: first line "rows cols", then one line of space-free 0/1
# characters per row. Section files: "name:" lines introduce a block whose
# body is a matrix (or other literal) in this format.


def bit_lines(a: np.ndarray) -> str:
    """Each row of a 2-D 0/1 uint8 array as '0'/'1' characters and a newline."""
    lines = np.hstack([a + ord("0"), np.full((a.shape[0], 1), ord("\n"), dtype=np.uint8)])
    return lines.tobytes().decode()


def format_matrix(m: F2Matrix) -> str:
    """The header line, then each row as ``bit_lines`` writes it."""
    return f"{m.rows} {m.cols}\n" + bit_lines(m.a)


_HEADER_RE = re.compile(r"[0-9]+")
_NOT_BIT_RE = re.compile(r"[^01]")


def parse_matrix(text: str) -> F2Matrix:
    lines = text.splitlines()
    if not lines:
        raise MalformedInput("empty matrix text")
    head = lines[0].split()
    if len(head) != 2 or not all(_HEADER_RE.fullmatch(h) for h in head):
        raise MalformedInput(f"bad matrix header: {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    body = [line.strip() for line in lines[1 : 1 + rows]]
    found = len(body) + sum(1 for line in lines[1 + rows :] if line.strip())
    if found != rows:
        raise MalformedInput(f"expected {rows} rows, found {found}")
    # the whole body at once: every row cols long and every byte '0' or '1', so
    # the body is ASCII and has rows * cols bytes; the rows are read one by one
    # only to name the first bad one
    a = np.frombuffer("".join(body).encode("utf-8", "surrogatepass"), dtype=np.uint8) - ord("0")
    if not set(map(len, body)) <= {cols} or (a > 1).any():
        for i, line in enumerate(body):
            if len(line) != cols:
                raise MalformedInput(f"row {i} has {len(line)} entries, expected {cols}")
            bad = _NOT_BIT_RE.search(line)
            if bad:
                raise MalformedInput(f"bad character {bad.group()!r} in matrix row {i}")
    return F2Matrix._wrap(a.reshape(rows, cols))


def section_matrix(sections: dict[str, str], name: str) -> F2Matrix:
    """The matrix in the required section ``name:`` of a section file.

    A missing or malformed section raises MalformedInput naming it.
    """
    if name not in sections:
        raise MalformedInput(f"missing section '{name}:'", section=name)
    try:
        return parse_matrix(sections[name])
    except MalformedInput as exc:
        exc.section = name
        raise


# a header line, from the newline before it: its name, and what follows the colon on the line
_SECTION_RE = re.compile(r"\n[^\S\n]*([A-Za-z_][A-Za-z0-9_]*):[^\S\n]*([^\n]*)")


def split_sections(text: str, names: Sequence[str]) -> dict[str, str]:
    """Split "name:"-introduced blocks of a section file into raw bodies.

    A header with trailing content on the same line ("orientation: Z")
    becomes a plain key/value entry. A section not among ``names``, or one
    given twice, raises MalformedInput naming it. The headers are found in
    one pass over the text, its lines (as ``str.splitlines`` splits them)
    joined by newlines; a header is a line whose first non-blank
    characters are a name and a colon.
    """
    text = "\n" + "\n".join(text.splitlines())
    sections: dict[str, str] = {}
    name, start = None, 0  # the open section, and where the text after the last header starts
    for m in chain(_SECTION_RE.finditer(text), (None,)):
        gap = text[start : None if m is None else m.start()]
        if name is not None:
            sections[name] = gap.strip("\n")
        elif gap.strip():
            line = next(line for line in gap.split("\n") if line.strip())
            raise MalformedInput(f"unexpected line outside any section: {line!r}")
        if m is None:
            return sections
        key, value = m.groups()
        if key not in names:
            raise MalformedInput(f"unknown section '{key}:', expected one of {', '.join(names)}", section=key)
        if key in sections:
            raise MalformedInput(f"section '{key}:' is given twice", section=key)
        if value:
            sections[key] = value.strip()
        name, start = (None if value else key), m.end()
