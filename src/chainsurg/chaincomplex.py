"""Length-2 chain complexes over GF(2), their homology, and chain maps.

A complex is the pair (d2: C2 -> C1, d1: C1 -> C0) with d1 @ d2 = 0.
Cochain statements are implemented by transposition: the cochain complex
of C is the chain complex (d1.T, d2.T), with degree n mapped to 2 - n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonZeroComposition, SquareDoesNotCommute
from .f2linalg import (
    F2Matrix,
    RrefResult,
    Subspace,
    _mul,
    _reduce_rows,
    as_bit_vector,
    block_diag,
    format_matrix,
    image_basis,
    kernel_basis,
    rref,
    section_matrix,
    split_sections,
)


@dataclass(frozen=True)
class ChainComplex:
    """Boundary pair (d2, d1) with d1 @ d2 = 0.

    The degree-1 spaces are computed once per complex and shared:
    ``cycles`` is ker d1 and ``boundaries`` is im d2. ``transpose()`` is
    memoised, so the cocycles and coboundaries are the transposed
    complex's ``cycles`` and ``boundaries``, and transposing twice gives
    back this object. A builder that can read the spaces off others sets
    a function for them with ``_seed``, as ``direct_sum`` and
    ``surgery.quotient_merge`` do; it is called on the first read of
    either space, and a space it does not know is eliminated.
    """

    d2: F2Matrix
    d1: F2Matrix

    @property
    def dim2(self) -> int:
        return self.d2.cols

    @property
    def dim1(self) -> int:
        return self.d1.cols

    @property
    def dim0(self) -> int:
        return self.d1.rows

    def dim(self, degree: int) -> int:
        return (self.dim0, self.dim1, self.dim2)[degree]

    @cached_property
    def cycles(self) -> Subspace:
        """ker d1, the degree-1 cycles."""
        return self._read_off().get("cycles") or kernel_basis(self.d1)

    @cached_property
    def boundaries(self) -> Subspace:
        """im d2, the degree-1 boundaries."""
        return self._read_off().get("boundaries") or image_basis(self.d2)

    def _read_off(self) -> dict[str, Subspace]:
        """The spaces the function ``_seed`` set reads off, cached as read: it runs at most once."""
        read = self.__dict__.pop("_reader", None)
        spaces = () if read is None else zip(("cycles", "boundaries"), read())
        known = {name: space for name, space in spaces if space is not None}
        self.__dict__.update(known)
        return known

    @cached_property
    def _transposed(self) -> "ChainComplex":
        t = ChainComplex(d2=self.d1.T, d1=self.d2.T)
        t.__dict__["_transposed"] = self
        return t

    def transpose(self) -> "ChainComplex":
        """The cochain complex viewed as a chain complex (degree n -> 2 - n)."""
        return self._transposed

    def _seed(self, read: Callable[[], tuple[Subspace | None, Subspace | None]]) -> None:
        """Have the first read of the degree-1 spaces take (cycles, boundaries) from ``read()``."""
        self.__dict__["_reader"] = read

    def to_text(self) -> str:
        return "d2:\n" + format_matrix(self.d2) + "d1:\n" + format_matrix(self.d1)

    @classmethod
    def from_text(cls, text: str) -> "ChainComplex":
        sections = split_sections(text, ("d2", "d1"))
        return validate(section_matrix(sections, "d2"), section_matrix(sections, "d1"))


def validate(d2: F2Matrix, d1: F2Matrix) -> ChainComplex:
    """Build a ChainComplex, rejecting pairs whose composition is nonzero."""
    if d1.cols != d2.rows:
        raise DimensionMismatch(
            f"middle space mismatch: d1 has {d1.cols} columns, d2 has {d2.rows} rows"
        )
    if d2.cols and d1.rows and not (d1 @ d2).is_zero():
        raise NonZeroComposition("d1 @ d2 != 0")
    return ChainComplex(d2=d2, d1=d1)


@dataclass(frozen=True)
class HomologyBasis:
    """Chosen representatives of degree-1 homology: rows of cycles of a complex.

    The kernel and image are the complex's cycles and boundaries, so they
    are computed once per complex, and only when read. ``homology`` takes
    degrees 0 and 2 as degree 1 of a complex built for them.

    Class coordinates are read from the class system: the RREF of the k
    representatives reduced modulo the image, with its k x k row
    transform. ``homology`` and ``_basis_from_rows`` know it already and
    seed it; any other basis eliminates its k rows on first use.

    ``matrix()`` is ``rows``, and the representatives are its rows. Two
    bases are equal when their matrices, kernels and images are.
    """

    rows: F2Matrix
    complex: ChainComplex

    @property
    def kernel(self) -> Subspace:
        return self.complex.cycles

    @property
    def image(self) -> Subspace:
        return self.complex.boundaries

    @cached_property
    def representatives(self) -> tuple[np.ndarray, ...]:
        return tuple(self.rows.a)

    @property
    def dim(self) -> int:
        return self.rows.rows

    @property
    def ambient_dim(self) -> int:
        return self.complex.dim1

    def matrix(self) -> F2Matrix:
        """Representatives stacked as rows (dim x ambient)."""
        return self.rows

    def _key(self) -> tuple:
        return self.matrix(), self.kernel, self.image

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def _class_system(self) -> tuple[list[int], np.ndarray]:
        """(pivots, [R | T]): the RREF rows R of the reduced representatives, with transform rows T.

        Only the rank rows are kept. Reduction modulo the image is linear
        and kills the image, so a cycle's class is spanned by the basis
        exactly when its reduction w is y @ R, where y is w at the pivots,
        and its coordinates are then y @ T.
        """
        return _class_rows(rref(F2Matrix._wrap(_reduce_rows(self.matrix().a, self.image))))

    def _seed(self, reduced: RrefResult) -> "HomologyBasis":
        """This basis, with ``reduced`` (the RREF of its reduced representatives) as its class system."""
        self.__dict__["_class_system"] = _class_rows(reduced)
        return self

    def _coordinates(self, cycles: np.ndarray) -> F2Matrix:
        """Class coordinates of each row of ``cycles``, as columns: one product for all rows."""
        return self._reduced_coordinates(_reduce_rows(cycles, self.image))

    def _reduced_coordinates(self, w: np.ndarray) -> F2Matrix:
        """``_coordinates`` of cycles whose rows ``w`` are already reduced modulo the image."""
        pivots, rows = self._class_system
        n = w.shape[1]
        out = _mul(w[:, pivots], rows)
        if (out[:, :n] != w).any():
            raise DimensionMismatch("cycle not expressible in basis + boundaries")
        return F2Matrix._wrap(np.ascontiguousarray(out[:, n:].T))

    def class_coordinates(self, v) -> np.ndarray:
        """Coordinates of [v] in this basis; v must lie in the kernel."""
        if not self.kernel.contains(v):
            raise DimensionMismatch("vector is not a cycle at this degree")
        return self._coordinates(as_bit_vector(v)[None, :]).col(0)

    def is_trivial_class(self, v) -> bool:
        """Whether v is a boundary: the image lies in the kernel, so one reduction decides."""
        return self.image.contains(v)


def _class_rows(reduced: RrefResult) -> tuple[list[int], np.ndarray]:
    """An RREF's pivots and its rank rows, with the transform's rows beside them."""
    r = reduced.rank
    return list(reduced.pivots), np.hstack([reduced.reduced.a[:r], reduced.transform.a[:r]])


def homology(c: ChainComplex, degree: int = 1) -> HomologyBasis:
    """Pivot-complement basis of ker/im at the given degree, read off ker's RREF.

    Degree 2 is degree 1 of the complex (0, d2), and degree 0 is degree 1
    of (d1, 0); a zero map has the whole space as kernel and the zero
    space as image, with no elimination. The representatives are the
    rows of ker's canonical basis whose pivots are not the image's, taken
    with one row slice. Each image pivot is another row's pivot, so they
    are zero there: already reduced modulo the image, and already in RREF
    with the identity transform, their pivots the kernel pivots that are
    not image pivots. That RREF is seeded as the class system.
    """
    if degree == 2:
        c = ChainComplex(d2=F2Matrix.zeros(c.dim2, 0), d1=c.d2)
    elif degree == 0:
        c = ChainComplex(d2=c.d1, d1=F2Matrix.zeros(0, c.dim0))
    elif degree != 1:
        raise DimensionMismatch(f"degree must be 0, 1 or 2, got {degree}")
    ker, img_pivots = c.cycles, set(c.boundaries.pivots)
    keep = [j for j, p in enumerate(ker.pivots) if p not in img_pivots]
    reps = F2Matrix._wrap(ker.basis.a[keep])
    pivots = tuple(ker.pivots[j] for j in keep)
    return HomologyBasis(reps, c)._seed(RrefResult(reps, pivots, F2Matrix.identity(len(keep))))


def cohomology(c: ChainComplex, degree: int = 1) -> HomologyBasis:
    """Cohomology at ``degree``, computed as homology of the transpose."""
    return homology(c.transpose(), 2 - degree)


@dataclass(frozen=True)
class ChainMap:
    """Three matrices making both squares with the boundary maps commute."""

    src: ChainComplex
    tgt: ChainComplex
    f2: F2Matrix
    f1: F2Matrix
    f0: F2Matrix

    def component(self, degree: int) -> F2Matrix:
        return (self.f0, self.f1, self.f2)[degree]

    def transpose(self) -> "ChainMap":
        """The cochain map tgt^ -> src^ of the transposed complexes."""
        return ChainMap(
            src=self.tgt.transpose(),
            tgt=self.src.transpose(),
            f2=self.f0.T,
            f1=self.f1.T,
            f0=self.f2.T,
        )

    def compose(self, earlier: "ChainMap") -> "ChainMap":
        """self after earlier (matrix product degree-wise)."""
        if earlier.tgt != self.src:
            raise DimensionMismatch("chain maps are not composable")
        return ChainMap(
            src=earlier.src,
            tgt=self.tgt,
            f2=self.f2 @ earlier.f2,
            f1=self.f1 @ earlier.f1,
            f0=self.f0 @ earlier.f0,
        )


def validate_chain_map(
    src: ChainComplex,
    tgt: ChainComplex,
    f2: F2Matrix,
    f1: F2Matrix,
    f0: F2Matrix,
    f1_d2: F2Matrix | None = None,
    f0_d1: F2Matrix | None = None,
    d2_f2: F2Matrix | None = None,
) -> ChainMap:
    """The chain map, checked: each component's shape, then each square.

    A caller that already holds the product f1 @ src.d2, f0 @ src.d1 or
    tgt.d2 @ f2 passes it as ``f1_d2``, ``f0_d1`` or ``d2_f2``, and it is
    not multiplied again.
    """
    shapes = {
        2: (f2, tgt.dim2, src.dim2),
        1: (f1, tgt.dim1, src.dim1),
        0: (f0, tgt.dim0, src.dim0),
    }
    for deg, (f, r, c) in shapes.items():
        if f.shape != (r, c):
            raise DimensionMismatch(f"f{deg} must be {r}x{c}, got {f.shape}")
    if (f1 @ src.d2 if f1_d2 is None else f1_d2) != (tgt.d2 @ f2 if d2_f2 is None else d2_f2):
        raise SquareDoesNotCommute(2)
    if (f0 @ src.d1 if f0_d1 is None else f0_d1) != (tgt.d1 @ f1):
        raise SquareDoesNotCommute(1)
    return ChainMap(src=src, tgt=tgt, f2=f2, f1=f1, f0=f0)


def induced_on_homology(
    f: ChainMap, degree: int, src_basis: HomologyBasis, tgt_basis: HomologyBasis
) -> F2Matrix:
    """Matrix of the homology lift [x] -> [f(x)] in the given bases."""
    pushed = f.component(degree) @ src_basis.matrix().T  # one column per representative
    if not tgt_basis.kernel.contains_rows(pushed.T):
        raise DimensionMismatch(
            "pushed representative is not a cycle; chain map or basis corrupted"
        )
    return tgt_basis._coordinates(pushed.a.T)


def direct_sum(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Block-diagonal sum; a's coordinates come first in every degree.

    The sum and its transpose are seeded (``ChainComplex._seed``) with
    a's and b's cycles and boundaries, and those of their transposes,
    placed side by side (``Subspace.direct_sum``): no elimination.
    """
    total = ChainComplex(d2=block_diag(a.d2, b.d2), d1=block_diag(a.d1, b.d1))
    total._seed(lambda: _side_by_side(a, b))
    total.transpose()._seed(lambda: _side_by_side(a.transpose(), b.transpose()))
    return total


def _side_by_side(a: ChainComplex, b: ChainComplex) -> tuple[Subspace, Subspace]:
    """The cycles and the boundaries of ``direct_sum(a, b)``, from a's and b's."""
    return a.cycles.direct_sum(b.cycles), a.boundaries.direct_sum(b.boundaries)
