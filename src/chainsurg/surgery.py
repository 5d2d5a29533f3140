"""Subcodes, quotient merges, splits, and the induced logical maps.

A merge is the quotient of a code complex by a subcode; the projection
is a surjective preserving code map and the induced homology map is the
logical operation. X-type surgery runs the same machinery on transposed
complexes.

``quotient_merge`` builds the projection only, computing each GF(2)
product once. The default coset representatives of a degree are the unit
vectors at the subcode space's free columns F (``Subspace.free_units``),
so a product with their section is a selection of the columns F, and
along a zero space the section and the projection are both the identity,
which multiplies nothing. A merge stores only supplied representatives;
its sections are built the first time they are read, which only
simulation does. The products p1 d2 and p0 d1 that give the quotient's
boundaries are also the left sides of the chain-map squares
``validate_chain_map`` checks, and along a zero V2 the right side q_d2 p2
is q_d2. The inclusion of the subcode's own complex, ``MergeResult.i``,
is built and validated the first time it is read. ``split_from_merge``
checks and returns the dual split each time it is called: it checks
p @ section = I in every degree, which for default representatives
reads p at the columns F and takes no product.

What the parent's RREFs already say is read, not eliminated again, when
the merged complex's spaces are first read: with the default degree-1
coset reps, the merged complex's boundaries are p1(B), and its cycles
are p1(K + V1) when V0 = d1(V1), where B and K are the parent's
boundaries and cycles. Each is the parent's space with V1's
rows inserted (``Subspace.sum``, which eliminates only V1's rows reduced
modulo it) and V1's pivot rows and columns dropped (``Subspace.project``).
Whether V0 = d1(V1) costs no test: closure gives d1(V1) <= V0, and
dim d1(V1) is the rank V1's rows gain over K in that same insertion.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jsontext
from .chaincomplex import (
    ChainComplex,
    ChainMap,
    HomologyBasis,
    direct_sum,
    homology,
    induced_on_homology,
    validate,
    validate_chain_map,
)
from .errors import (
    ClosureViolated,
    DimensionMismatch,
    MalformedInput,
    NotSurjective,
    SingularMatrix,
)
from .f2linalg import (
    F2Matrix,
    Subspace,
    _mul,
    as_bit_vector,
    format_matrix,
    free_column_vectors,
    image_basis,
    invert,
    kernel_basis,
    rank,
    rref,
    section_matrix,
    split_sections,
    vstack,
)

# the schema id of every JSON report, stated in docs/report_schema.json
REPORT_SCHEMA = "chainsurg-report/1"


@dataclass(frozen=True)
class Subcode:
    """Degree-wise subspaces of a parent complex, closed under boundaries.

    For orientation "Z" closure means d2(v2) <= v1 and d1(v1) <= v0; for
    orientation "X" the transposed conditions hold (d2.T(v1) <= v2 and
    d1.T(v0) <= v1), i.e. the same data is a chain subcode of the
    transposed parent with degrees relabelled 2 <-> 0.
    """

    parent: ChainComplex
    v2: Subspace
    v1: Subspace
    v0: Subspace
    orientation: str = "Z"

    def oriented_parent(self) -> ChainComplex:
        return self.parent if self.orientation == "Z" else self.parent.transpose()

    def oriented_spaces(self) -> tuple[Subspace, Subspace, Subspace]:
        """(degree2, degree1, degree0) spaces of the oriented parent."""
        if self.orientation == "Z":
            return (self.v2, self.v1, self.v0)
        return (self.v0, self.v1, self.v2)

    def dims(self) -> tuple[int, int, int]:
        return (self.v2.dim, self.v1.dim, self.v0.dim)

    def own_complex(self) -> ChainComplex:
        """The subcode as a standalone complex in its own basis coordinates.

        Boundaries are the parent's, restricted and re-expressed in the
        RREF bases of the oriented subspaces.
        """
        parent = self.oriented_parent()
        s2, s1, s0 = self.oriented_spaces()
        d2 = _restricted_boundary(parent.d2, s2, s1)
        d1 = _restricted_boundary(parent.d1, s1, s0)
        return validate(d2=d2, d1=d1)

    def to_text(self) -> str:
        text = f"orientation: {self.orientation}\n"
        for name, space in (("v2", self.v2), ("v1", self.v1), ("v0", self.v0)):
            text += f"{name}:\n" + format_matrix(space.basis)
        return text

    @classmethod
    def from_text(cls, text: str, parent: ChainComplex) -> "Subcode":
        """The subcode of a section file; an orientation other than Z or X, or a
        space whose width is not its parent degree's, raises MalformedInput naming
        its section. Closure is checked as ``validate_subcode`` checks it."""
        sections = split_sections(text, ("orientation", "v2", "v1", "v0"))
        orientation = sections.get("orientation", "Z").strip().upper()
        if orientation not in ("Z", "X"):
            raise MalformedInput("orientation must be 'Z' or 'X'", section="orientation")
        spaces = []
        for name, dim in (("v2", parent.dim2), ("v1", parent.dim1), ("v0", parent.dim0)):
            rows = section_matrix(sections, name)
            if rows.cols != dim:
                raise MalformedInput(f"{name} has {rows.cols} columns, expected {dim}", section=name)
            spaces.append(Subspace.from_matrix_rows(rows))
        return validate_subcode(parent, *spaces, orientation)


def _restricted_boundary(d: F2Matrix, src: Subspace, tgt: Subspace) -> F2Matrix:
    """Matrix of d restricted to src, in the bases of src and tgt."""
    image = d @ src.basis.T
    if not tgt.contains_rows(image.T):
        raise ClosureViolated(0, "restricted boundary leaves the target subspace")
    # tgt's basis is in RREF, so a member's coordinates are its pivot entries.
    return F2Matrix._wrap(image.a[list(tgt.pivots)])


def validate_subcode(
    parent: ChainComplex,
    v2: Subspace,
    v1: Subspace,
    v0: Subspace,
    orientation: str = "Z",
) -> Subcode:
    """Check ambient dimensions and boundary closure; raise ClosureViolated."""
    if orientation not in ("Z", "X"):
        raise DimensionMismatch("orientation must be 'Z' or 'X'")
    expect = (parent.dim2, parent.dim1, parent.dim0)
    got = (v2.ambient_dim, v1.ambient_dim, v0.ambient_dim)
    if expect != got:
        raise DimensionMismatch(f"subspace ambient dims {got} do not match parent {expect}")
    sub = Subcode(parent=parent, v2=v2, v1=v1, v0=v0, orientation=orientation)
    oriented = sub.oriented_parent()
    s2, s1, s0 = sub.oriented_spaces()
    # row i of basis @ d.T is d applied to basis row i; a zero space needs no product
    if s2.dim and not s1.contains_rows(s2.basis @ oriented.d2.T):
        raise ClosureViolated(2)
    if s1.dim and not s0.contains_rows(s1.basis @ oriented.d1.T):
        raise ClosureViolated(1)
    return sub


def _complement_reps(ambient: int, sub: Subspace, supplied: Sequence) -> list[np.ndarray]:
    """User-supplied representatives, as many as F2^ambient / sub has dimensions.

    ``_projection_matrix`` inverts them stacked with sub's basis, which
    checks that they are a basis of the quotient.
    """
    reps = [as_bit_vector(v, ambient) for v in supplied]
    if len(reps) != ambient - sub.dim:
        raise DimensionMismatch(
            f"need {ambient - sub.dim} quotient basis vectors, got {len(reps)}"
        )
    return reps


def _projection_matrix(ambient: int, sub: Subspace, reps: list[np.ndarray] | None) -> F2Matrix:
    """Matrix of the coset projection in the basis [reps].

    ``reps=None`` stands for the default reps, ``sub.free_units()``. The
    projection then has a closed form: with P the pivots of sub's RREF
    basis S and F its free columns, p[:, F] = I and p[:, P] = S[:, F].T,
    since x - sum_i x[P_i] S_i is zero on P and has the coordinates
    x[F] - S[:, F].T x[P] on the unit vectors of F. Its rows are the null
    vectors of S's free columns, the identity along the zero space, and
    it is the unique inverse the supplied-reps path computes for those
    reps.
    """
    if reps is None:
        return F2Matrix._wrap(free_column_vectors(sub.basis.a, sub.pivots, sub.free))
    if not reps:
        return F2Matrix.zeros(0, ambient)
    system = F2Matrix.from_rows(reps + list(sub.basis_vectors()), cols=ambient).T
    try:
        inverse = invert(system)
    except SingularMatrix:
        raise DimensionMismatch("supplied quotient basis is not a complement of the subcode") from None
    return F2Matrix._wrap(inverse.a[: len(reps)])


def _times_section(a: np.ndarray, sub: Subspace, section: F2Matrix | None) -> np.ndarray:
    """a @ the section of sub's coset reps (``section=None`` for the default ones).

    The default section is the unit columns at sub's free columns, so the
    product is a column selection, and along the zero space it is ``a``.
    ``a`` may be a vector.
    """
    if section is not None:
        return _mul(a, section.a)
    return a[..., sub.free] if sub.dim else a


@dataclass(frozen=True)
class MergeResult:
    """A quotient merge: complexes, the projection p, and the inclusion i.

    All maps live in the oriented frame (transposed complexes for
    X-orientation); ``merged_complex()`` converts back to the code frame.
    """

    quotient: ChainComplex
    p: ChainMap
    subcode: Subcode
    # per degree 2, 1, 0: the supplied coset representatives as columns, None for the default ones
    supplied: tuple[F2Matrix | None, F2Matrix | None, F2Matrix | None]

    @property
    def orientation(self) -> str:
        return self.subcode.orientation

    @property
    def source(self) -> ChainComplex:
        """The oriented parent, which p maps from."""
        return self.subcode.oriented_parent()

    @cached_property
    def sections(self) -> tuple[F2Matrix, F2Matrix, F2Matrix]:
        """Per degree 2, 1, 0, the section whose columns are the coset representatives, built when first read."""
        return tuple(
            space.free_units() if section is None else section
            for space, section in zip(self.subcode.oriented_spaces(), self.supplied)
        )

    def times_section(self, degree: int, a: np.ndarray) -> np.ndarray:
        """a @ the section at ``degree``: a column selection for the default reps."""
        return _times_section(a, self.subcode.oriented_spaces()[2 - degree], self.supplied[2 - degree])

    @cached_property
    def i(self) -> ChainMap:
        """The inclusion of the subcode's own complex, validated when first read."""
        return validate_chain_map(
            self.subcode.own_complex(),
            self.source,
            *(space.basis.T for space in self.subcode.oriented_spaces()),
        )

    def merged_complex(self) -> ChainComplex:
        """The merged code's complex in chain (Z) orientation."""
        if self.orientation == "Z":
            return self.quotient
        return self.quotient.transpose()

    def reps_at(self, degree: int) -> tuple[np.ndarray, ...]:
        return tuple(self.sections[2 - degree].T.a)


def quotient_merge(
    parent: ChainComplex,
    sub: Subcode,
    quotient_bases: dict[int, Sequence] | None = None,
) -> MergeResult:
    """Quotient of parent by the subcode, with deterministic bases.

    ``quotient_bases`` optionally supplies coset representatives per
    degree (in the oriented frame) replacing the pivot-complement rule.
    With the default degree-1 representatives, the quotient's cycles and
    boundaries are read off the parent's (``_projected_spaces``) when
    first read, not when the merge is built: a plan's merge reads neither.
    """
    if sub.parent != parent:
        raise DimensionMismatch("subcode was validated against a different parent")
    oriented = sub.oriented_parent()
    spaces = sub.oriented_spaces()
    given = quotient_bases or {}
    supplied, projections = [], []
    for degree, space in zip((2, 1, 0), spaces):
        ambient, reps = oriented.dim(degree), given.get(degree)
        if reps is not None:
            reps = _complement_reps(ambient, space, reps)
        supplied.append(None if reps is None else F2Matrix.from_rows(reps, cols=ambient).T)
        projections.append(_projection_matrix(ambient, space, reps))
    p2, p1, p0 = projections
    # the default projection along a zero space is the identity, which multiplies nothing
    identity = [section is None and not space.dim for space, section in zip(spaces, supplied)]
    # each product once: p1 d2 and p0 d1 give the quotient's boundaries and both squares' left sides
    p1_d2 = oriented.d2 if identity[1] else F2Matrix._wrap(_mul(p1.a, oriented.d2.a))
    p0_d1 = oriented.d1 if identity[2] else F2Matrix._wrap(_mul(p0.a, oriented.d1.a))
    q_d2 = F2Matrix._wrap(_times_section(p1_d2.a, spaces[0], supplied[0]))
    q_d1 = F2Matrix._wrap(_times_section(p0_d1.a, spaces[1], supplied[1]))
    quotient = validate(d2=q_d2, d1=q_d1)
    if supplied[1] is None:
        quotient._seed(lambda: _projected_spaces(oriented, spaces[1], spaces[2], q_d2, q_d1))
    # along a zero V2 the default p2 is the identity, so q_d2 @ p2 is q_d2
    p = validate_chain_map(oriented, quotient, p2, p1, p0, p1_d2, p0_d1, q_d2 if identity[0] else None)
    return MergeResult(quotient=quotient, p=p, subcode=sub, supplied=tuple(supplied))


def _projected_spaces(
    parent: ChainComplex, v1: Subspace, v0: Subspace, q_d2: F2Matrix, q_d1: F2Matrix
) -> tuple[Subspace | None, Subspace | None]:
    """(cycles, boundaries) of the quotient by the default degree-1 reps, or None where not read off.

    It runs, and reads the parent's spaces, on the quotient's first read of either space.

    With p1 the default projection, im q_d2 = p1(B): the degree-2 reps
    and V2 span C2, and d2(V2) lies in V1 = ker p1. The cycles are the x
    with d1(s1 x) in V0, which is p1(K + V1) when V0 = d1(V1). Closure
    gives d1(V1) <= V0, and dim d1(V1) is the rank V1's rows gain over K,
    dim(K + V1) - dim K, so comparing dimensions decides it; otherwise the
    cycles are left to ``kernel_basis``. V0 = 0 needs no test and no sum:
    then V1 <= K. A zero q_d2 or q_d1 needs no sum either.
    """
    dim = parent.dim1 - v1.dim
    boundaries = Subspace.zero(dim) if q_d2.is_zero() else parent.boundaries.sum(v1).project(v1)
    if q_d1.is_zero():
        return Subspace.full(dim), boundaries
    if not v0.dim:
        return parent.cycles.project(v1), boundaries
    cycles = parent.cycles.sum(v1)
    if cycles.dim - parent.cycles.dim != v0.dim:
        return None, boundaries
    return cycles.project(v1), boundaries


def split_from_merge(m: MergeResult) -> ChainMap:
    """The injective preserving code map dual to the merge (its transpose).

    The section spanned by the merge's coset representatives is a right
    inverse of p in every degree, so p's transpose is injective. Each
    degree checks p @ section = I: a default section is the unit columns
    at its free positions, so p is read there, and supplied
    representatives take one product.
    """
    for deg in (2, 1, 0):
        comp = m.p.component(deg)
        if not np.array_equal(m.times_section(deg, comp.a), np.eye(comp.rows, dtype=np.uint8)):
            raise DimensionMismatch("split component is not injective; merge corrupted")
    return m.p.transpose()


def span_merge(f: ChainMap, g: ChainMap) -> MergeResult:
    """Merge of f.tgt and g.tgt along a common apex, as a quotient merge.

    The subcode is the image of (f, g) inside the direct sum; the result
    equals the pushout of the span.
    """
    if f.src != g.src:
        raise DimensionMismatch("span legs have different apex complexes")
    total = direct_sum(f.tgt, g.tgt)
    spaces = []
    for deg in (2, 1, 0):
        fa = f.component(deg)
        ga = g.component(deg)
        stacked = vstack([fa, ga])  # (dim f.tgt + dim g.tgt) x dim apex
        spaces.append(image_basis(stacked))
    sub = validate_subcode(total, spaces[0], spaces[1], spaces[2], orientation="Z")
    return quotient_merge(total, sub)


def merge_decompose(p: ChainMap) -> tuple[MergeResult, ChainMap]:
    """Factor a surjective preserving code map as iso . quotient_merge.

    ``p`` lives in whatever frame the caller works in (pass transposed
    maps for X-type surgery). Returns the quotient merge along ker(p)
    and the isomorphism sigma with sigma . p_tilde = p degree-wise.
    """
    for deg in (2, 1, 0):
        comp = p.component(deg)
        if rank(comp) != comp.rows:
            raise NotSurjective(deg)
    kernels = {deg: kernel_basis(p.component(deg)) for deg in (2, 1, 0)}
    sub = validate_subcode(p.src, kernels[2], kernels[1], kernels[0], orientation="Z")
    merge = quotient_merge(p.src, sub)
    sigma_parts = {}
    for deg in (2, 1, 0):
        reps = merge.reps_at(deg)
        cols = [p.component(deg) @ r for r in reps]
        if cols:
            sigma_parts[deg] = F2Matrix.from_rows(cols, cols=p.component(deg).rows).T
        else:
            sigma_parts[deg] = F2Matrix.zeros(p.component(deg).rows, 0)
    sigma = validate_chain_map(
        merge.quotient, p.tgt, sigma_parts[2], sigma_parts[1], sigma_parts[0]
    )
    for deg in (2, 1, 0):
        comp = sigma.component(deg)
        if comp.rows != comp.cols or rank(comp) != comp.rows:
            raise NotSurjective(deg, "sigma is not an isomorphism; decomposition failed")
    return merge, sigma


@dataclass(frozen=True)
class ExactSequenceReport:
    """What the homology long exact sequence says about one merge.

    ``surjective_guaranteed`` / ``injective_guaranteed`` are the
    exact-sequence flags (H0(V) = 0 resp. H1(V) = 0); when both are False the
    sequence alone makes no claim and callers must inspect the matrix.
    ``matrix_surjective`` / ``matrix_injective`` report the actual rank
    facts of the induced map.
    """

    orientation: str
    h1_subcode_dim: int
    h0_subcode_dim: int
    surjective_guaranteed: bool
    injective_guaranteed: bool
    matrix_surjective: bool
    matrix_injective: bool
    induced_matrix: F2Matrix
    killed_coords: F2Matrix  # classes of im(i1*) in source logical coordinates
    created_coords: F2Matrix  # complement basis of im(p1*) in quotient coordinates
    source_basis: HomologyBasis

    @property
    def killed_count(self) -> int:
        return self.killed_coords.rows

    @property
    def created_count(self) -> int:
        return self.created_coords.rows

    def dims_label(self) -> dict[str, int]:
        if self.orientation == "Z":
            return {"H1(V)": self.h1_subcode_dim, "H0(V)": self.h0_subcode_dim}
        return {"H^1(W)": self.h1_subcode_dim, "H^2(W)": self.h0_subcode_dim}

    def to_json_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "subcode_homology": self.dims_label(),
            "surjective_guaranteed": self.surjective_guaranteed,
            "injective_guaranteed": self.injective_guaranteed,
            "matrix_surjective": self.matrix_surjective,
            "matrix_injective": self.matrix_injective,
            "induced_matrix": self.induced_matrix.a,
            "killed": self.killed_coords.a,
            "created": self.created_coords.a,
        }


def analyze_merge(m: MergeResult) -> ExactSequenceReport:
    """Homology analysis of a merge via the subcode's own complex."""
    own = m.subcode.own_complex()
    h1v = homology(own, 1)
    # rank-nullity: dim H0(V) = dim V0 - rank d1 = dim V0 - dim V1 + dim ker d1
    h0_dim = own.dim0 - own.dim1 + own.cycles.dim
    src_basis = homology(m.source, 1)
    tgt_basis = homology(m.quotient, 1)
    induced = induced_on_homology(m.p, 1, src_basis, tgt_basis)
    # im(p1*) is the induced matrix's column space, so its dimension is the matrix's rank
    img = image_basis(induced)
    matrix_surjective = img.dim == tgt_basis.dim
    matrix_injective = img.dim == src_basis.dim

    # killed classes: im(i1*) expressed in the source logical basis, one
    # column per subcode class; a trivial class has zero coordinates
    embedded = h1v.matrix() @ m.subcode.v1.basis
    if not src_basis.kernel.contains_rows(embedded):
        raise DimensionMismatch("vector is not a cycle at this degree")
    coords = src_basis._coordinates(embedded.a).a
    killed = coords[:, coords.any(axis=0)]

    # created classes: complement of im(p1*) in the quotient basis, one unit vector each
    created = img.free_units().T
    return ExactSequenceReport(
        orientation=m.orientation,
        h1_subcode_dim=h1v.dim,
        h0_subcode_dim=h0_dim,
        surjective_guaranteed=h0_dim == 0,
        injective_guaranteed=h1v.dim == 0,
        matrix_surjective=matrix_surjective,
        matrix_injective=matrix_injective,
        induced_matrix=induced,
        killed_coords=_independent_columns(killed),
        created_coords=created,
        source_basis=src_basis,
    )


def _independent_columns(columns: np.ndarray) -> F2Matrix:
    """The columns a greedy scan keeps, as rows: each one independent of those kept before it.

    Column i is kept exactly when it is a pivot column.
    """
    kept = rref(F2Matrix._wrap(columns), transform=False).pivots
    return F2Matrix._wrap(columns.T[list(kept)])


def induced_logical_matrix(
    m: MergeResult,
    src_basis: HomologyBasis,
    tgt_basis: HomologyBasis,
) -> F2Matrix:
    """Matrix of the induced degree-1 logical map in the given bases."""
    return induced_on_homology(m.p, 1, src_basis, tgt_basis)


def merge_report_json(m: MergeResult, report: ExactSequenceReport) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "type": "merge",
        "orientation": m.orientation,
        "source_dims": [m.source.dim2, m.source.dim1, m.source.dim0],
        "quotient_dims": [m.quotient.dim2, m.quotient.dim1, m.quotient.dim0],
        "subcode_dims": list(m.subcode.dims()),
        "p1": m.p.f1.a,
        "analysis": report.to_json_dict(),
    }
    return jsontext.dumps(doc)
