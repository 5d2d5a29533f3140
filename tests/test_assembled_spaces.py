"""Spaces read off data that is already reduced, against the eliminations they replace.

Each rewrite keeps its old form here as the oracle:

* ``direct_sum`` seeds its cycles and boundaries (and its transpose's)
  with the summands' placed side by side instead of eliminating the
  block-diagonal matrices;
* ``_basis_from_rows`` ranks the k rows reduced modulo the image instead
  of the stacked (k + dim im) rows;
* class coordinates are read at the pivots of the RREF of the k
  representatives reduced modulo the image, instead of solving
  ``[reps | image basis]``;
* ``from_complex`` takes two supplied bases whose pairing is the identity
  with no rank elimination, instead of checking each basis on its own;
* ``no_check`` and ``trivial_qubit`` build their codes with no
  elimination.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.chaincomplex import (
    ChainComplex,
    ChainMap,
    HomologyBasis,
    direct_sum,
    homology,
    induced_on_homology,
)
from chainsurg.csscode import _basis_from_rows, _check_duality, dual_x_basis, from_complex
from chainsurg.errors import DimensionMismatch
from chainsurg.f2linalg import (
    Elimination,
    F2Matrix,
    Subspace,
    block_diag,
    image_basis,
    kernel_basis,
    rref,
    vstack,
)
from chainsurg.surgery import quotient_merge, validate_subcode

from test_f2linalg import rref_inputs

DENSITIES = [0.15, 0.5, 0.85]


def _bits(r, rows, cols, density):
    return (r.random_sample((rows, cols)) < density).astype(np.uint8)


@st.composite
def complexes(draw, max_dim=7):
    """A random complex; any of its three degrees may be empty."""
    dim2, dim1, dim0 = (draw(st.integers(0, max_dim)) for _ in range(3))
    density = draw(st.sampled_from(DENSITIES))
    r = np.random.RandomState(draw(st.integers(0, 2**30 - 1)))
    d2 = F2Matrix(_bits(r, dim1, dim2, density))
    # rows of d1 are combinations of vectors orthogonal to im d2
    allowed = image_basis(d2).perp()
    d1 = F2Matrix(_bits(r, dim0, allowed.dim, density)) @ allowed.basis
    return ChainComplex(d2=d2, d1=d1)


def identity_chain_map(c: ChainComplex) -> ChainMap:
    """The identity chain map of ``c``."""
    return ChainMap(
        src=c,
        tgt=c,
        f2=F2Matrix.identity(c.dim2),
        f1=F2Matrix.identity(c.dim1),
        f0=F2Matrix.identity(c.dim0),
    )


def assert_same_space(got: Subspace, want: Subspace):
    assert got.ambient_dim == want.ambient_dim
    assert got.pivots == want.pivots
    assert got.basis.shape == want.basis.shape
    assert got.basis.a.tobytes() == want.basis.a.tobytes()


# --- direct sums ---------------------------------------------------------------


class TestDirectSum:
    @settings(max_examples=150, deadline=None)
    @given(complexes(), complexes())
    def test_assembled_spaces_equal_eliminated(self, a, b):
        s = direct_sum(a, b)
        d2, d1 = block_diag(a.d2, b.d2), block_diag(a.d1, b.d1)
        assert_same_space(s.cycles, kernel_basis(d1))
        assert_same_space(s.boundaries, image_basis(d2))
        t = s.transpose()
        assert_same_space(t.cycles, kernel_basis(d2.T))
        assert_same_space(t.boundaries, image_basis(d1.T))

    @settings(max_examples=100, deadline=None)
    @given(complexes(), complexes())
    def test_assembled_spaces_need_no_elimination(self, a, b):
        for summand in (a, b):
            for side in (summand, summand.transpose()):
                side.cycles, side.boundaries  # the summands' spaces are known
        s = direct_sum(a, b)
        t = s.transpose()
        assert rref_inputs(lambda: (s.cycles, s.boundaries, t.cycles, t.boundaries)) == []
        assert t.transpose() is s

    @settings(max_examples=100, deadline=None)
    @given(complexes(), complexes())
    def test_seeded_spaces_take_no_part_in_equality(self, a, b):
        s = direct_sum(a, b)
        plain = ChainComplex(d2=s.d2, d1=s.d1)
        assert s == plain and hash(s) == hash(plain)
        assert s.transpose() == plain.transpose()
        assert type(s) is ChainComplex
        # the sum holds its boundary maps alone: its spaces come through ``_seed``
        assert [f.name for f in dataclasses.fields(s)] == ["d2", "d1"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 9), st.integers(0, 9), st.sampled_from(DENSITIES),
        st.integers(0, 2**30 - 1),
    )
    def test_subspace_direct_sum_is_canonical(self, m, n, density, seed):
        r = np.random.RandomState(seed)
        u = Subspace.from_matrix_rows(F2Matrix(_bits(r, r.randint(0, 6), m, density)))
        w = Subspace.from_matrix_rows(F2Matrix(_bits(r, r.randint(0, 6), n, density)))
        got = u.direct_sum(w)
        assert_same_space(got, Subspace.from_matrix_rows(block_diag(u.basis, w.basis)))
        res = rref(block_diag(u.basis, w.basis), transform=False)
        assert np.array_equal(res.reduced.a[: res.rank], got.basis.a)

    def test_subcode_of_a_direct_sum_matches_its_parent(self, steane):
        # a subcode validated against one direct sum is accepted by an equal one
        total = direct_sum(steane.complex, steane.complex)
        g = np.concatenate([steane.z_logical(0), steane.z_logical(0)])
        sub = validate_subcode(
            total,
            Subspace.zero(total.dim2),
            Subspace.from_vectors([g], total.dim1),
            Subspace.zero(total.dim0),
        )
        again = direct_sum(steane.complex, steane.complex)
        assert quotient_merge(again, sub).quotient == quotient_merge(total, sub).quotient


# --- supplied-basis check --------------------------------------------------------


def stacked_rank_basis_from_rows(rows: F2Matrix, cplx: ChainComplex) -> HomologyBasis:
    """The old rule: rank the rows stacked on the image basis."""
    kernel, image = cplx.cycles, cplx.boundaries
    if rows.rows:
        if rows.cols != kernel.ambient_dim:
            raise DimensionMismatch(f"expected length {kernel.ambient_dim}, got {rows.cols}")
        if not kernel.contains_rows(rows):
            raise DimensionMismatch("supplied logical representative is not a cycle")
        got = rref(F2Matrix(np.vstack([rows.a, image.basis.a])), transform=False).rank
        if got != rows.rows + image.dim:
            raise DimensionMismatch("supplied logical representatives are dependent mod stabilizers")
    if rows.rows + image.dim != kernel.dim:
        k = kernel.dim - image.dim
        raise DimensionMismatch(f"supplied {rows.rows} logical representatives for {k} logical qubits")
    return HomologyBasis(rows if rows.rows else F2Matrix.zeros(0, cplx.dim1), cplx)


def _outcome(fn, *args):
    try:
        basis = fn(*args)
    except DimensionMismatch as exc:
        return ("rejected", str(exc))
    return ("accepted", tuple(v.tobytes() for v in basis.representatives))


def _combination(r, space: Subspace, count: int) -> np.ndarray:
    """``count`` random members of ``space``, as rows."""
    coeffs = F2Matrix(_bits(r, count, space.dim, 0.5))
    return (coeffs @ space.basis).a


def _recombined_basis(r, c: ChainComplex) -> np.ndarray:
    """The canonical representatives under a random invertible map, plus random boundaries."""
    reps = homology(c, 1).matrix().a
    k = reps.shape[0]
    mix = np.eye(k, dtype=np.uint8)
    for _ in range(3 * k):
        i, j = r.randint(0, k, size=2)
        if i != j:
            mix[i] ^= mix[j]
    return (F2Matrix(mix) @ F2Matrix(reps)).a ^ _combination(r, c.boundaries, k)


EDITS = ["none", "drop", "extra_cycle", "extra_vector", "non_cycle", "dependent", "wide", "all_boundaries"]


def _edited_rows(r, c: ChainComplex, edit: str) -> F2Matrix:
    return _edit(r, c, _recombined_basis(r, c), edit)


def _edit(r, c: ChainComplex, rows: np.ndarray, edit: str) -> F2Matrix:
    rows = rows.copy()
    n = c.dim1
    if edit == "drop" and len(rows):
        rows = rows[1:]
    elif edit == "extra_cycle":
        rows = np.vstack([rows, _combination(r, c.cycles, 1)])
    elif edit == "extra_vector":
        rows = np.vstack([rows, _bits(r, 1, n, 0.5)])
    elif edit == "non_cycle" and len(rows):
        rows[r.randint(len(rows))] ^= _bits(r, 1, n, 0.5)[0]
    elif edit == "dependent" and len(rows):
        # one row replaced by a combination of the others plus a boundary
        i = r.randint(len(rows))
        others = F2Matrix(np.delete(rows, i, axis=0))
        rows[i] = (F2Matrix(_bits(r, 1, others.rows, 0.5)) @ others).a[0]
        rows[i] ^= _combination(r, c.boundaries, 1)[0]
    elif edit == "wide":
        rows = np.hstack([rows, _bits(r, len(rows), 1, 0.5)])
    elif edit == "all_boundaries":
        rows = _combination(r, c.boundaries, max(1, len(rows)))
    return F2Matrix(rows)


class TestSuppliedBasisCheck:
    @settings(max_examples=300, deadline=None)
    @given(complexes(), st.sampled_from(EDITS), st.integers(0, 2**30 - 1))
    def test_matches_stacked_rank_rule(self, c, edit, seed):
        r = np.random.RandomState(seed)
        for side in (c, c.transpose()):
            rows = _edited_rows(r, side, edit)
            want = _outcome(stacked_rank_basis_from_rows, rows, side)
            got = _outcome(_basis_from_rows, rows, side)
            assert got == want

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 0, 1, 0, 0, 0, 0]], "not a cycle"),
            ([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1]], "dependent mod stabilizers"),
            ([[1, 1, 1, 0, 1, 0, 0]], "dependent mod stabilizers"),  # a Z-stabilizer
        ],
    )
    def test_rejections_on_steane(self, steane, rows, message):
        c = steane.complex
        f = F2Matrix(rows)
        for fn in (stacked_rank_basis_from_rows, _basis_from_rows):
            with pytest.raises(DimensionMismatch, match=message):
                fn(f, c)

    def test_no_rows_for_a_code_with_logicals(self, steane):
        c = steane.complex
        want = _outcome(stacked_rank_basis_from_rows, F2Matrix.zeros(0, 7), c)
        assert _outcome(_basis_from_rows, F2Matrix.zeros(0, 7), c) == want
        assert want == ("rejected", "supplied 0 logical representatives for 1 logical qubits")


def sequential_from_complex(c: ChainComplex, z: F2Matrix, x: F2Matrix):
    """The old rule for two supplied bases: each checked on its own, then the pairing."""
    co = c.transpose()
    zb = stacked_rank_basis_from_rows(z, c)
    xb = stacked_rank_basis_from_rows(x, co)
    _check_duality(xb, zb)
    return zb, xb


def code_bases(c: ChainComplex, z: F2Matrix, x: F2Matrix):
    code = from_complex(c, z, x)
    return code.z_logicals, code.x_logicals


def _bases_outcome(fn, *args):
    try:
        bases = fn(*args)
    except DimensionMismatch as exc:
        return ("rejected", str(exc))
    return ("accepted",) + tuple(tuple(v.tobytes() for v in b.representatives) for b in bases)


class TestDualPairCertificate:
    @settings(max_examples=300, deadline=None)
    @given(complexes(), st.sampled_from(EDITS), st.sampled_from(EDITS), st.integers(0, 2**30 - 1))
    def test_matches_checking_each_basis(self, c, z_edit, x_edit, seed):
        r = np.random.RandomState(seed)
        z = _edited_rows(r, c, z_edit)
        try:
            zb = _basis_from_rows(z, c)
            x_rows = dual_x_basis(c, zb).matrix().a  # the dual, then edited
        except DimensionMismatch:
            x_rows = _recombined_basis(r, c.transpose())
        x = _edit(r, c.transpose(), x_rows, x_edit)
        assert _bases_outcome(code_bases, c, z, x) == _bases_outcome(sequential_from_complex, c, z, x)


# --- class coordinates -----------------------------------------------------------


def stacked_class_system(basis: HomologyBasis) -> Elimination:
    """The old system: [representatives | image basis] as columns."""
    return Elimination(vstack([basis.matrix(), basis.image.basis]).T)


def stacked_class_coordinates(basis: HomologyBasis, v) -> np.ndarray:
    if not basis.kernel.contains(v):
        raise DimensionMismatch("vector is not a cycle at this degree")
    x = stacked_class_system(basis).solve(v)
    if x is None:
        raise DimensionMismatch("cycle not expressible in basis + boundaries")
    return x[: basis.dim]


def stacked_induced_on_homology(f, degree, src_basis, tgt_basis) -> F2Matrix:
    pushed = f.component(degree) @ src_basis.matrix().T
    if not tgt_basis.kernel.contains_rows(pushed.T):
        raise DimensionMismatch("pushed representative is not a cycle; chain map or basis corrupted")
    coords = stacked_class_system(tgt_basis).solve_columns(pushed)
    if coords is None:
        raise DimensionMismatch("cycle not expressible in basis + boundaries")
    return F2Matrix(coords.a[: tgt_basis.dim])


def _result(fn, *args):
    try:
        out = fn(*args)
    except DimensionMismatch as exc:
        return ("rejected", str(exc))
    a = out.a if isinstance(out, F2Matrix) else out
    return ("solved", a.shape, a.tobytes())


def _bases(r, c: ChainComplex) -> list[HomologyBasis]:
    """The canonical basis, a recombined one, one short of a representative, and a
    recombined one certified by its dual, whose class system is built on first use."""
    canonical = homology(c, 1)
    recombined = _basis_from_rows(F2Matrix(_recombined_basis(r, c)), c)
    short = HomologyBasis(F2Matrix(canonical.matrix().a[1:]), c)
    z = F2Matrix(_recombined_basis(r, c))
    x = dual_x_basis(c, _basis_from_rows(z, c)).matrix()
    paired = from_complex(c, z, x).z_logicals
    assert "_class_system" not in vars(paired)
    return [canonical, recombined, short, paired]


class TestClassCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(complexes(), st.integers(0, 2**30 - 1))
    def test_class_coordinates_match_stacked_solve(self, c, seed):
        r = np.random.RandomState(seed)
        for side in (c, c.transpose()):
            vectors = list(_combination(r, side.cycles, 4)) + list(_bits(r, 2, side.dim1, 0.5))
            for basis in _bases(r, side):
                for v in vectors:
                    got = _result(basis.class_coordinates, v)
                    assert got == _result(stacked_class_coordinates, basis, v)

    @settings(max_examples=150, deadline=None)
    @given(complexes(), st.integers(0, 2**30 - 1))
    def test_induced_on_homology_matches_stacked_solve(self, c, seed):
        r = np.random.RandomState(seed)
        maps = [(identity_chain_map(c), c)]
        gens = _combination(r, c.cycles, 1)
        if gens.any():
            sub = validate_subcode(
                c,
                Subspace.zero(c.dim2),
                Subspace.from_vectors(gens, c.dim1),
                Subspace.from_vectors([c.d1 @ g for g in gens], c.dim0),
            )
            m = quotient_merge(c, sub)
            maps.append((m.p, m.quotient))
        for f, tgt in maps:
            for src_basis in _bases(r, c)[:2]:
                for tgt_basis in _bases(r, tgt):
                    got = _result(induced_on_homology, f, 1, src_basis, tgt_basis)
                    assert got == _result(stacked_induced_on_homology, f, 1, src_basis, tgt_basis)

    def test_not_expressible_message_kept(self, steane):
        h = homology(steane.complex, 1)
        short = HomologyBasis(F2Matrix.zeros(0, h.ambient_dim), h.complex)
        with pytest.raises(DimensionMismatch, match="cycle not expressible in basis \\+ boundaries"):
            short.class_coordinates(h.representatives[0])


# --- codes with no checks --------------------------------------------------------


def _assert_same_basis(got: HomologyBasis, want: HomologyBasis):
    assert_same_space(got.kernel, want.kernel)
    assert_same_space(got.image, want.image)
    assert len(got.representatives) == len(want.representatives)
    for g, w in zip(got.representatives, want.representatives):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes() and not g.flags.writeable


class TestNoCheckCodes:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equals_code_from_parity_checks(self, n):
        got = catalog.no_check(n)
        want = catalog._code([], [], n, d=1)
        assert got.complex == want.complex
        for side in ("cycles", "boundaries"):
            assert_same_space(getattr(got.complex, side), getattr(want.complex, side))
            assert_same_space(
                getattr(got.complex.transpose(), side), getattr(want.complex.transpose(), side)
            )
        _assert_same_basis(got.z_logicals, want.z_logicals)
        _assert_same_basis(got.x_logicals, want.x_logicals)
        assert got.d == want.d == 1
        assert got.to_text() == want.to_text()

    def test_trivial_qubit_equals_code_from_parity_checks(self):
        got, want = catalog.trivial_qubit(), catalog._code([], [], 1, d=1)
        assert got.complex == want.complex
        _assert_same_basis(got.z_logicals, want.z_logicals)
        _assert_same_basis(got.x_logicals, want.x_logicals)
        assert got.d == want.d and got.to_text() == want.to_text()
