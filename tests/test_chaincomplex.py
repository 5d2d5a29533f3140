"""Chain complex, homology, and chain-map tests."""
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from chainsurg import catalog
from chainsurg.chaincomplex import (
    ChainComplex,
    HomologyBasis,
    cohomology,
    direct_sum,
    homology,
    induced_on_homology,
    validate,
    validate_chain_map,
)
from chainsurg.csscode import dual_x_basis, from_parity_checks
from chainsurg.errors import NonZeroComposition, SquareDoesNotCommute
from chainsurg.f2linalg import F2Matrix, Subspace, image_basis, kernel_basis, quotient_basis
from test_assembled_spaces import complexes, identity_chain_map
from test_f2linalg import rref_inputs


class TestValidate:
    def test_steane_complex_valid(self, steane):
        c = validate(steane.complex.d2, steane.complex.d1)
        assert c.dim1 == 7

    def test_nonzero_composition(self):
        with pytest.raises(NonZeroComposition):
            validate(F2Matrix([[1]]), F2Matrix([[1]]))

    def test_zero_composes_with_anything(self):
        c = validate(F2Matrix.zeros(3, 2), F2Matrix([[1, 0, 1], [0, 1, 1]]))
        assert c.dim2 == 2

    def test_file_round_trip(self, steane):
        c = steane.complex
        again = ChainComplex.from_text(c.to_text())
        assert again == c


class TestHomology:
    def test_steane_h1(self, steane):
        assert homology(steane.complex, 1).dim == 1

    def test_toric2_h1_vs_enumeration(self, toric2):
        h = homology(toric2.complex, 1)
        assert h.dim == 2
        # exhaustive check over all 2^8 vectors: count cycles and boundaries
        d1, d2 = toric2.complex.d1, toric2.complex.d2
        cycles = [
            v
            for v in itertools.product([0, 1], repeat=8)
            if not (d1 @ np.array(v, dtype=np.uint8)).any()
        ]
        boundaries = set()
        for mask in range(1 << d2.cols):
            v = np.zeros(8, dtype=np.uint8)
            for i in range(d2.cols):
                if (mask >> i) & 1:
                    v ^= d2.col(i)
            boundaries.add(tuple(v))
        assert len(cycles) // len(boundaries) == 1 << h.dim

    def test_single_free_qubit(self):
        c = validate(F2Matrix.zeros(1, 0), F2Matrix.zeros(0, 1))
        assert homology(c, 1).dim == 1

    def test_representatives_are_nontrivial_cycles(self, surface3):
        h = homology(surface3.complex, 1)
        for r in h.representatives:
            assert h.kernel.contains(r)
            assert not h.image.contains(r)


def quotient_basis_homology(c: ChainComplex, degree: int):
    """homology as first written, kept as the oracle: ``quotient_basis``, each row's first 1
    by ``flatnonzero``, and the rows restacked with ``F2Matrix.from_rows``.

    Returns (basis, pivots, matrix). The basis's spaces are eliminated
    afresh and seeded on a new complex whose degree 1 is the given
    degree, and its class system is not seeded, so reading the class
    system eliminates the reduced representatives.
    """
    (ker, img), (d2, d1) = {
        0: ((Subspace.full(c.dim0), image_basis(c.d1)), (c.d1, F2Matrix.zeros(0, c.dim0))),
        1: ((kernel_basis(c.d1), image_basis(c.d2)), (c.d2, c.d1)),
        2: ((kernel_basis(c.d2), Subspace.zero(c.dim2)), (F2Matrix.zeros(c.dim2, 0), c.d2)),
    }[degree]
    reps = quotient_basis(ker.ambient_dim, ker, img)
    own = ChainComplex(d2=d2, d1=d1)
    own._seed(lambda: (ker, img))
    matrix = F2Matrix.from_rows(reps, cols=ker.ambient_dim)
    pivots = tuple(int(np.flatnonzero(r)[0]) for r in reps)
    return HomologyBasis(matrix, own), pivots, matrix


def assert_matches_quotient_basis_oracle(c: ChainComplex) -> None:
    for degree in (0, 1, 2):
        got = homology(c, degree)
        want, want_pivots, want_matrix = quotient_basis_homology(c, degree)
        assert [r.tobytes() for r in got.representatives] == [r.tobytes() for r in want.representatives]
        assert got.matrix().shape == want_matrix.shape
        assert got.matrix().a.tobytes() == want_matrix.a.tobytes()
        (got_pivots, got_rows), (eliminated_pivots, want_rows) = got._class_system, want._class_system
        assert tuple(got_pivots) == want_pivots == tuple(eliminated_pivots)
        assert got_rows.shape == want_rows.shape and got_rows.tobytes() == want_rows.tobytes()
        assert (got.kernel, got.image) == (want.kernel, want.image)


def _hgp_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "hgp.py"
    spec = importlib.util.spec_from_file_location("hgp_reference", path)
    hgp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hgp)
    return hgp


class TestHomologyReadOff:
    """``homology`` reads its basis off ker's RREF; the quotient-basis construction is the oracle."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_codes(self, name):
        assert_matches_quotient_basis_oracle(catalog.catalog_code(name).complex)

    @pytest.mark.parametrize("name", sorted(_hgp_reference().HGP_FAMILY))
    def test_benchmark_hypergraph_products(self, name):
        hgp = _hgp_reference()
        hx, hz = hgp.hypergraph_product(*hgp.HGP_FAMILY[name]())
        assert_matches_quotient_basis_oracle(validate(F2Matrix(hz).T, F2Matrix(hx)))

    @settings(max_examples=200, deadline=None)
    @given(complexes())
    def test_random_complexes(self, c):
        assert_matches_quotient_basis_oracle(c)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_matrix_is_stacked_once(self, steane, degree):
        h = homology(steane.complex, degree)
        assert h.matrix() is h.matrix()
        built = HomologyBasis(F2Matrix.from_rows(list(h.representatives), cols=h.ambient_dim), h.complex)
        assert built.matrix() is built.matrix() and built.matrix() == h.matrix()

    def test_no_elimination_on_cached_spaces(self, toric2):
        c = ChainComplex(d2=toric2.complex.d2, d1=toric2.complex.d1)
        c.cycles, c.boundaries  # fills the caches
        h = homology(c, 1)
        assert rref_inputs(lambda: h.class_coordinates(h.representatives[1])) == []
        assert rref_inputs(lambda: homology(c, 1)) == []


class TestCohomology:
    def test_steane_h1_cohomology(self, steane):
        assert cohomology(steane.complex, 1).dim == 1

    def test_toric2(self, toric2):
        assert cohomology(toric2.complex, 1).dim == 2

    def test_no_checks(self):
        c = validate(F2Matrix.zeros(4, 0), F2Matrix.zeros(0, 4))
        assert cohomology(c, 1).dim == 4

    def test_h1_equals_cohomology_dim_on_catalog(self):
        for name in catalog.catalog_names():
            code = catalog.catalog_code(name)
            assert homology(code.complex, 1).dim == cohomology(code.complex, 1).dim


class TestIsTrivialClass:
    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_matches_the_two_step_answer(self, name):
        """One reduction modulo the image answers as reducing modulo the kernel, then the image."""
        code = catalog.catalog_code(name)
        r = np.random.RandomState(len(name))
        for basis in (code.z_logicals, code.x_logicals):
            c = basis.complex
            boundaries = [c.d2 @ r.randint(0, 2, c.dim2) for _ in range(4)]
            cycles = [b ^ rep for b in boundaries for rep in basis.representatives]
            vectors = [r.randint(0, 2, c.dim1).astype(np.uint8) for _ in range(16)]
            non_cycles = [v for v in vectors if (c.d1 @ v).any()]
            assert non_cycles or not c.d1.rows
            for vs, trivial in ((boundaries, True), (cycles, False), (non_cycles, False), (vectors, None)):
                for v in vs:
                    two_step = basis.kernel.contains(v) and basis.image.contains(v)
                    assert basis.is_trivial_class(v) == two_step
                    assert trivial is None or two_step == trivial


def _assert_on_its_complex(basis: HomologyBasis) -> None:
    """The basis's kernel and image are its complex's cached spaces, equal to fresh eliminations."""
    assert basis.kernel is basis.complex.cycles
    assert basis.image is basis.complex.boundaries
    assert basis.kernel == kernel_basis(basis.complex.d1)
    assert basis.image == image_basis(basis.complex.d2)
    assert basis.matrix() is basis.rows and basis.rows.shape == (basis.dim, basis.complex.dim1)


class TestBasisOnItsComplex:
    """Every way a basis is built gives the pair (rows, complex), with the complex's spaces."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_homology_of_catalog_codes(self, name, degree):
        _assert_on_its_complex(homology(catalog.catalog_code(name).complex, degree))

    @pytest.mark.parametrize("bases", ["none", "z", "dual_pair"])
    @pytest.mark.parametrize("name", ["steane", "toric_2", "surface_3", "reed_muller_15"])
    def test_codes_from_parity_checks(self, name, bases):
        code = catalog.catalog_code(name)
        zl, xl = code.z_logicals.matrix(), code.x_logicals.matrix()
        z_basis, x_basis = {"none": (None, None), "z": (zl, None), "dual_pair": (zl, xl)}[bases]
        built = from_parity_checks(code.hx, code.hz, z_basis=z_basis, x_basis=x_basis)
        assert built.z_logicals.complex is built.complex
        assert built.x_logicals.complex is built.complex.transpose()
        for basis in (built.z_logicals, built.x_logicals):
            _assert_on_its_complex(basis)

    def test_dual_x_basis(self, toric2):
        c = ChainComplex(d2=toric2.complex.d2, d1=toric2.complex.d1)
        basis = dual_x_basis(c, homology(c, 1))
        assert basis.complex is c.transpose()
        _assert_on_its_complex(basis)

    def test_pushed_basis_on_toric_3(self):
        from chainsurg.protocols import _joint_subcode, _pushed_basis, direct_sum_code
        from chainsurg.surgery import quotient_merge

        base = direct_sum_code(catalog.toric(3), catalog.trivial_qubit())
        merge = quotient_merge(base.complex, _joint_subcode(base, "Z", 0, 2, base.n))
        basis = _pushed_basis(merge, base.z_logicals, 2)
        assert basis.complex is merge.quotient and basis.dim == 2
        _assert_on_its_complex(basis)


class TestCachedSpaces:
    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_cached_spaces_equal_uncached(self, name):
        c = catalog.catalog_code(name).complex
        t = c.transpose()
        assert c.cycles == kernel_basis(c.d1)
        assert c.boundaries == image_basis(c.d2)
        assert t.cycles == kernel_basis(c.d2.T)
        assert t.boundaries == image_basis(c.d1.T)

    def test_transpose_is_memoised(self, steane):
        c = steane.complex
        assert c.transpose() is c.transpose()
        assert c.transpose().transpose() is c

    def test_cache_leaves_equality_and_hash(self, steane):
        fresh = ChainComplex(d2=steane.complex.d2, d1=steane.complex.d1)
        assert steane.complex.transpose().cycles.dim == 4  # fills the caches
        assert fresh == steane.complex and hash(fresh) == hash(steane.complex)


class TestChainMap:
    def test_identity_valid(self, steane):
        identity_chain_map(steane.complex)

    def test_counterexample_map_valid(self):
        src = validate(F2Matrix([[1], [1]]), F2Matrix([[1, 1]]))
        tgt = validate(F2Matrix.identity(2), F2Matrix.zeros(0, 2))
        f = validate_chain_map(
            src, tgt, F2Matrix([[1], [1]]), F2Matrix.identity(2), F2Matrix.zeros(0, 1)
        )
        assert f.f2.rows == 2

    def test_square_does_not_commute(self):
        src = validate(F2Matrix([[1], [1]]), F2Matrix([[1, 1]]))
        with pytest.raises(SquareDoesNotCommute) as err:
            validate_chain_map(
                src, src, F2Matrix.identity(1), F2Matrix.zeros(2, 2), F2Matrix.identity(1)
            )
        assert err.value.degree == 2

    def test_induced_identity(self, steane):
        h = homology(steane.complex, 1)
        mat = induced_on_homology(identity_chain_map(steane.complex), 1, h, h)
        assert mat == F2Matrix.identity(1)

    def test_functoriality_on_composed_merges(self, surface3):
        # two successive quotient merges of a patch give composable chain maps
        from chainsurg.f2linalg import Subspace
        from chainsurg.surgery import quotient_merge, validate_subcode

        cplx = surface3.complex
        r = np.random.RandomState(2)
        cases = 0
        while cases < 10:
            v1_vec = r.randint(0, 2, size=cplx.dim1).astype(np.uint8)
            if not v1_vec.any():
                continue
            v1 = Subspace.from_vectors([v1_vec], cplx.dim1)
            v0 = Subspace.from_vectors([cplx.d1 @ v1_vec], cplx.dim0)
            sub = validate_subcode(cplx, Subspace.zero(cplx.dim2), v1, v0, "Z")
            m1 = quotient_merge(cplx, sub)
            q = m1.quotient
            w_vec = r.randint(0, 2, size=q.dim1).astype(np.uint8)
            if not w_vec.any():
                continue
            w1 = Subspace.from_vectors([w_vec], q.dim1)
            w0 = Subspace.from_vectors([q.d1 @ w_vec], q.dim0)
            sub2 = validate_subcode(q, Subspace.zero(q.dim2), w1, w0, "Z")
            m2 = quotient_merge(q, sub2)
            composed = m2.p.compose(m1.p)
            h_src = homology(cplx, 1)
            h_mid = homology(q, 1)
            h_tgt = homology(m2.quotient, 1)
            lhs = induced_on_homology(composed, 1, h_src, h_tgt)
            rhs = induced_on_homology(m2.p, 1, h_mid, h_tgt) @ induced_on_homology(
                m1.p, 1, h_src, h_mid
            )
            assert lhs == rhs
            cases += 1


class TestDirectSum:
    def test_dims_add(self, steane, toric2):
        s = direct_sum(steane.complex, toric2.complex)
        assert s.dim1 == steane.complex.dim1 + toric2.complex.dim1

    def test_sum_with_free_qubit(self, steane):
        free = validate(F2Matrix.zeros(1, 0), F2Matrix.zeros(0, 1))
        s = direct_sum(steane.complex, free)
        assert s.dim1 == 8
        assert homology(s, 1).dim == 2

    def test_homology_additive(self, surface2, toric2):
        s = direct_sum(surface2.complex, toric2.complex)
        assert homology(s, 1).dim == homology(surface2.complex, 1).dim + homology(
            toric2.complex, 1
        ).dim
