"""CSS code tests: Pauli bookkeeping, dual bases, distance, encoders."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog, chaincomplex, csscode, f2linalg
from chainsurg.chaincomplex import ChainComplex, HomologyBasis
from chainsurg.csscode import (
    CssCode,
    PauliOperator,
    SIMULATOR_QUBIT_LIMIT,
    certify_distance,
    distance_bruteforce,
    dual_x_basis,
    dual_z_basis,
    encoder_isometry,
    encoder_with_fixed_logical,
    from_parity_checks,
    row_indices,
    symplectic_product,
)
from chainsurg.errors import DimensionMismatch, NonCommutingChecks, SingularMatrix
from chainsurg.f2linalg import F2Matrix, rref
from chainsurg.protocols import _STATES
from chainsurg.simverify import StateVector, pauli_expectation


class TestFromParityChecks:
    def test_steane_params(self, steane):
        assert (steane.n, steane.k) == (7, 1)

    def test_noncommuting_rejected(self):
        hx = F2Matrix([[1, 1, 0]])
        hz = F2Matrix([[1, 0, 0]])  # single-qubit overlap
        with pytest.raises(NonCommutingChecks):
            from_parity_checks(hx, hz)

    def test_empty_checks(self):
        code = from_parity_checks(F2Matrix.zeros(0, 4), F2Matrix.zeros(0, 4))
        assert code.k == 4

    def test_k_from_ranks_on_catalog(self):
        from chainsurg.f2linalg import rank

        for name in catalog.catalog_names():
            code = catalog.catalog_code(name)
            assert code.k == code.n - rank(code.hx) - rank(code.hz)

    def test_file_round_trip(self, steane):
        again = CssCode.from_text(steane.to_text())
        assert again.hx == steane.hx and again.hz == steane.hz
        assert again.z_logicals.matrix() == steane.z_logicals.matrix()
        assert again.x_logicals.matrix() == steane.x_logicals.matrix()


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        x1 = PauliOperator.from_x([1, 0])
        z1 = PauliOperator.from_z([1, 0])
        assert symplectic_product(x1, z1) == 1

    def test_disjoint_pair(self):
        assert symplectic_product(PauliOperator.from_x([1, 0]), PauliOperator.from_z([0, 1])) == 0

    def test_steane_checks_commute(self, steane):
        for i in range(3):
            for j in range(3):
                a = PauliOperator.from_x(steane.hx.row(i))
                b = PauliOperator.from_z(steane.hz.row(j))
                assert symplectic_product(a, b) == 0

    def test_symmetric(self):
        r = np.random.RandomState(0)
        for _ in range(30):
            a = PauliOperator(x=r.randint(0, 2, 5), z=r.randint(0, 2, 5))
            b = PauliOperator(x=r.randint(0, 2, 5), z=r.randint(0, 2, 5))
            assert symplectic_product(a, b) == symplectic_product(b, a)


class TestDualBasis:
    def test_k0_code_empty(self):
        code = from_parity_checks(F2Matrix([[1, 1]]), F2Matrix([[1, 1]]))
        assert code.k == 0
        assert code.x_logicals.dim == 0

    def test_steane_pairing(self, steane):
        assert int(steane.x_logical(0) @ steane.z_logical(0)) % 2 == 1

    def test_toric2_pairing_identity(self, toric2):
        for i in range(2):
            for j in range(2):
                got = int(toric2.x_logical(i) @ toric2.z_logical(j)) % 2
                assert got == (1 if i == j else 0)

    def test_pairing_invariant_under_stabilizer_shifts(self, steane):
        r = np.random.RandomState(4)
        zs = steane.z_stabilizer_space()
        xs = steane.x_stabilizer_space()
        for _ in range(50):
            z = np.array(steane.z_logical(0))
            x = np.array(steane.x_logical(0))
            for b in zs.basis_vectors():
                if r.randint(0, 2):
                    z ^= b
            for b in xs.basis_vectors():
                if r.randint(0, 2):
                    x ^= b
            assert int(x @ z) % 2 == 1

    def test_partial_supplied_basis_rejected(self, steane):
        with pytest.raises(DimensionMismatch, match="0 logical representatives for 1"):
            from_parity_checks(steane.hx, steane.hz, z_basis=F2Matrix.zeros(0, 7))

    def test_supplied_basis_errors(self, steane, toric2):
        """Each supplied-basis defect keeps its error type and message."""

        def message(code, zl, xl=None):
            with pytest.raises(DimensionMismatch) as exc:
                from_parity_checks(code.hx, code.hz, z_basis=F2Matrix(zl), x_basis=xl)
            return str(exc.value)

        z = steane.z_logicals.matrix().a
        non_cycle = np.zeros((1, 7), dtype=np.uint8)
        non_cycle[0, 0] = 1
        assert message(steane, np.vstack([z, non_cycle])) == "supplied logical representative is not a cycle"
        assert message(steane, z[:, :5]) == "expected length 7, got 5"
        twice = np.vstack([z, z ^ steane.hz.a[0]])
        assert message(steane, twice) == "supplied logical representatives are dependent mod stabilizers"
        assert message(steane, np.vstack([z, z])) == "supplied logical representatives are dependent mod stabilizers"
        # x_0 + x_1 pairs to 1 with z_1, and x_0 to 1 with z_0: the first miss in
        # row-major order is (0, 1), in column-major order it would be (1, 0)
        zl, xl = toric2.z_logicals.matrix(), toric2.x_logicals.matrix().a
        mixed = F2Matrix(np.vstack([xl[0] ^ xl[1], xl[0]]))
        assert message(toric2, zl.a, mixed) == "supplied bases are not dual: x_0 . z_1 = 1"
        swapped = F2Matrix(xl[::-1])
        assert message(toric2, zl.a, swapped) == "supplied bases are not dual: x_0 . z_0 = 0"

    def test_first_failing_check_names_the_error(self, steane, toric2):
        """With both bases supplied and several checks broken, the error is the one the
        checks give one basis at a time: z's own checks, then x's, then the pairing."""

        def message(code, zl, xl):
            with pytest.raises(DimensionMismatch) as exc:
                from_parity_checks(code.hx, code.hz, z_basis=F2Matrix(zl), x_basis=F2Matrix(xl))
            return str(exc.value)

        dependent = "supplied logical representatives are dependent mod stabilizers"
        tz, tx = toric2.z_logicals.matrix().a, toric2.x_logicals.matrix().a
        sz, sx = steane.z_logicals.matrix().a, steane.x_logicals.matrix().a
        non_cocycle = tx.copy()
        non_cocycle[0, 0] ^= 1
        assert message(toric2, np.vstack([tz[0], tz[0] ^ toric2.hz.a[0]]), non_cocycle) == dependent
        # two rows for one logical qubit: the rank check comes before the count
        assert message(steane, np.vstack([sz, sz]), sx) == dependent
        assert message(steane, np.vstack([sz, sz]), sx ^ np.eye(1, 7, dtype=np.uint8)) == dependent
        assert message(toric2, np.vstack([tz[0], tz[0] ^ tz[1]]), tx) == "supplied bases are not dual: x_0 . z_1 = 1"
        assert message(toric2, tz, np.vstack([tx[0], tx[0]])) == dependent
        assert message(toric2, tz[:1], tx[:1]) == "supplied 1 logical representatives for 2 logical qubits"
        assert message(toric2, tz, non_cocycle[::-1]) == "supplied logical representative is not a cycle"

    def test_all_catalog_duality(self):
        for name in catalog.catalog_names():
            code = catalog.catalog_code(name)
            for i in range(code.k):
                for j in range(code.k):
                    got = int(code.x_logical(i) @ code.z_logical(j)) % 2
                    assert got == (1 if i == j else 0), name


def old_dual_x_rows(cplx, z_basis) -> np.ndarray:
    """The dual X basis as first built: d2's pivot columns, found by eliminating d2, as the middle block."""
    keep = list(f2linalg.rref(cplx.d2, transform=False).pivots)
    d2_gen = F2Matrix(cplx.d2.a[:, keep]) if keep else F2Matrix.zeros(cplx.d2.rows, 0)
    complement = cplx.cycles.free_units()
    return f2linalg.left_inverse_block([z_basis.matrix().T, d2_gen, complement]).a[: z_basis.dim]


def rref_calls(fn, *args) -> tuple:
    """fn(*args) and the number of ``rref`` calls it made, through any module that binds it."""
    calls = []
    original = f2linalg.rref

    def counted(*a, **kw):
        calls.append(1)
        return original(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        for module in (f2linalg, csscode, chaincomplex):
            mp.setattr(module, "rref", counted)
        return fn(*args), len(calls)


def random_code(r, n: int, x_rows: int, z_rows: int):
    """A code with random X checks and Z checks drawn from their kernel."""
    hx = F2Matrix(r.randint(0, 2, size=(x_rows, n)))
    kernel = f2linalg.kernel_basis(hx).basis
    hz = F2Matrix(r.randint(0, 2, size=(z_rows, kernel.rows)) @ kernel.a) if kernel.rows else F2Matrix.zeros(0, n)
    return from_parity_checks(hx, hz)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 6), st.integers(0, 8), st.integers(0, 2**30 - 1))
def test_dual_bases_read_the_cached_boundaries(n, x_rows, z_rows, seed):
    """With the complex's spaces and the basis's class system known, a dual basis takes no
    rref, and it has the bytes d2's pivot columns gave."""
    code = random_code(np.random.RandomState(seed), n, x_rows, z_rows)
    for cplx, own, dual in (
        (code.complex, code.z_logicals, dual_x_basis),
        (code.complex.transpose(), code.x_logicals, lambda c, b: dual_z_basis(c.transpose(), b)),
    ):
        cplx.cycles, cplx.boundaries, own._class_system  # what the dual reads, eliminated beforehand
        got, calls = rref_calls(dual, cplx, own)
        want, _ = rref_calls(old_dual_x_rows, cplx, own)
        rows = got.matrix().a if got.dim else np.zeros((0, n), dtype=np.uint8)
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()
        assert calls == 0


def invertible(r, k: int) -> np.ndarray:
    """A random invertible k x k 0/1 matrix."""
    while True:
        m = r.randint(0, 2, size=(k, k)).astype(np.uint8)
        if f2linalg.rank(F2Matrix(m)) == k:
            return m


def dual_cases(code, r) -> list:
    """(complex, Z basis) pairs: both of the code's own bases, and a rebased Z basis (an
    invertible change of basis plus random stabilizers), seeded and unseeded."""
    cplx = code.complex
    cases = [(cplx, code.z_logicals), (cplx.transpose(), code.x_logicals)]
    if code.k:
        stabilizers = cplx.boundaries.basis.a
        rows = invertible(r, code.k) @ code.z_logicals.matrix().a
        if len(stabilizers):
            rows = rows + r.randint(0, 2, size=(code.k, len(stabilizers))) @ stabilizers
        rebased = F2Matrix(rows % 2)
        cases += [(cplx, csscode._basis_from_rows(rebased, cplx)), (cplx, HomologyBasis(rebased, cplx))]
    return cases


def dual_or_refusal(fn, cplx, basis):
    """The dual rows' bytes, or "refused" when fn raises SingularMatrix; ``dual_x_basis``
    names the assembly in its message."""
    try:
        got = fn(cplx, basis)
    except SingularMatrix as exc:
        assert fn is not dual_x_basis or str(exc).startswith("dual basis assembly failed: ")
        return "refused"
    rows = got.matrix().a if isinstance(got, HomologyBasis) else got
    return rows.dtype.str, rows.shape[0], rows.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 7), st.integers(0, 9), st.integers(0, 2**30 - 1))
def test_dual_basis_matches_the_block_inversion(n, x_rows, z_rows, seed):
    """On random codes the dual read off ker d1's RREF is the n x n inversion's, byte for byte,
    for the code's own, rebased and unseeded Z bases, and both refuse a Z basis whose last
    row is a stabilizer."""
    r = np.random.RandomState(seed)
    code = random_code(r, n, x_rows, z_rows)
    cases = dual_cases(code, r)
    if code.k:
        bad = code.z_logicals.matrix().a.copy()
        bad[-1] = code.complex.boundaries.basis.a[0] if code.complex.boundaries.dim else 0
        cases.append((code.complex, HomologyBasis(F2Matrix._wrap(bad), code.complex)))
    for cplx, basis in cases:
        want = dual_or_refusal(old_dual_x_rows, cplx, basis)
        assert dual_or_refusal(dual_x_basis, cplx, basis) == want


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_catalog_duals_match_the_block_inversion(name):
    code = catalog.catalog_code(name)
    for cplx, basis in dual_cases(code, np.random.RandomState(7)):
        assert dual_or_refusal(dual_x_basis, cplx, basis) == dual_or_refusal(old_dual_x_rows, cplx, basis)


def test_dual_basis_refuses_a_z_basis_of_the_wrong_count(steane):
    """Two representatives for Steane's one class are refused by the count, before any read."""
    rows = np.vstack([steane.z_logicals.matrix().a] * 2)
    basis = HomologyBasis(F2Matrix(rows), steane.complex)
    with pytest.raises(SingularMatrix, match="^dual basis assembly failed: 2 representatives for 1 classes$"):
        dual_x_basis(steane.complex, basis)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_a_code_with_default_bases_takes_two_eliminations(size):
    """ker d1 and im d2, once each; the transposed complex's spaces wait until they are read."""
    toric = catalog.toric(size)
    code, calls = rref_calls(from_parity_checks, toric.hx, toric.hz)
    assert calls == 2
    assert code.x_logicals.matrix() == toric.x_logicals.matrix()
    assert "cycles" not in code.complex.transpose().__dict__


class TestDistance:
    def test_steane(self, steane):
        assert distance_bruteforce(steane) == 3

    def test_rm15(self, rm15):
        assert distance_bruteforce(rm15) == 3

    def test_no_check_code(self):
        assert distance_bruteforce(catalog.no_check(3)) == 1

    def test_cap_returns_none(self, steane):
        assert distance_bruteforce(steane, cap=2) is None

    def test_distance_by_low_weight_search(self, surface2):
        # independent oracle: search all Paulis of weight < claimed distance
        d = distance_bruteforce(surface2)
        hx, hz = surface2.hx, surface2.hz
        zs = surface2.z_stabilizer_space()
        xs = surface2.x_stabilizer_space()
        for weight in range(1, d):
            for support in itertools.combinations(range(surface2.n), weight):
                v = np.zeros(surface2.n, dtype=np.uint8)
                v[list(support)] = 1
                if not (hx @ v).any():
                    assert zs.contains(v)  # any low-weight Z cycle is a stabilizer
                if not (hz @ v).any():
                    assert xs.contains(v)


def loop_index(bits) -> int:
    """A row's basis index, one bit at a time: its first entry is the top bit."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


class TestRowIndices:
    @pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 200])
    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_matches_a_per_bit_loop(self, rows, cols):
        r = np.random.RandomState(1000 * rows + cols)
        a = r.randint(0, 2, size=(rows, cols)).astype(np.uint8)
        if rows and cols:
            a[0] = 1  # the widest index of that width
        got = row_indices(a)
        assert got == [loop_index(row) for row in a]
        assert all(type(i) is int for i in got)

    def test_distance_search_columns_wider_than_63_bits(self):
        # each column of toric-9's [hx; xl] has 83 bits; the search reads them as indices
        toric = catalog.toric(9)
        stacked = np.concatenate([toric.hx.a, toric.x_logicals.matrix().a]).T
        assert stacked.shape[1] == 83
        assert row_indices(stacked) == [loop_index(col) for col in stacked]
        assert certify_distance(toric, 4) == (5, 5)


class TestEncoder:
    def test_trivial_qubit_identity(self):
        e = encoder_isometry(catalog.trivial_qubit())
        assert np.allclose(e.matrix, np.eye(2))

    def test_steane_zero_is_8_term_superposition(self, steane):
        e = encoder_isometry(steane)
        col = e.matrix[:, 0]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert len(nz) == 8
        assert np.allclose(np.abs(col[nz]), 1 / np.sqrt(8))

    def test_columns_orthonormal(self, toric2):
        e = encoder_isometry(toric2)
        gram = e.matrix.conj().T @ e.matrix
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_stabilizers_fix_columns(self, steane):
        e = encoder_isometry(steane)
        for i in range(steane.hx.rows):
            p = PauliOperator.from_x(steane.hx.row(i))
            for u in range(2):
                s = StateVector.from_amplitudes(e.matrix[:, u])
                assert abs(pauli_expectation(p, s) - 1.0) < 1e-12
        for i in range(steane.hz.rows):
            p = PauliOperator.from_z(steane.hz.row(i))
            for u in range(2):
                s = StateVector.from_amplitudes(e.matrix[:, u])
                assert abs(pauli_expectation(p, s) - 1.0) < 1e-12

    def test_logical_z_acts_diagonally(self, toric2):
        e = encoder_isometry(toric2)
        from chainsurg.simverify import PauliGate, apply_linear

        for i in range(toric2.k):
            p = PauliOperator.from_z(toric2.z_logical(i))
            for u in range(4):
                bits = [(u >> (1 - b)) & 1 for b in range(2)]
                expect = (-1) ** bits[i]
                out = apply_linear(PauliGate(p), e.matrix[:, u])
                assert np.allclose(out, expect * e.matrix[:, u], atol=1e-12)

    def test_logical_x_permutes_labels(self, steane):
        e = encoder_isometry(steane)
        from chainsurg.simverify import PauliGate, apply_linear

        p = PauliOperator.from_x(steane.x_logical(0))
        out = apply_linear(PauliGate(p), e.matrix[:, 0])
        assert np.allclose(out, e.matrix[:, 1], atol=1e-12)

    def test_qubit_limit(self):
        big = catalog.no_check(21)
        with pytest.raises(DimensionMismatch):
            encoder_isometry(big)


class TestPauliOperator:
    def test_label(self):
        p = PauliOperator(x=[1, 0, 1], z=[0, 0, 1])
        assert p.label() == "+XIY"

    def test_compose(self):
        a = PauliOperator.from_x([1, 0])
        b = PauliOperator.from_z([1, 0])
        c = a.compose(b)
        assert c.label() == "+YI"

    def test_weight(self):
        assert PauliOperator(x=[1, 0, 1], z=[1, 0, 0]).weight() == 2


class TestValueSemantics:
    """Paulis, homology bases and codes compare and hash by value."""

    def test_pauli_equality(self):
        p = PauliOperator(x=[1, 0, 1], z=[0, 0, 1])
        assert p == PauliOperator(x=np.array([1, 0, 1], dtype=np.int64), z=[0, 0, 1])
        assert hash(p) == hash(PauliOperator(x=[1, 0, 1], z=[0, 0, 1]))
        assert p != PauliOperator(x=[1, 0, 1], z=[0, 0, 1], sign=-1)
        assert p != PauliOperator(x=[1, 0, 0], z=[0, 0, 1])
        assert p != PauliOperator(x=[0, 0, 1], z=[1, 0, 1])
        assert PauliOperator.identity(2) != PauliOperator.identity(3)
        assert p != "+XIY"

    def test_paulis_in_a_set(self):
        paulis = {
            PauliOperator.from_x([1, 0]),
            PauliOperator.from_x([1, 0]),
            PauliOperator.from_x([1, 0], sign=-1),
            PauliOperator.from_z([1, 0]),
            PauliOperator.from_x([1, 0]).compose(PauliOperator.from_z([1, 0])),
        }
        assert len(paulis) == 4
        assert PauliOperator(x=[1, 0], z=[1, 0]) in paulis

    def test_code_equality(self):
        assert catalog.steane() == catalog.steane()
        assert hash(catalog.steane()) == hash(catalog.steane())
        assert catalog.steane() != catalog.toric(2)
        assert catalog.toric(2) != catalog.toric(3)
        assert catalog.steane().with_distance(3) != catalog.steane().with_distance(None)

    def test_codes_with_other_bases_differ(self, toric2):
        zl, xl = (F2Matrix(b.matrix().a[::-1]) for b in (toric2.z_logicals, toric2.x_logicals))
        swapped = from_parity_checks(toric2.hx, toric2.hz, z_basis=zl, x_basis=xl)
        assert swapped.complex == toric2.complex and swapped != toric2
        zl, xl = toric2.z_logicals.matrix(), toric2.x_logicals.matrix()
        again = from_parity_checks(toric2.hx, toric2.hz, z_basis=zl, x_basis=xl)
        assert again.with_distance(2) == toric2 and hash(again.with_distance(2)) == hash(toric2)

    def test_codes_in_a_set(self):
        codes = {catalog.steane(), catalog.steane(), catalog.toric(2), catalog.catalog_code("toric_2")}
        assert codes == {catalog.steane(), catalog.toric(2)}

    def test_basis_equality(self, steane, toric2):
        h = steane.z_logicals

        def basis(reps, cplx=h.complex):
            return HomologyBasis(F2Matrix.from_rows(list(reps), cols=h.ambient_dim), cplx)

        assert h == basis(h.representatives)
        assert hash(h) == hash(basis(h.representatives))
        assert h != steane.x_logicals
        assert h != toric2.z_logicals
        # one representative moved by a stabilizer: the same class, another basis
        moved = (h.representatives[0] ^ h.image.basis.row(0),)
        assert h != basis(moved)
        # the same representatives in a different image: a complex whose boundaries are its cycles
        assert h != basis(h.representatives, ChainComplex(d2=h.kernel.basis.T, d1=steane.complex.d1))
        assert len({h, basis(h.representatives), steane.x_logicals}) == 2


# --- loop oracle: encoder_isometry as first written -------------------------------


def encoder_matrix_oracle(code):
    """Orbit x label loop with one row_indices call per entry."""
    n, k = code.n, code.k
    row_basis = rref(code.hx)
    gen_rows = [row_basis.reduced.row(i) for i in range(row_basis.rank)]
    orbit = []
    for mask in range(1 << len(gen_rows)):
        v = np.zeros(n, dtype=np.uint8)
        for i, g in enumerate(gen_rows):
            if (mask >> i) & 1:
                v ^= g
        orbit.append(v)
    amp = 1.0 / np.sqrt(len(orbit))
    mat = np.zeros((1 << n, 1 << k), dtype=np.complex128)
    for label in range(1 << k):
        base = np.zeros(n, dtype=np.uint8)
        for i in range(k):
            if (label >> (k - 1 - i)) & 1:
                base ^= code.x_logical(i)
        for s in orbit:
            mat[row_indices((base ^ s)[None, :])[0], label] += amp
    return mat


def _small_catalog_codes():
    codes = {name: catalog.catalog_code(name) for name in catalog.catalog_names()}
    for name in catalog.example_names():
        ex = catalog.worked_example(name)
        codes[f"example:{name}"] = from_parity_checks(ex.parent.d1, ex.parent.d2.T)
        for i, code in enumerate(ex.codes):
            codes[f"example:{name}.part{i}"] = code
    return {name: c for name, c in codes.items() if c.n <= SIMULATOR_QUBIT_LIMIT}


SMALL_CODES = _small_catalog_codes()


def dense_fixed_logical(mat, k, index, state):
    """The oracle contracted with a 1-qubit state as a dense matrix, by ``np.tensordot``."""
    m = mat.reshape((mat.shape[0],) + (2,) * k)
    m = np.tensordot(m, np.asarray(state, dtype=np.complex128), axes=([1 + index], [0]))
    return m.reshape(mat.shape[0], 1 << (k - 1))


def assert_encoder_bytes(e, ref):
    """Supports, matrix and adjoint of ``e`` are those of the dense ``ref``, byte for byte.

    The supports, scattered into zeros column by column, are the columns;
    the adjoint is compared with ``ref.conj().T`` in layout too, so the
    signed zeros ``conj`` writes and the strides BLAS reads are checked.
    """
    assert e.matrix.tobytes() == ref.tobytes()
    keys, values = e.supports()
    assert np.all(np.diff(keys) > 0) and np.all(values != 0)
    columns = np.zeros((ref.shape[1], ref.shape[0]), dtype=np.complex128)
    columns.reshape(-1)[keys] = values
    assert columns.tobytes() == np.ascontiguousarray(ref.T).tobytes()
    ref_h = ref.conj().T
    adj = e.adjoint()
    assert (adj.shape, adj.strides) == (ref_h.shape, ref_h.strides)
    assert adj.tobytes() == ref_h.tobytes()


@pytest.mark.parametrize("name", sorted(SMALL_CODES))
def test_encoder_matches_loop_oracle(name):
    code = SMALL_CODES[name]
    assert_encoder_bytes(encoder_isometry(code), encoder_matrix_oracle(code))


FIXED_CASES = [
    (name, index, state)
    for name in sorted(SMALL_CODES)
    for index in range(SMALL_CODES[name].k)
    for state in sorted(_STATES)
]


@pytest.mark.parametrize("name,index,state", FIXED_CASES)
def test_fixed_logical_encoder_matches_dense_contraction(name, index, state):
    code = SMALL_CODES[name]
    ref = dense_fixed_logical(encoder_matrix_oracle(code), code.k, index, _STATES[state])
    e = encoder_with_fixed_logical(encoder_isometry(code), index, _STATES[state])
    assert e.k == code.k - 1
    assert_encoder_bytes(e, ref)


def test_fixed_logical_index_out_of_range():
    e = encoder_isometry(catalog.toric(2))
    with pytest.raises(DimensionMismatch):
        encoder_with_fixed_logical(e, 2, _STATES["plus"])
    with pytest.raises(DimensionMismatch):
        encoder_with_fixed_logical(encoder_with_fixed_logical(e, 0, _STATES["plus"]), 0, _STATES["zero"])
