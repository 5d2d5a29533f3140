"""State-vector verification: op semantics, channels, soundness."""
import numpy as np
import pytest

from chainsurg import catalog
from chainsurg.chaincomplex import homology
from chainsurg.csscode import (
    PauliOperator,
    encoder_isometry,
    encoder_with_fixed_logical,
    from_parity_checks,
    linear_indices,
)
from chainsurg.errors import ZeroProbabilityOutcome
from chainsurg.f2linalg import F2Matrix, Subspace
from chainsurg.simverify import (
    HadamardConjugatedParityMap,
    ParityMap,
    PauliGate,
    Projection,
    StateVector,
    apply,
    apply_linear,
    apply_sequence_linear,
    counterexample_check,
    extract_logical_channel,
    pauli_expectation,
    physical_op_sequence,
)
from chainsurg.surgery import quotient_merge, split_from_merge, validate_subcode
from test_assembled_spaces import identity_chain_map


def basis_state(n: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on n qubits."""
    a = np.zeros(1 << n, dtype=np.complex128)
    a[index] = 1.0
    return StateVector(n=n, amplitudes=a, normalized=True)


class TestApply:
    def test_parity_identity(self):
        s = basis_state(2, 1)
        out, amp = apply(ParityMap(F2Matrix.identity(2)), s)
        assert np.allclose(out.amplitudes, s.amplitudes)
        assert abs(amp - 1.0) < 1e-12

    def test_parity_on_bell_state(self):
        # plain parity (1 1) maps |00> + |11> to |0> (both summands agree)
        bell = StateVector.from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = apply_linear(ParityMap(F2Matrix([[1, 1]])), bell.amplitudes)
        assert np.allclose(out / np.linalg.norm(out), [1, 0])

    def test_hconj_is_merge_spider(self):
        # H-conjugated parity of (1 1) is exactly |0><00| + |1><11|
        op = HadamardConjugatedParityMap(F2Matrix([[1, 1]]))
        mat = np.zeros((2, 4), dtype=np.complex128)
        for col in range(4):
            e = np.zeros(4, dtype=np.complex128)
            e[col] = 1.0
            mat[:, col] = apply_linear(op, e)
        target = np.sqrt(2.0) * np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
        assert np.allclose(mat, target, atol=1e-12)  # scale 2^{(in-out)/2} from H . R . H

    def test_parity_sums_preimages(self):
        s = StateVector.from_amplitudes(np.array([1, 1, 1, -1]) / 2.0)
        out = apply_linear(ParityMap(F2Matrix([[1, 1]])), s.amplitudes)
        # |00>,|11> -> |0>; |01>,|10> -> |1>
        assert np.allclose(out, [(1 - 1) / 2, (1 + 1) / 2])

    def test_projection_preserves_codeword(self, steane):
        e = encoder_isometry(steane)
        state = StateVector.from_amplitudes(e.matrix[:, 0])
        p = Projection(PauliOperator.from_z(steane.hz.row(0)), outcome=1)
        out, amp = apply(p, state)
        assert abs(amp - 1.0) < 1e-12
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_projection_zero_branch(self):
        s = basis_state(1, 0)
        with pytest.raises(ZeroProbabilityOutcome):
            apply(Projection(PauliOperator.from_z([1]), outcome=-1), s)

    def test_pauli_gate(self):
        s = basis_state(2, 0)
        out, _ = apply(PauliGate(PauliOperator(x=[1, 0], z=[0, 0])), s)
        assert np.allclose(out.amplitudes, [0, 0, 1, 0])


class TestPhysicalOpSequence:
    def test_identity_chain_map(self, steane):
        ops = physical_op_sequence(identity_chain_map(steane.complex), "Z")
        assert len(ops) == 1 and isinstance(ops[0], HadamardConjugatedParityMap)

    def test_cnot_merge_no_projection(self):
        # V0 = 0 merge: p2 surjective and the split needs no projections
        from chainsurg.protocols import direct_sum_code

        base = direct_sum_code(catalog.steane(), catalog.trivial_qubit())
        v = base.z_logical(0) ^ base.z_logical(1)
        c = base.complex
        sub = validate_subcode(
            c,
            Subspace.zero(c.dim2),
            Subspace.from_vectors([v], c.dim1),
            Subspace.zero(c.dim0),
            "Z",
        )
        m = quotient_merge(c, sub)
        assert len(physical_op_sequence(m.p, "Z")) == 1
        assert len(physical_op_sequence(split_from_merge(m), "X")) == 1

    def test_nonsurjective_f2_emits_projections(self):
        src = from_parity_checks(F2Matrix([[1, 1]]), F2Matrix([[1, 1]]))
        tgt = from_parity_checks(F2Matrix.zeros(0, 2), F2Matrix.identity(2))
        from chainsurg.chaincomplex import validate_chain_map

        f = validate_chain_map(
            src.complex,
            tgt.complex,
            F2Matrix([[1], [1]]),
            F2Matrix.identity(2),
            F2Matrix.zeros(0, 1),
        )
        ops = physical_op_sequence(f, "Z")
        assert sum(isinstance(o, Projection) for o in ops) == 1

    def test_welding_split_has_v0_projections(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        ops = physical_op_sequence(split_from_merge(m), "X")
        assert sum(isinstance(o, Projection) for o in ops) == m.subcode.v0.dim


class TestChannels:
    def test_empty_ops_identity(self, surface2):
        e = encoder_isometry(surface2)
        ch = extract_logical_channel([], e, e)
        assert np.allclose(ch, np.eye(2), atol=1e-12)

    def test_merge_spider_two_patches(self, surface2):
        from chainsurg.catalog import _PatchLayout, _pair_vector
        from chainsurg.chaincomplex import direct_sum
        from chainsurg.protocols import direct_sum_code

        lay = _PatchLayout(2, 2)
        both = direct_sum_code(surface2, surface2)
        total = both.complex
        qpairs = [
            _pair_vector(5, 5, lay.horizontal(1, col), lay.horizontal(0, col))
            for col in range(2)
        ]
        vpairs = [_pair_vector(2, 2, lay.vertex(1, 0), lay.vertex(0, 0))]
        sub = validate_subcode(
            total,
            Subspace.zero(total.dim2),
            Subspace.from_vectors(qpairs, 10),
            Subspace.from_vectors(vpairs, 4),
            "Z",
        )
        m = quotient_merge(total, sub)
        tgt_basis = homology(m.quotient, 1)
        merged = from_parity_checks(
            m.quotient.d1, m.quotient.d2.T, z_basis=tgt_basis.matrix()
        )
        ch = extract_logical_channel(
            physical_op_sequence(m.p, "Z"),
            encoder_isometry(both),
            encoder_isometry(merged),
        )
        target = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.max(np.abs(ch - target)) < 1e-9

    def test_soundness_z_side(self):
        # extracted channel equals the interpretation of the induced matrix
        for name in ("welding", "virtual_merge", "steane_z_subcode"):
            ex = catalog.worked_example(name)
            m = quotient_merge(ex.parent, ex.subcode)
            src_basis = homology(m.source, 1)
            tgt_basis = homology(m.quotient, 1)
            from chainsurg.surgery import induced_logical_matrix

            mat = induced_logical_matrix(m, src_basis, tgt_basis)
            src_code = from_parity_checks(
                m.source.d1, m.source.d2.T, z_basis=src_basis.matrix()
            )
            tgt_code = from_parity_checks(
                m.quotient.d1, m.quotient.d2.T, z_basis=tgt_basis.matrix()
            )
            ch = extract_logical_channel(
                physical_op_sequence(m.p, "Z"),
                encoder_isometry(src_code),
                encoder_isometry(tgt_code),
            )
            # the expected channel is the logical merge spider of the matrix
            from chainsurg.simverify import fix_phase_and_scale

            expect = np.zeros((1 << tgt_code.k, 1 << src_code.k), dtype=np.complex128)
            for u in range(1 << src_code.k):
                col = np.zeros(1 << src_code.k, dtype=np.complex128)
                col[u] = 1.0
                expect[:, u] = apply_linear(HadamardConjugatedParityMap(mat), col)
            assert np.max(np.abs(ch - fix_phase_and_scale(expect))) < 1e-9, name

    def test_soundness_x_side(self):
        # X-merge of two bare qubits: channel is the plain parity of Q1*
        pair = catalog.no_check(2)
        c = pair.complex
        w = np.array([1, 1], dtype=np.uint8)
        sub = validate_subcode(
            c,
            Subspace.zero(c.dim2),
            Subspace.from_vectors([w], 2),
            Subspace.zero(c.dim0),
            "X",
        )
        m = quotient_merge(c, sub)
        merged = from_parity_checks(
            m.merged_complex().d1, m.merged_complex().d2.T
        )
        ch = extract_logical_channel(
            physical_op_sequence(m.p, "X"),
            encoder_isometry(pair),
            encoder_isometry(merged),
        )
        # X-merge spider |+><++| + |-><--| in the computational basis
        target = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex)
        assert np.max(np.abs(ch - target / np.max(np.abs(target)))) < 1e-9


class TestPauliTransport:
    def test_transport_identity_physical(self):
        # op . P == transported(P) . branch-flipped op, checked on states
        from chainsurg.protocols import MergeStep, propagate_pauli

        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        step = MergeStep(
            merge=m,
            orientation="Z",
            measurement_ids=tuple(f"m{i}" for i in range(m.subcode.v1.dim)),
            pivot_qubits=m.subcode.v1.pivots,
            logical_matrix=F2Matrix.zeros(0, 0),
            branch_inserts=(None,) * m.subcode.v1.dim,
        )
        both = from_parity_checks(m.source.d1, m.source.d2.T)
        e = encoder_isometry(both)
        merge_ops = physical_op_sequence(m.p, "Z")
        r = np.random.RandomState(5)
        checked = 0
        for _ in range(20):
            # normalizer Paulis: products of stabilizers and logicals
            x = np.zeros(both.n, dtype=np.uint8)
            z = np.zeros(both.n, dtype=np.uint8)
            for row in both.hx.a:
                if r.randint(0, 2):
                    x ^= row
            for row in both.hz.a:
                if r.randint(0, 2):
                    z ^= row
            for i in range(both.k):
                if r.randint(0, 2):
                    x ^= both.x_logical(i)
                if r.randint(0, 2):
                    z ^= both.z_logical(i)
            p = PauliOperator(x=x, z=z)
            out, flips = propagate_pauli(step, p)
            state = e.matrix @ (r.randn(2**both.k) + 1j * r.randn(2**both.k))
            lhs = apply_sequence_linear(merge_ops, apply_linear(PauliGate(p), state))
            insert = step.branch_gauge(
                np.array([f"m{i}" in flips for i in range(m.subcode.v1.dim)], dtype=np.uint8)
            )
            branch_state = apply_linear(
                PauliGate(PauliOperator.from_x(insert)), state
            ) if insert is not None and insert.any() else state
            rhs = apply_linear(PauliGate(out), apply_sequence_linear(merge_ops, branch_state))
            norm = np.linalg.norm(lhs)
            assert norm > 1e-9
            phase_idx = int(np.argmax(np.abs(lhs)))
            assert np.allclose(
                lhs / lhs[phase_idx], rhs / rhs[phase_idx], atol=1e-9
            )
            checked += 1
        assert checked == 20

    def test_commutation_preserved_without_flips(self):
        from chainsurg.csscode import symplectic_product
        from chainsurg.protocols import MergeStep, propagate_pauli

        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        step = MergeStep(
            merge=m,
            orientation="Z",
            measurement_ids=tuple(f"m{i}" for i in range(m.subcode.v1.dim)),
            pivot_qubits=m.subcode.v1.pivots,
            logical_matrix=F2Matrix.zeros(0, 0),
            branch_inserts=(None,) * m.subcode.v1.dim,
        )
        both = from_parity_checks(m.source.d1, m.source.d2.T)
        r = np.random.RandomState(9)
        found = 0
        while found < 25:
            x1 = np.zeros(both.n, dtype=np.uint8)
            z1 = np.zeros(both.n, dtype=np.uint8)
            z2 = np.zeros(both.n, dtype=np.uint8)
            for row in both.hz.a:
                if r.randint(0, 2):
                    z1 ^= row
                if r.randint(0, 2):
                    z2 ^= row
            for row in both.hx.a:
                if r.randint(0, 2):
                    x1 ^= row
            p = PauliOperator(x=x1, z=z1)
            q = PauliOperator(x=np.zeros(both.n, dtype=np.uint8), z=z2)
            tp, fp = propagate_pauli(step, p)
            tq, fq = propagate_pauli(step, q)
            if fp or fq:
                continue
            assert symplectic_product(tp, tq) == symplectic_product(p, q)
            found += 1


class TestCounterexample:
    def test_report(self):
        rep = counterexample_check()
        assert rep.violates_without
        assert abs(rep.z1_expectation_without) < 1e-9
        assert rep.preserved_with
        assert all(abs(e - 1.0) < 1e-12 for e in rep.stabilizer_expectations_with)

    def test_trivial_input_passes_either_way(self):
        # |00> is in both codespaces, so omitting the projection is harmless
        src = from_parity_checks(F2Matrix([[1, 1]]), F2Matrix([[1, 1]]))
        tgt = from_parity_checks(F2Matrix.zeros(0, 2), F2Matrix.identity(2))
        from chainsurg.chaincomplex import validate_chain_map

        f = validate_chain_map(
            src.complex,
            tgt.complex,
            F2Matrix([[1], [1]]),
            F2Matrix.identity(2),
            F2Matrix.zeros(0, 1),
        )
        ops = physical_op_sequence(f, "Z")
        middle = [op for op in ops if not isinstance(op, Projection)]
        zero = basis_state(2, 0)
        out = apply_sequence_linear(middle, zero.amplitudes)
        for zvec in ([1, 0], [0, 1]):
            exp = pauli_expectation(
                PauliOperator.from_z(zvec), StateVector.from_amplitudes(out)
            )
            assert abs(exp - 1.0) < 1e-12


class TestStabilizerPreservation:
    def test_merge_output_stabilized(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        both = from_parity_checks(m.source.d1, m.source.d2.T)
        merged = from_parity_checks(m.quotient.d1, m.quotient.d2.T)
        e = encoder_isometry(both)
        ops = physical_op_sequence(m.p, "Z")
        r = np.random.RandomState(1)
        state = e.matrix @ (r.randn(2**both.k) + 1j * r.randn(2**both.k))
        out = StateVector.from_amplitudes(apply_sequence_linear(ops, state))
        for i in range(merged.hx.rows):
            assert abs(pauli_expectation(PauliOperator.from_x(merged.hx.row(i)), out) - 1) < 1e-9
        for i in range(merged.hz.rows):
            assert abs(pauli_expectation(PauliOperator.from_z(merged.hz.row(i)), out) - 1) < 1e-9


# --- bit-table oracles: the index tables as first written ------------------------


def bit_table(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def bit_table_parity_indices(a):
    out_bits = bit_table(a.cols) @ a.a.T.astype(np.int64) % 2
    if not a.rows:
        return np.zeros(1 << a.cols, dtype=np.int64)
    return out_bits @ (1 << np.arange(a.rows - 1, -1, -1, dtype=np.int64))


class TestIndexTables:
    @pytest.mark.parametrize(
        "shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (7, 7), (4, 12), (12, 10)]
    )
    def test_parity_map_matches_bit_table(self, shape):
        r = np.random.RandomState(shape[0] * 31 + shape[1])
        a = F2Matrix(r.randint(0, 2, size=shape))
        amps = random_amps(r, a.cols)
        expect = np.zeros(1 << a.rows, dtype=np.complex128)
        np.add.at(expect, bit_table_parity_indices(a), amps)
        assert np.array_equal(apply_linear(ParityMap(a), amps), expect)

    @pytest.mark.parametrize("n", [0, 1, 3, 9])
    def test_z_parity_matches_bit_table(self, n):
        z = np.random.RandomState(n).randint(0, 2, size=n).astype(np.uint8)
        assert np.array_equal(linear_indices(z), bit_table(n) @ z.astype(np.int64) % 2)

    def test_pauli_sign_pattern(self):
        p = PauliOperator.from_z([1, 0, 1])
        amps = np.arange(8, dtype=np.complex128) + 1
        parity = bit_table(3) @ np.array([1, 0, 1]) % 2
        assert np.array_equal(apply_linear(PauliGate(p), amps), amps * np.where(parity, -1, 1))


# --- FWHT oracle: the H-conjugated parity map as first written -------------------


def fwht_oracle(v):
    """Unnormalized fast Walsh-Hadamard transform."""
    out = v.copy()
    size = len(out)
    h = 1
    while h < size:
        out = out.reshape(-1, 2 * h)
        left = out[:, :h].copy()
        right = out[:, h:].copy()
        out[:, :h] = left + right
        out[:, h:] = left - right
        out = out.reshape(size)
        h *= 2
    return out


def hconj_parity_oracle(a, amps):
    """H^out . P_A . H^in as transform, scatter, transform."""
    v = fwht_oracle(amps) / np.sqrt(1 << a.cols)
    scattered = np.zeros(1 << a.rows, dtype=np.complex128)
    np.add.at(scattered, bit_table_parity_indices(a), v)
    return fwht_oracle(scattered) / np.sqrt(1 << a.rows)


def dense_hconj_parity(a):
    """The dense matrix H^{(x)out} . P_A . H^{(x)in}, built with np.kron."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

    def hadamards(m):
        out = np.ones((1, 1))
        for _ in range(m):
            out = np.kron(out, h)
        return out

    parity = np.zeros((1 << a.rows, 1 << a.cols))
    parity[bit_table_parity_indices(a), np.arange(1 << a.cols)] = 1.0
    return hadamards(a.rows) @ parity @ hadamards(a.cols)


def random_amps(r, n):
    return r.normal(size=1 << n) + 1j * r.normal(size=1 << n)


class TestHconjGather:
    @pytest.mark.parametrize(
        "shape", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 6), (6, 3), (5, 5), (8, 11), (11, 7)]
    )
    def test_matches_fwht_oracle(self, shape):
        r = np.random.RandomState(shape[0] * 17 + shape[1])
        a = F2Matrix(r.randint(0, 2, size=shape))
        amps = random_amps(r, a.cols)
        got = apply_linear(HadamardConjugatedParityMap(a), amps)
        assert got.shape == (1 << a.rows,)
        assert np.allclose(got, hconj_parity_oracle(a, amps), atol=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1, 0], [0, 1, 1]],  # surjective, not injective
            [[1, 0], [0, 1], [1, 1]],  # injective, not surjective
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]],  # neither
            [[0, 0, 0], [0, 0, 0]],  # zero map
        ],
    )
    def test_degenerate_maps_match_fwht_oracle(self, rows):
        a = F2Matrix(rows)
        amps = random_amps(np.random.RandomState(a.rows * 7 + a.cols), a.cols)
        assert np.allclose(
            apply_linear(HadamardConjugatedParityMap(a), amps), hconj_parity_oracle(a, amps), atol=1e-12
        )

    @pytest.mark.parametrize("n_out", range(6))
    @pytest.mark.parametrize("n_in", range(6))
    def test_matches_dense_kron_matrix(self, n_in, n_out):
        r = np.random.RandomState(n_in * 6 + n_out)
        a = F2Matrix(r.randint(0, 2, size=(n_out, n_in)))
        op = HadamardConjugatedParityMap(a)
        basis = np.eye(1 << n_in, dtype=np.complex128)
        got = np.column_stack([apply_linear(op, basis[:, x]) for x in range(1 << n_in)])
        assert np.allclose(got, dense_hconj_parity(a), atol=1e-12)


class TestProjectionBytes:
    def test_matches_per_column_conj_product(self):
        # the projection onto e_out rounds exactly as conj(e_out).T @ amps per
        # column, down to the sign of zeros; encoders with a logical fixed to
        # |-> have signed entries, where conj(e_out.T @ conj(amps)) would differ
        code = catalog.toric(2)
        enc = encoder_isometry(code)
        minus = np.array([1, -1]) / np.sqrt(2)
        e_in = encoder_with_fixed_logical(enc, 0, minus)
        e_out = encoder_with_fixed_logical(enc, 1, minus)
        ops = [PauliGate(PauliOperator.from_x(code.x_logical(0)))]
        expect = np.zeros((2, 2), dtype=np.complex128)
        columns = np.ascontiguousarray(e_in.matrix.T)
        for u in range(2):
            expect[:, u] = e_out.matrix.conj().T @ apply_sequence_linear(ops, columns[u])
        expect = expect / expect.ravel()[np.argmax(np.abs(expect))]
        got = extract_logical_channel(ops, e_in, e_out)
        assert got.tobytes() == expect.tobytes()
