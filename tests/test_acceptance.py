"""Acceptance criteria: worked-example reproduction plus property suites.

Each test prints one pass line with its measured result; tolerances are
pinned here and nowhere else. The property suite reports its case count
(must exceed 1000).
"""
import itertools
import time

import numpy as np
import pytest

from chainsurg import catalog
from chainsurg.chaincomplex import cohomology, homology
from chainsurg.csscode import (
    PauliOperator,
    distance_bruteforce,
    encoder_isometry,
    from_parity_checks,
    symplectic_product,
)
from chainsurg.errors import ClosureViolated
from chainsurg.f2linalg import F2Matrix, Subspace, image_basis, kernel_basis, rank
from chainsurg.protocols import (
    MergeStep,
    build_cnot_plan,
    code_switch_plan,
    direct_sum_code,
    expected_plan_channel,
    plan_channel,
    plan_symplectic_action,
    propagate_pauli,
    singleton_check,
)
from chainsurg.simverify import (
    counterexample_check,
    extract_logical_channel,
    physical_op_sequence,
)
from chainsurg.surgery import (
    analyze_merge,
    induced_logical_matrix,
    merge_decompose,
    quotient_merge,
    split_from_merge,
    validate_subcode,
)

CHANNEL_TOL = 1e-9
STABILIZER_TOL = 1e-12


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_steane_parameters():
    start = time.monotonic()
    code = catalog.steane()
    d = distance_bruteforce(code)
    elapsed = time.monotonic() - start
    assert code.k == 1
    assert d == 3
    assert elapsed < 1.0
    report(1, f"steane [[{code.n},{code.k},{d}]] in {elapsed:.3f}s")


def test_criterion_2_welding():
    start = time.monotonic()
    ex = catalog.worked_example("welding")
    m = quotient_merge(ex.parent, ex.subcode)
    rep = analyze_merge(m)
    assert rep.h0_subcode_dim == 0
    assert rep.surjective_guaranteed and rep.matrix_surjective
    assert rep.killed_count == 1
    assert rep.killed_coords.to_lists() == [[1, 1]]  # the class [Z_C] + [Z_D]
    h_src = homology(m.source, 1).dim
    h_q = homology(m.quotient, 1).dim
    assert h_q == h_src - 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"killed [Z_C]+[Z_D]; H1 {h_src} -> {h_q} in {elapsed:.3f}s")


def test_criterion_3_partial_boundary():
    ex = catalog.worked_example("partial_boundary")
    m = quotient_merge(ex.parent, ex.subcode)
    rep = analyze_merge(m)
    assert rep.h1_subcode_dim == 0
    assert rep.injective_guaranteed and rep.matrix_injective
    assert rep.created_count == 1
    report(3, "injective merge created exactly one Z-logical")


def test_criterion_4_wrong_merge():
    ex = catalog.worked_example("wrong_merge")
    with pytest.raises(ClosureViolated) as err:
        validate_subcode(ex.parent, *ex.raw_spaces, ex.raw_orientation)
    assert err.value.degree == 1
    report(4, "invalid gluing rejected with ClosureViolated(1)")


def test_criterion_5_virtual_merge():
    ex = catalog.worked_example("virtual_merge")
    basis1 = [np.array(v, dtype=np.uint8) for v in ex.expect["quotient_basis_degree1"]]
    m = quotient_merge(ex.parent, ex.subcode, quotient_bases={1: basis1})
    dims = [m.quotient.dim2, m.quotient.dim1, m.quotient.dim0]
    assert dims == [1, 2, 0]
    assert m.p.f1.to_lists() == [[1, 0, 1], [0, 1, 1]]
    report(5, f"quotient dims {dims}, p1 = {m.p.f1.to_lists()}")


def test_criterion_6_worked_matrix():
    ex = catalog.worked_example("worked_quotient_matrix")
    m = quotient_merge(ex.parent, ex.subcode)
    mat = induced_logical_matrix(m, homology(m.source, 1), homology(m.quotient, 1))
    assert mat.to_lists() == [[1, 1, 1, 0], [0, 1, 0, 1]]
    report(6, f"induced matrix {mat.to_lists()} bit-exact")


def test_criterion_7_cnot_end_to_end():
    start = time.monotonic()

    # 8 qubits: the 7-qubit code with the ancilla as CNOT target
    steane = catalog.steane()
    reduced = build_cnot_plan(steane, control=0, target=None)
    assert reduced.base_code.n == 8
    exp = expected_plan_channel(reduced)
    exp = exp / np.max(np.abs(exp))
    dev_reduced = float(np.max(np.abs(plan_channel(reduced) - exp)))
    assert dev_reduced < CHANNEL_TOL
    # forced -1 branch, correction applied
    dev_branch = float(
        np.max(np.abs(plan_channel(reduced, {"zmerge.zz0": -1}, corrected=True) - exp))
    )
    assert dev_branch < CHANNEL_TOL

    # 11 qubits: two distance-2 patches plus the bare ancilla, full protocol
    patch = catalog.surface_patch(2, 2)
    code = direct_sum_code(patch, patch).with_distance(2)
    plan = build_cnot_plan(code, control=0, target=1)
    assert plan.base_code.n == 11
    target = expected_plan_channel(plan)
    worst = 0.0
    ids = plan.measurement_ids()
    for pattern in itertools.product([1, -1], repeat=len(ids)):
        outcomes = dict(zip(ids, pattern))
        ch = plan_channel(plan, outcomes, corrected=True)
        worst = max(worst, float(np.max(np.abs(ch - target))))
    assert worst < CHANNEL_TOL
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        7,
        f"8q deviation {dev_reduced:.1e} / {dev_branch:.1e}, 11q worst branch "
        f"{worst:.1e} over {1 << len(ids)} outcome patterns in {elapsed:.1f}s",
    )


def test_criterion_8_merge_spider():
    from chainsurg.catalog import _PatchLayout, _pair_vector

    patch = catalog.surface_patch(2, 2)
    both = direct_sum_code(patch, patch)
    lay = _PatchLayout(2, 2)
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
    merged = from_parity_checks(
        m.quotient.d1, m.quotient.d2.T, z_basis=homology(m.quotient, 1).matrix()
    )
    ch = extract_logical_channel(
        physical_op_sequence(m.p, "Z"),
        encoder_isometry(both),
        encoder_isometry(merged),
    )
    spider = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
    dev = float(np.max(np.abs(ch - spider)))
    assert dev < CHANNEL_TOL
    report(8, f"|0><00| + |1><11| reproduced, deviation {dev:.1e}")


def test_criterion_9_code_switch():
    plan = code_switch_plan()
    merged = plan.merged_code(plan.steps[1].merge)
    d = distance_bruteforce(merged)
    assert (merged.n, merged.k, d) == (15, 1, 3)
    assert plan.steps[1].logical_matrix.to_lists() == [[1, 1]]

    # round trip is the identity on the surviving logical qubit
    action = plan_symplectic_action(plan)
    assert list(map(int, action["X0"][0])) == [1, 0] and not action["X0"][1].any()
    assert list(map(int, action["Z0"][1])) == [1, 0] and not action["Z0"][0].any()

    # stabilizer-eigenvalue verification in lieu of state vectors: the merge
    # carries every source stabilizer to a merged stabilizer, and the merged
    # stabilizers are all reached (f2 surjective onto the Z side).
    m = plan.steps[1].merge
    merged_z = image_basis(m.quotient.d2)
    src_code = from_parity_checks(m.source.d1, m.source.d2.T)
    src_x = image_basis(m.source.d1.T)
    for i in range(src_code.hz.rows):
        assert merged_z.contains(m.p.f1 @ src_code.hz.row(i))
    # every merged X-check pulls back to a source X-stabilizer, so merged
    # codewords inherit the +1 eigenvalues
    merged_hx = m.quotient.d1
    for j in range(merged_hx.rows):
        assert src_x.contains(m.p.f1.T @ merged_hx.row(j))
    assert rank(m.p.f2) == m.quotient.dim2
    # split side (X-preserving): merged X-checks transport into the source
    # X-stabilizer group; source Z-stabilizers are inherited because their
    # images under p1 stabilize the merged input
    split = split_from_merge(m)
    for j in range(merged_hx.rows):
        assert src_x.contains(split.f1 @ merged_hx.row(j))
    report(9, "merged [[15,1,3]], induced map (1 1), round trip = identity")


def test_criterion_10_counterexample():
    rep = counterexample_check()
    assert abs(rep.z1_expectation_without - 1.0) > 1e-6  # stabilizer violated
    assert rep.violates_without
    assert all(abs(e - 1.0) < STABILIZER_TOL for e in rep.stabilizer_expectations_with)
    report(
        10,
        f"without projections <Z1> = {rep.z1_expectation_without:.1e} != 1; "
        "with projections all stabilizers +1",
    )


def _random_subcode(cplx, r, orientation):
    oriented = cplx if orientation == "Z" else cplx.transpose()
    v2_vecs = [r.randint(0, 2, size=oriented.dim2).astype(np.uint8) for _ in range(r.randint(0, 3))]
    v1_seed = [r.randint(0, 2, size=oriented.dim1).astype(np.uint8) for _ in range(r.randint(0, 3))]
    v1_vecs = v1_seed + [oriented.d2 @ v for v in v2_vecs]
    v0_seed = [r.randint(0, 2, size=oriented.dim0).astype(np.uint8) for _ in range(r.randint(0, 3))]
    v0_vecs = v0_seed + [oriented.d1 @ v for v in v1_vecs]
    s2 = Subspace.from_vectors(v2_vecs, oriented.dim2)
    s1 = Subspace.from_vectors(v1_vecs, oriented.dim1)
    s0 = Subspace.from_vectors(v0_vecs, oriented.dim0)
    if orientation == "Z":
        return validate_subcode(cplx, s2, s1, s0, "Z")
    return validate_subcode(cplx, s0, s1, s2, "X")


def test_criterion_11_property_suites():
    cases = 0
    r = np.random.RandomState(20260809)
    pool = [catalog.steane(), catalog.surface_patch(2, 2), catalog.toric(2), catalog.no_check(4)]

    # (a) exactness degree-wise and at the homology level, plus exact-sequence flags
    for trial in range(120):
        code = pool[trial % len(pool)]
        orientation = "Z" if r.randint(0, 2) else "X"
        sub = _random_subcode(code.complex, r, orientation)
        m = quotient_merge(code.complex, sub)
        for deg in (2, 1, 0):
            assert kernel_basis(m.p.component(deg)) == image_basis(m.i.component(deg))
            cases += 1
        rep = analyze_merge(m)
        h_src = rep.source_basis
        induced = rep.induced_matrix
        killed_space = Subspace.from_vectors(
            [induced.col(j) * 0 for j in range(0)] + [row for row in rep.killed_coords.a],
            h_src.dim,
        )
        ker_dim = h_src.dim - rank(induced)
        assert killed_space.dim == ker_dim  # ker(p1*) = im(i1*)
        for row in rep.killed_coords.a:
            assert not (induced @ row).any()
        cases += 1
        if rep.surjective_guaranteed:
            assert rep.matrix_surjective
        if rep.injective_guaranteed:
            assert rep.matrix_injective
        cases += 2

    # (b) dual-basis delta, including randomized stabilizer shifts
    for name in catalog.catalog_names():
        code = catalog.catalog_code(name)
        zs = code.z_stabilizer_space()
        xs = code.x_stabilizer_space()
        for i in range(code.k):
            for j in range(code.k):
                z = np.array(code.z_logical(j))
                x = np.array(code.x_logical(i))
                for b in zs.basis_vectors():
                    if r.randint(0, 2):
                        z ^= b
                for b in xs.basis_vectors():
                    if r.randint(0, 2):
                        x ^= b
                assert int(x @ z) % 2 == (1 if i == j else 0)
                cases += 1

    # (c) homology / cohomology dimension equality
    for name in catalog.catalog_names():
        code = catalog.catalog_code(name)
        for deg in (0, 1, 2):
            assert homology(code.complex, deg).dim == cohomology(code.complex, deg).dim
            cases += 1

    # (d) merge_decompose round trip on randomized basis changes
    for trial in range(60):
        code = pool[trial % len(pool)]
        sub = _random_subcode(code.complex, r, "Z")
        m = quotient_merge(code.complex, sub)
        reps1 = list(m.reps_at(1))
        if reps1 and sub.v1.dim:
            reps1[0] = reps1[0] ^ sub.v1.basis.row(r.randint(0, sub.v1.dim))
        m_alt = quotient_merge(code.complex, sub, quotient_bases={1: reps1})
        recovered, sigma = merge_decompose(m_alt.p)
        composed = sigma.compose(recovered.p)
        for deg in (2, 1, 0):
            assert composed.component(deg) == m_alt.p.component(deg)
            comp = sigma.component(deg)
            assert rank(comp) == comp.rows == comp.cols
            cases += 1

    # (e) Pauli commutation through merges, for flip-free normalizer pairs
    ex = catalog.worked_example("welding")
    m = quotient_merge(ex.parent, ex.subcode)
    both = from_parity_checks(m.source.d1, m.source.d2.T)
    step = MergeStep(
        merge=m,
        orientation="Z",
        measurement_ids=tuple(f"m{i}" for i in range(m.subcode.v1.dim)),
        pivot_qubits=m.subcode.v1.pivots,
        logical_matrix=F2Matrix.zeros(0, 0),
        branch_inserts=(None,) * m.subcode.v1.dim,
    )
    found = 0
    while found < 200:
        def normalizer_pauli():
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
                    z ^= both.z_logical(i)
            return PauliOperator(x=x, z=z)

        p, q = normalizer_pauli(), normalizer_pauli()
        tp, fp = propagate_pauli(step, p)
        tq, fq = propagate_pauli(step, q)
        if fp or fq:
            continue
        assert symplectic_product(tp, tq) == symplectic_product(p, q)
        found += 1
        cases += 1

    # (f) Singleton strictness for every distance >= 2 catalog pair
    strict_pool = [
        catalog.steane(),
        catalog.reed_muller_15(),
        catalog.surface_patch(2, 2),
        catalog.surface_patch(3, 3),
        catalog.toric(2),
        catalog.toric(3),
    ]
    for a in strict_pool:
        for b in strict_pool:
            rep = singleton_check(a, b)
            assert rep.holds() and rep.strict and rep.guaranteed_strict
            cases += 1

    assert cases >= 1000
    report(11, f"property suites passed with {cases} randomized/enumerated cases")
