"""Subcode, merge, split, span, and decomposition tests."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.chaincomplex import (
    direct_sum,
    homology,
    validate,
    validate_chain_map,
)
from chainsurg.errors import ClosureViolated, DimensionMismatch, NotSurjective
from chainsurg.f2linalg import F2Matrix, Subspace, image_basis, invert, kernel_basis, quotient_basis, rank
from chainsurg.surgery import (
    Subcode,
    _projection_matrix,
    analyze_merge,
    induced_logical_matrix,
    merge_decompose,
    merge_report_json,
    quotient_merge,
    span_merge,
    split_from_merge,
    validate_subcode,
)
from test_assembled_spaces import assert_same_space, complexes, identity_chain_map
from test_f2linalg import rref_inputs


def random_subcode(cplx, r, orientation="Z", max_gens=2):
    """Random boundary-closed subcode: seed, then close under boundaries."""
    oriented = cplx if orientation == "Z" else cplx.transpose()
    v2_vecs = [r.randint(0, 2, size=oriented.dim2).astype(np.uint8) for _ in range(r.randint(0, max_gens + 1))]
    v1_seed = [r.randint(0, 2, size=oriented.dim1).astype(np.uint8) for _ in range(r.randint(0, max_gens + 1))]
    v1_vecs = v1_seed + [oriented.d2 @ v for v in v2_vecs]
    v0_seed = [r.randint(0, 2, size=oriented.dim0).astype(np.uint8) for _ in range(r.randint(0, max_gens + 1))]
    v0_vecs = v0_seed + [oriented.d1 @ v for v in v1_vecs]
    s2 = Subspace.from_vectors(v2_vecs, oriented.dim2)
    s1 = Subspace.from_vectors(v1_vecs, oriented.dim1)
    s0 = Subspace.from_vectors(v0_vecs, oriented.dim0)
    if orientation == "Z":
        return validate_subcode(cplx, s2, s1, s0, "Z")
    return validate_subcode(cplx, s0, s1, s2, "X")


def loop_validate_subcode(parent, v2, v1, v0, orientation):
    """The old closure check: one containment test per basis vector, degree 2 first."""
    sub = Subcode(parent=parent, v2=v2, v1=v1, v0=v0, orientation=orientation)
    oriented = sub.oriented_parent()
    s2, s1, s0 = sub.oriented_spaces()
    for b in s2.basis_vectors():
        if not s1.contains(oriented.d2 @ b):
            raise ClosureViolated(2)
    for b in s1.basis_vectors():
        if not s0.contains(oriented.d1 @ b):
            raise ClosureViolated(1)
    return sub


def loop_own_complex(sub):
    """The old restricted boundaries: one containment test per image column."""
    parent = sub.oriented_parent()
    s2, s1, s0 = sub.oriented_spaces()
    blocks = []
    for d, src, tgt in ((parent.d2, s2, s1), (parent.d1, s1, s0)):
        image = d @ src.basis.T
        if not all(tgt.contains(image.col(j)) for j in range(image.cols)):
            raise ClosureViolated(0, "restricted boundary leaves the target subspace")
        blocks.append(F2Matrix(image.a[list(tgt.pivots)]))
    return validate(d2=blocks[0], d1=blocks[1])


def _closure_outcome(fn, *args):
    try:
        out = fn(*args)
    except ClosureViolated as exc:
        return ("violated", exc.degree, str(exc))
    return ("closed", out.to_text() if hasattr(out, "to_text") else out.dims())


def _random_space(r, dim, extra=()):
    vecs = [r.randint(0, 2, size=dim).astype(np.uint8) for _ in range(r.randint(0, 3))]
    return Subspace.from_vectors(vecs + list(extra), dim)


class TestClosureChecks:
    @settings(max_examples=200, deadline=None)
    @given(complexes(), st.sampled_from("ZX"), st.booleans(), st.integers(0, 2**30 - 1))
    def test_match_one_check_per_vector(self, c, orientation, closed, seed):
        """Closed, open at one degree or both: the same outcome, ClosureViolated(2) first."""
        r = np.random.RandomState(seed)
        oriented = c if orientation == "Z" else c.transpose()
        s2 = _random_space(r, oriented.dim2)
        s1 = _random_space(r, oriented.dim1, [oriented.d2 @ b for b in s2.basis_vectors()] if closed else ())
        s0 = _random_space(r, oriented.dim0, [oriented.d1 @ b for b in s1.basis_vectors()] if closed else ())
        spaces = (s2, s1, s0) if orientation == "Z" else (s0, s1, s2)
        want = _closure_outcome(loop_validate_subcode, c, *spaces, orientation)
        assert _closure_outcome(validate_subcode, c, *spaces, orientation) == want
        unchecked = Subcode(c, *spaces, orientation)
        assert _closure_outcome(Subcode.own_complex, unchecked) == _closure_outcome(loop_own_complex, unchecked)


class TestValidateSubcode:
    def test_steane_z_subcode_valid(self):
        ex = catalog.worked_example("steane_z_subcode")
        assert ex.subcode is not None

    def test_steane_x_subcode_valid(self):
        ex = catalog.worked_example("steane_x_subcode")
        assert ex.subcode.orientation == "X"

    def test_steane_invalid_subcode(self):
        ex = catalog.worked_example("steane_invalid_subcode")
        with pytest.raises(ClosureViolated) as err:
            validate_subcode(ex.parent, *ex.raw_spaces, ex.raw_orientation)
        assert err.value.degree == 1

    def test_zero_subcode_valid(self, steane):
        c = steane.complex
        sub = validate_subcode(
            c, Subspace.zero(c.dim2), Subspace.zero(c.dim1), Subspace.zero(c.dim0), "Z"
        )
        assert sub.dims() == (0, 0, 0)

    def test_subcode_file_round_trip(self):
        ex = catalog.worked_example("steane_z_subcode")
        again = Subcode.from_text(ex.subcode.to_text(), ex.parent)
        assert again.v1 == ex.subcode.v1 and again.orientation == "Z"


class TestQuotientMerge:
    def test_virtual_merge_dims_and_matrix(self):
        ex = catalog.worked_example("virtual_merge")
        basis1 = [np.array(v, dtype=np.uint8) for v in ex.expect["quotient_basis_degree1"]]
        m = quotient_merge(ex.parent, ex.subcode, quotient_bases={1: basis1})
        assert [m.quotient.dim2, m.quotient.dim1, m.quotient.dim0] == ex.expect["quotient_dims"]
        assert m.p.f1.to_lists() == ex.expect["p1_in_z1_z2_basis"]
        assert m.quotient.dim0 == 0  # no X-checks left after the merge

    def test_welding_counts(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        assert m.quotient.dim1 == ex.expect["merged_qubits"]
        assert homology(m.quotient, 1).dim == ex.expect["quotient_h1"]

    def test_quotient_by_zero_is_identity(self, steane):
        c = steane.complex
        sub = validate_subcode(
            c, Subspace.zero(c.dim2), Subspace.zero(c.dim1), Subspace.zero(c.dim0), "Z"
        )
        m = quotient_merge(c, sub)
        assert m.p.f1 == F2Matrix.identity(c.dim1)

    def test_exactness_on_examples(self):
        for name in ("welding", "partial_boundary", "virtual_merge", "internal_cylinder"):
            ex = catalog.worked_example(name)
            m = quotient_merge(ex.parent, ex.subcode)
            for deg in (2, 1, 0):
                assert kernel_basis(m.p.component(deg)) == image_basis(m.i.component(deg))

    def test_inclusion_built_and_validated_when_first_read(self, monkeypatch):
        import chainsurg.surgery

        ex = catalog.worked_example("welding")
        own_calls, validated = [], []
        own_complex, validate_chain_map = Subcode.own_complex, chainsurg.surgery.validate_chain_map
        monkeypatch.setattr(Subcode, "own_complex", lambda sub: own_calls.append(sub) or own_complex(sub))
        monkeypatch.setattr(
            chainsurg.surgery,
            "validate_chain_map",
            lambda *args: validated.append(args[0]) or validate_chain_map(*args),
        )
        m = quotient_merge(ex.parent, ex.subcode)
        assert own_calls == [] and validated == [m.source]  # the projection only
        i = m.i
        assert m.i is i and len(own_calls) == 1
        assert validated == [m.source, i.src] and i.src == own_complex(ex.subcode)
        assert i.tgt == m.source and i.f1 == ex.subcode.v1.basis.T

    def test_x_merge_via_transpose(self):
        ex = catalog.worked_example("steane_x_subcode")
        m = quotient_merge(ex.parent, ex.subcode)
        assert m.orientation == "X"
        # merged CODE complex composes to zero
        merged = m.merged_complex()
        validate(merged.d2, merged.d1)


class TestSplit:
    def test_split_of_identity_merge(self, steane):
        c = steane.complex
        sub = validate_subcode(
            c, Subspace.zero(c.dim2), Subspace.zero(c.dim1), Subspace.zero(c.dim0), "Z"
        )
        s = split_from_merge(quotient_merge(c, sub))
        assert s.f1 == F2Matrix.identity(c.dim1)

    def test_welding_split_duplicates_merged_coordinates(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        s = split_from_merge(m)
        assert s.f1 == m.p.f1.T
        for v in m.subcode.v1.basis_vectors():
            # each merged pair feeds both original coordinates from one quotient coord
            pass
        # injectivity degree-wise
        for deg in (2, 1, 0):
            comp = s.component(deg)
            assert rank(comp) == comp.cols

    def test_corrupted_projection_is_refused(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        f1 = m.p.f1.a.copy()
        f1[0] = 0  # the first quotient coordinate loses its preimage
        corrupted = dataclasses.replace(m, p=dataclasses.replace(m.p, f1=F2Matrix(f1)))
        with pytest.raises(DimensionMismatch, match="not injective"):
            split_from_merge(corrupted)

    def test_split_then_merge_is_identity_when_v0_zero(self, steane):
        # the CNOT-style subcode has V0 = 0: the physical split followed by
        # the merge acts as the identity on the whole quotient register
        # (as operators; the mod-2 matrix product p1 @ p1.T is not how the
        # parity maps compose).
        from chainsurg.protocols import direct_sum_code
        from chainsurg.simverify import (
            HadamardConjugatedParityMap,
            ParityMap,
            apply_sequence_linear,
        )

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
        ops = [ParityMap(m.p.f1.T), HadamardConjugatedParityMap(m.p.f1)]
        r = np.random.RandomState(0)
        for _ in range(5):
            state = r.randn(1 << m.quotient.dim1) + 1j * r.randn(1 << m.quotient.dim1)
            out = apply_sequence_linear(ops, state.astype(np.complex128))
            scale = np.linalg.norm(out) / np.linalg.norm(state)
            assert np.allclose(out, scale * state, atol=1e-9)
            assert scale > 1e-6


class TestSpanMerge:
    def test_zero_apex_gives_direct_sum(self, surface2, toric2):
        zero = validate(F2Matrix.zeros(0, 0), F2Matrix.zeros(0, 0))
        f = validate_chain_map(
            zero,
            surface2.complex,
            F2Matrix.zeros(surface2.complex.dim2, 0),
            F2Matrix.zeros(surface2.complex.dim1, 0),
            F2Matrix.zeros(surface2.complex.dim0, 0),
        )
        g = validate_chain_map(
            zero,
            toric2.complex,
            F2Matrix.zeros(toric2.complex.dim2, 0),
            F2Matrix.zeros(toric2.complex.dim1, 0),
            F2Matrix.zeros(toric2.complex.dim0, 0),
        )
        m = span_merge(f, g)
        assert m.quotient == direct_sum(surface2.complex, toric2.complex)
        assert m.p.f1 == F2Matrix.identity(m.quotient.dim1)

    def test_welding_span_equals_quotient_merge(self):
        # apex = the seam (3 qubits, 2 vertices) mapping into both patches
        ex = catalog.worked_example("welding")
        c = catalog.surface_patch(3, 2)
        # seam vertex v sits between seam qubits v and v+1: d1 = [[1,1,0],[0,1,1]]
        apex = validate(F2Matrix.zeros(3, 0), F2Matrix([[1, 1, 0], [0, 1, 1]]))
        cpl = c.complex
        # C's bottom row; D's top row (same patch layout)
        from chainsurg.catalog import _PatchLayout

        lay = _PatchLayout(3, 2)
        f1 = F2Matrix.zeros(cpl.dim1, 3).a.copy()
        for j in range(3):
            f1[lay.horizontal(1, j), j] = 1
        f0 = F2Matrix.zeros(cpl.dim0, 2).a.copy()
        for j in range(2):
            f0[lay.vertex(1, j), j] = 1
        f = validate_chain_map(apex, cpl, F2Matrix.zeros(cpl.dim2, 0), F2Matrix(f1), F2Matrix(f0))
        g1 = F2Matrix.zeros(cpl.dim1, 3).a.copy()
        for j in range(3):
            g1[lay.horizontal(0, j), j] = 1
        g0 = F2Matrix.zeros(cpl.dim0, 2).a.copy()
        for j in range(2):
            g0[lay.vertex(0, j), j] = 1
        g = validate_chain_map(apex, cpl, F2Matrix.zeros(cpl.dim2, 0), F2Matrix(g1), F2Matrix(g0))
        m_span = span_merge(f, g)
        m_quot = quotient_merge(ex.parent, ex.subcode)
        assert m_span.quotient == m_quot.quotient
        assert m_span.p.f1 == m_quot.p.f1
        assert m_span.subcode.v1 == m_quot.subcode.v1

    def test_diagonal_span_collapses(self, surface2):
        cpl = surface2.complex
        ident = identity_chain_map(cpl)
        m = span_merge(ident, ident)
        assert m.quotient.dim1 == cpl.dim1


class TestMergeDecompose:
    def test_already_quotient_merge(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        recovered, sigma = merge_decompose(m.p)
        assert recovered.subcode.v1 == ex.subcode.v1
        for deg in (2, 1, 0):
            assert sigma.component(deg) == F2Matrix.identity(m.quotient.dim(deg))

    def test_iso_recovered(self):
        # compose a quotient merge with a basis change and decompose it back
        ex = catalog.worked_example("welding")
        m_default = quotient_merge(ex.parent, ex.subcode)
        v1 = ex.subcode.v1
        alt = [r ^ v1.basis.row(0) for r in m_default.reps_at(1)[:1]] + list(
            m_default.reps_at(1)[1:]
        )
        m_alt = quotient_merge(ex.parent, ex.subcode, quotient_bases={1: alt})
        recovered, sigma = merge_decompose(m_alt.p)
        composed = sigma.compose(recovered.p)
        for deg in (2, 1, 0):
            assert composed.component(deg) == m_alt.p.component(deg)
            comp = sigma.component(deg)
            assert rank(comp) == comp.rows == comp.cols

    def test_not_surjective(self, steane):
        s = split_from_merge(
            quotient_merge(
                steane.complex,
                validate_subcode(
                    steane.complex,
                    Subspace.zero(3),
                    Subspace.from_vectors([steane.hz.row(0)], 7),
                    Subspace.from_vectors([steane.complex.d1 @ steane.hz.row(0)], 3),
                    "Z",
                ),
            )
        )
        with pytest.raises(NotSurjective):
            merge_decompose(s)


class TestAnalyzeMerge:
    def test_welding_report(self):
        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        rep = analyze_merge(m)
        assert rep.h0_subcode_dim == 0
        assert rep.surjective_guaranteed and rep.matrix_surjective
        assert rep.killed_count == 1
        assert rep.killed_coords.to_lists() == [ex.expect["killed_class_coords"]]

    def test_partial_boundary_report(self):
        ex = catalog.worked_example("partial_boundary")
        m = quotient_merge(ex.parent, ex.subcode)
        rep = analyze_merge(m)
        assert rep.h1_subcode_dim == 0
        assert rep.injective_guaranteed and rep.matrix_injective
        assert rep.h0_subcode_dim == 1
        assert rep.created_count == 1

    def test_zero_subcode_report(self, steane):
        c = steane.complex
        sub = validate_subcode(
            c, Subspace.zero(c.dim2), Subspace.zero(c.dim1), Subspace.zero(c.dim0), "Z"
        )
        rep = analyze_merge(quotient_merge(c, sub))
        assert rep.surjective_guaranteed and rep.injective_guaranteed
        assert rep.killed_count == 0 and rep.created_count == 0

    def test_cylinder_flags_conservative(self):
        # top and bottom rows of a patch are homologous: H1(V) != 0 yet the
        # induced map is injective; the guaranteed flag stays off while the
        # matrix fact is reported.
        ex = catalog.worked_example("internal_cylinder")
        m = quotient_merge(ex.parent, ex.subcode)
        rep = analyze_merge(m)
        assert rep.h1_subcode_dim == 1
        assert not rep.injective_guaranteed
        assert rep.matrix_injective
        assert rep.killed_count == 0

    def test_welding_analysis_eliminates_nine_times(self, tmp_path, capsys):
        import chainsurg
        from chainsurg import f2linalg
        from chainsurg.cli import main

        assert main(["catalog", "export", "example:welding", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        calls, original = [], f2linalg.rref

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for module in vars(chainsurg).values():
                if getattr(module, "rref", None) is original:
                    mp.setattr(module, "rref", counted)
            code, sub = (str(tmp_path / f"welding.{ext}") for ext in ("code", "sub"))
            assert main(["--json", "merge", code, "--subcode", sub, "--analyze"]) == 0
        assert len(calls) == 9

    def test_report_json_schema_fields(self):
        import json

        ex = catalog.worked_example("welding")
        m = quotient_merge(ex.parent, ex.subcode)
        doc = json.loads(merge_report_json(m, analyze_merge(m)))
        assert doc["schema"] == "chainsurg-report/1"
        assert doc["analysis"]["killed"] == [[1, 1]]


class TestInducedLogicalMatrix:
    def test_worked_case_bit_exact(self):
        ex = catalog.worked_example("worked_quotient_matrix")
        m = quotient_merge(ex.parent, ex.subcode)
        mat = induced_logical_matrix(m, homology(m.source, 1), homology(m.quotient, 1))
        assert mat.to_lists() == ex.expect["induced_matrix"]

    def test_zero_subcode_identity(self, toric2):
        c = toric2.complex
        sub = validate_subcode(
            c, Subspace.zero(c.dim2), Subspace.zero(c.dim1), Subspace.zero(c.dim0), "Z"
        )
        m = quotient_merge(c, sub)
        h = homology(c, 1)
        assert induced_logical_matrix(m, h, h) == F2Matrix.identity(2)


class TestRandomizedExactness:
    def test_exactness_random_subcodes(self):
        r = np.random.RandomState(42)
        codes = [catalog.steane(), catalog.surface_patch(2, 2), catalog.toric(2)]
        checked = 0
        for trial in range(60):
            code = codes[trial % len(codes)]
            orientation = "Z" if r.randint(0, 2) else "X"
            sub = random_subcode(code.complex, r, orientation)
            m = quotient_merge(code.complex, sub)
            for deg in (2, 1, 0):
                assert kernel_basis(m.p.component(deg)) == image_basis(m.i.component(deg))
                checked += 1
            # homology-level exactness at degree 1
            h_src = homology(m.source, 1)
            h_tgt = homology(m.quotient, 1)
            induced = induced_logical_matrix(m, h_src, h_tgt)
            own = sub.own_complex()
            h1v = homology(own, 1)
            s1 = sub.oriented_spaces()[1]
            # ker(p1*) = im(i1*)
            killed = [s1.basis.T @ rep for rep in h1v.representatives]
            killed_coords = [
                h_src.class_coordinates(v)
                for v in killed
                if not h_src.is_trivial_class(v)
            ]
            ker_dim = h_src.dim - rank(induced)
            im_space = Subspace.from_vectors(killed_coords, h_src.dim)
            assert im_space.dim == ker_dim
            for c in killed_coords:
                assert not (induced @ c).any()
        assert checked >= 180


def invert_projection(ambient, sub):
    """Projection onto the non-pivot unit vectors by inverting [reps | sub basis], as columns."""
    reps = quotient_basis(ambient, Subspace.full(ambient), sub)
    if not reps:
        return F2Matrix.zeros(0, ambient)
    system = F2Matrix.from_rows(reps + sub.basis_vectors(), cols=ambient).T
    return F2Matrix(invert(system).a[: len(reps)])


def assert_projection_matches_inverse(ambient, sub):
    expected = invert_projection(ambient, sub)
    for got in (
        _projection_matrix(ambient, sub, None),
        _projection_matrix(ambient, sub, quotient_basis(ambient, Subspace.full(ambient), sub)),
    ):
        assert got.shape == expected.shape
        assert got.a.tobytes() == expected.a.tobytes()


class TestDefaultProjection:
    @pytest.mark.parametrize("name", catalog.example_names())
    def test_examples_at_every_degree(self, name):
        # rejected examples keep their raw subspaces, which still have projections
        ex = catalog.worked_example(name)
        spaces = ex.subcode.oriented_spaces() if ex.subcode is not None else ex.raw_spaces
        for space in spaces:
            assert_projection_matches_inverse(space.ambient_dim, space)

    @pytest.mark.parametrize("ambient", [0, 1, 9])
    def test_zero_and_full(self, ambient):
        assert_projection_matches_inverse(ambient, Subspace.zero(ambient))
        assert_projection_matches_inverse(ambient, Subspace.full(ambient))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 80), st.sampled_from([0.05, 0.5, 0.95]),
           st.integers(0, 2**30 - 1))
    def test_random_subspaces_hypothesis(self, rows, cols, density, seed):
        a = (np.random.RandomState(seed).random_sample((rows, cols)) < density).astype(np.uint8)
        assert_projection_matches_inverse(cols, Subspace.from_matrix_rows(F2Matrix(a)))

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("too_few", "need {} quotient basis vectors, got {}"),
            ("repeated", "supplied quotient basis is not a complement of the subcode"),
            ("inside_subcode", "supplied quotient basis is not a complement of the subcode"),
        ],
    )
    def test_supplied_reps_rejected(self, defect, message):
        ex = catalog.worked_example("welding")
        reps = list(quotient_merge(ex.parent, ex.subcode).reps_at(1))
        if defect == "too_few":
            message = message.format(len(reps), len(reps) - 1)
            reps = reps[:-1]
        elif defect == "repeated":
            reps[-1] = reps[0]
        else:
            reps[0] = ex.subcode.v1.basis_vectors()[0]
        with pytest.raises(DimensionMismatch) as err:
            quotient_merge(ex.parent, ex.subcode, quotient_bases={1: reps})
        assert str(err.value) == message

    def test_merge_with_default_reps_supplied(self):
        ex = catalog.worked_example("welding")
        default = quotient_merge(ex.parent, ex.subcode)
        supplied = {deg: list(default.reps_at(deg)) for deg in (2, 1, 0)}
        explicit = quotient_merge(ex.parent, ex.subcode, quotient_bases=supplied)
        for deg in (2, 1, 0):
            assert explicit.p.component(deg) == default.p.component(deg)


# --- the quotient's cycles and boundaries, read off the parent's ----------------------


@st.composite
def hgp_merges(draw):
    """A random hypergraph-product complex, a subcode of it in either orientation and
    supplied coset reps at some degrees.

    The subcode has V2 != 0 when drawn, and V0 larger than d1(V1) when an
    extra degree-0 vector is drawn outside it. Each supplied rep is a
    default rep plus a member of the subcode, so the reps stay a complement.
    """
    r = np.random.RandomState(draw(st.integers(0, 2**30 - 1)))
    m1, n1, m2, n2 = (draw(st.integers(1, 3)) for _ in range(4))
    hx, hz = catalog.hypergraph_product(r.randint(0, 2, (m1, n1)), r.randint(0, 2, (m2, n2)))
    cplx = validate(hz.T, hx)
    orientation = draw(st.sampled_from("ZX"))
    oriented = cplx if orientation == "Z" else cplx.transpose()
    v2 = [r.randint(0, 2, oriented.dim2).astype(np.uint8) for _ in range(draw(st.integers(0, 2)))]
    v1 = [r.randint(0, 2, oriented.dim1).astype(np.uint8) for _ in range(draw(st.integers(0, 3)))]
    v1 += [oriented.d2 @ v for v in v2]
    v0 = [r.randint(0, 2, oriented.dim0).astype(np.uint8) for _ in range(draw(st.integers(0, 1)))]
    v0 += [oriented.d1 @ v for v in v1]
    spaces = (
        Subspace.from_vectors(v2, oriented.dim2),
        Subspace.from_vectors(v1, oriented.dim1),
        Subspace.from_vectors(v0, oriented.dim0),
    )
    sub = validate_subcode(cplx, *(spaces if orientation == "Z" else spaces[::-1]), orientation)
    supplied = {}
    for degree, space in zip((2, 1, 0), spaces):
        if draw(st.booleans()):
            units = quotient_basis(space.ambient_dim, Subspace.full(space.ambient_dim), space)
            shifts = r.randint(0, 2, (len(units), space.dim)).astype(np.uint8)
            supplied[degree] = [u ^ (F2Matrix(s[None, :]) @ space.basis).a[0] for u, s in zip(units, shifts)]
    return cplx, sub, supplied


class TestQuotientSpacesReadOff:
    @settings(max_examples=300, deadline=None)
    @given(hgp_merges())
    def test_match_eliminated_spaces(self, case):
        cplx, sub, supplied = case
        q = quotient_merge(cplx, sub, quotient_bases=supplied).quotient
        assert_same_space(q.cycles, kernel_basis(q.d1))
        assert_same_space(q.boundaries, image_basis(q.d2))

    def _merge(self, cplx, v1, v0=(), supplied=None):
        sub = validate_subcode(
            cplx,
            Subspace.zero(cplx.dim2),
            Subspace.from_vectors(v1, cplx.dim1),
            Subspace.from_vectors(list(v0) + [cplx.d1 @ v for v in v1], cplx.dim0),
        )
        return quotient_merge(cplx, sub, quotient_bases=supplied).quotient

    def test_which_spaces_are_read_off(self, steane):
        c = steane.complex

        def read_off(q):
            """Read both spaces; the names read off the parent's, and the shapes eliminated."""
            assert "cycles" not in q.__dict__ and "boundaries" not in q.__dict__  # not at the merge
            names = []
            eliminated = rref_inputs(lambda: (names.extend(sorted(q._read_off())), q.cycles, q.boundaries))
            return names, [shape for shape, _ in eliminated]

        qubit = np.eye(c.dim1, dtype=np.uint8)[0]
        # V0 = d1(V1): both spaces, inserting V1's one row, which needs no elimination
        assert read_off(self._merge(c, [qubit])) == (["boundaries", "cycles"], [])
        # a larger V0: the boundaries only; the cycles are ker q_d1, whose one row is its own RREF
        extra = np.eye(c.dim0, dtype=np.uint8)[2]
        q = self._merge(c, [qubit], [extra])
        assert q.d1.rows == 1 and read_off(q) == (["boundaries"], [])
        # supplied degree-1 reps: neither; ker q_d1 and the row space of q_d2.T are eliminated
        units = quotient_basis(c.dim1, Subspace.full(c.dim1), Subspace.from_vectors([qubit], c.dim1))
        q = self._merge(c, [qubit], supplied={1: units})
        assert read_off(q) == ([], [q.d1.shape, q.d2.T.shape])
