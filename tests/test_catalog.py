"""Catalog constructors and worked-example records."""
import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.chaincomplex import cohomology, homology
from chainsurg.cli import main
from chainsurg.csscode import distance_bruteforce, from_parity_checks
from chainsurg.errors import UnknownExample
from chainsurg.f2linalg import F2Matrix, Subspace, rank
from chainsurg.surgery import quotient_merge


class TestParameters:
    def test_steane(self):
        code = catalog.steane()
        assert (code.n, code.k, distance_bruteforce(code)) == (7, 1, 3)

    def test_reed_muller_15(self):
        code = catalog.reed_muller_15()
        assert (code.n, code.k, distance_bruteforce(code)) == (15, 1, 3)

    def test_trivial_qubit(self):
        code = catalog.trivial_qubit()
        assert (code.n, code.k, code.d) == (1, 1, 1)

    def test_no_check(self):
        code = catalog.no_check(3)
        assert (code.n, code.k, distance_bruteforce(code)) == (3, 3, 1)

    @pytest.mark.parametrize("d,expected_n", [(1, 1), (2, 5), (3, 13), (4, 25)])
    def test_surface_patch_qubit_count(self, d, expected_n):
        code = catalog.surface_patch(d, d)
        assert code.n == d * d + (d - 1) * (d - 1) == expected_n
        assert code.k == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_surface_patch_distance(self, d):
        assert distance_bruteforce(catalog.surface_patch(d, d)) == d

    def test_surface_patch_d1(self):
        code = catalog.surface_patch(1, 1)
        assert (code.n, code.k) == (1, 1)

    @pytest.mark.parametrize("L,d", [(2, 2), (3, 3)])
    def test_toric(self, L, d):
        code = catalog.toric(L)
        assert (code.n, code.k) == (2 * L * L, 2)
        assert distance_bruteforce(code) == d

    def test_homology_equals_cohomology_dims(self):
        for name in catalog.catalog_names():
            code = catalog.catalog_code(name)
            for deg in (0, 1, 2):
                assert homology(code.complex, deg).dim == cohomology(code.complex, deg).dim


class TestExamples:
    def test_all_names_build(self):
        for name in catalog.example_names():
            ex = catalog.worked_example(name)
            assert ex.name == name

    def test_unknown_name(self):
        with pytest.raises(UnknownExample):
            catalog.worked_example("nope")

    def test_wrong_merge_expectation(self):
        ex = catalog.worked_example("wrong_merge")
        assert ex.expect == {"valid": False, "closure_degree": 1}
        assert ex.subcode is None

    def test_partial_boundary_expectation(self):
        ex = catalog.worked_example("partial_boundary")
        assert ex.expect["created_count"] == 1

    def test_virtual_merge_expectation(self):
        ex = catalog.worked_example("virtual_merge")
        assert ex.expect["quotient_dims"] == [1, 2, 0]

    def test_code_switch_merged_params(self):
        ex = catalog.worked_example("code_switch")
        m = quotient_merge(ex.parent, ex.subcode)
        merged = m.merged_complex()
        from chainsurg.csscode import from_parity_checks

        code = from_parity_checks(merged.d1, merged.d2.T)
        assert (code.n, code.k) == (15, 1)
        assert distance_bruteforce(code) == 3


def _hand_indexed_surface_patch(w, h):
    """The edge-by-edge surface patch construction, kept as an oracle."""
    lay = catalog._PatchLayout(w, h)

    def vertical(r, c):
        return w * h + r * (w - 1) + c

    hx_rows = []
    for r in range(h):
        for c in range(w - 1):
            row = [0] * lay.n
            support = [lay.horizontal(r, c), lay.horizontal(r, c + 1)]
            support += [vertical(r - 1, c)] if r > 0 else []
            support += [vertical(r, c)] if r < h - 1 else []
            for q in support:
                row[q] = 1
            hx_rows.append(row)
    hz_rows = []
    for r in range(h - 1):
        for c in range(w):
            row = [0] * lay.n
            support = [lay.horizontal(r, c), lay.horizontal(r + 1, c)]
            support += [vertical(r, c - 1)] if c > 0 else []
            support += [vertical(r, c)] if c < w - 1 else []
            for q in support:
                row[q] = 1
            hz_rows.append(row)
    return _oracle_code(hx_rows, hz_rows, lay.n, min(w, h))


def _hand_indexed_toric(L):
    """The edge-by-edge toric construction, kept as an oracle."""
    n = 2 * L * L

    def h_edge(r, c):
        return (r % L) * L + (c % L)

    def v_edge(r, c):
        return L * L + (r % L) * L + (c % L)

    hx_rows, hz_rows = [], []
    for r in range(L):
        for c in range(L):
            for rows, support in (
                (hx_rows, (h_edge(r, c), h_edge(r, c - 1), v_edge(r, c), v_edge(r - 1, c))),
                (hz_rows, (h_edge(r, c), h_edge(r + 1, c), v_edge(r, c), v_edge(r, c + 1))),
            ):
                row = [0] * n
                for q in support:
                    row[q] ^= 1
                rows.append(row)
    return _oracle_code(hx_rows, hz_rows, n, L)


def _oracle_code(hx_rows, hz_rows, n, d):
    hx = F2Matrix.from_rows(hx_rows, cols=n)
    hz = F2Matrix.from_rows(hz_rows, cols=n)
    return from_parity_checks(hx, hz).with_distance(d)


class TestHypergraphProduct:
    @pytest.mark.parametrize("w", range(1, 10))
    def test_surface_patch_matches_the_hand_indexed_layout(self, w):
        for h in range(1, 10):
            code, oracle = catalog.surface_patch(w, h), _hand_indexed_surface_patch(w, h)
            assert code.to_text() == oracle.to_text() and code.d == oracle.d

    @pytest.mark.parametrize("L", range(2, 12))
    def test_toric_matches_the_hand_indexed_layout(self, L):
        code, oracle = catalog.toric(L), _hand_indexed_toric(L)
        assert code.to_text() == oracle.to_text() and code.d == oracle.d

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 4), st.integers(1, 6), st.integers(0, 4), st.integers(1, 6),
        st.integers(0, 2**30 - 1),
    )
    def test_product_parameters_hypothesis(self, m1, n1, m2, n2, seed):
        r = np.random.RandomState(seed)
        h1 = r.randint(0, 2, size=(m1, n1))
        h2 = r.randint(0, 2, size=(m2, n2))
        hx, hz = catalog.hypergraph_product(h1, h2)
        r1, r2 = rank(F2Matrix(h1)), rank(F2Matrix(h2))
        n = n1 * n2 + m1 * m2
        assert hx.shape == (m1 * n2, n) and hz.shape == (n1 * m2, n)
        assert (hx @ hz.T).is_zero()
        k = (n1 - r1) * (n2 - r2) + (m1 - r1) * (m2 - r2)
        assert n - rank(hx) - rank(hz) == k

    def test_matches_the_benchmark_construction(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "hgp.py"
        spec = importlib.util.spec_from_file_location("hgp_reference", path)
        hgp = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(hgp)
        for name, pair in hgp.HGP_FAMILY.items():
            h1, h2 = pair()
            expected = hgp.hypergraph_product(h1, h2)
            got = catalog.hypergraph_product(h1, h2)
            for g, e in zip(got, expected):
                assert g == F2Matrix(e), name


# example name -> SHA-256 over the name and bytes of each file that
# ``catalog export example:NAME`` writes, in the order it lists them
EXPORT_DIGESTS = {
    "welding": "6114406f7f1f31dc05a8960e1be44762c6484b94926a483ab761b2f942a87b1f",
    "partial_boundary": "c3ec68c928c78bd270707eea2740d3bbb08199a94975e853bac1ff9f35602a26",
    "internal_cylinder": "df67ebae5204362da3c152d046c3eee25569c52155baef7b8ae954d1cddb2cef",
    "wrong_merge": "4324a74769a91a889ee1c5bdb05535b02e5e64e94ed62d39f1be57ed2e7053d8",
    "virtual_merge": "bd0c33e560e61b109068adc16780a47c1054512b6d24944b8037a1ec1f5be4bd",
    "steane_z_subcode": "82fee6d6c4d076d3f2b4b63112619c9d9f0aaeb8a9708226bb84c0df3ad7676e",
    "steane_x_subcode": "ec0af94547cfbc34f1a2e6f98acb25089432ddef7e1501c45afabaaf9f1c93ce",
    "steane_invalid_subcode": "198e337471401712c10a3e2f174c3dd9bfe019bb919c6ecc6e7e5993ce68a0eb",
    "worked_quotient_matrix": "bd75e60f77f00ab611a5cd256506d2c351647c7049365f312959eb3772920f81",
    "code_switch": "46505f4ed0e5cef33f11b34a1521e7ff220c4b40ef2aa465feddad37b461714e",
}


def _export_digest(name, directory):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", "export", f"example:{name}", "--dir", str(directory)]) == 0
    digest = hashlib.sha256()
    for line in out.getvalue().splitlines():
        path = Path(line)
        digest.update(f"{path.name}\n".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestExampleSpaces:
    @pytest.mark.parametrize("name", catalog.example_names())
    def test_subcode_is_validated_from_the_spaces(self, name):
        ex = catalog.worked_example(name)
        if not ex.expect["valid"]:
            assert ex.subcode is None
            return
        sub = ex.subcode
        assert sub is not None and sub.parent == ex.parent
        assert (sub.v2, sub.v1, sub.v0) == ex.raw_spaces
        assert sub.orientation == ex.raw_orientation
        assert ex.subcode is sub  # validated once

    @pytest.mark.parametrize("name", catalog.example_names())
    def test_subcode_read_validates_once(self, name, monkeypatch):
        calls = []
        real = catalog.validate_subcode
        monkeypatch.setattr(
            catalog, "validate_subcode", lambda *args: calls.append(args) or real(*args)
        )
        ex = catalog.worked_example(name)
        ex.subcode
        assert len(calls) == (1 if ex.expect["valid"] else 0)

    def test_switch_pair_spaces_are_already_canonical(self):
        # the pairs of the 7-to-15 switch: qubits, Z-checks (steane face i with row
        # 6 + i of the rm hz) and X-checks (steane check i with rm cell i)
        steane, rm = catalog.steane(), catalog.reed_muller_15()
        pairs = (
            [catalog._pair_vector(3, 10, i, 6 + i) for i in range(3)],
            [catalog._pair_vector(7, 15, q - 1, catalog._steane_bits(q) - 1) for q in range(1, 8)],
            [catalog._pair_vector(3, 4, i, i) for i in range(3)],
        )
        total, spaces = catalog._switch_spaces(steane, rm)
        for space, vectors, ambient in zip(spaces, pairs, (total.dim2, total.dim1, total.dim0)):
            eliminated = Subspace.from_vectors(vectors, ambient)
            assert space == eliminated and space.pivots == eliminated.pivots

    @pytest.mark.parametrize("name", catalog.example_names())
    def test_exported_files_bytes(self, name, tmp_path):
        assert _export_digest(name, tmp_path) == EXPORT_DIGESTS[name]
