"""GF(2) kernel tests; expected values come from brute-force enumeration."""
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog, f2linalg
from chainsurg.csscode import CssCode, from_parity_checks
from chainsurg.errors import DimensionMismatch, MalformedInput, NotContained, SingularMatrix
from chainsurg.f2linalg import (
    Elimination,
    F2Matrix,
    Subspace,
    coset_reduce,
    format_matrix,
    hstack,
    image_basis,
    kernel_basis,
    left_inverse_block,
    parse_matrix,
    quotient_basis,
    rank,
    rref,
    solve,
    split_sections,
)

STEANE_HX = [
    [1, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 1, 1, 0],
    [0, 1, 0, 0, 1, 1, 1],
]


def brute_rank(rows, width):
    """Rank via enumeration: count distinct nonzero row combinations."""
    seen = set()
    for mask in range(1, 1 << len(rows)):
        v = np.zeros(width, dtype=np.uint8)
        for i in range(len(rows)):
            if (mask >> i) & 1:
                v ^= np.array(rows[i], dtype=np.uint8)
        if v.any():
            seen.add(tuple(v))
    count = len(seen)
    r = 0
    while (1 << r) - 1 < count:
        r += 1
    assert (1 << r) - 1 == count, "row combinations do not form a subspace minus zero"
    return r


class TestRref:
    def test_duplicate_rows(self):
        res = rref(F2Matrix([[1, 1], [1, 1]]))
        assert res.rank == 1
        assert res.pivots == (0,)

    def test_identity_fixed(self):
        m = F2Matrix.identity(3)
        res = rref(m)
        assert res.reduced == m
        assert res.pivots == (0, 1, 2)

    def test_steane_rank_vs_bruteforce(self):
        res = rref(F2Matrix(STEANE_HX))
        assert res.rank == brute_rank(STEANE_HX, 7) == 3

    def test_transform_property(self):
        m = F2Matrix([[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 1]])
        res = rref(m)
        assert res.transform @ m == res.reduced
        # transform invertible
        assert rank(res.transform) == m.rows

    def test_rref_fixpoint(self):
        m = F2Matrix([[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 1]])
        once = rref(m).reduced
        assert rref(once).reduced == once


class TestKernelImage:
    def test_zero_matrix_full_kernel(self):
        k = kernel_basis(F2Matrix.zeros(2, 3))
        assert k.dim == 3

    def test_repetition_pair(self):
        k = kernel_basis(F2Matrix([[1, 1]]))
        assert k.dim == 1
        assert k.contains([1, 1])

    def test_steane_kernel_vs_enumeration(self):
        m = F2Matrix(STEANE_HX)
        k = kernel_basis(m)
        brute = [v for v in itertools.product([0, 1], repeat=7) if not (m @ np.array(v, dtype=np.uint8)).any()]
        assert (1 << k.dim) == len(brute) == 16
        for v in brute:
            assert k.contains(np.array(v, dtype=np.uint8))

    def test_image_identity_and_zero(self):
        assert image_basis(F2Matrix.identity(4)).dim == 4
        assert image_basis(F2Matrix.zeros(3, 2)).dim == 0

    def test_steane_hzT_image(self):
        hz_t = F2Matrix(STEANE_HX).T  # 7x3
        img = image_basis(hz_t)
        # enumerate the 2^3 column combinations
        brute = set()
        for mask in range(8):
            v = np.zeros(7, dtype=np.uint8)
            for i in range(3):
                if (mask >> i) & 1:
                    v ^= hz_t.col(i)
            brute.add(tuple(v))
        assert img.dim == 3 and len(brute) == 8

    def test_rank_nullity(self):
        r = np.random.RandomState(7)
        for _ in range(25):
            m = F2Matrix(r.randint(0, 2, size=(r.randint(1, 6), r.randint(1, 7))))
            assert kernel_basis(m).dim + image_basis(m).dim == m.cols


class TestSolve:
    def test_identity(self):
        b = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(solve(F2Matrix.identity(3), b), b)

    def test_pivot_solution(self):
        x = solve(F2Matrix([[1, 1]]), [1])
        assert np.array_equal(x, [1, 0])  # free variable set to 0

    def test_steane_weight_one_syndrome(self):
        m = F2Matrix(STEANE_HX)
        syndrome = m @ np.eye(7, dtype=np.uint8)[1]
        x = solve(m, syndrome)
        assert x is not None and (m @ x == syndrome).all()
        # exhaustive search confirms a weight-1 solution exists
        found = [
            v
            for v in itertools.product([0, 1], repeat=7)
            if np.array_equal(m @ np.array(v, dtype=np.uint8), syndrome) and sum(v) == 1
        ]
        assert found

    def test_unsolvable(self):
        assert solve(F2Matrix.zeros(1, 2), [1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(F2Matrix.identity(2), [1, 0, 0])


class TestCosetReduce:
    def test_member_reduces_to_zero(self):
        w = Subspace.from_vectors([[1, 1]], 2)
        assert not coset_reduce([1, 1], w).any()

    def test_pivot_cleared(self):
        w = Subspace.from_vectors([[1, 1]], 2)
        assert np.array_equal(coset_reduce([1, 0], w), [0, 1])

    def test_steane_stabilizers_reduce_to_zero(self):
        hz_t = F2Matrix(STEANE_HX).T
        img = image_basis(hz_t)
        for mask in range(8):
            v = np.zeros(7, dtype=np.uint8)
            for i in range(3):
                if (mask >> i) & 1:
                    v ^= hz_t.col(i)
            assert not coset_reduce(v, img).any()

    def test_idempotent_and_coset_constant(self):
        r = np.random.RandomState(3)
        for _ in range(50):
            n = r.randint(2, 8)
            w = Subspace.from_vectors(r.randint(0, 2, size=(r.randint(1, 4), n)), n)
            v = r.randint(0, 2, size=n).astype(np.uint8)
            red = coset_reduce(v, w)
            assert np.array_equal(coset_reduce(red, w), red)
            for el in w.basis_vectors():
                assert np.array_equal(coset_reduce(v ^ el, w), red)


class TestQuotientBasis:
    def test_plane_mod_diagonal(self):
        u = Subspace.full(2)
        w = Subspace.from_vectors([[1, 1]], 2)
        reps = quotient_basis(2, u, w)
        assert len(reps) == 1
        assert np.array_equal(reps[0], [0, 1])

    def test_worked_pivot_complement(self):
        # u basis e1..e4, w = span{u1+u3, u2+u3+u4}: representatives u3, u4
        u = Subspace.full(4)
        w = Subspace.from_vectors([[1, 0, 1, 0], [0, 1, 1, 1]], 4)
        reps = quotient_basis(4, u, w)
        assert [list(map(int, r)) for r in reps] == [[0, 0, 1, 0], [0, 0, 0, 1]]

    def test_w_equals_u(self):
        u = Subspace.from_vectors([[1, 0, 1], [0, 1, 0]], 3)
        assert quotient_basis(3, u, u) == []

    def test_not_contained(self):
        with pytest.raises(NotContained):
            quotient_basis(2, Subspace.from_vectors([[1, 0]], 2), Subspace.from_vectors([[0, 1]], 2))

    def test_representatives_independent_mod_w(self):
        r = np.random.RandomState(11)
        for _ in range(30):
            n = r.randint(2, 8)
            u = Subspace.from_vectors(r.randint(0, 2, size=(r.randint(1, n + 1), n)), n)
            take = r.randint(0, 2, size=(r.randint(0, 3), max(u.dim, 1)))
            w_vecs = [sum((row[i] * u.basis.row(i) for i in range(u.dim)), np.zeros(n, dtype=np.uint8)) % 2 for row in take] if u.dim else []
            w = Subspace.from_vectors(w_vecs, n)
            reps = quotient_basis(n, u, w)
            stacked = list(w.basis_vectors()) + reps
            if stacked:
                assert rank(F2Matrix.from_rows(stacked, cols=n)) == len(stacked)


class TestLeftInverse:
    def test_identity_block(self):
        assert left_inverse_block([F2Matrix.identity(3)]) == F2Matrix.identity(3)

    def test_upper_triangular_self_inverse(self):
        m = F2Matrix([[1, 1], [0, 1]])
        assert left_inverse_block([m]) == m

    def test_steane_dual_basis_assembly(self):
        # (L_Z | generators of im d2 | complement of ker d1): the first row of
        # the inverse is an X-logical representative. (Using ker(d1)-perp
        # generators as the third block is singular here because the checks
        # are self-dual; the complement is the invertible assembly.)
        hx = F2Matrix(STEANE_HX)
        d2 = hx.T  # self-dual code: hz = hx
        lz = F2Matrix([[0, 0, 0, 1, 0, 1, 1]]).T  # a Z-logical representative
        complement = kernel_basis(hx).free_units()
        assembled = hstack([lz, d2, complement])
        inv = left_inverse_block([lz, d2, complement])
        assert inv @ assembled == F2Matrix.identity(7)
        x = inv.row(0)
        assert not (d2.T @ x).any()  # commutes with the Z checks
        assert int(x @ lz.col(0)) % 2 == 1

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            left_inverse_block([F2Matrix([[1, 1], [1, 1]])])

    def test_not_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            left_inverse_block([F2Matrix([[1, 0]])])


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        r = np.random.RandomState(5)
        for _ in range(20):
            m = F2Matrix(r.randint(0, 2, size=(r.randint(0, 5), r.randint(0, 6))))
            assert parse_matrix(format_matrix(m)) == m

    def test_header(self):
        assert format_matrix(F2Matrix([[1, 0], [0, 1]])).splitlines()[0] == "2 2"

    def test_rows_beyond_the_header_are_refused(self):
        with pytest.raises(MalformedInput, match="^expected 1 rows, found 3$"):
            parse_matrix("1 2\n01\n10\n \n11")
        with pytest.raises(MalformedInput, match="^expected 2 rows, found 1$"):
            parse_matrix("2 2\n01")
        assert parse_matrix("1 2\n01\n \n\t") == F2Matrix([[0, 1]])

    def test_sections(self):
        text = "orientation: Z\nv1:\n1 2\n01\nv0:\n0 2\n"
        sections = split_sections(text, ("orientation", "v2", "v1", "v0"))
        assert sections["orientation"] == "Z"
        assert parse_matrix(sections["v1"]).rows == 1


_PER_LINE_SECTION_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")


def per_line_split_sections(text, names):
    """split_sections as it was: one regex match per line, kept as the oracle."""
    sections = {}
    name = None
    buf = []

    def flush():
        nonlocal name, buf
        if name is not None:
            sections[name] = "\n".join(buf).strip("\n")
        name = None
        buf = []

    for line in text.splitlines():
        m = _PER_LINE_SECTION_RE.match(line.strip())
        if m:
            flush()
            key = m.group(1)
            if key not in names:
                raise MalformedInput(
                    f"unknown section '{key}:', expected one of {', '.join(names)}", section=key
                )
            if key in sections:
                raise MalformedInput(f"section '{key}:' is given twice", section=key)
            if m.group(2):
                sections[key] = m.group(2).strip()
            else:
                name = key
        elif name is not None:
            buf.append(line)
        elif line.strip():
            raise MalformedInput(f"unexpected line outside any section: {line!r}")
    flush()
    return sections


def sections_outcome(split, text, names):
    """The sections split reads, or the type, message and section it raises."""
    try:
        return split(text, names)
    except MalformedInput as exc:
        return type(exc), str(exc), exc.section


SECTION_NAMES = ("hx", "hz", "zl", "xl", "orientation")
_BLANKS = st.text(alphabet=" \t\x0c\x1f\xa0　", max_size=2)
_HEADERS = st.builds(
    lambda lead, name, gap, content: f"{lead}{name}:{gap}{content}",
    _BLANKS,
    st.sampled_from(SECTION_NAMES * 4 + ("bogus", "_x1", "Hx")),
    _BLANKS,
    st.sampled_from(["", "", "", "", "Z", "X ", "2 3", "a: b"]),
)
_BODY_LINES = st.one_of(
    _BLANKS,
    st.sampled_from(["1 2", "01", "0 1 1", "2 2", "11", "1:2", "a b: c", "#", "-"]),
    st.builds(lambda lead, line: lead + line, _BLANKS, st.sampled_from(["01", "1 2", "x"])),
)
# str.splitlines splits at each of these but the last
_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", " "])


@st.composite
def section_texts(draw):
    """Blank lines, at times a stray line, then headers each followed by body and blank
    lines, with mixed line ends and maybe no final line end."""
    lines = draw(st.lists(_BLANKS, max_size=2))
    if not draw(st.integers(0, 9)):
        lines.append(draw(_BODY_LINES))
    for _ in range(draw(st.integers(0, 5))):
        lines += [draw(_HEADERS)] + draw(st.lists(_BODY_LINES, max_size=3))
    ends = [draw(_LINE_ENDS) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestSplitSections:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(section_texts())
    def test_matches_per_line_oracle(self, text):
        assert sections_outcome(split_sections, text, SECTION_NAMES) == sections_outcome(
            per_line_split_sections, text, SECTION_NAMES
        )

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_code_text(self, name):
        text = catalog.catalog_code(name).to_text()
        for t in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            assert split_sections(t, SECTION_NAMES) == per_line_split_sections(t, SECTION_NAMES)

    def test_each_refusal(self):
        for text in ("hx:\n01\nbogus:\n", "hx:\n1 1\nhx: 0\n", "  stray\nhx:\n", "orientation: Z\n  01\n"):
            got = sections_outcome(split_sections, text, SECTION_NAMES)
            assert isinstance(got, tuple) and got == sections_outcome(per_line_split_sections, text, SECTION_NAMES)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**30 - 1),
)
def test_rank_nullity_hypothesis(rows, cols, seed):
    r = np.random.RandomState(seed)
    m = F2Matrix(r.randint(0, 2, size=(rows, cols)))
    res = rref(m)
    assert kernel_basis(m).dim == cols - res.rank
    assert res.transform @ m == res.reduced


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**30 - 1))
def test_coset_reduce_canonical_hypothesis(n, seed):
    r = np.random.RandomState(seed)
    w = Subspace.from_vectors(r.randint(0, 2, size=(r.randint(1, n), n)), n)
    v = r.randint(0, 2, size=n).astype(np.uint8)
    shift = np.zeros(n, dtype=np.uint8)
    for b in w.basis_vectors():
        if r.randint(0, 2):
            shift ^= b
    assert np.array_equal(coset_reduce(v, w), coset_reduce(v ^ shift, w))


# --- loop oracles: the elimination and product as first written ---------------


def loop_rref(a):
    """Row-by-row Gauss-Jordan elimination; returns (reduced, pivots, transform)."""
    a = np.array(a, dtype=np.uint8)
    rows, cols = a.shape
    t = np.eye(rows, dtype=np.uint8)
    r = 0
    pivots = []
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
            t[[r, pivot]] = t[[pivot, r]]
        for i in np.nonzero(a[:, c])[0]:
            if i != r:
                a[i, :] ^= a[r, :]
                t[i, :] ^= t[r, :]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, tuple(pivots), t


def int64_product(a, b):
    return np.asarray(a).astype(np.int64) @ np.asarray(b).astype(np.int64) % 2


def loop_solve(a, b):
    """Pivot solution of a @ x = b from a fresh loop elimination, or None."""
    _, pivots, transform = loop_rref(a)
    rb = int64_product(transform, b)
    if rb[len(pivots) :].any():
        return None
    x = np.zeros(np.shape(a)[1], dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = rb[i]
    return x


def loop_quotient_basis(u, w):
    """Coordinates of w in u's basis by one solve per vector, then one rref."""
    if w.dim == 0:
        return u.basis_vectors()
    coords = [loop_solve(u.basis.T.a, r) for r in w.basis_vectors()]
    pivots = set(loop_rref(np.array(coords))[1])
    return [u.basis.row(j) for j in range(u.dim) if j not in pivots]


def loop_coset_reduce(v, w):
    out = np.array(v, dtype=np.uint8)
    for i, p in enumerate(w.pivots):
        if out[p]:
            out ^= w.basis.a[i]
    return out


def loop_kernel_vectors(m):
    """One kernel vector per free column, set bit by bit from the reduced form."""
    reduced, pivots, _ = loop_rref(m.a)
    vecs = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = np.zeros(m.cols, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            if reduced[i, f]:
                v[p] = 1
        vecs.append(v)
    return vecs


def random_matrix(r, rows, cols, density=0.5):
    return (r.random_sample((rows, cols)) < density).astype(np.uint8)


def rank_deficient(r, rows, cols, rank_):
    return int64_product(random_matrix(r, rows, rank_), random_matrix(r, rank_, cols))


EDGE_SHAPES = [(0, 4), (4, 0), (0, 0), (1, 1), (1, 5), (5, 1)]


def oracle_matrices():
    r = np.random.RandomState(11)
    out = [np.zeros(shape, dtype=np.uint8) for shape in EDGE_SHAPES]
    out += [np.ones((1, 1), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8)]
    for _ in range(40):
        rows, cols = r.randint(1, 14), r.randint(1, 14)
        out.append(random_matrix(r, rows, cols, density=r.choice([0.1, 0.5, 0.9])))
    for rows, cols, rank_ in [(6, 6, 3), (10, 4, 2), (4, 12, 1), (30, 60, 17), (60, 30, 29)]:
        out.append(rank_deficient(r, rows, cols, rank_))
    return out


def boundary_matrices():
    """Inputs whose row width cols + rows sits at a byte or 64-bit word boundary.

    Each width gets a wide, a tall (rows > cols) and a rank-deficient matrix.
    """
    r = np.random.RandomState(23)
    out = []
    for width in (7, 8, 9, 63, 64, 65, 127, 128, 129):
        rows = width // 3
        out.append(random_matrix(r, rows, width - rows))
        out.append(random_matrix(r, width - rows, rows))
        out.append(rank_deficient(r, width // 2, width - width // 2, max(1, width // 6)))
    return out


def assert_matches_loop_rref(a):
    res = rref(F2Matrix(a))
    reduced, pivots, transform = loop_rref(a)
    assert res.pivots == pivots
    assert np.array_equal(res.reduced.a, reduced)
    assert np.array_equal(res.transform.a, transform)


class TestRrefOracle:
    @pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_matches_loop_rref(self, a):
        assert_matches_loop_rref(a)

    def test_code_check_matrices(self):
        code = catalog.toric(4)
        for m in (code.hx, code.hz, code.hx.T, code.hz.T):
            res = rref(m)
            reduced, pivots, transform = loop_rref(m.a)
            assert res.pivots == pivots and np.array_equal(res.transform.a, transform)
            assert np.array_equal(res.reduced.a, reduced)

    @pytest.mark.parametrize("a", boundary_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_word_and_byte_boundaries(self, a):
        assert_matches_loop_rref(a)

    def test_random_300x600(self):
        assert_matches_loop_rref(random_matrix(np.random.RandomState(17), 300, 600))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 70), st.integers(0, 140), st.sampled_from([0.05, 0.5, 0.95]),
           st.integers(0, 2**30 - 1))
    def test_matches_loop_rref_hypothesis(self, rows, cols, density, seed):
        assert_matches_loop_rref(random_matrix(np.random.RandomState(seed), rows, cols, density))


class TestProductOracle:
    @pytest.mark.parametrize(
        "shapes", [((0, 3), (3, 4)), ((3, 0), (0, 4)), ((3, 4), (4, 0)), ((1, 1), (1, 1)), ((7, 9), (9, 5)),
                   ((40, 81), (81, 33)), ((2, 700), (700, 3))]
    )
    def test_matrix_product(self, shapes):
        r = np.random.RandomState(sum(sum(s) for s in shapes))
        a, b = (random_matrix(r, *shape, density=0.9) for shape in shapes)
        got = F2Matrix(a) @ F2Matrix(b)
        assert got.shape == (a.shape[0], b.shape[1])
        assert np.array_equal(got.a, int64_product(a, b))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (6, 11), (50, 700)])
    def test_vector_product(self, shape):
        r = np.random.RandomState(shape[1])
        a = random_matrix(r, *shape, density=0.9)
        v = random_matrix(r, 1, shape[1], density=0.9)[0]
        got = F2Matrix(a) @ v
        assert got.dtype == np.uint8 and got.shape == (shape[0],)
        assert np.array_equal(got, int64_product(a, v))


class TestMulOracle:
    """``_mul`` (float32, or float64 at large inner dimensions) against the int64 product."""

    @staticmethod
    def assert_matches_int64(a, b):
        got = f2linalg._mul(a, b)
        assert got.dtype == np.uint8
        assert got.shape == int64_product(a, b).shape
        assert np.array_equal(got, int64_product(a, b))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 70), st.integers(0, 9), st.sampled_from([0.1, 0.5, 0.9]),
           st.integers(0, 2**30 - 1))
    def test_random_shapes(self, rows, inner, cols, density, seed):
        r = np.random.RandomState(seed)
        a, b = random_matrix(r, rows, inner, density), random_matrix(r, inner, cols, density)
        self.assert_matches_int64(a, b)
        self.assert_matches_int64(a, random_matrix(r, 1, inner, density)[0])

    @pytest.mark.parametrize("shapes", [((3, 0), (0, 4)), ((0, 0), (0, 0)), ((1, 0), (0,))])
    def test_inner_dimension_zero(self, shapes):
        a, b = (np.zeros(shape, dtype=np.uint8) for shape in shapes)
        self.assert_matches_int64(a, b)
        assert not f2linalg._mul(a, b).any()

    @pytest.mark.parametrize("inner", [1, 2, 255, 256, 257, 1023, 4095, 4096])
    def test_all_ones_sums_at_their_maximum(self, inner):
        # every sum equals the inner dimension, so its parity is the parity of inner
        a, b = np.ones((3, inner), dtype=np.uint8), np.ones((inner, 2), dtype=np.uint8)
        self.assert_matches_int64(a, b)
        self.assert_matches_int64(a, b[:, 0])
        assert (f2linalg._mul(a, b) == inner % 2).all()

    @pytest.mark.parametrize("inner", [3, 4, 5, 64, 4096])
    def test_float64_branch(self, monkeypatch, inner):
        monkeypatch.setattr(f2linalg, "_FLOAT32_EXACT", 4)
        monkeypatch.setattr(f2linalg, "_SMALL_PRODUCT", 0)
        r = np.random.RandomState(inner)
        a, b = random_matrix(r, 5, inner, 0.9), random_matrix(r, inner, 6, 0.9)
        self.assert_matches_int64(a, b)
        self.assert_matches_int64(a, b[:, 1])
        ones = np.ones((2, inner), dtype=np.uint8)
        self.assert_matches_int64(ones, ones.T)

    def test_float64_branch_is_taken_at_the_bound(self, monkeypatch):
        seen = []
        real_astype = np.ndarray.astype

        class Spy(np.ndarray):
            def astype(self, dtype, *args, **kwargs):
                seen.append(np.dtype(dtype))
                return real_astype(np.asarray(self), dtype, *args, **kwargs)

        monkeypatch.setattr(f2linalg, "_FLOAT32_EXACT", 4)
        monkeypatch.setattr(f2linalg, "_SMALL_PRODUCT", 0)
        for inner in (3, 4):
            a = np.ones((2, inner), dtype=np.uint8).view(Spy)
            f2linalg._mul(a, np.ones((inner, 2), dtype=np.uint8))
        assert seen == [np.dtype(np.float32), np.dtype(np.float64)]


    @pytest.mark.parametrize("inner", [255, 256, 257, 511])
    def test_small_products_wrap_in_uint8(self, inner):
        # at most _SMALL_PRODUCT multiply-adds: no float conversion, and sums past 255 wrap
        # modulo 256, which keeps their parity
        seen = []
        real_astype = np.ndarray.astype

        class Spy(np.ndarray):
            def astype(self, dtype, *args, **kwargs):
                seen.append(np.dtype(dtype))
                return real_astype(np.asarray(self), dtype, *args, **kwargs)

        a = np.ones((1, inner), dtype=np.uint8).view(Spy)
        b = np.ones((inner, 2), dtype=np.uint8)
        assert a.size * b.shape[1] <= f2linalg._SMALL_PRODUCT
        got = f2linalg._mul(a, b)
        assert got.dtype == np.uint8 and np.asarray(got).tolist() == [[inner % 2] * 2]
        assert seen == [np.dtype(np.uint8)]


class TestSubspaceOracle:
    @pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_kernel_matches_loop_construction(self, a):
        m = F2Matrix(a)
        assert kernel_basis(m) == Subspace.from_vectors(loop_kernel_vectors(m), m.cols)

    @pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_coset_reduce_matches_loop(self, a):
        w = Subspace.from_matrix_rows(F2Matrix(a))
        r = np.random.RandomState(a.size)
        for _ in range(3):
            v = random_matrix(r, 1, w.ambient_dim)[0]
            assert np.array_equal(coset_reduce(v, w), loop_coset_reduce(v, w))


class TestElimination:
    @pytest.mark.parametrize("a", oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_solve_many_matches_one_shot_and_loop(self, a):
        r = np.random.RandomState(a.size)
        m = F2Matrix(a)
        elim = Elimination(m)
        rhs = [random_matrix(r, 1, m.rows)[0] for _ in range(4)]
        rhs += [int64_product(a, random_matrix(r, 1, m.cols)[0]) for _ in range(3)]  # solvable
        for b in rhs:
            x = elim.solve(b)
            expected = loop_solve(a, b)
            if expected is None:
                assert x is None and solve(m, b) is None
                continue
            assert np.array_equal(x, expected) and np.array_equal(solve(m, b), expected)
            assert np.array_equal(m @ x, b)
            free = [c for c in range(m.cols) if c not in elim.result.pivots]
            assert not x[free].any()
        # all right-hand sides at once: the same columns, or None if any has no solution
        solutions = [loop_solve(a, b) for b in rhs]
        solvable = [b for b, x in zip(rhs, solutions) if x is not None]
        stacked = elim.solve_columns(F2Matrix.from_rows(solvable, cols=m.rows).T)
        assert stacked == F2Matrix.from_rows([x for x in solutions if x is not None], cols=m.cols).T
        if len(solvable) < len(rhs):
            assert elim.solve_columns(F2Matrix.from_rows(rhs, cols=m.rows).T) is None

    def test_unsolvable(self):
        elim = Elimination(F2Matrix([[1, 1], [1, 1]]))
        assert elim.solve([1, 0]) is None
        assert np.array_equal(elim.solve([1, 1]), [1, 0])

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionMismatch):
            Elimination(F2Matrix.identity(3)).solve([1, 0])


class TestQuotientBasisOracle:
    def test_matches_per_vector_reference(self):
        r = np.random.RandomState(3)
        for _ in range(30):
            n = r.randint(1, 12)
            u = Subspace.from_vectors(random_matrix(r, r.randint(1, n + 1), n), n)
            if u.dim == 0:
                continue
            coeffs = random_matrix(r, r.randint(0, u.dim + 1), u.dim)
            w = Subspace.from_vectors(list(int64_product(coeffs, u.basis.a)), n)
            got = quotient_basis(n, u, w)
            expected = loop_quotient_basis(u, w)
            assert len(got) == len(expected) == u.dim - w.dim
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_toric_homology_reference(self):
        code = catalog.toric(3)
        u, w = kernel_basis(code.hx), image_basis(code.hz.T)
        got = quotient_basis(code.n, u, w)
        assert all(np.array_equal(g, e) for g, e in zip(got, loop_quotient_basis(u, w)))


# --- rewrites that read an RREF, against the eliminations they replaced ------------


def two_elimination_kernel_basis(m):
    """Kernel vectors from rref(m), canonicalized by a second elimination."""
    res = rref(m)
    pivots = list(res.pivots)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    vecs = np.zeros((len(free), m.cols), dtype=np.uint8)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, pivots] = res.reduced.a[: res.rank, free].T
    return Subspace.from_matrix_rows(F2Matrix(vecs))


def rref_quotient_basis(ambient, u, w):
    """Echelonize w in u's basis coordinates and keep u's non-pivot members."""
    if w.dim == 0:
        return u.basis_vectors()
    res = rref(F2Matrix(w.basis.a[:, list(u.pivots)]))
    pivot_set = set(res.pivots)
    return [u.basis.row(j) for j in range(u.dim) if j not in pivot_set]


def assert_same_subspace_bits(got, expected):
    assert got.ambient_dim == expected.ambient_dim
    assert got.pivots == expected.pivots
    assert got.basis.shape == expected.basis.shape
    assert got.basis.a.tobytes() == expected.basis.a.tobytes()


def edge_matrices():
    """0xn, nx0, 0x0, zero, identity, full-rank and rank-deficient inputs."""
    r = np.random.RandomState(29)
    full_rank = random_matrix(r, 6, 9)
    full_rank[:, :6] = np.eye(6, dtype=np.uint8)
    out = [np.zeros(shape, dtype=np.uint8) for shape in [(0, 5), (5, 0), (0, 0), (4, 7), (7, 4)]]
    out += [np.eye(n, dtype=np.uint8) for n in (1, 8)]
    out += [full_rank, full_rank.T.copy(), rank_deficient(r, 9, 14, 4), rank_deficient(r, 14, 9, 5)]
    return out


def assert_quotient_matches(u, r, density):
    coeffs = random_matrix(r, r.randint(0, u.dim + 2), u.dim, density)
    w = Subspace.from_matrix_rows(F2Matrix(int64_product(coeffs, u.basis.a)))
    got = quotient_basis(u.ambient_dim, u, w)
    expected = rref_quotient_basis(u.ambient_dim, u, w)
    assert len(got) == len(expected) == u.dim - w.dim
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


class TestReadFromRref:
    @pytest.mark.parametrize("a", edge_matrices() + oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_kernel_matches_two_eliminations(self, a):
        assert_same_subspace_bits(kernel_basis(F2Matrix(a)), two_elimination_kernel_basis(F2Matrix(a)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 80), st.sampled_from([0.05, 0.5, 0.95]),
           st.integers(0, 2**30 - 1))
    def test_kernel_matches_two_eliminations_hypothesis(self, rows, cols, density, seed):
        m = F2Matrix(random_matrix(np.random.RandomState(seed), rows, cols, density))
        assert_same_subspace_bits(kernel_basis(m), two_elimination_kernel_basis(m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 80), st.sampled_from([0.0, 0.05, 0.5, 0.95]), st.integers(0, 2**30 - 1))
    def test_kernel_of_one_row_needs_no_elimination(self, cols, density, seed):
        m = F2Matrix(random_matrix(np.random.RandomState(seed), 1, cols, density))
        got = []
        assert rref_inputs(lambda: got.append(kernel_basis(m))) == []
        assert_same_subspace_bits(got[0], two_elimination_kernel_basis(m))

    @pytest.mark.parametrize("a", edge_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_quotient_matches_rref(self, a):
        r = np.random.RandomState(a.size)
        u = Subspace.from_matrix_rows(F2Matrix(a))
        for density in (0.05, 0.5, 0.95):
            assert_quotient_matches(u, r, density)
        for w in (Subspace.zero(u.ambient_dim), u):
            got = quotient_basis(u.ambient_dim, u, w)
            expected = rref_quotient_basis(u.ambient_dim, u, w)
            assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 80), st.sampled_from([0.05, 0.5, 0.95]),
           st.integers(0, 2**30 - 1))
    def test_quotient_matches_rref_hypothesis(self, rows, cols, density, seed):
        r = np.random.RandomState(seed)
        u = Subspace.from_matrix_rows(F2Matrix(random_matrix(r, rows, cols, density)))
        assert_quotient_matches(u, r, density)
        assert_quotient_matches(Subspace.full(cols), r, density)

    @pytest.mark.parametrize("a", edge_matrices() + oracle_matrices() + boundary_matrices(),
                             ids=lambda a: "x".join(map(str, a.shape)))
    def test_rref_without_transform(self, a):
        full, bare = rref(F2Matrix(a)), rref(F2Matrix(a), transform=False)
        assert bare.transform is None
        assert bare.pivots == full.pivots
        assert bare.reduced == full.reduced

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 80), st.sampled_from([0.05, 0.5, 0.95]),
           st.integers(0, 2**30 - 1))
    def test_rref_without_transform_hypothesis(self, rows, cols, density, seed):
        m = F2Matrix(random_matrix(np.random.RandomState(seed), rows, cols, density))
        full, bare = rref(m), rref(m, transform=False)
        assert bare.transform is None
        assert bare.pivots == full.pivots and bare.reduced == full.reduced


class TestParsing:
    @pytest.mark.parametrize(
        "text", ["", "x y\n", "2\n01\n", "-1 2\n", "2 2\n01\n", "1 2\n0\n", "1 2\n0a\n"]
    )
    def test_malformed_matrix(self, text):
        with pytest.raises(MalformedInput):
            parse_matrix(text)

    def test_huge_header_rejected_before_allocating(self):
        with pytest.raises(MalformedInput):
            parse_matrix("1 100000000000\n01\n")

    def test_section_named(self):
        sections = split_sections("hx:\n1 2\n01\nhz:\n1 2\n0b\n", ("hx", "hz", "zl", "xl"))
        assert f2linalg.section_matrix(sections, "hx") == F2Matrix([[0, 1]])
        for name in ("hz", "zl"):
            with pytest.raises(MalformedInput) as exc:
                f2linalg.section_matrix(sections, name)
            assert exc.value.section == name


# --- elimination budget: per-vector solve loops must not come back ----------------

HAMMING_3 = [[((j + 1) >> (2 - i)) & 1 for j in range(7)] for i in range(3)]



def _record_calls(original, fn, record) -> None:
    """Run fn with ``original`` replaced, in every chainsurg namespace that binds it, by a
    function that passes its arguments to ``record`` and then calls it."""

    def counted(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    patched = [
        (module, attr)
        for name, module in sys.modules.items()
        if name == "chainsurg" or name.startswith("chainsurg.")
        for attr, value in list(vars(module).items())
        if value is original
    ]
    for module, attr in patched:
        setattr(module, attr, counted)
    try:
        fn()
    finally:
        for module, attr in patched:
            setattr(module, attr, original)


def rref_inputs(fn):
    """(shape, bytes) of every rref input fn passes, counted in every chainsurg namespace that binds rref."""
    inputs = []
    _record_calls(f2linalg.rref, fn, lambda m, *args, **kwargs: inputs.append((m.shape, m.a.tobytes())))
    return inputs


def mul_calls(fn) -> int:
    """How many GF(2) products (``f2linalg._mul`` calls) fn runs, in every chainsurg namespace."""
    calls = []
    _record_calls(f2linalg._mul, fn, lambda a, b: calls.append(None))
    return len(calls)


class TestEliminationBudget:
    def test_cnot_plan_on_toric_5(self):
        from chainsurg.protocols import build_cnot_plan

        # a code built here, so that no cache an earlier test filled hides calls
        toric = catalog.toric(5)
        code = from_parity_checks(toric.hx, toric.hz)
        # no merged code, and no space of a merged complex: each logical matrix
        # is read off its subcode's one generator paired with the dual basis;
        # the base code's spaces are assembled from its summands' and the bare
        # ancilla qubit needs none; the zero degree-0 row of a non-local joint
        # subcode needs none either
        assert rref_inputs(lambda: build_cnot_plan(code, 0, 1)) == []

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_cnot_plan_on_a_loaded_toric_code(self, d):
        from chainsurg.protocols import build_cnot_plan

        # read from its text, as the CLI reads a code file: its bases are a dual pair
        code = CssCode.from_text(catalog.toric(d).to_text())
        assert rref_inputs(lambda: build_cnot_plan(code, 0, 1)) == []

    def test_cnot_plan_on_toric_5_eliminates_nothing_code_sized(self):
        from chainsurg.protocols import build_cnot_plan

        toric = catalog.toric(5)
        code = from_parity_checks(toric.hx, toric.hz)
        inputs = rref_inputs(lambda: build_cnot_plan(code, 0, 1))
        assert not [shape for shape, _ in inputs if shape[0] >= toric.hx.rows]

    def test_ancilla_target_plan_on_surface_5(self):
        from chainsurg.protocols import build_cnot_plan

        patch = catalog.surface_patch(5, 5)
        code = from_parity_checks(patch.hx, patch.hz)
        assert rref_inputs(lambda: build_cnot_plan(code, 0)) == []

    def test_cnot_plan_load_on_toric_2(self):
        from chainsurg.protocols import build_cnot_plan, plan_from_json, plan_to_json

        # the loader builds no code for the ancilla, no inclusion map, no merged
        # code and no space of a merged complex per merge: only the base code's
        # ker hx and the row space of hz (for k) are eliminated
        text = plan_to_json(build_cnot_plan(catalog.toric(2), 0, 1))
        assert len(rref_inputs(lambda: plan_from_json(text))) <= 2

    def test_code_switch_plan(self):
        from chainsurg.protocols import code_switch_plan

        # the switch subcode's pair spaces are built in RREF, with no elimination,
        # and its logical matrix is read off the subcode, with no quotient space
        assert len(rref_inputs(code_switch_plan)) <= 11

    def test_trivial_qubit(self):
        # its cycles are the whole space and its boundaries are zero
        assert rref_inputs(catalog.trivial_qubit) == []

    def test_symplectic_action_of_toric_3_cnot(self):
        from chainsurg.protocols import build_cnot_plan, plan_symplectic_action

        plan = build_cnot_plan(catalog.toric(3), 0, 1)
        first = rref_inputs(lambda: plan_symplectic_action(plan))
        # each step eliminates its transport systems once, when first read;
        # the splits read their projections off the merges' zero V0 with none
        assert len(first) == len(set(first)) <= 4
        assert rref_inputs(lambda: plan_symplectic_action(plan)) == []

    def test_symplectic_action_of_a_fresh_toric_5_cnot_eliminates_nothing(self):
        from chainsurg.protocols import build_cnot_plan, plan_symplectic_action

        # each transported Pauli is checked by the products hz @ x and hx @ z,
        # not by membership in ker hz and ker hx, which eliminated hz
        plan = build_cnot_plan(catalog.toric(5), 0, 1)
        action = []
        assert rref_inputs(lambda: action.append(plan_symplectic_action(plan))) == []
        got = {name: (x.tolist(), z.tolist()) for name, (x, z) in action[0].items()}
        assert got == {  # as the membership test read it
            "X0": ([1, 1, 0], [0, 0, 0]),
            "X1": ([0, 1, 0], [0, 0, 0]),
            "X2": ([0, 0, 0], [0, 0, 0]),
            "Z0": ([0, 0, 0], [1, 0, 0]),
            "Z1": ([0, 0, 0], [1, 1, 1]),
            "Z2": ([0, 0, 0], [1, 0, 0]),
        }

    @staticmethod
    def _load(code, **kwargs):
        """The c0t1 plan of ``code`` loaded from its JSON, and the rref inputs of the load alone."""
        from chainsurg.protocols import build_cnot_plan, plan_from_json, plan_to_json

        text = plan_to_json(build_cnot_plan(code, 0, 1, **kwargs))
        loaded = []
        inputs = rref_inputs(lambda: loaded.append(plan_from_json(text)))
        return loaded[0], inputs

    @pytest.mark.parametrize("code", ["toric2", "steane_steane"])
    def test_plan_branch_on_a_loaded_plan(self, code):
        from chainsurg.protocols import direct_sum_code, plan_branch

        codes = {
            "toric2": lambda: catalog.toric(2),
            "steane_steane": lambda: direct_sum_code(catalog.steane(), catalog.steane()),
        }
        plan, load = self._load(codes[code]())
        branch = rref_inputs(lambda: plan_branch(plan))
        # each merge and split reads its physical ops off the merge's sections:
        # no image of an identity f2 and no preimage system is eliminated; the
        # X-stabilizer space, the row space of hx, is eliminated when the branch
        # first reads it, as the load no longer reads the transposed complex
        assert [shape for shape, _ in branch] == [plan.base_code.hx.shape]
        assert len(load) + len(branch) <= 3

    def test_plan_branch_on_a_loaded_locality_plan(self):
        from chainsurg.protocols import SplitStep, plan_branch

        plan, load = self._load(catalog.toric(2), locality=True, max_weight=2)
        branch = rref_inputs(lambda: plan_branch(plan))
        # each split's projections need V0^perp: a kernel_basis of V0's one
        # row, which reversed is its own RREF; the branch eliminates only the
        # X-stabilizer space, which the load no longer reads
        v0s = [step.merge.subcode.oriented_spaces()[2].basis.a for step in plan.steps if isinstance(step, SplitStep)]
        assert [v0.shape[0] for v0 in v0s] == [1, 1]
        assert [shape for shape, _ in branch] == [plan.base_code.hx.shape]
        # per merge, one elimination of [V1 d1^T | pairing] gives the logical matrix
        # where the quotient's spaces and the pushed basis took three
        assert len(load) + len(branch) <= 7

    def test_symplectic_action_of_code_switch_plan(self):
        from chainsurg.protocols import code_switch_plan, plan_symplectic_action

        plan = code_switch_plan()
        first = rref_inputs(lambda: plan_symplectic_action(plan))
        assert len(first) == len(set(first)) <= 7
        assert rref_inputs(lambda: plan_symplectic_action(plan)) == []

    def test_from_parity_checks_on_toric_20(self):
        code = catalog.toric(20)
        assert len(rref_inputs(lambda: from_parity_checks(code.hx, code.hz))) <= 8

    def test_from_parity_checks_with_dual_bases(self):
        hx, hz = catalog.hypergraph_product(HAMMING_3, HAMMING_3)
        code = from_parity_checks(hx, hz)
        zl, xl = code.z_logicals.matrix(), code.x_logicals.matrix()
        loaded = []
        inputs = rref_inputs(lambda: loaded.append(from_parity_checks(hx, hz, z_basis=zl, x_basis=xl)))
        # the pairing certifies both bases and products tell (co)cycles, so only
        # ker hx and the row space of hz (for k) are eliminated
        assert [shape for shape, _ in inputs] == [hx.shape, hz.shape]
        # a co-space is eliminated when first read, and then only once
        x_logicals = loaded[0].x_logicals
        assert [shape for shape, _ in rref_inputs(lambda: x_logicals.kernel)] == [hz.shape]
        assert [shape for shape, _ in rref_inputs(lambda: x_logicals.image)] == [hx.shape]
        assert rref_inputs(lambda: (x_logicals.kernel, x_logicals.image)) == []

    def test_analyze_merge_on_hgp_eliminates_no_class_system(self):
        from chainsurg.chaincomplex import homology
        from chainsurg.surgery import analyze_merge, quotient_merge, validate_subcode

        hx, hz = catalog.hypergraph_product(HAMMING_3, HAMMING_3)
        code = from_parity_checks(hx, hz)
        assert code.k == 16
        c, zl = code.complex, code.z_logicals.matrix().a
        gens = [zl[0] ^ zl[1], zl[2] ^ zl[5], zl[7] ^ zl[12]]
        sub = validate_subcode(c, Subspace.zero(c.dim2), Subspace.from_vectors(gens, c.dim1), Subspace.zero(c.dim0))
        merged = []
        merge_inputs = rref_inputs(lambda: merged.append(quotient_merge(c, sub)))
        m = merged[0]
        inputs = rref_inputs(lambda: analyze_merge(m))
        # the source and quotient bases are homology's, whose class systems are
        # already known: nothing of the shape of their representatives, as rows
        # or as columns, is eliminated
        for basis in (homology(m.source, 1), homology(m.quotient, 1)):
            assert basis.dim >= 13
            shapes = {(basis.dim, basis.ambient_dim), (basis.ambient_dim, basis.dim)}
            assert not [shape for shape, _ in inputs if shape in shapes]
        # the subcode's own complex and its H0 need none (its degrees 2 and 0 are
        # zero); the merge reads no space of the quotient, and analyze_merge reads
        # them off the parent's, eliminating only V1's rows reduced modulo its
        # cycles; then the image of the induced map and the killed classes
        assert merge_inputs == []
        assert len(merge_inputs) + len(inputs) <= 3


class TestProductBudget:
    """GF(2) products of a toric-3 CNOT: each merge is built, and loaded, from one set of them.

    Per merge, a default section is a column selection, the split reads p at
    the section's unit columns, the chain-map squares reuse p1 @ d2 and
    p0 @ d1, and one product pairs the subcode's generators with the dual
    logical basis for the logical matrix. A zero space takes no product: the
    subcode's closure check skips it, reduction modulo it is the identity,
    and along a zero V2 the square's right side q_d2 @ p2 is q_d2.
    """

    @staticmethod
    def _code():
        # read from its text, as the CLI reads a code file, so no cache an earlier test filled hides products
        return CssCode.from_text(catalog.toric(3).to_text())

    def test_cnot_plan_on_toric_3(self):
        from chainsurg.protocols import build_cnot_plan

        code = self._code()
        assert mul_calls(lambda: build_cnot_plan(code, 0, 1)) <= 13

    def test_cnot_plan_load_on_toric_3(self):
        from chainsurg.protocols import build_cnot_plan, plan_from_json, plan_to_json

        text = plan_to_json(build_cnot_plan(self._code(), 0, 1))
        assert mul_calls(lambda: plan_from_json(text)) <= 17


# --- the two constructors ------------------------------------------------------------


class TestConstructors:
    def test_public_constructor_reduces_and_copies(self):
        data = np.array([[2, 3, 5], [0, 1, 4]])
        m = F2Matrix(data)
        assert m.a.tolist() == [[0, 1, 1], [0, 1, 0]] and m.a.dtype == np.uint8
        data[0, 0] = 1
        assert m.a.tolist() == [[0, 1, 1], [0, 1, 0]]
        assert not np.shares_memory(m.a, data) and not m.a.flags.writeable

    def test_public_constructor_copies_bits_already_reduced(self):
        bits = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        m = F2Matrix(bits)
        assert not np.shares_memory(m.a, bits)
        bits[0, 0] = 0
        assert m == F2Matrix([[1, 0], [1, 1]])
        assert bits.flags.writeable
        assert F2Matrix([1, 3, 0]).a.tolist() == [[1, 1, 0]]

    def test_package_results_are_read_only_bits(self):
        r = np.random.RandomState(3)
        a, b = F2Matrix(r.randint(0, 2, (5, 7))), F2Matrix(r.randint(0, 2, (7, 4)))
        res = rref(a)
        made = [
            a @ b, a + a, a.T, hstack([a, a]), f2linalg.vstack([a, a]), f2linalg.block_diag(a, b),
            res.reduced, res.transform, F2Matrix.identity(4), F2Matrix.zeros(2, 3),
            kernel_basis(a).basis, image_basis(a).basis, parse_matrix(format_matrix(a)),
            zassenhaus_intersect(Subspace.from_matrix_rows(a), Subspace.from_matrix_rows(a + a.T.T)).basis,
        ]
        for m in made:
            assert m.a.dtype == np.uint8 and m.a.ndim == 2 and m.a.max(initial=0) <= 1
            assert not m.a.flags.writeable
        assert (a @ b).a.tolist() == (int64_product(a.a, b.a) % 2).tolist()

    def test_row_is_a_read_only_view(self):
        m = F2Matrix([[1, 0, 1], [0, 1, 1]])
        row = m.row(1)
        assert row.tolist() == [0, 1, 1] and np.shares_memory(row, m.a)
        with pytest.raises(ValueError):
            row[0] = 1
        assert m.T.row(2).tolist() == [1, 1]


# --- matrix text: bytes and messages against the per-character formulas -------------


def per_entry_format_matrix(m):
    """format_matrix as it was: one str(int(x)) per entry."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append("".join(str(int(x)) for x in m.a[i]))
    return "\n".join(lines) + "\n"


def per_character_row_error(text):
    """The MalformedInput message of the old per-character check, or None."""
    lines = text.splitlines()
    rows, cols = (int(h) for h in lines[0].split())
    for i, line in enumerate(line.strip() for line in lines[1 : 1 + rows]):
        if len(line) != cols:
            return f"row {i} has {len(line)} entries, expected {cols}"
        for ch in line:
            if ch not in "01":
                return f"bad character {ch!r} in matrix row {i}"
    return None


class TestTextBytes:
    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_code_text_matches_per_entry_formula(self, name):
        code = catalog.catalog_code(name)
        mats = (code.hx, code.hz, code.z_logicals.matrix(), code.x_logicals.matrix())
        for m in mats + (code.hx.T, code.complex.cycles.basis):
            assert format_matrix(m) == per_entry_format_matrix(m)
        labels = ("hx", "hz", "zl", "xl")
        assert code.to_text() == "".join(f"{k}:\n" + per_entry_format_matrix(m) for k, m in zip(labels, mats))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 9)])
    def test_edge_shapes_match_per_entry_formula(self, shape):
        m = F2Matrix(np.random.RandomState(sum(shape)).randint(0, 2, shape).astype(np.uint8).reshape(shape))
        assert format_matrix(m) == per_entry_format_matrix(m)
        assert parse_matrix(format_matrix(m)) == m

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_errors_match_per_character_check(self, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        # mostly rows of the right length, so that the character check is reached
        widths = st.one_of(st.just(cols), st.integers(0, 5))
        lines = [
            data.draw(widths.flatmap(lambda w: st.text(alphabet="0101 x2\té١", min_size=w, max_size=w)))
            for _ in range(rows)
        ]
        text = f"{rows} {cols}\n" + "\n".join(lines) + "\n"
        expected = per_character_row_error(text)
        if expected is None:
            assert parse_matrix(text).shape == (rows, cols)
        else:
            with pytest.raises(MalformedInput) as exc:
                parse_matrix(text)
            assert str(exc.value) == expected


# --- intersection from one elimination ----------------------------------------------


def zassenhaus_intersect(u: Subspace, w: Subspace) -> Subspace:
    """u ∩ w from one Zassenhaus elimination, already canonical: an oracle for the tests.

    The RREF of [[U, U], [W, 0]] (U, W the two bases) ends in the rows
    whose left half is zero, and their right halves span U ∩ W. Those
    rows are an RREF block on their own, their pivots in the right half,
    so their right halves are the canonical basis.
    """
    n = u.ambient_dim
    if w.ambient_dim != n:
        raise DimensionMismatch("ambient dimensions differ")
    if not (u.dim and w.dim):
        return Subspace.zero(n)
    stacked = np.block([[u.basis.a, u.basis.a], [w.basis.a, np.zeros_like(w.basis.a)]])
    res = f2linalg.rref(F2Matrix(stacked), transform=False)  # seen by rref_inputs
    left = sum(p < n for p in res.pivots)
    return Subspace(n, F2Matrix(res.reduced.a[left : res.rank, n:]), tuple(p - n for p in res.pivots[left:]))


def perp_sum_intersect(u, w):
    """The old formula, kept as the oracle: (u-perp + w-perp)-perp."""
    return u.perp().sum(w.perp()).perp()


def random_subspace(r, n, kind):
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    return Subspace.from_matrix_rows(F2Matrix(random_matrix(r, r.randint(0, n + 2), n, r.choice([0.1, 0.5]))))


class TestIntersect:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 24), st.sampled_from(["zero", "full", "random"]),
           st.sampled_from(["zero", "full", "random"]), st.integers(0, 2**30 - 1))
    def test_matches_perp_sum_formula(self, n, kind_u, kind_w, seed):
        r = np.random.RandomState(seed)
        u, w = random_subspace(r, n, kind_u), random_subspace(r, n, kind_w)
        if kind_u == kind_w == "random" and r.rand() < 0.5:
            w = u.sum(random_subspace(r, n, "random"))  # nested spaces
        got, expected = zassenhaus_intersect(u, w), perp_sum_intersect(u, w)
        assert got.pivots == expected.pivots and got.basis.a.tobytes() == expected.basis.a.tobytes()
        assert got == zassenhaus_intersect(w, u)

    def test_one_elimination_and_ambient_check(self):
        r = np.random.RandomState(11)
        u, w = (Subspace.from_matrix_rows(F2Matrix(random_matrix(r, 7, 12))) for _ in range(2))
        assert u.dim and w.dim
        assert len(rref_inputs(lambda: zassenhaus_intersect(u, w))) == 1
        assert rref_inputs(lambda: zassenhaus_intersect(u, Subspace.zero(12))) == []
        with pytest.raises(DimensionMismatch):
            zassenhaus_intersect(u, Subspace.full(13))


# --- sums by insertion and projections read off an RREF --------------------------------


class TestInsertionSum:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 24), st.sampled_from(["zero", "full", "random"]),
           st.sampled_from(["zero", "full", "random"]), st.integers(0, 2**30 - 1))
    def test_matches_stacked_elimination(self, n, kind_u, kind_w, seed):
        r = np.random.RandomState(seed)
        u, w = random_subspace(r, n, kind_u), random_subspace(r, n, kind_w)
        if kind_u == kind_w == "random" and r.rand() < 0.5:
            w = Subspace.from_matrix_rows(F2Matrix(int64_product(random_matrix(r, 3, u.dim), u.basis.a)))
        expected = Subspace.from_vectors(u.basis_vectors() + w.basis_vectors(), n)
        assert_same_subspace_bits(u.sum(w), expected)
        assert_same_subspace_bits(w.sum(u), expected)

    def test_eliminates_only_the_inserted_rows(self):
        r = np.random.RandomState(5)
        u = Subspace.from_matrix_rows(F2Matrix(random_matrix(r, 7, 12)))
        w = Subspace.from_matrix_rows(F2Matrix(random_matrix(r, 3, 12)))
        assert [shape for shape, _ in rref_inputs(lambda: u.sum(w))] == [(3, 12)]
        # one reduced row is its own RREF
        one = Subspace.from_vectors([np.ones(12, dtype=np.uint8)], 12)
        assert rref_inputs(lambda: u.sum(one)) == []
        with pytest.raises(DimensionMismatch):
            u.sum(Subspace.full(13))

    @pytest.mark.parametrize("a", edge_matrices() + oracle_matrices(), ids=lambda a: "x".join(map(str, a.shape)))
    def test_one_row_needs_no_elimination(self, a):
        m = F2Matrix(a[:1] if a.shape[0] else np.zeros((1, a.shape[1]), dtype=np.uint8))
        assert rref_inputs(lambda: Subspace.from_matrix_rows(m)) == []
        res = rref(m, transform=False)
        expected = Subspace(m.cols, F2Matrix(res.reduced.a[: res.rank]), res.pivots)
        assert_same_subspace_bits(Subspace.from_matrix_rows(m), expected)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 24), st.sampled_from(["zero", "full", "random"]), st.integers(0, 2**30 - 1))
    def test_projection_matches_eliminated_image(self, n, kind_w, seed):
        r = np.random.RandomState(seed)
        w = random_subspace(r, n, kind_w)
        u = w.sum(random_subspace(r, n, "random"))
        free = [j for j in range(n) if j not in set(w.pivots)]
        expected = Subspace.from_matrix_rows(F2Matrix(np.ascontiguousarray(f2linalg._reduce_rows(u.basis.a, w)[:, free])))
        assert_same_subspace_bits(u.project(w), expected)


def test_zero_rows_span_the_zero_space_without_elimination():
    m = F2Matrix.zeros(3, 5)
    assert rref_inputs(lambda: Subspace.from_matrix_rows(m)) == []
    assert Subspace.from_matrix_rows(m) == Subspace.zero(5)
    assert Subspace.from_vectors([np.zeros(4), np.zeros(4)], 4) == Subspace.zero(4)


def test_subspace_free_columns_are_found_once(monkeypatch):
    w = Subspace.from_matrix_rows(F2Matrix([[1, 1, 0, 0], [0, 0, 1, 1]]))
    calls, real = [], f2linalg.free_columns
    monkeypatch.setattr(f2linalg, "free_columns", lambda *args: calls.append(args) or real(*args))
    first = w.free
    assert first == [1, 3] and w.free is first
    assert len(calls) == 1
