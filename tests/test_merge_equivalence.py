"""The one-pass plan merge against the public functions it fuses.

``protocols._merge_and_split`` builds each merge from one set of GF(2)
products: default sections are read as column selections, and the step's
logical matrix is read off the subcode by the exact sequence, with no space
of the quotient. Here every result is recomputed through the public
functions, on small random CSS codes with random joint subcodes in both
orientations:

* each step's ``logical_matrix`` is ``induced_on_homology`` into the pushed
  basis, whose kernel and image are eliminated afresh;
* the projection passes ``validate_chain_map`` computed from scratch;
* the quotient's seeded cycles and boundaries are ``kernel_basis`` and
  ``image_basis`` of its boundary maps;
* a subcode that identifies or creates logical classes raises the message
  it raised before.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainsurg.chaincomplex import ChainComplex, HomologyBasis, induced_on_homology, validate_chain_map
from chainsurg.csscode import from_parity_checks
from chainsurg.errors import DimensionMismatch
from chainsurg.f2linalg import F2Matrix, Subspace, image_basis, kernel_basis, rank, vstack
from chainsurg.protocols import _logicals, _merge_and_split
from chainsurg.surgery import quotient_merge, split_from_merge, validate_subcode

CREATES = "the merge creates logical classes the base code does not have"
IDENTIFIES = "the merge identifies logical classes of the base code"


@st.composite
def css_codes(draw, max_n=11):
    """A random CSS code on at most ``max_n`` qubits with k >= 2."""
    n = draw(st.integers(2, max_n))
    r = np.random.RandomState(draw(st.integers(0, 2**30 - 1)))
    hx = F2Matrix((r.random_sample((draw(st.integers(0, n // 2)), n)) < 0.5).astype(np.uint8))
    allowed = kernel_basis(hx)  # rows of hz must commute with every X check
    rz = draw(st.integers(0, max(allowed.dim - 2, 0)))
    hz = F2Matrix((r.random_sample((rz, allowed.dim)) < 0.5).astype(np.uint8)) @ allowed.basis
    code = from_parity_checks(hx, hz)
    assume(code.k >= 2)
    return code


@st.composite
def joint_merges(draw):
    """A code, an orientation, an ancilla logical and a subcode along its joint operator with
    another logical: that sum plus a random boundary, whole, split in two pieces, or with a
    random vector beside it. The degree-0 space holds the generators' boundaries, and
    sometimes a random vector too, which can leave the merge with new logical classes."""
    code = draw(css_codes())
    side = draw(st.sampled_from(["Z", "X"]))
    a, anc = draw(st.permutations(range(code.k)))[:2]
    r = np.random.RandomState(draw(st.integers(0, 2**30 - 1)))
    oriented = code.complex if side == "Z" else code.complex.transpose()
    logicals = _logicals(code, side)
    joint = logicals.representatives[a] ^ logicals.representatives[anc]
    joint = joint ^ (oriented.d2 @ (r.random_sample(oriented.dim2) < 0.5).astype(np.uint8))
    gens = [joint]
    shape = draw(st.sampled_from(["whole", "pieces", "extra"]))
    if shape == "pieces":
        piece = joint & (r.random_sample(code.n) < 0.5).astype(np.uint8)
        gens = [piece, joint ^ piece]
    elif shape == "extra":
        gens.append((r.random_sample(code.n) < 0.5).astype(np.uint8))
    gens = [g for g in gens if g.any()]
    assume(gens)
    v0 = [oriented.d1 @ g for g in gens]
    if oriented.dim0 and draw(st.booleans()):
        v0.append((r.random_sample(oriented.dim0) < 0.5).astype(np.uint8))
    spaces = (
        Subspace.zero(oriented.dim2),
        Subspace.from_vectors(gens, code.n),
        Subspace.from_vectors(v0, oriented.dim0),
    )
    sub = validate_subcode(code.complex, *(spaces if side == "Z" else spaces[::-1]), side)
    return code, sub, anc


def _expected_failure(code, sub, anc) -> str | None:
    """What the one-pass merge must raise, read from a merge whose spaces are eliminated afresh."""
    m = quotient_merge(code.complex, sub)
    q = m.quotient
    cycles, boundaries = kernel_basis(q.d1), image_basis(q.d2)
    src = _logicals(code, sub.orientation)
    keep = [i for i in range(src.dim) if i != anc]
    if cycles.dim - boundaries.dim > len(keep):
        return CREATES
    pushed = (m.p.f1 @ src.matrix().T).T
    kept = F2Matrix(pushed.a[keep])
    if rank(vstack([kept, boundaries.basis])) - boundaries.dim < len(keep):
        return IDENTIFIES
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(joint_merges())
def test_one_pass_merge_matches_public_functions(case):
    code, sub, anc = case
    expected = _expected_failure(code, sub, anc)
    try:
        merge_step, split_step = _merge_and_split(code, sub, anc, None)
    except DimensionMismatch as exc:
        assert str(exc) == expected
        return
    assert expected is None
    m = merge_step.merge
    q = m.quotient
    assert q.cycles == kernel_basis(q.d1)
    assert q.boundaries == image_basis(q.d2)
    assert validate_chain_map(m.source, q, m.p.f2, m.p.f1, m.p.f0) == m.p

    src = _logicals(code, sub.orientation)
    keep = [i for i in range(src.dim) if i != anc]
    pushed = (m.p.f1 @ src.matrix().T).T
    fresh = ChainComplex(d2=q.d2, d1=q.d1)
    fresh._seed(lambda: (kernel_basis(q.d1), image_basis(q.d2)))
    basis = HomologyBasis(F2Matrix(pushed.a[keep]), fresh)
    assert merge_step.logical_matrix == induced_on_homology(m.p, 1, src, basis)
    assert split_step.logical_matrix == merge_step.logical_matrix.T

    # the default sections, supplied as representatives, take the product path to the same maps
    supplied = {deg: list(m.reps_at(deg)) for deg in (2, 1, 0)}
    explicit = quotient_merge(code.complex, sub, quotient_bases=supplied)
    assert explicit.quotient == q
    for deg in (2, 1, 0):
        assert explicit.p.component(deg) == m.p.component(deg)
    assert split_from_merge(explicit) == split_from_merge(m)
