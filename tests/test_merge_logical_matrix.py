"""Each merge's logical matrix, read off its subcode, against the pushed-basis matrix.

``protocols._merge_logical_matrix`` reads a merge's logical matrix and its
refusals off the subcode V by the exact sequence
H1(V) -> H1(C) -> H1(C/V) -> H0(V) -> H0(C): it pairs V's cycles with the
dual logical basis and reads the quotient's spaces only when H0(V) != 0.
The oracle is the matrix as it was computed before, from the quotient's
cycles and boundaries: every base logical but the ancilla's pushed through
p1, reduced modulo the boundaries and eliminated. Each case must give the
same matrix, or the same exception type and message, on:

* every catalog code and its direct sum with itself, every (control,
  target) pair with the ancilla as target too, trivial, provided and
  embedded ancillas, and ``locality`` at w = 2 and 3;
* the code switch;
* random CSS codes (n <= 12, k >= 2, half with rebased logicals) with
  random subcodes in both orientations;
* subcodes with H0(V) != 0, made by adding a vector to V0, which the merge
  accepts or refuses.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog, protocols
from chainsurg.chaincomplex import HomologyBasis
from chainsurg.csscode import from_parity_checks
from chainsurg.errors import ChainsurgError, DecompositionInfeasible, DimensionMismatch
from chainsurg.f2linalg import F2Matrix, Subspace, _mul, _reduce_rows, kernel_basis, rref
from chainsurg.protocols import (
    AncillaStrategy,
    _joint_subcode,
    _logicals,
    _merge_logical_matrix,
    build_cnot_plan,
    code_switch_plan,
    direct_sum_code,
)
from chainsurg.surgery import quotient_merge, validate_subcode

CREATES = "the merge creates logical classes the base code does not have"


def pushed_basis_matrix(m, src: HomologyBasis, anc: int) -> F2Matrix:
    """The logical matrix as the pushed basis gave it, from the quotient's cycles and boundaries."""
    q = m.quotient
    keep = [i for i in range(src.dim) if i != anc]
    if q.cycles.dim - q.boundaries.dim > len(keep):
        raise DimensionMismatch(CREATES)
    pushed = _mul(src.matrix().a, m.p.f1.a.T)  # row i: p1 of representative i
    not_cycle = _reduce_rows(pushed, q.cycles).any(axis=1)
    reductions = _reduce_rows(pushed, q.boundaries)
    identifies = "the merge identifies logical classes of the base code"
    if not_cycle[keep].any():
        raise DimensionMismatch(identifies)
    kept = rref(F2Matrix._wrap(reductions[keep]))
    if kept.rank != len(keep):
        raise DimensionMismatch(identifies)
    if not_cycle[anc]:
        raise DimensionMismatch("pushed representative is not a cycle; chain map or basis corrupted")
    basis = HomologyBasis(F2Matrix._wrap(pushed[keep]), q)._seed(kept)
    matrix = np.zeros((len(keep), src.dim), dtype=np.uint8)
    matrix[range(len(keep)), keep] = 1
    matrix[:, anc] = basis._reduced_coordinates(reductions[anc : anc + 1]).a[:, 0]
    return F2Matrix._wrap(matrix)


def outcome(fn):
    """("matrix", its rows) when fn returns, else (exception type, message)."""
    try:
        return "matrix", fn().a.tolist()
    except ChainsurgError as exc:
        return type(exc), str(exc)


def assert_matches_oracle(m, base, anc):
    """The routine's outcome on a merge is the oracle's; returns it. The routine runs
    first, so it meets the quotient with no space read."""
    got = outcome(lambda: _merge_logical_matrix(m, base, anc))
    assert got == outcome(lambda: pushed_basis_matrix(m, _logicals(base, m.orientation), anc))
    return got


@pytest.fixture
def compared(monkeypatch):
    """Every merge a plan builds is compared with the oracle; yields the outcomes seen."""
    seen = []

    def checked(m, base, anc):
        seen.append(assert_matches_oracle(m, base, anc))
        return _merge_logical_matrix(m, base, anc)

    monkeypatch.setattr(protocols, "_merge_logical_matrix", checked)
    return seen


def _catalog_bases():
    names = catalog.catalog_names()
    return [pytest.param(name, False, id=name) for name in names] + [
        pytest.param(name, True, id=f"{name}+{name}") for name in names
    ]


def _ancillas(code, control, target):
    spares = [i for i in range(code.k) if i not in (control, target)]
    return [AncillaStrategy.trivial(), AncillaStrategy.provided(code)] + [
        AncillaStrategy.embedded(i) for i in spares
    ]


@pytest.mark.parametrize("name, doubled", _catalog_bases())
def test_every_cnot_plan_merge(name, doubled, compared):
    code = catalog.catalog_code(name)
    if doubled:
        code = direct_sum_code(code, code)
    for control in range(code.k):
        for target in [None] + [t for t in range(code.k) if t != control]:
            for ancilla in _ancillas(code, control, target):
                build_cnot_plan(code, control, target, ancilla)
            for w in (2, 3):
                try:
                    build_cnot_plan(code, control, target, locality=True, max_weight=w)
                except DecompositionInfeasible:  # a support with no pieces of weight <= w
                    pass
    assert compared and all(kind == "matrix" for kind, _ in compared)


def test_code_switch(compared):
    code_switch_plan()
    assert [kind for kind, _ in compared] == ["matrix"]


@st.composite
def random_merges(draw):
    """A random CSS code (n <= 12, k >= 2; half with a rebased Z basis and its dual X basis),
    an orientation, an ancilla, and a closed subcode: V1 spanned by up to three of a joint
    operator, a random cycle and a random vector, V0 by their boundaries and at times a
    random vector (which can make H0(V) nonzero), V2 = 0."""
    r = np.random.RandomState(draw(st.integers(0, 2**30 - 1)))
    n = draw(st.integers(2, 12))
    hx = F2Matrix((r.random_sample((draw(st.integers(0, n // 2)), n)) < 0.5).astype(np.uint8))
    allowed = kernel_basis(hx)  # rows of hz must commute with every X check
    hz = F2Matrix((r.random_sample((draw(st.integers(0, max(allowed.dim - 2, 0))), allowed.dim)) < 0.5).astype(np.uint8))
    hz = hz @ allowed.basis
    code = from_parity_checks(hx, hz)
    if code.k < 2:
        return None
    if draw(st.booleans()):
        while True:  # an invertible change of basis, plus random stabilizers
            a = F2Matrix((r.random_sample((code.k, code.k)) < 0.5).astype(np.uint8))
            if rref(a).rank == code.k:
                break
        stab = F2Matrix((r.random_sample((code.k, hz.rows)) < 0.5).astype(np.uint8)) @ hz if hz.rows else None
        zl = a @ code.z_logicals.matrix()
        code = from_parity_checks(hx, hz, z_basis=zl if stab is None else zl + stab)
    side = draw(st.sampled_from("ZX"))
    anc, other = draw(st.permutations(range(code.k)))[:2]
    oriented = code.complex if side == "Z" else code.complex.transpose()
    reps = _logicals(code, side).matrix().a

    def boundary():
        return oriented.d2 @ (r.random_sample(oriented.dim2) < 0.5).astype(np.uint8)

    kinds = {
        "joint": lambda: reps[anc] ^ reps[other] ^ boundary(),
        "cycle": lambda: (r.random_sample(code.k) < 0.5).astype(np.uint8) @ reps % 2 ^ boundary(),
        "vector": lambda: (r.random_sample(code.n) < 0.5).astype(np.uint8),
    }
    gens = [kinds[kind]() for kind in draw(st.lists(st.sampled_from(sorted(kinds)), max_size=3))]
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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(random_merges())
def test_random_codes_and_subcodes(case):
    if case is None:
        return
    code, sub, anc = case
    assert_matches_oracle(quotient_merge(code.complex, sub), code, anc)


def _h0_cases():
    """Each c0t1 joint subcode of a few bases, with each unit vector and each sum of two
    unit vectors added to its V0 (of the oriented frame)."""
    bases = {
        "toric_2": catalog.toric(2),
        "steane+steane": direct_sum_code(catalog.steane(), catalog.steane()),
        "surface_3+surface_3": direct_sum_code(catalog.surface_patch(3, 3), catalog.surface_patch(3, 3)),
    }
    for name, code in bases.items():
        for side, a, b in (("Z", 0, 1), ("X", 1, 0)):
            joint = _joint_subcode(code, side, a, b, False, 0)
            oriented = joint.oriented_parent()
            v2, v1, v0 = joint.oriented_spaces()
            units = np.eye(oriented.dim0, dtype=np.uint8)
            extras = [units[j] for j in range(oriented.dim0)]
            extras += [units[0] ^ units[j] for j in range(1, oriented.dim0)]
            for extra in extras:
                spaces = (v2, v1, Subspace.from_vectors(list(v0.basis.a) + [extra], oriented.dim0))
                yield code, validate_subcode(code.complex, *(spaces if side == "Z" else spaces[::-1]), side), b


def test_nonzero_h0_accepted_and_refused():
    seen = set()
    for code, sub, anc in _h0_cases():
        m = quotient_merge(code.complex, sub)
        own = sub.own_complex()
        assert own.dim0 - own.dim1 + own.cycles.dim > 0  # H0(V) != 0
        kind, detail = assert_matches_oracle(m, code, anc)
        seen.add(kind if kind == "matrix" else detail)
    assert seen == {"matrix", CREATES}
