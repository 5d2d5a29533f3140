"""certify_distance against enumeration of every cycle, per side."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.csscode import certify_distance, distance_bruteforce, from_parity_checks
from chainsurg.f2linalg import F2Matrix, kernel_basis
from chainsurg.protocols import AncillaStrategy, MergeStep, build_cnot_plan


def side_distance(cplx, cap=1 << 20):
    """Least weight of a cycle of ``cplx`` outside its boundaries, by enumerating every cycle.

    The Z side of a code is its complex, the X side the transpose. None
    without logicals; a side of more than ``cap`` cycles is refused.
    """
    kernel, image = cplx.cycles, cplx.boundaries
    if kernel.dim == image.dim:
        return None
    assert 1 << kernel.dim <= cap
    cycles = np.zeros((1, kernel.ambient_dim), dtype=np.uint8)
    for b in kernel.basis_vectors():
        cycles = np.concatenate([cycles, cycles ^ b])
    reduced = cycles.copy()
    for row, pivot in zip(image.basis.a, image.pivots):  # RREF rows: any order
        reduced ^= reduced[:, [pivot]] * row
    return int(cycles[reduced.any(axis=1)].sum(axis=1).min())


def assert_certified(code, bruteforce_cap=1 << 14):
    """Exact per side at wmax = n, and the smaller side is distance_bruteforce's answer."""
    sides = (side_distance(code.complex), side_distance(code.complex.transpose()))
    assert certify_distance(code, code.n) == sides
    oracle = distance_bruteforce(code, cap=bruteforce_cap)
    if oracle is not None or code.k == 0:
        assert oracle == (None if code.k == 0 else min(sides))


def _example_codes():
    return [
        pytest.param(code, id=f"{name}[{i}]")
        for name in catalog.example_names()
        for i, code in enumerate(catalog.worked_example(name).codes)
    ]


def _merged_codes():
    """The merged code of every merge step, with the trivial ancilla and with a copy of the code."""
    plans = {
        "toric_2": (catalog.toric(2), 1),
        "toric_3": (catalog.toric(3), 1),
        "surface_2": (catalog.surface_patch(2, 2), None),
        "surface_3": (catalog.surface_patch(3, 3), None),
        "steane": (catalog.steane(), None),
    }
    out = []
    for name, (code, target) in plans.items():
        for ancilla, strategy in (
            ("trivial", AncillaStrategy.trivial()),
            ("same", AncillaStrategy.provided(code)),
        ):
            plan = build_cnot_plan(code, control=0, target=target, ancilla=strategy)
            out += [
                pytest.param(plan.merged_code(step.merge), id=f"{name}_{ancilla}_step{i}")
                for i, step in enumerate(plan.steps)
                if isinstance(step, MergeStep)
            ]
    return out


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_catalog_codes(name):
    assert_certified(catalog.catalog_code(name))


@pytest.mark.parametrize("code", _example_codes())
def test_worked_example_codes(code):
    assert_certified(code)


@pytest.mark.parametrize("code", _merged_codes())
def test_merged_codes_of_plans(code):
    assert_certified(code)


def _random_code(n, x_rows, z_rows, zero_rows, spanning, seed):
    """Random hx; hz rows are random combinations of a kernel basis of hx.

    ``zero_rows`` appends an all-zero check to each side; ``spanning``
    adds the whole kernel basis to hz, so that k = 0.
    """
    rng = np.random.default_rng(seed)
    hx = rng.integers(0, 2, size=(x_rows, n), dtype=np.uint8)
    kernel = kernel_basis(F2Matrix(hx)).basis.a
    hz = rng.integers(0, 2, size=(z_rows, len(kernel)), dtype=np.uint8) @ kernel % 2
    if spanning:
        hz = np.concatenate([hz, kernel])
    if zero_rows:
        hx, hz = (np.concatenate([h, np.zeros((1, n), dtype=np.uint8)]) for h in (hx, hz))
    return from_parity_checks(F2Matrix(hx), F2Matrix(hz))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    x_rows=st.integers(0, 8),
    z_rows=st.integers(0, 12),
    zero_rows=st.booleans(),
    spanning=st.booleans(),
    wmax=st.integers(0, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_codes_hypothesis(n, x_rows, z_rows, zero_rows, spanning, wmax, seed):
    code = _random_code(n, x_rows, z_rows, zero_rows, spanning, seed)
    assert code.k == 0 or not spanning
    assert_certified(code, bruteforce_cap=1 << 12)
    sides = (side_distance(code.complex), side_distance(code.complex.transpose()))
    capped = tuple(None if d is None else min(d, wmax + 1) for d in sides)
    assert certify_distance(code, wmax) == capped


def test_no_logicals_gives_none():
    hx = F2Matrix(np.eye(3, dtype=np.uint8))
    code = from_parity_checks(hx, F2Matrix.zeros(0, 3))
    assert code.k == 0
    assert certify_distance(code, 3) == (None, None)


@pytest.mark.parametrize(
    "code,exact",
    [
        (catalog.toric(3), (3, 3)),
        (catalog.reed_muller_15(), (3, 7)),
        (catalog.surface_patch(3, 5), (3, 5)),
    ],
    ids=["toric_3", "reed_muller_15", "surface_3x5"],
)
def test_below_the_distance_gives_wmax_plus_one(code, exact):
    for wmax in range(max(exact) + 2):
        assert certify_distance(code, wmax) == tuple(min(d, wmax + 1) for d in exact)


@pytest.mark.parametrize(
    "code", [catalog.toric(5), catalog.surface_patch(5, 5)], ids=["toric_5", "surface_5x5"]
)
def test_distance_five_within_a_second(code):
    start = time.perf_counter()
    assert certify_distance(code, code.n) == (5, 5)
    assert time.perf_counter() - start < 1.0
