import numpy as np
import pytest

from chainsurg import catalog, cli


@pytest.fixture(scope="session")
def steane():
    return catalog.steane()


@pytest.fixture(scope="session")
def rm15():
    return catalog.reed_muller_15()


@pytest.fixture(scope="session")
def toric2():
    return catalog.toric(2)


@pytest.fixture(scope="session")
def surface2():
    return catalog.surface_patch(2, 2)


@pytest.fixture(scope="session")
def surface3():
    return catalog.surface_patch(3, 3)


def rng(seed=0):
    return np.random.RandomState(seed)


@pytest.fixture(autouse=True)
def cold_input_cache():
    """Each test starts, as a fresh process does, with no parsed input kept by the CLI."""
    cli._parsed.cache_clear()
