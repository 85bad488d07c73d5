from __future__ import annotations

import numpy as np
import pytest

from eigenvol import packing
from eigenvol.fixtures import clifford_torus, flat_torus, icosphere, revolution_torus
from eigenvol.spectral import eigensolve


@pytest.fixture(scope="session")
def sphere3():
    return icosphere(3)


@pytest.fixture(scope="session")
def sphere4():
    return icosphere(4)


@pytest.fixture(scope="session")
def clifford32():
    return clifford_torus(32)


@pytest.fixture(scope="session")
def torus48():
    return flat_torus(2 * np.pi, 2 * np.pi, 48)


@pytest.fixture(scope="session")
def fat_torus():
    return revolution_torus(3.0, 1.0, 24)


@pytest.fixture(scope="session")
def sphere3_spec(sphere3):
    return eigensolve(sphere3, 24)


@pytest.fixture(scope="session")
def sphere4_spec(sphere4):
    return eigensolve(sphere4, 70)


@pytest.fixture(scope="session")
def torus48_spec(torus48):
    return eigensolve(torus48, 70)


@pytest.fixture(scope="session")
def clifford32_spec(clifford32):
    return eigensolve(clifford32, 12)


@pytest.fixture
def packing_without_room(monkeypatch):
    """`packing` sees a numpy whose `empty` refuses every allocation, as
    numpy refuses a distance table larger than memory."""

    class NoRoom:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array of shape {shape}")

    monkeypatch.setattr(packing, "np", NoRoom())
