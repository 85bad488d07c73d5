from __future__ import annotations

import numpy as np
import pytest

from eigenvol import packing
from eigenvol.fixtures import clifford_torus, flat_torus, icosphere, revolution_torus
from eigenvol.spectral import eigensolve


def _assert_report_close(got, want, path="report"):
    if isinstance(want, float):
        close = got == want or abs(got - want) <= 1e-10 * abs(want) + 1e-12
        assert isinstance(got, float) and close, (path, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key, value in want.items():
            _assert_report_close(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, value in enumerate(want):
            _assert_report_close(got[i], value, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.fixture(scope="session")
def assert_report_close():
    """Compare report-shaped JSON: every float leaf within
    1e-10 |x| + 1e-12, every other leaf of the same type and equal."""
    return _assert_report_close


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
