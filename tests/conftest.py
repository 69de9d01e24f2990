"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's componentwise fast paths:
displacement operators are built from explicit matrix powers, overlaps from
dense matrix-vector products, and tensor entries from explicit triple
products, so that each check exercises two genuinely different computations.
"""

import numpy as np
import pytest

from sic_forge import build_sic_set, displacement


def oracle_clock(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag([omega**j for j in range(d)])


def oracle_shift(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def oracle_displacement(d: int, r1: int, r2: int) -> np.ndarray:
    """tau**(r1*r2) X**r1 Z**r2 via dense matrix powers and scalar powers."""
    tau = -np.exp(1j * np.pi / d)
    return (
        tau ** (r1 * r2)
        * np.linalg.matrix_power(oracle_shift(d), r1)
        @ np.linalg.matrix_power(oracle_clock(d), r2)
    )


def displacement_table(d: int) -> dict:
    """The package's d^2 displacement operators keyed by canonical (r1, r2): the d^4 stack the group checks read."""
    return {(r1, r2): displacement(d, (r1, r2)) for r1 in range(d) for r2 in range(d)}


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.fixture(scope="session")
def fiducial_d2() -> np.ndarray:
    """Exact d=2 fiducial: Bloch vector (1, 1, 1)/sqrt(3)."""
    a = np.sqrt((3.0 + np.sqrt(3.0)) / 6.0)
    b = np.sqrt((3.0 - np.sqrt(3.0)) / 6.0) * np.exp(1j * np.pi / 4.0)
    return np.array([a, b])


@pytest.fixture(scope="session")
def fiducial_d3() -> np.ndarray:
    """Exact d=3 fiducial (0, 1, -1)/sqrt(2)."""
    return np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)


@pytest.fixture(scope="module")
def sic_d2(fiducial_d2):
    return build_sic_set(fiducial_d2)


@pytest.fixture(scope="module")
def sic_d3(fiducial_d3):
    return build_sic_set(fiducial_d3)
