import functools

import numpy as np
import pytest

from hermhull import gf, quantum
from hermhull.linalg_codes import LinearCode


@pytest.fixture(scope="session")
def F4():
    return gf.quadratic_field(2)


@pytest.fixture(scope="session")
def F9():
    return gf.quadratic_field(3)


@pytest.fixture(scope="session")
def F16():
    return gf.quadratic_field(4)


@pytest.fixture(scope="session")
def F25():
    return gf.quadratic_field(5)


@pytest.fixture(scope="session")
def F49():
    return gf.quadratic_field(7)


def random_code(F, n, k, rng):
    """A random [n, k] code (resampled until full rank)."""
    while True:
        M = rng.integers(0, F.order, size=(k, n)).astype(np.int32)
        c = LinearCode.from_rows(F, M, n=n)
        if c.k == k:
            return c


def grs_b_full(F):
    """(alpha^0, ..., alpha^(q^2-2), 0): every field element, zero last."""
    return [F.alpha_pow(i) for i in range(F.order - 1)] + [0]


@functools.cache
def quantum_tables(q):
    """``quantum.emit_tables(q)``, built once per test session: each build
    runs the full-grid GRS and two-point sweeps at q.  Read-only."""
    return quantum.emit_tables(q)
