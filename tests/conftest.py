import functools

import numpy as np
import pytest

from hermhull import gf, quantum
from hermhull.linalg_codes import (LinearCode, _projective_blocks,
                                   gram_matrix, matrix_rank)


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


def euclidean_dual(C):
    """The Euclidean dual of C, spanned by its parity rows."""
    return LinearCode.from_rows(C.field, C.parity_rows(), n=C.n)


def hull_dim_via_gram(C):
    """k - rank(G G-dagger), the dimension of the Hermitian hull of C."""
    return C.k - matrix_rank(C.field, gram_matrix(C.field, C.gen))


def is_hermitian_self_orthogonal(C):
    return not gram_matrix(C.field, C.gen).any()


def weight_distribution(C):
    """Counts of codeword weights 0..n of a small code: the projective
    walk of the distance enumeration, scaled by order - 1."""
    counts = np.zeros(C.n + 1, dtype=np.int64)
    for block in _projective_blocks(C.field, C.gen):
        counts += np.bincount(np.count_nonzero(block, axis=1),
                              minlength=C.n + 1)
    counts *= C.field.order - 1
    counts[0] = 1
    return counts


def two_point_rows(claim):
    """The natural rows of a two-point claim's code: the k + 1 rows of its
    self-orthogonal GRS_{k+1}(u, a) over the pole row c, row 0 of its code."""
    return np.vstack([claim.self_orthogonal.generator(),
                      claim.spec.at(1).generator()])


def grs_b_full(F):
    """(alpha^0, ..., alpha^(q^2-2), 0): every field element, zero last."""
    return [F.alpha_pow(i) for i in range(F.order - 1)] + [0]


@functools.cache
def quantum_tables(q):
    """``quantum.emit_tables(q)``, built once per test session: each build
    runs the full-grid GRS and two-point sweeps at q.  Read-only."""
    return quantum.emit_tables(q)
