import numpy as np
import pytest

from hermhull import gf
from hermhull.gf import (NotPrimitiveError, ReducibleModulusError,
                         conway_polynomial, make_field, prime_power,
                         quadratic_field)


def test_conway_pinned_values():
    # brute-force-verifiable small cases; the quadratic ones are the moduli
    # a computer-algebra default session would use
    assert conway_polynomial(3, 2) == (2, 2, 1)   # x^2 + 2x + 2
    assert conway_polynomial(5, 2) == (2, 4, 1)   # x^2 + 4x + 2
    assert conway_polynomial(3, 1) == (1, 1)      # root 2
    assert conway_polynomial(2, 2) == (1, 1, 1)


def test_conway_brute_force_irreducible_and_primitive():
    for p, m in [(3, 2), (5, 2), (7, 2), (2, 4), (3, 4)]:
        F = make_field(p, m)
        # irreducibility by brute force: no root in any proper subfield rep,
        # i.e. the minimal polynomial of alpha has full degree: alpha's
        # conjugates alpha^(p^i) are pairwise distinct for i < m
        conj = {F.pow(F.alpha, p ** i) for i in range(m)}
        assert len(conj) == m
        # primitivity: the multiplicative order of alpha is p^m - 1
        seen = set()
        x = 1
        for _ in range(p ** m - 1):
            seen.add(x)
            x = F.mul(x, F.alpha)
        assert x == 1 and len(seen) == p ** m - 1


def test_prime_field_alpha():
    F3 = make_field(3, 1)
    assert F3.alpha == 2
    assert F3.mul(2, 2) == 1


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ReducibleModulusError):
        make_field(3, 2, [1, 2, 1])   # (x+1)^2
    with pytest.raises(NotPrimitiveError):
        make_field(3, 2, [1, 0, 1])   # x^2+1 irreducible, root has order 4
    with pytest.raises(ValueError):
        make_field(2, 20)             # beyond the 2^16 ceiling


def test_user_modulus_accepted(F25):
    # x^2 + x + 2 over GF(5): irreducible with primitive root
    F = make_field(5, 2, [2, 1, 1])
    assert F is not F25
    assert F.order == 25
    assert F.q == 5
    # embedding is still a field homomorphism
    for a in range(5):
        for b in range(5):
            assert F.from_subfield((a + b) % 5) == F.add(F.from_subfield(a),
                                                         F.from_subfield(b))


def test_frobenius(F9):
    # subfield fixed points
    for s in range(3):
        assert F9.frobenius_q(F9.from_subfield(s)) == F9.from_subfield(s)
    assert F9.frobenius_q(0) == 0
    # alpha -> alpha^3, checked against repeated squaring
    a = F9.alpha
    sq = F9.mul(a, a)
    assert F9.frobenius_q(a) == F9.mul(sq, a)
    # double application is the identity
    for x in range(F9.order):
        assert F9.frobenius_q(F9.frobenius_q(x)) == x


def test_frobenius_is_field_automorphism(F9, F16):
    for F in (F9, F16):
        for x in range(F.order):
            for y in range(F.order):
                assert F.frobenius_q(F.mul(x, y)) == \
                    F.mul(F.frobenius_q(x), F.frobenius_q(y))
                assert F.frobenius_q(F.add(x, y)) == \
                    F.add(F.frobenius_q(x), F.frobenius_q(y))


def test_frobenius_requires_quadratic_structure():
    F3 = make_field(3, 1)
    with pytest.raises(ValueError):
        F3.frobenius_q(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_solve_norm_preimage_count(q):
    F = quadratic_field(q)
    for x in range(1, F.order):
        if not F.is_norm(x):
            continue
        pre = [g for g in range(1, F.order) if F.pow(g, q + 1) == x]
        assert len(pre) == q + 1
        a = F.solve_norm(x)
        assert a in pre
        # deterministic smallest-exponent choice
        assert F.log_of(a) == min(F.log_of(g) for g in pre)


def test_solve_norm_examples(F9, F25):
    assert F9.solve_norm(1) == 1
    a = F9.solve_norm(2)
    assert F9.pow(a, 4) == 2
    neg1 = F25.neg(1)
    b = F25.solve_norm(neg1)
    assert F25.pow(b, 6) == neg1
    with pytest.raises(ValueError):
        F9.solve_norm(0)
    with pytest.raises(ValueError):
        F9.solve_norm(F9.alpha)  # not in the subfield


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_solve_norm_arr_matches_scalar_and_brute_force(q):
    F = quadratic_field(q)
    xs = np.array([x for x in range(1, F.order) if F.in_subfield(x)])
    assert len(xs) == q - 1
    got = F.solve_norm_arr(xs)
    assert got.tolist() == [F.solve_norm(int(x)) for x in xs]
    # reference: the first j >= 0 with (alpha^j)^(q+1) = x
    norms = F.exp[np.arange(F.order - 1) * (q + 1) % (F.order - 1)]
    first = {}
    for j, v in enumerate(norms.tolist()):
        first.setdefault(v, j)
    assert got.tolist() == [F.alpha_pow(first[int(x)]) for x in xs]
    assert F.solve_norm_arr(xs[:0]).shape == (0,)
    outside = [x for x in range(1, F.order) if not F.in_subfield(x)]
    for bad in ([0], xs.tolist() + [0], outside[:1], [-1], [F.order]):
        with pytest.raises(ValueError):
            F.solve_norm_arr(np.array(bad))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_is_norm_matches_brute_force(q):
    F = quadratic_field(q)
    image = {F.pow(g, q + 1) for g in range(1, F.order)}
    for x in range(F.order):
        assert F.is_norm(x) == (x in image)
    assert not F.is_norm(0)
    assert F.is_norm(1)
    assert sum(F.is_norm(x) for x in range(F.order)) == q - 1


def test_is_norm_count_gf9(F9):
    assert sum(F9.is_norm(x) for x in range(F9.order)) == 2


def test_log_round_trip(F9, F25):
    for F in (F9, F25):
        for x in range(1, F.order):
            assert F.alpha_pow(F.log_of(x)) == x
        assert F.log_of(0) == -1


def test_subfield_embedding_homomorphism(F16, F25):
    for F in (F16, F25):
        sub = F.subfield
        for a in range(sub.order):
            for b in range(sub.order):
                assert F.from_subfield(sub.add(a, b)) == \
                    F.add(F.from_subfield(a), F.from_subfield(b))
                assert F.from_subfield(sub.mul(a, b)) == \
                    F.mul(F.from_subfield(a), F.from_subfield(b))
        # round trip and subfield characterisation
        for a in range(sub.order):
            assert F.to_subfield(F.from_subfield(a)) == a
        members = [x for x in range(F.order) if F.in_subfield(x)]
        assert len(members) == sub.order


def test_arithmetic_identities(F9):
    for x in range(F9.order):
        assert F9.add(x, F9.neg(x)) == 0
        if x:
            assert F9.mul(x, F9.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        F9.inv(0)


def test_vectorised_matches_scalar(F25):
    rng = np.random.default_rng(7)
    a = rng.integers(0, 25, size=50).astype(np.int32)
    b = rng.integers(0, 25, size=50).astype(np.int32)
    add = F25.add_arr(a, b)
    mul = F25.mul_arr(a, b)
    for i in range(50):
        assert add[i] == F25.add(int(a[i]), int(b[i]))
        assert mul[i] == F25.mul(int(a[i]), int(b[i]))
    assert np.array_equal(F25.pow_q_arr(a),
                          [F25.frobenius_q(int(x)) for x in a])


def test_large_field_fallback_paths():
    # GF(2^13) has no pairwise tables; exercises the xor/log fallbacks
    F = make_field(2, 13)
    assert F.order == 8192
    rng = np.random.default_rng(3)
    xs = rng.integers(1, F.order, size=20)
    for x in xs:
        x = int(x)
        assert F.mul(x, F.inv(x)) == 1
        assert F.add(x, x) == 0
        assert F.alpha_pow(F.log_of(x)) == x
    a = xs.astype(np.int32)
    assert np.array_equal(F.add_arr(a, a), np.zeros(20, dtype=a.dtype))
    assert np.array_equal(F.mul_arr(a, F.inv_arr(a)), np.ones(20, dtype=np.int32))


def test_field_descriptor(F9):
    assert F9.describe() == {"p": 3, "m": 2, "modulus": [2, 2, 1]}


def test_context_cache_identity():
    assert make_field(3, 2) is make_field(3, 2)
    assert quadratic_field(3) is make_field(3, 2)
    assert quadratic_field(4).subfield is make_field(2, 2)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(256) == (2, 8)
    assert prime_power(121) == (11, 2)
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 8), (2, 13), (3, 4), (3, 8)])
def test_log_domain_products_match_mul(p, m):
    F = make_field(p, m)
    xs = np.arange(F.order)
    if F.order > 256:
        xs = np.r_[0, 1, np.random.default_rng(4).integers(2, F.order, 60)]
    got = F.zexp[F.zlog[xs][:, None] + F.zlog[xs][None, :]]
    want = [[F.mul(int(x), int(y)) for y in xs] for x in xs]
    assert np.array_equal(got, want)


def test_characteristic_two_adds_by_xor():
    # no pairwise add table in characteristic 2, at any order
    F = quadratic_field(16)
    assert F._add_t is None and F._mul_t is not None
    a = np.arange(F.order, dtype=np.int32)
    assert np.array_equal(F.add_arr(a[:, None], a[None, :]),
                          a[:, None] ^ a[None, :])
    assert F.add(np.int32(200), 77) == 200 ^ 77
    assert type(F.add(np.int32(200), 77)) is int


def test_prime_field_beyond_int16():
    # elements of GF(65521) need 16 bits as digits; arithmetic stays exact
    F = make_field(65521, 1)
    assert F.add(40000, 30000) == 70000 % 65521
    assert F.neg(40000) == 65521 - 40000
    assert F.mul(40000, 3) == 120000 % 65521
    a = np.array([40000, 65520, 0], dtype=np.int32)
    assert np.array_equal(F.add_arr(a, a), (2 * a.astype(np.int64)) % 65521)
