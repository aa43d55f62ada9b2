import itertools

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


#: Lübeck's published Conway polynomials of the other GF(q^2), q <= 32
PUBLISHED_CONWAY = {
    (2, 4): (1, 1, 0, 0, 1),                      # x^4 + x + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),                # x^6 + x^4 + x^3 + x + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),          # x^8 + x^4 + x^3 + x^2 + 1
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),   # x^10 + x^6 + x^5 + x^3
                                                  #   + x^2 + x + 1
    (3, 4): (2, 0, 0, 2, 1),                      # x^4 + 2x^3 + 2
    (3, 6): (2, 2, 1, 0, 2, 0, 1),                # x^6 + 2x^4 + x^2 + 2x + 2
    (5, 4): (2, 4, 4, 0, 1),                      # x^4 + 4x^2 + 4x + 2
    (7, 2): (3, 6, 1),                            # x^2 + 6x + 3
    (11, 2): (2, 7, 1),                           # x^2 + 7x + 2
    (13, 2): (2, 12, 1),                          # x^2 + 12x + 2
    (17, 2): (3, 16, 1),                          # x^2 + 16x + 3
    (19, 2): (2, 18, 1),                          # x^2 + 18x + 2
    (23, 2): (5, 21, 1),                          # x^2 + 21x + 5
    (29, 2): (2, 24, 1),                          # x^2 + 24x + 2
    (31, 2): (3, 29, 1),                          # x^2 + 29x + 3
}


@pytest.mark.parametrize("p, m", sorted(PUBLISHED_CONWAY))
def test_conway_matches_published_tables(p, m):
    assert conway_polynomial(p, m) == PUBLISHED_CONWAY[p, m]
    assert make_field(p, m).modulus == PUBLISHED_CONWAY[p, m]


def _rem(p, a, g):
    """a mod g over GF(p) for a monic g; coefficient lists, low degree
    first, the remainder padded to len(g) - 1 entries."""
    a = list(a) + [0] * max(0, len(g) - 1 - len(a))
    while len(a) >= len(g):
        c, shift = a[-1], len(a) - len(g)
        for i, gi in enumerate(g):
            a[shift + i] = (a[shift + i] - c * gi) % p
        a.pop()
    return a


def _monic(p, d):
    return [list(low) + [1] for low in itertools.product(range(p), repeat=d)]


def _brute_force_class(p, f):
    """"reducible", "not primitive" or "primitive": trial division by the
    monic polynomials of degree <= m/2, then the order of x modulo f by
    walking its powers."""
    m = len(f) - 1
    if any(not any(_rem(p, f, g)) for d in range(1, m // 2 + 1)
           for g in _monic(p, d)):
        return "reducible"
    one = _rem(p, [1], f)
    cur, order = _rem(p, [0, 1], f), 1
    while cur != one:
        cur, order = _rem(p, [0] + cur, f), order + 1
    return "primitive" if order == p ** m - 1 else "not primitive"


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                  (3, 2), (3, 3), (5, 2), (7, 2)])
def test_every_modulus_is_classified_as_by_brute_force(p, m):
    seen = set()
    for f in _monic(p, m):
        kind = _brute_force_class(p, f)
        seen.add(kind)
        assert gf._is_irreducible(p, f) == (kind != "reducible"), f
        assert gf._root_is_primitive(p, f) == (kind == "primitive"), f
        if kind == "reducible":
            with pytest.raises(ReducibleModulusError, match=r"modulus \[.*\] "
                               rf"is reducible over GF\({p}\)"):
                make_field(p, m, f)
        elif kind == "not primitive":
            with pytest.raises(NotPrimitiveError, match=r"modulus \[.*\] is "
                               "irreducible but its root is not primitive"):
                make_field(p, m, f)
        else:
            F = make_field(p, m, f)
            assert F.modulus == tuple(f)
            assert sorted(F.exp.tolist()) == list(range(1, F.order))
    assert seen == ({"reducible", "primitive"} if p ** m - 1 in (3, 7, 31)
                    else {"reducible", "not primitive", "primitive"})


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 1998
    for i in range(2, 45):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 2000, i))
    assert [gf.is_prime(n) for n in range(-3, 2000)] == [False] * 3 + sieve


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
