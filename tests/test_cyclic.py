import itertools
import math

import numpy as np
import pytest

from hermhull import cyclic
from hermhull.cyclic import (EqtrParams, cyclic_from_defining_set,
                             cyclotomic_coset, defining_set_dkl,
                             eqtr_codeword, extended_parity_rows, ht_bound,
                             index_set_T, rains_p, trace_code)
from hermhull.gf import quadratic_field
from hermhull.grs import GrsSpec
from hermhull.linalg_codes import LinearCode, nullspace

from conftest import grs_b_full, is_hermitian_self_orthogonal


def test_cyclotomic_cosets():
    assert cyclotomic_coset(8, 3, 0) == (0,)
    assert cyclotomic_coset(8, 3, 1) == (1, 3)
    seen = set()
    for i in range(8):
        seen.update(cyclotomic_coset(8, 3, i))
    assert seen == set(range(8))
    with pytest.raises(ValueError):
        cyclotomic_coset(9, 3, 1)


@pytest.mark.parametrize("q,k,l", [(3, 2, 1), (3, 2, 2), (3, 3, 1), (4, 3, 2),
                                   (5, 4, 2), (5, 5, 5)])
def test_defining_set_closed_and_sized(q, k, l):
    n = q * q - 1
    D = defining_set_dkl(q, k, l)
    assert cyclic.is_coset_closed(n, q, D)
    cc = cyclic_from_defining_set(n, q, D)
    # extension keeps the dimension: q^2 - 2lk + l^2
    assert cc.dim == q * q - 2 * l * k + l * l


def test_defining_set_special_cases():
    # l = k collapses to the square block minus zero
    D = defining_set_dkl(3, 2, 2)
    assert D == (1, 3, 4) and len(D) == 3  # k^2 - 1
    assert defining_set_dkl(3, 2, 0) == ()
    # l = k = q wraps q^2-1 to the exponent 0 and fills everything
    D = defining_set_dkl(3, 3, 3)
    assert D == tuple(range(8))
    with pytest.raises(ValueError):
        defining_set_dkl(3, 3, 4)
    with pytest.raises(ValueError):
        defining_set_dkl(3, 4, 1)


def test_cyclic_code_edges():
    full = cyclic_from_defining_set(8, 3, [])
    assert full.dim == 8
    rep = cyclic_from_defining_set(8, 3, range(1, 8))
    assert rep.dim == 1
    assert rep.code.contains(np.array([1] * 8))
    with pytest.raises(ValueError):
        cyclic_from_defining_set(8, 3, [1])  # not coset-closed
    with pytest.raises(ValueError):
        cyclic_from_defining_set(9, 3, [0])  # gcd(n, q) != 1


def test_generator_polynomial_divides_xn_minus_1():
    from hermhull import polys
    cc = cyclic_from_defining_set(8, 3, defining_set_dkl(3, 2, 1))
    F = cc.base
    xn1 = [F.neg(1)] + [0] * 7 + [1]
    _, rem = polys.divmod_(F, tuple(xn1), cc.generator_poly)
    assert rem == ()


def test_parity_annihilates_generators():
    cc = cyclic_from_defining_set(8, 3, defining_set_dkl(3, 2, 1))
    S = cc.splitting
    H = cc.parity_rows()
    for row in cc.code.gen:
        emb = S.embed_arr(row)
        for h in H:
            acc = 0
            for x in S.mul_arr(h, emb):
                acc = S.add(acc, int(x))
            assert acc == 0


def test_trace_representation_cross_check():
    for (q, n, D) in [(3, 8, defining_set_dkl(3, 2, 1)),
                      (3, 8, defining_set_dkl(3, 3, 2)),
                      (3, 4, (1, 3)),   # splitting field is GF(9)
                      (4, 5, (1, 4))]:
        cc = cyclic_from_defining_set(n, q, D)
        assert trace_code(q, n, D) == cc.code


def test_ht_bound_bch_specialisation():
    assert ht_bound(8, ()) == 1
    assert ht_bound(8, (2, 3, 4)) >= 4
    assert ht_bound(12, (0, 1, 2, 3, 4)) >= 6
    # single element
    assert ht_bound(8, (5,)) == 2


def test_ht_bound_on_pair_defining_sets():
    for q in (3, 4, 5):
        for k in range(1, q + 1):
            for l in range(1, k + 1):
                D = defining_set_dkl(q, k, l)
                if len(D) == q * q - 1:
                    continue  # zero code
                assert ht_bound(q * q - 1, D) >= k + l - 1, (q, k, l)


def test_ht_bound_grid_beats_bch():
    # a set with a 2-d progression structure but short runs
    n = 15
    D = (1, 2, 5, 6, 9, 10)   # rows {1,2}+4j for j=0,1,2 -> x=3, y=2
    assert ht_bound(n, D) >= 5


def test_index_set_T():
    assert index_set_T(5, 4) == ((4, 0), (4, 1), (4, 2), (4, 3))
    T = set(index_set_T(5, 2))
    assert (2, 0) in T and (2, 3) in T and (3, 4) in T
    assert all(i >= 2 for i, _ in T)
    assert index_set_T(3, 3) == ()


def test_eqtr_lowest_diagonal_only(F9):
    p = EqtrParams(q=3, k=2, diag={1: 1})
    c = eqtr_codeword(3, 2, p)
    assert np.count_nonzero(c) == 8  # q^2 - 1
    assert c[-1] == 0
    # entries are the expected geometric sequence
    for r in range(8):
        assert c[r] == F9.alpha_pow(-(r * 1 * 4))


def test_eqtr_two_diagonals(F9):
    p = EqtrParams(q=3, k=2, diag={1: 1, 2: F9.neg(1)})
    c = eqtr_codeword(3, 2, p)
    s = math.gcd(1, 2)
    assert np.count_nonzero(c) == 9 - s * 4
    assert c[-1] == F9.neg(1)
    # zeros exactly at multiples of (q-1)/s
    for r in range(8):
        assert (c[r] == 0) == (r % ((3 - 1) // s) == 0)


def test_eqtr_membership_random_draws():
    rng = np.random.default_rng(11)
    for q, k in [(4, 2), (4, 3), (5, 3)]:
        F = quadratic_field(q)
        T = index_set_T(q, k)
        for _ in range(5):
            diag = {k - 1: F.from_subfield(
                int(rng.integers(1, F.subfield.order)))}
            for t in range(k, q):
                diag[t] = F.from_subfield(int(rng.integers(0, F.subfield.order)))
            off = {ij: int(rng.integers(0, F.order)) for ij in T}
            # eqtr_codeword internally asserts membership in the big code
            # and non-membership in the small one
            c = eqtr_codeword(q, k, EqtrParams(q=q, k=k, diag=diag, off=off))
            assert c.shape == (q * q,)
            # appended coordinate identity
            assert c[-1] == diag.get(q - 1, 0)


def test_eqtr_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        eqtr_codeword(3, 2, EqtrParams(q=3, k=2, diag={1: 0, 2: 1}))
    with pytest.raises(ValueError):
        eqtr_codeword(3, 3, EqtrParams(q=3, k=3, diag={2: 1}))  # needs k < q


def test_rains_p_zero_code(F9):
    P = rains_p(LinearCode.zero(F9, 9))
    assert P.k == 9 and P.field is F9.subfield


def test_rains_p_matches_extended_cyclic(F9):
    b = grs_b_full(F9)
    Ck = LinearCode.from_rows(F9, [[1] * 9, b])
    Cl = LinearCode.from_rows(F9, [[1] * 9])
    P = rains_p(Ck, Cl)
    E = cyclic_from_defining_set(8, 3, defining_set_dkl(3, 2, 1)).code.extend_sum_zero()
    assert P == E
    assert P.k == 9 - 2 * 1 * 2 + 1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_rains_p_matches_extended_cyclic_on_the_whole_grid(q):
    # the paper's bilinear identity: P(C_k, C_l) of the full-length GRS
    # codes is the extended cyclic code of D[k, l], of dimension
    # q^2 - 2lk + l^2, for every 1 <= l <= k <= q
    F = quadratic_field(q)
    b = tuple(grs_b_full(F))
    C = [GrsSpec(F, b, (1,) * len(b), k).code() for k in range(q + 1)]
    for k in range(1, q + 1):
        for l in range(1, k + 1):
            P = rains_p(C[k], C[l])
            D = defining_set_dkl(q, k, l)
            assert P == cyclic_from_defining_set(
                q * q - 1, q, D).code.extend_sum_zero(), (k, l)
            assert P.k == q * q - 2 * l * k + l * l


def test_rains_p_errors(F9):
    big = LinearCode(F9, 9, np.eye(9, dtype=np.int32))
    with pytest.raises(ValueError):
        rains_p(big, max_constraints=10)
    from hermhull.gf import make_field
    F3 = make_field(3, 1)
    with pytest.raises(ValueError):
        rains_p(LinearCode.from_rows(F3, [[1, 1]]))


def test_weight_support_vs_scaled_self_orthogonality(F9):
    """Every full-support-on-T solution of the bilinear system turns the
    punctured code into a Hermitian self-orthogonal one after norm-witness
    scaling, and supports with no solution admit no such scaling."""
    b = grs_b_full(F9)
    Ck = LinearCode.from_rows(F9, [[1] * 9, b])
    P = rains_p(Ck)  # pair (2, 2)
    Fq = F9.subfield
    # collect every codeword of the bilinear code (3^dim of them)
    words = [np.zeros(9, dtype=np.int32)]
    for row in P.gen:
        words = [Fq.add_arr(w, Fq.mul_arr(np.array(lam), row))
                 for w in words for lam in range(3)]
    supports_with_word = {tuple(np.nonzero(w)[0]) for w in words if w.any()}

    def scaled_self_orth(T, x_vals):
        cols = list(T)
        sub = Ck.gen[:, cols]
        a = np.array([F9.solve_norm(F9.from_subfield(int(v))) for v in x_vals],
                     dtype=np.int32)
        scaled = F9.mul_arr(sub, a[None, :])
        C = LinearCode.from_rows(F9, scaled, n=len(cols))
        return is_hermitian_self_orthogonal(C)

    # positive direction: every bilinear word gives a self-orthogonal puncture
    for w in words:
        if not w.any():
            continue
        T = tuple(np.nonzero(w)[0])
        assert scaled_self_orth(T, w[list(T)])

    # negative direction: supports without a word admit no unit scaling
    rng = np.random.default_rng(13)
    no_word = [T for m in (3, 4, 5)
               for T in itertools.combinations(range(9), m)
               if T not in supports_with_word]
    for T in rng.choice(len(no_word), size=10, replace=False):
        T = no_word[int(T)]
        ok = any(scaled_self_orth(T, vals)
                 for vals in itertools.product([1, 2], repeat=len(T)))
        assert not ok


def test_rains_basis_pairs_suffice(F9):
    """Bilinearity: constraining over basis pairs gives the same solution
    space as constraining over every codeword pair."""
    rng = np.random.default_rng(23)
    from conftest import random_code
    C = random_code(F9, 7, 2, rng)
    P_basis = rains_p(C)
    words = [np.zeros(7, dtype=np.int32)]
    for row in C.gen:
        words = [F9.add_arr(w, F9.mul_arr(np.array(lam), row))
                 for w in words for lam in range(9)]
    Fq = F9.subfield
    dec = F9.subfield_decomposition()
    rows = []
    for u in words:
        for v in words:
            w = F9.mul_arr(u, F9.pow_q_arr(v))
            rows.append(dec[w, 0])
            rows.append(dec[w, 1])
    basis = nullspace(Fq, np.array(rows, dtype=np.int32))
    assert LinearCode.from_rows(Fq, basis, n=7) == P_basis


def test_extended_parity_rows_shape():
    H = extended_parity_rows(3, defining_set_dkl(3, 2, 1))
    assert H.shape == (2, 9)          # all-ones row + one coset-leader row
    assert list(H[0]) == [1] * 9
    assert H[1, -1] == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_parity_rows_and_annihilation_match_scalar_loops(q):
    # references: entry-wise powers of beta and a scalar sum per row
    F2 = quadratic_field(q)
    n = q * q - 1
    rng = np.random.default_rng(q)
    for k in range(1, q + 1):
        D = defining_set_dkl(q, k, k - 1)
        leaders = sorted({min(cyclotomic_coset(n, q, d)) for d in D})
        H = extended_parity_rows(q, D)
        assert H.shape == (1 + len(leaders), n + 1)
        for r, i in enumerate(leaders):
            assert H[1 + r].tolist() == \
                [F2.pow(F2.alpha, i * j) for j in range(n)] + [0]
        kernel = nullspace(F2, H)
        for v in [rng.integers(0, F2.order, size=n + 1)] + list(kernel[:1]):
            want = True
            for row in H:
                acc = 0
                for x in F2.mul_arr(row, v):
                    acc = F2.add(acc, int(x))
                want = want and acc == 0
            assert cyclic._annihilates(F2, H, v) == want


def test_cyclic_parity_rows_match_scalar_powers():
    for q, n, D in [(3, 8, (1, 3)), (3, 4, (1, 3)), (4, 5, (1, 4))]:
        cc = cyclic_from_defining_set(n, q, D)
        S, lb = cc.splitting, cc.splitting.log_of(cc.beta)
        leaders = sorted({min(cyclotomic_coset(n, cc.q, d)) for d in D})
        assert cc.parity_rows().tolist() == \
            [[S.alpha_pow(lb * i * j) for j in range(n)] for i in leaders]
