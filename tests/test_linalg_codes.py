import numpy as np
import pytest

from hermhull import ag, grs, linalg_codes
from hermhull.gf import FieldContext, make_field, quadratic_field
from hermhull.linalg_codes import (DEFAULT_BUDGET, BudgetExceededError,
                                   FieldMismatchError, LinearCode,
                                   _leading_identity, conjugate, gram_matrix,
                                   mat_mul, matrix_rank, nullspace,
                                   rank_profile, rref)

from conftest import (euclidean_dual, grs_b_full, hull_dim_via_gram,
                      random_code, weight_distribution)


def enumerate_row_space(F, M):
    vecs = {tuple([0] * M.shape[1])}
    for r in M:
        vecs = {tuple(F.add_arr(np.array(v, dtype=np.int32),
                                F.mul_arr(np.array(lam), r)))
                for v in vecs for lam in range(F.order)}
    return vecs


def test_rref_identity_and_zero(F9):
    I = np.eye(3, dtype=np.int32)
    R, rank, piv = rref(F9, I)
    assert np.array_equal(R, I) and rank == 3 and piv == [0, 1, 2]
    Z = np.zeros((2, 5), dtype=np.int32)
    R, rank, piv = rref(F9, Z)
    assert rank == 0 and piv == [] and not R.any()


def test_rref_rank_against_row_space_enumeration(F9):
    rng = np.random.default_rng(0)
    for _ in range(5):
        M = rng.integers(0, 9, size=(4, 6)).astype(np.int32)
        R, rank, piv = rref(F9, M)
        assert len(enumerate_row_space(F9, M)) == 9 ** rank
        # canonical: pivots are 1 and alone in their columns
        for i, c in enumerate(piv):
            assert R[i, c] == 1
            col = R[:, c].copy()
            col[i] = 0
            assert not col.any()


def test_rref_is_canonical_under_row_shuffles(F9):
    rng = np.random.default_rng(1)
    M = rng.integers(0, 9, size=(3, 6)).astype(np.int32)
    R1, _, _ = rref(F9, M)
    R2, _, _ = rref(F9, M[::-1])
    assert np.array_equal(R1, R2)


def test_nullspace(F9):
    rng = np.random.default_rng(2)
    M = rng.integers(0, 9, size=(3, 7)).astype(np.int32)
    N = nullspace(F9, M)
    assert N.shape[0] == 7 - matrix_rank(F9, M)
    assert not mat_mul(F9, M, N.T).any()


def test_euclidean_dual_extremes(F9):
    full = LinearCode.full(F9, 4)
    assert euclidean_dual(full) == LinearCode.zero(F9, 4)
    rep = LinearCode.from_rows(F9, [[1] * 6])
    assert euclidean_dual(rep).k == 5


def test_grs_dual_is_mds_brute_force(F9):
    from hermhull.grs import GrsSpec
    b = [F9.alpha_pow(i) for i in range(8)]
    rng = np.random.default_rng(21)
    for n in (4, 6, 8):
        for k in (1, 2, 3):
            a = tuple(int(x) for x in rng.integers(1, 9, size=n))
            C = GrsSpec(F9, tuple(b[:n]), a, k).code()
            D = euclidean_dual(C)
            assert D.k == n - k
            assert D.min_distance() == k + 1  # the dual of MDS is MDS


def test_double_duals_and_rank_nullity(F9, F16):
    rng = np.random.default_rng(3)
    for F in (F9, F16):
        for _ in range(5):
            C = random_code(F, 7, 3, rng)
            assert euclidean_dual(euclidean_dual(C)) == C
            assert C.hermitian_dual().hermitian_dual() == C
            assert C.k + C.hermitian_dual().k == C.n


def test_hermitian_dual_small_exhaustive(F9):
    C = LinearCode.from_rows(F9, [[1, F9.alpha]])
    H = C.hermitian_dual()
    assert H.k == 1
    sols = [(u0, u1) for u0 in range(9) for u1 in range(9)
            if F9.add(F9.frobenius_q(u0),
                      F9.mul(F9.alpha, F9.frobenius_q(u1))) == 0]
    assert len(sols) == 9
    for u in sols:
        assert H.contains(np.array(u, dtype=np.int32))
    assert LinearCode.zero(F9, 4).hermitian_dual() == LinearCode.full(F9, 4)


def test_hull_extremes(F9):
    # self-orthogonal: the two lowest-degree evaluation rows on all of GF(9)
    b = grs_b_full(F9)
    C = LinearCode.from_rows(F9, [[1] * 9, b])
    assert C.hermitian_hull() == C
    # complementary-dual: a single coordinate pair with nonzero self-pairing
    D = LinearCode.from_rows(F9, [[1, 1]])
    assert D.hermitian_hull().k == 0
    # hull symmetry
    rng = np.random.default_rng(4)
    for _ in range(5):
        C = random_code(F9, 8, 3, rng)
        assert C.hermitian_hull() == C.hermitian_dual().hermitian_hull()


def test_hull_subcode_relation(F9):
    rng = np.random.default_rng(5)
    C = random_code(F9, 8, 4, rng)
    hull = C.hermitian_hull()
    assert hull.is_subcode_of(C)
    assert hull.is_subcode_of(C.hermitian_dual())


def test_gram_hull_agreement_random(F9):
    rng = np.random.default_rng(6)
    for _ in range(50):
        C = random_code(F9, 8, 3, rng)
        assert hull_dim_via_gram(C) == C.hermitian_hull().k


def test_gram_self_orthogonal_gives_k(F9):
    b = grs_b_full(F9)
    C = LinearCode.from_rows(F9, [[1] * 9, b])
    assert not gram_matrix(F9, C.gen).any()
    assert hull_dim_via_gram(C) == C.k


def test_min_distance_examples(F9):
    rep = LinearCode.from_rows(F9, [[1] * 7])
    assert rep.min_distance() == 7
    b = grs_b_full(F9)
    C = LinearCode.from_rows(F9, [[1] * 9, b])
    assert C.min_distance() == 8 == C.n - C.k + 1
    with pytest.raises(ValueError):
        LinearCode.zero(F9, 5).min_distance()


def test_min_distance_budget(F9):
    rng = np.random.default_rng(7)
    C = random_code(F9, 9, 4, rng)
    with pytest.raises(BudgetExceededError):
        C.min_distance(budget=100)


def test_puncture(F9):
    b = grs_b_full(F9)
    C = LinearCode.from_rows(F9, [[1] * 9, b])
    assert C.puncture([]) == C
    P = C.puncture([0, 5])
    assert (P.n, P.k) == (7, 2)
    assert P.min_distance() == 6  # still MDS
    ones = LinearCode.from_rows(F9, [[1, 1, 1]])
    assert ones.puncture([1]) == LinearCode.from_rows(F9, [[1, 1]])
    with pytest.raises(IndexError):
        C.puncture([9])


def test_monomial_scale(F9):
    rng = np.random.default_rng(8)
    C = random_code(F9, 6, 2, rng)
    assert C.monomial_scale([1] * 6) == C
    a = rng.integers(1, 9, size=6).astype(np.int32)
    S = C.monomial_scale(a)
    assert np.array_equal(weight_distribution(S), weight_distribution(C))
    with pytest.raises(ValueError):
        C.monomial_scale([0] + [1] * 5)


def test_extend_sum_zero(F9):
    z = LinearCode.zero(F9, 4).extend_sum_zero()
    assert (z.n, z.k) == (5, 0)
    F3 = make_field(3, 1)
    ones = LinearCode.from_rows(F3, [[1, 1, 1]])
    e = ones.extend_sum_zero()
    assert (e.n, e.k) == (4, 1)
    assert e.contains(np.array([1, 1, 1, 0]))
    # every extended codeword sums to zero
    rng = np.random.default_rng(9)
    C = random_code(F9, 6, 3, rng).extend_sum_zero()
    for row in C.gen:
        acc = 0
        for v in row:
            acc = F9.add(acc, int(v))
        assert acc == 0


def test_field_mismatch(F9, F16):
    a = LinearCode.from_rows(F9, [[1, 1]])
    b = LinearCode.from_rows(F16, [[1, 1]])
    with pytest.raises(FieldMismatchError):
        a.is_subcode_of(b)


def test_code_equality_is_row_space_equality(F9):
    rows1 = [[1, 0, 1], [0, 1, 2]]
    rows2 = [[1, 1, F9.add(1, 2)], [0, 1, 2]]  # row-equivalent pair
    assert LinearCode.from_rows(F9, rows1) == LinearCode.from_rows(F9, rows2)


def test_contains(F9):
    C = LinearCode.from_rows(F9, [[1, 0, 1], [0, 1, 2]])
    assert C.contains(np.array([1, 1, F9.add(1, 2)]))
    assert not C.contains(np.array([1, 0, 0]))


# ----------------------------------------------------------------------
# projective enumeration against brute force over the whole row space
# ----------------------------------------------------------------------

def brute_force_weights(F, C):
    counts = np.zeros(C.n + 1, dtype=np.int64)
    for v in enumerate_row_space(F, C.gen):
        counts[np.count_nonzero(v)] += 1
    return counts


def assert_matches_brute_force(F, C):
    counts = brute_force_weights(F, C)
    assert np.array_equal(weight_distribution(C), counts)
    assert C.min_distance() == int(np.flatnonzero(counts[1:])[0]) + 1


WALKER_CASES = [("F4", 6, 1), ("F4", 7, 3), ("F4", 8, 4),
                ("F9", 5, 1), ("F9", 6, 2), ("F9", 7, 3),
                ("F16", 4, 1), ("F16", 6, 2), ("F16", 6, 3)]


@pytest.mark.parametrize("field, n, k", WALKER_CASES)
def test_walker_matches_brute_force_random(request, field, n, k):
    F = request.getfixturevalue(field)
    rng = np.random.default_rng(100 + 10 * n + k)
    for _ in range(3):
        assert_matches_brute_force(F, random_code(F, n, k, rng))


@pytest.mark.parametrize("field", ["F4", "F9", "F16"])
def test_walker_weight_one_and_zero_column(request, field):
    F = request.getfixturevalue(field)
    rng = np.random.default_rng(11)
    base = random_code(F, 6, 2, rng).gen
    # d = 1: a unit vector on the last coordinate, reached only as a
    # combination of the canonical rows, so the early exit is exercised
    unit = np.zeros((1, 6), dtype=np.int32)
    unit[0, 5] = 1
    C = LinearCode.from_rows(F, np.vstack([base, unit]))
    assert_matches_brute_force(F, C)
    assert C.min_distance() == 1
    # an all-zero column lowers no weight and is never a pivot
    Z = np.insert(base, 2, 0, axis=1)
    assert_matches_brute_force(F, LinearCode.from_rows(F, Z))


def test_walker_multi_block_prefix_path(F4, F9, monkeypatch):
    monkeypatch.setattr(linalg_codes, "_BLOCK_CODEWORDS", 81)
    rng = np.random.default_rng(12)
    # the first row's tail fills 9 blocks from one prefix row over GF(9),
    # and 16 blocks from two prefix rows over GF(4), so prefix digits carry
    for F, n, k, nblocks in ((F9, 7, 4, 9), (F4, 9, 6, 16)):
        C = random_code(F, n, k, rng)
        blocks = list(linalg_codes._enumerate_blocks(F, C.gen[1:], C.gen[0]))
        assert len(blocks) == nblocks
        assert_matches_brute_force(F, C)


@pytest.mark.parametrize("field, k", [("F4", 3), ("F9", 3), ("F16", 2)])
def test_projective_blocks_visit_each_point_once(request, field, k):
    from hermhull.linalg_codes import _projective_blocks
    F = request.getfixturevalue(field)
    C = random_code(F, 5, k, np.random.default_rng(13))
    visited = np.vstack(list(_projective_blocks(F, C.gen)))
    assert visited.shape[0] == (F.order ** k - 1) // (F.order - 1)
    multiples = {tuple(F.mul_arr(np.array(lam), v))
                 for v in visited for lam in range(1, F.order)}
    nonzero = enumerate_row_space(F, C.gen) - {(0,) * C.n}
    assert len(multiples) == len(nonzero) == visited.shape[0] * (F.order - 1)
    assert multiples == nonzero


def brute_force_min_weight(F, gen):
    """The least weight of a codeword m gen over every nonzero message m."""
    n = gen.shape[1]
    words = np.zeros((1, n), dtype=np.int32)
    for row in gen:
        mults = F.mul_arr(np.arange(F.order, dtype=np.int32)[:, None],
                          row[None, :])
        words = F.add_arr(words[:, None, :], mults[None, :, :]).reshape(-1, n)
    # the zero message comes first
    return int(np.count_nonzero(words[1:], axis=1).min())


def assert_min_weight(F, gen):
    d = brute_force_min_weight(F, gen)
    assert linalg_codes._enumerate_min_weight(F, gen, DEFAULT_BUDGET) == d
    return d


@pytest.mark.parametrize("field", ["F4", "F9", "F16", "F25"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_weight_lines_match_brute_force(request, field, k):
    """Line counting against the whole row space: canonical generators,
    the same codes under a random change of basis (so the last row has no
    fixed zero pattern), and with an all-zero column inserted."""
    F = request.getfixturevalue(field)
    rng = np.random.default_rng(70 + 10 * k + F.order)
    below_singleton = 0
    for n in (k, k + 2, k + 5):
        C = random_code(F, n, k, rng)
        d = assert_min_weight(F, C.gen)
        assert C.min_distance() == d
        below_singleton += d < n - k + 1
        while True:
            T = rng.integers(0, F.order, size=(k, k)).astype(np.int32)
            if rref(F, T)[1] == k:
                break
        assert_min_weight(F, mat_mul(F, T, C.gen))
        assert_min_weight(F, np.insert(C.gen, n // 2, 0, axis=1))
    if F.order <= 9 and k >= 2:
        assert below_singleton > 0      # non-MDS codes are among them


@pytest.mark.parametrize("field", ["F4", "F9", "F16", "F25"])
def test_min_weight_lines_on_built_codes(request, field):
    F = request.getfixturevalue(field)
    rng = np.random.default_rng(80 + F.order)
    # the last canonical row is zero at non-pivot columns 3, 4 and 6
    last = np.zeros(8, dtype=np.int32)
    last[[2, 5, 7]] = 1, F.alpha_pow(1), 1
    C = LinearCode.from_rows(
        F, np.vstack([rng.integers(0, F.order, size=(2, 8)), last]))
    assert C.k == 3 and np.array_equal(C.gen[-1], last)
    assert C.min_distance() == assert_min_weight(F, C.gen)
    # all-zero columns, one of them last
    Z = np.insert(random_code(F, 6, 3, rng).gen, [0, 3, 6], 0, axis=1)
    assert LinearCode(F, 9, Z).min_distance() == assert_min_weight(F, Z)
    # d = 1 only through a combination: no row has weight 1, but the first
    # two differ in one position
    g0 = np.ones(6, dtype=np.int32)
    g1 = g0.copy()
    g1[4] = 0
    g2 = np.array([0, 1, F.alpha_pow(1), 1, 1, 1], dtype=np.int32)
    gen = np.vstack([g0, g1, g2])
    assert np.count_nonzero(gen, axis=1).min() > 1
    assert assert_min_weight(F, gen) == 1
    assert LinearCode(F, 6, gen).min_distance() == 1
    # the best line takes most of its zeros where r_j = s_j = 0: r is zero
    # on the last 4 columns and s on 3 of them, and the values -s_j / r_j
    # on the first 4 columns repeat once, so d = 8 - 3 - 2 is below the
    # weight 4 of r
    r = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int32)
    s = np.array([1, 1, F.alpha_pow(1), F.alpha_pow(2), 0, 0, 0, 1],
                 dtype=np.int32)
    assert assert_min_weight(F, np.vstack([s, r])) == 3
    assert_min_weight(F, np.vstack([np.ones_like(r), s, r]))


def test_min_weight_lines_in_chunks(F9, monkeypatch):
    """With _BLOCK_CODEWORDS at 81, each prefix block of 81 vectors over
    GF(9) is counted in chunks of 9 rows, 81 bincount cells each."""
    monkeypatch.setattr(linalg_codes, "_BLOCK_CODEWORDS", 81)
    cells = []
    bincount = np.bincount

    def recording(x, weights=None, minlength=0):
        cells.append(minlength)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", recording)
    C = random_code(F9, 9, 4, np.random.default_rng(90))
    d = C.min_distance()
    monkeypatch.undo()
    assert d == brute_force_min_weight(F9, C.gen)
    # 91 prefixes: 81 from the first row, in 9 chunks, then 9 and 1
    assert len(cells) == 11 and max(cells) == 81


def test_min_weight_work_is_bounded(monkeypatch):
    """A [80, 3] GRS code over GF(81) counts 82 lines of 81 codewords: at
    most 4 field elements of add_arr and mul_arr per prefix and position.
    Walking all 6,643 normalised codewords adds 557,280."""
    F = quadratic_field(9)
    spec = grs.GrsSpec(F, tuple(grs_b_full(F)[:80]), (1,) * 80, 3)
    C = LinearCode.from_rows(F, spec.generator())
    elements = counting_elements(monkeypatch, "add_arr", "mul_arr")
    assert C.min_distance() == 78
    assert elements[0] <= 4 * 82 * 80


# ----------------------------------------------------------------------
# dense kernels against scalar references built from F.add / F.mul
# ----------------------------------------------------------------------

#: every table size and both characteristics, up to GF(1024) (the largest
#: order with tables), one field above the limit in each characteristic,
#: and a prime field whose elements need more than 15 bits
KERNEL_FIELDS = [(2, 2), (3, 2), (3, 4), (11, 2), (2, 8), (2, 10),
                 (2, 12), (3, 8), (65521, 1)]


@pytest.fixture(scope="module", params=KERNEL_FIELDS,
                ids=[f"GF({p}^{m})" for p, m in KERNEL_FIELDS])
def KF(request):
    return make_field(*request.param)


def sparse_random(F, shape, rng):
    """Random field elements with about a third of them zero."""
    M = rng.integers(1, F.order, size=shape)
    M[rng.random(shape) < 0.35] = 0
    return M.astype(np.int32)


def ref_mat_mul(F, A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = F.add(acc, F.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def ref_rref(F, M):
    """Scalar Gauss-Jordan elimination with leftmost pivots."""
    rows, cols = M.shape
    R = [[int(x) for x in r] for r in M]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return np.array(R, dtype=np.int32).reshape(rows, cols), len(pivots), pivots


@pytest.mark.parametrize("a, b, c", [(5, 7, 4), (1, 9, 1), (4, 1, 6),
                                     (0, 3, 4), (3, 0, 4), (3, 4, 0)])
def test_mat_mul_matches_scalar_reference(KF, a, b, c):
    rng = np.random.default_rng(a * 100 + b * 10 + c)
    A = sparse_random(KF, (a, b), rng)
    B = sparse_random(KF, (b, c), rng)
    out = mat_mul(KF, A, B)
    assert out.shape == (a, c) and out.dtype == np.int32
    assert np.array_equal(out, ref_mat_mul(KF, A, B))


@pytest.mark.parametrize("chunk", [20, 70])
def test_mat_mul_chunked_matches_reference(F16, F49, monkeypatch, chunk):
    # chunk 20 holds less than one output row in both paths (one row a
    # chunk); 70 holds two rows: b c = 30 products, b c m^2 = 120 float ops
    monkeypatch.setattr(linalg_codes, "_MAT_MUL_CHUNK", chunk)
    monkeypatch.setattr(linalg_codes, "_BLAS_CHUNK", 4 * chunk)
    rng = np.random.default_rng(21)
    for F in (F16, F49):
        A = sparse_random(F, (7, 6), rng)
        B = sparse_random(F, (6, 5), rng)
        assert np.array_equal(mat_mul(F, A, B), ref_mat_mul(F, A, B))


def test_mat_mul_exactness_guard():
    # b m (p-1)^2 reaches 2^53 one step above b = 2^53 // 65520^2
    F = make_field(65521, 1)
    b = (1 << 53) // (65520 ** 2) + 1
    with pytest.raises(RuntimeError, match="exact"):
        mat_mul(F, np.zeros((1, b), dtype=np.int32),
                np.zeros((b, 1), dtype=np.int32))


@pytest.mark.parametrize("rows, cols, rank", [(5, 8, 3), (6, 6, 6), (4, 9, 4),
                                              (3, 5, 0), (0, 4, 0)])
def test_rref_matches_scalar_reference(KF, rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    # a product of random factors, so most draws have rank below min(rows, cols)
    M = ref_mat_mul(KF, sparse_random(KF, (rows, rank), rng),
                    sparse_random(KF, (rank, cols), rng))
    R, r, piv = rref(KF, M)
    R0, r0, piv0 = ref_rref(KF, M)
    assert (r, piv) == (r0, piv0)
    assert np.array_equal(R, R0)


def _with_identity(M, m):
    """M with R[:m, :m] = I and a zero at (m, m), so that its leading
    identity block has length exactly m."""
    M = M.copy()
    M[:m, :m] = np.eye(m, dtype=np.int32)
    if m < min(M.shape):
        M[m, m] = 0
    return M


def test_rref_clears_a_leading_identity_block_like_the_reference(
        KF, monkeypatch):
    """rref equals the scalar reference with and without a leading
    identity block: zero columns, rank deficiency, row swaps and non-unit
    pivots; identity blocks of length 1, 3, 5 and 65, with columns zero
    below the block; a diagonal of ones whose block has a nonzero
    off-diagonal entry; [I | A] and a square identity; empty matrices; and
    the identity-block update split into row chunks of one and of two
    rows."""
    rng = np.random.default_rng(31)
    rows, cols = 7, 9

    def low_rank(rank):
        return ref_mat_mul(KF, sparse_random(KF, (rows, rank), rng),
                           sparse_random(KF, (rank, cols), rng))

    cases = [(low_rank(0), 0)]
    M = low_rank(2)
    M[:, [0, 3]] = 0               # zero columns
    cases.append((M, 0))
    M = low_rank(5)
    M[0] = 0                       # a zero first row: the pivot needs a swap
    cases.append((M, 0))
    M = low_rank(7)
    M[0, 0] = 2                    # a non-unit first pivot
    cases.append((M, 0))
    for rank, m, zero_below in ((1, 3, [1, 2]), (4, 3, [2]), (6, 5, [2])):
        M = _with_identity(low_rank(rank), m)
        M[m:, zero_below] = 0      # nothing to clear in those columns
        cases.append((M, m))
    cases += [(_with_identity(low_rank(r), 1), 1) for r in (3, 6)]
    # a diagonal of ones whose block has a nonzero off-diagonal entry
    M = _with_identity(low_rank(5), 6)
    M[1, 3] = 1
    cases.append((M, 3))
    # [I | A] (m = rows) and a square identity
    A = sparse_random(KF, (4, 5), rng)
    cases += [(np.hstack([np.eye(4, dtype=np.int32), A]), 4),
              (np.eye(6, dtype=np.int32), 6)]
    # an identity block of 65 columns with 5 rows below it: columns 7 and 9
    # are zero below the block, and one row below it is zero
    m, wide = 65, np.zeros((70, 71), dtype=np.int32)
    wide[:m, m:] = sparse_random(KF, (m, 71 - m), rng)
    wide[m:] = sparse_random(KF, (70 - m, 71), rng)
    wide = _with_identity(wide, m)
    wide[m:, [7, 9]] = 0
    wide[m + 2] = 0
    cases.append((wide, m))
    cases += [(np.zeros((0, 4), dtype=np.int32), 0),
              (np.zeros((4, 0), dtype=np.int32), 0)]
    assert [_leading_identity(M) for M, _ in cases] == [m for _, m in cases]
    expected = [ref_rref(KF, M) for M, _ in cases]
    live = (wide[m:, :m] != 0).any(axis=0).sum()
    row_cells = live * (wide.shape[1] - m)
    for cells in (None, 1, 2 * row_cells):
        if cells is not None:
            monkeypatch.setattr(linalg_codes, "_IDENTITY_CHUNK_CELLS", cells)
        for i, ((M, _), (R0, r0, piv0)) in enumerate(zip(cases, expected)):
            R, r, piv = rref(KF, M)
            assert (r, piv) == (r0, piv0), (cells, i)
            assert np.array_equal(R, R0), (cells, i)
    assert [r for _, r, _ in expected[:4]] == [0, 2, 5, 7]


def _rank_patterns(F, rng):
    """Matrices whose nonzero patterns cover every path through
    ``matrix_rank``: random ones of every density, low-rank products, and
    zero, single-entry, permutation, path and cycle patterns with random and
    with unit values."""
    def fill(mask, ones=False):
        vals = np.ones(mask.shape, dtype=np.int32) if ones else \
            rng.integers(1, F.order, size=mask.shape).astype(np.int32)
        return np.where(mask, vals, 0).astype(np.int32)

    for shape in [(6, 9), (9, 6), (8, 8)]:
        for density in (0.0, 0.05, 0.1, 0.2, 0.35, 0.6, 1.0):
            yield fill(rng.random(shape) < density)
    for rank in (1, 3, 5):
        yield ref_mat_mul(F, sparse_random(F, (7, rank), rng),
                          sparse_random(F, (rank, 8), rng))
    for shape in [(0, 0), (0, 5), (5, 0), (1, 1), (4, 7)]:
        yield np.zeros(shape, dtype=np.int32)
    single = np.zeros((5, 6), dtype=bool)
    single[3, 2] = True
    yield fill(single)
    n = 7
    eye = np.eye(n, dtype=bool)
    perm = eye[rng.permutation(n)]
    path = eye | np.eye(n, k=1, dtype=bool)
    cycle = path | np.eye(n, k=1 - n, dtype=bool)
    for mask in (perm, path, cycle, path[:, rng.permutation(n)],
                 cycle[rng.permutation(n)]):
        yield fill(mask)
        yield fill(mask, ones=True)
    # isolated entries next to a dense block and a path component
    mixed = np.zeros((9, 10), dtype=bool)
    mixed[0, 9] = mixed[8, 0] = True
    mixed[2:5, 2:5] = True
    mixed[5, 6] = mixed[5, 7] = mixed[6, 7] = True
    yield fill(mixed)


def test_matrix_rank_matches_rref_rank(KF):
    rng = np.random.default_rng(KF.order % 1000)
    count = 0
    for M in _rank_patterns(KF, rng):
        assert matrix_rank(KF, M) == rref(KF, M)[1], M
        count += 1
    assert count > 40


def test_matrix_rank_eliminates_only_what_the_pattern_leaves(F16,
                                                              monkeypatch):
    cells = []
    eliminate = linalg_codes._profile_pivots

    def counting(F, M):
        cells.append(np.size(M))
        return eliminate(F, M)

    monkeypatch.setattr(linalg_codes, "_profile_pivots", counting)
    rng = np.random.default_rng(5)
    # a scaled permutation with zero rows and columns around it: no
    # elimination
    M = np.zeros((8, 9), dtype=np.int32)
    M[[0, 2, 3, 6], [8, 1, 4, 5]] = rng.integers(1, 16, size=4)
    assert matrix_rank(F16, M) == 4 and cells == []
    # one 2 x 2 path component next to two isolated entries: one 2 x 2
    # elimination
    M[1, 0] = M[1, 2] = M[4, 2] = 3
    M[0, 8] = 0
    assert matrix_rank(F16, M) == 5 and cells == [4]
    with pytest.raises(ValueError, match="2-d"):
        matrix_rank(F16, np.zeros(3, dtype=np.int32))


def _profile_count(P, i, j):
    return int(np.count_nonzero((P[:, 0] < i) & (P[:, 1] < j)))


def _assert_rank_profile(F, M, reference):
    """The pivots of ``rank_profile(F, M)`` lie in distinct rows and in
    increasing, distinct columns, and count reference(F, M[:i, :j]) inside
    [:i, :j] for every i and j."""
    P = rank_profile(F, M)
    assert P.shape == (len(P), 2)
    assert len(set(P[:, 0].tolist())) == len(P)
    assert np.all(np.diff(P[:, 1]) > 0)
    rows, cols = M.shape
    for i in range(rows + 1):
        for j in range(cols + 1):
            want = reference(F, M[:i, :j]) if i and j else 0
            assert _profile_count(P, i, j) == want, (M, i, j)


def _rref_rank(F, M):
    return rref(F, M)[1]


@pytest.mark.parametrize("q", [2, 3, 4, 11])
def test_rank_profile_counts_every_leading_rank(q):
    # random patterns, low-rank products and sparse components, with zero
    # rows and columns spliced in, against the rank of every leading block
    F = quadratic_field(q)
    rng = np.random.default_rng(q)
    count = 0
    for M in _rank_patterns(F, rng):
        if M.size:
            for axis in (0, 1):
                M = np.insert(M, rng.integers(0, M.shape[axis] + 1), 0,
                              axis=axis)
        _assert_rank_profile(F, M, _rref_rank)
        _assert_rank_profile(F, M, matrix_rank)
        count += 1
    # rank-deficient: the repeated rows and columns must be skipped
    base = sparse_random(F, (4, 5), rng)
    M = base[[0, 1, 0, 2, 1, 3, 2]][:, [4, 0, 4, 1, 2, 3, 2]]
    _assert_rank_profile(F, M, _rref_rank)
    assert count > 40


def test_rank_profile_of_every_full_grid_gram_matrix():
    # each evaluation vector's Gram matrix at the largest k of the grids,
    # whose leading blocks are the Gram matrices of all its instances
    for q in (2, 3, 4, 5, 7, 8):
        grams = {}
        for family in grs.FAMILIES:
            for params in grs.family_parameter_grid(family, q,
                                                    conservative=False):
                spec = grs.construct_family(family, q, **params).spec
                key = (spec.b, spec.a)
                if spec.k > grams.get(key, (0, None))[0]:
                    grams[key] = (spec.k, spec)
        for _, spec in grams.values():
            G = np.array(grs.natural_gram(spec))
            _assert_rank_profile(spec.field, G, matrix_rank)
            assert len(rank_profile(spec.field, G)) == _rref_rank(
                spec.field, G)


def test_rank_profile_pivots_are_the_topmost_rows():
    # column 0 pivots on row 1 (not row 0, which is zero there), column 1
    # on row 0; row 2 is row 1 plus row 0, so it never pivots; column 2
    # pivots on row 3, the first row left with a nonzero there
    F = quadratic_field(2)
    M = np.array([[0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 0, 1]],
                 dtype=np.int32)
    assert rank_profile(F, M).tolist() == [[1, 0], [0, 1], [3, 2]]
    with pytest.raises(ValueError, match="2-d"):
        rank_profile(F, np.zeros(3, dtype=np.int32))
    assert rank_profile(F, np.zeros((2, 0), dtype=np.int32)).shape == (0, 2)


def test_contains_rows_matches_reference(KF):
    rng = np.random.default_rng(22)
    C = random_code(KF, 7, 3, rng)
    inside = ref_mat_mul(KF, sparse_random(KF, (4, 3), rng), C.gen)
    assert C.contains_rows(inside)
    assert C.contains_rows(np.zeros((0, 7), dtype=np.int32))
    for _ in range(3):
        v = sparse_random(KF, (1, 7), rng)
        expect = ref_rref(KF, np.vstack([C.gen, v]))[1] == C.k
        assert C.contains_rows(v) == expect == C.contains(v[0])
        assert C.contains_rows(np.vstack([inside, v])) == expect
    # a unit vector on a non-pivot column has zero pivot entries but is not 0
    pivots = set(np.argmax(C.gen != 0, axis=1).tolist())
    e = np.zeros((1, 7), dtype=np.int32)
    e[0, min(set(range(7)) - pivots)] = 1
    assert not C.contains_rows(e)
    assert not C.contains_rows(np.vstack([inside, e]))


def test_contains_rows_zero_code(KF):
    Z = LinearCode.zero(KF, 5)
    assert Z.contains_rows(np.zeros((3, 5), dtype=np.int32))
    v = np.zeros((2, 5), dtype=np.int32)
    v[1, 4] = 1
    assert not Z.contains_rows(v)
    assert Z.is_subcode_of(LinearCode.full(KF, 5))
    with pytest.raises(ValueError):
        Z.contains_rows(np.zeros((1, 4), dtype=np.int32))


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4)])
def test_parity_rows_match_nullspace(p, m):
    F = make_field(p, m)
    rng = np.random.default_rng(p * m)
    codes = [LinearCode.zero(F, 6), LinearCode.full(F, 6)]
    codes += [random_code(F, 8, k, rng) for k in (1, 3, 5, 8)]
    # pivots that are not leading: zero and repeated columns before them
    M = sparse_random(F, (3, 9), rng)
    M[:, [0, 4]] = 0
    M[:, 2] = M[:, 1]
    codes.append(LinearCode.from_rows(F, M, n=9))
    for C in codes:
        H = C.parity_rows()
        assert np.array_equal(H, nullspace(F, C.gen)), (C.n, C.k)
        assert H.shape == (C.n - C.k, C.n)
        assert not mat_mul(F, C.gen, H.T).any()
    assert list(np.argmax(codes[-1].gen != 0, axis=1)) != list(range(codes[-1].k))


# ----------------------------------------------------------------------
# Hermitian dual and hull against natural-order eliminations
# ----------------------------------------------------------------------

def ref_hermitian_dual(C):
    F = C.field
    return LinearCode.from_rows(F, nullspace(F, conjugate(F, C.gen)), n=C.n)


def ref_hermitian_hull(C):
    """The stacked parity solve [P; conj(G)] in natural column order."""
    F = C.field
    stacked = np.vstack([C.parity_rows(), conjugate(F, C.gen)])
    return LinearCode.from_rows(F, nullspace(F, stacked), n=C.n)


def codes_for_duality(F, n, rng):
    """Random [n, k] codes for k in {0, 1, n//2, n-1, n}, and codes whose
    pivots are not the leading columns (zero and repeated columns)."""
    codes = [LinearCode.zero(F, n), LinearCode.full(F, n)]
    codes += [random_code(F, n, k, rng) for k in (1, n // 2, n - 1)]
    for k in (1, n // 2, n - 1):
        M = sparse_random(F, (k, n), rng)
        M[:, [0, n // 2]] = 0
        M[:, 2] = M[:, 1]
        codes.append(LinearCode.from_rows(F, M, n=n))
    return codes


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hermitian_dual_is_conjugated_parity(q):
    F = quadratic_field(q)
    rng = np.random.default_rng(40 + q)
    codes = codes_for_duality(F, 9, rng)
    assert any(list(C._pivots()) != list(range(C.k)) for C in codes)
    for C in codes:
        D = C.hermitian_dual()
        assert D == ref_hermitian_dual(C), (C.n, C.k)
        assert D.k == C.n - C.k
        assert not mat_mul(F, C.gen, conjugate(F, D.gen).T).any()


def self_orthogonal_and_lcd(F):
    """A Hermitian self-orthogonal code, the first q-1 evaluation rows on
    all of GF(q^2), and a complementary-dual one, unit vectors whose Gram
    matrix is the identity."""
    b = np.array(grs_b_full(F), dtype=np.int32)
    ev = [np.ones(F.order, dtype=np.int32)]
    for _ in range(F.q - 2):
        ev.append(F.mul_arr(ev[-1], b))
    so = LinearCode.from_rows(F, ev, n=F.order)
    lcd = LinearCode.from_rows(F, [[0, 0, 0, 1, 0], [0, 1, 0, 0, 0]], n=5)
    return so, lcd


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_hermitian_hull_matches_natural_order_solve(q):
    F = quadratic_field(q)
    rng = np.random.default_rng(50 + q)
    codes = codes_for_duality(F, 10, rng)
    so, lcd = self_orthogonal_and_lcd(F)
    for C in codes + [so, lcd]:
        hull = C.hermitian_hull()
        assert hull == ref_hermitian_hull(C), (C.n, C.k)
        assert hull.k == hull_dim_via_gram(C)
    assert so.hermitian_hull() == so and so.k == q - 1
    assert lcd.hermitian_hull().k == 0


@pytest.mark.parametrize("cells", [None, 300])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_hermitian_hulls_match_reference_on_mixed_batches(q, cells,
                                                          monkeypatch):
    """Each code's hull equals the natural-order solve on random codes of
    lengths 5, 8 and 10 with k in {0, 1, n//2, n-1, n}, a self-orthogonal
    code and an LCD code, with the identity-block chunks at their default
    cap and at 300 cells."""
    F = quadratic_field(q)
    if cells is not None:
        monkeypatch.setattr(linalg_codes, "_IDENTITY_CHUNK_CELLS", cells)
    rng = np.random.default_rng(70 + q)
    codes = [C for n in (8, 5, 10) for C in codes_for_duality(F, n, rng)]
    codes += self_orthogonal_and_lcd(F)
    for C in codes:
        assert C.hermitian_hull() == ref_hermitian_hull(C), (C.n, C.k)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_hermitian_hull_on_every_two_point_instance(q):
    F = quadratic_field(q)
    count = 0
    for family in ("COR1", "COR2", "COR3"):
        for params in ag.family_parameter_grid(family, q):
            kw = {n: params[n] for n in ("s", "t", "n0") if n in params}
            diff = ag.evaluation_set(family, q, field=F, **kw)
            rows = ag.two_point_code(F, diff, params["k"],
                                     distance_budget=0).scaled_rows
            C = LinearCode.from_rows(F, rows)
            assert C.hermitian_hull() == ref_hermitian_hull(C), (family, params)
            count += 1
    assert count > 0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_hermitian_hulls_of_the_whole_two_point_grid_in_one_call(q):
    """The hull of every two-point grid code, of several lengths, equals
    the natural-order solve.  (The name dates from a batched solve; each
    hull is solved per code.)"""
    F = quadratic_field(q)
    codes = []
    for family in ("COR1", "COR2", "COR3"):
        for params in ag.family_parameter_grid(family, q):
            kw = {n: params[n] for n in ("s", "t", "n0") if n in params}
            diff = ag.evaluation_set(family, q, field=F, **kw)
            codes.append(ag.two_point_code(F, diff, params["k"],
                                           distance_budget=0).code)
    assert len({C.n for C in codes}) > 1
    for C in codes:
        assert C.hermitian_hull() == ref_hermitian_hull(C), (C.n, C.k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_hermitian_hull_on_every_grs_instance_in_budget(q):
    count = 0
    for family in grs.FAMILIES:
        for params in grs.family_parameter_grid(family, q):
            C = grs.construct_family(family, q, **params).code
            if C.field.order ** C.k > DEFAULT_BUDGET:
                continue
            assert C.hermitian_hull() == ref_hermitian_hull(C), (family, params)
            count += 1
    assert count > 0


def two_point(F, family, k, **params):
    """The code of a two-point grid instance."""
    diff = ag.evaluation_set(family, F.q, field=F, **params)
    return ag.two_point_code(F, diff, k, distance_budget=0).code


def counting_elements(monkeypatch, *methods):
    """Patch the named binary FieldContext methods to count the elements
    they return, summed into one counter."""
    count = [0]

    def counting(method):
        def wrapper(self, a, b):
            count[0] += np.broadcast(np.asarray(a), np.asarray(b)).size
            return method(self, a, b)
        return wrapper

    for name in methods:
        monkeypatch.setattr(FieldContext, name,
                            counting(getattr(FieldContext, name)))
    return count


def counting_additions(monkeypatch):
    """Patch FieldContext.add_arr to count the elements it adds."""
    return counting_elements(monkeypatch, "add_arr")


def test_hermitian_hull_elimination_work_is_bounded(monkeypatch):
    """The free-first stacked solve of the [110, 11] COR2 code (t = 10,
    k = 9) over GF(121) adds at most dim * n^2 field elements; the
    leftmost-first order of the same solve adds 654,486 in its nullspace
    alone.  Two-point codes of several lengths, and random codes of one
    length and several dimensions, add at most the sum of dim * n^2."""
    F = quadratic_field(11)
    C = two_point(F, "COR2", 9, t=10)
    assert (C.n, C.k) == (110, 11)
    added = counting_additions(monkeypatch)
    hull = C.hermitian_hull()
    assert added[0] <= C.k * C.n ** 2

    def batch():
        return [two_point(F, "COR2", 9, t=10), two_point(F, "COR2", 4, t=5),
                two_point(F, "COR1", 2, s=41), two_point(F, "COR2", 0, t=1)]

    codes = batch()
    added[0] = 0
    hulls = [D.hermitian_hull() for D in codes]
    assert added[0] <= sum(D.k * D.n ** 2 for D in codes)

    rng = np.random.default_rng(61)
    mixed = [random_code(F, 40, k, rng) for k in (6, 10)]
    added[0] = 0
    for D in mixed:
        D.hermitian_hull()
    assert 0 < added[0] <= sum(D.k * D.n ** 2 for D in mixed)
    monkeypatch.undo()
    assert hull == ref_hermitian_hull(C)
    for D, H in zip(batch(), hulls):
        assert H == ref_hermitian_hull(D)


def test_hermitian_hull_uses_no_gram_product(F16, monkeypatch):
    """The hull solve stays independent of the Gram-rank method, for codes
    of several lengths."""

    def refuse(*args):
        raise AssertionError("hermitian_hull must not multiply matrices")

    rng = np.random.default_rng(60)
    C = random_code(F16, 9, 4, rng)
    codes = [random_code(F16, n, k, rng) for n, k in ((12, 5), (7, 2), (9, 0))]
    monkeypatch.setattr(linalg_codes, "mat_mul", refuse)
    monkeypatch.setattr(linalg_codes, "gram_matrix", refuse)
    hull = C.hermitian_hull()
    hulls = [D.hermitian_hull() for D in codes]
    monkeypatch.undo()
    assert hull == ref_hermitian_hull(C)
    for D, H in zip(codes, hulls):
        assert H == ref_hermitian_hull(D)
