"""Dense exact linear algebra over a FieldContext and the linear-code layer.

Matrices are 2-d numpy int arrays of field elements, always paired with the
FieldContext that interprets them.  Codes are held in canonical form: the
unique reduced row echelon basis of the row space, so code equality is
array equality.  Hermitian operations (dual, hull, Gram rank) require the
context to carry an index-2 subfield.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .gf import FieldContext

#: default caps, in codewords, on full-message-space enumeration and on
#: the distance enumerations of a verification (of a code and its hull)
DEFAULT_BUDGET = 10 ** 8
DEFAULT_DISTANCE_BUDGET = 10 ** 6

#: max codewords in a single enumeration block, and max bincount cells
#: (prefixes x order) of one chunk of lines in _enumerate_min_weight
_BLOCK_CODEWORDS = 1 << 18

#: max entries of one chunk of the a x b x c product tensor in mat_mul;
#: 256 KB of int32 stays in L2, and larger chunks measured slower
_MAT_MUL_CHUNK = 1 << 16

#: max multiply-adds of one float64 matrix product in mat_mul.  OpenBLAS
#: runs products below about 2^20 on the calling thread; these matrices are
#: small, and threaded runs of them measured several times slower, as the
#: workers are woken again for every product
_BLAS_CHUNK = 1 << 18

#: float64 represents every integer below this exactly
_FLOAT_EXACT = 1 << 53

#: max cells (rows x live identity columns x trailing columns) of one row
#: chunk of the product tensor with which rref clears a leading identity
#: block: 512 KB of int32
_IDENTITY_CHUNK_CELLS = 1 << 17


class BudgetExceededError(RuntimeError):
    """Full enumeration would exceed the caller's codeword budget."""


class FieldMismatchError(ValueError):
    """Operands live in different field contexts."""


def _check_same_field(a: "LinearCode", b: "LinearCode"):
    if a.field is not b.field:
        raise FieldMismatchError("codes live in different field contexts")


# ----------------------------------------------------------------------
# matrix primitives
# ----------------------------------------------------------------------

def rref(F: FieldContext, M: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form with leftmost-pivot tie-breaking.

    Returns (R, rank, pivot_columns).  Pivot entries are 1 and pivot
    columns are cleared above and below.  The elimination works in the log
    domain (see ``FieldContext.zlog``) and only on the columns from the
    pivot onward: the pivot row is zero to their left.

    A leading identity block R[:m, :m] = I holds given pivots: column
    j < m pivots on row j with no swap or scaling, and its pivot row is zero
    on the other identity columns, so the m clearings are independent.
    Rows m onward gain the sum over j of -R[m:, j] R[j, m:] at once: the
    product tensor of the identity columns nonzero below the block, folded
    pairwise with ``add_arr``, in row chunks of at most
    _IDENTITY_CHUNK_CELLS cells (one row at least).
    """
    R = np.array(M, dtype=np.int32, copy=True)
    if R.ndim != 2:
        raise ValueError("matrix must be 2-d")
    rows, cols = R.shape
    n1 = F.order - 1
    m = _leading_identity(R)
    if m:
        below = R[m:]
        live = np.flatnonzero(below[:, :m].any(axis=0))
        if live.size and cols > m:
            lfac = F.zlog[F.neg_arr(below[:, live])][:, :, None]
            lrow = F.zlog[R[live, m:]]
            step = max(1, _IDENTITY_CHUNK_CELLS // (live.size * (cols - m)))
            for i in range(0, rows - m, step):
                terms = np.take(F.zexp, lfac[i:i + step] + lrow)
                width = live.size
                while width > 1:
                    half = width // 2
                    terms[:, :half] = F.add_arr(terms[:, :half],
                                                terms[:, width - half:width])
                    width -= half
                below[i:i + step, m:] = F.add_arr(below[i:i + step, m:],
                                                  terms[:, 0])
        below[:, :m] = 0
    pivots = list(range(m))
    row = m
    for col in range(m, cols):
        if row >= rows:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        lrow = F.zlog[R[row, col:]]
        lpv = int(lrow[0])
        if lpv:
            R[row, col:] = F.zexp[lrow + (n1 - lpv)]
            lrow = F.zlog[R[row, col:]]
        colvals = R[:, col].copy()
        colvals[row] = 0
        mask = np.flatnonzero(colvals)
        if mask.size:
            lfac = F.zlog[F.neg_arr(colvals[mask])]
            R[mask, col:] = F.add_arr(R[mask, col:],
                                      np.take(F.zexp, lfac[:, None] + lrow))
        pivots.append(col)
        row += 1
    return R, row, pivots


def _leading_identity(R: np.ndarray) -> int:
    """The largest m with R[:m, :m] the identity, found within the leading
    run of ones on the diagonal."""
    if not (min(R.shape) and R[0, 0] == 1):
        return 0
    ones = np.diagonal(R) == 1
    m = ones.size if ones.all() else int(np.argmin(ones))
    i, j = np.nonzero(R[:m, :m] != np.eye(m, dtype=R.dtype))
    return int(np.maximum(i, j).min()) if i.size else m


def nullspace(F: FieldContext, M: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right kernel {x : M x^T = 0}."""
    R, rank, pivots = rref(F, M)
    return _kernel_of_rref(F, R[:rank], pivots)


def _free_columns(n: int, pivots) -> np.ndarray:
    """The columns among 0..n-1 that are not pivots, in increasing order."""
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _kernel_of_rref(F: FieldContext, R: np.ndarray, pivots) -> np.ndarray:
    """Right kernel of a full-rank RREF matrix R with the given pivots: one
    row per free column f, with 1 at f and -R[:, f] at the pivots."""
    n = R.shape[1]
    free = _free_columns(n, pivots)
    basis = np.zeros((free.size, n), dtype=np.int32)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = F.neg_arr(R[:, free].T)
    return basis


def mat_mul(F: FieldContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrix product A B over F, with no loop over the inner index.

    Characteristic 2: every product is one lookup in the log domain and the
    sums are XOR reductions, over chunks of at most about _MAT_MUL_CHUNK
    products.  Odd characteristic: multiplication by an element is GF(p)-
    linear on digit vectors, so A B is the float64 product
    digits(A) (a x bm) @ mul_matrices(B) (bm x cm), reduced mod p, taken
    in row chunks of at most about _BLAS_CHUNK multiply-adds.  Every sum
    there is below b m (p-1)^2, which must stay under 2^53 to be exact.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError("inner dimensions differ")
    (a, b), c = A.shape, B.shape[1]
    if F.p == 2:
        la = F.zlog[A][:, :, None]
        lb = F.zlog[B][None, :, :]
        out = np.empty((a, c), dtype=np.int32)
        step = max(1, _MAT_MUL_CHUNK // max(1, b * c))
        for i in range(0, a, step):
            out[i:i + step] = np.bitwise_xor.reduce(
                np.take(F.zexp, la[i:i + step] + lb), axis=1)
        return out
    p, m = F.p, F.m
    if b * m * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise RuntimeError(
            f"GF({F.order}) product with inner dimension {b} exceeds exact "
            "float64 range")
    digits = F._digits[A].reshape(a, b * m).astype(np.float64)
    blocks = F.mul_matrices[B].transpose(0, 2, 1, 3).reshape(b * m, c * m)
    sums = np.empty((a, c * m))
    step = max(1, _BLAS_CHUNK // max(1, b * c * m * m))
    for i in range(0, a, step):
        np.matmul(digits[i:i + step], blocks, out=sums[i:i + step])
    sums = sums.astype(np.int64) % p
    return (sums.reshape(a, c, m) @ F._pw).astype(np.int32)


def conjugate(F: FieldContext, M: np.ndarray) -> np.ndarray:
    """Entry-wise q-th power (Hermitian conjugation without transpose)."""
    return F.pow_q_arr(np.asarray(M))


def gram_matrix(F: FieldContext, G: np.ndarray) -> np.ndarray:
    """G G-dagger: the k x k Hermitian Gram matrix of the rows of G."""
    return mat_mul(F, G, conjugate(F, G).T)


def matrix_rank(F: FieldContext, M: np.ndarray) -> int:
    """The rank of M: the number of pivots of its ``rank_profile``."""
    return len(rank_profile(F, M))


def rank_profile(F: FieldContext, M: np.ndarray) -> np.ndarray:
    """The pivots (row, column) of M, a (rank, 2) array in increasing
    column order, with rank(M[:i, :j]) the number of pivots inside
    [:i, :j] for every i and j: the rank profile matrix of Dumas, Pernet
    and Sultan (J. Symbolic Comput. 83, 2017).

    The nonzero pattern is read first.  Zero rows and columns hold no
    pivot.  An entry that is the only nonzero of both its row and its
    column is a pivot that no elimination step touches or uses, and these
    isolated entries lie in distinct rows and columns, so all of them are
    peeled in one pass.  ``_profile_pivots`` eliminates what is left.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    nz = M != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    nz = nz[np.ix_(rows, cols)]
    alone = (nz & (nz.sum(axis=1) == 1)[:, None]
             & (nz.sum(axis=0) == 1)[None, :])
    i, j = np.nonzero(alone)
    pivots = [np.stack([rows[i], cols[j]], axis=1)]
    rows, cols = rows[~alone.any(axis=1)], cols[~alone.any(axis=0)]
    if rows.size and cols.size:
        i, j = _profile_pivots(F, M[np.ix_(rows, cols)]).T
        pivots.append(np.stack([rows[i], cols[j]], axis=1))
    pivots = np.concatenate(pivots)
    return pivots[np.argsort(pivots[:, 1], kind="stable")]


def _profile_pivots(F: FieldContext, M: np.ndarray) -> np.ndarray:
    """The rank profile of M by elimination, as a (rank, 2) array.

    Column by column, the pivot is the topmost row that is not yet a pivot
    row and is nonzero there, and the column is cleared only in the rows
    below it, which are not pivot rows either; no row is swapped or
    scaled.  So the first i rows always span the row space of M[:i], and
    a pivot row is zero left of its pivot: rank(M[:i, :j]) counts the
    pivots inside [:i, :j].  Log domain, as in ``rref``.
    """
    R = np.array(M, dtype=np.int32, copy=True)
    n1 = F.order - 1
    free = np.ones(R.shape[0], dtype=bool)
    pivots = []
    for col in range(R.shape[1]):
        hit = np.flatnonzero((R[:, col] != 0) & free)
        if hit.size == 0:
            continue
        row, below = int(hit[0]), hit[1:]
        free[row] = False
        pivots.append((row, col))
        if below.size and col + 1 < R.shape[1]:
            lfac = (F.zlog[F.neg_arr(R[below, col])]
                    + (n1 - int(F.zlog[R[row, col]]))) % n1
            R[below, col + 1:] = F.add_arr(
                R[below, col + 1:],
                np.take(F.zexp, lfac[:, None] + F.zlog[R[row, col + 1:]]))
        if not free.any():
            break
    return np.array(pivots, dtype=np.int64).reshape(-1, 2)


# ----------------------------------------------------------------------
# linear codes
# ----------------------------------------------------------------------

class LinearCode:
    """A linear code held as the RREF basis of its row space.

    Two codes are equal iff they share a field context and their canonical
    generators agree entry-wise (row-space equality by construction).
    """

    def __init__(self, field: FieldContext, n: int, gen: np.ndarray):
        self.field = field
        self.n = int(n)
        gen = np.asarray(gen, dtype=np.int32)
        gen.setflags(write=False)
        self.gen = gen
        self._d: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldContext, rows: Iterable[Sequence[int]],
                  n: Optional[int] = None) -> "LinearCode":
        M = np.array(list(rows), dtype=np.int32)
        if M.size == 0:
            if n is None:
                raise ValueError("empty row set needs an explicit length")
            return cls(field, n, np.zeros((0, n), dtype=np.int32))
        if M.ndim != 2:
            raise ValueError("rows must form a matrix")
        if n is not None and M.shape[1] != n:
            raise ValueError("row length disagrees with n")
        if np.any(M < 0) or np.any(M >= field.order):
            raise ValueError("entries outside the field")
        R, rank, _ = rref(field, M)
        return cls(field, M.shape[1], R[:rank])

    @classmethod
    def zero(cls, field: FieldContext, n: int) -> "LinearCode":
        return cls(field, n, np.zeros((0, n), dtype=np.int32))

    @classmethod
    def full(cls, field: FieldContext, n: int) -> "LinearCode":
        return cls(field, n, np.eye(n, dtype=np.int32))

    # -- basics ----------------------------------------------------------

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.field is other.field and self.n == other.n
                and self.gen.shape == other.gen.shape
                and np.array_equal(self.gen, other.gen))

    def __hash__(self):
        return hash((id(self.field), self.n, self.gen.tobytes()))

    def __repr__(self):
        d = f", d={self._d}" if self._d is not None else ""
        return f"LinearCode[{self.n}, {self.k}{d}] over {self.field!r}"

    def contains(self, v: Sequence[int]) -> bool:
        v = np.asarray(v, dtype=np.int32)
        if v.shape != (self.n,):
            raise ValueError("vector length mismatch")
        return self.contains_rows(v[None, :])

    def contains_rows(self, V) -> bool:
        """Do all rows of V lie in the code?

        The generator is in RREF, so a codeword is determined by its entries
        at the pivot columns: V is inside exactly when V[:, pivots] @ gen
        gives V back.  One mat_mul tests every row.
        """
        V = np.asarray(V, dtype=np.int32)
        if V.ndim != 2 or V.shape[1] != self.n:
            raise ValueError("vector length mismatch")
        return np.array_equal(mat_mul(self.field, V[:, self._pivots()],
                                      self.gen), V)

    def _pivots(self) -> np.ndarray:
        return np.argmax(self.gen != 0, axis=1)

    def is_subcode_of(self, other: "LinearCode") -> bool:
        _check_same_field(self, other)
        if self.n != other.n:
            raise ValueError("length mismatch")
        return other.contains_rows(self.gen)

    # -- duals and hulls ---------------------------------------------------

    def parity_rows(self) -> np.ndarray:
        """A parity-check matrix read off the canonical generator.

        The generator is [I | A] up to column order, so the rows of
        [-A^T | I], with I at the non-pivot columns, span the Euclidean dual.
        Equal to ``nullspace(field, gen)``, with no elimination.
        """
        return _kernel_of_rref(self.field, self.gen, self._pivots())

    def hermitian_dual(self) -> "LinearCode":
        """C-perp-H = conj(C-perp): the conjugated parity rows span it."""
        F = self.field
        return LinearCode.from_rows(F, conjugate(F, self.parity_rows()),
                                    n=self.n)

    def hermitian_hull(self) -> "LinearCode":
        """Hull = C intersect C-perp-H: the kernel of the stacked parity
        system [P; conj(G)], mapped back to the natural coordinates and
        canonicalised.

        P = [-A^T | I] are the parity rows, whose identity sits on the
        code's free (non-pivot) columns (x in C <=> P x = 0), and conj(G)
        x = 0 <=> x in C-perp-H.  With the free columns first, the system
        opens with an identity block of n - k columns that is already
        reduced, and ``rref`` clears it from the k rows of conj(G) in one
        reduction (the fill-reducing order of Markowitz 1957).  Elimination
        only: no Gram matrix or product is taken, so the hull stays
        independent of the Gram rank.
        """
        F, pivots = self.field, self._pivots()
        order = np.concatenate([_free_columns(self.n, pivots), pivots])
        system = np.vstack([self.parity_rows(), conjugate(F, self.gen)])
        kernel = nullspace(F, system[:, order])
        return LinearCode.from_rows(F, kernel[:, np.argsort(order)], n=self.n)

    # -- derived codes -----------------------------------------------------

    def puncture(self, coords: Iterable[int]) -> "LinearCode":
        S = sorted(set(int(i) for i in coords))
        if S and (S[0] < 0 or S[-1] >= self.n):
            raise IndexError("puncture coordinate out of range")
        keep = [i for i in range(self.n) if i not in set(S)]
        return LinearCode.from_rows(self.field, self.gen[:, keep], n=len(keep))

    def monomial_scale(self, a: Sequence[int]) -> "LinearCode":
        a = np.array(a, dtype=np.int32)
        if a.shape != (self.n,):
            raise ValueError("scaling vector length mismatch")
        if np.any(a == 0):
            raise ValueError("scaling vector has a zero entry")
        F = self.field
        return LinearCode.from_rows(F, F.mul_arr(self.gen, a[None, :]), n=self.n)

    def extend_sum_zero(self) -> "LinearCode":
        """Append one coordinate making every codeword sum to zero."""
        F = self.field
        if self.k == 0:
            return LinearCode.zero(F, self.n + 1)
        sums = mat_mul(F, self.gen, np.ones((self.n, 1), dtype=np.int32))
        ext = np.hstack([self.gen, F.neg_arr(sums)])
        return LinearCode.from_rows(F, ext, n=self.n + 1)

    # -- metric --------------------------------------------------------------

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact minimum weight by projective enumeration, line by line.

        Every codeword up to scaling is counted: the last generator row r
        and the (order^(k-1) - 1)/(order - 1) normalised prefixes s of the
        other rows, each with its whole line s + y r of order codewords in
        one count (see ``_enumerate_min_weight``).  The budget still counts
        the full message space: BudgetExceededError is raised when order^k
        exceeds it, and callers then fall back to structural arguments.
        """
        if self._d is not None:
            return self._d
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        self._d = _enumerate_min_weight(self.field, self.gen, budget)
        return self._d

    def cached_distance(self) -> Optional[int]:
        return self._d

    def set_structural_distance(self, d: int):
        """Record a distance certified by structure rather than enumeration."""
        self._d = int(d)


def _row_multiples(F: FieldContext, row: np.ndarray) -> np.ndarray:
    """(order, n) table of all scalar multiples of one generator row."""
    lams = np.arange(F.order, dtype=np.int32)
    return F.mul_arr(lams[:, None], row[None, :])


def _enumerate_blocks(F: FieldContext, gen: np.ndarray, offset: np.ndarray):
    """Yield blocks of vectors covering offset + span(gen) exactly once.

    The trailing rows of gen are expanded into one table of at most
    _BLOCK_CODEWORDS vectors; each block is that table shifted by one
    combination of the leading rows.
    """
    k, n = gen.shape
    order = F.order
    s = 0
    size = 1
    while s < k and size * order <= _BLOCK_CODEWORDS:
        size *= order
        s += 1
    suffix = offset[None, :]
    for r in range(k - s, k):
        tab = _row_multiples(F, gen[r])
        suffix = F.add_arr(suffix[:, None, :], tab[None, :, :]).reshape(-1, n)
    prefix_rows = [_row_multiples(F, gen[r]) for r in range(k - s)]
    if not prefix_rows:
        yield suffix
        return
    idx = [0] * len(prefix_rows)
    partial = [np.zeros(n, dtype=np.int32)]
    for t, tab in enumerate(prefix_rows):
        partial.append(F.add_arr(partial[-1], tab[0]))
    while True:
        yield F.add_arr(suffix, partial[-1][None, :])
        d = len(idx) - 1
        while d >= 0 and idx[d] == order - 1:
            idx[d] = 0
            d -= 1
        if d < 0:
            return
        idx[d] += 1
        partial[d + 1] = F.add_arr(partial[d], prefix_rows[d][idx[d]])
        for t in range(d + 1, len(idx)):
            partial[t + 1] = F.add_arr(partial[t], prefix_rows[t][idx[t]])


def _projective_blocks(F: FieldContext, gen: np.ndarray):
    """Yield blocks covering each nonzero codeword up to scaling exactly once.

    The messages visited are those whose first nonzero coordinate is 1:
    for each row i, the codewords gen[i] + span(gen[i+1:]).  That is
    (order^k - 1)/(order - 1) codewords; every other nonzero codeword is
    a nonzero multiple of one of them and has the same weight.
    """
    for i in range(gen.shape[0]):
        yield from _enumerate_blocks(F, gen[i + 1:], offset=gen[i])


def _enumerate_min_weight(F: FieldContext, gen: np.ndarray, budget: int) -> int:
    """Exact minimum weight of the row space of gen, one line at a time.

    With r = gen[-1], every normalised message is (0, ..., 0, 1), giving r,
    or (m', y) with m' a normalised message of gen[:-1] and y free.  On the
    line s + y r of a prefix codeword s, position j is zero for exactly one
    y, namely -s_j / r_j, where r_j != 0, and for every y where r_j = s_j =
    0.  So the most zeros on the line is #{j : r_j = s_j = 0} plus the
    largest multiplicity among the values -s_j / r_j: one ``mul_arr`` and
    one row-offset bincount of at most _BLOCK_CODEWORDS cells per chunk of
    prefixes.
    """
    k, n = gen.shape
    # the budget counts the full message space, not the projective part
    # walked, so the same codes pass this gate as under a full sweep
    if F.order ** k > budget:
        raise BudgetExceededError(
            f"enumerating {F.order}^{k} codewords exceeds budget {budget}")
    order = F.order
    r = gen[-1]
    nz = r != 0
    off = ~nz
    scale = F.neg_arr(F.inv_arr(r[nz]))[None, :]
    step = max(1, _BLOCK_CODEWORDS // order)
    best = int(np.count_nonzero(r))
    for block in _projective_blocks(F, gen[:-1]):
        for i in range(0, block.shape[0], step):
            S = block[i:i + step]
            both_zero = np.count_nonzero(S[:, off] == 0, axis=1)
            roots = F.mul_arr(S[:, nz], scale)
            roots += order * np.arange(S.shape[0], dtype=np.int32)[:, None]
            mult = np.bincount(roots.ravel(), minlength=S.shape[0] * order)
            zeros = both_zero + mult.reshape(-1, order).max(axis=1)
            best = min(best, n - int(zeros.max()))
            if best == 1:
                return best
    return best
