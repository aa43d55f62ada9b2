"""Generalized Reed-Solomon codes over GF(q^2) and the explicit families
whose Hermitian hulls equal, or contain, MDS codes.

Family tags:

* CON1:  full-length code of dimension q; hull is the dimension-(q-1)
  code on the same vectors.
* CON2:  length q^2-1, 1 < k < q, power-scaled columns; hull dimension k-1.
* CON3:  length q^2 - s(q+1) with s = gcd(k-1, q-1); one appended
  zero-evaluation coordinate whose scale solves a^(q+1) = -1.
* CON4:  length (q+1)(q-1-s) with s = gcd(m-k+1, q-1), no appended
  coordinate.
* CON1E..CON4E: the same four vector recipes with the dimension enlarged
  to zq <= k, giving hulls of dimension k - z^2, k - 2z^2 or k - z^2 - zf
  that contain the original MDS subcode.  The last, CON3E with f < z, is
  refuted by the Gram rank on full-grid instances from q = 7 on; those
  reports FAIL, and no quantum table row is read off them.

Every builder returns a claim object, whose code is built only on first
use; ``verify_claim`` checks the claim by exact linear algebra (Gram rank
always; hull intersection and distance enumeration within budget) and
reports per-property verdicts.  It verifies the two-point codes of ``ag``
too, which are GRS pairs (Fang, Fu, Li and Zhu, IEEE T-IT 66(6), 2020;
Luo, Cao and Chen, IEEE T-IT 65(5), 2019).

The scaling vectors of CON4 and CON4E are taken from the codeword algebra
(entry values alpha^{-l(k-1)(q+1)} - alpha^{-l m (q+1)}); collapsing
them to the single-term CON3-style value can produce a zero scale in
range and breaks the membership identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import cyclic, quantum
from .gf import FieldContext, prime_factors, quadratic_field
# matrix_rank is not read here; the perfbench tracer lists grs.matrix_rank,
# as it lists grs.gram_matrix and grs.mat_mul, by name
from .linalg_codes import (_MAT_MUL_CHUNK, DEFAULT_BUDGET,
                           DEFAULT_DISTANCE_BUDGET, LinearCode,
                           _enumerate_min_weight, conjugate, gram_matrix,
                           mat_mul, matrix_rank, rank_profile)
from .report import (STATUS_FAIL, STATUS_PASS, STATUS_SKIPPED,
                     STATUS_STRUCTURAL, ConstructionReport)

FAMILIES = ("CON1", "CON2", "CON3", "CON4", "CON1E", "CON2E", "CON3E", "CON4E")

#: evaluation vectors kept by each of the memos ``_check_vector``,
#: ``_evaluation_vector`` and ``_vector_table``
_VECTOR_CACHE = 16


@functools.lru_cache(maxsize=_VECTOR_CACHE)
def _check_vector(F: FieldContext, b: tuple, a: tuple) -> None:
    """Raise ValueError unless b holds distinct field elements and a nonzero
    ones, of one length.  Memoised: the instances of a family share b, a."""
    if len(b) != len(a):
        raise ValueError("b and a must have equal length")
    if len(set(b)) != len(b):
        raise ValueError("evaluation points must be distinct")
    if 0 in a:
        raise ValueError("scaling entries must be nonzero")
    if b and not (0 <= min(min(b), min(a)) and
                  max(max(b), max(a)) < F.order):
        raise ValueError(f"entries must be field elements in [0, {F.order})")


@dataclass(frozen=True)
class GrsSpec:
    """Defining data (b, a, k) of a GRS code; b distinct, a nonzero."""

    field: FieldContext
    b: tuple[int, ...]
    a: tuple[int, ...]
    k: int

    def __post_init__(self):
        _check_vector(self.field, tuple(self.b), tuple(self.a))
        if not 0 <= self.k <= len(self.b):
            raise ValueError("dimension out of range")

    @property
    def n(self) -> int:
        return len(self.b)

    def generator(self) -> np.ndarray:
        """The natural k x n generator: row i is (a_j b_j^i)_j, with 0^0 = 1.

        One log-domain power table: entry (i, j) is zexp[i log b_j mod
        (order - 1) + log a_j], and 0^i for i >= 1 points into the zero
        tail of ``zexp``.
        """
        return self._rows(np.arange(self.k, dtype=np.int64))

    def _rows(self, i: np.ndarray) -> np.ndarray:
        """Rows (a_j b_j^i)_j of the natural generator at the exponents i."""
        F = self.field
        n1 = F.order - 1
        lb = F.log[np.asarray(self.b, dtype=np.int64)]
        e = (i[:, None] * lb) % n1 + F.log[np.asarray(self.a, dtype=np.int64)]
        e[(i > 0)[:, None] & (lb < 0)[None, :]] = 2 * n1
        return F.zexp[e]

    def systematic(self) -> np.ndarray:
        """The canonical RREF [I | A] of ``generator()``, with no elimination.

        A GRS code is MDS, so its pivots are columns 0..k-1 and
        A[i, j] = (a_j / a_i) prod_{l < k, l != i} (b_j - b_l) / (b_i - b_l),
        a generalized Cauchy matrix (Roth and Seroussi, IEEE T-IT 31(6),
        1985).  Its logs are sums over the k x n log-difference table
        ld[l, j] = log(b_j - b_l) of the vector (see ``_VectorTable``): the
        numerator of row i is the prefix sum cum[k, j] less ld[i, j], and
        the denominator D_i = prod_{l != i} (b_i - b_l) is cum[k, i], as in
        ``ag._hprime``.
        """
        F, k, n = self.field, self.k, self.n
        T = _vector_table(F, tuple(self.b), tuple(self.a))
        ld, col = T.cauchy(k)
        la = T.la + col
        out = np.zeros((k, n), dtype=np.int32)
        out[:, :k] = np.eye(k, dtype=np.int32)
        out[:, k:] = F.exp[(la[None, k:] - ld[:, k:] - la[:k, None])
                           % (F.order - 1)]
        return out

    def code(self) -> LinearCode:
        """The code held in its closed-form canonical form.

        Rows 0 and k - 1 of ``generator()`` are checked to lie in it: a
        single wrong entry A[i, j] moves the combination that gives row 0
        at column j by a_i times the error.
        """
        c = LinearCode(self.field, self.n, self.systematic())
        if self.k and not c.contains_rows(
                self._rows(np.array([0, self.k - 1]))):
            raise RuntimeError("closed-form systematic generator does not "
                               "span the GRS generator rows")
        c.set_structural_distance(self.n - self.k + 1)
        return c


class _VectorTable:
    """The work GRS_k(b, a) shares across k, for one vector (field, b, a).

    Row i of the natural generator does not depend on k, so the Gram matrix
    of GRS_k(b, a) is the leading k x k block of that of GRS_K(b, a) for
    K >= k (the power-sum view of Fang, Fu, Li and Zhu, IEEE T-IT 66(6),
    2020), and the Cauchy form of ``GrsSpec.systematic`` at k reads row k of
    one prefix-sum table.  Each table is held, read-only, for the largest k
    asked so far, and rebuilt when a larger k is asked for:

    * ``gram``: the Gram matrix of ``natural_gram``, and ``pivots``, the
      ``rank_profile`` of the largest one ranked so far: the rank of each
      leading block is the number of pivots inside it;
    * ``ld[l, j] = log(b_j - b_l)`` for l < K, with 0 = log 1 on the
      diagonal, and its prefix sums ``cum[k, j] = sum_{l < k} ld[l, j]``
      mod (order - 1) for k <= K.

    In characteristic 2 the Gram entries are the power sums S[t] = sum_j
    N_j b_j^t over the nonzero points, N_j = a_j^(q+1), t in Z/(q^2 - 1):
    all of them at once, on the first Gram build, as one DFT over
    GF(q^2)^* (``_power_sums``).  ``zero_norm`` is N_j of a zero point.
    """

    def __init__(self, F: FieldContext, b: tuple, a: tuple):
        n = len(b)
        self.field, self.b, self.a = F, b, a
        # holds a product or a sum of up to ``order`` logs; int32 where that
        # fits, as an int64 modulo measured about 4 times slower
        self.dtype = np.int32 if F.order ** 2 < 2 ** 31 else np.int64
        self.la = F.log[np.asarray(a, dtype=np.int64)]
        self.gram = _read_only(np.zeros((0, 0), dtype=np.int32))
        self.pivots, self.profiled = np.zeros((0, 2), dtype=np.int64), 0
        self.ld = _read_only(np.zeros((0, n), dtype=np.int32))
        self.cum = _read_only(np.zeros((1, n), dtype=np.int32))
        if F.p == 2:
            b = np.asarray(b, dtype=np.int64)
            lnorm = self.la * (F.q + 1) % (F.order - 1)
            nz = b != 0
            self.lb, self.ln = F.log[b[nz]], lnorm[nz]
            self.zero_norm = 0 if nz.all() else int(F.exp[lnorm[~nz][0]])

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """S[t] for every t in Z/(q^2 - 1), characteristic 2 only."""
        return _read_only(_power_sums(self.field, self.lb, self.ln))

    def gram_block(self, k: int) -> np.ndarray:
        """The k x k Gram matrix of GRS_k(b, a), a read-only view."""
        if k > len(self.gram):
            F = self.field
            if F.p == 2:
                i = np.arange(k, dtype=self.dtype)
                g = self.sums[(i[:, None] + F.q * i[None, :])
                              % (F.order - 1)]
                g[0, 0] ^= self.zero_norm
            else:
                g = gram_matrix(F, GrsSpec(F, self.b, self.a, k).generator())
            self.gram = _read_only(g)
        return self.gram[:k, :k]

    def gram_rank(self, k: int) -> int:
        """The rank of ``gram_block(k)``: the pivots of ``pivots`` inside
        [:k, :k], profiled again only when k exceeds the profiled size."""
        if k > self.profiled:
            self.gram_block(k)
            self.pivots = rank_profile(self.field, self.gram)
            self.profiled = len(self.gram)
        return int(np.count_nonzero(self.pivots.max(axis=1) < k))

    def cauchy(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ld[:k], cum[k]), read-only views; the vanishing-difference check
        runs on the whole table, and so covers every smaller k."""
        if k > len(self.ld):
            F, n1 = self.field, self.field.order - 1
            b = np.asarray(self.b, dtype=np.int32)
            d = F.add_arr(b[None, :], F.neg_arr(b[:k])[:, None])
            np.fill_diagonal(d, 1)
            if not d.all():
                raise RuntimeError("a GRS point difference b_j - b_l (l < k) "
                                   "vanishes; the Vandermonde block is "
                                   "singular")
            ld = F.log[d]
            cum = np.zeros((k + 1, len(b)), dtype=np.int32)
            cum[1:] = np.cumsum(ld, axis=0, dtype=self.dtype) % n1
            self.ld, self.cum = _read_only(ld), _read_only(cum)
        return self.ld[:k], self.cum[k]


def _read_only(M: np.ndarray) -> np.ndarray:
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=_VECTOR_CACHE)
def _vector_table(F: FieldContext, b: tuple, a: tuple) -> _VectorTable:
    return _VectorTable(F, b, a)


@functools.lru_cache(maxsize=_VECTOR_CACHE)
def _dft_plan(n1: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The Good-Thomas index maps of a length-n1 DFT (Good 1958; Thomas
    1963): (stages, spread, gather).

    n1 splits into pairwise coprime prime powers N_1 < ... < N_r.  With
    e = sum_i (n1/N_i) e_i mod n1 on the input side (``spread``, in C
    order of (e_1, ..., e_r)) and t_i = t mod N_i on the output side
    (``gather``), w^(e t) = prod_i w^((n1/N_i) e_i t_i) for every root
    w of order n1, so the DFT is one N_i-point DFT along each axis.  Stage
    i is (N_i, log kernel (n1/N_i) e t mod n1 for e, t < N_i).
    """
    factors = []
    for p in prime_factors(n1):
        N = p
        while n1 % (N * p) == 0:
            N *= p
        factors.append(N)
    stages, spread, gather, stride = [], np.zeros(1, dtype=np.int64), 0, 1
    t = np.arange(n1)
    for N in reversed(factors):
        e = np.arange(N)
        stages.append((N, (n1 // N) * np.outer(e, e) % n1))
        spread = (((n1 // N) * e)[:, None] + spread[None, :]).ravel() % n1
        gather = gather + (t % N) * stride
        stride *= N
    return stages[::-1], spread, gather


def _power_sums(F: FieldContext, lb: np.ndarray, ln: np.ndarray
                ) -> np.ndarray:
    """S[t] = sum_j exp(ln_j) exp(lb_j t) for every t in Z/(order - 1),
    characteristic 2: the DFT over GF(order)^* of the vector c, c[lb_j] =
    exp(ln_j), by the prime-factor algorithm of ``_dft_plan``.

    Each stage is in the log domain: the transform along the first axis is
    an XOR reduction of zexp[log x + kernel], in row chunks of at most
    about _MAT_MUL_CHUNK cells, and it moves that axis last, so after the
    r stages the axes are back in order.  That is sum_i N_i lookups per
    exponent instead of one per point, with no modulo per element.
    """
    n1 = F.order - 1
    stages, spread, gather = _dft_plan(n1)
    c = np.zeros(n1, dtype=F.zexp.dtype)
    c[lb] = F.exp[ln]
    x = c[spread]
    for N, kernel in stages:
        L = F.zlog[x.reshape(N, -1).T]
        x = np.empty((len(L), N), dtype=F.zexp.dtype)
        step = max(1, _MAT_MUL_CHUNK // (N * N))
        for r in range(0, len(L), step):
            x[r:r + step] = np.bitwise_xor.reduce(
                np.take(F.zexp, L[r:r + step, :, None] + kernel), axis=1)
        x = x.ravel()
    return x[gather]


def natural_gram(spec: GrsSpec) -> np.ndarray:
    """The Hermitian Gram matrix of ``spec.generator()``, read-only.

    Entry (i, l) is sum_j N_j b_j^(i + q l) with N_j = a_j^(q+1): in
    characteristic 2, a power sum S[t] at t = (i + q l) mod (q^2 - 1) over
    the nonzero points, plus N_j at (0, 0) for a zero point; the vector's
    first Gram build takes every S[t] by one prime-factor DFT
    (``_power_sums``).  Odd characteristic keeps the digit product of
    ``gram_matrix``: the same DFT, its XOR reductions replaced by
    ``add_arr`` folds, measured slower there (about 170 against 155 us per
    table build at q = 11), and the perfbench tracer wraps
    ``grs.gram_matrix`` and ``grs.mat_mul`` by name.  Either way the matrix
    is the leading block of the one held per (field, b, a) for the last
    _VECTOR_CACHE evaluation vectors (``_VectorTable``).
    """
    return _vector_table(spec.field, tuple(spec.b),
                         tuple(spec.a)).gram_block(spec.k)


def gram_rank(spec: GrsSpec) -> int:
    """The rank of ``natural_gram(spec)``, counted in the rank profile
    that the vector's table holds for its largest Gram matrix, so the
    instances of one vector share one elimination."""
    return _vector_table(spec.field, tuple(spec.b),
                         tuple(spec.a)).gram_rank(spec.k)


@dataclass
class GrsHullClaim:
    """GRS code ``spec`` claimed to have a hull of dimension ``hull_dim``
    holding the GRS code ``subcode`` (equal to it when the dimensions
    agree), and perhaps a Hermitian self-orthogonal GRS code.  ``fault``
    None takes the prefix route (the subcode is a prefix GRS_t of the
    spec); a string takes the route of a two-point set's certificate
    (``ag._pair_certificate``) and holds its fault, "" if none.  ``code``
    is built in closed form on first use."""

    family: str
    q: int
    params: dict
    module: str
    spec: GrsSpec
    hull_dim: int
    subcode: GrsSpec
    fault: Optional[str]
    self_orthogonal: Optional[GrsSpec]
    conservative_range: bool  # inside the conservative z-bounds
    z1_subcode_dim: Optional[int]  # the z = 1 closed form (q-1 resp. q-f-1)

    @functools.cached_property
    def code(self) -> LinearCode:
        return self.spec.code()


# ----------------------------------------------------------------------
# family arithmetic (no field work): lengths, hull dimensions, ranges
# ----------------------------------------------------------------------

def _require(cond: bool, family: str, msg: str):
    if not cond:
        raise ValueError(f"{family} requires {msg}")


#: the z that ``claim_arithmetic`` admits for CON4E, and the grid visits:
#: the two-offset Gram analysis only survives at z = 1; at z = 2 the
#: measured rank is 6, not 2z^2 = 8 (e.g. q = 11, f = 2, m = 9, k = 22,
#: inside every conservative bound)
_CON4E_Z = range(1, 2)


def claim_arithmetic(family: str, q: int, k: Optional[int] = None,
                     z: Optional[int] = None, f: Optional[int] = None,
                     m: Optional[int] = None) -> dict:
    """Length, hull dimension and subcode dimension of a family instance.

    Validates the constraints the membership/rank arguments actually use; the
    narrower conservative z-bounds are reported separately.
    """
    if family == "CON1":
        k = q if k is None else k
        _require(k == q, family, "k = q")
        out = dict(n=q * q, k=k, hull_dim=q - 1, subcode_dim=q - 1, s=None)
    elif family == "CON2":
        _require(k is not None and 1 < k < q, family, "1 < k < q")
        out = dict(n=q * q - 1, k=k, hull_dim=k - 1, subcode_dim=k - 1, s=None)
    elif family == "CON3":
        _require(k is not None and 1 <= k < q, family, "1 <= k < q")
        s = math.gcd(k - 1, q - 1)
        out = dict(n=q * q - s * (q + 1), k=k, hull_dim=k - 1,
                   subcode_dim=k - 1, s=s)
    elif family == "CON4":
        _require(k is not None and m is not None, family, "both k and m")
        _require(k - 1 < m < q - 1, family, "k-1 < m < q-1")
        _require(k >= 1, family, "k >= 1")
        s = math.gcd(m - k + 1, q - 1)
        out = dict(n=(q + 1) * (q - 1 - s), k=k, hull_dim=k - 1,
                   subcode_dim=k - 1, s=s)
    elif family == "CON1E":
        _require(z is not None and z >= 1, family, "z >= 1")
        _require(k is not None and z * q <= k < (z + 1) * q - z - 1, family,
                 "zq <= k < (z+1)q - z - 1")
        # q - z is the largest valid prefix subcode; the z = 1 closed form
        # q - 1 fails beyond z = 1 (row q - z of the Gram matrix is nonzero)
        out = dict(n=q * q, k=k, hull_dim=k - z * z, subcode_dim=q - z,
                   z1_subcode_dim=q - 1, s=None)
    elif family in ("CON2E", "CON3E", "CON4E"):
        _require(z is not None and f is not None and z >= 1 and f >= 1,
                 family, "z >= 1 and f >= 1")
        _require(z + f + 1 < q, family, "z + f + 1 < q")
        _require(k is not None and z * q <= k < (z + 1) * q - z - f - 1,
                 family, "zq <= k < (z+1)q - z - f - 1")
        if family == "CON2E":
            n, s = q * q - 1, None
            hull = k - z * z
        else:
            if family == "CON3E":
                s = math.gcd(q - f - 1, q - 1)
                n = q * q - s * (q + 1)
            else:
                _require(m is not None and q - f - 1 < m < q - 1, family,
                         "q-f-1 < m < q-1")
                _require(z in _CON4E_Z, family, "z = 1; the rank formulas "
                         "are refuted computationally for z >= 2")
                s = math.gcd(m - q + f + 1, q - 1)
                n = (q + 1) * (q - 1 - s)
            hull = k - 2 * z * z if f >= z else k - z * z - z * f
        # q - z - f is the largest valid prefix subcode (reduces to the
        # z = 1 closed form q - f - 1)
        sub = q - z - f
        _require(hull >= sub, family, "hull dimension >= subcode dimension")
        out = dict(n=n, k=k, hull_dim=hull, subcode_dim=sub,
                   z1_subcode_dim=q - f - 1, s=s)
    else:
        raise ValueError(f"unknown family {family!r}")
    out.setdefault("z1_subcode_dim", out["subcode_dim"])
    _require(out["k"] <= out["n"], family, "k <= n")
    _require(out["hull_dim"] >= 0, family, "a nonnegative hull dimension")
    return out


def in_conservative_range(family: str, q: int, params: dict,
                          info: dict) -> bool:
    """Is z below the tighter bound that keeps every derived quantum
    distance inside the n/2 regime?  The rank analysis itself allows more.
    ``info`` is ``claim_arithmetic`` of the instance, for its length n."""
    if family == "CON1E":
        return params["z"] < q // 2
    if family in ("CON2E", "CON3E", "CON4E"):
        return params["z"] < info["n"] // (2 * q)
    return True


def family_parameter_grid(family: str, q: int,
                          conservative: bool = True) -> list[dict]:
    """All in-range parameter dicts of a family at a given q.

    With ``conservative`` the tighter z-bounds are enforced; otherwise
    the full verified ranges are used (needed by the parameter tables).
    """
    out: list[dict] = []

    def push(params: dict):
        try:
            info = claim_arithmetic(family, q, **params)
        except ValueError:
            return
        if conservative and not in_conservative_range(family, q, params, info):
            return
        out.append(params)

    if family == "CON1":
        push({"k": q})
    elif family == "CON2":
        for k in range(2, q):
            push({"k": k})
    elif family == "CON3":
        for k in range(1, q):
            push({"k": k})
    elif family == "CON4":
        for k in range(1, q - 1):
            for m in range(k, q - 1):
                push({"k": k, "m": m})
    elif family == "CON1E":
        for z in range(1, q - 1):
            for k in range(z * q, (z + 1) * q - z - 1):
                push({"z": z, "k": k})
    elif family in ("CON2E", "CON3E"):
        for z in range(1, q - 1):
            for f in range(1, q - z - 1):
                for k in range(z * q, (z + 1) * q - z - f - 1):
                    push({"z": z, "f": f, "k": k})
    elif family == "CON4E":
        for z in _CON4E_Z:
            for f in range(1, q - z - 1):
                for m in range(q - f, q - 1):
                    for k in range(z * q, (z + 1) * q - z - f - 1):
                        push({"z": z, "f": f, "m": m, "k": k})
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def _coset_exponents(q: int, s: int) -> np.ndarray:
    """{i + j(q-1)/s : i in [1, (q-1)/s - 1], j in [0, (q+1)s - 1]}, sorted.

    Exactly the exponents l in [0, q^2-2] with l not divisible by (q-1)/s.
    """
    return np.flatnonzero(np.arange(q * q - 1) % ((q - 1) // s))


def _recipe(family: str, q: int, params: dict) -> tuple:
    """(kind, e, m): what fixes a family's evaluation vector (b, a).

    ``kind`` is the recipe digit of the tag (CON1 and CON1E share "1"),
    e the exponent of the scaling vector (k - 1 in CON2-CON4, q - f - 1 in
    CON2E-CON4E; none in CON1) and m the second offset of CON4 and CON4E.
    The coset index s of CON3 and CON4 is a function of these.
    """
    kind = family[3]
    if kind == "1":
        return kind, None, None
    e = q - params["f"] - 1 if family.endswith("E") else params["k"] - 1
    return kind, e, params.get("m")


@functools.lru_cache(maxsize=_VECTOR_CACHE)
def _evaluation_vector(F2: FieldContext, q: int, kind: str, e: Optional[int],
                       m: Optional[int], s: Optional[int]) -> tuple[tuple, tuple]:
    """The points b and column multipliers a of a recipe (see ``_recipe``)
    over F2, as tuples; s is the coset index of ``claim_arithmetic``."""
    N = q * q - 1
    if kind == "1":
        b = np.append(F2.exp, 0)
        a = np.ones(q * q, dtype=np.int32)
    elif kind == "2":
        b = F2.exp
        a = F2.exp[-np.arange(N) * e % N]
    else:
        B = _coset_exponents(q, s)
        b = F2.exp[B]
        # CON3: a^(q+1) = alpha^{-l e (q+1)} - 1 at the coset points and -1
        # at the appended zero; CON4: alpha^{-l e (q+1)} - alpha^{-l m (q+1)}
        second = (np.ones_like(B) if kind == "3"
                  else F2.exp[-B * m * (q + 1) % N])
        a = F2.solve_norm_arr(F2.add_arr(F2.exp[-B * e * (q + 1) % N],
                                         F2.neg_arr(second)))
        if kind == "3":
            b = np.append(b, 0)
            a = np.append(a, F2.solve_norm(F2.neg(1)))
    return tuple(b.tolist()), tuple(a.tolist())


def construct_family(family: str, q: int, field: Optional[FieldContext] = None,
                     **params) -> GrsHullClaim:
    """Build the hull claim of a family instance; no code is built.

    Accepts the full verified parameter ranges; ``claim.conservative_range``
    records whether the instance also satisfies the tighter z-bounds.
    ``field`` overrides the default GF(q^2) context (it must still be a
    quadratic extension of the right size).  The evaluation vector comes
    from a memo keyed on the recipe, so the instances of one vector share
    it, and with it the tables of ``_vector_table``.
    """
    info = claim_arithmetic(family, q, **params)
    F2 = quadratic_field(q, field)
    b, a = _evaluation_vector(F2, q, *_recipe(family, q, params), info["s"])
    spec = GrsSpec(F2, b, a, info["k"])
    if spec.n != info["n"]:
        raise RuntimeError(f"family {family} built length {spec.n}, "
                           f"not {info['n']}")
    return GrsHullClaim(
        family=family, q=q, module="grs",
        params=dict(params) | ({"s": info["s"]} if info["s"] is not None else {}),
        spec=spec, hull_dim=info["hull_dim"],
        subcode=GrsSpec(F2, b, a, info["subcode_dim"]), fault=None,
        self_orthogonal=None,
        conservative_range=in_conservative_range(family, q, params, info),
        z1_subcode_dim=info["z1_subcode_dim"])


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

#: every check name ``verify_claim`` emits, in the order it emits them
CHECKS = ("code_mds", "hull_dim_gram", "max_prefix_subcode_dim",
          "hull_dim_intersection", "subcode_in_hull", "hull_equality",
          "hull_mds", "self_orthogonal_subcode")

#: the distance kind of a report's code or hull, per status of its check
_D_KIND = {STATUS_PASS: "enumerated", STATUS_FAIL: "failed",
           STATUS_STRUCTURAL: "structural"}


def _hermitian_orthogonal_to(code: LinearCode, rows: np.ndarray) -> bool:
    """Are all given rows Hermitian-orthogonal to every codeword of code?"""
    F = code.field
    prods = mat_mul(F, code.gen, conjugate(F, rows).T)
    return not prods.any()


def _mds(spec: GrsSpec, budget: int, fault: str,
         proof: str) -> tuple[str, Optional[int], str]:
    """(status, measured distance, note) of the check that the GRS code
    ``spec`` has distance n - k + 1: FAIL on a ``fault`` of its proof,
    enumerated on ``spec.generator()`` when order^k is within ``budget``
    (a rank deficit shows as a zero codeword), else structural by
    ``proof``."""
    if fault:
        return STATUS_FAIL, None, fault
    if spec.field.order ** spec.k > budget:
        return STATUS_STRUCTURAL, None, proof
    d = _enumerate_min_weight(spec.field, spec.generator(), budget)
    ok = d == spec.n - spec.k + 1
    return (STATUS_PASS if ok else STATUS_FAIL), d, "enumerated"


def verify_claim(claim: GrsHullClaim, budget: int = DEFAULT_BUDGET,
                 distance_budget: int = DEFAULT_DISTANCE_BUDGET
                 ) -> ConstructionReport:
    """Check a hull claim with exact linear algebra, emitting the checks
    of ``CHECKS``; a mismatch is a failed check, never an exception.

    Every Gram-shaped quantity comes from the one ``natural_gram`` of the
    spec: its rank, counted by ``gram_rank`` in the rank profile its
    vector's table holds, gives ``hull_dim_gram`` and, on the prefix
    route, its first nonzero row ``max_prefix_subcode_dim``.  There
    ``subcode_in_hull`` passes when the subcode is the prefix GRS_t(b, c)
    of the spec (same field, b and c, t <= k, hence inside the code) and
    Gram rows 0..t-1 vanish; on the certificate route, when the
    certificate, its own second method, has no fault.  Only the prefix
    route's ``hull_dim_intersection``, within ``budget``, builds the code.
    """
    spec, sub, fault = claim.spec, claim.subcode, claim.fault
    F, n, k = spec.field, spec.n, spec.k
    rep = ConstructionReport(
        construction={"module": claim.module, "family": claim.family,
                      "parameters": {"q": claim.q} | claim.params},
        field=F.describe())

    status, d, note = _mds(spec, distance_budget, fault,
                           f"GRS_{k} codes are MDS by construction")
    rep.check("code_mds", status, n - k + 1, d, note)
    d_code = n - k + 1 if status == STATUS_STRUCTURAL else d
    rep.code = {"n": n, "k": k, "d": d_code, "d_kind": _D_KIND[status]}

    gram = natural_gram(spec)
    gram_dim = k - gram_rank(spec)
    ok_gram = rep.check_eq("hull_dim_gram", claim.hull_dim, gram_dim)

    hull = None
    if fault is None:
        # largest t with the first t natural generator rows inside the
        # dual: exactly the first nonzero row of the Gram matrix
        nz_rows = np.nonzero(gram.any(axis=1))[0]
        max_prefix = int(nz_rows[0]) if nz_rows.size else k
        note = ""
        if claim.z1_subcode_dim not in (None, sub.k):
            note = (f"the z = 1 closed form {claim.z1_subcode_dim} "
                    "is not attained at this z")
        rep.check_eq("max_prefix_subcode_dim", sub.k, max_prefix, note=note)
        if F.order ** k <= budget:
            hull = claim.code.hermitian_hull()
            rep.check_eq("hull_dim_intersection", claim.hull_dim, hull.k)
        else:
            rep.check("hull_dim_intersection", STATUS_SKIPPED,
                      note=f"{F.order}^{k} parity solve skipped over "
                           f"budget {budget}")
        # natural rows 0..t-1 of the spec: in the code, orthogonal iff
        # the first t Gram rows vanish
        contained = (sub.field is F and tuple(sub.b) == tuple(spec.b)
                     and tuple(sub.a) == tuple(spec.a) and sub.k <= k
                     and max_prefix >= sub.k)
        note = "rows lie in the code and are Hermitian-orthogonal to it"
    else:
        contained, note = not fault, fault or "the GRS-pair certificate"
    rep.check("subcode_in_hull", STATUS_PASS if contained else STATUS_FAIL,
              expected=True, measured=contained, note=note)

    mds, equal = "n/a", claim.hull_dim == sub.k
    if equal:
        if hull is not None:
            eq = hull == sub.code()
            note = "canonical-form equality"
        else:
            eq = ok_gram and contained
            note = ("derived: Gram rank matches subcode dimension and the "
                    "subcode lies in the hull")
        rep.check("hull_equality", STATUS_PASS if eq else STATUS_FAIL,
                  expected=True, measured=eq, note=note)
        if sub.k:
            status, d, note = _mds(
                sub, distance_budget,
                fault or ("" if eq else f"the hull is not GRS_{sub.k}"),
                f"the hull is a GRS_{sub.k} code, hence MDS")
            rep.check("hull_mds", status, n - sub.k + 1, d, note)
            mds = _D_KIND[status]

    if claim.self_orthogonal is not None:
        so = not natural_gram(claim.self_orthogonal).any()
        rep.check("self_orthogonal_subcode",
                  STATUS_PASS if so else STATUS_FAIL,
                  expected=True, measured=so)

    rep.hull = {
        "dim_claimed": claim.hull_dim,
        "dim_gram": gram_dim,
        "dim_intersection": None if hull is None else hull.k,
        "subcode_dim": sub.k,
        "relation": "equal" if equal else "contained",
        "mds": mds,
    }
    if rep.verdict != "FAIL":
        rep.quantum = quantum.chain_to_json(claim.q, n, k, gram_dim)
    return rep


def largest_k_first(grid: list[dict], vector: Callable,
                    verifier: Callable) -> Iterator:
    """Verify every entry of ``grid`` (dicts holding a "k"), yielding the
    results in grid order.  Consecutive entries of one ``vector(entry)``
    form a run, verified by ``verifier(vector)`` largest k first, so its
    first instance fills the vector's tables for the rest."""
    for key, run in itertools.groupby(grid, key=vector):
        run, verify = list(run), verifier(key)
        out = [None] * len(run)
        for i in sorted(range(len(run)), key=lambda i: -run[i]["k"]):
            out[i] = verify(run[i])
        yield from out


def sweep(q: int, families=FAMILIES, budget: int = DEFAULT_BUDGET,
          distance_budget: int = DEFAULT_DISTANCE_BUDGET,
          conservative: bool = True) -> Iterator[tuple[GrsHullClaim, ConstructionReport]]:
    """Build and verify every in-range instance of the given families,
    yielding (claim, report) in grid order (``largest_k_first`` on the
    runs of one ``_recipe``)."""
    def verify(params):
        claim = construct_family(family, q, **params)
        return claim, verify_claim(claim, budget=budget,
                                   distance_budget=distance_budget)

    for family in families:
        yield from largest_k_first(
            family_parameter_grid(family, q, conservative=conservative),
            lambda params: _recipe(family, q, params), lambda _: verify)


# ----------------------------------------------------------------------
# the puncturing pipeline: weight-m codeword -> GRS pair with hull subcode
# ----------------------------------------------------------------------

def puncture_from_p_codeword(q: int, x: np.ndarray, k: int,
                             ell: int) -> tuple[GrsSpec, GrsSpec]:
    """From a weight-m vector of the extended cyclic code for (k, ell),
    build the punctured GRS pair (dimension k, dimension ell) whose second
    member lies in the Hermitian hull of the first.

    Entries of x must lie in GF(q) (inside GF(q^2)); the scaling vector
    solves a_j^(q+1) = x_j at the surviving coordinates.
    """
    if not 0 <= ell <= k <= q:
        raise ValueError("need 0 <= ell <= k <= q")
    F2 = quadratic_field(q)
    x = np.asarray(x, dtype=np.int32)
    if x.shape != (q * q,):
        raise ValueError(f"vector must have length {q * q}")
    if not all(F2.in_subfield(int(v)) for v in x):
        raise ValueError("vector entries must lie in GF(q)")
    nz = np.flatnonzero(x)
    m = len(nz)
    if m < k:
        raise ValueError(f"weight {m} below the target dimension {k}")
    H = cyclic.extended_parity_rows(q, cyclic.defining_set_dkl(q, k, ell))
    if not cyclic._annihilates(F2, H, x):
        raise ValueError("vector is not in the extended cyclic code "
                         f"for (k, ell) = ({k}, {ell})")
    b = tuple(np.append(F2.exp, 0)[nz].tolist())
    a = tuple(F2.solve_norm_arr(x[nz]).tolist())
    spec_k = GrsSpec(F2, b, a, k)
    spec_l = GrsSpec(F2, b, a, ell)
    code_k = spec_k.code()
    subrows = spec_l.generator()
    if not code_k.contains_rows(subrows):
        raise RuntimeError("punctured subcode is not contained in the code")
    if not _hermitian_orthogonal_to(code_k, subrows):
        raise RuntimeError("punctured subcode escaped the Hermitian hull")
    return spec_k, spec_l
