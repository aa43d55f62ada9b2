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

Every builder returns a claim object, which holds specs and no code;
``verify_claim`` checks the claim by exact linear algebra (the Gram rank
always; within budget, distance enumeration and the hull solved as the
left kernel of the closed-form generator's Gram matrix, a check still
named ``hull_dim_intersection``) and reports per-property verdicts.  It
verifies the two-point codes of ``ag`` too, which are GRS pairs (Fang,
Fu, Li and Zhu, IEEE T-IT 66(6), 2020; Luo, Cao and Chen, IEEE T-IT
65(5), 2019).

The scaling vectors of CON4 and CON4E are taken from the codeword algebra
(entry values alpha^{-l(k-1)(q+1)} - alpha^{-l m (q+1)}); collapsing
them to the single-term CON3-style value can produce a zero scale in
range and breaks the membership identity.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cyclic, quantum
from .gf import FieldContext, prime_factors, quadratic_field
# matrix_rank and mat_mul are not read here; the perfbench tracer lists
# grs.matrix_rank and grs.mat_mul, as it lists grs.gram_matrix, by name
from .linalg_codes import (_MAT_MUL_CHUNK, DEFAULT_BUDGET,
                           DEFAULT_DISTANCE_BUDGET, LinearCode,
                           _enumerate_min_weight, gram_matrix, mat_mul,
                           matrix_rank, rank_profile)
from .report import (STATUS_FAIL, STATUS_PASS, STATUS_SKIPPED,
                     STATUS_STRUCTURAL, ConstructionReport)

FAMILIES = ("CON1", "CON2", "CON3", "CON4", "CON1E", "CON2E", "CON3E", "CON4E")

@dataclass(frozen=True)
class GrsSpec:
    """Defining data (b, a, k) of a GRS code; b distinct, a nonzero."""

    field: FieldContext
    b: tuple[int, ...]
    a: tuple[int, ...]
    k: int

    def __post_init__(self):
        F, b, a = self.field, tuple(self.b), tuple(self.a)
        if len(b) != len(a):
            raise ValueError("b and a must have equal length")
        if len(set(b)) != len(b):
            raise ValueError("evaluation points must be distinct")
        if 0 in a:
            raise ValueError("scaling entries must be nonzero")
        if b and not (0 <= min(min(b), min(a)) and
                      max(max(b), max(a)) < F.order):
            raise ValueError("entries must be field elements in "
                             f"[0, {F.order})")
        if not 0 <= self.k <= len(b):
            raise ValueError("dimension out of range")

    def at(self, k: int) -> GrsSpec:
        """GRS_k on the vector of this spec, which is not checked again."""
        if not 0 <= k <= self.n:
            raise ValueError("dimension out of range")
        out = object.__new__(GrsSpec)
        out.__dict__.update(vars(self), k=k)
        return out

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
        ld[l, j] = log(b_j - b_l), with 0 = log 1 on the diagonal: the
        numerator of row i is the column sum of ld at j less ld[i, j], and
        the denominator D_i = prod_{l != i} (b_i - b_l) is the column sum
        at i, as in ``ag._hprime``.
        """
        F, k, n1 = self.field, self.k, self.field.order - 1
        b = np.asarray(self.b, dtype=np.int32)
        d = F.add_arr(b[None, :], F.neg_arr(b[:k])[:, None])
        np.fill_diagonal(d, 1)
        if not d.all():
            raise RuntimeError("a GRS point difference b_j - b_l (l < k) "
                               "vanishes; the Vandermonde block is singular")
        ld = F.log[d]
        # a sum of up to n logs, reduced before the k x n step so that it
        # stays in int32
        la = ((F.log[np.asarray(self.a, dtype=np.int64)] + ld.sum(axis=0))
              % n1).astype(np.int32)
        out = np.zeros((k, self.n), dtype=np.int32)
        out[:, :k] = np.eye(k, dtype=np.int32)
        out[:, k:] = F.exp[(la[None, k:] - ld[:, k:] - la[:k, None]) % n1]
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
    """The Gram work GRS_k(b, a) shares across k <= K = ``spec.k``, for the
    vector (field, b, a) of ``spec``; each group of ``by_vector``
    holds one per vector, at the group's largest k.  The counter ``work``
    of the run gains one ``vector_tables`` here, one ``rank_profiles`` for
    the rank profile and, from ``verify_claim``, one ``hull_solves`` per
    hull it solves.

    Row i of the natural generator does not depend on k, so the Gram matrix
    of GRS_k(b, a) is the leading k x k block of that of GRS_K(b, a) (the
    power-sum view of Fang, Fu, Li and Zhu, IEEE T-IT 66(6), 2020).  Each
    is built once, on its first read: ``gram``, the K x K Gram matrix,
    read-only; ``first_row[k]``, the first nonzero row of each leading
    k x k block (k when the block is zero); and ``ranks[k]``, the rank of
    each leading block, from one ``rank_profile``.  ``_table`` refuses a
    read above K.
    """

    def __init__(self, spec: GrsSpec, work: Optional[Counter] = None):
        self.spec, self.field = spec, spec.field
        self.work = Counter() if work is None else work
        self.work["vector_tables"] += 1

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """In characteristic 2 the Gram entries are the power sums S[t] of
        ``_power_sums`` at t = (i + q l) mod (q^2 - 1), plus N_j of a zero
        point at (0, 0)."""
        F, spec = self.field, self.spec
        if F.p != 2:
            return _read_only(gram_matrix(F, spec.generator()))
        b = np.asarray(spec.b, dtype=np.int64)
        a = np.asarray(spec.a, dtype=np.int64)
        # i + q l < (q + 1) q^2 < 2^31 for every order <= 2^16
        i = np.arange(spec.k, dtype=np.int32)
        g = _power_sums(F, b, a)[(i[:, None] + F.q * i[None, :])
                                 % (F.order - 1)]
        if spec.k and not b.all():
            g[0, 0] ^= F.pow(int(a[b == 0][0]), F.q + 1)
        return _read_only(g)

    @functools.cached_property
    def first_row(self) -> list[int]:
        return _first_nonzero_rows(self.gram)

    @functools.cached_property
    def ranks(self) -> list[int]:
        self.work["rank_profiles"] += 1
        return _leading_ranks(rank_profile(self.field, self.gram),
                              self.spec.k)


def _table(spec: GrsSpec, table: Optional[_VectorTable]) -> _VectorTable:
    """``table``, or a new table of ``spec`` when that is None; a ValueError
    when ``spec.k`` exceeds the table's K."""
    if table is None:
        return _VectorTable(spec)
    if spec.k > table.spec.k:
        raise ValueError(f"GRS_{spec.k} read off a vector table of "
                         f"K = {table.spec.k}")
    return table


def _read_only(M: np.ndarray) -> np.ndarray:
    M.setflags(write=False)
    return M


def _first_nonzero_rows(g: np.ndarray) -> list[int]:
    """For k = 0..K, the first nonzero row of g[:k, :k] (K x K), or k when
    that block is zero.  With f_i the first nonzero column of row i, that
    row is the least i with f_i < k when this i is below k; otherwise no
    row of the block is nonzero."""
    K = len(g)
    f = np.column_stack([g != 0, np.ones(K, dtype=bool)]).argmax(axis=1)
    # least[j]: the least row i with f_i = j - 1, K if there is none
    least = np.full(K + 2, K, dtype=np.int64)
    np.minimum.at(least, f + 1, np.arange(K))
    k = np.arange(K + 1)
    return np.minimum(np.minimum.accumulate(least[:K + 1]), k).tolist()


def _leading_ranks(pivots: np.ndarray, K: int) -> list[int]:
    """For k = 0..K, the rank of the leading k x k block of a K x K matrix
    whose ``rank_profile`` is ``pivots``: its pivots (row, col) with
    max(row, col) < k."""
    inside = np.bincount(pivots.max(axis=1) + 1, minlength=K + 1)
    return np.cumsum(inside).tolist()


@functools.cache
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


def _power_sums(F: FieldContext, b: np.ndarray, a: np.ndarray
                ) -> np.ndarray:
    """S[t] = sum_j N_j b_j^t over the nonzero points b_j, N_j = a_j^(q+1),
    for every t in Z/(order - 1), characteristic 2: the DFT over
    GF(order)^* of the vector c, c[log b_j] = N_j, by the prime-factor
    algorithm of ``_dft_plan``.

    Each stage is in the log domain: the transform along the first axis is
    an XOR reduction of zexp[log x + kernel], in row chunks of at most
    about _MAT_MUL_CHUNK cells, and it moves that axis last, so after the
    r stages the axes are back in order.  That is sum_i N_i lookups per
    exponent instead of one per point, with no modulo per element.
    """
    n1 = F.order - 1
    stages, spread, gather = _dft_plan(n1)
    nz = b != 0
    c = np.zeros(n1, dtype=F.zexp.dtype)
    c[F.log[b[nz]]] = F.exp[F.log[a[nz]] * (F.q + 1) % n1]
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
    ``grs.gram_matrix`` and ``grs.mat_mul`` by name.  Either way it is the
    ``gram`` of a new ``_VectorTable`` of the spec; ``verify_claim`` reads
    it as the leading k x k block of its vector table's K x K one.
    """
    return _VectorTable(spec).gram


def gram_rank(spec: GrsSpec, table: Optional[_VectorTable] = None) -> int:
    """The rank of ``natural_gram(spec)``, read off the one rank
    profile of the table's K x K Gram matrix, so the instances of one
    group share one elimination."""
    return _table(spec, table).ranks[spec.k]


@dataclass
class GrsHullClaim:
    """GRS code ``spec`` claimed to have a hull of dimension ``hull_dim``
    holding the GRS code ``subcode`` (equal to it when the dimensions
    agree), and perhaps a Hermitian self-orthogonal GRS code.  ``fault``
    None takes the prefix route (the subcode is a prefix GRS_t of the
    spec); a string takes the route of a two-point set's certificate
    (``ag._PairCertificate``) and holds its fault, "" if none."""

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

    Validates the constraints the membership/rank arguments actually use.
    ``conservative`` reports the narrower z-bounds: is z below the tighter
    bound that keeps every derived quantum distance inside the n/2 regime?
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
                   z1_subcode_dim=q - 1, s=None, conservative=z < q // 2)
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
                   z1_subcode_dim=q - f - 1, s=s,
                   conservative=z < n // (2 * q))
    else:
        raise ValueError(f"unknown family {family!r}")
    out.setdefault("z1_subcode_dim", out["subcode_dim"])
    out.setdefault("conservative", True)
    _require(out["k"] <= out["n"], family, "k <= n")
    _require(out["hull_dim"] >= 0, family, "a nonnegative hull dimension")
    return out


def family_parameter_grid(family: str, q: int,
                          conservative: bool = True) -> list[dict]:
    """All in-range parameter dicts of a family at a given q.

    With ``conservative`` the tighter z-bounds are enforced; otherwise
    the full verified ranges are used (needed by the parameter tables).
    The loops visit only candidates that ``claim_arithmetic`` admits; a
    refused one raises its ValueError.
    """
    out: list[dict] = []

    def push(params: dict):
        info = claim_arithmetic(family, q, **params)
        if info["conservative"] or not conservative:
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


def _evaluation_vector(F2: FieldContext, q: int, kind: str, e: Optional[int],
                       m: Optional[int]) -> GrsSpec:
    """The points b and column multipliers a of a recipe (see ``_recipe``)
    over F2, as tuples, checked in a GrsSpec of dimension 0."""
    N = q * q - 1
    if kind == "1":
        b = np.append(F2.exp, 0)
        a = np.ones(q * q, dtype=np.int32)
    elif kind == "2":
        b = F2.exp
        a = F2.exp[-np.arange(N) * e % N]
    else:
        B = _coset_exponents(q, math.gcd(e if kind == "3" else m - e, q - 1))
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
    return GrsSpec(F2, tuple(b.tolist()), tuple(a.tolist()), 0)


def construct_family(family: str, q: int, field: Optional[FieldContext] = None,
                     table: Optional[_VectorTable] = None,
                     **params) -> GrsHullClaim:
    """Build the hull claim of a family instance; no code is built.

    Accepts the full verified parameter ranges; ``claim.conservative_range``
    records whether the instance also satisfies the tighter z-bounds.
    ``field`` overrides the default GF(q^2) context (it must still be a
    quadratic extension of the right size).  The evaluation vector is
    solved here, or read off ``table``, which ``sweep`` builds once per
    ``_recipe``.
    """
    info = claim_arithmetic(family, q, **params)
    if table is None:
        F2 = quadratic_field(q, field)
        vector = _evaluation_vector(F2, q, *_recipe(family, q, params))
    else:
        vector = table.spec
    spec = vector.at(info["k"])
    if spec.n != info["n"]:
        raise RuntimeError(f"family {family} built length {spec.n}, "
                           f"not {info['n']}")
    return GrsHullClaim(
        family=family, q=q, module="grs",
        params=dict(params) | ({"s": info["s"]} if info["s"] is not None else {}),
        spec=spec, hull_dim=info["hull_dim"],
        subcode=vector.at(info["subcode_dim"]), fault=None,
        self_orthogonal=None,
        conservative_range=info["conservative"],
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
                 distance_budget: int = DEFAULT_DISTANCE_BUDGET,
                 table: Optional[_VectorTable] = None,
                 so_table: Optional[_VectorTable] = None
                 ) -> ConstructionReport:
    """Check a hull claim with exact linear algebra, emitting the checks
    of ``CHECKS``; a mismatch is a failed check, never an exception.

    Every Gram-shaped quantity is a per-k read off the ``_VectorTable`` of
    the spec's vector, whose K x K Gram matrix, K >= k, has the one
    ``natural_gram`` of the spec as its leading block: its rank
    (``gram_rank``, ``ranks[k]``) gives ``hull_dim_gram`` and, on the
    prefix route, its first nonzero row (``first_row[k]``)
    ``max_prefix_subcode_dim``.  There
    ``subcode_in_hull`` passes when the subcode is the prefix GRS_t(b, c)
    of the spec (same field, b and c, t <= k, hence inside the code) and
    Gram rows 0..t-1 vanish; on the certificate route, when the
    certificate, its own second method, has no fault.
    ``self_orthogonal_subcode`` reads a zero block off the self-orthogonal
    vector's table, which is never rank-profiled.  Only the prefix route's
    ``hull_dim_intersection``, within ``budget``, builds the code and, for
    ``hull_equality``, the subcode, each by ``GrsSpec.code`` from its spec
    alone: the second hull measurement beside the Gram rank, the left
    kernel of the closed-form generator's own Gram matrix times that
    generator (``LinearCode.hermitian_hull``), counted as one
    ``hull_solves`` in the table's ``work``.
    ``table`` and ``so_table``: the spec's and self_orthogonal's tables
    (new ones at their own k when None; a ValueError when one is smaller).
    The report's verdict is kept as its checks are recorded, and a
    non-FAIL report gets its ``quantum.chain_to_json`` chain.
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

    T = _table(spec, table)
    gram_dim = k - gram_rank(spec, T)
    ok_gram = rep.check_eq("hull_dim_gram", claim.hull_dim, gram_dim)

    hull = None
    if fault is None:
        # largest t with the first t natural generator rows inside the
        # dual: exactly the first nonzero row of the Gram matrix
        max_prefix = T.first_row[k]
        note = ""
        if claim.z1_subcode_dim not in (None, sub.k):
            note = (f"the z = 1 closed form {claim.z1_subcode_dim} "
                    "is not attained at this z")
        rep.check_eq("max_prefix_subcode_dim", sub.k, max_prefix, note=note)
        if F.order ** k <= budget:
            hull = spec.code().hermitian_hull()
            T.work["hull_solves"] += 1
            rep.check_eq("hull_dim_intersection", claim.hull_dim, hull.k)
        else:
            rep.check("hull_dim_intersection", STATUS_SKIPPED,
                      note=f"{F.order}^{k} parity solve skipped over "
                           f"budget {budget}")
        # natural rows 0..t-1 of the spec: in the code, orthogonal iff
        # the first t Gram rows vanish
        # pairs of tuples: held vectors compare by identity
        prefix = sub.field is F and ((tuple(sub.b), tuple(sub.a))
                                     == (tuple(spec.b), tuple(spec.a)))
        contained = prefix and sub.k <= k and max_prefix >= sub.k
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
        # a zero Gram block: no row is nonzero
        t = claim.self_orthogonal.k
        so = _table(claim.self_orthogonal, so_table).first_row[t] == t
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


def by_vector(grid: list[tuple], verifier: Callable) -> list:
    """Verify every (vector, family, params) of ``grid`` and return the
    results in grid order.  The entries of one vector form a group wherever
    they stand; ``verifier(vector, K)``, K the group's largest k, holds the
    group's tables, sized at K, and verifies each (family, params) of the
    group in grid order."""
    groups: dict = {}
    for i, (vector, _, _) in enumerate(grid):
        groups.setdefault(vector, []).append(i)
    out = [None] * len(grid)
    for vector, group in groups.items():
        verify = verifier(vector, max(grid[i][2]["k"] for i in group))
        for i in group:
            out[i] = verify(*grid[i][1:])
    return out


def _check_families(families):
    """A ValueError on a family name that is unknown or repeated."""
    for i, family in enumerate(families):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in families[:i]:
            raise ValueError(f"repeated family {family!r}")


def sweep(q: int, families=FAMILIES, budget: int = DEFAULT_BUDGET,
          distance_budget: int = DEFAULT_DISTANCE_BUDGET,
          conservative: bool = True, work: Optional[Counter] = None
          ) -> list[tuple[GrsHullClaim, ConstructionReport]]:
    """Build and verify every in-range instance of the given families, a
    ValueError first when one is unknown or repeated (``_check_families``),
    and return the (claim, report) pairs in grid order (``by_vector``
    on one grid of all the families, one group and table per ``_recipe``,
    at its largest k); ``work`` counts the tables, rank profiles and hull
    solves."""
    _check_families(families)
    F2 = quadratic_field(q)

    def verifier(recipe, K):
        T = _VectorTable(_evaluation_vector(F2, q, *recipe).at(K), work)

        def verify(family, params):
            claim = construct_family(family, q, table=T, **params)
            return claim, verify_claim(claim, budget=budget,
                                       distance_budget=distance_budget,
                                       table=T)
        return verify

    grid = [(_recipe(family, q, params), family, params) for family in families
            for params in family_parameter_grid(family, q, conservative)]
    return by_vector(grid, verifier)


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
    # GRS_ell is the prefix of GRS_k: in the hull iff Gram rows 0..ell-1 vanish
    if natural_gram(spec_k)[:ell].any():
        raise RuntimeError("punctured subcode escaped the Hermitian hull")
    return spec_k, spec_k.at(ell)
