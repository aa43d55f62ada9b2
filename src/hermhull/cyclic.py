"""Cyclic codes over GF(q) and the bilinear puncturing code over GF(q).

Covers: cyclotomic cosets, the two-parameter defining sets whose extended
codes characterise GRS hull containments, generator polynomials, the
Hartmann-Tzeng minimum-distance bound, the trace-parameterised codeword
family living in E(D[k,k-1]) but not E(D[k,k]), and the bilinear code
P(C) = {a in GF(q)^n : sum a_i u_i v_i^q = 0 for all u, v}.

Length-n cyclic codes here always have gcd(n, q) = 1; the splitting field
is GF(q) itself or its quadratic extension (every instance in this
artifact has ord_n(q) <= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import polys
from .gf import FieldContext, make_field, prime_power, quadratic_field
from .linalg_codes import LinearCode, mat_mul, nullspace


def _ord_mod(q: int, n: int) -> int:
    """Multiplicative order of q modulo n."""
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    r, acc = 1, q % n
    while acc != 1:
        acc = acc * q % n
        r += 1
    return r


def base_field(q: int) -> FieldContext:
    """Canonical GF(q) context for a prime power q."""
    return make_field(*prime_power(q))


def cyclotomic_coset(n: int, q: int, i: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of i modulo n, sorted ascending."""
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    if not 0 <= i < n:
        raise ValueError("representative out of range")
    out = {i}
    j = i * q % n
    while j != i:
        out.add(j)
        j = j * q % n
    return tuple(sorted(out))


def is_coset_closed(n: int, q: int, D: Sequence[int]) -> bool:
    S = set(D)
    return all((d * q) % n in S for d in S)


def defining_set_dkl(q: int, k: int, ell: int) -> tuple[int, ...]:
    """Defining set (mod q^2 - 1) of the cyclic code whose extension is the
    bilinear code of the GRS pair (k, ell) on the full evaluation set.

    The three index blocks are {i + qj} over [0,ell-1] x [ell,k-1],
    [ell,k-1] x [0,ell-1], and [0,ell-1]^2 minus the integer 0; the integer
    q^2 - 1 (reached only when ell = k = q) reduces to the exponent 0.
    """
    prime_power(q)
    if not 0 <= ell <= k <= q:
        raise ValueError("need 0 <= ell <= k <= q")
    n = q * q - 1
    ints: set[int] = set()
    ints.update(i + q * j for i in range(ell) for j in range(ell, k))
    ints.update(i + q * j for i in range(ell, k) for j in range(ell))
    ints.update(i + q * j for i in range(ell) for j in range(ell))
    ints.discard(0)
    return tuple(sorted(v % n for v in ints))


@dataclass
class CyclicCode:
    """A cyclic code plus the data that defined it."""

    n: int
    q: int
    defining_set: tuple[int, ...]
    base: FieldContext
    splitting: FieldContext
    beta: int                      # primitive n-th root of unity in `splitting`
    generator_poly: tuple[int, ...]  # over `base`, low degree first
    code: LinearCode               # over `base`

    @property
    def dim(self) -> int:
        return self.code.k

    def parity_rows(self) -> np.ndarray:
        """Rows (beta^{ij})_j over the splitting field, one per coset leader."""
        return _leader_rows(self.splitting, self.beta, self.n, self.q,
                            self.defining_set)


def _leader_rows(F: FieldContext, beta: int, n: int, q: int,
                 D: Sequence[int]) -> np.ndarray:
    """Rows (beta^{ij})_{j<n} over F, one per q-cyclotomic coset leader i
    of D, read off the exp table."""
    leaders = sorted({min(cyclotomic_coset(n, q, d)) for d in D})
    logs = np.outer(leaders, np.arange(n)).astype(np.int64) * F.log_of(beta)
    return F.exp[logs % (F.order - 1)]


def _splitting_field(q: int, n: int) -> tuple[FieldContext, FieldContext]:
    base = base_field(q)
    r = _ord_mod(q, n)
    if r == 1:
        return base, base
    if r == 2:
        return base, make_field(base.p, 2 * base.m)
    raise ValueError(f"ord_{n}({q}) = {r} > 2 is outside this artifact's scope")


def cyclic_from_defining_set(n: int, q: int, D: Sequence[int]) -> CyclicCode:
    """Cyclic code of length n over GF(q) with the given defining set."""
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    D = tuple(sorted(set(int(d) % n for d in D)))
    if not is_coset_closed(n, q, D):
        raise ValueError("defining set is not closed under multiplication by q "
                         "(generator polynomial would leave GF(q))")
    base, split = _splitting_field(q, n)
    beta = split.alpha_pow((split.order - 1) // n)
    g_split = polys.from_roots(split, [split.pow(beta, d) for d in D])
    if split is base:
        g = g_split
    else:
        g = tuple(split.to_subfield(c) for c in g_split)
    k = n - len(D)
    rows = np.zeros((k, n), dtype=np.int32)
    for i in range(k):
        rows[i, i:i + len(g)] = g
    code = LinearCode.from_rows(base, rows, n=n)
    if code.k != k:
        raise RuntimeError(
            f"generator polynomial spans dimension {code.k}, not {k}")
    return CyclicCode(n=n, q=q, defining_set=D, base=base, splitting=split,
                      beta=beta, generator_poly=g, code=code)


def extended_parity_rows(q: int, D: Sequence[int]) -> np.ndarray:
    """Parity rows, over GF(q^2), of the extension of the length-(q^2-1)
    cyclic code with defining set D: an all-ones row plus, for each coset
    leader i, the row (1, beta^i, ..., beta^{i(n-1)}, 0)."""
    n = q * q - 1
    F2 = quadratic_field(q)
    rows = _leader_rows(F2, F2.alpha, n, q, D)  # beta = alpha
    rows = np.hstack([rows, np.zeros((len(rows), 1), dtype=np.int32)])
    return np.vstack([np.ones((1, n + 1), dtype=np.int32), rows])


def ht_bound(n: int, D: Sequence[int]) -> int:
    """Best arithmetic-progression-grid lower bound on the distance of the
    cyclic code with defining set D: the largest x + y over grids
    {a + b*i1 + c*i2 : i1 in [0,x-2], i2 in [0,y]} inside D with
    gcd(b, n) = gcd(c, n) = 1.  Exhaustive; intended for n up to ~80.
    """
    Dset = set(d % n for d in D)
    if not Dset:
        return 1
    member = np.zeros(n, dtype=bool)
    member[list(Dset)] = True
    units = [b for b in range(1, n) if math.gcd(b, n) == 1]
    # run[b][a]: largest L <= n with a, a+b, ..., a+(L-1)b all in D
    runs: dict[int, list[int]] = {}
    for b in units:
        rl = [0] * n
        for a in range(n):
            if not member[a]:
                continue
            L, pos = 0, a
            while member[pos] and L < n:
                L += 1
                pos = (pos + b) % n
            rl[a] = L
        runs[b] = rl
    best = 2  # one element of D always gives x=2, y=0
    for b in units:
        rb = runs[b]
        for c in units:
            for a in range(n):
                if rb[a] == 0:
                    continue
                xcap = rb[a]
                y = 0
                while xcap >= 1:
                    cand = (xcap + 1) + y
                    if cand > best:
                        best = cand
                    nxt = (a + (y + 1) * c) % n
                    if rb[nxt] == 0 or y + 1 >= n:
                        break
                    y += 1
                    xcap = min(xcap, rb[nxt])
    return min(best, n + 1)


def index_set_T(q: int, k: int) -> tuple[tuple[int, int], ...]:
    """Off-diagonal index pairs of the trace parameterisation."""
    out = []
    for i in range(k, q):
        for j in list(range(0, k)) + list(range(i + 1, q)):
            out.append((i, j))
    return tuple(out)


@dataclass
class EqtrParams:
    """Coefficients of the trace-parameterised codeword family.

    ``diag[t]`` is theta_{t,t} for t in [k-1, q-1]; these must lie in the
    subfield GF(q) (as elements of GF(q^2)) and diag[k-1] must be nonzero.
    ``off[(i, j)]`` is theta_{i,j} in GF(q^2), with (i, j) restricted to
    index_set_T(q, k).  Missing entries are zero.
    """

    q: int
    k: int
    diag: dict[int, int] = field(default_factory=dict)
    off: dict[tuple[int, int], int] = field(default_factory=dict)

    def validate(self, F2: FieldContext):
        q, k = self.q, self.k
        if not 1 < k < q:
            raise ValueError("trace parameterisation needs 1 < k < q")
        if self.diag.get(k - 1, 0) == 0:
            raise ValueError("theta_{k-1,k-1} must be nonzero "
                             "(the vector would drop into the smaller code)")
        for t, v in self.diag.items():
            if not k - 1 <= t <= q - 1:
                raise ValueError(f"diagonal index {t} out of [k-1, q-1]")
            if v and not F2.in_subfield(v):
                raise ValueError(f"theta_{{{t},{t}}} must lie in GF({q})")
        T = set(index_set_T(q, k))
        for ij in self.off:
            if ij not in T:
                raise ValueError(f"off-diagonal index {ij} outside the index set")


def eqtr_codeword(q: int, k: int, params: EqtrParams) -> np.ndarray:
    """The length-q^2 extended codeword determined by the trace coefficients.

    Entry r (r in [0, q^2-2]) is
        sum_t theta_{t,t} alpha^{-r t (q+1)} + sum_{(i,j)} Tr(theta_{i,j} alpha^{-r(i+qj)});
    the appended entry is minus the sum of the others, which the coefficient
    algebra forces to equal theta_{q-1,q-1}.  Entries are returned embedded
    in GF(q^2); they all lie in GF(q).
    """
    F2 = quadratic_field(q)
    params.validate(F2)
    n = q * q - 1
    r = np.arange(n)
    c = np.zeros(n, dtype=np.int32)
    for t, th in params.diag.items():
        if th:
            vals = F2.exp[(-(r * t * (q + 1))) % n]
            c = F2.add_arr(c, F2.mul_arr(np.array(th), vals))
    for (i, j), th in params.off.items():
        if th:
            w = F2.mul_arr(np.array(th), F2.exp[(-(r * (i + q * j))) % n])
            c = F2.add_arr(c, F2.add_arr(w, F2.pow_q_arr(w)))
    total = 0
    for v in c:
        total = F2.add(total, int(v))
    out = np.concatenate([c, [F2.neg(total)]]).astype(np.int32)
    # invariants: the appended coordinate equals theta_{q-1,q-1} and the
    # vector satisfies the parity rows of E(D[k,k-1]) but not all of E(D[k,k])
    if out[-1] != params.diag.get(q - 1, 0) % F2.order:
        raise RuntimeError("appended coordinate differs from theta_{q-1,q-1}")
    if not all(F2.in_subfield(int(v)) for v in out):
        raise RuntimeError("vector leaves the subfield GF(q)")
    Hsmall = extended_parity_rows(q, defining_set_dkl(q, k, k - 1))
    if not _annihilates(F2, Hsmall, out):
        raise RuntimeError("vector escapes E(D[k,k-1])")
    Hbig = extended_parity_rows(q, defining_set_dkl(q, k, k))
    if _annihilates(F2, Hbig, out):
        raise RuntimeError("vector fell into E(D[k,k])")
    return out


def _annihilates(F2: FieldContext, H: np.ndarray, v: np.ndarray) -> bool:
    return not mat_mul(F2, H, np.asarray(v)[:, None]).any()


def rains_p(code_k: LinearCode, code_ell: Optional[LinearCode] = None,
            max_constraints: int = 4096) -> LinearCode:
    """The GF(q) solution space of sum_i a_i u_i v_i^q = 0 over basis pairs.

    ``u`` runs over a basis of ``code_ell`` (defaults to ``code_k``) and
    ``v`` over a basis of ``code_k``; bilinearity makes basis pairs
    sufficient.  Each GF(q^2) constraint splits into two GF(q) constraints
    through the decomposition x = c0 + c1*alpha.
    """
    F2 = code_k.field
    if F2.subfield is None:
        raise ValueError("bilinear puncturing code needs a quadratic extension")
    if code_ell is None:
        code_ell = code_k
    if code_ell.field is not F2 or code_ell.n != code_k.n:
        raise ValueError("codes must share field and length")
    kl = code_k.k * code_ell.k
    if 2 * kl > max_constraints:
        raise ValueError(f"{kl} bilinear constraints exceed the cap")
    n = code_k.n
    Fq = F2.subfield
    dec = F2.subfield_decomposition()
    vq = F2.pow_q_arr(code_k.gen)
    rows = []
    for u in code_ell.gen:
        for v in vq:
            w = F2.mul_arr(u, v)
            rows.append(dec[w, 0])
            rows.append(dec[w, 1])
    if rows:
        M = np.array(rows, dtype=np.int32)
        basis = nullspace(Fq, M)
    else:
        basis = np.eye(n, dtype=np.int32)
    return LinearCode.from_rows(Fq, basis, n=n)


def trace_code(q: int, n: int, D: Sequence[int]) -> LinearCode:
    """The cyclic code rebuilt from its generating set via the trace map.

    For each coset leader i of the generating set (the complement of D) and
    each GF(q)-basis element theta of the coset's field of definition, take
    the row (Tr(theta * beta^{-u i}))_u.  Must equal the shifts-of-g code.
    """
    base, split = _splitting_field(q, n)
    D = set(d % n for d in D)
    gen_exps = [e for e in range(n) if e not in D]
    leaders = sorted({min(cyclotomic_coset(n, q, e)) for e in gen_exps})
    beta = split.alpha_pow((split.order - 1) // n)
    project = (lambda w: w) if split is base else split.project_arr
    rows = []
    u = np.arange(n)
    for i in leaders:
        size = len(cyclotomic_coset(n, q, i))
        vals = split.exp[(-(u * i) * (split.log_of(beta))) % (split.order - 1)]
        if size == 1:
            rows.append(project(vals))
        elif size == 2:
            for theta in (1, split.alpha):
                w = split.mul_arr(np.array(theta), vals)
                rows.append(project(split.add_arr(w, split.pow_q_arr(w))))
        else:  # unreachable with ord <= 2
            raise ValueError("coset size exceeds the supported splitting degree")
    return LinearCode.from_rows(base, rows, n=n)
