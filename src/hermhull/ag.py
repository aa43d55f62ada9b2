"""Rational (genus-0) function-field machinery over GF(q^2).

Divisors live on the projective line: finite places P_beta (one per field
element) plus the pole place O of 1/x.  Riemann-Roch collapses to a closed
form (canonical divisor -2*O), which drives explicit bases of L(G) and
evaluation codes; these stay as the reference the two-point construction
is tested against.  Two-point codes are built directly as GRS rows plus
one pole row, scaled by the residues of the differential dx/h(x)
(computed as log sums) so that their Hermitian hulls become MDS codes of
controlled dimension.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import polys
from .gf import FieldContext, quadratic_field
from .grs import GrsHullClaim, GrsSpec, _VectorTable, by_vector, verify_claim
from .linalg_codes import (DEFAULT_DISTANCE_BUDGET, LinearCode, conjugate,
                           gram_matrix, mat_mul, matrix_rank, rref)
from .report import ConstructionReport


@dataclass(frozen=True, order=True)
class Place:
    """A degree-1 place: Finite(beta) or the pole place of 1/x."""

    at_infinity: bool
    beta: int = 0

    def __repr__(self):
        return "O" if self.at_infinity else f"P({self.beta})"


O = Place(True)


def finite(beta: int) -> Place:
    return Place(False, int(beta))


class Divisor:
    """Sparse integer-valued map on places; immutable."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[dict[Place, int]] = None):
        c = {p: int(v) for p, v in (coeffs or {}).items() if v != 0}
        object.__setattr__(self, "_c", c)

    @classmethod
    def one_point(cls, k: int) -> "Divisor":
        return cls({O: k})

    @classmethod
    def of(cls, *pairs: tuple[Place, int]) -> "Divisor":
        d: dict[Place, int] = {}
        for p, v in pairs:
            d[p] = d.get(p, 0) + v
        return cls(d)

    def coeff(self, p: Place) -> int:
        return self._c.get(p, 0)

    def support(self) -> set[Place]:
        return set(self._c)

    def degree(self) -> int:
        return sum(self._c.values())

    def _merge(self, other: "Divisor", op) -> "Divisor":
        keys = set(self._c) | set(other._c)
        return Divisor({p: op(self.coeff(p), other.coeff(p)) for p in keys})

    def __add__(self, other):
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._merge(other, lambda a, b: a - b)

    def wedge(self, other):
        """Pointwise minimum."""
        return self._merge(other, min)

    def vee(self, other):
        """Pointwise maximum."""
        return self._merge(other, max)

    def __ge__(self, other):
        return all(self.coeff(p) >= other.coeff(p)
                   for p in self.support() | other.support())

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return "0"
        return " + ".join(f"{v}*{p}" for p, v in sorted(
            self._c.items(), key=lambda kv: (not kv[0].at_infinity, kv[0].beta)))


@dataclass(frozen=True)
class RationalFunction:
    """num/den over a FieldContext, den monic, gcd divided out."""

    field: FieldContext
    num: tuple
    den: tuple

    @classmethod
    def make(cls, F: FieldContext, num, den=(1,)) -> "RationalFunction":
        num, den = polys.trim(num), polys.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = polys.gcd(F, num, den)
        if polys.degree(g) > 0:
            num = polys.divmod_(F, num, g)[0]
            den = polys.divmod_(F, den, g)[0]
        if den and den[-1] != 1:
            c = F.inv(den[-1])
            num = polys.scale(F, num, c)
            den = polys.scale(F, den, c)
        return cls(F, num, den)

    def evaluate(self, x: int) -> int:
        d = polys.evaluate(self.field, self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.field.div(polys.evaluate(self.field, self.num, x), d)

    def valuation(self, place: Place) -> int:
        if not self.num:
            raise ValueError("the zero function has no valuations")
        F = self.field
        if place.at_infinity:
            return polys.degree(self.den) - polys.degree(self.num)
        return (polys.root_multiplicity(F, self.num, place.beta)
                - polys.root_multiplicity(F, self.den, place.beta))


def rr_dim(G: Divisor) -> int:
    """dim L(G) on the genus-0 line: 0 for negative degree, else deg + 1."""
    d = G.degree()
    return 0 if d < 0 else d + 1


def lbasis(F: FieldContext, G: Divisor) -> list[RationalFunction]:
    """A basis of L(G), verified element-by-element against the valuations.

    With no negative finite multiplicities the basis has the familiar
    shape {1, x, ..., x^(G(O))} plus pole terms 1/(x-beta)^j; otherwise a
    quotient basis {Z x^t / N} is used.
    """
    if G.degree() < 0:
        return []
    fin = [(p, G.coeff(p)) for p in sorted(G.support() - {O})]
    nO = G.coeff(O)
    out: list[RationalFunction] = []
    if nO >= 0 and all(v >= 0 for _, v in fin):
        for t in range(nO + 1):
            mono = tuple([0] * t + [1])
            out.append(RationalFunction.make(F, mono))
        for p, v in fin:
            lin = (F.neg(p.beta), 1)
            den: tuple = (1,)
            for j in range(1, v + 1):
                den = polys.mul(F, den, lin)
                out.append(RationalFunction.make(F, (1,), den))
    else:
        N: tuple = (1,)
        Z: tuple = (1,)
        for p, v in fin:
            lin = (F.neg(p.beta), 1)
            for _ in range(abs(v)):
                if v > 0:
                    N = polys.mul(F, N, lin)
                else:
                    Z = polys.mul(F, Z, lin)
        for t in range(G.degree() + 1):
            num = polys.mul(F, Z, tuple([0] * t + [1]))
            out.append(RationalFunction.make(F, num, N))
    if len(out) != rr_dim(G):
        raise RuntimeError(f"basis has {len(out)} functions, "
                           f"not l(G) = {rr_dim(G)}")
    for f in out:
        places = set(G.support()) | {O}
        places |= {finite(b) for b in range(F.order)
                   if polys.evaluate(F, f.den, b) == 0}
        for p in places:
            if f.valuation(p) + G.coeff(p) < 0:
                raise RuntimeError(f"basis function {f} is not in L(G) at {p}")
    return out


@dataclass
class EvalCode:
    """An evaluation code together with its natural (unreduced) rows."""

    field: FieldContext
    points: tuple[int, ...]
    divisor: Divisor
    rows: np.ndarray
    code: LinearCode


def evaluation_code(F: FieldContext, points: Sequence[int], G: Divisor) -> EvalCode:
    pts = tuple(int(u) for u in points)
    if len(set(pts)) != len(pts):
        raise ValueError("evaluation points must be distinct")
    if any(finite(u) in G.support() for u in pts):
        raise ValueError("divisor support meets the evaluation set")
    basis = lbasis(F, G)
    rows = np.zeros((len(basis), len(pts)), dtype=np.int32)
    for i, f in enumerate(basis):
        for j, u in enumerate(pts):
            rows[i, j] = f.evaluate(u)
    return EvalCode(F, pts, G, rows, LinearCode.from_rows(F, rows, n=len(pts)))


# ----------------------------------------------------------------------
# residues of dx/h
# ----------------------------------------------------------------------

@dataclass
class DifferentialData:
    """Residues of (a constant multiple of) dx/h on the evaluation set.

    ``residues`` are the raw values 1/h'(u_i); when they do not all lie in
    GF(q)^* but a common constant fixes that, ``scale`` holds the canonical
    constant and ``witnesses`` solve a_i^(q+1) = scale * residue_i.
    ``family`` and ``params`` label the set: the family and parameters
    (s, t, n0) of ``evaluation_set``, or "two_point" and {} from
    ``residues``.
    """

    field: FieldContext
    points: tuple[int, ...]
    residues: tuple[int, ...]
    scale: int
    scaled_residues: tuple[int, ...]
    witnesses: tuple[int, ...]  # empty when the residues are not norms
    family: str
    params: dict


def _differences(F: FieldContext, xs: Sequence[int],
                 pts: Sequence[int]) -> np.ndarray:
    """The len(xs) x len(pts) matrix of differences x_i - u_j."""
    u = np.asarray(pts, dtype=np.int32)
    return F.add_arr(np.asarray(xs, dtype=np.int32)[:, None],
                     F.neg_arr(u)[None, :])


def _row_products(F: FieldContext, d: np.ndarray) -> np.ndarray:
    """The product of each row of d, as one log-domain sum per row; 0 for a
    row that holds a 0."""
    logs = F.log[d].astype(np.int64).sum(axis=1) % (F.order - 1)
    return np.where((d == 0).any(axis=1), 0, F.exp[logs])


def _hprime(F: FieldContext, pts: Sequence[int]) -> np.ndarray:
    """h'(u_i) = prod_{j != i} (u_i - u_j) for h = prod (x - u), over the
    rows of the n x n difference matrix; 0 at a repeated point."""
    d = _differences(F, pts, pts)
    np.fill_diagonal(d, 1)
    return _row_products(F, d)


def residues(F: FieldContext, points: Sequence[int]) -> DifferentialData:
    """Residues 1/h'(u_i) of dx/h at the simple zeros of h = prod (x - u).

    When the raw residues are not all in GF(q)^* but share GF(q) ratios, a
    canonical constant rescale of the differential fixes that (smallest
    discrete log among the valid constants); when no constant does, the
    raw residues are returned with no norm witnesses.
    """
    pts = tuple(int(u) for u in points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len(set(pts)) != len(pts):
        raise ValueError("repeated evaluation point (h' would vanish)")
    hp = _hprime(F, pts)
    if not hp.all():
        raise RuntimeError("h' vanishes at a simple root")
    rs = F.inv_arr(hp)
    raw = tuple(rs.tolist())
    # the field sum is zero iff every base-p digit sums to 0 mod p
    if (F._digits[rs].sum(axis=0) % F.p).any():
        raise RuntimeError("residue theorem violated")
    # GF(q)^* = <alpha^(q+1)>: the norms, and the ratios that the constant
    # rescale can fix, are the logs divisible by q + 1
    F._require_quadratic()
    lr = F.log[rs].astype(np.int64) % (F.q + 1)
    scale = 1
    if lr.any():
        if not (lr == lr[0]).all():
            return DifferentialData(F, pts, raw, 1, raw, (), "two_point", {})
        # the constants are r_0^-1 GF(q)^*, the logs -log r_0 + (q+1)t; the
        # smallest is -log r_0 mod (q+1)
        scale = int(F.exp[-lr[0] % (F.q + 1)])
    scaled = F.mul_arr(np.int32(scale), rs)
    wits = tuple(F.solve_norm_arr(scaled).tolist())
    return DifferentialData(F, pts, raw, scale, tuple(scaled.tolist()), wits,
                            "two_point", {})


# ----------------------------------------------------------------------
# evaluation-set families
# ----------------------------------------------------------------------

def evaluation_set(family: str, q: int, s: Optional[int] = None,
                   t: Optional[int] = None, n0: Optional[int] = None,
                   field: Optional[FieldContext] = None) -> DifferentialData:
    """The evaluation sets behind the three two-point families.

    COR1: the (s-1)-th roots of unity plus 0 (needs (s-1) | q^2-1, s != q^2).
    COR2: t additive cosets c*alpha + GF(q), c over the first t subfield
          elements (needs 1 <= t < q).
    COR3: t+1 multiplicative cosets of the n0-th roots of unity whose
          representative powers land in GF(q)^*, plus 0.
    Every returned set is verified: distinct points whose dx/h residues are
    (up to the canonical constant) in GF(q)^*.  ``field`` overrides the
    default GF(q^2) context, as in ``grs.construct_family``.  Returns the
    residue data of the set, whose ``points`` are the set, labelled with
    ``family`` and the parameters it reads; the two-point constructions
    take it as it is.
    """
    F = quadratic_field(q, field)
    N = q * q - 1
    if family == "COR1":
        if s is None or s < 2 or s == q * q or N % (s - 1) != 0:
            raise ValueError("COR1 requires s >= 2, (s-1) | q^2-1, s != q^2")
        step = N // (s - 1)
        pts = [F.alpha_pow(step * i) for i in range(s - 1)] + [0]
        params = {"s": s}
    elif family == "COR2":
        if t is None or not 1 <= t < q:
            raise ValueError("COR2 requires 1 <= t < q")
        subs = [F.from_subfield(c) for c in range(t)]
        pts = [F.add(F.mul(c, F.alpha), F.from_subfield(v))
               for c in subs for v in range(q)]
        params = {"t": t}
    elif family == "COR3":
        if n0 is None or N % n0 != 0:
            raise ValueError("COR3 requires n0 | q^2-1")
        n2 = n0 // math.gcd(n0, q + 1)
        tmax = (q - 1) // n2 - 2
        if t is None or not 1 <= t <= tmax:
            raise ValueError(f"COR3 requires 1 <= t <= (q-1)/n2 - 2 = {tmax}")
        e = (q + 1) // math.gcd(n0, q + 1)
        root_step = N // n0
        pts = []
        for j in range(t + 1):
            rep = F.alpha_pow(j * e)
            pts.extend(F.mul(rep, F.alpha_pow(root_step * i)) for i in range(n0))
        pts.append(0)
        params = {"t": t, "n0": n0}
    else:
        raise ValueError(f"unknown family {family!r}")
    if len(set(pts)) != len(pts):
        raise ValueError("internal: generated points collide")
    diff = residues(F, pts)
    if not diff.witnesses:
        raise ValueError("residue condition failed on the generated set")
    return replace(diff, family=family, params=params)


def family_parameter_grid(family: str, q: int) -> list[dict]:
    """In-range parameter dicts {.., n, k} for the two-point families."""
    out = []
    if family == "COR1":
        for s in range(2, q * q):
            if (q * q - 1) % (s - 1) == 0 and s != q * q:
                for k in range((s - 2) // (q + 1) + 1):
                    out.append({"s": s, "n": s, "k": k})
    elif family == "COR2":
        for t in range(1, q):
            for k in range((t * q - 2) // (q + 1) + 1):
                out.append({"t": t, "n": t * q, "k": k})
    elif family == "COR3":
        for n0 in range(1, q * q):
            if (q * q - 1) % n0 != 0:
                continue
            n2 = n0 // math.gcd(n0, q + 1)
            for t in range(1, (q - 1) // n2 - 1):
                n = (t + 1) * n0 + 1
                for k in range((n - 2) // (q + 1) + 1):
                    out.append({"n0": n0, "t": t, "n": n, "k": k})
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def default_extra_point(F: FieldContext, points: Sequence[int]) -> int:
    used = set(int(u) for u in points)
    for v in range(F.order):
        if v not in used:
            return v
    raise ValueError("no rational point left for the extra place")


# ----------------------------------------------------------------------
# the two-point construction
# ----------------------------------------------------------------------

class _PairCertificate:
    """One evaluation set u with norm witnesses a and extra place p, at its
    largest admissible K = (n - 2) // (q + 1): the tables ``code`` of
    GRS_{K+2}(u, c), c = a/(u - p), and ``so`` of GRS_{K+1}(u, a), the spec
    ``hull`` = GRS_K(u, h), h = a (u - p), ``rows`` = the scaled rows a u^i
    (i <= K), the pole row c and the hull rows h u^i (i < K), and the
    ``fault`` of ``_certify`` on them ("" when they passed)."""

    def __init__(self, F: FieldContext, pts: tuple, a: tuple, p: int,
                 work: Optional[Counter] = None):
        K = (len(pts) - 2) // (F.q + 1)
        shift = F.add_arr(np.asarray(pts, dtype=np.int32), F.neg(p))
        av = np.asarray(a, dtype=np.int32)
        cv = F.mul_arr(av, F.inv_arr(shift))
        so = GrsSpec(F, pts, a, K + 1)
        code = GrsSpec(F, pts, tuple(cv.tolist()), K + 2)
        self.hull = GrsSpec(F, pts, tuple(F.mul_arr(av, shift).tolist()), K)
        self.rows = np.vstack([so.generator(), cv, self.hull.generator()])
        self.rows.setflags(write=False)
        self.fault = _certify(F, code.generator(), self.rows, p)
        self.code, self.so = _VectorTable(code, work), _VectorTable(so, work)


def _certify(F: FieldContext, G: np.ndarray, rows: np.ndarray, p: int) -> str:
    """"" when the 2K + 2 ``rows`` of a ``_PairCertificate`` pass the
    checks that ``two_point_code`` rests on, else the one that failed.

    G = (c u^l)_{l < K+2} is the natural generator of GRS_{K+2}(u, c).  As
    a = c (u - p) and h = a (u - p), the coefficients X of ``rows`` on G are
    known: a u^i = c u^(i+1) - p c u^i, the pole row is c, and h u^i =
    a u^(i+1) - p a u^i.  X is unit-triangular by degree, so X G == rows
    shows that the first k + 2 rows span GRS_{k+2}(u, c) for every k <= K.
    Then the cross block of the hull rows with conj(G) must vanish.
    """
    m = len(G)
    E = np.eye(m, dtype=np.int32)

    def shift(B):  # (u - p) f_i = f_(i+1) - p f_i when f_i = f_0 u^i
        return F.add_arr(B[1:], F.mul_arr(np.int32(F.neg(p)), B[:-1]))

    S = shift(E)
    if not np.array_equal(mat_mul(F, np.vstack([S, E[:1], shift(S)]), G),
                          rows):
        return f"the scaled and hull rows are not in GRS_{m}(u, c)"
    if mat_mul(F, rows[m:], conjugate(F, G).T).any():
        return (f"GRS_{m - 2}(u, h) is not Hermitian-orthogonal to "
                f"GRS_{m}(u, c)")
    return ""


class TwoPointResult(NamedTuple):
    """A two-point instance: its claim and its report."""

    claim: GrsHullClaim
    report: ConstructionReport


def check_two_point_input(diff: DifferentialData, k: int,
                          p: Optional[int] = None) -> int:
    """Check the inputs of a two-point code on the evaluation set ``diff``
    and return its extra place: p, or ``default_extra_point`` when p is
    None.  Raises ValueError on an input the construction does not admit."""
    F, pts = diff.field, diff.points
    n = len(pts)
    if not 0 <= k <= (n - 2) // (F.q + 1):
        raise ValueError(f"need 0 <= k <= (n-2)/(q+1) = {(n - 2) // (F.q + 1)}")
    if not diff.witnesses:
        raise ValueError("residues are outside GF(q)^* even after constant "
                         "rescaling; construction hypotheses violated")
    if p is None:
        p = default_extra_point(F, pts)
    if p in pts:
        raise ValueError("the extra place must avoid the evaluation set")
    return p


def two_point_code(diff: DifferentialData, k: int, p: Optional[int] = None,
                   distance_budget: int = DEFAULT_DISTANCE_BUDGET,
                   cert: Optional[_PairCertificate] = None
                   ) -> TwoPointResult:
    """Scaled evaluation code on G = kO + P with an MDS Hermitian hull.

    ``diff`` is the evaluation set with its residues, as ``evaluation_set``
    or ``residues`` return it; it gives the field, the points and the
    claim's family and parameters.  The scaling solves a_i^(q+1) =
    Res_i(dx/h) (after the canonical constant rescale when needed).  On
    the genus-0 line C_L(D, kO + P) is GRS_{k+2}(u, 1/(u-p)), so the
    natural rows are those of GRS_{k+1}(u, a) over the single pole row
    c = a/(u-p); the first k+1 span a.C_L(D, kO) and rows 0 and k+1 span
    a.C_L(D, P).

    One certificate per set and p at its largest K (``cert``, or a new
    ``_PairCertificate``) covers every k <= K.  On the natural basis
    (c u^l)_{l < K+2} of GRS_{K+2}(u, c) the scaled rows a u^i have degree
    i + 1 exactly and the pole row c degree 0, so the k + 2 scaled rows of
    instance k are triangular on its first k + 2 rows: the code is
    GRS_{k+2}(u, c).  Hull row h u^i, h = a (u - p), has degree at most
    i + 2 <= k + 1, so GRS_k(u, h) lies in the code, and the K x (K + 2)
    cross block of the hull rows with conj of that basis vanishes, so its
    corner for k does: GRS_k(u, h) lies in the Hermitian hull
    (``_certify``, with these coefficients in closed form).  The claim
    (code GRS_{k+2}(u, c), hull dimension k, subcode GRS_k(u, h) on the
    certificate route, self-orthogonal GRS_{k+1}(u, a)) goes to
    ``grs.verify_claim``; the hull dimension k read off the Gram rank is
    the control of Luo, Cao and Chen (IEEE T-IT 65(5), 2019), and a
    self-orthogonal code measures k + 2 and fails.  No elimination of the
    code or its hull runs.
    """
    p = check_two_point_input(diff, k, p)
    F, pts = diff.field, diff.points
    cert = cert or _PairCertificate(F, pts, diff.witnesses, p)
    claim = GrsHullClaim(
        family=diff.family, q=F.q, module="ag",
        params={"n": len(pts), "k": k, "p": F.log_of(p) if p else -1}
        | diff.params,
        spec=cert.code.spec.at(k + 2), hull_dim=k, subcode=cert.hull.at(k),
        fault=cert.fault, self_orthogonal=cert.so.spec.at(k + 1),
        conservative_range=True, z1_subcode_dim=None)
    rep = verify_claim(claim, distance_budget=distance_budget,
                       table=cert.code, so_table=cert.so)
    return TwoPointResult(claim, rep)


def sweep(q: int, distance_budget: int = DEFAULT_DISTANCE_BUDGET,
          work: Optional[Counter] = None
          ) -> list[tuple[GrsHullClaim, ConstructionReport]]:
    """Build and verify every grid instance of the three two-point
    families at q, and return the (claim, report) pairs in grid order.

    The instances on one evaluation set are one group of
    ``grs.by_vector``: one ``evaluation_set`` call and one
    ``_PairCertificate``, whose two tables ``work`` counts; its K, the
    set's largest admissible k, must be the set's largest grid k.
    """
    F = quadratic_field(q)

    def verifier(evaluation: tuple, K: int):
        family, kwargs = evaluation[0], dict(evaluation[1:])
        diff = evaluation_set(family, q, field=F, **kwargs)
        p = check_two_point_input(diff, 0)
        cert = _PairCertificate(F, diff.points, diff.witnesses, p, work)
        if cert.hull.k != K:
            raise RuntimeError(f"{family} {kwargs}: grid K = {K}, but the "
                               f"certificate's K = {cert.hull.k}")
        return lambda _, g: two_point_code(diff, g["k"], p, distance_budget,
                                           cert)

    grid = [((family, *((x, g[x]) for x in ("s", "t", "n0") if x in g)),
             family, g) for family in ("COR1", "COR2", "COR3")
            for g in family_parameter_grid(family, q)]
    return by_vector(grid, verifier)


# ----------------------------------------------------------------------
# arbitrary hull dimension by pivot scaling
# ----------------------------------------------------------------------

def default_scaling_element(F: FieldContext) -> int:
    """Canonical pivot-scaling element: norm outside {1, -1}.

    Norm 1 leaves the hull unchanged and norm -1 is excluded by the
    scaling argument, so both are rejected.  A subfield element is
    preferred when one qualifies (none does for q <= 5), else the
    smallest-log element of GF(q^2) with an admissible norm.
    """
    neg1 = F.neg(1)
    q = F.q
    for e in range(1, q - 1):
        v = F.alpha_pow(e * (q + 1))
        if F.pow(v, q + 1) not in (1, neg1):
            return v
    for e in range(1, F.order - 1):
        v = F.alpha_pow(e)
        if F.pow(v, q + 1) not in (1, neg1):
            return v
    raise ValueError("no admissible scaling element: every norm is +-1 "
                     f"over GF({q})")


def scale_sweep(claim: GrsHullClaim) -> dict[int, int]:
    """Measured hull dimension of a two-point claim's code for every ell
    in [0, k]: ell counts the last self-orthogonal pivot columns scaled by
    ``default_scaling_element``, whose norm is not +-1 (a ValueError for
    q = 2, 3, where none is).  The rows are the generator of
    ``claim.self_orthogonal``, GRS_{k+1}(u, a), over the pole row c, row 0
    of ``claim.spec``; their pivots are reduced once, and each hull
    dimension is k + 2 less the Gram rank of the scaled rows, a basis of
    the scaled code."""
    so = claim.self_orthogonal
    F = so.field
    alpha = default_scaling_element(F)
    rows = np.vstack([so.generator(), claim.spec.at(1).generator()])
    _, rank, pivots = rref(F, rows[:so.k])
    if rank != so.k:
        raise ValueError("self-orthogonal part has unexpected rank")
    dims = {}
    for ell in range(rank):
        a = np.ones(so.n, dtype=np.int32)
        a[pivots[rank - ell:rank]] = alpha
        scaled = F.mul_arr(rows, a[None, :])
        dims[ell] = claim.spec.k - matrix_rank(F, gram_matrix(F, scaled))
    return dims


# ----------------------------------------------------------------------
# recursive evaluation-set growth
# ----------------------------------------------------------------------

@dataclass
class GrowthStep:
    pair: tuple[int, int]
    conjugate: bool
    points: tuple[int, ...]


@dataclass
class GrowthResult:
    start: tuple[int, ...]
    steps: list[GrowthStep]
    status: str  # "ok" | "exhausted"

    @property
    def final(self) -> tuple[int, ...]:
        return self.steps[-1].points if self.steps else self.start


def _derivative_norm_condition(F: FieldContext, pts: Sequence[int]) -> bool:
    return all(F.is_norm(int(v)) for v in _hprime(F, pts))


def extend_evaluation_set(F: FieldContext, points: Sequence[int],
                          max_steps: int = 1) -> GrowthResult:
    """Grow the evaluation set two points at a time, keeping every
    derivative value of the defining polynomial inside GF(q)^*.

    Candidate pairs are scanned deterministically: Frobenius-conjugate
    pairs (beta, beta^q) by increasing log first, then all remaining pairs
    in lexicographic log order.  Exhaustion is a terminal status, not an
    error, and the norm condition is re-verified from scratch each step.
    """
    if F.subfield is None:
        raise ValueError("growth needs a quadratic extension")
    pts = tuple(int(u) for u in points)
    if not _derivative_norm_condition(F, pts):
        raise ValueError("starting set violates the derivative-norm condition")
    steps: list[GrowthStep] = []
    status = "ok"
    for _ in range(max_steps):
        found = None
        used = set(pts)
        nonmembers = [F.alpha_pow(e) for e in range(F.order - 1)
                      if F.alpha_pow(e) not in used]
        if 0 not in used:
            nonmembers.append(0)
        # h(b) = prod (b - u) at every candidate b
        h = dict(zip(nonmembers, _row_products(
            F, _differences(F, nonmembers, pts)).tolist()))

        def pair_ok(b1: int, b2: int) -> bool:
            d12 = F.sub(b1, b2)
            if not (F.is_norm(F.mul(h[b1], d12))
                    and F.is_norm(F.mul(h[b2], F.neg(d12)))):
                return False
            return all(F.is_norm(F.mul(F.sub(u, b1), F.sub(u, b2)))
                       for u in pts)

        for b1 in nonmembers:
            b2 = F.frobenius_q(b1)
            if b2 == b1 or b2 in used:
                continue
            if pair_ok(b1, b2):
                found = (b1, b2, True)
                break
        if found is None:
            for b1 in nonmembers:
                for b2 in nonmembers:
                    if b2 == b1:
                        continue
                    if pair_ok(b1, b2):
                        found = (b1, b2, False)
                        break
                if found:
                    break
        if found is None:
            status = "exhausted"
            break
        b1, b2, conj = found
        pts = pts + (b1, b2)
        if not _derivative_norm_condition(F, pts):
            raise RuntimeError(
                "grown set violates the derivative-norm condition")
        steps.append(GrowthStep((b1, b2), conj, pts))
    return GrowthResult(tuple(int(u) for u in points), steps, status)
