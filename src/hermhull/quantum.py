"""Quantum code parameters derived from classical codes over GF(q^2).

A classical [n, k] code with Hermitian hull dimension l yields an
entanglement-assisted code [[n, n-2k+c, delta; c]]_q with c = k - l and
delta = wt(dual \\ hull).  For the MDS ingredients built elsewhere in this
package delta is recorded "structurally" as k+1 (the dual's minimum
distance), with brute-force confirmation only at enumeration-friendly
sizes.  Also: propagation (kappa and c both +i, i up to the hull
dimension), the three Singleton-like bounds with exact slacks, and
regeneration of the parameter tables at a given alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .gf import prime_power


@dataclass(frozen=True)
class QuantumParams:
    """[[n, kappa, delta; c]]_q; c = 0 marks a plain (unassisted) code."""

    n: int
    kappa: int
    delta: int
    c: int
    q: int
    pure: bool = True
    delta_kind: str = "structural"  # "structural" | "enumerated"

    def __post_init__(self):
        if not 0 <= self.c <= self.n:
            raise ValueError("need 0 <= c <= n")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    def label(self) -> str:
        return f"[[{self.n},{self.kappa},{self.delta};{self.c}]]_{self.q}"

    def key(self) -> tuple[int, int, int, int]:
        return (self.n, self.kappa, self.delta, self.c)

    def to_json(self) -> dict:
        return {"n": self.n, "kappa": self.kappa, "delta": self.delta,
                "c": self.c, "q": self.q, "pure": self.pure,
                "delta_kind": self.delta_kind}


@dataclass(frozen=True)
class ClassicalIngredient:
    """What the quantum arithmetic needs to know about a classical code.

    ``delta`` is wt(C-perp-H minus Hull); for an MDS code with a proper
    hull this is the dual distance k+1, which is also the purity witness.
    """

    q: int
    n: int
    k: int
    hull_dim: int
    delta: int
    delta_kind: str = "structural"
    dual_min_distance: Optional[int] = None

    def __post_init__(self):
        prime_power(self.q)
        if not 0 <= self.hull_dim <= min(self.k, self.n - self.k):
            raise ValueError("hull dimension outside [0, min(k, n-k)]")
        if not 0 <= self.k <= self.n:
            raise ValueError("bad code dimension")


def mds_ingredient(q: int, n: int, k: int, hull_dim: int,
                   delta_kind: str = "structural") -> ClassicalIngredient:
    """Ingredient for an MDS [n, k] code: dual distance k+1."""
    return ClassicalIngredient(q=q, n=n, k=k, hull_dim=hull_dim,
                               delta=k + 1, delta_kind=delta_kind,
                               dual_min_distance=k + 1)


def eaqecc_from_code(ing: ClassicalIngredient) -> QuantumParams:
    """[[n, n-2k+c, delta; c]]_q with c = k - dim Hull."""
    c = ing.k - ing.hull_dim
    kappa = ing.n - 2 * ing.k + c
    pure = (ing.dual_min_distance is not None
            and ing.delta == ing.dual_min_distance)
    return QuantumParams(n=ing.n, kappa=kappa, delta=ing.delta, c=c, q=ing.q,
                         pure=pure, delta_kind=ing.delta_kind)


def propagate(params: QuantumParams, i: int, hull_dim: int) -> QuantumParams:
    """Trade i extra pre-shared pairs for i logical qudits (i <= hull dim)."""
    if params.q == 2:
        raise ValueError("the propagation rule requires q > 2")
    if not params.pure:
        raise ValueError("propagation needs a pure source code")
    if not 0 <= i <= hull_dim:
        raise ValueError(f"propagation step i = {i} outside [0, {hull_dim}]")
    if i == 0:
        return params
    return replace(params, kappa=params.kappa + i, c=params.c + i)


def singleton_check(params: QuantumParams) -> dict:
    """Slacks in the three Singleton-like bounds and the MDS verdict.

    bound1: kappa <= c + max(0, n - 2 delta + 2)
    bound2: kappa <= n - delta + 1
    bound3: kappa <= (n-delta+1)(c+2delta-2-n)/(3delta-3-n), when delta-1 >= n/2
    MDS means equality in bound1 when delta <= n/2, in bound3 when delta > n/2.
    """
    n, kappa, delta, c = params.n, params.kappa, params.delta, params.c
    slack1 = c + max(0, n - 2 * delta + 2) - kappa
    slack2 = (n - delta + 1) - kappa
    slack3: Optional[Fraction] = None
    if 2 * (delta - 1) >= n and (3 * delta - 3 - n) > 0:
        bound3 = Fraction((n - delta + 1) * (c + 2 * delta - 2 - n),
                          3 * delta - 3 - n)
        slack3 = bound3 - kappa
    if 2 * delta <= n:
        mds = slack1 == 0
    else:
        mds = slack3 == 0 if slack3 is not None else False
    return {
        "bound1_slack": slack1,
        "bound2_slack": slack2,
        "bound3_slack": slack3,
        "mds": mds,
    }


def chain_to_json(ing: ClassicalIngredient, max_steps: int = 2) -> list[dict]:
    """The EAQECC derived from an ingredient plus a few propagated variants."""
    base = eaqecc_from_code(ing)
    out = [base.to_json() | {"mds": singleton_check(base)["mds"]}]
    if base.pure and ing.q > 2:
        for i in range(1, min(ing.hull_dim, max_steps) + 1):
            p = propagate(base, i, ing.hull_dim)
            out.append(p.to_json() | {"mds": singleton_check(p)["mds"]})
    return out


# ----------------------------------------------------------------------
# Table regeneration
# ----------------------------------------------------------------------

#: Literature rows of the distance->7 comparison table at q = 7 (reference
#: data for dominance checks only; this artifact certifies nothing about them).
TABLE3_REFERENCE: tuple[tuple[int, int, int, int], ...] = (
    (50, 36, 8, 0),
    (50, 42, 9, 8), (50, 41, 10, 9), (50, 40, 11, 10), (50, 39, 12, 11),
    (50, 38, 13, 12), (50, 37, 14, 13), (50, 36, 15, 14), (50, 35, 16, 15),
    (50, 34, 17, 16), (50, 33, 18, 17), (50, 32, 19, 18), (50, 31, 20, 19),
    (50, 30, 21, 20), (50, 29, 22, 21), (50, 28, 23, 22), (50, 27, 24, 23),
    (50, 26, 25, 24),
    (49, 36, 8, 1), (49, 34, 9, 1), (49, 32, 10, 1), (49, 30, 11, 1),
    (49, 28, 12, 1), (49, 26, 13, 1),
    (25, 18, 8, 7), (25, 17, 9, 8), (25, 16, 10, 9), (25, 15, 11, 10),
    (25, 14, 12, 11), (25, 13, 13, 12),
    (25, 13, 9, 4), (25, 9, 11, 4), (25, 5, 13, 4),
    (24, 12, 8, 2), (24, 10, 9, 2), (24, 8, 10, 2),
    (24, 6, 12, 4), (24, 4, 13, 4),
)


def _dominated(row: QuantumParams) -> bool:
    """Is the row matched or beaten by a reference entry at the same (n, kappa)?"""
    for (n, kappa, delta, c) in TABLE3_REFERENCE:
        if n == row.n and kappa == row.kappa and delta >= row.delta and c <= row.c:
            return True
    return False


def table1_rows(q: int) -> list[dict]:
    """Distance/ebit trade-off rows: one family per construction, with the
    unassisted code, the 2-ebit variant, and the (k+u+1; 2u+2) ladder."""
    from . import grs  # deferred: grs imports this module's arithmetic

    rows: list[dict] = []

    def ladder(family: str, n: int, k: int, extra: dict) -> list[dict]:
        out = []
        for u in range(1, q - 2):
            kk = k + u
            try:
                info = grs.claim_arithmetic(family, q, k=kk, **extra)
            except ValueError:
                break
            if info["hull_dim"] != kk - 1:
                break
            ing = mds_ingredient(q, n, kk, kk - 1)
            base = eaqecc_from_code(ing)
            i = 2 * u + 1
            if i > kk - 1:
                break
            p = propagate(base, i, kk - 1)
            out.append({"u": u} | p.to_json())
        return out

    # family 1: full-length code, k = q.  Propagation needs q > 2, so at
    # q = 2 the row has no 2-ebit variant (as in chain_to_json); its ladder
    # range(1, q - 2) is empty, and families 2-4 have no row with k >= 2
    n = q * q
    ing = mds_ingredient(q, n, q, q - 1)
    q2 = propagate(eaqecc_from_code(ing), 1, q - 1) if q > 2 else None
    rows.append({
        "row": 1, "q": q, "n": n, "kappa": n - 2 * q + 2,
        "qecc": QuantumParams(n, n - 2 * q + 2, q, 0, q).to_json(),
        "eaqecc_2": q2.to_json() if q2 else None,
        "eaqecc_ladder": ladder("CON1E", n, q, {"z": 1}),
        "constraints": {"k": q},
    })

    # families 2-4: the shorter hull-MDS codes, 1 < k < q
    for row_no, family in ((2, "CON2"), (3, "CON3"), (4, "CON4")):
        for params in grs.family_parameter_grid(family, q):
            k = params["k"]
            if k < 2:  # these rows need a nonzero hull to trade on
                continue
            info = grs.claim_arithmetic(family, q, **params)
            n = info["n"]
            ing = mds_ingredient(q, n, k, k - 1)
            base = eaqecc_from_code(ing)
            q2 = propagate(base, 1, k - 1)
            lad = []
            for u in range(1, k - 1):
                kk = k + u
                try:
                    info2 = grs.claim_arithmetic(family, q, **(params | {"k": kk}))
                except ValueError:
                    break
                if info2["n"] != n:
                    break
                ing2 = mds_ingredient(q, n, kk, kk - 1)
                lad.append({"u": u} | propagate(
                    eaqecc_from_code(ing2), 2 * u + 1, kk - 1).to_json())
            rows.append({
                "row": row_no, "q": q, "n": n, "kappa": n - 2 * k + 2,
                "qecc": QuantumParams(n, n - 2 * k + 2, k, 0, q).to_json(),
                "eaqecc_2": q2.to_json(),
                "eaqecc_ladder": lad,
                "constraints": params,
            })

    # families 5-7: two-point evaluation codes; k below is the code dimension
    from . import ag
    for row_no, family in ((5, "COR1"), (6, "COR2"), (7, "COR3")):
        for params in ag.family_parameter_grid(family, q):
            n = params["n"]
            kdiv = params["k"]
            k = kdiv + 2
            rows.append({
                "row": row_no, "q": q, "n": n, "kappa": n - 2 * k + 2,
                "qecc": QuantumParams(n, n - 2 * k + 2, k, 0, q).to_json(),
                "eaqecc_2": QuantumParams(n, n - 2 * k + 2, k + 1, 2, q).to_json(),
                "eaqecc_ladder": [],
                "constraints": params,
            })
    return rows


def table2_rows(q: int) -> list[dict]:
    """EAQECCs with delta = dimension + 1 from the enlarged-hull families
    and from hull-dimension scaling of the two-point codes."""
    from . import ag, grs

    rows: list[dict] = []
    for row_no, family in ((1, "CON1E"), (2, "CON2E"), (3, "CON3E"),
                           (4, "CON3E"), (5, "CON4E"), (6, "CON4E")):
        want_small_f = row_no in (4, 6)
        for params in grs.family_parameter_grid(family, q):
            if family in ("CON3E", "CON4E"):
                small_f = params["f"] < params["z"]
                if small_f != want_small_f:
                    continue
            info = grs.claim_arithmetic(family, q, **params)
            n, k, hull = info["n"], params["k"], info["hull_dim"]
            ing = mds_ingredient(q, n, k, hull)
            p = eaqecc_from_code(ing)
            rows.append({"row": row_no, "q": q, "family": family,
                         "constraints": params} | p.to_json())
    for row_no, family in ((7, "COR1"), (8, "COR2"), (9, "COR3")):
        for params in ag.family_parameter_grid(family, q):
            n, kdiv = params["n"], params["k"]
            k = kdiv + 2
            for ell in range(kdiv, -1, -1):
                c = k - ell
                p = QuantumParams(n, n - 2 * k + c, k + 1, c, q)
                rows.append({"row": row_no, "q": q, "family": family,
                             "constraints": params | {"hull_dim": ell}}
                            | p.to_json())
    return rows


def table3_new_rows(q: int) -> list[dict]:
    """Rows with distance above q from the enlarged-hull constructions,
    dominance-checked against the reference dataset.

    Uses the full verified parameter ranges (wider in z than the
    conservative ones), which the longer-distance rows require.
    """
    from . import grs

    rows: list[dict] = []
    seen: set[tuple[int, int, int, int]] = set()
    for family in ("CON1E", "CON2E", "CON3E", "CON4E"):
        for params in grs.family_parameter_grid(family, q, conservative=False):
            info = grs.claim_arithmetic(family, q, **params)
            n, k, hull = info["n"], params["k"], info["hull_dim"]
            if hull < 0:
                continue
            ing = mds_ingredient(q, n, k, hull)
            p = eaqecc_from_code(ing)
            if p.delta <= q or 2 * p.delta > n:
                continue
            chk = singleton_check(p)
            if not chk["mds"]:
                continue
            if p.key() in seen:
                continue
            seen.add(p.key())
            rows.append({"family": family, "constraints": params,
                         "dominated": _dominated(p),
                         "mds": True} | p.to_json())
    rows.sort(key=lambda r: (-r["n"], r["c"], r["delta"]))
    return rows


def emit_tables(q: int) -> dict:
    prime_power(q)
    return {
        "table1": table1_rows(q),
        "table2": table2_rows(q),
        "table3_new": table3_new_rows(q),
    }
