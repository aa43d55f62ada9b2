"""Quantum code parameters derived from classical codes over GF(q^2).

An MDS [n, k] code over GF(q^2) with Hermitian hull dimension l yields an
entanglement-assisted code [[n, n-2k+c, k+1; c]]_q with c = k - l
(Guenda, Jitman and Gulliver, DCC 86, 2018): its Hermitian dual is MDS of
distance k+1, so delta is that distance, recorded "structurally", and the
code is pure.  ``eaqecc`` is the one entry point from (q, n, k, l) to
parameters.  Also: propagation (kappa and c both +i, i up to the hull
dimension), the three Singleton-like bounds with exact slacks, and
regeneration of the parameter tables at a given alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .gf import prime_power

#: propagated variants ``chain_to_json`` adds after the base code
CHAIN_STEPS = 2


@dataclass(frozen=True)
class QuantumParams:
    """[[n, kappa, delta; c]]_q; c = 0 marks a plain (unassisted) code."""

    n: int
    kappa: int
    delta: int
    c: int
    q: int

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
        # every code here is pure with the structural delta k + 1
        return {"n": self.n, "kappa": self.kappa, "delta": self.delta,
                "c": self.c, "q": self.q, "pure": True,
                "delta_kind": "structural"}


def eaqecc(q: int, n: int, k: int, hull_dim: int) -> QuantumParams:
    """[[n, n-2k+c, k+1; c]]_q with c = k - hull_dim, from an MDS [n, k]
    code over GF(q^2) whose Hermitian hull has dimension ``hull_dim``."""
    prime_power(q)
    if not 0 <= hull_dim <= min(k, n - k):
        raise ValueError("hull dimension outside [0, min(k, n-k)]")
    if not 0 <= k < n:
        # at k = n the Hermitian dual is {0}, which has no minimum distance
        raise ValueError("bad code dimension: need 0 <= k < n")
    c = k - hull_dim
    return QuantumParams(n=n, kappa=n - 2 * k + c, delta=k + 1, c=c, q=q)


def propagate(params: QuantumParams, i: int, hull_dim: int) -> QuantumParams:
    """Trade i extra pre-shared pairs for i logical qudits (i <= hull dim)."""
    if params.q == 2:
        raise ValueError("the propagation rule requires q > 2")
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


def json_with_mds(params: QuantumParams) -> dict:
    """``params.to_json()`` plus its Singleton MDS verdict."""
    return params.to_json() | {"mds": singleton_check(params)["mds"]}


def chain_to_json(q: int, n: int, k: int, hull_dim: int) -> list[dict]:
    """The EAQECC of an MDS [n, k] code with the given hull, then up to
    ``CHAIN_STEPS`` propagated variants (none at q = 2); nothing at k = n,
    where the dual is {0} and no delta exists."""
    if k == n:
        return []
    base = eaqecc(q, n, k, hull_dim)
    chain = [base]
    if q > 2:
        chain += [propagate(base, i, hull_dim)
                  for i in range(1, min(hull_dim, CHAIN_STEPS) + 1)]
    return [json_with_mds(p) for p in chain]


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
    from . import ag, grs  # deferred: grs imports this module's arithmetic

    def row(row_no: int, n: int, k: int, eaqecc_2: Optional[QuantumParams],
            ladder: list[dict], constraints: dict) -> dict:
        # the unassisted code is the hull itself, [n, k-1] and self-orthogonal
        qecc = eaqecc(q, n, k - 1, k - 1)
        return {"row": row_no, "q": q, "n": n, "kappa": qecc.kappa,
                "qecc": qecc.to_json(),
                "eaqecc_2": eaqecc_2.to_json() if eaqecc_2 else None,
                "eaqecc_ladder": ladder, "constraints": constraints}

    def grs_row(row_no: int, n: int, k: int, family: str, params: dict,
                constraints: dict) -> dict:
        """A hull-MDS [n, k] GRS row; rung u of its ladder is the family's
        code of dimension k+u at the same length n, propagated 2u+1 steps."""
        ladder = []
        for u in range(1, k - 1):
            try:
                info = grs.claim_arithmetic(family, q, **(params | {"k": k + u}))
            except ValueError:
                break
            if info["n"] != n:
                break
            rung = propagate(eaqecc(q, n, k + u, k + u - 1), 2 * u + 1,
                             k + u - 1)
            ladder.append({"u": u} | rung.to_json())
        # propagation needs q > 2: at q = 2 the row has no 2-ebit variant
        # (as in chain_to_json); families 2-4 have no row with k >= 2 there
        q2 = propagate(eaqecc(q, n, k, k - 1), 1, k - 1) if q > 2 else None
        return row(row_no, n, k, q2, ladder, constraints)

    # family 1: the full-length code k = q, laddered through CON1E at z = 1
    rows = [grs_row(1, q * q, q, "CON1E", {"z": 1}, {"k": q})]
    # families 2-4: the shorter hull-MDS codes, 1 < k < q
    for row_no, family in ((2, "CON2"), (3, "CON3"), (4, "CON4")):
        for params in grs.family_parameter_grid(family, q):
            if params["k"] < 2:  # these rows need a nonzero hull to trade on
                continue
            n = grs.claim_arithmetic(family, q, **params)["n"]
            rows.append(grs_row(row_no, n, params["k"], family, params, params))
    # families 5-7: two-point evaluation codes of dimension k + 2 whose
    # hull has the divisor dimension k; at k + 2 = n there is no 2-ebit code
    for row_no, family in ((5, "COR1"), (6, "COR2"), (7, "COR3")):
        for params in ag.family_parameter_grid(family, q):
            n, kdiv = params["n"], params["k"]
            q2 = eaqecc(q, n, kdiv + 2, kdiv) if kdiv + 2 < n else None
            rows.append(row(row_no, n, kdiv + 2, q2, [], params))
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
            p = eaqecc(q, info["n"], params["k"], info["hull_dim"])
            rows.append({"row": row_no, "q": q, "family": family,
                         "constraints": params} | p.to_json())
    for row_no, family in ((7, "COR1"), (8, "COR2"), (9, "COR3")):
        for params in ag.family_parameter_grid(family, q):
            n, kdiv = params["n"], params["k"]
            if kdiv + 2 >= n:  # the whole space: no delta exists
                continue
            for ell in range(kdiv, -1, -1):
                p = eaqecc(q, n, kdiv + 2, ell)
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
            p = eaqecc(q, info["n"], params["k"], info["hull_dim"])
            if p.delta <= q or 2 * p.delta > p.n:
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
