"""Quantum code parameters derived from classical codes over GF(q^2).

An MDS [n, k] code over GF(q^2) with Hermitian hull dimension l yields an
entanglement-assisted code [[n, n-2k+c, k+1; c]]_q with c = k - l
(Guenda, Jitman and Gulliver, DCC 86, 2018): its Hermitian dual is MDS of
distance k+1, so delta is that distance, recorded "structurally", and the
code is pure.  ``eaqecc`` is the one entry point from (q, n, k, l) to
parameters.  Also: propagation (kappa and c both +i, i up to the hull
dimension), the three Singleton-like bounds with exact slacks, and the
parameter tables at a given alphabet, each row read off a verified report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .gf import prime_power, quadratic_field
from .report import FAIL, STATUS_PASS

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


def _checked_c(q: int, n: int, k: int, hull_dim: int) -> int:
    """c = k - hull_dim, after the checks of ``eaqecc`` on its arguments."""
    prime_power(q)
    if not 0 <= hull_dim <= min(k, n - k):
        raise ValueError("hull dimension outside [0, min(k, n-k)]")
    if not 0 <= k < n:
        # at k = n the Hermitian dual is {0}, which has no minimum distance
        raise ValueError("bad code dimension: need 0 <= k < n")
    return k - hull_dim


def eaqecc(q: int, n: int, k: int, hull_dim: int) -> QuantumParams:
    """[[n, n-2k+c, k+1; c]]_q with c = k - hull_dim, from an MDS [n, k]
    code over GF(q^2) whose Hermitian hull has dimension ``hull_dim``."""
    c = _checked_c(q, n, k, hull_dim)
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


def _is_mds(n: int, kappa: int, delta: int, c: int) -> bool:
    """Equality in bound1 when 2 delta <= n, else in bound3 (see
    ``singleton_check``), cross-multiplied by its positive denominator; a
    code with 2 delta > n that bound3 does not cover (2 delta = n + 1, or
    3 delta - 3 - n <= 0) is not MDS."""
    if 2 * delta <= n:
        return kappa == c + n - 2 * delta + 2
    den = 3 * delta - 3 - n
    return (2 * (delta - 1) >= n and den > 0
            and kappa * den == (n - delta + 1) * (c + 2 * delta - 2 - n))


def singleton_check(params: QuantumParams) -> dict:
    """Slacks in the three Singleton-like bounds and the MDS verdict.

    bound1: kappa <= c + max(0, n - 2 delta + 2)
    bound2: kappa <= n - delta + 1
    bound3: kappa <= (n-delta+1)(c+2delta-2-n)/(3delta-3-n), when delta-1 >= n/2
    MDS means equality in bound1 when delta <= n/2, in bound3 when delta > n/2
    (``_is_mds``, the one MDS formula, which ``chain_to_json`` reads too).
    """
    n, kappa, delta, c = params.n, params.kappa, params.delta, params.c
    slack1 = c + max(0, n - 2 * delta + 2) - kappa
    slack2 = (n - delta + 1) - kappa
    slack3: Optional[Fraction] = None
    if 2 * (delta - 1) >= n and (3 * delta - 3 - n) > 0:
        bound3 = Fraction((n - delta + 1) * (c + 2 * delta - 2 - n),
                          3 * delta - 3 - n)
        slack3 = bound3 - kappa
    return {"bound1_slack": slack1, "bound2_slack": slack2,
            "bound3_slack": slack3, "mds": _is_mds(n, kappa, delta, c)}


def json_with_mds(params: QuantumParams) -> dict:
    """``params.to_json()`` plus its Singleton MDS verdict."""
    return params.to_json() | {"mds": singleton_check(params)["mds"]}


def chain_to_json(q: int, n: int, k: int, hull_dim: int) -> list[dict]:
    """The EAQECC of an MDS [n, k] code with the given hull, then up to
    ``CHAIN_STEPS`` propagated variants (none at q = 2); nothing at k = n,
    where the dual is {0} and no delta exists.

    Equal, entry for entry, to ``json_with_mds`` of ``eaqecc`` and its
    ``propagate`` steps, with the same ``ValueError`` on bad arguments,
    but in integer arithmetic: the arguments are checked once, and step i,
    [[n, kappa + i, k + 1; c + i]]_q, which lies inside every bound of
    ``QuantumParams`` since i <= hull_dim, is written as its dict
    directly, with ``mds`` from ``_is_mds``.
    """
    if k == n:
        return []
    c = _checked_c(q, n, k, hull_dim)
    kappa, delta = n - 2 * k + c, k + 1
    steps = min(hull_dim, CHAIN_STEPS) if q > 2 else 0
    return [{"n": n, "kappa": kappa + i, "delta": delta, "c": c + i, "q": q,
             "pure": True, "delta_kind": "structural",
             "mds": _is_mds(n, kappa + i, delta, c + i)}
            for i in range(steps + 1)]


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
    return any(n == row.n and kappa == row.kappa and delta >= row.delta
               and c <= row.c for n, kappa, delta, c in TABLE3_REFERENCE)


def _view(q: int, rep) -> QuantumParams:
    """The EAQECC of a report's code and its hull, measured by Gram rank."""
    return eaqecc(q, rep.code["n"], rep.code["k"], rep.hull["dim_gram"])


def _passed(rep, check: str) -> bool:
    return any(c.name == check and c.status == STATUS_PASS for c in rep.checks)


#: the derived parameter of each module's claims: the coset index s of a
#: GRS family, the extra place p of a two-point code
_DERIVED = {"grs": "s", "ag": "p"}


def _grid(claim) -> dict:
    """A claim's grid parameters, without its module's derived one."""
    return {k: v for k, v in claim.params.items()
            if k != _DERIVED[claim.module]}


#: table rows per family; in table2, CON3E and CON4E take the next row
#: number when f < z
_TABLE1_ROWS = {"CON1": 1, "CON2": 2, "CON3": 3, "CON4": 4,
                "COR1": 5, "COR2": 6, "COR3": 7}
_TABLE2_ROWS = {"CON1E": 1, "CON2E": 2, "CON3E": 3, "CON4E": 5,
                "COR1": 7, "COR2": 8, "COR3": 9}


def _table1(q: int, grs_runs: list, cor_runs: list) -> list[dict]:
    """Per construction: the unassisted code (a self-orthogonal MDS hull),
    the 2-ebit variant and the (k+u+1; 2u+2) ladder."""
    by_key = {(c.family, frozenset(_grid(c).items())): r for c, r in grs_runs}
    found = []  # (row, n, unassisted dimension, 2-ebit variant, ladder, grid)
    # rows 1-4: GRS codes whose nonzero hull equals their GRS subcode; rung
    # u of the ladder is the family's code of dimension k+u at the same
    # length (CON1E at z = 1 for CON1), propagated 2u+1 steps
    for claim, rep in grs_runs:
        n, k, hull = rep.code["n"], rep.code["k"], rep.hull["dim_gram"]
        if (claim.family not in _TABLE1_ROWS or k < 2
                or not _passed(rep, "hull_equality")):
            continue
        family, params = claim.family, _grid(claim)
        if family == "CON1":
            family, params = "CON1E", {"z": 1}
        ladder = []
        for u in range(1, k - 1):
            rung = by_key.get((family, frozenset((params | {"k": k + u}).items())))
            if rung is None or rung.code["n"] != n:
                break
            ladder.append({"u": u} | propagate(
                _view(q, rung), 2 * u + 1, rung.hull["dim_gram"]).to_json())
        # propagation needs q > 2: at q = 2 there is no 2-ebit variant
        found.append((_TABLE1_ROWS[claim.family], n, hull,
                      propagate(_view(q, rep), 1, hull) if q > 2 else None,
                      ladder, _grid(claim)))
    # rows 5-7: two-point [n, k] codes whose one-point part, of dimension
    # k - 1, is self-orthogonal; at k = n there is no 2-ebit code
    for claim, rep in cor_runs:
        n, k = rep.code["n"], rep.code["k"]
        if _passed(rep, "self_orthogonal_subcode"):
            found.append((_TABLE1_ROWS[claim.family], n, k - 1,
                          _view(q, rep) if k < n else None, [], _grid(claim)))
    rows = []
    for row_no, n, dim, q2, ladder, constraints in found:
        qecc = eaqecc(q, n, dim, dim)
        rows.append({"row": row_no, "q": q, "n": n, "kappa": qecc.kappa,
                     "qecc": qecc.to_json(),
                     "eaqecc_2": q2.to_json() if q2 else None,
                     "eaqecc_ladder": ladder, "constraints": constraints})
    return rows


def _table2(q: int, grs_runs: list, cor_runs: list) -> list[dict]:
    """EAQECCs with delta = k + 1: the enlarged-hull families in their
    conservative ranges, and pivot scalings of the two-point codes."""
    from . import ag  # deferred: ag imports this module

    rows = []
    for claim, rep in grs_runs:
        p = claim.params
        if claim.family in _TABLE2_ROWS and claim.conservative_range:
            row_no = _TABLE2_ROWS[claim.family] + (
                claim.family in ("CON3E", "CON4E") and p["f"] < p["z"])
            rows.append({"row": row_no, "q": q, "family": claim.family,
                         "constraints": _grid(claim)} | _view(q, rep).to_json())
    try:
        ag.default_scaling_element(quadratic_field(q))
        scalable = True
    except ValueError:  # every norm is +-1 (q = 2, 3): no pivot scaling
        scalable = False
    for claim, rep in cor_runs:
        n, k = rep.code["n"], rep.code["k"]
        if k == n:  # the whole space: no delta exists
            continue
        hulls = [rep.hull["dim_gram"]]
        if scalable:
            hulls += [h for ell, h in ag.scale_sweep(claim).items() if ell]
        rows += [{"row": _TABLE2_ROWS[claim.family], "q": q,
                  "family": claim.family,
                  "constraints": _grid(claim) | {"hull_dim": h}}
                 | eaqecc(q, n, k, h).to_json() for h in hulls]
    # stable: each row keeps the sweep order of its instances
    return sorted(rows, key=lambda r: r["row"])


def _table3_new(q: int, grs_runs: list) -> list[dict]:
    """Rows with delta > q, dominance-checked against the reference data."""
    rows = []
    seen: set[tuple[int, int, int, int]] = set()
    for claim, rep in grs_runs:
        p = _view(q, rep) if claim.family.endswith("E") else None
        if (p is None or p.delta <= q or 2 * p.delta > p.n
                or not singleton_check(p)["mds"] or p.key() in seen):
            continue
        seen.add(p.key())
        rows.append({"family": claim.family, "constraints": _grid(claim),
                     "dominated": _dominated(p), "mds": True} | p.to_json())
    return sorted(rows, key=lambda r: (-r["n"], r["c"], r["delta"]))


def emit_tables(q: int) -> dict:
    """The three parameter tables at q, each row a view of a non-FAIL
    report of the sweeps that ``verify-all`` runs (GRS on the full grids)."""
    from . import ag, grs  # deferred: both import this module

    grs_runs = [(claim, rep) for claim, rep in grs.sweep(q, conservative=False)
                if rep.verdict != FAIL]
    cor_runs = [(claim, rep) for claim, rep in ag.sweep(q)
                if rep.verdict != FAIL]
    return {"table1": _table1(q, grs_runs, cor_runs),
            "table2": _table2(q, grs_runs, cor_runs),
            "table3_new": _table3_new(q, grs_runs)}
