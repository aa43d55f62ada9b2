"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line with its wall-clock
time and enforces the stated limit.  Tolerances are exact equalities
throughout; distance claims are enumerated whenever the stated budgets
allow and otherwise certified structurally, as labeled.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (euclidean_dual, hull_dim_via_gram, quantum_tables,
                      two_point_rows)
from hermhull import ag, cyclic, grs, quantum
from hermhull.ag import Divisor, O, finite
from hermhull.gf import quadratic_field
from hermhull.linalg_codes import LinearCode
from hermhull.report import STATUS_PASS, STATUS_SKIPPED


@contextmanager
def criterion(capsys, name, limit_seconds):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
                  f"({elapsed:.1f}s, limit {limit_seconds}s)")
        if ok:
            assert elapsed < limit_seconds, f"{name} exceeded its time limit"


def test_criterion_1_full_length_family_end_to_end(capsys):
    """Hull of the dimension-q full-length code equals the dimension-(q-1)
    code on the same vectors, with the exact hull distance q^2 - q + 2."""
    with criterion(capsys, "1 full-length hulls q=3,4,5", 30):
        for q in (3, 4, 5):
            claim = grs.construct_family("CON1", q)
            code = claim.spec.code()
            hull = code.hermitian_hull()
            assert hull.k == q - 1
            assert hull == claim.subcode.code()          # RREF equality
            fresh = LinearCode.from_rows(code.field, claim.subcode.generator())
            assert fresh.min_distance(budget=q ** 8) == q * q - q + 2


def test_criterion_2_short_family_sweep(capsys):
    """All in-range instances of the three shortened families at
    q = 4, 5, 7: hull dimension k-1 by Gram rank and (within budget) by
    intersection; the hull equals the claimed subcode."""
    with criterion(capsys, "2 shortened-family sweep q=4,5,7", 120):
        budget = 10 ** 8
        count = 0
        for q in (4, 5, 7):
            for family in ("CON2", "CON3", "CON4"):
                for params in grs.family_parameter_grid(family, q):
                    claim = grs.construct_family(family, q, **params)
                    rep = grs.verify_claim(claim, budget=budget,
                                           distance_budget=10 ** 5)
                    assert rep.verdict != "FAIL", (family, q, params,
                                                   rep.first_failure)
                    by_name = {c.name: c for c in rep.checks}
                    assert by_name["hull_dim_gram"].status == STATUS_PASS
                    assert by_name["hull_equality"].status == STATUS_PASS
                    inter = by_name["hull_dim_intersection"]
                    if claim.spec.field.order ** claim.spec.k <= budget:
                        assert inter.status == STATUS_PASS
                    else:
                        assert inter.status == STATUS_SKIPPED
                    count += 1
        assert count >= 40


def test_criterion_3_enlarged_family_sweep(capsys):
    """All conservative-range instances of the enlarged families at q = 5, 7:
    Gram rank exactly z^2, 2z^2 or z^2 + zf per branch, and the claimed
    subcode rows are members of the hull."""
    with criterion(capsys, "3 enlarged-family sweep q=5,7", 120):
        count = 0
        for q in (5, 7):
            for family in ("CON1E", "CON2E", "CON3E", "CON4E"):
                for params in grs.family_parameter_grid(family, q):
                    claim = grs.construct_family(family, q, **params)
                    z, f = params["z"], params.get("f")
                    if family in ("CON1E", "CON2E"):
                        want = z * z
                    elif f >= z:
                        want = 2 * z * z
                    else:
                        want = z * z + z * f
                    from hermhull.linalg_codes import matrix_rank
                    rank = matrix_rank(claim.spec.field, grs.natural_gram(claim.spec))
                    assert rank == want, (family, q, params, rank)
                    rep = grs.verify_claim(claim, budget=10 ** 7,
                                           distance_budget=10 ** 4)
                    by_name = {c.name: c for c in rep.checks}
                    assert by_name["subcode_in_hull"].status == STATUS_PASS
                    assert by_name["hull_dim_gram"].status == STATUS_PASS
                    count += 1
        assert count >= 12


def test_criterion_4_two_point_families(capsys):
    """Every in-range two-point instance at q = 3, 4, 5: parameters
    [n, k+2, n-k-1] with the distance enumerated independently of the
    report, on the eliminated code of the scaled rows, and an enumerated
    MDS hull of dimension k, the eliminated hull, for k <= 3."""
    with criterion(capsys, "4 two-point families q=3,4,5", 300):
        for q in (3, 4, 5):
            F = quadratic_field(q)
            for family in ("COR1", "COR2", "COR3"):
                for params in ag.family_parameter_grid(family, q):
                    kwargs = {k2: v for k2, v in params.items()
                              if k2 in ("s", "t", "n0")}
                    U = ag.evaluation_set(family, q, **kwargs)
                    k = params["k"]
                    claim, rep = ag.two_point_code(U, k,
                                                   distance_budget=10 ** 8)
                    n = len(U.points)
                    code = LinearCode.from_rows(F, two_point_rows(claim))
                    assert (code.n, code.k) == (n, k + 2)
                    assert rep.verdict == "PASS", \
                        (family, q, params, rep.first_failure)
                    if (q * q) ** (k + 2) <= 10 ** 8:
                        assert code.min_distance(10 ** 8) == n - k - 1
                    hull = code.hermitian_hull()
                    assert hull.k == k and hull == claim.subcode.code()
                    if 0 < k <= 3:
                        assert hull.min_distance() == n - k + 1


GOLDEN_Q5_POINT_LOGS = [None, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                        11, 13, 14, 15, 16, 18, 19, 22, 23, 0]
GOLDEN_Q5_RESIDUE_LOGS = [22, 22, 21, 21, 0, 0, 22, 23, 0, 23,
                          22, 0, 0, 21, 23, 21, 22, 23, 23, 21]
GOLDEN_Q5_GENERATOR = """
t22 t22 t21 t21 1 1 t22 t23 1 t23 t22 1 1 t21 t23 t21 t22 t23 t23 t21
0 t11 t11 4 t16 3 t17 t21 t23 t23 t23 t2 t3 t1 t4 t3 t5 t7 t8 t8
0 1 t1 t3 t8 4 4 t19 t22 t23 1 t4 2 t5 t9 t9 4 t15 t17 t19
0 t13 t15 3 1 2 t7 t17 t21 t23 t1 2 t9 t9 t14 t15 t19 t23 t2 2
1 t22 t3 t22 t14 t7 t17 t19 t4 t8 t14 t3 4 t5 t17 t19 t13 4 t9 3
"""


def _golden_points(F):
    return [0 if e is None else F.alpha_pow(e) for e in GOLDEN_Q5_POINT_LOGS]


def _golden_generator(F):
    def parse(tok):
        if tok.startswith("t"):
            return F.alpha_pow(int(tok[1:]))
        return F.from_subfield(int(tok))
    rows = [[parse(t) for t in line.split()]
            for line in GOLDEN_Q5_GENERATOR.strip().splitlines()]
    return np.array(rows, dtype=np.int32)


@pytest.mark.xfail(
    strict=True,
    reason="the golden residue vector is not the residue vector of dx/h on "
           "the listed points: 1/h'(u) is provably constant on the additive "
           "classes of the set with subfield class ratios, which the golden "
           "values violate; see the decisions ledger")
def test_criterion_5_residues_as_golden_listed(capsys):
    F = quadratic_field(5)
    U = _golden_points(F)
    dd = ag.residues(F, U)
    got = [F.log_of(r) for r in dd.residues]
    assert got == GOLDEN_Q5_RESIDUE_LOGS


def test_criterion_5_twenty_point_golden_example(capsys):
    """The GF(25) twenty-point example: the golden scaling vector scales the
    evaluation code (in the golden matrix's own column order) to exactly the
    golden generator; the row space has hull dimension 3 and hull distance
    18.  The canonical pipeline verifies the same evaluation set end to end,
    with the true dx/h residues pinned alongside."""
    with criterion(capsys, "5 GF(25) golden example", 60):
        F = quadratic_field(5)
        U = _golden_points(F)
        P = F.alpha_pow(10)

        # exact raw residues of dx/h on the listed set (class-constant)
        dd = ag.residues(F, U)
        assert [F.log_of(r) for r in dd.residues] == \
            [8, 8, 20, 20, 2, 14, 2, 8, 14, 14, 2, 8, 2, 2, 20, 20, 8, 14, 20, 14]

        # the golden scaling vector and generator live on the rotated order
        # (P1, P12..P20, P2..P11); entry-wise reproduction:
        rot = [0] + list(range(11, 20)) + list(range(1, 11))
        pts = [U[i] for i in rot]
        scale = np.array([F.alpha_pow(e) for e in GOLDEN_Q5_RESIDUE_LOGS],
                         dtype=np.int32)
        ev = ag.evaluation_code(F, pts, Divisor.of((O, 3), (finite(P), 1)))
        scaled = F.mul_arr(ev.rows, scale[None, :])
        assert np.array_equal(scaled, _golden_generator(F))

        code = LinearCode.from_rows(F, scaled, n=20)
        assert code == LinearCode.from_rows(F, _golden_generator(F))
        hull = code.hermitian_hull()
        assert hull.k == 3
        assert hull.min_distance() == 18

        # canonical norm-witness pipeline on the same twenty points
        claim, rep = ag.two_point_code(ag.residues(F, U), 3, p=P,
                                       distance_budget=25 ** 5)
        own = LinearCode.from_rows(F, two_point_rows(claim)).hermitian_hull()
        assert own == claim.subcode.code() and rep.hull["dim_gram"] == 3
        assert own.min_distance() == 18
        assert rep.verdict == "PASS"


def test_criterion_6_evaluation_set_growth(capsys):
    """Recursive growth with from-scratch re-verification: sizes 7 and 9
    over GF(25) via Frobenius-conjugate pairs, and size 13 over GF(49) in
    three steps."""
    with criterion(capsys, "6 evaluation-set growth", 60):
        F25 = quadratic_field(5)
        start5 = [F25.from_subfield(s) for s in range(5)]
        g5 = ag.extend_evaluation_set(F25, start5, max_steps=2)
        assert g5.status == "ok"
        assert [len(s.points) for s in g5.steps] == [7, 9]
        for step in g5.steps:
            assert step.conjugate
            assert ag._derivative_norm_condition(F25, step.points)

        F49 = quadratic_field(7)
        start7 = [F49.from_subfield(s) for s in range(7)]
        g7 = ag.extend_evaluation_set(F49, start7, max_steps=3)
        assert g7.status == "ok" and len(g7.final) == 13
        assert ag._derivative_norm_condition(F49, g7.final)


def test_criterion_7_bilinear_code_oracle(capsys):
    """The bilinear solution space of the full-length pair construction
    equals the extended cyclic code, with dimension q^2 - 2lk + l^2."""
    with criterion(capsys, "7 bilinear-code oracle q=3", 30):
        q = 3
        F = quadratic_field(q)
        b = [F.alpha_pow(i) for i in range(q * q - 1)] + [0]
        for k in (1, 2, 3):
            rows_k = [[F.pow(x, i) if (x or i == 0) else 0 for x in b]
                      for i in range(k)]
            Ck = LinearCode.from_rows(F, np.array(rows_k, dtype=np.int32))
            for ell in range(1, k + 1):
                Cl = LinearCode.from_rows(
                    F, np.array(rows_k[:ell], dtype=np.int32))
                P = cyclic.rains_p(Ck, Cl)
                D = cyclic.defining_set_dkl(q, k, ell)
                E = cyclic.cyclic_from_defining_set(
                    q * q - 1, q, D).code.extend_sum_zero()
                assert P == E, (k, ell)
                assert P.k == q * q - 2 * ell * k + ell * ell


TABLE3_NEW_ENTRIES = [
    (49, 25, 15, 4), (49, 23, 16, 4), (49, 21, 17, 4), (49, 19, 18, 4),
    (49, 16, 22, 9), (49, 14, 23, 9), (49, 12, 24, 9),
    (41, 29, 8, 2), (41, 27, 9, 2), (41, 25, 10, 2), (41, 23, 11, 2),
    (41, 19, 15, 6), (41, 17, 16, 6), (41, 15, 17, 6),
    (33, 21, 8, 2), (33, 19, 9, 2), (33, 17, 10, 2),
    (25, 13, 8, 2), (25, 11, 9, 2),
]


def test_criterion_8_quantum_tables(capsys):
    """The q = 7 table of new distance->7 entries is read off the verified
    reports of the full-grid sweep (measured hull, parameter arithmetic),
    each row meeting its Singleton-like bound with equality (structural
    distances, as labeled)."""
    with criterion(capsys, "8 quantum tables q=7", 10):
        rows = quantum_tables(7)["table3_new"]
        keys = {(r["n"], r["kappa"], r["delta"], r["c"]): r for r in rows}
        for entry in TABLE3_NEW_ENTRIES:
            assert entry in keys, entry
            row = keys[entry]
            p = quantum.QuantumParams(*entry, q=7)
            assert quantum.singleton_check(p)["bound1_slack"] == 0
            assert row["mds"] and not row["dominated"]
            assert row["delta_kind"] == "structural"
        # the golden (33,10,16;8) fails its own bound equality; the
        # construction-derived row is (33,11,16;8) and is tight
        assert (33, 11, 16, 8) in keys
        assert quantum.singleton_check(
            quantum.QuantumParams(33, 11, 16, 8, 7))["bound1_slack"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="the golden entry (33,10,16;8) violates bound equality "
           "(slack 1) and is not derivable from the construction claims; "
           "the derived tight row is (33,11,16;8)")
def test_criterion_8_golden_entry_as_listed(capsys):
    rows = quantum_tables(7)["table3_new"]
    keys = {(r["n"], r["kappa"], r["delta"], r["c"]) for r in rows}
    assert (33, 10, 16, 8) in keys


def test_criterion_9_property_suite(capsys):
    """500 random codes across the four smallest quadratic extensions:
    double duals, rank-nullity, hull symmetry, Gram/intersection agreement;
    200 random evaluation sets satisfy the residue theorem."""
    with criterion(capsys, "9 property suite", 120):
        rng = np.random.default_rng(20260809)
        per_q = {2: 125, 3: 125, 4: 125, 5: 125}
        for q, reps in per_q.items():
            F = quadratic_field(q)
            for _ in range(reps):
                n = int(rng.integers(2, 11))
                k = int(rng.integers(1, min(n, 5) + 1))
                M = rng.integers(0, F.order, size=(k, n)).astype(np.int32)
                C = LinearCode.from_rows(F, M, n=n)
                assert euclidean_dual(euclidean_dual(C)) == C
                assert C.hermitian_dual().hermitian_dual() == C
                assert C.k + C.hermitian_dual().k == n
                hull = C.hermitian_hull()
                assert hull == C.hermitian_dual().hermitian_hull()
                assert hull.k == hull_dim_via_gram(C)
        for q in (3, 4, 5, 7):
            F = quadratic_field(q)
            for _ in range(50):
                size = int(rng.integers(2, min(F.order, 14)))
                pts = rng.choice(F.order, size=size, replace=False)
                dd = ag.residues(F, [int(x) for x in pts])
                total = 0
                for r in dd.residues:
                    total = F.add(total, r)
                assert total == 0
