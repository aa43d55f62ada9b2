import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from hermhull import ag, grs, polys
from hermhull.ag import (Divisor, O, RationalFunction, default_extra_point,
                         default_scaling_element, evaluation_code,
                         evaluation_set, extend_evaluation_set, finite,
                         lbasis, residues, rr_dim, scale_sweep,
                         two_point_code)
from hermhull.gf import quadratic_field
from hermhull.grs import GrsSpec
from hermhull.linalg_codes import (DEFAULT_BUDGET, LinearCode, conjugate,
                                   gram_matrix, mat_mul, matrix_rank)
from hermhull.report import STATUS_FAIL, STATUS_PASS, ConstructionReport

from conftest import is_hermitian_self_orthogonal, two_point_rows


def subfield_points(F):
    return [F.from_subfield(s) for s in range(F.q)]


def test_divisor_lattice_ops(F25):
    P = finite(F25.alpha)
    G = Divisor.of((O, 3), (P, 1))
    H = Divisor.of((O, 8), (P, -1))
    assert G.wedge(G) == G and G.vee(G) == G
    assert G.wedge(H) == Divisor.of((O, 3), (P, -1))
    assert G.vee(H) == Divisor.of((O, 8), (P, 1))
    assert (G.wedge(H).degree() + G.vee(H).degree()
            == G.degree() + H.degree())
    assert (G + H).degree() == 11 and (G - H).degree() == -3
    assert H >= Divisor.of((O, 8), (P, -1))
    assert not (H >= G)


def test_two_point_divisor_bookkeeping(F25):
    # G' = kO + P and H' = (n-k-2)O - P meet in kO - P and join to degree n-k-1
    n, k = 13, 1
    P = finite(F25.alpha_pow(3))
    Gp = Divisor.of((O, k), (P, 1))
    Hp = Divisor.of((O, n - k - 2), (P, -1))
    assert Gp.wedge(Hp) == Divisor.of((O, k), (P, -1))
    assert Gp.vee(Hp).degree() == n - k - 1


def test_rr_dim():
    assert rr_dim(Divisor.of((O, -1))) == 0
    assert rr_dim(Divisor()) == 1
    assert rr_dim(Divisor.one_point(4)) == 5
    assert rr_dim(Divisor.of((O, 4), (finite(0), 1))) == 6


def test_lbasis_shapes(F25):
    assert [f.num for f in lbasis(F25, Divisor())] == [(1,)]
    assert [f.num for f in lbasis(F25, Divisor.one_point(2))] == \
        [(1,), (0, 1), (0, 0, 1)]
    p = F25.alpha_pow(10)
    G = Divisor.of((O, 3), (finite(p), 1))
    basis = lbasis(F25, G)
    assert len(basis) == 5
    assert basis[-1].den == (F25.neg(p), 1)
    # a negative part forces the quotient basis with the prescribed zero
    Gneg = Divisor.of((O, 2), (finite(0), -1))
    bn = lbasis(F25, Gneg)
    assert len(bn) == 2
    for f in bn:
        assert f.valuation(finite(0)) >= 1
    assert lbasis(F25, Divisor.of((O, -2))) == []


def test_rational_function(F9):
    f = RationalFunction.make(F9, (1, 1), (2, 1))  # (x+1)/(x+2)
    assert f.evaluate(0) == F9.div(1, 2)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(F9.neg(2))
    assert f.valuation(finite(F9.neg(1))) == 1
    assert f.valuation(finite(F9.neg(2))) == -1
    assert f.valuation(O) == 0
    # gcd cancellation
    g = RationalFunction.make(F9, (1, 1), polys.mul(F9, (1, 1), (2, 1)))
    assert g.num == (1,) and g.den == (2, 1)


def test_evaluation_code_is_grs(F9):
    # one-point evaluation equals the unscaled GRS code on the same points
    U = [0, 1, 2, F9.alpha, F9.alpha_pow(3)]
    ev = evaluation_code(F9, U, Divisor.one_point(2))
    spec = GrsSpec(F9, tuple(U), (1,) * 5, 3)
    assert ev.code == spec.code()
    with pytest.raises(ValueError):
        evaluation_code(F9, U, Divisor.of((finite(1), 1)))


def test_evaluation_dimension_matches_riemann_roch(F9):
    # dim of the evaluated span is rr_dim(G) - rr_dim(G - D)
    U = [1, 2, F9.alpha, F9.alpha_pow(5)]
    D = Divisor()
    for u in U:
        D = D + Divisor.of((finite(u), 1))
    for k in (2, 3, 5, 6):
        G = Divisor.one_point(k)
        ev = evaluation_code(F9, U, G)
        assert ev.code.k == rr_dim(G) - rr_dim(G - D)


def test_residues_on_subfield(F25):
    dd = residues(F25, subfield_points(F25))
    assert all(r == F25.neg(1) for r in dd.residues)
    assert dd.scale == 1
    assert all(F25.pow(a, 6) == r for a, r in zip(dd.witnesses, dd.residues))


def test_residues_errors_and_theorem(F25):
    with pytest.raises(ValueError):
        residues(F25, [1, 1])
    with pytest.raises(ValueError):
        residues(F25, [1])
    rng = np.random.default_rng(17)
    for _ in range(20):
        size = int(rng.integers(2, 12))
        pts = rng.choice(25, size=size, replace=False).astype(int)
        dd = residues(F25, [int(x) for x in pts])
        total = 0
        for r in dd.residues:
            total = F25.add(total, r)
        assert total == 0


def test_residue_normalization_path(F25):
    # two additive cosets over odd q: raw residues share a non-norm factor
    U = evaluation_set("COR2", 5, t=2).points
    dd = residues(F25, U)
    assert dd.witnesses and dd.scale != 1
    assert all(F25.is_norm(r) for r in dd.scaled_residues)
    # scaling is the canonical smallest-log constant
    valid = []
    for s in range(1, 5):
        lam = F25.mul(F25.inv(dd.residues[0]), F25.from_subfield(s))
        valid.append(lam)
    assert dd.scale == min(valid, key=F25.log_of)


def test_evaluation_set_cor1(F25):
    U = evaluation_set("COR1", 5, s=13).points
    assert len(U) == 13 and 0 in U
    roots = [u for u in U if u]
    assert all(F25.pow(u, 12) == 1 for u in roots)
    dd = residues(F25, U)
    inv12 = F25.inv(F25.from_subfield(2))  # s - 1 = 12 = 2 in GF(5)
    assert all(r == inv12 for r in dd.residues[:-1])
    assert dd.residues[-1] == F25.neg(1)
    with pytest.raises(ValueError):
        evaluation_set("COR1", 5, s=25)   # excluded full-field case
    with pytest.raises(ValueError):
        evaluation_set("COR1", 5, s=10)   # 9 does not divide 24


def test_evaluation_set_cor2(F9):
    U = evaluation_set("COR2", 3, t=2).points
    assert len(U) == 6
    # {u*alpha + v : u in {0, 1}, v in GF(3)}
    want = {F9.add(F9.mul(c, F9.alpha), v) for c in (0, 1) for v in (0, 1, 2)}
    assert set(U) == want
    with pytest.raises(ValueError):
        evaluation_set("COR2", 3, t=3)


def test_evaluation_set_cor3(F25):
    U = evaluation_set("COR3", 5, n0=6, t=1).points
    assert len(U) == 13 and 0 in U
    U2 = evaluation_set("COR3", 5, n0=6, t=2).points
    assert len(U2) == 19
    with pytest.raises(ValueError):
        evaluation_set("COR3", 5, n0=6, t=3)
    with pytest.raises(ValueError):
        evaluation_set("COR3", 5, n0=7, t=1)


@pytest.mark.parametrize("family, own, foreign", [
    ("COR1", {"s": 13}, {"t": 2}), ("COR1", {"s": 13}, {"n0": 7}),
    ("COR2", {"t": 2}, {"s": 4}), ("COR2", {"t": 2}, {"n0": 6}),
    ("COR3", {"t": 1, "n0": 6}, {"s": 13})])
def test_evaluation_set_refuses_parameters_the_family_does_not_read(
        family, own, foreign):
    with pytest.raises(ValueError, match=f"^{family} reads no "
                                         f"{', '.join(foreign)}$"):
        evaluation_set(family, 5, **own, **foreign)
    U = evaluation_set(family, 5, **own)
    assert (U.family, U.params) == (family, own)
    with pytest.raises(ValueError, match="unknown family 'COR4'"):
        evaluation_set("COR4", 5, s=13)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_evaluation_set_admits_exactly_the_grid_sets(q):
    # every s and n0 in [-1, q^2 + 1] and t in [-1, q + 1] that a family
    # reads: the sets admitted are those of the grid, in its order, and
    # every other candidate (n0 = 0 among them) is a ValueError
    span = {"s": range(-1, q * q + 2), "n0": range(-1, q * q + 2),
            "t": range(-1, q + 2)}
    for family, reads in (("COR1", ("s",)), ("COR2", ("t",)),
                          ("COR3", ("n0", "t"))):
        admitted = []
        for values in itertools.product(*(span[x] for x in reads)):
            params = dict(zip(reads, values))
            try:
                evaluation_set(family, q, **params)
            except ValueError:
                continue
            admitted.append(params)
        sets = [{x: g[x] for x in reads}
                for g in ag.family_parameter_grid(family, q)]
        assert admitted == [g for i, g in enumerate(sets)
                            if g not in sets[:i]], family


def eliminated(F, claim):
    """The code of a two-point claim and its hull, by elimination from
    the scaled rows: the oracle the closed-form specs are checked against."""
    code = LinearCode.from_rows(F, two_point_rows(claim))
    return code, code.hermitian_hull()


def test_two_point_cor1_q5(F25):
    U = evaluation_set("COR1", 5, s=13)
    claim, rep = two_point_code(U, 1)
    code, hull = eliminated(F25, claim)
    assert (code.n, code.k) == (13, 3) and code == claim.spec.code()
    assert code.min_distance() == 11
    assert hull.k == 1 and hull == claim.subcode.code()
    assert hull.min_distance() == 13  # [13, 1] MDS hull
    assert rep.verdict == "PASS"


def test_two_point_cor2_q5(F25):
    U = evaluation_set("COR2", 5, t=2)
    claim, rep = two_point_code(U, 1)
    code, hull = eliminated(F25, claim)
    assert (code.n, code.k) == (10, 3) and code == claim.spec.code()
    assert code.min_distance() == 8
    assert hull.k == 1 and rep.verdict == "PASS"


def test_two_point_distance_bound_invariant(F25):
    # over the enumeration budget d = n - deg(G) is structural, as the code
    # is GRS_{k+2}(u, a/(u-p)); nothing is skipped
    U = evaluation_set("COR2", 5, t=4)
    rep = two_point_code(U, 3, distance_budget=10).report
    assert rep.code == {"n": 20, "k": 5, "d": 20 - 3 - 1,
                        "d_kind": "structural"}
    assert rep.hull["mds"] == "structural"
    assert rep.verdict == "PASS"


def test_two_point_errors(F25):
    U = evaluation_set("COR1", 5, s=13)
    with pytest.raises(ValueError, match="0 <= k"):
        two_point_code(U, 2)
    with pytest.raises(ValueError, match="extra place"):
        two_point_code(U, 1, p=U.points[0])
    # a set violating the residue-norm condition
    bad = residues(F25, [0, 1, F25.alpha])
    assert not bad.witnesses
    with pytest.raises(ValueError, match="construction hypotheses"):
        two_point_code(bad, 0)


def test_two_point_k0_boundary(F9):
    U = evaluation_set("COR1", 3, s=3)
    claim, rep = two_point_code(U, 0)
    code = claim.spec.code()
    assert (code.n, code.k) == (3, 2)
    assert claim.subcode.code().k in (0, code.k)
    assert rep.verdict == "PASS"


def test_default_scaling_element():
    F49 = quadratic_field(7)
    v = default_scaling_element(F49)
    assert F49.in_subfield(v)
    assert F49.pow(v, 8) not in (1, F49.neg(1))
    F25 = quadratic_field(5)
    w = default_scaling_element(F25)
    assert F25.pow(w, 6) not in (1, F25.neg(1))
    with pytest.raises(ValueError):
        default_scaling_element(quadratic_field(3))


def test_scale_for_hull_sweep(F25):
    U = evaluation_set("COR2", 5, t=2)
    claim = two_point_code(U, 1).claim
    sweep = scale_sweep(claim)
    assert sweep == {0: 1, 1: 0} and sweep[0] == claim.subcode.code().k


def test_scale_sweep_reduces_the_pivots_once(F25, monkeypatch):
    U = evaluation_set("COR2", 5, t=4)
    claim = two_point_code(U, 3, distance_budget=10).claim
    blocks, rref = [], ag.rref

    def counting_rref(F, M):
        blocks.append(np.shape(M))
        return rref(F, M)

    monkeypatch.setattr(ag, "rref", counting_rref)
    assert scale_sweep(claim) == {0: 3, 1: 2, 2: 1, 3: 0}
    assert blocks == [(4, 20)]  # the self-orthogonal part, once for all ell


def test_growth_q5(F25):
    start = subfield_points(F25)
    g = extend_evaluation_set(F25, start, max_steps=2)
    assert g.status == "ok"
    assert [len(s.points) for s in g.steps] == [7, 9]
    assert all(s.conjugate for s in g.steps)
    logs = [tuple(sorted(F25.log_of(b) for b in s.pair)) for s in g.steps]
    assert logs == [(1, 5), (4, 20)]


def test_growth_q7():
    F49 = quadratic_field(7)
    start = [F49.from_subfield(s) for s in range(7)]
    g = extend_evaluation_set(F49, start, max_steps=3)
    assert g.status == "ok"
    assert len(g.final) == 13
    assert all(s.conjugate for s in g.steps)


def test_growth_exhausted(F9):
    g = extend_evaluation_set(F9, list(range(9)), max_steps=1)
    assert g.status == "exhausted" and not g.steps


def test_growth_bad_start(F25):
    with pytest.raises(ValueError, match="derivative-norm"):
        extend_evaluation_set(F25, [0, 1, F25.alpha], max_steps=1)


def test_default_extra_point(F9):
    assert default_extra_point(F9, [0, 1, 2]) == 3
    assert default_extra_point(F9, [1, 2]) == 0
    with pytest.raises(ValueError):
        default_extra_point(F9, range(9))


def test_family_parameter_grid_cor(F25):
    grid = ag.family_parameter_grid("COR1", 5)
    assert {"s": 13, "n": 13, "k": 1} in grid
    assert all(p["s"] != 25 for p in grid)
    grid2 = ag.family_parameter_grid("COR2", 5)
    assert {"t": 4, "n": 20, "k": 3} in grid2
    grid3 = ag.family_parameter_grid("COR3", 5)
    assert {"n0": 6, "t": 1, "n": 13, "k": 1} in grid3


# ----------------------------------------------------------------------
# two-point rows from GRS rows, residues from log sums
# ----------------------------------------------------------------------

def _cor_sets(q):
    """The distinct evaluation sets of ``family_parameter_grid`` at q, each
    with the largest k of its grid entries."""
    out = {}
    for family in ("COR1", "COR2", "COR3"):
        for params in ag.family_parameter_grid(family, q):
            kw = tuple((n, params[n]) for n in ("s", "t", "n0") if n in params)
            key = (family, kw)
            out[key] = max(out.get(key, 0), params["k"])
    return [(family, dict(kw), k) for (family, kw), k in out.items()]


def _translate_off_zero(F, U):
    # residues depend only on differences, so U + c keeps them; c is chosen
    # so that 0 = u + c has no solution in U
    c = F.neg(default_extra_point(F, U))
    return tuple(F.add(u, c) for u in U)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_scaled_rows_are_scaled_evaluation_rows(q):
    F = quadratic_field(q)
    cases = 0
    for family, kw, kmax in _cor_sets(q):
        U = evaluation_set(family, q, **kw).points
        shifted = _translate_off_zero(F, U)
        assert 0 in U and 0 not in shifted
        for pts in (U, shifted):
            diff = residues(F, pts)
            last_free = max(set(range(F.order)) - set(pts))
            for k in range(kmax + 1):
                for p in (None, last_free):
                    claim = two_point_code(diff, k, p, distance_budget=0).claim
                    rows = two_point_rows(claim)
                    assert claim.spec.b == pts
                    got_p = default_extra_point(F, pts) if p is None else p
                    assert claim.params["p"] == (F.log_of(got_p) if got_p
                                                 else -1)
                    a = np.array(diff.witnesses, dtype=np.int32)[None, :]
                    G = Divisor.of((O, k), (finite(got_p), 1))
                    ref = F.mul_arr(evaluation_code(F, pts, G).rows, a)
                    assert rows.dtype == ref.dtype
                    assert np.array_equal(rows, ref)
                    one = evaluation_code(F, pts, Divisor.one_point(k)).rows
                    assert np.array_equal(rows[:k + 1], F.mul_arr(one, a))
                    refP = evaluation_code(F, pts,
                                           Divisor.of((finite(got_p), 1))).rows
                    assert np.array_equal(rows[[0, k + 1]], F.mul_arr(refP, a))
                    cases += 1
    assert cases >= 8


def test_two_point_family_computes_residues_once(monkeypatch):
    F = quadratic_field(5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return residues(*args, **kwargs)

    monkeypatch.setattr(ag, "residues", counted)
    U = evaluation_set("COR2", 5, t=3, field=F)
    claim = two_point_code(U, 1).claim
    assert len(calls) == 1 and tuple(calls[0]) == claim.spec.b
    assert U == evaluation_set("COR2", 5, t=3)
    assert (U.family, U.params) == (claim.family, {"t": 3}) == ("COR2", {"t": 3})
    assert replace(U, family="two_point", params={}) == residues(F, U.points)
    assert claim.self_orthogonal.a == U.witnesses


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_sweep_builds_each_evaluation_set_once(q, monkeypatch):
    """ag.sweep builds each evaluation set once; it yields the grid in
    order, with the claims and reports two_point_code gives instance by
    instance."""
    sets = []

    def counted_set(family, q, **kwargs):
        sets.append((family, tuple(sorted(kwargs.items()))))
        return evaluation_set(family, q, **kwargs)

    monkeypatch.setattr(ag, "evaluation_set", counted_set)
    swept = list(ag.sweep(q))
    monkeypatch.undo()
    grid = [(family, params) for family in ("COR1", "COR2", "COR3")
            for params in ag.family_parameter_grid(family, q)]
    distinct = {(family, tuple(sorted((k, v) for k, v in params.items()
                                      if k in ("s", "t", "n0"))))
                for family, params in grid}
    assert len(sets) == len(set(sets)) == len(distinct)
    assert q != 9 or len(distinct) == 45
    assert [(claim.family, {k: v for k, v in claim.params.items()
                            if k != "p"}) for claim, _ in swept] == grid
    F = quadratic_field(q)
    for (family, params), (claim, rep) in zip(grid, swept):
        kw = {k: v for k, v in params.items() if k in ("s", "t", "n0")}
        ref = two_point_code(evaluation_set(family, q, field=F, **kw),
                             params["k"])
        assert claim == ref.claim, (family, params)
        assert (rep.to_canonical_dict()
                == ref.report.to_canonical_dict()), (family, params)


def test_sweep_refuses_a_grid_k_other_than_the_certificate_k(monkeypatch):
    """Each set's certificate is built at its largest admissible k, which
    must be the set's largest grid k; a grid that stops short of it is
    refused, not verified at the wrong size."""
    grid = ag.family_parameter_grid

    def short_grid(family, q, **kwargs):
        gs = grid(family, q, **kwargs)
        top = max(g["k"] for g in gs)
        return [g for g in gs if g["k"] < top]

    assert list(ag.sweep(5))
    monkeypatch.setattr(ag, "family_parameter_grid", short_grid)
    with pytest.raises(RuntimeError, match="grid K = .*certificate's K"):
        list(ag.sweep(5))


def _hprime_by_polys(F, pts):
    hp = polys.derivative(F, polys.from_roots(F, pts))
    return [polys.evaluate(F, hp, u) for u in pts]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_residues_match_polynomial_derivative(q):
    F = quadratic_field(q)
    sets = [evaluation_set(family, q, **kw).points
            for family, kw, _ in _cor_sets(q)]
    assert sets
    for U in sets + [_translate_off_zero(F, U) for U in sets]:
        hp = _hprime_by_polys(F, U)
        assert ag._hprime(F, U).tolist() == hp
        assert ag._derivative_norm_condition(F, U) == \
            all(F.is_norm(v) for v in hp)
        dd = residues(F, U)
        assert dd.residues == tuple(F.inv(v) for v in hp)
        assert dd.witnesses
        assert dd.scaled_residues == tuple(F.mul(dd.scale, r)
                                           for r in dd.residues)
        assert all(F.pow(a, q + 1) == r
                   for a, r in zip(dd.witnesses, dd.scaled_residues))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_hprime_random_multisets(q):
    # repeated points give h' = 0 exactly where the polynomial has a
    # multiple root
    F = quadratic_field(q)
    rng = np.random.default_rng(q)
    for _ in range(30):
        size = int(rng.integers(2, min(F.order, 12) + 1))
        pts = [int(x) for x in rng.integers(0, F.order, size=size)]
        assert ag._hprime(F, pts).tolist() == _hprime_by_polys(F, pts)


# ----------------------------------------------------------------------
# the refuted extension and the branch test
# ----------------------------------------------------------------------

def _grid_instances(F):
    """(family, params, evaluation set) for every COR grid entry at F.q."""
    for family in ("COR1", "COR2", "COR3"):
        for params in ag.family_parameter_grid(family, F.q):
            kw = {n: params[n] for n in ("s", "t", "n0") if n in params}
            yield family, params, evaluation_set(family, F.q, field=F, **kw)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_sum_zero_extension_of_the_one_point_code_is_refuted(q):
    """Extending a self-orthogonal scaled one-point code GRS_{k+1}(u, a) by
    a sum-zero coordinate cannot give a self-orthogonal [n+1, k+1, n-k+1]
    code: when the extension is self-orthogonal its appended column is
    zero, so its distance is at most n - k.  Checked on every COR grid
    input, with no enumeration."""
    F = quadratic_field(q)
    kinds = set()
    for family, params, U in _grid_instances(F):
        k = params["k"]
        one_point = GrsSpec(F, U.points, U.witnesses, k + 1).code()
        ext = one_point.extend_sum_zero()
        assert (ext.n, ext.k) == (len(U.points) + 1, k + 1)
        self_orth = is_hermitian_self_orthogonal(ext)
        zero_column = not ext.gen[:, -1].any()
        assert zero_column or not self_orth, (family, params)
        kinds.add(self_orth)
    assert kinds == {True, False}


def _extended_two_point(F, U, k, distance_budget=DEFAULT_BUDGET):
    """The sum-zero extension of the scaled two-point code and a report of
    its checks, headed by its refuted precondition: that the extended
    one-point code is a Hermitian self-orthogonal [n+1, k+1, n-k+1] code.
    The budget must admit the distance half of that check: below 49^4 the
    COR2 q = 7, k = 3 precondition goes unchecked and the report reads PASS."""
    claim = two_point_code(U, k, distance_budget=0).claim
    n, scaled = claim.spec.n, two_point_rows(claim)
    ext_base = LinearCode.from_rows(F, scaled[:k + 1], n=n).extend_sum_zero()
    problems = []
    if (ext_base.n, ext_base.k) != (n + 1, k + 1):
        problems.append(f"parameters [{ext_base.n}, {ext_base.k}]")
    if not is_hermitian_self_orthogonal(ext_base):
        problems.append("not Hermitian self-orthogonal")
    elif F.order ** ext_base.k <= distance_budget \
            and ext_base.min_distance(distance_budget) != n - k + 1:
        problems.append(f"distance {ext_base.min_distance()} != {n - k + 1}")

    code = LinearCode.from_rows(F, scaled, n=n).extend_sum_zero()
    rep = ConstructionReport(
        construction={"module": "ag", "family": "extended_two_point",
                      "parameters": {"q": F.q, "n": n + 1, "k": k,
                                     "p": claim.params["p"]}},
        field=F.describe())
    rep.check("base_extension_self_orthogonal",
              STATUS_PASS if not problems else STATUS_FAIL,
              expected=True, measured=not problems, note="; ".join(problems))
    rep.check_eq("code_length", n + 1, code.n)
    rep.check_eq("code_dimension", k + 2, code.k)

    extP = LinearCode.from_rows(F, scaled[[0, k + 1]], n=n).extend_sum_zero()
    in_dual = not mat_mul(F, code.gen, conjugate(F, extP.gen).T).any()
    branch = 1 if in_dual else 2
    hull = code.hermitian_hull()
    if branch == 1:
        rep.check_eq("self_orthogonal_hull", code.k, hull.k,
                     note="branch 1: the extension is Hermitian self-orthogonal")
    else:
        rep.check_eq("hull_dim", k, hull.k, note="branch 2")
    d_val, d_kind = None, "bound"
    if F.order ** code.k <= distance_budget:
        d_val = code.min_distance(distance_budget)
        rep.check_eq("code_distance", n - k, d_val, note="enumerated")
        d_kind = "enumerated"
    rep.code = {"n": n + 1, "k": code.k, "d": d_val, "d_bound": n - k,
                "d_kind": d_kind}
    rep.hull = {"dim_claimed": k, "dim_measured": hull.k, "branch": branch,
                "mds": "n/a"}
    return code, hull, rep


def test_extended_two_point_precondition_unsatisfiable(F9):
    # the sum-zero extension forces a zero appended coordinate on the
    # self-orthogonal part, capping its distance below the requirement
    U = evaluation_set("COR2", 3, t=2)
    code, hull, rep = _extended_two_point(F9, U, 1)
    assert (code.n, code.k) == (7, 3)
    assert rep.verdict == "FAIL"
    assert rep.first_failure == "base_extension_self_orthogonal"
    assert hull.k in (code.k, 1, 0)


#: sha256 of the canonical report body of the sum-zero extension of the
#: two-point code on the family set, as the removed ``extended_two_point``
#: reported it; the refutation evidence must not drift
GOLDEN_EXTENDED = [
    ("COR1", 3, {"s": 5}, 0,
     "ea796decb01ca653c7be95c447c25483de59a0977dd8fc8d1c8d440766091d97"),
    ("COR1", 4, {"s": 6}, 0,
     "71be6dd7851c381c76810dd1a918ef4419a17a385ecec7a19b5c03788bf216b5"),
    ("COR1", 5, {"s": 13}, 0,
     "d14d9bd9569c33eb5c23e3be72003534f404e307f9597dd7069fa698e3cae67c"),
    ("COR1", 5, {"s": 13}, 1,
     "933793a9e5c5870704050c59843abc1fb914c3b250cfa2a5d91bb1a39a4f5341"),
    ("COR1", 8, {"s": 22}, 1,
     "a247e98eb80066a7844e5d9af2219082fd5d9774dda801eb5425ef2b7fa20cb4"),
    ("COR2", 3, {"t": 2}, 1,
     "82eb6683767be1627d6aae798ec9b88822fbeed1c6833ac4a9c7a060405bbcc4"),
    ("COR2", 4, {"t": 3}, 2,
     "ad7fad2f939112fb6787eed641696da8164883997b97738f0f97ed86bb574925"),
    ("COR2", 7, {"t": 4}, 3,
     "1b761daecd51e51fb25090b295b49c29103eae57ab8b2eedb67b2c22c1d2b89b"),
    ("COR3", 5, {"n0": 6, "t": 1}, 1,
     "521dd478c475c04dfed832aa6e64f7439c390b22a8e6e375b7dd8711ac947de2"),
]


@pytest.mark.parametrize("family, q, params, k, digest", GOLDEN_EXTENDED)
def test_extended_two_point_reports_pinned(family, q, params, k, digest):
    F = quadratic_field(q)
    _, _, rep = _extended_two_point(F, evaluation_set(family, q, **params), k)
    body = rep.to_canonical_dict()
    assert body["verdict"] == "FAIL"
    assert body["first_failure"] == "base_extension_self_orthogonal"
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() \
        == digest


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_branch_test_reads_the_gram_matrix(q):
    """Gram columns 0 and k+1 of the scaled rows, which span a . C_L(D, P),
    are both nonzero on every grid instance: no grid instance is Hermitian
    self-orthogonal, the input that fails ``hull_dim_gram`` below."""
    F = quadratic_field(q)
    count = 0
    for family, params, U in _grid_instances(F):
        k = params["k"]
        claim = two_point_code(U, k, distance_budget=0).claim
        gram = gram_matrix(F, two_point_rows(claim))
        assert gram[:, 0].any() and gram[:, k + 1].any(), (family, params)
        count += 1
    assert count > 0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_branch_one_follows_zero_gram_columns(q, monkeypatch):
    """No grid instance is self-orthogonal, so that input is made by hand:
    with Gram columns 0 and k+1 zeroed on top of the zero one-point block,
    the Gram matrix of the code reads zero.  The code must then FAIL
    ``hull_dim_gram``, measuring k + 2 for the claimed k."""
    F = quadratic_field(q)
    k = 1
    U = evaluation_set("COR2", q, t=q - 1, field=F)
    gram = grs.natural_gram

    def zeroed(spec):
        out = gram(spec)
        return out if spec.a == U.witnesses else np.zeros_like(out)

    monkeypatch.setattr(grs, "natural_gram", zeroed)
    # the rank is read off the vector's table, so the fake reaches it
    # through the rank seam as well
    monkeypatch.setattr(grs, "gram_rank", lambda spec, table=None:
                        matrix_rank(F, zeroed(spec)))
    rep = two_point_code(U, k, distance_budget=0).report
    checks = {c.name: c for c in rep.checks}
    assert rep.verdict == "FAIL" and rep.first_failure == "hull_dim_gram"
    assert (checks["hull_dim_gram"].expected,
            checks["hull_dim_gram"].measured) == (k, k + 2)
    assert checks["hull_equality"].status == STATUS_FAIL
    assert checks["hull_mds"].status == STATUS_FAIL
    assert checks["self_orthogonal_subcode"].status == STATUS_PASS
    assert rep.hull["dim_gram"] == k + 2 and rep.quantum == []


# ----------------------------------------------------------------------
# the per-set GRS-pair certificate against elimination
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4, 5])
def test_self_orthogonal_check_reads_the_zero_block(q):
    """``self_orthogonal_subcode`` reads a zero Gram block off the
    self-orthogonal vector's table, which is never rank-profiled: at every
    dimension t of that vector, on one table sized at t = n and asked in
    increasing t and on a table of its own; and on one point, whose 1 x 1
    Gram is its norm."""
    F = quadratic_field(q)
    U = evaluation_set("COR2", q, t=q - 1, field=F)
    claim = two_point_code(U, 1, distance_budget=0).claim
    so = claim.self_orthogonal
    table = grs._VectorTable(so.at(so.n))
    point = GrsSpec(F, so.b[:1], so.a[:1], 1)
    seen = set()
    for spec, tables in [*((so.at(t), (table, None))
                           for t in range(so.n + 1)), (point, (None,))]:
        want = not grs.natural_gram(spec).any()
        for so_table in tables:
            rep = grs.verify_claim(replace(claim, self_orthogonal=spec),
                                   distance_budget=0, so_table=so_table)
            check = {c.name: c for c in rep.checks}["self_orthogonal_subcode"]
            assert check.measured is want, spec.k
        seen.add(want)
    assert seen == {True, False} and "ranks" not in vars(table)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_two_point_specs_equal_the_elimination(q):
    """On every grid instance the closed-form code and hull are the
    eliminated code of the scaled rows and its eliminated Hermitian hull,
    and the report passes with no check skipped."""
    F = quadratic_field(q)
    for claim, rep in ag.sweep(q):
        code, hull = eliminated(F, claim)
        params = claim.params
        assert claim.spec.code() == code, params
        assert claim.subcode.code() == hull, params
        assert rep.verdict == "PASS", params
        assert rep.hull["dim_gram"] == hull.k == params["k"]


def test_sweep_runs_no_elimination_of_a_code_or_hull(monkeypatch):
    from hermhull import linalg_codes

    def refuse(*args, **kwargs):
        raise AssertionError("ag.sweep eliminated a code or a hull")

    monkeypatch.setattr(LinearCode, "hermitian_hull", refuse)
    monkeypatch.setattr(LinearCode, "from_rows", refuse)
    monkeypatch.setattr(linalg_codes, "nullspace", refuse)
    monkeypatch.setattr(ag, "rref", refuse)
    for q in (4, 5, 7):
        assert all(rep.verdict == "PASS" for _, rep in ag.sweep(q))


def _certificate_parts(F, family, **params):
    """(G, rows, K, p) of ``ag._certify`` for the set with the default p."""
    U = evaluation_set(family, F.q, field=F, **params)
    p = default_extra_point(F, U.points)
    cert = ag._PairCertificate(F, U.points, U.witnesses, p)
    return cert.code.spec.generator(), np.array(cert.rows), cert.hull.k, p


def test_certificate_refuses_each_broken_part(F25):
    """Each part of the certificate refuses a row set that the others
    admit: a moved entry, a wrong code vector, rows out of order, a last
    hull row inside the code but not the closed-form one, a wrong extra
    place, and a column scaled by a non-norm-1 element, which keeps every
    product but breaks Hermitian orthogonality."""
    G, rows, K, p = _certificate_parts(F25, "COR2", t=4)
    assert K == 3 and ag._certify(F25, G, rows, p) == ""

    moved = rows.copy()
    moved[-1, 5] = F25.add(moved[-1, 5], 1)
    assert "not in GRS_5" in ag._certify(F25, G, moved, p)
    other_c = G.copy()
    other_c[:, 7] = F25.mul_arr(other_c[:, 7], F25.alpha)
    assert "not in GRS_5" in ag._certify(F25, other_c, rows, p)

    swapped = rows.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert "not in GRS_5" in ag._certify(F25, G, swapped, p)

    # row l of G lies in the code within the bound K + 1 of the last hull
    # row, but it is not the hull row h u^(K-1)
    l = int(np.flatnonzero(gram_matrix(F25, G).any(axis=1))[-1])
    late = rows.copy()
    late[-1] = G[l]
    assert "not in GRS_5" in ag._certify(F25, G, late, p)

    assert "not in GRS_5" in ag._certify(F25, G, rows, F25.add(p, 1))

    # x -> alpha x on one coordinate commutes with X G, and multiplies that
    # coordinate's Hermitian products by N(alpha) != 1
    assert F25.pow(F25.alpha, F25.q + 1) != 1
    scaled_G, scaled_rows = G.copy(), rows.copy()
    for M in (scaled_G, scaled_rows):
        M[:, 0] = F25.mul_arr(M[:, 0], F25.alpha)
    assert "not Hermitian-orthogonal" in ag._certify(F25, scaled_G,
                                                       scaled_rows, p)


def test_a_failed_certificate_fails_every_structural_check(
        F25, monkeypatch):
    monkeypatch.setattr(ag, "_certify", lambda F, G, rows, p: "broken")
    U = evaluation_set("COR2", 5, t=4)
    for k, budget in ((3, 10), (3, 25 ** 5), (0, 10)):
        rep = two_point_code(U, k, distance_budget=budget).report
        checks = {c.name: c for c in rep.checks}
        assert rep.verdict == "FAIL" and rep.quantum == []
        assert checks["code_mds"].status == STATUS_FAIL
        assert checks["code_mds"].note == "broken"
        assert checks["subcode_in_hull"].status == STATUS_FAIL
        assert checks["subcode_in_hull"].note == "broken"
        assert rep.code["d_kind"] == "failed"
        if k:
            assert checks["hull_mds"].status == STATUS_FAIL
            assert rep.hull["mds"] == "failed"


def _holds(claim, hull):
    """The oracle of a two-point claim, given the eliminated Hermitian hull
    of its code: the hull has the claimed dimension and holds the subcode,
    and the self-orthogonal part has a zero Gram matrix."""
    so = claim.self_orthogonal
    return (hull.k == claim.hull_dim
            and hull.contains_rows(claim.subcode.generator())
            and not gram_matrix(so.field, so.generator()).any())


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_mutated_two_point_claims_fail(q):
    """A negative control on every grid instance: a witness multiplied by
    alpha, whose norm is not 1 (first or last, through a certificate built
    from the mutated witnesses), or a claimed hull dimension k +- 1 read
    off the certificate's tables, must give a FAIL report unless the
    eliminated hull (``ref_hermitian_hull``) shows that the mutated claim
    holds; and every check a two-point report emits fails on some
    mutation."""
    from test_linalg_codes import ref_hermitian_hull
    F = quadratic_field(q)
    assert F.pow(F.alpha, q + 1) != 1
    emitted, failed, mutations = set(), set(), 0

    def control(claim, rep, hull):
        nonlocal mutations
        mutations += 1
        failed.update(c.name for c in rep.checks if c.status == STATUS_FAIL)
        assert rep.verdict == "FAIL" or _holds(claim, hull), claim

    for family, kw, _ in _cor_sets(q):
        diff = evaluation_set(family, q, field=F, **kw)
        p = ag.check_two_point_input(diff, 0)
        cert = ag._PairCertificate(F, diff.points, diff.witnesses, p)
        mutated = []
        for i in (0, -1):
            a = list(diff.witnesses)
            a[i] = F.mul(a[i], F.alpha)
            mutated.append(ag._PairCertificate(F, diff.points, tuple(a), p))
        for k in range(cert.hull.k + 1):
            claim, rep = two_point_code(diff, k, p, 0, cert)
            hull = ref_hermitian_hull(LinearCode.from_rows(
                F, claim.spec.generator()))
            assert rep.verdict == "PASS" and _holds(claim, hull), claim
            emitted.update(c.name for c in rep.checks)
            for h in (k - 1, k + 1):
                if h >= 0:
                    wrong = replace(claim, hull_dim=h)
                    control(wrong, grs.verify_claim(
                        wrong, distance_budget=0, table=cert.code,
                        so_table=cert.so), hull)
            for bad in mutated:
                claim, rep = two_point_code(diff, k, p, 0, bad)
                control(claim, rep, ref_hermitian_hull(LinearCode.from_rows(
                    F, claim.spec.generator())))
    assert mutations > 0 and emitted <= failed, emitted - failed
