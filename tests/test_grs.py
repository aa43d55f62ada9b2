import collections
import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hermhull import cyclic, grs, linalg_codes
from hermhull.cyclic import EqtrParams, eqtr_codeword
from hermhull.gf import make_field, quadratic_field
from hermhull.grs import (GrsSpec, claim_arithmetic, construct_family,
                          family_parameter_grid, natural_gram,
                          puncture_from_p_codeword, verify_claim)
from hermhull.linalg_codes import (LinearCode, conjugate, gram_matrix, mat_mul,
                                   matrix_rank, rref)
from hermhull.report import STATUS_FAIL, STATUS_PASS

from conftest import grs_b_full, hull_dim_via_gram


def test_grs_spec_validation(F9):
    with pytest.raises(ValueError, match="equal length"):
        GrsSpec(F9, (1, 2, 3), (1, 1), 1)     # unequal b and a
    with pytest.raises(ValueError, match="distinct"):
        GrsSpec(F9, (1, 1), (1, 1), 1)        # repeated points
    with pytest.raises(ValueError, match="nonzero"):
        GrsSpec(F9, (1, 2), (1, 0), 1)        # zero scale
    for k in (-1, 3):
        with pytest.raises(ValueError, match="dimension out of range"):
            GrsSpec(F9, (1, 2), (1, 1), k)    # k outside [0, n]
        with pytest.raises(ValueError, match="dimension out of range"):
            GrsSpec(F9, (1, 2), (1, 1), 1).at(k)
    for b, a in [((-1, 2), (1, 1)), ((1, 9), (1, 1)), ((1, 2), (1, -2)),
                 ((1, 2), (9, 1))]:
        with pytest.raises(ValueError, match="field elements"):
            GrsSpec(F9, b, a, 1)              # outside [0, order)
        with pytest.raises(ValueError, match="field elements"):
            GrsSpec(F9, list(b), a, 1)        # any sequences, mixed
        with pytest.raises(ValueError, match="field elements"):
            GrsSpec(F9, np.array(b), np.array(a), 1)
    assert GrsSpec(F9, [1, 2], (1, 8), 1).n == 2


def recursion_generator(spec):
    """Reference generator: row 0 is a, row i is row i-1 times b (mul_arr)."""
    G = np.zeros((spec.k, spec.n), dtype=np.int32)
    if spec.k:
        G[0] = spec.a
        b = np.array(spec.b, dtype=np.int32)
        for i in range(1, spec.k):
            G[i] = spec.field.mul_arr(G[i - 1], b)
    return G


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
@pytest.mark.parametrize("zero", [False, True])
def test_generator_matches_row_recursion(q, zero):
    F = quadratic_field(q)
    rng = np.random.default_rng(q)
    b = rng.permutation(np.arange(1, F.order))[:min(F.order - 1, 40)]
    if zero:
        b[len(b) // 2] = 0
    a = rng.integers(1, F.order, size=len(b))
    for k in sorted({0, 1, 2, len(b) // 2, len(b)}):
        spec = GrsSpec(F, tuple(b.tolist()), tuple(a.tolist()), k)
        G = spec.generator()
        assert G.shape == (k, len(b))
        assert np.array_equal(G, recursion_generator(spec)), (k, zero)


def test_grs_code_edges(F9):
    b = tuple(grs_b_full(F9)[:5])
    full = GrsSpec(F9, b, (1,) * 5, 5).code()
    assert full == LinearCode(F9, 5, np.eye(5, dtype=np.int32))
    rep = GrsSpec(F9, b, (1,) * 5, 1).code()
    assert rep.min_distance() == 5
    C = GrsSpec(F9, tuple(grs_b_full(F9)), (1,) * 9, 2).code()
    assert C.cached_distance() == 8


def _assert_systematic_is_rref(spec):
    R, rank, pivots = rref(spec.field, spec.generator())
    assert rank == spec.k and pivots == list(range(spec.k))
    assert np.array_equal(spec.systematic(), R[:spec.k]), (spec.n, spec.k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_systematic_matches_rref_on_every_family(q):
    count = 0
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, q, conservative=False):
            claim = construct_family(family, q, **params)
            _assert_systematic_is_rref(claim.spec)
            _assert_systematic_is_rref(claim.subcode)
            count += 1
    assert count > 0


def test_systematic_matches_rref_q16_wide():
    for family in ("CON1E", "CON4E"):
        for params in family_parameter_grid(family, 16):
            claim = construct_family(family, 16, **params)
            _assert_systematic_is_rref(claim.spec)
            _assert_systematic_is_rref(claim.subcode)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_tables_filled_at_a_larger_k_serve_every_smaller_k(q):
    # every evaluation vector of the full grids, its table filled at K = n
    # first: each instance and its subcode read the leading blocks, also
    # when its vector is an equal tuple solved by another claim
    specs = {}
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, q, conservative=False):
            claim = construct_family(family, q, **params)
            for spec in (claim.spec, claim.subcode):
                specs.setdefault((spec.b, spec.a), set()).add(spec)
    for (b, a), group in specs.items():
        any_spec = next(iter(group))
        F, n = any_spec.field, any_spec.n
        work = collections.Counter()
        table = grs._VectorTable(replace(any_spec, k=n), work)
        grs.gram_rank(replace(any_spec, k=n), table)
        gram, ranks = table.gram, table.ranks
        assert gram.shape == (n, n)
        for spec in group:
            G = spec.generator()
            R, rank, _ = rref(F, G)
            block = table.gram[:spec.k, :spec.k]
            assert np.array_equal(block, gram_matrix(F, G))
            assert np.array_equal(spec.systematic(), R[:rank])
            assert grs.gram_rank(spec, table) == rref(F, block)[1]
        assert table.gram is gram and table.ranks is ranks
        # one table and one rank profile served every instance
        assert work == {"vector_tables": 1, "rank_profiles": 1}
    assert len(specs) > 1


def test_tables_grow_with_k_and_stay_read_only():
    # a table sized at K = 7 serves every k <= 7 and refuses k = 8
    claim = construct_family("CON2E", 5, z=1, f=1, k=5)
    spec = claim.spec
    table = grs._VectorTable(replace(spec, k=7))
    for k in (2, 4, 3, 7):
        s = replace(spec, k=k)
        assert np.array_equal(table.gram[:k, :k], natural_gram(s))
    assert table.gram.shape == (7, 7)
    with pytest.raises(ValueError, match="K = 7"):
        grs.gram_rank(replace(spec, k=8), table)
    assert np.array_equal(table.gram[:3, :3],
                          natural_gram(replace(spec, k=3)))
    with pytest.raises(ValueError, match="read-only"):
        table.gram[:3, :3][0, 0] = 1
    # natural_gram builds a table of its own and leaves this one alone
    assert np.array_equal(natural_gram(spec), table.gram[:5, :5])
    assert table.gram.shape == (7, 7)


def _assert_per_k_reads(table):
    """Every leading block of ``table``'s Gram matrix, k = 0..K: the rank,
    first-nonzero-row and zero-block reads against elimination and scans."""
    F, K = table.field, table.spec.k
    for k in range(K + 1):
        block = table.gram[:k, :k]
        rows = np.nonzero(block.any(axis=1))[0]
        first = table.first_row[k]
        assert first == (int(rows[0]) if rows.size else k), k
        assert (first == k) is (not block.any()), k
        assert grs.gram_rank(table.spec.at(k), table) == matrix_rank(
            F, block), k
    assert len(table.gram) == K


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_per_k_table_reads_match_elimination_on_every_grid_vector(q,
                                                                  monkeypatch):
    # the tables the GRS and two-point sweeps build, at the size each
    # sweep gave it; only the code tables are rank-profiled there, never a
    # two-point set's self-orthogonal table, which reads a zero block
    from hermhull import ag
    tables, init = [], grs._VectorTable.__init__

    def building(self, spec, work=None):
        init(self, spec, work)
        tables.append(self)

    monkeypatch.setattr(grs._VectorTable, "__init__", building)
    work = collections.Counter()
    reports = [rep for _, rep in grs.sweep(q, conservative=False, work=work)]
    reports += [rep for _, rep in ag.sweep(q, work=work)]
    monkeypatch.undo()
    n_grs = len({grs._recipe(f, q, p) for f in grs.FAMILIES
                 for p in family_parameter_grid(f, q, conservative=False)})
    so_tables = tables[n_grs + 1::2]
    assert work["vector_tables"] == len(tables) == n_grs + 2 * len(so_tables)
    assert work["rank_profiles"] == len(tables) - len(so_tables)
    assert all("ranks" not in vars(t) and "gram" in vars(t)
               for t in so_tables)
    assert any(c.name == "self_orthogonal_subcode" for r in reports
               for c in r.checks)
    for table in tables:
        _assert_per_k_reads(table)


def test_verify_all_sizes_each_table_from_the_grid(capsys, monkeypatch):
    # verify-all --q 9 sizes every table once, from the grid: a GRS
    # recipe's at the largest k of its group, and a two-point set's code
    # and self-orthogonal tables at K + 2 and K + 1, K the set's largest k;
    # each Gram matrix is built at that size, and none larger
    import json

    from hermhull import ag, cli
    q, F = 9, quadratic_field(9)
    built, init = [], grs._VectorTable.__init__

    def building(self, spec, work=None):
        init(self, spec, work)
        built.append(self)

    monkeypatch.setattr(grs._VectorTable, "__init__", building)
    assert cli.run(["verify-all", "--q", str(q), "--timings"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    monkeypatch.undo()
    assert timings["vector_tables"] == len(built)
    # every Gram matrix was built during the run, at its table's size
    assert all(vars(t)["gram"].shape == (t.spec.k, t.spec.k) for t in built)

    want = collections.Counter()
    recipes = collections.defaultdict(int)
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, q):
            recipe = grs._recipe(family, q, params)
            recipes[recipe] = max(recipes[recipe], params["k"])
    for recipe, K in recipes.items():
        vector = grs._evaluation_vector(F, q, *recipe)
        want[vector.b, vector.a, K] += 1
    sets = collections.defaultdict(int)
    for family in ("COR1", "COR2", "COR3"):
        for g in ag.family_parameter_grid(family, q):
            key = (family, *((x, g[x]) for x in ("s", "t", "n0") if x in g))
            sets[key] = max(sets[key], g["k"])
    for (family, *kwargs), K in sets.items():
        diff = ag.evaluation_set(family, q, field=F, **dict(kwargs))
        assert K == (len(diff.points) - 2) // (q + 1)
        # the code vector c = a / (u - p) at the set's extra place p
        u, a = (np.asarray(x, dtype=np.int32)
                for x in (diff.points, diff.witnesses))
        p = ag.check_two_point_input(diff, 0)
        c = F.mul_arr(a, F.inv_arr(F.add_arr(u, F.neg(p))))
        want[diff.points, diff.witnesses, K + 1] += 1
        want[diff.points, tuple(c.tolist()), K + 2] += 1
    assert collections.Counter((t.spec.b, t.spec.a, t.spec.k)
                               for t in built) == want


@pytest.mark.parametrize("q", [2, 3, 4, 11])
def test_per_k_reads_of_random_matrices(q):
    # random K x K matrices over GF(q^2), Hermitian or not, of several
    # densities: the per-k arrays against elimination and scans; and the
    # tables of random evaluation vectors
    F = quadratic_field(q)
    rng = np.random.default_rng(q)
    for K in (0, 1, 2, 5, 17, 40):
        for density in (0.03, 0.2, 0.7, 1.0):
            M = rng.integers(1, F.order, size=(K, K), dtype=np.int32)
            M[rng.random((K, K)) > density] = 0
            first = grs._first_nonzero_rows(M)
            ranks = grs._leading_ranks(linalg_codes.rank_profile(F, M), K)
            assert len(first) == len(ranks) == K + 1
            for k in range(K + 1):
                rows = np.nonzero(M[:k, :k].any(axis=1))[0]
                assert first[k] == (int(rows[0]) if rows.size else k)
                assert ranks[k] == matrix_rank(F, M[:k, :k])
    for n in sorted({1, min(6, F.order), min(30, F.order)}):
        b = tuple(rng.choice(F.order, size=n, replace=False).tolist())
        a = tuple(rng.integers(1, F.order, size=n).tolist())
        _assert_per_k_reads(grs._VectorTable(GrsSpec(F, b, a, n)))


@pytest.mark.parametrize("q", [4, 5, 7])
def test_tables_asked_in_either_order_give_the_same_reports(q):
    # grs construct, ag build, puncture_from_p_codeword and the sweeps,
    # which verify each group in grid order, ask a table for any k first:
    # a table read smallest k first gives each instance the report of one
    # read largest k first
    from hermhull import ag
    F = quadratic_field(q)
    groups = collections.defaultdict(list)
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, q, conservative=False):
            groups[grs._recipe(family, q, params)].append((family, params))
    budgets = dict(budget=10 ** 6, distance_budget=10 ** 4)
    for recipe, group in groups.items():
        bodies = []
        for reverse in (False, True):
            table = grs._VectorTable(grs._evaluation_vector(F, q, *recipe).at(
                max(params["k"] for _, params in group)))
            got = {}
            for family, params in sorted(group, key=lambda e: e[1]["k"],
                                         reverse=reverse):
                claim = construct_family(family, q, table=table, **params)
                got[family, tuple(sorted(params.items()))] = verify_claim(
                    claim, table=table, **budgets).to_canonical_dict()
            bodies.append(got)
        assert bodies[0] == bodies[1], recipe
    for family in ("COR1", "COR2", "COR3"):
        sets = collections.defaultdict(list)
        for g in ag.family_parameter_grid(family, q):
            sets[tuple((x, g[x]) for x in ("s", "t", "n0") if x in g)].append(
                g["k"])
        for kwargs, ks in sets.items():
            diff = ag.evaluation_set(family, q, field=F, **dict(kwargs))
            p = ag.check_two_point_input(diff, 0)
            bodies = []
            for order in (sorted(ks), sorted(ks, reverse=True)):
                cert = ag._PairCertificate(F, diff.points, diff.witnesses, p)
                bodies.append({k: ag.two_point_code(
                    diff, k, p, 10 ** 4, cert).report.to_canonical_dict()
                    for k in order})
            assert bodies[0] == bodies[1], (family, kwargs)


def test_grs_sweep_builds_each_vector_once(monkeypatch):
    # the grid of every family is grouped by evaluation vector, across
    # families: each vector is solved once and its table built once, at
    # the group's largest k (``by_vector``), and the Gram matrix is built
    # once, at the first instance; reports come out in grid order, equal to
    # construct_family + verify_claim one by one
    q, budgets = 7, dict(budget=10 ** 6, distance_budget=10 ** 4)
    events, built, solved = [], [], []
    init, solve = grs._VectorTable.__init__, grs._evaluation_vector

    def building(self, spec, work=None):
        built.append((spec.b, spec.a, spec.k))
        init(self, spec, work)

    def solving(*args):
        solved.append(args[1:])
        return solve(*args)

    monkeypatch.setattr(grs._VectorTable, "__init__", building)
    monkeypatch.setattr(grs, "_evaluation_vector", solving)
    build = grs._VectorTable.gram.func

    def building_gram(self):
        events.append("gram")
        return build(self)

    gram = functools.cached_property(building_gram)
    gram.__set_name__(grs._VectorTable, "gram")
    monkeypatch.setattr(grs._VectorTable, "gram", gram)
    construct = grs.construct_family
    calls = []

    def logged(family, q, table=None, **params):
        del events[:]
        out = construct(family, q, table=table, **params)
        calls.append((family, params, events[:]))
        return out

    def verified(claim, **kw):
        del events[:]
        rep = verify(claim, **kw)
        calls[-1][2].extend(events)
        return rep

    verify = grs.verify_claim
    monkeypatch.setattr(grs, "construct_family", logged)
    monkeypatch.setattr(grs, "verify_claim", verified)
    work = collections.Counter()
    swept = list(grs.sweep(q, conservative=False, work=work, **budgets))

    grid = [(family, params) for family in grs.FAMILIES
            for params in family_parameter_grid(family, q, conservative=False)]
    assert [(c.family, {k: v for k, v in c.params.items() if k != "s"})
            for c, _ in swept] == grid
    vectors = {}
    for c, _ in swept:
        key = (c.spec.b, c.spec.a)
        vectors[key] = max(vectors.get(key, 0), c.spec.k)
    assert sorted(built) == sorted((*key, K) for key, K in vectors.items())
    assert len(vectors) < len(grid)
    solvable = sum((q * q) ** params["k"] <= budgets["budget"]
                   for _, params in grid)
    assert work == {"vector_tables": len(vectors),
                    "rank_profiles": len(vectors), "hull_solves": solvable}
    assert len(solved) == len(set(solved)) == len(vectors)
    groups = {}
    for call in calls:
        groups.setdefault(grs._recipe(call[0], q, call[1]), []).append(call)
    assert len(groups) == len(vectors)
    assert any(len({c[0] for c in group}) > 1 for group in groups.values())
    for key, group in groups.items():
        assert group[0][2].count("gram") == 1, key
        assert all("gram" not in c[2] for c in group[1:]), key
    assert len(calls) == len(grid)

    monkeypatch.undo()
    for (family, params), (claim, rep) in zip(grid, swept):
        alone = verify_claim(construct_family(family, q, **params), **budgets)
        assert alone.to_canonical_dict() == rep.to_canonical_dict()


def test_systematic_edges_under_a_non_conway_modulus():
    F = make_field(2, 4, (1, 0, 0, 1, 1))
    rng = np.random.default_rng(6)
    for zero_at in (None, 0, 3, 9):
        b = rng.permutation(np.arange(1, F.order))[:10]
        if zero_at is not None:
            b[zero_at] = 0
        a = rng.integers(1, F.order, size=10)
        for k in (0, 1, 2, 5, 9, 10):
            spec = GrsSpec(F, tuple(b.tolist()), tuple(a.tolist()), k)
            _assert_systematic_is_rref(spec)
            C = spec.code()
            assert C == LinearCode.from_rows(F, spec.generator(), n=10)
            assert C.cached_distance() == 10 - k + 1
    assert GrsSpec(F, (1, 2, 3), (1, 1, 1), 0).systematic().shape == (0, 3)
    assert np.array_equal(GrsSpec(F, (0, 5, 7), (4, 1, 9), 3).systematic(),
                          np.eye(3, dtype=np.int32))


def test_code_rejects_a_corrupted_systematic_entry(monkeypatch):
    F = quadratic_field(4)
    spec = GrsSpec(F, tuple(grs_b_full(F)), (1,) + tuple(range(1, 16)), 5)
    closed_form = GrsSpec.systematic
    for i, j in [(0, 5), (2, 11), (4, 15)]:
        def corrupted(self, i=i, j=j):
            S = closed_form(self)
            S[i, j] = F.add(int(S[i, j]), 1)
            return S
        monkeypatch.setattr(GrsSpec, "systematic", corrupted)
        with pytest.raises(RuntimeError, match="closed-form"):
            spec.code()
    monkeypatch.setattr(GrsSpec, "systematic", closed_form)
    assert spec.code().k == 5


def test_code_runs_no_elimination(monkeypatch):
    def no_rref(*args, **kwargs):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg_codes, "rref", no_rref)
    for family, q, params in [("CON1E", 4, {"z": 1, "k": 4}),
                              ("CON3", 5, {"k": 3}),
                              ("CON2E", 7, {"z": 1, "f": 1, "k": 7})]:
        claim = construct_family(family, q, **params)
        assert claim.spec.code().k == claim.spec.k
        assert claim.subcode.code().k == claim.subcode.k


def test_closed_form_builds_no_vector_table(monkeypatch):
    # the closed form needs the spec alone: the vector table holds only
    # Gram work, so building a code, or verifying a claim whose table is
    # given, constructs no other table
    built = []
    init = grs._VectorTable.__init__

    def counting(self, spec, work=None):
        built.append(spec)
        init(self, spec, work)

    claim = construct_family("CON3", 5, k=3)
    table = grs._VectorTable(claim.spec)
    monkeypatch.setattr(grs._VectorTable, "__init__", counting)
    for spec in (claim.spec, claim.subcode):
        assert spec.systematic().shape == (spec.k, spec.n)
        assert spec.code().k == spec.k
    assert built == []
    rep = verify_claim(claim, budget=10 ** 6, table=table)
    checks = {c.name: c for c in rep.checks}
    assert checks["hull_dim_intersection"].status == STATUS_PASS
    assert checks["hull_equality"].note == "canonical-form equality"
    assert rep.verdict == "PASS" and built == []


def test_generator_is_scaled_vandermonde(F25):
    b = (1, F25.alpha, F25.alpha_pow(5), 0)
    a = (2, 3, F25.alpha, 1)
    G = GrsSpec(F25, b, a, 3).generator()
    for i in range(3):
        for j in range(4):
            want = F25.mul(a[j], F25.pow(b[j], i)) if (b[j] or i == 0) else 0
            assert G[i, j] == (want if b[j] or i == 0 else 0)
    # zero point contributes only to the degree-0 row
    assert G[0, 3] == a[3] and G[1, 3] == 0 and G[2, 3] == 0


@pytest.mark.parametrize("family,q,params,length", [
    ("CON1", 3, {}, 9),
    ("CON2", 4, {"k": 2}, 15),
    ("CON3", 5, {"k": 3}, 13),
    ("CON4", 5, {"k": 2, "m": 3}, 12),
    ("CON1E", 5, {"z": 1, "k": 5}, 25),
    ("CON2E", 7, {"z": 1, "f": 1, "k": 7}, 48),
    ("CON3E", 7, {"z": 1, "f": 2, "k": 8}, 33),
    ("CON4E", 7, {"z": 1, "f": 2, "m": 5, "k": 7}, 40),
])
def test_construct_family_lengths_and_verdicts(family, q, params, length):
    claim = construct_family(family, q, **params)
    code = claim.spec.code()
    assert code.n == length
    rep = verify_claim(claim, budget=10 ** 6, distance_budget=10 ** 5)
    assert rep.verdict in ("PASS", "PARTIAL"), rep.first_failure
    failed = [c.name for c in rep.checks if c.status == "fail"]
    assert not failed


def test_con1_hull_equality_small(F9):
    claim = construct_family("CON1", 3)
    code = claim.spec.code()
    hull = code.hermitian_hull()
    assert hull == claim.subcode.code()
    assert hull.k == 2
    assert hull.min_distance() == 9 - 3 + 2  # q^2 - q + 2


def test_con3_scaling_vector_solves_the_norm_equations():
    q = 5
    F = quadratic_field(q)
    claim = construct_family("CON3", q, k=3)
    code = claim.spec.code()
    s = math.gcd(2, 4)
    assert claim.params["s"] == s
    B = [l for l in range(24) if l % ((q - 1) // s) != 0]
    for b_val, a_val, l in zip(claim.spec.b, claim.spec.a, B):
        assert b_val == F.alpha_pow(l)
        want = F.sub(F.alpha_pow(-(l * 2 * (q + 1))), 1)
        assert F.pow(a_val, q + 1) == want
    # appended coordinate: b = 0, a^(q+1) = -1
    assert claim.spec.b[-1] == 0
    assert F.pow(claim.spec.a[-1], q + 1) == F.neg(1)


def test_con4_scaling_survives_where_single_term_form_vanishes():
    # at (q, k, m) = (7, 4, 5) the collapsed single-term form would demand
    # a zero scale at l = 2; the codeword-derived values stay nonzero
    F = quadratic_field(7)
    l = 2
    collapsed = F.sub(F.alpha_pow(-(l * 3 * 8)), 1)
    assert collapsed == 0
    claim = construct_family("CON4", 7, k=4, m=5)
    assert all(a != 0 for a in claim.spec.a)
    rep = verify_claim(claim, budget=10 ** 6, distance_budget=10 ** 4)
    assert all(c.status != "fail" for c in rep.checks)


def test_even_q_appended_norm_equation():
    # -1 = 1 in characteristic 2; the appended-coordinate equation still solves
    F = quadratic_field(4)
    claim = construct_family("CON3", 4, k=2)
    assert claim.spec.b[-1] == 0
    assert F.pow(claim.spec.a[-1], 5) == 1 == F.neg(1)
    rep = verify_claim(claim, budget=10 ** 6)
    assert rep.verdict == "PASS"


def test_gram_structure_con1e():
    # nonzero Gram rows are exactly -e_l at l = yq - x + 1 (1-based), x,y <= z
    for q, z, k in [(5, 1, 5), (7, 1, 8), (7, 2, 14)]:
        claim = construct_family("CON1E", q, z=z, k=k)
        G = natural_gram(claim.spec)
        F = claim.spec.field
        neg1 = F.neg(1)
        expect = {(x * q - y, y * q - x): neg1
                  for x in range(1, z + 1) for y in range(1, z + 1)}
        nz = {(i, j): int(v) for (i, j), v in np.ndenumerate(G) if v}
        assert nz == expect


def _assert_gram_matches(family, q, params, field=None):
    claim = construct_family(family, q, field=field, **params)
    spec = claim.spec
    want = gram_matrix(spec.field, recursion_generator(spec))
    assert np.array_equal(natural_gram(spec), want), (family, q, params)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_natural_gram_matches_gram_matrix_on_every_family(q):
    count = 0
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, q, conservative=False):
            _assert_gram_matches(family, q, params)
            count += 1
    assert count > 0


def test_natural_gram_matches_gram_matrix_q16_wide():
    for family in ("CON1E", "CON4E"):
        for params in family_parameter_grid(family, 16, conservative=False):
            _assert_gram_matches(family, 16, params)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_natural_gram_in_blocks(monkeypatch, chunk):
    # blocks of one or a few power sums, with a ragged last block; each
    # call builds a fresh table, so every power sum is taken at this chunk
    monkeypatch.setattr(grs, "_MAT_MUL_CHUNK", chunk)
    for q in (2, 4, 8):
        for family in grs.FAMILIES:
            for params in family_parameter_grid(family, q, conservative=False):
                _assert_gram_matches(family, q, params)


def _power_sums(F, b, a):
    """``grs._power_sums`` of the tuples b and a."""
    return grs._power_sums(F, np.asarray(b, dtype=np.int64),
                           np.asarray(a, dtype=np.int64))


def _direct_power_sums(F, b, a):
    """S[t] = sum N_j b_j^t over the nonzero points, N_j = a_j^(q+1), one
    t at a time in the log domain, XOR-summed: no transform."""
    n1 = F.order - 1
    b, a = np.asarray(b), np.asarray(a)
    lb = F.log[b[b != 0]].astype(np.int64)
    ln = F.log[a[b != 0]].astype(np.int64) * (F.q + 1)
    t = np.arange(n1)[:, None]
    return np.bitwise_xor.reduce(F.exp[(ln + t * lb) % n1], axis=1)


@pytest.mark.parametrize("field", [
    *(pytest.param(q, id=f"q{q}") for q in (2, 4, 8, 16, 32)),
    pytest.param((2, 4, (1, 0, 0, 1, 1)), id="gf16-non-conway")])
@pytest.mark.parametrize("zero", [False, True], ids=["no-zero", "zero"])
def test_dft_power_sums_match_direct_sums(field, zero):
    # random vectors of several lengths, up to every point of the field;
    # a zero point adds nothing to any S[t] and N_j at Gram entry (0, 0)
    F = quadratic_field(field) if isinstance(field, int) else \
        make_field(*field)
    rng = np.random.default_rng(F.order)
    for n in sorted({1, 3, min(40, F.order - 1), F.order - 1}):
        b, a = _random_vector(F, rng, n, zero)
        assert np.array_equal(_power_sums(F, b, a),
                              _direct_power_sums(F, b, a)), n
        k = min(n, 6)
        table = grs._VectorTable(GrsSpec(F, b, a, k))
        assert np.array_equal(table.gram, gram_matrix(
            F, GrsSpec(F, b, a, k).generator())), n
        assert not table.gram.flags.writeable
    if F.order - 1 > 3:
        b = tuple(F.exp.tolist()) + ((0,) if zero else ())
        # every nonzero point with N = 1: S[t] = 1 at t = 0 and 0 elsewhere
        want = np.zeros(F.order - 1, dtype=np.int32)
        want[0] = 1
        assert np.array_equal(_power_sums(F, b, (1,) * len(b)), want)


def test_dft_plan_maps_are_the_crt_bijections():
    for q in (2, 4, 8, 16, 32, 64):
        n1 = q * q - 1
        stages, spread, gather = grs._dft_plan(n1)
        sizes = [N for N, _ in stages]
        assert math.prod(sizes) == n1 and all(
            math.gcd(x, y) == 1 for x, y in itertools.combinations(sizes, 2))
        assert sorted(spread.tolist()) == list(range(n1))
        assert sorted(gather.tolist()) == list(range(n1))


def test_natural_gram_large_q_stays_in_blocks():
    # the CON1 points of GF(128^2): n = 16384, and k = 16 already has 256
    # distinct exponents i + ql, so one unblocked T x n' exponent array
    # would take about 32 MB
    F = quadratic_field(128)
    b = tuple(np.append(F.exp[:F.order - 1], 0).tolist())
    spec = GrsSpec(F, b, (1,) * F.order, 16)
    tracemalloc.start()
    try:
        got = natural_gram(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, gram_matrix(F, spec.generator()))
    assert peak < 8 * 2 ** 20


def test_natural_gram_under_a_non_conway_modulus():
    F = make_field(2, 4, (1, 0, 0, 1, 1))
    assert F is not quadratic_field(4)
    for family in grs.FAMILIES:
        for params in family_parameter_grid(family, 4, conservative=False):
            _assert_gram_matches(family, 4, params, field=F)


def _random_vector(F, rng, n, zero):
    """Distinct points b (one of them 0 when ``zero``) and nonzero scales a."""
    b = rng.permutation(np.arange(1, F.order))[:n]
    if zero:
        b[n // 2] = 0
    a = rng.integers(1, F.order, size=n)
    return tuple(b.tolist()), tuple(a.tolist())


def _assert_natural_gram(spec, table=None):
    """``natural_gram(spec)``, or the leading k x k block of ``table``'s
    Gram matrix when one is given, against the recursion generator's."""
    want = gram_matrix(spec.field, recursion_generator(spec))
    got = (natural_gram(spec) if table is None
           else table.gram[:spec.k, :spec.k])
    assert np.array_equal(got, want), (spec.b, spec.a, spec.k)


@pytest.mark.parametrize("q", [4, 8])
def test_natural_gram_table_fills_lazily(q):
    # one (b, a) at every k descending, then ascending, then interleaved
    # with other evaluation vectors, each read through a table of its own
    F = quadratic_field(q)
    rng = np.random.default_rng(q)
    n = min(F.order - 1, 40)
    b, a = _random_vector(F, rng, n, zero=True)
    others = [_random_vector(F, rng, n, zero=bool(j % 2)) for j in range(6)]
    table = grs._VectorTable(GrsSpec(F, b, a, n))
    # lazy: nothing is built before the first read, which builds the Gram
    # matrix at K = n, from every power sum, taken at once by one DFT
    assert "gram" not in vars(table)
    _assert_natural_gram(GrsSpec(F, b, a, 3), table)
    assert table.gram.shape == (n, n)
    # every k reads a leading block of that one matrix
    _assert_natural_gram(GrsSpec(F, b, a, 5), table)
    for k in range(n, -1, -1):
        _assert_natural_gram(GrsSpec(F, b, a, k), table)
        assert table.gram.shape == (n, n)
    full = table.gram
    for j, (ob, oa) in enumerate(others):
        # a call with no table builds its own and leaves this one alone
        _assert_natural_gram(GrsSpec(F, ob, oa, j % (n + 1)))
        _assert_natural_gram(GrsSpec(F, b, a, (5 * j) % (n + 1)), table)
    for k in range(n + 1):
        _assert_natural_gram(GrsSpec(F, b, a, k), table)
    assert table.gram is full and not full.flags.writeable


def test_natural_gram_tables_of_two_moduli():
    # the same integer tuples under two moduli of GF(16) are two evaluation
    # vectors with different Gram matrices, one table each
    conway, other = quadratic_field(4), make_field(2, 4, (1, 0, 0, 1, 1))
    assert other is not conway
    rng = np.random.default_rng(16)
    b, a = _random_vector(conway, rng, 12, zero=True)
    tables = {F: grs._VectorTable(GrsSpec(F, b, a, 6))
              for F in (conway, other)}
    grams = []
    for F in (conway, other, conway, other):
        spec = GrsSpec(F, b, a, 6)
        _assert_natural_gram(spec, tables[F])
        grams.append(tables[F].gram[:6, :6])
    assert not np.array_equal(grams[0], grams[1])
    assert grams[0] is not grams[2] and np.array_equal(grams[0], grams[2])


def test_gram_rank_branches_con3e_con4e():
    cases = [
        ("CON3E", 7, {"z": 1, "f": 1, "k": 7}, 2),
        ("CON3E", 7, {"z": 1, "f": 2, "k": 9}, 2),
        ("CON3E", 7, {"z": 2, "f": 2, "k": 14}, 8),    # f >= z: 2z^2
        ("CON3E", 7, {"z": 2, "f": 1, "k": 14}, 6),    # f < z: z^2 + zf
        ("CON4E", 7, {"z": 1, "f": 2, "m": 5, "k": 7}, 2),
        ("CON4E", 7, {"z": 1, "f": 3, "m": 5, "k": 7}, 2),
    ]
    for family, q, params, want in cases:
        claim = construct_family(family, q, **params)
        r = matrix_rank(claim.spec.field, natural_gram(claim.spec))
        assert r == want, (family, params, r)
        assert claim.hull_dim == params["k"] - want


def test_con4e_rank_claims_refuted_beyond_z1():
    """Pin the counterexample that restricts the two-offset family to z=1:
    at q = 11, z = 2, f = 2, m = 9, k = 22 (inside every conservative bound) the
    measured Gram rank is 6, not 2 z^2 = 8."""
    q, z, f, m, k = 11, 2, 2, 9, 22
    with pytest.raises(ValueError, match="z = 1"):
        claim_arithmetic("CON4E", q, z=z, f=f, m=m, k=k)
    F = quadratic_field(q)
    s = math.gcd(m - q + f + 1, q - 1)
    B = grs._coset_exponents(q, s)
    e = q - f - 1
    b = tuple(F.alpha_pow(l) for l in B)
    a = tuple(F.solve_norm(F.sub(F.alpha_pow(-(l * e * (q + 1))),
                                 F.alpha_pow(-(l * m * (q + 1))))) for l in B)
    spec = GrsSpec(F, b, a, k)
    rank = matrix_rank(F, natural_gram(spec))
    assert rank == 6 != 2 * z * z


def test_z1_prefix_formulas_do_not_extend():
    """The z = 1 prefix-subcode dimensions (q-1 and q-f-1) are refuted at
    z >= 2: the Gram row at index q-z (resp. q-z-f) is nonzero.  The
    corrected dimensions verify; the z = 1 forms do not."""
    for family, q, params, z1_dim in [
            ("CON1E", 7, {"z": 2, "k": 14}, 6),
            ("CON2E", 7, {"z": 2, "f": 1, "k": 14}, 5),
            ("CON3E", 7, {"z": 2, "f": 2, "k": 14}, 4)]:
        claim = construct_family(family, q, **params)
        code = claim.spec.code()
        F = claim.spec.field
        assert claim.z1_subcode_dim == z1_dim
        assert claim.subcode.k < z1_dim
        good = claim.subcode.generator()
        assert not mat_mul(F, code.gen, conjugate(F, good).T).any()
        naive = replace(claim.spec, k=z1_dim).generator()
        assert mat_mul(F, code.gen, conjugate(F, naive).T).any()


def test_negative_control_corrupted_scale():
    claim = construct_family("CON2", 5, k=3)
    F = claim.spec.field
    bad = list(claim.spec.a)
    bad[0] = F.mul(bad[0], F.alpha)
    claim.spec = GrsSpec(F, claim.spec.b, tuple(bad), claim.spec.k)
    claim.subcode = replace(claim.spec, k=claim.subcode.k)
    rep = verify_claim(claim, budget=10 ** 6)
    assert rep.verdict == "FAIL"
    assert rep.first_failure == "hull_dim_gram"


def _expected_survivor(kind, claim, base_verdict):
    """The mutations that are still true claims: scaling one column of a
    one-row code keeps its hull at 0 when the row's norm sum stays nonzero,
    and a refuted CON3E instance whose hull is one above its claim is
    measured right by the claim + 1."""
    return ((kind in ("first", "last") and claim.spec.k == 1)
            or (kind == "hull+1" and claim.family == "CON3E"
                and base_verdict == "FAIL"))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_mutated_grs_claims_fail(q):
    """A negative control on every full-grid GRS instance: a claimed hull
    dimension +- 1, a subcode one row longer where it fits in the code, or
    the first or last column multiplier times alpha (the code and the
    subcode both, on a table of the mutated vector) must give a FAIL report
    unless the eliminated hull (``ref_hermitian_hull``) shows that the
    mutated claim holds, and every such survivor is one the test expects.
    ``code_mds`` cannot fail (nonzero multipliers keep a GRS code MDS) and
    ``self_orthogonal_subcode`` is two-point only; every other check fails
    on some mutation, ``hull_dim_intersection`` within the default budget.
    """
    from test_linalg_codes import ref_hermitian_hull
    F = quadratic_field(q)
    failed, mutations = set(), 0

    def holds(claim):
        hull = ref_hermitian_hull(LinearCode.from_rows(
            F, claim.spec.generator()))
        return (hull.k == claim.hull_dim
                and hull.contains_rows(claim.subcode.generator()))

    def verifier(recipe, K):
        T = grs._VectorTable(grs._evaluation_vector(F, q, *recipe).at(K))
        scaled = {}
        for kind, i in (("first", 0), ("last", -1)):
            a = list(T.spec.a)
            a[i] = F.mul(a[i], F.alpha)
            scaled[kind] = grs._VectorTable(GrsSpec(F, T.spec.b, tuple(a), K))

        def verify(family, params):
            nonlocal mutations
            claim = construct_family(family, q, table=T, **params)
            base = verify_claim(claim, distance_budget=0, table=T).verdict
            k, t, h = claim.spec.k, claim.subcode.k, claim.hull_dim
            mutants = [(f"hull{d:+d}", replace(claim, hull_dim=h + d), T)
                       for d in (-1, 1) if h + d >= 0]
            if t < k:
                mutants.append(("subcode+1", replace(
                    claim, subcode=claim.subcode.at(t + 1)), T))
            mutants += [(kind, replace(claim, spec=S.spec.at(k),
                                       subcode=S.spec.at(t)), S)
                        for kind, S in scaled.items()]
            for kind, wrong, table in mutants:
                mutations += 1
                rep = verify_claim(wrong, distance_budget=0, table=table)
                failed.update(c.name for c in rep.checks
                              if c.status == STATUS_FAIL)
                if rep.verdict != "FAIL":
                    assert holds(wrong), (kind, family, params)
                    assert _expected_survivor(kind, wrong, base), \
                        (kind, family, params)
        return verify

    grs.by_vector([(grs._recipe(family, q, params), family, params)
                   for family in grs.FAMILIES
                   for params in family_parameter_grid(family, q,
                                                       conservative=False)],
                  verifier)
    assert mutations > 0
    assert failed == set(grs.CHECKS) - {"code_mds", "self_orthogonal_subcode"}


def _old_subcode_in_hull(code, subcode):
    """The check before it read the Gram matrix: containment plus one
    Hermitian product of the subcode rows against the code."""
    rows, F = subcode.generator(), code.field
    return (code.contains_rows(rows)
            and not mat_mul(F, code.gen, conjugate(F, rows).T).any())


def _subcode_status(claim):
    rep = verify_claim(claim, budget=0, distance_budget=0)
    return {c.name: c.status for c in rep.checks}["subcode_in_hull"]


def _grid(q, families=grs.FAMILIES):
    for family in families:
        for params in family_parameter_grid(family, q, conservative=False):
            yield construct_family(family, q, **params)


@pytest.mark.parametrize("q,families", [
    *(pytest.param(q, grs.FAMILIES, id=str(q)) for q in (2, 3, 4, 5, 7, 8, 9)),
    pytest.param(16, ("CON1E", "CON4E"), id="16-CON1E-CON4E")])
def test_subcode_in_hull_matches_containment_and_product(q, families):
    # the claimed prefix subcode, and the next larger one where it fits,
    # whose last row is not orthogonal to the code
    count = failed = 0
    for claim in _grid(q, families):
        code = claim.spec.code()
        for t in {claim.subcode.k, min(claim.subcode.k + 1, claim.spec.k)}:
            claim.subcode = replace(claim.spec, k=t)
            old = _old_subcode_in_hull(code, claim.subcode)
            assert _subcode_status(claim) == \
                (STATUS_PASS if old else STATUS_FAIL), (claim.family, claim.params, t)
            count += 1
            failed += not old
    assert count > 0 and (q == 2 or failed > 0)


@pytest.mark.parametrize("family,q,params", [
    ("CON1", 4, {}), ("CON2E", 5, {"z": 1, "f": 1, "k": 5}),
    ("CON3", 7, {"k": 4})])
def test_subcode_in_hull_fails_for_a_foreign_subcode(family, q, params):
    claim = construct_family(family, q, **params)
    code = claim.spec.code()
    spec, F = claim.spec, claim.spec.field
    assert _subcode_status(claim) == STATUS_PASS
    # another scale vector: the rows leave the code
    a = list(spec.a)
    a[-1] = F.mul(a[-1], F.alpha)
    claim.subcode = GrsSpec(F, spec.b, tuple(a), claim.subcode.k)
    assert not _old_subcode_in_hull(code, claim.subcode)
    assert _subcode_status(claim) == STATUS_FAIL
    # a subcode larger than the code
    claim.subcode = replace(spec, k=spec.k + 1)
    assert _subcode_status(claim) == STATUS_FAIL


def test_subcode_on_another_vector_fails_subcode_in_hull():
    # the prefix GRS_t of a reversed vector: Gram rows 0..t-1 of the code
    # vanish, yet the subcode is not the code's prefix and leaves the hull
    claim = construct_family("CON2", 5, k=3)
    spec = claim.spec
    assert _subcode_status(claim) == STATUS_PASS
    claim.subcode = GrsSpec(spec.field, spec.b[::-1], spec.a[::-1],
                            claim.subcode.k)
    assert not _old_subcode_in_hull(claim.spec.code(), claim.subcode)
    rep = verify_claim(claim, budget=0, distance_budget=0)
    checks = {c.name: c.status for c in rep.checks}
    assert checks["max_prefix_subcode_dim"] == STATUS_PASS
    assert checks["subcode_in_hull"] == checks["hull_equality"] == STATUS_FAIL
    assert rep.first_failure == "subcode_in_hull"


def test_sweep_over_budget_builds_no_code(monkeypatch):
    # every CON1E instance at q = 16 is over the default --budget, so no
    # check reads a code, and none is built
    built = []
    code = GrsSpec.code
    monkeypatch.setattr(GrsSpec, "code",
                        lambda self: built.append(self) or code(self))
    reports = [rep for _, rep in grs.sweep(16, ("CON1E",))]
    assert reports and built == []
    assert all(rep.hull["dim_intersection"] is None for rep in reports)


def test_verify_claim_runs_no_grs_product_in_characteristic_2(monkeypatch):
    calls = []

    def counting(F, A, B):
        calls.append((A.shape, B.shape))
        return mat_mul(F, A, B)

    monkeypatch.setattr(grs, "mat_mul", counting)
    count = 0
    for q in (2, 4, 8):
        for claim in _grid(q):
            verify_claim(claim, budget=10 ** 6, distance_budget=10 ** 4)
            count += 1
    for claim in list(_grid(16, ("CON1E",)))[:5]:
        verify_claim(claim)
        count += 1
    assert count > 0 and calls == []


def test_claim_arithmetic_ranges():
    with pytest.raises(ValueError, match="1 < k < q"):
        claim_arithmetic("CON2", 5, k=5)
    with pytest.raises(ValueError, match="k-1 < m < q-1"):
        claim_arithmetic("CON4", 5, k=2, m=4)
    with pytest.raises(ValueError, match="z \\+ f \\+ 1 < q"):
        claim_arithmetic("CON2E", 5, z=2, f=2, k=10)
    with pytest.raises(ValueError, match="zq <= k"):
        claim_arithmetic("CON1E", 5, z=1, k=4)
    info = claim_arithmetic("CON3E", 7, z=1, f=2, k=8)
    assert info["n"] == 49 - 2 * 8 and info["hull_dim"] == 8 - 2
    assert info["subcode_dim"] == info["z1_subcode_dim"] == 4


def _filtered_grid(family, q, conservative):
    """The grid of every z < q - 1, each candidate kept only when
    ``claim_arithmetic`` admits it (and the conservative bound holds)."""
    out = []
    for z in range(1, q - 1):
        for f in range(1, q - z - 1):
            for m in range(q - f, q - 1):
                for k in range(z * q, (z + 1) * q - z - f - 1):
                    params = {"z": z, "f": f, "m": m, "k": k}
                    try:
                        info = claim_arithmetic(family, q, **params)
                    except ValueError:
                        continue
                    if not conservative or info["conservative"]:
                        out.append(params)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_con4e_grid_visits_only_admitted_z(q, monkeypatch):
    # the grid and claim_arithmetic read one z rule, so the CON4E grid
    # keeps exactly what the filtered loop over every z keeps; and no grid
    # of any family visits a candidate that claim_arithmetic refuses (the
    # grid lets a refusal raise), with either grid setting
    calls, refusals = [], []
    arithmetic = grs.claim_arithmetic

    def counted(*args, **kwargs):
        calls.append(args)
        try:
            return arithmetic(*args, **kwargs)
        except ValueError:
            refusals.append((args, kwargs))
            raise

    monkeypatch.setattr(grs, "claim_arithmetic", counted)
    for conservative in (True, False):
        want = _filtered_grid("CON4E", q, conservative)
        assert family_parameter_grid("CON4E", q, conservative) == want
        del calls[:]
        sizes = [len(family_parameter_grid(family, q, conservative))
                 for family in grs.FAMILIES]
        if not conservative:
            # every candidate visited is kept
            assert len(calls) == sum(sizes)
        assert refusals == []


def test_family_parameter_grid_contents():
    assert family_parameter_grid("CON1", 5) == [{"k": 5}]
    assert family_parameter_grid("CON1E", 5) == [
        {"z": 1, "k": k} for k in range(5, 8)]
    # the conservative z-bound cuts z = 2 at q = 5; the full grid has it
    wide = family_parameter_grid("CON1E", 5, conservative=False)
    assert {"z": 2, "k": 10} in wide
    assert family_parameter_grid("CON3E", 5) == []
    assert family_parameter_grid("CON4E", 5) == []
    grid7 = family_parameter_grid("CON2E", 7)
    assert all(p["z"] < 3 for p in grid7)


def test_parameter_grids_are_pinned():
    # sha256 of both modules' grids over ten q, taken before the ranges
    # moved into one table per module: the tables walk the same grids in
    # the same order, with the same key order
    from hermhull import ag
    Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    grids = [[q, f, c, family_parameter_grid(f, q, c)]
             for q in Q for f in grs.FAMILIES for c in (True, False)]
    sets = [[q, f, ag.family_parameter_grid(f, q)]
            for q in Q for f in ("COR1", "COR2", "COR3")]
    assert sum(len(g[3]) for g in grids) == 5915
    assert sum(len(g[2]) for g in sets) == 1125
    assert hashlib.sha256(json.dumps(grids).encode()).hexdigest() == \
        "5756c8f8abd7cbfc012db4d24539c38b738d7bc8c289d11d3cff4f1b0da4f557"
    assert hashlib.sha256(json.dumps(sets).encode()).hexdigest() == \
        "7560886894f02bb36c3c35527babb11dac58891b8b246b58b762a0d5dd10dc6b"


#: the parameters each GRS family reads, in grid nesting order
_READS = {"CON1": "k", "CON2": "k", "CON3": "k", "CON4": "km",
          "CON1E": "zk", "CON2E": "zfk", "CON3E": "zfk", "CON4E": "zfmk"}


@pytest.mark.parametrize("q", [3, 4, 5])
def test_claim_arithmetic_admits_exactly_the_full_grid(q):
    # every k in [-1, q^2 + 1] and z, f, m in [-1, q + 1] that a family
    # reads: the candidates admitted are the full grid, in its order
    span = {"k": range(-1, q * q + 2)} | dict.fromkeys("zfm", range(-1, q + 2))
    for family, reads in _READS.items():
        admitted = []
        for values in itertools.product(*(span[x] for x in reads)):
            params = dict(zip(reads, values))
            try:
                claim_arithmetic(family, q, **params)
            except ValueError:
                continue
            admitted.append(params)
        assert admitted == family_parameter_grid(family, q, False), family


@pytest.mark.parametrize("family, own, foreign", [
    ("CON1", {}, {"f": 2}), ("CON2", {"k": 3}, {"z": 7, "m": 1}),
    ("CON4", {"k": 2, "m": 3}, {"f": 1}),
    ("CON1E", {"z": 1, "k": 5}, {"m": 3, "f": 1})])
def test_families_refuse_parameters_they_do_not_read(family, own, foreign):
    # the parameters a family does not read are named in the order given
    for build in (claim_arithmetic, construct_family):
        with pytest.raises(ValueError, match=f"^{family} reads no "
                                             f"{', '.join(foreign)}$"):
            build(family, 5, **own, **foreign)
    assert construct_family(family, 5, **own).params.items() >= own.items()


def test_puncture_from_all_ones_recovers_full_length_family():
    q = 3
    F = quadratic_field(q)
    x = np.ones(q * q, dtype=np.int32)
    spec_k, spec_l = puncture_from_p_codeword(q, x, q, q - 1)
    claim = construct_family("CON1", q)
    assert spec_k.b == claim.spec.b
    assert spec_k.a == claim.spec.a == (1,) * 9
    assert (spec_k.k, spec_l.k) == (3, 2)


def test_puncture_from_eqtr_codeword_q4():
    q, k = 4, 2
    F = quadratic_field(q)
    x = eqtr_codeword(q, k, EqtrParams(q=q, k=k, diag={k - 1: 1}))
    spec_k, spec_l = puncture_from_p_codeword(q, x, k, k - 1)
    assert spec_k.n == q * q - 1 == 15
    # the dimension-1 subcode sits inside the Hermitian hull (checked inside
    # the builder); confirm the hull dimension is exactly k - 1 here
    code = spec_k.code()
    assert hull_dim_via_gram(code) == k - 1


def test_puncture_errors(F9):
    q = 3
    x = np.ones(9, dtype=np.int32)
    x[0] = F9.alpha  # entry outside GF(3)
    with pytest.raises(ValueError, match="GF"):
        puncture_from_p_codeword(q, x, 3, 2)
    y = np.zeros(9, dtype=np.int32)
    y[0] = 1
    with pytest.raises(ValueError, match="weight"):
        puncture_from_p_codeword(q, y, 3, 2)
    z = np.ones(9, dtype=np.int32)
    z[3] = 2
    with pytest.raises(ValueError, match="not in the extended cyclic code"):
        puncture_from_p_codeword(q, z, 3, 2)


def test_full_sweep_small_q():
    for q in (3, 4):
        for claim, rep in grs.sweep(q, budget=10 ** 6, distance_budget=10 ** 4):
            assert rep.verdict in ("PASS", "PARTIAL"), \
                (claim.family, claim.params, rep.first_failure)


def test_sweep_refuses_a_repeated_or_unknown_family(monkeypatch):
    # a family named twice would verify and return each instance twice;
    # the refusal comes before any evaluation vector is solved
    def no_vector(*args):
        raise AssertionError("a vector was solved for a refused family list")

    monkeypatch.setattr(grs, "_evaluation_vector", no_vector)
    for families, name in [(("CON1", "CON1"), "repeated family 'CON1'"),
                           (["CON1E", "CON4E", "CON1E"],
                            "repeated family 'CON1E'"),
                           (("CON1", "CON9"), "unknown family 'CON9'")]:
        with pytest.raises(ValueError, match=name):
            grs.sweep(3, families)
    monkeypatch.undo()
    assert len(grs.sweep(3, ("CON1",))) == 1


def test_full_sweep_q5_q7_no_failures():
    # nothing in the conservative grids fails at the largest supported sweeps;
    # intersection and enumeration are budget-gated, Gram ranks always run
    for q in (5, 7):
        count = 0
        for claim, rep in grs.sweep(q, budget=10 ** 6, distance_budget=10 ** 4):
            assert rep.verdict in ("PASS", "PARTIAL"), \
                (claim.family, claim.params, rep.first_failure)
            count += 1
        assert count >= 20


def test_report_quantum_chain_present():
    claim = construct_family("CON1", 5)
    rep = verify_claim(claim, budget=10 ** 6)
    assert rep.quantum
    first = rep.quantum[0]
    assert (first["n"], first["kappa"], first["delta"], first["c"]) == \
        (25, 25 - 10 + 1, 6, 1)
    assert first["mds"]
