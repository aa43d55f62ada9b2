import itertools
import re
from fractions import Fraction

import pytest

from conftest import hull_dim_via_gram, quantum_tables
from hermhull import quantum
from hermhull.quantum import QuantumParams, eaqecc, propagate, singleton_check


def test_params_validation():
    with pytest.raises(ValueError):
        QuantumParams(n=5, kappa=1, delta=1, c=6, q=3)
    with pytest.raises(ValueError):
        QuantumParams(n=5, kappa=-1, delta=1, c=0, q=3)
    with pytest.raises(ValueError):
        QuantumParams(n=5, kappa=1, delta=0, c=0, q=3)
    p = QuantumParams(n=5, kappa=1, delta=2, c=0, q=3)
    assert p.label() == "[[5,1,2;0]]_3"


def test_eaqecc_validation():
    with pytest.raises(ValueError, match="hull dimension"):
        eaqecc(3, 9, 3, 4)
    with pytest.raises(ValueError, match="hull dimension"):
        eaqecc(3, 9, 3, -1)
    with pytest.raises(ValueError, match="not a prime power"):
        eaqecc(6, 9, 3, 2)
    p = eaqecc(3, 9, 3, 2)
    # delta is the dual distance k + 1, so the code is pure
    assert p.delta == 4
    assert p.to_json()["pure"] and p.to_json()["delta_kind"] == "structural"


def test_derived_parameter_examples():
    # self-orthogonal MDS [n, k]: plain quantum code [[n, n-2k, k+1; 0]]
    p = eaqecc(4, 16, 4, 4)
    assert p.label() == "[[16,8,5;0]]_4"
    # full-length dimension-q code with hull dimension q-1
    q = 5
    p = eaqecc(q, q * q, q, q - 1)
    assert (p.n, p.kappa, p.delta, p.c) == (25, 25 - 10 + 1, 6, 1)
    # the hull itself as a self-orthogonal code
    p2 = eaqecc(q, q * q, q - 1, q - 1)
    assert (p2.n, p2.kappa, p2.delta, p2.c) == (25, 25 - 10 + 2, 5, 0)


def test_propagation_chain():
    q = 5
    base = eaqecc(q, 25, 5, 4)
    assert propagate(base, 0, 4) == base
    p = propagate(base, 1, 4)
    assert (p.kappa, p.c, p.delta) == (base.kappa + 1, 2, base.delta)
    with pytest.raises(ValueError):
        propagate(base, 5, 4)
    with pytest.raises(ValueError):
        propagate(QuantumParams(9, 1, 3, 0, 2), 1, 2)


def test_singleton_checks():
    q = 7
    chk = singleton_check(QuantumParams(49, 49 - 14 + 2, 8, 2, q))
    assert chk["mds"] and chk["bound1_slack"] == 0
    chk = singleton_check(QuantumParams(50, 36, 8, 0, 7))
    assert chk["mds"]
    # fabricated violation: negative slack, not MDS
    chk = singleton_check(QuantumParams(10, 9, 3, 0, 5))
    assert chk["bound1_slack"] == -3 and not chk["mds"]
    # large-distance regime uses the third bound
    chk = singleton_check(QuantumParams(4, 2, 3, 2, 5))
    assert chk["bound3_slack"] == Fraction(0) and chk["mds"]
    chk = singleton_check(QuantumParams(4, 1, 3, 2, 5))
    assert chk["bound3_slack"] == Fraction(1) and not chk["mds"]


def test_propagation_preserves_bound1_slack():
    base = eaqecc(7, 48, 8, 7)
    s0 = singleton_check(base)["bound1_slack"]
    for i in range(1, 8):
        assert singleton_check(propagate(base, i, 7))["bound1_slack"] == s0


def test_table1_contains_ladder_example():
    rows = quantum_tables(5)["table1"]
    row2 = [r for r in rows if r["row"] == 2 and r["constraints"].get("k") == 3]
    assert row2
    ladder = row2[0]["eaqecc_ladder"]
    entry = [e for e in ladder if e["u"] == 1]
    assert entry and (entry[0]["n"], entry[0]["kappa"], entry[0]["delta"],
                      entry[0]["c"]) == (24, 20, 5, 4)


def test_table1_row1_shape():
    rows = quantum_tables(7)["table1"]
    r1 = [r for r in rows if r["row"] == 1][0]
    assert (r1["n"], r1["kappa"]) == (49, 37)
    assert (r1["qecc"]["delta"], r1["qecc"]["c"]) == (7, 0)
    assert (r1["eaqecc_2"]["delta"], r1["eaqecc_2"]["c"]) == (8, 2)


def test_table2_round_trip_from_first_principles():
    # construction -> measured hull -> parameter arithmetic matches the
    # closed-form rows
    from hermhull.grs import construct_family
    cases = [("CON1E", 5, {"z": 1, "k": 6}),
             ("CON2E", 7, {"z": 1, "f": 1, "k": 8}),
             ("CON3E", 7, {"z": 1, "f": 2, "k": 8})]
    rows = {q: quantum_tables(q)["table2"] for q in (5, 7)}
    for family, q, params in cases:
        claim = construct_family(family, q, **params)
        code = claim.spec.code()
        hull_dim = hull_dim_via_gram(code)
        assert hull_dim == claim.hull_dim
        p = eaqecc(q, code.n, code.k, hull_dim)
        match = [r for r in rows[q]
                 if r["family"] == family and r["constraints"] == claim.params | params
                 or (r["family"] == family and all(
                     r["constraints"].get(k2) == v2 for k2, v2 in params.items()))]
        assert any((r["n"], r["kappa"], r["c"]) == (p.n, p.kappa, p.c)
                   for r in match)


def test_table2_cor_rows_cover_hull_scaling():
    rows = [r for r in quantum_tables(5)["table2"] if r["family"] == "COR2"]
    # the 20-point family at code dimension 5 walks c over [2, 5]
    walk = [(r["c"], r["kappa"]) for r in rows
            if r["constraints"].get("t") == 4 and r["constraints"].get("k") == 3]
    assert walk == [(2, 12), (3, 13), (4, 14), (5, 15)]


TABLE3_EXPECTED = [
    (49, 25, 15, 4), (49, 23, 16, 4), (49, 21, 17, 4), (49, 19, 18, 4),
    (49, 16, 22, 9), (49, 14, 23, 9), (49, 12, 24, 9),
    (41, 29, 8, 2), (41, 27, 9, 2), (41, 25, 10, 2), (41, 23, 11, 2),
    (41, 19, 15, 6), (41, 17, 16, 6), (41, 15, 17, 6),
    (33, 21, 8, 2), (33, 19, 9, 2), (33, 17, 10, 2),
    (25, 13, 8, 2), (25, 11, 9, 2),
]


def test_table3_new_entries():
    rows = quantum_tables(7)["table3_new"]
    keys = {(r["n"], r["kappa"], r["delta"], r["c"]) for r in rows}
    for entry in TABLE3_EXPECTED:
        assert entry in keys, entry
    # the remaining golden entry fails its own bound equality;
    # the construction-derived row carries kappa 11, not 10
    assert (33, 10, 16, 8) not in keys
    assert (33, 11, 16, 8) in keys
    by_key = {(r["n"], r["kappa"], r["delta"], r["c"]): r for r in rows}
    for entry in TABLE3_EXPECTED:
        row = by_key[entry]
        assert row["mds"] and not row["dominated"]
        p = QuantumParams(row["n"], row["kappa"], row["delta"], row["c"], 7)
        assert singleton_check(p)["bound1_slack"] == 0


def test_table3_new_drops_the_refuted_con3e_rows():
    # CON3E at q = 8, z = 3, f = 2 claims hull k - z^2 - zf = k - 15; the
    # Gram rank measures k - 14, the reports FAIL and no row is read off
    # them, neither the claimed one nor one with the measured hull
    from hermhull.grs import construct_family, verify_claim
    rows = quantum_tables(8)["table3_new"]
    keys = {(r["n"], r["kappa"], r["delta"], r["c"]) for r in rows}
    for k, claimed in ((24, (55, 22, 25, 15)), (25, (55, 20, 26, 15))):
        rep = verify_claim(construct_family("CON3E", 8, z=3, f=2, k=k))
        assert rep.verdict == "FAIL" and rep.hull["dim_gram"] == k - 14
        assert claimed not in keys
        assert {"z": 3, "f": 2, "k": k} not in [
            r["constraints"] for r in rows if r["family"] == "CON3E"]


def test_table2_has_no_pivot_scaled_row_where_every_norm_is_pm1():
    # every norm in GF(3)* is +-1, so no pivot scaling backs a hull below
    # the two-point code's own; [[6,3,4;3]]_3 (hull 0 of the [6, 3] COR2
    # code, t = 2) is not emitted
    rows = [r for r in quantum_tables(3)["table2"]
            if r["family"].startswith("COR")]
    assert rows
    assert all(r["constraints"]["hull_dim"] == r["constraints"]["k"]
               for r in rows)
    assert (6, 3, 4, 3) not in {(r["n"], r["kappa"], r["delta"], r["c"])
                                for r in rows}


def test_table3_ingredients_verify():
    # spot-check that the claimed hull dimensions behind two table rows are
    # real, by exact Gram rank on the built codes
    from hermhull.grs import construct_family
    claim = construct_family("CON1E", 7, z=3, k=21)
    code = claim.spec.code()
    assert hull_dim_via_gram(code) == 21 - 9
    claim = construct_family("CON3E", 7, z=2, f=2, k=15)
    code = claim.spec.code()
    assert hull_dim_via_gram(code) == 15 - 8


def test_chain_to_json():
    chain = quantum.chain_to_json(5, 25, 5, 4)
    assert len(chain) == 3  # base + two propagation steps
    assert chain[0]["c"] == 1 and chain[1]["c"] == 2
    assert all(entry["mds"] for entry in chain)


def test_chain_to_json_is_empty_at_full_dimension():
    # at k = n the Hermitian dual is {0}: no delta exists
    assert quantum.chain_to_json(7, 2, 2, 0) == []
    with pytest.raises(ValueError, match="need 0 <= k < n"):
        eaqecc(7, 2, 2, 0)


def _table_entries(tables: dict):
    for row in tables["table1"]:
        yield row["qecc"]
        if row["eaqecc_2"] is not None:
            yield row["eaqecc_2"]
        yield from row["eaqecc_ladder"]
    yield from tables["table2"]
    yield from tables["table3_new"]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_every_entry_has_a_distance_within_the_length(q):
    # every (n, k, hull) a code of length up to q^2 can carry
    chains = [entry for n in range(1, q * q + 1) for k in range(n + 1)
              for hull in range(min(k, n - k) + 1)
              for entry in quantum.chain_to_json(q, n, k, hull)]
    for entry in chains + list(_table_entries(quantum_tables(q))):
        assert entry["delta"] <= entry["n"] and entry["kappa"] >= 0, entry


def test_emit_tables_shape():
    t = quantum_tables(5)
    assert set(t) == {"table1", "table2", "table3_new"}
    assert t["table1"] and t["table2"]


def _regime_edges(p) -> set[str]:
    """The Singleton regime of ``p`` for its MDS verdict, and the edges of
    bound3 that it sits on."""
    if 2 * p.delta <= p.n:
        return {"2 delta = n" if 2 * p.delta == p.n else "bound1"}
    out = {"2 delta = n + 1" if 2 * p.delta == p.n + 1 else "bound3"}
    if 3 * p.delta - 3 - p.n <= 0:
        out.add("3 delta - 3 - n <= 0")
    return out


def test_mds_is_the_exact_slack_of_its_regime():
    # every parameter set up to n = 12, violations of the bounds included:
    # the integer verdict is a zero slack of bound1 (2 delta <= n) or of
    # bound3, and False where bound3 does not apply
    for n, delta, c in itertools.product(range(13), range(1, 14), range(13)):
        if c > n:
            continue
        for kappa in range(n + 3):
            chk = singleton_check(QuantumParams(n, kappa, delta, c, 5))
            slack = (chk["bound1_slack"] if 2 * delta <= n
                     else chk["bound3_slack"])
            assert chk["mds"] is (slack == 0), (n, kappa, delta, c)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16])
def test_chain_to_json_equals_its_reference(q):
    # the integer chain against eaqecc, propagate and json_with_mds, entry
    # for entry, on every admissible (n, k, hull) up to n = 40 and at the
    # q = 16 lengths 255 and 256; its mds is the exact slack of the bound
    # of its regime, and every regime edge is met
    edges = set()
    for n in [*range(1, 41), 255, 256]:
        assert quantum.chain_to_json(q, n, n, 0) == []
        for k in range(n):
            for hull in range(min(k, n - k) + 1):
                base = eaqecc(q, n, k, hull)
                steps = [base] + ([propagate(base, i, hull) for i in range(
                    1, min(hull, quantum.CHAIN_STEPS) + 1)] if q > 2 else [])
                chain = quantum.chain_to_json(q, n, k, hull)
                assert chain == [quantum.json_with_mds(p) for p in steps]
                if n > 40:
                    continue
                for p, entry in zip(steps, chain):
                    chk = singleton_check(p)
                    slack = (chk["bound1_slack"] if 2 * p.delta <= p.n
                             else chk["bound3_slack"])
                    assert entry["mds"] is (slack == 0), (p, chk)
                    edges |= _regime_edges(p)
    assert edges == {"bound1", "2 delta = n", "2 delta = n + 1", "bound3",
                     "3 delta - 3 - n <= 0"}
    # the same ValueError as eaqecc: hull out of range, k out of range, q
    for args in ((q, 10, 3, 4), (q, 10, 3, -1), (q, 10, 8, 3), (q, 5, 7, 0),
                 (6, 10, 3, 1)):
        with pytest.raises(ValueError) as want:
            eaqecc(*args)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            quantum.chain_to_json(*args)
