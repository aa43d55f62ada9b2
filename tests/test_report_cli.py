import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsonschema

import hermhull
from hermhull import cli, report
from hermhull.grs import construct_family, verify_claim
from hermhull.report import (ConstructionReport, code_to_json,
                             logs_to_vector, report_schema, vector_to_logs)


def make_report():
    code, claim = construct_family("CON1", 3)
    return verify_claim(code, claim, budget=10 ** 6)


def test_verdict_logic():
    rep = ConstructionReport(construction={}, field={"p": 3, "m": 2,
                                                     "modulus": [2, 2, 1]})
    rep.check("a", report.STATUS_PASS)
    assert rep.verdict == "PASS"
    rep.check("b", report.STATUS_SKIPPED)
    assert rep.verdict == "PARTIAL"
    rep.check("c", report.STATUS_FAIL)
    assert rep.verdict == "FAIL" and rep.first_failure == "c"


def test_canonical_json_deterministic():
    r1 = make_report().to_json()
    r2 = make_report().to_json()
    assert r1 == r2
    body = json.loads(r1)
    assert "timings" not in body
    with_t = make_report().to_json(include_timings=True)
    assert "timings" in json.loads(with_t)


def test_report_validates_against_schema():
    payload = json.loads(make_report().to_json())
    jsonschema.validate(payload, report_schema())


def test_two_point_report_validates_against_schema():
    from hermhull import ag
    from hermhull.gf import quadratic_field
    F = quadratic_field(5)
    U = ag.evaluation_set("COR1", 5, s=13)
    res = ag.two_point_code(F, U, 1)
    payload = json.loads(res.report.to_json(include_timings=True))
    jsonschema.validate(payload, report_schema())


def test_log_serialization_round_trip(F9):
    v = np.array([0, 1, F9.alpha, F9.alpha_pow(5)], dtype=np.int32)
    logs = vector_to_logs(F9, v)
    assert logs[0] == -1
    assert np.array_equal(logs_to_vector(F9, logs), v)


def test_code_to_json(F9):
    from hermhull.linalg_codes import LinearCode
    C = LinearCode.from_rows(F9, [[1, 0, 1], [0, 1, 2]])
    d = code_to_json(C)
    assert d["n"] == 3 and d["k"] == 2
    assert d["field"] == {"p": 3, "m": 2, "modulus": [2, 2, 1]}
    assert len(d["generator"]) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def run_cli(capsys, *argv):
    rc = cli.run(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cli_cyclic_dkl(capsys):
    rc, out = run_cli(capsys, "cyclic", "dkl", "--q", "3", "--k", "2", "--l", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"D": [1, 3], "dim": 6, "extended_dim": 6,
                       "ht_bound": 2, "k": 2, "l": 1, "q": 3}


def test_cli_grs_construct_hull_dim(capsys):
    rc, out = run_cli(capsys, "grs", "construct", "--family", "CON1", "--q", "5")
    assert rc == 0
    body = json.loads(out)["report"]
    assert body["verdict"] == "PASS"
    assert body["hull"]["dim_gram"] == 4


def test_cli_determinism(capsys):
    rc1, out1 = run_cli(capsys, "grs", "construct", "--family", "CON2",
                        "--q", "4", "--k", "2")
    rc2, out2 = run_cli(capsys, "grs", "construct", "--family", "CON2",
                        "--q", "4", "--k", "2")
    assert rc1 == rc2 == 0 and out1 == out2


def test_cli_verify_all_q3(capsys):
    rc, out = run_cli(capsys, "verify-all", "--q", "3",
                      "--distance-budget", "100000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] >= 6


def test_cli_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["grs", "construct", "--family", "NOPE", "--q", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["unknown-command"])
    assert exc.value.code == 2


def test_cli_out_of_range_params_exit_2(capsys):
    rc = cli.run(["grs", "construct", "--family", "CON2", "--q", "5",
                  "--k", "9"])
    assert rc == 2


def test_cli_field_command(capsys):
    rc, out = run_cli(capsys, "field", "--p", "5", "--m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["modulus"] == [2, 4, 1] and payload["q"] == 5
    rc, out = run_cli(capsys, "field", "--p", "5", "--m", "2",
                      "--modulus", "2,1,1")
    assert rc == 0
    assert json.loads(out)["modulus"] == [2, 1, 1]


def test_cli_ag_build(capsys):
    rc, out = run_cli(capsys, "ag", "build", "--family", "COR2", "--q", "5",
                      "--t", "2", "--k", "1")
    assert rc == 0
    body = json.loads(out)["report"]
    assert body["verdict"] == "PASS"
    assert body["hull"]["dim_measured"] == 1
    assert body["code"]["n"] == 10


def _cor_logs(F, U):
    return sorted(F.log_of(u) for u in U if u) + (["zero"] if 0 in U else [])


@pytest.mark.parametrize("q, modulus, family, params", [
    (3, "2,1,1", "COR1", {"s": 5}),
    (3, "2,1,1", "COR2", {"t": 2}),
    (4, "1,0,0,1,1", "COR2", {"t": 2}),
    (4, "1,0,0,1,1", "COR1", {"s": 6}),
])
def test_cli_ag_build_field_modulus(capsys, q, modulus, family, params):
    # the evaluation set is built in the requested field, not in the
    # default Conway field and then reread in the requested one
    from hermhull import ag
    from hermhull.gf import make_field, prime_power
    p, e = prime_power(q)
    F = make_field(p, 2 * e, [int(c) for c in modulus.split(",")])
    argv = ["ag", "build", "--family", family, "--q", str(q), "--k", "0",
            "--field-modulus", modulus]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    body = json.loads(out)["report"]
    assert body["verdict"] == "PASS"
    assert body["field"]["modulus"] == [int(c) for c in modulus.split(",")]
    U = ag.evaluation_set(family, q, field=F, **params).points
    assert body["construction"]["evaluation_set"] == _cor_logs(F, U)
    if family == "COR1":   # (s-1)-th roots of unity in F, plus 0
        assert all(F.pow(u, params["s"] - 1) == 1 for u in U if u)
    else:                  # {c*alpha + v : c < t, v in GF(q)} in F
        assert set(U) == {F.add(F.mul(F.from_subfield(c), F.alpha),
                                F.from_subfield(v))
                          for c in range(params["t"]) for v in range(q)}


def test_cli_ag_grow(capsys):
    rc, out = run_cli(capsys, "ag", "grow", "--q", "5", "--steps", "2")
    assert rc == 0
    payload = json.loads(out)
    assert [s["size"] for s in payload["steps"]] == [7, 9]
    assert all(s["conjugate"] for s in payload["steps"])


def test_cli_quantum_params_direct(capsys):
    rc, out = run_cli(capsys, "quantum", "params", "--q", "7", "--n", "49",
                      "--k", "7", "--hull-dim", "6", "--propagate", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["params"][0]["kappa"] == 36
    assert payload["params"][1]["c"] == 2


def test_cli_quantum_params_from_report(tmp_path, capsys):
    rc, out = run_cli(capsys, "grs", "construct", "--family", "CON1", "--q", "3")
    path = tmp_path / "report.json"
    path.write_text(out)
    rc, out2 = run_cli(capsys, "quantum", "params", "--from", str(path))
    assert rc == 0
    payload = json.loads(out2)
    assert payload["ingredient"] == {"q": 3, "n": 9, "k": 3, "hull_dim": 2}
    assert payload["params"][0]["kappa"] == 9 - 6 + 1


def test_cli_quantum_tables_csv(capsys):
    rc, out = run_cli(capsys, "quantum", "tables", "--q", "7", "--format", "csv")
    assert rc == 0
    assert "table3_new,49,25,15,4,7" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_cli_quantum_tables_q2(capsys, fmt):
    # the propagation rule needs q > 2: the q = 2 row of family 1 has no
    # 2-ebit variant and an empty ladder, and every format prints it
    rc, out = run_cli(capsys, "quantum", "tables", "--q", "2", "--format", fmt)
    assert rc == 0
    if fmt == "json":
        row1 = json.loads(out)["table1"][0]
        assert row1["row"] == 1 and row1["n"] == 4
        assert row1["eaqecc_2"] is None and row1["eaqecc_ladder"] == []
        assert row1["qecc"]["kappa"] == 2 and row1["qecc"]["c"] == 0
    elif fmt == "csv":
        assert "table1,4,2,,,2,row1" in out.splitlines()
    else:
        assert out.strip() == "```\n[]\n```"


def test_cli_quantum_params_refuses_failed_report(tmp_path, capsys):
    # CON3E at q = 11, z = 3, f = 2 is refuted by its Gram rank
    rc, out = run_cli(capsys, "grs", "construct", "--family", "CON3E",
                      "--q", "11", "--z", "3", "--f", "2", "--k", "33")
    assert rc == 1 and json.loads(out)["report"]["verdict"] == "FAIL"
    path = tmp_path / "report.json"
    path.write_text(out)
    rc = cli.run(["quantum", "params", "--from", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "FAIL" in captured.err


def test_cli_quantum_params_missing_arguments(capsys):
    rc = cli.run(["quantum", "params", "--q", "7", "--n", "49"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--hull-dim" in captured.err


def test_cli_quantum_params_refuses_multi_report_output(tmp_path, capsys):
    rc, out = run_cli(capsys, "verify-all", "--q", "2")
    assert rc == 0 and set(json.loads(out)) == {"summary", "reports"}
    path = tmp_path / "sweep.json"
    path.write_text(out)
    rc = cli.run(["quantum", "params", "--from", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert '{"report": {...}}' in captured.err


@pytest.mark.parametrize("body,missing", [
    ({"verdict": "PASS"}, "'field'"),
    ({"field": {"p": 3, "m": 2}}, "'verdict'"),
    ({"verdict": "PASS", "field": {"p": 3, "m": 2}, "code": {"n": 9, "k": 3},
      "hull": {}}, "'dim_measured'"),
    (["not", "a", "report"], "malformed report"),
])
def test_cli_quantum_params_malformed_report_exit_2(tmp_path, capsys, body,
                                                    missing):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"report": body}))
    rc = cli.run(["quantum", "params", "--from", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert missing in captured.err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(hermhull.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "hermhull", "field",
                           "--p", "2", "--m", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, out = run_cli(capsys, "field", "--p", "2", "--m", "2")
    assert rc == 0 and proc.stdout == out


def test_cli_internal_fault_exit_3(capsys, monkeypatch):
    from hermhull.gf import FieldContext

    def broken(self, a, b):
        raise RuntimeError("kernel invariant violated")

    monkeypatch.setattr(FieldContext, "mul_arr", broken)
    rc = cli.run(["grs", "construct", "--family", "CON1", "--q", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "internal error: kernel invariant violated\n"


def test_cli_value_error_in_verification_exit_3(capsys, monkeypatch):
    from hermhull import ag, grs

    def broken(*args, **kwargs):
        raise ValueError("inner dimensions differ")

    monkeypatch.setattr(grs, "verify_claim", broken)
    rc = cli.run(["grs", "construct", "--family", "CON1", "--q", "3"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == ("internal error: ValueError during "
                            "verification: inner dimensions differ\n")
    assert cli.run(["grs", "sweep", "--q", "3", "--families", "CON1"]) == 3
    monkeypatch.setattr(ag, "two_point_code", broken)
    assert cli.run(["ag", "build", "--family", "COR2", "--q", "5",
                    "--k", "1", "--t", "3"]) == 3
    capsys.readouterr()


def test_cli_construction_input_errors_exit_2(capsys):
    # rejected before verification starts: a bad family, a bad q, a k or
    # extra place the two-point construction does not admit
    assert cli.run(["grs", "sweep", "--q", "3", "--families", "CON9"]) == 2
    assert cli.run(["verify-all", "--q", "6"]) == 2
    assert cli.run(["ag", "build", "--family", "COR2", "--q", "5",
                    "--k", "9", "--t", "3"]) == 2
    assert cli.run(["ag", "build", "--family", "COR2", "--q", "5",
                    "--k", "1", "--t", "3", "--p-log", "0"]) == 2
    err = capsys.readouterr().err
    assert "unknown family 'CON9'" in err and "not a prime power" in err
    assert "need 0 <= k" in err and "extra place" in err


def test_cli_field_modulus_needs_prime_power(capsys):
    rc = cli.run(["ag", "grow", "--q", "6", "--field-modulus", "1,1,1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a prime power" in captured.err


#: sha256 of the stdout of ``verify-all --q Q``; a change that alters report
#: bodies on purpose updates these and records why
GOLDEN_VERIFY_ALL = {
    3: "6c7074dc8e6de5f5f00a26e056de7c7c02b936d787f55d0f1e1a0ad1b4489319",
    4: "ee3dfb5a645cf00990ef1111cb9b6bfa3538ec505957e1d6c59330ec0bec71ea",
    5: "fd9a11f446cb192b0eb2a46332a4e9887b14e92a342485a256f3d5755a5d9dd7",
    7: "94d9e41fe451053614a84ce729ae82d263b5b2e6059071872da66a3c9d84d0a1",
    8: "f3e24b023c815c3f2c59d2bfe5d12f080d4d500e7f007ba5c46bb6f3dab9b89f",
    9: "296590df993ab0cc9eb0500bd7cf963934a5a9130331bcd16de22ebecfae1ec4",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_VERIFY_ALL))
def test_cli_verify_all_golden_bodies(capsys, q):
    rc, out = run_cli(capsys, "verify-all", "--q", str(q))
    assert rc == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VERIFY_ALL[q]


#: the same for q = 11, 13 and 16, whose grids carry the CON3E FAIL reports
#: of the refuted hull claims with f < z, so the command exits 1; q = 16 also
#: covers the CON2E and CON3E grids, whose evaluation vectors recur for each
#: z and so refill evicted entries of the power-sum memo of ``natural_gram``
GOLDEN_VERIFY_ALL_WITH_FAILS = {
    11: "7bd1d20d7477662d28ec6a649784623c8f50b62f50bee25c76ad16d815530895",
    13: "1d2f186c1b55bd2a15d7fcc0fb9e8c283c85257501563e32babcf3e10e0b8496",
    16: "84297308478e817677e6ce0c8832fb01835efa12b2fba77ee622824c332780f7",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_VERIFY_ALL_WITH_FAILS))
def test_cli_verify_all_golden_bodies_with_fails(capsys, q):
    rc, out = run_cli(capsys, "verify-all", "--q", str(q))
    assert rc == 1
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VERIFY_ALL_WITH_FAILS[q]


#: sha256 of the stdout of ``grs sweep --q 16 --families CON1E,CON4E``, the
#: widest characteristic-2 generators (k up to 127, n = 256)
GOLDEN_SWEEP_Q16_WIDE = \
    "79a77e9c4f49019dfdce146cbf15222f072448508bca6a16bcd4671ac5720761"


def test_cli_grs_sweep_q16_wide_golden_body(capsys):
    rc, out = run_cli(capsys, "grs", "sweep", "--q", "16",
                      "--families", "CON1E,CON4E")
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SWEEP_Q16_WIDE


#: sha256 of the stdout of ``ag build ... --include-code`` and ``grs
#: construct ... --include-code``: whole report bodies with the generator,
#: over the three two-point families and hull outcomes "n/a", "enumerated"
#: and "unverified"
GOLDEN_INCLUDE_CODE = {
    "ag build --family COR1 --q 4 --s 6 --k 0":
        "aa274b3034e6717a8e34802c8ed3e00f88955b075dde5d49a9f8560588d024b5",
    "ag build --family COR2 --q 4 --t 3 --k 2":
        "1524f5430875634976a2ed397b58dfc5b8c9aee9c0e172a49cc5144d5be94bf3",
    "ag build --family COR3 --q 4 --n0 5 --t 1 --k 1":
        "9bb74ce6a098b0616111fc09411aaa42359e1102cd656df495b4fda6e6cef0f0",
    "ag build --family COR1 --q 5 --s 13 --k 1":
        "851ef8b7214f64ecfc92002052aedb51b80c444f6314a25d51d459bff8af6ad7",
    "ag build --family COR2 --q 5 --t 4 --k 3":
        "0e55fc9f01c222d6f6acd822d278ab51e821bbfba09aeab5a86f36c660e2f8d0",
    "ag build --family COR3 --q 5 --n0 6 --t 2 --k 2":
        "12486b325fa1a27ada1756a89e986d1ca8f926a9ef1dd2eacbc33125ff9568b9",
    "ag build --family COR1 --q 8 --s 22 --k 2":
        "071188f787c981e3050bab0266af7266b5ccd03d568e7903e8ee846e519512e6",
    "ag build --family COR2 --q 8 --t 3 --k 1":
        "52aa8d8e56bf6abff6ad7e22a50066afd61edc4175080d553b6f70a1ec6c7410",
    "ag build --family COR3 --q 8 --n0 9 --t 4 --k 4":
        "fee57f1a026a6f54c4d4ef21925fde75958bd271f1614e9c70ee9e6b2dd98167",
    "ag build --family COR1 --q 9 --s 41 --k 3":
        "89fd3135fa1f9e56fd51445b7ecaa9dc7f7956c6fadde69b663796bf53dd3271",
    "ag build --family COR2 --q 9 --t 5 --k 4":
        "ce1f9d8b17da82c6617f4c35b75af69200f2d1319d028c8526a3613441dbfa20",
    "ag build --family COR3 --q 9 --n0 5 --t 4 --k 2":
        "5ac39260523537a1813e4e8e6779504144cdc45dd55178a8fb159ce72c1ff967",
    "grs construct --family CON1 --q 5":
        "97405b308b0d8cf28f1fa042229fcb80a305f29e0767ffb9ecccba9583dce956",
    "grs construct --family CON2E --q 7 --k 8 --z 1 --f 1":
        "673e09f031685a6a889e47749f45d8bf32a1c470d4b8f5bca22b02f9b10ea269",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_INCLUDE_CODE), ids=lambda c:
                         c.replace("--", "").replace(" ", "-"))
def test_cli_include_code_golden_bodies(capsys, command):
    rc, out = run_cli(capsys, *command.split(), "--include-code")
    assert rc == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_INCLUDE_CODE[command]


#: sha256 of the stdout of ``ag grow --q Q --steps 3``
GOLDEN_AG_GROW = {
    3: "4a5a09873d2d0e5de24f85178e4c472de42425c8253781f42f5433a0444c9fe8",
    4: "78e7f467ee89b3566d7a5d240fa5e616cdf41fdfab8f74a9900577ead7f2f647",
    5: "46900cf2912a955c578de9d7c0319db0b06c10a874186d4678ff9c873cb76f6c",
    7: "e79eb450897cb83f2dbe2bc462324a38f695a0807d4b8699c57509d9bf149207",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_AG_GROW))
def test_cli_ag_grow_golden_bodies(capsys, monkeypatch, q):
    # the growth path takes h(b) from log sums, not from polynomials
    def refuse(*args):
        raise AssertionError("ag grow must not call polys")

    from hermhull import polys
    monkeypatch.setattr(polys, "from_roots", refuse)
    monkeypatch.setattr(polys, "evaluate", refuse)
    rc, out = run_cli(capsys, "ag", "grow", "--q", str(q), "--steps", "3")
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_AG_GROW[q]


def test_cli_distance_budget_caps_two_point_hull_enumeration(capsys):
    # the [20, 3] hull has 25^3 = 15,625 messages, over the budget of 10^4
    rc, out = run_cli(capsys, "ag", "build", "--family", "COR2", "--q", "5",
                      "--t", "4", "--k", "3", "--distance-budget", "10000")
    assert rc == 0
    body = json.loads(out)["report"]
    checks = {c["name"]: c["status"] for c in body["checks"]}
    assert checks["hull_mds"] == report.STATUS_SKIPPED
    assert checks["code_distance"] == report.STATUS_SKIPPED
    assert body["hull"]["mds"] == "unverified"


@pytest.mark.parametrize("argv, message", [
    (["quantum", "params", "--q", "6", "--n", "10", "--k", "3",
      "--hull-dim", "1"], "not a prime power"),
    (["quantum", "tables", "--q", "6"], "not a prime power"),
    (["cyclic", "dkl", "--q", "6", "--k", "2", "--l", "1"],
     "not a prime power"),
    (["quantum", "params", "--q", "7", "--n", "49", "--k", "7",
      "--hull-dim", "-1"], "hull dimension"),
], ids=["params-q6", "tables-q6", "dkl-q6", "params-negative-hull"])
def test_cli_rejects_impossible_parameters_exit_2(capsys, argv, message):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err
