import argparse
import gc
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
from conftest import quantum_tables
from hermhull import ag, cli, grs, quantum, report
from hermhull.grs import construct_family, verify_claim
from hermhull.linalg_codes import DEFAULT_BUDGET
from hermhull.report import (ConstructionReport, code_to_json, report_schema,
                             vector_to_logs)


def make_report():
    return verify_claim(construct_family("CON1", 3), budget=10 ** 6)


def single_report_text(rep, timings=False) -> str:
    """``rep`` in the payload that ``grs construct`` and ``ag build``
    print: ``{"report": body}``, plus "timings" under --timings."""
    payload = {"report": rep.to_canonical_dict()}
    if timings:
        payload["timings"] = rep.timings
    return cli._dump(payload)


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
    r1 = single_report_text(make_report())
    r2 = single_report_text(make_report())
    assert r1 == r2
    body = json.loads(r1)
    assert "timings" not in body
    with_t = single_report_text(make_report(), timings=True)
    assert "timings" in json.loads(with_t)


def test_report_validates_against_schema():
    payload = json.loads(single_report_text(make_report()))
    jsonschema.validate(payload, report_schema())


def test_schema_names_the_verifier_checks():
    name = report_schema()["properties"]["report"]["properties"]["checks"]
    assert name["items"]["properties"]["name"]["enum"] == list(grs.CHECKS)


def test_two_point_report_validates_against_schema():
    from hermhull import ag
    U = ag.evaluation_set("COR1", 5, s=13)
    rep = ag.two_point_code(U, 1).report
    payload = json.loads(single_report_text(rep, timings=True))
    jsonschema.validate(payload, report_schema())


def test_log_serialization_round_trip(F9):
    v = np.array([0, 1, F9.alpha, F9.alpha_pow(5)], dtype=np.int32)
    logs = vector_to_logs(F9, v)
    assert logs[0] == -1
    assert np.array_equal([F9.alpha_pow(e) if e >= 0 else 0 for e in logs], v)


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


#: one small invocation of every subcommand that declares --format
FORMAT_INVOCATIONS = {
    ("field",): ["--p", "3", "--m", "2"],
    ("grs", "construct"): ["--family", "CON3", "--q", "5", "--k", "3"],
    ("grs", "sweep"): ["--q", "3", "--families", "CON3"],
    ("cyclic", "dkl"): ["--q", "3", "--k", "2", "--l", "1"],
    ("ag", "build"): ["--family", "COR2", "--q", "5", "--t", "2", "--k", "1"],
    ("ag", "grow"): ["--q", "3", "--steps", "1"],
    ("quantum", "params"): ["--q", "3", "--n", "9", "--k", "3",
                            "--hull-dim", "2"],
    ("quantum", "tables"): ["--q", "3"],
    ("verify-all",): ["--q", "2"],
}


def _format_subcommands(parser, path=()) -> list[tuple]:
    """The command paths of every leaf parser that declares --format."""
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out += _format_subcommands(sub, path + (name,))
    if "--format" in parser._option_string_actions:
        out.append(path)
    return out


def test_cli_every_format_flag_is_honoured(capsys):
    # --format markdown prints the fenced JSON or the table form, never the
    # compact JSON of the default
    commands = _format_subcommands(cli.build_parser())
    assert sorted(commands) == sorted(FORMAT_INVOCATIONS)
    for command in commands:
        rc, out = run_cli(capsys, *command, *FORMAT_INVOCATIONS[command],
                          "--format", "markdown")
        assert rc == 0, command
        text = out.rstrip("\n")
        fenced = text.startswith("```\n") and text.endswith("\n```")
        assert fenced or text.startswith("| "), (command, text[:80])


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


@pytest.mark.parametrize("argv", [
    ["verify-all", "--q", "3", "--budget", "-1"],
    ["verify-all", "--q", "3", "--distance-budget", "-5"],
    ["grs", "sweep", "--q", "3", "--budget", "-1"],
    ["grs", "construct", "--family", "CON1", "--q", "3",
     "--distance-budget", "-1"],
    ["ag", "build", "--family", "COR2", "--q", "5", "--t", "4", "--k", "3",
     "--distance-budget", "-1"],
])
def test_cli_negative_budget_exit_2(capsys, argv):
    # a negative budget would skip every gated check and still exit 0
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "budget: must be >= 0, not -" in err


def test_cli_zero_budget_is_valid(capsys):
    rc, out = run_cli(capsys, "verify-all", "--q", "3", "--budget", "0",
                      "--distance-budget", "0")
    assert rc == 0
    summary = json.loads(out)["summary"]
    assert summary["fail"] == 0 and summary["partial"] > 0


def test_cli_ag_build_has_no_budget_flag(capsys):
    # the two-point path has no hull-intersection work to cap; only the
    # distance budget applies
    with pytest.raises(SystemExit) as exc:
        cli.run(["ag", "build", "--family", "COR2", "--q", "5", "--t", "4",
                 "--k", "3", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


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
    assert body["hull"]["dim_gram"] == 1
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


def test_cli_ag_grow_negative_steps_exit_2(capsys):
    # a negative step count would grow nothing and still report "ok"
    with pytest.raises(SystemExit) as exc:
        cli.run(["ag", "grow", "--q", "5", "--steps", "-2"])
    assert exc.value.code == 2
    assert "steps: must be >= 0, not -2" in capsys.readouterr().err


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
    assert out == cli._render_tables(quantum_tables(2), fmt) + "\n"
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
      "hull": {}}, "'dim_gram'"),
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


@pytest.mark.parametrize("part,key,value", [
    ("code", "n", "13"), ("hull", "dim_gram", None), ("code", "n", 13.5),
    ("field", "m", 3), ("code", "k", True),
])
def test_cli_quantum_params_refuses_mistyped_report(tmp_path, capsys, part,
                                                    key, value):
    # a string n or a null hull once escaped as a TypeError traceback, a
    # float n gave a fractional kappa, and an odd m a wrong q
    rc, out = run_cli(capsys, "grs", "construct", "--family", "CON3",
                      "--q", "5", "--k", "3")
    payload = json.loads(out)
    assert rc == 0 and payload["report"]["code"]["n"] == 13
    payload["report"][part][key] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    rc = cli.run(["quantum", "params", "--from", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "malformed report" in captured.err


def src_env() -> dict:
    """The environment with the package's source directory first on
    PYTHONPATH, for a subprocess."""
    src = str(Path(hermhull.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_readme_quickstart_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[20,12,6;2]]_5\n"


def test_python_dash_m_runs_the_cli(capsys):
    env = src_env()
    proc = subprocess.run([sys.executable, "-m", "hermhull", "field",
                           "--p", "2", "--m", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, out = run_cli(capsys, "field", "--p", "2", "--m", "2")
    assert rc == 0 and proc.stdout == out


def test_grs_sweep_leaves_numpy_ma_unimported():
    # numpy.unique imports numpy.ma and inspect on its first call (numpy
    # 2.4); the sweep's kernels must not pay that inside a timed run
    env = src_env()
    probe = ("import sys, numpy; print('numpy.ma' in sys.modules); "
             "from hermhull import cli; "
             "rc = cli.run(['grs', 'sweep', '--q', '4']); "
             "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("True"):
        pytest.skip("import numpy alone loads numpy.ma here")
    assert proc.stderr.split()[-2:] == ["0", "False"], proc.stderr


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
    assert cli.run(["quantum", "tables", "--q", "3"]) == 3
    monkeypatch.setattr(ag, "two_point_code", broken)
    assert cli.run(["ag", "build", "--family", "COR2", "--q", "5",
                    "--k", "1", "--t", "3"]) == 3
    monkeypatch.undo()
    monkeypatch.setattr(ag, "two_point_code", broken)
    assert cli.run(["quantum", "tables", "--q", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert set(captured.err.splitlines()) == {
        "internal error: ValueError during verification: inner dimensions differ"}


def test_cli_quantum_tables_checks_q_before_any_sweep(capsys, monkeypatch):
    from hermhull import ag, grs

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran on an invalid alphabet")

    monkeypatch.setattr(grs, "sweep", no_sweep)
    monkeypatch.setattr(ag, "sweep", no_sweep)
    assert cli.run(["quantum", "tables", "--q", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a prime power" in captured.err


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


def test_cli_grs_sweep_refuses_an_empty_family_list(capsys, monkeypatch):
    # an explicitly empty --families names the family '', as a trailing
    # comma does; only an absent --families means all eight
    from hermhull import grs

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran on an empty family list")

    monkeypatch.setattr(grs, "sweep", no_sweep)
    assert cli.run(["grs", "sweep", "--q", "5", "--families", ""]) == 2
    assert cli.run(["grs", "sweep", "--q", "5", "--families", "CON1,"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("unknown family ''") == 2


def test_cli_grs_sweep_refuses_a_repeated_family(capsys, monkeypatch):
    # a family named twice would be verified, printed and counted twice
    from hermhull import grs

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran on a repeated family")

    monkeypatch.setattr(grs, "sweep", no_sweep)
    for families in ("CON1,CON1", "CON1E,CON4E,CON1E"):
        assert cli.run(["grs", "sweep", "--q", "3",
                        "--families", families]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("repeated family 'CON1") == 2
    assert "repeated family 'CON1E'" in captured.err


def test_cli_field_modulus_needs_prime_power(capsys):
    rc = cli.run(["ag", "grow", "--q", "6", "--field-modulus", "1,1,1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a prime power" in captured.err


#: (PASS, PARTIAL, FAIL) counts in the summary of ``verify-all --q Q``; a
#: change of report bodies that keeps every verdict keeps these
VERIFY_ALL_VERDICTS = {
    3: (11, 0, 0), 4: (23, 0, 0), 5: (48, 3, 0), 7: (90, 48, 0),
    8: (93, 95, 0), 9: (148, 148, 0), 11: (254, 325, 5), 13: (337, 593, 7),
    16: (335, 1212, 44),
}


def assert_verdicts(out, verdicts):
    """The summary of a many-report output counts ``verdicts`` as (PASS,
    PARTIAL, FAIL), and every FAIL report fails ``hull_dim_gram`` first:
    the refuted CON3E hull claims with f < z."""
    payload = json.loads(out)
    summary = payload["summary"]
    assert (summary["pass"], summary["partial"], summary["fail"]) == verdicts
    assert {body["first_failure"] for body in payload["reports"]
            if body["verdict"] == "FAIL"} <= {"hull_dim_gram"}


#: sha256 of the stdout of ``verify-all --q Q``; a change that alters report
#: bodies on purpose updates these and records why
GOLDEN_VERIFY_ALL = {
    3: "3cb53e67a93254b9a6d0213475830777466855d7b4526db98b49df5e460b7c10",
    4: "a1c15b032dec3b94ba177812aaa32186129110b8a0d698b29e1557787541560c",
    5: "1184bdb82fee873ffb8a76222e55f709e0f9b49f492313e26fa1cd903d66ff4e",
    7: "a4fd55b57cff78695fb62fd6925ec2207670deee29aa7293ab4e58825a7f09d7",
    8: "134b07ef1b634f1fab46fd3a8db39f6be9a334d39c27d6897d2d815d7cd1b8a9",
    9: "4247994b215cb0e87b2cd2782a507b2e7e87859fd923b1c272fe7357a90f0a5e",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_VERIFY_ALL))
def test_cli_verify_all_golden_bodies(capsys, q):
    rc, out = run_cli(capsys, "verify-all", "--q", str(q))
    assert rc == 0
    assert_verdicts(out, VERIFY_ALL_VERDICTS[q])
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VERIFY_ALL[q]


#: the same for q = 11, 13 and 16, whose grids carry the CON3E FAIL reports
#: of the refuted hull claims with f < z, so the command exits 1; q = 16 also
#: covers the CON2E and CON3E grids, whose evaluation vectors recur for each
#: z, far apart in the grid, and so join one group of ``by_vector``
GOLDEN_VERIFY_ALL_WITH_FAILS = {
    11: "e2b363434b0d224b3f40637fe1bdbc5a897616ead49d37e87698c157260358d1",
    13: "6ce4fc8ed23b5370afc73f75be15a1b1c38f099a79e7ee71dce2f26e523c25ac",
    16: "c8c410b6e8d9abb3ce36d5ad9c0459ca2124f323eab5d0788d00239a8584a395",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_VERIFY_ALL_WITH_FAILS))
def test_cli_verify_all_golden_bodies_with_fails(capsys, q):
    rc, out = run_cli(capsys, "verify-all", "--q", str(q))
    assert rc == 1
    assert_verdicts(out, VERIFY_ALL_VERDICTS[q])
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VERIFY_ALL_WITH_FAILS[q]


#: sha256 of the stdout of ``verify-all --q 11 --budget 10**1000``: with no
#: budget cap every GRS instance (359) runs ``hull_dim_intersection``, and
#: ``hull_equality`` wherever the claimed hull is the subcode, in one
#: sub-second run; the 5 CON3E FAIL reports still fail, so it exits 1
GOLDEN_VERIFY_ALL_Q11_UNBOUNDED = \
    "30d4da7309279c79f6919e888491b92a57798c6ad7e2327f280ee52a5ae58da9"


def test_cli_verify_all_golden_body_with_every_hull_solved(capsys):
    rc, out = run_cli(capsys, "verify-all", "--q", "11",
                      "--budget", str(10 ** 1000))
    assert rc == 1
    assert_verdicts(out, (579, 0, 5))
    statuses = [c["status"] for body in json.loads(out)["reports"]
                for c in body["checks"] if c["name"] == "hull_dim_intersection"]
    assert len(statuses) == 359
    assert report.STATUS_SKIPPED not in statuses
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_VERIFY_ALL_Q11_UNBOUNDED


@pytest.mark.parametrize("q", [5, 7])
def test_cli_verify_all_speaks_one_vocabulary(capsys, q):
    # both families report the same six hull keys, and every check name
    # is one the verifier exports
    rc, out = run_cli(capsys, "verify-all", "--q", str(q))
    assert rc == 0
    bodies = json.loads(out)["reports"]
    assert {body["construction"]["module"] for body in bodies} == {"grs", "ag"}
    assert {frozenset(body["hull"]) for body in bodies} == {frozenset(
        ("dim_claimed", "dim_gram", "dim_intersection", "subcode_dim",
         "relation", "mds"))}
    assert {c["name"] for body in bodies for c in body["checks"]} \
        <= set(grs.CHECKS)


def test_cli_verify_all_under_python_dash_o():
    # python -O strips assert statements; the invariant checks must not be
    # among them, so the output is the golden one
    env = src_env()
    proc = subprocess.run([sys.executable, "-O", "-m", "hermhull",
                           "verify-all", "--q", "5"],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_VERIFY_ALL[5]


#: sha256 of the stdout of ``quantum tables --q Q --format F``; markdown
#: prints table3 only, json and csv all three tables.  Every row is read off
#: a non-FAIL report, so q = 3 has no pivot-scaled two-point row (every norm
#: in GF(3)* is +-1) and q >= 8 has no row of a refuted CON3E claim (f < z)
GOLDEN_QUANTUM_TABLES = {
    (2, "json"):
        "9afd2327d6e6edd4e77b08420353e8268b5e25cc5fa8a9fae4ba198b8dc49a84",
    (2, "csv"):
        "bf3f7922e10635d9a3067fc999ca75bf2f2d674a4b9e5a4bb92c8da76e918c76",
    (2, "markdown"):
        "8948f72b43c6dd7445415d49fe012deb0c7359930d5acfffd6c0a43c0d597bba",
    (3, "json"):
        "7af8eb0f8127e90b8240fcc98a8c8b744e1f453f63916d7a2035ea45521646e7",
    (3, "csv"):
        "0a75613c7766359faea4151d18ff2a77f97296bcddcbc10293c56161db064e38",
    (3, "markdown"):
        "296b6e250686d87391a3698aba907d30ede317dd830bf64c04626ffc128ca802",
    (4, "json"):
        "a8076614690a8140613ffe33f849a53bb01e30d3926052213f36d58a424780fe",
    (4, "csv"):
        "48cdf87a3647abc777bd6fb02790d658fe566ff4f3f82379ed8af58c8d5ff2ab",
    (4, "markdown"):
        "1064a21292ebb26d5eeb4408693d27669939b8c7d27a2c3ffcb6aa6123d940f3",
    (5, "json"):
        "484fe9b0c81edd31a85466272e3d37e591975421f188d42fb9e52f62a4a5aee2",
    (5, "csv"):
        "d64ff2e11b5eed8d4edfab527cbcb7b3022be8ac5de3b1615c0dbe92354ba6a1",
    (5, "markdown"):
        "e16103de3d7c040b3f19ea54136e35853142ba0fe683baed367936e5875f6751",
    (7, "json"):
        "1dc5e280a49407de9e96087a2a7f2c7b2b09870937f3689c5170805565286b31",
    (7, "csv"):
        "48814d4421fc778118b5eaf814ce0cc03ae3c91eece0ce576492117d2f6b0267",
    (7, "markdown"):
        "e33790a2dcd0c542ca52edadc782407517d04c91444ef99b860c57bf496e989f",
    (8, "json"):
        "2f6a16bac6575de6cf8e3e8c713ccbd84d51ace1b05659a16dd5116d848a5280",
    (8, "csv"):
        "ce8580443360f16ccab67c247e6e6adb2bf220a080b1255809cbe118aae0d14b",
    (8, "markdown"):
        "32c6c65d9f14331851392e8c35ce8b5043fa27a22ffc56a6b395f0da834f6d33",
    (9, "json"):
        "00a7e8486cdeba11723c0806137b5b2bd74b7646726fa22ba11165c79eeaeb70",
    (9, "csv"):
        "297927df7aae62eb37548dede8680a54c488897959a1f2c9bdad037e24d0bb3b",
    (9, "markdown"):
        "10cdb920415c094ad1ff307249d5c9332ecb229df05d1a9e12643cc3f4d2cd2e",
    (11, "json"):
        "55ab715ae79fb7798068010e12d504edc054489683f5701ff0841bc85422b006",
    (11, "csv"):
        "758679b0cf28daa8d9cabc4a3e55c5a05b3a22da732403213a3faf89638f3905",
    (11, "markdown"):
        "a64a372435733bae6a91cbf75e25534c0f14d2240379ed448afc8eddd2fca5dd",
    (13, "json"):
        "df5022b6947fc239d45a2d4490ad1fc81be542d14260ca356edea46cf3fb4420",
    (13, "csv"):
        "02b31ad950ce7249d65acca6670c36e3f4e059e0b499ac2a68b734e5da7a04b8",
    (13, "markdown"):
        "0b786dcff604fba1033906abbea7d6e104dbad76e9c74f6bd712e62e955ce831",
    (16, "json"):
        "838c7637f1299a5b94f3c85adeec02b19039699371c6730be162eb851128572e",
    (16, "csv"):
        "1fc413a3f938052ed66be428f77143b3aabf34c7748e02e03714cb9d40565dbe",
    (16, "markdown"):
        "58f60c735f820501653d7eec0174ddbd321c1f8ad9cf0420ebdf641939cbfb68",
}


@pytest.mark.parametrize("q, fmt", sorted(GOLDEN_QUANTUM_TABLES))
def test_cli_quantum_tables_golden_bodies(q, fmt):
    # the tables are built once per q and rendered by the command's own
    # code; test_cli_quantum_tables_q2 ties the rendering to its stdout
    out = cli._render_tables(quantum_tables(q), fmt) + "\n"
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_QUANTUM_TABLES[q, fmt]


#: sha256 of the stdout of ``grs sweep --q 16 --families CON1E,CON4E``, the
#: widest characteristic-2 generators (k up to 127, n = 256)
GOLDEN_SWEEP_Q16_WIDE = \
    "cbf84a166b0c65e72409e10cb7208934ce53d282f5083bd70a1ac4ca4ace3d6f"


def test_cli_grs_sweep_q16_wide_golden_body(capsys):
    rc, out = run_cli(capsys, "grs", "sweep", "--q", "16",
                      "--families", "CON1E,CON4E")
    assert rc == 0
    assert_verdicts(out, (0, 441, 0))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SWEEP_Q16_WIDE


#: sha256 of the stdout of ``ag build ... --include-code`` and ``grs
#: construct ... --include-code``: whole report bodies with the generator,
#: over the three two-point families and hull outcomes "n/a", "enumerated"
#: and "unverified"
GOLDEN_INCLUDE_CODE = {
    "ag build --family COR1 --q 4 --s 6 --k 0":
        "e82de70188a001e4f6cc317eb1dd1c1ccb3ae54fe144459450b157c6f57dea48",
    "ag build --family COR2 --q 4 --t 3 --k 2":
        "e0f08f7b31211f26809a1c209c509852def7d369702655fc4358298218bd08ae",
    "ag build --family COR3 --q 4 --n0 5 --t 1 --k 1":
        "8bb9db91c9d056e180029816fea849216b3380120e34cf38b20ac4aa13f76ed3",
    "ag build --family COR1 --q 5 --s 13 --k 1":
        "56a5bde5ab9e149c1a53ceb1442efddc3933c14769f2a3cfc5eecbf5beca5349",
    "ag build --family COR2 --q 5 --t 4 --k 3":
        "5b155d75426073c0fbbdfff0a573994db7f9bf4d8c558da8ad55e9fa4eb0f423",
    "ag build --family COR3 --q 5 --n0 6 --t 2 --k 2":
        "f5bc73111d7a6b3e2fedaedcda35b942f90fd8473ec31030d22a368d3abba5d9",
    "ag build --family COR1 --q 8 --s 22 --k 2":
        "4cb842c4341eecbd0488c0c52179948c1d32102cd43fc83653e89985e48706b3",
    "ag build --family COR2 --q 8 --t 3 --k 1":
        "820d533454fa3391a1849e96d83dfdc23e475e1e761d8444a7339dd8e9ca7019",
    "ag build --family COR3 --q 8 --n0 9 --t 4 --k 4":
        "059e13c3dbac9a85fe26edadae2d1e9fab8946a583f3cfb5ae2082a10e8bead8",
    "ag build --family COR1 --q 9 --s 41 --k 3":
        "661e73c8ac734b45999bca2a8684010b42ecf51c45e55b7bde164731064bfadb",
    "ag build --family COR2 --q 9 --t 5 --k 4":
        "3c2a6fa7c34d5245d11377f072e93010ce7b3a8cc0fb943a47ff25a7924d0dab",
    "ag build --family COR3 --q 9 --n0 5 --t 4 --k 2":
        "524a4440179fa3241869347cdf705aec7c51d360630523e535542c5d0e927a5c",
    "grs construct --family CON1 --q 5":
        "b5ae09ea0f5f61f9e7fad1f2aed9ccd43a5e5306314edc7942b84d17b484bed5",
    "grs construct --family CON2E --q 7 --k 8 --z 1 --f 1":
        "8236031b7744a3e9d4b963945e358009f8e509dddcab56e7932624199515cd37",
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


def test_cli_distance_budget_caps_two_point_hull_enumeration(capsys,
                                                            monkeypatch):
    # the [20, 3] hull has 25^3 = 15,625 messages, over the budget of 10^4:
    # no enumeration runs, and both distances are structural, as the code
    # and its hull are GRS codes by the set's certificate
    from hermhull import linalg_codes

    def refuse(*args):
        raise AssertionError("enumerated over the distance budget")

    monkeypatch.setattr(linalg_codes, "_enumerate_min_weight", refuse)
    monkeypatch.setattr(grs, "_enumerate_min_weight", refuse)
    rc, out = run_cli(capsys, "ag", "build", "--family", "COR2", "--q", "5",
                      "--t", "4", "--k", "3", "--distance-budget", "10000")
    assert rc == 0
    body = json.loads(out)["report"]
    checks = {c["name"]: c["status"] for c in body["checks"]}
    assert checks["hull_mds"] == report.STATUS_STRUCTURAL
    assert checks["code_mds"] == report.STATUS_STRUCTURAL
    assert body["hull"]["mds"] == "structural"
    assert body["verdict"] == "PASS"


@pytest.mark.parametrize("argv", [["verify-all", "--q", "4"],
                                  ["grs", "sweep", "--q", "5"]],
                         ids=["verify-all", "grs-sweep"])
def test_cli_timings_envelope_leaves_the_rest_unchanged(capsys, argv):
    rc, plain = run_cli(capsys, *argv)
    rc_t, timed = run_cli(capsys, *argv, "--timings")
    assert rc == rc_t == 0
    payload = json.loads(timed)
    timings = payload.pop("timings")
    assert cli._dump(payload) + "\n" == plain
    keys = {"grs_s", "emit_s", "vector_tables", "rank_profiles",
            "hull_solves"} | (
        {"ag_s", "ag_sets", "ag_instances"} if argv[0] == "verify-all"
        else set())
    assert set(timings) == keys
    assert all(timings[key] >= 0 for key in keys)
    # one table per distinct GRS vector, and two per two-point set (its
    # code vector and its self-orthogonal one); one rank profile per GRS
    # vector and per set; one hull solve per GRS instance with order^k
    # within the default --budget, and none for two-point instances; a
    # second run in the process counts the same
    q = int(argv[argv.index("--q") + 1])
    grid = [(family, params) for family in grs.FAMILIES
            for params in grs.family_parameter_grid(family, q)]
    vectors = len({grs._recipe(family, q, params) for family, params in grid})
    sets = timings.get("ag_sets", 0)
    assert timings["vector_tables"] == vectors + 2 * sets
    assert timings["rank_profiles"] == vectors + sets
    assert timings["hull_solves"] == sum(
        (q * q) ** params["k"] <= DEFAULT_BUDGET for _, params in grid)
    rc_t, again = run_cli(capsys, *argv, "--timings")
    again = json.loads(again)["timings"]
    assert all(again[key] == timings[key] for key in
               ("vector_tables", "rank_profiles", "hull_solves", "ag_sets",
                "ag_instances") if key in keys)
    if argv[0] == "verify-all":
        assert timings["ag_instances"] == sum(
            len(ag.family_parameter_grid(family, 4))
            for family in ("COR1", "COR2", "COR3"))
        assert 0 < timings["ag_sets"] < timings["ag_instances"]
    else:
        assert timings["vector_tables"] < payload["summary"]["total"]


@pytest.mark.parametrize("argv", [
    ["grs", "construct", "--family", "CON1", "--q", "5"],
    ["ag", "build", "--family", "COR2", "--q", "5", "--t", "2", "--k", "1"],
], ids=["grs-construct", "ag-build"])
def test_cli_single_report_timings_time_the_verification(capsys, argv):
    # the envelope holds the seconds taken to verify the one report, and
    # the report body is byte for byte the output without it
    rc, plain = run_cli(capsys, *argv)
    rc_t, timed = run_cli(capsys, *argv, "--timings")
    assert rc == rc_t == 0
    payload = json.loads(timed)
    jsonschema.validate(payload, report_schema())
    timings = payload.pop("timings")
    assert cli._dump(payload) + "\n" == plain
    assert set(timings) == {"verify_s"} and timings["verify_s"] >= 0


def test_no_vector_table_outlives_its_sweep():
    # claims and results keep specs, which hold no table; each group of
    # ``by_vector`` drops its tables when its instances are done
    def live_tables():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, grs._VectorTable)]

    assert live_tables() == []
    swept = list(grs.sweep(5, conservative=False)) + list(ag.sweep(5))
    tables = quantum.emit_tables(5)
    assert len(swept) > 1 and tables["table1"]
    assert live_tables() == []


@pytest.mark.parametrize("argv, message", [
    (["quantum", "params", "--q", "6", "--n", "10", "--k", "3",
      "--hull-dim", "1"], "not a prime power"),
    (["quantum", "tables", "--q", "6"], "not a prime power"),
    (["cyclic", "dkl", "--q", "6", "--k", "2", "--l", "1"],
     "not a prime power"),
    (["quantum", "params", "--q", "7", "--n", "49", "--k", "7",
      "--hull-dim", "-1"], "hull dimension"),
    (["quantum", "params", "--q", "7", "--n", "2", "--k", "2",
      "--hull-dim", "0"], "need 0 <= k < n"),
], ids=["params-q6", "tables-q6", "dkl-q6", "params-negative-hull",
        "params-k-equals-n"])
def test_cli_rejects_impossible_parameters_exit_2(capsys, argv, message):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err
