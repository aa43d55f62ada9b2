"""The correctness gate accepts real output and rejects each kind of fault."""

import contextlib
import io
import json

import pytest

import gate
import run
from hermhull import cli


@pytest.fixture(scope="module")
def validator():
    return gate.load_validator(run.SCHEMA)


@pytest.fixture(scope="module")
def good():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(["verify-all", "--q", "3"])
    assert rc == 0
    return json.loads(buf.getvalue())


def encode(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_accepts_real_output(validator, good):
    out = gate.check(encode(good), "", 0, 3, validator)
    assert out.ok, out.reasons
    assert out.reports == good["summary"]["total"]
    assert sum(out.verdicts.values()) == out.reports
    assert out.checks_run > 0


def test_rejects_exit_status_2(validator, good):
    out = gate.check(encode(good), "", 2, 3, validator)
    assert not out.ok
    assert any("exit status 2" in r for r in out.reasons)


def test_rejects_exit_status_1_without_fail_reports(validator, good):
    assert not gate.check(encode(good), "", 1, 3, validator).ok


def test_rejects_traceback(validator, good):
    err = "Traceback (most recent call last):\n  ...\nValueError: x\n"
    assert not gate.check(encode(good), err, 0, 3, validator).ok


def test_rejects_schema_violation(validator, good):
    bad = json.loads(json.dumps(good))
    bad["reports"][0]["checks"][0]["status"] = "maybe"
    out = gate.check(encode(bad), "", 0, 3, validator)
    assert not out.ok
    assert any("schema" in r for r in out.reasons)


def test_rejects_summary_that_disagrees_with_bodies(validator, good):
    bad = json.loads(json.dumps(good))
    bad["summary"]["pass"] += 1
    out = gate.check(encode(bad), "", 0, 3, validator)
    assert not out.ok
    assert any("recount" in r for r in out.reasons)


def test_rejects_verdict_its_checks_do_not_support(validator, good):
    bad = json.loads(json.dumps(good))
    body = next(b for b in bad["reports"] if b["verdict"] == "PASS")
    check = next(c for c in body["checks"] if "measured" in c)
    check["measured"] = "wrong"
    out = gate.check(encode(bad), "", 0, 3, validator)
    assert not out.ok


def test_rejects_non_json_stdout(validator):
    assert not gate.check(b"error\n", "", 0, 3, validator).ok


def test_validated_digest_skips_schema_but_not_recount(validator, good):
    seen = set()
    assert gate.check(encode(good), "", 0, 3, validator, seen).ok
    assert len(seen) == 1
    assert not gate.check(encode(good), "", 2, 3, validator, seen).ok
