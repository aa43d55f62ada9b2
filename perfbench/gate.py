"""Correctness gate for one ``verify-all`` / ``grs sweep`` command.

A command passes when:

* it exited with status 1 if some report's verdict is FAIL and 0 otherwise
  (2, any other status, or a traceback on stderr fails it);
* stdout is one JSON object ``{"summary": ..., "reports": [...]}``;
* every report body validates against ``report_schema.json``;
* every body is consistent with its own checks: the verdict is FAIL iff a
  check failed, PARTIAL iff none failed and one was skipped, and
  ``first_failure`` names the first failed check; a pass/fail check that
  carries both ``expected`` and ``measured`` passes iff they are equal;
* the summary equals a recount of the bodies and names the requested q.

A command that fails the gate yields no timing, only a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

_VERDICT_KEYS = {"PASS": "pass", "PARTIAL": "partial", "FAIL": "fail"}


def load_validator(schema_path: Path):
    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@dataclass
class Outcome:
    ok: bool
    reasons: list[str] = field(default_factory=list)
    digest: str = ""
    reports: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    checks_run: int = 0
    skipped: dict[str, int] = field(default_factory=dict)


def _body_problems(body: dict) -> list[str]:
    checks = body.get("checks", [])
    statuses = [c["status"] for c in checks]
    if "fail" in statuses:
        verdict = "FAIL"
    elif "skipped" in statuses:
        verdict = "PARTIAL"
    else:
        verdict = "PASS"
    out = []
    if body["verdict"] != verdict:
        out.append(f"verdict {body['verdict']} but checks give {verdict}")
    first = next((c["name"] for c in checks if c["status"] == "fail"), None)
    if body.get("first_failure") != first:
        out.append(f"first_failure {body.get('first_failure')!r} "
                   f"but first failed check is {first!r}")
    for c in checks:
        if (c["status"] in ("pass", "fail")
                and "expected" in c and "measured" in c
                and (c["expected"] == c["measured"]) != (c["status"] == "pass")):
            out.append(f"check {c['name']} is {c['status']} with expected "
                       f"{c['expected']!r} and measured {c['measured']!r}")
    return out


def check(stdout: bytes, stderr: str, returncode: int, q: int,
          validator, validated: set[str] | None = None) -> Outcome:
    """Gate one command's output.

    ``validated`` holds digests already schema-checked in this process;
    an identical stdout needs no second validation.
    """
    digest = hashlib.sha256(stdout).hexdigest()
    out = Outcome(ok=False, digest=digest)
    if "Traceback (most recent call last)" in stderr:
        out.reasons.append("traceback on stderr")
    if returncode not in (0, 1):
        out.reasons.append(f"exit status {returncode}")
    try:
        payload = json.loads(stdout)
        summary, bodies = payload["summary"], payload["reports"]
        if set(payload) != {"summary", "reports"} or not isinstance(bodies, list):
            raise TypeError("unexpected top-level keys")
    except (ValueError, KeyError, TypeError) as exc:
        out.reasons.append(f"stdout is not a summary/reports object: {exc}")
        return out
    out.reports = len(bodies)
    schema_bad = 0
    if validated is None or digest not in validated:
        for i, body in enumerate(bodies):
            errors = list(validator.iter_errors({"report": body}))
            if errors:
                schema_bad += 1
                if schema_bad <= 3:
                    out.reasons.append(f"report {i} violates the schema: "
                                       f"{errors[0].message}")
        if schema_bad:
            out.reasons.append(f"{schema_bad} reports violate the schema")
            return out
    verdicts = Counter()
    skipped = Counter()
    for i, body in enumerate(bodies):
        for p in _body_problems(body)[:1]:
            out.reasons.append(f"report {i}: {p}")
        verdicts[body["verdict"]] += 1
        for c in body["checks"]:
            if c["status"] in ("pass", "fail"):
                out.checks_run += 1
            elif c["status"] == "skipped":
                skipped[f"{body['construction'].get('module')}.{c['name']}"] += 1
    out.verdicts = {v: verdicts[v] for v in ("PASS", "PARTIAL", "FAIL")}
    out.skipped = dict(sorted(skipped.items()))
    recount = {"q": q, "total": len(bodies)}
    recount |= {key: verdicts[v] for v, key in _VERDICT_KEYS.items()}
    if summary != recount:
        out.reasons.append(f"summary {summary} disagrees with recount {recount}")
    want = 1 if verdicts["FAIL"] else 0
    if returncode in (0, 1) and returncode != want:
        out.reasons.append(f"exit status {returncode} with "
                           f"{verdicts['FAIL']} FAIL reports")
    out.ok = not out.reasons
    if out.ok and validated is not None:
        validated.add(digest)
    return out
