"""Construction reports: per-property verdicts, canonical JSON, schema.

A report's canonical body is deterministic (sorted keys, no timestamps);
wall-clock timings travel in a separate envelope so repeated runs emit
byte-identical bodies.  Field elements inside reports are serialized as
discrete-log exponents with -1 for the zero element.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .gf import FieldContext

PASS = "PASS"
FAIL = "FAIL"
PARTIAL = "PARTIAL"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_STRUCTURAL = "structural"
STATUS_SKIPPED = "skipped"


def vector_to_logs(F: FieldContext, v) -> list[int]:
    return [F.log_of(int(x)) for x in v]


def matrix_to_logs(F: FieldContext, M) -> list[list[int]]:
    return [vector_to_logs(F, row) for row in np.asarray(M)]


def code_to_json(code) -> dict:
    d = {
        "field": code.field.describe(),
        "n": code.n,
        "k": code.k,
        "generator": matrix_to_logs(code.field, code.gen),
    }
    if code.cached_distance() is not None:
        d["d"] = code.cached_distance()
    return d


@dataclass
class Check:
    name: str
    status: str
    expected: Any = None
    measured: Any = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.expected is not None:
            out["expected"] = self.expected
        if self.measured is not None:
            out["measured"] = self.measured
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ConstructionReport:
    """A construction's canonical body and its timings envelope.

    Checks are recorded through ``check`` and ``check_eq`` only, which
    keep ``verdict`` (FAIL on any failed check, else PARTIAL on any
    skipped one, else PASS) and ``first_failure`` (the first failed
    check's name, or None) as they go: each is worked out once per
    check, never by a rescan of ``checks``.
    """

    construction: dict
    field: dict
    code: dict = field(default_factory=dict)
    hull: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list, init=False)
    quantum: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    verdict: str = field(default=PASS, init=False)
    first_failure: Optional[str] = field(default=None, init=False)

    def check(self, name: str, status: str, expected=None, measured=None, note=""):
        self.checks.append(Check(name, status, expected, measured, note))
        if status == STATUS_FAIL:
            if self.first_failure is None:
                self.first_failure, self.verdict = name, FAIL
        elif status == STATUS_SKIPPED and self.verdict == PASS:
            self.verdict = PARTIAL

    def check_eq(self, name: str, expected, measured, note="") -> bool:
        ok = expected == measured
        self.check(name, STATUS_PASS if ok else STATUS_FAIL, expected, measured, note)
        return ok

    def passed(self) -> bool:
        return self.verdict == PASS

    def to_canonical_dict(self) -> dict:
        body = {
            "schema": "hermhull-report/1",
            "construction": self.construction,
            "field": self.field,
            "code": self.code,
            "hull": self.hull,
            "checks": [c.to_json() for c in self.checks],
            "quantum": self.quantum,
            "verdict": self.verdict,
        }
        if self.first_failure is not None:
            body["first_failure"] = self.first_failure
        return body


@functools.cache
def report_schema() -> dict:
    """The JSON Schema of a ``{"report": ..., "timings": ...}`` payload, as
    shipped in ``report_schema.json``; read on first use and shared by
    every caller, so treat it as read-only."""
    path = Path(__file__).with_name("report_schema.json")
    return json.loads(path.read_text(encoding="utf-8"))
