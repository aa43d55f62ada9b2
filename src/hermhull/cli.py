"""Command-line front end.

Subcommands: field | grs | cyclic | ag | quantum | verify-all.  Output is
deterministic JSON (sorted keys, no timestamps; wall-clock timings only
with --timings) or markdown/csv for tables.  Exit status: 3 on an
internal fault (a RuntimeError such as a failed invariant check, or any
ValueError raised once verification has started), 2 on errors in the
arguments, the field or modulus, or the construction input, 1 when any
verification verdict is FAIL, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Optional

from . import ag, cyclic, grs, quantum
from .gf import make_field, prime_power, quadratic_field
from .linalg_codes import DEFAULT_BUDGET, DEFAULT_DISTANCE_BUDGET
from .report import ConstructionReport, code_to_json


def _dump(payload, fmt: str = "json") -> str:
    if fmt == "markdown":
        return _to_markdown(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _to_markdown(payload) -> str:
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        keys = sorted({k for row in payload for k in row})
        lines = ["| " + " | ".join(keys) + " |",
                 "|" + "---|" * len(keys)]
        for row in payload:
            lines.append("| " + " | ".join(str(row.get(k, "")) for k in keys) + " |")
        return "\n".join(lines)
    return "```\n" + json.dumps(payload, sort_keys=True, indent=2) + "\n```"


def _parse_modulus(text: Optional[str]):
    if text is None:
        return None
    return [int(c) for c in text.split(",")]


def _field_for(q: int, modulus_text: Optional[str]):
    mod = _parse_modulus(modulus_text)
    if mod is None:
        return quadratic_field(q)
    p, e = prime_power(q)
    return make_field(p, 2 * e, mod)


def _set_logs(F, points) -> list:
    """Sorted discrete logs of a point set, "zero" last if 0 is in it."""
    return sorted(F.log_of(u) for u in points if u) + \
        (["zero"] if 0 in points else [])


@contextlib.contextmanager
def _verifying():
    """Run a step whose inputs are already checked: a ValueError raised in
    it is an internal fault, such as a field mismatch, not bad input."""
    try:
        yield
    except ValueError as exc:
        raise RuntimeError(f"{type(exc).__name__} during verification: "
                           f"{exc}") from exc


def _emit_report(rep: ConstructionReport, args) -> int:
    print(rep.to_json(include_timings=getattr(args, "timings", False)))
    return 1 if rep.verdict == "FAIL" else 0


def _emit_reports(reports, args, timings: dict) -> int:
    """Print many reports under a verdict summary; 1 if any is FAIL.  With
    --timings a top-level "timings" object follows, ``timings`` plus
    ``emit_s``, the seconds taken to build and serialise the rest; the
    rest is byte for byte the output without it."""
    start = time.perf_counter()
    bodies = [r.to_canonical_dict() for r in reports]
    summary = {
        "q": args.q,
        "total": len(bodies),
        "pass": sum(b["verdict"] == "PASS" for b in bodies),
        "partial": sum(b["verdict"] == "PARTIAL" for b in bodies),
        "fail": sum(b["verdict"] == "FAIL" for b in bodies),
    }
    payload = {"summary": summary, "reports": bodies}
    text = _dump(payload, args.format)
    if args.timings:
        payload["timings"] = timings | {
            "emit_s": round(time.perf_counter() - start, 6)}
        text = _dump(payload, args.format)
    print(text)
    return 1 if summary["fail"] else 0


def _grs_reports(args, families=grs.FAMILIES) -> list[ConstructionReport]:
    """Verify the grids of ``families`` at ``args.q``; the family names and
    q are checked first, and every instance of a grid is admissible."""
    for family in families:
        if family not in grs.FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    quadratic_field(args.q)
    with _verifying():
        return [rep for _, rep in grs.sweep(
            args.q, families, budget=args.budget,
            distance_budget=args.distance_budget)]


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_field(args) -> int:
    F = make_field(args.p, args.m, _parse_modulus(args.modulus))
    payload = F.describe() | {"order": F.order}
    if F.subfield is not None:
        payload["subfield"] = F.subfield.describe()
        payload["q"] = F.q
    print(_dump(payload, args.format))
    return 0


def cmd_grs_construct(args) -> int:
    params = {}
    for name in ("k", "z", "f", "m"):
        v = getattr(args, name)
        if v is not None:
            params[name] = v
    field = (_field_for(args.q, args.field_modulus)
             if args.field_modulus else None)
    claim = grs.construct_family(args.family, args.q, field=field, **params)
    with _verifying():
        rep = grs.verify_claim(claim, budget=args.budget,
                               distance_budget=args.distance_budget)
    if args.include_code:
        rep.code = rep.code | {"detail": code_to_json(claim.code)}
    return _emit_report(rep, args)


def cmd_grs_sweep(args) -> int:
    families = (grs.FAMILIES if args.families is None
                else args.families.split(","))
    start, tables = time.perf_counter(), _vector_tables()
    reports = _grs_reports(args, families)
    return _emit_reports(reports, args, {
        "grs_s": round(time.perf_counter() - start, 6),
        "vector_tables": _vector_tables() - tables})


def _vector_tables() -> int:
    """Evaluation-vector tables built so far (misses of ``_vector_table``)."""
    return grs._vector_table.cache_info().misses


def cmd_cyclic_dkl(args) -> int:
    D = cyclic.defining_set_dkl(args.q, args.k, args.l)
    n = args.q * args.q - 1
    payload = {
        "q": args.q, "k": args.k, "l": args.l,
        "D": list(D),
        "dim": n - len(D),
        "extended_dim": args.q ** 2 - 2 * args.l * args.k + args.l ** 2,
        "ht_bound": cyclic.ht_bound(n, D),
    }
    print(_dump(payload, args.format))
    return 0


def cmd_ag_build(args) -> int:
    F = _field_for(args.q, args.field_modulus)
    fam_kwargs = {}
    if args.family == "COR1":
        fam_kwargs["s"] = args.s
    elif args.family == "COR2":
        fam_kwargs["t"] = args.t
    else:
        fam_kwargs["n0"] = args.n0
        fam_kwargs["t"] = args.t
    p = F.alpha_pow(args.p_log) if args.p_log is not None else None
    U = ag.evaluation_set(args.family, F.q, field=F, **fam_kwargs)
    p = ag.check_two_point_input(F, U, args.k, p)
    with _verifying():
        res = ag.labelled(ag.two_point_code(
            F, U, args.k, p=p, distance_budget=args.distance_budget),
            args.family, fam_kwargs)
    rep = res.report
    rep.construction["evaluation_set"] = _set_logs(F, res.points)
    if args.include_code:
        rep.code = rep.code | {"detail": code_to_json(res.code)}
    return _emit_report(rep, args)


def cmd_ag_grow(args) -> int:
    F = _field_for(args.q, args.field_modulus)
    start = [F.from_subfield(s) for s in range(F.q)]
    res = ag.extend_evaluation_set(F, start, max_steps=args.steps)
    payload = {
        "q": args.q,
        "status": res.status,
        "start_size": len(res.start),
        "steps": [{
            "pair_logs": [F.log_of(b) for b in step.pair],
            "conjugate": step.conjugate,
            "size": len(step.points),
            "set_logs": _set_logs(F, step.points),
        } for step in res.steps],
    }
    print(_dump(payload, args.format))
    return 0


def cmd_quantum_params(args) -> int:
    if args.from_report:
        with open(args.from_report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "report" not in payload:
            raise ValueError(f"{args.from_report}: expected a single report "
                             'shaped {"report": {...}}, as printed by "grs '
                             'construct" or "ag build"; sweep and verify-all '
                             "output holds many reports")
        body = payload["report"]
        try:
            if body["verdict"] == "FAIL":
                raise ValueError(
                    f"{args.from_report}: report verdict is FAIL (first "
                    f"failure: {body.get('first_failure')}); no parameters "
                    "are derived from a refuted code")
            q = body["field"]["p"] ** (body["field"]["m"] // 2)
            n = body["code"]["n"]
            k = body["code"]["k"]
            hull = body["hull"]["dim_gram"]
        except KeyError as exc:
            raise ValueError(f"{args.from_report}: report lacks the key "
                             f"{exc}") from None
        except TypeError as exc:
            raise ValueError(f"{args.from_report}: malformed report "
                             f"({exc})") from None
    else:
        if None in (args.n, args.k, args.hull_dim, args.q):
            raise ValueError("quantum params needs --q, --n, --k and "
                             "--hull-dim, or --from REPORT")
        q, n, k, hull = args.q, args.n, args.k, args.hull_dim
    chain = [quantum.eaqecc(q, n, k, hull)]
    if args.propagate:
        chain.append(quantum.propagate(chain[0], args.propagate, hull))
    print(_dump({"ingredient": {"q": q, "n": n, "k": k, "hull_dim": hull},
                 "params": [quantum.json_with_mds(p) for p in chain]},
                args.format))
    return 0


def _render_tables(tables: dict, fmt: str) -> str:
    """The ``quantum tables`` body: json and csv hold all three tables,
    markdown table3 only."""
    if fmt == "csv":
        lines = ["table,n,kappa,delta,c,q,extra"]
        for name in ("table1", "table2", "table3_new"):
            for row in tables[name]:
                # table1 prints its 2-ebit variant, with blank delta and c
                # where there is none (q = 2, or k = n)
                qe = ((row["eaqecc_2"] or {"delta": "", "c": ""})
                      if name == "table1" else row)
                extra = (f"row{row['row']}" if name == "table1"
                         else row.get("family", ""))
                lines.append(f"{name},{row['n']},{row['kappa']},{qe['delta']},"
                             f"{qe['c']},{row['q']},{extra}")
        return "\n".join(lines)
    if fmt == "markdown":
        return _to_markdown(tables["table3_new"])
    return _dump(tables)


def cmd_quantum_tables(args) -> int:
    quadratic_field(args.q)
    with _verifying():
        tables = quantum.emit_tables(args.q)
    print(_render_tables(tables, args.format))
    return 0


def cmd_verify_all(args) -> int:
    start, tables = time.perf_counter(), _vector_tables()
    reports = _grs_reports(args)
    mid = time.perf_counter()
    with _verifying():
        runs = [res for _, res in ag.sweep(
            args.q, distance_budget=args.distance_budget)]
    timings = {
        "grs_s": round(mid - start, 6),
        "ag_s": round(time.perf_counter() - mid, 6),
        "ag_sets": len({(res.report.construction["family"], res.points)
                        for res in runs}),
        "ag_instances": len(runs),
        "vector_tables": _vector_tables() - tables}
    return _emit_reports(reports + [res.report for res in runs], args,
                         timings)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermhull",
        description="Codes over GF(q^2) whose Hermitian hulls are (or "
                    "contain) MDS codes: constructions, exact verification, "
                    "and EAQECC parameters.")
    sub = ap.add_subparsers(dest="command", required=True)

    def fmt(p, choices=("json", "markdown")):
        p.add_argument("--format", choices=choices, default="json")

    def count(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
        return value

    def distance_budget(p):
        p.add_argument("--distance-budget", type=count,
                       default=DEFAULT_DISTANCE_BUDGET,
                       help="cap on distance enumeration, of a code and of "
                            "its hull, counted as the order^k messages of "
                            "the code; the (order^(k-1) - 1)/(order - 1) "
                            "normalised prefixes are visited, and one line "
                            "of order codewords is counted per prefix")
        p.add_argument("--timings", action="store_true")

    def budgets(p):
        p.add_argument("--budget", type=count, default=DEFAULT_BUDGET,
                       help="cap on hull-intersection work (codeword count)")
        distance_budget(p)

    p = sub.add_parser("field", help="build and describe a field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus", help="comma-separated coefficients, low first")
    fmt(p)
    p.set_defaults(func=cmd_field)

    pg = sub.add_parser("grs", help="GRS hull constructions")
    gsub = pg.add_subparsers(dest="grs_command", required=True)
    p = gsub.add_parser("construct")
    p.add_argument("--family", choices=grs.FAMILIES, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--z", type=int)
    p.add_argument("--f", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--field-modulus")
    p.add_argument("--include-code", action="store_true")
    budgets(p)
    fmt(p)
    p.set_defaults(func=cmd_grs_construct)
    p = gsub.add_parser("sweep")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--families", help="comma-separated subset")
    budgets(p)
    fmt(p)
    p.set_defaults(func=cmd_grs_sweep)

    pc = sub.add_parser("cyclic", help="cyclic-code tooling")
    csub = pc.add_subparsers(dest="cyclic_command", required=True)
    p = csub.add_parser("dkl")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    fmt(p)
    p.set_defaults(func=cmd_cyclic_dkl)

    pa = sub.add_parser("ag", help="two-point evaluation codes")
    asub = pa.add_subparsers(dest="ag_command", required=True)
    p = asub.add_parser("build")
    p.add_argument("--family", choices=("COR1", "COR2", "COR3"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--p-log", type=int, help="extra place as a log exponent")
    p.add_argument("--field-modulus")
    p.add_argument("--include-code", action="store_true")
    distance_budget(p)
    fmt(p)
    p.set_defaults(func=cmd_ag_build)
    p = asub.add_parser("grow")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--steps", type=count, default=1)
    p.add_argument("--field-modulus")
    fmt(p)
    p.set_defaults(func=cmd_ag_grow)

    pq = sub.add_parser("quantum", help="quantum parameter arithmetic")
    qsub = pq.add_subparsers(dest="quantum_command", required=True)
    p = qsub.add_parser("params")
    p.add_argument("--from", dest="from_report", help="report JSON path")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--hull-dim", type=int)
    p.add_argument("--propagate", type=int, default=0)
    fmt(p)
    p.set_defaults(func=cmd_quantum_params)
    p = qsub.add_parser("tables")
    p.add_argument("--q", type=int, required=True)
    fmt(p, choices=("json", "csv", "markdown"))
    p.set_defaults(func=cmd_quantum_tables)

    p = sub.add_parser("verify-all", help="verify every in-range construction")
    p.add_argument("--q", type=int, required=True)
    budgets(p)
    fmt(p)
    p.set_defaults(func=cmd_verify_all)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
