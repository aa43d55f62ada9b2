"""Span arithmetic and the per-layer metrics of one traced command.

A span's self time is its duration minus the durations of its direct
children.  Spans of one thread nest properly, so the children of a span
never overlap and their summed durations are exactly the covered part.
A name's inclusive time counts only its outermost spans, so a function
that calls itself is not counted twice.
"""

from __future__ import annotations

import numpy as np

#: share-of-run metrics: metric prefix -> traced name (inclusive time)
INCLUSIVE = {
    "linalg_codes.enum": "linalg_codes._enumerate_min_weight",
    "linalg_codes.hull": "linalg_codes.LinearCode.hermitian_hull",
    "linalg_codes.rref": "linalg_codes.rref",
    "linalg_codes.mat_mul": "linalg_codes.mat_mul",
    "linalg_codes.contains": "linalg_codes.LinearCode.contains",
    "ag.residues": "ag.residues",
}


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the summed durations of its children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.size)
    return dur - covered


def outermost(name, parent, nid: int) -> np.ndarray:
    """Mask of spans named ``nid`` with no ancestor of the same name."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    is_x = name == nid
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    within = is_x.copy()  # the span or one of its ancestors is nid
    while True:
        nxt = is_x | (has_parent & within[up])
        if np.array_equal(nxt, within):
            break
        within = nxt
    return is_x & ~(has_parent & within[up])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(trace: dict, counts: dict, traced_wall: float) -> dict:
    """Self time per traced name and per layer, plus inclusive times.

    ``trace`` holds the arrays written by ``Tracer.dump``; ``counts`` the
    counters it returned.  Times are seconds.
    """
    names = [str(n) for n in trace["names"]]
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    name = trace["name"]
    self_t = self_times(start, end, parent)
    by_name = np.bincount(name, weights=self_t, minlength=len(names))
    self_s = {n: float(by_name[i]) for i, n in enumerate(names)}
    layers: dict[str, float] = {}
    for n, t in self_s.items():
        layers[layer_of(n)] = layers.get(layer_of(n), 0.0) + t
    incl = {}
    for key, target in INCLUSIVE.items():
        mask = outermost(name, parent, names.index(target))
        incl[key] = float((end[mask] - start[mask]).sum())
    top = (parent < 0) & (trace["thread"] == 0)
    covered = float((end[top] - start[top]).sum())
    return {"self_s": self_s, "layer_self_s": layers, "incl_s": incl,
            "coverage": covered / traced_wall, "spans": int(name.size),
            "counts": counts}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(s: dict, traced_wall: float) -> dict[str, float]:
    """The named per-layer metrics of one traced command (no trace.overhead)."""
    c, self_s, layer, incl = s["counts"], s["self_s"], s["layer_self_s"], s["incl_s"]
    arr = [n for n in c if n.startswith("gf.FieldContext.")]
    arr_calls = sum(c[n]["calls"] for n in arr)
    arr_elems = sum(c[n]["work"] for n in arr)
    arr_self = sum(self_s[n] for n in arr)
    enum = c["linalg_codes._enumerate_min_weight"]["work"]
    hull = c["linalg_codes.LinearCode.hermitian_hull"]
    res = c["ag.residues"]
    ag_instances = c["ag.two_point_code"]["calls"]
    m = {
        "gf.arr.calls": arr_calls,
        "gf.arr.elems": arr_elems,
        "gf.arr.self_s": arr_self,
        "gf.arr.elems_per_s": _ratio(arr_elems, arr_self),
        "linalg_codes.enum.codewords": enum,
        "linalg_codes.enum.incl_s": incl["linalg_codes.enum"],
        "linalg_codes.enum.codewords_per_s": _ratio(enum, incl["linalg_codes.enum"]),
        "linalg_codes.hull.calls": hull["calls"],
        "linalg_codes.hull.max_n": hull["work_max"],
        "linalg_codes.hull.incl_s": incl["linalg_codes.hull"],
        "linalg_codes.nullspace.self_s": self_s["linalg_codes.nullspace"],
        "linalg_codes.rref.calls": c["linalg_codes.rref"]["calls"],
        "linalg_codes.rref.cells": c["linalg_codes.rref"]["work"],
        "linalg_codes.rref.self_s": self_s["linalg_codes.rref"],
        "linalg_codes.mat_mul.macs": c["linalg_codes.mat_mul"]["work"],
        "linalg_codes.mat_mul.self_s": self_s["linalg_codes.mat_mul"],
        "linalg_codes.contains.calls": c["linalg_codes.LinearCode.contains"]["calls"],
        "linalg_codes.contains.self_s": self_s["linalg_codes.LinearCode.contains"],
        "ag.instances": ag_instances,
        "ag.residues.calls": res["calls"],
        "ag.residues.points": res["work"],
        "ag.residues.self_s": self_s["ag.residues"],
        "ag.residues.calls_per_instance": _ratio(res["calls"], ag_instances),
        "ag.evaluation_code.self_s": self_s["ag.evaluation_code"],
        "ag.lbasis.self_s": self_s["ag.lbasis"],
        "ag.two_point.self_s": self_s["ag.two_point_code"],
        "polys.self_s": layer.get("polys", 0.0),
        "grs.instances": c["grs.construct_family"]["calls"],
        "grs.construct.self_s": self_s["grs.construct_family"],
        "grs.verify.self_s": self_s["grs.verify_claim"],
        "quantum.chain.self_s": self_s["quantum.chain_to_json"],
        "report.serialise.self_s": (self_s["report.ConstructionReport.to_canonical_dict"]
                                    + self_s["cli._dump"]),
        "trace.coverage": s["coverage"],
        "trace.spans": s["spans"],
    }
    for key, t in incl.items():
        m[f"{key}.share"] = t / traced_wall
    for name, t in layer.items():
        m[f"layer.{name}.self_share"] = t / traced_wall
    m["layer.untraced.self_share"] = 1.0 - s["coverage"]
    return m
