"""The tracer replaces every binding calls go through, and counts exactly."""

import contextlib
import importlib
import io
import sys

import numpy as np
import pytest

import analysis
import hermhull
from hermhull import ag, cli, gf, grs, linalg_codes, polys, quantum, report
from tracer import Tracer

LISTED = [
    *((linalg_codes, n) for n in ("rref", "nullspace", "mat_mul", "gram_matrix",
                                  "matrix_rank")),
    *((grs, n) for n in ("mat_mul", "gram_matrix", "matrix_rank")),
    *((ag, n) for n in ("rref", "mat_mul", "gram_matrix", "matrix_rank")),
    *((linalg_codes.LinearCode, n) for n in ("hermitian_hull", "min_distance",
                                             "contains")),
    *((gf.FieldContext, n) for n in ("add_arr", "mul_arr", "neg_arr", "pow_q_arr")),
    *((ag, n) for n in ("residues", "evaluation_set", "evaluation_code", "lbasis",
                        "two_point_code")),
    *((polys, n) for n in ("add", "mul", "evaluate", "derivative", "from_roots",
                           "trim", "divmod_", "gcd")),
    (grs, "construct_family"), (grs, "verify_claim"),
    (quantum, "chain_to_json"),
    (report.ConstructionReport, "to_canonical_dict"),
    (cli, "_dump"),
    *((hermhull, n) for n in ("rref", "nullspace", "gram_matrix", "matrix_rank")),
]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def is_wrapper(value):
    return getattr(value, "__perfbench_name__", None) is not None


def test_every_listed_binding_is_the_wrapper(tracer):
    for owner, name in LISTED:
        value = vars(owner)[name]
        assert is_wrapper(value), f"{owner.__name__}.{name} is not wrapped"
    assert grs.mat_mul is linalg_codes.mat_mul is ag.mat_mul


def test_no_module_keeps_an_unwrapped_original(tracer):
    originals = {id(w.__wrapped__): n for n, w in tracer.wrappers.items()}
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "hermhull":
            continue
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{modname}.{attr} bypasses the tracer"


def test_uninstall_restores_originals():
    before = {(id(o), n): vars(o)[n] for o, n in LISTED}
    t = Tracer()
    t.install()
    t.uninstall()
    for (oid, n), value in before.items():
        owner = next(o for o, m in LISTED if id(o) == oid and m == n)
        assert vars(owner)[n] is value


def test_mat_mul_counts_macs_and_nests_field_ops(tracer, tmp_path):
    F = gf.quadratic_field(3)
    A = np.arange(6, dtype=np.int32).reshape(2, 3) % F.order
    B = np.arange(12, dtype=np.int32).reshape(3, 4) % F.order
    linalg_codes.mat_mul(F, A, B)
    counts = tracer.dump(tmp_path / "t.npz")
    assert counts["linalg_codes.mat_mul"] == {"calls": 1, "work": 24, "work_max": 24}
    assert counts["gf.FieldContext.mul_arr"]["calls"] == 3
    assert counts["gf.FieldContext.mul_arr"]["work"] == 3 * 8
    trace = analysis.load(tmp_path / "t.npz")
    names = [str(n) for n in trace["names"]]
    assert names[trace["name"][0]] == "linalg_codes.mat_mul"
    assert trace["parent"][0] == -1
    assert (trace["parent"][1:] == 0).all()
    assert (trace["end"] >= trace["start"]).all()


def test_reports_share_their_construction_instance(tracer, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["grs", "sweep", "--q", "3", "--families", "CON1,CON2"]) == 0
    counts = tracer.dump(tmp_path / "t.npz")
    trace = analysis.load(tmp_path / "t.npz")
    names = [str(n) for n in trace["names"]]
    top = trace["parent"] < 0

    def instances(name):
        sel = top & (trace["name"] == names.index(name))
        return trace["instance"][sel].tolist()

    built = instances("grs.construct_family")
    assert len(built) == counts["grs.construct_family"]["calls"] > 1
    assert sorted(set(built)) == built
    assert instances("grs.verify_claim") == built
    assert instances("report.ConstructionReport.to_canonical_dict") == built
    inner = ~top
    assert (trace["instance"][inner] >= 0).all()
