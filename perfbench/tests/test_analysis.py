"""Self-time and inclusive-time arithmetic on a synthetic nested trace."""

import numpy as np
import pytest

import analysis

RREF, MAT_MUL, ADD = "linalg_codes.rref", "linalg_codes.mat_mul", "gf.FieldContext.add_arr"

#   0 rref    [0, 10]
#   1   mat_mul [1, 4]
#   2     add_arr [2, 3]
#   3   mat_mul [5, 9]
#   4     rref    [6, 7]      (rref nested inside rref)
#   5 add_arr [11, 12]        (second top-level span)
NAMES = [RREF, MAT_MUL, ADD, *sorted(set(analysis.INCLUSIVE.values()) - {RREF, MAT_MUL})]
TRACE = {
    "names": np.array(NAMES),
    "name": np.array([0, 1, 2, 1, 0, 2], dtype=np.int32),
    "parent": np.array([-1, 0, 1, 0, 3, -1]),
    "start": np.array([0.0, 1.0, 2.0, 5.0, 6.0, 11.0]),
    "end": np.array([10.0, 4.0, 3.0, 9.0, 7.0, 12.0]),
    "thread": np.zeros(6, dtype=np.int32),
    "instance": np.zeros(6, dtype=np.int32),
}


def test_self_time_subtracts_direct_children_only():
    got = analysis.self_times(TRACE["start"], TRACE["end"], TRACE["parent"])
    assert got.tolist() == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0]


def test_self_times_sum_to_top_level_durations():
    got = analysis.self_times(TRACE["start"], TRACE["end"], TRACE["parent"])
    assert got.sum() == pytest.approx(10.0 + 1.0)


def test_outermost_skips_spans_nested_in_the_same_name():
    mask = analysis.outermost(TRACE["name"], TRACE["parent"], 0)
    assert mask.tolist() == [True, False, False, False, False, False]
    mask = analysis.outermost(TRACE["name"], TRACE["parent"], 2)
    assert mask.tolist() == [False, False, True, False, False, True]


def test_summarise_layers_inclusive_and_coverage():
    s = analysis.summarise(TRACE, counts={}, traced_wall=12.5)
    assert s["self_s"][RREF] == pytest.approx(4.0)
    assert s["self_s"][MAT_MUL] == pytest.approx(5.0)
    assert s["self_s"][ADD] == pytest.approx(2.0)
    assert s["layer_self_s"] == pytest.approx({"linalg_codes": 9.0, "gf": 2.0, "ag": 0.0})
    assert s["incl_s"]["linalg_codes.rref"] == pytest.approx(10.0)
    assert s["incl_s"]["linalg_codes.mat_mul"] == pytest.approx(7.0)
    assert s["incl_s"]["ag.residues"] == 0.0
    assert s["coverage"] == pytest.approx(11.0 / 12.5)
    assert s["spans"] == 6
