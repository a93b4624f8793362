"""The output check accepts the reference and rejects outputs perturbed beyond tolerance."""

import copy

import pytest

import workloads


def _out(name):
    values = copy.deepcopy(workloads.load_reference(name))
    out = {"invariants_ok": True, "precision_fail": 0, "values": values}
    if name == "sandwich":
        out["brackets"] = True
    return out


@pytest.mark.parametrize("name,key,tol", [
    ("line_desk", "re", workloads.TOL),
    ("scan", "poly_im", workloads.TOL),
    ("torus_chf", "im", workloads.CHF_STABILITY),
])
def test_pointwise_outputs(name, key, tol):
    ref = workloads.load_reference(name)
    out = _out(name)
    assert workloads.rejected(name, out, ref) == 0
    i = next(j for j, v in enumerate(ref[key]) if v is not None and abs(v) < 1.0)
    out["values"][key][i] += 0.5 * tol
    assert workloads.rejected(name, out, ref) == 0
    out["values"][key][i] += 2.0 * tol
    assert workloads.rejected(name, out, ref) == 1
    assert workloads.failed_points(name, 0, out, ref) == 1
    assert workloads.failed_points(name, 0, out, None) == 0  # other seeds: invariants only


def test_sandwich_bounds():
    ref = workloads.load_reference("sandwich")
    out = _out("sandwich")
    out["values"]["upper"] += 0.5 * workloads.QUAD_TOL
    assert workloads.rejected("sandwich", out, ref) == 0
    out["values"]["upper"] += 2.0 * workloads.QUAD_TOL
    assert workloads.rejected("sandwich", out, ref) == 1
    out = _out("sandwich")
    out["brackets"] = False
    assert workloads.rejected("sandwich", out, None) == 1


def test_flag_change_and_failed_runs():
    ref = workloads.load_reference("line_desk")
    out = _out("line_desk")
    out["values"]["flag"][0] = 2
    out["values"]["re"][0] = out["values"]["im"][0] = None
    assert workloads.rejected("line_desk", out, ref) == 1
    assert workloads.failed_points("line_desk", 1, _out("line_desk"), ref) == workloads.LINE_COUNT
    assert workloads.failed_points("line_desk", None, None, ref) == workloads.LINE_COUNT
    bad = _out("line_desk")
    bad["invariants_ok"] = False
    assert workloads.failed_points("line_desk", 0, bad, ref) == workloads.LINE_COUNT


def test_seed_moves_inputs_within_bounds():
    assert workloads.inputs("scan", 0)["argv"][6] == "50.0"
    for seed in range(1, 30):
        argv = workloads.inputs("scan", seed)["argv"]
        assert 0.0 <= float(argv[6]) - 50.0 < 1.0
        assert float(argv[8]) - float(argv[6]) == pytest.approx(250.0)
        r_max = float(workloads.inputs("torus_chf", seed)["argv"][-1])
        assert abs(r_max - 1.0) <= 0.05
        a, b, c, d = workloads.inputs("sandwich", seed)["rect"]
        assert abs(a + 1.0) <= 0.1 and abs(c + 1.0) <= 0.1
        assert b - a == pytest.approx(2.0) and d - c == pytest.approx(2.0)
        assert workloads.inputs("sandwich", seed) == workloads.inputs("sandwich", seed)
