"""Tests of the benchmark itself.

Run from the root of a certkit checkout:

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.Checkout(ROOT).import_certkit()


def _bindings(mods) -> dict:
    """Every attribute of every certkit module and traced class, by identity."""
    out = {}
    for short, mod in mods.items():
        for name, value in vars(mod).items():
            out[(short, name)] = value
    for short, cls, name in tracer.CLASS_TARGETS:
        out[(short, cls, name)] = vars(getattr(mods[short], cls))[name]
    return out


def test_generators_are_deterministic_per_seed():
    assert wl.make_fan_cases(3, 50) == wl.make_fan_cases(3, 50)
    assert wl.make_fan_cases(3, 50) != wl.make_fan_cases(4, 50)
    assert wl.make_substitute_cases(3, 12) == wl.make_substitute_cases(3, 12)
    assert wl.make_substitute_cases(3, 12) != wl.make_substitute_cases(4, 12)


def test_fan_cases_are_distinct_and_cover_every_invalid_kind():
    cases = wl.make_fan_cases(0, 200)
    assert len({c["text"] for c in cases}) == len(cases)
    assert {c["kind"] for c in cases} == set(wl.INVALID_KINDS) | {None}


def _fan_check(mods, case, tmp_path):
    path = wl.write_fan_file(case, str(tmp_path))
    code, out, err = wl.run_cli_inprocess(mods["certify_cli"], ["fan", "check", path])
    return wl.check_fan_output(case, path, code, out, err)


def test_fan_expectations_hold_except_known_defect(mods, tmp_path):
    for case in wl.make_fan_cases(1, 80):
        assert _fan_check(mods, case, tmp_path) is None, case
    # the known defect is probed apart from the timed files: JSON booleans
    # as coordinates, which the fan check should reject
    for case in wl.make_defect_probes(1):
        assert case["exit"] == 2 and "true" in case["text"], case


def test_substitute_check_rejects_a_wrong_value(mods):
    exactcore = mods["exactcore"]
    images = wl.substitute_images(exactcore)
    case = wl.make_substitute_cases(2, 1)[0]
    lhs, rhs, equal = wl.substitute_op(exactcore, images, case)
    assert wl.check_substitute(case, (lhs, rhs, equal)) is None
    wrong = lhs * exactcore.Polynomial.constant(lhs.num.variables, 2)
    assert wl.check_substitute(case, (wrong, rhs, True)) is not None


def test_tracer_restores_every_binding(mods):
    before = _bindings(mods)
    with tracer.Tracer(mods) as recorder:
        during = _bindings(mods)
        assert mods["veronese"].ideal_graded_dimension is not \
            mods["exactcore"].ideal_graded_dimension.__wrapped__
        mods["exactcore"].matrix_rank([[1, 2], [3, 4]])
    after = _bindings(mods)
    changed = [k for k in before if during[k] is not before[k]]
    # the from-imports of exactcore into other modules and the package are wrapped too
    assert ("veronese", "ideal_graded_dimension") in changed
    assert ("package", "poly_substitute") in changed
    assert ("toric", "Fan", "__init__") in changed
    assert all(after[k] is before[k] for k in before)
    assert [s[0] for s in recorder.spans] == ["exactcore.rank_q"]


def test_traced_certify_all_report_matches_untraced(mods):
    golden = wl.load_golden()
    argv = wl.cli_argv("certify-all", 5)
    code, plain, _ = wl.run_cli_inprocess(mods["certify_cli"], argv)
    with tracer.Tracer(mods) as recorder:
        traced_code, traced, _ = wl.run_cli_inprocess(mods["certify_cli"], argv)
    assert (code, traced_code) == (0, 0)
    assert traced == plain
    assert wl.check_cli_report("certify-all", 5, code, plain, golden) is None
    metrics = recorder.aggregate()
    assert metrics["veronese.conic_search.calls"] > 0
    assert metrics["exactcore.rank_f2.calls"] > 0
    roots = recorder.root_seconds()
    assert sum(v for k, v in metrics.items() if tracer.is_self_time(k)) == pytest.approx(roots)


def test_cli_check_flags_changed_bytes():
    golden = wl.load_golden()
    report = b'{\n  "seed": "7",\n  "suite": "all"\n}\n'
    assert wl.check_cli_report("certify-all", 7, 0, report, golden) is not None
    assert wl.check_cli_report("certify-all", 7, 1, report, golden) == "exit code 1"


def test_tail_needs_ten_samples_beyond():
    assert run.tail([0.1] * 19) is None
    t = run.tail([float(i) for i in range(100)])
    assert t["percentile"] == 90 and t["samples"] == 100 and t["op_tail_s"] == 89.0


def test_calibration_scale_uses_the_mean_of_the_chosen_calls():
    calib = calibrate.Calibration()
    calib.run(2)
    assert calibrate.routine() == calibrate.EXPECTED
    calib.times = [0.002, 0.004, 0.012]
    assert calib.scale() == pytest.approx(calibrate.REFERENCE_S / 0.006)
    assert calib.scale(1) == pytest.approx(calibrate.REFERENCE_S / 0.012)
