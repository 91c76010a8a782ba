"""tools/check_green.py reads outcomes and times from a JUnit report."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _check_green():
    spec = importlib.util.spec_from_file_location("check_green", ROOT / "tools" / "check_green.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_read_failures_errors_and_times(tmp_path):
    report = tmp_path / "report.xml"
    report.write_text(
        '<testsuites><testsuite>'
        '<testcase classname="tests.test_a" name="test_pass" time="0.25"/>'
        '<testcase classname="tests.test_a" name="test_fail" time="1.5"><failure/></testcase>'
        '<testcase classname="tests.test_b" name="test_error"><error/></testcase>'
        '</testsuite></testsuites>')
    failed, errored, times = _check_green()._outcomes(report)
    assert failed == {"tests.test_a::test_fail"}
    assert errored == {"tests.test_b::test_error"}
    assert sorted(times, reverse=True) == [(1.5, "tests.test_a::test_fail"),
                                           (0.25, "tests.test_a::test_pass"),
                                           (0.0, "tests.test_b::test_error")]
