"""tools/check_green.py reads outcomes and times from a JUnit report."""

import importlib.util
import json
import pathlib
import shutil

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


def test_durations_sidecar_holds_every_test_of_both_suites(tmp_path, monkeypatch, capsys):
    """With --durations, main writes {test id: seconds} for every test that
    either suite's JUnit report lists; the suites' runs are replaced by
    copies of fixed reports."""
    module = _check_green()
    reports = {
        "tier-1": '<testsuites><testsuite>'
                  '<testcase classname="tests.test_acceptance" '
                  'name="test_criterion_01_twisted_cotangent_goldens" time="0.5"><failure/></testcase>'
                  '<testcase classname="tests.test_acceptance" '
                  'name="test_criterion_05_projection_kernel" time="0.125"><failure/></testcase>'
                  '<testcase classname="tests.test_a" name="test_pass" time="2.25"/>'
                  '</testsuite></testsuites>',
        "perfbench": '<testsuites><testsuite>'
                     '<testcase classname="perfbench.tests.test_p" name="test_run"/>'
                     '</testsuite></testsuites>',
    }
    sources = {}
    for label, text in reports.items():
        sources[label] = tmp_path / f"{label}-source.xml"
        sources[label].write_text(text)

    def fake_run(args, xml_path):
        label = next(label for label, suite_args in module.SUITES if suite_args == args)
        shutil.copy(sources[label], xml_path)
        return 1

    monkeypatch.setattr(module, "_run", fake_run)
    sidecar = tmp_path / "durations.json"
    assert module.main(["--durations", str(sidecar)]) == 0
    assert capsys.readouterr().out.endswith("green\n")
    assert json.loads(sidecar.read_text()) == {
        "tests.test_acceptance::test_criterion_01_twisted_cotangent_goldens": 0.5,
        "tests.test_acceptance::test_criterion_05_projection_kernel": 0.125,
        "tests.test_a::test_pass": 2.25,
        "perfbench.tests.test_p::test_run": 0.0,
    }
    # the option is optional
    capsys.readouterr()
    assert module.main([]) == 0
    assert capsys.readouterr().out.endswith("green\n")
