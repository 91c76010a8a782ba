"""Decide whether the build is green, as the README defines it.

Usage (from the repository root, or anywhere with its path):

    python3 tools/check_green.py

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
with src on PYTHONPATH) and the benchmark's own tests (`pytest
perfbench/tests`), each writing a JUnit XML report to a temporary
directory.  Exits 0 when the only failures are acceptance criteria 01 and
05, which assert published values the recomputation contradicts, and
nothing errors, fails to collect or stops the session; otherwise prints
what differs and exits 1.  Also prints the tier-1 suite's slowest tests
with their times from its report, so that a growth of the suite's wall
time can be traced to the tests that add it.
"""

from __future__ import annotations

import heapq
import os
import pathlib
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the tests that are red by design: both assert a published value verbatim
EXPECTED_FAILURES = frozenset({
    "tests.test_acceptance::test_criterion_01_twisted_cotangent_goldens",
    "tests.test_acceptance::test_criterion_05_projection_kernel",
})

SUITES = (
    ("tier-1", ["--continue-on-collection-errors"]),
    ("perfbench", ["perfbench/tests"]),
)
SLOWEST_SHOWN = 5


def _run(args: list, xml_path: pathlib.Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", f"--junitxml={xml_path}", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def _outcomes(xml_path: pathlib.Path) -> tuple:
    """(test ids that failed, test ids that errored, [(seconds, test id)]
    for every test run) from a JUnit report; a collection error is an
    error on its module."""
    failed, errored, times = set(), set(), []
    for case in ET.parse(xml_path).getroot().iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        times.append((float(case.get("time") or 0), name))
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    return failed, errored, times


def main() -> int:
    failed, errored = set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in SUITES:
            xml_path = pathlib.Path(tmp) / f"{label}.xml"
            code = _run(args, xml_path)
            # 0 and 1 are "all passed" and "some failed"; any other code
            # means the session was interrupted or never ran the tests
            if code not in (0, 1) or not xml_path.exists():
                print(f"{label}: pytest exited {code}")
                print("not green")
                return 1
            f, e, times = _outcomes(xml_path)
            print(f"{label}: {len(times)} tests, {len(f)} failed, {len(e)} errors")
            if label == "tier-1":
                for seconds, name in heapq.nlargest(SLOWEST_SHOWN, times):
                    print(f"  {seconds:6.2f} s  {name}")
            failed |= f
            errored |= e
    green = failed == EXPECTED_FAILURES and not errored
    for name in sorted(failed - EXPECTED_FAILURES):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED_FAILURES - failed):
        print(f"expected failure passed or did not run: {name}")
    for name in sorted(errored):
        print(f"error: {name}")
    print("green" if green else "not green")
    return 0 if green else 1


if __name__ == "__main__":
    sys.exit(main())
