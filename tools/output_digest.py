"""Print sha256 digests of the command line's output, to show that a change
keeps it byte for byte.

Usage (from the repository root, or anywhere with its path):

    python3 tools/output_digest.py

Prints one line per digest, each over the stdout, stderr and exit code of
every command in its group:

    fan-check tests/data   `certify fan check` on each fan file in tests/data
    fan-check seed S       the same on the benchmark's fan-batch files of
                           seed S in FAN_SEEDS, from perfbench/workloads
    run-all seed S         `certify run all --format json --seed S` for S
                           in RUN_SEEDS
    usage                  the lines of USAGE_LINES: help, usage errors and
                           a few valid lines, with COLUMNS=80 so that the
                           usage text wraps alike on every terminal

The commands run in this process through `certify_cli.main`, imported from
this checkout's src, so the script run from a copy of another commit
digests that commit.  Fan files are named relative to the working
directory, which the output quotes, so the digests do not depend on where
the checkout or the temporary directory lies.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import tempfile
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAN_SEEDS = (0, 1)
RUN_SEEDS = (0, 3, 7)

# command lines that exercise the parser: help, wrong or incomplete commands,
# `--` placement, leftover words, bad options and valid lines
_F = "tests/data/p2.json"
USAGE_LINES = (
    ["-h"], ["fan", "-h"], ["run", "-h"], ["fan", "check", "-h"],
    [], ["bogus"], ["fan"], ["fan", "check"], ["run"], ["fan", "bogus"],
    ["run", "mystery"],
    ["--", "run", "numerology"], ["run", "--", "numerology"],
    ["fan", "--", "check", _F], ["fan", "check", "--", _F],
    ["fan", "check", _F, "extra"], ["fan", "check", _F, _F],
    ["run", "numerology", "extra"],
    ["run", "all", "--bogus"], ["run", "numerology", "--trials", "100001"],
    ["run", "all", "--seed", "x"],
    ["run", "numerology", "--seed=3"], ["run", "numerology", "--format", "json", "--seed", "3"],
    ["fan", "check", _F],
)

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from certkit import certify_cli  # noqa: E402
from perfbench import workloads  # noqa: E402


def digest(commands, cwd=ROOT) -> str:
    """sha256 over one JSON line [argv, exit code, stdout, stderr] per
    command, each run in cwd."""
    h = hashlib.sha256()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        for argv in commands:
            code, out, err = workloads.run_cli_inprocess(certify_cli, argv)
            h.update(json.dumps([argv, code, out.decode("utf-8"), err]).encode() + b"\n")
    finally:
        os.chdir(old)
    return h.hexdigest()


def data_fan_files() -> list:
    """The fan files of tests/data, relative to the root: every JSON object
    there with a "cones" field."""
    out = []
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, dict) and "cones" in data:
            out.append(path.relative_to(ROOT).as_posix())
    return out


def data_digest() -> str:
    return digest([["fan", "check", p] for p in data_fan_files()])


def fan_batch_digest(seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        names = [os.path.basename(workloads.write_fan_file(case, tmp))
                 for case in workloads.make_fan_cases(seed)]
        return digest([["fan", "check", n] for n in names], cwd=tmp)


def run_all_digest(seed: int) -> str:
    return digest([["run", "all", "--format", "json", "--seed", str(seed)]])


def usage_digest() -> str:
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return digest(USAGE_LINES)


def main() -> int:
    print(f"fan-check tests/data  {data_digest()}", flush=True)
    for seed in FAN_SEEDS:
        print(f"fan-check seed {seed}  {fan_batch_digest(seed)}", flush=True)
    for seed in RUN_SEEDS:
        print(f"run-all seed {seed}  {run_all_digest(seed)}", flush=True)
    print(f"usage  {usage_digest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
