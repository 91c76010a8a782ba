"""Record the golden copy the CLI workloads are checked against.

Run from the root of a certkit checkout whose reports are trusted:

    python3 perfbench/record_golden.py

It writes ``perfbench/golden.json``: the verdict of every certificate in
``certify run all --seed 0``, and per CLI workload the sorted certificate
ids and the sha256 of the seed-0 JSON report.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import workloads as wl


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    golden = {"verdicts": {}, "reports": {}}
    for workload in wl.CLI_ARGS:
        out = subprocess.run([sys.executable, "-m", "certkit.certify_cli",
                              *wl.cli_argv(workload, 0)],
                             env=env, check=True, capture_output=True).stdout
        certs = json.loads(out)["certificates"]
        if workload == "certify-all":
            golden["verdicts"] = {c["id"]: c["verdict"] for c in certs}
        golden["reports"][workload] = {
            "argv": wl.cli_argv(workload, 0),
            "ids": sorted(c["id"] for c in certs),
            "sha256": hashlib.sha256(out).hexdigest(),
        }
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
