"""certkit benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a certkit checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload certify-all --seed 1 --seconds 15 --trace 0

Workloads (one client, closed loop: each operation starts after the last
one finished; at most one child process at a time):

- ``certify-all``: ``certify run all --format json --seed S``, one fresh
  subprocess per operation.
- ``veronese-deep``: ``certify run veronese --degree-bound 10 --format json
  --seed S``, one subprocess per operation.
- ``fan-batch``: seeded fan files, each checked in-process through
  ``certify_cli.main(["fan", "check", path])``.
- ``substitute``: seeded ring-homomorphism cases for ``poly_substitute``,
  in-process.

``BENCHMARK.json`` gates on ``certify-all`` and ``fan-batch``, which between
them reach every module.  ``veronese-deep`` and ``substitute`` are run by
name only.  No timed operation of the gated workloads is expected to fail:
fan files with JSON-boolean coordinates, which the fan check wrongly
accepts, are checked after the timed loop as probes and reported on the
detail line.

With ``--trace 0`` the run measures for ``--seconds`` seconds and reports
``setup_s`` (wall seconds), ``op_p50_ref_s`` and ``ops_per_ref_s`` (operation
times scaled to a reference machine speed, see ``calibrate.py``) and
``peak_rss_mb``.  The run and its children keep to one CPU.  With
``--trace 1`` it runs a fixed slice of the workload twice in fresh child
processes, once plain and once under the span tracer, and reports the
per-module metrics and the tracing overhead.  Every operation is checked;
the line before the result holds the run context and the detail figures
(``failed_ops``, ``op_tail_s``, raw wall figures, input shape).  The last line of stdout is
the result object.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("certify-all", "veronese-deep", "fan-batch", "substitute")
SETUP_REPEATS = 7
CHILD_TIMEOUT = 170
# fixed slice of each workload run by the traced and untraced passes
TRACE_OPS = {"certify-all": 2, "veronese-deep": 1, "fan-batch": 200, "substitute": 20}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
# calibration routine calls after each subprocess operation (one after each
# in-process operation)
CLI_CALIBRATION_CALLS = 60

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref_s": "s", "ops_per_ref_s": "1/s",
                    "peak_rss_mb": "MB"}
TRACE_RUN_UNITS = {
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "ratio", "trace.ops": "count", "trace.spans": "count",
    "failed_ops": "ratio",
}


class Checkout:
    """Paths of the certkit checkout the benchmark runs in."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(HERE, ".work")
        if not os.path.isfile(os.path.join(self.src, "certkit", "__init__.py")):
            raise FileNotFoundError(f"no certkit sources under {self.src}")

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env

    def import_certkit(self) -> dict:
        """Import certkit from this checkout; short name -> module."""
        sys.path.insert(0, self.src)
        import certkit
        from certkit import (certify_cli, exactcore, hodge, numerology, schubert,
                             toric, veronese)
        where = os.path.realpath(os.path.dirname(certkit.__file__))
        if where != os.path.realpath(os.path.join(self.src, "certkit")):
            raise ImportError(f"certkit imported from {where}, not the checkout")
        return {"package": certkit, "certify_cli": certify_cli, "exactcore": exactcore,
                "hodge": hodge, "numerology": numerology, "schubert": schubert,
                "toric": toric, "veronese": veronese}

    def context(self, workload: str, seed: int, shape: dict) -> dict:
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                    capture_output=True, text=True, timeout=10)
            commit = commit.stdout.strip() if commit.returncode == 0 else None
        except OSError:
            commit = None
        digest = hashlib.sha256()
        pkg = os.path.join(self.src, "certkit")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
        return {"python": platform.python_version(), "nproc": os.cpu_count(),
                "commit": commit, "source_sha256": digest.hexdigest(),
                "workload": workload, "seed": seed, "input_shape": shape}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> tuple:
    """(operations, input shape) for a workload."""
    if workload in wl.CLI_ARGS:
        shape = {"argv": wl.cli_argv(workload, seed)}
        if workload == "veronese-deep":
            shape["degree_bound"] = wl.DEGREE_BOUND
        return [wl.cli_argv(workload, seed)], shape
    if workload == "fan-batch":
        cases = wl.make_fan_cases(seed)
        return cases, wl.fan_shape(cases)
    cases = wl.make_substitute_cases(seed)
    return cases, wl.substitute_shape(cases)


class InProcess:
    """Runs one operation of an in-process workload and checks it."""

    def __init__(self, workload: str, seed: int, mods: dict, golden: dict, workdir: str):
        self.workload, self.seed, self.mods, self.golden = workload, seed, mods, golden
        self.workdir = workdir
        if workload == "substitute":
            self.images = wl.substitute_images(mods["exactcore"])
        elif workload in wl.CLI_ARGS:
            self.check_report = wl.ReportCheck(workload, seed, golden)

    def run(self, op) -> tuple:
        """(seconds, failure reason or None, failure kind or None)."""
        cli, kind = self.mods["certify_cli"], None
        if self.workload == "substitute":
            def call():
                return wl.substitute_op(self.mods["exactcore"], self.images, op)

            def check(result):
                return wl.check_substitute(op, result)
        elif self.workload == "fan-batch":
            kind = op["kind"]
            # each file is written just before its check, outside the timing
            path = wl.write_fan_file(op, self.workdir)

            def call():
                return wl.run_cli_inprocess(cli, ["fan", "check", path])

            def check(result):
                return wl.check_fan_output(op, path, *result)
        else:
            def call():
                return wl.run_cli_inprocess(cli, op)

            def check(result):
                return self.check_report(*result[:2])
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an uncaught exception in the program is a failed operation
            return time.perf_counter() - t0, _last_line(traceback.format_exc()), kind
        seconds = time.perf_counter() - t0
        try:
            return seconds, check(result), kind
        except (ValueError, TypeError, IndexError) as e:
            return seconds, f"malformed output: {e!r}", kind


def _last_line(text: str) -> str:
    return "uncaught exception: " + text.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.times, self.failures = [], []    # failures: (reason, kind)

    def add(self, seconds: float, reason, kind):
        self.times.append(seconds)
        if reason is not None:
            self.failures.append((reason, kind))

    @property
    def correct(self) -> bool:
        return not self.failures


def probe_known_defect(runner: InProcess, seed: int) -> dict:
    """Checks the fan files of the known defect, outside the timed loop and
    the operation counts; the outcome goes on the detail line."""
    reasons = [runner.run(case)[1] for case in wl.make_defect_probes(seed)]
    wrong = [r for r in reasons if r is not None]
    return {"kind": wl.DEFECT_PROBE_KIND, "files": len(reasons),
            "handled_wrongly": len(wrong), "reasons": sorted(set(wrong))}


def tail(times: list) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        rank = -(-n * pct // 100)  # ceil
        if n - rank >= 10:
            return {"op_tail_s": ordered[int(rank) - 1], "percentile": pct, "samples": n}
    return None


def measure_setup(checkout: Checkout, workload: str, seed: int) -> float:
    """Median wall time of fresh set-up processes: interpreter start,
    ``import certkit.certify_cli`` and, for in-process workloads, input
    generation."""
    if workload in wl.CLI_ARGS:
        cmd = [sys.executable, "-c", "import certkit.certify_cli"]
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--phase", "setup",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, code, _, err = run_timed(checkout, cmd)
        if code != 0:
            raise RuntimeError(f"set-up process failed ({code}):\n{err.decode()}")
        times.append(seconds)
    return statistics.median(times)


def run_timed(checkout: Checkout, cmd: list) -> tuple:
    """(wall seconds, exit code or None if killed, stdout, stderr) of a child.

    The child is reaped with a blocking wait: ``communicate(timeout=...)``
    would poll the exit status in steps of up to 50 ms, which shows in
    sub-second timings.  A timer kills a child that overruns instead."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=checkout.root, env=checkout.env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    seconds = time.perf_counter() - t0
    return seconds, (None if proc.returncode < 0 else proc.returncode), out, err


def measure(checkout: Checkout, workload: str, seed: int, seconds: float,
            workdir: str) -> tuple:
    """The untraced run: (result line, detail record)."""
    golden = wl.load_golden()
    setup_s = measure_setup(checkout, workload, seed)
    tally, probe, calib = Tally(), None, calibrate.Calibration()
    if workload in wl.CLI_ARGS:
        ops, shape = make_inputs(workload, seed)
        check = wl.ReportCheck(workload, seed, golden)
        cmd = [sys.executable, "-m", "certkit.certify_cli", *ops[0]]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            dt, code, out, _ = run_timed(checkout, cmd)
            tally.add(dt, check(code, out), None)
            calib.run(CLI_CALIBRATION_CALLS)
        ref_times = [t * calib.scale() for t in tally.times]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        mods = checkout.import_certkit()
        ops, shape = make_inputs(workload, seed)
        runner = InProcess(workload, seed, mods, golden, workdir)
        start = time.perf_counter()
        i, ref_times = 0, []
        while time.perf_counter() - start < seconds:
            tally.add(*runner.run(ops[i % len(ops)]))
            calib.run()
            ref_times.append(tally.times[-1] * calib.scale(1))
            i += 1
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload == "fan-batch":
            probe = probe_known_defect(runner, seed)
    attempted, failed = len(tally.times), len(tally.failures)
    op_p50_s = statistics.median(tally.times)
    ops_per_s = (attempted - failed) / sum(tally.times)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ref_s": statistics.median(ref_times),
        "ops_per_ref_s": (attempted - failed) / sum(ref_times),
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {
        "context": checkout.context(workload, seed, shape),
        "failed_ops": failed / attempted,
        "failed_by_kind": collections.Counter(str(kind) for _, kind in tally.failures),
        "failures": [r for r, _ in tally.failures[:5]],
        "known_defect_probe": probe,
        "tail": tail(tally.times),
        "timed_wall_s": sum(tally.times),
        "wall": {"op_p50_s": op_p50_s, "ops_per_s": ops_per_s,
                 "calibration_mean_s": calib.mean_s(),
                 "calibration_calls": len(calib.times)},
    }
    result = {"correct": tally.correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}}
    return result, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def closed_form_observers(problems: list, counter: list) -> dict:
    """Checks on the rows the Veronese kernel certificates return."""
    from math import comb

    def check(rows, ideal_dim):
        for r in rows:
            counter[0] += 1
            if r.ideal_dim != ideal_dim(r.degree) or r.image_dim != (r.degree + 1) ** 2:
                problems.append(f"closed form fails at degree {r.degree}")

    return {
        "veronese.projection_kernel_principal_certificate":
            lambda args, res: check(res.rows, lambda d: comb(d + 1, 3)),
        "veronese.projection_kernel_certificate":
            lambda args, res: check(res.rows, lambda d: comb(d + 3, 3) - 4 * d),
    }


def run_pass(checkout: Checkout, workload: str, seed: int, traced: bool,
             workdir: str) -> dict:
    """One fixed slice of the workload in this process, optionally traced."""
    mods = checkout.import_certkit()
    ops, shape = make_inputs(workload, seed)
    ops = ops * TRACE_OPS[workload] if workload in wl.CLI_ARGS else ops[:TRACE_OPS[workload]]
    runner = InProcess(workload, seed, mods, wl.load_golden(), workdir)
    tally = Tally()
    problems, rows_checked = [], [0]
    recorder = tracer.Tracer(mods, closed_form_observers(problems, rows_checked)
                             if workload == "veronese-deep" else None)
    with recorder if traced else contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            tally.add(*runner.run(op))
        wall = time.perf_counter() - start
    if workload == "veronese-deep" and traced and not rows_checked[0]:
        problems.append("no kernel certificate rows were observed")
    out = {"wall_s": wall, "ops": len(ops), "input_shape": shape,
           "failures": tally.failures + [(p, None) for p in problems],
           "closed_form_rows": rows_checked[0]}
    if traced:
        out["metrics"] = recorder.aggregate()
        out["spans"] = len(recorder.spans)
        spans_path = os.path.join(checkout.work, f"spans-{workload}-seed{seed}.jsonl.gz")
        recorder.write(spans_path)
        out["spans_file"] = os.path.relpath(spans_path, checkout.root)
    return out


def run_child_pass(checkout: Checkout, workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", "pass",
           "--workload", workload, "--seed", str(seed), "--traced", str(int(traced))]
    proc = subprocess.run(cmd, cwd=checkout.root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{'traced' if traced else 'untraced'} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_traced(checkout: Checkout, workload: str, seed: int) -> tuple:
    plain = run_child_pass(checkout, workload, seed, traced=False)
    traced = run_child_pass(checkout, workload, seed, traced=True)
    metrics = dict(traced["metrics"])
    self_time = sum(v for k, v in metrics.items() if tracer.is_self_time(k))
    metrics.update({
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.accounted_share": self_time / traced["wall_s"],
        "trace.ops": traced["ops"],
        "trace.spans": traced["spans"],
    })
    failures = [tuple(f) for f in plain["failures"] + traced["failures"]]
    attempted = plain["ops"] + traced["ops"]
    metrics["failed_ops"] = len(failures) / attempted
    correct = not failures
    units = {**{k: tracer.unit(k) for k in tracer.METRIC_NAMES}, **TRACE_RUN_UNITS}
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = {"context": checkout.context(workload, seed, traced["input_shape"]),
              "failures": [r for r, _ in failures[:5]],
              "closed_form_rows": traced["closed_form_rows"],
              "spans_file": traced["spans_file"]}
    return result, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the
    calibration routine runs on the CPU the operations ran on: each CPU of a
    shared host switches speed on its own."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="certkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes this script starts
    parser.add_argument("--phase", choices=("main", "setup", "pass"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        checkout = Checkout(os.getcwd())
    except FileNotFoundError as e:
        print(f"error: {e}; run from the root of a certkit checkout", file=sys.stderr)
        return 2
    os.makedirs(checkout.work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=checkout.work)
    try:
        if args.phase == "setup":
            checkout.import_certkit()
            make_inputs(args.workload, args.seed)
            return 0
        if args.phase == "pass":
            out = run_pass(checkout, args.workload, args.seed, bool(args.traced), workdir)
            print(json.dumps(out))
            return 0
        pin_to_one_cpu()
        if args.trace:
            result, detail = measure_traced(checkout, args.workload, args.seed)
        else:
            result, detail = measure(checkout, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
