"""Seeded inputs, operations and correctness checks for each workload.

Everything here is independent of certkit except the calls under test: the
fan generator knows each file's expected properties by construction, the
substitution check evaluates at a rational point with the benchmark's own
arithmetic, and CLI reports are compared with the recorded golden copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

CLI_ARGS = {
    "certify-all": ["run", "all", "--format", "json"],
    "veronese-deep": ["run", "veronese", "--degree-bound", "10", "--format", "json"],
}
DEGREE_BOUND = 10

FAN_FILES = 4000            # distinct files generated per run; reused only if exhausted
MAX_BLOWUPS = 6
INVALID_KINDS = ("non-primitive", "ray-in-cone", "cone-in-cone", "unused-ray")
# Known defect: fan_from_dict accepts JSON booleans as coordinates and exits 0.
# Such files are kept out of the timed files, so that no timed operation
# fails, and are checked as separate probes whose outcome every run reports.
DEFECT_PROBE_KIND = "boolean-coords"
DEFECT_PROBES = 8

SUBSTITUTE_CASES = 400      # distinct cases generated per run
# Exponents of the two-term factors p and q, cycled case by case.  The shape
# is pinned because cost grows steeply with terms and degree; these four cost
# about the same, so a run's mix does not depend on where it stops.
SUBSTITUTE_SHAPES = (
    (((2, 1), (2, 3)), ((0, 3), (1, 1))),
    (((0, 1), (2, 1)), ((0, 3), (3, 3))),
    (((2, 2), (3, 1)), ((1, 0), (1, 2))),
    (((1, 3), (2, 2)), ((1, 0), (2, 1))),
)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def cli_argv(workload: str, seed: int) -> list:
    return CLI_ARGS[workload] + ["--seed", str(seed)]


def normalize_seed(report: bytes, seed: int) -> bytes:
    """The report with its seed line set to 0: the seed only names the run,
    so every other byte must equal the seed-0 golden copy."""
    line = f'\n  "seed": "{seed}",\n'.encode()
    if report.count(line) != 1:
        raise ValueError("report has no unique seed line")
    return report.replace(line, b'\n  "seed": "0",\n')


def check_cli_report(workload: str, seed: int, code: int, report: bytes,
                     golden: dict) -> str | None:
    """None when the CLI output is right, else a reason."""
    expect = golden["reports"][workload]
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(report)
        normalized = normalize_seed(report, seed)
    except ValueError as e:
        return f"unreadable report: {e}"
    try:
        verdicts = {c["id"]: c["verdict"] for c in data["certificates"]}
    except (KeyError, TypeError):
        return "report has no certificate list"
    if sorted(verdicts) != expect["ids"]:
        return "certificate ids differ from golden"
    wrong = [i for i, v in verdicts.items() if golden["verdicts"].get(i) != v]
    if wrong:
        return f"verdicts differ from golden: {wrong[:5]}"
    if hashlib.sha256(normalized).hexdigest() != expect["sha256"]:
        return "report bytes differ from golden"
    return None


class ReportCheck:
    """Checks each report of one run against the golden copy and requires
    every repeat within the run to be byte-identical to the first."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.workload, self.seed, self.golden = workload, seed, golden
        self.first = None

    def __call__(self, code, report: bytes) -> str | None:
        if code is None:
            return "killed after the time limit"
        reason = check_cli_report(self.workload, self.seed, code, report, self.golden)
        if reason is None and self.first not in (None, report):
            reason = "repeat report differs"
        self.first = self.first or report
        return reason


def run_cli_inprocess(certify_cli, argv: list) -> tuple:
    """certify_cli.main with stdout captured: (exit code, stdout bytes, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = certify_cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue().encode("utf-8"), err.getvalue()


# ---------------------------------------------------------------------------
# fan files
# ---------------------------------------------------------------------------


def _hirzebruch_chain(rng: random.Random, blowups: int) -> list:
    """Rays of a smooth complete surface in counter-clockwise order:
    a Hirzebruch fan F_k followed by blowups of random adjacent pairs."""
    k = rng.randint(0, 3)
    rays = [(1, 0), (0, 1), (-1, k), (0, -1)]
    for _ in range(blowups):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return rays


def _one_signed(m, rays, cones) -> bool:
    for cone in cones:
        signs = {(d > 0) - (d < 0) for d in
                 (sum(a * b for a, b in zip(m, rays[i])) for i in cone)}
        if 1 in signs and -1 in signs:
            return False
    return True


def _make_valid_fan(rng: random.Random, dim: int, blowups: int) -> dict:
    """A smooth complete 2D fan or a P^1-bundle over one, with its rays
    listed in a seeded random order."""
    cyc = _hirzebruch_chain(rng, blowups)
    n = len(cyc)
    base_cones = [(i, (i + 1) % n) for i in range(n)]
    if dim == 2:
        rays, cones = list(cyc), [list(c) for c in base_cones]
    else:
        rays = [(x, y, rng.randint(-2, 2)) for x, y in cyc] + [(0, 0, 1), (0, 0, -1)]
        cones = [[i, j, n + s] for i, j in base_cones for s in (0, 1)]
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    rays = [rays[old] for old in order]
    cones = [sorted(new_index[i] for i in c) for c in cones]
    rng.shuffle(cones)
    return {"dim": len(rays[0]), "rays": [list(r) for r in rays], "cones": cones}


def _make_invalid_fan(rng: random.Random, dim: int, blowups: int, kind: str) -> dict:
    fan = _make_valid_fan(rng, dim, blowups)
    rays, cones, dim = fan["rays"], fan["cones"], fan["dim"]
    if kind == "non-primitive":
        i = rng.randrange(len(rays))
        rays[i] = [2 * x for x in rays[i]]
    elif kind == "ray-in-cone":
        # w = u + v lies inside the cone (u, v); a new cone (w, u) keeps it used
        cone = rng.choice(cones)
        u, v = cone[0], cone[1]
        w = [a + b for a, b in zip(rays[u], rays[v])]
        g = math.gcd(*w)
        rays.append([x // g for x in w])
        cones.append([len(rays) - 1, u] + ([] if dim == 2 else [cone[2]]))
    elif kind == "cone-in-cone":
        cone = rng.choice(cones)
        cones.append(list(cone) if dim == 2 else sorted(rng.sample(cone, 2)))
    elif kind == "unused-ray":
        while True:
            r = [rng.randint(-5, 5) for _ in range(dim)]
            if math.gcd(*r) == 1 and r not in rays:
                break
        rays.append(r)
    elif kind == "boolean-coords":
        # JSON true/false in place of 1/0 on every 0/1 ray
        fan["rays"] = [[bool(x) for x in r] if set(r) <= {0, 1} else r for r in rays]
    else:
        raise ValueError(kind)
    return fan


def make_fan_cases(seed: int, count: int = FAN_FILES) -> list:
    """Seeded, distinct fan files with their expected check output.

    The shape cycles so that every prefix of the list has nearly the same
    mix: dimension 2 and 3 alternate, the blowup count runs through
    0..MAX_BLOWUPS, and every eighth file is invalid, cycling through
    INVALID_KINDS.  The seed picks everything else."""
    rng = random.Random(f"fan-batch:{seed}")
    cases, seen = [], set()
    while len(cases) < count:
        i = len(cases)
        dim, blowups = 2 + (i + i // 8) % 2, (i // 2) % (MAX_BLOWUPS + 1)
        if i % 8 == 7:
            kind = INVALID_KINDS[(i // 8) % len(INVALID_KINDS)]
            fan = _make_invalid_fan(rng, dim, blowups, kind)
        else:
            kind, fan = None, _make_valid_fan(rng, dim, blowups)
        text = json.dumps(fan, sort_keys=True)
        if text in seen:
            continue
        seen.add(text)
        valid = kind is None
        cases.append({
            "index": i, "text": text, "kind": kind,
            "dim": fan["dim"], "rays": len(fan["rays"]), "cones": len(fan["cones"]),
            "smooth": valid, "complete": valid, "exit": 0 if valid else 2,
        })
    return cases


def make_defect_probes(seed: int, count: int = DEFECT_PROBES) -> list:
    """Seeded fan files with JSON-boolean coordinates, which the fan check
    should reject (exit code 2)."""
    rng = random.Random(f"fan-batch-probe:{seed}")
    cases = []
    for i in range(count):
        fan = _make_invalid_fan(rng, 2 + i % 2, i % (MAX_BLOWUPS + 1), DEFECT_PROBE_KIND)
        cases.append({
            "index": i, "text": json.dumps(fan, sort_keys=True), "kind": DEFECT_PROBE_KIND,
            "dim": fan["dim"], "rays": len(fan["rays"]), "cones": len(fan["cones"]),
            "smooth": False, "complete": False, "exit": 2,
        })
    return cases


def write_fan_file(case: dict, directory: str) -> str:
    prefix = "probe" if case["kind"] == DEFECT_PROBE_KIND else "fan"
    path = os.path.join(directory, f"{prefix}{case['index']:05d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case["text"] + "\n")
    return path


def fan_shape(cases: list) -> dict:
    hist: dict = {}
    for c in cases:
        key = f"{c['dim']}d-{c['rays']}"
        hist[key] = hist.get(key, 0) + 1
    kinds = {k: sum(c["kind"] == k for c in cases) for k in INVALID_KINDS}
    return {"files": len(cases), "ray_count_histogram": dict(sorted(hist.items())),
            "invalid": sum(kinds.values()), "invalid_by_kind": kinds}


def check_fan_output(case: dict, path: str, code: int, out: bytes, err: str) -> str | None:
    if code != case["exit"]:
        return f"exit code {code}, expected {case['exit']}"
    if code != 0:
        return None if (not out and err.startswith("error: ")) else "missing error message"
    yes = {True: "yes", False: "no"}
    lines = out.decode("utf-8").splitlines()
    expected = [f"fan file: {path}", f"dimension: {case['dim']}",
                f"rays: {case['rays']}", f"maximal cones: {case['cones']}",
                "simplicial: yes", f"smooth: {yes[case['smooth']]}",
                f"complete: {yes[case['complete']]}"]
    if lines[:-1] != expected or not lines[-1].startswith("fibration covector: "):
        return "fan check output differs from the generated fan"
    covector = lines[-1][len("fibration covector: "):]
    if covector == "none":
        # every generated fan fibres over P^1 through a base coordinate
        return "no fibration reported"
    fan = json.loads(case["text"])
    m = tuple(int(x) for x in covector.strip("()").split(","))
    if len(m) != case["dim"] or math.gcd(*m) != 1 or not _one_signed(m, fan["rays"], fan["cones"]):
        return f"covector {m} is not one-signed on every cone"
    return None


# ---------------------------------------------------------------------------
# substitution cases
# ---------------------------------------------------------------------------


def _random_factor(rng: random.Random, exponents) -> dict:
    return {e: Fraction(rng.choice([n for n in range(-8, 9) if n]), rng.randint(1, 8))
            for e in exponents}


def _image_point(t: Fraction, w: Fraction) -> tuple | None:
    if 1 + w == 0 or 1 - t * w == 0:
        return None
    return (t * t - w) / (1 + w), w * t / (1 - t * w)


def _eval_terms(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        v = Fraction(c)
        for x, e in zip(point, exps):
            v *= x ** e
        total += v
    return total


def make_substitute_cases(seed: int, count: int = SUBSTITUTE_CASES) -> list:
    """Seeded coefficients for the pinned two-term factor shapes in x, y, and
    a rational point (t, w) at which neither image denominator vanishes."""
    rng = random.Random(f"substitute:{seed}")
    cases = []
    while len(cases) < count:
        p_exps, q_exps = SUBSTITUTE_SHAPES[len(cases) % len(SUBSTITUTE_SHAPES)]
        p, q = _random_factor(rng, p_exps), _random_factor(rng, q_exps)
        while True:
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            w = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if _image_point(t, w) is not None:
                break
        cases.append({"p": p, "q": q, "t": t, "w": w})
    return cases


def substitute_images(exactcore) -> dict:
    """x -> (t^2 - w)/(1 + w), y -> w t/(1 - t w), as in the tier-1 test."""
    Polynomial, RationalFunction = exactcore.Polynomial, exactcore.RationalFunction
    tw = ("t", "w")
    t = Polynomial.variable("t", tw)
    w = Polynomial.variable("w", tw)
    one = Polynomial.constant(tw, Fraction(1))
    return {"x": RationalFunction(t * t - w, one + w),
            "y": RationalFunction(w * t, one - t * w)}


def substitute_op(exactcore, images: dict, case: dict) -> tuple:
    """The timed operation: sigma(pq), sigma(p) sigma(q) and their equality."""
    Polynomial = exactcore.Polynomial
    p = Polynomial(("x", "y"), case["p"])
    q = Polynomial(("x", "y"), case["q"])
    lhs = exactcore.poly_substitute(p * q, images)
    rhs = exactcore.poly_substitute(p, images) * exactcore.poly_substitute(q, images)
    return lhs, rhs, lhs == rhs


def check_substitute(case: dict, result: tuple) -> str | None:
    lhs, rhs, equal = result
    if not equal:
        return "sigma(pq) != sigma(p) sigma(q)"
    t, w = case["t"], case["w"]
    direct = _eval_terms(case["p"], _image_point(t, w)) * _eval_terms(case["q"], _image_point(t, w))
    for rf in (lhs, rhs):
        den = _eval_terms(rf.den.terms, (t, w))
        if den == 0:
            return "denominator vanishes at the check point"
        if _eval_terms(rf.num.terms, (t, w)) / den != direct:
            return "value at the check point differs from direct evaluation"
    return None


def substitute_shape(cases: list) -> dict:
    hist: dict = {}
    for c in cases:
        key = f"{len(c['p'])}x{len(c['q'])}"
        hist[key] = hist.get(key, 0) + 1
    return {"cases": len(cases), "factor_terms_histogram": hist,
            "factor_exponents": [[list(map(list, p)), list(map(list, q))]
                                 for p, q in SUBSTITUTE_SHAPES]}
