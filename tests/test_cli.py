"""Certificate suite runner: encoding, report schema, determinism, pinned
verdicts, and the command-line entry point."""

import enum
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from certkit import certify_cli as cli
from certkit import toric

DATA = pathlib.Path(__file__).parent / "data"
ROOT = DATA.parent.parent

_digest_spec = importlib.util.spec_from_file_location(
    "output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_digest_spec)
_digest_spec.loader.exec_module(output_digest)


FLAGGED_IDS = frozenset({
    "c3-omega-v5-twist",
    "coefficient-vector-v5",
    "conic-case-split-regression",
    "l014-base-ray-note",
    "l023-labeling-inconsistency",
    "projection-identity-claim",
    "projection-member-s2-tu",
    "quotient-hilbert-claim",
    "twisted-c3-v5",
})

SUITE_SIZES = {
    "schubert": 16,
    "toric": 22,
    "veronese": 25,
    "hodge": 18,
    "numerology": 13,
}


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------


class _Color(enum.Enum):
    RED = "Red"


def test_encode_value_scalars():
    assert cli.encode_value(True) is True
    assert cli.encode_value(False) is False
    assert cli.encode_value(5) == "5"
    assert cli.encode_value(-3) == "-3"
    assert cli.encode_value(Fraction(7, 2)) == "7/2"
    assert cli.encode_value(Fraction(4, 2)) == "2"
    assert cli.encode_value("x") == "x"
    assert cli.encode_value(None) is None
    assert cli.encode_value(_Color.RED) == "Red"


def test_encode_value_containers():
    assert cli.encode_value((1, 2)) == ["1", "2"]
    assert cli.encode_value([Fraction(1, 3)]) == ["1/3"]
    assert cli.encode_value({2: 1, 1: 2}) == {"1": "2", "2": "1"}
    assert list(cli.encode_value({"b": 0, "a": 1})) == ["a", "b"]


def test_encode_value_bool_not_collapsed_to_int():
    # bool is an int subclass; the encoder must branch on bool first
    assert cli.encode_value([True, 1]) == [True, "1"]


def test_encode_value_rejects_unknown_types():
    with pytest.raises(TypeError, match="value not encodable"):
        cli.encode_value(object())


@pytest.mark.parametrize("value", [{3, 1, 2}, frozenset({1}), [1, {2}]])
def test_encode_value_rejects_sets(value):
    # no computed value is a set, so a set has no encoding of its own
    with pytest.raises(TypeError, match="value not encodable: (set|frozenset)"):
        cli.encode_value(value)


def test_make_certificate_verdicts():
    ok = cli.make_certificate("a", "d", "trivial", 1, 1)
    assert ok.verdict == "pass"
    bad = cli.make_certificate("a", "d", "derived", 1, 2)
    assert bad.verdict == "fail"
    flagged = cli.make_certificate("a", "d", "published", 1, 2, discrepancy=2)
    assert flagged.verdict == "flagged"
    # the flag only fires on a mismatch
    agree = cli.make_certificate("a", "d", "published", 1, 1, discrepancy=2)
    assert agree.verdict == "pass"
    # and only for the recorded discrepancy: any other value fails
    drifted = cli.make_certificate("a", "d", "published", 1, 3, discrepancy=2)
    assert drifted.verdict == "fail"


def test_make_certificate_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown provenance tag"):
        cli.make_certificate("a", "d", "guessed", 1, 1)


# ---------------------------------------------------------------------------
# suite runs and report schema
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def all_report():
    return cli.run_suite("all")


def test_run_all_counts(all_report):
    counts = all_report.counts()
    assert counts == {"pass": 85, "fail": 0, "flagged": 9}
    assert len(all_report.certificates) == 94


def test_run_all_flagged_ids_frozen(all_report):
    flagged = {c.id for c in all_report.certificates if c.verdict == "flagged"}
    assert flagged == FLAGGED_IDS


def test_suite_sizes():
    for name, size in SUITE_SIZES.items():
        assert len(cli.run_suite(name).certificates) == size
    assert sum(SUITE_SIZES.values()) == 94


def test_certificates_sorted_and_unique(all_report):
    ids = [c.id for c in all_report.certificates]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        cli.run_suite("spectral")


def test_run_suite_rejects_duplicate_ids(monkeypatch):
    claims = cli._CLAIMS["numerology"]
    monkeypatch.setitem(cli._CLAIMS, "numerology", claims + claims[:1])
    with pytest.raises(ValueError, match="duplicate certificate id"):
        cli.run_suite("numerology")


@pytest.mark.parametrize("suite", ["numerology", "all"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_run_suite_rejects_values_that_differ_from_the_claims(monkeypatch, suite, change):
    real = cli._COMPUTE["numerology"]

    def compute(config):
        values = real(config)
        if change == "missing":
            del values["scroll-degree"]
        else:
            values["scroll-degree-six"] = 6
        return values

    cert_id = "scroll-degree" if change == "missing" else "scroll-degree-six"
    monkeypatch.setitem(cli._COMPUTE, "numerology", compute)
    with pytest.raises(ValueError, match=f"suite numerology: .* id: {cert_id}$"):
        cli.run_suite(suite)


def test_pinned_published_discrepancy(all_report):
    by_id = {c.id: c for c in all_report.certificates}
    twist = by_id["c3-omega-v5-twist"]
    assert twist.provenance == "published"
    assert twist.verdict == "flagged"
    assert cli.encode_value(twist.expected) == "620"
    assert cli.encode_value(twist.computed) == "20"


def test_drifted_flagged_value_fails_the_run(monkeypatch, capsys):
    # a flagged certificate whose computed value moves off the recorded
    # discrepancy (20 against the published 620) must fail, not stay flagged
    real = cli.schubert.v5_separability_details
    monkeypatch.setattr(cli.schubert, "v5_separability_details",
                        lambda: real()._replace(value=21))
    assert cli.main(["run", "schubert"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL   ] c3-omega-v5-twist\n" in out
    assert "flagged=2 " in out


def test_drifted_conic_scan_fails_the_case_split_regression(monkeypatch, capsys):
    # a point scan that calls every conic smooth would turn the recorded
    # discrepancy (the printed member is singular) into a silent pass; the
    # closed form disagrees with it, so the certificate fails
    monkeypatch.setattr(cli.veronese, "_smooth", lambda form, points: True)
    assert cli.main(["run", "veronese"]) == 1
    assert "[FAIL   ] conic-case-split-regression\n" in capsys.readouterr().out


def _failed_ids(out: str) -> set:
    return {line.split("] ", 1)[1] for line in out.splitlines()
            if line.startswith("[FAIL   ] ")}


def test_split_failing_on_f4_fails_the_oracle_agreement(monkeypatch, capsys):
    # a case split broken only on systems with an F4 entry leaves the F2
    # sweep and the recorded span alone; the seeded F4 trials must catch it,
    # which they cannot when the search mends the split with the oracle's scan
    real = cli.veronese._case_split
    monkeypatch.setattr(cli.veronese, "_case_split",
                        lambda rows: None if any(c > 1 for r in rows for c in r) else real(rows))
    assert cli.main(["run", "veronese"]) == 1
    assert _failed_ids(capsys.readouterr().out) == {"conic-seeded-oracle-agreement"}


def test_split_failing_everywhere_fails_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(cli.veronese, "_case_split", lambda rows: None)
    assert cli.main(["run", "veronese"]) == 1
    assert _failed_ids(capsys.readouterr().out) == {
        "conic-subspaces-f2-sweep", "conic-path-histogram-f2",
        "conic-seeded-oracle-agreement", "conic-case-split-corrected"}


# each case drifts the kernel that one grid or seeded check reads, so that
# the check's `return False` runs: suite, certificate, module, kernel, and the
# drifted kernel made from the real one
DRIFTED_KERNELS = {
    "pieri": ("schubert", "mul-pieri-agreement-gr25", "schubert", "mul_via_pieri",
              lambda real: lambda x, y: real(x, y) + x),
    "degree": ("schubert", "duality-pairing-gr25", "schubert", "degree",
               lambda real: lambda x: real(x) + 1),
    # not associative on Gr(2, 6), which only the seeded trials use
    "associativity": ("schubert", "associativity-seeded", "schubert", "mul",
                      lambda real: lambda x, y: real(x, y) + x if x.n == 6 else real(x, y)),
    "noether-fixed": ("toric", "noether-smooth-surfaces", "toric", "noether_number",
                      lambda real: lambda fan: 13),
    # wrong on the blown-up surfaces only, which have more than four rays
    "noether-blowups": ("toric", "noether-smooth-surfaces", "toric", "noether_number",
                        lambda real: lambda fan: real(fan) + (len(fan.rays) > 4)),
    "veronese-map": ("veronese", "veronese-map-membership-seeded", "veronese", "veronese_map",
                     lambda real: lambda pt: (real(pt)[0] + 1, *real(pt)[1:])),
    "secant-stratum": ("veronese", "veronese-map-membership-seeded", "veronese",
                       "secant_stratum",
                       lambda real: lambda pt: cli.veronese.SecantStratum.GENERIC),
    "bott": ("hodge", "bott-grid-agreement", "hodge", "bott_h0",
             lambda real: lambda p, d, n: real(p, d, n) + 1),
}


@pytest.mark.parametrize("case", sorted(DRIFTED_KERNELS))
def test_drifted_kernel_fails_its_check(monkeypatch, capsys, case):
    suite, cert_id, module, name, drift = DRIFTED_KERNELS[case]
    module = getattr(cli, module)
    monkeypatch.setattr(module, name, drift(getattr(module, name)))
    assert cli.main(["run", suite]) == 1
    assert cert_id in _failed_ids(capsys.readouterr().out)


def test_pinned_diagonal_certificates(all_report):
    by_id = {c.id: c for c in all_report.certificates}
    smooth = by_id["l014-delta1-smooth"]
    assert smooth.verdict == "pass"
    assert smooth.expected is False and smooth.computed is False

    labeling = by_id["l023-labeling-inconsistency"]
    assert labeling.verdict == "flagged"
    assert set(labeling.expected) == set(labeling.computed)
    assert labeling.expected != labeling.computed


def test_report_schema_valid(all_report):
    data = cli.report_to_dict(all_report)
    assert data["suite"] == "all"
    assert data["seed"] == "0"
    assert data["summary"] == {
        "total": "94", "pass": "85", "flagged": "9", "fail": "0",
    }
    for cert in data["certificates"]:
        assert set(cert) == {"id", "description", "expected", "computed",
                             "verdict"}
        assert set(cert["expected"]) == {"provenance", "value"}


def test_validate_rejects_untagged_expectation():
    data = {
        "certificates": [{"id": "x", "expected": "5", "verdict": "pass"}],
        "summary": {"total": "1", "pass": "1", "flagged": "0", "fail": "0"},
    }
    with pytest.raises(ValueError, match="untagged expectation"):
        cli.validate_report_data(data)


def test_validate_rejects_unknown_tag():
    data = {
        "certificates": [{
            "id": "x",
            "expected": {"provenance": "hearsay", "value": "5"},
            "verdict": "pass",
        }],
        "summary": {"total": "1", "pass": "1", "flagged": "0", "fail": "0"},
    }
    with pytest.raises(ValueError, match="unknown provenance tag"):
        cli.validate_report_data(data)


def test_validate_rejects_unknown_verdict():
    data = {
        "certificates": [{
            "id": "x",
            "expected": {"provenance": "trivial", "value": "5"},
            "verdict": "maybe",
        }],
        "summary": {"total": "1", "pass": "1", "flagged": "0", "fail": "0"},
    }
    with pytest.raises(ValueError, match="unknown verdict"):
        cli.validate_report_data(data)


def test_validate_rejects_inconsistent_summary():
    data = {
        "certificates": [{
            "id": "x",
            "expected": {"provenance": "trivial", "value": "5"},
            "verdict": "pass",
        }],
        "summary": {"total": "2", "pass": "2", "flagged": "0", "fail": "0"},
    }
    with pytest.raises(ValueError, match="summary counts inconsistent"):
        cli.validate_report_data(data)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_render_json_byte_identical():
    first = cli.render_json(cli.run_suite("all"))
    second = cli.render_json(cli.run_suite("all"))
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


def test_per_suite_determinism():
    for name in SUITE_SIZES:
        assert cli.render_json(cli.run_suite(name)) == \
            cli.render_json(cli.run_suite(name))


def test_seed_echoed_but_not_in_config_block(all_report):
    data = cli.report_to_dict(all_report)
    assert "seed" not in data["config"]
    assert data["config"]["trials"] == "500"
    assert data["config"]["excluded_genus"] == ["11"]


def test_render_text_layout(all_report):
    text = cli.render_text(cli.run_suite("numerology"))
    lines = text.splitlines()
    assert lines[0] == "suite: numerology"
    assert lines[1] == "seed: 0"
    assert lines[2].startswith("config: ")
    assert lines[3].startswith("summary: total=13 pass=")
    assert any(line.startswith("[PASS   ] ") for line in lines)
    assert any("expected (derived): " in line for line in lines)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _checkout_env() -> dict:
    """The environment with this checkout's certkit first on the path."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _certify_subprocess(argv, **kwargs):
    """`python -m certkit.certify_cli *argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "certkit.certify_cli", *argv],
                          capture_output=True, env=_checkout_env(), **kwargs)


def _main_inprocess(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_run_all_exits_zero(capsys):
    assert cli.main(["run", "all"]) == 0
    out = capsys.readouterr().out
    assert "summary: total=94 pass=85 flagged=9 fail=0" in out


def test_main_run_json_format(capsys):
    assert cli.main(["run", "numerology", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "numerology"
    assert data["summary"]["fail"] == "0"


def test_main_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["run", "numerology", "--format", "json",
                     "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["summary"]["total"] == "13"


def test_main_out_unwritable_exits_two(tmp_path, capsys):
    """Exit 1 means a certificate failed; a report that cannot be written is
    a usage error, reported like a fan file that cannot be read."""
    target = tmp_path / "no_such_dir" / "report.json"
    assert cli.main(["run", "numerology", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not target.exists()


def test_low_degree_bound_computes_each_kernel_dimension_once(monkeypatch):
    """Below bound 6 one kernel run to degree 6 serves both the identity
    claim and the six reported rows; only the principal run adds calls."""
    calls = []
    real = cli.veronese.ideal_graded_dimension

    def counting(generators, d):
        calls.append((tuple(repr(g) for g in generators), d))
        return real(generators, d)

    monkeypatch.setattr(cli.veronese, "ideal_graded_dimension", counting)
    cli.run_suite("veronese", cli.RunConfig(trials=0, degree_bound=2))
    assert len(calls) == 8
    assert len(set(calls)) == len(calls)


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "mystery"])
    assert exc.value.code == 2


def test_main_rejects_bad_knobs():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "all", "--trials", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "all", "--degree-bound", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("kwargs, match", [
    ({"degree_bound": 1}, "--degree-bound must be at least 2"),
    ({"degree_bound": cli.MAX_DEGREE_BOUND + 1}, "--degree-bound must be at most"),
    ({"trials": -3}, "--trials must be nonnegative"),
    ({"trials": cli.MAX_TRIALS + 1}, "--trials must be at most"),
    ({"degree_bound": True}, "--degree-bound must be an integer"),
    ({"trials": 5.0}, "--trials must be an integer"),
    ({"seed": False}, "--seed must be an integer"),
], ids=["bound-low", "bound-high", "trials-negative", "trials-high",
        "bound-bool", "trials-float", "seed-bool"])
def test_run_config_rejects_bad_settings(kwargs, match):
    # RunConfig(degree_bound=1, trials=-3) echoed those settings in the
    # veronese report but ran at bound 2 with no trials
    with pytest.raises(ValueError, match=match):
        cli.RunConfig(**kwargs)


@pytest.mark.parametrize("flag, cap", [("--trials", cli.MAX_TRIALS),
                                       ("--degree-bound", cli.MAX_DEGREE_BOUND)])
def test_main_caps_run_inputs(flag, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "numerology", flag, str(cap + 1)])
    assert exc.value.code == 2
    assert f"{flag} must be at most {cap}" in capsys.readouterr().err
    # the cap itself is accepted
    assert cli.main(["run", "numerology", flag, str(cap)]) == 0


def test_main_seed_changes_echo(capsys):
    assert cli.main(["run", "numerology", "--seed", "7"]) == 0
    assert "seed: 7" in capsys.readouterr().out


def test_fan_check_bundle_file(capsys):
    assert cli.main(["fan", "check", str(DATA / "bundle_fan_s14.json")]) == 0
    out = capsys.readouterr().out
    assert "dimension: 3" in out
    assert "rays: 6" in out
    assert "maximal cones: 8" in out
    assert "simplicial: yes" in out
    assert "smooth: yes" in out
    assert "complete: yes" in out
    assert "fibration covector: (1, 0, 0)" in out


def test_fan_check_plane_has_no_fibration(capsys):
    assert cli.main(["fan", "check", str(DATA / "p2.json")]) == 0
    out = capsys.readouterr().out
    assert "fibration covector: none" in out
    assert "complete: yes" in out


def test_fan_check_two_ray_cone_is_not_complete(capsys):
    # a maximal cone with fewer than dim rays is not full-dimensional, so
    # the fan is not complete
    assert cli.main(["fan", "check", str(DATA / "two_ray_cone.json")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "smooth: yes" in captured.out
    assert "complete: no" in captured.out
    assert "fibration covector: (0, 1, 0)" in captured.out


def test_fan_check_bad_ray(capsys):
    assert cli.main(["fan", "check", str(DATA / "bad_ray.json")]) == 2
    err = capsys.readouterr().err
    assert "error: ray not primitive: [2, 0, 0]" in err


def test_fan_check_rejects_boolean_coordinates(capsys):
    assert cli.main(["fan", "check", str(DATA / "bool_ray.json")]) == 2
    err = capsys.readouterr().err
    assert "error: ray entries must be integers: [True, False]" in err


def test_fan_check_rejects_repeated_cone_index(capsys):
    assert cli.main(["fan", "check", str(DATA / "dup_cone_index.json")]) == 2
    err = capsys.readouterr().err
    assert "error: cone lists a ray index twice: [0, 1, 1]" in err


# exit code and stdout of `fan check` on each fan file in tests/data, as
# recorded before `Fan` took over the loader's value checks; stdout's first
# line, which names the file, is left out
FAN_CHECK_GOLDEN = {
    "bad_ray.json": (2, None),
    "bool_ray.json": (2, None),
    "bundle_fan_s14.json": (0, ["dimension: 3", "rays: 6", "maximal cones: 8",
                                "simplicial: yes", "smooth: yes", "complete: yes",
                                "fibration covector: (1, 0, 0)"]),
    # the four triangles on a square cover the cone over it twice and miss
    # (0, 0, -1): not complete, and not a fan either; this golden records
    # the output until pairwise separation rejects the file
    "double_cover_cone.json": (0, ["dimension: 3", "rays: 4", "maximal cones: 4",
                                   "simplicial: yes", "smooth: no", "complete: no",
                                   "fibration covector: (0, 0, 1)"]),
    "dup_cone_index.json": (2, None),
    # two cones whose interiors share (0, 0, 1), neither holding a ray of the
    # other: accepted today, though not a fan; this golden records that
    # output until pairwise separation rejects the file
    "overlapping_cones.json": (0, ["dimension: 3", "rays: 6", "maximal cones: 2",
                                   "simplicial: yes", "smooth: no", "complete: no",
                                   "fibration covector: (0, 0, 1)"]),
    "p2.json": (0, ["dimension: 2", "rays: 3", "maximal cones: 3", "simplicial: yes",
                    "smooth: yes", "complete: yes", "fibration covector: none"]),
    "two_ray_cone.json": (0, ["dimension: 3", "rays: 4", "maximal cones: 2",
                              "simplicial: yes", "smooth: yes", "complete: no",
                              "fibration covector: (0, 1, 0)"]),
}


def test_fan_check_matches_golden_on_every_data_file(capsys):
    """Every fan file in tests/data has a golden, and `fan check` prints it:
    a report on exit 0, nothing on stdout and one `error:` line on exit 2."""
    others = {"conic_witnesses.json", "report_all_seed0.json"}
    assert {p.name for p in DATA.glob("*.json")} - others == set(FAN_CHECK_GOLDEN)
    for name, (golden_code, lines) in FAN_CHECK_GOLDEN.items():
        path = str(DATA / name)
        code, out, err = _main_inprocess(["fan", "check", path], capsys)
        assert code == golden_code, name
        if code == 0:
            assert (out, err) == ("\n".join([f"fan file: {path}", *lines]) + "\n", ""), name
        else:
            assert out == "", name
            assert len(err.splitlines()) == 1 and err.startswith("error: "), name


def test_fan_check_missing_file(capsys):
    assert cli.main(["fan", "check", str(DATA / "no_such_fan.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_fan_check_over_nested_json_exits_two(tmp_path, capsys):
    """JSON nested deeper than the decoder's recursion limit is an unreadable
    fan file: exit 2 and one error line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["fan", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: fan file is not valid JSON")


def _one_cone_fan_file(path, rays):
    path.write_text(json.dumps({"dim": 3, "rays": rays, "cones": [list(range(len(rays)))]}))
    return str(path)


def test_fan_check_rejects_a_cone_of_too_many_rays(tmp_path, capsys):
    """One cone on the 40 extremal rays (k, k^2, 1) would take seconds to
    validate; the loader refuses it first, with one error line."""
    rays = [[k, k * k, 1] for k in range(1, 41)]
    code, out, err = _main_inprocess(
        ["fan", "check", _one_cone_fan_file(tmp_path / "wide.json", rays)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: cone has 40 rays, more than {toric.MAX_CONE_RAYS}"]


def test_fan_check_accepts_a_four_ray_cone(tmp_path, capsys):
    rays = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
    code, out, err = _main_inprocess(
        ["fan", "check", _one_cone_fan_file(tmp_path / "square.json", rays)], capsys)
    assert (code, err) == (0, "")
    assert "rays: 4" in out
    assert "simplicial: no" in out
    assert "complete: no" in out


# one malformed cone on the plane's three rays, and the one error line that
# `fan check` gives for it: the cone's size cap, then its entries, repeats
# and range, then too few rays, which the empty cone reaches with no range
@pytest.mark.parametrize("cone, message", [
    ("[]", "maximal cone with fewer than two rays"),
    ("[0]", "maximal cone with fewer than two rays"),
    ("[0, 0]", "cone lists a ray index twice: [0, 0]"),
    ("[-1, 0]", "cone index out of range"),
    ("[0, 3]", "cone index out of range"),
    ("[0, 5]", "cone index out of range"),
    ("[0, 1.0]", "cone indices must be integers: [0, 1.0]"),
    ("[true, 1]", "cone indices must be integers: [True, 1]"),
    (json.dumps(list(range(9))), f"cone has 9 rays, more than {toric.MAX_CONE_RAYS}"),
])
def test_fan_check_cone_index_errors(tmp_path, capsys, cone, message):
    path = tmp_path / "cone.json"
    path.write_text(f'{{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [{cone}]}}')
    code, out, err = _main_inprocess(["fan", "check", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("text, message", [
    # plain JSON decoding keeps the last "dim", and the 2-D rays then fail
    # with "ray length does not match dimension"
    ('{"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "dim": 3}',
     "repeated field 'dim'"),
    ('{"dim": 2, "rays": [[1, 0], [0, 1]], "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}',
     "repeated field 'rays'"),
    ('{"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "note": "P2 chart"}',
     "unknown field 'note'"),
    ('{"dim": 2, "Rays": [[1, 0], [0, 1]], "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}',
     "unknown field 'Rays'"),
])
def test_fan_check_rejects_repeated_and_unknown_fields(tmp_path, capsys, text, message):
    path = tmp_path / "fields.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _main_inprocess(["fan", "check", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_parser_reuse_leaks_no_state(tmp_path, capsys, monkeypatch):
    """One process, one parser, mixed commands: every call answers as a fresh
    process would, and one call's options never reach the next."""
    # argparse wraps usage lines to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    out_file = tmp_path / "numerology.txt"
    calls = [
        ["fan", "check", str(DATA / "p2.json")],
        ["run", "numerology", "--seed", "7", "--out", str(out_file)],
        ["fan", "check", str(DATA / "bad_ray.json")],
        ["run", "all", "--trials", "-1"],
        ["run", "numerology", "--format", "json"],
        ["fan", "check", str(DATA / "p2.json")],
    ]
    cli._build_parser.cache_clear()
    results = []
    for i, argv in enumerate(calls):
        results.append(_main_inprocess(argv, capsys))
        if i == 1:
            written = out_file.read_text(encoding="utf-8")
    assert cli._build_parser.cache_info().misses == 1

    assert [code for code, _, _ in results] == [0, 0, 2, 2, 0, 0]
    assert "seed: 7" in written and results[1][1] == ""
    # call 5 prints seed 0 to stdout and leaves call 2's file alone
    assert json.loads(results[4][1])["seed"] == "0"
    assert out_file.read_text(encoding="utf-8") == written
    assert results[5] == results[0]

    for argv, result in zip(calls, results):
        fresh = _certify_subprocess(argv, text=True)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if "--out" in argv:
            assert out_file.read_text(encoding="utf-8") == written


def test_import_builds_no_parser():
    """Importing the CLI module constructs no argparse parser; the first
    `main` call does."""
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import certkit.certify_cli as cli\n"
        "print(len(built), cli._build_parser.cache_info().misses)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         env=_checkout_env(), text=True, check=True).stdout
    assert out == "0 0\n"


@pytest.mark.parametrize("argv", output_digest.USAGE_LINES,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_leaf_and_full_parser_routes_answer_alike(argv, capsys, monkeypatch):
    """A line that starts with a leaf's command words answers through that
    leaf exactly as through the full parser, which is forced by emptying
    the leaf table."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    leaf_route = _main_inprocess(argv, capsys)
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert _main_inprocess(argv, capsys) == leaf_route


def test_leaf_lines_skip_the_full_parser(capsys, monkeypatch):
    parser, _ = cli._build_parser()
    parsed = []
    full_parse = parser.parse_known_args

    def spy(args=None, namespace=None):
        parsed.append(args)
        return full_parse(args, namespace)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    for argv in (["fan", "check", str(DATA / "p2.json")], ["run", "numerology"]):
        code, out, _ = _main_inprocess(argv, capsys)
        assert code == 0 and out
    assert parsed == []
    _main_inprocess(["run", "numerology", "extra"], capsys)
    assert parsed == [["run", "numerology", "extra"]]


def _break_fan(data: dict, kind: int):
    """Damage a fan dict in one of the ways the loader rejects."""
    rays, cones = data["rays"], data["cones"]
    if kind == 0:
        rays[-1] = [2 * x for x in rays[-1]]
    elif kind == 1:
        rays.append([a + b for a, b in zip(rays[cones[0][0]], rays[cones[0][1]])])
    elif kind == 2:
        cones.append(cones[0] if data["dim"] == 2 else cones[0][:2])
    elif kind == 3:
        cones[-1] = cones[-1] + cones[-1][:1]
    elif kind == 4:
        cones.append([0, len(rays)])
    elif kind == 5:
        rays[0] = [float(x) for x in rays[0]]
    else:
        data.pop("cones")


def _generated_fan_files(directory, count: int) -> list:
    """Seeded fan files from the toric constructors: blowup chains on a
    Hirzebruch surface or the plane, half of them under a P^1-bundle with
    twists in -3..3, and every fourth file broken by `_break_fan`."""
    rng = random.Random("fan-check-files")
    paths = []
    for n in range(count):
        k = rng.randint(-1, 4)
        base = toric.projective_plane_fan() if k < 0 else toric.hirzebruch_fan(k)
        for _ in range(rng.randint(0, 3)):
            base = toric.blow_up_surface(base, rng.choice(base.maximal_cones))
        fan = base
        if rng.random() < 0.5:
            fan = toric.build_p1_bundle_fan(base, [rng.randint(-3, 3) for _ in base.rays])
        data = fan.to_dict()
        if n % 4 == 3:
            _break_fan(data, n // 4 % 7)
        path = directory / f"fan{n:03d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths.append(path)
    return paths


def test_fan_check_main_matches_check_fan_on_generated_files(tmp_path, capsys):
    """`main` on many fan files in one process prints what `check_fan` and
    `render_fan_check` give for each file, or its error with exit code 2."""
    results = []
    for path in _generated_fan_files(tmp_path, 200):
        got = _main_inprocess(["fan", "check", str(path)], capsys)
        try:
            expected = (0, cli.render_fan_check(cli.check_fan(str(path))), "")
        except (OSError, ValueError) as e:
            expected = (2, "", f"error: {e}\n")
        assert got == expected, path
        results.append(got)
    assert sum(code == 2 for code, _, _ in results) == 50
    fibrations = {out.splitlines()[-1] for code, out, _ in results if code == 0}
    assert "fibration covector: none" in fibrations and len(fibrations) > 1


def test_degree_10_report_matches_recorded_sha256():
    """`run veronese --degree-bound 10` reproduces the report whose sha256
    the benchmark harness records in perfbench/golden.json."""
    argv = ["run", "veronese", "--degree-bound", "10", "--format", "json", "--seed", "0"]
    golden = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    expect = json.loads(golden.read_text())["reports"]["veronese-deep"]
    assert expect["argv"] == argv
    out = _certify_subprocess(argv, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == expect["sha256"]


@pytest.mark.parametrize("seed", [3, 7])
def test_run_all_other_seeds_change_only_the_seed_line(seed):
    committed = (DATA / "report_all_seed0.json").read_text(encoding="utf-8")
    expected = committed.replace('\n  "seed": "0",\n', f'\n  "seed": "{seed}",\n')
    assert expected.count(f'"seed": "{seed}"') == 1
    assert cli.render_json(cli.run_suite("all", cli.RunConfig(seed=seed))) == expected


def test_run_all_matches_committed_report():
    """A fresh process reproduces the committed seed-0 report byte for byte,
    so the report is pinned across versions, not only within one run."""
    out = _certify_subprocess(["run", "all", "--format", "json", "--seed", "0"],
                              check=True).stdout
    assert out == (DATA / "report_all_seed0.json").read_bytes()


def _state_sha256(rng: random.Random) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


def test_seeded_checks_make_the_recorded_draws():
    """Every seeded check passes, so the report cannot show a dropped or
    reordered draw; the generator's state after the checks can."""
    rng = random.Random("0:veronese")
    assert cli._conic_seeded_trials(rng, 500) == [True, True]
    assert _state_sha256(rng) == "759f706d0930b4fe011154ad8166c34edcc974ee909b80b02f66e52a48785bc2"
    assert cli._veronese_points_ok(rng, 500)
    assert _state_sha256(rng) == "9b79199cb46d6d4c83b93116a14e453f141147d449daf95653d14599c835c807"
    rng = random.Random("0:schubert")
    assert cli._associativity_ok(rng, 500)
    assert _state_sha256(rng) == "d1b2b5e2c164a160f0439015a9093cdd8d05fa78d7a28fe9044c9feea452404d"
