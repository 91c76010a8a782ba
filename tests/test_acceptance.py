"""Acceptance criteria, one test per criterion.

Each test is named test_criterion_NN so the conftest plugin folds the
results into one PASS/FAIL line per criterion at the end of the run.

Criteria 01 and 05 assert published reference values verbatim.  The exact
recomputation contradicts those values, so the two tests fail; the
certificate suites carry the same discrepancies as flagged certificates
with both numbers recorded.  The module tests under tests/ pin the
recomputed values and stay green.
"""

import json
import random
import time

import pytest

from certkit import certify_cli as cli
from certkit import exactcore, hodge, numerology, schubert, toric, veronese
from certkit.exactcore import poly_from_string_exps
from certkit.schubert import (
    SchubertElement,
    degree,
    mul,
    mul_via_pieri,
    v5_separability_details,
)
from fractions import Fraction


# ---------------------------------------------------------------------------
# criterion 01: twisted cotangent degree certificate, published values
# ---------------------------------------------------------------------------


def test_criterion_01_twisted_cotangent_goldens():
    start = time.perf_counter()
    details = v5_separability_details()

    # cotangent character of the ambient sixfold
    # (a class is one Polynomial; weight_vector reads its weight-w part on
    # WEIGHT_BASES: s1; s1^2, s11, s2; s1^3, s1*s11, s1*s2, s3)
    cot = details.cotangent_character
    assert cot.terms[(0, 0, 0, 0)] == 6
    assert schubert.weight_vector(cot, 1) == (-5,)
    assert schubert.weight_vector(cot, 2) == (Fraction(7, 2), -3, -2)
    assert schubert.weight_vector(cot, 3) == (Fraction(-11, 6), Fraction(5, 2), 2, -1)

    # low Chern classes of the twisted bundle
    assert schubert.weight_vector(details.chern, 1) == (7,)
    assert schubert.weight_vector(details.chern, 2) == (19, 3, 2)

    # restriction bookkeeping and the intersection table
    assert details.restriction_coefficients == (-10, 6, -3, 1)
    assert details.degree_table == (5, 2, 3, 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # published top Chern class and published degree
    assert schubert.weight_vector(details.chern, 3) == (145, 14, 10, -2)
    assert details.value == 620


# ---------------------------------------------------------------------------
# criterion 02: ring axioms against the iterated-Pieri oracle
# ---------------------------------------------------------------------------


def _box_partitions(n):
    width = n - 2
    return [(a, b) for a in range(width + 1) for b in range(a + 1)]


def _random_element(rng, n=5):
    coeffs = {}
    for lam in rng.sample(_box_partitions(n), 3):
        coeffs[lam] = rng.randint(-3, 3)
    return SchubertElement(n, coeffs)


def test_criterion_02_ring_against_pieri_oracle():
    parts = _box_partitions(5)

    for lam in parts:
        for mu in parts:
            x = SchubertElement(5, {lam: 1})
            y = SchubertElement(5, {mu: 1})
            assert mul(x, y) == mul_via_pieri(x, y)

    for a, b in parts:
        lam = SchubertElement(5, {(a, b): 1})
        comp = SchubertElement(5, {(3 - b, 3 - a): 1})
        assert degree(mul(lam, comp)) == 1

    rng = random.Random("acceptance:associativity")
    for _ in range(1000):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


# ---------------------------------------------------------------------------
# criterion 03: scroll surfaces and the two bundle pipelines
# ---------------------------------------------------------------------------


def _pipeline_facts(base, lift):
    bundle = toric.build_p1_bundle_fan(base, lift)
    contracted = toric.contract_ray(bundle, len(base.rays) + 1)
    facts = {}
    for fan in toric.enumerate_qfactorializations(contracted):
        split = [c for c in fan.maximal_cones if 4 not in c]
        diagonal = tuple(sorted(set(split[0]) & set(split[1])))
        key = f"v{diagonal[0] + 1}v{diagonal[1] + 1}"
        facts[key] = {
            "smooth": toric.fan_is_smooth(fan),
            "multiplicities": sorted(toric.cone_is_smooth(fan, c)[1]
                                     for c in split),
            "fibration": toric.fibration_to_p1(fan),
        }
    return facts


def test_criterion_03_toric_goldens():
    start = time.perf_counter()

    s14 = toric.hirzebruch_fan(3)
    s23 = toric.hirzebruch_fan(1)
    assert toric.surface_self_intersections(s14) == (0, -3, 0, 3)
    assert toric.surface_self_intersections(s23) == (0, -1, 0, 1)

    facts14 = _pipeline_facts(s14, (1, 0, 0, 1))
    assert set(facts14) == {"v1v3", "v2v4"}
    assert facts14["v1v3"]["smooth"] is False
    assert max(facts14["v1v3"]["multiplicities"]) == 4
    assert facts14["v2v4"]["smooth"] is True
    assert facts14["v2v4"]["fibration"] == (1, 0, 0)

    facts23 = _pipeline_facts(s23, (2, 0, 0, 1))
    assert facts23["v2v4"]["smooth"] is True
    assert facts23["v2v4"]["fibration"] == (1, 0, 0)
    assert facts23["v1v3"]["smooth"] is False
    assert facts23["v1v3"]["multiplicities"] == [2, 3]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # the labeling discrepancy is carried as a flagged certificate
    report = cli.run_suite("toric")
    by_id = {c.id: c for c in report.certificates}
    assert by_id["l023-labeling-inconsistency"].verdict == "flagged"


# ---------------------------------------------------------------------------
# criterion 04: Noether check and principal-divisor pairings
# ---------------------------------------------------------------------------


def test_criterion_04_noether_and_principal_divisors():
    built = [toric.projective_plane_fan()] + \
        [toric.hirzebruch_fan(k) for k in range(4)]
    for fan in built:
        total = sum(toric.surface_self_intersections(fan))
        assert total + 3 * len(fan.rays) == 12

    rng = random.Random("acceptance:noether")
    for _ in range(50):
        fan = toric.hirzebruch_fan(rng.randrange(4))
        for _ in range(rng.randrange(1, 5)):
            cone = fan.maximal_cones[rng.randrange(len(fan.maximal_cones))]
            fan = toric.blow_up_surface(fan, cone)
        total = sum(toric.surface_self_intersections(fan))
        assert total + 3 * len(fan.rays) == 12

    s14 = toric.hirzebruch_fan(3)
    for m in ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)):
        div = toric.principal_divisor(s14, m)
        assert toric.divisor_pairings(s14, div) == (0,) * len(s14.rays)


# ---------------------------------------------------------------------------
# criterion 05: Veronese projection kernel, published claims
# ---------------------------------------------------------------------------


def test_criterion_05_projection_kernel():
    start = time.perf_counter()

    expected_gens = [
        poly_from_string_exps(veronese.P5_VARS, {k: Fraction(v)
                                                 for k, v in data.items()})
        for data in (
            {"x*y": 1, "u^2": -1},
            {"y*z": 1, "s^2": -1},
            {"x*z": 1, "t^2": -1},
            {"x*s": 1, "t*u": -1},
            {"y*t": 1, "s*u": -1},
            {"z*u": 1, "s*t": -1},
        )
    ]
    assert veronese.veronese_ideal() == expected_gens
    assert veronese.secant_cubic_matches_determinant()

    pencil = veronese.quadric_pencil_singularity_certificate()
    assert pencil.partials_zero and pencil.value_zero
    assert pencil.singular_for_all

    cert = veronese.projection_kernel_certificate(6)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    # published claims: both quadrics lie in the projection kernel and the
    # quotient dimension count closes at every degree up to the bound
    assert cert.membership_all
    assert cert.identity_all


# ---------------------------------------------------------------------------
# criterion 06: smooth-conic search against the exhaustive oracle
# ---------------------------------------------------------------------------


def test_criterion_06_conic_search_oracle():
    start = time.perf_counter()
    for field_name, field in (("f2", exactcore.F2_ELEMENTS),
                              ("f4", exactcore.F4_ELEMENTS)):
        rng = random.Random(f"acceptance:conics:{field_name}")
        order = len(field)
        for _ in range(500):
            while True:
                rows = [veronese.QuadraticForm3(
                    tuple(field[rng.randrange(order)] for _ in range(6)))
                    for _ in range(4)]
                try:
                    sub = veronese.ConicSubspace(rows)
                    break
                except ValueError:
                    continue
            res = veronese.find_smooth_conic_details(sub)
            oracle = veronese.exhaustive_smooth_conic(sub)
            assert (res.form is None) == (oracle is None)
            if res.form is not None:
                assert veronese.is_smooth_conic(res.form)
                assert cli._combo_matches(res, sub)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 07: twisted two-forms on projective three-space
# ---------------------------------------------------------------------------


def test_criterion_07_twisted_two_forms():
    cert = hodge.omega2_p3_certificate()
    assert cert.kernel_dim == 4
    assert cert.basis_independent and cert.basis_in_kernel
    assert cert.blockwise_count == 4
    assert (cert.source_dim, cert.target_dim, cert.rank) == (24, 40, 20)

    quartic = [poly_from_string_exps(hodge.CURVE_VARS, {k: Fraction(1)})
               for k in ("s^4", "s^3*t", "s*t^3", "t^4")]
    assert hodge.omega2_vanishing_on_curve(quartic) == 0

    for n in range(1, 5):
        for p in range(n + 1):
            for d in range(-6, 7):
                assert hodge.h0_omega_p(p, d, n) == hodge.bott_h0(p, d, n)


# ---------------------------------------------------------------------------
# criterion 08: complete-intersection Hodge diamonds
# ---------------------------------------------------------------------------


def test_criterion_08_ci_diamonds():
    cis = {
        "quadric": hodge.CIData(4, (2,)),
        "cubic": hodge.CIData(4, (3,)),
        "quartic": hodge.CIData(4, (4,)),
        "ci23": hodge.CIData(5, (2, 3)),
        "ci222": hodge.CIData(6, (2, 2, 2)),
    }
    diamonds = {name: hodge.ci_hodge_diamond(ci) for name, ci in cis.items()}

    assert (diamonds["cubic"].h(1, 1), diamonds["cubic"].h(1, 2)) == (1, 5)
    assert (diamonds["quartic"].h(1, 1), diamonds["quartic"].h(1, 2)) == (1, 30)

    for ci in cis.values():
        assert hodge.chi_omega1_ci(ci) == hodge.chi_omega1_ci_koszul(ci)

    for d in diamonds.values():
        for p in range(4):
            for q in range(4):
                assert d.h(p, q) == d.h(3 - p, 3 - q)
        for j in (1, 2, 3):
            assert d.h(0, j) == 0


# ---------------------------------------------------------------------------
# criterion 09: numerology pins
# ---------------------------------------------------------------------------


def test_criterion_09_numerology_pins():
    assert numerology.p_divisibility_solutions(7, 12, excluded={11}) == {
        numerology.DivisibilitySolution(2, 9, 2),
        numerology.DivisibilitySolution(3, 10, 1),
    }
    assert numerology.scroll_splittings(5) == {(1, 4), (2, 3)}
    assert numerology.g10_obstruction() == (16, True)
    assert numerology.delta_genus(3, 5, 8) == 0
    assert numerology.admissible_projection_degrees() == (1,)


# ---------------------------------------------------------------------------
# criterion 10: full run determinism
# ---------------------------------------------------------------------------


def test_criterion_10_run_determinism(capsys):
    start = time.perf_counter()

    assert cli.main(["run", "all", "--seed", "0", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "all", "--seed", "0", "--format", "json"]) == 0
    second = capsys.readouterr().out

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    assert first == second
    data = json.loads(first)
    assert data["summary"]["fail"] == "0"
    assert data["summary"]["total"] == "94"
