"""Certificate suites and the command-line runner.

Every headline computation in the library is packaged as a Certificate:
an identifier, a description, an expected value carrying a provenance
tag, the freshly recomputed value, and a verdict.  Values are compared
exactly after canonical encoding; nothing here is floating point.

Verdicts are "pass" when the values agree, "fail" when they do not, and
"flagged" for recorded discrepancies that the suite is expected to
exhibit.  A flagged certificate documents a mismatch between a published
value and the recomputation without failing the build; the exit code is
zero exactly when no certificate fails.
"""

from __future__ import annotations

import argparse
import enum
import functools
import itertools
import json
import random
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import hodge, numerology, schubert, toric, veronese
from .exactcore import Polynomial, poly_from_string_exps, span_dimension, spans_contain
from .veronese import ConicSubspace, QuadraticForm3

PROVENANCE_TAGS = ("published", "derived", "trivial")
VERDICTS = ("pass", "fail", "flagged")

# input caps for `certify run`: the kernel certificates' work grows fast with
# the degree bound (12 takes about a second end to end), and the seeded
# checks run in time linear in the trial count
MAX_DEGREE_BOUND = 12
MAX_TRIALS = 100_000

# the genus window of the divisibility survey and its excluded genus; the
# report echoes them with the run settings
GENUS_MIN = 7
GENUS_MAX = 12
EXCLUDED_GENUS = (11,)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite."""

    seed: int = 0
    trials: int = 500
    degree_bound: int = 6

    def echo(self) -> dict:
        return {
            "trials": self.trials,
            "degree_bound": self.degree_bound,
            "genus_min": GENUS_MIN,
            "genus_max": GENUS_MAX,
            "excluded_genus": list(EXCLUDED_GENUS),
        }


@dataclass(frozen=True)
class Certificate:
    id: str
    description: str
    provenance: str
    expected: object
    computed: object
    verdict: str


@dataclass(frozen=True)
class Report:
    suite: str
    certificates: tuple
    seed: int
    config: dict

    def counts(self) -> dict:
        out = {v: 0 for v in VERDICTS}
        for c in self.certificates:
            out[c.verdict] += 1
        return out


def encode_value(value):
    """Canonical JSON-safe encoding: integers and rationals become strings,
    so equality of encodings is exact arithmetic equality."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return value
    if value is None:
        return None
    if isinstance(value, enum.Enum):
        return encode_value(value.value)
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return [encode_value(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise TypeError(f"value not encodable: {type(value).__name__}")


def make_certificate(cert_id, description, provenance, expected, computed,
                     discrepancy=None) -> Certificate:
    """Verdict pass when computed equals expected.  A certificate with a
    recorded discrepancy (the value the exact recomputation gave against a
    published one) is flagged only when computed equals that discrepancy;
    any other mismatch fails."""
    if provenance not in PROVENANCE_TAGS:
        raise ValueError(f"unknown provenance tag: {provenance}")
    got = encode_value(computed)
    if encode_value(expected) == got:
        verdict = "pass"
    elif discrepancy is not None and encode_value(discrepancy) == got:
        verdict = "flagged"
    else:
        verdict = "fail"
    return Certificate(cert_id, description, provenance, expected, computed, verdict)


# ---------------------------------------------------------------------------
# value rendering helpers
# ---------------------------------------------------------------------------


def _render_poly(p: Polynomial) -> str:
    """Deterministic plain-text rendering, constant terms first, then
    graded-descending-lex monomial order."""
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    if not items:
        return "0"
    parts = []
    for exps, coeff in items:
        mono = "*".join(f"{v}^{k}" if k > 1 else v
                        for v, k in zip(p.variables, exps) if k)
        mag = abs(coeff)
        body = mono if mono else encode_value(mag)
        if mono and mag != 1:
            body = f"{encode_value(mag)}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _weight1(fc) -> Fraction:
    return fc.terms.get((1, 0, 0, 0), Fraction(0))


def _weight2(fc) -> list:
    return [fc.terms.get(e, Fraction(0))
            for e in ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))]


# ---------------------------------------------------------------------------
# suite: schubert
# ---------------------------------------------------------------------------


def _box_partitions(n: int) -> list:
    cap = n - 2
    return [(a, b) for a in range(cap + 1) for b in range(a + 1)]


def _mul_matches_pieri(n: int) -> bool:
    parts = _box_partitions(n)
    for lam in parts:
        x = schubert.SchubertElement.sigma(n, *lam)
        for mu in parts:
            y = schubert.SchubertElement.sigma(n, *mu)
            if schubert.mul(x, y) != schubert.mul_via_pieri(x, y):
                return False
    return True


def _duality_pairings_ok(n: int) -> bool:
    cap = n - 2
    for a, b in _box_partitions(n):
        x = schubert.SchubertElement.sigma(n, a, b)
        y = schubert.SchubertElement.sigma(n, cap - b, cap - a)
        if schubert.degree(schubert.mul(x, y)) != 1:
            return False
    return True


def _random_schubert_element(rng: random.Random, n: int) -> "schubert.SchubertElement":
    cap = n - 2
    coeffs = {}
    for _ in range(rng.randrange(1, 3)):
        a = rng.randrange(cap + 1)
        b = rng.randrange(a + 1)
        coeffs[(a, b)] = coeffs.get((a, b), 0) + rng.randrange(-3, 4)
    return schubert.SchubertElement(n, {k: Fraction(v) for k, v in coeffs.items() if v})


def _associativity_ok(rng: random.Random, trials: int) -> bool:
    for t in range(trials):
        n = 5 if t % 2 == 0 else 6
        x = _random_schubert_element(rng, n)
        y = _random_schubert_element(rng, n)
        z = _random_schubert_element(rng, n)
        if schubert.mul(schubert.mul(x, y), z) != schubert.mul(x, schubert.mul(y, z)):
            return False
    return True


def _suite_schubert(config: RunConfig) -> list:
    rng = random.Random(f"{config.seed}:schubert")
    det = schubert.v5_separability_details()
    ch = det.cotangent_character
    tw = det.chern
    c3_vector = list(schubert.weight3_vector(tw.classes[3]))
    certs = [
        make_certificate(
            "cotangent-ch1-v5",
            "Degree-one character part of the cotangent bundle of the Grassmannian "
            "of lines in projective four-space, as a multiple of the hyperplane class.",
            "published", Fraction(-5), _weight1(ch.ch1)),
        make_certificate(
            "cotangent-ch2-v5",
            "Degree-two character part of the same cotangent bundle, coefficients on "
            "the square of the hyperplane class and the two codimension-two classes.",
            "published", [Fraction(7, 2), -3, -2], _weight2(ch.ch2)),
        make_certificate(
            "cotangent-ch3-v5",
            "Degree-three character part, coefficients on the weight-three monomial basis.",
            "published", [Fraction(-11, 6), Fraction(5, 2), 2, -1],
            list(schubert.weight3_vector(ch.ch3))),
        make_certificate(
            "twisted-c1-v5",
            "First Chern class of the cotangent bundle twisted by three hyperplanes.",
            "published", 7, _weight1(tw.classes[1])),
        make_certificate(
            "twisted-c2-v5",
            "Second Chern class of the twisted cotangent bundle.",
            "published", [19, 3, 2], _weight2(tw.classes[2])),
        make_certificate(
            "twisted-c3-v5",
            "Third Chern class of the twisted cotangent bundle: published "
            "coefficient table against the exact recomputation.",
            "published", [145, 14, 10, -2], c3_vector,
            discrepancy=[25, 14, 10, -2]),
        make_certificate(
            "twisted-c3-v5-recomputed",
            "Third Chern class of the twisted cotangent bundle, recomputed "
            "coefficients frozen from the Chern-character route.",
            "derived", [25, 14, 10, -2], c3_vector),
        make_certificate(
            "degree-table-v5",
            "Degrees of the weight-three basis classes multiplied up to the top class.",
            "published", [5, 2, 3, 1], list(det.degree_table)),
        make_certificate(
            "restriction-coefficients-v5",
            "Coefficients of the hyperplane restriction relation used to push the "
            "third Chern class onto the weight-three basis.",
            "derived", [-10, 6, -3, 1], list(schubert.restriction_coefficients())),
        make_certificate(
            "coefficient-vector-v5",
            "Coefficient vector of the restricted third Chern class: published "
            "values against the exact recomputation.",
            "published", [120, 5, 4, -2], list(det.coefficient_vector),
            discrepancy=[0, 5, 4, -2]),
        make_certificate(
            "coefficient-vector-v5-recomputed",
            "Coefficient vector of the restricted third Chern class, recomputed.",
            "derived", [0, 5, 4, -2], list(det.coefficient_vector)),
        make_certificate(
            "c3-omega-v5-twist",
            "Degree of the third Chern class of the twisted cotangent bundle: "
            "published total against the exact recomputation.",
            "published", 620, det.value, discrepancy=20),
        make_certificate(
            "c3-omega-v5-twist-recomputed",
            "Degree of the third Chern class of the twisted cotangent bundle, "
            "recomputed from the degree table.",
            "derived", 20, det.value),
        make_certificate(
            "mul-pieri-agreement-gr25",
            "Littlewood-Richardson products agree with iterated special-class "
            "products for every pair of basis classes on the Grassmannian of "
            "lines in projective four-space.",
            "derived", True, _mul_matches_pieri(5)),
        make_certificate(
            "duality-pairing-gr25",
            "Every basis class pairs to one against its complementary class.",
            "derived", True, _duality_pairings_ok(5)),
        make_certificate(
            "associativity-seeded",
            "Seeded random triples multiply associatively in two ambient sizes.",
            "derived", True, _associativity_ok(rng, config.trials)),
    ]
    return certs


# ---------------------------------------------------------------------------
# suite: toric
# ---------------------------------------------------------------------------


def _bundle_pipeline(base, lift):
    bundle = toric.build_p1_bundle_fan(base, lift)
    contracted = toric.contract_ray(bundle, len(base.rays) + 1)
    return bundle, contracted, toric.enumerate_qfactorializations(contracted)


def _triangulation_facts(fan) -> dict:
    # the two cones missing the remaining pole (index 4) are the split pair
    split = [c for c in fan.maximal_cones if 4 not in c]
    diagonal = tuple(sorted(set(split[0]) & set(split[1])))
    mults = sorted(toric.cone_is_smooth(fan, c)[1] for c in split)
    fib = toric.fibration_to_p1(fan)
    return {
        "diagonal": diagonal,
        "smooth": toric.fan_is_smooth(fan),
        "multiplicities": mults,
        "fibration": None if fib is None else list(fib),
    }


def _noether_surfaces_ok(rng: random.Random) -> bool:
    fans = [toric.projective_plane_fan()] + [toric.hirzebruch_fan(k) for k in range(4)]
    for fan in fans:
        if toric.noether_number(fan) != 12:
            return False
    for _ in range(50):
        fan = toric.hirzebruch_fan(rng.randrange(4))
        for _ in range(rng.randrange(1, 5)):
            cone = fan.maximal_cones[rng.randrange(len(fan.maximal_cones))]
            fan = toric.blow_up_surface(fan, cone)
        if toric.noether_number(fan) != 12:
            return False
    return True


def _suite_toric(config: RunConfig) -> list:
    rng = random.Random(f"{config.seed}:toric")
    s14 = toric.hirzebruch_fan(3)
    s23 = toric.hirzebruch_fan(1)
    p2 = toric.projective_plane_fan()

    bundle14, contracted14, tris14 = _bundle_pipeline(s14, (1, 0, 0, 1))
    bundle23, _, tris23 = _bundle_pipeline(s23, (2, 0, 0, 1))
    facts14 = {}
    for fan in tris14:
        facts = _triangulation_facts(fan)
        facts14[f"v{facts['diagonal'][0] + 1}v{facts['diagonal'][1] + 1}"] = facts
    facts23 = {}
    for fan in tris23:
        facts = _triangulation_facts(fan)
        facts23[f"v{facts['diagonal'][0] + 1}v{facts['diagonal'][1] + 1}"] = facts

    div_a = list(toric.principal_divisor(s14, (1, 0)))
    div_b = list(toric.principal_divisor(s14, (0, 1)))
    pairings_zero = all(
        toric.divisor_dot(s14, toric.principal_divisor(s14, m), j) == 0
        for m in ((1, 0), (0, 1)) for j in range(4))

    try:
        toric.contract_ray(bundle14, 4)
        up_pole_message = "no error"
    except ValueError as e:
        up_pole_message = str(e)

    certs = [
        make_certificate(
            "s14-self-intersections",
            "Boundary self-intersection numbers of the degree-five scroll surface.",
            "published", [0, -3, 0, 3], list(toric.surface_self_intersections(s14))),
        make_certificate(
            "s23-self-intersections",
            "Boundary self-intersection numbers of the second scroll surface.",
            "published", [0, -1, 0, 1], list(toric.surface_self_intersections(s23))),
        make_certificate(
            "p2-self-intersections",
            "Boundary self-intersection numbers of the projective plane.",
            "trivial", [1, 1, 1], list(toric.surface_self_intersections(p2))),
        make_certificate(
            "noether-smooth-surfaces",
            "Sum of self-intersections plus three times the ray count equals twelve "
            "on the built-in fans and on fifty seeded blowup chains.",
            "derived", True, _noether_surfaces_ok(rng)),
        make_certificate(
            "s14-principal-divisors",
            "Divisors of the two coordinate characters on the scroll, "
            "coefficients in ray order.",
            "trivial", [[1, 0, -1, 0], [0, 1, 3, -1]], [div_a, div_b]),
        make_certificate(
            "s14-principal-pairing-zero",
            "Both principal divisors pair to zero with every boundary divisor.",
            "derived", True, pairings_zero),
        make_certificate(
            "l014-bundle-fan",
            "The projectivized-bundle fan over the scroll is complete and smooth "
            "with eight maximal cones.",
            "derived", [True, True, 8],
            [toric.fan_is_complete(bundle14), toric.fan_is_smooth(bundle14),
             len(bundle14.maximal_cones)]),
        make_certificate(
            "l014-contraction-cones",
            "Contracting the lower pole leaves five maximal cones, one of them "
            "four-ray.",
            "derived", 5, len(contracted14.maximal_cones)),
        make_certificate(
            "l014-triangulations",
            "The contracted fan admits exactly two small resolutions by its own rays.",
            "published", 2, len(tris14)),
        make_certificate(
            "l014-delta1-smooth",
            "Smoothness of the first triangulation (diagonal through the first and "
            "third base rays).",
            "published", False, facts14["v1v3"]["smooth"]),
        make_certificate(
            "l014-delta1-max-multiplicity",
            "Largest cone multiplicity in the first triangulation.",
            "published", 4, max(facts14["v1v3"]["multiplicities"])),
        make_certificate(
            "l014-delta1-fibration",
            "The first triangulation admits no fibration covector within the "
            "search bound.",
            "derived", None, facts14["v1v3"]["fibration"]),
        make_certificate(
            "l014-delta2-smooth",
            "Smoothness of the second triangulation (diagonal through the second "
            "and fourth base rays).",
            "published", True, facts14["v2v4"]["smooth"]),
        make_certificate(
            "l014-delta2-fibration",
            "Fibration covector of the second triangulation.",
            "published", [1, 0, 0], facts14["v2v4"]["fibration"]),
        make_certificate(
            "l014-base-ray-note",
            "Third base ray as printed in the source against the ray the stated "
            "self-intersections force.",
            "published", [-1, 0, 3], list(bundle14.rays[2]),
            discrepancy=[-1, 3, 0]),
        make_certificate(
            "l014-contract-up-pole",
            "Contracting the remaining pole is rejected: its star spans a half "
            "space, not a strongly convex cone.",
            "trivial", "not strongly convex", up_pole_message),
        make_certificate(
            "l023-bundle-fan",
            "The second bundle fan is complete and smooth with eight maximal cones.",
            "derived", [True, True, 8],
            [toric.fan_is_complete(bundle23), toric.fan_is_smooth(bundle23),
             len(bundle23.maximal_cones)]),
        make_certificate(
            "l023-diag-v1v3-smooth",
            "Smoothness of the triangulation with diagonal through the first and "
            "third base rays.",
            "published", False, facts23["v1v3"]["smooth"]),
        make_certificate(
            "l023-diag-v1v3-multiplicities",
            "Cone multiplicities of the two split cones in that triangulation.",
            "published", [2, 3], facts23["v1v3"]["multiplicities"]),
        make_certificate(
            "l023-diag-v2v4-smooth",
            "Smoothness of the triangulation with diagonal through the second and "
            "fourth base rays.",
            "published", True, facts23["v2v4"]["smooth"]),
        make_certificate(
            "l023-diag-v2v4-fibration",
            "Fibration covector of the smooth triangulation.",
            "published", [1, 0, 0], facts23["v2v4"]["fibration"]),
        make_certificate(
            "l023-labeling-inconsistency",
            "Smoothness of the two triangulations as asserted in the source's "
            "proof paragraph, keyed by diagonal; the recomputation matches the "
            "source's own statement instead, so the discrepancy is recorded.",
            "published",
            {"diagonal-v1v3": True, "diagonal-v2v4": False},
            {"diagonal-v1v3": facts23["v1v3"]["smooth"],
             "diagonal-v2v4": facts23["v2v4"]["smooth"]},
            discrepancy={"diagonal-v1v3": False, "diagonal-v2v4": True}),
    ]
    return certs


# ---------------------------------------------------------------------------
# suite: veronese
# ---------------------------------------------------------------------------


def _f2_subspace_matrices():
    """Reduced-row-echelon bases of every four-dimensional subspace of the
    six coefficient slots over the two-element field."""
    for pivots in itertools.combinations(range(6), 4):
        nonpivots = [j for j in range(6) if j not in pivots]
        free = [(i, j) for i in range(4) for j in nonpivots if j > pivots[i]]
        for bits in itertools.product((0, 1), repeat=len(free)):
            rows = [[0] * 6 for _ in range(4)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), bit in zip(free, bits):
                rows[i][j] = bit
            yield rows


def _combo_matches(result, subspace) -> bool:
    acc = subspace.basis[0].scale(result.combo[0])
    for mu, basis_form in zip(result.combo[1:], subspace.basis[1:]):
        acc = acc + basis_form.scale(mu)
    return acc == result.form


def _conic_sweep_f2():
    zero, one = veronese.F2_FIELD
    searched = 0
    histogram = {}
    constructive = True
    witnesses_ok = True
    for rows in _f2_subspace_matrices():
        searched += 1
        basis = [QuadraticForm3(tuple(one if b else zero for b in r)) for r in rows]
        sub = ConicSubspace(basis)
        res = veronese.find_smooth_conic_details(sub, veronese.F2_FIELD)
        histogram[res.path] = histogram.get(res.path, 0) + 1
        if res.path in ("exhaustive-fallback", "exhausted-none"):
            constructive = False
        if (res.form is None
                or not veronese.is_smooth_conic(res.form, veronese.F2_FIELD)
                or not _combo_matches(res, sub)):
            witnesses_ok = False
    return searched, histogram, constructive, witnesses_ok


def _random_conic_subspace(rng: random.Random, field, dim=4) -> ConicSubspace:
    order = len(field)
    while True:
        rows = [QuadraticForm3(tuple(field[rng.randrange(order)] for _ in range(6)))
                for _ in range(dim)]
        try:
            return ConicSubspace(rows)
        except ValueError:
            continue


def _conic_seeded_trials(rng: random.Random, trials: int):
    fields = (veronese.F2_FIELD, veronese.F4_FIELD)
    oracle_agreement = True
    witnesses_ok = True
    for t in range(trials):
        field = fields[t % 2]
        sub = _random_conic_subspace(rng, field)
        res = veronese.find_smooth_conic_details(sub, field)
        oracle = veronese.exhaustive_smooth_conic(sub, field)
        if (res.form is None) != (oracle is None):
            oracle_agreement = False
        if res.form is not None:
            if (not veronese.is_smooth_conic(res.form, field)
                    or not _combo_matches(res, sub)):
                witnesses_ok = False
    return oracle_agreement, witnesses_ok


def _veronese_points_ok(rng: random.Random, trials: int) -> bool:
    gens = veronese.veronese_ideal()
    names = ("x", "y", "z", "s", "t", "u")
    done = 0
    while done < trials:
        pt = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if not any(pt):
            continue
        done += 1
        image = veronese.veronese_map(pt)
        values = dict(zip(names, image))
        if any(g.evaluate(values) for g in gens):
            return False
        if veronese.secant_stratum(image).value != "OnVeronese":
            return False
    return True


def _minors_match_generators() -> bool:
    gens = veronese.veronese_ideal()
    minors = veronese.symmetric_matrix_minors()
    return (spans_contain(minors, gens) and spans_contain(gens, minors)
            and span_dimension(minors) == 6)


_KERNEL_ROWS_6 = [
    [1, 0, 4, 4, True],
    [2, 2, 9, 10, False],
    [3, 8, 16, 20, False],
    [4, 19, 25, 35, False],
    [5, 36, 36, 56, False],
    [6, 60, 49, 84, False],
]

_QUOTIENT_ROWS_6 = [
    [0, 1, 1, True],
    [1, 4, 4, True],
    [2, 8, 8, True],
    [3, 12, 13, False],
    [4, 16, 19, False],
    [5, 20, 26, False],
    [6, 24, 34, False],
]


def _suite_veronese(config: RunConfig) -> list:
    rng = random.Random(f"{config.seed}:veronese")
    bound = max(config.degree_bound, 2)
    kernel_cfg = veronese.projection_kernel_certificate(bound)
    # rows are computed per degree: a longer run's first six are the bound-6 rows
    rows6 = (kernel_cfg if bound >= 6 else veronese.projection_kernel_certificate(6)).rows[:6]
    principal_cfg = veronese.projection_kernel_principal_certificate(bound)
    quotient6 = veronese.quotient_hilbert_comparison(6)
    pencil = veronese.quadric_pencil_singularity_certificate()
    images = veronese.projection_images()

    split_default = {name: veronese.split_hyperplane_certificate(name)
                     for name in sorted(veronese.QUADRIC_CHOICES)}
    split_tilted = {name: veronese.split_hyperplane_certificate(name, avoided_divisor=(0, 2))
                    for name in sorted(veronese.QUADRIC_CHOICES)}

    searched, histogram, constructive, sweep_witnesses = _conic_sweep_f2()
    oracle_agreement, trial_witnesses = _conic_seeded_trials(rng, config.trials)

    slip_span = ConicSubspace([
        QuadraticForm3(_f2_form(0, 0, 0, 0, 0, 1)),   # xy
        QuadraticForm3(_f2_form(0, 0, 0, 1, 0, 0)),   # yz
        QuadraticForm3(_f2_form(0, 0, 0, 0, 1, 0)),   # zx
        QuadraticForm3(_f2_form(1, 0, 0, 0, 0, 0)),   # x^2
    ])
    slip_result = veronese.find_smooth_conic_details(slip_span, veronese.F2_FIELD)
    # the case split as printed would hand this span the singular member
    # x^2 + xy; record its smoothness verdict against the printed claim
    printed_member = QuadraticForm3(_f2_form(1, 0, 0, 0, 0, 1))
    printed_smooth = veronese.is_smooth_conic(printed_member, veronese.F2_FIELD)

    certs = [
        make_certificate(
            "veronese-ideal-generators",
            "The six quadric generators of the quadratic embedding of the plane, "
            "verbatim, rendered canonically.",
            "published",
            ["x*y - u^2", "y*z - s^2", "x*z - t^2",
             "x*s - t*u", "y*t - s*u", "z*u - s*t"],
            [_render_poly(g) for g in veronese.veronese_ideal()]),
        make_certificate(
            "veronese-minors-span",
            "The nine two-by-two minors of the generic symmetric matrix span "
            "exactly the same quadrics as the six generators.",
            "derived", True, _minors_match_generators()),
        make_certificate(
            "secant-cubic-determinant",
            "The secant cubic equals the determinant of the generic symmetric "
            "matrix as a polynomial identity.",
            "published", True, veronese.secant_cubic_matches_determinant()),
        make_certificate(
            "secant-strata-samples",
            "Matrix-rank stratification of three sample points: on the surface, "
            "on a secant line only, and generic.",
            "derived", ["OnVeronese", "OnSecantOnly", "Generic"],
            [veronese.secant_stratum(veronese.veronese_map((1, 2, 3))),
             veronese.secant_stratum((1, 1, 0, 0, 0, 0)),
             veronese.secant_stratum((1, 2, 3, 4, 5, 6))]),
        make_certificate(
            "veronese-map-membership-seeded",
            "Seeded rational points map onto the surface: every generator "
            "vanishes and the rank stratum is the surface stratum.",
            "derived", True, _veronese_points_ok(rng, config.trials)),
        make_certificate(
            "projection-images",
            "Chart images of the four target coordinates under the projection, "
            "as numerator and denominator pairs.",
            "trivial",
            {"Z": ["t^2", "1 - u^2"], "S": ["t*u", "1 - u^2"],
             "T": ["t", "1 - u^2"], "U": ["u", "1 - u^2"]},
            {name: [_render_poly(rf.num), _render_poly(rf.den)]
             for name, rf in images.items()}),
        make_certificate(
            "projection-member-st-uz",
            "The second proposed kernel generator maps to zero under the "
            "projection substitution.",
            "published", True, kernel_cfg.memberships[1][1]),
        make_certificate(
            "projection-member-s2-tu",
            "The first proposed kernel generator maps to zero under the "
            "projection substitution: published claim against the recomputation.",
            "published", True, kernel_cfg.memberships[0][1], discrepancy=False),
        make_certificate(
            "projection-identity-claim",
            "Degreewise dimension identity for the two proposed kernel "
            "generators up to the configured bound: published claim against "
            "the recomputation.",
            "published", True, kernel_cfg.identity_all, discrepancy=False),
        make_certificate(
            "projection-degree-rows",
            "Degree, ideal piece, image span, ring piece, and identity verdict "
            "for the two proposed generators, degrees one through six.",
            "derived", _KERNEL_ROWS_6, [list(r) for r in rows6]),
        make_certificate(
            "projection-image-dimension-d2",
            "Dimension of the span of the images of the ten quadratic monomials.",
            "derived", 9, rows6[1].image_dim),
        make_certificate(
            "projection-principal-member",
            "The single-generator kernel candidate maps to zero under the "
            "projection substitution.",
            "derived", True, principal_cfg.membership_all),
        make_certificate(
            "projection-principal-identity",
            "Degreewise dimension identity holds for the single-generator "
            "kernel ideal up to the configured bound.",
            "derived", True, principal_cfg.identity_all),
        make_certificate(
            "quotient-hilbert-claim",
            "The quotient by the two proposed generators has the claimed "
            "degreewise dimensions: published decomposition against the "
            "recomputation.",
            "published", True, all(r.equal for r in quotient6),
            discrepancy=False),
        make_certificate(
            "quotient-hilbert-rows",
            "Degree, quotient dimension, claimed dimension, and agreement "
            "verdict, degrees zero through six.",
            "derived", _QUOTIENT_ROWS_6, [list(r) for r in quotient6]),
        make_certificate(
            "quadric-pencil-singular",
            "The projection base point is singular on every member of the "
            "quadric pencil, identically in the pencil parameters.",
            "published", True, pencil.singular_for_all),
        make_certificate(
            "split-hyperplane-direct",
            "Cutting each singular quadric with the distinguished coordinate "
            "hyperplane splits it into the two expected planes.",
            "published",
            {"hyperplane": "x2", "components": [["x0", "x2"], ["x1", "x2"]]},
            {"hyperplane": _render_poly(split_default["x0x1+x2^2"].hyperplane),
             "components": [
                 [_render_poly(g) for g in split_default["x0x1+x2^2"].component_a],
                 [_render_poly(g) for g in split_default["x0x1+x2^2"].component_b]]}),
        make_certificate(
            "split-hyperplane-direct-identity",
            "Ideal of the pair equals the intersection of the component ideals, "
            "degree by degree, for both quadric choices.",
            "derived", [True, True],
            [split_default[name].all_equal for name in sorted(split_default)]),
        make_certificate(
            "split-hyperplane-tilted-choice",
            "Hyperplane selected when the first coordinate plane must be avoided.",
            "published", "x1 - x2",
            _render_poly(split_tilted["x0x1+x2^2"].hyperplane)),
        make_certificate(
            "split-hyperplane-tilted-identity",
            "The tilted splitting still satisfies the degreewise ideal identity "
            "for both quadric choices.",
            "derived", [True, True],
            [split_tilted[name].all_equal for name in sorted(split_tilted)]),
        make_certificate(
            "conic-subspaces-f2-sweep",
            "Every four-dimensional space of ternary quadratic forms over the "
            "two-element field yields a smooth conic through the constructive "
            "case analysis, with valid span witnesses and no fallback.",
            "derived",
            {"searched": 651, "constructive": True, "witnesses": True},
            {"searched": searched, "constructive": constructive,
             "witnesses": sweep_witnesses}),
        make_certificate(
            "conic-path-histogram-f2",
            "Branch histogram of the constructive search over the full sweep.",
            "derived",
            {"normalized-member-smooth": 213, "yz-member-smooth": 164,
             "diagonal-plus-xy": 146, "diagonal-plus-yz": 65,
             "zx-member-smooth": 45, "diagonal-plus-zx": 12,
             "case-all-squares": 6},
            histogram),
        make_certificate(
            "conic-seeded-oracle-agreement",
            "Seeded random subspaces over the two fields: constructive search "
            "agrees with the exhaustive oracle on existence and every returned "
            "form is a smooth member of the span.",
            "derived", [True, True], [oracle_agreement, trial_witnesses]),
        make_certificate(
            "conic-case-split-regression",
            "For the span of the three mixed monomials and the first square, "
            "the case split as printed hands back a member whose smoothness "
            "the literal test rejects; the printed claim is recorded.",
            "published", True, printed_smooth, discrepancy=False),
        make_certificate(
            "conic-case-split-corrected",
            "The corrected case split returns a smooth member of that span.",
            "derived",
            {"path": "diagonal-plus-yz", "smooth": True,
             "nonzero": [True, False, False, True, False, False]},
            {"path": slip_result.path,
             "smooth": veronese.is_smooth_conic(slip_result.form, veronese.F2_FIELD),
             "nonzero": [bool(c) for c in slip_result.form.coeffs]}),
    ]
    return certs


def _f2_form(*bits):
    zero, one = veronese.F2_FIELD
    return tuple(one if b else zero for b in bits)


# ---------------------------------------------------------------------------
# suite: hodge
# ---------------------------------------------------------------------------


def _binary_form(data: dict) -> Polynomial:
    return poly_from_string_exps(hodge.CURVE_VARS, {k: Fraction(v) for k, v in data.items()})


def _bott_grid_ok() -> bool:
    for n in range(1, 5):
        for p in range(n + 1):
            for d in range(-6, 7):
                if hodge.h0_omega_p(p, d, n) != hodge.bott_h0(p, d, n):
                    return False
    return True


_FANO_CIS = (
    ("quadric", 4, (2,)),
    ("cubic", 4, (3,)),
    ("quartic", 4, (4,)),
    ("ci23", 5, (2, 3)),
    ("ci222", 6, (2, 2, 2)),
)


def _suite_hodge(config: RunConfig) -> list:
    omega2 = hodge.omega2_p3_certificate()
    quartic_curve = [_binary_form({"s^4": 1}), _binary_form({"s^3*t": 1}),
                     _binary_form({"s*t^3": 1}), _binary_form({"t^4": 1})]
    line_curve = [_binary_form({"s": 1}), _binary_form({"t": 1}),
                  Polynomial.zero(hodge.CURVE_VARS), Polynomial.zero(hodge.CURVE_VARS)]

    diamonds = {name: hodge.ci_hodge_diamond(hodge.CIData(n, degs))
                for name, n, degs in _FANO_CIS}
    cis = {name: hodge.CIData(n, degs) for name, n, degs in _FANO_CIS}

    serre_ok = all(d.h(p, q) == d.h(3 - p, 3 - q)
                   for d in diamonds.values() for p in range(4) for q in range(4))
    h0j_ok = all(d.h(0, 0) == 1 and d.h(0, 1) == 0 and d.h(0, 2) == 0
                 for d in diamonds.values())
    h03_ok = all(d.h(0, 3) == 0 for d in diamonds.values())
    koszul_ok = all(hodge.chi_omega1_ci(ci) == hodge.chi_omega1_ci_koszul(ci)
                    for ci in cis.values())

    certs = [
        make_certificate(
            "chi-pn-samples",
            "Euler characteristics of twists of the structure sheaf on "
            "projective spaces, sampled across all three ranges.",
            "trivial", [[3, 3, 20], [-1, 3, 0], [-4, 3, -1], [0, 5, 1]],
            [[3, 3, hodge.chi_pn(3, 3)], [-1, 3, hodge.chi_pn(-1, 3)],
             [-4, 3, hodge.chi_pn(-4, 3)], [0, 5, hodge.chi_pn(0, 5)]]),
        make_certificate(
            "omega2-p3-twist3-sections",
            "Dimension of the space of two-forms on projective three-space "
            "twisted by three hyperplanes.",
            "published", 4, omega2.kernel_dim),
        make_certificate(
            "omega2-p3-intermediate-dims",
            "Source dimension, raw target dimension, and contraction rank "
            "behind that count.",
            "published", [24, 40, 20],
            [omega2.source_dim, omega2.target_dim, omega2.rank]),
        make_certificate(
            "omega2-p3-basis",
            "The four exhibited sections are independent, lie in the kernel of "
            "the Euler contraction, and the blockwise count agrees.",
            "derived", [True, True, 4],
            [omega2.basis_independent, omega2.basis_in_kernel,
             omega2.blockwise_count]),
        make_certificate(
            "omega2-vanishing-quartic",
            "Sections vanishing along a rational curve of degree four.",
            "derived", 0, hodge.omega2_vanishing_on_curve(quartic_curve)),
        make_certificate(
            "omega2-vanishing-line",
            "Sections vanishing along a coordinate line.",
            "derived", 0, hodge.omega2_vanishing_on_curve(line_curve)),
        make_certificate(
            "h0-omega-samples",
            "Twisted one-form section counts at two sample twists.",
            "derived", [0, 6],
            [hodge.h0_omega_p(1, 0, 3), hodge.h0_omega_p(1, 2, 3)]),
        make_certificate(
            "bott-grid-agreement",
            "The Euler-contraction count agrees with the closed-form oracle on "
            "the full grid of small parameters.",
            "derived", True, _bott_grid_ok()),
        make_certificate(
            "diamond-quadric",
            "Middle Hodge numbers of the quadric threefold.",
            "derived", [1, 0], [diamonds["quadric"].h(1, 1), diamonds["quadric"].h(1, 2)]),
        make_certificate(
            "diamond-cubic",
            "Middle Hodge numbers of the cubic threefold.",
            "derived", [1, 5], [diamonds["cubic"].h(1, 1), diamonds["cubic"].h(1, 2)]),
        make_certificate(
            "diamond-quartic",
            "Middle Hodge numbers of the quartic threefold.",
            "derived", [1, 30], [diamonds["quartic"].h(1, 1), diamonds["quartic"].h(1, 2)]),
        make_certificate(
            "diamond-ci23",
            "Middle Hodge numbers of the quadric-cubic intersection threefold.",
            "derived", [1, 20], [diamonds["ci23"].h(1, 1), diamonds["ci23"].h(1, 2)]),
        make_certificate(
            "diamond-ci222",
            "Middle Hodge numbers of the triple-quadric intersection threefold.",
            "derived", [1, 14], [diamonds["ci222"].h(1, 1), diamonds["ci222"].h(1, 2)]),
        make_certificate(
            "diamond-h0j-vanishing",
            "Every emitted diamond has a one-dimensional structure row: the "
            "first two higher structure cohomologies vanish.",
            "published", True, h0j_ok),
        make_certificate(
            "diamond-h03-fano",
            "The top structure cohomology vanishes on every emitted diamond.",
            "derived", True, h03_ok),
        make_certificate(
            "diamond-serre",
            "Every emitted diamond is symmetric under Serre duality.",
            "derived", True, serre_ok),
        make_certificate(
            "euler-cubic",
            "Alternating sum of Betti numbers of the cubic threefold diamond.",
            "derived", -6, diamonds["cubic"].euler_number()),
        make_certificate(
            "chi-omega1-koszul",
            "Both routes to the cotangent Euler characteristic agree on all "
            "emitted threefolds.",
            "derived", True, koszul_ok),
    ]
    return certs


# ---------------------------------------------------------------------------
# suite: numerology
# ---------------------------------------------------------------------------


def _suite_numerology(config: RunConfig) -> list:
    window = sorted(list(s) for s in numerology.p_divisibility_solutions(
        GENUS_MIN, GENUS_MAX, EXCLUDED_GENUS))
    empty = sorted(list(s) for s in numerology.p_divisibility_solutions(3, 3))
    single = sorted(list(s) for s in numerology.p_divisibility_solutions(5, 5))
    obstruction = numerology.g10_obstruction()
    variant = numerology.divisibility_obstruction(9, 2)

    certs = [
        make_certificate(
            "delta-genus-double-cover",
            "Delta genus of the degree-five polarized threefold.",
            "published", 0,
            numerology.delta_genus(numerology.DeltaGenusInput(3, 5, 8))),
        make_certificate(
            "delta-genus-veronese",
            "Delta genus of the quadratic surface embedding.",
            "trivial", 0,
            numerology.delta_genus(numerology.DeltaGenusInput(2, 4, 6))),
        make_certificate(
            "projection-degree-forcing",
            "Degrees admissible under the nonnegativity constraint on four "
            "over the degree minus three.",
            "published", [1], list(numerology.admissible_projection_degrees())),
        make_certificate(
            "divisibility-window",
            "Prime-square divisibility solutions over the configured genus window.",
            "published", [[2, 9, 2], [3, 10, 1]], window),
        make_certificate(
            "divisibility-empty-window",
            "No solutions at genus three.",
            "derived", [], empty),
        make_certificate(
            "divisibility-single-window",
            "Exactly one solution at genus five.",
            "derived", [[2, 5, 1]], single),
        make_certificate(
            "scroll-degree",
            "Degree of the three-part scroll.",
            "published", 5, numerology.scroll_degree((0, 1, 4))),
        make_certificate(
            "scroll-degree-zero",
            "Degree of the trivial scroll.",
            "trivial", 0, numerology.scroll_degree((0,))),
        make_certificate(
            "scroll-splittings-5",
            "Balanced two-part splittings of total degree five.",
            "published", [[1, 4], [2, 3]],
            sorted(list(s) for s in numerology.scroll_splittings(5))),
        make_certificate(
            "g10-obstruction",
            "The genus-ten intersection number and its indivisibility by three.",
            "published", [16, True], list(obstruction)),
        make_certificate(
            "g9-divisor2-variant",
            "The genus-nine variant: the analogous number is divisible by two, "
            "so this obstruction does not apply there.",
            "derived", [14, False], list(variant)),
        make_certificate(
            "obstruction-linear-form",
            "The obstruction number is twice the genus minus four across the "
            "whole genus range.",
            "trivial", True,
            all(numerology.divisibility_obstruction(g, 3)[0] == 2 * g - 4
                for g in range(3, 13))),
        make_certificate(
            "surface-rr-parity",
            "Parity constraint from surface Riemann-Roch at three sample "
            "self-intersections.",
            "published", [True, True, False],
            [numerology.surface_rr_parity(4), numerology.surface_rr_parity(2),
             numerology.surface_rr_parity(3)]),
    ]
    return certs


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


_SUITE_BUILDERS = {
    "schubert": _suite_schubert,
    "toric": _suite_toric,
    "veronese": _suite_veronese,
    "hodge": _suite_hodge,
    "numerology": _suite_numerology,
}


def run_suite(name: str, config: RunConfig | None = None) -> Report:
    """Execute one suite (or all of them) and assemble the report,
    certificates ordered by id."""
    config = config or RunConfig()
    if name == "all":
        certs = []
        for build in _SUITE_BUILDERS.values():
            certs.extend(build(config))
    elif name in _SUITE_BUILDERS:
        certs = _SUITE_BUILDERS[name](config)
    else:
        raise ValueError(f"unknown suite: {name}")
    certs = sorted(certs, key=lambda c: c.id)
    seen = set()
    for c in certs:
        if c.id in seen:
            raise ValueError(f"duplicate certificate id: {c.id}")
        seen.add(c.id)
    return Report(name, tuple(certs), config.seed, config.echo())


def report_to_dict(report: Report) -> dict:
    counts = report.counts()
    data = {
        "suite": report.suite,
        "seed": encode_value(report.seed),
        "config": encode_value(report.config),
        "summary": {
            "total": encode_value(len(report.certificates)),
            "pass": encode_value(counts["pass"]),
            "flagged": encode_value(counts["flagged"]),
            "fail": encode_value(counts["fail"]),
        },
        "certificates": [
            {
                "id": c.id,
                "description": c.description,
                "expected": {
                    "provenance": c.provenance,
                    "value": encode_value(c.expected),
                },
                "computed": encode_value(c.computed),
                "verdict": c.verdict,
            }
            for c in report.certificates
        ],
    }
    validate_report_data(data)
    return data


def validate_report_data(data: dict):
    """Schema check: every expectation must carry a known provenance tag and
    the summary must match the certificate list."""
    counts = {v: 0 for v in VERDICTS}
    for cert in data.get("certificates", ()):
        expected = cert.get("expected")
        if not isinstance(expected, dict) or "value" not in expected:
            raise ValueError(f"untagged expectation in certificate {cert.get('id')!r}")
        tag = expected.get("provenance")
        if tag not in PROVENANCE_TAGS:
            raise ValueError(
                f"unknown provenance tag in certificate {cert.get('id')!r}: {tag!r}")
        verdict = cert.get("verdict")
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict in certificate {cert.get('id')!r}")
        counts[verdict] += 1
    summary = data.get("summary", {})
    stated = {k: summary.get(k) for k in ("pass", "flagged", "fail")}
    actual = {k: encode_value(counts[k]) for k in ("pass", "flagged", "fail")}
    if stated != actual or summary.get("total") != encode_value(sum(counts.values())):
        raise ValueError("summary counts inconsistent with certificate list")


def render_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def render_text(report: Report) -> str:
    counts = report.counts()
    lines = [
        f"suite: {report.suite}",
        f"seed: {report.seed}",
        "config: " + " ".join(f"{k}={report.config[k]}"
                              for k in sorted(report.config)),
        f"summary: total={len(report.certificates)} pass={counts['pass']} "
        f"flagged={counts['flagged']} fail={counts['fail']}",
        "",
    ]
    for c in report.certificates:
        lines.append(f"[{c.verdict.upper():<7}] {c.id}")
        lines.append(f"    {c.description}")
        lines.append(f"    expected ({c.provenance}): "
                     + json.dumps(encode_value(c.expected), sort_keys=True))
        lines.append("    computed: "
                     + json.dumps(encode_value(c.computed), sort_keys=True))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# fan file checking
# ---------------------------------------------------------------------------


FanCheckReport = namedtuple("FanCheckReport", [
    "path", "dim", "ray_count", "cone_count",
    "simplicial", "smooth", "complete", "fibration",
])


def check_fan(path: str) -> FanCheckReport:
    """Load a fan file and report its structural properties.  Smoothness is
    only decided for simplicial fans."""
    fan = toric.load_fan(path)
    simplicial = fan.is_simplicial()
    smooth = toric.fan_is_smooth(fan) if simplicial else None
    fibration = toric.fibration_to_p1(fan)
    return FanCheckReport(str(path), fan.dim, len(fan.rays),
                          len(fan.maximal_cones), simplicial, smooth,
                          toric.fan_is_complete(fan), fibration)


def render_fan_check(report: FanCheckReport) -> str:
    def yn(v):
        return "yes" if v else "no"

    smooth_line = "not checked (non-simplicial)" if report.smooth is None \
        else yn(report.smooth)
    fib_line = "none" if report.fibration is None \
        else "(" + ", ".join(str(x) for x in report.fibration) + ")"
    return "\n".join([
        f"fan file: {report.path}",
        f"dimension: {report.dim}",
        f"rays: {report.ray_count}",
        f"maximal cones: {report.cone_count}",
        f"simplicial: {yn(report.simplicial)}",
        f"smooth: {smooth_line}",
        f"complete: {yn(report.complete)}",
        f"fibration covector: {fib_line}",
    ]) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and reused: building costs far more
    than a parse, and parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="certify",
        description="Run exact-arithmetic certificate suites and validate fan files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a certificate suite")
    run_parser.add_argument("suite", choices=(*_SUITE_BUILDERS, "all"))
    run_parser.add_argument("--format", dest="fmt", choices=("json", "text"),
                            default="text", help="report rendering (default text)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--trials", type=int, default=500,
                            help=f"seeded trials per randomized check (0 to {MAX_TRIALS})")
    run_parser.add_argument("--degree-bound", type=int, default=6,
                            help=f"top degree of the kernel certificates (2 to {MAX_DEGREE_BOUND})")
    run_parser.add_argument("--out", default=None,
                            help="write the report to a file instead of stdout")

    fan_parser = sub.add_parser("fan", help="fan file utilities")
    fan_sub = fan_parser.add_subparsers(dest="fan_command", required=True)
    check_parser = fan_sub.add_parser("check", help="validate a fan file")
    check_parser.add_argument("file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        if args.trials < 0:
            parser.error("--trials must be nonnegative")
        if args.trials > MAX_TRIALS:
            parser.error(f"--trials must be at most {MAX_TRIALS}")
        if args.degree_bound < 2:
            parser.error("--degree-bound must be at least 2")
        if args.degree_bound > MAX_DEGREE_BOUND:
            parser.error(f"--degree-bound must be at most {MAX_DEGREE_BOUND}")
        config = RunConfig(seed=args.seed, trials=args.trials,
                           degree_bound=args.degree_bound)
        report = run_suite(args.suite, config)
        rendered = render_json(report) if args.fmt == "json" else render_text(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
        return 0 if report.counts()["fail"] == 0 else 1

    if args.command == "fan" and args.fan_command == "check":
        try:
            report = check_fan(args.file)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        sys.stdout.write(render_fan_check(report))
        return 0

    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
