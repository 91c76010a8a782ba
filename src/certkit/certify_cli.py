"""Certificate suites and the command-line runner.

Every headline computation in the library is packaged as a Certificate:
an identifier, a description, an expected value carrying a provenance
tag, the freshly recomputed value, and a verdict.  Values are compared
exactly after canonical encoding; nothing here is floating point.

The claims (id, provenance, expected value, recorded discrepancy,
description) live in one table, `_CLAIMS`; each suite has one compute
function that returns {id: recomputed value}, and `run_suite` pairs the
two and applies the verdict rule.

Verdicts are "pass" when the values agree, "fail" when they do not, and
"flagged" for recorded discrepancies that the suite is expected to
exhibit.  A flagged certificate documents a mismatch between a published
value and the recomputation without failing the build; the exit code is
zero exactly when no certificate fails.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction

from . import hodge, numerology, schubert, toric, veronese
from .exactcore import (F2_ELEMENTS, F4_ELEMENTS, GF4_MUL, Polynomial, _is_int,
                        poly_from_string_exps, span_dimension, spans_contain)
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


class RunConfig(namedtuple("RunConfig", ["seed", "trials", "degree_bound"])):
    """Knobs shared by every suite: plain ints, with the trial count and the
    degree bound in range; anything else is a ValueError."""

    __slots__ = ()

    def __new__(cls, seed=0, trials=500, degree_bound=6):
        for flag, value in (("--seed", seed), ("--trials", trials),
                            ("--degree-bound", degree_bound)):
            if not _is_int(value):
                raise ValueError(f"{flag} must be an integer: {value!r}")
        if trials < 0:
            raise ValueError("--trials must be nonnegative")
        if trials > MAX_TRIALS:
            raise ValueError(f"--trials must be at most {MAX_TRIALS}")
        if degree_bound < 2:
            raise ValueError("--degree-bound must be at least 2")
        if degree_bound > MAX_DEGREE_BOUND:
            raise ValueError(f"--degree-bound must be at most {MAX_DEGREE_BOUND}")
        return super().__new__(cls, seed, trials, degree_bound)

    def echo(self) -> dict:
        return {
            "trials": self.trials,
            "degree_bound": self.degree_bound,
            "genus_min": GENUS_MIN,
            "genus_max": GENUS_MAX,
            "excluded_genus": list(EXCLUDED_GENUS),
        }


Certificate = namedtuple("Certificate", ["id", "description", "provenance",
                                         "expected", "computed", "verdict"])


class Report(namedtuple("Report", ["suite", "certificates", "seed", "config"])):
    __slots__ = ()

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
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
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


# ---------------------------------------------------------------------------
# the claims: one row (id, provenance, expected, discrepancy, description)
# per certificate, grouped by suite in run order.  Each suite's compute
# function below returns {id: computed value} for exactly its rows' ids, and
# run_suite judges every row against its value with make_certificate.
# ---------------------------------------------------------------------------

_CLAIMS = {
    "schubert": (
        ("cotangent-ch1-v5", "published", Fraction(-5), None,
         "Degree-one character part of the cotangent bundle of the Grassmannian of lines in "
         "projective four-space, as a multiple of the hyperplane class."),
        ("cotangent-ch2-v5", "published", [Fraction(7, 2), -3, -2], None,
         "Degree-two character part of the same cotangent bundle, coefficients on the square of "
         "the hyperplane class and the two codimension-two classes."),
        ("cotangent-ch3-v5", "published", [Fraction(-11, 6), Fraction(5, 2), 2, -1], None,
         "Degree-three character part, coefficients on the weight-three monomial basis."),
        # "twisted by three hyperplanes" is the source's wording; the bundle is
        # the cotangent bundle twisted by O(2), so c1 = -5 + 6*2 = 7, and the
        # three hyperplanes are the ones that cut V5 out of Gr(2,5)
        ("twisted-c1-v5", "published", 7, None,
         "First Chern class of the cotangent bundle twisted by three hyperplanes."),
        ("twisted-c2-v5", "published", [19, 3, 2], None,
         "Second Chern class of the twisted cotangent bundle."),
        ("twisted-c3-v5", "published", [145, 14, 10, -2], [25, 14, 10, -2],
         "Third Chern class of the twisted cotangent bundle: published coefficient table against "
         "the exact recomputation."),
        ("twisted-c3-v5-recomputed", "derived", [25, 14, 10, -2], None,
         "Third Chern class of the twisted cotangent bundle, recomputed coefficients frozen from "
         "the Chern-character route."),
        ("degree-table-v5", "published", [5, 2, 3, 1], None,
         "Degrees of the weight-three basis classes multiplied up to the top class."),
        ("restriction-coefficients-v5", "derived", [-10, 6, -3, 1], None,
         "Coefficients of the hyperplane restriction relation used to push the third Chern class "
         "onto the weight-three basis."),
        ("coefficient-vector-v5", "published", [120, 5, 4, -2], [0, 5, 4, -2],
         "Coefficient vector of the restricted third Chern class: published values against the "
         "exact recomputation."),
        ("coefficient-vector-v5-recomputed", "derived", [0, 5, 4, -2], None,
         "Coefficient vector of the restricted third Chern class, recomputed."),
        ("c3-omega-v5-twist", "published", 620, 20,
         "Degree of the third Chern class of the twisted cotangent bundle: published total "
         "against the exact recomputation."),
        ("c3-omega-v5-twist-recomputed", "derived", 20, None,
         "Degree of the third Chern class of the twisted cotangent bundle, recomputed from the "
         "degree table."),
        ("mul-pieri-agreement-gr25", "derived", True, None,
         "Littlewood-Richardson products agree with iterated special-class products for every "
         "pair of basis classes on the Grassmannian of lines in projective four-space."),
        ("duality-pairing-gr25", "derived", True, None,
         "Every basis class pairs to one against its complementary class."),
        ("associativity-seeded", "derived", True, None,
         "Seeded random triples multiply associatively in two ambient sizes."),
    ),
    "toric": (
        ("s14-self-intersections", "published", [0, -3, 0, 3], None,
         "Boundary self-intersection numbers of the degree-five scroll surface."),
        ("s23-self-intersections", "published", [0, -1, 0, 1], None,
         "Boundary self-intersection numbers of the second scroll surface."),
        ("p2-self-intersections", "trivial", [1, 1, 1], None,
         "Boundary self-intersection numbers of the projective plane."),
        ("noether-smooth-surfaces", "derived", True, None,
         "Sum of self-intersections plus three times the ray count equals twelve on the built-in "
         "fans and on fifty seeded blowup chains."),
        ("s14-principal-divisors", "trivial", [[1, 0, -1, 0], [0, 1, 3, -1]], None,
         "Divisors of the two coordinate characters on the scroll, coefficients in ray order."),
        ("s14-principal-pairing-zero", "derived", True, None,
         "Both principal divisors pair to zero with every boundary divisor."),
        ("l014-bundle-fan", "derived", [True, True, 8], None,
         "The projectivized-bundle fan over the scroll is complete and smooth with eight maximal "
         "cones."),
        ("l014-contraction-cones", "derived", 5, None,
         "Contracting the lower pole leaves five maximal cones, one of them four-ray."),
        ("l014-triangulations", "published", 2, None,
         "The contracted fan admits exactly two small resolutions by its own rays."),
        ("l014-delta1-smooth", "published", False, None,
         "Smoothness of the first triangulation (diagonal through the first and third base "
         "rays)."),
        ("l014-delta1-max-multiplicity", "published", 4, None,
         "Largest cone multiplicity in the first triangulation."),
        ("l014-delta1-fibration", "derived", None, None,
         "The first triangulation admits no fibration covector within the search bound."),
        ("l014-delta2-smooth", "published", True, None,
         "Smoothness of the second triangulation (diagonal through the second and fourth base "
         "rays)."),
        ("l014-delta2-fibration", "published", [1, 0, 0], None,
         "Fibration covector of the second triangulation."),
        ("l014-base-ray-note", "published", [-1, 0, 3], [-1, 3, 0],
         "Third base ray as printed in the source against the ray the stated self-intersections "
         "force."),
        ("l014-contract-up-pole", "trivial", "not strongly convex", None,
         "Contracting the remaining pole is rejected: its star spans a half space, not a strongly "
         "convex cone."),
        ("l023-bundle-fan", "derived", [True, True, 8], None,
         "The second bundle fan is complete and smooth with eight maximal cones."),
        ("l023-diag-v1v3-smooth", "published", False, None,
         "Smoothness of the triangulation with diagonal through the first and third base rays."),
        ("l023-diag-v1v3-multiplicities", "published", [2, 3], None,
         "Cone multiplicities of the two split cones in that triangulation."),
        ("l023-diag-v2v4-smooth", "published", True, None,
         "Smoothness of the triangulation with diagonal through the second and fourth base rays."),
        ("l023-diag-v2v4-fibration", "published", [1, 0, 0], None,
         "Fibration covector of the smooth triangulation."),
        ("l023-labeling-inconsistency", "published",
         {"diagonal-v1v3": True, "diagonal-v2v4": False},
         {"diagonal-v1v3": False, "diagonal-v2v4": True},
         "Smoothness of the two triangulations as asserted in the source's proof paragraph, keyed "
         "by diagonal; the recomputation matches the source's own statement instead, so the "
         "discrepancy is recorded."),
    ),
    "veronese": (
        ("veronese-ideal-generators", "published",
         ["x*y - u^2", "y*z - s^2", "x*z - t^2", "x*s - t*u", "y*t - s*u", "z*u - s*t"], None,
         "The six quadric generators of the quadratic embedding of the plane, verbatim, rendered "
         "canonically."),
        ("veronese-minors-span", "derived", True, None,
         "The nine two-by-two minors of the generic symmetric matrix span exactly the same "
         "quadrics as the six generators."),
        ("secant-cubic-determinant", "published", True, None,
         "The secant cubic equals the determinant of the generic symmetric matrix as a polynomial "
         "identity."),
        ("secant-strata-samples", "derived", ["OnVeronese", "OnSecantOnly", "Generic"], None,
         "Matrix-rank stratification of three sample points: on the surface, on a secant line "
         "only, and generic."),
        ("veronese-map-membership-seeded", "derived", True, None,
         "Seeded rational points map onto the surface: every generator vanishes and the rank "
         "stratum is the surface stratum."),
        ("projection-images", "trivial",
         {"Z": ["t^2", "1 - u^2"], "S": ["t*u", "1 - u^2"],
          "T": ["t", "1 - u^2"], "U": ["u", "1 - u^2"]}, None,
         "Chart images of the four target coordinates under the projection, as numerator and "
         "denominator pairs."),
        ("projection-member-st-uz", "published", True, None,
         "The second proposed kernel generator maps to zero under the projection substitution."),
        ("projection-member-s2-tu", "published", True, False,
         "The first proposed kernel generator maps to zero under the projection substitution: "
         "published claim against the recomputation."),
        ("projection-identity-claim", "published", True, False,
         "Degreewise dimension identity for the two proposed kernel generators up to the "
         "configured bound: published claim against the recomputation."),
        ("projection-degree-rows", "derived",
         [[1, 0, 4, 4, True], [2, 2, 9, 10, False], [3, 8, 16, 20, False],
          [4, 19, 25, 35, False], [5, 36, 36, 56, False], [6, 60, 49, 84, False]], None,
         "Degree, ideal piece, image span, ring piece, and identity verdict for the two proposed "
         "generators, degrees one through six."),
        ("projection-image-dimension-d2", "derived", 9, None,
         "Dimension of the span of the images of the ten quadratic monomials."),
        ("projection-principal-member", "derived", True, None,
         "The single-generator kernel candidate maps to zero under the projection substitution."),
        ("projection-principal-identity", "derived", True, None,
         "Degreewise dimension identity holds for the single-generator kernel ideal up to the "
         "configured bound."),
        ("quotient-hilbert-claim", "published", True, False,
         "The quotient by the two proposed generators has the claimed degreewise dimensions: "
         "published decomposition against the recomputation."),
        ("quotient-hilbert-rows", "derived",
         [[0, 1, 1, True], [1, 4, 4, True], [2, 8, 8, True], [3, 12, 13, False],
          [4, 16, 19, False], [5, 20, 26, False], [6, 24, 34, False]], None,
         "Degree, quotient dimension, claimed dimension, and agreement verdict, degrees zero "
         "through six."),
        ("quadric-pencil-singular", "published", True, None,
         "The projection base point is singular on every member of the quadric pencil, "
         "identically in the pencil parameters."),
        ("split-hyperplane-direct", "published",
         {"hyperplane": "x2", "components": [["x0", "x2"], ["x1", "x2"]]}, None,
         "Cutting each singular quadric with the distinguished coordinate hyperplane splits it "
         "into the two expected planes."),
        ("split-hyperplane-direct-identity", "derived", [True, True], None,
         "Ideal of the pair equals the intersection of the component ideals, degree by degree, "
         "for both quadric choices."),
        ("split-hyperplane-tilted-choice", "published", "x1 - x2", None,
         "Hyperplane selected when the first coordinate plane must be avoided."),
        ("split-hyperplane-tilted-identity", "derived", [True, True], None,
         "The tilted splitting still satisfies the degreewise ideal identity for both quadric "
         "choices."),
        ("conic-subspaces-f2-sweep", "derived",
         {"searched": 651, "constructive": True, "witnesses": True}, None,
         "Every four-dimensional space of ternary quadratic forms over the two-element field "
         "yields a smooth conic through the constructive case analysis, with valid span witnesses "
         "and no fallback."),
        ("conic-path-histogram-f2", "derived",
         {"normalized-member-smooth": 213, "yz-member-smooth": 164, "diagonal-plus-xy": 146,
          "diagonal-plus-yz": 65, "zx-member-smooth": 45, "diagonal-plus-zx": 12,
          "case-all-squares": 6}, None,
         "Branch histogram of the constructive search over the full sweep."),
        ("conic-seeded-oracle-agreement", "derived", [True, True], None,
         "Seeded random subspaces over the two fields: constructive search agrees with the "
         "exhaustive oracle on existence and every returned form is a smooth member of the span."),
        ("conic-case-split-regression", "published", True, False,
         "For the span of the three mixed monomials and the first square, the case split as "
         "printed hands back a member whose smoothness the literal test rejects; the printed "
         "claim is recorded."),
        ("conic-case-split-corrected", "derived",
         {"path": "diagonal-plus-yz", "smooth": True,
          "nonzero": [True, False, False, True, False, False]}, None,
         "The corrected case split returns a smooth member of that span."),
    ),
    "hodge": (
        ("chi-pn-samples", "trivial", [[3, 3, 20], [-1, 3, 0], [-4, 3, -1], [0, 5, 1]], None,
         "Euler characteristics of twists of the structure sheaf on projective spaces, sampled "
         "across all three ranges."),
        ("omega2-p3-twist3-sections", "published", 4, None,
         "Dimension of the space of two-forms on projective three-space twisted by three "
         "hyperplanes."),
        ("omega2-p3-intermediate-dims", "published", [24, 40, 20], None,
         "Source dimension, raw target dimension, and contraction rank behind that count."),
        ("omega2-p3-basis", "derived", [True, True, 4], None,
         "The four exhibited sections are independent, lie in the kernel of the Euler "
         "contraction, and the blockwise count agrees."),
        ("omega2-vanishing-quartic", "derived", 0, None,
         "Sections vanishing along a rational curve of degree four."),
        ("omega2-vanishing-line", "derived", 0, None,
         "Sections vanishing along a coordinate line."),
        ("h0-omega-samples", "derived", [0, 6], None,
         "Twisted one-form section counts at two sample twists."),
        ("bott-grid-agreement", "derived", True, None,
         "The Euler-contraction count agrees with the closed-form oracle on the full grid of "
         "small parameters."),
        ("diamond-quadric", "derived", [1, 0], None,
         "Middle Hodge numbers of the quadric threefold."),
        ("diamond-cubic", "derived", [1, 5], None, "Middle Hodge numbers of the cubic threefold."),
        ("diamond-quartic", "derived", [1, 30], None,
         "Middle Hodge numbers of the quartic threefold."),
        ("diamond-ci23", "derived", [1, 20], None,
         "Middle Hodge numbers of the quadric-cubic intersection threefold."),
        ("diamond-ci222", "derived", [1, 14], None,
         "Middle Hodge numbers of the triple-quadric intersection threefold."),
        ("diamond-h0j-vanishing", "published", True, None,
         "Every emitted diamond has a one-dimensional structure row: the first two higher "
         "structure cohomologies vanish."),
        ("diamond-h03-fano", "derived", True, None,
         "The top structure cohomology vanishes on every emitted diamond."),
        ("diamond-serre", "derived", True, None,
         "Every emitted diamond is symmetric under Serre duality."),
        ("euler-cubic", "derived", -6, None,
         "Alternating sum of Betti numbers of the cubic threefold diamond."),
        ("chi-omega1-koszul", "derived", True, None,
         "Both routes to the cotangent Euler characteristic agree on all emitted threefolds."),
    ),
    "numerology": (
        ("delta-genus-double-cover", "published", 0, None,
         "Delta genus of the degree-five polarized threefold."),
        ("delta-genus-veronese", "trivial", 0, None,
         "Delta genus of the quadratic surface embedding."),
        ("projection-degree-forcing", "published", [1], None,
         "Degrees admissible under the nonnegativity constraint on four over the degree minus "
         "three."),
        ("divisibility-window", "published", [[2, 9, 2], [3, 10, 1]], None,
         "Prime-square divisibility solutions over the configured genus window."),
        ("divisibility-empty-window", "derived", [], None, "No solutions at genus three."),
        ("divisibility-single-window", "derived", [[2, 5, 1]], None,
         "Exactly one solution at genus five."),
        ("scroll-degree", "published", 5, None, "Degree of the three-part scroll."),
        ("scroll-degree-zero", "trivial", 0, None, "Degree of the trivial scroll."),
        ("scroll-splittings-5", "published", [[1, 4], [2, 3]], None,
         "Balanced two-part splittings of total degree five."),
        ("g10-obstruction", "published", [16, True], None,
         "The genus-ten intersection number and its indivisibility by three."),
        ("g9-divisor2-variant", "derived", [14, False], None,
         "The genus-nine variant: the analogous number is divisible by two, so this obstruction "
         "does not apply there."),
        ("obstruction-linear-form", "trivial", True, None,
         "The obstruction number is twice the genus minus four across the whole genus range."),
        ("surface-rr-parity", "published", [True, True, False], None,
         "Parity constraint from surface Riemann-Roch at three sample self-intersections."),
    ),
}


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


def _compute_schubert(config: RunConfig) -> dict:
    rng = random.Random(f"{config.seed}:schubert")
    det = schubert.v5_separability_details()
    ch, c = det.cotangent_character, det.chern
    c3_vector = list(schubert.weight_vector(c, 3))
    return {
        "cotangent-ch1-v5": schubert.weight_vector(ch, 1)[0],
        "cotangent-ch2-v5": list(schubert.weight_vector(ch, 2)),
        "cotangent-ch3-v5": list(schubert.weight_vector(ch, 3)),
        "twisted-c1-v5": schubert.weight_vector(c, 1)[0],
        "twisted-c2-v5": list(schubert.weight_vector(c, 2)),
        "twisted-c3-v5": c3_vector,
        "twisted-c3-v5-recomputed": c3_vector,
        "degree-table-v5": list(det.degree_table),
        "restriction-coefficients-v5": list(det.restriction_coefficients),
        "coefficient-vector-v5": list(det.coefficient_vector),
        "coefficient-vector-v5-recomputed": list(det.coefficient_vector),
        "c3-omega-v5-twist": det.value,
        "c3-omega-v5-twist-recomputed": det.value,
        "mul-pieri-agreement-gr25": _mul_matches_pieri(5),
        "duality-pairing-gr25": _duality_pairings_ok(5),
        "associativity-seeded": _associativity_ok(rng, config.trials),
    }


# ---------------------------------------------------------------------------
# suite: toric
# ---------------------------------------------------------------------------


def _bundle_pipeline(base, lift):
    bundle = toric.build_p1_bundle_fan(base, lift)
    contracted = toric.contract_ray(bundle, len(base.rays) + 1)
    return bundle, contracted, toric.enumerate_qfactorializations(contracted)


def _triangulation_facts(triangulations) -> dict:
    """Smoothness, split-cone multiplicities and fibration covector of each
    triangulation, keyed by its diagonal: "v1v3" joins base rays 1 and 3."""
    out = {}
    for fan in triangulations:
        # the two cones missing the remaining pole (index 4) are the split pair
        split = [c for c in fan.maximal_cones if 4 not in c]
        i, j = sorted(set(split[0]) & set(split[1]))
        fib = toric.fibration_to_p1(fan)
        out[f"v{i + 1}v{j + 1}"] = {
            "smooth": toric.fan_is_smooth(fan),
            "multiplicities": sorted(toric.cone_is_smooth(fan, c)[1] for c in split),
            "fibration": None if fib is None else list(fib),
        }
    return out


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


def _compute_toric(config: RunConfig) -> dict:
    rng = random.Random(f"{config.seed}:toric")
    s14 = toric.hirzebruch_fan(3)
    s23 = toric.hirzebruch_fan(1)
    principal14 = [toric.principal_divisor(s14, m) for m in ((1, 0), (0, 1))]
    bundle14, contracted14, tris14 = _bundle_pipeline(s14, (1, 0, 0, 1))
    bundle23, _, tris23 = _bundle_pipeline(s23, (2, 0, 0, 1))
    facts14 = _triangulation_facts(tris14)
    facts23 = _triangulation_facts(tris23)
    try:
        toric.contract_ray(bundle14, 4)
        up_pole_message = "no error"
    except ValueError as e:
        up_pole_message = str(e)
    return {
        "s14-self-intersections": list(toric.surface_self_intersections(s14)),
        "s23-self-intersections": list(toric.surface_self_intersections(s23)),
        "p2-self-intersections":
            list(toric.surface_self_intersections(toric.projective_plane_fan())),
        "noether-smooth-surfaces": _noether_surfaces_ok(rng),
        "s14-principal-divisors": [list(d) for d in principal14],
        "s14-principal-pairing-zero":
            not any(any(toric.divisor_pairings(s14, d)) for d in principal14),
        "l014-bundle-fan": [toric.fan_is_complete(bundle14), toric.fan_is_smooth(bundle14),
                            len(bundle14.maximal_cones)],
        "l014-contraction-cones": len(contracted14.maximal_cones),
        "l014-triangulations": len(tris14),
        "l014-delta1-smooth": facts14["v1v3"]["smooth"],
        "l014-delta1-max-multiplicity": max(facts14["v1v3"]["multiplicities"]),
        "l014-delta1-fibration": facts14["v1v3"]["fibration"],
        "l014-delta2-smooth": facts14["v2v4"]["smooth"],
        "l014-delta2-fibration": facts14["v2v4"]["fibration"],
        "l014-base-ray-note": list(bundle14.rays[2]),
        "l014-contract-up-pole": up_pole_message,
        "l023-bundle-fan": [toric.fan_is_complete(bundle23), toric.fan_is_smooth(bundle23),
                            len(bundle23.maximal_cones)],
        "l023-diag-v1v3-smooth": facts23["v1v3"]["smooth"],
        "l023-diag-v1v3-multiplicities": facts23["v1v3"]["multiplicities"],
        "l023-diag-v2v4-smooth": facts23["v2v4"]["smooth"],
        "l023-diag-v2v4-fibration": facts23["v2v4"]["fibration"],
        "l023-labeling-inconsistency":
            {f"diagonal-{d}": facts23[d]["smooth"] for d in ("v1v3", "v2v4")},
    }


# ---------------------------------------------------------------------------
# suite: veronese
# ---------------------------------------------------------------------------


def _f2_form(bits) -> QuadraticForm3:
    """The ternary quadratic form over the two-element field with these 0/1
    coefficients."""
    return QuadraticForm3(tuple(F2_ELEMENTS[b] for b in bits))


def _rref_bases(k: int, q: int):
    """The reduced-row-echelon basis of every k-dimensional subspace of
    ternary quadratic forms over the field of order q (2 or 4), as rows of
    six GF(4) codes."""
    for pivots in itertools.combinations(range(6), k):
        nonpivots = [j for j in range(6) if j not in pivots]
        free = [(i, j) for i in range(k) for j in nonpivots if j > pivots[i]]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * 6 for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), c in zip(free, values):
                rows[i][j] = c
            yield rows


def _combo_matches(result, subspace) -> bool:
    """The search's witness, checked apart from the search: the combination
    has one coefficient per basis form, it and the form are in the
    subspace's field (a ConicSubspace's entries are all of one type), and
    the combination of the basis forms is the returned form.  The sum is
    re-added in a loop of its own on the elements' GF(4) codes, read from
    the basis forms themselves and not from the subspace's code rows."""
    kind = type(subspace.basis[0].coeffs[0])
    if (len(result.combo) != subspace.dimension
            or any(type(x) is not kind for x in (*result.combo, *result.form.coeffs))):
        return False
    total = [0] * 6
    for mu, form in zip(result.combo, subspace.basis):
        if mu.c:
            m = GF4_MUL[mu.c]
            total = [t ^ m[x.c] for t, x in zip(total, form.coeffs)]
    return total == [x.c for x in result.form.coeffs]


def _witness_ok(result, subspace) -> bool:
    """The search returned a nonzero form, the closed-form criterion calls
    it smooth, and its combination of the basis is that form."""
    return (result.form is not None and any(result.form.coeffs)
            and veronese.smooth_conic_closed_form(result.form)
            and _combo_matches(result, subspace))


def _conic_sweep_f2():
    searched = 0
    histogram = {}
    constructive = True
    witnesses_ok = True
    for rows in _rref_bases(4, 2):
        sub = ConicSubspace([_f2_form(r) for r in rows])
        searched += 1
        res = veronese.find_smooth_conic_details(sub)
        histogram[res.path] = histogram.get(res.path, 0) + 1
        constructive &= res.form is not None
        witnesses_ok &= _witness_ok(res, sub)
    sweep = {"searched": searched, "constructive": constructive, "witnesses": witnesses_ok}
    return sweep, histogram


def _random_conic_subspace(rng: random.Random, field) -> ConicSubspace:
    order = len(field)
    while True:
        rows = [QuadraticForm3(tuple(field[rng.randrange(order)] for _ in range(6)))
                for _ in range(4)]
        try:
            return ConicSubspace(rows)
        except ValueError:
            continue


def _conic_seeded_trials(rng: random.Random, trials: int):
    fields = (F2_ELEMENTS, F4_ELEMENTS)
    oracle_agreement = True
    witnesses_ok = True
    for t in range(trials):
        field = fields[t % 2]
        sub = _random_conic_subspace(rng, field)
        res = veronese.find_smooth_conic_details(sub)
        oracle = veronese.exhaustive_smooth_conic(sub)
        if (res.form is None) != (oracle is None):
            oracle_agreement = False
        witnesses_ok &= _witness_ok(res, sub)
    return [oracle_agreement, witnesses_ok]


def _veronese_points_ok(rng: random.Random, trials: int) -> bool:
    gens = veronese.veronese_ideal()
    done = 0
    while done < trials:
        pt = tuple(rng.randint(-9, 9) for _ in range(3))
        if not any(pt):
            continue
        done += 1
        image = veronese.veronese_map(pt)
        values = dict(zip(veronese.P5_VARS, image))
        if any(g.evaluate(values) for g in gens):
            return False
        if veronese.secant_stratum(image) != "OnVeronese":
            return False
    return True


def _minors_match_generators() -> bool:
    gens = veronese.veronese_ideal()
    minors = veronese.symmetric_matrix_minors()
    return (spans_contain(minors, gens) and spans_contain(gens, minors)
            and span_dimension(minors) == 6)


def _compute_veronese(config: RunConfig) -> dict:
    rng = random.Random(f"{config.seed}:veronese")
    bound = config.degree_bound
    # rows are computed per degree, so one run to max(bound, 6) gives both the
    # identity claim up to the bound and the six reported rows
    kernel_cfg = veronese.projection_kernel_certificate(max(bound, 6))
    rows6 = kernel_cfg.rows[:6]
    principal_cfg = veronese.projection_kernel_principal_certificate(bound)
    quotient6 = veronese.quotient_hilbert_comparison(rows6)
    choices = sorted(veronese.QUADRIC_CHOICES)
    split_default = {name: veronese.split_hyperplane_certificate(name) for name in choices}
    split_tilted = {name: veronese.split_hyperplane_certificate(name, avoided_divisor=(0, 2))
                    for name in choices}
    direct = split_default["x0x1+x2^2"]

    sweep, histogram = _conic_sweep_f2()
    # the seeded conic trials draw from rng before the seeded point checks
    conic_trials = _conic_seeded_trials(rng, config.trials)
    points_ok = _veronese_points_ok(rng, config.trials)

    slip_span = ConicSubspace([_f2_form(bits) for bits in (
        (0, 0, 0, 0, 0, 1),     # xy
        (0, 0, 0, 1, 0, 0),     # yz
        (0, 0, 0, 0, 1, 0),     # zx
        (1, 0, 0, 0, 0, 0))])   # x^2
    slip_result = veronese.find_smooth_conic_details(slip_span)
    slip_form = slip_result.form
    # the case split as printed would hand this span the singular member
    # x^2 + xy; record its smoothness verdict against the printed claim,
    # once the point scan and the closed form agree on it
    printed_member = _f2_form((1, 0, 0, 0, 0, 1))
    printed_smooth = veronese.is_smooth_conic(printed_member)
    if printed_smooth != veronese.smooth_conic_closed_form(printed_member):
        printed_smooth = "routes disagree"

    return {
        "veronese-ideal-generators": [_render_poly(g) for g in veronese.veronese_ideal()],
        "veronese-minors-span": _minors_match_generators(),
        "secant-cubic-determinant": veronese.secant_cubic_matches_determinant(),
        "secant-strata-samples": [veronese.secant_stratum(veronese.veronese_map((1, 2, 3))),
                                  veronese.secant_stratum((1, 1, 0, 0, 0, 0)),
                                  veronese.secant_stratum((1, 2, 3, 4, 5, 6))],
        "veronese-map-membership-seeded": points_ok,
        "projection-images": {name: [_render_poly(rf.num), _render_poly(rf.den)]
                              for name, rf in veronese.projection_images().items()},
        "projection-member-st-uz": kernel_cfg.memberships[1][1],
        "projection-member-s2-tu": kernel_cfg.memberships[0][1],
        "projection-identity-claim": all(r.identity_holds for r in kernel_cfg.rows[:bound]),
        "projection-degree-rows": [list(r) for r in rows6],
        "projection-image-dimension-d2": rows6[1].image_dim,
        "projection-principal-member": principal_cfg.membership_all,
        "projection-principal-identity": principal_cfg.identity_all,
        "quotient-hilbert-claim": all(r.equal for r in quotient6),
        "quotient-hilbert-rows": [list(r) for r in quotient6],
        "quadric-pencil-singular":
            veronese.quadric_pencil_singularity_certificate().singular_for_all,
        "split-hyperplane-direct": {
            "hyperplane": _render_poly(direct.hyperplane),
            "components": [[_render_poly(g) for g in component]
                           for component in (direct.component_a, direct.component_b)]},
        "split-hyperplane-direct-identity": [split_default[name].all_equal for name in choices],
        "split-hyperplane-tilted-choice": _render_poly(split_tilted["x0x1+x2^2"].hyperplane),
        "split-hyperplane-tilted-identity": [split_tilted[name].all_equal for name in choices],
        "conic-subspaces-f2-sweep": sweep,
        "conic-path-histogram-f2": histogram,
        "conic-seeded-oracle-agreement": conic_trials,
        "conic-case-split-regression": printed_smooth,
        "conic-case-split-corrected": {
            "path": slip_result.path,
            "smooth": slip_form is not None and veronese.smooth_conic_closed_form(slip_form),
            "nonzero": None if slip_form is None else [bool(c) for c in slip_form.coeffs]},
    }


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


def _compute_hodge(config: RunConfig) -> dict:
    omega2 = hodge.omega2_p3_certificate()
    quartic_curve = [_binary_form({"s^4": 1}), _binary_form({"s^3*t": 1}),
                     _binary_form({"s*t^3": 1}), _binary_form({"t^4": 1})]
    line_curve = [_binary_form({"s": 1}), _binary_form({"t": 1}),
                  Polynomial.zero(hodge.CURVE_VARS), Polynomial.zero(hodge.CURVE_VARS)]
    cis = {name: hodge.CIData(n, degs) for name, n, degs in _FANO_CIS}
    diamonds = {name: hodge.ci_hodge_diamond(ci) for name, ci in cis.items()}
    return {
        "chi-pn-samples": [[d, n, hodge.chi_pn(d, n)]
                           for d, n in ((3, 3), (-1, 3), (-4, 3), (0, 5))],
        "omega2-p3-twist3-sections": omega2.kernel_dim,
        "omega2-p3-intermediate-dims": [omega2.source_dim, omega2.target_dim, omega2.rank],
        "omega2-p3-basis": [omega2.basis_independent, omega2.basis_in_kernel,
                            omega2.blockwise_count],
        "omega2-vanishing-quartic": hodge.omega2_vanishing_on_curve(quartic_curve),
        "omega2-vanishing-line": hodge.omega2_vanishing_on_curve(line_curve),
        "h0-omega-samples": [hodge.h0_omega_p(1, 0, 3), hodge.h0_omega_p(1, 2, 3)],
        "bott-grid-agreement": _bott_grid_ok(),
        **{f"diamond-{name}": [d.h(1, 1), d.h(1, 2)] for name, d in diamonds.items()},
        "diamond-h0j-vanishing": all(d.h(0, 0) == 1 and d.h(0, 1) == 0 and d.h(0, 2) == 0
                                     for d in diamonds.values()),
        "diamond-h03-fano": all(d.h(0, 3) == 0 for d in diamonds.values()),
        "diamond-serre": all(d.h(p, q) == d.h(3 - p, 3 - q)
                             for d in diamonds.values() for p in range(4) for q in range(4)),
        "euler-cubic": diamonds["cubic"].euler_number(),
        "chi-omega1-koszul": all(hodge.chi_omega1_ci(ci) == hodge.chi_omega1_ci_koszul(ci)
                                 for ci in cis.values()),
    }


# ---------------------------------------------------------------------------
# suite: numerology
# ---------------------------------------------------------------------------


def _compute_numerology(config: RunConfig) -> dict:
    def solutions(*window):
        return sorted(list(s) for s in numerology.p_divisibility_solutions(*window))

    return {
        "delta-genus-double-cover": numerology.delta_genus(3, 5, 8),
        "delta-genus-veronese": numerology.delta_genus(2, 4, 6),
        "projection-degree-forcing": list(numerology.admissible_projection_degrees()),
        "divisibility-window": solutions(GENUS_MIN, GENUS_MAX, EXCLUDED_GENUS),
        "divisibility-empty-window": solutions(3, 3),
        "divisibility-single-window": solutions(5, 5),
        "scroll-degree": numerology.scroll_degree((0, 1, 4)),
        "scroll-degree-zero": numerology.scroll_degree((0,)),
        "scroll-splittings-5": sorted(list(s) for s in numerology.scroll_splittings(5)),
        "g10-obstruction": list(numerology.g10_obstruction()),
        "g9-divisor2-variant": list(numerology.divisibility_obstruction(9, 2)),
        "obstruction-linear-form": all(numerology.divisibility_obstruction(g, 3)[0] == 2 * g - 4
                                       for g in range(3, 13)),
        "surface-rr-parity": [numerology.surface_rr_parity(k) for k in (4, 2, 3)],
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


_COMPUTE = {
    "schubert": _compute_schubert,
    "toric": _compute_toric,
    "veronese": _compute_veronese,
    "hodge": _compute_hodge,
    "numerology": _compute_numerology,
}


def run_suite(name: str, config: RunConfig | None = None) -> Report:
    """Run one suite's compute function (or every suite's, in table order),
    check that it computed a value for exactly the ids its claims list, and
    judge every claim; certificates are ordered by id."""
    config = config or RunConfig()
    if name != "all" and name not in _CLAIMS:
        raise ValueError(f"unknown suite: {name}")
    judged = []
    for suite, claims in _CLAIMS.items():
        if name not in ("all", suite):
            continue
        values = _COMPUTE[suite](config)
        unmatched = {row[0] for row in claims} ^ values.keys()
        if unmatched:
            raise ValueError(f"suite {suite}: claims and computed values differ "
                             f"at certificate id: {min(unmatched)}")
        judged.extend((row, values[row[0]]) for row in claims)
    certs = []
    for (cert_id, provenance, expected, discrepancy, description), computed in judged:
        certs.append(make_certificate(cert_id, description, provenance, expected, computed,
                                      discrepancy))
    certs.sort(key=lambda c: c.id)
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


def _run_command(args, parser) -> int:
    try:
        config = RunConfig(seed=args.seed, trials=args.trials,
                           degree_bound=args.degree_bound)
    except ValueError as e:
        parser.error(str(e))
    report = run_suite(args.suite, config)
    rendered = render_json(report) if args.fmt == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.counts()["fail"] == 0 else 1


def _fan_check_command(args, parser) -> int:
    try:
        report = check_fan(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(render_fan_check(report))
    return 0


@functools.cache
def _build_parser() -> tuple:
    """(full parser, {command words: leaf subparser}), built on the first
    `main` call and reused: building costs far more than a parse, and
    parsing keeps no state between calls.  Each leaf names its handler as
    the `handler` default."""
    parser = argparse.ArgumentParser(
        prog="certify",
        description="Run exact-arithmetic certificate suites and validate fan files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a certificate suite")
    run_parser.add_argument("suite", choices=(*_CLAIMS, "all"))
    run_parser.add_argument("--format", dest="fmt", choices=("json", "text"),
                            default="text", help="report rendering (default text)")
    defaults = RunConfig()
    run_parser.add_argument("--seed", type=int, default=defaults.seed)
    run_parser.add_argument("--trials", type=int, default=defaults.trials,
                            help=f"seeded trials per randomized check (0 to {MAX_TRIALS})")
    run_parser.add_argument("--degree-bound", type=int, default=defaults.degree_bound,
                            help=f"top degree of the kernel certificates (2 to {MAX_DEGREE_BOUND})")
    run_parser.add_argument("--out", default=None,
                            help="write the report to a file instead of stdout")
    run_parser.set_defaults(handler=_run_command)

    fan_parser = sub.add_parser("fan", help="fan file utilities")
    fan_sub = fan_parser.add_subparsers(dest="fan_command", required=True)
    check_parser = fan_sub.add_parser("check", help="validate a fan file")
    check_parser.add_argument("file")
    check_parser.set_defaults(handler=_fan_check_command)
    return parser, {("run",): run_parser, ("fan", "check"): check_parser}


def main(argv=None) -> int:
    """Parse a line that starts with a leaf's command words with that leaf
    alone, and any other line, or one the leaf leaves words of, with the
    full parser, which reports it as a fresh process would."""
    parser, leaves = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    for words, leaf in leaves.items():
        if tuple(argv[:len(words)]) == words:
            args, rest = leaf.parse_known_args(argv[len(words):])
            if not rest:
                return args.handler(args, parser)
            break
    args = parser.parse_args(argv)
    return args.handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
