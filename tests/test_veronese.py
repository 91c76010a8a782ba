"""Veronese surface computations: ideal, secant stratification, the
projection kernel, singular quadrics, hyperplane splittings, and the
characteristic-two smooth-conic search."""

import copy
import itertools
import json
import math
import pathlib
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certkit import exactcore, veronese
from certkit.certify_cli import _combo_matches, _rref_bases, _witness_ok
from certkit.exactcore import (
    F2_ELEMENTS,
    F4_ELEMENTS,
    Fp,
    Polynomial,
    poly_from_string_exps,
    span_dimension,
    spans_contain,
)
from certkit.veronese import (
    ConicSubspace,
    QuadraticForm3,
    exhaustive_smooth_conic,
    find_smooth_conic_details,
    is_smooth_conic,
    proposed_kernel_generators,
    principal_kernel_generator,
    projection_images,
    projection_kernel_certificate,
    projection_kernel_principal_certificate,
    quadric_pencil_singularity_certificate,
    quotient_hilbert_comparison,
    secant_cubic_matches_determinant,
    secant_stratum,
    smooth_conic_closed_form,
    split_hyperplane_certificate,
    symmetric_matrix_minors,
    veronese_ideal,
    veronese_map,
)

P5 = veronese.P5_VARS


def p5(data):
    return poly_from_string_exps(P5, {k: Fraction(v) for k, v in data.items()})


# ---------------------------------------------------------------------------
# ideal and secant stratification
# ---------------------------------------------------------------------------


def test_ideal_generators_verbatim():
    expected = [
        p5({"x*y": 1, "u^2": -1}),
        p5({"y*z": 1, "s^2": -1}),
        p5({"x*z": 1, "t^2": -1}),
        p5({"x*s": 1, "t*u": -1}),
        p5({"y*t": 1, "s*u": -1}),
        p5({"z*u": 1, "s*t": -1}),
    ]
    assert veronese_ideal() == expected


def test_minors_span_equals_ideal_span():
    gens = veronese_ideal()
    minors = symmetric_matrix_minors()
    assert len(minors) == 9
    assert spans_contain(minors, gens)
    assert spans_contain(gens, minors)
    assert span_dimension(minors) == 6


def test_secant_cubic_is_symmetric_determinant():
    assert secant_cubic_matches_determinant()


def test_secant_strata_samples():
    assert secant_stratum(veronese_map((1, 2, 3))) == "OnVeronese"
    assert secant_stratum((1, 1, 0, 0, 0, 0)) == "OnSecantOnly"
    assert secant_stratum((1, 2, 3, 4, 5, 6)) == "Generic"


def test_veronese_points_satisfy_ideal_seeded():
    rng = random.Random("veronese-points")
    gens = veronese_ideal()
    count = 0
    while count < 200:
        pt = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        if not any(pt):
            continue
        count += 1
        image = veronese_map(pt)
        values = dict(zip(P5, image))
        assert all(g.evaluate(values) == 0 for g in gens)
        assert secant_stratum(image) == "OnVeronese"


def test_rank_two_sums_land_on_secant():
    rng = random.Random("secant-sums")
    for _ in range(60):
        p = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        q = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        if not any(p) or not any(q):
            continue
        # skip proportional pairs, their sum stays on the surface
        if p[0] * q[1] == p[1] * q[0] and p[1] * q[2] == p[2] * q[1] \
                and p[0] * q[2] == p[2] * q[0]:
            continue
        total = tuple(a + b for a, b in zip(veronese_map(p), veronese_map(q)))
        assert secant_stratum(total) in ("OnSecantOnly", "OnVeronese")


STRATUM_OF_RANK = {1: "OnVeronese", 2: "OnSecantOnly", 3: "Generic"}


@st.composite
def _p5_points(draw):
    """A nonzero point of P^5: any entries in -3..3, a Veronese image
    (rank 1) or a signed sum of two images (rank at most 2); kept as ints,
    or over one common denominator, which keeps the rank, or with each entry
    over its own."""
    small = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
    kind = draw(st.sampled_from(("any", "image", "sum")))
    if kind == "any":
        point = draw(st.tuples(*[st.integers(-3, 3)] * 6))
    elif kind == "image":
        point = veronese_map(draw(small))
    else:
        sign = draw(st.sampled_from((1, -1)))
        point = tuple(a + sign * b for a, b in zip(veronese_map(draw(small)),
                                                   veronese_map(draw(small))))
    assume(any(point))
    record = draw(st.sampled_from(("int", "common", "own")))
    if record == "common":
        k = draw(st.integers(2, 4))
        point = tuple(Fraction(v, k) for v in point)
    elif record == "own":
        point = tuple(Fraction(v, draw(st.integers(1, 4))) for v in point)
    return point


@settings(max_examples=300, deadline=None)
@given(_p5_points())
def test_secant_stratum_matches_matrix_rank(point):
    # the closed-form rank agrees with elimination on the symmetric matrix
    x, y, z, s, t, u = point
    rank = exactcore.matrix_rank([[x, u, t], [u, y, s], [t, s, z]])
    assert secant_stratum(point) == STRATUM_OF_RANK[rank]


def test_secant_stratum_rejects_inexact_and_zero_points():
    for bad in ((0.5, 1, 1, 1, 0, 1), (True, 1, 0, 0, 0, 0), (1, 0, 0, "1", 0, 0),
                (0,) * 6, (0, Fraction(0), 0, 0, 0, 0)):
        with pytest.raises(ValueError):
            secant_stratum(bad)
    for bad in ((1, 2, 3), (1, 2, 3, 4, 5, 6, 7)):
        with pytest.raises(ValueError, match=re.escape(f"point must have 6 coordinates: {bad}")):
            secant_stratum(bad)


def test_veronese_map_keeps_its_input_exact_type():
    image = veronese_map((1, -2, 3))
    assert image == (1, 4, 9, -6, 3, -2)
    assert all(type(v) is int for v in image)
    for pt in ((Fraction(1), Fraction(-2), Fraction(3)), (1, Fraction(-2), 3),
               (Fraction(1, 2), 0, 0)):
        image = veronese_map(pt)
        assert all(type(v) is Fraction for v in image)
        assert image == tuple(Fraction(v) for v in veronese_map(tuple(Fraction(c) for c in pt)))
    for bad in ((0.5, 1, 1), (1, True, 1), (1, 1, "1"), (0, 0, 0), (0, Fraction(0), 0)):
        with pytest.raises(ValueError):
            veronese_map(bad)
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=re.escape(f"point must have 3 coordinates: {bad}")):
            veronese_map(bad)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-50, 50)] * 3))
def test_generators_vanish_alike_on_int_and_fraction_images(pt):
    assume(any(pt))
    image = veronese_map(pt)
    as_fractions = dict(zip(P5, (Fraction(v) for v in image)))
    for g in veronese_ideal():
        value = g.evaluate(dict(zip(P5, image)))
        assert value == 0 and type(value) is int
        assert g.evaluate(as_fractions) == value


# ---------------------------------------------------------------------------
# projection kernel
# ---------------------------------------------------------------------------


def test_projection_images_chart_formulas():
    from certkit.exactcore import RationalFunction
    tu = veronese.CHART_VARS
    one = Polynomial.constant(tu, Fraction(1))
    u = Polynomial.variable("u", tu)
    t = Polynomial.variable("t", tu)
    den = one - u * u
    images = projection_images()
    assert images["Z"] == RationalFunction(t * t, den)
    assert images["S"] == RationalFunction(t * u, den)
    assert images["T"] == RationalFunction(t, den)
    assert images["U"] == RationalFunction(u, den)


KERNEL_ROWS = (
    (1, 0, 4, 4, True),
    (2, 2, 9, 10, False),
    (3, 8, 16, 20, False),
    (4, 19, 25, 35, False),
    (5, 36, 36, 56, False),
    (6, 60, 49, 84, False),
)


def test_kernel_certificate_memberships_and_rows():
    cert = projection_kernel_certificate(6)
    assert [ok for _, ok in cert.memberships] == [False, True]
    assert not cert.membership_all
    assert not cert.identity_all
    assert tuple(tuple(r) for r in cert.rows) == KERNEL_ROWS


def test_kernel_certificate_degree_bound_validation():
    with pytest.raises(ValueError):
        projection_kernel_certificate(1)


def test_principal_kernel_certificate_is_clean():
    cert = projection_kernel_principal_certificate(6)
    assert cert.membership_all
    assert cert.identity_all
    g = principal_kernel_generator()
    assert g == poly_from_string_exps(veronese.KERNEL_VARS,
                                      {"S*T": Fraction(1), "U*Z": Fraction(-1)})


def test_numerator_memberships_match_substitution():
    # every chart image has the denominator 1 - u^2, so a homogeneous
    # generator maps to zero exactly when its numerator is zero
    K = veronese.KERNEL_VARS
    images = projection_images()
    linear = poly_from_string_exps(K, {"S": 3, "U": -1})
    gens = proposed_kernel_generators() + [
        linear, principal_kernel_generator() * linear,
        poly_from_string_exps(K, {"S*T*U": 1, "Z*U^2": -1}),
        poly_from_string_exps(K, {"Z*U^2": 1, "S^2*T": -1}),
        poly_from_string_exps(K, {"Z*U": 1, "S*T": -1, "T*U": 2})]
    for g in gens:
        by_numerator = veronese._image_numerator(g).is_zero()
        assert by_numerator == exactcore.poly_substitute(g, images).is_zero()
        cert = veronese._kernel_certificate([g], 2)
        assert cert.memberships == ((repr(g), by_numerator),)
    assert [veronese._image_numerator(g).is_zero() for g in gens] == \
        [False, True, False, True, True, False, False]


def test_kernel_certificate_rejects_inhomogeneous_generator():
    # Z - T^2 has the zero numerator t^2 - t^2, but its image
    # t^2 / (1 - u^2) - t^2 / (1 - u^2)^2 is not zero
    g = poly_from_string_exps(veronese.KERNEL_VARS, {"Z": 1, "T^2": -1})
    assert veronese._image_numerator(g).is_zero()
    assert not exactcore.poly_substitute(g, projection_images()).is_zero()
    with pytest.raises(ValueError, match="inhomogeneous"):
        veronese._kernel_certificate([g], 2)


QUOTIENT_ROWS = (
    (0, 1, 1, True),
    (1, 4, 4, True),
    (2, 8, 8, True),
    (3, 12, 13, False),
    (4, 16, 19, False),
    (5, 20, 26, False),
    (6, 24, 34, False),
)


def test_quotient_hilbert_rows():
    rows = quotient_hilbert_comparison(projection_kernel_certificate(6).rows)
    assert tuple(tuple(r) for r in rows) == QUOTIENT_ROWS
    for r in rows:
        assert r.claimed_dim == (r.degree + 2) * (r.degree + 1) // 2 + r.degree


def test_kernel_dimensions_follow_closed_forms_through_degree_12():
    # the pair leaves a 4d-dimensional quotient in each degree d >= 1, the
    # principal ideal is its quadric times every monomial of degree d - 2,
    # and the images t^(2a+b+c) u^(b+e) are (d+1)^2 distinct monomials
    pair = projection_kernel_certificate(12).rows
    principal = projection_kernel_principal_certificate(12).rows
    assert [r.degree for r in pair] == [r.degree for r in principal] == list(range(1, 13))
    for r in pair:
        d = r.degree
        assert r.ideal_dim == math.comb(d + 3, 3) - 4 * d
        assert r.image_dim == (d + 1) ** 2
    for r in principal:
        d = r.degree
        assert r.ideal_dim == math.comb(d + 1, 3)
        assert r.image_dim == (d + 1) ** 2
    quotient = quotient_hilbert_comparison(pair)
    assert [r.degree for r in quotient] == list(range(13))
    for r in quotient:
        assert r.quotient_dim == (4 * r.degree if r.degree else 1)


def test_proposed_generators_shape():
    g1, g2 = proposed_kernel_generators()
    assert g1 == poly_from_string_exps(veronese.KERNEL_VARS,
                                       {"S^2": Fraction(1), "T*U": Fraction(-1)})
    assert g2 == principal_kernel_generator()


# ---------------------------------------------------------------------------
# singular quadrics and splittings
# ---------------------------------------------------------------------------


def test_pencil_is_singular_at_projection_point():
    verdict = quadric_pencil_singularity_certificate()
    assert verdict.partials_zero
    assert verdict.value_zero
    assert verdict.singular_for_all


def test_split_default_hyperplane():
    for choice in ("x0x1+x2^2", "x0x1+x2x3"):
        v = split_hyperplane_certificate(choice)
        x2 = Polynomial.variable("x2", veronese.P4_VARS)
        assert v.hyperplane == x2
        assert v.containment_ok
        assert v.all_equal
        assert all(r.equal for r in v.rows)


def test_split_default_components_choice_one():
    v = split_hyperplane_certificate("x0x1+x2^2")
    x0 = Polynomial.variable("x0", veronese.P4_VARS)
    x1 = Polynomial.variable("x1", veronese.P4_VARS)
    x2 = Polynomial.variable("x2", veronese.P4_VARS)
    assert list(v.component_a) == [x0, x2]
    assert list(v.component_b) == [x1, x2]


def test_split_tilted_avoids_marked_plane():
    x0 = Polynomial.variable("x0", veronese.P4_VARS)
    x1 = Polynomial.variable("x1", veronese.P4_VARS)
    x2 = Polynomial.variable("x2", veronese.P4_VARS)
    avoided = [x0, x2]
    for choice in ("x0x1+x2^2", "x0x1+x2x3"):
        v = split_hyperplane_certificate(choice, avoided_divisor=(0, 2))
        assert v.hyperplane == x1 - x2
        assert v.all_equal
        for comp in (v.component_a, v.component_b):
            union_dim = span_dimension(list(comp) + avoided)
            assert union_dim > 2  # component plane differs from the avoided one


def test_split_rejects_unknown_choice():
    with pytest.raises(ValueError, match="unknown quadric choice"):
        split_hyperplane_certificate("x0^2")


@pytest.mark.parametrize("avoided", [
    (9, 9), "02", (0, 1), (2,), (0, 2, 1), (0.0, 2), (False, 2), 2, frozenset(),
    (1, 2), [1, 2], (2, 1), {1, 2},
])
def test_split_rejects_unknown_avoided_divisor(avoided):
    # the pair {1, 2} gave a tilted split whose first component is the plane
    # V(x1, x2) itself; each other value gave the untilted hyperplane x2 as
    # if none were given
    with pytest.raises(ValueError, match="avoided divisor must be"):
        split_hyperplane_certificate("x0x1+x2^2", avoided_divisor=avoided)


def test_split_tilts_for_the_plane_x0_x2_in_any_order():
    tilted = split_hyperplane_certificate("x0x1+x2x3", avoided_divisor=(0, 2))
    for avoided in ((2, 0), [0, 2], {0, 2}, frozenset({0, 2})):
        v = split_hyperplane_certificate("x0x1+x2x3", avoided_divisor=avoided)
        assert v == tilted


# ---------------------------------------------------------------------------
# smooth conics in characteristic two
# ---------------------------------------------------------------------------


def form(bits, field=F2_ELEMENTS):
    zero, one = field[0], field[1]
    return QuadraticForm3(tuple(one if b else zero for b in bits))


def test_smooth_and_singular_conics_f2():
    assert is_smooth_conic(form((0, 0, 1, 0, 0, 1)))   # xy + z^2
    assert not is_smooth_conic(form((1, 0, 0, 0, 0, 0)))  # x^2
    assert not is_smooth_conic(form((0, 0, 0, 0, 0, 1)))  # xy


def test_smooth_and_singular_conics_f4():
    assert is_smooth_conic(form((0, 0, 1, 0, 0, 1), F4_ELEMENTS))
    assert not is_smooth_conic(form((1, 0, 0, 0, 0, 0), F4_ELEMENTS))
    assert not is_smooth_conic(form((0, 0, 0, 0, 0, 1), F4_ELEMENTS))


def test_closed_form_matches_literal_f2_exhaustive():
    zero, one = F2_ELEMENTS
    for bits in itertools.product((0, 1), repeat=6):
        if not any(bits):
            continue
        q = form(bits)
        assert smooth_conic_closed_form(q) == is_smooth_conic(q)


def test_closed_form_matches_literal_f4_exhaustive():
    for coeffs in itertools.product(F4_ELEMENTS, repeat=6):
        if not any(coeffs):
            continue
        q = QuadraticForm3(coeffs)
        assert smooth_conic_closed_form(q) == is_smooth_conic(q)


def test_conic_subspace_validation():
    with pytest.raises(ValueError, match="empty basis"):
        ConicSubspace([])
    a = form((1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="not linearly independent"):
        ConicSubspace([a, a])


def test_conic_subspace_copies_and_pickles_from_its_basis():
    # `q` and `rows` are read off the basis, which alone rebuilds a copy
    sub = ConicSubspace([form(r) for r in next(_f2_subspaces())])
    for twin in (copy.copy(sub), copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        assert twin == sub and type(twin) is ConicSubspace


def _f2_subspaces():
    """Reduced-row-echelon bases of all 4-dimensional coefficient subspaces."""
    return _rref_bases(4, 2)


EXPECTED_HISTOGRAM = {
    "normalized-member-smooth": 213,
    "yz-member-smooth": 164,
    "diagonal-plus-xy": 146,
    "diagonal-plus-yz": 65,
    "zx-member-smooth": 45,
    "diagonal-plus-zx": 12,
    "case-all-squares": 6,
}


def test_full_f2_sweep_is_constructive():
    histogram = {}
    count = 0
    for rows in _f2_subspaces():
        count += 1
        sub = ConicSubspace([form(r) for r in rows])
        res = find_smooth_conic_details(sub)
        histogram[res.path] = histogram.get(res.path, 0) + 1
        assert res.form is not None
        assert is_smooth_conic(res.form)
        assert _combo_matches(res, sub)
    assert count == 651
    assert histogram == EXPECTED_HISTOGRAM


def test_f2_sweep_eliminates_once_past_the_normalized_member(monkeypatch):
    """The search eliminates on codes at most once per subspace: one
    `_echelon` call on every path past the normalized member, none on
    `normalized-member-smooth`, and no public matrix_rank or solve call."""
    calls = []
    real = veronese._echelon

    def counting(rows, order, field):
        assert field is exactcore._CODES
        calls.append(1)
        return real(rows, order, field)

    def forbidden(*args):
        raise AssertionError("the search called a public elimination")

    subspaces = [ConicSubspace([form(r) for r in rows]) for rows in _f2_subspaces()]
    monkeypatch.setattr(veronese, "_echelon", counting)
    for module in (veronese, exactcore):
        monkeypatch.setattr(module, "matrix_rank", forbidden)
    monkeypatch.setattr(exactcore, "solve", forbidden)
    paths = {}
    for sub in subspaces:
        before = len(calls)
        res = find_smooth_conic_details(sub)
        assert len(calls) - before == (res.path != "normalized-member-smooth")
        paths[res.path] = paths.get(res.path, 0) + 1
    assert paths == EXPECTED_HISTOGRAM
    assert len(calls) == 651 - paths["normalized-member-smooth"] == 438


EXPECTED_F4_HISTOGRAMS = {
    5: {
        "yz-member-smooth": 720,
        "diagonal-plus-yz": 205,
        "normalized-member-smooth": 144,
        "zx-member-smooth": 144,
        "diagonal-plus-xy": 83,
        "diagonal-plus-zx": 48,
        "case-all-squares": 21,
    },
    6: {"case-all-squares": 1},
}


@pytest.mark.parametrize("dim", [5, 6])
def test_full_f4_sweep_is_constructive(dim):
    """Every F4 subspace of dimension 5 (1,365) and 6 (one): the search
    takes every path, and the split names a smooth member every time."""
    histogram = {}
    for rows in _rref_bases(dim, 4):
        sub = ConicSubspace([QuadraticForm3(F4_ELEMENTS[c] for c in r) for r in rows])
        res = find_smooth_conic_details(sub)
        histogram[res.path] = histogram.get(res.path, 0) + 1
        assert res.form is not None
        assert is_smooth_conic(res.form)
        assert _combo_matches(res, sub)
    assert histogram == EXPECTED_F4_HISTOGRAMS[dim]


def test_search_reports_a_failed_split_and_never_scans(monkeypatch):
    """The search has one route: a split that names nothing, a singular
    member or the zero member gives (None, "split-failed", None), and the
    exhaustive scan is never run in its place."""
    sub = ConicSubspace([form(r) for r in next(_f2_subspaces())])
    assert exhaustive_smooth_conic(sub) is not None

    def forbidden(subspace):
        raise AssertionError("the search ran the exhaustive scan")

    monkeypatch.setattr(veronese, "exhaustive_smooth_conic", forbidden)
    # the first echelon basis starts with x^2 alone, a singular member
    for split in (None, ([1, 0, 0, 0], "normalized-member-smooth"),
                  ([0, 0, 0, 0], "case-all-squares")):
        monkeypatch.setattr(veronese, "_case_split", lambda rows: split)
        assert find_smooth_conic_details(sub) == (None, "split-failed", None)


def test_case_split_names_a_smooth_member_of_random_code_bases():
    """The echelon-basis sweeps see one basis per subspace; the seeded
    trials draw arbitrary ones.  On 3,000 seeded independent code bases of
    dimension 4 to 6 over F2 and F4, the split names a member that the
    point test and the closed form both call smooth."""
    rng = random.Random("case-split-random-bases")
    done = 0
    while done < 3000:
        q = (2, 4)[done % 2]
        dim = 4 + done % 3
        rows = [[rng.randrange(q) for _ in range(6)] for _ in range(dim)]
        sparse = [{k: c for k, c in enumerate(r) if c} for r in rows]
        if len(exactcore._echelon(sparse, range(6), exactcore._CODES)[1]) < dim:
            continue
        done += 1
        split = veronese._case_split(rows)
        assert split is not None, rows
        member = veronese._combine(split[0], rows)
        assert veronese._smooth(member, veronese._PLANE_POINTS[q]), (rows, split)
        field = F2_ELEMENTS if q == 2 else F4_ELEMENTS
        assert smooth_conic_closed_form(QuadraticForm3(field[c] for c in member))


def _random_subspace(rng, field, dim=4):
    order = len(field)
    while True:
        rows = [QuadraticForm3(tuple(field[rng.randrange(order)] for _ in range(6)))
                for _ in range(dim)]
        try:
            return ConicSubspace(rows)
        except ValueError:
            continue


@pytest.mark.parametrize("field_name", ["f2", "f4"])
def test_seeded_subspaces_agree_with_oracle(field_name):
    field = F2_ELEMENTS if field_name == "f2" else F4_ELEMENTS
    rng = random.Random(f"conic-{field_name}")
    for _ in range(150):
        sub = _random_subspace(rng, field)
        res = find_smooth_conic_details(sub)
        oracle = exhaustive_smooth_conic(sub)
        assert (res.form is None) == (oracle is None)
        if res.form is not None:
            assert is_smooth_conic(res.form)
            assert _combo_matches(res, sub)


@pytest.mark.parametrize("field_name", ["f2", "f4"])
def test_witness_check_rejects_tampered_witnesses(field_name):
    if field_name == "f2":
        field, other = F2_ELEMENTS, F4_ELEMENTS
        sub = ConicSubspace([form(r) for r in next(_f2_subspaces())])
    else:
        field, other = F4_ELEMENTS, F2_ELEMENTS
        sub = _random_subspace(random.Random("witness-check"), F4_ELEMENTS)
    res = find_smooth_conic_details(sub)
    assert _combo_matches(res, sub)
    flipped_combo = (res.combo[0] + 1,) + res.combo[1:]
    coeffs = res.form.coeffs
    flipped_form = QuadraticForm3((coeffs[0] + 1,) + coeffs[1:])
    tampered = {
        # an unguarded zip over the columns truncates this one away
        "extra-coefficient": res._replace(combo=res.combo + (field[1],)),
        "combo-coefficient-flipped": res._replace(combo=flipped_combo),
        "form-coefficient-flipped": res._replace(form=flipped_form),
        # an unguarded sum of F4 and Fp elements raises TypeError on this one
        "other-field-combo": res._replace(
            combo=tuple(other[c.c % len(other)] for c in res.combo)),
    }
    for name, bad in tampered.items():
        assert not _combo_matches(bad, sub), name
    # the witness's own codes in the other field: codes alone cannot tell
    # F2's 1 from F4's 1, so only the type check rejects this one.  F2 has
    # only the codes 0 and 1, so it runs on the first echelon basis
    # written in `field`
    sub01 = ConicSubspace([form(r, field) for r in next(_f2_subspaces())])
    res01 = find_smooth_conic_details(sub01)
    twin = QuadraticForm3(other[c.c] for c in res01.form.coeffs)
    assert [c.c for c in twin.coeffs] == [c.c for c in res01.form.coeffs]
    assert _combo_matches(res01, sub01)
    assert not _combo_matches(res01._replace(form=twin), sub01), "other-field-form"


def test_witness_check_does_no_element_arithmetic(monkeypatch):
    """The witness check re-adds on GF(4) codes: with element addition and
    multiplication made to raise, it still accepts every witness of the F2
    sweep and of seeded F4 subspaces."""
    rng = random.Random("witness-codes")
    subs = [ConicSubspace([form(r) for r in rows]) for rows in _f2_subspaces()]
    subs += [_random_subspace(rng, F4_ELEMENTS, dim) for dim in (4, 5, 6) for _ in range(20)]
    results = [find_smooth_conic_details(sub) for sub in subs]

    def forbidden(self, other):
        raise AssertionError("the witness check did element arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(exactcore._Char2, name, forbidden)
    assert all(_combo_matches(res, sub) for res, sub in zip(results, subs))


def _substitute(vec, sub):
    """The generic x_i -> sum_j sub[i][j] x_j on the six form codes of a code
    row, one 3x3 product per slot; the reference for the closed forms."""
    pair_slot = ((0, 5, 4), (5, 1, 3), (4, 3, 2))   # slot of x_i x_j
    out = [0] * 6
    for slot, (v1, v2) in enumerate(veronese._SLOT_VARS):
        coeff = vec[slot]
        if not coeff:
            continue
        l1 = [exactcore.GF4_MUL[coeff][c] for c in sub[v1]]
        l2 = sub[v2]
        for i in range(3):
            m = exactcore.GF4_MUL[l1[i]]
            for j in range(3):
                out[pair_slot[i][j]] ^= m[l2[j]]
    return out + vec[6:]


def test_closed_form_coordinate_changes_match_generic_substitution():
    """Every F4 form, with a combination tail, under the 16 z-shears, the 4
    y-shears and the 3 swaps: the closed forms of the case split give what
    the generic substitution gives."""
    changes = [(lambda v, a=a, b=b: veronese._shear_z(v, a, b),
                ((1, 0, a), (0, 1, b), (0, 0, 1))) for a in range(4) for b in range(4)]
    changes += [(lambda v, g=g: veronese._shear_y(v, g), ((1, 0, 0), (g, 1, 0), (0, 0, 1)))
                for g in range(4)]
    changes += [(lambda v, perm=perm: veronese._swap(v, perm), sub) for perm, sub in (
        (veronese._SWAP_YZ, ((1, 0, 0), (0, 0, 1), (0, 1, 0))),
        (veronese._SWAP_XZ, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
        (veronese._SWAP_XY, ((0, 1, 0), (1, 0, 0), (0, 0, 1))))]
    for codes in itertools.product(range(4), repeat=6):
        vec = list(codes) + [3, 1]
        for closed, sub in changes:
            assert closed(vec) == _substitute(vec, sub), (codes, sub)


def test_both_smoothness_routes_refuse_the_zero_form():
    for field in (F2_ELEMENTS, F4_ELEMENTS):
        zero = form((0,) * 6, field)
        for route in (is_smooth_conic, smooth_conic_closed_form):
            with pytest.raises(ValueError, match="zero form"):
                route(zero)


def test_witness_check_rejects_a_zero_form_without_raising():
    sub = ConicSubspace([form(r) for r in next(_f2_subspaces())])
    res = find_smooth_conic_details(sub)
    zero = res._replace(form=form((0,) * 6), combo=(F2_ELEMENTS[0],) * 4)
    assert _combo_matches(zero, sub)
    assert not _witness_ok(zero, sub)
    assert _witness_ok(res, sub)


def test_case_split_regression_span():
    sub = ConicSubspace([
        form((0, 0, 0, 0, 0, 1)),  # xy
        form((0, 0, 0, 1, 0, 0)),  # yz
        form((0, 0, 0, 0, 1, 0)),  # zx
        form((1, 0, 0, 0, 0, 0)),  # x^2
    ])
    res = find_smooth_conic_details(sub)
    assert res.path == "diagonal-plus-yz"
    assert res.form == form((1, 0, 0, 1, 0, 0))  # x^2 + yz
    assert is_smooth_conic(res.form)
    # the branch as printed would hand back x^2 + xy, which is singular
    assert not is_smooth_conic(form((1, 0, 0, 0, 0, 1)))


WITNESSES = pathlib.Path(__file__).parent / "data" / "conic_witnesses.json"


def _codes(values, field):
    """Index of each value in the field tuple, which is its GF(4) code."""
    assert all(type(x) is type(field[0]) for x in values)
    return [field.index(x) for x in values]


def test_search_reproduces_recorded_witnesses():
    """conic_witnesses.json was recorded from the element-object search that
    preceded the GF(4)-code one: the 651 subspaces of the F2 sweep, 300
    seeded F2/F4 subspaces of dimension 4 to 6, and 60 of dimension 1 to 3
    (oracle only).  Entries are GF(4) codes."""
    entries = json.loads(WITNESSES.read_text(encoding="utf-8"))
    assert len(entries) == 1011
    for e in entries:
        field = F2_ELEMENTS if e["q"] == 2 else F4_ELEMENTS
        sub = ConicSubspace([QuadraticForm3(field[c] for c in r) for r in e["basis"]])
        oracle = exhaustive_smooth_conic(sub)
        assert (None if oracle is None else _codes(oracle.coeffs, field)) == e["oracle"]
        if e["path"] is None:
            continue
        res = find_smooth_conic_details(sub)
        assert res.path == e["path"]
        assert _codes(res.combo, field) == e["combo"]
        assert _codes(res.form.coeffs, field) == e["form"]


F2_FORM = (1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ConicSubspace([QuadraticForm3(map(Fraction, F2_FORM))]), id="fraction"),
    pytest.param(lambda: ConicSubspace([QuadraticForm3(Fp(3, b) for b in F2_FORM)]), id="fp3"),
    pytest.param(lambda: ConicSubspace([form(F2_FORM), form(F2_FORM[::-1], F4_ELEMENTS)]),
                 id="mixed-f2-f4"),
    pytest.param(lambda: ConicSubspace([QuadraticForm3(F2_FORM)]), id="plain-int"),
    pytest.param(lambda: is_smooth_conic(QuadraticForm3(map(Fraction, F2_FORM))),
                 id="smooth-fraction"),
    pytest.param(lambda: is_smooth_conic(QuadraticForm3(F2_FORM)), id="smooth-plain-int"),
    pytest.param(lambda: is_smooth_conic(
        QuadraticForm3(F2_ELEMENTS[:1] * 5 + F4_ELEMENTS[1:2])), id="smooth-mixed-f2-f4"),
    # the closed form must not apply the characteristic-two criterion over Q
    pytest.param(lambda: smooth_conic_closed_form(
        QuadraticForm3(map(Fraction, (0, 0, 1, 0, 0, 1)))), id="closed-form-fraction"),
    pytest.param(lambda: smooth_conic_closed_form(QuadraticForm3((1, 0, 0, 0, 0, 1))),
                 id="closed-form-plain-int"),
    pytest.param(lambda: smooth_conic_closed_form(
        QuadraticForm3(F2_ELEMENTS[1:] * 5 + F4_ELEMENTS[2:3])), id="closed-form-mixed-f2-f4"),
])
def test_field_mismatches_raise_value_error(call):
    """The field is read from the forms' entries: anything but all of F2 or
    all of F4 is refused, by the subspace and by both smoothness checks."""
    with pytest.raises(ValueError):
        call()


def test_char_two_guard():
    """Rational forms are refused where the field is read, before any
    characteristic-two arithmetic: a subspace of them and a single one."""
    rational = QuadraticForm3(map(Fraction, (0, 0, 1, 0, 0, 1)))   # xy + z^2
    with pytest.raises(ValueError, match="not all in F2 or all in F4"):
        ConicSubspace([rational])
    with pytest.raises(ValueError, match="not all in F2 or all in F4"):
        is_smooth_conic(rational)
