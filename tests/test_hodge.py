"""Twisted structure-sheaf Euler characteristics, Euler-contraction kernels
for two-forms, Bott-formula agreement, and complete-intersection Hodge
diamonds."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certkit import certify_cli, hodge
from certkit.exactcore import (
    Polynomial,
    kernel_dimension,
    monomials_of_degree,
    poly_from_string_exps,
)
from certkit.hodge import (
    CIData,
    bott_h0,
    chi_omega1_ci,
    chi_omega1_ci_koszul,
    chi_pn,
    ci_chi_twist,
    ci_hodge_diamond,
    h0_omega_p,
    omega2_p3_certificate,
    omega2_vanishing_on_curve,
)


# ---------------------------------------------------------------------------
# chi on projective space
# ---------------------------------------------------------------------------


def test_chi_pn_samples():
    assert chi_pn(3, 3) == 20
    assert chi_pn(-1, 3) == 0
    assert chi_pn(-4, 3) == -1
    assert chi_pn(0, 5) == 1


def test_chi_pn_rejects_negative_dimension():
    with pytest.raises(ValueError):
        chi_pn(0, -1)


@given(st.integers(-12, 12), st.integers(1, 5))
def test_chi_pn_hyperplane_recursion(m, n):
    assert chi_pn(m, n) - chi_pn(m - 1, n) == chi_pn(m, n - 1)


@given(st.integers(0, 12), st.integers(0, 5))
def test_chi_pn_counts_sections_in_effective_range(d, n):
    # for d >= 0 the Euler characteristic is the binomial section count
    from math import comb
    assert chi_pn(d, n) == comb(d + n, n)


# ---------------------------------------------------------------------------
# twisted p-forms and the Bott oracle
# ---------------------------------------------------------------------------


def test_h0_omega_samples():
    assert h0_omega_p(1, 0, 3) == 0
    assert h0_omega_p(1, 2, 3) == 6
    assert h0_omega_p(0, 4, 3) == chi_pn(4, 3)


def test_h0_omega_argument_validation():
    with pytest.raises(ValueError, match="form degree out of range"):
        h0_omega_p(4, 0, 3)
    with pytest.raises(ValueError, match="ambient dimension"):
        h0_omega_p(0, 0, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: chi_pn(True, 3), id="chi-bool"),
    pytest.param(lambda: chi_pn(0.5, 3), id="chi-float"),
    pytest.param(lambda: chi_pn(3, 3.0), id="chi-float-dimension"),
    pytest.param(lambda: bott_h0(1.0, 2, 3), id="bott-float"),
    pytest.param(lambda: bott_h0(1, True, 3), id="bott-bool"),
    pytest.param(lambda: h0_omega_p(1, 2.0, 3), id="h0-float"),
    pytest.param(lambda: h0_omega_p(1, 2, True), id="h0-bool"),
])
def test_integer_arguments_obey_the_exact_input_rule(call):
    # chi_pn(True, 3) gave 4, and a float raised TypeError in math.comb
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_bott_oracle_agrees_on_full_grid():
    for n in range(1, 5):
        for p in range(n + 1):
            for d in range(-6, 7):
                assert h0_omega_p(p, d, n) == bott_h0(p, d, n)


def _h0_omega_p_per_weight(p, d, N):
    """The section count with one Euler-contraction block built and
    eliminated for every weight, on the weight's own support variables."""
    if p == 0:
        return math.comb(d + N, N) if d >= 0 else 0
    if d < p:
        return 0
    total = 0
    for w in monomials_of_degree(N + 1, d):
        supp = tuple(i for i in range(N + 1) if w[i] > 0)
        if len(supp) < p:
            continue
        cols = list(itertools.combinations(supp, p))
        rows = list(itertools.combinations(supp, p - 1))
        row_pos = {J: r for r, J in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for ci, I in enumerate(cols):
            for j, ij in enumerate(I):
                mat[row_pos[tuple(v for v in I if v != ij)]][ci] += (-1) ** j
        total += kernel_dimension(mat)[0]
    return total


def test_h0_omega_matches_the_per_weight_blocks():
    for n in range(1, 6):
        for p in range(n + 1):
            for d in range(-2, 7):
                assert h0_omega_p(p, d, n) == _h0_omega_p_per_weight(p, d, n), (p, d, n)


def test_bott_grid_eliminates_each_block_once(monkeypatch):
    calls = []

    def counting(mat):
        calls.append((len(mat), len(mat[0])))
        return kernel_dimension(mat)

    hodge._block_nullity.cache_clear()
    monkeypatch.setattr(hodge, "kernel_dimension", counting)
    assert certify_cli._bott_grid_ok()
    # one block per (support size, p): sizes p..5 for p = 1..4
    assert len(calls) == len(set(calls)) == 14


def test_bott_vanishing_range():
    # twists at or below the form degree carry no sections (p of at least 1)
    for n in range(1, 5):
        for p in range(1, n + 1):
            for d in range(-6, p + 1):
                assert h0_omega_p(p, d, n) == 0


# ---------------------------------------------------------------------------
# two-forms on projective three-space
# ---------------------------------------------------------------------------


def test_omega2_certificate():
    cert = omega2_p3_certificate()
    assert cert.source_dim == 24
    assert cert.target_dim == 40
    assert cert.rank == 20
    assert cert.kernel_dim == 4
    assert cert.basis_independent
    assert cert.basis_in_kernel
    assert cert.blockwise_count == 4
    assert cert.kernel_dim == cert.source_dim - cert.rank


def _curve(*term_dicts):
    return [poly_from_string_exps(hodge.CURVE_VARS,
                                  {k: Fraction(v) for k, v in d.items()})
            if d else Polynomial.zero(hodge.CURVE_VARS)
            for d in term_dicts]


def test_omega2_vanishing_on_quartic_curve():
    quartic = _curve({"s^4": 1}, {"s^3*t": 1}, {"s*t^3": 1}, {"t^4": 1})
    assert omega2_vanishing_on_curve(quartic) == 0


def test_omega2_vanishing_on_line():
    line = _curve({"s": 1}, {"t": 1}, {}, {})
    assert omega2_vanishing_on_curve(line) == 0


def test_omega2_vanishing_argument_validation():
    with pytest.raises(ValueError, match="expected four binary forms"):
        omega2_vanishing_on_curve(_curve({"s": 1}, {"t": 1}, {}))
    with pytest.raises(ValueError, match="unequal degrees"):
        omega2_vanishing_on_curve(_curve({"s": 1}, {"t^2": 1}, {}, {}))
    with pytest.raises(ValueError, match="zero parametrization"):
        omega2_vanishing_on_curve(_curve({}, {}, {}, {}))
    with pytest.raises(ValueError, match="constant parametrization"):
        omega2_vanishing_on_curve(_curve({"1": 1}, {"1": 2}, {}, {}))
    with pytest.raises(ValueError, match="inhomogeneous"):
        omega2_vanishing_on_curve(_curve({"s^2": 1, "s": 1},
                                         {"t^2": 1}, {}, {}))


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------


QUADRIC = CIData(4, (2,))
CUBIC = CIData(4, (3,))
QUARTIC = CIData(4, (4,))
QUINTIC = CIData(4, (5,))
CI23 = CIData(5, (2, 3))
CI222 = CIData(6, (2, 2, 2))

FANO_CIS = (QUADRIC, CUBIC, QUARTIC, CI23, CI222)


def test_cidata_validation():
    assert CI23.dim == 3
    with pytest.raises(ValueError, match="ambient dimension"):
        CIData(0, (2,))
    with pytest.raises(ValueError, match="positive integers"):
        CIData(4, (0,))
    with pytest.raises(ValueError, match="too many hypersurfaces"):
        CIData(3, (2, 2, 2))


@pytest.mark.parametrize("ambient_dim, degrees", [
    (4, (True,)),
    (4.0, (2,)),
    (True, ()),
    ("4", (2,)),
    (4, (2.0,)),
    (5, (2, Fraction(3))),
])
def test_cidata_rejects_float_bool_and_string_inputs(ambient_dim, degrees):
    with pytest.raises(ValueError, match="must be a positive integer|must be positive integers"):
        CIData(ambient_dim, degrees)


def test_cidata_report_inputs_unchanged():
    for name, n, degrees in certify_cli._FANO_CIS:
        ci = CIData(n, degrees)
        assert (ci.ambient_dim, ci.degrees, ci.dim) == (n, degrees, n - len(degrees))
        assert type(ci.ambient_dim) is int and all(type(d) is int for d in ci.degrees)
    assert CIData(4, [2]) == CIData(4, (2,))


def test_ci_chi_twist_structure_sheaf():
    for ci in FANO_CIS:
        assert ci_chi_twist(ci, 0) == 1
    assert ci_chi_twist(QUINTIC, 0) == 0


def test_ci_chi_twist_serre_pairing():
    # chi(O(m)) = -chi(O(k - m)) with k the canonical twist, on threefolds
    for ci in FANO_CIS + (QUINTIC,):
        k = sum(ci.degrees) - ci.ambient_dim - 1
        for m in range(-4, 5):
            assert ci_chi_twist(ci, m) == -ci_chi_twist(ci, k - m)


def test_chi_omega1_routes_agree():
    for ci in FANO_CIS + (QUINTIC,):
        assert chi_omega1_ci(ci) == chi_omega1_ci_koszul(ci)


DIAMOND_PAIRS = {
    "quadric": (QUADRIC, 1, 0),
    "cubic": (CUBIC, 1, 5),
    "quartic": (QUARTIC, 1, 30),
    "ci23": (CI23, 1, 20),
    "ci222": (CI222, 1, 14),
}


def test_fano_diamond_middle_numbers():
    for ci, h11, h12 in DIAMOND_PAIRS.values():
        d = ci_hodge_diamond(ci)
        assert d.h(1, 1) == h11
        assert d.h(1, 2) == h12


def test_fano_diamond_structure_row():
    for ci, _, _ in DIAMOND_PAIRS.values():
        d = ci_hodge_diamond(ci)
        assert d.h(0, 0) == 1
        assert d.h(0, 1) == 0 and d.h(0, 2) == 0 and d.h(0, 3) == 0


def test_diamond_serre_duality():
    for ci, _, _ in DIAMOND_PAIRS.values():
        d = ci_hodge_diamond(ci)
        for p in range(4):
            for q in range(4):
                assert d.h(p, q) == d.h(3 - p, 3 - q)


def test_cubic_euler_number():
    assert ci_hodge_diamond(CUBIC).euler_number() == -6


def test_quintic_known_values():
    d = ci_hodge_diamond(QUINTIC)
    assert d.h(0, 3) == 1
    assert d.h(1, 1) == 1
    assert d.h(1, 2) == 101
    assert d.euler_number() == -200


def test_diamond_betti_numbers():
    d = ci_hodge_diamond(CUBIC)
    assert d.betti(0) == 1
    assert d.betti(2) == 1
    assert d.betti(3) == 10
    assert len(d.table) == 4


def test_diamond_requires_threefold():
    with pytest.raises(ValueError, match="not a threefold"):
        ci_hodge_diamond(CIData(4, (2, 2)))
