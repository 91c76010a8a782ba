"""Delta-genus bookkeeping, projection-degree forcing, prime-square
divisibility of genus - 1, scroll splittings, and parity checks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from certkit.numerology import (
    DivisibilitySolution,
    admissible_projection_degrees,
    delta_genus,
    divisibility_obstruction,
    g10_obstruction,
    p_divisibility_solutions,
    scroll_degree,
    scroll_splittings,
    surface_rr_parity,
)


def test_delta_genus_samples():
    assert delta_genus(3, 5, 8) == 0
    assert delta_genus(2, 4, 6) == 0
    assert delta_genus(3, 5, 7) == 1


def test_delta_genus_rejects_nonpositive_dimension():
    with pytest.raises(ValueError, match="dimension must be positive"):
        delta_genus(0, 1, 1)


@pytest.mark.parametrize("args", [
    (3, 0.1, 8),
    (3, 5, 8.0),
    (3, "5", 8),
    (3, 5, True),
    (True, 5, 8),
    (3.0, 5, 8),
    ("3", 5, 8),
    (1.5, 0.1, True),
])
def test_delta_genus_input_rejects_float_string_and_bool(args):
    # (1.5, 0.1, True) gave the float 0.6000000000000001 through a
    # duck-typed input record
    with pytest.raises(ValueError, match="must be an int"):
        delta_genus(*args)


def test_delta_genus_input_int_and_fraction_unchanged():
    """The inputs of the delta-genus certificates and the exact-fraction
    case give the same exact Fraction as before."""
    for dim, top, h0, delta in [(3, 5, 8, 0), (2, 4, 6, 0), (3, 5, 7, 1),
                                (2, Fraction(9, 2), 5, Fraction(3, 2))]:
        assert delta_genus(dim, top, h0) == delta
        assert type(delta_genus(dim, top, h0)) is Fraction


@given(st.integers(1, 6), st.integers(-20, 20), st.integers(-20, 20))
def test_delta_genus_h0_slope(dim, deg, h0):
    base = delta_genus(dim, deg, h0)
    bumped = delta_genus(dim, deg, h0 + 1)
    assert bumped - base == -1


def test_delta_genus_exact_fractions():
    val = delta_genus(2, Fraction(9, 2), 5)
    assert val == Fraction(3, 2)


def test_admissible_projection_degrees_forces_one():
    assert admissible_projection_degrees() == (1,)
    assert admissible_projection_degrees(bound=100) == (1,)
    with pytest.raises(ValueError, match="bound must be positive"):
        admissible_projection_degrees(0)


# ---------------------------------------------------------------------------
# prime-square divisibility of genus - 1
# ---------------------------------------------------------------------------


def test_divisibility_solutions_window():
    got = p_divisibility_solutions(7, 12, excluded={11})
    assert got == {
        DivisibilitySolution(2, 9, 2),
        DivisibilitySolution(3, 10, 1),
    }


def test_divisibility_solutions_small_windows():
    assert p_divisibility_solutions(3, 3) == set()
    assert p_divisibility_solutions(5, 5) == {DivisibilitySolution(2, 5, 1)}


def test_divisibility_solutions_empty_range_rejected():
    with pytest.raises(ValueError, match="empty genus range"):
        p_divisibility_solutions(9, 7)


def test_divisibility_solutions_satisfy_relation():
    for sol in p_divisibility_solutions(2, 200):
        assert sol.genus - 1 == sol.cofactor * sol.prime ** 2
        assert sol.cofactor >= 1


def test_divisibility_solutions_exhaustive_against_sieve():
    # independent oracle: primes up to 13 cover every genus below 171
    primes = (2, 3, 5, 7, 11, 13)
    expected = set()
    for g in range(2, 171):
        for p in primes:
            if (g - 1) % (p * p) == 0:
                expected.add(DivisibilitySolution(p, g, (g - 1) // (p * p)))
    assert p_divisibility_solutions(2, 170) == expected


# ---------------------------------------------------------------------------
# scrolls
# ---------------------------------------------------------------------------


def test_scroll_degree_samples():
    assert scroll_degree((0, 1, 4)) == 5
    assert scroll_degree((0,)) == 0


@given(st.lists(st.integers(0, 9), min_size=1, max_size=5),
       st.lists(st.integers(0, 9), min_size=1, max_size=5))
def test_scroll_degree_additive(a, b):
    assert scroll_degree(a + b) == scroll_degree(a) + scroll_degree(b)


def test_scroll_splittings_samples():
    assert scroll_splittings(5) == {(1, 4), (2, 3)}
    assert scroll_splittings(4) == {(1, 3), (2, 2)}
    assert scroll_splittings(1) == set()
    with pytest.raises(ValueError, match="negative total"):
        scroll_splittings(-1)


def test_scroll_splittings_odd_count_law():
    for n in range(1, 40, 2):
        parts = scroll_splittings(n)
        assert len(parts) == (n - 1) // 2
        for a, b in parts:
            assert 0 < a <= b
            assert a + b == n


# ---------------------------------------------------------------------------
# divisibility obstruction and parity
# ---------------------------------------------------------------------------


def test_divisibility_obstruction_samples():
    assert divisibility_obstruction(9, 2) == (14, False)
    assert divisibility_obstruction(10, 3) == (16, True)
    with pytest.raises(ValueError, match="divisor must be positive"):
        divisibility_obstruction(10, 0)


def test_g10_obstruction():
    assert g10_obstruction() == (16, True)


@given(st.integers(-30, 30), st.integers(1, 12))
def test_divisibility_obstruction_linear_form(genus, divisor):
    value, flag = divisibility_obstruction(genus, divisor)
    assert value == 2 * genus - 4
    assert flag == (value % divisor != 0)


def test_surface_rr_parity_samples():
    assert surface_rr_parity(4)
    assert surface_rr_parity(2)
    assert not surface_rr_parity(3)


@given(st.integers(-100, 100))
def test_surface_rr_parity_law(d):
    assert surface_rr_parity(d) == (d % 2 == 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: divisibility_obstruction(9.5, 3), id="obstruction-float"),
    pytest.param(lambda: divisibility_obstruction(True, 3), id="obstruction-bool"),
    pytest.param(lambda: divisibility_obstruction(9, 3.0), id="obstruction-float-divisor"),
    pytest.param(lambda: scroll_degree((0.5, 1)), id="scroll-degree-float"),
    pytest.param(lambda: scroll_degree((True, 1)), id="scroll-degree-bool"),
    pytest.param(lambda: surface_rr_parity(2.0), id="parity-float"),
    pytest.param(lambda: surface_rr_parity(False), id="parity-bool"),
    pytest.param(lambda: admissible_projection_degrees(2.5), id="projection-float"),
    pytest.param(lambda: admissible_projection_degrees(True), id="projection-bool"),
    pytest.param(lambda: p_divisibility_solutions(7.0, 12), id="solutions-float"),
    pytest.param(lambda: p_divisibility_solutions(7, True), id="solutions-bool"),
    pytest.param(lambda: p_divisibility_solutions(7, 12, {11.0}), id="solutions-excluded"),
    pytest.param(lambda: scroll_splittings(5.0), id="splittings-float"),
    pytest.param(lambda: scroll_splittings(True), id="splittings-bool"),
])
def test_integer_arguments_obey_the_exact_input_rule(call):
    # divisibility_obstruction(9.5, 3) gave (15.0, False) and (True, 3)
    # gave (-2, True), scroll_degree((0.5, 1)) 1.5, surface_rr_parity(2.0)
    # True; the others raised TypeError or read a bool as 0 or 1
    with pytest.raises(ValueError, match="must be integers:"):
        call()
