"""Small exact computations on polarized varieties: delta-genus
bookkeeping, degree and divisibility constraints, scroll invariants, and a
Riemann-Roch parity check.  All arithmetic is integer or Fraction, and an
integer argument must be a plain int: a float or a bool is a ValueError."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Set, Tuple

from .exactcore import _exact_ints, _exact_rational, _is_int


def delta_genus(dim: int, top_self_intersection, h0) -> Fraction:
    """dim + top self-intersection - h0, exactly, for a polarized variety
    of the given dimension, top self-intersection of the polarization and
    dimension of its space of sections.  The dimension must be a positive
    int, the other two ints or Fractions; anything else is a ValueError."""
    if not _is_int(dim):
        raise ValueError(f"dimension must be an integer: {dim!r}")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return (dim + _exact_rational(top_self_intersection, "top self-intersection")
            - _exact_rational(h0, "h0"))


def admissible_projection_degrees(bound: int = 10) -> tuple:
    """Degrees within the bound for which 4/degree - 3 is nonnegative."""
    (bound,) = _exact_ints((bound,), "bound")
    if bound < 1:
        raise ValueError("bound must be positive")
    out = []
    for deg in range(1, bound + 1):
        if Fraction(4, deg) - 3 >= 0:
            out.append(deg)
    return tuple(out)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


DivisibilitySolution = namedtuple("DivisibilitySolution", ["prime", "genus", "cofactor"])


def p_divisibility_solutions(g_min: int, g_max: int, excluded: Iterable[int] = ()) -> set:
    """All (prime, genus, cofactor) with genus in the closed range, genus
    not excluded, and genus - 1 = cofactor * prime^2."""
    g_min, g_max = _exact_ints((g_min, g_max), "genus bounds")
    if g_min > g_max:
        raise ValueError("empty genus range")
    excluded = set(_exact_ints(excluded, "excluded genera"))
    out = set()
    for g in range(g_min, g_max + 1):
        if g in excluded:
            continue
        n = g - 1
        p = 2
        while p * p <= n:
            if _is_prime(p) and n % (p * p) == 0:
                out.add(DivisibilitySolution(p, g, n // (p * p)))
            p += 1
    return out


def scroll_degree(twists: Iterable[int]) -> int:
    """Degree of a projective bundle scroll from its twist data."""
    return sum(_exact_ints(twists, "twists"))


def scroll_splittings(total: int) -> set:
    """Unordered positive splittings of the total twist into two parts."""
    (total,) = _exact_ints((total,), "total")
    if total < 0:
        raise ValueError("negative total")
    return {(a, total - a) for a in range(1, total // 2 + 1)}


def divisibility_obstruction(genus: int, divisor: int) -> Tuple[int, bool]:
    """The degree 2*genus - 4 together with whether the divisor fails to
    divide it; a True flag obstructs the corresponding quotient."""
    genus, divisor = _exact_ints((genus, divisor), "genus and divisor")
    if divisor < 1:
        raise ValueError("divisor must be positive")
    value = (2 * genus - 8) + 4
    return value, value % divisor != 0


def g10_obstruction() -> Tuple[int, bool]:
    """Degree-divisibility obstruction at genus 10 against divisor 3."""
    return divisibility_obstruction(10, 3)


def surface_rr_parity(self_intersection: int) -> bool:
    """Whether the surface Riemann-Roch correction term is an integer,
    i.e. the self-intersection is even."""
    (self_intersection,) = _exact_ints((self_intersection,), "self-intersection")
    return self_intersection % 2 == 0
