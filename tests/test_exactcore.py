"""Exact-arithmetic kernel: fields, polynomials, substitution, matrices,
and graded ideal dimensions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certkit.exactcore import (
    F2_ELEMENTS,
    F4,
    F4_ELEMENTS,
    GF4_INV,
    GF4_MUL,
    Fp,
    Polynomial,
    RationalFunction,
    ideal_graded_dimension,
    ideal_piece,
    kernel_dimension,
    matrix_rank,
    monomials_of_degree,
    poly_from_string_exps,
    poly_substitute,
    solve,
    span_dimension,
    spans_contain,
)
from certkit import exactcore, schubert, veronese


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_f4_axioms_exhaustive():
    elems = [F4(a, b) for a in (0, 1) for b in (0, 1)]
    one = F4(1)
    omega = F4(0, 1)
    # the generator satisfies w^2 + w + 1 = 0
    assert omega * omega + omega + one == F4(0)
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == one
    # characteristic two
    assert one + one == F4(0)


def _f4_bits_mul(x, y):
    """(a1 + b1 w)(a2 + b2 w) with w^2 = w + 1, on coordinate bits: the
    reference the GF(4) code tables are checked against."""
    (a1, b1), (a2, b2) = x, y
    return (a1 & a2) ^ (b1 & b2), (a1 & b2) ^ (b1 & a2) ^ (b1 & b2)


def _assert_eq_implies_hash(x):
    """Python's rule for hashable values: x == k implies hash(x) == hash(k),
    so a set or dict holding one finds the other."""
    for k in (*range(-3, 6), True, False):
        if x == k:
            assert hash(x) == hash(k)
            assert k in {x} and x in {k}


def test_f4_matches_the_bit_formula_on_every_pair():
    bits = [(a, b) for b in (0, 1) for a in (0, 1)]

    def expect(result, ab):
        # compared by repr, so F4's own == is not trusted; every result is
        # one of the four shared elements
        assert repr(result) == "F4({},{})".format(*ab)
        assert any(result is e for e in F4_ELEMENTS)

    for x in bits:
        fx = F4(*x)
        assert repr(fx) == "F4({},{})".format(*x)
        _assert_eq_implies_hash(fx)
        assert bool(fx) == (x != (0, 0))
        assert repr(-fx) == repr(fx)
        for y in bits:
            fy = F4(*y)
            total = (x[0] ^ y[0], x[1] ^ y[1])
            expect(fx + fy, total)
            expect(fx - fy, total)
            expect(fx * fy, _f4_bits_mul(x, y))
            assert (fx == fy) == (x == y) and (fx != fy) == (x != y)
            if y == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    fx / fy
            else:
                expect(fx / fy, next(z for z in bits if _f4_bits_mul(z, y) == x))
        if x == (0, 0):
            with pytest.raises(ZeroDivisionError):
                fx.inverse()
        else:
            expect(fx.inverse(), next(z for z in bits if _f4_bits_mul(z, x) == (1, 0)))
        # an int k is read as F4(k), the bit k & 1, on either side
        for k in (-3, -1, 0, 1, 2, 5, True):
            kb = (k & 1, 0)
            total = (x[0] ^ kb[0], x[1])
            for result in (fx + k, k + fx, fx - k, k - fx):
                expect(result, total)
            expect(fx * k, _f4_bits_mul(x, kb))
            expect(k * fx, _f4_bits_mul(kb, x))
            # but equals only the int that is its code, 0 or 1
            assert (fx == k) == (k == fx) == (k in (0, 1) and x == kb)
            if kb[0]:
                expect(fx / k, x)
            else:
                with pytest.raises(ZeroDivisionError):
                    fx / k
            if x != (0, 0):
                expect(k / fx, next(z for z in bits if _f4_bits_mul(z, x) == kb))
        for other in (Fp(2, 1), Fraction(1), 1.0):
            for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b):
                with pytest.raises(TypeError):
                    op(fx, other)
            # a foreign dividend is refused before the divisor is inverted
            with pytest.raises(TypeError, match="for /:"):
                other / fx
        assert fx != Fp(2, 1) and fx != Fraction(1)


def test_f2_matches_the_bit_formula_on_every_pair():
    def expect(result, bit):
        # compared by repr, so Fp's own == is not trusted; every result is
        # one of the two shared elements
        assert repr(result) == f"Fp(2,{bit})"
        assert any(result is e for e in F2_ELEMENTS)

    for x in (0, 1):
        fx = Fp(2, x)
        assert repr(fx) == f"Fp(2,{x})" and fx.v == x
        _assert_eq_implies_hash(fx)
        assert bool(fx) == bool(x)
        assert repr(-fx) == repr(fx)
        for y in (0, 1):
            fy = Fp(2, y)
            expect(fx + fy, x ^ y)
            expect(fx - fy, x ^ y)
            expect(fx * fy, x & y)
            assert (fx == fy) == (x == y) and (fx != fy) == (x != y)
            if y:
                expect(fx / fy, x)
            else:
                with pytest.raises(ZeroDivisionError):
                    fx / fy
        if x:
            expect(fx.inverse(), 1)
        else:
            with pytest.raises(ZeroDivisionError):
                fx.inverse()
        # an int k is read as Fp(2, k), the bit k & 1, on either side
        for k in (-3, -1, 0, 1, 2, 5, True):
            kb = k & 1
            for result in (fx + k, k + fx, fx - k, k - fx):
                expect(result, x ^ kb)
            expect(fx * k, x & kb)
            expect(k * fx, kb & x)
            # but equals only the int that is its code, 0 or 1
            assert (fx == k) == (k == fx) == (k in (0, 1) and x == kb)
            if kb:
                expect(fx / k, x)
            else:
                with pytest.raises(ZeroDivisionError):
                    fx / k
            if x:
                expect(k / fx, kb)
            else:
                with pytest.raises(ZeroDivisionError):
                    k / fx
        for other in (F4(1), Fraction(1), 1.0):
            for op in (lambda a, b: a + b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(fx, other)
                with pytest.raises(TypeError):
                    op(other, fx)
            # a foreign dividend is refused before the divisor is inverted,
            # Fp(2, 0) included
            with pytest.raises(TypeError, match="for /:"):
                fx / other
            with pytest.raises(TypeError, match="for /:"):
                other / fx
        assert fx != F4(1) and fx != Fraction(1)


def test_f2_and_f4_stay_two_types():
    # perfbench's tracer files an all-F4 elimination under rank_f4 and an
    # all-Fp elimination with p == 2 under rank_f2
    f2, f4 = Fp(2, 1), F4(1)
    assert f2.p == 2
    assert not isinstance(f2, F4) and not isinstance(f4, Fp)
    assert f2 != f4 and f4 != f2


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Fp(2, 0.5), id="Fp-float"),
    pytest.param(lambda: Fp(2, True), id="Fp-bool"),
    pytest.param(lambda: Fp(2, "1"), id="Fp-str"),
    pytest.param(lambda: Fp(2.0, 1), id="Fp-float-p"),
    pytest.param(lambda: Fp(True, 1), id="Fp-bool-p"),
    *(pytest.param(lambda p=p: Fp(p, 1), id=f"Fp-p{p}") for p in (0, 1, 3, 4, 5)),
    pytest.param(lambda: F4(1.0), id="F4-float"),
    pytest.param(lambda: F4(True, 1), id="F4-bool"),
    pytest.param(lambda: F4(0, "1"), id="F4-str"),
])
def test_field_constructors_obey_the_exact_input_rule(call):
    # Fp(2, 0.5) + Fp(2, 1) gave Fp(2,1.5), Fp(4, 2) squared to Fp(4,0) in
    # Z/4, Fp(0, 1) raised ZeroDivisionError and F4(True, 1) was accepted
    with pytest.raises(ValueError, match="must be"):
        call()


@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40),
       st.fractions(max_denominator=40))
def test_rational_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(st.fractions(max_denominator=40))
def test_rational_inverse(a):
    if a:
        assert a * (1 / a) == 1


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

XY = ("x", "y")


def _poly(data):
    return poly_from_string_exps(XY, {k: Fraction(v) for k, v in data.items()})


def test_polynomial_basics():
    p = _poly({"x^2": 1, "x*y": -2, "1": 3})
    assert p.total_degree() == 2
    assert not p.is_homogeneous()
    assert p.terms[(1, 1)] == -2
    q = _poly({"x": 1}) * _poly({"x": 1})
    assert q == _poly({"x^2": 1})
    assert (p - p).is_zero()
    assert _poly({"x": 1}) ** 3 == _poly({"x^3": 1})


def test_equal_polynomials_hash_alike():
    # the int coefficient 1 equals Fraction(1), Fp(2, 1) and F4(1), so the
    # polynomials equal, and a set holding one finds the other; 3 and 2
    # equal no field element, and the three nonzero 1s are pairwise unequal
    polys = [poly_from_string_exps(XY, {"x": c, "y^2": c})
             for c in (1, Fraction(1), Fp(2, 1), F4(1), 3, F4(0, 1), 2)]
    for (a, p), (b, q) in itertools.product(enumerate(polys), repeat=2):
        assert (p == q) == (a == b or {a, b} in ({0, 1}, {0, 2}, {0, 3}))
        if p == q:
            assert hash(p) == hash(q) and q in {p}


@pytest.mark.parametrize("exps", [(-1,), (True,), (1.0,), (Fraction(1),)])
def test_polynomial_rejects_exponents_that_are_not_nonnegative_ints(exps):
    # (-1,) evaluated to 1 at x = 2 with total degree -1; (True,) read as 1
    with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
        Polynomial(("x",), {exps: Fraction(1)})


def test_polynomial_rejects_mixed_variables():
    p = _poly({"x": 1})
    q = poly_from_string_exps(("u",), {"u": Fraction(1)})
    with pytest.raises(ValueError):
        p + q


def test_polynomial_derivative_and_evaluate():
    p = _poly({"x^2*y": 3, "y": -1})
    assert p.derivative("x") == _poly({"x*y": 6})
    assert p.evaluate({"x": Fraction(2), "y": Fraction(5)}) == 60 - 5


def test_homogeneity_detection():
    assert _poly({"x^2": 1, "x*y": 4}).is_homogeneous()
    assert Polynomial.zero(XY).is_homogeneous()


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_identity():
    x = Polynomial.variable("x", ("x",))
    image = {"x": RationalFunction.from_polynomial(x)}
    assert poly_substitute(x, image) == RationalFunction.from_polynomial(x)


def test_substitute_veronese_relation():
    # xy - u^2 dies under x -> X^2, y -> Y^2, u -> XY
    p = poly_from_string_exps(("x", "y", "u"),
                              {"x*y": Fraction(1), "u^2": Fraction(-1)})
    big = ("X", "Y")
    images = {
        "x": RationalFunction.from_polynomial(poly_from_string_exps(big, {"X^2": Fraction(1)})),
        "y": RationalFunction.from_polynomial(poly_from_string_exps(big, {"Y^2": Fraction(1)})),
        "u": RationalFunction.from_polynomial(poly_from_string_exps(big, {"X*Y": Fraction(1)})),
    }
    assert poly_substitute(p, images).is_zero()


def test_substitute_chart_images_decides_kernel_membership():
    """Under the chart substitution one proposed kernel quadric survives and
    the other dies; the survivor's exact residual is pinned."""
    images = veronese.projection_images()
    g1, g2 = veronese.proposed_kernel_generators()
    r1 = poly_substitute(g1, images)
    r2 = poly_substitute(g2, images)
    assert r2.is_zero()
    assert not r1.is_zero()
    tu = ("t", "u")
    num = poly_from_string_exps(tu, {"t^2*u^2": Fraction(1), "t*u": Fraction(-1)})
    one = Polynomial.constant(tu, Fraction(1))
    u = Polynomial.variable("u", tu)
    den = (one - u * u) ** 2
    assert r1 == RationalFunction(num, den)


def test_substitute_missing_image_errors():
    p = _poly({"x": 1, "y": 1})
    x = Polynomial.variable("x", XY)
    with pytest.raises(ValueError, match="unmapped variable"):
        poly_substitute(p, {"x": RationalFunction.from_polynomial(x)})


def test_substitute_without_images_raises_value_error():
    with pytest.raises(ValueError, match="no images"):
        poly_substitute(Polynomial.constant(XY, Fraction(3)), {})
    with pytest.raises(ValueError, match="no images"):
        poly_substitute(Polynomial.zero(XY), {})


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(max_denominator=8), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(max_denominator=8), max_size=4))
def test_substitute_is_ring_homomorphism(d1, d2):
    p = Polynomial(XY, d1)
    q = Polynomial(XY, d2)
    t = Polynomial.variable("t", ("t", "w"))
    w = Polynomial.variable("w", ("t", "w"))
    one = Polynomial.constant(("t", "w"), Fraction(1))
    images = {
        "x": RationalFunction(t * t - w, one + w),
        "y": RationalFunction(w * t, one - t * w),
    }
    assert poly_substitute(p * q, images) == \
        poly_substitute(p, images) * poly_substitute(q, images)


def test_rational_function_cross_multiplication_equality():
    t = Polynomial.variable("t", ("t",))
    one = Polynomial.constant(("t",), Fraction(1))
    a = RationalFunction(t, one - t)
    b = RationalFunction(t * t, (one - t) * t)
    assert a == b
    with pytest.raises(ZeroDivisionError):
        RationalFunction(t, Polynomial.zero(("t",)))


def test_kernel_dimension_examples():
    dim, basis = kernel_dimension([[Fraction(0)] * 3, [Fraction(0)] * 3])
    assert dim == 3 and len(basis) == 3
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    dim, basis = kernel_dimension(ident)
    assert dim == 0 and basis == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_rank_nullity(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    dim, basis = kernel_dimension(mat)
    assert dim + matrix_rank(mat) == 4
    for v in basis:
        for r in mat:
            assert sum(a * b for a, b in zip(r, v)) == 0


@pytest.mark.parametrize("call", [
    # a missing entry must not read as zero, nor an extra column be carried
    # past the pivot columns
    pytest.param(lambda: matrix_rank([[1, 2], [3]]), id="rank-short-row"),
    pytest.param(lambda: matrix_rank([[1], [0, 1]]), id="rank-long-row"),
    pytest.param(lambda: kernel_dimension([[1], [0, 1]]), id="kernel-long-row"),
    pytest.param(lambda: kernel_dimension([[F2_ELEMENTS[1]] * 3, F2_ELEMENTS[:2]]),
                 id="kernel-short-row"),
])
def test_ragged_rows_raise_value_error(call):
    with pytest.raises(ValueError, match="rows of unequal length"):
        call()


W = F4(0, 1)

# (columns, target, expected) per field: an independent consistent system,
# dependent columns, and an inconsistent system
SOLVE_CASES = {
    "Q": [
        ([(2, 1, 0), (1, 3, 0)], (1, 0, 0), [Fraction(3, 5), Fraction(-1, 5)]),
        ([(1, 2, 0), (2, 4, 0)], (1, 2, 0), None),
        ([(1, 0, 0), (0, 1, 0)], (0, 0, 1), None),
    ],
    "F2": [
        ([(Fp(2, 1), Fp(2, 1), Fp(2, 0)), (Fp(2, 0), Fp(2, 1), Fp(2, 1))],
         (Fp(2, 1), Fp(2, 0), Fp(2, 1)), [Fp(2, 1), Fp(2, 1)]),
        ([(Fp(2, 1), Fp(2, 1)), (Fp(2, 1), Fp(2, 1))], (Fp(2, 1), Fp(2, 1)), None),
        ([(Fp(2, 1), Fp(2, 1))], (Fp(2, 0), Fp(2, 1)), None),
    ],
    "F4": [
        ([(F4(1), W), (W, F4(1))], (F4(0), W), [W, F4(1)]),
        ([(F4(1), W), (W, W * W)], (F4(1), W), None),
        ([(F4(1), W, F4(0))], (F4(0), F4(0), F4(1)), None),
    ],
}


@pytest.mark.parametrize("field", sorted(SOLVE_CASES))
def test_solve_unique_dependent_inconsistent(field):
    for columns, target, expected in SOLVE_CASES[field]:
        assert solve(columns, target) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=k, max_size=k),
    st.lists(st.integers(-5, 5), min_size=k, max_size=k))))
def test_solve_recovers_coefficients(case):
    columns, x = case
    assume(matrix_rank(columns) == len(columns))
    target = [sum(xi * col[i] for xi, col in zip(x, columns)) for i in range(3)]
    assert solve(columns, target) == x


# ---------------------------------------------------------------------------
# F2 / F4 elimination: the same sparse `_echelon` that reduces rationals
# ---------------------------------------------------------------------------


def test_gf4_code_tables_match_field_arithmetic():
    for i, x in enumerate(F4_ELEMENTS):
        for j, y in enumerate(F4_ELEMENTS):
            assert F4_ELEMENTS[GF4_MUL[i][j]] == x * y
        if i:
            assert F4_ELEMENTS[GF4_INV[i]] == x.inverse()
    for i, x in enumerate(F2_ELEMENTS):
        for j, y in enumerate(F2_ELEMENTS):
            assert F2_ELEMENTS[GF4_MUL[i][j]] == x * y


def _dot(row, vec, zero):
    total = zero
    for a, b in zip(row, vec):
        total = total + a * b
    return total


def _matrices(max_rows, max_cols):
    """(elements, matrix) over F2 or F4, entries drawn by code."""
    return st.sampled_from([F2_ELEMENTS, F4_ELEMENTS]).flatmap(lambda elements: st.tuples(
        st.just(elements),
        st.integers(1, max_cols).flatmap(lambda ncols: st.lists(
            st.lists(st.sampled_from(elements), min_size=ncols, max_size=ncols),
            min_size=1, max_size=max_rows))))


@settings(max_examples=60, deadline=None)
@given(_matrices(4, 5))
def test_f2_f4_rank_counts_the_row_span(case):
    elements, mat = case
    zero = elements[0]
    span = {tuple(_dot(col, combo, zero) for col in zip(*mat))
            for combo in itertools.product(elements, repeat=len(mat))}
    assert len(span) == len(elements) ** matrix_rank(mat)


@settings(max_examples=60, deadline=None)
@given(_matrices(5, 6))
def test_f2_f4_kernel_vectors_annihilate(case):
    elements, mat = case
    dim, basis = kernel_dimension(mat)
    assert dim == len(mat[0]) - matrix_rank(mat)
    for v in basis:
        assert all(type(x) is type(elements[0]) for x in v)
        assert all(_dot(row, v, elements[0]) == elements[0] for row in mat)
    if basis:
        assert matrix_rank(basis) == dim


@settings(max_examples=60, deadline=None)
@given(_matrices(4, 6).flatmap(lambda case: st.tuples(
    st.just(case),
    st.lists(st.sampled_from(case[0]), min_size=len(case[1]), max_size=len(case[1])))))
def test_f2_f4_solve_recovers_coefficients(case):
    (elements, columns), x = case
    zero = elements[0]
    target = [_dot(row, x, zero) for row in zip(*columns)]
    expected = x if matrix_rank(columns) == len(columns) else None
    assert solve(columns, target) == expected


def test_f2_f4_path_is_not_capped_at_64_columns():
    zero, one, w, w2 = F4_ELEMENTS
    ncols = 70
    rows = []
    for pivot, tail in ((2, w), (65, w2), (68, one)):
        row = [zero] * ncols
        row[pivot] = w
        row[69] = tail
        rows.append(row)
    rows.append([a + b for a, b in zip(rows[1], rows[2])])
    assert matrix_rank(rows) == 3
    dim, basis = kernel_dimension(rows)
    assert dim == ncols - 3
    for v in basis:
        assert all(_dot(row, v, zero) == zero for row in rows)
    # 66 unknowns: the augmented rows carry 67 bits
    n = 66
    columns = [[w if j == i else one if j == i + 1 else zero for j in range(n)]
               for i in range(n)]
    x = [F4_ELEMENTS[i % 4] for i in range(n)]
    target = [_dot(row, x, zero) for row in zip(*columns)]
    assert solve(columns, target) == x
    f2 = [[F2_ELEMENTS[int(j in (0, 66))] for j in range(ncols)],
          [F2_ELEMENTS[int(j in (64, 66))] for j in range(ncols)]]
    assert matrix_rank(f2) == 2
    assert kernel_dimension(f2)[0] == ncols - 2


@settings(max_examples=80, deadline=None)
@given(_matrices(5, 6))
def test_code_record_matches_the_object_record(case):
    elements, mat = case
    codes = [{k: elements.index(x) for k, x in enumerate(r) if x} for r in mat]
    objects = [{k: x for k, x in enumerate(r) if x} for r in mat]
    order = range(len(mat[0]))
    code_rows, code_pivots = exactcore._echelon(codes, order, exactcore._CODES)
    object_rows, object_pivots = exactcore._echelon(objects, order, exactcore._OBJECTS)
    assert code_pivots == object_pivots
    decoded = [{k: repr(elements[c]) for k, c in row.items()} for row in code_rows]
    assert decoded == [{k: repr(x) for k, x in row.items()} for row in object_rows]


def test_f2_and_f4_matrices_stay_on_the_object_record(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated on GF(4) codes")

    monkeypatch.setattr(exactcore, "_CODES", (refuse, refuse))
    zero, one, w, w2 = F4_ELEMENTS
    f2 = [[F2_ELEMENTS[1], F2_ELEMENTS[1]], [F2_ELEMENTS[1], F2_ELEMENTS[0]]]
    assert matrix_rank(f2) == 2
    assert kernel_dimension([f2[0]]) == (1, [[F2_ELEMENTS[1], F2_ELEMENTS[1]]])
    assert solve(f2, [F2_ELEMENTS[0], F2_ELEMENTS[1]]) == [F2_ELEMENTS[1], F2_ELEMENTS[1]]
    f4 = [[one, w, zero], [w, w2, one]]
    assert matrix_rank(f4) == 2
    assert kernel_dimension(f4) == (1, [[w, one, zero]])
    assert solve([[one, w], [zero, one]], [one, zero]) == [one, w]


def test_mixed_f4_and_f2_entries_raise_type_error():
    mixed = [[F4(1), F4(0)], [Fp(2, 1), Fp(2, 1)]]
    with pytest.raises(TypeError):
        matrix_rank(mixed)
    with pytest.raises(TypeError):
        kernel_dimension(mixed)
    with pytest.raises(TypeError):
        solve([(F4(1), Fp(2, 1)), (F4(0), Fp(2, 1))], (F4(1), Fp(2, 0)))


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


# every entry point into the elimination, and every module that reads
# coordinates, twists or ranks, applies exactcore's one exact-input rule
_TWO_BY_TWO = {"float": [[0.5, 1], [1, 2]], "bool": [[True, 0], [0, 1]],
               "str": [["1", 0], [0, 1]]}
_INEXACT_CALLS = [
    *(pytest.param(lambda m=m: matrix_rank(m), id=f"matrix_rank-{k}")
      for k, m in _TWO_BY_TWO.items()),
    *(pytest.param(lambda m=m: solve(m, [1, 0]), id=f"solve-{k}")
      for k, m in _TWO_BY_TWO.items()),
    *(pytest.param(lambda m=m: kernel_dimension(m), id=f"kernel_dimension-{k}")
      for k, m in _TWO_BY_TWO.items()),
    *(pytest.param(lambda c=c: span_dimension([Polynomial(XY, {(1, 0): c, (0, 1): 1})]),
                   id=f"span_dimension-{type(c).__name__}")
      for c in (0.5, True, "1")),
    pytest.param(lambda: solve([[0.1, 0.2]], [0.3, 0.6]), id="solve-float-system"),
    pytest.param(lambda: veronese.veronese_map((0.1, "2", True)), id="veronese_map"),
    pytest.param(lambda: veronese.secant_stratum((0.5, 1, 1, "1", 0, True)),
                 id="secant_stratum"),
    pytest.param(lambda: schubert.line_character(0.1), id="line_character"),
    pytest.param(lambda: schubert.chern_to_character(schubert.ONE, 1.0),
                 id="chern_to_character"),
    pytest.param(lambda: schubert.twist_character(schubert.ONE, 0.5), id="twist_character"),
]


@pytest.mark.parametrize("call", _INEXACT_CALLS)
def test_inexact_inputs_raise_value_error(call):
    # a float, a bool or a string was coerced or passed on to the arithmetic
    with pytest.raises(ValueError, match="must be"):
        call()


def test_exact_matrices_keep_their_ranks():
    w = F4(0, 1)
    cases = [
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 2),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], 1),
        ([[1, Fraction(1, 2)], [0, Fraction(-2, 3)]], 2),
        ([[Fp(2, 1), Fp(2, 3)], [Fp(2, 5), Fp(2, 1)]], 1),
        ([[Fp(2, 1), Fp(2, 1), Fp(2, 0)], [Fp(2, 0), Fp(2, 1), Fp(2, 1)],
          [Fp(2, 1), Fp(2, 0), Fp(2, 1)]], 2),
        ([[F4(1), w], [w, w * w]], 1),
        ([[F4(1), w, F4(0)], [F4(0), F4(1), w], [w, F4(0), F4(1)]], 2),
        ([[F4(1), w, F4(0)], [F4(0), F4(1), w], [F4(1), F4(0), F4(1)]], 3),
        ([[0, 0], [0, 0]], 0),
    ]
    assert [matrix_rank(m) for m, _ in cases] == [r for _, r in cases]
    assert solve([[1, 2], [Fraction(1, 2), 1]], [2, 4]) is None
    assert solve([[1, 0], [0, 1]], [3, Fraction(1, 2)]) == [3, Fraction(1, 2)]
    assert span_dimension([Polynomial(XY, {(1, 0): 2, (0, 1): Fraction(1, 3)}),
                           Polynomial(XY, {(1, 0): 6, (0, 1): 1})]) == 1


# zero entries, polynomial coefficients and Chern ranks that slipped past
# the rule: a falsy float, bool or string entry was dropped unchecked, a
# polynomial kept 0.5 as a coefficient, and a rank of '1' was stored as given;
# a Chern class or character is a Polynomial over the formal generators,
# never a string, a bool, a list or a polynomial in other variables
_UNCHECKED_CALLS = [
    pytest.param(lambda: matrix_rank([[0.0, False], ["", 0]]), id="matrix_rank-zeros"),
    pytest.param(lambda: kernel_dimension([[0.0, 0.0]]), id="kernel_dimension-zeros"),
    pytest.param(lambda: Polynomial(XY, {(1, 0): 0.5, (0, 1): 1}), id="Polynomial-float"),
    pytest.param(lambda: Polynomial(XY, {(1, 0): 0.0}), id="Polynomial-zero-float"),
    pytest.param(lambda: Polynomial(XY, {(1, 0): True}), id="Polynomial-bool"),
    pytest.param(lambda: Polynomial.constant(XY, 0.0), id="Polynomial.constant-zero-float"),
    pytest.param(lambda: Polynomial.variable("x", XY).scale(0.5), id="scale-float"),
    pytest.param(lambda: Polynomial.variable("x", XY).scale(0.0), id="scale-zero-float"),
    pytest.param(lambda: Polynomial.variable("x", XY) * 0.5, id="mul-float"),
    pytest.param(lambda: schubert.character_to_chern("1"), id="character_to_chern-str"),
    pytest.param(lambda: schubert.character_to_chern(True), id="character_to_chern-bool"),
    pytest.param(lambda: schubert.chern_to_character(schubert.ONE, 1.5),
                 id="chern_to_character-float"),
    pytest.param(lambda: schubert.chern_to_character(schubert.ONE, "1"),
                 id="chern_to_character-str"),
    pytest.param(lambda: schubert.chern_to_character(schubert.ONE, True),
                 id="chern_to_character-bool"),
    pytest.param(lambda: schubert.twist_character(schubert.ONE, True), id="twist_character-bool"),
    pytest.param(lambda: schubert.twist_character([schubert.ONE], 1), id="twist_character-list"),
    pytest.param(lambda: schubert.chern_to_character(Polynomial.variable("x", XY), 1),
                 id="chern_to_character-foreign"),
]


@pytest.mark.parametrize("call", _UNCHECKED_CALLS)
def test_zeros_coefficients_and_ranks_obey_the_exact_input_rule(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_exact_zeros_coefficients_and_ranks_unchanged():
    # int, Fraction, F2 and F4 zeros are still dropped without a check
    assert matrix_rank([[0, Fraction(0)], [0, 1]]) == 1
    assert kernel_dimension([[0, 0]]) == (2, [[1, 0], [0, 1]])
    assert kernel_dimension([[Fraction(0), 1]]) == (1, [[1, 0]])
    assert matrix_rank([[Fp(2, 0), Fp(2, 3)], [Fp(2, 0), Fp(2, 1)]]) == 1
    assert kernel_dimension([[F4(0), F4(0)]]) == (2, [[F4(1), F4(0)], [F4(0), F4(1)]])
    p = Polynomial(XY, {(1, 0): 2, (0, 1): Fraction(0), (1, 1): Fraction(1, 3)})
    assert p.terms == {(1, 0): 2, (1, 1): Fraction(1, 3)}
    assert p == Polynomial(XY, {(1, 0): Fraction(2), (1, 1): Fraction(1, 3)})
    assert Polynomial(XY, {(1, 0): Fp(2, 0), (0, 1): F4(0)}).is_zero()
    assert Polynomial.constant(XY, 0).is_zero()
    assert Polynomial.constant(XY, Fraction(0)).is_zero()
    assert p.scale(0).is_zero() and p.scale(Fraction(0)).is_zero()
    assert p.scale(3) == p.scale(Fraction(3)) == 3 * p
    assert p.scale(Fraction(1, 2)).terms == {(1, 0): 1, (1, 1): Fraction(1, 6)}
    assert Polynomial(XY, {(1, 0): Fp(2, 1)}).scale(Fp(2, 3)).terms == {(1, 0): Fp(2, 1)}
    trivial = schubert.ONE
    assert (schubert.chern_to_character(trivial, 2)
            == schubert.chern_to_character(trivial, Fraction(2)) == 2 * schubert.ONE)
    rank = schubert.chern_to_character(trivial, Fraction(3, 2)).terms[(0, 0, 0, 0)]
    assert rank == Fraction(3, 2) and type(rank) is Fraction


# ambients, exponents, evaluation points, partitions and counts that slipped
# past the rule: a Schubert class on Gr(2,5.5) was built and multiplied,
# sigma_1 ** -1 gave the unit, p ** True gave p, evaluate returned the float
# 0.1, pieri read (True, 0) and k = True as (1, 0) and 1, monomials_of_degree
# read True variables as one or recursed without end on -1, and a degree
# bound of 2.5 reached range()
_SIGMA1 = schubert.SchubertElement.sigma(5, 1)
_X = Polynomial.variable("x", XY)
_UNCHECKED_AMBIENTS_POWERS_POINTS = [
    pytest.param(lambda: schubert.SchubertElement(5.5, {(1, 0): 1}), id="ambient-float"),
    pytest.param(lambda: schubert.SchubertElement(True, {}), id="ambient-bool"),
    pytest.param(lambda: schubert.SchubertElement(1, {}), id="ambient-1"),
    pytest.param(lambda: schubert.SchubertElement(0, {}), id="ambient-0"),
    pytest.param(lambda: schubert.SchubertElement("5", {(1, 0): 1}), id="ambient-str"),
    pytest.param(lambda: _SIGMA1 ** -1, id="schubert-pow-negative"),
    pytest.param(lambda: _SIGMA1 ** True, id="schubert-pow-bool"),
    pytest.param(lambda: _SIGMA1 ** 1.5, id="schubert-pow-float"),
    pytest.param(lambda: _X ** True, id="polynomial-pow-bool"),
    pytest.param(lambda: _X ** 1.5, id="polynomial-pow-float"),
    pytest.param(lambda: _X.evaluate({"x": 0.1, "y": "2"}), id="evaluate-float-str"),
    pytest.param(lambda: _X.evaluate({"x": 1, "y": "2"}), id="evaluate-unused-str"),
    pytest.param(lambda: Polynomial.zero(XY).evaluate({"x": 0.1, "y": 1}), id="evaluate-zero"),
    pytest.param(lambda: schubert.pieri((1, 0), True, 5), id="pieri-k-bool"),
    pytest.param(lambda: schubert.pieri((1, 0), 1.0, 5), id="pieri-k-float"),
    pytest.param(lambda: schubert.pieri((True, 0), 1, 5), id="pieri-partition-bool"),
    pytest.param(lambda: schubert.pieri((1.0, 0), 1, 5), id="pieri-partition-float"),
    pytest.param(lambda: schubert.dual_pieri((1, False), 5), id="dual_pieri-partition-bool"),
    pytest.param(lambda: schubert.dual_pieri((1.0, 0), 5), id="dual_pieri-partition-float"),
    pytest.param(lambda: monomials_of_degree(-1, 2), id="monomials-negative-count"),
    pytest.param(lambda: monomials_of_degree(2, 1.5), id="monomials-float-degree"),
    pytest.param(lambda: monomials_of_degree(True, 2), id="monomials-bool-count"),
    pytest.param(lambda: monomials_of_degree(2, True), id="monomials-bool-degree"),
    pytest.param(lambda: veronese.projection_kernel_certificate(2.5), id="kernel-bound-float"),
    pytest.param(lambda: veronese.projection_kernel_principal_certificate(3.0),
                 id="principal-kernel-bound-float"),
]


@pytest.mark.parametrize("call", _UNCHECKED_AMBIENTS_POWERS_POINTS)
def test_ambients_powers_and_points_obey_the_exact_input_rule(call):
    with pytest.raises(ValueError):
        call()


def test_exact_ambients_powers_and_points_unchanged():
    S = schubert.SchubertElement
    assert repr(S(2, {})) == "0 (Gr(2,2))"
    assert S(2, {(0, 0): 1}) == S.unit(2)
    assert schubert.pieri((1, 0), 1, 5) == schubert.pieri([1, 0], 1, 5) == _SIGMA1 ** 2
    assert schubert.dual_pieri((1, 0), 5) == S(5, {(2, 1): 1})
    assert schubert.dual_pieri([3, 0], 5) == S.zero(5)
    assert _SIGMA1 ** 0 == S.unit(5)
    assert _SIGMA1 ** 2 == S(5, {(2, 0): 1, (1, 1): 1})
    assert _SIGMA1 ** 6 == S(5, {(3, 3): 5})
    x, y = _X, Polynomial.variable("y", XY)
    assert x ** 0 == Polynomial.constant(XY, 1)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        x ** -1
    p = 3 * x * x * y + Fraction(1, 2) * y
    assert p.evaluate({"x": 2, "y": Fraction(1, 3)}) == Fraction(4) + Fraction(1, 6)
    assert p.evaluate({"x": Fraction(-1), "y": 0}) == 0
    assert Polynomial.zero(XY).evaluate({"x": 1, "y": Fraction(2)}) == 0
    assert Polynomial(XY, {(1, 1): F4(1)}).evaluate({"x": F4(0, 1), "y": F4(0, 1)}) == F4(1, 1)
    with pytest.raises(ValueError, match="unmapped variable: y"):
        x.evaluate({"x": 1})


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(4, 2)) == 10
    assert monomials_of_degree(2, 1) == [(1, 0), (0, 1)]
    assert monomials_of_degree(1, 2) == [(2,)]
    assert monomials_of_degree(0, 0) == [()] and monomials_of_degree(0, 1) == []
    assert monomials_of_degree(3, -1) == [] and monomials_of_degree(0, -2) == []


def test_ideal_graded_dimension_examples():
    x = Polynomial.variable("x", XY)
    assert ideal_graded_dimension([x], 2) == 2
    gens = veronese.proposed_kernel_generators()
    assert ideal_graded_dimension(gens, 2) == 2
    assert ideal_graded_dimension(veronese.veronese_ideal(), 2) == 6


def test_ideal_graded_dimension_rejects_inhomogeneous():
    p = _poly({"x": 1, "1": 1})
    with pytest.raises(ValueError):
        ideal_graded_dimension([p], 2)


def test_ideal_piece_spans_degree_d_multiples():
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    assert ideal_piece([x, y * y], 2) == [x * x, x * y, y * y]
    assert ideal_piece([x * x], 1) == []
    assert ideal_piece([], 3) == []
    with pytest.raises(ValueError):
        ideal_piece([x, Polynomial.variable("u", ("u", "v"))], 2)


def test_span_helpers():
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    assert span_dimension([x, y, x + y]) == 2
    assert spans_contain([x, y], [x - y])
    assert not spans_contain([x], [y])
    # plain int coefficients: dividing them as ints would go through floats,
    # and float rounding leaves p + q outside the span of p and q
    p = poly_from_string_exps(XY, {"x": -3, "y": -3, "1": -2})
    q = poly_from_string_exps(XY, {"x": -2, "y": -3, "1": -3})
    assert spans_contain([p, q], [p + q])


def test_span_helpers_refuse_different_variable_lists():
    # rows are keyed by exponent tuple, so x in Q[x, y] and u in Q[u, v]
    # would read as one vector
    x = Polynomial.variable("x", XY)
    u = Polynomial.variable("u", ("u", "v"))
    for call in (lambda: span_dimension([x, u]), lambda: spans_contain([x], [u])):
        with pytest.raises(ValueError, match="different variable lists"):
            call()


def _dense_rank(polys) -> int:
    """Rank of the coefficient rows over all monomials that occur, by a
    plain Fraction elimination kept apart from exactcore."""
    monos = sorted({e for p in polys for e in p.terms})
    rows = [[Fraction(p.terms.get(e, 0)) for e in monos] for p in polys]
    rank = 0
    for c in range(len(monos)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# int and Fraction coefficients: int / int would be a float
_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                    max_denominator=4))
_SPAN_POLYS = st.lists(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFFS, max_size=4),
    max_size=5).map(lambda terms: [Polynomial(XY, t) for t in terms])
_HOMOGENEOUS_GENS = st.lists(st.integers(0, 2).flatmap(lambda deg: st.dictionaries(
    st.sampled_from(monomials_of_degree(2, deg)), _COEFFS, min_size=1, max_size=3)),
    max_size=3).map(lambda terms: [Polynomial(XY, t) for t in terms])


@settings(max_examples=60, deadline=None)
@given(_SPAN_POLYS, _SPAN_POLYS, st.lists(_COEFFS, min_size=5, max_size=5),
       _HOMOGENEOUS_GENS, st.integers(0, 4))
def test_span_helpers_match_a_dense_rank(container, members, multipliers, gens, d):
    rank = _dense_rank(container)
    assert span_dimension(container) == rank
    assert spans_contain(container, members) == \
        (_dense_rank(container + members) == rank)
    combination = Polynomial.zero(XY)
    for c, p in zip(multipliers, container):
        combination = combination + p.scale(c)
    assert spans_contain(container, [combination])
    assert ideal_graded_dimension(gens, d) == _dense_rank(ideal_piece(gens, d))


def test_random_spans_stay_consistent():
    rng = random.Random("exactcore-spans")
    basis = [_poly({"x^2": 1}), _poly({"x*y": 1}), _poly({"y^2": 1})]
    for _ in range(40):
        combo = [Fraction(rng.randrange(-5, 6)) for _ in range(3)]
        member = Polynomial.zero(XY)
        for c, b in zip(combo, basis):
            member = member + b.scale(c)
        assert spans_contain(basis, [member])
