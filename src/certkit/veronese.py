"""The quadratic Veronese surface in P^5, its secant cubic, the projection
kernel, singular containing quadrics, and smooth conics in characteristic 2.

Projective coordinates on P^5 are (x, y, z, s, t, u), matched to the generic
symmetric matrix [[x, u, t], [u, y, s], [t, s, z]].  The projection chart
lives in variables (t, u); the kernel ideal upstairs uses (Z, S, T, U).

The certificate functions return verdict records with every computed number
in them; nothing is clamped to an expected value.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactcore import (
    F2_ELEMENTS,
    F4,
    F4_ELEMENTS,
    GF4_INV,
    GF4_MUL,
    Fp,
    Polynomial,
    RationalFunction,
    _CODES,
    _cross3,
    _echelon,
    _exact_rational,
    _is_int,
    ideal_graded_dimension,
    ideal_piece,
    matrix_rank,
    monomials_of_degree,
    poly_from_string_exps,
    poly_substitute,
    span_dimension,
    spans_contain,
)

P5_VARS = ("x", "y", "z", "s", "t", "u")
KERNEL_VARS = ("Z", "S", "T", "U")
CHART_VARS = ("t", "u")


def _p5(data) -> Polynomial:
    return poly_from_string_exps(P5_VARS, data)


def veronese_ideal() -> list:
    """The six quadric generators, in a fixed order."""
    return [
        _p5({"x*y": 1, "u^2": -1}),
        _p5({"y*z": 1, "s^2": -1}),
        _p5({"z*x": 1, "t^2": -1}),
        _p5({"x*s": 1, "t*u": -1}),
        _p5({"y*t": 1, "u*s": -1}),
        _p5({"z*u": 1, "s*t": -1}),
    ]


def generic_symmetric_matrix() -> list:
    x, y, z, s, t, u = (Polynomial.variable(v, P5_VARS) for v in P5_VARS)
    return [[x, u, t], [u, y, s], [t, s, z]]


def symmetric_matrix_minors() -> list:
    """All nine 2x2 minors of the generic symmetric matrix."""
    m = generic_symmetric_matrix()
    out = []
    for rows in itertools.combinations(range(3), 2):
        for cols in itertools.combinations(range(3), 2):
            (r0, r1), (c0, c1) = rows, cols
            out.append(m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0])
    return out


def secant_cubic() -> Polynomial:
    return _p5({"x*y*z": 1, "s*t*u": 2, "x*s^2": -1, "y*t^2": -1, "z*u^2": -1})


def secant_cubic_matches_determinant() -> bool:
    m = generic_symmetric_matrix()
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det == secant_cubic()


def veronese_map(point: Sequence) -> tuple:
    """Degree-two embedding of P^2: (X,Y,Z) -> (X^2, Y^2, Z^2, YZ, ZX, XY),
    multiplied in the coordinates' own exact type: int coordinates give
    ints, and a Fraction among them gives Fractions."""
    if len(point) != 3:
        raise ValueError(f"point must have 3 coordinates: {point!r}")
    X, Y, Z = point
    if not (_is_int(X) and _is_int(Y) and _is_int(Z)):
        X, Y, Z = (_exact_rational(c, "coordinate") for c in (X, Y, Z))
    if X == Y == Z == 0:
        raise ValueError("zero point")
    return (X * X, Y * Y, Z * Z, Y * Z, Z * X, X * Y)


class SecantStratum(enum.Enum):
    ON_VERONESE = "OnVeronese"
    ON_SECANT_ONLY = "OnSecantOnly"
    GENERIC = "Generic"


def secant_stratum(point: Sequence) -> SecantStratum:
    """Position of a rational point of P^5 relative to the Veronese surface
    and its secant cubic, read off the rank of the symmetric matrix with
    rows r0, r1, r2 in closed form, in the coordinates' own arithmetic: 3
    when det = r0 . (r1 x r2) is nonzero, else 2 when the cross product of
    some pair of rows is nonzero, else 1."""
    if len(point) != 6:
        raise ValueError(f"point must have 6 coordinates: {point!r}")
    x, y, z, s, t, u = (c if _is_int(c) else _exact_rational(c, "coordinate")
                        for c in point)
    if not any((x, y, z, s, t, u)):
        raise ValueError("zero point")
    r0, r1, r2 = (x, u, t), (u, y, s), (t, s, z)
    a, b, c = _cross3(r1, r2)
    if x * a + u * b + t * c:
        return SecantStratum.GENERIC
    if a or b or c or any(_cross3(r0, r1)) or any(_cross3(r0, r2)):
        return SecantStratum.ON_SECANT_ONLY
    return SecantStratum.ON_VERONESE


# ---------------------------------------------------------------------------
# projection kernel
# ---------------------------------------------------------------------------

# chart images of the four surviving coordinates, as (t, u) exponents of
# their numerators: Z -> t^2, S -> tu, T -> t, U -> u.  All share the same
# denominator 1 - u^2, so numerators alone decide linear independence and
# kernel membership
_CHART_EXPONENTS = {"Z": (2, 0), "S": (1, 1), "T": (1, 0), "U": (0, 1)}


def projection_images() -> dict:
    one = Polynomial.constant(CHART_VARS, Fraction(1))
    u = Polynomial.variable("u", CHART_VARS)
    den = one - u * u
    return {name: RationalFunction(Polynomial(CHART_VARS, {exps: Fraction(1)}), den)
            for name, exps in _CHART_EXPONENTS.items()}


def proposed_kernel_generators() -> list:
    """The two quadrics the source text proposes for the kernel."""
    g1 = poly_from_string_exps(KERNEL_VARS, {"S^2": Fraction(1), "T*U": Fraction(-1)})
    g2 = poly_from_string_exps(KERNEL_VARS, {"S*T": Fraction(1), "U*Z": Fraction(-1)})
    return [g1, g2]


def principal_kernel_generator() -> Polynomial:
    """The single quadric that the chart computation actually annihilates:
    the second proposed generator, ST - UZ."""
    return proposed_kernel_generators()[1]


def _image_numerator(p: Polynomial) -> Polynomial:
    """Numerator of the chart image of p, homogeneous of degree d in
    (Z, S, T, U), over the common denominator (1 - u^2)^d; so p maps to
    zero exactly when this numerator is zero."""
    terms = {}
    for exps, c in p.terms.items():
        t = sum(e * _CHART_EXPONENTS[v][0] for v, e in zip(KERNEL_VARS, exps))
        u = sum(e * _CHART_EXPONENTS[v][1] for v, e in zip(KERNEL_VARS, exps))
        terms[t, u] = terms.get((t, u), 0) + c
    return Polynomial(CHART_VARS, terms)


DegreeRow = namedtuple("DegreeRow", ["degree", "ideal_dim", "image_dim",
                                     "ring_dim", "identity_holds"])
KernelVerdict = namedtuple("KernelVerdict", ["memberships", "rows",
                                             "membership_all", "identity_all"])


def _kernel_certificate(generators: list, degree_bound: int) -> KernelVerdict:
    if not _is_int(degree_bound):
        raise ValueError(f"degree bound must be an integer: {degree_bound!r}")
    if degree_bound < 2:
        raise ValueError("degree bound below two")
    # the numerators decide membership only for homogeneous generators;
    # ideal_graded_dimension raises on any other before a verdict is made
    memberships = [(repr(g), _image_numerator(g).is_zero()) for g in generators]
    rows = []
    for d in range(1, degree_bound + 1):
        ideal_dim = ideal_graded_dimension(generators, d)
        monos = monomials_of_degree(len(KERNEL_VARS), d)
        image_dim = span_dimension([_image_numerator(Polynomial(KERNEL_VARS, {e: 1}))
                                    for e in monos])
        ring_dim = math.comb(d + 3, 3)
        rows.append(DegreeRow(d, ideal_dim, image_dim, ring_dim,
                              ideal_dim + image_dim == ring_dim))
    return KernelVerdict(tuple(memberships), tuple(rows),
                         all(ok for _, ok in memberships),
                         all(r.identity_holds for r in rows))


def projection_kernel_certificate(degree_bound: int) -> KernelVerdict:
    """Membership and degreewise dimension identity for the two proposed
    kernel generators.  Reports whatever the arithmetic says."""
    return _kernel_certificate(proposed_kernel_generators(), degree_bound)


def projection_kernel_principal_certificate(degree_bound: int) -> KernelVerdict:
    """Same checks for the single-generator kernel ideal."""
    return _kernel_certificate([principal_kernel_generator()], degree_bound)


QuotientRow = namedtuple("QuotientRow", ["degree", "quotient_dim",
                                         "claimed_dim", "equal"])


def quotient_hilbert_comparison(kernel_rows) -> tuple:
    """Degreewise Hilbert function of the quotient by the two proposed
    generators, against the claimed splitting into a polynomial ring in
    three variables plus multiples of the extra coordinate over two.  The
    dimensions are read off kernel_rows, the rows of degrees 1, 2, ... of
    projection_kernel_certificate; degree 0 is the constants, C(3,3) = 1."""
    dims = [(0, math.comb(3, 3))] + [(r.degree, r.ring_dim - r.ideal_dim) for r in kernel_rows]
    rows = []
    for d, quotient in dims:
        claimed = math.comb(d + 2, 2) + d
        rows.append(QuotientRow(d, quotient, claimed, quotient == claimed))
    return tuple(rows)


# ---------------------------------------------------------------------------
# singular quadrics through the projected surface
# ---------------------------------------------------------------------------

PENCIL_VARS = ("alpha", "beta", "y", "z", "s", "t", "u")
PENCIL_POINT_COORDS = ("y", "z", "s", "t", "u")

PencilVerdict = namedtuple("PencilVerdict", ["partials_zero", "value_zero",
                                             "singular_for_all"])


def pencil_form() -> Polynomial:
    return poly_from_string_exps(PENCIL_VARS, {
        "alpha*s^2": Fraction(1), "alpha*t*u": Fraction(-1),
        "beta*s*t": Fraction(1), "beta*u*z": Fraction(-1),
    })


def quadric_pencil_singularity_certificate() -> PencilVerdict:
    """Checks that the base point of the projection is singular on every
    member of the quadric pencil, identically in the pencil parameters."""
    F = pencil_form()
    # the point y = 1, z = s = t = u = 0, with alpha and beta kept symbolic
    images = {v: Polynomial.variable(v, PENCIL_VARS) for v in ("alpha", "beta")}
    images["y"] = Polynomial.constant(PENCIL_VARS, Fraction(1))
    zero = Polynomial.zero(PENCIL_VARS)
    point = {v: RationalFunction.from_polynomial(images.get(v, zero)) for v in PENCIL_VARS}
    partials = [(v, poly_substitute(F.derivative(v), point).is_zero())
                for v in PENCIL_POINT_COORDS]
    value_zero = poly_substitute(F, point).is_zero()
    ok = value_zero and all(z for _, z in partials)
    return PencilVerdict(tuple(partials), value_zero, ok)


# ---------------------------------------------------------------------------
# hyperplane splitting of a singular quadric section
# ---------------------------------------------------------------------------

P4_VARS = ("x0", "x1", "x2", "x3", "x4")

QUADRIC_CHOICES = {
    "x0x1+x2^2": {"x0*x1": 1, "x2^2": 1},
    "x0x1+x2x3": {"x0*x1": 1, "x2*x3": 1},
}

SplitRow = namedtuple("SplitRow", ["degree", "pair_dim", "intersection_dim", "equal"])
SplitVerdict = namedtuple("SplitVerdict", [
    "hyperplane", "component_a", "component_b",
    "containment_ok", "rows", "all_equal",
])


def _p4(data) -> Polynomial:
    return poly_from_string_exps(P4_VARS, {k: Fraction(v) for k, v in data.items()})


def split_hyperplane_certificate(quadric_choice: str, avoided_divisor=None) -> SplitVerdict:
    """Split the hyperplane section of a singular quadric through the
    projected surface into two linear components, avoiding a designated
    coordinate subspace if one is given, and verify the ideal identity
    (quadric, hyperplane) = I_A meet I_B degree by degree up to 3."""
    if quadric_choice not in QUADRIC_CHOICES:
        raise ValueError("unknown quadric choice")
    q = _p4(QUADRIC_CHOICES[quadric_choice])
    x0, x1, x2, x3, _ = (Polynomial.variable(v, P4_VARS) for v in P4_VARS)
    # only the default components' planes, indices {0, 2} and {1, 2}, can be avoided
    if avoided_divisor is not None and not (
            isinstance(avoided_divisor, (tuple, list, set, frozenset))
            and all(_is_int(i) for i in avoided_divisor)
            and sorted(avoided_divisor) in ([0, 2], [1, 2])):
        raise ValueError(f"avoided divisor must be the index pair (0, 2) or (1, 2): "
                         f"{avoided_divisor!r}")

    if avoided_divisor is None:
        # default split: cut with the plane where the distinguished square
        # coordinate vanishes, so the quadric degenerates to a product
        h, comp_a, comp_b = x2, (x0, x2), (x1, x2)
    else:
        # tilt the hyperplane so neither component is the avoided subspace
        h = x1 - x2
        if quadric_choice == "x0x1+x2^2":
            # on x1 = x2 the quadric becomes x2 * (x0 + x2)
            comp_a = (x2, h)
            comp_b = (x0 + x2, h)
        else:
            # on x1 = x2 the quadric becomes x1 * (x0 + x3)
            comp_a = (x1, h)
            comp_b = (x0 + x3, h)

    # containment: q and h lie in both component ideals
    containment = True
    for gens in (comp_a, comp_b):
        for d, poly in ((1, h), (2, q)):
            piece = ideal_piece(gens, d)
            if not spans_contain(piece, [poly]):
                containment = False

    rows = []
    for d in range(1, 4):
        pair_piece = ideal_piece([q, h], d)
        a_piece = ideal_piece(comp_a, d)
        b_piece = ideal_piece(comp_b, d)
        a_dim = span_dimension(a_piece)
        b_dim = span_dimension(b_piece)
        sum_dim = span_dimension(a_piece + b_piece)
        inter_dim = a_dim + b_dim - sum_dim
        pair_dim = span_dimension(pair_piece)
        rows.append(SplitRow(d, pair_dim, inter_dim, pair_dim == inter_dim))
    return SplitVerdict(h, comp_a, comp_b, containment, tuple(rows),
                        containment and all(r.equal for r in rows))


# ---------------------------------------------------------------------------
# conics in characteristic two
# ---------------------------------------------------------------------------

# The conic layer computes on GF(4) codes (see exactcore.GF4_MUL): F2 is the
# codes {0, 1}, F4 the codes 0..3, a form is its six coefficient codes and a
# combination of basis members is a list of codes.  Codes add by XOR.  The
# field is read once from the entries, by _encode, and field elements appear
# only at the public boundary.

_FIELDS = {2: F2_ELEMENTS, 4: F4_ELEMENTS}


def _encode(values) -> tuple:
    """(q, codes) of field elements that are all F4 (q = 4) or all Fp(2, .)
    (q = 2); ValueError for any other entries or mix of them."""
    values = tuple(values)
    kinds = {type(x) for x in values}
    if kinds == {F4}:
        return 4, [x.c for x in values]
    if kinds == {Fp}:
        return 2, [x.c for x in values]
    raise ValueError("entries are not all in F2 or all in F4")


def _add(u, v, c) -> list:
    """u + c * v."""
    m = GF4_MUL[c]
    return [a ^ m[b] for a, b in zip(u, v)]


def _scale(u, c) -> list:
    m = GF4_MUL[c]
    return [m[a] for a in u]


def _combine(combo, basis) -> list:
    form = [0] * 6
    for mu, b in zip(combo, basis):
        if mu:
            form = _add(form, b, mu)
    return form


class QuadraticForm3:
    """Ternary quadratic form a x^2 + b y^2 + c z^2 + d yz + e zx + f xy."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 6:
            raise ValueError("expected six coefficients")
        self.coeffs = coeffs

    def __eq__(self, other):
        if isinstance(other, QuadraticForm3):
            return all(p == q for p, q in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __repr__(self):
        return f"QuadraticForm3{self.coeffs}"


# coefficient slots: 0 x^2, 1 y^2, 2 z^2, 3 yz, 4 zx, 5 xy
_SLOT_VARS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_PAIR_SLOT = ((0, 5, 4), (5, 1, 3), (4, 3, 2))   # slot of x_i x_j


def _plane_points(q: int) -> tuple:
    """One representative per point of P^2 over the field of order q, each
    with the codes of its monomials in slot order."""
    field = range(q)
    pts = [(1, y, z) for y in field for z in field]
    pts += [(0, 1, z) for z in field]
    pts.append((0, 0, 1))
    return tuple((p, tuple(GF4_MUL[p[i]][p[j]] for i, j in _SLOT_VARS)) for p in pts)


_PLANE_POINTS = {q: _plane_points(q) for q in (2, 4)}


def _smooth(form, points) -> bool:
    # a row of the table multiplies by that coefficient
    a, b, c, d, e, f = (GF4_MUL[k] for k in form)
    for (x, y, z), (xx, yy, zz, yz, zx, xy) in points:
        # partials in characteristic two
        if not (e[z] ^ f[y] or d[z] ^ f[x] or d[y] ^ e[x]):
            if not (a[xx] ^ b[yy] ^ c[zz] ^ d[yz] ^ e[zx] ^ f[xy]):
                return False
    return True


def is_smooth_conic(q: QuadraticForm3) -> bool:
    """Smoothness of the conic in characteristic two, decided literally:
    enumerate the projective points where all three partials vanish and
    demand the form be nonzero at each of them.  The field is read from the
    coefficients, which must be all F2 or all F4."""
    order, codes = _encode(q.coeffs)
    if not any(codes):
        raise ValueError("zero form")
    return _smooth(codes, _PLANE_POINTS[order])


def smooth_conic_closed_form(q: QuadraticForm3) -> bool:
    """Independent closed-form smoothness criterion in characteristic two:
    the off-diagonal part is nonzero and a d^2 + b e^2 + c f^2 + def is
    nonzero, computed on the field elements.  The coefficients must be all
    F2 or all F4, as for `is_smooth_conic`."""
    _encode(q.coeffs)
    a, b, c, d, e, f = q.coeffs
    if not (d or e or f):
        return False
    return bool(a * d * d + b * e * e + c * f * f + d * e * f)


@dataclass(frozen=True)
class ConicSubspace:
    """A linear system of ternary quadratic forms over F2 or F4.  The field
    is read from the entries here, once: `q` is its order, and `rows` holds
    the basis forms as GF(4) code rows, which the search computes on."""
    basis: tuple

    def __init__(self, basis):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        q, codes = _encode(c for form in basis for c in form.coeffs)
        if matrix_rank([list(form.coeffs) for form in basis]) != len(basis):
            raise ValueError("basis not linearly independent")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", tuple(tuple(codes[i:i + 6])
                                               for i in range(0, len(codes), 6)))

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _substitute_linear(vec, sub):
    """x_i -> sum_j sub[i][j] * x_j on the six form codes of a code row."""
    out = [0] * 6
    for slot, (v1, v2) in enumerate(_SLOT_VARS):
        coeff = vec[slot]
        if not coeff:
            continue
        # product of the two substituted linear forms
        l1, l2 = _scale(sub[v1], coeff), sub[v2]
        for i in range(3):
            if not l1[i]:
                continue
            m = GF4_MUL[l1[i]]
            for j in range(3):
                out[_PAIR_SLOT[i][j]] ^= m[l2[j]]
    return out + vec[6:]


def _swap_vars(vec, i, j):
    perm = [0, 1, 2]
    perm[i], perm[j] = perm[j], perm[i]
    out = [0] * 6
    for slot, (v1, v2) in enumerate(_SLOT_VARS):
        out[_PAIR_SLOT[perm[v1]][perm[v2]]] = vec[slot]
    return out + vec[6:]


ConicSearchResult = namedtuple("ConicSearchResult", ["form", "path", "combo"])


def exhaustive_smooth_conic(subspace: ConicSubspace):
    """Oracle: scan every member of the subspace, in itertools.product order
    over the codes of its coordinates on the basis, and return the first
    smooth one; None if the span has no smooth member.  The zero member
    comes first and is never smooth, as _smooth rejects the zero form."""
    q, basis = subspace.q, subspace.rows
    points = _PLANE_POINTS[q]
    for combo in itertools.product(range(q), repeat=len(basis)):
        form = _combine(combo, basis)
        if _smooth(form, points):
            return QuadraticForm3(_FIELDS[q][c] for c in form)
    return None


def _case_split(rows):
    """The source's four-way case split, on the code rows of a basis of a
    system of dimension at least four: (combo, path) naming one member by
    its coordinates on the rows, or None where a step has nothing to work
    with.  Smoothness of the member is left to the caller.

    One member is normalized to f = A x^2 + B y^2 + xy, and every branch
    names a member whose distinguished square coefficient is nonzero,
    which is exactly smoothness after the normalization.  A member is one
    row [six form codes | combo], as in [A | I]; coordinate changes act on the form."""
    n = len(rows)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]

    # pick a member with an off-diagonal term and rotate it into the xy slot
    pick = next((i for i, r in enumerate(rows) if r[3] or r[4] or r[5]), None)
    if pick is None:
        return None
    if not rows[pick][5]:
        # zx-term: swap y and z brings it to xy; yz-term: swap x and z
        swap = (1, 2) if rows[pick][4] else (0, 2)
        rows = [_swap_vars(r, swap[0], swap[1]) for r in rows]
    f = _scale(rows[pick], GF4_INV[rows[pick][5]])

    # absorb the remaining off-diagonal terms of f into a coordinate change
    alpha, beta = f[3], f[4]
    if alpha or beta:
        sub = ((1, 0, alpha), (0, 1, beta), (0, 0, 1))
        rows = [_substitute_linear(r, sub) for r in rows]
        f = _substitute_linear(f, sub)
    if f[3] or f[4] or f[5] != 1:
        return None
    if f[2]:
        return f[6:], "normalized-member-smooth"

    # case one: all three squares belong to the system, so it holds
    # xy + z^2 = f + A x^2 + B y^2 + z^2 (A, B from f).  Since
    # (sum a_i x_i)^2 = sum a_i^2 x_i^2, the coordinate changes keep the span
    # of the squares, so the test can run here.  Gauss-Jordan on the form
    # slots, carrying the combinations: the squares lie in the span exactly
    # when the first three reduced rows are x^2, y^2 and z^2 alone.
    reduced = _echelon([{k: c for k, c in enumerate(r) if c} for r in rows], range(6), _CODES)[0]
    if all(reduced[i].keys() & range(6) == {i} for i in range(3)):
        member = f
        for i, c in enumerate((f[0], f[1], 1)):
            member = _add(member, [reduced[i].get(k, 0) for k in range(6 + n)], c)
        return member[6:], "case-all-squares"

    # case two: take a member outside (squares + f) and normalize its yz term;
    # f = A x^2 + B y^2 + xy, so those are the members with a yz or zx term
    pick = next((i for i, r in enumerate(rows) if r[3] or r[4]), None)
    if pick is None:
        return None
    # subtraction is addition in characteristic two
    g = _add(rows[pick], f, rows[pick][5])
    if not g[3]:
        if not g[4]:
            return None
        rows = [_swap_vars(r, 0, 1) for r in rows]
        f = _swap_vars(f, 0, 1)
        g = _swap_vars(g, 0, 1)
    g = _scale(g, GF4_INV[g[3]])
    if g[4]:
        sub = ((1, 0, 0), (g[4], 1, 0), (0, 0, 1))
        rows = [_substitute_linear(r, sub) for r in rows]
        f = _substitute_linear(f, sub)
        g = _substitute_linear(g, sub)
    if g[0]:
        return g[6:], "yz-member-smooth"

    # each row modulo f and g, once: the residues have no xy and no yz term
    residues = []
    for r in rows:
        r = _add(r, f, r[5])
        residues.append(_add(r, g, r[3]))

    # case three: some residue keeps a zx term, and h clears slot k = zx;
    # case four: every residue is diagonal, and the first nonzero one names
    # the member unless it is a pure y^2, in which case h clears k = y^2
    k = 4
    h = next((r for r in residues if r[4]), None)
    if h is None:
        k = 1
        h = next((r for r in residues if any(r[:6])), None)
        if h is None:
            return None
        if h[2]:
            return _add(h, f, 1)[6:], "diagonal-plus-xy"
        if h[0]:
            return _add(h, g, 1)[6:], "diagonal-plus-yz"
    h = _scale(h, GF4_INV[h[k]])
    if k == 4 and h[1]:
        return h[6:], "zx-member-smooth"
    # a diagonal residue outside (f, g, h); in case four it has no y^2, so
    # when it has no z^2 it has an x^2 and the last line is case three's
    for r in residues:
        r = _add(r, h, r[k])
        if not any(r[:6]):
            continue
        if r[2]:
            return _add(r, f, 1)[6:], "diagonal-plus-xy"
        if r[0]:
            return _add(r, g, 1)[6:], "diagonal-plus-yz"
        return _add(r, h, 1)[6:], "diagonal-plus-zx"
    return None


def find_smooth_conic_details(subspace: ConicSubspace) -> ConicSearchResult:
    """Constructive search for a smooth conic in a linear system of
    dimension at least four over a field of characteristic two.

    Takes the member that _case_split names and checks that it is smooth.
    That is the only route: if the split names none, or a singular one (the
    zero member among them), the result is (None, "split-failed", None) and
    no member is scanned, so a broken split shows against the oracle,
    exhaustive_smooth_conic, instead of being mended by it.
    """
    q, basis = subspace.q, subspace.rows
    if subspace.dimension < 4:
        raise ValueError("subspace dimension below four")
    split = _case_split(basis)
    if split is not None:
        combo, path = split
        form = _combine(combo, basis)
        if _smooth(form, _PLANE_POINTS[q]):
            elements = _FIELDS[q]
            return ConicSearchResult(QuadraticForm3(elements[c] for c in form), path,
                                     tuple(elements[c] for c in combo))
    return ConicSearchResult(None, "split-failed", None)
