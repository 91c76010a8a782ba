"""Schubert calculus on Gr(2,n), two-row partitions only.

Basis classes are sigma_(a,b) with n-2 >= a >= b >= 0.  Products use the
Littlewood-Richardson rule, which for two-row shapes is the GL_2
Clebsch-Gordan rule: sigma_(a,b) * sigma_(c,d) is the sum of
sigma_(a+c-k, b+d+k) over 0 <= k <= min(a-b, c-d), clipped to the
2 x (n-2) box, so every coefficient is 0 or 1 (Fulton, Young Tableaux, sec. 5).
An independent product route via iterated Pieri steps is kept for
cross-checking.

Chern-class bookkeeping happens in the formal weighted ring Q[s1,s11,s2,s3]
(weights 1,2,2,3), whose elements are exactcore Polynomials over
FORMAL_GENERATORS.  A total Chern class 1 + c1 + c2 + c3 and a Chern character
rank + ch1 + ch2 + ch3 are each one Polynomial cut at weight 3; an entry that
takes a class raises ValueError on a term of higher weight.  Powers of s1 stay
symbolic and are only paired against the ambient Grassmannian at the very end.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from .exactcore import Polynomial, _exact_ints, _exact_rational, _is_int

Partition2 = tuple  # (a, b) with a >= b >= 0


def partition_is_valid(lam: Partition2, n: int) -> bool:
    a, b = lam
    return 0 <= b <= a <= n - 2


class SchubertElement:
    """Rational linear combination of two-row Schubert classes on Gr(2,n), n an
    int >= 2.  Partition entries must be ints and coefficients ints or Fractions."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[Partition2, object] | None = None):
        if not _is_int(n) or n < 2:
            raise ValueError(f"ambient n must be an integer at least 2: {n!r}")
        self.n = n
        clean = {}
        if coeffs:
            for lam, c in coeffs.items():
                lam = _exact_ints(lam, "partition entries")
                if not partition_is_valid(lam, n):
                    raise ValueError("invalid partition")
                c = _exact_rational(c, "coefficient")
                if c:
                    clean[lam] = clean[lam] + c if lam in clean else c
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def sigma(cls, n: int, a: int, b: int = 0) -> "SchubertElement":
        return cls(n, {(a, b): Fraction(1)})

    @classmethod
    def unit(cls, n: int) -> "SchubertElement":
        return cls(n, {(0, 0): Fraction(1)})

    @classmethod
    def zero(cls, n: int) -> "SchubertElement":
        return cls(n, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def codimensions(self) -> set:
        return {a + b for a, b in self.coeffs}

    def _check(self, other: "SchubertElement"):
        if self.n != other.n:
            raise ValueError("ambient mismatch")

    def __add__(self, other):
        if not isinstance(other, SchubertElement):
            return NotImplemented
        self._check(other)
        coeffs = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            coeffs[lam] = coeffs[lam] + c if lam in coeffs else c
        return _from_valid(self.n, coeffs)

    def __sub__(self, other):
        if not isinstance(other, SchubertElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "SchubertElement":
        c = _exact_rational(c, "coefficient")
        return _from_valid(self.n, {lam: v * c for lam, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SchubertElement):
            return mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SchubertElement":
        if not _is_int(k) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {k!r}")
        out = SchubertElement.unit(self.n)
        for _ in range(k):
            out = mul(out, self)
        return out

    def __eq__(self, other):
        if isinstance(other, SchubertElement):
            return self.n == other.n and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"0 (Gr(2,{self.n}))"
        bits = []
        for lam in sorted(self.coeffs):
            c = self.coeffs[lam]
            bits.append(f"{c}*sigma{lam}")
        return " + ".join(bits)


def _from_valid(n: int, coeffs: dict) -> SchubertElement:
    """The element with these coefficients, zeros dropped, built without the
    constructor's checks: they come from a sum, scalar multiple or product
    of valid elements, so the partitions are valid and the coefficients
    Fractions."""
    out = SchubertElement.__new__(SchubertElement)
    out.n = n
    out.coeffs = {lam: c for lam, c in coeffs.items() if c}
    return out


def pieri(lam: Partition2, k: int, n: int) -> SchubertElement:
    """Multiply sigma_lam by the special class sigma_k, k >= 1.

    Result: sum of sigma_mu over mu containing lam with mu/lam a horizontal
    strip of size k, clipped to the 2 x (n-2) box.
    """
    a, b = lam = _exact_ints(lam, "partition entries")
    if not partition_is_valid(lam, n):
        raise ValueError("invalid partition")
    if not _is_int(k) or not 1 <= k <= n - 2:
        raise ValueError("invalid special class index")
    out = {}
    # mu = (a2, b2), horizontal strip: a2 >= a >= b2 >= b, sizes add up
    for b2 in range(b, a + 1):
        a2 = a + b + k - b2
        if a2 < a or a2 > n - 2 or b2 > a2:
            continue
        out[(a2, b2)] = Fraction(1)
    return SchubertElement(n, out)


def dual_pieri(lam: Partition2, n: int) -> SchubertElement:
    """Multiply sigma_lam by sigma_(1,1): shift by (1,1), zero out of the box."""
    a, b = lam = _exact_ints(lam, "partition entries")
    if not partition_is_valid(lam, n):
        raise ValueError("invalid partition")
    if a + 1 > n - 2:
        return SchubertElement.zero(n)
    return SchubertElement(n, {(a + 1, b + 1): Fraction(1)})


def mul(x: SchubertElement, y: SchubertElement) -> SchubertElement:
    """Chow-ring product by the two-row Littlewood-Richardson rule, which is
    the GL_2 Clebsch-Gordan rule: sigma_(a,b) * sigma_(c,d) is the sum of
    sigma_(a+c-k, b+d+k) over 0 <= k <= min(a-b, c-d), each with coefficient
    1, dropping the terms with a+c-k > n-2 that leave the 2 x (n-2) box."""
    if x.n != y.n:
        raise ValueError("ambient mismatch")
    n = x.n
    out: dict = {}
    for (a, b), cx in x.coeffs.items():
        for (c, d), cy in y.coeffs.items():
            cxy = cx * cy
            for k in range(max(0, a + c - (n - 2)), min(a - b, c - d) + 1):
                nu = (a + c - k, b + d + k)
                out[nu] = out[nu] + cxy if nu in out else cxy
    return _from_valid(n, out)


def mul_via_pieri(x: SchubertElement, y: SchubertElement) -> SchubertElement:
    """Independent product route: split each sigma_(c,d) of y as d steps of
    the (1,1) shift followed by one Pieri step of size c-d."""
    if x.n != y.n:
        raise ValueError("ambient mismatch")
    n = x.n
    total = SchubertElement.zero(n)
    for (c, d), cy in y.coeffs.items():
        part = x
        for _ in range(d):
            acc = SchubertElement.zero(n)
            for lam, cv in part.coeffs.items():
                acc = acc + dual_pieri(lam, n).scale(cv)
            part = acc
        if c > d:
            acc = SchubertElement.zero(n)
            for lam, cv in part.coeffs.items():
                acc = acc + pieri(lam, c - d, n).scale(cv)
            part = acc
        total = total + part.scale(cy)
    return total


def degree(x: SchubertElement) -> Fraction:
    """Coefficient of the box class sigma_(n-2,n-2); zero input gives 0."""
    if x.is_zero():
        return Fraction(0)
    top = 2 * (x.n - 2)
    if x.codimensions() != {top}:
        raise ValueError("non-top-degree")
    return x.coeffs.get((x.n - 2, x.n - 2), Fraction(0))


# ---------------------------------------------------------------------------
# formal Chern bookkeeping
# ---------------------------------------------------------------------------

# generators of the formal ring and their weights
FORMAL_GENERATORS = ("s1", "s11", "s2", "s3")
FORMAL_WEIGHTS = (1, 2, 2, 3)

# every monomial of weight 1, 2 and 3, in a fixed order: s1; s1^2, s11, s2;
# s1^3, s1*s11, s1*s2, s3
WEIGHT_BASES = {
    1: ((1, 0, 0, 0),),
    2: ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
    3: ((3, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)),
}

ONE = Polynomial.constant(FORMAL_GENERATORS, Fraction(1))
ZERO = Polynomial.zero(FORMAL_GENERATORS)
S1 = Polynomial.variable("s1", FORMAL_GENERATORS)
S11 = Polynomial.variable("s11", FORMAL_GENERATORS)
S2 = Polynomial.variable("s2", FORMAL_GENERATORS)
S3 = Polynomial.variable("s3", FORMAL_GENERATORS)


def weight_vector(p: Polynomial, w: int) -> tuple:
    """Coefficients of a formal class on the weight-w monomials of
    WEIGHT_BASES, for w = 1, 2, 3."""
    return tuple(p.terms.get(e, Fraction(0)) for e in WEIGHT_BASES[w])


def _to_schubert(p: Polynomial, n: int) -> SchubertElement:
    """Expand the symbolic generators into actual Schubert classes."""
    gens = (SchubertElement.sigma(n, 1),
            SchubertElement.sigma(n, 1, 1),
            SchubertElement.sigma(n, 2),
            SchubertElement.sigma(n, 3))
    total = SchubertElement.zero(n)
    for e, c in p.terms.items():
        term = SchubertElement.unit(n)
        for g, k in zip(gens, e):
            for _ in range(k):
                term = mul(term, g)
        total = total + term.scale(c)
    return total


def _parts(*factors: Polynomial, total: bool = False) -> list:
    """[p0, p1, p2, p3], the weight parts of the product of the formal classes
    cut at weight 3, as Chern characters multiply (of one class, its parts).
    ValueError unless each factor is a Polynomial over FORMAL_GENERATORS with
    no term of weight above 3 and, if total, constant term 1."""
    out = [ONE, ZERO, ZERO, ZERO]
    for p in factors:
        if not isinstance(p, Polynomial) or p.variables != FORMAL_GENERATORS:
            raise ValueError(f"a formal class must be a Polynomial over {FORMAL_GENERATORS}: {p!r}")
        parts = [{}, {}, {}, {}]
        for e, c in p.terms.items():
            w = sum(k * g for k, g in zip(e, FORMAL_WEIGHTS))
            if w > 3:
                raise ValueError(f"a formal class must have no term of weight above 3: {p!r}")
            parts[w][e] = c
        parts = [Polynomial(FORMAL_GENERATORS, t) for t in parts]
        if total and parts[0] != ONE:
            raise ValueError(f"a total Chern class must have constant term 1: {p!r}")
        out = [sum((out[i] * parts[w - i] for i in range(w + 1)), ZERO) for w in range(4)]
    return out


def chern_to_character(c: Polynomial, rank) -> Polynomial:
    """Chern character rank + ch1 + ch2 + ch3 of a bundle of this rank with
    total Chern class c = 1 + c1 + c2 + c3, by Newton's identities:
    ch1 = c1, ch2 = (c1^2 - 2 c2)/2, ch3 = (c1^3 - 3 c1 c2 + 3 c3)/6."""
    _, c1, c2, c3 = _parts(c, total=True)
    ch2 = (c1 * c1 - c2.scale(2)).scale(Fraction(1, 2))
    ch3 = (c1 * c1 * c1 - (c1 * c2).scale(3) + c3.scale(3)).scale(Fraction(1, 6))
    return ONE.scale(_exact_rational(rank, "rank")) + c1 + ch2 + ch3


def character_to_chern(ch: Polynomial) -> Polynomial:
    """Invert chern_to_character weight by weight.  The rank is the
    constant term of ch; the Chern classes do not depend on it."""
    _, ch1, ch2, ch3 = _parts(ch)
    c2 = (ch1 * ch1).scale(Fraction(1, 2)) - ch2
    c3 = ch3.scale(2) - (ch1 * ch1 * ch1).scale(Fraction(1, 3)) + ch1 * c2
    return ONE + ch1 + c2 + c3


def line_character(m) -> Polynomial:
    """Character of a line class m*s1: exp(m*s1) through weight 3."""
    x = S1.scale(_exact_rational(m, "twist"))
    return ONE + x + (x * x).scale(Fraction(1, 2)) + (x * x * x).scale(Fraction(1, 6))


def twist_character(ch: Polynomial, m) -> Polynomial:
    """Tensor by the line class m*s1."""
    return sum(_parts(ch, line_character(m)), ZERO)


def tautological_sub_chern() -> Polynomial:
    """c(S) = 1 - s1 t + s11 t^2 of the rank-2 subbundle on Gr(2,n)."""
    return ONE - S1 + S11


def tautological_quotient_dual_chern() -> Polynomial:
    """c(Q*) = 1 - s1 t + s2 t^2 - s3 t^3 for the rank-3 quotient on Gr(2,5)."""
    return ONE - S1 + S2 - S3


def restriction_coefficients() -> tuple:
    """Scalar coefficients of (1 - s1 t + s1^2 t^2 - s1^3 t^3)^3 truncated
    at t^3, reported as (t^3, t^2, t^1, t^0) multipliers of s1-powers.
    Each t^k comes with s1^k, so they are read off as s1-power coefficients."""
    cube = (ONE - S1 + S1 ** 2 - S1 ** 3) ** 3
    return tuple(cube.terms.get((k, 0, 0, 0), Fraction(0)) for k in (3, 2, 1, 0))


def restrict_third_chern(c: Polynomial, coeffs: tuple) -> Polynomial:
    """Third Chern class after restriction along a codimension-3 linear
    section: sum of coeffs_k * s1^k * c_(3-k) for a total Chern class c,
    with coeffs = restriction_coefficients() in that order (k = 3, 2, 1, 0)."""
    parts = _parts(c, total=True)
    return sum((((S1 ** k) * parts[3 - k]).scale(x)
                for k, x in zip((3, 2, 1, 0), coeffs)), ZERO)


def weight3_degree_table() -> tuple:
    """Intersection numbers of the weight-3 basis monomials against s1^3
    on Gr(2,5): the pairing used on the codimension-3 linear section V5."""
    s1_cubed = SchubertElement.sigma(5, 1) ** 3
    out = []
    for e in WEIGHT_BASES[3]:
        mono = Polynomial(FORMAL_GENERATORS, {e: Fraction(1)})
        out.append(int(degree(mul(_to_schubert(mono, 5), s1_cubed))))
    return tuple(out)


V5Report = namedtuple("V5Report", [
    "cotangent_character",      # ch = 6 + ch1 + ch2 + ch3 of the ambient cotangent bundle
    "twisted_character",        # after tensoring with the square of the hyperplane class
    "chern",                    # total Chern class 1 + c1 + c2 + c3 of the twisted bundle
    "restriction_coefficients",
    "restricted_third_chern",   # Polynomial, weight 3
    "coefficient_vector",       # on the basis (s1^3, s1*s11, s1*s2, s3)
    "degree_table",
    "value",
])


def v5_separability_details() -> V5Report:
    """Full pipeline for the degree certificate of the cotangent bundle of
    Gr(2,5) twisted by O(2) (so c1 = -5 + 6*2 = 7), restricted to the
    codimension-3 linear section V5 cut out by three hyperplanes."""
    ch_cot = sum(_parts(chern_to_character(tautological_sub_chern(), 2),
                        chern_to_character(tautological_quotient_dual_chern(), 3)), ZERO)
    ch_tw = twist_character(ch_cot, 2)
    c = character_to_chern(ch_tw)
    coeffs = restriction_coefficients()
    cbar3 = restrict_third_chern(c, coeffs)
    vec = weight_vector(cbar3, 3)
    table = weight3_degree_table()
    value = sum(v * t for v, t in zip(vec, table))
    if value.denominator != 1:
        raise AssertionError("non-integral degree certificate")
    return V5Report(ch_cot, ch_tw, c, coeffs, cbar3, vec, table, int(value))
