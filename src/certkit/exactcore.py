"""Exact-arithmetic kernel.

Rationals are `fractions.Fraction` (always lowest terms, positive
denominator).  Multivariate polynomials are dictionaries from exponent
vectors to nonzero coefficients; the coefficient domain can be Fraction,
int, the two-element field F2 (`Fp(2, v)`), or the four-element field F4.
Rational functions compare by cross-multiplication, so no polynomial GCD is
ever needed.

All ideal questions are answered degree by degree with linear algebra:
polynomial spans are eliminated on sparse rows keyed by monomial, by the
same Gauss-Jordan routine that reduces matrices, whose rows are keyed by
column.  The public matrix functions eliminate every matrix, over Q, F2 or
F4, with its entries' own operators; the routine also runs on GF(4) codes
for a caller that holds codes, which is the conic layer.  There is
deliberately no Groebner machinery here.

It also owns the exact-input rule, which every module applies through
`_is_int`, `_exact_ints` and `_exact_rational`: an integer is a plain int,
never a bool; a rational is an int or a Fraction; all else is a ValueError.
Polynomial coefficients and matrix entries may also be F2 (`Fp`) or F4
elements (`_EXACT_TYPES`), zero or not.  F2 and F4 share one arithmetic on
GF(4) codes, `_Char2`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# exact inputs
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    """A plain int: of type int exactly, so a bool (an int to Python) is not."""
    return type(x) is int


def _exact_ints(values, what: str) -> tuple:
    """The values as a tuple; ValueError if one is not a plain integer,
    where int() would truncate 1.5 or read True as 1."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers: {list(values)}")
    return values


def _exact_rational(x, what: str) -> Fraction:
    """x as a Fraction, a Fraction input as is; ValueError unless it is an
    int or a Fraction, where Fraction() would turn 0.1 into a 55-bit binary
    fraction, parse the string '5' or read True as 1."""
    if isinstance(x, Fraction):
        return x
    if _is_int(x):
        return Fraction(x)
    raise ValueError(f"{what} must be an int or a Fraction: {x!r}")


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


# GF(4) codes: F4(a, b) is the int a | b << 1 and Fp(2, v) is v, so each
# element tuple below is indexed by code.  Codes add by XOR; they multiply
# by this table (w^2 = w + 1), whose rows also give the inverses.
GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
GF4_INV = (None,) + tuple(row.index(1) for row in GF4_MUL[1:])


class _Char2:
    """An element of F2 or F4, held as its GF(4) code `c`.  Each result is
    one of the class's shared ELEMENTS, read from XOR, GF4_MUL or GF4_INV.
    An int operand k is read as the code k & 1; any other operand, an
    element of the other field included, is NotImplemented.  An element
    equals an int only when the int is 0 or 1 and is its code, and hashes
    as its code, so equal values hash alike."""

    __slots__ = ("c",)
    ELEMENTS: tuple

    def _code(self, other):
        if type(other) is type(self):
            return other.c
        if isinstance(other, int):
            return other & 1
        return None

    def __add__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return self.ELEMENTS[self.c ^ o]

    __radd__ = __add__
    __sub__ = __add__          # characteristic two
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return self.ELEMENTS[GF4_MUL[self.c][o]]

    __rmul__ = __mul__

    def inverse(self):
        if not self.c:
            raise ZeroDivisionError(f"inverse of zero in {type(self).__name__}")
        return self.ELEMENTS[GF4_INV[self.c]]

    def __truediv__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return self * self.ELEMENTS[o].inverse()

    def __rtruediv__(self, other):
        o = self._code(other)
        if o is None:
            return NotImplemented
        return self.ELEMENTS[o] * self.inverse()

    def __eq__(self, other):
        if type(other) is type(self):
            return self.c == other.c
        if isinstance(other, int):
            return self.c < 2 and self.c == other
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return self.c != 0


class F4(_Char2):
    """Element a + b*w of F_4 = F_2[w]/(w^2 + w + 1); a and b are plain ints,
    read mod 2."""

    __slots__ = ()

    def __init__(self, a: int, b: int = 0):
        if not (_is_int(a) and _is_int(b)):
            raise ValueError(f"F4 coordinates must be ints: {a!r}, {b!r}")
        self.c = a & 1 | (b & 1) << 1

    def __repr__(self):
        return f"F4({self.c & 1},{self.c >> 1})"


class Fp(_Char2):
    """Element v mod 2 of the prime field F_2, the one prime the package
    computes over; p must be the int 2 and v a plain int."""

    __slots__ = ()
    p = 2
    v = property(lambda self: self.c)

    def __init__(self, p: int, v: int):
        if not (_is_int(p) and p == 2 and _is_int(v)):
            raise ValueError(f"Fp must be Fp(2, v) with v an int: Fp({p!r}, {v!r})")
        self.c = v & 1

    def __repr__(self):
        return f"Fp(2,{self.c})"


F4.ELEMENTS = F4_ELEMENTS = (F4(0, 0), F4(1, 0), F4(0, 1), F4(1, 1))
Fp.ELEMENTS = F2_ELEMENTS = (Fp(2, 0), Fp(2, 1))

# the exact element types: field entries keep their type, and a plain int
# is exact too (a bool is not, since type(True) is bool)
_FIELD_TYPES = frozenset((Fraction, Fp, F4))
_EXACT_TYPES = _FIELD_TYPES | {int}
_EXACT_MESSAGE = "must be an int, a Fraction, an Fp or an F4"


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Multivariate polynomial as {exponent tuple: nonzero coefficient}.

    The variable list fixes both the exponent-vector length and the
    graded-lexicographic order used for deterministic basis enumeration.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object] | None = None):
        self.variables = tuple(variables)
        clean: dict = {}
        if terms:
            n = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent vector length mismatch")
                if not all(_is_int(e) and e >= 0 for e in exps):
                    raise ValueError(f"exponents must be nonnegative integers: {list(exps)}")
                if type(coeff) not in _EXACT_TYPES:
                    raise ValueError(f"coefficient {_EXACT_MESSAGE}: {coeff!r}")
                key = tuple(exps)
                if key in clean:
                    clean[key] = clean[key] + coeff
                else:
                    clean[key] = coeff
        # drop anything that is zero or cancelled during aggregation
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "Polynomial":
        n = len(variables)
        return cls(variables, {(0,) * n: c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms = dict(self.terms)
            for e, c in other.terms.items():
                if e in terms:
                    s = terms[e] + c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
                else:
                    terms[e] = c
            out = Polynomial.__new__(Polynomial)
            out.variables = self.variables
            out.terms = terms
            return out
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.variables = self.variables
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    if e in terms:
                        s = terms[e] + c
                        if s:
                            terms[e] = s
                        else:
                            del terms[e]
                    elif c:
                        terms[e] = c
            out = Polynomial.__new__(Polynomial)
            out.variables = self.variables
            out.terms = terms
            return out
        # scalar
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if type(c) not in _EXACT_TYPES:
            raise ValueError(f"scalar {_EXACT_MESSAGE}: {c!r}")
        out = Polynomial.__new__(Polynomial)
        out.variables = self.variables
        out.terms = {}
        for e, old in self.terms.items():
            v = old * c
            if v:
                out.terms[e] = v
        return out

    def __pow__(self, k: int) -> "Polynomial":
        if not _is_int(k):
            raise ValueError(f"power of a polynomial must be an integer: {k!r}")
        if k < 0:
            raise ValueError("negative power of a polynomial")
        base = self
        for c in self.terms.values():
            one = _one_like(c)
            break
        else:
            one = Fraction(1)
        result = Polynomial.constant(self.variables, one)
        for _ in range(k):
            result = result * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.variables == other.variables and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def derivative(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        terms: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = c * e[i]
            if new:
                terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = new
        out = Polynomial.__new__(Polynomial)
        out.variables = self.variables
        out.terms = terms
        return out

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; every variable must be given an exact value."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"unmapped variable: {missing[0]}")
        point = [values[v] for v in self.variables]
        for x in point:
            if type(x) not in _EXACT_TYPES:
                raise ValueError(f"point value {_EXACT_MESSAGE}: {x!r}")
        total = None
        for e, c in self.terms.items():
            term = c
            for x, exp in zip(point, e):
                for _ in range(exp):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k
            )
            if mono:
                bits.append(f"({c})*{mono}" if not _is_one(c) else mono)
            else:
                bits.append(f"({c})")
        return " + ".join(bits)


def _is_one(c) -> bool:
    try:
        return c == 1
    except TypeError:
        return False


def _one_like(c):
    if isinstance(c, Fraction):
        return Fraction(1)
    if isinstance(c, int):
        return 1
    if isinstance(c, _Char2):
        return c.ELEMENTS[1]
    raise TypeError(f"no multiplicative unit known for {type(c)!r}")


def poly_from_string_exps(variables: Sequence[str], data: Mapping[str, object]) -> Polynomial:
    """Convenience: {"x*y": 1, "u^2": -1} style construction for tests."""
    variables = tuple(variables)
    terms = {}
    for mono, c in data.items():
        e = [0] * len(variables)
        if mono not in ("", "1"):
            for factor in mono.split("*"):
                if "^" in factor:
                    name, k = factor.split("^")
                    e[variables.index(name)] += int(k)
                else:
                    e[variables.index(factor)] += 1
        terms[tuple(e)] = c
    return Polynomial(variables, terms)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of polynomials.  Equality is by cross-multiplication;
    no reduction to lowest terms is ever attempted."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.variables != den.variables:
            raise ValueError("numerator and denominator over different variables")
        self.num = num
        self.den = den

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(p.variables, Fraction(1)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (self.num * other.den) == (other.num * self.den)
        return NotImplemented

    def __hash__(self):
        raise TypeError("rational functions are unhashable (no canonical form)")

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def poly_substitute(p: Polynomial, images: Mapping[str, RationalFunction]) -> RationalFunction:
    """Substitute a rational function for every variable that occurs in p.

    Raises ValueError("unmapped variable") when p uses a variable with no
    image, and ValueError when there are no images to give the target
    variables.  The result is exact, over the one common denominator
    prod_j den_j^D_j, where D_j is the top exponent of variable j in p: the
    term c * prod_j x_j^e_j becomes c * prod_j num_j^e_j * den_j^(D_j - e_j).
    """
    tops = {}
    for j, v in enumerate(p.variables):
        top = max((e[j] for e in p.terms), default=0)
        if top:
            if v not in images:
                raise ValueError("unmapped variable")
            tops[j] = top
    if not images:
        raise ValueError("no images: the target variables are unknown")
    target_vars = next(iter(images.values())).num.variables
    for img in images.values():
        if img.num.variables != target_vars:
            raise ValueError("images over different variable lists")
    one = Polynomial.constant(target_vars, Fraction(1))
    # nums[j][k] = num_j^k and dens[j][k] = den_j^k for k = 0 .. D_j
    nums, dens = {}, {}
    for j, top in tops.items():
        img = images[p.variables[j]]
        nums[j], dens[j] = [one], [one]
        for _ in range(top):
            nums[j].append(nums[j][-1] * img.num)
            dens[j].append(dens[j][-1] * img.den)
    num, den = Polynomial.zero(target_vars), one
    for e, c in p.terms.items():
        term = Polynomial.constant(target_vars, c)
        for j, top in tops.items():
            term = term * nums[j][e[j]] * dens[j][top - e[j]]
        num = num + term
    for j, top in tops.items():
        den = den * dens[j][top]
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# linear algebra over an exact field
# ---------------------------------------------------------------------------


def _cross3(a, b):
    """The cross product of two vectors of length three, in the entries' own
    arithmetic: zero exactly when they are dependent."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _promote(items) -> dict:
    """Sparse row {key: entry} of the nonzero entries.  Fraction, F2 (`Fp`)
    and F4 entries are kept; any other goes through _exact_rational, so a
    plain int becomes a Fraction, which keeps division exact, and a float, a
    bool or a string raises ValueError, zero or not."""
    return {k: x if type(x) in _FIELD_TYPES else _exact_rational(x, "an entry not in Fp or F4")
            for k, x in items if x or type(x) not in _EXACT_TYPES}


def _axpy_objects(row: dict, f, pivot_row: dict):
    for k, b in pivot_row.items():
        x = row.get(k, 0) - f * b
        if x:
            row[k] = x
        else:
            del row[k]


def _axpy_codes(row: dict, f: int, pivot_row: dict):
    mul = GF4_MUL[f]
    for k, b in pivot_row.items():
        x = row.get(k, 0) ^ mul[b]
        if x:
            row[k] = x
        else:
            del row[k]


# A field as `_echelon` uses it: (axpy, scale), two whole-row operations, so
# no call is made per entry.  axpy(row, f, pivot_row) subtracts f * pivot_row
# from row in place; scale(row, pv) returns row / pv.  _OBJECTS works on
# Fraction, F2 and F4 entries with their own operators, and is the one record
# of the public matrix functions; _CODES works on GF(4) codes, for callers
# that keep their rows as codes (the conic layer in veronese).
_OBJECTS = (_axpy_objects, lambda row, pv: {k: x / pv for k, x in row.items()})
_CODES = (_axpy_codes, lambda row, pv: {k: GF4_MUL[GF4_INV[pv]][x] for k, x in row.items()})


def _echelon(rows: list, order: Iterable, field: tuple = _OBJECTS) -> tuple:
    """Gauss-Jordan elimination, in place, on sparse rows {key: nonzero
    entry} with the row operations of `field`, trying the keys in `order`
    as pivots.  Returns (rows, pivots):
    rows[i] is the reduced row of pivots[i], with a unit at its pivot and no
    other pivot key; the remaining rows keep only keys outside `order`."""
    axpy, scale = field
    nrows = len(rows)
    pivots = []
    r = 0
    for c in order:
        if r == nrows:
            break
        for i in range(r, nrows):
            if c in rows[i]:
                break
        else:
            continue
        pivot_row = rows[i]
        rows[i] = rows[r]
        pv = pivot_row[c]
        if pv != 1:
            pivot_row = scale(pivot_row, pv)
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is not None and i != r:
                axpy(row, f, pivot_row)
        pivots.append(c)
        r += 1
    return rows, pivots


def _rref(mat: Iterable[Sequence[object]], limit: int | None = None):
    """`_echelon` on the rows of mat keyed by column; returns (rows, pivots).

    Pivots are taken only among the first `limit` columns (all by default);
    later columns, such as the right-hand side of an augmented system, are
    carried along.  Entries may be Fraction, F2 (`Fp`) or F4, all eliminated on
    the object record with their own operators; plain ints are promoted to
    Fraction, and anything else, or rows of unequal length, raises ValueError.
    """
    mat = list(mat)
    if any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows of unequal length")
    if limit is None:
        limit = len(mat[0]) if mat else 0
    return _echelon([_promote(enumerate(r)) for r in mat], range(limit))


def solve(columns: Sequence[Sequence[object]], target: Sequence[object]):
    """The unique x with sum_i x[i] * columns[i] = target, computed exactly.

    Returns None when the columns are linearly dependent or the system is
    inconsistent.  Integer entries are solved over Q.
    """
    k = len(columns)
    rows, pivots = _rref(zip(*columns, target, strict=True), k)
    if len(pivots) < k or any(rows[k:]):
        return None
    # the pivots are 0..k-1, so row i holds the unit at column i
    return [row[k] if k in row else row[i] - row[i] for i, row in enumerate(rows[:k])]


def matrix_rank(mat: Sequence[Sequence[object]]) -> int:
    if not mat or not mat[0]:
        return 0
    _, pivots = _rref(mat)
    return len(pivots)


def kernel_dimension(mat: Sequence[Sequence[object]]):
    """Exact nullity and kernel basis of a matrix (rows act on column vectors).

    Returns (dim, basis) where each basis vector v satisfies mat @ v = 0.
    """
    if not mat:
        raise ValueError("matrix must have at least one row (use a zero row)")
    ncols = len(mat[0])
    rows, pivots = _rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:
        return 0, []
    # a pivot entry is the field's unit; a zero matrix keeps its entries' type
    x = rows[0][pivots[0]] if pivots else mat[0][0]
    one = _one_like(Fraction(x) if isinstance(x, int) else x)
    zero = one - one
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r].get(fc, zero)
        basis.append(v)
    return len(free), basis


# ---------------------------------------------------------------------------
# graded pieces of polynomial ideals
# ---------------------------------------------------------------------------


def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent vectors of the given total degree, in descending
    lexicographic order (the graded-lex order within one degree); a
    negative degree has none."""
    if not (_is_int(nvars) and nvars >= 0 and _is_int(degree)):
        raise ValueError(f"variable count must be an integer at least 0 and degree an "
                         f"integer: {nvars!r}, {degree!r}")
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec((), degree, nvars)
    return out


def ideal_piece(generators: Sequence[Polynomial], d: int) -> list:
    """Spanning set {m * g : deg(m g) = d} of the degree-d piece of the
    ideal the generators span.  Generators must be homogeneous."""
    gens = list(generators)
    if not gens:
        return []
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators over different variable lists")
        if not g.is_homogeneous():
            raise ValueError("inhomogeneous generator")
    nvars = len(variables)
    products = []
    for g in gens:
        if g.is_zero():
            continue
        e = g.total_degree()
        if e > d:
            continue
        for m in monomials_of_degree(nvars, d - e):
            mono = Polynomial(variables, {m: Fraction(1)})
            products.append(mono * g)
    return products


def ideal_graded_dimension(generators: Sequence[Polynomial], d: int) -> int:
    """Dimension of the degree-d piece of the ideal the generators span."""
    return span_dimension(ideal_piece(generators, d))


def span_dimension(polys: Sequence[Polynomial]) -> int:
    """Rank of a finite set of polynomials as vectors (any degrees),
    eliminated on sparse rows keyed by monomial; ValueError when they lie
    over different variable lists."""
    if len({p.variables for p in polys}) > 1:
        raise ValueError("polynomials over different variable lists")
    rows = [_promote(p.terms.items()) for p in polys]
    monos = sorted({e for row in rows for e in row})
    return len(_echelon(rows, monos)[1])


def spans_contain(container: Sequence[Polynomial], members: Sequence[Polynomial]) -> bool:
    """True iff every member lies in the linear span of container."""
    base = span_dimension(container)
    return span_dimension(list(container) + list(members)) == base
