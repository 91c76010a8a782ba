"""Sheaf Euler characteristics on projective space, twisted differential
forms and their global sections, and Hodge diamonds of smooth threefold
complete intersections.

Everything is integer arithmetic on binomial coefficients plus exact
kernels of small integer matrices.  Global sections of twisted p-forms are
computed from the Euler contraction, block by block over monomial weights.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .exactcore import (
    Polynomial,
    _exact_ints,
    _is_int,
    kernel_dimension,
    matrix_rank,
    monomials_of_degree,
)


def chi_pn(m: int, N: int) -> int:
    """Euler characteristic of the m-th twisting sheaf on projective
    N-space, as the signed binomial in closed form."""
    m, N = _exact_ints((m, N), "twist and dimension")
    if N < 0:
        raise ValueError("negative ambient dimension")
    if m >= 0:
        return math.comb(m + N, N)
    if m >= -N:
        return 0
    return (-1) ** N * math.comb(-m - 1, N)


class CIData(namedtuple("CIData", ["ambient_dim", "degrees"])):
    """A smooth complete intersection inside projective N-space, recorded
    by the ambient dimension and its multidegree."""

    __slots__ = ()

    def __new__(cls, ambient_dim: int, degrees: Sequence[int]):
        degrees = tuple(degrees)
        if not _is_int(ambient_dim) or ambient_dim < 1:
            raise ValueError(f"ambient dimension must be a positive integer: {ambient_dim!r}")
        if not all(_is_int(d) and d >= 1 for d in degrees):
            raise ValueError(f"degrees must be positive integers: {degrees!r}")
        if len(degrees) >= ambient_dim:
            raise ValueError("too many hypersurfaces")
        return super().__new__(cls, ambient_dim, degrees)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.degrees)


def ci_chi_twist(ci: CIData, m: int) -> int:
    """chi of the m-th twist of the structure sheaf, by inclusion-exclusion
    over the Koszul resolution."""
    total = 0
    for picks in itertools.product((0, 1), repeat=len(ci.degrees)):
        shift = sum(d for d, take in zip(ci.degrees, picks) if take)
        sign = (-1) ** sum(picks)
        total += sign * chi_pn(m - shift, ci.ambient_dim)
    return total


# ---------------------------------------------------------------------------
# global sections of twisted p-forms
# ---------------------------------------------------------------------------


def h0_omega_p(p: int, d: int, N: int) -> int:
    """Dimension of the space of global sections of the d-th twist of the
    sheaf of p-forms on projective N-space.

    Realized inside the d-twisted p-th wedge of the dual tautological
    quotient as the kernel of the Euler contraction.  The contraction
    preserves the total monomial weight, so the kernel is computed one
    weight block at a time.  A block depends only on the size of its
    weight's support, so each support size's block is eliminated once.
    """
    p, d, N = _exact_ints((p, d, N), "form degree, twist and dimension")
    if N < 1:
        raise ValueError("ambient dimension must be positive")
    if not 0 <= p <= N:
        raise ValueError("form degree out of range")
    if p == 0:
        return math.comb(d + N, N) if d >= 0 else 0
    if d < p:
        return 0
    sizes = (sum(1 for e in w if e) for w in monomials_of_degree(N + 1, d))
    return sum(_block_nullity(size, p) for size in sizes if size >= p)


@functools.cache
def _block_nullity(size: int, p: int) -> int:
    """Nullity of the Euler-contraction block of a weight supported on
    `size` variables, from p-forms to (p-1)-forms on that support.  Rows and
    columns are the (p-1)- and p-subsets of the support, and each entry is
    a sign fixed by positions, so the block is the same for every support
    of this size."""
    cols = list(itertools.combinations(range(size), p))
    rows = list(itertools.combinations(range(size), p - 1))
    row_pos = {J: r for r, J in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for ci, I in enumerate(cols):
        for j in range(p):
            mat[row_pos[I[:j] + I[j + 1:]]][ci] += (-1) ** j
    dim, _ = kernel_dimension(mat)
    return dim


def bott_h0(p: int, d: int, N: int) -> int:
    """Closed-form section count for twisted p-forms on projective space;
    an independent oracle for h0_omega_p."""
    p, d, N = _exact_ints((p, d, N), "form degree, twist and dimension")
    if not 0 <= p <= N:
        raise ValueError("form degree out of range")
    if d < 0:
        return 0
    if d == 0:
        return 1 if p == 0 else 0
    return math.comb(d + N - p, d) * math.comb(d - 1, p)


# ---------------------------------------------------------------------------
# twisted 2-forms on projective 3-space
# ---------------------------------------------------------------------------

P3_VARS = ("x1", "x2", "x3", "x4")
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def omega2_p3_basis() -> list:
    """The four distinguished twisted 2-forms on projective 3-space, one
    per coordinate triple: the (i,j,k) element is
    x_i e_j^e_k - x_j e_i^e_k + x_k e_i^e_j.

    Each is returned as a map from an index pair (a, b), a < b, to the
    linear coefficient polynomial of e_a^e_b.
    """
    out = []
    for (i, j, k) in itertools.combinations(range(4), 3):
        xi = Polynomial.variable(P3_VARS[i], P3_VARS)
        xj = Polynomial.variable(P3_VARS[j], P3_VARS)
        xk = Polynomial.variable(P3_VARS[k], P3_VARS)
        entry = {(j, k): xi, (i, k): -xj, (i, j): xk}
        out.append(entry)
    return out


def _wedge_vector(entry: dict) -> list:
    """Flatten a pair->linear-form map to coordinates on the 24-dim space
    of linear forms times wedge pairs."""
    monos = [tuple(e) for e in monomials_of_degree(4, 1)]
    vec = []
    for pair in WEDGE_PAIRS:
        poly = entry.get(pair)
        for mo in monos:
            if poly is None:
                vec.append(Fraction(0))
            else:
                vec.append(poly.terms.get(mo, Fraction(0)))
    return vec


Omega2Certificate = namedtuple("Omega2Certificate", [
    "source_dim", "target_dim", "rank", "kernel_dim",
    "basis_independent", "basis_in_kernel", "blockwise_count",
])


def omega2_p3_certificate() -> Omega2Certificate:
    """Cross-check of the section count for twisted 2-forms at twist 3 on
    projective 3-space: one explicit Euler-contraction matrix on the full
    24-dim source, against the blockwise count, against the distinguished
    4-element basis."""
    lin = [tuple(e) for e in monomials_of_degree(4, 1)]
    quad = [tuple(e) for e in monomials_of_degree(4, 2)]
    cols = [(pair, m) for pair in WEDGE_PAIRS for m in lin]
    rows = [(a, m) for a in range(4) for m in quad]
    row_pos = {key: i for i, key in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for cidx, ((a, b), m) in enumerate(cols):
        # contraction: x^m e_a^e_b -> x_a x^m e_b - x_b x^m e_a
        for var, other, sign in ((a, b, 1), (b, a, -1)):
            bumped = list(m)
            bumped[var] += 1
            mat[row_pos[(other, tuple(bumped))]][cidx] += sign
    kdim, _ = kernel_dimension(mat)
    rank = len(cols) - kdim

    basis = omega2_p3_basis()
    vecs = [_wedge_vector(e) for e in basis]
    independent = matrix_rank(vecs) == len(vecs)
    in_kernel = True
    for v in vecs:
        img = [sum(row[i] * v[i] for i in range(len(v))) for row in mat]
        if any(img):
            in_kernel = False
    return Omega2Certificate(len(cols), len(rows), rank, kdim,
                             independent, in_kernel, h0_omega_p(2, 3, 3))


CURVE_VARS = ("s", "t")


def omega2_vanishing_on_curve(forms: Sequence[Polynomial]) -> int:
    """Dimension of the space of twisted 2-forms (twist 3, projective
    3-space) whose restriction to a parametrized rational curve vanishes.

    The curve is given by four binary forms of one common positive degree.
    A general section is a combination of the four distinguished basis
    elements; its restriction vanishes iff all six wedge-coefficient forms
    pull back to zero, which is a linear condition on the combination.
    """
    forms = list(forms)
    if len(forms) != 4:
        raise ValueError("expected four binary forms")
    degree = None
    for f in forms:
        if tuple(f.variables) != CURVE_VARS:
            raise ValueError("forms must use the curve variables")
        if f.is_zero():
            continue
        if not f.is_homogeneous():
            raise ValueError("inhomogeneous form")
        d = f.total_degree()
        if degree is None:
            degree = d
        elif degree != d:
            raise ValueError("forms of unequal degrees")
    if degree is None:
        raise ValueError("zero parametrization")
    if degree < 1:
        raise ValueError("constant parametrization")

    basis = omega2_p3_basis()
    monos = [tuple(e) for e in monomials_of_degree(2, degree)]
    rows = []
    for pair in WEDGE_PAIRS:
        # pullback of the e_pair coefficient of each basis element
        pulled = []
        for entry in basis:
            poly = entry.get(pair)
            if poly is None:
                pulled.append(Polynomial.zero(CURVE_VARS))
                continue
            acc = Polynomial.zero(CURVE_VARS)
            for exps, coeff in poly.terms.items():
                var_i = exps.index(1)
                acc = acc + forms[var_i].scale(coeff)
            pulled.append(acc)
        for mo in monos:
            rows.append([p.terms.get(mo, Fraction(0)) for p in pulled])
    dim, _ = kernel_dimension(rows)
    return dim


# ---------------------------------------------------------------------------
# Hodge diamonds of threefold complete intersections
# ---------------------------------------------------------------------------


def chi_omega1_ci(ci: CIData) -> int:
    """chi of the restricted cotangent sheaf of the complete intersection,
    via the restricted Euler sequence and the conormal sequence."""
    N = ci.ambient_dim
    chi_ambient_restricted = (N + 1) * ci_chi_twist(ci, -1) - ci_chi_twist(ci, 0)
    return chi_ambient_restricted - sum(ci_chi_twist(ci, -d) for d in ci.degrees)


def chi_omega1_ci_koszul(ci: CIData) -> int:
    """Oracle route for chi of the cotangent sheaf: inclusion-exclusion on
    ambient cotangent twists, then the conormal correction."""
    N = ci.ambient_dim

    def chi_omega1_ambient(m: int) -> int:
        return (N + 1) * chi_pn(m - 1, N) - chi_pn(m, N)

    total = 0
    for picks in itertools.product((0, 1), repeat=len(ci.degrees)):
        shift = sum(d for d, take in zip(ci.degrees, picks) if take)
        total += (-1) ** sum(picks) * chi_omega1_ambient(-shift)
    return total - sum(ci_chi_twist(ci, -d) for d in ci.degrees)


class HodgeDiamond(namedtuple("HodgeDiamond", ["table"])):
    """Hodge numbers of a threefold, as a 4x4 grid h[p][q]."""

    __slots__ = ()

    def h(self, p: int, q: int) -> int:
        return self.table[p][q]

    def betti(self, k: int) -> int:
        return sum(self.table[p][k - p] for p in range(4) if 0 <= k - p <= 3)

    def euler_number(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(7))


def ci_hodge_diamond(ci: CIData) -> HodgeDiamond:
    """Hodge diamond of a smooth threefold complete intersection.

    Below the middle the diamond is the ambient one; the middle row is
    pinned by chi of the structure sheaf and chi of the cotangent sheaf;
    the rest is duality.
    """
    if ci.dim != 3:
        raise ValueError("not a threefold")
    h = [[0] * 4 for _ in range(4)]
    for p in range(4):
        for q in range(4):
            if p + q < 3:
                h[p][q] = 1 if p == q else 0
    h03 = 1 - ci_chi_twist(ci, 0)
    h12 = chi_omega1_ci(ci) + h[1][1]
    h[0][3] = h[3][0] = h03
    h[1][2] = h[2][1] = h12
    for p in range(4):
        for q in range(4):
            if p + q > 3:
                h[p][q] = h[3 - p][3 - q]
    return HodgeDiamond(tuple(tuple(r) for r in h))
