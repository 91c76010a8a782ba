"""Fans in dimension 2 and 3, desk scale, exact integer arithmetic.

Covers: validation, smoothness and cone multiplicities, principal divisors,
toric-surface intersection numbers, projectivized-bundle fan construction,
ray contraction, enumeration of small simplicial subdivisions, and the
search for a covector inducing a fibration to the projective line.

Rays are primitive integer vectors.  `Fan` alone checks a fan's values and
rejects, never mends: a non-primitive ray, a repeated cone index and a cone
of more than MAX_CONE_RAYS rays are errors; the file loader checks only the
JSON shape `Fan` needs to be called, with no key repeated and none but the
three fields.  Cone membership is decided on
integers alone: by Caratheodory's theorem a point lies in a cone exactly
when it is a nonnegative combination of some basis of the rays' span, and
each basis is tested by the signs of its integer Cramer numerators, never
by division or floating point.  A cone's cofactor rows are read off the
adjugate once, lifted to all d coordinates.  Validation takes one of two
routes.  A complete simplicial fan is decided in time linear in its cones,
from one determinant per cone, the two cones on each wall and one covered
point, with no cone test, written out per dimension over each cone's
cofactor rows.  Any other fan, or one that route declines, gets
the per-cone checks: each cone tests its foreign rays in one pass, and
since cones of one size nest only when equal, each cone is compared with
larger ones only.  Completeness is one verdict of validation: the linear
route's acceptance, or for a fan with cones of more than three rays, the
same route's verdict on those cones cut into triangles along their own
rays.  Strong convexity is the same membership test asked of the rays'
negatives: a cone is strongly convex when no ray's negative lies in it.  A
pointed cone of more than three rays is then read from one pass over its
ray pairs, `_facets`: every ray is extremal exactly when it has as many
facets as rays, its triangles join its first ray to the facets off it, and
a four-ray cone's other two pairs are the diagonals that its
q-factorializations choose between.  Independence of simplicial rays is the
nonvanishing of a maximal minor.  Every public entry takes dimension 2 or
3 only (Cox-Little-Schenck 1.2), so a minor has at most three rows and its
cofactor rows have closed forms.  A simplicial cone's multiplicity, the gcd
of its maximal minors, is read off the same test: its minor and the
entries of its rows outside the minor, which by Cramer are the other
maximal minors up to sign; a fan keeps it for each simplicial maximal
cone.  On a complete surface the neighbours of a ray are the other rays of
the two cones on it, so self-intersections need no angular sort.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import mul
from typing import Sequence

from .exactcore import _cross3, _exact_ints, _is_int


def _index(i, n: int, what: str) -> int:
    """i when it is a plain int in range(n); else ValueError, where a bool
    would read as 0 or 1 and a negative index would wrap around."""
    if not _is_int(i):
        raise ValueError(f"{what} must be an integer: {i!r}")
    if not 0 <= i < n:
        raise ValueError(f"{what} out of range: {i}")
    return i


def _dot(a, b):
    return sum(map(mul, a, b))


def _cofactor_rows(m) -> list:
    """Cofactor rows of a square integer matrix of at most three rows, the
    adjugate's columns: for three rows, row i is the cross product of the
    other two in cyclic order; for two, the other row turned a quarter, with
    its sign; for one, the 1 x 1 adjugate (1); for none, no row."""
    if len(m) == 3:
        return [_cross3(m[1], m[2]), _cross3(m[2], m[0]), _cross3(m[0], m[1])]
    if len(m) == 2:
        return [(m[1][1], -m[1][0]), (-m[0][1], m[0][0])]
    return [(1,)] if m else []


class _Cone:
    """Membership test for the cone on the given integer rays.

    Holds, for each basis B of span(rays), a coordinate set J on which the
    minor D = det(B_J) is nonzero, made positive, and integer rows on all d
    coordinates: the cofactor rows of B_J, lifted with zeros outside J, so
    that the Cramer numerators N_i = cof_i . x satisfy x_J = sum (N_i / D)
    B_J[i], and for each j outside J the row D e_j - sum_i B[i][j] cof_i,
    whose product with x is D x_j - sum N_i B[i][j].  x is a nonnegative
    combination of B iff the first products are >= 0 and the others 0.  By
    Caratheodory, x lies in the cone iff one basis accepts."""

    __slots__ = ("rank", "bases")

    def __init__(self, rays: Sequence[tuple], d: int):
        # the rank is the largest size with an independent subset; every
        # independent subset of that size is a basis (the empty one for
        # rank 0, whose 0 x 0 minor is 1)
        for k in range(min(len(rays), d), -1, -1):
            bases = []
            for basis in itertools.combinations(rays, k):
                for cols in itertools.combinations(range(d), k):
                    m = [[b[j] for j in cols] for b in basis]
                    cof = _cofactor_rows(m)
                    det = _dot(cof[0], m[0]) if m else 1
                    if det:
                        sign, det = (1, det) if det > 0 else (-1, -det)
                        cof = [[sign * row[cols.index(j)] if j in cols else 0
                                for j in range(d)] for row in cof]
                        outside = [[(det if t == j else 0) - sum(
                                        b[j] * row[t] for b, row in zip(basis, cof))
                                    for t in range(d)]
                                   for j in range(d) if j not in cols]
                        bases.append((det, cof, outside))
                        break
            if bases:
                self.rank, self.bases = k, bases
                return

    def multiplicity(self) -> int:
        """For independent rays, one basis: the gcd of the maximal minors of
        the ray matrix, read as the gcd of D and the outside rows' entries.
        By Cramer, the entry of the row for j at t in J is the minor on J
        with t swapped for j, up to sign; when the rank is at most 1 or at
        least d - 1, every cone for d <= 3, every coordinate set is J or one
        swap away from it."""
        (det, _, outside), = self.bases
        return math.gcd(det, *(x for row in outside for x in row))

    def holds_any(self, points: Sequence[Sequence[int]]) -> bool:
        """Whether some of the points lies in the cone: each basis filters
        them one cofactor row at a time, then the outside rows."""
        for _, cof, outside in self.bases:
            left = points
            for row in cof:
                left = [x for x in left if sum(map(mul, row, x)) >= 0]
            for row in outside:
                left = [x for x in left if not sum(map(mul, row, x))]
            if left:
                return True
        return False


def cone_contains(rays: Sequence[tuple], x: Sequence[int]) -> bool:
    """Exact membership of the integer point x in the cone generated by the
    integer rays; a non-integer entry, a point of length other than 2 or 3,
    or a ray whose length differs from x's, raises ValueError."""
    x = _exact_ints(x, "point entries")
    if len(x) not in (2, 3):
        raise ValueError("unsupported dimension")
    rays = [_exact_ints(r, "ray entries") for r in rays]
    if any(len(r) != len(x) for r in rays):
        raise ValueError("ray length does not match the point")
    return _Cone(rays, len(x)).holds_any([x])


def cone_is_strongly_convex(rays: Sequence[tuple]) -> bool:
    """No line through the origin, decided as: no ray's negative lies in
    the cone.  The two agree: a nontrivial sum l_i r_i = 0 with l >= 0 and
    l_k > 0 puts -r_k = sum_{i != k} (l_i / l_k) r_i in the cone, and -r_k
    in the cone is such a sum.  A zero ray, its own negative, makes the cone
    not strongly convex, and none makes it strongly convex; a non-integer
    entry, a length other than 2 or 3 or unequal lengths raise ValueError."""
    rays = [_exact_ints(r, "ray entries") for r in rays]
    if not rays:
        return True
    d = len(rays[0])
    if d not in (2, 3):
        raise ValueError("unsupported dimension")
    if any(len(r) != d for r in rays):
        raise ValueError("rays of unequal length")
    return not _Cone(rays, d).holds_any([tuple(-x for x in r) for r in rays])


def _facets(rays: Sequence[tuple]) -> list:
    """The ray pairs (i, j), i < j, of a 3-D cone whose plane has every
    other ray strictly on one side; a zero normal or a ray on the plane
    disqualifies a pair, and nothing raises.  A plane section of a pointed
    cone is a convex polygon whose vertices are the extremal rays (Cox-
    Little-Schenck 1.2; Ziegler, Lectures on Polytopes, ch. 2), so a
    pointed cone on n rays has n pairs, the polygon's edges, exactly when
    every ray is extremal; its other pairs are then interior diagonals."""
    out = []
    for i, j in itertools.combinations(range(len(rays)), 2):
        normal = _cross3(rays[i], rays[j])
        sides = [_dot(normal, r) for k, r in enumerate(rays) if k != i and k != j]
        if all(x > 0 for x in sides) or all(x < 0 for x in sides):
            out.append((i, j))
    return out


# validating a cone costs time that grows steeply with its ray count (a
# 40-ray cone takes seconds); the package's own fans have at most four
MAX_CONE_RAYS = 8


def _complete_simplicial(dim: int, rays, cones):
    """{cone: multiplicity} when the cones, each of dim rays in increasing
    index order as `Fan` keeps them, form a complete simplicial fan,
    decided in one pass over the cones; else None.

    Full-dimensional simplicial cones form a complete fan exactly when each
    wall lies in two cones, on opposite sides of it, and one point is covered
    once (the pseudomanifold-plus-degree-one test for triangulations, De
    Loera-Rambau-Santos 4.5, read on the sphere): crossing a wall then
    keeps the number of cones over a point, so every point lies in one cone.
    Cofactor row i is (-1)^i times the normal of the wall without ray i,
    taken over the wall's rays in increasing order, so ray i lies on its
    positive side when D (-1)^i > 0.  The point is the sum of the first
    cone's rays, interior to it, tested against the other cones' rows.
    Each dimension's determinants, walls and point products are written
    out over the cofactor rows, with no general dot product."""
    if any(len(c) != dim for c in cones):
        return None
    tests, sides = [], {}
    if dim == 2:
        for i, j in cones:
            r = rays[i]
            cof = _cofactor_rows((r, rays[j]))
            det = cof[0][0] * r[0] + cof[0][1] * r[1]
            if not det:
                return None
            tests.append((det, cof))
            sides.setdefault((j,), []).append(det > 0)
            sides.setdefault((i,), []).append(det < 0)
    else:
        for i, j, k in cones:
            r = rays[i]
            cof = _cofactor_rows((r, rays[j], rays[k]))
            det = cof[0][0] * r[0] + cof[0][1] * r[1] + cof[0][2] * r[2]
            if not det:
                return None
            tests.append((det, cof))
            sides.setdefault((j, k), []).append(det > 0)
            sides.setdefault((i, k), []).append(det < 0)
            sides.setdefault((i, j), []).append(det > 0)
    for s in sides.values():
        if len(s) != 2 or s[0] == s[1]:
            return None
    if dim == 2:
        x, y = map(sum, zip(*(rays[i] for i in cones[0])))
        for det, ((a, b), (e, f)) in tests[1:]:
            if (a * x + b * y) * det >= 0 and (e * x + f * y) * det >= 0:
                return None
    else:
        x, y, z = map(sum, zip(*(rays[i] for i in cones[0])))
        for det, (p, q, r) in tests[1:]:
            if ((p[0] * x + p[1] * y + p[2] * z) * det >= 0
                    and (q[0] * x + q[1] * y + q[2] * z) * det >= 0
                    and (r[0] * x + r[1] * y + r[2] * z) * det >= 0):
                return None
    # d independent rays in d dimensions: the gcd of the maximal minors is |D|
    return {c: abs(det) for c, (det, _) in zip(cones, tests)}


class Fan:
    """A fan given by primitive rays and maximal cones (ray index tuples),
    with the multiplicity of each simplicial maximal cone, read off the cone
    test its validation builds, and whether its cones cover the whole space,
    which validation decides for every fan."""

    __slots__ = ("dim", "rays", "maximal_cones", "_multiplicity", "_complete")

    def __init__(self, dim: int, rays, maximal_cones):
        if not _is_int(dim) or dim not in (2, 3):
            raise ValueError("unsupported dimension")
        # lengths are checked before entries, so that no error message
        # echoes more than MAX_CONE_RAYS values of a malformed file
        rays = tuple(tuple(r) for r in rays)
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray length does not match dimension")
            g = math.gcd(*_exact_ints(r, "ray entries"))
            if g == 0:
                raise ValueError("zero ray")
            if g > 1:
                raise ValueError(f"ray not primitive: {list(r)}")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate ray")
        cones = []
        for c in maximal_cones:
            c = tuple(c)
            if len(c) > MAX_CONE_RAYS:
                raise ValueError(f"cone has {len(c)} rays, more than {MAX_CONE_RAYS}")
            c = _exact_ints(c, "cone indices")
            if len(set(c)) != len(c):
                raise ValueError(f"cone lists a ray index twice: {list(c)}")
            # the empty cone has no range; the size check below reports it
            if c and (min(c) < 0 or max(c) >= len(rays)):
                raise ValueError("cone index out of range")
            if len(c) < 2:
                raise ValueError("maximal cone with fewer than two rays")
            cones.append(tuple(sorted(c)))
        self.dim = dim
        self.rays = rays
        self.maximal_cones = tuple(cones)
        self._multiplicity = self._validate()

    # -- structural checks ---------------------------------------------------

    def _validate(self) -> dict:
        """Check the fan axioms, set `_complete`, and return {cone:
        multiplicity} for the simplicial maximal cones.  A complete
        simplicial fan is accepted by `_complete_simplicial`; any other goes
        through the per-cone checks, which give every error message, and is
        complete only when it has a cone of more than three rays and
        `_complete_simplicial` accepts it with those cones cut into
        triangles."""
        used = {i for c in self.maximal_cones for i in c}
        if used != set(range(len(self.rays))):
            raise ValueError("unused ray")
        multiplicity = _complete_simplicial(self.dim, self.rays, self.maximal_cones)
        self._complete = multiplicity is not None
        if self._complete:
            return multiplicity
        tests, multiplicity, cut = [], {}, []  # cut: each larger cone as triangles
        for c in self.maximal_cones:
            rays = [self.rays[i] for i in c]
            test = _Cone(rays, self.dim)
            if len(c) <= self.dim:
                # simplicial cone: rays must be linearly independent
                if test.rank != len(c):
                    raise ValueError("dependent rays in simplicial cone")
                multiplicity[c] = test.multiplicity()
                cut.append(c)
            else:
                if self.dim != 3:
                    raise ValueError("overfull cone in dimension 2")
                if test.holds_any([tuple(-x for x in r) for r in rays]):
                    raise ValueError("not strongly convex")
                facets = _facets(rays)
                if len(facets) != len(c):
                    raise ValueError("non-extremal ray in cone")
                # join the first ray to the facets off it; facets are
                # increasing local pairs, so each triangle is sorted
                cut += [(c[0], c[i], c[j]) for i, j in facets if i]
            tests.append(test)
        # no cone swallowed by another: cones of one size nest only when
        # equal, so look for a repeat, then test cones against larger ones
        cones, by_size = self.maximal_cones, {}
        for c in cones:
            by_size.setdefault(len(c), []).append(set(c))
        if len(set(cones)) < len(cones) or any(
                a < b for s in by_size for t in by_size if s < t
                for a in by_size[s] for b in by_size[t]):
            raise ValueError("cone contained in another")
        # no foreign ray inside a cone, one call per cone
        for c, test in zip(cones, tests):
            if test.holds_any([r for i, r in enumerate(self.rays) if i not in c]):
                raise ValueError("ray inside another cone")
        if not self.is_simplicial():
            self._complete = _complete_simplicial(3, self.rays, cut) is not None
        return multiplicity

    def cone_rays(self, cone) -> list:
        return [self.rays[i] for i in cone]

    def is_simplicial(self) -> bool:
        return all(len(c) <= self.dim for c in self.maximal_cones)

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "rays": [list(r) for r in self.rays],
                "cones": [list(c) for c in self.maximal_cones]}

    def __eq__(self, other):
        if isinstance(other, Fan):
            return (self.dim == other.dim and self.rays == other.rays
                    and sorted(self.maximal_cones) == sorted(other.maximal_cones))
        return NotImplemented

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, cones={len(self.maximal_cones)})"


# ---------------------------------------------------------------------------
# smoothness and multiplicities
# ---------------------------------------------------------------------------


def cone_is_smooth(fan: Fan, cone) -> tuple:
    """(smooth, multiplicity) for a simplicial cone: multiplicity is the gcd
    of the maximal minors of the ray matrix, 1 exactly when the rays extend
    to a lattice basis.  A maximal cone's was stored when the fan was
    validated; any other cone's is read off one cone test."""
    cone = tuple(_index(i, len(fan.rays), "cone index") for i in cone)
    if len(cone) > fan.dim:
        raise ValueError("not simplicial")
    mult = fan._multiplicity.get(tuple(sorted(cone)))
    if mult is None:
        test = _Cone([fan.rays[i] for i in cone], fan.dim)
        if test.rank < len(cone):
            raise ValueError("not simplicial")
        mult = test.multiplicity()
    return (mult == 1, mult)


def fan_is_smooth(fan: Fan) -> bool:
    """Whether every maximal cone has multiplicity 1, read off the
    multiplicities stored when the fan was validated; ValueError when the
    fan is not simplicial."""
    if not fan.is_simplicial():
        raise ValueError("not simplicial")
    return all(m == 1 for m in fan._multiplicity.values())


# ---------------------------------------------------------------------------
# divisors on toric surfaces
# ---------------------------------------------------------------------------


def principal_divisor(fan: Fan, m: Sequence[int]) -> tuple:
    """Divisor of the character with exponent covector m, one coefficient
    per ray: the pairing <m, ray>."""
    m = _exact_ints(m, "covector entries")
    if len(m) != fan.dim:
        raise ValueError("covector length does not match dimension")
    return tuple(_dot(m, r) for r in fan.rays)


def fan_is_complete(fan: Fan) -> bool:
    """Whether the fan's cones cover the whole space, as its validation
    decided."""
    return fan._complete


def surface_self_intersections(fan: Fan) -> tuple:
    """Self-intersection number of each boundary divisor of a smooth
    complete toric surface, in the fan's ray order: u_- + u_+ = -(D^2) u,
    where u_- and u_+ are the other rays of the two cones on u."""
    if fan.dim != 2:
        raise ValueError("fan not 2-dimensional")
    if not fan_is_complete(fan):
        raise ValueError("fan not complete")
    if not fan_is_smooth(fan):
        raise ValueError("fan not smooth")
    # complete: each ray lies in exactly two cones, each of two rays
    neighbors = [[] for _ in fan.rays]
    for i, j in fan.maximal_cones:
        neighbors[i].append(fan.rays[j])
        neighbors[j].append(fan.rays[i])
    out = []
    for u, (prev, nxt) in zip(fan.rays, neighbors):
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        c = s[0] // u[0] if u[0] else s[1] // u[1]
        if (c * u[0], c * u[1]) != s:
            raise ValueError("neighbor sum not an integer multiple of ray")
        out.append(-c)
    return tuple(out)


def divisor_pairings(fan: Fan, coefficients: Sequence[int]) -> tuple:
    """(D.D_0, ..., D.D_{n-1}) for D = sum c_i D_i on a smooth complete toric
    surface, in one pass over the intersection table: D_j^2 from
    `surface_self_intersections`, and D_i.D_j for i != j is 1 when rays i
    and j span a cone, else 0."""
    c = _exact_ints(coefficients, "divisor coefficients")
    if len(c) != len(fan.rays):
        raise ValueError("divisor length does not match rays")
    out = [ci * s for ci, s in zip(c, surface_self_intersections(fan))]
    for i, j in fan.maximal_cones:
        out[i] += c[j]
        out[j] += c[i]
    return tuple(out)


def noether_number(fan: Fan) -> int:
    """Sum of self-intersections plus three times the ray count; equal to 12
    for every smooth complete toric surface."""
    return sum(surface_self_intersections(fan)) + 3 * len(fan.rays)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def projective_plane_fan() -> Fan:
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def hirzebruch_fan(k: int) -> Fan:
    """Rays e1, e2, -e1 + k e2, -e2 with the four consecutive sectors."""
    return Fan(2, [(1, 0), (0, 1), (-1, k), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)])


def blow_up_surface(fan: Fan, cone) -> Fan:
    """Star subdivision of a smooth 2D cone at the sum of its two rays."""
    cone = tuple(sorted(cone))
    if fan.dim != 2 or cone not in fan.maximal_cones:
        raise ValueError("not a maximal cone of the fan")
    i, j = cone
    s = (fan.rays[i][0] + fan.rays[j][0], fan.rays[i][1] + fan.rays[j][1])
    g = math.gcd(*s)
    new_ray = (s[0] // g, s[1] // g)
    rays = list(fan.rays) + [new_ray]
    k = len(rays) - 1
    cones = [c for c in fan.maximal_cones if c != cone]
    cones += [(i, k), (j, k)]
    return Fan(2, rays, cones)


def build_p1_bundle_fan(base: Fan, a) -> Fan:
    """Fan of the projectivized rank-2 split bundle over a complete toric
    surface: base rays lifted to height -a_rho, plus the two poles; every
    base cone appears joined with each pole."""
    if base.dim != 2:
        raise ValueError("base fan not 2-dimensional")
    if not fan_is_complete(base):
        raise ValueError("base fan not complete")
    coeffs = _exact_ints(a, "bundle coefficients")
    if len(coeffs) != len(base.rays):
        raise ValueError("coefficient count does not match rays")
    nb = len(base.rays)
    rays = [(r[0], r[1], -c) for r, c in zip(base.rays, coeffs)]
    rays += [(0, 0, 1), (0, 0, -1)]
    up, down = nb, nb + 1
    cones = []
    for c in base.maximal_cones:
        cones.append(tuple(c) + (up,))
    for c in base.maximal_cones:
        cones.append(tuple(c) + (down,))
    return Fan(3, rays, cones)


def contract_ray(fan: Fan, ray_index: int) -> Fan:
    """Remove one ray, replacing its star by the single cone on the star's
    remaining rays.  Valid only when the star's support is a strongly convex
    cone in which the removed ray is redundant."""
    if fan.dim != 3:
        raise ValueError("contraction implemented for 3D fans only")
    _index(ray_index, len(fan.rays), "ray index")
    # `Fan` rejects unused rays, so the star is never empty
    star = [c for c in fan.maximal_cones if ray_index in c]
    star_ray_idx = sorted({i for c in star for i in c})
    star_rays = [fan.rays[i] for i in star_ray_idx]
    # the candidate support includes the contracted ray; a line in the hull
    # means the star cannot be collapsed to a cone
    if not cone_is_strongly_convex(star_rays):
        raise ValueError("not strongly convex")
    remaining_idx = [i for i in star_ray_idx if i != ray_index]
    remaining = [fan.rays[i] for i in remaining_idx]
    if not cone_contains(remaining, fan.rays[ray_index]):
        raise ValueError("ray not contractible")
    # reindex with the ray removed
    keep = [i for i in range(len(fan.rays)) if i != ray_index]
    new_index = {old: new for new, old in enumerate(keep)}
    new_rays = [fan.rays[i] for i in keep]
    new_cones = [tuple(new_index[i] for i in c)
                 for c in fan.maximal_cones if ray_index not in c]
    new_cones.append(tuple(new_index[i] for i in remaining_idx))
    return Fan(3, new_rays, new_cones)


def enumerate_qfactorializations(fan: Fan) -> list:
    """All simplicial subdivisions using only the fan's own rays.  Each
    non-simplicial cone must have exactly four rays, so its two interior
    diagonals, the pairs that are not facets, are the choice; ordering is
    lexicographic in the chosen diagonals."""
    choices = {}
    for ci, c in enumerate(fan.maximal_cones):
        if len(c) <= 3:
            continue
        if len(c) > 4:
            raise ValueError("beyond desk scale")
        facets = _facets(fan.cone_rays(c))
        # each diagonal (local pair) gives the two triangles it cuts
        choices[ci] = [[tuple(sorted((c[i], c[j], c[o])))
                        for o in range(4) if o not in (i, j)]
                       for i, j in itertools.combinations(range(4), 2)
                       if (i, j) not in facets]
    if not choices:
        return [fan]
    out = []
    for combo in itertools.product(*choices.values()):
        replaced = dict(zip(choices, combo))
        cones = [t for ci, c in enumerate(fan.maximal_cones) for t in replaced.get(ci, [c])]
        out.append(Fan(3, fan.rays, cones))
    return out


FIBRATION_BOUND = 3


def fibration_to_p1(fan: Fan):
    """First primitive covector (in the search order 0, 1, -1, 2, -2, ...
    per coordinate) whose pairing with every maximal cone is one-signed,
    so the fan maps onto the two-cone fan of the projective line.  Each ray
    is paired once per candidate, and a candidate fails on the first cone
    holding both a positive and a negative pairing.
    Returns None when no covector with |entries| <= FIBRATION_BOUND works."""
    values = [0]
    for k in range(1, FIBRATION_BOUND + 1):
        values += [k, -k]
    for m in itertools.product(values, repeat=fan.dim):
        if math.gcd(*m) != 1:  # also skips the zero covector, gcd 0
            continue
        if fan.dim == 2:
            a, b = m
            pairing = [a * x + b * y for x, y in fan.rays]
        else:
            a, b, c = m
            pairing = [a * x + b * y + c * z for x, y, z in fan.rays]
        for cone in fan.maximal_cones:
            pos = neg = False
            for i in cone:
                p = pairing[i]
                if p > 0:
                    pos = True
                elif p < 0:
                    neg = True
            if pos and neg:
                break
        else:
            return m
    return None


# ---------------------------------------------------------------------------
# fan files
# ---------------------------------------------------------------------------


def fan_from_dict(data: dict) -> Fan:
    """Build a fan from parsed file data.  Checked here is only the shape
    `Fan` needs to be called: the three fields and no other, with the rays
    and the cones non-empty lists of lists; `Fan` checks the values."""
    for field in data:
        if field not in ("dim", "rays", "cones"):
            raise ValueError(f"unknown field '{field}'")
    for field in ("dim", "rays", "cones"):
        if field not in data:
            raise ValueError(f"missing field '{field}'")
    for field in ("rays", "cones"):
        items = data[field]
        if (not isinstance(items, list) or not items
                or not all(isinstance(x, list) for x in items)):
            raise ValueError(f"field '{field}' must be a non-empty list of lists")
    return Fan(data["dim"], data["rays"], data["cones"])


def _no_repeated_field(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated field '{max(keys, key=keys.count)}'")
    return data


# plain decoding keeps a repeated key's last value; one decoder serves every
# file, where json.load with a hook would build one per call
_FAN_DECODER = json.JSONDecoder(object_pairs_hook=_no_repeated_field)


def load_fan(path: str) -> Fan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = _FAN_DECODER.decode(fh.read())
        except (json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"fan file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError("fan file must contain a JSON object")
    return fan_from_dict(data)
