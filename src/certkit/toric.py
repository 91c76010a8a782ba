"""Fans in dimension 2 and 3, desk scale, exact integer arithmetic.

Covers: validation, smoothness and cone multiplicities, principal divisors,
toric-surface intersection numbers, projectivized-bundle fan construction,
ray contraction, enumeration of small simplicial subdivisions, and the
search for a covector inducing a fibration to the projective line.

Rays are primitive integer vectors; construction normalizes by gcd, the
file loader rejects non-primitive input instead.  Cone membership and
strong convexity are decided on integers alone: by Caratheodory's theorem a
point lies in a cone exactly when it is a nonnegative combination of some
basis of the rays' span, and each basis is tested by the signs of its
integer Cramer numerators, never by division or floating point.  A cone's
bases and cofactors are built once and reused for every point tested
against it.  Independence of simplicial rays is the nonvanishing of a
maximal minor.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .exactcore import _exact_ints, _is_int, gcd_of_maximal_minors


def _normalize_ray(v: Sequence[int]) -> tuple:
    v = _exact_ints(v, "ray entries")
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class TorusDivisor:
    """Integer coefficient per ray of a fixed fan."""
    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients",
                           _exact_ints(coefficients, "divisor coefficients"))

    def __iter__(self):
        return iter(self.coefficients)

    def __len__(self):
        return len(self.coefficients)

    def __getitem__(self, i):
        return self.coefficients[i]


def _det(m) -> int:
    """Determinant of a small square integer matrix by expansion along the
    first row; the empty matrix has determinant 1."""
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


class _Cone:
    """Membership test for the cone on the given integer rays.

    Holds, for each basis B of span(rays), a coordinate set J on which the
    minor D = det(B_J) is nonzero, made positive, and the cofactor rows of
    B_J.  For a point x the Cramer numerators N_i = cof_i . x_J are
    integers with x_J = sum (N_i / D) B_J[i]; x is a nonnegative combination
    of B iff every N_i >= 0 and D x_j = sum N_i B[i][j] at the coordinates
    outside J.  By Caratheodory, x lies in the cone iff one basis accepts."""

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
                    det = _det(m)
                    if det:
                        sign = 1 if det > 0 else -1
                        cof = [[sign * (-1) ** (i + j) * _det(
                                    [row[:j] + row[j + 1:]
                                     for t, row in enumerate(m) if t != i])
                                for j in range(k)] for i in range(k)]
                        rest = [j for j in range(d) if j not in cols]
                        bases.append((cols, sign * det, cof, rest, basis))
                        break
            if bases:
                self.rank, self.bases = k, bases
                return

    def contains(self, x: Sequence[int]) -> bool:
        for cols, det, cof, rest, basis in self.bases:
            xc = [x[j] for j in cols]
            num = [sum(map(mul, row, xc)) for row in cof]
            if min(num, default=0) >= 0 and all(
                    det * x[j] == sum(n * b[j] for n, b in zip(num, basis))
                    for j in rest):
                return True
        return False


def cone_contains(rays: Sequence[tuple], x: Sequence[int]) -> bool:
    """Exact membership of the integer point x in the cone generated by the
    integer rays; a ray whose length differs from x's raises ValueError."""
    x = tuple(x)
    if any(len(r) != len(x) for r in rays):
        raise ValueError("ray length does not match the point")
    return _Cone(rays, len(x)).contains(x)


def cone_is_strongly_convex(rays: Sequence[tuple]) -> bool:
    """No line through the origin: the only nonnegative combination of the
    rays summing to zero is trivial."""
    if not rays:
        return True
    # infeasibility of  sum l_i (r_i, 1) = (0, 1),  l >= 0
    d = len(rays[0])
    return not cone_contains([tuple(r) + (1,) for r in rays], (0,) * d + (1,))


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def classify_cone_pairs(rays: Sequence[tuple]):
    """For a full-dimensional 3D cone on >= 3 extremal rays, split the ray
    pairs into facets and interior diagonals by the supporting-plane test."""
    n = len(rays)
    facets, diagonals = [], []
    for i, j in itertools.combinations(range(n), 2):
        normal = _cross3(rays[i], rays[j])
        if all(c == 0 for c in normal):
            raise ValueError("parallel rays in cone")
        signs = {(_dot(normal, rays[k]) > 0) - (_dot(normal, rays[k]) < 0)
                 for k in range(n) if k not in (i, j)}
        if signs == {1} or signs == {-1}:
            facets.append((i, j))
        elif 1 in signs and -1 in signs:
            diagonals.append((i, j))
        else:
            # some other ray on the plane through this pair
            raise ValueError("degenerate cone: coplanar rays")
    return facets, diagonals


class Fan:
    """A fan given by primitive rays and maximal cones (ray index tuples)."""

    __slots__ = ("dim", "rays", "maximal_cones")

    def __init__(self, dim: int, rays, maximal_cones):
        if dim not in (2, 3):
            raise ValueError("unsupported dimension")
        rays = tuple(_normalize_ray(r) for r in rays)
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray length does not match dimension")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate ray")
        cones = []
        for c in maximal_cones:
            c = tuple(sorted(set(_exact_ints(c, "cone indices"))))
            if any(i < 0 or i >= len(rays) for i in c):
                raise ValueError("cone index out of range")
            if len(c) < 2:
                raise ValueError("maximal cone with fewer than two rays")
            cones.append(c)
        self.dim = dim
        self.rays = rays
        self.maximal_cones = tuple(cones)
        self._validate()

    # -- structural checks ---------------------------------------------------

    def _validate(self):
        used = {i for c in self.maximal_cones for i in c}
        if used != set(range(len(self.rays))):
            raise ValueError("unused ray")
        tests = []
        for c in self.maximal_cones:
            rays = [self.rays[i] for i in c]
            test = _Cone(rays, self.dim)
            if len(c) <= self.dim:
                # simplicial cone: rays must be linearly independent
                if test.rank != len(c):
                    raise ValueError("dependent rays in simplicial cone")
            else:
                if self.dim != 3:
                    raise ValueError("overfull cone in dimension 2")
                if not cone_is_strongly_convex(rays):
                    raise ValueError("not strongly convex")
                for k in range(len(c)):
                    others = [r for t, r in enumerate(rays) if t != k]
                    if cone_contains(others, rays[k]):
                        raise ValueError("non-extremal ray in cone")
            tests.append(test)
        # no cone swallowed by another, no foreign ray inside a cone
        cone_sets = [set(c) for c in self.maximal_cones]
        for a, sa in enumerate(cone_sets):
            for b, sb in enumerate(cone_sets):
                if a != b and sa <= sb:
                    raise ValueError("cone contained in another")
        for sc, test in zip(cone_sets, tests):
            for i, r in enumerate(self.rays):
                if i not in sc and test.contains(r):
                    raise ValueError("ray inside another cone")

    def cone_rays(self, cone) -> list:
        return [self.rays[i] for i in cone]

    def is_simplicial(self) -> bool:
        return all(len(c) <= self.dim for c in self.maximal_cones)

    def walls(self):
        """Codimension-1 faces of maximal cones as frozensets of ray indices,
        mapped to the list of cones containing them."""
        out: dict = {}
        for ci, c in enumerate(self.maximal_cones):
            if self.dim == 2:
                faces = [frozenset((i,)) for i in c]
            elif len(c) == 3:
                faces = [frozenset(p) for p in itertools.combinations(c, 2)]
            else:
                facets, _ = classify_cone_pairs(self.cone_rays(c))
                faces = [frozenset((c[i], c[j])) for i, j in facets]
            for f in faces:
                out.setdefault(f, []).append(ci)
        return out

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
    to a lattice basis."""
    cone = tuple(cone)
    if len(cone) > fan.dim:
        raise ValueError("not simplicial")
    # the rays are independent exactly when some maximal minor is nonzero
    mult = gcd_of_maximal_minors([fan.rays[i] for i in cone])
    if mult == 0:
        raise ValueError("not simplicial")
    return (mult == 1, mult)


def fan_is_smooth(fan: Fan) -> bool:
    return all(cone_is_smooth(fan, c)[0] for c in fan.maximal_cones)


# ---------------------------------------------------------------------------
# divisors on toric surfaces
# ---------------------------------------------------------------------------


def principal_divisor(fan: Fan, m: Sequence[int]) -> TorusDivisor:
    """Divisor of the character with exponent covector m: coefficient at
    each ray is the pairing <m, ray>."""
    m = _exact_ints(m, "covector entries")
    if len(m) != fan.dim:
        raise ValueError("covector length does not match dimension")
    return TorusDivisor(_dot(m, r) for r in fan.rays)


def _cyclic_order_2d(rays) -> list:
    """Indices of 2D rays sorted counterclockwise starting from the positive
    x-axis, by exact sector comparison."""
    def half(v):
        # 0 for the upper half plane including the positive x-axis
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i, j):
        a, b = rays[i], rays[j]
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(range(len(rays)), key=functools.cmp_to_key(cmp))


def fan_is_complete(fan: Fan) -> bool:
    """Wall test: every codimension-1 face lies in exactly two maximal cones
    and the adjacency graph is connected."""
    walls = fan.walls()
    if any(len(cs) != 2 for cs in walls.values()):
        return False
    adj: dict = {i: set() for i in range(len(fan.maximal_cones))}
    for cs in walls.values():
        a, b = cs
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(fan.maximal_cones)


def surface_self_intersections(fan: Fan) -> tuple:
    """Self-intersection number of each boundary divisor of a smooth
    complete toric surface, in the fan's ray order."""
    if fan.dim != 2:
        raise ValueError("fan not 2-dimensional")
    if not fan_is_complete(fan):
        raise ValueError("fan not complete")
    if not fan_is_smooth(fan):
        raise ValueError("fan not smooth")
    order = _cyclic_order_2d(fan.rays)
    pos = {ray_i: k for k, ray_i in enumerate(order)}
    nrays = len(fan.rays)
    out = []
    for i, u in enumerate(fan.rays):
        k = pos[i]
        prev = fan.rays[order[(k - 1) % nrays]]
        nxt = fan.rays[order[(k + 1) % nrays]]
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        # s must be an integer multiple of u
        if s[0] * u[1] != s[1] * u[0]:
            raise ValueError("neighbor sum not proportional to ray")
        if u[0] != 0:
            c, r = divmod(s[0], u[0])
        else:
            c, r = divmod(s[1], u[1])
        if r != 0 or (c * u[0], c * u[1]) != s:
            raise ValueError("neighbor sum not an integer multiple of ray")
        out.append(-c)
    return tuple(out)


def surface_intersection(fan: Fan, i: int, j: int) -> int:
    """Intersection of two distinct boundary divisors on a smooth complete
    toric surface: 1 when the rays span a cone, else 0."""
    if fan.dim != 2:
        raise ValueError("fan not 2-dimensional")
    if i == j:
        raise ValueError("equal indices: use surface_self_intersections")
    pair = tuple(sorted((i, j)))
    return 1 if pair in fan.maximal_cones else 0


def divisor_dot(fan: Fan, div: TorusDivisor, j: int) -> int:
    """Pairing of a divisor with the j-th boundary divisor on a smooth
    complete toric surface."""
    selfs = surface_self_intersections(fan)
    total = 0
    for i, c in enumerate(div):
        if c == 0:
            continue
        total += c * (selfs[i] if i == j else surface_intersection(fan, i, j))
    return total


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
    new_ray = _normalize_ray((fan.rays[i][0] + fan.rays[j][0],
                              fan.rays[i][1] + fan.rays[j][1]))
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
    if not 0 <= ray_index < len(fan.rays):
        raise ValueError("ray index out of range")
    star = [c for c in fan.maximal_cones if ray_index in c]
    if not star:
        raise ValueError("ray not in any maximal cone")
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
    non-simplicial cone must have exactly four rays (one interior diagonal
    to choose); ordering is lexicographic in the chosen diagonals."""
    if fan.dim != 3:
        if fan.is_simplicial():
            return [fan]
        raise ValueError("beyond desk scale")
    choices = []
    for ci, c in enumerate(fan.maximal_cones):
        if len(c) <= 3:
            continue
        if len(c) > 4:
            raise ValueError("beyond desk scale")
        _, diagonals = classify_cone_pairs(fan.cone_rays(c))
        if not diagonals:
            raise ValueError("no interior diagonal in overfull cone")
        # each diagonal (local pair) gives the two triangles it cuts
        opts = []
        for di, dj in sorted(diagonals):
            others = [k for k in range(len(c)) if k not in (di, dj)]
            tris = [tuple(sorted((c[di], c[dj], c[o]))) for o in others]
            opts.append(((c[di], c[dj]), tris))
        choices.append((ci, opts))
    if not choices:
        return [fan]
    out = []
    for combo in itertools.product(*[opts for _, opts in choices]):
        cones = []
        replaced = {ci: tris for (ci, _), (_, tris) in zip(choices, combo)}
        for ci, c in enumerate(fan.maximal_cones):
            if ci in replaced:
                cones.extend(replaced[ci])
            else:
                cones.append(c)
        out.append(Fan(3, fan.rays, cones))
    return out


def fibration_to_p1(fan: Fan, bound: int = 3):
    """First primitive covector (in the search order 0, 1, -1, 2, -2, ...
    per coordinate) whose pairing with every maximal cone is one-signed,
    so the fan maps onto the two-cone fan of the projective line.  Each ray
    is paired once per candidate, and a candidate fails on the first cone
    holding both a positive and a negative pairing.
    Returns None when no covector within the bound works."""
    values = [0]
    for k in range(1, bound + 1):
        values += [k, -k]
    for m in itertools.product(values, repeat=fan.dim):
        if math.gcd(*m) != 1:  # also skips the zero covector, gcd 0
            continue
        pairing = [_dot(m, r) for r in fan.rays]
        if not any(min(pairing[i] for i in c) < 0 < max(pairing[i] for i in c)
                   for c in fan.maximal_cones):
            return m
    return None


# ---------------------------------------------------------------------------
# fan files
# ---------------------------------------------------------------------------


def fan_from_dict(data: dict) -> Fan:
    """Build a fan from parsed file data; rejects rather than mends
    non-primitive rays, booleans where integers belong and repeated indices."""
    for field in ("dim", "rays", "cones"):
        if field not in data:
            raise ValueError(f"missing field '{field}'")
    dim = data["dim"]
    if not _is_int(dim):
        raise ValueError("field 'dim' must be an integer")
    rays = data["rays"]
    if not isinstance(rays, list) or not rays:
        raise ValueError("field 'rays' must be a non-empty list")
    for r in rays:
        if (not isinstance(r, list) or len(r) != dim
                or not all(_is_int(x) for x in r)):
            raise ValueError("each ray must be a list of integers of length dim")
        if _normalize_ray(r) != tuple(r):
            raise ValueError(f"ray not primitive: {list(r)}")
    cones = data["cones"]
    if not isinstance(cones, list) or not cones:
        raise ValueError("field 'cones' must be a non-empty list")
    for c in cones:
        if not isinstance(c, list) or not all(_is_int(i) for i in c):
            raise ValueError("each cone must be a list of ray indices")
        if len(set(c)) != len(c):
            raise ValueError(f"cone lists a ray index twice: {c}")
    return Fan(dim, rays, cones)


def load_fan(path: str) -> Fan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"fan file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError("fan file must contain a JSON object")
    return fan_from_dict(data)


def dump_fan(fan: Fan, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fan.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
