"""Fans in dimension at most three: validation, smoothness, surface
intersection numbers, bundle fans, contraction, triangulations, and the
fibration search."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from certkit import certify_cli, exactcore, toric
from certkit.toric import (
    MAX_CONE_RAYS,
    Fan,
    blow_up_surface,
    build_p1_bundle_fan,
    cone_is_smooth,
    contract_ray,
    divisor_pairings,
    enumerate_qfactorializations,
    fan_from_dict,
    fan_is_complete,
    fan_is_smooth,
    fibration_to_p1,
    hirzebruch_fan,
    load_fan,
    noether_number,
    principal_divisor,
    projective_plane_fan,
    surface_self_intersections,
)

S14 = hirzebruch_fan(3)
S23 = hirzebruch_fan(1)
P2 = projective_plane_fan()

P3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
         ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def bundle_14():
    return build_p1_bundle_fan(S14, (1, 0, 0, 1))


def bundle_23():
    return build_p1_bundle_fan(S23, (2, 0, 0, 1))


# ---------------------------------------------------------------------------
# fan construction and validation
# ---------------------------------------------------------------------------


def test_fan_rejects_duplicate_rays():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0), (1, 0), (0, 1)), ((0, 2), (1, 2)))


def test_fan_rejects_unused_ray():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1),))


def test_fan_rejects_dependent_simplicial_cone():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0), (-1, 0)), ((0, 1),))


# the rays over the corners of a square, in cyclic order
SQUARE = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))


@pytest.mark.parametrize("dim, rays, cones, message", [
    # (0, 0, 1) = ((1, 0, 1) + (0, 1, 1) + (-1, -1, 1)) / 3 lies inside
    (3, ((1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, 1)), ((0, 1, 2, 3),),
     "non-extremal ray in cone"),
    (2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),), "overfull cone in dimension 2"),
    (3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2, 3),),
     "not strongly convex"),
    # a two-ray cone of a 3-D fan spans a plane holding the ray (1, 1, 0)
    (3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), ((0, 1), (2, 3)),
     "ray inside another cone"),
    # (1, 1) and (1, 1, 1) lie inside the full-dimensional cone on the e_i
    (2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2)), "ray inside another cone"),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), ((0, 1, 2), (0, 1, 3)),
     "ray inside another cone"),
    # a cone listed twice, in another order, and a face listed as a cone
    (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2), (1, 0)),
     "cone contained in another"),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2), (2, 1, 0)),
     "cone contained in another"),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2), (0, 1)),
     "cone contained in another"),
    # a square pyramid and its axis; the same square and (1, 1, 2) on the
    # facet of its first two rays; four rays in a pointed plane sector
    (3, SQUARE + ((0, 0, 1),), (range(5),), "non-extremal ray in cone"),
    (3, SQUARE + ((1, 1, 2),), (range(5),), "non-extremal ray in cone"),
    (3, ((1, 0, 0), (2, 1, 0), (1, 1, 0), (0, 1, 0)), ((0, 1, 2, 3),),
     "non-extremal ray in cone"),
])
def test_fan_validation_errors(dim, rays, cones, message):
    with pytest.raises(ValueError, match=message):
        Fan(dim, rays, cones)


@pytest.mark.parametrize("rays, cones", [
    (((Fraction(3, 2), 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
    (((1.5, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
    (((1.0, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
    (((True, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
    (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2.0))),
    (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (Fraction(0), 2))),
    (((1, 0), (0, 1), (-1, -1)), ((0, 1), (True, 2), (0, 2))),
])
def test_fan_rejects_non_integer_input(rays, cones):
    # int() would read 3/2 and 1.5 as 1 and build the plane's fan
    with pytest.raises(ValueError, match="must be integers"):
        Fan(2, rays, cones)


def _reference_det(m):
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * a * _reference_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


class _ReferenceCone:
    """The cone membership test as it stood before the cofactor rows were
    read off the adjugate: Laplace minors, one point per call."""

    def __init__(self, rays, d):
        for k in range(min(len(rays), d), -1, -1):
            bases = []
            for basis in itertools.combinations(rays, k):
                for cols in itertools.combinations(range(d), k):
                    m = [[b[j] for j in cols] for b in basis]
                    det = _reference_det(m)
                    if det:
                        sign = 1 if det > 0 else -1
                        cof = [[sign * (-1) ** (i + j) * _reference_det(
                                    [row[:j] + row[j + 1:]
                                     for t, row in enumerate(m) if t != i])
                                for j in range(k)] for i in range(k)]
                        rest = [j for j in range(d) if j not in cols]
                        bases.append((cols, sign * det, cof, rest, basis))
                        break
            if bases:
                self.rank, self.bases = k, bases
                return

    def contains(self, x):
        for cols, det, cof, rest, basis in self.bases:
            xc = [x[j] for j in cols]
            num = [sum(a * b for a, b in zip(row, xc)) for row in cof]
            if min(num, default=0) >= 0 and all(
                    det * x[j] == sum(n * b[j] for n, b in zip(num, basis))
                    for j in rest):
                return True
        return False


class _ReferenceFan(Fan):
    """Fan whose axioms are checked by the validation as it stood before
    one membership call per cone and size-bucketed containment."""

    __slots__ = ()

    def _validate(self):
        used = {i for c in self.maximal_cones for i in c}
        if used != set(range(len(self.rays))):
            raise ValueError("unused ray")
        tests = []
        for c in self.maximal_cones:
            rays = [self.rays[i] for i in c]
            test = _ReferenceCone(rays, self.dim)
            if len(c) <= self.dim:
                if test.rank != len(c):
                    raise ValueError("dependent rays in simplicial cone")
            else:
                if self.dim != 3:
                    raise ValueError("overfull cone in dimension 2")
                lifted = [r + (1,) for r in rays]
                if _ReferenceCone(lifted, 4).contains((0, 0, 0, 1)):
                    raise ValueError("not strongly convex")
                for k in range(len(c)):
                    others = [r for t, r in enumerate(rays) if t != k]
                    if _ReferenceCone(others, 3).contains(rays[k]):
                        raise ValueError("non-extremal ray in cone")
            tests.append(test)
        cone_sets = [set(c) for c in self.maximal_cones]
        for a, sa in enumerate(cone_sets):
            for b, sb in enumerate(cone_sets):
                if a != b and sa <= sb:
                    raise ValueError("cone contained in another")
        for sc, test in zip(cone_sets, tests):
            for i, r in enumerate(self.rays):
                if i not in sc and test.contains(r):
                    raise ValueError("ray inside another cone")


def _primitive(v):
    """v divided by the gcd of its entries; the zero vector as is."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


@st.composite
def _fan_cases(draw):
    """Distinct primitive rays in dimension 2 or 3 with entries in -3..3, and
    1-7 cones of 2..d+2 of them.  Sometimes a cone is repeated, one of its
    faces is added, or the sum of two of its rays is added in a cone of its
    own.  Rays no cone uses are dropped, so validation reaches the cone
    checks."""
    d = draw(st.sampled_from((2, 3)))
    vectors = st.tuples(*[st.integers(-3, 3)] * d).filter(any).map(_primitive)
    rays = draw(st.lists(vectors, min_size=2, max_size=7, unique=True))
    n = len(rays)
    cones = [draw(st.lists(st.integers(0, n - 1), min_size=2,
                           max_size=min(d + 2, n), unique=True))
             for _ in range(draw(st.integers(1, 7)))]
    extra = draw(st.sampled_from(("none", "repeat", "face", "sum")))
    c = list(draw(st.sampled_from(cones)))
    if extra == "sum":
        w = _primitive(tuple(a + b for a, b in zip(rays[c[0]], rays[c[1]])))
        if any(w) and w not in rays:
            rays.append(w)
            cones.append([len(rays) - 1, draw(st.integers(0, n - 1))])
    elif extra != "none":
        if extra == "face" and len(c) > 2:
            c.pop(draw(st.integers(0, len(c) - 1)))
        cones.append(c[::-1])
    used = sorted({i for c in cones for i in c})
    new_index = {old: new for new, old in enumerate(used)}
    return (d, [rays[i] for i in used],
            [[new_index[i] for i in c] for c in cones])


def _validation_outcome(cls, d, rays, cones):
    try:
        cls(d, rays, cones)
    except ValueError as e:
        return str(e)
    return "valid"


@settings(max_examples=600, deadline=None)
@given(_fan_cases())
def test_fan_validation_matches_reference(case):
    assert (_validation_outcome(Fan, *case)
            == _validation_outcome(_ReferenceFan, *case))


def _hull_vertices(points):
    """The vertices of the convex hull of distinct plane points, in order:
    Andrew's monotone chain, dropping every point on an edge."""
    points = sorted(points)

    def chain(pts):
        out = []
        for p in pts:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(points) + chain(points[::-1])


@st.composite
def _pointed_cones(draw):
    """Pointed 3-D cones on 4 to 8 distinct primitive rays, shuffled: the
    cone over a convex polygon at a height, alone or with a ray added inside
    it (the sum of three vertices) or on a facet (the sum of two adjacent
    vertices), sheared by a unimodular map; or random rays with entries in
    -3..3 that span a pointed cone."""
    kind = draw(st.sampled_from(("polygon", "interior", "facet", "random")))
    if kind == "random":
        vectors = st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(_primitive)
        rays = draw(st.lists(vectors, min_size=4, max_size=8, unique=True))
        assume(toric.cone_is_strongly_convex(rays))
        return rays
    corners = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    hull = _hull_vertices(draw(st.lists(corners, min_size=4, max_size=12, unique=True)))
    size = len(hull) + (kind != "polygon")
    assume(len(hull) >= 3 and 4 <= size <= MAX_CONE_RAYS)
    h = draw(st.integers(1, 4))
    rays = [(x, y, h) for x, y in hull]
    if kind == "interior":
        rays.append(tuple(map(sum, zip(*rays[:3]))))
    elif kind == "facet":
        rays.append(tuple(map(sum, zip(*rays[:2]))))
    a, b, c = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    rays = [(x + a * z, y + b * z, z) for x, y, z in rays]
    rays = [_primitive((x, y, z + c * x)) for x, y, z in rays]
    return [rays[i] for i in draw(st.permutations(range(len(rays))))]


def test_facet_count_decides_extremality():
    # a pointed cone has as many facet pairs as rays exactly when no ray
    # lies in the cone on the others; both outcomes are drawn often
    seen = {True: 0, False: 0}

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_pointed_cones())
    def check(rays):
        extremal = not any(_ReferenceCone(rays[:k] + rays[k + 1:], 3).contains(r)
                           for k, r in enumerate(rays))
        assert (len(toric._facets(rays)) == len(rays)) == extremal
        seen[extremal] += 1

    check()
    assert min(seen.values()) >= 50, seen


def test_facets_disqualify_where_the_old_split_raised():
    # (1, 1, 2) lies on the plane of the square's first two rays, which the
    # old split called coplanar; opposite rays have no normal
    rays = SQUARE + ((1, 1, 2),)
    with pytest.raises(ValueError, match="coplanar"):
        _reference_classify(rays)
    assert toric._facets(rays) == [(0, 3), (1, 2), (2, 3)]
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1))
    with pytest.raises(ValueError, match="parallel"):
        _reference_classify(rays)
    assert (0, 1) not in toric._facets(rays)


def test_larger_cones_are_read_from_one_facet_pass(monkeypatch):
    # validating the contracted l014 bundle builds one cone test per cone
    # and reads the four-ray cone's facets once, and so does choosing its
    # diagonals; the simplicial fans that come out read none
    cones, facets = [], []
    cone_test, facet_pass = toric._Cone, toric._facets
    monkeypatch.setattr(toric, "_Cone", lambda *a: cones.append(a) or cone_test(*a))
    monkeypatch.setattr(toric, "_facets", lambda rays: facets.append(rays) or facet_pass(rays))
    bundle = bundle_14()
    cones.clear()
    fan = contract_ray(bundle, 5)
    assert len(facets) == 1 and len(cones) == 2 + len(fan.maximal_cones)
    facets.clear()
    assert len(enumerate_qfactorializations(fan)) == 2
    assert len(facets) == 1


def _solve_cone_contains(rays, x):
    """Reference membership: some set of at most len(x) rays gives a unique
    solution of sum l_i r_i = x over Q, and it is nonnegative."""
    if not any(x):
        return True
    for size in range(1, len(x) + 1):
        for subset in itertools.combinations(rays, size):
            sol = exactcore.solve(list(subset), x)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


@st.composite
def _cone_cases(draw):
    """Rays in dimension 2 or 3, many parallel, opposite or dependent on
    earlier rays (a combination of two is coplanar with them), and a
    target that is often zero or an integer combination of the rays."""
    d = draw(st.sampled_from((2, 3)))
    vectors = st.tuples(*[st.integers(-2, 2)] * d)
    rays = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("free", "parallel", "opposite", "dependent")))
        if kind == "free" or not rays:
            rays.append(draw(vectors))
        elif kind == "dependent":
            a, b = draw(st.sampled_from(rays)), draw(st.sampled_from(rays))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rays.append(tuple(s * u + t * v for u, v in zip(a, b)))
        else:
            k = draw(st.integers(1, 3)) * (1 if kind == "parallel" else -1)
            rays.append(tuple(k * c for c in draw(st.sampled_from(rays))))
    target = draw(st.sampled_from(("free", "zero", "combination")))
    if target == "zero":
        x = (0,) * d
    elif target == "combination":
        coeffs = [draw(st.integers(-1, 2)) for _ in rays]
        x = tuple(sum(c * r[j] for c, r in zip(coeffs, rays)) for j in range(d))
    else:
        x = draw(vectors)
    return rays, x


@settings(max_examples=300, deadline=None)
@given(_cone_cases(), st.integers(0, 5))
def test_cone_contains_matches_solve_reference(case, at):
    rays, x = case
    assert toric.cone_contains(rays, x) == _solve_cone_contains(rays, x)
    lifted = [r + (1,) for r in rays]
    apex = (0,) * len(x) + (1,)
    assert toric.cone_is_strongly_convex(rays) == (
        not rays or not _solve_cone_contains(lifted, apex))
    bad = list(rays)
    bad.insert(at % (len(rays) + 1), (1,) * (len(x) + 1))
    with pytest.raises(ValueError):
        toric.cone_contains(bad, x)


def test_cone_is_strongly_convex():
    assert toric.cone_is_strongly_convex([(1, 0), (1, 1)])
    assert not toric.cone_is_strongly_convex([(1, 0), (-1, 0)])
    # a square-based pyramid over the plane z = 1 is pointed
    assert toric.cone_is_strongly_convex(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    # (1, 1, 0) + (-1, 0, 0) + (0, -1, 0) = 0 spans a line
    assert not toric.cone_is_strongly_convex(
        [(1, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)])
    assert toric.cone_is_strongly_convex([])


@pytest.mark.parametrize("rays, expected", [
    # a zero ray is its own negative, so it lies in every cone
    ([(0, 0), (1, 0)], False),
    ([(0, 0, 0)], False),
    ([(1, 0, 0), (0, 0, 0), (0, 1, 0)], False),
    # three rays summing to zero with no two of them opposite
    ([(1, 0), (0, 1), (-1, -1)], False),
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], False),
    ([(1, 2, 0), (-2, 1, 1), (1, -3, -1)], False),
    # two of the three, or the three lifted off the plane, are pointed
    ([(1, 0), (0, 1)], True),
    ([(1, 0, 1), (0, 1, 1), (-1, -1, 1)], True),
])
def test_strong_convexity_is_no_negated_ray_in_the_cone(rays, expected):
    assert toric.cone_is_strongly_convex(rays) is expected


def test_strong_convexity_rejects_mixed_ray_lengths():
    with pytest.raises(ValueError):
        toric.cone_is_strongly_convex([(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        toric.cone_is_strongly_convex([(1, 0, 0), (0, 1)])


@pytest.mark.parametrize("call", [
    lambda: toric.cone_contains([(1.5, 0), (0, 1)], (1, 1)),
    lambda: toric.cone_contains([(1, 0), (0, 1)], (0.5, 0.25)),
    lambda: toric.cone_contains([(True, 0), (0, 1)], (1, 1)),
    lambda: toric.cone_contains([(1, 0), (0, 1)], (Fraction(1, 2), 0)),
    lambda: toric.cone_contains([(1, 0), ("0", 1)], (1, 1)),
    lambda: toric.cone_is_strongly_convex([(0.5, 0), (-1, 0)]),
    lambda: toric.cone_is_strongly_convex([(1, 0), (0, False)]),
    lambda: toric.cone_is_strongly_convex([(Fraction(1), 0), (0, 1)]),
    lambda: toric.cone_is_strongly_convex([("1", 0), (0, 1)]),
], ids=["contains-float-ray", "contains-float-point", "contains-bool-ray",
        "contains-fraction-point", "contains-str-ray", "convex-float",
        "convex-bool", "convex-fraction", "convex-str"])
def test_cone_predicates_reject_non_integers(call):
    # the float cases read True today: 1.5 e1 + e2 holds (1, 1)
    with pytest.raises(ValueError, match="must be integers"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: toric.cone_contains([(1,)], (1,)), id="contains-1d"),
    pytest.param(lambda: toric.cone_contains([(1, 0, 0, 0)], (0, 0, 0, 1)),
                 id="contains-4d"),
    pytest.param(lambda: toric.cone_contains([], (0, 0, 0, 0)), id="contains-4d-no-rays"),
    pytest.param(lambda: toric.cone_is_strongly_convex([(1,), (2,)]), id="convex-1d"),
    pytest.param(lambda: toric.cone_is_strongly_convex([(1, 0, 0, 0), (0, 1, 0, 0)]),
                 id="convex-4d"),
])
def test_cone_predicates_reject_other_dimensions(call):
    # toric is 2-D and 3-D, as `Fan` is; no cone test sees a 4-row minor
    with pytest.raises(ValueError, match="unsupported dimension"):
        call()


def _permutation_det(m):
    """Leibniz's sum over permutations, the sign counted by inversions."""
    n = len(m)
    total = 0
    for p in itertools.permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
        total += sign * math.prod(m[i][p[i]] for i in range(n))
    return total


def test_cofactor_rows_invert_against_a_permutation_expansion():
    """cof_i . m_j = det(m) [i = j] on every branch: the empty and 1 x 1
    matrices, the quarter turn and the cross products, singular or not."""
    rng = random.Random("cofactor-rows")
    for n in range(4):
        for trial in range(40):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            singular = trial % 4 == 0 and n
            if singular:
                # the last row is the sum of the others
                m[-1] = [sum(col) for col in zip(*m[:-1])] or [0]
            det = _permutation_det(m)
            assert not (singular and det)
            cof = toric._cofactor_rows(m)
            assert len(cof) == n
            for i, j in itertools.product(range(n), repeat=2):
                assert toric._dot(cof[i], m[j]) == (det if i == j else 0)


def test_toric_paths_need_no_four_row_cofactors(monkeypatch, capsys):
    sizes = []
    cofactor_rows = toric._cofactor_rows

    def counted(m):
        sizes.append(len(m))
        return cofactor_rows(m)

    monkeypatch.setattr(toric, "_cofactor_rows", counted)
    for bundle in (bundle_14(), bundle_23()):
        contract_ray(bundle, 5)
    with pytest.raises(ValueError, match="not strongly convex"):
        contract_ray(bundle_14(), 4)
    assert certify_cli.main(["run", "toric"]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= 3


def test_fan_constructor_rejects_what_it_used_to_mend():
    # construction once divided a ray by its gcd and collapsed a repeated
    # index; it now rejects both, and a cone too wide to validate, as the
    # file loader did
    with pytest.raises(ValueError, match=r"ray not primitive: \[2, 0\]"):
        Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError, match=r"cone lists a ray index twice: \[0, 1, 1\]"):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1, 1), (1, 2), (0, 2)))
    rays = [(k, k * k, 1) for k in range(1, 10)]
    with pytest.raises(ValueError, match=r"cone has 9 rays, more than 8"):
        Fan(3, rays, (range(9),))
    with pytest.raises(ValueError, match="zero ray"):
        Fan(2, ((0, 0), (0, 1)), ((0, 1),))


def test_fan_rejects_overlapping_cones():
    # second cone strictly inside the first
    with pytest.raises(ValueError):
        Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))


def test_standard_cone_is_smooth():
    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    assert cone_is_smooth(fan, (0, 1, 2)) == (True, 1)


def test_l014_cone_multiplicity_four():
    fan = Fan(3, ((1, 0, -1), (-1, 3, 0), (0, -1, -1)), ((0, 1, 2),))
    assert cone_is_smooth(fan, (0, 1, 2)) == (False, 4)


def test_l023_cone_is_smooth():
    fan = Fan(3, ((0, 1, 0), (0, -1, -1), (1, 0, -2)), ((0, 1, 2),))
    assert cone_is_smooth(fan, (0, 1, 2)) == (True, 1)


def test_cone_is_smooth_rejects_non_simplicial():
    contracted = contract_ray(bundle_14(), 5)
    big = next(c for c in contracted.maximal_cones if len(c) == 4)
    with pytest.raises(ValueError, match="not simplicial"):
        cone_is_smooth(contracted, big)


def test_toric_checks_run_without_fraction_elimination(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Fraction elimination in a toric check")

    monkeypatch.setattr(exactcore, "_echelon", forbidden)
    for bundle in (bundle_14(), bundle_23()):
        assert fan_is_smooth(bundle)
        assert not contract_ray(bundle, 5).is_simplicial()
    assert toric.cone_is_strongly_convex([(1, 0, 1), (0, 1, 1), (-1, 0, 1)])
    assert not toric.cone_is_strongly_convex([(1, 0), (-1, 0)])
    report = certify_cli.check_fan("tests/data/bundle_fan_s14.json")
    assert report.smooth and report.complete


def test_fan_is_smooth_examples():
    assert fan_is_smooth(P2)
    assert fan_is_smooth(P3)
    assert fan_is_smooth(bundle_14())


def _reference_gcd_of_maximal_minors(rows):
    """gcd of all k x k minors of a k x d integer matrix, k <= d: the cone
    multiplicity as computed before it was read off the cone test."""
    d = len(rows[0]) if rows else 0
    return math.gcd(*(_reference_det([[r[j] for j in cols] for r in rows])
                      for cols in itertools.combinations(range(d), len(rows))))


def _assert_multiplicity_matches_reference(fan, cone):
    expected = _reference_gcd_of_maximal_minors([fan.rays[i] for i in cone])
    if expected == 0:
        with pytest.raises(ValueError, match="not simplicial"):
            cone_is_smooth(fan, cone)
    else:
        assert cone_is_smooth(fan, cone) == (expected == 1, expected)


def test_gcd_of_maximal_minors_nonsquare():
    # a wide matrix: the gcd runs over every column set, here minors 6, 0, 0
    assert _reference_gcd_of_maximal_minors([[2, 0, 0], [0, 3, 0]]) == 6
    assert toric._Cone([(2, 0, 0), (0, 3, 0)], 3).multiplicity() == 6
    # primitive rays with the minors 2, 4, 2 and 2, 6, 3: the first
    # nonzero minor is not the gcd
    fan = Fan(3, ((2, 1, 0), (0, 1, 2)), ((0, 1),))
    assert cone_is_smooth(fan, (1, 0)) == (False, 2)
    fan = Fan(3, ((2, 1, 0), (0, 1, 3)), ((0, 1),))
    assert cone_is_smooth(fan, (1, 0)) == (True, 1)


@st.composite
def _independent_rays(draw):
    """k = 2..d independent rays in dimension d = 2 or 3, each drawn with
    entries in -4..4 and divided by its gcd, 2-ray cones in 3-D included."""
    d = draw(st.sampled_from((2, 3)))
    vectors = st.tuples(*[st.integers(-4, 4)] * d).map(_primitive)
    rays = draw(st.lists(vectors, min_size=2, max_size=d))
    assume(_reference_gcd_of_maximal_minors(rays))
    return d, rays


@settings(max_examples=200, deadline=None)
@given(_independent_rays())
def test_cone_multiplicity_matches_gcd_of_minors_reference(case):
    # the cone itself, in every index order, reads the multiplicity stored
    # by validation; each proper face, in every order, builds its own test
    d, rays = case
    fan = Fan(d, rays, (range(len(rays)),))
    for size in range(len(rays) + 1):
        for cone in itertools.permutations(range(len(rays)), size):
            _assert_multiplicity_matches_reference(fan, cone)


@st.composite
def _blowup_chains(draw, max_blowups=4):
    """The plane or a Hirzebruch surface blown up 0 to max_blowups times,
    its rays renumbered and its cones listed at random, each in a random
    order."""
    start = draw(st.sampled_from(("plane", 0, 1, 2, 3, 4)))
    fan = projective_plane_fan() if start == "plane" else hirzebruch_fan(start)
    for _ in range(draw(st.integers(0, max_blowups))):
        fan = blow_up_surface(fan, draw(st.sampled_from(fan.maximal_cones)))
    return Fan(2, *_shuffled(draw, fan))


def _shuffled(draw, fan):
    """The fan's rays renumbered and its cones listed at random, each cone
    in a random order."""
    perm = draw(st.permutations(range(len(fan.rays))))
    rays = [None] * len(fan.rays)
    for old, new in enumerate(perm):
        rays[new] = fan.rays[old]
    cones = [[perm[i] for i in c][::draw(st.sampled_from((1, -1)))]
             for c in draw(st.permutations(fan.maximal_cones))]
    return rays, cones


@settings(max_examples=100, deadline=None)
@given(_blowup_chains(), st.lists(st.integers(-2, 2), min_size=10, max_size=10),
       st.booleans())
def test_multiplicity_of_every_small_ray_set_matches_reference(chain, a, lift):
    # surfaces and bundles over them: maximal cones, faces and ray sets
    # that span no cone, dependent ones (opposite rays, the two poles, a
    # repeated index) raising "not simplicial"
    fan = build_p1_bundle_fan(chain, a[:len(chain.rays)]) if lift else chain
    for size in range(fan.dim + 1):
        for cone in itertools.combinations(range(len(fan.rays)), size):
            _assert_multiplicity_matches_reference(fan, cone[::-1])
    for i in range(len(fan.rays)):
        _assert_multiplicity_matches_reference(fan, (i, i))


# ---------------------------------------------------------------------------
# divisors and surface intersection numbers
# ---------------------------------------------------------------------------


def test_principal_divisor_scroll_characters():
    assert tuple(principal_divisor(S14, (1, 0))) == (1, 0, -1, 0)
    assert tuple(principal_divisor(S14, (0, 1))) == (0, 1, 3, -1)
    assert tuple(principal_divisor(S14, (0, 0))) == (0, 0, 0, 0)


@pytest.mark.parametrize("call", [
    lambda: build_p1_bundle_fan(S14, (1.5, 0, 0, True)),
    lambda: principal_divisor(S14, (0.9, 1)),
    lambda: divisor_pairings(S14, [2.7, True, 0, 0]),
    lambda: principal_divisor(S14, (Fraction(1), 0)),
    lambda: build_p1_bundle_fan(S14, (Fraction(2, 2), 0, 0, 1)),
], ids=["bundle-float-bool", "covector-float", "divisor-float-bool",
        "covector-fraction", "bundle-fraction"])
def test_divisor_and_bundle_inputs_reject_non_integers(call):
    # int() would build the bundle for (1, 0, 0, 1), the divisor of (0, 1)
    # and pair the divisor (2, 1, 0, 0)
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_integer_divisor_and_bundle_inputs_unchanged():
    assert divisor_pairings(S14, [2, -1, 0, 0]) == (-1, 5, -1, 2)
    assert divisor_pairings(S14, iter((0, 3, 0, 0))) == (3, -9, 3, 0)
    assert build_p1_bundle_fan(S14, [1, 0, 0, 1]) == bundle_14()


def test_self_intersections_scrolls_and_plane():
    assert surface_self_intersections(S14) == (0, -3, 0, 3)
    assert surface_self_intersections(S23) == (0, -1, 0, 1)
    assert surface_self_intersections(P2) == (1, 1, 1)


def test_self_intersections_require_complete_smooth():
    affine = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError):
        surface_self_intersections(affine)
    singular = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    assert fan_is_complete(singular) and not fan_is_smooth(singular)
    with pytest.raises(ValueError):
        surface_self_intersections(singular)


@pytest.mark.parametrize("cone", [(0, -1), (0, 9), (True, 1), (0, 1.0)])
def test_cone_is_smooth_rejects_bad_indices(cone):
    # (0, -1) wrapped to (0, 3) and read as smooth; (0, 9) raised IndexError
    with pytest.raises(ValueError, match="cone index"):
        cone_is_smooth(S14, cone)


@pytest.mark.parametrize("fan, coefficients, match", [
    (S14, (0.5, 0, True, 0), "must be integers"),
    (S14, [0, 1, 0, True], "must be integers"),
    (S14, (0, 1, 0, 0, 0, 0), "divisor length"),
    (S14, (1,), "divisor length"),
    (Fan(2, ((1, 0), (0, 1)), ((0, 1),)), (1, 0), "not complete"),
    (P3, (1, 0, 0, 0), "not 2-dimensional"),
], ids=["float-bool", "bool", "six-coefficients", "one-coefficient",
        "not-complete", "3d"])
def test_divisor_pairings_rejects_bad_arguments(fan, coefficients, match):
    # (0.5, 0, True, 0) paired to the float 1.5 at ray 1; the 6- and
    # 1-coefficient divisors gave 1
    with pytest.raises(ValueError, match=match):
        divisor_pairings(fan, coefficients)


def test_pairwise_intersections_of_boundary_divisors():
    assert divisor_pairings(S14, (1, 0, 0, 0)) == (0, 1, 0, 1)
    assert divisor_pairings(S14, (0, 1, 0, 0))[3] == 0
    assert divisor_pairings(S14, (0, 0, 1, 0)) == (0, 1, 0, 1)


def test_principal_divisors_pair_to_zero_exhaustively():
    for m in ((1, 0), (0, 1), (1, 1), (2, -1)):
        assert divisor_pairings(S14, principal_divisor(S14, m)) == (0, 0, 0, 0)


def test_noether_identity_on_built_fans():
    for fan in (P2, S14, S23, hirzebruch_fan(0), hirzebruch_fan(2)):
        assert noether_number(fan) == 12


def test_noether_identity_on_random_blowups():
    rng = random.Random("toric-noether")
    for _ in range(50):
        fan = hirzebruch_fan(rng.randrange(4))
        for _ in range(rng.randrange(1, 5)):
            cone = fan.maximal_cones[rng.randrange(len(fan.maximal_cones))]
            fan = blow_up_surface(fan, cone)
        assert fan_is_smooth(fan) and fan_is_complete(fan)
        assert noether_number(fan) == 12


def test_blow_up_adds_exceptional_ray():
    once = blow_up_surface(P2, (0, 1))
    assert len(once.rays) == 4
    assert (1, 1) in once.rays
    assert surface_self_intersections(once) == (0, 0, 1, -1)


def _reference_cyclic_order(rays):
    """Indices of 2D rays sorted counterclockwise from the positive x-axis,
    by exact sector comparison: the ray order self-intersections were read
    from before the neighbours were read off the cones."""
    def half(v):
        # 0 for the upper half plane including the positive x-axis
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(i, j):
        a, b = rays[i], rays[j]
        if half(a) != half(b):
            return -1 if half(a) < half(b) else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(range(len(rays)), key=functools.cmp_to_key(cmp))


def _reference_self_intersections(fan):
    order = _reference_cyclic_order(fan.rays)
    n = len(order)
    out = []
    for k, i in enumerate(order):
        u, prev, nxt = (fan.rays[order[(k + t) % n]] for t in (0, -1, 1))
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        c, r = divmod(s[0] * u[0] + s[1] * u[1], u[0] ** 2 + u[1] ** 2)
        assert r == 0 and (c * u[0], c * u[1]) == s
        out.append((i, -c))
    return tuple(c for _, c in sorted(out))


@settings(max_examples=200, deadline=None)
@given(_blowup_chains())
def test_self_intersections_match_angular_sort_reference(fan):
    assert surface_self_intersections(fan) == _reference_self_intersections(fan)
    assert noether_number(fan) == 12


def _rays_share_a_cone(fan, i, j):
    return any(i in cone and j in cone for cone in fan.maximal_cones)


@settings(max_examples=200, deadline=None)
@given(_blowup_chains(max_blowups=5), st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_divisor_pairings_are_the_intersection_table(fan, m, c):
    n = len(fan.rays)
    table = [divisor_pairings(fan, [int(i == j) for j in range(n)]) for i in range(n)]
    selfs = surface_self_intersections(fan)
    for i in range(n):
        assert table[i][i] == selfs[i]
        for j in range(n):
            assert table[i][j] == table[j][i]
            if i != j:
                assert table[i][j] == int(_rays_share_a_cone(fan, i, j))
    # the pairing is linear in the divisor, and principal divisors pair to 0
    c = c[:n]
    assert divisor_pairings(fan, c) == tuple(
        sum(ci * row[j] for ci, row in zip(c, table)) for j in range(n))
    assert divisor_pairings(fan, principal_divisor(fan, m)) == (0,) * n


def test_fan_with_a_lower_dimensional_maximal_cone_is_not_complete():
    # the 2-ray cone is not full-dimensional, so no cut into triangles can
    # cover the space
    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
              ((0, 1, 2), (2, 3)))
    assert not fan_is_complete(fan)


# ---------------------------------------------------------------------------
# the complete-simplicial route of validation
# ---------------------------------------------------------------------------


@st.composite
def _complete_fans(draw):
    """(dim, rays, cones) of a complete simplicial fan: a blown-up surface,
    or a P^1-bundle over one with random twists, rays and cones shuffled."""
    fan = draw(_blowup_chains())
    if draw(st.booleans()):
        n = len(fan.rays)
        fan = build_p1_bundle_fan(fan, draw(st.lists(st.integers(-3, 3),
                                                     min_size=n, max_size=n)))
    return (fan.dim, *_shuffled(draw, fan))


@st.composite
def _mutated_fans(draw):
    """A complete simplicial fan and a copy with one mutation: a ray moved
    or negated, or a cone dropped, replaced or added."""
    d, rays, cones = draw(_complete_fans())
    mutant_rays, mutant_cones = list(rays), list(cones)
    r = draw(st.integers(0, len(rays) - 1))
    c = draw(st.integers(0, len(cones) - 1))
    some_cone = st.lists(st.integers(0, len(rays) - 1), min_size=d, max_size=d,
                         unique=True)
    kind = draw(st.sampled_from(("move", "negate", "drop", "replace", "add")))
    if kind == "move":
        vectors = st.tuples(*[st.integers(-3, 3)] * d).filter(any).map(_primitive)
        mutant_rays[r] = draw(vectors)
    elif kind == "negate":
        mutant_rays[r] = tuple(-x for x in rays[r])
    elif kind == "drop":
        del mutant_cones[c]
    elif kind == "replace":
        mutant_cones[c] = draw(some_cone)
    else:
        mutant_cones.append(draw(some_cone))
    return (d, rays, cones), (d, mutant_rays, mutant_cones)


def _reference_classify(rays):
    """The split of a 3-D cone's ray pairs into facets and interior
    diagonals by the supporting-plane test, as validation and the
    q-factorializations read it before `toric._facets`; it raises on
    parallel rays and on a ray on the plane of a pair."""
    n = len(rays)
    facets, diagonals = [], []
    for i, j in itertools.combinations(range(n), 2):
        normal = toric._cross3(rays[i], rays[j])
        if all(c == 0 for c in normal):
            raise ValueError("parallel rays in cone")
        signs = {(toric._dot(normal, rays[k]) > 0) - (toric._dot(normal, rays[k]) < 0)
                 for k in range(n) if k not in (i, j)}
        if signs == {1} or signs == {-1}:
            facets.append((i, j))
        elif 1 in signs and -1 in signs:
            diagonals.append((i, j))
        else:
            raise ValueError("degenerate cone: coplanar rays")
    return facets, diagonals


def _reference_is_complete(fan):
    """The wall test that decided completeness before validation did: every
    maximal cone is full-dimensional, every wall (a simplicial cone minus
    one ray, or a facet of a larger cone) lies in exactly two cones, and the
    cones are connected across walls."""
    if any(len(c) < fan.dim for c in fan.maximal_cones):
        return False
    walls = {}
    for ci, c in enumerate(fan.maximal_cones):
        if len(c) == fan.dim:
            faces = [c[:i] + c[i + 1:] for i in range(len(c))]
        else:
            facets, _ = _reference_classify(fan.cone_rays(c))
            faces = [(c[i], c[j]) for i, j in facets]
        for f in faces:
            walls.setdefault(f, []).append(ci)
    if any(len(cs) != 2 for cs in walls.values()):
        return False
    adj = {i: set() for i in range(len(fan.maximal_cones))}
    for a, b in walls.values():
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) == len(fan.maximal_cones)


def _outcome_with_completeness(cls, d, rays, cones):
    try:
        fan = cls(d, rays, cones)
    except ValueError as e:
        return str(e)
    return "valid", (_reference_is_complete(fan) if cls is _ReferenceFan
                     else fan_is_complete(fan))


@settings(max_examples=300, deadline=None)
@given(_mutated_fans())
def test_complete_simplicial_route_matches_reference(case):
    # the route accepts every complete simplicial fan and stores the gcd of
    # the maximal minors of each cone; on a mutant the fan gives the
    # reference's verdict, error message and completeness, whichever route
    # it takes
    (d, rays, cones), mutant = case
    fan = Fan(d, rays, cones)
    assert fan._complete
    assert fan._multiplicity == {
        c: _reference_gcd_of_maximal_minors(fan.cone_rays(c)) for c in fan.maximal_cones}
    assert (_outcome_with_completeness(Fan, *mutant)
            == _outcome_with_completeness(_ReferenceFan, *mutant))


@st.composite
def _contracted_bundles(draw):
    """A P^1-bundle over a blown-up surface with one pole contracted, so
    that the pole's star becomes one cone of 4 to MAX_CONE_RAYS rays; rays
    and cones shuffled.  The twists are an ample divisor, positive on every
    boundary curve, which makes the down pole contractible, or its negative,
    which makes the up pole contractible: the plane's D_0 or Hirzebruch's
    D_0 + D_3, which each blowup pulls back, scales by 2 or 3 and takes the
    exceptional curve off, plus a principal divisor."""
    start = draw(st.sampled_from(("plane", 0, 1, 2, 3)))
    if start == "plane":
        base, a = projective_plane_fan(), [1, 0, 0]
    else:
        base, a = hirzebruch_fan(start), [1, 0, 0, 1]
    size = draw(st.integers(4, MAX_CONE_RAYS))
    while len(base.rays) < size:
        i, j = cone = draw(st.sampled_from(base.maximal_cones))
        k = draw(st.integers(2, 3))
        a = [k * x for x in a] + [k * (a[i] + a[j]) - 1]
        base = blow_up_surface(base, cone)
    m = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    sign = draw(st.sampled_from((1, -1)))
    a = [sign * x + p for x, p in zip(a, principal_divisor(base, m))]
    n = len(base.rays)
    fan = contract_ray(build_p1_bundle_fan(base, a), n + 1 if sign > 0 else n)
    return Fan(3, *_shuffled(draw, fan))


@settings(max_examples=120, deadline=None)
@given(_contracted_bundles(), st.data())
def test_completeness_of_non_simplicial_fans_matches_reference(fan, data):
    # a contraction is complete and a copy with one cone dropped is not;
    # the larger cone is cut into triangles on whichever ray comes first,
    # and the q-factorializations of a 4-ray cone take the simplicial route
    assert not fan.is_simplicial()
    cones = list(fan.maximal_cones)
    del cones[data.draw(st.integers(0, len(cones) - 1))]
    dropped = Fan(3, fan.rays, cones)
    assert fan_is_complete(fan) and not fan_is_complete(dropped)
    for f in (fan, dropped):
        simplicial = (enumerate_qfactorializations(f)
                      if max(map(len, f.maximal_cones)) <= 4 else [])
        for g in [f, *simplicial]:
            assert fan_is_complete(g) == _reference_is_complete(g)


def _wall_sides(rays, cones):
    """{wall: [side of the opposite ray, per cone on it]}, each side the sign
    of the opposite ray against one normal of the wall, its ray turned a
    quarter in 2-D or its two rays' cross product in 3-D."""
    out = {}
    for c in cones:
        for k in c:
            wall = tuple(sorted(set(c) - {k}))
            w = [rays[i] for i in wall]
            normal = (w[0][1], -w[0][0]) if len(w) == 1 else toric._cross3(*w)
            out.setdefault(wall, []).append(toric._dot(normal, rays[k]) > 0)
    return out


def _times_covered(rays, cones, point):
    return sum(_ReferenceCone([rays[i] for i in c], len(point)).contains(point)
               for c in cones)


def _cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


ZIGZAG = [(1, 0), (-1, 6), (-3, -1), (1, -2), (-1, -3), (6, -1)]
DOUBLE_WRAP = [(1, 0), (-1, 6), (-3, -1), (1, -2), (5, 4), (-5, 4), (-1, -2), (3, -1)]
# the same with (0, 1) on the second turn: the interior point (0, 6) of the
# first cone lies on the boundary of two cones of the second turn
DOUBLE_WRAP_ON_A_RAY = DOUBLE_WRAP[:5] + [(0, 1)] + DOUBLE_WRAP[5:]
# the plane's fan and a cone on (1, 0) and (1, 1), which lies in the cone
# on (1, 0) and (0, 1): the wall (1, 0) lies in three cones
THREE_ON_A_WALL = (((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 1), (1, 2), (0, 2), (0, 3)))


def test_route_declines_a_zigzag_cycle():
    # every wall in two cones and the first cone's interior point covered
    # once, but two walls have both their cones on one side
    cones = _cycle(len(ZIGZAG))
    sides = _wall_sides(ZIGZAG, cones)
    assert all(len(s) == 2 for s in sides.values())
    assert sum(s[0] == s[1] for s in sides.values()) == 2
    assert _times_covered(ZIGZAG, cones, (0, 6)) == 1
    assert toric._complete_simplicial(2, ZIGZAG, cones) is None
    with pytest.raises(ValueError, match="ray inside another cone"):
        Fan(2, ZIGZAG, cones)


@pytest.mark.parametrize("rays, covered", [(DOUBLE_WRAP, 2), (DOUBLE_WRAP_ON_A_RAY, 3)])
def test_route_declines_a_double_wrapped_cycle(rays, covered):
    # every wall has its two cones on opposite sides, and the cycle winds
    # around the origin twice, so the interior point is covered again
    cones = _cycle(len(rays))
    sides = _wall_sides(rays, cones)
    assert all(len(s) == 2 and s[0] != s[1] for s in sides.values())
    assert _times_covered(rays, cones, (0, 6)) == covered
    assert toric._complete_simplicial(2, rays, cones) is None
    with pytest.raises(ValueError, match="ray inside another cone"):
        Fan(2, rays, cones)


def test_route_declines_a_wall_in_three_cones():
    rays, cones = THREE_ON_A_WALL
    assert len(_wall_sides(rays, cones)[(0,)]) == 3
    assert toric._complete_simplicial(2, rays, cones) is None
    with pytest.raises(ValueError, match="ray inside another cone"):
        Fan(2, rays, cones)


def _reference_complete_simplicial(dim: int, rays, cones):
    """The wall-and-degree route in one general body over `_dot`: the
    reference for `toric._complete_simplicial`, written out per dimension."""
    if any(len(c) != dim for c in cones):
        return None
    tests, sides = [], {}
    for c in cones:
        m = [rays[i] for i in c]
        cof = toric._cofactor_rows(m)
        det = toric._dot(cof[0], m[0])
        if not det:
            return None
        tests.append((det, cof))
        for i in range(dim):
            sides.setdefault(c[:i] + c[i + 1:], []).append((det > 0) == (i % 2 == 0))
    if any(len(s) != 2 or s[0] == s[1] for s in sides.values()):
        return None
    point = [sum(x) for x in zip(*(rays[i] for i in cones[0]))]
    if any(all(toric._dot(row, point) * det >= 0 for row in cof) for det, cof in tests[1:]):
        return None
    # d independent rays in d dimensions: the gcd of the maximal minors is |D|
    return {c: abs(det) for c, (det, _) in zip(cones, tests)}


# one input per way the route declines a cone set, each failing that check
# alone; the walls in three cones are the rays (1, 0) and (-1, -1) of a
# complete fan with the cone on both added, which misses the covered point
ROUTE_DECLINES = {
    "cone without dim rays": (3, P3.rays, [(0, 1), (0, 1, 2)]),
    "zero determinant": (2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)]),
    "wall in one cone": (2, [(1, 0), (0, 1)], [(0, 1)]),
    "wall in three cones": (2, [(1, 0), (0, 1), (-1, -1), (1, -1)],
                            [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "wall with both cones on one side": (2, ZIGZAG, _cycle(len(ZIGZAG))),
    "point covered twice": (2, DOUBLE_WRAP, _cycle(len(DOUBLE_WRAP))),
}


def _route_declines(d, rays, cones):
    """The checks of the route that the cone set fails, read off the
    reference determinant, `_wall_sides` and `_times_covered`."""
    if any(len(c) != d for c in cones):
        return {"cone without dim rays"}
    if any(not _reference_det([rays[i] for i in c]) for c in cones):
        return {"zero determinant"}
    sides = _wall_sides(rays, cones).values()
    out = {name for name, hit in (
        ("wall in one cone", any(len(s) == 1 for s in sides)),
        ("wall in three cones", any(len(s) > 2 for s in sides)),
        ("wall with both cones on one side", any(len(s) == 2 and s[0] == s[1] for s in sides)),
    ) if hit}
    point = tuple(map(sum, zip(*(rays[i] for i in cones[0]))))
    if not out and _times_covered(rays, cones, point) > 1:
        out.add("point covered twice")
    return out


@pytest.mark.parametrize("name", sorted(ROUTE_DECLINES))
def test_route_decline_examples_reach_their_decline(name):
    case = ROUTE_DECLINES[name]
    assert _route_declines(*case) == {name}
    assert toric._complete_simplicial(*case) is None
    assert _reference_complete_simplicial(*case) is None


@st.composite
def _route_cases(draw):
    """(dim, rays, cones) with entries in -2..2: either any rays, zero and
    repeated ones too, with 1-8 sorted cones of dim rays, the last one
    sometimes of one ray more or less; or a cycle of 2-D rays in angular
    order, wound once or twice, taken in 3-D as the cones of a P^1-bundle
    over it, with the rays lifted to random heights, renumbered and listed
    at random.  A cycle with a gap of a half turn or more declines at a
    determinant or a wall, and one wound twice at the covered point."""
    d = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=8))
        n = len(rays)
        sizes = [min(d, n)] * draw(st.integers(1, 8))
        if draw(st.integers(0, 9)) == 0:
            sizes[-1] = min(draw(st.sampled_from((d - 1, d + 1))), n)
        cones = [draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
                 for k in sizes]
        return d, rays, [tuple(sorted(c)) for c in cones]
    vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(_primitive)
    turns = [sorted(draw(st.lists(vectors, min_size=3, max_size=6, unique=True)),
                    key=lambda v: math.atan2(v[1], v[0]))
             for _ in range(draw(st.integers(1, 2)))]
    base = [v for turn in turns for v in turn]
    rays, cones = base, _cycle(len(base))
    if d == 3:
        n = len(base)
        rays = [(x, y, draw(st.integers(-2, 2))) for x, y in base] + [(0, 0, 1), (0, 0, -1)]
        cones = [c + (pole,) for pole in (n, n + 1) for c in cones]
    rays, cones = _shuffled(draw, SimpleNamespace(rays=rays, maximal_cones=cones))
    return d, rays, [tuple(sorted(c)) for c in cones]


@settings(max_examples=200, deadline=None)
@given(_route_cases())
# each wall of P^3 lies in its two cones at different positions
@example((3, P3.rays, P3.maximal_cones))
def test_complete_simplicial_matches_the_general_reference(case):
    # the route written out per dimension returns what the general body
    # returned: None, or the same {cone: multiplicity}
    assert toric._complete_simplicial(*case) == _reference_complete_simplicial(*case)


def test_route_declines_the_overlapping_cones_file():
    # two 3-D cones that both hold (0, 0, 1) in their interiors, and neither
    # holds a ray of the other; the per-cone checks still accept the file
    with open("tests/data/overlapping_cones.json", encoding="utf-8") as fh:
        data = json.load(fh)
    rays = [tuple(r) for r in data["rays"]]
    cones = [tuple(c) for c in data["cones"]]
    assert toric._complete_simplicial(3, rays, cones) is None
    assert all(_ReferenceCone([rays[i] for i in c], 3).contains((0, 0, 1))
               for c in cones)
    assert not load_fan("tests/data/overlapping_cones.json")._complete


DOUBLE_COVER_CONES = tuple(itertools.combinations(range(4), 3))


def test_double_cover_of_a_cone_is_not_complete():
    # the four triangles on a square cover the cone over it twice and miss
    # (0, 0, -1); no foreign ray lies in a cone, so the per-cone checks
    # accept the file, and every wall lies in two cones, so
    # `_reference_is_complete` calls it complete
    fan = load_fan("tests/data/double_cover_cone.json")
    assert fan.rays == SQUARE and fan.maximal_cones == DOUBLE_COVER_CONES
    assert _times_covered(fan.rays, fan.maximal_cones, (1, 2, 8)) == 2
    assert _times_covered(fan.rays, fan.maximal_cones, (0, 0, -1)) == 0
    assert _reference_is_complete(fan)
    assert not fan_is_complete(fan)


def test_two_double_covers_are_not_complete():
    # the same cones again on z = -1: two components, which
    # `_reference_is_complete` declines too
    rays = SQUARE + tuple((x, y, -z) for x, y, z in SQUARE)
    cones = DOUBLE_COVER_CONES + tuple(tuple(i + 4 for i in c) for c in DOUBLE_COVER_CONES)
    fan = Fan(3, rays, cones)
    assert not _reference_is_complete(fan)
    assert not fan_is_complete(fan)


def test_large_complete_fan_validates_without_cone_tests(monkeypatch, tmp_path, capsys):
    # 4,004 rays in angular order: (1, k) and (-1, k) for |k| <= 1000,
    # (0, 1) and (0, -1), each consecutive pair a smooth cone, where the
    # per-cone checks would test every ray against every cone; and the l014
    # bundle fan in 3-D.  Each is validated from one set of cofactor rows per
    # maximal cone, with no cone test and no facet pass
    rays = ([(1, k) for k in range(-1000, 1001)] + [(0, 1)]
            + [(-1, k) for k in range(1000, -1001, -1)] + [(0, -1)])
    bundle = bundle_14()
    cases = [(2, rays, _cycle(len(rays))), (3, bundle.rays, bundle.maximal_cones)]

    def counted(name):
        real, calls = getattr(toric, name), []

        def wrapper(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(toric, name, wrapper)
        return calls

    built, cofactors, facets = map(counted, ("_Cone", "_cofactor_rows", "_facets"))
    for d, rays, cones in cases:
        cofactors.clear()
        fan = Fan(d, rays, cones)
        assert fan._complete and fan_is_smooth(fan)
        assert len(cofactors) == len(cones)
        path = tmp_path / f"large{d}.json"
        path.write_text(json.dumps(fan.to_dict()))
        assert certify_cli.main(["fan", "check", str(path)]) == 0
        assert "complete: yes" in capsys.readouterr().out.splitlines()
        assert len(cofactors) == 2 * len(cones)
    assert built == [] and facets == []


# ---------------------------------------------------------------------------
# bundle fans
# ---------------------------------------------------------------------------


def test_bundle_fan_l014_rays_and_cones():
    b = bundle_14()
    assert b.rays == ((1, 0, -1), (0, 1, 0), (-1, 3, 0), (0, -1, -1),
                      (0, 0, 1), (0, 0, -1))
    assert len(b.maximal_cones) == 8
    assert fan_is_complete(b) and fan_is_smooth(b)


def test_bundle_fan_l023_first_ray():
    b = bundle_23()
    assert b.rays[0] == (1, 0, -2)
    assert len(b.maximal_cones) == 8
    assert fan_is_complete(b) and fan_is_smooth(b)


def test_bundle_fan_zero_divisor_gives_product():
    b = build_p1_bundle_fan(P2, (0, 0, 0))
    assert all(r[2] == 0 for r in b.rays[:3])
    assert b.rays[3] == (0, 0, 1) and b.rays[4] == (0, 0, -1)
    assert len(b.maximal_cones) == 2 * len(P2.maximal_cones)
    assert fan_is_complete(b)


def test_bundle_fan_cone_count_invariant():
    rng = random.Random("bundle-cones")
    for base in (P2, S14, S23):
        a = tuple(rng.randrange(-2, 3) for _ in base.rays)
        b = build_p1_bundle_fan(base, a)
        assert len(b.maximal_cones) == 2 * len(base.maximal_cones)
        assert fan_is_complete(b)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contract_down_pole_l014():
    contracted = contract_ray(bundle_14(), 5)
    assert len(contracted.maximal_cones) == 5
    assert (0, 1, 2, 3) in contracted.maximal_cones
    assert not contracted.is_simplicial()


def test_contract_up_pole_is_rejected():
    with pytest.raises(ValueError, match="not strongly convex"):
        contract_ray(bundle_14(), 4)


def test_contract_down_pole_l023():
    contracted = contract_ray(bundle_23(), 5)
    assert len(contracted.maximal_cones) == 5


def test_contract_ray_argument_errors():
    with pytest.raises(ValueError, match="3D"):
        contract_ray(P2, 0)
    with pytest.raises(ValueError, match="out of range"):
        contract_ray(bundle_14(), 9)


def test_contract_ray_rejects_a_ray_the_others_do_not_span():
    # every ray lies in some cone, as `Fan` requires, so the star of e1 is
    # the one cone; it is strongly convex, and e2, e3 do not span e1
    fan = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    with pytest.raises(ValueError, match="ray not contractible"):
        contract_ray(fan, 0)


@pytest.mark.parametrize("index", [True, -1, 5.0])
def test_contract_ray_rejects_non_int_or_negative_index(index):
    # True contracted ray 1 and 5.0 ray 5
    with pytest.raises(ValueError, match="ray index"):
        contract_ray(bundle_14(), index)


# ---------------------------------------------------------------------------
# triangulations
# ---------------------------------------------------------------------------


def test_qfactorializations_l014():
    contracted = contract_ray(bundle_14(), 5)
    tris = enumerate_qfactorializations(contracted)
    assert len(tris) == 2
    for fan in tris:
        assert fan.rays == contracted.rays
        assert fan.is_simplicial()
    first, second = tris
    assert any(set(c) == {0, 1, 2} for c in first.maximal_cones)
    assert any(set(c) == {1, 2, 3} for c in second.maximal_cones)


def test_qfactorializations_l014_verdicts():
    contracted = contract_ray(bundle_14(), 5)
    first, second = enumerate_qfactorializations(contracted)
    assert not fan_is_smooth(first)
    split = [c for c in first.maximal_cones if 4 not in c]
    mults = sorted(cone_is_smooth(first, c)[1] for c in split)
    assert mults == [1, 4]
    assert fan_is_smooth(second)


def test_qfactorializations_l023_verdicts():
    contracted = contract_ray(bundle_23(), 5)
    first, second = enumerate_qfactorializations(contracted)
    split = [c for c in first.maximal_cones if 4 not in c]
    assert sorted(cone_is_smooth(first, c)[1] for c in split) == [2, 3]
    assert not fan_is_smooth(first)
    assert fan_is_smooth(second)


def test_qfactorializations_simplicial_identity():
    tris = enumerate_qfactorializations(P3)
    assert len(tris) == 1
    assert tris[0].maximal_cones == P3.maximal_cones


def test_qfactorializations_of_a_surface_fan_are_the_fan():
    assert enumerate_qfactorializations(S14) == [S14]


def test_qfactorializations_desk_scale_limit():
    pentagon = Fan(3, ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
                   ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError, match="beyond desk scale"):
        enumerate_qfactorializations(pentagon)


# ---------------------------------------------------------------------------
# fibration search
# ---------------------------------------------------------------------------


def test_fibration_covectors_for_smooth_triangulations():
    for bundle in (bundle_14(), bundle_23()):
        contracted = contract_ray(bundle, 5)
        _, smooth_tri = enumerate_qfactorializations(contracted)
        assert fibration_to_p1(smooth_tri) == (1, 0, 0)


def test_fibration_none_for_first_triangulation():
    contracted = contract_ray(bundle_14(), 5)
    first, _ = enumerate_qfactorializations(contracted)
    assert fibration_to_p1(first) is None


def test_fibration_none_for_p3():
    assert fibration_to_p1(P3) is None


def test_fibration_halfspace_property():
    contracted = contract_ray(bundle_14(), 5)
    _, smooth_tri = enumerate_qfactorializations(contracted)
    m = fibration_to_p1(smooth_tri)
    for cone in smooth_tri.maximal_cones:
        vals = [sum(a * b for a, b in zip(m, smooth_tri.rays[i])) for i in cone]
        assert all(v >= 0 for v in vals) or all(v <= 0 for v in vals)


def _sign_set_fibration(fan, bound):
    """Reference search: the same candidates in the same order, with the
    signs of the pairings collected per cone, each ray paired anew for
    every cone holding it."""
    values = [0]
    for k in range(1, bound + 1):
        values += [k, -k]
    for m in itertools.product(values, repeat=fan.dim):
        if all(x == 0 for x in m) or math.gcd(*m) != 1:
            continue
        ok = True
        for c in fan.maximal_cones:
            signs = {(toric._dot(m, fan.rays[i]) > 0) - (toric._dot(m, fan.rays[i]) < 0)
                     for i in c}
            if 1 in signs and -1 in signs:
                ok = False
                break
        if ok:
            return tuple(m)
    return None


@st.composite
def _fibration_fans(draw):
    """A Hirzebruch surface or the plane, a chain of blowups, and often a
    P^1-bundle over it with twists in -3..3.  The plane and most twisted
    bundles over it have no fibration covector; a principal twist gives a
    product whose covector (m, 1) may need entries beyond the first bound."""
    base = draw(st.one_of(st.integers(-3, 5).map(hirzebruch_fan), st.just(P2)))
    for _ in range(draw(st.integers(0, 4))):
        base = blow_up_surface(base, draw(st.sampled_from(base.maximal_cones)))
    if draw(st.booleans()):
        return base
    twist = draw(st.lists(st.integers(-3, 3), min_size=len(base.rays),
                          max_size=len(base.rays)))
    if draw(st.booleans()):
        m = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        principal = list(principal_divisor(base, m))
        if all(-3 <= a <= 3 for a in principal):
            twist = principal
    return build_p1_bundle_fan(base, twist)


@settings(max_examples=300, deadline=None)
@given(_fibration_fans())
def test_fibration_matches_sign_set_reference(fan):
    for bound in (1, 2, 3):
        with mock.patch.object(toric, "FIBRATION_BOUND", bound):
            assert fibration_to_p1(fan) == _sign_set_fibration(fan, bound)


def test_fibration_reference_cases_cover_bounds():
    """The generated shapes reach a fan with no covector and one whose
    first covector depends on the bound."""
    assert _sign_set_fibration(build_p1_bundle_fan(P2, (1, 0, 0)), 3) is None
    product = build_p1_bundle_fan(P2, list(principal_divisor(P2, (2, 0))))
    assert _sign_set_fibration(product, 1) is None
    with mock.patch.object(toric, "FIBRATION_BOUND", 2):
        assert _sign_set_fibration(product, 2) == fibration_to_p1(product) == (2, 0, 1)


def _one_cone_pairing(values):
    """A fan-shaped object with one cone whose rays pair with the first 3-D
    candidate, (0, 0, 1), to the given values.  The search reads only dim,
    rays and maximal_cones, so this reaches patterns no valid fan has, such
    as three rays on the candidate's plane."""
    rays = [(1, i, v) for i, v in enumerate(values)]
    return SimpleNamespace(dim=3, rays=rays, maximal_cones=[tuple(range(len(rays)))])


@pytest.mark.parametrize("values", [(0, 1, -1), (1, 0, -1), (1, -1), (-1, 0, 0, 1)], ids=str)
def test_fibration_rejects_a_cone_paired_to_both_signs(values):
    assert fibration_to_p1(_one_cone_pairing(values)) != (0, 0, 1)


@pytest.mark.parametrize("values", [(0, 0, 1), (0, 0, 0), (0, -1, -1), (1, 1, 0)], ids=str)
def test_fibration_accepts_a_one_signed_cone(values):
    assert fibration_to_p1(_one_cone_pairing(values)) == (0, 0, 1)


def test_fibration_candidate_rejected_only_by_the_last_cone_2d():
    """(0, 1) pairs the rays to 0, 1, -1: one-signed on the first two cones
    listed, mixed on the last, so the plane has no covector."""
    plane = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])
    assert plane.maximal_cones[-1] == (1, 2)
    assert fibration_to_p1(plane) is None


def test_fibration_candidate_rejected_only_by_the_last_cone_3d():
    """(0, 0, 1) and (0, 0, -1) are one-signed on the octant and mixed on
    the last cone, on e2, e3 and (-1, 0, -1); (0, 1, 0) is next."""
    fan = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, -1)], [(0, 1, 2), (1, 2, 3)])
    assert fibration_to_p1(fan) == (0, 1, 0)


@st.composite
def _shuffled_fibration_fans(draw):
    """A `_fibration_fans` fan with its rays and its cones listed in a
    drawn order, as the benchmark's fan files list them."""
    fan = draw(_fibration_fans())
    order = draw(st.permutations(range(len(fan.rays))))
    new_index = {old: new for new, old in enumerate(order)}
    cones = draw(st.permutations([[new_index[i] for i in c] for c in fan.maximal_cones]))
    return Fan(fan.dim, [fan.rays[old] for old in order], cones)


@settings(max_examples=200, deadline=None)
@given(_shuffled_fibration_fans())
def test_fibration_matches_sign_set_reference_on_shuffled_fans(fan):
    assert fibration_to_p1(fan) == _sign_set_fibration(fan, toric.FIBRATION_BOUND)


# ---------------------------------------------------------------------------
# fan files
# ---------------------------------------------------------------------------


def test_load_frozen_bundle_fan():
    fan = load_fan("tests/data/bundle_fan_s14.json")
    assert fan.rays == bundle_14().rays
    assert fan.maximal_cones == bundle_14().maximal_cones
    again = fan_from_dict(fan.to_dict())
    assert again.rays == fan.rays and again.maximal_cones == fan.maximal_cones


def test_fan_from_dict_errors():
    with pytest.raises(ValueError, match="missing field 'rays'"):
        fan_from_dict({"dim": 2, "cones": []})
    with pytest.raises(ValueError, match="field 'rays' must be a non-empty list of lists"):
        fan_from_dict({"dim": 2, "rays": [1, 0], "cones": [[0]]})
    with pytest.raises(ValueError, match="field 'cones' must be a non-empty list of lists"):
        fan_from_dict({"dim": 2, "rays": [[1, 0], [0, 1]], "cones": []})
    with pytest.raises(ValueError, match=r"ray not primitive: \[2, 0, 0\]"):
        fan_from_dict({"dim": 3,
                       "rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                       "cones": [[0, 1, 2]]})
    # JSON booleans are Python ints; a fan file may not use them as such
    with pytest.raises(ValueError, match="unsupported dimension"):
        fan_from_dict({"dim": True, "rays": [[1]], "cones": [[0]]})
    with pytest.raises(ValueError, match="cone indices must be integers"):
        fan_from_dict({"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[False, True]]})
    # a repeated index is an error, not a smaller cone
    with pytest.raises(ValueError, match=r"cone lists a ray index twice: \[0, 1, 1\]"):
        fan_from_dict({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                       "cones": [[0, 1, 1], [1, 2], [2, 0]]})


def test_fan_errors_quote_no_long_input():
    # a malformed file's one error line quotes at most a cone's worth of
    # values, however long its rays and cones are
    long_ray = [True] * 10_000
    for data in ({"dim": 2, "rays": [long_ray, [0, 1]], "cones": [[0, 1]]},
                 {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0.5] * 10_000]},
                 {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1] * 5_000]}):
        with pytest.raises(ValueError) as error:
            fan_from_dict(data)
        assert len(str(error.value)) < 80


def test_load_fan_checks_each_ray_once(monkeypatch):
    # the loader leaves the values to Fan, which checks each ray and each
    # cone once, and validation checks none of them again
    calls = []
    exact_ints = toric._exact_ints

    def counted(values, what):
        values = tuple(values)
        calls.append((what, values))
        return exact_ints(values, what)

    monkeypatch.setattr(toric, "_exact_ints", counted)
    fan = load_fan("tests/data/bundle_fan_s14.json")
    assert calls[:len(fan.rays)] == [("ray entries", r) for r in fan.rays]
    assert ([what for what, _ in calls[len(fan.rays):]]
            == ["cone indices"] * len(fan.maximal_cones))
    with pytest.raises(ValueError, match="zero ray"):
        fan_from_dict({"dim": 2, "rays": [[1, 0], [0, 0]], "cones": [[0, 1]]})


def test_validated_fans_are_not_checked_again(monkeypatch):
    # the extremality test calls the cone test directly, and smoothness
    # reads the multiplicities that validation stored
    def forbidden(*args):
        raise AssertionError("a validated fan checked again")

    monkeypatch.setattr(toric, "cone_contains", forbidden)
    monkeypatch.setattr(toric, "_index", forbidden)
    square = Fan(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((0, 1, 2, 3),))
    with pytest.raises(ValueError, match="not simplicial"):
        fan_is_smooth(square)
    singular = Fan(3, ((1, 0, -1), (-1, 3, 0), (0, -1, -1)), ((0, 1, 2),))
    assert fan_is_smooth(bundle_14()) and not fan_is_smooth(singular)


def _reference_normalize_ray(v):
    v = exactcore._exact_ints(v, "ray entries")
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in v)


class _MendingFan(Fan):
    """Fan built by the constructor as it stood when it mended its input:
    each ray divided by its gcd, each cone's indices collapsed by a set."""

    __slots__ = ()

    def __init__(self, dim, rays, maximal_cones):
        if dim not in (2, 3):
            raise ValueError("unsupported dimension")
        rays = tuple(_reference_normalize_ray(r) for r in rays)
        for r in rays:
            if len(r) != dim:
                raise ValueError("ray length does not match dimension")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate ray")
        cones = []
        for c in maximal_cones:
            c = tuple(sorted(set(exactcore._exact_ints(c, "cone indices"))))
            if any(i < 0 or i >= len(rays) for i in c):
                raise ValueError("cone index out of range")
            if len(c) < 2:
                raise ValueError("maximal cone with fewer than two rays")
            cones.append(c)
        self.dim = dim
        self.rays = rays
        self.maximal_cones = tuple(cones)
        self._multiplicity = self._validate()


def _reference_fan_from_dict(data):
    """The file loader as it stood before `Fan` took over its value checks,
    in front of the mending constructor."""
    for field in ("dim", "rays", "cones"):
        if field not in data:
            raise ValueError(f"missing field '{field}'")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError("field 'dim' must be an integer")
    rays = data["rays"]
    if not isinstance(rays, list) or not rays:
        raise ValueError("field 'rays' must be a non-empty list")
    for r in rays:
        if (not isinstance(r, list) or len(r) != dim
                or not all(type(x) is int for x in r)):
            raise ValueError("each ray must be a list of integers of length dim")
        g = math.gcd(*r)
        if g == 0:
            raise ValueError("zero ray")
        if g > 1:
            raise ValueError(f"ray not primitive: {list(r)}")
    cones = data["cones"]
    if not isinstance(cones, list) or not cones:
        raise ValueError("field 'cones' must be a non-empty list")
    for c in cones:
        if not isinstance(c, list) or not all(type(i) is int for i in c):
            raise ValueError("each cone must be a list of ray indices")
        if len(set(c)) != len(c):
            raise ValueError(f"cone lists a ray index twice: {c}")
        if len(c) > toric.MAX_CONE_RAYS:
            raise ValueError(f"cone has {len(c)} rays, more than {toric.MAX_CONE_RAYS}")
    return _MendingFan(dim, rays, cones)


@st.composite
def _fan_dicts(draw):
    """Fan file data: a blown-up surface or a bundle over one, as
    `Fan.to_dict` writes it, then at most one kind of damage."""
    fan = draw(_blowup_chains())
    if draw(st.booleans()):
        n = len(fan.rays)
        fan = build_p1_bundle_fan(fan, draw(st.lists(st.integers(-2, 2),
                                                     min_size=n, max_size=n)))
    data = fan.to_dict()
    rays, cones = data["rays"], data["cones"]
    r = draw(st.integers(0, len(rays) - 1))
    c = draw(st.integers(0, len(cones) - 1))
    kind = draw(st.sampled_from(("valid", "non-primitive", "repeat", "bool", "length",
                                 "zero", "wide", "non-list", "dim")))
    if kind == "non-primitive":
        rays[r] = [draw(st.integers(2, 3)) * x for x in rays[r]]
    elif kind == "repeat":
        cones[c].append(draw(st.sampled_from(cones[c])))
    elif kind == "bool":
        # a 0 or 1 of a ray or a cone written as false or true
        target = draw(st.sampled_from((rays[r], cones[c])))
        spots = [i for i, x in enumerate(target) if x in (0, 1)]
        if spots:
            i = draw(st.sampled_from(spots))
            target[i] = bool(target[i])
    elif kind == "length":
        if draw(st.booleans()):
            rays[r].append(draw(st.integers(-1, 1)))
        else:
            rays[r].pop()
    elif kind == "zero":
        rays[r] = [0] * len(rays[r])
    elif kind == "wide":
        # nine distinct indices, in range when the fan has nine rays
        cones[c] = list(range(9))
    elif kind == "non-list":
        junk = draw(st.sampled_from((0, "01", None, {"0": 1}, [], True)))
        where = draw(st.sampled_from(("ray", "cone", "rays", "cones")))
        if where == "ray":
            rays[r] = junk
        elif where == "cone":
            cones[c] = junk
        else:
            data[where] = junk
    elif kind == "dim":
        data["dim"] = draw(st.sampled_from((True, False, 2.0, 3.0)))
    return data


def _load_outcome(load, data):
    try:
        fan = load(data)
    except ValueError:
        return "rejected"
    return fan.dim, fan.rays, fan.maximal_cones, fan._multiplicity


@settings(max_examples=300, deadline=None)
@given(_fan_dicts())
def test_fan_from_dict_matches_reference_loader(data):
    # the same fans are accepted and built alike; any TypeError escapes
    # and fails the test
    assert _load_outcome(fan_from_dict, data) == _load_outcome(_reference_fan_from_dict, data)


def test_load_fan_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"dim\": 2,\n")
    with pytest.raises(ValueError, match="line"):
        load_fan(str(bad))


def test_p2_data_file_matches_builtin():
    fan = load_fan("tests/data/p2.json")
    assert fan.rays == P2.rays
    assert fan.maximal_cones == P2.maximal_cones
