"""Exact lattice and rational polytope geometry in any ambient dimension.

Everything runs over exact integers and Fractions: convex hulls by
beneath-beyond insertion (Edelsbrunner, Algorithms in Combinatorial
Geometry) on integer points over one scale (ints as they are, a dual's
points over the lcm of its offsets' numerators), with hyperplane normals
from integer cofactors and vertices by the rank of the facet normals through
a boundary point, volumes by coning the hull's boundary triangulation from
a vertex, Ehrhart counts by integer intervals of the last coordinate along
rows of the next-to-last.
Numerical hull libraries are avoided deliberately; a vertex reported at
(1/3, 1/3, 1/3) has to mean exactly that.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul, sub

from ._frozen import frozen
from .laurent import LaurentPolynomial
from .linalg import det, echelon, nullspace, rank

Coord = Fraction | int
Point = tuple[Coord, ...]
Facet = tuple[tuple[int, ...], Fraction]  # halfspace <normal, x> <= offset
IntPoint = tuple[int, ...]
Halfspace = tuple[Sequence[int], int]  # <normal, x> <= offset in integers

# Beneath-beyond creates faces without bound on hostile input: a cyclic
# polytope on N points in dimension n has on the order of N^(n/2) facets.
# The ladder polynomials of the constructors, up to G(3,7) in 12 variables,
# and their duals stay below this.
MAX_HULL_FACES = 5_000

# Most bounding-box points ehrhart_counts may scan, summed over the
# dilations k = 1..kmax and checked before anything is counted.
MAX_EHRHART_POINTS = 10**8


@frozen
class Polytope:
    """Convex polytope with exact vertices and facet halfspaces.

    vertices are hull-reduced (every listed point is extreme).  facets are
    pairs (normal, offset) describing <normal, x> <= offset with primitive
    integer normals; the facet list is populated only when the polytope is
    full-dimensional in its ambient space.
    """

    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]
    # (scale, boundary simplices of the hull that built the polytope, in
    # coordinates times scale), kept for the volume; None when no hull built
    # it.  Equality, hashing, repr() and JSON ignore it.
    _boundary: tuple[int, tuple[tuple[IntPoint, ...], ...]] | None = None

    @property
    def is_full_dimensional(self) -> bool:
        return bool(self.facets)

    @property
    def denominator(self) -> int:
        """The lcm of the vertex denominators: 1 exactly for a lattice polytope."""
        return math.lcm(*(c.denominator for v in self.vertices for c in v))

    @property
    def is_lattice(self) -> bool:
        return self.denominator == 1

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "facets": [
                {"normal": [int(c) for c in normal], "offset": str(offset)}
                for normal, offset in self.facets
            ],
        }


@frozen
class SemiweakReport:
    """Result of the dual-volume test against the anticanonical degree."""

    ok: bool
    origin_interior: bool
    expected: int
    dual_volume: Fraction | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        out: dict = {
            "ok": self.ok,
            "origin_interior": self.origin_interior,
            "expected": self.expected,
        }
        if self.dual_volume is not None:
            out["dual_volume"] = str(self.dual_volume)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@frozen
class EhrhartResult:
    """Lattice point counts of dilations plus the interpolating polynomial."""

    counts: tuple[int, ...]
    polynomial: tuple[Fraction, ...]  # ascending coefficients, degree <= dim


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _unscaled(point: IntPoint, scale: int) -> Point:
    """The point divided by scale, each coordinate an int where it is integral."""
    return tuple(c // scale if c % scale == 0 else Fraction(c, scale) for c in point)


def _differences(points: Sequence[IntPoint], base: IntPoint) -> list[list[int]]:
    return [[a - b for a, b in zip(p, base)] for p in points]


def _hull(points: list[IntPoint]) -> tuple[dict[tuple[int, ...], Halfspace], list[Halfspace]] | None:
    """Boundary of the hull of distinct integer points by beneath-beyond
    insertion, or None when the start simplex search shows they do not span.

    Returns the faces, n-tuples of point indices triangulating the boundary,
    each with an outward (normal, offset), and the facets: the faces'
    hyperplanes merged by primitive normal, sorted, with integer offsets.
    A point strictly beyond some faces replaces them by the cone from the
    point over their horizon: the ridges that lie in exactly one of the
    replaced faces.  A point on a face's hyperplane is never beyond it, so
    the faces stay a triangulation of the boundary.  At most MAX_HULL_FACES
    faces are created.  Normals are made primitive only where faces merge.
    """
    n = len(points[0])
    # farthest from the centroid first: the farthest point is a vertex, and
    # points inside the hull of the vertices inserted so far create no faces
    m = len(points)
    total = [sum(c) for c in zip(*points)]
    order = sorted(range(m), key=lambda i: -sum((m * c - t) ** 2 for c, t in zip(points[i], total)))
    simplex = order[:1]
    for i in order[1:]:
        if rank(_differences([points[j] for j in simplex[1:]] + [points[i]], points[simplex[0]])) == len(simplex):
            simplex.append(i)
            if len(simplex) == n + 1:
                break
    else:
        return None
    # (n+1) times the simplex centroid, strictly inside every hull built from
    # the start simplex onwards
    inside = [sum(c) for c in zip(*(points[i] for i in simplex))]

    faces: dict[tuple[int, ...], Halfspace] = {}
    created = 0

    def add_face(face: tuple[int, ...]) -> None:
        nonlocal created
        created += 1
        if created > MAX_HULL_FACES:
            raise ValueError(f"convex hull needs more than {MAX_HULL_FACES} boundary faces (the limit)")
        # the face's n points are affinely independent, so the nullspace of
        # their differences is a line, spanned by their integer cofactors
        (normal,) = nullspace(_differences([points[i] for i in face[1:]], points[face[0]]), n)
        offset = _dot(normal, points[face[0]])
        if _dot(normal, inside) > (n + 1) * offset:
            normal, offset = [-c for c in normal], -offset
        faces[face] = (normal, offset)

    # faces and ridges are sorted index tuples, so a shared ridge matches
    for face in combinations(sorted(simplex), n):
        add_face(face)
    in_simplex = set(simplex)
    for q in order:
        if q in in_simplex:
            continue
        point = points[q]
        visible = [face for face, (normal, offset) in faces.items() if _dot(normal, point) > offset]
        ridges: dict[tuple[int, ...], int] = {}
        for face in visible:
            del faces[face]
            for ridge in combinations(face, n - 1):
                ridges[ridge] = ridges.get(ridge, 0) + 1
        for ridge, seen in ridges.items():
            if seen == 1:
                add_face(tuple(sorted(ridge + (q,))))

    facets = set()
    for normal, offset in faces.values():
        g = math.gcd(*normal)
        facets.add((tuple(c // g for c in normal), offset // g))
    return faces, sorted(facets)


def from_points(points: Sequence[Sequence[Coord]]) -> Polytope:
    """Convex hull of finitely many exact points in any ambient dimension.

    Points of ints are hulled as they are; otherwise each coordinate not an
    int (a Fraction, a float, a bool) is made an exact Fraction and the
    points are scaled to integers by the lcm of the denominators.  The
    hull's start simplex search keeps each point, farthest first, that is
    affinely independent of those kept, so it keeps n+1 exactly when the
    points span.  If they do not, they are projected onto the pivot columns
    of their difference matrix, where they span and the projection is
    injective, hulled there and lifted back.  Only points of the final
    boundary triangulation are tested as vertices: a vertex of the set is
    beyond some face when it is inserted, and a vertex of the hull so far is
    a corner of each boundary simplex that holds it.  A point is a vertex
    when the normals of the facets through it have rank d, the dimension it
    is hulled in: the smallest face that holds it is the intersection of
    those facets, of dimension d minus that rank.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimension")
    if all(type(c) is int for p in pts for c in p):
        return _polytope(pts, 1)
    exact = [[c if type(c) is int else Fraction(c) for c in p] for p in pts]
    scale = math.lcm(*(c.denominator for p in exact for c in p))
    return _polytope([tuple(int(c * scale) for c in p) for p in exact], scale)


def _polytope(points: list[IntPoint], scale: int) -> Polytope:
    """The hull of `from_points` of the integer points divided by scale."""
    ints = sorted(set(points))
    n = len(ints[0])
    if len(ints) == 1:
        return Polytope(dim=n, vertices=(_unscaled(ints[0], scale),), facets=())
    hulled, hull = ints, _hull(ints)
    if hull is None:
        pivots = echelon(_differences(ints[1:], ints[0]))[1]
        hulled = [tuple(p[c] for c in pivots) for p in ints]
        hull = _hull(hulled)
    faces, facets = hull
    d = len(hulled[0])
    vertices = tuple(
        _unscaled(ints[i], scale) for i in sorted({i for face in faces for i in face})
        if rank([normal for normal, offset in facets if _dot(normal, hulled[i]) == offset]) == d
    )
    if d < n:
        # the projection's facets bound nothing in the ambient space
        return Polytope(dim=n, vertices=vertices, facets=())
    facets = tuple((normal, Fraction(offset, scale)) for normal, offset in facets)
    boundary = tuple(tuple(ints[i] for i in face) for face in faces)
    return Polytope(dim=n, vertices=vertices, facets=facets, _boundary=(scale, boundary))


@lru_cache(maxsize=128)
def newton_polytope(f: LaurentPolynomial) -> Polytope:
    """Convex hull of the exponent vectors of f."""
    if not f:
        raise ValueError("the zero polynomial has no Newton polytope")
    return from_points(f.support())


def contains_origin_interior(p: Polytope) -> bool:
    """True iff p is full-dimensional and the origin is strictly inside."""
    if not p.is_full_dimensional:
        return False
    return all(offset > 0 for _, offset in p.facets)


def dual_polytope(p: Polytope) -> Polytope:
    """Polar dual {y : <y, v> >= -1 for every vertex v of p}.

    Needs the origin strictly inside p; then every facet <normal, x> <= offset
    of p gives the dual vertex -normal/offset, and the dual is their hull as
    `from_points` builds it, with no Fraction per coordinate: for offsets
    num/den and L the lcm of the numerators, -normal/offset is the integer
    point -normal*den*(L/num) divided by L.
    """
    if not contains_origin_interior(p):
        raise ValueError("dual polytope needs the origin strictly inside a full-dimensional polytope")
    ratios = [offset.as_integer_ratio() for _, offset in p.facets]
    scale = math.lcm(*(num for num, _ in ratios))
    points = [tuple(-c * den * (scale // num) for c in normal) for (normal, _), (num, den) in zip(p.facets, ratios)]
    return _polytope(points, scale)


def normalized_volume(p: Polytope) -> Fraction:
    """n! times the Euclidean volume, computed exactly.

    The boundary triangulation of the hull that built p is coned from one of
    its points: each boundary simplex contributes |det| of its vertices minus
    the apex, in the integer coordinates the hull runs in, divided by
    scale^n.  A polytope built by hand is hulled from its vertices first.
    The polytope must be full-dimensional.  Volumes are taken with respect
    to the standard lattice Z^n, so a lattice polytope always yields a
    nonnegative integer value.
    """
    if not p.is_full_dimensional:
        raise ValueError("normalized volume needs a full-dimensional polytope")
    scale, boundary = p._boundary or from_points(p.vertices)._boundary
    apex = boundary[0][0]
    total = sum(abs(det(_differences(simplex, apex))) for simplex in boundary if apex not in simplex)
    return Fraction(total, scale ** p.dim)


def ehrhart_counts(p: Polytope, kmax: int) -> EhrhartResult:
    """Lattice point counts of k*p for k = 0..kmax, plus the degree-<=n
    polynomial interpolating the first n+1 counts.

    Counting is exact and goes by rows.  A row is the segment of integer
    points of the bounding box of k*p that fixes the first n-2 coordinates
    and runs along coordinate n-2; a 1-D polytope is counted with a zero
    coordinate put in front.  The facets parallel to the last coordinate,
    and the combinations of two others that eliminate it (Fourier-Motzkin),
    cut the row to the integer points of the shadow of k*p.  Every other
    facet bounds the last coordinate from above or below along the row,
    one list of floors or ceilings per facet, folded into the least upper
    and the greatest lower bounds; the row adds the lengths of the integer
    intervals between them, none negative on the shadow.  MAX_EHRHART_POINTS
    bounds the total number of bounding-box points over all dilations
    k = 1..kmax; it is checked before anything is counted.
    """
    if not p.is_full_dimensional:
        raise ValueError("Ehrhart counting needs a full-dimensional polytope")
    n = p.dim
    if kmax < n:
        raise ValueError(f"kmax must be at least the dimension ({n})")
    # per coordinate, the least and the greatest vertex coordinate as
    # lo/lo_den and hi/hi_den: k*p spans ceil(k*lo/lo_den) .. floor(k*hi/hi_den)
    bounds = [(*min(c).as_integer_ratio(), *max(c).as_integer_ratio()) for c in zip(*p.vertices)]
    boxes = []
    total = 0
    for k in range(1, kmax + 1):
        box = [range(-(-k * lo // lo_den), k * hi // hi_den + 1) for lo, lo_den, hi, hi_den in bounds]
        total += math.prod(len(r) for r in box)
        if total > MAX_EHRHART_POINTS:
            raise ValueError(
                f"Ehrhart counts for k = 1..{kmax} need at least {total} box points"
                f" in total, over the budget of {MAX_EHRHART_POINTS}"
            )
        boxes.append(box)
    # integer facet form: den * <normal, x> <= k * num.  A 1-D polytope gets
    # a zero coordinate in front, so that there is a row coordinate y, next
    # to last, and a last coordinate z.  Times den, a facet reads
    # <head, x> + b * y + a * z <= k * num over the coordinates x before y.
    # It is a wall of the row if a = 0, a roof over z if a > 0 and a floor
    # under z if a < 0.  A bounded p has a roof and a floor.
    pad = (0,) * max(0, 2 - n)
    walls, roofs, floors = [], [], []
    for normal, offset in p.facets:
        num, den = Fraction(offset).as_integer_ratio()
        *head, b, a = (den * c for c in (*pad, *normal))
        (walls if a == 0 else roofs if a > 0 else floors).append((head, b, a, num))
    # A roof and a floor, times -a_floor and a_roof and added, give a wall
    # free of z (Fourier-Motzkin elimination).  With these walls the row is
    # cut to the rational shadow of k*p, where no roof lies below a floor,
    # so no z-interval of the row has negative integer length and the box
    # need not bound z.
    walls += [
        ([-af * cr + ar * cf for cr, cf in zip(hr, hf)], -af * br + ar * bf, 0, -af * nr + ar * nf)
        for hr, br, ar, nr in roofs
        for hf, bf, af, nf in floors
    ]
    counts = [1]
    for k, box in enumerate(boxes, start=1):
        *prefix, y_range, _ = [range(1)] * len(pad) + box
        # rests[i] = k * num - <head, x> at the i-th prefix point x
        k_walls = [(_rests(k * num, head, prefix), b) for head, b, _, num in walls]
        roof, *k_roofs = [(_rests(k * num, head, prefix), b, a) for head, b, a, num in roofs]
        floor, *k_floors = [(_rests(k * num, head, prefix), b, -a) for head, b, a, num in floors]
        count = 0
        for i in range(math.prod(map(len, prefix))):
            y_lo, y_hi = y_range.start, y_range.stop - 1
            for rests, b in k_walls:
                if b > 0:
                    u = rests[i] // b
                    if u < y_hi:
                        y_hi = u
                elif b < 0:
                    u = -(rests[i] // -b)
                    if u > y_lo:
                        y_lo = u
                elif rests[i] < 0:
                    y_hi = y_lo - 1
            if y_hi < y_lo:
                continue
            row = range(y_lo, y_hi + 1)
            # z <= floor(rest_y / a) under a roof and z >= ceil(rest_y / a)
            # over a floor, where rest_y = k * num - <head, x> - b * y: one
            # list along the row for the first roof (floor), and each further
            # one folded into the least upper (greatest lower) bounds so far
            rests, b, a = roof
            rest = rests[i]
            top = [(rest - b * y) // a for y in row]
            for rests, b, a in k_roofs:
                rest = rests[i]
                top = [t if t <= (u := (rest - b * y) // a) else u for t, y in zip(top, row)]
            rests, b, minus_a = floor
            rest = rests[i]
            bottom = [-((rest - b * y) // minus_a) for y in row]
            for rests, b, minus_a in k_floors:
                rest = rests[i]
                bottom = [t if t >= (u := -((rest - b * y) // minus_a)) else u for t, y in zip(bottom, row)]
            count += len(row) + sum(map(sub, top, bottom))
        counts.append(count)
    # the polynomial's coefficients c solve sum_d c_d k^d = counts[k] for
    # k = 0..n; that Vandermonde system, augmented by -counts, has a
    # one-dimensional nullspace
    vandermonde = [[k**d for d in range(n + 1)] + [-counts[k]] for k in range(n + 1)]
    (solution,) = nullspace(vandermonde, n + 2)
    poly = tuple(Fraction(c, solution[-1]) for c in solution[:-1])
    return EhrhartResult(counts=tuple(counts), polynomial=poly)


def _rests(bound: int, head: Sequence[int], axes: Sequence[range]) -> list[int]:
    """bound - <head, x> for every point x of the grid product(*axes), in
    the order product yields them."""
    rests = [bound]
    for h, axis in zip(head, axes):
        rests = [r - h * v for r in rests for v in axis]
    return rests


def semiweak_check(f: LaurentPolynomial, expected_degree: int) -> SemiweakReport:
    """Test whether the dual of the Newton polytope of f has normalized
    volume equal to the expected anticanonical degree."""
    newt = newton_polytope(f)
    if not contains_origin_interior(newt):
        return SemiweakReport(ok=False, origin_interior=False, expected=expected_degree, reason=(
            "origin is not interior to the newton polytope" if newt.is_full_dimensional
            else "newton polytope is not full-dimensional"))
    volume = normalized_volume(dual_polytope(newt))
    ok = volume == expected_degree
    return SemiweakReport(
        ok=ok, origin_interior=True, expected=expected_degree, dual_volume=volume,
        reason=None if ok else f"dual volume {volume} differs from degree {expected_degree}",
    )
