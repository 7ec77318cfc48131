"""Exact lattice and rational polytope geometry in ambient dimension <= 3.

Everything runs over exact integers and Fractions: convex hulls by
beneath-beyond insertion (Edelsbrunner, Algorithms in Combinatorial
Geometry), dual polytopes read off the facets, volumes by fan triangulation
from an interior point, Ehrhart counts by integer intervals of the last
coordinate over the columns of the other coordinates.
Numerical hull libraries are avoided deliberately; a vertex reported at
(1/3, 1/3, 1/3) has to mean exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations, product
from typing import Sequence

from .laurent import LaurentPolynomial

Coord = Fraction | int
Point = tuple[Coord, ...]
Facet = tuple[tuple[int, ...], Fraction]  # halfspace <normal, x> <= offset


@dataclass(frozen=True)
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

    @property
    def is_full_dimensional(self) -> bool:
        return bool(self.facets)

    @property
    def is_lattice(self) -> bool:
        return all(all(isinstance(c, int) or c.denominator == 1 for c in v) for v in self.vertices)

    def contains(self, point: Sequence[Coord]) -> bool:
        if not self.facets:
            raise ValueError("membership test needs a full-dimensional polytope")
        return all(_dot(normal, point) <= offset for normal, offset in self.facets)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[_coord_str(c) for c in v] for v in self.vertices],
            "facets": [
                {"normal": [int(c) for c in normal], "offset": _coord_str(offset)}
                for normal, offset in self.facets
            ],
        }


@dataclass(frozen=True)
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
            out["dual_volume"] = _coord_str(self.dual_volume)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class EhrhartResult:
    """Lattice point counts of dilations plus the interpolating polynomial."""

    counts: tuple[int, ...]
    polynomial: tuple[Fraction, ...]  # ascending coefficients, degree <= dim


def _coord_str(c: Coord) -> str:
    return str(c)


def _dot(a: Sequence[Coord], b: Sequence[Coord]) -> Coord:
    return sum(x * y for x, y in zip(a, b))


def _canon(c: Fraction) -> Coord:
    return int(c) if c.denominator == 1 else c


def _primitive(vec: Sequence[Coord]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    fracs = [Fraction(c) for c in vec]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*(abs(i) for i in ints))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(i // g for i in ints)


def _cross(u: Sequence[Coord], v: Sequence[Coord]) -> tuple[Coord, Coord, Coord]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _affine_rank(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[Fraction(p[i] - base[i]) for i in range(len(base))] for p in points[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


def _hyperplane_normal(face: Sequence[Point]) -> tuple[Coord, ...]:
    """A normal of the hyperplane through n points in dimension n = 2 or 3."""
    base = face[0]
    u = tuple(b - a for a, b in zip(base, face[1]))
    if len(base) == 2:
        return (u[1], -u[0])
    return _cross(u, tuple(b - a for a, b in zip(base, face[2])))


def _full_dim_hull(points: list[Point], n: int) -> tuple[tuple[Point, ...], tuple[Facet, ...]]:
    """Hull of a full-dimensional point set by beneath-beyond insertion.

    The boundary is kept as faces, each an n-tuple of point indices with an
    outward hyperplane.  A point strictly beyond some faces replaces them by
    the cone from the point over their horizon: the ridges that lie in
    exactly one of the replaced faces.  A point on a face's hyperplane is
    never beyond it, so the faces stay a triangulation of the boundary and
    the facets are their hyperplanes, merged by primitive normal.
    """
    if n == 1:
        lo = min(points)[0]
        hi = max(points)[0]
        vertices = ((_canon(Fraction(lo)),), (_canon(Fraction(hi)),))
        facets = (((1,), Fraction(hi)), ((-1,), Fraction(-lo)))
        return vertices, facets

    simplex = [0]
    for i in range(1, len(points)):
        if _affine_rank([points[j] for j in simplex] + [points[i]]) == len(simplex):
            simplex.append(i)
            if len(simplex) == n + 1:
                break
    # strictly inside every hull built from the start simplex onwards
    inside = tuple(sum(Fraction(points[i][c]) for i in simplex) / (n + 1) for c in range(n))

    faces: dict[tuple[int, ...], tuple[tuple[Coord, ...], Coord]] = {}

    def add_face(face: tuple[int, ...]) -> None:
        normal = _hyperplane_normal([points[i] for i in face])
        offset = _dot(normal, points[face[0]])
        if _dot(normal, inside) > offset:
            normal, offset = tuple(-c for c in normal), -offset
        faces[face] = (normal, offset)

    for face in combinations(simplex, n):
        add_face(face)
    in_simplex = set(simplex)
    for q, point in enumerate(points):
        if q in in_simplex:
            continue
        visible = [face for face, (normal, offset) in faces.items() if _dot(normal, point) > offset]
        ridges: dict[tuple[int, ...], int] = {}
        for face in visible:
            del faces[face]
            for ridge in combinations(face, n - 1):
                ridges[ridge] = ridges.get(ridge, 0) + 1
        for ridge, seen in ridges.items():
            if seen == 1:
                add_face(tuple(sorted(ridge + (q,))))

    facet_set = set()
    for face, (normal, _) in faces.items():
        prim = _primitive(normal)
        facet_set.add((prim, Fraction(_dot(prim, points[face[0]]))))
    facet_list = sorted(facet_set)
    vertices = []
    for p in points:
        incident = sum(1 for normal, offset in facet_list if _dot(normal, p) == offset)
        if incident >= n:
            vertices.append(tuple(_canon(Fraction(c)) for c in p))
    return tuple(sorted(vertices)), tuple(facet_list)


def _extreme_points_low_rank(points: list[Point], n: int, rank: int) -> tuple[Point, ...]:
    """Extreme points of a point set of affine dimension rank < n."""
    if rank == 0:
        return (tuple(_canon(Fraction(c)) for c in points[0]),)
    base = points[0]
    if rank == 1:
        direction = None
        for p in points[1:]:
            d = tuple(Fraction(a - b) for a, b in zip(p, base))
            if any(c != 0 for c in d):
                direction = d
                break
        axis = next(i for i, c in enumerate(direction) if c != 0)
        params = [(Fraction(p[axis] - base[axis]) / direction[axis], p) for p in points]
        lo = min(params, key=lambda t: t[0])[1]
        hi = max(params, key=lambda t: t[0])[1]
        out = {tuple(_canon(Fraction(c)) for c in lo), tuple(_canon(Fraction(c)) for c in hi)}
        return tuple(sorted(out))
    # rank 2 inside ambient dimension 3: project out a coordinate the plane
    # normal sees, take the planar hull, and lift the chosen points back.
    diffs = [tuple(Fraction(a - b) for a, b in zip(p, base)) for p in points[1:]]
    normal = None
    for u, v in combinations(diffs, 2):
        c = _cross(u, v)
        if any(x != 0 for x in c):
            normal = c
            break
    drop = next(i for i, c in enumerate(normal) if c != 0)
    shadow = [tuple(c for i, c in enumerate(p) if i != drop) for p in points]
    verts2d, _ = _full_dim_hull(shadow, 2)
    chosen = set(verts2d)
    out = sorted(
        {
            tuple(_canon(Fraction(c)) for c in p)
            for p, s in zip(points, shadow)
            if tuple(_canon(Fraction(c)) for c in s) in chosen
        }
    )
    return tuple(out)


def from_points(points: Sequence[Sequence[Coord]], dim: int | None = None) -> Polytope:
    """Convex hull of finitely many exact points (ambient dimension <= 3)."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    n = dim if dim is not None else len(pts[0])
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if n > 3:
        raise ValueError("ambient dimension above 3 is not supported")
    if any(len(p) != n for p in pts):
        raise ValueError("points have inconsistent dimension")
    pts = sorted(set(pts))
    rank = _affine_rank(pts)
    if rank < n:
        vertices = _extreme_points_low_rank(pts, n, rank)
        return Polytope(dim=n, vertices=vertices, facets=())
    vertices, facets = _full_dim_hull(pts, n)
    return Polytope(dim=n, vertices=vertices, facets=facets)


@lru_cache(maxsize=128)
def newton_polytope(f: LaurentPolynomial) -> Polytope:
    """Convex hull of the exponent vectors of f."""
    if not f:
        raise ValueError("the zero polynomial has no Newton polytope")
    return from_points(f.support(), f.nvars)


def contains_origin_interior(p: Polytope) -> bool:
    """True iff p is full-dimensional and the origin is strictly inside."""
    if not p.is_full_dimensional:
        return False
    return all(offset > 0 for _, offset in p.facets)


def dual_polytope(p: Polytope) -> Polytope:
    """Polar dual {y : <y, v> >= -1 for every vertex v of p}.

    Needs the origin strictly inside p; then duality is exact and involutive:
    every vertex of p contributes one facet of the dual, and every facet
    <normal, x> <= offset of p contributes the dual vertex -normal/offset.
    """
    if not contains_origin_interior(p):
        raise ValueError("dual polytope needs the origin strictly inside a full-dimensional polytope")
    n = p.dim
    dual_vertices = sorted(
        tuple(_canon(-Fraction(c) / offset) for c in normal) for normal, offset in p.facets
    )
    verts = [tuple(Fraction(c) for c in v) for v in p.vertices]
    facets = []
    for v in verts:
        prim = _primitive(tuple(-c for c in v))
        # <-v, y> <= 1 scaled by the positive factor that made -v primitive
        scale = next(pc / (-vc) for pc, vc in zip(prim, v) if vc != 0)
        facets.append((prim, Fraction(scale)))
    return Polytope(dim=n, vertices=tuple(dual_vertices), facets=tuple(sorted(facets)))


def _facet_vertices(p: Polytope, facet: Facet) -> list[tuple[Fraction, ...]]:
    normal, offset = facet
    return [
        tuple(Fraction(c) for c in v)
        for v in p.vertices
        if _dot(normal, v) == offset
    ]


def _fan_triangles(face: list[tuple[Fraction, ...]], normal: Sequence[int]) -> list[tuple]:
    """Triangulate a convex facet polygon by fanning from its first vertex.

    Vertices are angularly sorted around the facet centroid first; the sort
    is exact (half-plane split plus cross-product comparisons).
    """
    m = len(face)
    centroid = tuple(sum(v[i] for v in face) / m for i in range(3))
    u = tuple(a - b for a, b in zip(face[0], centroid))
    w = _cross(normal, u)

    def planar(pnt: tuple[Fraction, ...]) -> tuple[Fraction, Fraction]:
        d = tuple(a - b for a, b in zip(pnt, centroid))
        return _dot(d, u), _dot(d, w)

    coords = {v: planar(v) for v in face}

    def half(v) -> int:
        alpha, beta = coords[v]
        return 0 if (beta > 0 or (beta == 0 and alpha > 0)) else 1

    def compare(a, b) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        aa, ab = coords[a]
        ba, bb = coords[b]
        cross = aa * bb - ab * ba
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    ring = sorted(face, key=cmp_to_key(compare))
    return [(ring[0], ring[i], ring[i + 1]) for i in range(1, m - 1)]


def normalized_volume(p: Polytope) -> Fraction:
    """n! times the Euclidean volume, computed exactly by a facet fan.

    The polytope must be full-dimensional.  Volumes are taken with respect
    to the standard lattice Z^n, so a lattice polytope always yields a
    nonnegative integer value.
    """
    if not p.is_full_dimensional:
        raise ValueError("normalized volume needs a full-dimensional polytope")
    n = p.dim
    verts = [tuple(Fraction(c) for c in v) for v in p.vertices]
    if n == 1:
        return Fraction(max(verts)[0] - min(verts)[0])
    centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(n))
    total = Fraction(0)
    for facet in p.facets:
        face = _facet_vertices(p, facet)
        if n == 2:
            a, b = face
            d1 = (a[0] - centroid[0], a[1] - centroid[1])
            d2 = (b[0] - centroid[0], b[1] - centroid[1])
            total += abs(d1[0] * d2[1] - d1[1] * d2[0])
        else:
            for t0, t1, t2 in _fan_triangles(face, facet[0]):
                d1 = tuple(a - b for a, b in zip(t0, centroid))
                d2 = tuple(a - b for a, b in zip(t1, centroid))
                d3 = tuple(a - b for a, b in zip(t2, centroid))
                det = _dot(d1, _cross(d2, d3))
                total += abs(det)
    return total


def _interpolate(values: Sequence[int]) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the polynomial through (i, values[i])."""
    m = len(values)
    coeffs = [Fraction(0)] * m
    for j in range(m):
        basis = [Fraction(1)]
        for i in range(m):
            if i == j:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] += c
                nxt[d] -= c * i
            basis = nxt
        denom = 1
        for i in range(m):
            if i != j:
                denom *= j - i
        scale = Fraction(values[j], denom)
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return tuple(coeffs)


def ehrhart_counts(p: Polytope, kmax: int, budget: int = 10**8) -> EhrhartResult:
    """Lattice point counts of k*p for k = 0..kmax, plus the degree-<=n
    polynomial interpolating the first n+1 counts.

    Counting is exact and goes by columns: for each integer point of the
    bounding box of k*p in the first n-1 coordinates, every facet cuts the
    box's range of the last coordinate to an integer interval, whose length
    is added.  `budget` bounds the total number of bounding-box points over
    all dilations k = 1..kmax; it is checked before anything is counted.
    """
    if not p.is_full_dimensional:
        raise ValueError("Ehrhart counting needs a full-dimensional polytope")
    n = p.dim
    if kmax < n:
        raise ValueError(f"kmax must be at least the dimension ({n})")
    bounds = [
        (min(Fraction(v[c]) for v in p.vertices), max(Fraction(v[c]) for v in p.vertices))
        for c in range(n)
    ]
    boxes = []
    total = 0
    for k in range(1, kmax + 1):
        box = [range(math.ceil(lo * k), math.floor(hi * k) + 1) for lo, hi in bounds]
        total += math.prod(len(r) for r in box)
        if total > budget:
            raise ValueError(
                f"Ehrhart counts for k = 1..{kmax} need at least {total} box points"
                f" in total, over the budget of {budget}"
            )
        boxes.append(box)
    # integer facet form: den * <normal, x> <= k * num, split as the first
    # n-1 coordinates plus a * z for the last one
    facet_ints = [
        (normal[:-1], normal[-1], Fraction(offset).numerator, Fraction(offset).denominator)
        for normal, offset in p.facets
    ]
    counts = [1]
    for k, box in enumerate(boxes, start=1):
        z_range = box[-1]
        count = 0
        for x in product(*box[:-1]):
            zlo, zhi = z_range.start, z_range.stop - 1
            for head, a, num, den in facet_ints:
                rest = k * num - den * _dot(head, x)
                if a > 0:
                    zhi = min(zhi, rest // (den * a))
                elif a < 0:
                    zlo = max(zlo, -(rest // (-den * a)))
                elif rest < 0:
                    zhi = zlo - 1
                    break
            if zhi >= zlo:
                count += zhi - zlo + 1
        counts.append(count)
    poly = _interpolate(counts[: n + 1])
    return EhrhartResult(counts=tuple(counts), polynomial=poly)


def semiweak_check(f: LaurentPolynomial, expected_degree: int) -> SemiweakReport:
    """Test whether the dual of the Newton polytope of f has normalized
    volume equal to the expected anticanonical degree."""
    newt = newton_polytope(f)
    if not newt.is_full_dimensional:
        return SemiweakReport(
            ok=False, origin_interior=False, expected=expected_degree,
            reason="newton polytope is not full-dimensional",
        )
    if not contains_origin_interior(newt):
        return SemiweakReport(
            ok=False, origin_interior=False, expected=expected_degree,
            reason="origin is not interior to the newton polytope",
        )
    volume = normalized_volume(dual_polytope(newt))
    ok = volume == expected_degree
    return SemiweakReport(
        ok=ok, origin_interior=True, expected=expected_degree, dual_volume=volume,
        reason=None if ok else f"dual volume {volume} differs from degree {expected_degree}",
    )
