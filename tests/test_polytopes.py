from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    determinant_3x3,
    dual_vertices_oracle,
    ehrhart_oracle,
    hull_oracle,
    is_full_dimensional,
    random_unimodular,
)
from weaklg import polytopes
from weaklg.constructors import grassmannian_polynomial
from weaklg.corpus import load_corpus
from weaklg.laurent import LaurentPolynomial
from weaklg.polytopes import (
    Polytope,
    contains_origin_interior,
    dual_polytope,
    ehrhart_counts,
    from_points,
    newton_polytope,
    normalized_volume,
    semiweak_check,
)

SIMPLEX = LaurentPolynomial(
    3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
)

UNIT_CUBE = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]

SYMMETRIC_CUBE = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]


def test_newton_polytope_of_quartic_simplex_generator() -> None:
    p = newton_polytope(SIMPLEX)
    assert p.dim == 3
    assert p.vertices == ((-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    # every vertex saturates at least dim facets (<normal, x> <= offset)
    for v in p.vertices:
        tight = [
            f for f in p.facets
            if sum(a * b for a, b in zip(f[0], v)) == f[1]
        ]
        assert len(tight) >= 3


def test_newton_polytope_drops_interior_support_points() -> None:
    f = LaurentPolynomial(1, {(1,): 1, (0,): 2, (-1,): 1})
    p = newton_polytope(f)
    assert p.vertices == ((-1,), (1,))
    assert p.dim == 1


def test_newton_polytope_of_constant_is_a_point() -> None:
    # dim records the ambient space; a point has no facet description
    p = newton_polytope(LaurentPolynomial(2, {(0, 0): 5}))
    assert p.dim == 2
    assert p.vertices == ((0, 0),)
    assert not p.is_full_dimensional
    assert p.facets == ()


def test_newton_polytope_rejects_zero_polynomial() -> None:
    with pytest.raises(ValueError):
        newton_polytope(LaurentPolynomial(2, {}))


def test_from_points_deduplicates_and_validates() -> None:
    p = from_points([(0, 0), (1, 0), (0, 1), (1, 0), (Fraction(1, 2), Fraction(1, 4))])
    assert p.vertices == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError):
        from_points([])
    with pytest.raises(ValueError):
        from_points([(0, 0), (1,)])
    with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
        from_points([()])


def test_facets_support_all_points() -> None:
    p = from_points(SYMMETRIC_CUBE)
    for v in p.vertices:
        for normal, offset in p.facets:
            assert sum(a * b for a, b in zip(normal, v)) <= offset


def test_origin_interior_checks() -> None:
    assert contains_origin_interior(newton_polytope(SIMPLEX))
    assert contains_origin_interior(from_points(SYMMETRIC_CUBE))
    # origin on the boundary
    assert not contains_origin_interior(from_points(UNIT_CUBE))
    # lower-dimensional polytope has empty interior
    assert not contains_origin_interior(from_points([(-1, 0), (1, 0)]))


def test_dual_of_simplex_is_dilated_translated_simplex() -> None:
    d = dual_polytope(newton_polytope(SIMPLEX))
    assert d.vertices == ((-1, -1, -1), (-1, -1, 3), (-1, 3, -1), (3, -1, -1))


def test_dual_of_cube_is_cross_polytope() -> None:
    d = dual_polytope(from_points(SYMMETRIC_CUBE))
    assert sorted(d.vertices) == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]


def test_dual_requires_interior_origin() -> None:
    with pytest.raises(ValueError):
        dual_polytope(from_points(UNIT_CUBE))


def test_dual_of_dual_returns_the_original() -> None:
    # x^2 + 1/x^2: the dual [-1/2, 1/2] has scale 2 and Fraction offsets
    for pts in (SYMMETRIC_CUBE, None, [(2,), (-2,)]):
        p = from_points(pts) if pts else newton_polytope(SIMPLEX)
        dd = dual_polytope(dual_polytope(p))
        assert dd == p and dd.to_json_dict() == p.to_json_dict()
    assert dual_polytope(from_points([(2,), (-2,)])).vertices == ((Fraction(-1, 2),), (Fraction(1, 2),))


def test_normalized_volume_examples() -> None:
    assert normalized_volume(from_points(UNIT_CUBE)) == 6
    assert normalized_volume(from_points(SYMMETRIC_CUBE)) == 48
    cross = dual_polytope(from_points(SYMMETRIC_CUBE))
    assert normalized_volume(cross) == 8
    assert normalized_volume(dual_polytope(newton_polytope(SIMPLEX))) == 64
    assert normalized_volume(from_points([(-1,), (1,)])) == 2
    assert normalized_volume(from_points([(0, 0), (1, 0), (0, 1)])) == 1


def test_volume_cones_the_triangulation_kept_from_the_hull(monkeypatch: pytest.MonkeyPatch) -> None:
    # A polytope from from_points keeps its hull's boundary triangulation; a
    # copy given by vertices and facets alone is equal, hashes and prints the
    # same, and its volume, from a fresh hull, is the same number.
    rational = [tuple(Fraction(c, 3) for c in v) for v in SYMMETRIC_CUBE] + [(Fraction(1, 6), 0, 0)]
    built = [from_points(pts) for pts in (UNIT_CUBE, rational)]
    built += [newton_polytope(entry.laurent()) for entry in load_corpus()]
    copies = [Polytope(p.dim, p.vertices, p.facets) for p in built]
    for p, q in zip(built, copies):
        assert p == q and hash(p) == hash(q) and p.to_json_dict() == q.to_json_dict()
    volumes = [normalized_volume(q) for q in copies]
    assert volumes[:2] == [6, Fraction(48, 27)]

    hulls = []
    hull = polytopes._hull

    def counted_hull(points: list) -> object:
        hulls.append(points)
        return hull(points)

    monkeypatch.setattr(polytopes, "_hull", counted_hull)
    assert [normalized_volume(p) for p in built] == volumes
    assert not hulls, "the volume of a hulled polytope built a second hull"
    # a dual is built by the one hull, and its volume cones that hull's
    # triangulation
    for p in built[2:]:
        hulls.clear()
        normalized_volume(dual_polytope(p))
        assert len(hulls) == 1


def test_normalized_volume_rejects_lower_dimensional_input() -> None:
    with pytest.raises(ValueError):
        normalized_volume(from_points([(0, 0), (1, 0)]))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=2**32))
def test_normalized_volume_is_unimodular_invariant(seed: int) -> None:
    m = random_unimodular(random.Random(seed))
    assert abs(determinant_3x3(m)) == 1
    f = SIMPLEX.substitute_monomial(m)
    p0 = newton_polytope(SIMPLEX)
    p1 = newton_polytope(f)
    assert normalized_volume(p1) == normalized_volume(p0)
    assert normalized_volume(dual_polytope(p1)) == normalized_volume(dual_polytope(p0))


def test_ehrhart_of_unit_cube() -> None:
    e = ehrhart_counts(from_points(UNIT_CUBE), 3)
    assert e.counts == (1, 8, 27, 64)
    assert e.polynomial == (1, 3, 3, 1)


def test_ehrhart_interpolation_reproduces_larger_dilations() -> None:
    e = ehrhart_counts(from_points(UNIT_CUBE), 6)
    assert e.counts == tuple((k + 1) ** 3 for k in range(7))
    # polynomial from the first dim+1 counts explains every later count
    assert e.polynomial == (1, 3, 3, 1)


def test_ehrhart_of_dual_simplex_counts_match_binomial_oracle() -> None:
    d = dual_polytope(newton_polytope(SIMPLEX))
    e = ehrhart_counts(d, 3)
    # translate of the 4k-dilated standard simplex: C(4k+3, 3) points
    assert e.counts == tuple(math.comb(4 * k + 3, 3) for k in range(4))
    assert e.polynomial[-1] == Fraction(64, 6)


def test_ehrhart_validates_kmax_and_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    p = from_points(UNIT_CUBE)
    with pytest.raises(ValueError):
        ehrhart_counts(p, 2)  # needs dim+1 sample points
    # the boxes of k*p for k = 1..3 hold 8 + 27 + 64 = 99 points
    monkeypatch.setattr(polytopes, "MAX_EHRHART_POINTS", 99)
    assert ehrhart_counts(p, 3).counts == (1, 8, 27, 64)
    with pytest.raises(ValueError, match="over the budget of 99"):
        ehrhart_counts(p, 4)


def test_semiweak_check_passes_on_matching_degree() -> None:
    r = semiweak_check(SIMPLEX, 64)
    assert r.ok and r.origin_interior
    assert r.dual_volume == 64
    assert bool(r)
    d = r.to_json_dict()
    assert d["ok"] is True and d["dual_volume"] == "64"


def test_semiweak_check_reports_mismatch() -> None:
    r = semiweak_check(SIMPLEX, 54)
    assert not r.ok
    assert r.dual_volume == 64
    assert r.expected == 54


def test_semiweak_check_degenerate_polytope() -> None:
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (-1, 0, 0): 1})
    r = semiweak_check(f, 2)
    assert not r.ok
    assert not r.origin_interior
    assert r.reason


@pytest.mark.parametrize("n", [4, 5, 6])
def test_semiweak_of_simplex_generator_in_higher_dimension(n: int) -> None:
    # x_1 + ... + x_n + 1/(x_1...x_n): the dual is a simplex of volume (n+1)^n
    f = LaurentPolynomial(n, {**{tuple(int(i == j) for j in range(n)): 1 for i in range(n)}, (-1,) * n: 1})
    r = semiweak_check(f, (n + 1) ** n)
    assert r.ok and r.dual_volume == (n + 1) ** n


def test_semiweak_of_grassmannian_ladder_g25() -> None:
    # G(2,5) has dimension 6, index 5 and degree 5, so (-K)^6 = 5^6 * 5
    r = semiweak_check(grassmannian_polynomial(2, 5), 5**7)
    assert r.ok and r.dual_volume == 78125


def test_ehrhart_of_4d_reflexive_simplex() -> None:
    f = LaurentPolynomial(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (-1, -1, -1, -1): 1})
    e = ehrhart_counts(newton_polytope(f), 4)
    assert e.counts == tuple(sum(math.comb(k + 4 - i, 4) for i in range(5)) for k in range(5))
    assert e.counts == (1, 6, 21, 56, 126)


def test_semiweak_across_whole_corpus() -> None:
    # every bundled polynomial hits its anticanonical degree on the nose
    for entry in load_corpus():
        r = semiweak_check(entry.laurent(), entry.degree)
        assert r.ok, f"entry {entry.id}"


def test_dual_of_dual_across_whole_corpus() -> None:
    # the 17 Newton polytopes and entry 11's alternate; the non-lattice duals
    # are hulled from points over a scale, and their duals from Fraction offsets
    non_lattice = []
    for entry in load_corpus():
        for j, f in enumerate([entry.laurent(), *entry.alternate_laurents()]):
            p = newton_polytope(f)
            d = dual_polytope(p)
            if not d.is_lattice:
                non_lattice.append((entry.id, j))
            dd = dual_polytope(d)
            assert dd == p and dd.to_json_dict() == p.to_json_dict(), f"entry {entry.id}"
    assert non_lattice == [(1, 0), (11, 0), (11, 1)]


def _echelon_calls(monkeypatch: pytest.MonkeyPatch) -> list:
    calls: list = []
    echelon = polytopes.echelon

    def counted(matrix: list) -> tuple:
        calls.append(len(matrix))
        return echelon(matrix)

    monkeypatch.setattr(polytopes, "echelon", counted)
    return calls


def test_spanning_sets_make_no_whole_set_elimination(monkeypatch: pytest.MonkeyPatch) -> None:
    # the hull's start simplex shows that a Newton polytope or a dual spans
    calls = _echelon_calls(monkeypatch)
    for entry in load_corpus():
        for f in [entry.laurent(), *entry.alternate_laurents()]:
            dual_polytope(newton_polytope.__wrapped__(f))
    assert calls == []


@pytest.mark.parametrize(
    "pts",
    [
        # the 24 points farthest from the centroid are coplanar: the start
        # simplex meets the apex last
        [(x, y, 0) for x in range(5) for y in range(5)] + [(2, 2, 1)],
        # all but one point on a line
        [(x, 0) for x in range(-3, 4)] + [(1, 1)],
        [(x, 2 * x, 3 * x) for x in range(-3, 4)] + [(0, 0, 1), (0, 1, 0)],
    ],
)
def test_start_simplex_finds_spanning_sets(monkeypatch: pytest.MonkeyPatch, pts: list) -> None:
    calls = _echelon_calls(monkeypatch)
    p = from_points(pts)
    assert calls == []
    assert (p.vertices, p.facets) == hull_oracle(pts, len(pts[0]))


@pytest.mark.parametrize("extra", [1, 2])
def test_planar_sets_in_space_take_the_projection(monkeypatch: pytest.MonkeyPatch, extra: int) -> None:
    # a 2-D set lifted into 3-D and 4-D: the start simplex falls short, and
    # one elimination over the whole set finds the plane
    pts = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 2), (4, 4), (3, 1)]

    def lift(q: tuple) -> tuple:
        return (q[0] + q[1], *q, q[0] - 2 * q[1])[: 2 + extra]

    calls = _echelon_calls(monkeypatch)
    p = from_points([lift(q) for q in pts])
    assert calls == [len(pts) - 1]
    assert not p.is_full_dimensional
    vertices, _ = hull_oracle(pts, 2)
    assert p.vertices == tuple(sorted(lift(v) for v in vertices))


def test_point_on_four_facets_inside_an_edge_is_no_vertex() -> None:
    # 1/(x2*x3*x4) + 1 + x4 + 1/x3 + x2 + x1 + 1/(x1*x2^2*x3^2*x4^2): the
    # first exponent is the midpoint of the last two vertices and lies on 4
    # facets, whose normals have rank 3
    midpoint = (0, -1, -1, -1)
    rest = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (-1, -2, -2, -2)]
    p = from_points([midpoint, *rest])
    assert midpoint not in p.vertices
    assert sum(1 for normal, offset in p.facets if sum(map(math.prod, zip(normal, midpoint))) == offset) == 4
    assert p == from_points(rest)
    assert (p.vertices, p.facets) == hull_oracle([midpoint, *rest], 4)


def test_float_and_bool_coordinates_are_their_exact_values() -> None:
    cases = [
        ([(0.5, True), (0, 0), (-1.25, False), (True, -0.75)],
         [(Fraction(1, 2), 1), (0, 0), (Fraction(-5, 4), 0), (1, Fraction(-3, 4))]),
        ([(True, False, False), (False, True, False), (False, False, True), (-1.0, -1.0, -1.0)],
         [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
    ]
    for loose, exact in cases:
        p, q = from_points(loose), from_points(exact)
        assert p == q and normalized_volume(p) == normalized_volume(q)
        assert [_types(v) for v in p.vertices] == [_types(v) for v in q.vertices]
        assert [(_types(a), type(b)) for a, b in p.facets] == [(_types(a), type(b)) for a, b in q.facets]
    assert _types(from_points([(True, 0.0)]).vertices[0]) == [int, int]


def coords(bound: int) -> st.SearchStrategy:
    return st.one_of(
        st.integers(min_value=-bound, max_value=bound),
        st.builds(Fraction, st.integers(min_value=-2 * bound, max_value=2 * bound), st.integers(min_value=1, max_value=3)),
    )


SPREAD_STEPS = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
INNER_STEPS = (Fraction(0), Fraction(1, 3), Fraction(1, 2))


@st.composite
def point_sets(draw, dims=(1, 2, 3), bound=3, steps=SPREAD_STEPS) -> tuple[int, list[tuple]]:
    """Small point sets with duplicates and with collinear and coplanar
    subsets: the extra points are affine combinations a + s(b-a) + t(c-a)
    of drawn points (t = 0 puts them on a line), plus repeats."""
    n = draw(st.sampled_from(dims))
    base = draw(st.lists(st.tuples(*[coords(bound)] * n), min_size=1, max_size=8))
    pts = list(base)
    index = st.integers(min_value=0, max_value=len(base) - 1)
    step = st.sampled_from(steps)
    for i, j, k, s, t in draw(st.lists(st.tuples(index, index, index, step, step), max_size=5)):
        a, b, c = base[i], base[j], base[k]
        pts.append(tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)))
    pts += [pts[i] for i in draw(st.lists(st.integers(min_value=0, max_value=len(pts) - 1), max_size=3))]
    return n, pts


def _types(p) -> list:
    return [type(c) for c in p]


@settings(deadline=None, max_examples=200)
@given(point_sets(dims=(1, 2, 3, 4)))
def test_hull_matches_exhaustive_oracle(case: tuple[int, list[tuple]]) -> None:
    n, pts = case
    p = from_points(pts)
    assert p.is_full_dimensional == is_full_dimensional(pts, n)
    if not p.is_full_dimensional:
        return
    vertices, facets = hull_oracle(pts, n)
    assert p.vertices == vertices
    assert p.facets == facets
    assert [_types(v) for v in p.vertices] == [_types(v) for v in vertices]
    assert [(_types(a), type(b)) for a, b in p.facets] == [(_types(a), type(b)) for a, b in facets]


@settings(deadline=None, max_examples=80)
@given(
    point_sets(),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=3),
)
def test_planar_hull_in_space_matches_oracle(case: tuple[int, list[tuple]], a: int, b: int, at: int) -> None:
    # a new coordinate a*x_1 + b*x_n + 1, inserted at position `at`, puts the
    # points in a hyperplane of one more dimension: the low-rank route
    # projects them, hulls them and lifts them back
    n, pts = case
    if not is_full_dimensional(pts, n):
        return

    def lift(q: tuple) -> tuple:
        return q[:at] + (a * q[0] + b * q[-1] + 1,) + q[at:]

    p = from_points([lift(q) for q in pts])
    assert not p.is_full_dimensional
    vertices, _ = hull_oracle(pts, n)
    assert p.vertices == tuple(sorted(lift(v) for v in vertices))


@settings(deadline=None, max_examples=80)
@given(st.one_of(
    point_sets(bound=2, steps=INNER_STEPS),
    # smaller coordinates keep the oracle's 4-D box scan to a few seconds
    point_sets(dims=(4,), bound=1, steps=INNER_STEPS),
))
def test_ehrhart_counts_match_box_scan_oracle(case: tuple[int, list[tuple]]) -> None:
    # 1-D has no row coordinate of its own; 4-D has a two-coordinate prefix
    n, pts = case
    if not is_full_dimensional(pts, n):
        return
    p = from_points(pts)
    assert ehrhart_counts(p, 4).counts == ehrhart_oracle(p.vertices, p.facets, 4)


def test_ehrhart_counts_of_the_triangle_times_the_square() -> None:
    # the triangle's facets are walls with no row or last coordinate (b = 0),
    # which close every row over a prefix point outside k times the triangle
    triangle, square = ((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))
    p = from_points([u + v for u in triangle for v in square])
    counts = ehrhart_counts(p, 4).counts
    assert counts == tuple((k + 1) * (k + 2) // 2 * (k + 1) ** 2 for k in range(5)) == (1, 12, 54, 160, 375)
    assert counts == ehrhart_oracle(p.vertices, p.facets, 4)


@settings(deadline=None, max_examples=60)
@given(point_sets())
def test_dual_vertices_match_intersection_oracle(case: tuple[int, list[tuple]]) -> None:
    n, pts = case
    if not is_full_dimensional(pts, n):
        return
    # the centroid of the vertices is interior: move it to the origin
    verts = from_points(pts).vertices
    centre = [sum(Fraction(v[c]) for v in verts) / len(verts) for c in range(n)]
    p = from_points([tuple(x - c for x, c in zip(v, centre)) for v in verts])
    d = dual_polytope(p)
    expected = dual_vertices_oracle(p.vertices)
    assert d.vertices == expected
    assert [_types(v) for v in d.vertices] == [_types(v) for v in expected]
    assert dual_polytope(d) == p


def test_corpus_polytopes_match_oracles() -> None:
    corpus = load_corpus()
    cases = [(f"entry {entry.id}", entry.laurent()) for entry in corpus]
    cases += [(f"entry {entry.id} alternate", f) for entry in corpus for f in entry.alternate_laurents()]
    assert "entry 11 alternate" in dict(cases)
    for name, f in cases:
        p = newton_polytope(f)
        d = dual_polytope(p)
        assert (d.vertices, d.facets) == hull_oracle(list(dual_vertices_oracle(p.vertices)), 3), name
        for q in (p, d):
            assert ehrhart_counts(q, 4).counts == ehrhart_oracle(q.vertices, q.facets, 4), name
