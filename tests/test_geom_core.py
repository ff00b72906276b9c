"""Bodies, support functions, sizes, parallelograms, Minkowski arithmetic."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepgeom.bodies import (
    ConvexBody,
    GeometryError,
    Homothet,
    HomothetFamily,
    body_from_json,
    body_to_json,
    family_from_json,
    family_to_json,
    minkowski_norm,
    polygon_facets,
    support,
)
from helpers import random_convex_polygon
from sepgeom.measures import (
    _hull_features,
    area,
    disk_box_area,
    enclosing_disk_of_disks,
    hull_circumradius,
    hull_diameter,
    hull_of_centers,
    hull_perimeter,
    inscribed_disk,
    min_area_parallelogram,
    minkowski_sum_polygons,
    mixed_area,
    perimeter,
    polygon_area,
    polygon_perimeter,
    size_report,
    sum_area,
    support_width,
)

SQUARE = ConvexBody.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
DIAMOND = ConvexBody.polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
TRIANGLE = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])


def test_constructor_rejects_bad_input():
    with pytest.raises(GeometryError):
        ConvexBody.disk((0, 0), 0.0)
    with pytest.raises(GeometryError):
        ConvexBody.polygon([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(GeometryError):
        ConvexBody.segment((1, 2), (1, 2))



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(GeometryError):
        ConvexBody.disk((bad, 0.0), 1.0)
    with pytest.raises(GeometryError):
        ConvexBody.disk((0.0, 0.0), bad)
    with pytest.raises(GeometryError):
        ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, bad)])
    with pytest.raises(GeometryError):
        ConvexBody.segment((0.0, 0.0), (bad, 1.0))
    with pytest.raises(GeometryError):
        ConvexBody.polytope([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, bad)])
    disk = ConvexBody.disk((0.0, 0.0), 1.0)
    with pytest.raises(GeometryError):
        HomothetFamily(disk, [(bad, 0.0), (2.0, 0.0)])
    with pytest.raises(GeometryError):
        HomothetFamily(disk, [(0.0, 0.0), (2.0, 0.0)], [1.0, bad])


@pytest.mark.parametrize("scale, shift", [(1e-6, 0.0), (1.0, 1e6), (1e6, 0.0)])
def test_polygon_hull_ignores_scale_and_position(scale, shift):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * scale + shift
    assert np.array_equal(ConvexBody.polygon(square).vertices, square)
    collinear = np.array([[0.0, 0.0], [0.3, 0.7], [0.6, 1.4]]) * scale + shift
    with pytest.raises(GeometryError, match="collinear"):
        ConvexBody.polygon(collinear)


def _plain_symmetric(v: np.ndarray, tol: float) -> bool:
    """Greedy matching of each -v_i with the nearest unused v_j, one numpy
    distance row per vertex."""
    limit = tol * max(1.0, float(np.abs(v).max())) * 10
    used = np.zeros(len(v), dtype=bool)
    for p in -v:
        d = np.linalg.norm(v - p, axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > limit:
            return False
        used[j] = True
    return True


def test_origin_symmetry_matches_a_row_by_row_match(rng):
    seen = set()
    for t in range(200):
        k = int(rng.integers(2, 13))
        half = rng.normal(size=(k, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)
        v = np.vstack([half, -half]) + rng.normal(size=(2 * k, 2)) * 10.0 ** rng.uniform(-13.0, -7.0)
        if t % 3 == 0:
            v = np.vstack([v, rng.normal(size=(1, 2))])  # an unmatched vertex
        # the match reads the vertex list only, so it need not be a hull
        body = (ConvexBody.polytope(np.c_[v, np.zeros(len(v))]) if t % 5 == 0
                else ConvexBody(kind="polygon", vertices=v))
        for tol in (1e-9, 1e-7):
            want = _plain_symmetric(body.vertices, tol)
            assert body.is_origin_symmetric(tol) is want
            seen.add(want)
    assert seen == {True, False}


def test_support_disk_and_polygon():
    d = ConvexBody.disk((1.0, -2.0), 3.0)
    u = np.array([0.6, 0.8])
    assert support(d, u) == pytest.approx(1.0 * 0.6 - 2.0 * 0.8 + 3.0, abs=1e-12)
    assert support(SQUARE, np.array([1.0, 1.0])) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


@given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=60, deadline=None)
def test_minkowski_norm_triangle_inequality(a1, a2):
    x = np.array([math.cos(a1), math.sin(a1)]) * 1.3
    y = np.array([math.cos(a2), math.sin(a2)]) * 0.7
    for k in (SQUARE, DIAMOND, ConvexBody.disk((0, 0), 1.0)):
        nx, ny = minkowski_norm(k, x), minkowski_norm(k, y)
        assert minkowski_norm(k, x + y) <= nx + ny + 1e-9
        assert minkowski_norm(k, 2.0 * x) == pytest.approx(2.0 * nx, abs=1e-9)


def test_minkowski_norm_named_values():
    assert minkowski_norm(SQUARE, (0.5, -0.25)) == pytest.approx(0.5, abs=1e-12)
    assert minkowski_norm(DIAMOND, (0.5, 0.25)) == pytest.approx(0.75, abs=1e-12)
    assert minkowski_norm(ConvexBody.disk((0, 0), 2.0), (3.0, 4.0)) == pytest.approx(
        2.5, abs=1e-12
    )


def test_polygon_facets_are_outward():
    normals, offsets = polygon_facets(SQUARE)
    for n, off in zip(normals, offsets):
        assert (SQUARE.vertices @ n <= off + 1e-12).all()
    assert len(normals) == 4


def test_size_report_square():
    rep = size_report(SQUARE)
    assert rep.area == pytest.approx(4.0, abs=1e-12)
    assert rep.perimeter == pytest.approx(8.0, abs=1e-12)
    assert rep.diameter == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.circumradius == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep.inradius == pytest.approx(1.0, abs=1e-9)
    assert rep.min_width == pytest.approx(2.0, abs=1e-12)
    assert rep.mean_width == pytest.approx(8.0 / math.pi, abs=1e-12)


def test_min_area_parallelogram_oracles():
    fit = min_area_parallelogram(ConvexBody.disk((0, 0), 1.5))
    assert fit.area == pytest.approx(9.0, abs=1e-9)
    assert min_area_parallelogram(SQUARE).area == pytest.approx(4.0, abs=1e-9)
    # the tight circumscribed parallelogram of a triangle doubles its area
    tri_fit = min_area_parallelogram(TRIANGLE)
    assert tri_fit.area == pytest.approx(2.0 * area(TRIANGLE), abs=1e-9)
    assert tri_fit.contains(TRIANGLE, tol=1e-9)


def test_min_area_parallelogram_random_contains(rng):
    for _ in range(20):
        pts = rng.normal(size=(9, 2))
        try:
            from scipy.spatial import ConvexHull

            body = ConvexBody.polygon(pts[ConvexHull(pts).vertices])
        except GeometryError:
            continue
        fit = min_area_parallelogram(body)
        assert fit.area >= area(body) - 1e-9
        assert fit.contains(body, tol=1e-7)


def test_min_area_parallelogram_beats_dense_search(rng):
    from scipy.spatial import ConvexHull

    t = np.linspace(0.0, math.pi, 1441)[:-1]
    u = np.stack([np.cos(t), np.sin(t)], axis=1)
    sin = np.abs(np.sin(t[:, None] - t[None, :]))
    sin[sin < 1e-9] = np.nan
    for _ in range(15):
        pts = rng.normal(size=(int(rng.integers(3, 12)), 2))
        try:
            body = ConvexBody.polygon(pts[ConvexHull(pts).vertices])
        except GeometryError:
            continue
        fit = min_area_parallelogram(body)
        w = support_width(body, u)
        assert fit.area <= np.nanmin(w[:, None] * w[None, :] / sin) * (1.0 + 1e-12)
        assert fit.contains(body, tol=1e-9)
        assert polygon_area(fit.corners()) == pytest.approx(fit.area, rel=1e-12)


def test_minkowski_sum_and_mixed_area():
    s = minkowski_sum_polygons(SQUARE.vertices, SQUARE.vertices)
    assert polygon_area(s) == pytest.approx(16.0, abs=1e-9)
    # Steiner decomposition: area(P+Q) = A(P,P) + 2 A(P,Q) + A(Q,Q)
    apq = mixed_area(SQUARE, DIAMOND)
    assert sum_area(SQUARE, DIAMOND) == pytest.approx(
        area(SQUARE) + 2.0 * apq + area(DIAMOND), abs=1e-9
    )
    assert mixed_area(SQUARE, SQUARE) == pytest.approx(area(SQUARE), abs=1e-9)
    # square side 2 with a unit disk: 2 A = perimeter of the square / ... = 8
    assert mixed_area(SQUARE, ConvexBody.disk((0, 0), 1.0)) == pytest.approx(
        4.0, rel=1e-3
    )


def test_steiner_area_matches_sum_area():
    # the Steiner formula area + t perimeter + pi t^2 of the parallel body
    t = 0.75
    direct = area(TRIANGLE) + t * perimeter(TRIANGLE) + math.pi * t * t
    assert direct == pytest.approx(sum_area(TRIANGLE, ConvexBody.disk((0, 0), t)), rel=1e-4)
    # a segment of length L has area 0 and perimeter 2 L
    seg = ConvexBody.segment((0.0, 0.0), (2.0, 0.0))
    assert area(seg) + perimeter(seg) + math.pi == pytest.approx(4.0 + math.pi, abs=1e-9)


def test_hull_measures_two_disks():
    a = ConvexBody.disk((0.0, 0.0), 1.0)
    b = ConvexBody.disk((2.0, 0.0), 1.0)
    assert hull_perimeter([a, b]) == pytest.approx(2.0 * math.pi + 4.0, abs=1e-12)
    assert hull_diameter([a, b]) == pytest.approx(4.0, abs=1e-12)


def _random_mix(rng, n: int) -> list:
    """n disks, segments and polygons (3-6 vertices) about [-3, 3]^2."""
    out = []
    for _ in range(n):
        c, kind = rng.uniform(-3.0, 3.0, 2), int(rng.integers(0, 3))
        if kind == 0:
            out.append(ConvexBody.disk(c, float(rng.uniform(0.05, 1.5))))
        elif kind == 1:
            half = rng.uniform(-1.0, 1.0, 2)
            out.append(ConvexBody.segment(c - half, c + half))
        else:
            out.append(ConvexBody.polygon(c + random_convex_polygon(rng, k=int(rng.integers(3, 7))).vertices))
    return out


def _plain_features(bodies) -> list:
    """(x, y, r) per feature: disk centers with their radius, vertices with 0."""
    out = []
    for b in bodies:
        pts = [b.center] if b.kind == "disk" else b.vertices
        out += [(float(x), float(y), b.radius if b.kind == "disk" else 0.0) for x, y in pts]
    return out


def test_hull_diameter_and_circumradius_match_plain_python(rng):
    for trial in range(80):
        bodies = _random_mix(rng, int(rng.integers(1, 5)))
        feats = _plain_features(bodies)
        diam = max(math.hypot(xa - xb, ya - yb) + ra + rb for xa, ya, ra in feats for xb, yb, rb in feats)
        assert abs(hull_diameter(bodies) - diam) <= 1e-12 * diam, trial
        c, r = hull_circumradius(bodies)
        c_ref, r_ref = _enclosing_disk_reference([f[:2] for f in feats], [f[2] for f in feats])
        assert abs(r - r_ref) <= 1e-12 * r_ref, trial
        assert np.abs(c - np.array(c_ref)).max() <= 1e-12 * r_ref, trial
    lone = ConvexBody.disk((5.0, -2.0), 0.75)
    assert hull_diameter([lone]) == 1.5 and hull_circumradius([lone])[1] == 0.75


def _full_table_diameter(bodies) -> float:
    """hull_diameter from the whole m x m table of feature pairs at once."""
    p, r = _hull_features(bodies)
    d = p[:, None, :] - p[None, :, :]
    return float((np.hypot(d[..., 0], d[..., 1]) + r[:, None] + r[None, :]).max())


def test_hull_diameter_is_the_full_table_max_in_bounded_memory(rng):
    """Row blocks give the full table's maximum bit for bit, on one block
    and on many, and a 1 500-vertex ellipse (a 36 MB table) peaks under 8 MB."""
    for trial in range(30):
        bodies = _random_mix(rng, int(rng.integers(1, 150)))
        assert hull_diameter(bodies) == _full_table_diameter(bodies), trial
    t = np.linspace(0.0, 2.0 * math.pi, 1500, endpoint=False)
    ellipse = ConvexBody.polygon(np.column_stack([3.0 * np.cos(t), np.sin(t)]))
    want = _full_table_diameter([ellipse])
    tracemalloc.start()
    try:
        got = hull_diameter([ellipse])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * 2**20, peak


def test_hull_perimeter_closed_forms(rng):
    """Polygons alone give the perimeter of their vertex hull, equal disks
    2 pi r plus that of their centers' hull, both to 1e-12; any mix matches
    Cauchy's integral on a 2^18-point grid."""
    for _ in range(40):
        polys = [b for b in _random_mix(rng, 6) if b.kind != "disk"]
        pts = np.vstack([b.vertices for b in polys])
        assert abs(hull_perimeter(polys) - polygon_perimeter(hull_of_centers(pts))) <= 1e-12
        centers, r = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 9)), 2)), float(rng.uniform(0.1, 2.0))
        disks = [ConvexBody.disk(c, r) for c in centers]
        want = 2.0 * math.pi * r + polygon_perimeter(hull_of_centers(centers))
        assert abs(hull_perimeter(disks) - want) <= 1e-12
    theta = np.linspace(0.0, 2.0 * math.pi, 1 << 18, endpoint=False)
    dirs = np.c_[np.cos(theta), np.sin(theta)]
    for _ in range(15):
        bodies = _random_mix(rng, int(rng.integers(1, 6)))
        h = np.full(len(theta), -np.inf)
        for x, y, r in _plain_features(bodies):
            h = np.maximum(h, dirs @ (x, y) + r)
        assert hull_perimeter(bodies) == pytest.approx(h.mean() * 2.0 * math.pi, rel=1e-9)


def test_disk_box_area_closed_form(rng):
    from scipy.integrate import quad

    assert abs(disk_box_area((0.0, 0.0), 1.0, (0.0, -5.0), (5.0, 5.0)) - 0.5 * math.pi) <= 1e-14
    assert abs(disk_box_area((0.0, 0.0), 1.0, (0.0, 0.0), (5.0, 5.0)) - 0.25 * math.pi) <= 1e-14
    assert disk_box_area((0.0, 0.0), 1.0, (1.0, -5.0), (5.0, 5.0)) == 0.0
    for _ in range(60):
        c, r = rng.uniform(-1.0, 1.0, 2), float(rng.uniform(0.2, 1.5))
        lo = rng.uniform(-2.0, 1.0, 2)
        hi = lo + rng.uniform(0.05, 3.0, 2)

        def column(phi):  # the height over x = c_x + r cos phi in the box, times dx/dphi
            x, s = c[0] + r * math.cos(phi), r * math.sin(phi)
            inside = lo[0] <= x <= hi[0]
            return s * max(0.0, min(hi[1], c[1] + s) - max(lo[1], c[1] - s)) if inside else 0.0

        # kinks where a box side cuts the circle, in phi, which also takes
        # the square-root ends of the columns away
        cuts = [(x - c[0]) / r for x in (lo[0], hi[0])]
        cuts += [sign * math.sqrt(r * r - (y - c[1]) ** 2) / r
                 for y in (lo[1], hi[1]) if abs(y - c[1]) < r for sign in (-1.0, 1.0)]
        kinks = sorted(math.acos(t) for t in cuts if -1.0 < t < 1.0)
        want = quad(column, 0.0, math.pi, points=kinks or None, epsabs=1e-14, limit=200)[0]
        assert abs(disk_box_area(c, r, lo, hi) - want) <= 1e-12


def test_enclosing_disk_of_disks(rng):
    c, r = enclosing_disk_of_disks([(0, 0)], [2.0])
    assert r == pytest.approx(2.0, abs=1e-9) and np.allclose(c, 0.0)
    c, r = enclosing_disk_of_disks([(-1, 0), (1, 0)], [1.0, 1.0])
    assert r == pytest.approx(2.0, abs=1e-9)
    for _ in range(25):
        centers = rng.normal(size=(int(rng.integers(2, 7)), 2)) * 2.0
        radii = rng.uniform(0.1, 1.5, len(centers))
        c, r = enclosing_disk_of_disks(centers, radii)
        cover = np.linalg.norm(centers - c, axis=1) + radii
        assert (cover <= r + 1e-7).all()
        assert r <= cover.max() + 1e-7 or np.isclose(r, cover.max(), atol=1e-6)



def _enclosing_disk_reference(centers, radii):
    """The closed-form candidate search of enclosing_disk_of_disks, one
    candidate at a time in plain Python."""
    cs = [tuple(map(float, c)) for c in centers]
    rs = [float(r) for r in radii]
    n = len(cs)
    scale = max(1.0, max(abs(x) for c in cs for x in c), max(rs))
    tol = 1e-11 * scale

    def covers(c, big_r):
        return all(math.dist(m, c) + r <= big_r + tol for m, r in zip(cs, rs))

    best_c, best_r = None, math.inf
    for i in range(n):
        if rs[i] < best_r and covers(cs[i], rs[i]):
            best_c, best_r = cs[i], rs[i]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(cs[i], cs[j])
            big_r = 0.5 * (d + rs[i] + rs[j])
            if d <= tol or big_r >= best_r:
                continue
            s = (big_r - rs[i]) / d
            c = tuple(a + s * (b - a) for a, b in zip(cs[i], cs[j]))
            if covers(c, big_r):
                best_c, best_r = c, big_r
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (x0, y0), (x1, y1), (x2, y2) = cs[i], cs[j], cs[k]
                r0, r1, r2 = rs[i], rs[j], rs[k]
                a, b = 2.0 * (x1 - x0), 2.0 * (y1 - y0)
                c_, d_ = 2.0 * (x2 - x0), 2.0 * (y2 - y0)
                det = a * d_ - b * c_
                if abs(det) <= 1e-12 * scale * scale:
                    continue
                s0 = x0 * x0 + y0 * y0
                u1 = x1 * x1 + y1 * y1 - s0 + r0 * r0 - r1 * r1
                u2 = x2 * x2 + y2 * y2 - s0 + r0 * r0 - r2 * r2
                v1, v2 = -2.0 * (r0 - r1), -2.0 * (r0 - r2)
                # c(R) = p + R q solves the two linearized tangency equations
                p = ((d_ * u1 - b * u2) / det, (a * u2 - c_ * u1) / det)
                q = ((d_ * v1 - b * v2) / det, (a * v2 - c_ * v1) / det)
                w = (p[0] - x0, p[1] - y0)
                aa = q[0] * q[0] + q[1] * q[1] - 1.0
                bb = 2.0 * (w[0] * q[0] + w[1] * q[1] + r0)
                cc = w[0] * w[0] + w[1] * w[1] - r0 * r0
                if abs(aa) < 1e-14:
                    roots = [-cc / bb] if abs(bb) > 1e-14 else []
                else:
                    disc = bb * bb - 4.0 * aa * cc
                    if disc < 0:
                        continue
                    roots = [(-bb - math.sqrt(disc)) / (2 * aa), (-bb + math.sqrt(disc)) / (2 * aa)]
                for big_r in roots:
                    if big_r <= max(r0, r1, r2) - tol or big_r >= best_r:
                        continue
                    c = (p[0] + big_r * q[0], p[1] + big_r * q[1])
                    if covers(c, big_r):
                        best_c, best_r = c, big_r
    return best_c, best_r


def _enclosing_disk_cases(rng):
    for trial in range(300):
        n = int(rng.integers(1, 9))
        centers = rng.normal(size=(n, 2)) * rng.uniform(0.5, 20.0)
        if trial % 3 == 0:
            radii = np.zeros(n)  # points
        elif trial % 3 == 1:
            radii = rng.uniform(0.1, 3.0, n)
        else:
            centers = np.round(centers)  # repeated centers, ties, nested disks
            radii = np.round(rng.uniform(0.0, 3.0, n))
        yield centers, radii
    for n in (20, 27, 33, 40):
        yield rng.normal(size=(n, 2)) * 5.0, rng.uniform(0.0, 2.0, n)
    angles = np.arange(24) * 2.0 * math.pi / 24
    yield 4.0 * np.c_[np.cos(angles), np.sin(angles)] + (1.5, -2.0), np.zeros(24)  # cocircular
    # a diametral pair and a member just outside it, by more than tol but so
    # little that the radius grows by less than one ulp
    yield np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0 + 1e-9)]), np.zeros(3)
    yield np.round(4.0 * np.c_[np.cos(angles), np.sin(angles)] + (1.5, -2.0), 9), np.zeros(24)  # as read from JSON
    yield np.tile([[3.0, -1.0]], (6, 1)), np.full(6, 2.0)  # identical disks
    centers = rng.uniform(-1.0, 1.0, size=(12, 2))
    yield np.vstack([centers, [[0.25, 0.5]]]), np.append(rng.uniform(0.1, 0.5, 12), 3.0)  # one holds all


def test_enclosing_disk_matches_plain_python(rng):
    for trial, (centers, radii) in enumerate(_enclosing_disk_cases(rng)):
        c, r = enclosing_disk_of_disks(centers, radii)
        c_ref, r_ref = _enclosing_disk_reference(centers, radii)
        scale = max(1.0, float(np.abs(centers).max()), float(radii.max()))
        assert abs(r - r_ref) <= 1e-12 * scale, trial
        assert np.abs(c - np.array(c_ref)).max() <= 1e-12 * scale, trial


def test_enclosing_disk_is_optimal_at_n_2000(rng):
    """Checked without any solver: every member is covered, and the center
    lies in the convex hull of the contact points of the members tangent to
    the disk, so no smaller disk covers them (no angular gap between the
    contact points, seen from the center, exceeds pi)."""
    n = 2000
    for radii in (np.zeros(n), rng.uniform(0.0, 1.0, n), rng.exponential(0.3, n)):
        centers = rng.normal(size=(n, 2)) * rng.uniform(1.0, 100.0, 2)
        c, r = enclosing_disk_of_disks(centers, radii)
        tol = 1e-10 * r
        to_center = centers - c
        dist = np.linalg.norm(to_center, axis=1)
        assert (dist + radii <= r + tol).all()
        tangent = dist + radii >= r - tol
        assert tangent.sum() >= 2
        angles = np.sort(np.arctan2(to_center[tangent, 1], to_center[tangent, 0]))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        assert gaps.max() <= math.pi + 1e-9

def test_inscribed_disk_triangle():
    c, r = inscribed_disk(TRIANGLE)
    want = (2.0 - math.sqrt(2.0)) / 2.0
    assert r == pytest.approx(want, abs=1e-7)
    assert np.allclose(c, [want, want], atol=1e-6)


def test_homothets_and_families():
    fam = HomothetFamily(DIAMOND, [(0.0, 0.0), (2.0, 0.0)], [1.0, 0.5])
    assert len(fam) == 2
    b = fam.member(1).as_body()
    assert area(b) == pytest.approx(0.25 * area(DIAMOND), abs=1e-12)
    h = Homothet(np.zeros(2), 2.0, DIAMOND).as_body()
    assert area(h) == pytest.approx(4.0 * area(DIAMOND), abs=1e-12)


def test_json_round_trips():
    for b in (SQUARE, ConvexBody.disk((0.5, -2.0), 1.25)):
        back = body_from_json(json.loads(json.dumps(body_to_json(b))))
        assert back.kind == b.kind
        assert area(back) == pytest.approx(area(b), abs=1e-12)
    fam = HomothetFamily(DIAMOND, [(0, 0), (1, 2)], [1.0, 0.7])
    back = family_from_json(json.loads(json.dumps(family_to_json(fam))))
    assert len(back) == 2
    assert back.ratios[1] == pytest.approx(0.7)


def test_degenerate_guards():
    seg = ConvexBody.segment((0, 0), (1, 0))
    with pytest.raises(GeometryError):
        size_report(seg)
    with pytest.raises(GeometryError):
        min_area_parallelogram(seg)


def test_a_body_is_its_points_plus_a_radius():
    """A disk's feature point is its center, a read-only view; every other
    kind's are its vertices at radius 0. degenerate follows from the kind
    and is no field."""
    assert [f.name for f in dataclasses.fields(ConvexBody)] == ["kind", "center", "radius", "vertices"]
    with pytest.raises(TypeError):
        ConvexBody(kind="segment", vertices=np.eye(2), degenerate=True)
    disk = ConvexBody.disk((0.5, -2.0), 1.25)
    assert disk.points.shape == (1, 2) and disk.points.base is disk.center
    assert not disk.points.flags.writeable
    seg = ConvexBody.segment((0, 0, 0), (3, 4, 0))
    for body in (disk, SQUARE, seg, ConvexBody.polytope(np.eye(3))):
        assert body.degenerate is (body is seg)
        assert body.dim == body.points.shape[1]
    assert SQUARE.points is SQUARE.vertices and SQUARE.radius == 0.0
    assert (area(seg), perimeter(seg)) == (0.0, 10.0)
    assert area(disk) == math.pi * 1.25**2 and perimeter(disk) == 2.0 * math.pi * 1.25


def test_area_and_perimeter_refuse_a_polytope():
    """A polytope lies in no plane: the unit cube raises instead of reading
    the shoelace and the closed polyline of its vertex list (0.0 and 10.29)."""
    cube = ConvexBody.polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    for measure in (area, perimeter, size_report):
        with pytest.raises(GeometryError, match="planar bodies"):
            measure(cube)


def test_transform_defaults_to_no_translation_in_any_dimension():
    cube = ConvexBody.polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert (cube.transform(np.eye(3)).vertices == cube.vertices).all()
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    fam = HomothetFamily(cube, [[0.0, 0.0, 0.0], [2.0, 1.0, 3.0]], [1.0, 0.5])
    moved = fam.transform(turn)
    assert moved.centers.tolist() == [[0.0, 0.0, 0.0], [-1.0, 2.0, 3.0]]
    assert (moved.reference.vertices == cube.vertices @ turn.T).all()
    assert fam.transform(turn, (1.0, 1.0, 1.0)).centers.tolist() == [[1.0, 1.0, 1.0], [0.0, 3.0, 4.0]]
    assert (SQUARE.transform(np.eye(2)).vertices == SQUARE.vertices).all()


def test_centroid_and_area_far_from_the_origin(rng):
    """Shoelace sums about the first vertex keep the centroid and the area of
    a unit hexagon translated by 1e6 to the shift of the unshifted ones."""
    for _ in range(100):
        ang = np.arange(6) * math.pi / 3.0 + rng.uniform(-0.4, 0.4, 6)
        v = np.column_stack([np.cos(ang), np.sin(ang)])
        shift = rng.choice([-1.0, 1.0], 2) * 1e6
        near, far = ConvexBody.polygon(v), ConvexBody.polygon(v + shift)
        c = far.centroid()
        normals, offsets = polygon_facets(far)
        assert (normals @ c <= offsets + 1e-9).all()
        assert np.abs(c - (near.centroid() + shift)).max() <= 1e-6
        assert polygon_area(far.vertices) == pytest.approx(polygon_area(near.vertices), rel=1e-9)
        assert area(far) == pytest.approx(area(near), rel=1e-9)
