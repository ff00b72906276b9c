"""Packing analysis: densities, area bounds, chains, contacts, partitions."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    random_convex_polygon,
    random_guillotine,
    random_symmetric_polygon,
    sns_disk_centers,
    ts_lattice_subset,
)
from sepgeom.bodies import ConvexBody, GeometryError, _gauges, _strict_hull, minkowski_norm, polygon_facets
from sepgeom.bounds import brute_force_lattice_contact, crystallization_bound, lattice_contact_bounds
from sepgeom.measures import area, min_area_parallelogram, minkowski_sum_polygons, separable_packing_density
from sepgeom.packing import (
    GuillotinePartition,
    _cell_measures,
    _in_loop,
    PlaneCut,
    TranslatePacking,
    area_bound_check,
    contact_graph,
    difference_body,
    kertesz_check,
    minkowski_length,
    oler_check,
    polyomino_packing,
    radon_mixed_area_check,
    rogers_sigma,
    simplex_vertices,
    sns_perimeter_check,
    three_disk_extrema,
    three_disk_hull_metrics,
    three_disk_non_separable,
    translate_gauge,
    ulam_spiral,
    window_density,
)
from sepgeom.separability import _translate_gauges, is_rho_separable, is_sns

DISK = ConvexBody.disk((0.0, 0.0), 1.0)
TRIANGLE = ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
SQUARE = ConvexBody.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def test_difference_body_and_gauge():
    hexbody = difference_body(TRIANGLE)
    assert area(hexbody) == pytest.approx(6.0 * area(TRIANGLE), abs=1e-9)
    assert translate_gauge(TRIANGLE, (1.0, 0.0)) == pytest.approx(2.0, abs=1e-9)
    assert translate_gauge(DISK, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-9)


def test_separable_density_values():
    assert separable_packing_density(DISK) == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert separable_packing_density(SQUARE) == pytest.approx(1.0, abs=1e-9)
    tri = separable_packing_density(TRIANGLE)
    assert tri == pytest.approx(area(TRIANGLE) / min_area_parallelogram(TRIANGLE).area, abs=1e-12)


def test_window_density_square_lattice():
    xs = np.arange(-2.0, 23.0, 2.0)
    centers = np.array([(x, y) for x in xs for y in xs])
    dens = window_density(centers, 1.0, (0.0, 0.0), (20.0, 20.0))
    assert dens == pytest.approx(math.pi / 4.0, rel=0.02)


def test_translate_packing_validates():
    TranslatePacking(DISK, [(0.0, 0.0), (2.0, 0.0)]).validate()
    with pytest.raises(GeometryError):
        TranslatePacking(DISK, [(0.0, 0.0), (1.0, 0.0)]).validate()


def test_area_bound_collinear_equality():
    n = 4
    centers = [(2.0 * i, 0.0) for i in range(n)]
    rep = area_bound_check(DISK, centers)
    assert rep.symmetric
    assert rep.slack == pytest.approx(0.0, abs=1e-7)
    assert rep.slack >= -1e-7


def test_area_bound_lattice_blocks(rng):
    for _ in range(8):
        ref = random_symmetric_polygon(rng)
        centers = ts_lattice_subset(rng, ref, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        rep = area_bound_check(ref, centers)
        assert rep.slack >= -1e-7


def test_oler_equality_on_grid():
    from scipy.spatial import ConvexHull

    # the same grid scaled by 2^-20, exactly in binary: the verdict is the same
    for scale in (1.0, 2.0**-20):
        centers = scale * np.array([(2.0 * i, 2.0 * j) for i in range(3) for j in range(4)])
        loop = ConvexHull(centers).vertices
        rep = oler_check(ConvexBody.disk((0.0, 0.0), scale), centers, loop)
        assert not rep.degenerate
        assert rep.slack == pytest.approx(0.0, abs=1e-9)
        assert rep.holds


def test_oler_collinear_chain_equality():
    centers = np.array([(2.0 * i, 0.0) for i in range(5)])
    rep = oler_check(DISK, centers, [0, 4])
    assert rep.degenerate
    assert rep.enclosed_area == 0.0
    assert rep.slack == pytest.approx(0.0, abs=1e-9)


def test_oler_rejects_bad_input():
    with pytest.raises(GeometryError):
        oler_check(DISK, [(0.0, 0.0), (1.0, 0.0)], [0, 1])
    with pytest.raises(GeometryError):
        oler_check(DISK, [(0.0, 0.0), (2.0, 0.0), (20.0, 0.0)], [0, 1])
    with pytest.raises(GeometryError):
        oler_check(TRIANGLE, [(0.0, 0.0)], [0])


def test_oler_random_lattice_subsets(rng):
    for _ in range(12):
        ref = random_symmetric_polygon(rng)
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        centers = ts_lattice_subset(rng, ref, rows, cols)
        from scipy.spatial import ConvexHull

        loop = ConvexHull(centers).vertices
        rep = oler_check(ref, centers, loop)
        assert rep.slack >= -1e-7, (rows, cols, rep.slack)


def _plain_in_loop(p, poly, tol: float) -> bool:
    """Closed region bounded by a simple loop, in plain Python: within tol of
    an edge, else an odd number of edges crossing the ray to +x."""
    x, y = p
    m, inside = len(poly), False
    for e in range(m):
        (x1, y1), (x2, y2) = poly[e], poly[(e + 1) % m]
        dx, dy = x2 - x1, y2 - y1
        dd = dx * dx + dy * dy
        t = 0.0 if dd == 0.0 else min(1.0, max(0.0, ((x - x1) * dx + (y - y1) * dy) / dd))
        if math.hypot(x - (x1 + t * dx), y - (y1 + t * dy)) <= tol:
            return True
        if (y1 > y) != (y2 > y) and x1 + (y - y1) * (x2 - x1) / (y2 - y1) > x:
            inside = not inside
    return inside


def test_loop_membership_matches_plain_python(rng):
    for t in range(40):
        m = int(rng.integers(3, 12))
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        poly = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.3, 2.0, (m, 1))  # star-shaped, so simple
        if t % 2:
            poly = np.round(poly * 4.0) / 4.0  # edges through grid points, horizontal edges
        mids = 0.5 * (poly + np.roll(poly, -1, axis=0))
        pts = np.vstack([rng.uniform(-2.5, 2.5, (60, 2)), poly, mids, mids + rng.normal(size=mids.shape) * 1e-7])
        if t % 2:
            pts[:60] = np.round(pts[:60] * 4.0) / 4.0
        want = [_plain_in_loop(p, poly.tolist(), 1e-7) for p in pts.tolist()]
        assert _in_loop(pts, poly, 1e-7).tolist() == want
        assert any(want) and not all(want)


def test_minkowski_length_square_norm():
    loop = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
    assert minkowski_length(SQUARE, loop, closed=True) == pytest.approx(8.0, abs=1e-9)
    assert minkowski_length(DISK, loop, closed=False) == pytest.approx(6.0, abs=1e-9)


def test_radon_mixed_area_random(rng):
    for _ in range(20):
        k = random_symmetric_polygon(rng)
        q = random_convex_polygon(rng, k=7)
        rep = radon_mixed_area_check(k, q.vertices)
        assert rep.slack >= -1e-7
    with pytest.raises(GeometryError):
        radon_mixed_area_check(TRIANGLE, SQUARE.vertices)


def test_sns_perimeter_collinear_equality():
    for n in (2, 7, 23):
        centers = [(2.0 * i, 0.0) for i in range(n)]
        rep = sns_perimeter_check(centers)
        assert rep.bound == pytest.approx(2.0 * math.pi + 4.0 * n - 4.0, abs=1e-12)
        assert rep.perimeter == pytest.approx(rep.bound, abs=1e-9)
        assert rep.equality
        assert rep.mean_width == pytest.approx(rep.perimeter / math.pi, abs=1e-12)


def test_sns_perimeter_random_families(rng):
    for _ in range(15):
        centers = sns_disk_centers(rng, int(rng.integers(2, 10)))
        rep = sns_perimeter_check(centers)
        assert rep.slack >= -1e-9
        assert rep.mean_width <= rep.mean_width_bound + 1e-9


def test_sns_perimeter_ordering_is_that_of_is_sns(rng):
    """The ordering found is is_sns's on the unit disks, on families built
    SNS and on uniform ones, which is_sns may refuse; a given ordering whose
    next disk misses the previous hull is refused by name."""
    refused = 0
    for k in range(60):
        n = int(rng.integers(2, 9))
        centers = sns_disk_centers(rng, n) if k % 2 else rng.uniform(-2.0 * n, 2.0 * n, (n, 2))
        want = is_sns([ConvexBody.disk(c, 1.0) for c in centers])
        if want.is_sns:
            assert sns_perimeter_check(centers).ordering == want.ordering
        else:
            refused += 1
            with pytest.raises(GeometryError, match="no ordering attaches every disk"):
                sns_perimeter_check(centers)
    assert refused >= 5
    chain = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
    assert sns_perimeter_check(chain, ordering=(1, 2, 0)).ordering == (1, 2, 0)
    with pytest.raises(GeometryError, match="ordering is not successive: disk 2 misses the previous hull"):
        sns_perimeter_check(chain, ordering=(0, 2, 1))


def test_three_disk_predicates():
    tight = 2.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    assert three_disk_non_separable(tight)
    assert not three_disk_non_separable([(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)])
    area_, per, width, inr = three_disk_hull_metrics([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    assert area_ == pytest.approx(math.pi + 8.0, abs=1e-7)
    assert per == pytest.approx(2.0 * math.pi + 8.0, abs=1e-7)
    assert width == pytest.approx(2.0, abs=1e-9)
    assert inr == pytest.approx(1.0, abs=1e-9)


def test_three_disk_hull_metrics_refuses_bad_centers():
    """Non-finite centers or a wrong shape raise before any arithmetic
    warns, as three_disk_non_separable does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="finite"):
            three_disk_hull_metrics([[0.0, 0.0], [2.0, 0.0], [math.inf, 0.0]])
        with pytest.raises(GeometryError, match="three centers"):
            three_disk_hull_metrics([[0.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_packing_entries_refuse_non_finite_input(bad):
    """Each entry raises by name on a non-finite coordinate, before any
    arithmetic warns, instead of answering from it."""
    row = [[0.0, 0.0], [bad, 0.0], [4.0, 0.0]]
    checks = [
        lambda: contact_graph(SQUARE, row),
        lambda: is_rho_separable(SQUARE, row, 3.0),
        lambda: TranslatePacking(SQUARE, row).validate(),
        lambda: oler_check(SQUARE, row, [0, 1, 2]),
        lambda: area_bound_check(SQUARE, row),
        lambda: window_density([[0.0, 0.0]], 1.0, [bad, 0.0], [1.0, 1.0]),
        lambda: window_density([[0.0, 0.0]], bad, [0.0, 0.0], [1.0, 1.0]),
        lambda: window_density(row, 1.0, [0.0, 0.0], [1.0, 1.0]),
        lambda: translate_gauge(SQUARE, (bad, 0.0)),
        lambda: minkowski_length(SQUARE, [[0.0, 0.0], [2.0, 0.0], [bad, 1.0], [0.0, 2.0]]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in checks:
            with pytest.raises(GeometryError, match="must be finite"):
                check()


def test_three_disk_extrema_branches():
    rep = three_disk_extrema()
    assert rep.perimeter.value == pytest.approx(2.0 * math.pi + 8.0, abs=1e-14)
    assert rep.perimeter.gamma == math.pi and rep.perimeter.branch == "obtuse"
    assert rep.width.value == pytest.approx(4.0, abs=1e-14)
    assert rep.area.value == pytest.approx(math.pi + 16.0 * math.sqrt(3.0) / 3.0, abs=1e-14)
    assert rep.area.gamma == pytest.approx(math.pi / 3.0, abs=1e-15) and rep.area.branch == "acute"
    assert rep.area.value > math.pi + 4.0 + 3.0 * math.sqrt(3.0)  # beats the obtuse peak
    assert rep.inradius.value == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert rep.flags and any("16*sqrt(3)/3" in f for f in rep.flags)


def test_contact_graph_grid():
    centers = [(2.0 * i, 2.0 * j) for i in range(3) for j in range(3)]
    g = contact_graph(DISK, centers)
    assert g.count == 12
    assert sorted(g.degrees)[-1] == 4


def test_contact_graph_of_a_spiral_moves_with_it(rng):
    """A square spiral of unit-diameter disks on lattice points, and the same
    spiral rotated and translated off the lattice, have the same contacts."""
    half = ConvexBody.disk((0.0, 0.0), 0.5)
    for n in (16, 30, 100):
        spiral = polyomino_packing(n)
        want = contact_graph(half, spiral.centers)
        assert want.count == spiral.contacts
        for _ in range(5):
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            got = contact_graph(half, spiral.centers @ rot.T + rng.uniform(-1e3, 1e3, 2))
            assert got.edges == want.edges
            assert got.degrees.tolist() == want.degrees.tolist()


def test_crystallization_table():
    want = [0, 1, 2, 4, 5, 7, 8, 10, 12, 13, 15, 17, 18]
    got = [crystallization_bound(n, 2) for n in range(1, 14)]
    assert got == want
    assert crystallization_bound(100, 2) == 180
    assert crystallization_bound(1000, 3, mode="hales") == 2879
    assert crystallization_bound(1000, 3, mode="rogers", density=0.7547) == 2879
    with pytest.raises(ValueError):
        crystallization_bound(10, 3, mode="rogers")
    with pytest.raises(ValueError):
        crystallization_bound(10, 4, mode="hales")


def test_spiral_packing_tight_up_to_100():
    for n in range(2, 101):
        pk = polyomino_packing(n)
        assert pk.contacts == pk.bound == crystallization_bound(n, 2), n
        assert pk.tight
    pts = ulam_spiral(9)
    assert len(np.unique(pts, axis=0)) == 9


def test_brute_force_matches_formula():
    res = brute_force_lattice_contact(9)
    for n in range(2, 10):
        assert res.max_contacts[n] == crystallization_bound(n, 2), n
    assert res.counts[4] == 19 and res.counts[9] == 9910
    with pytest.raises(ValueError):
        brute_force_lattice_contact(13)


def test_lattice_contact_bounds_meet_at_powers():
    b = lattice_contact_bounds(2, 9)
    assert b.exact and b.lower == b.upper == 12
    b = lattice_contact_bounds(3, 8)
    assert b.exact and b.lower == b.upper == 12
    b = lattice_contact_bounds(3, 9)
    assert not b.exact and b.lower <= b.upper


def test_simplex_vertices_edge_two():
    for d in (2, 3, 4):
        v = simplex_vertices(d)
        assert v.shape == (d + 1, d)
        diff = v[:, None, :] - v[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        off = dist[~np.eye(d + 1, dtype=bool)]
        assert np.allclose(off, 2.0, atol=1e-9)


def test_rogers_sigma_plane_matches_closed_form():
    est = rogers_sigma(2, samples=400_000, seed=3)
    assert est.value == pytest.approx(math.pi / math.sqrt(12.0), abs=4.0 * est.stderr + 1e-3)
    e3 = rogers_sigma(3, samples=200_000, seed=3)
    assert e3.value < est.value  # sigma decreases with dimension


def test_kertesz_no_cut_equality():
    p = GuillotinePartition(np.zeros(3), np.ones(3), (), (((0.5, 0.5, 0.5), 0.5),))
    rep = kertesz_check(p)
    assert rep.total_surface == pytest.approx(rep.surface_bound, abs=1e-9)
    assert rep.volume == pytest.approx(rep.volume_bound, abs=1e-12)
    assert rep.holds_surface and rep.holds_volume


def test_kertesz_half_cube():
    cut = PlaneCut(cell=0, normal=np.array([0.0, 0.0, 1.0]), offset=1.0)
    balls = (((1.0, 1.0, 0.5), 0.5), ((1.0, 1.0, 1.5), 0.5))
    p = GuillotinePartition(np.zeros(3), 2.0 * np.ones(3), (cut,), balls)
    rep = kertesz_check(p)
    assert rep.n_cells == 2
    assert rep.total_surface == pytest.approx(32.0, abs=1e-7)
    assert rep.surface_bound == pytest.approx(12.0, abs=1e-12)
    assert rep.holds_surface and rep.holds_volume
    # the same partition scaled to side 2e-7, where an absolute tolerance
    # lets each ball fit in both cells
    s = 1e-7
    small = kertesz_check(GuillotinePartition(
        np.zeros(3), 2.0 * s * np.ones(3), (PlaneCut(0, cut.normal, s),),
        tuple((s * np.array(c), s * r) for c, r in balls),
    ))
    assert small.total_surface == pytest.approx(32.0 * s * s, rel=1e-9)
    assert small.holds_surface and small.holds_volume


def test_kertesz_rejects_bad_partitions():
    with pytest.raises(GeometryError):
        kertesz_check(
            GuillotinePartition(np.zeros(3), np.array([1.0, 1.0, 2.0]), (), ())
        )
    cut = PlaneCut(cell=0, normal=np.array([1.0, 0.0, 0.0]), offset=0.5)
    with pytest.raises(GeometryError):
        # ball bigger than its cell
        kertesz_check(
            GuillotinePartition(
                np.zeros(3), np.ones(3), (cut,), (((0.25, 0.5, 0.5), 0.4), ((0.75, 0.5, 0.5), 0.4))
            )
        )
    # the half cube scaled to side 2e-5, with a ball leaving its cell by 1 % of
    # its radius
    s = 1e-5
    half = PlaneCut(0, np.array([0.0, 0.0, 1.0]), s)
    with pytest.raises(GeometryError):
        kertesz_check(
            GuillotinePartition(
                np.zeros(3), 2.0 * s * np.ones(3), (half,),
                ((s * np.array([1.0, 1.0, 0.495]), 0.5 * s), (s * np.array([1.0, 1.0, 1.5]), 0.5 * s)),
            )
        )


def test_kertesz_random_partitions(rng):
    for _ in range(12):
        part = random_guillotine(rng, int(rng.integers(1, 7)))
        rep = kertesz_check(part)
        assert rep.holds_surface and rep.holds_volume
        assert rep.n_cells == len(part.cuts) + 1


def test_cell_measures_match_qhull(rng):
    """Random cells of 4-15 oblique planes inside a box, about a random
    center: vertex enumeration gives Qhull's surface and volume."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    for _ in range(200):
        k = int(rng.integers(4, 16))
        normals = rng.normal(size=(k, 3))
        normals = np.vstack([normals / np.linalg.norm(normals, axis=1)[:, None], np.eye(3), -np.eye(3)])
        center = rng.normal(size=3)
        offsets = np.r_[rng.uniform(0.2, 2.0, k), np.full(6, 3.0)] + normals @ center
        surface, volume = _cell_measures(normals, offsets, center)
        hull = ConvexHull(HalfspaceIntersection(np.c_[normals, -offsets], center).intersections)
        assert surface == pytest.approx(hull.area, rel=1e-12)
        assert volume == pytest.approx(hull.volume, rel=1e-12)
    # a slab of no thickness has no volume
    flat = np.vstack([np.eye(3), -np.eye(3)])
    assert _cell_measures(flat, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0]), np.zeros(3))[1] == 0.0


def _difference_test_polygons(rng, count: int):
    """count strictly convex polygons, in turn: hulls of random points,
    o-symmetric hulls, rotated regular k-gons, and points on random ellipses
    (o-symmetric in every other one) rounded to 3-9 decimals; each scaled by
    1e-6 to 1e6, and every other one moved by up to 1e3."""
    out = []
    while len(out) < count:
        kind, k = len(out) % 5, int(rng.integers(3, 25))
        if kind == 0:
            pts = rng.normal(size=(k + 3, 2))
        elif kind == 1:
            pts = rng.normal(size=(k, 2))
            pts = np.vstack([pts, -pts])
        elif kind == 2:
            ang = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(k) / k
            pts = np.c_[np.cos(ang), np.sin(ang)]
        else:
            ang = np.sort(rng.uniform(0.0, math.pi if kind == 4 else 2.0 * math.pi, k))
            if kind == 4:
                ang = np.concatenate([ang, ang + math.pi])
            ellipse = np.c_[np.cos(ang), rng.uniform(0.1, 1.0) * np.sin(ang)] @ rng.normal(size=(2, 2))
            pts = np.round(ellipse, int(rng.integers(3, 10)))
        pts = pts * 10.0 ** rng.uniform(-6.0, 6.0) + rng.uniform(-1e3, 1e3, 2) * (len(out) % 2)
        try:
            out.append(ConvexBody.polygon(_strict_hull(pts)))
        except GeometryError:
            continue
    return out


def _differences_outside(body: ConvexBody, v) -> float:
    """How far the k^2 differences of the vertices v stick out of body, over
    their largest coordinate."""
    diffs = (v[None, :, :] - v[:, None, :]).reshape(-1, 2)
    normals, offsets = polygon_facets(body)
    return float((diffs @ normals.T - offsets).max() / np.abs(diffs).max())


def _thin_58gon() -> ConvexBody:
    """A thin o-symmetric 58-gon, ellipse points rounded to a few decimals."""
    ellipse = np.random.default_rng(308)
    ang = np.sort(ellipse.uniform(0.0, math.pi, int(ellipse.integers(12, 40))))
    ang = np.concatenate([ang, ang + math.pi])
    pts = np.c_[np.cos(ang), 0.15 * np.sin(ang)] @ np.array([[0.8, 0.6], [-0.6, 0.8]])
    return ConvexBody.polygon(_strict_hull(np.round(pts, int(ellipse.integers(3, 10)))))


def test_difference_body_is_the_hull_of_all_differences(rng):
    """difference_body hulls only the <= 2k differences of _pair_table. Its
    vertices are differences of vertices of K and all k^2 differences lie in
    it to rounding. The hull of all k^2 (through ConvexBody.polygon) gives
    the same vertices and gauges bit for bit wherever it holds them all too.
    It can fail to: on a thin o-symmetric 58-gon its chain drops a vertex of
    K - K that sticks out of it by 1e-8 of the extent."""
    thin = _thin_58gon()
    same = 0
    for body in _difference_test_polygons(rng, 1200) + [thin]:
        v = body.vertices
        diffs = (v[None, :, :] - v[:, None, :]).reshape(-1, 2)
        got, want = difference_body(body), ConvexBody.polygon(_strict_hull(diffs))
        assert {tuple(p) for p in got.vertices.tolist()} <= {tuple(p) for p in diffs.tolist()}
        assert _differences_outside(got, v) <= 1e-13
        if _differences_outside(want, v) <= 1e-13:
            deltas = rng.normal(size=(40, 2)) * np.abs(v).max()
            assert got.vertices.tobytes() == want.vertices.tobytes()
            assert _gauges(got, deltas).tolist() == _gauges(want, deltas).tolist()
            same += 1
    assert len(thin.vertices) == 58 and _differences_outside(want, thin.vertices) > 1e-8
    assert same >= 1000


def test_minkowski_sum_keeps_every_vertex(rng):
    """minkowski_sum_polygons sums the lowest vertices of P and Q per cell
    of their common normal fan: at most k1 + k2 vertex sums, a convex
    counter-clockwise cycle, and every one of the k1 k2 sums lies in it to
    rounding, also on the thin 58-gon whose hull of all sums drops one."""
    unit = [b.vertices - b.vertices.mean(axis=0) for b in _difference_test_polygons(rng, 400)]
    unit = [v / np.abs(v).max() for v in unit]
    thin = _thin_58gon().vertices
    pairs = [(thin, -thin), (thin, thin)] + list(zip(unit[::2], unit[1::2]))
    pairs += [(v, -v) for v in unit[:100]] + [(thin, v) for v in unit[:100]]
    for p, q in pairs:
        s = minkowski_sum_polygons(p, q)
        sums = (p[None, :, :] + q[:, None, :]).reshape(-1, 2)
        assert {tuple(x) for x in s.tolist()} <= {tuple(x) for x in sums.tolist()}
        assert len(s) <= len(p) + len(q)
        edges = np.roll(s, -1, axis=0) - s
        length = np.hypot(edges[:, 0], edges[:, 1])
        turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        assert (length > 0.0).all() and (turns >= -1e-13 * length * np.roll(length, -1)).all()
        normals = np.c_[edges[:, 1], -edges[:, 0]] / length[:, None]
        outside = (sums @ normals.T - np.einsum("ij,ij->i", normals, s)).max()
        assert outside <= 1e-13 * np.abs(sums).max()


def _random_translates(rng, ref: ConvexBody, n: int) -> np.ndarray:
    """n random translates of the o-symmetric ref that do not overlap, with a
    touching 2 x 2 lattice block of it beside them."""
    cs = np.empty((0, 2))
    while len(cs) < n:
        c = rng.uniform(-6.0, 6.0, 2)
        if not len(cs) or _gauges(ref, cs - c).min() >= 2.0:
            cs = np.vstack([cs, c])
    return np.vstack([cs, ts_lattice_subset(rng, ref, 2, 2) + 20.0])


def test_pair_gauges_equal_minkowski_norm(rng):
    """_translate_gauges gives the near pairs of translates, every pair
    within translate gauge 2 + tol among them, and their gauges through the
    difference body, which for an o-symmetric reference are its own gauges
    to the bit. Overlapping translates are refused by name."""
    for ref in [DISK, SQUARE] + [random_symmetric_polygon(rng) for _ in range(6)]:
        cs = _random_translates(rng, ref, 9)
        i, j = np.triu_indices(len(cs), 1)
        deltas = cs[j] - cs[i]
        assert _gauges(ref, deltas).tolist() == [minkowski_norm(ref, d) for d in deltas]
        diff = difference_body(ref)
        gauges = {(a, b): 2.0 * minkowski_norm(diff, d) for a, b, d in zip(i.tolist(), j.tolist(), deltas)}
        ni, nj, g = _translate_gauges(ref, cs, 1.0, 1e-9)
        pairs = list(zip(ni.tolist(), nj.tolist()))
        # near pairs in np.triu_indices order, every pair within gauge 2 + tol among them
        assert pairs == sorted(set(pairs)) and all(a < b for a, b in pairs)
        assert {p for p, x in gauges.items() if x <= 2.0 + 1e-9} <= set(pairs)
        assert g.tolist() == [gauges[p] for p in pairs]
        assert g.tolist() == _gauges(ref, cs[nj] - cs[ni]).tolist()
        assert (g <= 2.0 + 1e-9).sum() >= 4
        with pytest.raises(GeometryError, match="members 1 and 2 overlap"):
            _translate_gauges(ref, cs[[0, 1]].repeat([1, 2], axis=0), 1.0, 1e-9)

