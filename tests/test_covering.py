"""Covering homothets: weighted-centroid cover, minimal ratio, hull bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ns_family, random_reference, random_symmetric_polygon, spanning_dual
from sepgeom.bodies import ConvexBody, GeometryError, HomothetFamily, polygon_facets
from sepgeom.covering import (
    build_triangle_counterexample,
    facet_parallel_cover_check,
    goodman_goodman_cover,
    hadwiger_check,
    min_cover_ratio,
)
from sepgeom.measures import inscribed_disk
from sepgeom.separability import is_non_separable

LAMBDA_TRIANGLE = 2.0 / 3.0 + 2.0 / (3.0 * math.sqrt(3.0))


def unit_disk_family(centers):
    ref = ConvexBody.disk((0.0, 0.0), 1.0)
    return HomothetFamily(ref, centers, np.ones(len(centers)))


def test_gg_two_tangent_disks():
    fam = unit_disk_family([(0.0, 0.0), (2.0, 0.0)])
    cover = goodman_goodman_cover(fam)
    assert cover.contains_all
    assert np.allclose(cover.center, [1.0, 0.0], atol=1e-9)
    assert cover.ratio == pytest.approx(2.0, abs=1e-9)


def test_gg_collinear_chain_tight():
    n = 5
    fam = unit_disk_family([(2.0 * i, 0.0) for i in range(n)])
    cover = goodman_goodman_cover(fam)
    assert cover.contains_all
    assert cover.ratio == pytest.approx(float(n), abs=1e-9)
    best = min_cover_ratio(fam)
    assert best.normalized == pytest.approx(1.0, abs=1e-7)


def test_single_member():
    fam = unit_disk_family([(3.0, -1.0)])
    cover = goodman_goodman_cover(fam)
    assert cover.contains_all and cover.ratio == pytest.approx(1.0, abs=1e-12)
    assert min_cover_ratio(fam).normalized == pytest.approx(1.0, abs=1e-9)


def test_gg_rejects_asymmetric_reference():
    tri = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])
    fam = HomothetFamily(tri, [(0.0, 0.0)], [1.0])
    with pytest.raises(GeometryError):
        goodman_goodman_cover(fam)


def test_random_ns_families_covered(rng):
    for _ in range(30):
        fam = ns_family(rng, random_reference(rng), int(rng.integers(2, 8)))
        cover = goodman_goodman_cover(fam)
        assert cover.contains_all, "weighted-centroid cover must contain an NS-family"
        best = min_cover_ratio(fam)
        assert best.normalized <= 1.0 + 1e-7
        assert best.contains_all


def test_cover_ratio_similarity_invariant(rng):
    ref = random_symmetric_polygon(rng)
    fam = ns_family(rng, ref, 5)
    lam = min_cover_ratio(fam).normalized
    shifted = HomothetFamily(
        ref, np.asarray(fam.centers) * 3.0 + np.array([10.0, -4.0]), np.asarray(fam.ratios) * 3.0
    )
    assert min_cover_ratio(shifted).normalized == pytest.approx(lam, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(0.0, 2.0 * math.pi),
    log_scale=st.floats(-6.0, 6.0),
    shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_covers_do_not_change_under_similarities(seed, angle, log_scale, shift):
    """A non-separable family of homothets of a random o-symmetric polygon
    or disk keeps, under rotation, scaling by 1e-6 to 1e6 and translation
    by up to 1e6 min(1, scale), whether its weighted-centroid and minimal
    covers contain it, and their ratios to 1e-9."""
    rng = np.random.default_rng(seed)
    fam = ns_family(rng, random_reference(rng), int(rng.integers(2, 9)))
    scale = 10.0**log_scale
    c, s = math.cos(angle), math.sin(angle)
    moved = fam.transform(scale * np.array([[c, -s], [s, c]]), 1e6 * min(1.0, scale) * np.array(shift))
    for cover in (goodman_goodman_cover, min_cover_ratio):
        want, got = cover(fam), cover(moved)
        assert got.contains_all == want.contains_all
        assert got.ratio == pytest.approx(want.ratio, rel=1e-9, abs=0.0)


def test_triangle_counterexample_value():
    fam = build_triangle_counterexample(3)
    assert len(fam) == 3
    assert is_non_separable(fam, samples=1024).non_separable
    best = min_cover_ratio(fam)
    assert best.normalized == pytest.approx(LAMBDA_TRIANGLE, abs=1e-6)
    assert best.normalized > 1.0
    with pytest.raises(GeometryError):
        build_triangle_counterexample(2)


def test_triangle_counterexample_larger_n():
    fam = build_triangle_counterexample(5)
    assert len(fam) == 5
    assert is_non_separable(fam, samples=1024).non_separable
    assert min_cover_ratio(fam).normalized > 1.0


def test_hadwiger_two_disks():
    fam = unit_disk_family([(0.0, 0.0), (2.0, 0.0)])
    rep = hadwiger_check(fam)
    assert rep.perimeter_hull == pytest.approx(2.0 * math.pi + 4.0, abs=1e-12)
    assert rep.perimeter_sum == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert rep.holds


def test_hadwiger_collinear_circumradius_tight():
    fam = unit_disk_family([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    rep = hadwiger_check(fam)
    assert rep.circumradius_hull == pytest.approx(3.0, abs=1e-7)
    assert rep.circumradius_sum == pytest.approx(3.0, abs=1e-9)
    assert min(rep.slacks()) >= -1e-6


def test_hadwiger_rejects_separable():
    fam = unit_disk_family([(0.0, 0.0), (10.0, 0.0)])
    with pytest.raises(GeometryError):
        hadwiger_check(fam)


def test_hadwiger_rejects_polytopes():
    cube = ConvexBody.polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    fam = HomothetFamily(cube, np.array([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)]), np.ones(2))
    with pytest.raises(GeometryError, match="planar"):
        hadwiger_check(fam)


def test_hadwiger_random_ns(rng):
    for _ in range(10):
        fam = ns_family(rng, random_reference(rng), int(rng.integers(2, 6)))
        assert min(hadwiger_check(fam).slacks()) >= -1e-5


def test_facet_parallel_triangle_families(rng):
    tri = ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    for _ in range(15):
        fam = ns_family(rng, tri, int(rng.integers(2, 7)))
        rep = facet_parallel_cover_check(fam)
        assert rep.condition_holds, "overlapping chains cannot leave facet gaps"
        assert rep.within_bound
        assert rep.cover.normalized <= 1.5 + 1e-7


def test_facet_parallel_counterexample_within_bound():
    fam = build_triangle_counterexample(3)
    rep = facet_parallel_cover_check(fam)
    assert rep.condition_holds
    assert rep.cover.normalized == pytest.approx(LAMBDA_TRIANGLE, abs=1e-6)
    assert rep.within_bound


def test_facet_parallel_detects_gap():
    tri = ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    fam = HomothetFamily(tri, [(0.0, 0.0), (9.0, 0.0)], [1.0, 1.0])
    rep = facet_parallel_cover_check(fam)
    assert not rep.condition_holds
    assert max(rep.facet_gaps) > 1.0
    with pytest.raises(GeometryError):
        facet_parallel_cover_check(
            HomothetFamily(ConvexBody.disk((0, 0), 1.0), [(0.0, 0.0)], [1.0])
        )


def test_facet_parallel_condition_does_not_change_with_scale():
    """The facet gaps compare with the family's tolerance, as the covers do:
    two unit equilateral triangles 3 apart leave a gap and two touching ones
    do not, at every scale 2^k, reference and centers scaled together."""
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    for k in (-40, -20, 0, 20):
        s = 2.0**k
        apart, touching = (
            facet_parallel_cover_check(HomothetFamily(ConvexBody.polygon(s * tri), [(0.0, 0.0), (d * s, 0.0)], [1.0, 1.0]))
            for d in (3.0, 1.0)
        )
        assert not apart.condition_holds and max(apart.facet_gaps) == pytest.approx(s * math.sqrt(3.0)), k
        assert touching.condition_holds and touching.cover.contains_all, k


def _highs_cover_ratio(fam) -> float:
    """The cover program as HiGHS solves it: every member vertex against every
    facet of K - g, over the cover's translate t' and ratio mu >= 0."""
    from scipy.optimize import linprog

    k = fam.reference
    normals, offsets = polygon_facets(ConvexBody.polygon(k.vertices - k.centroid()))
    pts = (fam.centers[:, None, :] + fam.ratios[:, None, None] * k.vertices).reshape(-1, 2)
    a_ub = np.vstack([np.column_stack([-np.tile(nf, (len(pts), 1)), np.full(len(pts), -hf)])
                      for nf, hf in zip(normals, offsets)])
    b_ub = np.concatenate([-(pts @ nf) for nf in normals])
    res = linprog([0.0, 0.0, 1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert res.success
    return float(res.x[2])


def _highs_inradius(body) -> float:
    from scipy.optimize import linprog

    normals, offsets = polygon_facets(body)
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([normals, np.ones(len(normals))]),
                  b_ub=offsets, bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert res.success
    return float(res.x[2])


def _random_polygon(rng) -> ConvexBody:
    """3-12 points on an ellipse of axis ratio 0.3-1, at least 0.05 rad apart."""
    m = int(rng.integers(3, 13))
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        if np.diff(np.append(ang, ang[0] + 2.0 * math.pi)).min() > 0.05:
            break
    pts = np.column_stack([np.cos(ang), rng.uniform(0.3, 1.0) * np.sin(ang)])
    turn = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return ConvexBody.polygon(pts @ rot.T + rng.normal(size=2))


def _random_members(rng, ref, n: int) -> HomothetFamily:
    return HomothetFamily(ref, 3.0 * rng.normal(size=(n, 2)), rng.uniform(0.2, 2.0, n))


def _regular(m: int, radius: float = 1.0) -> ConvexBody:
    ang = 2.0 * math.pi * np.arange(m) / m
    return ConvexBody.polygon(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def test_cover_and_inradius_match_highs(rng):
    square = ConvexBody.polygon([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    cases = [_random_members(rng, _random_polygon(rng), int(rng.integers(2, 33)))
             for _ in range(300)]
    for ref in (square, _regular(6)):
        cases += [_random_members(rng, ref, int(rng.integers(2, 33))) for _ in range(20)]
        cases.append(_random_members(rng, ref, 1))
    base = cases[0]
    cases.append(HomothetFamily(base.reference, np.tile(base.centers[:1], (5, 1)),
                                np.full(5, base.ratios[0])))
    cases.append(HomothetFamily(base.reference, np.tile(base.centers[:1], (4, 1)),
                                [0.5, 1.0, 2.0, 1.0]))
    for fam in cases:
        cover = min_cover_ratio(fam)
        assert cover.contains_all and cover.method == "facet-vertices"
        assert cover.ratio == pytest.approx(_highs_cover_ratio(fam), rel=1e-12, abs=0.0)
        _, r = inscribed_disk(fam.reference)
        assert r == pytest.approx(_highs_inradius(fam.reference), rel=1e-12, abs=0.0)
    # far away and far from unit size, against HiGHS on the input as stored
    # (rounded once), moved back exactly to unit size at the origin; the
    # containment tolerance is absolute, so it scales with the family
    for fam in cases[:40]:
        for shift, scale in ((1e6, 1.0), (0.0, 1e-6), (0.0, 1e6)):
            ref = ConvexBody.polygon(scale * fam.reference.vertices)
            moved = HomothetFamily(ref, scale * fam.centers + shift, fam.ratios)
            back = HomothetFamily(fam.reference, (moved.centers - shift) / scale, fam.ratios)
            cover = min_cover_ratio(moved, tol=1e-9 * scale)
            assert cover.contains_all
            assert cover.ratio == pytest.approx(_highs_cover_ratio(back), rel=1e-12, abs=0.0)
            far = ConvexBody.polygon(ref.vertices + shift)
            near = ConvexBody.polygon((far.vertices - shift) / scale)
            want = scale * _highs_inradius(near)
            assert inscribed_disk(far)[1] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_inradius_of_a_512_gon():
    for circumradius in (1.0, 3.0):
        _, r = inscribed_disk(_regular(512, circumradius))
        assert r == pytest.approx(math.cos(math.pi / 512) * circumradius, rel=1e-12, abs=0.0)


def _dual_cover_ratio(fam) -> float:
    """The largest cover ratio any facet triple or antiparallel pair of K
    forces, enumerated exactly: t + mu K covers member x + tau K iff
    n . t + mu h_K(n) >= n . x + tau h_K(n) on every facet normal n."""
    k = fam.reference
    normals, _ = polygon_facets(k)
    h = (normals @ k.vertices.T).max(axis=1)
    need = (fam.centers @ normals.T + fam.ratios[:, None] * h).max(axis=0)
    return -spanning_dual(-normals, -need, h)


def _check_cover(fam, want: float, center=None) -> None:
    cover = min_cover_ratio(fam)
    assert cover.contains_all and cover.method == "facet-vertices"
    assert cover.ratio == pytest.approx(want, rel=1e-12, abs=0.0)
    if center is not None:
        assert np.abs(cover.center - center).max() <= 1e-12 * max(1.0, float(np.abs(center).max()))


def _random_facets(rng, m: int) -> ConvexBody:
    """m points on a random ellipse, at least 0.05 rad apart: m facets."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        if np.diff(np.append(ang, ang[0] + 2.0 * math.pi)).min() > 0.05:
            pts = np.column_stack([np.cos(ang), rng.uniform(0.3, 1.0) * np.sin(ang)])
            return ConvexBody.polygon(pts + rng.normal(size=2))


def test_cover_ratio_is_the_dual_maximum(rng):
    """On polygons of 3-16 facets and random families of 1-12 members the
    ratio equals the enumerated dual maximum."""
    for _ in range(120):
        ref = _random_facets(rng, int(rng.integers(3, 17)))
        fam = _random_members(rng, ref, int(rng.integers(1, 13)))
        _check_cover(fam, _dual_cover_ratio(fam))


def test_cover_ties(rng):
    """Covers where many events tie or the optimum is not unique: symmetric
    families of regular k-gons, square and rectangle families whose optimal
    centers form a segment, coincident members and single members."""
    for k in (3, 4, 5, 6, 8, 12, 16):
        ref = _regular(k)
        turn = 2.0 * math.pi / k
        for radius in (0.0, 0.5, 3.0):
            # the orbit of one point under the k-gon's rotations, all of ratio 1
            ang = turn * np.arange(k) + 0.3
            fam = HomothetFamily(ref, radius * np.column_stack([np.cos(ang), np.sin(ang)]), np.ones(k))
            _check_cover(fam, _dual_cover_ratio(fam))
    for half_w, half_h in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.25)):
        ref = ConvexBody.polygon([[-half_w, -half_h], [half_w, -half_h], [half_w, half_h], [-half_w, half_h]])
        # two unit copies 3 apart along y: ratio (2 half_h + 3) / (2 half_h),
        # and the center is free along x
        fam = HomothetFamily(ref, [[0.0, 0.0], [0.0, 3.0]], [1.0, 1.0])
        _check_cover(fam, (2.0 * half_h + 3.0) / (2.0 * half_h))
        fam = HomothetFamily(ref, [[0.0, 0.0], [0.5, 3.0], [-1.0, 1.0]], [1.0, 0.5, 2.0])
        _check_cover(fam, _dual_cover_ratio(fam))
    for ref in (_random_facets(rng, 7), _regular(6), _regular(4)):
        x = rng.normal(size=2)
        _check_cover(HomothetFamily(ref, np.tile(x, (5, 1)), np.full(5, 0.7)), 0.7, x)
        fam = HomothetFamily(ref, np.tile(x, (3, 1)), [0.5, 2.0, 1.0])
        _check_cover(fam, _dual_cover_ratio(fam))
        _check_cover(HomothetFamily(ref, [x], [1.5]), 1.5, x)


def test_inscribed_center_lies_in_the_polygon(rng):
    """The inscribed center is at distance at least r from every facet line,
    to round-off, also where it is not unique (rectangles)."""
    bodies = [_random_facets(rng, int(rng.integers(3, 17))) for _ in range(100)]
    bodies += [_regular(k, 2.0) for k in (3, 4, 6, 12, 512)]
    bodies += [ConvexBody.polygon([[0.0, 0.0], [w, 0.0], [w, 1.0], [0.0, 1.0]]) for w in (1.0, 2.0, 1e3)]
    for body in bodies:
        x, r = inscribed_disk(body)
        normals, offsets = polygon_facets(body)
        assert (normals @ x + r - offsets).max() <= 1e-12 * float(np.abs(body.vertices).max())
        if len(offsets) <= 16:
            assert r == pytest.approx(spanning_dual(normals, offsets, np.ones(len(offsets))), rel=1e-12, abs=0.0)


def test_cover_ratio_is_scale_and_translation_invariant():
    """Square and hexagon families scaled by 1e-12 to 1e12, and moved by 1e6
    (exactly, on dyadic centers), keep the unit-size ratio and cover at the
    default tolerance."""
    centers = np.array([[0.0, 0.0], [2.5, 0.5], [1.0, 2.0], [-0.5, 1.5]])
    ratios = np.array([1.0, 0.5, 0.75, 0.25])
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    for verts in (square, _regular(6).vertices):
        unit = HomothetFamily(ConvexBody.polygon(verts), centers, ratios)
        want, gg = min_cover_ratio(unit).ratio, goodman_goodman_cover(unit).contains_all
        moved = [(10.0**e, 0.0) for e in range(-12, 13)] + [(1.0, 1e6), (1.0, -1e6)]
        for scale, shift in moved:
            fam = HomothetFamily(ConvexBody.polygon(scale * verts), scale * centers + shift, ratios)
            cover = min_cover_ratio(fam)
            assert cover.contains_all
            assert cover.ratio == pytest.approx(want, rel=1e-12, abs=0.0)
            assert goodman_goodman_cover(fam).contains_all == gg


# nine unit disks on a ring: the enclosing disk rests on three of them
RING9 = np.round(3.0 * np.c_[np.cos(np.arange(9) * 2 * math.pi / 9), np.sin(np.arange(9) * 2 * math.pi / 9)], 3)


def test_disk_cover_ratio_is_scale_and_translation_invariant(rng):
    """Disk families scaled by 1e-9 to 1e9 keep the unit-size normalized
    ratio to 1e-12 and cover; moved by 1e6 they keep ratio and center to the
    round-off of their largest coordinate. The ring at 1e-8 raised
    "enclosing disk search failed" while the scale was floored at 1."""
    eps = np.finfo(float).eps
    families = [(RING9, np.ones(9), (0.0, 0.0), 1.0)]
    for _ in range(20):
        n = int(rng.integers(2, 30))
        center = tuple(rng.normal(size=2) * 0.3)
        families.append((rng.normal(size=(n, 2)) * 3.0, rng.uniform(0.3, 1.5, n), center, 0.8))
    for centers, ratios, k_center, k_radius in families:
        base = min_cover_ratio(HomothetFamily(ConvexBody.disk(k_center, k_radius), centers, ratios))
        for e in range(-9, 10, 3):
            s = 10.0**e
            ref = ConvexBody.disk(np.multiply(k_center, s), k_radius * s)
            cover = min_cover_ratio(HomothetFamily(ref, s * centers, ratios))
            assert cover.contains_all
            assert cover.normalized == pytest.approx(base.normalized, rel=1e-12, abs=0.0)
        for shift in ((1e6, 0.0), (0.0, -1e6), (1e6, 1e6)):
            moved = HomothetFamily(ConvexBody.disk(k_center, k_radius), centers + shift, ratios)
            cover = min_cover_ratio(moved)
            assert cover.contains_all
            assert abs(cover.ratio - base.ratio) <= 8 * eps * 1e6
            assert np.abs(cover.center - shift - base.center).max() <= 8 * eps * 1e6
