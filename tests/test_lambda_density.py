"""Critical triangles and density bounds in the three constant-curvature planes."""

import math

import numpy as np
import pytest

from sepgeom.bodies import GeometryError
from sepgeom.lambda_density import (
    _Model,
    density_bound_euclid,
    density_bound_hyper,
    density_bound_sphere,
    isosceles_triangle,
    leg_euclid,
    leg_hyper,
    leg_hyper_inverse,
    long_leg_sphere,
    regular_base_hyper,
    regular_base_sphere,
    regular_triangle,
    short_leg_sphere,
    short_leg_sphere_inverse,
    triangle_disk_density,
    triangle_from_sides,
    triangle_vertices,
)

SQRT12 = math.sqrt(12.0)


def test_triangle_from_sides_guards():
    with pytest.raises(GeometryError):
        triangle_from_sides("euclidean", 0.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        triangle_from_sides("euclidean", 1.0, 1.0, 3.0)
    with pytest.raises(GeometryError):
        triangle_from_sides("spherical", 3.2, 1.0, 3.0)
    with pytest.raises(GeometryError):
        triangle_from_sides("spherical", 3.0, 3.0, 1.0)
    with pytest.raises(GeometryError):
        triangle_from_sides("elliptic", 1.0, 1.0, 1.0)


def test_small_curved_triangles_keep_their_area():
    """The spherical excess and the hyperbolic defect come from the sides
    (L'Huilier's formula and its tanh analogue), so small regular triangles
    keep them to 1e-12 relative, where the angle sum of arccos angles loses
    them to round-off; on larger triangles they equal the angle sum."""
    for side in (1e-3, 1e-4):
        flat = math.sqrt(3.0) / 4.0 * side * side
        sph, hyp = regular_triangle("spherical", side), regular_triangle("hyperbolic", side)
        want = 4.0 * math.atan(math.sqrt(math.tan(0.75 * side) * math.tan(0.25 * side) ** 3))
        assert sph.area == pytest.approx(want, rel=1e-12)
        want = 4.0 * math.atan(math.sqrt(math.tanh(0.75 * side) * math.tanh(0.25 * side) ** 3))
        assert hyp.area == pytest.approx(want, rel=1e-12)
        assert 0.0 < hyp.area < flat < sph.area
        assert sph.area == pytest.approx(flat, rel=side) and hyp.area == pytest.approx(flat, rel=side)
    for sides in ((1.0, 1.2, 0.9), (0.3, 2.0, 1.8)):
        sph, hyp = triangle_from_sides("spherical", *sides), triangle_from_sides("hyperbolic", *sides)
        assert sph.area == pytest.approx(sum(sph.angles) - math.pi, abs=1e-12)
        assert hyp.area == pytest.approx(math.pi - sum(hyp.angles), abs=1e-12)


def test_triangle_solutions():
    t = triangle_from_sides("euclidean", 3.0, 4.0, 5.0)
    assert t.angles[2] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert t.area == pytest.approx(6.0, abs=1e-12)
    oct_ = regular_triangle("spherical", math.pi / 2.0)
    assert all(a == pytest.approx(math.pi / 2.0, abs=1e-12) for a in oct_.angles)
    assert oct_.area == pytest.approx(math.pi / 2.0, abs=1e-12)
    v = triangle_vertices(oct_)
    assert abs(v @ v.T - (v @ v.T).round()).max() < 1e-12
    h = regular_triangle("hyperbolic", 2.0)
    assert h.area > 0.0
    assert h.angles[0] == pytest.approx(h.angles[1], abs=1e-12)


def test_leg_formulas_and_endpoints():
    lam = 0.3
    # degenerate lambda: the triangle flattens and the leg is half the base
    assert leg_euclid(0.4, 1e-12) == pytest.approx(0.2, abs=1e-9)
    assert leg_euclid(0.5, 0.3) == pytest.approx(0.25 / 0.8, abs=1e-15)
    # the spherical short leg is pi/4 at both window ends and lambda at the knee
    left = math.asin(math.tan(lam))
    knee = math.asin(math.sqrt(2.0) * math.sin(lam))
    assert short_leg_sphere(left, lam) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert short_leg_sphere(math.pi / 2.0, lam) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert short_leg_sphere(knee, lam) == pytest.approx(lam, abs=1e-12)
    assert long_leg_sphere(knee, lam) == pytest.approx(math.pi / 2.0 - lam, abs=1e-12)
    hknee = math.asinh(math.sqrt(2.0) * math.sinh(lam))
    assert leg_hyper(hknee, lam) == pytest.approx(lam, abs=1e-12)
    with pytest.raises(GeometryError):
        leg_euclid(0.2, 0.3)
    with pytest.raises(GeometryError):
        short_leg_sphere(0.2, 1.0)
    with pytest.raises(GeometryError):
        leg_hyper(0.3, 0.3)


def test_regular_switch_points():
    small, big = regular_base_sphere(0.3)
    assert small == pytest.approx(0.35034148340753346, abs=1e-12)
    assert big == pytest.approx(1.0372842487220317, abs=1e-12)
    # at the switches the tight isosceles triangle turns regular: leg = base
    assert short_leg_sphere(small, 0.3) == pytest.approx(small, abs=1e-9)
    assert long_leg_sphere(big, 0.3) == pytest.approx(big, abs=1e-9)
    z, third = regular_base_sphere(0.0)
    assert z == pytest.approx(0.0, abs=1e-12)
    assert third == pytest.approx(math.pi / 3.0, abs=1e-12)
    assert regular_base_sphere(0.65) is None
    ysh = regular_base_hyper(0.3)
    assert ysh == pytest.approx(0.3432998263418151, abs=1e-12)
    assert leg_hyper(ysh, 0.3) == pytest.approx(ysh, abs=1e-9)
    assert regular_base_hyper(0.0) == pytest.approx(0.0, abs=1e-15)


def test_leg_inverses_round_trip():
    lam = 0.3
    for rho in (lam + 1e-9, 0.35, 0.5, 0.7, math.pi / 4.0 - 1e-6):
        for inc in (False, True):
            y = short_leg_sphere_inverse(rho, lam, increasing=inc)
            assert short_leg_sphere(y, lam) == pytest.approx(rho, abs=1e-9), (rho, inc)
    for rho in (0.35, 1.0, 3.0):
        y = leg_hyper_inverse(rho, lam)
        assert leg_hyper(y, lam) == pytest.approx(rho, abs=1e-9)
    for rho in (0.35, 1.0, 10.0):
        y = leg_hyper_inverse(rho, lam, increasing=True)
        assert leg_hyper(y, lam) == pytest.approx(rho, rel=1e-9)
    with pytest.raises(GeometryError):
        short_leg_sphere_inverse(0.2, 0.3)
    with pytest.raises(GeometryError):
        leg_hyper_inverse(0.5, 0.0)


def test_leg_inverses_at_the_float_reach_and_the_window_ends():
    """The inverses are closed-form roots. Where the hyperbolic leg blows up
    at y = lambda, the root stays within the floats' reach: the y for a
    small lambda and a large rho, about 2e-14 of lambda above it, gives
    back rho to 1e-3, and a y that rounds to lambda becomes the next float
    above it. At rho = pi/4 the spherical roots meet the window ends."""
    lam = 0.0002556621901960224
    y = leg_hyper_inverse(3.902716152684962, lam)
    assert leg_hyper(y, lam) == pytest.approx(3.902716152684962, rel=1e-3)
    y = leg_hyper_inverse(10.0, 1.0)
    assert y > 1.0 and leg_hyper(y, 1.0) > 9.0
    for lam in (0.05, 0.3, 0.7):
        assert short_leg_sphere_inverse(math.pi / 4.0, lam) == pytest.approx(
            math.asin(math.tan(lam)), rel=1e-12)
        assert short_leg_sphere_inverse(math.pi / 4.0, lam, increasing=True) == pytest.approx(
            math.pi / 2.0, rel=1e-12)


def test_triangle_vertices_realise_their_triangles():
    """The vertices lie at the side lengths from each other, 2 S^-1 of half
    the model chord, and the angles measured at them in the model are the
    triangle's angles, on random triangles kept off the degenerate ones."""
    rng = np.random.default_rng(22)
    inverse = {"euclidean": lambda x: x, "spherical": math.asin, "hyperbolic": math.asinh}
    for geometry, top in (("euclidean", 5.0), ("spherical", 2.0), ("hyperbolic", 3.0)):
        model, checked = _Model(geometry, 1.0), 0
        while checked < 300:
            sides = rng.uniform(0.05, 1.0, 3) * top
            if 2.0 * sides.max() - sides.sum() > -0.05 * sides.max():
                continue
            tri = triangle_from_sides(geometry, *sides)
            v = triangle_vertices(tri)
            v = np.c_[v, np.ones(3)] if v.shape[1] == 2 else v
            for k in range(3):
                p, q = v[k - 2], v[k - 1]
                chord = math.sqrt(model.dot(p - q, p - q))
                assert 2.0 * inverse[geometry](0.5 * chord) == pytest.approx(sides[k], rel=1e-12)
                assert model.piece(v[k], p, q)[1] == pytest.approx(tri.angles[k], rel=1e-12)
            checked += 1


def test_legs_flatten_to_euclid():
    y, lam = 1e-3, 5e-4
    flat = leg_euclid(y, lam)
    assert short_leg_sphere(y, lam) == pytest.approx(flat, rel=1e-3)
    assert leg_hyper(y, lam) == pytest.approx(flat, rel=1e-3)


def _sectors(tri, rho):
    """The density of three disjoint vertex disks inside the triangle: three
    sectors whose angles sum to the angle sum of the triangle."""
    if tri.geometry == "euclidean":
        return math.pi * rho * rho / 2.0 / tri.area
    if tri.geometry == "spherical":
        return (math.pi + tri.area) * (1.0 - math.cos(rho)) / tri.area
    return (math.pi - tri.area) * (math.cosh(rho) - 1.0) / tri.area


def test_sector_densities_exact():
    oct_ = regular_triangle("spherical", math.pi / 2.0)
    d = triangle_disk_density(oct_, math.pi / 4.0)
    assert d.value == pytest.approx(3.0 * (1.0 - math.sqrt(2.0) / 2.0), abs=1e-14)
    e = triangle_disk_density(regular_triangle("euclidean", 2.0), 1.0)
    assert e.value == pytest.approx(math.pi / SQRT12, abs=1e-14)
    with pytest.raises(GeometryError):
        triangle_disk_density(oct_, 0.0)


def test_fan_matches_sectors_on_clean_triangles():
    """Where the vertex disks are disjoint and inside the triangle, the
    Voronoi fan gives the sector closed form: on the regular and isosceles
    triangles below, and on every short-leg and regular triangle of the
    spherical and hyperbolic bounds (hyperbolic radii up to 5)."""
    cases = [
        (regular_triangle("euclidean", 2.0), 1.0),
        (regular_triangle("euclidean", 2.5), 1.0),
        (isosceles_triangle("euclidean", 2.0, 3.0), 1.0),
        (regular_triangle("spherical", math.pi / 2.0), math.pi / 4.0),
        (regular_triangle("hyperbolic", 2.0), 1.0),
    ]
    for rho in np.arange(0.05, 1.55, 0.05):
        for lam in np.arange(0.0, 0.8, 0.1):
            try:
                bound = density_bound_sphere(float(rho), float(lam))
            except GeometryError:
                continue
            if bound.branch != "long-leg":
                cases.append((bound.density.triangle, float(rho)))
    for rho in (0.31, 0.33, 0.35, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0):
        for lam in (0.0, 0.1, 0.3):
            if lam <= rho:
                cases.append((density_bound_hyper(rho, lam).density.triangle, rho))
    assert len(cases) > 120
    for tri, rho in cases:
        got = triangle_disk_density(tri, rho).value
        assert got == pytest.approx(_sectors(tri, rho), rel=1e-11), (tri, rho)


def test_overlapping_disks_cover_thin_triangle():
    tri = triangle_from_sides("euclidean", 2.0, 1.2, 1.2)
    d = triangle_disk_density(tri, 1.0)
    assert d.value == pytest.approx(1.0, abs=1e-12)


def _plain_monte_carlo(tri, rho, seed, points=4_000_000):
    """Covered fraction of uniform points of the triangle, and its standard
    error: the plane folds the unit square onto it, the sphere keeps the
    points of the whole sphere that fall inside it."""
    rng = np.random.default_rng(seed)
    v = triangle_vertices(tri)
    inside = covered = 0
    for _ in range(points // 1_000_000):
        if tri.geometry == "euclidean":
            u = rng.random((1_000_000, 2))
            flip = u.sum(axis=1) > 1.0
            u[flip] = 1.0 - u[flip]
            p = v[0] + u[:, :1] * (v[1] - v[0]) + u[:, 1:] * (v[2] - v[0])
            hit = (((p[:, None, :] - v) ** 2).sum(axis=2) <= rho * rho).any(axis=1)
        else:
            normals = np.cross(np.roll(v, -1, axis=0), np.roll(v, -2, axis=0))
            normals *= np.sign((normals * v).sum(axis=1))[:, None]
            p = rng.normal(size=(1_000_000, 3))
            p /= np.linalg.norm(p, axis=1)[:, None]
            p = p[(p @ normals.T >= 0.0).all(axis=1)]
            hit = (p @ v.T >= math.cos(rho)).any(axis=1)
        inside += len(hit)
        covered += int(hit.sum())
    f = covered / inside
    return f, math.sqrt(f * (1.0 - f) / inside)


def test_fan_matches_plain_monte_carlo_where_disks_overlap_or_stick_out():
    cases = [
        (triangle_from_sides("euclidean", 1.0, 3.0, 3.5), 1.0),
        (triangle_from_sides("euclidean", 4.0, 2.1, 2.1), 1.0),
        (density_bound_sphere(1.1, 0.3).density.triangle, 1.1),
        (density_bound_sphere(1.2, 0.1).density.triangle, 1.2),
    ]
    for seed, (tri, rho) in enumerate(cases):
        want, err = _plain_monte_carlo(tri, rho, seed)
        assert abs(triangle_disk_density(tri, rho).value - want) <= 5.0 * err, (tri, rho)


def test_long_leg_bound_reaches_the_whole_triangle():
    """The wide long-leg triangle has points farther from its vertex mean
    than any vertex; a plain Monte Carlo of 4e7 points of the sphere gives
    0.882781 +- 0.000074 here."""
    assert density_bound_sphere(1.2, 0.1).value == pytest.approx(0.88276, abs=1e-3)


def test_curved_fans_flatten_to_euclid():
    # curvature moves the density of a triangle of size s by O(s^2)
    for sides in ((1.0, 3.0, 3.5), (4.0, 2.1, 2.1)):
        flat = triangle_disk_density(triangle_from_sides("euclidean", *sides), 1.0).value
        for geometry in ("spherical", "hyperbolic"):
            small = triangle_from_sides(geometry, *(1e-3 * x for x in sides))
            assert triangle_disk_density(small, 1e-3).value == pytest.approx(flat, abs=1e-6)


def test_density_bound_euclid():
    flat = density_bound_euclid(0.3)
    assert flat.branch == "regular"
    assert flat.value == pytest.approx(math.pi / SQRT12, abs=1e-14)
    sq = density_bound_euclid(0.95)
    assert sq.branch == "squeezed"
    assert sq.value == pytest.approx(math.pi / (4.0 * 0.95), abs=1e-12)
    assert min(sq.density.triangle.sides) == pytest.approx(2.0, abs=1e-12)
    knee = math.sqrt(3.0) / 2.0
    lo = density_bound_euclid(knee - 1e-12).value
    hi = density_bound_euclid(knee + 1e-12).value
    assert lo == pytest.approx(hi, abs=1e-11)
    assert density_bound_euclid(0.0).value == pytest.approx(math.pi / SQRT12, abs=1e-14)
    assert density_bound_euclid(1.0).value == pytest.approx(math.pi / 4.0, abs=1e-12)
    with pytest.raises(GeometryError):
        density_bound_euclid(1.1)


def test_density_bound_sphere_branches():
    lam = 0.3
    short = density_bound_sphere(0.32, lam)
    assert short.branch == "short-leg" and 0.0 < short.value < 1.0
    reg = density_bound_sphere(0.5, lam)
    assert reg.branch == "regular"
    long_ = density_bound_sphere(1.1, lam)
    assert long_.branch == "long-leg" and 0.0 < long_.value < 1.0
    small, big = regular_base_sphere(lam)
    lo = density_bound_sphere(small - 1e-9, lam).value
    hi = density_bound_sphere(small + 1e-9, lam).value
    assert lo == pytest.approx(hi, abs=1e-6)
    lo = density_bound_sphere(big - 1e-9, lam).value
    hi = density_bound_sphere(big + 1e-9, lam).value
    assert lo == pytest.approx(hi, abs=1e-6)
    # large lambda: the regular window opens above pi/4, leaving only a thin
    # long-leg sliver between the window left end asin(tan lambda) and it
    assert density_bound_sphere(0.78, 0.62).branch == "short-leg"
    sliver = 0.5 * (math.asin(math.tan(0.62)) + regular_base_sphere(0.62)[0])
    assert density_bound_sphere(sliver, 0.62).branch == "long-leg"
    assert density_bound_sphere(0.80, 0.62).branch == "regular"
    assert density_bound_sphere(0.5, 0.0).branch == "regular"
    with pytest.raises(GeometryError):
        density_bound_sphere(1.6, 0.1)
    with pytest.raises(GeometryError):
        density_bound_sphere(0.5, 0.6)
    with pytest.raises(GeometryError):
        density_bound_sphere(1.4, 0.3)


def test_density_bound_hyper_branches():
    lam = 0.3
    short = density_bound_hyper(0.33, lam)
    assert short.branch == "short-leg"
    reg = density_bound_hyper(0.35, lam)
    assert reg.branch == "regular"
    ysh = regular_base_hyper(lam)
    lo = density_bound_hyper(ysh - 1e-9, lam).value
    hi = density_bound_hyper(ysh + 1e-9, lam).value
    assert lo == pytest.approx(hi, abs=1e-6)
    assert density_bound_hyper(0.5, 0.0).branch == "regular"
    # the regular bound climbs toward 3/pi for large disks
    vals = [density_bound_hyper(r, 0.0).value for r in (1.5, 2.5, 3.5)]
    assert vals[0] < vals[1] < vals[2] < 3.0 / math.pi
    assert 3.0 / math.pi - vals[2] < 5e-3
    with pytest.raises(GeometryError):
        density_bound_hyper(0.5, 0.6)


def test_density_bound_hyper_holds_to_its_largest_radius():
    """Up to rho = 8 the bound is the sector closed form to 1e-9; past it,
    where the fan's error outgrows 1e-9 (2e-9 at 9, a ValueError at 12 and
    20, 1.0 against 3/pi at 60), it is refused."""
    for lam in (0.0, 0.05, 0.3, 2.0, 7.9, 8.0):
        bound = density_bound_hyper(8.0, lam)
        assert abs(bound.value - _sectors(bound.density.triangle, 8.0)) <= 1e-9
        assert bound.value < 3.0 / math.pi
    for rho in (8.0 + 1e-12, 12.0, 20.0, 60.0):
        for lam in (0.0, 0.3):
            with pytest.raises(GeometryError, match="rho <= 8"):
                density_bound_hyper(rho, lam)
