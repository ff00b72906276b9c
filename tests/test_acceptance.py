"""Acceptance gate: thirteen headline guarantees, one test per criterion.

Every test prints a single "[criterion N] PASS ..." line with the measured
quantities, so `pytest tests/test_acceptance.py -v -s` doubles as a report.
Each criterion draws from its own seeded generator and is order independent.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from helpers import (
    disk_bodies,
    ns_family,
    random_convex_polygon,
    random_guillotine,
    random_symmetric_polygon,
    sns_disk_centers,
    tangent_cap_chain,
    ts_lattice_subset,
)
from sepgeom.bodies import ConvexBody
from sepgeom.bounds import (
    brute_force_lattice_contact,
    crystallization_bound,
    lattice_contact_bounds,
    separable_tammes,
)
from sepgeom.covering import (
    build_triangle_counterexample,
    facet_parallel_cover_check,
    goodman_goodman_cover,
    min_cover_ratio,
)
from sepgeom.lambda_density import (
    density_bound_euclid,
    leg_euclid,
    leg_hyper,
    leg_hyper_inverse,
    long_leg_sphere,
    regular_base_hyper,
    regular_base_sphere,
    short_leg_sphere,
    short_leg_sphere_inverse,
)
from sepgeom.measures import separable_packing_density
from sepgeom.packing import (
    GuillotinePartition,
    _acute_branch,
    _obtuse_branch,
    kertesz_check,
    oler_check,
    polyomino_packing,
    radon_mixed_area_check,
    rogers_sigma,
    sns_perimeter_check,
    three_disk_extrema,
    window_density,
)
from sepgeom.separability import (
    find_separating_hyperplane,
    is_ls_packing,
    is_non_separable,
    kirchberger_reduce,
)
from sepgeom.spherical import (
    cap_cover_check,
    cuboctahedral_packing,
    is_ts_cap_packing,
    octahedral_packing,
)

SQRT3 = math.sqrt(3.0)


def test_criterion_01_weighted_center_covers_ns_families():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    peak = 0.0
    for i in range(500):
        if i % 2:
            reference = ConvexBody.disk(np.zeros(2), float(rng.uniform(0.5, 1.5)))
        else:
            reference = random_symmetric_polygon(rng)
        fam = ns_family(rng, reference, int(rng.integers(2, 9)))
        assert is_non_separable(fam, samples=256).non_separable, i
        cover = goodman_goodman_cover(fam)
        assert cover.contains_all, i
        best = min_cover_ratio(fam)
        assert best.contains_all, i
        assert best.normalized <= 1.0 + 1e-7, (i, best.normalized)
        peak = max(peak, best.normalized)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    print(
        f"[criterion 1] PASS 500 families: weighted-center cover contains all, "
        f"max normalized ratio {peak:.9f} <= 1 + 1e-7, {elapsed:.1f} s"
    )


def test_criterion_02_triangle_counterexample_ratio():
    t0 = time.perf_counter()
    fam = build_triangle_counterexample(3)
    assert is_non_separable(fam).non_separable
    best = min_cover_ratio(fam)
    target = 2.0 / 3.0 + 2.0 / (3.0 * SQRT3)
    assert best.normalized == pytest.approx(target, abs=1e-6)
    assert best.normalized > 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print(
        f"[criterion 2] PASS triangle family is non-separable yet needs "
        f"normalized ratio {best.normalized:.9f} = 2/3 + 2/(3 sqrt(3)) "
        f"(|err| = {abs(best.normalized - target):.2e}), {elapsed * 1e3:.0f} ms"
    )


def test_criterion_03_facet_parallel_triangle_bound():
    rng = np.random.default_rng(103)
    references = (
        ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)]),
        ConvexBody.polygon([(0.0, 0.0), (1.5, 0.0), (0.0, 0.8)]),
    )
    peak = 0.0
    for i in range(100):
        fam = ns_family(rng, references[i % 2], int(rng.integers(2, 8)))
        rep = facet_parallel_cover_check(fam)
        assert rep.condition_holds, i
        assert rep.cover.normalized <= 1.5 + 1e-7, (i, rep.cover.normalized)
        peak = max(peak, rep.cover.normalized)
    print(
        f"[criterion 3] PASS 100 facet-parallel triangle families: "
        f"max normalized ratio {peak:.6f} <= 3/2 + 1e-7"
    )


def test_criterion_04_kirchberger_matches_direct_separation():
    rng = np.random.default_rng(104)
    separable = critical = 0
    for i in range(1000):
        bodies = []
        for _ in range(int(rng.integers(4, 6))):
            c = rng.uniform(0.0, 3.0, 2)
            if rng.random() < 0.5:
                bodies.append(ConvexBody.disk(c, float(rng.uniform(0.2, 0.5))))
            else:
                poly = random_convex_polygon(rng, k=6, scale=0.5)
                bodies.append(ConvexBody.polygon(poly.vertices + c))
        n1 = int(rng.integers(2, len(bodies) - 1))
        first, second = bodies[:n1], bodies[n1:]
        reduced = kirchberger_reduce(first, second)
        direct = find_separating_hyperplane(first, second, samples=2048)
        if reduced.separable != (direct is not None):
            # a disagreement is tolerated only when the margin is critical
            margin = 0.0 if direct is None else direct.margin
            assert abs(margin) <= 1e-7, (i, reduced.separable, margin)
            critical += 1
            print(f"[criterion 4] critical margin at family {i}: {margin:.3e}")
            continue
        separable += reduced.separable
    print(
        f"[criterion 4] PASS 1000 families: small-subfamily reduction agrees "
        f"with direct separation everywhere ({separable} separable, "
        f"{critical} margin-critical logged)"
    )


def test_criterion_05_three_disk_hull_extrema():
    rep = three_disk_extrema()
    assert rep.perimeter.value == pytest.approx(2.0 * math.pi + 8.0, abs=1e-14)
    assert rep.perimeter.gamma == math.pi
    assert rep.width.value == pytest.approx(4.0, abs=1e-14)
    endpoints = []
    for fn, lo, hi in (
        (_obtuse_branch, math.pi / 2.0, math.pi),
        (_acute_branch, math.pi / 3.0, math.pi / 2.0),
    ):
        vals = fn(np.array([lo, hi]))
        endpoints.extend(float(v) for v in vals["area"])
    assert all(rep.area.value >= v for v in endpoints)
    assert rep.area.value == pytest.approx(math.pi + 16.0 * SQRT3 / 3.0, abs=1e-14)
    assert rep.inradius.value == pytest.approx(5.0 / 3.0, abs=1e-14)
    area_flagged = math.pi + 4.0 + 3.0 * SQRT3
    assert rep.area.value > area_flagged + 1e-3
    assert "16*sqrt(3)/3" in rep.flags[0] and "pi + 4 + 3*sqrt(3)" in rep.flags[0]
    assert "5/3" in rep.flags[1]
    print(
        f"[criterion 5] PASS perimeter max {rep.perimeter.value:.9f} = 2 pi + 8, "
        f"width max {rep.width.value:.9f} = 4; area max {rep.area.value:.9f} "
        f"= pi + 16 sqrt(3)/3 dominates all branch endpoints and "
        f"exceeds pi + 4 + 3 sqrt(3) = {area_flagged:.6f} (flagged); "
        f"inradius max {rep.inradius.value:.9f} = 5/3 (flagged)"
    )


def test_criterion_06_successive_chain_perimeters():
    for n in range(2, 51):
        chain = np.array([(2.0 * i, 0.0) for i in range(n)])
        rep = sns_perimeter_check(chain)
        assert rep.equality
        assert rep.perimeter == pytest.approx(2.0 * math.pi + 4.0 * n - 4.0, abs=1e-9)
    rng = np.random.default_rng(106)
    worst = math.inf
    width_err = 0.0
    for i in range(200):
        centers = sns_disk_centers(rng, int(rng.integers(3, 13)))
        rep = sns_perimeter_check(centers)
        assert rep.slack >= -1e-9, (i, rep.slack)
        worst = min(worst, rep.slack)
        width_err = max(width_err, abs(rep.mean_width - rep.perimeter / math.pi))
    assert width_err <= 1e-12
    print(
        f"[criterion 6] PASS collinear chains n <= 50 meet 2 pi + 4n - 4 exactly; "
        f"200 random chains have slack >= {worst:.6f} and mean width = "
        f"perimeter / pi to {width_err:.1e}"
    )


def test_criterion_07_oler_and_mixed_area_inequalities():
    rng = np.random.default_rng(107)
    worst = math.inf
    for i in range(200):
        reference = random_symmetric_polygon(rng)
        centers = ts_lattice_subset(
            rng, reference, int(rng.integers(2, 5)), int(rng.integers(2, 5))
        )
        if i % 3 == 2 and len(centers) > 6:
            hull = set(ConvexHull(centers).vertices.tolist())
            inner = [j for j in range(len(centers)) if j not in hull]
            if inner:
                keep = np.ones(len(centers), dtype=bool)
                keep[rng.choice(inner)] = False
                centers = centers[keep]
        loop = ConvexHull(centers).vertices
        rep = oler_check(reference, centers, loop)
        assert rep.slack >= -1e-9, (i, rep.slack)
        worst = min(worst, rep.slack)
    radon_worst = math.inf
    for i in range(200):
        reference = random_symmetric_polygon(rng)
        quad = random_convex_polygon(rng, k=int(rng.integers(3, 8)))
        rep = radon_mixed_area_check(reference, quad.vertices)
        assert rep.slack >= -1e-9, i
        radon_worst = min(radon_worst, rep.slack)
    print(
        f"[criterion 7] PASS 200 lattice packings: area/length/count slack >= "
        f"{worst:.3e} >= -1e-9; 200 mixed-area checks hold "
        f"(min slack {radon_worst:.6f})"
    )


def test_criterion_08_separable_disk_densities():
    assert separable_packing_density(ConvexBody.disk(np.zeros(2), 1.0)) == pytest.approx(
        math.pi / 4.0, abs=1e-12
    )
    ticks = np.arange(-1.0, 102.0, 2.0)
    grid = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    dens = window_density(grid, 1.0, (0.0, 0.0), (100.0, 100.0))
    assert abs(dens - math.pi / 4.0) <= 0.01 * math.pi / 4.0
    switch = SQRT3 / 2.0
    left = density_bound_euclid(np.nextafter(switch, 0.0)).value
    right = density_bound_euclid(np.nextafter(switch, 1.0)).value
    assert abs(left - right) <= 1e-12
    assert density_bound_euclid(0.0).value == pytest.approx(math.pi / math.sqrt(12.0), abs=1e-15)
    assert density_bound_euclid(1.0).value == pytest.approx(math.pi / 4.0, abs=1e-15)
    print(
        f"[criterion 8] PASS disk separable density pi/4; 100x100 window density "
        f"{dens:.9f} within 1% of pi/4; euclidean bound continuous at "
        f"sqrt(3)/2 (jump {abs(left - right):.1e}) with endpoints pi/sqrt(12), pi/4"
    )


def test_criterion_09_lattice_contact_numbers():
    t0 = time.perf_counter()
    search = brute_force_lattice_contact(12)
    for n in range(2, 13):
        want = math.floor(2.0 * n - 2.0 * math.sqrt(n))
        assert search.max_contacts[n] == want, (n, search.max_contacts[n], want)
    for n in range(2, 101):
        pack = polyomino_packing(n)
        assert pack.tight, n
        assert is_ls_packing(disk_bodies(pack.centers, 0.5)).is_ls, n
    for d, n in ((2, 9), (3, 8)):
        bounds = lattice_contact_bounds(d, n)
        assert bounds.exact and bounds.lower == bounds.upper == 12, (d, n, bounds)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    print(
        f"[criterion 9] PASS exhaustive search matches floor(2n - 2 sqrt(n)) for "
        f"n <= 12; spiral packings meet the bound and stay locally separable for "
        f"n <= 100; cube bounds coincide at (d,n) = (2,9), (3,8); {elapsed:.1f} s"
    )


def test_criterion_10_three_dimensional_constants():
    est = rogers_sigma(3, 2_000_000)
    assert abs(est.value - 0.7797) <= 0.002, est
    got = [crystallization_bound(n, 3) for n in (10, 100, 1000)]
    want = [math.floor(3.0 * n - 1.206 * n ** (2.0 / 3.0)) for n in (10, 100, 1000)]
    assert got == want == [24, 274, 2879]
    print(
        f"[criterion 10] PASS simplex density {est.value:.5f} +/- {est.stderr:.5f} "
        f"(target 0.7797 +/- 0.002); contact bounds {got} match "
        f"floor(3n - 1.206 n^(2/3)) at n = 10, 100, 1000"
    )


def test_criterion_11_guillotine_surface_volume_bounds():
    rng = np.random.default_rng(111)
    surf_slack = vol_slack = math.inf
    for i in range(100):
        part = random_guillotine(rng, int(rng.integers(0, 13)))
        rep = kertesz_check(part)
        assert rep.total_surface >= rep.surface_bound - 1e-9, i
        assert rep.volume >= rep.volume_bound - 1e-9, i
        surf_slack = min(surf_slack, rep.total_surface - rep.surface_bound)
        vol_slack = min(vol_slack, rep.volume - rep.volume_bound)
    cube = GuillotinePartition(np.zeros(3), np.ones(3), (), ((np.full(3, 0.5), 0.5),))
    rep = kertesz_check(cube)
    assert rep.total_surface == pytest.approx(rep.surface_bound, abs=1e-9)
    assert rep.volume == pytest.approx(rep.volume_bound, abs=1e-9)
    print(
        f"[criterion 11] PASS 100 partitions: surface slack >= {surf_slack:.3e}, "
        f"volume slack >= {vol_slack:.3e}; no-cut unit cube is exact equality "
        f"(surface {rep.total_surface} = 24 N r^2, volume {rep.volume} = 8 N r^3)"
    )


def test_criterion_12_spherical_cap_results():
    octa = octahedral_packing()
    assert octa[0].radius == pytest.approx(math.asin(1.0 / SQRT3), abs=1e-12)
    assert is_ts_cap_packing(octa).is_ts
    cubo = cuboctahedral_packing()
    assert cubo[0].radius == pytest.approx(math.atan(0.75), abs=1e-12)
    assert is_ts_cap_packing(cubo).is_ts
    table = {
        2: math.pi / 2.0,
        3: math.pi / 4.0,
        4: math.pi / 4.0,
        5: math.atan(0.75),
        6: math.atan(0.75),
        7: math.asin(1.0 / SQRT3),
        8: math.asin(1.0 / SQRT3),
    }
    for k, radius in table.items():
        entry = separable_tammes(k)
        assert entry.exact
        assert entry.radius == pytest.approx(radius, abs=1e-12), k
    assert math.acos(math.sqrt(2.0 / 3.0)) == pytest.approx(
        math.asin(1.0 / SQRT3), abs=1e-12
    )
    rng = np.random.default_rng(112)
    worst = math.inf
    for i in range(100):
        caps = tangent_cap_chain(rng, int(rng.integers(3, 7)))
        assert sum(c.radius for c in caps) < math.pi / 2.0
        rep = cap_cover_check(caps)
        assert rep.holds, (i, rep.slack)
        worst = min(worst, rep.slack)
    print(
        f"[criterion 12] PASS octahedral/cuboctahedral radii arcsin(1/sqrt(3)), "
        f"arctan(3/4) and both are totally separable; exact table k <= 8 matches; "
        f"k = 8 upper bound equals arcsin(1/sqrt(3)); 100 tangent chains covered "
        f"(min slack {worst:.3e})"
    )


def test_criterion_13_critical_leg_identities():
    lam = 0.3
    left = math.asin(math.tan(lam))
    knee = math.asin(math.sqrt(2.0) * math.sin(lam))
    hknee = math.asinh(math.sqrt(2.0) * math.sinh(lam))
    assert short_leg_sphere(left, lam) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert short_leg_sphere(math.pi / 2.0, lam) == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert short_leg_sphere(knee, lam) == pytest.approx(lam, abs=1e-12)
    assert long_leg_sphere(knee, lam) == pytest.approx(math.pi / 2.0 - lam, abs=1e-12)
    assert leg_hyper(hknee, lam) == pytest.approx(lam, abs=1e-12)
    small, big = regular_base_sphere(lam)
    assert short_leg_sphere(small, lam) == pytest.approx(small, abs=1e-9)
    assert long_leg_sphere(big, lam) == pytest.approx(big, abs=1e-9)
    ysh = regular_base_hyper(lam)
    assert leg_hyper(ysh, lam) == pytest.approx(ysh, abs=1e-9)
    round_err = 0.0
    for rho in (lam + 1e-9, 0.35, 0.5, 0.7, math.pi / 4.0 - 1e-6):
        for increasing in (False, True):
            y = short_leg_sphere_inverse(rho, lam, increasing=increasing)
            round_err = max(round_err, abs(short_leg_sphere(y, lam) - rho))
    for rho in (0.35, 1.0, 3.0):
        for increasing in (False, True):
            y = leg_hyper_inverse(rho, lam, increasing=increasing)
            round_err = max(round_err, abs(leg_hyper(y, lam) - rho) / max(1.0, rho))
    assert round_err <= 1e-9
    y_flat, lam_flat = 1e-3, 5e-4
    flat = leg_euclid(y_flat, lam_flat)
    flat_err = max(
        abs(short_leg_sphere(y_flat, lam_flat) - flat) / flat,
        abs(leg_hyper(y_flat, lam_flat) - flat) / flat,
    )
    assert flat_err <= 1e-3
    print(
        f"[criterion 13] PASS leg endpoint identities to 1e-12, inverse round "
        f"trips to {round_err:.1e} <= 1e-9, flat-limit agreement to "
        f"{flat_err:.1e} <= 1e-3"
    )
