"""Spherical caps: splitting circles, covers, zones, separable Tammes values."""

import math

import numpy as np
import pytest

from helpers import pole_grid, random_cap_packing, tangent_cap_chain
from sepgeom.bodies import GeometryError
from sepgeom import spherical
from sepgeom._kernels import fibonacci_sphere
from sepgeom.bounds import separable_tammes
from sepgeom.spherical import (
    Cap,
    Zone,
    angular_distance,
    cap_cover_check,
    caps_non_separable,
    circle_avoids_cap,
    cuboctahedral_packing,
    enclosing_cap,
    is_ts_cap_packing,
    octahedral_packing,
    zones_cover_check,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def test_angular_distance_and_sampling():
    assert angular_distance(EX, EX) == pytest.approx(0.0, abs=1e-12)
    assert angular_distance(EX, EY) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert angular_distance(EZ, -EZ) == pytest.approx(math.pi, abs=1e-12)
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_cap_and_zone_validation():
    with pytest.raises(GeometryError):
        Cap(EX, 0.0)
    with pytest.raises(GeometryError):
        Cap(EX, math.pi)
    with pytest.raises(GeometryError):
        Cap(np.zeros(3), 0.3)
    with pytest.raises(GeometryError):
        Zone(EZ, 2.0)
    cap = Cap(2.0 * EX, 0.4)
    assert np.linalg.norm(cap.center) == pytest.approx(1.0, abs=1e-12)
    assert cap.contains_point(EX)
    zone = Zone(EZ, 0.25)
    assert zone.width == pytest.approx(0.5, abs=1e-15)
    assert zone.contains_point(EX) and not zone.contains_point(EZ)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 1.0], [0.0, math.inf, 1.0], [1.0, 0.0]])
def test_cap_and_zone_reject_bad_vectors(bad):
    with pytest.raises(GeometryError):
        Cap(bad, 0.3)
    with pytest.raises(GeometryError):
        Zone(bad, 0.3)


def test_circle_avoids_cap():
    cap = Cap(EX, 0.3)
    assert circle_avoids_cap(EX, cap)
    assert not circle_avoids_cap(EZ, cap)
    tangent_pole = np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    assert circle_avoids_cap(tangent_pole, Cap(EX, math.pi / 4.0), tol=1e-12)
    assert not circle_avoids_cap(EX, Cap(EX, 2.0))


def test_octahedral_packing_is_ts():
    caps = octahedral_packing()
    assert len(caps) == 8
    want = math.asin(1.0 / math.sqrt(3.0))
    assert all(c.radius == pytest.approx(want, abs=1e-12) for c in caps)
    # neighbouring octant caps are exactly tangent
    d01 = angular_distance(caps[0].center, caps[1].center)
    assert d01 == pytest.approx(2.0 * want, abs=1e-12)
    res = is_ts_cap_packing(caps)
    assert res.is_ts
    assert res.refuted == () and res.unresolved == ()
    for (i, j), pole in list(res.certificates.items())[:6]:
        assert circle_avoids_cap(pole, caps[i], tol=1e-7)
        assert circle_avoids_cap(pole, caps[j], tol=1e-7)
        si = float(np.asarray(pole) @ caps[i].center)
        sj = float(np.asarray(pole) @ caps[j].center)
        assert si * sj < 0.0


def test_cuboctahedral_packing_is_ts():
    caps = cuboctahedral_packing()
    assert len(caps) == 6
    want = math.atan(0.75)
    assert all(c.radius == pytest.approx(want, abs=1e-12) for c in caps)
    res = is_ts_cap_packing(caps)
    assert res.is_ts and res.refuted == ()


def test_octahedral_packing_at_tol_zero_answers_as_at_the_default():
    """The tangent octant caps are a packing at tol = 0: the overlap and
    avoidance tests carry round-off."""
    caps = octahedral_packing()
    zero, default = is_ts_cap_packing(caps, 0.0), is_ts_cap_packing(caps)
    assert zero.is_ts and (zero.refuted, zero.poles_checked) == (default.refuted, default.poles_checked)
    assert caps_non_separable(caps, 0.0) == caps_non_separable(caps)


def test_cuboctahedral_packing_at_tol_zero_answers_as_at_the_default():
    """Its separating circles touch caps, at a margin of round-off: TS with
    no pair refuted, and no circle splits it by more than round-off."""
    caps = cuboctahedral_packing()
    zero = is_ts_cap_packing(caps, 0.0)
    assert zero.is_ts and zero.refuted == () and zero.poles_checked == is_ts_cap_packing(caps).poles_checked
    dec = caps_non_separable(caps, 0.0)
    assert dec.non_separable and dec.pole is None
    assert dec == caps_non_separable(caps)


def _right_angle_chain() -> list:
    """Caps 0 and 1 tangent along the equator, cap 2 attached to cap 1 at a
    right angle."""
    r0, r1, r2 = 0.12, 0.10, 0.14
    c0 = np.array([math.cos(r0), -math.sin(r0), 0.0])
    c1 = np.array([math.cos(r1), math.sin(r1), 0.0])
    c2 = math.cos(r1 + r2) * c1 + math.sin(r1 + r2) * EZ
    return [Cap(c0, r0), Cap(c1, r1), Cap(c2, r2)]


def test_right_angle_chain_is_not_ts():
    # the forced tangent circle of each touching pair crosses the cap
    # around the corner, so both tangencies are refuted
    caps = _right_angle_chain()
    res = is_ts_cap_packing(caps)
    assert not res.is_ts
    # the non-tangent pair around the corner has no separator either, and
    # the closed-form candidates refute it exactly
    assert res.refuted == ((0, 1), (0, 2), (1, 2))
    assert res.unresolved == ()


def test_cap_wider_than_half_pi_refutes_every_pair():
    # every great circle cuts a cap of radius 2, although the pole e_z
    # clears it by |u . c| - sin r = 1 - sin 2 > 0
    caps = [Cap(EZ, 2.0), Cap(-EZ, 0.5)]
    assert not circle_avoids_cap(EZ, caps[0])
    res = is_ts_cap_packing(caps)
    assert not res.is_ts
    assert res.refuted == ((0, 1),) and res.certificates == {}


def test_caps_non_separable_decisions(rng):
    caps = tangent_cap_chain(rng, 5, 0.1 + 0.05 * rng.random(5))
    dec = caps_non_separable(caps)
    assert dec.non_separable
    apart = [Cap(EX, 0.2), Cap(-EX, 0.2)]
    dec = caps_non_separable(apart)
    assert not dec.non_separable
    pole = dec.pole
    assert circle_avoids_cap(pole, apart[0], tol=1e-9)
    assert circle_avoids_cap(pole, apart[1], tol=1e-9)
    assert float(pole @ EX) * float(pole @ -EX) < 0.0


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def test_two_caps_best_margin_is_closed_form(rng):
    # the best circle is the bisector of the two centers, at angle d/2 from each
    for d in (0.3, 1.0, 2.0, 3.0):
        for r in (0.05, 0.4, 0.9):
            rot = _rotation(rng)
            caps = [Cap(rot @ EZ, r), Cap(rot @ np.array([math.sin(d), 0.0, math.cos(d)]), r)]
            dec = caps_non_separable(caps)
            want = math.sin(d / 2.0) - math.sin(r)
            assert dec.margin == pytest.approx(want, abs=1e-12)
            assert dec.non_separable == (want <= 1e-9)


def test_split_margin_is_reported_only_above_minus_min_sin_r():
    """The best candidate circle here clears the caps by -0.313, below
    -min sin r = -0.059. It need not be the best circle, so the margin is
    -inf, meaning at most -min sin r."""
    centers = np.array([[-0.677, -0.344, 0.651], [-0.593, -0.634, 0.497], [-0.557, -0.559, 0.614]])
    caps = [Cap(c / np.linalg.norm(c), r) for c, r in zip(centers, (0.059, 0.536, 0.076))]
    dec = caps_non_separable(caps)
    assert dec.non_separable and dec.pole is None
    assert dec.margin == -math.inf


def _dual_rows(rows) -> np.ndarray:
    """The dual basis e_0, ..., e_k-1 from the rows of _support_sets."""
    e = rows.copy()
    e[:, 0] -= rows[:, 1:].sum(axis=1)
    return e


def test_support_sets_hold_the_dual_basis(rng):
    """c_a . e_b = delta_ab to 1e-12 (times |e_b| where that exceeds 1) on
    random centers, tight clusters and nearly coplanar sets; and the sums
    sum_a x_a e_a of _combine meet c_a . v = x_a to 1e-12 (times |v| where
    that exceeds 1) for x = cos r and sin r, also on the clusters where
    the e_a are large and nearly cancel."""
    sets = 0
    for kind in ("random", "cluster", "flat"):
        for _ in range(20):
            if kind == "random":
                c = rng.normal(size=(6, 3))
            elif kind == "cluster":
                c = rng.normal(size=3) + 1e-3 * rng.normal(size=(6, 3))
            else:
                c = rng.normal(size=(6, 3)) * np.array([1.0, 1.0, 1e-4])
            c /= np.linalg.norm(c, axis=1, keepdims=True)
            radii = rng.uniform(0.01, 0.3, 6)
            for r, centers, rows in spherical._support_sets(c, radii):
                e = _dual_rows(rows)
                scale = np.maximum(1.0, np.linalg.norm(e, axis=2))[:, None, :]
                delta = np.einsum("tad,tbd->tab", centers, e) - np.eye(r.shape[1])
                assert (np.abs(delta) <= 1e-12 * scale).all(), kind
                for x in (np.cos(r), np.sin(r)):
                    v = spherical._combine(x, rows)
                    scale = np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None]
                    assert (np.abs(np.einsum("tad,td->ta", centers, v) - x) <= 1e-12 * scale).all(), kind
                sets += len(r)
    assert sets == 3 * 20 * (15 + 20)


def test_spherical_checks_are_rotation_invariant(rng):
    """Rotating a cap family changes no verdict, refuted pair or
    poles_checked of is_ts_cap_packing and caps_non_separable, nor
    zones_cover_check.covers on zones about the same poles, and moves the
    enclosing_cap radius by at most 1e-12."""
    families = [octahedral_packing(), cuboctahedral_packing()]
    families += [random_cap_packing(rng, int(rng.integers(3, 9)), 0.1, 0.4) for _ in range(10)]
    families += [tangent_cap_chain(rng, int(rng.integers(3, 8))) for _ in range(10)]
    seen = {"ts": 0, "ns": 0, "covers": 0}

    def answers(caps):
        ts = is_ts_cap_packing(caps)
        ns = caps_non_separable(caps)
        zones = [Zone(c.center, min(2.0 * c.radius, math.pi / 2.0)) for c in caps]
        return ((ts.is_ts, ts.refuted, ts.poles_checked), (ns.non_separable, ns.poles_checked),
                zones_cover_check(zones).covers, enclosing_cap(caps)[1])

    for caps in families:
        ts, ns, covers, radius = answers(caps)
        seen["ts"] += ts[0]
        seen["ns"] += ns[0]
        seen["covers"] += covers
        for _ in range(4):
            rot = _rotation(rng)
            got = answers([Cap(rot @ c.center, c.radius) for c in caps])
            assert got[:3] == (ts, ns, covers)
            assert abs(got[3] - radius) <= 1e-12
    # each verdict is reached both ways
    assert all(0 < count < len(families) for count in seen.values()), seen


def _random_caps(rng, spread: float) -> tuple[np.ndarray, np.ndarray]:
    k = int(rng.integers(2, 7))
    centers = rng.normal(size=3) + spread * rng.normal(size=(k, 3))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    return centers, rng.uniform(0.02, 0.4, k)


def test_split_margin_and_enclosing_cap_match_pole_grid(rng):
    grid = pole_grid()
    compared = enclosed = 0
    for trial in range(40):
        clustered = trial % 2 == 1
        centers, radii = _random_caps(rng, 0.3 if clustered else 3.0)
        caps = [Cap(c, r) for c, r in zip(centers, radii)]
        dots = centers @ grid.T
        margins = (np.abs(dots) - np.sin(radii)[:, None]).min(axis=0)
        split = (dots > 0.0).any(axis=0) & (dots < 0.0).any(axis=0)
        dec = caps_non_separable(caps)
        # the best circle of a sign pattern keeps that pattern while its
        # margin is above -min sin r; below, no circle misses the caps anyway
        if margins[split].max() > -np.sin(radii).min():
            assert dec.margin >= margins[split].max() - 1e-12
            compared += 1
        if dec.pole is not None:
            assert all(circle_avoids_cap(dec.pole, c, tol=1e-12) for c in caps)
        # spread families often need an enclosing cap wider than a hemisphere
        reach = (np.arccos(np.clip(dots, -1.0, 1.0)) + radii[:, None]).max(axis=0).min()
        if reach < math.pi:
            enclosed += reach > math.pi / 2.0
            center, radius = enclosing_cap(caps)
            assert radius <= reach + 1e-12
            out = np.arctan2(np.linalg.norm(np.cross(centers, center), axis=1), centers @ center)
            assert (out + radii <= radius + 1e-9).all()
    assert compared >= 20 and enclosed >= 5


def test_ts_cap_packing_certifies_every_pair_the_grid_does(rng):
    grid = pole_grid()
    seen = {"certified": 0, "refuted": 0}
    for _ in range(25):
        caps = random_cap_packing(rng, int(rng.integers(3, 7)), 0.2, 0.5)
        centers = np.array([c.center for c in caps])
        sinr = np.sin([c.radius for c in caps])
        res = is_ts_cap_packing(caps)
        dots = centers @ grid.T
        side = dots[:, (np.abs(dots) - sinr[:, None] >= -1e-9).all(axis=0)] > 0.0
        for i in range(len(caps)):
            for j in range(i + 1, len(caps)):
                if (side[i] != side[j]).any():
                    assert (i, j) in res.certificates
        for (i, j), pole in res.certificates.items():
            assert all(circle_avoids_cap(pole, c, tol=1e-9) for c in caps)
            assert float(pole @ centers[i]) > 0.0 > float(pole @ centers[j])
        assert res.unresolved == ()
        assert set(res.refuted) | set(res.certificates) == {
            (i, j) for i in range(len(caps)) for j in range(i + 1, len(caps))
        }
        seen["certified"] += len(res.certificates)
        seen["refuted"] += len(res.refuted)
    assert seen["certified"] > 0 and seen["refuted"] > 0


def _enclosing_cap_reference(caps, tol: float = 1e-9):
    """enclosing_cap as one search over every candidate: all blocks of
    _enclosing_candidates joined, sorted by radius (stable), and tested in
    chunks of _BLOCK // n in that order up to the first that covers. Also
    returns how many candidates share the answer's radius."""
    centers, radii = spherical._cap_arrays(list(caps))
    u, r = (np.concatenate(x) for x in zip(*spherical._enclosing_candidates(centers, radii)))
    order = np.argsort(r, kind="stable")
    step = max(1, spherical._BLOCK // len(radii))
    for lo in range(0, len(order), step):
        part = order[lo : lo + step]
        covers = (spherical._angles(u[part, None], centers) + radii <= r[part, None] + tol).all(axis=1)
        if covers.any():
            k = part[int(np.argmax(covers))]
            return u[k], float(r[k]), int((r == r[k]).sum())
    raise GeometryError("no enclosing cap smaller than the sphere was found")


def _ring(k: int, polar: float, radius: float) -> list:
    """k equal caps at equal steps on the circle at angle polar from the pole."""
    a = 2.0 * math.pi * np.arange(k) / k
    s, c = math.sin(polar), math.cos(polar)
    return [Cap(np.array([s * math.cos(t), s * math.sin(t), c]), radius) for t in a]


def test_enclosing_cap_matches_the_sort_everything_search(rng):
    """Drawing the candidates block by block gives the cap of one sorted
    search over all of them, to the bit: on random, clustered and tight
    families, on symmetric ones whose candidates tie in radius (squares and
    rings of equal caps, a ring of 64 over several triple blocks, the
    octahedral packing), and in the refusal when no cap smaller than the
    sphere encloses the family."""
    families = [octahedral_packing(), _ring(4, 0.4, 0.05), _ring(6, 0.7, 0.1), _ring(64, 0.5, 0.01)]
    families += [[Cap(np.array([x, y, 0.8]), 0.1) for x, y in ((0.6, 0.0), (0.0, 0.6), (-0.6, 0.0), (0.0, -0.6))]]
    for spread in (3.0, 0.3, 0.05):
        for _ in range(15):
            centers, radii = _random_caps(rng, spread)
            families.append([Cap(c, r * min(1.0, spread)) for c, r in zip(centers, radii)])
    s = 1.0 / math.sqrt(3.0)
    tetra = [Cap(np.array(v) * s, 1.95) for v in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
    families += [[Cap(EZ, 1.5), Cap(-EZ, 1.5)], tetra]
    ties = refused = 0
    for caps in families:
        try:
            want_u, want_r, same = _enclosing_cap_reference(caps)
        except GeometryError as err:
            with pytest.raises(GeometryError, match=str(err)):
                enclosing_cap(caps)
            refused += 1
            continue
        got_u, got_r = enclosing_cap(caps)
        assert got_r == want_r and np.array_equal(got_u, want_u)
        ties += same > 1
    assert refused == 2 and ties >= 3, (refused, ties)


def test_enclosing_cap_small_cases():
    c, r = enclosing_cap([Cap(EZ, 0.4)])
    assert angular_distance(c, EZ) == pytest.approx(0.0, abs=1e-9)
    assert r == pytest.approx(0.4, abs=1e-9)
    a = Cap(np.array([math.sin(0.3), 0.0, math.cos(0.3)]), 0.3)
    b = Cap(np.array([-math.sin(0.3), 0.0, math.cos(0.3)]), 0.3)
    c, r = enclosing_cap([a, b])
    assert r == pytest.approx(0.6, abs=1e-9)
    assert angular_distance(c, EZ) == pytest.approx(0.0, abs=1e-7)
    assert angular_distance(c, a.center) + a.radius <= r + 1e-9


def test_enclosing_cap_at_tol_zero_finds_the_tight_cover():
    """The smallest cap around the right-angle chain rests on caps that it
    covers only to round-off; tol = 0 still finds it."""
    caps = _right_angle_chain()
    center, radius = enclosing_cap(caps, 0.0)
    want_center, want_radius = enclosing_cap(caps)
    assert radius == want_radius == pytest.approx(0.2920680052854174, abs=1e-15)
    assert np.array_equal(center, want_center)
    rep = cap_cover_check(caps, tol=0.0)
    assert rep.holds and rep.radius == want_radius


def test_cap_cover_check_equality_holds_at_tol_zero():
    """Four caps of radius 0.1 tangent along the equator fit in a cap of
    radius 0.4 exactly, the equality case; round-off puts it 1.1e-16 above
    the total radius."""
    caps = [Cap([math.cos(0.2 * k), math.sin(0.2 * k), 0.0], 0.1) for k in range(4)]
    rep = cap_cover_check(caps, tol=0.0)
    assert rep.holds and rep.slack == cap_cover_check(caps).slack


def test_cap_cover_check_chain(rng):
    for _ in range(5):
        k = int(rng.integers(3, 6))
        radii = 0.05 + 0.1 * rng.random(k)
        assert radii.sum() < math.pi / 2.0
        rep = cap_cover_check(tangent_cap_chain(rng, k, radii))
        assert rep.holds
        assert rep.split_check.non_separable
        assert rep.radius <= rep.total_radius + 1e-9


def test_cap_cover_check_guards(rng):
    big = tangent_cap_chain(rng, 3, [0.6, 0.6, 0.6])
    with pytest.raises(GeometryError, match="below pi/2"):
        cap_cover_check(big)
    apart = [Cap(EX, 0.2), Cap(-EX, 0.2)]
    with pytest.raises(GeometryError, match="splits"):
        cap_cover_check(apart)


def test_zones_cover_check():
    w = math.asin(1.0 / math.sqrt(3.0))
    zones = [Zone(EX, w), Zone(EY, w), Zone(EZ, w)]
    rep = zones_cover_check(zones)
    assert rep.covers and rep.holds
    assert rep.slack == pytest.approx(6.0 * w - math.pi, abs=1e-12)
    rep = zones_cover_check([Zone(EZ, math.pi / 2.0)])
    assert rep.covers and rep.slack == pytest.approx(0.0, abs=1e-12)
    rep = zones_cover_check([Zone(EZ, 0.2)])
    assert not rep.covers and rep.holds
    assert not Zone(EZ, 0.2).contains_point(rep.witness)
    # just narrower octant zones leave the corner directions uncovered
    zones = [Zone(EX, w - 1e-6), Zone(EY, w), Zone(EZ, w)]
    rep = zones_cover_check(zones)
    assert not rep.covers and not any(z.contains_point(rep.witness) for z in zones)


def test_zones_cover_check_matches_a_dense_sample(rng):
    """On random families of 2-6 zones (total width 0.5 pi to 1.5 pi), the
    exact verdict equals that of 200 000 Fibonacci points wherever the best
    uncovered margin is more than 1e-3 from 0, and every witness misses
    every zone."""
    points = pole_grid()
    count = covered = 0
    while count < 220:
        k = int(rng.integers(2, 7))
        poles = rng.normal(size=(k, 3))
        poles /= np.linalg.norm(poles, axis=1, keepdims=True)
        w = rng.uniform(0.2, 1.0, k)
        w = np.minimum(w / w.sum() * math.pi * rng.uniform(0.5, 1.5), math.pi / 2.0)
        margin = spherical._best_pole(poles, w, split=False)[0]
        if abs(margin) <= 1e-3:
            continue
        count += 1
        rep = zones_cover_check([Zone(p, x) for p, x in zip(poles, w)])
        assert rep.covers == (margin <= 0.0)
        assert rep.covers == (not (np.abs(points @ poles.T) > np.sin(w)).all(axis=1).any())
        if rep.covers:
            covered += 1
            assert rep.witness is None
        else:
            assert (np.abs(poles @ rep.witness) > np.sin(w)).all()
    assert 60 <= covered <= 160


def test_separable_tammes_table():
    want = {
        2: math.pi / 2.0,
        3: math.pi / 4.0,
        4: math.pi / 4.0,
        5: math.atan(0.75),
        6: math.atan(0.75),
        7: math.asin(1.0 / math.sqrt(3.0)),
        8: math.asin(1.0 / math.sqrt(3.0)),
    }
    for k, r in want.items():
        e = separable_tammes(k)
        assert e.exact and e.radius == pytest.approx(r, abs=1e-12)
        assert e.lower == e.upper == e.radius
    # the k = 8 value in its arccos form
    assert math.acos(math.sqrt(2.0 / 3.0)) == pytest.approx(
        math.asin(1.0 / math.sqrt(3.0)), abs=1e-12
    )
    # the octahedral and triangle-based packings realize the k = 8 and k = 6 values
    assert octahedral_packing()[0].radius == pytest.approx(want[8], abs=1e-12)
    assert cuboctahedral_packing()[0].radius == pytest.approx(want[6], abs=1e-12)
    e = separable_tammes(40)
    assert not e.exact and e.radius is None
    assert e.lower < e.upper
    assert "asymptotic" in e.note
    with pytest.raises(ValueError):
        separable_tammes(1)
