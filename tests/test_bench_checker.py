"""Every spherical, total-separability, non-separability and separating-line
certificate passes the benchmark's independent checker."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np

from helpers import (
    _plain_features,
    disk_bodies,
    move_bodies,
    random_convex_polygon,
    random_reference,
    random_symmetric_polygon,
    tangent_cap_chain,
    thirteen_ts_centers,
    touching_packing,
    ts_lattice_subset,
)
from sepgeom import separability
from sepgeom.bodies import ConvexBody, GeometryError, HomothetFamily
from sepgeom.covering import _containment_violation, min_cover_ratio
from sepgeom.packing import polyomino_packing
from sepgeom.separability import find_separating_hyperplane, is_non_separable, is_ts_packing
from sepgeom.spherical import (
    Cap,
    cap_cover_check,
    cuboctahedral_packing,
    enclosing_cap,
    _split_poles,
    is_ts_cap_packing,
    octahedral_packing,
)

BENCH = Path(__file__).resolve().parents[1] / "verdictbench"


def _bench_module(name: str):
    """verdictbench/<name>.py loaded by path under its own name, which is how
    the benchmark's modules import each other: load a module's imports first."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _raw(caps) -> list:
    return [(tuple(map(float, c.center)), c.radius) for c in caps]


def test_spherical_certificates_pass_the_checker(rng):
    """Every circle of the two cap packings, under 5 rotations, passes the
    checker. The check stops drawing poles once every pair has a circle: the
    octahedral packing is settled by the poles of pairs, before any triple
    (the cuboctahedral one needs its triples: no pair pole misses every cap)."""
    ck = _bench_module("checker")
    for packing in (octahedral_packing(), cuboctahedral_packing()):
        for _ in range(5):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            rot = q * np.sign(np.diag(r))
            caps = [Cap(rot @ c.center, c.radius) for c in packing]
            raw = _raw(caps)
            res = is_ts_cap_packing(caps)
            assert res.is_ts and len(res.certificates) == len(caps) * (len(caps) - 1) // 2
            for (i, j), pole in res.certificates.items():
                ck.check_cap_pair_circle(tuple(map(float, pole)), raw, i, j, 1e-8)
            centers = np.array([c.center for c in caps])
            radii = np.array([c.radius for c in caps])
            every = sum(map(len, _split_poles(centers, radii, 1 << 16)))
            assert res.poles_checked < every if len(caps) == 8 else res.poles_checked <= every
    for k in range(3, 8):
        caps = tangent_cap_chain(rng, k)
        rep = cap_cover_check(caps)
        ck.check_enclosing_cap(tuple(map(float, rep.center)), rep.radius, _raw(caps))
        center, radius = enclosing_cap(caps[1:])
        ck.check_enclosing_cap(tuple(map(float, center)), radius, _raw(caps[1:]))


def _raw_body(body: ConvexBody):
    if body.kind == "disk":
        return ("disk", tuple(map(float, body.center)), body.radius)
    return ("poly", [tuple(map(float, v)) for v in body.vertices])


def _sepgeom_body(raw) -> ConvexBody:
    return ConvexBody.disk(raw[1], raw[2]) if raw[0] == "disk" else ConvexBody.polygon(raw[1])


def test_ts_certificates_pass_the_checker(rng):
    ck, gen, wl = (_bench_module(name) for name in ("checker", "inputs", "workloads"))
    packings = [
        disk_bodies([(2.0 * i, 2.0 * j) for i in range(3) for j in range(3)], 1.0),
        disk_bodies(thirteen_ts_centers(), 0.5),
        disk_bodies(polyomino_packing(30).centers, 0.5),
    ]
    for _ in range(4):
        ref = random_symmetric_polygon(rng)
        packings.append([ref.translate(c) for c in ts_lattice_subset(rng, ref, 3, 4)])
    motion = random.Random(0)
    for blk in wl.make_ts(1)["blocks"]:
        for moved in (blk, gen.move_block(gen.rigid_motion(motion), blk)):
            k = ConvexBody.polygon(moved["poly"])
            packings.append([k.translate(c) for c in np.array(moved["centers"])])
    for bodies in packings:
        n, raw = len(bodies), [_raw_body(b) for b in bodies]
        tol = 1e-9 * ck.scale_of(raw)
        res = is_ts_packing(bodies)
        assert res.is_ts and len(res.certificates) == n * (n - 1) // 2
        for (i, j), cert in res.certificates.items():
            normal, offset = tuple(map(float, cert.plane.normal)), cert.plane.offset
            ck.check_pair_line(normal, offset, raw, i, j, tol)
            assert sorted(cert.left + cert.right) == list(range(n))
            assert (i in cert.left) != (j in cert.left)
            # left members below the line, right members above it
            clearance = ck.line_clearance(
                normal, offset, [raw[m] for m in cert.left], [raw[m] for m in cert.right]
            )
            assert clearance >= -tol and abs(clearance - cert.margin) <= tol


def test_lattice_blocks_are_settled_by_the_touching_rows(monkeypatch):
    """Blocks of TS lattices (1-5 rows and columns, cells of 3-6 vertex pairs,
    quarter turns, moves on the grid of 2^-20) are decided TS and
    3-separable in the first stage of _refine, from the touching pairs'
    directions and the normals of their offsets: _critical_angles, which
    only the second stage calls, raises here. Every TS certificate passes
    the checker."""
    ck, gen = (_bench_module(name) for name in ("checker", "inputs"))

    def second_stage(*args):
        raise AssertionError("a lattice block reached the critical angles")

    monkeypatch.setattr(separability, "_critical_angles", second_stage)
    draw = random.Random(15)
    for turn in range(40):
        rows, cols, k = draw.randint(1, 5), draw.randint(1, 5), draw.randint(3, 6)
        blk = gen.lattice_block(draw, rows, cols, k)
        poly, centers = blk["poly"], blk["centers"]
        for _ in range(turn % 4):
            poly, centers = ([(-y, x) for x, y in pts] for pts in (poly, centers))
        dx, dy = (draw.randint(-(1 << 22), 1 << 22) * 2.0**-20 for _ in range(2))
        centers = np.array([(x + dx, y + dy) for x, y in centers])
        ref = ConvexBody.polygon(poly)
        bodies = [ref.translate(c) for c in centers]
        raw = [_raw_body(b) for b in bodies]
        tol = 1e-9 * ck.scale_of(raw)
        n = len(bodies)
        res = is_ts_packing(bodies)
        assert res.is_ts and len(res.certificates) == n * (n - 1) // 2, turn
        for (i, j), cert in res.certificates.items():
            ck.check_pair_line(tuple(map(float, cert.plane.normal)), cert.plane.offset, raw, i, j, tol)
        assert separability.is_rho_separable(ref, centers, 3.0).separable, turn


def _z2(turn: int, pts) -> np.ndarray:
    """Symmetry number turn (0 to 7) of Z^2 on points (..., 2): turn % 4
    quarter turns, then y -> -y from turn 4 on. Exact in floating point."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    for _ in range(turn % 4):
        x, y = -y, x
    return np.stack([x, -y if turn >= 4 else y], axis=-1)


def _mapped(bodies, f) -> list:
    return [
        ConvexBody.disk(f(b.center), b.radius) if b.kind == "disk" else ConvexBody.polygon(f(b.vertices))
        for b in bodies
    ]


def _on_grid(draw) -> ConvexBody:
    """A polygon from draw() with its vertices rounded to the grid of 2^-8."""
    while True:
        try:
            return ConvexBody.polygon(np.round(draw().vertices * 256.0) / 256.0)
        except GeometryError:
            continue


def _packing_answers(ck, bodies) -> tuple:
    """TS and LS answers of a packing, each TS certificate checked."""
    raw = [_raw_body(b) for b in bodies]
    tol = 1e-9 * ck.scale_of(raw)
    ts, ls = is_ts_packing(bodies), separability.is_ls_packing(bodies)
    for (i, j), cert in ts.certificates.items():
        ck.check_pair_line(tuple(map(float, cert.plane.normal)), cert.plane.offset, raw, i, j, tol)
    return ts.is_ts, ts.unresolved, ls.failing_members, ls.neighborhoods


def _rho_answers(ref, centers) -> list:
    out = []
    for rho in (3.0, 4.5):
        res = separability.is_rho_separable(ref, centers, rho)
        out.append((res.separable, res.failing_member, res.neighborhoods))
    return out


def test_packing_answers_do_not_change_under_exact_maps(rng):
    """TS, LS and rho give the same verdicts, unresolved pairs, failing
    members and neighbourhoods under the 8 symmetries of Z^2 and under
    translations by multiples of 2^-20. Both maps are exact here, so
    touching members stay touching: the symmetries on any coordinates, the
    translations on packings whose coordinates lie on a coarse dyadic grid
    (polygons with vertices on the grid of 2^-8, attached at vertices and
    edge midpoints, and verdictbench's lattice blocks). Every TS
    certificate passes checker.check_pair_line."""
    ck, gen = (_bench_module(name) for name in ("checker", "inputs"))
    disk = ConvexBody.disk((0.0, 0.0), 0.5)
    cases = []  # (bodies, reference and centers for rho or None, on the grid)
    for t in range(24):
        n = int(rng.integers(3, 9))
        if t % 3 == 0:
            poly = random_convex_polygon(rng, 6, 0.6)
            shapes = [disk, poly.translate(-poly.centroid())]
            cases.append((move_bodies(rng, touching_packing(rng, shapes, n)), None, False))
        elif t % 3 == 1:
            shapes = [_on_grid(lambda: random_convex_polygon(rng, int(rng.integers(3, 7)), 0.6)) for _ in range(2)]
            cases.append((touching_packing(rng, shapes, n), None, True))
        else:
            ref = _on_grid(lambda: random_symmetric_polygon(rng))
            members = touching_packing(rng, [ref], n)
            centers = np.array([b.vertices[0] - ref.vertices[0] for b in members])
            cases.append((members, (ref, centers), True))
    draw = random.Random(16)
    for rows, cols, k in ((2, 3, 4), (3, 3, 3), (1, 4, 6), (3, 4, 5)):
        blk = gen.lattice_block(draw, rows, cols, k)
        ref, centers = ConvexBody.polygon(blk["poly"]), np.array(blk["centers"])
        cases.append(([ref.translate(c) for c in centers], (ref, centers), True))
    seen = set()
    for q, (bodies, translates, grid) in enumerate(cases):
        want = _packing_answers(ck, bodies)
        rho = translates and _rho_answers(*translates)
        maps = [(lambda p, turn=turn: _z2(turn, p), True) for turn in range(1, 8)]
        if grid:
            # on the grid of 2^-20 and below 2^12, so sums with the shifts are exact
            coords = np.concatenate([b.vertices for b in bodies]) * 2.0**20
            assert (coords == np.round(coords)).all() and np.abs(coords).max() < 2.0**32, q
            shifts = rng.integers(-(1 << 30), 1 << 30, (2, 2)) * 2.0**-20
            maps += [(lambda p, s=s: p + s, False) for s in shifts]
        for f, turns in maps:
            assert _packing_answers(ck, _mapped(bodies, f)) == want, q
            if translates:
                ref, centers = translates
                assert _rho_answers(_mapped([ref], f)[0] if turns else ref, f(centers)) == rho, q
        seen |= {("ts", want[0]), ("ls", not want[2])} | {("rho", r[0]) for r in rho or ()}
    assert len(seen) == 6, seen


def _moved(rng, bodies) -> list:
    """The bodies under a random rotation and a translation by 1e3."""
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    shift = 1e3 * np.array([math.cos(2.0 * ang), math.sin(2.0 * ang)])
    return [b.transform(rot, shift) for b in bodies]


def test_split_certificates_pass_the_checker(rng):
    """NS witnesses and separating lines of random disk and polygon families,
    rotated and moved by 1e3, pass checker.check_split."""
    ck = _bench_module("checker")
    witnesses = lines = 0
    for _ in range(60):
        ref, n = random_reference(rng), int(rng.integers(2, 13))
        # members spread so that some families are separable and some not
        centers = rng.uniform(0.0, 1.2 * math.sqrt(n), size=(n, 2))
        bodies = [ref.transform(np.eye(2) * rng.uniform(0.3, 1.0), c) for c in centers]
        for fam in (bodies, _moved(rng, bodies)):
            dec = is_non_separable(fam)
            if dec.witness is not None:
                w = dec.witness
                ck.check_split(tuple(w.plane.normal), w.plane.offset, [_raw_body(b) for b in fam],
                               w.left, w.right, w.margin)
                witnesses += 1
        # the members above a random line, lifted clear of the rest along its normal
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        u = np.array([math.cos(ang), math.sin(ang)])
        above = centers @ u > np.median(centers @ u)
        if above.all() or not above.any():
            continue
        lifted = [b.translate(4.0 * u) if up else b for b, up in zip(bodies, above)]
        order = [m for m in range(n) if not above[m]] + [m for m in range(n) if above[m]]
        pair = _moved(rng, [lifted[m] for m in order])
        n1 = int((~above).sum())
        cert = find_separating_hyperplane(pair[:n1], pair[n1:])
        assert cert is not None and list(cert.left) == list(range(n1))
        ck.check_split(tuple(cert.plane.normal), cert.plane.offset, [_raw_body(b) for b in pair],
                       cert.left, cert.right, cert.margin)
        lines += 1
    assert 40 <= witnesses <= 100 and lines >= 30


def _best_line_by_critical_angles(first, second):
    """(value, u) of the best line of two planar families, brute force: the
    largest min over rows, left feature a and right feature b, of
    <u, b - a> - r_a - r_b, at every peak (the angle of a row) and every
    crossing of two rows, the only angles where the minimum of these
    sinusoids can peak."""
    feats = [[(f, r) for b in fam for f, r in [(x, _plain_features(b)[1]) for x in _plain_features(b)[0]]]
             for fam in (first, second)]
    rows = np.array([(bx - ax, by - ay, ra + rb) for (ax, ay), ra in feats[0] for (bx, by), rb in feats[1]])
    p, r = rows[:, :2], rows[:, 2]
    angles = [np.arctan2(p[:, 1], p[:, 0])]
    a, b = np.triu_indices(len(p), 1)
    d, c = p[a] - p[b], r[a] - r[b]
    size = np.hypot(d[:, 0], d[:, 1])
    ok = (size > 0.0) & (np.abs(c) <= size)
    psi, turn = np.arctan2(d[ok, 1], d[ok, 0]), np.arccos(c[ok] / size[ok])
    angles = np.concatenate(angles + [psi - turn, psi + turn])
    vals = np.array([(np.cos(t) * p[:, 0] + np.sin(t) * p[:, 1] - r).min() for t in angles])
    k = int(np.argmax(vals))
    return float(vals[k]), np.array([math.cos(angles[k]), math.sin(angles[k])])


def _random_member(rng, center):
    kind = rng.integers(0, 3)
    if kind == 0:
        return ConvexBody.disk(center, float(rng.uniform(0.1, 0.6)))
    if kind == 1:
        half = rng.uniform(-0.5, 0.5, 2)
        return ConvexBody.segment(center - half, center + half)
    return ConvexBody.polygon(center + random_convex_polygon(rng, k=5, scale=0.5).vertices)


def test_best_separating_line_is_the_best_critical_angle(rng):
    """find_separating_hyperplane in the plane: its normal and margin are
    those of the best critical angle (every peak and every crossing) to
    1e-12, it returns None exactly where that best gap is at most its
    threshold 2 tol min(1, extent), and every line passes
    checker.check_split. On 320 random pairs of families of disks, segments
    and polygons, apart or overlapping, and on the separable
    find_separating_hyperplane ops of ns-arrangements seeds 1-5."""
    ck, _, wl = (_bench_module(name) for name in ("checker", "inputs", "workloads"))
    pairs = []
    for i in range(320):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        away = rng.uniform(0.0, 4.0) * np.array([math.cos(ang), math.sin(ang)])
        first = [_random_member(rng, rng.uniform(-1.0, 1.0, 2)) for _ in range(rng.integers(1, 3))]
        second = [_random_member(rng, rng.uniform(-1.0, 1.0, 2) + away) for _ in range(rng.integers(1, 3))]
        pairs.append((first, second))
    bench = 0
    for seed in range(1, 6):
        for bodies, n1, separable in wl.make_ns(seed)["kirchberger"]:
            if separable:
                objs = [_sepgeom_body(b) for b in bodies]
                pairs.append((objs[:n1], objs[n1:]))
                bench += 1
    assert bench == 30
    found = 0
    for first, second in pairs:
        value, u = _best_line_by_critical_angles(first, second)
        pts, rad = separability._member_features(first + second)
        thr = 2.0 * separability._scaled_tol(pts, rad, 1e-9)
        cert = find_separating_hyperplane(first, second)
        assert abs(value - thr) > 1e-9  # no family sits at the threshold
        assert (cert is None) == (value <= thr)
        if cert is None:
            continue
        found += 1
        assert np.abs(cert.plane.normal - u).max() <= 1e-12
        assert abs(cert.margin - 0.5 * value) <= 1e-12
        raw = [_raw_body(b) for b in first + second]
        ck.check_split(tuple(cert.plane.normal), cert.plane.offset, raw, cert.left, cert.right, cert.margin)
    assert found >= 200


def test_cover_violation_matches_a_facet_loop(rng):
    """The containment violation tests every member against every facet of
    K in one numpy pass. On the ns-arrangements families of seeds 1-5, at
    the minimal cover and at three covers moved and shrunk off it, it
    equals a plain loop over facets and members to 1e-15 of the family's
    size; every minimal cover contains its family."""
    _, _, wl = (_bench_module(name) for name in ("checker", "inputs", "workloads"))
    polygons = 0
    for seed in range(1, 6):
        for fam in wl.make_ns(seed)["families"]:
            if fam["ref"][0] != "poly":
                continue
            polygons += 1
            k = _sepgeom_body(fam["ref"])
            family = HomothetFamily(k, np.array(fam["centers"]), np.array(fam["ratios"]))
            cov = min_cover_ratio(family)
            assert cov.contains_all
            covers = [(cov.center, cov.ratio)] + [
                (cov.center + rng.normal(size=2) * 0.1 * cov.ratio, cov.ratio * rng.uniform(0.5, 1.0))
                for _ in range(3)
            ]
            for center, ratio in covers:
                worst, size = -math.inf, 0.0
                for e in range(len(k.vertices)):
                    (x0, y0), (x1, y1) = k.vertices[e], k.vertices[(e + 1) % len(k.vertices)]
                    length = math.hypot(x1 - x0, y1 - y0)
                    nx, ny = (y1 - y0) / length, (x0 - x1) / length
                    h = max(nx * x + ny * y for x, y in k.vertices)
                    cover = nx * center[0] + ny * center[1] + ratio * h
                    for (cx, cy), tau in zip(fam["centers"], fam["ratios"]):
                        member = nx * cx + ny * cy + tau * h
                        worst, size = max(worst, member - cover), max(size, abs(member), abs(cover))
                got = _containment_violation(family, center, ratio)
                assert abs(got - worst) <= 1e-15 * size
    assert polygons == 5 * (len(wl.NS_SIZES) + len(wl.SPREAD_SIZES))
