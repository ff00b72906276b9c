"""Shared random generators for the test suite."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import sepgeom
from sepgeom.bodies import ConvexBody, GeometryError, HomothetFamily

SRC = str(Path(sepgeom.__file__).resolve().parents[1])


def fresh_python(code: str, *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """python -c code args in a new interpreter that imports this sepgeom."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


def random_symmetric_polygon(rng, k: int | None = None, scale: float = 1.0) -> ConvexBody:
    """Random o-symmetric convex polygon with at most 2k vertices."""
    k = int(k if k is not None else rng.integers(3, 7))
    for _ in range(64):
        ang = rng.uniform(0.0, math.pi, k)
        rad = rng.uniform(0.5, 1.5, k) * scale
        pts = np.c_[np.cos(ang), np.sin(ang)] * rad[:, None]
        pts = np.vstack([pts, -pts])
        try:
            hull = ConvexHull(pts)
            return ConvexBody.polygon(pts[hull.vertices])
        except GeometryError:
            continue
    raise RuntimeError("could not draw a symmetric polygon")


def random_convex_polygon(rng, k: int = 8, scale: float = 1.0) -> ConvexBody:
    """Random convex polygon from the hull of k gaussian points."""
    for _ in range(64):
        pts = rng.normal(size=(k, 2)) * scale
        try:
            hull = ConvexHull(pts)
            return ConvexBody.polygon(pts[hull.vertices])
        except GeometryError:
            continue
    raise RuntimeError("could not draw a convex polygon")


def random_reference(rng) -> ConvexBody:
    """Disk or random o-symmetric polygon, half and half."""
    if rng.random() < 0.5:
        return ConvexBody.disk((0.0, 0.0), float(rng.uniform(0.5, 1.5)))
    return random_symmetric_polygon(rng)


def point_inside(rng, body: ConvexBody) -> np.ndarray:
    """Uniform-ish random point in a disk or polygon."""
    if body.kind == "disk":
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        rad = body.radius * math.sqrt(float(rng.random()))
        return body.center + rad * np.array([math.cos(ang), math.sin(ang)])
    w = rng.dirichlet(np.ones(len(body.vertices)))
    return w @ body.vertices


def ns_family(rng, reference: ConvexBody, n: int) -> HomothetFamily:
    """NS-family of homothets: each new member overlaps an earlier one.

    x_new = x_j + s (p - q) with p in tau_j K, q in tau_new K and s < 1
    keeps the intersection nonempty, so the union stays connected.
    """
    ratios = rng.uniform(0.3, 1.5, n)
    centers = np.zeros((n, 2))
    for i in range(1, n):
        j = int(rng.integers(0, i))
        p = ratios[j] * point_inside(rng, reference)
        q = ratios[i] * point_inside(rng, reference)
        s = float(rng.uniform(0.3, 0.99))
        centers[i] = centers[j] + s * (p - q)
    return HomothetFamily(reference, centers, ratios)


def spanning_dual(m, c, w) -> float:
    """min y . c over y >= 0 with y . m = 0 and y . w = 1, by enumeration.

    By LP duality this is the largest lam with {x : m x <= c - lam w}
    nonempty. A basic y is positive on three rows whose normals span the
    plane positively (y their cofactors) or on two antiparallel rows. Every
    triple and pair is tried in exact rational arithmetic on the float
    inputs, in no particular order.
    """
    from fractions import Fraction
    from itertools import combinations

    m = [(Fraction(float(a)), Fraction(float(b))) for a, b in m]
    c, w = [Fraction(float(v)) for v in c], [Fraction(float(v)) for v in w]

    def cross(i, j):
        return m[i][0] * m[j][1] - m[i][1] * m[j][0]

    best = None
    for a, b, d in combinations(range(len(c)), 3):
        y = {a: cross(b, d), b: cross(d, a), d: cross(a, b)}
        if all(v > 0 for v in y.values()) or all(v < 0 for v in y.values()):
            val = sum(y[i] * c[i] for i in y) / sum(y[i] * w[i] for i in y)
            best = val if best is None else min(best, val)
    for a, b in combinations(range(len(c)), 2):
        dot = m[a][0] * m[b][0] + m[a][1] * m[b][1]
        if cross(a, b) == 0 and dot < 0:
            s = -dot / (m[a][0] ** 2 + m[a][1] ** 2)  # m_b = -s m_a
            val = (s * c[a] + c[b]) / (s * w[a] + w[b])
            best = val if best is None else min(best, val)
    return float(best)


def sns_disk_centers(rng, n: int, radius: float = 1.0) -> np.ndarray:
    """Packing of unit disks built by tangent attachment, SNS by construction."""
    centers = [np.zeros(2)]
    while len(centers) < n:
        j = int(rng.integers(0, len(centers)))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        cand = centers[j] + 2.0 * radius * np.array([math.cos(ang), math.sin(ang)])
        d = np.linalg.norm(np.array(centers) - cand, axis=1)
        if d.min() >= 2.0 * radius - 1e-12:
            centers.append(cand)
    return np.array(centers)


def ts_lattice_subset(rng, reference: ConvexBody, rows: int, cols: int) -> np.ndarray:
    """Block of the parallelogram lattice of K, a TS translate packing."""
    from sepgeom.measures import min_area_parallelogram

    fit = min_area_parallelogram(reference)
    corners = fit.corners()
    u = corners[1] - corners[0]
    v = corners[3] - corners[0]
    ii, jj = np.meshgrid(np.arange(cols), np.arange(rows))
    return ii.reshape(-1, 1) * u + jj.reshape(-1, 1) * v


def _tangent_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors that complete the unit vector p to a right-handed frame."""
    a = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(p, a)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


@functools.lru_cache(maxsize=1)
def pole_grid(m: int = 200_000) -> np.ndarray:
    """m nearly uniform poles, a brute-force reference for the spherical checks."""
    from sepgeom._kernels import fibonacci_sphere

    return fibonacci_sphere(m)


def random_cap_packing(rng, k: int, lo: float, hi: float) -> list:
    """Up to k caps with radii in [lo, hi), placed at random without overlap."""
    from sepgeom.spherical import Cap

    centers, radii = [], []
    for _ in range(2000):
        if len(centers) == k:
            break
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        r = float(rng.uniform(lo, hi))
        if all(math.acos(min(1.0, float(c @ d))) >= r + s for d, s in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    return [Cap(c, r) for c, r in zip(centers, radii)]


def tangent_cap_chain(rng, k: int, radii=None) -> list:
    """Chain of pairwise tangent caps walked along random tangent turns."""
    from sepgeom.spherical import Cap

    if radii is None:
        radii = rng.uniform(0.08, 0.16, k)
    radii = np.asarray(radii, dtype=float)
    centers = [np.array([0.0, 0.0, 1.0])]
    heading = 0.0
    for i in range(1, k):
        heading += float(rng.uniform(-0.6, 0.6))
        e1, e2 = _tangent_frame(centers[-1])
        step = radii[i - 1] + radii[i]
        w = math.cos(heading) * e1 + math.sin(heading) * e2
        c = math.cos(step) * centers[-1] + math.sin(step) * w
        centers.append(c / np.linalg.norm(c))
    return [Cap(c, float(r)) for c, r in zip(centers, radii)]


def random_guillotine(rng, n_cuts: int, min_side: float = 0.12):
    """Axis-cut partition of the unit cube with one inscribed ball per cell."""
    from sepgeom.packing import GuillotinePartition, PlaneCut

    lo = np.zeros(3)
    hi = np.ones(3)
    boxes = [(lo.copy(), hi.copy())]
    cuts = []
    for _ in range(n_cuts):
        wide = [
            (i, k)
            for i, (a, b) in enumerate(boxes)
            for k in range(3)
            if b[k] - a[k] >= 2.0 * min_side
        ]
        if not wide:
            break
        i, k = wide[int(rng.integers(0, len(wide)))]
        a, b = boxes[i]
        c = float(rng.uniform(a[k] + min_side, b[k] - min_side))
        e = np.zeros(3)
        e[k] = 1.0
        cuts.append(PlaneCut(cell=i, normal=e, offset=c))
        below_hi = b.copy()
        below_hi[k] = c
        above_lo = a.copy()
        above_lo[k] = c
        boxes[i] = (a, below_hi)
        boxes.append((above_lo, b))
    r = min(float((b - a).min()) for a, b in boxes) / 2.0
    balls = tuple((0.5 * (a + b), r) for a, b in boxes)
    return GuillotinePartition(lo, hi, tuple(cuts), balls)


def house7_centers() -> np.ndarray:
    """Square plus a regular pentagon of unit edges sharing one side."""
    s, c = math.sin(math.radians(108.0)), math.cos(math.radians(108.0))
    p3 = np.array([1.0 + s, 1.0 - c])
    p5 = np.array([1.0 + s, c])
    p4 = np.array([1.0 + s + math.sin(math.radians(36.0)), 0.5])
    return np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], p3, p4, p5]
    )


def thirteen_ts_centers() -> np.ndarray:
    """3x4 block of the unit lattice plus one pendant disk."""
    pts = [(x, y) for y in range(4) for x in range(3)]
    pts.append((3, 0))
    return np.array(pts, dtype=float)


def thirteen_pentagon_centers() -> np.ndarray:
    """Five-square polyomino with an equilateral-pentagon face attached.

    The pentagon has vertices (0,1),(0,0),(1,0),D,E with unit edges and
    mirror symmetry in y = x; D = (t + 1/sqrt2, t) solves
    (t + 1/sqrt2 - 1)^2 + t^2 = 1.
    """
    b = 1.0 / math.sqrt(2.0) - 1.0
    t = (-b + math.sqrt(2.0 - b * b)) / 2.0
    d = np.array([t + 1.0 / math.sqrt(2.0), t])
    e = d[::-1].copy()
    lattice = [
        (x, y)
        for x in (-2, -1, 0)
        for y in (-1, 0, 1)
    ] + [(1, -1), (1, 0)]
    return np.vstack([np.array(lattice, dtype=float), d[None, :], e[None, :]])


def disk_bodies(centers, radius: float) -> list:
    return [ConvexBody.disk(c, radius) for c in np.asarray(centers, dtype=float)]


def _plain_features(body: ConvexBody):
    """Feature points, radius and unit edge normals of a planar body."""
    if body.kind == "disk":
        return [tuple(map(float, body.center))], body.radius, []
    vs = [tuple(map(float, v)) for v in body.vertices]
    normals = []
    for e in range(len(vs) if len(vs) > 2 else 1):
        (x0, y0), (x1, y1) = vs[e], vs[(e + 1) % len(vs)]
        length = math.hypot(x1 - x0, y1 - y0)
        normals.append(((y1 - y0) / length, (x0 - x1) / length))
    return vs, 0.0, normals


def _best_line(a: ConvexBody, b: ConvexBody):
    """(clearance, u, s) of the best line <u, x> = s between two planar
    bodies, a below and b above, in plain Python.

    The max, over the unit feature differences q - p ((1, 0) where they
    coincide) and the edge normals of both bodies and their opposites, of
    min <u, q> - r_b - max <u, p> - r_a; s is the middle of the gap.
    """
    pa, ra, na = _plain_features(a)
    pb, rb, nb = _plain_features(b)
    dirs = []
    for x0, y0 in pa:
        for x1, y1 in pb:
            length = math.hypot(x1 - x0, y1 - y0)
            dirs.append(((x1 - x0) / length, (y1 - y0) / length) if length > 0.0 else (1.0, 0.0))
    dirs += na + nb
    best = (-math.inf, (1.0, 0.0), 0.0)
    for ux, uy in dirs + [(-x, -y) for x, y in dirs]:
        hi = max(ux * x + uy * y for x, y in pa) + ra
        lo = min(ux * x + uy * y for x, y in pb) - rb
        if lo - hi > best[0]:
            best = (lo - hi, (ux, uy), 0.5 * (lo + hi))
    return best


def pair_clearance_reference(a: ConvexBody, b: ConvexBody) -> float:
    """Largest one-line clearance of two planar bodies, in plain Python."""
    return _best_line(a, b)[0]


def ts_reference(bodies, tol: float = 1e-9):
    """Total separability of a planar packing from a pool of candidate lines,
    in plain Python: (is_ts, unresolved pairs).

    The pool holds the members' edge lines, the common tangents of two
    features (disk centers with their radius, vertices with radius 0) of
    different members, and the best line of every pair. A line is free when
    every member lies within tol of one side; a pair is split by a free line
    with the two members on opposite sides.
    """
    feats = [_plain_features(b) for b in bodies]
    lines = []
    for pts, _, normals in feats:
        lines += [(ux, uy, max(ux * x + uy * y for x, y in pts)) for ux, uy in normals]
    circles = [(x, y, r, m) for m, (pts, r, _) in enumerate(feats) for x, y in pts]
    for a, (xa, ya, ra, ma) in enumerate(circles):
        for xb, yb, rb, mb in circles[a + 1 :]:
            big = math.hypot(xa - xb, ya - yb)
            if ma == mb or big < 1e-12:
                continue
            hx, hy = (xa - xb) / big, (ya - yb) / big
            # lines <u, x> = s tangent to both circles: <u, c_a> - r_a = <u, c_b> -+ r_b
            for sign in (1.0, -1.0):
                cos = (ra - sign * rb) / big
                if abs(cos) > 1.0 + 1e-9 or (sign < 0.0 and rb == 0.0):
                    continue
                cos = min(1.0, max(-1.0, cos))
                sin = math.sqrt(max(0.0, 1.0 - cos * cos))
                both = sin >= 1e-12 and (ra > 0.0 or rb > 0.0)
                for side in (1.0, -1.0) if both else (1.0,):
                    ux, uy = cos * hx - side * sin * hy, cos * hy + side * sin * hx
                    lines.append((ux, uy, ux * xa + uy * ya - ra))
    n = len(bodies)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        _, (ux, uy), s = _best_line(bodies[i], bodies[j])
        lines.append((ux, uy, s))
    open_pairs = set(pairs)
    for ux, uy, s in lines:
        if not open_pairs:
            break
        norm = math.hypot(ux, uy)
        below, above = [], []
        for pts, r, _ in feats:
            proj = [ux * x + uy * y for x, y in pts]
            below.append(max(proj) + r * norm <= s + tol)
            above.append(min(proj) - r * norm >= s - tol)
        if all(p or q for p, q in zip(below, above)):
            open_pairs = {
                (i, j) for i, j in open_pairs
                if not ((below[i] and above[j]) or (above[i] and below[j]))
            }
    unresolved = sorted(open_pairs)
    return not unresolved, unresolved


def _support_point(rng, body: ConvexBody, u) -> np.ndarray:
    """A point of body where <u, x> is largest; on an edge facing u, its
    ends or its middle."""
    if body.kind == "disk":
        return body.center + body.radius * np.asarray(u)
    proj = body.vertices @ u
    top = body.vertices[proj >= proj.max() - 1e-12]
    if len(top) == 1:
        return top[0]
    lam = float(rng.choice([0.0, 0.5, 1.0]))
    return (1.0 - lam) * top[0] + lam * top[-1]


def touching_packing(rng, shapes, n: int) -> list:
    """Up to n translates of the bodies shapes, each attached to an earlier
    member so that the two touch: along a random direction, a multiple of
    pi/6, or an edge normal of either, so disks meet tangentially and
    polygons corner to corner, corner to edge or edge to edge. A translate
    meets every other member either at distance 0 (to rounding) or at least
    1e-6 away, and none overlap."""
    placed = [shapes[int(rng.integers(len(shapes)))]]
    for _ in range(40 * n):
        if len(placed) == n:
            break
        old = placed[int(rng.integers(len(placed)))]
        shape = shapes[int(rng.integers(len(shapes)))]
        pick = int(rng.integers(4))
        if pick == 1:
            ang = math.pi / 6.0 * int(rng.integers(12))
        elif pick >= 2 and (old, shape)[pick - 2].kind == "polygon":
            normals = _plain_features((old, shape)[pick - 2])[2]
            ux, uy = normals[int(rng.integers(len(normals)))]
            ang = math.atan2(uy, ux) + (math.pi if pick == 3 else 0.0)
        else:
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
        u = np.array([math.cos(ang), math.sin(ang)])
        new = shape.translate(_support_point(rng, old, u) - _support_point(rng, shape, -u))
        gaps = [pair_clearance_reference(b, new) for b in placed]
        if all(g >= 1e-6 or abs(g) <= 1e-12 for g in gaps):
            placed.append(new)
    return placed


def move_bodies(rng, bodies) -> list:
    """The bodies under one random rotation and translation."""
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    t = rng.uniform(-3.0, 3.0, 2)
    return [b.transform(rot, t) for b in bodies]


def ns_pair_sweep(family, tol: float = 1e-9):
    """Non-separability of a planar family by the all-pairs midpoint sweep,
    a test-only oracle for is_non_separable: (non_separable, directions
    swept, widest gap, number of components of the never-split graph).

    Every pair's arc of splitting directions (threshold tol scaled by
    min(1, extent of the family)) over all k^2 feature differences, and the
    widest gap at the midpoints between all their ends taken mod pi: at most
    n(n - 1) directions, with no component reduction. The components of the
    pairs with an empty arc come from a plain union-find.
    """
    from sepgeom import separability as sp
    from sepgeom._kernels import _cells, sweep

    bodies = family.bodies() if isinstance(family, HomothetFamily) else list(family)
    n = len(bodies)
    pts, rad = sp._member_features(bodies)
    t = sp._scaled_tol(pts, rad, tol)
    i, j = np.triu_indices(n, 1)
    lo, hi = sp._arcs(sp._differences(pts, i, j), (rad[i] + rad[j] + t)[:, None])
    split = lo < hi
    root = list(range(n))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in zip(i[~split].tolist(), j[~split].tolist()):
        root[find(a)] = find(b)
    c = len({find(a) for a in range(n)})
    if not split.any():
        return True, 0, -math.inf, c
    _, mids = _cells(np.concatenate([lo[split], hi[split]]), math.pi)
    dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    widest = float(sweep(*sp._project(dirs, pts, rad))[1].max())
    return not widest > t, len(dirs), widest, c
