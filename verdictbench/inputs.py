"""Seeded inputs for the verdict benchmark, as plain Python numbers.

Inputs are generated with ``random.Random`` so that building them needs no
import of numpy or of sepgeom: set-up time then covers exactly the import of
the program and the construction of its objects. Sizes follow fixed
schedules, and shapes come from a fixed stream (``shapes(workload)``); the
seed only picks a rigid motion of each instance (``rigid_motion`` and
``move_*``, or a symmetry of Z^2 or a rotation of the sphere), so the work
in a batch does not depend on the seed.

Raw bodies are tuples: ``("disk", (cx, cy), r)`` or ``("poly", [(x, y), ...])``
with counter-clockwise vertices.
"""

import math
import random

from checker import support, translate

SQRT3 = math.sqrt(3.0)
KIRCHBERGER_SLAB = 0.3  # width of the empty slab between separable sides


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def _superellipse_point(t: float, q: float) -> tuple[float, float]:
    c, s = math.cos(t), math.sin(t)
    return (math.copysign(abs(c) ** (2.0 / q), c), math.copysign(abs(s) ** (2.0 / q), s))


def _angles(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k sorted angles in (lo, hi) with spacing at least a fifth of the mean."""
    gap = (hi - lo) / (k + 1)
    return [lo + gap * (i + 1) + rng.uniform(-0.4, 0.4) * gap for i in range(k)]


def _linear_map(rng: random.Random, scale: float) -> tuple[float, float, float, float]:
    """Rotation times a diagonal stretch of bounded condition number."""
    a = rng.uniform(0.0, math.pi)
    sx = scale * rng.uniform(0.7, 1.3)
    sy = scale * rng.uniform(0.7, 1.3)
    c, s = math.cos(a), math.sin(a)
    return (c * sx, -s * sy, s * sx, c * sy)


def _apply(m, p):
    return (m[0] * p[0] + m[1] * p[1], m[2] * p[0] + m[3] * p[1])


def symmetric_polygon(rng: random.Random, k: int) -> list:
    """o-symmetric strictly convex polygon with 2k vertices.

    The vertices lie on a superellipse |x|^q + |y|^q = 1 (strictly convex for
    q > 1) at k angles in [0, pi) and their antipodes, then a linear map.
    """
    q = rng.uniform(1.4, 3.0)
    m = _linear_map(rng, 1.0)
    half = [_superellipse_point(t, q) for t in _angles(rng, k, 0.0, math.pi)]
    pts = half + [(-x, -y) for x, y in half]
    return [_apply(m, p) for p in pts]


def lattice_cell(rng: random.Random, k: int):
    """o-symmetric polygon inscribed in a parallelogram touching its side midpoints.

    Returns (vertices, u, v): the polygon is A K0 where K0 has the vertices
    (+-1, 0), (0, +-1) plus k - 2 superellipse points per half turn strictly
    inside the square [-1, 1]^2, and u = 2 A e1, v = 2 A e2. Translates by the
    lattice of u and v tile the plane with the parallelograms A [-1, 1]^2, so
    every block of the lattice is totally separable, and each member touches
    exactly its neighbours along u and v. Every coordinate lies on the grid
    of GRID, so the lattice points and their differences are exact in floating
    point, also after a ``grid_motion``.
    """
    q = rng.uniform(1.4, 3.0)
    m = tuple(snap(x) for x in _linear_map(rng, 1.0))
    q1 = [_superellipse_point(t, q) for t in _angles(rng, (k - 2) // 2, 0.0, math.pi / 2)]
    q2 = [_superellipse_point(t, q) for t in _angles(rng, k - 2 - (k - 2) // 2, math.pi / 2, math.pi)]
    half = [(1.0, 0.0)] + q1 + [(0.0, 1.0)] + q2
    pts = half + [(-x, -y) for x, y in half]
    poly = [(snap(x), snap(y)) for x, y in (_apply(m, p) for p in pts)]
    return poly, _apply(m, (2.0, 0.0)), _apply(m, (0.0, 2.0))


def lattice_block(shape: random.Random, rows: int, cols: int, k: int) -> dict:
    """rows x cols translates of a lattice cell (2k vertices) around the
    origin. cell_area is the area of the lattice's tiles."""
    poly, u, v = lattice_cell(shape, k)
    centers = [(i * u[0] + j * v[0], i * u[1] + j * v[1]) for j in range(rows) for i in range(cols)]
    cell_area = abs(u[0] * v[1] - u[1] * v[0])
    return {"poly": poly, "centers": centers, "rows": rows, "cols": cols, "cell_area": cell_area}


def convex_polygon(rng: random.Random, k: int, scale: float) -> list:
    """Strictly convex polygon with k vertices on a random ellipse."""
    m = _linear_map(rng, scale)
    return [_apply(m, (math.cos(t), math.sin(t))) for t in _angles(rng, k, 0.0, 2.0 * math.pi)]


# ---------------------------------------------------------------------------
# seeded rigid motions
# ---------------------------------------------------------------------------


def shapes(workload: str) -> random.Random:
    """The stream every shape of a workload is drawn from, the same for every seed."""
    return random.Random(f"{workload}/shapes")


GRID = 2.0**-20


def snap(x: float) -> float:
    return round(x / GRID) * GRID


def grid_motion(rng: random.Random, reach: float = 5.0) -> tuple:
    """A translation by a multiple of 2^-8, at most reach per axis, as a motion.

    Points on the grid of GRID move exactly, so a lattice block's point
    differences, and with them the directions the program derives and
    deduplicates, are the same for every seed.
    """
    k = int(reach * 256)
    return (1.0, 0.0, 0.0, 1.0, rng.randint(-k, k) / 256.0, rng.randint(-k, k) / 256.0)


def rigid_motion(rng: random.Random, reach: float = 5.0) -> tuple:
    """A rotation about the origin, then a translation by at most reach per axis."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(a), math.sin(a)
    return (c, -s, s, c, rng.uniform(-reach, reach), rng.uniform(-reach, reach))


def move_point(m, p) -> tuple[float, float]:
    return (m[0] * p[0] + m[1] * p[1] + m[4], m[2] * p[0] + m[3] * p[1] + m[5])


def move_body(m, body):
    if body[0] == "disk":
        return ("disk", move_point(m, body[1]), body[2])
    return ("poly", [move_point(m, p) for p in body[1]])


def _turn(m, body):
    """The rotation part of m alone: a reference body stays centred at the origin."""
    return move_body(m[:4] + (0.0, 0.0), body)


def move_family(m, fam: dict) -> dict:
    """tau_i R K + (R x_i + t) is R (tau_i K + x_i) + t: turn the reference, move the centers."""
    return dict(fam, ref=_turn(m, fam["ref"]), centers=[move_point(m, c) for c in fam["centers"]])


def move_block(m, blk: dict) -> dict:
    poly = _turn(m, ("poly", blk["poly"]))[1]
    return dict(blk, poly=poly, centers=[move_point(m, c) for c in blk["centers"]])


def _point_inside(rng: random.Random, ref) -> tuple[float, float]:
    if ref[0] == "disk":
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = ref[2] * math.sqrt(rng.random())
        return (ref[1][0] + r * math.cos(a), ref[1][1] + r * math.sin(a))
    w = [rng.expovariate(1.0) for _ in ref[1]]
    tot = sum(w)
    return (
        sum(wi * v[0] for wi, v in zip(w, ref[1])) / tot,
        sum(wi * v[1] for wi, v in zip(w, ref[1])) / tot,
    )


# ---------------------------------------------------------------------------
# ns-arrangements
# ---------------------------------------------------------------------------


def ns_family(rng: random.Random, ref, n: int) -> dict:
    """Homothets tau_i K + x_i where each new member overlaps an earlier one.

    The union is connected, so no line misses it with members on both sides:
    the family is non-separable by construction.
    """
    ratios = [rng.uniform(0.3, 1.5) for _ in range(n)]
    centers = [(0.0, 0.0)]
    for i in range(1, n):
        j = rng.randrange(i)
        p = _point_inside(rng, ref)
        q = _point_inside(rng, ref)
        s = rng.uniform(0.3, 0.99)
        centers.append(
            (
                centers[j][0] + s * (ratios[j] * p[0] - ratios[i] * q[0]),
                centers[j][1] + s * (ratios[j] * p[1] - ratios[i] * q[1]),
            )
        )
    return {"ref": ref, "centers": centers, "ratios": ratios, "ns": True}


def spread_family(rng: random.Random, ref, n: int) -> dict:
    """An NS family split across a random direction and pulled apart.

    Members whose centers project above the median along u move by a shift
    that leaves a slab of width 0.5 between the two halves, so a line
    perpendicular to u separates the family with clearance 0.25.
    """
    fam = ns_family(rng, ref, n)
    a = rng.uniform(0.0, 2.0 * math.pi)
    ux, uy = math.cos(a), math.sin(a)
    proj = sorted(range(n), key=lambda i: fam["centers"][i][0] * ux + fam["centers"][i][1] * uy)
    upper = set(proj[n // 2 :])

    def hi(i):
        c, t = fam["centers"][i], fam["ratios"][i]
        return c[0] * ux + c[1] * uy + t * support(ref, ux, uy)

    def lo(i):
        c, t = fam["centers"][i], fam["ratios"][i]
        return c[0] * ux + c[1] * uy - t * support(ref, -ux, -uy)

    shift = max(hi(i) for i in range(n) if i not in upper) - min(lo(i) for i in upper) + 0.5
    fam["centers"] = [
        (c[0] + shift * ux, c[1] + shift * uy) if i in upper else c
        for i, c in enumerate(fam["centers"])
    ]
    fam["ns"] = False
    return fam


def reference(rng: random.Random, kind: str, k: int):
    if kind == "disk":
        return ("disk", (0.0, 0.0), rng.uniform(0.5, 1.5))
    return ("poly", symmetric_polygon(rng, k))


def mixed_bodies(rng: random.Random, n: int, separable: bool) -> list:
    """n disks and polygons in [0, 3]^2, as in the Kirchberger criterion.

    The first two bodies form one side, the rest the other. A separable
    instance pushes the sides apart along a random direction until a slab of
    width KIRCHBERGER_SLAB lies between them, so the best separating line has
    margin at least half that. Otherwise body 2 is moved onto body 0, so their
    interiors meet and the first four-member subfamily already fails.
    The number of subfamilies a reduction checks is then fixed by n.
    """
    out = []
    for i in range(n):
        cx, cy = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        if i % 2 == 0:
            out.append(("disk", (cx, cy), rng.uniform(0.2, 0.5)))
        else:
            poly = convex_polygon(rng, 3 + i % 4, 0.5)
            out.append(("poly", [(x + cx, y + cy) for x, y in poly]))
    if separable:
        a = rng.uniform(0.0, 2.0 * math.pi)
        ux, uy = math.cos(a), math.sin(a)
        moved = []
        for i, b in enumerate(out):
            half = 0.5 * KIRCHBERGER_SLAB
            s = -half - support(b, ux, uy) if i < 2 else half + support(b, -ux, -uy)
            s = min(s, 0.0) if i < 2 else max(s, 0.0)
            moved.append(translate(b, (s * ux, s * uy)))
        return moved
    c0, c2 = _anchor(out[0]), _anchor(out[2])
    out[2] = translate(out[2], (c0[0] - c2[0], c0[1] - c2[1]))
    return out


def _anchor(body) -> tuple[float, float]:
    if body[0] == "disk":
        return body[1]
    return (sum(x for x, _ in body[1]) / len(body[1]), sum(y for _, y in body[1]) / len(body[1]))


def sns_disk_chain(rng: random.Random, n: int, radius: float = 1.0) -> list:
    """Equal disks, each attached tangent to an earlier one without overlap."""
    centers = [(0.0, 0.0)]
    while len(centers) < n:
        j = rng.randrange(len(centers))
        a = rng.uniform(0.0, 2.0 * math.pi)
        c = (centers[j][0] + 2.0 * radius * math.cos(a), centers[j][1] + 2.0 * radius * math.sin(a))
        if min(math.dist(c, d) for d in centers) >= 2.0 * radius - 1e-12:
            centers.append(c)
    return centers


def _tangent_frame(p):
    a = (1.0, 0.0, 0.0) if abs(p[0]) < 0.9 else (0.0, 1.0, 0.0)
    e1 = _cross(p, a)
    n1 = math.sqrt(_dot(e1, e1))
    e1 = tuple(x / n1 for x in e1)
    return e1, _cross(p, e1)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _normalize(v):
    n = math.sqrt(_dot(v, v))
    return tuple(x / n for x in v)


def tangent_cap_chain(rng: random.Random, k: int) -> list:
    """Caps (center, radius) with each cap tangent to the previous one."""
    radii = [rng.uniform(0.08, 0.16) for _ in range(k)]
    centers = [(0.0, 0.0, 1.0)]
    heading = 0.0
    for i in range(1, k):
        heading += rng.uniform(-0.6, 0.6)
        e1, e2 = _tangent_frame(centers[-1])
        step = radii[i - 1] + radii[i]
        w = tuple(math.cos(heading) * a + math.sin(heading) * b for a, b in zip(e1, e2))
        c = tuple(math.cos(step) * a + math.sin(step) * b for a, b in zip(centers[-1], w))
        centers.append(_normalize(c))
    return list(zip(centers, radii))


# ---------------------------------------------------------------------------
# ts-packings
# ---------------------------------------------------------------------------


def square_spiral(n: int) -> list:
    """First n points of the counter-clockwise square spiral on Z^2."""
    pts = [(0, 0)]
    x = y = 0
    steps = ((1, 0), (0, 1), (-1, 0), (0, -1))
    run, d = 1, 0
    while len(pts) < n:
        for _ in range(2):
            for _ in range(run):
                x, y = x + steps[d][0], y + steps[d][1]
                pts.append((x, y))
            d = (d + 1) % 4
        run += 1
    return pts[:n]


def moved_spiral(rng: random.Random, n: int) -> list:
    """Spiral under a seeded symmetry of Z^2 and an integer translation.

    Contacts and verdicts are unchanged, and the centers stay integral.
    """
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    swap = rng.random() < 0.5
    tx, ty = rng.randint(-50, 50), rng.randint(-50, 50)
    out = []
    for x, y in square_spiral(n):
        if swap:
            x, y = y, x
        out.append((float(sx * x + tx), float(sy * y + ty)))
    return out


def random_rotation(rng: random.Random):
    """Uniform rotation of R^3 from a random unit quaternion."""
    while True:
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in q))
        if n > 1e-3:
            break
    w, x, y, z = (v / n for v in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def rotate_caps(rot, caps) -> list:
    return [(_normalize(tuple(_dot(row, c) for row in rot)), r) for c, r in caps]


def octahedral_caps() -> list:
    """Eight caps of radius arcsin(1/sqrt 3) centred at the cube's vertices."""
    r = math.asin(1.0 / SQRT3)
    return [
        ((sx / SQRT3, sy / SQRT3, sz / SQRT3), r)
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]


def cuboctahedral_caps() -> list:
    """Six caps of radius arctan(3/4) inscribed in the triangles cut by the
    three side circles of a regular spherical triangle with side arccos(1/4).
    """
    st = ct = math.sqrt(0.5)
    verts = [
        (st * math.cos(2 * math.pi * k / 3), st * math.sin(2 * math.pi * k / 3), ct)
        for k in range(3)
    ]
    poles = [_normalize(_cross(verts[(k + 1) % 3], verts[(k + 2) % 3])) for k in range(3)]
    caps = []
    for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)):
        rows = [tuple(s * x for x in p) for s, p in zip(signs, poles)]
        u = _solve3(rows, (1.0, 1.0, 1.0))
        sinr = 1.0 / math.sqrt(_dot(u, u))
        caps.append((tuple(x * sinr for x in u), math.asin(sinr)))
    return caps


def _solve3(rows, b):
    """Cramer's rule for a 3x3 system."""

    def det(m):
        return _dot(m[0], _cross(m[1], m[2]))

    d = det(rows)
    out = []
    for col in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][col] = b[i]
        out.append(det(m) / d)
    return tuple(out)
