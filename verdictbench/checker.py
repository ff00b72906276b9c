"""Independent checks of sepgeom verdicts, recomputed from raw coordinates.

Nothing here imports sepgeom or numpy: supports, gauges, hulls and angles
are evaluated in plain Python from the generated inputs, so a fault in the
program's own geometry cannot hide itself. Every check raises CheckError
with a reason when the verdict or its certificate is wrong.

Raw bodies are ``("disk", (cx, cy), r)`` or ``("poly", [(x, y), ...])``.
"""

import math


class CheckError(Exception):
    """A verdict, certificate or reported value failed an independent check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# planar primitives
# ---------------------------------------------------------------------------


def support(body, ux: float, uy: float) -> float:
    if body[0] == "disk":
        return body[1][0] * ux + body[1][1] * uy + body[2] * math.hypot(ux, uy)
    return max(x * ux + y * uy for x, y in body[1])


def homothet(ref, center, ratio: float):
    """Raw body ratio * ref + center."""
    if ref[0] == "disk":
        return ("disk", (center[0] + ratio * ref[1][0], center[1] + ratio * ref[1][1]), ratio * ref[2])
    return ("poly", [(center[0] + ratio * x, center[1] + ratio * y) for x, y in ref[1]])


def translate(body, t):
    return homothet(body, t, 1.0)


def scale_of(bodies) -> float:
    """Size of the coordinates, for tolerances relative to the input."""
    s = 1.0
    for b in bodies:
        pts = [b[1]] if b[0] == "disk" else b[1]
        for x, y in pts:
            s = max(s, abs(x), abs(y))
        if b[0] == "disk":
            s = max(s, b[2])
    return s


def facets(poly) -> list:
    """Outward unit normals and offsets (nx, ny, h) of a CCW polygon."""
    out = []
    m = len(poly)
    for i in range(m):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % m]
        nx, ny = y1 - y0, x0 - x1
        n = math.hypot(nx, ny)
        nx, ny = nx / n, ny / n
        out.append((nx, ny, nx * x0 + ny * y0))
    return out


def ccw(poly) -> list:
    return poly if signed_area(poly) > 0 else poly[::-1]


def signed_area(pts) -> float:
    m = len(pts)
    return 0.5 * sum(
        pts[i][0] * pts[(i + 1) % m][1] - pts[(i + 1) % m][0] * pts[i][1] for i in range(m)
    )


def gauge(poly, x: float, y: float) -> float:
    """Minkowski norm of (x, y) for an o-symmetric polygon."""
    return max(0.0, max((nx * x + ny * y) / h for nx, ny, h in facets(ccw(poly))))


def convex_hull(points) -> list:
    """Counter-clockwise hull vertices (monotone chain), collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower, upper = chain(pts), chain(pts[::-1])
    return lower[:-1] + upper[:-1]


def _segment_distance(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    ll = dx * dx + dy * dy
    t = 0.0 if ll == 0.0 else max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / ll))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def hull_distance(p, points) -> float:
    """Euclidean distance from p to the convex hull of points."""
    hull = convex_hull(points)
    if len(hull) >= 3 and all(
        (hull[(i + 1) % len(hull)][0] - hull[i][0]) * (p[1] - hull[i][1])
        - (hull[(i + 1) % len(hull)][1] - hull[i][1]) * (p[0] - hull[i][0])
        >= 0.0
        for i in range(len(hull))
    ):
        return 0.0
    if len(hull) == 1:
        return math.dist(p, hull[0])
    return min(_segment_distance(p, hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))


# ---------------------------------------------------------------------------
# separating lines
# ---------------------------------------------------------------------------


def line_clearance(normal, offset: float, left, right) -> float:
    """Smallest distance of a member from the line on its assigned side.

    Left members must satisfy <n, x> <= offset, right members >= offset; a
    negative value means some member crosses the line.
    """
    nx, ny = normal
    nn = math.hypot(nx, ny)
    require(abs(nn - 1.0) <= 1e-9, f"normal not unit: |n| = {nn}")
    c = math.inf
    for b in left:
        c = min(c, offset - support(b, nx, ny))
    for b in right:
        c = min(c, -support(b, -nx, -ny) - offset)
    return c


def check_split(normal, offset, bodies, left_idx, right_idx, margin: float) -> None:
    """A witness line must split the family into two nonempty sides, miss
    every member, and clear it by the reported margin."""
    left_idx, right_idx = list(left_idx), list(right_idx)
    require(left_idx and right_idx, "witness leaves one side empty")
    require(
        sorted(left_idx + right_idx) == list(range(len(bodies))),
        "witness sides do not partition the family",
    )
    c = line_clearance(normal, offset, [bodies[i] for i in left_idx], [bodies[i] for i in right_idx])
    tol = 1e-9 * scale_of(bodies)
    require(c > 0.0, f"witness line meets a member (clearance {c:.3e})")
    require(c >= margin - tol, f"clearance {c:.6e} below reported margin {margin:.6e}")


def sampled_gap(first, second, samples: int = 3600) -> float:
    """Largest gap between two families over ``samples`` evenly spaced
    directions. A positive value is a real separating line, so a family
    with a positive sampled gap is separable, whatever the program says."""
    best = -math.inf
    for k in range(samples):
        t = 2.0 * math.pi * k / samples
        ux, uy = math.cos(t), math.sin(t)
        hi = max(support(b, ux, uy) for b in first)
        lo = min(-support(b, -ux, -uy) for b in second)
        best = max(best, lo - hi)
    return best


def check_pair_line(normal, offset, bodies, i: int, j: int, tol: float) -> None:
    """A total-separability certificate: members i and j on opposite sides,
    every member on one side (touching allowed)."""
    nx, ny = normal
    for k, b in enumerate(bodies):
        hi = support(b, nx, ny) - offset
        lo = -support(b, -nx, -ny) - offset
        require(hi <= tol or lo >= -tol, f"line for pair ({i}, {j}) cuts member {k}")
    side_i = support(bodies[i], nx, ny) - offset <= tol
    side_j = support(bodies[j], nx, ny) - offset <= tol
    require(side_i != side_j, f"line for pair ({i}, {j}) does not split the pair")


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def cover_protrusion(ref, centers, ratios, t, mu: float) -> float:
    """Largest distance by which a member tau_i K + x_i leaves t + mu K.

    For a disk reference this is exact; for a polygon reference containment
    in t + mu K is decided by K's own facet normals.
    """
    if ref[0] == "disk":
        k0, rho = ref[1], ref[2]
        cx, cy = t[0] + mu * k0[0], t[1] + mu * k0[1]
        return max(
            math.hypot(c[0] + tau * k0[0] - cx, c[1] + tau * k0[1] - cy) + tau * rho - mu * rho
            for c, tau in zip(centers, ratios)
        )
    worst = -math.inf
    for nx, ny, h in facets(ccw(ref[1])):
        cover = nx * t[0] + ny * t[1] + mu * h
        for c, tau in zip(centers, ratios):
            worst = max(worst, nx * c[0] + ny * c[1] + tau * h - cover)
    return worst


def cover_lower_bound(ref, centers, ratios) -> float:
    """A ratio no cover by a homothet of an o-symmetric K can go below.

    Widths along K's facet normals (or, for a disk, the farthest pair of
    members) must fit inside the cover's width.
    """
    bodies = [homothet(ref, c, tau) for c, tau in zip(centers, ratios)]
    if ref[0] == "disk":
        rho = ref[2]
        best = max(b[2] for b in bodies)
        for a in range(len(bodies)):
            for b in range(a + 1, len(bodies)):
                d = math.dist(bodies[a][1], bodies[b][1])
                best = max(best, 0.5 * (d + bodies[a][2] + bodies[b][2]))
        return best / rho
    best = 0.0
    for nx, ny, h in facets(ccw(ref[1])):
        hi = max(support(b, nx, ny) for b in bodies)
        lo = max(support(b, -nx, -ny) for b in bodies)
        best = max(best, (hi + lo) / (2.0 * h))
    return best


def cover_upper_bound(ref, centers, ratios) -> float:
    """Ratio of a cover centred at the ratio-weighted centroid, grown until
    it contains every member: an upper bound on the smallest ratio."""
    tot = sum(ratios)
    t = (
        sum(tau * c[0] for c, tau in zip(centers, ratios)) / tot,
        sum(tau * c[1] for c, tau in zip(centers, ratios)) / tot,
    )
    if ref[0] == "disk":
        # the cover's disk is centred at the weighted centroid of the member disks
        bodies = [homothet(ref, c, tau) for c, tau in zip(centers, ratios)]
        p = (
            sum(tau * b[1][0] for b, tau in zip(bodies, ratios)) / tot,
            sum(tau * b[1][1] for b, tau in zip(bodies, ratios)) / tot,
        )
        return max(math.dist(b[1], p) + b[2] for b in bodies) / ref[2]
    return max(
        (nx * (c[0] - t[0]) + ny * (c[1] - t[1]) + tau * h) / h
        for nx, ny, h in facets(ccw(ref[1]))
        for c, tau in zip(centers, ratios)
    )


# ---------------------------------------------------------------------------
# spherical caps
# ---------------------------------------------------------------------------


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def angle(a, b) -> float:
    na = math.sqrt(_dot3(a, a))
    nb = math.sqrt(_dot3(b, b))
    return math.acos(max(-1.0, min(1.0, _dot3(a, b) / (na * nb))))


def check_enclosing_cap(center, radius: float, caps, tol: float = 1e-9) -> None:
    """The cap (center, radius) must contain every cap and be no larger than
    the farthest pair of caps forces it to be by more than a tolerance."""
    for k, (c, r) in enumerate(caps):
        out = angle(center, c) + r - radius
        require(out <= tol, f"enclosing cap misses cap {k} by {out:.3e}")
    lower = max(r for _, r in caps)
    for a in range(len(caps)):
        for b in range(a + 1, len(caps)):
            lower = max(lower, 0.5 * (angle(caps[a][0], caps[b][0]) + caps[a][1] + caps[b][1]))
    require(radius >= lower - tol, f"enclosing cap radius {radius} below the pair bound {lower}")


def check_cap_pair_circle(pole, caps, i: int, j: int, tol: float) -> None:
    """A great circle with this pole misses every open cap and has caps i
    and j on opposite sides."""
    n = math.sqrt(_dot3(pole, pole))
    p = tuple(x / n for x in pole)
    for k, (c, r) in enumerate(caps):
        d = _dot3(p, c)
        require(abs(d) >= math.sin(r) - tol, f"circle for pair ({i}, {j}) cuts cap {k}")
    di, dj = _dot3(p, caps[i][0]), _dot3(p, caps[j][0])
    require(di * dj < 0.0, f"circle for pair ({i}, {j}) does not split the pair")


# ---------------------------------------------------------------------------
# contacts
# ---------------------------------------------------------------------------


def spiral_bound(n: int) -> int:
    """floor(2n - 2 sqrt(n)) in integer arithmetic."""
    s = math.isqrt(4 * n)
    return 2 * n - (s if s * s == 4 * n else s + 1)


def unit_contacts(centers) -> list:
    """Pairs of unit-diameter disks at distance exactly 1 (integral centers)."""
    pts = [(round(x), round(y)) for x, y in centers]
    idx = {p: i for i, p in enumerate(pts)}
    edges = []
    for i, (x, y) in enumerate(pts):
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            j = idx.get(q)
            if j is not None and j > i:
                edges.append((i, j))
    return sorted(edges)


def gauge_contacts(poly, centers, tol: float = 1e-9) -> list:
    """Pairs of translates K + c_i, K + c_j that touch: |c_j - c_i|_K = 2."""
    edges = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            g = gauge(poly, centers[j][0] - centers[i][0], centers[j][1] - centers[i][1])
            require(g >= 2.0 - tol, f"translates {i} and {j} overlap (gauge {g})")
            if g <= 2.0 + tol:
                edges.append((i, j))
    return edges
