"""Spherical caps and zones: splitting circles, covers, cap packings.

Every check is exact: its candidates are the caps and circles resting on at
most three support caps. Each pair or triple of caps with independent
centers gets one dual basis of its span (_support_sets), and a candidate
resting on it is a sum of those rows (_combine): one basis serves every sign
pattern of the centers, and a block's candidates come from one broadcast."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._errors import GeometryError
from ._kernels import _ROUND_OFF, pole_margins, triple_blocks

PI = math.pi
_BLOCK = 1 << 18  # entries of a (candidates x caps or pairs) block


def _unit3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v)) if v.shape == (3,) else 0.0
    if not 0.0 < n < math.inf:  # also refuses NaN
        raise GeometryError("need a finite nonzero 3-vector")
    out = v / n
    out.setflags(write=False)
    return out


def angular_distance(a, b) -> float:
    """Geodesic distance between two unit vectors."""
    return float(_angles(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap of angular radius r about a unit center."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _unit3(self.center))
        if not 0.0 < self.radius < PI:
            raise GeometryError("cap radius must lie in (0, pi)")

    def contains_point(self, x, tol: float = 0.0) -> bool:
        return angular_distance(self.center, x) <= self.radius + tol


@dataclass(frozen=True)
class Zone:
    """Points within angular half_width of the great circle with this pole."""

    pole: np.ndarray
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "pole", _unit3(self.pole))
        if not 0.0 < self.half_width <= PI / 2.0:
            raise GeometryError("zone half-width must lie in (0, pi/2]")

    @property
    def width(self) -> float:
        return 2.0 * self.half_width

    def contains_point(self, x, tol: float = 0.0) -> bool:
        return abs(float(self.pole @ np.asarray(x))) <= math.sin(self.half_width) + tol


def circle_avoids_cap(pole, cap: Cap, tol: float = 0.0) -> bool:
    """True when the great circle misses the open cap (touching counts)."""
    if cap.radius > PI / 2.0:
        return False
    return abs(float(np.asarray(pole) @ cap.center)) >= math.sin(cap.radius) - tol


def _cap_arrays(caps) -> tuple[np.ndarray, np.ndarray]:
    if not caps:
        raise GeometryError("need at least one cap")
    centers = np.ascontiguousarray([c.center for c in caps], dtype=float)
    radii = np.array([c.radius for c in caps], dtype=float)
    return centers, radii


def _support_sets(centers, radii):
    """Yield the radii r (t, k), the centers c (t, k, 3) and the dual rows
    (t, k, 3) of every pair, then of every triple in blocks, of caps with
    linearly independent centers.

    The dual basis e_a of a support set lies in the span of its centers with
    c_a . e_b = delta_ab. Flipping the sign of c_a flips e_a, so one basis
    serves every sign pattern. Close centers make the e_a large and nearly
    cancelling, so the rows hold the sum e_0 + ... + e_k-1 and then e_1, ...,
    e_k-1 (see _combine), each written with the differences d_a = c_a - c_0:
    - pair: the sum 2 (c_0 + c_1) / |c_0 + c_1|^2, and e_1 = (d_1 - (c_0 .
      d_1) c_0) / |c_0 x d_1|^2, which is (c_1 - g c_0) / |c_0 x c_1|^2 for
      g = c_0 . c_1;
    - triple: the sum d_1 x d_2 / det, e_1 = d_2 x c_0 / det = c_2 x c_0 /
      det and e_2 = c_0 x d_1 / det = c_0 x c_1 / det, det = c_0 . (d_1 x
      d_2).
    """
    a = np.arange(len(centers))
    pairs = np.column_stack(np.nonzero(a[:, None] < a))
    for idx in itertools.chain([pairs], triple_blocks(len(centers))):
        c = centers[idx]
        c0, d = c[:, 0], c[:, 1:] - c[:, :1]
        if idx.shape[1] == 2:
            x = _cross(c0, d[:, 0])
            vol2 = _dots(x, x)
            ok = np.sqrt(vol2) > 1e-12
            c0, d1, s = c0[ok], d[ok, 0], c0[ok] + c[ok, 1]
            rows = np.stack([2.0 * s / _dots(s, s)[:, None],
                             (d1 - _dots(c0, d1)[:, None] * c0) / vol2[ok, None]], axis=1)
        else:
            v = np.concatenate([d, c[:, :1]], axis=1)  # d_1, d_2, c_0
            rows = _cross(v, v[:, [1, 2, 0]])
            vol = _dots(c0, rows[:, 0])
            ok = np.abs(vol) > 1e-12
            rows = rows[ok] / vol[ok, None, None]
        yield radii[idx[ok]], c[ok], rows


def _combine(x, rows) -> np.ndarray:
    """sum_a x_a e_a over the dual basis of each support set, for
    coefficients x (..., t, k) and the rows (t, k, 3) of _support_sets:
    x_0 (e_0 + ... + e_k-1) + sum_a>0 (x_a - x_0) e_a, so that near-equal
    coefficients on close centers do not cancel large rows."""
    y = x.copy()
    y[..., 1:] -= x[..., :1]
    return (y[..., None, :] @ rows)[..., 0, :]


def _dots(a, b) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b)


def _cross(a, b) -> np.ndarray:
    """a x b along the last axis; np.cross costs several times more on these
    small arrays."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _angles(a, b) -> np.ndarray:
    """Angles between unit vectors, accurate also when they nearly coincide."""
    return np.arctan2(np.linalg.norm(_cross(a, b), axis=-1), _dots(a, b))


# the sign patterns of a pair and a triple whose first sign is +
_SIGNS = {k: np.array([(1.0,) + p for p in itertools.product((1.0, -1.0), repeat=k - 1)]) for k in (2, 3)}


def _split_poles(centers, radii, rows: int):
    """Pole of the best great circle for every sign pattern of the caps,
    yielded in blocks of at most rows poles, so memory stays O(n^2).

    For signs s_k the margin min_k(s_k c_k . u - sin r_k) of a pole u is
    largest where it rests on at most three support caps: s_k c_k . u =
    sin r_k + m on each, with u in the span of their centers. With the dual
    rows e_k of _support_sets that is u = P + m Q for P = sum s_k sin r_k
    e_k and Q = sum s_k e_k, formed for all patterns of a block at once,
    pattern-major. |u| = 1 is a quadratic in m whose larger root is the best
    margin of that support set. A cap alone gives u = c_k. Only patterns
    whose first sign is + are listed: flipping every sign turns u into -u,
    the same great circle.
    """
    yield from (centers[lo : lo + rows] for lo in range(0, len(centers), rows))
    for r, _, e in _support_sets(centers, radii):
        signs = _SIGNS[r.shape[1]][:, None, :]  # (patterns, 1, k): pattern-major
        p, q = (_combine(signs * w, e).reshape(-1, 3) for w in (np.sin(r), np.ones_like(r)))
        pq, qq = _dots(p, q), _dots(q, q)
        disc = pq * pq - qq * (_dots(p, p) - 1.0)
        real = disc >= 0.0
        u = p[real] + ((np.sqrt(disc[real]) - pq[real]) / qq[real])[:, None] * q[real]
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        yield from (u[lo : lo + rows] for lo in range(0, len(u), rows))


def _enclosing_candidates(centers, radii):
    """Caps resting on one, two or three of the caps, in that order, yielded
    as blocks of centers and radii: the caps themselves with the pairs, then
    each triple block of _support_sets (_resting_caps). Only the block drawn
    is held, not the arrays it was built from.
    """
    top = radii.max()
    blocks = map(lambda s: _resting_caps(*s, top), _support_sets(centers, radii))
    u, rad = next(blocks)  # the pairs
    yield np.vstack([centers, u]), np.concatenate([radii, rad])
    yield from blocks


def _resting_caps(r, m, e, top: float):
    """The caps resting on each support set of one block of _support_sets,
    and their radii: on a pair wider than both members, on a triple at least
    top, the largest radius of the family.

    A cap (u, R) rests on cap (c, r) when angle(u, c) + r = R, that is
    c . u = cos(R - r), so on a pair or triple u = cos R A + sin R B for
    A = sum cos r_k e_k and B = sum sin r_k e_k over the dual rows e_k of
    _support_sets. On a pair at distance d, R = (d + r_a + r_b)/2. On a
    triple, |u| = 1 reads (a + c)/2 + (a - c)/2 cos 2R + b sin 2R = 1 for
    a = |A|^2, b = A . B and c = |B|^2: two roots R in [0, pi), smaller
    first.
    """
    a_vec, b_vec = (_combine(w, e) for w in (np.cos(r), np.sin(r)))
    if m.shape[1] == 2:
        rad = 0.5 * (_angles(m[:, 0], m[:, 1]) + r.sum(axis=1))
        keep = rad > r.max(axis=1) + 1e-15
    else:
        a, b, c = _dots(a_vec, a_vec), _dots(a_vec, b_vec), _dots(b_vec, b_vec)
        amp, rhs = np.hypot(0.5 * (a - c), b), 1.0 - 0.5 * (a + c)
        real = (amp > 0.0) & (np.abs(rhs) <= amp)
        turn = np.arccos(rhs[real] / amp[real])
        phase = np.arctan2(b, 0.5 * (a - c))[real]
        rad = np.mod(np.stack([phase - turn, phase + turn], axis=1), 2.0 * PI) / 2.0
        rad = np.sort(rad, axis=1).ravel()
        a_vec, b_vec = np.repeat(a_vec[real], 2, axis=0), np.repeat(b_vec[real], 2, axis=0)
        keep = rad >= top
    u = np.cos(rad[keep])[:, None] * a_vec[keep] + np.sin(rad[keep])[:, None] * b_vec[keep]
    return u / np.linalg.norm(u, axis=1, keepdims=True), rad[keep]


@dataclass(frozen=True)
class SphericalSplitDecision:
    non_separable: bool
    pole: np.ndarray | None
    margin: float
    poles_checked: int

    provenance: ClassVar[dict] = {"method": "support-caps", "exact": True}


def _best_pole(centers, radii, split: bool) -> tuple[float, np.ndarray | None, int]:
    """The largest margin min_i(|p . c_i| - sin r_i) over the poles p of
    _split_poles, only those splitting the centers if split; the pole where
    it is reached, and the number of poles tried."""
    sinr = np.sin(radii)
    best, pole, count = -math.inf, None, 0
    for poles in _split_poles(centers, radii, max(1, _BLOCK // len(centers))):
        margins, splits = pole_margins(poles, centers, sinr)
        if split:
            margins = np.where(splits, margins, -math.inf)
        k = int(np.argmax(margins))
        if margins[k] > best:
            best, pole = float(margins[k]), poles[k]
        count += len(poles)
    return best, pole, count


def caps_non_separable(caps, tol: float = 1e-9) -> SphericalSplitDecision:
    """Decide whether some great circle misses every cap and splits the family.

    Exact: the best pole of every sign pattern is among _split_poles, so the
    family is separable exactly when one of them splits the centers with a
    margin above tol + _ROUND_OFF. margin is the best split margin of all
    circles when that exceeds -min sin r, and -inf, meaning at most -min
    sin r, otherwise: below it the best candidate need not be the best circle.
    """
    caps = list(caps)
    if len(caps) < 2:
        raise GeometryError("separation needs at least two caps")
    if any(c.radius >= PI / 2.0 for c in caps):
        # such a cap meets every great circle, so no circle can split
        return SphericalSplitDecision(True, None, -math.inf, 0)
    centers, radii = _cap_arrays(caps)
    best, pole, count = _best_pole(centers, radii, split=True)
    margin = best if best > -math.sin(float(radii.min())) else -math.inf
    tol += _ROUND_OFF
    return SphericalSplitDecision(best <= tol, pole if best > tol else None, margin, count)


# ---------------------------------------------------------------------------
# smallest enclosing cap and the total-radius cover bound
# ---------------------------------------------------------------------------


def enclosing_cap(caps, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Smallest cap containing every given cap.

    It rests on at most three of them (Welzl, 1991), so it is the smallest
    of _enclosing_candidates that covers every cap within tol + _ROUND_OFF,
    the first listed among equal radii. Each block is tested as it is drawn:
    only its candidates strictly smaller than the best cap so far, in the
    order of their radii, in chunks of _BLOCK // n rows, up to the first
    that covers. So memory is O(n^2), as in the split checks.
    """
    centers, radii = _cap_arrays(list(caps))
    best_u, best_r = None, math.inf
    step = max(1, _BLOCK // len(radii))
    tol += _ROUND_OFF
    for u, r in _enclosing_candidates(centers, radii):
        order = np.flatnonzero(r < best_r)
        order = order[np.argsort(r[order], kind="stable")]
        for lo in range(0, len(order), step):
            part = order[lo : lo + step]
            covers = (_angles(u[part, None], centers) + radii <= r[part, None] + tol).all(axis=1)
            if covers.any():
                k = part[int(np.argmax(covers))]
                best_u, best_r = u[k], float(r[k])
                break
    if best_u is None:
        raise GeometryError("no enclosing cap smaller than the sphere was found")
    return best_u, best_r


@dataclass(frozen=True)
class CapCoverReport:
    total_radius: float
    center: np.ndarray
    radius: float
    slack: float
    split_check: SphericalSplitDecision
    holds: bool

    provenance: ClassVar[dict] = {"method": "support-caps", "exact": True}


def cap_cover_check(caps, tol: float = 1e-9) -> CapCoverReport:
    """No splitting circle and total radius below pi/2 force a small cover.

    The family must then fit in a single cap whose radius is at most the sum
    of the radii; ``holds`` allows tol + _ROUND_OFF.
    """
    caps = list(caps)
    dec = caps_non_separable(caps, tol=tol)
    if not dec.non_separable:
        raise GeometryError("a great circle splits the caps; the cover bound needs none")
    total = float(sum(c.radius for c in caps))
    if total >= PI / 2.0:
        raise GeometryError("the cover bound needs total radius below pi/2")
    center, radius = enclosing_cap(caps, tol)
    return CapCoverReport(total, center, radius, total - radius, dec, total - radius >= -tol - _ROUND_OFF)


@dataclass(frozen=True)
class ZoneCoverReport:
    total_width: float
    covers: bool
    witness: np.ndarray | None
    slack: float
    holds: bool


# the zones cover the sphere when no point clears them all by more than this
_COVER_TOL = 1e-9


def zones_cover_check(zones) -> ZoneCoverReport:
    """Zones that cover the sphere have total width at least pi.

    Exact: a point x misses the zone (p, w) exactly when |x . p| > sin w,
    that is when the great circle with pole x misses the cap (p, w). So the
    uncovered points are the poles of positive margin against those caps,
    and the best of them is among _split_poles (as in caps_non_separable,
    without the split). The sphere counts as covered when that margin is at
    most _COVER_TOL; otherwise its pole is the witness, an uncovered point.
    """
    zones = list(zones)
    if not zones:
        raise GeometryError("need at least one zone")
    caps = [Cap(z.pole, z.half_width) for z in zones]
    margin, pole, _ = _best_pole(*_cap_arrays(caps), split=False)
    covers = margin <= _COVER_TOL
    total = float(sum(z.width for z in zones))
    slack = total - PI
    holds = not covers or slack >= -_COVER_TOL
    return ZoneCoverReport(total, covers, None if covers else pole, slack, holds)


# ---------------------------------------------------------------------------
# totally separable cap packings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapTSResult:
    is_ts: bool
    certificates: dict
    unresolved: tuple
    refuted: tuple
    poles_checked: int

    provenance: ClassVar[dict] = {"method": "support-caps", "exact": True}


def is_ts_cap_packing(caps, tol: float = 1e-9) -> CapTSResult:
    """Find a great circle missing every cap that separates each pair.

    Any circle missing every cap within tol can be moved to the best pole of
    its sign pattern, which is among _split_poles and keeps every cap on its
    side. The blocks of _split_poles are drawn until every pair holds a
    certificate: each pair gets the best-scoring pole among the blocks drawn
    that avoids every cap and splits it. A pair with none after every block
    is refuted exactly. ``poles_checked`` counts the poles of the blocks
    drawn: below the full candidate count when the packing is TS before the
    last block, as the octahedral packing is by the poles resting on pairs
    (56 of 184; the cuboctahedral one needs its triples). A cap wider
    than pi/2 meets every great circle, so it refutes every pair. unresolved
    is always empty; it stays for callers that read it. Overlap and
    avoidance are judged at tol + _ROUND_OFF.
    """
    centers, radii = _cap_arrays(list(caps))
    tol += _ROUND_OFF
    a = np.arange(len(centers))
    i, j = np.nonzero(a[:, None] < a)
    overlap = np.flatnonzero(_angles(centers[i], centers[j]) < radii[i] + radii[j] - tol)
    if len(overlap):
        k = overlap[0]
        raise GeometryError(f"not a packing: caps {i[k]} and {j[k]} overlap")
    if len(centers) == 1:
        return CapTSResult(True, {}, (), (), 0)
    sinr = np.where(radii > PI / 2.0, math.inf, np.sin(radii))  # wider caps meet every circle
    score = np.full(len(i), -math.inf)
    found = np.zeros((len(i), 3))
    pairs, count = np.arange(len(i)), 0
    for p in _split_poles(centers, radii, max(1, _BLOCK // len(i))):
        count += len(p)
        dots = p @ centers.T
        keep = (np.abs(dots) - sinr >= -tol).all(axis=1)
        if not keep.any():
            continue
        p, dots = p[keep], dots[keep]
        gaps = np.abs(dots) - sinr
        splits = (dots[:, i] > 0.0) != (dots[:, j] > 0.0)
        block = np.where(splits, np.minimum(gaps[:, i], gaps[:, j]), -math.inf)
        k = np.argmax(block, axis=0)
        better = block[k, pairs] > score
        score[better] = block[k, pairs][better]
        # orient each circle with cap i on the positive side
        found[better] = p[k[better]] * np.sign(dots[k[better], i[better]])[:, None]
        if (score > -math.inf).all():
            break
    ok = score > -math.inf
    certificates = {(a, b): found[k] for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())) if ok[k]}
    refuted = tuple(zip(i[~ok].tolist(), j[~ok].tolist()))
    return CapTSResult(not refuted, certificates, (), refuted, count)


# ---------------------------------------------------------------------------
# the two optimal cap packings
# ---------------------------------------------------------------------------


def octahedral_packing() -> list[Cap]:
    """Eight caps inscribed in the octants cut by three orthogonal circles."""
    r = math.asin(1.0 / math.sqrt(3.0))
    caps = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                caps.append(Cap(np.array([sx, sy, sz]) / math.sqrt(3.0), r))
    return caps


def cuboctahedral_packing() -> list[Cap]:
    """Six caps inscribed in the isosceles triangles cut by the side circles
    of a regular spherical triangle with side arccos(1/4)."""
    ct = math.sqrt(0.5)
    st = math.sqrt(0.5)
    verts = np.array(
        [
            [st * math.cos(2.0 * PI * k / 3.0), st * math.sin(2.0 * PI * k / 3.0), ct]
            for k in range(3)
        ]
    )
    poles = np.array(
        [np.cross(verts[(k + 1) % 3], verts[(k + 2) % 3]) for k in range(3)]
    )
    poles /= np.linalg.norm(poles, axis=1)[:, None]
    caps = []
    for signs in (
        (1, 1, -1),
        (1, -1, 1),
        (-1, 1, 1),
        (-1, -1, 1),
        (-1, 1, -1),
        (1, -1, -1),
    ):
        m = poles * np.array(signs, dtype=float)[:, None]
        u = np.linalg.solve(m, np.ones(3))
        sinr = 1.0 / float(np.linalg.norm(u))
        caps.append(Cap(u * sinr, math.asin(sinr)))
    return caps
