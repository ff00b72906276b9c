"""Minimal deterministic SVG output for packings, covers, and sphere views."""

from __future__ import annotations

import math

import numpy as np

from .bodies import ConvexBody, HomothetFamily

# the image width in pixels, the margin per unit of the drawing's extent, the
# stroke width and dot radius per unit of the padded extent, the dot colour
# and the rim segments of a cap
PX = 640
MARGIN = 0.06
STROKE = 0.0035
DOT = 0.008
DOT_COLOR = "#d62728"
RIM_SEGMENTS = 64


def _fmt(x: float) -> str:
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


class Drawing:
    """Collects shapes in model coordinates; y grows upward."""

    def __init__(self):
        self._shapes: list[tuple[str, dict]] = []
        self._lo = np.array([np.inf, np.inf])
        self._hi = np.array([-np.inf, -np.inf])

    def _grow(self, pts: np.ndarray, pad: float = 0.0) -> None:
        pts = np.atleast_2d(pts)
        self._lo = np.minimum(self._lo, pts.min(axis=0) - pad)
        self._hi = np.maximum(self._hi, pts.max(axis=0) + pad)

    def circle(self, center, radius: float, stroke="#1f77b4", dash: str | None = None) -> None:
        c = np.asarray(center, dtype=float)
        self._grow(c, radius)
        self._shapes.append(("circle", {"cx": c[0], "cy": c[1], "r": radius, "stroke": stroke, "dash": dash}))

    def polygon(self, points, stroke="#1f77b4", dash: str | None = None) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self._grow(pts)
        self._shapes.append(("polygon", {"points": pts, "stroke": stroke, "dash": dash}))

    def polyline(self, points, stroke="#1f77b4", dash: str | None = None) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) < 2:
            return
        self._grow(pts)
        self._shapes.append(("polyline", {"points": pts, "stroke": stroke, "dash": dash}))

    def segment(self, a, b, stroke="#444444") -> None:
        self.polyline(np.array([a, b], dtype=float), stroke=stroke)

    def dot(self, p) -> None:
        c = np.asarray(p, dtype=float)
        self._grow(c)
        self._shapes.append(("dot", {"cx": c[0], "cy": c[1]}))

    def body(self, body: ConvexBody, **kw) -> None:
        if body.kind == "disk":
            self.circle(body.center, body.radius, **kw)
        elif body.kind == "segment":
            self.polyline(body.vertices, **kw)
        else:
            self.polygon(body.vertices, **kw)

    def to_svg(self) -> str:
        if not np.isfinite(self._lo).all():
            self._lo, self._hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        span = self._hi - self._lo
        pad = MARGIN * float(max(span.max(), 1e-9))
        lo, hi = self._lo - pad, self._hi + pad
        w, h = hi - lo
        scale = max(w, h)
        width = STROKE * scale
        # flip y so the viewBox y-axis points up in model terms
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{PX}" '
            f'height="{int(round(PX * h / w))}" '
            f'viewBox="{_fmt(lo[0])} {_fmt(-hi[1])} {_fmt(w)} {_fmt(h)}">\n'
            '<g transform="scale(1,-1)">\n'
        )
        rows = []
        for tag, a in self._shapes:
            dash = f' stroke-dasharray="{_fmt(4 * width)} {_fmt(3 * width)}"' if a.get("dash") else ""
            if tag == "circle":
                rows.append(
                    f'<circle cx="{_fmt(a["cx"])}" cy="{_fmt(a["cy"])}" r="{_fmt(a["r"])}" '
                    f'stroke="{a["stroke"]}" fill="none" '
                    f'stroke-width="{_fmt(width)}"{dash}/>'
                )
            elif tag == "dot":
                rows.append(
                    f'<circle cx="{_fmt(a["cx"])}" cy="{_fmt(a["cy"])}" '
                    f'r="{_fmt(DOT * scale)}" fill="{DOT_COLOR}" stroke="none"/>'
                )
            else:
                pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in a["points"])
                rows.append(
                    f'<{tag} points="{pts}" stroke="{a["stroke"]}" fill="none" '
                    f'stroke-width="{_fmt(width)}" stroke-linejoin="round"{dash}/>'
                )
        return head + "\n".join(rows) + "\n</g>\n</svg>\n"


def family_drawing(family: HomothetFamily, cover=None, contacts=None) -> Drawing:
    """Draw a homothet family, optional dashed cover, optional contact edges."""
    dr = Drawing()
    for b in family.bodies():
        dr.body(b)
    for c in family.centers:
        dr.dot(c)
    if contacts:
        for i, j in contacts:
            dr.segment(family.centers[i], family.centers[j], stroke="#2ca02c")
    if cover is not None:
        dr.body(cover, stroke="#d62728", dash="on")
    return dr


def _cap_rim(center: np.ndarray, radius: float) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    a = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(c, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    th = np.linspace(0.0, 2.0 * math.pi, RIM_SEGMENTS + 1)
    return (
        math.cos(radius) * c[None, :]
        + math.sin(radius) * (np.cos(th)[:, None] * e1[None, :] + np.sin(th)[:, None] * e2[None, :])
    )


def caps_drawing(caps) -> Drawing:
    """Orthographic view of spherical caps from +z; hidden arcs are dashed."""
    dr = Drawing()
    dr.circle((0.0, 0.0), 1.0, stroke="#888888")
    for cap in caps:
        rim = _cap_rim(cap.center, cap.radius)
        front = rim[:, 2] >= 0.0
        runs: list[list[int]] = []
        for k in range(len(rim)):
            if front[k]:
                if runs and runs[-1] and runs[-1][-1] == k - 1:
                    runs[-1].append(k)
                else:
                    runs.append([k])
        for run in runs:
            dr.polyline(rim[run][:, :2], stroke="#1f77b4")
        back = rim[~front][:, :2]
        if len(back) >= 2:
            dr.polyline(back, stroke="#1f77b4", dash="on")
        c = np.asarray(cap.center, dtype=float)
        if c[2] >= 0.0:
            dr.dot(c[:2])
    return dr
