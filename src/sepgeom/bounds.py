"""Closed-form bounds over the integers, with no numpy: the contact numbers
of unit balls and lattice cells (crystallization, Harary-Harborth) and the
separable Tammes radii.

``lattice`` and ``tammes`` read only this module, so a cold CLI call for
either loads neither numpy nor the geometry layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ._errors import GeometryError

PI = math.pi


# ---------------------------------------------------------------------------
# contact numbers
# ---------------------------------------------------------------------------


def crystallization_mode(d: int) -> str:
    """The bound crystallization_bound gives by default in dimension d >= 3:
    "hales" for d = 3, "rogers" above."""
    return "hales" if d == 3 else "rogers"


def crystallization_bound(
    n: int, d: int = 2, mode: str | None = None, density: float | None = None
) -> int:
    """Maximum contacts of a locally separable packing of n unit balls.

    d = 2: the exact value floor(2n - 2 sqrt(n)). d = 3: mode "hales" uses the
    upper density bound 0.7547 giving floor(3n - 1.206 n^(2/3)); mode "rogers"
    (any d >= 3) needs an explicit simplex density and gives
    floor(dn - d^(-(d-3)/2) density^(-(d-1)/d) n^((d-1)/d)).
    """
    if n < 1:
        raise GeometryError("need n >= 1")
    if d == 2:
        s = math.isqrt(n)
        if s * s == n:
            return 2 * n - 2 * s
        return 2 * n - (math.isqrt(4 * n) + 1)
    if d < 3:
        raise GeometryError("dimension must be 2 or >= 3")
    if mode is None:
        mode = crystallization_mode(d)
    if mode == "hales":
        if d != 3:
            raise GeometryError("the 1.206 constant is specific to d = 3")
        r = round(n ** (1.0 / 3.0))
        if r**3 == n:
            # perfect cube: the bound is rational, evaluate it exactly
            # (fractions loads decimal, so only this branch imports it)
            from fractions import Fraction

            return math.floor(Fraction(3 * n) - Fraction(1206, 1000) * r * r)
        return math.floor(3.0 * n - 1.206 * n ** (2.0 / 3.0))
    if mode == "rogers":
        if density is None or not 0.0 < density <= 1.0:
            raise GeometryError("rogers mode needs a simplex density in (0, 1]")
        coef = d ** (-(d - 3) / 2.0) * density ** (-(d - 1) / d)
        return math.floor(d * n - coef * n ** ((d - 1) / d))
    raise GeometryError(f"unknown mode {mode!r}")


def _int_root(n: int, d: int) -> int:
    r = max(1, round(n ** (1.0 / d)))
    while r**d > n:
        r -= 1
    while (r + 1) ** d <= n:
        r += 1
    return r


@dataclass(frozen=True)
class LatticeContactBounds:
    lower: int
    upper: int
    exact: bool

    provenance: ClassVar[dict] = {"method": "closed-form"}


def lattice_contact_bounds(d: int, n: int) -> LatticeContactBounds:
    """Bounds on the most contacts of n unit cubes (or balls) on the d-lattice.

    Lower bound d N^d - d N^(d-1) from the full N-cube with N = floor(n^(1/d)),
    upper bound floor(dn - d n^((d-1)/d)); the two meet when n is a perfect
    d-th power. In the plane the upper bound is the exact value for every n.
    """
    if d < 1 or n < 1:
        raise GeometryError("need d >= 1 and n >= 1")
    big_n = _int_root(n, d)
    lower = d * big_n**d - d * big_n ** (d - 1)
    if big_n**d == n:
        upper = d * n - d * big_n ** (d - 1)
    else:
        # n^((d-1)/d) is irrational here, so the float floor is safe
        upper = math.floor(d * n - d * n ** ((d - 1) / d))
    return LatticeContactBounds(lower, upper, big_n**d == n)


@dataclass(frozen=True)
class PolyominoSearch:
    n_max: int
    max_contacts: dict[int, int]
    counts: dict[int, int]

    provenance: ClassVar[dict] = {"method": "brute-force"}


def brute_force_lattice_contact(n_max: int) -> PolyominoSearch:
    """Exhaust every fixed polyomino with up to n_max cells, tracking contacts.

    Each polyomino is generated exactly once (growth restricted to the upper
    half-plane with the first cell at the origin). Twelve cells is about half
    a million shapes; anything larger is refused.
    """
    if not 1 <= n_max <= 12:
        raise GeometryError("exhaustive search is limited to 12 cells")
    best = [0] * (n_max + 1)
    counts = [0] * (n_max + 1)
    nbr = ((1, 0), (-1, 0), (0, 1), (0, -1))
    seen = {(0, 0)}
    cells = set()

    def grow(untried: list, edges: int) -> None:
        while untried:
            cell = untried.pop()
            adj = sum((cell[0] + dx, cell[1] + dy) in cells for dx, dy in nbr)
            cells.add(cell)
            e = edges + adj
            k = len(cells)
            counts[k] += 1
            if e > best[k]:
                best[k] = e
            if k < n_max:
                fresh = [
                    m
                    for m in ((cell[0] + dx, cell[1] + dy) for dx, dy in nbr)
                    if (m[1] > 0 or (m[1] == 0 and m[0] >= 0)) and m not in seen
                ]
                seen.update(fresh)
                grow(untried + fresh, e)
                seen.difference_update(fresh)
            cells.remove(cell)
            # cell stays in seen: later branches at this level must skip it

    grow([(0, 0)], 0)
    return PolyominoSearch(
        n_max,
        {k: best[k] for k in range(1, n_max + 1)},
        {k: counts[k] for k in range(1, n_max + 1)},
    )


# ---------------------------------------------------------------------------
# the separable Tammes table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TammesEntry:
    k: int
    radius: float | None
    exact: bool
    lower: float
    upper: float
    note: str

    provenance: ClassVar[dict] = {"method": "closed-form"}


_TAMMES_EXACT = {
    2: PI / 2.0,
    3: PI / 4.0,
    4: PI / 4.0,
    5: math.atan(0.75),
    6: math.atan(0.75),
    7: math.asin(1.0 / math.sqrt(3.0)),
    8: math.asin(1.0 / math.sqrt(3.0)),
}


def separable_tammes(k: int) -> TammesEntry:
    """Largest radius of k caps in a totally separable packing.

    Known exactly through k = 8 (pairs share values: an odd k matches k + 1);
    beyond that only bounds are available and the lower constant 0.793/sqrt(k)
    is asymptotic.
    """
    if k < 2:
        raise GeometryError("need k >= 2")
    if k in _TAMMES_EXACT:
        r = _TAMMES_EXACT[k]
        return TammesEntry(k, r, True, r, r, "exact")
    upper = math.acos(1.0 / (math.sqrt(2.0) * math.sin(k / (k - 2.0) * PI / 4.0)))
    lower = 0.793 / math.sqrt(k)
    return TammesEntry(
        k, None, False, lower, upper, "lower bound asymptotic, valid for large k"
    )
