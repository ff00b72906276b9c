"""A reference body's derived geometry is computed once and kept on the body:
reusing a body gives the answers of a freshly built equal body, bit for bit,
and no caller can change what the next one reads."""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from helpers import ns_family, random_symmetric_polygon, ts_lattice_subset
from sepgeom import separability
from sepgeom.bodies import ConvexBody, HomothetFamily, polygon_facets
from sepgeom.covering import goodman_goodman_cover, min_cover_ratio
from sepgeom.measures import min_area_parallelogram
from sepgeom.packing import contact_graph, difference_body, oler_check, translate_gauge
from sepgeom.separability import is_non_separable, is_rho_separable

# every value a polygon reference keeps once each checker below has read it;
# the translate checks read the extents of its difference body
DERIVED = {
    "_facets", "_symmetry_gap", "_member_features", "_pair_table",
    "_difference_body", "_parallelogram", "_reference_axes", "_bounding_box",
}


def _bits(x):
    """x with every float and array replaced by its bytes, recursively."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, Mapping):
        return tuple(sorted((_bits(k), _bits(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, (float, np.ndarray, np.floating)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return x


def _copy(k: ConvexBody) -> ConvexBody:
    """An equal body built afresh, with nothing derived yet."""
    if k.kind == "disk":
        return ConvexBody.disk(k.center, k.radius)
    return ConvexBody.polygon(k.vertices)


def _checkers(rng, k: ConvexBody) -> dict:
    """Every checker that reads the reference k, as a function of the
    reference: rho at two reaches, contacts, Oler, the translate gauge,
    both covers and the homothet NS decision (on a family that meets and on
    one apart)."""
    rows, cols = 3, 4
    block = ts_lattice_subset(rng, k, rows, cols)
    loop = [0, cols - 1, rows * cols - 1, (rows - 1) * cols]
    fam = ns_family(rng, k, 7)
    apart = np.array(fam.centers) * 4.0
    delta = rng.normal(size=2)
    return {
        "rho": lambda r: is_rho_separable(r, block, 3.0),
        "rho-4.5": lambda r: is_rho_separable(r, block, 4.5),
        "contact_graph": lambda r: contact_graph(r, block),
        "oler_check": lambda r: oler_check(r, block, loop),
        "translate_gauge": lambda r: translate_gauge(r, delta),
        "goodman_goodman_cover": lambda r: goodman_goodman_cover(HomothetFamily(r, fam.centers, fam.ratios)),
        "min_cover_ratio": lambda r: min_cover_ratio(HomothetFamily(r, fam.centers, fam.ratios)),
        "ns": lambda r: is_non_separable(HomothetFamily(r, fam.centers, fam.ratios)),
        "ns-apart": lambda r: is_non_separable(HomothetFamily(r, apart, fam.ratios)),
    }


def _references(rng) -> list:
    return [random_symmetric_polygon(rng) for _ in range(6)] + [ConvexBody.disk((0.0, 0.0), 0.75)]


def test_reused_reference_answers_as_a_fresh_one(rng):
    """Each checker, called three times on one reference and interleaved
    with the others, answers as it does on a fresh equal body each time."""
    for k in _references(rng):
        checkers = _checkers(rng, k)
        for _ in range(3):
            for name, check in checkers.items():
                assert _bits(check(k)) == _bits(check(_copy(k))), name
        if k.kind == "polygon":
            assert DERIVED <= set(vars(k))
            assert "_axis_extents" in vars(difference_body(k))


def test_derived_arrays_are_read_only(rng):
    k = random_symmetric_polygon(rng)
    for check in _checkers(rng, k).values():
        check(k)
    fit = min_area_parallelogram(k)
    arrays = list(polygon_facets(k)) + [fit.normals, fit.los, fit.his, difference_body(k).vertices]
    for value in vars(k).values():
        arrays += [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
    assert len(arrays) >= 11
    for a in arrays:
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 1.0


def test_pair_table_is_built_once_per_reference(rng, monkeypatch):
    """rho, the homothet NS decision and the contact graph (through the
    difference body) all read the reference's pair table; across the three
    calls it is built once per reference."""
    built = []
    table = separability._pair_table

    def counted(ref):
        built.append(len(ref))
        return table(ref)

    monkeypatch.setattr(separability, "_pair_table", counted)
    for n, k in enumerate(_references(rng), start=1):
        checkers = _checkers(rng, k)
        for name in ("rho", "ns", "contact_graph"):
            checkers[name](k)
        assert len(built) == n
