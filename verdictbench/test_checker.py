"""The benchmark's checker must reject wrong verdicts, not only accept right ones.

Run with ``python3 -m pytest verdictbench/test_checker.py``. The cases use
hand-made results, so they need neither sepgeom nor numpy.
"""

from types import SimpleNamespace

import pytest

import checker as ck
import inputs as gen
import workloads as wl

TWO_DISKS = [("disk", (0.0, 0.0), 1.0), ("disk", (5.0, 0.0), 1.0)]


def test_separating_line_accepted_then_rejected_when_shifted():
    ck.check_split((1.0, 0.0), 2.5, TWO_DISKS, [0], [1], 1.5)
    with pytest.raises(ck.CheckError):
        ck.check_split((1.0, 0.0), 3.8, TWO_DISKS, [0], [1], 1.5)  # cuts the right disk
    with pytest.raises(ck.CheckError):
        ck.check_split((1.0, 0.0), 2.5, TWO_DISKS, [0], [1], 1.6)  # overstated margin


def test_ns_witness_check_uses_the_certificate():
    fam = {"ref": ("disk", (0.0, 0.0), 1.0), "centers": [(0.0, 0.0), (5.0, 0.0)], "ratios": [1.0, 1.0], "ns": False}
    check = wl._check_ns(fam)
    plane = SimpleNamespace(normal=(1.0, 0.0), offset=2.5)
    good = SimpleNamespace(non_separable=False, approximate=False, witness=SimpleNamespace(plane=plane, left=(0,), right=(1,), margin=1.5))
    check(good)
    shifted = SimpleNamespace(plane=SimpleNamespace(normal=(1.0, 0.0), offset=0.5), left=(0,), right=(1,), margin=0.1)
    with pytest.raises(ck.CheckError):
        check(SimpleNamespace(non_separable=False, approximate=False, witness=shifted))


def _kirchberger_instance(separable):
    import random

    return gen.mixed_bodies(random.Random(5), 4, separable)


def test_missing_separating_line_rejected():
    bodies = _kirchberger_instance(True)
    with pytest.raises(ck.CheckError):
        wl._check_direct(bodies, 2, True)(None)
    with pytest.raises(ck.CheckError):
        wl._check_kirchberger(bodies, 2, True)(SimpleNamespace(separable=False, witness=((0,), (0,))))
    wl._check_kirchberger(bodies, 2, True)(SimpleNamespace(separable=True, witness=None))


def test_line_through_overlapping_bodies_rejected():
    bodies = _kirchberger_instance(False)
    wl._check_direct(bodies, 2, False)(None)
    plane = SimpleNamespace(normal=(1.0, 0.0), offset=1.5)
    with pytest.raises(ck.CheckError):
        wl._check_direct(bodies, 2, False)(SimpleNamespace(plane=plane, left=(0, 1), right=(2, 3), margin=0.1))
    with pytest.raises(ck.CheckError):
        wl._check_kirchberger(bodies, 2, False)(SimpleNamespace(separable=True, witness=None))
    check = wl._check_kirchberger(bodies, 2, False)
    check(SimpleNamespace(separable=False, witness=((0,), (0,))))  # bodies 0 and 2 overlap


def test_separable_witness_subfamily_rejected():
    bodies = [("disk", (0.0, 0.0), 1.0), ("disk", (5.0, 0.0), 1.0), ("disk", (0.5, 0.0), 1.0), ("disk", (9.0, 0.0), 1.0)]
    check = wl._check_kirchberger(bodies, 2, False)
    check(SimpleNamespace(separable=False, witness=((0,), (0,))))
    with pytest.raises(ck.CheckError):
        check(SimpleNamespace(separable=False, witness=((0,), (1,))))  # disks at 0 and 9 are apart


def _cover(center, ratio, total):
    return SimpleNamespace(center=center, ratio=ratio, normalized=ratio / total, contains_all=True)


@pytest.mark.parametrize(
    "ref, center",
    [
        (("disk", (0.0, 0.0), 1.0), (1.0, 0.0)),
        (("poly", [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]), (1.0, 0.0)),
    ],
)
def test_cover_shrunk_by_one_percent_rejected(ref, center):
    # two touching unit members at (0, 0) and (2, 0); ratio 2 at (1, 0) is the smallest cover
    fam = {"ref": ref, "centers": [(0.0, 0.0), (2.0, 0.0)], "ratios": [1.0, 1.0], "ns": True}
    check = wl._check_min_cover(fam)
    check(_cover(center, 2.0, 2.0))
    with pytest.raises(ck.CheckError):
        check(_cover(center, 2.0 * 0.99, 2.0))


def test_wrong_contact_count_rejected():
    centers = [tuple(map(float, p)) for p in gen.square_spiral(9)]
    edges = ck.unit_contacts(centers)
    assert len(edges) == ck.spiral_bound(9) == 12
    check = wl._check_contacts(edges, ck.spiral_bound(9))
    check(SimpleNamespace(edges=edges, count=12))
    with pytest.raises(ck.CheckError):
        check(SimpleNamespace(edges=edges, count=13))
    with pytest.raises(ck.CheckError):
        check(SimpleNamespace(edges=edges[:-1], count=11))


def test_lattice_cell_contacts_and_separating_lines():
    import random

    poly, u, v = gen.lattice_cell(random.Random(3), 5)
    centers = [(i * u[0] + j * v[0], i * u[1] + j * v[1]) for j in range(3) for i in range(3)]
    assert len(ck.gauge_contacts(poly, centers)) == 12
    bodies = [ck.translate(("poly", poly), c) for c in centers]
    # the grid line between columns 0 and 1 separates every pair across it
    nx, ny = v[1], -v[0]
    n = (nx * nx + ny * ny) ** 0.5
    normal = (nx / n, ny / n)
    if normal[0] * u[0] + normal[1] * u[1] < 0:
        normal = (-normal[0], -normal[1])
    offset = (normal[0] * u[0] + normal[1] * u[1]) / 2.0
    ck.check_pair_line(normal, offset, bodies, 0, 1, 1e-9)
    with pytest.raises(ck.CheckError):
        ck.check_pair_line(normal, offset + 0.05, bodies, 0, 1, 1e-9)


def test_enclosing_cap_must_contain_every_cap():
    caps = [((0.0, 0.0, 1.0), 0.1), ((0.0, 0.19866933079506122, 0.9800665778412416), 0.1)]
    center = (0.0, 0.09983341664682815, 0.9950041652780258)
    ck.check_enclosing_cap(center, 0.2, caps)
    with pytest.raises(ck.CheckError):
        ck.check_enclosing_cap(center, 0.2 * 0.99, caps)


def test_traced_layers_match_the_benchmark_definition():
    import json
    from pathlib import Path

    import tracing

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.reset()
    layers = [(name, unit) for name, (_, unit) in tracer.metrics().items()]
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared[: len(layers)] == layers
    assert all(name.startswith(("cli.", "trace.")) for name, _ in declared[len(layers) :])
