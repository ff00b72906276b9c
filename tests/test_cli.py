"""End-to-end runs of every CLI subcommand with exit-code checks."""

import json
import math

import numpy as np
import pytest

from helpers import fresh_python, house7_centers
from sepgeom import bounds, covering, lambda_density, packing, separability, spherical, svg
from sepgeom.bodies import ConvexBody, HomothetFamily, body_from_json
from sepgeom.cli import main
from sepgeom.measures import min_area_parallelogram
from sepgeom.packing import GuillotinePartition, PlaneCut
from sepgeom.spherical import Cap

DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}


def run(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    out = capsys.readouterr().out
    code = ei.value.code or 0
    payload = json.loads(out) if out.lstrip().startswith("{") else None
    return code, payload


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _bent_caps():
    """Three caps in a bent chain, each touching the next."""
    r0, r1, r2 = 0.12, 0.10, 0.14
    c1 = np.array([math.cos(r1), math.sin(r1), 0.0])
    c2 = math.cos(r1 + r2) * c1 + math.sin(r1 + r2) * np.array([0.0, 0.0, 1.0])
    return {"caps": [{"center": [math.cos(r0), -math.sin(r0), 0.0], "radius_rad": r0},
                     {"center": c1.tolist(), "radius_rad": r1},
                     {"center": c2.tolist(), "radius_rad": r2}]}


_S3 = 1.0 / math.sqrt(3.0)
GRID = {"body": DISK, "centers": [[2.0 * i, 2.0 * j] for i in range(3) for j in range(3)]}
OCTA = {"caps": [{"center": [x * _S3, y * _S3, z * _S3], "radius_rad": math.asin(_S3)}
                 for x in (1, -1) for y in (1, -1) for z in (1, -1)]}
BENT = _bent_caps()


@pytest.fixture
def grid_file(tmp_path):
    return write_json(tmp_path / "grid.json", GRID)


@pytest.fixture
def chain_file(tmp_path):
    centers = [[2.0 * i, 0.0] for i in range(4)]
    return write_json(tmp_path / "chain.json", {"body": DISK, "centers": centers})


@pytest.fixture
def octa_file(tmp_path):
    return write_json(tmp_path / "octa.json", OCTA)


@pytest.fixture
def bent_caps_file(tmp_path):
    return write_json(tmp_path / "bent.json", BENT)


def test_check_ns(grid_file, chain_file, tmp_path, capsys):
    code, payload = run(["check-ns", grid_file, "--samples", "512"], capsys)
    assert code == 0
    assert payload["non_separable"] and payload["witness"] is None
    apart = write_json(
        tmp_path / "apart.json", {"body": DISK, "centers": [[0.0, 0.0], [9.0, 0.0]]}
    )
    code, payload = run(["check-ns", apart, "--samples", "512"], capsys)
    assert code == 1
    assert not payload["non_separable"]
    w = payload["witness"]
    assert w["left"] == [0] and w["right"] == [1] and w["margin"] > 1.0
    code, payload = run(["check-ns", chain_file, "--sns", "--samples", "512"], capsys)
    assert code == 0
    assert payload["sns"]["is_sns"]
    assert sorted(payload["sns"]["ordering"]) == [0, 1, 2, 3]


def test_check_ns_provenance_planar_is_exact(chain_file, capsys):
    code, payload = run(["check-ns", chain_file, "--samples", "512"], capsys)
    assert code == 0 and not payload["approximate"]
    assert payload["provenance"] == {"method": "pair-arc", "exact": True}


def test_check_ns_provenance_sampled_in_3d(tmp_path, capsys):
    cube = {"type": "polytope",
            "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]}
    touching = write_json(
        tmp_path / "cubes.json", {"body": cube, "centers": [[0, 0, 0], [2, 0, 0], [4, 0, 0]]}
    )
    # the sweep takes at least 1 024 sphere points, plus the 58 candidate
    # directions of the cubes, and the provenance counts what it swept
    for samples, swept in (("256", 1082), ("4096", 4154)):
        code, payload = run(["check-ns", touching, "--samples", samples], capsys)
        assert code == 0 and payload["approximate"]
        assert payload["directions_checked"] == swept
        assert payload["provenance"] == {"method": "direction-search", "samples": swept}


def test_check_ns_three_dimensional_segments(tmp_path, capsys):
    """Collinear unit segments in space that overlap are NS by the sampled
    search."""
    segs = write_json(tmp_path / "segs.json", {
        "body": {"type": "segment", "vertices": [[0, 0, 0], [1, 0, 0]]},
        "centers": [[0, 0, 0], [0.5, 0, 0]],
    })
    code, payload = run(["check-ns", segs], capsys)
    assert code == 0 and payload["non_separable"] is True and payload["approximate"] is True


def test_check_ns_four_dimensional_family_is_refused(tmp_path, capsys):
    """The sampled search has sphere points in 3-D only, so a family of
    4-simplices exits 3 with a message, not 1 with a traceback."""
    simplices = write_json(tmp_path / "simplices.json", {
        "body": {"type": "polytope", "vertices": np.eye(4).tolist()},
        "centers": [[0, 0, 0, 0], [5, 5, 5, 5]],
    })
    with pytest.raises(SystemExit) as ei:
        main(["check-ns", simplices])
    out, err = capsys.readouterr()
    assert ei.value.code == 3 and out == ""
    assert err == "error: the sampled search supports dimension 3 only, not 4\n"


def test_cover(chain_file, tmp_path, capsys):
    code, payload = run(["cover", chain_file], capsys)
    assert code == 0
    gg = payload["goodman_goodman"]
    assert gg["contains_all"] and gg["normalized"] <= 1.0 + 1e-7
    assert payload["smallest"]["normalized"] <= gg["normalized"] + 1e-12
    assert payload["provenance"] == {"method": "enclosing-disk", "exact": True}
    square = {"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    squares = write_json(
        tmp_path / "squares.json",
        {"body": square, "centers": [[0, 0], [2, 0], [1, 2]], "ratios": [1, 1, 0.5]},
    )
    code, payload = run(["cover", squares], capsys)
    assert code == 0 and payload["smallest"]["contains_all"]
    assert payload["smallest"]["ratio"] == pytest.approx(2.0, abs=1e-12)
    assert payload["provenance"] == {"method": "facet-vertices", "exact": True}


def test_verify_ts_and_ls(grid_file, tmp_path, capsys):
    code, payload = run(["verify-ts", grid_file], capsys)
    assert code == 0
    assert payload["is_ts"] and not payload["unresolved"]
    assert payload["provenance"] == {"method": "critical-directions", "exact": True}
    assert len(payload["certificates"]) == 36
    hexes = 2.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    hex_file = write_json(
        tmp_path / "hex.json", {"body": DISK, "centers": hexes.tolist()}
    )
    code, payload = run(["verify-ts", hex_file], capsys)
    assert code == 1
    assert not payload["is_ts"] and payload["unresolved"]
    house = write_json(
        tmp_path / "house.json",
        {"body": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
         "centers": house7_centers().tolist()},
    )
    code, payload = run(["verify-ls", house], capsys)
    assert code == 0 and payload["is_ls"]
    assert payload["provenance"] == {"method": "neighbourhood-ts", "exact": True}
    code, payload = run(["verify-ts", house], capsys)
    assert code == 1


def test_rho_sep(tmp_path, capsys):
    sq = [[2.0 * i, 2.0 * j] for i in range(3) for j in range(3)]
    sq_file = write_json(tmp_path / "sq.json", {"body": DISK, "centers": sq})
    code, payload = run(["rho-sep", sq_file, "--rho", "3"], capsys)
    assert code == 0 and payload["separable"]
    assert payload["provenance"] == {"method": "neighbourhood-ts", "exact": True}
    hexes = [
        [2.0 * (i + 0.5 * j), math.sqrt(3.0) * j] for i in range(-2, 3) for j in range(-2, 3)
    ]
    hex_file = write_json(tmp_path / "hexlat.json", {"body": DISK, "centers": hexes})
    code, payload = run(["rho-sep", hex_file, "--rho", "3"], capsys)
    assert code == 1
    assert not payload["separable"] and payload["failing_member"] is not None
    code, _ = run(["rho-sep", sq_file], capsys)
    assert code == 3  # missing required --rho


def test_oler(grid_file, tmp_path, capsys):
    obj = json.loads(open(grid_file).read())
    obj["loop"] = [0, 2, 8, 6]
    oler_file = write_json(tmp_path / "oler.json", obj)
    code, payload = run(["oler", oler_file], capsys)
    assert code == 0
    assert payload["holds"] and not payload["degenerate"]
    assert payload["slack"] == pytest.approx(0.0, abs=1e-9)
    assert payload["lhs"] == pytest.approx(9.0, abs=1e-9)
    del obj["loop"]
    code, _ = run(["oler", write_json(tmp_path / "noloop.json", obj)], capsys)
    assert code == 3


def test_density(capsys):
    code, payload = run(["density"], capsys)
    assert code == 0
    assert payload["separable_density"] == pytest.approx(math.pi / 4.0, abs=1e-9)
    code, payload = run(["density", "--body", "square"], capsys)
    assert payload["separable_density"] == pytest.approx(1.0, abs=1e-9)
    code, _ = run(["density", "--body", "banana"], capsys)
    assert code == 3


def test_contact(grid_file, capsys):
    code, payload = run(["contact", grid_file], capsys)
    assert code == 0
    assert payload["contacts"] == 12
    assert payload["square_lattice_bound"] == 12
    assert payload["within_bound"]
    assert sorted(payload["degrees"])[-1] == 4


def test_lattice(capsys):
    code, payload = run(["lattice", "--n", "9", "--d", "2", "--brute"], capsys)
    assert code == 0
    assert payload["max_contacts"] == 12
    assert payload["brute_force_max"]["9"] == 12
    assert payload["lattice_bounds"]["exact"]
    code, payload = run(["lattice", "--n", "1000", "--d", "3"], capsys)
    assert code == 0 and payload["max_contacts"] == 2879
    code, payload = run(
        ["lattice", "--n", "1000", "--d", "3", "--mode", "rogers", "--samples", "200000"],
        capsys,
    )
    assert code == 0
    sigma = payload["simplex_density"]["value"]
    assert sigma == pytest.approx(0.7797, abs=0.01)
    assert payload["max_contacts"] == math.floor(3000.0 - sigma ** (-2.0 / 3.0) * 100.0)


def test_lattice_takes_the_library_default_mode(capsys):
    """Without --mode, d = 4 gives the Rogers bound from a sampled simplex
    density, as bounds.crystallization_bound does by default; the Hales
    constant stays specific to d = 3."""
    code, payload = run(["lattice", "--n", "30", "--d", "4", "--samples", "20000"], capsys)
    assert code == 0 and payload["provenance"]["method"] == "monte-carlo"
    sigma = payload["simplex_density"]["value"]
    assert payload["max_contacts"] == bounds.crystallization_bound(30, d=4, density=sigma)
    code, _ = run(["lattice", "--n", "30", "--d", "4", "--mode", "hales"], capsys)
    assert code == 3


def test_kertesz(tmp_path, capsys):
    obj = {
        "box": {"lo": [0, 0, 0], "hi": [2, 2, 2]},
        "cuts": [{"cell": 0, "normal": [0, 0, 1], "offset": 1.0}],
        "balls": [
            {"center": [1.0, 1.0, 0.5], "r": 0.5},
            {"center": [1.0, 1.0, 1.5], "r": 0.5},
        ],
    }
    code, payload = run(["kertesz", write_json(tmp_path / "k.json", obj)], capsys)
    assert code == 0
    assert payload["holds_surface"] and payload["holds_volume"]
    assert payload["total_surface"] == pytest.approx(32.0, abs=1e-6)
    obj["box"]["hi"] = [2, 2, 3]
    code, _ = run(["kertesz", write_json(tmp_path / "bad.json", obj)], capsys)
    assert code == 3


def test_caps(octa_file, bent_caps_file, capsys):
    code, payload = run(["caps", octa_file, "--check", "ns"], capsys)
    assert code == 0  # non-separable, decided exactly
    assert payload["non_separable"]["value"]
    assert payload["provenance"] == {"method": "support-caps", "exact": True}
    code, payload = run(["caps", octa_file, "--check", "ts"], capsys)
    assert code == 0
    assert payload["totally_separable"]["value"]
    code, payload = run(["caps", bent_caps_file, "--check", "ts"], capsys)
    assert code == 1
    assert [0, 1] in payload["totally_separable"]["refuted"]
    code, payload = run(["caps", bent_caps_file, "--check", "cover"], capsys)
    assert code == 0
    assert payload["cover"]["applicable"] and payload["cover"]["holds"]


def test_tammes(capsys):
    code, payload = run(["tammes", "--k", "8"], capsys)
    assert code == 0
    assert payload["exact"]
    assert payload["radius"] == pytest.approx(math.asin(1.0 / math.sqrt(3.0)), abs=1e-12)
    code, payload = run(["tammes", "--k", "40"], capsys)
    assert code == 0 and not payload["exact"]


def test_lambda_density(capsys):
    code, payload = run(["lambda-density", "--geometry", "euclidean", "--lam", "0.3"], capsys)
    assert code == 0
    assert payload["value"] == pytest.approx(math.pi / math.sqrt(12.0), abs=1e-12)
    assert payload["provenance"] == {"method": "voronoi-fan", "exact": True}
    assert "error" not in payload
    code, payload = run(
        ["lambda-density", "--geometry", "spherical", "--lam", "0.3", "--rho", "0.5"],
        capsys,
    )
    assert code == 0 and payload["branch"] == "regular"
    code, payload = run(
        ["lambda-density", "--geometry", "spherical", "--lam", "0.1", "--rho", "1.2"],
        capsys,
    )
    assert code == 0 and payload["branch"] == "long-leg"
    assert payload["value"] == pytest.approx(0.88276, abs=1e-3)
    code, _ = run(["lambda-density", "--geometry", "spherical", "--lam", "0.3"], capsys)
    assert code == 3  # missing --rho
    # past rho = 8 the hyperbolic bound is refused, not answered wrong
    code, _ = run(["lambda-density", "--geometry", "hyperbolic", "--lam", "0", "--rho", "12"], capsys)
    assert code == 3


def test_extremal_3disks(capsys):
    code, payload = run(
        ["extremal-3disks", "--centers", "[[0,0],[2,0],[4,0]]"],
        capsys,
    )
    assert code == 0
    assert payload["area"]["value"] == pytest.approx(
        math.pi + 16.0 * math.sqrt(3.0) / 3.0, abs=1e-6
    )
    assert payload["flags"]
    assert payload["provenance"] == {"method": "closed-form", "exact": True}
    triple = payload["triple"]
    assert triple["non_separable"]
    assert triple["perimeter"] == pytest.approx(2.0 * math.pi + 8.0, abs=1e-6)


def _family(obj):
    return HomothetFamily(body_from_json(obj["body"]), np.asarray(obj["centers"], dtype=float),
                          np.asarray(obj["ratios"], dtype=float) if "ratios" in obj else None)


def _cap_list(obj):
    return [Cap(np.asarray(c["center"], dtype=float), c["radius_rad"]) for c in obj["caps"]]


CUBES = {"body": {"type": "polytope", "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                                   for z in (-1, 1)]},
         "centers": [[0, 0, 0], [2, 0, 0], [4, 0, 0]]}
SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
SQUARES = {"body": {"type": "polygon", "vertices": SQUARE}, "centers": [[0, 0], [2, 0], [1, 2]],
           "ratios": [1, 1, 0.5]}
HALF_CUBE = {"box": {"lo": [0, 0, 0], "hi": [2, 2, 2]},
             "cuts": [{"cell": 0, "normal": [0, 0, 1], "offset": 1.0}],
             "balls": [{"center": [1.0, 1.0, 0.5], "r": 0.5}, {"center": [1.0, 1.0, 1.5], "r": 0.5}]}
LOOPED_GRID = dict(GRID, loop=[0, 2, 8, 6])
EXACT = {"exact": True}


def _half_cube(obj):
    return GuillotinePartition(
        np.asarray(obj["box"]["lo"], dtype=float), np.asarray(obj["box"]["hi"], dtype=float),
        tuple(PlaneCut(c["cell"], np.asarray(c["normal"], dtype=float), c["offset"]) for c in obj["cuts"]),
        tuple((np.asarray(b["center"], dtype=float), b["r"]) for b in obj["balls"]),
    )


@pytest.mark.parametrize(
    "argv, given, report, provenance",
    [
        pytest.param(["check-ns", "IN"], GRID, lambda o: separability.is_non_separable(_family(o)),
                     {"method": "pair-arc", **EXACT}, id="ns-planar"),
        # the sampled sweep counts the 1 024 sphere points it is floored at
        # and the 58 candidate directions of the cubes, not --samples
        pytest.param(["check-ns", "IN", "--samples", "256"], CUBES,
                     lambda o: separability.is_non_separable(_family(o), samples=256),
                     {"method": "direction-search", "samples": 1082}, id="ns-sampled"),
        pytest.param(["cover", "IN"], GRID, lambda o: covering.min_cover_ratio(_family(o)),
                     {"method": "enclosing-disk", **EXACT}, id="cover-disk"),
        pytest.param(["cover", "IN"], SQUARES, lambda o: covering.min_cover_ratio(_family(o)),
                     {"method": "facet-vertices", **EXACT}, id="cover-polygon"),
        pytest.param(["verify-ts", "IN"], GRID,
                     lambda o: separability.is_ts_packing(_family(o).bodies()),
                     {"method": "critical-directions", **EXACT}, id="ts"),
        pytest.param(["verify-ls", "IN"], GRID,
                     lambda o: separability.is_ls_packing(_family(o).bodies()),
                     {"method": "neighbourhood-ts", **EXACT}, id="ls"),
        pytest.param(["rho-sep", "IN", "--rho", "3"], GRID,
                     lambda o: separability.is_rho_separable(_family(o).reference, o["centers"], 3.0),
                     {"method": "neighbourhood-ts", **EXACT}, id="rho"),
        pytest.param(["oler", "IN"], LOOPED_GRID,
                     lambda o: packing.oler_check(_family(o).reference, o["centers"], o["loop"]),
                     {"method": "closed-form"}, id="oler"),
        pytest.param(["contact", "IN"], GRID,
                     lambda o: packing.contact_graph(_family(o).reference, o["centers"]),
                     {"method": "gauge-distance"}, id="contact"),
        pytest.param(["density", "--body", "square"], None,
                     lambda o: min_area_parallelogram(ConvexBody.polygon(SQUARE)),
                     {"method": "edge-normal-pairs", **EXACT}, id="density"),
        pytest.param(["lattice", "--n", "9"], None, lambda o: bounds.lattice_contact_bounds(2, 9),
                     {"method": "closed-form"}, id="lattice"),
        pytest.param(["lattice", "--n", "9", "--brute"], None,
                     lambda o: bounds.brute_force_lattice_contact(9),
                     {"method": "brute-force"}, id="lattice-brute"),
        pytest.param(["lattice", "--n", "100", "--d", "3", "--mode", "rogers", "--samples", "2000",
                      "--seed", "5"], None, lambda o: packing.rogers_sigma(3, samples=2000, seed=5),
                     {"method": "monte-carlo", "samples": 2000, "seed": 5}, id="lattice-rogers"),
        pytest.param(["kertesz", "IN"], HALF_CUBE, lambda o: packing.kertesz_check(_half_cube(o)),
                     {"method": "vertex-enumeration", **EXACT}, id="kertesz"),
        pytest.param(["caps", "IN", "--check", "ns"], OCTA,
                     lambda o: spherical.caps_non_separable(_cap_list(o)),
                     {"method": "support-caps", **EXACT}, id="caps-ns"),
        pytest.param(["caps", "IN", "--check", "ts"], OCTA,
                     lambda o: spherical.is_ts_cap_packing(_cap_list(o)),
                     {"method": "support-caps", **EXACT}, id="caps-ts"),
        pytest.param(["caps", "IN", "--check", "cover"], BENT,
                     lambda o: spherical.cap_cover_check(_cap_list(o)),
                     {"method": "support-caps", **EXACT}, id="caps-cover"),
        pytest.param(["tammes", "--k", "8"], None, lambda o: bounds.separable_tammes(8),
                     {"method": "closed-form"}, id="tammes"),
        pytest.param(["lambda-density", "--geometry", "euclidean", "--lam", "0.3"], None,
                     lambda o: lambda_density.density_bound_euclid(0.3),
                     {"method": "voronoi-fan", **EXACT}, id="lambda-density"),
        pytest.param(["extremal-3disks"], None, lambda o: packing.three_disk_extrema(),
                     {"method": "closed-form", **EXACT}, id="3-disks"),
    ],
)
def test_payload_provenance_is_the_reports(argv, given, report, provenance, tmp_path, capsys):
    """Each payload names the method that the library report records for
    the same input, and no other."""
    path = write_json(tmp_path / "in.json", given)
    code, payload = run([path if a == "IN" else a for a in argv], capsys)
    assert code == 0
    assert payload["provenance"] == report(given).provenance == provenance


def test_output_files(grid_file, tmp_path, capsys):
    base = str(tmp_path / "report")
    code, _ = run(
        ["check-ns", grid_file, "--samples", "256", "--format", "both", "--out", base],
        capsys,
    )
    assert code == 0
    data = json.loads(open(base + ".json").read())
    assert data["non_separable"]
    svg_text = open(base + ".svg").read()
    assert svg_text.startswith("<svg") and "circle" in svg_text
    code, _ = run(["tammes", "--k", "4", "--format", "svg"], capsys)
    assert code == 3  # no drawing for this command


def test_bad_inputs(tmp_path, capsys):
    code, _ = run(["check-ns", str(tmp_path / "missing.json")], capsys)
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["check-ns", str(bad)], capsys)
    assert code == 3
    empty = write_json(tmp_path / "empty.json", {"stuff": 1})
    code, _ = run(["check-ns", empty], capsys)
    assert code == 3
    code, _ = run(["unknown-command"], capsys)
    assert code == 3


def test_non_finite_input_exits_3(tmp_path, capsys):
    nan_center = write_json(
        tmp_path / "nan.json", {"body": DISK, "centers": [[float("nan"), 0.0], [2.0, 0.0]]}
    )
    code, payload = run(["check-ns", nan_center], capsys)
    assert code == 3 and payload is None
    inf_radius = write_json(
        tmp_path / "inf.json",
        {"body": {"type": "disk", "center": [0.0, 0.0], "radius": float("inf")},
         "centers": [[0.0, 0.0], [2.0, 0.0]]},
    )
    code, _ = run(["check-ns", inf_radius], capsys)
    assert code == 3


def test_caps_non_finite_input_exits_3(octa_file, tmp_path, capsys):
    cap = {"center": [float("nan"), 0.0, 1.0], "radius_rad": 0.3}
    other = {"center": [0.0, 0.0, -1.0], "radius_rad": 0.3}
    nan_cap = write_json(tmp_path / "nan_caps.json", {"caps": [cap, other]})
    for check in ("ns", "ts", "cover"):
        code, payload = run(["caps", nan_cap, "--check", check], capsys)
        assert code == 3 and payload is None
    code, _ = run(["caps", octa_file, "--samples", "2000"], capsys)
    assert code == 3  # caps samples nothing, so the flag is unknown


@pytest.mark.parametrize(
    "command", [["check-ns"], ["cover"], ["verify-ts"], ["verify-ls"], ["rho-sep", "--rho", "3"],
                ["oler"], ["contact"]]
)
def test_json_output_builds_no_drawing(command, tmp_path, capsys, monkeypatch):
    def no_drawing(*args, **kwargs):
        raise AssertionError("a drawing was built for JSON output")

    monkeypatch.setattr(svg, "family_drawing", no_drawing)
    centers = [[2.0 * i, 2.0 * j] for i in range(3) for j in range(3)]
    grid = write_json(
        tmp_path / "grid.json", {"body": DISK, "centers": centers, "loop": [0, 6, 8, 2]}
    )
    code, payload = run([command[0], grid, *command[1:], "--format", "json"], capsys)
    assert code == 0 and payload is not None


@pytest.mark.parametrize(
    "command", [["verify-ts"], ["verify-ls"], ["cover"], ["rho-sep", "--rho", "3"], ["oler"],
                ["contact"]]
)
def test_three_dimensional_family_exits_3(command, tmp_path, capsys):
    cube = {"type": "polytope",
            "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]}
    cubes = write_json(
        tmp_path / "cubes.json",
        {"body": cube, "centers": [[0, 0, 0], [2, 0, 0], [4, 0, 0]], "loop": [0, 1, 2]},
    )
    with pytest.raises(SystemExit) as ei:
        main([command[0], cubes, *command[1:]])
    assert ei.value.code == 3
    assert "supports planar bodies only" in capsys.readouterr().err



@pytest.mark.parametrize("command", [["contact"], ["rho-sep", "--rho", "3"], ["oler"]])
def test_translate_commands_refuse_ratios_exit_3(command, tmp_path, capsys):
    # disks of radius 3 at x = 0 and x = 2 overlap deeply; read as unit disks they touch
    scaled = write_json(
        tmp_path / "scaled.json",
        {"body": DISK, "centers": [[0.0, 0.0], [2.0, 0.0]], "ratios": [3.0, 3.0], "loop": [0, 1]},
    )
    with pytest.raises(SystemExit) as ei:
        main([command[0], scaled, *command[1:]])
    assert ei.value.code == 3
    assert "every ratio must be 1" in capsys.readouterr().err


COLD_RUN = """
import math, sys
import numpy as np
import sepgeom, sepgeom.cli
from sepgeom import ConvexBody, HomothetFamily, min_cover_ratio, size_report

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
ang = 2.0 * math.pi * np.arange(6) / 6
hexagon = ConvexBody.polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
fam = HomothetFamily(hexagon, [[0.0, 0.0], [1.7, 0.4], [0.3, 1.9]], [1.0, 0.5, 0.8])
assert min_cover_ratio(fam).contains_all
assert size_report(hexagon).inradius > 0.0
assert not scipy_modules(), scipy_modules()
"""


def test_cold_import_and_cover_load_no_scipy():
    run = fresh_python(COLD_RUN)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check-ns", "APART", "--tolerance", "nan"],
        ["verify-ts", "APART", "--tolerance", "nan"],
        ["cover", "APART", "--tolerance", "inf"],
        ["contact", "APART", "--tolerance", "-0.5"],
        ["check-ns", "APART", "--samples", "0"],
        ["tammes", "--k", "1"],
        ["lattice", "--n", "0"],
        ["lattice", "--n", "4", "--d", "0"],
    ],
)
def test_bad_numeric_input_exits_3(argv, tmp_path, capsys):
    centers = [[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]
    apart = write_json(tmp_path / "apart.json", {"body": DISK, "centers": centers})
    code, payload = run([apart if a == "APART" else a for a in argv], capsys)
    assert code == 3 and payload is None
    # the same disks at the default tolerance: separable, and totally separable
    assert run(["check-ns", apart], capsys)[0] == 1
    assert run(["verify-ts", apart], capsys)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["tammes", "--k", "8", "--seed", "1"],
        ["density", "--tolerance", "1e-6"],
        ["extremal-3disks", "--tolerance", "1e-6"],
        ["lambda-density", "--geometry", "euclidean", "--lam", "0.3", "--tolerance", "1e-6"],
        ["contact", "GRID", "--seed", "1"],
        ["check-ns", "GRID", "--seed", "1"],
        ["extremal-3disks", "--samples", "0"],
        ["lambda-density", "--geometry", "spherical", "--lam", "0.3", "--rho", "1.1", "--samples", "1000"],
        ["lambda-density", "--geometry", "spherical", "--lam", "0.3", "--rho", "1.1", "--seed", "1"],
    ],
)
def test_flags_a_command_does_not_read_exit_3(argv, grid_file, capsys):
    assert run([grid_file if a == "GRID" else a for a in argv], capsys)[0] == 3


@pytest.mark.parametrize(
    "argv, given",
    [
        (["contact", "IN"], {"body": dict(DISK, radius=0.5), "centers": []}),
        (["cover", "IN"], {"body": DISK, "centers": []}),
        (["verify-ts", "IN"], {"body": DISK, "centers": []}),
        (["verify-ls", "IN"], {"body": DISK, "centers": []}),
        (["caps", "IN", "--check", "ts"], {"caps": []}),
        (["extremal-3disks", "--centers", "xx"], None),
        (["extremal-3disks", "--centers", "[[0, 0], [2, 0], [NaN, 0]]"], None),
        (["lattice", "--n", "5", "--d", "3", "--mode", "rogers", "--seed", "-1"], None),
        (["rho-sep", "IN", "--rho", "nan"], {"body": DISK, "centers": [[0, 0], [2, 0]]}),
        (["rho-sep", "IN", "--rho", "inf"], {"body": DISK, "centers": [[0, 0], [2, 0]]}),
    ],
)
def test_malformed_input_exits_3(argv, given, tmp_path, capsys):
    """Input that names no valid family, cap list, center list, seed or rho
    is refused with exit 3, never answered as "violated" (exit 1) or with a
    non-finite number in the output."""
    path = write_json(tmp_path / "in.json", given)
    code, payload = run([path if a == "IN" else a for a in argv], capsys)
    assert code == 3 and payload is None


def test_cover_tiny_disk_family_exits_0(tmp_path, capsys):
    """Nine unit disks on a ring, scaled by 1e-8: the smallest cover rests on
    three of them, and the scale of the enclosing disk follows the input."""
    ring = 3.0 * np.c_[np.cos(np.arange(9) * 2 * math.pi / 9), np.sin(np.arange(9) * 2 * math.pi / 9)]
    disk = {"type": "disk", "center": [0.0, 0.0], "radius": 1e-8}
    path = write_json(tmp_path / "tiny.json", {"body": disk, "centers": (1e-8 * np.round(ring, 3)).tolist()})
    code, payload = run(["cover", path], capsys)
    assert code == 0 and payload["smallest"]["contains_all"]
    assert payload["smallest"]["normalized"] == pytest.approx(0.4444395555555556, rel=1e-12)
