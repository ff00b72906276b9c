"""The package surface, and the submodules a cold import or CLI call loads."""

import ast
import importlib
import json
import math
import pathlib
import types

import pytest

import sepgeom
from helpers import fresh_python

# the public names: the 88 the package bound when it imported every submodule, and bounds
PUBLIC = [
    'Cap', 'ConvexBody', 'GeometryError', 'GuillotinePartition', 'Homothet', 'HomothetFamily',
    'PlaneCut', 'TranslatePacking', 'Triangle', 'Zone', 'area', 'area_bound_check', 'bodies',
    'body_from_json', 'body_to_json', 'bounds', 'brute_force_lattice_contact',
    'build_triangle_counterexample', 'cap_cover_check', 'caps_non_separable', 'contact_graph',
    'covering', 'crystallization_bound', 'cuboctahedral_packing', 'density_bound_euclid',
    'density_bound_hyper', 'density_bound_sphere', 'difference_body', 'enclosing_cap',
    'facet_parallel_cover_check', 'family_from_json', 'family_to_json',
    'find_separating_hyperplane', 'goodman_goodman_cover', 'hadwiger_check', 'hull_diameter',
    'hull_perimeter', 'is_ls_packing', 'is_non_separable', 'is_rho_separable', 'is_sns',
    'is_ts_cap_packing', 'is_ts_packing', 'isosceles_triangle', 'kertesz_check',
    'kirchberger_reduce', 'lambda_density', 'lattice_contact_bounds', 'leg_euclid', 'leg_hyper',
    'leg_hyper_inverse', 'long_leg_sphere', 'measures', 'min_area_parallelogram',
    'min_cover_ratio', 'minkowski_length', 'minkowski_norm', 'mixed_area', 'octahedral_packing',
    'oler_check', 'packing', 'pair_separation', 'perimeter', 'polyomino_packing',
    'radon_mixed_area_check', 'regular_base_hyper', 'regular_base_sphere', 'regular_triangle',
    'rogers_sigma', 'separability', 'separable_packing_density', 'separable_tammes',
    'short_leg_sphere', 'short_leg_sphere_inverse', 'simplex_vertices', 'size_report',
    'sns_perimeter_check', 'spherical', 'support', 'tangency_pairs', 'three_disk_extrema',
    'three_disk_hull_metrics', 'three_disk_non_separable', 'translate_gauge',
    'triangle_disk_density', 'triangle_from_sides', 'ulam_spiral', 'window_density',
    'zones_cover_check',
]


def test_public_names_are_their_submodules_objects():
    assert sepgeom.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(sepgeom))
    for name in PUBLIC:
        obj = getattr(sepgeom, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"sepgeom.{name}"), name
        else:
            assert obj.__module__.startswith("sepgeom."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="nope"):
        sepgeom.nope
    with pytest.raises(ImportError):
        from sepgeom import nope  # noqa: F401


# public functions outside __all__ that nothing in the library calls, and why
# they stay; candidate_directions and separation_margin are kept for the same
# reasons but need no entry, since find_separating_hyperplane and
# strictly_separates call them
NO_LIBRARY_CALLER = {
    "strictly_separates": "tests re-check separation certificates with it",
    "circle_avoids_cap": "tests re-check cap circles with it",
}


def test_every_public_helper_has_a_library_caller():
    """A function of a submodule without a leading underscore that is not
    in sepgeom.__all__ is named somewhere else in the library (by a call, a
    reference or an attribute), unless NO_LIBRARY_CALLER says why not."""
    defined, named = set(), set()
    for path in pathlib.Path(sepgeom.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, ast.FunctionDef):
                names.discard(stmt.name)  # a function calling itself is no caller
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
            named |= names
    assert defined - named - set(sepgeom.__all__) == set(NO_LIBRARY_CALLER)


COLD_PACKAGE = """
import sys
import sepgeom

def loaded():
    return sorted(m for m in sys.modules if m.startswith("sepgeom."))

assert loaded() == [], loaded()
assert sepgeom.measures is sys.modules["sepgeom.measures"]
assert sepgeom.svg is sys.modules["sepgeom.svg"]
assert sepgeom._kernels is sys.modules["sepgeom._kernels"]
from sepgeom import *
missing = [name for name in sepgeom.__all__ if name not in globals()]
assert not missing, missing
assert all(globals()[name] is getattr(sepgeom, name) for name in sepgeom.__all__)
"""


def test_cold_import_loads_no_submodule_and_resolves_every_name():
    run = fresh_python(COLD_PACKAGE)
    assert run.returncode == 0, run.stderr


# one sepgeom.cli.main call in a fresh interpreter: [exit code, loaded submodules,
# whether scipy or numpy.ma was loaded, whether numpy was loaded]
CLI_CALL = """
import contextlib, io, json, sys
from sepgeom import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m[len("sepgeom."):] for m in sys.modules if m.startswith("sepgeom."))
print(json.dumps([code, loaded, "scipy" in sys.modules or "numpy.ma" in sys.modules,
                  "numpy" in sys.modules]))
"""

DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
GRID = {"body": DISK, "centers": [[2.0 * i, 2.0 * j] for i in range(3) for j in range(3)]}
OCTA = {"caps": [{"center": [x / math.sqrt(3.0), y / math.sqrt(3.0), z / math.sqrt(3.0)],
                  "radius_rad": math.asin(1.0 / math.sqrt(3.0))}
                 for x in (1, -1) for y in (1, -1) for z in (1, -1)]}
CUT_CUBE = {"box": {"lo": [0, 0, 0], "hi": [2, 2, 2]},
            "cuts": [{"cell": 0, "normal": [0, 0, 1], "offset": 1.0}],
            "balls": [{"center": [1.0, 1.0, 0.5], "r": 0.5}, {"center": [1.0, 1.0, 1.5], "r": 0.5}]}
NAN_FAMILY = {"body": DISK, "centers": [[math.nan, 0.0], [2.0, 0.0]]}

# the modules a call loads; only those beyond CLI and bounds load numpy
CLI = {"cli", "_errors"}
BOUNDS = CLI | {"bounds"}
READER = CLI | {"bodies", "_kernels"}
PLANAR = READER | {"separability"}
PACKING = PLANAR | {"measures", "packing", "bounds"}
SPHERE = CLI | {"_kernels", "spherical"}


# argv, stdin, exit code, the submodules loaded
CLI_CASES = [
    (["check-ns", "-", "--sns"], GRID, 0, PLANAR),
    (["verify-ts", "-"], GRID, 0, PLANAR),
    (["verify-ls", "-"], GRID, 0, PLANAR),
    (["rho-sep", "-", "--rho", "3"], GRID, 0, PLANAR),
    (["cover", "-"], GRID, 0, READER | {"covering", "measures"}),
    (["oler", "-"], dict(GRID, loop=[0, 2, 8, 6]), 0, PACKING),
    (["contact", "-"], GRID, 0, PACKING),
    (["density", "--body", "square"], None, 0, READER | {"measures"}),
    (["lattice", "--n", "9", "--brute"], None, 0, BOUNDS),
    (["kertesz", "-"], CUT_CUBE, 0, PACKING),
    (["extremal-3disks"], None, 0, PACKING),
    (["caps", "-"], OCTA, 0, SPHERE),
    (["tammes", "--k", "8"], None, 0, BOUNDS),
    (["lambda-density", "--geometry", "euclidean", "--lam", "0.3"], None, 0, CLI | {"lambda_density"}),
    (["lambda-density", "--geometry", "spherical", "--lam", "0.3", "--rho", "1.1"], None, 0,
     CLI | {"lambda_density"}),
    (["check-ns", "-"], NAN_FAMILY, 3, PLANAR),
    (["check-ns", "-", "--format", "svg"], GRID, 0, PLANAR | {"svg"}),
]


@pytest.mark.parametrize("argv, stdin, code, modules", CLI_CASES,
                         ids=[" ".join(case[0]) + ("" if case[2] == 0 else " (bad input)") for case in CLI_CASES])
def test_a_cli_call_loads_only_what_its_command_reads(argv, stdin, code, modules):
    """Each subcommand imports its own submodules: only svg output loads svg,
    and only lambda-density loads lambda_density. lattice and tammes read
    only bounds and load no numpy; density and cover load no separability.
    None loads scipy, or numpy.ma, which np.unique without return flags
    imports on first use."""
    run = fresh_python(CLI_CALL, json.dumps(argv), stdin=None if stdin is None else json.dumps(stdin))
    assert run.returncode == 0, run.stderr
    got_code, loaded, heavy, numpy = json.loads(run.stdout)
    assert got_code == code
    assert set(loaded) == modules
    assert not heavy
    assert numpy == bool(modules - BOUNDS)
