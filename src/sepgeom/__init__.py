"""Toolkit for separability questions about convex bodies and packings.

``import sepgeom`` loads no submodule: a public name is looked up in its
submodule, imported on first use (PEP 562). The lookup runs on every access
and stores nothing here, so a binding swapped inside a submodule (as a
tracer does) is what the package returns.
"""

import importlib

__version__ = "0.1.0"

# submodule: the public names it defines
_EXPORTS = {
    "bodies": (
        "ConvexBody",
        "GeometryError",
        "Homothet",
        "HomothetFamily",
        "body_from_json",
        "body_to_json",
        "family_from_json",
        "family_to_json",
        "minkowski_norm",
        "support",
    ),
    "bounds": (
        "brute_force_lattice_contact",
        "crystallization_bound",
        "lattice_contact_bounds",
        "separable_tammes",
    ),
    "covering": (
        "build_triangle_counterexample",
        "facet_parallel_cover_check",
        "goodman_goodman_cover",
        "hadwiger_check",
        "min_cover_ratio",
    ),
    "lambda_density": (
        "Triangle",
        "density_bound_euclid",
        "density_bound_hyper",
        "density_bound_sphere",
        "isosceles_triangle",
        "leg_euclid",
        "leg_hyper",
        "leg_hyper_inverse",
        "long_leg_sphere",
        "regular_base_hyper",
        "regular_base_sphere",
        "regular_triangle",
        "short_leg_sphere",
        "short_leg_sphere_inverse",
        "triangle_disk_density",
        "triangle_from_sides",
    ),
    "measures": (
        "area",
        "hull_diameter",
        "hull_perimeter",
        "min_area_parallelogram",
        "mixed_area",
        "perimeter",
        "separable_packing_density",
        "size_report",
    ),
    "packing": (
        "GuillotinePartition",
        "PlaneCut",
        "TranslatePacking",
        "area_bound_check",
        "contact_graph",
        "difference_body",
        "kertesz_check",
        "minkowski_length",
        "oler_check",
        "polyomino_packing",
        "radon_mixed_area_check",
        "rogers_sigma",
        "simplex_vertices",
        "sns_perimeter_check",
        "three_disk_extrema",
        "three_disk_hull_metrics",
        "three_disk_non_separable",
        "translate_gauge",
        "ulam_spiral",
        "window_density",
    ),
    "separability": (
        "find_separating_hyperplane",
        "is_ls_packing",
        "is_non_separable",
        "is_rho_separable",
        "is_sns",
        "is_ts_packing",
        "kirchberger_reduce",
        "pair_separation",
        "tangency_pairs",
    ),
    "spherical": (
        "Cap",
        "Zone",
        "cap_cover_check",
        "caps_non_separable",
        "cuboctahedral_packing",
        "enclosing_cap",
        "is_ts_cap_packing",
        "octahedral_packing",
        "zones_cover_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_kernels", "cli", "svg"}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    if name in _HOME:
        # the import system binds a submodule here once it has loaded
        home = _HOME[name]
        return getattr(globals().get(home) or importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
