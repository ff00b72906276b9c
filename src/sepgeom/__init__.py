"""Toolkit for separability questions about convex bodies and packings."""

__version__ = "0.1.0"

from .bodies import (
    ConvexBody,
    GeometryError,
    Homothet,
    HomothetFamily,
    body_from_json,
    body_to_json,
    family_from_json,
    family_to_json,
    minkowski_norm,
    support,
)
from .covering import (
    build_triangle_counterexample,
    facet_parallel_cover_check,
    goodman_goodman_cover,
    hadwiger_check,
    min_cover_ratio,
)
from .lambda_density import (
    Triangle,
    density_bound_euclid,
    density_bound_hyper,
    density_bound_sphere,
    isosceles_triangle,
    leg_euclid,
    leg_hyper,
    leg_hyper_inverse,
    long_leg_sphere,
    regular_base_hyper,
    regular_base_sphere,
    regular_triangle,
    short_leg_sphere,
    short_leg_sphere_inverse,
    triangle_disk_density,
    triangle_from_sides,
)
from .measures import (
    area,
    hull_diameter,
    hull_perimeter,
    min_area_parallelogram,
    mixed_area,
    perimeter,
    size_report,
)
from .packing import (
    GuillotinePartition,
    PlaneCut,
    TranslatePacking,
    area_bound_check,
    brute_force_lattice_contact,
    contact_graph,
    crystallization_bound,
    difference_body,
    kertesz_check,
    lattice_contact_bounds,
    minkowski_length,
    oler_check,
    polyomino_packing,
    radon_mixed_area_check,
    rogers_sigma,
    separable_packing_density,
    simplex_vertices,
    sns_perimeter_check,
    three_disk_extrema,
    three_disk_hull_metrics,
    three_disk_non_separable,
    translate_gauge,
    ulam_spiral,
    window_density,
)
from .separability import (
    find_separating_hyperplane,
    is_ls_packing,
    is_non_separable,
    is_rho_separable,
    is_sns,
    is_ts_packing,
    kirchberger_reduce,
    pair_separation,
    tangency_pairs,
)
from .spherical import (
    Cap,
    Zone,
    cap_cover_check,
    caps_non_separable,
    cuboctahedral_packing,
    enclosing_cap,
    is_ts_cap_packing,
    octahedral_packing,
    separable_tammes,
    zones_cover_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
