"""Spectra of discrete Schrodinger operators with finitely valued subshift potentials."""

__version__ = "0.1.0"

from .bands import discriminant, periodic_bands, spectrum_approximant
from .experiments import (
    adz_construct,
    complexity_growth_check,
    decay_sweep,
    elliptic_interval_check,
    scaled_product_suite,
)
from .intervals import IntervalSet
from .sl2 import (
    Mat2,
    SvdAngles,
    cocycle_product,
    cone_certificate,
    peak_angle,
    proj_dist,
    svd_angles,
    transfer_matrix,
)
from .tower import (
    Constants,
    ParamSchedule,
    acceleration_verify,
    advance_schedule,
    covering_and_measure_check,
    exclusion_sets,
    init_schedule,
    tower_pipeline,
)
from .words import (
    AdzStages,
    FIBONACCI,
    Periodic,
    Potential,
    ReturnStructure,
    Sample,
    Substitution,
    adz_next_stage,
    complexity,
    return_structure,
    run_stats,
    sample_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
