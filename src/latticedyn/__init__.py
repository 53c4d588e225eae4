"""Numerical toolkit for a damped, forced lattice of coupled oscillators:
periodic-wrap truncations, quasi-periodic forcing with exact shift flow,
energy and tail estimates, and attractor cloud comparison."""

from .attractor import (
    AttractorCloud,
    ConvergenceReport,
    TailCertificateReport,
    convergence_study,
    hausdorff_semidistance,
    sample_attractor,
    tail_certificate,
)
from .dynamics import (
    LatticeParams,
    Nonlinearity,
    Trajectory,
    cocycle_property_check,
    integrate,
    make_finite_rhs,
    make_nonlinearity,
    make_reference_rhs,
    max_stable_step,
)
from .estimates import (
    burn_in_time,
    calibrate_tail_index,
    gronwall_bound,
    tail_mass,
)
from .forcing import QuasiPeriodicForcing
from .operators import (
    apply_difference,
    apply_laplacian,
    difference_matrix,
    laplacian_matrix,
    project_forcing,
    wrap_forcing,
)

__version__ = "0.1.0"

__all__ = [
    "AttractorCloud",
    "ConvergenceReport",
    "LatticeParams",
    "Nonlinearity",
    "QuasiPeriodicForcing",
    "TailCertificateReport",
    "Trajectory",
    "apply_difference",
    "apply_laplacian",
    "burn_in_time",
    "calibrate_tail_index",
    "cocycle_property_check",
    "convergence_study",
    "difference_matrix",
    "gronwall_bound",
    "hausdorff_semidistance",
    "integrate",
    "laplacian_matrix",
    "make_finite_rhs",
    "make_nonlinearity",
    "make_reference_rhs",
    "max_stable_step",
    "project_forcing",
    "sample_attractor",
    "tail_certificate",
    "tail_mass",
    "wrap_forcing",
]
