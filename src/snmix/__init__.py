"""Spherical normal distributions on the unit hypersphere.

Geometry primitives, density and sampling, maximum likelihood estimation,
and EM mixture-model clustering with the quality indices used to evaluate
it. See the README for the CLI surface.
"""

from .distribution import (
    LAMBDA_MAX,
    SNParams,
    grad_log_partition,
    log_density,
    log_partition,
    sample,
)
from .estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    MLEResult,
    concentration_mle,
    concentration_objective,
    fit_sn,
    weighted_frechet_mean,
)
from .geometry import (
    SpherePoint,
    batch_exp,
    batch_log,
    batch_project,
    geodesic_distance,
    unitize,
)
from .metrics import jaccard_index, kmeans, nmi, rand_index, spherical_kmeans
from .mixture import (
    EMConfig,
    EMReport,
    MixtureModel,
    e_step,
    fit_em,
    harden,
    information_criteria,
    log_likelihood,
    m_step,
    parameter_count,
    sample_mixture,
    stochasticize,
)

__version__ = "0.1.0"

__all__ = [
    "LAMBDA_MAX",
    "MAX_DISPERSION",
    "SNParams",
    "SpherePoint",
    "FrechetConfig",
    "ConcentrationConfig",
    "MLEResult",
    "EMConfig",
    "EMReport",
    "MixtureModel",
    "geodesic_distance",
    "batch_project",
    "batch_exp",
    "batch_log",
    "unitize",
    "log_partition",
    "log_density",
    "grad_log_partition",
    "sample",
    "weighted_frechet_mean",
    "concentration_objective",
    "concentration_mle",
    "fit_sn",
    "e_step",
    "harden",
    "stochasticize",
    "m_step",
    "log_likelihood",
    "fit_em",
    "parameter_count",
    "information_criteria",
    "sample_mixture",
    "rand_index",
    "jaccard_index",
    "nmi",
    "kmeans",
    "spherical_kmeans",
]
