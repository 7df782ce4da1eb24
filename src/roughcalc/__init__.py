"""Stochastic calculus for Gaussian paths on finite grids.

The package discretizes Brownian, fractional, and mixed Gaussian processes
on a time grid, equips the span of their evaluations with the covariance
inner product, and implements the Malliavin derivative, the divergence,
predictable projections, and martingale factorizations on top of it, with
a reproducible sampling layer and a check-suite CLI.
"""

from __future__ import annotations

from .config import ExperimentConfig, load_config, parse_config_text
from .energy import (GramContext, increment_element, inner_product, norm,
                     project_adapted, representer)
from .errors import (ConfigError, IllConditionedModelError,
                     MissingGradientError, RoughCalcError,
                     UnsupportedDimensionError)
from .functionals import (CylindricalFunctional, IntegralFunctional,
                          catalog_names, discretize_integral_functional,
                          gradient_check, make_functional)
from .gaussian import (PathEnsemble, RngStream, conditional_expectation,
                       conditional_law, read_ensemble, sample_ensemble,
                       sample_ensemble_circulant, write_ensemble)
from .malliavin import (AffineField, ClarkField, VectorField, affine_field,
                        clark_integrand, conditional_gradient,
                        conditional_value, derivative, derivative_pairing,
                        deterministic_field, divergence, field_norm_sq,
                        increment_directions, innovation_directions,
                        isometry_defect_affine, predictable_projection)
from .mixed import (MixedContext, MixedEnsemble, mixed_clark_fields,
                    mixed_divergence, mixed_pairing, sample_mixed)
from .models import (CovarianceModel, TimeGrid, build_gram, covariance,
                     increment_variance)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AffineField",
    "ClarkField",
    "ConfigError",
    "CovarianceModel",
    "CylindricalFunctional",
    "ExperimentConfig",
    "GramContext",
    "IllConditionedModelError",
    "IntegralFunctional",
    "MissingGradientError",
    "MixedContext",
    "MixedEnsemble",
    "PathEnsemble",
    "RngStream",
    "RoughCalcError",
    "TimeGrid",
    "UnsupportedDimensionError",
    "VectorField",
    "affine_field",
    "build_gram",
    "catalog_names",
    "clark_integrand",
    "conditional_expectation",
    "conditional_gradient",
    "conditional_law",
    "conditional_value",
    "covariance",
    "derivative",
    "derivative_pairing",
    "deterministic_field",
    "discretize_integral_functional",
    "divergence",
    "field_norm_sq",
    "gradient_check",
    "increment_directions",
    "innovation_directions",
    "increment_element",
    "increment_variance",
    "inner_product",
    "isometry_defect_affine",
    "load_config",
    "make_functional",
    "mixed_clark_fields",
    "mixed_divergence",
    "mixed_pairing",
    "norm",
    "parse_config_text",
    "predictable_projection",
    "project_adapted",
    "read_ensemble",
    "representer",
    "sample_ensemble",
    "sample_ensemble_circulant",
    "sample_mixed",
    "write_ensemble",
]
