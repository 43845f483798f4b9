"""randpde: Monte Carlo homogenization of random elliptic coefficients and a
Crouzeix-Raviart multiscale finite element method for perforated domains.

The package has two legs. The first estimates expected homogenized tensors
of random two-phase coefficient fields by solving periodic corrector problems
on truncated boxes, with four sampling strategies (plain Monte Carlo,
antithetic pairs, defect-based control variates, and selection of
moment-matched configurations). The second solves Poisson problems on
perforated domains with multiscale finite elements whose edge continuity is
enforced only in the mean, enriched by bubble functions, against penalized
fine-grid references.
"""

__version__ = "0.1.0"

from .fields import (Checkerboard, CoefficientField, Configuration,
                     PerturbedPeriodic, antithetic_transform, realize_field,
                     sample_configuration, sqs1_exact_sample)
from .correctors import (CorrectorSolution, check_voigt_reuss, energy_tensor,
                         homogenize)
from .defects import DefectCoefficients, defect_coefficients
from .sqs import SqsAuxiliary, sqs_auxiliary, sqs_condition_values
from .estimators import (ComparisonTable, EstimatorReport, antithetic_estimate,
                         compare_strategies, control_variate_estimate,
                         mc_estimate, sqs_estimate)
from .perforations import (NoPerforations, PeriodicDiscs, RandomRectangles,
                           build_perforations)
from .poisson import FineSolution, reference_solve
from .msfem import (CoarseMesh, CoarseSolution, MsFEMSpace, baseline_solve,
                    build_cr_space, compute_errors, max_mean_jump, msfem_solve)
from .experiments import ExperimentConfig, RunArchive, parse_config, run, validate

__all__ = [
    "Checkerboard", "CoefficientField", "Configuration", "PerturbedPeriodic",
    "antithetic_transform", "realize_field", "sample_configuration", "sqs1_exact_sample",
    "CorrectorSolution", "check_voigt_reuss", "energy_tensor", "homogenize",
    "DefectCoefficients", "defect_coefficients",
    "SqsAuxiliary", "sqs_auxiliary", "sqs_condition_values",
    "ComparisonTable", "EstimatorReport", "antithetic_estimate",
    "compare_strategies", "control_variate_estimate", "mc_estimate",
    "sqs_estimate",
    "NoPerforations", "PeriodicDiscs", "RandomRectangles", "build_perforations",
    "FineSolution", "reference_solve",
    "CoarseMesh", "CoarseSolution", "MsFEMSpace", "baseline_solve",
    "build_cr_space", "compute_errors", "max_mean_jump", "msfem_solve",
    "ExperimentConfig", "RunArchive", "parse_config", "run", "validate",
]
