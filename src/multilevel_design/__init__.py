"""Anticipated variance of treatment effects in two-level teacher/student designs.

The package compares three ways of randomizing a teacher-directed
intervention (by school, within schools, completely at random) at both the
teacher and student response level, including control-group contamination,
via exact closed forms and a seeded Monte Carlo engine.
"""

from .closed_forms import (
    BalancedSpec,
    balanced_student_information,
    balanced_traces,
    efficiency_condition,
    student_inflation_design2,
    teacher_inflation_design2,
)
from .designs import (
    DegenerateContaminationError,
    DesignKind,
    ParityError,
    contaminated_expected_moment_matrix,
    draw_contamination,
    draw_randomization,
    expected_contamination,
    expected_student_information_given_D,
    expected_teacher_information,
)
from .model_core import (
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    TreatmentAssignment,
    TreatmentVariance,
    design_matrices,
    student_information,
    student_precision,
    teacher_information,
    teacher_precision,
    treatment_variance,
)
from .simulator import (
    AssignmentPolicy,
    DensityEstimate,
    EstimatorLevelStudy,
    LevelResult,
    PolicyKind,
    SimulationConfig,
    SimulationResult,
    draw_assignment,
    empirical_power,
    estimator_variance_study,
    gls_estimate,
    kde_density,
    simulate_anticipated_variance,
)

__version__ = "0.4.0"

__all__ = [
    "AssignmentPolicy",
    "BalancedSpec",
    "DegenerateContaminationError",
    "DensityEstimate",
    "DesignKind",
    "EstimatorLevelStudy",
    "FieldError",
    "LevelResult",
    "NonEstimableError",
    "ParityError",
    "PolicyKind",
    "SimulationConfig",
    "SimulationResult",
    "StudentVarianceComponents",
    "StudyLayout",
    "TeacherVarianceComponents",
    "TreatmentAssignment",
    "TreatmentVariance",
    "balanced_student_information",
    "balanced_traces",
    "contaminated_expected_moment_matrix",
    "design_matrices",
    "draw_assignment",
    "draw_contamination",
    "draw_randomization",
    "efficiency_condition",
    "empirical_power",
    "estimator_variance_study",
    "expected_contamination",
    "expected_student_information_given_D",
    "expected_teacher_information",
    "gls_estimate",
    "kde_density",
    "simulate_anticipated_variance",
    "student_inflation_design2",
    "student_information",
    "student_precision",
    "teacher_inflation_design2",
    "teacher_information",
    "teacher_precision",
    "treatment_variance",
]
