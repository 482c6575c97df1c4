"""Scalar closed forms for balanced student-to-teacher assignments.

A balanced assignment gives every student c courses with c distinct teachers
and splits students evenly, so each course section has n*c/m students and
every pair of teachers shares the same number of students.  Under that
symmetry the two traces driving the expected student information collapse to
rational functions of the variance components, as do the variance inflation
factors caused by control-group contamination under within-school
randomization.  Nothing here builds a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .designs import DesignKind, ParityError, check_identifiable, validate_contamination
from .model_core import StudentVarianceComponents, TeacherVarianceComponents


@dataclass(frozen=True)
class BalancedSpec:
    """Homogeneous balanced layout: m teachers, n students, c courses, a schools."""

    m: int
    n: int
    c: int
    a: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.a < 2:
            raise ValueError(f"need at least 2 schools, got {self.a}")
        if not 1 <= self.c <= self.m:
            raise ValueError(f"c must be in [1, m={self.m}], got {self.c}")
        if (self.n * self.c) % self.m != 0:
            raise ValueError(
                f"n*c = {self.n * self.c} must be divisible by m = {self.m} "
                f"so that course sections have equal size"
            )


def balanced_traces(
    spec: BalancedSpec, vc: StudentVarianceComponents
) -> tuple[float, float]:
    """Per-school traces (tr(D' Sigma^-1 D J), tr(D' Sigma^-1 D)) in closed form.

    tr(D' Sigma^-1 D J) = m n c^2 / (m n sigma_s2 + n c^2 sigma_t2 + m sigma_eta2)

    m tr(D' Sigma^-1 D) adds m(m-1)nc(m-c) / (m(m-1) sigma_eta2 + nc(m-c) sigma_t2)
    to the first trace.
    """
    m, n, c = spec.m, spec.n, spec.c
    denom = m * n * vc.sigma_s2 + n * c**2 * vc.sigma_t2 + m * vc.sigma_eta2
    if denom <= 0.0:
        raise ValueError("at least one variance component must be positive")
    trace_j = m * n * c**2 / denom
    if c == m:
        second = 0.0
    else:
        second = (
            m * (m - 1) * n * c * (m - c)
            / (m * (m - 1) * vc.sigma_eta2 + n * c * (m - c) * vc.sigma_t2)
        )
    return trace_j, (trace_j + second) / m


def balanced_student_information(
    kind: DesignKind, spec: BalancedSpec, vc: StudentVarianceComponents
) -> float:
    """Expected treatment information of the student model for a balanced layout.

    Combines the two balanced traces per design; with c = m the within-school
    value is exactly 0 because D R_i vanishes for every balanced realization.
    """
    m, a = spec.m, spec.a
    kind.check_parity(a, (m,) * a)
    trace_j, trace = balanced_traces(spec, vc)
    if kind is DesignKind.RANDOMIZE_SCHOOLS:
        return a * trace_j
    if kind is DesignKind.RANDOMIZE_WITHIN_SCHOOLS:
        return a * (m * trace - trace_j) / (m - 1)
    return a * (m * a * trace - trace_j) / (m * a - 1)


def efficiency_condition(spec: BalancedSpec, vc: StudentVarianceComponents) -> bool:
    """True iff within-school randomization is at least as informative as
    randomizing schools for the student model:

        n (m - c) sigma_s2 >= m (c - 1) sigma_eta2

    Ties count as true.
    """
    return (
        spec.n * (spec.m - spec.c) * vc.sigma_s2
        >= spec.m * (spec.c - 1) * vc.sigma_eta2
    )


def teacher_inflation_design2(
    q: float, m: int, vc: TeacherVarianceComponents
) -> float:
    """Variance inflation of the teacher treatment effect under contamination.

    1 + q/(2(1-q)) * (1 - sigma_v2/(sigma_eps2 + m*sigma_v2))^-1
    """
    validate_contamination(DesignKind.RANDOMIZE_WITHIN_SCHOOLS, q)
    check_identifiable(q)
    if m < 2:
        raise ParityError("within_schools needs at least 2 teachers per school")
    inner = 1.0 - vc.sigma_v2 / (vc.sigma_eps2 + m * vc.sigma_v2)
    return 1.0 + q / (2.0 * (1.0 - q)) / inner


def student_inflation_design2(
    q: float, spec: BalancedSpec, vc: StudentVarianceComponents
) -> float:
    """Variance inflation of the student treatment effect under contamination.

    Equals 1 + q/(2(1-q)) * t_C/t_G where t_C = tr(D' Sigma^-1 D Cov(R)) and
    t_G = tr(D' Sigma^-1 D) for a balanced D; in the variance components,

        t_C/t_G = (m n sigma_s2 + n c^2 sigma_t2 + m sigma_eta2)
                  / ((m-1) n sigma_s2 + n c^2 sigma_t2
                     + m (m-1)/(m-c) sigma_eta2).

    Rejected for c = m, where the uncontaminated information is already 0.
    """
    validate_contamination(DesignKind.RANDOMIZE_WITHIN_SCHOOLS, q)
    check_identifiable(q)
    if spec.c == spec.m:
        raise ValueError(
            "c = m gives zero within-school information, so an inflation factor "
            "is meaningless"
        )
    m = spec.m
    trace_j, trace = balanced_traces(spec, vc)
    t_c = (m * trace - trace_j) / (m - 1)
    return 1.0 + q / (2.0 * (1.0 - q)) * t_c / trace
