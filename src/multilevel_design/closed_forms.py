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

from .designs import DesignKind, _teacher_traces, _within_school_inflation
from .model_core import StudentVarianceComponents, StudyLayout, TeacherVarianceComponents
from .simulator import AssignmentPolicy


@dataclass(frozen=True)
class BalancedSpec:
    """Homogeneous balanced layout: m teachers, n students, c courses, a schools."""

    m: int
    n: int
    c: int
    a: int

    def __post_init__(self):
        StudyLayout(self.a, self.m, self.n)
        AssignmentPolicy.balanced(self.c).check_school(self.m, self.n)


def _balanced_school_traces(
    spec: BalancedSpec, vc: StudentVarianceComponents
) -> tuple[float, float]:
    """(t_J, w) = (tr(G J), tr(G (m I - J))) of a balanced G = D' Sigma^-1 D:

    t_J = m n c^2 / (m n sigma_s2 + n c^2 sigma_t2 + m sigma_eta2)
    w   = m(m-1)nc(m-c) / (m(m-1) sigma_eta2 + nc(m-c) sigma_t2), exactly 0 at c = m
    """
    m, n, c = spec.m, spec.n, spec.c
    denom = m * n * vc.sigma_s2 + n * c**2 * vc.sigma_t2 + m * vc.sigma_eta2
    if denom <= 0.0:
        raise ValueError("at least one variance component must be positive")
    trace_j = m * n * c**2 / denom
    if c == m:
        return trace_j, 0.0
    w = (
        m * (m - 1) * n * c * (m - c)
        / (m * (m - 1) * vc.sigma_eta2 + n * c * (m - c) * vc.sigma_t2)
    )
    return trace_j, w


def balanced_traces(
    spec: BalancedSpec, vc: StudentVarianceComponents
) -> tuple[float, float]:
    """Per-school traces (tr(D' Sigma^-1 D J), tr(D' Sigma^-1 D)) in closed form,
    that is (t_J, (t_J + w)/m)."""
    trace_j, w = _balanced_school_traces(spec, vc)
    return trace_j, (trace_j + w) / spec.m


def balanced_student_information(
    kind: DesignKind, spec: BalancedSpec, vc: StudentVarianceComponents
) -> float:
    """Expected treatment information of the student model for a balanced layout,
    a * (alpha t_J + beta w); with c = m the within-school value is exactly 0
    because D R_i vanishes for every balanced realization.
    """
    kind.check_parity(spec.a, (spec.m,) * spec.a)
    return spec.a * kind.information(spec.m, spec.a, *_balanced_school_traces(spec, vc))


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
    return _within_school_inflation(q, m, *_teacher_traces(m, vc))


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
    if spec.c == spec.m:
        raise ValueError(
            "c = m gives zero within-school information, so an inflation factor "
            "is meaningless"
        )
    return _within_school_inflation(q, spec.m, *_balanced_school_traces(spec, vc))
