"""The two choices a study makes, a design and an assignment policy, and
every closed form they lead to.

Design 1 assigns half of the schools (with all their teachers) to treatment,
design 2 assigns half of the teachers within every school, and design 3
assigns half of the pooled teacher list regardless of school.  All three are
balanced, so E[R_i] = 0 and the per-school covariance of the +-1 vector R_i
is Cov(R_i) = alpha*J + beta*(m I - J) with

    randomize_schools:  (alpha, beta) = (1, 0)
    within_schools:     (0, 1/(m-1))
    crd:                ((a-1)/(m a-1), a/(m a-1))

Every closed form follows from that one rule.  With G_i the per-school
precision of either response level, the expected treatment information is
E[R_i' G_i R_i] = tr(G_i Cov(R_i)) = alpha*t_J + beta*w, where t_J = tr(G_i J)
and w = tr(G_i (m I - J)) are the only two traces any closed form needs;
under a balanced assignment (BalancedSpec) both student traces are rational
functions of the variance components.

Contamination marks control teachers that adopt the treatment anyway: within
school i each control teacher independently flips its indicator to 1 with
probability (1'R_i + m)*q/m, so a school full of controls under design 1
never contaminates.  Every draw is made in simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model_core import (
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    _check_symmetric,
    _teacher_traces,
    check_integer,
    student_precision,
)


class ParityError(FieldError):
    """A design's balance constraint (even counts) is violated."""

    def __init__(self, message: str):
        super().__init__("designs", message)


class DegenerateContaminationError(FieldError):
    """q = 1 makes the contamination column collinear with treatment."""

    def __init__(self, message: str):
        super().__init__("q", message)


class DesignKind(Enum):
    RANDOMIZE_SCHOOLS = "randomize_schools"
    RANDOMIZE_WITHIN_SCHOOLS = "within_schools"
    COMPLETELY_RANDOMIZED = "crd"

    def check_parity(self, a: int, m: Sequence[int]) -> None:
        """Raise ParityError naming the violated evenness constraint for a
        schools with per-school teacher counts ``m``."""
        if self is DesignKind.RANDOMIZE_SCHOOLS and a % 2 != 0:
            raise ParityError(f"randomize_schools needs an even school count, got a={a}")
        if self is DesignKind.RANDOMIZE_WITHIN_SCHOOLS:
            for i, m_i in enumerate(m):
                if m_i % 2 != 0:
                    raise ParityError(
                        f"within_schools needs an even teacher count per school, "
                        f"school {i} has m={m_i}"
                    )
        if self is DesignKind.COMPLETELY_RANDOMIZED and sum(m) % 2 != 0:
            raise ParityError(f"crd needs an even total teacher count, got {sum(m)}")

    def check(self, a: int, m: Sequence[int], q: float) -> None:
        """Raise a FieldError unless the design can randomize a schools of
        ``m`` teachers at contamination q: parity, then q's range, then q = 1."""
        self.check_parity(a, m)
        validate_contamination(self, q)
        check_identifiable(self.effective_q(q))

    def moments(self, m: int, a: int) -> tuple[float, float]:
        """(alpha, beta) with Cov(R_i) = alpha*J + beta*(m I - J) for a schools
        of m teachers each."""
        if self is DesignKind.RANDOMIZE_SCHOOLS:
            return 1.0, 0.0
        if self is DesignKind.RANDOMIZE_WITHIN_SCHOOLS:
            return 0.0, 1.0 / (m - 1)
        return (a - 1) / (m * a - 1), a / (m * a - 1)

    def information(self, m: int, a: int, t_j: float, w: float) -> float:
        """tr(G Cov(R_i)) = alpha*t_J + beta*w from the traces t_J = tr(G J) and
        w = tr(G (m I - J)) of one school, or from traces summed over schools."""
        alpha, beta = self.moments(m, a)
        return alpha * t_j + beta * w

    def effective_q(self, q: float) -> float:
        """The contamination intensity the design admits: randomizing by school
        leaves no control teacher beside a treated one, so it is 0 there."""
        return 0.0 if self is DesignKind.RANDOMIZE_SCHOOLS else q

    def inflation(self, q: float, m: int, t_j: float, w: float) -> float | None:
        """Variance inflation from contamination q given one school's traces.

        1 without contamination; the within-school closed form when that
        design carries information (w > 0); None where no closed form exists
        (contaminated crd) or there is no information to inflate.
        """
        if self.effective_q(q) == 0.0:
            return 1.0
        if self is not DesignKind.RANDOMIZE_WITHIN_SCHOOLS or w == 0.0:
            return None
        return _within_school_inflation(q, m, t_j, w)


def validate_contamination(kind: DesignKind, q: float) -> None:
    """Raise a FieldError of ``q`` unless q lies in the admissible range of the design:
    [0, 0.5] for crd, [0, 1] otherwise."""
    hi = 0.5 if kind is DesignKind.COMPLETELY_RANDOMIZED else 1.0
    if not 0.0 <= q <= hi:
        raise FieldError("q", f"q={q} outside [0.0, {hi}] for {kind.value}")


def check_identifiable(q: float) -> None:
    """Raise DegenerateContaminationError when q = 1: every control teacher
    contaminates, so the contamination column is collinear with treatment."""
    if q == 1.0:
        raise DegenerateContaminationError(
            "q = 1 contaminates every control teacher, so the contamination column "
            "is collinear with the treatment column"
        )


class PolicyKind(Enum):
    BALANCED = "balanced"
    WITH_REPLACEMENT = "with_replacement"
    SINGLE_COURSE = "single_course"


@dataclass(frozen=True)
class AssignmentPolicy:
    """How students pick their c teachers: balanced sections, uniform draws
    with replacement, or a single course each."""

    kind: PolicyKind
    c: int = 1

    def __post_init__(self):
        check_integer(self.c, "assignment.c")
        if self.kind is PolicyKind.SINGLE_COURSE and self.c != 1:
            raise FieldError("assignment.c", "single_course implies c = 1")

    @classmethod
    def balanced(cls, c: int) -> "AssignmentPolicy":
        return cls(PolicyKind.BALANCED, c)

    @classmethod
    def with_replacement(cls, c: int) -> "AssignmentPolicy":
        return cls(PolicyKind.WITH_REPLACEMENT, c)

    @classmethod
    def single_course(cls) -> "AssignmentPolicy":
        return cls(PolicyKind.SINGLE_COURSE, 1)

    def check_school(self, m: int, n: int) -> None:
        """Raise a FieldError when the policy cannot produce its exact counts
        for (m, n); the balanced rule is also BalancedSpec's."""
        if self.kind is PolicyKind.BALANCED:
            if self.c > m:
                raise FieldError("assignment.c", f"balanced needs c <= m, got c={self.c}, m={m}")
            if (n * self.c) % m != 0:
                raise FieldError(
                    "assignment.c",
                    f"balanced needs n*c divisible by m, got n={n}, c={self.c}, m={m}",
                )
        elif self.kind is PolicyKind.SINGLE_COURSE and n % m != 0:
            raise FieldError(
                "assignment", f"single_course needs n divisible by m, got n={n}, m={m}"
            )

    def check_student_estimable(self, design: DesignKind, m: Sequence[int]) -> None:
        """Raise when no replicate can carry student-level treatment information.

        Balanced c = m gives every student every teacher, so D_i = J and
        D_i r_i = (1'r_i) 1, which within-school randomization makes 0 in
        every school.
        """
        if (
            self.kind is PolicyKind.BALANCED
            and design is DesignKind.RANDOMIZE_WITHIN_SCHOOLS
            and all(m_i == self.c for m_i in m)
        ):
            raise FieldError(
                "assignment.c",
                f"balanced c = m = {self.c} under within_schools gives every student "
                "every teacher, so the student level is never estimable"
            )


def expected_teacher_information(
    kind: DesignKind, layout: StudyLayout, vc: TeacherVarianceComponents
) -> float:
    """Expected treatment-entry information of the teacher model,
    a * (alpha t_J + beta w) with the closed-form teacher traces:

    randomize_schools:  m*a / (sigma_eps2 + sigma_v2*m)
    within_schools:     m*a / sigma_eps2
    crd:                the first value times
                        1 + (m-1)*m*a/(m*a-1) * sigma_v2/sigma_eps2
    """
    kind.check_parity(layout.a, layout.m)
    m = layout.homogeneous_m()
    return layout.a * kind.information(m, layout.a, *_teacher_traces(m, vc))


def expected_student_information_given_D(
    kind: DesignKind, d: Sequence[np.ndarray], vc: StudentVarianceComponents
) -> float:
    """Expected treatment information of the student model for a fixed assignment.

    Averaging X' G X over the randomization, with G_i = D_i' Sigma_i^-1 D_i,
    leaves sum_i tr(G_i Cov(R_i)) = alpha sum_i t_J + beta sum_i w.
    """
    gs = [student_precision(di, vc) for di in d]
    if not gs:
        raise ValueError("need at least one school block")
    widths = {g.shape[0] for g in gs}
    if len(widths) != 1:
        raise ValueError(f"teacher counts differ across schools: {sorted(widths)}")
    m = widths.pop()
    a = len(gs)
    kind.check_parity(a, (m,) * a)
    t_js = [float(g.sum()) for g in gs]
    w = sum(m * float(np.trace(g)) - t_j for g, t_j in zip(gs, t_js))
    return kind.information(m, a, sum(t_js), w)


def expected_contamination(
    kind: DesignKind, layout: StudyLayout, q: float
) -> tuple[np.ndarray, ...]:
    """Per-school mean contamination E[C_i] = (q/2m)(m*1 - Cov(R_i)*1) = (q/2)(1 - alpha)*1.

    randomize_schools: 0; within_schools: q/2 per teacher;
    crd: (q/2) * a(m-1)/(ma-1) per teacher.
    """
    validate_contamination(kind, q)
    kind.check_parity(layout.a, layout.m)
    m = layout.homogeneous_m()
    alpha, _ = kind.moments(m, layout.a)
    return tuple(np.full(m, q / 2.0 * (1.0 - alpha)) for _ in range(layout.a))


def _within_school_inflation(q: float, m: int, t_j: float, w: float) -> float:
    """1 + q/(2(1-q)) * t_C/t_G under within-school randomization, where
    t_C = tr(G Cov(R)) = w/(m-1) and t_G = tr(G) = (t_J + w)/m.

    The one inflation rule behind the teacher factor, the student factor and
    the treatment entry of the contaminated moment matrix.
    """
    validate_contamination(DesignKind.RANDOMIZE_WITHIN_SCHOOLS, q)
    check_identifiable(q)
    if m < 2:
        raise ParityError("within_schools needs at least 2 teachers per school")
    if w <= 0.0:
        raise NonEstimableError("tr(G Cov(R)) is zero; treatment carries no information")
    t_c = w / (m - 1)
    t_g = (t_j + w) / m
    return 1.0 + q / (2.0 * (1.0 - q)) * t_c / t_g


def contaminated_expected_moment_matrix(g: np.ndarray, q: float) -> tuple[np.ndarray, float]:
    """Expected moment matrix E[X' G X] under within-school contamination.

    For the three-column model X = [1 R C] with within-school (design-2)
    randomization, the one design with this closed form, the expectation
    depends on G only through t_J = tr(G J), t_C = tr(G Cov(R)) and
    t_G = tr(G):

        E = [[t_J,        0,          (q/2) t_J ],
             [0,          t_C,       -(q/2) t_C ],
             [(q/2) t_J, -(q/2) t_C,  (q^2/4)(t_J + t_C) + (q(1-q)/2) t_G]]

    Returns E together with the treatment entry of its inverse,
    (1/t_C) * (1 + q/(2(1-q)) * t_C/t_G), the anticipated variance of the
    treatment coefficient per school.
    """
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    if g.ndim != 2 or g.shape[1] != m:
        raise ValueError(f"G must be square, got {g.shape}")
    _check_symmetric(g)
    t_j = float(g.sum())
    t_g = float(np.trace(g))
    w = m * t_g - t_j
    inflation = _within_school_inflation(q, m, t_j, w)
    t_c = w / (m - 1)
    e = np.array(
        [
            [t_j, 0.0, q / 2.0 * t_j],
            [0.0, t_c, -q / 2.0 * t_c],
            [
                q / 2.0 * t_j,
                -q / 2.0 * t_c,
                q**2 / 4.0 * (t_j + t_c) + q * (1.0 - q) / 2.0 * t_g,
            ],
        ]
    )
    return e, inflation / t_c


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
