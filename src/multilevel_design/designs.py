"""The three randomization designs: draws, moments, and expected information.

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
and w = tr(G_i (m I - J)) are the only two traces any closed form needs.

Contamination marks control teachers that adopt the treatment anyway: within
school i each control teacher independently flips its indicator to 1 with
probability (1'R_i + m)*q/m, so a school full of controls under design 1
never contaminates.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .model_core import (
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    TreatmentAssignment,
    _check_symmetric,
    _padded,
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


def validate_contamination(kind: DesignKind | None, q: float) -> None:
    """Raise a FieldError of ``q`` unless q lies in the admissible range of the design:
    [0, 0.5] for crd, [0, 1] otherwise and when no design is given."""
    hi = 0.5 if kind is DesignKind.COMPLETELY_RANDOMIZED else 1.0
    if not 0.0 <= q <= hi:
        name = kind.value if kind is not None else "any design"
        raise FieldError("q", f"q={q} outside [0.0, {hi}] for {name}")


def check_identifiable(q: float) -> None:
    """Raise DegenerateContaminationError when q = 1: every control teacher
    contaminates, so the contamination column is collinear with treatment."""
    if q == 1.0:
        raise DegenerateContaminationError(
            "q = 1 contaminates every control teacher, so the contamination column "
            "is collinear with the treatment column"
        )


def draw_randomization(
    kind: DesignKind, layout: StudyLayout, rng: np.random.Generator
) -> TreatmentAssignment:
    """Draw one equiprobable balanced realization of the design."""
    kind.check_parity(layout.a, layout.m)
    signs = _randomization_signs(kind, layout.m, rng.random(_sign_uniforms(kind, layout.m)))
    return TreatmentAssignment(r=tuple(row[:m_i] for row, m_i in zip(signs, layout.m)))


def _sign_uniforms(kind: DesignKind, m: Sequence[int]) -> int:
    """Uniforms one realization consumes: a key per school under
    randomize_schools, a key per teacher otherwise."""
    return len(m) if kind is DesignKind.RANDOMIZE_SCHOOLS else sum(m)


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each key's 0-based rank along the last axis, ties in slot order."""
    return np.argsort(np.argsort(keys, axis=-1, kind="stable"), axis=-1)


def _school_keys(u: np.ndarray, starts, counts, width: int) -> np.ndarray:
    """Each school's run of ``counts[i]`` uniforms from ``starts[i]`` of ``u``'s
    last axis as (..., a, width) sort keys, +inf (last) beyond the run."""
    slots = np.arange(width)
    keys = u[..., np.minimum(np.asarray(starts)[:, None] + slots, u.shape[-1] - 1)]
    return np.where(slots < np.asarray(counts)[:, None], keys, np.inf)


def _randomization_signs(kind: DesignKind, m: Sequence[int], u: np.ndarray) -> np.ndarray:
    """Realizations as (..., a, max m) +-1 signs, 0 beyond each school's m_i,
    from uniform keys ``u`` (..., _sign_uniforms): the half of the schools,
    of each school's teachers or of all teachers with the smallest is treated."""
    m = np.asarray(m)
    real = np.arange(m.max()) < m[:, None]
    if kind is DesignKind.RANDOMIZE_SCHOOLS:
        treated = (_ranks(u) < len(m) // 2)[..., None]
    elif kind is DesignKind.RANDOMIZE_WITHIN_SCHOOLS:
        treated = _ranks(_school_keys(u, np.cumsum(m) - m, m, m.max())) < m[:, None] // 2
    else:
        treated = np.zeros(u.shape[:-1] + real.shape, dtype=bool)
        treated[..., real] = _ranks(u) < m.sum() // 2
    return np.where(real, np.where(treated, 1.0, -1.0), 0.0)


def _teacher_traces(m: int, vc: TeacherVarianceComponents) -> tuple[float, float]:
    """(t_J, w) of the teacher precision (sigma_v2 J + sigma_eps2 I)^-1 of m teachers:
    m/(sigma_eps2 + m sigma_v2) and m(m-1)/sigma_eps2."""
    vc.check_invertible()
    return m / (vc.sigma_eps2 + m * vc.sigma_v2), m * (m - 1) / vc.sigma_eps2


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


def draw_contamination(
    assignment: TreatmentAssignment,
    q: float,
    rng: np.random.Generator,
    kind: DesignKind | None = None,
) -> TreatmentAssignment:
    """Attach Bernoulli contamination indicators to control teachers.

    Within school i every control teacher independently contaminates with
    probability (1'R_i + m_i)*q/m_i.  Treated teachers never contaminate.
    """
    validate_contamination(kind, q)
    r = assignment.r
    signs = _padded(r, (max(ri.size for ri in r),))
    flags = _contamination_flags(signs, q, rng.random(sum(ri.size for ri in r)))
    return TreatmentAssignment(r=r, c=tuple(f[: ri.size] for f, ri in zip(flags, r)))


def _contamination_flags(signs: np.ndarray, q: float, u: np.ndarray) -> np.ndarray:
    """0/1 contamination flags for (..., a, max m) signs (0 marks a padded
    slot) from one uniform per teacher (..., sum m), school by school: a
    control teacher contaminates when its uniform is below the probability."""
    real, controls = signs != 0.0, signs == -1.0
    m = real.sum(axis=-1)
    prob = (signs.sum(axis=-1) + m) * q / m
    drawn = prob[controls.any(axis=-1)]  # an all-treated school has nobody to contaminate
    if np.any(drawn > 1.0 + 1e-12):
        raise ValueError(f"q={q} gives a contamination probability of {drawn.max():g} > 1")
    keys = np.ones(signs.shape)
    keys[real] = u.ravel()
    return (controls & (keys < np.minimum(prob, 1.0)[..., None])).astype(float)


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


def contaminated_expected_moment_matrix(
    g: np.ndarray, kind: DesignKind, q: float
) -> tuple[np.ndarray, float]:
    """Expected moment matrix E[X' G X] under within-school contamination.

    For the three-column model X = [1 R C] with design-2 randomization the
    expectation depends on G only through t_J = tr(G J), t_C = tr(G Cov(R))
    and t_G = tr(G):

        E = [[t_J,        0,          (q/2) t_J ],
             [0,          t_C,       -(q/2) t_C ],
             [(q/2) t_J, -(q/2) t_C,  (q^2/4)(t_J + t_C) + (q(1-q)/2) t_G]]

    Returns E together with the treatment entry of its inverse,
    (1/t_C) * (1 + q/(2(1-q)) * t_C/t_G), the anticipated variance of the
    treatment coefficient per school.
    """
    if kind is not DesignKind.RANDOMIZE_WITHIN_SCHOOLS:
        raise ValueError("the closed-form moment matrix is available for within_schools only")
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
