"""Covariance and information matrices for the teacher and student mixed models.

Two response levels share one treatment coding: teacher j at school i carries
an indicator r_ij = +1 (experimental) or -1 (control).  The teacher response
has a school random effect and a teacher residual, giving the compound
symmetry covariance sigma_v2*J + sigma_eps2*I per school.  The student
response depends on the set of teachers each student takes courses from
(an n x m count matrix D per school), giving the multiple-membership
covariance sigma_s2*J + sigma_t2*D D' + sigma_eta2*I.

All operations here are pure functions of their arguments; the values are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

INTERCEPT = "intercept"
TREATMENT = "treatment"
CONTAMINATION = "contamination"

#: relative tolerance for declaring an information matrix asymmetric
SYMMETRY_RTOL = 1e-12
#: eigenvalues below -SINGULAR_RTOL * spectral norm fail the PSD check, and
#: treatment pivots below +SINGULAR_RTOL * spectral norm are non-estimable
SINGULAR_RTOL = 1e-10


class NonEstimableError(Exception):
    """The treatment direction of an information matrix is singular."""


class TreatmentVariance(NamedTuple):
    """Treatment-coefficient variance plus the +-1-coded difference scale.

    With +-1 treatment coding the experimental-minus-control contrast is
    twice the coefficient, so its standard error is 2*sqrt(variance).
    """

    variance: float
    se_diff: float


@dataclass(frozen=True)
class TeacherVarianceComponents:
    """Variance components of the teacher model: school effect and residual.

    sigma_eps2 = 0 is representable (response generation stays exact) but
    every covariance inversion requires it to be positive; check_invertible
    says so.
    """

    sigma_v2: float
    sigma_eps2: float

    def __post_init__(self):
        if not (self.sigma_v2 >= 0.0):
            raise ValueError(f"sigma_v2 must be >= 0, got {self.sigma_v2}")
        if not (self.sigma_eps2 >= 0.0):
            raise ValueError(f"sigma_eps2 must be >= 0, got {self.sigma_eps2}")

    def check_invertible(self) -> None:
        if self.sigma_eps2 <= 0.0:
            raise np.linalg.LinAlgError("teacher covariance is singular when sigma_eps2 = 0")

    @property
    def rho(self) -> float:
        """Intraclass correlation sigma_v2 / (sigma_v2 + sigma_eps2)."""
        total = self.sigma_v2 + self.sigma_eps2
        return self.sigma_v2 / total if total > 0.0 else 0.0


@dataclass(frozen=True)
class StudentVarianceComponents:
    """Variance components of the student model: school, teacher, residual.

    sigma_eta2 = 0 is representable but makes the covariance a low-rank
    matrix; check_invertible signals the singularity.
    """

    sigma_s2: float
    sigma_t2: float
    sigma_eta2: float

    def __post_init__(self):
        if not (self.sigma_s2 >= 0.0):
            raise ValueError(f"sigma_s2 must be >= 0, got {self.sigma_s2}")
        if not (self.sigma_t2 >= 0.0):
            raise ValueError(f"sigma_t2 must be >= 0, got {self.sigma_t2}")
        if not (self.sigma_eta2 >= 0.0):
            raise ValueError(f"sigma_eta2 must be >= 0, got {self.sigma_eta2}")

    def check_invertible(self) -> None:
        if self.sigma_eta2 <= 0.0:
            raise np.linalg.LinAlgError("student covariance is singular when sigma_eta2 = 0")


def _as_count_tuple(value, a: int, name: str) -> tuple[int, ...]:
    if np.isscalar(value):
        counts = (int(value),) * a
    else:
        counts = tuple(int(v) for v in value)
    if len(counts) != a:
        raise ValueError(f"{name} must have one entry per school ({a}), got {len(counts)}")
    if any(v < 1 for v in counts):
        raise ValueError(f"every entry of {name} must be >= 1")
    return counts


@dataclass(frozen=True)
class StudyLayout:
    """Number of schools plus per-school teacher and student counts.

    ``m`` and ``n`` accept either a single int (the same count at every
    school) or one count per school.
    """

    a: int
    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if self.a < 2:
            raise ValueError(f"need at least 2 schools, got {self.a}")
        object.__setattr__(self, "m", _as_count_tuple(self.m, self.a, "m"))
        object.__setattr__(self, "n", _as_count_tuple(self.n, self.a, "n"))

    @property
    def total_teachers(self) -> int:
        return sum(self.m)

    def homogeneous_m(self) -> int:
        """The common teacher count, or ValueError when schools differ."""
        if len(set(self.m)) != 1:
            raise ValueError(f"teacher counts differ across schools: {self.m}")
        return self.m[0]


@dataclass(frozen=True, eq=False)
class TreatmentAssignment:
    """Per-school +-1 treatment sequences, optionally with contamination flags.

    ``c[i][j] == 1`` marks a contaminated control teacher; only control
    teachers (``r == -1``) may contaminate.
    """

    r: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        r = tuple(np.asarray(ri, dtype=float) for ri in self.r)
        for ri in r:
            if ri.ndim != 1 or ri.size < 1:
                raise ValueError("each school needs a 1-D treatment sequence")
            if not np.all(np.abs(ri) == 1.0):
                raise ValueError("treatment indicators must be +1 or -1")
        object.__setattr__(self, "r", r)
        if self.c is not None:
            c = tuple(np.asarray(ci, dtype=float) for ci in self.c)
            if len(c) != len(r):
                raise ValueError("contamination needs one sequence per school")
            for ri, ci in zip(r, c):
                if ci.shape != ri.shape:
                    raise ValueError("contamination shape must match treatment shape")
                if not np.all((ci == 0.0) | (ci == 1.0)):
                    raise ValueError("contamination indicators must be 0 or 1")
                if np.any((ci == 1.0) & (ri == 1.0)):
                    raise ValueError("only control teachers can be contaminated")
            object.__setattr__(self, "c", c)

    @property
    def a(self) -> int:
        return len(self.r)


@dataclass(frozen=True, eq=False)
class InformationMatrix:
    """Symmetric PSD information matrix with named parameter columns."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"information matrix must be square, got {entries.shape}")
        if len(self.labels) != entries.shape[0]:
            raise ValueError("one label per parameter is required")
        scale = float(np.abs(entries).max()) if entries.size else 0.0
        asym = float(np.abs(entries - entries.T).max())
        if asym > SYMMETRY_RTOL * max(scale, 1.0):
            raise ValueError(f"information matrix is asymmetric (max deviation {asym:g})")
        eigs = np.linalg.eigvalsh(entries)
        spectral = float(np.abs(eigs).max()) if eigs.size else 0.0
        if eigs.size and eigs.min() < -SINGULAR_RTOL * spectral:
            raise ValueError(f"information matrix is not PSD (min eigenvalue {eigs.min():g})")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def treatment_index(self) -> int:
        return self.labels.index(TREATMENT)


def _column_labels(p: int) -> tuple[str, ...]:
    if p == 2:
        return (INTERCEPT, TREATMENT)
    if p == 3:
        return (INTERCEPT, TREATMENT, CONTAMINATION)
    raise ValueError(f"design matrices must have 2 or 3 columns, got {p}")


def design_matrices(assignment: TreatmentAssignment) -> list[np.ndarray]:
    """Per-school fixed-effect matrices [1 r] or [1 r c] from an assignment."""
    xs = []
    for i, ri in enumerate(assignment.r):
        cols = [np.ones_like(ri), ri]
        if assignment.c is not None:
            cols.append(assignment.c[i])
        xs.append(np.column_stack(cols))
    return xs


def teacher_precision(m: int, vc: TeacherVarianceComponents) -> np.ndarray:
    """Per-school teacher precision G_i, the closed-form inverse covariance.

    (sigma_v2*J + sigma_eps2*I)^-1
        = I/sigma_eps2 - sigma_v2 / (sigma_eps2*(sigma_eps2 + sigma_v2*m)) * J
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    vc.check_invertible()
    shrink = vc.sigma_v2 / (vc.sigma_eps2 * (vc.sigma_eps2 + vc.sigma_v2 * m))
    return np.eye(m) / vc.sigma_eps2 - shrink * np.ones((m, m))


def solve_student_system(
    d: np.ndarray, vc: StudentVarianceComponents, rhs: np.ndarray
) -> np.ndarray:
    """Apply the inverse student covariance to ``rhs`` without forming it.

    The covariance is sigma_eta2*I plus a rank-(m+1) term W W' with
    W = [sqrt(sigma_s2)*1, sqrt(sigma_t2)*D], so
        Sigma^-1 rhs = (rhs - W K^-1 W' rhs) / sigma_eta2,
    where K = sigma_eta2*I + W'W is the (m+1)-dimensional capacitance
    system.  Cost is O(n*m^2) instead of the O(n^3) dense solve.
    """
    d = np.asarray(d, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    vc.check_invertible()
    n = d.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    cols = []
    if vc.sigma_s2 > 0.0:
        cols.append(np.full((n, 1), np.sqrt(vc.sigma_s2)))
    if vc.sigma_t2 > 0.0:
        cols.append(np.sqrt(vc.sigma_t2) * d)
    if not cols:
        return rhs / vc.sigma_eta2
    w = np.hstack(cols)
    k = vc.sigma_eta2 * np.eye(w.shape[1]) + w.T @ w
    factor = cho_factor(k, lower=True)
    return (rhs - w @ cho_solve(factor, w.T @ rhs)) / vc.sigma_eta2


def student_precision(d: np.ndarray, vc: StudentVarianceComponents) -> np.ndarray:
    """Per-school student precision G_i = D_i' Sigma_i^-1 D_i (m_i x m_i)."""
    d = np.asarray(d, dtype=float)
    return d.T @ solve_student_system(d, vc, d)


def _information(xs: Sequence[np.ndarray], gs: Sequence[np.ndarray]) -> InformationMatrix:
    """Sum of X_i' G_i X_i over schools, one m_i x m_i precision G_i each.

    Each X_i is the m_i x p fixed-effect matrix for one school
    (intercept, treatment, optional contamination).
    """
    if not xs:
        raise ValueError("need at least one school")
    if len(xs) != len(gs):
        raise ValueError(f"{len(xs)} design matrices but {len(gs)} school precisions")
    p = xs[0].shape[1] if xs[0].ndim == 2 else 0
    labels = _column_labels(p)
    info = np.zeros((p, p))
    for x, g in zip(xs, gs):
        if x.ndim != 2 or x.shape[1] != p:
            raise ValueError(f"school design matrix has shape {x.shape}, expected (m_i, {p})")
        if g.shape != (x.shape[0], x.shape[0]):
            raise ValueError(
                f"school precision is {g.shape} but design matrix has {x.shape[0]} rows"
            )
        info += x.T @ (g @ x)
    return InformationMatrix(0.5 * (info + info.T), labels)


def teacher_information(
    xs: Sequence[np.ndarray], vc: TeacherVarianceComponents
) -> InformationMatrix:
    """Sum of X_i' V_i^-1 X_i over schools, via the closed-form precision."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    return _information(xs, [teacher_precision(len(x), vc) for x in xs])


def student_information(
    xs: Sequence[np.ndarray],
    d: Sequence[np.ndarray],
    vc: StudentVarianceComponents,
) -> InformationMatrix:
    """Sum of X_i' D_i' Sigma_i^-1 D_i X_i over schools."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    return _information(xs, [student_precision(di, vc) for di in d])


def _treatment_pivot(entries: np.ndarray, index: int) -> float:
    """Schur-complement pivot of direction ``index`` after eliminating the others.

    Raises NonEstimableError when the pivot falls below ``SINGULAR_RTOL``
    times the spectral norm, which covers singular information matrices and
    directions absorbed by collinear columns.
    """
    p = entries.shape[0]
    if not 0 <= index < p:
        raise ValueError(f"index {index} out of range for {p} parameters")
    eigs = np.linalg.eigvalsh(entries)
    spectral = float(np.abs(eigs).max()) if eigs.size else 0.0
    others = [j for j in range(p) if j != index]
    if others:
        block = entries[np.ix_(others, others)]
        b = entries[others, index]
        solved, *_ = np.linalg.lstsq(block, b, rcond=None)
        pivot = float(entries[index, index] - b @ solved)
    else:
        pivot = float(entries[index, index])
    if pivot <= SINGULAR_RTOL * spectral:
        raise NonEstimableError(
            f"treatment pivot {pivot:g} below threshold {SINGULAR_RTOL * spectral:g}"
        )
    return pivot


def treatment_variance(info, index: int | None = None) -> TreatmentVariance:
    """Variance of the treatment coefficient implied by an information matrix.

    Returns the (index, index) entry of the inverse information, computed as
    the reciprocal pivot of the treatment direction after eliminating the
    other parameters.  ``index`` is 0-based and defaults to the column
    labelled "treatment".  Raises NonEstimableError when the treatment
    direction is singular.
    """
    if isinstance(info, InformationMatrix):
        entries = info.entries
        if index is None:
            index = info.treatment_index
    else:
        entries = np.asarray(info, dtype=float)
        if index is None:
            raise ValueError("index is required for a plain matrix")
        scale = float(np.abs(entries).max()) if entries.size else 0.0
        if float(np.abs(entries - entries.T).max()) > SYMMETRY_RTOL * max(scale, 1.0):
            raise ValueError("information matrix must be symmetric")
    variance = 1.0 / _treatment_pivot(entries, index)
    return TreatmentVariance(variance, 2.0 * np.sqrt(variance))
