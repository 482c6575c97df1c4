"""Covariance and information matrices for the teacher and student mixed models.

Two response levels share one treatment coding: teacher j at school i carries
an indicator r_ij = +1 (experimental) or -1 (control).  The teacher response
has a school random effect and a teacher residual, giving the compound
symmetry covariance sigma_v2*J + sigma_eps2*I per school.  The student
response depends on the set of teachers each student takes courses from
(an n x m count matrix D per school), giving the multiple-membership
covariance sigma_s2*J + sigma_t2*D D' + sigma_eta2*I.

All operations here are pure functions of their arguments; the values are
immutable after construction and safe to share across workers.  The linear
algebra kernels (the student solve, the per-school precisions, the
information sum and the treatment pivot) take stacked arrays, so one call
covers every school of a shape or every replicate of a run; the public
entry points call them with a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

INTERCEPT = "intercept"
TREATMENT = "treatment"
CONTAMINATION = "contamination"
#: column of the treatment indicator in every design matrix
TREATMENT_COLUMN = 1

#: relative tolerance for declaring an information matrix asymmetric
SYMMETRY_RTOL = 1e-12
#: eigenvalues below -SINGULAR_RTOL * spectral norm fail the PSD check, and
#: treatment pivots below +SINGULAR_RTOL * spectral norm are non-estimable
SINGULAR_RTOL = 1e-10
#: a 2x2 block with determinant <= _RANK_RTOL * trace^2 counts as rank-deficient,
#: about where least squares' default cutoff (eps times the size) drops a
#: singular value
_RANK_RTOL = 2.0 * np.finfo(float).eps


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


def _check_symmetric(entries: np.ndarray) -> None:
    """Raise ValueError when a matrix is asymmetric beyond SYMMETRY_RTOL."""
    scale = float(np.abs(entries).max()) if entries.size else 0.0
    asym = float(np.abs(entries - entries.T).max())
    if asym > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"information matrix is asymmetric (max deviation {asym:g})")


def _spectral_norm(entries: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices, after the PSD check.

    Raises ValueError when any matrix has an eigenvalue below -SINGULAR_RTOL
    times its spectral norm.
    """
    eigs = np.linalg.eigvalsh(entries)
    spectral = np.abs(eigs).max(axis=-1, initial=0.0)
    lowest = eigs.min(axis=-1, initial=0.0)
    bad = lowest < -SINGULAR_RTOL * spectral
    if np.any(bad):
        raise ValueError(f"information matrix is not PSD (min eigenvalue {lowest[bad].min():g})")
    return spectral


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
        _check_symmetric(entries)
        _spectral_norm(entries)
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

    ``d`` is n x m and ``rhs`` n x k, or stacks of them, (..., n, m) and
    (..., n, k): every stacked system, one school each, is solved by one
    batched call.
    """
    d = np.asarray(d, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    vc.check_invertible()
    n = d.shape[-2]
    if rhs.ndim != d.ndim or rhs.shape[-2] != n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected (..., {n}, k) to match D {d.shape}")
    cols = []
    if vc.sigma_s2 > 0.0:
        cols.append(np.full(d.shape[:-1] + (1,), np.sqrt(vc.sigma_s2)))
    if vc.sigma_t2 > 0.0:
        cols.append(np.sqrt(vc.sigma_t2) * d)
    if not cols:
        return rhs / vc.sigma_eta2
    w = np.concatenate(cols, axis=-1)
    w_t = np.swapaxes(w, -1, -2)
    k = vc.sigma_eta2 * np.eye(w.shape[-1]) + w_t @ w
    return (rhs - w @ np.linalg.solve(k, w_t @ rhs)) / vc.sigma_eta2


def student_precision(d: np.ndarray, vc: StudentVarianceComponents) -> np.ndarray:
    """Per-school student precision G_i = D_i' Sigma_i^-1 D_i (m_i x m_i).

    A stack of D matrices (..., n, m) gives the stack of precisions.
    """
    d = np.asarray(d, dtype=float)
    return np.swapaxes(d, -1, -2) @ solve_student_system(d, vc, d)


def _information(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum of X_i' G_i X_i over a stack of schools that share a shape.

    ``x`` is (..., k, m, p), k schools' fixed-effect matrices (intercept,
    treatment, optional contamination), and ``g`` their (..., k, m, m)
    precisions or one m x m precision shared by all; returns the symmetric
    (..., p, p) sum.
    """
    info = np.einsum("...kip,...kiq->...pq", x, g @ x)
    return 0.5 * (info + np.swapaxes(info, -1, -2))


def _group_schools(*per_school: Sequence[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
    """Stack the schools whose arrays share their shapes.

    Takes parallel per-school sequences (for example X_i and D_i) and returns
    one tuple of stacks per distinct combination of shapes, in order of first
    appearance: a layout with one school shape gives one group.
    """
    groups: dict[tuple, list[tuple[np.ndarray, ...]]] = {}
    for arrays in zip(*per_school):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(arrays)
    return [tuple(np.stack(column) for column in zip(*members)) for members in groups.values()]


def _check_schools(xs: Sequence[np.ndarray], ds: Sequence[np.ndarray] | None = None) -> int:
    """Validate per-school design (and count) matrices; returns the column count p."""
    if not xs:
        raise ValueError("need at least one school")
    p = xs[0].shape[1] if xs[0].ndim == 2 else 0
    _column_labels(p)
    for x in xs:
        if x.ndim != 2 or x.shape[1] != p:
            raise ValueError(f"school design matrix has shape {x.shape}, expected (m_i, {p})")
    if ds is not None:
        if len(ds) != len(xs):
            raise ValueError(f"{len(xs)} design matrices but {len(ds)} count matrices")
        for x, d in zip(xs, ds):
            if d.ndim != 2 or d.shape[1] != x.shape[0]:
                raise ValueError(
                    f"count matrix has shape {d.shape} but design matrix has {x.shape[0]} rows"
                )
    return p


def teacher_information(
    xs: Sequence[np.ndarray], vc: TeacherVarianceComponents
) -> InformationMatrix:
    """Sum of X_i' V_i^-1 X_i over schools, via the closed-form precision."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    p = _check_schools(xs)
    info = sum(_information(x, teacher_precision(x.shape[1], vc)) for (x,) in _group_schools(xs))
    return InformationMatrix(info, _column_labels(p))


def student_information(
    xs: Sequence[np.ndarray],
    d: Sequence[np.ndarray],
    vc: StudentVarianceComponents,
) -> InformationMatrix:
    """Sum of X_i' D_i' Sigma_i^-1 D_i X_i over schools."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    ds = [np.asarray(di, dtype=float) for di in d]
    p = _check_schools(xs, ds)
    info = sum(_information(x, student_precision(dg, vc)) for x, dg in _group_schools(xs, ds))
    return InformationMatrix(info, _column_labels(p))


def _explained(block: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b' block^+ b for a stack of symmetric PSD blocks of size 0, 1 or 2.

    The pseudo-inverse drops a direction that least squares would cut, so a
    singular other direction (an all-zero contamination column) is fitted
    the way lstsq fits it.
    """
    size = block.shape[-1]
    if size == 0:
        return np.zeros(block.shape[:-2])
    if size == 1:
        a, b0 = block[..., 0, 0], b[..., 0]
        return b0 * np.divide(b0, a, out=np.zeros_like(a), where=a != 0.0)
    a, c, e = block[..., 0, 0], block[..., 0, 1], block[..., 1, 1]
    b0, b1 = b[..., 0], b[..., 1]
    det = a * e - c * c
    trace = a + e
    full = det > _RANK_RTOL * trace * trace
    solved0 = (e * b0 - c * b1) / np.where(full, det, 1.0)
    solved1 = (a * b1 - c * b0) / np.where(full, det, 1.0)
    # a rank-1 block is trace * v v', so its pseudo-inverse is block / trace^2
    quad = b0 * (a * b0 + c * b1) + b1 * (c * b0 + e * b1)
    rank1 = np.divide(quad, trace * trace, out=np.zeros_like(quad), where=trace > 0.0)
    return np.where(full, b0 * solved0 + b1 * solved1, rank1)


def _treatment_pivot(entries: np.ndarray, index: int) -> np.ndarray:
    """Schur-complement pivot of direction ``index`` after eliminating the others.

    ``entries`` is one p x p information matrix or a stack (..., p, p) with
    p <= 3; the others block is eliminated in closed form.  One eigvalsh per
    matrix serves the PSD check (ValueError) and the threshold: a pivot at
    or below ``SINGULAR_RTOL`` times the spectral norm, which covers singular
    information matrices and directions absorbed by collinear columns, is
    returned as NaN.
    """
    entries = np.asarray(entries, dtype=float)
    p = entries.shape[-1]
    if not 0 <= index < p:
        raise ValueError(f"index {index} out of range for {p} parameters")
    if p > 3:
        raise ValueError(f"the treatment pivot takes at most 3 parameters, got {p}")
    spectral = _spectral_norm(entries)
    others = [j for j in range(p) if j != index]
    block = entries[..., others, :][..., others]
    pivot = entries[..., index, index] - _explained(block, entries[..., others, index])
    return np.where(pivot > SINGULAR_RTOL * spectral, pivot, np.nan)


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
        _check_symmetric(entries)
    pivot = float(_treatment_pivot(entries, index))
    if np.isnan(pivot):
        raise NonEstimableError("the treatment direction of the information matrix is singular")
    variance = 1.0 / pivot
    return TreatmentVariance(variance, 2.0 * np.sqrt(variance))
