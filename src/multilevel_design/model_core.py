"""Covariance and information matrices for the teacher and student mixed models.

Two response levels share one treatment coding: teacher j at school i carries
an indicator r_ij = +1 (experimental) or -1 (control).  The teacher response
has a school random effect and a teacher residual, giving the compound
symmetry covariance sigma_v2*J + sigma_eps2*I per school.  The student
response depends on the set of teachers each student takes courses from
(an n x m count matrix D per school), giving the multiple-membership
covariance sigma_s2*J + sigma_t2*D D' + sigma_eta2*I.

All operations here are pure functions of their arguments, and the values
are immutable after construction.  The linear algebra kernels (the student
precision from a school's Gram, the information sum and the treatment
pivot) take stacked arrays, so one call covers every school of a chunk of
replicates; a school with fewer teachers is padded with idle teachers whose
design and precision rows are zero.  Both levels' information sums,
sum_i X_i' (G_i X_i), come from one routine (_information): one matmul of
every school's rows laid end to end, which also carries a GLS right side
sum_i X_i' z_i as an extra column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

#: column of the treatment indicator in every design matrix [1 r] or [1 r c]
TREATMENT_COLUMN = 1

#: relative tolerance for declaring a matrix asymmetric
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


class FieldError(ValueError):
    """A value check failed; ``field`` names the run-config field it reads,
    for example ``q``, ``designs``, ``assignment.c`` or ``teacher_vc.sigma_eps2``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class SingularCovarianceError(FieldError, np.linalg.LinAlgError):
    """The residual that every covariance inversion divides by is 0 or too small."""


#: admissible [low, high) of every integer field
_INTEGER_RANGES = {
    "schools": (2, 2**16),
    "teachers_per_school": (1, 2**16),
    "students_per_school": (1, 2**24),
    "assignment.c": (1, 2**10),
    "replicates": (1, 2**22),
    "seed": (0, 2**64),
}


def check_integer(value, field: str) -> int:
    """``value`` as an int; FieldError unless it is an integer (not a bool or
    a float such as 2.5) in the field's range."""
    low, high = _INTEGER_RANGES[field]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FieldError(field, f"{field} must be an integer, got {value!r}")
    if not low <= value < high:
        raise FieldError(field, f"{field} must be in [{low}, {high}), got {value}")
    return int(value)


class TreatmentVariance(NamedTuple):
    """Treatment-coefficient variance plus the +-1-coded difference scale.

    With +-1 treatment coding the experimental-minus-control contrast is
    twice the coefficient, so its standard error is 2*sqrt(variance).
    """

    variance: float
    se_diff: float


class _LevelComponents:
    """A level's variance components, each >= 0, whose FieldErrors name
    ``BLOCK``, its run-config key.  Every covariance inversion divides by
    ``RESIDUAL``: 0 is representable, and the level's one guard, check, refuses it."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value >= 0.0:
                raise FieldError(self.field(name), f"{name} must be >= 0, got {value}")

    @classmethod
    def field(cls, name: str | None = None) -> str:
        """The run-config key of component ``name``, by default the residual's."""
        return f"{cls.BLOCK}.{name or cls.RESIDUAL}"

    @classmethod
    def check(cls, vc, m: int = 0, n: int = 0, c: int = 0) -> None:
        """The level's one guard: a TypeError unless ``vc`` holds this level's
        components, a SingularCovarianceError unless the residual is > 0 with
        a finite reciprocal, then a FieldError naming the largest component
        when the level's kernel (see check_levels) overflows at (m, n, c)."""
        if not isinstance(vc, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(vc).__name__}")
        value = float(getattr(vc, cls.RESIDUAL))
        if not value > 0.0 or 1.0 / value == math.inf:
            message = f"{cls.RESIDUAL} must be > 0 with a finite reciprocal, got {value:g}"
            raise SingularCovarianceError(cls.field(), message)
        if vc._kernel(m, n, c) == math.inf:
            name, value = max(vars(vc).items(), key=lambda item: item[1])
            raise FieldError(cls.field(name), f"{name} = {value:g} overflows the covariance")


@dataclass(frozen=True)
class TeacherVarianceComponents(_LevelComponents):
    """Variance components of the teacher model: school effect and residual."""

    BLOCK, RESIDUAL = "teacher_vc", "sigma_eps2"

    sigma_v2: float
    sigma_eps2: float

    @property
    def rho(self) -> float:
        """Intraclass correlation sigma_v2 / (sigma_v2 + sigma_eps2)."""
        total = self.sigma_v2 + self.sigma_eps2
        return self.sigma_v2 / total if total > 0.0 else 0.0

    def _kernel(self, m: int, n: int, c: int) -> float:
        """sigma_eps2 + m sigma_v2, the largest eigenvalue of the covariance."""
        return self.sigma_eps2 + m * self.sigma_v2


@dataclass(frozen=True)
class StudentVarianceComponents(_LevelComponents):
    """Variance components of the student model: school, teacher, residual."""

    BLOCK, RESIDUAL = "student_vc", "sigma_eta2"

    sigma_s2: float
    sigma_t2: float
    sigma_eta2: float

    def _kernel(self, m: int, n: int, c: int) -> float:
        """sigma_eta2 + n (sigma_s2 + c^2 sigma_t2), a bound on _gram_precision's K."""
        return self.sigma_eta2 + n * (self.sigma_s2 + c * c * self.sigma_t2)


def per_school(value, a: int, field: str) -> tuple[int, ...]:
    """A count for each of ``a`` schools from one integer or a sequence of them."""
    counts = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else (value,) * a
    if len(counts) != a:
        raise FieldError(
            field, f"{field} must have one entry per school ({a}), got {len(counts)}"
        )
    return tuple(check_integer(v, field) for v in counts)


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
        object.__setattr__(self, "a", check_integer(self.a, "schools"))
        object.__setattr__(self, "m", per_school(self.m, self.a, "teachers_per_school"))
        object.__setattr__(self, "n", per_school(self.n, self.a, "students_per_school"))

    def homogeneous_m(self) -> int:
        """The common teacher count, or a FieldError when schools differ."""
        if len(set(self.m)) != 1:
            raise FieldError(
                "teachers_per_school", f"teacher counts differ across schools: {self.m}"
            )
        return self.m[0]


def check_levels(layout: StudyLayout, c: int, t, s) -> None:
    """The guard of the teacher components ``t`` and of the student's ``s``,
    each with its kernel at the layout's largest m and n."""
    m, n = max(layout.m), max(layout.n)
    TeacherVarianceComponents.check(t, m)
    StudentVarianceComponents.check(s, m, n, c)


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


def _check_symmetric(entries: np.ndarray) -> None:
    """Raise ValueError when a matrix is asymmetric beyond SYMMETRY_RTOL."""
    scale = float(np.abs(entries).max()) if entries.size else 0.0
    asym = float(np.abs(entries - entries.T).max())
    if asym > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is asymmetric (max deviation {asym:g})")


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
    """Per-school teacher precision G_i, the closed-form inverse covariance,
    from t_J = tr(G J) of _teacher_traces and without a product of two components:

    (sigma_v2*J + sigma_eps2*I)^-1 = (I - J/m)/sigma_eps2 + (t_J/m^2)*J
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    t_j, _ = _teacher_traces(m, vc)
    return (np.eye(m) - 1.0 / m) / vc.sigma_eps2 + t_j / m**2


def _teacher_traces(m: int, vc: TeacherVarianceComponents) -> tuple[float, float]:
    """(t_J, w) of the teacher precision (sigma_v2 J + sigma_eps2 I)^-1 of m teachers:
    m/(sigma_eps2 + m sigma_v2) and m(m-1)/sigma_eps2."""
    TeacherVarianceComponents.check(vc)
    return m / (vc.sigma_eps2 + m * vc.sigma_v2), m * (m - 1) / vc.sigma_eps2


def _gram_precision(gram: np.ndarray, vc: StudentVarianceComponents) -> np.ndarray:
    """D' Sigma^-1 [D rhs], (..., m, m+k), from the Gram A'[A rhs] of A = [1 D].

    Sigma = sigma_eta2*I + W W' with W = A S, S = diag(sqrt(sigma_s2),
    sqrt(sigma_t2), ...), so by Woodbury D' Sigma^-1 [D rhs] =
    (D'[D rhs] - (W'D)' K^-1 W'[D rhs]) / sigma_eta2, K = sigma_eta2*I + W'W:
    blocks of the Gram scaled by S.  A zero component zeroes a row and
    leaves K positive definite; an idle teacher gets an exactly zero row.
    The first m columns, G, are symmetrized for every caller.
    """
    StudentVarianceComponents.check(vc)
    m = gram.shape[-2] - 1
    scale = np.sqrt([vc.sigma_s2] + [vc.sigma_t2] * m)
    w_t = scale[:, None] * gram
    k = vc.sigma_eta2 * np.eye(m + 1) + w_t[..., : m + 1] * scale
    w_d = np.swapaxes(w_t[..., 1 : m + 1], -1, -2)
    try:
        g_z = (gram[..., 1:, 1:] - w_d @ np.linalg.solve(k, w_t[..., 1:])) / vc.sigma_eta2
    except np.linalg.LinAlgError as err:  # K singular in floating point
        raise SingularCovarianceError(
            StudentVarianceComponents.field(),
            f"sigma_eta2 = {vc.sigma_eta2} is too small next to sigma_s2 and sigma_t2: "
            "the student covariance is numerically singular",
        ) from err
    g_z[..., :m] = _symmetric(g_z[..., :m])
    return g_z


def _symmetric(g: np.ndarray) -> np.ndarray:
    """0.5 * (G + G'): the solve leaves G asymmetric in its last digits."""
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _gram(d: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """A'[A rhs] with A = [1 D] for one school or a stack, (..., m+1, m+1+k)."""
    a = np.concatenate([np.ones(d.shape[:-1] + (1,)), d], axis=-1)
    return np.swapaxes(a, -1, -2) @ (a if rhs is None else np.concatenate([a, rhs], axis=-1))


def student_precision(d: np.ndarray, vc: StudentVarianceComponents) -> np.ndarray:
    """Per-school student precision G_i = D_i' Sigma_i^-1 D_i (m_i x m_i), from
    the Gram of [1 D]; a stack of D (..., n, m) gives a stack."""
    d = np.asarray(d, dtype=float)
    if d.ndim < 2:
        raise ValueError(f"count matrices must be (..., n, m), got shape {d.shape}")
    return _gram_precision(_gram(d), vc)


def _teacher_precisions(m: Sequence[int], vc: TeacherVarianceComponents) -> np.ndarray:
    """The per-school teacher precisions of a layout padded into one
    (a, max m, max m) stack; rows and columns beyond m_i are zero."""
    gs = {m_i: teacher_precision(m_i, vc) for m_i in set(m)}
    return _padded([gs[m_i] for m_i in m], (max(m),) * 2)


def _padded(arrays: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Per-school arrays stacked top-left into zeros of one common shape."""
    out = np.zeros((len(arrays),) + tuple(shape))
    for k, arr in enumerate(arrays):
        out[(k,) + tuple(slice(0, s) for s in arr.shape)] = arr
    return out


def _information(x: np.ndarray, g: np.ndarray, z: np.ndarray | None = None):
    """Sum of X_i' G_i X_i over a stack of schools and, given ``z``, the GLS
    right side sum X_i' z_i: one matmul of the schools' rows laid end to end.

    ``x`` is (..., k, m, p), k schools' fixed-effect matrices (intercept,
    treatment, optional contamination) with zero rows for idle padded
    teachers, read as floats, ``g`` their (..., k, m, m) precisions and
    ``z`` (..., k, m).  Returns the symmetric (..., p, p) information, or
    it and the (..., p) right side, a column of [G X | z]: alone, it would
    take BLAS's matrix-vector path, which sums in another order.
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[-1]
    y = g @ x if z is None else np.concatenate([g @ x, z[..., None]], axis=-1)
    rows_x = x.reshape(x.shape[:-3] + (-1, p))
    terms = np.swapaxes(rows_x, -1, -2) @ y.reshape(y.shape[:-3] + (-1, y.shape[-1]))
    info = _symmetric(terms[..., :p])
    return info if z is None else (info, terms[..., p])


def _school_stack(xs, vc, ds=None, ys=None) -> tuple[np.ndarray, ...]:
    """Every school's X_i, precision G_i and, given responses, z_i (G_i T_i
    or D_i' Sigma_i^-1 Y_i), validated and padded to the largest school:
    (x, g, z).  Without ``ds`` the level is the teacher's, with them the
    student's, whose terms come from the Gram of [1 D y]."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    ds = None if ds is None else [np.asarray(d, dtype=float) for d in ds]
    if not xs:
        raise ValueError("need at least one school")
    p = xs[0].shape[1] if xs[0].ndim == 2 else 0
    if p not in (2, 3):
        raise ValueError(f"design matrices must have 2 or 3 columns, got {p}")
    for x in xs:
        if x.ndim != 2 or x.shape[1] != p:
            raise ValueError(f"school design matrix has shape {x.shape}, expected (m_i, {p})")
    if ds is not None and len(ds) != len(xs):
        raise ValueError(f"{len(xs)} design matrices but {len(ds)} count matrices")
    for x, d in zip(xs, ds or ()):
        if d.ndim != 2 or d.shape[1] != x.shape[0]:
            raise ValueError(f"count matrix has shape {d.shape}; design matrix has {len(x)} rows")
    if ys is not None and [np.shape(y) for y in ys] != [(len(b),) for b in ds or xs]:
        raise ValueError("one response per teacher (or per student) of every school is required")
    m, n = max(len(x) for x in xs), max(len(b) for b in ds or xs)
    x, y = _padded(xs, (m, p)), None if ys is None else _padded(ys, (n,))
    if ds is None:
        g = _teacher_precisions([len(x_i) for x_i in xs], vc)
        return x, g, None if y is None else np.einsum("kij,kj->ki", g, y)
    gram = _gram(_padded(ds, (n, m)), None if y is None else y[..., None])
    gram[:, 0, 0] = [len(d) for d in ds]  # padded rows of D are no students
    g_z = _gram_precision(gram, vc)
    return x, g_z[..., :m], None if y is None else g_z[..., m]


def teacher_information(
    xs: Sequence[np.ndarray], vc: TeacherVarianceComponents
) -> np.ndarray:
    """Sum of X_i' V_i^-1 X_i over schools, via the closed-form precision:
    the symmetric p x p information that treatment_variance takes."""
    x, g, _ = _school_stack(xs, vc)
    return _information(x, g)


def student_information(
    xs: Sequence[np.ndarray],
    d: Sequence[np.ndarray],
    vc: StudentVarianceComponents,
) -> np.ndarray:
    """Sum of X_i' D_i' Sigma_i^-1 D_i X_i over schools, p x p and symmetric."""
    x, g, _ = _school_stack(xs, vc, d)
    return _information(x, g)


def _explained(block: np.ndarray, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """u' block^+ v, ``v`` = ``u`` by default, for a stack of symmetric PSD
    blocks of size 1 (the intercept) or 2 (intercept and contamination).

    The pseudo-inverse drops a direction that least squares would cut, so a
    singular other direction (an all-zero contamination column) is fitted
    the way lstsq fits it.  A 2x2 block is scaled by 4^-j and u and v by
    2^-j, j half the trace's exponent: u' block^+ v stays exactly the same,
    and the products of three entries stay in range at any scale of the
    components.  The default and v = u give the same bits.
    """
    v = u if v is None else v
    if block.shape[-1] == 1:
        a, u0, v0 = block[..., 0, 0], u[..., 0], v[..., 0]
        return u0 * np.divide(v0, a, out=np.zeros_like(a), where=a != 0.0)
    j = np.frexp(block[..., 0, 0] + block[..., 1, 1])[1] // 2
    block = np.ldexp(block, -2 * j[..., None, None])
    u, v = np.ldexp(u, -j[..., None]), np.ldexp(v, -j[..., None])
    a, c, e = block[..., 0, 0], block[..., 0, 1], block[..., 1, 1]
    u0, u1, v0, v1 = u[..., 0], u[..., 1], v[..., 0], v[..., 1]
    det = a * e - c * c
    trace = a + e
    full = det > _RANK_RTOL * trace * trace
    solved0 = (e * v0 - c * v1) / np.where(full, det, 1.0)
    solved1 = (a * v1 - c * v0) / np.where(full, det, 1.0)
    # a rank-1 block is trace * w w', so its pseudo-inverse is block / trace^2
    quad = u0 * (a * v0 + c * v1) + u1 * (c * v0 + e * v1)
    rank1 = np.divide(quad, trace * trace, out=np.zeros_like(quad), where=trace > 0.0)
    return np.where(full, u0 * solved0 + u1 * solved1, rank1)


def _treatment_pivot(entries: np.ndarray, field: str | None = None, b: np.ndarray | None = None):
    """Schur-complement pivot of the treatment direction after eliminating the others.

    ``entries`` is one p x p information matrix or a stack (..., p, p) over
    [1 r] (p = 2) or [1 r c] (p = 3); the others block B is eliminated in
    closed form.  One eigvalsh per matrix serves the PSD check, a ValueError
    for an eigenvalue below -SINGULAR_RTOL times the spectral norm (a
    FieldError of ``field``, if given, the residual component too small next
    to the others), and the threshold: a pivot at or below ``SINGULAR_RTOL``
    times the spectral norm, which covers singular information matrices and
    directions absorbed by collinear columns, is returned as NaN.

    Given a GLS right side ``b`` (..., p), returns the pivot and, from the
    same elimination, the treatment coefficient of the solve,
    (b_t - I_to' B^+ b_o) / pivot, NaN where the pivot is.
    """
    entries = np.asarray(entries, dtype=float)
    p, k = entries.shape[-1], TREATMENT_COLUMN
    if not 2 <= p <= 3:
        raise ValueError(f"the treatment pivot takes 2 or 3 parameters, got {p}")
    eigs = np.linalg.eigvalsh(entries)
    spectral = np.abs(eigs).max(axis=-1, initial=0.0)
    lowest = eigs.min(axis=-1, initial=0.0)
    bad = lowest < -SINGULAR_RTOL * spectral
    if np.any(bad):
        message = f"information matrix is not PSD (min eigenvalue {lowest[bad].min():g})"
        raise ValueError(message) if field is None else FieldError(field, f"too small: {message}")
    others = [j for j in range(p) if j != k]
    block, u = entries[..., others, :][..., others], entries[..., others, k]
    pivot = entries[..., k, k] - _explained(block, u)
    pivot = np.where(pivot > SINGULAR_RTOL * spectral, pivot, np.nan)
    if b is None:
        return pivot
    return pivot, (b[..., k] - _explained(block, u, b[..., others])) / pivot


def treatment_variance(info) -> TreatmentVariance:
    """Variance of the treatment coefficient implied by an information matrix.

    Returns the (TREATMENT_COLUMN, TREATMENT_COLUMN) entry of the inverse
    information, computed as the reciprocal pivot of the treatment direction
    after eliminating the other parameters.  ``info`` is a 2 x 2 or 3 x 3
    array over the columns [1 r] or [1 r c]; a ValueError says why one that
    is not square, finite, symmetric (to SYMMETRY_RTOL) and PSD is refused.
    Raises NonEstimableError when the treatment direction is singular.
    """
    entries = np.asarray(info, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"information matrix must be square, got shape {entries.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("information matrix has a non-finite entry")
    _check_symmetric(entries)
    pivot = float(_treatment_pivot(entries))
    if np.isnan(pivot):
        raise NonEstimableError("the treatment direction of the information matrix is singular")
    variance = 1.0 / pivot
    return TreatmentVariance(variance, 2.0 * np.sqrt(variance))
