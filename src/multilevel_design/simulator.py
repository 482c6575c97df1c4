"""Monte Carlo engine for the anticipated-variance distribution.

Each replicate draws a student-to-teacher assignment, a randomization of
teachers to arms, and (when requested) contamination indicators, then records
the realized information matrix at both response levels; one batched pivot
per run turns them into treatment-coefficient variances.  Replicates are
keyed by (master seed, replicate index, purpose), so results do not depend
on how the linear algebra is batched.

A second path generates synthetic responses and GLS-estimates them, which
validates the analytic anticipated variances against the Monte Carlo variance
of an actual estimator.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .designs import (
    DesignKind,
    check_identifiable,
    draw_contamination,
    draw_randomization,
    validate_contamination,
)
from .model_core import (
    TREATMENT_COLUMN,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    _check_schools,
    _group_schools,
    _information,
    _treatment_pivot,
    design_matrices,
    solve_student_system,
    student_precision,
    teacher_precision,
)

TEACHER = "teacher"
STUDENT = "student"
LEVELS = (TEACHER, STUDENT)


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
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        if self.kind is PolicyKind.SINGLE_COURSE and self.c != 1:
            raise ValueError("single_course implies c = 1")

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
        """Raise when the policy cannot produce its exact counts for (m, n)."""
        if self.kind is PolicyKind.BALANCED:
            if self.c > m:
                raise ValueError(f"balanced needs c <= m, got c={self.c}, m={m}")
            if (n * self.c) % m != 0:
                raise ValueError(
                    f"balanced needs n*c divisible by m, got n={n}, c={self.c}, m={m}"
                )
        elif self.kind is PolicyKind.SINGLE_COURSE and n % m != 0:
            raise ValueError(f"single_course needs n divisible by m, got n={n}, m={m}")

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
            raise ValueError(
                f"balanced c = m = {self.c} under within_schools gives every student "
                "every teacher, so the student level is never estimable"
            )


def draw_assignment(
    policy: AssignmentPolicy, m: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one n x m course-count matrix under the policy.

    balanced: every student takes c distinct teachers and every column sums
    to n*c/m.  Full passes over all c-subsets of teachers are dealt first;
    a remainder of students takes cyclically shifted subsets, which keeps
    the column sums exact.  Random teacher relabeling and student order make
    the construction exchangeable.

    with_replacement: each student draws c teachers uniformly with
    replacement, so entries can exceed 1.

    single_course: each student gets one teacher and every section has
    exactly n/m students.
    """
    policy.check_school(m, n)
    c = policy.c
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        picks = rng.integers(0, m, size=(n, c))
        cells = (np.arange(n)[:, None] * m + picks).ravel()
        return np.bincount(cells, minlength=n * m).reshape(n, m).astype(float)
    if policy.kind is PolicyKind.SINGLE_COURSE:
        teachers = np.repeat(np.arange(m), n // m)
        rng.shuffle(teachers)
        out = np.zeros((n, m))
        out[np.arange(n), teachers] = 1.0
        return out
    full, rest = divmod(n, math.comb(m, c))
    rows = []
    if full:
        rows.append(np.tile(np.array(list(itertools.combinations(range(m), c))), (full, 1)))
    if rest:
        offset = int(rng.integers(m))
        rows.append((offset + c * np.arange(rest)[:, None] + np.arange(c)) % m)
    relabel = rng.permutation(m)
    order = rng.permutation(n)
    out = np.zeros((n, m))
    out[np.arange(n)[:, None], relabel[np.concatenate(rows)[order]]] = 1.0
    return out


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs; immutable so replicates can share it.

    Construction rejects any config whose replicates would all fail: a
    singular covariance at either level, a design parity violation, a policy
    that cannot fill the layout, q outside the design's range, q = 1 under
    within-school randomization, or balanced c = m under within-school
    randomization.
    """

    layout: StudyLayout
    teacher_vc: TeacherVarianceComponents
    student_vc: StudentVarianceComponents
    design: DesignKind
    policy: AssignmentPolicy
    replicates: int
    seed: int
    q: float = 0.0
    effect_size_diff: float | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.effect_size_diff is not None and not np.isfinite(self.effect_size_diff):
            raise ValueError("effect_size_diff must be finite")
        validate_contamination(self.design, self.q)
        check_identifiable(self.effective_q)
        self.design.check_parity(self.layout.a, self.layout.m)
        for m_i, n_i in zip(self.layout.m, self.layout.n):
            self.policy.check_school(m_i, n_i)
        self.policy.check_student_estimable(self.design, self.layout.m)
        self.teacher_vc.check_invertible()
        self.student_vc.check_invertible()

    @property
    def effective_q(self) -> float:
        return self.design.effective_q(self.q)


class ReplicateStreams(NamedTuple):
    assignment: np.random.Generator
    randomization: np.random.Generator
    contamination: np.random.Generator
    responses: np.random.Generator


def replicate_streams(seed: int, replicate: int) -> ReplicateStreams:
    """Independent per-purpose generators keyed by (seed, replicate)."""
    root = np.random.SeedSequence([seed, replicate])
    return ReplicateStreams(*(np.random.default_rng(s) for s in root.spawn(4)))


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """A kernel density on a uniform grid, or a point mass for degenerate data."""

    grid: np.ndarray | None
    density: np.ndarray | None
    point_mass: float | None

    @property
    def is_point_mass(self) -> bool:
        return self.point_mass is not None


def kde_density(samples: np.ndarray, grid_size: int = 256) -> DensityEstimate:
    """Gaussian-kernel density with the Silverman rule-of-thumb bandwidth.

    h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), evaluated on a uniform grid over
    [min - 3h, max + 3h].  Degenerate inputs (all samples identical) return
    a point-mass marker instead of a grid.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot estimate a density from an empty sample")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if np.all(samples == samples[0]):
        return DensityEstimate(grid=None, density=None, point_mass=float(samples[0]))
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * scale * samples.size ** (-0.2)
    grid = np.linspace(samples.min() - 3.0 * h, samples.max() + 3.0 * h, grid_size)
    dens = np.zeros(grid_size)
    chunk = max(1, int(4e6) // samples.size)
    inv = 1.0 / (h * np.sqrt(2.0 * np.pi))
    for start in range(0, grid_size, chunk):
        z = (grid[start : start + chunk, None] - samples[None, :]) / h
        dens[start : start + chunk] = inv * np.exp(-0.5 * z**2).mean(axis=1)
    return DensityEstimate(grid=grid, density=dens, point_mass=None)


def empirical_power(
    se_samples: np.ndarray, effect_size_diff: float, alpha: float
) -> float:
    """Average two-sided normal-approximation power over sampled standard errors.

    For each difference-scale standard error, power is
    Phi(|delta|/se - z) + Phi(-|delta|/se - z) with z the upper alpha/2
    normal quantile; at delta = 0 this reduces to alpha exactly.
    """
    se = np.asarray(se_samples, dtype=float).ravel()
    if se.size == 0:
        raise ValueError("cannot average power over an empty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    delta = abs(float(effect_size_diff))
    fill = np.inf if delta > 0.0 else 0.0
    ratio = np.divide(delta, se, out=np.full_like(se, fill), where=se > 0.0)
    return float(np.mean(_normal_cdf(ratio - z) + _normal_cdf(-ratio - z)))


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array, 0.5 * erfc(-x / sqrt(2)) elementwise."""
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-v / root2) for v in x])


@dataclass(frozen=True, eq=False)
class LevelResult:
    """Per-level anticipated-variance samples and their summaries."""

    variances: np.ndarray
    samples: np.ndarray
    non_estimable: int
    mean: float
    sd: float
    density: DensityEstimate | None
    power: float | None


@dataclass(frozen=True, eq=False)
class SimulationResult:
    config: SimulationConfig
    teacher: LevelResult
    student: LevelResult

    @property
    def replicates(self) -> int:
        return self.config.replicates

    def level(self, name: str) -> LevelResult:
        if name == TEACHER:
            return self.teacher
        if name == STUDENT:
            return self.student
        raise KeyError(name)


def _summarize_level(
    variances: np.ndarray,
    effect_size_diff: float | None,
    alpha: float,
) -> LevelResult:
    mask = np.isfinite(variances)
    samples = variances[mask]
    non_estimable = int(variances.size - samples.size)
    if samples.size:
        mean = float(samples.mean())
        sd = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
        density = kde_density(samples)
        power = None
        if effect_size_diff is not None:
            power = empirical_power(2.0 * np.sqrt(samples), effect_size_diff, alpha)
    else:
        mean = float("nan")
        sd = float("nan")
        density = None
        power = None
    return LevelResult(
        variances=variances,
        samples=samples,
        non_estimable=non_estimable,
        mean=mean,
        sd=sd,
        density=density,
        power=power,
    )


def _replicate_draws(config: SimulationConfig, rep: int):
    """The (D, X) realization for one replicate, shared by both paths."""
    streams = replicate_streams(config.seed, rep)
    ds = [
        draw_assignment(config.policy, m_i, n_i, streams.assignment)
        for m_i, n_i in zip(config.layout.m, config.layout.n)
    ]
    assignment = draw_randomization(config.design, config.layout, streams.randomization)
    q_eff = config.effective_q
    if q_eff > 0.0:
        assignment = draw_contamination(
            assignment, q_eff, streams.contamination, kind=config.design
        )
    return ds, design_matrices(assignment), streams


def simulate_anticipated_variance(config: SimulationConfig) -> SimulationResult:
    """Distribution of the anticipated treatment variance at both levels.

    Deterministic given (seed, config): replicate i always consumes the same
    random streams.  The replicate loop only draws and accumulates each
    level's information, with one batched student solve per group of
    same-shaped schools; one batched pivot then gives every variance, NaN
    for a replicate whose treatment direction is singular.
    """
    reps = config.replicates
    p = 3 if config.effective_q > 0.0 else 2
    teacher_gs = {m: teacher_precision(m, config.teacher_vc) for m in set(config.layout.m)}
    infos = np.zeros((len(LEVELS), reps, p, p))
    for rep in range(reps):
        ds, xs, _ = _replicate_draws(config, rep)
        for x, d in _group_schools(xs, ds):
            infos[0, rep] += _information(x, teacher_gs[x.shape[1]])
            infos[1, rep] += _information(x, student_precision(d, config.student_vc))
    teacher_v, student_v = 1.0 / _treatment_pivot(infos, TREATMENT_COLUMN)
    teacher = _summarize_level(teacher_v, config.effect_size_diff, config.alpha)
    student = _summarize_level(student_v, config.effect_size_diff, config.alpha)
    return SimulationResult(config=config, teacher=teacher, student=student)


def generate_teacher_responses(
    xs: Sequence[np.ndarray],
    vc: TeacherVarianceComponents,
    beta: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw T_i = X_i beta + 1 v_i + eps_i per school."""
    beta = np.asarray(beta, dtype=float)
    out = []
    for x in xs:
        x = np.asarray(x, dtype=float)
        m_i = x.shape[0]
        v_i = rng.normal(0.0, np.sqrt(vc.sigma_v2))
        eps = rng.normal(0.0, np.sqrt(vc.sigma_eps2), m_i)
        out.append(x @ beta + v_i + eps)
    return out


def generate_student_responses(
    xs: Sequence[np.ndarray],
    ds: Sequence[np.ndarray],
    vc: StudentVarianceComponents,
    theta: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw Y_i = D_i (X_i theta + t_i) + 1 s_i + eta_i per school."""
    theta = np.asarray(theta, dtype=float)
    out = []
    for x, d in zip(xs, ds):
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        m_i = x.shape[0]
        n_i = d.shape[0]
        t_i = rng.normal(0.0, np.sqrt(vc.sigma_t2), m_i)
        s_i = rng.normal(0.0, np.sqrt(vc.sigma_s2))
        eta = rng.normal(0.0, np.sqrt(vc.sigma_eta2), n_i)
        out.append(d @ (x @ theta + t_i) + s_i + eta)
    return out


def gls_estimate(
    responses: Sequence[np.ndarray],
    xs: Sequence[np.ndarray],
    vc,
    ds: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized least squares coefficients and their covariance.

    beta = (sum X_i' G_i X_i)^-1 sum X_i' z_i.  At the teacher level (``ds``
    omitted) G_i = V_i^-1 and z_i = G_i T_i; at the student level
    G_i = D_i' Sigma_i^-1 D_i and z_i = D_i' Sigma_i^-1 Y_i, both from one
    batched student-covariance solve per group of same-shaped schools.  Raises NonEstimableError when the
    treatment direction is singular; a singular direction elsewhere (an
    all-zero contamination column) gets the pseudo-inverse.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    responses = [np.asarray(y, dtype=float) for y in responses]
    if len(xs) != len(responses):
        raise ValueError("one response vector per school is required")
    info, rhs = 0.0, 0.0
    if ds is None:
        _check_schools(xs)
        for x, y in _group_schools(xs, responses):
            g = teacher_precision(x.shape[1], vc)
            info += _information(x, g)
            rhs += np.einsum("kip,ki->p", x, y @ g)
    else:
        ds = [np.asarray(d, dtype=float) for d in ds]
        _check_schools(xs, ds)
        for x, d, y in _group_schools(xs, ds, responses):
            g_z = solve_student_system(d, vc, np.concatenate([d, y[..., None]], axis=-1))
            info += _information(x, g_z[..., :-1])
            rhs += np.einsum("kip,ki->p", x, g_z[..., -1])
    if np.isnan(_treatment_pivot(info, TREATMENT_COLUMN)):
        raise NonEstimableError("the treatment direction of the GLS information is singular")
    cov = np.linalg.pinv(info, hermitian=True)
    return cov @ rhs, cov


@dataclass(frozen=True)
class EstimatorLevelStudy:
    """Monte Carlo check of one level's GLS estimator against the analytic
    anticipated variance."""

    truth: float
    coef_mean: float
    coef_variance: float
    anticipated_mean: float
    n_used: int

    @property
    def variance_ratio(self) -> float:
        return self.coef_variance / self.anticipated_mean

    @property
    def mean_error_z(self) -> float:
        se = np.sqrt(self.coef_variance / self.n_used)
        return abs(self.coef_mean - self.truth) / se


def estimator_variance_study(
    config: SimulationConfig,
    beta: np.ndarray | None = None,
    theta: np.ndarray | None = None,
) -> dict[str, EstimatorLevelStudy]:
    """Generate synthetic responses per replicate and GLS-estimate them.

    Uses the same per-replicate (D, X) draws as the anticipated-variance
    path, so the Monte Carlo variance of the treatment coefficient can be
    compared 1:1 with the mean anticipated variance, which is read from the
    covariance of the same GLS fit.  Replicates whose treatment direction is
    singular at a level are skipped for that level.
    """
    delta = config.effect_size_diff if config.effect_size_diff is not None else 1.0
    p = 3 if config.effective_q > 0.0 else 2
    default = np.array([0.0, delta / 2.0, -delta / 4.0][:p])
    beta = default if beta is None else np.asarray(beta, dtype=float)
    theta = default if theta is None else np.asarray(theta, dtype=float)

    coefs: dict[str, list[float]] = {TEACHER: [], STUDENT: []}
    anticipated: dict[str, list[float]] = {TEACHER: [], STUDENT: []}
    for rep in range(config.replicates):
        ds, xs, streams = _replicate_draws(config, rep)
        t_resp = generate_teacher_responses(
            xs, config.teacher_vc, beta, streams.responses
        )
        s_resp = generate_student_responses(
            xs, ds, config.student_vc, theta, streams.responses
        )
        fits = {
            TEACHER: (t_resp, config.teacher_vc, None),
            STUDENT: (s_resp, config.student_vc, ds),
        }
        for level, (resp, vc, level_ds) in fits.items():
            try:
                coef, cov = gls_estimate(resp, xs, vc, ds=level_ds)
            except NonEstimableError:
                continue
            anticipated[level].append(float(cov[1, 1]))
            coefs[level].append(float(coef[1]))

    out = {}
    truths = {TEACHER: float(beta[1]), STUDENT: float(theta[1])}
    for level in LEVELS:
        values = np.asarray(coefs[level])
        if values.size < 2:
            raise NonEstimableError(
                f"not enough estimable replicates at the {level} level"
            )
        out[level] = EstimatorLevelStudy(
            truth=truths[level],
            coef_mean=float(values.mean()),
            coef_variance=float(values.var(ddof=1)),
            anticipated_mean=float(np.mean(anticipated[level])),
            n_used=int(values.size),
        )
    return out
