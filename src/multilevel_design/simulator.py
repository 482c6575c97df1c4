"""Monte Carlo engine for the anticipated-variance distribution.

Replicates run in chunks under a memory cap.  A replicate only draws, into
arrays: each student's teacher picks and each teacher's +-1 randomization
and contamination, schools padded to the largest.  Per chunk, bincounts over
the picks give each school's Gram [1 D]'[1 D] (no n x m D is formed), one
kernel call the student precisions and one contraction per level the
information; one pivot per run gives the variances.  Replicates are keyed by
(master seed, replicate index, purpose), so chunking changes no result.

A second path generates synthetic responses on the same draws and
GLS-estimates them per chunk, which validates the analytic anticipated
variances against the Monte Carlo variance of an actual estimator.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .designs import (
    DesignKind,
    _contamination_flags,
    _randomization_signs,
    check_identifiable,
    validate_contamination,
)
from .model_core import (
    TREATMENT_COLUMN,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    _gram_precision,
    _information,
    _school_stack,
    _symmetric,
    _teacher_precisions,
    _treatment_pivot,
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
    cells = (np.arange(n)[:, None] * m + _picks(policy, m, n, rng)).ravel()
    return np.bincount(cells, minlength=n * m).reshape(n, m).astype(float)


def _picks(policy: AssignmentPolicy, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, c) teacher indices ("picks") of one school's students; row s
    of D counts the picks in row s."""
    c = policy.c
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        return rng.integers(0, m, size=(n, c))
    if policy.kind is PolicyKind.SINGLE_COURSE:
        teachers = np.repeat(np.arange(m), n // m)
        rng.shuffle(teachers)
        return teachers[:, None]
    full, rest = divmod(n, math.comb(m, c))
    rows = []
    if full:
        rows.append(np.tile(_subsets(m, c), (full, 1)))
    if rest:
        offset = int(rng.integers(m))
        rows.append((offset + c * np.arange(rest)[:, None] + np.arange(c)) % m)
    relabel = rng.permutation(m)
    order = rng.permutation(n)
    return relabel[np.concatenate(rows)[order]]


@functools.cache
def _subsets(m: int, c: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(m), c)))


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
    """Independent per-purpose generators keyed by (seed, replicate); each is
    ``default_rng`` of a spawned seed, built without its per-call wrapper."""
    root = np.random.SeedSequence([seed, replicate])
    return ReplicateStreams(*(np.random.Generator(np.random.PCG64(s)) for s in root.spawn(4)))


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


#: cap on the bytes of a chunk of replicates' largest arrays (see _replicate_bytes)
_CHUNK_BYTES = 2**21


def _replicate_bytes(config: SimulationConfig) -> int:
    """Bytes one replicate adds to a chunk's largest arrays: the picks and
    pick-pair codes (2c + c(c-1)/2 integers a student) and about eight
    arrays the size of every school's Gram (pair counts, Gram, its scaled
    copies, the solve and G, each at most (max m + 2)^2 per school)."""
    layout, c = config.layout, config.policy.c
    picks = sum(layout.n) * (2 * c + math.comb(c, 2))
    return 8 * (picks + 8 * layout.a * (max(layout.m) + 2) ** 2)


def _chunks(config: SimulationConfig) -> list[range]:
    """Replicate ranges of at most _CHUNK_BYTES each (one replicate at least)."""
    size, reps = max(1, _CHUNK_BYTES // _replicate_bytes(config)), config.replicates
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _draw_chunk(config: SimulationConfig, reps: range, normals: int = 0) -> tuple[np.ndarray, ...]:
    """Replicates ``reps`` drawn with the public draws' generator calls: picks
    (R, c, sum n), design matrices (R, a, max m, p) with zero rows for padded
    teachers, and ``normals`` response normals each.  With_replacement under
    one m draws every school's picks in one call: the bit generator keeps the
    spare 32-bit half of a 64-bit draw across calls, so the values and the
    final state equal the per-school calls' (one call in place of a)."""
    layout, policy, q = config.layout, config.policy, config.effective_q
    one_call = policy.kind is PolicyKind.WITH_REPLACEMENT and len(set(layout.m)) == 1
    picks = np.empty((len(reps), policy.c, sum(layout.n)), dtype=np.intp)
    x = np.zeros((len(reps), layout.a, max(layout.m), 3 if q > 0.0 else 2))
    x[..., 0] = np.arange(max(layout.m)) < np.array(layout.m)[:, None]
    z = np.empty((len(reps), normals))
    for j, rep in enumerate(reps):
        streams = replicate_streams(config.seed, rep)
        rng = streams.assignment
        if one_call:
            picks[j] = rng.integers(0, layout.m[0], size=(sum(layout.n), policy.c)).T
        else:
            schools = zip(layout.m, layout.n)
            picks[j] = np.concatenate([_picks(policy, m_i, n_i, rng) for m_i, n_i in schools]).T
        x[j, ..., 1] = _randomization_signs(config.design, layout.m, streams.randomization)
        if q > 0.0:
            x[j, ..., 2] = _contamination_flags(x[j, ..., 1], q, streams.contamination)
        if normals:
            z[j] = streams.responses.standard_normal(normals)
    return picks, x, z


def _pick_gram(picks: np.ndarray, layout: StudyLayout, y: np.ndarray | None = None) -> np.ndarray:
    """Every school's Gram [1 D]'[1 D (y)], (R, a, m+1, m+1[+1]), by bincount
    over picks (R, c, sum n): D'D = P + P' + diag(1'D), 1'D counting each
    teacher's picks and P each student's pick pairs (j < k); D'y and 1'y are
    y-weighted counts.  A padded teacher is never picked: a zero row."""
    reps, c, _ = picks.shape
    a, m = layout.a, max(layout.m)
    school = np.arange(reps)[:, None] * a + np.repeat(np.arange(a), layout.n)
    teacher = school[:, None] * m + picks
    col = np.bincount(teacher.ravel(), minlength=reps * a * m).reshape(reps, a, m)
    pairs = np.zeros((reps, a, m, m))
    for j, k in itertools.combinations(range(c), 2):
        codes = (teacher[:, j] * m + picks[:, k]).ravel()
        pairs += np.bincount(codes, minlength=reps * a * m * m).reshape(reps, a, m, m)
    gram = np.zeros((reps, a, m + 1, m + 1 + (y is not None)))
    gram[..., 1 : m + 1, 1 : m + 1] = pairs + np.swapaxes(pairs, -1, -2)
    gram[..., range(1, m + 1), range(1, m + 1)] += col
    gram[..., 0, 0] = layout.n
    gram[..., 0, 1 : m + 1] = gram[..., 1 : m + 1, 0] = col
    if y is not None:
        gram[..., 0, -1] = np.bincount(school.ravel(), y.ravel(), reps * a).reshape(reps, a)
        weights = np.broadcast_to(y[:, None], teacher.shape).ravel()
        gram[..., 1:, -1] = np.bincount(teacher.ravel(), weights, reps * a * m).reshape(reps, a, m)
    return gram


def _replicate_information(config: SimulationConfig, reps: range) -> np.ndarray:
    """Both levels' p x p information of replicates ``reps``, (2, R, p, p)."""
    picks, x, _ = _draw_chunk(config, reps)
    g_s = _symmetric(_gram_precision(_pick_gram(picks, config.layout), config.student_vc))
    g_t = _teacher_precisions(config.layout.m, config.teacher_vc)
    return np.stack([_information(x, g_t), _information(x, g_s)])


def simulate_anticipated_variance(config: SimulationConfig) -> SimulationResult:
    """Distribution of the anticipated treatment variance at both levels.

    Deterministic given (seed, config): replicate i always consumes the same
    random streams.  One pivot per run gives every variance, NaN for a
    replicate whose treatment direction is singular.
    """
    infos = np.concatenate([_replicate_information(config, r) for r in _chunks(config)], axis=1)
    variances = 1.0 / _treatment_pivot(infos, TREATMENT_COLUMN)
    levels = [_summarize_level(v, config.effect_size_diff, config.alpha) for v in variances]
    return SimulationResult(config, *levels)


def _teacher_slots(m: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each school's v_i and its m_i eps_ij start in the one draw of
    generate_teacher_responses, which takes them school by school, and the
    draw's size."""
    m = np.asarray(m)
    v = np.cumsum(m + 1) - (m + 1)
    return v, v + 1, int(np.sum(m + 1))


def _student_slots(m: Sequence[int], n: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Where each school's m_i t_ij, s_i and n_i eta_is start in the one draw
    of generate_student_responses, which takes them school by school, and
    the draw's size."""
    m, n = np.asarray(m), np.asarray(n)
    t = np.cumsum(m + 1 + n) - (m + 1 + n)
    return t, t + m, t + m + 1, int(np.sum(m + 1 + n))


def generate_teacher_responses(
    xs: Sequence[np.ndarray],
    vc: TeacherVarianceComponents,
    beta: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw T_i = X_i beta + 1 v_i + eps_i per school."""
    beta = np.asarray(beta, dtype=float)
    xs = [np.asarray(x, dtype=float) for x in xs]
    v, eps, size = _teacher_slots([len(x) for x in xs])
    z = rng.standard_normal(size)
    sd_v, sd_eps = np.sqrt(vc.sigma_v2), np.sqrt(vc.sigma_eps2)
    return [x @ beta + sd_v * z[v_i] + sd_eps * z[e : e + len(x)] for x, v_i, e in zip(xs, v, eps)]


def generate_student_responses(
    xs: Sequence[np.ndarray],
    ds: Sequence[np.ndarray],
    vc: StudentVarianceComponents,
    theta: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw Y_i = D_i (X_i theta + t_i) + 1 s_i + eta_i per school."""
    theta = np.asarray(theta, dtype=float)
    xs = [np.asarray(x, dtype=float) for x in xs]
    ds = [np.asarray(d, dtype=float) for d in ds]
    t, s, eta, size = _student_slots([len(x) for x in xs], [len(d) for d in ds])
    z = rng.standard_normal(size)
    sd_t, sd_s, sd_eta = np.sqrt(vc.sigma_t2), np.sqrt(vc.sigma_s2), np.sqrt(vc.sigma_eta2)
    return [
        d @ (x @ theta + sd_t * z[t_i : t_i + len(x)]) + sd_s * z[s_i] + sd_eta * z[e : e + len(d)]
        for x, d, t_i, s_i, e in zip(xs, ds, t, s, eta)
    ]


def gls_estimate(
    responses: Sequence[np.ndarray],
    xs: Sequence[np.ndarray],
    vc,
    ds: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized least squares coefficients and their covariance.

    beta = (sum X_i' G_i X_i)^-1 sum X_i' z_i: at the teacher level (``ds``
    omitted) G_i = V_i^-1 and z_i = G_i T_i, at the student level G_i and
    z_i = D_i' Sigma_i^-1 [D_i Y_i] from the Gram of [1 D_i Y_i].  Raises
    NonEstimableError when the treatment direction is singular; a singular
    other direction (an all-zero contamination column) gets the pseudo-inverse.
    """
    responses = [np.asarray(y, dtype=float) for y in responses]
    x, g, z, _ = _school_stack(xs, vc, ds, responses)
    coef, cov = _gls_fit(x, g, z)
    if np.isnan(coef[TREATMENT_COLUMN]):
        raise NonEstimableError("the treatment direction of the GLS information is singular")
    return coef, cov


def _gls_fit(x: np.ndarray, g: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GLS coefficients and covariance from stacked X_i, G_i and z_i, for one
    fit or a stack of replicates; NaN where treatment is singular."""
    info = _information(x, g)
    cov = np.full(info.shape, np.nan)
    ok = ~np.isnan(_treatment_pivot(info, TREATMENT_COLUMN))
    cov[ok] = np.linalg.pinv(info[ok], hermitian=True)
    return (cov @ np.einsum("...kip,...ki->...p", x, z)[..., None])[..., 0], cov


def _study_chunk(config: SimulationConfig, reps: range, beta: np.ndarray, theta: np.ndarray):
    """Per level, the treatment coefficients and anticipated variances (2, 2, R)
    of GLS fits to the response generators' T = X beta + v + eps and
    Y = D(X theta + t) + s + eta on replicates ``reps``, D(.) a sum over the
    picks; NaN where not estimable."""
    tvc, svc, layout = config.teacher_vc, config.student_vc, config.layout
    v, eps, t_size = _teacher_slots(layout.m)
    t, s, eta, s_size = _student_slots(layout.m, layout.n)
    picks, x, z = _draw_chunk(config, reps, t_size + s_size)
    z_t, z_s = z[:, :t_size], z[:, t_size:]
    # each teacher's and student's offset in its school's run; a padded
    # teacher (zero intercept) rereads its school's first slot
    teacher = (np.arange(x.shape[2]) * x[0, ..., 0]).astype(int)
    student = np.arange(sum(layout.n)) - np.repeat(np.cumsum(layout.n) - layout.n, layout.n)
    eps, t, eta = eps[:, None] + teacher, t[:, None] + teacher, np.repeat(eta, layout.n) + student
    sd_v, sd_eps = np.sqrt(tvc.sigma_v2), np.sqrt(tvc.sigma_eps2)
    t_resp = x @ beta + sd_v * z_t[:, v, None] + sd_eps * z_t[:, eps]
    u = x @ theta + np.sqrt(svc.sigma_t2) * z_s[:, t]
    school = np.repeat(np.arange(layout.a), layout.n)
    y = u[np.arange(len(reps))[:, None, None], school, picks].sum(axis=1)
    y = y + np.sqrt(svc.sigma_s2) * z_s[:, s][:, school] + np.sqrt(svc.sigma_eta2) * z_s[:, eta]
    g_t = _teacher_precisions(layout.m, tvc)
    g_z = _gram_precision(_pick_gram(picks, layout, y), svc)
    fits = [
        _gls_fit(x, g_t, np.einsum("kij,...kj->...ki", g_t, t_resp)),
        _gls_fit(x, g_z[..., :-1], g_z[..., -1]),
    ]
    return np.array([(coef[:, TREATMENT_COLUMN], cov[:, 1, 1]) for coef, cov in fits])


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

    Uses the draws of the anticipated-variance path, so the Monte Carlo
    variance of the treatment coefficient compares 1:1 with the mean
    anticipated variance, read from the covariance of the same GLS fit.
    Replicates whose treatment direction is singular at a level are skipped.
    """
    delta = config.effect_size_diff if config.effect_size_diff is not None else 1.0
    p = 3 if config.effective_q > 0.0 else 2
    default = np.array([0.0, delta / 2.0, -delta / 4.0][:p])
    beta = default if beta is None else np.asarray(beta, dtype=float)
    theta = default if theta is None else np.asarray(theta, dtype=float)

    fits = np.concatenate([_study_chunk(config, r, beta, theta) for r in _chunks(config)], axis=-1)
    out = {}
    for level, truth, (coefs, anticipated) in zip(LEVELS, (beta[1], theta[1]), fits):
        used = ~np.isnan(coefs)
        if used.sum() < 2:
            raise NonEstimableError(f"not enough estimable replicates at the {level} level")
        out[level] = EstimatorLevelStudy(
            truth=float(truth),
            coef_mean=float(coefs[used].mean()),
            coef_variance=float(coefs[used].var(ddof=1)),
            anticipated_mean=float(anticipated[used].mean()),
            n_used=int(used.sum()),
        )
    return out
