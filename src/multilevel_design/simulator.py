"""Monte Carlo engine for the anticipated-variance distribution.

Replicates run in chunks under a memory cap.  A replicate only draws, into
arrays: each student's teacher picks and each teacher's +-1 randomization
and contamination, schools padded to the largest.  Per chunk, bincounts over
the picks give each school's Gram [1 D]'[1 D] (no n x m D is formed), one
kernel call the student precisions and one contraction per level the
information; one pivot per run gives the variances.  Each purpose has one
stream keyed by (seed, purpose) of which a replicate takes K uniforms from
offset r*K, so a chunk is one draw per purpose and chunking changes no result.

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
    _school_keys,
    _sign_uniforms,
)
from .model_core import (
    TREATMENT_COLUMN,
    FieldError,
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
    check_integer,
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
    exactly n/m students (the balanced construction with c = 1).
    """
    policy.check_school(m, n)
    u = rng.random((1, _assignment_uniforms(policy, (m,), (n,))))
    cells = (np.arange(n)[:, None] * m + _picks(policy, (m,), (n,), u)[0].T).ravel()
    return np.bincount(cells, minlength=n * m).reshape(n, m).astype(float)


def _assignment_uniforms(policy: AssignmentPolicy, m: Sequence[int], n: Sequence[int]) -> int:
    """Uniforms a layout's picks consume: c per student with replacement,
    otherwise per school one remainder offset, a key per teacher and one
    per student."""
    replacing = policy.kind is PolicyKind.WITH_REPLACEMENT
    return policy.c * sum(n) if replacing else len(m) + sum(m) + sum(n)


def _picks(policy: AssignmentPolicy, m: tuple, n: tuple, u: np.ndarray) -> np.ndarray:
    """The (R, c, sum n) teacher indices ("picks") of every student from the
    uniforms ``u`` (R, K) laid out school by school; row s of D counts
    student s's picks.  With replacement a pick is floor(u m_i); otherwise
    the offset is floor(u m_i) and relabeling and student order are stable
    argsorts of uniform keys."""
    c, ms, ns = policy.c, np.asarray(m), np.asarray(n)
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        u = np.swapaxes(u.reshape(len(u), -1, c), -1, -2) * np.repeat(ms, ns)
        return u.astype(np.intp, order="C")  # truncation is floor here
    starts = np.cumsum(1 + ms + ns) - (1 + ms + ns)
    offset = (u[:, starts, None] * ms[:, None]).astype(np.intp)
    relabel = np.argsort(_school_keys(u, starts + 1, ms, ms.max()), axis=-1, kind="stable")
    shifted = np.take_along_axis(relabel, (np.arange(ms.max()) + offset) % ms[:, None], -1)
    order = np.argsort(_school_keys(u, starts + 1 + ms, ns, ns.max()), axis=-1, kind="stable")
    school = np.repeat(np.arange(len(ms)), ns)
    slots = _balanced_slots(m, n, c)[school, order[:, np.arange(ns.max()) < ns[:, None]]]
    table = np.concatenate([relabel, shifted], -1)
    picks = table[np.arange(len(u))[:, None, None], school[:, None], slots]
    return np.ascontiguousarray(np.swapaxes(picks, -1, -2))


@functools.cache
def _balanced_slots(m: tuple, n: tuple, c: int) -> np.ndarray:
    """Every school's (max n, c) balanced rows as slots of [relabel, relabel
    shifted by the remainder offset]: full passes over the c-subsets, then
    the remainder's (c*j + k) mod m_i in the shifted half."""
    slots = np.zeros((len(m), max(n), c), dtype=np.intp)
    for i, (m_i, n_i) in enumerate(zip(m, n)):
        full, rest = divmod(n_i, math.comb(m_i, c))
        if full:
            subsets = np.array(list(itertools.combinations(range(m_i), c)))
            slots[i, : n_i - rest] = np.tile(subsets, (full, 1))
        slots[i, n_i - rest : n_i] = max(m) + (c * np.arange(rest)[:, None] + np.arange(c)) % m_i
    slots.setflags(write=False)  # cached: every caller shares it
    return slots


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs; immutable so replicates can share it.

    Construction rejects, with a FieldError naming the config field, any
    config whose replicates would all fail, in this order: a singular
    covariance at either level, a design parity violation, q outside the
    design's range, q = 1 under within-school randomization, a policy that
    cannot fill the layout, balanced c = m under within-school
    randomization, or a replicate over _REPLICATE_BYTES_LIMIT.
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
        check_integer(self.replicates, "replicates")
        check_integer(self.seed, "seed")
        check_alpha(self.alpha)
        if self.effect_size_diff is not None and not np.isfinite(self.effect_size_diff):
            raise FieldError("effect_size_diff", "effect_size_diff must be finite")
        self.teacher_vc.check_invertible()
        self.student_vc.check_invertible()
        self.design.check(self.layout.a, self.layout.m, self.q)
        for m_i, n_i in zip(self.layout.m, self.layout.n):
            self.policy.check_school(m_i, n_i)
        self.policy.check_student_estimable(self.design, self.layout.m)
        students, teachers = _footprint(self.layout, self.policy.c)
        if students + teachers > _REPLICATE_BYTES_LIMIT:
            field = "students_per_school" if students > teachers else "teachers_per_school"
            size = f"{students + teachers} bytes, over {_REPLICATE_BYTES_LIMIT}"
            raise FieldError(field, f"one replicate's arrays need {size}")

    @property
    def effective_q(self) -> float:
        return self.design.effective_q(self.q)


class ReplicateStreams(NamedTuple):
    """Per purpose of the random numbers: a generator, or a replicate's K."""

    assignment: np.random.Generator
    randomization: np.random.Generator
    contamination: np.random.Generator
    responses: np.random.Generator


def replicate_streams(config: SimulationConfig, replicate: int) -> ReplicateStreams:
    """Each purpose's stream, keyed by (seed, purpose), advanced to the first
    uniform of replicate ``replicate``: offset replicate * K_purpose."""
    return ReplicateStreams(
        *(
            np.random.Generator(np.random.PCG64([config.seed, k]).advance(replicate * size))
            for k, size in enumerate(_stream_sizes(config))
        )
    )


def _stream_sizes(config: SimulationConfig) -> ReplicateStreams:
    """K per purpose: the uniforms one replicate's draws consume."""
    m, n = config.layout.m, config.layout.n
    teachers = sum(m) + len(m)  # the normals of _teacher_slots, then of _student_slots
    return ReplicateStreams(
        _assignment_uniforms(config.policy, m, n),
        _sign_uniforms(config.design, m),
        sum(m),
        _paired(teachers) + _paired(teachers + sum(n)),
    )


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """A kernel density on a uniform grid, or a point mass for degenerate data."""

    grid: np.ndarray | None
    density: np.ndarray | None
    point_mass: float | None

    @property
    def is_point_mass(self) -> bool:
        return self.point_mass is not None


def kde_density(samples: np.ndarray) -> DensityEstimate:
    """Gaussian-kernel density with the Silverman rule-of-thumb bandwidth.

    h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), evaluated on a uniform grid of 256
    points over [min - 3h, max + 3h].  Degenerate inputs (all samples
    identical) return a point-mass marker instead of a grid.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot estimate a density from an empty sample")
    if np.all(samples == samples[0]):
        return DensityEstimate(grid=None, density=None, point_mass=float(samples[0]))
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * scale * samples.size ** (-0.2)
    grid = np.linspace(samples.min() - 3.0 * h, samples.max() + 3.0 * h, 256)
    dens = np.zeros(grid.size)
    chunk = max(1, int(4e6) // samples.size)
    inv = 1.0 / (h * np.sqrt(2.0 * np.pi))
    for start in range(0, grid.size, chunk):
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
    check_alpha(alpha)
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    delta = abs(float(effect_size_diff))
    fill = np.inf if delta > 0.0 else 0.0
    ratio = np.divide(delta, se, out=np.full_like(se, fill), where=se > 0.0)
    return float(np.mean(_normal_cdf(ratio - z) + _normal_cdf(-ratio - z)))


def check_alpha(alpha: float) -> float:
    """``alpha`` unless it lies outside the open interval (0, 1) or is so small
    that 1 - alpha/2 rounds to 1, where the normal quantile is infinite."""
    if not 0.0 < alpha < 1.0 or 1.0 - alpha / 2.0 == 1.0:
        raise FieldError("alpha", f"alpha must be in (0, 1) with 1 - alpha/2 < 1, got {alpha}")
    return alpha


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
#: a layout whose one replicate needs more bytes than this is rejected
_REPLICATE_BYTES_LIMIT = 2**30


def _footprint(layout: StudyLayout, c: int) -> tuple[int, int]:
    """Bytes one replicate adds to a chunk's largest arrays, sized by the
    students and by the teachers: the picks and pick-pair codes (2c +
    c(c-1)/2 integers a student) and about eight arrays the size of every
    school's Gram (pair counts, Gram, its scaled copies, the solve and G,
    each at most (max m + 2)^2 per school)."""
    return 8 * sum(layout.n) * (2 * c + math.comb(c, 2)), 64 * layout.a * (max(layout.m) + 2) ** 2


def _replicate_bytes(config: SimulationConfig) -> int:
    return sum(_footprint(config.layout, config.policy.c))


def _chunks(config: SimulationConfig) -> list[range]:
    """Replicate ranges of at most _CHUNK_BYTES each (one replicate at least)."""
    size, reps = max(1, _CHUNK_BYTES // _replicate_bytes(config)), config.replicates
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _draw_chunk(
    config: SimulationConfig, reps: range, responses: bool = False
) -> tuple[np.ndarray, ...]:
    """Replicates ``reps``' picks (R, c, sum n), design matrices (R, a, max m,
    p) with zero rows for padded teachers, and, given ``responses``, their
    response uniforms (R, K): one uniform draw per purpose, none per
    replicate."""
    layout, q = config.layout, config.effective_q
    streams, sizes = replicate_streams(config, reps.start), _stream_sizes(config)

    def uniforms(purpose: str) -> np.ndarray:
        return getattr(streams, purpose).random((len(reps), getattr(sizes, purpose)))

    picks = _picks(config.policy, layout.m, layout.n, uniforms("assignment"))
    x = np.zeros((len(reps), layout.a, max(layout.m), 3 if q > 0.0 else 2))
    x[..., 0] = np.arange(max(layout.m)) < np.array(layout.m)[:, None]
    x[..., 1] = _randomization_signs(config.design, layout.m, uniforms("randomization"))
    if q > 0.0:
        x[..., 2] = _contamination_flags(x[..., 1], q, uniforms("contamination"))
    return picks, x, uniforms("responses") if responses else None


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
    uniforms of each purpose's stream.  One pivot per run gives every variance, NaN for a
    replicate whose treatment direction is singular.
    """
    infos = np.concatenate([_replicate_information(config, r) for r in _chunks(config)], axis=1)
    variances = 1.0 / _treatment_pivot(infos)
    levels = [_summarize_level(v, config.effect_size_diff, config.alpha) for v in variances]
    return SimulationResult(config, *levels)


def _teacher_slots(m: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each school's v_i and its m_i eps_ij start in the normals of
    generate_teacher_responses, which takes them school by school, and
    their count."""
    m = np.asarray(m)
    v = np.cumsum(m + 1) - (m + 1)
    return v, v + 1, int(np.sum(m + 1))


def _student_slots(m: Sequence[int], n: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Where each school's m_i t_ij, s_i and n_i eta_is start in the normals
    of generate_student_responses, which takes them school by school, and
    their count."""
    m, n = np.asarray(m), np.asarray(n)
    t = np.cumsum(m + 1 + n) - (m + 1 + n)
    return t, t + m, t + m + 1, int(np.sum(m + 1 + n))


def _paired(k: int) -> int:
    """Uniforms that k Box-Muller normals consume: 2 * ceil(k / 2)."""
    return k + k % 2


def _normals(u: np.ndarray, k: int) -> np.ndarray:
    """k standard normals from the last axis of ``u``, _paired(k) uniforms, by
    Box-Muller: sqrt(-2 log(1 - u1)) (cos, sin)(2 pi u2), finite at u1 = 0."""
    pairs = u.reshape(u.shape[:-1] + (-1, 2))
    radius = np.sqrt(-2.0 * np.log1p(-pairs[..., 0]))
    angle = 2.0 * np.pi * pairs[..., 1]
    return (radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], -1)).reshape(u.shape)[..., :k]


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
    z = _normals(rng.random(_paired(size)), size)
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
    z = _normals(rng.random(_paired(size)), size)
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
    x, g, z = _school_stack(xs, vc, ds, responses)
    coef, cov = _gls_fit(x, g, z)
    if np.isnan(coef[TREATMENT_COLUMN]):
        raise NonEstimableError("the treatment direction of the GLS information is singular")
    return coef, cov


def _gls_fit(x: np.ndarray, g: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GLS coefficients and covariance from stacked X_i, G_i and z_i, for one
    fit or a stack of replicates; NaN where treatment is singular."""
    info = _information(x, g)
    cov = np.full(info.shape, np.nan)
    ok = ~np.isnan(_treatment_pivot(info))
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
    picks, x, u = _draw_chunk(config, reps, responses=True)
    z_t = _normals(u[:, : _paired(t_size)], t_size)
    z_s = _normals(u[:, _paired(t_size) :], s_size)
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
    k = TREATMENT_COLUMN
    return np.array([(coef[:, k], cov[:, k, k]) for coef, cov in fits])


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


def estimator_variance_study(config: SimulationConfig) -> dict[str, EstimatorLevelStudy]:
    """Generate synthetic responses per replicate and GLS-estimate them.

    Uses the draws of the anticipated-variance path, so the Monte Carlo
    variance of the treatment coefficient compares 1:1 with the mean
    anticipated variance, read from the covariance of the same GLS fit.
    Both levels take the coefficients (0, delta/2[, -delta/4]), delta the
    effect size (1 when unset).  Replicates whose treatment direction is
    singular at a level are skipped.
    """
    delta = config.effect_size_diff if config.effect_size_diff is not None else 1.0
    p = 3 if config.effective_q > 0.0 else 2
    beta = np.array([0.0, delta / 2.0, -delta / 4.0][:p])

    fits = np.concatenate([_study_chunk(config, r, beta, beta) for r in _chunks(config)], axis=-1)
    out = {}
    for level, (coefs, anticipated) in zip(LEVELS, fits):
        used = ~np.isnan(coefs)
        if used.sum() < 2:
            raise NonEstimableError(f"not enough estimable replicates at the {level} level")
        out[level] = EstimatorLevelStudy(
            truth=float(beta[TREATMENT_COLUMN]),
            coef_mean=float(coefs[used].mean()),
            coef_variance=float(coefs[used].var(ddof=1)),
            anticipated_mean=float(anticipated[used].mean()),
            n_used=int(used.sum()),
        )
    return out
