"""Monte Carlo engine for the anticipated-variance distribution.

The engine has two entries, one per mode: simulate_anticipated_variance
(simulate and compare) and estimator_variance_study (validate).  Each takes
a run's SimulationConfigs, which differ only in their design, runs them in
lockstep through one run loop (_lockstep) and returns one result per config,
in order.  Neither raises for a non-estimable replicate: its variance is NaN,
and a study level with fewer than two estimable replicates is None.

This is the one module that decodes stream layout v2.  Each purpose has
one stream keyed by (seed, purpose), not by design, of which a replicate
takes K uniforms from offset r*K, school by school; _school_keys reads each
school's run, and the one-school draws (draw_assignment,
draw_randomization, draw_contamination) decode the same uniforms from any
Generator.  A run makes each stream once and draws its chunks in order, so
chunking changes no result, and its designs share their assignment draws,
common random numbers.

Replicates run in chunks under a memory cap.  A replicate only draws, into
arrays: its assignment uniforms and each teacher's +-1 randomization and
contamination, schools padded to the largest.  Per chunk, each school's Gram
[1 D]'[1 D] comes without an n x m D: with replacement from one bincount of
the codes of each student's teacher-pick pairs, built in place pair by pair
in one integer array; balanced and single_course from the slot Gram of the
layout's fixed balanced rows, cached once and carried onto teachers through
each replicate's slot table in O(m^2).  One Gram and one kernel call give
every design of a chunk its student precisions, one matmul over the
schools' rows per level the information and one pivot per design the
variances.

The study's chunks (_study_chunk) GLS-fit Box-Muller noise of the
responses stream on the same draws, which validates the anticipated
variances against the Monte Carlo variance of an actual estimator: GLS is
linear and returns X beta's beta exactly, so the noise fit's treatment
coefficient is the estimate's error.  Its designs share each chunk's
picks, normals, pair count, student solve and both right sides, and read
compare's G, _information and 1/pivot.  It pairs each student's noise
with its row of D, so it keeps the ordered picks, as does draw_assignment.
The chunks' GLS terms wait in a fit buffer of up to _CHUNK_BYTES, and one
_gls_solve per design and level (pivot, pseudo-inverse, coefficients) runs
on all of it, so the per-call cost of those small-matrix routines comes
once per few thousand replicates, not once per chunk of a few.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .designs import AssignmentPolicy, DesignKind, PolicyKind, validate_contamination
from .model_core import (
    TREATMENT_COLUMN,
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    TreatmentAssignment,
    _check_level,
    _gram_precision,
    _information,
    _padded,
    _school_stack,
    _teacher_precisions,
    _treatment_pivot,
    check_integer,
    check_levels,
)

TEACHER = "teacher"
STUDENT = "student"
LEVELS = (TEACHER, STUDENT)
#: the residual component that a level's indefinite information names
_RESIDUAL = {TEACHER: "teacher_vc.sigma_eps2", STUDENT: "student_vc.sigma_eta2"}


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
    cells = (np.arange(n)[:, None] * m + _picks(policy, (m,), (n,), u)[0]).ravel()
    return np.bincount(cells, minlength=n * m).reshape(n, m).astype(float)


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


def _school_keys(u: np.ndarray, starts, counts, width: int, fill=np.inf) -> np.ndarray:
    """Each school's run of ``counts[i]`` values from ``starts[i]`` of ``u``'s
    last axis (uniforms, normals or flags laid out school by school) as
    (..., a, width), ``fill`` beyond the run: by default +inf, last as a
    sort key.  The one reader of a school-by-school run."""
    slots = np.arange(width)
    keys = u[..., np.minimum(np.asarray(starts)[:, None] + slots, u.shape[-1] - 1)]
    return np.where(slots < np.asarray(counts)[:, None], keys, fill)


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
        treated = _school_keys(_ranks(u) < m.sum() // 2, np.cumsum(m) - m, m, m.max(), False)
    return np.where(real, np.where(treated, 1.0, -1.0), 0.0)


def draw_contamination(
    assignment: TreatmentAssignment,
    q: float,
    rng: np.random.Generator,
    kind: DesignKind,
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
    control teacher contaminates when its uniform is below the probability,
    which is at most 1 wherever q is admissible for the design that drew
    the signs."""
    m = np.count_nonzero(signs, axis=-1)
    prob = (signs.sum(axis=-1) + m) * q / m
    m = m.reshape(-1, m.shape[-1])[0]  # every replicate has the layout's m_i
    keys = _school_keys(u, np.cumsum(m) - m, m, signs.shape[-1], 1.0)
    return ((signs == -1.0) & (keys < prob[..., None])).astype(float)


def _assignment_uniforms(policy: AssignmentPolicy, m: Sequence[int], n: Sequence[int]) -> int:
    """Uniforms a layout's picks consume: c per student with replacement,
    otherwise per school one remainder offset, a key per teacher and one
    per student."""
    replacing = policy.kind is PolicyKind.WITH_REPLACEMENT
    return policy.c * sum(n) if replacing else len(m) + sum(m) + sum(n)


def _picks(policy: AssignmentPolicy, m: tuple, n: tuple, u: np.ndarray) -> np.ndarray:
    """The (R, sum n, c) teacher indices ("picks") of every student, student
    by student, from the uniforms ``u`` (R, K) laid out school by school;
    row s of D counts student s's picks.  With replacement a pick is
    floor(u m_i) of one of the student's c consecutive uniforms; otherwise
    a stable argsort of uniform keys orders the students, who take the
    balanced rows through the replicate's slot table.  Only draw_assignment
    and validate pair a student with its row of D; information takes
    balanced Grams from _assignment_gram, with no student order."""
    c, ms, ns = policy.c, np.asarray(m), np.asarray(n)
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        # m_i per uniform, cast as it multiplies, no float temporary; floor is
        # truncation here, and int32 holds m_i - 1 for every m_i <= 2**31
        scale = np.repeat(ms, ns * c)
        picks = np.multiply(u, scale, out=np.empty(u.shape, np.int32), casting="unsafe")
        return picks.reshape(len(u), -1, c)
    keys = _school_keys(u, np.cumsum(1 + ms + ns) - ns, ns, ns.max())
    order = np.argsort(keys, axis=-1, kind="stable")
    school = np.repeat(np.arange(len(ms)), ns)
    slots = _balanced_slots(m, n, c)[school, order[:, np.arange(ns.max()) < ns[:, None]]]
    return _slot_table(m, n, u)[np.arange(len(u))[:, None, None], school[:, None], slots]


def _slot_table(m: tuple, n: tuple, u: np.ndarray) -> np.ndarray:
    """Every school's (R, a, 2 max m) teacher of each balanced slot from the
    uniforms ``u`` (R, K): [relabel, relabel shifted by the remainder
    offset], the offset floor(u m_i) of the school's first uniform and the
    relabeling a stable argsort of its next m_i.  Each half is a
    permutation of the max m slots (a padded slot keeps its own index)."""
    ms, ns = np.asarray(m), np.asarray(n)
    starts = np.cumsum(1 + ms + ns) - (1 + ms + ns)
    offset = (u[:, starts, None] * ms[:, None]).astype(np.intp)
    relabel = np.argsort(_school_keys(u, starts + 1, ms, ms.max()), axis=-1, kind="stable")
    slot = np.arange(ms.max())
    shift = np.where(slot < ms[:, None], (slot + offset) % ms[:, None], slot)
    return np.concatenate([relabel, np.take_along_axis(relabel, shift, -1)], -1)


@functools.lru_cache(maxsize=1)
def _balanced_slots(m: tuple, n: tuple, c: int) -> np.ndarray:
    """Every school's (max n, c) balanced rows as slots of _slot_table: full
    passes over the c-subsets, then the remainder's (c*j + k) mod m_i in
    the shifted half.  Fixed per layout, so _slot_gram counts them once."""
    slots = np.zeros((len(m), max(n), c), dtype=np.intp)
    for i, (m_i, n_i) in enumerate(zip(m, n)):
        full, rest = divmod(n_i, math.comb(m_i, c))
        if full:
            subsets = np.array(list(itertools.combinations(range(m_i), c)))
            slots[i, : n_i - rest] = np.tile(subsets, (full, 1))
        slots[i, n_i - rest : n_i] = max(m) + (c * np.arange(rest)[:, None] + np.arange(c)) % m_i
    slots.setflags(write=False)  # cached: every caller shares it
    return slots


@functools.lru_cache(maxsize=1)
def _slot_gram(m: tuple, n: tuple, c: int) -> np.ndarray:
    """Every school's Gram [1 S]'[1 S] of its balanced rows S over the slots
    of each half of _slot_table, (2, a, max m + 1, max m + 1): the full
    passes fill the first half and the remainder rows the second, and no
    row spans both, so the halves share no pair.  Reordering students
    leaves it unchanged, so _pick_gram counts it once, a school at a time
    with its halves as two schools; the cache keeps the last layout's only."""
    top = max(m)
    gram = np.empty((2, len(m), top + 1, top + 1))
    for i, (m_i, n_i) in enumerate(zip(m, n)):
        rows = _balanced_slots(m, n, c)[i, :n_i] % top  # each half's slots as 0..max m
        split = n_i - n_i % math.comb(m_i, c)
        gram[:, i] = _pick_gram(rows[None], (split, n_i - split), top)[0]
    gram.setflags(write=False)  # cached: every caller shares it
    return gram


def _assignment_gram(
    policy: AssignmentPolicy, layout: StudyLayout, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Every school's Gram [1 D]'[1 D], (R, a, m+1, m+1), of the next ``count``
    replicates of the assignment stream ``rng``.  With replacement it counts
    the picks.  Otherwise the full passes deal every c-subset of a school's
    teachers equally often, so their slot Gram is the teachers' Gram under
    any relabeling; the remainder's is gathered at the intercept and each
    teacher's slot in the shifted half of the slot table.  Integer counts
    with no per-student work, equal to _pick_gram of the picks.  It draws
    the uniforms itself, so they are freed before the counting."""
    shape = (count, _assignment_uniforms(policy, layout.m, layout.n))
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        picks = _picks(policy, layout.m, layout.n, rng.random(shape))
        return _pick_gram(picks, layout.n, max(layout.m))
    m = max(layout.m)
    shifted = _slot_table(layout.m, layout.n, rng.random(shape))[..., m:]
    rows = np.zeros(shifted.shape[:-1] + (m + 1,), dtype=np.intp)
    rows[..., 1:] = 1 + np.argsort(shifted, axis=-1)
    full, rest = _slot_gram(layout.m, layout.n, policy.c)
    gram = rest[np.arange(layout.a)[:, None, None], rows[..., :, None], rows[..., None, :]]
    gram += full
    return gram


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs; immutable so replicates can share it.

    Construction rejects, with a FieldError naming the config field, any
    config whose replicates would all fail, in this order: a singular
    covariance or an overflowing kernel at either level (check_levels), a
    design parity violation, q outside the design's range, q = 1 under
    within-school randomization, a policy that cannot fill the layout,
    balanced c = m under within-school randomization, or a replicate over
    _REPLICATE_BYTES_LIMIT.  Components of the wrong level raise TypeError
    first, as the one-school functions do.
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
        _check_level(self.teacher_vc, TeacherVarianceComponents)
        _check_level(self.student_vc, StudentVarianceComponents)
        check_levels(self.layout, self.policy.c, self.teacher_vc, self.student_vc)
        self.design.check(self.layout.a, self.layout.m, self.q)
        for m_i, n_i in zip(self.layout.m, self.layout.n):
            self.policy.check_school(m_i, n_i)
        self.policy.check_student_estimable(self.design, self.layout.m)
        students, teachers = _footprint(self.layout, self.policy.c)
        if self.policy.kind is not PolicyKind.WITH_REPLACEMENT:
            teachers += _slot_gram_bytes(self.layout)
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
    uniform of replicate ``replicate``: offset replicate * K_purpose.  A run
    makes replicate 0's once and draws its chunks from them in order."""
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


def _quantile(x: np.ndarray, q: float) -> float:
    """Quantile ``q`` of the sorted ``x``, equal bit for bit to ``np.percentile``'s
    linear rule, which imports ``numpy.ma`` on its first call."""
    v = (x.size - 1) * q
    j = int(v)
    t = v - j
    a, b = float(x[j]), float(x[min(j + 1, x.size - 1)])
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)


def _scaled(stat, x: np.ndarray, degree: int = 1, **kwargs) -> float:
    """``stat(x, **kwargs)``, of ``degree`` 2 for a variance, on ``x`` scaled by
    2**-e, e the exponent of max|x|, then scaled back by 2**(degree e): no sum
    or square overflows, and the exact scaling changes no result that
    neither over- nor underflows."""
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return float(np.ldexp(stat(np.ldexp(x, -e), **kwargs), degree * e))


_sd = functools.partial(_scaled, np.std, ddof=1)


def kde_density(samples: np.ndarray) -> DensityEstimate:
    """Gaussian-kernel density with the Silverman rule-of-thumb bandwidth.

    h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), evaluated on a uniform grid of 256
    points over [min - 3h, max + 3h].  The quartiles use numpy's default
    linear rule (Hyndman-Fan type 7) on the sorted samples: virtual index
    v = (n - 1) q, j = floor(v), t = v - j, a = x[j], b = x[j + 1], then
    a + (b - a) t for t < 0.5, else b - (b - a)(1 - t).  Degenerate inputs (all
    samples identical) return a point-mass marker instead of a grid.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0 or not np.isfinite(samples).all():
        raise ValueError("cannot estimate a density from an empty or non-finite sample")
    if np.all(samples == samples[0]):
        return DensityEstimate(grid=None, density=None, point_mass=float(samples[0]))
    sd = _sd(samples)
    ordered = np.sort(samples)
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * scale * samples.size ** (-0.2)
    grid = np.linspace(samples.min() - 3.0 * h, samples.max() + 3.0 * h, 256)
    dens = np.zeros(grid.size)
    chunk = max(1, _CHUNK_BYTES // (8 * samples.size))  # rows of one block's temporaries
    inv = 1.0 / (h * np.sqrt(2.0 * np.pi))
    for start in range(0, grid.size, chunk):
        # -0.5 * ((grid - samples) / h)**2 and its exp, in place in one buffer
        z = np.subtract(grid[start : start + chunk, None], samples[None, :])
        z /= h
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        dens[start : start + chunk] = inv * z.mean(axis=1)
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
    if se.size == 0 or not (np.isfinite(se) & (se >= 0.0)).all():
        raise ValueError("power needs a non-empty sample of finite, non-negative standard errors")
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
    return 0.5 * np.array(list(map(math.erfc, (-x / math.sqrt(2.0)).tolist())))


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
    samples = variances[np.isfinite(variances)]
    mean = sd = float("nan")
    density = power = None
    if samples.size:
        mean = _scaled(np.mean, samples)
        sd = _sd(samples) if samples.size > 1 else 0.0
        density = kde_density(samples)
        if effect_size_diff is not None:
            power = empirical_power(2.0 * np.sqrt(samples), effect_size_diff, alpha)
    return LevelResult(variances, samples, variances.size - samples.size, mean, sd, density, power)


#: cap on the bytes of a chunk of replicates' largest arrays (see _replicate_bytes)
_CHUNK_BYTES = 2**21
#: a layout whose one replicate needs more bytes than this is rejected
_REPLICATE_BYTES_LIMIT = 2**30


def _footprint(layout: StudyLayout, c: int) -> tuple[int, int]:
    """Bytes one replicate adds to a chunk's largest arrays, sized by the
    students and by the teachers: its assignment uniforms, picks and
    pick-pair codes (2c + c(c-1)/2 numbers a student) and about eight arrays
    the size of every school's Gram (pair counts, Gram, its scaled copies,
    the solve and G, each at most (max m + 2)^2 per school).  A chunk holds
    one Gram and one G for all of a run's designs; each design adds only
    its (max m, p) design rows a school.  A validate chunk shares its picks,
    normals, pair count, student solve and two right sides among its
    designs; its responses uniforms and normals go uncounted, and so does
    its fit buffer, the GLS terms of up to _CHUNK_BYTES of earlier chunks
    (p^2 + p numbers a design and level a replicate, 288 bytes at q = 0 and
    three designs), held beside the chunk until they are solved.  Balanced and
    single_course information makes no picks and no pair counts: it gathers
    the Gram straight from the cached slot Gram, whose bytes _slot_gram_bytes
    counts once a run."""
    return 8 * sum(layout.n) * (2 * c + math.comb(c, 2)), 64 * layout.a * (max(layout.m) + 2) ** 2


def _slot_gram_bytes(layout: StudyLayout) -> int:
    """Bytes of _slot_gram's cached result, two Gram-sized arrays a school,
    which balanced and single_course hold beside a chunk's replicates; the
    replicate-size guard counts them with the teachers."""
    return 16 * layout.a * (max(layout.m) + 1) ** 2


def _replicate_bytes(config: SimulationConfig) -> int:
    return sum(_footprint(config.layout, config.policy.c))


def _chunks(config: SimulationConfig) -> list[int]:
    """Replicate counts, in run order, of chunks of at most _CHUNK_BYTES each
    (one replicate at least)."""
    size, reps = max(1, _CHUNK_BYTES // _replicate_bytes(config)), config.replicates
    return [min(size, reps - start) for start in range(0, reps, size)]


def _design_chunk(config: SimulationConfig, streams: ReplicateStreams, count: int) -> np.ndarray:
    """The next ``count`` replicates' design matrices (R, a, max m, p), zero
    rows for padded teachers: one uniform draw per purpose from ``streams``,
    none per replicate."""
    layout, q, sizes = config.layout, config.effective_q, _stream_sizes(config)
    x = np.zeros((count, layout.a, max(layout.m), 3 if q > 0.0 else 2))
    x[..., 0] = np.arange(max(layout.m)) < np.array(layout.m)[:, None]
    u = streams.randomization.random((count, sizes.randomization))
    x[..., 1] = _randomization_signs(config.design, layout.m, u)
    if q > 0.0:
        u = streams.contamination.random((count, sizes.contamination))
        x[..., 2] = _contamination_flags(x[..., 1], q, u)
    return x


def _pick_gram(
    picks: np.ndarray, n: Sequence[int], m: int, y: np.ndarray | None = None
) -> np.ndarray:
    """Every school's Gram [1 D]'[1 D y], (R, a, m+1, m+1+k), from picks
    (R, sum n, c) of the n_i students of each school in turn, padded to m
    teachers, and one response a student y (R, sum n), k = 1, or none, k = 0:
    D'D = P + P' + diag(1'D), P counting each student's pick pairs (j < k)
    by one bincount of their codes (replicate, school, p_j, p_k), built in
    place, pair by pair, in one (c(c-1)/2, R, sum n) array.  A pick
    sits in c - 1 pairs, so 1'D is a row sum of P + P' over c - 1; for
    c = 1 one bincount of the picks gives it.  1'y and D'y are y-weighted
    counts of the students and of their picks.  A padded teacher is never
    picked: a zero row."""
    reps, _, c = picks.shape
    a = len(n)
    school = np.arange(reps)[:, None] * a + np.repeat(np.arange(a), n)
    gram = np.zeros((reps, a, m + 1, m + 1 + (y is not None)))
    if c == 1:
        codes = (school * m + picks[..., 0]).ravel()
        col = np.bincount(codes, minlength=reps * a * m).reshape(reps, a, m)
    else:
        codes = np.empty((c * (c - 1) // 2,) + school.shape, dtype=np.intp)
        for code, (j, k) in zip(codes, itertools.combinations(range(c), 2)):
            np.multiply(school, m, out=code)  # a temporary here can re-fault the heap each chunk
            code += picks[..., j]
            code *= m
            code += picks[..., k]
        pairs = np.bincount(codes.ravel(), minlength=reps * a * m * m).reshape(reps, a, m, m)
        pairs += np.swapaxes(pairs, -1, -2)
        col = pairs.sum(-1) // (c - 1)
        gram[..., 1 : m + 1, 1 : m + 1] = pairs
    gram[..., range(1, m + 1), range(1, m + 1)] += col
    gram[..., 0, 0] = n
    gram[..., 0, 1 : m + 1] = gram[..., 1 : m + 1, 0] = col
    if y is not None:
        gram[..., 0, m + 1] = np.bincount(school.ravel(), y.ravel(), reps * a).reshape(reps, a)
        for j in range(c):  # pick by pick: no (R, sum n, c) block of weights
            codes = (school * m + picks[..., j]).ravel()
            gram[..., 1:, m + 1] += np.bincount(codes, y.ravel(), reps * a * m).reshape(reps, a, m)
    return gram


def _lockstep(configs: Sequence[SimulationConfig]):
    """The one run loop: per chunk of the configs' replicates, the first
    config's streams, the chunk's count and every config's design matrices.
    The configs differ only in their design, so they share the assignment
    and responses streams, common random numbers, and each design draws its
    own randomization and contamination.  Raises ValueError, before any
    draw, for no configs or for configs that differ in more."""
    if not configs:
        raise ValueError("a run needs at least one config")
    first = configs[0]
    if any(replace(c, design=first.design) != first for c in configs):
        raise ValueError("the configs of one run may differ only in their design")
    streams = [replicate_streams(config, 0) for config in configs]
    return (
        (streams[0], count, [_design_chunk(c, s, count) for c, s in zip(configs, streams)])
        for count in _chunks(first)
    )


def simulate_anticipated_variance(configs: Sequence[SimulationConfig]) -> list[SimulationResult]:
    """Distribution of the anticipated treatment variance at both levels, one
    result per config, in order.

    The configs differ only in their design and run in lockstep (see
    _lockstep): per chunk one assignment draw, one Gram and one student
    precision serve every design, and each design gets its own pivot and
    summaries, equal bit for bit to a run of that design alone.
    Deterministic given (seed, config): replicate r always consumes the same
    uniforms of each purpose's stream.  A replicate whose treatment
    direction is singular at a level is NaN there and counts as
    non-estimable; nothing is raised for it.
    """
    chunks = _lockstep(configs)
    first = configs[0]
    g_t = _teacher_precisions(first.layout.m, first.teacher_vc)
    infos = [[] for _ in configs]
    for streams, count, xs in chunks:
        gram = _assignment_gram(first.policy, first.layout, streams.assignment, count)
        g_s = _gram_precision(gram, first.student_vc)
        for x, design_infos in zip(xs, infos):
            design_infos.append(np.stack([_information(x, g_t), _information(x, g_s)]))
    results = []
    for config, design_infos in zip(configs, infos):
        by_level = zip(LEVELS, np.concatenate(design_infos, axis=1))
        variances = [1.0 / _treatment_pivot(info, _RESIDUAL[level]) for level, info in by_level]
        levels = [_summarize_level(v, config.effect_size_diff, config.alpha) for v in variances]
        results.append(SimulationResult(config, *levels))
    return results


def _teacher_slots(m: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each school's v_i and its m_i eps_ij start in a replicate's
    teacher block of normals, which takes them school by school, and their
    count."""
    m = np.asarray(m)
    v = np.cumsum(m + 1) - (m + 1)
    return v, v + 1, int(np.sum(m + 1))


def _student_slots(m: Sequence[int], n: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Where each school's m_i t_ij, s_i and n_i eta_is start in a
    replicate's student block of normals, which follows the teacher block
    and takes them school by school, and their count."""
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
    coef, cov, _ = _gls_solve(*_information(x, g, z))
    if np.isnan(coef[TREATMENT_COLUMN]):
        raise NonEstimableError("the treatment direction of the GLS information is singular")
    return coef, cov


def _gls_solve(info: np.ndarray, b: np.ndarray, field: str | None = None):
    """GLS coefficients, covariance and treatment pivot from _information's
    terms, for one fit or a stack of replicates; NaN where treatment is
    singular.  An indefinite information raises as _treatment_pivot does
    with ``field``.  Every step works matrix by matrix, so a stack gives
    each replicate the bits of its own solve."""
    pivot = _treatment_pivot(info, field)
    cov = np.full(info.shape, np.nan)
    ok = ~np.isnan(pivot)
    cov[ok] = np.linalg.pinv(info[ok], hermitian=True)
    return (cov @ b[..., None])[..., 0], cov, pivot


def _study_chunk(
    config: SimulationConfig,
    streams: ReplicateStreams,
    count: int,
    xs: Sequence[np.ndarray],
    g_t: np.ndarray,
):
    """Per design of ``xs`` and per level, the _information terms
    (information (R, p, p), right side (R, p)) of GLS fits to the noise
    alone, v + eps and Dt + s + eta, on the next ``count`` replicates of
    ``streams``, with the run's teacher precisions ``g_t``: a list of
    [teacher, student] per design, which estimator_variance_study holds in
    its fit buffer until _solve_block.  A replicate's responses uniforms
    give a teacher block and then a student block of normals.  One pair
    count and one student solve on s + eta give G and D' Sigma^-1 (s + eta),
    and the right sides G_t(v + eps) and Gt + D' Sigma^-1 (s + eta), formed
    once, serve every design."""
    tvc, svc, layout = config.teacher_vc, config.student_vc, config.layout
    m = max(layout.m)
    v, eps, t_size = _teacher_slots(layout.m)
    t, s, eta, s_size = _student_slots(layout.m, layout.n)
    sizes = _stream_sizes(config)
    picks = _picks(
        config.policy, layout.m, layout.n, streams.assignment.random((count, sizes.assignment))
    )
    u = streams.responses.random((count, sizes.responses))
    z_t = _normals(u[:, : _paired(t_size)], t_size)
    z_s = _normals(u[:, _paired(t_size) :], s_size)
    del u  # freed, as z_s is below, before the Gram, where the chunk peaks
    # each student's offset in its school's run; a padded teacher's noise is
    # 0, as it has no precision row and no student
    student = np.arange(sum(layout.n)) - np.repeat(np.cumsum(layout.n) - layout.n, layout.n)
    school = np.repeat(np.arange(layout.a), layout.n)
    v_noise = np.sqrt(tvc.sigma_v2) * z_t[:, v, None]
    eps_noise = np.sqrt(tvc.sigma_eps2) * _school_keys(z_t, eps, layout.m, m, 0.0)
    t_noise = np.sqrt(svc.sigma_t2) * _school_keys(z_s, t, layout.m, m, 0.0)
    # s_i + eta_is, the one response column of every design's student solve
    noise = np.sqrt(svc.sigma_eta2) * z_s[:, np.repeat(eta, layout.n) + student]
    noise += np.sqrt(svc.sigma_s2) * z_s[:, s][:, school]
    del z_s
    g_z = _gram_precision(_pick_gram(picks, layout.n, m, noise), svc)
    g_s = g_z[..., :m]
    # C order: the noise is laid out replicate axis fastest, and einsum
    # sums in its operands' memory order
    rhs_t = np.einsum("kij,...kj->...ki", g_t, np.add(v_noise, eps_noise, order="C"))
    rhs_s = g_z[..., m] + np.einsum("...kij,...kj->...ki", g_s, np.ascontiguousarray(t_noise))
    return [[_information(x, g_t, rhs_t), _information(x, g_s, rhs_s)] for x in xs]


def _solve_block(held: Sequence[list]) -> np.ndarray:
    """The noise fits' treatment coefficients and the anticipated variances
    1/pivot (D, 2, 2, R) of the held chunks' _study_chunk terms, in run
    order: one _gls_solve per design and level over all their replicates."""
    out = []
    for design_terms in zip(*held):
        out.append([])
        for level, terms in zip(LEVELS, zip(*design_terms)):
            info, b = (np.concatenate(parts) for parts in zip(*terms))
            coef, _, pivot = _gls_solve(info, b, _RESIDUAL[level])
            out[-1].append((coef[:, TREATMENT_COLUMN], 1.0 / pivot))
    return np.array(out)


@dataclass(frozen=True)
class EstimatorLevelStudy:
    """Monte Carlo check of one level's GLS estimator against the analytic
    anticipated variance: the mean and variance of the estimate's error
    (the noise fit's coefficient) over ``n_used`` replicates, the true
    coefficient delta/2 and compare's mean anticipated variance."""

    truth: float
    mean_error: float
    coef_variance: float
    anticipated_mean: float
    n_used: int

    @property
    def coef_mean(self) -> float:
        return self.truth + self.mean_error

    @property
    def variance_ratio(self) -> float:
        return self.coef_variance / self.anticipated_mean

    @property
    def mean_error_z(self) -> float:
        return abs(self.mean_error) / np.sqrt(self.coef_variance / self.n_used)


def estimator_variance_study(
    configs: Sequence[SimulationConfig],
) -> list[dict[str, EstimatorLevelStudy | None]]:
    """GLS-estimate synthetic responses per replicate, one {level: study} per
    config, in order.

    Uses the draws of the anticipated-variance path, so the Monte Carlo
    variance of the treatment coefficient compares 1:1 with the mean
    anticipated variance, simulate_anticipated_variance's mean bit for bit.
    The fits take the noise alone (see _study_chunk), and the truth delta/2,
    delta the effect size (1 when unset), enters only ``coef_mean``, so the
    errors' mean and variance (_scaled) keep their digits at any scale.  The
    configs differ only in their design and run in lockstep on one draw of
    the picks and the normals (see _lockstep); each design equals, bit for
    bit, a run of that design alone.
    Replicates whose treatment direction is singular at a level are
    skipped; a level with fewer than two left is None.  The chunks' GLS
    terms wait in a fit buffer until it holds _CHUNK_BYTES, and at the end;
    each flush solves every design and level once (_solve_block), which
    changes no bit.  An indefinite information raises a FieldError naming
    the level's residual component, with the lowest eigenvalue of the
    buffer it was found in.
    """
    chunks = _lockstep(configs)
    first = configs[0]
    delta = first.effect_size_diff if first.effect_size_diff is not None else 1.0
    g_t = _teacher_precisions(first.layout.m, first.teacher_vc)
    blocks, held, size = [], [], 0
    for chunk in chunks:
        held.append(_study_chunk(first, *chunk, g_t))
        size += sum(info.nbytes + b.nbytes for terms in held[-1] for info, b in terms)
        if size >= _CHUNK_BYTES:
            blocks.append(_solve_block(held))
            held, size = [], 0
    if held:
        blocks.append(_solve_block(held))
    fits = np.concatenate(blocks, axis=-1)
    studies = []
    for design_fits in fits:
        studies.append({})
        for level, (errors, anticipated) in zip(LEVELS, design_fits):
            used = ~np.isnan(errors)
            studies[-1][level] = None if used.sum() < 2 else EstimatorLevelStudy(
                truth=delta / 2.0,
                mean_error=_scaled(np.mean, errors[used]),
                coef_variance=_scaled(np.var, errors[used], degree=2, ddof=1),
                anticipated_mean=_scaled(np.mean, anticipated[used]),
                n_used=int(used.sum()),
            )
    return studies
