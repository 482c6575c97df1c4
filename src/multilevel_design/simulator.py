"""Monte Carlo engine for the anticipated-variance distribution.

The engine has two entries, one per mode: simulate_anticipated_variance
(simulate and compare) and estimator_variance_study (validate).  Each takes
a run's SimulationConfigs, which differ only in their design, runs them in
lockstep through one run loop (_run), reads its per-replicate record and
returns one result per config, in order.  Neither raises for a
non-estimable replicate: its variance is NaN, and a study level with fewer
than two estimable replicates is None.

This is the one module that decodes stream layout v3.  Each purpose has
one stream keyed by (seed, purpose), not by design, of which a replicate
takes K uniforms from offset r*K, school by school; _school_keys reads each
school's run, and the one-school draws (draw_assignment,
draw_randomization, draw_contamination) decode the same uniforms from any
Generator.  A run makes each stream once and draws its chunks in order, so
chunking changes no result, and its designs share their assignment draws,
common random numbers.

Replicates run in chunks under a memory cap.  A replicate only draws, into
arrays: its assignment uniforms and each teacher's +-1 randomization and
contamination, schools padded to the largest.  With replacement, each
school's Gram [1 D]'[1 D] comes without an n x m D, from one bincount of the
codes of each student's teacher-pick pairs, and one kernel call a chunk
gives its student precisions.  Balanced and single_course solve the kernel
once per run, as the teacher's, on the slot Gram of the fixed balanced
rows, and carry G onto each replicate's teachers through its slot table in
O(m^2).  Every design of a chunk shares its G; one matmul over the
schools' rows per level gives the information.  The chunks' informations
wait in a buffer of up to _CHUNK_BYTES, pivoted a block at a time per
design and level: a run holds one block, and the small-matrix routines run
once per few thousand replicates, not once per chunk of a few.

The study's chunks (_study_chunk) GLS-fit Box-Muller noise of the
responses stream on the same draws, which validates the anticipated
variances against the Monte Carlo variance of an actual estimator: GLS is
linear and returns X beta's beta exactly, so the noise fit's treatment
coefficient is the estimate's error.  Its designs share each chunk's
picks, normals, pair count, student solve and both right sides, and read
compare's G, _information and 1/pivot; the buffer holds the right sides
too, and _treatment_pivot's elimination gives each coefficient with its
pivot.  It pairs each student's noise with its row of D, so it keeps the
ordered picks, as does draw_assignment.
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
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    TreatmentAssignment,
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
_LEVEL_COMPONENTS = (TeacherVarianceComponents, StudentVarianceComponents)


def draw_assignment(
    policy: AssignmentPolicy, m: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one n x m course-count matrix under the policy.

    balanced: every student takes c distinct teachers and every column sums
    to n*c/m.  Full passes over all c-subsets of teachers are dealt first;
    remainder student j takes teachers (c*j + k) mod m, k < c, which keeps
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
    otherwise per school a key per teacher, then one per student."""
    replacing = policy.kind is PolicyKind.WITH_REPLACEMENT
    return policy.c * sum(n) if replacing else sum(m) + sum(n)


def _picks(policy: AssignmentPolicy, m: tuple, n: tuple, u: np.ndarray) -> np.ndarray:
    """The (R, sum n, c) teacher indices ("picks") of every student, student
    by student, from the uniforms ``u`` (R, K) laid out school by school;
    row s of D counts student s's picks.  With replacement a pick is
    floor(u m_i) of one of the student's c consecutive uniforms; otherwise
    a stable argsort of uniform keys orders the students, who take the
    balanced rows through the replicate's slot table.  Only draw_assignment
    and validate pair a student with its row of D; a balanced G needs no
    student order (_relabeled)."""
    c, ms, ns = policy.c, np.asarray(m), np.asarray(n)
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        # m_i per uniform, cast as it multiplies, no float temporary; floor is
        # truncation here, and int32 holds m_i - 1 for every m_i <= 2**31
        scale = np.repeat(ms, ns * c)
        picks = np.multiply(u, scale, out=np.empty(u.shape, np.int32), casting="unsafe")
        return picks.reshape(len(u), -1, c)
    keys = _school_keys(u, np.cumsum(ms + ns) - ns, ns, ns.max())
    order = np.argsort(keys, axis=-1, kind="stable")
    school = np.repeat(np.arange(len(ms)), ns)
    slots = _balanced_slots(m, n, c)[school, order[:, np.arange(ns.max()) < ns[:, None]]]
    return _slot_table(m, n, u)[np.arange(len(u))[:, None, None], school[:, None], slots]


def _slot_table(m: tuple, n: tuple, u: np.ndarray) -> np.ndarray:
    """Every school's (R, a, max m) teacher of each balanced slot, its relabeling:
    a stable argsort of its first m_i uniforms of ``u`` (R, K), a permutation
    of the max m slots (a padded slot keeps its own index)."""
    ms, ns = np.asarray(m), np.asarray(n)
    keys = _school_keys(u, np.cumsum(ms + ns) - (ms + ns), ms, ms.max())
    return np.argsort(keys, axis=-1, kind="stable")


@functools.lru_cache(maxsize=1)
def _balanced_slots(m: tuple, n: tuple, c: int) -> np.ndarray:
    """Every school's (max n, c) balanced rows as slots of _slot_table: full
    passes over the c-subsets, then the remainder's (c*j + k) mod m_i.
    Fixed per layout, so _slot_precision counts them once."""
    slots = np.zeros((len(m), max(n), c), dtype=np.intp)
    for i, (m_i, n_i) in enumerate(zip(m, n)):
        full, rest = divmod(n_i, math.comb(m_i, c))
        if full:
            subsets = np.array(list(itertools.combinations(range(m_i), c)))
            slots[i, : n_i - rest] = np.tile(subsets, (full, 1))
        slots[i, n_i - rest : n_i] = (c * np.arange(rest)[:, None] + np.arange(c)) % m_i
    slots.setflags(write=False)  # cached: every caller shares it
    return slots


def _slot_precision(config: SimulationConfig) -> np.ndarray | None:
    """A run's balanced or single_course student precision (a, max m, max m),
    None with replacement: the kernel on each school's Gram [1 S]'[1 S] of
    its balanced rows S over the slots of _slot_table, whose full passes no
    relabeling changes; nor does it change sigma_s2 J + sigma_t2 D D' + sigma_eta2 I."""
    layout, policy = config.layout, config.policy
    if policy.kind is PolicyKind.WITH_REPLACEMENT:
        return None
    real = np.arange(max(layout.n)) < np.array(layout.n)[:, None]
    slots = _balanced_slots(layout.m, layout.n, policy.c)[real][None]
    return _gram_precision(_pick_gram(slots, layout.n, max(layout.m))[0], config.student_vc)


def _tiled(layout: StudyLayout, c: int) -> np.ndarray:
    """Schools whose n_i is a multiple of C(m_i, c): no remainder rows to relabel."""
    return np.array([n_i % math.comb(m_i, c) == 0 for m_i, n_i in zip(layout.m, layout.n)])


def _relabeled(config: SimulationConfig, u: np.ndarray, g_slot: np.ndarray) -> np.ndarray:
    """Balanced or single_course G, (R, a, max m, max m), from assignment uniforms
    ``u`` (R, K): the run's _slot_precision ``g_slot``, on a school with
    remainder rows gathered at each teacher's slot in the replicate's slot table."""
    layout, m = config.layout, max(config.layout.m)
    rows = np.argsort(_slot_table(layout.m, layout.n, u), axis=-1)
    rows[:, _tiled(layout, config.policy.c)] = np.arange(m)
    return g_slot[np.arange(layout.a)[:, None, None], rows[..., :, None], rows[..., None, :]]


def _student_precisions(config: SimulationConfig, rng: np.random.Generator, count: int, g_slot):
    """Every school's G, (R, a, max m, max m), of the next ``count`` replicates
    of the assignment stream ``rng``: with replacement (``g_slot`` None) the kernel on
    the picks' Grams, else ``g_slot`` _relabeled, drawing nothing when every school is _tiled."""
    policy, layout = config.policy, config.layout
    shape = (count, _assignment_uniforms(policy, layout.m, layout.n))
    if g_slot is None:
        picks = _picks(policy, layout.m, layout.n, rng.random(shape))
        return _gram_precision(_pick_gram(picks, layout.n, max(layout.m)), config.student_vc)
    if _tiled(layout, policy.c).all():
        return np.broadcast_to(g_slot, (count,) + g_slot.shape)
    return _relabeled(config, rng.random(shape), g_slot)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs; immutable so replicates can share it.

    Construction rejects, with a FieldError naming the config field, any
    config whose replicates would all fail, in this order: a singular
    covariance or an overflowing kernel at either level (check_levels, the
    teacher's guard first; components of the wrong level raise TypeError
    there), a design parity violation, q outside the design's range, q = 1
    under within-school randomization, a policy that cannot fill the
    layout, balanced c = m under within-school randomization, or a
    replicate over _REPLICATE_BYTES_LIMIT.
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
    samples identical, or so close that 1/(h sqrt(2 pi)) overflows) return a
    point-mass marker at their mean instead of a grid.
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
    if h * np.sqrt(2.0 * np.pi) < 1.0 / np.finfo(float).max:  # a rounding-noise spread
        return DensityEstimate(grid=None, density=None, point_mass=_scaled(np.mean, samples))
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
    """Standard normal CDF of a 1-D array, 0.5 * erfc(-x / sqrt(2)) elementwise,
    filled in place: no Python list of the values."""
    y = -x / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, y), float, count=y.size)


@dataclass(frozen=True, eq=False)
class LevelResult:
    """Per-level anticipated variances, one per replicate and NaN where it is
    non-estimable, and the summaries of the finite ones, its ``samples``."""

    variances: np.ndarray
    mean: float
    sd: float
    density: DensityEstimate | None
    power: float | None

    @property
    def samples(self) -> np.ndarray:
        return self.variances[np.isfinite(self.variances)]

    @property
    def non_estimable(self) -> int:
        return self.variances.size - int(np.isfinite(self.variances).sum())


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
    return LevelResult(variances, mean, sd, density, power)


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
    designs; its responses uniforms and normals go uncounted.  So does the
    run loop's buffer in either mode, the _information terms of up to
    _CHUNK_BYTES of earlier chunks (p^2 numbers a design and level a
    replicate, p^2 + p with validate's right side: 192 and 288 bytes at
    q = 0 and three designs), held beside the chunk until they are pivoted.
    Balanced and single_course compare reads the run's G (_slot_gram_bytes):
    no picks, pair counts or solve."""
    return 8 * sum(layout.n) * (2 * c + math.comb(c, 2)), 64 * layout.a * (max(layout.m) + 2) ** 2


def _slot_gram_bytes(layout: StudyLayout) -> int:
    """Bytes of _slot_precision's slot Gram and G, a Gram and a G a school,
    beside a balanced or single_course chunk; the guard counts them as teachers'."""
    return 8 * layout.a * ((max(layout.m) + 1) ** 2 + max(layout.m) ** 2)


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
    NonEstimableError when the treatment pivot is singular; a singular
    other direction (an all-zero contamination column) gets the
    pseudo-inverse, which the engine never forms: this fit is the reference
    that the engine's elimination (_treatment_pivot) is checked against.
    """
    responses = [np.asarray(y, dtype=float) for y in responses]
    info, b = _information(*_school_stack(xs, vc, ds, responses))
    if np.isnan(_treatment_pivot(info)):
        raise NonEstimableError("the treatment direction of the GLS information is singular")
    cov = np.linalg.pinv(info, hermitian=True)
    return cov @ b, cov


def _study_chunk(config: SimulationConfig, streams: ReplicateStreams, count: int, g_t, g_slot):
    """The student precisions G (R, a, max m, max m) and the right sides
    (R, a, max m) of GLS fits to the noise alone, v + eps and Dt + s + eta,
    on the next ``count`` replicates of ``streams``, with the run's ``g_t``
    and ``g_slot``: (G, G_t(v + eps), Gt + D' Sigma^-1 (s + eta)), which
    serve every design of the chunk.  A replicate's responses uniforms give
    a teacher block and then a student block of normals.  One pair count
    and one student solve on s + eta give D' Sigma^-1 (s + eta) and, with
    replacement (``g_slot`` None), G (else ``g_slot`` _relabeled)."""
    tvc, svc, layout = config.teacher_vc, config.student_vc, config.layout
    m = max(layout.m)
    v, eps, t_size = _teacher_slots(layout.m)
    t, s, eta, s_size = _student_slots(layout.m, layout.n)
    sizes = _stream_sizes(config)
    u = streams.assignment.random((count, sizes.assignment))
    picks = _picks(config.policy, layout.m, layout.n, u)
    g_s = None if g_slot is None else _relabeled(config, u, g_slot)
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
    g_s = g_z[..., :m] if g_s is None else g_s
    # C order: the noise is laid out replicate axis fastest, and einsum
    # sums in its operands' memory order
    rhs_t = np.einsum("kij,...kj->...ki", g_t, np.add(v_noise, eps_noise, order="C"))
    rhs_s = g_z[..., m] + np.einsum("...kij,...kj->...ki", g_s, np.ascontiguousarray(t_noise))
    return g_s, rhs_t, rhs_s


def _solve_block(held: Sequence[list]) -> np.ndarray:
    """The anticipated variances 1/pivot and, where the held chunks' terms
    have right sides, the noise fits' treatment coefficients, (D, 2, k, R),
    of the held chunks' _information terms in run order: one
    _treatment_pivot call per design and level over all their replicates,
    whose elimination gives the coefficient too (and names the level's
    residual component for an indefinite information)."""
    out = []
    for design_terms in zip(*held):
        out.append([])
        for level, terms in zip(_LEVEL_COMPONENTS, zip(*design_terms)):
            info, *b = (np.concatenate(parts) for parts in zip(*terms))
            solved = _treatment_pivot(info, level.field(), *b)
            pivot, *coef = solved if b else (solved,)
            out[-1].append((1.0 / pivot, *coef))
    return np.array(out)


def _run(configs: Sequence[SimulationConfig], fit: bool = False) -> np.ndarray:
    """The one run loop: the record (D, 2, k, R) of every design, level and
    replicate, 1/pivot and, with ``fit``, the noise fit's treatment
    coefficient (k = 2).  The configs differ only in their design, so they
    share the assignment and responses streams, common random numbers, and
    each design draws its own randomization and contamination.  It makes
    the teacher precision and _slot_precision once, and per chunk one
    student precision (_student_precisions, or _study_chunk's with its right
    sides) serves every design.  The chunks' _information terms wait in a
    buffer until it holds _CHUNK_BYTES, and at the end; each flush pivots
    every design and level once (_solve_block), matrix by matrix, so the
    block changes no bit.  Raises ValueError, before any draw, for no configs
    or for configs that differ in more."""
    if not configs:
        raise ValueError("a run needs at least one config")
    first = configs[0]
    if any(replace(c, design=first.design) != first for c in configs):
        raise ValueError("the configs of one run may differ only in their design")
    streams = [replicate_streams(config, 0) for config in configs]
    g_t = _teacher_precisions(first.layout.m, first.teacher_vc)
    g_slot = _slot_precision(first)
    record = np.empty((len(configs), len(LEVELS), 1 + fit, first.replicates))
    held, size, start, stop = [], 0, 0, 0
    for count in _chunks(first):
        xs = [_design_chunk(c, s, count) for c, s in zip(configs, streams)]
        if fit:
            g_s, *rhs = _study_chunk(first, streams[0], count, g_t, g_slot)
        else:
            g_s, rhs = _student_precisions(first, streams[0].assignment, count, g_slot), (None, None)
        terms = [[_information(x, g, z) for g, z in zip((g_t, g_s), rhs)] for x in xs]
        held.append(terms if fit else [[(info,) for info in design] for design in terms])
        del g_s, rhs  # not held through the next chunk's draws, where a chunk peaks
        size += sum(a.nbytes for design in held[-1] for level in design for a in level)
        stop += count
        if size >= _CHUNK_BYTES or stop == first.replicates:
            record[..., start:stop] = _solve_block(held)
            held, size, start = [], 0, stop
    return record


def simulate_anticipated_variance(configs: Sequence[SimulationConfig]) -> list[SimulationResult]:
    """Distribution of the anticipated treatment variance at both levels, one
    result per config, in order.

    The configs differ only in their design and run in lockstep through
    the run loop (_run): per chunk one student precision
    (_student_precisions) serves every design, and each design gets its own
    pivot and summaries, equal bit for bit to a run of that design alone.
    Deterministic given (seed, config): replicate r always consumes the same
    uniforms of each purpose's stream.  A replicate whose treatment
    direction is singular at a level is NaN there and counts as
    non-estimable; nothing is raised for it.  An indefinite information
    raises a FieldError naming the level's residual component, with the
    lowest eigenvalue of the block it was found in.
    """
    results = []
    for config, design in zip(configs, _run(configs)):
        levels = [_summarize_level(v, config.effect_size_diff, config.alpha) for v in design[:, 0]]
        results.append(SimulationResult(config, *levels))
    return results


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
    the picks and the normals through the run loop (_run), which also adds
    the right sides to the terms it pivots per block; each design equals,
    bit for bit, a run of that design alone.
    Replicates whose treatment direction is singular at a level are
    skipped; a level with fewer than two left is None.  An indefinite
    information raises a FieldError naming the level's residual component,
    with the lowest eigenvalue of the block it was found in.
    """
    record = _run(configs, fit=True)
    delta = 1.0 if configs[0].effect_size_diff is None else configs[0].effect_size_diff
    studies = []
    for design in record:
        studies.append({})
        for level, (anticipated, errors) in zip(LEVELS, design):
            used = ~np.isnan(errors)
            studies[-1][level] = None if used.sum() < 2 else EstimatorLevelStudy(
                truth=delta / 2.0,
                mean_error=_scaled(np.mean, errors[used]),
                coef_variance=_scaled(np.var, errors[used], degree=2, ddof=1),
                anticipated_mean=_scaled(np.mean, anticipated[used]),
                n_used=int(used.sum()),
            )
    return studies
