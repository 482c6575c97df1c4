"""Tests for assignment draws, the Monte Carlo engine, GLS validation, KDE."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from multilevel_design import (
    AssignmentPolicy,
    DesignKind,
    FieldError,
    NonEstimableError,
    PolicyKind,
    SimulationConfig,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    design_matrices,
    draw_assignment,
    draw_contamination,
    draw_randomization,
    empirical_power,
    estimator_variance_study,
    gls_estimate,
    kde_density,
    simulate_anticipated_variance,
    student_information,
    teacher_information,
    treatment_variance,
)
from multilevel_design import simulator
from multilevel_design.model_core import (
    _gram_precision,
    _information,
    _symmetric,
    _teacher_precisions,
)
from multilevel_design.simulator import replicate_streams

from oracles import (
    balanced_assignment_loop,
    dense_info,
    dense_student_info,
    generate_student_responses,
    generate_teacher_responses,
    student_cov,
    teacher_cov,
    with_replacement_assignment_loop,
)

PILOT_TEACHER = TeacherVarianceComponents(1.6, 14.4)
PILOT_STUDENT = StudentVarianceComponents(1.6, 14.4, 14.4)

D1 = DesignKind.RANDOMIZE_SCHOOLS
D2 = DesignKind.RANDOMIZE_WITHIN_SCHOOLS
D3 = DesignKind.COMPLETELY_RANDOMIZED


def make_config(**overrides):
    defaults = dict(
        layout=StudyLayout(a=4, m=4, n=8),
        teacher_vc=PILOT_TEACHER,
        student_vc=PILOT_STUDENT,
        design=D2,
        policy=AssignmentPolicy.with_replacement(2),
        replicates=60,
        seed=20090216,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def public_draws(config, rep):
    """Replicate ``rep``'s (D, X) through the public one-school draw functions,
    called in school order on each purpose's stream advanced to ``rep``."""
    streams = replicate_streams(config, rep)
    ds = [
        draw_assignment(config.policy, m_i, n_i, streams.assignment)
        for m_i, n_i in zip(config.layout.m, config.layout.n)
    ]
    assignment = draw_randomization(config.design, config.layout, streams.randomization)
    if config.effective_q > 0.0:
        assignment = draw_contamination(
            assignment, config.effective_q, streams.contamination, kind=config.design
        )
    return ds, design_matrices(assignment)


def fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's package
    and return the last line of its standard output."""
    src = os.path.dirname(os.path.dirname(simulator.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return done.stdout.strip().splitlines()[-1]


class TestAssignmentPolicy:
    def test_balanced_divisibility(self):
        policy = AssignmentPolicy.balanced(2)
        policy.check_school(4, 8)
        with pytest.raises(ValueError, match="divisible"):
            policy.check_school(4, 7)
        with pytest.raises(ValueError, match="c <= m"):
            AssignmentPolicy.balanced(5).check_school(4, 20)

    def test_single_course_divisibility(self):
        policy = AssignmentPolicy.single_course()
        policy.check_school(2, 4)
        with pytest.raises(ValueError, match="divisible"):
            policy.check_school(3, 4)

    def test_single_course_c_fixed(self):
        with pytest.raises(ValueError):
            AssignmentPolicy(kind=AssignmentPolicy.single_course().kind, c=2)


    def test_non_integer_c_rejected(self):
        with pytest.raises(FieldError) as err:
            AssignmentPolicy.with_replacement(2.5)
        assert err.value.field == "assignment.c"

    def test_errors_name_assignment_c(self):
        with pytest.raises(FieldError) as err:
            AssignmentPolicy(kind=PolicyKind.SINGLE_COURSE, c=2)
        assert err.value.field == "assignment.c"
        for m, n, c in ((4, 20, 5), (4, 7, 2)):
            with pytest.raises(FieldError) as err:
                AssignmentPolicy.balanced(c).check_school(m, n)
            assert err.value.field == "assignment.c"


class TestDrawAssignment:
    def test_balanced_row_and_column_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = draw_assignment(AssignmentPolicy.balanced(2), 4, 4, rng)
            np.testing.assert_array_equal(d.sum(axis=1), 2)
            np.testing.assert_array_equal(d.sum(axis=0), 2)
            assert set(np.unique(d)) <= {0.0, 1.0}

    def test_balanced_subset_uniform_is_pairwise_balanced(self):
        # with n = C(m, c) every pair of teachers shares the same number of
        # students, so D'D = alpha*I + beta*J exactly
        rng = np.random.default_rng(2)
        m, c, n = 4, 2, 6
        for _ in range(10):
            d = draw_assignment(AssignmentPolicy.balanced(c), m, n, rng)
            gram = d.T @ d
            alpha = n * c / m * (m - c) / (m - 1)
            beta = n * c * (c - 1) / (m * (m - 1))
            np.testing.assert_allclose(gram, alpha * np.eye(m) + beta * np.ones((m, m)))

    def test_balanced_large_uneven_case(self):
        rng = np.random.default_rng(3)
        d = draw_assignment(AssignmentPolicy.balanced(2), 8, 200, rng)
        np.testing.assert_array_equal(d.sum(axis=1), 2)
        np.testing.assert_array_equal(d.sum(axis=0), 50)

    def test_with_replacement_totals_and_repeats(self):
        rng = np.random.default_rng(4)
        seen_repeat = False
        for _ in range(50):
            d = draw_assignment(AssignmentPolicy.with_replacement(2), 4, 20, rng)
            np.testing.assert_array_equal(d.sum(axis=1), 2)
            seen_repeat = seen_repeat or bool((d >= 2).any())
        assert seen_repeat  # the same teacher can be drawn twice

    def test_single_course_column_sums(self):
        rng = np.random.default_rng(5)
        d = draw_assignment(AssignmentPolicy.single_course(), 2, 4, rng)
        np.testing.assert_array_equal(d.sum(axis=0), [2, 2])
        np.testing.assert_array_equal(d.sum(axis=1), 1)

    @pytest.mark.parametrize(
        "m,n,c", [(8, 196, 2), (4, 6, 2), (6, 10, 3), (8, 8, 1), (4, 8, 4), (5, 15, 2)]
    )
    def test_balanced_matches_per_student_loop(self, m, n, c):
        # same generator calls in the same order, so the same matrix bit for bit
        for seed in range(20):
            got = draw_assignment(AssignmentPolicy.balanced(c), m, n, np.random.default_rng(seed))
            expected = balanced_assignment_loop(m, n, c, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, expected)

    def test_with_replacement_matches_per_pick_loop(self):
        for seed in range(20):
            for m, n, c in ((8, 200, 2), (4, 9, 3), (3, 5, 1)):
                policy = AssignmentPolicy.with_replacement(c)
                got = draw_assignment(policy, m, n, np.random.default_rng(seed))
                expected = with_replacement_assignment_loop(m, n, c, np.random.default_rng(seed))
                np.testing.assert_array_equal(got, expected)

    def test_balanced_slots_cache_keeps_the_last_layout(self):
        # a large layout's balanced slots must not outlive the next layout's draw
        rng = np.random.default_rng(0)
        draw_assignment(AssignmentPolicy.balanced(2), 4, 8, rng)
        draw_assignment(AssignmentPolicy.balanced(2), 6, 9, rng)
        assert simulator._balanced_slots.cache_info().currsize == 1


class TestReplicateStreams:
    def test_deterministic_per_replicate(self):
        config = make_config(seed=123)
        a = replicate_streams(config, 7)
        b = replicate_streams(config, 7)
        assert a.assignment.random() == b.assignment.random()
        assert a.responses.random() == b.responses.random()

    def test_distinct_across_replicates_and_purposes(self):
        config = make_config(seed=123)
        a = replicate_streams(config, 7)
        b = replicate_streams(config, 8)
        assert a.assignment.random() != b.assignment.random()
        c = replicate_streams(config, 9)
        assert len({s.random() for s in c}) == 4

    def test_keyed_by_seed_and_purpose_only(self):
        # replicate r of a purpose is the block at offset r*K of one stream,
        # whatever the layout that sets K
        small, large = make_config(), make_config(layout=StudyLayout(a=6, m=4, n=30))
        for s, t in zip(replicate_streams(small, 0), replicate_streams(large, 0)):
            assert s.random() == t.random()


class TestSimulate:
    def test_design1_teacher_point_mass(self):
        config = make_config(design=D1, replicates=40)
        result = simulate_anticipated_variance([config])[0]
        expected = (14.4 + 1.6 * 4) / (4 * 4)
        np.testing.assert_allclose(result.teacher.samples, expected, rtol=1e-12)
        assert result.teacher.sd == 0.0
        assert result.teacher.non_estimable == 0
        assert result.teacher.density.is_point_mass

    def test_design2_c_equals_m_rejected(self):
        # every student takes every teacher, so D r = 0 in every school and
        # no within-school replicate could reach the student level
        with pytest.raises(ValueError, match="never estimable"):
            make_config(design=D2, policy=AssignmentPolicy.balanced(4))
        # the other designs keep treatment information between schools
        configs = [
            make_config(design=design, policy=AssignmentPolicy.balanced(4), replicates=30)
            for design in (D1, D3)
        ]
        for result in simulate_anticipated_variance(configs):
            assert result.teacher.non_estimable == 0
            assert result.student.non_estimable < 30

    def test_design3_teacher_mean_information(self):
        config = make_config(
            design=D3,
            layout=StudyLayout(a=16, m=8, n=1),
            replicates=6000,
            seed=31415,
        )
        result = simulate_anticipated_variance([config])[0]
        mean_info = np.mean(1.0 / result.teacher.samples)
        assert mean_info == pytest.approx(8.394832998816323, rel=0.01)

    def test_deterministic_given_seed(self):
        config = make_config(replicates=50, q=0.5)
        r1 = simulate_anticipated_variance([config])[0]
        r2 = simulate_anticipated_variance([config])[0]
        np.testing.assert_array_equal(r1.teacher.variances, r2.teacher.variances)
        np.testing.assert_array_equal(r1.student.variances, r2.student.variances)

    def test_oracle_closure_small_crd(self):
        # exhaustive enumeration of the C(4, 2) pooled randomizations gives
        # the full support of the anticipated-variance distribution
        import itertools

        m, a = 2, 2
        vinv = np.linalg.inv(teacher_cov(m, 1.6, 14.4))
        support = {}
        for treated in itertools.combinations(range(m * a), m * a // 2):
            pooled = -np.ones(m * a)
            pooled[list(treated)] = 1.0
            rs = [pooled[i * m : (i + 1) * m] for i in range(a)]
            xs = [np.column_stack([np.ones(m), r]) for r in rs]
            info = sum(x.T @ vinv @ x for x in xs)
            variance = np.linalg.inv(info)[1, 1]
            support[round(variance, 12)] = support.get(round(variance, 12), 0) + 1
        total = sum(support.values())

        config = make_config(
            design=D3,
            layout=StudyLayout(a=a, m=m, n=2),
            policy=AssignmentPolicy.single_course(),
            replicates=600,
            seed=99,
        )
        result = simulate_anticipated_variance([config])[0]
        keys = np.array(sorted(support))
        for sample in result.teacher.samples:
            assert np.isclose(keys, sample, rtol=1e-9).any()
        # every enumerated value appears, with frequencies near enumeration
        for value, count in support.items():
            hits = np.isclose(result.teacher.samples, value, rtol=1e-9).sum()
            frac = count / total
            sd = np.sqrt(frac * (1 - frac) / 600)
            assert abs(hits / 600 - frac) < 5 * sd

    def test_contamination_monotone_design2_design3(self):
        for design, q_hi in ((D2, 0.5), (D3, 0.5)):
            base = simulate_anticipated_variance(
                [make_config(design=design, replicates=400, q=0.0)]
            )[0]
            contaminated = simulate_anticipated_variance(
                [make_config(design=design, replicates=400, q=q_hi)]
            )[0]
            assert contaminated.teacher.mean >= base.teacher.mean
            assert contaminated.student.mean >= base.student.mean

    def test_contamination_no_effect_design1(self):
        base = simulate_anticipated_variance([make_config(design=D1, replicates=60, q=0.0)])[0]
        shifted = simulate_anticipated_variance([make_config(design=D1, replicates=60, q=0.5)])[0]
        np.testing.assert_array_equal(base.teacher.variances, shifted.teacher.variances)
        np.testing.assert_array_equal(base.student.variances, shifted.student.variances)

    def test_power_reported_with_effect_size(self):
        config = make_config(replicates=50, effect_size_diff=2.0)
        result = simulate_anticipated_variance([config])[0]
        assert 0.0 < result.teacher.power < 1.0
        assert 0.0 < result.student.power < 1.0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(design=D1),
            dict(design=D1, q=0.5),
            dict(design=D2),
            dict(design=D2, q=0.5),
            dict(design=D3),
            dict(design=D3, q=0.5),
            dict(design=D3, layout=StudyLayout(a=4, m=(4, 6, 4, 6), n=(30, 41, 30, 41)), q=0.5),
            dict(design=D2, layout=StudyLayout(a=4, m=(4, 6, 4, 6), n=(30, 41, 30, 41))),
            dict(policy=AssignmentPolicy.with_replacement(1), layout=StudyLayout(a=4, m=4, n=2)),
            dict(student_vc=StudentVarianceComponents(0.0, 14.4, 14.4)),
            dict(student_vc=StudentVarianceComponents(1.6, 0.0, 14.4)),
            dict(design=D3, policy=AssignmentPolicy.balanced(2), layout=StudyLayout(a=2, m=2, n=4)),
        ],
        ids=[
            "schools",
            "schools-q0.5",
            "within",
            "within-q0.5",
            "crd",
            "crd-q0.5",
            "heterogeneous-crd-q0.5",
            "heterogeneous-within",
            "idle_teacher",
            "sigma_s2_zero",
            "sigma_t2_zero",
            "some_non_estimable",
        ],
    )
    def test_engine_matches_public_path(self, overrides):
        # the batched engine against teacher/student_information plus
        # treatment_variance on the same draws, one replicate at a time
        config = make_config(**{"replicates": 20, **overrides})
        result = simulate_anticipated_variance([config])[0]
        expected = {"teacher": [], "student": []}
        for rep in range(config.replicates):
            ds, xs = public_draws(config, rep)
            infos = {
                "teacher": teacher_information(xs, config.teacher_vc),
                "student": student_information(xs, ds, config.student_vc),
            }
            for level, info in infos.items():
                try:
                    expected[level].append(treatment_variance(info).variance)
                except NonEstimableError:
                    expected[level].append(np.nan)
        for level in ("teacher", "student"):
            np.testing.assert_allclose(
                result.level(level).variances, expected[level], rtol=1e-12
            )
        if config.policy.kind is PolicyKind.BALANCED:
            # crd with c = m = 2 in two schools: D r = 0 exactly when each
            # school has one treated teacher
            assert 0 < result.student.non_estimable < config.replicates

    def test_invalid_configs_rejected_before_running(self):
        with pytest.raises(ValueError):
            make_config(replicates=0)
        with pytest.raises(ValueError):
            make_config(alpha=1.0)
        with pytest.raises(ValueError, match="outside"):
            make_config(design=D3, q=0.9)
        with pytest.raises(ValueError, match="even teacher count"):
            make_config(layout=StudyLayout(a=4, m=3, n=6))


    def test_non_integer_replicates_rejected(self):
        with pytest.raises(FieldError) as err:
            make_config(replicates=2.5)
        assert err.value.field == "replicates"

    def test_covariance_blamed_before_design(self):
        # two faults: the order of SimulationConfig's checks picks the field
        with pytest.raises(FieldError) as err:
            make_config(teacher_vc=TeacherVarianceComponents(1.6, 0.0), q=1.0)
        assert err.value.field == "teacher_vc.sigma_eps2"

    @pytest.mark.parametrize(
        "swap, expected",
        [
            (dict(teacher_vc=PILOT_STUDENT), "expected TeacherVarianceComponents"),
            (dict(student_vc=PILOT_TEACHER), "expected StudentVarianceComponents"),
        ],
    )
    def test_components_of_the_wrong_level_rejected(self, swap, expected):
        # the TypeError of the one-school functions, not an AttributeError
        with pytest.raises(TypeError, match=expected):
            make_config(**swap)

    def test_indefinite_information_names_the_level_residual(self):
        # replicate 19's student information is indefinite in floating point
        # at sigma_eta2 / (n sigma_s2 + c^2 sigma_t2) of about 2.5e-10: inside
        # the engine it names sigma_eta2, while treatment_variance keeps a
        # plain ValueError
        config = make_config(
            layout=StudyLayout(a=2, m=4, n=3),
            teacher_vc=TeacherVarianceComponents(0.0, 1000.0),
            student_vc=StudentVarianceComponents(1.0, 1000.0, 1e-6),
            replicates=20,
            seed=49,
        )
        for engine in (simulate_anticipated_variance, estimator_variance_study):
            with pytest.raises(FieldError, match="not PSD") as err:
                engine([config])
            assert err.value.field == "student_vc.sigma_eta2"
        with pytest.raises(ValueError, match="not PSD") as err:
            treatment_variance(np.diag([1.0, -1.0]))
        assert not isinstance(err.value, FieldError)


class TestChunkedEngine:
    CONFIGS = {
        "with_replacement": dict(design=D3),
        "balanced_contaminated": dict(design=D2, policy=AssignmentPolicy.balanced(2), q=0.5),
        "single_course": dict(design=D1, policy=AssignmentPolicy.single_course()),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_chunking_changes_no_result(self, name, monkeypatch):
        # replicate r draws from its own streams, so the chunk size and the
        # run length change no variance and no GLS fit, bit for bit
        config = make_config(replicates=23, effect_size_diff=1.0, **self.CONFIGS[name])
        runs, studies = [], []
        for chunk in (1, 7, config.replicates):
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", chunk * simulator._replicate_bytes(config))
            assert simulator._chunks(config)[0] == chunk
            runs.append(simulate_anticipated_variance([config])[0])
            studies.append(estimator_variance_study([config])[0])
        monkeypatch.undo()
        short = simulate_anticipated_variance([make_config(replicates=9, **self.CONFIGS[name])])[0]
        for level in ("teacher", "student"):
            full = runs[0].level(level).variances
            for run in runs[1:]:
                np.testing.assert_array_equal(run.level(level).variances, full)
            np.testing.assert_array_equal(short.level(level).variances, full[:9])
        assert studies[1] == studies[0] and studies[2] == studies[0]

    @pytest.mark.parametrize("m, n, c", [(8, 200, 2), (3, 7, 3), (5, 1, 1), (2, 9, 4)])
    def test_advanced_stream_equals_sequential_draw(self, m, n, c):
        # a purpose stream advanced to r*K gives, bit for bit, row r of one
        # sequential random((R, K)) draw from replicate 0
        config = make_config(
            layout=StudyLayout(a=4, m=m, n=n),
            design=D3,
            policy=AssignmentPolicy.with_replacement(c),
            q=0.3,
        )
        sizes = simulator._stream_sizes(config)
        assert sizes.assignment == 4 * n * c
        blocks = [rng.random((6, k)) for rng, k in zip(replicate_streams(config, 0), sizes)]
        for rep in range(6):
            for rng, k, block in zip(replicate_streams(config, rep), sizes, blocks):
                np.testing.assert_array_equal(rng.random(k), block[rep])

    def test_largest_uniform_picks_below_m(self):
        # floor(u m) < m at u = nextafter(1, 0) for every m up to 2**31
        ms = (1, 3, 5, 7, 10, 999) + tuple(2**k + d for k in range(1, 32) for d in (-1, 0, 1))
        ms = tuple(m for m in ms if m <= 2**31)
        top = np.full((1, len(ms)), np.nextafter(1.0, 0.0))
        picks = simulator._picks(AssignmentPolicy.with_replacement(1), ms, (1,) * len(ms), top)
        np.testing.assert_array_equal(picks[0, :, 0], np.array(ms) - 1)
        # at c = 2 each school's m_i scales both of its students' uniforms
        top = np.full((1, 2 * len(ms)), np.nextafter(1.0, 0.0))
        picks = simulator._picks(AssignmentPolicy.with_replacement(2), ms, (1,) * len(ms), top)
        np.testing.assert_array_equal(picks[0], np.repeat(np.array(ms)[:, None] - 1, 2, axis=1))

    def test_box_muller_finite_at_the_ends(self):
        # log(1 - u) is 0 at u = 0 and about -36.7 at the largest uniform
        for u in (0.0, np.nextafter(1.0, 0.0)):
            assert np.all(np.isfinite(simulator._normals(np.full(4, u), 4)))
        np.testing.assert_array_equal(simulator._normals(np.zeros(2), 2), [0.0, 0.0])

    def test_odd_normal_count_discards_its_spare(self):
        # a block of k normals takes 2 ceil(k/2) uniforms and drops the spare
        u = np.random.default_rng(5).random(9)
        np.testing.assert_array_equal(simulator._normals(u[:8], 7), simulator._normals(u[:8], 8)[:7])
        xs = [np.ones((2, 2)), np.ones((3, 2))]  # (2 + 1) + (3 + 1) = 7 normals
        rng = np.random.default_rng(5)
        t_resp = generate_teacher_responses(xs, PILOT_TEACHER, np.zeros(2), rng)
        assert [len(t) for t in t_resp] == [2, 3]
        assert rng.random() == u[8]
        # the engine's replicate of that layout takes the same 8 uniforms for
        # its teacher block, then 12 for its 7 + 4 student normals
        config = make_config(layout=StudyLayout(a=2, m=(2, 3), n=(2, 2)), design=D1, replicates=1)
        assert simulator._stream_sizes(config).responses == 8 + 12
        streams = replicate_streams(config, 0)
        g_t = _teacher_precisions(config.layout.m, config.teacher_vc)
        xs = [simulator._design_chunk(config, streams, 1)]
        simulator._study_chunk(config, streams, 1, xs, g_t)
        assert streams.responses.random() == replicate_streams(config, 0).responses.random(21)[20]

    @pytest.mark.parametrize("m", [8, 40, 100])
    def test_chunk_gram_stays_under_cap(self, m):
        # with_replacement admits m much larger than n: the a x (m+1)^2
        # Grams, not the picks, are then a chunk's largest arrays
        config = make_config(layout=StudyLayout(a=16, m=m, n=10), replicates=500)
        gram_bytes = 8 * config.layout.a * (m + 1) ** 2
        for chunk in simulator._chunks(config):
            assert chunk == 1 or chunk * gram_bytes <= simulator._CHUNK_BYTES

    def test_validate_chunk_stays_under_cap(self):
        # the benchmark's validate layout: one chunk of three designs, its
        # arrays traced from the draws to the fits
        configs = [
            make_config(layout=StudyLayout(a=16, m=8, n=50), design=design, replicates=200)
            for design in (D1, D2, D3)
        ]
        count = simulator._chunks(configs[0])[0]
        assert count == 15
        streams = [replicate_streams(config, 0) for config in configs]
        xs = [simulator._design_chunk(c, s, count) for c, s in zip(configs, streams)]
        g_t = _teacher_precisions(configs[0].layout.m, configs[0].teacher_vc)
        tracemalloc.start()
        try:
            simulator._study_chunk(configs[0], streams[0], count, xs, g_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < simulator._CHUNK_BYTES


class TestHeterogeneousLayouts:
    @staticmethod
    def _check_padded_engine(config):
        """The engine's information of every replicate against the public
        path, the first replicate's against dense inverses of each school's
        covariance, and zero design and precision rows for padded teachers."""
        m, count = config.layout.m, config.replicates
        x = simulator._design_chunk(config, replicate_streams(config, 0), count)
        stream = replicate_streams(config, 0).assignment
        gram = simulator._assignment_gram(config.policy, config.layout, stream, count)
        g = _gram_precision(gram, config.student_vc)
        g_t = _teacher_precisions(m, config.teacher_vc)
        infos = np.stack([_information(x, g_t), _information(x, _symmetric(g))])
        for rep in range(count):
            ds, xs = public_draws(config, rep)
            expected = (
                teacher_information(xs, config.teacher_vc),
                student_information(xs, ds, config.student_vc),
            )
            for got, want in zip(infos[:, rep], expected):
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        ds, xs = public_draws(config, 0)
        t_covs = [teacher_cov(m_i, 1.6, 14.4) for m_i in m]
        s_covs = [student_cov(d, 1.6, 14.4, 14.4) for d in ds]
        for got, want in zip(infos[:, 0], (dense_info(xs, t_covs), dense_student_info(xs, ds, s_covs))):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

        for i, m_i in enumerate(m):
            assert np.all(x[:, i, m_i:] == 0.0)
            assert np.all(g[:, i, m_i:] == 0.0) and np.all(g[:, i, :, m_i:] == 0.0)

    def test_padded_engine_matches_public_path(self):
        # per-school m in {2, 4, 6, 8} and varied n: the engine pads schools
        # with idle teachers, the public path takes one D per school
        rng = np.random.default_rng(20240601)
        for trial in range(12):
            a = int(rng.integers(2, 6))
            m = tuple(int(v) for v in rng.choice([2, 4, 6, 8], size=a))
            n = tuple(int(v) for v in rng.integers(1, 40, size=a))
            config = make_config(
                layout=StudyLayout(a=a, m=m, n=n),
                design=(D1, D2, D3)[trial % 3] if a % 2 == 0 else (D2, D3)[trial % 2],
                q=0.3 if trial % 4 == 0 else 0.0,
                replicates=6,
                seed=trial,
            )
            self._check_padded_engine(config)

        # balanced c = 2 on n_i a multiple of m_i / 2 (often not of
        # C(m_i, 2), so the remainder rows run; m_i > 2, so within_schools
        # can estimate the student level) and single_course on multiples of
        # m_i; trial 8 of each is crd with contamination
        remainder_rows = False
        for policy, low in ((AssignmentPolicy.balanced(2), 4), (AssignmentPolicy.single_course(), 2)):
            rng = np.random.default_rng(20240602)
            for trial in range(12):
                a = int(rng.integers(2, 6))
                m = tuple(int(v) for v in rng.choice(range(low, 10, 2), size=a))
                k = rng.integers(1, 13 if policy.c == 2 else 6, size=a)
                n = tuple(int(m_i // policy.c * k_i) for m_i, k_i in zip(m, k))
                if policy.kind is PolicyKind.BALANCED:
                    remainder_rows |= any(n_i % math.comb(m_i, 2) for m_i, n_i in zip(m, n))
                config = make_config(
                    layout=StudyLayout(a=a, m=m, n=n),
                    design=(D1 if a % 2 == 0 else D3, D2, D3)[trial % 3],
                    policy=policy,
                    q=0.3 if trial % 4 == 0 else 0.0,
                    replicates=6,
                    seed=trial,
                )
                self._check_padded_engine(config)
        assert remainder_rows

    @pytest.mark.parametrize(
        "m, n, policy",
        [
            ((4, 6, 8), (12, 9, 20), AssignmentPolicy.balanced(2)),
            ((6, 4), (14, 8), AssignmentPolicy.balanced(3)),
            ((8, 8), (20, 36), AssignmentPolicy.balanced(4)),
            ((3, 3), (5, 7), AssignmentPolicy.balanced(3)),
            ((8,) * 16, (196,) * 16, AssignmentPolicy.balanced(2)),
            ((5, 7), (15, 21), AssignmentPolicy.single_course()),
        ],
    )
    def test_slot_gram_equals_pick_gram(self, m, n, policy):
        # the Gram carried from the cached slot Gram through the slot table
        # counts exactly what the ordered picks count, padded teachers included
        layout = StudyLayout(a=len(m), m=m, n=n)
        u = np.random.default_rng(sum(n)).random((5, simulator._assignment_uniforms(policy, m, n)))
        want = simulator._pick_gram(simulator._picks(policy, m, n, u), n, max(m))
        got = simulator._assignment_gram(policy, layout, np.random.default_rng(sum(n)), 5)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "m, n, policy",
        [
            ((3, 5, 2), (7, 4, 9), AssignmentPolicy.with_replacement(1)),
            ((3, 5, 2), (7, 4, 9), AssignmentPolicy.with_replacement(2)),
            ((4, 4), (6, 6), AssignmentPolicy.with_replacement(2)),
            ((2, 6, 3), (5, 8, 1), AssignmentPolicy.with_replacement(3)),
            ((3, 5), (6, 9), AssignmentPolicy.with_replacement(4)),
            ((4, 6, 8), (12, 9, 20), AssignmentPolicy.balanced(2)),
            ((6, 4), (14, 8), AssignmentPolicy.balanced(3)),
            ((8, 5), (20, 5), AssignmentPolicy.balanced(4)),
            ((5, 7), (15, 21), AssignmentPolicy.single_course()),
        ],
    )
    def test_pick_gram_matches_dense_gram(self, m, n, policy):
        # the pair-code counts against [1 D]'[1 D y] of the oracle's D, from
        # the same uniforms, for one y column; without y the Gram is the
        # same but for that column; a padded teacher has a zero row and column
        c, top, reps = policy.c, max(m), 4
        u = np.random.default_rng(sum(n) + c).random(
            (reps, simulator._assignment_uniforms(policy, m, n))
        )
        y = np.random.default_rng(c).standard_normal((reps, sum(n)))
        picks = simulator._picks(policy, m, n, u)
        got = simulator._pick_gram(picks, n, top, y)
        assert got.shape == (reps, len(m), top + 1, top + 2)
        assert np.array_equal(got[..., : top + 1], simulator._pick_gram(picks, n, top))
        rng = np.random.default_rng(sum(n) + c)
        for rep in range(reps):
            ys = np.split(y[rep], np.cumsum(n)[:-1])
            for i, (m_i, n_i) in enumerate(zip(m, n)):
                if policy.kind is PolicyKind.WITH_REPLACEMENT:
                    d = with_replacement_assignment_loop(m_i, n_i, c, rng)
                else:
                    d = balanced_assignment_loop(m_i, n_i, c, rng)
                a_mat = np.zeros((n_i, top + 1))
                a_mat[:, 0], a_mat[:, 1 : m_i + 1] = 1.0, d
                want = a_mat.T @ np.column_stack([a_mat, ys[i]])
                assert np.array_equal(got[rep, i, :, : top + 1], want[:, : top + 1])
                np.testing.assert_allclose(
                    got[rep, i, :, top + 1 :], want[:, top + 1 :], rtol=1e-12, atol=1e-12
                )


    @pytest.mark.parametrize(
        "policy",
        [
            AssignmentPolicy.with_replacement(2),
            AssignmentPolicy.balanced(2),
            AssignmentPolicy.single_course(),
        ],
    )
    def test_gram_precision_columns_are_independent(self, policy):
        # the student kernel solves each right-hand column on its own, so
        # adding validate's noise column changes no digit of G
        m, n, reps = (2, 4, 6, 8), (6, 16, 30, 16), 5
        rng = np.random.default_rng(20261019)
        u = rng.random((reps, simulator._assignment_uniforms(policy, m, n)))
        y = rng.standard_normal((reps, sum(n)))
        top = max(m)
        gram = simulator._pick_gram(simulator._picks(policy, m, n, u), n, top, y)
        with_y = _gram_precision(gram, PILOT_STUDENT)
        assert with_y.shape == (reps, len(m), top, top + 1)
        assert np.array_equal(with_y[..., :top], _gram_precision(gram[..., :-1], PILOT_STUDENT))


class TestLockstepEngine:
    LAYOUTS = {
        "homogeneous": StudyLayout(a=4, m=4, n=8),
        "heterogeneous": StudyLayout(a=4, m=(2, 4, 6, 8), n=(5, 17, 30, 11)),
        "odd_schools": StudyLayout(a=3, m=(4, 6, 8), n=(12, 9, 20)),
    }
    POLICIES = {
        "with_replacement_1": AssignmentPolicy.with_replacement(1),
        "with_replacement_2": AssignmentPolicy.with_replacement(2),
        "with_replacement_3": AssignmentPolicy.with_replacement(3),
        "balanced_2": AssignmentPolicy.balanced(2),
        "single_course": AssignmentPolicy.single_course(),
    }

    @staticmethod
    def _configs(**overrides):
        """A config of every design the overrides admit."""
        configs = []
        for design in (D1, D2, D3):
            try:
                configs.append(make_config(design=design, **overrides))
            except FieldError:
                continue
        return configs

    def _lockstep_configs(self, layout, policy, q):
        """23 replicates of every design of a named layout and policy, with
        students doubled where balanced sections need n divisible by m."""
        layout, policy = self.LAYOUTS[layout], self.POLICIES[policy]
        if policy.kind is not PolicyKind.WITH_REPLACEMENT and any(
            n_i % m_i for m_i, n_i in zip(layout.m, layout.n)
        ):
            layout = StudyLayout(a=layout.a, m=layout.m, n=tuple(2 * m_i for m_i in layout.m))
        configs = self._configs(layout=layout, policy=policy, q=q, replicates=23)
        assert len(configs) >= 2
        return configs

    @pytest.mark.parametrize("q", [0.0, 0.3])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_lockstep_equals_one_design_at_a_time(self, layout, policy, q, monkeypatch):
        # the designs share the assignment draw, Gram and student precision
        # of each chunk but draw their own randomization and contamination,
        # so every variance equals a run of that design alone, bit for bit
        configs = self._lockstep_configs(layout, policy, q)
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", 7 * simulator._replicate_bytes(configs[0]))
        assert len(simulator._chunks(configs[0])) == 4
        results = simulate_anticipated_variance(configs)
        assert [result.config for result in results] == configs
        for config, result in zip(configs, results):
            alone = simulate_anticipated_variance([config])[0]
            for level in ("teacher", "student"):
                got, want = result.level(level), alone.level(level)
                np.testing.assert_array_equal(got.variances, want.variances)
                assert (got.mean, got.sd, got.power) == (want.mean, want.sd, want.power)

    @pytest.mark.parametrize("q", [0.0, 0.3])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_study_equals_one_design_at_a_time(self, layout, policy, q, monkeypatch):
        # validate's designs share each chunk's picks and normals but fit
        # their own GLS, so every summary equals a study of that design
        # alone; at q = 0.3 randomize_schools fits p = 2 beside p = 3
        configs = self._lockstep_configs(layout, policy, q)
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", 7 * simulator._replicate_bytes(configs[0]))
        assert len(simulator._chunks(configs[0])) == 4
        for config, study in zip(configs, estimator_variance_study(configs), strict=True):
            alone = estimator_variance_study([config])[0]
            for level in ("teacher", "student"):
                got, want = study[level], alone[level]
                if want is None:
                    assert got is None
                    continue
                assert (got.coef_mean, got.coef_variance) == (want.coef_mean, want.coef_variance)
                assert (got.anticipated_mean, got.n_used) == (want.anticipated_mean, want.n_used)

    def test_one_pair_count_and_one_solve_per_chunk(self, monkeypatch):
        # a validate chunk counts its picks and solves the student kernel
        # once for all its designs, on one noise column that they share
        configs = self._lockstep_configs("heterogeneous", "with_replacement_2", 0.3)
        assert len(configs) == 3
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", 7 * simulator._replicate_bytes(configs[0]))
        chunks = len(simulator._chunks(configs[0]))
        assert chunks >= 2
        calls = {"_pick_gram": 0, "_gram_precision": 0}
        for name in calls:

            def counted(*args, _name=name, _inner=getattr(simulator, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(simulator, name, counted)
        estimator_variance_study(configs)
        assert calls == {"_pick_gram": chunks, "_gram_precision": chunks}

    def test_one_gls_solve_per_block_of_chunks(self, monkeypatch):
        # the chunks' GLS terms wait in a buffer of up to _CHUNK_BYTES, so a
        # run that fits in it pivots and inverts once per design and level;
        # a cap that makes it solve more often changes no bit
        configs = self._lockstep_configs("heterogeneous", "with_replacement_2", 0.3)
        assert len(configs) == 3
        calls = {"_treatment_pivot": 0, "pinv": 0}
        for owner, name in ((simulator, "_treatment_pivot"), (np.linalg, "pinv")):

            def counted(*args, _name=name, _inner=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        studies = []
        # the terms take 480 bytes a replicate, so a 2,000-byte cap (one
        # replicate a chunk) solves after every fifth chunk and at the end
        for cap, solves in ((7 * simulator._replicate_bytes(configs[0]), 1), (2_000, 5)):
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", cap)
            assert len(simulator._chunks(configs[0])) > solves
            calls.update(_treatment_pivot=0, pinv=0)
            studies.append(estimator_variance_study(configs))
            per_solve = 2 * len(configs)
            assert calls == {"_treatment_pivot": per_solve * solves, "pinv": per_solve * solves}
        assert studies[1] == studies[0]

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=1),
            dict(replicates=59),
            dict(q=0.3),
            dict(policy=AssignmentPolicy.balanced(2)),
            dict(student_vc=StudentVarianceComponents(1.6, 14.4, 1.0)),
            dict(effect_size_diff=1.0),
        ],
    )
    def test_rejects_configs_that_differ_beyond_the_design(self, change):
        configs = [make_config(design=D1), make_config(design=D3, **change)]
        for engine in (simulate_anticipated_variance, estimator_variance_study):
            with pytest.raises(ValueError, match="only in their design"):
                engine(configs)


class TestScaleEquivariance:
    """Every variance is homogeneous of degree 1 in the components, and a
    power-of-four factor commutes with IEEE rounding (its square root is a
    power of two), so scaling every component by 4^k scales every
    per-replicate variance by 4^k, bit for bit, as long as nothing over- or
    underflows."""

    LAYOUT = StudyLayout(a=4, m=(2, 4, 6, 8), n=(5, 17, 30, 11))

    @classmethod
    def configs(cls, k):
        def scaled(vc):
            return type(vc)(*(np.ldexp(v, 2 * k) for v in vars(vc).values()))

        return [
            make_config(
                layout=cls.LAYOUT,
                teacher_vc=scaled(PILOT_TEACHER),
                student_vc=scaled(PILOT_STUDENT),
                design=design,
                policy=AssignmentPolicy.with_replacement(3),
                q=0.3,
                replicates=200,
                seed=3,
            )
            for design in DesignKind
        ]

    @classmethod
    def variances(cls, k):
        results = simulate_anticipated_variance(cls.configs(k))
        return np.array([[r.level(level).variances for level in simulator.LEVELS] for r in results])

    @pytest.mark.parametrize("k", [-500, -260, -200, 200, 260, 500])
    def test_variances_scale_bit_for_bit(self, k):
        unit = self.variances(0)
        assert np.isfinite(unit).any(axis=-1).all()
        np.testing.assert_array_equal(self.variances(k), np.ldexp(unit, 2 * k))

    @classmethod
    def validation(cls, k):
        studies = estimator_variance_study(cls.configs(k))
        return np.array([
            [(study[level].variance_ratio, study[level].mean_error_z) for level in simulator.LEVELS]
            for study in studies
        ])

    @pytest.mark.parametrize("k", [-200, -100, 100, 200])
    def test_validation_is_scale_free_bit_for_bit(self, k):
        # validate fits the noise alone, which scales by 2^k, so its ratios
        # and z-scores are the unit-scale ones; a treatment coefficient in
        # the responses would drown noise of 2^-100.  From k = 240 on, the
        # coefficients' np.linalg.pinv (a symmetric eigensolver) no longer
        # commutes with the scaling and leaves up to 3e-15
        np.testing.assert_array_equal(self.validation(k), self.validation(0))


class TestPublicSurface:
    def test_all_lists_every_public_name(self):
        import types

        import multilevel_design

        bound = [
            name
            for name, value in vars(multilevel_design).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        ]
        assert sorted(multilevel_design.__all__) == sorted(bound)
        assert "replicate_streams" not in bound

    @pytest.mark.parametrize("engine", [simulate_anticipated_variance, estimator_variance_study])
    def test_engine_rejects_no_configs(self, engine):
        with pytest.raises(ValueError, match="at least one config"):
            engine([])


class TestResponseGenerators:
    def test_teacher_noiseless(self):
        rng = np.random.default_rng(0)
        xs = design_matrices(draw_randomization(D2, StudyLayout(a=2, m=4, n=1), rng))
        beta = np.array([1.0, 0.5])
        out = generate_teacher_responses(
            xs, TeacherVarianceComponents(0.0, 0.0), beta, rng
        )
        for x, t in zip(xs, out):
            np.testing.assert_array_equal(t, x @ beta)

    def test_teacher_moments(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([np.ones(2), [1.0, -1.0]])
        beta = np.array([1.0, 0.5])
        vc = TeacherVarianceComponents(1.5, 2.5)
        draws = np.array(
            [generate_teacher_responses([x], vc, beta, rng)[0] for _ in range(10_000)]
        )
        cov = np.cov(draws.T)
        np.testing.assert_allclose(
            cov, teacher_cov(2, 1.5, 2.5), rtol=0.05, atol=0.05 * 4.0
        )
        se = np.sqrt(np.diag(teacher_cov(2, 1.5, 2.5)) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - x @ beta) <= 3 * se)

    def test_student_noiseless(self):
        rng = np.random.default_rng(1)
        d = np.array([[1.0, 1.0], [2.0, 0.0]])
        x = np.column_stack([np.ones(2), [1.0, -1.0]])
        theta = np.array([1.0, 0.25])
        out = generate_student_responses(
            [x], [d], StudentVarianceComponents(0.0, 0.0, 0.0), theta, rng
        )
        np.testing.assert_array_equal(out[0], d @ (x @ theta))

    def test_student_shared_teacher_effects(self):
        # two students with identical course rows differ only by their own
        # residuals, so a vanishing residual makes them coincide
        rng = np.random.default_rng(2)
        d = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]])
        x = np.column_stack([np.ones(2), [1.0, -1.0]])
        vc = StudentVarianceComponents(0.0, 1e6, 1e-12)
        out = generate_student_responses([x], [d], vc, np.array([0.0, 0.0]), rng)[0]
        assert abs(out[0] - out[1]) < 1e-4
        assert abs(out[0]) > 1.0  # the shared teacher effects are large

    def test_student_moments(self):
        rng = np.random.default_rng(3)
        d = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        x = np.column_stack([np.ones(2), [1.0, -1.0]])
        comps = (0.8, 1.2, 0.9)
        vc = StudentVarianceComponents(*comps)
        theta = np.array([0.5, 0.25])
        draws = np.array(
            [generate_student_responses([x], [d], vc, theta, rng)[0] for _ in range(10_000)]
        )
        from oracles import student_cov

        expected = student_cov(d, *comps)
        np.testing.assert_allclose(
            np.cov(draws.T), expected, rtol=0.05, atol=0.05 * np.abs(expected).max()
        )


class TestGlsEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(11)
        layout = StudyLayout(a=4, m=4, n=8)
        xs = design_matrices(draw_randomization(D2, layout, rng))
        beta = np.array([1.25, 0.75])
        responses = generate_teacher_responses(
            xs, TeacherVarianceComponents(0.0, 0.0), beta, rng
        )
        coef, cov = gls_estimate(responses, xs, PILOT_TEACHER)
        np.testing.assert_allclose(coef, beta, atol=1e-10)
        assert cov.shape == (2, 2)

        ds = [draw_assignment(AssignmentPolicy.with_replacement(2), 4, 8, rng) for _ in range(4)]
        y = generate_student_responses(
            xs, ds, StudentVarianceComponents(0.0, 0.0, 0.0), beta, rng
        )
        coef_s, _ = gls_estimate(y, xs, PILOT_STUDENT, ds=ds)
        np.testing.assert_allclose(coef_s, beta, atol=1e-10)

    def test_teacher_estimator_variance_design2(self):
        # Monte Carlo variance of the GLS treatment coefficient over 2000
        # synthetic data sets matches 1/I = sigma_eps2/(m a) = 0.1125
        rng = np.random.default_rng(20090210)
        layout = StudyLayout(a=16, m=8, n=1)
        beta = np.array([0.0, 0.5])
        coefs = []
        for _ in range(2000):
            xs = design_matrices(draw_randomization(D2, layout, rng))
            responses = generate_teacher_responses(xs, PILOT_TEACHER, beta, rng)
            coef, _ = gls_estimate(responses, xs, PILOT_TEACHER)
            coefs.append(coef[1])
        coefs = np.array(coefs)
        assert coefs.var(ddof=1) == pytest.approx(0.1125, rel=0.10)
        assert abs(coefs.mean() - 0.5) <= 3 * coefs.std(ddof=1) / np.sqrt(coefs.size)

    def test_singular_information_raises(self):
        xs = [np.column_stack([np.ones(2), [1.0, -1.0]])] * 2
        ds = [np.ones((4, 2))] * 2  # c = m kills the treatment direction
        y = [np.zeros(4)] * 2
        with pytest.raises(NonEstimableError):
            gls_estimate(y, xs, PILOT_STUDENT, ds=ds)


class TestEstimatorVarianceStudy:
    def test_levels_consistent_small(self):
        config = make_config(
            layout=StudyLayout(a=8, m=4, n=12),
            replicates=500,
            effect_size_diff=1.0,
            seed=90125,
        )
        study = estimator_variance_study([config])[0]
        for level in ("teacher", "student"):
            res = study[level]
            assert res.n_used == 500
            assert res.truth == 0.5
            assert abs(res.variance_ratio - 1.0) < 0.25
            assert res.mean_error_z < 4.0

    AGREEMENT = {
        "validate_gls": (StudyLayout(a=16, m=8, n=50), AssignmentPolicy.with_replacement(2), 0.0),
        "balanced_contaminated": (StudyLayout(a=16, m=8, n=196), AssignmentPolicy.balanced(2), 0.5),
        "single_course": (
            StudyLayout(a=4, m=(2, 4, 6, 8), n=(4, 16, 30, 16)),
            AssignmentPolicy.single_course(),
            0.0,
        ),
        "ci_bytes": (
            StudyLayout(a=4, m=(2, 4, 6, 8), n=(5, 17, 30, 11)),
            AssignmentPolicy.with_replacement(3),
            0.3,
        ),
    }

    @pytest.mark.parametrize("name", AGREEMENT)
    def test_anticipated_mean_is_compares_mean(self, name):
        # validate takes compare's student G, information routine and
        # 1/pivot, so its analytic_var is compare's mean_var bit for bit
        layout, policy, q = self.AGREEMENT[name]
        designs = [D2, D3] if name == "ci_bytes" else list(DesignKind)
        configs = [
            make_config(layout=layout, policy=policy, q=q, design=design, replicates=20, seed=5)
            for design in designs
        ]
        results = simulate_anticipated_variance(configs)
        for result, study in zip(results, estimator_variance_study(configs), strict=True):
            for level in ("teacher", "student"):
                got, want = study[level], result.level(level)
                assert (got.anticipated_mean, got.n_used) == (want.mean, want.samples.size)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(design=D2, q=0.5),
            dict(design=D3, layout=StudyLayout(a=4, m=(4, 6, 4, 6), n=(30, 41, 30, 41))),
            dict(design=D3, policy=AssignmentPolicy.balanced(2), layout=StudyLayout(a=2, m=2, n=4)),
        ],
        ids=["within-q0.5", "heterogeneous-crd", "some_non_estimable"],
    )
    def test_chunk_matches_public_path(self, overrides):
        # the chunked fits against the oracle generate_*_responses and
        # gls_estimate on the same draws and response stream, one replicate
        # at a time
        config = make_config(**{"replicates": 12, "effect_size_diff": 1.0, **overrides})
        beta = np.array([0.3, 0.5, -0.25][: 3 if config.effective_q > 0.0 else 2])
        streams = replicate_streams(config, 0)
        g_t = _teacher_precisions(config.layout.m, config.teacher_vc)
        xs = [simulator._design_chunk(config, streams, config.replicates)]
        terms = simulator._study_chunk(config, streams, config.replicates, xs, g_t)[0]
        solves = [simulator._gls_solve(info, b) for info, b in terms]
        # the chunk fits the noise alone: GLS adds beta's treatment entry back
        got = np.array([(beta[1] + coef[:, 1], cov[:, 1, 1]) for coef, cov, _ in solves])
        for rep in range(config.replicates):
            ds, xs = public_draws(config, rep)
            rng = replicate_streams(config, rep).responses
            t_resp = generate_teacher_responses(xs, config.teacher_vc, beta, rng)
            s_resp = generate_student_responses(xs, ds, config.student_vc, beta, rng)
            fits = [(t_resp, config.teacher_vc, None), (s_resp, config.student_vc, ds)]
            for level, (resp, vc, level_ds) in enumerate(fits):
                try:
                    coef, cov = gls_estimate(resp, xs, vc, ds=level_ds)
                    want = (coef[1], cov[1, 1])
                except NonEstimableError:
                    want = (np.nan, np.nan)
                np.testing.assert_allclose(got[level, :, rep], want, rtol=1e-12)
        if config.policy.kind is PolicyKind.BALANCED:
            assert np.isnan(got[1, 0]).any() and not np.isnan(got[1, 0]).all()


class TestSchoolSum:
    """_information, one matmul over the schools' rows, against an explicit
    sum over schools of x_i' g_i x_i and x_i' z_i."""

    @staticmethod
    def _stack(rng, lead, m, p, real_x, broadcast_g):
        """x (*lead, a, M, p), g and z of schools with m_i teachers padded to M."""
        big = max(m)
        x = np.zeros(lead + (len(m), big, p))
        g = np.zeros(((len(m),) if broadcast_g else lead + (len(m),)) + (big, big))
        z = np.zeros(lead + (len(m), big))
        for k, m_k in enumerate(m):
            cols = [np.ones(lead + (m_k,)), rng.choice([-1.0, 1.0], lead + (m_k,))]
            if p == 3:
                cols.append(rng.integers(0, 2, lead + (m_k,)).astype(float))
            x[..., k, :m_k, :] = rng.standard_normal(lead + (m_k, p)) if real_x else np.stack(cols, -1)
            w = rng.standard_normal(g.shape[:-3] + (m_k, m_k))
            g[..., k, :m_k, :m_k] = w @ np.swapaxes(w, -1, -2) + m_k * np.eye(m_k)
            z[..., k, :m_k] = rng.standard_normal(lead + (m_k,))
        return x, g, z

    @pytest.mark.parametrize(
        "lead,broadcast_g",
        [((), False), ((1,), False), ((9,), False), ((1,), True), ((9,), True)],
        ids=["one_school_stack", "R1", "R9", "R1_teacher_g", "R9_teacher_g"],
    )
    @pytest.mark.parametrize("m", [(4, 4, 4), (2, 5, 3, 1)], ids=["equal_m", "padded_m"])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("real_x", [False, True], ids=["pm1_x", "real_x"])
    def test_matches_loop_over_schools(self, lead, broadcast_g, m, p, real_x):
        rng = np.random.default_rng([len(lead), len(m), p, broadcast_g, real_x])
        x, g, z = self._stack(rng, lead, m, p, real_x, broadcast_g)
        g_full = np.broadcast_to(g, lead + g.shape[-3:])
        info_loop = np.zeros(lead + (p, p))
        b_loop = np.zeros(lead + (p,))
        for r in np.ndindex(lead):
            for k in range(len(m)):
                x_k = x[r + (k,)]
                info_loop[r] += x_k.T @ g_full[r + (k,)] @ x_k
                b_loop[r] += x_k.T @ z[r + (k,)]
        info, b = _information(x, g, z)
        scale = np.abs(info_loop).max()
        np.testing.assert_allclose(_information(x, g), info_loop, rtol=1e-14, atol=1e-14 * scale)
        np.testing.assert_allclose(info, info_loop, rtol=1e-14, atol=1e-14 * scale)
        np.testing.assert_array_equal(info, np.swapaxes(info, -1, -2))
        np.testing.assert_allclose(b, b_loop, rtol=1e-14, atol=1e-14 * np.abs(b_loop).max())


class TestNormalCdf:
    def test_equals_the_scalar_comprehension(self):
        # the former implementation, one math.erfc per numpy scalar
        root2 = math.sqrt(2.0)
        x = np.concatenate([
            [np.inf, -np.inf, 0.0, -0.0, 40.0, -40.0],
            np.random.default_rng(21).standard_normal(1_000) * 5.0,
        ])
        old = np.array([0.5 * math.erfc(-v / root2) for v in x])
        got = simulator._normal_cdf(x)
        assert got.dtype == old.dtype and got.shape == old.shape
        np.testing.assert_array_equal(got.view(np.int64), old.view(np.int64))


class TestEmpiricalPower:
    def test_zero_effect_gives_alpha(self):
        assert empirical_power(np.ones(5), 0.0, 0.05) == pytest.approx(0.05, abs=1e-12)

    def test_huge_effect_gives_one(self):
        assert empirical_power(np.full(3, 1e-12), 5.0, 0.05) == pytest.approx(1.0)

    def test_known_ratio(self):
        # ratio 2.8 at alpha 0.05; reference value from a high-precision
        # normal CDF evaluation
        value = empirical_power(np.ones(4), 2.8, 0.05)
        assert value == pytest.approx(0.7995568714356514, abs=5e-4)
        assert value == pytest.approx(0.7995568714356514, rel=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_power(np.array([]), 1.0, 0.05)

    @pytest.mark.parametrize("se", [[np.nan, 1.0], [-1.0, 1.0], [np.inf, 1.0]])
    def test_impossible_standard_errors_rejected(self, se):
        # a NaN or negative standard error read as power 1 before
        with pytest.raises(ValueError, match="finite, non-negative"):
            empirical_power(np.array(se), 1.0, 0.05)

    def test_import_leaves_scipy_unloaded(self):
        # power needs only the normal CDF and quantile from the standard library
        code = (
            "import sys, multilevel_design; "
            "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))"
        )
        assert fresh_interpreter(code) == "False"

    def test_import_leaves_network_stack_unloaded(self):
        # the SVG legend's escaping needs three str.replace calls, not
        # xml.sax.saxutils, whose import pulls in urllib.request, http.client,
        # email, ssl and socket; urllib.parse alone comes with pathlib
        code = (
            "import sys, multilevel_design, multilevel_design.cli; "
            "print(sorted(set(sys.modules) & "
            "{'xml', 'urllib.request', 'http', 'email', 'ssl', 'socket'}))"
        )
        assert fresh_interpreter(code) == "[]"


class TestKdeDensity:
    def test_point_mass_marker(self):
        est = kde_density(np.full(10, 3.25))
        assert est.is_point_mass
        assert est.point_mass == 3.25
        assert est.grid is None

    def test_symmetric_samples(self):
        samples = np.array([-1.0, 1.0] * 500)
        est = kde_density(samples)
        np.testing.assert_allclose(est.density, est.density[::-1], atol=1e-9)

    def test_standard_normal_peak(self):
        rng = np.random.default_rng(12)
        est = kde_density(rng.standard_normal(10_000))
        assert est.density.max() == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.10)

    def test_integral_near_one(self):
        rng = np.random.default_rng(13)
        for sample in (rng.standard_normal(500), rng.exponential(2.0, 800)):
            est = kde_density(sample)
            y, x = est.density, est.grid
            integral = np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0
            assert integral == pytest.approx(1.0, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kde_density(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        # a NaN sample made an all-NaN grid before, an infinite one a warning
        with pytest.raises(ValueError, match="non-finite"):
            kde_density(np.array([bad, 1.0, 2.0]))

    def test_quartiles_equal_numpy_percentile(self):
        rng = np.random.default_rng(15)
        samples = []
        for n in range(2, 601):
            samples += [
                rng.standard_normal(n),
                rng.standard_t(1.5, n),  # heavy tails
                np.round(rng.standard_normal(n), 2),  # ties
            ]
        samples.append(rng.standard_normal(10_000))
        for x in samples:
            ordered = np.sort(x)
            got = [simulator._quantile(ordered, 0.75), simulator._quantile(ordered, 0.25)]
            np.testing.assert_array_equal(got, np.percentile(x, [75.0, 25.0]))

    def test_density_equals_percentile_reference(self, monkeypatch):
        rng12, rng13 = np.random.default_rng(12), np.random.default_rng(13)
        cases = [
            np.array([-1.0, 1.0] * 500),
            rng12.standard_normal(10_000),
            rng13.standard_normal(500),
            rng13.exponential(2.0, 800),
            np.random.default_rng(14).standard_normal(3_000),
        ]
        estimates = [kde_density(x) for x in cases]
        monkeypatch.setattr(
            simulator, "_quantile", lambda x, q: float(np.percentile(x, 100.0 * q))
        )
        for x, est in zip(cases, estimates):
            reference = kde_density(x)
            np.testing.assert_array_equal(est.grid, reference.grid)
            np.testing.assert_array_equal(est.density, reference.density)

    def test_compare_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.percentile's index bookkeeping (np.unique) imports numpy.ma
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schools": 2,
            "teachers_per_school": 2,
            "students_per_school": 4,
            "teacher_vc": {"sigma_v2": 1.6, "sigma_eps2": 14.4},
            "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 14.4},
            "designs": ["randomize_schools", "within_schools", "crd"],
            "seed": 20090216,
            "replicates": 30,
            "effect_size_diff": 1.0,
            "mode": "compare",
            "out_dir": str(tmp_path / "out"),
        }))
        code = (
            "import sys; from multilevel_design import cli; "
            f"code = cli.main(['compare', '--config', {str(config)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        assert fresh_interpreter(code) == "0 False"
        assert (tmp_path / "out" / "density.svg").is_file()

    def test_density_equals_the_two_line_expression(self):
        # the former block body, one block of every grid row, with the same
        # bandwidth: kde_density's in-place buffer runs the same ufuncs
        rng = np.random.default_rng(16)
        for x in (rng.standard_normal(300), rng.exponential(2.0, 777), np.array([0.0, 1.0])):
            est = kde_density(x)
            ordered = np.sort(x)
            sd = simulator._sd(x)
            iqr = simulator._quantile(ordered, 0.75) - simulator._quantile(ordered, 0.25)
            h = 0.9 * (min(sd, iqr / 1.34) if iqr > 0.0 else sd) * x.size ** (-0.2)
            grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, 256)
            np.testing.assert_array_equal(est.grid, grid)
            inv = 1.0 / (h * np.sqrt(2.0 * np.pi))
            z = (grid[:, None] - x[None, :]) / h
            np.testing.assert_array_equal(est.density, inv * np.exp(-0.5 * z**2).mean(axis=1))

    def test_block_size_changes_no_density(self, monkeypatch):
        # a grid row's mean runs over all samples whatever rows share its
        # block, so the cap on a block's temporaries changes no density
        samples = np.random.default_rng(14).standard_normal(3_000)
        densities = []
        for cap in (1, 100 * 8 * samples.size, 2**40):  # 1 row, 100 rows, one block
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", cap)
            densities.append(kde_density(samples).density)
        for density in densities[1:]:
            np.testing.assert_array_equal(density, densities[0])
