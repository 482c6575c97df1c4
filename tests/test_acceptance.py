"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the oracles (dense inversion,
exhaustive enumeration, sequential hypergeometric sampling) are independent
of the closed forms they check.
"""

import itertools
import math

import numpy as np
import pytest

from multilevel_design import (
    AssignmentPolicy,
    BalancedSpec,
    DesignKind,
    NonEstimableError,
    SimulationConfig,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    balanced_student_information,
    balanced_traces,
    design_matrices,
    draw_randomization,
    efficiency_condition,
    estimator_variance_study,
    expected_teacher_information,
    simulate_anticipated_variance,
    student_information,
    teacher_information,
    treatment_variance,
)
from multilevel_design.cli import main

from oracles import (
    single_course_assignment,
    student_cov,
    subset_uniform_assignment,
    teacher_cov,
)

D1 = DesignKind.RANDOMIZE_SCHOOLS
D2 = DesignKind.RANDOMIZE_WITHIN_SCHOOLS
D3 = DesignKind.COMPLETELY_RANDOMIZED

PILOT_TEACHER = TeacherVarianceComponents(1.6, 14.4)
PILOT_TEACHER_HIGH_RHO = TeacherVarianceComponents(4.8, 11.2)
PILOT_STUDENT = StudentVarianceComponents(1.6, 14.4, 14.4)


def _info22_table(m, sigma_v2, sigma_eps2):
    """Dense-inverse oracle: realized treatment information of one school as
    a function of its treated-teacher count h (so 1'R = 2h - m)."""
    vinv = np.linalg.inv(teacher_cov(m, sigma_v2, sigma_eps2))
    table = np.empty(m + 1)
    for h in range(m + 1):
        r = np.concatenate([np.ones(h), -np.ones(m - h)])
        table[h] = r @ vinv @ r
    return table


def _crd_school_counts(m, a, draws, rng):
    """Sample treated-per-school counts of the pooled design by sequential
    hypergeometric draws (an exact, vectorized sampler)."""
    counts = np.empty((draws, a), dtype=np.int64)
    remaining_good = np.full(draws, m * a // 2)
    remaining_total = m * a
    for i in range(a):
        if i == a - 1:
            counts[:, i] = remaining_good
            break
        counts[:, i] = rng.hypergeometric(
            remaining_good, remaining_total - remaining_good, m
        )
        remaining_good = remaining_good - counts[:, i]
        remaining_total -= m
    return counts


class TestCriterion1ClosedFormEquivalence:
    def test_table1_teacher_equivalence(self):
        rng = np.random.default_rng(20090301)
        checked = 0
        for m in (2, 4, 8):
            for a in (2, 4, 16):
                layout = StudyLayout(a=a, m=m, n=1)
                crd_counts = None
                if m * a > 12:
                    crd_counts = _crd_school_counts(m, a, 100_000, rng)
                for _ in range(20):
                    vc = TeacherVarianceComponents(
                        float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.2, 6.0))
                    )
                    table = _info22_table(m, vc.sigma_v2, vc.sigma_eps2)

                    # designs 1-2: the realized information is the same for
                    # every realization (it depends on R only through the
                    # per-school sums, which the balance fixes), so checking
                    # sampled realizations against the closed form covers the
                    # exhaustive average exactly
                    expected1 = expected_teacher_information(D1, layout, vc)
                    expected2 = expected_teacher_information(D2, layout, vc)
                    for _ in range(5):
                        x1 = design_matrices(draw_randomization(D1, layout, rng))
                        v1 = teacher_information(x1, vc)[1, 1]
                        assert v1 == pytest.approx(expected1, rel=1e-9)
                        x2 = design_matrices(draw_randomization(D2, layout, rng))
                        v2 = teacher_information(x2, vc)[1, 1]
                        assert v2 == pytest.approx(expected2, rel=1e-9)
                    assert table[m] == pytest.approx(expected1 / a, rel=1e-9)

                    expected3 = expected_teacher_information(D3, layout, vc)
                    if m * a <= 12:
                        values = []
                        for combo in itertools.combinations(range(m * a), m * a // 2):
                            h = np.bincount(
                                np.array(combo) // m, minlength=a
                            )
                            values.append(table[h].sum())
                        assert np.mean(values) == pytest.approx(expected3, rel=1e-9)
                    else:
                        mc = table[crd_counts].sum(axis=1).mean()
                        assert mc == pytest.approx(expected3, rel=0.005)
                    checked += 1
        assert checked == 180
        print("\nACCEPTANCE 1 PASS: expected teacher information matches the "
              "exhaustive/MC randomization average for all 9 layouts x 20 "
              "component sets (1e-9 exact, 0.5% MC)")


class TestCriterion2BalancedTraces:
    def test_200_random_balanced_instances(self):
        rng = np.random.default_rng(20090302)
        families = [
            (m, c)
            for m in range(2, 9)
            for c in range(1, m)
            if math.comb(m, c) <= 48
        ]
        checked = 0
        while checked < 200:
            m, c = families[int(rng.integers(len(families)))]
            block = math.comb(m, c)
            n = block * int(rng.integers(1, 48 // block + 1))
            comps = (
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.2, 5.0)),
            )
            d = subset_uniform_assignment(m, c, n)
            sigma_inv = np.linalg.inv(student_cov(d, *comps))
            g = d.T @ sigma_inv @ d
            trace_j, trace = balanced_traces(
                BalancedSpec(m, n, c, 2), StudentVarianceComponents(*comps)
            )
            assert trace_j == pytest.approx(float(g.sum()), rel=1e-9)
            assert trace == pytest.approx(float(np.trace(g)), rel=1e-9)
            checked += 1
        print("\nACCEPTANCE 2 PASS: balanced traces match dense-matrix traces "
              "to 1e-9 relative on 200 random balanced instances")


class TestCriterion3SpecialCases:
    def test_c_equals_m_design2_exactly_zero(self):
        rng = np.random.default_rng(20090303)
        for m, a, n in ((2, 3, 4), (4, 2, 6), (6, 2, 6)):
            ds = [np.ones((n, m))] * a
            layout = StudyLayout(a=a, m=m, n=n)
            for _ in range(10):
                xs = design_matrices(draw_randomization(D2, layout, rng))
                info = student_information(xs, ds, PILOT_STUDENT)
                assert info[1, 1] == 0.0
                with pytest.raises(NonEstimableError):
                    treatment_variance(info)

    def test_c_equals_one_closed_forms_vs_dense(self):
        rng = np.random.default_rng(20090304)
        for m, a, k in ((2, 2, 3), (4, 4, 2), (6, 2, 1)):
            n = m * k
            comps = (
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.2, 5.0)),
            )
            vc = StudentVarianceComponents(*comps)
            d = single_course_assignment(m, n)
            sigma_inv = np.linalg.inv(student_cov(d, *comps))
            g = d.T @ sigma_inv @ d
            eye, ones = np.eye(m), np.ones((m, m))
            spec = BalancedSpec(m, n, 1, a)
            dense = {
                D1: a * np.trace(g @ ones),
                D2: a * np.trace(g @ (m * eye - ones)) / (m - 1),
                D3: a * np.trace(g @ (m * a * eye - ones)) / (m * a - 1),
            }
            for kind, value in dense.items():
                assert balanced_student_information(kind, spec, vc) == pytest.approx(
                    value, rel=1e-9
                )
        print("\nACCEPTANCE 3 PASS: c=m within-school information is exactly 0 "
              "per realization; c=1 closed forms match the dense oracle to 1e-9")


class TestCriterion4EfficiencyBoundary:
    def test_condition_flips_with_information_sign(self):
        for m, c, n, a, eta2, t2 in (
            (6, 3, 12, 4, 2.7, 1.3),
            (4, 2, 8, 2, 14.4, 14.4),
            (8, 5, 16, 6, 3.0, 0.7),
        ):
            boundary = m * (c - 1) * eta2 / (n * (m - c))
            spec = BalancedSpec(m, n, c, a)
            for factor in (0.5, 0.9, 0.999):
                vc = StudentVarianceComponents(boundary * factor, t2, eta2)
                assert not efficiency_condition(spec, vc)
                assert balanced_student_information(D2, spec, vc) < (
                    balanced_student_information(D1, spec, vc)
                )
            for factor in (1.001, 1.1, 2.0):
                vc = StudentVarianceComponents(boundary * factor, t2, eta2)
                assert efficiency_condition(spec, vc)
                assert balanced_student_information(D2, spec, vc) > (
                    balanced_student_information(D1, spec, vc)
                )
            vc = StudentVarianceComponents(boundary, t2, eta2)
            assert efficiency_condition(spec, vc)
            diff = balanced_student_information(D2, spec, vc) - (
                balanced_student_information(D1, spec, vc)
            )
            assert abs(diff) <= 1e-10 * balanced_student_information(D1, spec, vc)
        print("\nACCEPTANCE 4 PASS: the efficiency condition flips exactly where "
              "the within-school minus by-school information changes sign")


class TestCriterion5PaperAnchors:
    def test_design1_standard_errors(self):
        layout = StudyLayout(a=16, m=8, n=200)
        info_t = expected_teacher_information(D1, layout, PILOT_TEACHER)
        se_teacher = 2.0 * np.sqrt(1.0 / info_t)
        assert se_teacher == pytest.approx(0.922, abs=5e-4)

        spec = BalancedSpec(8, 200, 2, 16)
        info_s = balanced_student_information(D1, spec, PILOT_STUDENT)
        se_student_balanced = 2.0 * np.sqrt(1.0 / info_s)
        assert se_student_balanced == pytest.approx(0.74, abs=0.01)

        config = SimulationConfig(
            layout=layout,
            teacher_vc=PILOT_TEACHER,
            student_vc=PILOT_STUDENT,
            design=D1,
            policy=AssignmentPolicy.with_replacement(2),
            replicates=10_000,
            seed=20090305,
        )
        result = simulate_anticipated_variance([config])[0]
        assert result.teacher.non_estimable == 0
        np.testing.assert_allclose(result.teacher.samples, 0.2125, rtol=1e-12)
        se_sim_teacher = 2.0 * np.sqrt(result.teacher.mean)
        se_sim_student = 2.0 * np.sqrt(result.student.mean)
        assert se_sim_teacher == pytest.approx(0.922, abs=5e-4)
        assert abs(se_sim_student - se_student_balanced) <= 0.05
        # reported pilot values: about 0.9 (teacher) and 0.8 (student)
        assert abs(se_sim_teacher - 0.9) <= 0.1
        assert abs(se_sim_student - 0.8) <= 0.1
        print("\nACCEPTANCE 5 PASS: design-1 difference-scale SEs are 0.922 "
              f"(teacher) and {se_sim_student:.3f} (student, with-replacement "
              "sim), matching the closed-form 0.745 within 0.05 and the pilot "
              "0.9/0.8 within 0.1")


def _mean_teacher_variance(tvc, design, q, replicates, seed):
    config = SimulationConfig(
        layout=StudyLayout(a=16, m=8, n=1),
        teacher_vc=tvc,
        student_vc=PILOT_STUDENT,
        design=design,
        policy=AssignmentPolicy.with_replacement(2),
        replicates=replicates,
        seed=seed,
        q=q,
    )
    return simulate_anticipated_variance([config])[0]


class TestCriterion6DensityOrderings:
    def test_teacher_variance_ordering_both_settings(self):
        for tvc in (PILOT_TEACHER, PILOT_TEACHER_HIGH_RHO):
            means = {
                design: _mean_teacher_variance(tvc, design, 0.0, 2000, 20090306)
                .teacher.mean
                for design in DesignKind
            }
            assert means[D2] < means[D3] < means[D1]

    def test_contamination_inflates_designs_2_and_3_only(self):
        for design in (D2, D3):
            base = _mean_teacher_variance(PILOT_TEACHER, design, 0.0, 2000, 20090307)
            cont = _mean_teacher_variance(PILOT_TEACHER, design, 0.5, 2000, 20090307)
            assert cont.teacher.mean > base.teacher.mean
        base = _mean_teacher_variance(PILOT_TEACHER, D1, 0.0, 500, 20090308)
        cont = _mean_teacher_variance(PILOT_TEACHER, D1, 0.5, 500, 20090308)
        np.testing.assert_array_equal(base.teacher.variances, cont.teacher.variances)

    def test_design2_inflation_ratios_match_closed_forms(self):
        # teacher: closed-form inflation 1.53125
        base = _mean_teacher_variance(PILOT_TEACHER, D2, 0.0, 6000, 20090309)
        cont = _mean_teacher_variance(PILOT_TEACHER, D2, 0.5, 6000, 20090309)
        teacher_ratio = cont.teacher.mean / base.teacher.mean
        assert teacher_ratio == pytest.approx(1.53125, rel=0.02)

        # student: closed-form inflation 1.5152 (2% MC tolerance); the
        # balanced construction at n = 196 makes the closed form exact
        def student_run(q, seed):
            config = SimulationConfig(
                layout=StudyLayout(a=16, m=8, n=196),
                teacher_vc=PILOT_TEACHER,
                student_vc=PILOT_STUDENT,
                design=D2,
                policy=AssignmentPolicy.balanced(2),
                replicates=3000,
                seed=seed,
                q=q,
            )
            return simulate_anticipated_variance([config])[0].student.mean

        student_ratio = student_run(0.5, 20090310) / student_run(0.0, 20090310)
        assert student_ratio == pytest.approx(1.5152, rel=0.02)
        print("\nACCEPTANCE 6 PASS: teacher variances order design2 < design3 "
              "< design1 for both component settings; q=0.5 leaves design 1 unchanged and "
              f"inflates design 2 by {teacher_ratio:.4f} (teacher, closed form "
              f"1.53125) and {student_ratio:.4f} (student, closed form 1.5152), "
              "both within 2%")


class TestCriterion7EstimatorValidation:
    def test_gls_variance_matches_anticipated(self):
        # the three designs run in lockstep, one engine call
        configs = [
            SimulationConfig(
                layout=StudyLayout(a=16, m=8, n=50),
                teacher_vc=PILOT_TEACHER,
                student_vc=PILOT_STUDENT,
                design=design,
                policy=AssignmentPolicy.with_replacement(2),
                replicates=2200,
                seed=20090311,
                effect_size_diff=1.0,
            )
            for design in DesignKind
        ]
        lines = []
        for design, study in zip(DesignKind, estimator_variance_study(configs), strict=True):
            for level in ("teacher", "student"):
                res = study[level]
                assert res.n_used >= 2000
                assert abs(res.variance_ratio - 1.0) <= 0.10, (design, level, res)
                assert res.mean_error_z <= 3.0, (design, level, res)
                lines.append(f"{design.value}/{level} ratio {res.variance_ratio:.3f}")
        print("\nACCEPTANCE 7 PASS: GLS estimator variance within 10% of the "
              "anticipated variance and unbiased within 3 SE for all designs "
              "and levels (" + "; ".join(lines) + ")")


class TestCriterion8Determinism:
    def test_byte_identical_compare_runs(self, tmp_path, monkeypatch):
        import json

        config = {
            "schools": 4,
            "teachers_per_school": 4,
            "students_per_school": 8,
            "teacher_vc": {"sigma_v2": 1.6, "sigma_eps2": 14.4},
            "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 14.4},
            "designs": ["randomize_schools", "within_schools", "crd"],
            "seed": 20090312,
            "replicates": 120,
            "q": 0.5,
            "effect_size_diff": 1.0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        snapshots = []
        for name, threads in (("r1", None), ("r2", None), ("r3", "3"), ("r4", "8")):
            if threads is None:
                monkeypatch.delenv("MLD_THREADS", raising=False)
            else:
                monkeypatch.setenv("MLD_THREADS", threads)
            out = tmp_path / name
            assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
            snapshots.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert len(snapshots[0]) == 14  # 12 csv + summary + svg
        for other in snapshots[1:]:
            assert other == snapshots[0]
        print("\nACCEPTANCE 8 PASS: repeated compare runs are byte-identical "
              "and MLD_THREADS does not change any artifact")
