"""Tests for the balanced-assignment closed forms and inflation factors."""

import numpy as np
import pytest

from multilevel_design import (
    BalancedSpec,
    DegenerateContaminationError,
    DesignKind,
    NonEstimableError,
    ParityError,
    StudentVarianceComponents,
    TeacherVarianceComponents,
    balanced_student_information,
    balanced_traces,
    efficiency_condition,
    expected_student_information_given_D,
    student_inflation_design2,
    teacher_inflation_design2,
)

from oracles import (
    contaminated_treatment_entry_numeric,
    student_cov,
    subset_uniform_assignment,
    teacher_cov,
)

PILOT_STUDENT = StudentVarianceComponents(1.6, 14.4, 14.4)
PILOT_TEACHER = TeacherVarianceComponents(1.6, 14.4)

D1 = DesignKind.RANDOMIZE_SCHOOLS
D2 = DesignKind.RANDOMIZE_WITHIN_SCHOOLS
D3 = DesignKind.COMPLETELY_RANDOMIZED


class TestBalancedSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            BalancedSpec(m=8, n=201, c=2, a=16)
        with pytest.raises(ValueError):
            BalancedSpec(m=4, n=8, c=5, a=2)
        with pytest.raises(ValueError):
            BalancedSpec(m=4, n=8, c=0, a=2)
        BalancedSpec(m=8, n=200, c=2, a=16)


class TestBalancedTraces:
    def test_pilot_values(self):
        trace_j, trace = balanced_traces(BalancedSpec(8, 200, 2, 16), PILOT_STUDENT)
        assert trace_j == pytest.approx(0.45085662759242556, rel=1e-12)
        assert trace == pytest.approx(0.5313842228573051, rel=1e-12)
        # five-digit reference values
        assert trace_j == pytest.approx(0.45086, abs=5e-6)
        assert trace == pytest.approx(0.53138, abs=5e-6)

    def test_m1_degenerate(self):
        comps = (0.8, 1.9, 1.1)
        trace_j, trace = balanced_traces(
            BalancedSpec(1, 7, 1, 2), StudentVarianceComponents(*comps)
        )
        expected = 7 / (7 * comps[0] + 7 * comps[1] + comps[2])
        assert trace_j == pytest.approx(expected, rel=1e-12)
        assert trace == pytest.approx(expected, rel=1e-12)

    def test_c_equals_m_reduction(self):
        m, n = 4, 12
        comps = (0.5, 2.0, 1.5)
        trace_j, trace = balanced_traces(
            BalancedSpec(m, n, m, 2), StudentVarianceComponents(*comps)
        )
        expected_j = n * m**2 / (n * comps[0] + n * m * comps[1] + comps[2])
        assert trace_j == pytest.approx(expected_j, rel=1e-12)
        assert trace == pytest.approx(expected_j / m, rel=1e-12)

    def test_dense_oracle_on_exact_instances(self):
        rng = np.random.default_rng(20090103)
        cases = [(2, 1), (3, 2), (4, 2), (4, 3), (5, 2), (6, 3), (8, 2), (8, 7)]
        for m, c in cases:
            import math

            n = math.comb(m, c) * int(rng.integers(1, 4))
            comps = (
                float(rng.uniform(0.0, 4.0)),
                float(rng.uniform(0.0, 4.0)),
                float(rng.uniform(0.3, 4.0)),
            )
            d = subset_uniform_assignment(m, c, n)
            sigma_inv = np.linalg.inv(student_cov(d, *comps))
            g = d.T @ sigma_inv @ d
            trace_j, trace = balanced_traces(
                BalancedSpec(m, n, c, 2), StudentVarianceComponents(*comps)
            )
            assert trace_j == pytest.approx(float(g.sum()), rel=1e-9)
            assert trace == pytest.approx(float(np.trace(g)), rel=1e-9)


class TestBalancedStudentInformation:
    SPEC200 = BalancedSpec(8, 200, 2, 16)

    def test_pilot_anchors(self):
        assert balanced_student_information(D1, self.SPEC200, PILOT_STUDENT) == pytest.approx(
            7.213706041478809, rel=1e-12
        )
        assert balanced_student_information(D2, self.SPEC200, PILOT_STUDENT) == pytest.approx(
            8.686210640608035, rel=1e-12
        )
        assert balanced_student_information(D3, self.SPEC200, PILOT_STUDENT) == pytest.approx(
            8.51229277456915, rel=1e-12
        )

    def test_matches_trace_expression_on_explicit_D(self):
        # an exactly balanced instance agrees with the per-assignment trace
        # formula to full precision for all three designs
        a, m, c, n = 4, 4, 2, 12
        spec = BalancedSpec(m, n, c, a)
        ds = [subset_uniform_assignment(m, c, n)] * a
        comps = (0.9, 2.1, 1.4)
        vc = StudentVarianceComponents(*comps)
        for kind in DesignKind:
            assert balanced_student_information(kind, spec, vc) == pytest.approx(
                expected_student_information_given_D(kind, ds, vc), rel=1e-9
            )

    def test_c_equals_m_special_cases(self):
        m, n, a = 4, 12, 6
        comps = (1.6, 14.4, 14.4)
        vc = StudentVarianceComponents(*comps)
        spec = BalancedSpec(m, n, m, a)
        s2, t2, e2 = comps
        assert balanced_student_information(D2, spec, vc) == 0.0
        assert balanced_student_information(D1, spec, vc) == pytest.approx(
            a * m**2 * n / (e2 + n * (s2 + m * t2)), rel=1e-12
        )
        assert balanced_student_information(D3, spec, vc) == pytest.approx(
            a * (a - 1) * m**2 * n / ((m * a - 1) * (n * s2 + n * m * t2 + e2)),
            rel=1e-12,
        )

    def test_c_equals_one_special_case(self):
        m, n, a = 4, 12, 6
        s2, t2, e2 = 1.6, 14.4, 14.4
        vc = StudentVarianceComponents(s2, t2, e2)
        spec = BalancedSpec(m, n, 1, a)
        assert balanced_student_information(D2, spec, vc) == pytest.approx(
            a * n / (t2 * n / m + e2), rel=1e-12
        )
        assert balanced_student_information(D1, spec, vc) == pytest.approx(
            a * n / (e2 + t2 * n / m + n * s2), rel=1e-12
        )

    def test_parity_errors(self):
        vc = PILOT_STUDENT
        with pytest.raises(ParityError):
            balanced_student_information(D1, BalancedSpec(2, 4, 1, 3), vc)
        with pytest.raises(ParityError):
            balanced_student_information(D2, BalancedSpec(3, 6, 1, 2), vc)
        with pytest.raises(ParityError):
            balanced_student_information(D3, BalancedSpec(3, 6, 1, 3), vc)


class TestEfficiencyCondition:
    def test_pilot_case_true(self):
        spec = BalancedSpec(8, 200, 2, 16)
        # 200 * 6 * 1.6 = 1920 >= 8 * 1 * 14.4 = 115.2
        assert efficiency_condition(spec, PILOT_STUDENT)

    def test_c_one_always_true(self):
        spec = BalancedSpec(4, 12, 1, 2)
        vc = StudentVarianceComponents(0.0, 3.0, 5.0)
        assert efficiency_condition(spec, vc)

    def test_c_equals_m_always_false(self):
        spec = BalancedSpec(4, 12, 4, 2)
        vc = StudentVarianceComponents(10.0, 3.0, 5.0)
        assert not efficiency_condition(spec, vc)

    def test_equivalent_to_information_comparison(self):
        rng = np.random.default_rng(20090104)
        for _ in range(60):
            m = 2 * int(rng.integers(1, 5))
            c = int(rng.integers(1, m + 1))
            n = m * int(rng.integers(1, 13))
            a = 2 * int(rng.integers(1, 5))
            spec = BalancedSpec(m, n, c, a)
            vc = StudentVarianceComponents(
                float(rng.uniform(0.0, 6.0)),
                float(rng.uniform(0.0, 6.0)),
                float(rng.uniform(0.2, 6.0)),
            )
            lhs = efficiency_condition(spec, vc)
            rhs = balanced_student_information(
                D2, spec, vc
            ) >= balanced_student_information(D1, spec, vc) - 1e-12
            assert lhs == rhs


class TestTeacherInflation:
    def test_q_zero(self):
        assert teacher_inflation_design2(0.0, 8, PILOT_TEACHER) == 1.0

    def test_pilot_value(self):
        assert teacher_inflation_design2(0.5, 8, PILOT_TEACHER) == pytest.approx(
            1.53125, rel=1e-12
        )

    def test_no_school_effect(self):
        vc = TeacherVarianceComponents(0.0, 14.4)
        assert teacher_inflation_design2(0.5, 8, vc) == pytest.approx(1.5, rel=1e-12)

    def test_matches_moment_matrix_oracle(self):
        g = np.linalg.inv(teacher_cov(8, 1.6, 14.4))
        cov_r = (8 * np.eye(8) - np.ones((8, 8))) / 7.0
        baseline = 1.0 / np.trace(g @ cov_r)
        entry = contaminated_treatment_entry_numeric(g, 0.5)
        assert teacher_inflation_design2(0.5, 8, PILOT_TEACHER) == pytest.approx(
            entry / baseline, rel=1e-10
        )

    def test_q_one_pole(self):
        with pytest.raises(DegenerateContaminationError):
            teacher_inflation_design2(1.0, 8, PILOT_TEACHER)

    def test_monotone_in_q(self):
        values = [teacher_inflation_design2(q, 8, PILOT_TEACHER) for q in np.linspace(0, 0.95, 20)]
        assert values[0] == 1.0
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestStudentInflation:
    def test_q_zero(self):
        assert student_inflation_design2(0.0, BalancedSpec(8, 200, 2, 16), PILOT_STUDENT) == 1.0

    def test_pilot_value_from_oracle(self):
        # the brute-force moment-matrix oracle fixes this value at 1.51082,
        # not the 1.51518 a naive reading of the printed factor would give
        value = student_inflation_design2(0.5, BalancedSpec(8, 200, 2, 16), PILOT_STUDENT)
        assert value == pytest.approx(1.510824504836481, rel=1e-12)

    def test_matches_moment_matrix_oracle_exact_instance(self):
        m, c, n, q = 8, 2, 196, 0.5
        d = subset_uniform_assignment(m, c, n)
        g = d.T @ np.linalg.solve(student_cov(d, 1.6, 14.4, 14.4), d)
        cov_r = (m * np.eye(m) - np.ones((m, m))) / (m - 1)
        baseline = 1.0 / np.trace(g @ cov_r)
        entry = contaminated_treatment_entry_numeric(g, q)
        assert student_inflation_design2(
            q, BalancedSpec(m, n, c, 16), PILOT_STUDENT
        ) == pytest.approx(entry / baseline, rel=1e-9)

    def test_tiny_case_from_oracle(self):
        # sigma_s2 = sigma_t2 = 0 so G is diagonal: the oracle gives 1.5
        vc = StudentVarianceComponents(0.0, 0.0, 1.0)
        spec = BalancedSpec(4, 8, 1, 2)
        value = student_inflation_design2(0.5, spec, vc)
        assert value == pytest.approx(1.5, rel=1e-12)
        d = subset_uniform_assignment(4, 1, 8)
        g = d.T @ np.linalg.solve(student_cov(d, 0.0, 0.0, 1.0), d)
        cov_r = (4 * np.eye(4) - np.ones((4, 4))) / 3.0
        baseline = 1.0 / np.trace(g @ cov_r)
        entry = contaminated_treatment_entry_numeric(g, 0.5)
        assert value == pytest.approx(entry / baseline, rel=1e-10)

    def test_randomized_oracle_agreement(self):
        rng = np.random.default_rng(20090105)
        import math

        for _ in range(25):
            m = int(rng.integers(2, 7))
            c = int(rng.integers(1, m))
            n = math.comb(m, c) * int(rng.integers(1, 4))
            q = float(rng.uniform(0.0, 0.9))
            comps = (
                float(rng.uniform(0.0, 4.0)),
                float(rng.uniform(0.0, 4.0)),
                float(rng.uniform(0.3, 4.0)),
            )
            vc = StudentVarianceComponents(*comps)
            d = subset_uniform_assignment(m, c, n)
            g = d.T @ np.linalg.solve(student_cov(d, *comps), d)
            cov_r = (m * np.eye(m) - np.ones((m, m))) / (m - 1)
            baseline = 1.0 / np.trace(g @ cov_r)
            entry = contaminated_treatment_entry_numeric(g, q)
            assert student_inflation_design2(
                q, BalancedSpec(m, n, c, 2), vc
            ) == pytest.approx(entry / baseline, rel=1e-8)

    def test_c_equals_m_rejected(self):
        # w is exactly 0 at c = m, which the shared inflation rule refuses
        with pytest.raises(NonEstimableError, match="carries no information"):
            student_inflation_design2(0.5, BalancedSpec(4, 12, 4, 2), PILOT_STUDENT)

    def test_q_one_pole(self):
        with pytest.raises(DegenerateContaminationError):
            student_inflation_design2(1.0, BalancedSpec(8, 200, 2, 16), PILOT_STUDENT)

    def test_monotone_in_q(self):
        spec = BalancedSpec(8, 200, 2, 16)
        values = [
            student_inflation_design2(q, spec, PILOT_STUDENT)
            for q in np.linspace(0, 0.95, 20)
        ]
        assert values[0] == 1.0
        assert all(b >= a for a, b in zip(values, values[1:]))
