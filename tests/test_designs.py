"""Tests for randomization draws, moments, expected information, contamination."""

import math

import numpy as np
import pytest

from multilevel_design import (
    AssignmentPolicy,
    BalancedSpec,
    DegenerateContaminationError,
    DesignKind,
    NonEstimableError,
    ParityError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    balanced_student_information,
    balanced_traces,
    contaminated_expected_moment_matrix,
    design_matrices,
    draw_assignment,
    draw_contamination,
    draw_randomization,
    efficiency_condition,
    expected_contamination,
    expected_student_information_given_D,
    expected_teacher_information,
    student_inflation_design2,
    student_information,
    student_precision,
    teacher_inflation_design2,
    teacher_information,
    teacher_precision,
)
from multilevel_design.designs import validate_contamination
from multilevel_design.model_core import SingularCovarianceError
from multilevel_design.simulator import (
    _contamination_flags,
    _randomization_signs,
    _sign_uniforms,
)

from oracles import (
    contaminated_moment_matrix_numeric,
    contaminated_treatment_entry_numeric,
    dense_expected_student_info,
    design_cov_r,
    enumerate_randomizations,
    student_cov,
    subset_uniform_assignment,
    teacher_cov,
)

PILOT_TEACHER = TeacherVarianceComponents(1.6, 14.4)
PILOT_STUDENT = StudentVarianceComponents(1.6, 14.4, 14.4)

D1 = DesignKind.RANDOMIZE_SCHOOLS
D2 = DesignKind.RANDOMIZE_WITHIN_SCHOOLS
D3 = DesignKind.COMPLETELY_RANDOMIZED


class TestDrawRandomization:
    def test_design1_two_schools(self):
        rng = np.random.default_rng(0)
        layout = StudyLayout(a=2, m=(3, 3), n=1)
        for _ in range(10):
            draw = draw_randomization(D1, layout, rng)
            sums = sorted(r.sum() for r in draw.r)
            assert sums == [-3.0, 3.0]
            for r in draw.r:
                assert len(set(r)) == 1

    def test_design2_balance_within_schools(self):
        rng = np.random.default_rng(1)
        layout = StudyLayout(a=3, m=2, n=1)
        for _ in range(10):
            draw = draw_randomization(D2, layout, rng)
            assert all(r.sum() == 0.0 for r in draw.r)

    def test_design2_odd_m_parity_error(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ParityError, match="even teacher count"):
            draw_randomization(D2, StudyLayout(a=2, m=3, n=1), rng)

    def test_design1_odd_a_parity_error(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ParityError, match="even school count"):
            draw_randomization(D1, StudyLayout(a=3, m=2, n=1), rng)

    def test_design3_global_balance(self):
        rng = np.random.default_rng(4)
        layout = StudyLayout(a=3, m=(2, 4, 2), n=1)
        for _ in range(10):
            draw = draw_randomization(D3, layout, rng)
            assert sum(r.sum() for r in draw.r) == 0.0

    def test_design3_odd_total_parity_error(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ParityError, match="even total"):
            draw_randomization(D3, StudyLayout(a=3, m=(2, 1, 2), n=1), rng)

    @pytest.mark.parametrize("kind,m,a", [(D1, 2, 2), (D2, 2, 2), (D3, 2, 2)])
    def test_empirical_moments(self, kind, m, a):
        # mean within 3 standard errors of 0, covariance coefficients
        # within 2 percent of their closed forms
        # the array draw behind draw_randomization, every draw in one call
        rng = np.random.default_rng(20090101)
        draws = 100_000
        u = rng.random((draws, _sign_uniforms(kind, (m,) * a)))
        pooled = _randomization_signs(kind, (m,) * a, u).reshape(draws, -1)
        acc = pooled.sum(axis=0)
        acc2 = pooled.T @ pooled
        mean = acc / draws
        cov = acc2 / draws - np.outer(mean, mean)
        assert np.abs(mean).max() <= 3.0 / np.sqrt(draws)
        expected_block = design_cov_r(kind.value, m, a)
        for i in range(a):
            block = cov[i * m : (i + 1) * m, i * m : (i + 1) * m]
            np.testing.assert_allclose(
                block, expected_block, atol=0.02 * np.abs(expected_block).max()
            )


class TestExpectedTeacherInformation:
    LAYOUT = StudyLayout(a=16, m=8, n=200)

    def test_design1_value(self):
        assert expected_teacher_information(D1, self.LAYOUT, PILOT_TEACHER) == pytest.approx(
            4.705882352941176, rel=1e-12
        )

    def test_design2_value(self):
        assert expected_teacher_information(D2, self.LAYOUT, PILOT_TEACHER) == pytest.approx(
            8.88888888888889, rel=1e-12
        )

    def test_design3_value(self):
        assert expected_teacher_information(D3, self.LAYOUT, PILOT_TEACHER) == pytest.approx(
            8.394832998816323, rel=1e-12
        )

    def test_zero_school_variance_collapses_designs(self):
        vc = TeacherVarianceComponents(0.0, 14.4)
        values = {
            kind: expected_teacher_information(kind, self.LAYOUT, vc)
            for kind in DesignKind
        }
        for value in values.values():
            assert value == pytest.approx(128 / 14.4, rel=1e-12)

    def test_design3_enumeration_oracle(self):
        # exhaustive average of the realized treatment information over all
        # C(6, 3) pooled assignments, via the dense precision matrix
        m, a = 2, 3
        vc = TeacherVarianceComponents(0.7, 1.3)
        vinv = np.linalg.inv(teacher_cov(m, 0.7, 1.3))
        values = []
        for realization in enumerate_randomizations("crd", m, a):
            values.append(sum(r @ vinv @ r for r in realization))
        layout = StudyLayout(a=a, m=m, n=1)
        assert np.mean(values) == pytest.approx(
            expected_teacher_information(D3, layout, vc), rel=1e-12
        )

    def test_design1_every_realization_attains_expectation(self):
        rng = np.random.default_rng(8)
        layout = StudyLayout(a=4, m=4, n=1)
        expected = expected_teacher_information(D1, layout, PILOT_TEACHER)
        for _ in range(20):
            xs = design_matrices(draw_randomization(D1, layout, rng))
            info = teacher_information(xs, PILOT_TEACHER)
            assert info[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_ordering_design2_above_design3_above_design1(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            layout = StudyLayout(
                a=2 * int(rng.integers(1, 9)), m=2 * int(rng.integers(1, 7)), n=1
            )
            vc = TeacherVarianceComponents(
                float(rng.uniform(0.05, 8.0)), float(rng.uniform(0.2, 8.0))
            )
            v1 = expected_teacher_information(D1, layout, vc)
            v2 = expected_teacher_information(D2, layout, vc)
            v3 = expected_teacher_information(D3, layout, vc)
            assert v2 > v3 > v1

    def test_parity_and_homogeneity_errors(self):
        with pytest.raises(ParityError):
            expected_teacher_information(D1, StudyLayout(a=3, m=2, n=1), PILOT_TEACHER)
        with pytest.raises(ValueError, match="differ across schools"):
            expected_teacher_information(D3, StudyLayout(a=2, m=(2, 4), n=1), PILOT_TEACHER)


class TestExpectedStudentInformationGivenD:
    def test_balanced_anchors_exact_instance(self):
        # subset-uniform construction at n = 7 * C(8, 2) is exactly balanced
        a, m, c, n = 16, 8, 2, 196
        ds = [subset_uniform_assignment(m, c, n)] * a
        trace_j = m * n * c**2 / (m * n * 1.6 + n * c**2 * 14.4 + m * 14.4)
        assert expected_student_information_given_D(D1, ds, PILOT_STUDENT) == pytest.approx(
            a * trace_j, rel=1e-9
        )

    def test_pilot_anchors_near_balanced_instance(self):
        # n=200 cannot be exactly pairwise-balanced for m=8, c=2; the
        # construction deviates from the closed forms by ~1e-5 relative
        a, m, c, n = 16, 8, 2, 200
        ds = [subset_uniform_assignment(m, c, n)] * a
        assert expected_student_information_given_D(D1, ds, PILOT_STUDENT) == pytest.approx(
            7.2137, abs=1e-3
        )
        assert expected_student_information_given_D(D2, ds, PILOT_STUDENT) == pytest.approx(
            8.6862, rel=1e-4
        )

    def test_matches_dense_trace_oracle(self):
        rng = np.random.default_rng(31)
        a, m, n = 2, 4, 5
        comps = (0.8, 2.5, 1.2)
        ds = [rng.integers(0, 3, size=(n, m)).astype(float) for _ in range(a)]
        covs = [student_cov(d, *comps) for d in ds]
        vc = StudentVarianceComponents(*comps)
        for kind, name in ((D1, "randomize_schools"), (D2, "within_schools"), (D3, "crd")):
            assert expected_student_information_given_D(kind, ds, vc) == pytest.approx(
                dense_expected_student_info(name, ds, covs), rel=1e-9
            )

    def test_c_equals_m_design2_is_zero(self):
        ds = [np.ones((6, 4))] * 2
        value = expected_student_information_given_D(D2, ds, PILOT_STUDENT)
        assert abs(value) < 1e-12

    def test_heterogeneous_m_rejected(self):
        ds = [np.ones((4, 2)), np.ones((4, 4))]
        with pytest.raises(ValueError, match="differ across schools"):
            expected_student_information_given_D(D2, ds, PILOT_STUDENT)

    @pytest.mark.parametrize(
        "kind,name", [(D1, "randomize_schools"), (D2, "within_schools"), (D3, "crd")]
    )
    def test_enumeration_consistency(self, kind, name):
        # averaging the realized information over every admissible
        # randomization reproduces the trace formula for arbitrary D
        rng = np.random.default_rng(77)
        a, m, n = 2, 2, 4
        ds = [rng.integers(0, 3, size=(n, m)).astype(float) for _ in range(a)]
        vc = StudentVarianceComponents(0.6, 1.7, 0.9)
        values = []
        for realization in enumerate_randomizations(name, m, a):
            xs = [np.column_stack([np.ones(m), r]) for r in realization]
            values.append(student_information(xs, ds, vc)[1, 1])
        assert np.mean(values) == pytest.approx(
            expected_student_information_given_D(kind, ds, vc), rel=1e-9
        )


SPEC = BalancedSpec(m=4, n=6, c=2, a=2)
#: the closed forms over the balanced student traces, as functions of the components
BALANCED_FORMS = {
    "balanced_traces": lambda vc: balanced_traces(SPEC, vc),
    "balanced_student_information": lambda vc: balanced_student_information(D1, SPEC, vc),
    "student_inflation_design2": lambda vc: student_inflation_design2(0.5, SPEC, vc),
    "efficiency_condition": lambda vc: efficiency_condition(SPEC, vc),
}
#: the closed forms over the teacher traces
TEACHER_FORMS = {
    "expected_teacher_information": lambda vc: expected_teacher_information(
        D2, StudyLayout(a=2, m=4, n=6), vc
    ),
    "teacher_inflation_design2": lambda vc: teacher_inflation_design2(0.5, 4, vc),
}


class TestClosedFormRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: expected_student_information_given_D(D2, [], PILOT_STUDENT),
                ValueError,
                "at least one school block",
                id="student_information_given_no_school",
            ),
            pytest.param(
                lambda: teacher_inflation_design2(0.5, 1, PILOT_TEACHER),
                ParityError,
                "at least 2 teachers",
                id="teacher_inflation_one_teacher",
            ),
            pytest.param(
                lambda: contaminated_expected_moment_matrix(np.ones((2, 3)), 0.5),
                ValueError,
                "G must be square",
                id="moment_matrix_not_square",
            ),
            pytest.param(
                lambda: balanced_traces(
                    BalancedSpec(m=4, n=6, c=2, a=2), StudentVarianceComponents(0.0, 0.0, 0.0)
                ),
                SingularCovarianceError,
                "sigma_eta2 must be > 0",
                id="balanced_traces_all_zero",
            ),
        ],
    )
    def test_refused_inputs(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize(
        "name, vc, expected",
        [
            pytest.param(name, PILOT_TEACHER, "StudentVarianceComponents", id=name)
            for name in BALANCED_FORMS
        ]
        + [
            pytest.param(name, PILOT_STUDENT, "TeacherVarianceComponents", id=name)
            for name in TEACHER_FORMS
        ],
    )
    def test_components_of_the_other_level_rejected(self, name, vc, expected):
        with pytest.raises(TypeError, match=f"expected {expected}"):
            {**BALANCED_FORMS, **TEACHER_FORMS}[name](vc)

    @pytest.mark.parametrize("name", list(BALANCED_FORMS))
    @pytest.mark.parametrize(
        "components", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], ids=["school_only", "teacher_only"]
    )
    def test_zero_student_residual_rejected(self, name, components):
        # a singular student covariance, where the forms divided by zero or
        # returned a number
        with pytest.raises(SingularCovarianceError) as err:
            BALANCED_FORMS[name](StudentVarianceComponents(*components))
        assert err.value.field == "student_vc.sigma_eta2"


class TestContaminationRule:
    def test_design3_upper_bound(self):
        validate_contamination(D3, 0.5)
        with pytest.raises(ValueError, match="outside"):
            validate_contamination(D3, 0.6)

    def test_design2_full_range(self):
        validate_contamination(D2, 1.0)

    def test_design1_effective_zero(self):
        assert D1.effective_q(0.7) == 0.0
        assert D2.effective_q(0.7) == 0.7
        assert D3.effective_q(0.4) == 0.4

    @pytest.mark.parametrize("kind", list(DesignKind), ids=lambda kind: kind.value)
    def test_probability_at_most_one_at_largest_q(self, kind):
        # a control teacher's probability (1'R_i + m_i) q / m_i is 2 q times
        # the treated share of its school: none under randomize_schools, 1/2
        # under within_schools, below 1 under crd, whose q is at most 0.5;
        # so q in the design's range needs no clipping
        q = 0.5 if kind is D3 else 1.0
        validate_contamination(kind, q)
        probs = [
            (r.sum() + m) * q / m
            for m, a in ((2, 4), (4, 2), (6, 2))
            for realization in enumerate_randomizations(kind.value, m, a)
            for r in realization
            if np.any(r == -1.0)
        ]
        assert max(probs) <= 1.0

    def test_crd_single_control_teacher(self):
        # the largest crd probability: one control beside m - 1 treated
        # teachers contaminates with (m - 1)/m at q = 0.5, here 0.75
        signs = np.array([[1.0, 1.0, 1.0, -1.0], [1.0, -1.0, -1.0, -1.0]])
        for u, flagged in ((0.7499, 1.0), (0.7501, 0.0)):
            flags = _contamination_flags(signs, 0.5, np.full(8, u))
            assert flags[0].tolist() == [0.0, 0.0, 0.0, flagged]


def _traces(g):
    """(t_J, w) = (tr(G J), tr(G (m I - J))) of one precision."""
    t_j = float(g.sum())
    return t_j, g.shape[0] * float(np.trace(g)) - t_j


class TestMomentRule:
    """Every closed form comes from Cov(R_i) = alpha J + beta (m I - J)."""

    @pytest.mark.parametrize("m,a", [(2, 2), (4, 2), (4, 4), (6, 2), (8, 16)])
    def test_moments_match_dense_covariance(self, m, a):
        eye, ones = np.eye(m), np.ones((m, m))
        for kind in DesignKind:
            alpha, beta = kind.moments(m, a)
            np.testing.assert_allclose(
                alpha * ones + beta * (m * eye - ones),
                design_cov_r(kind.value, m, a),
                rtol=1e-14,
                atol=1e-15,
            )
            q = 0.4
            expected = q / (2 * m) * (m * np.ones(m) - design_cov_r(kind.value, m, a).sum(axis=1))
            for mu in expected_contamination(kind, StudyLayout(a=a, m=m, n=1), q):
                np.testing.assert_allclose(mu, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("m,a", [(2, 2), (4, 2), (4, 4), (6, 2), (8, 16)])
    def test_shared_inflation_matches_both_levels(self, m, a):
        t_j, w = _traces(teacher_precision(m, PILOT_TEACHER))
        c = 1 if m == 2 else 2
        n = 2 * math.comb(m, c)
        d = subset_uniform_assignment(m, c, n)
        s_j, s_w = _traces(student_precision(d, PILOT_STUDENT))
        for q in (0.1, 0.5, 0.9):
            assert D2.inflation(q, m, t_j, w) == pytest.approx(
                teacher_inflation_design2(q, m, PILOT_TEACHER), rel=1e-12
            )
            assert D2.inflation(q, m, s_j, s_w) == pytest.approx(
                student_inflation_design2(q, BalancedSpec(m, n, c, a), PILOT_STUDENT), rel=1e-12
            )


class TestDrawContamination:
    def _design2_draw(self, rng, m=4, a=3):
        layout = StudyLayout(a=a, m=m, n=1)
        return draw_randomization(D2, layout, rng)

    def test_q_zero_all_clear(self):
        rng = np.random.default_rng(41)
        draw = self._design2_draw(rng)
        out = draw_contamination(draw, 0.0, rng, kind=D2)
        assert all(np.all(ci == 0.0) for ci in out.c)

    def test_design1_never_contaminates(self):
        rng = np.random.default_rng(42)
        layout = StudyLayout(a=4, m=3, n=1)
        for _ in range(10):
            draw = draw_randomization(D1, layout, rng)
            out = draw_contamination(draw, 0.9, rng, kind=D1)
            assert all(np.all(ci == 0.0) for ci in out.c)

    def test_design2_q_one_saturates_controls(self):
        rng = np.random.default_rng(43)
        draw = self._design2_draw(rng)
        out = draw_contamination(draw, 1.0, rng, kind=D2)
        for ri, ci in zip(out.r, out.c):
            np.testing.assert_allclose(ci, (1.0 - ri) / 2.0)

    def test_never_contaminates_treated(self):
        rng = np.random.default_rng(44)
        layout = StudyLayout(a=3, m=4, n=1)
        for _ in range(50):
            draw = draw_randomization(D3, layout, rng)
            out = draw_contamination(draw, 0.5, rng, kind=D3)
            for ri, ci in zip(out.r, out.c):
                assert np.all(ci * (1.0 + ri) == 0.0)

    def test_out_of_range_q(self):
        rng = np.random.default_rng(45)
        draw = self._design2_draw(rng)
        with pytest.raises(ValueError, match="outside"):
            draw_contamination(draw, 0.6, rng, kind=D3)


class TestExpectedContamination:
    def test_design2_level(self):
        layout = StudyLayout(a=3, m=4, n=1)
        means = expected_contamination(D2, layout, 0.5)
        for mu in means:
            np.testing.assert_allclose(mu, 0.25)

    def test_design3_level(self):
        layout = StudyLayout(a=16, m=8, n=1)
        means = expected_contamination(D3, layout, 0.5)
        np.testing.assert_allclose(means[0], 0.2204724409448819, rtol=1e-12)

    def test_design1_zero(self):
        layout = StudyLayout(a=4, m=3, n=1)
        for mu in expected_contamination(D1, layout, 0.8):
            np.testing.assert_allclose(mu, 0.0)

    def test_q_zero(self):
        layout = StudyLayout(a=4, m=4, n=1)
        for kind in DesignKind:
            for mu in expected_contamination(kind, layout, 0.0):
                np.testing.assert_allclose(mu, 0.0)

    def test_design3_monte_carlo(self):
        # the array draws behind draw_randomization and draw_contamination,
        # every draw in one call each
        rng = np.random.default_rng(20090202)
        draws = 20_000
        signs = _randomization_signs(D3, (8,) * 16, rng.random((draws, 128)))
        flags = _contamination_flags(signs, 0.5, rng.random((draws, 128)))
        np.testing.assert_allclose(flags[:, 0].mean(axis=0), 0.2204724409448819, rtol=0.01 * 3)


class TestContaminatedMomentMatrix:
    def test_q_zero_reduces_to_reciprocal(self):
        g = np.linalg.inv(teacher_cov(8, 1.6, 14.4))
        e, entry = contaminated_expected_moment_matrix(g, 0.0)
        t_c = np.trace(g @ ((8 * np.eye(8) - np.ones((8, 8))) / 7.0))
        assert entry == pytest.approx(1.0 / t_c, rel=1e-12)
        assert np.all(e[2] == 0.0) and np.all(e[:, 2] == 0.0)

    def test_matches_numeric_inverse_pilot(self):
        g = np.linalg.inv(teacher_cov(8, 1.6, 14.4))
        e, entry = contaminated_expected_moment_matrix(g, 0.5)
        np.testing.assert_allclose(e, contaminated_moment_matrix_numeric(g, 0.5), rtol=1e-12)
        assert entry == pytest.approx(np.linalg.inv(e)[1, 1], rel=1e-10)
        assert entry == pytest.approx(contaminated_treatment_entry_numeric(g, 0.5), rel=1e-10)

    def test_identity_g_hand_value(self):
        _, entry = contaminated_expected_moment_matrix(np.eye(4), 0.5)
        assert entry == pytest.approx(0.375, rel=1e-12)

    def test_q_one_pole(self):
        with pytest.raises(DegenerateContaminationError):
            contaminated_expected_moment_matrix(np.eye(4), 1.0)

    def test_zero_information_direction(self):
        # G = J has tr(G Cov(R)) = 0
        with pytest.raises(NonEstimableError):
            contaminated_expected_moment_matrix(np.ones((4, 4)), 0.5)

    def test_student_precision_accepted_asymmetric_rejected(self):
        # a small sigma_eta2 leaves the solved G asymmetric by ~1e-9 before
        # student_precision symmetrizes it
        rng = np.random.default_rng(1)
        d = draw_assignment(AssignmentPolicy.with_replacement(2), 8, 200, rng)
        g = student_precision(d, StudentVarianceComponents(1.6, 14.4, 1e-5))
        _, entry = contaminated_expected_moment_matrix(g, 0.5)
        assert np.isfinite(entry)
        g[0, 1] += 1e-6 * np.abs(g).max()
        with pytest.raises(ValueError, match="asymmetric"):
            contaminated_expected_moment_matrix(g, 0.5)

    def test_monte_carlo_moments(self):
        # empirical average of X'GX over design-2 draws with contamination,
        # the array draws behind draw_randomization and draw_contamination
        # taking every draw in one call each; X is the first school's [1 R C]
        rng = np.random.default_rng(20090203)
        m, q = 4, 0.5
        g = np.linalg.inv(teacher_cov(m, 0.9, 1.7))
        e, _ = contaminated_expected_moment_matrix(g, q)
        draws = 40_000
        signs = _randomization_signs(D2, (m, m), rng.random((draws, 2 * m)))
        flags = _contamination_flags(signs, q, rng.random((draws, 2 * m)))
        x = np.stack([np.ones((draws, m)), signs[:, 0], flags[:, 0]], axis=-1)
        acc = np.einsum("dip,ij,djq->pq", x, g, x)
        np.testing.assert_allclose(acc / draws, e, atol=0.02 * np.abs(e).max())


class TestTeacherInflationConsistency:
    def test_inflated_variance_vs_uncontaminated(self):
        # the ratio of the contaminated expected-moment variance to the
        # uncontaminated one reproduces the closed-form teacher inflation
        from multilevel_design import teacher_inflation_design2

        g = teacher_precision(8, PILOT_TEACHER)
        _, entry = contaminated_expected_moment_matrix(g, 0.5)
        t_c = np.trace(g @ ((8 * np.eye(8) - np.ones((8, 8))) / 7.0))
        assert entry * t_c == pytest.approx(
            teacher_inflation_design2(0.5, 8, PILOT_TEACHER), rel=1e-12
        )
