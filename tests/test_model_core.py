"""Tests for the covariance / information matrix layer."""

import numpy as np
import pytest

from multilevel_design import (
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    TreatmentAssignment,
    design_matrices,
    gls_estimate,
    student_information,
    student_precision,
    teacher_information,
    teacher_precision,
    treatment_variance,
)
from multilevel_design.model_core import _explained

from oracles import (
    dense_student_info,
    single_course_assignment,
    student_cov,
    subset_uniform_assignment,
    teacher_cov,
)

PILOT_TEACHER = TeacherVarianceComponents(sigma_v2=1.6, sigma_eps2=14.4)
PILOT_STUDENT = StudentVarianceComponents(sigma_s2=1.6, sigma_t2=14.4, sigma_eta2=14.4)


def design1_realization(a, m):
    """Half the schools all-treated, half all-control."""
    return TreatmentAssignment(
        r=tuple(np.full(m, 1.0 if i < a // 2 else -1.0) for i in range(a))
    )


def design2_realization(a, m):
    """Alternating +-1 within every school."""
    base = np.array([1.0, -1.0] * (m // 2))
    return TreatmentAssignment(r=tuple(base.copy() for _ in range(a)))


class TestDomainTypes:
    def test_teacher_vc_validation(self):
        with pytest.raises(ValueError):
            TeacherVarianceComponents(sigma_v2=-0.1, sigma_eps2=1.0)
        with pytest.raises(ValueError):
            TeacherVarianceComponents(sigma_v2=1.0, sigma_eps2=-0.5)

    def test_teacher_vc_rho(self):
        assert PILOT_TEACHER.rho == pytest.approx(0.1)
        assert 0.0 <= TeacherVarianceComponents(0.0, 2.0).rho < 1.0

    def test_zero_residual_blocks_inversion(self):
        degenerate = TeacherVarianceComponents(1.0, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            teacher_precision(3, degenerate)
        with pytest.raises(np.linalg.LinAlgError):
            teacher_information([np.ones((2, 2))], degenerate)

    def test_student_vc_validation(self):
        with pytest.raises(ValueError):
            StudentVarianceComponents(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            StudentVarianceComponents(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            StudentVarianceComponents(1.0, 1.0, -1.0)

    def test_zero_student_residual_blocks_solve(self):
        degenerate = StudentVarianceComponents(1.0, 1.0, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            student_precision(np.ones((3, 2)), degenerate)

    def test_numerically_singular_kernel_names_sigma_eta2(self):
        # sigma_eta2 > 0 passes the level's guard, but K = sigma_eta2 I + W'W
        # is rank one plus 1e-10 here, singular in floating point
        tiny = StudentVarianceComponents(1e8, 1e8, 1e-10)
        with pytest.raises(np.linalg.LinAlgError) as err:
            student_precision(np.ones((1, 1)), tiny)
        assert err.value.field == "student_vc.sigma_eta2"

    def test_layout_normalizes_scalars(self):
        layout = StudyLayout(a=3, m=4, n=10)
        assert layout.m == (4, 4, 4)
        assert layout.n == (10, 10, 10)
        assert layout.homogeneous_m() == 4

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            StudyLayout(a=1, m=2, n=2)
        with pytest.raises(ValueError):
            StudyLayout(a=2, m=(2, 0), n=2)
        with pytest.raises(ValueError):
            StudyLayout(a=2, m=(2, 2, 2), n=2)
        with pytest.raises(ValueError):
            StudyLayout(a=2, m=(2, 4), n=2).homogeneous_m()

    def test_layout_rejects_non_integer_counts(self):
        with pytest.raises(FieldError) as err:
            StudyLayout(a=2, m=2.7, n=[5.9, 3])
        assert err.value.field == "teachers_per_school"
        with pytest.raises(FieldError) as err:
            StudyLayout(a=2, m=2, n=[5.9, 3])
        assert err.value.field == "students_per_school"
        with pytest.raises(FieldError) as err:
            StudyLayout(a=2.0, m=2, n=3)
        assert err.value.field == "schools"

    def test_errors_name_their_config_field(self):
        with pytest.raises(FieldError) as err:
            TeacherVarianceComponents(sigma_v2=-1.0, sigma_eps2=1.0)
        assert err.value.field == "teacher_vc.sigma_v2"
        with pytest.raises(FieldError) as err:
            StudentVarianceComponents(1.0, -1.0, 1.0)
        assert err.value.field == "student_vc.sigma_t2"
        # the singular-covariance error is also a LinAlgError
        with pytest.raises(np.linalg.LinAlgError) as err:
            StudentVarianceComponents.check(StudentVarianceComponents(1.0, 1.0, 0.0))
        assert isinstance(err.value, FieldError)
        assert err.value.field == "student_vc.sigma_eta2"

    def test_treatment_assignment_validation(self):
        with pytest.raises(ValueError):
            TreatmentAssignment(r=(np.array([1.0, 0.0]),))
        with pytest.raises(ValueError):
            TreatmentAssignment(
                r=(np.array([1.0, -1.0]),), c=(np.array([1.0, 0.0]),)
            )  # treated teacher flagged as contaminated
        ok = TreatmentAssignment(r=(np.array([1.0, -1.0]),), c=(np.array([0.0, 1.0]),))
        assert len(ok.r) == len(ok.c) == 1

    @pytest.mark.parametrize(
        "r, c, message",
        [
            ((np.ones((2, 2)),), None, "1-D treatment sequence"),
            ((np.array([1.0, -1.0]),), (), "one sequence per school"),
            ((np.array([1.0, -1.0]),), (np.zeros(3),), "shape must match"),
            ((np.array([1.0, -1.0]),), (np.array([0.0, 0.5]),), "must be 0 or 1"),
        ],
        ids=["2d_r", "contamination_count", "contamination_shape", "contamination_flags"],
    )
    def test_treatment_assignment_refusals(self, r, c, message):
        with pytest.raises(ValueError, match=message):
            TreatmentAssignment(r=r, c=c)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda xs, ds: teacher_information(xs, PILOT_STUDENT),
                TypeError,
                "expected TeacherVarianceComponents",
                id="teacher_information",
            ),
            pytest.param(
                lambda xs, ds: student_information(xs, ds, PILOT_TEACHER),
                TypeError,
                "expected StudentVarianceComponents",
                id="student_information",
            ),
            pytest.param(
                lambda xs, ds: gls_estimate([np.zeros(4)] * 2, xs, PILOT_STUDENT),
                TypeError,
                "expected TeacherVarianceComponents",
                id="gls_estimate_without_ds",
            ),
            pytest.param(
                lambda xs, ds: teacher_precision(4, PILOT_STUDENT),
                TypeError,
                "expected TeacherVarianceComponents",
                id="teacher_precision_components",
            ),
            pytest.param(
                lambda xs, ds: student_precision(ds[0], PILOT_TEACHER),
                TypeError,
                "expected StudentVarianceComponents",
                id="student_precision_components",
            ),
            pytest.param(
                lambda xs, ds: student_precision(np.ones(3), PILOT_STUDENT),
                ValueError,
                r"must be \(\.\.\., n, m\)",
                id="student_precision_1d",
            ),
            pytest.param(
                lambda xs, ds: teacher_precision(0, PILOT_TEACHER),
                ValueError,
                "m must be >= 1",
                id="teacher_precision_no_teacher",
            ),
            pytest.param(
                lambda xs, ds: teacher_information([], PILOT_TEACHER),
                ValueError,
                "at least one school",
                id="teacher_information_no_school",
            ),
            pytest.param(
                lambda xs, ds: teacher_information([np.ones((4, 4))], PILOT_TEACHER),
                ValueError,
                "2 or 3 columns",
                id="teacher_information_4_columns",
            ),
            pytest.param(
                lambda xs, ds: student_information(xs, ds[:1], PILOT_STUDENT),
                ValueError,
                "2 design matrices but 1 count matrices",
                id="student_information_missing_counts",
            ),
            pytest.param(
                lambda xs, ds: gls_estimate([np.zeros(3)] * 2, xs, PILOT_TEACHER),
                ValueError,
                "one response per teacher",
                id="gls_estimate_response_lengths",
            ),
        ],
    )
    def test_one_school_inputs_of_the_wrong_kind(self, call, error, message):
        # components of the other level, a count matrix without two axes, or
        # inputs of the wrong count or shape are refused with an error that
        # names what was expected
        xs = design_matrices(design2_realization(2, 4))
        ds = [single_course_assignment(4, 8)] * 2
        with pytest.raises(error, match=message):
            call(xs, ds)

    def test_information_matrix_validation(self):
        # treatment_variance is the one check of an information matrix
        rejected = [
            (np.array([[1.0, 0.5], [0.4, 1.0]]), "asymmetric"),
            (np.array([[1.0, 0.0], [0.0, -1.0]]), "not PSD"),
            (np.ones((2, 3)), "square"),
            (np.stack([np.eye(2), np.eye(2)]), "square"),
            (np.array([[1.0, 0.0], [0.0, np.nan]]), "non-finite"),
        ]
        for info, message in rejected:
            with pytest.raises(ValueError, match=message):
                treatment_variance(info)
        ok = np.diag([2.0, 3.0])
        assert treatment_variance(ok).variance == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestTeacherPrecision:
    def test_hand_inverse(self):
        np.testing.assert_allclose(
            teacher_precision(2, TeacherVarianceComponents(1.0, 2.0)),
            [[0.375, -0.125], [-0.125, 0.375]],
        )

    def test_diagonal_case(self):
        np.testing.assert_allclose(
            teacher_precision(4, TeacherVarianceComponents(0.0, 2.0)), 0.5 * np.eye(4)
        )

    def test_matches_dense_inverse(self):
        dense = np.linalg.inv(teacher_cov(8, 1.6, 14.4))
        np.testing.assert_allclose(
            teacher_precision(8, PILOT_TEACHER), dense, rtol=1e-12, atol=1e-14
        )

    def test_one_teacher_is_the_reciprocal_total_variance(self):
        # (I - J/m) vanishes at m = 1, leaving t_J = 1/(sigma_eps2 + sigma_v2)
        g = teacher_precision(1, TeacherVarianceComponents(1e6, 1e-6))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0 / (1e6 + 1e-6), rel=1e-15, abs=0.0)

    def test_product_is_identity_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            m = int(rng.integers(1, 65))
            vc = TeacherVarianceComponents(
                sigma_v2=float(rng.uniform(0.0, 20.0)),
                sigma_eps2=float(rng.uniform(0.1, 20.0)),
            )
            product = teacher_precision(m, vc) @ teacher_cov(m, vc.sigma_v2, vc.sigma_eps2)
            np.testing.assert_allclose(product, np.eye(m), rtol=1e-12, atol=1e-12)


class TestTeacherInformation:
    def test_design2_realization(self):
        xs = design_matrices(design2_realization(16, 8))
        info = teacher_information(xs, PILOT_TEACHER)
        np.testing.assert_allclose(
            info, np.diag([4.70588, 8.88889]), atol=1e-4
        )
        dense = sum(x.T @ np.linalg.solve(teacher_cov(8, 1.6, 14.4), x) for x in xs)
        np.testing.assert_allclose(info, dense, rtol=1e-10, atol=1e-12)

    def test_design1_realization(self):
        xs = design_matrices(design1_realization(16, 8))
        info = teacher_information(xs, PILOT_TEACHER)
        np.testing.assert_allclose(info, 4.70588 * np.eye(2), atol=1e-4)

    def test_iid_case(self):
        xs = design_matrices(design2_realization(4, 4))
        info = teacher_information(xs, TeacherVarianceComponents(0.0, 2.0))
        np.testing.assert_allclose(info, (16 / 2.0) * np.eye(2), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            teacher_information([np.ones((3, 2)), np.ones((3, 4))], PILOT_TEACHER)

    def test_contamination_column_labels(self):
        # columns are intercept, treatment, contamination in that order
        assignment = TreatmentAssignment(
            r=(np.array([1.0, -1.0]),), c=(np.array([0.0, 1.0]),)
        )
        info = teacher_information(design_matrices(assignment), PILOT_TEACHER)
        x = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])
        dense = x.T @ np.linalg.solve(teacher_cov(2, 1.6, 14.4), x)
        np.testing.assert_allclose(info, dense, rtol=1e-12, atol=1e-15)


class TestSolveStudentSystem:
    """The student system D' Sigma^-1 D as student_precision solves it in
    teacher space, against the dense covariance."""

    def test_inverse_round_trip(self):
        d = subset_uniform_assignment(3, 2, 6)
        vc = StudentVarianceComponents(0.5, 2.0, 1.5)
        sigma = student_cov(d, 0.5, 2.0, 1.5)
        m = np.linalg.solve(sigma, d)  # G = D' Sigma^-1 (Sigma m) = D'm
        np.testing.assert_allclose(student_precision(d, vc), d.T @ m, atol=1e-10)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(12)
        d = subset_uniform_assignment(2, 1, 6)
        comps = (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)), float(rng.uniform(0.5, 3)))
        vc = StudentVarianceComponents(*comps)
        expected = d.T @ np.linalg.solve(student_cov(d, *comps), d)
        np.testing.assert_allclose(student_precision(d, vc), expected, rtol=1e-10, atol=1e-12)

    def test_pure_residual(self):
        vc = StudentVarianceComponents(0.0, 0.0, 2.0)
        d = np.ones((4, 2))
        np.testing.assert_allclose(student_precision(d, vc), d.T @ d / 2.0)

    def test_dense_agreement_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, 9))
            d = rng.integers(0, 3, size=(n, m)).astype(float)
            comps = (
                float(rng.uniform(0, 4)),
                float(rng.uniform(0, 4)),
                float(rng.uniform(0.2, 4)),
            )
            vc = StudentVarianceComponents(*comps)
            expected = d.T @ np.linalg.solve(student_cov(d, *comps), d)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(
                student_precision(d, vc), expected, atol=1e-10 * max(scale, 1.0)
            )

    def test_stacked_matches_per_school(self):
        rng = np.random.default_rng(13)
        ds = rng.integers(0, 3, size=(5, 9, 4)).astype(float)
        for comps in ((0.7, 1.9, 0.4), (0.0, 1.9, 0.4), (0.7, 0.0, 0.4), (0.0, 0.0, 0.4)):
            vc = StudentVarianceComponents(*comps)
            precisions = student_precision(ds, vc)
            for i in range(len(ds)):
                np.testing.assert_allclose(
                    precisions[i], student_precision(ds[i], vc), rtol=1e-12, atol=0.0
                )


class TestStudentInformation:
    def test_c_equals_m_is_exactly_zero(self):
        # every student takes every teacher, so D R = 0 for balanced R
        a, m, n = 4, 4, 6
        ds = [np.ones((n, m)) for _ in range(a)]
        xs = design_matrices(design2_realization(a, m))
        info = student_information(xs, ds, PILOT_STUDENT)
        assert info[1, 1] == 0.0
        assert info[0, 1] == 0.0

    def test_balanced_design1_anchor(self):
        # one balanced school block reused across 16 schools
        a, m, n, c = 16, 8, 200, 2
        d = subset_uniform_assignment(m, c, n)
        ds = [d] * a
        xs = design_matrices(design1_realization(a, m))
        info = student_information(xs, ds, PILOT_STUDENT)
        assert info[1, 1] == pytest.approx(7.2137, abs=1e-3)

    @pytest.mark.parametrize(
        "blocks,comps",
        [
            ("random", (0.9, 2.0, 1.1)),
            ("idle_teacher", (0.9, 2.0, 1.1)),
            ("c_equals_m", (0.9, 2.0, 1.1)),
            ("n_equals_1", (0.9, 2.0, 1.1)),
            ("random", (0.0, 2.0, 1.1)),
            ("random", (0.9, 0.0, 1.1)),
        ],
        ids=["random", "idle_teacher", "c_equals_m", "n_equals_1", "sigma_s2_zero", "sigma_t2_zero"],
    )
    def test_matches_dense_oracle(self, blocks, comps):
        rng = np.random.default_rng(5)
        a, m, n = 3, 4, 6
        ds = [rng.integers(0, 2, size=(n, m)).astype(float) for _ in range(a)]
        if blocks == "idle_teacher":
            for d in ds:
                d[:, 2] = 0.0  # teacher 2 has no students
        elif blocks == "c_equals_m":
            ds = [np.ones((n, m))] * a
        elif blocks == "n_equals_1":
            ds = [np.array([[1.0, 0, 0, 0]]), np.array([[0.0, 1, 1, 0]]), np.array([[1.0, 1, 1, 0]])]
        base = np.array([1.0, -1.0, 1.0, -1.0])
        xs = [np.column_stack([np.ones(m), base]) for _ in range(a)]
        vc = StudentVarianceComponents(*comps)
        info = student_information(xs, ds, vc)
        covs = [student_cov(d, *comps) for d in ds]
        dense = dense_student_info(xs, ds, covs)
        np.testing.assert_allclose(info, dense, rtol=1e-9)

        # the student GLS fit against dense solves of the same system
        y = [rng.normal(size=len(d)) for d in ds]
        if dense[1, 1] == 0.0:  # c = m: D R = 0 leaves treatment without information
            with pytest.raises(NonEstimableError):
                gls_estimate(y, xs, vc, ds=ds)
            return
        coef, cov = gls_estimate(y, xs, vc, ds=ds)
        rhs = sum(x.T @ d.T @ np.linalg.solve(v, yi) for x, d, v, yi in zip(xs, ds, covs, y))
        np.testing.assert_allclose(cov, np.linalg.inv(dense), rtol=1e-9)
        np.testing.assert_allclose(coef, np.linalg.solve(dense, rhs), rtol=1e-9)

    def test_exhaustive_single_course_small(self):
        # a=2, m=2, n=2, c=1: averaging over within-school randomizations
        # reproduces an/(sigma_t2*n/m + sigma_eta2)
        a, m, n = 2, 2, 2
        comps = (1.6, 14.4, 14.4)
        vc = StudentVarianceComponents(*comps)
        ds = [single_course_assignment(m, n) for _ in range(a)]
        patterns = [np.array([1.0, -1.0]), np.array([-1.0, 1.0])]
        total = 0.0
        count = 0
        for r1 in patterns:
            for r2 in patterns:
                xs = [np.column_stack([np.ones(m), r]) for r in (r1, r2)]
                total += student_information(xs, ds, vc)[1, 1]
                count += 1
        closed = a * n / (comps[1] * n / m + comps[2])
        assert total / count == pytest.approx(closed, rel=1e-9)

    def test_dimension_mismatch(self):
        xs = design_matrices(design2_realization(2, 2))
        with pytest.raises(ValueError):
            student_information(xs, [np.ones((3, 4)), np.ones((3, 2))], PILOT_STUDENT)


class TestTreatmentVariance:
    def test_reciprocal_of_diagonal(self):
        result = treatment_variance(np.diag([4.70588, 8.88889]))
        assert result.variance == pytest.approx(0.1125, abs=1e-5)

    def test_design1_teacher_anchor(self):
        info = teacher_information(
            design_matrices(design1_realization(16, 8)), PILOT_TEACHER
        )
        result = treatment_variance(info)
        assert result.variance == pytest.approx(0.2125, rel=1e-12)
        assert result.se_diff == pytest.approx(0.9219544457292887, rel=1e-12)

    def test_non_estimable_singular_direction(self):
        with pytest.raises(NonEstimableError):
            treatment_variance(np.diag([4.0, 0.0]))

    def test_collinear_contamination_column(self):
        # q=1 contamination: C = (1 - R)/2 makes treatment non-estimable
        r = np.array([1.0, -1.0, 1.0, -1.0])
        x = np.column_stack([np.ones(4), r, (1.0 - r) / 2.0])
        info = teacher_information([x, x], PILOT_TEACHER)
        with pytest.raises(NonEstimableError):
            treatment_variance(info)

    def test_all_zero_contamination_column_keeps_two_column_answer(self):
        # nobody contaminated: the pseudo-inverse drops the empty third
        # direction, for the pivot and for the GLS covariance alike
        r = np.array([1.0, 1.0, 1.0, -1.0])
        x2 = np.column_stack([np.ones(4), r])
        x3 = np.column_stack([x2, np.zeros(4)])
        expected = np.linalg.inv(teacher_information([x2, x2], PILOT_TEACHER))[1, 1]
        info3 = teacher_information([x3, x3], PILOT_TEACHER)
        assert treatment_variance(info3).variance == pytest.approx(expected, rel=1e-12)
        _, cov = gls_estimate([r, -r], [x3, x3], PILOT_TEACHER)
        assert cov[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_inverse_when_nonsingular(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(3, 3))
        info = b @ b.T + 0.5 * np.eye(3)
        expected = np.linalg.inv(info)[1, 1]
        assert treatment_variance(info).variance == pytest.approx(expected, rel=1e-10)

    def test_plain_matrix_defaults_to_treatment_column(self):
        assert treatment_variance(np.diag([2.0, 4.0])).variance == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("p", [1, 4])
    def test_only_two_or_three_columns(self, p):
        with pytest.raises(ValueError, match="2 or 3 parameters"):
            treatment_variance(np.eye(p))



class TestExplained:
    """_explained(block, u, v) = u' block^+ v, the elimination behind every
    pivot and the engine's GLS coefficients, against numpy's pseudo-inverse
    and lstsq."""

    @staticmethod
    def _stack(kind, rng, count=6):
        """``count`` PSD blocks of one kind with an info column u and a right side v."""
        size = 1 if kind == "1x1" else 2
        w = rng.standard_normal((count, size, size))
        block = w @ np.swapaxes(w, -1, -2) + 0.1 * np.eye(size)
        u, v = rng.standard_normal((2, count, size))
        if kind == "rank1":  # an all-zero contamination column: its row, u and v are 0
            block[:, 1, :] = block[:, :, 1] = 0.0
            u[:, 1] = v[:, 1] = 0.0
        return block, u, v

    @pytest.mark.parametrize("kind", ["1x1", "full2x2", "rank1"])
    def test_matches_pinv_and_lstsq(self, kind):
        block, u, v = self._stack(kind, np.random.default_rng(7))
        got = _explained(block, u, v)
        via_pinv = np.einsum("ri,rij,rj->r", u, np.linalg.pinv(block, hermitian=True), v)
        via_lstsq = [u_r @ np.linalg.lstsq(b_r, v_r)[0] for b_r, u_r, v_r in zip(block, u, v)]
        np.testing.assert_allclose(got, via_pinv, rtol=1e-12)
        np.testing.assert_allclose(got, via_lstsq, rtol=1e-12)
        np.testing.assert_array_equal(_explained(block, u), _explained(block, u, u))
        # block and u scaled by 4^k (an information) and v by 2^k (a right
        # side): u' block^+ v scales by 2^k, bit for bit
        for k in (-500, 500):
            scaled = _explained(np.ldexp(block, 2 * k), np.ldexp(u, 2 * k), np.ldexp(v, k))
            np.testing.assert_array_equal(scaled, np.ldexp(got, k))


class TestInformationProperties:
    def test_symmetry_and_psd_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = int(rng.integers(2, 5))
            m = 2 * int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            base = np.array([1.0, -1.0] * (m // 2))
            xs = [np.column_stack([np.ones(m), base]) for _ in range(a)]
            ds = [rng.integers(0, 2, size=(n, m)).astype(float) for _ in range(a)]
            tvc = TeacherVarianceComponents(float(rng.uniform(0, 5)), float(rng.uniform(0.2, 5)))
            svc = StudentVarianceComponents(
                float(rng.uniform(0, 5)), float(rng.uniform(0, 5)), float(rng.uniform(0.2, 5))
            )
            for info in (teacher_information(xs, tvc), student_information(xs, ds, svc)):
                np.testing.assert_allclose(info, info.T, atol=1e-12)
                eigs = np.linalg.eigvalsh(info)
                assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_design1_student_info_realization_invariant(self):
        # all-same-sign schools: the student information does not depend on
        # which half of the schools is treated
        a, m, n, c = 4, 4, 8, 2
        d = subset_uniform_assignment(m, c, n)
        ds = [d] * a
        values = []
        for treated in ([0, 1], [0, 2], [2, 3], [1, 3]):
            r = tuple(
                np.full(m, 1.0 if i in treated else -1.0) for i in range(a)
            )
            xs = design_matrices(TreatmentAssignment(r=r))
            values.append(student_information(xs, ds, PILOT_STUDENT)[1, 1])
        np.testing.assert_allclose(values, values[0], rtol=1e-12)
