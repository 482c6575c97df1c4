"""Tests for config parsing, artifact emission, and the CLI entry point."""

import ast
import contextlib
import dataclasses
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multilevel_design
from multilevel_design import DensityEstimate, FieldError, PolicyKind
from multilevel_design.cli import (
    emit_density_svg,
    main,
    parse_config,
    parse_config_data,
    run,
    serialize_config,
    variance_ratio_band,
)
from multilevel_design import cli

from oracles import (
    dense_expected_student_info,
    design_cov_r,
    student_cov,
    subset_uniform_assignment,
    teacher_cov,
)


def base_config(**overrides):
    data = {
        "schools": 4,
        "teachers_per_school": 4,
        "students_per_school": 8,
        "teacher_vc": {"sigma_v2": 1.6, "sigma_eps2": 14.4},
        "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 14.4},
        "designs": ["randomize_schools", "within_schools", "crd"],
        "seed": 20090216,
        "replicates": 50,
        "mode": "compare",
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_missing_seed(self, tmp_path):
        data = base_config()
        del data["seed"]
        with pytest.raises(FieldError) as err:
            parse_config(write_config(tmp_path, data))
        assert err.value.field == "seed"

    def test_unknown_key(self, tmp_path):
        data = base_config(bogus=1)
        with pytest.raises(FieldError) as err:
            parse_config(write_config(tmp_path, data))
        assert err.value.field == "bogus"

    def test_unknown_nested_key(self, tmp_path):
        data = base_config(teacher_vc={"sigma_v2": 1.0, "sigma_eps2": 2.0, "x": 3})
        with pytest.raises(FieldError) as err:
            parse_config(write_config(tmp_path, data))
        assert err.value.field == "teacher_vc.x"

    def test_bad_replicates(self, tmp_path):
        with pytest.raises(FieldError) as err:
            parse_config(write_config(tmp_path, base_config(replicates=0)))
        assert err.value.field == "replicates"

    def test_bad_design_name(self, tmp_path):
        with pytest.raises(FieldError) as err:
            parse_config(write_config(tmp_path, base_config(designs=["nope"])))
        assert err.value.field == "designs"

    def test_nonfinite_rejected(self, tmp_path):
        data = base_config(q=float("nan"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data).replace("NaN", "1e999"))
        with pytest.raises(FieldError):
            parse_config(path)

    def test_defaults(self, tmp_path):
        data = base_config()
        del data["replicates"]
        config = parse_config(write_config(tmp_path, data))
        assert config.replicates == 10_000
        assert config.alpha == 0.05
        assert config.policy.kind is PolicyKind.WITH_REPLACEMENT
        assert config.policy.c == 2
        assert config.q == 0.0
        assert config.effect_size_diff is None

    def test_round_trip(self, tmp_path):
        data = base_config(
            q=0.25,
            alpha=0.01,
            effect_size_diff=1.5,
            assignment={"policy": "balanced", "c": 2},
            out_dir="artifacts",
        )
        config = parse_config(write_config(tmp_path, data))
        again = parse_config_data(serialize_config(config))
        assert config == again

    def test_pilot_config_echo(self, tmp_path):
        data = base_config(
            schools=16, teachers_per_school=8, students_per_school=200
        )
        config = parse_config(write_config(tmp_path, data))
        assert config.schools == 16
        assert config.teachers_per_school == (8,) * 16
        assert config.students_per_school == (200,) * 16
        assert config.teacher_vc.sigma_v2 == 1.6
        assert config.teacher_vc.sigma_eps2 == 14.4

    def test_per_school_lists(self, tmp_path):
        data = base_config(
            schools=2, teachers_per_school=[2, 4], students_per_school=[6, 8],
            designs=["within_schools"],
        )
        config = parse_config(write_config(tmp_path, data))
        assert config.teachers_per_school == (2, 4)
        assert config.layout.n == (6, 8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FieldError):
            parse_config(tmp_path / "absent.json")


class TestClosedFormMode:
    def test_teacher_inflation_column(self, tmp_path):
        data = base_config(
            schools=16,
            teachers_per_school=8,
            students_per_school=200,
            designs=["within_schools"],
            q=0.5,
            mode="closed-form",
            out_dir=str(tmp_path / "out"),
        )
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        lines = (tmp_path / "out" / "closed_forms.csv").read_text().splitlines()
        assert lines[0] == "design,level,expected_info,anticipated_var,se_diff,inflation"
        teacher_row = [l for l in lines if l.startswith("within_schools,teacher")][0]
        assert teacher_row.split(",")[-1] == "1.53125"

    def test_design1_unaffected_and_crd_blank(self, tmp_path):
        data = base_config(
            schools=16,
            teachers_per_school=8,
            students_per_school=200,
            q=0.5,
            mode="closed-form",
            out_dir=str(tmp_path / "out"),
        )
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        lines = (tmp_path / "out" / "closed_forms.csv").read_text().splitlines()
        d1 = [l for l in lines if l.startswith("randomize_schools,teacher")][0]
        assert d1.split(",")[-1] == "1.0"
        crd = [l for l in lines if l.startswith("crd,teacher")][0]
        assert crd.split(",")[-1] == ""  # no closed form under contamination

    def test_expected_info_matches_dense_oracles(self, tmp_path):
        # C(4, 2) = 6 divides n = 12, so the subset-uniform D is exactly balanced
        a, m, n, c = 4, 4, 12, 2
        data = base_config(
            schools=a,
            teachers_per_school=m,
            students_per_school=n,
            assignment={"policy": "balanced", "c": c},
            q=0.0,
            mode="closed-form",
            out_dir=str(tmp_path / "out"),
        )
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        lines = (tmp_path / "out" / "closed_forms.csv").read_text().splitlines()[1:]
        assert len(lines) == 6
        d = subset_uniform_assignment(m, c, n)
        s_cov = student_cov(d, 1.6, 14.4, 14.4)
        g_teacher = np.linalg.inv(teacher_cov(m, 1.6, 14.4))
        for line in lines:
            design, level, info = line.split(",")[:3]
            if level == "teacher":
                expected = a * np.trace(g_teacher @ design_cov_r(design, m, a))
            else:
                expected = dense_expected_student_info(design, [d] * a, [s_cov] * a)
            assert float(info) == pytest.approx(expected, rel=1e-9)

    def test_heterogeneous_layout_rejected(self, tmp_path):
        data = base_config(
            schools=2,
            teachers_per_school=[2, 4],
            students_per_school=8,
            designs=["within_schools"],
            mode="closed-form",
            out_dir=str(tmp_path / "out"),
        )
        config = parse_config(write_config(tmp_path, data))
        with pytest.raises(FieldError) as err:
            run(config)
        assert err.value.field == "teachers_per_school"


class TestCompareMode:
    def test_artifacts_and_teacher_ordering(self, tmp_path):
        out = tmp_path / "out"
        data = base_config(
            schools=16,
            teachers_per_school=8,
            students_per_school=4,
            replicates=400,
            mode="compare",
            out_dir=str(out),
        )
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        for design in ("randomize_schools", "within_schools", "crd"):
            for level in ("teacher", "student"):
                assert (out / f"samples_{design}_{level}.csv").is_file()
                assert (out / f"density_{design}_{level}.csv").is_file()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "design,level,mean_var,sd_var,se_diff,power,non_estimable_frac"
        means = {}
        for line in summary[1:]:
            parts = line.split(",")
            if parts[1] == "teacher":
                means[parts[0]] = float(parts[2])
        assert means["within_schools"] < means["crd"] < means["randomize_schools"]
        assert (out / "density.svg").is_file()

    def test_samples_file_shape(self, tmp_path):
        out = tmp_path / "out"
        data = base_config(replicates=25, designs=["within_schools"], out_dir=str(out))
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        lines = (out / "samples_within_schools_teacher.csv").read_text().splitlines()
        assert lines[0] == "replicate,level,design,variance,estimable"
        assert len(lines) == 26
        assert lines[1].startswith("0,teacher,within_schools,")

    def test_byte_identical_reruns_and_thread_env(self, tmp_path, monkeypatch):
        data = base_config(replicates=40, q=0.5)
        config_path = write_config(tmp_path, data)
        outputs = []
        for name, threads in (("a", None), ("b", None), ("c", "4")):
            if threads is None:
                monkeypatch.delenv("MLD_THREADS", raising=False)
            else:
                monkeypatch.setenv("MLD_THREADS", threads)
            out = tmp_path / name
            code = main(["compare", "--config", str(config_path), "--out", str(out)])
            assert code == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_no_estimable_replicate_exits_2(self, tmp_path, capsys):
        # balanced c = m gives D = J: seed 6 draws equal arms in every
        # school of all 3 replicates, so crd's student level is never estimable
        out = tmp_path / "out"
        data = base_config(
            schools=2,
            teachers_per_school=2,
            students_per_school=4,
            designs=["crd"],
            assignment={"policy": "balanced", "c": 2},
            replicates=3,
            seed=6,
        )
        config_path = write_config(tmp_path, data)
        assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[2] == "crd,student,,,,,1.0"
        assert summary[1].startswith("crd,teacher,") and summary[1].endswith(",0.0")

    @pytest.mark.filterwarnings("error")
    def test_sd_of_variances_near_1e200_is_finite(self, tmp_path, capsys):
        # squaring the variances in np.std would overflow; _sd scales them first
        out = tmp_path / "out"
        data = base_config(
            schools=2,
            teachers_per_school=2,
            students_per_school=2,
            teacher_vc={"sigma_v2": 1e200, "sigma_eps2": 1e200},
            student_vc={"sigma_s2": 1e200, "sigma_t2": 1e200, "sigma_eta2": 1e200},
            designs=["randomize_schools"],
            assignment={"policy": "with_replacement", "c": 1},
            replicates=20,
            seed=1,
        )
        config_path = write_config(tmp_path, data)
        assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["teacher", "student"]
        assert all(row[3] and np.isfinite(float(row[3])) for row in rows)
        # randomize_schools' teacher variance (sigma_eps2 + m sigma_v2) / (m a)
        assert float(rows[0][2]) == pytest.approx(7.5e199, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_summary_mean_near_the_float_limit_is_finite(self, tmp_path, capsys):
        # summing twenty variances of 3.75e307 would overflow; the mean
        # scales them first, as _sd does
        out = tmp_path / "out"
        data = base_config(
            schools=2,
            teachers_per_school=2,
            students_per_school=4,
            teacher_vc={"sigma_v2": 5e307, "sigma_eps2": 5e307},
            designs=["randomize_schools"],
            replicates=20,
            seed=1,
        )
        config_path = write_config(tmp_path, data)
        assert main(["compare", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        teacher = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert teacher[:2] == ["randomize_schools", "teacher"]
        assert float(teacher[2]) == pytest.approx(3.75e307, rel=1e-12, abs=0.0)
        assert float(teacher[3]) <= 1e-12 * 3.75e307
        assert float(teacher[4]) == pytest.approx(2.0 * np.sqrt(3.75e307), rel=1e-12)


class TestGoldenValues:
    """summary.csv's mean_var and sd_var of two small compares as 0.2.0 first
    wrote them, and validate.csv's analytic_var and empirical_var of two
    small validates as 0.3.0 first wrote them: a change to the engine must
    reproduce them to 1e-12 relative.  Stream layout v3 (0.10.0) draws
    balanced remainder rows anew, so balanced_q0.5's within_schools and crd
    student cells are as 0.10.0 first wrote them.  An sd of identical
    variances is rounding noise, so it is compared on the scale of its
    mean."""

    GOLDEN = {
        "balanced_q0.5": (
            {"assignment": {"policy": "balanced", "c": 2}, "q": 0.5},
            {
                ("randomize_schools", "teacher"): (1.2999999999999998, 2.2429892266911074e-16),
                ("randomize_schools", "student"): (1.1125, 2.2653080771659774e-16),
                ("within_schools", "teacher"): (1.6419719234520702, 0.6601102755052486),
                ("within_schools", "student"): (2.2209219123552955, 0.8414258493110469),
                ("crd", "teacher"): (1.4452066777273445, 0.49331425164801984),
                ("crd", "student"): (1.7752355887905775, 0.6553931897975878),
            },
        ),
        "single_course": (
            {"assignment": {"policy": "single_course"}},
            {
                ("randomize_schools", "teacher"): (1.2999999999999998, 2.2429892266911074e-16),
                ("randomize_schools", "student"): (1.7500000000000002, 2.2429892266911074e-16),
                ("within_schools", "teacher"): (0.9000000000000001, 0.0),
                ("within_schools", "student"): (1.35, 2.2429892266911074e-16),
                ("crd", "teacher"): (0.969307995482778, 0.05823096974365125),
                ("crd", "student"): (1.4247540861652583, 0.061001661758490706),
            },
        ),
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_summary_matches_recorded_values(self, tmp_path, name):
        # 4 schools of 4 teachers and 8 students: balanced c = 2 deals one full
        # pass over the 6 pairs and 2 remainder rows
        overrides, golden = self.GOLDEN[name]
        out = tmp_path / "out"
        assert run(parse_config_data(base_config(out_dir=str(out), **overrides))) == 0
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert {(row[0], row[1]) for row in rows} == set(golden)
        for design, level, mean, sd, *_ in rows:
            want_mean, want_sd = golden[design, level]
            assert float(mean) == pytest.approx(want_mean, rel=1e-12, abs=0.0)
            assert float(sd) == pytest.approx(want_sd, rel=1e-12, abs=1e-12 * want_mean)

    VALIDATE = {
        "balanced_q0.5": (
            {"assignment": {"policy": "balanced", "c": 2}, "q": 0.5},
            {
                ("randomize_schools", "teacher"): (1.2999999999999998, 1.3108510071626067),
                ("randomize_schools", "student"): (1.1124999999999998, 1.2744136347915669),
                ("within_schools", "teacher"): (1.6419719234520707, 1.7683100177912268),
                ("within_schools", "student"): (2.2209219123552955, 1.518336711826195),
                ("crd", "teacher"): (1.4452066777273442, 1.6531148730827225),
                ("crd", "student"): (1.7752355887905775, 2.0476782697850027),
            },
        ),
        "heterogeneous_with_replacement": (
            {
                "teachers_per_school": [2, 4, 6, 8],
                "students_per_school": [5, 17, 30, 11],
                "assignment": {"policy": "with_replacement", "c": 2},
            },
            {
                ("randomize_schools", "teacher"): (1.2112812196648097, 1.2794448740593243),
                ("randomize_schools", "student"): (0.9916765506417843, 0.7706068511395411),
                ("within_schools", "teacher"): (0.7200000000000002, 0.7565568597638224),
                ("within_schools", "student"): (0.9574259697535653, 0.786485587788442),
                ("crd", "teacher"): (0.767474511196352, 0.7469747260033965),
                ("crd", "student"): (0.9522877519523216, 0.7648486405377511),
            },
        ),
    }

    @pytest.mark.parametrize("name", VALIDATE)
    def test_validate_matches_recorded_values(self, tmp_path, name):
        # the designs run in lockstep, so a moved draw would show here; at
        # q = 0.5 randomize_schools fits p = 2 beside p = 3
        overrides, golden = self.VALIDATE[name]
        out = tmp_path / "out"
        data = base_config(out_dir=str(out), mode="validate", **overrides)
        assert run(parse_config_data(data)) == 0
        rows = [line.split(",") for line in (out / "validate.csv").read_text().splitlines()[1:]]
        assert {(row[0], row[1]) for row in rows} == set(golden)
        for design, level, analytic, empirical, *_ in rows:
            want = golden[design, level]
            assert float(analytic) == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert float(empirical) == pytest.approx(want[1], rel=1e-12, abs=0.0)


class TestValidateMode:
    def test_validate_passes_and_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        data = base_config(
            schools=8,
            teachers_per_school=4,
            students_per_school=8,
            designs=["within_schools"],
            replicates=800,
            effect_size_diff=1.0,
            mode="validate",
            out_dir=str(out),
        )
        config = parse_config(write_config(tmp_path, data))
        assert run(config) == 0
        lines = (out / "validate.csv").read_text().splitlines()
        assert lines[0] == "design,level,analytic_var,empirical_var,ratio,pass"
        assert len(lines) == 3
        assert all(line.endswith(",1") for line in lines[1:])

    def test_underpowered_validate_exits_2(self, tmp_path, monkeypatch):
        # 30 synthetic data sets put the ratio band at about [0.35, 2.10]: a
        # teacher ratio 1% above it fails its row and the run, one 1% below
        # passes (a fixed 10% band would fail both)
        real = cli.estimator_variance_study
        for scale, code, flag in ((1.01, 2, ",0"), (0.99, 0, ",1")):
            def study(sims, scale=scale):
                (levels,) = real(sims)
                res = levels["teacher"]
                ratio = scale * variance_ratio_band(res.n_used)[1]
                variance = ratio * res.anticipated_mean
                levels["teacher"] = dataclasses.replace(res, coef_variance=variance)
                return [levels]

            monkeypatch.setattr(cli, "estimator_variance_study", study)
            out = tmp_path / f"out{code}"
            data = base_config(
                designs=["within_schools"],
                replicates=30,
                seed=3,
                effect_size_diff=1.0,
                mode="validate",
                out_dir=str(out),
            )
            config = parse_config(write_config(tmp_path, data))
            assert run(config) == code
            lines = (out / "validate.csv").read_text().splitlines()
            assert lines[1].startswith("within_schools,teacher,") and lines[1].endswith(flag)

    def test_ratio_band_is_the_chi_square_interval(self):
        # the 99.9% interval of chi^2_k / k, k = n - 1, by Wilson-Hilferty
        low, high = variance_ratio_band(300)
        assert low == pytest.approx(0.7526, abs=1e-3) and high == pytest.approx(1.2912, abs=1e-3)
        assert variance_ratio_band(2201) == pytest.approx((0.9037, 1.1022), abs=1e-3)
        stats = pytest.importorskip("scipy.stats")
        for n in (30, 300, 2200):
            exact = stats.chi2.ppf([0.0005, 0.9995], n - 1) / (n - 1)
            np.testing.assert_allclose(variance_ratio_band(n), exact, rtol=1e-2)

    #: the CI bytes job's config
    CI_BYTES = dict(
        teachers_per_school=[2, 4, 6, 8],
        students_per_school=[5, 17, 30, 11],
        designs=["within_schools", "crd"],
        assignment={"policy": "with_replacement", "c": 3},
        q=0.3,
        replicates=300,
        seed=1,
        effect_size_diff=1.0,
    )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale,effect", [(1e-40, 1.0), (1.0, 1e300)], ids=["components_1e-40", "effect_1e300"]
    )
    def test_extreme_scales_pass(self, tmp_path, capsys, scale, effect):
        # the fits take the noise alone and add the treatment effect back
        # once, so noise of 1e-20 keeps its digits beside an effect of 1, and
        # an effect of 1e300 meets no product that overflows
        out = tmp_path / "out"
        data = base_config(mode="validate", **dict(self.CI_BYTES, effect_size_diff=effect))
        for block in ("teacher_vc", "student_vc"):
            data[block] = {name: value * scale for name, value in data[block].items()}
        config_path = write_config(tmp_path, data)
        assert main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "validate.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",1") for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_near_the_float_limit_matches_unit_scale(self, tmp_path, capsys):
        # the squares of the errors' deviations would overflow np.var; the
        # study scales them by a power of two first, as _sd does
        ratios = []
        for sigma in (3e307, 3.0):
            out = tmp_path / f"out{sigma:g}"
            data = base_config(
                mode="validate",
                schools=2,
                teachers_per_school=2,
                students_per_school=4,
                teacher_vc={"sigma_v2": sigma, "sigma_eps2": sigma},
                assignment={"policy": "with_replacement", "c": 1},
                replicates=20,
                seed=1,
            )
            config_path = write_config(tmp_path, data, f"config{sigma:g}.json")
            assert main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            rows = [line.split(",") for line in (out / "validate.csv").read_text().splitlines()[1:]]
            assert len(rows) == 6 and all(row[-1] == "1" for row in rows)
            ratios.append([float(row[4]) for row in rows])
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-15, atol=0.0)

    def test_too_few_estimable_replicates_fail(self, tmp_path):
        # balanced c = m gives D = J, so crd's student level is estimable only
        # when a school's arms are unequal; 3 replicates leave fewer than 2
        out = tmp_path / "out"
        data = base_config(
            schools=2,
            teachers_per_school=2,
            students_per_school=4,
            designs=["crd"],
            assignment={"policy": "balanced", "c": 2},
            replicates=3,
            seed=1,
            mode="validate",
        )
        config_path = write_config(tmp_path, data)
        assert main(["validate", "--config", str(config_path), "--out", str(out)]) == 2
        lines = (out / "validate.csv").read_text().splitlines()
        assert lines[1:] == ["crd,teacher,,,,0", "crd,student,,,,0"]


class TestEngineCalls:
    def test_one_public_engine_call_per_run(self, tmp_path, monkeypatch):
        # compare and validate hand all three designs to the engine's public
        # entry in one call, the name the benchmark's engine layer wraps
        calls = {"simulate_anticipated_variance": [], "estimator_variance_study": []}
        for name in calls:

            def counted(configs, _name=name, _inner=getattr(cli, name)):
                calls[_name].append(len(configs))
                return _inner(configs)

            monkeypatch.setattr(cli, name, counted)
        for mode in ("compare", "validate"):
            out = tmp_path / mode
            data = base_config(mode=mode, replicates=20, effect_size_diff=1.0, out_dir=str(out))
            run(parse_config(write_config(tmp_path, data)))
        assert calls == {"simulate_anticipated_variance": [3], "estimator_variance_study": [3]}


class TestMainEntry:
    def test_bad_replicates_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, base_config(replicates=0))
        code = main(["simulate", "--config", str(config_path)])
        assert code == 1
        assert "replicates" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main(["simulate"]) == 1
        assert "config" in capsys.readouterr().err

    def test_cli_overrides_config(self, tmp_path):
        out = tmp_path / "cli_out"
        config_path = write_config(tmp_path, base_config(out_dir=str(tmp_path / "ignored")))
        code = main([
            "simulate", "--config", str(config_path),
            "--reps", "10", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.is_dir()
        assert not (tmp_path / "ignored").exists()
        lines = (out / "samples_randomize_schools_teacher.csv").read_text().splitlines()
        assert len(lines) == 11

    @pytest.mark.parametrize(
        "overrides,flags",
        [
            ({"replicates": 0}, ["--reps", "10"]),
            ({"seed": -1, "replicates": 10}, ["--seed", "3"]),
        ],
        ids=["reps", "seed"],
    )
    def test_flags_replace_bad_file_values(self, tmp_path, overrides, flags):
        # flags are merged into the file before it is checked
        out = tmp_path / "out"
        config_path = write_config(tmp_path, base_config(**overrides))
        assert main(["simulate", "--config", str(config_path), "--out", str(out)] + flags) == 0
        lines = (out / "samples_randomize_schools_teacher.csv").read_text().splitlines()
        assert len(lines) == 11


class TestErrorContract:
    ZERO_EPS = {"sigma_v2": 1.6, "sigma_eps2": 0.0}
    ZERO_ETA = {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 0.0}
    BALANCED_C_EQUALS_M = {"policy": "balanced", "c": 4}
    NEGATIVE_V = {"sigma_v2": -1.0, "sigma_eps2": 14.4}
    # 1 / sigma_eps2 overflows
    UNDERFLOW_EPS = {"sigma_v2": 1e-310, "sigma_eps2": 1e-310}
    # each level's kernel overflows: sigma_eps2 + m sigma_v2 and
    # sigma_eta2 + n (sigma_s2 + c^2 sigma_t2)
    HUGE_LAYOUT = {"schools": 2, "teachers_per_school": 2, "students_per_school": 4}
    HUGE_V = {"sigma_v2": 1e308, "sigma_eps2": 14.4}
    HUGE_STUDENT = {"sigma_s2": 1e308, "sigma_t2": 1e308, "sigma_eta2": 1e308}
    NEGATIVE_T = {"sigma_s2": 1.6, "sigma_t2": -1.0, "sigma_eta2": 14.4}
    BALANCED_C_ABOVE_M = {"policy": "balanced", "c": 5}
    SINGLE_COURSE_C2 = {"policy": "single_course", "c": 2}
    # n*c = 7*2 is not divisible by m = 4
    UNEVEN_SECTIONS = {"students_per_school": 7, "assignment": {"policy": "balanced", "c": 2}}

    @pytest.mark.parametrize(
        "mode,overrides,field",
        [
            ("simulate", {"teacher_vc": ZERO_EPS}, "teacher_vc.sigma_eps2"),
            ("validate", {"teacher_vc": ZERO_EPS}, "teacher_vc.sigma_eps2"),
            ("closed-form", {"teacher_vc": ZERO_EPS}, "teacher_vc.sigma_eps2"),
            ("simulate", {"student_vc": ZERO_ETA}, "student_vc.sigma_eta2"),
            ("validate", {"student_vc": ZERO_ETA}, "student_vc.sigma_eta2"),
            ("simulate", {"designs": ["within_schools"], "q": 1.0}, "q"),
            ("validate", {"q": 1.0}, "q"),
            ("simulate", {"assignment": BALANCED_C_EQUALS_M}, "assignment.c"),
            ("validate", {"assignment": BALANCED_C_EQUALS_M}, "assignment.c"),
            ("validate", {"replicates": 1}, "replicates"),
            ("simulate", {"designs": ["within_schools"], "teachers_per_school": 3}, "designs"),
            ("simulate", {"designs": ["randomize_schools"], "schools": 3}, "designs"),
            ("simulate", {"designs": ["crd"], "q": 0.7}, "q"),
            ("simulate", {"alpha": 1}, "alpha"),
            ("compare", {"alpha": 1e-17, "effect_size_diff": 1.0}, "alpha"),
            ("simulate", {"seed": -1}, "seed"),
            ("simulate", {"seed": 2**64}, "seed"),
            ("simulate", {"schools": 1}, "schools"),
            ("simulate", {"q": 10**400}, "q"),
            ("closed-form", {"teachers_per_school": [4, 4, 4, 2]}, "teachers_per_school"),
            ("closed-form", {"students_per_school": [8, 8, 8, 4]}, "students_per_school"),
            ("closed-form", UNEVEN_SECTIONS, "assignment.c"),
            ("simulate", UNEVEN_SECTIONS, "assignment.c"),
            ("simulate", {"teacher_vc": NEGATIVE_V}, "teacher_vc.sigma_v2"),
            ("simulate", {"student_vc": NEGATIVE_T}, "student_vc.sigma_t2"),
            ("simulate", {"assignment": SINGLE_COURSE_C2}, "assignment.c"),
            ("simulate", {"assignment": BALANCED_C_ABOVE_M}, "assignment.c"),
            (
                "simulate",
                {"designs": ["within_schools"], "q": 1.0, "teacher_vc": ZERO_EPS},
                "teacher_vc.sigma_eps2",
            ),
            ("simulate", {"schools": 10**30}, "schools"),
            ("simulate", {"students_per_school": 10**9}, "students_per_school"),
            ("validate", {"replicates": 2**40}, "replicates"),
            ("simulate", {"schools": 4096, "students_per_school": 2**20}, "students_per_school"),
            ("simulate", {"teachers_per_school": 8192}, "teachers_per_school"),
            ("simulate", {"teacher_vc": 5}, "teacher_vc"),
            ("simulate", {"designs": []}, "designs"),
            ("simulate", {"designs": ["crd", "crd"]}, "designs"),
            ("simulate", {"assignment": {"policy": "balanced"}}, "assignment.c"),
            (
                "simulate",
                {"designs": ["within_schools"], "schools": 6, "teacher_vc": UNDERFLOW_EPS},
                "teacher_vc.sigma_eps2",
            ),
            (
                "compare",
                {"teacher_vc": {"sigma_v2": 1.0, "sigma_eps2": 1e-310}},
                "teacher_vc.sigma_eps2",
            ),
            (
                "compare",
                {**HUGE_LAYOUT, "designs": ["randomize_schools"], "teacher_vc": HUGE_V},
                "teacher_vc.sigma_v2",
            ),
            (
                "compare",
                {**HUGE_LAYOUT, "designs": ["crd"], "student_vc": HUGE_STUDENT},
                "student_vc.sigma_s2",
            ),
        ],
        ids=[
            "simulate-sigma_eps2",
            "validate-sigma_eps2",
            "closed_form-sigma_eps2",
            "simulate-sigma_eta2",
            "validate-sigma_eta2",
            "simulate-within_q1",
            "validate-q1",
            "simulate-balanced_c_equals_m",
            "validate-balanced_c_equals_m",
            "validate-one_replicate",
            "simulate-within_odd_m",
            "simulate-schools_odd_a",
            "simulate-crd_q07",
            "simulate-alpha_1",
            "compare-alpha_1e-17",
            "simulate-seed_negative",
            "simulate-seed_2_64",
            "simulate-one_school",
            "simulate-q_beyond_float",
            "closed_form-uneven_m",
            "closed_form-uneven_n",
            "closed_form-uneven_sections",
            "simulate-uneven_sections",
            "simulate-negative_sigma_v2",
            "simulate-negative_sigma_t2",
            "simulate-single_course_c2",
            "simulate-balanced_c_above_m",
            "simulate-q1_and_sigma_eps2_zero",
            "simulate-schools_10_30",
            "simulate-students_10_9",
            "validate-replicates_2_40",
            "simulate-replicate_over_1GiB_students",
            "simulate-replicate_over_1GiB_teachers",
            "simulate-teacher_vc_not_object",
            "simulate-designs_empty",
            "simulate-design_twice",
            "simulate-balanced_without_c",
            "simulate-teacher_precision_underflow",
            "compare-sigma_eps2_reciprocal_overflow",
            "compare-teacher_kernel_overflow",
            "compare-student_kernel_overflow",
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, mode, overrides, field):
        out = tmp_path / "out"
        config_path = write_config(tmp_path, base_config(**overrides))
        argv = [mode, "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, field)
        assert not out.exists() or not any(out.iterdir())

    #: configs whose student kernel K = sigma_eta2 I + W'W is singular in
    #: floating point, though sigma_eta2 > 0 passes every config check
    SINGULAR_KERNELS = {
        "rank_one_kernel": {
            "schools": 2,
            "teachers_per_school": 1,
            "students_per_school": 1,
            "assignment": {"policy": "single_course"},
            "designs": ["crd"],
            "q": 0.5,
            "student_vc": {"sigma_s2": 1e8, "sigma_t2": 1e8, "sigma_eta2": 1e-10},
            "seed": 65,
            "replicates": 2,
        },
        "sigma_eta2_1e-300": {
            "schools": 2,
            "teachers_per_school": 2,
            "students_per_school": 4,
            "designs": ["crd"],
            "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 1e-300},
        },
    }

    @pytest.mark.parametrize("overrides", SINGULAR_KERNELS.values(), ids=list(SINGULAR_KERNELS))
    def test_singular_student_kernel_names_sigma_eta2(self, tmp_path, capsys, overrides):
        # the engine fails on the first chunk, before the run makes out_dir
        config_path = write_config(tmp_path, base_config(**overrides))
        argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]
        self._assert_rejected(capsys, argv, "student_vc.sigma_eta2")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", [*SINGULAR_KERNELS, "keyboard_interrupt"])
    def test_failed_engine_never_makes_or_writes(self, tmp_path, capsys, monkeypatch, case):
        # compute, then write: a run whose engine raises reaches neither
        # mkdir nor a write, whatever it raises
        config_path = write_config(tmp_path, base_config(**self.SINGULAR_KERNELS.get(case, {})))
        calls = []
        monkeypatch.setattr(Path, "mkdir", lambda path, *args, **kwargs: calls.append(path))
        monkeypatch.setattr(cli, "_write_atomic", lambda path, text: calls.append(path))
        argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]
        if case == "keyboard_interrupt":
            def interrupt(configs):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "simulate_anticipated_variance", interrupt)
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            self._assert_rejected(capsys, argv, "student_vc.sigma_eta2")
        assert calls == []

    # sigma_eta2 / (n sigma_s2 + c^2 sigma_t2) is about 2.5e-10: replicate 19's
    # student information under within_schools is indefinite in floating point
    INDEFINITE = {
        "schools": 2,
        "teachers_per_school": 4,
        "students_per_school": 3,
        "teacher_vc": {"sigma_v2": 0.0, "sigma_eps2": 1000.0},
        "student_vc": {"sigma_s2": 1.0, "sigma_t2": 1000.0, "sigma_eta2": 1e-6},
        "designs": ["randomize_schools", "within_schools"],
        "assignment": {"policy": "with_replacement", "c": 2},
        "seed": 49,
        "replicates": 20,
    }

    @pytest.mark.parametrize("mode", ["compare", "validate"])
    def test_indefinite_student_information_names_sigma_eta2(self, tmp_path, capsys, mode):
        config_path = write_config(tmp_path, base_config(**self.INDEFINITE))
        argv = [mode, "--config", str(config_path), "--out", str(tmp_path / "a" / "out")]
        self._assert_rejected(capsys, argv, "student_vc.sigma_eta2")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_failed_run_keeps_an_existing_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        config_path = write_config(tmp_path, base_config(**self.INDEFINITE))
        self._assert_rejected(
            capsys, ["compare", "--config", str(config_path), "--out", str(out)],
            "student_vc.sigma_eta2",
        )
        assert out.is_dir() and not any(out.iterdir())

    @staticmethod
    def _assert_rejected(capsys, argv, field):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"multilevel-design: '{field}': ")

    @pytest.mark.parametrize(
        "text", [json.dumps([base_config()]), "{not json"], ids=["top_level_array", "not_json"]
    )
    def test_unreadable_config(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        argv = ["compare", "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, "config")
        assert not out.exists()

    def test_empty_out_dir_without_flag(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, base_config(out_dir=""))
        monkeypatch.chdir(tmp_path)
        self._assert_rejected(capsys, ["compare", "--config", str(config_path)], "out_dir")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_out_dir_below_regular_file(self, tmp_path, capsys, monkeypatch):
        # reported after the computation, when mkdir fails: no artifact is written
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        config_path = write_config(tmp_path, base_config())
        writes = []
        monkeypatch.setattr(cli, "_write_atomic", lambda path, text: writes.append(path))
        argv = ["compare", "--config", str(config_path), "--out", str(blocker / "out")]
        self._assert_rejected(capsys, argv, "out_dir")
        assert writes == []
        assert blocker.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    def test_config_not_utf8(self, tmp_path, capsys):
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"seed": "\xff\xfe"}')
        argv = ["compare", "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, "config")
        assert not out.exists()

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        # json.loads recurses once per bracket
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000)
        argv = ["compare", "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, "config")
        assert not out.exists()

    def test_artifact_path_is_a_directory(self, tmp_path, capsys):
        # os.replace cannot move a file onto a directory; the run's .tmp goes
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        config_path = write_config(tmp_path, base_config())
        argv = ["compare", "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, "out_dir")
        assert (out / "summary.csv").is_dir()
        assert not any(p.name.endswith(".tmp") for p in out.iterdir())


#: a variance component: 1e-6 to 1e6, log-uniform in the exponent, or one
#: time in four 0
_COMPONENT = st.integers(0, 3).flatmap(
    lambda k: st.just(0.0) if k == 3 else st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
)
#: a level's common scale 4^k: every variance scales with it exactly
_SCALE = st.integers(-240, 240).map(lambda k: 4.0**k)


@st.composite
def _tiny_configs(draw, policy):
    """A JSON config of a tiny layout under ``policy``, mostly one that runs:
    the first choices keep the parities and give sections n_i = k m_i."""
    a = draw(st.one_of(st.sampled_from([2, 4]), st.just(3)))
    per_school = lambda counts: st.lists(counts, min_size=a, max_size=a)
    m = draw(per_school(st.one_of(st.sampled_from([2, 4]), st.integers(1, 4))))
    sections = per_school(st.integers(1, 3)).map(lambda k: [k_i * m_i for k_i, m_i in zip(k, m)])
    n = draw(st.one_of(sections, per_school(st.integers(1, 8))))
    assignment = {"policy": policy}
    if policy != "single_course":
        assignment["c"] = draw(st.integers(1, 3))
    designs = ["randomize_schools", "within_schools", "crd"]
    t, s = draw(_SCALE), draw(_SCALE)
    return {
        "schools": a,
        "teachers_per_school": m if len(set(m)) > 1 else m[0],
        "students_per_school": n if len(set(n)) > 1 else n[0],
        "teacher_vc": {k: draw(_COMPONENT) * t for k in ("sigma_v2", "sigma_eps2")},
        "student_vc": {k: draw(_COMPONENT) * s for k in ("sigma_s2", "sigma_t2", "sigma_eta2")},
        "designs": draw(st.lists(st.sampled_from(designs), min_size=1, max_size=3, unique=True)),
        "assignment": assignment,
        "q": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 1.0))),
        "replicates": draw(st.integers(2, 10)),
        "seed": draw(st.integers(0, 2**32)),
        "effect_size_diff": draw(st.sampled_from([None, 1.0])),
    }


class TestMainProperty:
    """Every config either runs or exits 1 with one line and no out_dir."""

    @pytest.mark.parametrize("mode", ["closed-form", "simulate", "compare", "validate"])
    @pytest.mark.parametrize("policy", ["balanced", "with_replacement", "single_course"])
    @settings(max_examples=4, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_exit_code_stderr_and_out_dir(self, mode, policy, data):
        config = data.draw(_tiny_configs(policy))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            config_path = write_config(Path(tmp), config)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([mode, "--config", str(config_path), "--out", str(out)])
            assert code in (0, 1, 2)
            if code == 1:
                assert err.getvalue().count("\n") == 1
                assert err.getvalue().startswith("multilevel-design: '")
                assert not out.exists()
            else:
                assert err.getvalue() == ""


class TestCsvCells:
    @pytest.mark.parametrize("value", [None, float("nan"), float("inf"), float("-inf")])
    def test_missing_and_non_finite_are_empty(self, value):
        assert cli._fmt(value) == ""

    @pytest.mark.parametrize("value", [0.1, 1e-300, 1e200, -2.5, 0.0, 1.0 / 3.0])
    def test_float_is_its_repr(self, value):
        assert cli._fmt(value) == repr(value)

    @pytest.mark.parametrize("value", [0, -7, 10**30, True, False, "", "crd", "a b"])
    def test_int_bool_and_str_are_their_str(self, value):
        assert cli._fmt(value) == str(value)

    def test_rows(self):
        assert cli._csv(["a", "b"], []) == "a,b\n"
        rows = [[1, 0.1, None], ["x", float("nan"), True]]
        assert cli._csv(["a", "b", "c"], rows) == "a,b,c\n1,0.1,\nx,,True\n"


class TestDensitySvg:
    def _grid(self, center):
        x = np.linspace(center - 1, center + 1, 50)
        y = np.exp(-0.5 * (x - center) ** 2)
        y /= np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0
        return DensityEstimate(grid=x, density=y, point_mass=None)

    def test_three_curves_three_polylines(self, tmp_path):
        path = tmp_path / "d.svg"
        emit_density_svg(
            {"one": self._grid(0.0), "two": self._grid(1.0), "three": self._grid(2.0)},
            path,
        )
        text = path.read_text()
        assert text.count("<polyline") == 3
        for label in ("one", "two", "three"):
            assert f">{label}</text>" in text

    def test_point_mass_marker(self, tmp_path):
        path = tmp_path / "d.svg"
        marker = DensityEstimate(grid=None, density=None, point_mass=0.2125)
        emit_density_svg({"randomize_schools teacher": marker}, path)
        text = path.read_text()
        assert "stroke-dasharray" in text
        assert "<polyline" not in text
        assert "0.2125" in text

    def test_legend_label_is_escaped(self, tmp_path):
        path = tmp_path / "d.svg"
        emit_density_svg({"a&b <c>": self._grid(0.0)}, path)
        assert ">a&amp;b &lt;c&gt;</text>" in path.read_text()

    def test_empty_series_rejected(self, tmp_path):
        path = tmp_path / "d.svg"
        with pytest.raises(ValueError):
            emit_density_svg({}, path)
        assert not path.exists()


class TestVersion:
    def test_pyproject_version_is_package_version(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            assert tomllib.load(f)["project"]["version"] == multilevel_design.__version__


class TestTestDependencies:
    def test_third_party_test_imports_are_declared(self):
        # a module that pytest.importorskip loads is a call, not an import
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)["project"]
        requirements = project["dependencies"] + project["optional-dependencies"]["test"]
        declared = {re.match(r"[\w.-]+", req).group().lower() for req in requirements}
        tests = sorted((root / "tests").glob("*.py"))
        local = {path.stem for path in tests} | {"multilevel_design"}
        imported = set()
        for path in tests:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - local
        assert third_party - declared == set()
