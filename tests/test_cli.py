"""Tests for config parsing, artifact emission, and the CLI entry point."""

import dataclasses
import json

import numpy as np
import pytest

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
            def study(sim, scale=scale):
                levels = real(sim)
                res = levels["teacher"]
                ratio = scale * variance_ratio_band(res.n_used)[1]
                variance = ratio * res.anticipated_mean
                levels["teacher"] = dataclasses.replace(res, coef_variance=variance)
                return levels

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
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, mode, overrides, field):
        out = tmp_path / "out"
        config_path = write_config(tmp_path, base_config(**overrides))
        argv = [mode, "--config", str(config_path), "--out", str(out)]
        self._assert_rejected(capsys, argv, field)
        assert not out.exists() or not any(out.iterdir())

    @staticmethod
    def _assert_rejected(capsys, argv, field):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"'{field}'" in err

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

    def test_out_dir_below_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        config_path = write_config(tmp_path, base_config())
        argv = ["compare", "--config", str(config_path), "--out", str(blocker / "out")]
        self._assert_rejected(capsys, argv, "out_dir")
        assert blocker.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]


class TestDensitySvg:
    def _grid(self, center):
        x = np.linspace(center - 1, center + 1, 50)
        y = np.exp(-0.5 * (x - center) ** 2)
        y /= np.trapezoid(y, x)
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

    def test_empty_series_rejected(self, tmp_path):
        path = tmp_path / "d.svg"
        with pytest.raises(ValueError):
            emit_density_svg({}, path)
        assert not path.exists()
