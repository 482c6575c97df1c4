"""Command-line front end: JSON config in, CSV/SVG artifacts out.

Modes: ``closed-form`` evaluates the analytic expected informations and
inflation factors; ``simulate``/``compare`` run the Monte Carlo engine and
write per-replicate samples, density grids, a summary table and one SVG of
the density curves; ``validate`` cross-checks the analytic anticipated
variance against GLS estimates on synthetic data.

Exit codes: 0 success, 1 configuration error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .closed_forms import BalancedSpec, _balanced_school_traces
from .designs import (
    DesignKind,
    _teacher_traces,
    check_identifiable,
    validate_contamination,
)
from .model_core import (
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
)
from .simulator import (
    LEVELS,
    STUDENT,
    TEACHER,
    AssignmentPolicy,
    DensityEstimate,
    PolicyKind,
    SimulationConfig,
    SimulationResult,
    estimator_variance_study,
    simulate_anticipated_variance,
)

MODES = ("closed-form", "simulate", "compare", "validate")

#: empirical/analytic variance ratios within this band pass validation
VALIDATION_TOLERANCE = 0.10


class ConfigError(Exception):
    """Base class for configuration problems; carries the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class MissingFieldError(ConfigError):
    def __init__(self, field: str):
        super().__init__(field, f"missing required field '{field}'")


class BadValueError(ConfigError):
    def __init__(self, field: str, reason: str):
        self.reason = reason
        super().__init__(field, f"bad value for '{field}': {reason}")


class UnknownKeyError(ConfigError):
    def __init__(self, field: str):
        super().__init__(field, f"unknown key '{field}'")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; mirrors the JSON schema."""

    schools: int
    teachers_per_school: tuple[int, ...]
    students_per_school: tuple[int, ...]
    teacher_vc: TeacherVarianceComponents
    student_vc: StudentVarianceComponents
    designs: tuple[DesignKind, ...]
    policy: AssignmentPolicy
    q: float
    replicates: int
    seed: int
    alpha: float
    effect_size_diff: float | None
    mode: str
    out_dir: str

    @property
    def layout(self) -> StudyLayout:
        return StudyLayout(
            a=self.schools, m=self.teachers_per_school, n=self.students_per_school
        )

    def simulation_config(self, design: DesignKind) -> SimulationConfig:
        return SimulationConfig(
            layout=self.layout,
            teacher_vc=self.teacher_vc,
            student_vc=self.student_vc,
            design=design,
            policy=self.policy,
            replicates=self.replicates,
            seed=self.seed,
            q=self.q,
            effect_size_diff=self.effect_size_diff,
            alpha=self.alpha,
        )


_TOP_KEYS = {
    "schools",
    "teachers_per_school",
    "students_per_school",
    "teacher_vc",
    "student_vc",
    "designs",
    "assignment",
    "q",
    "replicates",
    "seed",
    "alpha",
    "effect_size_diff",
    "mode",
    "out_dir",
}
_REQUIRED_KEYS = (
    "schools",
    "teachers_per_school",
    "students_per_school",
    "teacher_vc",
    "student_vc",
    "designs",
    "seed",
)
_DESIGN_NAMES = {kind.value: kind for kind in DesignKind}
_POLICY_NAMES = {kind.value: kind for kind in PolicyKind}


def _require_int(value, field: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadValueError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadValueError(field, f"must be >= {minimum}, got {value}")
    return value


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValueError(field, f"expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise BadValueError(field, "must be finite")
    return out


def _counts(value, a: int, field: str) -> tuple[int, ...]:
    if isinstance(value, list):
        counts = tuple(_require_int(v, field, minimum=1) for v in value)
        if len(counts) != a:
            raise BadValueError(field, f"expected {a} entries, got {len(counts)}")
        return counts
    return (_require_int(value, field, minimum=1),) * a


def _vc_block(data, field: str, keys: tuple[str, ...]):
    if not isinstance(data, dict):
        raise BadValueError(field, "expected an object")
    for key in data:
        if key not in keys:
            raise UnknownKeyError(f"{field}.{key}")
    values = []
    for key in keys:
        if key not in data:
            raise MissingFieldError(f"{field}.{key}")
        values.append(_require_number(data[key], f"{field}.{key}"))
    return values


def parse_config_data(data: dict) -> RunConfig:
    """Strictly parse an already-loaded JSON object into a RunConfig."""
    if not isinstance(data, dict):
        raise BadValueError("config", "top level must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise UnknownKeyError(key)
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise MissingFieldError(key)

    schools = _require_int(data["schools"], "schools", minimum=2)
    teachers = _counts(data["teachers_per_school"], schools, "teachers_per_school")
    students = _counts(data["students_per_school"], schools, "students_per_school")

    sv2, se2 = _vc_block(data["teacher_vc"], "teacher_vc", ("sigma_v2", "sigma_eps2"))
    try:
        teacher_vc = TeacherVarianceComponents(sigma_v2=sv2, sigma_eps2=se2)
    except ValueError as err:
        raise BadValueError("teacher_vc", str(err)) from err
    ss2, st2, seta2 = _vc_block(
        data["student_vc"], "student_vc", ("sigma_s2", "sigma_t2", "sigma_eta2")
    )
    try:
        student_vc = StudentVarianceComponents(
            sigma_s2=ss2, sigma_t2=st2, sigma_eta2=seta2
        )
    except ValueError as err:
        raise BadValueError("student_vc", str(err)) from err

    raw_designs = data["designs"]
    if not isinstance(raw_designs, list) or not raw_designs:
        raise BadValueError("designs", "expected a non-empty list of design names")
    designs = []
    for name in raw_designs:
        if name not in _DESIGN_NAMES:
            raise BadValueError(
                "designs", f"unknown design {name!r}; choose from {sorted(_DESIGN_NAMES)}"
            )
        kind = _DESIGN_NAMES[name]
        if kind in designs:
            raise BadValueError("designs", f"design {name!r} listed twice")
        designs.append(kind)

    assignment = data.get("assignment", {"policy": "with_replacement", "c": 2})
    if not isinstance(assignment, dict):
        raise BadValueError("assignment", "expected an object")
    for key in assignment:
        if key not in ("policy", "c"):
            raise UnknownKeyError(f"assignment.{key}")
    if "policy" not in assignment:
        raise MissingFieldError("assignment.policy")
    policy_name = assignment["policy"]
    if policy_name not in _POLICY_NAMES:
        raise BadValueError(
            "assignment.policy",
            f"unknown policy {policy_name!r}; choose from {sorted(_POLICY_NAMES)}",
        )
    policy_kind = _POLICY_NAMES[policy_name]
    if policy_kind is PolicyKind.SINGLE_COURSE:
        c = _require_int(assignment.get("c", 1), "assignment.c", minimum=1)
    else:
        if "c" not in assignment:
            raise MissingFieldError("assignment.c")
        c = _require_int(assignment["c"], "assignment.c", minimum=1)
    try:
        policy = AssignmentPolicy(policy_kind, c)
    except ValueError as err:
        raise BadValueError("assignment", str(err)) from err

    q = _require_number(data.get("q", 0.0), "q")
    replicates = _require_int(data.get("replicates", 10_000), "replicates", minimum=1)
    seed = _require_int(data["seed"], "seed", minimum=0)
    if seed >= 2**64:
        raise BadValueError("seed", "must fit in 64 bits")
    alpha = _require_number(data.get("alpha", 0.05), "alpha")
    if not 0.0 < alpha < 1.0:
        raise BadValueError("alpha", f"must be in (0, 1), got {alpha}")
    effect = data.get("effect_size_diff")
    if effect is not None:
        effect = _require_number(effect, "effect_size_diff")
    mode = data.get("mode", "compare")
    if mode not in MODES:
        raise BadValueError("mode", f"must be one of {MODES}, got {mode!r}")
    out_dir = data.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise BadValueError("out_dir", "expected a non-empty string")

    return RunConfig(
        schools=schools,
        teachers_per_school=teachers,
        students_per_school=students,
        teacher_vc=teacher_vc,
        student_vc=student_vc,
        designs=tuple(designs),
        policy=policy,
        q=q,
        replicates=replicates,
        seed=seed,
        alpha=alpha,
        effect_size_diff=effect,
        mode=mode,
        out_dir=out_dir,
    )


def parse_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    path = Path(path)
    if not path.is_file():
        raise BadValueError("config", f"no such file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise BadValueError("config", f"invalid JSON: {err}") from err
    return parse_config_data(data)


def serialize_config(config: RunConfig) -> dict:
    """JSON-able dict that parses back to an equal RunConfig."""
    return {
        "schools": config.schools,
        "teachers_per_school": list(config.teachers_per_school),
        "students_per_school": list(config.students_per_school),
        "teacher_vc": {
            "sigma_v2": config.teacher_vc.sigma_v2,
            "sigma_eps2": config.teacher_vc.sigma_eps2,
        },
        "student_vc": {
            "sigma_s2": config.student_vc.sigma_s2,
            "sigma_t2": config.student_vc.sigma_t2,
            "sigma_eta2": config.student_vc.sigma_eta2,
        },
        "designs": [kind.value for kind in config.designs],
        "assignment": {"policy": config.policy.kind.value, "c": config.policy.c},
        "q": config.q,
        "replicates": config.replicates,
        "seed": config.seed,
        "alpha": config.alpha,
        "effect_size_diff": config.effect_size_diff,
        "mode": config.mode,
        "out_dir": config.out_dir,
    }


def apply_overrides(
    config: RunConfig,
    mode: str | None = None,
    seed: int | None = None,
    replicates: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Command-line overrides beat config-file values; the result is parsed
    like a config file, so the same checks apply."""
    overrides = {"mode": mode, "seed": seed, "replicates": replicates, "out_dir": out_dir}
    changes = {key: value for key, value in overrides.items() if value is not None}
    return parse_config_data({**serialize_config(config), **changes})


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not np.isfinite(value):
            return ""
        return repr(value)
    return str(value)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#7c4fb0", "#c2851a", "#3aa6a6")


def emit_density_svg(
    series: Mapping[str, DensityEstimate],
    path: str | Path,
    x_label: str = "anticipated variance",
    y_label: str = "density",
) -> Path:
    """One SVG with a labeled curve per series; point masses become vertical
    markers.  Raises before touching the filesystem when there is nothing
    to draw."""
    if not series:
        raise ValueError("no densities to plot")
    path = Path(path)
    curves = []
    markers = []
    for label, dens in series.items():
        if dens.is_point_mass:
            markers.append((label, float(dens.point_mass)))
        else:
            curves.append((label, dens.grid, dens.density))

    x_points = np.concatenate(
        [g for _, g, _ in curves] + [np.array([v for _, v in markers])]
    )
    x_lo = float(np.min(x_points))
    x_hi = float(np.max(x_points))
    if x_hi <= x_lo:
        pad = max(abs(x_lo) * 0.05, 1e-6)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    y_hi = max((float(d.max()) for _, _, d in curves), default=1.0)
    if y_hi <= 0.0:
        y_hi = 1.0

    width, height = 800, 500
    left, right, top, bottom = 70, 200, 24, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - y / y_hi * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.3f}" y1="{top + plot_h}" x2="{px:.3f}" '
            f'y2="{top + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.3f}" y="{top + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        yv = frac * y_hi
        py = sy(yv)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.3f}" x2="{left}" y2="{py:.3f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.3f}" font-size="12" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.3f}" y="{height - 15}" font-size="14" '
        f'text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.3f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.3f})">{escape(y_label)}</text>'
    )

    legend_entries = []
    color_iter = 0
    for label, grid, dens in curves:
        color = _PALETTE[color_iter % len(_PALETTE)]
        color_iter += 1
        points = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(grid, dens))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        legend_entries.append((label, color, False))
    for label, value in markers:
        color = _PALETTE[color_iter % len(_PALETTE)]
        color_iter += 1
        px = sx(value)
        parts.append(
            f'<line x1="{px:.3f}" y1="{top}" x2="{px:.3f}" y2="{top + plot_h}" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
        legend_entries.append((label, color, True))

    ly = top + 12
    lx = left + plot_w + 12
    for label, color, dashed in legend_entries:
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="12">{escape(label)}</text>'
        )
        ly += 18
    parts.append("</svg>")
    _write_atomic(path, "\n".join(parts) + "\n")
    return path


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def _blame(field: str, check, *args):
    """Run a library check, reporting its ValueError (LinAlgError, ParityError
    and DegenerateContaminationError included) as a bad value of ``field``."""
    try:
        return check(*args)
    except ValueError as err:
        raise BadValueError(field, str(err)) from err


def _check_plan(config: RunConfig) -> BalancedSpec | list[SimulationConfig]:
    """Reject, before any output exists, every config the mode cannot run.

    This is the one place library errors become ConfigErrors: each check
    blames the config field it reads.  Returns what the mode runs on: the
    balanced spec for closed-form, one SimulationConfig per design otherwise.
    """
    layout = config.layout
    if config.mode == "validate" and config.replicates < 2:
        raise BadValueError("replicates", "validate needs at least 2 replicates")
    _blame("teacher_vc.sigma_eps2", config.teacher_vc.check_invertible)
    _blame("student_vc.sigma_eta2", config.student_vc.check_invertible)
    for design in config.designs:
        _blame("designs", design.check_parity, layout.a, layout.m)
        _blame("q", validate_contamination, design, config.q)
        _blame("q", check_identifiable, design.effective_q(config.q))
    if config.mode == "closed-form":
        m = _blame("teachers_per_school", layout.homogeneous_m)
        if len(set(layout.n)) != 1:
            raise BadValueError(
                "students_per_school", "closed-form mode needs a homogeneous student count"
            )
        return _blame("assignment.c", BalancedSpec, m, layout.n[0], config.policy.c, layout.a)
    for m_i, n_i in zip(layout.m, layout.n):
        _blame("assignment", config.policy.check_school, m_i, n_i)
    for design in config.designs:
        _blame("assignment.c", config.policy.check_student_estimable, design, layout.m)
    return [config.simulation_config(design) for design in config.designs]


def _run_closed_form(config: RunConfig, spec: BalancedSpec, out: Path) -> int:
    traces = {
        TEACHER: _teacher_traces(spec.m, config.teacher_vc),
        STUDENT: _balanced_school_traces(spec, config.student_vc),
    }
    rows = []
    for design in config.designs:
        for level in LEVELS:
            t_j, w = traces[level]
            info = spec.a * design.information(spec.m, spec.a, t_j, w)
            inflation = design.inflation(config.q, spec.m, t_j, w)
            if info > 0.0 and inflation is not None:
                variance = inflation / info
                se_diff = 2.0 * float(np.sqrt(variance))
            else:
                variance = None
                se_diff = None
            rows.append((design.value, level, info, variance, se_diff, inflation))
    _write_csv(
        out / "closed_forms.csv",
        ("design", "level", "expected_info", "anticipated_var", "se_diff", "inflation"),
        rows,
    )
    return 0


def _run_simulate(sim_configs: Sequence[SimulationConfig], out: Path) -> int:
    results: dict[DesignKind, SimulationResult] = {
        sim.design: simulate_anticipated_variance(sim) for sim in sim_configs
    }

    summary_rows = []
    series: dict[str, DensityEstimate] = {}
    for design, result in results.items():
        for level in LEVELS:
            res = result.level(level)
            sample_rows = []
            for rep, variance in enumerate(res.variances):
                estimable = np.isfinite(variance)
                sample_rows.append(
                    (
                        rep,
                        level,
                        design.value,
                        float(variance) if estimable else None,
                        1 if estimable else 0,
                    )
                )
            _write_csv(
                out / f"samples_{design.value}_{level}.csv",
                ("replicate", "level", "design", "variance", "estimable"),
                sample_rows,
            )
            density_rows = []
            if res.density is not None:
                if res.density.is_point_mass:
                    density_rows.append((level, design.value, res.density.point_mass, None))
                else:
                    for x, y in zip(res.density.grid, res.density.density):
                        density_rows.append((level, design.value, float(x), float(y)))
                series[f"{design.value} {level}"] = res.density
            _write_csv(
                out / f"density_{design.value}_{level}.csv",
                ("level", "design", "variance", "density"),
                density_rows,
            )
            se_diff = (
                2.0 * float(np.sqrt(res.mean)) if np.isfinite(res.mean) else None
            )
            summary_rows.append(
                (
                    design.value,
                    level,
                    res.mean if np.isfinite(res.mean) else None,
                    res.sd if np.isfinite(res.sd) else None,
                    se_diff,
                    res.power,
                    res.non_estimable / result.replicates,
                )
            )
    _write_csv(
        out / "summary.csv",
        ("design", "level", "mean_var", "sd_var", "se_diff", "power", "non_estimable_frac"),
        summary_rows,
    )
    if series:
        emit_density_svg(series, out / "density.svg")
    return 0


def _run_validate(sim_configs: Sequence[SimulationConfig], out: Path) -> int:
    rows = []
    failed = False
    for sim in sim_configs:
        design = sim.design
        try:
            study = estimator_variance_study(sim)
        except NonEstimableError:
            # too few estimable replicates to estimate a variance: a failure
            failed = True
            rows.extend((design.value, level, None, None, None, 0) for level in LEVELS)
            continue
        for level in LEVELS:
            res = study[level]
            ok = (
                abs(res.variance_ratio - 1.0) <= VALIDATION_TOLERANCE
                and res.mean_error_z <= 3.0
            )
            failed = failed or not ok
            rows.append(
                (
                    design.value,
                    level,
                    res.anticipated_mean,
                    res.coef_variance,
                    res.variance_ratio,
                    1 if ok else 0,
                )
            )
    _write_csv(
        out / "validate.csv",
        ("design", "level", "analytic_var", "empirical_var", "ratio", "pass"),
        rows,
    )
    return 2 if failed else 0


def run(config: RunConfig) -> int:
    """Execute one mode and write its artifacts under ``config.out_dir``."""
    if config.mode not in MODES:
        raise BadValueError("mode", f"must be one of {MODES}, got {config.mode!r}")
    plan = _check_plan(config)
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise BadValueError("out_dir", str(err)) from err
    if config.mode == "closed-form":
        return _run_closed_form(config, plan, out)
    if config.mode == "validate":
        return _run_validate(plan, out)
    return _run_simulate(plan, out)


class _ArgumentError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError("args", message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="multilevel-design",
        description="Anticipated variance of treatment effects under three "
        "randomization designs for teacher/student responses.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--reps", type=int, help="override the replicate count")
    parser.add_argument("--out", help="override the output directory")
    try:
        args = parser.parse_args(argv)
        config = parse_config(args.config)
        config = apply_overrides(
            config, mode=args.mode, seed=args.seed, replicates=args.reps, out_dir=args.out
        )
        return run(config)
    except ConfigError as err:
        print(f"multilevel-design: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
