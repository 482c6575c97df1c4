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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .closed_forms import BalancedSpec, _balanced_school_traces
from .designs import DesignKind, _teacher_traces
from .model_core import (
    FieldError,
    NonEstimableError,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    check_integer,
    per_school,
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
    check_alpha,
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


@contextmanager
def _blaming():
    """Report a library FieldError as a bad value of the field it names."""
    try:
        yield
    except FieldError as err:
        raise BadValueError(err.field, str(err)) from err


# A schema maps each key of a JSON object, in parse (and so blame) order, to
# (default, parser); _REQUIRED marks a key without a default.  A parser gets
# the raw value, its field name and the keys parsed before it.  Parsers
# check what JSON can get wrong: types, names and keys.  The value rules
# are the library's, whose FieldError names the field.

_REQUIRED = object()
_DESIGN_NAMES = {kind.value: kind for kind in DesignKind}
_POLICY_NAMES = {kind.value: kind for kind in PolicyKind}
_MODES = {mode: mode for mode in MODES}
_MAX = sys.float_info.max


def _object(value, prefix: str, schema: Mapping) -> dict:
    """Parse a JSON object: unknown keys, then missing ones, then each value."""
    if not isinstance(value, dict):
        raise BadValueError(prefix.rstrip(".") or "config", "expected an object")
    for key in value:
        if key not in schema:
            raise UnknownKeyError(prefix + key)
    for key, (default, _) in schema.items():
        if default is _REQUIRED and key not in value:
            raise MissingFieldError(prefix + key)
    parsed = {}
    for key, (default, parse) in schema.items():
        parsed[key] = parse(value.get(key, default), prefix + key, parsed)
    return parsed


def _integer(value, key, parsed) -> int:
    return check_integer(value, key)


def _counts(value, key, parsed) -> tuple[int, ...]:
    return per_school(value, parsed["schools"], key)


def _number(value, key, parsed=None) -> float:
    # a JSON integer may exceed every float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise BadValueError(key, f"expected a finite number, got {value!r}")
    return float(value)


def _choice(value, key, choices: Mapping):
    if not isinstance(value, str) or value not in choices:
        raise BadValueError(key, f"must be one of {sorted(choices)}, got {value!r}")
    return choices[value]


def _components(cls):
    schema = {f.name: (_REQUIRED, _number) for f in fields(cls)}
    return lambda value, key, parsed: cls(**_object(value, key + ".", schema))


def _designs(value, key, parsed) -> tuple[DesignKind, ...]:
    if not isinstance(value, list) or not value:
        raise BadValueError(key, "expected a non-empty list of design names")
    kinds = tuple(_choice(name, key, _DESIGN_NAMES) for name in value)
    if len(set(kinds)) != len(kinds):
        raise BadValueError(key, "a design is listed twice")
    return kinds


_ASSIGNMENT = {
    "policy": (_REQUIRED, lambda value, key, parsed: _choice(value, key, _POLICY_NAMES)),
    "c": (1, lambda value, key, parsed: value),
}


def _policy(value, key, parsed) -> AssignmentPolicy:
    block = _object(value, key + ".", _ASSIGNMENT)
    if "c" not in value and block["policy"] is not PolicyKind.SINGLE_COURSE:
        raise MissingFieldError(key + ".c")
    return AssignmentPolicy(block["policy"], block["c"])


def _out_dir(value, key, parsed) -> str:
    if not isinstance(value, str) or not value:
        raise BadValueError(key, "expected a non-empty string")
    return value


def _key(parse, default=_REQUIRED, key: str | None = None):
    """A RunConfig field's parser, default and JSON key (the field's name
    unless given)."""
    return field(metadata={"parse": parse, "default": default, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration.  Its fields, in order, are the config schema."""

    schools: int = _key(_integer)
    teachers_per_school: tuple[int, ...] = _key(_counts)
    students_per_school: tuple[int, ...] = _key(_counts)
    teacher_vc: TeacherVarianceComponents = _key(_components(TeacherVarianceComponents))
    student_vc: StudentVarianceComponents = _key(_components(StudentVarianceComponents))
    designs: tuple[DesignKind, ...] = _key(_designs)
    policy: AssignmentPolicy = _key(_policy, {"policy": "with_replacement", "c": 2}, "assignment")
    q: float = _key(_number, 0.0)
    replicates: int = _key(_integer, 10_000)
    seed: int = _key(_integer)
    alpha: float = _key(lambda value, key, parsed: check_alpha(_number(value, key)), 0.05)
    effect_size_diff: float | None = _key(
        lambda value, key, parsed: None if value is None else _number(value, key), None
    )
    mode: str = _key(lambda value, key, parsed: _choice(value, key, _MODES), "compare")
    out_dir: str = _key(_out_dir, "out")

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


_SCHEMA = {
    f.metadata["key"] or f.name: (f.metadata["default"], f.metadata["parse"])
    for f in fields(RunConfig)
}


def parse_config_data(data: dict) -> RunConfig:
    """Strictly parse an already-loaded JSON object into a RunConfig."""
    with _blaming():
        return RunConfig(*_object(data, "", _SCHEMA).values())


def _load(path: str | Path):
    path = Path(path)
    if not path.is_file():
        raise BadValueError("config", f"no such file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise BadValueError("config", f"invalid JSON: {err}") from err


def parse_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    return parse_config_data(_load(path))


def _json(value):
    if isinstance(value, AssignmentPolicy):
        return {"policy": value.kind.value, "c": value.c}
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def serialize_config(config: RunConfig) -> dict:
    """JSON-able dict that parses back to an equal RunConfig."""
    return {key: _json(getattr(config, f.name)) for key, f in zip(_SCHEMA, fields(config))}


def _with_flags(data, **flags):
    """``data`` with each flag that is set in place of the key it names."""
    if not isinstance(data, dict):
        return data
    return {**data, **{key: value for key, value in flags.items() if value is not None}}


def apply_overrides(config: RunConfig, **flags) -> RunConfig:
    """``config`` with the keys set in ``flags`` (mode, seed, replicates,
    out_dir, ...) replaced, parsed like a config file."""
    return parse_config_data(_with_flags(serialize_config(config), **flags))


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


def _plan(config: RunConfig) -> BalancedSpec | list[SimulationConfig]:
    """Reject, before any output exists, every config the mode cannot run,
    and return what it runs on: the balanced spec for closed-form, one
    SimulationConfig per design otherwise.

    Every mode needs invertible covariances and admissible designs; they
    are checked for every design before any layout rule, so a config with
    faults in two designs names the same field in every mode.
    """
    if config.mode == "validate" and config.replicates < 2:
        raise BadValueError("replicates", "validate needs at least 2 replicates")
    layout = config.layout
    with _blaming():
        config.teacher_vc.check_invertible()
        config.student_vc.check_invertible()
        for design in config.designs:
            design.check(layout.a, layout.m, config.q)
        if config.mode != "closed-form":
            return [config.simulation_config(design) for design in config.designs]
        m = layout.homogeneous_m()
        if len(set(layout.n)) != 1:
            raise BadValueError(
                "students_per_school", "closed-form mode needs a homogeneous student count"
            )
        return BalancedSpec(m, layout.n[0], config.policy.c, layout.a)


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
    plan = _plan(config)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("args", message)


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
        flags = dict(mode=args.mode, seed=args.seed, replicates=args.reps, out_dir=args.out)
        return run(parse_config_data(_with_flags(_load(args.config), **flags)))
    except ConfigError as err:
        print(f"multilevel-design: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
