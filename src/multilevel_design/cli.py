"""Command-line front end: JSON config in, CSV/SVG artifacts out.

Modes: ``closed-form`` evaluates the analytic expected informations and
inflation factors; ``simulate``/``compare`` run the Monte Carlo engine and
write per-replicate samples, density grids, a summary table and one SVG of
the density curves; ``validate`` cross-checks the analytic anticipated
variance against GLS estimates on synthetic data.

A run checks the config, computes every artifact's text, then makes
``out_dir`` and writes the files; a run that fails before writing creates
nothing, and a bad ``out_dir`` is reported after the computation.

Exit codes: 0 success, 1 configuration error (one stderr line,
``multilevel-design: '<field>': <message>``), 2 validation failure or a
design and level with no estimable replicate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .designs import (
    AssignmentPolicy,
    BalancedSpec,
    DesignKind,
    PolicyKind,
    _balanced_school_traces,
    _teacher_traces,
)
from .model_core import (
    FieldError,
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
    DensityEstimate,
    SimulationConfig,
    check_alpha,
    estimator_variance_study,
    simulate_anticipated_variance,
)

MODES = ("closed-form", "simulate", "compare", "validate")

#: two-sided coverage of the band an empirical/analytic variance ratio must fall in
VALIDATION_LEVEL = 0.999


def variance_ratio_band(n_used: int) -> tuple[float, float]:
    """Two-sided VALIDATION_LEVEL interval of a sample variance over its
    expectation from ``n_used`` draws, chi^2_k / k with k = n_used - 1, by
    the Wilson-Hilferty cube (1 - h -+ z sqrt(h))^3 with h = 2/(9k)."""
    h = 2.0 / (9.0 * (n_used - 1))
    z = statistics.NormalDist().inv_cdf(0.5 + VALIDATION_LEVEL / 2.0)
    return (1.0 - h - z * math.sqrt(h)) ** 3, (1.0 - h + z * math.sqrt(h)) ** 3


# A schema maps each key of a JSON object, in parse (and so blame) order, to
# (default, parser); _REQUIRED marks a key without a default.  A parser gets
# the raw value, its field name and the keys parsed before it.  Parsers
# check what JSON can get wrong: types, names and keys.  The value rules
# are the library's.  Both raise FieldError, which names the field.

_REQUIRED = object()
_DESIGN_NAMES = {kind.value: kind for kind in DesignKind}
_POLICY_NAMES = {kind.value: kind for kind in PolicyKind}
_MODES = {mode: mode for mode in MODES}
_MAX = sys.float_info.max


def _object(value, prefix: str, schema: Mapping) -> dict:
    """Parse a JSON object: unknown keys, then missing ones, then each value."""
    if not isinstance(value, dict):
        raise FieldError(prefix.rstrip(".") or "config", "expected an object")
    for key in value:
        if key not in schema:
            raise FieldError(prefix + key, "unknown key")
    for key, (default, _) in schema.items():
        if default is _REQUIRED and key not in value:
            raise FieldError(prefix + key, "missing required field")
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
        raise FieldError(key, f"expected a finite number, got {value!r}")
    return float(value)


def _choice(value, key, choices: Mapping):
    if not isinstance(value, str) or value not in choices:
        raise FieldError(key, f"must be one of {sorted(choices)}, got {value!r}")
    return choices[value]


def _components(cls):
    schema = {f.name: (_REQUIRED, _number) for f in fields(cls)}
    return lambda value, key, parsed: cls(**_object(value, key + ".", schema))


def _designs(value, key, parsed) -> tuple[DesignKind, ...]:
    if not isinstance(value, list) or not value:
        raise FieldError(key, "expected a non-empty list of design names")
    kinds = tuple(_choice(name, key, _DESIGN_NAMES) for name in value)
    if len(set(kinds)) != len(kinds):
        raise FieldError(key, "a design is listed twice")
    return kinds


_ASSIGNMENT = {
    "policy": (_REQUIRED, lambda value, key, parsed: _choice(value, key, _POLICY_NAMES)),
    "c": (1, lambda value, key, parsed: value),
}


def _policy(value, key, parsed) -> AssignmentPolicy:
    block = _object(value, key + ".", _ASSIGNMENT)
    if "c" not in value and block["policy"] is not PolicyKind.SINGLE_COURSE:
        raise FieldError(key + ".c", "missing required field")
    return AssignmentPolicy(block["policy"], block["c"])


def _out_dir(value, key, parsed) -> str:
    if not isinstance(value, str) or not value:
        raise FieldError(key, "expected a non-empty string")
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
    return RunConfig(*_object(data, "", _SCHEMA).values())


def _load(path: str | Path):
    path = Path(path)
    if not path.is_file():
        raise FieldError("config", f"no such file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FieldError("config", f"invalid JSON: {err}") from err


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


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    """A CSV cell: empty for None and non-finite floats."""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return "" if value is None else str(value)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def _csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#7c4fb0", "#c2851a", "#3aa6a6")
_DASH = ' stroke-dasharray="6,4"'
_MIDDLE = ' text-anchor="middle"'


def _line(x1, y1, x2, y2, stroke: str = "black", width: float = 1, dash: str = "") -> str:
    coords = f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
    return f'<line {coords} stroke="{stroke}" stroke-width="{width}"{dash}/>'


def _escape(text: str) -> str:
    """XML-escape ``&``, ``<`` and ``>`` as ``xml.sax.saxutils.escape`` does,
    without importing ``xml.sax`` (whose import pulls in the network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x, y, size: int, body: str, attrs: str = "") -> str:
    return f'<text x="{x}" y="{y}" font-size="{size}"{attrs}>{body}</text>'


def _density_svg(series: Mapping[str, DensityEstimate]) -> str:
    """One SVG with a labeled curve per series; point masses become vertical
    markers, drawn after the curves."""
    if not series:
        raise ValueError("no densities to plot")
    items = sorted(series.items(), key=lambda item: item[1].is_point_mass)
    x_points = np.concatenate([d.grid if d.grid is not None else [d.point_mass] for _, d in items])
    x_lo, x_hi = float(np.min(x_points)), float(np.max(x_points))
    if x_hi <= x_lo:
        pad = max(abs(x_lo) * 0.05, 1e-6)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    y_hi = max((float(d.density.max()) for _, d in items if d.grid is not None), default=1.0)
    if y_hi <= 0.0:
        y_hi = 1.0

    width, height, left, top = 800, 500, 70, 24
    plot_w, plot_h = width - left - 200, height - top - 60
    base, lx, mid = top + plot_h, left + plot_w + 12, f"{top + plot_h / 2:.3f}"

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - y / y_hi * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _line(left, base, left + plot_w, base),
        _line(left, top, left, base),
    ]
    for i in range(5):
        frac = i / 4.0
        xv, yv = x_lo + frac * (x_hi - x_lo), frac * y_hi
        px, py = f"{sx(xv):.3f}", f"{sy(yv):.3f}"
        parts += [
            _line(px, base, px, base + 5),
            _text(px, base + 20, 12, f"{xv:.4g}", _MIDDLE),
            _line(left - 5, py, left, py),
            _text(left - 8, f"{sy(yv) + 4:.3f}", 12, f"{yv:.4g}", ' text-anchor="end"'),
        ]
    parts += [
        _text(f"{left + plot_w / 2:.3f}", height - 15, 14, "anticipated variance", _MIDDLE),
        _text(20, mid, 14, "density", f'{_MIDDLE} transform="rotate(-90 20 {mid})"'),
    ]
    legend = []
    for i, (label, dens) in enumerate(items):
        color, dash = _PALETTE[i % len(_PALETTE)], _DASH if dens.is_point_mass else ""
        if dens.is_point_mass:
            px = f"{sx(float(dens.point_mass)):.3f}"
            parts.append(_line(px, top, px, base, color, 1.5, dash))
        else:
            points = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(dens.grid, dens.density))
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{points}"/>')
        ly = top + 12 + 18 * i
        legend += [_line(lx, ly - 4, lx + 24, ly - 4, color, 2, dash)]
        legend += [_text(lx + 30, ly, 12, _escape(label))]
    return "\n".join(parts + legend + ["</svg>"]) + "\n"


def emit_density_svg(series: Mapping[str, DensityEstimate], path: str | Path) -> Path:
    """Write one SVG with a labeled curve per series to ``path``; point masses
    become vertical markers.  Raises before touching the filesystem when
    there is nothing to draw."""
    path = Path(path)
    _write_atomic(path, _density_svg(series))
    return path


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------


def _run_closed_form(config: RunConfig, spec: BalancedSpec) -> tuple[int, dict[str, str]]:
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
            variance = inflation / info if info > 0.0 and inflation is not None else None
            se_diff = None if variance is None else 2.0 * float(np.sqrt(variance))
            rows.append((design.value, level, info, variance, se_diff, inflation))
    header = ("design", "level", "expected_info", "anticipated_var", "se_diff", "inflation")
    return 0, {"closed_forms.csv": _csv(header, rows)}


def _run_simulate(sim_configs: Sequence[SimulationConfig]) -> tuple[int, dict[str, str]]:
    """Per design and level the samples and density CSVs, then the summary
    and one SVG; a NaN (non-estimable) value writes an empty cell.  The
    designs run in lockstep on one assignment draw.  The code is 2 when
    some design and level has no estimable replicate."""
    artifacts: dict[str, str] = {}
    summary_rows = []
    series: dict[str, DensityEstimate] = {}
    for result in simulate_anticipated_variance(sim_configs):
        design = result.config.design.value
        for level in LEVELS:
            res, dens = result.level(level), result.level(level).density
            artifacts[f"samples_{design}_{level}.csv"] = _csv(
                ("replicate", "level", "design", "variance", "estimable"),
                [(r, level, design, v, int(math.isfinite(v)))
                 for r, v in enumerate(res.variances.tolist())],
            )
            density_rows = []
            if dens is not None:
                series[f"{design} {level}"] = dens
                curve = [] if dens.is_point_mass else zip(dens.grid.tolist(), dens.density.tolist())
                density_rows = [(level, design, x, y) for x, y in curve] or [
                    (level, design, dens.point_mass, None)
                ]
            artifacts[f"density_{design}_{level}.csv"] = _csv(
                ("level", "design", "variance", "density"), density_rows
            )
            se_diff = 2.0 * float(np.sqrt(res.mean))
            frac = res.non_estimable / res.variances.size
            summary_rows.append((design, level, res.mean, res.sd, se_diff, res.power, frac))
    artifacts["summary.csv"] = _csv(
        ("design", "level", "mean_var", "sd_var", "se_diff", "power", "non_estimable_frac"),
        summary_rows,
    )
    if series:
        artifacts["density.svg"] = _density_svg(series)
    return 2 if any(row[-1] == 1.0 for row in summary_rows) else 0, artifacts


def _run_validate(sim_configs: Sequence[SimulationConfig]) -> tuple[int, dict[str, str]]:
    """validate.csv's rows, the designs in lockstep on one draw; a design
    with too few estimable replicates at a level to estimate a variance
    fails both its rows with empty cells.  The code is 2 when a row fails."""
    rows = []
    for sim, study in zip(sim_configs, estimator_variance_study(sim_configs)):
        for level, res in study.items():
            if None in study.values():
                rows.append((sim.design.value, level, None, None, None, 0))
                continue
            low, high = variance_ratio_band(res.n_used)
            ok = low <= res.variance_ratio <= high and res.mean_error_z <= 3.0
            cells = (res.anticipated_mean, res.coef_variance, res.variance_ratio, int(ok))
            rows.append((sim.design.value, level) + cells)
    header = ("design", "level", "analytic_var", "empirical_var", "ratio", "pass")
    return 2 if any(row[-1] == 0 for row in rows) else 0, {"validate.csv": _csv(header, rows)}


def run(config: RunConfig) -> int:
    """Execute one mode, then make ``config.out_dir`` and write its artifacts.

    Every mode needs invertible covariances and admissible designs; they
    are checked for every design before any layout rule, so a config with
    faults in two designs names the same field in every mode.
    """
    if config.mode == "validate" and config.replicates < 2:
        raise FieldError("replicates", "validate needs at least 2 replicates")
    layout = config.layout
    config.teacher_vc.check_invertible()
    config.student_vc.check_invertible()
    for design in config.designs:
        design.check(layout.a, layout.m, config.q)
    if config.mode == "closed-form":
        m = layout.homogeneous_m()
        if len(set(layout.n)) != 1:
            raise FieldError("students_per_school", "closed-form needs a homogeneous student count")
        spec = BalancedSpec(m, layout.n[0], config.policy.c, layout.a)
        code, artifacts = _run_closed_form(config, spec)
    else:
        sim_configs = [config.simulation_config(design) for design in config.designs]
        run_mode = _run_validate if config.mode == "validate" else _run_simulate
        code, artifacts = run_mode(sim_configs)
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise FieldError("out_dir", str(err)) from err
    for name, text in artifacts.items():
        _write_atomic(out / name, text)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FieldError("args", message)


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
    except FieldError as err:
        print(f"multilevel-design: '{err.field}': {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
