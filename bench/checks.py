"""Correctness checks for one benchmark job's artifacts, plus a dense oracle.

The checks use only invariants that hold for every replicate whatever the
random streams produce, so they survive a change of draw layout:

- randomize_schools teacher variance is (sigma_eps2 + m sigma_v2) / (m a),
  0.2125 here, at 1e-12 relative;
- within_schools teacher variance is sigma_eps2 / (m a), 0.1125 here, when
  q = 0, at 1e-12;
- with balanced assignments whose subsets tile every school exactly, the
  randomize_schools student variance is the inverse of
  ``balanced_student_information``, at 1e-9;
- the summary and validate tables agree with the per-replicate values.

One operation is one (design, level, replicate) variance of ``compare`` or
one row of ``validate.csv``.  The oracle rebuilds information and GLS
covariance from dense covariance solves, independent of the Woodbury path.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

LEVELS = ("teacher", "student")
EXACT_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-9
ORACLE_RTOL = 1e-9
SUMMARY_HEADER = ["design", "level", "mean_var", "sd_var", "se_diff", "power", "non_estimable_frac"]
SAMPLES_HEADER = ["replicate", "level", "design", "variance", "estimable"]
VALIDATE_HEADER = ["design", "level", "analytic_var", "empirical_var", "ratio", "pass"]
MAX_MESSAGES = 20


class Report:
    """Counts operations and collects the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        self.messages: list[str] = []

    def problem(self, message: str) -> None:
        self.problems += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def operation(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(message)

    @property
    def correct(self) -> bool:
        return self.problems == 0


def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def _float(text: str) -> float:
    return float(text) if text else math.nan


def _read_csv(path: Path, header: list[str], report: Report) -> list[list[str]]:
    if not path.is_file():
        report.problem(f"{path.name}: missing")
        return []
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        report.problem(f"{path.name}: header {rows[0] if rows else None} != {header}")
        return []
    return rows[1:]


def invariants(data: dict) -> dict[tuple[str, str], tuple[float, float]]:
    """(design, level) -> (variance every replicate must have, relative tolerance)."""
    m, a = data["teachers_per_school"], data["schools"]
    tvc = data["teacher_vc"]
    out = {
        ("randomize_schools", "teacher"): (
            (tvc["sigma_eps2"] + m * tvc["sigma_v2"]) / (m * a),
            EXACT_RTOL,
        )
    }
    if data["q"] == 0.0:
        out[("within_schools", "teacher")] = (tvc["sigma_eps2"] / (m * a), EXACT_RTOL)
    assignment = data["assignment"]
    n, c = data["students_per_school"], assignment["c"]
    if assignment["policy"] == "balanced" and n % math.comb(m, c) == 0:
        from multilevel_design import (
            BalancedSpec,
            DesignKind,
            StudentVarianceComponents,
            balanced_student_information,
        )

        info = balanced_student_information(
            DesignKind.RANDOMIZE_SCHOOLS,
            BalancedSpec(m=m, n=n, c=c, a=a),
            StudentVarianceComponents(**data["student_vc"]),
        )
        out[("randomize_schools", "student")] = (1.0 / info, CLOSED_FORM_RTOL)
    return out


def expected_files(data: dict) -> set[str]:
    if data["mode"] == "validate":
        return {"validate.csv"}
    names = {"summary.csv", "density.svg"}
    for design in data["designs"]:
        for level in LEVELS:
            names.add(f"samples_{design}_{level}.csv")
            names.add(f"density_{design}_{level}.csv")
    return names


def _check_density(path: Path, design: str, level: str, report: Report) -> None:
    rows = _read_csv(path, ["level", "design", "variance", "density"], report)
    if not rows:
        report.problem(f"{path.name}: no rows")
        return
    if any(row[:2] != [level, design] for row in rows):
        report.problem(f"{path.name}: wrong level or design label")
        return
    if len(rows) == 1 and rows[0][3] == "":
        return  # a point mass
    x = np.array([_float(row[2]) for row in rows])
    y = np.array([_float(row[3]) for row in rows])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(y >= 0.0)):
        report.problem(f"{path.name}: non-finite or negative density")
    elif not np.all(np.diff(x) >= 0.0):
        report.problem(f"{path.name}: grid is decreasing")
    elif x[-1] - x[0] > CLOSED_FORM_RTOL * abs(x[-1]):
        # samples equal up to rounding give a grid too narrow to integrate
        mass = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
        if not 0.95 <= mass <= 1.01:
            report.problem(f"{path.name}: density integrates to {mass:.4f}")


def _check_compare(data: dict, out: Path, report: Report) -> None:
    reps = data["replicates"]
    fixed = invariants(data)
    summary = {
        (row[0], row[1]): row
        for row in _read_csv(out / "summary.csv", SUMMARY_HEADER, report)
    }
    for design in data["designs"]:
        for level in LEVELS:
            name = f"samples_{design}_{level}.csv"
            rows = _read_csv(out / name, SAMPLES_HEADER, report)
            if len(rows) != reps:
                report.problem(f"{name}: {len(rows)} sample rows, expected {reps}")
            expected = fixed.get((design, level))
            values = []
            for i, row in enumerate(rows):
                variance = _float(row[3])
                ok = (
                    row[:3] == [str(i), level, design]
                    and row[4] == "1"
                    and math.isfinite(variance)
                    and variance > 0.0
                    and (expected is None or _close(variance, *expected))
                )
                report.operation(ok, f"{name} row {i}: {row}")
                values.append(variance)
            _check_density(out / f"density_{design}_{level}.csv", design, level, report)

            row = summary.get((design, level))
            if row is None:
                report.problem(f"summary.csv: no row for {design} {level}")
                continue
            if not values:
                continue
            samples = np.array(values)
            mean = float(np.mean(samples))
            sd = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
            power = _float(row[5])
            ok = (
                _close(_float(row[2]), mean, EXACT_RTOL)
                and abs(_float(row[3]) - sd) <= CLOSED_FORM_RTOL * mean
                and _close(_float(row[4]), 2.0 * math.sqrt(mean), EXACT_RTOL)
                and _float(row[6]) == 0.0
                and (
                    0.0 < power <= 1.0
                    if data["effect_size_diff"] is not None
                    else row[5] == ""
                )
            )
            if not ok:
                report.problem(f"summary.csv: {row} disagrees with {name}")
    svg = out / "density.svg"
    text = svg.read_text() if svg.is_file() else ""
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        report.problem("density.svg: missing or truncated")


def _check_validate(data: dict, out: Path, report: Report) -> None:
    fixed = invariants(data)
    rows = _read_csv(out / "validate.csv", VALIDATE_HEADER, report)
    keys = [(design, level) for design in data["designs"] for level in LEVELS]
    if [tuple(row[:2]) for row in rows] != keys:
        report.problem(f"validate.csv: rows {[row[:2] for row in rows]}, expected {keys}")
    for row in rows:
        analytic, empirical, ratio = (_float(v) for v in row[2:5])
        expected = fixed.get((row[0], row[1]))
        ok = (
            analytic > 0.0
            and empirical > 0.0
            and _close(ratio, empirical / analytic, EXACT_RTOL)
            and row[5] in ("0", "1")
            and (expected is None or _close(analytic, *expected))
        )
        report.operation(ok, f"validate.csv row {row}")


def check_outputs(data: dict, out: Path, report: Report) -> None:
    """Check the artifacts a job wrote under ``out`` for config ``data``."""
    out = Path(out)
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    expected = expected_files(data)
    if found != expected:
        report.problem(
            f"{len(found)} artifacts, expected {len(expected)}: "
            f"missing {sorted(expected - found)}, extra {sorted(found - expected)}"
        )
    if data["mode"] == "validate":
        _check_validate(data, out, report)
    else:
        _check_compare(data, out, report)


def artifact_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(Path(out).iterdir()):
        body = path.read_bytes()
        total += len(body)
        digest.update(path.name.encode() + b"\0" + body)
    return digest.hexdigest(), total


def _rel_err(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.abs(value - reference).max()) / float(np.abs(reference).max())


def _dense_gls(xs, covariances, responses) -> tuple[np.ndarray, np.ndarray]:
    """Information sum X' V^-1 X and right-hand side sum X' V^-1 y by dense solves."""
    p = xs[0].shape[1]
    info, rhs = np.zeros((p, p)), np.zeros(p)
    for x, v, y in zip(xs, covariances, responses):
        solved = np.linalg.solve(v, np.column_stack([x, y]))
        info += x.T @ solved[:, :p]
        rhs += x.T @ solved[:, p]
    return info, rhs


def _compare(report: Report, label: str, variance, fit, info, rhs) -> None:
    cov = np.linalg.inv(info)
    coef = np.linalg.solve(info, rhs)
    got_coef, got_cov = fit
    if not _close(variance, cov[1, 1], ORACLE_RTOL):
        report.problem(f"{label}: variance {variance!r} != dense {float(cov[1, 1])!r}")
    if _rel_err(got_cov, cov) > ORACLE_RTOL:
        report.problem(f"{label}: GLS covariance off by {_rel_err(got_cov, cov):.3g}")
    scale = max(float(np.abs(coef).max()), float(np.sqrt(np.diag(cov)).max()))
    if float(np.abs(np.asarray(got_coef) - coef).max()) > ORACLE_RTOL * scale:
        report.problem(f"{label}: GLS coefficients {got_coef} != dense {coef}")


def dense_oracle(data: dict, realizations: int, report: Report) -> int:
    """Compare the library's variances and GLS fits with dense solves.

    Draws ``realizations`` designs per design kind through the public draw
    functions from a generator of the benchmark's own, builds every school's
    covariance densely, and checks the treatment variance at both levels and
    the GLS covariance and coefficients at ORACLE_RTOL.  Returns the number
    of realizations compared.
    """
    import multilevel_design as mld
    from multilevel_design import cli

    config = cli.parse_config_data(data)
    tvc, svc = config.teacher_vc, config.student_vc
    compared = 0
    for d_index, design in enumerate(config.designs):
        sim = config.simulation_config(design)
        for k in range(realizations):
            rng = np.random.default_rng([data["seed"], d_index, k])
            ds = [
                mld.draw_assignment(sim.policy, m_i, n_i, rng)
                for m_i, n_i in zip(sim.layout.m, sim.layout.n)
            ]
            assignment = mld.draw_randomization(design, sim.layout, rng)
            if sim.effective_q > 0.0:
                assignment = mld.draw_contamination(
                    assignment, sim.effective_q, rng, kind=design
                )
            xs = mld.design_matrices(assignment)
            beta = np.array([0.3, 0.5, -0.25][: xs[0].shape[1]])
            dxs = [d @ x for x, d in zip(xs, ds)]
            t_resp = [x @ beta + rng.normal(size=x.shape[0]) for x in xs]
            s_resp = [dx @ beta + rng.normal(size=dx.shape[0]) for dx in dxs]
            t_cov = [
                tvc.sigma_v2 * np.ones((len(x), len(x))) + tvc.sigma_eps2 * np.eye(len(x))
                for x in xs
            ]
            s_cov = [
                svc.sigma_s2 * np.ones((len(d), len(d)))
                + svc.sigma_t2 * d @ d.T
                + svc.sigma_eta2 * np.eye(len(d))
                for d in ds
            ]
            label = f"oracle {design.value} #{k}"
            try:
                t_var = mld.treatment_variance(mld.teacher_information(xs, tvc)).variance
                t_fit = mld.gls_estimate(t_resp, xs, tvc)
                s_var = mld.treatment_variance(mld.student_information(xs, ds, svc)).variance
                s_fit = mld.gls_estimate(s_resp, xs, svc, ds=ds)
            except mld.NonEstimableError as err:
                report.problem(f"{label}: {err}")
                continue
            _compare(report, f"{label} teacher", t_var, t_fit, *_dense_gls(xs, t_cov, t_resp))
            _compare(report, f"{label} student", s_var, s_fit, *_dense_gls(dxs, s_cov, s_resp))
            compared += 1
    return compared
