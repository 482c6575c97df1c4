"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload at a tiny size through the same job path as run.py,
traced and with the dense oracle, and shows that:

- every job passes its checks with no failed operation;
- a sample or table value scaled by 1+1e-6 fails the correctness check;
- the layer self times, the engine's included, add up to the traced
  ``cli.run`` span, and recomputing them from the span file agrees;
- a wrapped name that the package no longer binds is skipped, not an error;
- scaling by the calibration cancels a uniform slow-down of the machine;
- without the package source the benchmark exits non-zero and prints no
  result.

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
import spans
from workloads import WORKLOADS, config_data

sys.path.insert(0, str(run.SRC))

TINY_REPLICATES = {"paper_compare": 4, "balanced_contaminated": 3, "validate_gls": 8}
WORK = run.OUT / "selftest"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_job(workload: str) -> tuple[dict, dict, Path]:
    work = WORK / workload
    work.mkdir(parents=True)
    data = config_data(workload, 7, str(work / "artifacts"), TINY_REPLICATES[workload])
    config = work / "config.json"
    config.write_text(json.dumps(data))
    spec = {
        "src": str(run.SRC),
        "config": str(config),
        "trace": True,
        "oracle": 1,
        "spans": str(work / "spans.json"),
        "warmup": False,
    }
    result = run.run_job(spec, run.child_env(), time.monotonic() + run.DEADLINE_S)
    return data, result, work


def perturb(src: Path, dst: Path, name: str, row: int, column: int) -> None:
    """Copy the artifacts and scale one CSV cell by 1 + 1e-6."""
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_copy(data: dict, out: Path) -> checks.Report:
    report = checks.Report()
    checks.check_outputs(data, out, report)
    return report


def check_workload(workload: str) -> None:
    data, result, work = tiny_job(workload)
    reps = data["replicates"]
    ops = 6 if data["mode"] == "validate" else 6 * reps
    expect(
        result["correct"] and result["failed"] == 0 and result["attempted"] == ops,
        f"{workload}: {result['attempted']} operations, {result['failed']} failed, "
        f"{result['oracle_realizations']} oracle realizations {result['messages'] or ''}",
    )

    trace = result["trace"]
    layers = [layer for layer in spans.ALL_LAYERS if layer != spans.SETUP]
    total = sum(trace["self_ns"][layer] for layer in layers)
    recorded = json.loads((work / "spans.json").read_text())
    root = next(s for s in recorded["spans"] if s[3] == -1)
    expect(
        total == root[2] - root[1] and total <= result["run_ns"],
        f"{workload}: layer self times sum to the cli.run span "
        f"({total / 1e6:.3f} ms of {result['run_ns'] / 1e6:.3f} ms timed)",
    )
    from_file = spans.self_times_from_spans(work / "spans.json")
    expect(
        all(from_file.get(layer, 0) == trace["self_ns"][layer] for layer in layers),
        f"{workload}: self times recomputed from the span file agree",
    )

    out = work / "artifacts"
    expect(check_copy(data, out).correct, f"{workload}: unmodified artifacts pass")
    if data["mode"] == "validate":
        cases = [("validate.csv", 0, 2), ("validate.csv", 5, 3)]
    else:
        cases = [
            ("samples_randomize_schools_teacher.csv", 0, 3),
            ("samples_crd_student.csv", reps - 1, 3),
            ("summary.csv", 3, 2),
        ]
    if workload == "balanced_contaminated":
        cases.append(("samples_randomize_schools_student.csv", 1, 3))
    for k, (name, row, column) in enumerate(cases):
        copy = work / f"perturbed{k}"
        perturb(out, copy, name, row, column)
        report = check_copy(data, copy)
        expect(
            not report.correct,
            f"{workload}: {name} row {row} scaled by 1+1e-6 is caught "
            f"({report.failed} failed operations, {report.problems} problems)",
        )


def check_missing_binding() -> None:
    from multilevel_design import cli, simulator

    data = config_data("paper_compare", 7, str(WORK / "missing"), 2)
    config = cli.parse_config_data(data)
    original = simulator.gls_estimate
    del simulator.gls_estimate
    tracer = spans.Tracer()
    try:
        wrapped = tracer.install()
        tracer.call(spans.ROOT, cli.run, config)
    finally:
        tracer.uninstall()
        simulator.gls_estimate = original
    expect(
        tracer.calls["simulator.gls"] == 0 and tracer.calls["model_core.precision"] > 0,
        f"a layer name missing from a module is skipped ({wrapped} bindings wrapped, "
        f"{tracer.calls['model_core.precision']} precision calls, 0 GLS calls)",
    )


def check_scaling() -> None:
    """A run on a machine twice as slow reports the same scaled times."""
    jobs = [
        {"setup_s": 1.0 + k / 10, "run_ns": (3 + k) * 10**9, "slowdown": 1.0 + k / 20,
         "replicate_designs": 600, "rss_kb": 100 * 1024}
        for k in range(4)
    ]
    slower = [
        dict(j, setup_s=2 * j["setup_s"], run_ns=2 * j["run_ns"], slowdown=2 * j["slowdown"])
        for j in jobs
    ]
    fast, slow = run.end_to_end_metrics(jobs), run.end_to_end_metrics(slower)
    expect(
        all(math.isclose(fast[name]["value"], slow[name]["value"]) for name in fast),
        "times and slowdown doubled together leave every end-to-end metric unchanged",
    )


def check_without_source() -> None:
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "paper_compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        f"without src/ the benchmark exits {proc.returncode} and prints no result",
    )


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    for workload in WORKLOADS:
        check_workload(workload)
    check_missing_binding()
    check_scaling()
    check_without_source()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} self-test checks failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
