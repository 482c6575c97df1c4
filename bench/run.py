"""Benchmark of the multilevel-design command-line workflow.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_compare --seed 1 --seconds 40 --trace 0

A run repeats jobs until ``--seconds`` have passed (at least three jobs).
Each job is a fresh interpreter (bench/job.py) that imports the package from
``src/``, parses the workload's config, times one ``cli.run`` and checks
the artifacts.  Jobs run one at a time with ``MLD_THREADS`` unset and BLAS
limited to one thread.  A warm-up job first compiles the package's bytecode,
which users pay once per install, not per run.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: from starting the interpreter until ``import
  multilevel_design`` and ``cli.parse_config`` finish;
- ``reps_per_s``: replicates x designs over the ``cli.run`` wall time;
- ``total_s``: set-up plus ``cli.run``, what a user waits for;
- ``peak_rss_mb``: ``ru_maxrss`` right after ``cli.run``, largest job.

The three times are scaled to the reference machine's speed by the mean
time of the calibration computation (calibrate.py) that every job runs
before and after ``cli.run``: set-up is the median job's, throughput is
over all jobs together and total time is the mean job's.

``--trace 1`` alternates untraced and traced jobs and reports per-layer
calls, self time and share of ``cli.run`` (see spans.py), the artifact
bytes, non-estimable pivots and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The exit code is 0 when every check passed and 1
otherwise; when no measurement could be made nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ALL_LAYERS, LAYERS, SETUP
from workloads import WORKLOADS, config_data

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
BENCH = Path(__file__).resolve().parent
OUT = CHECKOUT / ".bench_out"
#: every run must end within 180 s; stop starting jobs well before that
DEADLINE_S = 170.0
MIN_JOBS = 3
MIN_TRACE_PAIRS = 2
#: dense-oracle realizations per design, checked in the first job of a run
ORACLE_REALIZATIONS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A job could not be run or measured."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MLD_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def run_job(spec: dict, env: dict[str, str], deadline: float) -> dict:
    """Start one job, wait for it and return its result with ``setup_s``."""
    started = time.monotonic()
    if started >= deadline:
        raise BenchError("out of time before the minimum number of jobs ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
            cwd=CHECKOUT,
            env=env,
            capture_output=True,
            text=True,
            timeout=deadline - started,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError("a job did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"job exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported the package from {result['package']}, not {SRC}")
    result["started"], result["ended"] = started, time.monotonic()
    result["setup_s"] = result["setup_end"] - started
    return result


def _fits(jobs: list[dict], elapsed: float, seconds: float) -> bool:
    """Whether another job of the median length ends within ``seconds``."""
    typical = statistics.median(j["ended"] - j["started"] for j in jobs)
    return elapsed + typical <= seconds


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_metrics(jobs: list[dict]) -> dict:
    """Times over the run's jobs, scaled to the reference speed; peak memory.

    The reference machine's speed drifts by up to 2x over tens of seconds
    as other tenants come and go, so raw times of two runs can differ by
    more than any change worth finding.  Every job runs the calibration
    computation (calibrate.py) before and after ``cli.run``; dividing the
    run's times by its mean ``slowdown`` takes most of that drift out
    (bench/README.md).  Set-up is the median job's, throughput is over all
    jobs together, total time is the mean job's, and peak memory is the
    largest job's.
    """
    slowdown = statistics.fmean(j["slowdown"] for j in jobs)
    run_s = [j["run_ns"] / 1e9 for j in jobs]
    setup_s = [j["setup_s"] / slowdown for j in jobs]
    total_s = [(j["setup_s"] + s) / slowdown for j, s in zip(jobs, run_s)]
    reps_per_s = [j["replicate_designs"] / s * slowdown for j, s in zip(jobs, run_s)]
    throughput = sum(j["replicate_designs"] for j in jobs) / sum(run_s) * slowdown
    rss_mb = [j["rss_kb"] / 1024.0 for j in jobs]
    return {
        "setup_s": dict(_quartiles(setup_s), value=statistics.median(setup_s), unit="s"),
        "reps_per_s": dict(_quartiles(reps_per_s), value=throughput, unit="rep-designs/s"),
        "total_s": dict(_quartiles(total_s), value=statistics.fmean(total_s), unit="s"),
        "peak_rss_mb": dict(_quartiles(rss_mb), value=max(rss_mb), unit="MB"),
    }


def layer_metrics(jobs: list[dict]) -> dict:
    traced = [j for j in jobs if "trace" in j]
    per_job: dict[str, tuple[list[float], str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        per_job.setdefault(name, ([], unit))[0].append(value)

    for job in traced:
        reps = job["replicate_designs"]
        run_ns = job["run_ns"]
        for layer in ALL_LAYERS:
            if layer == SETUP:
                calls, self_ns = 1, job["setup_s"] * 1e9
            else:
                calls, self_ns = job["trace"]["calls"][layer], job["trace"]["self_ns"][layer]
            add(f"{layer}.calls_per_rep", calls / reps, "calls/rep")
            add(f"{layer}.ms_per_rep", self_ns / 1e6 / reps, "ms/rep")
            add(f"{layer}.share", self_ns / run_ns, "fraction")
            if layer in LAYERS:
                add(f"{layer}.incl_share", job["trace"]["incl_ns"][layer] / run_ns, "fraction")
        add(
            "model_core.pivot.non_estimable",
            job["trace"]["non_estimable"]["model_core.pivot"],
            "count",
        )
        add("cli.artifacts.bytes", job["artifact_bytes"], "bytes")
    # a traced job follows its untraced partner, so both see similar machine speed
    for plain, traced_job in zip(jobs[::2], jobs[1::2]):
        add("trace.overhead_frac", traced_job["run_ns"] / plain["run_ns"] - 1.0, "fraction")
    return {
        name: dict(_quartiles(values), value=statistics.median(values), unit=unit)
        for name, (values, unit) in per_job.items()
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(jobs: list[dict], env: dict[str, str], replicates: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **jobs[0]["versions"],
        "blas_threads": {name: env[name] for name in BLAS_THREAD_VARS},
        "MLD_THREADS": env.get("MLD_THREADS"),
        "replicates_per_job": replicates,
        "jobs": len(jobs),
        "traced_jobs": sum("trace" in j for j in jobs),
        "mean_slowdown": statistics.fmean(j["slowdown"] for j in jobs),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the multilevel-design CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multilevel_design" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'multilevel_design'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    artifacts = work / "artifacts"
    config_path = work / "config.json"
    data = config_data(args.workload, args.seed, str(artifacts))
    config_path.write_text(json.dumps(data, indent=1))
    env = child_env()
    base = {
        "src": str(SRC),
        "config": str(config_path),
        "trace": False,
        "oracle": 0,
        "spans": str(work / "spans.json"),
        "warmup": False,
    }
    min_jobs = 2 * MIN_TRACE_PAIRS if args.trace else MIN_JOBS
    jobs: list[dict] = []
    try:
        run_job(dict(base, warmup=True), env, deadline)
        start = time.monotonic()
        while len(jobs) < min_jobs or _fits(jobs, time.monotonic() - start, args.seconds):
            shutil.rmtree(artifacts, ignore_errors=True)
            spec = dict(
                base,
                trace=bool(args.trace) and len(jobs) % 2 == 1,
                oracle=0 if jobs else ORACLE_REALIZATIONS,
            )
            jobs.append(run_job(spec, env, deadline))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)

    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    messages = [m for j in jobs for m in j["messages"]]
    deterministic = len({j["digest"] for j in jobs}) == 1
    if not deterministic:
        messages.append("artifacts differ between jobs of the same config")
    correct = deterministic and all(j["correct"] for j in jobs)
    detail = layer_metrics(jobs) if args.trace else end_to_end_metrics(jobs)
    env_record = environment(jobs, env, data["replicates"])
    (work / "result.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env_record,
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "messages": messages,
                "oracle_realizations": sum(j["oracle_realizations"] for j in jobs),
                "metrics": detail,
                "jobs": [{k: v for k, v in j.items() if k != "trace"} for j in jobs],
            },
            indent=1,
        )
    )
    for message in messages[:20]:
        print(f"bench: check failed: {message}", file=sys.stderr)
    for name, stats in detail.items():
        print(
            f"{name:42s} {stats['value']:.6g} {stats['unit']} (over {stats['n']} samples: "
            f"median {stats['median']:.6g}, quartiles {stats['q1']:.6g}..{stats['q3']:.6g})"
        )
    print(json.dumps({"environment": env_record}))
    metrics = {name: {"value": s["value"], "unit": s["unit"]} for name, s in detail.items()}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
