"""One benchmark job in a fresh interpreter; started by run.py.

Usage: python3 bench/job.py SPEC_JSON

SPEC_JSON holds ``src`` (the package source directory), ``config`` (a run
configuration file), ``trace`` (wrap the layer functions), ``oracle`` (how
many dense-oracle realizations to check, 0 for none), ``spans`` (where a
traced job writes its spans) and ``warmup`` (stop after set-up).  The job
imports the package, parses the config, times one ``cli.run`` between two
passes of the calibration computation (calibrate.py), checks the artifacts
and prints one JSON line.  ``slowdown`` is the measured calibration time
over the reference machine's.  ``setup_end`` is read from the
monotonic clock, which is shared with the parent process, so the parent can
time set-up from the moment it started this interpreter.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import multilevel_design  # noqa: E402
from multilevel_design import cli  # noqa: E402

config = cli.parse_config(spec["config"])
setup_end = time.monotonic()


def main() -> dict:
    result = {
        "setup_end": setup_end,
        "package": multilevel_design.__file__,
    }
    if spec["warmup"]:
        return result

    import resource
    from pathlib import Path

    import numpy
    import scipy

    import calibrate
    import checks
    import spans

    calibration_s = calibrate.measure()
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        result["wrapped"] = tracer.install()
    start = time.perf_counter_ns()
    if tracer is None:
        code = cli.run(config)
    else:
        code = tracer.call(spans.ROOT, cli.run, config)
        tracer.uninstall()
    run_ns = time.perf_counter_ns() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s += calibrate.measure()

    data = json.loads(Path(spec["config"]).read_text())
    report = checks.Report()
    allowed = (0, 2) if data["mode"] == "validate" else (0,)
    if code not in allowed:
        report.problem(f"cli.run returned {code}")
    out = Path(config.out_dir)
    checks.check_outputs(data, out, report)
    digest, artifact_bytes = checks.artifact_digest(out)
    oracle_realizations = checks.dense_oracle(data, spec["oracle"], report)

    result.update(
        run_ns=run_ns,
        rss_kb=rss_kb,
        slowdown=calibration_s / (2 * calibrate.REFERENCE_S),
        exit_code=code,
        replicate_designs=config.replicates * len(config.designs),
        attempted=report.attempted,
        failed=report.failed,
        correct=report.correct,
        messages=report.messages,
        oracle_realizations=oracle_realizations,
        digest=digest,
        artifact_bytes=artifact_bytes,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer is not None:
        tracer.dump(Path(spec["spans"]))
        result["trace"] = {
            "calls": tracer.calls,
            "self_ns": tracer.self_ns,
            "incl_ns": tracer.incl_ns,
            "non_estimable": tracer.non_estimable,
        }
    return result


print(json.dumps(main()))
