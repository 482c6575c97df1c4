"""The benchmark's workloads: one CLI run configuration each.

Every workload uses a=16 schools, m=8 teachers per school, teacher variance
components (1.6, 14.4), student components (1.6, 14.4, 14.4) and all three
designs.  The benchmark's seed sets only the ``seed`` field; every other
field is fixed here.  ``replicates`` is the size of one job (one fresh
process running ``cli.run`` once); it is chosen so that a job's ``cli.run``
takes roughly 3 s at the commit that defined the benchmark.
"""

from __future__ import annotations

DESIGNS = ("randomize_schools", "within_schools", "crd")

_BASE = {
    "schools": 16,
    "teachers_per_school": 8,
    "teacher_vc": {"sigma_v2": 1.6, "sigma_eps2": 14.4},
    "student_vc": {"sigma_s2": 1.6, "sigma_t2": 14.4, "sigma_eta2": 14.4},
    "designs": list(DESIGNS),
    "alpha": 0.05,
}

WORKLOADS = {
    # The paper's layout: precision, information and pivot dominate; the
    # balanced draw is bypassed; KDE, power and all 14 artifacts are written.
    "paper_compare": {
        "mode": "compare",
        "students_per_school": 200,
        "assignment": {"policy": "with_replacement", "c": 2},
        "q": 0.0,
        "effect_size_diff": 1.0,
        "replicates": 300,
    },
    # Balanced sections with contamination: the balanced draw dominates and
    # the contamination draw and 3-column pivot run; precision is minor.
    "balanced_contaminated": {
        "mode": "compare",
        "students_per_school": 196,
        "assignment": {"policy": "balanced", "c": 2},
        "q": 0.5,
        "effect_size_diff": None,
        "replicates": 60,
    },
    # GLS validation: the same draws and precision feed estimation instead
    # of information, so response generation and gls_estimate show.
    "validate_gls": {
        "mode": "validate",
        "students_per_school": 50,
        "assignment": {"policy": "with_replacement", "c": 2},
        "q": 0.0,
        "effect_size_diff": 1.0,
        "replicates": 200,
    },
}


def config_data(workload: str, seed: int, out_dir: str, replicates: int | None = None) -> dict:
    """The JSON run configuration of one job of ``workload``."""
    data = dict(_BASE, **WORKLOADS[workload], seed=seed, out_dir=out_dir)
    if replicates is not None:
        data["replicates"] = replicates
    return data
