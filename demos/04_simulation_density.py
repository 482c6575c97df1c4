"""Monte Carlo distribution of the anticipated variance, with density plot.

Closed forms cover balanced assignments and homogeneous layouts; everything
else is one seeded simulation away.  Each replicate draws course
assignments (here: two teachers per student, with replacement), randomizes
teachers, and records the variance the realized design implies for the
treatment effect at both levels.
"""

from pathlib import Path

from multilevel_design import (
    AssignmentPolicy,
    DesignKind,
    SimulationConfig,
    StudentVarianceComponents,
    StudyLayout,
    TeacherVarianceComponents,
    simulate_anticipated_variance,
)
from multilevel_design.cli import emit_density_svg

layout = StudyLayout(a=16, m=8, n=200)
configs = [
    SimulationConfig(
        layout=layout,
        teacher_vc=TeacherVarianceComponents(1.6, 14.4),
        student_vc=StudentVarianceComponents(1.6, 14.4, 14.4),
        design=design,
        policy=AssignmentPolicy.with_replacement(2),
        replicates=2000,
        seed=20090216,
        effect_size_diff=1.0,
    )
    for design in DesignKind
]
series = {}
print(f"{'design':>20} {'level':>8} {'mean var':>9} {'sd':>8} {'power':>7}")
# the configs differ only in their design, so one call runs them in lockstep
for result in simulate_anticipated_variance(configs):
    design = result.config.design
    for level in ("teacher", "student"):
        res = result.level(level)
        print(
            f"{design.value:>20} {level:>8} {res.mean:>9.4f} {res.sd:>8.5f} "
            f"{res.power:>7.4f}"
        )
        series[f"{design.value} {level}"] = res.density

out = Path("demo_density.svg")
emit_density_svg(series, out)
print(f"\ndensity curves written to {out.resolve()}")
print("randomize-schools gives a point mass at the teacher level (its")
print("information is the same for every realization), so it appears as a")
print("vertical marker.")
