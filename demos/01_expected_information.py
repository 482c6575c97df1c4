"""Compare the expected treatment information of the three randomization
designs at the teacher level.

A professional-development intervention is delivered to teachers, so the
teacher-level information depends on how treatment spreads across schools:
randomizing whole schools confounds the treatment contrast with the school
effects, randomizing within schools cancels them, and the completely
randomized design sits in between.
"""

import numpy as np

from multilevel_design import (
    DesignKind,
    StudyLayout,
    TeacherVarianceComponents,
    expected_teacher_information,
    treatment_variance,
)

layout = StudyLayout(a=16, m=8, n=200)

print(f"{layout.a} schools, {layout.m[0]} teachers each\n")
print(f"{'rho':>5} {'design':>20} {'information':>12} {'variance':>10} {'SE(diff)':>10}")
for rho in (0.1, 0.3):
    # fix the total variance at 16 and split it by the intraclass correlation
    vc = TeacherVarianceComponents(sigma_v2=16 * rho, sigma_eps2=16 * (1 - rho))
    for design in DesignKind:
        info = expected_teacher_information(design, layout, vc)
        variance = 1.0 / info
        se_diff = 2.0 * np.sqrt(variance)
        print(
            f"{rho:>5} {design.value:>20} {info:>12.4f} {variance:>10.4f} {se_diff:>10.3f}"
        )
    print()

print("Within-school randomization is always most informative for teachers;")
print("the gap to randomize-by-school widens as rho grows.")

# the same variance shows up as the (treatment, treatment) entry of the
# inverse information matrix
vc = TeacherVarianceComponents(1.6, 14.4)
info = expected_teacher_information(DesignKind.RANDOMIZE_SCHOOLS, layout, vc)
result = treatment_variance(np.diag([info, info]))
print(f"\nrandomize-schools anticipated variance {result.variance:.4f}, "
      f"difference-scale SE {result.se_diff:.3f}")
