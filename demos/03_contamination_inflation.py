"""How control-group contamination erodes the within-school design.

Control teachers who pick up the intervention from treated colleagues add a
third column to the analysis model.  Randomizing by school removes the risk
entirely; for within-school randomization the anticipated variance is
inflated by a closed-form factor at both response levels.
"""

import numpy as np

from multilevel_design import (
    BalancedSpec,
    StudentVarianceComponents,
    TeacherVarianceComponents,
    contaminated_expected_moment_matrix,
    student_inflation_design2,
    teacher_inflation_design2,
    teacher_precision,
)

teacher_vc = TeacherVarianceComponents(1.6, 14.4)
student_vc = StudentVarianceComponents(1.6, 14.4, 14.4)
spec = BalancedSpec(m=8, n=200, c=2, a=16)

print("variance inflation of the within-school design\n")
print(f"{'q':>5} {'teacher':>9} {'student':>9}")
for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9):
    t = teacher_inflation_design2(q, spec.m, teacher_vc)
    s = student_inflation_design2(q, spec, student_vc)
    print(f"{q:>5} {t:>9.4f} {s:>9.4f}")

print("\nAt q = 0.5 half the anticipated variance is added back; as q -> 1")
print("the contamination column becomes collinear with treatment and the")
print("effect is no longer estimable.")

# the factor comes from the expected moment matrix of [1 R C]
g = teacher_precision(8, teacher_vc)
e, entry = contaminated_expected_moment_matrix(g, 0.5)
print("\nexpected moment matrix at q = 0.5 (teacher level, one school):")
print(np.array_str(e, precision=4))
print(f"treatment entry of its inverse: {entry:.5f} per school")
print(f"uncontaminated value:           {1 / e[1, 1]:.5f} per school")
print(f"ratio = inflation factor:       {entry * e[1, 1]:.5f}")
