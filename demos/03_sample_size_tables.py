"""How many draws does the guarantee cost, and how close is that to optimal?

The total draw count of the scheme sits within a modest constant of the
information lower bound that no estimator can beat; both scale as
c^2 ln(1/delta) / epsilon^2.  The table prints the two side by side.
"""

from relmean import ApproxSpec, build_plan, lower_bound_samples, theorem1_total

print(f"{'epsilon':>8} {'delta':>8} {'c':>5} | {'total':>9} {'lower bnd':>10} {'ratio':>6}")
print("-" * 55)
for eps in [0.2, 0.1, 0.05, 0.01]:
    for delta in [0.1, 0.01, 1e-4]:
        for c in [0.5, 1.0, 2.0]:
            spec = ApproxSpec(eps, delta, c)
            total = theorem1_total(spec)
            lower = lower_bound_samples(spec)
            print(f"{eps:8.2f} {delta:8.0e} {c:5.1f} | {total:9d} {lower:10.1f} {total / lower:6.2f}")

print()
spec = ApproxSpec(0.1, 0.05, 1.0)
plan = build_plan(spec)
print(f"Anatomy at (0.1, 0.05, c=1), strict budgeting:")
print(f"  stage 1: {plan.m} groups of {plan.k} draws, each located to within {plan.epsilon1:.4f}")
print(f"  stage 2: {plan.n} truncated draws")
print(f"  headline total (full-delta stage 1): {theorem1_total(spec)}")
