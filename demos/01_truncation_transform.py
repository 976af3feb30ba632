"""A look at the truncation transform that powers the second stage.

The transform behaves like the identity for small deviations and flattens
to a logarithm in the tails, so one wild draw can only nudge the average.
Its two envelopes bracket it everywhere; the exponential moment of the
upper envelope is a plain quadratic, which is what makes the draw counts
computable in closed form.
"""

import numpy as np

from relmean import psi, psi_lower, psi_upper, scaled_psi

grid = np.array([-10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0, 100.0])

print("deviation   lower      psi        upper      (identity would be u)")
for u, low, mid, high in zip(grid, psi_lower(grid), psi(grid), psi_upper(grid)):
    print(f"{u:9.2f}  {low:9.4f}  {mid:9.4f}  {high:9.4f}")

print()
print("The scale alpha controls where damping begins: psi(alpha*u)/alpha")
for alpha in [0.01, 0.1, 1.0]:
    row = ", ".join(f"{scaled_psi(alpha, u):8.3f}" for u in [1.0, 10.0, 100.0])
    print(f"  alpha={alpha:5.2f}: transformed(1, 10, 100) = {row}")

print()
print("A fat single outlier barely moves a truncated average:")
draws = np.array([1.0] * 99 + [1e6])
alpha = 0.05
centre = 1.0
truncated = centre + scaled_psi(alpha, draws - centre)
print(f"  raw mean        = {draws.mean():12.2f}")
print(f"  truncated mean  = {truncated.mean():12.4f}")
