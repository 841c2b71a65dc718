"""Pull individual log-series components out of a function by sampling.

Any positive analytic f with f(0)=1 factors as a product of components
exp(c_k x^k) where the c_k are the power-series coefficients of log f.
Restricting the quotient to index sets whose greatest element is k
isolates the k-th component; for cos, c_2 = -1/2, so the order-2
component is the gaussian exp(-x^2/2).
"""

import math

from geomprod import GmpConfig, IndexSet, component_estimate, cutoff_n_max
from geomprod.oracle import COS, log_series_components

r = 1.02
cfg = GmpConfig(r=r, n_max=cutoff_n_max(32, r), base=IndexSet.of(2, 4))

print(f"r = {r}, n_max = {cfg.n_max} (coupled so r^n_max ~ 32)")
print(f"{'x':>4} {'order-2 est':>12} {'exp(-x^2/2)':>12} {'abs err':>10}")
for x in (0.25, 0.5, 0.75, 1.0):
    comp = component_estimate(COS, 2, x, cfg)
    target = math.exp(-0.5 * x * x)
    print(f"{x:4.2f} {comp.value:12.6f} {target:12.6f} {abs(comp.value - target):10.2e}")

series = log_series_components(COS, 8)
print()
print("log-series coefficients of cos (independent series oracle):")
for k, c in enumerate(series.coefficients, start=1):
    if abs(c) > 1e-14:
        print(f"  c_{k} = {c:+.6f}")
