"""What the cross-validation bandwidth criterion looks like.

The bandwidth for the presmoothing step minimizes a leave-one-out
least-squares score for the kernel estimate of the conditional follow-up
distribution, evaluated at the observed event times.  This script prints
the criterion across the default grid and shows the effect of the cap: when
the covariate carries no information about the follow-up time, the selector
runs to the top of the grid and the cap keeps it at 2.

Run with:  python demos/03_bandwidth_selection.py
"""

import numpy as np

from smoothcure import Bandwidth, CovariateMeta, SurvivalDataset, cv_bandwidth, default_grid
from smoothcure import make_scenario, standardize_continuous
from smoothcure.kernels import cv_criterion
from smoothcure.simulate import generate

# --- informative covariate -------------------------------------------------
ds = standardize_continuous(generate(make_scenario("m1/s1/c1", n=200), seed=3))
grid = default_grid()
scores = [cv_criterion(ds, Bandwidth(np.array([h]))) for h in grid]
chosen = cv_bandwidth(ds)

print("informative covariate (incidence depends on x):")
lo = min(scores)
for h, s in zip(grid[::3], scores[::3]):
    bar = "#" * int(round(40 * (s - lo) / (max(scores) - lo)))
    print(f"  h={h:5.3f}  CV={s:9.3f}  {bar}")
print(f"selected bandwidth: {chosen.h[0]:.3f}\n")

# --- uninformative covariate ------------------------------------------------
rng = np.random.default_rng(0)
n = 200
y = rng.exponential(1.0, n)
delta = (rng.random(n) < 0.7).astype(int)
x = np.column_stack([np.ones(n), rng.normal(size=n)])  # independent of (y, delta)
meta = CovariateMeta(names=("noise",), discrete=(False,))
ds_noise = SurvivalDataset(y, delta, x, np.empty((n, 0)), meta)
ds_noise = standardize_continuous(ds_noise)
chosen_noise = cv_bandwidth(ds_noise)
print("uninformative covariate (independent of the follow-up):")
print(f"selected bandwidth: {chosen_noise.h[0]:.3f}  (the cap at 2 binds)")
