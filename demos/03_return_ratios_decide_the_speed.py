#!/usr/bin/env python3
"""The ratios of successive return times decide whether a walk can be fast.

Between two visits to zero a unit-step walk can reach at most half the gap,
so |x_n| / n is controlled by tau_k / tau_{k-1} - 1.  If the return-time
ratios converge to 1, the walk has zero speed -- deterministically, no
randomness needed.  Returns at the perfect squares do exactly that.  Returns
on a geometric schedule keep the ratio (and the speed) away from zero:
that is precisely how the fast recurrent tent of demo 02 works.
"""

import numpy as np

from rangewalk import check_excursion_bound, gen_tau_tent, ratio_series, return_times

HORIZON = 200_000

print("zeros at the perfect squares (tau_k = k^2):")
stream = gen_tau_tent("squares", HORIZON)
x = stream.path_array(HORIZON)
ratios = ratio_series(return_times(stream, HORIZON))
print(f"  first ratios : {np.round(ratios[:5], 4)}")
print(f"  last ratio   : {ratios[-1]:.6f}  (drifting to 1)")
for mark in (10**3, 10**4, 10**5):
    window = np.abs(x[mark:]) / np.arange(mark, HORIZON + 1)
    print(f"  max |x_n|/n for n >= {mark:>6}: {window.max():.6f}")

print("\nzeros on a geometric schedule (ratio pinned at 3):")
geo = gen_tau_tent("geometric:3", HORIZON)
xg = geo.path_array(HORIZON)
rg = ratio_series(return_times(geo, HORIZON))
peaks = np.abs(xg) / np.maximum(np.arange(HORIZON + 1), 1)
print(f"  ratios       : {np.round(rg[:6], 4)}")
print(f"  max |x_n|/n over the last half: {peaks[HORIZON // 2:].max():.4f}  (not going to 0)")

print("\nthe per-excursion bound |x_n| <= (tau_k - tau_{k-1}) / 2 holds for both:")
for name, gen in (("squares", stream), ("geometric:3", geo)):
    chk = check_excursion_bound(gen, HORIZON)
    print(f"  {name:12s}: {chk.n_excursions} excursions, violations: {chk.first_violation}")
