#!/usr/bin/env python3
"""A sequence that returns to zero forever and still moves at speed 1/2.

Recurrent random walks have zero speed almost surely, and it is tempting to
read that as a fact about sequences.  It is not: the tent walk built here
rises and falls between return times tau_n = 2 * 3^n.  It is back at zero at
every tau_n, yet at the peak times t_n its height is exactly t_n / 2 -- the
ratio x_n / n keeps touching 1/2 no matter how far out you look.  Zero speed
for recurrent walks is genuinely a probabilistic phenomenon.
"""

from rangewalk import gen_zigzag, return_times

STEPS = 2 * 3**9  # a little under 40k

stream, plan = gen_zigzag(0.5, STEPS)
x = stream.path_array(STEPS)

print("tent walk with ell = 1/2")
print(f"{'n':>3} {'tau_n':>8} {'t_n':>8} {'x at t_n':>9} {'x/t at peak':>12}")
for n, (tau, t) in enumerate(zip(plan.tau, plan.t)):
    if tau > STEPS:
        break
    print(f"{n:3d} {tau:8d} {t:8d} {x[t]:9d} {x[t] / t:12.6f}")

rt = return_times(stream, STEPS)
print(f"\nzero visits up to {STEPS}: {rt.times}")
print("every scheduled return lands exactly on zero, and from n = 1 on the")
print("peak ratio is exactly 1/2 (the first excursion starts from time 0,")
print("so its ratio is 1).")

print("\nthe same recipe works for any target speed ell in (0, 1):")
for ell in (0.1, 0.3, 0.9):
    _, p = gen_zigzag(ell, 1000)
    best = max(float(p.peak_ratio(n)) for n in range(1, 21))
    print(f"  ell = {ell}: warm-up n0 = {p.n0}, first returns {p.tau[:4]}, "
          f"best peak ratio in 20 excursions = {best:.4f}")
