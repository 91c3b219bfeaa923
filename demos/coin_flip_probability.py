"""Probability of the upper coin state as a function of the coin angle.

Sweeps p_t(theta) for the first eight steps with the walker started in |0>.
The even/odd asymmetry is sharpest at theta = pi/2, where even step counts
return the coin with certainty and odd ones flip it with certainty.  The
first three columns are cross-checked against the closed-form expressions.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import closed_form_p, density_matrix, n_step_map

import numpy as np

RHO_UP = density_matrix(np.array([1.0, 0.0]))

steps = range(1, 9)
print("p_t(theta) for input |0>")
print("theta/pi " + "".join(f"     t={t}" for t in steps))
for frac in np.linspace(0.0, 1.0, 9):
    theta = frac * np.pi
    row = [n_step_map(theta, t, RHO_UP)[0, 0].real for t in steps]
    print(f"  {frac:5.3f}  " + "".join(f"  {p:6.4f}" for p in row))

print("\nclosed forms agree with the channel for t <= 3:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    theta = rng.uniform(0, 2 * np.pi)
    for t in (1, 2, 3):
        channel = n_step_map(theta, t, RHO_UP)[0, 0].real
        worst = max(worst, abs(channel - closed_form_p(theta, t, 1.0, 0.0)))
print(f"  max deviation over 200 random angles: {worst:.2e}")

print("\nat theta = pi/2 (coin = -i sigma_x):")
for t in steps:
    p = n_step_map(np.pi / 2, t, RHO_UP)[0, 0].real
    print(f"  t={t}: p = {p:.3g}" + ("   (even -> certainty)" if t % 2 == 0 else ""))
