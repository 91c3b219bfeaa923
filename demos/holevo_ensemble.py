"""Maximized Holevo quantity of the walk channel for a two-state ensemble.

The ensemble mixes rho_1 = diag(1/4, 3/4) with rho_2, a 1/6 : 5/6 mixture of
the +-x projectors.  For every coin angle the Holevo quantity is maximized
over the binary weight p_1, at the root of its derivative in p_1 (bisection).
All 32 x 8 channels come from one walk and are maximized together, as
``qwchannel holevo`` does.  Averaged over angles, odd step counts retain
visibly less information than their even neighbours.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import (
    channel_outputs,
    density_matrix,
    holevo_max,
    holevo_max_batch,
)

import numpy as np

rho1 = np.diag([0.25, 0.75]).astype(complex)
plus = np.array([1.0, 1.0]) / np.sqrt(2)
minus = np.array([1.0, -1.0]) / np.sqrt(2)
rho2 = density_matrix(plus) / 6 + 5 * density_matrix(minus) / 6

thetas = np.linspace(0.0, np.pi, 32)
# outputs[angle, step, input]: the images of rho1 and rho2
outputs = channel_outputs(thetas, range(1, 9), np.array([rho1, rho2]))
chi, _ = holevo_max_batch(outputs[:, :, 0], outputs[:, :, 1])
means = {step: float(np.mean(chi[:, step - 1])) for step in range(1, 9)}
print("chi_max averaged over a 32-point theta grid:")
for step, mean in means.items():
    print(f"  t={step}: {mean:.4f}  {'#' * round(400 * mean)}")

odd = np.mean([means[t] for t in (1, 3, 5, 7)])
even = np.mean([means[t] for t in (2, 4, 6, 8)])
print(f"\nmean over odd steps:  {odd:.4f}")
print(f"mean over even steps: {even:.4f}")
print("odd-step outputs carry less recoverable information than even ones.")

chi, p_star = holevo_max(rho1, rho2, lambda rho: rho)
print(f"\nidentity-channel baseline: chi_max = {chi:.4f} at p1 = {p_star:.4f}")
print("(the theta = pi/2 channel reproduces this exactly at even steps)")
