"""Purity of the channel output across coin angle and input state.

Inputs are cos(delta/2)|0> + sin(delta/2)|1>.  Basis-aligned inputs
(delta = 0 or pi) leave the channel output pure at theta in {0, pi/2, pi};
superposition inputs do not share that property at theta = 0, where the
channel acts as a perfect dephaser and the output purity drops to
1 - 2 p (1-p) < 1.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import (
    coin_state_from_angle,
    density_matrix,
    mixedness,
    n_step_map,
    purity,
)

import numpy as np

steps = (1, 2, 3, 4)
thetas = np.linspace(0.0, np.pi, 9)

for delta in (0.0, np.pi / 4):
    rho_in = density_matrix(coin_state_from_angle(delta))
    print(f"--- input delta = {delta/np.pi:.2f} pi")
    print("theta/pi " + "".join(f"     t={t}" for t in steps))
    for theta in thetas:
        row = [purity(n_step_map(theta, t, rho_in)) for t in steps]
        print(f"  {theta/np.pi:5.3f}  " + "".join(f"  {p:6.4f}" for p in row))
    print()

rho_in = density_matrix(coin_state_from_angle(np.pi / 4))
out = n_step_map(0.0, 1, rho_in)
print("delta = pi/4 at theta = 0 (dephasing point):")
print(f"  purity   = {purity(out):.6f}  (< 1: coherence of the input is erased)")
print(f"  mixedness = {mixedness(out):.6f}  (= 2(1 - purity))")
