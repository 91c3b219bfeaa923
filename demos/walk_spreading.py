"""Ballistic spreading of the walker on the guarded lattice.

Evolves a walker started at the origin and prints the position distribution
for a few step counts.  Two structural facts are visible: the support sits
inside the light cone {-t..t} with the parity of t (sites outside carry
exact zeros, so the cyclic boundary is never felt), and the standard
deviation grows linearly with t rather than like sqrt(t).
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import (
    Lattice,
    build_walk_unitary,
    evolve,
    joint_state,
    position_distribution,
)

import numpy as np

theta = np.pi / 4
# mirror-invariant input (sigma_x eigenstate): the spread comes out symmetric
ket = np.array([1.0, 1.0]) / np.sqrt(2)

for t in (2, 5, 10):
    lattice = Lattice.for_steps(t)
    psi = evolve(joint_state(lattice, ket), theta, t)
    dist = position_distribution(psi)
    sigma = np.sqrt(sum(p * x * x for x, p in dist.items())
                    - sum(p * x for x, p in dist.items()) ** 2)
    print(f"t={t:2d}  sites {min(dist):+d}..{max(dist):+d}  "
          f"sigma = {sigma:.3f}  ({sigma / t:.3f} per step)")
    line = "  "
    for x in range(-t, t + 1):
        p = dist.get(x, 0.0)
        line += f"{p:6.3f}" if p else "     ."
    print(line)

print("\nnorm after 10 steps:", np.linalg.norm(
    evolve(joint_state(Lattice.for_steps(10), ket), theta, 10)))

lattice = Lattice(9)
w = build_walk_unitary(theta, lattice)
residual = np.abs(w.conj().T @ w - np.eye(2 * lattice.size)).max()
print(f"one-step unitary on {lattice.size} sites, |W^dag W - 1|_max = {residual:.2e}")
