"""Memory of the walk channel, witnessed by trace-distance revivals.

Two orthogonal coin states are pushed through the channel two different
ways: with the single n-step map (the coin stays correlated with the
position register between steps) and by repeating the one-step map n times
(correlations discarded after every step).  Repetition decays geometrically
as |cos 2 theta|^n; the n-step family revives, which certifies that the
channel family is not divisible into positive intermediate maps.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import nonmonotonicity, td_series

import numpy as np

theta = np.pi / 6
n_max = 20

nstep = td_series(theta, n_max, mode="nstep")
concat = td_series(theta, n_max, mode="concat")
law = np.abs(np.cos(2 * theta)) ** np.arange(1, n_max + 1)

print(f"trace distance between the images of |0><0| and |1><1|, theta = pi/6\n")
print("  n    n-step map   repeated map   |cos 2theta|^n")
for n, d_n, d_c, d_law in zip(nstep.steps, nstep.values, concat.values, law):
    print(f" {n:3d}   {d_n:10.6f}   {d_c:12.6f}   {d_law:14.6f}")

print(f"\nsummed positive increments (backflow witness):")
print(f"  n-step family:   {nonmonotonicity(nstep):.6f}  -> memory")
print(f"  repeated family: {nonmonotonicity(concat):.6f}  -> memoryless decay")
print(f"\nrepeated-map law check, max |d - |cos 2theta|^n|: "
      f"{np.abs(np.asarray(concat.values) - law).max():.2e}")
