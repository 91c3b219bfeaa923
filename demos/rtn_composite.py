"""Chaining random telegraph dephasing after the walk channel.

The telegraph kernel Lambda(t) is overdamped (positive, monotonically
decreasing) when a/gamma < 1/2 and oscillatory above.  Either way it only
scales coherences, so the trace-distance revivals of the underlying walk
channel survive: non-monotone behaviour under an overdamped ("Markovian")
dephaser is the walk's own memory showing through.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import RTNParams, nonmonotonicity, rtn_lambda, td_series

import numpy as np

gamma, dt = 1.0, 1.0
markovian = RTNParams(a=0.4 * gamma, gamma=gamma, dt=dt)
nonmarkovian = RTNParams(a=2.0 * gamma, gamma=gamma, dt=dt)

print("telegraph kernel Lambda(t):")
print("  gamma*t   a/gamma=0.4   a/gamma=2.0")
for gt in np.linspace(0.0, 8.0, 9):
    print(f"  {gt:7.2f}   {rtn_lambda(markovian, gt):11.6f}"
          f"   {rtn_lambda(nonmarkovian, gt):11.6f}")

theta, n_max = np.pi / 6, 20
bare = td_series(theta, n_max, mode="nstep")
over = td_series(theta, n_max, mode="composite", rtn=markovian)
under = td_series(theta, n_max, mode="composite", rtn=nonmarkovian)

print(f"\ntrace distance under the composite map, theta = pi/6:")
print("  n    no noise   overdamped   oscillatory")
for n, d0, dm, dn in zip(bare.steps, bare.values, over.values, under.values):
    print(f" {n:3d}   {d0:8.5f}   {dm:10.5f}   {dn:11.5f}")

print("\nbackflow witness (summed positive increments):")
for label, series in (("no noise", bare), ("overdamped RTN", over),
                      ("oscillatory RTN", under)):
    print(f"  {label:16s} {nonmonotonicity(series):.5f}")
print("\nthe overdamped dephaser cannot remove the revivals: the memory"
      "\nbelongs to the walk channel itself, not to the added noise.")
