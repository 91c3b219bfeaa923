"""Walk through the reduced-coin operator extraction.

Extracts the operator sets of the first few walk steps, shows the structural
properties (completeness, minor symmetry, the pi/2 collapse), and checks the
expanded-operator route against the direct one.
"""

# the package first: imported before numpy, it loads OpenBLAS with one thread
from qwchannel import (
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
    minor_map,
)

import numpy as np

np.set_printoptions(precision=4, suppress=True, linewidth=100)

theta = np.pi / 6
print(f"coin angle theta = pi/6 = {theta:.6f}\n")

for t in (1, 2, 3):
    kset = extract_kraus_direct(theta, t)
    print(f"--- {t}-step walk: {len(kset.entries)} operators, "
          f"labels {kset.labels()}")
    for mu, matrix in kset.entries:
        print(f"K[{mu:+d}] =\n{matrix}")
    print(f"completeness residual: {kset.completeness_residual():.2e}")
    mirror = np.abs(kset.operator(-t) - minor_map(kset.operator(t))).max()
    print(f"minor symmetry K[-t] vs flipped K[+t]: {mirror:.2e}\n")

# two independent routes to the same operators
for t in (2, 5, 8):
    direct = extract_kraus_direct(theta, t)
    expanded = extract_kraus_binomial(theta, t)
    worst = max(np.abs(a - b).max()
                for (_, a), (_, b) in zip(direct.entries, expanded.entries))
    print(f"t={t}: direct vs binomial-expansion extraction, "
          f"max deviation {worst:.2e}")

# at theta = pi/2 the even-step channel collapses onto +-identity
kset = extract_kraus_direct(np.pi / 2, 4)
print("\ntheta = pi/2, t = 4:")
for mu, matrix in kset.entries:
    print(f"  |K[{mu:+d}]|_max = {np.abs(matrix).max():.2e}")

# one split step equals two standard steps; labels cover both parities
split = extract_kraus_split_step(theta, 1)
print(f"\nsplit-step n=1: labels {split.labels()}, "
      f"residual {split.completeness_residual():.2e}")
print(f"serialized form round-trips bit-exactly: "
      f"{split.to_json() == type(split).from_json(split.to_json()).to_json()}")
