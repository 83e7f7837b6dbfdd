"""Depth scaling of the half-space probe integral in three dimensions.

Pairing the gradients of two singular solutions against the coefficient
difference over a half-ball, with the source a distance r below the
interface, produces a value that scales like 1/r as r shrinks: the blow-up
that lets boundary data pin down the coefficient jump on the far side of an
interface.  The integral is evaluated by a fixed two-panel Gauss-Legendre
rule on the actual two-phase kernels, in coordinates centred on the source.
"""

import numpy as np

from eitlab import TwoPhaseCoeffs
from eitlab.singular import half_space_probe_rate

c1 = TwoPhaseCoeffs(2.0 + 0.5j, 1.0)   # first medium: values across the interface
c2 = TwoPhaseCoeffs(1.5, 1.0)          # second medium
jump = c1.gamma_plus - c2.gamma_plus   # coefficient gap on the probed side

rho0 = 0.25
radii = [rho0 * 2.0 ** (-j) for j in range(3, 8)]
print("probing the upper half-ball of radius", rho0)
rr, vals, slope = half_space_probe_rate(c1, c2, jump, radii, rho0)

print("\n  depth r        |S(r)|       r * |S(r)|")
for r, v in zip(rr, vals):
    print(f"  {r:.6f}    {abs(v):9.4f}    {r * abs(v):.6f}")
print(f"\nlog-log slope: {slope:.4f}  (1/r law gives -1)")
