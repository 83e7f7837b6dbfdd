"""Coefficient gap vs data gap, and how depth degrades visibility.

Each sweep row compares two coefficient stacks: E is the largest coefficient
gap, eps the weighted norm of the boundary-data difference, and E/eps the
empirical stability ratio.  Measured with full-boundary data a mirror-
symmetric stack cannot order strips by depth, so the depth experiment uses
the local map on the bottom edge: the same perturbation moved one strip
deeper is seen an order of magnitude more weakly, which is the testable face
of stability constants growing with the chain length.
"""

import numpy as np

import eitlab as el
from eitlab.stability import stability_sweep

p = el.build_partition(3)
mesh = el.generate_mesh(p, 1 / 32)
base = el.Admittivity([1.0, 1.0, 1.0])
pairs = []
for k in range(3):
    vals = [1.0, 1.0, 1.0]
    vals[k] = 1.25
    pairs.append((base, el.Admittivity(vals)))

print("full-boundary data:")
print("  perturbed strip |   E   |   eps    |  E/eps")
for k, rec in enumerate(stability_sweep(pairs, mesh), start=1):
    print(f"        {k}        | {rec.E:.2f}  | {rec.eps:.6f} | {rec.ratio:8.3f}")

bottom = np.arange(mesh.grid.shape[1])     # the trace order starts with the bottom row
print("\nbottom-edge data only:")
print("  perturbed strip |   E   |   eps    |  E/eps")
for k, rec in enumerate(stability_sweep(pairs, mesh, arc=bottom), start=1):
    print(f"        {k}        | {rec.E:.2f}  | {rec.eps:.6f} | {rec.ratio:8.3f}")

print("\nidentical stacks for reference:")
rec = stability_sweep([(base, base)], mesh)[0]
print(f"  E = {rec.E}, eps = {rec.eps:.2e}")
