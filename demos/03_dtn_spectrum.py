"""Spectral check of the boundary map on a polygonal disk.

On the unit disk with unit coefficient, the voltage-to-current map sends the
angular mode e^{ik theta} to |k| e^{ik theta}.  The discrete map is the Schur
complement of the stiffness onto the boundary; its generalized eigenvalues
against the boundary mass matrix reproduce 0, 1, 1, 2, 2, ... to a fraction
of a percent, and the fractional boundary norm of mode k lands on
2 pi sqrt(1 + k^2).
"""

import numpy as np
import scipy.linalg as sla

import eitlab as el

mesh = el.generate_disk_mesh(1 / 64)
print(f"ring-triangulated disk: {mesh.n_nodes} nodes, "
      f"{len(mesh.boundary_nodes)} boundary nodes")

d = el.dtn_matrix(mesh, el.Admittivity([1.0]))
scale = np.abs(d.matrix).max()
print(f"complex symmetry defect: {np.abs(d.matrix - d.matrix.T).max() / scale:.2e}")
print(f"constants in the kernel: {np.abs(d.matrix @ np.ones(len(d.matrix))).max() / scale:.2e}")

w = np.sort(sla.eigh(d.matrix.real, d.mass, eigvals_only=True))
print("\nmode k | eigenvalue pair | relative error")
print(f"   0   | {w[0]:+.6f}")
for k in range(1, 9):
    pair = w[2 * k - 1: 2 * k + 1]
    rel = np.abs(pair - k).max() / k
    print(f"   {k}   | {pair[0]:.6f}, {pair[1]:.6f} | {rel:.2e}")

W = d.gram_half()
th = np.arctan2(mesh.nodes[mesh.boundary_nodes, 1], mesh.nodes[mesh.boundary_nodes, 0])
print("\nfractional boundary norm of e^{ik theta} vs 2 pi sqrt(1+k^2):")
for k in [0, 1, 2, 4, 8]:
    f = np.exp(1j * k * th)
    n2 = float(np.real(np.conj(f) @ (W @ f)))
    target = 2 * np.pi * np.sqrt(1 + k * k)
    print(f"  k={k}: {n2:9.4f} vs {target:9.4f}")
