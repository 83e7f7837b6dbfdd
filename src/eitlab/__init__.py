"""Desk-scale laboratory for complex-admittivity impedance tomography.

The library builds strip-partitioned rectangles with flat interfaces, solves
the complex conductivity equation with P1 elements, assembles discrete
Dirichlet-to-Neumann maps with fractional boundary norms, constructs singular
solutions with prescribed point sources, and runs the quantitative stability
toolbox (probe integrals, log-modulus calculus, three-sphere checks,
sensitivity analysis, and Gauss-Newton reconstruction) on top of them.
"""

__version__ = "0.1.0"

from .geometry import (
    GeometryError,
    Interface,
    InvalidSpecError,
    Mesh,
    Partition,
    Rect,
    Region,
    TooCoarseError,
    build_partition,
    generate_disk_mesh,
    generate_mesh,
    mesh_hash,
    read_mesh,
    write_mesh,
)
from .fundsol import (
    SingularPointError,
    TwoPhaseCoeffs,
    laplace_gamma,
    laplace_gamma_grad,
    transmission_residual,
    two_phase_gamma,
    two_phase_gamma_grad,
)
from .forward import (
    Admittivity,
    EllipticityError,
    FieldSolution,
    SolverError,
    assemble,
    boundary_trace,
    caccioppoli_ratio,
    field_from_function,
    solve_dirichlet,
    solve_real_system,
)
from .dtn import (
    DtNMap,
    apply_dtn,
    boundary_operators,
    dtn_matrix,
    h_half_gram,
    operator_norm,
)
from .singular import (
    CorrectorSolver,
    MeshMismatchError,
    PlacementError,
    SingularSolution,
    alessandrini_pair,
    asymptotics_check,
    green_correction,
    half_space_probe_integral,
    half_space_probe_rate,
    probe_field_residual,
    s_k_evaluate,
    s_k_on_grid,
)
from .stability import (
    TAU,
    ConstantBound,
    ConstantTracker,
    DeltaRecursion,
    ReconstructionResult,
    SensitivityResult,
    SweepRecord,
    TowerFloat,
    constant_bound,
    delta_recursion,
    gauss_newton_reconstruct,
    omega,
    omega_inverse,
    omega_inverse_log,
    omega_iterate,
    perturb_dtn,
    random_harmonic_polynomial,
    sensitivity_jacobian,
    stability_sweep,
    three_sphere_check,
    worst_case_perturbation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
