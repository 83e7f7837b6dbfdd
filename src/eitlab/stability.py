"""Quantitative stability toolbox: the log-modulus calculus, chained bound
recursion, three-sphere checks, DtN sensitivity, and Gauss-Newton inversion.

The modulus omega(t) = |log t|^(-(n-2)/4) (capped at its value in t = e^-n)
measures how much information survives one interface crossing; composing it
M times and inverting produces stability constants of size exp(exp(...)),
which is why all constant arithmetic here runs on an iterated-exponential
representation rather than raw floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dtn import _gram_and_chol, _sweep_maps, _whiten
from .forward import Admittivity, assemble
from .geometry import Mesh

__all__ = [
    "TAU",
    "omega",
    "omega_inverse",
    "omega_inverse_log",
    "omega_iterate",
    "DeltaRecursion",
    "delta_recursion",
    "TowerFloat",
    "ConstantTracker",
    "ConstantBound",
    "constant_bound",
    "three_sphere_check",
    "random_harmonic_polynomial",
    "SensitivityResult",
    "sensitivity_jacobian",
    "ReconstructionResult",
    "gauss_newton_reconstruct",
    "perturb_dtn",
    "worst_case_perturbation",
    "SweepRecord",
    "stability_sweep",
]

TAU = math.log(4.0 / 3.0) / math.log(4.0)


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"modulus requires dimension n >= 3 (n=2 is degenerate), got {n}")


def omega(t, n: int = 3):
    """Two-branch modulus: |log t|^(-(n-2)/4) for t <= e^-n, capped above."""
    _check_dim(n)
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("modulus argument must be positive")
    p = (n - 2) / 4.0
    cap = float(n) ** (-p)
    small = arr < math.exp(-n)
    safe = np.where(small, arr, 0.5)
    out = np.where(small, np.abs(np.log(safe)) ** (-p), cap)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def omega_inverse(y, n: int = 3):
    """Inverse on the strictly increasing branch: exp(-y^(-4/(n-2))).

    Underflows to 0.0 for y below roughly 0.19 (n=3); use
    `omega_inverse_log` when the result itself is the quantity of interest.
    """
    return math.exp(omega_inverse_log(y, n))


def omega_inverse_log(y, n: int = 3) -> float:
    _check_dim(n)
    y = float(y)
    cap = float(n) ** (-(n - 2) / 4.0)
    if not 0.0 < y < cap:
        raise ValueError(f"inverse defined on (0, {cap}), got {y}")
    return -y ** (-4.0 / (n - 2))


def omega_iterate(t, k: int, n: int = 3):
    """k-fold self-composition of the modulus."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    out = float(t)
    for _ in range(k):
        out = omega(out, n)
    return out


@dataclass(frozen=True)
class DeltaRecursion:
    """Per-link bound sequence of the chained stability recursion."""

    deltas: tuple          # per-link coefficient bounds, delta_0 = 0
    bounds: tuple          # delta_k + eps in worst-case equality form
    final_bound: float     # last entry of `bounds`
    closed_form: float     # (C+1)^M (E+eps) omega_M(eps/(eps+E))


def delta_recursion(eps: float, E: float, C: float, M: int, n: int = 3) -> DeltaRecursion:
    """Iterate the one-link degradation bound with equality, M links deep.

    One link replaces the normalized data ratio t by omega(t) and the
    amplitude by (C+1) times itself, starting from t_0 = eps/(eps+E) and
    amplitude eps+E; the resulting bound sequence is
    b_k = (C+1)^k (E+eps) omega_k(t_0), reported together with its closed
    form for the cross-check b_M == closed form.
    """
    if eps < 0 or E < 0 or C <= 0 or M < 0:
        raise ValueError("need eps, E >= 0, C > 0, M >= 0")
    if eps == 0.0 and E == 0.0:
        zeros = tuple(0.0 for _ in range(M + 1))
        return DeltaRecursion(zeros, zeros, 0.0, 0.0)

    t = eps / (eps + E)
    amp = eps + E
    bounds = [amp * t]
    for _ in range(M):
        t = omega(t, n) if t > 0.0 else 0.0
        amp *= (C + 1.0)
        bounds.append(amp * t)
    t0 = eps / (eps + E)
    closed = (C + 1.0) ** M * (E + eps) * (omega_iterate(t0, M, n) if t0 > 0 else 0.0)
    deltas = tuple(max(b - eps, 0.0) for b in bounds)
    return DeltaRecursion(deltas, tuple(bounds), bounds[-1], closed)


_CAP = 700.0
_LOG_CAP = math.log(_CAP)


@dataclass(frozen=True)
class TowerFloat:
    """Number exp(exp(...exp(value))) with `depth` nested exponentials.

    Canonical form keeps depth 0 for plainly representable values and
    otherwise value in (log 700, 700], which makes the (depth, value) order
    the number order.  Only the operations needed by the constant tracker
    are provided.
    """

    depth: int
    value: float

    @staticmethod
    def from_float(x: float) -> "TowerFloat":
        return TowerFloat(0, float(x))._canonical()

    def _canonical(self) -> "TowerFloat":
        d, v = self.depth, self.value
        while d > 0 and v <= _LOG_CAP:
            v = math.exp(v)
            d -= 1
        while v > _CAP:
            v = math.log(v)
            d += 1
        return TowerFloat(d, v) if (d, v) != (self.depth, self.value) else self

    def ln(self) -> "TowerFloat":
        c = self._canonical()
        if c.depth >= 1:
            return TowerFloat(c.depth - 1, c.value)._canonical()
        if c.value <= 0:
            raise ValueError("log of a nonpositive tower value")
        return TowerFloat(0, math.log(c.value))

    def exp(self) -> "TowerFloat":
        c = self._canonical()
        return TowerFloat(c.depth + 1, c.value)._canonical()

    def add_float(self, s: float) -> "TowerFloat":
        c = self._canonical()
        if c.depth == 0:
            return TowerFloat.from_float(c.value + s)
        if c.depth == 1:                 # exp(v) still a float (v <= 700)
            return TowerFloat.from_float(math.exp(c.value) + s)
        return c   # additive term vanishes at this magnitude

    def mul(self, a: float) -> "TowerFloat":
        if a <= 0:
            raise ValueError("tower values are positive; factor must be > 0")
        c = self._canonical()
        if c.depth == 0:
            return TowerFloat.from_float(c.value * a)
        return c.ln().add_float(math.log(a)).exp()

    def to_float(self) -> float:
        c = self._canonical()
        if c.depth == 0:
            return c.value
        if c.depth == 1:                 # canonical keeps value <= 700
            return math.exp(c.value)
        return math.inf

    def _key(self):
        c = self._canonical()
        return (c.depth, c.value)

    def __lt__(self, other: "TowerFloat") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:
        c = self._canonical()
        if c.depth == 0:
            return f"{c.value!r}"
        return f"exp^{c.depth}({c.value!r})"


@dataclass(frozen=True)
class ConstantTracker:
    """A priori data of the stability-constant calculus: the dimension n of
    the modulus and the base constant C of one interface crossing."""

    n: int = 3
    c_base: float = 1.0

    def __post_init__(self):
        _check_dim(self.n)
        if self.c_base <= 0:
            raise ValueError("base constant must be positive")


@dataclass(frozen=True)
class ConstantBound:
    """Stability constant for an N-region chain, held in log10 form."""

    n_regions: int
    log10: TowerFloat

    @property
    def linear(self) -> float:
        return math.pow(10.0, self.log10.to_float()) if self.log10.to_float() < 308 \
            else math.inf

    def __repr__(self) -> str:
        return f"ConstantBound(N={self.n_regions}, log10={self.log10!r})"


def constant_bound(N: int, tracker: ConstantTracker) -> ConstantBound:
    """Theoretical constant 1 / (2 omega_N^{-1}(1/(2(C+1)^N))) in log space.

    With L_j = -log of the j-th inverse iterate, one inversion maps
    L_j = exp(4/(n-2) * L_{j-1}); the result is an exponential tower of
    height N and is returned as a TowerFloat of its log10.
    """
    if N < 1:
        raise ValueError("region count must be at least 1")
    C = tracker.c_base
    n = tracker.n
    L0 = math.log(2.0) + N * math.log(C + 1.0)
    try:
        cap_log = -((n - 2) / 4.0) * math.log(n)
    except OverflowError:    # n beyond the float range: the cap n^(-(n-2)/4) is 0
        cap_log = -math.inf
    if -L0 >= cap_log:
        raise ValueError(
            "starting value 1/(2(C+1)^N) is outside the invertible branch")
    p = 4.0 / (n - 2)
    L = TowerFloat.from_float(L0)
    for step in range(N):
        if L.depth >= 3:    # mul leaves such a tower as it is, so each step adds a level
            L = TowerFloat(L.depth + N - step, L.value)
            break
        L = L.mul(p).exp()
    ln_bound = L.add_float(-math.log(2.0))
    return ConstantBound(N, ln_bound.mul(1.0 / math.log(10.0)))


_N_ANGLES = 2048     # sample points per circle in `three_sphere_check`


def three_sphere_check(u, center, r: float):
    """Empirical three-sphere constant of a harmonic sample field.

    Returns sup|u| on the middle sphere divided by the tau-weighted product
    of the inner and outer sups (radii r, 3r, 4r); None when u vanishes.
    For pure angular monomials the ratio is exactly 1 because 4^(1-tau) = 3.
    """
    cx, cy = float(center[0]), float(center[1])
    th = 2 * np.pi * np.arange(_N_ANGLES) / _N_ANGLES
    cos, sin = np.cos(th), np.sin(th)

    def sup_on(rad: float) -> float:
        vals = u(cx + rad * cos, cy + rad * sin)
        return float(np.abs(vals).max())

    s1, s3, s4 = sup_on(r), sup_on(3 * r), sup_on(4 * r)
    if s4 == 0.0:
        return None
    return s3 / (s1 ** TAU * s4 ** (1.0 - TAU))


def random_harmonic_polynomial(rng: np.random.Generator, max_degree: int,
                               center=(0.0, 0.0)):
    """Random combination of harmonic monomials r^m cos/sin(m theta)."""
    a = rng.standard_normal(max_degree + 1)
    b = rng.standard_normal(max_degree + 1)
    cx, cy = center

    def u(x, y):
        z = (np.asarray(x) - cx) + 1j * (np.asarray(y) - cy)
        out = np.full(np.shape(z), a[0], dtype=float)
        zp = np.ones_like(z)
        for m in range(1, max_degree + 1):
            zp = zp * z
            out = out + a[m] * zp.real + b[m] * zp.imag
        return out

    return u


# --- DtN sensitivity and reconstruction -------------------------------------

def _phi(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Complex coordinate vector of Z in the mode-averaged weighted metric.

    The whitened matrix is divided by sqrt(n_boundary): the raw Frobenius
    norm of a whitened DtN block grows like the square root of the mode
    count under refinement (its whitened singular values are O(1) per
    mode), so only the per-mode RMS gives h-stable sensitivities and
    misfits on the scale of the operator norm.
    """
    return _whiten(L, Z).ravel() / math.sqrt(Z.shape[0])


def _jacobian(L: np.ndarray, cols) -> np.ndarray:
    """Weighted complex Jacobian, one column per strip value."""
    return np.column_stack([_phi(L, Mj) for Mj in cols])


@dataclass
class SensitivityResult:
    dtn: np.ndarray          # Lam at the linearization point
    columns: list            # d Lam / d gamma_j, complex symmetric, unweighted
    jacobian: np.ndarray     # complex (nb^2, N) in the weighted metric
    sigma_min: float
    sigma_max: float
    gram_half: np.ndarray
    chol: np.ndarray


def sensitivity_jacobian(mesh: Mesh, adm: Admittivity) -> SensitivityResult:
    """Exact Jacobian of the coefficient-to-DtN map in the weighted metric.

    The stiffness is complex-linear in every strip value, so the map from
    strip values to DtN matrices is holomorphic and its derivative has one
    complex column per strip: the boundary reduction of that strip's real
    stiffness through the current harmonic lifting.  The smallest singular
    value is the reciprocal of the local Lipschitz constant of the
    finite-dimensional inverse problem.
    """
    gram_half, L = _gram_and_chol(mesh)
    system = assemble(mesh, adm)
    lam = system.schur()
    cols = system.derivatives()
    J = _jacobian(L, cols)
    import scipy.linalg as sla
    sv = sla.svdvals(J)
    if sv[-1] <= 0 or not np.isfinite(sv[-1]):
        raise RuntimeError(
            "rank-deficient sensitivity: discretization too coarse to "
            "separate the strip values")
    return SensitivityResult(dtn=lam, columns=cols, jacobian=J, sigma_min=float(sv[-1]),
                             sigma_max=float(sv[0]), gram_half=gram_half, chol=L)


def _project_admissible(vals: np.ndarray, lam: float) -> np.ndarray:
    """Nearest points of the admissible set Re g >= 1/lam, |g| <= lam.

    The real part is clamped; a point that this leaves outside the disk goes
    to the arc, radially when that lands in the half-plane and to the nearer
    corner otherwise.  The arc is drawn 4 ulps inside radius lam, because
    rounding can carry a point of the circle past lam and `Admittivity`
    rejects it there.
    """
    z = np.array(vals, dtype=complex)
    out = z.copy()
    out.real = np.maximum(z.real, 1.0 / lam)
    over = np.abs(out) > lam
    rim = lam * (1.0 - 4.0 * np.finfo(float).eps)
    radial = rim * z[over] / np.abs(z[over])
    height = math.sqrt(max(rim ** 2 - lam ** -2, 0.0))
    corner = 1.0 / lam + 1j * np.sign(z[over].imag) * height
    out[over] = np.where(radial.real >= 1.0 / lam, radial, corner)
    return out


@dataclass
class ReconstructionResult:
    admittivity: Admittivity
    history: list            # rows (iteration, misfit, err_inf or nan)
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.history) - 1


def gauss_newton_reconstruct(target, mesh: Mesh, guess: Admittivity,
                             max_iter: int = 30, tol: float = 1e-12,
                             truth: Admittivity | None = None) -> ReconstructionResult:
    """Recover strip values by Gauss-Newton on the weighted DtN misfit.

    `target` is a DtN matrix generated on the same mesh; the misfit is the
    Frobenius norm of the whitened difference, the step solves the
    linearized complex least-squares problem with the exact Jacobian, and
    every iterate is projected back onto the admissible set.  A misfit beyond
    floats ends the run, last in the history.
    """
    target_mat = np.asarray(target)
    if not np.isfinite(target_mat).all():
        raise ValueError("target DtN map is not finite")
    _, L = _gram_and_chol(mesh)

    lam_bound = guess.lam
    gam = _project_admissible(np.array(guess.values, dtype=complex), lam_bound)
    history = []
    converged = False
    for it in range(max_iter + 1):
        adm_it = Admittivity(tuple(gam), lam=lam_bound)
        system = assemble(mesh, adm_it)
        rvec = _phi(L, system.schur() - target_mat)
        with np.errstate(over="ignore"):        # a misfit beyond floats ends the run
            misfit = float(np.linalg.norm(rvec))
        err = float(adm_it.max_jump(truth)) if truth is not None else math.nan
        history.append((it, misfit, err))
        if misfit <= tol:
            converged = True
            break
        if it == max_iter or not math.isfinite(misfit):
            break
        # only an iterate that steps forms its derivative columns
        dgam, *_ = np.linalg.lstsq(_jacobian(L, system.derivatives()), -rvec, rcond=None)
        gam = _project_admissible(gam + dgam, lam_bound)
        if np.abs(dgam).max() < 1e-15 * max(np.abs(gam).max(), 1.0):
            break
    return ReconstructionResult(admittivity=Admittivity(tuple(gam), lam=lam_bound),
                                history=history, converged=converged)


def perturb_dtn(matrix: np.ndarray, gram_half: np.ndarray, eta: float,
                rng: np.random.Generator) -> np.ndarray:
    """Additive complex-symmetric noise of weighted Frobenius size eta."""
    n = matrix.shape[0]
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = 0.5 * (G + G.T)
    import scipy.linalg as sla
    L = sla.cholesky(gram_half, lower=True)
    scale = np.linalg.norm(_phi(L, S))
    return matrix + (eta / scale) * S


def worst_case_perturbation(sens: SensitivityResult) -> np.ndarray:
    """Unit-size symmetric DtN perturbation along the least-sensitive mode.

    Random full-matrix noise is almost orthogonal to the low-dimensional
    range of the sensitivity Jacobian, so it probes nothing; the linearized
    worst case is the left singular direction of the smallest singular
    value, whose whitened unvec is complex symmetric by construction.
    Scaling it by eta produces a parameter error of about eta / sigma_min.
    """
    L = sens.chol
    U = np.linalg.svd(sens.jacobian, full_matrices=False)[0]
    Zw = U[:, -1].reshape(L.shape)
    Zw = 0.5 * (Zw + Zw.T)
    S = L @ Zw @ L.T
    return S / np.linalg.norm(_phi(L, S))


@dataclass(frozen=True)
class SweepRecord:
    """One admittivity pair: coefficient gap E, data gap eps, their ratio."""

    E: float
    eps: float
    ratio: float
    h: float


def stability_sweep(pairs, mesh: Mesh, threads: int = 1,
                    arc=None) -> list[SweepRecord]:
    """E and eps for each admittivity pair over one shared mesh.

    With `arc` (contiguous boundary positions) the data gap eps is measured
    through the local DtN on that arc.  Depth experiments need this: the
    full map of a mirror-symmetric strip stack cannot order strips by depth,
    while bottom-edge data sees deeper strips exponentially more weakly.
    On the bottom row of a mesh with a node grid each map is its sine-mode
    values, all formed in one stacked pass with no worker pool, and eps
    needs no dense matrix (`dtn._sweep_maps`).  Any other arc or mesh builds
    one dense map per unique admittivity on a pool of `threads` workers.
    """
    build, norm = _sweep_maps(mesh, arc, threads)
    uniq = {a.values: a for pair in pairs for a in pair}
    maps = dict(zip(uniq, build(uniq.values())))

    out = []
    for a1, a2 in pairs:
        E = a1.max_jump(a2)
        eps = norm(maps[a1.values] - maps[a2.values])
        ratio = E / eps if eps > 0 else math.nan
        out.append(SweepRecord(E, eps, ratio, mesh.h))
    return out
