"""Closed-form fundamental solutions for uniform and two-phase media.

`laplace_gamma` is the free-space kernel normalized against the unit-sphere
surface area, so minus its Laplacian is the unit point mass.  The two-phase
kernel handles a medium with constant complex coefficient `gamma_plus` above
the hyperplane {x_n = 0} and `gamma_minus` below it, built by reflecting the
source across the interface.

The mirror coefficients are

    s = (gp - gm) / (gp * (gp + gm))        upper-side image weight
    t = (gm - gp) / (gm * (gp + gm))        lower-side image weight

with asymmetric denominators forced by requiring both the value and the flux
gp * du/dn (from above) = gm * du/dn (from below) to be continuous across the
interface; either way 1/gp + s = 1/gm + t = 2/(gp + gm), the coefficient seen
by a source on the far side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularPointError",
    "TwoPhaseCoeffs",
    "laplace_gamma",
    "laplace_gamma_grad",
    "two_phase_gamma",
    "two_phase_gamma_grad",
    "transmission_residual",
]


class SingularPointError(ValueError):
    """Kernel evaluated at its own source point."""


def _as_points(x, n: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[-1] != n:
        raise ValueError(f"expected points in dimension {n}, got shape {a.shape}")
    return a


def _check_dim(n: int) -> None:
    if n not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {n}")


def _norm(d: np.ndarray) -> np.ndarray:
    """|d| along the last axis (length 2 or 3), bitwise `np.linalg.norm`:
    the squares are added in the order of its `add.reduce`."""
    s = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    if d.shape[-1] == 3:
        s += d[..., 2] * d[..., 2]
    return np.sqrt(s)


def laplace_gamma(x, y, n: int = 2):
    """Free-space kernel: 1/(4 pi |x-y|) for n=3, -(1/2 pi) log|x-y| for n=2."""
    _check_dim(n)
    xs = _as_points(x, n)
    ys = np.asarray(y, dtype=float)
    r = _norm(xs - ys)
    if np.any(r == 0.0):
        raise SingularPointError("kernel evaluated at the source point")
    if n == 3:
        val = 1.0 / (4.0 * np.pi * r)
    else:
        val = -np.log(r) / (2.0 * np.pi)
    return val[0] if np.ndim(x) == 1 else val


def laplace_gamma_grad(x, y, n: int = 2):
    """Gradient in x of `laplace_gamma`."""
    _check_dim(n)
    xs = _as_points(x, n)
    ys = np.asarray(y, dtype=float)
    d = xs - ys
    r = _norm(d)
    if np.any(r == 0.0):
        raise SingularPointError("kernel gradient evaluated at the source point")
    if n == 3:
        g = -d / (4.0 * np.pi * r[..., None] ** 3)
    else:
        g = -d / (2.0 * np.pi * r[..., None] ** 2)
    return g[0] if np.ndim(x) == 1 else g


@dataclass(frozen=True)
class TwoPhaseCoeffs:
    """Complex coefficients of a flat-interface two-phase medium.

    gamma_plus rules the upper half-space {x_n > 0}, gamma_minus the lower.
    """

    gamma_plus: complex
    gamma_minus: complex

    def __post_init__(self):
        if self.gamma_plus + self.gamma_minus == 0:
            raise ValueError("coefficients must not sum to zero")
        if self.gamma_plus == 0 or self.gamma_minus == 0:
            raise ValueError("coefficients must be nonzero")

    @property
    def s(self) -> complex:
        gp, gm = self.gamma_plus, self.gamma_minus
        return (gp - gm) / (gp * (gp + gm))

    @property
    def t(self) -> complex:
        gp, gm = self.gamma_plus, self.gamma_minus
        return (gm - gp) / (gm * (gp + gm))

    @property
    def cross_coefficient(self) -> complex:
        """1/gamma_plus + s = 1/gamma_minus + t = 2/(gamma_plus + gamma_minus)."""
        return 2.0 / (self.gamma_plus + self.gamma_minus)


def _reflect(y: np.ndarray) -> np.ndarray:
    ystar = np.array(y, dtype=float)
    ystar[-1] = -ystar[-1]
    return ystar


def _two_phase_eval(x, y, c: TwoPhaseCoeffs, n: int, grad: bool, x_side=None):
    """Branch-wise evaluation; `x_side` overrides the sign of the last
    coordinate of x to take one-sided limits on the interface."""
    _check_dim(n)
    xs = _as_points(x, n)
    y = np.asarray(y, dtype=float)
    ystar = _reflect(y)

    sx = np.sign(xs[:, -1]) if x_side is None else np.full(len(xs), float(x_side))
    sy = np.sign(y[-1])
    # points exactly on the interface: both neighbouring branches agree there,
    # pick the side opposite the source so the cross formula applies
    sx = np.where(sx == 0.0, -sy if sy != 0.0 else 1.0, sx)
    if sy == 0.0:
        sy = 1.0

    ev = laplace_gamma_grad if grad else laplace_gamma
    direct = ev(xs, y, n)
    if c.gamma_plus == c.gamma_minus:
        # exact uniform reduction: every branch is kernel / gamma
        out = direct / c.gamma_plus
        return out[0] if np.ndim(x) == 1 else out
    same = sx * sy > 0
    if same.all():
        # one side of the interface, the source's: no masks, no copies
        g, image = (c.gamma_plus, c.s) if sy > 0 else (c.gamma_minus, c.t)
        out = (direct / g + image * ev(xs, ystar, n)).astype(complex, copy=False)
    elif not same.any():
        out = (c.cross_coefficient * direct).astype(complex, copy=False)
    else:
        out_shape = (len(xs), n) if grad else (len(xs),)
        out = np.zeros(out_shape, dtype=complex)

        cross = ~same
        upper = same & (sx > 0)
        lower = same & (sx < 0)
        if np.any(upper):
            refl = ev(xs[upper], ystar, n)
            out[upper] = direct[upper] / c.gamma_plus + c.s * refl
        if np.any(lower):
            refl = ev(xs[lower], ystar, n)
            out[lower] = direct[lower] / c.gamma_minus + c.t * refl
        if np.any(cross):
            out[cross] = c.cross_coefficient * direct[cross]
    return out[0] if np.ndim(x) == 1 else out


def two_phase_gamma(x, y, c: TwoPhaseCoeffs, n: int = 2):
    """Two-phase kernel value(s) at x for a source at y (both off {x_n=0},
    with points on the interface evaluated by the continuous extension)."""
    return _two_phase_eval(x, y, c, n, grad=False)


def two_phase_gamma_grad(x, y, c: TwoPhaseCoeffs, n: int = 2):
    """Gradient in x of the two-phase kernel, branch-wise."""
    return _two_phase_eval(x, y, c, n, grad=True)


def transmission_residual(c: TwoPhaseCoeffs, y, samples, n: int = 2):
    """Max value- and flux-jump of the kernel across the interface.

    `samples` are points on {x_n = 0} away from the source projection.  Both
    one-sided limits come from the analytic branch formulas, so for an exact
    kernel the jumps vanish to roundoff:

        value jump:  lim from above - lim from below
        flux jump:   gamma_plus * d/dn (above) - gamma_minus * d/dn (below)
    """
    _check_dim(n)
    pts = _as_points(samples, n)
    if np.any(np.abs(pts[:, -1]) > 0):
        raise ValueError("interface samples must satisfy x_n = 0")
    y = np.asarray(y, dtype=float)
    if y[-1] == 0.0:
        raise ValueError("source must lie off the interface")

    v_up = _two_phase_eval(pts, y, c, n, grad=False, x_side=+1.0)
    v_dn = _two_phase_eval(pts, y, c, n, grad=False, x_side=-1.0)
    g_up = _two_phase_eval(pts, y, c, n, grad=True, x_side=+1.0)
    g_dn = _two_phase_eval(pts, y, c, n, grad=True, x_side=-1.0)

    value_jump = float(np.max(np.abs(v_up - v_dn)))
    flux_jump = float(np.max(np.abs(c.gamma_plus * g_up[:, -1]
                                    - c.gamma_minus * g_dn[:, -1])))
    return value_jump, flux_jump
