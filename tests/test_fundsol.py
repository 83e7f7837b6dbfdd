import numpy as np
import pytest

import eitlab as el
from eitlab.fundsol import (SingularPointError, TwoPhaseCoeffs, _two_phase_eval,
                            laplace_gamma, laplace_gamma_grad, transmission_residual,
                            two_phase_gamma, two_phase_gamma_grad)


def test_laplace_values():
    assert laplace_gamma((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), n=3) == pytest.approx(1 / (4 * np.pi))
    assert laplace_gamma((1.0, 0.0), (0.0, 0.0), n=2) == 0.0
    with pytest.raises(SingularPointError):
        laplace_gamma((0.5, 0.5), (0.5, 0.5), n=2)


def test_laplace_rotational_symmetry(rng):
    y = np.array([0.3, -0.2])
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.1, 3.0)
        x1 = y + r * np.array([np.cos(th), np.sin(th)])
        x2 = y + r * np.array([1.0, 0.0])
        assert laplace_gamma(x1, y, n=2) == pytest.approx(laplace_gamma(x2, y, n=2))


@pytest.mark.parametrize("n", [2, 3])
def test_laplace_gradient_matches_fd(n, rng):
    y = np.zeros(n)
    x = np.array([0.4, -0.7, 0.3][:n])
    g = laplace_gamma_grad(x, y, n=n)
    h = 1e-6
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        fd = (laplace_gamma(x + e, y, n=n) - laplace_gamma(x - e, y, n=n)) / (2 * h)
        assert g[d] == pytest.approx(fd, rel=1e-6)


def test_mirror_coefficients_real_pair():
    c = TwoPhaseCoeffs(2.0, 1.0)
    assert c.s == pytest.approx(1 / 6)
    assert 1 / c.gamma_plus + c.s == pytest.approx(2 / 3)
    assert c.cross_coefficient == pytest.approx(2 / (2.0 + 1.0))


def test_mirror_coefficients_complex_pair():
    c = TwoPhaseCoeffs(1 + 1j, 1.0)
    assert c.s == pytest.approx(0.3 + 0.1j)


def test_coefficient_identity_random(rng):
    for _ in range(50):
        gp = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
        gm = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
        c = TwoPhaseCoeffs(gp, gm)
        target = 2.0 / (gp + gm)
        assert 1 / gp + c.s == pytest.approx(target, rel=1e-14)
        assert 1 / gm + c.t == pytest.approx(target, rel=1e-14)


def test_degenerate_coefficients_rejected():
    with pytest.raises(ValueError):
        TwoPhaseCoeffs(1.0, -1.0)
    with pytest.raises(ValueError):
        TwoPhaseCoeffs(0.0, 1.0)


def test_uniform_reduction():
    # gamma == delta collapses every branch to (1/gamma) * kernel
    c = TwoPhaseCoeffs(2.0 + 1.0j, 2.0 + 1.0j)
    assert c.s == 0 and c.t == 0
    y = np.array([0.2, 0.5])
    pts = np.array([[0.1, 0.8], [0.3, -0.4], [1.0, -0.1]])
    vals = two_phase_gamma(pts, y, c, n=2)
    ref = laplace_gamma(pts, y, n=2) / (2.0 + 1.0j)
    assert np.allclose(vals, ref, rtol=0, atol=1e-16)


def test_cross_branch_is_exact_scaling():
    # source below, target above: the kernel is exactly (2/(gp+gm)) Gamma
    c = TwoPhaseCoeffs(2.0 + 1.0j, 1.0)
    y = np.array([0.1, -0.4])
    x = np.array([[0.3, 0.7]])
    v = two_phase_gamma(x, y, c, n=2)[0]
    assert v == c.cross_coefficient * laplace_gamma(x[0], y, n=2)


def test_branch_agreement_on_interface():
    c = TwoPhaseCoeffs(2.0, 1.0 + 0.5j)
    y = np.array([0.0, 0.6])
    x = np.array([[0.8, 0.0]])
    from eitlab.fundsol import _two_phase_eval
    up = _two_phase_eval(x, y, c, 2, grad=False, x_side=+1.0)[0]
    dn = _two_phase_eval(x, y, c, 2, grad=False, x_side=-1.0)[0]
    assert up == pytest.approx(dn, rel=1e-14)
    assert two_phase_gamma(x, y, c, n=2)[0] == pytest.approx(up, rel=1e-14)


@pytest.mark.parametrize("gp,gm,n", [
    (2.0, 1.0, 2),
    (1 + 2j, 3.0, 2),
    (2.0, 1.0, 3),
    (1 + 2j, 3.0, 3),
])
def test_transmission_residual_closed_forms(gp, gm, n):
    c = TwoPhaseCoeffs(gp, gm)
    if n == 2:
        samples = np.column_stack([np.linspace(-2, 2, 100), np.zeros(100)])
        y = np.array([0.0, -0.3])
    else:
        t = np.linspace(-2, 2, 100)
        samples = np.column_stack([t, 0.5 * t, np.zeros(100)])
        y = np.array([0.1, 0.0, -0.3])
    vj, fj = transmission_residual(c, y, samples, n=n)
    assert vj <= 1e-12
    assert fj <= 1e-12


def test_transmission_residual_equal_pair_exact():
    c = TwoPhaseCoeffs(1.5 + 0.5j, 1.5 + 0.5j)
    samples = np.column_stack([np.linspace(-1, 1, 50), np.zeros(50)])
    vj, fj = transmission_residual(c, (0.0, 0.4), samples, n=2)
    assert vj == 0.0 and fj == 0.0


def test_transmission_residual_validates_inputs():
    c = TwoPhaseCoeffs(2.0, 1.0)
    with pytest.raises(ValueError):
        transmission_residual(c, (0.0, 0.0), np.zeros((3, 2)), n=2)
    with pytest.raises(ValueError):
        transmission_residual(c, (0.0, 0.5), np.array([[0.1, 0.2]]), n=2)


def test_two_phase_gradient_matches_fd(rng):
    c = TwoPhaseCoeffs(2.0 + 1.0j, 1.0 - 0.3j)
    y = np.array([0.15, 0.45])
    h = 1e-6
    for x in [np.array([0.3, 0.8]), np.array([0.3, -0.6]), np.array([-0.5, 0.2])]:
        g = two_phase_gamma_grad(x, y, c, n=2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (two_phase_gamma(x + e, y, c, n=2)
                  - two_phase_gamma(x - e, y, c, n=2)) / (2 * h)
            assert g[d] == pytest.approx(fd, rel=2e-6)


def test_two_phase_discrete_harmonicity_rate():
    # five-point Laplacian away from source and interface vanishes at O(h^2)
    c = TwoPhaseCoeffs(2.0 + 1.0j, 1.0)
    y = np.array([0.0, 0.5])
    pts = np.array([[0.4, 0.9], [-0.3, 0.7], [0.5, -0.6], [-0.8, -0.2]])

    def five_point(x, h):
        acc = -4.0 * two_phase_gamma(x, y, c, n=2)
        for d in range(2):
            for sgn in (+1, -1):
                e = np.zeros(2)
                e[d] = sgn * h
                acc = acc + two_phase_gamma(x + e, y, c, n=2)
        return abs(acc) / h ** 2

    for x in pts:
        r1 = five_point(x, 1e-2)
        r2 = five_point(x, 5e-3)
        assert r2 <= r1 / 2.5 + 1e-9


# --- bitwise oracle: the masked, branch-wise kernel with np.linalg.norm --------

def _ref_gamma(xs, y, n, grad):
    d = xs - y
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise SingularPointError("kernel evaluated at the source point")
    if grad:
        return -d / ((4.0 if n == 3 else 2.0) * np.pi * r[..., None] ** (3 if n == 3 else 2))
    return 1.0 / (4.0 * np.pi * r) if n == 3 else -np.log(r) / (2.0 * np.pi)


def _ref_two_phase(x, y, c, n, grad, x_side=None):
    """Every point split by branch through boolean masks, as a reference for
    the kernels' one-sided fast paths."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    ystar = y.copy()
    ystar[-1] = -ystar[-1]
    sx = np.sign(xs[:, -1]) if x_side is None else np.full(len(xs), float(x_side))
    sy = np.sign(y[-1])
    sx = np.where(sx == 0.0, -sy if sy != 0.0 else 1.0, sx)
    if sy == 0.0:
        sy = 1.0
    direct = _ref_gamma(xs, y, n, grad)
    if c.gamma_plus == c.gamma_minus:
        out = direct / c.gamma_plus
        return out[0] if np.ndim(x) == 1 else out
    out = np.zeros((len(xs), n) if grad else (len(xs),), dtype=complex)
    same = sx * sy > 0
    upper, lower, cross = same & (sx > 0), same & (sx < 0), ~same
    if np.any(upper):
        out[upper] = direct[upper] / c.gamma_plus + c.s * _ref_gamma(xs[upper], ystar, n, grad)
    if np.any(lower):
        out[lower] = direct[lower] / c.gamma_minus + c.t * _ref_gamma(xs[lower], ystar, n, grad)
    if np.any(cross):
        out[cross] = c.cross_coefficient * direct[cross]
    return out[0] if np.ndim(x) == 1 else out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_match_the_branchwise_reference_bitwise(n, rng):
    sets = {side: rng.uniform(-2.0, 2.0, (40, n)) for side in ("above", "below", "on", "mixed")}
    sets["above"][:, -1] = np.abs(sets["above"][:, -1])
    sets["below"][:, -1] = -np.abs(sets["below"][:, -1])
    sets["on"][:, -1] = 0.0
    sets["mixed"][:5, -1] = 0.0                        # mixed, some on the interface
    sets["above-and-on"] = np.vstack([sets["above"], sets["on"][:3]])
    sources = [rng.uniform(-1, 1, n) for _ in range(3)]
    sources[0][-1], sources[1][-1], sources[2][-1] = 0.3, -0.45, 0.0
    coeffs = [TwoPhaseCoeffs(2.0 + 0.5j, 1.0 - 0.2j), TwoPhaseCoeffs(2.0, 1.0),
              TwoPhaseCoeffs(0.7, 1.3 + 0.9j), TwoPhaseCoeffs(1.5 + 0.1j, 1.5 + 0.1j)]
    checked = 0
    for y in sources:
        assert _same_bits(laplace_gamma(sets["mixed"], y, n=n),
                          _ref_gamma(sets["mixed"], y, n, False))
        assert _same_bits(laplace_gamma_grad(sets["mixed"], y, n=n),
                          _ref_gamma(sets["mixed"], y, n, True))
        for c in coeffs:
            for name, x in sets.items():
                assert _same_bits(two_phase_gamma(x, y, c, n=n),
                                  _ref_two_phase(x, y, c, n, False)), (name, y, c)
                assert _same_bits(two_phase_gamma_grad(x, y, c, n=n),
                                  _ref_two_phase(x, y, c, n, True)), (name, y, c)
                checked += 2
            # one-sided limits on the interface
            for side in (+1.0, -1.0):
                for grad in (False, True):
                    assert _same_bits(
                        _two_phase_eval(sets["on"], y, c, n, grad, x_side=side),
                        _ref_two_phase(sets["on"], y, c, n, grad, x_side=side))
            # a single point, on either side
            for x in (sets["above"][0], sets["below"][0]):
                assert _same_bits(two_phase_gamma(x, y, c, n=n),
                                  _ref_two_phase(x, y, c, n, False))
                assert _same_bits(two_phase_gamma_grad(x, y, c, n=n),
                                  _ref_two_phase(x, y, c, n, True))
            for kernel in (two_phase_gamma, two_phase_gamma_grad):
                with pytest.raises(SingularPointError):
                    kernel(np.vstack([sets["above"][:2], y]), y, c, n=n)
    assert checked == 3 * 4 * 5 * 2
