"""End states of `integrate` against closed-form flows in the flat chart.

With k = n - 1, a = |k| and s = sgn(k), the chart

    rho = r^-k / a,  theta = k phi,  p_rho = -s r^n p_r,  p_theta = p_phi / k

takes the kinetic term (1/2) r^{2n} (p_r^2 + p_phi^2 / r^2) to the flat
(1/2) (p_rho^2 + p_theta^2 / rho^2).  Two families then flow in closed form:

- na_central, V = k0 r^{-2k} = k0 k^2 rho^2: the isotropic oscillator with
  omega^2 = 2 k0 k^2;
- nc, V = k0 r^k = (k0 / a) / rho: Kepler with mu = -k0 / a, bound orbits
  advanced by the f and g functions, Kepler's equation solved by Newton's
  method.

The chart and both flows are written here in plain floats; nothing but
`integrate` and its inputs comes from the package, so the judge shares no
code with what it judges.
"""

import math

import pytest

from pdmham import (COMPLETED, IntegratorConfig, ModelParams, PhasePoint,
                    integrate)

N_VALUES = (-1.0, 0.5, 2.0, 3.0)
T_END = 50.0
GAP_TOL = 1e-9

# flat-chart starts (rho, theta, p_rho, p_theta)
OSC_STARTS = ((1.0, 0.4, 0.2, 0.8), (1.4, 2.0, -0.3, 0.5),
              (0.7, -1.0, 0.5, -0.6))
# (rho, theta, p_rho, lfac): angular momentum lfac * sqrt(mu rho), a bound
# ellipse of eccentricity below 0.45 for every n
KEPLER_STARTS = ((1.5, 0.5, 0.0, 0.9), (1.0, 2.0, 0.2, 0.8),
                 (2.0, -1.0, -0.1, 1.1))


def _to_polar(n, rho, theta, p_rho, p_theta):
    k = n - 1.0
    a, s = abs(k), math.copysign(1.0, k)
    r = (a * rho) ** (-1.0 / k)
    return PhasePoint(r, theta / k, -s * r ** -n * p_rho, k * p_theta)


def _to_cartesian(n, point):
    """(x, y, p_x, p_y) of a polar state through the flat chart."""
    k = n - 1.0
    a, s = abs(k), math.copysign(1.0, k)
    rho = point.r ** -k / a
    theta = k * point.phi
    p_rho = -s * point.r ** n * point.p_r
    p_theta = point.p_phi / k
    c, sn = math.cos(theta), math.sin(theta)
    return (rho * c, rho * sn,
            p_rho * c - p_theta / rho * sn, p_rho * sn + p_theta / rho * c)


def _oscillator(z, omega, t):
    x, y, px, py = z
    c, s = math.cos(omega * t), math.sin(omega * t)
    return (x * c + px / omega * s, y * c + py / omega * s,
            px * c - x * omega * s, py * c - y * omega * s)


def _kepler(z, mu, t):
    """f and g functions for a bound orbit of -mu/rho."""
    x, y, vx, vy = z
    r0 = math.hypot(x, y)
    sma = 1.0 / (2.0 / r0 - (vx * vx + vy * vy) / mu)
    assert sma > 0.0, "unbound start"
    mean_motion = math.sqrt(mu / sma ** 3)
    sigma = (x * vx + y * vy) / math.sqrt(mu * sma)
    ecc_cos = 1.0 - r0 / sma
    mean = math.fmod(mean_motion * t, 2.0 * math.pi)
    # dE is the eccentric-anomaly change: mean = dE + sigma (1 - cos dE)
    # - ecc_cos sin dE, whose derivative r / sma stays positive
    d_e = mean
    for _ in range(50):
        step = ((d_e + sigma * (1.0 - math.cos(d_e))
                 - ecc_cos * math.sin(d_e) - mean)
                / (1.0 + sigma * math.sin(d_e) - ecc_cos * math.cos(d_e)))
        d_e -= step
        if abs(step) <= 1e-15:
            break
    cos_e, sin_e = math.cos(d_e), math.sin(d_e)
    r = sma + (r0 - sma) * cos_e + sigma * sma * sin_e
    f = 1.0 - sma / r0 * (1.0 - cos_e)
    g = mean / mean_motion - (d_e - sin_e) / mean_motion
    f_dot = -math.sqrt(mu * sma) / (r * r0) * sin_e
    g_dot = 1.0 - sma / r * (1.0 - cos_e)
    return (f * x + g * vx, f * y + g * vy,
            f_dot * x + g_dot * vx, f_dot * y + g_dot * vy)


def _end_gap(params, start, exact_flow):
    """Worst end-state gap, relative to max(1, |component|), at T_END."""
    n = params.n
    traj = integrate(params, _to_polar(n, *start),
                     IntegratorConfig(t_end=T_END))
    assert traj.termination == COMPLETED
    got = _to_cartesian(n, traj.final())
    want = exact_flow(_to_cartesian(n, traj.state(0)), T_END)
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


def _osc_gap(n):
    params = ModelParams("na_central", n, 1.0, 0.5, 0.25)
    omega = math.sqrt(2.0 * params.k0) * abs(n - 1.0)
    return max(_end_gap(params, start, lambda z, t: _oscillator(z, omega, t))
               for start in OSC_STARTS)


def _kepler_gap(n):
    params = ModelParams("nc", n, -1.0)
    mu = -params.k0 / abs(n - 1.0)
    gaps = []
    for rho, theta, p_rho, lfac in KEPLER_STARTS:
        start = (rho, theta, p_rho, lfac * math.sqrt(mu * rho))
        gaps.append(_end_gap(params, start, lambda z, t: _kepler(z, mu, t)))
    return max(gaps)


def test_flows_are_exact_on_their_own():
    # each flow returns to its start after one period and keeps its
    # invariants mid-orbit, so a wrong flow cannot pass as the judge
    z = (1.0, 0.3, -0.2, 0.9)
    assert _oscillator(z, 1.7, 2.0 * math.pi / 1.7) == pytest.approx(
        z, abs=1e-14)
    mu = 0.8
    r0 = math.hypot(z[0], z[1])
    sma = 1.0 / (2.0 / r0 - (z[2] ** 2 + z[3] ** 2) / mu)
    period = 2.0 * math.pi * math.sqrt(sma ** 3 / mu)
    assert _kepler(z, mu, period) == pytest.approx(z, abs=1e-12)
    x, y, vx, vy = _kepler(z, mu, 0.37 * period)
    energy = 0.5 * (z[2] ** 2 + z[3] ** 2) - mu / r0
    assert 0.5 * (vx * vx + vy * vy) - mu / math.hypot(x, y) == pytest.approx(
        energy, abs=1e-14)
    assert x * vy - y * vx == pytest.approx(z[0] * z[3] - z[1] * z[2],
                                            abs=1e-14)


@pytest.mark.parametrize("n", N_VALUES)
def test_na_central_matches_the_oscillator(n):
    assert _osc_gap(n) <= GAP_TOL


@pytest.mark.parametrize("n", N_VALUES)
def test_nc_matches_kepler(n):
    assert _kepler_gap(n) <= GAP_TOL
