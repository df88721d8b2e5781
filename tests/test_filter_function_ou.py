"""The filter function against the exact dephasing of Ornstein-Uhlenbeck noise.

For a field of variance b^2 and correlation time tau_c, with spectrum
S(w) = 2 b^2 tau_c / (1 + w^2 tau_c^2), the dephasing of a sequence with
filter F is chi = 1/2 int S |F|^2 dw / 2 pi over the whole axis.  In the time
domain it is 1/2 b^2 int int y(t1) y(t2) e^{-|t1 - t2| / tau_c}, a finite
sum over the N + 1 constant-sign intervals of CPMG-N (T = 2 N tau): for Hahn,
b^2 tau_c^2 [x - 3 + 4 e^{-x/2} - e^{-x}] with x = T / tau_c (Klauder and
Anderson, Phys. Rev. 125, 912 (1962); Cywinski et al., Phys. Rev. B 77,
174509 (2008)).

The frequency integral folds the axis onto one period: for N >= 1,
w^2 |F(w)|^2 repeats with period 2 pi / tau, so
chi = 1/2pi int_0^{2pi/tau} u^2 |F(u)|^2 sum_{j>=0} S(u + 2 pi j / tau) /
(u + 2 pi j / tau)^2 du, the sum taken to J terms and the rest as an
integral.  Gauss-Legendre segments split each period at every half
oscillation of sin(N w tau), refine geometrically below w = 1/tau_c and put
nodes within POLE_WINDOW of the sec poles at w tau = pi/2 and 3 pi/2, where
``_toggle_factor`` takes its limit form.  The periodicity itself is checked
on ``filter_function`` up to 1000 periods out.  Reached: 3e-15 relative or
better for x from 1e-3 to 1e3 and N from 1 to 64 (tolerance 1e-13).
"""

import math

import mpmath
import numpy as np
import pytest

from decolab.sequences import POLE_WINDOW, filter_function

XS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)
NS = (1, 2, 3, 8, 64)
GAUSS_NODES = 16


def hahn_chi(x: float) -> float:
    """x - 3 + 4 e^{-x/2} - e^{-x} (chi / b^2 tau_c^2 of Hahn), as its series
    sum_{k>=3} (-1)^k x^k (4 / 2^k - 1) / k! below x = 0.5 and through
    expm1 above, where the plain form would cancel to x^3 / 12."""
    if x < 0.5:
        return math.fsum((-x) ** k * (4.0 / 2.0 ** k - 1.0) / math.factorial(k)
                         for k in range(3, 30))
    e = math.expm1(-0.5 * x)
    return x + 2.0 * e - e * e


def cpmg_chi(n_pulses: int, x: float) -> float:
    """chi / b^2 tau_c^2 of CPMG-N as the exact double integral of
    e^{-|t1 - t2|} over its N + 1 constant-sign intervals (tau_c = 1), in
    50-digit arithmetic: each interval with itself, and each pair through
    the running sum over the earlier intervals."""
    mpmath.mp.dps = 50
    tau = mpmath.mpf(x) / (2 * n_pulses)
    edges = [mpmath.mpf(0)] + [(2 * k - 1) * tau for k in range(1, n_pulses + 1)] + \
        [2 * n_pulses * tau]
    total = mpmath.mpf(0)
    earlier = mpmath.mpf(0)  # sum over i < j of s_i e^{b_i} (1 - e^{-l_i})
    for i in range(n_pulses + 1):
        sign = 1 if i % 2 == 0 else -1
        length = edges[i + 1] - edges[i]
        total += 2 * (length - 1 + mpmath.exp(-length))
        total += 2 * sign * mpmath.exp(-edges[i]) * -mpmath.expm1(-length) * earlier
        earlier += sign * mpmath.exp(edges[i + 1]) * -mpmath.expm1(-length)
    return float(total / 2)


def _beyond(z: np.ndarray) -> np.ndarray:
    """int_z^inf dz' / (z'^2 (1 + z'^2)) = 1/z - atan(1/z), through its series
    in v = 1/z where that cancels (z > 2)."""
    v = 1.0 / z
    series = np.zeros_like(v)
    for k in range(40, 0, -1):
        series = 1.0 / (2 * k + 1) - v * v * series
    series *= v ** 3
    return np.where(z > 2.0, series, v - np.arctan(v))


def _period_nodes(n_pulses: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes alpha = w tau on [0, 2 pi] and their weights in w."""
    edges = list(np.linspace(0.0, 2.0 * math.pi, 4 * n_pulses + 5))
    if tau < edges[1]:  # w tau_c = 1 lies in the first segment
        edges += list(np.geomspace(1e-3 * tau, edges[1], 30)[:-1])
    for pole in (0.5 * math.pi, 1.5 * math.pi):
        edges += [pole - 0.5 * POLE_WINDOW, pole + 0.5 * POLE_WINDOW]
    edges = np.unique(edges)
    g, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    alpha = (0.5 * (hi - lo) * g + 0.5 * (hi + lo)).ravel()
    return alpha, (0.5 * (hi - lo) * w).ravel() / tau


def filter_chi(n_pulses: int, x: float) -> float:
    """1/2 int S |F|^2 dw / 2 pi with F from ``filter_function`` (b = tau_c =
    1), folded onto one period of w^2 |F|^2."""
    tau = x / (2 * n_pulses)
    period = 2.0 * math.pi / tau
    # the folded sum term by term over the spectrum's width of tau / pi
    # periods and 1000 more, then as an integral (midpoint rule, error ~ J^-5)
    terms = 1000 + 4 * math.ceil(tau)
    alpha, weights = _period_nodes(n_pulses, tau)
    assert np.min(np.abs(alpha - 0.5 * math.pi)) < POLE_WINDOW
    u = alpha / tau
    f2 = np.abs(filter_function(u, n_pulses, tau)) ** 2
    w = u[:, None] + period * np.arange(1, terms + 1)
    folded = np.sum(2.0 / (w * w * (1.0 + w * w)), axis=1)
    folded += 2.0 * _beyond(u + (terms + 0.5) * period) / period
    integrand = f2 * 2.0 / (1.0 + u * u) + u * u * f2 * folded
    return float(weights @ integrand) / (2.0 * math.pi)


@pytest.mark.parametrize("x", XS)
def test_hahn_closed_form_matches_interval_sum(x):
    assert hahn_chi(x) == pytest.approx(cpmg_chi(1, x), rel=1e-15)


@pytest.mark.parametrize("n_pulses", NS)
def test_folded_period_of_filter_function(n_pulses):
    # w^2 |F(w)|^2 = u^2 |F(u)|^2 for w = u + 2 pi j / tau, on and next to
    # the sec poles too
    tau = 1e-3
    alpha, _ = _period_nodes(n_pulses, tau)
    u = alpha[::7] / tau
    base = u * u * np.abs(filter_function(u, n_pulses, tau)) ** 2
    for j in (1, 7, 1000):
        w = u + 2.0 * math.pi * j / tau
        shifted = w * w * np.abs(filter_function(w, n_pulses, tau)) ** 2
        # the phase w tau carries an absolute rounding of about j * 1e-15
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-9 * np.max(base))


@pytest.mark.parametrize("n_pulses", NS)
@pytest.mark.parametrize("x", XS)
def test_filter_function_dephasing_matches_ou(x, n_pulses):
    exact = hahn_chi(x) if n_pulses == 1 else cpmg_chi(n_pulses, x)
    assert filter_chi(n_pulses, x) == pytest.approx(exact, rel=1e-13)
