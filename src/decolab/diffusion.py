"""Ornstein-Uhlenbeck spectral diffusion of an optical transition and the
check-probe photon-count models built on it.

Frequencies and linewidths are in MHz, the diffusion coefficient D in
MHz^2 s^-1, times in seconds.  In model coordinates the probe/sink laser,
the heralded starting frequency and the line centre all sit at f = 0.

Without ionization the frequency distribution stays Gaussian about f = 0,

    P(f, t) = N(0, V(t)),
    V(t) = (D / theta) (1 - e^{-2 theta t}),   theta = D (2 sqrt(2 ln 2) / gamma_i)^2,

and the expected counts are a Voigt profile (Gaussian (*) homogeneous
Lorentzian).  With a delta-function ionization sink of strength S at f = 0
the solution is built in the Laplace domain from the eigenfunction
expansion of the sinkless propagator (quantum-harmonic-oscillator
eigenfunctions, lambda_n = n theta), then inverted numerically with the
fixed-Talbot contour.  The truncated expansion is only valid for
t >> 1/(theta N_eigen); the solver enforces that bound.  Source and sink
both sit at f = 0, where every odd eigenfunction vanishes, so only the even
modes n < N_eigen carry weight and only they are computed.  At a contour
node s the imaginary part of n theta + s is the same for every n, so the
sums over the modes are evaluated in real arithmetic (real matrix
products), not through a complex reciprocal per mode and node.

In the oscillator coordinate x = f sqrt(theta / 2D) the frequency grid
always spans the same +-GRID_HALFWIDTH_SIGMAS / sqrt(2), so the eigen-weights
there depend on (N_eigen, grid points) only, not on the model: they are
computed once per process for each such pair and shared, read-only, by every
solver.  The fixed-Talbot contour likewise depends on its node count only
and is computed once per count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .files import (DataError, csv_rows, data_lines, finite, increasing_finite, positive_finite,
                    write_csv)
from .fitting import DecayCurve, FitResult, least_squares

__all__ = [
    "OuDiffusionModel",
    "HomogeneousLine",
    "IonizationSink",
    "SolverSettings",
    "ValidityError",
    "ou_variance",
    "ou_pdf",
    "tau_c",
    "power_broadened_linewidth",
    "faddeeva_w",
    "voigt_density",
    "counts_no_ionization",
    "hermite_phi_table",
    "invert_laplace",
    "SinkSolver",
    "PowerDataset",
    "joint_fit_backward",
    "fit_ionization_rate",
    "read_diffusion_csv",
    "write_diffusion_csv",
    "read_manifest",
]

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
LN2_8 = 8.0 * math.log(2.0)

#: homogeneous linewidth (MHz) that fits and predictions hold fixed unless told otherwise
GAMMA_H = 22.0
#: ratio of forward to backward check-probe counts without ionization
FORWARD_RESCALE = 0.96
#: the columns of a diffusion CSV, as read and written
DIFFUSION_COLUMNS = ("tau_d_s", "counts_forward", "counts_backward", "stderr")

#: contour nodes per block of SinkSolver._laplace_p0, two inversion
#: contours.  Any whole number of 8-node groups from 8 to 240 gives the same
#: bits, because BLAS then reduces each node's column as it does in any other
#: such block; 48 keeps each of the block's two real tables of the default
#: 999 modes n >= 2 (8 B per element) at 0.38 MB, within a core's cache.
_NODE_BLOCK = 48

#: fixed-Talbot nodes per inversion: in double precision the error decreases
#: with the node count only up to ~24 nodes, beyond which the e^{2M/5}
#: contour amplification of roundoff dominates and accuracy degrades
INVERSION_NODES = 24
#: the sink solver's validity bound is this factor over theta * n_eigen
MIN_VALID_TIME_FACTOR = 10.0
#: the sink solver's grid spans this many stationary standard deviations
#: on either side of f = 0
GRID_HALFWIDTH_SIGMAS = 6.5


class ValidityError(ValueError):
    """Requested time below the truncated-expansion validity bound."""


@dataclass(frozen=True)
class OuDiffusionModel:
    """Diffusion coefficient D (MHz^2/s) and inhomogeneous FWHM gamma_i (MHz)
    of a line centred at f = 0."""

    d_coeff: float
    gamma_i: float

    def __post_init__(self) -> None:
        if not 0.0 < self.d_coeff < math.inf:
            raise ValueError("d_coeff must be finite and > 0")
        if not 0.0 < self.gamma_i < math.inf:
            raise ValueError("gamma_i must be finite and > 0")
        try:
            ok = 0.0 < self.theta < math.inf and 0.0 < self.stationary_variance < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"d_coeff {self.d_coeff!r} and gamma_i {self.gamma_i!r} give a "
                             "mean-reversion rate or stationary variance outside (0, inf)")

    @property
    def theta(self) -> float:
        """Mean-reversion rate (s^-1): D (2 sqrt(2 ln 2) / gamma_i)^2."""
        return self.d_coeff * (FWHM_PER_SIGMA / self.gamma_i) ** 2

    @property
    def stationary_variance(self) -> float:
        """gamma_i^2 / (8 ln 2) = D / theta, in MHz^2."""
        return _stationary_variance(self.gamma_i)


@dataclass(frozen=True)
class HomogeneousLine:
    """Peak counts c0 and Lorentzian FWHM gamma_h (MHz), possibly power-broadened."""

    c0: float
    gamma_h: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c0 < math.inf:
            raise ValueError("c0 must be finite and >= 0")
        if not 0.0 < self.gamma_h < math.inf:
            raise ValueError("gamma_h must be finite and > 0")

    def counts(self, detuning):
        out = _lorentzian(self.c0, 0.5 * self.gamma_h, np.asarray(detuning, dtype=float))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IonizationSink:
    """Delta-sink strength S (s^-1) at the probe frequency f = 0."""

    strength_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength_s < math.inf:
            raise ValueError("strength_s must be finite and >= 0")


@dataclass(frozen=True)
class SolverSettings:
    """Sink-solver controls.

    n_eigen truncates the eigen-expansion to the orders n < n_eigen; of
    these the solver computes the even ones only, because the odd modes
    vanish at the source and sink f = 0 and contribute exactly zero.
    grid_points is the size of the frequency grid.
    """

    n_eigen: int = 2000
    grid_points: int = 801

    def __post_init__(self) -> None:
        if self.n_eigen < 1:
            raise ValueError("n_eigen must be >= 1")


def _lorentzian(c0, hw: float, d: np.ndarray) -> np.ndarray:
    """Counts of a Lorentzian line of peak c0 and half width hw at detuning d,
    c0 / (1 + (d / hw)^2): c0 exactly at d = 0, and 0, the exact limit, where
    the square overflows (so a line whose hw^2 underflows gives no 0/0)."""
    with np.errstate(over="ignore"):
        return c0 / (1.0 + np.square(d / hw))


def _stationary_variance(gamma_i):
    return gamma_i ** 2 / LN2_8


def _ou_variance(v_inf, d_coeff, t):
    """v_inf (1 - e^{-2 theta t}), theta = d_coeff / v_inf; one call serves many models."""
    return v_inf * -np.expm1(-2.0 * d_coeff * t / v_inf)


def _diffusion_times(tau_d) -> np.ndarray:
    t = np.asarray(tau_d, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("tau_d must be >= 0")
    return t


def ou_variance(model: OuDiffusionModel, tau_d):
    """Frequency variance (MHz^2) after diffusion time tau_d."""
    out = _ou_variance(model.stationary_variance, model.d_coeff, _diffusion_times(tau_d))
    return float(out) if out.ndim == 0 else out


def ou_pdf(model: OuDiffusionModel, f, tau_d: float):
    """Gaussian density (MHz^-1) of the transition frequency at tau_d > 0,
    starting from f = 0."""
    if not tau_d > 0.0:
        raise ValueError("tau_d must be > 0")
    f = np.asarray(f, dtype=float)
    var = ou_variance(model, tau_d)
    out = np.exp(-0.5 * f ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def tau_c(d_coeff: float, gamma_h: float) -> float:
    """Diffusion time at which the frequency spread reaches gamma_h:
    gamma_h^2 / (16 ln 2 D), valid for gamma_h << gamma_i."""
    if d_coeff <= 0.0 or gamma_h <= 0.0:
        raise ValueError("inputs must be positive")
    return gamma_h ** 2 / (2.0 * LN2_8 * d_coeff)


def power_broadened_linewidth(gamma0: float, b: float, power: float) -> float:
    """gamma_h(P) = sqrt(gamma0^2 + b P)."""
    if gamma0 < 0.0 or b < 0.0 or power < 0.0:
        raise ValueError("inputs must be non-negative")
    return math.sqrt(gamma0 * gamma0 + b * power)


# ---------------------------------------------------------------------------
# Voigt profile via the complex error function
# ---------------------------------------------------------------------------

def _weideman_coefficients(n_terms: int = 48) -> tuple[float, np.ndarray]:
    # rational approximation of w(z) on the upper half-plane (Weideman 1994)
    big_m = 2 * n_terms
    big_m2 = 2 * big_m
    k = np.arange(-big_m + 1, big_m)
    ell = math.sqrt(n_terms / math.sqrt(2.0))
    theta = k * math.pi / big_m
    t = ell * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (ell * ell + t * t)
    f = np.concatenate(([0.0], f))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / big_m2
    return ell, a[1:n_terms + 1][::-1]


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coefficients(48)


def faddeeva_w(z):
    """w(z) = exp(-z^2) erfc(-i z) for Im(z) >= 0 (rational approximation)."""
    z = np.asarray(z, dtype=complex)
    ell = _WEIDEMAN_L
    zz = (ell + 1j * z) / (ell - 1j * z)
    poly = np.zeros_like(z)
    for c in _WEIDEMAN_A:
        poly = poly * zz + c
    out = 2.0 * poly / (ell - 1j * z) ** 2 + (1.0 / math.sqrt(math.pi)) / (ell - 1j * z)
    return complex(out) if out.ndim == 0 else out


def voigt_density(x, sigma, gamma_hwhm: float):
    """Gaussian(sigma) (*) Lorentzian(HWHM) density at x; sigma is a scalar
    or an array of the shape of x."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = (x + 1j * gamma_hwhm) / (sigma * math.sqrt(2.0))
    out = np.real(faddeeva_w(z)) / (sigma * math.sqrt(2.0 * math.pi))
    return float(out[0]) if scalar else out


def counts_no_ionization(model: OuDiffusionModel, line: HomogeneousLine, tau_d,
                         probe_detuning: float = 0.0):
    """Expected counts after sinkless diffusion: Voigt evaluation of the
    homogeneous line convolved with the diffused frequency distribution.

    tau_d may be an array (one value per time) or a scalar (a float); at
    tau_d = 0 the counts are the bare Lorentzian.
    """
    scalar = np.ndim(tau_d) == 0
    t = np.atleast_1d(np.asarray(tau_d, dtype=float))
    out = _gaussian_averaged_counts(line.c0, line.gamma_h, ou_variance(model, t),
                                    probe_detuning)
    return float(out[0]) if scalar else out


def _gaussian_averaged_counts(c0, gamma_h: float, variance: np.ndarray,
                              probe_detuning: float) -> np.ndarray:
    """Counts of a Lorentzian line (peak c0, FWHM gamma_h) whose centre is
    Gaussian about f = 0 with the given variance: c0 pi hw V(probe), the
    bare Lorentzian where the variance is 0, and nan where it is nan (a nan
    time).  c0 is a scalar or, like variance, one value per point, so one
    Voigt call serves many models."""
    d = np.full(variance.shape, probe_detuning, dtype=float)
    c0 = np.broadcast_to(c0, d.shape)
    hw = 0.5 * gamma_h
    out = np.where(np.isnan(variance), math.nan, _lorentzian(c0, hw, d))
    spread = variance > 0.0
    out[spread] = c0[spread] * math.pi * hw * voigt_density(
        d[spread], np.sqrt(variance[spread]), hw)
    return out


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

_PI_QUARTER = math.pi ** 0.25


def hermite_phi_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions of the even orders 0, 2, ... < n_max at x,
    shape ((n_max + 1) // 2, len(x)); row k holds order 2k.

    The sink solver needs no odd order: its source and sink sit at x = 0,
    where every odd Hermite function vanishes, so an odd mode carries zero
    weight.  The odd orders still feed the recurrence; they live in two
    rolling buffers, and each step is computed in place with the same
    floating-point operations, in the same order, as the all-orders
    recurrence.  The normalized recurrence is bounded, so this is
    overflow-safe at any order.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty(((n_max + 1) // 2, x.size))
    table[0] = np.exp(-0.5 * x * x) / _PI_QUARTER
    odd = np.zeros_like(x)  # phi_{-1}, then phi_1, phi_3, ...
    tmp = np.empty_like(x)
    # phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1}, two orders
    # per row: the odd one into odd, the even one into table[j]
    for j in range(1, table.shape[0]):
        k = 2 * j - 2
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=tmp)
        tmp *= table[j - 1]
        odd *= math.sqrt(k / (k + 1.0))
        np.subtract(tmp, odd, out=odd)
        k += 1
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=table[j])
        table[j] *= odd
        np.multiply(table[j - 1], math.sqrt(k / (k + 1.0)), out=tmp)
        table[j] -= tmp
    return table


def _x_units(model: OuDiffusionModel) -> float:
    """Conversion MHz -> dimensionless oscillator coordinate sqrt(theta/2D)."""
    return math.sqrt(model.theta / (2.0 * model.d_coeff))


@functools.lru_cache(maxsize=4)
def _unit_weights(n_eigen: int, grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sink solver's grid and eigen-weights in oscillator units, read-only.

    The grid x spans +-GRID_HALFWIDTH_SIGMAS stationary standard deviations,
    +-GRID_HALFWIDTH_SIGMAS / sqrt(2) in x for every model.  The weights
    u_n(x) = phi_0(x) phi_n(x) phi_n(0) / phi_0(0) of the even n < n_eigen
    (the source at x = 0) come from one Hermite table over the grid and the
    sink point x = 0, appended as the last column; u_n(0) is returned apart.
    In frequency units w_n(f) = scale u_n(f scale), scale = _x_units(model).
    """
    half = GRID_HALFWIDTH_SIGMAS / math.sqrt(2.0)
    x = np.linspace(-half, half, grid_points)
    phi = hermite_phi_table(n_eigen, np.append(x, 0.0))
    src = phi[:, -1] / phi[0, -1]
    w_f = np.multiply(phi[0, :-1], phi[:, :-1])
    w_f *= src[:, None]
    w_sink = phi[0, -1] * phi[:, -1] * src
    for a in (x, w_f, w_sink):
        a.flags.writeable = False
    return x, w_f, w_sink


# ---------------------------------------------------------------------------
# fixed-Talbot inversion
# ---------------------------------------------------------------------------

def _checked_times(t, min_valid_time: float | None = None) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("t must be > 0")
    if min_valid_time is not None and np.any(t < min_valid_time):
        below = int(np.count_nonzero(t < min_valid_time))
        raise ValidityError(
            f"{below} of {t.size} times lie below the validity bound {min_valid_time!r} s "
            "(truncated expansion requires t >> 1/(theta * n_eigen))")
    return t


@functools.lru_cache(maxsize=None)
def _talbot_contour(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-Talbot contour of m nodes in units of 1/t: t s_k and the
    weights gamma_k, each shape (m,), read-only.

    The contour is s_k = r theta_k (cot theta_k + i) with r = 2 m / (5 t), so
    t s_k and hence the weights gamma_k do not depend on t: they are computed
    once per node count.
    """
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    ts = 0.4 * m * np.concatenate(([1.0], theta * (cot + 1j)))
    gamma = np.exp(ts) * np.concatenate(([0.5], 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot))
    ts.flags.writeable = gamma.flags.writeable = False
    return ts, gamma


def _talbot_nodes(t: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-Talbot nodes s, shape t.shape + (m,), and their weights gamma, shape (m,)."""
    ts, gamma = _talbot_contour(m)
    return np.multiply.outer(1.0 / t, ts), gamma


def invert_laplace(transform: Callable, t):
    """Invert a Laplace transform at time(s) t with the fixed-Talbot contour
    of INVERSION_NODES nodes: f(t) = 2/(5t) Re sum_k gamma_k F(s_k).

    ``transform`` receives the complex nodes, shape t.shape + (m,), and
    returns F at them with optional leading axes (..., *t.shape, m); the
    result has shape (..., *t.shape), a float when that is empty.
    """
    t = _checked_times(t)
    s, _ = _talbot_nodes(t, INVERSION_NODES)
    return _talbot_sum(np.asarray(transform(s), dtype=complex), t)


def _talbot_sum(values: np.ndarray, t: np.ndarray):
    """2/(5t) Re sum_k gamma_k F(s_k) from F at the INVERSION_NODES contour
    nodes of t along the last axis; a float when the result is 0-d."""
    _, gamma = _talbot_contour(INVERSION_NODES)
    out = 2.0 / (5.0 * t) * np.real(values @ gamma)
    return float(out) if out.ndim == 0 else out


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """w with w @ y = np.trapezoid(y, x)."""
    half = 0.5 * np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += half
    w[1:] += half
    return w


# ---------------------------------------------------------------------------
# sink solver
# ---------------------------------------------------------------------------

class SinkSolver:
    """Diffusion with a delta ionization sink, solved per diffusion time on a
    fixed frequency grid.

    The heralded start, the sink and the line centre all sit at f = 0, where
    the Hermite basis is centred.  The eigen-weights in oscillator units are
    a per-process constant of (n_eigen, grid_points), shared by every solver
    (``_unit_weights``); a solver holds only its grid, its sink weights and
    its even mode numbers n >= 2, and folds the unit scale into each
    projection, so building one and repeated evaluations (fits, S sweeps)
    are cheap.  The Talbot contour is a constant of its node count, and each
    inversion sums the modes in real arithmetic over blocks of _NODE_BLOCK
    contour nodes (``_laplace_p0``).  All returned densities
    are MHz^-1 on ``grid``, which spans +-GRID_HALFWIDTH_SIGMAS stationary
    standard deviations around f = 0.
    """

    def __init__(self, model: OuDiffusionModel, sink: IonizationSink,
                 settings: SolverSettings = SolverSettings()):
        self.model = model
        self.sink = sink
        self.settings = settings
        # w_n(f) = scale u_n(x) at x = f scale; only the even n enter, because
        # odd modes vanish at the source.  _w_f holds the shared u_n(x).
        self._scale = _x_units(model)
        x, self._w_f, w_sink = _unit_weights(settings.n_eigen, settings.grid_points)
        self.grid = x / self._scale
        self._w_sink = self._scale * w_sink
        self._n_even = np.arange(2, settings.n_eigen, 2, dtype=float)[:, None]

    @property
    def min_valid_time(self) -> float:
        return MIN_VALID_TIME_FACTOR / (self.model.theta * self.settings.n_eigen)

    def _laplace_p0(self, weights: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The sinkless transform P~0 = sum_n w_n / (n theta + s) of each row
        of eigen-weights (r, len(_n_even) + 1) at the nodes s (1-D), shape
        (r, s.size).

        The n = 0 mode is w_0 / s.  The even modes n >= 2 are summed in real
        arithmetic, in units of theta: with x = n + Re(s)/theta, y =
        Im(s)/theta and q = 1/(x^2 + y^2), 1/(n theta + s) = (x - i y) q /
        theta, and y does not depend on n, so Re P~0 = W (x q) / theta and
        Im P~0 = -(y / theta) W q with W the rows' n >= 2 weights: two real
        matrix products per block of _NODE_BLOCK nodes.  Above the validity
        bound x and q stay finite.  w_0 / s stays in physical units: in units
        of theta, s / theta underflows to 0 once theta t leaves the float
        range.
        """
        theta = self.model.theta
        w0, w = weights[:, :1], weights[:, 1:]
        out = np.empty((weights.shape[0], s.size), dtype=complex)
        for start in range(0, s.size, _NODE_BLOCK):
            sl = slice(start, start + _NODE_BLOCK)
            a = s.real[sl] / theta
            y = s.imag[sl] / theta
            x = self._n_even + a
            q = np.multiply(x, x)
            q += y * y
            np.reciprocal(q, out=q)
            x *= q
            block = np.divide(w0, s[sl], out=out[:, sl])
            block.real += (w @ x) / theta
            block.imag -= (y / theta) * (w @ q)
        return out

    def _inverse(self, coef: np.ndarray, taus) -> Callable[[float], np.ndarray]:
        """S -> inverse transform of the sink solution projected on coef, at taus.

        With the sink at f = 0, P~(f, s) = P~0(f, s) / (1 + S P~0(0, s)).
        S enters only through that per-node factor, so the sinkless sums are
        evaluated once, at the contour nodes of taus, and each S costs one
        weighted sum over the nodes.  S may be an array of strengths (of
        scalar-valued projections): the result then has shape
        (*S.shape, *taus.shape).  The rows of coef and the sink weights are
        stacked into one real matrix, so both sums come from the same two
        real products per block of nodes (``_laplace_p0``).
        """
        taus = _checked_times(taus, self.min_valid_time)
        s, _ = _talbot_nodes(taus, INVERSION_NODES)
        rows = coef.reshape(-1, coef.shape[-1])
        p0 = self._laplace_p0(np.vstack((rows, self._w_sink)), s.ravel())
        p0_sink = p0[-1].reshape(s.shape)
        p0 = p0[:-1].reshape(coef.shape[:-1] + s.shape)

        def invert(strength) -> np.ndarray:
            strength = np.asarray(strength, dtype=float)
            factor = 1.0 + strength.reshape(strength.shape + (1,) * p0_sink.ndim) * p0_sink
            return _talbot_sum(p0 / factor, taus)

        return invert

    def pdf(self, tau_d: float, strength_s: float | None = None) -> np.ndarray:
        """P(f, tau_d) on the grid, by Talbot inversion of the sink solution."""
        strength = self.sink.strength_s if strength_s is None else strength_s
        return self._inverse(self._scale * self._w_f.T, tau_d)(strength)

    def survival(self, tau_d: float, strength_s: float | None = None) -> float:
        """Trapezoid integral of P over the grid (1 when S = 0, up to inversion error)."""
        strength = self.sink.strength_s if strength_s is None else strength_s
        coef = self._scale * (self._w_f @ _trapezoid_weights(self.grid))
        return float(self._inverse(coef, tau_d)(strength))

    def counts(self, line: HomogeneousLine, tau_d: float,
               strength_s: float | None = None) -> float:
        """Counts at the line centre from convolving the sink solution with
        the homogeneous line."""
        strength = self.sink.strength_s if strength_s is None else strength_s
        return float(self.counts_factorized(line, tau_d)(strength))

    def counts_factorized(self, line: HomogeneousLine, taus,
                          probe_detuning: float = 0.0) -> Callable[[float], np.ndarray]:
        """S -> counts at taus (an array, or one time) for repeated evaluation;
        S may be an array of strengths, with counts of shape
        (*S.shape, *taus.shape), each row equal bit for bit to a call with
        that strength alone.

        The counts integrate the density against the homogeneous line on the
        grid, a fixed projection of the eigen-weights, so the sinkless sums
        are evaluated once per contour node and each call costs O(S x taus x
        nodes).
        """
        weights = _trapezoid_weights(self.grid) * line.counts(probe_detuning - self.grid)
        return self._inverse(self._scale * (self._w_f @ weights), taus)


# ---------------------------------------------------------------------------
# joint fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerDataset:
    power_nw: float
    curve: DecayCurve

    @property
    def tag(self) -> str:
        """The power as it names the fit parameters and outputs, e.g. '500nW'."""
        return f"{self.power_nw:g}nW"


def joint_fit_backward(datasets: Sequence[PowerDataset], gamma_h_fixed: float) -> FitResult:
    """Joint fit of backward-correlation counts for all powers.

    One shared inhomogeneous linewidth gamma_i; a separate diffusion
    coefficient D and peak counts C0 per power.  gamma_h is fixed (strong
    covariance with gamma_i otherwise).  Parameter names: gamma_i, then
    D_<tag>, C0_<tag> per dataset (two datasets of one tag, or counts that
    never rise above the parameters' lower bound, are a DataError).
    A negative time is a ValueError before the fit; a trial row that
    overflows gets non-finite counts, which the fit rejects.
    """
    if not datasets:
        raise DataError("need at least one dataset")
    if not 0.0 < gamma_h_fixed < math.inf:
        raise ValueError("gamma_h must be finite and > 0")
    tags = [ds.tag for ds in datasets]
    for tag in tags:
        if tags.count(tag) > 1:
            raise DataError(f"power {tag} is listed more than once")
    sizes = [len(ds.curve) for ds in datasets]
    x_all = _diffusion_times(np.concatenate([ds.curve.x for ds in datasets]))
    y_all = np.concatenate([ds.curve.y for ds in datasets])
    sig_all = (np.concatenate([ds.curve.sigma for ds in datasets])
               if all(ds.curve.sigma is not None for ds in datasets) else None)

    def model_fn(x, params):
        # ou_variance and counts_no_ionization for every row of params and
        # every power, with one Voigt call for all of them
        gamma_i, d, c0 = params[..., :1], params[..., 1::2], params[..., 2::2]
        # the stationary variance in OuDiffusionModel's scalar arithmetic (an
        # array square can differ in the last bit)
        v_inf = np.reshape([_stationary_variance(g) for g in gamma_i.flat], gamma_i.shape)
        variance = _ou_variance(v_inf, np.repeat(d, sizes, axis=-1), x)
        return _gaussian_averaged_counts(np.repeat(c0, sizes, axis=-1), gamma_h_fixed,
                                         variance, 0.0)

    # initial guesses: C0 from the first point, gamma_i from the plateau
    # ratio, D from the half-decay time; every parameter is bounded below by
    # `lower`, so the counts must rise above it
    hw = 0.5 * gamma_h_fixed
    lower = 1e-6
    names = ["gamma_i"]
    p0 = []
    gammas = []
    for ds in datasets:
        y = ds.curve.y
        c0_guess = float(np.max(y))
        if not c0_guess > lower:
            raise DataError(f"counts_backward at {ds.tag} peak at {c0_guess!r}, "
                            f"not above {lower!r}")
        plateau = max(float(np.mean(y[-2:])) / c0_guess, 1e-3)
        sigma_inf = hw * math.sqrt(math.pi / 2.0) / plateau / math.sqrt(2.0 * math.pi) * 2.0
        gammas.append(FWHM_PER_SIGMA * sigma_inf)
        half_level = 0.5 * (1.0 + plateau) * c0_guess
        below = np.nonzero(y < half_level)[0]
        t_half = float(ds.curve.x[below[0]]) if below.size else float(ds.curve.x[-1])
        # tau_c(D, gamma_h) = gamma_h^2 / (16 ln 2 D) is symmetric in D and
        # tau_c, so D at tau_c = t_half is tau_c(t_half, gamma_h)
        p0.extend([tau_c(t_half, gamma_h_fixed), c0_guess])
        names.extend([f"D_{ds.tag}", f"C0_{ds.tag}"])
    p0 = [float(np.median(gammas))] + p0
    bounds = [(lower, np.inf)] * len(p0)
    return least_squares(model_fn, p0, x_all, y_all, sigma=sig_all,
                         bounds=bounds, param_names=names)


def fit_ionization_rate(forward: DecayCurve, backward_model: OuDiffusionModel,
                        line: HomogeneousLine, forward_rescale: float = FORWARD_RESCALE,
                        settings: SolverSettings = SolverSettings()) -> FitResult:
    """One-parameter fit of the sink strength S to forward-correlation counts.

    The backward-fit diffusion model and homogeneous line are held fixed;
    the model counts are forward_rescale * ionizing counts.
    """
    solver = SinkSolver(backward_model, IonizationSink(strength_s=0.0), settings)
    counts_of_s = solver.counts_factorized(line, forward.x)

    def model_fn(x, params):
        return forward_rescale * counts_of_s(params[..., 0])

    return least_squares(model_fn, [1.0], forward.x, forward.y, sigma=forward.sigma,
                         bounds=[(0.0, np.inf)], param_names=["S"])


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def write_diffusion_csv(path: str | Path, taus: np.ndarray, forward: np.ndarray,
                        backward: np.ndarray, stderr: np.ndarray) -> None:
    write_csv(path, DIFFUSION_COLUMNS,
              [np.asarray(c, dtype=float) for c in (taus, forward, backward, stderr)])


def read_diffusion_csv(path: str | Path) -> tuple[DecayCurve, DecayCurve]:
    """Returns (forward, backward) curves with shared tau axis and stderr.

    tau_d_s must be positive, finite and strictly increasing, and both
    counts finite.  Every stderr must be positive and finite, except that a
    column of zeros (as ``diffusion predict`` writes) means the file has no
    standard errors.
    """
    taus, fwd, bwd, err, lines = [], [], [], [], []
    rows = csv_rows(path)
    header_line, header = rows[0] if rows else (None, [])
    if tuple(h.strip() for h in header) != DIFFUSION_COLUMNS:
        raise DataError(f"unexpected diffusion CSV header: {header}", line=header_line)
    for lineno, row in rows[1:]:
        try:
            tau, forward, backward, stderr = (float(v) for v in row)
        except ValueError:
            raise DataError(f"expected four numbers, got {row!r}", line=lineno) from None
        taus.append(increasing_finite("tau_d_s", tau, taus[-1] if taus else 0.0, lineno))
        fwd.append(finite("counts_forward", forward, lineno))
        bwd.append(finite("counts_backward", backward, lineno))
        err.append(stderr)
        lines.append(lineno)
    if not taus:
        raise DataError("file contains no data rows")
    taus_a = np.array(taus)
    err_a = (None if all(e == 0.0 for e in err)
             else np.array([positive_finite("stderr", e, line) for e, line in zip(err, lines)]))
    return (DecayCurve(taus_a, np.array(fwd), err_a),
            DecayCurve(taus_a, np.array(bwd), err_a))


def read_manifest(path: str | Path) -> list[tuple[float, Path]]:
    """Manifest lines: '<power_nW> <csv-file>' relative to the manifest."""
    base = Path(path).parent
    out = []
    for lineno, line in data_lines(path):
        try:
            power, name = line.split(None, 1)
            out.append((float(power), base / name.strip()))
        except ValueError:
            raise DataError(f"expected '<power_nW> <csv-file>', got {line!r}",
                            line=lineno) from None
    return out
