"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the closed forms used by the library:
phases come from sign-toggled Gauss-Legendre quadrature of the field
B(t), summed here harmonic by harmonic (``field_at``), the Ramsey
envelope from the plain sum over its amplitude scales, J0
from a high-precision power series, Hermite functions from an
arbitrary-precision recurrence, Voigt values and the filtered-bath mean of
1/T2*^2 from adaptive quadrature, T2* distributions from the
brute-force sum over every bath spin, and the drift trajectory and
feedforward protocol from one scalar random draw per step and one
array per shot block.  The float Hermite recurrence is kept over all
orders, odd ones included.  The sink solver's eigen-weights come from one
Hermite recurrence per evaluation set, in frequency units per model or in
oscillator units, its inversion from one complex resolvent per projection
(the accuracy reference) or in the solver's real arithmetic one Talbot
contour at a time (the bitwise reference), and its Talbot contour from the
formula on every call; the joint backward-fit model from one
``counts_no_ionization`` call per power.  The Levenberg-Marquardt engine
is kept with one model call per Jacobian column and per damped trial step.
For bitwise checks, the near/far bath sampler is kept with one temporary
array per operation, the CSV writer with one ``csv.writer`` row per record
and the SVG renderer with one coordinate mapping and one f-string per point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import mpmath
import numpy as np
from scipy.linalg import solve_banded

from decolab.bath import (_BATCH_SPINS, _G2_MEAN, _G4_MEAN, NEAR_SPINS, BathConfig,
                          _coupling_prefactor)
from decolab.constants import CONSTANTS, TWO_PI
from decolab.diffusion import (GRID_HALFWIDTH_SIGMAS, INVERSION_NODES, HomogeneousLine,
                               OuDiffusionModel, _talbot_nodes, _trapezoid_weights, _x_units,
                               counts_no_ionization, hermite_phi_table)
from decolab import feedforward
from decolab.feedforward import SHOT_PERIOD, FeedforwardOutcome
from decolab.files import FitError
from decolab.fitting import FTOL, MAX_ITER, XTOL, FitResult
from decolab.noise import AcFieldModel
from decolab.plotsvg import _COLORS, _H, _MB, _ML, _MR, _MT, _W, SvgPlot, _ticks
from decolab.sequences import N_A, N_T0, PulseSequence, _trigger_offsets, phase_of

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def field_at(model: AcFieldModel, t):
    """Instantaneous field B(t) in tesla; ``t`` may be a scalar or array."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for c in model.components:
        w = TWO_PI * c.frequency
        total = total + c.amplitude * np.cos(w * (t - model.t0) + c.phase)
    return float(total) if total.ndim == 0 else total


def scale_amplitudes(model: AcFieldModel, a: float) -> AcFieldModel:
    """Multiply every amplitude by a > 0; frequencies, phases, t0 unchanged."""
    if not a > 0.0:
        raise ValueError("scale factor must be strictly positive")
    comps = tuple(replace(c, amplitude=c.amplitude * a) for c in model.components)
    return replace(model, components=comps)


def toggled_segments(seq: PulseSequence) -> list[tuple[float, float, int]]:
    """(start, end, sign) free-evolution segments of a sequence."""
    if seq.n_pulses == 0:  # Ramsey
        return [(0.0, seq.tau, +1)]
    n, tau = seq.n_pulses, seq.tau
    bounds = [0.0] + [(2 * k - 1) * tau for k in range(1, n + 1)] + [2 * n * tau]
    return [(bounds[k], bounds[k + 1], 1 if k % 2 == 0 else -1) for k in range(n + 1)]


def phase_quadrature(model: AcFieldModel, seq: PulseSequence, t0: float = 0.0,
                     nodes: int = 120, constants=CONSTANTS) -> float:
    """gamma * integral of the sign-toggled field, by per-segment quadrature.

    The sequence trigger offset t0 shifts the waveform exactly as in the
    library convention: B_eff(t) = field_at(model, t - t0).
    """
    x, w = _gauss_legendre(nodes)
    total = 0.0
    for a, b, sign in toggled_segments(seq):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * x
        total += sign * half * float(np.dot(w, field_at(model, ts - t0)))
    return constants.gamma_nv * total


def ramsey_envelope_direct(model: AcFieldModel, amplitude_range: tuple[float, float],
                           times, n_t0: int = N_T0, n_a: int = N_A):
    """The Ramsey envelope as the plain average of cos(a Phi) over the n_a
    scales ``np.linspace(a_min, a_max, n_a)`` (the midpoint for n_a = 1),
    one scale at a time, and over the trigger offsets."""
    a_min, a_max = amplitude_range
    a_grid = np.linspace(a_min, a_max, n_a) if n_a > 1 else np.array([0.5 * (a_min + a_max)])
    phi = phase_of(model, PulseSequence.ramsey(np.asarray(times, dtype=float)),
                   _trigger_offsets(model, n_t0))
    return sum(np.mean(np.cos(a * phi), axis=-1) for a in a_grid) / a_grid.size


def j0_series(x: float) -> float:
    """Bessel J0 by its power series in adaptive arbitrary precision."""
    ax = abs(float(x))
    dps = max(30, int(0.46 * ax) + 25)
    with mpmath.workdps(dps):
        mx = mpmath.mpf(ax)
        q = mx * mx / 4
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        m = 0
        while abs(term) > mpmath.mpf(10) ** (-dps):
            m += 1
            term *= -q / (m * m)
            total += term
        return float(total)


def hermite_phi_mp(n: int, x: float, dps: int = 60) -> float:
    """Normalized Hermite function e^{-x^2/2} H_n(x) / sqrt(2^n n! sqrt(pi)),
    by exact recurrence in arbitrary precision."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        h_prev = mpmath.mpf(1) / mpmath.pi ** mpmath.mpf("0.25")
        h_prev *= mpmath.e ** (-xm * xm / 2)
        if n == 0:
            return float(h_prev)
        h = mpmath.sqrt(2) * xm * h_prev
        for k in range(1, n):
            h, h_prev = xm * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * h - \
                mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * h_prev, h
        return float(h)


def hermite_phi_all_orders(n_max: int, x: np.ndarray) -> np.ndarray:
    """All normalized Hermite functions 0..n_max-1 at x, shape (n_max, len(x)),
    by the float recurrence whose even rows ``hermite_phi_table`` returns."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((n_max, x.size))
    table[0] = np.exp(-0.5 * x * x) / math.pi ** 0.25
    if n_max > 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for k in range(1, n_max - 1):
        table[k + 1] = x * math.sqrt(2.0 / (k + 1)) * table[k] - \
            math.sqrt(k / (k + 1.0)) * table[k - 1]
    return table


def weight_table(model: OuDiffusionModel, f: np.ndarray, n_eigen: int) -> np.ndarray:
    """Eigen-weights w_n(f) for the even n < n_eigen with the source at f = 0,
    shape ((n_eigen + 1) // 2, len(f)): one Hermite table for f and a second
    for the source."""
    scale = _x_units(model)
    x = np.atleast_1d(np.asarray(f, dtype=float)) * scale
    table = hermite_phi_table(n_eigen, x)
    table0 = hermite_phi_table(n_eigen, np.array([0.0]))[:, 0]
    return scale * table[0] * table * (table0[:, None] / table0[0])


def unit_weight_table(x: np.ndarray, n_eigen: int) -> np.ndarray:
    """Eigen-weights u_n(x) = w_n(x / scale) / scale in oscillator units,
    shape ((n_eigen + 1) // 2, len(x)): one Hermite table for x and a second
    for the source."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = hermite_phi_table(n_eigen, x)
    table0 = hermite_phi_table(n_eigen, np.array([0.0]))[:, 0]
    return table[0] * table * (table0[:, None] / table0[0])


@dataclass(frozen=True)
class EigenSink:
    """A sink solver's frequency grid (MHz), its eigen-weights over the grid
    and at the sink (MHz^-1) for the even n, the mean-reversion rate theta
    (the eigenvalues are n theta), and the scale that turns w_f into MHz^-1
    (1 for w_f already in MHz^-1)."""

    grid: np.ndarray
    w_f: np.ndarray
    w_sink: np.ndarray
    theta: float
    scale: float


def model_unit_sink(model: OuDiffusionModel, settings) -> EigenSink:
    """Eigen-weights in frequency units, rebuilt per model by ``weight_table``
    over a grid of +-GRID_HALFWIDTH_SIGMAS stationary standard deviations in
    MHz and at the sink point f = 0."""
    half = GRID_HALFWIDTH_SIGMAS * math.sqrt(model.stationary_variance)
    grid = np.linspace(-half, half, settings.grid_points)
    return EigenSink(grid, weight_table(model, grid, settings.n_eigen),
                     weight_table(model, np.array([0.0]), settings.n_eigen)[:, 0],
                     model.theta, 1.0)


def folded_unit_sink(model: OuDiffusionModel, settings) -> EigenSink:
    """Eigen-weights in oscillator units by ``unit_weight_table`` over a grid
    of +-GRID_HALFWIDTH_SIGMAS / sqrt(2) and at x = 0; the frequency grid is
    x / scale and the sink weights carry the scale."""
    half = GRID_HALFWIDTH_SIGMAS / math.sqrt(2.0)
    x = np.linspace(-half, half, settings.grid_points)
    scale = _x_units(model)
    return EigenSink(x / scale, unit_weight_table(x, settings.n_eigen),
                     scale * unit_weight_table(np.array([0.0]), settings.n_eigen)[:, 0],
                     model.theta, scale)


def sink_inverse_two_resolvents(ref: EigenSink, coef: np.ndarray, taus,
                                strength: float) -> np.ndarray:
    """Fixed-Talbot inverse of the sink solution projected on coef, with a
    separate resolvent table 1/(n theta + s) for P~0(coef) and P~0(sink)."""
    taus = np.asarray(taus, dtype=float)
    s, gamma = _talbot_nodes(taus, INVERSION_NODES)
    n_theta = np.arange(0, 2 * ref.w_sink.size, 2) * ref.theta
    p0 = np.tensordot(coef, np.reciprocal(np.add.outer(n_theta, s)), axes=(-1, 0))
    p0_sink = np.tensordot(ref.w_sink, np.reciprocal(np.add.outer(n_theta, s)), axes=(-1, 0))
    vals = p0 / (1.0 + strength * p0_sink)
    out = 2.0 / (5.0 * taus) * np.real(vals @ gamma)
    return float(out) if out.ndim == 0 else out


def sink_inverse_real_per_contour(ref: EigenSink, coef: np.ndarray, taus,
                                  strength: float) -> np.ndarray:
    """Fixed-Talbot inverse of the sink solution projected on coef in real
    arithmetic, one Talbot contour of INVERSION_NODES nodes at a time: the
    n = 0 mode as w_0 / s, and for the even n >= 2, in units of theta,
    x = n + Re(s)/theta, y = Im(s)/theta, q = 1/(x^2 + y^2), with
    Re P~0 = W (x q) / theta and Im P~0 = -(y / theta) W q from the rows W
    of coef and the sink weights stacked into one matrix."""
    taus = np.asarray(taus, dtype=float)
    s, gamma = _talbot_nodes(taus, INVERSION_NODES)
    rows = np.vstack((np.reshape(coef, (-1, ref.w_sink.size)), ref.w_sink))
    n = np.arange(2, 2 * ref.w_sink.size, 2, dtype=float)[:, None]
    p0 = np.empty((rows.shape[0],) + s.shape, dtype=complex)
    for index in np.ndindex(taus.shape):
        contour = s[index]
        a = contour.real / ref.theta
        y = contour.imag / ref.theta
        x = n + a
        q = 1.0 / (x * x + y * y)
        values = rows[:, :1] / contour
        values.real += (rows[:, 1:] @ (x * q)) / ref.theta
        values.imag -= (y / ref.theta) * (rows[:, 1:] @ q)
        p0[(slice(None),) + index] = values
    p0_sink = p0[-1]
    vals = p0[:-1].reshape(np.shape(coef)[:-1] + s.shape) / (1.0 + strength * p0_sink)
    out = 2.0 / (5.0 * taus) * np.real(vals @ gamma)
    return float(out) if out.ndim == 0 else out


def sink_counts_reference(ref: EigenSink, line: HomogeneousLine, taus, strength: float,
                          inverse=sink_inverse_two_resolvents) -> np.ndarray:
    """Counts of ``SinkSolver.counts_factorized`` through ``inverse``."""
    weights = _trapezoid_weights(ref.grid) * line.counts(-ref.grid)
    return inverse(ref, ref.scale * (ref.w_f @ weights), taus, strength)


def sink_pdf_reference(ref: EigenSink, tau: float, strength: float,
                       inverse=sink_inverse_two_resolvents) -> np.ndarray:
    """``SinkSolver.pdf`` through ``inverse``."""
    return inverse(ref, ref.scale * ref.w_f.T, tau, strength)


def sink_survival_reference(ref: EigenSink, tau: float, strength: float,
                            inverse=sink_inverse_two_resolvents) -> float:
    """``SinkSolver.survival`` through ``inverse``."""
    coef = ref.scale * (ref.w_f @ _trapezoid_weights(ref.grid))
    return float(inverse(ref, coef, tau, strength))


def talbot_contour_per_call(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-Talbot contour t s_k and weights gamma_k of m nodes, by the
    formula evaluated afresh on every call."""
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    ts = 0.4 * m * np.concatenate(([1.0], theta * (cot + 1j)))
    gamma = np.exp(ts) * np.concatenate(([0.5], 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot))
    return ts, gamma


def joint_backward_model_per_power(x: np.ndarray, params, sizes, gamma_h: float) -> np.ndarray:
    """The joint backward-fit model, one ``counts_no_ionization`` call per
    power; params are gamma_i, then D and C0 per power."""
    out = np.empty_like(x)
    start = 0
    for i, n in enumerate(sizes):
        sl = slice(start, start + n)
        model = OuDiffusionModel(d_coeff=params[1 + 2 * i], gamma_i=params[0])
        out[sl] = counts_no_ionization(model, HomogeneousLine(params[2 + 2 * i], gamma_h), x[sl])
        start += n
    return out


def voigt_quadrature(x: float, sigma: float, gamma_hwhm: float) -> float:
    """Gaussian (*) Lorentzian density at x, by adaptive quadrature."""
    from scipy.integrate import quad

    def integrand(f):
        g = math.exp(-0.5 * (f / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        lorentz = gamma_hwhm / (math.pi * ((x - f) ** 2 + gamma_hwhm ** 2))
        return g * lorentz

    val, _ = quad(integrand, -12 * sigma, 12 * sigma, limit=400)
    return val


def wls_normal_equations(design: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Weighted linear least squares via the normal equations."""
    w = np.sqrt(weights)
    a = design * w[:, None]
    b = y * w
    params, *_ = np.linalg.lstsq(a, b, rcond=None)
    cov = np.linalg.inv(a.T @ a)
    return params, cov


def forward_jacobian_per_column(fn: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                                r0: np.ndarray, scale: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        # relative step on the larger of the current value and the typical
        # scale (from the initial guess), so parameters converging to zero
        # keep a resolvable step; absolute fallback if both vanish
        typ = max(abs(p[i]), scale[i])
        h = 1e-6 * typ if typ != 0.0 else 1e-6
        pp = p.copy()
        pp[i] += h
        jac[:, i] = (fn(pp) - r0) / h
    return jac


def least_squares_sequential(model_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                             params0: Sequence[float],
                             x: np.ndarray,
                             y: np.ndarray,
                             sigma: np.ndarray | None = None,
                             bounds: Sequence[tuple[float, float]] | None = None,
                             param_names: Sequence[str] | None = None) -> FitResult:
    """``fitting.least_squares`` as it was before batched model calls: one
    call per Jacobian column and one per damped trial step, each with one
    parameter vector.  Levenberg-Marquardt fit of model_fn(x, params) to y.

    Weighted by 1/sigma when sigma is given.  Bounds are (lo, hi) pairs per
    parameter; trial steps are projected into the box.  A start point whose
    cost is not finite is a ValueError; trial steps with a non-finite cost
    are rejected.  On reaching MAX_ITER the last iterate is returned with
    converged=False.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(params0, dtype=float)
    npar = p.size
    names = list(param_names) if param_names is not None else [f"p{i}" for i in range(npar)]
    if sigma is not None:
        w = 1.0 / np.asarray(sigma, dtype=float)
    else:
        w = np.ones_like(y)
    lo = np.full(npar, -np.inf)
    hi = np.full(npar, np.inf)
    if bounds is not None:
        for i, (l, h) in enumerate(bounds):
            lo[i], hi[i] = l, h
        if np.any(p < lo) or np.any(p > hi):
            raise FitError("initial parameters must lie within bounds")

    def residuals(params: np.ndarray) -> np.ndarray:
        return (model_fn(x, params) - y) * w

    typical = np.abs(p)

    def scaled_normal(jac: np.ndarray):
        # rescale to a unit-diagonal normal matrix; parameters with zero
        # sensitivity get scale 0 and are frozen
        hess = jac.T @ jac
        d = np.sqrt(np.diag(hess))
        ok = np.isfinite(d) & (d > 0.0)
        dinv = np.zeros_like(d)
        dinv[ok] = 1.0 / d[ok]
        hs = dinv[:, None] * hess * dinv[None, :]
        np.fill_diagonal(hs, np.where(ok, 1.0, 0.0))
        return hs, dinv, ok

    r = residuals(p)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError(f"the cost at the start point is {cost!r}, not finite")
    lam = 1e-3
    converged = False
    message = "max iterations reached"
    it = 0
    for it in range(1, MAX_ITER + 1):
        jac = forward_jacobian_per_column(residuals, p, r, scale=typical)
        grad = jac.T @ r
        if float(np.max(np.abs(grad), initial=0.0)) < 1e-16 * max(cost, 1e-30):
            converged = True
            message = "gradient below tolerance"
            break
        hs, dinv, ok = scaled_normal(jac)
        grad_s = dinv * grad
        accepted = False
        for _ in range(60):
            try:
                ys = np.linalg.solve(hs + lam * np.eye(npar), -grad_s)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            step = dinv * ys
            p_trial = np.clip(p + step, lo, hi)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cost rejects it
                r_trial = residuals(p_trial)
                cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial < cost:
                rel_step = float(np.max(np.abs(p_trial - p) / np.maximum(np.abs(p), 1e-30)))
                df = cost - cost_trial
                p, r, cost = p_trial, r_trial, cost_trial
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel_step < XTOL or df < FTOL * max(cost, 1e-300):
                    converged = True
                    message = "step/cost below tolerance"
                break
            lam *= 2.0
        if converged:
            break
        if not accepted:
            converged = True
            message = "no downhill step found (local minimum or stalled)"
            break

    # covariance at the solution, via the scaled normal matrix
    jac = forward_jacobian_per_column(residuals, p, r, scale=typical)
    dof = len(y) - npar
    reduced = cost / dof if dof > 0 else float("nan")
    hs, dinv, ok = scaled_normal(jac)
    try:
        if not np.all(ok):
            raise np.linalg.LinAlgError
        cov = dinv[:, None] * np.linalg.inv(hs) * dinv[None, :]
        if sigma is None:
            cov = cov * reduced  # nan without a residual degree of freedom
    except np.linalg.LinAlgError:
        cov = np.full((npar, npar), np.nan)
        converged = False
        message = "singular normal equations (unidentifiable parameters)"
    stderr = {n: float(math.sqrt(abs(cov[i, i]))) if np.isfinite(cov[i, i]) else float("nan")
              for i, n in enumerate(names)}
    return FitResult(param_names=names,
                     params={n: float(v) for n, v in zip(names, p)},
                     stderr=stderr, covariance=cov,
                     reduced_chi2=float(reduced),
                     converged=converged, n_iter=it, message=message)


def fokker_planck_fd(theta: float, d_coeff: float, strength_s: float,
                     tau: float, half_width: float, n_cells: int = 1200,
                     n_steps: int = 2400) -> tuple[np.ndarray, np.ndarray]:
    """Crank-Nicolson integration of the sink Fokker-Planck equation.

    dP/dt = theta d/df (f P) + D d2P/df2 - S delta(f) P, started from a
    narrow Gaussian at f = 0; the delta sink is one grid cell of weight
    1/df.  Returns (grid, P(grid, tau)).  Deliberately shares nothing with
    the eigenfunction/Laplace solver it cross-checks.
    """
    f = np.linspace(-half_width, half_width, n_cells)
    df = f[1] - f[0]
    # drift theta*d/df(f P) upwinded, diffusion centred
    main = np.full(n_cells, -2.0 * d_coeff / df ** 2)
    upper = np.full(n_cells - 1, d_coeff / df ** 2)
    lower = np.full(n_cells - 1, d_coeff / df ** 2)
    # conservative drift flux J = -theta f P: dP/dt += -(J_{i+1/2}-J_{i-1/2})/df,
    # flux between cells i and i+1 at f_{i+1/2}; upwind: for fm > 0 the drift
    # -theta*f pushes left (uses the right cell)
    fm = 0.5 * (f[:-1] + f[1:])
    right = np.where(fm > 0, theta * fm / df, 0.0)
    left = np.where(fm > 0, 0.0, theta * fm / df)
    upper += right
    main[1:] -= right
    main[:-1] += left
    lower -= left
    centre = n_cells // 2
    main[centre] -= strength_s / df

    # Crank-Nicolson A P' = B P, with A = 1 - dt/2 L tridiagonal: one banded
    # solve per step
    dt = tau / n_steps
    banded = np.zeros((3, n_cells))
    banded[0, 1:] = -0.5 * dt * upper
    banded[1] = 1.0 - 0.5 * dt * main
    banded[2, :-1] = -0.5 * dt * lower
    sigma0 = 1.5 * df
    p = np.exp(-0.5 * (f / sigma0) ** 2)
    p /= np.trapezoid(p, f)
    for _ in range(n_steps):
        lp = main * p
        lp[:-1] += upper * p[1:]
        lp[1:] += lower * p[:-1]
        p = solve_banded((1, 1), banded, p + 0.5 * dt * lp, check_finite=False)
    return f, p


def field_sum_mp(components: list[tuple[float, float, float]], t_minus_t0: float) -> float:
    """Term-by-term field summation in extended precision.

    components: (amplitude_T, frequency_Hz, phase_rad).
    """
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for amp, freq, phase in components:
            w = 2 * mpmath.pi * mpmath.mpf(freq)
            total += mpmath.mpf(amp) * mpmath.cos(w * mpmath.mpf(t_minus_t0) + mpmath.mpf(phase))
        return float(total)


# ---------------------------------------------------------------------------
# brute-force spin baths: every spin drawn and summed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledBath:
    """Spin positions (radius, cos of polar angle) and z couplings in Hz."""

    r: np.ndarray
    cos_theta: np.ndarray
    couplings_hz: np.ndarray

    def __len__(self) -> int:
        return self.r.size


def _draw_counts(mean: float, rng: np.random.Generator, n: int) -> np.ndarray:
    base = math.floor(mean)
    return base + (rng.random(n) < mean - base)


def hyperfine_z(r, cos_theta, species: str = "carbon13", constants=CONSTANTS):
    """Secular z coupling (Hz) of a bath spin at (r, cos theta):
    p (3 cos^2 theta - 1) / (2 pi r^3) with the library's prefactor p."""
    r, cos_theta = np.asarray(r, dtype=float), np.asarray(cos_theta, dtype=float)
    if not np.all(r > 0.0):
        raise ValueError("r must be > 0")
    if np.any(np.abs(cos_theta) > 1.0):
        raise ValueError("|cos_theta| must be <= 1")
    pref = _coupling_prefactor(species, constants)
    return pref * (3.0 * cos_theta ** 2 - 1.0) / r ** 3 / TWO_PI


def sample_bath(cfg: BathConfig, rng: np.random.Generator,
                constants=CONSTANTS) -> SampledBath:
    """One bath: positions uniform in the r_max ball, count from the mean
    density by stochastic rounding, strong couplings filtered."""
    n = int(_draw_counts(cfg.mean_spin_count(constants), rng, 1)[0])
    # uniform in the ball: r^3 uniform; 1 - u keeps r strictly positive
    r = cfg.r_max * np.cbrt(1.0 - rng.random(n))
    cos_theta = 2.0 * rng.random(n) - 1.0
    couplings = hyperfine_z(r, cos_theta, cfg.species, constants)
    if cfg.exclude_above_hz is not None:
        keep = np.abs(couplings) <= cfg.exclude_above_hz
        r, cos_theta, couplings = r[keep], cos_theta[keep], couplings[keep]
    return SampledBath(r=r, cos_theta=cos_theta, couplings_hz=couplings)


def t2star_of_bath(bath: SampledBath) -> float:
    """sqrt(2)/Gamma_z with Gamma_z^2 = sum (2 pi A_Hz)^2 / 4; inf if empty."""
    if len(bath) == 0:
        return math.inf
    gamma2 = 0.25 * float(np.sum((TWO_PI * bath.couplings_hz) ** 2))
    return math.sqrt(2.0 / gamma2)


def gamma2_sums(u: np.ndarray, c: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-bath sums of (3 cos^2 theta - 1)^2 / (r / r_max)^6 for consecutive
    baths of the given spin counts, with r^3 = r_max^3 (1 - u) and
    cos theta = 2 c - 1; empty baths sum to 0."""
    t = 3.0 * (2.0 * c - 1.0) ** 2 - 1.0
    t = (t / (1.0 - u)) ** 2
    return np.bincount(np.repeat(np.arange(counts.size), counts), weights=t,
                       minlength=counts.size)


def brute_force_t2star(cfg: BathConfig, n_baths: int, rng: np.random.Generator,
                       constants=CONSTANTS, batch_spins: int = 4_000_000) -> np.ndarray:
    """T2* samples (s) from the sum over every spin of every bath.

    Filtered baths go through sample_bath one by one; unfiltered ones draw
    whole batches of at most batch_spins spins and reduce them with
    gamma2_sums.
    """
    if cfg.exclude_above_hz is not None:
        return np.array([t2star_of_bath(sample_bath(cfg, rng, constants))
                         for _ in range(n_baths)])
    mean = cfg.mean_spin_count(constants)
    pref = _coupling_prefactor(cfg.species, constants) / cfg.r_max ** 3
    batch = max(1, int(batch_spins / max(mean, 1.0)))
    samples = []
    for done in range(0, n_baths, batch):
        counts = _draw_counts(mean, rng, min(batch, n_baths - done))
        total = int(counts.sum())
        sums = gamma2_sums(rng.random(total), rng.random(total), counts)
        with np.errstate(divide="ignore"):
            samples.append(np.sqrt(2.0 / (0.25 * pref * pref * sums)))
    return np.concatenate(samples)


def t2star_with_temporaries(cfg: BathConfig, n_baths: int, rng: np.random.Generator,
                            constants=CONSTANTS, batch_size: int = 2048) -> np.ndarray:
    """The near/far sampler with one fresh array per near-spin operation and
    np.where for the filter and the empty baths: the same draws, arithmetic
    and segment sums (np.add.reduceat over the batch's spins back to back)
    as ``t2star_distribution``, which works in place."""
    mean = cfg.mean_spin_count(constants)
    p = _coupling_prefactor(cfg.species, constants)
    h = cfg.exclude_above_hz
    v_c = 0.0 if h is None else 2.0 * p / (TWO_PI * cfg.r_max ** 3 * h)
    v0 = min(1.0, max(NEAR_SPINS / mean, v_c))
    if v0 < 1.0:
        far_mean = _G2_MEAN / v0
        far_var = _G4_MEAN * (1.0 / v0 ** 3 - 1.0) / (3.0 * (1.0 - v0)) - far_mean ** 2
    samples = np.empty(n_baths)
    batch_size = max(1, min(batch_size, int(_BATCH_SPINS / max(mean * v0, 1.0))))
    for done in range(0, n_baths, batch_size):
        nb = min(batch_size, n_baths - done)
        counts = _draw_counts(mean, rng, nb)
        n_near = rng.binomial(counts, v0)
        total = int(n_near.sum())
        v = v0 * (1.0 - rng.random(total))
        g = 3.0 * rng.random(total) ** 2 - 1.0
        terms = (g / v) ** 2
        if h is not None:
            terms = np.where(np.abs(g) * v_c <= 2.0 * v, terms, 0.0)
        starts = np.concatenate(([0], np.cumsum(n_near)[:-1]))
        sums = np.add.reduceat(np.append(terms, 0.0), starts)
        sums = np.where(n_near > 0, sums, 0.0)
        if v0 < 1.0:
            n_far = counts - n_near
            sums += np.maximum(rng.normal(n_far * far_mean, np.sqrt(n_far * far_var)), 0.0)
        gamma2 = 0.25 * (p / cfg.r_max ** 3) ** 2 * sums
        with np.errstate(divide="ignore"):
            samples[done:done + nb] = np.sqrt(2.0 / gamma2)
    return samples


def filtered_inverse_square_mean(cfg: BathConfig, constants=CONSTANTS) -> float:
    """E[1 / T2*^2] (s^-2) of a bath with |A| > exclude_above_hz removed, by
    adaptive quadrature over cos theta.

    1/T2*^2 = (pi^2 / 2) sum A_j^2 with A in Hz.  A spin at v = (r/r_max)^3
    (uniform on (0, 1)) has |A| = K / v with K = p |3c^2 - 1| / (2 pi r_max^3),
    so E[A^2 1{|A| <= H}] = integral over v in (K/H, 1) of K^2 / v^2,
    that is (K H - K^2)^+.
    """
    from scipy.integrate import quad

    k_unit = _coupling_prefactor(cfg.species, constants) / (TWO_PI * cfg.r_max ** 3)
    h = cfg.exclude_above_hz

    def per_spin(c):
        k = k_unit * abs(3.0 * c * c - 1.0)
        return max(k * h - k * k, 0.0)

    val, _ = quad(per_spin, 0.0, 1.0, points=[1.0 / math.sqrt(3.0)], limit=200)
    return 0.5 * math.pi ** 2 * cfg.mean_spin_count(constants) * val


# ---------------------------------------------------------------------------
# feedforward drift and shots: one scalar draw per trajectory step, one
# uniform array per shot block, every clip through np.clip
# ---------------------------------------------------------------------------

def amplitude_trajectory_loop(proc, times, rng: np.random.Generator) -> np.ndarray:
    """Clipped OU scale factor a(t), one ``rng.standard_normal()`` per time."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.empty(0)
    out = np.empty(times.size)
    tau = proc.correlation_time
    a = 1.0 + proc.sigma * rng.standard_normal()
    out[0] = a = float(np.clip(a, proc.a_min, proc.a_max))
    for i in range(1, times.size):
        dt = times[i] - times[i - 1]
        decay = math.exp(-dt / tau) if dt / tau < 700.0 else 0.0
        innov = proc.sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
        a = 1.0 + (a - 1.0) * decay + innov * rng.standard_normal()
        out[i] = a = float(np.clip(a, proc.a_min, proc.a_max))
    return out


def _shot_block(true_expectations: np.ndarray, cfg, rng: np.random.Generator) -> float:
    if cfg.exact:
        return float(np.clip(np.mean(true_expectations), -1.0, 1.0))
    # read at call time, so a test that sets the library's fidelity sets
    # the reference's too
    f0 = f1 = feedforward.READOUT_FIDELITY
    p_up = 0.5 * (1.0 + true_expectations)
    p_click = np.clip(p_up * f1 + (1.0 - p_up) * (1.0 - f0), 0.0, 1.0)
    clicks = rng.random(p_click.size) < p_click
    p_up_est = (float(np.mean(clicks)) - (1.0 - f0)) / (f1 + f0 - 1.0)
    return float(np.clip(2.0 * p_up_est - 1.0, -1.0, 1.0))


def feedforward_loop(model: AcFieldModel, taus, cfg, drift, rng: np.random.Generator,
                     n_repetitions: int = 12,
                     estimate_each_repetition: bool = True) -> list[FeedforwardOutcome]:
    """The X / Y / C block protocol shot block by shot block.  Each block
    draws its n_shots uniforms in turn (none in exact mode), and a block that
    does not run draws and discards them."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = cfg.n_shots
    phis = phase_of(model, PulseSequence.hahn(taus))
    outcomes = []
    for tau, phi_unit in zip(taus, phis):
        shot_times = np.arange(3 * n * n_repetitions) * SHOT_PERIOD
        a_traj = (np.ones(shot_times.size) if drift is None
                  else amplitude_trajectory_loop(drift, shot_times, rng))
        phi_est = x_raw = y_raw = float("nan")
        c_values = []
        for rep in range(n_repetitions):
            base = 3 * n * rep
            a_x = a_traj[base:base + n]
            a_y = a_traj[base + n:base + 2 * n]
            a_c = a_traj[base + 2 * n:base + 3 * n]
            if estimate_each_repetition or rep == 0:
                x_raw = _shot_block(np.cos(a_x * phi_unit), cfg, rng)
                y_raw = _shot_block(np.sin(a_y * phi_unit), cfg, rng)
                phi_est = (float("nan") if x_raw == 0.0 and y_raw == 0.0
                           else math.atan2(y_raw, x_raw))
            elif not cfg.exact:
                rng.random(2 * n)  # the X and Y blocks that do not run
            if math.isnan(phi_est):
                if not cfg.exact:
                    rng.random(n)  # the C block that does not run
                c_values.append(0.0)
                continue
            c_values.append(_shot_block(np.cos(a_c * phi_unit - phi_est), cfg, rng))
        outcomes.append(FeedforwardOutcome(
            tau=float(tau), phi_estimate=phi_est, c_expectation=float(np.mean(c_values)),
            x_raw=x_raw, y_raw=y_raw))
    return outcomes


# ---------------------------------------------------------------------------
# CSV output: one csv.writer row per record, each cell formatted by type
# ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return repr(float(v))


def write_csv_rows(path, header, rows, comment: str | None = None) -> None:
    """Row-wise CSV writer: an optional comment line, the header, then one
    ``csv.writer`` row per record."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


# ---------------------------------------------------------------------------
# SVG output: each point mapped and formatted on its own
# ---------------------------------------------------------------------------

def svg_per_point(plot: SvgPlot) -> str:
    """The text of ``plot`` as ``SvgPlot.write`` writes it, from the scale
    lambdas called once per point on a numpy scalar."""
    (x0, x1), (y0, y1) = plot._limits()
    sx = lambda v: _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)
    sy = lambda v: _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="14" text-anchor="middle" font-size="13">{plot.title}</text>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{_H-_MB}" x2="{sx(tx):.1f}" '
                     f'y2="{_H-_MB+4}" stroke="black"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{_H-_MB+16}" text-anchor="middle" '
                     f'font-size="10">{tx:g}</text>')
    for ty in _ticks(y0, y1):
        parts.append(f'<line x1="{_ML-4}" y1="{sy(ty):.1f}" x2="{_ML}" '
                     f'y2="{sy(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML-6}" y="{sy(ty)+3:.1f}" text-anchor="end" '
                     f'font-size="10">{ty:g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
                 'fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W/2:.0f}" y="{_H-8}" text-anchor="middle" '
                 f'font-size="12">{plot.xlabel}</text>')
    parts.append(f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {_H/2:.0f})">{plot.ylabel}</text>')
    if plot.bars is not None:
        edges, counts = plot.bars
        for i, cval in enumerate(counts):
            xl, xr = sx(edges[i]), sx(edges[i + 1])
            yb, ytop = sy(0.0), sy(cval)
            parts.append(f'<rect x="{xl:.1f}" y="{ytop:.1f}" width="{max(xr-xl-0.5,0.5):.1f}" '
                         f'height="{max(yb-ytop,0):.1f}" fill="#aec7e8" stroke="none"/>')
    for i, (x, y, label, style) in enumerate(plot.series):
        color = _COLORS[i % len(_COLORS)]
        m = np.isfinite(x) & np.isfinite(y)
        pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(x[m], y[m]))
        if style == "line":
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        else:
            for a, b in zip(x[m], y[m]):
                parts.append(f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="2.5" '
                             f'fill="{color}"/>')
        if label:
            parts.append(f'<text x="{_W-_MR-8}" y="{_MT+14+14*i}" text-anchor="end" '
                         f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
