"""Nonlinear least-squares engine and the decay/scaling fits built on it.

The engine is a damped Gauss-Newton (Levenberg-Marquardt) minimizer of
weighted squared residuals with a forward-difference Jacobian (relative
step 1e-6) and box bounds enforced by projection.  It is deterministic:
same inputs, same iterates.

Models take rows of parameter vectors: model_fn(x, params) accepts params
with leading axes (parameter i read as params[..., i, None] broadcasts
against x) and returns one row of values per row of params, each equal bit
for bit to a call with that row alone.  The engine evaluates the whole
Jacobian in one call and its damped trial steps in doubling batches, one
call each, holding at most max(number of parameters + 1, 29) rows of len(x)
model values at a time.

It stops at a KKT point to within the cost's roundoff: a parameter at a
bound whose cost gradient points out of the box is held there, and the fit
has converged when the Gauss-Newton reduction predicted over the others is
below FLOOR_MARGIN times the cost's roundoff floor, which each fit measures
at its start point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .files import (DataError, FitError, csv_rows, finite, increasing_finite, positive_finite,
                    write_csv)

__all__ = [
    "DecayCurve",
    "FitResult",
    "least_squares",
    "fit_stretched_exp",
    "fit_power_scaling",
    "stretched_exp",
    "read_decay_csv",
    "write_decay_csv",
]

#: iteration cap of the Levenberg-Marquardt engine
MAX_ITER = 500
#: relative parameter step below which it stops
XTOL = 1e-12
#: the tolerance of the predicted cost reduction, in units of the cost's
#: roundoff floor.  Measured on the README fits and the benchmark's
#: (spectral_fits at seeds 1-5 and 9001, `fit decay` of `simulate
#: feedforward` at seeds 0-11), the floor is 1.7e-15 to 3.5e-15 of the cost
#: for a stretched exponential without sigma, 1.4e-12 to 3e-12 with sigma,
#: 3.4e-13 to 6.6e-13 for the joint backward Voigt fit and 3.3e-13 to
#: 3.3e-12 for the Arrhenius fit; for the sink model of `fit ionization` it
#: is 1.5e-15 to 5e-15 on README run8 and the three fixture powers.  At 100
#: times the floor, another BLAS kernel moves neither n_iter nor message of
#: the README fits run6, run7 and run11; run8 takes 7 iterations under the
#: Prescott kernel, 6 under SkylakeX and Haswell
FLOOR_MARGIN = 100.0


@dataclass(frozen=True)
class DecayCurve:
    """Samples (x, y) with optional standard errors sigma."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have equal length")
        if self.sigma is not None and self.sigma.shape != self.x.shape:
            raise ValueError("sigma must match x")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("x must be strictly increasing")

    def __len__(self) -> int:
        return self.x.size


@dataclass
class FitResult:
    param_names: list[str]
    params: dict[str, float]
    stderr: dict[str, float]
    covariance: np.ndarray
    reduced_chi2: float
    converged: bool
    n_iter: int = 0
    message: str = ""
    #: parameters held at a bound that the cost gradient points out of
    at_bound: list[str] = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([self.params[k] for k in self.param_names])


def _forward_jacobian(fn: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                      r0: np.ndarray, scale: np.ndarray, probe: bool = False):
    """Forward-difference Jacobian of fn at p, shape (r0.size, p.size) and
    C-contiguous, from one call of fn on the p.size stepped rows.

    With probe, the same call also takes a row with every parameter moved by
    2^-20 of its step (some 4000 ulps), and (jacobian, that move, fn of that
    row) is returned."""
    # relative step on the larger of the current value and the typical
    # scale (from the initial guess), so parameters converging to zero
    # keep a resolvable step; absolute fallback if both vanish
    typ = np.where(scale > np.abs(p), scale, np.abs(p))
    h = np.where(typ != 0.0, 1e-6 * typ, 1e-6)
    rows = np.full((p.size + probe, p.size), p)
    rows.flat[:p.size * p.size:p.size + 1] = p + h
    if probe:
        rows[-1] = p + np.ldexp(h, -20)
    values = fn(rows)
    jac = ((values[:p.size] - r0) / h[:, None]).T.copy()
    return (jac, rows[-1] - p, values[-1]) if probe else jac


def _roundoff_noise(jac: np.ndarray, move: np.ndarray, r_moved: np.ndarray,
                    r0: np.ndarray, values: np.ndarray) -> float:
    """The residuals' roundoff noise: the norm of what the Jacobian does not
    predict of their change over a parameter move far below its step but far
    above an ulp, and at least eps times the norm of the weighted model
    values, their own rounding.  0 if not finite.  A cost |r|^2 is then
    known to |noise| (2 |r| + |noise|)."""
    with np.errstate(over="ignore", invalid="ignore"):
        noise = max(float(np.linalg.norm(r_moved - r0 - jac @ move)),
                    np.finfo(float).eps * float(np.linalg.norm(values)))
    return noise if math.isfinite(noise) else 0.0


def least_squares(model_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  params0: Sequence[float],
                  x: np.ndarray,
                  y: np.ndarray,
                  sigma: np.ndarray | None = None,
                  bounds: Sequence[tuple[float, float]] | None = None,
                  param_names: Sequence[str] | None = None) -> FitResult:
    """Levenberg-Marquardt fit of model_fn(x, params) to y.

    model_fn takes rows of parameter vectors and returns one row of values
    per row, each equal bit for bit to a call with that row alone.  One call
    evaluates the forward-difference Jacobian (the first also the roundoff
    probe row); the damped trials lambda 2^j, j < 60, go in batches of 1, 2,
    4, 8, 16 and 29 rows, one call each, and the first row in lambda order
    whose cost is finite and lower is taken.  The Jacobian for the
    covariance is not evaluated again when the point has not moved since the
    last one.  So the iterates, n_iter and message are those of one call per
    Jacobian column, probe and trial, and a call holds at most
    max(len(params0) + 1, 29) rows of len(x) values.

    A parameter at a bound whose cost gradient points out of the box is held
    there for the iteration; those held at the end are listed in at_bound.
    The tolerance is FLOOR_MARGIN times the cost's roundoff floor, from the
    noise that the probe measures at the start point.  When the Gauss-Newton
    reduction predicted over the free parameters is within it, one damped
    step is still tried, and the fit has converged where that step is
    rejected or leads to a point within the tolerance too.

    Weighted by 1/sigma when sigma is given; without sigma the covariance is
    scaled by the reduced chi^2, so with no more points than parameters it is
    nan (unknown).  The covariance covers the free parameters; the rows and
    columns of those at a bound are zero.  Bounds are (lo, hi) pairs per
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

    def scaled_normal(jac: np.ndarray, held: np.ndarray):
        # rescale to a unit-diagonal normal matrix; parameters with zero
        # sensitivity, or held at a bound, get scale 0 and are frozen
        hess = jac.T @ jac
        d = np.sqrt(np.diag(hess))
        ok = np.isfinite(d) & (d > 0.0) & ~held
        dinv = np.zeros_like(d)
        dinv[ok] = 1.0 / d[ok]
        hs = dinv[:, None] * hess * dinv[None, :]
        np.fill_diagonal(hs, np.where(ok, 1.0, 0.0))
        return hs, dinv, ok

    def at_bound(grad: np.ndarray) -> np.ndarray:
        # a descent step would leave the box through these bounds
        return (p <= lo) & (grad > 0.0) | (p >= hi) & (grad < 0.0)

    r = residuals(p)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError(f"the cost at the start point is {cost!r}, not finite")
    jac, move, r_moved = _forward_jacobian(residuals, p, r, typical, probe=True)
    noise = _roundoff_noise(jac, move, r_moved, r, r + w * y)
    lam = 1e-3
    # the damping loop tries lam 2^j, j < 60, in batches of 1, 2, 4, 8, 16, 29
    doubling = np.ldexp(1.0, np.arange(60))
    eye = np.eye(npar)
    converged = False
    message = "max iterations reached"
    polished = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        if jac is None:
            jac = _forward_jacobian(residuals, p, r, typical)
        grad = jac.T @ r
        held = at_bound(grad)
        hs, dinv, ok = scaled_normal(jac, held)
        grad_s = dinv * grad
        # the Gauss-Newton reduction of the cost over the free parameters:
        # within the tolerance, one damped step is still tried, and the fit
        # stops where that step is rejected or leads to a point within too
        try:
            free = np.ix_(ok, ok)
            predicted = float(grad_s[ok] @ np.linalg.solve(hs[free], grad_s[ok]))
        except np.linalg.LinAlgError:
            predicted = math.inf
        within = 0.0 <= predicted <= FLOOR_MARGIN * noise * (2.0 * math.sqrt(cost) + noise)
        if within and polished:
            converged = True
            message = "predicted reduction below tolerance"
            break
        accepted = False
        start, size = 0, 1
        while start < (1 if within else 60) and not accepted:
            lams = lam * doubling[start:start + size]
            ys = np.linalg.solve(hs + lams[:, None, None] * eye, -grad_s[:, None])
            trials = np.clip(p + dinv * ys[..., 0], lo, hi)
            # a trial whose model or cost overflows is rejected by its
            # non-finite cost, so it raises no warning
            with np.errstate(over="ignore", invalid="ignore"):
                r_trials = residuals(trials)
                costs = [float(r_trial @ r_trial) for r_trial in r_trials]
            for lam_trial, p_trial, r_trial, cost_trial in zip(lams, trials, r_trials, costs):
                if math.isfinite(cost_trial) and cost_trial < cost:
                    rel_step = float(np.max(np.abs(p_trial - p) / np.maximum(np.abs(p), 1e-30)))
                    p, r, cost = p_trial, r_trial, cost_trial
                    lam = max(float(lam_trial) / 3.0, 1e-14)
                    accepted = True
                    jac = None  # p moved
                    if rel_step < XTOL and not within:
                        converged = True
                        message = "step below tolerance"
                    break
            start += size
            size *= 2
        polished = within
        if converged:
            break
        if not accepted:
            converged = True
            message = ("predicted reduction below tolerance" if within
                       else "no downhill step found (local minimum or stalled)")
            break

    # covariance at the solution, via the scaled normal matrix of the free
    # parameters
    if jac is None:
        jac = _forward_jacobian(residuals, p, r, typical)
    held = at_bound(jac.T @ r)
    dof = len(y) - npar
    reduced = cost / dof if dof > 0 else float("nan")
    hs, dinv, ok = scaled_normal(jac, held)
    cov = np.zeros((npar, npar))
    try:
        if not np.all(ok | held):
            raise np.linalg.LinAlgError
        free = np.ix_(ok, ok)
        cov[free] = dinv[ok][:, None] * np.linalg.inv(hs[free]) * dinv[ok][None, :]
        if sigma is None:
            cov = cov * reduced
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
                     converged=converged, n_iter=it, message=message,
                     at_bound=[n for n, b in zip(names, held) if b])


def stretched_exp(x, params):
    """A exp[-(x / t2)^n] for params (A, t2, n), or for rows of them along
    leading axes, one row of values each.

    Rows are evaluated one at a time, with scalar parameters: numpy takes
    other paths for a scalar exponent of 0.5, 2 or -1 (a square root, a
    square, a reciprocal) than for a broadcast column of exponents, so only
    this keeps every row equal, bit for bit, to a call with that row alone."""
    x = np.asarray(x, dtype=float)
    params = np.asarray(params, dtype=float)
    if params.ndim > 1:
        return np.array([stretched_exp(x, row) for row in params])
    a, t2, n = params
    # a power that overflows to inf decays to exp(-inf) = 0, its exact limit
    with np.errstate(over="ignore"):
        return a * np.exp(-np.power(x / t2, n))


#: bounds of the stretch exponent n, fitted or fixed
_STRETCH_N_BOUNDS = (1e-6, 5.0)


def fit_stretched_exp(curve: DecayCurve, fix_n: float | None = None) -> FitResult:
    """Fit A exp[-(x/T2)^n]; the stretch exponent, fitted or fixed, lies in
    [1e-6, 5].

    Initial guesses come from a log-log linearization of -ln(y/A).  Fewer
    than 4 points, a negative x or a curve with every y negative is a
    DataError.
    """
    n_lo, n_hi = _STRETCH_N_BOUNDS
    if fix_n is not None and not n_lo <= fix_n <= n_hi:
        raise ValueError(f"fixed n must lie in [{n_lo:g}, {n_hi:g}], not {fix_n!r}")
    if len(curve) < 4:
        raise DataError(f"need at least 4 points, got {len(curve)}")
    x, y = curve.x, curve.y
    if x[0] < 0.0:
        raise DataError(f"x = {float(x[0])!r} is negative; (x/T2)^n needs x >= 0")
    if np.max(y) < 0.0:
        raise DataError("every y is negative; the amplitude A is >= 0")
    if float(np.ptp(y)) < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        # constant data: T2 and n are unidentifiable
        return FitResult(param_names=["A", "T2", "n"],
                         params={"A": float(np.mean(y)), "T2": float("nan"), "n": float("nan")},
                         stderr={k: float("nan") for k in ("A", "T2", "n")},
                         covariance=np.full((3, 3), np.nan), reduced_chi2=float("nan"),
                         converged=False, message="constant curve: decay unidentifiable")
    a0 = float(np.max(y))
    mask = (y > 0.0) & (y < 0.999 * a0) & (x > 0.0)
    if np.count_nonzero(mask) >= 2:
        u = np.log(x[mask])
        v = np.log(-np.log(np.clip(y[mask] / a0, 1e-300, 1.0 - 1e-12)))
        slope, intercept = np.polyfit(u, v, 1)
        n0 = float(np.clip(slope, 0.05, 5.0))
        t20 = float(np.exp(-intercept / n0))
    else:
        n0, t20 = 1.0, float(np.median(x))
    if fix_n is not None:
        def model(xv, params):
            n = np.full(params.shape[:-1] + (1,), fix_n)
            return stretched_exp(xv, np.concatenate([params, n], axis=-1))

        res = least_squares(model, [a0, t20], x, y, sigma=curve.sigma,
                            bounds=[(0.0, np.inf), (1e-300, np.inf)],
                            param_names=["A", "T2"])
        res.params["n"] = fix_n
        res.stderr["n"] = 0.0
        res.param_names = ["A", "T2", "n"]
        # n is held, so its row and column of the covariance are zero
        res.covariance = np.pad(res.covariance, (0, 1))
        return res
    return least_squares(stretched_exp, [a0, t20, n0], x, y, sigma=curve.sigma,
                         bounds=[(0.0, np.inf), (1e-300, np.inf), _STRETCH_N_BOUNDS],
                         param_names=["A", "T2", "n"])


def fit_power_scaling(n_pulses: Sequence[float], t2: Sequence[float],
                      sigma: Sequence[float] | None = None) -> FitResult:
    """Fit T2(N) = T0 N^eta by weighted linear regression in log-log space
    (exact for power-law data).  Fewer than two pairs, or an N or T2 that is
    not positive and finite, is a DataError.  Without sigma the covariance is
    scaled by the reduced chi^2, so with two pairs it is nan (unknown)."""
    n = np.asarray(n_pulses, dtype=float)
    t = np.asarray(t2, dtype=float)
    if n.size < 2 or n.size != t.size:
        raise DataError("need at least two (N, T2) pairs of equal length")
    if not np.all(np.isfinite(n) & np.isfinite(t) & (n > 0.0) & (t > 0.0)):
        raise DataError("N and T2 values must be positive and finite")
    ln_n = np.log(n)
    ln_t = np.log(t)
    if sigma is not None:
        s = np.asarray(sigma, dtype=float)
        weights = (t / s) ** 2  # var(ln t) = (sigma/t)^2
    else:
        weights = np.ones_like(t)
    design = np.column_stack([np.ones_like(ln_n), ln_n])
    w = np.sqrt(weights)
    sol, *_ = np.linalg.lstsq(design * w[:, None], ln_t * w, rcond=None)
    intercept, eta = float(sol[0]), float(sol[1])
    resid = (design @ sol - ln_t) * w
    dof = n.size - 2
    chi2 = float(resid @ resid)
    gram_inv = np.linalg.inv((design * w[:, None]).T @ (design * w[:, None]))
    cov_log = gram_inv if sigma is not None else gram_inv * (chi2 / dof if dof > 0 else math.nan)
    t0 = math.exp(intercept)
    # delta method: T0 = exp(intercept)
    cov = np.array([[cov_log[0, 0] * t0 * t0, cov_log[0, 1] * t0],
                    [cov_log[1, 0] * t0, cov_log[1, 1]]])
    return FitResult(param_names=["T0", "eta"],
                     params={"T0": t0, "eta": eta},
                     stderr={"T0": math.sqrt(abs(cov[0, 0])), "eta": math.sqrt(abs(cov[1, 1]))},
                     covariance=cov,
                     reduced_chi2=chi2 / dof if dof > 0 else float("nan"),
                     converged=True, n_iter=1,
                     message="log-log weighted linear regression"
                             + ("; dof=0, exact interpolation" if dof == 0 else ""))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_decay_csv(path: str | Path) -> DecayCurve:
    """Read x,y[,sigma] rows with x finite and strictly increasing and y
    finite; a row of fewer than two or more than three cells is a DataError.

    A header row before the data is detected and skipped.  A sweep header
    (as written by ``decolab simulate``) names the columns: x is t_total_s
    and y is expectation.  A feedforward header (``decolab simulate
    feedforward``) gives x = 2 tau_s, the total echo time, and y =
    c_expectation.  Every sigma must be positive and finite.
    """
    xs: list[float] = []
    ys: list[float] = []
    ss: list[float] = []
    columns = None  # (x, y) column indices of a sweep or feedforward run
    x_factor = 1.0
    header = False
    for lineno, row in csv_rows(path):
        if columns is not None:
            if len(row) <= max(columns):
                raise DataError(f"short sweep row {row!r}", line=lineno)
            row = [row[i] for i in columns]
        try:
            vals = [float(v) for v in row]
        except ValueError:
            if header or xs:
                raise DataError(f"non-numeric row {row!r}", line=lineno) from None
            header = True
            names = [h.strip() for h in row]
            if "t_total_s" in names and "expectation" in names:
                columns = (names.index("t_total_s"), names.index("expectation"))
            elif "tau_s" in names and "c_expectation" in names:
                columns = (names.index("tau_s"), names.index("c_expectation"))
                x_factor = 2.0
            continue
        if not 2 <= len(vals) <= 3:
            raise DataError(f"expected x,y[,sigma], got {len(vals)} cells", line=lineno)
        x = increasing_finite("x", x_factor * vals[0], xs[-1] if xs else -math.inf, lineno)
        ys.append(finite("y", vals[1], lineno))
        if len(vals) >= 3:
            ss.append(positive_finite("sigma", vals[2], lineno))
        xs.append(x)
    if not xs:
        raise DataError("file contains no data rows")
    if ss and len(ss) != len(xs):
        raise DataError("sigma column present only on some rows")
    return DecayCurve(np.array(xs), np.array(ys), np.array(ss) if ss else None)


def write_decay_csv(path: str | Path, curve: DecayCurve,
                    header: tuple[str, ...] = ("x", "y", "sigma")) -> None:
    columns = [curve.x, curve.y] if curve.sigma is None else [curve.x, curve.y, curve.sigma]
    write_csv(path, header[:len(columns)], columns)
