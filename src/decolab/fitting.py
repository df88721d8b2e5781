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
call each, holding at most max(number of parameters, 29) rows of len(x)
model values at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DecayCurve",
    "FitResult",
    "FitError",
    "least_squares",
    "fit_stretched_exp",
    "fit_power_scaling",
    "stretched_exp",
    "read_decay_csv",
    "write_decay_csv",
]

#: iteration cap of the Levenberg-Marquardt engine
MAX_ITER = 500
#: relative parameter step and relative cost decrease below which it stops
XTOL, FTOL = 1e-12, 1e-14


class FitError(ValueError):
    pass


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

    def values(self) -> np.ndarray:
        return np.array([self.params[k] for k in self.param_names])


def _forward_jacobian(fn: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                      r0: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of fn at p, shape (r0.size, p.size) and
    C-contiguous, from one call of fn on the p.size stepped rows."""
    # relative step on the larger of the current value and the typical
    # scale (from the initial guess), so parameters converging to zero
    # keep a resolvable step; absolute fallback if both vanish
    typ = np.where(scale > np.abs(p), scale, np.abs(p))
    h = np.where(typ != 0.0, 1e-6 * typ, 1e-6)
    rows = np.full((p.size, p.size), p)
    rows.flat[::p.size + 1] = p + h
    return ((fn(rows) - r0) / h[:, None]).T.copy()


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
    evaluates the forward-difference Jacobian; the damped trials lambda 2^j,
    j < 60, go in batches of 1, 2, 4, 8, 16 and 29 rows, one call each, and
    the first row in lambda order whose cost is finite and lower is taken.
    The Jacobian for the covariance is not evaluated again when the point
    has not moved since the last one.  So the iterates, n_iter and message
    are those of one call per Jacobian column and per trial, and a call
    holds at most max(len(params0), 29) rows of len(x) values.

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
    # the damping loop tries lam 2^j, j < 60, in batches of 1, 2, 4, 8, 16, 29
    doubling = np.ldexp(1.0, np.arange(60))
    eye = np.eye(npar)
    converged = False
    message = "max iterations reached"
    it = 0
    for it in range(1, MAX_ITER + 1):
        jac = _forward_jacobian(residuals, p, r, scale=typical)
        grad = jac.T @ r
        if float(np.max(np.abs(grad), initial=0.0)) < 1e-16 * max(cost, 1e-30):
            converged = True
            message = "gradient below tolerance"
            break
        hs, dinv, ok = scaled_normal(jac)
        grad_s = dinv * grad
        accepted = False
        start, size = 0, 1
        while start < 60 and not accepted:
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
                    df = cost - cost_trial
                    p, r, cost = p_trial, r_trial, cost_trial
                    lam = max(float(lam_trial) / 3.0, 1e-14)
                    accepted = True
                    jac = None  # p moved
                    if rel_step < XTOL or df < FTOL * max(cost, 1e-300):
                        converged = True
                        message = "step/cost below tolerance"
                    break
            start += size
            size *= 2
        if converged:
            break
        if not accepted:
            converged = True
            message = "no downhill step found (local minimum or stalled)"
            break

    # covariance at the solution, via the scaled normal matrix
    if jac is None:
        jac = _forward_jacobian(residuals, p, r, scale=typical)
    dof = max(len(y) - npar, 1)
    chi2 = cost
    reduced = chi2 / dof if len(y) > npar else float("nan")
    hs, dinv, ok = scaled_normal(jac)
    try:
        if not np.all(ok):
            raise np.linalg.LinAlgError
        cov = dinv[:, None] * np.linalg.inv(hs) * dinv[None, :]
        if sigma is None:
            cov = cov * (chi2 / dof)
    except np.linalg.LinAlgError:
        cov = np.full((npar, npar), np.nan)
        converged = False
        message = "singular normal equations (unidentifiable parameters)"
    stderr = {n: float(math.sqrt(abs(cov[i, i]))) if np.isfinite(cov[i, i]) else float("nan")
              for i, n in enumerate(names)}
    return FitResult(param_names=names,
                     params={n: float(v) for n, v in zip(names, p)},
                     stderr=stderr, covariance=cov,
                     reduced_chi2=float(reduced) if reduced == reduced else float("nan"),
                     converged=converged, n_iter=it, message=message)


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
    return a * np.exp(-np.power(x / t2, n))


#: bounds of the stretch exponent n, fitted or fixed
_STRETCH_N_BOUNDS = (1e-6, 5.0)


def fit_stretched_exp(curve: DecayCurve, fix_n: float | None = None) -> FitResult:
    """Fit A exp[-(x/T2)^n]; the stretch exponent, fitted or fixed, lies in
    [1e-6, 5].

    Initial guesses come from a log-log linearization of -ln(y/A).
    """
    n_lo, n_hi = _STRETCH_N_BOUNDS
    if fix_n is not None and not n_lo <= fix_n <= n_hi:
        raise ValueError(f"fixed n must lie in [{n_lo:g}, {n_hi:g}], not {fix_n!r}")
    if len(curve) < 4:
        raise FitError("need at least 4 points")
    x, y = curve.x, curve.y
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
    (exact for power-law data)."""
    n = np.asarray(n_pulses, dtype=float)
    t = np.asarray(t2, dtype=float)
    if n.size < 2 or n.size != t.size:
        raise FitError("need at least two (N, T2) pairs of equal length")
    if np.any(n <= 0.0) or np.any(t <= 0.0):
        raise FitError("N and T2 values must be positive")
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
    cov_log = gram_inv if sigma is not None else gram_inv * (chi2 / dof if dof > 0 else 0.0)
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

class DataError(ValueError):
    """Unparseable data file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"data error{where}: {message}")


def _positive_finite(name: str, value: float, line: int) -> float:
    """``value`` if it is positive and finite; else a DataError at ``line``."""
    if not (math.isfinite(value) and value > 0.0):
        raise DataError(f"{name} = {value!r} is not positive and finite", line=line)
    return value


def _increasing_finite(name: str, value: float, previous: float, line: int) -> float:
    """``value`` if it is finite and above ``previous``, the value of the row
    before (on the first row, the bound that every value must exceed); else
    a DataError at ``line``.  Both CSV readers check their x column with it."""
    if not math.isfinite(value):
        raise DataError(f"{name} = {value!r} is not finite", line=line)
    if not value > previous:
        raise DataError(f"{name} = {value!r} is not above {previous!r}", line=line)
    return value


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, text) of each line of an input file that holds data.

    This is the comment rule of every input format: a ``#`` starts a comment
    anywhere on a line, the text is stripped of surrounding whitespace, and a
    line left blank is skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    return [(lineno, text) for lineno, text in lines if text]


def _csv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each data line of a CSV file (see _data_lines)."""
    return [(lineno, next(csv.reader([text]))) for lineno, text in _data_lines(path)]


def read_decay_csv(path: str | Path) -> DecayCurve:
    """Read x,y[,sigma] rows with x finite and strictly increasing; a row of
    fewer than two or more than three cells is a DataError.

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
    for lineno, row in _csv_rows(path):
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
        x = _increasing_finite("x", x_factor * vals[0], xs[-1] if xs else -math.inf, lineno)
        if len(vals) >= 3:
            ss.append(_positive_finite("sigma", vals[2], lineno))
        xs.append(x)
        ys.append(vals[1])
    if not xs:
        raise DataError("file contains no data rows")
    if ss and len(ss) != len(xs):
        raise DataError("sigma column present only on some rows")
    return DecayCurve(np.array(xs), np.array(ys), np.array(ss) if ss else None)


def write_decay_csv(path: str | Path, curve: DecayCurve,
                    header: tuple[str, ...] = ("x", "y", "sigma")) -> None:
    columns = [curve.x, curve.y] if curve.sigma is None else [curve.x, curve.y, curve.sigma]
    _write_csv(path, header[:len(columns)], columns)


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence,
               preamble: Sequence[str] = ()) -> None:
    """Write the preamble lines, then one column per header name: float cells
    as repr (the shortest text that reads back to the same double), integer
    cells as str, strings unchanged."""
    cells = []
    for column in columns:
        values = np.asarray(column)
        cells.append(map(repr if values.dtype.kind == "f" else str, values.tolist()))
    lines = [*preamble, ",".join(header), *map(",".join, zip(*cells, strict=True))]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 with \\n newlines to a new file at path; every
    output file of the package is written here.  Whatever was at path (an
    earlier output, a link) is removed first rather than rewritten in place:
    ext4, with its default auto_da_alloc, flushes a truncated and rewritten
    file to disk when it is closed, which costs more than the write.  A
    directory at path stays and raises OSError."""
    Path(path).unlink(missing_ok=True)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)
