"""Multi-harmonic mains-interference field model.

The interference is a comb of harmonics of the grid frequency,

    B(t) = sum_i B_i cos(w_i (t - t0) + phi_i),

stored in SI units (tesla, hertz, radians).  The bundled 8-component
50..450 Hz model (``table1_model``) is the fitted interference comb used by
the pulse-sequence and feedforward simulations.  Slow fluctuations of the
overall comb amplitude are modelled by a clipped mean-reverting scale
factor a(t) with stationary mean 1 (``AmplitudeScaleProcess``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .constants import MG_TO_TESLA
from .fitting import _data_lines


class ConfigError(ValueError):
    """Malformed field-model configuration file."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.reason = message
        self.line = line
        self.key = key
        where = f" (line {line})" if line is not None else ""
        what = f" key '{key}'" if key else ""
        super().__init__(f"config error{where}{what}: {message}")


@dataclass(frozen=True)
class AcComponent:
    """One harmonic: amplitude in tesla, frequency in Hz, phase in rad."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ValueError("component amplitude must be >= 0")
        if self.frequency <= 0.0:
            raise ValueError("component frequency must be > 0")


@dataclass(frozen=True)
class AcFieldModel:
    """Ordered comb of AC components plus the waveform time offset t0 (s).

    t0 = 0 labels the positive zero-crossing of the fundamental; it must lie
    in [0, fundamental period).
    """

    components: tuple[AcComponent, ...] = ()
    t0: float = 0.0

    def __post_init__(self) -> None:
        freqs = [c.frequency for c in self.components]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError("component frequencies must be strictly increasing")
        period = self.fundamental_period
        if period is not None and not (0.0 <= self.t0 < period):
            raise ValueError(f"t0 must lie in [0, {period}) s")

    @property
    def fundamental_period(self) -> float | None:
        """Period of the lowest harmonic (20 ms for a 50 Hz comb); None if empty."""
        if not self.components:
            return None
        return 1.0 / self.components[0].frequency


def table1_model() -> AcFieldModel:
    """The bundled 8-harmonic 50..450 Hz interference model, the fitted comb
    of ``data/mains_50hz.cfg``."""
    return load_field_config(Path(__file__).parent / "data" / "mains_50hz.cfg")


@dataclass(frozen=True)
class AmplitudeScaleProcess:
    """Clipped mean-reverting scale factor a(t) for the comb amplitudes.

    Stationary mean 1; `sigma` is the stationary standard deviation before
    clipping to [a_min, a_max].  The bounds default to the observed swing of
    the interference amplitude; `sigma` defaults to the sub-percent level
    consistent with the feedforward-corrected echo decay (the slow-drift law
    is otherwise unconstrained).
    """

    a_min: float = 0.85
    a_max: float = 1.27
    correlation_time: float = 3.0
    sigma: float = 0.01

    def __post_init__(self) -> None:
        if not (0.0 < self.a_min <= 1.0 <= self.a_max):
            raise ValueError("bounds must satisfy 0 < a_min <= 1 <= a_max")
        if not self.correlation_time > 0.0:
            raise ValueError("correlation_time must be > 0")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")


def sample_amplitude_trajectory(
    proc: AmplitudeScaleProcess, times: Sequence[float], normals: np.ndarray
) -> np.ndarray:
    """Sample a(t) at the given non-decreasing times, one trajectory per row
    of ``normals`` (shape (..., len(times))); the result has that shape.

    Uses the exact Ornstein-Uhlenbeck transition between samples, then clips
    to [a_min, a_max].  A row is fixed by its standard normals: one
    ``rng.standard_normal(len(times))`` call draws the same stream as one
    scalar draw per sample.  The decays and innovation factors are computed
    once per call; the clipped recursion then steps through time for all rows
    at once: about 5 us a step for 30 rows (0.2 us a sample) on a 2-vCPU Xeon
    host.
    """
    times = np.asarray(times, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if normals.shape[-1:] != times.shape:
        raise ValueError("normals must have shape (..., len(times))")
    dts = np.diff(times)
    if np.any(dts < 0.0):
        raise ValueError("times must be non-decreasing")
    if times.size == 0:
        return np.empty(normals.shape)
    tau, sigma = proc.correlation_time, proc.sigma
    decays = [math.exp(-dt / tau) if dt / tau < 700.0 else 0.0 for dt in dts.tolist()]
    coef = [sigma] + [sigma * math.sqrt(max(0.0, 1.0 - d * d)) for d in decays]
    # time-major, so every step works on contiguous rows across trajectories;
    # the constants are rows too, the cheapest operands of a ufunc call
    a = np.multiply(normals.reshape(-1, times.size).T, np.array(coef)[:, None],
                    order="C")
    width = a.shape[1]
    one, lo, hi = (np.full(width, v) for v in (1.0, proc.a_min, proc.a_max))
    decay_rows = np.broadcast_to(np.array(decays)[:, None], (len(decays), width))
    step = np.empty(width)
    np.add(one, a[0], out=a[0])
    np.maximum(a[0], lo, out=a[0])
    np.minimum(a[0], hi, out=a[0])
    # row i holds the kick until it becomes a(t_i) = 1.0 + (a - 1.0) * d + kick,
    # clipped, evaluated in the scalar order
    for prev, d, row in zip(a, decay_rows, a[1:]):
        np.subtract(prev, one, out=step)
        np.multiply(step, d, out=step)
        np.add(step, one, out=step)
        np.add(step, row, out=row)
        np.maximum(row, lo, out=row)
        np.minimum(row, hi, out=row)
    return np.ascontiguousarray(a.T).reshape(normals.shape)


# ---------------------------------------------------------------------------
# Key-value configuration file format
# ---------------------------------------------------------------------------
# t0_s = 0.0
# [component]
# frequency_Hz = 50
# amplitude_mG = 2.95
# phase_rad = 0.0
# [component] ...

_COMPONENT_KEYS = {"frequency_Hz", "amplitude_mG", "phase_rad"}


def load_field_config(path: str | Path) -> AcFieldModel:
    """Parse a field-model config file; raises ConfigError with line numbers."""
    t0 = 0.0
    records: list[dict[str, float]] = []
    current: dict[str, float] | None = None

    for lineno, line in _data_lines(path):
        if line == "[component]":
            current = {}
            records.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(f"unknown section {line!r}", line=lineno)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            num = float(value)
        except ValueError:
            raise ConfigError(f"value {value!r} is not a number", line=lineno, key=key) from None
        if current is None:
            if key != "t0_s":
                raise ConfigError("only 't0_s' may appear before the first [component]",
                                  line=lineno, key=key)
            t0 = num
        else:
            if key not in _COMPONENT_KEYS:
                raise ConfigError(f"unknown component key (expected one of {sorted(_COMPONENT_KEYS)})",
                                  line=lineno, key=key)
            current[key] = num

    comps = []
    for rec in records:
        missing = _COMPONENT_KEYS - rec.keys()
        if missing:
            raise ConfigError(f"component is missing {sorted(missing)}")
        comps.append(AcComponent(amplitude=rec["amplitude_mG"] * MG_TO_TESLA,
                                 frequency=rec["frequency_Hz"],
                                 phase=rec["phase_rad"]))
    comps.sort(key=lambda c: c.frequency)
    try:
        return AcFieldModel(components=tuple(comps), t0=t0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
