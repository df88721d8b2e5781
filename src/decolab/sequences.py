"""Accumulated phase and filter-function response of Ramsey / Hahn / CPMG
sequences under the harmonic-comb interference model.

A CPMG-N sequence is pi/2 - tau - [pi - 2 tau]*(N-1) - pi - tau - pi/2 with
total time T = 2 N tau and instantaneous pi pulses; Hahn is N = 1 and Ramsey
is N = 0 with free evolution T = tau.  With y(t) = +-1 flipping at each pi
pulse, the sequence's filter function is

    F(w) = int_0^T y(t) e^{-i w t} dt,

whose closed form depends on N (alpha = w tau):

    N = 0:    F = (2 / w) e^{-i alpha/2} sin(alpha/2)
    N even:   F = (2 / w) e^{-i N alpha} (1 - sec alpha) sin(N alpha)
    N odd:    F = (2 i / w) e^{-i N alpha} (sec alpha - 1) cos(N alpha)

The 1 - sec(alpha) factor has removable singularities at alpha = pi/2 + m pi,
handled by an exact reformulation near the poles.  The phase accumulated
under the comb B(t) = sum_k B_k cos(w_k (t - t0) + phi_k) is one projection
per component,

    Phi(t0) = gamma_nv Re sum_k B_k e^{i (phi_k - w_k t0)} conj F(w_k),

which splits into a delay-dependent factor R = gamma_nv B e^{i phi} conj F
(delays x components) and an offset-dependent factor E = e^{-i w t0}
(components x offsets): Phi = Re(R @ E).  Many delays and offsets are
therefore evaluated in one matrix product, and the offset averages take
one per block of delays, so their memory is bounded at any sweep size.

The time offset passed to the phase functions adds to the model's own t0;
unsynchronized expectation values average it over one fundamental period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import CONSTANTS, N_T0, TWO_PI
from .noise import AcFieldModel

__all__ = [
    "PulseSequence",
    "filter_function",
    "phase_of",
    "expectation_unsynchronized",
    "is_revival",
    "ramsey_envelope",
]

#: half-width (rad) of the window around sec poles where the exact
#: near-pole reformulation is used instead of the direct formula
POLE_WINDOW = 1e-6

#: amplitude scales of the Ramsey envelope
N_A = 21
#: most phases (delays x offsets) per block of an offset-averaged sweep:
#: 655 delays at the default 400 offsets, so every README, study-script and
#: benchmark sweep (562 delays at most) is one block, one matrix product
_SWEEP_PHASES = 2 ** 18
#: most phases per piece of a block that takes its cosines (or the envelope's
#: closed form) and row means: whole delays whose temporaries stay below
#: glibc's 128 KiB mmap threshold, so they are reused, not mapped afresh
_PIECE_PHASES = 2 ** 14


@dataclass(frozen=True)
class PulseSequence:
    """Ramsey(T) (n_pulses = 0) or CPMG(N, tau) (N >= 1; Hahn is N = 1); tau
    is the half inter-pulse delay for CPMG and the total free-evolution time
    for Ramsey.

    tau may be a numpy array of delays: the sequence then stands for the
    family of sequences at those delays, and the functions below return one
    value per delay.
    """

    n_pulses: int
    tau: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.tau) > 0.0):
            raise ValueError("tau must be > 0")
        if self.n_pulses < 0:
            raise ValueError(f"invalid n_pulses={self.n_pulses}")

    @classmethod
    def ramsey(cls, total_time: float | np.ndarray) -> "PulseSequence":
        return cls(0, total_time)

    @classmethod
    def hahn(cls, tau: float | np.ndarray) -> "PulseSequence":
        return cls(1, tau)

    @classmethod
    def cpmg(cls, n_pulses: int, tau: float | np.ndarray) -> "PulseSequence":
        if not n_pulses >= 1:
            raise ValueError(f"invalid n_pulses={n_pulses} for cpmg")
        return cls(n_pulses, tau)

    @property
    def total_time(self) -> float | np.ndarray:
        return self.tau if self.n_pulses == 0 else 2.0 * self.n_pulses * self.tau


def _one_minus_sec(alpha):
    # 1 - sec(a) = -2 sin^2(a/2) / cos(a): exact and cancellation-free for
    # small a, diverges at the sec poles (handled by callers).
    alpha = np.asarray(alpha, dtype=float)
    s = np.sin(0.5 * alpha)
    return -2.0 * s * s / np.cos(alpha)


def _toggle_factor(n_pulses: int, alpha):
    """(1-sec a) sin(N a) for even N, (sec a - 1) cos(N a) for odd N.

    Vectorized over alpha = w tau.  Within POLE_WINDOW of a sec pole
    a0 = pi/2 + m pi the product is evaluated through the identity

        factor = q * sin(N eps) * (1 + 1 / (sigma sin eps)),  eps = a - a0,

    with sigma = sin(a0) = (-1)^m and q = cos(N a0) (even N) or sin(N a0)
    (odd N), both computed by integer arithmetic.  The limit at eps -> 0 is
    q * N / sigma.
    """
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n = int(n_pulses)
    with np.errstate(divide="ignore", invalid="ignore"):
        if n % 2 == 0:
            out = _one_minus_sec(alpha) * np.sin(n * alpha)
        else:
            out = -_one_minus_sec(alpha) * np.cos(n * alpha)

    # nearest pole: a0 = pi/2 + m pi
    m = np.round((alpha - 0.5 * math.pi) / math.pi).astype(int)
    eps = alpha - (0.5 * math.pi + m * math.pi)
    near = np.abs(eps) < POLE_WINDOW
    if np.any(near):
        m_n = m[near]
        eps_n = eps[near]
        sigma = np.where(m_n % 2 == 0, 1.0, -1.0)
        odd_steps = 2 * m_n + 1  # a0 = odd_steps * pi/2
        if n % 2 == 0:
            # cos(N a0) with N a0 = (N/2) * odd_steps * pi
            q = np.where(((n // 2) * odd_steps) % 2 == 0, 1.0, -1.0)
        else:
            # sin(N a0): N * odd_steps mod 4 is 1 or 3
            q = np.where((n * odd_steps) % 4 == 1, 1.0, -1.0)
        sn = np.sin(n * eps_n)
        ratio = np.where(eps_n == 0.0, float(n),
                         sn / np.where(eps_n == 0.0, 1.0, np.sin(eps_n)))
        out[near] = q * (sn + ratio / sigma)
    return float(out[0]) if scalar else out


def filter_function(omega, n_pulses: int, tau):
    """Complex filter F(w) = int_0^T y(t) e^{-i w t} dt (units: s) of Ramsey
    (N = 0, T = tau) or CPMG-N (T = 2 N tau); omega and tau broadcast.

    DC fields are refocused for N >= 1, F(0) = 0; Ramsey integrates them,
    F(0) = T.
    """
    out = _filter(omega, n_pulses, tau)
    return complex(out) if out.ndim == 0 else out


def _filter(omega, n_pulses: int, tau) -> np.ndarray:
    """``filter_function`` as an array, also of no dimensions."""
    omega, tau = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                     np.asarray(tau, dtype=float))
    n = int(n_pulses)
    alpha = omega * tau
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 0:
            out = (2.0 / omega) * np.exp(-0.5j * alpha) * np.sin(0.5 * alpha)
        else:
            pref = 2.0 / omega if n % 2 == 0 else 2.0j / omega
            out = pref * np.exp(-1j * n * alpha) * _toggle_factor(n, alpha)
    return np.where(omega == 0.0, tau if n == 0 else 0.0, out)


def _delay_factor(model: AcFieldModel, n_pulses: int, tau: np.ndarray) -> np.ndarray:
    """R = gamma_nv B e^{i phi} conj F(w) of the comb components w at the
    delays tau, shape tau.shape + (components,)."""
    amplitude = np.array([c.amplitude for c in model.components])
    omega = TWO_PI * np.array([c.frequency for c in model.components])
    phase = np.array([c.phase for c in model.components])
    return (CONSTANTS.gamma_nv * amplitude * np.exp(1j * phase)
            * np.conj(_filter(omega, n_pulses, tau[..., None])))


def _offset_factor(model: AcFieldModel, t0: np.ndarray) -> np.ndarray:
    """E = e^{-i w t0} of the comb components w at the offsets t0 (added to
    the model's t0), shape (components, t0.size)."""
    omega = TWO_PI * np.array([c.frequency for c in model.components])
    return np.exp(-1j * np.outer(omega, t0 + model.t0))


def _phases(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Phi = Re(R @ E) of delay factors R and offset factors E."""
    return np.real(r @ e)


def phase_of(model: AcFieldModel, seq: PulseSequence, t0=0.0):
    """Phase (rad) accumulated by seq started at mains offset t0.

    The result has shape tau.shape + t0.shape (a float when both are
    scalars): Phi = Re(R @ E) with R over delays x components and E over
    components x offsets.
    """
    tau = np.asarray(seq.tau, dtype=float)
    t0 = np.asarray(t0, dtype=float)
    out = _phases(_delay_factor(model, seq.n_pulses, tau), _offset_factor(model, t0))
    out = out.reshape(tau.shape + t0.shape)
    return float(out) if out.ndim == 0 else out


def _trigger_offsets(model: AcFieldModel, n_t0: int) -> np.ndarray:
    """n_t0 >= 2 midpoint trigger offsets spanning one fundamental period
    (20 ms for a 50 Hz comb).

    An empty comb has no period; any offsets serve it, since its phase is 0
    and every average of cos(Phi) is exactly 1.
    """
    if n_t0 < 2:
        raise ValueError("n_t0 must be >= 2")
    period = model.fundamental_period or 1.0
    return (np.arange(n_t0) + 0.5) * (period / n_t0)


def _offset_mean(model: AcFieldModel, seq: PulseSequence, n_t0: int,
                 of_phase: Callable[[np.ndarray], np.ndarray] = np.cos) -> np.ndarray:
    """The mean of of_phase(Phi) over the n_t0 trigger offsets, one value per
    delay of seq (shape tau.shape): E once, then per block of whole delays
    of at most _SWEEP_PHASES phases (one delay where n_t0 exceeds that) R
    and the phases, and per piece of the block of at most _PIECE_PHASES
    of_phase and the row means, so that no temporary spans all delays x
    offsets.  of_phase acts elementwise and a row's mean is its own, so the
    pieces give the bits of the whole block.  The blocks depend only on the
    numbers of delays and offsets, and call private helpers only."""
    tau = np.asarray(seq.tau, dtype=float)
    flat = tau.ravel()
    e = _offset_factor(model, _trigger_offsets(model, n_t0))
    rows, piece = (max(1, budget // n_t0) for budget in (_SWEEP_PHASES, _PIECE_PHASES))
    out = np.empty(flat.size)
    for start in range(0, flat.size, rows):
        block = slice(start, start + rows)
        phi = _phases(_delay_factor(model, seq.n_pulses, flat[block]), e)
        means = out[block]
        for i in range(0, phi.shape[0], piece):
            means[i:i + piece] = np.mean(of_phase(phi[i:i + piece]), axis=-1)
        del phi  # before the next block's product is formed
    return out.reshape(tau.shape)


def expectation_unsynchronized(model: AcFieldModel, seq: PulseSequence,
                               n_t0: int = N_T0):
    """<X> averaged over the sequence trigger offset, one value per delay:
    the mean of cos(Phi(t0)) over the n_t0 offsets of one fundamental period.

    Delays are worked through in blocks of at most _SWEEP_PHASES phases
    (``_offset_mean``); a sweep of one block gives the bits of
    ``np.mean(np.cos(phase_of(model, seq, offsets)), axis=-1)``.  A larger
    sweep is reproducible for given numbers of delays and offsets, not per
    delay: the matrix product of a block may move a value's last bits with
    the block's other rows, as the sink solver's contour values are
    reproducible for a given set of times (``diffusion.invert_laplace``).
    """
    out = _offset_mean(model, seq, n_t0)
    return float(out) if out.ndim == 0 else out


def _quantize_us(value_s: float, name: str) -> int:
    us = value_s * 1e6
    nearest = round(us)
    if abs(us - nearest) > 1e-6 or nearest < 0:
        raise ValueError(f"{name} must be a whole number of microseconds, got {value_s} s")
    return int(nearest)


def is_revival(t_dd: float, tau: float, f_ac: float) -> bool:
    """Whether the CPMG filter vanishes for a field at f_ac.

    True iff T = 2 N tau is an integer multiple of T_ac = 1/f_ac and tau is
    not (1/4 + n/2) T_ac for any integer n >= 0.  Times are quantized to
    integer microseconds and the integer tests use exact rationals.
    """
    from fractions import Fraction  # only here: it loads decimal too (about 1 ms)

    t_dd_us = _quantize_us(t_dd, "t_dd")
    tau_us = _quantize_us(tau, "tau")
    t_ac_us = Fraction(10**6) / Fraction(f_ac)
    k = Fraction(t_dd_us) / t_ac_us
    if k.denominator != 1 or k <= 0:
        return False
    n2 = (Fraction(tau_us) / t_ac_us - Fraction(1, 4)) / Fraction(1, 2)
    return not (n2.denominator == 1 and n2 >= 0)


def ramsey_envelope(model: AcFieldModel, amplitude_range: tuple[float, float],
                    times, n_t0: int = N_T0, n_a: int = N_A) -> np.ndarray:
    """Ramsey expectation averaged over trigger offset and comb amplitude scale.

    For each total evolution time the t0-averaged expectation is further
    averaged over n_a scale factors a_j = a_min + j s uniformly spaced in
    amplitude_range (one, the midpoint, for n_a = 1).  Phases are linear in
    the field, so scaling multiplies Phi directly, and the sum of cosines
    in arithmetic progression (Gradshteyn & Ryzhik 1.341.3) gives the scale
    average in closed form,

        mean_j cos(a_j Phi) = cos(a_mid Phi) sin(n_a h) / (n_a sin h),

    with h = s Phi / 2 and a_mid = (a_min + a_max) / 2.  The ratio has poles
    of sin h at h = m pi, removable ones: with h = m pi + eps (m the nearest
    integer) it is (-1)^(m (n_a - 1)) sin(n_a eps) / sin(eps), which is
    evaluated at every h, and takes its limit n_a at eps = 0.  For s = 0
    (n_a = 1 or a_min = a_max) the ratio is 1 and the result the single
    cosine.  The delays are worked through in the blocks of
    ``expectation_unsynchronized``, with its reproducibility.
    """
    a_min, a_max = amplitude_range
    if not (0.0 < a_min <= a_max):
        raise ValueError("need 0 < a_min <= a_max")
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    a_mid = 0.5 * (a_min + a_max)
    half_step = 0.5 * (a_max - a_min) / (n_a - 1) if n_a > 1 else 0.0

    def scale_averaged(phi: np.ndarray) -> np.ndarray:
        return _scale_averaged_cos(phi, a_mid, half_step, n_a)

    return _offset_mean(model, PulseSequence.ramsey(np.asarray(times, dtype=float)), n_t0,
                        scale_averaged)[()]


def _scale_averaged_cos(phi: np.ndarray, a_mid: float, half_step: float,
                        n_a: int) -> np.ndarray:
    """cos(a_mid Phi) sin(n_a h) / (n_a sin h), h = half_step Phi, reduced
    to eps = h - m pi as ``ramsey_envelope`` states; at most three arrays of
    phi's size are alive at once."""
    m = np.rint(phi * (half_step / math.pi))
    eps = half_step * phi
    eps -= math.pi * m
    odd = m % 2.0 != 0.0 if n_a % 2 == 0 else None
    ratio = np.sin(np.multiply(eps, n_a, out=m), out=m)
    den = np.sin(eps, out=eps)
    den *= n_a
    limit = den == 0.0  # eps = 0
    ratio[limit] = den[limit] = 1.0
    ratio /= den
    if odd is not None:
        np.negative(ratio, out=ratio, where=odd)
    ratio *= np.cos(np.multiply(phi, a_mid, out=den), out=den)
    return ratio
