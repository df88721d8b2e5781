"""Monte Carlo dipolar spin baths and quasi-static dephasing times.

A bath is a set of spins placed uniformly at random (off-lattice) in a
sphere of radius r_max around the central spin.  Each spin contributes the
secular point-dipole coupling

    A_z = mu0/(4 pi) * hbar * gamma_1 gamma_2 / r^3 * (3 cos^2 theta - 1)

(rad/s), with gamma_1 gamma_2 = gamma_c * gamma_e for a 13C bath and
gamma_e^2 for an electron bath.  The quasi-static free-induction decay is
Gaussian with rate Gamma_z^2 = sum_j A_j^2 / 4 and T2* = sqrt(2) / Gamma_z.

Over random bath configurations T2* approximately follows a half-normal
distribution whose scale is T0 / c for concentration c; the distribution
sampler draws positions in float32 batches and reduces each bath's squared
couplings in one numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .constants import CONSTANTS, TWO_PI, PhysicalConstants

__all__ = [
    "BathConfig",
    "SampledBath",
    "T2StarDistribution",
    "LikelihoodEstimate",
    "sample_bath",
    "hyperfine_z",
    "t2star_of_bath",
    "t2star_distribution",
    "half_normal_mle",
    "exceedance_probability",
    "electron_bath_likelihood",
]

Species = Literal["carbon13", "electron"]

#: default sphere radius for electron baths; ppb-level electron spins have
#: typical nearest-neighbour distances of tens of nm, so the 45 nm sphere
#: used for 13C would truncate the bath badly.
ELECTRON_R_MAX = 450e-9


@dataclass(frozen=True)
class BathConfig:
    """Concentration is the atomic fraction (use ppb * 1e-9 for electron baths)."""

    concentration: float
    r_max: float = 45e-9
    species: Species = "carbon13"
    exclude_above_hz: float | None = None
    count_statistics: Literal["rounding", "poisson"] = "rounding"

    def __post_init__(self) -> None:
        if not (0.0 < self.concentration < 1.0):
            raise ValueError("concentration must be a fraction in (0, 1)")
        if not self.r_max > 0.0:
            raise ValueError("r_max must be > 0")
        if self.species not in ("carbon13", "electron"):
            raise ValueError(f"unknown species {self.species!r}")

    def mean_spin_count(self, constants: PhysicalConstants = CONSTANTS) -> float:
        return (4.0 * math.pi / 3.0) * self.r_max ** 3 * constants.n_d * self.concentration


@dataclass(frozen=True)
class SampledBath:
    """Spin positions (radius, cos of polar angle) and z couplings in Hz."""

    r: np.ndarray
    cos_theta: np.ndarray
    couplings_hz: np.ndarray

    def __len__(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class T2StarDistribution:
    samples: np.ndarray  # seconds
    half_normal_scale: float  # seconds

    def scale_stderr(self) -> float:
        # MLE of a half-normal scale has relative variance 1/(2 n)
        n = self.samples.size
        return self.half_normal_scale / math.sqrt(2.0 * n) if n else math.inf


@dataclass(frozen=True)
class LikelihoodEstimate:
    likelihood: float
    stderr: float
    exceedance: float
    exceedance_stderr: float
    n_baths: int


def _coupling_prefactor(species: Species, constants: PhysicalConstants) -> float:
    """mu0/(4 pi) hbar gamma_1 gamma_2 in rad/s * m^3."""
    gamma_pair = constants.gamma_c if species == "carbon13" else constants.gamma_e
    return constants.mu0_over_4pi * constants.hbar * gamma_pair * constants.gamma_e


def hyperfine_z(r: float, cos_theta: float, species: Species = "carbon13",
                constants: PhysicalConstants = CONSTANTS) -> float:
    """Secular z coupling in Hz of one bath spin at (r, cos theta)."""
    if not r > 0.0:
        raise ValueError("r must be > 0")
    if abs(cos_theta) > 1.0:
        raise ValueError("|cos_theta| must be <= 1")
    pref = _coupling_prefactor(species, constants)
    return pref * (3.0 * cos_theta ** 2 - 1.0) / r ** 3 / TWO_PI


def _draw_count(mean: float, cfg: BathConfig, rng: np.random.Generator) -> int:
    if cfg.count_statistics == "poisson":
        return int(rng.poisson(mean))
    base = math.floor(mean)
    return base + (1 if rng.random() < mean - base else 0)


def sample_bath(cfg: BathConfig, rng: np.random.Generator,
                constants: PhysicalConstants = CONSTANTS) -> SampledBath:
    """Draw one bath: positions uniform in the r_max ball, count from the
    mean density by stochastic rounding (or Poisson)."""
    n = _draw_count(cfg.mean_spin_count(constants), cfg, rng)
    # uniform in the ball: r^3 uniform; 1 - u keeps r strictly positive
    r = cfg.r_max * np.cbrt(1.0 - rng.random(n))
    cos_theta = 2.0 * rng.random(n) - 1.0
    pref = _coupling_prefactor(cfg.species, constants)
    couplings = pref * (3.0 * cos_theta ** 2 - 1.0) / r ** 3 / TWO_PI
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


# ---------------------------------------------------------------------------
# batched distribution sampling
# ---------------------------------------------------------------------------

def _gamma2_sums(u: np.ndarray, c: np.ndarray, counts: np.ndarray) -> np.ndarray:
    t = c.astype(np.float64)
    t = 2.0 * t - 1.0
    t = 3.0 * t * t - 1.0
    t *= t
    uu = 1.0 - u.astype(np.float64)
    uu *= uu
    t /= uu
    edges = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=edges[1:])
    sums = np.add.reduceat(t, edges)
    sums[counts == 0] = 0.0
    return sums


def t2star_distribution(cfg: BathConfig, n_baths: int, rng: np.random.Generator,
                        constants: PhysicalConstants = CONSTANTS,
                        batch_size: int = 2048) -> T2StarDistribution:
    """Sample n_baths independent baths and reduce each to T2*.

    Batched sampler: per bath only the sum of squared couplings is needed,
    so positions are drawn as float32 (r^3 and cos theta are uniform) and
    reduced in one pass.  The half-normal scale is the maximum-likelihood
    estimate sqrt(mean(T2*^2)) over finite samples.
    """
    if n_baths < 1:
        raise ValueError("n_baths must be >= 1")
    if cfg.exclude_above_hz is not None:
        # the strong-coupling filter needs individual couplings; take the
        # exact per-bath path
        samples = np.array([t2star_of_bath(sample_bath(cfg, rng, constants))
                            for _ in range(n_baths)])
        finite = samples[np.isfinite(samples)]
        scale = math.sqrt(float(np.mean(finite ** 2))) if finite.size else math.inf
        return T2StarDistribution(samples=samples, half_normal_scale=scale)
    mean = cfg.mean_spin_count(constants)
    pref = _coupling_prefactor(cfg.species, constants) / cfg.r_max ** 3
    samples = np.empty(n_baths)
    # keep the per-batch draw below ~40M spins regardless of concentration
    batch_size = max(1, min(batch_size, int(4e7 / max(mean, 1.0))))
    done = 0
    while done < n_baths:
        nb = min(batch_size, n_baths - done)
        base = math.floor(mean)
        if cfg.count_statistics == "poisson":
            counts = rng.poisson(mean, nb).astype(np.int64)
        else:
            counts = base + (rng.random(nb) < mean - base).astype(np.int64)
        total = int(counts.sum())
        u = rng.random(total, dtype=np.float32)
        c = rng.random(total, dtype=np.float32)
        sums = _gamma2_sums(u, c, counts)
        gamma2 = 0.25 * pref * pref * sums
        with np.errstate(divide="ignore"):
            samples[done:done + nb] = np.sqrt(2.0 / gamma2)
        done += nb
    finite = samples[np.isfinite(samples)]
    scale = math.sqrt(float(np.mean(finite ** 2))) if finite.size else math.inf
    return T2StarDistribution(samples=samples, half_normal_scale=scale)


def half_normal_mle(samples: np.ndarray) -> float:
    """Half-normal scale MLE, sqrt(mean(x^2))."""
    x = np.asarray(samples, dtype=float)
    x = x[np.isfinite(x)]
    if x.size == 0:
        raise ValueError("no finite samples")
    return math.sqrt(float(np.mean(x * x)))


def exceedance_probability(cfg: BathConfig, t2_lower: float, n_baths: int,
                           rng: np.random.Generator,
                           constants: PhysicalConstants = CONSTANTS,
                           background: BathConfig | None = None) -> tuple[float, float]:
    """Monte Carlo P(T2* > t2_lower) with its binomial standard error.

    A background bath is drawn independently for every sample, after all
    draws of the main bath.  The two baths dephase the same centre, so their
    Gamma_z^2 add: 1/T2*^2 = 1/T2*_main^2 + 1/T2*_background^2.
    """
    t2 = t2star_distribution(cfg, n_baths, rng, constants).samples
    if background is not None:
        t2_bg = t2star_distribution(background, n_baths, rng, constants).samples
        with np.errstate(divide="ignore"):
            t2 = 1.0 / np.sqrt(1.0 / t2 ** 2 + 1.0 / t2_bg ** 2)
    p = float(np.mean(t2 > t2_lower))
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n_baths) / n_baths)
    return p, se


def electron_bath_likelihood(rho_e_ppb: float, t2_lower: float, n_centres: int,
                             rng: np.random.Generator, n_baths: int = 20000,
                             r_max: float = ELECTRON_R_MAX,
                             constants: PhysicalConstants = CONSTANTS,
                             chi: float | None = None) -> LikelihoodEstimate:
    """Likelihood that n_centres measured centres all show T2* above t2_lower
    if the electron-spin concentration were rho_e (ppb):
    L = P(T2* > t2_lower | rho_e)^n_centres.

    chi is the 13C fraction of the host.  A measured T2* is limited by the
    centre's own 13C bath as well, so with chi given each sample also
    carries an independent 13C bath (default 45 nm sphere) as the background
    of exceedance_probability.  Without it the 13C bath is taken as absent,
    which overstates P(T2* > t2_lower) and hence L.
    """
    if not rho_e_ppb > 0.0:
        raise ValueError("rho_e_ppb must be > 0")
    if n_centres < 0:
        raise ValueError("n_centres must be >= 0")
    if n_centres == 0:
        return LikelihoodEstimate(1.0, 0.0, 1.0, 0.0, 0)
    cfg = BathConfig(concentration=rho_e_ppb * 1e-9, r_max=r_max, species="electron")
    background = None if chi is None else BathConfig(concentration=chi)
    p, se = exceedance_probability(cfg, t2_lower, n_baths, rng, constants, background)
    like = p ** n_centres
    like_se = n_centres * p ** (n_centres - 1) * se if p > 0 else 0.0
    return LikelihoodEstimate(likelihood=like, stderr=like_se,
                              exceedance=p, exceedance_stderr=se, n_baths=n_baths)
