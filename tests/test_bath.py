import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from decolab.bath import (BathConfig, LikelihoodEstimate, SampledBath,
                          electron_bath_likelihood, half_normal_mle, hyperfine_z,
                          sample_bath, t2star_distribution, t2star_of_bath)
from decolab.constants import CONSTANTS, TWO_PI
from conftest import make_rng
from perfbench.tracer import analytic_half_normal_scale

CHI_REF = 4.42e-4  # the mid concentration studied in the bath histograms


def test_mean_spin_count():
    cfg = BathConfig(concentration=CHI_REF)
    expected = 4 * math.pi / 3 * (45e-9) ** 3 * 1.76e29 * CHI_REF
    assert cfg.mean_spin_count() == pytest.approx(expected, rel=1e-12)
    assert cfg.mean_spin_count() == pytest.approx(2.97e4, rel=5e-3)


def test_stochastic_rounding_empty_fraction():
    # mean count 0.3 -> empty with probability 0.7
    chi = 0.3 / BathConfig(concentration=1.0e-9).mean_spin_count() * 1.0e-9
    cfg = BathConfig(concentration=chi)
    rng = make_rng(10)
    empties = sum(len(sample_bath(cfg, rng)) == 0 for _ in range(2000))
    assert empties == pytest.approx(1400, abs=4 * math.sqrt(2000 * 0.21))


def test_positions_uniform_in_ball():
    chi = 1e5 / BathConfig(concentration=1.0e-9).mean_spin_count() * 1.0e-9
    bath = sample_bath(BathConfig(concentration=chi), make_rng(11))
    # r^3 uniform <=> radial CDF proportional to r^3
    u = (bath.r / 45e-9) ** 3
    assert stats.kstest(u, "uniform").pvalue > 0.01
    c = 0.5 * (bath.cos_theta + 1.0)
    assert stats.kstest(c, "uniform").pvalue > 0.01


def test_hyperfine_magic_angle_and_cube_law():
    assert hyperfine_z(2e-9, math.sqrt(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-9)
    a1 = hyperfine_z(1.5e-9, 0.3)
    a2 = hyperfine_z(3.0e-9, 0.3)
    assert a1 / a2 == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        hyperfine_z(0.0, 0.5)
    with pytest.raises(ValueError):
        hyperfine_z(1e-9, 1.5)


def test_hyperfine_against_extended_precision_constants():
    with mpmath.workdps(50):
        k = (mpmath.mpf("1e-7") * mpmath.mpf("1.054571817e-34")
             * 2 * mpmath.pi * mpmath.mpf("10.7084e6")
             * 2 * mpmath.pi * mpmath.mpf("28.024951e9"))
        expected = float(k * 2 / mpmath.mpf("1e-27") / (2 * mpmath.pi))
    assert hyperfine_z(1e-9, 1.0) == pytest.approx(expected, rel=1e-12)
    # electron species swaps the nuclear for the electron gyromagnetic ratio
    ratio = hyperfine_z(1e-9, 1.0, species="electron") / hyperfine_z(1e-9, 1.0)
    assert ratio == pytest.approx(CONSTANTS.gamma_e / CONSTANTS.gamma_c, rel=1e-12)


def test_t2star_single_spin():
    a_hz = 5.0e3
    bath = SampledBath(r=np.array([2e-9]), cos_theta=np.array([0.0]),
                       couplings_hz=np.array([a_hz]))
    assert t2star_of_bath(bath) == pytest.approx(2 * math.sqrt(2) / (TWO_PI * a_hz), rel=1e-12)


def test_t2star_mirror_copy():
    rng = make_rng(12)
    bath = sample_bath(BathConfig(concentration=CHI_REF), rng)
    doubled = SampledBath(r=np.concatenate([bath.r, bath.r]),
                          cos_theta=np.concatenate([bath.cos_theta, bath.cos_theta]),
                          couplings_hz=np.concatenate([bath.couplings_hz, bath.couplings_hz]))
    assert t2star_of_bath(doubled) == pytest.approx(t2star_of_bath(bath) / math.sqrt(2),
                                                    rel=1e-12)


def test_t2star_permutation_invariant():
    bath = sample_bath(BathConfig(concentration=CHI_REF), make_rng(13))
    perm = make_rng(14).permutation(len(bath))
    shuffled = SampledBath(r=bath.r[perm], cos_theta=bath.cos_theta[perm],
                           couplings_hz=bath.couplings_hz[perm])
    assert t2star_of_bath(shuffled) == pytest.approx(t2star_of_bath(bath), rel=1e-12)


def test_empty_bath_infinite_t2star():
    empty = SampledBath(r=np.empty(0), cos_theta=np.empty(0), couplings_hz=np.empty(0))
    assert t2star_of_bath(empty) == math.inf


def test_distribution_single_bath():
    dist = t2star_distribution(BathConfig(concentration=CHI_REF), 1, make_rng(15))
    assert dist.samples.size == 1


def test_distribution_reproducible():
    cfg = BathConfig(concentration=CHI_REF)
    a = t2star_distribution(cfg, 300, make_rng(16))
    b = t2star_distribution(cfg, 300, make_rng(16))
    assert np.array_equal(a.samples, b.samples)
    assert a.half_normal_scale == b.half_normal_scale


def test_scale_halves_when_concentration_doubles():
    n = 4000
    s1 = t2star_distribution(BathConfig(concentration=CHI_REF), n, make_rng(17))
    s2 = t2star_distribution(BathConfig(concentration=2 * CHI_REF), n, make_rng(18))
    assert s2.half_normal_scale / s1.half_normal_scale == pytest.approx(0.5, rel=0.05)


def test_batched_sampler_agrees_with_per_bath_path():
    # the float32 batched reduction and the exact per-bath sampler draw from
    # the same distribution
    cfg = BathConfig(concentration=CHI_REF)
    fast = t2star_distribution(cfg, 1500, make_rng(19)).samples
    slow = np.array([t2star_of_bath(sample_bath(cfg, make_rng(200 + i)))
                     for i in range(800)])
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


def test_exclusion_filter_lengthens_t2star():
    cfg = BathConfig(concentration=CHI_REF, exclude_above_hz=2e3)
    plain = t2star_distribution(BathConfig(concentration=CHI_REF), 300, make_rng(20))
    filtered = t2star_distribution(cfg, 300, make_rng(20))
    assert np.median(filtered.samples) > np.median(plain.samples)


def test_poisson_mode():
    cfg = BathConfig(concentration=CHI_REF, count_statistics="poisson")
    dist = t2star_distribution(cfg, 500, make_rng(21))
    assert np.all(np.isfinite(dist.samples))


def test_half_normal_mle():
    rng = make_rng(22)
    x = np.abs(rng.normal(0.0, 3.5, 200000))
    assert half_normal_mle(x) == pytest.approx(3.5, rel=0.01)


def test_likelihood_vacuous_and_monotone():
    assert electron_bath_likelihood(21.0, 280e-6, 0, make_rng(23)).likelihood == 1.0
    vals = [electron_bath_likelihood(rho, 280e-6, 6, make_rng(24), n_baths=4000).likelihood
            for rho in (8.0, 16.0, 24.0, 32.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_likelihood_matches_half_normal_closed_form():
    # The squared dipolar couplings of a dilute random bath form a one-sided
    # alpha = 1/2 stable sum (Abragam, Principles of Nuclear Magnetism, 1961,
    # ch. IV), so T2* is half-normal with scale 4/(p kappa) in infinite
    # volume and the exceedance is erfc(t/(sqrt(2) sigma)).  For two
    # independent baths the Levy constants add, so 1/sigma adds.  The closed
    # form itself must reproduce the paper's 0.0318 us 13C scale.
    assert analytic_half_normal_scale("carbon13", 1.0) * 1e6 == pytest.approx(0.0318, rel=5e-3)
    t2_lower, n_centres, n_baths = 280e-6, 6, 20_000
    sigma_e = analytic_half_normal_scale("electron", 21e-9)
    sigma_c = analytic_half_normal_scale("carbon13", 1.3e-5)
    for chi, sigma in ((None, sigma_e), (1.3e-5, 1.0 / (1.0 / sigma_e + 1.0 / sigma_c))):
        est = electron_bath_likelihood(21.0, t2_lower, n_centres, make_rng(27),
                                       n_baths=n_baths, chi=chi)
        p = math.erfc(t2_lower / (math.sqrt(2.0) * sigma))
        assert abs(est.exceedance - p) < 4 * est.exceedance_stderr, (chi, est, p)
        assert abs(est.likelihood - p ** n_centres) < 4 * est.stderr, (chi, est, p)


def test_exceedance_monotone_in_threshold():
    cfg = BathConfig(concentration=21e-9, r_max=450e-9, species="electron")
    rng = make_rng(25)
    dist = t2star_distribution(cfg, 6000, rng)
    ps = [np.mean(dist.samples > x) for x in (100e-6, 280e-6, 600e-6)]
    assert ps[0] >= ps[1] >= ps[2]


def test_likelihood_reports_standard_error(rng):
    est = electron_bath_likelihood(21.0, 280e-6, 6, rng, n_baths=3000)
    assert isinstance(est, LikelihoodEstimate)
    assert 0.0 < est.stderr < 0.1
    assert est.exceedance_stderr == pytest.approx(
        math.sqrt(est.exceedance * (1 - est.exceedance) / 3000), rel=0.2)


def test_reduction_kernels_agree():
    # the batched reduceat sums and the per-bath t2star_of_bath reduce the
    # same draws (r^3 = r_max^3 (1 - u), cos theta = 2 c - 1) to the same
    # T2*, up to summation order
    from decolab.bath import _coupling_prefactor, _gamma2_sums
    rng = make_rng(26)
    counts = rng.integers(0, 5000, 64)
    total = int(counts.sum())
    u = rng.random(total, dtype=np.float32)
    c = rng.random(total, dtype=np.float32)
    r_max = 45e-9
    pref = _coupling_prefactor("carbon13", CONSTANTS)
    batched = np.sqrt(2.0 / (0.25 * (pref / r_max ** 3) ** 2 * _gamma2_sums(u, c, counts)))
    r = r_max * np.cbrt(1.0 - u.astype(np.float64))
    cos_theta = 2.0 * c.astype(np.float64) - 1.0
    couplings = pref * (3.0 * cos_theta ** 2 - 1.0) / r ** 3 / TWO_PI
    edges = np.concatenate(([0], np.cumsum(counts)))
    per_bath = [t2star_of_bath(SampledBath(r[a:b], cos_theta[a:b], couplings[a:b]))
                for a, b in zip(edges[:-1], edges[1:])]
    assert np.allclose(batched, per_bath, rtol=1e-9)
