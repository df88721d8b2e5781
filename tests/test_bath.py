import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from decolab.bath import (BathConfig, LikelihoodEstimate, T2StarDistribution,
                          _coupling_prefactor, electron_bath_likelihood,
                          t2star_distribution)
from decolab.constants import CONSTANTS, TWO_PI
from conftest import make_rng
from oracles import (SampledBath, brute_force_t2star, filtered_inverse_square_mean,
                     gamma2_sums, hyperfine_z, sample_bath, t2star_of_bath)
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
    empties = np.isinf(t2star_distribution(cfg, 2000, make_rng(10)).samples).sum()
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
    assert _coupling_prefactor("carbon13", CONSTANTS) * 2 / 1e-27 / TWO_PI == \
        pytest.approx(expected, rel=1e-12)
    # electron species swaps the nuclear for the electron gyromagnetic ratio
    ratio = (_coupling_prefactor("electron", CONSTANTS)
             / _coupling_prefactor("carbon13", CONSTANTS))
    assert ratio == pytest.approx(CONSTANTS.gamma_e / CONSTANTS.gamma_c, rel=1e-12)
    assert hyperfine_z(1e-9, 1.0, species="electron") / hyperfine_z(1e-9, 1.0) == \
        pytest.approx(ratio, rel=1e-12)


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
    # the brute-force reference's batched reduction and its per-bath path
    # draw from the same distribution
    cfg = BathConfig(concentration=CHI_REF)
    fast = brute_force_t2star(cfg, 1500, make_rng(19))
    slow = np.array([t2star_of_bath(sample_bath(cfg, make_rng(200 + i)))
                     for i in range(800)])
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


#: (bath, reference baths): the four acceptance concentrations, the 21 ppb
#: electron bath and two filtered baths, at most 6e7 brute-force spins
#: (about 2 s) each.  The 2 Hz filter reaches past the 64 nearest spins, so the near
#: shell widens to hold every spin it can drop.
REFERENCE_BATHS = [
    (BathConfig(concentration=1.3e-5), 20_000),
    (BathConfig(concentration=4.42e-4), 2_000),
    (BathConfig(concentration=1.949e-3), 400),
    (BathConfig(concentration=1.0937e-2), 80),
    (BathConfig(concentration=21e-9, r_max=450e-9, species="electron"), 20_000),
    (BathConfig(concentration=4.42e-4, exclude_above_hz=5e3), 1_000),
    (BathConfig(concentration=1.3e-5, exclude_above_hz=2.0), 5_000),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_BATHS)))
def test_near_far_sampler_matches_brute_force(case):
    # the near/far split draws the same T2* distribution as the sum over
    # every spin
    cfg, n_reference = REFERENCE_BATHS[case]
    reference = brute_force_t2star(cfg, n_reference, make_rng(300 + case))
    near_far = t2star_distribution(cfg, 20_000, make_rng(310 + case)).samples
    assert stats.ks_2samp(near_far, reference).pvalue > 0.01


@pytest.mark.parametrize("case", range(5))
def test_scale_matches_closed_form(case):
    cfg = REFERENCE_BATHS[case][0]
    dist = t2star_distribution(cfg, 100_000, make_rng(320 + case))
    ref = analytic_half_normal_scale(cfg.species, cfg.concentration)
    assert abs(dist.half_normal_scale - ref) < 3 * dist.scale_stderr()


@pytest.mark.parametrize("case", (5, 6))
def test_filtered_inverse_square_mean_matches_quadrature(case):
    # with |A| > H removed, 1/T2*^2 has a finite mean
    cfg = REFERENCE_BATHS[case][0]
    inv2 = 1.0 / t2star_distribution(cfg, 20_000, make_rng(325 + case)).samples ** 2
    se = float(np.std(inv2, ddof=1)) / math.sqrt(inv2.size)
    assert abs(float(np.mean(inv2)) - filtered_inverse_square_mean(cfg)) < 4 * se


def test_exclusion_filter_lengthens_t2star():
    cfg = BathConfig(concentration=CHI_REF, exclude_above_hz=2e3)
    plain = t2star_distribution(BathConfig(concentration=CHI_REF), 300, make_rng(20))
    filtered = t2star_distribution(cfg, 300, make_rng(20))
    assert np.median(filtered.samples) > np.median(plain.samples)


def test_half_normal_mle():
    rng = make_rng(22)
    x = np.abs(rng.normal(0.0, 3.5, 200000))
    assert T2StarDistribution(x).half_normal_scale == pytest.approx(3.5, rel=0.01)


def test_scale_stderr_counts_finite_samples():
    # empty baths (T2* = inf) enter neither the scale nor its standard error
    finite = np.abs(make_rng(25).normal(0.0, 2.0, 40))
    dist = T2StarDistribution(np.concatenate([finite, np.full(60, np.inf)]))
    assert dist.half_normal_scale == T2StarDistribution(finite).half_normal_scale
    assert dist.scale_stderr() == pytest.approx(dist.half_normal_scale / math.sqrt(80),
                                                rel=1e-12)
    empty = T2StarDistribution(np.full(3, np.inf))
    assert empty.half_normal_scale == empty.scale_stderr() == math.inf


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
    # the reference's batched sums and its per-bath t2star_of_bath reduce the
    # same draws (r^3 = r_max^3 (1 - u), cos theta = 2 c - 1) to the same
    # T2*, up to summation order; empty baths, also leading and trailing
    # ones, reduce to inf
    from decolab.bath import _coupling_prefactor
    rng = make_rng(26)
    counts = np.concatenate(([0], rng.integers(0, 5000, 64), [0, 0]))
    total = int(counts.sum())
    u = rng.random(total)
    c = rng.random(total)
    r_max = 45e-9
    pref = _coupling_prefactor("carbon13", CONSTANTS)
    with np.errstate(divide="ignore"):
        batched = np.sqrt(2.0 / (0.25 * (pref / r_max ** 3) ** 2 * gamma2_sums(u, c, counts)))
    r = r_max * np.cbrt(1.0 - u)
    cos_theta = 2.0 * c - 1.0
    couplings = pref * (3.0 * cos_theta ** 2 - 1.0) / r ** 3 / TWO_PI
    edges = np.concatenate(([0], np.cumsum(counts)))
    per_bath = [t2star_of_bath(SampledBath(r[a:b], cos_theta[a:b], couplings[a:b]))
                for a, b in zip(edges[:-1], edges[1:])]
    assert np.isinf(batched[[0, -2, -1]]).all()
    assert np.allclose(batched, per_bath, rtol=1e-9)
