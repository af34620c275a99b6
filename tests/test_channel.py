import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpolar.channel import (ChannelParams, LLR_CLAMP, bawgn_capacity,
                             channel_llr_distribution, noise_stream,
                             observation_to_llr, transmit, trial_draws)


def test_sigma_snr_round_trip():
    for snr in np.linspace(-15, 25, 81):
        params = ChannelParams(snr_db=snr)
        back = ChannelParams.from_sigma(params.sigma)
        assert back.snr_db == pytest.approx(snr, rel=1e-12, abs=1e-12)


def test_sigma_formula():
    assert ChannelParams(snr_db=0.0).sigma == pytest.approx(np.sqrt(0.5))
    assert ChannelParams.from_sigma(1.0).snr_db == pytest.approx(-10 * np.log10(2))


def test_channel_params_reject_extreme_snr():
    # 10^(snr/10) overflows or the noise variance underflows to 0.
    for snr in (1e308, -1e308, 4000.0, -4000.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="noise variance"):
            ChannelParams(snr_db=snr)
    for snr in (3000.0, -3000.0):
        assert 0.0 < ChannelParams(snr_db=snr).noise_var < np.inf


def test_noiseless_limit_hits_clamp():
    params = ChannelParams(snr_db=200.0)
    noise = noise_stream((3, 0)).standard_normal(2)
    llr = transmit(np.array([0, 1]), noise, params)
    assert llr[0] >= LLR_CLAMP - 1e-12
    assert llr[1] <= -LLR_CLAMP + 1e-12


def test_zero_observation_is_erasure():
    params = ChannelParams(snr_db=2.0)
    assert observation_to_llr(0.0, params) == 0.0


def test_transmit_matches_scalar_recomputation():
    # Recompute each LLR of a (B, n) batch with plain scalar math.
    params = ChannelParams.from_sigma(1.0)
    bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int8)
    noise = noise_stream((42, 0)).standard_normal(bits.shape)
    llr = transmit(bits, noise, params)
    assert llr.shape == bits.shape
    for i, j in np.ndindex(bits.shape):
        expected = 2.0 * ((1.0 - 2.0 * bits[i, j]) + noise[i, j]) / 1.0
        expected = max(-LLR_CLAMP, min(LLR_CLAMP, expected))
        assert llr[i, j] == pytest.approx(expected, abs=0.0)


def test_transmit_rejects_non_binary():
    params = ChannelParams(snr_db=0.0)
    for bits in ([0, 2], [0, -1], [0.0, 0.5], [1.0, np.nan]):
        with pytest.raises(ValueError):
            transmit(np.array(bits), np.zeros(2), params)
    with pytest.raises(ValueError):
        transmit(np.array([0, 1]), np.zeros(3), params)
    llr = transmit(np.array([0.0, 1.0]), np.zeros(2), params)
    assert llr.tolist() == pytest.approx([4.0, -4.0])


def test_transmit_is_pure():
    params = ChannelParams(snr_db=1.0)
    bits = np.zeros(64, dtype=np.int8)
    noise = noise_stream((7, 9)).standard_normal(64)
    kept = noise.copy()
    a = transmit(bits, noise, params)
    b = transmit(bits, noise, params)
    assert np.array_equal(a, b)
    assert np.array_equal(noise, kept) and not bits.any()
    c = transmit(bits, noise_stream((7, 10)).standard_normal(64), params)
    assert not np.array_equal(a, c)


def test_llr_statistics_under_all_zero():
    sigma = 1.0
    params = ChannelParams.from_sigma(sigma)
    n = 10 ** 6
    llr = transmit(np.zeros(n, dtype=np.int8),
                   noise_stream((11, 0)).standard_normal(n), params)
    mean_expect = 2.0 / sigma ** 2
    var_expect = 4.0 / sigma ** 2
    se = np.sqrt(var_expect / n)
    assert abs(llr.mean() - mean_expect) < 3 * se
    assert abs(llr.var() - var_expect) / var_expect < 0.05


def test_channel_llr_distribution():
    assert channel_llr_distribution(ChannelParams.from_sigma(1.0)).mean == pytest.approx(2.0)
    assert channel_llr_distribution(ChannelParams.from_sigma(0.5)).mean == pytest.approx(8.0)
    assert channel_llr_distribution(ChannelParams(snr_db=-60.0)).mean == pytest.approx(0.0, abs=1e-4)


def test_capacity_limits():
    assert bawgn_capacity(ChannelParams(snr_db=-60.0)) == pytest.approx(0.0, abs=1e-3)
    assert bawgn_capacity(ChannelParams(snr_db=60.0)) == pytest.approx(1.0, abs=1e-9)


def test_capacity_monotone_in_snr():
    values = [bawgn_capacity(ChannelParams(snr_db=s))
              for s in np.linspace(-20, 20, 81)]
    assert np.all(np.diff(values) >= 0)


def test_capacity_against_monte_carlo_mutual_information():
    # Independent estimate: sample the LLR and average log2(1 + e^-L).
    params = ChannelParams.from_sigma(1.0)
    rng = np.random.default_rng(1234)
    n = 10 ** 7
    mean = 2.0 / params.sigma ** 2
    llr = rng.normal(mean, np.sqrt(2 * mean), size=n)
    mc = 1.0 - np.mean(np.logaddexp(0.0, -llr)) / np.log(2.0)
    assert bawgn_capacity(params) == pytest.approx(mc, abs=1e-3)


def test_quadrature_node_floor():
    with pytest.raises(ValueError):
        bawgn_capacity(ChannelParams(snr_db=0.0), nodes=32)


# Draws the edges of the 64-bit keys (seed 0 and 2^64 - 1, indices up to
# 2^64 - 1) and every block length modulo 8.
@example(base_seed=2 ** 64 - 1, lo=2 ** 64 - 4, rows=4, k=13, extra=0)
@example(base_seed=0, lo=0, rows=1, k=8, extra=3)
@settings(max_examples=300, deadline=None)
@given(base_seed=st.integers(0, 2 ** 64 - 1),
       lo=st.integers(0, 2 ** 40), rows=st.integers(1, 5),
       k=st.integers(1, 80), extra=st.integers(0, 40))
def test_trial_draws_equal_per_trial_streams(base_seed, lo, rows, k, extra):
    # Pins the block read from raw words to numpy's bounded int8 draw: a
    # change in that algorithm fails here instead of moving counts.  With
    # n = 0 (a hooked campaign chunk) the blocks are the same.
    n = k + extra
    bits, noise = trial_draws(base_seed, lo, lo + rows, k, n)
    assert bits.dtype == np.int8 and bits.shape == (rows, k)
    assert noise.dtype == np.float64 and noise.shape == (rows, n)
    for i in range(rows):
        rng = noise_stream((base_seed, lo + i))
        assert np.array_equal(bits[i], rng.integers(0, 2, size=k, dtype=np.int8))
        assert np.array_equal(noise[i], rng.standard_normal(n))
    bits0, noise0 = trial_draws(base_seed, lo, lo + rows, k, 0)
    assert np.array_equal(bits0, bits) and noise0.shape == (rows, 0)


def test_stream_keys_outside_64_bits_are_rejected():
    # A seed or index outside [0, 2^64) would alias another stream.
    for seed in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)):
        with pytest.raises(ValueError, match="2\\^64"):
            noise_stream(seed)
    with pytest.raises(ValueError, match="2\\^64"):
        trial_draws(0, 2 ** 64 - 2, 2 ** 64 + 1, 8, 8)
    bits, _ = trial_draws(0, 2 ** 64 - 2, 2 ** 64, 8, 8)
    assert bits.shape == (2, 8)
