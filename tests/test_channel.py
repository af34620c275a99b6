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


def test_noiseless_limit_hits_clamp():
    params = ChannelParams(snr_db=200.0)
    llr = transmit(np.array([0]), params, rng_seed=3)
    assert llr[0] >= LLR_CLAMP - 1e-12
    llr = transmit(np.array([1]), params, rng_seed=3)
    assert llr[0] <= -LLR_CLAMP + 1e-12


def test_zero_observation_is_erasure():
    params = ChannelParams(snr_db=2.0)
    assert observation_to_llr(0.0, params) == 0.0


def test_transmit_matches_scalar_recomputation():
    # Replay the noise stream and recompute each LLR with plain scalar math.
    params = ChannelParams.from_sigma(1.0)
    bits = np.array([0, 1])
    llr = transmit(bits, params, rng_seed=42)
    noise = noise_stream(42).standard_normal(2)
    for i, b in enumerate(bits):
        expected = 2.0 * ((1.0 - 2.0 * b) + noise[i]) / 1.0
        expected = max(-LLR_CLAMP, min(LLR_CLAMP, expected))
        assert llr[i] == pytest.approx(expected, abs=0.0)


def test_transmit_rejects_non_binary():
    params = ChannelParams(snr_db=0.0)
    with pytest.raises(ValueError):
        transmit(np.array([0, 2]), params, rng_seed=0)
    with pytest.raises(ValueError):
        transmit(np.array([]), params, rng_seed=0)


def test_transmit_is_pure():
    params = ChannelParams(snr_db=1.0)
    bits = np.zeros(64, dtype=np.int8)
    a = transmit(bits, params, rng_seed=(7, 9))
    b = transmit(bits, params, rng_seed=(7, 9))
    assert np.array_equal(a, b)
    c = transmit(bits, params, rng_seed=(7, 10))
    assert not np.array_equal(a, c)


def test_llr_statistics_under_all_zero():
    sigma = 1.0
    params = ChannelParams.from_sigma(sigma)
    n = 10 ** 6
    llr = transmit(np.zeros(n, dtype=np.int8), params, rng_seed=11)
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


# Draws the 64-bit key masking (negative seeds, seeds >= 2^63, indices near
# 2^64 wrapping past it) and every block length modulo 8.
@example(base_seed=-1, lo=2 ** 64 - 2, rows=4, k=13, extra=0)
@example(base_seed=2 ** 63, lo=0, rows=1, k=8, extra=3)
@settings(max_examples=300, deadline=None)
@given(base_seed=st.integers(-2 ** 64, 2 ** 64 - 1),
       lo=st.integers(0, 2 ** 40), rows=st.integers(1, 5),
       k=st.integers(1, 80), extra=st.integers(0, 40))
def test_trial_draws_equal_per_trial_streams(base_seed, lo, rows, k, extra):
    # Pins the block read from raw words to numpy's bounded int8 draw: a
    # change in that algorithm fails here instead of moving counts.
    n = k + extra
    bits, noise = trial_draws(base_seed, lo, lo + rows, k, n)
    assert bits.dtype == np.int8 and bits.shape == (rows, k)
    assert noise.dtype == np.float64 and noise.shape == (rows, n)
    for i in range(rows):
        rng = noise_stream((base_seed, lo + i))
        assert np.array_equal(bits[i], rng.integers(0, 2, size=k, dtype=np.int8))
        assert np.array_equal(noise[i], rng.standard_normal(n))
