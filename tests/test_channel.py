import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpolar.channel import (ChannelParams, LLR_CLAMP, bawgn_capacity,
                             channel_llr_distribution, noise_stream,
                             observation_to_llr, transmit, trial_draws)

from oracles import transmit_reference


# The SNR, in dB, whose noise standard deviation per dimension is 1.
SNR_SIGMA_1 = -10 * np.log10(2.0)


def test_sigma_formula():
    assert ChannelParams(snr_db=0.0).sigma == pytest.approx(np.sqrt(0.5))
    assert ChannelParams(snr_db=SNR_SIGMA_1).sigma == pytest.approx(1.0)


def test_channel_params_reject_extreme_snr():
    # 10^(snr/10) overflows or the noise variance underflows to 0.
    for snr in (1e308, -1e308, 4000.0, -4000.0, np.inf, -np.inf, np.nan,
                10 ** 400, -10 ** 400):
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
    params = ChannelParams(snr_db=SNR_SIGMA_1)
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=2),
       st.sampled_from([np.int8, np.bool_, np.int64, np.float64]),
       st.floats(-20.0, 40.0), st.integers(0, 2 ** 32 - 1))
@example([0], np.int8, 0.0, 0)
@example([3, 5], np.int8, 40.0, 1)
def test_transmit_equals_the_reference_bytes(shape, dtype, snr_db, seed):
    # Noise from 1e-3 to 1e3 (clamped LLRs at high SNR) and signed zeros,
    # so both the rounding of (1 - 2w) + sigma*noise and the clamp show.
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2, size=shape).astype(dtype)
    noise = rng.standard_normal(shape) \
        * 10.0 ** rng.integers(-3, 4, size=shape)
    noise[rng.random(shape) < 0.1] = -0.0
    noise[rng.random(shape) < 0.1] = 0.0
    params = ChannelParams(snr_db=snr_db)
    llr = transmit(words, noise, params)
    want = transmit_reference(words, noise, params)
    assert llr.shape == want.shape and llr.dtype == want.dtype
    assert llr.tobytes() == want.tobytes()


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
    params = ChannelParams(snr_db=SNR_SIGMA_1)
    n = 10 ** 6
    llr = transmit(np.zeros(n, dtype=np.int8),
                   noise_stream((11, 0)).standard_normal(n), params)
    mean_expect = 2.0 / sigma ** 2
    var_expect = 4.0 / sigma ** 2
    se = np.sqrt(var_expect / n)
    assert abs(llr.mean() - mean_expect) < 3 * se
    assert abs(llr.var() - var_expect) / var_expect < 0.05


def test_channel_llr_distribution():
    assert channel_llr_distribution(ChannelParams(snr_db=SNR_SIGMA_1)).mean \
        == pytest.approx(2.0)
    sigma_half = ChannelParams(snr_db=-10 * np.log10(2 * 0.5 ** 2))
    assert channel_llr_distribution(sigma_half).mean == pytest.approx(8.0)
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
    params = ChannelParams(snr_db=SNR_SIGMA_1)
    rng = np.random.default_rng(1234)
    n = 10 ** 7
    mean = 2.0 / params.sigma ** 2
    llr = rng.normal(mean, np.sqrt(2 * mean), size=n)
    mc = 1.0 - np.mean(np.logaddexp(0.0, -llr)) / np.log(2.0)
    assert bawgn_capacity(params) == pytest.approx(mc, abs=1e-3)


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


@pytest.mark.parametrize("k, n", [(0, 0), (0, 8), (True, 8), (8.0, 8),
                                  (8, 8.0), (-1, 8), (8, -1)])
def test_trial_draws_rejects_bad_sizes(k, n):
    # n = 0 is the hooked path and stays allowed; a block needs k >= 1.
    with pytest.raises(ValueError, match="k >= 1 and n >= 0"):
        trial_draws(0, 0, 3, k, n)


def test_stream_keys_outside_64_bits_are_rejected():
    # A seed or index outside [0, 2^64) would alias another stream.
    # A float or a bool seed would be truncated to another stream.
    for seed in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64), (True, 0)):
        with pytest.raises(ValueError, match="2\\^64"):
            noise_stream(seed)
    for base, lo, hi in ((0, 2 ** 64 - 2, 2 ** 64 + 1), (0.5, 0, 2)):
        with pytest.raises(ValueError, match="2\\^64"):
            trial_draws(base, lo, hi, 8, 8)
    bits, _ = trial_draws(0, 2 ** 64 - 2, 2 ** 64, 8, 8)
    assert bits.shape == (2, 8)


def test_draws_and_transmit_in_place_give_the_same_bytes():
    # Noise drawn into a given array, then turned into LLRs in that same
    # array, equals the allocating path byte for byte.
    params = ChannelParams(snr_db=-20.0)
    words = (np.arange(7 * 30).reshape(7, 30) % 3 == 0).astype(np.int8)
    bits, noise = trial_draws(5, 100, 107, 12, 30)
    want = transmit(words, noise, params)
    out = np.full((7, 30), np.nan)
    bits_out, drawn = trial_draws(5, 100, 107, 12, 30, out=out)
    assert drawn is out and np.array_equal(bits_out, bits)
    assert out.tobytes() == noise.tobytes()
    llr = transmit(words, out, params, out=out)
    assert llr is out and llr.tobytes() == want.tobytes()
    for bad in (np.empty((7, 29)), np.empty((7, 30), np.float32), [[0.0]]):
        with pytest.raises(ValueError, match="out"):
            trial_draws(5, 100, 107, 12, 30, out=bad)
        with pytest.raises(ValueError, match="out"):
            transmit(words, noise, params, out=bad)
