from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

from rcpolar.channel import (ChannelParams, LLR_CLAMP,
                             channel_llr_distribution, noise_stream, transmit)
from rcpolar.codec import rcp_encode
from rcpolar.construct import construct_rcp
from rcpolar.design import HarqScheme, build_bler_curve, design_scheme
from rcpolar import channel, construct, simulate
from rcpolar.simulate import (_chunk_counts, _empty_counts, _merge,
                              _report_from_counts, _run_chunks,
                              bler_monte_carlo, bound_check, run_campaign)

from oracles import campaign_statistics_reference, run_trial


def _small_scheme():
    return HarqScheme(k=8, m=12, lengths=(14, 18, 24), eta_estimate=0.4)


def _family(scheme, snr_db=0.0):
    """The scheme's longest code, whose prefixes are its rounds."""
    params = ChannelParams(snr_db=snr_db)
    code, _, _ = construct_rcp(scheme.lengths[-1], scheme.k, scheme.m,
                               channel_llr_distribution(params))
    return code, params


# Fault-injection hooks take a chunk's (B, n) words and its trial indices
# and return (B, n) LLRs.

def _erasure_channel(words, params, trials):
    return np.zeros(words.shape)


def _perfect_channel(words, params, trials):
    return np.where(words == 0, LLR_CLAMP, -LLR_CLAMP)


def _trial_keyed_channel(words, params, trials):
    # AWGN keyed by the trial index alone, on streams apart from the
    # campaign's: a chunk handed the wrong indices gets other LLRs.
    noise = np.stack([noise_stream((99, int(i))).standard_normal(words.shape[1])
                      for i in trials])
    return transmit(words, noise, params)


def test_trial_succeeds_first_round_noiseless():
    scheme = _small_scheme()
    code, _ = _family(scheme)
    params = ChannelParams(snr_db=200.0)
    info = np.ones(scheme.k, dtype=np.int8)
    out = run_trial(code, scheme.lengths, info, params, rng=(1, 0))
    assert out.success_round == 1
    assert out.bits_sent == scheme.lengths[0]


def test_trial_fails_on_total_erasure():
    scheme = _small_scheme()
    code, params = _family(scheme)
    info = np.zeros(scheme.k, dtype=np.int8)
    info[0] = 1  # an erased channel decodes to all-zero, so this must fail
    out = run_trial(code, scheme.lengths, info, params, rng=(2, 0),
                    channel_fn=_erasure_channel)
    assert out.success_round is None
    assert out.bits_sent == scheme.lengths[-1]
    assert out.fail_flags == (True, True, True)


def test_trial_replay_is_deterministic():
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-1.0)
    info = np.arange(scheme.k, dtype=np.int8) % 2
    a = run_trial(code, scheme.lengths, info, params, rng=(9, 4))
    b = run_trial(code, scheme.lengths, info, params, rng=(9, 4))
    assert a == b


def test_trial_rejects_bad_family():
    # A family is the longest code and its round lengths, so a family that
    # is not nested cannot be built; what is left to reject is empty,
    # reversed, repeated, below-m and beyond-n lengths.
    scheme = _small_scheme()
    code, params = _family(scheme)
    info = np.zeros(scheme.k, dtype=np.int8)
    for lengths in ((), tuple(reversed(scheme.lengths)), (14, 14, 24),
                    (10, 18), (14, 18, 25)):
        with pytest.raises(ValueError):
            run_trial(code, lengths, info, params, rng=(0, 0))


def test_campaign_all_success_round_one():
    scheme = _small_scheme()
    params = ChannelParams(snr_db=200.0)
    for channel_fn in (None, _perfect_channel):
        report = run_campaign(scheme, params, trials=200, base_seed=3,
                              channel_fn=channel_fn)
        assert report.pr_first_success[0] == 1.0
        assert report.eta == pytest.approx(scheme.k / scheme.lengths[0])
        assert report.e_k == scheme.k
        assert report.e_n == scheme.lengths[0]


def test_campaign_all_fail():
    # A random block decodes under total erasure only when it is all-zero
    # (ties resolve to bit 0); replay the block draws to count those exactly.
    scheme = _small_scheme()
    params = ChannelParams(snr_db=0.0)
    trials = 150
    report = run_campaign(scheme, params, trials=trials, base_seed=4,
                          channel_fn=_erasure_channel)
    lucky = sum(
        not noise_stream((4, i)).integers(0, 2, size=scheme.k, dtype=np.int8).any()
        for i in range(trials))
    assert report.pr_e[-1] == pytest.approx(1.0 - lucky / trials)
    if lucky == 0:
        assert report.e_k == 0.0
        assert report.eta == 0.0
        assert report.e_n == scheme.lengths[-1]


def _accumulation_scheme():
    # Single information bit, decision = running sum of all received copies;
    # outcomes are then fully controlled by hand-crafted LLR signs.
    return HarqScheme(k=1, m=1, lengths=(1, 2, 3), eta_estimate=0.5)


def _phase_stub(lengths):
    def stub(words, params, trials):
        out = np.empty(words.shape)
        for row, word, trial in zip(out, words, trials):
            s = 1.0 - 2.0 * float(word[0])  # sign of the true bit's LLR
            row[:] = -s  # every prefix sum wrong: never succeeds
            phase = trial % 4
            if phase < 3:
                target = lengths[phase]
                row[target - 1] = s * (2.0 * target + 1.0)  # flips the sum from here on
                row[target:] = s
        return out
    return stub


@pytest.mark.parametrize("scheme, snr_db, channel_fn", [
    (_small_scheme(), -2.0, None),
    (_accumulation_scheme(), 0.0, _phase_stub(_accumulation_scheme().lengths)),
], ids=["awgn", "phase-stub"])
def test_campaign_matches_per_trial_reference(scheme, snr_db, channel_fn):
    # Rebuild the statistics from run_trial over the same (base_seed, i)
    # streams, without the batched accumulation code.
    code, params = _family(scheme, snr_db)
    trials, seed = 300, 21
    flags, bits_sent = [], 0
    for i in range(trials):
        rng = noise_stream((seed, i))
        info = rng.integers(0, 2, size=scheme.k, dtype=np.int8)
        out = run_trial(code, scheme.lengths, info, params, rng,
                        channel_fn=channel_fn, trial_index=i)
        flags.append(out.fail_flags)
        bits_sent += out.bits_sent
    report = run_campaign(scheme, params, trials, seed, channel_fn=channel_fn)
    pr_e, pr_first, violations = campaign_statistics_reference(flags)
    assert report.pr_e == pr_e
    assert report.pr_first_success == pr_first
    assert report.nesting_violations == violations
    assert report.e_n == bits_sent / trials


def _nan_channel(words, params, trials):
    out = np.ones(words.shape)
    out[-1, -1] = np.nan
    return out


def _scalar_channel(words, params, trials):
    return np.float64(1.0)


def _one_llr_channel(words, params, trials):
    return np.ones(1)


def _one_word_channel(words, params, trials):
    return np.ones(words.shape[1])


def _long_channel(words, params, trials):
    return np.ones((words.shape[0], words.shape[1] + 1))


@pytest.mark.parametrize("channel_fn", [_nan_channel, _scalar_channel,
                                        _one_llr_channel, _one_word_channel,
                                        _long_channel])
def test_campaign_rejects_bad_channel_output(channel_fn):
    # A 0-d, length-1 or one-word output would otherwise broadcast across
    # the chunk.
    with pytest.raises(ValueError, match="channel_fn"):
        run_campaign(_small_scheme(), ChannelParams(snr_db=0.0), trials=5,
                     base_seed=0, channel_fn=channel_fn)


def test_campaign_synthetic_outcomes_match_hand_accounting():
    # Trial i first succeeds at round (i mod 4) + 1, or never for phase 3;
    # every statistic then has a closed form.
    scheme = _accumulation_scheme()
    params = ChannelParams(snr_db=0.0)
    report = run_campaign(scheme, params, trials=400, base_seed=5,
                          channel_fn=_phase_stub(scheme.lengths))
    assert report.pr_first_success == (0.25, 0.25, 0.25)
    assert report.pr_e == (0.75, 0.5, 0.25)
    assert report.nesting_violations == 0
    assert report.e_k == pytest.approx(1 * 0.75)
    assert report.e_n == pytest.approx((1 + 2 + 3 + 3) / 4)
    assert report.eta == pytest.approx(0.75 / 2.25)


def test_campaign_eta_equals_per_trial_accounting():
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-2.0)
    trials = 300
    report = run_campaign(scheme, params, trials=trials, base_seed=6)
    delivered = 0
    used = 0
    for i in range(trials):
        rng = noise_stream((6, i))
        info = rng.integers(0, 2, size=scheme.k, dtype=np.int8)
        out = run_trial(code, scheme.lengths, info, params, rng=rng)
        delivered += scheme.k * int(out.success_round is not None)
        used += out.bits_sent
    assert report.eta == pytest.approx(delivered / used, rel=1e-12)
    assert report.e_k == pytest.approx(delivered / trials, rel=1e-12)
    assert report.e_n == pytest.approx(used / trials, rel=1e-12)


class _RecordingPool(ProcessPoolExecutor):
    """A real process pool that records the worker counts it is given."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)
        super().__init__(max_workers=max_workers)


def _usable_cores(monkeypatch, cores):
    """Make ``os.sched_getaffinity`` report ``cores`` usable cores."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))


def test_campaign_worker_count_invariance(monkeypatch):
    # 9000 trials of an n0 = 16 code are two chunks (8192 + 808), so two
    # worker processes each get one, on any machine; the trial-keyed hook
    # checks that the workers see the same trial indices as the in-process
    # loop.
    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _RecordingPool)
    scheme = _small_scheme()
    params = ChannelParams(snr_db=-1.0)
    for channel_fn in (None, _trial_keyed_channel):
        a = run_campaign(scheme, params, trials=9000, base_seed=8, threads=1,
                         channel_fn=channel_fn)
        b = run_campaign(scheme, params, trials=9000, base_seed=8, threads=2,
                         channel_fn=channel_fn)
        assert a == b
    assert _RecordingPool.workers == [2, 2]


class _InlinePool:
    """Stands in for the process pool: records its worker count and runs
    every submission at once, in this process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_run_chunks_starts_no_more_workers_than_chunks(monkeypatch):
    # Nor more than the usable cores.
    monkeypatch.setattr(_InlinePool, "workers", [])
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _InlinePool)
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-1.0)
    # n0 = 16 gives chunks of 8192 trials: 3 chunks, then 1.
    for cores, trials, workers in ((64, 2 * 8192 + 1, [3]),
                                   (2, 2 * 8192 + 1, [2]), (64, 100, [])):
        _usable_cores(monkeypatch, cores)
        _InlinePool.workers.clear()
        many = _run_chunks(code, scheme.lengths, params, trials, 8, threads=64)
        assert _InlinePool.workers == workers
        one = _run_chunks(code, scheme.lengths, params, trials, 8, threads=1)
        for key in one:
            assert np.array_equal(many[key], one[key]), key


def test_campaign_event_chain_containment():
    # Success followed by a later failure is possible in principle and must
    # be counted rather than assumed away; for a reasonably strong code the
    # count stays small.
    scheme = _small_scheme()
    params = ChannelParams(snr_db=-1.0)
    report = run_campaign(scheme, params, trials=2000, base_seed=9)
    assert 0 <= report.nesting_violations <= 0.05 * report.trials
    # more accumulated evidence helps on average
    assert all(b <= a for a, b in zip(report.pr_e, report.pr_e[1:]))
    # chain consistency: first-success mass plus final-failure mass is 1
    total = sum(report.pr_first_success)
    chain_fail = 1.0 - total
    assert chain_fail >= 0
    assert report.e_k == pytest.approx(scheme.k * total)
    # at high SNR decoding is stable round to round
    strong = run_campaign(scheme, ChannelParams(snr_db=6.0), trials=2000,
                          base_seed=9)
    assert strong.nesting_violations == 0


def test_campaign_builds_one_mother_code(monkeypatch):
    # The union-bound estimate is read off the plan of the family's own
    # mother code, not rebuilt.
    calls = []
    original = construct.ga_evolve

    def counting(n0, ms, mean):
        calls.append((n0, len(ms)))
        return original(n0, ms, mean)

    monkeypatch.setattr(construct, "ga_evolve", counting)
    run_campaign(_small_scheme(), ChannelParams(snr_db=0.0), trials=40,
                 base_seed=12)
    assert len(calls) == 1


def test_campaign_reproducible():
    scheme = _small_scheme()
    params = ChannelParams(snr_db=-1.5)
    a = run_campaign(scheme, params, trials=120, base_seed=10)
    b = run_campaign(scheme, params, trials=120, base_seed=10)
    assert a == b
    c = run_campaign(scheme, params, trials=120, base_seed=11)
    assert a != c


def test_bound_check_t1_sides_coincide():
    scheme = HarqScheme(k=8, m=12, lengths=(16,), eta_estimate=0.4)
    params = ChannelParams(snr_db=0.0)
    report = run_campaign(scheme, params, trials=500, base_seed=12)
    check = bound_check(report)
    row = check.rows[0]
    assert row.marginal_decrease == pytest.approx(1.0 - report.pr_e[0])
    assert row.first_success == pytest.approx(1.0 - report.pr_e[0])
    assert row.holds


def test_bound_check_exact_on_nested_synthetic_events():
    # With perfectly nested events the marginal decrease equals the
    # first-success probability at every round.
    scheme = _accumulation_scheme()
    params = ChannelParams(snr_db=0.0)
    report = run_campaign(scheme, params, trials=400, base_seed=13,
                          channel_fn=_phase_stub(scheme.lengths))
    assert report.nesting_violations == 0
    check = bound_check(report)
    for row in check.rows:
        assert row.marginal_decrease == pytest.approx(row.first_success)
        assert row.holds


def test_throughput_below_capacity():
    from rcpolar.channel import bawgn_capacity
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    scheme, _ = design_scheme(16, 2, 64, channel)
    params = ChannelParams(snr_db=0.0)
    report = run_campaign(scheme, params, trials=2000, base_seed=14)
    cap = bawgn_capacity(params)
    assert report.eta <= cap + 3 * report.ci95["eta"]


def test_bler_monte_carlo_reproducible_and_bounded():
    params = ChannelParams.from_sigma(0.8)
    a = bler_monte_carlo(48, 20, 32, params, trials=2000, base_seed=15)
    b = bler_monte_carlo(48, 20, 32, params, trials=2000, base_seed=15)
    assert a == b
    assert 0.0 <= a["bler"] <= 1.0
    assert a["errors"] == round(a["bler"] * a["trials"])


@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_rejects_trials_below_one(trials):
    params = ChannelParams(snr_db=0.0)
    with pytest.raises(ValueError, match="trial"):
        bler_monte_carlo(12, 4, 8, params, trials=trials, base_seed=0)
    with pytest.raises(ValueError, match="trial"):
        run_campaign(_small_scheme(), params, trials=trials, base_seed=0)


def test_report_rejects_trial_count_mismatch():
    scheme = _small_scheme()
    params = ChannelParams(snr_db=0.0)
    curve = build_bler_curve(scheme.k, scheme.m, scheme.lengths[-1],
                             channel_llr_distribution(params))
    counts = _empty_counts(len(scheme.lengths))
    counts["trials"] = 9
    with pytest.raises(ValueError):
        _report_from_counts(scheme, params, 10, 0, counts, curve)


def test_chunk_counts_independent_of_chunk_split():
    # Re-keying one generator per chunk must carry nothing from one trial
    # or chunk into the next.
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-2.0)
    whole = _chunk_counts(code, scheme.lengths, params, 17, 0, 100)
    split = _empty_counts(scheme.t)
    for lo, hi in ((0, 37), (37, 38), (38, 100)):
        _merge(split, _chunk_counts(code, scheme.lengths, params, 17, lo, hi))
    assert whole["trials"] == 100
    assert whole.keys() == split.keys()
    for key in whole:
        assert np.array_equal(whole[key], split[key]), key


def test_chunk_counts_builds_one_generator_per_chunk(monkeypatch):
    # One sampling path: a chunk re-keys one generator, hooked or not.
    assert not hasattr(simulate, "noise_stream")
    calls = []
    original = channel.noise_stream

    def counting(seed):
        calls.append(seed)
        return original(seed)

    monkeypatch.setattr(channel, "noise_stream", counting)
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-2.0)
    # The erasure hook makes no noise_stream call of its own.
    for channel_fn in (None, _erasure_channel):
        calls.clear()
        _chunk_counts(code, scheme.lengths, params, 3, 40, 90,
                      channel_fn=channel_fn)
        assert calls == [(3, 40)]


def test_chunk_counts_hands_the_hook_words_and_trial_indices():
    scheme = _small_scheme()
    code, params = _family(scheme, snr_db=-2.0)
    seen = []

    def hook(words, params, trials):
        seen.append((words.copy(), trials.copy()))
        return _perfect_channel(words, params, trials)

    counts = _chunk_counts(code, scheme.lengths, params, 3, 40, 90,
                           channel_fn=hook)
    assert counts["fails"].tolist() == [0, 0, 0]
    (words, trials), = seen
    assert words.dtype == np.int8 and words.shape == (50, code.n)
    assert trials.tolist() == list(range(40, 90))
    for row, i in zip(words, trials):
        info = noise_stream((3, int(i))).integers(0, 2, size=code.k,
                                                  dtype=np.int8)
        assert np.array_equal(row, rcp_encode(info, code))
