import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rcpolar.channel import (ChannelParams, LlrDistribution,
                             channel_llr_distribution)
from rcpolar.reliability import (ReliabilityTable, _log_phi, _log_phi_inv,
                                 check_mean_update, ga_evolve, pe_from_mean,
                                 puncture_pattern, select_info_set)

from oracles import bit_reverse, ga_reference, mc_density_evolution


def _unpunctured(n0, mean):
    """The GA table of the unpunctured mother code: row 0 of ga_evolve."""
    table = ga_evolve(n0, [n0], mean)
    return ReliabilityTable(means=table.means[0], pe=table.pe[0])


def test_pe_trivial_points():
    assert pe_from_mean(LlrDistribution(mean=0.0).mean) == 0.5
    assert pe_from_mean(LlrDistribution(mean=1e9).mean) < 1e-12


def test_pe_rejects_negative_mean():
    with pytest.raises(ValueError):
        pe_from_mean(np.array([-0.1]))
    with pytest.raises(ValueError):
        pe_from_mean(np.nan)  # not an erased channel (pe 0.5)
    with pytest.raises(ValueError):
        LlrDistribution(mean=-1.0)


def test_pe_matches_quadrature():
    # Mass of Normal(m, 2m) below zero, integrated numerically.
    for m in (0.5, 2.0, 10.0):
        pdf = lambda x: np.exp(-(x - m) ** 2 / (4 * m)) / np.sqrt(4 * np.pi * m)
        expected, _ = quad(pdf, -60, 0)
        assert pe_from_mean(LlrDistribution(mean=m).mean) \
            == pytest.approx(expected, abs=1e-10)


def test_phi_inverse_round_trip():
    grid = np.concatenate([[0.0], np.logspace(-6, 2, 200)])  # up to 100
    back = _log_phi_inv(_log_phi(grid))
    assert np.max(np.abs(back - grid)) < 1e-9


def test_phi_strictly_decreasing():
    grid = np.linspace(1e-9, 200, 100_001)
    vals = _log_phi(grid)
    assert np.all(np.diff(vals) < 0)


def test_check_update_zero_absorbing():
    out = check_mean_update(np.array([0.0, 3.0, 0.0]), np.array([5.0, 0.0, 0.0]))
    assert np.array_equal(out, np.zeros(3))


def test_check_update_no_underflow_for_large_means():
    out = check_mean_update(np.array([5000.0]), np.array([6000.0]))
    assert np.isfinite(out[0])
    assert 4000 < out[0] < 6000


# Below this mean phi(m) = exp(0.0218 - 0.4527 m^0.86) exceeds 1, and there
# raising one input of the check update lowers its output.
PHI_ONE_MEAN = (0.0218 / 0.4527) ** (1 / 0.86)
_valid_mean = st.just(0.0) | st.floats(PHI_ONE_MEAN, 1e6)


@settings(max_examples=500, deadline=None)
@given(st.lists(_valid_mean, min_size=2, max_size=2), _valid_mean)
def test_check_update_monotone_where_phi_at_most_one(raised, other):
    # Nondecreasing in each argument to within 1e-11 relative when both
    # means are 0 or at least PHI_ONE_MEAN (worst measured on 2M pairs:
    # 4.9e-12).
    low, high = sorted(raised)
    for args_low, args_high in (((low, other), (high, other)),
                                ((other, low), (other, high))):
        before = check_mean_update(*args_low)
        after = check_mean_update(*args_high)
        assert after >= before * (1.0 - 1e-11), (args_low, args_high)


def test_ga_degenerate_all_zero():
    table = ga_reference(np.zeros(8))
    assert np.array_equal(table.means, np.zeros(8))
    assert np.array_equal(table.pe, np.full(8, 0.5))


def test_ga_two_channels_variable_rule():
    for m in (0.5, 2.0, 11.0):
        table = ga_reference(np.array([m, m]))
        assert table.means[1] == pytest.approx(2 * m)


def test_ga_rejects_bad_input():
    for n0, ms, mean in [
        (6, [5], 1.0),           # n0 not a power of two
        (0, [], 1.0),
        (8.0, [8], 1.0),         # n0 not an integer
        (8, [4], 1.0),           # m at n0/2
        (8, [9], 1.0),           # m above n0
        (8, [8, 3], 1.0),        # one bad m among good ones
        (8, [7.5], 1.0),         # m not an integer
        (8, 8, 1.0),             # ms not a sequence
        (8, [8], -1.0),
        (8, [8], np.nan),
        (8, [8], np.inf),
    ]:
        with pytest.raises(ValueError):
            ga_evolve(n0, ms, mean)


_stack_mean = st.just(0.0) | st.floats(0.0, 1e4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(1, 40), st.data())
def test_batched_ga_rows_match_single_rows_bitwise(log_n0, rows, data):
    n0 = 1 << log_n0
    stack = np.array(data.draw(st.lists(
        st.lists(_stack_mean, min_size=n0, max_size=n0),
        min_size=rows, max_size=rows)))
    table = ga_reference(stack)
    assert table.means.shape == table.pe.shape == (rows, n0)
    assert table.size == n0
    for row, means, pe in zip(stack, table.means, table.pe):
        single = ga_reference(row)
        assert means.tobytes() == single.means.tobytes()
        assert pe.tobytes() == single.pe.tobytes()


# Raw-channel means for the node-state GA: erased, the smallest subnormal,
# log-uniform in [1e-3, 1e3], and 2/sigma^2 at SNRs up to 20 dB, where pe
# underflows to 0 on the best channels.
_SNR_MEANS = [channel_llr_distribution(ChannelParams(snr_db=snr)).mean
              for snr in (-3.0, 0.0, 1.5, 6.0, 20.0)]
_ga_channel_mean = (st.sampled_from([0.0, 5e-324] + _SNR_MEANS)
                    | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


def _punctured_means(n0, ms, mean):
    """Per-use means of each m's mother code: 0 on the first n0 - m
    positions of the bit-reversal order, ``mean`` elsewhere."""
    nbits = n0.bit_length() - 1
    order = np.array([bit_reverse(i, nbits) for i in range(n0)], dtype=int)
    means = np.full((len(ms), n0), mean)
    for row, m in zip(means, ms):
        row[order[:n0 - m]] = 0.0
    return means


def _assert_matches_reference(n0, ms, mean):
    table = ga_evolve(n0, ms, mean)
    ref = ga_reference(_punctured_means(n0, ms, mean))
    assert table.means.shape == table.pe.shape == (len(ms), n0)
    assert table.means.tobytes() == ref.means.tobytes(), (n0, ms, mean)
    assert table.pe.tobytes() == ref.pe.tobytes(), (n0, ms, mean)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), _ga_channel_mean, st.data())
def test_ga_matches_position_by_position_reference(log_n0, mean, data):
    n0 = 1 << log_n0
    ms = data.draw(st.lists(st.integers(n0 // 2 + 1, n0), min_size=1,
                            max_size=min(64, max(1, (1 << 14) // n0))))
    _assert_matches_reference(n0, ms, mean)


def test_ga_matches_reference_for_every_m():
    for n0 in (1 << b for b in range(10)):
        for mean in [0.0, 5e-324, 1e-3, 1e3] + _SNR_MEANS:
            _assert_matches_reference(n0, range(n0 // 2 + 1, n0 + 1), mean)


def test_ga_matches_sampled_density_evolution_n4():
    sigma = 1.0
    table = _unpunctured(4, 2.0 / sigma ** 2)
    mc = mc_density_evolution(sigma, 4, 10 ** 6, seed=5)
    for ga_pe, mc_pe in zip(table.pe, mc):
        if mc_pe >= 1e-4:
            assert abs(ga_pe - mc_pe) / mc_pe < 0.10


def test_ga_monotone_in_channel_quality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        base = rng.uniform(0.0, 6.0, size=16)
        better = base + rng.uniform(0.0, 2.0, size=16)
        pe_base = ga_reference(base).pe
        pe_better = ga_reference(better).pe
        assert np.all(pe_better <= pe_base + 1e-12)


def test_ga_polarizes_with_doubling():
    sigma = 1.0
    raw_pe = pe_from_mean(LlrDistribution(mean=2.0 / sigma ** 2).mean)
    prev_max_mean = 0.0
    for n0 in (2, 4, 8, 16, 32, 64):
        table = _unpunctured(n0, 2.0 / sigma ** 2)
        assert table.pe.min() <= raw_pe <= table.pe.max()
        assert table.means.max() > prev_max_mean
        prev_max_mean = table.means.max()


def test_ga_deterministic():
    ms = range(17, 33)
    a = ga_evolve(32, ms, 1.7)
    b = ga_evolve(32, ms, 1.7)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.pe, b.pe)


def test_puncture_trivial_and_small():
    assert puncture_pattern(8, 8).size == 0
    # enumerate the bit-reversed index order for n0=4 by hand
    order = [bit_reverse(i, 2) for i in range(4)]
    assert order == [0, 2, 1, 3]
    assert puncture_pattern(4, 3).tolist() == [0]
    assert puncture_pattern(4, 3).tolist() == [order[0]]


def test_puncture_pattern_validity():
    # Every m at every n0 up to 2^12, against the first n0 - m entries of
    # the bit-reversal order.
    for nbits in range(1, 13):
        n0 = 1 << nbits
        order = np.array([bit_reverse(i, nbits) for i in range(n0)])
        for m in range(n0 // 2 + 1, n0 + 1):
            p = puncture_pattern(n0, m)
            assert np.array_equal(p, np.sort(order[: n0 - m]))
            assert p.size == n0 - m
            assert np.unique(p).size == p.size
            if p.size:
                assert p.min() >= 0 and p.max() < n0


def test_puncture_pattern_range_errors():
    with pytest.raises(ValueError):
        puncture_pattern(8, 4)
    with pytest.raises(ValueError):
        puncture_pattern(8, 9)
    with pytest.raises(ValueError):
        puncture_pattern(6, 5)
    with pytest.raises(ValueError):  # not the m = 6 pattern
        puncture_pattern(8, 6.5)


def test_puncture_pattern_beats_median_of_all_patterns():
    # Exhaustive sweep over every 2-of-8 puncture choice: the pinned pattern
    # should give a union-bound no worse than the median.
    from itertools import combinations
    sigma = 0.8
    k = 4

    def bound(pattern):
        means = np.full(8, 2.0 / sigma ** 2)
        means[list(pattern)] = 0.0
        table = ga_reference(means)
        info = select_info_set(table, k)
        return table.pe[info].sum()

    ours = bound(puncture_pattern(8, 6))
    all_bounds = sorted(bound(c) for c in combinations(range(8), 2))
    median = all_bounds[len(all_bounds) // 2]
    assert ours <= median


def test_select_info_set_trivial_and_ties():
    table = _unpunctured(8, 2.0)
    assert select_info_set(table, 8).tolist() == list(range(8))
    flat = ReliabilityTable(means=np.ones(8), pe=np.full(8, 0.25))
    assert select_info_set(flat, 3).tolist() == [0, 1, 2]
    for k in (9, True, 2.5):  # True gave a k = 1 set
        with pytest.raises(ValueError):
            select_info_set(flat, k)


def test_select_info_set_matches_sampled_ranking():
    sigma = 1.0
    table = _unpunctured(8, 2.0 / sigma ** 2)
    mc = mc_density_evolution(sigma, 8, 10 ** 6, seed=9)
    for k in (2, 4, 6):
        ours = set(select_info_set(table, k).tolist())
        ref = set(np.argsort(mc, kind="stable")[:k].tolist())
        assert ours == ref
