import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rcpolar import construct
from rcpolar.channel import (ChannelParams, LlrDistribution,
                             channel_llr_distribution)
from rcpolar.construct import (build_repetition_plan, construct_rcp,
                               mother_codes)
from rcpolar.design import HarqScheme, bler_curve_from_plan, build_bler_curve
from rcpolar.simulate import bler_monte_carlo, wilson_halfwidth

from oracles import repetition_plan_reference


def _pe_ref(mean):
    # Independent error-probability evaluation for the Gaussian LLR model.
    return 0.5 if mean == 0 else float(norm.sf(np.sqrt(mean / 2.0)))


def test_plan_zero_repetitions():
    plan = build_repetition_plan([0, 2], [1.0, 3.0], 0, LlrDistribution(2.0))
    assert plan.r.size == 0
    assert np.array_equal(plan.updated_means, [1.0, 3.0])


def test_plan_single_repetition_hits_argmax():
    plan = build_repetition_plan([0, 2, 5], [3.0, 0.5, 4.0], 1,
                                 LlrDistribution(2.0))
    assert plan.r.tolist() == [2]  # smallest mean = largest pe
    assert plan.updated_means.tolist() == [3.0, 2.5, 4.0]


def test_plan_two_step_hand_simulation():
    # Two channels, pe_a > pe_b; one strong repetition pushes a's pe below
    # b's, so the second slot must go to b.  Every pe is re-derived here
    # with an independent Gaussian-tail evaluation.
    a_mean, b_mean, ch = 0.4, 1.0, 6.0
    assert _pe_ref(a_mean) > _pe_ref(b_mean)
    assert _pe_ref(a_mean + ch) < _pe_ref(b_mean)
    plan = build_repetition_plan([3, 7], [a_mean, b_mean], 2,
                                 LlrDistribution(ch))
    assert plan.r.tolist() == [3, 7]
    assert plan.updated_means == pytest.approx([a_mean + ch, b_mean + ch])
    assert plan.updated_pe == pytest.approx(
        [_pe_ref(a_mean + ch), _pe_ref(b_mean + ch)], rel=1e-9)


def test_plan_argmax_tie_prefers_smaller_index():
    plan = build_repetition_plan([4, 9], [1.0, 1.0], 1, LlrDistribution(2.0))
    assert plan.r.tolist() == [4]


def test_plan_requires_channels():
    with pytest.raises(ValueError):
        build_repetition_plan([], [], 1, LlrDistribution(2.0))


def test_plan_rejects_bad_input():
    with pytest.raises(ValueError):  # NaN is not a mean
        build_repetition_plan([0, 1], [np.nan, 1.0], 3, LlrDistribution(2.0))
    with pytest.raises(ValueError):
        build_repetition_plan([0, 1], [1.0, -1.0], 3, LlrDistribution(2.0))
    with pytest.raises(ValueError):  # duplicate channel
        build_repetition_plan([2, 2], [1.0, 1.0], 3, LlrDistribution(2.0))
    with pytest.raises(ValueError):
        build_repetition_plan([0, 1], [1.0], 3, LlrDistribution(2.0))
    with pytest.raises(ValueError):  # would assign 2 slots
        build_repetition_plan([0, 1], [1.0, 1.0], 2.7, LlrDistribution(2.0))
    with pytest.raises(ValueError):  # would plan channels 0 and 1
        build_repetition_plan([0.5, 1.7], [1.0, 1.0], 3, LlrDistribution(2.0))


# Base means: 0 (erased), tied values, and means whose pe underflows to 0
# (above about 2980); channel means: 0, 20 dB (400) and everything between.
_TIED_MEANS = (0.0, 0.5, 1.0, 4.0, 3000.0, 1e5)
_plan_mean = st.sampled_from(_TIED_MEANS) | st.floats(0.0, 1e4)
_channel_mean = st.sampled_from((0.0, 1e-12, 0.4, 4.0, 400.0)) \
    | st.floats(0.0, 500.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_plan_mean, min_size=0, max_size=24), _channel_mean,
       st.integers(0, 600), st.randoms(use_true_random=False))
@example([1.0] * 6, 2.0, 40, None)                 # all tied
@example([5e3, 6e3, 1e5, 4e3], 400.0, 300, None)   # pe 0 from the start
@example([40.0, 900.0, 2950.0], 400.0, 200, None)  # pe underflows midway
@example([0.3, 1.0, 0.3, 2.0], 0.0, 50, None)      # channel mean 0
@example([0.3, 1.0, 2.0], 1.5, 0, None)            # no repetitions
@example([0.7], 1.5, 600, None)                    # L >> k
@example([], 2.0, 0, None)
# One ulp more mean gives one ulp more pe here: pe is not monotone.
@example([0.07282918242997201, 0.5, 0.08], 1.3877787807814457e-17, 30, None)
# pe ties at the least subnormal: the plan build deepens one channel in
# each of three passes, so it sorts four times.
@example([2958.0, 2957.3, 2953.0, 2958.0], 0.4, 49, None)
def test_plan_equals_greedy_loop_bitwise(means, channel_mean, reps, rnd):
    if not means:
        reps = 0
    k = len(means)
    info = np.sort(rnd.sample(range(4 * k), k)) if rnd else np.arange(k) * 3
    plan = build_repetition_plan(info, means, reps,
                                 LlrDistribution(channel_mean))
    r, trace, upd_means, upd_pe = repetition_plan_reference(
        info, means, reps, channel_mean)
    assert np.array_equal(plan.r, r)
    for got, want in ((plan.bler_trace, trace),
                      (plan.updated_means, upd_means),
                      (plan.updated_pe, upd_pe)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda k: st.lists(
    st.tuples(st.lists(_plan_mean, min_size=k, max_size=k),
              st.integers(0, 80 if k else 0)), min_size=1, max_size=6)),
       _channel_mean)
@example([([5e3, 40.0, 1e5], 120), ([1.0, 1.0, 1.0], 0),
          ([2950.0, 900.0, 3000.0], 200)], 400.0)  # some rows redone
# The first row needs three deepening passes, the second none.
@example([([2958.0, 2957.3, 2953.0, 2958.0], 49), ([1.0, 2.0, 0.5, 3.0], 10)],
         0.4)
def test_stacked_plans_equal_single_row_plans(rows, channel_mean):
    # A 2-D call returns, for every row, the plan of that row on its own,
    # including rows that water-filling built too shallow, however many
    # sort passes their block takes.
    k = len(rows[0][0])
    info = np.arange(k) * 2 + 1
    channel = LlrDistribution(channel_mean)
    plans = build_repetition_plan(np.tile(info, (len(rows), 1)),
                                  [means for means, _ in rows],
                                  [reps for _, reps in rows], channel)
    assert len(plans) == len(rows)
    for plan, (means, reps) in zip(plans, rows):
        ref = build_repetition_plan(info, means, reps, channel)
        assert np.array_equal(plan.r, ref.r)
        for got, want in ((plan.bler_trace, ref.bler_trace),
                          (plan.updated_means, ref.updated_means),
                          (plan.updated_pe, ref.updated_pe)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("snr_db", (-3.0, 0.0, 6.0, 20.0))
def test_mother_codes_match_single_m(snr_db):
    # 256 values of m share mother length 512, more than one GA row block.
    channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
    k, n, ms = 40, 600, range(256, 513)
    batched = list(mother_codes(k, ms, n, channel))
    assert len(batched) == len(ms)
    for m, (table, plan) in zip(ms, batched):
        ref_code, ref_plan, ref_table = construct_rcp(n, k, m, channel)
        assert table.size == ref_code.n0
        assert np.array_equal(plan.info_set, ref_code.info_set)
        assert table.means.tobytes() == ref_table.means.tobytes()
        assert table.pe.tobytes() == ref_table.pe.tobytes()
        assert np.array_equal(plan.r, ref_plan.r)
        assert plan.bler_trace.tobytes() == ref_plan.bler_trace.tobytes()
        assert plan.updated_pe.tobytes() == ref_plan.updated_pe.tobytes()
        # The one-m call runs the same batched code, so every row is also
        # checked against the step-by-step greedy loop.
        r, trace, upd_means, upd_pe = repetition_plan_reference(
            plan.info_set, table.means[plan.info_set], n - m, channel.mean)
        assert np.array_equal(plan.r, r)
        for got, want in ((plan.bler_trace, trace),
                          (plan.updated_means, upd_means),
                          (plan.updated_pe, upd_pe)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k,ms,n,snr_db", [
    (40, range(256, 513), 600, 0.0),        # 257 rows of one mother length
    (128, range(128, 385), 384, 0.0),       # the benchmark's design
    (3, range(3, 70), 80, -3.0),            # seven mother lengths
    (200, [700, 300, 1024, 513, 701], 1400, 1.5),  # m out of order
])
def test_mother_codes_do_not_depend_on_the_block_size(k, ms, n, snr_db,
                                                      monkeypatch):
    # The block bound only splits the GA passes: every table and plan is
    # the same, byte for byte, at any number of rows per pass.
    channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
    runs = []
    for block in (1 << 8, 1 << 14, 1 << 17):
        monkeypatch.setattr(construct, "_GA_BLOCK_ELEMENTS", block)
        runs.append(list(mother_codes(k, ms, n, channel)))
    for run in runs[1:]:
        assert len(run) == len(runs[0]) == len(ms)
        for (table, plan), (ref_table, ref_plan) in zip(run, runs[0]):
            for got, want in ((table.means, ref_table.means),
                              (table.pe, ref_table.pe),
                              (plan.info_set, ref_plan.info_set),
                              (plan.r, ref_plan.r),
                              (plan.updated_means, ref_plan.updated_means),
                              (plan.updated_pe, ref_plan.updated_pe),
                              (plan.bler_trace, ref_plan.bler_trace)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_plan_prefix_property():
    rng = np.random.default_rng(0)
    info = np.arange(6)
    means = rng.uniform(0.2, 4.0, size=6)
    short = build_repetition_plan(info, means, 5, LlrDistribution(1.5))
    long = build_repetition_plan(info, means, 9, LlrDistribution(1.5))
    assert np.array_equal(long.r[:5], short.r)
    assert np.array_equal(long.bler_trace[:6], short.bler_trace)


def test_plan_monotone_improvement():
    rng = np.random.default_rng(1)
    means = rng.uniform(0.1, 3.0, size=8)
    plan = build_repetition_plan(np.arange(8), means, 12, LlrDistribution(2.0))
    assert np.all(np.diff(plan.bler_trace) < 0)  # strictly decreasing sum
    # max pe over the set never increases step to step
    work = means.copy()
    prev_max = plan.bler_trace[0]  # placeholder, recomputed below
    cur_pe = np.array([_pe_ref(m) for m in work])
    for idx in plan.r:
        prev_max = cur_pe.max()
        work[idx] += 2.0
        cur_pe[idx] = _pe_ref(work[idx])
        assert cur_pe.max() <= prev_max + 1e-15


def test_evaluate_bler_trivial_cases():
    code, plan, _ = construct_rcp(8, 4, 8, LlrDistribution(200.0))
    bler = plan.union_bound
    assert bler == pytest.approx(plan.updated_pe.sum())
    assert bler < 1e-6
    # identical summands clip at 1
    code, plan, _ = construct_rcp(4, 4, 4, LlrDistribution(1e-9))
    assert plan.union_bound == 1.0


def test_construct_rate_one_degenerate():
    code, plan, _ = construct_rcp(4, 4, 4, LlrDistribution(2.0))
    assert code.n == 4 and code.m == 4 and code.n0 == 4
    assert code.rep_vector.size == 0
    assert plan.union_bound == pytest.approx(min(1.0, plan.updated_pe.sum()))
    assert code.info_set.tolist() == [0, 1, 2, 3]


def test_construct_no_repetitions_when_n_equals_m():
    code, _, _ = construct_rcp(12, 5, 12, LlrDistribution(2.0))
    assert code.rep_vector.size == 0
    assert code.n0 == 16
    assert code.puncture_set.size == 4


def test_construct_validates_bounds():
    # The message names k, m and n as the call gave them.
    with pytest.raises(ValueError, match="got k=6, m=4, n=8$"):
        construct_rcp(8, 6, 4, LlrDistribution(2.0))  # k > m
    with pytest.raises(ValueError, match="got k=2, m=8, n=6$"):
        construct_rcp(6, 2, 8, LlrDistribution(2.0))  # m > n
    # Non-integer sizes: these built an m = 20 and a k = 1 code.
    for n, k, m in ((24, 8, 20.7), (24, True, 20)):
        with pytest.raises(ValueError):
            construct_rcp(n, k, m, LlrDistribution(2.0))


@pytest.mark.parametrize("k,ms,n", [
    (8, [9, 7, 12], 16),        # one m below k
    (8, range(8, 18), 16),      # m above n
    (8, [9.5], 16),             # a fractional m
    (8.0, [9], 16),             # a float k
    (0, [], 16),                # k = 0, with no m to check it against
    (8, [9], 2 ** 70),          # an n past int64
    (8, 9, 16),                 # one m, not a sequence
    (8, [[9, 10]], 16),         # a nested list
])
def test_mother_codes_check_arguments_at_the_call(k, ms, n):
    # The call raises before anything is drawn.  These raised only at the
    # first next() (an OverflowError for n = 2^70, a TypeError for ms that
    # is not one-dimensional), or with no m not at all.
    with pytest.raises(ValueError):
        mother_codes(k, ms, n, LlrDistribution(2.0))


def test_bler_estimate_nonincreasing_in_n():
    channel = LlrDistribution(2.0)
    estimates = [construct_rcp(n, 16, 32, channel)[1].union_bound
                 for n in (32, 40, 48, 64, 96)]
    assert all(b <= a + 1e-15 for a, b in zip(estimates, estimates[1:]))


def test_union_bound_upper_bounds_simulation():
    # Union-bound estimate vs simulated block error rate at three operating
    # points spanning moderate error rates.
    cases = [
        (72, 32, 64, 0.8),
        (48, 20, 32, 0.75),
        (128, 64, 128, 0.85),
    ]
    for n, k, m, sigma in cases:
        params = ChannelParams(snr_db=-10 * np.log10(2 * sigma ** 2))
        result = bler_monte_carlo(n, k, m, params, trials=20_000, base_seed=7)
        slack = 2 * wilson_halfwidth(result["errors"], result["trials"])
        assert result["bler_analytic"] >= result["bler"] - slack, (n, k, m)


def test_union_bound_within_factor_three():
    # The estimate should be tight, not just valid: within 3x of simulation
    # at sigma = 0.9 and at a point with block error rate near 1e-2.
    for params in (ChannelParams(snr_db=-10 * np.log10(2 * 0.9 ** 2)),
                   ChannelParams(snr_db=0.0)):
        result = bler_monte_carlo(72, 32, 64, params, trials=100_000,
                                  base_seed=8)
        ratio = result["bler_analytic"] / result["bler"]
        assert 1 / 3 < ratio < 3, (params.snr_db, ratio)


@st.composite
def _scheme_at_snr(draw):
    m = draw(st.integers(1, 48))
    k = draw(st.integers(1, m))
    first = m + draw(st.integers(0, 6))
    more = draw(st.lists(st.integers(1, 12), max_size=3))
    lengths = tuple(int(n) for n in np.cumsum([first, *more]))
    snr_db = draw(st.floats(-4.0, 6.0))
    return HarqScheme(k=k, m=m, lengths=lengths, eta_estimate=0.0), snr_db


@settings(max_examples=60, deadline=None)
@given(_scheme_at_snr())
def test_plans_and_code_families_nest_by_prefix(scheme_snr):
    # Every round's prefix of the longest code is the code built for its
    # own length, and shorter plans are prefixes of longer ones.
    scheme, snr_db = scheme_snr
    channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
    longest, longest_plan, _ = construct_rcp(scheme.lengths[-1], scheme.k,
                                             scheme.m, channel)
    for n in scheme.lengths:
        code = longest.prefix(n)
        ref, plan, _ = construct_rcp(n, scheme.k, scheme.m, channel)
        assert code.n == n
        assert np.array_equal(code.info_set, ref.info_set)
        assert np.array_equal(code.puncture_set, ref.puncture_set)
        assert np.array_equal(code.rep_vector, ref.rep_vector)
        reps = n - scheme.m
        assert np.array_equal(ref.rep_vector, longest.rep_vector[:reps])
        assert np.array_equal(plan.r, longest_plan.r[:reps])
        assert np.array_equal(plan.bler_trace,
                              longest_plan.bler_trace[:reps + 1])
    curve = bler_curve_from_plan(scheme.m, longest_plan)
    assert np.array_equal(curve.e, build_bler_curve(
        scheme.k, scheme.m, scheme.lengths[-1], channel).e)
