from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcpolar.design
from rcpolar import construct, reliability
from rcpolar.channel import (ChannelParams, LlrDistribution,
                             channel_llr_distribution)
from rcpolar.construct import mother_codes
from rcpolar.design import (_ETA_MARGIN, BLER_FLOOR, HarqScheme,
                            _best_scheme, _greedy_rounds, _scan_rows,
                            build_bler_curve, design_scheme,
                            throughput_estimate)

from limits import memory_headroom
from oracles import scan_reference, throughput_reference

CHANNEL = LlrDistribution(mean=2.0)  # sigma = 1


def test_throughput_single_transmission_collapse():
    for e1 in (0.0, 0.3, 0.9):
        assert throughput_estimate(16, [40], [e1]) == pytest.approx(
            16 * (1 - e1) / 40)


def test_throughput_error_free_first_round():
    assert throughput_estimate(8, [10, 20, 30], [0.0, 0.0, 0.0]) == pytest.approx(0.8)


def test_throughput_worked_example():
    eta = throughput_estimate(1024, [1100, 1200], [0.5, 0.1])
    assert eta == pytest.approx(921.6 / 1150)


def test_throughput_matches_reference_evaluator():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = int(rng.integers(1, 6))
        lengths = np.cumsum(rng.integers(5, 50, size=t))
        blers = np.sort(rng.uniform(0, 1, size=t))[::-1]
        ours = throughput_estimate(12, lengths, blers)
        ref = throughput_reference(12, lengths, blers)
        assert ours == pytest.approx(ref, rel=1e-12)


def test_throughput_validates_monotonicity():
    with pytest.raises(ValueError):
        throughput_estimate(8, [10, 10], [0.5, 0.1])
    with pytest.raises(ValueError):
        throughput_estimate(8, [10, 20], [0.1, 0.5])
    with pytest.raises(ValueError):
        throughput_estimate(8, [10, 20], [0.5, 1.5])
    # So do lengths that are not finite and positive and NaN rates, which
    # gave nan, 0.0 or a division by zero.
    for lengths, blers in (([10], [np.nan]), ([np.nan], [0.1]),
                           ([10, np.inf], [0.5, 0.1]), ([-10], [0.1]),
                           ([0], [0.1])):
        with pytest.raises(ValueError):
            throughput_estimate(8, lengths, blers)


def test_curve_floor_and_monotonicity():
    curve = build_bler_curve(8, 16, 200, LlrDistribution(30.0))
    assert np.all(curve.e >= BLER_FLOOR)
    assert np.all(np.diff(curve.e) <= 0)
    assert curve.e.size == 200 - 16 + 1
    assert curve.pr_e(16) == curve.e[0]
    with pytest.raises(ValueError):
        curve.pr_e(201)


def test_design_single_candidate():
    scheme, _ = design_scheme(6, 1, 6, CHANNEL)
    assert scheme.s == (6, 6)


def test_design_t1_matches_exhaustive_search():
    k, q = 8, 16
    scheme, _ = design_scheme(k, 1, q, CHANNEL)

    best = None  # (eta, m, n), scanned in the same tie-break order
    for m in range(k, q + 1):
        curve = build_bler_curve(k, m, q, CHANNEL)
        for n in range(m, q + 1):
            eta = k * (1.0 - curve.pr_e(n)) / n
            if best is None or eta > best[0]:
                best = (eta, m, n)
    assert scheme.s == (best[1], best[2])
    assert scheme.eta_estimate == pytest.approx(best[0])


def test_design_t2_beats_constrained_exhaustive():
    # The greedy two-round result must reach the optimum over all schemes
    # that extend the best single-length pick for the same m.
    k, q = 8, 20
    scheme, _ = design_scheme(k, 2, q, CHANNEL)

    best = 0.0
    for m in range(k, q + 1):
        curve = build_bler_curve(k, m, q, CHANNEL)
        first = max(range(m, q + 1),
                    key=lambda n: (k * (1.0 - curve.pr_e(n)) / n, -n))
        for n2 in range(m, q + 1):
            if n2 == first:
                continue
            lengths = sorted([first, n2])
            blers = [curve.pr_e(lengths[0]), min(curve.pr_e(lengths[0]),
                                                 curve.pr_e(lengths[1]))]
            eta = throughput_estimate(k, lengths, blers)
            best = max(best, eta)
        best = max(best, k * (1.0 - curve.pr_e(first)) / first)
    assert scheme.eta_estimate >= best - 1e-12


def test_candidate_scan_matches_direct_evaluation():
    # The incremental candidate scan must agree with evaluating the full
    # throughput formula on every sorted candidate set.
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 10))
        m = int(rng.integers(k, k + 8))
        q = m + int(rng.integers(3, 30))
        e = np.minimum(1.0, np.sort(rng.uniform(1e-6, 1.0, size=q - m + 1))[::-1])
        size = int(rng.integers(0, 4))
        chosen = sorted(rng.choice(np.arange(m, q + 1), size=size,
                                   replace=False).tolist())
        (best_n,), (best_rho,) = _scan_rows(
            k, np.array([m]), e[None], q, np.array([chosen], dtype=np.int64))
        ref_best = None
        for n in range(m, q + 1):
            if n in chosen:
                continue
            lengths = sorted(chosen + [n])
            blers = [e[v - m] for v in lengths]
            rho = throughput_estimate(k, lengths, blers)
            if ref_best is None or rho > ref_best[1]:
                ref_best = (n, rho)
        assert best_n == ref_best[0]
        assert best_rho == pytest.approx(ref_best[1], rel=1e-12)


# Curve values: ties, the BLER_FLOOR plateau, 1.0 and everything between.
_bler = st.sampled_from((1.0, 0.5, 0.25, 1e-3, BLER_FLOOR)) \
    | st.floats(BLER_FLOOR, 1.0)


@st.composite
def _design_curves(draw):
    """Curves for consecutive m = k..q, nonincreasing or in any order (the
    scan's stop rule needs no monotone curve), a round budget, the
    forced-first-length flag and a scan block size."""
    k = draw(st.integers(1, 10))
    q = k + draw(st.integers(0, 24))
    nonincreasing = draw(st.booleans())
    curves = []
    for m in range(k, q + 1):
        curve = draw(st.lists(_bler, min_size=q - m + 1, max_size=q - m + 1))
        curves.append(np.array(sorted(curve, reverse=True) if nonincreasing
                               else curve))
    return (k, q, curves, draw(st.integers(1, 5)), draw(st.booleans()),
            draw(st.sampled_from((1, 7, 64, 1 << 14))))


def _bits(x) -> str:
    return float(x).hex()


@settings(max_examples=150, deadline=None)
@given(_design_curves())
@example((3, 5, [np.array([1.0, 0.5, 0.5]), np.array([0.5, 0.5]),
                 np.array([0.5])], 3, False, 1))
@example((2, 6, [np.full(7 - m, BLER_FLOOR) for m in range(2, 7)], 4, True,
          7))
# Every curve is 1, so the best throughput is 0 and no m is cut.
@example((3, 9, [np.ones(10 - m) for m in range(3, 10)], 2, False, 1))
# m = 2 reaches eta = 0.5 = k / 4 exactly: m = 4 is still drawn, m = 5 not.
@example((2, 6, [np.array([0.5, 1.0, 1.0, 1.0, 1.0]), np.ones(4),
                 np.full(3, BLER_FLOOR), np.full(2, BLER_FLOOR),
                 np.full(1, BLER_FLOOR)], 2, False, 1))
def test_vectorised_scan_equals_reference(case):
    # Every round of every m picks the length and throughput, bit for bit,
    # of the one-m, segment-by-segment scan; the search keeps the first
    # best m, whatever the scan block size, and draws no curve of an m whose
    # bound k / m the best throughput already reaches.
    k, q, curves, t_max, force, block = case
    cut = 1 - _ETA_MARGIN
    ms = np.arange(k, q + 1)
    e = np.ones((ms.size, q - k + 1))
    for row, curve in zip(e, curves):
        row[:curve.size] = curve
    picks, rho, rounds = _greedy_rounds(k, ms, e, q, t_max, force)
    best, needed = None, len(curves)
    for i, (m, curve) in enumerate(zip(ms.tolist(), curves)):
        chosen, eta = [], -np.inf
        for t in range(t_max):
            if force and t == 0:
                n, r = m, k * (1.0 - curve[0]) / float(m)
            else:
                n, r = scan_reference(k, m, curve, chosen, m)
            assert (picks[i, t], _bits(rho[i, t])) == (n, _bits(r)), (m, t)
            if not r > eta:
                assert np.all(rho[i, t + 1:] == -np.inf)
                break
            chosen, eta = sorted(chosen + [n]), r
        assert rounds[i] == len(chosen)
        if best is None or eta > best[0]:
            best = (eta, m, tuple(chosen))
        # A scan of one row per block draws the curves up to this m when
        # the best so far rules out m + 1.
        if needed == len(curves) and k / (m + 1) <= best[0] * cut:
            needed = m - k + 1
    drawn = []

    def counted():
        for curve in curves:
            drawn.append(curve)
            yield curve

    with mock.patch.object(rcpolar.design, "_SCAN_BLOCK_ELEMENTS", block):
        got = _best_scheme(k, q, t_max, counted(), force)
    assert (_bits(got[0]), got[1:3]) == (_bits(best[0]), best[1:])
    # The winning m's curve comes back as it was read, without its padding.
    assert got[3].tobytes() == curves[got[1] - k].tobytes()
    # Every curve left undrawn is of an m that the best throughput rules
    # out.  A larger block may draw more curves, since it is cut by the
    # best of the blocks before it.
    assert all(k / m <= best[0] * cut for m in range(k + len(drawn), q + 1))
    assert len(drawn) == needed if block == 1 else len(drawn) >= needed


@pytest.mark.parametrize("k,t_max,q,snr_db,force", [
    (32, 2, 400, -3.0, False),   # m = 96 lies in the second scan block
    (128, 4, 384, 0.0, False),   # the benchmark's design, m = 223 likewise
    (32, 3, 96, 0.0, True),
    (64, 3, 192, 20.0, False),   # pe underflows: the curve sits on the floor
])
def test_design_returns_the_chosen_curve(k, t_max, q, snr_db, force):
    channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
    scheme, curve = design_scheme(k, t_max, q, channel,
                                  force_first_length_equals_m=force)
    assert curve.m == scheme.m
    assert curve.e.tobytes() == build_bler_curve(k, scheme.m, q,
                                                 channel).e.tobytes()


def test_design_eta_estimate_consistent_with_curve():
    scheme, _ = design_scheme(8, 3, 24, CHANNEL)
    curve = build_bler_curve(scheme.k, scheme.m, 24, CHANNEL)
    blers = [curve.pr_e(n) for n in scheme.lengths]
    assert scheme.eta_estimate == pytest.approx(
        throughput_estimate(scheme.k, scheme.lengths, blers), rel=1e-12)


def test_design_deterministic():
    a, _ = design_scheme(8, 3, 24, CHANNEL)
    b, _ = design_scheme(8, 3, 24, CHANNEL)
    assert a == b


def test_design_dominates_single_length_schemes():
    scheme, _ = design_scheme(8, 3, 24, CHANNEL)
    curve = build_bler_curve(8, scheme.m, 24, CHANNEL)
    for n in range(scheme.m, 25):
        eta1 = 8 * (1.0 - curve.pr_e(n)) / n
        assert scheme.eta_estimate >= eta1 - 1e-12


def test_design_eta_nondecreasing_in_round_budget():
    etas = [design_scheme(8, t, 24, CHANNEL)[0].eta_estimate
            for t in (1, 2, 3, 4)]
    assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


def test_design_respects_scheme_invariants():
    scheme, _ = design_scheme(12, 4, 48, CHANNEL)
    assert 12 <= scheme.m <= scheme.lengths[0] <= 48
    assert all(b > a for a, b in zip(scheme.lengths, scheme.lengths[1:]))
    assert 0 < scheme.eta_estimate <= scheme.k / scheme.lengths[0]


def test_design_force_first_length():
    scheme, _ = design_scheme(8, 3, 24, CHANNEL, force_first_length_equals_m=True)
    assert scheme.lengths[0] == scheme.m


def test_design_validates_bounds():
    with pytest.raises(ValueError):
        design_scheme(8, 0, 16, CHANNEL)
    with pytest.raises(ValueError):
        design_scheme(8, 2, 7, CHANNEL)
    # Sizes that are not integers
    for k, t_max, q in ((8, 2, 24.5), (8, 2.5, 24), (8.0, 2, 24)):
        with pytest.raises(ValueError):
            design_scheme(k, t_max, q, CHANNEL)


def test_design_caps_rounds_at_the_distinct_lengths():
    # A scheme has at most q - k + 1 lengths, so a larger t_max gives the
    # same answer; before the cap, t_max = 2^40 sized 72 TiB of round
    # arrays at q = 12.
    want, want_curve = design_scheme(4, 9, 12, CHANNEL)
    with memory_headroom():
        scheme, curve = design_scheme(4, 2 ** 40, 12, CHANNEL)
    assert scheme == want
    assert curve.m == want_curve.m and curve.e.tobytes() == want_curve.e.tobytes()


# Values that are not integers, each made from the integer it replaces:
# bools, floats (exact, fractional, NaN, inf), complex, strings, a list and
# None.
_NOT_INTEGERS = (
    lambda v: bool(v % 2), lambda v: np.bool_(v % 2), float, np.float64,
    lambda v: v + 0.9, lambda v: float("nan"), lambda v: float("inf"),
    complex, str, lambda v: [v], lambda v: None)
_VALID_SCHEME = {"k": 3, "m": 8, "lengths": (16, 18)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_VALID_SCHEME)),
       st.sampled_from(range(len(_NOT_INTEGERS))), st.integers(0, 1))
@example("k", 0, 0)        # k=True ran as k = 1
@example("k", 4, 0)        # k=3.9 was accepted
@example("m", 2, 0)        # m=8.0 was accepted
@example("lengths", 4, 0)  # (16.9, 18) failed deep in the codec
def test_scheme_rejects_non_integer_values(key, kind, at):
    fields = dict(_VALID_SCHEME)
    if key == "lengths":
        lengths = list(fields["lengths"])
        lengths[at] = _NOT_INTEGERS[kind](lengths[at])
        fields["lengths"] = tuple(lengths)
    else:
        fields[key] = _NOT_INTEGERS[kind](fields[key])
    with pytest.raises(ValueError):
        HarqScheme(**fields, eta_estimate=0.5)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([True, False, np.bool_(True), 1 + 2j, np.complex128(1),
                        "3", "1.0", None, [1.0], (1.0,)])
       | st.complex_numbers() | st.text(max_size=4))
@example(True)      # was 1 dB
@example(1 + 2j)    # only warned (ComplexWarning)
@example("3")       # raised TypeError
@example(None)      # raised TypeError
def test_channel_params_reject_non_real_snr(value):
    with pytest.raises(ValueError):
        ChannelParams(snr_db=value)


# Values that are not real numbers: bools, None, strings, complex numbers,
# a list, a tuple and NaN.
_NOT_REAL = (st.sampled_from([True, False, np.bool_(True), None, [0.5], (0.5,),
                              float("nan"), np.float32("nan")])
             | st.complex_numbers() | st.text(max_size=4))


@settings(max_examples=100, deadline=None)
@given(_NOT_REAL | st.sampled_from([float("inf"), -np.inf, 10 ** 400,
                                    -10 ** 400]))
@example("x")            # was stored as given
@example(None)           # was stored as given
@example(True)           # was stored as given
@example(float("nan"))   # was stored as given
@example(10 ** 400)      # was stored as an int beyond the float range
def test_scheme_rejects_eta_estimate_not_finite_real(value):
    with pytest.raises(ValueError, match="eta_estimate"):
        HarqScheme(**_VALID_SCHEME, eta_estimate=value)


@settings(max_examples=100, deadline=None)
@given(_NOT_REAL | st.floats(max_value=-1e-300) | st.integers(max_value=-1))
@example(True)   # was read as mean 1
@example("3")    # raised TypeError
@example(10 ** 400)  # was stored as an int beyond the float range
def test_llr_model_rejects_a_mean_not_a_nonnegative_real(value):
    with pytest.raises(ValueError, match="LLR mean"):
        LlrDistribution(mean=value)


def test_constructors_take_integers_and_reals_of_any_type():
    for cast in (int, np.int64, np.int32, np.uint16):
        scheme = HarqScheme(k=cast(3), m=cast(8), lengths=(cast(16), 18),
                            eta_estimate=0.5)
        assert scheme.s == (8, 16, 18)
    # snr_db and eta_estimate are stored as Python floats of equal value.
    for snr in (1, 1.5, np.float32(1.5), np.float64(-2.0), np.int64(3)):
        params = ChannelParams(snr_db=snr)
        assert params.noise_var > 0
        assert type(params.snr_db) is float and params.snr_db == snr
    for real in (0, 2, 0.5, np.float32(0.5), np.float64(2.0), np.int64(3)):
        eta = HarqScheme(**_VALID_SCHEME, eta_estimate=real).eta_estimate
        assert type(eta) is float and eta == real
        assert LlrDistribution(mean=real).mean == real
    assert LlrDistribution(mean=np.inf).mean == np.inf  # a noiseless channel


def test_scheme_vector_layout():
    scheme = HarqScheme(k=4, m=6, lengths=(8, 12), eta_estimate=0.3)
    assert scheme.s == (6, 8, 12)
    assert len(scheme.lengths) == 2
    with pytest.raises(ValueError):
        HarqScheme(k=4, m=6, lengths=(8, 8), eta_estimate=0.3)
    with pytest.raises(ValueError):
        HarqScheme(k=8, m=6, lengths=(8,), eta_estimate=0.3)


def test_design_check_updates_per_tree_node(monkeypatch):
    # The node-state GA evaluates the check update once per tree node on
    # the shared bulk and once per row only where a value differs from it:
    # 12,350 evaluations on the benchmark's design, against 131,520 for
    # one per check-type position of every row and stage.
    original = reliability.check_mean_update
    evaluated = []

    def counting(m_a, m_b):
        evaluated.append(np.broadcast(np.asarray(m_a), np.asarray(m_b)).size)
        return original(m_a, m_b)

    monkeypatch.setattr(reliability, "check_mean_update", counting)
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    design_scheme(128, 4, 384, channel)
    assert 0 < sum(evaluated) <= 30_000


@pytest.fixture
def ga_passes(monkeypatch):
    """(n0, rows) of every GA pass made while the test runs."""
    original = construct.ga_evolve
    passes = []

    def counting(n0, ms, mean):
        passes.append((n0, len(ms)))
        return original(n0, ms, mean)

    monkeypatch.setattr(construct, "ga_evolve", counting)
    return passes


def test_design_makes_one_ga_pass_per_mother_length(ga_passes):
    # m = 128 .. 384 has mother lengths 128, 256 and 512, and each length's
    # rows fit in one GA block; C9 counts the work of this pass.
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    list(mother_codes(128, range(128, 385), 384, channel))
    assert ga_passes == [(128, 1), (256, 128), (512, 128)]
    # The design stops its scan below m = 257: no budget with mother length
    # 512 can beat its best throughput, so that GA pass is never made.
    ga_passes.clear()
    design_scheme(128, 4, 384, channel)
    assert ga_passes == [(128, 1), (256, 128)]


def test_design_at_large_q_runs_only_the_passes_it_can_use(ga_passes):
    # The scan ends after m = 5, so q = 2^16 costs two small GA passes, not
    # one per mother length up to 2^16.  A row of mother length 8 plans
    # about 2^16 repetition slots, so its block holds two rows, not four.
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    scheme, curve = design_scheme(4, 2, 2 ** 16, channel)
    assert ga_passes == [(4, 1), (8, 2)]
    assert curve.e.size == 2 ** 16 - scheme.m + 1
