"""The level-by-level SC decoder against the recursive reference, and the
round failures counted from one decode of the last round."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcpolar.codec
from rcpolar.channel import (LLR_CLAMP, ChannelParams,
                             channel_llr_distribution, transmit)
from rcpolar.codec import (PolarCodeSpec, RcpCode, rcp_encode, round_failures,
                           sc_decode)
from rcpolar.construct import construct_rcp

from oracles import repetition_sums_reference, sc_decode_reference

# (n, k, m, snr_db) per mother length n0 = 8, 256, 2048; all are punctured.
CORPUS_CODES = {8: (12, 4, 6, 1.0), 256: (300, 128, 200, 0.5),
                2048: (1783, 1024, 1408, 1.5)}
CORPUS_BATCHES = (1, 64, 732)
LEAF_RTOL = 1e-12


def _corpus(n0, rows, seed):
    """A code with punctures and duplicate repetitions, and channel LLRs
    for ``rows`` random blocks where about 1% of the entries each are
    exactly 0, +LLR_CLAMP and -LLR_CLAMP; also the blocks sent."""
    n, k, m, snr_db = CORPUS_CODES[n0]
    params = ChannelParams(snr_db=snr_db)
    base, _, _ = construct_rcp(n, k, m, channel_llr_distribution(params))
    rng = np.random.default_rng(seed)
    rep = rng.choice(base.spec.info_set, size=n - m, replace=True)
    code = RcpCode(spec=base.spec, rep_vector=rep)
    bits = rng.integers(0, 2, size=(rows, k), dtype=np.int8)
    tx = rcp_encode(bits, code)
    llr = transmit(tx, rng.standard_normal(tx.shape), params)
    special = rng.random(llr.shape)
    llr[special < 0.01] = 0.0
    llr[(special >= 0.01) & (special < 0.02)] = LLR_CLAMP
    llr[(special >= 0.02) & (special < 0.03)] = -LLR_CLAMP
    return code, llr, bits


@pytest.mark.parametrize("n0", sorted(CORPUS_CODES))
def test_corpus_matches_recursive_reference(n0):
    code, llr, _ = _corpus(n0, max(CORPUS_BATCHES), seed=n0)
    assert code.spec.puncture_set.size > 0
    assert np.unique(code.rep_vector).size < code.rep_vector.size
    for value in (0.0, LLR_CLAMP, -LLR_CLAMP):
        assert (llr == value).any()
    for b in CORPUS_BATCHES:
        ref_bits, ref_llrs = sc_decode_reference(llr[:b], code)
        ref_llrs = ref_llrs[:, code.spec.info_set]
        bits, llrs = sc_decode(llr[:b], code, return_leaf_llrs=True)
        assert np.array_equal(bits, ref_bits), (n0, b)
        err = np.abs(llrs - ref_llrs) / np.maximum(np.abs(ref_llrs), 1.0)
        assert err.max() <= LEAF_RTOL, (n0, b, err.max())


def test_sc_decode_leaves_no_reference_cycles():
    # Buffers freed by reference counting, not held until the cyclic
    # collector runs.
    code, llr, _ = _corpus(256, 16, seed=1)
    gc.collect()
    sc_decode(llr, code, counter={}, return_leaf_llrs=True)
    assert gc.collect() == 0


@st.composite
def _nested_family(draw):
    """A nested family of 1-4 rounds over a random small punctured code,
    as ``(code, lengths)``, with LLRs for a small batch and each row's
    source of bits (see :func:`_mixed_bits`)."""
    n0 = 2 ** draw(st.integers(1, 5))
    punct = draw(st.lists(st.integers(0, n0 - 1), unique=True,
                          max_size=n0 // 2 - 1 if n0 > 2 else 0))
    m = n0 - len(punct)
    k = draw(st.integers(1, m))
    info = sorted(draw(st.permutations(range(n0)))[:k])
    spec = PolarCodeSpec(n0=n0, info_set=np.array(info),
                         puncture_set=np.array(sorted(punct), dtype=np.int64))
    rounds = draw(st.integers(1, 4))
    first_reps = draw(st.integers(0, 3))
    more = draw(st.lists(st.integers(1, 4), min_size=rounds - 1,
                         max_size=rounds - 1))
    rep = np.array(draw(st.lists(st.sampled_from(info),
                                 min_size=first_reps + sum(more),
                                 max_size=first_reps + sum(more))),
                   dtype=np.int64)
    full = RcpCode(spec=spec, rep_vector=rep)
    lengths = [int(n) for n in np.cumsum([m + first_reps, *more])]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rows = draw(st.integers(1, 8))
    llr = np.random.default_rng(seed).normal(0.5, 2.0, size=(rows, full.n))
    sources = draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows))
    return full, lengths, llr, np.array(sources)


def _example_family(rep, lengths):
    spec = PolarCodeSpec(n0=8, info_set=np.array([3, 5, 6, 7]),
                         puncture_set=np.array([1]))
    full = RcpCode(spec=spec, rep_vector=np.array(rep))
    llr = np.random.default_rng(3).normal(0.3, 1.5, size=(200, full.n))
    return full, lengths, llr, np.arange(200) % 3


def _mixed_bits(full, lengths, llr, sources):
    """Per row, the last round's decisions (source 0), the first round's
    (1) or random bits (2): rows the last round gets right, and rows it
    gets wrong that earlier rounds get right or wrong."""
    last = sc_decode(llr[:, : lengths[-1]], full.prefix(lengths[-1]))
    first = sc_decode(llr[:, : lengths[0]], full.prefix(lengths[0]))
    rand = np.random.default_rng(len(llr)).integers(0, 2, last.shape,
                                                    dtype=np.int8)
    return np.stack([last, first, rand])[sources, np.arange(len(llr))]


def _per_round_failures(llr, full, lengths, bits):
    return np.stack([(sc_decode(llr[:, :n], full.prefix(n)) != bits)
                     .any(axis=1) for n in lengths], axis=1)


# Round 1 with and without repetitions, an index repeated in round 1 and
# again later, a last round short of the full code, and a single round.
@example(_example_family([5, 3, 5, 6, 7, 3], (7, 9, 13)))
@example(_example_family([5, 3, 5, 6, 7, 3], (8, 10, 13)))
@example(_example_family([6, 6, 5, 6, 7, 3], (8, 9, 11)))
@example(_example_family([5], (8,)))
@settings(max_examples=300, deadline=None)
@given(_nested_family())
def test_nested_decoding_equals_per_round_decoding(family):
    full, lengths, llr, sources = family
    bits = _mixed_bits(full, lengths, llr, sources)
    fails = round_failures(llr, full, lengths, bits)
    assert fails.shape == (len(llr), len(lengths)) and fails.dtype == bool
    assert np.array_equal(fails, _per_round_failures(llr, full, lengths, bits))


def _redecoded_rows(llr, full, lengths, bits):
    """Per earlier round, the rows the last round decodes wrongly where a
    decision on the last round's leaf LLRs plus that round's repetition
    sums (transmit order, from 0) differs from the last round's decision."""
    top, leaf = sc_decode(llr[:, : lengths[-1]], full.prefix(lengths[-1]),
                          return_leaf_llrs=True)
    wrong = (top != bits).any(axis=1)
    info_set = full.spec.info_set
    redecoded = []
    for n in lengths[:-1]:
        rep = np.zeros_like(leaf)
        for t, index in enumerate(full.rep_vector[: n - full.m]):
            rep[:, np.searchsorted(info_set, index)] += llr[:, full.m + t]
        flips = ((leaf + rep) < 0) != top
        redecoded.append(np.flatnonzero(wrong & flips.any(axis=1)))
    return redecoded


def _counting_decode(monkeypatch):
    """Record the row count of every sc_decode call round_failures makes."""
    calls = []

    def counting_decode(llrs, c, **kwargs):
        calls.append(np.shape(llrs)[0])
        return sc_decode(llrs, c, **kwargs)

    monkeypatch.setattr(rcpolar.codec, "sc_decode", counting_decode)
    return calls


def test_nested_decoding_redecodes_only_changed_rows(monkeypatch):
    # Round 1 without repetitions, then round 1 with 20 repetitions that
    # later rounds repeat again, checked against the blocks sent.
    code, llr, bits = _corpus(256, 64, seed=2)
    calls = _counting_decode(monkeypatch)
    for lengths in ((code.m, code.m + 10, code.n),
                    (code.m + 20, code.m + 40, code.n)):
        first_reps = code.rep_vector[: lengths[0] - code.m]
        for n in lengths[1:]:
            assert first_reps.size == 0 or np.isin(
                code.rep_vector[first_reps.size: n - code.m], first_reps).any()
        redecoded = _redecoded_rows(llr, code, lengths, bits)
        assert all(0 < rows.size < 64 for rows in redecoded), redecoded
        calls.clear()
        fails = round_failures(llr, code, lengths, bits)
        assert calls == [64, sum(rows.size for rows in redecoded)], lengths
        assert np.array_equal(fails,
                              _per_round_failures(llr, code, lengths, bits))


def test_round_failures_decode_once_when_the_last_round_is_right(monkeypatch):
    # Every row the last round decodes right needs no second decode, even
    # where earlier rounds fail.
    code, llr, _ = _corpus(256, 64, seed=2)
    lengths = (code.m, code.m + 10, code.n)
    bits = sc_decode(llr, code)
    want = _per_round_failures(llr, code, lengths, bits)
    assert want[:, 0].any() and not want[:, -1].any()
    calls = _counting_decode(monkeypatch)
    assert np.array_equal(round_failures(llr, code, lengths, bits), want)
    assert calls == [64]


def _check_nested_family(monkeypatch, full, lengths, llr):
    """Every round of ``round_failures`` equals its own ``sc_decode`` and
    the recursive reference, in two calls with more than one earlier round
    re-decoded, on bits mixed as in :func:`_mixed_bits`."""
    bits = _mixed_bits(full, lengths, llr, np.arange(len(llr)) % 3)
    redecoded = _redecoded_rows(llr, full, lengths, bits)
    assert sum(rows.size > 0 for rows in redecoded) >= 2
    want = _per_round_failures(llr, full, lengths, bits)
    calls = _counting_decode(monkeypatch)
    fails = round_failures(llr, full, lengths, bits)
    assert calls == [len(llr), sum(rows.size for rows in redecoded)]
    assert np.array_equal(fails, want)
    for t, n in enumerate(lengths):
        ref_bits, _ = sc_decode_reference(llr[:, :n], full.prefix(n))
        assert np.array_equal(fails[:, t], (ref_bits != bits).any(axis=1))


def test_nested_family_with_frozen_values_in_dead_blocks(monkeypatch):
    # Leaves 0-3 and 8-9 are dead blocks of width 4 and 2, whose partial
    # sums are all zero; leaf 5 is a single frozen leaf.
    spec = PolarCodeSpec(
        n0=16, info_set=np.array([4, 6, 7, 10, 11, 12, 13, 14, 15]),
        puncture_set=np.array([2, 5]))
    full = RcpCode(spec=spec, rep_vector=np.array([7, 10, 4, 7, 15, 12, 6]))
    llr = np.random.default_rng(11).normal(0.5, 1.5, size=(200, full.n))
    _check_nested_family(monkeypatch, full, (15, 17, 19, 21), llr)


def test_nested_redecode_keeps_decisions_on_exact_zero_leaves(monkeypatch):
    # Position 0 is punctured, so leaf 0 is exactly +0.0 or -0.0 in every
    # row and round.  Bit 0 is repeated from round 3 on: rounds 1 and 2,
    # checked on the last round's leaves and re-decoded over its code,
    # decide it on leaf + 0.0, as they do on leaf.
    spec = PolarCodeSpec(n0=8, info_set=np.array([0, 3, 5, 6, 7]),
                         puncture_set=np.array([0]))
    full = RcpCode(spec=spec, rep_vector=np.array([5, 3, 0, 6]))
    llr = np.random.default_rng(12).normal(0.3, 1.5, size=(200, full.n))
    for n in (8, 11):
        _, leaf = sc_decode(llr[:, :n], full.prefix(n), return_leaf_llrs=True)
        assert (leaf[:, 0] == 0.0).all()
        assert np.signbit(leaf[:, 0]).any() and not np.signbit(leaf[:, 0]).all()
    _check_nested_family(monkeypatch, full, (8, 9, 10, 11), llr)


def test_nested_decoding_rejects_bad_lengths():
    # Rounds are prefixes of one code, so lengths are all a family can get
    # wrong: empty, repeated, decreasing, below m or beyond n.
    spec = PolarCodeSpec(n0=8, info_set=np.array([3, 5, 6, 7]),
                         puncture_set=np.array([1]))
    full = RcpCode(spec=spec, rep_vector=np.array([5, 6, 7]))
    llr = np.ones((2, full.n))
    bits = np.zeros((2, full.k), dtype=np.int8)
    for lengths in ((), (8, 8), (9, 8), (6, 8), (8, 11), (7, 9, 10, 11)):
        with pytest.raises(ValueError, match="strictly increasing"):
            round_failures(llr, full, lengths, bits)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=40), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
@example([3, 3, 3, 1, 3, 1], 2, 0)
@example([], 1, 0)
def test_repetition_sums_equal_add_at(picks, batch, seed):
    # Summing by occurrence rank gives, byte for byte, np.add.at's
    # transmit-order sums 0.0 + r1 + r2 + ..., on LLRs of mixed magnitude
    # where the order of the adds changes the result, and on signed zeros.
    info = np.array([7, 9, 10, 11, 12, 13, 14, 15])
    code = RcpCode(spec=PolarCodeSpec(n0=16, info_set=info),
                   rep_vector=info[picks])
    rng = np.random.default_rng(seed)
    llrs = rng.normal(size=(batch, code.n)) \
        * 10.0 ** rng.integers(-3, 17, size=(batch, code.n))
    llrs[rng.random(llrs.shape) < 0.1] = 0.0
    llrs[rng.random(llrs.shape) < 0.1] = -0.0
    index, sums = rcpolar.codec._repetition_sums(llrs, code)
    want_index, slot = np.unique(code.rep_vector, return_inverse=True)
    want = np.zeros((want_index.size, batch))
    np.add.at(want, slot, llrs[:, code.m:code.n].T)
    assert np.array_equal(index, want_index)
    assert sums.shape == want.shape
    assert sums.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=300),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example(1, [0] * 300, 2, 0)
@example(4, [], 1, 0)
def test_repetition_sums_equal_the_rank_scan(width, picks, batch, seed):
    # Up to 300 repetitions of at most 4 bits, so one bit can be repeated
    # many times while others are repeated once; the sums must equal the
    # rank-by-rank scan over every repetition byte for byte.
    info = np.arange(8 - width, 8)
    code = RcpCode(spec=PolarCodeSpec(n0=8, info_set=info),
                   rep_vector=info[np.array(picks, dtype=int) % width])
    rng = np.random.default_rng(seed)
    llrs = rng.normal(size=(batch, code.n)) \
        * 10.0 ** rng.integers(-3, 17, size=(batch, code.n))
    llrs[rng.random(llrs.shape) < 0.1] = -0.0
    index, sums = rcpolar.codec._repetition_sums(llrs, code)
    want_index, want = repetition_sums_reference(llrs, code)
    assert np.array_equal(index, want_index)
    assert sums.shape == want.shape
    assert sums.tobytes() == want.tobytes()


def test_decode_holds_four_node_buffers():
    # One decode of 2048 words at n0 = 256 holds four (n0, B) float64
    # buffers (channel word, tree levels, check-node scratch, partial
    # sums), plus the bits it returns (twice: in decode order and
    # transposed) and the per-bit sums of its repetition LLRs.  A fifth
    # half buffer of scratch exceeds this by about 1.5 MiB.
    code, _, _ = construct_rcp(288, 128, 256, channel_llr_distribution(
        ChannelParams(snr_db=0.0)))
    b = 2048
    llrs = np.random.default_rng(4).normal(2.0, 2.0, size=(b, code.n))
    tracemalloc.start()
    try:
        sc_decode(llrs, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = (4 * code.spec.n0 * b * 8 + llrs[:, code.m:].nbytes
              + 2 * code.k * b + (64 << 10))
    assert peak <= budget, (peak, budget)
