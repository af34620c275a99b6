"""The level-by-level SC decoder against the recursive reference, its
true-path leaves against the level-by-level reference, and the round
failures counted from one walk of the last round's tree."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcpolar.codec
from rcpolar.channel import (LLR_CLAMP, ChannelParams,
                             channel_llr_distribution, transmit)
from rcpolar.codec import RcpCode, rcp_encode, round_failures, sc_decode
from rcpolar.construct import construct_rcp

from oracles import (repetition_sums_reference, sc_decode_reference,
                     true_path_leaves_reference)

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
    rep = rng.choice(base.info_set, size=n - m, replace=True)
    code = replace(base, rep_vector=rep)
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
    assert code.puncture_set.size > 0
    assert np.unique(code.rep_vector).size < code.rep_vector.size
    for value in (0.0, LLR_CLAMP, -LLR_CLAMP):
        assert (llr == value).any()
    for b in CORPUS_BATCHES:
        ref_bits, ref_llrs = sc_decode_reference(llr[:b], code)
        ref_llrs = ref_llrs[:, code.info_set]
        bits = sc_decode(llr[:b], code)
        llrs = sc_decode(llr[:b], code, sent=bits)
        assert np.array_equal(bits, ref_bits), (n0, b)
        err = np.abs(llrs - ref_llrs) / np.maximum(np.abs(ref_llrs), 1.0)
        assert err.max() <= LEAF_RTOL, (n0, b, err.max())


def test_sc_decode_leaves_no_reference_cycles():
    # Buffers freed by reference counting, not held until the cyclic
    # collector runs.
    code, llr, _ = _corpus(256, 16, seed=1)
    gc.collect()
    sc_decode(llr, code, sent=sc_decode(llr, code))
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
    rounds = draw(st.integers(1, 4))
    first_reps = draw(st.integers(0, 3))
    more = draw(st.lists(st.integers(1, 4), min_size=rounds - 1,
                         max_size=rounds - 1))
    rep = np.array(draw(st.lists(st.sampled_from(info),
                                 min_size=first_reps + sum(more),
                                 max_size=first_reps + sum(more))),
                   dtype=np.int64)
    full = RcpCode(n0=n0, info_set=info, puncture_set=sorted(punct),
                   rep_vector=rep)
    lengths = [int(n) for n in np.cumsum([m + first_reps, *more])]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rows = draw(st.integers(1, 8))
    llr = np.random.default_rng(seed).normal(0.5, 2.0, size=(rows, full.n))
    sources = draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows))
    return full, lengths, llr, np.array(sources)


def _example_family(rep, lengths):
    full = RcpCode(n0=8, info_set=[3, 5, 6, 7], puncture_set=[1],
                   rep_vector=rep)
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


def _last_round_wrong(llr, full, lengths, bits):
    """The rows that the last round decodes wrongly."""
    last = sc_decode(llr[:, : lengths[-1]], full.prefix(lengths[-1]))
    return np.flatnonzero((last != bits).any(axis=1))


def _counting_calls(monkeypatch):
    """Record, for every sc_decode call round_failures makes, its row count
    and whether it followed the blocks sent."""
    decodes = []

    def counting_decode(llrs, c, sent=None, **kwargs):
        decodes.append((np.shape(llrs)[0], sent is not None))
        return sc_decode(llrs, c, sent=sent, **kwargs)

    monkeypatch.setattr(rcpolar.codec, "sc_decode", counting_decode)
    return decodes


def test_nested_decoding_walks_the_tree_once(monkeypatch):
    # Round 1 without repetitions, then round 1 with 20 repetitions that
    # later rounds repeat again, checked against the blocks sent: one walk
    # of the last round's tree following them, over the rows the last
    # round decodes wrongly as well as the rest.
    code, llr, bits = _corpus(256, 64, seed=2)
    decodes = _counting_calls(monkeypatch)
    for lengths in ((code.m, code.m + 10, code.n),
                    (code.m + 20, code.m + 40, code.n)):
        first_reps = code.rep_vector[: lengths[0] - code.m]
        for n in lengths[1:]:
            assert first_reps.size == 0 or np.isin(
                code.rep_vector[first_reps.size: n - code.m], first_reps).any()
        wrong = _last_round_wrong(llr, code, lengths, bits)
        assert 0 < wrong.size < 64, wrong
        decodes.clear()
        fails = round_failures(llr, code, lengths, bits)
        assert decodes == [(64, True)], lengths
        assert np.array_equal(fails,
                              _per_round_failures(llr, code, lengths, bits))


def test_round_failures_decode_once_when_the_last_round_is_right(monkeypatch):
    # Every row the last round decodes right needs nothing beyond the one
    # walk, even where earlier rounds fail; a single round is one plain
    # decode.
    code, llr, _ = _corpus(256, 64, seed=2)
    lengths = (code.m, code.m + 10, code.n)
    bits = sc_decode(llr, code)
    want = _per_round_failures(llr, code, lengths, bits)
    assert want[:, 0].any() and not want[:, -1].any()
    decodes = _counting_calls(monkeypatch)
    assert np.array_equal(round_failures(llr, code, lengths, bits), want)
    assert decodes == [(64, True)]
    decodes.clear()
    assert np.array_equal(round_failures(llr, code, lengths[-1:], bits),
                          want[:, -1:])
    assert decodes == [(64, False)]


def _check_nested_family(monkeypatch, full, lengths, llr):
    """Every round of ``round_failures`` equals its own ``sc_decode`` and
    the recursive reference, from one walk of the last round's tree that
    follows the blocks sent, on bits mixed as in :func:`_mixed_bits`.  In
    at least two earlier rounds some rows the last round gets wrong decode
    right, so the last round's own decisions after its first error would
    not do there."""
    bits = _mixed_bits(full, lengths, llr, np.arange(len(llr)) % 3)
    wrong = _last_round_wrong(llr, full, lengths, bits)
    want = _per_round_failures(llr, full, lengths, bits)
    assert ((~want[wrong, :-1]).any(axis=0)).sum() >= 2
    decodes = _counting_calls(monkeypatch)
    fails = round_failures(llr, full, lengths, bits)
    assert decodes == [(len(llr), True)]
    assert np.array_equal(fails, want)
    for t, n in enumerate(lengths):
        ref_bits, _ = sc_decode_reference(llr[:, :n], full.prefix(n))
        assert np.array_equal(fails[:, t], (ref_bits != bits).any(axis=1))


def test_nested_family_with_frozen_values_in_dead_blocks(monkeypatch):
    # Leaves 0-3 and 8-9 are dead blocks of width 4 and 2, whose partial
    # sums are all zero; leaf 5 is a single frozen leaf.
    full = RcpCode(n0=16, info_set=[4, 6, 7, 10, 11, 12, 13, 14, 15],
                   puncture_set=[2, 5], rep_vector=[7, 10, 4, 7, 15, 12, 6])
    llr = np.random.default_rng(11).normal(0.5, 1.5, size=(200, full.n))
    _check_nested_family(monkeypatch, full, (15, 17, 19, 21), llr)


def test_nested_redecode_keeps_decisions_on_exact_zero_leaves(monkeypatch):
    # Position 0 is punctured, so leaf 0 is exactly +0.0 or -0.0 in every
    # row and round.  Bit 0 is repeated from round 3 on: rounds 1 and 2,
    # decided on the true-path leaves of the last round's code, decide it
    # on leaf + 0.0, as they do on leaf.
    full = RcpCode(n0=8, info_set=[0, 3, 5, 6, 7], puncture_set=[0],
                   rep_vector=[5, 3, 0, 6])
    llr = np.random.default_rng(12).normal(0.3, 1.5, size=(200, full.n))
    for n in (8, 11):
        code = full.prefix(n)
        leaf = sc_decode(llr[:, :n], code, sent=sc_decode(llr[:, :n], code))
        assert (leaf[:, 0] == 0.0).all()
        assert np.signbit(leaf[:, 0]).any() and not np.signbit(leaf[:, 0]).all()
    _check_nested_family(monkeypatch, full, (8, 9, 10, 11), llr)


def _assert_true_path_leaves(llr, code, bits):
    """On every row, the leaf LLRs sc_decode computes following ``bits``
    are the level-by-level true-path reference, byte for byte; returns how
    many rows sc_decode decodes wrongly, where its own decisions leave the
    true trajectory."""
    leaf = sc_decode(llr, code, sent=bits)
    want = true_path_leaves_reference(llr, code, bits)
    assert leaf.shape == want.shape == bits.shape
    assert (np.ascontiguousarray(leaf).tobytes()
            == np.ascontiguousarray(want).tobytes())
    return int((sc_decode(llr, code) != bits).any(axis=1).sum())


@example(_example_family([5, 3, 5, 6, 7, 3], (7, 9, 13)))
@settings(max_examples=200, deadline=None)
@given(_nested_family())
def test_true_path_leaves_equal_sc_leaves_on_every_row(family):
    full, lengths, llr, sources = family
    bits = _mixed_bits(full, lengths, llr, sources)
    _assert_true_path_leaves(llr[:, : lengths[-1]], full.prefix(lengths[-1]),
                             bits)


@pytest.mark.parametrize("n0", sorted(CORPUS_CODES))
def test_true_path_leaves_equal_sc_leaves_on_the_corpus(n0):
    # Punctures, duplicate repetitions, exact 0 and clamped LLRs; at
    # n0 = 2048 and 64 rows the widest nodes run in two tiles.  Half the
    # rows take the decoder's own decisions as the block sent, so they are
    # decoded right whatever the channel did; the other half are random
    # blocks, most of which SC decodes wrongly.  One row is decoded alone.
    code, llr, bits = _corpus(n0, 64, seed=n0 + 1)
    bits[::2] = sc_decode(llr[::2], code)
    assert 0 < _assert_true_path_leaves(llr, code, bits) <= 32
    assert np.array_equal(sc_decode(llr[1], code, sent=bits[1]),
                          sc_decode(llr[1:2], code, sent=bits[1:2])[0])


@example(_example_family([5, 3, 5, 6, 7, 3], (7, 9, 13)))
@example(_example_family([6, 6, 5, 6, 7, 3], (8, 9, 11)))
@settings(max_examples=100, deadline=None)
@given(_nested_family())
def test_round_failures_match_the_recursive_reference(family):
    full, lengths, llr, sources = family
    bits = _mixed_bits(full, lengths, llr, sources)
    fails = round_failures(llr, full, lengths, bits)
    for t, n in enumerate(lengths):
        ref_bits, _ = sc_decode_reference(llr[:, :n], full.prefix(n))
        assert np.array_equal(fails[:, t], (ref_bits != bits).any(axis=1))


def test_nested_decoding_rejects_bad_lengths():
    # Rounds are prefixes of one code, so lengths are all a family can get
    # wrong: empty, repeated, decreasing, below m or beyond n.
    full = RcpCode(n0=8, info_set=[3, 5, 6, 7], puncture_set=[1],
                   rep_vector=[5, 6, 7])
    llr = np.ones((2, full.n))
    bits = np.zeros((2, full.k), dtype=np.int8)
    for lengths in ((), (8, 8), (9, 8), (6, 8), (8, 11), (7, 9, 10, 11)):
        with pytest.raises(ValueError, match="strictly increasing"):
            round_failures(llr, full, lengths, bits)
    with pytest.raises(ValueError, match="integers"):  # ran 7 and 10
        round_failures(llr, full, (7.9, 10.5), bits)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=40), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
@example([3, 3, 3, 1, 3, 1], 2, 0)
@example([], 1, 0)
def test_repetition_sums_equal_add_at(picks, batch, seed):
    # The transmit-order loop gives, byte for byte, np.add.at's
    # transmit-order sums 0.0 + r1 + r2 + ..., on LLRs of mixed magnitude
    # where the order of the adds changes the result, and on signed zeros.
    info = np.array([7, 9, 10, 11, 12, 13, 14, 15])
    code = RcpCode(n0=16, info_set=info, rep_vector=info[picks])
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
    code = RcpCode(n0=8, info_set=info,
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


def test_decode_holds_two_float_buffers_one_int8_buffer_and_a_tile():
    # One decode of 2048 words at n0 = 256 holds two (n0, B) float64
    # buffers (channel word, tree levels), one (n0, B) int8 buffer (partial
    # sums) and one tile of check-node scratch, plus the bits it returns
    # (twice: in decode order and transposed) and the per-bit sums of its
    # repetition LLRs.  Partial sums held as float64 exceed this by about
    # 3.3 MiB.
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
    tile = 2 * rcpolar.codec._TILE * 8
    budget = (2 * code.n0 * b * 8 + code.n0 * b + tile
              + llrs[:, code.m:].nbytes + 2 * code.k * b + (64 << 10))
    assert peak <= budget, (peak, budget)
