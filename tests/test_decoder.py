"""The level-by-level SC decoder against the recursive reference, and the
nested-round decoding that reuses the first round's decisions."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcpolar.codec
from rcpolar.channel import (LLR_CLAMP, ChannelParams,
                             channel_llr_distribution, observation_to_llr)
from rcpolar.codec import (PolarCodeSpec, RcpCode, rcp_encode, sc_decode,
                           sc_decode_nested)
from rcpolar.construct import construct_rcp

from oracles import sc_decode_reference

# (n, k, m, snr_db) per mother length n0 = 8, 256, 2048; all are punctured.
CORPUS_CODES = {8: (12, 4, 6, 1.0), 256: (300, 128, 200, 0.5),
                2048: (1783, 1024, 1408, 1.5)}
CORPUS_BATCHES = (1, 64, 732)
LEAF_RTOL = 1e-12


def _corpus(n0, rows, seed):
    """A code with punctures and duplicate repetitions, and channel LLRs
    for ``rows`` random blocks where about 1% of the entries each are
    exactly 0, +LLR_CLAMP and -LLR_CLAMP."""
    n, k, m, snr_db = CORPUS_CODES[n0]
    params = ChannelParams(snr_db=snr_db)
    base, _, _ = construct_rcp(n, k, m, channel_llr_distribution(params))
    rng = np.random.default_rng(seed)
    rep = rng.choice(base.spec.info_set, size=n - m, replace=True)
    code = RcpCode(spec=base.spec, rep_vector=rep)
    bits = rng.integers(0, 2, size=(rows, k), dtype=np.int8)
    y = 1.0 - 2.0 * rcp_encode(bits, code)
    llr = observation_to_llr(y + params.sigma * rng.standard_normal(y.shape),
                             params)
    special = rng.random(llr.shape)
    llr[special < 0.01] = 0.0
    llr[(special >= 0.01) & (special < 0.02)] = LLR_CLAMP
    llr[(special >= 0.02) & (special < 0.03)] = -LLR_CLAMP
    return code, llr


@pytest.mark.parametrize("n0", sorted(CORPUS_CODES))
def test_corpus_matches_recursive_reference(n0):
    code, llr = _corpus(n0, max(CORPUS_BATCHES), seed=n0)
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
    code, llr = _corpus(256, 16, seed=1)
    gc.collect()
    sc_decode(llr, code, counter={}, return_leaf_llrs=True)
    assert gc.collect() == 0


@st.composite
def _nested_family(draw):
    """A nested family of 1-4 rounds over a random small punctured code,
    as ``(code, lengths)``, with LLRs for a small batch."""
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
    return full, lengths, llr


def _example_family(rep, lengths):
    spec = PolarCodeSpec(n0=8, info_set=np.array([3, 5, 6, 7]),
                         puncture_set=np.array([1]))
    full = RcpCode(spec=spec, rep_vector=np.array(rep))
    llr = np.random.default_rng(3).normal(0.3, 1.5, size=(200, full.n))
    return full, lengths, llr


# Round 1 with and without repetitions, an index repeated in round 1 and
# again later, a last round short of the full code, and a single round.
@example(_example_family([5, 3, 5, 6, 7, 3], (7, 9, 13)))
@example(_example_family([5, 3, 5, 6, 7, 3], (8, 10, 13)))
@example(_example_family([6, 6, 5, 6, 7, 3], (8, 9, 11)))
@example(_example_family([5], (8,)))
@settings(max_examples=300, deadline=None)
@given(_nested_family())
def test_nested_decoding_equals_per_round_decoding(family):
    full, lengths, llr = family
    nested = sc_decode_nested(llr, full, lengths)
    assert len(nested) == len(lengths)
    for decoded, n in zip(nested, lengths):
        assert np.array_equal(decoded, sc_decode(llr[:, :n], full.prefix(n)))


def _flipped_rows(llr, full, lengths):
    """Per later round, the rows where a decision on round 1's leaf LLRs
    plus that round's repetition sums (transmit order, from 0) differs
    from round 1's decision."""
    base, leaf = sc_decode(llr[:, : lengths[0]], full.prefix(lengths[0]),
                           return_leaf_llrs=True)
    info_set = full.spec.info_set
    flipped = []
    for n in lengths[1:]:
        rep = np.zeros_like(leaf)
        for t, index in enumerate(full.rep_vector[: n - full.m]):
            rep[:, np.searchsorted(info_set, index)] += llr[:, full.m + t]
        flips = ((leaf + rep) < 0) != base
        flipped.append(np.flatnonzero(flips.any(axis=1)))
    return flipped


def _counting_decode(monkeypatch):
    """Record the row count of every sc_decode call sc_decode_nested makes."""
    calls = []

    def counting_decode(llrs, c, **kwargs):
        calls.append(np.shape(llrs)[0])
        return sc_decode(llrs, c, **kwargs)

    monkeypatch.setattr(rcpolar.codec, "sc_decode", counting_decode)
    return calls


def test_nested_decoding_redecodes_only_changed_rows(monkeypatch):
    # Round 1 without repetitions, then round 1 with 20 repetitions that
    # later rounds repeat again.
    code, llr = _corpus(256, 64, seed=2)
    calls = _counting_decode(monkeypatch)
    for lengths in ((code.m, code.m + 10, code.n),
                    (code.m + 20, code.m + 40, code.n)):
        first_reps = code.rep_vector[: lengths[0] - code.m]
        for n in lengths[1:]:
            assert first_reps.size == 0 or np.isin(
                code.rep_vector[first_reps.size: n - code.m], first_reps).any()
        flipped = _flipped_rows(llr, code, lengths)
        assert all(rows.size < 64 for rows in flipped), (lengths, flipped)
        calls.clear()
        sc_decode_nested(llr, code, lengths)
        assert calls == [64, sum(rows.size for rows in flipped)], lengths


def _check_nested_family(monkeypatch, full, lengths, llr):
    """Every round of ``sc_decode_nested`` equals its own ``sc_decode`` and
    the recursive reference, in two calls with more than one later round
    re-decoded."""
    flipped = _flipped_rows(llr, full, lengths)
    assert sum(rows.size > 0 for rows in flipped) >= 2
    calls = _counting_decode(monkeypatch)
    nested = sc_decode_nested(llr, full, lengths)
    assert calls == [len(llr), sum(rows.size for rows in flipped)]
    for decoded, n in zip(nested, lengths):
        assert np.array_equal(decoded, sc_decode(llr[:, :n], full.prefix(n)))
        ref_bits, _ = sc_decode_reference(llr[:, :n], full.prefix(n))
        assert np.array_equal(decoded, ref_bits)


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
    # row.  Bit 0 is repeated by round 3 alone: rounds 1 and 2, re-decoded
    # over the longest code, decide it on leaf + 0.0, as they do on leaf.
    spec = PolarCodeSpec(n0=8, info_set=np.array([0, 3, 5, 6, 7]),
                         puncture_set=np.array([0]))
    full = RcpCode(spec=spec, rep_vector=np.array([5, 3, 0, 6]))
    llr = np.random.default_rng(12).normal(0.3, 1.5, size=(200, full.n))
    _, leaf = sc_decode(llr[:, :8], full.prefix(8), return_leaf_llrs=True)
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
    for lengths in ((), (8, 8), (9, 8), (6, 8), (8, 11), (7, 9, 10, 11)):
        with pytest.raises(ValueError, match="strictly increasing"):
            sc_decode_nested(llr, full, lengths)


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
