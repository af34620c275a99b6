import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rcpolar.codec
from rcpolar.channel import LLR_CLAMP, LlrDistribution
from rcpolar.codec import (RcpCode, _check_node, code_from_dict, code_to_dict,
                           rcp_encode, sc_decode)
from rcpolar.construct import construct_rcp

from oracles import (bits_to_hex, check_golden_vectors, encode_dense,
                     hex_to_bits, posterior_decision_llr, write_golden_vectors)


def _plain_code(n0, info):
    """The unpunctured code without repetitions: it sends the full n0-bit
    mother codeword."""
    return RcpCode(n0=n0, info_set=info)


def _random_code(rng, n0_exp_max=10):
    """A random code built through the regular construction path."""
    n0 = 2 ** rng.integers(2, n0_exp_max + 1)
    m = int(rng.integers(n0 // 2 + 1, n0 + 1))
    k = int(rng.integers(1, m + 1))
    n = int(m + rng.integers(0, n0))
    sigma = float(rng.uniform(0.5, 1.5))
    code, _, _ = construct_rcp(n, k, m, LlrDistribution(2.0 / sigma ** 2))
    # replace the planned repetitions with arbitrary ones, same length
    rep = rng.choice(code.info_set, size=n - m, replace=True)
    return replace(code, rep_vector=np.sort(rep))


def test_kernel_identity_n2():
    code = _plain_code(2, [0, 1])
    for u1 in (0, 1):
        for u2 in (0, 1):
            x = rcp_encode(np.array([u1, u2]), code)
            assert x.tolist() == [u1 ^ u2, u2]


def test_all_zero_encodes_to_all_zero():
    code = _plain_code(16, [1, 5, 9, 13])
    assert not rcp_encode(np.zeros(4, dtype=np.int8), code).any()


def test_encode_matches_dense_generator():
    rng = np.random.default_rng(0)
    for n0 in (8, 64, 256):
        code = _plain_code(n0, list(range(n0)))
        for _ in range(20):
            u = rng.integers(0, 2, size=n0, dtype=np.int8)
            assert np.array_equal(rcp_encode(u, code), encode_dense(u))
        batch = rng.integers(0, 2, size=(17, n0), dtype=np.int8)
        assert np.array_equal(rcp_encode(batch, code), encode_dense(batch))


def test_encode_length_mismatch():
    code = _plain_code(8, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        rcp_encode(np.zeros(5, dtype=np.int8), code)


def test_encoder_gf2_linearity():
    rng = np.random.default_rng(1)
    code = _random_code(rng, n0_exp_max=6)
    plain = _plain_code(code.n0, code.info_set)
    for _ in range(20):
        u = rng.integers(0, 2, size=plain.k, dtype=np.int8)
        v = rng.integers(0, 2, size=plain.k, dtype=np.int8)
        left = rcp_encode(u ^ v, plain)
        right = rcp_encode(u, plain) ^ rcp_encode(v, plain)
        assert np.array_equal(left, right)


def test_rcp_encode_no_repetitions_is_punctured_word():
    rng = np.random.default_rng(2)
    code, _, _ = construct_rcp(6, 3, 6, LlrDistribution(2.0))
    u = rng.integers(0, 2, size=3, dtype=np.int8)
    word = rcp_encode(u, code)
    assert word.size == 6
    u_full = np.zeros(code.n0, dtype=np.int8)
    u_full[code.info_set] = u
    full = encode_dense(u_full)
    assert np.array_equal(word, full[code.transmitted_positions])


def test_rcp_encode_all_zero():
    code, _, _ = construct_rcp(10, 4, 8, LlrDistribution(2.0))
    assert not rcp_encode(np.zeros(4, dtype=np.int8), code).any()


def test_rcp_encode_repetitions_by_lookup():
    # k=4, m=8=n0 (no puncturing), n=10: the last two bits must equal the
    # input bits mapped by the repetition vector.
    rng = np.random.default_rng(3)
    code, _, _ = construct_rcp(10, 4, 8, LlrDistribution(2.0))
    a, b = code.rep_vector
    for _ in range(20):
        info = rng.integers(0, 2, size=4, dtype=np.int8)
        u = np.zeros(8, dtype=np.int8)
        u[code.info_set] = info
        word = rcp_encode(info, code)
        assert word[8] == u[a]
        assert word[9] == u[b]


def test_sc_decode_noiseless_all_zero():
    code, _, _ = construct_rcp(12, 4, 8, LlrDistribution(2.0))
    llr = np.full(code.n, LLR_CLAMP)
    assert not sc_decode(llr, code).any()


def test_sc_decode_length_mismatch():
    code, _, _ = construct_rcp(12, 4, 8, LlrDistribution(2.0))
    with pytest.raises(ValueError):
        sc_decode(np.zeros(11), code)


def test_sc_decode_rejects_sent_blocks_of_the_wrong_shape_or_values():
    # The sent blocks set every partial sum, so a block of another length,
    # a missing row or a bit other than 0/1 would give wrong leaves (0.5
    # and 1.9 were once read as 0 and 1).
    code, _, _ = construct_rcp(12, 4, 8, LlrDistribution(2.0))
    llr = np.ones((2, code.n))
    for sent in (np.zeros((2, 3)), np.zeros((1, 4)), np.zeros(4),
                 np.full((2, 4), 2), np.full((2, 4), -1),
                 np.full((2, 4), 0.5), [[0.5, 1.9, 0, 0]] * 2):
        with pytest.raises(ValueError, match="sent"):
            sc_decode(llr, code, sent=sent)
    with pytest.raises(ValueError, match="sent"):
        sc_decode(llr[0], code, sent=np.zeros((1, 4)))
    assert sc_decode(llr, code, sent=np.zeros((2, 4))).shape == (2, 4)
    assert sc_decode(llr[0], code, sent=[0, 1, 1, 0]).shape == (4,)


@pytest.mark.parametrize("bits", [[2, 0, 0, 0], [-1, 0, 0, 0],
                                  [0.5, 1, 0, 1], [np.nan, 0, 0, 0],
                                  ["1", 0, 0, 0]])
def test_rcp_encode_rejects_non_binary_bits(bits):
    # 2s and -1s were once sent as they were, and 0.5 truncated to 0.
    with pytest.raises(ValueError, match="info_bits"):
        rcp_encode(bits, _plain_code(8, [3, 5, 6, 7]))


def test_bit_inputs_of_any_number_type():
    code = _plain_code(8, [3, 5, 6, 7])
    llr = np.random.default_rng(10).normal(size=8)
    block = np.array([1, 0, 1, 1], dtype=np.int8)
    for bits in ([1, 0, 1, 1], [True, False, True, True], [1.0, 0.0, 1.0, 1.0],
                 block.astype(np.uint8), block.astype(np.float32)):
        assert rcp_encode(bits, code).tolist() == rcp_encode(block, code).tolist()
        assert sc_decode(llr, code, sent=bits).tobytes() \
            == sc_decode(llr, code, sent=block).tobytes()


def test_decision_llrs_match_exhaustive_posterior():
    # n0=4, k=2, no punctures or repetitions, so the leaf LLRs are the
    # decision LLRs: at each information bit it equals the posterior
    # computed by summing over all codewords consistent with the decoder's
    # own earlier decisions.
    code, _, _ = construct_rcp(4, 2, 4, LlrDistribution(2.0))
    rng = np.random.default_rng(4)
    for _ in range(50):
        llr = rng.normal(0.0, 3.0, size=4)
        decoded = sc_decode(llr, code)
        decisions = sc_decode(llr, code, sent=decoded)
        u = np.zeros(4, dtype=np.int64)
        u[code.info_set] = decoded
        for j, i in enumerate(code.info_set):
            ref = posterior_decision_llr(llr, i, u[:i])
            assert decisions[j] == pytest.approx(ref, abs=1e-9)


def test_repetition_llr_flips_decision():
    # One repetition of input bit 0 of a length-2 full-rate code: a strong
    # negative repetition observation must flip the first decision.
    base = _plain_code(2, [0, 1])
    rep = RcpCode(n0=2, info_set=[0, 1], rep_vector=[0])
    polar_llr = np.array([3.0, 2.6])  # f(3.0, 2.6) is about +2
    no_rep = sc_decode(polar_llr, base)
    assert no_rep[0] == 0
    with_rep = sc_decode(np.concatenate([polar_llr, [-5.0]]), rep)
    assert with_rep[0] == 1


def test_repetition_llrs_accumulate():
    # Two repetitions of the same bit sum their observations at the
    # decision: against a tree LLR of about +2, either one alone leaves bit 0
    # at 0 and the pair flips it.
    polar_llr = [3.0, 2.6]
    single = RcpCode(n0=2, info_set=[0, 1], rep_vector=[0])
    for rep_llr in (-1.2, -1.1):
        llr = np.array([*polar_llr, rep_llr])
        decoded = sc_decode(llr, single)
        leaf = sc_decode(llr, single, sent=decoded)
        assert leaf[0] == pytest.approx(2.0, abs=0.2)
        assert decoded[0] == 0
    pair = replace(single, rep_vector=[0, 0])
    assert sc_decode(np.array([*polar_llr, -1.2, -1.1]), pair)[0] == 1


def test_round_trip_random_family():
    rng = np.random.default_rng(5)
    for _ in range(30):
        code = _random_code(rng, n0_exp_max=8)
        blocks = rng.integers(0, 2, size=(8, code.k), dtype=np.int8)
        tx = rcp_encode(blocks, code)
        llr = np.where(tx == 0, LLR_CLAMP, -LLR_CLAMP)
        decoded = sc_decode(llr, code)
        assert np.array_equal(decoded, blocks)


def test_decoder_deterministic():
    rng = np.random.default_rng(6)
    code = _random_code(rng, n0_exp_max=6)
    llr = rng.normal(0, 2, size=code.n)
    assert np.array_equal(sc_decode(llr, code), sc_decode(llr, code))


def test_decode_batch_matches_single():
    rng = np.random.default_rng(7)
    code = _random_code(rng, n0_exp_max=6)
    llr = rng.normal(0, 2, size=(5, code.n))
    batch = sc_decode(llr, code)
    for i in range(5):
        assert np.array_equal(batch[i], sc_decode(llr[i], code))


def _f_ops(monkeypatch, llrs, code, **kwargs):
    """Check-node outputs per word that one sc_decode call computes,
    summed over every call of its f-update."""
    outputs = []
    original = rcpolar.codec._check_node

    def counting(parent, out, pair):
        outputs.append(out.size)
        return original(parent, out, pair)

    monkeypatch.setattr(rcpolar.codec, "_check_node", counting)
    sc_decode(llrs, code, **kwargs)
    monkeypatch.undo()
    words = 1 if np.ndim(llrs) == 1 else len(llrs)
    assert sum(outputs) % words == 0
    return sum(outputs) // words


def test_decode_operation_counts_scale(monkeypatch):
    # Exactly n0/2 * log2(n0) f-updates per decoded word, in one tile or,
    # at n0 = 1024 and 128 words, two at the widest node.
    for n0, words in ((4, 1), (16, 1), (64, 1), (256, 1), (1024, 1),
                      (1024, 128)):
        code = _plain_code(n0, list(range(n0)))
        llrs = np.ones((words, n0))
        expect = n0 // 2 * int(np.log2(n0))
        assert _f_ops(monkeypatch, llrs, code) == expect
        assert _f_ops(monkeypatch, llrs, code,
                      sent=np.zeros((words, n0), dtype=np.int8)) == expect


def test_decode_operation_counts_skip_dead_blocks(monkeypatch):
    # A node is updated only if it holds an information bit: a left child
    # by f, costing its width per word, whether the decoder decides or
    # follows the blocks sent.
    rng = np.random.default_rng(8)
    constructed, _, _ = construct_rcp(72, 32, 64, LlrDistribution(1.6))
    codes = [constructed] + [
        _plain_code(n0, np.sort(rng.choice(n0, n0 // 4, replace=False)))
        for n0 in (8, 64, 512)]
    for code in codes:
        n0 = code.n0
        llrs = rng.normal(size=(3, code.n))
        has_info = np.zeros(n0, dtype=bool)
        has_info[code.info_set] = True
        expect = 0
        for s in range(n0.bit_length() - 1):
            live = has_info.reshape(-1, 1 << s).any(axis=1)
            expect += (1 << s) * int(live[0::2].sum())
        assert expect < n0 // 2 * (n0.bit_length() - 1)
        assert _f_ops(monkeypatch, llrs, code) == expect, n0
        sent = rng.integers(0, 2, size=(3, code.k), dtype=np.int8)
        assert _f_ops(monkeypatch, llrs, code, sent=sent) == expect, n0


def test_spec_validation():
    with pytest.raises(ValueError):
        RcpCode(n0=6, info_set=[0])
    with pytest.raises(ValueError):
        RcpCode(n0=4, info_set=[0, 4])
    with pytest.raises(ValueError):
        RcpCode(n0=4, info_set=[0, 1],
                puncture_set=[0, 1])  # too many punctures
    with pytest.raises(ValueError):
        RcpCode(n0=4, info_set=[2, 3], rep_vector=[0])


def test_hex_round_trip():
    rng = np.random.default_rng(8)
    for length in (1, 4, 5, 8, 13, 64):
        bits = rng.integers(0, 2, size=length, dtype=np.int8)
        assert np.array_equal(hex_to_bits(bits_to_hex(bits), length), bits)
    assert bits_to_hex(np.array([], dtype=np.int8)) == ""


def test_code_json_round_trip():
    code, _, _ = construct_rcp(20, 6, 14, LlrDistribution(2.0))
    back = code_from_dict(code_to_dict(code))
    assert back.n0 == code.n0
    assert np.array_equal(back.info_set, code.info_set)
    assert np.array_equal(back.puncture_set, code.puncture_set)
    assert np.array_equal(back.rep_vector, code.rep_vector)


def test_golden_vectors_self_check():
    rng = np.random.default_rng(9)
    records = []
    for _ in range(10):
        code = _random_code(rng, n0_exp_max=5)
        records.append((code, rng.integers(0, 2, size=code.k, dtype=np.int8)))
    buf = io.StringIO()
    write_golden_vectors(buf, records)
    buf.seek(0)
    results = list(check_golden_vectors(buf))
    assert len(results) == 10
    assert all(ok for _, ok in results)


def test_golden_vectors_regression_file():
    with open("tests/data/golden_vectors.jsonl") as fp:
        results = list(check_golden_vectors(fp))
    assert results and all(ok for _, ok in results)


def _dict_code():
    """n0 = 8, k = 4, one puncture and two repetitions: n = 9, m = 7."""
    return RcpCode(n0=8, info_set=[3, 5, 6, 7], puncture_set=[0],
                   rep_vector=[3, 7])


def test_frozen_bits_are_zero():
    # Frozen values are not a parameter; a dict may carry them only as zeros.
    with pytest.raises(TypeError):
        RcpCode(n0=8, info_set=[3, 5, 6, 7], frozen_values=[0, 0, 0, 0])
    code = _dict_code()
    back = code_from_dict({**code_to_dict(code), "frozen_values": [0] * 4})
    info = np.array([1, 0, 1, 1], dtype=np.int8)
    assert np.array_equal(rcp_encode(info, back), rcp_encode(info, code))
    assert rcp_encode(np.zeros(4, dtype=np.int8), code).tolist() == [0] * 9


def test_code_from_dict_rejects_nonzero_frozen_values():
    d = code_to_dict(_dict_code())
    for frozen in ([1, 0, 2, 5], [1, 0, 1, 0], [0, 0, 0], [0.0, 0, 0, 0]):
        with pytest.raises(ValueError, match="frozen_values"):
            code_from_dict({**d, "frozen_values": frozen})


LOSSY_OR_MISMATCHED = [
    ("n0", 8.9), ("n0", 8.0), ("info_set", [3.7, 5, 6, 7]),
    ("puncture_set", [0.5]), ("puncture_set", [False]),
    ("rep_vector", [3, 7.2]), ("n", 10), ("k", 5), ("m", 6), ("m", 7.0),
]


@pytest.mark.parametrize("key, value", LOSSY_OR_MISMATCHED,
                         ids=[f"{k}={v}" for k, v in LOSSY_OR_MISMATCHED])
def test_code_from_dict_rejects_lossy_or_mismatched_input(key, value):
    # Each would otherwise be rounded, or read past, into another code.
    d = code_to_dict(_dict_code())
    assert code_from_dict(d).n == 9
    with pytest.raises(ValueError, match=key):
        code_from_dict({**d, key: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sc_decode_rejects_non_finite_llrs(bad):
    code = _plain_code(8, [3, 5, 6, 7])
    with pytest.raises(ValueError):
        sc_decode(np.full(8, bad), code)
    llr = np.ones((3, 8))
    llr[1, 4] = bad
    with pytest.raises(ValueError):
        sc_decode(llr, code)


@st.composite
def _specified_code(draw):
    """A small code with or without punctures and repetitions."""
    n0 = 2 ** draw(st.integers(0, 6))
    punct = sorted(draw(st.lists(st.integers(0, n0 - 1), unique=True,
                                 max_size=max(0, n0 // 2 - 1))))
    k = draw(st.integers(1, n0 - len(punct)))
    info = sorted(draw(st.permutations(range(n0)))[:k])
    rep = draw(st.lists(st.sampled_from(info), max_size=8))
    return RcpCode(n0=n0, info_set=info, puncture_set=punct, rep_vector=rep)


@settings(max_examples=300, deadline=None)
@given(_specified_code())
def test_code_dict_round_trip_property(code):
    back = code_from_dict(json.loads(json.dumps(code_to_dict(code))))
    assert back.n0 == code.n0
    assert np.array_equal(back.info_set, code.info_set)
    assert np.array_equal(back.puncture_set, code.puncture_set)
    assert np.array_equal(back.rep_vector, code.rep_vector)
    assert (back.n, back.k, back.m) == (code.n, code.k, code.m)


# Any JSON value, and values near a code's own: small integers and short
# lists of them.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8) | st.integers(-1, 17) | st.lists(st.integers(-1, 9),
                                                  max_size=6)
_CODE_KEYS = ("n", "k", "m", "n0", "info_set", "puncture_set", "rep_vector")


@settings(max_examples=400, deadline=None)
@given(_specified_code(),
       st.lists(st.tuples(st.sampled_from(_CODE_KEYS) | st.just("frozen_values")
                          | st.text(max_size=3), _JSON), max_size=3),
       st.lists(st.sampled_from(_CODE_KEYS), max_size=2), _JSON)
@example(_dict_code(), [], ["k"], None)             # a KeyError
@example(_dict_code(), [], [], [1, 2])              # a TypeError
@example(_dict_code(), [("rep_vector", [[3], [7]])], [], None)  # 2-D
def test_code_from_dict_reads_only_what_code_to_dict_writes(code, sets, drops,
                                                            other):
    # Any value at any key, dropped keys and non-objects: code_from_dict
    # raises ValueError or returns a code that encodes n bits and whose
    # dict is exactly its input (frozen_values, from older files, may only
    # be the code's zeros).
    d = code_to_dict(code)
    for key, value in sets:
        d[key] = value
    for key in drops:
        d.pop(key, None)
    for given_ in (d, other):
        try:
            back = code_from_dict(given_)
        except ValueError:
            continue
        want = dict(given_)
        frozen = want.pop("frozen_values", [0] * (back.n0 - back.k))
        assert json.dumps(code_to_dict(back), sort_keys=True) \
            == json.dumps(want, sort_keys=True)
        assert json.dumps(frozen) == json.dumps([0] * (back.n0 - back.k))
        assert rcp_encode(np.zeros(back.k, dtype=np.int8), back).shape \
            == (back.n,)


def test_check_node_sign_follows_the_rounded_magnitude():
    # Where min(|a|,|b|) is tiny, the magnitude term rounds below zero and
    # the output's sign is the opposite of sign(a)sign(b).  Taking the sign
    # from a*b (np.copysign) would flip these outputs, and in one of 300
    # random punctured codes (n0 = 256, k = 190, 55 punctures) it flipped a
    # decision.
    pairs = [(4.991027286150588e-16, 0.18714042048728724),
             (-5.2297866061945584e-17, 0.07652366058703126),
             (2.716263821839304e-16, -0.26496590106185197)]
    expect = [-1.1102230246251565e-16, 1.1102230246251565e-16,
              1.1102230246251565e-16]
    parent = np.array(pairs).T.copy()
    out = np.empty(3)
    _check_node(parent, out, np.empty_like(parent))
    assert out.tolist() == expect
    for (a, b), value in zip(pairs, expect):
        single = np.empty(1)
        _check_node(np.array([[a], [b]]), single, np.empty((2, 1)))
        assert single[0] == value
        assert np.copysign(value, a * b) == -value


# Values that are not integers a code can index with, each made from the
# integer it replaces: bools, floats (exact, fractional, huge, NaN, inf),
# complex, strings, nested lists, None and ints beyond int64.
_NOT_INDICES = (
    lambda v: bool(v % 2), lambda v: np.bool_(v % 2), float,
    lambda v: v + 0.9, np.float64, lambda v: 1e308, lambda v: -1e308,
    lambda v: float("nan"), lambda v: float("inf"), complex, str,
    lambda v: [v], lambda v: None, lambda v: v + 2 ** 63,
    lambda v: v - 2 ** 63 - 1, lambda v: 2 ** 64)
_VALID_FIELDS = {"n0": 8, "info_set": [3, 5, 6, 7], "puncture_set": [1],
                 "rep_vector": [5, 6, 5]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_VALID_FIELDS)),
       st.sampled_from(range(len(_NOT_INDICES))), st.integers(0, 3),
       st.booleans())
@example("info_set", 3, 1, False)      # 5.9 was read as 5
@example("rep_vector", 3, 0, False)    # [5.9, 6, 5] was read as [5, 6, 5]
@example("n0", 0, 0, False)            # n0=False
@example("n0", 2, 0, False)            # n0=8.0 raised TypeError
@example("puncture_set", 2, 0, True)   # a float array was truncated
def test_constructors_reject_non_integer_values(key, kind, at, as_array):
    fields = dict(_VALID_FIELDS)
    if key == "n0":
        fields["n0"] = _NOT_INDICES[kind](8)
    else:
        entries = list(fields[key])
        entries[at % len(entries)] = _NOT_INDICES[kind](entries[at %
                                                                len(entries)])
        if as_array:  # an array of the type numpy makes of the entries
            try:
                entries = np.array(entries)
            except ValueError:  # a nested list numpy cannot stack
                pass
            else:  # numpy itself reads [5, True] as integers
                assume(not np.issubdtype(entries.dtype, np.integer))
        fields[key] = entries
    with pytest.raises(ValueError):
        RcpCode(**fields)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([int, np.int64, np.int32, np.uint16, np.int8]),
       st.booleans(), st.booleans())
def test_constructors_take_integers_of_any_type(cast, as_array, empty):
    # Any integer type gives the same code; empty index lists are valid,
    # also as numpy's float64 empty array.
    fields = {key: (cast(value) if key == "n0" else
                    [cast(v) for v in value])
              for key, value in _VALID_FIELDS.items()}
    if as_array:
        fields = {key: np.array(value) if key != "n0" else value
                  for key, value in fields.items()}
    if empty:
        fields["puncture_set"] = np.array([]) if as_array else []
        fields["rep_vector"] = np.array([]) if as_array else []
    code = RcpCode(**fields)
    emptied = {"puncture_set": [], "rep_vector": []} if empty else {}
    want = RcpCode(**{**_VALID_FIELDS, **emptied})
    assert type(code.n0) is int and code.n0 == 8
    assert code_to_dict(code) == code_to_dict(want)
    for idx in (code.info_set, code.puncture_set, code.rep_vector):
        assert idx.dtype == np.int64


def test_indices_convert_ranges_and_integer_arrays_directly(monkeypatch):
    # A range, or an ndarray of integer dtype, gives the array the entry by
    # entry walk gives its list, and never takes that walk.
    ranges = (range(0), range(4, 2 ** 12 + 1), range(10, -7, -3),
              range(2 ** 63 - 3, 2 ** 63), range(-2 ** 63, -2 ** 63 + 2))
    arrays = (np.arange(5, dtype=np.uint8), np.array([-3, 7], np.int32),
              np.array([2 ** 63 - 1], dtype=np.uint64))
    want = [rcpolar.codec._indices(list(v), "v") for v in ranges + arrays]
    walked = []
    is_int = rcpolar.codec._is_int
    monkeypatch.setattr(rcpolar.codec, "_is_int",
                        lambda v: walked.append(v) or is_int(v))
    for values, expected in zip(ranges + arrays, want):
        got = rcpolar.codec._indices(values, "v")
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert walked == []


@pytest.mark.parametrize("values", [
    [1.0, 2], [np.float64(3.0)], [True], [1, True], [0, 1, False, 3],
    np.array([True, False]), np.array([1.5]), [2 ** 63], [-2 ** 63 - 1],
    range(2 ** 63 - 1, 2 ** 63 + 1), range(-2 ** 63 - 1, -2 ** 63 + 1),
    range(2 ** 64), np.array([2 ** 63], dtype=np.uint64)])
def test_indices_reject_floats_bools_and_ints_beyond_int64(values):
    with pytest.raises(ValueError, match="integers in int64"):
        rcpolar.codec._indices(values, "v")


def test_decoding_in_a_workspace_gives_the_same_bytes():
    # LLRs in the workspace's tree half, a last chunk shorter than the
    # buffer, and a buffer left dirty by a decode of other words: decisions
    # and true-path leaves equal those of a decode that allocates.
    code = RcpCode(n0=16, info_set=[4, 6, 7, 10, 11, 12, 13, 14, 15],
                   puncture_set=[2, 5], rep_vector=[7, 10, 4, 7, 15, 12, 6])
    rng = np.random.default_rng(21)
    buffer = rcpolar.codec.decode_workspace(code, 40)[0]
    assert buffer.size == (code.n0 + max(code.n0, code.n)) * 40
    for rows in (40, 40, 13):
        llr = rng.normal(0.5, 1.5, size=(rows, code.n))
        llr[:, 0] = 0.0
        bits = rng.integers(0, 2, size=(rows, code.k), dtype=np.int8)
        want = sc_decode(llr, code), sc_decode(llr, code, sent=bits)
        for sent, expected in zip((None, bits), want):
            _, _, view, _ = rcpolar.codec.decode_workspace(code, rows, buffer)
            view[:] = llr
            got = sc_decode(view, code, sent=sent, workspace=buffer)
            assert got.tobytes() == expected.tobytes()
        fails = rcpolar.codec.round_failures(llr, code, (15, 18, 21), bits)
        view[:] = llr
        assert np.array_equal(fails, rcpolar.codec.round_failures(
            view, code, (15, 18, 21), bits, workspace=buffer))


def test_workspace_rejects_short_buffers_and_llrs_in_its_channel_level():
    code = RcpCode(n0=8, info_set=[3, 5, 6, 7], puncture_set=[1],
                   rep_vector=[5, 6, 5])
    buffer, chan, llrs, tree = rcpolar.codec.decode_workspace(code, 4)
    assert (chan.shape, llrs.shape, tree.shape) == ((8, 4), (4, 10), (8, 4))
    assert np.shares_memory(llrs, tree) and not np.shares_memory(llrs, chan)
    for bad in (buffer[:-1], buffer.astype(np.float32), buffer[::2],
                buffer.reshape(2, -1), list(buffer)):
        with pytest.raises(ValueError, match="workspace"):
            rcpolar.codec.decode_workspace(code, 4, bad)
    with pytest.raises(ValueError, match="channel level"):
        sc_decode(buffer[:40].reshape(4, 10), code, workspace=buffer)
