"""Independent reference implementations used to cross-check the library,
and the golden-vector file format of the encoder regression tests.

The references are deliberately written the slow, obvious way (dense matrix
algebra, exhaustive enumeration, direct sampling, step-by-step loops) and
share no code with the implementations under test, except the GA check
update, the error-probability function and the SC check-node update that a
bitwise comparison needs, and the encoder, channel and one-round decoder
that the per-trial protocol reference runs (each is checked against its own
reference elsewhere).
"""

import heapq
import json
from dataclasses import dataclass

import numpy as np

from rcpolar.channel import LLR_CLAMP, noise_stream, transmit
from rcpolar.codec import (_check_node, code_from_dict, code_to_dict,
                           rcp_encode, sc_decode)
from rcpolar.reliability import (ReliabilityTable, check_mean_update,
                                 pe_from_mean)


def dense_generator(n0: int) -> np.ndarray:
    """Generator matrix as the n-fold Kronecker power of [[1,0],[1,1]]."""
    g = np.array([[1]], dtype=np.int64)
    kernel = np.array([[1, 0], [1, 1]], dtype=np.int64)
    while g.shape[0] < n0:
        g = np.kron(g, kernel)
    return g


def encode_dense(u: np.ndarray) -> np.ndarray:
    """Codeword via explicit matrix multiplication over GF(2); ``u`` is one
    word (n0,) or a batch of words (B, n0)."""
    return (u @ dense_generator(u.shape[-1])) % 2


def bit_reverse(i: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``i``."""
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def f_reference(a, b):
    """Check-node combination straight from the tanh product."""
    t = np.tanh(np.asarray(a) / 2.0) * np.tanh(np.asarray(b) / 2.0)
    return 2.0 * np.arctanh(np.clip(t, -1 + 1e-16, 1 - 1e-16))


def mc_density_evolution(sigma: float, n0: int, samples: int,
                         punctured=(), seed: int = 1) -> np.ndarray:
    """Per-input-bit error probabilities by sampled density evolution.

    Draws raw-channel LLRs for the all-zero codeword (punctured uses carry
    LLR 0), pushes them through exact check/variable updates with the true
    (all-zero) partial sums, and counts the sign of each decision variable.
    LLRs exactly at zero count as half an error.
    """
    rng = np.random.default_rng(seed)
    mean = 2.0 / sigma ** 2
    err = np.zeros(n0)
    done = 0
    while done < samples:
        batch = min(200_000, samples - done)
        llr = rng.normal(mean, np.sqrt(2.0 * mean), size=(batch, n0))
        if len(punctured):
            llr[:, list(punctured)] = 0.0

        leaves = []

        def walk(block):
            width = block.shape[1]
            if width == 1:
                leaves.append(block[:, 0])
                return
            half = width // 2
            walk(f_reference(block[:, :half], block[:, half:]))
            walk(block[:, :half] + block[:, half:])

        walk(llr)
        err += np.array([np.sum(x < 0) + 0.5 * np.sum(x == 0) for x in leaves])
        done += batch
    return err / done


def ga_reference(channel_means) -> ReliabilityTable:
    """Evolve per-use channel LLR means through the polarization transform,
    position by position: the bit-for-bit reference of
    ``reliability.ga_evolve``, and GA for arbitrary per-use means.

    Parameters
    ----------
    channel_means : array-like, shape (N0,) or (M, N0)
        Gaussian LLR mean of every channel use, in codeword order; punctured
        positions carry 0.  N0 must be a power of two.  A 2-D array stacks M
        independent mother codes of the same length; each row evolves exactly
        as it would on its own.

    Returns
    -------
    ReliabilityTable
        Means and error probabilities of the N0 synthesized channels, indexed
        in input-bit order: index i is the channel seen by bit u_i.  Arrays
        have the shape of ``channel_means``.

    The recursion pairs use j with use j + block/2 inside each block; the
    check-type output feeds the first half of the bit indices and the
    variable-type output (means add) the second half, matching the codec's
    natural-order transform.  Each stage evolves every row at once, on
    contiguous copies of the two half-blocks.
    """
    means = np.array(channel_means, dtype=float)
    if means.ndim not in (1, 2):
        raise ValueError(f"need a 1-D or 2-D array of means, got {means.ndim}-D")
    n0 = means.shape[-1]
    if n0 < 1 or (n0 & (n0 - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n0}")
    if not np.all(means >= 0):
        raise ValueError("channel means must be nonnegative (NaN is rejected)")
    n_rows = means.size // n0
    work = means
    half = n0
    while half > 1:
        half >>= 1
        pairs = work.reshape(n_rows, n0 // (2 * half), 2, half)
        upper = np.ascontiguousarray(pairs[:, :, 0])
        lower = np.ascontiguousarray(pairs[:, :, 1])
        work = np.empty_like(pairs)
        work[:, :, 0] = check_mean_update(upper, lower)
        work[:, :, 1] = upper + lower
    work = work.reshape(means.shape)
    return ReliabilityTable(means=work, pe=pe_from_mean(work))


def posterior_decision_llr(chan_llrs, index: int, prefix) -> float:
    """Exact sequential decision LLR at one input bit given earlier decisions.

    Marginalizes over every completion of the later input bits (the
    sequential decision metric treats them all as unconstrained), scoring
    each codeword by the channel LLRs.
    """
    n0 = len(chan_llrs)
    free = list(range(index + 1, n0))
    logp = {0: [], 1: []}
    for bit in (0, 1):
        for pattern in range(1 << len(free)):
            u = np.zeros(n0, dtype=np.int64)
            u[: index] = prefix
            u[index] = bit
            for j, pos in enumerate(free):
                u[pos] = (pattern >> j) & 1
            x = encode_dense(u)
            logp[bit].append(np.sum((1 - 2 * x) * np.asarray(chan_llrs) / 2.0))
    a = np.logaddexp.reduce(logp[0])
    b = np.logaddexp.reduce(logp[1])
    return float(a - b)


def throughput_reference(k: int, lengths, blers) -> float:
    """Throughput from delivered/consumed expectations, written longhand."""
    lengths = list(lengths)
    blers = list(blers)
    chain = [1.0] + blers
    delivered = k * (1.0 - chain[-1])
    consumed = 0.0
    for t in range(1, len(chain)):
        consumed += lengths[t - 1] * (chain[t - 1] - chain[t])
    consumed += lengths[-1] * chain[-1]
    return delivered / consumed


def scan_reference(k: int, m: int, e: np.ndarray, s_sorted: list,
                   n_lo: int) -> tuple:
    """One greedy design round for one m, one insertion segment at a time.

    Best single length to add to ``s_sorted``, maximizing the throughput.
    ``e[j]`` is the block error rate of length m + j.  Candidates are all
    lengths in [n_lo, m + len(e) - 1] not already chosen; ties prefer the
    smaller length.  Returns (best_n, best_rho).
    """
    q = m + e.size - 1
    n_arr = np.arange(n_lo, q + 1)
    e_n = e[n_arr - m]
    rho = np.full(n_arr.size, -np.inf)

    s = np.asarray(s_sorted, dtype=np.int64)
    e_s = e[s - m] if s.size else np.array([])
    prev_e = np.concatenate([[1.0], e_s[:-1]]) if s.size else np.array([])
    lam_s = float(np.dot(s, prev_e - e_s)) if s.size else 0.0

    # Candidates falling between consecutive chosen lengths share the same
    # incremental form of the denominator.
    seg = np.searchsorted(s, n_arr, side="left")
    for j in range(s.size + 1):
        mask = seg == j
        if j < s.size:
            mask &= n_arr != s[j]
        if not mask.any():
            continue
        n_j = n_arr[mask].astype(float)
        e_j = e_n[mask]
        e_prev = 1.0 if j == 0 else e_s[j - 1]
        if j < s.size:
            nxt = float(s[j])
            e_nxt = e_s[j]
            lam = (lam_s - nxt * (e_prev - e_nxt)
                   + n_j * (e_prev - e_j) + nxt * (e_j - e_nxt))
            tail_e = e_s[-1]
            rho[mask] = k * (1.0 - tail_e) / (lam + float(s[-1]) * tail_e)
        else:
            lam = lam_s + n_j * (e_prev - e_j)
            rho[mask] = k * (1.0 - e_j) / (lam + n_j * e_j)

    best = int(np.argmax(rho))
    return int(n_arr[best]), float(rho[best])


def repetition_plan_reference(info_set, base_means, n_minus_m: int,
                              channel_mean: float):
    """The greedy repetition assignment as a step-by-step lazy-heap loop.

    Each step takes the channel of largest pe (ties toward the smaller
    channel index), adds ``channel_mean`` to its mean and updates the
    union-bound sum as ``(sum - pe_old) + pe_new``.  Returns
    ``(r, bler_trace, updated_means, updated_pe)``.
    """
    info_set = np.asarray(info_set, dtype=np.int64)
    means = np.array(base_means, dtype=float)
    pe = pe_from_mean(means)
    bler_trace = np.empty(n_minus_m + 1)
    bler_trace[0] = pe.sum()
    r = np.empty(n_minus_m, dtype=np.int64)
    # Lazy max-heap on (pe, channel index); stale entries are skipped by
    # comparing against the slot's current version.
    version = np.zeros(info_set.size, dtype=np.int64)
    heap = [(-pe[j], int(info_set[j]), j, 0) for j in range(info_set.size)]
    heapq.heapify(heap)
    for step in range(n_minus_m):
        while True:
            neg_pe, chan_idx, slot, ver = heap[0]
            if ver == version[slot]:
                break
            heapq.heappop(heap)
        r[step] = chan_idx
        means[slot] += channel_mean
        new_pe = float(pe_from_mean(means[slot]))
        bler_trace[step + 1] = bler_trace[step] - pe[slot] + new_pe
        pe[slot] = new_pe
        version[slot] += 1
        heapq.heapreplace(heap, (-new_pe, chan_idx, slot, version[slot]))
    return r, bler_trace, means, pe


def _check_node_reference(a, b):
    """Check-node combination in the stable log1p form of the tanh rule."""
    return (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b))))


def sc_decode_reference(llrs, code):
    """Recursive SC decoder over (B, width) blocks, one node per call.

    Takes a (B, n) batch laid out like ``rcpolar.codec.sc_decode`` input and
    returns ``(decoded (B, k), leaf LLRs (B, n0))``.  Punctured positions
    are LLR 0; repetition LLRs join at the decision site of their input bit,
    after the leaf LLR is recorded.
    """
    llrs = np.asarray(llrs, dtype=float)
    b = llrs.shape[0]
    chan = np.zeros((b, code.n0))
    chan[:, code.transmitted_positions] = llrs[:, : code.m]
    rep_sum = np.zeros((b, code.n0))
    if code.rep_vector.size:
        np.add.at(rep_sum, (slice(None), code.rep_vector), llrs[:, code.m:])
    info = np.zeros(code.n0, dtype=bool)
    info[code.info_set] = True

    u_hat = np.zeros((b, code.n0), dtype=np.int8)
    leaves = np.empty((b, code.n0))
    pos = 0

    def descend(block):
        nonlocal pos
        width = block.shape[1]
        if width == 1:
            i = pos
            pos += 1
            leaves[:, i] = block[:, 0]
            if info[i]:  # frozen bits stay 0
                u_hat[:, i] = (block[:, 0] + rep_sum[:, i]) < 0
            return u_hat[:, i:i + 1].copy()
        half = width // 2
        la, lb = block[:, :half], block[:, half:]
        x_left = descend(_check_node_reference(la, lb))
        x_right = descend(lb + (1.0 - 2.0 * x_left) * la)
        return np.concatenate([x_left ^ x_right, x_right], axis=1)

    descend(chan)
    return u_hat[:, code.info_set], leaves


def true_path_leaves_reference(llrs, code, bits) -> np.ndarray:
    """The (B, k) leaf LLRs that :func:`sc_decode` computes on the true
    trajectory of each row, the one on which every decision before a bit
    equals the block sent, ``bits`` (B, k).

    Level by level from the channel word: the sent word re-encoded, with
    one encoder stage undone per level, gives every left child's partial
    sums; then one f-update and one g-update (``a*s + b``, as in
    :func:`sc_decode`) over all nodes of the level at once.  Every leaf is
    computed, dead ones too, in O(depth) numpy calls.  On a row that
    :func:`sc_decode` decodes right these are its leaf LLRs, byte for byte;
    on every row they are what it returns given ``sent=bits``.
    """
    n0, b = code.n0, len(llrs)
    x = np.zeros((n0, b), dtype=np.int8)
    x[code.info_set] = bits.T
    stages = range(n0.bit_length() - 1)
    for s in stages:
        word = x.reshape(n0 >> (s + 1), 2, -1)
        word[:, 0] ^= word[:, 1]
    level = np.zeros((n0, b))
    level[code.transmitted_positions] = llrs[:, : code.m].T
    child, pair = np.empty((n0, b)), np.empty((n0, b))
    sums = np.empty((n0 // 2, b))
    for s in reversed(stages):
        shape = (n0 >> (s + 1), 2, -1)
        word = x.reshape(shape)
        word[:, 0] ^= word[:, 1]  # each 2^s block now holds its own word
        parent, out = level.reshape(shape), child.reshape(shape)
        _check_node(parent, out[:, 0], pair.reshape(shape))
        left = sums.reshape(shape[0], -1)
        np.multiply(word[:, 0], -2.0, out=left)
        np.add(left, 1.0, out=left)
        np.multiply(parent[:, 0], left, out=out[:, 1])
        np.add(out[:, 1], parent[:, 1], out=out[:, 1])
        level, child = child, level
    return level[code.info_set].T


@dataclass(frozen=True)
class TrialOutcome:
    """One protocol run: the first round that decodes (1-based, None if
    none does), the bits sent up to it (all of them if none does), and per
    round t whether decoding with the bits of rounds 1..t failed."""

    success_round: int | None
    bits_sent: int
    fail_flags: tuple


def transmit_reference(words, noise, params):
    """BPSK LLRs as :func:`rcpolar.channel.transmit` first computed them:
    y = (1 - 2w) + sigma*noise, then 2*y/sigma^2 clamped to +/-LLR_CLAMP."""
    y = 1.0 - 2.0 * np.asarray(words)
    np.add(y, params.sigma * noise, out=y)
    llr = np.multiply(2.0, y, out=np.empty(np.shape(y)))
    llr /= params.noise_var
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP, out=llr)


def run_trial(code, lengths, info_bits, params, rng, channel_fn=None,
              trial_index=0) -> TrialOutcome:
    """The protocol for one block, one round at a time: ``code``'s word is
    sent over the AWGN channel with noise from ``rng``, a Generator or a
    ``(base_seed, index)`` pair for :func:`noise_stream`, or
    through a campaign's batched hook as a batch of one row,
    ``channel_fn(tx[None], params, np.array([trial_index]))[0]``, and round
    t is decoded on its own from the first ``lengths[t]`` LLRs.  Every
    round is decoded, also after the first success."""
    if not lengths or any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"lengths must be strictly increasing, got {lengths}")
    info_bits = np.asarray(info_bits, dtype=np.int8)
    tx = rcp_encode(info_bits, code)
    if channel_fn is None:
        if not isinstance(rng, np.random.Generator):
            rng = noise_stream(rng)
        llr = transmit(tx, rng.standard_normal(tx.shape), params)
    else:
        llr = np.asarray(channel_fn(tx[None], params,
                                    np.array([trial_index]))[0])
    fail_flags = tuple(
        not np.array_equal(sc_decode(llr[:n], code.prefix(n)), info_bits)
        for n in lengths)
    first = fail_flags.index(False) + 1 if False in fail_flags else None
    return TrialOutcome(success_round=first,
                        bits_sent=lengths[first - 1 if first else -1],
                        fail_flags=fail_flags)


def campaign_statistics_reference(fail_flags):
    """Marginal failure rates, first-success rates and nesting violations
    from per-trial fail flags, counted trial by trial.

    ``fail_flags[i][t]`` tells whether trial i failed to decode with the
    bits of rounds 1..t+1.  A nesting violation is a trial that decodes at
    some round and fails at a later one.
    """
    trials, rounds = len(fail_flags), len(fail_flags[0])
    fails = [0] * rounds
    first = [0] * rounds
    violations = 0
    for flags in fail_flags:
        for t, failed in enumerate(flags):
            fails[t] += int(failed)
        decoded = [t for t, failed in enumerate(flags) if not failed]
        if decoded:
            first[decoded[0]] += 1
            violations += any(flags[decoded[0]:])
    return (tuple(c / trials for c in fails), tuple(c / trials for c in first),
            violations)


# Golden-vector file format: one JSON object per line, hex-packed bits.

def bits_to_hex(bits) -> str:
    """Pack a bit vector MSB-first into a fixed-width hex string."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.size == 0:
        return ""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return format(value, f"0{(bits.size + 3) // 4}x")


def hex_to_bits(hexstr: str, length: int) -> np.ndarray:
    """Inverse of :func:`bits_to_hex` given the original bit count."""
    if length == 0:
        return np.array([], dtype=np.int8)
    value = int(hexstr, 16)
    return np.array([(value >> (length - 1 - i)) & 1 for i in range(length)],
                    dtype=np.int8)


def write_golden_vectors(fp, records) -> None:
    """Write (code, info_bits) pairs as JSON lines for regression checks."""
    for code, info_bits in records:
        row = {
            "spec": code_to_dict(code),
            "info_bits_hex": bits_to_hex(info_bits),
            "codeword_hex": bits_to_hex(rcp_encode(info_bits, code)),
        }
        fp.write(json.dumps(row, separators=(",", ":")) + "\n")


def check_golden_vectors(fp):
    """Yield (line_number, ok) for every stored vector re-encoded and compared."""
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        code = code_from_dict(row["spec"])
        info = hex_to_bits(row["info_bits_hex"], code.k)
        expect = hex_to_bits(row["codeword_hex"], code.n)
        yield lineno, bool(np.array_equal(rcp_encode(info, code), expect))


def repetition_sums_reference(llrs, code):
    """Repeated bits and their repetition LLRs summed in transmit order,
    ``(indices, sums)`` as ``rcpolar.codec._repetition_sums`` returns them,
    computed independently of its loop: per occurrence rank r, one masked
    add of every bit's (r+1)-th repetition, so each bit's adds still come
    in transmit order."""
    index, slot, counts = np.unique(code.rep_vector, return_inverse=True,
                                    return_counts=True)
    order = np.argsort(slot, kind="stable")
    rank = np.empty_like(slot)
    rank[order] = np.arange(slot.size) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
    reps = llrs[:, code.m:code.n].T
    sums = np.zeros((index.size, llrs.shape[0]))
    for r in range(counts.max(initial=0)):
        at = rank == r
        sums[slot[at]] += reps[at]
    return index, sums
