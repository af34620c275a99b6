"""Construction of (n, k, m) length-adjustable codes.

Builds the punctured mother code, selects the information set, and assigns
the n - m repetition slots greedily: each slot is tied to the currently least
reliable information channel, whose Gaussian LLR mean then grows by the raw
channel mean (the Gaussian image of convolving the two LLR densities).
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .channel import LlrDistribution
from .codec import PolarCodeSpec, RcpCode
from .reliability import (ReliabilityTable, ga_evolve, pe_from_mean,
                          puncture_pattern, select_info_set)

# Union-bound block error estimates are plain floats in [0, 1].
BlerEstimate = float

# Channel means per GA pass in mother_codes (32 values of m at n0 = 512, 8 at
# 2048): about 1.4 MiB of stacked tables and GA temporaries at a time.
_GA_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class RepetitionPlan:
    """Greedy repetition assignment and the resulting per-channel state.

    ``r[j]`` is the information-channel index receiving the j-th repetition;
    ``updated_means``/``updated_pe`` are aligned with ``info_set`` and reflect
    all assignments.  ``bler_trace[j]`` is the union-bound sum after j
    assignments (length len(r) + 1), so nested shorter plans can be read off
    without re-running the greedy loop.
    """

    info_set: np.ndarray
    r: np.ndarray
    updated_means: np.ndarray
    updated_pe: np.ndarray
    bler_trace: np.ndarray


def build_repetition_plan(info_set, base_means, n_minus_m: int,
                          channel: LlrDistribution, counters=None) -> RepetitionPlan:
    """Assign ``n_minus_m`` repetition slots to information channels.

    Parameters
    ----------
    info_set : array-like
        Information-channel indices, strictly increasing.
    base_means : array-like
        Gaussian LLR means of those channels before any repetition.
    n_minus_m : int
        Number of repetition slots to assign.
    channel : LlrDistribution
        Raw-channel model; each assignment adds ``channel.mean`` to the
        chosen channel's mean.
    counters : dict, optional
        "convolutions" is incremented once per assignment.

    Each step assigns a slot to the channel of largest error probability;
    ties break toward the smaller channel index, making the plan
    deterministic.  Plans are prefix-nested: the plan for fewer slots is the
    prefix of the plan for more.

    The greedy loop is a k-way merge of the per-channel sequences
    pe(mean_j + t c), t = 0, 1, ..., which are nonincreasing in t (up to
    last-ulp rises, which the sort key absorbs), so the plan is read off one
    sort: the first ``n_minus_m`` of all (channel, t)
    steps ordered by (-pe, channel index, t).  Means are built by the same
    sequential adds as the loop and the union-bound trace by the same
    ``(sum - pe_old) + pe_new`` steps, so the plan is bit-identical to it.
    """
    info_set = np.asarray(info_set, dtype=np.int64)
    base = np.asarray(base_means, dtype=float)
    if base.shape != info_set.shape or base.ndim != 1:
        raise ValueError("base_means must align with info_set")
    if n_minus_m < 0:
        raise ValueError("repetition count must be nonnegative")
    if n_minus_m > 0 and info_set.size == 0:
        raise ValueError("cannot assign repetitions without information channels")
    if np.any(np.diff(info_set) <= 0):
        raise ValueError("info_set must be strictly increasing")
    if not np.all(base >= 0):
        raise ValueError("LLR means must be nonnegative (NaN is rejected)")

    reps = int(n_minus_m)
    depth = _water_fill_depths(base, reps, channel.mean)
    while True:
        means, step_pe, key, start = _channel_steps(base, channel.mean, depth)
        left_out = start + depth
        built = np.ones(means.size, dtype=bool)
        built[left_out] = False
        candidates = np.flatnonzero(built)
        picks = candidates[np.argsort(-key[candidates], kind="stable")[:reps]]
        slots = np.searchsorted(start, picks, side="right") - 1
        taken = np.bincount(slots, minlength=base.size)
        if reps == 0:
            break
        # A channel whose first left-out step sorts before the last pick was
        # built too shallow (pe ties, e.g. pe underflowing to 0): the first
        # such channel in sort order may take every pick that sorts after
        # that step.  Every other channel keeps the steps it was picked for.
        lo_key, last_key, last_slot = key[left_out], key[picks[-1]], slots[-1]
        early = np.flatnonzero((lo_key > last_key)
                               | ((lo_key == last_key)
                                  & (np.arange(base.size) < last_slot)))
        if early.size == 0:
            break
        late = early[np.argmax(lo_key[early])]
        pick_key = key[picks]
        before = np.count_nonzero((pick_key > lo_key[late])
                                  | ((pick_key == lo_key[late])
                                     & (slots <= late)))
        depth = taken
        depth[late] += reps - before

    trace_terms = np.empty(2 * reps + 1)
    trace_terms[0] = step_pe[start].sum()
    trace_terms[1::2] = -step_pe[picks]
    trace_terms[2::2] = step_pe[picks + 1]
    if counters is not None:
        counters["convolutions"] = counters.get("convolutions", 0) + reps
    return RepetitionPlan(info_set=info_set, r=info_set[slots],
                          updated_means=means[start + taken],
                          updated_pe=step_pe[start + taken],
                          bler_trace=np.cumsum(trace_terms)[::2])


def _water_fill_depths(base: np.ndarray, reps: int, c: float) -> np.ndarray:
    """Steps to build per channel: the water-filling count of assignments in
    mean space (the greedy prefers the smallest current mean) plus one.

    Error-probability ties, such as pe underflowing to 0, can make the greedy
    go deeper on a channel; build_repetition_plan checks for that.
    """
    k = base.size
    depth = np.zeros(k, dtype=np.int64)
    if reps == 0:
        return depth
    if 0.0 < c < np.inf:
        ranked = np.sort(base)
        levels = (reps * c + np.cumsum(ranked)) / np.arange(1, k + 1)
        level = levels[max(np.count_nonzero(ranked < levels), 1) - 1]
        with np.errstate(invalid="ignore", over="ignore"):
            steps = (level - base) / c
            # NaN only from infinite means, which need no steps
            depth = np.where(steps > -1.0, np.minimum(np.ceil(steps) + 1, reps),
                             0).astype(np.int64)
    # A mean that c does not move (c = 0, or c below its last ulp) leaves
    # the fill short; spread the rest evenly.
    short = reps - int(depth.sum())
    if short > 0:
        depth += -(-short // k)
    return depth


# Channels built with at most this many steps share one block of the means
# grid; deeper ones are grouped by power-of-two width, so padding stays
# below 2x when pe ties send hundreds of repetitions to one channel.
_MIN_STEP_WIDTH = 16


def _channel_steps(base: np.ndarray, c: float, depth: np.ndarray):
    """Means, pe and sort key of channel j after t = 0..depth[j]
    assignments, flat in (channel, t) order, and each channel's offset.

    The means use the same sequential adds as ``means[slot] += c`` in a
    greedy loop.  The key is the running minimum of pe along t, so that
    sorting equals the greedy merge even where pe is not monotone in the
    last ulp.
    """
    counts = depth + 1
    start = np.cumsum(counts) - counts
    means = np.empty(int(counts.sum()))
    width = np.maximum(_MIN_STEP_WIDTH, 1 << np.frexp(counts - 1)[1])
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        grid = np.full((rows.size, w), c)
        grid[:, 0] = base[rows]
        np.cumsum(grid, axis=1, out=grid)
        t = np.arange(w)
        keep = t < counts[rows, None]
        means[(start[rows, None] + t)[keep]] = grid[keep]
    pe = pe_from_mean(means)
    key = pe.copy()
    same_channel = np.ones(max(means.size - 1, 0), dtype=bool)
    same_channel[start[1:] - 1] = False
    while True:
        rise = np.flatnonzero(same_channel & (key[1:] > key[:-1]))
        if rise.size == 0:
            return means, pe, key, start
        key[rise + 1] = key[rise]


def evaluate_bler(code: RcpCode, plan: RepetitionPlan) -> BlerEstimate:
    """Union-bound block error estimate: sum of final per-channel pe, clipped to 1."""
    if plan.r.size != code.rep_vector.size or not np.array_equal(plan.r, code.rep_vector):
        raise ValueError("plan does not match the code's repetition vector")
    return float(min(1.0, plan.updated_pe.sum()))


def mother_codes(k: int, ms, n: int, channel: LlrDistribution,
                 counters=None):
    """The punctured mother codes behind every (n', k, m) code with n' <= n,
    for each m in ``ms``, yielded in order as ``(spec, table, plan)``.

    ``spec`` is the mother-code spec, ``table`` the GA table of the punctured
    mother code, and ``plan`` the greedy repetition plan for n - m slots.
    The mother length is the smallest power of two >= m; puncturing is
    quasi-uniform; the information set holds the k most reliable synthesized
    channels.  Shorter codes are prefixes of the plan (``plan.bler_trace``,
    ``RcpCode.prefix``).  Consecutive m with the same mother length share one
    batched GA pass.
    """
    ms = [int(m) for m in ms]
    for m in ms:
        if not 1 <= k <= m <= n:
            raise ValueError(f"need 1 <= k <= m <= n, got k={k}, m={m}, n={n}")
    for n0, same_n0 in groupby(ms, key=_mother_length):
        same_n0 = list(same_n0)
        rows = max(1, _GA_BLOCK_ELEMENTS // n0)
        for block in (same_n0[i:i + rows] for i in range(0, len(same_n0), rows)):
            yield from _mother_code_block(k, block, n0, n, channel, counters)


def _mother_code_block(k, ms, n0, n, channel, counters):
    """mother_codes for values of m sharing mother length n0, one GA pass."""
    puncts = [puncture_pattern(n0, m) for m in ms]
    means = np.full((len(ms), n0), channel.mean)
    for row, punct in zip(means, puncts):
        row[punct] = 0.0
    tables = ga_evolve(means)
    if counters is not None:
        counters["ga_updates"] = counters.get("ga_updates", 0) \
            + len(ms) * n0 * int(np.log2(n0))
    for m, punct, row_means, row_pe in zip(ms, puncts, tables.means,
                                           tables.pe):
        table = ReliabilityTable(means=row_means, pe=row_pe)
        info_set = select_info_set(table, k)
        plan = build_repetition_plan(info_set, row_means[info_set], n - m,
                                     channel, counters=counters)
        spec = PolarCodeSpec(n0=n0, info_set=info_set, puncture_set=punct)
        yield spec, table, plan


def _mother_length(m: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(m))))


def mother_code(k: int, m: int, n: int, channel: LlrDistribution,
                counters=None):
    """:func:`mother_codes` for one m: ``(spec, table, plan)``."""
    return next(mother_codes(k, [m], n, channel, counters=counters))


def construct_rcp(n: int, k: int, m: int, channel: LlrDistribution):
    """Construct an (n, k, m) code over the given channel model.

    Returns ``(code, plan, bler_estimate)`` for the code built on
    :func:`mother_code`, with repetitions from its greedy plan.
    """
    spec, _, plan = mother_code(k, m, n, channel)
    code = RcpCode(spec=spec, rep_vector=plan.r)
    return code, plan, evaluate_bler(code, plan)
