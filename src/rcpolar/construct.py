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

# Channel means per GA pass in mother_codes (32 values of m at n0 = 512, 8 at
# 2048): the GA of such a block peaks at about 0.7 MiB (traced).
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


def build_repetition_plan(info_set, base_means, n_minus_m,
                          channel: LlrDistribution):
    """Assign repetition slots to information channels, for one mother code
    or for M stacked ones.

    Parameters
    ----------
    info_set : array-like, shape (k,) or (M, k)
        Information-channel indices, strictly increasing along each row.
    base_means : array-like
        Gaussian LLR means of those channels before any repetition, the
        shape of ``info_set``.
    n_minus_m : int, or array-like of shape (M,)
        Number of repetition slots to assign (per row).
    channel : LlrDistribution
        Raw-channel model; each assignment adds ``channel.mean`` to the
        chosen channel's mean.

    Returns
    -------
    RepetitionPlan, or a list of M plans for a 2-D ``info_set``; every row's
    plan is the one its row would get on its own.

    Each step assigns a slot to the channel of largest error probability;
    ties break toward the smaller channel index, making the plan
    deterministic.  Plans are prefix-nested: the plan for fewer slots is the
    prefix of the plan for more.

    The greedy loop is a k-way merge of the per-channel sequences
    pe(mean_j + t c), t = 0, 1, ..., which are nonincreasing in t (up to
    last-ulp rises, which the sort key absorbs), so a plan is read off one
    sort: the first ``n_minus_m`` of its row's (channel, t) steps ordered by
    (-pe, channel index, t).  All rows share one flat step array, one
    ``pe_from_mean`` call and one row-wise stable sort; only rows whose
    water-filling depths were too shallow (pe ties) are built again.  Means
    are built by the same sequential adds as the loop and the union-bound
    trace by the same ``(sum - pe_old) + pe_new`` steps, so every plan is
    bit-identical to it.
    """
    info = np.asarray(info_set, dtype=np.int64)
    base = np.asarray(base_means, dtype=float)
    reps = np.asarray(n_minus_m, dtype=np.int64)
    if base.shape != info.shape or base.ndim not in (1, 2):
        raise ValueError("base_means must align with info_set")
    if reps.shape != info.shape[:-1]:
        raise ValueError("need one repetition count per row of info_set")
    if np.any(reps < 0):
        raise ValueError("repetition count must be nonnegative")
    k = info.shape[-1]
    if k == 0 and np.any(reps > 0):
        raise ValueError("cannot assign repetitions without information channels")
    if np.any(np.diff(info, axis=-1) <= 0):
        raise ValueError("info_set must be strictly increasing")
    if not np.all(base >= 0):
        raise ValueError("LLR means must be nonnegative (NaN is rejected)")

    reps = reps.ravel()
    info, base = info.reshape(reps.size, k), base.reshape(reps.size, k)
    c = channel.mean
    depth = _water_fill_depths(base, reps, c)
    plans = [None] * reps.size
    todo = np.arange(reps.size)
    while todo.size:
        rows, n_reps, row_depth = todo.size, reps[todo], depth[todo]
        means, step_pe, key, start = _channel_steps(base[todo].ravel(), c,
                                                    row_depth.ravel())
        left_out = start + row_depth.ravel()
        picks, pick_row, rank = _sorted_picks(key, left_out, row_depth, n_reps)
        chan = np.searchsorted(start, picks, side="right") - 1
        slots = chan - pick_row * k
        taken = np.bincount(chan, minlength=rows * k).reshape(rows, k)
        # A channel whose first left-out step sorts before its row's last
        # pick was built too shallow (pe ties, e.g. pe underflowing to 0):
        # the first such channel in sort order may take every pick that
        # sorts after that step.  Every other channel keeps the steps it was
        # picked for.
        lo_key = key[left_out].reshape(rows, k)
        last = np.cumsum(n_reps)[n_reps > 0] - 1
        last_key = np.full(rows, np.inf)
        last_slot = np.zeros(rows, dtype=np.int64)
        last_key[n_reps > 0] = key[picks[last]]
        last_slot[n_reps > 0] = slots[last]
        early = (lo_key > last_key[:, None]) \
            | ((lo_key == last_key[:, None])
               & (np.arange(k) < last_slot[:, None]))
        redo = early.any(axis=1)
        if redo.any():
            late_key = np.where(early, lo_key, -np.inf)
            late = np.argmax(late_key, axis=1)
            late_key = late_key[np.arange(rows), late][pick_row]
            pick_key = key[picks]
            before = np.bincount(
                pick_row[(pick_key > late_key)
                         | ((pick_key == late_key) & (slots <= late[pick_row]))],
                minlength=rows)
            deeper = taken[redo]
            deeper[np.arange(deeper.shape[0]), late[redo]] \
                += (n_reps - before)[redo]
            depth[todo[redo]] = deeper

        at = start.reshape(rows, k) + taken
        upd_means, upd_pe = means[at], step_pe[at]
        terms = np.zeros((rows, 2 * int(n_reps.max(initial=0)) + 1))
        terms[:, 0] = step_pe[start].reshape(rows, k).sum(axis=1)
        terms[pick_row, 2 * rank + 1] = -step_pe[picks]
        terms[pick_row, 2 * rank + 2] = step_pe[picks + 1]
        trace = np.cumsum(terms, axis=1, out=terms)[:, ::2]
        r = info[todo[pick_row], slots]
        first = np.cumsum(n_reps) - n_reps
        for i in np.flatnonzero(~redo):
            plans[todo[i]] = RepetitionPlan(
                info_set=info[todo[i]], r=r[first[i]:first[i] + n_reps[i]],
                updated_means=upd_means[i], updated_pe=upd_pe[i],
                bler_trace=trace[i, :n_reps[i] + 1])
        todo = todo[redo]
    return plans if np.ndim(info_set) == 2 else plans[0]


def _water_fill_depths(base: np.ndarray, reps: np.ndarray,
                       c: float) -> np.ndarray:
    """Steps to build per channel, per row of ``base`` with ``reps[i]``
    repetitions: the water-filling count of assignments in mean space (the
    greedy prefers the smallest current mean) plus one.

    Error-probability ties, such as pe underflowing to 0, can make the greedy
    go deeper on a channel; build_repetition_plan checks for that.
    """
    rows, k = base.shape
    depth = np.zeros((rows, k), dtype=np.int64)
    if k == 0:
        return depth
    if 0.0 < c < np.inf:
        ranked = np.sort(base, axis=1)
        levels = (reps[:, None] * c + np.cumsum(ranked, axis=1)) \
            / np.arange(1, k + 1)
        filled = np.maximum(np.count_nonzero(ranked < levels, axis=1), 1) - 1
        level = levels[np.arange(rows), filled]
        with np.errstate(invalid="ignore", over="ignore"):
            steps = (level[:, None] - base) / c
            # NaN only from infinite means, which need no steps
            depth = np.where(steps > -1.0,
                             np.minimum(np.ceil(steps) + 1, reps[:, None]),
                             0).astype(np.int64)
    # A mean that c does not move (c = 0, or c below its last ulp) leaves
    # the fill short; spread the rest evenly.
    short = reps - depth.sum(axis=1)
    depth += np.where(short > 0, -(-short // k), 0)[:, None]
    return depth


def _sorted_picks(key: np.ndarray, left_out: np.ndarray, depth: np.ndarray,
                  reps: np.ndarray):
    """Each row's first ``reps[i]`` built steps in (-key, channel, t) order,
    never a channel's last built step: flat step indices, the row of each
    pick and its rank within its row.

    The steps of row i are contiguous in the flat arrays; they are laid out
    in row i of a grid padded with +inf, which one row-wise stable argsort
    orders.
    """
    rows, k = depth.shape
    per_row = depth.sum(axis=1) + k
    row_start = np.cumsum(per_row) - per_row
    step_row = np.repeat(np.arange(rows), per_row)
    neg_key = -key
    neg_key[left_out] = np.inf
    grid = np.full((rows, int(per_row.max(initial=0))), np.inf)
    grid[step_row, np.arange(key.size) - row_start[step_row]] = neg_key
    order = np.argsort(grid, axis=1, kind="stable")
    pick_row = np.repeat(np.arange(rows), reps)
    rank = np.arange(pick_row.size) - (np.cumsum(reps) - reps)[pick_row]
    return row_start[pick_row] + order[pick_row, rank], pick_row, rank


def _channel_steps(base: np.ndarray, c: float, depth: np.ndarray):
    """Means, pe and sort key of channel j after t = 0..depth[j]
    assignments, flat in (channel, t) order, and each channel's offset.
    Channels of stacked rows are flattened row after row, so each row's
    steps are contiguous; all of them go through one ``pe_from_mean`` call.

    The means use the same sequential adds as ``means[slot] += c`` in a
    greedy loop.  The key is the running minimum of pe along t, so that
    sorting equals the greedy merge even where pe is not monotone in the
    last ulp.
    """
    counts = depth + 1
    start = np.cumsum(counts) - counts
    means = np.empty(int(counts.sum()))
    # Channels are grouped by the power of two at or above their step
    # count, so padding stays below 2x when most channels take no step or
    # pe ties send hundreds of repetitions to one channel.
    width = 1 << np.frexp(counts - 1)[1]
    for w in np.unique(width):
        chans = np.flatnonzero(width == w)
        grid = np.full((chans.size, w), c)
        grid[:, 0] = base[chans]
        np.cumsum(grid, axis=1, out=grid)
        t = np.arange(w)
        keep = t < counts[chans, None]
        means[(start[chans, None] + t)[keep]] = grid[keep]
    pe = pe_from_mean(means)
    key = pe.copy()
    same_channel = np.ones(max(means.size - 1, 0), dtype=bool)
    same_channel[start[1:] - 1] = False
    while True:
        rise = np.flatnonzero(same_channel & (key[1:] > key[:-1]))
        if rise.size == 0:
            return means, pe, key, start
        key[rise + 1] = key[rise]


def evaluate_bler(code: RcpCode, plan: RepetitionPlan) -> float:
    """Union-bound block error estimate: sum of final per-channel pe, clipped to 1."""
    if plan.r.size != code.rep_vector.size or not np.array_equal(plan.r, code.rep_vector):
        raise ValueError("plan does not match the code's repetition vector")
    return float(min(1.0, plan.updated_pe.sum()))


def mother_codes(k: int, ms, n: int, channel: LlrDistribution):
    """The punctured mother codes behind every (n', k, m) code with n' <= n,
    for each m in ``ms``, yielded in order as ``(table, plan)``.

    ``table`` is the GA table of the punctured mother code and ``plan`` the
    greedy repetition plan for n - m slots; ``plan.info_set`` is the
    information set.  The mother length is the smallest power of two >= m;
    puncturing is quasi-uniform; the information set holds the k most
    reliable synthesized channels.  Shorter codes are prefixes of the plan
    (``plan.bler_trace``, ``RcpCode.prefix``).  Consecutive m with the same
    mother length share one block of at most ``_GA_BLOCK_ELEMENTS`` channel
    means: one batched GA pass, one row-wise stable argsort for the
    information sets and one :func:`build_repetition_plan` call over the
    block's stacked rows.  :func:`mother_code` turns one of them into a code.
    """
    ms = [int(m) for m in ms]
    for m in ms:
        if not 1 <= k <= m <= n:
            raise ValueError(f"need 1 <= k <= m <= n, got k={k}, m={m}, n={n}")
    for n0, same_n0 in groupby(ms, key=_mother_length):
        same_n0 = list(same_n0)
        rows = max(1, _GA_BLOCK_ELEMENTS // n0)
        for block in (same_n0[i:i + rows] for i in range(0, len(same_n0), rows)):
            yield from _mother_code_block(k, block, n0, n, channel)


def _mother_code_block(k, ms, n0, n, channel):
    """mother_codes for values of m sharing mother length n0: one GA pass,
    one row-wise information-set ranking and one batched plan build."""
    tables = ga_evolve(n0, ms, channel.mean)
    info_sets = select_info_set(tables, k)
    plans = build_repetition_plan(
        info_sets, np.take_along_axis(tables.means, info_sets, axis=1),
        n - np.asarray(ms), channel)
    for row_means, row_pe, plan in zip(tables.means, tables.pe, plans):
        yield ReliabilityTable(means=row_means, pe=row_pe), plan


def _mother_length(m: int) -> int:
    return 1 << max(0, int(np.ceil(np.log2(m))))


def mother_code(k: int, m: int, n: int, channel: LlrDistribution):
    """:func:`mother_codes` for one m, with its mother-code spec:
    ``(spec, table, plan)``."""
    table, plan = next(mother_codes(k, [m], n, channel))
    n0 = _mother_length(m)
    spec = PolarCodeSpec(n0=n0, info_set=plan.info_set,
                         puncture_set=puncture_pattern(n0, m))
    return spec, table, plan


def construct_rcp(n: int, k: int, m: int, channel: LlrDistribution):
    """Construct an (n, k, m) code over the given channel model.

    Returns ``(code, plan, bler_estimate)`` for the code built on
    :func:`mother_code`, with repetitions from its greedy plan.
    """
    spec, _, plan = mother_code(k, m, n, channel)
    code = RcpCode(spec=spec, rep_vector=plan.r)
    return code, plan, evaluate_bler(code, plan)
