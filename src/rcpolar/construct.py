"""Construction of (n, k, m) length-adjustable codes.

Builds the punctured mother code, selects the information set, and assigns
the n - m repetition slots greedily: each slot is tied to the currently least
reliable information channel, whose Gaussian LLR mean then grows by the raw
channel mean (the Gaussian image of convolving the two LLR densities).
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .channel import LlrDistribution
from .codec import PolarCodeSpec, RcpCode
from .reliability import (ga_evolve, pe_from_mean, pe_of_mean, puncture_pattern,
                          select_info_set)

# Union-bound block error estimates are plain floats in [0, 1].
BlerEstimate = float


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
        Information-channel indices (ascending).
    base_means : array-like
        Gaussian LLR means of those channels before any repetition.
    n_minus_m : int
        Number of repetition slots to assign.
    channel : LlrDistribution
        Raw-channel model; each assignment adds ``channel.mean`` to the
        chosen channel's mean.
    counters : dict, optional
        "convolutions" is incremented once per assignment.

    Ties at the maximum error probability break toward the smaller channel
    index, making the plan deterministic.  Plans are prefix-nested: the plan
    for fewer slots is the prefix of the plan for more.
    """
    info_set = np.asarray(info_set, dtype=np.int64)
    means = np.array(base_means, dtype=float)
    if means.size != info_set.size:
        raise ValueError("base_means must align with info_set")
    if n_minus_m < 0:
        raise ValueError("repetition count must be nonnegative")
    if n_minus_m > 0 and info_set.size == 0:
        raise ValueError("cannot assign repetitions without information channels")

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
        means[slot] += channel.mean
        new_pe = pe_of_mean(means[slot])
        bler_trace[step + 1] = bler_trace[step] - pe[slot] + new_pe
        pe[slot] = new_pe
        version[slot] += 1
        heapq.heapreplace(heap, (-new_pe, chan_idx, slot, version[slot]))
        if counters is not None:
            counters["convolutions"] = counters.get("convolutions", 0) + 1

    return RepetitionPlan(info_set=info_set, r=r, updated_means=means,
                          updated_pe=pe, bler_trace=bler_trace)


def evaluate_bler(code: RcpCode, plan: RepetitionPlan) -> BlerEstimate:
    """Union-bound block error estimate: sum of final per-channel pe, clipped to 1."""
    if plan.r.size != code.rep_vector.size or not np.array_equal(plan.r, code.rep_vector):
        raise ValueError("plan does not match the code's repetition vector")
    return float(min(1.0, plan.updated_pe.sum()))


def mother_code(k: int, m: int, n: int, channel: LlrDistribution,
                counters=None):
    """The punctured mother code behind every (n', k, m) code with n' <= n.

    Returns ``(spec, table, plan)``: the mother-code spec, the GA table of
    the punctured mother code, and the greedy repetition plan for n - m
    slots.  The mother length is the smallest power of two >= m; puncturing
    is quasi-uniform; the information set holds the k most reliable
    synthesized channels.  Shorter codes are prefixes of the plan
    (``plan.bler_trace``, ``RcpCode.prefix``).
    """
    if not 1 <= k <= m <= n:
        raise ValueError(f"need 1 <= k <= m <= n, got k={k}, m={m}, n={n}")
    n0 = 1 << max(0, int(np.ceil(np.log2(m))))
    punct = puncture_pattern(n0, m)
    means = np.full(n0, channel.mean)
    means[punct] = 0.0
    table = ga_evolve(means)
    if counters is not None:
        counters["ga_updates"] = counters.get("ga_updates", 0) \
            + n0 * int(np.log2(n0))
    info_set = select_info_set(table, k)
    plan = build_repetition_plan(info_set, table.means[info_set], n - m,
                                 channel, counters=counters)
    spec = PolarCodeSpec(n0=n0, info_set=info_set, puncture_set=punct)
    return spec, table, plan


def construct_rcp(n: int, k: int, m: int,
                  channel: LlrDistribution, counters=None):
    """Construct an (n, k, m) code over the given channel model.

    Returns ``(code, plan, bler_estimate)`` for the code built on
    :func:`mother_code`, with repetitions from its greedy plan.
    """
    spec, _, plan = mother_code(k, m, n, channel, counters=counters)
    code = RcpCode(spec=spec, rep_vector=plan.r)
    return code, plan, evaluate_bler(code, plan)
