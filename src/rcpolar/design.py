"""Greedy design of incremental-redundancy transmission schemes.

Searches over the polar-bit budget m and a growing set of cumulative
transmission lengths, keeping the combination that maximizes the approximate
throughput computed from the per-length union-bound block error curve.
"""

from dataclasses import dataclass

import numpy as np

from .channel import LlrDistribution
from .construct import mother_code, mother_codes

# Block-error values are floored here so throughput denominators stay stable.
BLER_FLOOR = 1e-15


@dataclass(frozen=True)
class HarqScheme:
    """A transmission plan: polar-bit count ``m`` and cumulative lengths.

    ``lengths[t-1]`` is the total number of bits on the air after the t-th
    transmission; the first transmission sends ``lengths[0]`` bits of which
    ``m`` are polar bits and the rest are repetitions.
    """

    k: int
    m: int
    lengths: tuple
    eta_estimate: float

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("a scheme needs at least one transmission length")
        if not 1 <= self.k <= self.m <= self.lengths[0]:
            raise ValueError("need 1 <= k <= m <= first length")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("cumulative lengths must be strictly increasing")

    @property
    def s(self) -> tuple:
        """The scheme vector (m, N_1, ..., N_T)."""
        return (self.m, *self.lengths)

    @property
    def t(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True, eq=False)
class BlerCurve:
    """Union-bound block error rate of (n, k, m) codes for n = m .. m+len(e)-1.

    The virtual before-first-transmission value is 1 and is applied implicitly
    wherever a preceding length is missing.
    """

    k: int
    m: int
    e: np.ndarray

    def pr_e(self, n: int) -> float:
        if not self.m <= n < self.m + self.e.size:
            raise ValueError(f"length {n} outside curve range")
        return float(self.e[n - self.m])


def build_bler_curve(k: int, m: int, q: int,
                     channel: LlrDistribution) -> BlerCurve:
    """Block error estimates for every code length n = m..q at fixed (k, m).

    Exploits the prefix property of the greedy repetition assignment: each
    additional length costs one density update, so the whole curve costs the
    same as the longest code.
    """
    _, _, plan = mother_code(k, m, q, channel)
    return bler_curve_from_plan(k, m, plan)


def bler_curve_from_plan(k: int, m: int, plan) -> BlerCurve:
    """The curve of an m-polar-bit mother code, read off its repetition plan."""
    return BlerCurve(k=k, m=m, e=np.clip(plan.bler_trace, BLER_FLOOR, 1.0))


def throughput_estimate(k: int, lengths, blers) -> float:
    """Approximate throughput of a scheme from its per-length block error rates.

    Parameters
    ----------
    k : int
        Information bits per block.
    lengths : array-like
        Cumulative transmitted bits N_1 < N_2 < ... < N_T.
    blers : array-like
        Block error rate after each transmission, nonincreasing, in [0, 1];
        the before-first-transmission value is 1 implicitly.

    Returns
    -------
    float
        k * (1 - e_T) / (sum_t N_t * (e_{t-1} - e_t) + N_T * e_T).
    """
    lengths = np.asarray(lengths, dtype=float)
    blers = np.asarray(blers, dtype=float)
    if lengths.size == 0 or lengths.size != blers.size:
        raise ValueError("lengths and blers must be nonempty and aligned")
    if np.any(np.diff(lengths) <= 0):
        raise ValueError("lengths must be strictly increasing")
    if np.any(blers < 0) or np.any(blers > 1):
        raise ValueError("block error rates must lie in [0, 1]")
    if np.any(np.diff(blers) > 0):
        raise ValueError("block error rates must be nonincreasing")
    prev = np.concatenate([[1.0], blers[:-1]])
    denom = float(np.dot(lengths, prev - blers) + lengths[-1] * blers[-1])
    return k * (1.0 - float(blers[-1])) / denom


def _scan_candidates(k: int, m: int, e: np.ndarray, s_sorted: list,
                     n_lo: int) -> tuple:
    """Best single length to add to ``s_sorted``, maximizing the throughput.

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

    # Insertion segments: candidates falling between consecutive chosen
    # lengths share the same incremental form of the denominator.
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


def design_scheme(k: int, t_max: int, q: int, channel: LlrDistribution,
                  force_first_length_equals_m: bool = False,
                  counters=None) -> HarqScheme:
    """Greedy search for a transmission scheme with at most ``t_max`` rounds.

    For every polar-bit budget m in k..q the block error curve over all
    lengths is read from that m's repetition plan, built by
    :func:`~rcpolar.construct.mother_codes` with batched GA passes; rounds
    then add one cumulative length at a time, each time the one that most
    improves the estimated throughput.
    Ties prefer the smaller added length and then the smaller m.  The first
    round always keeps its best candidate (a scheme has at least one
    transmission); a later round with no improving addition ends the inner
    search, so the returned scheme may use fewer than ``t_max`` rounds.

    With ``force_first_length_equals_m`` the first transmission is pinned to
    exactly the m polar bits.
    """
    if not 1 <= k <= q:
        raise ValueError(f"need 1 <= k <= q, got k={k}, q={q}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    best = None  # (eta, m, lengths)
    ms = range(k, q + 1)
    for m, (_, _, plan) in zip(ms, mother_codes(k, ms, q, channel,
                                                 counters=counters)):
        curve = bler_curve_from_plan(k, m, plan)
        chosen: list = []
        eta = -np.inf
        for _ in range(t_max):
            if force_first_length_equals_m and not chosen:
                e_m = curve.e[0]
                cand_n, cand_rho = m, k * (1.0 - e_m) / float(m)
            else:
                cand_n, cand_rho = _scan_candidates(k, m, curve.e, chosen, m)
            if cand_rho > eta:
                chosen = sorted(chosen + [cand_n])
                eta = cand_rho
            else:
                break
        if best is None or eta > best[0]:
            best = (eta, m, tuple(chosen))

    eta, m, lengths = best
    return HarqScheme(k=k, m=m, lengths=lengths, eta_estimate=float(eta))


def scheme_cost_profile(k: int, q: int, t_max: int = 2,
                        channel: LlrDistribution | None = None) -> dict:
    """Instrumented operation counts of a full scheme search.

    Returns the number of density-update operations performed: "ga_updates"
    for polarization-stage updates and "convolutions" for repetition-channel
    updates, plus their sum under "total".
    """
    if channel is None:
        channel = LlrDistribution(mean=2.0)
    counters: dict = {}
    design_scheme(k, t_max, q, channel, counters=counters)
    counters["total"] = counters.get("ga_updates", 0) \
        + counters.get("convolutions", 0)
    return counters
