"""Greedy design of incremental-redundancy transmission schemes.

Searches over the polar-bit budget m and a growing set of cumulative
transmission lengths, keeping the combination that maximizes the approximate
throughput computed from the per-length union-bound block error curve.
"""

from dataclasses import dataclass

import numpy as np

from .channel import LlrDistribution
from .codec import _is_int, _real
from .construct import mother_codes

# Block-error values are floored here so throughput denominators stay stable.
BLER_FLOOR = 1e-15

# Candidate entries (rows of m times lengths) per vectorised greedy scan:
# 2^14 keeps the scan's temporaries near 1.7 MiB, and blocks of 2^16 and
# 2^17 entries measured slower on the `design` workload.
_SCAN_BLOCK_ELEMENTS = 1 << 14

# Relative margin of the scan's stop rule, k / m <= eta * (1 - margin): far
# above the rounding of a computed throughput, a few ulps per chosen length.
_ETA_MARGIN = 1e-9


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
        if not all(map(_is_int, (self.k, self.m, *self.lengths))):
            raise ValueError("k, m and lengths must be integers, got "
                             f"{self.k!r}, {self.m!r}, {self.lengths!r}")
        if not self.lengths:
            raise ValueError("a scheme needs at least one transmission length")
        if not 1 <= self.k <= self.m <= self.lengths[0]:
            raise ValueError("need 1 <= k <= m <= first length")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("cumulative lengths must be strictly increasing")
        eta = _real(self.eta_estimate)
        if not abs(eta) < np.inf:
            raise ValueError("eta_estimate must be a finite real number, got "
                             f"{self.eta_estimate!r}")
        object.__setattr__(self, "eta_estimate", eta)

    @property
    def s(self) -> tuple:
        """The scheme vector (m, N_1, ..., N_T)."""
        return (self.m, *self.lengths)


@dataclass(frozen=True, eq=False)
class BlerCurve:
    """Union-bound block error rate of (n, k, m) codes for n = m .. m+len(e)-1.

    The virtual before-first-transmission value is 1 and is applied implicitly
    wherever a preceding length is missing.
    """

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
    _, plan = next(mother_codes(k, [m], q, channel))
    return bler_curve_from_plan(m, plan)


def bler_curve_from_plan(m: int, plan) -> BlerCurve:
    """The curve of an m-polar-bit mother code, read off its repetition plan."""
    return BlerCurve(m=m, e=np.clip(plan.bler_trace, BLER_FLOOR, 1.0))


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
    if not np.all((0 < lengths) & (lengths < np.inf)):
        raise ValueError("lengths must be finite and positive")
    if np.any(np.diff(lengths) <= 0):
        raise ValueError("lengths must be strictly increasing")
    if not np.all((0 <= blers) & (blers <= 1)):
        raise ValueError("block error rates must lie in [0, 1]")
    if np.any(np.diff(blers) > 0):
        raise ValueError("block error rates must be nonincreasing")
    prev = np.concatenate([[1.0], blers[:-1]])
    denom = float(np.dot(lengths, prev - blers) + lengths[-1] * blers[-1])
    return k * (1.0 - float(blers[-1])) / denom


def _scan_rows(k: int, m: np.ndarray, e: np.ndarray, q: int,
               chosen: np.ndarray) -> tuple:
    """Best single length to add to each row's chosen lengths, maximizing
    the throughput: ``(best_n, best_rho)``, one entry per row.

    Row i holds polar-bit budget ``m[i]``, its block error curve
    ``e[i, j]`` for length m[i] + j (entries past q are ignored) and its
    chosen lengths ``chosen[i]``, sorted; every row has the same number of
    them.  Candidates are all lengths in [m[i], q] not already chosen; ties
    prefer the smaller length.
    """
    rows, width = e.shape
    n = m[:, None] + np.arange(width)
    n_f = n.astype(float)
    s_f = chosen.astype(float)
    e_s = np.take_along_axis(e, chosen - m[:, None], axis=1)
    # e_before[:, j]: block error rate before chosen length j (1 before the
    # first), so the last column is the rate after all of them.
    e_before = np.concatenate([np.ones((rows, 1)), e_s], axis=1)
    lam_s = np.vecdot(s_f, e_before[:, :-1] - e_s)[:, None]

    # Insertion segments: candidates falling between consecutive chosen
    # lengths share the same incremental form of the denominator.
    seg = np.zeros(n.shape, dtype=np.int64)
    taken = n > q
    for s_j in chosen.T:
        seg += s_j[:, None] < n
        taken |= s_j[:, None] == n
    e_prev = np.take_along_axis(e_before, seg, axis=1)
    step = n_f * (e_prev - e)
    rho = k * (1.0 - e) / ((lam_s + step) + n_f * e)
    if chosen.shape[1]:
        inner = np.minimum(seg, chosen.shape[1] - 1)
        nxt = np.take_along_axis(s_f, inner, axis=1)
        e_nxt = np.take_along_axis(e_s, inner, axis=1)
        lam = (lam_s - nxt * (e_prev - e_nxt)) + step + nxt * (e - e_nxt)
        tail_e = e_s[:, -1:]
        # The inner form is also evaluated, and discarded, at tail entries
        # and past q, where its denominator may be 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            inner_rho = k * (1.0 - tail_e) / (lam + s_f[:, -1:] * tail_e)
        rho = np.where(seg < chosen.shape[1], inner_rho, rho)
    rho[taken] = -np.inf
    best = np.argmax(rho, axis=1)
    return m + best, rho[np.arange(rows), best]


def _greedy_rounds(k: int, m: np.ndarray, e: np.ndarray, q: int, t_max: int,
                   force_first_length_equals_m: bool = False) -> tuple:
    """The greedy rounds of :func:`design_scheme` for the rows of ``e``
    (see :func:`_scan_rows`), all rows per round in one vectorised scan.

    Returns ``(picks, rho, rounds)``: ``picks[i, t]`` is the length row i
    was offered in round t and ``rho[i, t]`` its throughput (0 and -inf
    after the row stopped); the row keeps its first ``rounds[i]`` picks.  A
    row continues while the offer strictly exceeds its current throughput.
    """
    rows = m.size
    picks = np.zeros((rows, t_max), dtype=np.int64)
    rho = np.full((rows, t_max), -np.inf)
    rounds = np.zeros(rows, dtype=np.int64)
    eta = np.full(rows, -np.inf)
    live = np.arange(rows)
    chosen = np.empty((rows, 0), dtype=np.int64)
    for t in range(t_max):
        if force_first_length_equals_m and t == 0:
            best_n, best_rho = m, k * (1.0 - e[:, 0]) / m.astype(float)
        else:
            best_n, best_rho = _scan_rows(k, m[live], e[live], q, chosen)
        picks[live, t], rho[live, t] = best_n, best_rho
        better = best_rho > eta[live]
        live = live[better]
        chosen = np.sort(np.column_stack([chosen[better], best_n[better]]),
                         axis=1)
        eta[live] = best_rho[better]
        rounds[live] += 1
        if not live.size:
            break
    return picks, rho, rounds


def design_scheme(k: int, t_max: int, q: int, channel: LlrDistribution,
                  force_first_length_equals_m: bool = False) -> tuple:
    """Greedy search for a transmission scheme with at most ``t_max`` rounds:
    ``(scheme, curve)``, with ``curve`` the :class:`BlerCurve` of
    ``scheme.m`` over n = m..q that the search read.

    For every polar-bit budget m in k..q the block error curve over all
    lengths is read from that m's repetition plan, built by
    :func:`~rcpolar.construct.mother_codes` in batched GA and plan passes;
    rounds then add one cumulative length at a time, each time the one that
    most improves the estimated throughput.  The rounds run for many m at
    once: curves are stacked into padded blocks of at most
    ``_SCAN_BLOCK_ELEMENTS`` entries, and each round scans all of a block's
    rows in one vectorised pass (:func:`_greedy_rounds`).
    Ties prefer the smaller added length and then the smaller m.  The first
    round always keeps its best candidate (a scheme has at least one
    transmission); a later round with no improving addition ends the inner
    search, so the returned scheme may use fewer than ``t_max`` rounds.

    The scan over m stops where no larger m can win (see
    :func:`_best_scheme`): every scheme of budget m has throughput below
    k / m.  Curves are drawn from :func:`~rcpolar.construct.mother_codes`
    one m at a time, so the GA pass and plan build of a mother length the
    scan does not reach are never made.

    With ``force_first_length_equals_m`` the first transmission is pinned to
    exactly the m polar bits.
    """
    if not (_is_int(k) and _is_int(q) and 1 <= k <= q):
        raise ValueError(f"need integers 1 <= k <= q, got k={k!r}, q={q!r}")
    if not (_is_int(t_max) and t_max >= 1):
        raise ValueError(f"t_max must be an integer of at least 1, "
                         f"got {t_max!r}")
    # A scheme has at most one round per distinct length in [m, q].
    t_max = min(t_max, q - k + 1)

    traces = (plan.bler_trace for _, plan
              in mother_codes(k, np.arange(k, q + 1), q, channel))
    eta, m, lengths, e = _best_scheme(k, q, t_max, traces,
                                      force_first_length_equals_m)
    return (HarqScheme(k=k, m=m, lengths=lengths, eta_estimate=eta),
            BlerCurve(m=m, e=e))


def _best_scheme(k: int, q: int, t_max: int, curves,
                 force_first_length_equals_m: bool = False) -> tuple:
    """The search of :func:`design_scheme` over the curves ``e`` of
    m = k, k+1, ..., q (``e[j]`` is the block error estimate of length
    m + j, before the clip to [BLER_FLOOR, 1]): ``(eta, m, lengths, e)`` of
    the best scheme, ``e`` its m's clipped curve.

    Curves are stacked, padded with 1 to the longest, into blocks of at most
    ``_SCAN_BLOCK_ELEMENTS`` entries, and each block is clipped once, as
    :func:`bler_curve_from_plan` clips one curve.  A block's best row is its
    first largest throughput, and a later block replaces it only when
    strictly better, so ties go to the smaller m.

    Once a best throughput eta is known, a block keeps only the m with
    k / m > eta (1 - ``_ETA_MARGIN``), and the scan stops at the first m
    without; no curve past that m is drawn from ``curves``.  This is exact:
    a scheme N_1 < ... < N_T of budget m with curve values e_t >= 0 (e_0 = 1)
    has the throughput denominator sum_t N_t (e_{t-1} - e_t) + N_T e_T =
    N_1 + sum_{t<T} (N_{t+1} - N_t) e_t >= N_1 >= m, and its numerator is
    at most k, so its throughput is at most k / m, and below eta for every
    m the rule drops; no curve needs to be monotone for this.  The margin
    covers rounding in the computed throughputs.  While eta is 0 (every
    curve clipped to 1) no m is dropped.
    """
    curves = iter(curves)
    best = None
    lo = k
    while lo <= q:
        width = q - lo + 1
        ms = np.arange(lo, min(q + 1, lo + max(1, _SCAN_BLOCK_ELEMENTS
                                                // width)))
        if best is not None:
            ms = ms[k / ms > best[0] * (1.0 - _ETA_MARGIN)]
            if not ms.size:
                break
        e = np.ones((ms.size, width))
        for row, curve in zip(e, curves):
            row[:curve.size] = curve
        np.clip(e, BLER_FLOOR, 1.0, out=e)
        picks, rho, rounds = _greedy_rounds(k, ms, e, q, t_max,
                                            force_first_length_equals_m)
        eta = rho[np.arange(ms.size), rounds - 1]
        i = int(np.argmax(eta))
        if best is None or eta[i] > best[0]:
            best = (float(eta[i]), int(ms[i]),
                    tuple(sorted(int(n) for n in picks[i, :rounds[i]])),
                    e[i, :q - ms[i] + 1].copy())
        lo = int(ms[-1]) + 1
    return best

