"""Monte Carlo simulation of the stop-and-wait incremental-redundancy protocol.

Every trial sends a fresh random block, decodes after each transmission, and
retransmits repetition bits until the block is acknowledged or the round
budget is exhausted.  Acknowledgements are ideal (genie comparison with the
true block) and the feedback channel is error-free and free of cost.

Each trial additionally records whether decoding would succeed with the bits
of every round, not only up to the first acknowledgement, so that
per-round failure probabilities are measured as true marginals.
"""

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelParams, channel_llr_distribution, transmit,
                      trial_draws)
from .codec import _is_int, rcp_encode, round_failures
from .construct import construct_rcp
from .design import HarqScheme, bler_curve_from_plan, throughput_estimate

_Z95 = 1.959963984540054


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0
    p, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    return float(z * np.sqrt(p * (1.0 - p) / trials
                             + z * z / (4.0 * trials * trials)) / denom)


@dataclass(frozen=True)
class SimReport:
    """Aggregate campaign statistics at one operating point."""

    k: int
    m: int
    lengths: tuple
    snr_db: float
    trials: int
    base_seed: int
    pr_e: tuple                 # marginal P(decoding fails with round-t bits)
    pr_first_success: tuple     # P(round t is the first success)
    e_k: float                  # mean delivered information bits per block
    e_n: float                  # mean transmitted bits per block
    eta: float                  # e_k / e_n
    eta_analytic: float         # model-based throughput of the same scheme
    ci95: dict
    nesting_violations: int


def _fail_counts(fails: np.ndarray) -> dict:
    """Campaign counts of a (B, T) boolean fail matrix.  ``first_success[t]``
    counts trials first decoded with the bits of round t + 1; its last bin,
    ``[T]``, counts trials never delivered."""
    b, t = fails.shape
    ok = ~fails
    first = np.where(ok.any(axis=1), ok.argmax(axis=1), t)  # t == never
    # success followed by a later failure breaks event nesting
    later_fail = fails & (np.arange(t) > first[:, None])
    return {"trials": b, "fails": fails.sum(axis=0),
            "first_success": np.bincount(first, minlength=t + 1),
            "nesting_violations": int(later_fail.any(axis=1).sum())}


def _empty_counts(t: int) -> dict:
    """Campaign counts over T rounds of no trial."""
    return _fail_counts(np.zeros((0, t), dtype=bool))


def _merge(dst: dict, src: dict) -> None:
    for key, val in src.items():
        dst[key] = dst[key] + val


def _chunk_counts(code, lengths, params: ChannelParams, base_seed: int,
                  lo: int, hi: int, channel_fn=None) -> dict:
    """Simulate trials [lo, hi) with batched decoding: each trial sends
    ``code``'s word and is decoded with the first ``lengths[t]`` bits.

    :func:`trial_draws` gives every trial's block and noise, keyed by
    ``(base_seed, i)``; ``channel_fn(words, params, np.arange(lo, hi))``,
    if given, replaces the AWGN step (see :func:`run_campaign`), and then
    no noise is drawn.
    """
    bits, noise = trial_draws(base_seed, lo, hi, code.k,
                              code.n if channel_fn is None else 0)
    # One layout for the channel arithmetic: rcp_encode gives a transposed
    # view, the noise is row-major.
    tx = np.ascontiguousarray(rcp_encode(bits, code))
    if channel_fn is None:
        llr = transmit(tx, noise, params)
        del noise  # the decode needs the LLRs alone
    else:
        llr = np.asarray(channel_fn(tx, params, np.arange(lo, hi)), float)
        if llr.shape != tx.shape or not np.isfinite(llr).all():
            raise ValueError(f"channel_fn gave shape {llr.shape} or a non-"
                             f"finite LLR, expected {tx.shape} finite LLRs")
    return _fail_counts(round_failures(llr, code, lengths, bits))


def _chunk_rows(code) -> int:
    """Trials per chunk: about 1.5M values of max(n0, n), 32 to 2000."""
    return max(32, min(2000, 1_500_000 // max(code.n0, code.n)))


def _run_chunks(code, lengths, params: ChannelParams, trials: int,
                base_seed: int, threads: int, channel_fn=None) -> dict:
    """Counts of trials [0, trials) in chunks of :func:`_chunk_rows` rows,
    made one by one, over min(threads, chunks, usable cores) processes
    with at most two chunks per process in flight."""
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    chunk = _chunk_rows(code)
    jobs = ((code, lengths, params, base_seed, lo, min(lo + chunk, trials),
             channel_fn) for lo in range(0, trials, chunk))
    counts = _empty_counts(len(lengths))
    workers = min(threads, -(-trials // chunk), len(os.sched_getaffinity(0)))
    if workers < 2:
        for job in jobs:
            _merge(counts, _chunk_counts(*job))
        return counts
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * workers:
                _merge(counts, pending.popleft().result())
            pending.append(pool.submit(_chunk_counts, *job))
        for fut in pending:
            _merge(counts, fut.result())
    return counts


def run_campaign(scheme: HarqScheme, params: ChannelParams, trials: int,
                 base_seed: int, threads: int = 1,
                 channel_fn=None) -> SimReport:
    """Monte Carlo campaign for one scheme at one operating point.

    Every round sends a prefix of one code, built once for the longest
    length; the union-bound curve is read off the same repetition plan.
    Trial i draws its block and noise from the stream keyed by
    ``(base_seed, i)``, so the report is reproducible and independent of
    chunking, thread count, and scheduling.  ``channel_fn(words, params,
    trials)`` replaces the AWGN step (fault injection): it gets a chunk's
    (B, n) int8 transmitted words and their (B,) trial indices and returns
    (B, n) finite LLRs.  With ``threads > 1`` it runs in worker processes,
    so it must pickle (a module-level function, not a lambda or closure).
    """
    channel = channel_llr_distribution(params)
    code, plan, _ = construct_rcp(scheme.lengths[-1], scheme.k, scheme.m,
                                  channel)
    counts = _run_chunks(code, scheme.lengths, params, trials, base_seed,
                         threads, channel_fn)
    return _report_from_counts(scheme, params, trials, base_seed, counts,
                               bler_curve_from_plan(scheme.m, plan))


def _report_from_counts(scheme, params, trials, base_seed, counts,
                        curve) -> SimReport:
    """Every statistic from the first-success histogram: trial i sends
    n_i = lengths[t] bits if round t + 1 first decodes it (all of them if
    none does) and delivers k_i = k bits if any round does."""
    r = counts["trials"]
    if r != trials:
        raise ValueError(f"counted {r} trials, expected {trials}")
    k, lengths = scheme.k, scheme.lengths
    hist = counts["first_success"]
    pr_e = counts["fails"] / r
    pr_first = hist[:-1] / r

    # Integer sums of n_i, n_i^2 and n_i k_i / k over the trials.
    n_of_bin = np.array([*lengths, lengths[-1]], dtype=np.int64)
    sum_n = float(n_of_bin @ hist)
    sum_n2 = float(n_of_bin ** 2 @ hist)
    sum_kn = float(n_of_bin[:-1] @ hist[:-1])
    p_delivered = int(hist[:-1].sum()) / r

    e_k = k * (1.0 - hist[-1] / r)
    e_n = sum_n / r
    eta = e_k / e_n

    # Delta-method standard error for the ratio of per-trial means.
    var_n = sum_n2 / r - e_n ** 2
    var_k = k * k * (p_delivered - p_delivered ** 2)
    cov = k * (sum_kn / r - p_delivered * e_n)
    se2 = (var_k + eta * eta * var_n - 2.0 * eta * cov) / (e_n ** 2 * r)
    ci_eta = _Z95 * float(np.sqrt(max(se2, 0.0)))

    blers = np.minimum.accumulate([curve.pr_e(n) for n in lengths])
    eta_analytic = throughput_estimate(k, lengths, blers)

    ci95 = {
        "pr_e": tuple(wilson_halfwidth(int(c), r) for c in counts["fails"]),
        "pr_first_success": tuple(wilson_halfwidth(int(c), r)
                                  for c in hist[:-1]),
        "eta": ci_eta,
    }
    return SimReport(
        k=k, m=scheme.m, lengths=tuple(int(n) for n in lengths),
        snr_db=params.snr_db, trials=trials, base_seed=base_seed,
        pr_e=tuple(float(p) for p in pr_e),
        pr_first_success=tuple(float(p) for p in pr_first),
        e_k=float(e_k), e_n=float(e_n), eta=float(eta),
        eta_analytic=float(eta_analytic),
        ci95=ci95, nesting_violations=int(counts["nesting_violations"]),
    )


@dataclass(frozen=True)
class BoundCheckRow:
    t: int
    marginal_decrease: float    # Pr(fail at t-1) - Pr(fail at t)
    first_success: float        # Pr(first success at round t)
    slack: float
    holds: bool


@dataclass(frozen=True)
class BoundCheckResult:
    rows: tuple
    eta_analytic: float
    eta_sim: float
    eta_slack: float
    eta_holds: bool

    @property
    def all_hold(self) -> bool:
        return self.eta_holds and all(row.holds for row in self.rows)


def bound_check(report: SimReport) -> BoundCheckResult:
    """Check the one-sided relations behind the throughput approximation.

    Per round t, the marginal failure decrease Pr(E_{t-1}) - Pr(E_t) should
    upper-bound the first-success probability, and the model throughput
    should lower-bound the simulated one.  Each comparison is granted a
    slack of twice the combined (root-sum-square) 95% half-widths.
    """
    rows = []
    prev_e, prev_ci = 1.0, 0.0
    for t in range(1, len(report.pr_e) + 1):
        cur_e = report.pr_e[t - 1]
        cur_ci = report.ci95["pr_e"][t - 1]
        fs = report.pr_first_success[t - 1]
        fs_ci = report.ci95["pr_first_success"][t - 1]
        slack = 2.0 * float(np.sqrt(prev_ci ** 2 + cur_ci ** 2 + fs_ci ** 2))
        lhs = prev_e - cur_e
        rows.append(BoundCheckRow(t=t, marginal_decrease=lhs,
                                  first_success=fs, slack=slack,
                                  holds=lhs >= fs - slack))
        prev_e, prev_ci = cur_e, cur_ci
    eta_slack = 2.0 * report.ci95["eta"]
    return BoundCheckResult(
        rows=tuple(rows),
        eta_analytic=report.eta_analytic, eta_sim=report.eta,
        eta_slack=eta_slack,
        eta_holds=report.eta_analytic <= report.eta + eta_slack,
    )


def bler_monte_carlo(n: int, k: int, m: int, params: ChannelParams,
                     trials: int, base_seed: int, threads: int = 1) -> dict:
    """Single-shot block error rate of an (n, k, m) code, with the model value.

    The code is constructed for the simulated operating point.  Returns a
    dict with the empirical rate, its Wilson half-width, and the union-bound
    estimate.
    """
    channel = channel_llr_distribution(params)
    code, plan, _ = construct_rcp(n, k, m, channel)
    errors = int(_run_chunks(code, (code.n,), params, trials, base_seed,
                             threads)["fails"][0])
    return {
        "n": n, "k": k, "m": m, "snr_db": params.snr_db,
        "trials": trials, "errors": errors,
        "bler": errors / trials,
        "ci95": wilson_halfwidth(errors, trials),
        "bler_analytic": plan.union_bound,
    }
