"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to watch them).
These are the heavy, statistically meaningful runs; the per-module suites
cover the fast oracle checks.
"""

import time

import numpy as np
import pytest

from rcpolar import reliability
from rcpolar.channel import (ChannelParams, LLR_CLAMP, LlrDistribution,
                             bawgn_capacity, channel_llr_distribution)
from rcpolar.codec import RcpCode, rcp_encode, sc_decode
from rcpolar.construct import construct_rcp, mother_codes
from rcpolar.design import build_bler_curve, design_scheme
from rcpolar.reliability import (check_mean_update, ga_evolve, pe_from_mean,
                                 puncture_pattern)
from rcpolar.simulate import (bler_monte_carlo, bound_check, run_campaign,
                              wilson_halfwidth)

from oracles import mc_density_evolution


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}  {detail}")


# -- 1. codec round trip at scale --------------------------------------------

def test_criterion_1_codec_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(101)
    specs, blocks_per_spec = 100, 100
    exact = 0
    for _ in range(specs):
        n0 = 2 ** rng.integers(2, 11)  # 4 .. 1024
        m = int(rng.integers(n0 // 2 + 1, n0 + 1))
        k = int(rng.integers(1, m + 1))
        n = int(m + rng.integers(0, n0))
        sigma = float(rng.uniform(0.5, 1.5))
        code, _, _ = construct_rcp(n, k, m, LlrDistribution(2.0 / sigma ** 2))
        rep = np.sort(rng.choice(code.spec.info_set, size=n - m, replace=True))
        code = RcpCode(spec=code.spec, rep_vector=rep)
        blocks = rng.integers(0, 2, size=(blocks_per_spec, k), dtype=np.int8)
        tx = rcp_encode(blocks, code)
        llr = np.where(tx == 0, LLR_CLAMP, -LLR_CLAMP)
        exact += int(np.sum(np.all(sc_decode(llr, code) == blocks, axis=1)))
    total = specs * blocks_per_spec
    elapsed = time.time() - t0
    ok = exact == total and elapsed < 60
    _report("C1 codec round trip",
            ok, f"{exact}/{total} recovered in {elapsed:.1f}s")
    assert exact == total
    assert elapsed < 60


# -- 2. density-evolution model vs sampled oracle ----------------------------

@pytest.mark.parametrize("sigma", [0.7, 1.0])
def test_criterion_2_ga_vs_sampled_de(sigma):
    n0 = 16
    pe = ga_evolve(n0, [n0], 2.0 / sigma ** 2).pe[0]
    mc = mc_density_evolution(sigma, n0, 10 ** 6, seed=202)
    mask = mc >= 1e-3
    rel = np.abs(pe[mask] - mc[mask]) / mc[mask]
    worst = float(rel.max())
    ok = worst < 0.15
    _report(f"C2 GA vs sampled DE (sigma={sigma})", ok,
            f"worst relative error {worst:.3f} over {int(mask.sum())} channels")
    assert worst < 0.15


# -- 3. union bound vs simulated block error rate ----------------------------

@pytest.mark.parametrize("n,k,m,snr_db", [
    (72, 32, 64, -1.0),     # ~6e-2
    (160, 64, 128, -1.0),   # ~3e-2
    (288, 128, 256, 0.0),   # ~2.5e-3
])
def test_criterion_3_union_bound(n, k, m, snr_db):
    res = bler_monte_carlo(n, k, m, ChannelParams(snr_db=snr_db),
                           trials=100_000, base_seed=303)
    slack = 2.0 * res["ci95"]
    ok = res["bler_analytic"] >= res["bler"] - slack
    in_range = 1e-3 <= res["bler"] <= 1e-1
    _report(f"C3 union bound ({n},{k},{m})@{snr_db:+.0f}dB", ok and in_range,
            f"analytic {res['bler_analytic']:.4f} vs sim {res['bler']:.4f} "
            f"(2ci {slack:.4f})")
    assert in_range, "operating point drifted out of the target BLER range"
    assert res["bler_analytic"] >= res["bler"] - slack


# -- 4 & 5. decomposition bound and throughput bound -------------------------

BOUND_SNRS = (-3.0, 0.0, 3.0)


@pytest.fixture(scope="module")
def bound_campaigns():
    out = {}
    for snr in BOUND_SNRS:
        params = ChannelParams(snr_db=snr)
        scheme, _ = design_scheme(256, 2, 1024, channel_llr_distribution(params))
        report = run_campaign(scheme, params, trials=100_000, base_seed=404)
        out[snr] = bound_check(report)
    return out


@pytest.mark.parametrize("snr", BOUND_SNRS)
def test_criterion_4_first_success_upper_bound(bound_campaigns, snr):
    check = bound_campaigns[snr]
    ok = all(row.holds for row in check.rows)
    detail = " ".join(
        f"t{row.t}:{row.marginal_decrease - row.first_success:+.4f}(2ci {row.slack:.4f})"
        for row in check.rows)
    _report(f"C4 marginal-decrease bound @{snr:+.0f}dB", ok, detail)
    for row in check.rows:
        assert row.marginal_decrease >= row.first_success - row.slack


@pytest.mark.parametrize("snr", BOUND_SNRS)
def test_criterion_5_throughput_lower_bound(bound_campaigns, snr):
    check = bound_campaigns[snr]
    _report(f"C5 throughput bound @{snr:+.0f}dB", check.eta_holds,
            f"analytic {check.eta_analytic:.4f} <= sim {check.eta_sim:.4f} "
            f"+ {check.eta_slack:.4f}")
    assert check.eta_analytic <= check.eta_sim + check.eta_slack


# -- 6. capacity gap of the full pipeline at k=1024 ---------------------------

def _snr_at_capacity(target: float) -> float:
    lo, hi = -20.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bawgn_capacity(ChannelParams(snr_db=mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("snr_db,q", [(-1.0, 2560), (1.5, 2048), (4.0, 2048)])
def test_criterion_6_capacity_gap(snr_db, q):
    params = ChannelParams(snr_db=snr_db)
    scheme, _ = design_scheme(1024, 4, q, channel_llr_distribution(params))
    report = run_campaign(scheme, params, trials=10_000, base_seed=606)
    gap = snr_db - _snr_at_capacity(report.eta)
    ok = gap <= 2.0
    _report(f"C6 capacity gap @{snr_db:+.1f}dB", ok,
            f"eta {report.eta:.4f} -> gap {gap:.2f} dB (limit 2.0)")
    assert gap <= 2.0


# -- 7. degradation with repetition length -----------------------------------

def _log_crossing(snrs, values, target):
    """SNR where a decreasing error-rate series crosses ``target``,
    interpolated linearly in log error rate."""
    floor = 1e-7
    for (s0, b0), (s1, b1) in zip(zip(snrs, values), zip(snrs[1:], values[1:])):
        b0, b1 = max(b0, floor), max(b1, floor)
        if b0 >= target >= b1:
            f = (np.log10(b0) - np.log10(target)) / \
                (np.log10(b0) - np.log10(b1))
            return s0 + f * (s1 - s0)
    return None


def _required_bit_snr(n: int, k: int, m: int, grid, trials: int,
                      target: float = 1e-2):
    """Interpolated Eb/N0 where the simulated block error rate crosses
    ``target``, with a confidence range from the Wilson bounds."""
    rate_shift = -10.0 * np.log10(k / n)  # Eb/N0 = Es/N0 + shift
    mids, los, his = [], [], []
    for snr in grid:
        res = bler_monte_carlo(n, k, m, ChannelParams(snr_db=snr),
                               trials=trials, base_seed=707)
        mids.append(res["bler"])
        los.append(max(res["bler"] - res["ci95"], 0.0))
        his.append(res["bler"] + res["ci95"])
    mid = _log_crossing(grid, mids, target)
    hi = _log_crossing(grid, los, target)   # optimistic rates cross later
    lo = _log_crossing(grid, his, target)   # pessimistic rates cross earlier
    assert mid is not None, f"grid {list(grid)} does not bracket n={n}"
    lo = lo if lo is not None else grid[0]
    hi = hi if hi is not None else grid[-1]
    return mid + rate_shift, lo + rate_shift, hi + rate_shift


def test_criterion_7_longer_repetition_needs_more_bit_energy():
    k, m = 256, 512
    grids = {
        512: np.arange(-1.5, 0.26, 0.25),
        640: np.arange(-2.0, -0.24, 0.25),
        768: np.arange(-2.25, -0.49, 0.25),
        1024: np.arange(-3.0, -1.24, 0.25),
    }
    results = []
    for n, grid in grids.items():
        mid, lo, hi = _required_bit_snr(n, k, m, grid, trials=10_000)
        results.append((n, mid, lo, hi))
    detail = "  ".join(f"N={n}: {mid:.2f}dB" for n, mid, _, _ in results)
    ok = all(hi_b >= lo_a for (_, _, lo_a, _), (_, _, _, hi_b)
             in zip(results, results[1:]))
    _report("C7 repetition-length degradation", ok, detail)
    for (n_a, mid_a, lo_a, _), (n_b, mid_b, _, hi_b) in zip(results,
                                                            results[1:]):
        assert hi_b >= lo_a, (
            f"required bit SNR dropped from N={n_a} ({mid_a:.2f} dB) "
            f"to N={n_b} ({mid_b:.2f} dB) beyond CI")


# -- 8. greedy search vs exhaustive oracle ------------------------------------

def test_criterion_8_design_matches_exhaustive_search():
    channel = LlrDistribution(mean=2.0)  # sigma = 1
    k, q = 8, 16
    scheme, _ = design_scheme(k, 1, q, channel)
    best = None
    for m in range(k, q + 1):
        curve = build_bler_curve(k, m, q, channel)
        for n in range(m, q + 1):
            eta = k * (1.0 - curve.pr_e(n)) / n
            if best is None or eta > best[0]:
                best = (eta, m, n)
    exact = scheme.s == (best[1], best[2])

    # T=2: greedy must reach the optimum over extensions of its own T=1 pick.
    k2, q2 = 8, 20
    scheme2, _ = design_scheme(k2, 2, q2, channel)
    constrained = 0.0
    for m in range(k2, q2 + 1):
        curve = build_bler_curve(k2, m, q2, channel)
        first = max(range(m, q2 + 1),
                    key=lambda n: (k2 * (1.0 - curve.pr_e(n)) / n, -n))
        constrained = max(constrained,
                          k2 * (1.0 - curve.pr_e(first)) / first)
        for n2 in range(m, q2 + 1):
            if n2 == first:
                continue
            lengths = sorted([first, n2])
            blers = [curve.pr_e(lengths[0]),
                     min(curve.pr_e(lengths[0]), curve.pr_e(lengths[1]))]
            from rcpolar.design import throughput_estimate
            constrained = max(constrained,
                              throughput_estimate(k2, lengths, blers))
    greedy_ok = scheme2.eta_estimate >= constrained - 1e-12
    _report("C8 greedy vs exhaustive", exact and greedy_ok,
            f"T=1 scheme {scheme.s} (oracle m={best[1]}, n={best[2]}); "
            f"T=2 eta {scheme2.eta_estimate:.4f} vs constrained {constrained:.4f}")
    assert exact
    assert greedy_ok


# -- 9. search cost scaling ----------------------------------------------------

def test_criterion_9_cost_scaling(monkeypatch):
    # The work of the mother-code pass a scheme search over m = k..q runs,
    # measured: GA check-update evaluations plus repetition updates (one
    # per slot of every plan).
    k = 8
    qs = [64, 128, 256, 512]
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    evaluated = []

    def counting(m_a, m_b):
        evaluated.append(np.broadcast(np.asarray(m_a), np.asarray(m_b)).size)
        return check_mean_update(m_a, m_b)

    monkeypatch.setattr(reliability, "check_mean_update", counting)
    totals = []
    for q in qs:
        evaluated.clear()
        slots = sum(plan.r.size for _, plan
                    in mother_codes(k, range(k, q + 1), q, channel))
        assert evaluated, "no check update went through the wrapper"
        totals.append(sum(evaluated) + slots)
    model = np.array([q * q * np.log2(q) for q in qs], dtype=float)
    c = float(np.dot(totals, model) / np.dot(model, model))
    deviation = np.abs(np.array(totals, dtype=float) - c * model) / (c * model)
    worst = float(deviation.max())
    ok = worst < 0.30
    _report("C9 cost scaling", ok,
            f"measured work {totals}, c={c:.3f}, worst per-point "
            f"deviation {worst:.2%}")
    assert worst < 0.30
