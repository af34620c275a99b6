"""The pinned workloads: inputs, one operation, and output checks.

Each workload is a closed loop of identical operations run in this process
through ``rcpolar.cli.main`` with ``threads=1``.  ``prepare`` writes the
inputs, ``op`` runs one operation and returns its outputs as plain JSON
values, ``check`` lists every way those outputs differ from what the seed
commit produces.  Outputs at the default seed are compared with the pinned
references; at any other seed they are checked against the seed-independent
model values, a statistical band around the pinned counts, and the report's
own accounting.
"""

import contextlib
import io
import json
import math

import rcpolar.cli

# Model values come out of GA density evolution, which ROADMAP item 3 may
# move by a few ulps; every other pinned value must match exactly.
MODEL_RTOL = 1e-9
# Counts at a non-default seed must lie within this many binomial standard
# deviations (plus a small-count allowance) of the pinned count.
BAND_SIGMAS = 6.0
BAND_SLACK = 4


class OutputError(Exception):
    """The CLI failed or wrote output the benchmark cannot read."""


def _close(a, b, rtol=MODEL_RTOL):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _band_problems(label, got, ref, trials):
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        p = r / trials
        width = BAND_SIGMAS * math.sqrt(trials * p * (1.0 - p)) + BAND_SLACK
        if abs(g - r) > width:
            problems.append(f"{label}[{i}]={g} is outside {r}+-{width:.1f}")
    return problems


def _run_cli(argv, result_path):
    """Run rcpolar.cli.main in-process and return the file it must write."""
    result_path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = rcpolar.cli.main(argv)
    if rc != 0:
        raise OutputError(f"rcpolar {argv[0]} exited {rc}: "
                          f"{err.getvalue().strip()[-300:]}")
    return result_path


def _counts(probs, trials):
    counts = [round(p * trials) for p in probs]
    if any(abs(c - p * trials) > 1e-6 for c, p in zip(counts, probs)):
        raise OutputError(f"rates {probs} are not counts out of {trials}")
    return counts


class Design:
    """One ``rcpolar design`` run: GA for every m, then the greedy scan."""

    name = "design"
    default_seed = None       # the design is deterministic; --seed is unused
    unit = "design"
    sizes = {
        "full": {"k": 128, "t_max": 4, "q": 384, "snr_db": 0.0},
        "smoke": {"k": 32, "t_max": 2, "q": 96, "snr_db": 0.0},
    }
    reference = {
        "full": {"s": [223, 223, 236, 258, 297],
                 "eta_estimate": 0.5500178856757898},
        "smoke": {"s": [56, 58, 74], "eta_estimate": 0.517021658187288},
    }
    # Spans an operation reaches (checked by the smoke self-test).
    layers = ("cli.main", "design.design_scheme", "design.build_bler_curve",
              "construct.build_repetition_plan", "reliability.ga_evolve",
              "reliability.check_mean_update", "reliability.pe_from_mean",
              "reliability.puncture_pattern")

    def __init__(self, size):
        self.size = size
        self.units_per_op = 1

    def prepare(self, work):
        self.config = work / "design.json"
        self.config.write_text(json.dumps(self.sizes[self.size]))
        self.out = work / "design_out"

    def op(self, seed):
        path = _run_cli(["design", "--config", str(self.config),
                         "--out", str(self.out)], self.out / "schemes.json")
        (entry,) = json.loads(path.read_text())["schemes"]
        return {"s": entry["s"], "eta_estimate": entry["eta_estimate"]}

    def check(self, out, seed):
        ref = self.reference[self.size]
        problems = []
        if out["s"] != ref["s"]:
            problems.append(f"s {out['s']} != pinned {ref['s']}")
        if not _close(out["eta_estimate"], ref["eta_estimate"]):
            problems.append(f"eta_estimate {out['eta_estimate']!r} != "
                            f"{ref['eta_estimate']!r}")
        return problems


class Campaign:
    """``rcpolar simulate`` on a pinned one-entry schemes.json (k=1024)."""

    name = "campaign"
    default_seed = 606
    unit = "trial"
    # eta_estimate is not read by simulate; the model value is stored.
    scheme = {"snr_db": 1.5, "k": 1024, "s": [1408, 1408, 1447, 1515, 1783],
              "eta_estimate": 0.7079147087731428}
    sizes = {"full": 2048, "smoke": 256}
    reference = {
        "full": {"fails": [419, 216, 77, 7],
                 "first_success": [1629, 219, 133, 62],
                 "nesting_violations": 23,
                 "eta_analytic": 0.7079147087731428},
        "smoke": {"fails": [48, 21, 8, 0],
                  "first_success": [208, 29, 12, 7],
                  "nesting_violations": 3,
                  "eta_analytic": 0.7079147087731428},
    }
    layers = ("cli.main", "simulate.run_campaign", "construct.construct_rcp",
              "construct.build_repetition_plan", "design.build_bler_curve",
              "reliability.ga_evolve", "reliability.check_mean_update",
              "reliability.pe_from_mean", "reliability.puncture_pattern",
              "codec.rcp_encode", "codec.sc_decode", "channel.noise_stream",
              "channel.observation_to_llr")

    def __init__(self, size):
        self.size = size
        self.trials = self.units_per_op = self.sizes[size]

    def prepare(self, work):
        schemes = work / "campaign_schemes.json"
        schemes.write_text(json.dumps({"schema_version": 1,
                                       "schemes": [self.scheme]}))
        self.config = work / "campaign.json"
        self.config.write_text(json.dumps({"schemes": str(schemes),
                                           "trials": self.trials}))
        self.out = work / "campaign_out"

    def op(self, seed):
        path = _run_cli(["simulate", "--config", str(self.config),
                         "--seed", str(seed), "--threads", "1",
                         "--out", str(self.out)], self.out / "report.json")
        (rep,) = json.loads(path.read_text())["reports"]
        return {
            "fails": _counts(rep["pr_e"], rep["trials"]),
            "first_success": _counts(rep["pr_first_success"], rep["trials"]),
            "nesting_violations": rep["nesting_violations"],
            "eta": rep["eta"],
            "eta_analytic": rep["eta_analytic"],
            "k": rep["k"], "s": rep["s"], "trials": rep["trials"],
        }

    def check(self, out, seed):
        ref = self.reference[self.size]
        problems = []
        if (out["k"], out["s"], out["trials"]) != \
                (self.scheme["k"], self.scheme["s"], self.trials):
            problems.append(f"report is for k={out['k']} s={out['s']} "
                            f"trials={out['trials']}")
            return problems
        if not _close(out["eta_analytic"], ref["eta_analytic"]):
            problems.append(f"eta_analytic {out['eta_analytic']!r} != "
                            f"{ref['eta_analytic']!r}")
        # The reported throughput must follow from the reported counts.
        first, lengths = out["first_success"], out["s"][1:]
        chain = self.trials - sum(first)
        if chain < 0:
            problems.append(f"first-success counts {first} exceed "
                            f"{self.trials}")
        else:
            e_n = (sum(n * c for n, c in zip(lengths, first))
                   + lengths[-1] * chain) / self.trials
            eta = out["k"] * (1.0 - chain / self.trials) / e_n
            if not _close(out["eta"], eta, 1e-12):
                problems.append(f"eta {out['eta']!r} does not follow from "
                                f"the counts ({eta!r})")
        if seed == self.default_seed:
            for key in ("fails", "first_success", "nesting_violations"):
                if out[key] != ref[key]:
                    problems.append(f"{key} {out[key]} != pinned {ref[key]}")
        else:
            problems += _band_problems("fails", out["fails"], ref["fails"],
                                       self.trials)
        return problems


class BlerShort:
    """``rcpolar bler`` on three short codes (n0 <= 256) at -1 dB."""

    name = "bler-short"
    default_seed = 303
    unit = "trial"
    codes = [[72, 32, 64], [160, 64, 128], [288, 128, 256]]
    sizes = {"full": 20000, "smoke": 2000}
    bler_analytic = [0.06833520737696672, 0.030374726951012378,
                     0.047481885889163224]
    reference = {"full": [1197, 544, 869], "smoke": [138, 62, 99]}
    layers = ("cli.main", "simulate.bler_monte_carlo",
              "construct.construct_rcp", "construct.build_repetition_plan",
              "reliability.ga_evolve", "reliability.check_mean_update",
              "reliability.pe_from_mean", "reliability.puncture_pattern",
              "codec.rcp_encode", "codec.sc_decode", "channel.noise_stream",
              "channel.observation_to_llr")

    def __init__(self, size):
        self.size = size
        self.trials = self.sizes[size]
        self.units_per_op = self.trials * len(self.codes)

    def prepare(self, work):
        self.config = work / "bler.json"
        self.config.write_text(json.dumps({"codes": self.codes,
                                           "snr_db": -1.0,
                                           "trials": self.trials}))
        self.out = work / "bler_out"

    def op(self, seed):
        path = _run_cli(["bler", "--config", str(self.config),
                         "--seed", str(seed), "--threads", "1",
                         "--out", str(self.out)], self.out / "bler.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith(("#", "snr_db"))]
        # columns: snr_db,n,k,m,trials,errors,bler,ci95,bler_analytic
        return {"codes": [[int(r[1]), int(r[2]), int(r[3])] for r in rows],
                "trials": [int(r[4]) for r in rows],
                "errors": [int(r[5]) for r in rows],
                "bler_analytic": [float(r[8]) for r in rows]}

    def check(self, out, seed):
        ref = self.reference[self.size]
        if out["codes"] != self.codes or \
                out["trials"] != [self.trials] * len(self.codes):
            return [f"rows {out['codes']} x {out['trials']} do not match "
                    f"the requested codes"]
        problems = [f"bler_analytic {got!r} != {want!r}"
                    for got, want in zip(out["bler_analytic"],
                                         self.bler_analytic)
                    if not _close(got, want)]
        if seed == self.default_seed:
            if out["errors"] != ref:
                problems.append(f"errors {out['errors']} != pinned {ref}")
        else:
            problems += _band_problems("errors", out["errors"], ref,
                                       self.trials)
        return problems


WORKLOADS = {w.name: w for w in (Design, Campaign, BlerShort)}
