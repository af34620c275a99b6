import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcpolar.cli
import rcpolar.construct
import rcpolar.simulate
from rcpolar.channel import ChannelParams, channel_llr_distribution
from rcpolar.cli import main
from rcpolar.codec import code_to_dict
from rcpolar.construct import construct_rcp
from rcpolar.reliability import ga_evolve, puncture_pattern

from limits import memory_headroom


def _run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfg_path), *extra])


def _data_lines(path):
    """The lines of an output CSV after its "#" envelope."""
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_key_exits_2(tmp_path, capsys):
    rc = _run(tmp_path, "construct", {"n": 8, "k": 4, "out": str(tmp_path / "o")})
    assert rc == 2
    assert "missing config keys" in capsys.readouterr().err


def _scheme_entry(**edit):
    """A valid schemes.json entry with ``edit`` applied."""
    return {"snr_db": 1.0, "k": 8, "s": [12, 12, 16], "eta_estimate": 0.5,
            **edit}


@pytest.mark.parametrize("command,cfg", [
    ("construct", {"n": 8, "k": "four", "m": 8, "snr_db": 0.0}),
    ("construct", {"n": 8, "k": 4, "m": 8, "snr_db": "high"}),
    ("design", {"k": 8, "t_max": 0, "q": 16, "snr_db": 1.0}),
    ("design", {"k": 17, "t_max": 2, "q": 16, "snr_db": 1.0}),
    ("bler", {"codes": [[12, 4]], "snr_db": 0.0, "trials": 20}),
    ("bler", {"codes": [[12, 0, 8]], "snr_db": 0.0, "trials": 20}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 20,
              "seed": "x"}),
    # A JSON string is not a boolean: "false" must not turn forcing on.
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": 0.0,
                "force_n1_equals_m": "false"}),
    # SNRs must be finite numbers; a boolean is not one.
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": True}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": float("-inf")}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": float("inf")}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": float("nan")}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": [0.0, float("nan")]}),
    ("construct", {"n": 8, "k": 4, "m": 8, "snr_db": True}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": float("inf"), "trials": 20}),
    # schemes.json entries follow the same rules, checked before any run:
    # no bool or string for a number, no float for an integer, and a NaN
    # in a later entry stops the entries before it from running.
    ("simulate", {"schemes": [_scheme_entry(snr_db=True)]}),
    ("simulate", {"schemes": [_scheme_entry(snr_db="1.0")]}),
    ("simulate", {"schemes": [_scheme_entry(k=8.7)]}),
    ("simulate", {"schemes": [_scheme_entry(s=[12.9, 12, 16])]}),
    ("simulate", {"schemes": [_scheme_entry(),
                              _scheme_entry(snr_db=float("nan"))]}),
    ("simulate", {"schemes": [_scheme_entry(eta_estimate=True)]}),
    ("simulate", {"schemes": [_scheme_entry(eta_estimate=float("nan"))]}),
    # Two SNRs whose curve files would share one name.
    ("design", {"k": 8, "t_max": 2, "q": 24,
                "snr_db": [0.3, 0.30000000000000004]}),
    ("design", {"k": 8, "t_max": 2, "q": 24,
                "snr_db": [1.0000001, 1.0000002]}),
    # Finite SNRs whose noise variance underflows to 0 or overflows, and a
    # JSON integer beyond the float range.
    ("construct", {"n": 8, "k": 4, "m": 8, "snr_db": 1e308}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": [0.0, -1e308]}),
    ("simulate", {"schemes": [_scheme_entry(snr_db=1e308)]}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": -1e308, "trials": 20}),
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": 10 ** 400}),
    # A seed keys 64-bit streams: -1 and 2^64 would alias 2^64 - 1 and 0.
    ("bler", {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 20,
              "seed": -1}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 20,
              "seed": 2 ** 64}),
    # An empty list of SNRs or codes asks for no run at all.
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": []}),
    ("bler", {"codes": [], "snr_db": 0.0, "trials": 20}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": [], "trials": 20}),
    # Lengths and counts are numpy int64s.
    ("construct", {"n": 2 ** 63, "k": 4, "m": 8, "snr_db": 0.0}),
    ("design", {"k": 4, "t_max": 2 ** 63, "q": 12, "snr_db": 0.0}),
    ("simulate", {"schemes": [_scheme_entry(s=[8, 8, 2 ** 63])]}),
    # Sizes that alone cannot be allocated: t_max, n, m, q and every length
    # of a code or a scheme are at most 2^20.  Each of the first three
    # exited 3 with "Unable to allocate" (72 TiB, 8 TiB and 8 TiB).
    ("design", {"k": 4, "t_max": 2 ** 40, "q": 12, "snr_db": 0.0}),
    ("design", {"k": 4, "t_max": 2, "q": 2 ** 40, "snr_db": 0.0}),
    ("construct", {"n": 2 ** 40, "k": 4, "m": 8, "snr_db": 0.0}),
    ("construct", {"n": 2 ** 20 + 1, "k": 4, "m": 8, "snr_db": 0.0}),
    ("bler", {"codes": [[2 ** 20 + 1, 4, 8]], "snr_db": 0.0, "trials": 20}),
    ("simulate", {"schemes": [_scheme_entry(s=[12, 12, 2 ** 20 + 1])]}),
    # A key that no list names: a misspelt force_n1_equals_m ran unforced,
    # and seeds=5 ran at seed 0.
    ("design", {"k": 8, "t_max": 2, "q": 24, "snr_db": 0.0,
                "force_n1_equal_m": True}),
    ("bler", {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 20,
              "seeds": 5}),
    # A schemes path that is not a JSON string read the file that Python's
    # str() names: "5" and "['d']".
    ("simulate", {"schemes": 5, "trials": 10}),
    ("simulate", {"schemes": ["d"], "trials": 10}),
    ("simulate", {"schemes": [_scheme_entry(eta_estimate=10 ** 400)]}),
    # Lengths out of order, found by the library's checks: m > n and k > m
    # for a code, and a bad second bler code, before the first one runs.
    ("construct", {"n": 8, "k": 4, "m": 12, "snr_db": 0.0}),
    ("construct", {"n": 8, "k": 10, "m": 8, "snr_db": 0.0}),
    ("bler", {"codes": [[12, 4, 8], [8, 4, 12]], "snr_db": 0.0,
              "trials": 20}),
])
def test_config_errors_exit_2(tmp_path, monkeypatch, capsys, command, cfg):
    if command == "simulate":
        # Without trials, cfg lists the entries of a schemes.json.  With
        # them, cfg is given as is, and a valid schemes.json is written
        # under the name str() makes of its schemes value.
        if "trials" in cfg:
            path, entries = tmp_path / str(cfg["schemes"]), [_scheme_entry()]
        else:
            path, entries = tmp_path / "schemes.json", cfg["schemes"]
            cfg.update(schemes=str(path), trials=10)
        path.write_text(json.dumps({"schema_version": 1, "schemes": entries}))
    # Every trial of simulate and bler is drawn through _run_chunks.
    drawn = []
    run_chunks = rcpolar.simulate._run_chunks
    monkeypatch.setattr(rcpolar.simulate, "_run_chunks", lambda *args, **kw:
                        drawn.append(args) or run_chunks(*args, **kw))
    monkeypatch.chdir(tmp_path)
    cfg["out"] = str(tmp_path / "o")
    assert _run(tmp_path, command, cfg) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not drawn


@pytest.mark.parametrize("out", ["5", "true", '["x"]', '"a\\u0000b"'])
def test_non_string_out_exits_2(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    rc = main(["design", "--set", "k=8", "--set", "t_max=1", "--set", "q=12",
               "--set", "snr_db=0.0", "--set", f"out={out}"])
    assert rc == 2
    assert "out must be a string" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_design_reads_curves_not_codes(tmp_path, monkeypatch):
    # One GA pass per block of mother codes (n0 = 32, 64 and 128 here), and
    # the chosen m's curve comes from the search: no extra pass, no
    # puncture pattern and no code.
    calls = {"ga_evolve": 0, "puncture_pattern": 0, "RcpCode": 0}

    def counting(name):
        original = getattr(rcpolar.construct, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(rcpolar.construct, name, wrapper)

    for name in calls:
        counting(name)
    cfg = {"k": 32, "t_max": 2, "q": 96, "snr_db": 0.0,
           "out": str(tmp_path / "d")}
    assert _run(tmp_path, "design", cfg) == 0
    assert calls == {"ga_evolve": 3, "puncture_pattern": 0, "RcpCode": 0}


@pytest.mark.parametrize("force,s", [(False, [8, 11, 15]),
                                     (True, [9, 9, 13])])
def test_design_force_flag(tmp_path, force, s):
    # Only a JSON boolean sets forcing; each value gives its own design.
    cfg = {"k": 8, "t_max": 2, "q": 24, "snr_db": 0.0,
           "force_n1_equals_m": force, "out": str(tmp_path / "o")}
    assert _run(tmp_path, "design", cfg) == 0
    doc = json.loads((tmp_path / "o" / "schemes.json").read_text())
    assert doc["schemes"][0]["s"] == s


def test_runtime_value_error_exits_3(tmp_path, monkeypatch, capsys):
    # A ValueError raised mid-run is a runtime failure, not bad usage.
    path = _small_schemes(tmp_path)

    def miscounted(*args, **kwargs):
        raise ValueError("counted 9 trials, expected 10")

    monkeypatch.setattr(rcpolar.simulate, "_report_from_counts", miscounted)
    sim_cfg = {"schemes": str(path), "trials": 10, "out": str(tmp_path / "s")}
    assert _run(tmp_path, "simulate", sim_cfg) == 3
    assert "counted 9 trials" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    cfg = {"n": 8, "k": 4, "m": 8, "snr_db": 0.0, "out": str(blocker)}
    assert _run(tmp_path, "construct", cfg) == 3


def test_construct_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = {"n": 8, "k": 4, "m": 8, "snr_db": 0.0}
    assert _run(tmp_path, "construct", cfg, ["--out", str(out1)]) == 0
    assert _run(tmp_path, "construct", cfg, ["--out", str(out2)]) == 0

    doc = json.loads((out1 / "code.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["config"]["n"] == 8
    assert doc["code"]["rep_vector"] == []  # n == m: no repetitions
    assert doc["code"]["puncture_set"] == []

    a = (out1 / "code.json").read_bytes()
    b = (out2 / "code.json").read_bytes()
    # the config embeds the out path; compare after masking it
    assert a.replace(str(out1).encode(), b"X") == b.replace(str(out2).encode(), b"X")

    csv = (out1 / "reliability.csv").read_text().splitlines()
    assert csv[0].startswith("# schema_version=")
    assert "index,mean,pe" in csv
    assert len([l for l in csv if not l.startswith("#")]) == 9  # header + 8 rows


def test_construct_files_match_library(tmp_path):
    # m = 56 < n0 = 64: a punctured mother code with 16 repetitions.
    out = tmp_path / "o"
    cfg = {"n": 72, "k": 32, "m": 56, "snr_db": 0.0, "out": str(out)}
    assert _run(tmp_path, "construct", cfg) == 0
    channel = channel_llr_distribution(ChannelParams(snr_db=0.0))
    code, plan, _ = construct_rcp(72, 32, 56, channel)
    doc = json.loads((out / "code.json").read_text())
    assert doc["code"] == code_to_dict(code)
    assert doc["bler_estimate"] == plan.union_bound

    punct = puncture_pattern(64, 56)
    assert punct.size == 8
    assert doc["code"]["puncture_set"] == punct.tolist()
    table = ga_evolve(64, [56], channel.mean)
    expect = ["index,mean,pe"] + [
        f"{i},{float(m)!r},{float(p)!r}"
        for i, (m, p) in enumerate(zip(table.means[0], table.pe[0]))]
    assert _data_lines(out / "reliability.csv") == expect


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "o"
    cfg = {"n": 8, "k": 4, "m": 8, "snr_db": 0.0, "out": "/nonexistent"}
    assert _run(tmp_path, "construct", cfg, ["--out", str(out)]) == 0
    assert (out / "code.json").exists()


def test_set_override(tmp_path):
    out = tmp_path / "o"
    cfg = {"n": 8, "k": 4, "m": 8, "snr_db": 0.0, "out": str(out)}
    assert _run(tmp_path, "construct", cfg, ["--set", "snr_db=2.5"]) == 0
    doc = json.loads((out / "code.json").read_text())
    assert doc["config"]["snr_db"] == 2.5


def test_design_then_simulate_pipeline(tmp_path):
    design_out = tmp_path / "design"
    cfg = {"k": 8, "t_max": 2, "q": 20, "snr_db": [0.0, 2.0],
           "out": str(design_out)}
    assert _run(tmp_path, "design", cfg) == 0
    doc = json.loads((design_out / "schemes.json").read_text())
    assert len(doc["schemes"]) == 2
    for entry in doc["schemes"]:
        assert entry["s"][0] >= 8
        assert (design_out / entry["bler_curve_path"]).exists()

    sim_out = tmp_path / "sim"
    sim_cfg = {"schemes": str(design_out / "schemes.json"), "trials": 200,
               "snr_db": [0.0], "out": str(sim_out), "seed": 1}
    assert _run(tmp_path, "simulate", sim_cfg) == 0
    report = json.loads((sim_out / "report.json").read_text())
    assert len(report["reports"]) == 1
    entry = report["reports"][0]
    assert entry["trials"] == 200
    assert "bound_check" in entry
    csv_lines = (sim_out / "report.csv").read_text().splitlines()
    data = [l for l in csv_lines if not l.startswith("#")]
    assert data[0].startswith("snr_db,t,")
    assert len(data) == 1 + len(entry["pr_e"])


def test_design_deterministic_artifacts(tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        cfg = {"k": 6, "t_max": 2, "q": 14, "snr_db": 1.0, "out": str(out)}
        assert _run(tmp_path, "design", cfg) == 0
        outs.append((out / "schemes.json").read_text()
                    .replace(str(out), "OUT"))
    assert outs[0] == outs[1]


def test_simulate_requires_matching_snr(tmp_path):
    design_out = tmp_path / "design"
    cfg = {"k": 6, "t_max": 1, "q": 10, "snr_db": 1.0, "out": str(design_out)}
    assert _run(tmp_path, "design", cfg) == 0
    sim_cfg = {"schemes": str(design_out / "schemes.json"), "trials": 10,
               "snr_db": [9.0], "out": str(tmp_path / "s")}
    assert _run(tmp_path, "simulate", sim_cfg) == 2


def test_bler_command(tmp_path):
    out = tmp_path / "bler"
    cfg = {"codes": [[12, 4, 8]], "snr_db": [0.0, 3.0], "trials": 500,
           "out": str(out), "seed": 3}
    assert _run(tmp_path, "bler", cfg) == 0
    lines = (out / "bler.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "snr_db,n,k,m,trials,errors,bler,ci95,bler_analytic"
    assert len(data) == 3
    first = data[1].split(",")
    assert first[1:4] == ["12", "4", "8"]
    assert 0.0 <= float(first[6]) <= 1.0


def test_bler_zero_trials_exits_2(tmp_path, capsys):
    cfg = {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 0,
           "out": str(tmp_path / "bler")}
    assert _run(tmp_path, "bler", cfg) == 2
    assert "trial" in capsys.readouterr().err


@pytest.mark.parametrize("codes,name", [([[12, 4, True]], "m in codes[0]"),
                                        ([[12, 4, 8], [12, 4.0, 8]],
                                         "k in codes[1]")])
def test_bler_names_the_code_entry_it_rejects(tmp_path, capsys, codes, name):
    # A bool m exited 2 naming the library's parameter: "ms entries must
    # be integers".
    cfg = {"codes": codes, "snr_db": 0.0, "trials": 20,
           "out": str(tmp_path / "bler")}
    assert _run(tmp_path, "bler", cfg) == 2
    err = capsys.readouterr().err
    assert name in err and "ms" not in err
    assert not (tmp_path / "bler").exists()


# Outputs of the pipeline below, recorded before the mother-code builder
# and the Monte Carlo driver were merged.  Counts and sets must match
# exactly; model values to a relative 1e-9, as in test_pinned_identity.
PINNED_PIPELINE = {
    "info_set": [15, 21, 23, 25, 27, 29, 30, 31],
    "puncture_set": [0, 2, 4, 8, 10, 12, 16, 18, 20, 24, 26, 28],
    "rep_vector": [21, 25, 21, 25],
    "bler_estimate": 0.0013605486721828053,
    "s": [8, 8, 10, 13],
    "eta_estimate": 0.7723036967276419,
    "fails": [131, 64, 22],
    "first_success": [269, 77, 36],
    "nesting_violations": 12,
    "eta_analytic": 0.7723036967276419,
    "e_k": 7.64,
    "e_n": 9.06,
    "eta": 0.8432671081677703,
    "ci95": {"pr_e": [0.04580082785476488, 0.03590142447422268,
                      0.02263447682921127],
             "pr_first_success": [0.04580082785476488, 0.038564005314520186,
                                  0.02818274690766709],
             "eta": 0.029206956455237375},
    "errors": [21, 14],
    "bler_analytic": [0.005698076730842801, 0.007761292941557695],
    # bler_curve_snr1.csv, n = 8..32
    "bler_curve": [
        0.5265876289412779, 0.28019309974942685, 0.19927735742951805,
        0.14197863771895772, 0.10456148827518298, 0.06831142022041041,
        0.052229701966818226, 0.04028450352516784, 0.03212518797681428,
        0.024197655073436176, 0.019605614642946433, 0.015878998737965094,
        0.013067443633480015, 0.01102610163944827, 0.009072754257271347,
        0.007172680528506439, 0.006050310904621682, 0.004928135119382368,
        0.004011446156744496, 0.003314398157109486, 0.002804248647137274,
        0.002315587326025732, 0.0018399501209572034, 0.001555866060325184,
        0.0012718301180765488],
    # The data lines (all but the "#" envelope) of reliability.csv,
    # report.csv and bler.csv, recorded at 58ec728: every byte a float's
    # repr and an int's str give.  reliability.csv is pinned by the sha256
    # of its 33 lines, each ending in a newline.
    "reliability_csv_sha256":
        "d3e4f7abacd522b3b7ab76c9ed7581c29984d4e395080e7b0fb841f0525a2258",
    "report_csv": [
        "snr_db,t,pr_e,pr_first_success,eta,ci_pr_e,ci_pr_first_success,"
        "ci_eta",
        "1.0,1,0.3275,0.6725,0.8432671081677703,0.04580082785476488,"
        "0.04580082785476488,0.029206956455237375",
        "1.0,2,0.16,0.1925,0.8432671081677703,0.03590142447422268,"
        "0.038564005314520186,0.029206956455237375",
        "1.0,3,0.055,0.09,0.8432671081677703,0.02263447682921127,"
        "0.02818274690766709,0.029206956455237375"],
    "bler_csv": [
        "snr_db,n,k,m,trials,errors,bler,ci95,bler_analytic",
        "0.0,24,8,20,2000,21,0.0105,0.004560507263299866,0.005698076730842801",
        "0.0,40,16,32,2000,14,0.007,0.0037707582537366002,"
        "0.007761292941557695"],
}


def test_pinned_pipeline_outputs(tmp_path):
    ref = PINNED_PIPELINE
    rel = pytest.approx
    assert _run(tmp_path, "construct", {"n": 24, "k": 8, "m": 20, "snr_db": 1.0,
                                        "out": str(tmp_path / "c")}) == 0
    code = json.loads((tmp_path / "c" / "code.json").read_text())
    for key in ("info_set", "puncture_set", "rep_vector"):
        assert code["code"][key] == ref[key]
    assert code["bler_estimate"] == rel(ref["bler_estimate"], rel=1e-9)
    reliability = _data_lines(tmp_path / "c" / "reliability.csv")
    assert len(reliability) == 33
    assert hashlib.sha256("".join(line + "\n" for line in reliability)
                          .encode()).hexdigest() \
        == ref["reliability_csv_sha256"]

    assert _run(tmp_path, "design", {"k": 8, "t_max": 3, "q": 32,
                                     "snr_db": 1.0,
                                     "out": str(tmp_path / "d")}) == 0
    (scheme,) = json.loads((tmp_path / "d" / "schemes.json")
                           .read_text())["schemes"]
    assert scheme["s"] == ref["s"]
    assert scheme["eta_estimate"] == rel(ref["eta_estimate"], rel=1e-9)
    assert scheme["bler_curve_path"] == "bler_curve_snr1.csv"
    curve = _data_lines(tmp_path / "d" / "bler_curve_snr1.csv")
    assert curve == ["n,bler"] + [f"{n},{e!r}" for n, e in
                                  enumerate(ref["bler_curve"], 8)]

    trials = 400
    assert _run(tmp_path, "simulate", {
        "schemes": str(tmp_path / "d" / "schemes.json"), "trials": trials,
        "seed": 11, "out": str(tmp_path / "s")}) == 0
    (rep,) = json.loads((tmp_path / "s" / "report.json").read_text())["reports"]
    assert rep.keys() == {"snr_db", "k", "s", "trials", "base_seed", "pr_e",
                          "pr_first_success", "e_k", "e_n", "eta",
                          "eta_analytic", "ci95", "nesting_violations",
                          "bound_check"}
    assert rep["bound_check"].keys() == {"rows", "eta_holds", "all_hold"}
    assert [row.keys() for row in rep["bound_check"]["rows"]] == 3 * [
        {"t", "marginal_decrease", "first_success", "slack", "holds"}]
    assert rep["s"] == ref["s"] and rep["k"] == 8 and rep["trials"] == trials
    assert rep["pr_e"] == [c / trials for c in ref["fails"]]
    assert rep["pr_first_success"] == [c / trials
                                       for c in ref["first_success"]]
    assert rep["nesting_violations"] == ref["nesting_violations"]
    assert rep["eta_analytic"] == rel(ref["eta_analytic"], rel=1e-9)
    for key in ("e_k", "e_n", "eta", "ci95"):
        assert rep[key] == ref[key], key
    assert _data_lines(tmp_path / "s" / "report.csv") == ref["report_csv"]

    assert _run(tmp_path, "bler", {
        "codes": [[24, 8, 20], [40, 16, 32]], "snr_db": 0.0, "trials": 2000,
        "seed": 13, "out": str(tmp_path / "b")}) == 0
    lines = _data_lines(tmp_path / "b" / "bler.csv")
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[5]) for r in rows] == ref["errors"]
    assert [float(r[8]) for r in rows] == rel(ref["bler_analytic"], rel=1e-9)
    assert lines == ref["bler_csv"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def _small_schemes(tmp_path):
    design_out = tmp_path / "design"
    cfg = {"k": 6, "t_max": 1, "q": 10, "snr_db": 1.0, "out": str(design_out)}
    assert _run(tmp_path, "design", cfg) == 0
    return design_out / "schemes.json"


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, threads):
    cfg = {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 20,
           "out": str(tmp_path / "bler")}
    assert _run(tmp_path, "bler", cfg, ["--threads", threads]) == 2
    cfg["threads"] = int(threads)
    assert _run(tmp_path, "bler", cfg) == 2


def test_integer_scheme_snr_writes_the_float_report(tmp_path):
    # ChannelParams stores float(snr_db), so a schemes.json SNR of 1 writes
    # the same report.json bytes as one of 1.0.
    path = tmp_path / "schemes.json"
    sim_cfg = {"schemes": str(path), "trials": 10, "out": str(tmp_path / "s")}
    reports = []
    for snr in (1, 1.0):
        path.write_text(json.dumps({"schema_version": 1,
                                    "schemes": [_scheme_entry(snr_db=snr)]}))
        assert _run(tmp_path, "simulate", sim_cfg) == 0
        reports.append((tmp_path / "s" / "report.json").read_bytes())
    assert b'"snr_db": 1.0' in reports[0] and reports[0] == reports[1]


def test_simulate_matches_snr_to_within_tolerance(tmp_path):
    path = _small_schemes(tmp_path)
    doc = json.loads(path.read_text())
    doc["schemes"][0]["snr_db"] = 0.1 + 0.2   # 0.30000000000000004
    path.write_text(json.dumps(doc))
    sim_cfg = {"schemes": str(path), "trials": 10, "snr_db": [0.3],
               "out": str(tmp_path / "s")}
    assert _run(tmp_path, "simulate", sim_cfg) == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert len(report["reports"]) == 1


@pytest.mark.parametrize("version", [None, 2, "1"])
def test_simulate_rejects_schema_version_mismatch(tmp_path, capsys, version):
    path = _small_schemes(tmp_path)
    doc = json.loads(path.read_text())
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    path.write_text(json.dumps(doc))
    sim_cfg = {"schemes": str(path), "trials": 10,
               "out": str(tmp_path / "s")}
    assert _run(tmp_path, "simulate", sim_cfg) == 2
    assert "schema_version" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [{"s": [6, 5]}, {"s": [6, 8, 8]},
                                  {"k": 0}, {"s": "6,8"}])
def test_simulate_rejects_bad_scheme_exit_2(tmp_path, capsys, edit):
    path = _small_schemes(tmp_path)
    doc = json.loads(path.read_text())
    doc["schemes"][0].update(edit)
    path.write_text(json.dumps(doc))
    sim_cfg = {"schemes": str(path), "trials": 10,
               "out": str(tmp_path / "s")}
    assert _run(tmp_path, "simulate", sim_cfg) == 2
    assert "bad scheme" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# A config fuzzer: each command starts from a tiny valid config (one chunk
# of trials, so no threads value starts a pool) and one key, picked by index,
# is set to a JSON value given through --set.  The key is one of the
# config's or _EXTRA_KEY, which no command takes.  The command must exit 0,
# or exit 2 and write nothing; at _EXTRA_KEY it must exit 2.  Every listed
# edge value is tried at every key; hypothesis draws further values.  "out"
# is not drawn: the run must own its output path, and
# test_non_string_out_exits_2 covers that key.
_EDGE_VALUES = [True, False, None, 0, -1, 2 ** 64, 10 ** 400, 1e308, -1e308,
                math.nan, math.inf, -math.inf, "", "\0", [], [[]]]
_LEAVES = st.sampled_from(_EDGE_VALUES) | st.floats() | st.text(max_size=8)
_JSON_VALUES = _LEAVES | st.lists(_LEAVES | st.lists(_LEAVES, max_size=2),
                                  max_size=3)

_TINY_CONFIGS = {
    "construct": {"n": 12, "k": 4, "m": 8, "snr_db": 0.0},
    "design": {"k": 4, "t_max": 2, "q": 12, "snr_db": 0.0,
               "force_n1_equals_m": False},
    "simulate": {"schemes": "schemes.json", "trials": 16, "snr_db": 0.0},
    "bler": {"codes": [[12, 4, 8]], "snr_db": 0.0, "trials": 16},
}
_EXTRA_KEY = "force_n1_equal_m"
_MOST_KEYS = max(len(cfg) for cfg in _TINY_CONFIGS.values()) + 3


def _every_edge_value_at_every_key(test):
    for key in range(_MOST_KEYS):
        for value in _EDGE_VALUES:
            test = example(key=key, value=value)(test)
    return test


@pytest.mark.parametrize("command", sorted(_TINY_CONFIGS))
@settings(max_examples=40, deadline=None)
@_every_edge_value_at_every_key
@given(key=st.integers(0, _MOST_KEYS - 1), value=_JSON_VALUES)
def test_config_fuzz_exits_0_or_2(command, key, value):
    keys = [*sorted([*_TINY_CONFIGS[command], "seed", "threads"]), _EXTRA_KEY]
    name = keys[key % len(keys)]
    rc = _fuzz_exit_code(command, name, value)
    assert rc == 2 or name != _EXTRA_KEY


# Edge values at the length keys only: MAX_LENGTH = 2^20 and one past it.
# One past exits 2 at every key; the limit itself runs wherever the rest of
# the tiny config allows it, design's q = 2^20 at k = 4 included.
@pytest.mark.parametrize("command,key,at_limit", [
    ("construct", "n", 0), ("construct", "k", 2), ("construct", "m", 2),
    ("design", "k", 2), ("design", "q", 0), ("design", "t_max", 0)])
@pytest.mark.parametrize("value", [2 ** 20, 2 ** 20 + 1])
def test_config_fuzz_lengths_at_the_limit(command, key, at_limit, value):
    want = at_limit if value == 2 ** 20 else 2
    assert _fuzz_exit_code(command, key, value) == want


def _fuzz_exit_code(command, name, value):
    """The exit code of ``command``'s tiny config with ``name`` set to
    ``value``, run under a memory cap: 0, or 2 with nothing written."""
    cfg = dict(_TINY_CONFIGS[command], seed=0, threads=1)
    cfg[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "schemes.json").write_text(json.dumps({
            "schema_version": 1, "schemes": [_scheme_entry(
                snr_db=0.0, k=4, s=[8, 8, 12])]}))
        if cfg.get("schemes") == "schemes.json":
            cfg["schemes"] = str(tmp / "schemes.json")
        out = tmp / "o"
        argv = [command, "--out", str(out)]
        for key, entry in cfg.items():
            argv += ["--set", f"{key}={json.dumps(entry)}"]
        with contextlib.redirect_stderr(io.StringIO()), memory_headroom():
            rc = main(argv)
        assert rc in (0, 2)
        if rc == 2:
            assert not out.exists()
    return rc


class _Unwritable:
    def __repr__(self):
        raise RuntimeError("serializer failed")


def test_output_writes_replace_the_file_whole_or_not_at_all(tmp_path,
                                                            monkeypatch):
    # A write that fails partway leaves the earlier file as it was and no
    # temporary file; a write that succeeds is renamed into place from the
    # same directory.
    write_json, write_csv = rcpolar.cli._write_json, rcpolar.cli._write_csv
    renames = []
    replace = rcpolar.cli.os.replace
    monkeypatch.setattr(rcpolar.cli.os, "replace",
                        lambda src, dst: renames.append((src, dst))
                        or replace(src, dst))
    doc, table = tmp_path / "report.json", tmp_path / "bler.csv"
    write_json(doc, {"a": [1, 2.5]})
    write_csv(table, "bler", {"seed": 1}, ("n", "bler"), [(8, 0.5)])
    before = {p: p.read_bytes() for p in (doc, table)}
    assert [(Path(src).parent, dst) for src, dst in renames] == [
        (tmp_path, doc), (tmp_path, table)]
    with pytest.raises(TypeError):  # json meets the object after "a"
        write_json(doc, {"a": list(range(1000)), "z": object()})
    with pytest.raises(RuntimeError, match="serializer failed"):
        write_csv(table, "bler", {"seed": 1}, ("n", "bler"),
                  [(8, 0.25), (9, _Unwritable())])
    assert {p: p.read_bytes() for p in (doc, table)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [table.name,
                                                         doc.name]
    assert len(renames) == 2
