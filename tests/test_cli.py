import io
import json

import numpy as np
import pytest

import rcpolar.construct
import rcpolar.simulate
from rcpolar.channel import ChannelParams, channel_llr_distribution
from rcpolar.cli import main
from rcpolar.codec import code_to_dict
from rcpolar.construct import construct_rcp
from rcpolar.reliability import ReliabilityTable, ga_evolve, puncture_pattern


def _run(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfg_path), *extra])


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_key_exits_2(tmp_path, capsys):
    rc = _run(tmp_path, "construct", {"n": 8, "k": 4, "out": str(tmp_path / "o")})
    assert rc == 2
    assert "missing config keys" in capsys.readouterr().err


def test_invalid_parameters_exit_2(tmp_path):
    cfg = {"n": 8, "k": 10, "m": 8, "snr_db": 0.0, "out": str(tmp_path / "o")}
    assert _run(tmp_path, "construct", cfg) == 2


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
])
def test_config_errors_exit_2(tmp_path, capsys, command, cfg):
    if command == "simulate":
        path = tmp_path / "schemes.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "schemes": cfg["schemes"]}))
        cfg.update(schemes=str(path), trials=10)
    cfg["out"] = str(tmp_path / "o")
    assert _run(tmp_path, command, cfg) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["5", "true", '["x"]'])
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
    # puncture pattern and no code spec.
    calls = {"ga_evolve": 0, "puncture_pattern": 0, "PolarCodeSpec": 0}

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
    assert calls == {"ga_evolve": 3, "puncture_pattern": 0,
                     "PolarCodeSpec": 0}


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
    code, _, bler = construct_rcp(72, 32, 56, channel)
    doc = json.loads((out / "code.json").read_text())
    assert doc["code"] == code_to_dict(code)
    assert doc["bler_estimate"] == bler

    punct = puncture_pattern(64, 56)
    assert punct.size == 8
    assert doc["code"]["puncture_set"] == punct.tolist()
    table = ga_evolve(64, [56], channel.mean)
    expect = io.StringIO()
    ReliabilityTable(means=table.means[0], pe=table.pe[0]).to_csv(expect)
    rows = [line for line in (out / "reliability.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows == expect.getvalue().splitlines()


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

    assert _run(tmp_path, "design", {"k": 8, "t_max": 3, "q": 32,
                                     "snr_db": 1.0,
                                     "out": str(tmp_path / "d")}) == 0
    (scheme,) = json.loads((tmp_path / "d" / "schemes.json")
                           .read_text())["schemes"]
    assert scheme["s"] == ref["s"]
    assert scheme["eta_estimate"] == rel(ref["eta_estimate"], rel=1e-9)
    assert scheme["bler_curve_path"] == "bler_curve_snr1.csv"
    curve = [line for line in (tmp_path / "d" / "bler_curve_snr1.csv")
             .read_text().splitlines() if not line.startswith("#")]
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

    assert _run(tmp_path, "bler", {
        "codes": [[24, 8, 20], [40, 16, 32]], "snr_db": 0.0, "trials": 2000,
        "seed": 13, "out": str(tmp_path / "b")}) == 0
    rows = [line.split(",") for line in
            (tmp_path / "b" / "bler.csv").read_text().splitlines()
            if not line.startswith(("#", "snr_db"))]
    assert [int(r[5]) for r in rows] == ref["errors"]
    assert [float(r[8]) for r in rows] == rel(ref["bler_analytic"], rel=1e-9)


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
