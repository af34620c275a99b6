import json

import pytest

from rcpolar.cli import main


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
