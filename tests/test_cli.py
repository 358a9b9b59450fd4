"""Scenario loading, command dispatch, outputs, and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hotuner import SystemKind
from hotuner.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    bundled_scenario_path,
    load_scenario,
    main,
)


def scenario_dict():
    return {
        "name": "tiny",
        "systems": ["ht"],
        "signal": {
            "dimension": 2,
            "offsets": [1.0, 1.0],
            "amplitudes": [0.0, 2.0],
            "frequencies": [0.0, 1.0],
            "phases": [0.0, 0.0],
            "theta_star": [1.0, -1.0],
        },
        "gains": {"beta": 1.0, "gamma": 0.1, "mu": 0.2, "beta_r": 4.0},
        "sim": {"step_h": 1e-3, "t_end": 1.0, "record_every": 10, "seed": 0},
        "cl": {"epsilon": 1.0, "N_bar": 4, "online": True},
        "init": {"mode": "fixed", "theta0": [3.0, 0.5]},
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_bundled_fig1_loads():
    scenario = load_scenario(bundled_scenario_path("fig1"))
    assert scenario.name == "fig1"
    assert scenario.systems == [
        SystemKind.BASIC,
        SystemKind.BASIC_CL,
        SystemKind.HT,
        SystemKind.HT_CL,
        SystemKind.HT_CL_SOFTRESET,
    ]
    assert scenario.signal.dimension == 3
    assert np.array_equal(scenario.signal.theta_star, [2.0, -1.0, 0.5])
    assert scenario.gains.beta == 1.0 and scenario.gains.beta_r == 4.0
    assert scenario.gains.rate_condition_ok
    assert scenario.sim.t_end == 100.0 and scenario.sim.record_every == 100
    assert scenario.cl_N_bar == 10 and scenario.cl_online
    # random init is reproducible from the sim seed
    want = np.random.default_rng(0).uniform(-5.0, 5.0, 3)
    assert np.array_equal(scenario.init_theta0, want)


def test_bundled_fig2_loads():
    scenario = load_scenario(bundled_scenario_path("fig2"))
    assert scenario.name == "fig2"
    assert SystemKind.HT_NORMALIZED_CL_SOFTRESET in scenario.systems


def test_bundled_scenario_path_unknown_name():
    with pytest.raises(FileNotFoundError, match="nope"):
        bundled_scenario_path("nope")


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(tmp_path / "absent.json")


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["gains"].update(gama=1.0), "unknown key 'gains.gama'"),
        (lambda d: d["gains"].pop("beta"), "missing key 'gains.beta'"),
        (lambda d: d.pop("cl"), "missing key 'cl'"),
        (lambda d: d["cl"].pop("online"), "missing key 'cl.online'"),
        (lambda d: d["systems"].append("hyperdrive"), "unknown system 'hyperdrive'"),
        (lambda d: d["init"].update(mode="guess"), "'init.mode'"),
        (lambda d: d["cl"].update(N_bar=1), "at least the signal dimension"),
        (lambda d: d["cl"].update(epsilon=0.0), "'cl.epsilon' must be positive"),
        (lambda d: d["cl"].update(online=1), "'cl.online' must be a boolean"),
        (lambda d: d["signal"].update(wavelength=2.0),
         "signal: unknown signal descriptor key 'wavelength'"),
        (lambda d: d["sim"].update(step_h="fast"), "'sim.step_h' must be a number"),
        (lambda d: d["init"].update(mode="fixed", theta0=[1.0]),
         "match the signal dimension"),
    ],
)
def test_load_scenario_rejects_bad_config(tmp_path, mutate, message):
    data = scenario_dict()
    mutate(data)
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match=message.replace("(", "\\(")):
        load_scenario(path)
    # the same failure through the CLI maps to the config exit code
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG


def test_load_scenario_rejects_fractional_horizon(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_dict())
    with pytest.raises(ConfigError, match="sim: horizon .* not a whole number of steps"):
        load_scenario(path, t_end=1.0005)
    assert main(["run", path, "--t-end", "1.0005", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "not a whole number of steps" in capsys.readouterr().err


def test_load_scenario_overrides(tmp_path):
    path = write_scenario(tmp_path, scenario_dict())
    scenario = load_scenario(path, seed=3, step_h=5e-3, t_end=7.0)
    assert scenario.sim.seed == 3
    assert scenario.sim.step_h == 5e-3
    assert scenario.sim.t_end == 7.0


def test_system_filter(tmp_path):
    data = scenario_dict()
    data["systems"] = ["basic", "ht"]
    path = write_scenario(tmp_path, data)
    scenario = load_scenario(path, systems=["ht"])
    assert scenario.systems == [SystemKind.HT]
    with pytest.raises(ConfigError, match="unknown system 'warp'"):
        load_scenario(path, systems=["warp"])
    with pytest.raises(ConfigError, match="not in scenario"):
        load_scenario(path, systems=["ht_b"])


def test_run_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("fig1")), "--t-end", "2",
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "fig1_basic.csv",
        "fig1_basic_cl.csv",
        "fig1_basic_cl_buffer.csv",
        "fig1_ht.csv",
        "fig1_ht_cl.csv",
        "fig1_ht_cl_buffer.csv",
        "fig1_ht_cl_softreset.csv",
        "fig1_ht_cl_softreset_buffer.csv",
        "fig1_report.csv",
    ]
    report = (out / "fig1_report.csv").read_text().splitlines()
    assert report[0] == ("system,final_err_norm,t_to_0.1,t_to_0.01,t_to_0.001,"
                         "decay_rate,fit_quality,buffer_fill_time")
    assert len(report) == 6
    stdout = capsys.readouterr().out
    assert "wrote 5 trajectories" in stdout
    assert "basic_cl" in stdout


def test_run_is_deterministic(tmp_path):
    base = ["run", str(bundled_scenario_path("fig1")), "--t-end", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out-dir", str(out_a)]) == EXIT_OK
    assert main(base + ["--out-dir", str(out_b)]) == EXIT_OK
    for path in sorted(out_a.iterdir()):
        twin = out_b / path.name
        assert twin.read_bytes() == path.read_bytes()


def test_run_system_filter_cli(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("fig1")), "--t-end", "1",
               "--system", "ht", "--out-dir", str(out)])
    assert rc == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fig1_ht.csv", "fig1_report.csv"]


def test_run_system_filter_errors(tmp_path, capsys):
    fig1 = str(bundled_scenario_path("fig1"))
    assert main(["run", fig1, "--system", "warp"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert main(["run", fig1, "--system", "ht_b"]) == EXIT_CONFIG
    assert "not in scenario" in capsys.readouterr().err


def test_run_single_row_when_span_is_empty(tmp_path):
    data = scenario_dict()
    data["systems"] = ["basic"]
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", path, "--t-end", "0", "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "tiny_basic.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial row


def test_pe_check_matches_reference(tmp_path, capsys, reference):
    out = tmp_path / "out"
    rc = main(["pe-check", str(bundled_scenario_path("fig1")), "--out-dir", str(out)])
    assert rc == EXIT_OK
    assert "PE satisfied" in capsys.readouterr().out
    header, row = (out / "fig1_pe.csv").read_text().splitlines()
    assert header.startswith("window_T,delta_hat,M_hat")
    values = [float(cell) for cell in row.split(",")]
    want = reference["pe"]
    assert abs(values[0] - want["window_T"]) < 1e-12
    assert abs(values[1] - want["delta_hat"]) < 1e-9
    assert abs(values[2] - want["M_hat"]) < 1e-9


def test_certify_passes_on_reduced_scenario(tmp_path, capsys):
    data = scenario_dict()
    data["name"] = "certify_me"
    data["systems"] = ["ht", "ht_cl"]
    data["signal"] = json.loads(
        bundled_scenario_path("fig1").read_text())["signal"]
    data["sim"] = {"step_h": 1e-3, "t_end": 10.0, "record_every": 10, "seed": 0}
    data["cl"] = {"epsilon": 1.0, "N_bar": 10, "online": True}
    data["init"] = {"mode": "random", "range": 5.0}
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    rc = main(["certify", path, "--out-dir", str(out)])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "all certificates passed" in stdout
    lines = (out / "certify_me_certificates.csv").read_text().splitlines()
    assert lines[0] == "system,check,checked_points,violations,worst_margin,tolerance"
    checks = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert ("ht", "pointwise") in checks
    assert ("ht", "auxiliary") in checks
    assert ("ht_cl", "trajectory") in checks


def test_certify_rejects_unproven_gains(tmp_path, capsys):
    data = scenario_dict()
    data["gains"] = {"beta": 1.0, "gamma": 0.9, "mu": 0.2}
    path = write_scenario(tmp_path, data)
    rc = main(["certify", path, "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "beta >= 2 gamma / mu" in capsys.readouterr().err


def test_certify_baselines_only(tmp_path, capsys):
    data = scenario_dict()
    data["systems"] = ["basic", "basic_cl"]
    path = write_scenario(tmp_path, data)
    rc = main(["certify", path, "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    assert "nothing to certify" in capsys.readouterr().out


def test_certify_reports_violations(tmp_path, capsys, monkeypatch):
    # healthy dynamics never fail the decrease check, so inject a failing
    # report to reach the violation exit path
    from hotuner import certificates

    def fabricated_failure(trajectory, v_values, step, **kwargs):
        return certificates.CertificateReport(
            checked_points=3, violations=1, worst_margin=0.25, tolerance=0.0)

    monkeypatch.setattr(certificates, "check_decrease_along", fabricated_failure)
    data = scenario_dict()
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    rc = main(["certify", path, "--out-dir", str(out)])
    stdout = capsys.readouterr().out
    assert rc == EXIT_CERTIFICATE
    assert "trajectory FAIL" in stdout
    assert "certificate violations found" in stdout
    lines = (out / "tiny_certificates.csv").read_text().splitlines()
    assert "ht,trajectory,3,1,0.25,0.0" in lines


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_reports_divergence(tmp_path, capsys):
    data = scenario_dict()
    data["signal"] = {
        "dimension": 1,
        "offsets": [1.0],
        "amplitudes": [1.0],
        "frequencies": [1.0],
        "phases": [0.0],
        "theta_star": [1.0],
    }
    data["gains"] = {"beta": 1e8, "gamma": 1e8, "mu": 0.2}
    data["cl"] = {"epsilon": 1.0, "N_bar": 1, "online": True}
    data["init"] = {"mode": "fixed", "theta0": [4.0]}
    path = write_scenario(tmp_path, data)
    rc = main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_NUMERIC
    assert "numerical divergence" in capsys.readouterr().err


def test_main_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hotuner", "run", str(bundled_scenario_path("fig1")),
         "--t-end", "1", "--system", "basic", "--out-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fig1_basic.csv").exists()
