"""Scenario loading, command dispatch, outputs, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hotuner
from hotuner import SystemKind
from hotuner.cli import (
    _SECTIONS,
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
    assert scenario.cl_N_bar == 10
    # the bundled files leave cl.online out: recording online is the default
    assert "online" not in json.loads(bundled_scenario_path("fig1").read_text())["cl"]
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
        (lambda d: d["cl"].pop("epsilon"), "missing key 'cl.epsilon'"),
        (lambda d: d["systems"].append("hyperdrive"), "unknown system 'hyperdrive'"),
        (lambda d: d["init"].update(mode="guess"), "'init.mode'"),
        (lambda d: d["cl"].update(N_bar=1), "at least the signal dimension"),
        (lambda d: d["cl"].update(epsilon=0.0), "'cl.epsilon' must be positive"),
        (lambda d: d["cl"].update(online=1), "'cl.online' must be a boolean"),
        (lambda d: d["signal"].update(wavelength=2.0), "unknown key 'signal.wavelength'"),
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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(gains=5), "'gains' must be an object"),
        (lambda d: d.update(signal=5), "'signal' must be an object"),
        (lambda d: d.update(sim=None), "'sim' must be an object"),
        (lambda d: d.update(cl=3), "'cl' must be an object"),
        (lambda d: d.update(pe=[]), "'pe' must be an object"),
        (lambda d: d.update(pe=None), "'pe' must be an object"),
        (lambda d: d.update(init="fixed"), "'init' must be an object"),
        (lambda d: d["signal"].update(offsets=["1", "1"]), "'signal.offsets.0' must be a number"),
        (lambda d: d["signal"].update(phases=0.0), "'signal.phases' must be a list of numbers"),
        (lambda d: d["signal"].pop("phases"), "missing key 'signal.phases'"),
        (lambda d: d["signal"].update(dimension=True), "'signal.dimension' must be an integer"),
        (lambda d: d["signal"].update(dimension=2.0), "'signal.dimension' must be an integer"),
        (lambda d: d["signal"].update(dimension=0), "signal: dimension must be at least 1"),
        (lambda d: d["signal"].update(dimension=-2), "signal: dimension must be at least 1"),
        (lambda d: d["signal"].update(dimension=3),
         "signal: offsets must be a length-3 vector, got shape (2,)"),
        (lambda d: d["init"].update(range=-1),
         "'init.range' must be positive and at most half the largest float"),
        (lambda d: d["init"].update(mode="random", theta0=[1.0]),
         "'init.theta0' must match the signal dimension"),
    ],
    ids=["gains_number", "signal_number", "sim_null", "cl_number", "pe_list", "pe_null",
         "init_string", "offsets_strings", "phases_scalar", "signal_missing_key",
         "dimension_bool", "dimension_float", "dimension_zero", "dimension_negative",
         "dimension_mismatch", "range_in_fixed_mode", "theta0_in_random_mode"],
)
def test_every_command_refuses_a_malformed_section(tmp_path, capsys, mutate, message):
    """Sections that are not objects used to end in a TypeError traceback (an
    init string in 'unknown key init.f'), pe: [] loaded, the signal vectors took
    strings and booleans, and keys the init mode does not use went unread."""
    data = scenario_dict()
    mutate(data)
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError) as caught:
        load_scenario(path)
    assert str(caught.value) == message
    out = tmp_path / "out"
    for command in ("run", "certify", "pe-check"):
        assert main([command, path, "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/dir", "../x", "a\\b"])
def test_name_with_a_path_separator_is_refused_before_anything_is_written(
        tmp_path, capsys, monkeypatch, name):
    """Outputs are named <name>_<kind>.csv in the out dir, so 'sub/dir' used to fail
    with a FileNotFoundError traceback after the out dir was made, and '../x' wrote
    beside it. The backslash is os.altsep on Windows; here it stands in for one."""
    monkeypatch.setattr(os, "altsep", "\\")
    data = scenario_dict()
    data["name"] = name
    work = tmp_path / "work"
    work.mkdir()
    path = write_scenario(work, data)
    out = work / "out"
    for command in ("run", "certify", "pe-check"):
        assert main([command, path, "--out-dir", str(out)]) == EXIT_CONFIG
        assert (f"'name' must not contain a path separator (got {name!r})"
                in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json", "work"]


def test_overridden_keys_are_still_read(tmp_path):
    """--seed, --step and --t-end replace sim values after the file is read, so a
    malformed value is refused even where an override would replace it."""
    data = scenario_dict()
    data["sim"]["seed"] = "zero"
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match="'sim.seed' must be an integer"):
        load_scenario(path, seed=3)
    data["sim"]["seed"] = 0
    data["sim"]["step_h"] = None
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match="'sim.step_h' must be a number"):
        load_scenario(path, step_h=1e-3)


def test_readme_key_table_matches_the_reader():
    """README.md's scenario key table lists exactly the keys that load_scenario reads."""
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("### Scenario keys", 1)[1].split("\n#", 1)[0]
    documented = [line.split("`")[1] for line in section.splitlines()
                  if line.startswith("| `")]
    read = [f"{section}.{key}" if section else key
            for section, keys in _SECTIONS.items() for key in keys]
    assert sorted(documented) == sorted(read)
    assert len(documented) == len(set(documented))


def test_cl_online_is_optional(tmp_path):
    data = scenario_dict()
    data["systems"] = ["ht", "ht_cl"]
    del data["cl"]["online"]
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.systems == [SystemKind.HT, SystemKind.HT_CL]


def test_offline_buffer_kind_is_refused_before_anything_is_written(tmp_path):
    """A buffer kind with cl.online false used to fail only when its turn came."""
    data = scenario_dict()
    data["systems"] = ["ht", "ht_cl"]
    data["cl"]["online"] = False
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match="system 'ht_cl' needs cl.online=true"):
        load_scenario(path)
    out = tmp_path / "out"
    for verb in ("run", "certify", "pe-check"):
        assert main([verb, path, "--out-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    # without a buffer kind the setting has nothing to refuse
    assert main(["run", path, "--out-dir", str(out), "--system", "ht"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["tiny_ht.csv", "tiny_report.csv"]


@pytest.mark.parametrize(
    "section, edits, message",
    [
        ("pe", {"window_T": 0.0}, "'pe.window_T' must be positive"),
        ("pe", {"scan_horizon": 1.0}, "'pe.scan_horizon' must be at least 'pe.window_T'"),
        ("pe", {"quadrature_step": 7.0}, "unknown key 'pe.quadrature_step'"),
        ("pe", {"scan_step": 0.0}, "'pe.scan_step' must be positive"),
        ("init", {"theta0": ["a", 1.0]}, "'init.theta0.0' must be a number"),
        ("init", {"theta0": [1.0, float("nan")]}, "'init.theta0.1' must be a finite number"),
        ("init", {"mode": "random", "range": 1e308},
         "'init.range' must be positive and at most half the largest float"),
        ("gains", {"beta": float("inf")}, "'gains.beta' must be a finite number"),
        ("gains", {"gamma": 10**400}, "'gains.gamma' must be a finite number"),
        ("sim", {"seed": -1}, "sim: seed must be nonnegative"),
    ],
    ids=["window_T", "scan_horizon", "quadrature_step", "scan_step", "theta0_text",
         "theta0_nan", "range_overflow", "beta_inf", "gamma_beyond_float", "seed_negative"],
)
def test_every_command_rejects_bad_settings(tmp_path, capsys, section, edits, message):
    """Bad pe settings and non-finite numbers (JSON NaN, Infinity, an integer
    beyond the float range) are config errors. The retired pe.quadrature_step is
    an unknown key. An init.range whose width 2 * range overflows used to end in
    rng.uniform's OverflowError traceback."""
    data = scenario_dict()
    data.setdefault(section, {}).update(edits)
    path = write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match=message):
        load_scenario(path)
    for command in ("run", "certify", "pe-check"):
        assert main([command, path, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "certify", "pe-check"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--t-end", "inf", "sim: t_end must be finite (got inf)"),
        ("--step", "inf", "sim: step_h must be finite (got inf)"),
        ("--step", "nan", "sim: step_h must be finite (got nan)"),
        ("--seed", "-1", "sim: seed must be nonnegative (got -1)"),
        ("--t-end", "1e300", "sim: horizon t_end - t_start = 1e+300 at step_h = 0.001 "
                             "needs 1e+303 steps, more than can be run"),
        ("--step", "1e-320", "sim: horizon t_end - t_start = 100.0 at step_h = 1e-320 "
                             "needs inf steps, more than can be run"),
    ],
    ids=["t_end_inf", "step_inf", "step_nan", "seed_negative", "t_end_huge", "step_underflow"],
)
def test_every_command_rejects_bad_overrides(tmp_path, capsys, command, flag, value, message):
    """argparse reads inf and nan as floats and -1 as a seed. On fig1 these used to
    end in an OverflowError or numpy ValueError traceback, a run of 0 steps, or a
    message about converting NaN to an integer. A finite step count beyond any
    array size used to fail in round() or in np.arange, after the out dir was made."""
    out = tmp_path / "out"
    argv = [command, str(bundled_scenario_path("fig1")), "--out-dir", str(out), flag, value]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "certify"])
def test_horizon_beyond_memory_is_refused_before_anything_is_written(tmp_path, capsys,
                                                                     command):
    """1e16 steps fit an array index but no address space, so the grid's allocation
    fails at once. It used to end in a MemoryError traceback after the out dir was
    made (and, for certify, after the PE summary was printed)."""
    out = tmp_path / "out"
    argv = [command, str(bundled_scenario_path("fig1")), "--out-dir", str(out),
            "--t-end", "1e13"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("sim: horizon t_end - t_start = 10000000000000.0 at step_h = 0.001 needs "
            "10000000000000000 steps, more than fit in memory") in captured.err
    assert not out.exists()


def test_certify_refuses_a_buffer_kind_over_zero_steps(tmp_path, capsys):
    """With no step the online rule records nothing. certify used to print the PE
    summary, make the out dir and fail in richness() with a ValueError traceback."""
    out = tmp_path / "out"
    argv = ["certify", str(bundled_scenario_path("fig1")), "--out-dir", str(out),
            "--t-end", "0"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("system 'ht_cl' records no data over a horizon of 0 steps "
            "(t_end = t_start = 0.0)") in captured.err
    assert not out.exists()
    # kinds without recorded data still certify over an empty horizon
    assert main(argv + ["--system", "ht"]) == EXIT_OK


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


def test_large_step_warns_before_simulating(tmp_path, capsys):
    data = json.loads(bundled_scenario_path("fig1").read_text())
    data["sim"] = {**data["sim"], "step_h": 0.02, "t_end": 1.0}
    path = write_scenario(tmp_path, data)
    for command in ("run", "certify"):
        main([command, path, "--out-dir", str(tmp_path / command)])
        err = capsys.readouterr().err
        # M^2 = 1^2 + 4^2 + 4^2 = 33, so h (beta + 2 beta_r)(1 + mu M^2) = 0.02 * 9 * 7.6
        assert "step h=0.02" in err and "= 1.368 >= 1" in err, err
        assert "for ht, ht_cl, ht_cl_softreset" in err, err
        assert "basic" not in err


def test_bundled_step_stays_silent(tmp_path, capsys):
    # fig1's product is 0.001 * 9 * 7.6 = 0.0684, far below 1.
    for command in ("run", "certify"):
        rc = main([command, str(bundled_scenario_path("fig1")), "--t-end", "1",
                   "--out-dir", str(tmp_path / command)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""


def test_main_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    # The child interpreter imports the same hotuner as this one.
    source = str(Path(hotuner.__file__).parents[1])
    paths = [source, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "hotuner", "run", str(bundled_scenario_path("fig1")),
         "--t-end", "1", "--system", "basic", "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fig1_basic.csv").exists()
