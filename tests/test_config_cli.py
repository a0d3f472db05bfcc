import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qusync
from qusync import cli
from qusync.config import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from qusync.experiments import (
    NumericalFailure,
    cmd_discord_bench,
    cmd_evolve,
    cmd_info_sweep,
    cmd_sync_sweep,
)
from qusync.lindblad import Channel, ModelParams
from qusync.operators import ValidationError
from qusync.qinfo import EntropyUnit
from tests.oracles import load_matrix_csv

SMALL_SYNC = """
[model]
gamma = 0.05
channel = raise

[evolution]
t_final = 40
dt = 0.02

[sweep]
xi = -1, 0, 1

[output]
directory = {out}
seed = 7
"""

SMALL_INFO = """
[model]
tau = 1.0

[sweep]
xi = 0, 1
gamma = 0, 0.3
j_xy = 0.25

[evolution]
t_relax = 400

[output]
directory = {out}
"""

SMALL_BENCH = """
[discord]
n_states = 4
ranks = 2, 3

[output]
directory = {out}
seed = 5
"""


def write_config(tmp_path, template, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / "out"))
    return path


def test_defaults_are_reference_scenario():
    cfg = ExperimentConfig().validate()
    assert cfg.model.delta == 1.0 and cfg.model.tau == 1.0
    assert cfg.model.j_xy == 0.25 and cfg.model.gamma == 0.05
    assert cfg.initial_state == "10"
    assert cfg.t_final == 200.0 and cfg.dt == 0.01
    assert cfg.window_fraction == 0.25
    assert len(cfg.gamma_values) == 16
    assert min(cfg.gamma_values) == pytest.approx(0.01)
    assert max(cfg.gamma_values) == pytest.approx(1.0)
    assert cfg.jxy_values == (-1.0, 0.0, 1.0)


def test_parse_sections_and_line_numbers():
    parsed = parse_config_text("[model]\ndelta = 2.0\n\n# comment\ntau = 0.5\n")
    assert parsed["model"]["delta"] == ("2.0", 2)
    assert parsed["model"]["tau"] == ("0.5", 5)


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("[qubits]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("[model]\nfrequency = 3\n")
    # xi is swept, so it comes only from [sweep] xi
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'xi' in \[model\]"):
        parse_config_text("[model]\ndelta = 1.0\nxi = 0.2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("delta = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("[model]\ndelta 1\n")
    # a repeated key is an error, also across two headers of one section
    repeated = r"key 'delta' already set on line 2 in \[model\]"
    with pytest.raises(ConfigError, match=rf"^line 3: {repeated}"):
        parse_config_text("[model]\ndelta = 1\ndelta = 2\n")
    with pytest.raises(ConfigError, match=rf"^line 5: {repeated}"):
        parse_config_text("[model]\ndelta = 1\n[sweep]\n[model]\ndelta = 2\n")


@pytest.mark.parametrize("text", [
    "[model]\ndelta = 1.0\ngamma = fast\n",
    "[model]\ndelta = 1.0\ngamma = nan\n",
    "[sweep]\nxi = 0\ngamma = 0.1, inf\n",
    "[evolution]\nt_final = 10\ndt = nan\n",
], ids=["gamma-fast", "gamma-nan", "sweep-gamma-inf", "dt-nan"])
def test_load_config_reports_bad_value_line(tmp_path, capsys, text):
    # a NaN or infinite number is a config error (exit 1), not a numerical
    # failure of the run it would start
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"line 3: (gamma|dt) must be a (list of )?finite"):
        load_config(path)
    assert cli.main(["evolve", "--config", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_load_config_full_round_trip(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(
        "[model]\ndelta = 2\ntau = 0.5\nj_xy = -1\ngamma = 0.1\n"
        "channel = lower\n"
        "[evolution]\ninitial_state = 01\nt_final = 10\ndt = 0.05\n"
        "[analysis]\nwindow_fraction = 0.5\nunit = nats\n"
        "[sweep]\nxi = -0.5 0.5\ngamma = 0.1, 0.2\nj_xy = 0\n"
        "[discord]\nn_states = 12\nranks = 2\n"
        "[output]\ndirectory = results\nseed = 42\nworkers = 2\nsave_states = yes\n"
    )
    cfg = load_config(path)
    assert cfg.model.channel is Channel.LOWER
    assert cfg.model.delta == 2.0
    assert cfg.initial_state == "01"
    assert cfg.unit is EntropyUnit.NATS
    assert cfg.xi_values == (-0.5, 0.5)
    assert cfg.ranks == (2,)
    assert cfg.workers == 2 and cfg.save_states is True


def test_schema_covers_exactly_the_config_fields():
    model_keys = {name for name, _, _ in _SCHEMA["model"].values()}
    other_keys = {name for section, keys in _SCHEMA.items() if section != "model"
                  for name, _, _ in keys.values()}
    assert model_keys == {f.name for f in fields(ModelParams)} - {"xi"}
    assert other_keys == {f.name for f in fields(ExperimentConfig)} - {"model"}


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(initial_state="2").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(xi_values=()).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(xi_values=(1.5,)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(t_final=0.001).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(ranks=(5,)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(ranks=()).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1).validate()


def test_missing_config_file_exits_one(capsys):
    assert cli.main(["evolve", "--config", "/nonexistent/x.ini"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[sweep]\nxi =\n")
    assert cli.main(["sync-sweep", "--config", str(path)]) == 1


def test_empty_ranks_list_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, "[discord]\nranks =\n[output]\ndirectory = {out}\n")
    assert cli.main(["discord-bench", "--config", str(path)]) == 1
    assert "config error: line 2: ranks must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_BENCH.replace("seed = 5", "seed = -1"))
    assert cli.main(["discord-bench", "--config", str(path)]) == 1
    assert "config error: line 8: seed must be >= 0" in capsys.readouterr().err
    path = write_config(tmp_path, SMALL_BENCH)
    assert cli.main(["discord-bench", "--config", str(path), "--seed", "-3"]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, line, message", [
    ("[model]\ndelta = 1\ngamma = -1\n", 3, "gamma must be >= 0"),
    ("[evolution]\ninitial_state = 12\n", 2, "initial_state must be a 2-bit label"),
    ("[evolution]\ndt = -0.1\nt_final = 5\n", 2, "need dt > 0"),
    ("[evolution]\ndt = 0.5\nt_final = 0.1\n", 3, "need dt > 0 and t_final >= dt"),
    ("[evolution]\n\ndt = 500\n", 3, "need dt > 0 and t_final >= dt"),
    ("[analysis]\nunit = bits\nwindow_fraction = 2\n", 3, r"window_fraction must be in \(0, 1\]"),
    ("[sweep]\nxi =\n", 2, "sweep list 'xi' is empty"),
    ("[sweep]\nxi = 0\ngamma =\n", 3, "sweep list 'gamma' is empty"),
    ("[sweep]\nxi = 0\ngamma = 0.1\nj_xy =\n", 4, "sweep list 'j_xy' is empty"),
    ("[sweep]\nxi = 0, 1.5\n", 2, r"sweep xi values must lie in \[-1, 1\]"),
    ("[sweep]\ngamma = 0.1, -0.1\n", 2, "sweep gamma values must be >= 0"),
    ("[sweep]\nxi = 0\nj_xy = 0.5, -1, 0.5\n", 3, "sweep list 'j_xy' repeats 0.5"),
    ("[discord]\nn_states = 0\n", 2, "n_states must be >= 1"),
    ("[discord]\nn_states = 3\nranks = 2, 5\n", 3, "ranks must be a non-empty list"),
    ("[discord]\nranks = 2, 3, 2\n", 2, "list 'ranks' repeats 2"),
    ("[output]\nseed = -1\n", 2, "seed must be >= 0"),
    ("[output]\nseed = 1\nworkers = 0\n", 3, "workers must be >= 1"),
], ids=["model-gamma", "initial_state", "dt", "t_final", "dt-only", "window_fraction",
        "xi-empty", "gamma-empty", "j_xy-empty", "xi-range", "gamma-range", "j_xy-repeat",
        "n_states",
        "ranks", "ranks-repeat", "seed", "workers"])
def test_range_errors_name_their_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^line {line}: {message}"):
        load_config(path)
    assert cli.main(["discord-bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line {line}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "sync-sweep", "info-sweep", "discord-bench"])
def test_unusable_out_dir_exits_one(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main([command, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {taken}: ")
    assert "Traceback" not in err


def test_unwritable_output_file_exits_one(tmp_path, capsys, monkeypatch):
    # each command tries its output file before it computes any point
    path = write_config(tmp_path, "[evolution]\nt_final = 2\ndt = 0.01\n[sweep]\nxi = 0.3, 0.5\n"
                        "gamma = 0.05\nj_xy = 0.25\n[discord]\nn_states = 2\nranks = 2\n")
    for command, csv_name, module, computes in [
        ("evolve", "trajectory_xi+0.300.csv", "lindblad", "evolve"),
        ("sync-sweep", "sync_sweep.csv", "lindblad", "evolve"),
        ("info-sweep", "info_sweep.csv", "lindblad", "_liouvillians"),
        ("discord-bench", "discord_bench.csv", "qinfo", "random_density_matrix"),
    ]:
        def no_point(*args, computes=computes, **kwargs):
            raise AssertionError(f"{computes} ran before the output file was tried")

        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module(f"qusync.{module}"), computes, no_point)
            out = tmp_path / command
            (out / csv_name).mkdir(parents=True)
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {out / csv_name}: Is a directory\n"
        assert [p.name for p in out.iterdir()] == [csv_name]


def test_writable_output_check_leaves_no_file(tmp_path, monkeypatch):
    # a sweep that fails after the check leaves the directory as it found it
    from qusync import lindblad

    def boom(*args, **kwargs):
        raise ValidationError("boom")

    monkeypatch.setattr(lindblad, "evolve", boom)
    path = write_config(tmp_path, "[sweep]\nxi = 0.3\n")
    out = tmp_path / "out"
    assert cli.main(["sync-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, sweep, values", [
    ("evolve", "[sweep]\nxi = 0.1234, 0.1231\n", ("0.1234", "0.1231")),
    ("evolve", "[sweep]\nxi = -0.0, 0.0\n", ("-0.0", "0.0")),
    ("info-sweep", "[sweep]\nxi = 0.5\ngamma = 0.12341, 0.12342\nj_xy = 0\n"
     "[output]\nsave_states = true\n", ("0.12341", "0.12342")),
    ("info-sweep", "[sweep]\nxi = 0.5\ngamma = 0.1\nj_xy = 0.2501, 0.2504\n"
     "[output]\nsave_states = true\n", ("0.2501", "0.2504")),
    # info-sweep names its per-j_xy plots with j_xy to 2 decimals
    ("info-sweep", "[sweep]\nxi = -1, 0\ngamma = 0.1, 0.2\nj_xy = 0.1001, 0.1002\n",
     ("0.1001", "0.1002")),
    ("info-sweep", "[sweep]\nxi = 0.5\ngamma = 0.1, 0.2\nj_xy = 0.101, 0.104\n"
     "[output]\nsave_states = true\n", ("0.101", "0.104")),
], ids=["evolve-xi", "evolve-signed-zero", "info-gamma", "info-j_xy", "info-plot-j_xy",
        "info-plot-j_xy-saved"])
def test_sweep_values_sharing_a_file_exit_one(tmp_path, capsys, command, sweep, values):
    path = write_config(tmp_path, "[evolution]\nt_final = 1\n" + sweep)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and all(v in err for v in values)
    assert not out.exists()


def test_signed_zero_is_plus_zero_in_plot_names_and_titles(tmp_path):
    # -0.0 gets the tag, the title and the CSV cells of +0.0, as in the CSV
    # file names
    path = write_config(tmp_path, "[evolution]\nt_final = 1\n[sweep]\nxi = -0.0, 1\n"
                        "gamma = 0.1, 0.2\nj_xy = -0.0\n[output]\nsave_states = true\n")
    out = tmp_path / "out"
    for command in ("info-sweep", "evolve"):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    assert not [p.name for p in out.iterdir() if "-0.0" in p.name]
    for name, title in (("info_heatmap_j+0.00.svg", "j_xy = +0.00"),
                        ("info_lines_j+0.00.svg", "j_xy = +0.00"),
                        ("trajectory_xi+0.000.svg", "xi = +0.00")):
        text = (out / name).read_text(encoding="utf-8")
        assert title in text and "-0.00" not in text
    assert (out / "rho_ss_xi+0.000_g0.1_j+0.000.csv").exists()
    # on the swept axes, and in the [model] values that sync_sweep.csv writes
    path = write_config(tmp_path, "[model]\ngamma = -0.0\nj_xy = -0.0\n[evolution]\nt_final = 4\n"
                        "[sweep]\nxi = -0.0, 0.5\ngamma = 0.1\nj_xy = -0.0\n", name="model.ini")
    out = tmp_path / "tables"
    for command in ("info-sweep", "sync-sweep"):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    for name in ("info_sweep.csv", "sync_sweep.csv"):
        _, rows = _load_csv(out / name)
        assert len(rows) == 2 and "-0" not in [cell for row in rows for cell in row], name


def test_fine_sweeps_accepted_where_no_file_is_tagged(tmp_path):
    path = write_config(tmp_path, "[evolution]\nt_final = 4\n[sweep]\nxi = 0.1234, 0.1231\n"
                        "gamma = 0.12341, 0.12342\nj_xy = 0.2501, 0.2604\n")
    for command in ("sync-sweep", "info-sweep"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    _, rows = _load_csv(tmp_path / "sync-sweep" / "sync_sweep.csv")
    assert len(rows) == 2
    _, rows = _load_csv(tmp_path / "info-sweep" / "info_sweep.csv")
    assert len(rows) == 8
    # with one gamma, info-sweep writes no per-j_xy plot
    path = write_config(tmp_path, "[evolution]\nt_final = 4\n[sweep]\nxi = 0.1234, 0.1231\n"
                        "gamma = 0.1\nj_xy = 0.2501, 0.2504\n", name="one_gamma.ini")
    assert cli.main(["info-sweep", "--config", str(path), "--out", str(tmp_path / "one")]) == 0
    _, rows = _load_csv(tmp_path / "one" / "info_sweep.csv")
    assert len(rows) == 4


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        """Raise a numerical failure naming its grid point."""
        raise NumericalFailure("evolution failed at xi=+0.000: test probe")

    monkeypatch.setitem(cli._COMMANDS, "evolve", boom)
    assert cli.main(["evolve", "--out", str(tmp_path)]) == 2
    assert "xi=+0.000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "sync-sweep"])
@pytest.mark.parametrize("t_final, dt, steps", [("1e12", "1e-6", "1e+18"),
                                                 ("1e300", "1e-300", "inf")])
def test_too_many_steps_exit_two_naming_the_count(tmp_path, capsys, command, t_final, dt, steps):
    # numpy refuses to size 1e18 steps, and 1e300 / 1e-300 is inf: nothing is allocated
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[evolution]\nt_final = {t_final}\ndt = {dt}\n[sweep]\nxi = 0.3\n")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert (f"evolution failed at xi=+0.300: {steps} steps "
            f"(t_final = {float(t_final)}, dt = {float(dt)})") in err


def _load_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_cli_evolve_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_SYNC)
    assert cli.main(["evolve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    produced = sorted(p.name for p in out.iterdir())
    assert "trajectory_xi+1.000.csv" in produced
    assert "trajectory_xi-1.000.svg" in produced
    assert "bloch_xi+0.000.csv" in produced
    header, rows = _load_csv(out / "trajectory_xi+0.000.csv")
    assert header == ["t", "sz1", "sz2", "sx1", "sx2", "purity"]
    assert len(rows) == 2001  # t_final/dt + initial row
    bheader, brows = _load_csv(out / "bloch_xi+0.000.csv")
    assert bheader == ["t", "bx1", "by1", "bz1", "bx2", "by2", "bz2"]
    assert len(brows) == 2001


def test_cli_sync_sweep_end_to_end(tmp_path):
    cfg = write_config(tmp_path, SMALL_SYNC)
    assert cli.main(["sync-sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    header, rows = _load_csv(out / "sync_sweep.csv")
    assert header == ["xi", "gamma", "jxy", "delta_phi", "plv"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [-1.0, 0.0, 1.0]
    plv = {float(r[0]): float(r[4]) for r in rows}
    assert plv[0.0] == min(plv.values())  # locking is weakest without correlation
    for name in ("sync_delta_phi.svg", "sync_plv.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag.endswith("svg")
        assert "href" not in (out / name).read_text()


def test_cli_sync_sweep_single_point(tmp_path):
    path = tmp_path / "single.ini"
    path.write_text(
        f"[evolution]\nt_final = 30\ndt = 0.02\n[sweep]\nxi = 0.5\n"
        f"[output]\ndirectory = {tmp_path / 'single_out'}\n"
    )
    assert cli.main(["sync-sweep", "--config", str(path)]) == 0
    _, rows = _load_csv(tmp_path / "single_out" / "sync_sweep.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_sync_sweep_too_short_for_the_phase_analysis_names_the_point(tmp_path, capsys, workers):
    # 11 samples fall short of the phase analysis; the first xi in grid
    # order, -0.0 read as +0.0, is named
    path = write_config(tmp_path, "[evolution]\nt_final = 0.1\ndt = 0.01\n[sweep]\n"
                                  f"xi = 0.5, -0.0\n[output]\nworkers = {workers}\n")
    assert cli.main(["sync-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: phase analysis failed at xi=+0.000: need at least 16 samples\n")


def test_cli_info_sweep_flags_and_rows(tmp_path):
    cfg = write_config(tmp_path, SMALL_INFO)
    assert cli.main(["info-sweep", "--config", str(cfg)]) == 0
    header, rows = _load_csv(tmp_path / "out" / "info_sweep.csv")
    assert header == ["xi", "gamma", "jxy", "mutual_info", "classical_mutual_info",
                      "degree_of_quantumness", "flag"]
    assert len(rows) == 4  # 2 xi x 2 gamma x 1 jxy
    flags = {(float(r[0]), float(r[1])): r[6] for r in rows}
    assert flags[(0.0, 0.3)] == ""                      # unique fixed point
    assert flags[(0.0, 0.0)] == "degenerate"            # gamma = 0
    assert flags[(1.0, 0.3)] == "degenerate"            # dark singlet
    for r in rows:
        mi, mic, dq = float(r[3]), float(r[4]), float(r[5])
        assert mi >= -1e-10 and mic <= mi + 1e-10
        assert dq == pytest.approx(mi - mic, abs=1e-12)


def test_cli_discord_bench_end_to_end(tmp_path):
    cfg = write_config(tmp_path, SMALL_BENCH)
    assert cli.main(["discord-bench", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    header, rows = _load_csv(out / "discord_bench.csv")
    assert header == ["seed", "rank", "purity", "mutual_info", "discord",
                      "classical_corr", "degree_of_quantumness", "theta_opt",
                      "phi_opt"]
    assert len(rows) == 8  # 4 states x 2 ranks
    for r in rows:
        assert 0.0 <= float(r[4]) <= float(r[3]) + 1e-8
    for name in ("discord_rank2.svg", "discord_all_ranks.svg",
                 "quantumness_vs_discord.svg"):
        assert (out / name).exists()


@pytest.mark.parametrize("unit", list(EntropyUnit))
def test_discord_bench_rows_match_the_one_state_functions(tmp_path, unit):
    # every row's state, drawn again from its seed and rank, gives the row's
    # values through the one-state functions bit for bit
    from qusync import qinfo

    cmd_discord_bench(ExperimentConfig(n_states=3, ranks=(1, 2, 3, 4), unit=unit, seed=5,
                                       out_dir=str(tmp_path)).validate())
    _, rows = _load_csv(tmp_path / "discord_bench.csv")
    assert len(rows) == 12
    for seed, rank, *values in rows:
        rho = qinfo.random_density_matrix(4, int(rank), int(seed))
        res = qinfo.discord_min(rho, unit)
        assert np.array_equal([float(v) for v in values], [
            np.trace(rho @ rho).real, res.mutual_information, res.discord,
            res.classical_correlation, qinfo.degree_of_quantumness(rho, unit),
            res.optimal_basis.theta, res.optimal_basis.phi])


def test_cli_unit_override_scales_entropies(tmp_path):
    cfg = write_config(tmp_path, SMALL_INFO)
    assert cli.main(["info-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "bits")]) == 0
    assert cli.main(["info-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "nats"), "--unit", "nats"]) == 0
    _, rows_b = _load_csv(tmp_path / "bits" / "info_sweep.csv")
    _, rows_n = _load_csv(tmp_path / "nats" / "info_sweep.csv")
    picked = False
    for rb, rn in zip(rows_b, rows_n):
        mi_bits, mi_nats = float(rb[3]), float(rn[3])
        if mi_bits > 1e-6:
            assert mi_nats == pytest.approx(mi_bits * np.log(2.0), rel=1e-9)
            picked = True
    assert picked


def test_sweep_outputs_do_not_depend_on_config_order(tmp_path):
    # each sweep lists its rows, files and plot curves in sorted axis order
    orders = {  # xi, gamma, j_xy, ranks
        "sorted": ("-0.5, 0.0, 0.5", "0.1, 0.3", "-1.0, 1.0", "2, 3"),
        "shuffled": ("0.5, -0.5, 0.0", "0.3, 0.1", "1.0, -1.0", "3, 2"),
    }
    written = {}
    for name, lists in orders.items():
        text = ("[evolution]\nt_final = 4\n[output]\nsave_states = true\n"
                "[sweep]\nxi = %s\ngamma = %s\nj_xy = %s\n[discord]\nranks = %s\nn_states = 2\n")
        path = write_config(tmp_path, text % lists, name=f"{name}.ini")
        out = tmp_path / name
        for command in ("evolve", "sync-sweep", "info-sweep", "discord-bench"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written["sorted"]) == 33
    assert written["shuffled"] == written["sorted"]


def test_cli_outputs_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMALL_SYNC)
    assert cli.main(["sync-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["sync-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "sync_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sync_sweep.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("command, settings", [
    (cmd_discord_bench, {"n_states": 3, "ranks": (2,), "seed": 3}),
    (cmd_evolve, {"xi_values": (-0.5, 0.5, 1.0), "t_final": 20.0}),
    (cmd_sync_sweep, {"xi_values": (-0.5, 0.5, 1.0), "t_final": 20.0}),
], ids=["discord_bench", "evolve", "sync_sweep"])
def test_worker_pool_matches_serial(tmp_path, command, settings):
    from dataclasses import replace

    base = ExperimentConfig(out_dir=str(tmp_path / "serial"), **settings).validate()
    command(base)
    command(replace(base, workers=2, out_dir=str(tmp_path / "pool")))
    serial = sorted((tmp_path / "serial").glob("*.csv"))
    assert serial
    assert [p.name for p in serial] == sorted(p.name for p in (tmp_path / "pool").glob("*.csv"))
    for path in serial:
        assert path.read_bytes() == (tmp_path / "pool" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("workers, n_values, pool_size, chunk", [
    (64, 2, 2, 1), (3, 30, 3, 2), (4, 4, 4, 1)])
def test_worker_pool_is_no_larger_than_the_points(monkeypatch, workers, n_values, pool_size,
                                                  chunk):
    # the process pool forks all its workers at the first submit; a stand-in
    # pool records its size and chunk and maps serially, so no process starts
    import concurrent.futures

    from qusync import experiments

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            made.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(workers=workers).validate()
    values = list(range(n_values))
    assert list(experiments._map_points(lambda c, v: (c.workers, v), cfg, values)) == [
        (workers, v) for v in values]
    assert made == [pool_size, chunk]


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize", "scipy",
                                    "urllib.request", "concurrent.futures.process"])
def test_cli_import_leaves_out(module):
    code = f"import sys, qusync.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qusync.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    modules = [qusync] + [importlib.import_module(f"qusync.{info.name}")
                          for info in pkgutil.iter_modules(qusync.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 1 and not missing, missing


def test_every_exported_name_is_read_by_the_library():
    # a name that only tests read belongs in tests/oracles.py: each name in a
    # module's __all__ is read somewhere in src/qusync (its own def or class
    # line and the __all__ lists do not count), or perfbench/tracer.py wraps it
    package = Path(qusync.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    tracer = ast.parse((package.parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    exported = [(info.name, name) for info in pkgutil.iter_modules(qusync.__path__)
                for name in getattr(importlib.import_module(f"qusync.{info.name}"), "__all__", ())]
    unread = [f"{module}.{name}" for module, name in exported
              if name not in read and f"{module}.{name}" not in targets]
    assert exported and not unread, unread


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, the noise
    # sampler and all four commands still run
    path = write_config(tmp_path, "[evolution]\nt_final = 20\ndt = 0.05\n[sweep]\nxi = 0, 1\n"
                        "gamma = 0.1\nj_xy = 0.25\n[discord]\nn_states = 2\nranks = 2\n")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qusync\n"
        "from qusync import cli\n"
        "qusync.sample_ou(qusync.OUParams(xi=0.5), 0.01, 300, seed=1)\n"
        "for command in ('evolve', 'sync-sweep', 'info-sweep', 'discord-bench'):\n"
        "    out = sys.argv[2] + '/' + command\n"
        "    assert cli.main([command, '--config', sys.argv[1], '--out', out]) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qusync.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert {p.parent.name for p in tmp_path.glob("*/*.csv")} == {
        "evolve", "sync-sweep", "info-sweep", "discord-bench"}


def test_benchmark_tracer_binds_to_the_program():
    # perfbench/tracer.py looks up qusync's function names when installed;
    # a renamed one must fail here rather than break a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = (
        "import qusync.cli\n"
        "from tracer import Tracer, summarize\n"
        "tracer = Tracer('test')\n"
        "tracer.install()\n"
        "from qusync import qinfo\n"
        "qinfo.discord_min(qinfo.random_density_matrix(4, 2, 5))\n"
        "print(summarize(tracer.spans)['qinfo.discord_min.objective_evals'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qusync.__file__).parents[1]), str(root / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert float(out.stdout) > 0


def test_info_sweep_save_states(tmp_path):
    cfg = ExperimentConfig(
        xi_values=(0.2,), gamma_values=(0.3,), jxy_values=(0.25,),
        out_dir=str(tmp_path / "st"), save_states=True,
    ).validate()
    cmd_info_sweep(cfg)
    state_files = list((tmp_path / "st").glob("rho_ss_*.csv"))
    assert len(state_files) == 1
    rho = load_matrix_csv(state_files[0])
    assert abs(np.trace(rho) - 1.0) < 1e-10


def test_info_sweep_degenerate_row_is_fixed_point(tmp_path):
    # the slowest-relaxing degenerate point of the default grid: propagating
    # for the default t_relax = 4000 leaves ||L rho|| at 5e-4 there
    from qusync.lindblad import build_liouvillian, vectorize

    cfg = ExperimentConfig(
        xi_values=(1.0,), gamma_values=(0.01,), jxy_values=(-1.0,),
        out_dir=str(tmp_path / "deg"), save_states=True,
    ).validate()
    cmd_info_sweep(cfg)
    _, rows = _load_csv(tmp_path / "deg" / "info_sweep.csv")
    assert rows[0][6] == "degenerate"
    (state_file,) = (tmp_path / "deg").glob("rho_ss_*.csv")
    rho = load_matrix_csv(state_file)
    liou = build_liouvillian(ModelParams(xi=1.0, gamma=0.01, j_xy=-1.0))
    assert np.linalg.norm(liou @ vectorize(rho)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("model, j_xy", [("delta = 1e6", "0.25"), ("tau = 1e6", "0.25"),
                                         ("", "1e6")], ids=["delta", "tau", "j_xy"])
def test_info_sweep_unique_fixed_point_of_a_large_generator(tmp_path, model, j_xy):
    # with ||L|| near 1e6 the null vector's residual is 2e-10, which an
    # absolute 1e-10 bound took for a missing fixed point
    path = tmp_path / "big.ini"
    path.write_text(f"[model]\n{model}\n[sweep]\nxi = 0.3\ngamma = 0.05\nj_xy = {j_xy}\n"
                    f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert cli.main(["info-sweep", "--config", str(path)]) == 0
    _, rows = _load_csv(tmp_path / "out" / "info_sweep.csv")
    assert len(rows) == 1 and rows[0][6] == ""


def test_info_sweep_names_a_point_without_fixed_point(tmp_path, monkeypatch):
    from qusync import lindblad

    liouvillians = lindblad._liouvillians
    monkeypatch.setattr(lindblad, "_liouvillians",
                        lambda p, *points: liouvillians(p, *points) + 0.05 * np.eye(16))
    cfg = ExperimentConfig(
        xi_values=(0.3,), gamma_values=(0.05,), jxy_values=(0.25,),
        out_dir=str(tmp_path / "none"),
    ).validate()
    with pytest.raises(NumericalFailure,
                       match=r"xi=\+0\.300, gamma=0\.05, j_xy=\+0\.250: .*no fixed point"):
        cmd_info_sweep(cfg)


@pytest.mark.parametrize("chunk", [1, 2, 1024])
@pytest.mark.parametrize("broken_xi, message", [
    (0.3, r"xi=\+0\.300, gamma=0\.8543, j_xy=-1\.974: .*no fixed point"),
    (1.0, r"xi=\+1\.000, gamma=0\.8543, j_xy=-1\.974: rho_ss has negative eigenvalue"),
], ids=["missing-first", "refused-first"])
def test_info_sweep_names_the_first_failing_point(tmp_path, monkeypatch, chunk, broken_xi,
                                                  message):
    # two failing points in one grid, a generator with no fixed point and
    # the refused state of the test below: the first in grid order is named,
    # whether they share a stack or not
    from qusync import experiments, lindblad

    # the stacked rule, which a stack and each point redone alone both take
    liouvillians = lindblad._liouvillians
    monkeypatch.setattr(lindblad, "_liouvillians", lambda p, xi, gamma, j_xy: (
        liouvillians(p, xi, gamma, j_xy)
        + 0.05 * np.eye(16) * np.asarray(xi == broken_xi)[..., None, None]))
    monkeypatch.setattr(experiments, "INFO_CHUNK", chunk)
    cfg = ExperimentConfig(
        model=ModelParams(delta=1.927770772506825, tau=0.09997343206523866),
        xi_values=(broken_xi, 0.9999999999948538, 0.0), gamma_values=(0.8543247793093437,),
        jxy_values=(-1.9743644693427593,), out_dir=str(tmp_path / "two"),
    ).validate()
    with pytest.raises(NumericalFailure, match=message):
        cmd_info_sweep(cfg)


@pytest.mark.parametrize("channel", list(Channel))
def test_info_sweep_stacks_match_the_one_point_functions(tmp_path, monkeypatch, channel):
    # several stacks, with degenerate points at xi = +1 and at gamma = 0:
    # every state and every measure equals the one-point functions' bit for bit
    from qusync import experiments, lindblad, qinfo

    monkeypatch.setattr(experiments, "INFO_CHUNK", 5)
    cfg = ExperimentConfig(
        model=ModelParams(channel=channel), xi_values=(-1.0, -0.3, 0.4, 1.0),
        gamma_values=(0.0, 0.05, 0.7), jxy_values=(-0.5, 0.25),
        out_dir=str(tmp_path / "grid"), save_states=True,
    ).validate()
    cmd_info_sweep(cfg)
    _, rows = _load_csv(tmp_path / "grid" / "info_sweep.csv")
    assert len(rows) == 24
    flags = []
    for xi, gamma, j_xy, *measures, flag in rows:
        params = ModelParams(xi=float(xi), gamma=float(gamma), j_xy=float(j_xy), channel=channel)
        try:
            rho, want_flag = lindblad.steady_state(params), ""
        except lindblad.DegenerateSteadyStateError:
            rho = lindblad.asymptotic_state(params, np.diag([0, 0, 1, 0]).astype(complex))
            want_flag = "degenerate"
        mi, mi_c = qinfo.mutual_information(rho), qinfo.classical_mutual_information(rho)
        assert flag == want_flag
        assert np.array_equal([float(m) for m in measures], [mi, mi_c, mi - mi_c])
        name = f"rho_ss_xi{float(xi):+.3f}_g{float(gamma):.4g}_j{float(j_xy):+.3f}.csv"
        assert np.array_equal(load_matrix_csv(tmp_path / "grid" / name), rho)
        flags.append(flag)
    assert flags.count("degenerate") == 8 + 4  # gamma = 0, and xi = +1 with gamma > 0


@pytest.mark.parametrize("chunk", [3, 1024])
def test_info_sweep_takes_one_svd_per_stack(tmp_path, monkeypatch, chunk):
    # null-space dimensions 4, 1, 4 and 2: every state, the degenerate ones
    # included, comes from the one SVD of its stack, whose generators are
    # built in one call of the stacked rule
    from qusync import experiments, lindblad

    svd, null_spaces = np.linalg.svd, lindblad._null_spaces
    liouvillians = lindblad._liouvillians
    stacks, dims, built = [], [], []

    def counted_svd(a, *args, **kwargs):
        stacks.append(len(a))
        return svd(a, *args, **kwargs)

    def recorded_null_spaces(mats):
        result = null_spaces(mats)
        dims.extend(result[3].tolist())
        return result

    def counted_liouvillians(p, xi, gamma, j_xy):
        built.append(np.shape(xi))
        return liouvillians(p, xi, gamma, j_xy)

    def no_asymptotic_state(*args):
        raise AssertionError("asymptotic_state called")

    def no_build_liouvillian(*args):
        raise AssertionError("build_liouvillian called")

    monkeypatch.setattr(experiments, "INFO_CHUNK", chunk)
    monkeypatch.setattr(lindblad, "_liouvillians", counted_liouvillians)
    monkeypatch.setattr(lindblad, "build_liouvillian", no_build_liouvillian)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(lindblad, "_null_spaces", recorded_null_spaces)
    monkeypatch.setattr(lindblad, "asymptotic_state", no_asymptotic_state)
    cfg = ExperimentConfig(xi_values=(0.3, 1.0), gamma_values=(0.0, 0.05), jxy_values=(0.25,),
                           out_dir=str(tmp_path / "out"), save_states=True).validate()
    cmd_info_sweep(cfg)
    assert dims == [4, 1, 4, 2]
    assert stacks == ([3, 1] if chunk == 3 else [4])
    assert built == ([(3,), (1,)] if chunk == 3 else [(4,)])
    _, rows = _load_csv(tmp_path / "out" / "info_sweep.csv")
    assert [row[-1] for row in rows] == ["degenerate", "", "degenerate", "degenerate"]


def test_info_sweep_names_a_point_whose_state_the_measures_refuse(tmp_path, capsys):
    # near xi = 1 the null vector's state has an eigenvalue of -6.6e-6, far
    # outside round-off: the engine refuses it at the tolerance of the
    # measures, inside the named point
    path = tmp_path / "near.ini"
    path.write_text("[model]\ndelta = 1.927770772506825\ntau = 0.09997343206523866\n"
                    "channel = raise\n[sweep]\nxi = 0.9999999999948538\n"
                    "gamma = 0.8543247793093437\nj_xy = -1.9743644693427593\n"
                    f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert cli.main(["info-sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "xi=+1.000, gamma=0.8543, j_xy=-1.974: " in err
    assert "negative eigenvalue" in err


@pytest.mark.filterwarnings("error")
def test_info_sweep_names_a_point_whose_generator_overflows(tmp_path, capsys):
    # a finite rate of 1e308 overflows its generator inside the stack; the
    # point redone alone is named, with no numpy warning on the way
    path = write_config(tmp_path, "[sweep]\nxi = 0.3\ngamma = 0.05, 1e308\nj_xy = 0.25\n")
    assert cli.main(["info-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: steady state failed at xi=+0.300, gamma=1e+308, j_xy=+0.250: "
        "generator must be finite\n")


def test_info_sweep_leaves_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which a fresh info-sweep
    # process would pay for; the sweep has null-space dimensions 4, 1, 4, 2
    path = write_config(tmp_path, "[sweep]\nxi = 0.3, 1\ngamma = 0, 0.05\nj_xy = 0.25\n")
    code = ("import sys\n"
            "from qusync import cli\n"
            "assert cli.main(['info-sweep', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qusync.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_evolve_tables_reach_the_csv_kernel(tmp_path, monkeypatch):
    # The kernel saves evolve most of its formatting time: every cell block
    # of an evolve table comes from _float_cells.  Every table takes the one
    # row pass, and the float columns of info-sweep's table reach the kernel
    # too.
    from qusync import experiments, lindblad, operators

    writing, kernel_blocks, from_kernel = [], [], {}
    write_csv, cell_rows = operators.write_csv, operators._cell_rows
    float_cells = operators._float_cells

    def traced_write_csv(path, header, columns):
        writing.append(Path(path).name)
        write_csv(path, header, columns)

    def traced_float_cells(x):
        kernel_blocks.append(float_cells(x))
        return kernel_blocks[-1]

    def traced_cell_rows(blocks):
        from_kernel.setdefault(writing[-1], []).extend(
            any(np.may_share_memory(block, cells) for cells in kernel_blocks)
            for block in blocks)
        return cell_rows(blocks)

    for module in (operators, lindblad, experiments):
        monkeypatch.setattr(module, "write_csv", traced_write_csv)
    monkeypatch.setattr(operators, "_cell_rows", traced_cell_rows)
    monkeypatch.setattr(operators, "_float_cells", traced_float_cells)
    cmd_evolve(ExperimentConfig(xi_values=(-0.5, 0.5), t_final=2.0,
                                out_dir=str(tmp_path / "ev")).validate())
    cmd_info_sweep(ExperimentConfig(xi_values=(0.0, 1.0), gamma_values=(0.3,),
                                    jxy_values=(0.25,), out_dir=str(tmp_path / "info"),
                                    save_states=True).validate())
    tables = {f"{kind}_xi{xi}.csv" for kind in ("trajectory", "bloch")
              for xi in ("-0.500", "+0.500")}
    states = {name for name in writing if name.startswith("rho_ss_")}
    assert set(from_kernel) == set(writing) == tables | states | {"info_sweep.csv"}
    # t and 5 observables, t and 6 Bloch components
    assert all(from_kernel[name] == [True] * (6 if name.startswith("trajectory") else 7)
               for name in tables)
    assert from_kernel["info_sweep.csv"] == [True] * 6 + [False]
    assert len(states) == 2


def test_discord_bench_seeds_beyond_int64_are_exact(tmp_path):
    # at seed 10**14 the state seeds seed * 10**6 + rank * 10**5 + index pass
    # 2**63, so the column holds Python integers, each written exactly
    cmd_discord_bench(ExperimentConfig(n_states=1, ranks=(2,), seed=10**14,
                                       out_dir=str(tmp_path)).validate())
    row = (tmp_path / "discord_bench.csv").read_text().splitlines()[1]
    assert row.startswith("100000000000000200000,2,")


@pytest.mark.parametrize("n_xi", [1, 3])
def test_evolve_formats_each_distinct_column_once(tmp_path, monkeypatch, n_xi):
    # bx1, bz1, bx2 and bz2 are sx1, sz1, sx2 and sz2, and t is the same at
    # every xi: t once, and sz1, sz2, sx1, sx2, sy1, sy2 and purity once per
    # xi make 1 + 7 n column passes, where one pass per table column is 13 n
    from qusync import operators

    passes, float_cells = [], operators._float_cells

    def counted(x):
        passes.append(x.size)
        return float_cells(x)

    monkeypatch.setattr(operators, "_float_cells", counted)
    xis = (-0.5, 0.1, 0.5)[:n_xi]
    written = cmd_evolve(ExperimentConfig(xi_values=xis, t_final=2.0, dt=0.01,
                                          out_dir=str(tmp_path / "ev")).validate())
    assert len(written) == 3 * n_xi
    assert passes == [201] * (1 + 7 * n_xi)
