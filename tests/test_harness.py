"""Config parsing, orchestration, CSV emission, CLI."""

import csv
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from critvar import (FlowParams, emit_csv, parse_scenario, run,
                     serialize_scenario, write_report)
from critvar.cli import main as cli_main
from critvar.errors import ConfigError, EmptyReport, IoError
from critvar.harness import _FLOW_KEYS

MINIMAL = """
[domain]
dimension = 5

[weights.a]
gamma0 = 1.0
coefficient = 1.0

[weights.b]
gamma0 = 1.0
coefficient = 1.0
"""

SWEEP = """
[domain]
schema = 1
dimension = 5
cells = 400

[weights.a]
gamma0 = 1.0
exponent = 4.0
coefficient = 1.0

[weights.b]
gamma0 = 1.0
exponent = 4.0
coefficient = 1.0

[flow]
max_iters = 4000
grad_tol = 1e-5

[sweep]
lambdas = 6 12

[output]
analyses = constants eig minimize pohozaev
"""


def test_minimal_config_defaults():
    s = parse_scenario(MINIMAL)
    assert s.cells == 2000
    assert s.grading == "uniform"
    assert s.radius == 1.0
    assert s.mode == "theorem"
    assert s.weight_a.exponent == 2.0
    assert s.analyses == ("constants", "eig", "minimize", "asymptotics",
                          "pohozaev", "omega")


def test_gamma0_mismatch_rejected():
    text = MINIMAL.replace("gamma0 = 1.0\ncoefficient = 1.0\n\n[weights.b]",
                           "gamma0 = 2.0\ncoefficient = 1.0\n\n[weights.b]", 1)
    with pytest.raises(ConfigError, match="gamma0"):
        parse_scenario(text)


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="wibble"):
        parse_scenario(MINIMAL + "\n[flow]\nwibble = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_scenario(MINIMAL + "\n[mystery]\nx = 1\n")


def test_mode_bounds():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("dimension = 5", "dimension = 3"))
    low_dim = MINIMAL.replace("dimension = 5", "dimension = 3\nmode = machinery")
    assert parse_scenario(low_dim).dimension == 3


def test_roundtrip_identity():
    s = parse_scenario(SWEEP)
    assert parse_scenario(serialize_scenario(s)) == s


def test_roundtrip_with_perturbation():
    text = MINIMAL + "\n[sweep]\nstart = 1.0\nstop = 2.0\nstep = 0.5\n"
    text = text.replace("[weights.b]",
                        "perturbation_r = 0.0 0.5 1.0\n"
                        "perturbation_theta = 0.0 0.1 0.0\n\n[weights.b]")
    s = parse_scenario(text)
    assert s.lambdas == (1.0, 1.5, 2.0)
    assert s.weight_a.perturbation == ((0.0, 0.5, 1.0), (0.0, 0.1, 0.0))
    assert parse_scenario(serialize_scenario(s)) == s


def test_flow_params_are_the_flow_keys():
    # a FlowParams field no config can set is a knob nothing turns
    assert {f.name for f in fields(FlowParams)} == _FLOW_KEYS


def test_roundtrip_every_flow_key():
    values = {"step": "0.25", "max_iters": "123", "grad_tol": "3e-07",
              "stall_window": "77", "init": "random", "init_eps": "0.002",
              "seed": "9"}
    assert set(values) == _FLOW_KEYS
    s = parse_scenario(MINIMAL + "\n[flow]\n"
                       + "".join(f"{k} = {v}\n" for k, v in values.items()))
    for key in values:
        assert getattr(s.flow, key) != getattr(FlowParams(), key)
    assert parse_scenario(serialize_scenario(s)) == s


def test_constants_only_run():
    s = parse_scenario(MINIMAL.replace(
        "[weights.b]", "[weights.b]").replace("dimension = 5",
                                              "dimension = 5\ncells = 100"))
    from dataclasses import replace

    s = replace(s, analyses=("constants",))
    rep = run(s)
    assert len(rep.tables["constants"]) == 1
    assert rep.tables["minimize"] == [] and rep.tables["eig"] == []
    row = rep.tables["constants"][0]
    assert row["slope_factor"] == pytest.approx(105.0 / 32.0)


def test_full_run_and_dependencies(tmp_path):
    s = parse_scenario(SWEEP)
    rep = run(s)
    assert len(rep.tables["minimize"]) == 2
    converged = {r["lambda"] for r in rep.tables["minimize"]
                 if r["status"] == "converged"}
    poh = {r["lambda"] for r in rep.tables["pohozaev"]}
    assert poh == converged                     # dependency correctness
    for row in rep.tables["minimize"]:
        assert row["verdict"] in ("achieved_by_theorem", "energy_gap_only",
                                  "no_minimizer_by_theorem", "outside_theory")
        assert row["case_id"]
    paths = write_report(rep, tmp_path)
    names = {p.name for p in paths}
    assert {"constants.csv", "eig.csv", "minimize.csv", "pohozaev.csv",
            "provenance.csv"} <= names


def test_determinism(tmp_path):
    s = parse_scenario(SWEEP)
    bodies = []
    for tag in ("one", "two"):
        rep = run(s)
        out = tmp_path / tag
        write_report(rep, out)
        body = {}
        for p in sorted(out.glob("*.csv")):
            lines = p.read_text().splitlines()
            body[p.name] = [x for x in lines if not x.startswith("#")]
        bodies.append(body)
    assert bodies[0] == bodies[1]


def test_emit_csv_formatting(tmp_path):
    path = tmp_path / "x.csv"
    emit_csv([{"a": 1.0 / 3.0, "b": True, "c": "txt"}], path, timestamp=False)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.33333333333333331,true,txt"


def test_emit_csv_quotes_text_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    rows = [{"lambda": 0.5, "regime": "dim=4,k=2,l>2", "note": 'say "hi"'},
            {"lambda": 1.5, "regime": "dim>=5,k=2,l=2", "note": "plain"}]
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[2] == '0.5,"dim=4,k=2,l>2","say ""hi"""'
    header, *body = csv.reader(lines[1:])
    assert header == ["lambda", "regime", "note"]
    assert body == [["0.5", "dim=4,k=2,l>2", 'say "hi"'],
                    ["1.5", "dim>=5,k=2,l=2", "plain"]]


def test_emit_csv_errors(tmp_path):
    with pytest.raises(EmptyReport):
        emit_csv([], tmp_path / "y.csv")
    with pytest.raises(IoError):
        emit_csv([{"a": 1.0}], tmp_path / "no-such-dir" / "y.csv")


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP)
    code = cli_main(["minimize", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "minimize.csv").exists()
    out = capsys.readouterr().out
    assert "minimize.csv" in out


def test_cli_has_no_jobs_option(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP)
    with pytest.raises(SystemExit) as exc:
        cli_main(["all", "--jobs", "2", "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_takes_only_one_job():
    with pytest.raises(ConfigError, match="jobs"):
        run(parse_scenario(SWEEP), jobs=2)


def _csv_rows(path):
    return list(csv.DictReader(
        line for line in path.read_text().splitlines() if not line.startswith("#")))


def test_cli_pohozaev_runs_minimize(tmp_path):
    # every dilation-identity row describes a pair reported in minimize.csv
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP)
    out = tmp_path / "out"
    assert cli_main(["pohozaev", "--config", str(cfg), "--out", str(out)]) == 0
    converged = {r["lambda"] for r in _csv_rows(out / "minimize.csv")
                 if r["status"] == "converged"}
    poh = {r["lambda"] for r in _csv_rows(out / "pohozaev.csv")}
    assert poh and poh == converged


def test_cli_pohozaev_without_converged_pair_fails(tmp_path, capsys):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP.replace("max_iters = 4000", "max_iters = 20"))
    out = tmp_path / "out"
    assert cli_main(["pohozaev", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (out / "pohozaev.csv").exists()
    assert {r["status"] for r in _csv_rows(out / "minimize.csv")} == {"stalled"}
    assert "pohozaev" in capsys.readouterr().err


def test_cli_bad_config(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[domain]\ndimension = 5\nnonsense = 1\n")
    assert cli_main(["constants", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", [
    MINIMAL + "\n[flow]\nstep = 0\n",
    MINIMAL + "\n[flow]\ninit = bogus\n",
    MINIMAL + "\n[flow]\ninit = custom\n",
    MINIMAL + "\n[flow]\ngrad_tol = abc\n",
    MINIMAL + "\n[flow]\ninit_eps = -1\n",
    MINIMAL.replace("dimension = 5", "dimension = five"),
    MINIMAL + "\n[sweep]\nlambdas = 1 two\n",
    MINIMAL + "\n[sweep]\nstart = 1\nstop = x\nstep = 1\n",
    MINIMAL.replace("[weights.b]", "perturbation_r = 0 a\n"
                    "perturbation_theta = 0 0\n\n[weights.b]"),
    MINIMAL.replace("gamma0 = 1.0", "gamma0 = 0.0"),
    MINIMAL + "\n[output]\nplots = maybe\n",
], ids=["step-zero", "init-bogus", "init-custom", "grad-tol-text",
        "init-eps-negative", "dimension-text", "lambdas-text", "stop-text", "perturbation-text",
        "gamma0-zero", "plots-text"])
def test_bad_value_is_config_error(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_scenario(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert cli_main(["minimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("output, sweep", [
    ("analyses =", ""),
    ("analyses = minimize", "[sweep]\nstart = 5\nstop = 1\nstep = 1\n"),
], ids=["no-analysis", "minimize-without-couplings"])
def test_run_with_nothing_to_do_is_config_error(tmp_path, output, sweep):
    text = MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 100")
    text += f"\n{sweep}\n[output]\n{output}\n"
    with pytest.raises(ConfigError):
        run(parse_scenario(text))
    cfg = tmp_path / "empty.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def _machinery_config(tmp_path, dim):
    cfg = tmp_path / "low.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", f"dimension = {dim}\n"
                                   "mode = machinery\ncells = 100")
                   + "\n[flow]\nmax_iters = 20\n\n[sweep]\nlambdas = 1\n")
    return cfg


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("command", ["all", "constants", "minimize",
                                     "asymptotics", "pohozaev"])
def test_machinery_below_n4_rejects_closed_form_analyses(tmp_path, capsys,
                                                         dim, command):
    # constants, thresholds and the critical exponent are defined for N >= 4
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(_machinery_config(tmp_path, dim)),
                     "--out", str(out)]) == 2
    assert "N >= 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("command", ["eig", "omega"])
def test_machinery_below_n4_runs_eig_and_omega(tmp_path, dim, command):
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(_machinery_config(tmp_path, dim)),
                     "--out", str(out)]) == 0
    assert (out / f"{command}.csv").exists()


def test_cli_omega_on_too_coarse_a_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 16"))
    assert cli_main(["omega", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "20 cells" in capsys.readouterr().err


def test_cli_missing_file(tmp_path):
    assert cli_main(["constants", "--config", str(tmp_path / "nope.ini")]) == 2
