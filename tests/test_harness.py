"""Config parsing, orchestration, CSV emission, CLI."""

import configparser
import csv
import math
import re
import runpy
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from critvar import (BubbleParams, FlowParams, bubble_field, build_grid,
                     default_eps_ladder, emit_csv, parse_scenario, run,
                     serialize_scenario, write_report)
from critvar.cli import main as cli_main
from critvar.errors import (ConfigError, CritvarError, EmptyReport, IoError,
                            UnderResolvedBubble)
from critvar.grid import RadialGrid
from critvar.harness import _FIELD, _FIXED, _FORMAT, ANALYSES, Scenario
from conftest import serialize_scenario_reference

REPO = Path(__file__).resolve().parent.parent

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
    assert "\nmode = theorem\n" in serialize_scenario(s)
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
    # machinery mode ran eig and omega at N = 2 and 3
    low_dim = MINIMAL.replace("dimension = 5", "dimension = 3\nmode = machinery")
    with pytest.raises(ConfigError, match="'mode'"):
        parse_scenario(low_dim)


def test_roundtrip_identity():
    s = parse_scenario(SWEEP)
    assert parse_scenario(serialize_scenario(s)) == s


def test_roundtrip_with_perturbation():
    text = MINIMAL + "\n[sweep]\nlambdas = 1.0 1.5 2.0\n"
    text = text.replace("[weights.b]",
                        "perturbation_r = 0.0 0.5 1.0\n"
                        "perturbation_theta = 0.0 0.1 0.0\n\n[weights.b]")
    s = parse_scenario(text)
    assert s.lambdas == (1.0, 1.5, 2.0)
    assert s.weight_a.perturbation == ((0.0, 0.5, 1.0), (0.0, 0.1, 0.0))
    assert parse_scenario(serialize_scenario(s)) == s


def test_flow_params_are_the_flow_keys():
    # a FlowParams field no config can set is a knob nothing turns
    assert {f.name for f in fields(FlowParams)} == set(_FORMAT["flow"])


def test_scenario_fields_are_the_config_keys():
    # a key kept only for the config hash is no field: a run cannot read it
    keys = {_FIELD.get(key, key) for name in ("domain", "output")
            for key in _FORMAT[name] if key not in _FIXED}
    assert {f.name for f in fields(Scenario)} == keys | {
        "weight_a", "weight_b", "lambdas", "flow"}


_TABLE = "perturbation_r = 0.0 0.5 1.0\nperturbation_theta = 0.0 0.1 0.0\n"
# every key at a value other than its default (the keys of _FIXED each
# have only one value); a "%" is text like any other character
EVERY_KEY = f"""
[domain]
schema = 1
dimension = 6
radius = 2.0
cells = 300
grading = geometric
mode = theorem
ratio = 1.01

[weights.a]
gamma0 = 2.0
exponent = 3.0
coefficient = 0.5
{_TABLE}
[weights.b]
gamma0 = 2.0
exponent = 4.0
coefficient = 1.5
{_TABLE}
[flow]
step = 0.25
max_iters = 123
grad_tol = 3e-07
stall_window = 77
init = random
seed = 9

[sweep]
lambdas = 1.5 3.0

[output]
directory = runs/100%
analyses = eig omega
plots = false
"""


def test_roundtrip_every_flow_key():
    given = configparser.ConfigParser(interpolation=None)
    given.read_string(EVERY_KEY)
    expected = {name: set(keys) for name, keys in _FORMAT.items()}
    assert {name: set(given[name]) for name in given.sections()} == expected
    for name in given.sections():
        for key, text in given[name].items():
            read, default = _FORMAT[name][key]
            assert read(text) != default or key in _FIXED
    # the parsed scenario holds every given value: its serialization
    # writes each key back as the same value
    s = parse_scenario(EVERY_KEY)
    out = configparser.ConfigParser(interpolation=None)
    out.read_string(serialize_scenario(s))
    for name in given.sections():
        for key, text in given[name].items():
            read = _FORMAT[name][key][0]
            assert read(out[name][key]) == read(text), (name, key)
    assert parse_scenario(serialize_scenario(s)) == s


def test_roundtrip_with_list_tables():
    # a Scenario built in code may hold lists where parsing makes tuples
    s = parse_scenario(EVERY_KEY)
    table = ([0.0, 0.5, 1.0], [0.0, 0.1, 0.0])
    listed = replace(s, lambdas=[1.5, 3.0], analyses=["eig", "omega"],
                     weight_a=replace(s.weight_a, perturbation=table))
    assert serialize_scenario(listed) == serialize_scenario(s)
    assert parse_scenario(serialize_scenario(listed)) == s


def test_schema_doc_lists_every_key():
    # docs/schema.md's config tables name the keys of the format, section by section
    doc = (REPO / "docs" / "schema.md").read_text().split("\n## ")[1]
    listed = {}
    for part in doc.split("\n### ")[1:]:
        heading, body = part.split("\n", 1)
        keys = set(re.findall(r"^\| `(\w+)`", body, re.MULTILINE))
        for name in re.findall(r"`\[([\w.]+)\]`", heading):
            listed[name] = keys
    assert listed == {name: set(keys) for name, keys in _FORMAT.items()}


def _workloads() -> dict:
    return runpy.run_path(str(REPO / "perfbench" / "workloads.py"))


SEED_11_DIGESTS = {
    "existence-sweep": "52afadbb4d7b34c79574dd5f93d6b82aa689b7bebaac3380642e8fb566d13c97",
    "concentration": "080f02ee2958ae2de14b9d2a008dbdb3635874d3f24648b536ce6c3015703468",
    "diagnostics-n4": "5a119c0378897e810db57f03f820255807fbeb84f803790a6d27326ad9c27a3d",
}


@pytest.mark.parametrize("workload", SEED_11_DIGESTS)
def test_config_sha256_of_the_benchmark_scenarios(workload):
    # the serialized scenario, and so its hash, does not depend on how the
    # format is written down
    rep = run(parse_scenario(_workloads()["scenario_ini"](workload, 11)))
    assert rep.provenance["config_sha256"] == SEED_11_DIGESTS[workload]


def test_serialized_text_is_configparsers_layout():
    # byte for byte what ConfigParser.write prints for the same keys, on every
    # benchmark scenario and on one with perturbation tables and a newline
    # inside a value, which parses back to the same scenario
    gen = _workloads()
    for workload in gen["WORKLOADS"]:
        for variant in range(gen["VARIANTS"]):
            s = parse_scenario(gen["scenario_ini"](workload, variant))
            assert serialize_scenario(s) == serialize_scenario_reference(s), (workload, variant)
    s = replace(parse_scenario(EVERY_KEY), out_dir="runs/a\nb")
    assert s.weight_a.perturbation is not None
    text = serialize_scenario(s)
    assert text == serialize_scenario_reference(s)
    assert "directory = runs/a\n\tb\n" in text
    assert parse_scenario(text) == s


def test_concentration_workload_never_polishes(monkeypatch):
    # the concentrating flow's residual stays above 3, far above the
    # polish's switch at 1, so it makes no Newton attempt
    import critvar.minimizer

    attempts = []
    polish = critvar.minimizer._newton_polish

    def counted(*args):
        attempts.append(1)
        return polish(*args)

    monkeypatch.setattr(critvar.minimizer, "_newton_polish", counted)
    rep = run(parse_scenario(_workloads()["scenario_ini"]("concentration", 11)))
    assert [r["status"] for r in rep.tables["minimize"]] == ["concentrating"]
    assert attempts == []


def test_constants_only_run():
    s = parse_scenario(MINIMAL.replace(
        "[weights.b]", "[weights.b]").replace("dimension = 5",
                                              "dimension = 5\ncells = 100"))
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


def test_cli_has_no_plots_option(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP)
    with pytest.raises(SystemExit) as exc:
        cli_main(["all", "--plots", "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_plots_true_exits_2_before_writing(tmp_path, capsys):
    # the CSVs were written, then the plot failed for want of matplotlib
    cfg = tmp_path / "scen.ini"
    cfg.write_text(SWEEP + "plots = true\n")
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert "plots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("word", ["no", "False", "0", "off"])
def test_plots_takes_only_the_word_false(word):
    # each was read as a boolean false, a second spelling of the one value
    with pytest.raises(ConfigError, match="'plots'"):
        parse_scenario(MINIMAL + f"\n[output]\nplots = {word}\n")


@pytest.mark.parametrize("key", ["start", "stop", "step"])
def test_sweep_takes_no_range(tmp_path, capsys, key):
    # [sweep] lists its couplings: the range start, stop, step was a second
    # spelling of that list
    cfg = tmp_path / "range.ini"
    cfg.write_text(MINIMAL + f"\n[sweep]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[sweep\]"):
        parse_scenario(cfg.read_text())
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"lambdas": (1.0, math.nan)},
    {"lambdas": (math.inf,)},
], ids=["lambda-nan", "lambda-inf"])
def test_scenario_rejects_what_a_run_cannot_do(change):
    # a NaN coupling failed inside the first flow, after constants, eig
    # and omega had run
    with pytest.raises(ConfigError):
        replace(parse_scenario(SWEEP), **change)


def test_negative_coupling_exits_2(tmp_path, capsys):
    # the pool's candidates are sign-normalized, the right choice only for
    # lam >= 0: this sweep ran, and its -3 row read `pooled` at 11.946677,
    # above the 11.946522 its own 3 row's (u, -v) gives at -3
    cfg = tmp_path / "neg.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 200\n"
                                   "grading = geometric\nratio = 1.01")
                   + "\n[sweep]\nlambdas = -3 3\n\n[output]\nanalyses = minimize\n")
    assert cli_main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "Q(-lam) = Q(lam)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert parse_scenario(cfg.read_text().replace("-3", "0")).lambdas[0] == 0.0


@pytest.mark.parametrize("warn", ["error", "always"])
def test_overflowing_coupling_exits_2_without_a_warning(tmp_path, capsys, warn):
    # the first flow's residual overflows: under -W error the run died with
    # a RuntimeWarning traceback, else it printed the warning before exit 2
    cfg = tmp_path / "huge.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 200\n"
                                   "grading = geometric\nratio = 1.01")
                   + "\n[sweep]\nlambdas = 1e300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warn)
        code = cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2 and not caught
    err = capsys.readouterr().err
    assert "non-finite" in err and "Warning" not in err


@pytest.mark.parametrize("cells, ratio, rungs", [(100, 1.1, 20), (200, 1.2, 95)])
def test_ladder_of_a_coarse_geometric_grid_has_only_resolved_rungs(tmp_path, cells,
                                                                  ratio, rungs):
    # the ladder's floor sqrt(eps) >= 8 h0 alone let in rungs with fewer than
    # 8 nodes inside r < sqrt(eps), which energy_curves refused: exit 2, no
    # CSV.  The ladder now also stops at the first rung bubble_field refuses
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", f"dimension = 5\ncells = {cells}\n"
                                   f"grading = geometric\nratio = {ratio}")
                   + "\n[sweep]\nlambdas = 9.0\n\n[output]\n"
                   "analyses = constants eig asymptotics omega\n")
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_csv_rows(out / "asymptotics.csv")) == 1
    grid = build_grid(5, 1.0, cells, grading="geometric", ratio=ratio)
    ladder = default_eps_ladder(grid, 0.5)
    assert len(ladder) == rungs
    bubble_field(BubbleParams(ladder[-1], 0.5), grid)
    with pytest.raises(UnderResolvedBubble):
        bubble_field(BubbleParams(ladder[-1] / 2.0, 0.5), grid)


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


def test_cli_config_not_utf8(tmp_path, capsys):
    # once a raw UnicodeDecodeError traceback and exit 1
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"\xff\xfe\x00bad")
    assert cli_main(["all", "--config", str(cfg)]) == 2
    assert "error: cannot read config: " in capsys.readouterr().err


def test_cli_config_with_byte_order_mark(tmp_path):
    # once exit 2 with "malformed config: File contains no section headers"
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(MINIMAL, encoding=encoding)
        assert cli_main(["constants", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
    assert (_csv_rows(tmp_path / "marked" / "constants.csv")
            == _csv_rows(tmp_path / "plain" / "constants.csv"))


@pytest.mark.parametrize("ratio", [2.0, 1.1])
def test_cli_grading_past_float_range(tmp_path, capsys, ratio):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 2000\n"
                                   f"grading = geometric\nratio = {ratio}"))
    assert cli_main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"ratio = {ratio}, cells = 2000" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    MINIMAL + "\n[flow]\nstep = 0\n",
    MINIMAL + "\n[flow]\ninit = bogus\n",
    MINIMAL + "\n[flow]\ninit = custom\n",
    MINIMAL + "\n[flow]\ngrad_tol = abc\n",
    MINIMAL.replace("dimension = 5", "dimension = five"),
    MINIMAL + "\n[sweep]\nlambdas = 1 two\n",
    MINIMAL + "\n[sweep]\nstart = 1\nstop = x\nstep = 1\n",
    # a partial or infinite range once gave no couplings, or a raw traceback;
    # [sweep] now takes no range, so each of its keys is unknown
    MINIMAL + "\n[sweep]\nstop = 5\nstep = 1\n",
    MINIMAL + "\n[sweep]\nstep = 1\n",
    MINIMAL + "\n[sweep]\nstart = 1\nstop = inf\nstep = 1\n",
    MINIMAL + "\n[sweep]\nstart = 1\nstop = 5\nstep = nan\n",
    MINIMAL.replace("[weights.b]", "perturbation_r = 0 a\n"
                    "perturbation_theta = 0 0\n\n[weights.b]"),
    # an unsorted table was read as theta = 0, and theta(0) != 0 as a
    # weight whose r^2 coefficient the verdict did not see
    MINIMAL.replace("[weights.b]", "perturbation_r = 1.0 0.5 0.0\n"
                    "perturbation_theta = 0.0 0.5 0.0\n\n[weights.b]"),
    MINIMAL.replace("[weights.b]", "perturbation_r = 0.0 1.0\n"
                    "perturbation_theta = 0.5 0.5\n\n[weights.b]"),
    MINIMAL.replace("[weights.b]", "perturbation_r = 0.0 1.0\n"
                    "perturbation_theta = 0.0 nan\n\n[weights.b]"),
    MINIMAL.replace("[weights.b]", "perturbation_r = 0.0 1.0\n"
                    "perturbation_theta = 0.0\n\n[weights.b]"),
    MINIMAL.replace("gamma0 = 1.0", "gamma0 = 0.0"),
    MINIMAL + "\n[output]\nplots = maybe\n",
    # each once ran: a flow of 0 iterations that reported its start, a
    # stall window that ended it at once, numpy's ValueError on a negative
    # seed, and a NaN coupling that failed only inside the flow
    MINIMAL + "\n[flow]\nmax_iters = -5\n",
    MINIMAL + "\n[flow]\nstall_window = -1\n",
    MINIMAL + "\n[flow]\ninit = random\nseed = -1\n",
    MINIMAL + "\n[sweep]\nlambdas = 1 nan\n",
], ids=["step-zero", "init-bogus", "init-custom", "grad-tol-text",
        "dimension-text", "lambdas-text", "stop-text",
        "range-without-start", "range-step-only", "range-infinite", "range-nan",
        "perturbation-text", "perturbation-unsorted", "perturbation-theta0",
        "perturbation-nan", "perturbation-lengths", "gamma0-zero", "plots-text",
        "max-iters-negative", "stall-window-negative", "seed-negative",
        "lambdas-nan"])
def test_bad_value_is_config_error(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_scenario(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert cli_main(["minimize", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_sweep_holds_at_most_the_coupling_limit():
    # a range was once built whatever its count: start = 0, stop = 1e12,
    # step = 1e-6 asked for a tuple of 1e18 couplings; the list, the one
    # spelling left, is counted as well
    sweeps = [MINIMAL + "\n[sweep]\nlambdas = " + " ".join(map(str, range(count))) + "\n"
              for count in (10000, 10001)]
    assert len(parse_scenario(sweeps[0]).lambdas) == 10000
    with pytest.raises(ConfigError, match="10001 couplings"):
        parse_scenario(sweeps[1])


def test_cli_writes_an_absent_number_as_nan(tmp_path, capsys):
    # no K3 at N = 4, no upper bound on omega for a = b = 1 + r^2, no gap
    # threshold for an exponent below 2, no omega in a run without it
    n4 = MINIMAL.replace("dimension = 5", "dimension = 4\ncells = 200")
    cfg = tmp_path / "n4.ini"
    cfg.write_text(n4 + "\n[output]\nanalyses = constants omega\n")
    assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    [const] = _csv_rows(tmp_path / "a" / "constants.csv")
    [omega] = _csv_rows(tmp_path / "a" / "omega.csv")
    cfg.write_text(n4.replace("coefficient", "exponent = 1.5\ncoefficient", 1)
                   + "\n[flow]\nmax_iters = 20\n\n[sweep]\nlambdas = 1\n")
    assert cli_main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    [row] = _csv_rows(tmp_path / "b" / "minimize.csv")
    absent = (const["k3"], omega["upper_bound"], row["gap_threshold"], row["omega"])
    assert absent == ("nan",) * 4
    assert all(map(math.isfinite, map(float, (
        const["k2"], omega["lower_bound"], row["q_lambda"], row["lambda_tilde"]))))
    # no omega bound at all for a = 1 + r^1.5 beside b = 1 + r^4; and at N = 5
    # that pair has no expansion row either, but a grid too coarse for an
    # eps-ladder fails the asymptotics before the table is asked
    cfg.write_text(MINIMAL.replace("gamma0 = 1.0\ncoefficient",
                                   "gamma0 = 1.0\nexponent = 1.5\ncoefficient", 1)
                   .replace("gamma0 = 1.0\ncoefficient",
                            "gamma0 = 1.0\nexponent = 4.0\ncoefficient", 1)
                   .replace("dimension = 5", "dimension = 5\ncells = 100")
                   + "\n[sweep]\nlambdas = 1\n\n[output]\nanalyses = asymptotics omega\n")
    assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
    assert "invariant failure: asymptotics: " in capsys.readouterr().err
    assert not (tmp_path / "c" / "asymptotics.csv").exists()
    [omega] = _csv_rows(tmp_path / "c" / "omega.csv")
    assert (omega["lower_bound"], omega["upper_bound"]) == ("nan", "nan")
    assert math.isfinite(float(omega["value"]))


def _is_number(read) -> bool:
    """Whether a key's reader reads numbers: one, or a list of them."""
    try:
        value = read("1")
    except ValueError:
        return False
    values = value if isinstance(value, tuple) else (value,)
    return all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in values)


def _number_cases():
    """(section, key, entry) for every number of the config format: each
    numeric key of _FORMAT (entry None), and each entry of a list-valued
    one, at its place in EVERY_KEY."""
    given = configparser.ConfigParser(interpolation=None)
    given.read_string(EVERY_KEY)
    for name, keys in _FORMAT.items():
        for key, (read, _) in keys.items():
            if not _is_number(read):
                continue
            text = given[name][key]
            if isinstance(read(text), tuple):
                for entry in range(len(text.split())):
                    yield pytest.param(name, key, entry, id=f"{name}.{key}[{entry}]")
            else:
                yield pytest.param(name, key, None, id=f"{name}.{key}")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("name, key, entry", list(_number_cases()))
def test_every_number_must_be_finite(tmp_path, capsys, name, key, entry, bad):
    # gamma0 = nan was reported as unequal centers, exponent = inf ran to an
    # asymptotics failure, step = nan ran a flow, lambdas = nan failed
    # inside the flow, radius = nan as "nodes must be strictly increasing"
    text = EVERY_KEY.replace("cells = 300", "cells = 40")
    parse_scenario(text)                        # valid but for the bad number
    config = configparser.ConfigParser(interpolation=None)
    config.read_string(text)
    values = config[name][key].split()
    values[entry or 0] = bad
    config[name][key] = " ".join(values)
    cfg = tmp_path / "bad.ini"
    with cfg.open("w") as f:
        config.write(f)
    assert cli_main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and f"'{key}'" in errors[0] and f"[{name}]" in errors[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output, sweep", [
    ("analyses =", ""),
    ("analyses = minimize", "[sweep]\nlambdas =\n"),
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


@pytest.mark.parametrize("sweep", ["", "\n[sweep]\nlambdas =\n"],
                         ids=["no-sweep", "empty-list"])
def test_all_without_couplings_runs_what_needs_none(tmp_path, capsys, sweep):
    # minimize, asymptotics and pohozaev have no coupling to run on, so they
    # are not run; no pohozaev failure is reported for a sweep never made
    cfg = tmp_path / "no-couplings.ini"
    cfg.write_text(MINIMAL + sweep)
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 0
    assert "failure" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "constants.csv", "eig.csv", "omega.csv", "provenance.csv"]


@pytest.mark.parametrize("defaults", ["", "cells = 100\n", "gamma0 = 2\n"])
def test_default_section_exits_2(tmp_path, capsys, defaults):
    # configparser merges [DEFAULT] into every section, so its keys were
    # reported as unknown in a section the file does not give them in
    cfg = tmp_path / "default.ini"
    cfg.write_text("[DEFAULT]\n" + defaults + MINIMAL)
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        parse_scenario(cfg.read_text())
    assert cli_main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_ratio_on_a_uniform_grid_exits_2(tmp_path, capsys):
    # the grid ignored it while the config hash counted it
    cfg = tmp_path / "uniform.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\nratio = 1.01"))
    assert cli_main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "ratio" in capsys.readouterr().err


_DOMAIN = dict(dimension=5, cells=100, radius=1.0, grading="uniform", ratio=None,
               mode="theorem")
# any [domain] values, or values a grid can be built from: cells above the
# cap are drawn from 10^12 up, which numpy refuses at once, so a cap that
# failed to hold allocates nothing
_ANY = dict(dimension=st.integers(0, 10),
            cells=st.integers(-5, 200) | st.integers(10**12, 10**18),
            radius=st.floats(), grading=st.sampled_from(["uniform", "geometric", "log"]),
            ratio=st.none() | st.floats(),
            mode=st.sampled_from(["theorem", "machinery", "Theorem"]))
_BUILDABLE = dict(_ANY, dimension=st.integers(4, 8), cells=st.integers(16, 200),
                  radius=st.floats(0.01, 100.0), mode=st.just("theorem"))
_DOMAINS = (st.fixed_dictionaries(_ANY)
            | st.fixed_dictionaries(dict(_BUILDABLE, grading=st.just("uniform"),
                                         ratio=st.none()))
            | st.fixed_dictionaries(dict(_BUILDABLE, grading=st.just("geometric"),
                                         ratio=st.floats(0.5, 2.0))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(domain=_DOMAINS)
@example(domain={**_DOMAIN, "cells": 10**12})   # numpy's _ArrayMemoryError escaped
@example(domain={**_DOMAIN, "dimension": 3, "mode": "machinery"})
def test_domain_section_ends_in_a_grid_or_a_critvar_error(domain):
    text = MINIMAL.replace("dimension = 5", "\n".join(
        f"{key} = {value}" for key, value in domain.items() if value is not None))
    try:
        grid = parse_scenario(text).build_grid()
    except CritvarError:
        return
    assert isinstance(grid, RadialGrid) and len(grid.nodes) == domain["cells"] + 1


# weight values from 0 to past the float range's square root; each weight
# section is gamma0 + coefficient r^exponent, the two sharing gamma0
_WEIGHT_VALUES = (0.0, 1e-300, 1e-8, 2.0, 4.0, 1e300)
_POWERS = st.tuples(st.sampled_from(_WEIGHT_VALUES), st.sampled_from(_WEIGHT_VALUES))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(domain=st.builds(lambda n: {"dimension": n, "cells": 64}, st.integers(4, 8)),
       gamma0=st.sampled_from(_WEIGHT_VALUES), a=_POWERS, b=_POWERS)
# 2.0 ** (1e300 - 2) raised OverflowError in omega_bounds: exit 1
@example(domain={"dimension": 6, "cells": 20}, gamma0=1e-300, a=(2.0, 0.5), b=(1e300, 1e-8))
# c e = 1e300 * 1e300 is inf beside r^(e - 1) = 0: a nan tilt, omega nan, exit 0
@example(domain={"dimension": 5, "cells": 200}, gamma0=1e300, a=(2.0, 0.0),
         b=(1e300, 1e300))
# the conductances overflowed with a RuntimeWarning before the operator refused them
@example(domain={"dimension": 4, "cells": 200, "grading": "geometric", "ratio": 0.9},
         gamma0=1e300, a=(1e-300, 1e300), b=(1e-300, 1e300))
def test_weight_sections_end_in_a_report_or_a_critvar_error(domain, gamma0, a, b):
    text = "[domain]\n" + "".join(f"{key} = {value}\n" for key, value in domain.items())
    for name, (exponent, coefficient) in (("a", a), ("b", b)):
        text += (f"\n[weights.{name}]\ngamma0 = {gamma0!r}\nexponent = {exponent!r}\n"
                 f"coefficient = {coefficient!r}\n")
    text += "\n[output]\nanalyses = constants eig omega\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = run(parse_scenario(text))
        except CritvarError:
            return
    assert not report.failures
    assert [len(report.tables[name]) for name in ("constants", "eig", "omega")] == [1, 1, 1]
    eig, omega = report.tables["eig"][0], report.tables["omega"][0]
    assert math.isfinite(eig["lambda_tilde"]) and not math.isnan(omega["value"])


def _machinery_config(tmp_path, dim):
    cfg = tmp_path / "low.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", f"dimension = {dim}\n"
                                   "mode = machinery\ncells = 100")
                   + "\n[flow]\nmax_iters = 20\n\n[sweep]\nlambdas = 1\n")
    return cfg


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("command", ANALYSES + ("all",))
def test_machinery_below_n4_rejects_closed_form_analyses(tmp_path, capsys,
                                                         dim, command):
    # machinery mode, which ran eig and omega below N = 4, is gone: the
    # problem is posed for N >= 4, and `mode` accepts only theorem
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(_machinery_config(tmp_path, dim)),
                     "--out", str(out)]) == 2
    assert "'mode'" in capsys.readouterr().err
    assert not out.exists()


def test_absurd_cell_count_exits_2(tmp_path, capsys):
    # numpy's linspace raised _ArrayMemoryError (7.28 TiB) and the run exited 1
    cfg = tmp_path / "huge.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 1000000000000"))
    out = tmp_path / "out"
    assert cli_main(["eig", "--config", str(cfg), "--out", str(out)]) == 2
    assert "1000000000000" in capsys.readouterr().err
    assert not out.exists()


def test_cli_omega_on_too_coarse_a_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 16"))
    assert cli_main(["omega", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "20 cells" in capsys.readouterr().err


@pytest.mark.parametrize("gamma0, code", [(1e-300, 0), (1e300, 0), (1e-305, 2)])
def test_cli_eig_at_extreme_gamma0(tmp_path, capsys, gamma0, code):
    # constant weights gamma0: at 1e+-300 lambda_1 is gamma0 times the unit
    # value; at 1e-305 the innermost conductances are subnormal, an
    # IndefiniteWeight, not a raw traceback
    constant = MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 200").replace(
        "coefficient = 1.0", "coefficient = 0.0")
    cfg = tmp_path / "scale.ini"
    cfg.write_text(constant.replace("gamma0 = 1.0", f"gamma0 = {gamma0!r}"))
    out = tmp_path / "out"
    assert cli_main(["eig", "--config", str(cfg), "--out", str(out)]) == code
    if code == 0:
        with open(out / "eig.csv") as fh:
            row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
        unit = run(parse_scenario(constant)).tables["eig"][0]
        for side in ("a", "b"):
            assert float(row[f"lambda1_{side}"]) == pytest.approx(
                gamma0 * unit[f"lambda1_{side}"], rel=1e-9)
    else:
        assert "conductances" in capsys.readouterr().err


@pytest.mark.parametrize("workload, eigen_solves", [
    ("concentration", 1), ("existence-sweep", 1), ("diagnostics-n4", 3)])
def test_benchmark_runs_solve_each_eigenproblem_once(monkeypatch, workload,
                                                     eigen_solves):
    # a = b solves once for lambda_tilde; omega reads the unit weight's
    # eigenvalue only for an upper bound, here only at diagnostics-n4's (2, 4)
    import critvar.spectral

    calls = []
    iterate = critvar.spectral._lanczos

    def counted(*args):
        calls.append(1)
        return iterate(*args)

    monkeypatch.setattr(critvar.spectral, "_lanczos", counted)
    run(parse_scenario(_workloads()["scenario_ini"](workload, 11)))
    assert len(calls) == eigen_solves


def test_cli_missing_file(tmp_path):
    assert cli_main(["constants", "--config", str(tmp_path / "nope.ini")]) == 2


def test_outside_table_rows_carry_the_message(tmp_path):
    # N = 5 with an exponent below 2 has no expansion row: one row per
    # coupling, labelled outside_table, nan in every number, with the
    # prediction's regime saying why
    cfg = tmp_path / "outside.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", "dimension = 5\ncells = 600")
                   .replace("gamma0 = 1.0\ncoefficient", "gamma0 = 1.0\n"
                            "exponent = 1.5\ncoefficient", 1)
                   + "\n[sweep]\nlambdas = 1 2.5\n")
    out = tmp_path / "out"
    assert cli_main(["asymptotics", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _csv_rows(out / "asymptotics.csv")
    assert [r["lambda"] for r in rows] == ["1", "2.5"]
    for row in rows:
        assert row["scale"] == "outside_table"
        assert row["regime"] == "no expansion row for N = 5 with exponent below 2"
        for key in ("power", "predicted_coeff", "fitted_coeff", "intercept",
                    "r_squared"):
            assert math.isnan(float(row[key]))


@pytest.mark.parametrize("cells", [100, 300])
def test_grid_too_coarse_for_a_ladder_records_a_failure(tmp_path, capsys, cells):
    # at N = 5, 100 uniform cells leave no ladder rung and 300 leave 3,
    # short of the 5 a fit takes
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(MINIMAL.replace("dimension = 5", f"dimension = 5\ncells = {cells}")
                   + "\n[sweep]\nlambdas = 1\n\n"
                   "[output]\nanalyses = constants eig asymptotics omega\n")
    out = tmp_path / "out"
    assert cli_main(["all", "--config", str(cfg), "--out", str(out)]) == 1
    assert "invariant failure: asymptotics: " in capsys.readouterr().err
    assert not (out / "asymptotics.csv").exists()
    for name in ("constants", "eig", "omega", "provenance"):
        assert (out / f"{name}.csv").exists()
