import json
import re
from pathlib import Path

import pytest

from dbmc.cli import main

TS_FLAGS = [
    "ts", "--zeta", "1", "--u-minus", "0.03", "--u-plus", "0.03",
    "--diameter", "13", "--diameter-minus", "13",
    "--chi0", "12", "--q", "3", "--h", "12", "--deadline", "5",
]

SCENARIO = """
[graph]
kind = standin13

[disturbance]
kind = sinusoid
amplitude = 0.03
seed = 1

[gain]
gamma = 2
h = 12
deadline = 5

[initial]
value = 12

[run]
t_end = auto
q = 3
chi0 = 12
bounds = none
focus_node = 8
"""


def test_ts_outputs_reference_value(capsys):
    assert main(TS_FLAGS) == 0
    out = capsys.readouterr().out
    match = re.search(r"t_s = ([0-9.]+)", out)
    assert match, out
    assert abs(float(match.group(1)) - 3.1445) <= 5e-4


def test_ts_sweep_reports_better_q(capsys):
    assert main(TS_FLAGS + ["--sweep-q"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"best q = ([0-9.]+) giving t_s = ([0-9.]+)", out)
    assert match, out
    assert float(match.group(2)) <= 3.1446


def test_ts_infeasible_exits_one(capsys):
    flags = list(TS_FLAGS)
    flags[flags.index("--u-minus") + 1] = "0.05"
    flags[flags.index("--u-plus") + 1] = "0.05"
    assert main(flags) == 1
    assert "infeasible" in capsys.readouterr().out


def test_gen_solve_pipeline(tmp_path, capsys):
    graph_file = tmp_path / "line.txt"
    assert main(["gen", "line", "--n", "13", "--out", str(graph_file)]) == 0
    assert main(["solve", "--graph", str(graph_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["effective_diameter"] == 13
    assert doc["p"]["13"] == 12.0
    assert doc["path_gap"] is None
    assert doc["true_parents"]["13"] == [12]


def test_solve_text_output(tmp_path, capsys):
    graph_file = tmp_path / "net.txt"
    graph_file.write_text("nodes 3\nsources 1\n3 2 1.0\n2 1 1.0\n3 1 3.0\n")
    assert main(["solve", "--graph", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "path gap = 1" in out
    assert "node 1: source" in out


def test_run_verb_full_pipeline(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO)
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "overall=True" in printed
    assert (out_dir / "termination.json").exists()


def test_run_verb_t_end_override(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO)
    out_dir = tmp_path / "out"
    code = main([
        "run", "--scenario", str(scenario), "--out", str(out_dir),
        "--t-end", "0.001",
    ])
    capsys.readouterr()
    assert code == 2  # stopping immediately misidentifies interior nodes


def test_simulate_verb(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO.replace("t_end = auto", "t_end = 0.2Ts"))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "errors.csv").exists()
    assert not (out_dir / "bounds.csv").exists()
    assert not (out_dir / "summary.json").exists()


def test_bounds_verb_grid(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO)
    out_dir = tmp_path / "out"
    code = main([
        "bounds", "--scenario", str(scenario), "--out", str(out_dir),
        "--points", "40",
    ])
    assert code == 0
    lines = (out_dir / "bounds.csv").read_text().splitlines()
    assert lines[0] == "t,node,lower,upper,kind"
    assert len(lines) > 40


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_bounds_verb_needs_two_grid_points(tmp_path, capsys, points):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO)
    out_dir = tmp_path / "out"
    code = main([
        "bounds", "--scenario", str(scenario), "--out", str(out_dir),
        "--points", points,
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: --points must be at least 2, got {points}\n"
    assert not (out_dir / "bounds.csv").exists()


def test_bounds_verb_auto_stop_needs_guaranteed_time(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO.replace("kind = standin13", "kind = grid\nrows = 3\ncols = 4"))
    out_dir = tmp_path / "out"
    code = main(["bounds", "--scenario", str(scenario), "--out", str(out_dir)])
    assert code == 1
    assert "t_end = auto needs a guaranteed stop time" in capsys.readouterr().err
    assert not (out_dir / "bounds.csv").exists()


def test_bounds_verb_refuses_chi0_below_initial_error(tmp_path, capsys):
    text = Path("scenarios/case_study_3pct.ini").read_text()
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text.replace("chi0 = 12", "chi0 = 1"))
    out_dir = tmp_path / "out"
    code = main(["bounds", "--scenario", str(scenario), "--out", str(out_dir)])
    assert code == 1
    assert "chi0" in capsys.readouterr().err
    assert not (out_dir / "bounds.csv").exists()



@pytest.mark.parametrize(
    "states, message",
    [
        ("5" + " 12" * 12, "source node 1 must start at 0, got 5.0"),
        ("0" + " 12" * 11 + " 1", "node 13 underestimates its distance (1.0 < 11.5)"),
    ],
    ids=["source-not-zero", "below-distance"],
)
@pytest.mark.parametrize("verb", ["bounds", "simulate", "run"])
def test_every_verb_enforces_initial_state_preconditions(tmp_path, capsys, verb, states, message):
    text = Path("scenarios/case_study_40pct.ini").read_text()
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text.replace("value = 12", f"states = {states}"))
    out_dir = tmp_path / "out"
    assert main([verb, "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "np.float64" not in err
    assert not any(out_dir.glob("*.csv"))

def test_run_on_a_line_deeper_than_170_hops_exits_zero(tmp_path, capsys):
    """Near the deadline the chain envelope of a 179-hop line overflows in
    direct form; its log-space terms keep every band finite."""
    text = SCENARIO.replace("kind = standin13", "kind = line\nn = 180")
    text = text.replace("t_end = auto", "t_end = 0.9Ts").replace("value = 12", "value = 200")
    text = text.replace("chi0 = 12\n", "").replace("bounds = none", "bounds = chain")
    scenario = tmp_path / "line180.ini"
    scenario.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
    assert "overall=True" in capsys.readouterr().out
    assert (out_dir / "bounds.csv").exists()


def test_error_paths_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert main(["run", "--scenario", str(missing), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[graph]\nkind = line\nn = 5\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("kind = sinusoid", "kind = piecewise\nknot_spacing = nan"),
        ("amplitude = 0.4", "amplitude = 0.4\nuniform_lower = nan"),
        ("amplitude = 0.4", "amplitude = 0.4\nomega = nan"),
        ("amplitude = 0.4", "amplitude = 0.4\nphase = nan"),
        ("kind = sinusoid\namplitude = 0.4", "kind = proportional\nalpha_upper = nan"),
        ("value = 12", "value = nan"),
        ("chi0 = 12", "chi0 = nan"),
    ],
    ids=["knot_spacing", "uniform_lower", "omega", "phase", "alpha_upper", "initial", "chi0"],
)
def test_non_finite_scenario_values_exit_one(tmp_path, capsys, old, new):
    text = Path("scenarios/case_study_40pct.ini").read_text()
    assert old in text
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not any("NaN" in f.read_text() for f in out_dir.glob("*.json"))
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("flag", ["--u-minus", "--u-plus", "--chi0"])
def test_ts_non_finite_input_exits_one(capsys, flag):
    flags = list(TS_FLAGS)
    flags[flags.index(flag) + 1] = "nan"
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "t_s" not in captured.out
