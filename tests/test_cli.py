import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dbmc import dump_graph, load_scenario, parse_scenario
from dbmc.cli import main
from dbmc.dynamics import simulate
from dbmc.generate import EXTRA_EDGE_PROB, GENERATED_KINDS, GRAPH_KINDS, GRAPH_SEED
from dbmc.harness import compute_bound_curves, generate_graph, plan_scenario

from helpers import (
    assert_same_text,
    bands_csv_loop,
    bounds_csv_loop,
    expand_bands,
    errors_csv_loop,
    focus_csv_loop,
    trajectory_csv_loop,
)

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


def test_seed_flag_changes_the_disturbance(tmp_path, capsys):
    for seed in ("1", "2"):
        flags = ["run", "--scenario", "scenarios/case_study_3pct.ini", "--t-end", "0.3Ts",
                 "--seed", seed, "--out", str(tmp_path / seed)]
        assert main(flags) == 0
    capsys.readouterr()
    assert (tmp_path / "1" / "trajectory.csv").read_bytes() != (
        tmp_path / "2" / "trajectory.csv"
    ).read_bytes()


@pytest.mark.parametrize("disturbance", [
    "kind = sinusoid\namplitude = {z}",
    "kind = piecewise\namplitude = {z}",
    "kind = proportional\nalpha_lower = {z}\nalpha_upper = 0.03",
    "kind = proportional\nalpha_lower = 0.01\nalpha_upper = {z}\ncarrier = piecewise",
    "kind = sinusoid\namplitude = {z}\nuniform_lower = {z}\nuniform_upper = {z}",
], ids=["amplitude", "piecewise-amplitude", "alpha-lower", "alpha-upper", "uniform"])
def test_a_negative_zero_fraction_writes_the_bytes_of_zero(tmp_path, capsys, disturbance):
    text = Path("scenarios/case_study_3pct.ini").read_text()
    text = text.replace("kind = sinusoid\namplitude = 0.03", disturbance)
    files = {}
    for z in ("0", "-0"):
        scenario = tmp_path / f"{z}.ini"
        scenario.write_text(text.format(z=z))
        out_dir = tmp_path / f"out{z}"
        assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
        files[z] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    capsys.readouterr()
    assert files["-0"] == files["0"]
    assert b"-0.0" not in files["0"]["summary.json"]


@pytest.mark.parametrize("verb", ["run", "simulate", "bounds"])
def test_override_flags_equal_the_values_written_into_the_file(tmp_path, capsys, verb):
    """--seed, --q and --t-end write the same bytes as a copy of the
    scenario file that holds those three values."""
    text = Path("scenarios/case_study_3pct.ini").read_text()
    for old, new in (("seed = 1", "seed = 4"), ("q = 3", "q = 2.5"),
                     ("t_end = auto", "t_end = 0.3Ts")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text)
    flagged = ["--scenario", "scenarios/case_study_3pct.ini",
               "--seed", "4", "--q", "2.5", "--t-end", "0.3Ts"]
    assert main([verb, *flagged, "--out", str(tmp_path / "flags")]) == 0
    assert main([verb, "--scenario", str(scenario), "--out", str(tmp_path / "file")]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
    assert names
    for name in names:
        got = (tmp_path / "flags" / name).read_bytes()
        assert got == (tmp_path / "file" / name).read_bytes(), name
    if verb == "run":
        summary = json.loads((tmp_path / "flags" / "summary.json").read_text())
        assert (summary["seed"], summary["q"], summary["t_end"]) == (4, 2.5, 1.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "scenarios/case_study_3pct.ini", "--seed", "abc"],
        ["frobnicate"],
        ["ts", "--zeta", "1"],
    ],
    ids=["bad-seed", "unknown-verb", "missing-ts-flags"],
)
def test_a_bad_command_line_exits_one(capsys, argv):
    # 2 is kept for a run whose identification failed
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "usage: dbmc" in captured.err
    assert captured.out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: dbmc" in capsys.readouterr().out


# Each typo names its section and key; every one of them was skipped
# without a message before the reader refused unread keys and sections.
TYPOS = [
    ("amplitude = 0.4", "amplitud = 0.4", "[disturbance] amplitud: unknown key"),
    ("[disturbance]", "[Disturbance]", "[Disturbance]: unknown section"),
    ("[graph]", "[DEFAULT]\nseed = 2\n[graph]", "[DEFAULT]: unknown section"),
    ("kind = standin13", "kind = standin13\nn = 13", "[graph] n: unknown key"),
    ("h = 12", "h = 12\nhh = 12", "[gain] hh: unknown key"),
    ("value = 12", "value = 12\nstate = 12", "[initial] state: unknown key"),
    ("bounds = auto", "bounds = auto\nbound = uniform", "[run] bound: unknown key"),
    ("focus_node = 8", "focus_nod = 3", "[run] focus_nod: unknown key"),
    # keys that the chosen disturbance kind does not read
    ("kind = sinusoid", "kind = proportional", "[disturbance] amplitude: unknown key"),
    ("seed = 1", "seed = 1\nalpha_upper = 0.1", "[disturbance] alpha_upper: unknown key"),
    ("seed = 1", "seed = 1\nknot_spacing = 0.01", "[disturbance] knot_spacing: unknown key"),
    ("kind = sinusoid", "kind = piecewise\nomega = 3", "[disturbance] omega: unknown key"),
    ("kind = sinusoid", "kind = piecewise\nphase = 0", "[disturbance] phase: unknown key"),
]


@pytest.mark.parametrize(
    "old, new, message", TYPOS,
    ids=["amplitud", "Disturbance", "DEFAULT", "n-under-standin13", "hh", "state", "bound",
         "focus_nod", "amplitude-under-proportional", "alpha_upper-under-sinusoid",
         "knot_spacing-under-sinusoid", "omega-under-piecewise", "phase-under-piecewise"],
)
@pytest.mark.parametrize("verb", ["run", "simulate", "bounds"])
def test_unknown_keys_and_sections_exit_one(tmp_path, capsys, verb, old, new, message):
    text = Path("scenarios/case_study_40pct.ini").read_text()
    assert text.count(old) == 1
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text.replace(old, new))
    out_dir = tmp_path / "out"
    assert main([verb, "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_simulate_verb(tmp_path, capsys):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO.replace("t_end = auto", "t_end = 0.2Ts"))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "errors.csv").exists()
    assert not (out_dir / "bounds.csv").exists()
    assert not (out_dir / "summary.json").exists()


@pytest.mark.parametrize("verb", ["simulate", "run"])
def test_an_unwritable_series_file_exits_one(tmp_path, capsys, verb):
    """The writer child's failure reaches the command line as one error line."""
    scenario = tmp_path / "sc.ini"
    scenario.write_text(SCENARIO.replace("t_end = auto", "t_end = 0.2Ts"))
    out_dir = tmp_path / "out"
    (out_dir / "trajectory.csv").mkdir(parents=True)
    assert main([verb, "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: writing trajectory.csv, errors.csv failed: ")
    assert "Is a directory" in captured.err and captured.err.count("\n") == 1
    assert "artifacts in" not in captured.out and "wrote" not in captured.out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(out_dir.glob("*.tmp"))


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
    assert (out_dir / "bands.csv").exists() and (out_dir / "bands.json").exists()


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


@pytest.mark.parametrize("spacing", ["1e-300", "1e-320"])
@pytest.mark.parametrize("verb", ["run", "bounds"])
def test_knot_spacing_too_fine_for_an_array_exits_one(tmp_path, capsys, verb, spacing):
    text = Path("scenarios/case_study_3pct.ini").read_text()
    scenario = tmp_path / "sc.ini"
    scenario.write_text(
        text.replace("kind = sinusoid", f"kind = piecewise\nknot_spacing = {spacing}")
    )
    out_dir = tmp_path / "out"
    assert main([verb, "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: knot_spacing = {float(spacing)!r} needs")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--u-minus", "--u-plus", "--chi0"])
def test_ts_non_finite_input_exits_one(capsys, flag):
    flags = list(TS_FLAGS)
    flags[flags.index(flag) + 1] = "nan"
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "t_s" not in captured.out


@pytest.mark.parametrize("t_end", ["4.9999999999", "5", "6"])
@pytest.mark.parametrize("verb", ["bounds", "simulate", "run"])
def test_every_verb_enforces_the_t_end_range(tmp_path, capsys, verb, t_end):
    # The deadline is 5, so t_end must stay below 5 * (1 - 1e-9).
    scenario = Path("scenarios/case_study_40pct.ini")
    out_dir = tmp_path / "out"
    flags = [verb, "--scenario", str(scenario), "--out", str(out_dir), "--t-end", t_end]
    assert main(flags) == 1
    err = capsys.readouterr().err
    assert err == f"error: t_end must lie in (0, 4.9999999950000005), got {float(t_end)!r}\n"
    assert "array(" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["bounds", "simulate", "run"])
def test_every_verb_names_t_s_when_t_end_auto_reaches_the_limit(tmp_path, capsys, verb):
    # This t_s is feasible but within a relative 1e-9 of the deadline 20.
    scenario = tmp_path / "sc.ini"
    scenario.write_text(
        SCENARIO.replace("amplitude = 0.03", "amplitude = 0.03846").replace("h = 12", "h = 0")
        .replace("deadline = 5", "deadline = 20").replace("q = 3", "q = 1.5")
        .replace("chi0 = 12\n", "")
    )
    out_dir = tmp_path / "out"
    assert main([verb, "--scenario", str(scenario), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "error: t_end = auto needs t_s below 19.999999980000002, the limit of t_end; "
        "got t_s = 19.999999999988134\n"
    )
    assert not out_dir.exists()


# A grid has no competitor edge, so its path gap is infinite and no stop
# time is computed from q.
GRID_HALF_TS = (
    SCENARIO.replace("kind = standin13", "kind = grid\nrows = 3\ncols = 4")
    .replace("t_end = auto", "t_end = 0.5Ts")
    .replace("bounds = none", "bounds = auto")
)


@pytest.mark.parametrize(
    "text, flags, message",
    [
        (SCENARIO.replace("focus_node = 8", "focus_node = 1"), [],
         "focus_node 1 must be a non-source node"),
        (SCENARIO, ["--t-end", "6"], "t_end must lie in"),
        (SCENARIO, ["--seed", "-1"], "disturbance seed must be non-negative, got -1"),
        (SCENARIO.replace("seed = 1", "seed = -1"), [],
         "disturbance seed must be non-negative, got -1"),
        (SCENARIO.replace("kind = standin13", "kind = hop-random\nn = 8\nseed = -1"), [],
         "graph seed must be non-negative, got -1"),
        (GRID_HALF_TS.replace("q = 3", "q = 0.5"), [],
         "q must be finite and exceed 1, got 0.5"),
        (GRID_HALF_TS.replace("q = 3", "q = inf"), [],
         "q must be finite and exceed 1, got inf"),
    ],
    ids=[
        "source-focus-node", "t-end-past-deadline", "negative-seed-flag",
        "negative-disturbance-seed", "negative-graph-seed", "q-below-one", "q-infinite",
    ],
)
def test_failed_run_creates_no_output_directory(tmp_path, capsys, text, flags, message):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text)
    out_dir = tmp_path / "new" / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out_dir.exists()
    assert not out_dir.parent.exists()


@pytest.mark.parametrize("q", ["0.5", "1", "nan", "inf"])
def test_simulate_refuses_q_not_above_one(tmp_path, capsys, q):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(GRID_HALF_TS)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out_dir), "--q", q]) == 1
    assert capsys.readouterr().err == f"error: q must be finite and exceed 1, got {float(q)!r}\n"
    assert not out_dir.exists()


def test_bounds_refuses_an_infinite_q(tmp_path, capsys):
    out_dir = tmp_path / "out"
    flags = ["bounds", "--scenario", "scenarios/case_study_3pct.ini", "--out", str(out_dir),
             "--q", "inf", "--t-end", "0.5Ts"]
    assert main(flags) == 1
    assert capsys.readouterr().err == "error: q must be finite and exceed 1, got inf\n"
    assert not out_dir.exists()


def test_ts_refuses_an_infinite_q(capsys):
    flags = list(TS_FLAGS)
    flags[flags.index("--q") + 1] = "inf"
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: q must be finite and exceed 1, got inf\n"
    assert "t_s" not in captured.out


def test_gen_and_a_scenario_share_the_hop_random_defaults(capsys):
    """Each kind `dbmc gen` offers prints the graph of a scenario with the
    same [graph] keys, and gen offers every kind of the one table but file."""
    cases = {
        "line": (["--n", "7"], "n = 7"),
        "hop-random": (["--n", "9"], "n = 9"),
        "grid": (["--rows", "2", "--cols", "3"], "rows = 2\ncols = 3"),
        "standin13": ([], ""),
    }
    for kind, (flags, keys) in cases.items():
        assert main(["gen", kind, *flags]) == 0
        text = capsys.readouterr().out
        sc = parse_scenario(SCENARIO.replace("kind = standin13", f"kind = {kind}\n{keys}"))
        assert dump_graph(generate_graph(sc.graph_spec)) == text
    assert main(["gen", "--help"]) == 0
    offered = re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1).split(",")
    assert offered == list(GENERATED_KINDS) == [k for k in GRAPH_KINDS if k != "file"]
    assert offered == list(cases)


@pytest.mark.parametrize("flags, message", [
    (["standin13", "--n", "7", "--rows", "9"], "graph kind 'standin13' does not read --n, --rows"),
    (["line", "--n", "4", "--extra-edge-prob", "0.5"],
     "graph kind 'line' does not read --extra-edge-prob"),
    (["line", "--n", "4", "--seed", "3"], "graph kind 'line' does not read --seed"),
    (["grid", "--n", "4"], "graph kind 'grid' does not read --n"),
    (["hop-random", "--rows", "2", "--cols", "3"],
     "graph kind 'hop-random' does not read --rows, --cols"),
    (["standin13", "--seed", "1"], "graph kind 'standin13' does not read --seed"),
])
def test_gen_refuses_a_flag_its_kind_does_not_read(tmp_path, capsys, flags, message):
    graph_file = tmp_path / "g.txt"
    assert main(["gen", *flags, "--out", str(graph_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not graph_file.exists()


def test_gen_defaults_a_flag_not_given(capsys):
    """n, rows and cols default to 13, 3 and 4, and hop-random's other keys
    to the table's defaults, as when every flag carried its default."""
    for short, full in [
        (["line"], ["line", "--n", "13"]),
        (["grid"], ["grid", "--rows", "3", "--cols", "4"]),
        (["grid", "--cols", "2"], ["grid", "--rows", "3", "--cols", "2"]),
        (["hop-random"], ["hop-random", "--n", "13", "--extra-edge-prob",
                          str(EXTRA_EDGE_PROB), "--seed", str(GRAPH_SEED)]),
    ]:
        assert main(["gen", *short]) == 0
        text = capsys.readouterr().out
        assert main(["gen", *full]) == 0
        assert capsys.readouterr().out == text


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    assert main(["gen", "hop-random", "--seed", "-2", "--out", str(graph_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph seed must be non-negative, got -2\n"
    assert captured.out == ""
    assert not graph_file.exists()


@pytest.mark.parametrize("verb", ["simulate", "run"])
def test_empty_out_flag_falls_back_to_the_scenario_directory(tmp_path, monkeypatch, capsys, verb):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "sc.ini"
    text = SCENARIO.replace("t_end = auto", "t_end = 0.2Ts")
    scenario.write_text(text + "out = from_scenario\n")
    assert main([verb, "--scenario", str(scenario), "--out", ""]) in (0, 2)
    capsys.readouterr()
    assert (tmp_path / "from_scenario" / "errors.csv").exists()
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize("verb", ["bounds", "run"])
def test_q_whose_power_law_envelope_overflows_exits_one(tmp_path, capsys, verb):
    out_dir = tmp_path / "new" / "out"
    flags = [verb, "--scenario", "scenarios/case_study_3pct.ini", "--out", str(out_dir),
             "--q", "1e200", "--t-end", "0.5Ts"]
    assert main(flags) == 1
    assert capsys.readouterr().err == (
        "error: the power-law envelope overflows: q = 1e+200 is too large for depth 12\n"
    )
    assert not out_dir.parent.exists()


def test_written_csv_files_equal_the_per_value_loops(tmp_path, capsys):
    """Every CSV that run, simulate and bounds write on disk, through
    write_atomic or the writer child, is the text of the one-%.17g-per-cell loops,
    and so is the bounds.csv that run's bands expand to."""
    path = "scenarios/case_study_40pct.ini"
    for verb in ("run", "simulate", "bounds"):
        assert main([verb, "--scenario", path, "--out", str(tmp_path / verb)]) == 0
    capsys.readouterr()

    sc = load_scenario(path)
    plan = plan_scenario(sc)
    traj = simulate(plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol)

    def curves_at(times, kinds):
        return compute_bound_curves(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, times, kinds,
        )

    curves = curves_at(traj.times, plan.kinds)
    grid = np.linspace(0.0, plan.t_stop, 600)
    series = {"trajectory.csv": trajectory_csv_loop(traj), "errors.csv": errors_csv_loop(traj)}
    expected = {
        "run": {
            **series,
            "bands.csv": bands_csv_loop(plan.g, traj.times, curves),
            "focus.csv": focus_csv_loop(plan.g, traj, curves, sc.focus_node, "proportional"),
        },
        "simulate": series,
        "bounds": {"bounds.csv": bounds_csv_loop(plan.g, grid, curves_at(grid, plan.auto_kinds))},
    }
    for verb, files in expected.items():
        out = tmp_path / verb
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(files), verb
        for name, text in files.items():
            assert_same_text((out / name).read_bytes().decode("utf-8"), text, (verb, name))
        assert not list(out.glob("*.tmp")), verb
    assert_same_text(
        "".join(expand_bands().expand(tmp_path / "run")),
        bounds_csv_loop(plan.g, traj.times, curves),
        ("run", "expanded bounds.csv"),
    )
