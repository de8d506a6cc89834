import functools
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dbmc import (
    DbmcError,
    DisturbanceSpec,
    DomainError,
    WeightedDigraph,
    build_model,
    minus_graph,
    parent_chain,
    PreconditionError,
    SpecError,
    generate_graph,
    grid_graph,
    hop_random_graph,
    line_graph,
    load_scenario,
    parse_scenario,
    run_scenario,
    solve_shortest_paths,
    standin13,
    synthetic_positions,
)
from dbmc import bounds, cli, dynamics, harness, seriesio
from dbmc.bounds import NominalEnvelopes, chain_initial_errors
from dbmc.dynamics import PTGainParams, Trajectory, simulate
from dbmc.harness import (
    BLOCK,
    BOUND_KINDS,
    SeriesWriter,
    band_blocks,
    band_rows,
    bounds_csv,
    check_brackets,
    compute_bound_curves,
    errors_csv,
    focus_csv,
    plan_scenario,
    resolve_chi0,
    series_files,
    trajectory_csv,
)
from dbmc.scenario import parse_t_end_rule
from dbmc.seriesio import series_chunks
from dbmc.termination import DIAG_TIE_TOL, current_parents

from helpers import (
    assert_same_text,
    bands_csv_loop,
    bound_curves_per_node,
    bounds_csv_loop,
    check_brackets_loop,
    constant_initial,
    current_parents_loop,
    errors_csv_loop,
    expand_bands,
    focus_csv_loop,
    hop_random_graph_loop,
    nominal_envelope_exact,
    nominal_envelopes,
    out_edges,
    random_weighted_graph,
    simulate_scatter,
    trajectory_csv_loop,
)

BASE_SCENARIO = """
[graph]
kind = line
n = 5

[disturbance]
kind = sinusoid
amplitude = 0.03
seed = 3

[gain]
gamma = 2
h = 12
deadline = 5

[initial]
value = 12

[run]
t_end = 0.5Ts
q = 3
bounds = auto
"""


class TestGenerators:
    def test_line(self):
        g = line_graph(3)
        assert g.edges == ((2, 1, 1.0), (3, 2, 1.0))
        assert solve_shortest_paths(g).effective_diameter == 3

    def test_line13_diameter(self):
        sol = solve_shortest_paths(line_graph(13))
        assert sol.effective_diameter == 13
        assert math.isinf(sol.path_gap)

    def test_hop_random_is_connected_and_deterministic(self):
        a = hop_random_graph(13, 0.2, 7)
        b = hop_random_graph(13, 0.2, 7)
        assert a == b
        sol = solve_shortest_paths(a)  # raises UnreachableError if a node is stranded
        assert sol.path_gap == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 13, 200])
    def test_hop_random_matches_scalar_draw_loop(self, n, p, seed):
        assert hop_random_graph(n, p, seed) == hop_random_graph_loop(n, p, seed)

    def test_hop_random_refuses_a_negative_seed(self):
        with pytest.raises(SpecError, match="graph seed must be non-negative, got -1"):
            hop_random_graph(5, 0.2, -1)

    def test_hop_random_unit_weights(self):
        g = hop_random_graph(9, 0.3, 1)
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_grid_has_no_competitors(self):
        g = grid_graph(3, 4)
        sol = solve_shortest_paths(g)
        assert math.isinf(sol.path_gap)
        assert sol.p[-1] == 5.0  # opposite corner: (3-1)+(4-1) hops

    def test_standin13_structure(self):
        g = standin13()
        sol = solve_shortest_paths(g)
        assert sol.effective_diameter == 13
        assert sol.path_gap == 1.0
        assert max(w for _, _, w in g.edges) == 1.0
        # one competitor edge per interior node
        for k in range(2, 13):
            competitors = [j for j in out_edges(g)[k] if j not in sol.parents(k)]
            assert len(competitors) == 1

    def test_dispatch_and_spec_errors(self):
        assert generate_graph({"kind": "line", "n": 4}) == line_graph(4)
        with pytest.raises(SpecError):
            generate_graph({"kind": "moebius"})
        with pytest.raises(SpecError):
            generate_graph({"kind": "line"})
        with pytest.raises(SpecError):
            line_graph(1)
        with pytest.raises(SpecError):
            hop_random_graph(5, 1.5, 0)

    def test_positions(self):
        g = standin13()
        pos = synthetic_positions({"kind": "standin13"}, g)
        assert pos[1] == (0.0, 0.0) and pos[13] == (12.0, 0.0)
        assert synthetic_positions({"kind": "file"}, g) is None


class TestScenarioParsing:
    def test_base_scenario_fields(self):
        sc = parse_scenario(BASE_SCENARIO)
        assert sc.graph_spec == {"kind": "line", "n": 5}
        assert sc.disturbance.kind == "sinusoid"
        assert sc.disturbance.amplitude == 0.03
        assert sc.seed == 3
        assert sc.params.gamma == 2.0 and sc.params.deadline == 5.0
        assert sc.initial_value == 12.0
        assert sc.t_end_rule == ("fraction", 0.5)
        assert sc.q == 3.0

    def test_t_end_rules(self):
        assert parse_t_end_rule("auto") == ("auto",)
        assert parse_t_end_rule("3.25") == ("explicit", 3.25)
        assert parse_t_end_rule("0.98Ts") == ("fraction", 0.98)
        with pytest.raises(SpecError):
            parse_t_end_rule("1.5Ts")
        with pytest.raises(SpecError):
            parse_t_end_rule("later")
        for raw in ("nan", "inf", "nanTs"):
            with pytest.raises(SpecError):
                parse_t_end_rule(raw)

    def test_missing_sections_and_keys(self):
        with pytest.raises(SpecError, match=r"\[gain\]"):
            parse_scenario("[graph]\nkind = line\nn = 3\n")
        with pytest.raises(SpecError, match="kind"):
            parse_scenario("[graph]\nn = 3\n[gain]\ngamma = 2\nh = 12\ndeadline = 5\n")

    def test_bad_number_reports_key(self):
        text = BASE_SCENARIO.replace("amplitude = 0.03", "amplitude = lots")
        with pytest.raises(SpecError, match="amplitude"):
            parse_scenario(text)

    def test_initial_requires_exactly_one_rule(self):
        with pytest.raises(SpecError, match="initial"):
            parse_scenario(BASE_SCENARIO.replace("value = 12", ""))
        both = BASE_SCENARIO.replace("value = 12", "value = 12\nstates = 0 1 2 3 4")
        with pytest.raises(SpecError, match="initial"):
            parse_scenario(both)

    def test_explicit_states(self):
        text = BASE_SCENARIO.replace("value = 12", "states = 0 12 12 12 12")
        sc = parse_scenario(text)
        assert sc.initial_states == (0.0, 12.0, 12.0, 12.0, 12.0)

    def test_unknown_bound_kind(self):
        with pytest.raises(SpecError, match="bounds"):
            parse_scenario(BASE_SCENARIO.replace("bounds = auto", "bounds = secret"))

    def test_repeated_bound_kind(self):
        text = BASE_SCENARIO.replace("bounds = auto", "bounds = uniform chain uniform")
        with pytest.raises(SpecError, match="'uniform' is listed twice"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("n = 5", "n = 5\nrows = 3", "[graph] rows: unknown key"),
            ("amplitude = 0.03", "amplitud = 0.03", "[disturbance] amplitud: unknown key"),
            ("deadline = 5", "deadline = 5\ndeadlin = 4", "[gain] deadlin: unknown key"),
            ("value = 12", "value = 12\nvalues = 12", "[initial] values: unknown key"),
            ("q = 3", "q = 3\nt_ends = auto", "[run] t_ends: unknown key"),
            ("[run]", "[Run]", "[Run]: unknown section"),
            ("[run]", "[plot]\ncolor = red\n[run]", "[plot]: unknown section"),
            ("[graph]", "[DEFAULT]\nseed = 3\n[graph]", "[DEFAULT]: unknown section"),
            ("gamma = 2", "gama = 2", "[gain] gamma: required"),
            ("n = 5", "n = 5.5", "[graph] n: expected an integer, got '5.5'"),
            ("q = 3", "q = three", "[run] q: expected a number, got 'three'"),
            # a disturbance key that the chosen kind or carrier does not read
            ("kind = sinusoid", "kind = proportional", "[disturbance] amplitude: unknown key"),
            ("kind = sinusoid", "kind = zero", "[disturbance] amplitude: unknown key"),
            ("seed = 3", "seed = 3\nalpha_upper = 0.1", "[disturbance] alpha_upper: unknown key"),
            ("seed = 3", "seed = 3\nknot_spacing = 0.01",
             "[disturbance] knot_spacing: unknown key"),
            ("kind = sinusoid", "kind = piecewise\nomega = 3", "[disturbance] omega: unknown key"),
            ("kind = sinusoid", "kind = piecewise\nphase = 0", "[disturbance] phase: unknown key"),
            ("kind = sinusoid\namplitude = 0.03",
             "kind = proportional\nalpha_upper = 0.03\ncarrier = piecewise\nomega = 3",
             "[disturbance] omega: unknown key"),
            ("kind = sinusoid", "kind = sinusiod", "[disturbance] kind: unknown kind 'sinusiod'"),
            ("kind = sinusoid\namplitude = 0.03", "kind = proportional\ncarrier = square",
             "[disturbance] carrier: unknown carrier 'square'"),
        ],
        ids=["graph", "disturbance", "gain", "initial", "run", "Run", "plot", "DEFAULT",
             "required", "integer", "number", "amplitude-under-proportional",
             "amplitude-under-zero", "alpha_upper-under-sinusoid", "knot_spacing-under-sinusoid",
             "omega-under-piecewise", "phase-under-piecewise", "omega-under-piecewise-carrier",
             "unknown-disturbance-kind", "unknown-carrier"],
    )
    def test_every_key_and_section_is_read_or_refused(self, old, new, message):
        assert BASE_SCENARIO.count(old) == 1
        with pytest.raises(SpecError) as exc:
            parse_scenario(BASE_SCENARIO.replace(old, new))
        assert str(exc.value) == message

    def test_each_disturbance_kind_reads_its_own_keys_and_the_shared_ones(self):
        old = "kind = sinusoid\namplitude = 0.03"
        extra = "\nuniform_lower = 0.5\nuniform_upper = 0.5"
        for new, expected in [
            ("kind = zero", DisturbanceSpec()),
            ("kind = sinusoid\namplitude = 0.03\nomega = 3\nphase = 0.5",
             DisturbanceSpec("sinusoid", amplitude=0.03, omega=3.0, phase=0.5)),
            ("kind = piecewise\namplitude = 0.03\nknot_spacing = 0.01",
             DisturbanceSpec("piecewise", amplitude=0.03, knot_spacing=0.01)),
            ("kind = proportional\nalpha_upper = 0.2\ncarrier = piecewise\nknot_spacing = 0.01",
             DisturbanceSpec("proportional", alpha_upper=0.2, carrier="piecewise",
                             knot_spacing=0.01)),
            ("kind = proportional\nalpha_lower = 0.1\nomega = 3\nphase = 0.5",
             DisturbanceSpec("proportional", alpha_lower=0.1, omega=3.0, phase=0.5)),
        ]:
            sc = parse_scenario(BASE_SCENARIO.replace(old, new + extra))
            assert sc.disturbance == replace(expected, uniform_lower=0.5, uniform_upper=0.5)
            assert sc.seed == 3

    def test_an_unknown_key_is_refused_before_the_values_are_checked(self):
        text = BASE_SCENARIO.replace("value = 12", "valu = 12")
        with pytest.raises(SpecError, match=r"^\[initial\] valu: unknown key$"):
            parse_scenario(text)

    def test_a_percent_sign_is_an_ordinary_character(self):
        sc = parse_scenario(BASE_SCENARIO + "out = runs/100%\n")
        assert sc.out_dir == "runs/100%"

    def test_key_names_are_case_insensitive(self):
        text = BASE_SCENARIO.replace("amplitude = 0.03", "Amplitude = 0.04")
        assert parse_scenario(text).disturbance.amplitude == 0.04

    def test_every_key_takes_the_default_of_its_field(self):
        sc = parse_scenario(BASE_SCENARIO.replace("amplitude = 0.03", ""))
        assert sc.disturbance == DisturbanceSpec(kind="sinusoid")
        sc = parse_scenario(
            "[graph]\nkind = standin13\n[gain]\ngamma = 2\nh = 12\ndeadline = 5\n"
            "[initial]\nvalue = 12\n"
        )
        assert (sc.disturbance, sc.seed) == (DisturbanceSpec(), 0)
        assert (sc.t_end_rule, sc.q, sc.chi0, sc.bound_kinds, sc.focus_node, sc.out_dir) == (
            ("auto",), 3.0, None, ("auto",), None, None
        )

    def test_readme_example_parses_as_written(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        sc = parse_scenario(blocks[0])
        assert sc.graph_spec == {"kind": "standin13"}
        assert (sc.disturbance.kind, sc.disturbance.amplitude, sc.seed) == ("sinusoid", 0.03, 1)
        assert (sc.q, sc.chi0, sc.focus_node) == (3.0, 12.0, 8)

    def test_file_graph_path_resolves_relative(self, tmp_path):
        graph = tmp_path / "net.txt"
        graph.write_text("nodes 2\nsources 1\n2 1 1.0\n")
        ini = tmp_path / "sc.ini"
        ini.write_text(
            BASE_SCENARIO.replace("kind = line\nn = 5", "kind = file\npath = net.txt")
        )
        sc = load_scenario(str(ini))
        assert sc.graph_spec["path"] == str(graph)


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        sc = parse_scenario(BASE_SCENARIO)
        result = run_scenario(sc, tmp_path)
        assert result.exit_code == 0
        for name in (
            "graph.txt",
            "trajectory.csv",
            "errors.csv",
            "bands.csv",
            "bands.json",
            "focus.csv",
            "termination.json",
            "path.json",
            "summary.json",
        ):
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / "bounds.csv").exists()
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x_1,x_2,x_3,x_4,x_5"
        bands_header = (tmp_path / "bands.csv").read_text().splitlines()[0]
        assert bands_header == "t,env_2,env_3,env_4,env_5,envelope"
        bands = json.loads((tmp_path / "bands.json").read_text())
        assert set(bands) == {"nodes", *BOUND_KINDS}
        assert bands["nodes"] == [2, 3, 4, 5]
        assert bands["chain"]["lower"] is None
        assert bands["envelope"] == {"lower": "-envelope", "upper": "envelope"}
        assert expand_bands().main([str(tmp_path)]) == 0
        bounds_header = (tmp_path / "bounds.csv").read_text().splitlines()[0]
        assert bounds_header == "t,node,lower,upper,kind"
        report = json.loads((tmp_path / "termination.json").read_text())
        assert set(report) == {"t_s", "overall", "nodes"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["path_gap"] is None  # plain line: nothing competes
        assert summary["termination_status"] == "not_applicable"

    def test_the_parent_writes_no_csv(self, tmp_path, monkeypatch):
        written = []
        write = harness.write_atomic

        def recorded(path, data):
            written.append(Path(path).name)
            write(path, data)

        monkeypatch.setattr(harness, "write_atomic", recorded)
        run_scenario(parse_scenario(BASE_SCENARIO), tmp_path)
        assert sorted(written) == ["bands.json", "graph.txt", "path.json", "summary.json",
                                   "termination.json"]
        assert (tmp_path / "focus.csv").exists()

    def test_deterministic_outputs_are_byte_identical(self, tmp_path):
        sc = parse_scenario(BASE_SCENARIO)
        for side in ("a", "b"):
            run_scenario(sc, tmp_path / side)
            assert expand_bands().main([str(tmp_path / side)]) == 0
        for name in (
            "trajectory.csv", "errors.csv", "bands.csv", "bands.json", "bounds.csv",
            "termination.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_writer_seconds_go_to_the_info_log_only(self, tmp_path, caplog):
        sc = parse_scenario(BASE_SCENARIO)
        with caplog.at_level("INFO", logger="dbmc"):
            run_scenario(sc, tmp_path / "a")
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("writers:")]
        assert len(lines) == 1
        assert re.fullmatch(
            r"writers: [\d.]+ s in the parent, then [\d.]+ s waiting, [\d.]+ s of the "
            r"run writing to the pipe; series child [\d.]+ s wall, [\d.]+ s of it "
            r"writing, [\d.]+ s CPU",
            lines[0],
        )
        run_scenario(sc, tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "bounds, kept",
        [
            ("none", []),
            ("chain", ["bands.csv", "bands.json"]),
            ("envelope", ["bands.csv", "bands.json"]),
            ("uniform", ["bands.csv", "bands.json", "focus.csv"]),
        ],
    )
    def test_rerun_removes_band_files_it_does_not_write(self, tmp_path, bounds, kept):
        names = ("bounds.csv", "bands.csv", "bands.json", "focus.csv")
        run_scenario(parse_scenario(BASE_SCENARIO), tmp_path)
        assert expand_bands().main([str(tmp_path)]) == 0  # a stale bounds.csv
        assert all((tmp_path / n).exists() for n in names)
        text = BASE_SCENARIO.replace("bounds = auto", f"bounds = {bounds}")
        result = run_scenario(replace(parse_scenario(text), seed=5), tmp_path)
        assert result.summary["bound_kinds"] == ([] if bounds == "none" else [bounds])
        assert [n for n in names if (tmp_path / n).exists()] == kept
        if kept:
            assert expand_bands().main([str(tmp_path)]) == 0
            rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
            assert {row.rsplit(",", 1)[1] for row in rows} == {bounds}

    def test_assumption_violation_names_node(self, tmp_path):
        sc = parse_scenario(BASE_SCENARIO.replace("value = 12", "value = 2"))
        with pytest.raises(PreconditionError, match="node"):
            run_scenario(sc, tmp_path)

    def test_auto_stop_requires_finite_gap(self, tmp_path):
        sc = parse_scenario(BASE_SCENARIO.replace("t_end = 0.5Ts", "t_end = auto"))
        with pytest.raises(SpecError, match="auto"):
            run_scenario(sc, tmp_path)

    def test_identification_failure_gives_exit_two(self, tmp_path):
        text = BASE_SCENARIO.replace(
            "kind = line\nn = 5", "kind = standin13"
        ).replace("t_end = 0.5Ts", "t_end = 0.001")
        sc = parse_scenario(text)
        result = run_scenario(sc, tmp_path)
        # at t ~ 0 every state still sits at 12, so competitor edges toward
        # the source side win and identification must fail
        assert result.exit_code == 2
        assert not result.report.overall

    @pytest.mark.parametrize("focus", [1, 0, 6])
    @pytest.mark.parametrize("verb", ["run", "simulate", "bounds"])
    def test_bad_focus_node_is_refused_before_simulating(
        self, tmp_path, monkeypatch, capsys, verb, focus
    ):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate ran before focus_node was checked")

        monkeypatch.setattr(harness, "simulate", no_simulate)
        monkeypatch.setattr(cli, "simulate", no_simulate)
        scenario = tmp_path / "sc.ini"
        scenario.write_text(BASE_SCENARIO + f"focus_node = {focus}\n")
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [run] focus_node {focus} must be a non-source node\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds, focus, kind",
        [("proportional", None, "proportional"), ("uniform", 3, "uniform"),
         ("auto", 4, "proportional")],
    )
    def test_focus_csv_follows_the_kind_the_run_picks(self, tmp_path, bounds, focus, kind):
        text = BASE_SCENARIO.replace("bounds = auto", f"bounds = {bounds}")
        if focus is not None:
            text += f"focus_node = {focus}\n"
        sc = parse_scenario(text)
        run_scenario(sc, tmp_path)
        plan = plan_scenario(sc)
        assert plan.focus == (5 if focus is None else focus)  # else the deepest node
        traj = simulate(plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol)
        curves = compute_bound_curves(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, traj.times, plan.kinds,
        )
        assert_same_text(
            (tmp_path / "focus.csv").read_text(),
            focus_csv_loop(plan.g, traj, curves, plan.focus, kind),
        )

    def test_unsupported_bound_kind_is_refused_before_simulating(self, tmp_path, monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate ran before the bound kinds were checked")

        monkeypatch.setattr(harness, "simulate", no_simulate)
        text = BASE_SCENARIO.replace(
            "kind = sinusoid\namplitude = 0.03", "kind = proportional\nalpha_upper = 1.5"
        ).replace("bounds = auto", "bounds = proportional")
        sc = parse_scenario(text)
        with pytest.raises(SpecError) as exc:
            run_scenario(sc, tmp_path)
        assert str(exc.value) == (
            "[run] bounds = proportional needs fractional disturbance bounds "
            "in [0, 1), got (0.0, 1.5)"
        )
        assert not any(tmp_path.iterdir())

    def test_chi0_override_must_cover_actual_errors(self, tmp_path):
        text = BASE_SCENARIO + "chi0 = 1\n"
        sc = parse_scenario(text)
        with pytest.raises(SpecError, match="chi0"):
            run_scenario(sc, tmp_path)

    def test_case_study_three_percent(self, tmp_path):
        sc = load_scenario("scenarios/case_study_3pct.ini")
        result = run_scenario(sc, tmp_path)
        assert result.exit_code == 0
        summary = result.summary
        assert summary["t_s_guaranteed"] == pytest.approx(3.1445, abs=5e-4)
        assert summary["overall"] is True
        assert summary["termination_status"] == "ok"
        report = json.loads((tmp_path / "termination.json").read_text())
        assert report["overall"] is True
        assert report["t_s"] == pytest.approx(3.1445, abs=5e-4)
        overlay = json.loads((tmp_path / "path.json").read_text())
        assert overlay["focus_node"] == 8
        assert overlay["path"] == [8, 7, 6, 5, 4, 3, 2, 1]
        assert overlay["path_edges"][0] == [8, 7]

    def test_case_study_forty_percent(self, tmp_path):
        sc = load_scenario("scenarios/case_study_40pct.ini")
        result = run_scenario(sc, tmp_path)
        # no guaranteed stop exists at 40%, but the run itself must succeed
        assert result.summary["termination_status"] == "infeasible"
        assert result.summary["t_end"] == pytest.approx(4.9)
        assert (tmp_path / "focus.csv").exists()

    def test_emitted_bounds_bracket_emitted_errors(self, tmp_path):
        sc = load_scenario("scenarios/case_study_40pct.ini")
        result = run_scenario(sc, tmp_path)
        assert expand_bands().main([str(tmp_path)]) == 0
        errors = np.loadtxt(tmp_path / "errors.csv", delimiter=",", skiprows=1)
        times = errors[:, 0]
        t, node, lower, upper = np.loadtxt(
            tmp_path / "bounds.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 3),
            unpack=True,
        )
        kind = np.loadtxt(
            tmp_path / "bounds.csv", delimiter=",", skiprows=1, usecols=4, dtype=str
        )
        # every enabled kind has a row for every non-source node at every stored time
        kinds = result.summary["bound_kinds"]
        assert set(kind) == set(kinds)
        for name in kinds:
            assert np.count_nonzero(kind == name) == 12 * len(times), name
        k = np.searchsorted(times, t)
        assert np.array_equal(times[k], t)
        e = errors[k, node.astype(int)]  # column 0 is t, column i is e_i
        assert np.all(lower - 1e-6 <= e)
        assert np.all(e <= upper + 1e-6)


def _zero_disturbance_scenario() -> str:
    text = Path("scenarios/case_study_3pct.ini").read_text()
    # a zero disturbance reads no amplitude, so the line goes with the kind
    text = text.replace("kind = sinusoid\namplitude = 0.03", "kind = zero")
    return text.replace("t_end = auto", "t_end = 0.5Ts")


def _bounds_csv_of(sc) -> str:
    """The bounds.csv that ``bounds_csv`` writes for the run of ``sc``."""
    plan = plan_scenario(sc)
    traj = simulate(plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol)
    curves = compute_bound_curves(
        plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
        sc.params, traj.times, plan.kinds,
    )
    return "".join(bounds_csv(plan.g, traj.times, curves))


class TestBandArtifact:
    """``run`` writes its bands as bands.csv and bands.json, and
    scripts/expand_bands.py rebuilds from them, byte for byte, the
    bounds.csv that ``bounds_csv`` writes for the run's own curves."""

    @pytest.mark.parametrize("scenario", ["case_study_3pct", "case_study_40pct", "zero"])
    def test_expansion_equals_bounds_csv(self, tmp_path, capsys, scenario):
        if scenario == "zero":  # the -0 lower bands of the writer test above
            sc = parse_scenario(_zero_disturbance_scenario())
        else:
            sc = load_scenario(f"scenarios/{scenario}.ini")
        run_scenario(sc, tmp_path)
        assert expand_bands().main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path}/bounds.csv\n"
        text = (tmp_path / "bounds.csv").read_text(encoding="utf-8")
        assert_same_text(text, _bounds_csv_of(sc), scenario)
        if scenario == "zero":
            assert ",-0," in text

    @pytest.mark.parametrize("bounds", ["envelope", "chain", "uniform proportional", "none"])
    def test_each_kind_selection_round_trips(self, tmp_path, capsys, bounds):
        sc = parse_scenario(BASE_SCENARIO.replace("bounds = auto", f"bounds = {bounds}"))
        run_scenario(sc, tmp_path)
        code = expand_bands().main([str(tmp_path)])
        if bounds == "none":
            assert code == 1
            assert not any(tmp_path.glob("b*.*"))
            assert capsys.readouterr().err.startswith("error:")
            return
        assert code == 0
        header = (tmp_path / "bands.csv").read_text().splitlines()[0]
        assert header.endswith(",envelope") == (bounds == "envelope")
        assert header.startswith("t,env_2,") == (bounds != "envelope")
        text = (tmp_path / "bounds.csv").read_text(encoding="utf-8")
        assert_same_text(text, _bounds_csv_of(sc), bounds)
        kinds = {row.rsplit(",", 1)[1] for row in text.splitlines()[1:]}
        assert kinds == set(bounds.split())

    @pytest.mark.parametrize("missing", ["bands.csv", "bands.json"])
    def test_expander_exits_one_without_a_band_file(self, tmp_path, capsys, missing):
        run_scenario(parse_scenario(BASE_SCENARIO), tmp_path)
        (tmp_path / missing).unlink()
        assert expand_bands().main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and missing in captured.err
        assert captured.out == ""
        assert not (tmp_path / "bounds.csv").exists()


def _assert_writers_match_loops(g, traj, curves):
    assert_same_text("".join(trajectory_csv(traj)), trajectory_csv_loop(traj))
    assert_same_text("".join(errors_csv(traj)), errors_csv_loop(traj))
    assert_same_text(
        "".join(bounds_csv(g, traj.times, curves)), bounds_csv_loop(g, traj.times, curves)
    )


def _focus_text(g, traj, curves, focus) -> str:
    """focus.csv as a run builds it: the rows of each ``BLOCK`` of times
    from that block's errors and its one shared reader, with no bands.csv
    entry beside it, formatted with the series template."""
    name, header, width, rows = focus_csv(g, traj.times, curves, focus)
    assert name == "focus.csv"
    n = len(traj.times)
    spans = [slice(a, min(a + BLOCK, n)) for a in range(0, n, BLOCK)]
    table = np.concatenate(
        [rows(s, traj.errors[s], harness._span_reader(s)) for s in spans]
    )
    return "".join(series_chunks(header, width, table.ravel()))


class TestWritersMatchPerValueLoops:
    """The writers format a block of rows with one ``%`` call; their output
    must equal the one-``%.17g``-per-cell loops in ``helpers`` character for
    character."""

    @pytest.mark.parametrize("scenario", ["case_study_3pct", "case_study_40pct", "zero"])
    def test_scenario_artifacts(self, scenario):
        if scenario == "zero":  # emits -0 lower bands
            sc = parse_scenario(_zero_disturbance_scenario())
        else:
            sc = load_scenario(f"scenarios/{scenario}.ini")
        plan = plan_scenario(sc)
        traj = simulate(plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol)
        curves = compute_bound_curves(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, traj.times, plan.kinds,
        )
        assert len(curves) == 4
        _assert_writers_match_loops(plan.g, traj, curves)
        assert_same_text(
            _focus_text(plan.g, traj, curves, plan.focus),
            focus_csv_loop(plan.g, traj, curves, plan.focus, "proportional"),
        )
        if scenario == "zero":
            assert ",-0," in "".join(bounds_csv(plan.g, traj.times, curves))

    def test_crafted_curves(self):
        g = line_graph(4)  # non-sources 2, 3, 4
        rows = 6
        times = np.linspace(0.0, 1.0, rows)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((rows, 3))
        # columns 0 and 1 agree except in the last row
        neighbour = base.copy()
        neighbour[:, 1] = neighbour[:, 0]
        neighbour[-1, 1] += 1.0
        # every column equal row by row, except one cell of the last row
        near_band = np.repeat(base[:, :1], 3, axis=1)
        near_band[-1, 2] = 7.0
        # 0.0 and -0.0 mixed down column 0 and across every row
        zeros = np.zeros((rows, 3))
        zeros[::2, 0] = -0.0
        zeros[:, 1] = -0.0
        # a band whose value is 0.0 in some rows and -0.0 in others
        signs = np.where(np.arange(rows) % 2, -0.0, 0.0)
        signed_band = np.broadcast_to(signs[:, None], (rows, 3))
        # constant columns, and one that is constant except in the last row
        step = np.full(rows, 2.5)
        step[-1] = 3.5
        constants = np.column_stack((np.full(rows, -np.inf), step, np.full(rows, 2.5)))
        band = np.abs(base[:, 0]) + 1.0
        curves = {
            "chain": (np.broadcast_to(-np.inf, (rows, 3)), near_band),
            "proportional": (zeros, neighbour),
            "uniform": (constants, signed_band),
            "envelope": (
                np.broadcast_to(-band[:, None], (rows, 3)),
                np.broadcast_to(band[:, None], (rows, 3)),
            ),
        }
        errors = np.column_stack((np.zeros(rows), zeros[:, 0], neighbour[:, :2]))
        traj = Trajectory(p=np.array([0.0, 1.0, 2.0, 3.0]), times=times, errors=errors)
        _assert_writers_match_loops(g, traj, curves)
        text = "".join(bounds_csv(g, times, curves))
        assert ",-0," in text and ",0," in text and ",-inf," in text


def _writer_inputs(rows: int, seed: int = 0):
    """A line of 4 nodes (non-sources 2, 3, 4) with every bound kind on ``rows`` rows."""
    g = line_graph(4)
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.0, 1e-3, rows))
    env = rng.standard_normal((rows, 3))
    band = np.abs(env[:, 0]) + 1.0
    curves = {
        "chain": (np.broadcast_to(-np.inf, (rows, 3)), env + 1.0),
        "proportional": (np.broadcast_to(np.array([-0.5, -1.0, -1.5]), (rows, 3)), env + 1.0),
        "uniform": (np.broadcast_to(-0.25, (rows, 3)), env + np.array([0.5, 1.0, 2.0])),
        "envelope": (
            np.broadcast_to(-band[:, None], (rows, 3)),
            np.broadcast_to(band[:, None], (rows, 3)),
        ),
    }
    errors = np.column_stack((np.zeros(rows), env))
    traj = Trajectory(p=np.array([0.0, 1.0, 2.0, 3.0]), times=times, errors=errors)
    return g, traj, curves


NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
# bit patterns of float64 cells a formatter could get wrong: nan of either
# sign and with a payload, +-inf, +-0, subnormals and the largest finite
ODD_BITS = st.sampled_from([
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
])
ODD_VALUES = [np.nan, NEG_NAN, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308]


def _odd_trajectory(rows: int) -> Trajectory:
    """A trajectory of 4 nodes whose every column holds the cells a
    formatter could get wrong: nan of either sign, +-inf, -0.0 and
    subnormals, in a different row of each column."""
    rng = np.random.default_rng(rows)
    errors = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    for j in range(4):
        errors[j::5, j] = np.resize(ODD_VALUES[j:] + ODD_VALUES[:j], errors[j::5, j].shape)
    times = np.cumsum(rng.uniform(0.0, 1e-3, rows))
    times[0] = -0.0
    # -0.0 + -0.0 keeps the sign, so states print "-0" where errors do
    return Trajectory(p=np.array([-0.0, 1.0, 5e-324, 2.5]), times=times, errors=errors)


class TestColumnFormatterEdges:
    """The row templates of the series files and of bounds.csv, in this
    process and in the writer child, against the per-value loops, where a
    block boundary, a column shared between kinds or an odd cell could go
    wrong."""

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_row_counts_around_a_block(self, rows):
        g, traj, curves = _writer_inputs(rows)
        _assert_writers_match_loops(g, traj, curves)
        assert len(bounds_csv(g, traj.times, curves)) == 1 + 4 * -(-rows // BLOCK)

    def test_writers_return_built_lists(self):
        g, traj, curves = _writer_inputs(3)
        for chunks in (
            trajectory_csv(traj), errors_csv(traj), bounds_csv(g, traj.times, curves),
        ):
            assert type(chunks) is list and all(type(c) is str for c in chunks)

    @pytest.mark.parametrize("row", [0, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("kind", ["proportional", "uniform"])
    def test_column_differing_from_another_kinds_in_one_cell(self, row, kind):
        g, traj, curves = _writer_inputs(BLOCK + 2)
        near = curves["chain"][1].copy()
        near[row, 1] = np.nextafter(near[row, 1], np.inf)
        curves[kind] = (curves[kind][0], near)
        assert np.count_nonzero(near != curves["chain"][1]) == 1
        _assert_writers_match_loops(g, traj, curves)

    def test_non_finite_and_signed_zero_cells(self):
        rows = BLOCK + 3
        g, traj, curves = _writer_inputs(rows, seed=1)
        neg_nan = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
        odd_values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, neg_nan, 5e-324, -1e308])
        mixed = curves["chain"][1].copy()
        mixed[::7, 0] = np.resize(odd_values, mixed[::7, 0].shape)
        mixed[BLOCK - 2 : BLOCK + 2, 2] = [np.inf, -np.inf, np.nan, -0.0]
        zeros = np.zeros((rows, 3))
        zeros[:, 1] = -0.0  # equal to column 0 as floats, printed "-0"
        zeros[1::2, 2] = -0.0
        curves["chain"] = (np.full((rows, 3), np.nan), mixed)
        curves["proportional"] = (zeros, np.full((rows, 3), np.inf))
        curves["uniform"] = (-zeros, np.where(zeros == 0.0, -np.inf, 0.0))
        errors = np.column_stack((np.full(rows, -0.0), mixed))
        traj = Trajectory(p=np.zeros(4), times=traj.times, errors=errors)
        _assert_writers_match_loops(g, traj, curves)
        text = "".join(bounds_csv(g, traj.times, curves))
        for cell in (",nan,", ",inf,", ",-inf,", ",-0,", ",0,", ",4.9406564584124654e-324,"):
            assert cell in text, cell

    def test_broadcast_and_strided_views(self):
        rows = 2 * BLOCK + 5
        g, traj, curves = _writer_inputs(rows, seed=2)
        row = np.array([1.5, -2.5, 3.5])
        fortran = np.asfortranarray(curves["chain"][1])
        curves["proportional"] = (np.broadcast_to(row, (rows, 3)), fortran)
        curves["uniform"] = (curves["uniform"][0], curves["uniform"][1][:, ::-1])
        _assert_writers_match_loops(g, traj, curves)

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_series_in_process_and_in_the_child(self, tmp_path, rows):
        traj = _odd_trajectory(rows)
        want = {"trajectory.csv": trajectory_csv_loop(traj), "errors.csv": errors_csv_loop(traj)}
        assert_same_text("".join(trajectory_csv(traj)), want["trajectory.csv"])
        assert_same_text("".join(errors_csv(traj)), want["errors.csv"])
        _write_series(tmp_path, traj, range(BLOCK, rows, BLOCK))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
        for name, text in want.items():
            assert_same_text((tmp_path / name).read_bytes().decode("utf-8"), text, name)
        if rows > 1:  # one row holds only four of the odd cells
            text = want["errors.csv"]
            for cell in (",nan", ",inf", ",-inf", ",-0,", ",4.9406564584124654e-324", ",-2.2250738585072009e-308"):
                assert cell in text, cell

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("messages", ["one", "two", "one-per-row"])
    def test_rows_split_over_messages(self, tmp_path, rows, messages):
        """A file's rows may come in any number of messages, an empty one
        included, and the child's text is the per-value loops' all the same."""
        traj = _odd_trajectory(rows)
        cuts = {"one": [], "two": [rows // 2], "one-per-row": range(1, rows)}[messages]
        _write_series(tmp_path, traj, cuts)
        assert_same_text((tmp_path / "trajectory.csv").read_text(), trajectory_csv_loop(traj))
        assert_same_text((tmp_path / "errors.csv").read_text(), errors_csv_loop(traj))

    @pytest.mark.parametrize("kinds", [BOUND_KINDS, ("envelope",), ("uniform",)])
    def test_band_rows_in_the_child_across_band_blocks(self, tmp_path, kinds):
        """bands.csv evaluated and streamed to the child 47 rows per
        message, so messages end inside a BLOCK of text, is the per-value
        loop's text, and so is the focus.csv read through the same blocks."""
        sc = load_scenario(Path("scenarios") / "case_study_3pct.ini")
        plan = plan_scenario(replace(sc, t_end_rule=parse_t_end_rule("0.1Ts")))
        times = np.array(dynamics.step_grid(sc.params, plan.t_stop)[0])
        curves = compute_bound_curves(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, times, kinds,
        )
        errors = np.random.default_rng(3).standard_normal((len(times), plan.g.node_count))
        traj = Trajectory(np.array(plan.sol.p), times, errors)
        focus = focus_csv(plan.g, times, curves, plan.focus)
        assert (focus is None) == (kinds == ("envelope",))
        assert len(times) > 2 * 47 and len(times) % 47
        files = [band_rows(plan.g, times, curves)] + ([focus] if focus else [])
        with SeriesWriter() as series:
            on_block = harness.feed_blocks(series.stream(files + series_files(times, plan.sol.p)))
            for a in range(0, len(times), 47):
                on_block(slice(a, a + 47), errors[a : a + 47])
            series.commit(tmp_path)
            series.wait()
        text = (tmp_path / "bands.csv").read_text()
        assert_same_text(text, bands_csv_loop(plan.g, times, curves))
        if focus is not None:
            kind = "proportional" if "proportional" in kinds else "uniform"
            assert_same_text(
                (tmp_path / "focus.csv").read_text(),
                focus_csv_loop(plan.g, traj, curves, plan.focus, kind),
            )

    def test_series_template_formats_whole_blocks(self):
        values = np.arange(3 * (BLOCK + 1), dtype=float).tolist()
        chunks = list(seriesio.series_chunks("a,b,c\n", 3, np.array(values)))
        assert chunks[0] == "a,b,c\n"
        assert [c.count("\n") for c in chunks[1:]] == [BLOCK, 1]
        assert "".join(chunks[1:]) == "".join(
            ",".join(f"{v:.17g}" for v in values[k : k + 3]) + "\n"
            for k in range(0, len(values), 3)
        )
        assert list(seriesio.series_chunks("h\n", 2, np.empty(0))) == ["h\n"]

    # no shrinking: a failing draw of a few hundred rows takes minutes to
    # shrink, and assert_same_text already names the first wrong line
    @settings(max_examples=300, deadline=None, phases=(Phase.reuse, Phase.generate))
    @given(
        st.integers(1, BLOCK + 2).flatmap(
            lambda rows: st.binary(min_size=56 * rows, max_size=56 * rows)
        ),
        st.lists(st.tuples(st.integers(0, 7 * (BLOCK + 2) - 1), ODD_BITS), max_size=20),
    )
    def test_random_bit_patterns(self, raw, odd):
        """Any float64, drawn as a uint64 bit pattern (nan of either sign
        and any payload, subnormals, +-0, +-inf), prints in bounds.csv and
        through the series template as ``f"{v:.17g}"`` does on its own."""
        bits = np.frombuffer(raw, dtype=np.uint64).copy()
        for at, pattern in odd:  # the odd cells, far likelier than at random
            bits[at % len(bits)] = pattern
        cells = bits.view(np.float64).reshape(-1, 7)
        rows = len(cells)
        g = line_graph(4)  # non-sources 2, 3, 4
        curves = {
            "chain": (cells[:, 1:4], cells[:, 4:7]),
            "uniform": (np.broadcast_to(cells[:, 4:5], (rows, 3)), cells[:, 1:4]),
        }
        assert_same_text(
            "".join(bounds_csv(g, cells[:, 0], curves)), bounds_csv_loop(g, cells[:, 0], curves)
        )
        values = cells.ravel().tolist()
        assert "".join(series_chunks("h\n", 7, cells.ravel())) == "h\n" + "".join(
            ",".join(f"{v:.17g}" for v in values[k : k + 7]) + "\n"
            for k in range(0, len(values), 7)
        )


def _write_series(out: Path, traj: Trajectory, cuts) -> None:
    """Have a writer child write ``traj``'s trajectory.csv and errors.csv
    into ``out``, streaming the rows in messages that end at ``cuts``."""
    edges = [0, *cuts, len(traj.times)]
    with SeriesWriter() as series:
        on_block = harness.feed_blocks(series.stream(series_files(traj.times, traj.p)))
        for a, b in zip(edges, edges[1:]):
            on_block(slice(a, b), traj.errors[a:b])
        series.commit(out)
        series.wait()


# 120 nodes: each 128-row trajectory.csv message (121 float64 per row) is
# 123 904 bytes, larger than a 64 KiB default pipe
WIDE_SCENARIO = """
[graph]
kind = hop-random
n = 120

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
t_end = 0.2Ts
q = 3
bounds = auto
"""


def _assert_no_child_process() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSeriesWriterFailures:
    """Whatever way a run ends, no writer child and no ``*.tmp`` outlive it."""

    def test_success(self, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(parse_scenario(BASE_SCENARIO), out).exit_code == 0
        _assert_no_child_process()
        assert not list(out.glob("*.tmp"))
        assert (out / "trajectory.csv").read_text().startswith("t,x_1,")

    def test_bracket_failure(self, tmp_path, monkeypatch):
        """The check fails after every rows message was sent."""
        sent = _count_rows(monkeypatch)
        monkeypatch.setattr(harness, "BRACKET_TOL", -1e9)
        with pytest.raises(DbmcError, match="fails to bracket"):
            run_scenario(parse_scenario(BASE_SCENARIO), tmp_path / "out")
        assert {"bands.csv", "trajectory.csv", "errors.csv"} <= set(sent)
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    def test_bad_focus_node(self, tmp_path):
        sc = parse_scenario(BASE_SCENARIO + "focus_node = 1\n")
        with pytest.raises(SpecError, match="focus_node 1 must be a non-source"):
            run_scenario(sc, tmp_path / "out")
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    def test_unwritable_target(self, tmp_path):
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        with pytest.raises(OSError, match=r"trajectory\.csv.*Is a directory"):
            run_scenario(parse_scenario(BASE_SCENARIO), out)
        _assert_no_child_process()
        assert not list(out.glob("*.tmp"))
        assert (out / "trajectory.csv").is_dir() and not (out / "errors.csv").exists()

    def test_a_child_killed_mid_stream_is_reported(self, tmp_path, monkeypatch):
        sent = _count_rows(monkeypatch, kill_at=("errors.csv", 2))
        with pytest.raises(OSError, match="errors.csv failed: the writer exited with status -9"):
            run_scenario(parse_scenario(BASE_SCENARIO), tmp_path / "out")
        assert sent.count("errors.csv") == 2
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    def test_a_parent_failure_before_the_commit_writes_nothing(self, tmp_path, monkeypatch):
        def broken(*args):
            raise DbmcError("the report failed")

        sent = _count_rows(monkeypatch)
        monkeypatch.setattr(harness, "build_report", broken)
        with pytest.raises(DbmcError, match="the report failed"):
            run_scenario(parse_scenario(BASE_SCENARIO), tmp_path / "out")
        assert {"bands.csv", "trajectory.csv", "errors.csv"} <= set(sent)
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    def test_a_parent_failure_after_the_request_kills_the_child(self, tmp_path, monkeypatch):
        def broken(*args):
            raise DbmcError("bands.json failed")

        monkeypatch.setattr(harness, "bands_json", broken)
        out = tmp_path / "out"
        with pytest.raises(DbmcError, match="bands.json failed"):
            run_scenario(parse_scenario(BASE_SCENARIO), out)
        assert (out / "graph.txt").exists()  # it failed after the commit
        _assert_no_child_process()
        assert not list(out.glob("*.tmp"))

    def test_a_child_gone_before_the_request_is_reported(self, tmp_path):
        with pytest.raises(OSError, match="the writer exited with status -9"):
            with SeriesWriter() as series:
                series.proc.kill()
                series.proc.wait()
                series.stream(series_files(np.zeros(1), np.zeros(2)))
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("cut", [0, 1, 40, -1])
    def test_a_request_that_ends_early_writes_nothing(self, tmp_path, cut):
        """Cut before the commit's end, anywhere, the child writes no file."""
        request, _ = _request(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-I", "-S", seriesio.__file__],
            input=request[:cut], capture_output=True, timeout=60,
        )
        assert proc.returncode == 1
        assert b"ended early" in proc.stderr
        assert not any(tmp_path.iterdir())
        whole = subprocess.run(
            [sys.executable, "-I", "-S", seriesio.__file__],
            input=request, capture_output=True, timeout=60,
        )
        assert whole.returncode == 0, whole.stderr
        assert (tmp_path / "s.csv").read_text() == "t,v\n0,1\n2,3\n4,5\n"
        assert (tmp_path / "u.csv").read_text() == "u\n-0\n"

    def test_a_request_cut_at_any_byte_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """Every proper prefix of a request, cut between messages, inside a
        message line or inside rows, makes the child exit 1 and write no file."""
        request, ends = _request(tmp_path)
        assert ends[-1] == len(request) and len(ends) == 6
        for cut in range(len(request)):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(request[:cut])))
            assert seriesio.main() == 1, cut
            assert "ended early" in capsys.readouterr().err, cut
            assert not any(tmp_path.iterdir()), cut

    @pytest.mark.parametrize(
        "message, why",
        [
            ({"file": "v.csv", "rows": 1}, "rows of v.csv, which was not declared"),
            ({"file": "s.csv", "header": "again\n", "width": 1}, "s.csv is declared twice"),
            ({"rows": 1}, "malformed message"),
            ({"file": "s.csv", "text": 4}, "malformed message"),
        ],
    )
    def test_a_malformed_request_writes_nothing(self, tmp_path, message, why):
        request, ends = _request(tmp_path)
        bad = request[: ends[1]] + json.dumps(message).encode() + b"\n" + request[ends[1]:]
        proc = subprocess.run(
            [sys.executable, "-I", "-S", seriesio.__file__],
            input=bad, capture_output=True, timeout=60,
        )
        assert proc.returncode == 1
        assert why in proc.stderr.decode()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "scenario, refusal",
        [("case_study_40pct", "refused"), ("case_study_40pct", "absent"), ("wide", "refused")],
    )
    def test_a_pipe_that_cannot_grow_gives_the_same_files(
        self, tmp_path, monkeypatch, scenario, refusal
    ):
        """Without the larger pipe the parent waits for the child more often,
        and every file keeps its bytes.  On the 120-node graph every 128-row
        message of trajectory.csv is larger than a 64 KiB pipe, and its
        series files are the per-value loops' text."""
        import fcntl

        if scenario == "wide":
            sc = parse_scenario(WIDE_SCENARIO)
        else:
            sc = load_scenario(f"scenarios/{scenario}.ini")
        assert run_scenario(sc, tmp_path / "grown").exit_code == 0
        sizes = []
        if refusal == "refused":
            def refuse(fd, cmd, arg=0):
                sizes.append(arg)
                raise PermissionError(1, "Operation not permitted")

            monkeypatch.setattr(fcntl, "fcntl", refuse)
        else:
            monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
        run_scenario(sc, tmp_path / "default")
        assert sizes == ([harness.PIPE_BYTES] if refusal == "refused" else [])
        names = sorted(p.name for p in (tmp_path / "grown").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "default").iterdir())
        assert "bands.csv" in names
        for name in names:
            assert (tmp_path / "grown" / name).read_bytes() == (
                tmp_path / "default" / name
            ).read_bytes(), name
        _assert_no_child_process()
        if scenario == "wide":
            plan = plan_scenario(sc)
            assert BLOCK * (plan.g.node_count + 1) * 8 == 123_904 > 1 << 16
            traj = simulate(plan.g, plan.model, sc.params, plan.x0, plan.t_stop, sol=plan.sol)
            assert len(traj.times) > 2 * BLOCK
            curves = compute_bound_curves(
                plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
                sc.params, traj.times, plan.kinds,
            )
            want = {
                "trajectory.csv": trajectory_csv_loop(traj),
                "errors.csv": errors_csv_loop(traj),
                "bands.csv": bands_csv_loop(plan.g, traj.times, curves),
                "focus.csv": focus_csv_loop(plan.g, traj, curves, plan.focus, "proportional"),
            }
            for name, text in want.items():
                assert_same_text((tmp_path / "default" / name).read_text(), text, name)

    def test_the_pipe_grows_where_the_os_allows(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("no F_GETPIPE_SZ")
        r, w = os.pipe()
        try:
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, harness.PIPE_BYTES)
        except OSError:
            pytest.skip("this OS refuses a pipe of PIPE_BYTES")
        finally:
            os.close(r)
            os.close(w)
        with SeriesWriter() as series:
            size = fcntl.fcntl(series.proc.stdin.fileno(), fcntl.F_GETPIPE_SZ)
        assert size == harness.PIPE_BYTES
        _assert_no_child_process()


def _count_rows(monkeypatch, kill_at=None) -> list[str]:
    """Record the file of each ``SeriesWriter.rows`` call; with ``kill_at =
    (name, k)``, kill the child just before the k-th rows of ``name``."""
    sent: list[str] = []
    rows = SeriesWriter.rows

    def counted(self, name, table):
        sent.append(name)
        if kill_at is not None and (name, sent.count(name)) == kill_at:
            self.proc.kill()
            self.proc.wait()
        rows(self, name, table)

    monkeypatch.setattr(SeriesWriter, "rows", counted)
    return sent


def _request(out: Path) -> tuple[bytes, list[int]]:
    """A whole request that writes ``out/s.csv`` (two rows messages) and
    ``out/u.csv``, and the offset at which each of its messages ends."""
    parts = [
        json.dumps({"file": "s.csv", "header": "t,v\n", "width": 2}).encode() + b"\n",
        json.dumps({"file": "s.csv", "rows": 2}).encode() + b"\n" + np.arange(4.0).tobytes(),
        json.dumps({"file": "u.csv", "header": "u\n", "width": 1}).encode() + b"\n",
        json.dumps({"file": "u.csv", "rows": 1}).encode() + b"\n" + np.array([-0.0]).tobytes(),
        json.dumps({"file": "s.csv", "rows": 1}).encode() + b"\n" + np.array([4.0, 5.0]).tobytes(),
        json.dumps({"out": os.fspath(out)}).encode() + b"\n",
    ]
    ends = np.cumsum([len(part) for part in parts]).tolist()
    return b"".join(parts), ends


class TestWriteAtomic:
    @pytest.mark.parametrize("before", [None, "old,file\n"])
    def test_failed_write_leaves_no_temporary_and_the_old_file(self, tmp_path, before):
        path = tmp_path / "bounds.csv"
        if before is not None:
            harness.write_atomic(path, [before])
        chunks = ["t,node\n", "x" * (1 << 16), None, "never written\n"]  # fails on None
        with pytest.raises(TypeError):
            harness.write_atomic(path, chunks)
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["bounds.csv"])
        if before is not None:
            assert path.read_text(encoding="utf-8") == before

    def test_string_and_chunks_write_the_same_bytes(self, tmp_path):
        harness.write_atomic(tmp_path / "a", "t,x\n0,1\n")
        harness.write_atomic(tmp_path / "b", ["t,x\n", "0,", "1\n"])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes() == b"t,x\n0,1\n"


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "node, initial, chi0, match",
        [
            (5, 12.0, math.nan, "chi0"),
            (5, 12.0, math.inf, "chi0"),
            (5, math.nan, None, "initial"),
            (5, math.nan, 12.0, "initial"),
            (5, math.inf, None, "initial"),
            (1, math.nan, 12.0, "initial"),  # the source
        ],
    )
    def test_resolve_chi0_rejects_non_finite(self, node, initial, chi0, match):
        g = standin13()
        x0 = constant_initial(g, 12.0)
        x0[node - 1] = initial
        with pytest.raises(SpecError, match=match):
            resolve_chi0(g, solve_shortest_paths(g), x0, chi0)

    @staticmethod
    def _three_node_run(error: float):
        g = line_graph(3)  # non-sources 2, 3
        times = np.linspace(0.0, 1.0, 4)
        errors = np.zeros((4, 3))
        errors[2, 2] = error
        traj = Trajectory(p=np.array([0.0, 1.0, 2.0]), times=times, errors=errors)
        return g, traj

    @pytest.mark.parametrize("kind", ["chain", "uniform"])
    def test_check_brackets_fails_on_nan_errors(self, kind):
        lower = np.broadcast_to(-np.inf if kind == "chain" else -1.0, (4, 2))
        curves = {kind: (lower, np.ones((4, 2)))}
        g, traj = self._three_node_run(0.5)
        check_brackets(g, traj, curves)
        g, traj = self._three_node_run(math.nan)
        with pytest.raises(DbmcError, match=kind):
            check_brackets(g, traj, curves)

    @pytest.mark.parametrize("block", [1, 4, 6, 1 << 18])  # rows per block: 1, 2, 3, all
    def test_check_brackets_checks_every_block(self, monkeypatch, block):
        monkeypatch.setattr("dbmc.harness.CHECK_BLOCK", block)
        curves = {"uniform": (np.broadcast_to(-1.0, (4, 2)), np.ones((4, 2)))}
        g, traj = self._three_node_run(0.5)
        check_brackets(g, traj, curves)
        for error in (1.5, -1.5, math.nan):  # in row 2 of 4
            g, traj = self._three_node_run(error)
            with pytest.raises(DbmcError, match="uniform"):
                check_brackets(g, traj, curves)

    @pytest.mark.parametrize("block", [2, 4, 8, 1 << 18])  # rows per block: 1, 2, 4, all
    @pytest.mark.parametrize("first", ["chain", "uniform"])
    def test_check_brackets_names_the_first_failing_kind(self, monkeypatch, block, first):
        # uniform fails only in row 0 and chain only in row 3, so with small
        # blocks they fail in different blocks; the error names the first
        # failing kind in curves order, with its slacks over the whole run.
        monkeypatch.setattr("dbmc.harness.CHECK_BLOCK", block)
        g, traj = self._three_node_run(0.0)
        traj.errors[0, 1] = -2.0
        chain_upper = np.ones((4, 2))
        chain_upper[3, 0] = -0.5
        both = {
            "chain": (np.broadcast_to(-np.inf, (4, 2)), chain_upper),
            "uniform": (np.broadcast_to(-1.0, (4, 2)), np.ones((4, 2))),
        }
        slacks = {
            "chain": "inf, upper slack -5.000e-01",
            "uniform": "-1.000e+00, upper slack 1.000e+00",
        }
        curves = {first: both[first]} | both
        want = (
            f"bound curve {first!r} fails to bracket the trajectory "
            f"(worst lower slack {slacks[first]})"
        )
        with pytest.raises(DbmcError) as info:
            check_brackets(g, traj, curves)
        assert str(info.value) == want

    def test_check_brackets_fails_on_nan_curve(self):
        g, traj = self._three_node_run(0.5)
        upper = np.ones((4, 2))
        upper[1, 0] = math.nan
        with pytest.raises(DbmcError, match="envelope"):
            check_brackets(g, traj, {"envelope": (-np.ones((4, 2)), upper)})


ORACLE_PARAMS = PTGainParams(gamma=2.0, h=12.0, deadline=5.0)


def _sources_with_out_edges() -> WeightedDigraph:
    g = random_weighted_graph(3)
    return WeightedDigraph(g.node_count, frozenset({1, 2}), g.edges + ((1, 3, 0.5),))


def _relabelled_sources() -> WeightedDigraph:
    """Two sources, neither of them node 1, one with out-edges."""
    g = random_weighted_graph(5, max_nodes=12)
    perm = np.random.default_rng(5).permutation(g.node_count) + 1  # old id -> new id
    edges = tuple((int(perm[i - 1]), int(perm[j - 1]), w) for i, j, w in g.edges)
    sources = frozenset({int(perm[0]), int(perm[2])})
    assert 1 not in sources
    return WeightedDigraph(g.node_count, sources, edges)


SINUSOID = DisturbanceSpec(kind="sinusoid", amplitude=0.3)
ORACLE_CASES = {
    "hop-random-2": (lambda: hop_random_graph(2, 0.25, 1), SINUSOID, 0.98),
    "hop-random-13": (lambda: hop_random_graph(13, 0.25, 2), SINUSOID, 0.98),
    "hop-random-200": (lambda: hop_random_graph(200, 0.05, 3), SINUSOID, 0.6),
    "grid": (lambda: grid_graph(4, 5), SINUSOID, 0.98),
    "sources-with-out-edges": (_sources_with_out_edges, SINUSOID, 0.98),
    "sources-not-node-1": (_relabelled_sources, SINUSOID, 0.98),
    # node 3 has the co-parents 1 and 2, whose edge caps 0.6 and 0.3 differ;
    # the chain band takes the cap toward the smaller id
    "co-parents": (
        lambda: WeightedDigraph(3, frozenset({1}), ((3, 2, 1.0), (2, 1, 1.0), (3, 1, 2.0))),
        SINUSOID, 0.98,
    ),
    # depth 179: the running factorial overflows past m = 170 and L**m
    # overflows near the deadline, so the float loop leaves some envelope
    # cells nan; those are checked against mpmath
    "line-180": (lambda: line_graph(180), SINUSOID, 0.9),
    "zero": (lambda: hop_random_graph(13, 0.25, 4), DisturbanceSpec(kind="zero"), 0.98),
    "piecewise": (
        lambda: hop_random_graph(13, 0.25, 5),
        DisturbanceSpec(kind="piecewise", amplitude=0.2), 0.98,
    ),
    "proportional-sinusoid": (
        lambda: hop_random_graph(13, 0.25, 6),
        DisturbanceSpec(kind="proportional", alpha_lower=0.1, alpha_upper=0.3), 0.98,
    ),
    "proportional-piecewise": (
        lambda: hop_random_graph(13, 0.25, 7),
        DisturbanceSpec(kind="proportional", alpha_lower=0.0, alpha_upper=0.4,
                        carrier="piecewise"), 0.98,
    ),
    "proportional-above-one": (
        lambda: hop_random_graph(13, 0.25, 8),
        DisturbanceSpec(kind="proportional", alpha_lower=0.2, alpha_upper=1.5), 0.98,
    ),
}


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes and bit patterns: nan and -0.0 count too."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_matches_oracles(g, sol, sol_minus, model, x0, q, chi0, params, t_end, kinds):
    """Assert equal bits against the oracles; returns the number of band
    cells where the float envelope loop overflows to nan.

    There the bands must instead agree with the mpmath envelope to a
    relative 1e-14.
    """
    traj = simulate(g, model, params, x0, t_end, sol=sol)
    times, errors = simulate_scatter(g, model, params, x0, t_end, sol)
    _assert_same_bits(traj.times, times)
    _assert_same_bits(traj.errors, errors)
    args = (g, sol, sol_minus, model, x0, q, chi0, params, times, kinds)
    curves = compute_bound_curves(*args)
    with np.errstate(over="ignore", invalid="ignore"):  # line-180's nan cells
        want = bound_curves_per_node(*args)
    assert list(curves) == list(want) == list(kinds)
    overflowed = 0
    for kind in kinds:
        for got_band, want_band in zip(curves[kind], want[kind]):
            got_band = np.asarray(got_band)
            assert got_band.shape == want_band.shape
            nan = np.isnan(want_band)
            _assert_same_bits(got_band[~nan], want_band[~nan])
            overflowed += int(nan.sum())
    if overflowed:
        envelope = functools.partial(nominal_envelope_exact, weights={})
        exact = bound_curves_per_node(*args, envelope=envelope)
        for kind in kinds:
            for got_band, want_band, exact_band in zip(curves[kind], want[kind], exact[kind]):
                nan = np.isnan(want_band)
                np.testing.assert_allclose(
                    np.asarray(got_band)[nan], exact_band[nan], rtol=1e-14, atol=0.0
                )

    for k in (0, len(times) // 2, len(times) - 1):
        x, t = traj.errors[k] + traj.p, float(times[k])
        for tie_tol in (0.0, DIAG_TIE_TOL):
            got = current_parents(g, model, x, t, tie_tol)
            oracle = current_parents_loop(g, model, x, t, tie_tol)
            assert list(got.items()) == list(oracle.items())
    return overflowed


class TestFastPathsMatchOracles:
    """Compact non-source RK4, shared envelopes and the tail-grouped parent
    sets against the scatter-min RK4 loop, the per-node bound evaluation and
    the per-node parent loop, bit for bit."""

    @pytest.mark.parametrize("scenario", ["case_study_3pct", "case_study_40pct"])
    def test_case_studies(self, scenario):
        sc = load_scenario(Path("scenarios") / f"{scenario}.ini")
        plan = plan_scenario(sc)
        _assert_matches_oracles(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, plan.t_stop, plan.auto_kinds,
        )

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_generated(self, case):
        make_graph, spec, t_frac = ORACLE_CASES[case]
        g = make_graph()
        params = ORACLE_PARAMS
        sol = solve_shortest_paths(g)
        model = build_model(spec, g, 11, horizon=params.deadline)
        sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
        x0 = np.array(sol.p) + np.random.default_rng(0).uniform(0.0, 3.0, g.node_count)
        x0[[s - 1 for s in g.sources]] = 0.0
        chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
        kinds = BOUND_KINDS
        if not all(f < 1.0 for f in model.proportional_fractions):
            kinds = ("chain", "uniform", "envelope")
        overflowed = _assert_matches_oracles(
            g, sol, sol_minus, model, x0, 3.0, chi0, params, t_frac * params.deadline, kinds
        )
        assert (overflowed > 0) == (case == "line-180")

    def test_negative_zero_source_start(self):
        """A source may start at -0.0: row 0 keeps x0 - p, later rows hold +0.0."""
        g = _relabelled_sources()
        sol = solve_shortest_paths(g)
        model = build_model(SINUSOID, g, 11, horizon=ORACLE_PARAMS.deadline)
        x0 = np.array(sol.p) + 2.0
        src = [s - 1 for s in sorted(g.sources)]
        x0[src] = [-0.0, 0.0]
        traj = simulate(g, model, ORACLE_PARAMS, x0, 1.0, sol=sol)
        times, errors = simulate_scatter(g, model, ORACLE_PARAMS, x0, 1.0, sol)
        _assert_same_bits(traj.errors, errors)
        _assert_same_bits(traj.errors[0], x0 - np.array(sol.p))
        assert np.signbit(traj.errors[0, src]).tolist() == [True, False]
        assert not np.signbit(traj.errors[1:, src]).any()

    def test_deep_chain_brackets_without_nan(self, tmp_path, monkeypatch):
        """line_graph(500) to 0.9 deadline: every envelope cell is finite and
        brackets the run.  Only library calls; no file is written."""
        monkeypatch.chdir(tmp_path)
        g = line_graph(500)
        params = ORACLE_PARAMS
        sol = solve_shortest_paths(g)
        model = build_model(SINUSOID, g, 11, horizon=params.deadline)
        sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
        x0 = constant_initial(g, 520.0)
        chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
        traj = simulate(g, model, params, x0, 0.9 * params.deadline, sol=sol)
        curves = compute_bound_curves(
            g, sol, sol_minus, model, x0, 3.0, chi0, params, traj.times, BOUND_KINDS
        )
        for _, read in band_blocks(len(traj.times), len(g.non_sources)):
            for lower, upper in curves.values():
                assert not np.isnan(read(lower)).any() and not np.isnan(read(upper)).any()
        check_brackets(g, traj, curves)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("focus", [2, 101, 200])
    def test_focus_columns_have_the_full_reads_bits(self, focus):
        """focus.csv, built from the bands.csv rows a block at a time, has
        the text of the per-value loop under the proportional band, or the
        uniform one without it, and its lower and upper columns the bits of
        the whole band's column, in the log-space cells of a 199-hop chain
        near the deadline (t = 4.95 and 4.99) too."""
        g = line_graph(200)
        sol = solve_shortest_paths(g)
        model = build_model(SINUSOID, g, 11, horizon=ORACLE_PARAMS.deadline)
        sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
        x0 = constant_initial(g, 220.0)
        times = np.concatenate((np.linspace(0.0, 4.9, 3 * BLOCK), [4.95, 4.99]))
        # L^199 overflows at t = 4.99, so the deepest chains' cells there are log-space ones
        assert 199 * math.log(dynamics.log_integrating_factor(ORACLE_PARAMS, 4.99)) > 1000.0
        rng = np.random.default_rng(focus)
        traj = Trajectory(np.array(sol.p), times, rng.standard_normal((len(times), 200)))
        col = g.non_sources.index(focus)
        for kinds, kind in ((BOUND_KINDS, "proportional"), (("chain", "uniform"), "uniform")):
            curves = compute_bound_curves(
                g, sol, sol_minus, model, x0, 3.0, 219.0, ORACLE_PARAMS, times, kinds
            )
            text = _focus_text(g, traj, curves, focus)
            assert_same_text(text, focus_csv_loop(g, traj, curves, focus, kind), kind)
            cells = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
            _assert_same_bits(cells[:, 1], traj.errors[:, focus - 1])
            for got, band in zip(cells.T[2:], curves[kind]):
                _assert_same_bits(got, np.asarray(band)[:, col])

    def test_constant_lower_bands_are_read_only(self):
        sc = load_scenario(Path("scenarios") / "case_study_3pct.ini")
        sc = replace(sc, t_end_rule=parse_t_end_rule("0.1Ts"))
        plan = plan_scenario(sc)
        times = np.linspace(0.0, plan.t_stop, 5)
        curves = compute_bound_curves(
            plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
            sc.params, times, BOUND_KINDS,
        )
        assert list(curves) == list(BOUND_KINDS)
        for kind, (lower, upper) in curves.items():
            assert lower.shape == upper.shape == (5, len(plan.g.non_sources))
            assert not lower.flags.writeable, kind
            with pytest.raises(ValueError):
                lower[0, 0] = 0.0


class TestBoundCurveMemory:
    @pytest.mark.parametrize(
        "kinds",
        [BOUND_KINDS, ("chain", "proportional"), ("proportional", "uniform", "envelope")],
        ids=["all", "chain-proportional", "proportional-uniform-envelope"],
    )
    def test_upper_bands_share_one_read_only_envelope(self, kinds):
        # The chain, proportional and uniform uppers are one read-only
        # envelope plus a constant per node; each still has the bits of the
        # kind computed on its own.
        sc = load_scenario(Path("scenarios") / "case_study_3pct.ini")
        sc = replace(sc, t_end_rule=parse_t_end_rule("0.1Ts"))
        plan = plan_scenario(sc)
        times = np.linspace(0.0, plan.t_stop, 5)
        args = (plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
                sc.params, times)
        curves = compute_bound_curves(*args, kinds)
        shifted = [curves[k][1] for k in ("chain", "proportional", "uniform") if k in kinds]
        assert shifted
        for upper in shifted:
            assert isinstance(upper, harness.ShiftedBand)
            assert isinstance(upper.env, NominalEnvelopes)
            assert upper.env is shifted[0].env
            assert upper.shape == upper.env.shape == (5, len(plan.g.non_sources))
            for lo, hi in [(0, 5), (1, 3), (2, 3), (4, 4)]:
                assert upper.env.rows(lo, hi).shape == (hi - lo, len(plan.g.non_sources))
                assert not upper.env.rows(lo, hi).flags.writeable, (lo, hi)
            with pytest.raises(TypeError):
                upper[0, 0] = 0.0
            with pytest.raises(TypeError):
                upper.env[0, 0] = 0.0
        for kind in kinds:
            (alone,) = compute_bound_curves(*args, (kind,)).values()
            for got, want in zip(curves[kind], alone):
                got, want = np.asarray(got), np.asarray(want)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), kind

    def test_shifted_band_reads_the_cells_of_env_plus_shift(self):
        rng = np.random.default_rng(4)
        e0s = [rng.normal(size=depth + 1) for depth in (0, 3, 1, 2)]
        ts, shift = np.linspace(0.0, 4.0, 6), rng.normal(size=4)
        env = NominalEnvelopes(e0s, ORACLE_PARAMS, ts)
        band = harness.ShiftedBand(env, shift)
        want = nominal_envelopes(e0s, ORACLE_PARAMS, ts) + shift
        assert band.shape == want.shape
        assert np.array_equal(np.asarray(band).view(np.uint64), want.view(np.uint64))
        err = rng.normal(size=(6, 4))
        assert np.array_equal(band - err, want - err)
        assert np.array_equal(err - band, err - want)
        assert float(np.min(band)) == float(np.min(want))
        with pytest.raises(ValueError):
            np.asarray(band, copy=False)

    def test_bands_and_check_peak_below_one_and_a_third_arrays(self):
        # The three envelope-based uppers share one envelope, and every other
        # temporary of the bands and the check is one block.
        peak, array = _bands_and_check_peak()
        assert peak < 1.3 * array, peak / array

    def test_bands_and_check_make_no_envelope_array(self):
        # The shared envelope is evaluated one block of rows at a time where
        # it is read, so no (times x nodes) array is made at all.
        peak, array = _bands_and_check_peak()
        assert peak < 0.4 * array, peak / array

    def test_a_whole_read_of_a_band_peaks_below_one_and_a_third_arrays(self):
        # np.asarray fills one (times x nodes) array through band_blocks, so
        # beside it the read holds one block of the envelope at most.
        g, sol, sol_minus, model, x0, chi0, traj = _wide_run()
        ((_, upper),) = compute_bound_curves(
            g, sol, sol_minus, model, x0, 3.0, chi0, ORACLE_PARAMS, traj.times, ("uniform",)
        ).values()
        array = len(traj.times) * len(g.non_sources) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            whole = np.asarray(upper)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert whole.shape == upper.shape and whole.nbytes == array
        assert peak < 1.3 * array, peak / array

    @pytest.mark.parametrize("rows", [1, 7, 128, None])
    def test_band_blocks_read_the_cells_of_the_eager_envelope_plus_shift(
        self, monkeypatch, rows
    ):
        # Deep chains near the deadline, so log-space cells are read too.
        g = line_graph(200)
        ts = np.concatenate((np.linspace(0.0, 4.9, 300), [4.95, 4.99]))
        sol = solve_shortest_paths(g)
        params = ORACLE_PARAMS
        model = build_model(
            DisturbanceSpec(kind="sinusoid", amplitude=0.4), g, 0, horizon=params.deadline
        )
        sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
        x0 = constant_initial(g, 220.0)
        chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
        e0s = [chain_initial_errors(sol, x0, parent_chain(sol, i)) for i in g.non_sources]
        eager = nominal_envelopes(e0s, params, ts)
        if rows:
            monkeypatch.setattr("dbmc.harness.CHECK_BLOCK", len(e0s) * rows)
        curves = compute_bound_curves(
            g, sol, sol_minus, model, x0, 3.0, chi0, params, ts, BOUND_KINDS
        )
        assert np.all(np.isfinite(eager)) and len(ts) > harness.CHECK_BLOCK // len(e0s)
        wants = {kind: tuple(map(np.asarray, bands)) for kind, bands in curves.items()}
        for kind in ("chain", "proportional", "uniform"):
            upper = curves[kind][1]
            _assert_same_bits(wants[kind][1], eager + upper.shift)
            _assert_same_bits(upper - eager, wants[kind][1] - eager)
        step, spans = harness.CHECK_BLOCK // len(e0s), []
        env = curves["chain"][1].env
        # every read keeps its own block's rows after the walk has moved on
        for span, read in list(band_blocks(len(ts), len(e0s))):
            spans.append((span.start, span.stop))
            _assert_same_bits(read(env), eager[span])
            for kind, bands in curves.items():
                for band, want in zip(bands, wants[kind]):
                    _assert_same_bits(read(band), want[span])
        assert spans == [(a, min(a + step, len(ts))) for a in range(0, len(ts), step)]

    def test_each_reader_evaluates_each_row_once(self, tmp_path, monkeypatch):
        # A whole run reads the envelope once per streamed block, for the
        # bands.csv rows, the focus.csv rows and the bracket check alike, so
        # every stored time is evaluated once, every chain at a time.
        sc = load_scenario(Path("scenarios") / "case_study_40pct.ini")
        evaluated = []
        evaluate = bounds._deepest_first_envelopes

        def counted(hops, width, lp):
            evaluated.append((width, lp))
            return evaluate(hops, width, lp)

        monkeypatch.setattr(bounds, "_deepest_first_envelopes", counted)
        result = run_scenario(sc, tmp_path)
        assert (tmp_path / "focus.csv").exists() and (tmp_path / "bands.csv").exists()
        times = np.array(dynamics.step_grid(sc.params, result.summary["t_end"])[0])
        wide = len(plan_scenario(sc).g.non_sources)
        assert {width for width, _ in evaluated} == {wide}
        counts = Counter(v for _, lp in evaluated for v in lp.tolist())
        lps = dynamics.log_integrating_factor(sc.params, times).tolist()
        assert len(set(lps)) == len(times)
        assert counts == Counter(lps)

    def test_a_run_makes_one_reader_per_streamed_block(self, tmp_path, monkeypatch):
        # feed_blocks makes one reader per block of 128 rows and hands it to
        # every file and to the bracket check, which makes no reader of its own.
        sc = load_scenario(Path("scenarios") / "case_study_40pct.ini")
        made = []
        span_reader = harness._span_reader

        def counted(span):
            made.append((span.start, span.stop))
            return span_reader(span)

        monkeypatch.setattr(harness, "_span_reader", counted)
        result = run_scenario(sc, tmp_path)
        assert (tmp_path / "focus.csv").exists() and (tmp_path / "bands.csv").exists()
        n = result.summary["steps"] + 1
        assert n > 2 * BLOCK and n % BLOCK
        assert made == [(a, min(a + BLOCK, n)) for a in range(0, n, BLOCK)]

    def test_a_walk_frees_each_block_without_the_cycle_collector(self):
        """A block's read holds no cycle, so the envelope rows it evaluated
        are freed by reference counting as soon as the walk drops it."""
        g, sol, sol_minus, model, x0, chi0, traj = _wide_run()
        curves = compute_bound_curves(
            g, sol, sol_minus, model, x0, 3.0, chi0, ORACLE_PARAMS, traj.times[:300],
            ("chain", "uniform"),
        )
        refs = []
        gc.disable()
        try:
            for _, read in band_blocks(300, len(g.non_sources)):
                read(curves["uniform"][1])
                refs.append(weakref.ref(read(curves["chain"][1].env)))
            del read
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) > 1 and alive == 0

    def test_times_past_the_deadline_raise_before_any_read(self):
        sc = load_scenario(Path("scenarios") / "case_study_3pct.ini")
        sc = replace(sc, t_end_rule=parse_t_end_rule("0.5Ts"))
        plan = plan_scenario(sc)
        args = (plan.g, plan.sol, plan.sol_minus, plan.model, plan.x0, sc.q, plan.chi0,
                sc.params)
        for times in (np.linspace(0.0, sc.params.deadline, 5), np.array([0.0, 6.0])):
            for kind in ("chain", "proportional", "uniform"):
                with pytest.raises(DomainError, match="time must lie in"):
                    compute_bound_curves(*args, times, (kind,))


@functools.cache
def _wide_run():
    """(g, sol, sol_minus, model, x0, chi0, traj) of ``hop_random_graph(400,
    0.012, 1)`` (399 non-sources) to 0.34 of the deadline."""
    g = hop_random_graph(400, 0.012, 1)
    params = ORACLE_PARAMS
    sol = solve_shortest_paths(g)
    model = build_model(
        DisturbanceSpec(kind="sinusoid", amplitude=0.03), g, 1, horizon=params.deadline
    )
    sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
    x0 = constant_initial(g, 12.0)
    chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
    traj = simulate(g, model, params, x0, 0.34 * params.deadline, sol=sol)
    return g, sol, sol_minus, model, x0, chi0, traj


@functools.cache
def _bands_and_check_peak() -> tuple[int, int]:
    """tracemalloc peak of ``compute_bound_curves`` with all four kinds plus
    ``check_brackets`` on :func:`_wide_run`, and the bytes of one (times x
    non-sources) float64 array."""
    g, sol, sol_minus, model, x0, chi0, traj = _wide_run()
    array = len(traj.times) * len(g.non_sources) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curves = compute_bound_curves(
            g, sol, sol_minus, model, x0, 3.0, chi0, ORACLE_PARAMS, traj.times, BOUND_KINDS
        )
        check_brackets(g, traj, curves)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert list(curves) == list(BOUND_KINDS)
    return peak, array


@functools.cache
def _bracket_run():
    """(g, traj, curves) of standin13 to t = 0.3 with every bound kind:
    301 stored times, so the streamed path sees two whole 128-row blocks
    and a short last one."""
    g = standin13()
    params = ORACLE_PARAMS
    sol = solve_shortest_paths(g)
    model = build_model(SINUSOID, g, 11, horizon=params.deadline)
    sol_minus = solve_shortest_paths(minus_graph(g, model.edge_lower))
    x0 = constant_initial(g, 12.0)
    chi0 = float(max(x0[i - 1] - sol.p[i - 1] for i in g.non_sources))
    traj = simulate(g, model, params, x0, 0.3, sol=sol)
    curves = compute_bound_curves(
        g, sol, sol_minus, model, x0, 3.0, chi0, params, traj.times, BOUND_KINDS
    )
    return g, traj, curves


def _failure(call) -> str | None:
    try:
        call()
    except DbmcError as exc:
        return str(exc)
    return None


# rows per block of the standalone check (None: all), or the streamed path
BRACKET_PATHS = [1, 2, None, "streamed"]


def _fed_check(g, traj, curves, stop=None) -> harness.BracketCheck:
    """A check fed, as a run feeds it, the 128-row blocks of ``traj`` up to
    the stored time ``stop``, through :func:`harness.feed_blocks`."""
    check = harness.BracketCheck(g, curves)
    on_block = harness.feed_blocks(check)
    n = len(traj.times) if stop is None else stop
    for a in range(0, n, BLOCK):
        on_block(slice(a, min(a + BLOCK, n)), traj.errors[a : min(a + BLOCK, n)])
    return check


class TestBracketCheckMatchesTheLoop:
    """``check_brackets``, standalone or fed from a run's blocks, raises
    exactly when the earlier whole-read check (``check_brackets_loop``)
    does, with the same message."""

    @staticmethod
    def _compare(monkeypatch, path, g, traj, curves) -> str | None:
        if path != "streamed":
            rows = path or len(traj.times)
            monkeypatch.setattr("dbmc.harness.CHECK_BLOCK", rows * len(g.non_sources))
            got = _failure(lambda: check_brackets(g, traj, curves))
        else:
            check = _fed_check(g, traj, curves)
            got = _failure(lambda: check_brackets(g, traj, curves, check))
        want = _failure(lambda: check_brackets_loop(g, traj, curves))
        assert got == want
        return want

    @staticmethod
    def _moved(g, traj, curves, kind, side, row, slack):
        """``curves`` with the cell of node 7 at ``row`` of ``kind``'s
        ``side`` band moved to ``slack`` from that node's error."""
        col = g.non_sources.index(7)
        err = traj.errors[row, 6]
        bands = list(curves[kind])
        band = np.array(bands[side])
        band[row, col] = err - slack if side == 0 else err + slack
        bands[side] = band
        return {**curves, kind: tuple(bands)}

    @pytest.mark.parametrize("path", BRACKET_PATHS)
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("shift", [0.5, -0.5, 2.0, -2.0, 10.0, -10.0])  # in BRACKET_TOL
    @pytest.mark.parametrize("kind, side", [("chain", 1), ("uniform", 0), ("uniform", 1)])
    def test_a_band_moved_across_the_error(self, monkeypatch, path, at, shift, kind, side):
        g, traj, curves = _bracket_run()
        row = {"first": 0, "middle": len(traj.times) // 2, "last": len(traj.times) - 1}[at]
        moved = self._moved(g, traj, curves, kind, side, row, shift * harness.BRACKET_TOL)
        want = self._compare(monkeypatch, path, g, traj, moved)
        assert (want is None) == (shift > -1.0)
        assert want is None or f"bound curve {kind!r}" in want

    @pytest.mark.parametrize("path", BRACKET_PATHS)
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_the_first_failing_kind_in_curves_order(self, monkeypatch, path, order):
        # chain fails only in the last row and uniform only in the first
        g, traj, curves = _bracket_run()
        tol = harness.BRACKET_TOL
        moved = self._moved(g, traj, curves, "chain", 1, len(traj.times) - 1, -10 * tol)
        moved = self._moved(g, traj, moved, "uniform", 0, 0, -2 * tol)
        kinds = list(moved) if order == "forward" else list(moved)[::-1]
        moved = {kind: moved[kind] for kind in kinds}
        want = self._compare(monkeypatch, path, g, traj, moved)
        first = "chain" if order == "forward" else "uniform"
        assert want.startswith(f"bound curve {first!r}")
        # the chain kind's lower is -inf, so its lower slack is inf
        assert first != "chain" or "worst lower slack inf," in want

    @pytest.mark.parametrize("path", BRACKET_PATHS)
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_a_nan_error(self, monkeypatch, path, at):
        g, traj, curves = _bracket_run()
        row = {"first": 0, "middle": len(traj.times) // 2, "last": len(traj.times) - 1}[at]
        errors = traj.errors.copy()
        errors[row, 6] = math.nan
        want = self._compare(monkeypatch, path, g, replace(traj, errors=errors), curves)
        assert want.startswith(f"bound curve {next(iter(curves))!r}") and "nan" in want

    @pytest.mark.parametrize("path", BRACKET_PATHS)
    @pytest.mark.parametrize("kind, side", [("chain", 1), ("uniform", 0), ("envelope", 1)])
    def test_a_nan_band_cell(self, monkeypatch, path, kind, side):
        g, traj, curves = _bracket_run()
        moved = self._moved(g, traj, curves, kind, side, len(traj.times) // 2, math.nan)
        want = self._compare(monkeypatch, path, g, traj, moved)
        assert want.startswith(f"bound curve {kind!r}") and "nan" in want

    @pytest.mark.parametrize("path", BRACKET_PATHS)
    def test_bands_that_bracket(self, monkeypatch, path):
        g, traj, curves = _bracket_run()
        assert self._compare(monkeypatch, path, g, traj, curves) is None

    @pytest.mark.parametrize("stop", [0, BLOCK, 2 * BLOCK])
    def test_a_fed_check_must_have_seen_every_stored_time(self, stop):
        g, traj, curves = _bracket_run()
        check = _fed_check(g, traj, curves, stop)
        with pytest.raises(DbmcError, match=f"saw {stop} of the run's 301 stored times"):
            check_brackets(g, traj, curves, check)

    def test_a_run_whose_blocks_miss_the_check_fails(self, tmp_path, monkeypatch):
        # the composer drops its last consumer, the check, so the run's
        # bands would otherwise pass unchecked
        feed_blocks = harness.feed_blocks
        monkeypatch.setattr(harness, "feed_blocks", lambda *consumers: feed_blocks(*consumers[:-1]))
        with pytest.raises(DbmcError, match="the bracket check saw 0 of the run's"):
            run_scenario(parse_scenario(BASE_SCENARIO), tmp_path / "out")
        _assert_no_child_process()
        assert not any(tmp_path.iterdir())

    def test_a_run_calls_check_brackets_once_with_its_run(self, tmp_path, monkeypatch):
        """The benchmark's tracer wraps ``harness.check_brackets`` by name
        and reads the run's bracket slack from its first three positional
        arguments, ``(g, traj, curves)``; a run that does not call it leaves
        that slack infinite."""
        calls = []
        for name in ("compute_bound_curves", "simulate", "check_brackets"):
            def spy(*args, _real=getattr(harness, name), _name=name, **kwargs):
                result = _real(*args, **kwargs)
                calls.append((_name, args, result))
                return result

            monkeypatch.setattr(harness, name, spy)
        run_scenario(parse_scenario(BASE_SCENARIO), tmp_path / "out")
        (bands_args, curves), (_, traj) = [
            (args, result) for name, args, result in calls if name != "check_brackets"
        ]
        (args,) = [args for name, args, _ in calls if name == "check_brackets"]
        g = bands_args[0]
        assert args[0] is g and args[1] is traj and args[2] is curves and curves
        err = traj.errors[:, [i - 1 for i in g.non_sources]]
        slack = min(
            min(float(np.min(err - lower)), float(np.min(upper - err)))
            for lower, upper in curves.values()
        )
        assert math.isfinite(slack) and slack >= -harness.BRACKET_TOL
