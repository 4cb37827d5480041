import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfield_gaussian import cli, model, oracles, states, sweep
from hopfield_gaussian.measures import SteeringClass
from hopfield_gaussian.model import InstabilityError, ModelParams, hopfield
from hopfield_gaussian.oracles import no_a2, parse_covariance, resonant_balance_frequency
from hopfield_gaussian.scenarios import (
    SCENARIOS,
    Axis,
    SweepSpec,
    resolve_scenario,
)
from hopfield_gaussian.states import Environment
from hopfield_gaussian.sweep import (
    CSV_HEADER,
    ResultRow,
    diagonalize_params,
    evaluate_point,
    run_point,
    spec_to_params,
    sweep_csv,
)
from oracles import row_csv


# `sha256sum` lines of every figure CSV
FIGURE_DIGESTS = (Path(__file__).parent / "figure_data.sha256").read_text().splitlines()
README = Path(__file__).parents[1] / "README.md"
# (sha256 of stdout, or of stderr where the command fails, exit code,
# arguments) of point, sweep and dynamics commands; CI checks the installed
# CLI against them too
POINT_DIGESTS = [
    line.split(None, 2)
    for line in (Path(__file__).parent / "point_output.sha256").read_text().splitlines()
    if not line.startswith("#")
]


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "hopfield_gaussian", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module."""
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    return script


class TestRunPoint:
    def test_ground_state_point(self):
        row = run_point(hopfield(1, 1, 0.5), None, "ground")
        assert row.stable and row.e_n > 0
        assert row.g_ab == pytest.approx(row.g_ba, abs=1e-10)
        assert row.classification == SteeringClass.TWO_WAY.value

    def test_thermal_one_way_point(self):
        row = run_point(hopfield(1, 1, 0.8), Environment(0.25), "thermal")
        assert row.classification == SteeringClass.ONE_WAY_B_TO_A.value

    def test_no_diamagnetic_resonant_point_has_no_steering(self):
        row = run_point(no_a2(1, 1, 0.45), Environment(0.25), "thermal")
        assert row.classification == SteeringClass.NO_WAY.value
        assert row.g_ab == 0.0 and row.g_ba == 0.0

    def test_unstable_point_is_flagged_not_raised(self):
        row = run_point(no_a2(1, 1, 0.6), Environment(0.25), "thermal")
        assert not row.stable
        assert row.e_n is None and row.omega_upper is None

    def test_csv_row_of_unstable_point(self):
        row = run_point(no_a2(1, 1, 0.6), Environment(0.25), "thermal")
        text = row.to_csv()
        assert text == "0.6,1,1,0.25,,,,,,,,,,,,false"

    @pytest.mark.parametrize("route", [run_point, evaluate_point])
    @pytest.mark.parametrize("lam", [0.5, 0.6])  # stable, unstable
    def test_unknown_state_kind_rejected(self, route, lam, monkeypatch):
        # before any work: the point is never evaluated
        def work(*args):
            raise AssertionError("the point was evaluated")

        monkeypatch.setattr(sweep, "_stability_determinants", work)
        message = "^state_kind must be 'ground' or 'thermal'$"
        with pytest.raises(ValueError, match=message) as caught:
            route(no_a2(1, 1, lam), Environment(0.25), "squeezed")
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("lam", [0.5, 0.6])  # stable, unstable
    def test_ground_state_refuses_a_positive_temperature(self, lam):
        # as SweepSpec does: the ground state is at T = 0
        message = "^a ground state takes no temperature but 0: the ground state is at T = 0"
        params = no_a2(1, 1, lam)
        with pytest.raises(ValueError, match=message):
            run_point(params, Environment(0.3), "ground")
        table = [[v, v] for v in (1.0, 1.0, lam, lam, 0.0)]
        with pytest.raises(ValueError, match=message):
            sweep.evaluate_grid(sweep.GridPoints(*table, [0.0, 0.3]), "ground")
        # T = +-0 is the ground state's own temperature, echoed as 0
        assert run_point(params, Environment(-0.0), "ground") == run_point(params, None, "ground")
        rows = sweep.evaluate_grid(sweep.GridPoints(*table, [0.0, -0.0]), "ground").csv_text()
        assert rows.splitlines() == [run_point(params, None, "ground").to_csv()] * 2

    def test_unstable_point_builds_no_exception(self, monkeypatch):
        def fail(self, *args):
            raise AssertionError("an InstabilityError was built")

        monkeypatch.setattr(InstabilityError, "__init__", fail)
        params = no_a2(1, 1, 0.6)
        for kind, env in (("ground", None), ("thermal", Environment(0.25))):
            assert run_point(params, env, kind).to_csv().endswith(",false")
            assert evaluate_point(params, env, kind)[1] is None
        # the patch is live: the raising route still builds one
        with pytest.raises(AssertionError, match="InstabilityError was built"):
            diagonalize_params(params)

    def test_dump_cov_still_raises_past_the_edge(self, capsys):
        row, sectors = evaluate_point(no_a2(1, 1, 0.6), Environment(0.25), "thermal")
        assert sectors is None and not row.stable
        with pytest.raises(InstabilityError):
            diagonalize_params(no_a2(1, 1, 0.6))
        argv = ["point", "--lambda", "0.6", "--diamag", "zero", "--temp", "0.25",
                "--state", "thermal", "--dump-cov", "-"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("unstable: ")
        # the one message of every command that refuses an unstable point
        assert cli.main(["diagonalize", *argv[1:5]]) == 2
        assert capsys.readouterr().err == err


# every finite non-negative float: zero, binary exponents drawn uniformly
# from the smallest subnormal to the largest float, and Hypothesis' own picks
ANY_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024)),
    st.floats(0.0, allow_infinity=False),
)


class TestRunPointFloatRange:
    @settings(max_examples=500, deadline=None)
    # omega_L of the (T, V) frame underflows to 0: once a ZeroDivisionError
    @example((6.845772737231646e245, 3.6509797094270246e-166, 2.1811256879978044e-196, 0.0,
              2.490144585750596e301), 0.0, "ground")
    # det Gamma_xx rounds to 0; exact determinants past the float range
    @example((5e-324, 1.0000000000000002, 5e-324, 1e-300, 1e10), 0.0, "ground")
    @example((1e-160, 0.5, 0.5, 1e300, 1.0), 0.0, "ground")
    @given(st.tuples(*[ANY_MAGNITUDE] * 5), ANY_MAGNITUDE, st.sampled_from(["ground", "thermal"]))
    def test_a_row_or_a_value_error(self, values, temperature, kind):
        temperature = temperature if kind == "thermal" else 0.0  # the ground state is at T = 0
        try:
            row = run_point(ModelParams(*values), Environment(temperature), kind)
        except ValueError:
            return
        assert isinstance(row, ResultRow)


# every float class: -0.0, inf, nan, subnormals and huge values included
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.7976931348623157e308,
               1e16, 123456789012.5, 9.99999999999951e-05]


class TestResultRowCsv:
    """``ResultRow.to_csv``, one % per row, against one format() per cell."""

    @settings(max_examples=500)
    @example(EDGE_FLOATS + EDGE_FLOATS[:4], "two-way")
    @given(st.lists(ANY_FLOAT, min_size=14, max_size=14),
           st.sampled_from([c.value for c in SteeringClass]))
    def test_stable_rows(self, cells, label):
        row = ResultRow(*cells, label)
        assert row.to_csv() == row_csv(row)

    @settings(max_examples=500)
    @example(EDGE_FLOATS[:4])
    @given(st.lists(ANY_FLOAT, min_size=4, max_size=4))
    def test_unstable_rows(self, inputs):
        row = ResultRow(*inputs, None, None, stable=False)
        assert row.to_csv() == row_csv(row)


class TestScenarioRegistry:
    def test_all_presets_exist(self):
        expected = {
            "fig2a",
            "fig2b",
            "fig2c",
            "fig2d",
            "fig3a",
            "fig3b",
            "fig4",
            "fig5",
            "fig6",
            "fig8",
        }
        assert expected == set(SCENARIOS)

    def test_caption_parameters(self):
        assert SCENARIOS["fig3a"].fixed["T"] == 0.15
        assert SCENARIOS["fig4"].fixed["T"] == 0.15
        assert SCENARIOS["fig5"].fixed == {"wa": 1.0, "wb": 1.0, "T": 0.25}
        assert SCENARIOS["fig6"].fixed["lambda"] == 0.25
        assert SCENARIOS["fig6"].fixed["T"] == 0.2
        assert SCENARIOS["fig8"].fixed["wa"] == 2.0
        assert SCENARIOS["fig8"].diamag_mode == "zero"
        assert SCENARIOS["fig2c"].coupling == "squeeze-only"
        assert SCENARIOS["fig2d"].coupling == "mix-only"
        for name in ("fig2a", "fig2b", "fig2c", "fig2d"):
            assert SCENARIOS[name].state == "ground"

    def test_alias(self):
        assert resolve_scenario("fig6a") is SCENARIOS["fig6"]

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            resolve_scenario("fig99")

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis("nope", (1.0, 2.0))
        with pytest.raises(ValueError):
            Axis("lambda", (1.0,))
        with pytest.raises(ValueError, match="finite"):
            Axis("lambda", (0.1, math.nan))
        with pytest.raises(ValueError, match="finite"):
            Axis("T", (0.1, math.inf))
        with pytest.raises(ValueError):
            SweepSpec(
                scenario="custom",
                axes=(Axis("lambda", (0.1, 0.2)), Axis("lambda", (0.1, 0.2))),
            )


class TestSweep:
    def test_row_major_order_and_shape(self):
        spec = SweepSpec(
            scenario="custom",
            axes=(Axis("wa", (0.5, 1.0)), Axis("lambda", (0.1, 0.2, 0.3))),
            fixed={"wb": 1.0, "T": 0.0},
            state="ground",
        )
        rows = sweep_csv(spec).splitlines()[1:]
        assert len(rows) == 6
        cells = [r.split(",") for r in rows]
        assert [c[1] for c in cells] == ["0.5"] * 3 + ["1"] * 3
        assert [c[0] for c in cells] == ["0.1", "0.2", "0.3"] * 2

    def test_header_and_termination(self):
        spec = SweepSpec(
            scenario="custom",
            axes=(Axis("lambda", (0.1, 0.2)),),
            fixed={"T": 0.1},
        )
        csv = sweep_csv(spec, Environment(0.1))
        lines = csv.split("\n")
        assert lines[0] == CSV_HEADER
        assert csv.endswith("\n")
        assert len(lines) == 4  # header + 2 rows + trailing newline

    def test_unstable_rows_flagged_not_truncated(self):
        fig5 = resolve_scenario("fig5")
        spec = SweepSpec(
            scenario="fig5",
            axes=fig5.axes,
            fixed=fig5.fixed,
            diamag_mode="zero",
            state="thermal",
        )
        rows = sweep_csv(spec, Environment(0.25)).splitlines()[1:]
        assert len(rows) == len(fig5.axes[0].values)
        stable_flags = [r.rsplit(",", 1)[1] for r in rows]
        assert "false" in stable_flags and "true" in stable_flags
        # stability boundary for the resonant no-diamagnetic model is 0.5
        for row in rows:
            lam = float(row.split(",", 1)[0])
            assert (row.endswith("true")) == (lam < 0.5)

    def test_figure_script_writes_every_preset(self, tmp_path, monkeypatch):
        script = load_script("make_figure_data")
        monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out", str(tmp_path)])
        script.main()
        names = sorted([*SCENARIOS, "fig5_no_diamag"])
        assert sorted(p.stem for p in tmp_path.iterdir()) == names
        # fig2b repeats fig2a's grid and fig4 fig3a's, each rendered on its own
        for copy, source in (("fig2b", "fig2a"), ("fig4", "fig3a")):
            text = (tmp_path / f"{copy}.csv").read_bytes()
            assert text == (tmp_path / f"{source}.csv").read_bytes()

    def test_repeated_runs_byte_identical(self):
        spec = resolve_scenario("fig6")
        env = Environment(0.2)
        assert sweep_csv(spec, env) == sweep_csv(spec, env)

    def test_figure_digests_name_every_figure_file(self):
        names = [line.split()[1] for line in FIGURE_DIGESTS]
        assert names == sorted(f"{name}.csv" for name in [*SCENARIOS, "fig5_no_diamag"])

    @pytest.mark.parametrize("line", FIGURE_DIGESTS)
    def test_preset_csv_bytes(self, line, capsys):
        # sha256 of `sweep --scenario` for every preset and for fig5 without
        # the diamagnetic term, under the file names of make_figure_data.py;
        # CI checks that script's files against the same list, so a change
        # of any printed digit must update the pin
        digest, name = line.split()
        scenario = name.removesuffix(".csv")
        argv = ["sweep", "--scenario", scenario]
        if scenario == "fig5_no_diamag":
            argv = ["sweep", "--scenario", "fig5", "--diamag", "zero"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # every preset is one kernel block now; these cuts keep the many-block
    # path pinned: single points, 97-point blocks and blocks the writer cuts
    # into several chunks
    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_many_blocks_keep_the_preset_digests(self, block, monkeypatch):
        monkeypatch.setattr(sweep, "_BLOCK_POINTS", block)
        monkeypatch.setattr(sweep, "_WRITER_CHUNK", 130)
        digests = {name: digest for digest, name in map(str.split, FIGURE_DIGESTS)}
        for name in ("fig3a", "fig3b"):
            text = sweep_csv(resolve_scenario(name))
            assert len(text.splitlines()) - 1 > block
            assert hashlib.sha256(text.encode()).hexdigest() == digests[f"{name}.csv"], name

    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_many_blocks_keep_a_grid_with_unstable_points(self, block, monkeypatch):
        # D = 0: points with lambda past sqrt(wa wb) / 2 are unstable rows
        spec = SweepSpec(
            "custom",
            (Axis.linspace("wa", 0.2, 2.0, 23), Axis.linspace("lambda", 0.05, 1.6, 47)),
            {"wb": 1.0, "T": 0.2}, diamag_mode="zero", state="thermal",
        )
        whole = sweep_csv(spec)
        assert len(whole.splitlines()) - 1 < sweep._BLOCK_POINTS
        monkeypatch.setattr(sweep, "_BLOCK_POINTS", block)
        monkeypatch.setattr(sweep, "_WRITER_CHUNK", 130)
        text = sweep_csv(spec)
        flags = [row.rsplit(",", 1)[1] for row in text.splitlines()[1:]]
        assert flags.count("false") > 100 and flags.count("true") > 100
        assert text == whole

    # one block of every size that can cut a grid: single points, a few,
    # all but the last point, and the whole grid as one block
    @pytest.mark.parametrize("block", [lambda n: 1, lambda n: 7, lambda n: n - 1, lambda n: n],
                             ids=["1", "7", "n-1", "n"])
    def test_block_boundaries_keep_the_one_block_bytes(self, block, monkeypatch):
        # D = 0: points with lambda past sqrt(wa wb) / 2 are unstable rows
        spec = SweepSpec(
            "custom",
            (Axis.linspace("wa", 0.2, 2.0, 9), Axis.linspace("lambda", 0.05, 1.6, 13)),
            {"wb": 1.0, "T": 0.2}, diamag_mode="zero", state="thermal",
        )
        whole = sweep_csv(spec)
        n = len(whole.splitlines()) - 1
        assert n == 117 < sweep._BLOCK_POINTS
        flags = [row.rsplit(",", 1)[1] for row in whole.splitlines()[1:]]
        assert flags.count("false") > 10 and flags.count("true") > 10
        monkeypatch.setattr(sweep, "_BLOCK_POINTS", block(n))
        assert sweep_csv(spec) == whole

    def test_fig6_steering_direction_flips_at_balance_frequency(self):
        spec = resolve_scenario("fig6")
        balance = resonant_balance_frequency(0.25, 1.0)  # 0.8828
        rows = [r.split(",") for r in sweep_csv(spec, Environment(0.2)).splitlines()[1:]]
        for cells in rows:
            wa, g_ab, g_ba = float(cells[1]), float(cells[7]), float(cells[8])
            # below the purity-balance frequency the hot cavity mode is the
            # dominant steering party, above it the matter mode takes over
            if g_ab > 0 or g_ba > 0:
                if wa < balance - 1e-6:
                    assert g_ab > g_ba
                elif wa > balance + 1e-6:
                    assert g_ba > g_ab
        assert any(float(c[7]) > 0 and float(c[8]) == 0 for c in rows)
        assert any(float(c[8]) > 0 and float(c[7]) == 0 for c in rows)

    def test_fig8_hot_mode_steers_one_way(self):
        # the matter mode sits at half the cavity frequency, so it is the
        # noisier marginal and the only possible one-way steering party
        csv = sweep_csv(resolve_scenario("fig8"), Environment(0.25))
        rows = [r.split(",") for r in csv.splitlines()[1:]]
        classes = {c[14] for c in rows}
        assert classes == {"no-way", "one-way-b-to-a"}
        for cells in rows:
            if cells[14] == "one-way-b-to-a":
                mu_a, mu_b, mu_ab = (float(cells[k]) for k in (9, 10, 11))
                assert mu_b < mu_ab < mu_a

    def test_mix_only_sweep_stays_vacuum(self):
        rows = [r.split(",") for r in sweep_csv(resolve_scenario("fig2d")).splitlines()[1:]]
        assert all(float(c[6]) == 0.0 for c in rows)  # E_N
        assert all(c[14] == "no-way" for c in rows)

    def test_spec_to_params_coupling_structures(self):
        spec = resolve_scenario("fig2c")
        params, _ = spec_to_params(spec, {"lambda": 0.3})
        assert params.lambda1 == 0.0 and params.lambda2 == 0.3
        spec = resolve_scenario("fig2d")
        params, _ = spec_to_params(spec, {"lambda": 0.3})
        assert params.lambda1 == 0.3 and params.lambda2 == 0.0

    def test_auto_diamag_requires_full_coupling(self):
        spec = SweepSpec(
            scenario="custom",
            axes=(Axis("lambda", (0.1, 0.2)),),
            coupling="squeeze-only",
            diamag_mode="auto",
        )
        with pytest.raises(ValueError):
            spec_to_params(spec, {"lambda": 0.1})

    def test_misspelt_fixed_input_rejected(self):
        # grid_points reads only the sweepable inputs, so "temp" would sweep at T = 0
        with pytest.raises(ValueError, match=r"^cannot fix 'temp'; one of \('lambda',"):
            SweepSpec("custom", (Axis("lambda", (0.1, 0.2)),), {"temp": 0.3})

    def test_ground_state_takes_no_temperature(self):
        # the ground state is at T = 0, so a T axis or another fixed T would go unread
        lam = (Axis("lambda", (0.1, 0.2)),)
        for axes, fixed in (((*lam, Axis("T", (0.1, 0.2))), {}), (lam, {"T": 0.5})):
            with pytest.raises(ValueError, match="^a ground-state sweep takes no T axis"):
                SweepSpec("custom", axes, fixed, state="ground")
        assert SweepSpec("custom", lam, {"T": 0.0}, state="ground").fixed == {"T": 0.0}


class TestCli:
    def test_point_row(self):
        proc = run_cli(
            "point", "--lambda", "0.8", "--temp", "0.25", "--state", "thermal"
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[14] == "one-way-b-to-a"

    def test_dump_cov_roundtrip(self, tmp_path):
        path = tmp_path / "cov.txt"
        run_cli(
            "point", "--lambda", "0.5", "--dump-cov", str(path), "--output", "-"
        )
        text = path.read_text()
        assert text.startswith("basis: bare\n")
        gamma = parse_covariance(text)
        assert gamma.entries[0, 0] == pytest.approx(1 / np.sqrt(5), abs=1e-12)

    def test_dump_cov_to_stdout(self):
        proc = run_cli("point", "--lambda", "0.5", "--dump-cov", "-")
        assert proc.stdout.startswith("basis: bare\n")

    def test_sweep_scenario_to_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        run_cli("sweep", "--scenario", "fig8", "--output", str(out))
        text = out.read_text()
        assert text.startswith(CSV_HEADER)
        assert len(text.splitlines()) == 71

    def test_sweep_custom_axis(self):
        proc = run_cli(
            "sweep",
            "--scenario",
            "custom",
            "--axis",
            "lambda:0.1:0.5:5",
            "--temp",
            "0.2",
            "--state",
            "thermal",
        )
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        assert lines[1].startswith("0.1,1,1,0.2,")

    def test_sweep_diamag_override(self):
        proc = run_cli("sweep", "--scenario", "fig5", "--diamag", "zero")
        assert ",false" in proc.stdout  # unstable tail appears only for D = 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.5, "temp": 0.25, "wa": 2.0}))
        proc = run_cli(
            "point", "--config", str(cfg), "--state", "thermal", "--wa", "1"
        )
        cells = proc.stdout.splitlines()[1].split(",")
        assert cells[0] == "0.5" and cells[1] == "1" and cells[3] == "0.25"

    def test_config_keys_and_values_in_any_form_its_flags_take(self, tmp_path, capsys):
        # underscored keys, numeric strings and 'zero' for diamag, each read by
        # the subcommands that take its flag; the others skip it, so the file
        # serves every subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda1": "0.4", "lambda2": 0.2, "diamag": "zero",
                                   "temp": "0.25", "gamma_a": 2, "gamma-b": 0.5}))
        model = ["--lambda1", "0.4", "--lambda2", "0.2", "--diamag", "zero", "--temp", "0.25"]
        slopes = ["--gamma-a", "2", "--gamma-b", "0.5"]
        dynamics = ["dynamics", "--t-final", "2"]
        for argv, flags in (
            (["point", "--state", "thermal"], model),
            (["sweep", "--scenario", "fig5"], model[4:]),  # sweep skips lambda1/lambda2
            (dynamics, [*model, *slopes]),
        ):
            assert cli.main([*argv, "--config", str(cfg)]) == 0, argv
            from_config = capsys.readouterr().out
            assert cli.main([*argv, *flags]) == 0
            assert capsys.readouterr().out == from_config, argv
        # dynamics reads the slopes: the default ones give other rows
        assert cli.main([*dynamics, *model]) == 0
        assert capsys.readouterr().out != from_config
        assert cli.main(["diagonalize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("omega_U = ")

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"lambda": 0.5}, ["--lambda1", "0.3", "--lambda2", "0.1", "--diamag", "0.1"]),
            ({"lambda1": 0.3, "lambda2": 0.1}, ["--lambda", "0.4"]),
        ],
        ids=["lambda-in-file", "lambda1-lambda2-in-file"],
    )
    def test_explicit_coupling_beats_the_config_one(self, config, flags, tmp_path, capsys):
        # a config coupling gives way to an explicit one of the other spelling
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["point", "--config", str(cfg), *flags]) == 0
        from_config = capsys.readouterr().out
        assert cli.main(["point", *flags]) == 0
        assert capsys.readouterr().out == from_config
        # a file that holds both spellings still fails
        cfg.write_text(json.dumps({"lambda": 0.5, "lambda1": 0.3, "lambda2": 0.1}))
        assert cli.main(["point", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: give either lambda or lambda1/lambda2, not both\n"

    @pytest.mark.parametrize(
        "argv",
        [["point", "--lambda", "0.4", "--gamma-a", "7"],
         ["sweep", "--scenario", "fig5", "--gamma-b", "3"]],
        ids=["point", "sweep"],
    )
    def test_steady_state_commands_take_no_damping_slopes(self, argv, capsys):
        # the common-bath steady state does not depend on the slopes, so
        # only dynamics takes them
        with pytest.raises(SystemExit) as refused:
            cli.main(argv)
        assert refused.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize(
        "argv",
        [["point", "--lambda", "0.3"], ["point", "--lambda", "0.3", "--dump-cov", "-"],
         ["sweep", "--scenario", "fig2a"],
         ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.2:2", "--state", "ground"]],
        ids=["point", "point-dump-cov", "sweep-preset", "sweep-custom"],
    )
    def test_temp_in_the_ground_state_rejected(self, argv, tmp_path, capsys):
        # the ground state is at T = 0, so --temp would go unread
        assert cli.main([*argv, "--temp", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {argv[0]} does not take --temp in the ground state; "
                       "give --state thermal\n")
        # a config file's temp is skipped, as a key the command does not take
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temp": -1}))
        assert cli.main([*argv, "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"wa": [1]}, "config value of 'wa' must be a number, got [1]"),
            ({"temp": {"x": 1}}, 'config value of \'temp\' must be a number, got {"x": 1}'),
            ({"wa": True}, "config value of 'wa' must be a number, got true"),
            ({"wa": None}, "config value of 'wa' must be a number, got null"),
            ({"wb": "one"}, 'config value of \'wb\' must be a number, got "one"'),
            ({"diamag": "none"}, 'config value of \'diamag\' must be a number, got "none"'),
            ({"lambda": 0.5, "lamda": 0.3}, "config key 'lamda' names no flag"),
        ],
        ids=["list", "object", "bool", "null", "word", "diamag-word", "misspelt-key"],
    )
    @pytest.mark.parametrize("command", ["point", "sweep", "diagonalize"])
    def test_bad_config_is_one_error_line(self, config, message, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--scenario", "custom", "--axis", "lambda:0.1:0.2:2"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("preset", ["fig3b", "custom"])
    def test_ground_sweep_with_a_t_axis_is_one_error_line(self, preset, capsys):
        argv = ["sweep", "--scenario", preset, "--state", "ground"]
        if preset == "custom":
            argv += ["--axis", "T:0.1:0.5:3", "--lambda", "0.3"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: a ground-state sweep takes no T axis and no fixed T but 0: "
                       "the ground state is at T = 0\n")

    def test_dump_cov_file_and_row_share_one_state(self, tmp_path, capsys):
        path = tmp_path / "cov.txt"
        argv = ["point", "--lambda", "0.7", "--state", "thermal", "--temp", "0.3"]
        assert cli.main([*argv, "--dump-cov", str(path)]) == 0
        g = parse_covariance(path.read_text()).entries
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[12] == f"{(g[0, 0] + g[1, 1] - 1.0) / 2:.12g}"

    def test_config_applies_to_preset_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temp": 0.5, "wa": 2.0}))
        from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        base = ["sweep", "--scenario", "fig5"]
        assert cli.main([*base, "--config", str(cfg), "--output", str(from_config)]) == 0
        assert cli.main([*base, "--temp", "0.5", "--wa", "2", "--output", str(from_flags)]) == 0
        assert from_config.read_text() == from_flags.read_text()
        cells = from_config.read_text().splitlines()[1].split(",")
        assert cells[1] == "2" and cells[3] == "0.5"

    def test_config_lambda1_lambda2_skipped_by_sweep(self, tmp_path, capsys):
        # one file serves every subcommand: sweep skips the driven couplings
        # that point reads, as it skips any key it does not take
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda1": 0.3, "lambda2": 0.1, "diamag": 0.2}))
        assert cli.main(["point", "--config", str(cfg)]) == 0
        capsys.readouterr()
        base = ["sweep", "--scenario", "fig5"]
        assert cli.main([*base, "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert cli.main([*base, "--diamag", "0.2"]) == 0
        assert capsys.readouterr().out == from_config
        # an explicit flag still names what sweep does not take
        assert cli.main([*base, "--config", str(cfg), "--lambda1", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: sweep does not take --lambda1/--lambda2;")

    @pytest.mark.parametrize(
        "argv, flag, axis",
        [
            (["--scenario", "fig6", "--wa", "0.5"], "--wa", "wa"),
            (["--scenario", "fig3b", "--temp", "0.7"], "--temp", "T"),
            (["--scenario", "custom", "--axis", "lambda:0.1:0.5:3", "--lambda", "0.3"],
             "--lambda", "lambda"),
        ],
    )
    def test_flag_of_a_swept_axis_rejected(self, argv, flag, axis, tmp_path, capsys):
        # the axis sets the input, so a flag for it would go unread
        assert cli.main(["sweep", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: sweep does not take {flag}: {axis} is a swept axis\n"
        # a config-file value for the axis is skipped, as a key the sweep does not take
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: float(argv[-1])}))
        assert cli.main(["sweep", *argv[:-2], "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert cli.main(["sweep", *argv[:-2]]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["point", "--lambda", "nan"], "must be finite"),
            (["point", "--state", "thermal", "--temp", "nan"], "must be finite"),
            (["sweep", "--scenario", "custom", "--axis", "lambda:0.1:nan:3"], "must be finite"),
            (["point", "--wb", "0"], "frequencies must be positive"),
            (
                ["sweep", "--scenario", "custom", "--axis", "wa:1:2:2", "--lambda1",
                 "0.3", "--lambda2", "0.1", "--diamag", "zero"],
                "sweep does not take --lambda1/--lambda2",
            ),
            (["sweep", "--scenario", "fig8", "--lambda2", "0.1"], "--coupling"),
            (["dynamics", "--lambda", "0.5", "--t-final", "nan"], "--t-final must be"),
            (["dynamics", "--lambda", "0.5", "--t-final", "-2"], "--t-final must be"),
            (["dynamics", "--lambda", "0.5", "--dt", "nan"], "--dt must be"),
            (["dynamics", "--lambda", "0.5", "--dt", "0"], "--dt must be"),
            # rejected by counting the rows, before any allocation
            (["dynamics", "--lambda", "0.5", "--t-final", "1e30"],
             "t_final=1e+30, dt=0.0309017 and stride=1 would record 3.236068e+31 rows"),
            (["dynamics", "--lambda", "0.5", "--t-final", "1e9"], "the limit is 10,000,000"),
            (["dynamics", "--lambda", "0.5", "--t-final", "1e9", "--dt", "1e-300"],
             "would record inf rows"),
            (["dynamics", "--lambda", "0.5", "--stride", "0"], "stride must be at least 1"),
            # rejected by counting the points, before any allocation: without
            # the check numpy raises MemoryError on the first, and meshgrid
            # builds 1.6e7 points on the second
            (["sweep", "--scenario", "custom", "--axis", "lambda:0:1:1000000000000"],
             "axis 'lambda' has 1,000,000,000,000 points; the limit is 10,000,000"),
            (["sweep", "--scenario", "custom", "--axis", "lambda:0:1:4000", "--axis",
              "wa:1:2:4000"], "the sweep grid has 16,000,000 points; the limit is 10,000,000"),
        ],
    )
    def test_bad_input_rejected_up_front(self, argv, message, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_point_next_to_the_edge_is_a_stable_row(self, capsys):
        # within one rounding of lambda_C = 1/2, the same row as the sweep
        # kernel's; test_sweep_kernel pins its cells to 50-digit mpmath
        lam, temp = "0.49999999999999994", "0.7720568085913025"
        argv = ["point", "--lambda", lam, "--diamag", "zero", "--temp", temp,
                "--state", "thermal"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        spec = SweepSpec("custom", (Axis("lambda", (0.3, float(lam))),),
                         {"wa": 1.0, "wb": 1.0, "T": float(temp)}, diamag_mode="zero",
                         state="thermal")
        assert out.splitlines()[1] == sweep_csv(spec).splitlines()[2]
        assert out.splitlines()[1].endswith(",no-way,true")

    @pytest.mark.parametrize("command", ["diagonalize", "dynamics"])
    def test_det_t_zero_is_unstable_in_every_command(self, command, capsys):
        # det T = 1 - lambda2^2 = 0: the numeric solver alone found omega_L = 8.3e-9
        argv = [command, "--lambda1", "0", "--lambda2", "1", "--diamag", "0.25"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "unstable: the x or p sector of the Hamiltonian is not positive definite\n"

    def test_point_with_det_t_zero_is_an_unstable_row(self, capsys):
        argv = ["point", "--lambda1", "1", "--lambda2", "0", "--diamag",
                "0.2551133598784275", "--temp", "0.705", "--state", "thermal"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1] == "1,1,1,0.705,,,,,,,,,,,,false"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("temp", ["1e100", "1e160", "1e308"])
    @pytest.mark.parametrize(
        "command",
        [
            ["point", "--lambda", "0.5", "--state", "thermal"],
            ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.4:4", "--state", "thermal"],
            ["point", "--lambda1", "0.5", "--lambda2", "0.1", "--diamag", "0.1",
             "--state", "thermal"],
            ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.4:4", "--coupling",
             "mix-only", "--diamag", "0.1", "--state", "thermal"],
        ],
        ids=["point", "sweep", "point-sector", "sweep-sector"],
    )
    def test_overflowing_temperature_is_one_clear_error(self, command, temp, capsys):
        # det Gamma ~ T^4 overflows; any RuntimeWarning fails the test
        assert cli.main([*command, "--temp", temp]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "overflows" in err and "reservoir temperature is too high" in err
        if command[0] == "sweep":
            assert "lambda1=0.1," in err  # the first point is named

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command",
        [["point", "--wa", "1e300"], ["point", "--wa", "1e200"],
         ["sweep", "--scenario", "custom", "--axis", "wa:1e200:1e300:2"]],
        ids=["point-1e300", "point-1e200", "sweep"],
    )
    def test_overflow_at_zero_temperature_blames_the_parameters(self, command, capsys):
        assert cli.main([*command, "--lambda", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "overflows" in err and "temperature" not in err
        assert "span too many orders of magnitude" in err

    @pytest.mark.filterwarnings("error")
    def test_large_finite_temperature_rows_are_unchanged(self, capsys):
        assert cli.main(["point", "--lambda", "0.5", "--state", "thermal", "--temp", "1e30"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "0.5,1,1,1e+30,1.61803398875,0.61803398875,0,0,0,"
            "2.5e-61,1.25e-61,6.25e-122,1e+30,1.5e+30,no-way,true"
        )
        argv = ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.4:4"]
        assert cli.main([*argv, "--state", "thermal", "--temp", "1e30"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "0.1,1,1,1e+30,1.10498756211,0.904987562112,0,0,0,"
            "2.5e-61,2.40384615385e-61,6.25e-122,1e+30,1.02e+30,no-way,true"
        )

    def test_conflicting_coupling_flags_rejected(self):
        proc = run_cli(
            "point", "--lambda", "0.5", "--lambda1", "0.2", check=False
        )
        assert proc.returncode == 2
        assert "not both" in proc.stderr

    def test_unknown_scenario_fails(self):
        proc = run_cli("sweep", "--scenario", "fig99", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["--lambda", "0.5"], [
                "omega_U = 1.61803398875",
                "omega_L = 0.61803398875",
                "theta = -0.553574358897",
                "branch U: w=0.875392424038 x=0.541022271549 y=0.206652119061 z=0.127718033427",
                "branch L: w=0.541022271549 x=-0.875392424038 y=-0.127718033427 z=0.206652119061",
                "norm_residuals = 0 1.11022302463e-16",
                "orthogonality_residual = 0",
            ]),
            (["--lambda1", "0.4", "--lambda2", "0.2", "--diamag", "0.3"], [
                "omega_U = 1.6768385507",
                "omega_L = 0.792598558467",
                "theta = n/a",
                "branch U: w=0.900309474321 x=0.476174747912 y=0.189151817358 z=0.0390016678046",
                "branch L: w=0.476115505448 x=-0.881343370678 y=0.0382715830746 z=0.044580236597",
                "norm_residuals = 1.11022302463e-16 2.22044604925e-16",
                "orthogonality_residual = 4.29344060304e-17",
            ]),
            # a degenerate pair: any orthonormal branches are a basis
            (["--lambda", "0"], [
                "omega_U = 1",
                "omega_L = 1",
                "theta = n/a",
                "branch U: w=1 x=0 y=0 z=0",
                "branch L: w=0 x=1 y=0 z=0",
                "norm_residuals = 0 0",
                "orthogonality_residual = 0",
            ]),
        ],
        ids=["readme", "general", "degenerate"],
    )
    def test_diagonalize_output(self, argv, lines, capsys):
        assert cli.main(["diagonalize", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_diagonalize_unstable_exit(self):
        proc = run_cli(
            "diagonalize", "--lambda", "0.6", "--diamag", "zero", check=False
        )
        assert proc.returncode == 2

    def test_dynamics_header(self):
        proc = run_cli(
            "dynamics",
            "--lambda",
            "0.5",
            "--temp",
            "0.25",
            "--t-final",
            "1",
            "--stride",
            "10",
        )
        assert proc.stdout.splitlines()[0] == (
            "t,occ_U,occ_L,re_sq_U,im_sq_U,re_sq_L,im_sq_L,re_cross,im_cross"
        )

    @pytest.mark.parametrize("digest, code, args", POINT_DIGESTS, ids=lambda v: v)
    def test_point_output_bytes(self, digest, code, args, capsys):
        # pinned so that no digit of a point row, a dumped covariance, a sweep
        # with unstable rows or the README trajectory, nor the exit of an
        # unstable dump, can move unnoticed
        assert cli.main(args.split()) == int(code)
        out, err = capsys.readouterr()
        written, silent = (out, err) if code == "0" else (err, out)
        assert silent == ""
        assert hashlib.sha256(written.encode()).hexdigest() == digest

    def test_point_digests_cover_the_readme_and_command_points(self):
        pinned = {args for _, _, args in POINT_DIGESTS}
        readme = [line.split("#")[0].split(None, 1)[1].strip()
                  for line in README.read_text().splitlines()
                  if line.startswith(("hopfield-gaussian point ", "hopfield-gaussian dynamics "))]
        assert any(args.startswith("dynamics ") for args in readme)
        for args in readme:
            assert args.replace("cov.txt", "-") in pinned
        for flags, _ in COMMAND_POINTS.values():
            point = " ".join(["point", *flags, "--temp", "0.25", "--state", "thermal"])
            assert {point, point + " --dump-cov -"} <= pinned
        codes = [code for _, code, args in POINT_DIGESTS if args.endswith("--dump-cov -")]
        assert "2" in codes
        # a point that fails fails alike with --dump-cov: one evaluation, one outcome
        outcomes = {args: (digest, code) for digest, code, args in POINT_DIGESTS}
        failing = [args for args, (_, code) in outcomes.items()
                   if args.startswith("point ") and code == "2" and "--dump-cov" not in args]
        assert failing
        for args in failing:
            assert outcomes.get(args + " --dump-cov -") == outcomes[args], args

    def test_dump_cov_file_evaluates_the_point_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        sector_modes = sweep._sector_modes

        def counted(*args):
            calls.append(args)
            return sector_modes(*args)

        monkeypatch.setattr(sweep, "_sector_modes", counted)
        path = tmp_path / "cov.txt"
        argv = ["point", "--lambda", "0.7", "--temp", "0.3", "--state", "thermal"]
        assert cli.main([*argv, "--dump-cov", str(path)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")
        assert path.read_text().startswith("basis: bare\n")

    def test_readme_python_blocks_run(self, capsys):
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
        assert blocks
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out

    def test_verify_single_check(self):
        proc = run_cli("verify", "--check", "1")
        assert "frequency-product-rule" in proc.stdout
        assert "1 passed, 0 failed" in proc.stdout


# (flags of diagonalize, point and dynamics, flags of a sweep near that point)
COMMAND_POINTS = {
    "hopfield": (["--lambda", "0.5"], ["--axis", "lambda:0.1:0.5:5"]),
    "general": (
        ["--lambda1", "0.4", "--lambda2", "0.2", "--diamag", "0.3"],
        ["--axis", "lambda:0.1:0.4:4", "--coupling", "mix-only", "--diamag", "0.3"],
    ),
    "degenerate": (["--lambda", "0"], ["--lambda", "0", "--axis", "wa:0.5:1:3"]),
}


class TestCommandPaths:
    @staticmethod
    def _forbid(monkeypatch, names):
        def oracle(*args, **kwargs):
            raise AssertionError("a command ran an oracle or built a 4x4 covariance")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "hopfield_gaussian":
                continue
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, oracle)

    @pytest.mark.parametrize("point", sorted(COMMAND_POINTS))
    def test_commands_run_no_oracle(self, point, monkeypatch, capsys):
        self._forbid(monkeypatch, oracles.__all__)
        flags, sweep_flags = COMMAND_POINTS[point]
        env = ["--temp", "0.25"]
        for argv in (
            ["diagonalize", *flags],
            ["dynamics", *flags, *env, "--t-final", "5", "--stride", "10"],
            ["point", *flags, *env, "--state", "thermal"],
            ["sweep", "--scenario", "custom", *sweep_flags, *env, "--state", "thermal"],
        ):
            assert cli.main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert out and err == "", argv

    def test_dump_cov_lays_out_the_sectors_once(self, monkeypatch, capsys):
        # the dump prints the sectors as they are: no 4x4 matrix type, no oracle
        assert {"CovarianceMatrix", "parse_covariance"} <= set(oracles.__all__)
        self._forbid(monkeypatch, oracles.__all__)
        laid_out = []
        sector_rows = states.sector_rows

        def counted(sectors):
            laid_out.append(sectors)
            return sector_rows(sectors)

        monkeypatch.setattr(cli, "sector_rows", counted)
        assert cli.main(["point", "--lambda", "0.5", "--dump-cov", "-"]) == 0
        assert capsys.readouterr().out.startswith("basis: bare\n")
        assert len(laid_out) == 1

    def test_dump_is_the_sector_state(self, capsys):
        # the squeeze-only point next to the edge whose dump the 4x4 oracle rejects:
        # its own route loses the uncertainty bound within rounding (omega_L =
        # 4.75e-17), while the sectors' symplectic eigenvalues are 1/2 by construction
        flags = ["--wa", "0.25", "--wb", "1.026166230971984", "--lambda1", "0",
                 "--lambda2", "0.5064993166263859", "--diamag", "0"]
        assert cli.main(["point", *flags, "--dump-cov", "-"]) == 0
        dumped = parse_covariance(capsys.readouterr().out).entries
        params = ModelParams(0.25, 1.026166230971984, 0.0, 0.5064993166263859, 0.0)
        row, sectors = evaluate_point(params, None, "ground")
        assert row.stable and sectors[2:4] == (0.5, 0.5)
        laid_out = np.array(states.sector_rows(sectors))
        assert np.array_equal(dumped.view(np.uint64), laid_out.view(np.uint64))  # bit for bit
        with pytest.raises(oracles.UnphysicalStateError, match="uncertainty bound"):
            oracles.matrix_report(oracles.CovarianceMatrix(dumped))


def config_flags() -> list:
    """(subcommand, dest, option) of each flag that a config file can set, for
    every subcommand whose parser defines it."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.dest, action.option_strings[0])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest in cli._CONFIG_FLAGS.values()
    ]


class TestEveryFlagIsRead:
    """A flag that a subcommand takes changes its output, or is refused
    with one error line, so a flag added without a reader fails here."""

    # a fixed base command of each subcommand, set to no coupling so that
    # either spelling of it can be added
    BASES = {
        "diagonalize": ["diagonalize", "--diamag", "0.3"],
        "point": ["point", "--diamag", "0.3", "--state", "thermal"],
        "sweep": ["sweep", "--scenario", "custom", "--axis", "wa:0.5:1:2", "--diamag", "0.3"],
        "dynamics": ["dynamics", "--diamag", "0.3", "--temp", "0.25", "--t-final", "2"],
    }
    # a second valid value of each flag, set on top of the base command
    VALUES = {"wa": "1.25", "wb": "0.75", "lam": "0.4", "lambda1": "0.3", "lambda2": "0.1",
              "diamag": "0.25", "temp": "0.5", "gamma_a": "0.05", "gamma_b": "0.05"}
    # the flags refused outright: sweep's driven couplings and its swept axis
    REFUSED = {("sweep", "lambda1"), ("sweep", "lambda2"), ("sweep", "wa")}

    def test_every_config_flag_has_a_value_and_a_base(self):
        assert set(self.VALUES) == set(cli._CONFIG_FLAGS.values())
        assert {command for command, _, _ in config_flags()} == set(self.BASES)

    @pytest.mark.parametrize("command, dest, option", config_flags(),
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_flag_changes_the_output_or_is_refused(self, command, dest, option, capsys):
        base = self.BASES[command]
        assert cli.main(base) == 0
        before = capsys.readouterr().out
        code = cli.main([*base, option, self.VALUES[dest]])
        out, err = capsys.readouterr()
        if (command, dest) in self.REFUSED:
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith(f"error: {command} does not take --") and option in err
        else:
            assert code == 0 and err == ""
            assert out != before


# runs one command and prints its exit code and the names of the loaded modules
_MODULE_PROBE = """
import contextlib, io, json, sys
from hopfield_gaussian import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_modules(*argv) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True, check=True
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


class TestRuntimeImports:
    """The package runs on numpy alone, single points never build the CSV
    writer's tables, no command imports ``fractions`` (the exact stability
    decision next to the edge takes plain integers), and only ``verify``
    loads ``oracles``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagonalize", "--lambda1", "0.4", "--lambda2", "0.2", "--diamag", "0.3"],
            ["point", "--lambda", "0.8", "--temp", "0.25", "--state", "thermal"],
            ["dynamics", "--lambda", "0.5", "--temp", "0.25", "--t-final", "5"],
            # every sweep block, even of two rows, takes the array CSV writer
            ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.5:2"],
            # det T = 0 exactly, and lambda = 0.5 on the edge: exact decisions
            pytest.param(["point", "--lambda1", "1", "--lambda2", "0", "--diamag",
                          "0.2551133598784275"], id="edge-point"),
            pytest.param(["sweep", "--scenario", "fig5", "--diamag", "zero"], id="edge-sweep"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_imports(self, argv):
        modules = loaded_modules(*argv)
        assert not {m.split(".")[0] for m in modules} & {"scipy", "sympy", "mpmath", "hypothesis"}
        assert "fractions" not in modules
        writer = "hopfield_gaussian.csvwriter" in modules
        assert writer == (argv[0] == "sweep")
        assert not modules & {"hopfield_gaussian.oracles", "hopfield_gaussian.verify"}

    def test_preset_sweep_takes_no_exact_decision(self, monkeypatch):
        # no fig6 point lies within rounding of the stability edge; the figure
        # script's fig5_no_diamag variant has lambda = 0.5 on it (edge-sweep)
        modules = loaded_modules("sweep", "--scenario", "fig6")
        assert "fractions" not in modules
        assert "hopfield_gaussian.csvwriter" in modules
        decided, exact = [], model._exact_determinants
        monkeypatch.setattr(model, "_exact_determinants", lambda *p: decided.append(p) or exact(*p))
        sweep_csv(resolve_scenario("fig6"))
        assert decided == []
        fig5 = resolve_scenario("fig5")
        sweep_csv(SweepSpec("fig5", fig5.axes, fig5.fixed, diamag_mode="zero", state="thermal"))
        assert decided == [(1.0, 1.0, 0.5, 0.5, 0.0)]

    def test_verify_loads_the_oracles(self):
        assert "hopfield_gaussian.oracles" in loaded_modules("verify", "--check", "7")


# imports the benchmark's span table in a process of its own, whose sys.path
# alone holds the benchmark's modules, and prints each target it cannot find,
# whether ``oracles`` was loaded then, and the targets that no module defines
# but that resolve on access, with what they resolve to
_SPAN_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
loaded = "hopfield_gaussian.oracles" in sys.modules
missing, lazy = [], {}
for owner, attr, *_ in spans.TARGETS:
    if not hasattr(owner, attr):
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    elif attr not in vars(owner):
        fn = getattr(owner, attr)
        lazy[f"{owner.__name__}.{attr}"] = f"{fn.__module__}.{fn.__name__}"
print(json.dumps([missing, loaded, lazy]))
"""


def test_every_benchmark_span_target_resolves():
    # the traced benchmark wraps each (owner, attribute) of perfbench/spans.py
    # by name, so a renamed or moved package function must fail here first
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c", _SPAN_PROBE, str(bench)], capture_output=True, text=True, check=True
    )
    missing, loaded, lazy = json.loads(proc.stdout)
    assert missing == []
    # two covariance spans, which no command calls, resolve on sweep only when
    # accessed, both to the 4x4 oracle route: importing loads no oracle
    assert not loaded
    assert len(lazy) == 2 and all(name.startswith("hopfield_gaussian.sweep.") for name in lazy)
    assert set(lazy.values()) == {"hopfield_gaussian.oracles.steady_state_covariance"}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_stage'"):
        sweep.no_such_stage


def test_every_exported_name_resolves():
    # TestCommandPaths patches the names it forbids where hasattr finds them,
    # so a stale name in an __all__ would pass it silently
    package = Path(cli.__file__).parent
    names = sorted(m.name for m in pkgutil.iter_modules([str(package)]) if m.name != "__main__")
    modules = [importlib.import_module(f"hopfield_gaussian.{name}") for name in names]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 9
    stale = {m.__name__: [n for n in m.__all__ if not hasattr(m, n)] for m in exported}
    assert stale == dict.fromkeys(stale, [])
