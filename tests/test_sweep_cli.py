import dataclasses
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopfield_gaussian import cli
from hopfield_gaussian.dynamics import resonant_balance_frequency
from hopfield_gaussian.measures import SteeringClass
from hopfield_gaussian.model import hopfield, no_a2
from hopfield_gaussian.scenarios import (
    SCENARIOS,
    Axis,
    SweepSpec,
    resolve_scenario,
)
from hopfield_gaussian.states import Environment, parse_covariance
from hopfield_gaussian.sweep import (
    CSV_HEADER,
    run_point,
    run_sweep,
    spec_to_params,
    sweep_csv,
)


# `sha256sum` lines of every figure CSV
FIGURE_DIGESTS = (Path(__file__).parent / "figure_data.sha256").read_text().splitlines()


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

    def test_unknown_state_kind_rejected(self):
        with pytest.raises(ValueError, match="state_kind"):
            run_point(hopfield(1, 1, 0.5), Environment(0.25), "squeezed")


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
        rows = run_sweep(spec)
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
        rows = run_sweep(spec, Environment(0.25))
        assert len(rows) == len(fig5.axes[0].values)
        stable_flags = [r.rsplit(",", 1)[1] for r in rows]
        assert "false" in stable_flags and "true" in stable_flags
        # stability boundary for the resonant no-diamagnetic model is 0.5
        for row in rows:
            lam = float(row.split(",", 1)[0])
            assert (row.endswith("true")) == (lam < 0.5)

    def test_figure_script_renders_each_distinct_grid_once(self, tmp_path, monkeypatch):
        script = load_script("make_figure_data")
        rendered = []

        def stub_sweep(spec):
            rendered.append(spec.scenario)
            return repr(dataclasses.replace(spec, scenario="", description=""))

        monkeypatch.setattr(script, "sweep_csv", stub_sweep)
        monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out", str(tmp_path)])
        script.main()
        names = sorted([*SCENARIOS, "fig5_no_diamag"])
        assert sorted(p.stem for p in tmp_path.iterdir()) == names
        # fig2b repeats fig2a's grid and fig4 fig3a's; fig5_no_diamag keeps
        # the scenario name fig5
        assert len(rendered) == len(names) - 2
        assert "fig2b" not in rendered and "fig4" not in rendered
        for copy, source in (("fig2b", "fig2a"), ("fig4", "fig3a")):
            text = (tmp_path / f"{copy}.csv").read_text()
            assert text == (tmp_path / f"{source}.csv").read_text()

    def test_relaxation_demo_reaches_the_closed_form(self, monkeypatch, capsys):
        script = load_script("relaxation_demo")
        monkeypatch.setattr(sys, "argv", ["relaxation_demo.py"])
        script.main()
        lines = capsys.readouterr().out.splitlines()
        relaxed, reference = lines[-2], lines[-1]
        assert relaxed.startswith("max |relaxed - closed| = ")
        assert reference.startswith("(two-route reference ")
        assert float(relaxed.split("=")[1]) < 1e-12
        assert float(reference.split()[-1].rstrip(")")) < 1e-12

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

    def test_fig6_steering_direction_flips_at_balance_frequency(self):
        spec = resolve_scenario("fig6")
        balance = resonant_balance_frequency(0.25, 1.0)  # 0.8828
        rows = [r.split(",") for r in run_sweep(spec, Environment(0.2))]
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
        rows = [r.split(",") for r in run_sweep(resolve_scenario("fig8"), Environment(0.25))]
        classes = {c[14] for c in rows}
        assert classes == {"no-way", "one-way-b-to-a"}
        for cells in rows:
            if cells[14] == "one-way-b-to-a":
                mu_a, mu_b, mu_ab = (float(cells[k]) for k in (9, 10, 11))
                assert mu_b < mu_ab < mu_a

    def test_mix_only_sweep_stays_vacuum(self):
        rows = [r.split(",") for r in run_sweep(resolve_scenario("fig2d"))]
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
        ],
    )
    def test_bad_input_rejected_up_front(self, argv, message, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_point_next_to_the_edge_is_a_stable_row(self, capsys):
        # within one rounding of lambda_C = 1/2, the same row as the sweep
        # kernel's; test_grid pins its cells to 50-digit mpmath
        lam, temp = "0.49999999999999994", "0.7720568085913025"
        argv = ["point", "--lambda", lam, "--diamag", "zero", "--temp", temp,
                "--state", "thermal"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        spec = SweepSpec("custom", (Axis("lambda", (0.3, float(lam))),),
                         {"wa": 1.0, "wb": 1.0, "T": float(temp)}, diamag_mode="zero",
                         state="thermal")
        assert out.splitlines()[1] == run_sweep(spec)[1]
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

    def test_dynamics_readme_example_bytes(self, capsys):
        # sha256 of the output of the README example, pinned so that no digit
        # of the trajectory can move unnoticed
        argv = ["dynamics", "--lambda", "0.5", "--temp", "0.25", "--t-final", "200",
                "--stride", "50"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 132
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bb546fceabe39a6b00cbea2a692fca26dda6cdf43f175ee6f0ab6308487f4475"
        )

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
    @pytest.mark.parametrize("point", sorted(COMMAND_POINTS))
    def test_commands_run_no_oracle(self, point, monkeypatch, capsys):
        def oracle(*args, **kwargs):
            raise AssertionError("a command ran an oracle")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "hopfield_gaussian":
                continue
            for attr in ("hopfield_basis", "bogoliubov_diagonalize", "build_dynamical_matrix"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, oracle)
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
    writer's tables, and ordinary points never import ``fractions``, which
    only the exact stability decision next to the edge needs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagonalize", "--lambda1", "0.4", "--lambda2", "0.2", "--diamag", "0.3"],
            ["point", "--lambda", "0.8", "--temp", "0.25", "--state", "thermal"],
            ["dynamics", "--lambda", "0.5", "--temp", "0.25", "--t-final", "5"],
            # enough rows for the array CSV writer
            ["sweep", "--scenario", "custom", "--axis", "lambda:0.1:0.5:200"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_imports(self, argv):
        modules = loaded_modules(*argv)
        assert not {m.split(".")[0] for m in modules} & {"scipy", "sympy", "mpmath", "hypothesis"}
        assert "fractions" not in modules
        writer = "hopfield_gaussian.csvwriter" in modules
        assert writer == (argv[0] == "sweep")

    def test_edge_point_takes_the_exact_decision(self):
        # det T = 0 exactly: the probe sees the import that ordinary points skip
        argv = ["point", "--lambda1", "1", "--lambda2", "0", "--diamag", "0.2551133598784275"]
        assert "fractions" in loaded_modules(*argv)
