import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lfsim.cli import main
from lfsim.config import (ExperimentKind, ParseError, ValidationError,
                          parse_config)
from lfsim.integrate import Stepper
from lfsim.model import StateKind
from lfsim.spectral import read_snapshot

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")

MINIMAL = """
experiment = dispersion

[params]
alpha = 0.1
gamma0 = -1.0
"""


class TestParser:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment is ExperimentKind.DISPERSION
        assert cfg.n_per_axis == 64
        assert cfg.box_length == pytest.approx(20.0 * math.pi)
        assert cfg.solver.dt == 1e-3
        assert cfg.amplitude == 1e-4
        assert cfg.params.beta == 1.0 and cfg.params.gamma2 == 1.0
        assert cfg.state_kind is StateKind.DISORDERED
        assert np.allclose(cfg.direction, [1.0, 0.0])

    def test_dotted_keys_equal_sections(self):
        a = parse_config(MINIMAL + "\n[solver]\ndt = 2e-3\n")
        b = parse_config(MINIMAL + "\nsolver.dt = 2e-3\n")
        assert a.solver.dt == b.solver.dt == 2e-3

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top\nexperiment = dispersion  # trailing\n\n"
                           "params.alpha = 0.1\nparams.gamma0 = -1 # x\n")
        assert cfg.params.gamma0 == -1.0

    def test_unknown_key_is_parse_error_with_line(self):
        bad = MINIMAL + "gamma3 = 1.0\n"
        with pytest.raises(ParseError, match="gamma3"):
            parse_config(bad)
        try:
            parse_config(bad)
        except ParseError as exc:
            assert exc.line == bad.splitlines().index("gamma3 = 1.0") + 1

    def test_negative_beta_is_validation_error(self):
        with pytest.raises(ValidationError, match="beta must be > 0"):
            parse_config(MINIMAL + "params.beta = -1\n")

    def test_missing_required(self):
        with pytest.raises(ValidationError, match="params.alpha"):
            parse_config("experiment = dispersion\nparams.gamma0 = -1\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(MINIMAL + "params.alpha = 0.2\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config("experiment dispersion\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="bad value"):
            parse_config(MINIMAL + "solver.dt = fast\n")

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            parse_config("experiment = warp\nparams.alpha = 0\nparams.gamma0 = 0\n")

    def test_tracked_wavevectors(self):
        cfg = parse_config(MINIMAL +
                           "perturbation.tracked_wavevectors = 0.5,0 0.5,0.5\n")
        assert cfg.tracked_wavevectors == [(0.5, 0.0), (0.5, 0.5)]

    def test_off_lattice_tracked_rejected(self):
        with pytest.raises(ValidationError, match="lattice"):
            parse_config(MINIMAL +
                         "perturbation.tracked_wavevectors = 0.51,0\n")

    def test_ordered_experiment_requires_negative_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            parse_config("experiment = ordered_contractivity\n"
                         "params.alpha = 0.1\nparams.gamma0 = 1\n")

    def test_ordered_experiment_rejects_disordered_state(self):
        with pytest.raises(ValidationError, match="ordered"):
            parse_config("experiment = ordered_instability\n"
                         "params.alpha = -1\nparams.gamma0 = -0.5\n"
                         "state.kind = disordered\n")

    def test_direction_normalized(self):
        cfg = parse_config("experiment = ordered_instability\n"
                           "params.alpha = -1\nparams.gamma0 = -0.5\n"
                           "state.direction = 3,4\n")
        assert np.allclose(cfg.direction, [0.6, 0.8])

    def test_overrides(self):
        cfg = parse_config(MINIMAL, {"solver.dt": "5e-3", "grid.n_per_axis": "32"})
        assert cfg.solver.dt == 5e-3 and cfg.n_per_axis == 32
        with pytest.raises(ParseError, match="override"):
            parse_config(MINIMAL, {"nope": "1"})

    def test_default_t_end_per_experiment(self):
        assert parse_config(MINIMAL).solver.t_end == 5.0
        cfg = parse_config("experiment = free_run\nparams.alpha = 0.1\n"
                           "params.gamma0 = -1\n")
        assert cfg.solver.t_end == 10.0


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


QUICK_DISPERSION = """
experiment = dispersion
params.alpha = 0.1
params.gamma0 = -1.0
grid.n_per_axis = 32
solver.dt = 2e-3
solver.t_end = 2.0
solver.diagnostics_interval = 0.02
"""


class TestCli:
    def test_classify_json_line(self, capsys):
        code = main(["classify", "--gamma0", "-1", "--alpha", "0.1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["classification"] == "exponentially_unstable"
        assert out["max_growth_rate"] == pytest.approx(0.15)
        assert out["band"]["s_plus_sq"] == pytest.approx(0.8872983346207417)

    def test_classify_ordered(self, capsys):
        code = main(["classify", "--gamma0", "1", "--alpha", "-1", "--ordered"])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["classification"] == "asymptotically_stable"
        assert out["note"]

    def test_classify_rejects_bad_params(self, capsys):
        assert main(["classify", "--gamma0", "1", "--alpha", "1",
                     "--beta", "-1"]) == 3

    def test_dispersion_table(self, capsys):
        code = main(["dispersion", "--gamma0", "-1", "--alpha", "0.1",
                     "--modes", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5 and "predicted" in lines[0]

    def test_dispersion_measure_rejects_off_cadence(self, capsys):
        code = main(["dispersion", "--gamma0", "-1", "--alpha", "0.1",
                     "--measure", "--dt", "0.3", "--t-end", "1.0"])
        assert code == 3
        assert "not a multiple" in capsys.readouterr().err

    def test_run_pass_and_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_DISPERSION)
        out = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "RESULT dispersion: PASS" in printed
        for name in ("diagnostics.csv", "rates.csv", "report.csv"):
            assert os.path.exists(os.path.join(out, "dispersion", name))

    def test_run_check_failure_exit_code(self, tmp_path, capsys):
        # the energy identity integrated with trapezoids on a coarse
        # cadence misses its 1e-6 tolerance (residual ~6e-3): exit 1
        cfg = write_cfg(tmp_path, """
experiment = ordered_contractivity
params.alpha = -1.0
params.gamma0 = 1.0
grid.n_per_axis = 32
solver.dt = 0.1
solver.t_end = 2.0
solver.diagnostics_interval = 0.1
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_stiff_zeroth_order_term_does_not_limit_dt(self, tmp_path,
                                                       capsys):
        # alpha = 4 at dt = 0.2 degraded the measured rates past 1e-3 while
        # M was explicit; in the integrating factor the rates are exact
        cfg = write_cfg(tmp_path, """
experiment = dispersion
params.alpha = 4.0
params.gamma0 = -1.0
grid.n_per_axis = 32
solver.dt = 0.2
solver.t_end = 4.0
solver.diagnostics_interval = 0.2
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        worst = float(out.split("max_rate_rel_error: value=")[1].split()[0])
        assert worst <= 1e-9

    def test_run_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_DISPERSION + "params.beta = -2\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "beta" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.cfg")]) == 3

    @pytest.mark.parametrize("how", ["file", "override"])
    def test_scheme_key_is_rejected_before_any_work(self, tmp_path, capsys,
                                                    how):
        # ETDRK4 is the only integrator; naming one is an unknown key
        text = QUICK_DISPERSION + ("solver.scheme = etdrk4\n"
                                   if how == "file" else "")
        args = ["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]
        if how == "override":
            args += ["--override", "solver.scheme=etdrk4"]
        assert main(args) == 3
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,tracked,named,overrides", [
        # the unpaired m = n/2 slot (|k| = 0.8 at n = 16), on either axis
        ("disordered_instability", "0.8,0 0.5,0", "(0.8, 0.0)", []),
        ("free_run", "0.5,-0.8", "(0.5, -0.8)", []),
        ("nonlinear_decay", "0.1,0,-0.8", "(0.1, 0.0, -0.8)",
         ["params.dim=3"]),
        # k = 0 in the experiments that seed their tracked modes
        ("dispersion", "0,0", "(0.0, 0.0)", []),
        ("disordered_instability", "0,0", "(0.0, 0.0)", ["params.alpha=-0.1"]),
        ("ordered_instability", "0.5,0 0,0", "(0.0, 0.0)", []),
    ])
    def test_untrackable_wavevector_rejected_before_any_work(
            self, tmp_path, capsys, experiment, tracked, named, overrides):
        # a Nyquist slot stays zero through a run, and k = 0 has no
        # polarization to seed: both are rejected before the output exists
        out = tmp_path / "o"
        args = ["run", os.path.join(CONFIGS, f"{experiment}.cfg"),
                "--out", str(out),
                "--override", f"perturbation.tracked_wavevectors={tracked}",
                "--override", "grid.n_per_axis=16"]
        for item in overrides:
            args += ["--override", item]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 3
        assert not caught, [str(w.message) for w in caught]
        assert f"tracked wavevector {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n,modes", [(12, 5), (16, 6)])
    def test_default_dispersion_modes_stay_off_the_nyquist_slot(
            self, tmp_path, capsys, n, modes):
        # without tracked wavevectors the run seeds m = 1..6 on the first
        # axis, capped at n/2 - 1: at n = 12 it used to track the m = 6
        # Nyquist slot, which stays zero, and exit 3 after the whole run
        out = tmp_path / "o"
        assert main(["run", os.path.join(CONFIGS, "dispersion.cfg"),
                     "--out", str(out),
                     "--override", "perturbation.tracked_wavevectors=",
                     "--override", f"grid.n_per_axis={n}"]) == 0
        with open(out / "dispersion" / "rates.csv") as fh:
            rows = list(csv.DictReader(fh))
        dk = 2.0 * np.pi / (20.0 * np.pi)
        assert [float(r["ksq"]) for r in rows] == pytest.approx(
            [(m * dk) ** 2 for m in range(1, modes + 1)])

    def test_run_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK_DISPERSION)
        assert main(["run", cfg, "--out", str(tmp_path / "o"),
                     "--override", "solver.t_end=1.0"]) == 0

    def test_determinism_identical_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK_DISPERSION)
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["run", cfg, "--out", out]) == 0
            with open(os.path.join(out, "dispersion", "diagnostics.csv"),
                      "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_phase_diagram_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
experiment = phase_diagram
params.alpha = 0.1
params.gamma0 = -1.0
phase.resolution = 9
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        path = os.path.join(str(tmp_path / "o"), "phase_diagram",
                            "phase_disordered.csv")
        assert sum(1 for _ in open(path)) == 1 + 81

    @pytest.mark.parametrize("overrides", [
        ["solver.t_end=1.0", "solver.diagnostics_interval=0.03"],
        ["solver.dt=0.3", "solver.t_end=1.0"]])
    def test_off_cadence_rejected_before_stepping(self, tmp_path, capsys,
                                                  monkeypatch, overrides):
        def no_stepper(*args, **kwargs):
            raise AssertionError("a Stepper was built")

        monkeypatch.setattr(Stepper, "__init__", no_stepper)
        args = ["run", os.path.join(CONFIGS, "nonlinear_decay.cfg"),
                "--out", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 3
        assert "not a multiple" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreachable_fit_window_rejected_before_stepping(
            self, tmp_path, capsys, monkeypatch):
        # sigma = 0.0625 reaches 2 a0 at ln 2 / sigma = 11.09, plus 9
        # samples at 0.05
        def no_stepper(*args, **kwargs):
            raise AssertionError("a Stepper was built")

        monkeypatch.setattr(Stepper, "__init__", no_stepper)
        out = tmp_path / "o"
        assert main(["run", os.path.join(CONFIGS, "ordered_instability.cfg"),
                     "--out", str(out), "--override", "solver.t_end=0.5"]) == 3
        assert "needs t_end >= 11.54" in capsys.readouterr().err
        assert not out.exists()

    def test_contractivity_with_negative_gamma0_rejected_before_stepping(
            self, tmp_path, capsys, monkeypatch):
        def no_stepper(*args, **kwargs):
            raise AssertionError("a Stepper was built")

        monkeypatch.setattr(Stepper, "__init__", no_stepper)
        out = tmp_path / "o"
        assert main(["run", os.path.join(CONFIGS, "ordered_contractivity.cfg"),
                     "--out", str(out), "--override", "params.gamma0=-1"]) == 3
        assert "contractivity requires gamma0 >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ordered_instability.cfg",
                                      "disordered_instability.cfg"])
    def test_shipped_instability_configs_reach_the_run(self, tmp_path,
                                                        monkeypatch, name):
        import lfsim.experiments as ex

        class Reached(Exception):
            pass

        def stop(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(ex, "run", stop)
        with pytest.raises(Reached):
            main(["run", os.path.join(CONFIGS, name),
                  "--out", str(tmp_path / "o")])

    def test_window_missed_after_run_writes_diagnostics(self, tmp_path, capsys,
                                                        monkeypatch):
        # an overstated rate passes the pre-check; the run then misses the
        # window and must leave its diagnostics behind
        import lfsim.experiments as ex
        monkeypatch.setattr(ex, "growth_rate", lambda system, k: 100.0)
        cfg = write_cfg(tmp_path, """
experiment = disordered_instability
params.alpha = 0.1
params.gamma0 = -1.0
grid.n_per_axis = 16
solver.dt = 0.01
solver.t_end = 0.2
solver.diagnostics_interval = 0.01
""")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert "no usable linear-regime window" in capsys.readouterr().err
        path = out / "disordered_instability" / "diagnostics.csv"
        assert sum(1 for _ in open(path)) == 1 + 21

    @pytest.mark.parametrize("name,t_end,needed", [
        ("nonlinear_decay.cfg", "0.03", "the energy residual needs at least 5"),
        ("dispersion.cfg", "0.05", "a growth fit needs at least 10")])
    def test_too_few_samples_rejected_before_stepping(
            self, tmp_path, capsys, monkeypatch, name, t_end, needed):
        def no_stepper(*args, **kwargs):
            raise AssertionError("a Stepper was built")

        monkeypatch.setattr(Stepper, "__init__", no_stepper)
        out = tmp_path / "o"
        assert main(["run", os.path.join(CONFIGS, name), "--out", str(out),
                     "--override", f"solver.t_end={t_end}",
                     "--override", "solver.diagnostics_interval=0.01"]) == 3
        assert needed in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,overrides,message", [
        # the decay certificate is a rest-state statement
        ("nonlinear_decay.cfg",
         ["state.kind=ordered", "params.alpha=-0.5", "grid.n_per_axis=16",
          "solver.t_end=0.1"], "applies to rest-state runs"),
        # at dk = 1 the default modes decay like exp(-Gamma2 |k|^4 t), and
        # the squared amplitude of |k| >= 3 underflows before t_end = 5
        ("dispersion.cfg",
         ["grid.box_length=6.283185307179586", "grid.n_per_axis=16",
          "perturbation.tracked_wavevectors="], "would underflow"),
        # a trapezoid over samples 2.0 apart misses the identity's 1e-6
        ("ordered_contractivity.cfg", ["solver.diagnostics_interval=2.0"],
         "needs a sample at every step"),
        # the boundary check assumes increasing alpha, and the classifier
        # rejected a non-finite range only after the output directory
        # existed; an inverted gamma0 range used to pass
        ("phase_diagram.cfg", ["phase.alpha_min=nan"],
         "phase.alpha_min <= phase.alpha_max must hold, both finite"),
        ("phase_diagram.cfg", ["phase.gamma0_max=inf"],
         "phase.gamma0_min <= phase.gamma0_max must hold, both finite"),
        ("phase_diagram.cfg", ["phase.resolution=2", "phase.alpha_min=1",
                               "phase.alpha_max=-1"], "[1.0, -1.0]"),
        ("phase_diagram.cfg", ["phase.gamma0_min=2", "phase.gamma0_max=-2"],
         "[2.0, -2.0]"),
        # inf passed the > 0 check, and the run then failed as "initial
        # data is not solenoidal" with an empty output directory behind
        ("free_run.cfg", ["perturbation.amplitude=inf"],
         "perturbation.amplitude must be finite and > 0, got inf"),
        # a nan component made a nan direction, rejected as "M must be
        # symmetric"
        ("free_run.cfg", ["state.kind=ordered", "params.alpha=-0.5",
                          "state.direction=1,nan"],
         "state.direction must have a finite nonzero norm"),
        # a nan wavevector passed the lattice check and failed the run in
        # an integer cast, or read as k = 0 where the seeding checks it
        ("free_run.cfg", ["perturbation.tracked_wavevectors=nan,0",
                          "solver.t_end=0.1"],
         "perturbation.tracked_wavevectors: wavevector [nan  0.] is not "
         "finite"),
        ("disordered_instability.cfg",
         ["perturbation.tracked_wavevectors=nan,0"],
         "perturbation.tracked_wavevectors: wavevector [nan  0.] is not "
         "finite")])
    def test_run_that_cannot_pass_rejected_before_stepping(
            self, tmp_path, capsys, monkeypatch, name, overrides, message):
        def no_step(*args, **kwargs):
            raise AssertionError("Stepper.step was called")

        monkeypatch.setattr(Stepper, "step", no_step)
        out = tmp_path / "o"
        argv = ["run", os.path.join(CONFIGS, name), "--out", str(out)]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dispersion_measure_too_few_samples_rejected_before_stepping(
            self, capsys, monkeypatch):
        def no_stepper(*args, **kwargs):
            raise AssertionError("a Stepper was built")

        monkeypatch.setattr(Stepper, "__init__", no_stepper)
        code = main(["dispersion", "--gamma0", "-1", "--alpha", "0.1",
                     "--measure", "--t-end", "0.05", "--dt", "0.01"])
        assert code == 3
        assert "gives 2 samples" in capsys.readouterr().err

    def test_exactly_five_samples_still_run(self, tmp_path, capsys):
        assert main(["run", os.path.join(CONFIGS, "nonlinear_decay.cfg"),
                     "--out", str(tmp_path / "o"),
                     "--override", "solver.t_end=0.04",
                     "--override", "solver.diagnostics_interval=0.01"]) == 0
        path = tmp_path / "o" / "nonlinear_decay" / "diagnostics.csv"
        assert sum(1 for _ in open(path)) == 1 + 5

    def test_snapshot_interval_writes_snapshots(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", os.path.join(CONFIGS, "nonlinear_decay.cfg"),
                     "--out", str(out),
                     "--override", "solver.t_end=0.04",
                     "--override", "solver.diagnostics_interval=0.01",
                     "--override", "solver.snapshot_interval=0.02"]) == 0
        names = ["snap_00000.000000.lfsnap", "snap_00000.020000.lfsnap",
                 "snap_00000.040000.lfsnap"]
        snaps = sorted(f for f in os.listdir(out / "nonlinear_decay")
                       if f.endswith(".lfsnap"))
        assert snaps == names
        stdout = capsys.readouterr().out
        assert all(f"WROTE {name}:" in stdout for name in names)
        physical, meta = read_snapshot(out / "nonlinear_decay" / names[1])
        assert float(meta["t"]) == 0.02 and physical.shape == (2, 64, 64)

    @pytest.mark.parametrize("amplitude,t_blow", [("10", 0.5), ("1", 1.0)],
                             ids=["amplitude10", "amplitude1"])
    def test_blow_up_writes_the_samples_taken_before_it(self, tmp_path,
                                                          capsys, amplitude,
                                                          t_blow):
        # at amplitude 10 the state at t = 0.5 is finite but its L4 norm
        # overflows; at amplitude 1 the step to t = 1 overflows
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", os.path.join(CONFIGS, "free_run.cfg"),
                         "--out", str(out),
                         "--override", "solver.dt=0.5",
                         "--override", "solver.t_end=50",
                         "--override", "solver.diagnostics_interval=0.5",
                         "--override", f"perturbation.amplitude={amplitude}"])
        assert code == 2
        messages = [str(w.message) for w in caught]
        assert any("dt * max linear growth" in m for m in messages)
        assert not [m for m in messages
                    if "overflow" in m or "invalid value" in m], messages
        err = capsys.readouterr().err
        assert float(err.split("lost finiteness at t=")[1].split(";")[0]) \
            == t_blow
        path = out / "free_run" / "diagnostics.csv"
        assert str(path) in err
        with open(path) as fh:
            header, *rows = list(csv.reader(fh))
        times = [float(row[0]) for row in rows]
        # one sample every 0.5 from t = 0 up to the last finite sample
        assert times == [0.5 * i for i in range(round(t_blow / 0.5))]
        measured = [i for i, name in enumerate(header)
                    if name != "energy_residual"]
        assert all(math.isfinite(float(row[i]))
                   for row in rows for i in measured)
        # the default snapshot cadence is every 20 steps: only t = 0 is due
        assert [f for f in os.listdir(out / "free_run")
                if f.endswith(".lfsnap")] == ["snap_00000.000000.lfsnap"]

    def test_free_run_default_snapshots_on_step_cadence(self, tmp_path):
        # 12 steps: t_end / 5 is no whole number of steps, so the default
        # snapshot interval is rounded to 2 steps
        cfg = write_cfg(tmp_path, """
experiment = free_run
params.alpha = 0.1
params.gamma0 = 1.0
grid.n_per_axis = 16
solver.dt = 0.01
solver.t_end = 0.12
solver.diagnostics_interval = 0.02
""")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        snaps = [f for f in os.listdir(tmp_path / "o" / "free_run")
                 if f.endswith(".lfsnap")]
        assert len(snaps) == 7

    def test_small_box_warns_about_band_coverage(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
experiment = dispersion
params.alpha = 0.1
params.gamma0 = -1.0
grid.n_per_axis = 16
grid.box_length = 6.0
solver.dt = 2e-3
solver.t_end = 1.0
solver.diagnostics_interval = 0.02
perturbation.tracked_wavevectors = 1.0471975511965976,0
""")
        main(["run", cfg, "--out", str(tmp_path / "o")])
        assert "unstable band" in capsys.readouterr().err

    def test_entry_point_subprocess(self):
        # the installed console script path
        proc = subprocess.run(
            [sys.executable, "-m", "lfsim.cli", "classify",
             "--gamma0", "-1", "--alpha", "0.3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "exponentially_stable"
