"""The run contract, property-tested: every config the parser accepts either
runs to completion with its outputs written, or is rejected before any work
starts.

Each drawn config sets keys of `config._KEYS` to text that the key's parser
reads, on small grids (n in {8, 12, 16}) and short runs (at most 100
steps).  `lf run` runs in process, and its exit code says what must be on
disk:

- 3, a config error: no output directory, and no `Stepper.step` taken;
- 0 or 1, the checks passed or failed: every file of a WROTE line,
  `report.csv` included;
- 2, a blow-up: `diagnostics.csv`.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lfsim import config
from lfsim.cli import main
from lfsim.config import ExperimentKind
from lfsim.integrate import Stepper

LENGTHS = (2.0 * math.pi, 8.0 * math.pi, 20.0 * math.pi)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


def _vectors(dim: int, lo: int, hi: int, scale: float = 1.0):
    return st.lists(st.integers(lo, hi), min_size=dim, max_size=dim).map(
        lambda m: ",".join("%.17g" % (c * scale) for c in m))


@st.composite
def configs(draw) -> dict[str, str]:
    """Key -> value text; the run is at most 100 steps long."""
    dim = draw(st.sampled_from([2, 3]))
    length = draw(st.sampled_from(LENGTHS))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    every = draw(st.integers(1, 10))   # steps between samples
    samples = draw(st.integers(min(10, 100 // every), 100 // every))

    values = {
        "experiment": st.sampled_from([k.value for k in ExperimentKind]),
        "params.alpha": _floats(-1.5, 1.5),
        "params.gamma0": _floats(-2.0, 2.0),
        "params.dim": st.just(str(dim)),
        "grid.n_per_axis": st.sampled_from(["8", "12", "16"]),
        "solver.dt": st.just(repr(dt)),
        "solver.t_end": st.just("%.10g" % (samples * every * dt)),
        "solver.diagnostics_interval": st.just("%.10g" % (every * dt)),
    }
    optional = {
        "output_dir": st.just("lf_out"),   # --out takes its place
        "params.lambda0": _floats(-2.0, 3.0),
        "params.lambda1": _floats(-1.0, 1.0),
        "params.beta": _floats(0.1, 2.0),
        "params.gamma2": _floats(0.1, 2.0),
        "state.kind": st.sampled_from(["disordered", "ordered"]),
        "state.direction": _vectors(dim, -2, 2),
        "grid.box_length": st.just(repr(length)),
        "solver.snapshot_interval": st.integers(1, 50).map(
            lambda k: "%.10g" % (k * dt)),
        "solver.seed": st.integers(0, 3).map(str),
        "perturbation.amplitude": st.sampled_from(
            ["1e-4", "0.01", "0.3", "1", "5"]),
        "perturbation.spectrum_scale": st.sampled_from(["0.5", "1", "2"]),
        "perturbation.tracked_wavevectors": st.lists(
            _vectors(dim, -3, 3, 2.0 * math.pi / length), max_size=3).map(
                " ".join),
        "phase.gamma0_min": _floats(-2.0, 0.0),
        "phase.gamma0_max": _floats(0.0, 2.0),
        "phase.alpha_min": _floats(-2.0, 0.0),
        "phase.alpha_max": _floats(0.0, 2.0),
        "phase.resolution": st.integers(2, 5).map(str),
    }
    assert set(values) | set(optional) == set(config._KEYS)
    drawn = draw(st.fixed_dictionaries(values, optional=optional))
    for key, text in drawn.items():
        config._KEYS[key][0](text)   # the text each key's parser reads
    return drawn


# the missed fit window: the tracked mode starts near saturation and never
# grows through [2, 10] x a0; it used to exit 3 after the whole run
@example(values={
    "experiment": "disordered_instability", "params.alpha": "0.1",
    "params.gamma0": "-1.0", "grid.n_per_axis": "16", "solver.dt": "0.1",
    "solver.t_end": "6", "solver.diagnostics_interval": "0.1",
    "perturbation.amplitude": "0.1"})
# a subnormal gamma0 whose square underflows divided by zero in the
# unstable band's discriminant: a traceback, exit 1 and no report
@example(values={
    "experiment": "dispersion", "params.alpha": "0.0",
    "params.gamma0": "-2.2250738585e-313", "grid.n_per_axis": "16",
    "solver.dt": "0.01", "solver.t_end": "0.1",
    "solver.diagnostics_interval": "0.01"})
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(values=configs())
def test_a_run_completes_or_is_rejected_before_any_work(values):
    steps = []
    step = Stepper.step

    def counted(self, *args, **kwargs):
        steps.append(1)
        return step(self, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.writelines(f"{key} = {text}\n" for key, text in values.items())
        stdout = io.StringIO()
        with mock.patch.object(Stepper, "step", counted), \
                warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            warnings.simplefilter("ignore")
            code = main(["run", path, "--out", out])
        wrote = [line.split(": ", 1) for line in stdout.getvalue().splitlines()
                 if line.startswith("WROTE ")]
        event(f"exit {code} {values['experiment']}")
        if code == 3:
            assert not os.path.exists(out), stderr.getvalue()
            assert not steps, stderr.getvalue()
        elif code in (0, 1):
            assert "WROTE report" in dict(wrote)
            assert all(os.path.isfile(file) for _, file in wrote)
        else:
            assert code == 2, stderr.getvalue()
            assert os.path.isfile(os.path.join(
                out, values["experiment"], "diagnostics.csv"))
