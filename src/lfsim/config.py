"""Experiment configuration: a strict line-oriented key=value format.

Syntax: `key = value` lines, `[section]` headers prefixing subsequent keys,
`#` comments, blank lines ignored.  Keys may also be written fully dotted
(`solver.dt = 1e-3`) outside any section.  Unknown keys are hard parse
errors; invariant violations (beta <= 0, tracked wavevectors off the
lattice or on a Nyquist slot, ...) are validation errors.

Vectors are comma-separated components; lists of vectors are
whitespace-separated: `tracked_wavevectors = 0.5,0 0.7,0`.

`_KEYS` is the single source of truth: every key, its parser and its
default (2D, n=64, L=20*pi, dt=1e-3, perturbation amplitude 1e-4, spectrum
scale 0.5, seed 12345, lambda0=1, lambda1=0, beta=1, gamma2=1).  Some
defaults depend on the experiment: t_end (`_DEFAULT_T_END`), diagnostics
every step for `ordered_contractivity`, and about five snapshots per run
for `free_run` (no snapshots otherwise).  `parse_config` resolves them and
builds the grid and the system the run uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .model import (ModelParams, StateKind, TransformedSystem,
                    make_disordered_system, make_ordered_system)
from .integrate import SolverConfig
from .spectral import SpectralGrid

__all__ = [
    "ExperimentKind",
    "ExperimentConfig",
    "ParseError",
    "ValidationError",
    "parse_config",
    "load_config",
    "DEFAULTS",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(ValueError):
    pass


class ExperimentKind(enum.Enum):
    DISPERSION = "dispersion"
    PHASE_DIAGRAM = "phase_diagram"
    NONLINEAR_DECAY = "nonlinear_decay"
    DISORDERED_INSTABILITY = "disordered_instability"
    ORDERED_INSTABILITY = "ordered_instability"
    ORDERED_CONTRACTIVITY = "ordered_contractivity"
    FREE_RUN = "free_run"


_DEFAULT_T_END = {
    ExperimentKind.DISPERSION: 5.0,
    ExperimentKind.PHASE_DIAGRAM: 1.0,
    ExperimentKind.NONLINEAR_DECAY: 20.0,
    ExperimentKind.DISORDERED_INSTABILITY: 200.0,
    ExperimentKind.ORDERED_INSTABILITY: 60.0,
    ExperimentKind.ORDERED_CONTRACTIVITY: 2.0,
    ExperimentKind.FREE_RUN: 10.0,
}

_ORDERED_EXPERIMENTS = {ExperimentKind.ORDERED_INSTABILITY,
                        ExperimentKind.ORDERED_CONTRACTIVITY}
# the experiments that seed their tracked modes
_SEEDED_EXPERIMENTS = {ExperimentKind.DISPERSION,
                       ExperimentKind.DISORDERED_INSTABILITY,
                       ExperimentKind.ORDERED_INSTABILITY}


def _vector(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


# key -> (parser, default); `...` marks a required key, None a default
# resolved in `parse_config`
_KEYS: dict[str, tuple[Any, Any]] = {
    "experiment": (str, ...),
    "output_dir": (str, "lf_out"),
    "params.lambda0": (float, 1.0),
    "params.lambda1": (float, 0.0),
    "params.alpha": (float, ...),
    "params.beta": (float, 1.0),
    "params.gamma0": (float, ...),
    "params.gamma2": (float, 1.0),
    "params.dim": (int, 2),
    "state.kind": (str, None),          # derived from the experiment
    "state.direction": (_vector, None),  # e1
    "grid.n_per_axis": (int, 64),
    "grid.box_length": (float, 20.0 * math.pi),
    "solver.dt": (float, 1e-3),
    "solver.t_end": (float, None),
    "solver.snapshot_interval": (float, None),
    "solver.diagnostics_interval": (float, None),
    "solver.seed": (int, 12345),
    "perturbation.amplitude": (float, 1e-4),
    "perturbation.spectrum_scale": (float, 0.5),
    "perturbation.tracked_wavevectors": (
        lambda text: tuple(map(_vector, text.split())), ()),
    "phase.gamma0_min": (float, -2.0),
    "phase.gamma0_max": (float, 2.0),
    "phase.alpha_min": (float, -1.0),
    "phase.alpha_max": (float, 1.0),
    "phase.resolution": (int, 41),
}
DEFAULTS: dict[str, Any] = {key: default for key, (_, default)
                            in _KEYS.items() if default is not ...}
_KNOWN_KEYS = frozenset(_KEYS)


@dataclass
class ExperimentConfig:
    """A validated config: the grid, the system and the resolved solver the
    run uses, built once by `parse_config`."""

    experiment: ExperimentKind
    system: TransformedSystem
    grid: SpectralGrid
    solver: SolverConfig
    amplitude: float
    spectrum_scale: float
    tracked_wavevectors: list[tuple[float, ...]]
    output_dir: str
    phase_ranges: dict[str, float]


def _parse_value(key: str, raw: str, line: int | None):
    raw = raw.strip()
    try:
        return _KEYS[key][0](raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {raw!r} ({exc})", line) from exc


def _raw_parse(text: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    section = ""
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(f"malformed section header {rawline!r}", lineno)
            section = stripped[1:-1].strip()
            if not section:
                raise ParseError("empty section name", lineno)
            continue
        if "=" not in stripped:
            raise ParseError(f"expected key = value, got {rawline!r}", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        # dotted keys are fully qualified; bare keys live in the section
        full = key if "." in key else (f"{section}.{key}" if section else key)
        if full not in _KNOWN_KEYS:
            raise ParseError(f"unknown key {full!r}", lineno)
        if full in values:
            raise ParseError(f"duplicate key {full!r}", lineno)
        values[full] = _parse_value(full, raw, lineno)
    return values


def parse_config(text: str, overrides: dict[str, str] | None = None
                 ) -> ExperimentConfig:
    """Parse and fully validate a config; unknown keys are hard errors."""
    values = _raw_parse(text)
    for key, raw in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown override key {key!r}")
        values[key] = _parse_value(key, raw, None)
    for key, (_, default) in _KEYS.items():
        if default is ... and key not in values:
            raise ValidationError(f"missing required key {key!r}")

    def get(key):
        return values.get(key, DEFAULTS.get(key))

    try:
        experiment = ExperimentKind(str(get("experiment")).strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in ExperimentKind)
        raise ValidationError(
            f"unknown experiment {get('experiment')!r}; expected one of {valid}")

    try:
        params = ModelParams(
            lambda0=get("params.lambda0"), lambda1=get("params.lambda1"),
            alpha=get("params.alpha"), beta=get("params.beta"),
            gamma0=get("params.gamma0"), gamma2=get("params.gamma2"),
            dim=get("params.dim"))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    kind_raw = get("state.kind")
    if kind_raw is None:
        kind = (StateKind.ORDERED if experiment in _ORDERED_EXPERIMENTS
                else StateKind.DISORDERED)
    else:
        try:
            kind = StateKind(str(kind_raw).strip().lower())
        except ValueError:
            raise ValidationError(f"state.kind must be disordered or ordered, "
                                  f"got {kind_raw!r}")
    if experiment in _ORDERED_EXPERIMENTS and kind is not StateKind.ORDERED:
        raise ValidationError(
            f"experiment {experiment.value} analyses the ordered state")

    direction = get("state.direction")
    if direction is not None:
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (params.dim,):
            raise ValidationError(
                f"state.direction must have {params.dim} components")
        norm = float(np.linalg.norm(direction))
        if not (math.isfinite(norm) and norm > 0):   # nan or inf too
            raise ValidationError("state.direction must have a finite nonzero norm")
        direction = direction / norm

    try:
        grid = SpectralGrid(params.dim, get("grid.n_per_axis"),
                            get("grid.box_length"))
        system = (make_ordered_system(params, direction)
                  if kind is StateKind.ORDERED
                  else make_disordered_system(params))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    t_end = get("solver.t_end")
    diag = get("solver.diagnostics_interval")
    if diag is None and experiment is ExperimentKind.ORDERED_CONTRACTIVITY:
        diag = get("solver.dt")   # the identity's trapezoid: every step
    try:
        solver = SolverConfig(
            dt=get("solver.dt"),
            t_end=_DEFAULT_T_END[experiment] if t_end is None else t_end,
            snapshot_interval=get("solver.snapshot_interval"),
            diagnostics_interval=diag, seed=get("solver.seed"))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if solver.snapshot_interval is None and experiment is ExperimentKind.FREE_RUN:
        # about five snapshots, on the step cadence
        every = max(1, round(solver.nsteps / 5))
        solver = replace(solver, snapshot_interval=every * solver.dt)

    tracked = []
    for vec in get("perturbation.tracked_wavevectors"):
        if len(vec) != params.dim:
            raise ValidationError(
                f"tracked wavevector {vec} must have {params.dim} components")
        try:
            index, _ = grid.mode_index(vec)
        except ValueError as exc:
            raise ValidationError(
                f"perturbation.tracked_wavevectors: {exc}") from exc
        if grid.n // 2 in index:
            raise ValidationError(
                f"tracked wavevector {vec} is on a Nyquist slot (m = n/2), "
                "which the run holds at zero")
        if experiment in _SEEDED_EXPERIMENTS and not any(index):
            raise ValidationError(
                f"tracked wavevector {vec} is k = 0, which {experiment.value} "
                "cannot seed")
        tracked.append(tuple(float(c) for c in vec))

    amplitude = get("perturbation.amplitude")
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ValidationError(
            f"perturbation.amplitude must be finite and > 0, got {amplitude}")
    scale = get("perturbation.spectrum_scale")
    if not (scale > 0):
        raise ValidationError(f"perturbation.spectrum_scale must be > 0, got {scale}")

    phase_ranges = {key: get("phase." + key) for key in (
        "gamma0_min", "gamma0_max", "alpha_min", "alpha_max", "resolution")}
    if phase_ranges["resolution"] < 2:
        raise ValidationError("phase.resolution must be >= 2")
    for axis in ("gamma0", "alpha"):
        lo, hi = phase_ranges[f"{axis}_min"], phase_ranges[f"{axis}_max"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValidationError(f"phase.{axis}_min <= phase.{axis}_max "
                                  f"must hold, both finite: [{lo}, {hi}]")

    return ExperimentConfig(
        experiment=experiment, system=system, grid=grid, solver=solver,
        amplitude=amplitude, spectrum_scale=scale,
        tracked_wavevectors=tracked, output_dir=str(get("output_dir")),
        phase_ranges=phase_ranges)


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)
