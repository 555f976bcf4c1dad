"""Canned experiment suite: dispersion checks, phase diagrams, decay
certificates, instability demonstrations, contractivity, free runs.

Each experiment is a function `_<kind>(cfg)` in `_EXPERIMENTS`: it runs
its pre-checks and returns its run, the keyword arguments of `run` (None
for `phase_diagram`), and `assess(trajectory, out, files) -> (checks,
notes)`, which writes its own tables and adds them to `files`.
`run_experiment` does the rest: the output directory, the run with its
diagnostics CSV and snapshots, the assessment and `report.csv`.  So a
config error (exit 3) comes only from a pre-check, before any work; a run
that cannot be measured (a missed fit window) fails a check instead.  Every
check cites a number in the emitted files.  Runs are deterministic for a
fixed config (including the seed).
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, ExperimentKind
from .diagnostics import (_FD4_SAMPLES, _FIT_SAMPLES, GrowthFit,
                          budget_series, check_decay_bound, fit_growth,
                          integrated_identity_residual)
from .integrate import (BlowUpError, SolverConfig, Trajectory, amp_label, run,
                        random_solenoidal_field, single_mode_field)
from .model import StateKind, TransformedSystem
from .spectral import SpectralGrid, write_snapshot
from .stability import (growth_rate, lattice_growth_rates, phase_diagram,
                        unstable_band, write_dispersion_csv,
                        write_phase_diagram_csv)

__all__ = ["Check", "ExperimentReport", "run_experiment",
           "write_diagnostics_csv", "FIXED_DIAG_COLUMNS"]

FIXED_DIAG_COLUMNS = ["t", "l2_norm_sq", "l4_norm_4", "grad_norm_sq",
                      "lap_norm_sq", "energy_residual", "div_residual"]
EXTRA_DIAG_COLUMNS = ["m_form", "ordered_proj_sq", "n_inner", "f_inner"]

LINEARIZED_RATE_TOL = 1e-3
NONLINEAR_RATE_TOL = 5e-2
ENERGY_RESIDUAL_TOL = 1e-6
IDENTITY_TOL = 1e-6
MONOTONE_SLACK = 1e-10
LINEAR_WINDOW = (2.0, 10.0)   # fit window in units of the initial amplitude


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    comparator: str   # "<=" or ">="
    passed: bool


def _check(name: str, value: float, threshold: float, comparator: str = "<=") -> Check:
    ok = value <= threshold if comparator == "<=" else value >= threshold
    return Check(name, float(value), float(threshold), comparator, bool(ok))


@dataclass
class ExperimentReport:
    experiment: str
    passed: bool
    checks: list[Check]
    files: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"CHECK {c.name}: value={c.value:.6g} "
                       f"{c.comparator} {c.threshold:.6g} -> "
                       f"{'PASS' if c.passed else 'FAIL'}")
        for note in self.notes:
            out.append(f"NOTE {note}")
        out.append(f"RESULT {self.experiment}: "
                   f"{'PASS' if self.passed else 'FAIL'}")
        return out


# --------------------------------------------------------------------------
# Output writers
# --------------------------------------------------------------------------

def write_diagnostics_csv(path, traj: Trajectory) -> None:
    """Diagnostic series with the energy-budget residual filled per sample."""
    if len(traj.times) >= _FD4_SAMPLES:
        residual = np.array([b.residual for b in budget_series(traj)])
    else:
        residual = np.full(len(traj.times), math.nan)
    amp_cols = [amp_label(k) for k in traj.tracked]
    header = FIXED_DIAG_COLUMNS + amp_cols + EXTRA_DIAG_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [t, traj.series["l2_norm_sq"][i], traj.series["l4_norm_4"][i],
                   traj.series["grad_norm_sq"][i], traj.series["lap_norm_sq"][i],
                   residual[i], traj.series["div_residual"][i]]
            row += [traj.series[c][i] for c in amp_cols]
            row += [traj.series[c][i] for c in EXTRA_DIAG_COLUMNS]
            writer.writerow(["%.17g" % v for v in row])


def write_report_csv(path, checks: list[Check]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "comparator", "threshold", "passed"])
        for c in checks:
            writer.writerow([c.name, "%.17g" % c.value, c.comparator,
                             "%.17g" % c.threshold, str(c.passed).lower()])


# --------------------------------------------------------------------------
# Mode selection helpers
# --------------------------------------------------------------------------

def _default_instability_modes(system: TransformedSystem, grid: SpectralGrid,
                               count: int = 3) -> list[tuple[float, ...]]:
    """The `count` fastest-growing lattice modes, one per +-k pair: the one
    whose first nonzero mode number is positive.  k = 0 and the Nyquist
    rows are skipped, and equal rates keep the half-spectrum's order."""
    rates = lattice_growth_rates(system, grid).ravel()
    m = grid._modes().reshape(grid.dim, -1)
    first = np.zeros(m.shape[1], np.int64)   # sign of the first nonzero m
    for row in m[::-1]:
        first = np.where(row != 0, np.sign(row), first)
    # every pair has one member with m_last > 0, or both on m_last = 0
    keep = ((m[-1] > 0) | (first > 0)) & np.all(np.abs(m) < grid.n // 2,
                                               axis=0)
    order = np.argsort(np.where(keep, -rates, np.inf), kind="stable")
    return [tuple(float(grid.dk * c) for c in first[i] * m[:, i])
            for i in order[:count] if keep[i]]


def _polarization(system: TransformedSystem, k: np.ndarray) -> np.ndarray:
    """Unit polarization orthogonal to k; for the polar state the direction
    with zero M eigenvalue (perpendicular to V as well, when possible)."""
    d = len(k)
    if d == 2:
        pol = np.array([-k[1], k[0]])
        return pol / np.linalg.norm(pol)
    V = system.V
    if np.any(V):
        cand = np.cross(V, k)
        if np.linalg.norm(cand) > 1e-12 * np.linalg.norm(k) * np.linalg.norm(V):
            return cand / np.linalg.norm(cand)
    trial = np.zeros(3)
    trial[int(np.argmin(np.abs(k)))] = 1.0
    cand = np.cross(k, trial)
    return cand / np.linalg.norm(cand)


def _seed_modes(grid: SpectralGrid, system: TransformedSystem,
                modes: list[tuple[float, ...]], amplitude: float):
    field_ = None
    for k in modes:
        pol = _polarization(system, np.asarray(k, dtype=float))
        f = single_mode_field(grid, k, pol, amplitude)
        field_ = f if field_ is None else type(f)(grid, field_.coeffs + f.coeffs)
    return field_


def _linear_window(times, amps, a0: float) -> tuple[float, float]:
    """Time window where the mode amplitude sits in [2, 10] * a0, taken on
    the first growth transit (before any saturation recurrence)."""
    lo, hi = LINEAR_WINDOW[0] * a0, LINEAR_WINDOW[1] * a0
    above_hi = np.nonzero(amps > hi)[0]
    end = above_hi[0] if len(above_hi) else len(amps)
    sel = np.nonzero(amps[:end] >= lo)[0]
    if len(sel) < _FIT_SAMPLES:
        raise ValueError(
            "no usable linear-regime window: the tracked mode never grew "
            f"through [{lo:.3g}, {hi:.3g}] with >= {_FIT_SAMPLES} samples")
    return float(times[sel[0]]), float(times[min(end - 1, sel[-1])])


def _require_samples(solver: SolverConfig, needed: int, use: str) -> None:
    """Reject a run whose diagnostics cadence gives fewer than `needed`
    samples, before any work."""
    count = len(solver.sample_steps)
    if count < needed:
        raise ValueError(
            f"t_end={solver.t_end:g} with diagnostics every "
            f"{solver.effective_diag_interval:g} gives {count} samples; "
            f"{use} needs at least {needed}")


def _require_representable(system: TransformedSystem,
                           modes: list[tuple[float, ...]], amplitude: float,
                           solver: SolverConfig) -> None:
    """Reject a linearized run in which a seeded mode's squared amplitude
    (the sampler's a2) would underflow by t_end, before any work.  Its
    integrating factor is exact, so a mode seeded at amplitude/2 per
    coefficient keeps a2 = (amplitude/2)^2 exp(2 rate t)."""
    floor = math.log(np.finfo(float).tiny)
    for k in modes:
        rate = growth_rate(system, np.asarray(k))
        if 2.0 * (math.log(0.5 * amplitude) + rate * solver.t_end) < floor:
            raise ValueError(
                f"the tracked mode k=({', '.join('%g' % c for c in k)}) "
                f"decays at rate {-rate:.6g}; its squared amplitude would "
                f"underflow before t_end={solver.t_end:g}")


def _run_and_record(out: str, cfg: ExperimentConfig, **kwargs
                    ) -> tuple[Trajectory, dict[str, str]]:
    """`run` with its diagnostics CSV and snapshots written into `out`;
    returns the trajectory and the files written.  Each snapshot is written
    when it is taken, so a run keeps none in memory.  A run that blows up
    writes what it sampled before the blow-up, then re-raises."""
    files = {"diagnostics": os.path.join(out, "diagnostics.csv")}

    def snapshot(t, snap):
        name = f"snap_{t:012.6f}.lfsnap"
        files[name] = os.path.join(out, name)
        write_snapshot(files[name], cfg.grid, snap, t)

    try:
        traj = run(system=cfg.system, grid=cfg.grid, config=cfg.solver,
                   on_snapshot=snapshot, **kwargs)
    except BlowUpError as exc:
        write_diagnostics_csv(files["diagnostics"], exc.trajectory)
        exc.args = (f"{exc}; diagnostics written to {files['diagnostics']}",)
        raise
    write_diagnostics_csv(files["diagnostics"], traj)
    return traj, files


def _linear_run(grid: SpectralGrid, system: TransformedSystem,
                modes: list[tuple[float, ...]], amplitude: float,
                solver: SolverConfig) -> dict:
    """The keyword arguments of a linearized `run` seeded with `modes` at
    `amplitude`, once its growth fits are known to be measurable."""
    _require_samples(solver, _FIT_SAMPLES, "a growth fit")
    _require_representable(system, modes, amplitude, solver)
    return {"initial": _seed_modes(grid, system, modes, amplitude),
            "linearized": True, "tracked_wavevectors": modes}


def _random_run(cfg: ExperimentConfig, linearized: bool = False) -> dict:
    """The keyword arguments of a run from the configured random field."""
    initial = random_solenoidal_field(cfg.grid, cfg.amplitude,
                                      cfg.spectrum_scale, cfg.solver.seed)
    return {"initial": initial, "linearized": linearized,
            "tracked_wavevectors": cfg.tracked_wavevectors}


def _fit_modes(traj: Trajectory, modes: list[tuple[float, ...]]
               ) -> dict[tuple[float, ...], GrowthFit]:
    """Each mode's growth fitted over the whole run."""
    return {k: fit_growth(traj.times, traj.series[amp_label(k)], wavevector=k)
            for k in modes}


def _rel_error(rate: float, predicted: float) -> float:
    return abs(rate - predicted) / max(abs(predicted), 1e-12)


def _rate_row(k: tuple[float, ...], predicted: float,
              fit: GrowthFit | None) -> dict:
    """One row of `rates.csv`; without a fit the measured columns read nan."""
    rate, r_squared = (fit.rate, fit.r_squared) if fit else (math.nan,
                                                             math.nan)
    return {"k": k, "ksq": float(np.dot(k, k)),
            "predicted_rate": "%.17g" % predicted,
            "measured_rate": "%.17g" % rate,
            "rel_error": "%.6g" % _rel_error(rate, predicted),
            "r_squared": "%.12g" % r_squared}


# --------------------------------------------------------------------------
# Experiments: each runs its pre-checks and returns its run (or None) and
# its assessment
# --------------------------------------------------------------------------

def _axis_modes(grid: SpectralGrid, count: int) -> list[tuple[float, ...]]:
    """m dk e1, m = 1..count short of the first axis's Nyquist slot."""
    return [tuple((m * grid.dk if a == 0 else 0.0) for a in range(grid.dim))
            for m in range(1, min(count, grid.n // 2 - 1) + 1)]


def _dispersion(cfg: ExperimentConfig):
    system = cfg.system
    tracked = cfg.tracked_wavevectors or _axis_modes(cfg.grid, 6)
    runs = _linear_run(cfg.grid, system, tracked, cfg.amplitude, cfg.solver)

    def assess(traj, out, files):
        fits = _fit_modes(traj, tracked)
        predicted = {k: growth_rate(system, np.asarray(k)) for k in tracked}
        files["rates"] = os.path.join(out, "rates.csv")
        write_dispersion_csv(files["rates"], [
            _rate_row(k, predicted[k], fits[k]) for k in tracked])
        worst = max(_rel_error(fits[k].rate, predicted[k]) for k in tracked)
        return [_check("max_rate_rel_error", worst, LINEARIZED_RATE_TOL)], []
    return runs, assess


def _phase_diagram(cfg: ExperimentConfig):
    pr, params = cfg.phase_ranges, cfg.system.params
    res = int(pr["resolution"])

    def assess(traj, out, files):
        diag = phase_diagram(params, (pr["gamma0_min"], pr["gamma0_max"]),
                             (pr["alpha_min"], pr["alpha_max"]), (res, res))
        # classification flips only across the analytic boundary curves
        violations = 0
        for i, g0 in enumerate(diag.gamma0):
            boundary = (g0 * g0 / (4.0 * params.gamma2)) if g0 < 0 else 0.0
            for j in range(res - 1):
                a_lo, a_hi = diag.alpha[j], diag.alpha[j + 1]
                c_lo = diag.disordered[i][j].classification
                c_hi = diag.disordered[i][j + 1].classification
                if c_lo is not c_hi and not (a_lo <= boundary <= a_hi):
                    violations += 1
        for state in ("disordered", "ordered"):
            files[f"phase_{state}"] = os.path.join(out, f"phase_{state}.csv")
            write_phase_diagram_csv(files[f"phase_{state}"], diag, state)
        return [_check("boundary_crossing_violations", violations, 0)], []
    return None, assess


def _nonlinear_decay(cfg: ExperimentConfig):
    _require_samples(cfg.solver, _FD4_SAMPLES, "the energy residual")
    system = cfg.system
    if system.kind is not StateKind.DISORDERED:
        raise ValueError("the decay certificate applies to rest-state runs; "
                         f"got state.kind = {system.kind.value}")

    def assess(traj, out, files):
        report = check_decay_bound(traj.times, traj.series["l2_norm_sq"],
                                   system.params, system.kind)
        checks = [_check("decay_margin", report.margin, 0.0, ">="),
                  _check("max_energy_residual", _max_energy_residual(traj),
                         ENERGY_RESIDUAL_TOL)]
        return checks, [f"envelope rate on ||u||^2: {report.rate:.6g}"]
    return _random_run(cfg), assess


def _max_energy_residual(traj: Trajectory) -> float:
    budgets = budget_series(traj)
    return max(b.residual / max(1.0, b.kinetic) for b in budgets)


def _check_window_reachable(k, rate: float, solver: SolverConfig) -> None:
    """Reject a run whose fastest tracked mode cannot reach the fit window.

    Growing at `rate` from a0, the mode crosses LINEAR_WINDOW[0] * a0 at
    ln(LINEAR_WINDOW[0]) / rate, and the fit needs _FIT_SAMPLES samples from
    there.
    """
    label = "(" + ", ".join("%g" % c for c in k) + ")"
    if rate <= 0.0:
        raise ValueError(f"the fastest tracked mode k={label} has predicted "
                         f"growth rate {rate:.6g} <= 0, so it never grows "
                         "through the linear-regime fit window")
    needed = (math.log(LINEAR_WINDOW[0]) / rate
              + (_FIT_SAMPLES - 1) * solver.effective_diag_interval)
    if solver.t_end < needed:
        raise ValueError(
            f"t_end={solver.t_end:g} is too short for the linear-regime fit: "
            f"the fastest tracked mode k={label} (rate {rate:.6g}) needs "
            f"t_end >= {needed:.4g}")


def _instability(cfg: ExperimentConfig):
    grid, system = cfg.grid, cfg.system
    tracked = cfg.tracked_wavevectors or _default_instability_modes(system, grid)
    predictions = {k: growth_rate(system, np.asarray(k)) for k in tracked}
    best = max(tracked, key=lambda k: predictions[k])
    _check_window_reachable(best, predictions[best], cfg.solver)
    runs = {"initial": _seed_modes(grid, system, tracked, cfg.amplitude),
            "tracked_wavevectors": tracked}

    def assess(traj, out, files):
        amps = traj.series[amp_label(best)]
        a0 = amps[0]
        try:
            window = _linear_window(traj.times, amps, a0)
        except ValueError as exc:   # the mode missed the window: no rate
            fit, notes = None, [str(exc)]
        else:
            fit = fit_growth(traj.times, amps, window=window, wavevector=best)
            notes = [f"fitted over t in [{window[0]:.4g}, {window[1]:.4g}] "
                     f"(amplitudes within {LINEAR_WINDOW[0]:g}.."
                     f"{LINEAR_WINDOW[1]:g} of the initial {a0:.3g})"]
        kinetic = 0.5 * traj.series["l2_norm_sq"]
        tail = kinetic[traj.times >= 0.75 * traj.times[-1]]
        notes.append("saturation-phase mean kinetic energy: "
                     f"{float(np.mean(tail)):.6g}")

        files["rates"] = os.path.join(out, "rates.csv")
        files["final_snapshot"] = os.path.join(out, "final.lfsnap")
        write_dispersion_csv(files["rates"], [
            _rate_row(k, predictions[k], fit if k == best else None)
            for k in tracked])
        write_snapshot(files["final_snapshot"], grid,
                       traj.final.u_hat.to_physical(), traj.final.t)

        rel = _rel_error(fit.rate if fit else math.nan, predictions[best])
        checks = [_check("growth_rate_rel_error", rel, NONLINEAR_RATE_TOL),
                  _check("final_kinetic_finite", float(kinetic[-1]),
                         float(np.inf), "<=")]
        if system.kind is StateKind.DISORDERED:
            checks.append(_check("max_energy_residual",
                                 _max_energy_residual(traj),
                                 ENERGY_RESIDUAL_TOL))
        return checks, notes
    return runs, assess


def _contractivity(cfg: ExperimentConfig):
    solver = cfg.solver
    if cfg.system.params.gamma0 < 0:
        raise ValueError("contractivity requires gamma0 >= 0 (the ordered "
                         "state is exponentially unstable for gamma0 < 0)")
    if len(solver.sample_steps) != solver.nsteps + 1:
        # the trapezoid's error grows as the square of the interval: only
        # the step cadence keeps the identity's tolerance in reach
        raise ValueError(
            f"diagnostics every {solver.effective_diag_interval:g} with "
            f"dt={solver.dt:g}: the integrated energy identity needs a "
            "sample at every step")

    def assess(traj, out, files):
        l2 = traj.series["l2_norm_sq"]
        growth = float(np.max(np.diff(l2)) / l2[0]) if len(l2) > 1 else 0.0
        identity = integrated_identity_residual(traj)
        return [_check("max_l2_increase_rel", growth, MONOTONE_SLACK),
                _check("integrated_identity_residual", identity,
                       IDENTITY_TOL)], []
    return _random_run(cfg, linearized=True), assess


def _free_run(cfg: ExperimentConfig):
    def assess(traj, out, files):
        kinetic_final = 0.5 * traj.series["l2_norm_sq"][-1]
        return [_check("final_kinetic_finite", kinetic_final,
                       float(np.inf))], []
    return _random_run(cfg), assess


_EXPERIMENTS = {
    ExperimentKind.DISPERSION: _dispersion,
    ExperimentKind.PHASE_DIAGRAM: _phase_diagram,
    ExperimentKind.NONLINEAR_DECAY: _nonlinear_decay,
    ExperimentKind.DISORDERED_INSTABILITY: _instability,
    ExperimentKind.ORDERED_INSTABILITY: _instability,
    ExperimentKind.ORDERED_CONTRACTIVITY: _contractivity,
    ExperimentKind.FREE_RUN: _free_run,
}


def _band_coverage_warning(cfg: ExperimentConfig) -> str | None:
    """Warn when the box is too small for the unstable band to hold at
    least 3 lattice wavenumbers."""
    band = unstable_band(cfg.system.params)
    if not band.has_band:
        return None
    grid = cfg.grid
    ksq = grid.ksq_half
    count = int(np.sum(grid.parseval_weight_half,   # over the whole lattice
                       where=(ksq > band.s_minus_sq) & (ksq < band.s_plus_sq)))
    if count >= 3:
        return None
    return (f"unstable band ({band.s_minus_sq:.4g}, {band.s_plus_sq:.4g}) in "
            f"|k|^2 contains only {count} lattice wavenumbers; increase the "
            "box length")


def run_experiment(cfg: ExperimentConfig, *, out_dir: str | None = None
                   ) -> ExperimentReport:
    """Run the configured experiment into <out_dir or cfg.output_dir>/<kind>.

    The output directory is created only once the experiment's pre-checks
    pass, so a run rejected before any work leaves nothing behind.
    """
    out = os.path.join(out_dir or cfg.output_dir, cfg.experiment.value)
    warning = _band_coverage_warning(cfg)
    if warning is not None:
        print(f"WARNING {warning}", file=sys.stderr)
    runs, assess = _EXPERIMENTS[cfg.experiment](cfg)
    os.makedirs(out, exist_ok=True)
    traj, files = ((None, {}) if runs is None
                   else _run_and_record(out, cfg, **runs))
    checks, notes = assess(traj, out, files)
    files["report"] = os.path.join(out, "report.csv")
    write_report_csv(files["report"], checks)
    return ExperimentReport(experiment=cfg.experiment.value,
                            passed=all(c.passed for c in checks),
                            checks=checks, files=files, notes=notes)
