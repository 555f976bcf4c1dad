"""Canned experiment suite: dispersion checks, phase diagrams, decay
certificates, instability demonstrations, contractivity, free runs.

Every experiment writes a diagnostics CSV, the snapshots its solver config
asks for and its own result tables into the output directory, and returns
an ExperimentReport whose checks each cite a number present in the emitted
files.  Runs are deterministic for a fixed config (including the seed).
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

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
    """The `count` fastest-growing lattice modes (one per +-k pair)."""
    rates = lattice_growth_rates(system, grid)
    m = grid.mode_numbers
    # one representative per conjugate pair, skip k=0 and Nyquist rows
    first_nonzero = np.zeros(grid.shape, dtype=np.int64)
    seen = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.dim):
        pick = (~seen) & (m[a] != 0)
        first_nonzero[pick] = np.sign(m[a][pick])
        seen |= m[a] != 0
    canonical = seen & (first_nonzero > 0) & np.all(np.abs(m) < grid.n // 2, axis=0)
    flat_rates = np.where(canonical, rates, -np.inf).ravel()
    order = np.argsort(flat_rates)[::-1]
    modes = []
    for idx in order[: count]:
        if not np.isfinite(flat_rates[idx]):
            break
        pos = np.unravel_index(idx, grid.shape)
        modes.append(tuple(float(grid.dk * mi) for mi in m[(slice(None),) + pos]))
    return modes


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


def _run_and_record(out: str | None, initial, system: TransformedSystem,
                    grid: SpectralGrid, solver: SolverConfig, **kwargs
                    ) -> tuple[Trajectory, dict[str, str]]:
    """`run` with its diagnostics CSV and snapshots written into `out`
    (created here); returns the trajectory and the files written.  Each
    snapshot is written when it is taken, so a run keeps none in memory.  A
    run that blows up writes what it sampled before the blow-up, then
    re-raises.  Without `out` nothing is written."""
    if out is None:
        return run(initial, system, grid, solver, **kwargs), {}
    os.makedirs(out, exist_ok=True)
    files = {"diagnostics": os.path.join(out, "diagnostics.csv")}

    def snapshot(t, snap):
        name = f"snap_{t:012.6f}.lfsnap"
        files[name] = os.path.join(out, name)
        write_snapshot(files[name], grid, snap, t)

    try:
        traj = run(initial, system, grid, solver, on_snapshot=snapshot,
                   **kwargs)
    except BlowUpError as exc:
        write_diagnostics_csv(files["diagnostics"], exc.trajectory)
        exc.args = (f"{exc}; diagnostics written to {files['diagnostics']}",)
        raise
    write_diagnostics_csv(files["diagnostics"], traj)
    return traj, files


def _measure_rates(grid: SpectralGrid, system: TransformedSystem,
                   modes: list[tuple[float, ...]], amplitude: float,
                   solver: SolverConfig, out: str | None = None
                   ) -> tuple[dict[tuple[float, ...], GrowthFit], dict[str, str]]:
    """Seed `modes` at `amplitude`, run linearized and fit each mode's growth
    over the whole run; see `_run_and_record` for `out` and the files."""
    _require_samples(solver, _FIT_SAMPLES, "a growth fit")
    _require_representable(system, modes, amplitude, solver)
    initial = _seed_modes(grid, system, modes, amplitude)
    traj, files = _run_and_record(out, initial, system, grid, solver,
                                  linearized=True, tracked_wavevectors=modes)
    fits = {k: fit_growth(traj.times, traj.series[amp_label(k)], wavevector=k)
            for k in modes}
    return fits, files


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

def _run_dispersion(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    grid = cfg.make_grid()
    system = cfg.make_system()
    tracked = cfg.tracked_wavevectors
    if not tracked:   # m = 1..6 on the first axis, short of its Nyquist slot
        dk = grid.dk
        tracked = [tuple((m * dk if a == 0 else 0.0) for a in range(grid.dim))
                   for m in range(1, min(6, grid.n // 2 - 1) + 1)]
    fits, files = _measure_rates(grid, system, tracked, cfg.amplitude,
                                 cfg.solver, out)
    rows = []
    worst = 0.0
    for k in tracked:
        predicted = growth_rate(system, np.asarray(k))
        fit = fits[k]
        rel = abs(fit.rate - predicted) / max(abs(predicted), 1e-12)
        worst = max(worst, rel)
        rows.append({"k": k, "ksq": float(np.dot(k, k)),
                     "predicted_rate": "%.17g" % predicted,
                     "measured_rate": "%.17g" % fit.rate,
                     "rel_error": "%.6g" % rel,
                     "r_squared": "%.12g" % fit.r_squared})
    files["rates"] = os.path.join(out, "rates.csv")
    write_dispersion_csv(files["rates"], rows)
    checks = [_check("max_rate_rel_error", worst, LINEARIZED_RATE_TOL)]
    return _finish(cfg, out, checks, files)


def _run_phase_diagram(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    os.makedirs(out, exist_ok=True)
    pr = cfg.phase_ranges
    res = int(pr["resolution"])
    diag = phase_diagram(cfg.params, (pr["gamma0_min"], pr["gamma0_max"]),
                         (pr["alpha_min"], pr["alpha_max"]), (res, res))

    # classification flips only across the analytic boundary curves
    violations = 0
    for i, g0 in enumerate(diag.gamma0):
        boundary = (g0 * g0 / (4.0 * cfg.params.gamma2)) if g0 < 0 else 0.0
        for j in range(res - 1):
            a_lo, a_hi = diag.alpha[j], diag.alpha[j + 1]
            c_lo = diag.disordered[i][j].classification
            c_hi = diag.disordered[i][j + 1].classification
            if c_lo is not c_hi and not (a_lo <= boundary <= a_hi):
                violations += 1

    files = {"phase_disordered": os.path.join(out, "phase_disordered.csv"),
             "phase_ordered": os.path.join(out, "phase_ordered.csv")}
    write_phase_diagram_csv(files["phase_disordered"], diag, "disordered")
    write_phase_diagram_csv(files["phase_ordered"], diag, "ordered")
    checks = [_check("boundary_crossing_violations", violations, 0)]
    return _finish(cfg, out, checks, files)


def _run_nonlinear_decay(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    _require_samples(cfg.solver, _FD4_SAMPLES, "the energy residual")
    if cfg.state_kind is not StateKind.DISORDERED:
        raise ValueError("the decay certificate applies to rest-state runs; "
                         f"got state.kind = {cfg.state_kind.value}")
    grid = cfg.make_grid()
    system = cfg.make_system()
    initial = random_solenoidal_field(grid, cfg.amplitude, cfg.spectrum_scale,
                                      cfg.solver.seed)
    traj, files = _run_and_record(out, initial, system, grid, cfg.solver,
                                  tracked_wavevectors=cfg.tracked_wavevectors)
    report = check_decay_bound(traj.times, traj.series["l2_norm_sq"],
                               cfg.params, system.kind)
    res = _max_energy_residual(traj)
    checks = [_check("decay_margin", report.margin, 0.0, ">="),
              _check("max_energy_residual", res, ENERGY_RESIDUAL_TOL)]
    note = [f"envelope rate on ||u||^2: {report.rate:.6g}"]
    return _finish(cfg, out, checks, files, note)


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


def _run_instability(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    grid = cfg.make_grid()
    system = cfg.make_system()
    tracked = cfg.tracked_wavevectors or _default_instability_modes(system, grid)
    predictions = {k: growth_rate(system, np.asarray(k)) for k in tracked}
    best = max(tracked, key=lambda k: predictions[k])
    predicted = predictions[best]
    _check_window_reachable(best, predicted, cfg.solver)

    initial = _seed_modes(grid, system, tracked, cfg.amplitude)
    traj, files = _run_and_record(out, initial, system, grid, cfg.solver,
                                  tracked_wavevectors=tracked)
    files["rates"] = os.path.join(out, "rates.csv")
    files["final_snapshot"] = os.path.join(out, "final.lfsnap")
    amps = traj.series[amp_label(best)]
    a0 = amps[0]
    try:
        window = _linear_window(traj.times, amps, a0)
    except ValueError as exc:
        raise ValueError(f"{exc}; diagnostics written to "
                         f"{files['diagnostics']}") from None
    fit = fit_growth(traj.times, amps, window=window, wavevector=best)
    rel = abs(fit.rate - predicted) / max(abs(predicted), 1e-12)

    kinetic = 0.5 * traj.series["l2_norm_sq"]
    tail = kinetic[traj.times >= 0.75 * traj.times[-1]]
    saturation = float(np.mean(tail))

    rows = [{"k": k, "ksq": float(np.dot(k, k)),
             "predicted_rate": "%.17g" % predictions[k],
             "measured_rate": "%.17g" % (fit.rate if k == best else math.nan),
             "rel_error": "%.6g" % (rel if k == best else math.nan),
             "r_squared": "%.12g" % (fit.r_squared if k == best else math.nan)}
            for k in tracked]
    write_dispersion_csv(files["rates"], rows)
    write_snapshot(files["final_snapshot"], grid,
                   traj.final.u_hat.to_physical(), traj.final.t)

    checks = [_check("growth_rate_rel_error", rel, NONLINEAR_RATE_TOL),
              _check("final_kinetic_finite", float(kinetic[-1]),
                     float(np.inf), "<=")]
    if system.kind is StateKind.DISORDERED:
        checks.append(_check("max_energy_residual", _max_energy_residual(traj),
                             ENERGY_RESIDUAL_TOL))
    notes = [f"fitted over t in [{window[0]:.4g}, {window[1]:.4g}] "
             f"(amplitudes within {LINEAR_WINDOW[0]:g}..{LINEAR_WINDOW[1]:g} "
             f"of the initial {a0:.3g})",
             f"saturation-phase mean kinetic energy: {saturation:.6g}"]
    return _finish(cfg, out, checks, files, notes)


def _run_contractivity(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    if cfg.params.gamma0 < 0:
        raise ValueError("contractivity requires gamma0 >= 0 (the ordered "
                         "state is exponentially unstable for gamma0 < 0)")
    grid = cfg.make_grid()
    system = cfg.make_system()
    solver = cfg.solver
    if solver.diagnostics_interval is None:
        solver = replace(solver, diagnostics_interval=solver.dt)
    if len(solver.sample_steps) != solver.nsteps + 1:
        # the trapezoid's error grows as the square of the interval: only
        # the step cadence keeps the identity's tolerance in reach
        raise ValueError(
            f"diagnostics every {solver.effective_diag_interval:g} with "
            f"dt={solver.dt:g}: the integrated energy identity needs a "
            "sample at every step")
    initial = random_solenoidal_field(grid, cfg.amplitude, cfg.spectrum_scale,
                                      solver.seed)
    traj, files = _run_and_record(out, initial, system, grid, solver,
                                  linearized=True,
                                  tracked_wavevectors=cfg.tracked_wavevectors)
    l2 = traj.series["l2_norm_sq"]
    growth = float(np.max(np.diff(l2)) / l2[0]) if len(l2) > 1 else 0.0
    identity = integrated_identity_residual(traj)
    checks = [_check("max_l2_increase_rel", growth, MONOTONE_SLACK),
              _check("integrated_identity_residual", identity, IDENTITY_TOL)]
    return _finish(cfg, out, checks, files)


def _run_free(cfg: ExperimentConfig, out: str) -> ExperimentReport:
    grid = cfg.make_grid()
    system = cfg.make_system()
    solver = cfg.solver
    if solver.snapshot_interval is None:
        # about five snapshots, on the step cadence
        every = max(1, round(solver.nsteps / 5))
        solver = replace(solver, snapshot_interval=every * solver.dt)
    initial = random_solenoidal_field(grid, cfg.amplitude, cfg.spectrum_scale,
                                      solver.seed)
    traj, files = _run_and_record(out, initial, system, grid, solver,
                                  tracked_wavevectors=cfg.tracked_wavevectors)
    kinetic_final = 0.5 * traj.series["l2_norm_sq"][-1]
    checks = [_check("final_kinetic_finite", kinetic_final, float(np.inf))]
    return _finish(cfg, out, checks, files)


def _finish(cfg: ExperimentConfig, out: str, checks: list[Check],
            files: dict[str, str], notes: list[str] | None = None
            ) -> ExperimentReport:
    files = dict(files)
    files["report"] = os.path.join(out, "report.csv")
    write_report_csv(files["report"], checks)
    return ExperimentReport(
        experiment=cfg.experiment.value,
        passed=all(c.passed for c in checks),
        checks=checks, files=files, notes=list(notes or []))


def _band_coverage_warning(cfg: ExperimentConfig) -> str | None:
    """Warn when the box is too small for the unstable band to hold at
    least 3 lattice wavenumbers."""
    band = unstable_band(cfg.params)
    if not band.has_band:
        return None
    grid = cfg.make_grid()
    ksq = grid.ksq.ravel()
    count = int(np.count_nonzero((ksq > band.s_minus_sq)
                                 & (ksq < band.s_plus_sq)))
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
    kind = cfg.experiment
    if kind is ExperimentKind.DISPERSION:
        return _run_dispersion(cfg, out)
    if kind is ExperimentKind.PHASE_DIAGRAM:
        return _run_phase_diagram(cfg, out)
    if kind is ExperimentKind.NONLINEAR_DECAY:
        return _run_nonlinear_decay(cfg, out)
    if kind in (ExperimentKind.DISORDERED_INSTABILITY,
                ExperimentKind.ORDERED_INSTABILITY):
        return _run_instability(cfg, out)
    if kind is ExperimentKind.ORDERED_CONTRACTIVITY:
        return _run_contractivity(cfg, out)
    return _run_free(cfg, out)
