"""Energy budgets, growth-rate fits, and decay-bound certificates.

The solver's semidiscrete dynamics satisfy the same L2 energy identity as
the continuous system, because the dealiased products make the advection
term exactly skew and the quartic term exactly what the L4 norm measures:

    d/dt (1/2)||u||^2 + Gamma2||Lap u||^2 + Gamma0||grad u||^2
        + int u.Mu + beta||u||_4^4 - int u.N(u) - int u.f = 0.

`budget_series` evaluates this identity along a trajectory, differencing the
kinetic series with 4th-order stencils; the residual is the defect and should
sit at integrator truncation level (<< any physical signal).

Decay certificates follow the two differential-inequality branches: for
gamma0 >= 0, alpha >= 0 the envelope rate is 2*alpha; for gamma0 < 0 the
gradient term is absorbed into the bilaplacian term, costing
gamma0^2/(4*gamma2), giving the rate 2*(alpha - gamma0^2/(4*gamma2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, StateKind
from .integrate import SolverState, Tendency, Trajectory, _SeriesRecorder
from .lattice import FineLattice
from .spectral import SpectralField, SpectralGrid, to_half, zero_nyquist

__all__ = [
    "EnergyBudget",
    "energy_budget",
    "budget_series",
    "fd4_derivative",
    "GrowthFit",
    "fit_growth",
    "DecayBoundReport",
    "check_decay_bound",
    "integrated_identity_residual",
    "advection_skew_inner",
    "quartic_gradient_inner",
    "NonPositiveAmplitudeError",
    "WindowTooShortError",
    "WrongSystemError",
]

DECAY_TOLERANCE_FACTOR = 1.0 + 1e-6
_FD4_SAMPLES = 5    # the fewest samples `fd4_derivative` differences
_FIT_SAMPLES = 10   # the fewest samples `fit_growth` fits


class NonPositiveAmplitudeError(ValueError):
    pass


class WindowTooShortError(ValueError):
    pass


class WrongSystemError(ValueError):
    pass


# --------------------------------------------------------------------------
# Energy budget
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBudget:
    t: float
    kinetic: float               # (1/2)||u||_2^2
    dissipation_bilap: float     # gamma2 ||Lap u||_2^2
    dissipation_lap: float       # gamma0 ||grad u||_2^2 (sign of gamma0)
    landau_linear: float         # int u.Mu (= alpha||u||^2 or 2 beta||V.u||^2)
    landau_quartic: float        # beta ||u||_4^4
    ordered_projection: float    # 2 beta ||V.u||_2^2 (zero for the rest state)
    residual: float              # |d/dt kinetic + active terms|; NaN standalone


def energy_budget(state: SolverState) -> EnergyBudget:
    """Instantaneous budget terms of a single state.

    Measured, like the run series and both identity residuals, on the
    Nyquist-free half-spectrum of the state (its unpaired m = n/2 modes
    dropped), by the same per-sample computation as `run`.  The residual
    needs a time series and is NaN here; see `budget_series`.
    """
    tendency = Tendency(state.system, state.grid, linearized=True)
    recorder = _SeriesRecorder(tendency, ())
    recorder.sample(state.t, tendency._half(state.u_hat))
    times, series = recorder.columns()
    return _budgets(state.system.params, times, series, [math.nan])[0]


def _budgets(p: ModelParams, times, series: dict[str, np.ndarray],
             residual) -> list[EnergyBudget]:
    """`EnergyBudget` rows from sampled series and per-sample residuals."""
    fields = (times, 0.5 * series["l2_norm_sq"],
              p.gamma2 * series["lap_norm_sq"],
              p.gamma0 * series["grad_norm_sq"], series["m_form"],
              p.beta * series["l4_norm_4"],
              series["ordered_proj_sq"] * 2.0 * p.beta, residual)
    return [EnergyBudget(*map(float, row)) for row in zip(*fields)]


def _identity_terms(traj: Trajectory) -> list[np.ndarray]:
    """The active terms of the L2 identity at each sample, in summation
    order: gamma2||Lap u||^2, gamma0||grad u||^2, int u.Mu, beta||u||_4^4,
    -int u.N(u), -int u.f.  A linearized run integrates neither the quartic
    nor the quadratic term, so both leave its identity."""
    p = traj.system.params
    s = traj.series
    terms = [p.gamma2 * s["lap_norm_sq"], p.gamma0 * s["grad_norm_sq"],
             s["m_form"]]
    if not traj.linearized:
        terms += [p.beta * s["l4_norm_4"], -s["n_inner"]]
    return terms + [-s["f_inner"]]


def fd4_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4th-order finite-difference d/dt of a uniformly sampled series."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < _FD4_SAMPLES:
        raise ValueError(f"need at least {_FD4_SAMPLES} samples for 4th-order "
                         "differencing")
    h = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(abs(h), 1e-300):
        raise ValueError("series must be uniformly sampled")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    # one-sided 4th-order stencils at the edges
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    fwd2 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    d[0] = np.dot(fwd, y[:5])
    d[1] = np.dot(fwd2, y[:5])
    d[-1] = -np.dot(fwd, y[-5:][::-1])
    d[-2] = -np.dot(fwd2, y[-5:][::-1])
    return d


def budget_series(traj: Trajectory) -> list[EnergyBudget]:
    """Energy budgets along a trajectory with the identity residual filled in.

    Terms that the run did not integrate (quartic and quadratic inner products
    in linearized runs) are excluded from the residual; the reported budget
    fields themselves are always the plain quantities.
    """
    dkdt = fd4_derivative(traj.times, 0.5 * traj.series["l2_norm_sq"])
    residual = np.abs(sum(_identity_terms(traj), dkdt))
    return _budgets(traj.system.params, traj.times, traj.series, residual)


def integrated_identity_residual(traj: Trajectory) -> float:
    """Relative defect of the time-integrated L2 identity over [0, T].

    Trapezoidal quadrature on the diagnostic cadence:
    ||u(T)||^2 + 2*int(gamma2||Lap u||^2 + gamma0||grad u||^2 + int u.Mu
    + [beta||u||_4^4 - int u.N(u) when integrated] - int u.f) = ||u(0)||^2.
    """
    first, *rest = _identity_terms(traj)
    total = np.trapezoid(sum(rest, first), traj.times)
    l2 = traj.series["l2_norm_sq"]
    return float(abs(l2[-1] + 2.0 * total - l2[0]) / l2[0])


# --------------------------------------------------------------------------
# Growth fits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    wavevector: tuple[float, ...]
    rate: float
    r_squared: float
    window: tuple[float, float]


def fit_growth(times: np.ndarray, amplitudes: np.ndarray,
               window: tuple[float, float] | None = None,
               wavevector=()) -> GrowthFit:
    """Least-squares slope of log amplitude vs t over the window."""
    times = np.asarray(times, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if window is not None:
        sel = (times >= window[0]) & (times <= window[1])
        times, amplitudes = times[sel], amplitudes[sel]
    if len(times) < _FIT_SAMPLES:
        raise WindowTooShortError(
            f"growth fit needs >= {_FIT_SAMPLES} samples, got {len(times)}")
    if np.any(amplitudes <= 0):
        raise NonPositiveAmplitudeError(
            "amplitudes must be positive throughout the fit window")
    logs = np.log(amplitudes)
    tbar = times.mean()
    lbar = logs.mean()
    dt = times - tbar
    dl = logs - lbar
    denom = float(np.dot(dt, dt))
    rate = float(np.dot(dt, dl) / denom)
    fitted = lbar + rate * dt
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.dot(dl, dl))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return GrowthFit(tuple(float(c) for c in wavevector), rate, r2,
                     (float(times[0]), float(times[-1])))


# --------------------------------------------------------------------------
# Decay certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayBoundReport:
    holds: bool
    margin: float       # min over samples of log(bound) - log(value)
    rate: float         # envelope rate on ||u||^2


def decay_envelope_rate(params: ModelParams) -> float:
    """Envelope rate r in ||u(t)||^2 <= exp(-r t)||u0||^2 for rest-state runs."""
    if params.gamma0 >= 0:
        return 2.0 * params.alpha
    return 2.0 * (params.alpha - params.gamma0**2 / (4.0 * params.gamma2))


def check_decay_bound(times: np.ndarray, l2_sq: np.ndarray,
                      params: ModelParams,
                      state_kind: StateKind = StateKind.DISORDERED
                      ) -> DecayBoundReport:
    """Certify ||u(t)||^2 <= exp(-r t) ||u0||^2 (1 + 1e-6) at every sample."""
    if state_kind is not StateKind.DISORDERED:
        raise WrongSystemError(
            "decay bound applies to rest-state runs; got "
            f"{state_kind.value}")
    times = np.asarray(times, dtype=float)
    l2_sq = np.asarray(l2_sq, dtype=float)
    rate = decay_envelope_rate(params)
    bound = l2_sq[0] * np.exp(-rate * times) * DECAY_TOLERANCE_FACTOR
    with np.errstate(divide="ignore"):
        gaps = np.log(bound) - np.log(np.maximum(l2_sq, 0.0))
    margin = float(np.min(gaps))
    return DecayBoundReport(holds=bool(margin >= 0.0), margin=margin, rate=rate)


# --------------------------------------------------------------------------
# Structural witnesses
# --------------------------------------------------------------------------

def advection_skew_inner(grid: SpectralGrid, field: SpectralField,
                         V: np.ndarray | None = None) -> float:
    """<((u+V).grad)u, u> on the dealiased lattice; zero up to roundoff
    for solenoidal u (this is what removes advection from the budget)."""
    d = grid.dim
    V = np.zeros(d) if V is None else np.asarray(V, dtype=float)
    uh = zero_nyquist(grid, to_half(grid, field.coeffs))
    grads = 1j * grid.k_deriv_half[:, None] * uh   # [a, i]: d_a u_i
    lattice, total = FineLattice(grid, d + d * d), [0.0]

    def visit(fine, out, scratch):
        uf, gf = fine[:d], fine[d:].reshape(d, d, -1)
        w = np.einsum("am,aim->im", uf + V[:, None], gf)
        total[0] += float(np.sum(w * uf))
    lattice.products(0, visit, uh, grads.reshape((d * d,) + grid.half_shape))
    return grid.volume * total[0] / lattice.nf ** d


def quartic_gradient_inner(grid: SpectralGrid, field: SpectralField) -> float:
    """int grad(|u|^2 u) . grad u dx; non-negative (a sum of squares)."""
    d = grid.dim
    uh = zero_nyquist(grid, to_half(grid, field.coeffs))
    lattice = FineLattice(grid, d)
    lattice.products(d, lambda u, out, scratch: np.multiply(   # |u|^2 u
        u, np.einsum("im,im->m", u, u), out=out), uh)
    g = lattice.band(np.zeros_like(uh))
    w = grid.parseval_weight_half * np.sum(grid.k_deriv_half**2, axis=0)
    return grid.volume * float(
        np.sum(w * np.real(np.sum(g * np.conj(uh), axis=0))))
