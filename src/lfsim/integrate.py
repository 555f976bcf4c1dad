"""Time integration of the transformed system in Fourier space.

The stepper carries the state as coefficients a(k) in a per-mode real
orthonormal basis Q(k), d slots per mode (`stability._slot_basis`, which
also gives the growth rates).  For k != 0 the first d - 1 slots span k-perp
and diagonalize P M P there (the Craya-Herring frame, Sagaut & Cambon 2008),
and the last slot, k/|k|, is held at zero; at k = 0 the slots are M's
eigenvectors.  The whole linear symbol
Gamma2|k|^4 + Gamma0|k|^2 + i*lambda0*(V.k) + P M P is diagonal in that basis,
so the ETDRK4 integrating factor (Cox & Matthews 2002; Kassam & Trefethen
2005: Taylor series near z = 0, direct formulas elsewhere) treats all of it
exactly, and the Leray projection is the zero slot.

A `Tendency` is what is left: the dealiased quadratic/cubic products and the
optional forcing, -Q^T G(Q a) + Q^T f, so a linearized unforced run is exact
(its tendency is zero and each step is a <- E a).  In the slot basis the curl
is a slot map too (i|k| a0 in 2D; i|k| (a0 b2 - a1 b1) in 3D, as
k-hat x b1 = b2).  u, curl u and the products, formed with the sign of the
tendency, pass between a and the lattice only through `_kernels.rotate`,
on rows staged in its idle physical buffer.  The products are in closed form,
lambda0 (-u x curl u) + beta|u|^2 (u + V) + 2 beta (u.V) u.  A `Tendency`
also evaluates the Cartesian tendency -P[G + M u] - i*lambda0*(V.k)u + P f
of `nonlinear_rhs`, whose products see the solenoidal part of u only;
one-state callers build only a `Tendency`.  A `Stepper` is a `Tendency` plus
its step coefficients, the stage ones built on its first staged step.
`SolverConfig` owns the step cadence: `run` samples and snapshots on its
`sample_steps`/`snapshot_steps`, and stops at the first non-finite state or
diagnostic sample.

Products are evaluated on a factor-2 zero-padded lattice (exact for both
quadratic and cubic terms).  Quadratic advection is computed in rotational
form -u x (curl u); its Leray projection equals that of the convective form
exactly under these padded products, and `recover_pressure` adds back the
difference, the gradient of lambda0 |u|^2/2.  States evolve in the
Nyquist-free band (the unpaired m = N/2 slot stays zero), which removes the
sign ambiguity of odd derivatives on that mode.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .lattice import FineLattice, _irfft_spatial
from .model import TransformedSystem
from .spectral import (
    SpectralField,
    SpectralGrid,
    from_half,
    project_coeffs,
    to_half,
    zero_nyquist,
)
from .stability import _slot_basis

__all__ = [
    "SolverConfig",
    "SolverState",
    "Trajectory",
    "BlowUpError",
    "Stepper",
    "nonlinear_rhs",
    "step",
    "run",
    "random_solenoidal_field",
    "single_mode_field",
    "recover_pressure",
    "PressureFields",
]


class BlowUpError(RuntimeError):
    """Non-finite coefficients or diagnostics encountered.

    The continuous model has global-in-time solutions for any parameters with
    gamma2, beta > 0, so a blow-up always indicates a numerical-resolution
    failure (dt or N too coarse), never a model failure.
    """

    def __init__(self, t: float, last_state: "SolverState | None" = None,
                 trajectory: "Trajectory | None" = None):
        super().__init__(
            f"solution lost finiteness at t={t:.6g}; the model is globally "
            "wellposed, so this is a numerical-resolution failure - reduce dt "
            "or increase the grid resolution")
        self.t = t
        self.last_state = last_state
        self.trajectory = trajectory   # from `run`: the samples taken so far


def _is_multiple(a: float, b: float) -> bool:
    """Whether a is a whole multiple of b, to a relative 1e-9 (so that
    0.012 / 0.001 = 11.999999999999998 counts)."""
    ratio = a / b
    whole = round(ratio)
    return whole >= 1 and abs(ratio - whole) <= 1e-9 * whole


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    snapshot_interval: float | None = None
    diagnostics_interval: float | None = None  # defaults to 10*dt
    seed: int = 12345

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not _is_multiple(self.t_end, self.dt):
            raise ValueError(f"t_end={self.t_end} is not a multiple of "
                             f"dt={self.dt}")
        for name in ("snapshot_interval", "diagnostics_interval"):
            value = getattr(self, name)
            if value is None:
                continue
            if not (np.isfinite(value) and value >= self.dt):
                raise ValueError(f"{name}={value} must be finite and "
                                 f">= dt={self.dt}")
            if not _is_multiple(value, self.dt):
                raise ValueError(f"{name}={value} is not a multiple of "
                                 f"dt={self.dt}")
        diag = self.effective_diag_interval
        if diag < self.t_end and not _is_multiple(self.t_end, diag):
            raise ValueError(
                f"t_end={self.t_end} is not a multiple of the diagnostics "
                f"interval {diag}; the last sample would fall off the cadence")

    @property
    def effective_diag_interval(self) -> float:
        return self.diagnostics_interval if self.diagnostics_interval is not None \
            else 10.0 * self.dt

    @property
    def nsteps(self) -> int:
        return round(self.t_end / self.dt)

    def _cadence(self, interval: float | None) -> tuple[int, ...]:
        if interval is None:
            return ()
        every = max(1, round(interval / self.dt))
        return (*range(0, self.nsteps, every), self.nsteps)

    @property
    def sample_steps(self) -> tuple[int, ...]:
        """The steps at which `run` samples: step 0, every whole diagnostics
        interval and the last step.  `snapshot_steps` likewise, or none."""
        return self._cadence(self.effective_diag_interval)

    @property
    def snapshot_steps(self) -> tuple[int, ...]:
        return self._cadence(self.snapshot_interval)


@dataclass
class SolverState:
    t: float
    u_hat: SpectralField
    system: TransformedSystem
    grid: SpectralGrid


@dataclass
class Trajectory:
    """Sampled output of `run`: diagnostic series plus optional snapshots
    (kept in `snapshots` unless `run` handed them to `on_snapshot`)."""

    grid: SpectralGrid
    system: TransformedSystem
    config: SolverConfig
    linearized: bool
    tracked: list[tuple[float, ...]]
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    series: dict[str, np.ndarray] = field(default_factory=dict)
    snapshot_times: list[float] = field(default_factory=list)
    snapshots: list[np.ndarray] = field(default_factory=list)
    final: SolverState | None = None


def amp_label(k: Sequence[float]) -> str:
    return "amp_" + "_".join("%g" % float(c) for c in k)


# --------------------------------------------------------------------------
# phi functions for the exponential integrator
# --------------------------------------------------------------------------

_PHI_TERMS = 14


def _phi(z: np.ndarray, j: int) -> np.ndarray:
    """phi_j(z) = sum_m z^m / (m+j)!, evaluated stably for real or complex z.

    Taylor series below |z| = 0.5 (the Kassam-Trefethen cancellation region),
    expm1-based direct formulas elsewhere.
    """
    z = np.asarray(z)
    z = z.astype(np.result_type(z, float), copy=False)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    acc = np.full_like(zs, 1.0 / math.factorial(_PHI_TERMS - 1 + j))
    for m in range(_PHI_TERMS - 2, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(m + j)
    out[small] = acc
    zl = z[~small]
    e = np.expm1(zl)
    if j == 1:
        out[~small] = e / zl
    elif j == 2:
        out[~small] = (e - zl) / zl**2
    else:
        out[~small] = (e - zl - 0.5 * zl**2) / zl**3
    return out


# --------------------------------------------------------------------------
# Tendency and Stepper
# --------------------------------------------------------------------------

class Tendency:
    """The explicit tendency, with its fine lattice and buffers, on the rfft
    half-spectrum flattened to (dim, n_modes).

    The state is slot coefficients a, u = Q a (`cartesian`); `to_state`/
    `from_state` convert to and from the public full-lattice SpectralField.
    The products take N(u) from V and beta in the closed form of both steady
    states (`model.make_ordered_system`; V = 0 at rest).
    """

    def __init__(self, system: TransformedSystem, grid: SpectralGrid,
                 linearized: bool = False,
                 forcing: Callable[[float], SpectralField] | None = None):
        if system.params.dim != grid.dim:
            raise ValueError("system and grid dimensions disagree")
        self.system = system
        self.grid = grid
        self.linearized = bool(linearized)
        self.forcing = forcing

        d = grid.dim
        self.half_shape = grid.half_shape
        self.n_modes = int(np.prod(self.half_shape))

        self.ksq_flat = grid.ksq_half.reshape(self.n_modes)
        self.Mmat = np.ascontiguousarray(system.M)

        # dealiased products: u and curl u in, G out; a linearized tendency
        # only samples u there (`fine_physical`), so it has no curl rows
        self._lattice = FineLattice(
            grid, d if self.linearized else d + (1 if d == 2 else 3))
        self._row = np.empty(self.n_modes, np.complex128)   # `rotate`'s scratch row

    # -- slot basis and state conversion ------------------------------------

    @functools.cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis, symbol), built on first use."""
        basis, symbol = _slot_basis(
            self.system, self.grid.k_half.reshape(self.grid.dim, -1))
        basis[:, -1, self.ksq_flat > 0.0] = 0.0   # the k-hat slot stays 0
        if not np.any(symbol.imag) and np.all(symbol == symbol[:1]):
            symbol = symbol[:1].real
        return basis, np.ascontiguousarray(symbol)

    @property
    def basis(self) -> np.ndarray:
        """Q (dim, dim, n_modes) of `_slot_basis`, the k-hat columns of
        k != 0 zeroed."""
        return self._slots[0]

    @property
    def symbol(self) -> np.ndarray:
        """The linear symbol per slot, (dim, n_modes) complex, or one real
        row when every slot has the same real symbol (V = 0, M = alpha I)."""
        return self._slots[1]

    def cartesian(self, a: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
        """u = Q a: the Cartesian half-spectrum of slot coefficients a."""
        out = np.empty_like(a) if out is None else out
        return _kernels.rotate(self.basis, a, self._row, out)

    def _slot_coeffs(self, u: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """a = Q^T u: the slot coefficients of a Cartesian half-spectrum,
        its gradient part dropped."""
        out = np.empty_like(u) if out is None else out
        return _kernels.rotate(self.basis.transpose(1, 0, 2), u, self._row,
                               out)

    def _half(self, u_hat: SpectralField) -> np.ndarray:
        """The Cartesian half-spectrum of a field, Nyquist slots zeroed."""
        coeffs = zero_nyquist(self.grid, u_hat.coeffs.copy())
        return np.ascontiguousarray(
            to_half(self.grid, coeffs).reshape(self.grid.dim, self.n_modes))

    def _field(self, u_flat: np.ndarray) -> SpectralField:
        half = u_flat.reshape((self.grid.dim,) + self.half_shape)
        return SpectralField(self.grid, from_half(self.grid, half))

    def from_state(self, u_hat: SpectralField) -> np.ndarray:
        """Slot coefficients Q^T u of a field: its Nyquist slots and its
        gradient part are dropped."""
        return self._slot_coeffs(self._half(u_hat))

    def to_state(self, a: np.ndarray) -> SpectralField:
        """The field of slot coefficients a, through Cartesian rows staged
        in the fine lattice's physical buffer (`_stage`)."""
        return self._field(self.cartesian(a, self._stage(len(a))))

    def physical(self, a: np.ndarray) -> np.ndarray:
        """Real samples of slot coefficients a, staged as in `to_state`."""
        u = self.cartesian(a, self._stage(len(a)))
        return _irfft_spatial(u.reshape((self.grid.dim,) + self.half_shape),
                              self.grid.n, self.grid.dim, self.grid.n // 2)

    # -- dealiased products on the fine lattice ------------------------------

    def fine_physical(self, uh_flat: np.ndarray, visit) -> None:
        """Physical samples of the Cartesian u on the factor-2 lattice, one
        slab at a time: `visit(fine, out, scratch)` gets each slab's (dim,
        points) samples, no `out` rows and two scratch rows, all of which
        it may overwrite."""
        self._lattice.products(
            0, visit, uh_flat.reshape((self.grid.dim,) + self.half_shape))

    @functools.cached_property
    def k_flat(self) -> np.ndarray:
        """k per mode, complex, for `cartesian_rhs` (`_kernels.leray`)."""
        return self.grid.k_half.reshape(self.grid.dim, -1).astype(complex)

    @functools.cached_property
    def kv(self) -> np.ndarray:
        """lambda0 V.k per mode, odd-derivative k, for `cartesian_rhs`."""
        kd = self.grid.k_deriv_half.reshape(self.grid.dim, -1)
        return self.system.params.lambda0 * np.einsum("a,am->m", self.system.V, kd)

    @functools.cached_property
    def _ik(self) -> np.ndarray:
        """i|k| per mode, which turns the slot coefficients into the curl's."""
        return 1j * np.sqrt(self.ksq_flat)

    def _stage(self, rows: int) -> np.ndarray:
        """`rows` contiguous (n_modes,) complex rows at the head of the fine
        lattice's physical buffer, free until a pass has padded its inputs."""
        return self._lattice.physical(2 * rows * self.n_modes).view(
            np.complex128).reshape(rows, self.n_modes)

    def _products(self, a: np.ndarray, sign: float) -> None:
        """The transforms of sign * [lam0 (-u x curl u) + beta|u|^2 u
        - N(u)], of u = Q a, into the fine lattice's band.  u and curl u
        are staged on whole rows and copied into `pad_band`: in the slot
        basis the curl is a slot map too (the k-hat slot of k != 0 is zero,
        and i k x b1 = i|k| b2, i k x b2 = -i|k| b1)."""
        d = self.grid.dim
        p = self.system.params
        lattice = self._lattice
        stage = self._stage(d + 1)
        lattice.pad_band[:d] = lattice.coarse_band(self.cartesian(a, stage[:d]))
        if d == 2:   # curl u = i|k| a0
            w = np.multiply(self._ik, a[0], out=stage[:1])
        else:        # curl u = i|k| (a0 b2 - a1 b1)
            w = _kernels.rotate(self.basis[:, :2],
                                (np.negative(a[1], out=stage[d]), a[0]),
                                self._row, stage[:d])
            w *= self._ik
        lattice.pad_band[d:] = lattice.coarse_band(w)
        del stage, w   # the product pass may replace the physical buffer
        products = _kernels.products_2d if d == 2 else _kernels.products_3d
        lattice.products(d, lambda fine, out, scratch: products(
            fine[:d], fine[d:], sign * p.lambda0, sign * p.beta,
            self.system.V, out, scratch))

    def _nonlinear_G(self, u: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """Transforms of lam0 (-u x curl u) + beta|u|^2 u - N(u), coarse
        band, of the solenoidal part Q Q^T u of the Cartesian u, into `out`
        (not u's buffer) when given."""
        G = np.empty_like(u) if out is None else out
        # G holds the slot coefficients until the lattice has read them
        self._products(self._slot_coeffs(u, G), 1.0)
        return self._lattice.band(G)

    # -- tendency -------------------------------------------------------------

    def rhs(self, a: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        """Tendency of the slot coefficients a outside the integrating
        factor: -Q^T G(Q a) + Q^T f, zero in the k-hat slots of k != 0."""
        if self.linearized:
            out.fill(0.0)
        else:   # -G is formed on the lattice, so Q^T of it is the tendency
            self._products(a, -1.0)
            self._slot_coeffs(self._lattice.band(self._stage(len(a))), out)
        if self.forcing is not None:
            out += self._slot_coeffs(self._forcing_half(t))
        return out

    def cartesian_rhs(self, u: np.ndarray, t: float, out: np.ndarray
                      ) -> np.ndarray:
        """The whole explicit tendency of the Cartesian u,
        -P[lam0 (u.grad)u + M u + beta|u|^2 u - N(u)] - i lam0 (V.k) u + P f
        (what `nonlinear_rhs` returns); the products see the solenoidal part
        of u only."""
        # G sits in out, which assemble_rhs reads before it writes it
        G = 0.0 if self.linearized else self._nonlinear_G(u, out)
        _kernels.assemble_rhs(G, u, self.Mmat, self.k_flat, self.ksq_flat,
                              self.kv, out)
        if self.forcing is not None:
            out += self._forcing_half(t)
        return out

    def _forcing_half(self, t: float) -> np.ndarray:
        f = self.forcing(t)
        coeffs = f.coeffs if isinstance(f, SpectralField) else np.asarray(f)
        coeffs = project_coeffs(self.grid, to_half(self.grid, coeffs))
        return zero_nyquist(self.grid, coeffs).reshape(self.grid.dim, self.n_modes)


class Stepper(Tendency):
    """A `Tendency` with its ETDRK4 step coefficients, the integrating
    factor of the full linear symbol."""

    def __init__(self, system: TransformedSystem, grid: SpectralGrid, dt: float,
                 linearized: bool = False,
                 forcing: Callable[[float], SpectralField] | None = None):
        super().__init__(system, grid, linearized, forcing)
        self.dt = float(dt)

        max_growth = float(max(0.0, np.max(-self.symbol.real)))
        if self.dt * max_growth > 0.1:
            warnings.warn(
                f"dt * max linear growth = {self.dt * max_growth:.3g} "
                "> 0.1; the integrating factor amplifies growing modes strongly "
                "per step - consider a smaller dt", RuntimeWarning,
                stacklevel=2)
        self.E = np.exp(-self.dt * self.symbol)
        self._out_bufs = [np.empty((grid.dim, self.n_modes), np.complex128)
                          for _ in range(2)]

    @functools.cached_property
    def _stages(self) -> tuple:
        """The ETDRK4 stage coefficients (E2, Q, f1, 2 f2, f3) and the four
        stage buffers (N0, A, Na, B) of `step`, built on the first staged
        step: a linearized unforced stepper never takes one."""
        h, z = self.dt, -self.dt * self.symbol
        coeffs = (np.exp(0.5 * z), h * 0.5 * _phi(0.5 * z, 1),
                  h * (_phi(z, 1) - 3.0 * _phi(z, 2) + 4.0 * _phi(z, 3)),
                  2.0 * (h * (_phi(z, 2) - 2.0 * _phi(z, 3))),
                  h * (4.0 * _phi(z, 3) - _phi(z, 2)))
        return coeffs, [np.empty_like(self._out_bufs[0]) for _ in range(4)]

    def step(self, u: np.ndarray, t: float) -> np.ndarray:
        """One ETDRK4 step of the slot coefficients u from time t, into the
        one of the stepper's two buffers that u is not, so a run alternates
        them; with no tendency (linearized, unforced), E u exactly.  `out`,
        written last, is the combines' scratch and holds Nb; B takes
        2 Nb - N0 then Nc, C overwrites A and Na + Nb overwrites Na."""
        out = self._out_bufs[u is self._out_bufs[0]]
        if self.linearized and self.forcing is None:
            return np.multiply(self.E, u, out=out)
        h = self.dt
        (E2, Q, f1, f2x2, f3), (N0, A, Na, B) = self._stages
        self.rhs(u, t, N0)
        _kernels.stage_combine(E2, u, Q, N0, A, out)
        self.rhs(A, t + 0.5 * h, Na)
        _kernels.stage_combine(E2, u, Q, Na, B, out)
        Nb = self.rhs(B, t + 0.5 * h, out)
        np.subtract(np.multiply(2.0, Nb, out=B), N0, out=B)   # 2 Nb - N0
        C = _kernels.stage_combine(E2, A, Q, B, A, B)
        Na += Nb
        Nc = self.rhs(C, t + h, B)
        return _kernels.etdrk4_final(self.E, u, f1, N0, f2x2, Na, f3, Nc,
                                     out, A)


def nonlinear_rhs(state: SolverState, *, linearized: bool = False,
                  forcing: Callable[[float], SpectralField] | None = None
                  ) -> SpectralField:
    """Explicit tendency of the transformed system at the given state:

        -P[lam0 ((u+V).grad)u + M u + beta|u|^2 u - N(u)] + P f

    The stiff diagonal Gamma2|k|^4 + Gamma0|k|^2 is not included (the
    integrating factor handles it); the constant drift enters spectrally as
    -i lam0 (V.k) u.  The products are formed from the slot coefficients of
    u, so for a non-solenoidal u they see its solenoidal part only (M u and
    the drift see all of it).  Raises BlowUpError on non-finite input.
    """
    if not np.all(np.isfinite(state.u_hat.coeffs.view(np.float64))):
        raise BlowUpError(state.t, state)
    tendency = Tendency(state.system, state.grid, linearized, forcing)
    u = tendency._half(state.u_hat)
    return tendency._field(
        tendency.cartesian_rhs(u, state.t, np.empty_like(u)))


def step(state: SolverState, config: SolverConfig, *, linearized: bool = False,
         forcing=None) -> SolverState:
    """Advance one ETDRK4 step (one-off convenience; use `run` for loops,
    which reuses the precomputed coefficients)."""
    stepper = Stepper(state.system, state.grid, config.dt,
                      linearized=linearized, forcing=forcing)
    uh = stepper.from_state(state.u_hat)
    out = stepper.step(uh, state.t)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise BlowUpError(state.t + config.dt, state)
    return SolverState(state.t + config.dt, stepper.to_state(out),
                       state.system, state.grid)


# --------------------------------------------------------------------------
# run loop with diagnostics sampling
# --------------------------------------------------------------------------

class _SeriesRecorder:
    """Accumulates the diagnostic series from Cartesian half-spectrum
    states (`Tendency.cartesian` of the slot coefficients).

    `sample` is the one place the L2 budget terms of a state are computed:
    the run series, `diagnostics.energy_budget` and both identity residuals
    all take them from it.  Quartic and quadratic terms are sampled on the
    tendency's fine lattice; a linearized tendency leaves out int u.N(u),
    which is -3 beta int |u|^2 (u.V) for the polar N.
    """

    def __init__(self, tendency: Tendency, tracked: Sequence[Sequence[float]]):
        grid = tendency.grid
        self.tendency = tendency
        self.grid = grid
        self.vol = grid.volume
        # per mode, the weights of ||u||^2, ||grad u||^2 and ||Lap u||^2;
        # the first also per float of the coefficients (re, im)
        w = grid.parseval_weight_half.reshape(-1)
        ksq = tendency.ksq_flat
        self.weights = np.stack([w, w * ksq, w * ksq * ksq])
        self.w_float = np.repeat(w, 2)
        self.V = tendency.system.V
        self.tracked = [tuple(float(c) for c in k) for k in tracked]
        self.amp_idx = [np.ravel_multi_index(self._half_index(k),
                                             grid.half_shape)
                        for k in self.tracked]
        self.rows: list[dict[str, float]] = []

    def _half_index(self, k) -> tuple[int, ...]:
        m = [int(round(c / self.grid.dk)) for c in k]
        self.grid.mode_index(k)  # validates lattice membership
        if m[-1] < 0:
            m = [-c for c in m]  # conjugate partner, same amplitude
        return tuple(mi % self.grid.n for mi in m[:-1]) + (m[-1],)

    def sample(self, t: float, uh_flat: np.ndarray) -> bool:
        """Record the row of the state at time t; True if it is all finite.

        Works on the float view of uh_flat, which it does not write, and on
        the fine lattice's rows in place: it allocates per-mode rows only,
        and calls BLAS only where a step does (the lattice's GEMMs), since
        helper threads would spin through the steps between samples.
        """
        st = self.tendency
        x = uh_flat.view(np.float64)          # (dim, 2 n_modes): re, im
        a2 = np.einsum("ip,ip->p", x, x)
        a2 = a2[0::2] + a2[1::2]              # |u|^2 per mode
        l2, grad, lap = self.vol * np.einsum("km,m->k", self.weights, a2)
        ks = self.grid.k_half.reshape(self.grid.dim, -1)
        div = ks[0] * uh_flat[0]              # k.u per mode
        for k, c in zip(ks[1:], uh_flat[1:]):
            div += k * c
        div = div.view(np.float64)
        div *= div
        div_sq = float((div[0::2] + div[1::2]).max())
        denom_sq = float(a2.max())
        # the weighted Gram matrix vol sum_m w_m Re(conj(u_i) u_j) gives
        # int u.Mu and ||V.u||^2
        xw = x * self.w_float
        gram = self.vol * np.einsum("ip,jp->ij", xw, x)
        if st.forcing is not None:
            f = st._forcing_half(t).view(np.float64)
            f_inner = self.vol * float(np.einsum("ip,ip->", xw, f))
        else:
            f_inner = 0.0

        polar = not st.linearized and self.V.any()
        sums = [0.0, 0.0]   # of |u|^4 and of |u|^2 (u.V) over the lattice

        def visit(fine, out, scratch):
            if polar:   # u.V, before squaring
                uv = np.einsum("i,im->m", self.V, fine, out=scratch[0])
            s = fine[0]                       # |u|^2, in the sample rows
            s *= s
            for c in fine[1:]:
                c *= c
                s += c
            if polar:
                sums[1] += float(np.multiply(uv, s, out=uv).sum())
            s *= s                            # |u|^4
            sums[0] += float(s.sum())
        st.fine_physical(uh_flat, visit)
        points = st._lattice.nf ** self.grid.dim
        # u.N(u) = -3 beta |u|^2 (u.V)
        n_inner = (-3.0 * st.system.params.beta * self.vol
                   * (sums[1] / points) if polar else 0.0)
        row = {
            "t": t,
            "l2_norm_sq": float(l2),
            "l4_norm_4": self.vol * (sums[0] / points),
            "grad_norm_sq": float(grad),
            "lap_norm_sq": float(lap),
            "div_residual": (math.sqrt(div_sq / denom_sq) if denom_sq > 0
                             else 0.0),
            "m_form": float(np.sum(st.Mmat * gram)),
            "ordered_proj_sq": float(np.einsum("i,ij,j->", self.V, gram,
                                               self.V)),
            "n_inner": n_inner,
            "f_inner": f_inner,
        }
        for k, idx in zip(self.tracked, self.amp_idx):
            row[amp_label(k)] = math.sqrt(a2[idx])
        self.rows.append(row)
        return all(map(math.isfinite, row.values()))

    def columns(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The sample times and one array per series, in sampling order."""
        if not self.rows:
            return np.empty(0), {}
        cols = {key: np.asarray([row[key] for row in self.rows])
                for key in self.rows[0]}
        return cols.pop("t"), cols


def run(initial: SpectralField, system: TransformedSystem, grid: SpectralGrid,
        config: SolverConfig, *, forcing: Callable[[float], SpectralField] | None = None,
        linearized: bool = False, tracked_wavevectors: Sequence[Sequence[float]] = (),
        on_snapshot: Callable[[float, np.ndarray], None] | None = None
        ) -> Trajectory:
    """Integrate to t_end, sampling diagnostics on `config.sample_steps` and
    taking physical snapshots on `config.snapshot_steps`.

    Each snapshot goes to `on_snapshot(t, physical)` as it is taken, when
    given, and is not kept; otherwise it is kept in `Trajectory.snapshots`.

    The initial field must be solenoidal (its slot coefficients drop the
    roundoff gradient part); forcing, when given, is projected as well.
    Deterministic for fixed inputs.  A step to non-finite coefficients, or a sample with a
    non-finite value (not recorded), raises BlowUpError carrying the last
    state with finite coefficients and the trajectory sampled up to it.
    """
    # fails closed: a nan residual is rejected too
    if not initial.divergence_residual() <= 1e-8:
        raise ValueError("initial data is not solenoidal")
    stepper = Stepper(system, grid, config.dt,
                      linearized=linearized, forcing=forcing)
    uh = stepper.from_state(initial)
    recorder = _SeriesRecorder(stepper, tracked_wavevectors)
    nsteps = config.nsteps
    sample_steps = set(config.sample_steps)
    snapshot_steps = set(config.snapshot_steps)

    traj = Trajectory(grid=grid, system=system, config=config,
                      linearized=linearized, tracked=recorder.tracked)

    def finalize(t, uh_flat):
        # no step follows: the stage buffers make room for the final field
        stepper.__dict__.pop("_stages", None)
        traj.final = SolverState(t, stepper.to_state(uh_flat), system, grid)
        traj.times, traj.series = recorder.columns()
        return traj

    def blow_up(t_fail, t, uh_flat):
        raise BlowUpError(t_fail, finalize(t, uh_flat).final, traj)

    def record(i, uh_flat):
        t = i * config.dt
        if i in sample_steps:   # u staged in the lattice, as for snapshots
            u = stepper.cartesian(uh_flat, stepper._stage(len(uh_flat)))
            if not recorder.sample(t, u):
                recorder.rows.pop()   # a non-finite sample is not recorded
                blow_up(t, t, uh_flat)
        if i in snapshot_steps:
            traj.snapshot_times.append(t)
            snap = stepper.physical(uh_flat)
            if on_snapshot is None:
                traj.snapshots.append(snap)
            else:
                on_snapshot(t, snap)

    # overflow on the way to a blow-up is caught by the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, uh)
        for i in range(nsteps):
            t = i * config.dt
            new = stepper.step(uh, t)
            if not np.all(np.isfinite(new.view(np.float64))):
                blow_up(t + config.dt, t, uh)
            uh = new   # one of two alternating buffers: valid for a step
            record(i + 1, uh)

    return finalize(nsteps * config.dt, uh)


# --------------------------------------------------------------------------
# Initial data
# --------------------------------------------------------------------------

def random_solenoidal_field(grid: SpectralGrid, amplitude: float, k0: float,
                            seed: int, zero_mean: bool = True) -> SpectralField:
    """Solenoidal Gaussian field with spectrum exp(-|k|^2/k0^2).

    Normalized so the root-mean-square velocity sqrt(<|u|^2>) equals
    `amplitude`.  Seeded and reproducible.
    """
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = raw * np.exp(-grid.ksq / k0**2)
    # enforce Hermitian symmetry: average with the mirrored conjugate
    mirrored = coeffs
    for ax in range(1, grid.dim + 1):
        mirrored = np.take(mirrored, (-np.arange(grid.n)) % grid.n, axis=ax)
    coeffs = 0.5 * (coeffs + np.conj(mirrored))
    zero_nyquist(grid, coeffs)
    if zero_mean:
        coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    coeffs = project_coeffs(grid, coeffs)
    rms = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    if rms == 0.0:
        raise ValueError("degenerate random field (all modes suppressed)")
    return SpectralField(grid, coeffs * (amplitude / rms))


def single_mode_field(grid: SpectralGrid, k: Sequence[float],
                      polarization: Sequence[float], amplitude: float) -> SpectralField:
    """u(x) = amplitude * cos(k.x) * polarization; polarization must be
    orthogonal to k (solenoidality)."""
    k = np.asarray(k, dtype=float)
    pol = np.asarray(polarization, dtype=float)
    norm = np.linalg.norm(pol)
    if norm == 0:
        raise ValueError("polarization must be nonzero")
    pol = pol / norm
    if abs(float(np.dot(k, pol))) > 1e-12 * max(1.0, float(np.linalg.norm(k))):
        raise ValueError("polarization must be orthogonal to k")
    idx = grid.mode_index(k)
    idx_neg = grid.mode_index(-k)
    coeffs = np.zeros((grid.dim,) + grid.shape, np.complex128)
    coeffs[(slice(None),) + idx] = 0.5 * amplitude * pol
    coeffs[(slice(None),) + idx_neg] += 0.5 * amplitude * pol
    return SpectralField(grid, coeffs)


# --------------------------------------------------------------------------
# Pressure recovery
# --------------------------------------------------------------------------

@dataclass
class PressureFields:
    grad_q: np.ndarray          # physical (dim, n, ..., n)
    q: np.ndarray               # physical scalar, mean-zero gauge
    p: np.ndarray | None        # physical pressure q + lambda1 |v|^2


def recover_pressure(state: SolverState, with_physical_pressure: bool = True
                     ) -> PressureFields:
    """grad q = -(I-P)[lam0 (u.grad)u + (M + beta|u|^2)u - N(u)].

    The bracket is the tendency's, with rotational advection; since
    (u.grad)u = grad(|u|^2/2) - u x curl u, q = q_rot - lam0 |u|^2/2.  q has
    mean zero, and p = q + lambda1 |v|^2 with v = u + V when requested.  As
    in `nonlinear_rhs`, the products see the solenoidal part of u only.
    """
    grid, system = state.grid, state.system
    p = system.params
    d = grid.dim
    tendency = Tendency(system, grid)
    uh = tendency._half(state.u_hat)
    B = (tendency._nonlinear_G(uh) + tendency.Mmat @ uh).reshape(
        (d,) + grid.half_shape)

    def squares(u, out, scratch):   # |u|^2/2 and, for p, |u + V|^2
        out[0] = 0.5 * np.einsum("im,im->m", u, u)
        if with_physical_pressure:
            out[1] = np.einsum("im,im->m", u + system.V[:, None],
                               u + system.V[:, None])
    rows = 2 if with_physical_pressure else 1
    tendency._lattice.products(rows, squares, uh.reshape(B.shape))
    S = tendency._lattice.band(np.zeros_like(B[:rows]))
    S[(0,) * (d + 1)] = 0.0   # the mean of |u|^2/2 is no gradient

    # q_rot = i (k.B)/|k|^2 solves grad q_rot = -(I-P)B (zero at k = 0)
    k = grid.k_half
    q = 1j * np.einsum("a...,a...->...", k, B) / np.where(
        grid.ksq_half == 0.0, 1.0, grid.ksq_half) - p.lambda0 * S[0]
    phys = _irfft_spatial(np.concatenate([1j * k * q, q[None], S[1:]]),
                          grid.n, d, grid.n // 2)
    q = phys[d]
    p_phys = q + p.lambda1 * phys[d + 1] if with_physical_pressure else None
    return PressureFields(grad_q=phys[:d], q=q, p=p_phys)
