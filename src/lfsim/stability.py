"""Linear stability: Fourier symbols, the unstable band, classifications.

The linearized evolution of a perturbation mode k under exp(-t*A) is
governed by the symbol

    sigma(k) = Gamma2|k|^4 + Gamma0|k|^2 + P(k) M + i*lambda0 (V.k),

with P(k) = I - k k^T/|k|^2 the Helmholtz projector (identity at k = 0).
Growth rates are the negated real parts of the symbol's eigenvalues on the
solenoidal subspace k-perp, which is the actual state space; the raw
dim x dim matrix has an extra eigenvalue along the gradient direction k that
no divergence-free field can realize.

The symbol is diagonalized in one place, `_slot_basis`: per wavevector, a
real orthonormal basis whose first dim - 1 slots span k-perp and diagonalize
P M P there (all dim slots at k = 0).  The solver integrates in that basis,
and `growth_rate` and `lattice_growth_rates` read -min Re of the symbol over
those live slots.  `symbol_at` is the dense textbook matrix, kept as the
reference.  Classifications are evaluated on the continuum criterion (closed
form in |k|), so box-size artifacts cannot flip them; lattice maxima are
reported separately for experiment design.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, StateKind, TransformedSystem
from .spectral import SpectralGrid

__all__ = [
    "Classification",
    "SymbolMatrix",
    "BandResult",
    "StabilityReport",
    "symbol_at",
    "growth_rate",
    "unstable_band",
    "classify_disordered",
    "classify_ordered",
    "lattice_growth_rates",
    "lattice_max_growth",
    "PhaseDiagram",
    "phase_diagram",
    "write_phase_diagram_csv",
    "write_dispersion_csv",
]

ORDERED_L2_NOTE = ("asymptotic stability of the ordered state is an L2 "
                   "statement; no L^p analogue is claimed for p != 2")


class Classification(enum.Enum):
    EXPONENTIALLY_STABLE = "exponentially_stable"
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    EXPONENTIALLY_UNSTABLE = "exponentially_unstable"


@dataclass(frozen=True)
class SymbolMatrix:
    k: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class BandResult:
    """Open interval (s_minus_sq, s_plus_sq) of unstable squared wavenumbers."""
    has_band: bool
    s_minus_sq: float = math.nan
    s_plus_sq: float = math.nan


@dataclass(frozen=True)
class StabilityReport:
    state_kind: StateKind
    classification: Classification
    max_growth_rate: float
    argmax_wavevector: np.ndarray
    band: BandResult | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        band = None
        if self.band is not None and self.band.has_band:
            band = {"s_minus_sq": self.band.s_minus_sq,
                    "s_plus_sq": self.band.s_plus_sq}
        return {
            "state": self.state_kind.value,
            "classification": self.classification.value,
            "max_growth_rate": self.max_growth_rate,
            "argmax_wavevector": [float(c) for c in self.argmax_wavevector],
            "band": band,
            "note": self.note,
        }


# --------------------------------------------------------------------------
# Symbol evaluation
# --------------------------------------------------------------------------

def _projector(k: np.ndarray) -> np.ndarray:
    ksq = float(np.dot(k, k))
    if ksq == 0.0:
        return np.eye(len(k))
    return np.eye(len(k)) - np.outer(k, k) / ksq


def symbol_at(system: TransformedSystem, k: Sequence[float]) -> SymbolMatrix:
    """The dim x dim symbol matrix at wavevector k.

    For scalar M = c*I (rest state) the projector commutes on the solenoidal
    subspace and the matrix reduces to (Gamma2|k|^4 + Gamma0|k|^2 + c)*I,
    exactly diagonal; otherwise the M term enters as P(k) M P(k).
    """
    p = system.params
    k = np.asarray(k, dtype=float)
    if k.shape != (p.dim,):
        raise ValueError(f"wavevector must have shape ({p.dim},)")
    ksq = float(np.dot(k, k))
    scalar = p.gamma2 * ksq**2 + p.gamma0 * ksq
    drift = 1j * p.lambda0 * float(np.dot(system.V, k))
    if system.scalar_m is not None:
        m_term = system.scalar_m * np.eye(p.dim)
    else:
        P = _projector(k)
        m_term = P @ system.M @ P
    return SymbolMatrix(k, (scalar + drift) * np.eye(p.dim) + m_term)


def _diagonalize_pair(M: np.ndarray, b1: np.ndarray, b2: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Turn the orthonormal pairs (b1, b2), (dim, n_modes) each, by the
    Jacobi angle that makes M diagonal on their span.  The sign of the turn
    is taken apart from its size and a zero off-diagonal turns nothing, so
    an even b1 and an odd b2 stay even and odd bit for bit."""
    Mb1 = np.einsum("ij,jm->im", M, b1)
    Mb2 = np.einsum("ij,jm->im", M, b2)
    off = np.einsum("am,am->m", b1, Mb2)
    half_angle = 0.5 * np.arctan2(2.0 * np.abs(off),
                                  np.einsum("am,am->m", b1, Mb1)
                                  - np.einsum("am,am->m", b2, Mb2))
    c = np.where(off == 0.0, 1.0, np.cos(half_angle))
    s = np.where(off == 0.0, 0.0, np.copysign(np.sin(half_angle), off))
    return c * b1 + s * b2, c * b2 - s * b1


def _slot_basis(system: TransformedSystem, k: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot basis of every wavevector in k (dim, n_modes) and the linear
    symbol in it, in two parts: Q (dim, dim, n_modes), real, orthonormal,
    one slot per column, the stiff row s = Gamma2|k|^4 + Gamma0|k|^2
    (n_modes,), real, and the moved rows mu + i lambda0 (V.k) (dim, n_modes),
    complex, with lam = s + (mu + i lambda0 (V.k)) and

        Gamma2|k|^4 + Gamma0|k|^2 + i lambda0 (V.k) + P M P = Q diag(lam) Q^T

    on k-perp, and M = Q diag(lam) Q^T at k = 0.  The parts come apart so
    that the moved rows keep their digits: lam - s would lose them where the
    stiff row is large (the band edge).  For k != 0 the first
    dim - 1 slots span k-perp: e_perp in 2D; in 3D the pair P e_j/|P e_j|,
    k-hat x that (e_j the axis least aligned with k), turned to diagonalize
    P M P.  The last slot is k-hat, with k-hat's Rayleigh quotient of M as
    its mu; no state uses it.  Every column is even or odd in k bit for bit,
    so the +-k pairs of the half layout stay conjugate.
    """
    p, M = system.params, system.M
    scalar = system.scalar_m is not None
    d, n_modes = k.shape
    ksq = np.einsum("am,am->m", k, k)
    zero = ksq == 0.0
    khat = k / np.sqrt(np.where(zero, 1.0, ksq))
    Q = np.empty((d, d, n_modes))
    Q[:, -1] = khat
    if d == 2:
        Q[0, 0], Q[1, 0] = -khat[1], khat[0]
    else:
        modes = np.arange(n_modes)
        j = np.argmin(np.abs(khat), axis=0)
        b1 = -khat * khat[j, modes]
        b1[j, modes] += 1.0
        b1 /= np.sqrt(np.einsum("am,am->m", b1, b1))
        b2 = np.cross(khat, b1, axis=0)
        if not scalar:
            b1, b2 = _diagonalize_pair(M, b1, b2)
        Q[:, 0], Q[:, 1] = b1, b2
    # at k = 0, M's eigenvectors (the 2D turn spares LAPACK's start-up)
    if scalar:
        Q[:, :, zero] = np.eye(d)[:, :, None]
        mu = np.full((d, n_modes), system.scalar_m)
    else:
        Q0 = (np.concatenate(_diagonalize_pair(M, *np.hsplit(np.eye(2), 2)),
                             axis=1) if d == 2 else np.linalg.eigh(M)[1])
        Q[:, :, zero] = Q0[:, :, None]
        mu = np.einsum("ism,ij,jsm->sm", Q, M, Q)
    drift = p.lambda0 * np.einsum("a,am->m", system.V, k)
    return Q, p.gamma2 * ksq**2 + p.gamma0 * ksq, mu + 1j * drift


def _slot_rates(system: TransformedSystem, k: np.ndarray) -> np.ndarray:
    """Growth rate of every wavevector in k (dim, n_modes): -min Re of the
    symbol over the live slots, all dim at k = 0 and the first dim - 1
    elsewhere (the k-hat slot holds no solenoidal state)."""
    _, stiff, moved = _slot_basis(system, k)
    lam = (stiff + moved).real
    return -np.where(np.any(k, axis=0), lam[:-1].min(axis=0), lam.min(axis=0))


def growth_rate(system: TransformedSystem, k: Sequence[float]) -> float:
    """-min Re eigenvalue of the symbol on the solenoidal subspace.

    Positive means the mode grows under the linearized evolution.
    """
    return float(_slot_rates(system, np.asarray(k, dtype=float)[:, None])[0])


# --------------------------------------------------------------------------
# Unstable band and classifications
# --------------------------------------------------------------------------

def unstable_band(params: ModelParams) -> BandResult:
    """Squared-wavenumber interval where Gamma2 s^4 + Gamma0 s^2 + alpha < 0.

    Rest-state analysis.  A touching root (zero discriminant) yields no open
    band; a negative lower root is clamped to 0 (modes have |k|^2 > 0).
    """
    g0, g2, a = params.gamma0, params.gamma2, params.alpha
    if g0 < 0.0:
        disc = 0.25 - a * g2 / g0**2
        if disc <= 0.0:
            return BandResult(False)
        root = math.sqrt(disc)
        s_minus = (-g0 / g2) * (0.5 - root)
        s_plus = (-g0 / g2) * (0.5 + root)
        return BandResult(True, max(s_minus, 0.0), s_plus)
    if a >= 0.0:
        return BandResult(False)
    # g0 >= 0, a < 0: exactly one positive root of g2 z^2 + g0 z + a
    s_plus = (-g0 + math.sqrt(g0**2 - 4.0 * a * g2)) / (2.0 * g2)
    return BandResult(True, 0.0, s_plus)


def classify_disordered(params: ModelParams) -> StabilityReport:
    """Trichotomy for the rest state.

    gamma0 < 0: exponentially stable / asymptotically stable / exponentially
    unstable according to 4*alpha >, =, < gamma0^2/gamma2.
    gamma0 >= 0: the same according to alpha >, =, < 0.
    """
    g0, g2, a = params.gamma0, params.gamma2, params.alpha
    if g0 < 0.0:
        threshold = g0**2 / g2
        if 4.0 * a > threshold:
            cls = Classification.EXPONENTIALLY_STABLE
        elif 4.0 * a == threshold:
            cls = Classification.ASYMPTOTICALLY_STABLE
        else:
            cls = Classification.EXPONENTIALLY_UNSTABLE
        rate = threshold / 4.0 - a
        s_star = math.sqrt(-g0 / (2.0 * g2))
    else:
        if a > 0.0:
            cls = Classification.EXPONENTIALLY_STABLE
        elif a == 0.0:
            cls = Classification.ASYMPTOTICALLY_STABLE
        else:
            cls = Classification.EXPONENTIALLY_UNSTABLE
        rate = -a
        s_star = 0.0
    argmax = np.zeros(params.dim)
    argmax[0] = s_star
    return StabilityReport(StateKind.DISORDERED, cls, float(rate), argmax,
                           band=unstable_band(params))


def classify_ordered(params: ModelParams) -> StabilityReport:
    """Dichotomy for the polar state (alpha < 0 required).

    Exponentially unstable iff gamma0 < 0 (growth carried by perturbations
    transverse to V; in 2D the witness wavevector is parallel to V, in 3D
    wavevectors perpendicular to V work as well); asymptotically stable (in
    the L2 sense) iff gamma0 >= 0.  Never exponentially stable: the M term
    has a zero eigenvalue along directions perpendicular to V.
    """
    if params.alpha >= 0:
        raise ValueError(
            f"ordered states exist only for alpha < 0, got alpha={params.alpha}")
    g0, g2 = params.gamma0, params.gamma2
    argmax = np.zeros(params.dim)
    if g0 < 0.0:
        cls = Classification.EXPONENTIALLY_UNSTABLE
        rate = g0**2 / (4.0 * g2)
        s_star = math.sqrt(-g0 / (2.0 * g2))
        # canonical V along e1: witness k || V in 2D, k perp V in 3D
        argmax[0 if params.dim == 2 else 1] = s_star
        band = unstable_band(ModelParams(
            params.lambda0, params.lambda1, 0.0, params.beta,
            g0, g2, params.dim))
        note = None
    else:
        cls = Classification.ASYMPTOTICALLY_STABLE
        rate = 0.0
        band = None
        note = ORDERED_L2_NOTE
    return StabilityReport(StateKind.ORDERED, cls, float(rate), argmax,
                           band=band, note=note)


def lattice_growth_rates(system: TransformedSystem, grid: SpectralGrid
                         ) -> np.ndarray:
    """Growth rate of every wavevector of the grid's lattice, grid.shape."""
    return _slot_rates(system, grid.k.reshape(grid.dim, -1)).reshape(grid.shape)


def lattice_max_growth(system: TransformedSystem, grid: SpectralGrid
                       ) -> tuple[float, np.ndarray]:
    """Max growth rate over the grid's wavevector lattice and its argmax.

    Used for experiment design; classifications always use the continuum.
    """
    k = grid.k.reshape(grid.dim, -1)
    rates = _slot_rates(system, k)
    i = int(np.argmax(rates))
    return float(rates[i]), k[:, i].copy()


# --------------------------------------------------------------------------
# Phase diagram
# --------------------------------------------------------------------------

@dataclass
class PhaseDiagram:
    gamma0: np.ndarray            # (res_g,)
    alpha: np.ndarray             # (res_a,)
    disordered: list[list[StabilityReport]]   # [i_g][i_a]
    ordered: list[list[StabilityReport | None]]


def phase_diagram(params_base: ModelParams, gamma0_range: tuple[float, float],
                  alpha_range: tuple[float, float], resolution: int | tuple[int, int]
                  ) -> PhaseDiagram:
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    if min(resolution) < 2:
        raise ValueError("resolution must be >= 2 per axis")
    for rng in (gamma0_range, alpha_range):
        if not all(np.isfinite(rng)):
            raise ValueError("parameter ranges must be finite")
    g0s = np.linspace(*gamma0_range, resolution[0])
    als = np.linspace(*alpha_range, resolution[1])
    dis, orde = [], []
    for g0 in g0s:
        row_d, row_o = [], []
        for a in als:
            cell = ModelParams(params_base.lambda0, params_base.lambda1,
                               float(a), params_base.beta, float(g0),
                               params_base.gamma2, params_base.dim)
            row_d.append(classify_disordered(cell))
            row_o.append(classify_ordered(cell) if a < 0 else None)
        dis.append(row_d)
        orde.append(row_o)
    return PhaseDiagram(g0s, als, dis, orde)


def _argmax_str(k: np.ndarray) -> str:
    return "(" + ";".join("%.12g" % c for c in k) + ")"


def write_phase_diagram_csv(path, diagram: PhaseDiagram,
                            which: str = "disordered") -> None:
    """One row per cell: gamma0, alpha, class, max_growth_rate, argmax_k."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma0", "alpha", "class", "max_growth_rate", "argmax_k"])
        for i, g0 in enumerate(diagram.gamma0):
            for j, a in enumerate(diagram.alpha):
                rep = (diagram.disordered if which == "disordered"
                       else diagram.ordered)[i][j]
                if rep is None:
                    continue
                writer.writerow(["%.12g" % g0, "%.12g" % a,
                                 rep.classification.value,
                                 "%.12g" % rep.max_growth_rate,
                                 _argmax_str(rep.argmax_wavevector)])


def write_dispersion_csv(path, rows: Sequence[dict]) -> None:
    """Measured-vs-predicted rate table; one row per tracked wavevector."""
    fields = ["k", "ksq", "predicted_rate", "measured_rate", "rel_error",
              "r_squared"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["k"] = _argmax_str(np.asarray(row["k"], dtype=float))
            writer.writerow(out)
