"""Model parameters, steady states, and the transformed perturbation system.

The model is the generalized incompressible Navier-Stokes system used for
dense bacterial suspensions ("active turbulence"): advection with strength
lambda0, an active pressure prefactor lambda1, a quartic Landau velocity
potential (alpha + beta|v|^2)v, and a Swift-Hohenberg operator
Gamma0*Lap - Gamma2*Lap^2.  Two families of steady states exist: the rest
state v = 0 and, for alpha < 0, constant polar states with swimming speed
|V| = sqrt(-alpha/beta).

Perturbations u = v - V around either steady state satisfy one generic
system with a drift velocity V, a symmetric zeroth-order matrix M, and a
quadratic term N(u) = sum_{j,k} a_jk u^j u^k:

    rest state:   V = 0,  M = alpha*I,     N = 0
    polar state:  V,      M = 2*beta*V V', N(u) = -beta|u|^2 V - 2 beta (u.V) u,
                  a_jk = -beta*delta_jk*V - beta*(V_j e_k + V_k e_j)

A `TransformedSystem` is the pair (params, V), its kind and M derived; the
products (`_kernels`) take N(u) in the closed form from V and beta.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "StateKind",
    "ModelParams",
    "TransformedSystem",
    "make_disordered_system",
    "make_ordered_system",
    "untransform",
]

_DIRECTION_TOL = 1e-12


class StateKind(enum.Enum):
    DISORDERED = "disordered"
    ORDERED = "ordered"


@dataclass(frozen=True)
class ModelParams:
    """The six physical scalars plus spatial dimension.

    gamma2 > 0 and beta > 0 are hard requirements (the fourth-order term must
    stabilize and the Landau potential must confine); dim is 2 or 3.
    """

    lambda0: float  # advection strength
    lambda1: float  # active-pressure prefactor (enters pressure only)
    alpha: float    # linear Landau coefficient
    beta: float     # cubic Landau coefficient, > 0
    gamma0: float   # second-order gradient coefficient, either sign
    gamma2: float   # fourth-order Swift-Hohenberg coefficient, > 0
    dim: int = 2

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "alpha", "beta", "gamma0", "gamma2"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma2 <= 0:
            raise ValueError(f"gamma2 must be > 0, got {self.gamma2}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    @property
    def swimming_speed(self) -> float:
        """|V| of the polar states, sqrt(-alpha/beta); requires alpha < 0."""
        if self.alpha >= 0:
            raise ValueError("polar steady states require alpha < 0")
        return float(np.sqrt(-self.alpha / self.beta))


@dataclass(frozen=True, eq=False)
class TransformedSystem:
    """The perturbation system about a steady state: the parameters and the
    steady velocity V, 0 (the rest state) or a polar velocity with
    |V|^2 beta = -alpha.  The kind and M follow from them.  Systems with
    equal params and V are equal, and hash alike."""

    params: ModelParams
    V: np.ndarray

    def __post_init__(self):
        V, d = np.asarray(self.V, dtype=float), self.params.dim
        if V.shape != (d,):
            raise ValueError(f"V must have shape ({d},), got {V.shape}")
        # 0, or the polar speed to the direction's tolerance and roundoff
        if np.any(V) and not abs(np.linalg.norm(V) / self.params.swimming_speed
                                 - 1.0) <= 2.0 * _DIRECTION_TOL:
            raise ValueError(
                "V must be 0 or a polar velocity, |V|^2 beta = -alpha")
        V.setflags(write=False)
        object.__setattr__(self, "V", V)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransformedSystem)
                and self.params == other.params
                and np.array_equal(self.V, other.V))

    def __hash__(self) -> int:   # floats, so -0.0 hashes as 0.0
        return hash((self.params, tuple(self.V.tolist())))

    @property
    def kind(self) -> StateKind:
        return StateKind.ORDERED if np.any(self.V) else StateKind.DISORDERED

    @cached_property
    def M(self) -> np.ndarray:
        """alpha*I at rest, 2*beta*V V' about a polar state; read-only."""
        p = self.params
        M = (2.0 * p.beta * np.outer(self.V, self.V)
             if self.kind is StateKind.ORDERED else p.alpha * np.eye(p.dim))
        M.setflags(write=False)
        return M


def make_disordered_system(params: ModelParams) -> TransformedSystem:
    """Perturbation system about the rest state: V = 0, M = alpha*I, N = 0."""
    return TransformedSystem(params, np.zeros(params.dim))


def make_ordered_system(
    params: ModelParams, direction: np.ndarray | None = None
) -> TransformedSystem:
    """Perturbation system about the polar state of speed sqrt(-alpha/beta)
    along the unit ``direction``, by default the first axis (the polar
    states are a sphere of directions)."""
    if params.alpha >= 0:
        raise ValueError(
            f"ordered states exist only for alpha < 0, got alpha={params.alpha}")
    if direction is None:
        direction = np.zeros(params.dim)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (params.dim,):
        raise ValueError(f"direction must have shape ({params.dim},)")
    if abs(np.linalg.norm(direction) - 1.0) > _DIRECTION_TOL:
        raise ValueError("direction must be a unit vector")
    return TransformedSystem(params, params.swimming_speed * direction)


def untransform(u: np.ndarray, system: TransformedSystem) -> np.ndarray:
    """Recover the laboratory velocity v = u + V from the perturbation u.

    ``u`` has the vector component on the leading axis; for the rest state
    this is the identity.
    """
    u = np.asarray(u)
    if u.shape[0] != system.params.dim:
        raise ValueError(
            f"field has {u.shape[0]} components, system is {system.params.dim}-dimensional")
    return u + system.V.reshape((-1,) + (1,) * (u.ndim - 1))
