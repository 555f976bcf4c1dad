"""Periodic spectral discretization: grids, transforms, projection, dealiasing.

The whole-space problem is truncated to a periodic box [0, L)^dim sampled on
an even N^dim grid.  Fields live either as real samples (component on the
leading axis) or as Fourier coefficients in the amplitude convention: the
forward transform carries the 1/N^dim factor, so the coefficient at mode 0
is the spatial mean and a unit cosine has coefficients 1/2 at +-k.

Coefficients are held in one layout, the rfft half-spectrum (dim,) +
`SpectralGrid.half_shape`: the last axis keeps m_last = 0..N/2, and a real
field's other modes are the conjugates c(-k) = conj c(k).  The planes
m_last = 0 and N/2 hold both k and -k; `hermitian_residual` measures how far
they are from that symmetry, and `SpectralGrid.mode_index` finds any k in
the layout.  Sums over the lattice weight each stored mode by its
multiplicity (`parseval_weight_half`).

Wavevectors are k = (2*pi/L) * m with integer m in {-N/2+1, ..., N/2}; the
unpaired mode m = N/2 has no conjugate partner, so odd spectral derivatives
drop it (see the derivative table `k_deriv_half`) and product truncation
excludes it from the result band.

The Helmholtz/Leray projector is the modewise multiplier I - k k^T/|k|^2,
extended by the identity at k = 0 so that mean modes are preserved.  Zero
padding and exact truncation of the full lattice (`pad_spectrum`,
`truncate_spectrum`) are the reference that the tests hold the products of
`lattice.FineLattice` to; no program code calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "forward",
    "inverse",
    "leray_project",
    "project_coeffs",
    "gradient_coeffs",
    "divergence_coeffs",
    "curl_coeffs",
    "pad_spectrum",
    "truncate_spectrum",
    "zero_nyquist",
    "l2_norm_sq",
    "grad_norm_sq",
    "inner_l2",
    "write_snapshot",
    "read_snapshot",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = "LFSNAP v1"


def _mode_numbers(n: int) -> np.ndarray:
    """Integer mode numbers in FFT storage order, Nyquist mapped to +n/2."""
    m = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    m[n // 2] = n // 2
    return m


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class SpectralGrid:
    """Periodic grid bookkeeping: the rfft half-spectrum's wavevector tables.

    Immutable and shareable; all arrays are read-only.  Grids with the same
    (dim, n, length) are equal, and hash alike.
    """

    def __init__(self, dim: int, points_per_axis: int, box_length: float):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if points_per_axis < 8 or points_per_axis % 2 != 0:
            raise ValueError(
                f"points_per_axis must be even and >= 8, got {points_per_axis}")
        if not (np.isfinite(box_length) and box_length > 0):
            raise ValueError(f"box_length must be > 0, got {box_length}")
        self.dim = dim
        self.n = int(points_per_axis)
        self.length = float(box_length)
        self.shape = (self.n,) * dim
        self.half_shape = (self.n,) * (dim - 1) + (self.n // 2 + 1,)
        self.volume = self.length**dim
        self.dk = 2.0 * np.pi / self.length

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpectralGrid) and self.dim == other.dim
                and self.n == other.n and self.length == other.length)

    def __hash__(self) -> int:
        return hash((self.dim, self.n, self.length))

    def _modes(self, scale: float | None = None,
               deriv: bool = False) -> np.ndarray:
        """Read-only mode numbers of the half-spectrum, times `scale` as
        floats when given; `deriv` zeroes m = n/2, unpaired in odd
        derivatives (cf. Johnson, "Notes on FFT-based differentiation")."""
        m1 = _mode_numbers(self.n)
        m = np.stack(np.meshgrid(*[m1] * (self.dim - 1), m1[:self.n // 2 + 1],
                                 indexing="ij"))
        if deriv:
            m[m == self.n // 2] = 0
        return _frozen(m if scale is None else scale * m.astype(float))

    # positions of the axis samples: x_i = i*L/n
    @cached_property
    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @cached_property
    def mesh(self) -> np.ndarray:
        """Physical coordinates, shape (dim, n, ..., n)."""
        coords = np.meshgrid(*([self.axis_points] * self.dim), indexing="ij")
        return _frozen(np.stack(coords))

    @cached_property
    def k_half(self) -> np.ndarray:
        return self._modes(self.dk)

    @cached_property
    def k_deriv_half(self) -> np.ndarray:
        return self._modes(self.dk, deriv=True)

    @cached_property
    def ksq_half(self) -> np.ndarray:
        return _frozen(np.sum(self.k_half**2, axis=0))

    @cached_property
    def parseval_weight_half(self) -> np.ndarray:
        """Multiplicity of each stored rfft mode in the full lattice sum."""
        w = np.full(self.half_shape, 2.0)
        w[..., 0] = 1.0
        w[..., self.n // 2] = 1.0
        return _frozen(w)

    def mode_index(self, k: Sequence[float]) -> tuple[tuple[int, ...], bool]:
        """Where the half-spectrum holds the wavevector k: its index and
        whether the coefficient stored there is its conjugate partner's,
        c(k) = conj c(-k) (for -n/2 < m_last < 0).  The planes m_last = 0
        and n/2 hold k itself.  Rejects non-finite and off-lattice k."""
        k = np.asarray(k, dtype=float)
        if k.shape != (self.dim,):
            raise ValueError(f"wavevector must have shape ({self.dim},)")
        if not np.all(np.isfinite(k)):
            raise ValueError(f"wavevector {k} is not finite")
        m = np.rint(k / self.dk).astype(int)
        if np.max(np.abs(k - m * self.dk)) > 1e-9 * max(1.0, float(np.max(np.abs(k)))):
            raise ValueError(f"wavevector {k} is not on the grid lattice")
        if np.any(np.abs(m) > self.n // 2):
            raise ValueError(f"wavevector {k} is beyond the grid Nyquist")
        conjugate = bool(-(self.n // 2) < m[-1] < 0)
        if conjugate:
            m = -m
        return tuple(int(mi) % self.n for mi in m), conjugate

    def __repr__(self):
        return f"SpectralGrid(dim={self.dim}, n={self.n}, L={self.length:g})"


@dataclass
class SpectralField:
    """Divergence-free-capable vector field stored as Fourier coefficients.

    coeffs has shape (dim,) + grid.half_shape, complex, amplitude
    convention: the rfft half-spectrum of the module docstring.
    """

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.grid.dim,) + self.grid.half_shape
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match the grid's "
                f"half-spectrum {expected}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def to_physical(self) -> np.ndarray:
        return inverse(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def hermitian_residual(self) -> float:
        """max |c(-k) - conj(c(k))| over the planes m_last = 0 and n/2,
        which hold both k and -k (0 for real fields)."""
        n = self.grid.n
        planes = self.coeffs[..., [0, n // 2]]
        mirrored = planes
        for ax in range(1, self.grid.dim):
            mirrored = np.take(mirrored, (-np.arange(n)) % n, axis=ax)
        return float(np.max(np.abs(mirrored - np.conj(planes))))

    def divergence_residual(self) -> float:
        """max_k |k . u(k)| / max_k |u(k)|; zero field gives zero, and
        non-finite coefficients give nan.  Scaled by max |coefficient|
        first, so that squaring cannot overflow."""
        scale = np.max(np.abs(self.coeffs))
        if not np.isfinite(scale):
            return np.nan
        if scale == 0.0:
            return 0.0
        c = self.coeffs / scale
        div = np.sum(self.grid.k_half * c, axis=0)
        denom = np.max(np.sqrt(np.sum(np.abs(c) ** 2, axis=0)))
        return float(np.max(np.abs(div)) / denom)

    def mode_amplitude(self, k: Sequence[float]) -> float:
        """Euclidean norm over components of the coefficient at wavevector k."""
        idx, _ = self.grid.mode_index(k)
        return float(np.sqrt(np.sum(np.abs(self.coeffs[(slice(None),) + idx]) ** 2)))


def forward(grid: SpectralGrid, physical: np.ndarray) -> SpectralField:
    """Real samples (dim, n, ..., n) -> amplitude-convention coefficients."""
    physical = np.asarray(physical, dtype=float)
    expected = (grid.dim,) + grid.shape
    if physical.shape != expected:
        raise ValueError(f"physical shape {physical.shape}, expected {expected}")
    axes = tuple(range(1, grid.dim + 1))
    return SpectralField(grid, np.fft.rfftn(physical, axes=axes,
                                            norm="forward"))


def inverse(field: SpectralField) -> np.ndarray:
    """Coefficients -> real samples; an anti-Hermitian part of the planes
    m_last = 0 and n/2, which a real field does not have, is dropped."""
    axes = tuple(range(1, field.grid.dim + 1))
    return np.fft.irfftn(field.coeffs, s=field.grid.shape, axes=axes,
                         norm="forward")


# --------------------------------------------------------------------------
# Leray (Helmholtz) projection and spectral derivatives
# --------------------------------------------------------------------------

def project_coeffs(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Apply I - k k^T/|k|^2 modewise; identity at k = 0.  Returns new array."""
    k = grid.k_half
    ksq = np.where(grid.ksq_half == 0.0, 1.0, grid.ksq_half)
    kdotu = np.einsum("a...,a...->...", k, coeffs)
    return coeffs - k * (kdotu / ksq)


def leray_project(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, project_coeffs(field.grid, field.coeffs))


def gradient_coeffs(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """d/dx_a as a new leading axis: out[a, ...] = i k_a * coeffs."""
    return 1j * grid.k_deriv_half.reshape(
        (grid.dim,) + (1,) * (coeffs.ndim - grid.dim) + grid.half_shape
    ) * coeffs


def divergence_coeffs(grid: SpectralGrid, vec_coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("a...,a...->...", 1j * grid.k_deriv_half, vec_coeffs)


def curl_coeffs(grid: SpectralGrid, vec_coeffs: np.ndarray) -> np.ndarray:
    """2D: scalar vorticity d1 u2 - d2 u1.  3D: the full curl vector."""
    kd = grid.k_deriv_half
    if grid.dim == 2:
        return 1j * (kd[0] * vec_coeffs[1] - kd[1] * vec_coeffs[0])
    return np.stack([
        1j * (kd[1] * vec_coeffs[2] - kd[2] * vec_coeffs[1]),
        1j * (kd[2] * vec_coeffs[0] - kd[0] * vec_coeffs[2]),
        1j * (kd[0] * vec_coeffs[1] - kd[1] * vec_coeffs[0]),
    ])


# --------------------------------------------------------------------------
# Zero padding and truncation
# --------------------------------------------------------------------------

def _pad_axis(arr: np.ndarray, axis: int, n_to: int) -> np.ndarray:
    """Zero-pad one spectral axis from n to n_to, splitting the unpaired mode.

    The coefficient in the m = n/2 slot is halved onto +-n/2 of the fine
    lattice so the real trigonometric interpolant is preserved exactly.
    """
    n = arr.shape[axis]
    half = n // 2
    shape = list(arr.shape)
    shape[axis] = n_to
    out = np.zeros(shape, dtype=arr.dtype)

    def sl(a, b):
        idx = [slice(None)] * arr.ndim
        idx[axis] = slice(a, b)
        return tuple(idx)

    out[sl(0, half)] = arr[sl(0, half)]
    out[sl(n_to - (half - 1), n_to)] = arr[sl(half + 1, n)]
    nyq = arr[sl(half, half + 1)]
    out[sl(half, half + 1)] = 0.5 * nyq
    out[sl(n_to - half, n_to - half + 1)] += 0.5 * nyq
    return out


def _truncate_axis(arr: np.ndarray, axis: int, n_to: int) -> np.ndarray:
    """Inverse of `_pad_axis`: keep the coarse band, folding +-n_to/2."""
    n = arr.shape[axis]
    half = n_to // 2
    shape = list(arr.shape)
    shape[axis] = n_to
    out = np.empty(shape, dtype=arr.dtype)

    def slc(container, a, b):
        idx = [slice(None)] * container
        idx[axis] = slice(a, b)
        return tuple(idx)

    out[slc(arr.ndim, 0, half)] = arr[slc(arr.ndim, 0, half)]
    out[slc(arr.ndim, half + 1, n_to)] = arr[slc(arr.ndim, n - (half - 1), n)]
    out[slc(arr.ndim, half, half + 1)] = (
        arr[slc(arr.ndim, half, half + 1)] + arr[slc(arr.ndim, n - half, n - half + 1)])
    return out


def pad_spectrum(grid: SpectralGrid, coeffs: np.ndarray, n_fine: int) -> np.ndarray:
    """Zero-pad full-lattice coefficients to an n_fine^dim lattice."""
    out = coeffs
    for ax in range(coeffs.ndim - grid.dim, coeffs.ndim):
        out = _pad_axis(out, ax, n_fine)
    return out


def truncate_spectrum(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Truncate fine-lattice coefficients back to the grid's n^dim lattice."""
    out = coeffs
    for ax in range(coeffs.ndim - grid.dim, coeffs.ndim):
        out = _truncate_axis(out, ax, grid.n)
    return out


def zero_nyquist(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero the unpaired m = n/2 slots along every spectral axis (in place)."""
    for ax in range(coeffs.ndim - grid.dim, coeffs.ndim):
        idx = [slice(None)] * coeffs.ndim
        idx[ax] = grid.n // 2
        coeffs[tuple(idx)] = 0.0
    return coeffs


# --------------------------------------------------------------------------
# Norms and inner products (Parseval, amplitude convention)
# --------------------------------------------------------------------------

def l2_norm_sq(field: SpectralField) -> float:
    """Integral of |u|^2 over the box = volume * sum_k |u_hat|^2."""
    return field.grid.volume * float(np.sum(
        field.grid.parseval_weight_half * np.abs(field.coeffs) ** 2))


def grad_norm_sq(field: SpectralField) -> float:
    g = field.grid
    a2 = np.sum(np.abs(field.coeffs) ** 2, axis=0)
    return g.volume * float(np.sum(g.parseval_weight_half * g.ksq_half * a2))


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    """Discrete L^2 inner product of two real fields."""
    return f.grid.volume * float(np.sum(f.grid.parseval_weight_half * np.real(
        f.coeffs * np.conj(g.coeffs))))


# --------------------------------------------------------------------------
# Snapshot file format (LFSNAP v1)
# --------------------------------------------------------------------------
# One ASCII header line, then raw little-endian float64 physical samples,
# component-major with axis 0 varying fastest.

def write_snapshot(path, grid: SpectralGrid, physical: np.ndarray, t: float) -> None:
    physical = np.asarray(physical, dtype=float)
    expected = (grid.dim,) + grid.shape
    if physical.shape != expected:
        raise ValueError(f"physical shape {physical.shape}, expected {expected}")
    header = (f"{SNAPSHOT_MAGIC} dim={grid.dim} n={grid.n} "
              f"L={float(grid.length)!r} t={float(t)!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for c in range(grid.dim):
            fh.write(physical[c].astype("<f8").tobytes(order="F"))


def read_snapshot(path) -> tuple[np.ndarray, dict]:
    """Returns (physical (dim, n, ..., n), meta {dim, n, L, t})."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        payload = fh.read()
    parts = header.split()
    if parts[:2] != SNAPSHOT_MAGIC.split():
        raise ValueError(f"not an LFSNAP file: header {header!r}")
    meta = {}
    for tok in parts[2:]:
        key, _, val = tok.partition("=")
        meta[key] = val
    dim = int(meta["dim"])
    n = int(meta["n"])
    out = {"dim": dim, "n": n, "L": float(meta["L"]), "t": float(meta["t"])}
    count = n**dim
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != dim * count:
        raise ValueError(
            f"snapshot payload has {data.size} floats, expected {dim * count}")
    comps = [data[c * count:(c + 1) * count].reshape((n,) * dim, order="F")
             for c in range(dim)]
    return np.stack(comps), out
