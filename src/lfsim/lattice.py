"""The factor-2 zero-padded lattice on the rfft layout, where products of
Nyquist-free coarse fields are exact for quadratic and cubic terms.

The coarse band |m| < h = n/2 pairs with the same band of the fine lattice,
each seen as one view (`coarse_band`, `pad_band`): the columns < h and, on
each leading axis, two blocks of h rows, 0..h-1 and -h..-1, so (rows, 2, h,
[2, h,] h).  The second block starts at m = -h: on a coarse axis the Nyquist
row, which inputs hold at zero, on the fine axis the row it pairs with.
Transforms are pruned to the band (Bowman & Roberts 2011), and products are
formed one L2-sized slab of first-axis planes at a time: no full-lattice
product buffer.  In 3D the pad keeps only the 2h band rows of the middle
axis, whose passes run on each slab.  Fine axes of at most `GEMM_MAX_POINTS`
points take the last-axis transforms as real GEMMs on the h band columns.

The public `dealiased_product` and `l4_norm_4` run on the same lattice as
the solver; like it, they drop a factor's unpaired m = n/2 content.
"""

from typing import Sequence

import numpy as np

from .spectral import SpectralField, SpectralGrid, zero_nyquist


def _band_rows(size: int, h: int) -> tuple[slice, slice]:
    """Rows of a spectral axis of `size` points that hold the band |m| < h."""
    return slice(0, h), slice(size - h + 1, size)


# points per row of a product slab: 128 KiB of float64, so a slab stays in L2
SLAB_POINTS = 16384
# the longest fine axis whose last-axis transforms run as GEMMs
GEMM_MAX_POINTS = 64


def _gemm(a: np.ndarray, mat: np.ndarray, out: np.ndarray) -> None:
    """out = a @ mat on the last axis, as one GEMM per row of a and out."""
    rows, (k, m) = len(a), mat.shape
    np.matmul(a.reshape(rows, -1, k), mat, out=out.reshape(rows, -1, m))


def _irfft_spatial(arr: np.ndarray, n_out: int, dim: int, h: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Band-limited half-spectrum -> real samples (into `out` when given),
    overwriting `arr` in its columns < h: ifft per leading axis, pruned to
    the lines that hold the band |m| < h, and irfft on the last is ~4x
    faster than numpy's irfftn on these shapes."""
    cols = arr[..., :h]
    if dim == 3:
        for rows in _band_rows(arr.shape[-2], h):
            band = cols[..., rows, :]
            np.fft.ifft(band, axis=-3, norm="forward", out=band)
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(arr, n=n_out, axis=-1, norm="forward", out=out)


class FineLattice:
    """The lattice of a grid: `rows` rows of padded input, the first-axis
    passes on them, and one physical buffer for the slab pass, grown to fit;
    between passes the tendency stages its rows there."""

    def __init__(self, grid: SpectralGrid, rows: int):
        d, n = grid.dim, grid.n
        self.dim = d
        self.nf = nf = 2 * n
        self.h = h = n // 2
        # last-axis DFT on the float view of h columns: 2 (cos, -sin) in,
        # bin 0 once (-sin 0 drops its Im, as irfft does); (cos, -sin)/nf out
        self._dft, self._cols = None, nf // 2 + 1
        if nf <= GEMM_MAX_POINTS:
            theta = np.arange(h)[:, None] * np.arange(nf) % nf * 2 * np.pi / nf
            rot = np.stack([np.cos(theta), -np.sin(theta)], 1).reshape(-1, nf)
            inv = 2 * rot
            inv[0] = 1.0
            self._dft, self._cols = (inv, np.ascontiguousarray(rot.T / nf)), h
        # the middle axis of 3D: its 2h band rows 0..h-1, -h..-1 and the h
        # columns; the first-axis passes skip m = -h, which inputs hold at 0
        half_shape = (nf, self._cols) if d == 2 else (nf, 2 * h, h)
        self._mid = _band_rows(2 * h, h) if d == 3 else (slice(None),)
        self._pad = np.zeros((rows,) + half_shape, np.complex128)
        planes = max(1, SLAB_POINTS // nf ** (d - 1))
        self._slabs = [slice(i, min(i + planes, nf))
                       for i in range(0, nf, planes)]
        self._phys = np.empty(0)   # sized for a pass of all rows, no output
        self._slab(self._slabs[0].stop, rows, 0)
        # 4 blocks of h rows on the first fine axis, 2 on a coarse one and on
        # the pad's middle axis: keep the ends
        pick = ((slice(None), slice(None, None, 3))
                + (slice(None),) * (2 * d - 3) + (slice(0, h),))
        fine = (4, h) + (2, h) * (d - 2) + (half_shape[-1],)
        self.pad_band = self._pad.reshape((rows,) + fine)[pick]
        self._coarse = (2, h) * (d - 1) + (n // 2 + 1,)

    def coarse_band(self, half: np.ndarray) -> np.ndarray:
        """The band of coarse half-spectra (rows,) + grid.half_shape or
        (rows, n_modes), as the view that pairs with `pad_band`."""
        return half.reshape((len(half),) + self._coarse)[..., :self.h]

    def physical(self, size: int) -> np.ndarray:
        """The first `size` floats of the physical buffer, grown to fit."""
        if self._phys.size < size:
            self._phys = np.empty(0)   # freed before its successor exists
            self._phys = np.empty(size)
        return self._phys[:size]

    def _slab(self, planes: int, rows: int, out_rows: int) -> tuple:
        """A slab of `planes` first-axis planes in the physical buffer: its
        rows + out_rows + 2 rows of samples and, in 3D, its spectra on the
        whole middle axis, (max(rows, out_rows), planes, nf, columns)."""
        nf, total = self.nf, rows + out_rows + 2
        size = planes * nf ** (self.dim - 1)
        spec = (self.dim == 3) * max(rows, out_rows) * size // nf * self._cols
        buf = self.physical(total * size + 2 * spec)
        return (buf[:total * size].reshape(total, size), buf[total * size:]
                .view(np.complex128).reshape(-1, planes, nf, self._cols))

    def _first_axis(self, transform, buf: np.ndarray) -> None:
        """The first-axis passes of pad rows `buf`, in place in the columns
        < h: in 3D only on the band rows of the middle axis."""
        cols = buf[..., :self.h]
        for rows in self._mid:
            band = cols[..., rows, :]
            transform(band, axis=1, norm="forward", out=band)

    def _inverse_leading(self, halves: tuple) -> np.ndarray:
        """The pad rows of the coarse half-spectra `halves` (each (rows_i,) +
        grid.half_shape, Nyquist-free; none: all, as the caller wrote their
        `pad_band`), zeroed off `pad_band` in the columns < h, where earlier
        passes wrote, and through the first-axis inverse: pruned, it skips
        the transforms of all-zero lines."""
        rows = 0
        for half in halves:
            self.pad_band[rows:rows + len(half)] = self.coarse_band(half)
            rows += len(half)
        buf = self._pad[:rows or len(self._pad)]
        buf[:, self.h:self.nf - self.h + 1, ..., :self.h] = 0.0
        self._first_axis(np.fft.ifft, buf)
        return buf

    def products(self, out_rows: int, form, *halves: np.ndarray) -> None:
        """The transforms of `out_rows` products of the pad rows of
        `_inverse_leading`, into `pad_band`, one slab of first-axis planes at
        a time: the slab's samples `fine` go to `form(fine, out, scratch)`,
        which writes the products into `out` (scratch: two rows; it may
        overwrite `fine` too).  With no `out_rows`, a pass that only visits
        the samples: no forward transforms."""
        nf, h, d = self.nf, self.h, self.dim
        pad = self._pad
        rows = len(self._inverse_leading(halves))
        for planes in self._slabs:
            work, spec = self._slab(planes.stop - planes.start, rows, out_rows)
            if d == 2:
                src, dest = pad[:rows, planes], pad[:out_rows, planes]
            else:   # the middle axis, whole, with zeros off the band rows
                src, dest = spec[:rows], spec[:out_rows]
                cols = src[..., :h]
                cols[..., :h, :] = pad[:rows, planes, :h]
                cols[..., nf - h:, :] = pad[:rows, planes, h:]
                cols[..., h:nf - h, :] = 0.0
                src[..., h:] = 0.0   # read by irfft (none on the GEMM path)
                np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
            if self._dft:
                _gemm(src.view(np.float64), self._dft[0], work[:rows])
            else:
                np.fft.irfft(src, n=nf, axis=-1, norm="forward",
                             out=work[:rows].reshape(src.shape[:-1] + (nf,)))
            form(work[:rows], work[rows:-2], work[-2:])
            if not out_rows:
                continue
            if self._dft:
                _gemm(work[rows:-2], self._dft[1], dest.view(np.float64))
            else:
                np.fft.rfft(work[rows:-2].reshape(dest.shape[:-1] + (nf,)),
                            axis=-1, norm="forward", out=dest)
            if d == 2:   # the pad's columns >= h stay zero (none on GEMMs)
                dest[..., h:] = 0.0
            else:
                cols = dest[..., :h]
                np.fft.fft(cols, axis=-2, norm="forward", out=cols)
                pad[:out_rows, planes, :h] = cols[..., :h, :]
                pad[:out_rows, planes, h:] = cols[..., nf - h:, :]
        if out_rows:
            self._first_axis(np.fft.fft, pad[:out_rows])

    def band(self, out: np.ndarray) -> np.ndarray:
        """The band of the last `products` call in the coarse half-spectra
        `out`, (rows,) + grid.half_shape or (rows, n_modes), contiguous, with
        the modes outside the band, the m = n/2 slot of each axis, zeroed."""
        half = out.reshape((len(out),) + self._coarse)
        half[..., :self.h] = self.pad_band[:len(out)]
        half[..., self.h] = 0.0
        for a in range(self.dim - 1):   # the first row of a second block
            half[(slice(None),) * (1 + 2 * a) + (1, 0)] = 0.0
        return out


def dealiased_product(grid: SpectralGrid, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Alias-free pointwise product of 2 or 3 real scalar fields.

    Factors are physical-space samples on the grid; their m = n/2 slots are
    dropped.  Returns the half-spectrum coefficients, grid.half_shape, of
    the product's Nyquist-free band (the unpaired mode slots are zero).
    """
    if len(factors) not in (2, 3):
        raise ValueError(f"need 2 or 3 factors, got {len(factors)}")
    for f in factors:
        if np.shape(f) != grid.shape:
            raise ValueError(f"factor shape {np.shape(f)}, expected {grid.shape}")
    halves = np.fft.rfftn(np.asarray(factors, dtype=float),
                          axes=tuple(range(1, grid.dim + 1)), norm="forward")
    lattice = FineLattice(grid, len(factors))
    lattice.products(1, lambda fine, out, scratch: np.prod(
        fine, axis=0, out=out[0]), zero_nyquist(grid, halves))
    return lattice.band(np.empty_like(halves[:1]))[0]


def l4_norm_4(field: SpectralField) -> float:
    """Integral of |u|^4, quadrature on the fine lattice (exact for the
    Nyquist-free band; the m = n/2 slots are dropped)."""
    g = field.grid
    uh = zero_nyquist(g, field.coeffs.copy())
    lattice, total = FineLattice(g, g.dim), [0.0]

    def visit(fine, out, scratch):
        s = np.einsum("im,im->m", fine, fine, out=scratch[0])
        total[0] += float(s @ s)
    lattice.products(0, visit, uh)
    return g.volume * total[0] / lattice.nf ** g.dim
