"""The factor-2 zero-padded lattice on the rfft layout, where products of
Nyquist-free coarse fields are exact for quadratic and cubic terms.

The coarse band |m| < h = n/2 pairs with the same band of the fine lattice,
each seen as one view (`coarse_band`, `pad_band`): the columns < h and, on
each leading axis, two blocks of h rows, 0..h-1 and -h..-1, so (rows, 2, h,
[2, h,] h).  The second block starts at m = -h: on a coarse axis the Nyquist
row, which inputs hold at zero, on the fine axis the row it pairs with.
Transforms are pruned to the band, and products are formed one L2-sized
slab of first-axis planes at a time: no full-lattice product buffer.  Fine
axes of at most `GEMM_MAX_POINTS` points take the last-axis transforms as
real GEMMs on the h band columns, all the pad holds there.
"""

import numpy as np

from .spectral import SpectralGrid


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


def _ifft_leading(arr: np.ndarray, dim: int, h: int) -> None:
    """The pruned inverse passes of the leading axes (Bowman & Roberts 2011),
    in place in the columns < h of `arr`, zero outside the band |m| < h:
    they skip the transforms of all-zero lines."""
    cols = arr[..., :h]
    if dim == 3:
        for rows in _band_rows(arr.shape[-2], h):
            band = cols[..., rows, :]
            np.fft.ifft(band, axis=-3, norm="forward", out=band)
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)


def _irfft_spatial(arr: np.ndarray, n_out: int, dim: int, h: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Band-limited half-spectrum -> real samples (into `out` when given),
    overwriting `arr` in its columns < h: ifft per leading axis and irfft
    on the last is ~4x faster than numpy's irfftn on these shapes."""
    _ifft_leading(arr, dim, h)
    return np.fft.irfft(arr, n=n_out, axis=-1, norm="forward", out=out)


def _fft_leading(arr: np.ndarray, dim: int, h: int) -> None:
    """After rfft on the last axis, the forward passes of the leading axes,
    in place in the columns < h, on the lines that reach the band only
    (truncated forward): `arr` is then valid in the band |m| < h alone."""
    cols = arr[..., :h]
    if dim == 3:
        np.fft.fft(cols, axis=-3, norm="forward", out=cols)
        for rows in _band_rows(arr.shape[-3], h):
            band = cols[..., rows, :, :]
            np.fft.fft(band, axis=-2, norm="forward", out=band)
    else:
        np.fft.fft(cols, axis=-2, norm="forward", out=cols)


class FineLattice:
    """The lattice of a grid: `rows` rows of padded input, whose columns >= h
    (if any) stay zero, and one physical buffer of `sample_rows` (default d)
    rows, grown to fit; between passes the tendency stages its rows there."""

    def __init__(self, grid: SpectralGrid, rows: int, sample_rows: int = 0):
        d, n = grid.dim, grid.n
        self.dim = d
        self.nf = nf = 2 * n
        self.h = h = n // 2
        # last-axis DFT on the float view of h columns: 2 (cos, -sin) in,
        # bin 0 once (-sin 0 drops its Im, as irfft does); (cos, -sin)/nf out
        self._dft, cols = None, nf // 2 + 1
        if nf <= GEMM_MAX_POINTS:
            theta = np.arange(h)[:, None] * np.arange(nf) % nf * 2 * np.pi / nf
            rot = np.stack([np.cos(theta), -np.sin(theta)], 1).reshape(-1, nf)
            inv = 2 * rot
            inv[0] = 1.0
            self._dft, cols = (inv, np.ascontiguousarray(rot.T / nf)), h
        half_shape = (nf,) * (d - 1) + (cols,)
        # off-band rows of each leading axis, in the columns < h passes write
        mid = slice(h, nf - h + 1)
        self._gaps = [(slice(None),) * (1 + a) + (mid,)
                      + (slice(None),) * (d - 2 - a) + (slice(0, h),)
                      for a in range(d - 1)]
        self._pad = np.zeros((rows,) + half_shape, np.complex128)
        self._phys = np.empty((sample_rows or d) * nf ** d)
        planes = max(1, SLAB_POINTS // nf ** (d - 1))
        self._slabs = [slice(i, min(i + planes, nf))
                       for i in range(0, nf, planes)]
        # 4 blocks of h rows on a fine axis, 2 on a coarse one: keep the ends
        pick = ((slice(None),) + (slice(None, None, 3), slice(None)) * (d - 1)
                + (slice(0, h),))
        fine = (4, h) * (d - 1) + (cols,)
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

    def _inverse_leading(self, halves: tuple) -> np.ndarray:
        """The pad rows of the coarse half-spectra `halves` (each (rows_i,) +
        grid.half_shape, Nyquist-free; none: all, as the caller wrote their
        `pad_band`), zeroed off `pad_band` in the columns < h, where earlier
        passes wrote, and through `_ifft_leading`."""
        rows = 0
        for half in halves:
            self.pad_band[rows:rows + len(half)] = self.coarse_band(half)
            rows += len(half)
        buf = self._pad[:rows or len(self._pad)]
        for gap in self._gaps:
            buf[gap] = 0.0
        _ifft_leading(buf, self.dim, self.h)
        return buf

    def _inverse_last(self, src: np.ndarray, out: np.ndarray) -> None:
        """The last-axis inverse of pad rows `src` into samples `out`, (rows,
        points): its GEMM, or irfft."""
        if self._dft:
            _gemm(src.view(np.float64), self._dft[0], out)
        else:
            np.fft.irfft(src, n=self.nf, axis=-1, norm="forward",
                         out=out.reshape(src.shape[:-1] + (self.nf,)))

    def samples(self, *halves: np.ndarray) -> np.ndarray:
        """Physical samples of `halves` (as in `_inverse_leading`), (rows,
        nf^dim): a view into the physical buffer, which the next `samples`
        or `products` call overwrites."""
        buf = self._inverse_leading(halves)
        phys = self.physical(len(buf) * self.nf ** self.dim)
        self._inverse_last(buf, phys.reshape(len(buf), -1))
        return phys.reshape(len(buf), -1)

    def products(self, out_rows: int, form, *halves: np.ndarray
                 ) -> np.ndarray:
        """The band of the transforms of `out_rows` products of the pad rows
        of `_inverse_leading`, one slab of first-axis planes at a time: the
        slab's samples `fine` go to `form(fine, out, scratch)`, which writes
        the products into `out` (scratch: two rows), and their last-axis
        forward into the first `out_rows` pad rows.  A view of `pad_band`."""
        nf, d, rows = self.nf, self.dim, len(self._inverse_leading(halves))
        total = rows + out_rows + 2
        for planes in self._slabs:
            src, dest = self._pad[:rows, planes], self._pad[:out_rows, planes]
            size = (planes.stop - planes.start) * nf ** (d - 1)
            work = self.physical(total * size).reshape(total, size)
            self._inverse_last(src, work[:rows])
            form(work[:rows], work[rows:-2], work[-2:])
            if self._dft:
                _gemm(work[rows:-2], self._dft[1], dest.view(np.float64))
            else:   # the pad's columns >= h stay zero
                np.fft.rfft(work[rows:-2].reshape(dest.shape[:-1] + (nf,)),
                            axis=-1, norm="forward", out=dest)
                dest[..., self.h:] = 0.0
        _fft_leading(self._pad[:out_rows], d, self.h)
        return self.pad_band[:out_rows]

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
