"""Mode-local hot kernels.

All kernels operate on flattened views: spectral arrays are complex128 of
shape (dim, n_modes) with per-mode tables (..., n_modes), physical arrays
are float64 of shape (dim, n_points).  FFTs are not handled here; these
kernels fuse the elementwise passes between transforms and write into
caller-owned `out` arrays.

A step runs `rotate` (slot coefficients to and from Cartesian ones),
`products_2d`/`products_3d` and the ETDRK4 combines.  `assemble_rhs` and
`leray` form the Cartesian tendency of `integrate.nonlinear_rhs`; a step no
longer needs them, because its slot basis carries M, the drift and the
projection.
"""

from __future__ import annotations

import numpy as np

__all__ = ["leray", "rotate", "stage_combine", "etdrk4_final",
           "assemble_rhs", "products_2d", "products_3d"]


def leray(u, k, ksq):
    """In place: u -= k (k.u)/|k|^2, skipping the k = 0 mode.  A complex
    k, as the `Tendency` holds it, spares a cast of k on every call."""
    kdotu = np.einsum("am,am->m", k, u)
    c = np.where(ksq > 0.0, kdotu, 0.0) / np.where(ksq > 0.0, ksq, 1.0)
    for ka, ua in zip(k, u):
        ua -= ka * c
    return u


def rotate(Q, a, tmp, out):
    """out_i = sum_s Q[i, s] a_s per mode: a real (dim, dim, n_modes) basis
    applied to complex coefficients, one row at a time through the complex
    scratch row tmp.  Pass Q.transpose(1, 0, 2) for Q^T."""
    for row, Qrow in zip(out, Q):
        np.multiply(Qrow[0], a[0], out=row)
        for q, a_s in zip(Qrow[1:], a[1:]):
            np.multiply(q, a_s, out=tmp)
            row += tmp
    return out


def stage_combine(E, u, Q, N, out):
    """out = E*u + Q*N with per-mode coefficients E, Q (one row, or one per
    slot)."""
    np.multiply(E, u, out=out)
    out += Q * N
    return out


def etdrk4_final(E, u, f1, N0, f2, N1, N2, f3, N3, out):
    np.multiply(E, u, out=out)
    out += f1 * N0
    out += (2.0 * f2) * (N1 + N2)
    out += f3 * N3
    return out


def assemble_rhs(G, u, Mmat, k, ksq, kv, out):
    """Explicit tendency: out = -P[G + M u] - i*kv*u.

    kv is lambda0 * (V . k) per mode; G holds the transformed products
    (advection + cubic - quadratic), or is 0.0 when there are none; M u is
    added spectrally.
    """
    w = np.einsum("ij,jm->im", Mmat, u)
    w += G
    leray(w, k, ksq)
    np.multiply(-1.0, w, out=out)
    out -= (1j * kv) * u
    return out


def _square_norm(u, tmp, s):
    """|u|^2 per point into s, summed component by component through tmp."""
    np.multiply(u[0], u[0], out=s)
    for c in u[1:]:
        np.multiply(c, c, out=tmp)
        s += tmp
    return s


def _subtract_quadratic(u, quad, out, tmp):
    """out_i -= N_i(u) = sum_jk quad[j, k, i] u_j u_k, one component at a
    time through the scratch row tmp."""
    for i, row in enumerate(out):
        np.einsum("jk,jm,km->m", quad[:, :, i], u, u, out=tmp)
        row -= tmp


def products_2d(u, om, lam0, beta, quad, has_quad, out, scratch):
    """Fine-grid tendency products, 2D.

    out_i = lam0 * (-u x omega)_i + beta |u|^2 u_i - N_i(u), with the
    rotational advection (-u x omega) = (-u2*om, u1*om).  `scratch` is two
    rows of working space, (2, n_points), overwritten.
    """
    u1, u2, w = u[0], u[1], om[0]
    tmp, s = scratch
    _square_norm(u, tmp, s)
    for row, a, b, sign in ((out[0], u2, u1, -lam0), (out[1], u1, u2, lam0)):
        np.multiply(a, w, out=row)
        row *= sign
        np.multiply(s, b, out=tmp)
        tmp *= beta
        row += tmp
    if has_quad:
        _subtract_quadratic(u, quad, out, tmp)
    return out


def products_3d(u, om, lam0, beta, quad, has_quad, out, scratch):
    """Fine-grid tendency products, 3D; advection as omega x u = -u x omega."""
    tmp, s = scratch
    _square_norm(u, tmp, s)
    for i, row in enumerate(out):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(om[j], u[k], out=row)
        np.multiply(om[k], u[j], out=tmp)
        row -= tmp
        row *= lam0
        np.multiply(s, u[i], out=tmp)
        tmp *= beta
        row += tmp
    if has_quad:
        _subtract_quadratic(u, quad, out, tmp)
    return out
