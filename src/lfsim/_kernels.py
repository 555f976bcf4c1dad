"""Mode-local hot kernels.

All kernels operate on flattened views: spectral arrays are complex128 of
shape (rows, columns) with per-mode tables (..., columns), physical arrays
are float64 of shape (dim, n_points).  A state is (dim - 1, n_modes + 1)
slot coefficients, a Cartesian half-spectrum (dim, n_modes).  FFTs are not
handled here; these kernels fuse the elementwise passes between transforms
and write into caller-owned `out` arrays.

A step runs `products_2d`/`products_3d`, `rotate` and the ETDRK4 combines.
The products take the model's nonlinearity in closed form, from lambda0,
beta and the steady state's V: there is no generic quadratic tensor.
`rotate` is every product of the slot basis with coefficients: in the
tendency's transfers, the one-state callers and the samples.  `assemble_rhs`
and `leray`, the Cartesian tendency -P[G + M u] - i kv u, have no caller in
the package: the slot basis carries M, the drift and the projection, for a
step and for `integrate.nonlinear_rhs` alike.  They stay as the tests'
reference for `nonlinear_rhs` and as names the benchmark's hooks time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["leray", "rotate", "stage_combine", "etdrk4_final",
           "assemble_rhs", "products_2d", "products_3d"]


def leray(u, k, ksq):
    """In place: u -= k (k.u)/|k|^2, skipping the k = 0 mode.  A complex
    k spares a cast of k on every call."""
    kdotu = np.einsum("am,am->m", k, u)
    c = np.where(ksq > 0.0, kdotu, 0.0) / np.where(ksq > 0.0, ksq, 1.0)
    for ka, ua in zip(k, u):
        ua -= ka * c
    return u


def rotate(Q, a, tmp, out):
    """out_i = sum_s Q[i, s] a_s per mode: a real (rows, slots, columns)
    basis applied to complex coefficients, one row at a time through the
    complex scratch row tmp.  Pass Q.transpose(1, 0, 2) for Q^T."""
    for row, Qrow in zip(out, Q):
        np.multiply(Qrow[0], a[0], out=row)
        for q, a_s in zip(Qrow[1:], a[1:]):
            np.multiply(q, a_s, out=tmp)
            row += tmp
    return out


def stage_combine(E, u, Q, N, out, tmp):
    """out = E*u + Q*N, E and Q one row or one per slot, through tmp."""
    np.multiply(E, u, out=out)
    out += np.multiply(Q, N, out=tmp)
    return out


def etdrk4_final(E, u, f1, N0, f2x2, N12, f3, N3, out, tmp):
    """out = E*u + f1*N0 + f2x2*N12 + f3*N3 (N12 = N1 + N2), through tmp."""
    np.multiply(E, u, out=out)
    out += np.multiply(f1, N0, out=tmp)
    out += np.multiply(f2x2, N12, out=tmp)
    out += np.multiply(f3, N3, out=tmp)
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


def _add_landau(u, beta, V, out, scratch):
    """out_i += beta|u|^2 (u + V)_i + 2 beta (u.V) u_i.

    s = beta|u|^2 goes into out along V, then turns into
    g = s + 2 beta (u.V) and goes in along u; a zero component of V costs
    no pass, so the rest state (V = 0) adds g u alone.
    """
    tmp, s = scratch
    np.einsum("im,im->m", u, u, out=s)
    s *= beta
    live = [(i, v) for i, v in enumerate(V) if v != 0.0]
    for i, v in live:
        np.multiply(s, v, out=tmp)
        out[i] += tmp
    for i, v in live:
        np.multiply(u[i], 2.0 * beta * v, out=tmp)
        s += tmp
    for row, ui in zip(out, u):
        np.multiply(s, ui, out=tmp)
        row += tmp
    return out


def products_2d(u, om, lam0, beta, V, out, scratch):
    """Fine-grid tendency products, 2D:

        out = lam0 (-u x omega) + beta|u|^2 (u + V) + 2 beta (u.V) u,

    the advection in rotational form, (-u x omega) = (-u2*om, u1*om), and
    the cubic term with the polar quadratic one, -N(u) = beta|u|^2 V
    + 2 beta (u.V) u (`model.make_ordered_system`; V = 0 at rest).
    `scratch` is two rows of working space, (2, n_points), overwritten.
    """
    np.multiply(u[::-1], om, out=out)
    out *= ((-lam0,), (lam0,))
    return _add_landau(u, beta, V, out, scratch)


def products_3d(u, om, lam0, beta, V, out, scratch):
    """Fine-grid tendency products, 3D, as `products_2d`; the advection as
    omega x u = -u x omega."""
    tmp = scratch[0]
    for i, row in enumerate(out):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(om[j], u[k], out=row)
        np.multiply(om[k], u[j], out=tmp)
        row -= tmp
        row *= lam0
    return _add_landau(u, beta, V, out, scratch)
