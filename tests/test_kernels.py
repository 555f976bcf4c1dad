"""The mode-local kernels against textbook formulas evaluated mode by mode
(spectral kernels) or point by point (fine-lattice products)."""

import numpy as np
import pytest

from lfsim import _kernels
from lfsim.model import (ModelParams, make_disordered_system,
                         make_ordered_system)

RNG = np.random.default_rng(99)


def complex_array(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def wavevectors(d, m):
    k = RNG.standard_normal((d, m))
    k[:, 0] = 0.0
    return k, np.sum(k * k, axis=0)


def project(w, kj, ksqj):
    """Helmholtz projection of one mode: w - k (k.w)/|k|^2, identity at k = 0."""
    return w - kj * (np.dot(kj, w) / ksqj) if ksqj > 0 else w


def assert_close(a, b):
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("d", [2, 3])
def test_leray_agreement(d):
    m = 500
    u = complex_array(d, m)
    k, ksq = wavevectors(d, m)
    got = _kernels.leray(u.copy(), k, ksq)
    want = np.stack([project(u[:, j], k[:, j], ksq[j]) for j in range(m)], axis=1)
    assert_close(got, want)
    assert np.max(np.abs(np.einsum("am,am->m", k, got))) <= 1e-12


def _leray_real_k(u, k, ksq):
    """The projection with a real k, cast to complex on every call."""
    safe = np.where(ksq > 0.0, ksq, 1.0)
    kdotu = np.einsum("am,am->m", k, u)
    u -= k * (np.where(ksq > 0.0, kdotu, 0.0) / safe)
    return u


@pytest.mark.parametrize("d", [2, 3])
def test_leray_bitwise_equals_real_k_reference(d):
    # signed zeros and a non-finite mean mode included: a complex k and the
    # row-by-row update must reproduce the real-k projection bit for bit
    m = 500
    k, ksq = wavevectors(d, m)
    for case in range(4):
        u = complex_array(d, m)
        u[:, RNG.random(m) < 0.3] = 0.0
        u.real[RNG.random((d, m)) < 0.2] = -0.0
        u.imag[RNG.random((d, m)) < 0.2] = -0.0
        u[:, 0] = [-0.0, np.inf, np.nan, 1.0][case]
        want = _leray_real_k(u.copy(), k, ksq).view(np.uint64)
        for kk in (k, k.astype(np.complex128)):
            got = _kernels.leray(u.copy(), kk, ksq)
            assert np.array_equal(got.view(np.uint64), want)


def test_stage_and_final_agreement():
    d, m = 2, 400
    u, n0, n1, n2, n3 = (complex_array(d, m) for _ in range(5))
    E, E2, Q, f1, f2, f3 = (RNG.standard_normal(m) for _ in range(6))
    stage = _kernels.stage_combine(E2, u, Q, n0, np.empty_like(u),
                                   np.empty_like(u))
    final = _kernels.etdrk4_final(E, u, f1, n0, 2.0 * f2, n1 + n2, f3, n3,
                                  np.empty_like(u), np.empty_like(u))
    for j in range(m):
        assert_close(stage[:, j], E2[j] * u[:, j] + Q[j] * n0[:, j])
        assert_close(final[:, j], E[j] * u[:, j] + f1[j] * n0[:, j]
                     + 2.0 * f2[j] * (n1[:, j] + n2[:, j]) + f3[j] * n3[:, j])


@pytest.mark.parametrize("d", [2, 3])
def test_assemble_rhs_agreement(d):
    m = 300
    u = complex_array(d, m)
    G = complex_array(d, m)
    k, ksq = wavevectors(d, m)
    kv = RNG.standard_normal(m)
    Mmat = RNG.standard_normal((d, d))
    Mmat = Mmat + Mmat.T
    got = _kernels.assemble_rhs(G, u, Mmat, k, ksq, kv, np.empty_like(u))
    for j in range(m):
        w = project(G[:, j] + Mmat @ u[:, j], k[:, j], ksq[j])
        assert_close(got[:, j], -w - 1j * kv[j] * u[:, j])


@pytest.mark.parametrize("state", ["rest", "polar", "polar_oblique"])
@pytest.mark.parametrize("d", [2, 3])
def test_products_agreement(d, state):
    m = 256
    lam0, beta = 1.3, 0.7
    p = ModelParams(lambda0=lam0, lambda1=0.0, alpha=-0.5, beta=beta,
                    gamma0=0.0, gamma2=1.0, dim=d)
    if state == "rest":
        sys = make_disordered_system(p)
    else:
        # V along an axis, or oblique to every axis
        e = np.eye(d)[0] if state == "polar" else np.arange(1.0, d + 1.0)
        sys = make_ordered_system(p, e / np.linalg.norm(e))
    u = RNG.standard_normal((d, m))
    om = RNG.standard_normal((1 if d == 2 else 3, m))
    products = _kernels.products_2d if d == 2 else _kernels.products_3d
    # nan-filled scratch rows: a result must never read them before writing
    got = products(u, om, lam0, beta, sys.V, np.empty_like(u),
                   np.full((2, m), np.nan))
    for j in range(m):
        # -u x omega, with the 2D vorticity along e3; the generic quadratic
        # term of the model's own coefficients
        u3 = np.append(u[:, j], [0.0] * (3 - d))
        om3 = om[:, j] if d == 3 else np.array([0.0, 0.0, om[0, j]])
        want = lam0 * -np.cross(u3, om3)[:d] + beta * np.dot(u3, u3) * u[:, j]
        want -= [u[:, j] @ sys.quad_coeffs[:, :, i] @ u[:, j]
                 for i in range(d)]
        assert_close(got[:, j], want)


@pytest.mark.parametrize("d", [2, 3])
def test_rotate_agreement(d):
    m = 300
    Q = RNG.standard_normal((d, d, m))
    a = complex_array(d, m)
    got = _kernels.rotate(Q, a, np.empty(m, complex), np.empty_like(a))
    back = _kernels.rotate(Q.transpose(1, 0, 2), a, np.empty(m, complex),
                           np.empty_like(a))
    for j in range(m):
        assert_close(got[:, j], Q[:, :, j] @ a[:, j])
        assert_close(back[:, j], Q[:, :, j].T @ a[:, j])
