import cmath
import dataclasses
import itertools
import math
import os
import warnings

import numpy as np
import pytest

from lfsim.model import ModelParams, make_disordered_system, make_ordered_system
from lfsim import _kernels, integrate
from lfsim.spectral import (SpectralField, SpectralGrid, forward, inverse,
                            leray_project, project_coeffs, zero_nyquist)
from lfsim.integrate import (BlowUpError, SolverConfig, SolverState,
                             Stepper, Tendency, _phi, amp_label,
                             nonlinear_rhs, random_solenoidal_field,
                             recover_pressure, run, single_mode_field, step)
from lfsim.lattice import FineLattice, _irfft_spatial, dealiased_product
from lfsim.stability import _slot_basis, growth_rate
from lfsim.diagnostics import energy_budget, fit_growth
from lfsim.experiments import _require_samples
from model_reference import quad_coeffs


def params(**kw):
    base = dict(lambda0=1.0, lambda1=0.0, alpha=0.1, beta=1.0,
                gamma0=-1.0, gamma2=1.0, dim=2)
    base.update(kw)
    return ModelParams(**base)


def full_lattice_k(grid, deriv=False):
    """The wavevectors of the whole n^dim lattice in FFT storage order, the
    Nyquist mode at +n/2 (at 0 for the odd derivatives, when `deriv`): the
    full-lattice side of the tests' references."""
    m1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    m1[grid.n // 2] = 0.0 if deriv else grid.n // 2
    return grid.dk * np.stack(np.meshgrid(*([m1] * grid.dim), indexing="ij"))


def full_coeffs(field):
    """The full-lattice coefficients of a field, by fftn of its samples."""
    axes = tuple(range(1, field.grid.dim + 1))
    return np.fft.fftn(field.to_physical(), axes=axes, norm="forward")


def half(grid, full):
    """The rfft half-spectrum of full-lattice coefficients."""
    return np.ascontiguousarray(full[..., :grid.n // 2 + 1])


def _set_mean_slots(a, values):
    """Set the dim slot coefficients of the mean (k = 0) in a state a: the
    first dim - 1 in column 0, the last in the trailing column."""
    a[:, 0] = values[:-1]
    a[0, -1] = values[-1]


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid(2, 32, 20.0 * np.pi)


class TestPhi:
    def test_values_at_zero(self):
        z = np.array([0.0])
        assert abs(_phi(z, 1)[0] - 1.0) < 1e-15
        assert abs(_phi(z, 2)[0] - 0.5) < 1e-15
        assert abs(_phi(z, 3)[0] - 1.0 / 6.0) < 1e-15

    def test_both_branches_match_reference(self):
        # Taylor (|z| < 0.5) and direct (|z| >= 0.5) branches against the
        # closed forms evaluated with expm1
        def exact(z, j):
            e = math.expm1(z)
            return (e / z, (e - z) / z**2,
                    (e - z - 0.5 * z**2) / z**3)[j - 1]

        for z in (-0.5000001, -0.4999999, -0.2, 0.3, 0.4999999, 0.5000001,
                  2.0, -4.0):
            for j in (1, 2, 3):
                got = _phi(np.array([z]), j)[0]
                assert abs(got - exact(z, j)) <= 1e-11 * abs(exact(z, j))
        # complex z, as the drift i lam0 (V.k) puts into the symbol
        for z in (0.4999999j, -0.3 + 0.4j, 0.35 - 0.3535j, 0.3 + 0.4000001j,
                  -1.0 + 2.5j, 0.1 - 3.0j):
            e = cmath.exp(z) - 1.0
            for j, want in ((1, e / z), (2, (e - z) / z**2),
                            (3, (e - z - 0.5 * z**2) / z**3)):
                got = _phi(np.array([z]), j)[0]
                assert abs(got - want) <= 1e-11 * abs(want)

    def test_identity_phi1(self):
        z = np.array([-3.0, -0.2, 0.0, 0.3, 2.0])
        expect = np.where(z != 0, np.expm1(z) / np.where(z == 0, 1, z), 1.0)
        assert np.max(np.abs(_phi(z, 1) - expect)) < 1e-13


class TestStepExactness:
    def test_pure_stiff_decay_is_exact(self, grid32):
        # nonlinearity off: one step is exactly the integrating factor
        # exp(-dt lam), lam = g2 k^4 + g0 k^2 + i lam0 (V.k) + mu for a
        # polarization along an eigenvector of P M P (eigenvalue mu): M = 0
        # and V = 0, then a polar state in 2D and in 3D
        p = params(alpha=0.0, gamma0=0.7, gamma2=1.3)
        polar = params(alpha=-1.0, gamma0=0.7, gamma2=1.3, lambda0=1.7)
        grid3 = SpectralGrid(3, 8, 20.0 * np.pi)
        k3 = np.array([0.3, 0.2, 0.1])
        pv = np.array([1.0, 0.0, 0.0]) - k3 * (0.3 / 0.14)   # P V, |V| = 1
        cases = [
            (make_disordered_system(p), grid32, [0.4, 0.3], [-0.3, 0.4], 0.0),
            (make_ordered_system(polar), grid32, [0.4, 0.3], [-0.3, 0.4],
             2.0 * 0.6**2),
            (make_ordered_system(dataclasses.replace(polar, dim=3)),
             grid3, k3, pv, 2.0 * float(pv @ pv))]
        for sys, grid, k, pol, mu in cases:
            k = np.asarray(k, dtype=float)
            u0 = single_mode_field(grid, k, pol, 2.0)
            stepper = Stepper(sys, grid, dt=0.05, linearized=True)
            uh = stepper.from_state(u0)
            out = stepper.step(uh, 0.0)
            ksq = float(k @ k)
            factor = np.exp(-0.05 * (1.3 * ksq**2 + 0.7 * ksq + mu + 1j
                                     * sys.params.lambda0 * (sys.V @ k)))
            got = stepper.to_state(out)
            amp = got.mode_amplitude(k)
            assert abs(amp - abs(factor)) <= 1e-14 * abs(factor)
            idx = (slice(None),) + grid.mode_index(k)[0]
            assert np.max(np.abs(got.coeffs[idx] - factor * u0.coeffs[idx])) \
                <= 1e-14 * abs(factor)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("ordered", [False, True],
                             ids=["rest", "polar"])
    def test_zero_tendency_step_is_the_integrating_factor(
            self, dim, n, ordered, monkeypatch):
        # linearized and unforced: the step is E a bit for bit, no stages
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=0.05, linearized=True)
        a = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))

        def no_rhs(*args, **kwargs):
            raise AssertionError("a zero tendency was evaluated")

        monkeypatch.setattr(Stepper, "rhs", no_rhs)
        for i in range(3):   # through both output buffers
            out = stepper.step(a, i * 0.05)
            assert np.array_equal(out, stepper.E * a)
            a = out

    def test_zero_tendency_stepper_builds_no_stages(self, monkeypatch):
        # a linearized unforced stepper takes no staged step: it evaluates
        # no phi function and holds no stage coefficients or buffers
        def phi(z, j):
            raise AssertionError("phi functions evaluated")
        monkeypatch.setattr(integrate, "_phi", phi)
        grid = SpectralGrid(3, 16, 20.0 * np.pi)
        sys = make_ordered_system(params(dim=3, alpha=-0.5))
        stepper = Stepper(sys, grid, dt=0.05, linearized=True)
        a = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        out = stepper.step(a, 0.0)
        assert np.array_equal(out, stepper.E * a)
        assert "_stages" not in vars(stepper)

    def test_forced_linearized_step_evaluates_the_tendency(self, grid32,
                                                           monkeypatch):
        sys = make_disordered_system(params(alpha=0.5))
        fhat = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], 1e-3)
        stepper = Stepper(sys, grid32, dt=1e-2, linearized=True,
                          forcing=lambda t: fhat)
        calls = []
        rhs = Stepper.rhs

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return rhs(self, *args, **kwargs)

        monkeypatch.setattr(Stepper, "rhs", counted)
        a = stepper.from_state(
            SpectralField(grid32, np.zeros((2,) + grid32.half_shape, complex)))
        out = stepper.step(a, 0.0)
        assert calls == [0.0, 5e-3, 5e-3, 1e-2]
        assert np.max(np.abs(out)) > 0.0

    @pytest.mark.parametrize("dim,n,ordered,mean,forced", [
        (2, 16, True, False, False), (3, 8, False, False, False),
        (3, 8, True, True, False), (2, 16, False, False, True)],
        ids=["2d-polar", "3d-rest", "3d-polar-mean", "2d-forced"])
    def test_step_is_the_textbook_scheme(self, dim, n, ordered, mean, forced):
        # ETDRK4 (Cox & Matthews 2002) with a fresh array for every stage,
        # from the stepper's own rhs, E and stage coefficients: the step
        # runs on four stage buffers and its output buffer, so any aliasing
        # among them shows here bit for bit
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        forcing = None
        if forced:
            fhat = single_mode_field(grid, [0.2, 0.1], [-0.1, 0.2], 0.05)
            forcing = lambda t: SpectralField(grid, math.cos(t) * fhat.coeffs)
        stepper = Stepper(sys, grid, dt=0.05, forcing=forcing)
        a = stepper.from_state(
            random_solenoidal_field(grid, 0.5, 0.5, 3, zero_mean=not mean))
        E2, Q, f1, f2x2, f3 = stepper._stages[0]
        h = stepper.dt

        def rhs(b, t):
            return stepper.rhs(b, t, np.empty_like(b))

        for i in range(4):
            t = i * h
            N0 = rhs(a, t)
            A = E2 * a + Q * N0
            Na = rhs(A, t + 0.5 * h)
            B = E2 * a + Q * Na
            Nb = rhs(B, t + 0.5 * h)
            C = E2 * A + Q * (2.0 * Nb - N0)
            Nc = rhs(C, t + h)
            want = stepper.E * a + f1 * N0 + f2x2 * (Na + Nb) + f3 * Nc
            prev, a = a, stepper.step(a, t)
            assert np.array_equal(a, want)
        assert np.max(np.abs(a)) > 0.0
        # again from the last input, one of the stepper's own buffers
        assert np.array_equal(stepper.step(prev, t), want)

    def test_zero_is_fixed_point(self, grid32):
        for sys in (make_disordered_system(params()),
                    make_ordered_system(params(alpha=-1.0))):
            stepper = Stepper(sys, grid32, dt=1e-2)
            uh = stepper.from_state(
                SpectralField(grid32, np.zeros((2,) + grid32.half_shape,
                                               complex)))
            for _ in range(3):
                uh = stepper.step(uh, 0.0)
            assert np.max(np.abs(uh)) == 0.0


class TestStructuralInvariants:
    def test_divergence_reality_hermitian_after_steps(self, grid32):
        # the rest state, then the polar state, whose slot basis pairs +-k
        # on the m = 0 plane of the half layout
        for sys in (make_disordered_system(params()),
                    make_ordered_system(params(alpha=-1.0))):
            u0 = random_solenoidal_field(grid32, 1e-2, 0.5, 3)
            stepper = Stepper(sys, grid32, dt=5e-3)
            uh = stepper.from_state(u0)
            for i in range(20):
                uh = stepper.step(uh, i * 5e-3)
            f = stepper.to_state(uh)
            assert f.divergence_residual() <= 1e-12
            assert f.hermitian_residual() <= 1e-13 * np.max(np.abs(f.coeffs))
            # real: the field is the spectrum of its own samples
            back = forward(grid32, f.to_physical()).coeffs
            assert np.max(np.abs(back - f.coeffs)) <= 1e-12 * np.max(
                np.abs(f.coeffs))

    def test_translation_equivariance(self, grid32):
        sys = make_ordered_system(params(alpha=-1.0, gamma0=-0.5))
        u0 = random_solenoidal_field(grid32, 1e-3, 0.5, 5)
        shift = np.array([grid32.length / 8.0, grid32.length / 4.0])
        phase = np.exp(-1j * np.einsum("a,a...->...", shift, grid32.k_half))
        u0_shifted = SpectralField(grid32, u0.coeffs * phase)
        cfg = SolverConfig(dt=5e-3, t_end=0.2)
        t1 = run(u0, sys, grid32, cfg)
        t2 = run(u0_shifted, sys, grid32, cfg)
        moved = t1.final.u_hat.coeffs * phase
        scale = np.max(np.abs(moved))
        assert np.max(np.abs(t2.final.u_hat.coeffs - moved)) <= 1e-11 * scale

    def test_rotational_equals_convective_after_projection(self, grid32):
        # the stepper's rotational advection must project to the same field
        # as the convective form evaluated with exact padded products
        p = params(alpha=0.0, gamma0=1.0, beta=1.0)
        sys = make_disordered_system(p)
        u0 = random_solenoidal_field(grid32, 0.3, 0.6, 9)
        stepper = Stepper(sys, grid32, dt=1e-3)
        uh = stepper.cartesian(stepper.from_state(u0))
        G = stepper._nonlinear_G(uh).reshape((2,) + grid32.half_shape)
        from lfsim.spectral import pad_spectrum, truncate_spectrum
        coeffs = zero_nyquist(grid32, full_coeffs(u0))
        grads = (1j * full_lattice_k(grid32, deriv=True)[:, None]
                 * coeffs).reshape((4,) + grid32.shape)
        fine = np.real(np.fft.ifftn(
            pad_spectrum(grid32, np.concatenate([coeffs, grads]), 64),
            axes=(1, 2), norm="forward"))
        uf, gf = fine[:2], fine[2:].reshape(2, 2, 64, 64)
        adv = np.einsum("a...,ai...->i...", uf, gf)
        s = np.sum(uf * uf, axis=0)
        conv = p.lambda0 * adv + p.beta * s * uf
        conv_hat = zero_nyquist(grid32, truncate_spectrum(
            grid32, np.fft.fftn(conv, axes=(1, 2), norm="forward")))
        lhs = project_coeffs(grid32, G)
        rhs = project_coeffs(grid32, half(grid32, conv_hat))
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_large_dt_in_band_warns(self, grid32):
        sys = make_disordered_system(params(alpha=0.1, gamma0=-1.0))
        with pytest.warns(RuntimeWarning, match="max linear growth"):
            Stepper(sys, grid32, dt=1.0)

    def test_growth_warning_reads_the_integrating_factor(self, grid32):
        # no band (gamma0 = 0): the growth 0.5 at k -> 0 comes from
        # alpha = -0.5 alone, and dt * 0.5 = 0.15 > 0.1
        sys = make_disordered_system(params(alpha=-0.5, gamma0=0.0))
        with pytest.warns(RuntimeWarning, match="max linear growth = 0.15"):
            Stepper(sys, grid32, dt=0.3)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:dt:RuntimeWarning")
    def test_blowup_raises(self, grid32):
        sys = make_disordered_system(params())
        u0 = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], 1e160)
        with pytest.raises(BlowUpError, match="resolution"):
            run(u0, sys, grid32, SolverConfig(dt=1.0, t_end=5.0))

    def test_non_finite_first_sample_is_a_blow_up(self, grid32):
        # finite coefficients whose squares overflow: no sample is recorded
        sys = make_disordered_system(params())
        u0 = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], 1e160)
        with pytest.raises(BlowUpError) as err:
            run(u0, sys, grid32, SolverConfig(dt=1e-3, t_end=1e-2))
        assert err.value.t == 0.0 and err.value.last_state.t == 0.0
        assert len(err.value.trajectory.times) == 0

    def test_initial_must_be_solenoidal(self, grid32):
        bad = np.zeros((2,) + grid32.half_shape, complex)
        idx, _ = grid32.mode_index([0.5, 0.0])
        bad[(slice(None),) + idx] = [1.0, 0.0]          # pure gradient mode
        bad[(slice(None),) + grid32.mode_index([-0.5, 0.0])[0]] = [1.0, 0.0]
        with pytest.raises(ValueError, match="solenoidal"):
            run(SpectralField(grid32, bad), make_disordered_system(params()),
                grid32, SolverConfig(dt=1e-3, t_end=1e-2))

    @pytest.mark.parametrize("amplitude", [1e200, math.inf, math.nan],
                             ids=["1e200", "inf", "nan"])
    def test_unmeasurable_divergence_is_rejected(self, grid32, amplitude):
        # u1 = amplitude cos(0.1 x1) has relative divergence 0.1; at 1e200
        # its squared coefficients overflow, at inf and nan it reads nan
        bad = np.zeros((2,) + grid32.half_shape, complex)
        for k in ([0.1, 0.0], [-0.1, 0.0]):
            bad[(0,) + grid32.mode_index(k)[0]] = 0.5 * amplitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not solenoidal"):
                run(SpectralField(grid32, bad),
                    make_disordered_system(params()), grid32,
                    SolverConfig(dt=1e-3, t_end=1e-2))


@pytest.fixture(scope="module")
def grid3d():
    return SpectralGrid(3, 16, 20.0 * np.pi)


class TestThreeDimensional:
    def test_linear_fidelity_3d(self, grid3d):
        p = params(alpha=-1.0, gamma0=-0.5, dim=3)
        sys = make_ordered_system(p, [1.0, 0.0, 0.0])
        k = np.array([0.0, 0.5, 0.0])           # k perp V
        pol = np.array([0.0, 0.0, 1.0])         # pol perp {V, k}
        u0 = single_mode_field(grid3d, k, pol, 1e-4)
        cfg = SolverConfig(dt=2e-3, t_end=1.0, diagnostics_interval=2e-2)
        traj = run(u0, sys, grid3d, cfg, linearized=True,
                   tracked_wavevectors=[tuple(k)])
        fit = fit_growth(traj.times, traj.series[amp_label(tuple(k))])
        predicted = growth_rate(sys, k)
        assert abs(predicted - 0.0625) < 1e-14
        assert abs(fit.rate - predicted) <= 1e-6

    def test_nonlinear_run_invariants_3d(self, grid3d):
        sys = make_ordered_system(params(alpha=-1.0, gamma0=-0.5, dim=3))
        u0 = random_solenoidal_field(grid3d, 1e-2, 0.4, 17)
        cfg = SolverConfig(dt=5e-3, t_end=0.05, diagnostics_interval=5e-3)
        traj = run(u0, sys, grid3d, cfg)
        f = traj.final.u_hat
        assert f.divergence_residual() <= 1e-12
        assert f.hermitian_residual() <= 1e-13 * np.max(np.abs(f.coeffs))
        assert np.max(traj.series["div_residual"]) <= 1e-12

    def test_rotational_equals_convective_3d(self, grid3d):
        from lfsim.spectral import pad_spectrum, truncate_spectrum
        p = params(alpha=0.0, gamma0=1.0, dim=3)
        sys = make_disordered_system(p)
        u0 = random_solenoidal_field(grid3d, 0.3, 0.5, 23)
        stepper = Stepper(sys, grid3d, dt=1e-3)
        uh = stepper.cartesian(stepper.from_state(u0))
        G = stepper._nonlinear_G(uh).reshape((3,) + grid3d.half_shape)
        coeffs = zero_nyquist(grid3d, full_coeffs(u0))
        grads = (1j * full_lattice_k(grid3d, deriv=True)[:, None]
                 * coeffs).reshape((9,) + grid3d.shape)
        fine = np.real(np.fft.ifftn(
            pad_spectrum(grid3d, np.concatenate([coeffs, grads]), 32),
            axes=(1, 2, 3), norm="forward"))
        uf, gf = fine[:3], fine[3:].reshape(3, 3, 32, 32, 32)
        conv = p.lambda0 * np.einsum("a...,ai...->i...", uf, gf) \
            + p.beta * np.sum(uf * uf, axis=0) * uf
        conv_hat = zero_nyquist(grid3d, truncate_spectrum(
            grid3d, np.fft.fftn(conv, axes=(1, 2, 3), norm="forward")))
        lhs = project_coeffs(grid3d, G)
        rhs = project_coeffs(grid3d, half(grid3d, conv_hat))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


class TestNonlinearRhs:
    def test_zero_state_is_equilibrium(self, grid32):
        zero = SpectralField(grid32,
                             np.zeros((2,) + grid32.half_shape, complex))
        for sys in (make_disordered_system(params()),
                    make_ordered_system(params(alpha=-1.0))):
            out = nonlinear_rhs(SolverState(0.0, zero, sys, grid32))
            assert np.max(np.abs(out.coeffs)) == 0.0

    def test_single_mode_leading_order(self, grid32):
        # at mode k the tendency is -alpha*u plus O(eps^2) couplings
        sys = make_disordered_system(params(alpha=0.4))
        k = (0.5, 0.0)
        idx = (slice(None),) + grid32.mode_index(k)[0]
        resid = []
        for eps in (1e-3, 1e-4):
            u0 = single_mode_field(grid32, k, [0.0, 1.0], eps)
            out = nonlinear_rhs(SolverState(0.0, u0, sys, grid32))
            resid.append(np.max(np.abs(out.coeffs[idx] + 0.4 * u0.coeffs[idx])))
        # the defect shrinks at least quadratically with eps
        assert resid[0] <= 1e-5
        assert resid[1] <= resid[0] / 50.0

    def test_drift_term_is_spectral_phase(self, grid32):
        # linearized ordered system with gamma-free params: for u perp V at
        # k || V the tendency is exactly -i lam0 (V.k) u
        p = params(alpha=-1.0, gamma0=0.0, lambda0=1.7)
        sys = make_ordered_system(p, [1.0, 0.0])
        k = (0.5, 0.0)
        u0 = single_mode_field(grid32, k, [0.0, 1.0], 1e-3)
        out = nonlinear_rhs(SolverState(0.0, u0, sys, grid32),
                            linearized=True)
        kvec = grid32.k_half
        expect = -1j * 1.7 * (sys.V[0] * kvec[0]) * u0.coeffs
        assert np.max(np.abs(out.coeffs - expect)) <= 1e-15

    def test_rejects_nonfinite_state(self, grid32):
        bad = np.zeros((2,) + grid32.half_shape, complex)
        bad[0, 1, 1] = np.nan
        sys = make_disordered_system(params())
        with pytest.raises(BlowUpError):
            nonlinear_rhs(SolverState(0.0, SpectralField(grid32, bad),
                                      sys, grid32))

    @pytest.mark.parametrize("dim,n,kind,mean", [
        (2, 32, "polar", False), (3, 8, "polar", False),
        (2, 32, "polar", True), (3, 8, "polar", True),
        (2, 32, "polar_oblique", True), (3, 8, "polar_oblique", True)],
        ids=["2-32", "3-8", "2-32-polar-mean", "3-8-polar-mean",
             "2-32-polar_oblique-mean", "3-8-polar_oblique-mean"])
    def test_slot_rhs_is_the_cartesian_tendency_less_the_symbol(
            self, dim, n, kind, mean):
        # nonlinear_rhs, Q [rhs(a) - (mu + i lam0 (V.k)) a], is the
        # Cartesian tendency -P[G + M u] - i lam0 (V.k) u of u = Q a: M, the
        # drift and P moved into the integrating factor; with a mean, every
        # slot of k = 0 is live, the trailing one included; a forcing f
        # enters as P f
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        stepper = Stepper(sys, grid, dt=1e-3)
        a = stepper.from_state(
            random_solenoidal_field(grid, 0.3, 0.6, 5, zero_mean=not mean))
        if mean:
            _set_mean_slots(a, np.arange(1.0, dim + 1.0) / 10.0)
        state = SolverState(0.0, stepper.to_state(a), sys, grid)
        u = stepper._half(state.u_hat)
        k = grid.k_half.reshape(dim, -1)
        kv = sys.params.lambda0 * (sys.V @ k)
        f = forward(grid, np.random.default_rng(9).standard_normal(
            (dim,) + grid.shape))
        for linearized, forcing in ((False, None), (True, None),
                                    (True, lambda t: f)):
            G = 0.0 if linearized else stepper._nonlinear_G(u)
            want = _kernels.assemble_rhs(
                G, u, sys.M, k.astype(complex), stepper.ksq_flat, kv,
                np.empty_like(u)).reshape((dim,) + grid.half_shape)
            if forcing is not None:
                want += zero_nyquist(grid, project_coeffs(grid, f.coeffs))
            got = nonlinear_rhs(state, linearized=linearized,
                                forcing=forcing).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
    def test_gradient_part_is_dropped(self, dim, n):
        # the whole tendency is formed from the slot coefficients Q^T u, so
        # the gradient part of a non-solenoidal u reaches neither the
        # products nor M u nor the drift -i lam0 (V.k) u
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        sys = make_ordered_system(params(alpha=-1.0, dim=dim))
        # a pure gradient at k || V: the drift alone would not vanish there
        k = np.zeros(dim)
        k[0] = 2.0 * grid.dk
        coeffs = np.zeros((dim,) + grid.half_shape, complex)
        for kk in (k, -k):   # both on the plane m_last = 0
            coeffs[(0,) + grid.mode_index(kk)[0]] = 0.5
        grad = SolverState(0.0, SpectralField(grid, coeffs), sys, grid)
        # a random solenoidal u and u plus the gradient of a random scalar
        u0 = random_solenoidal_field(grid, 0.3, 0.6, 5)
        phi = np.fft.rfftn(np.random.default_rng(8).standard_normal(
            grid.shape), norm="forward")
        g = zero_nyquist(grid, 1j * grid.k_half * phi)
        g *= np.max(np.abs(u0.coeffs)) / np.max(np.abs(g))
        u = SolverState(0.0, u0, sys, grid)
        ug = SolverState(0.0, SpectralField(grid, u0.coeffs + g), sys, grid)
        for linearized in (False, True):
            assert np.max(np.abs(
                nonlinear_rhs(grad, linearized=linearized).coeffs)) == 0.0
            want = nonlinear_rhs(u, linearized=linearized).coeffs
            got = nonlinear_rhs(ug, linearized=linearized).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_state_callers_build_no_step_coefficients(self, grid32,
                                                          monkeypatch):
        def phi(z, j):
            raise AssertionError("phi functions evaluated")
        monkeypatch.setattr(integrate, "_phi", phi)
        sys = make_ordered_system(params(alpha=-1.0, lambda1=0.3))
        state = SolverState(0.0, random_solenoidal_field(grid32, 0.3, 0.6, 5),
                            sys, grid32)
        energy_budget(state)
        nonlinear_rhs(state)
        nonlinear_rhs(state, linearized=True)
        recover_pressure(state)


class TestLinearFidelity:
    @pytest.mark.parametrize("mode", ["disordered", "ordered_par", "ordered_perp"])
    def test_measured_matches_symbol(self, grid32, mode):
        if mode == "disordered":
            sys = make_disordered_system(params(alpha=0.1))
            k, pol = np.array([0.5, 0.5]), np.array([1.0, -1.0])
        elif mode == "ordered_par":
            sys = make_ordered_system(params(alpha=-1.0, gamma0=-0.5))
            k, pol = np.array([0.5, 0.0]), np.array([0.0, 1.0])
        else:
            # k perp V in 2D: the M term acts with full weight 2 beta |V|^2
            sys = make_ordered_system(params(alpha=-1.0, gamma0=-0.5))
            k, pol = np.array([0.0, 0.5]), np.array([1.0, 0.0])
        u0 = single_mode_field(grid32, k, pol, 1e-4)
        cfg = SolverConfig(dt=1e-3, t_end=1.0, diagnostics_interval=1e-2)
        traj = run(u0, sys, grid32, cfg, linearized=True,
                   tracked_wavevectors=[tuple(k)])
        fit = fit_growth(traj.times, traj.series[amp_label(tuple(k))])
        predicted = growth_rate(sys, k)
        assert abs(fit.rate - predicted) <= 1e-6 * max(1.0, abs(predicted))
        assert fit.r_squared >= 0.9999


class TestRunLoop:
    def test_series_and_snapshots(self, grid32):
        sys = make_disordered_system(params())
        u0 = random_solenoidal_field(grid32, 1e-3, 0.5, 1)
        cfg = SolverConfig(dt=1e-2, t_end=0.2, snapshot_interval=0.1,
                           diagnostics_interval=0.05)
        traj = run(u0, sys, grid32, cfg, tracked_wavevectors=[(0.5, 0.5)])
        assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2])
        assert traj.snapshot_times == [0.0, 0.1, 0.2]
        assert set(traj.series) >= {"l2_norm_sq", "l4_norm_4", "grad_norm_sq",
                                    "lap_norm_sq", "div_residual", "m_form",
                                    "ordered_proj_sq", "amp_0.5_0.5"}
        assert traj.final.t == pytest.approx(0.2)

    def test_determinism(self, grid32):
        sys = make_disordered_system(params())
        cfg = SolverConfig(dt=5e-3, t_end=0.1, seed=77)
        runs = []
        for _ in range(2):
            u0 = random_solenoidal_field(grid32, 1e-3, 0.5, cfg.seed)
            runs.append(run(u0, sys, grid32, cfg))
        assert np.array_equal(runs[0].final.u_hat.coeffs,
                              runs[1].final.u_hat.coeffs)
        for key in runs[0].series:
            assert np.array_equal(runs[0].series[key], runs[1].series[key])

    def test_forcing_reaches_linear_steady_state(self, grid32):
        # u' = -(L_k + alpha) u + f  settles at u = f/(L_k + alpha)
        p = params(alpha=0.5, gamma0=1.0)
        sys = make_disordered_system(p)
        k = np.array([0.5, 0.0])
        famp = 1e-3
        fhat = single_mode_field(grid32, k, [0.0, 1.0], famp)

        def forcing(t):
            return fhat

        u0 = SpectralField(grid32, np.zeros((2,) + grid32.half_shape, complex))
        cfg = SolverConfig(dt=5e-3, t_end=40.0, diagnostics_interval=1.0)
        traj = run(u0, sys, grid32, cfg, forcing=forcing, linearized=True,
                   tracked_wavevectors=[tuple(k)])
        ksq = 0.25
        expect = 0.5 * famp / (ksq**2 + ksq + 0.5)   # coefficient amplitude
        got = traj.series[amp_label(tuple(k))][-1]
        assert abs(got - expect) <= 1e-8 * expect

    def test_one_off_step_matches_stepper(self, grid32):
        sys = make_disordered_system(params())
        u0 = random_solenoidal_field(grid32, 1e-3, 0.5, 2)
        cfg = SolverConfig(dt=1e-3, t_end=1.0)
        state = SolverState(0.0, u0, sys, grid32)
        new = step(state, cfg)
        stepper = Stepper(sys, grid32, dt=1e-3)
        expect = stepper.to_state(stepper.step(stepper.from_state(u0), 0.0))
        assert np.max(np.abs(new.u_hat.coeffs - expect.coeffs)) < 1e-16
        assert new.t == pytest.approx(1e-3)

    def test_snapshots_are_handed_to_on_snapshot(self, grid32):
        sys = make_disordered_system(params())
        u0 = random_solenoidal_field(grid32, 1e-3, 0.5, 1)
        cfg = SolverConfig(dt=1e-2, t_end=0.2, snapshot_interval=0.1,
                           diagnostics_interval=0.05)
        kept = run(u0, sys, grid32, cfg)
        handed = []
        traj = run(u0, sys, grid32, cfg,
                   on_snapshot=lambda t, snap: handed.append((t, snap)))
        assert traj.snapshots == []
        assert traj.snapshot_times == kept.snapshot_times == [0.0, 0.1, 0.2]
        assert [t for t, _ in handed] == kept.snapshot_times
        for (_, snap), want in zip(handed, kept.snapshots):
            assert np.array_equal(snap, want)


def _collect(sample_pass):
    """What `sample_pass(visit)` hands its visitor, the slabs joined: the
    physical samples on the fine lattice, (rows, nf^dim)."""
    slabs = []
    sample_pass(lambda fine, out, scratch: slabs.append(fine.copy()))
    return np.concatenate(slabs, axis=1)


def _samples(lattice, *halves):
    """The fine-lattice samples of the coarse half-spectra `halves`."""
    return _collect(lambda visit: lattice.products(0, visit, *halves))


def _reference_row(stepper, t, u, tracked):
    """One diagnostic row of the Cartesian half-spectrum u, by the sampler's
    formulas on complex coefficients, on a fine lattice of its own."""
    grid, system = stepper.grid, stepper.system
    vol = grid.volume
    w = grid.parseval_weight_half.reshape(-1)
    ksq = stepper.ksq_flat
    a2 = np.sum(np.abs(u) ** 2, axis=0)
    Mu = system.M @ u
    div = np.abs(np.einsum("am,am->m", grid.k_half.reshape(grid.dim, -1), u))
    fine = _samples(FineLattice(grid, grid.dim),
                    u.reshape((grid.dim,) + grid.half_shape))
    s = np.einsum("im,im->m", fine, fine) ** 2
    n_inner = f_inner = 0.0
    if not stepper.linearized:
        Narr = np.einsum("jki,jm,km->im", quad_coeffs(system), fine, fine)
        n_inner = vol * np.mean(np.sum(fine * Narr, axis=0))
    if stepper.forcing is not None:
        f_inner = vol * np.dot(w, np.real(np.sum(
            np.conj(u) * stepper._forcing_half(t), axis=0)))
    row = {
        "l2_norm_sq": vol * np.dot(w, a2),
        "l4_norm_4": vol * np.mean(s),
        "grad_norm_sq": vol * np.dot(w * ksq, a2),
        "lap_norm_sq": vol * np.dot(w * ksq**2, a2),
        "div_residual": np.max(div) / np.max(np.sqrt(a2)),
        "m_form": vol * np.dot(w, np.real(np.sum(np.conj(u) * Mu, axis=0))),
        "ordered_proj_sq": vol * np.dot(w, np.abs(system.V @ u) ** 2),
        "n_inner": n_inner,
        "f_inner": f_inner,
    }
    full = full_coeffs(SpectralField(grid, u.reshape((grid.dim,)
                                                     + grid.half_shape)))
    for k in tracked:
        m = tuple(round(c / grid.dk) % grid.n for c in k)
        row[amp_label(k)] = np.sqrt(np.sum(np.abs(full[(slice(None),) + m])
                                           ** 2))
    return row


class TestSampler:
    """`_SeriesRecorder.sample`, on the float view and the lattice's rows,
    against the formulas on complex coefficients."""

    @pytest.mark.parametrize("mode", ["linearized", "nonlinear", "forced"])
    @pytest.mark.parametrize("kind", ["rest", "polar", "polar_oblique"])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_samples_match_the_reference(self, dim, n, kind, mode):
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        forcing = None
        if mode == "forced":
            f0 = random_solenoidal_field(grid, 0.02, 0.5, 11)

            def forcing(t):
                return SpectralField(grid, f0.coeffs * np.cos(t))

        linearized = mode != "nonlinear"
        dk = grid.dk
        tracked = [(dk,) + (0.0,) * (dim - 1),
                   (dk,) * (dim - 1) + (-2.0 * dk,)]
        u0 = random_solenoidal_field(grid, 0.3, 0.5, 3)
        cfg = SolverConfig(dt=1e-2, t_end=3e-2, diagnostics_interval=1e-2)
        traj = run(u0, sys, grid, cfg, forcing=forcing,
                   linearized=linearized, tracked_wavevectors=tracked)
        stepper = Stepper(sys, grid, cfg.dt, linearized=linearized,
                          forcing=forcing)
        a = stepper.from_state(u0)
        for i, t in enumerate(traj.times):
            if i:
                a = stepper.step(a, traj.times[i - 1])
            u = stepper.cartesian(a)
            want = _reference_row(stepper, t, u, tracked)
            assert set(traj.series) == set(want)
            for key, value in want.items():
                got = traj.series[key][i]
                assert abs(got - value) <= 1e-13 * abs(value), (key, i)
            if kind != "rest":
                assert want["ordered_proj_sq"] > 0.0
            if mode == "forced":
                assert want["f_inner"] != 0.0
            if mode == "nonlinear" and kind != "rest":
                assert want["n_inner"] != 0.0

    def test_sample_reads_its_input_only(self):
        grid = SpectralGrid(2, 16, 20.0 * np.pi)
        sys = make_ordered_system(params(alpha=-0.5))
        stepper = Stepper(sys, grid, 1e-2)
        u = stepper.cartesian(stepper.from_state(
            random_solenoidal_field(grid, 0.3, 0.5, 3)))
        before = u.copy()
        integrate._SeriesRecorder(stepper, ()).sample(0.0, u)
        assert np.array_equal(u, before)


class TestHermitianPlane:
    """The m_last = 0 plane of the half-spectrum stores both k and -k; the
    tendency keeps each pair conjugate, so the part of the plane that the
    products never see cannot grow from roundoff at the linear rate."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_planted_anti_hermitian_pair_is_dropped(self, dim, n):
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        tendency = Tendency(make_disordered_system(params(dim=dim)), grid)
        f = random_solenoidal_field(grid, 1.0, 0.5, 3)
        planted = f.coeffs.copy()
        # (c(k), c(-k)) += (w, -conj w) e2 at k = dk e1, in the plane
        k, minus_k = (1,) + (0,) * (dim - 1), (n - 1,) + (0,) * (dim - 1)
        planted[(1,) + k] += 0.3 + 0.2j
        planted[(1,) + minus_k] -= 0.3 - 0.2j
        assert SpectralField(grid, planted).hermitian_residual() > 0.5
        got = tendency.to_state(tendency.from_state(SpectralField(grid,
                                                                  planted)))
        want = tendency.to_state(tendency.from_state(f))
        assert got.hermitian_residual() == 0.0
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-15

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("kind", ["rest", "polar"])
    def test_tendency_plane_is_hermitian(self, dim, n, kind):
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        p = params(alpha=-0.5, lambda0=1.3, dim=dim)
        sys = (make_disordered_system(p) if kind == "rest"
               else make_ordered_system(p))
        tendency = Tendency(sys, grid)
        state = SolverState(0.0, random_solenoidal_field(grid, 1.0, 0.6, 7),
                            sys, grid)
        a = tendency.from_state(state.u_hat)
        out = tendency.rhs(a, 0.0, np.empty_like(a))
        assert np.any(out)
        assert tendency.to_state(out).hermitian_residual() == 0.0
        assert nonlinear_rhs(state).hermitian_residual() == 0.0

    @pytest.mark.parametrize("dim,n,periods", [(2, 16, 10), (3, 8, 2)])
    def test_long_unstable_run_stays_real(self, dim, n, periods):
        # rest state, alpha = -5: the plane's slowest modes grow at ~5, so
        # t = 10 is past 45 e-folds of roundoff, and the field saturates
        grid = SpectralGrid(dim, n, periods * 2.0 * np.pi)
        sys = make_disordered_system(params(lambda0=0.0, alpha=-5.0,
                                            gamma0=1.0, dim=dim))
        cfg = SolverConfig(dt=0.02, t_end=10.0, diagnostics_interval=1.0,
                           snapshot_interval=1.0)
        snaps = []
        traj = run(random_solenoidal_field(grid, 1.0, 0.6, 7), sys, grid,
                   cfg, on_snapshot=lambda t, phys: snaps.append(phys))
        assert traj.final.u_hat.hermitian_residual() <= 1e-13
        assert len(snaps) == len(traj.times) == 11
        for l2, phys in zip(traj.series["l2_norm_sq"], snaps):
            from_samples = grid.volume * np.mean(np.sum(phys**2, axis=0))
            assert abs(l2 - from_samples) <= 1e-12 * from_samples


class TestLayout:
    """Every producer of a SpectralField, and the dealiased product, holds
    the rfft half-spectrum, (dim,) + grid.half_shape."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_fields_hold_the_half_spectrum(self, dim, n):
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        sys = make_ordered_system(params(dim=dim, alpha=-0.5))
        phys = np.random.default_rng(1).standard_normal((dim,) + grid.shape)
        k, pol = np.zeros(dim), np.zeros(dim)
        k[0], pol[1] = grid.dk, 1.0
        u0 = random_solenoidal_field(grid, 0.1, 0.5, 3)
        state = SolverState(0.0, u0, sys, grid)
        cfg = SolverConfig(dt=1e-2, t_end=2e-2)
        fields = {
            "forward": forward(grid, phys),
            "leray_project": leray_project(forward(grid, phys)),
            "random_solenoidal_field": u0,
            "single_mode_field": single_mode_field(grid, k, pol, 0.1),
            "run": run(u0, sys, grid, cfg).final.u_hat,
            "step": step(state, cfg).u_hat,
            "nonlinear_rhs": nonlinear_rhs(state)}
        for name, f in fields.items():
            assert f.coeffs.shape == (dim,) + grid.half_shape, name
        assert dealiased_product(grid, phys[:2]).shape == grid.half_shape

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_full_lattice_coefficients_are_rejected(self, dim, n):
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        with pytest.raises(ValueError, match="half-spectrum"):
            SpectralField(grid, np.zeros((dim,) + grid.shape, complex))


class TestInitialData:
    def test_random_field_properties(self, grid32):
        f = random_solenoidal_field(grid32, 0.05, 0.5, 123)
        assert f.divergence_residual() < 1e-13
        assert f.hermitian_residual() < 1e-15
        assert np.all(f.coeffs[:, 0, 0] == 0.0)
        rms = math.sqrt(float(np.sum(grid32.parseval_weight_half
                                     * np.abs(f.coeffs) ** 2)))
        assert abs(rms - 0.05) < 1e-12

    def test_huge_random_field_reads_solenoidal(self, grid32):
        f = random_solenoidal_field(grid32, 1e200, 0.5, 123)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.divergence_residual() <= 1e-12
        phys = inverse(f)
        assert np.max(np.abs(phys.imag if np.iscomplexobj(phys) else 0.0)) == 0.0

    def test_single_mode_physical_shape(self, grid32):
        k = np.array([0.3, 0.0])
        f = single_mode_field(grid32, k, [0.0, 1.0], 0.7)
        phys = inverse(f)
        expect = 0.7 * np.cos(k[0] * grid32.mesh[0])
        assert np.max(np.abs(phys[1] - expect)) < 1e-13
        assert np.max(np.abs(phys[0])) < 1e-15

    def test_single_mode_requires_transverse_polarization(self, grid32):
        with pytest.raises(ValueError, match="orthogonal"):
            single_mode_field(grid32, [0.3, 0.0], [1.0, 0.0], 1.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=-1.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_end=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.5, t_end=0.1)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_end=1.0, diagnostics_interval=1e-4)

    @pytest.mark.parametrize("kw", [
        dict(dt=0.3, t_end=1.0),
        dict(dt=1e-3, t_end=1.0, diagnostics_interval=0.03),
        dict(dt=1e-3, t_end=1.0, diagnostics_interval=1.5e-3),
        dict(dt=1e-3, t_end=1.0, snapshot_interval=2.5e-3),
        dict(dt=1e-3, t_end=1.0, snapshot_interval=math.inf)])
    def test_off_cadence_rejected(self, kw):
        with pytest.raises(ValueError, match="multiple|finite"):
            SolverConfig(**kw)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SolverConfig(dt=1e-3, t_end=1.0, seed=-1)
        SolverConfig(dt=1e-3, t_end=1.0, seed=0)

    def test_cadence_tolerates_roundoff(self):
        # 0.012 / 0.001 and 0.003 / 0.001 are not whole in floating point
        SolverConfig(dt=1e-3, t_end=0.012, diagnostics_interval=0.003)
        # an interval beyond t_end samples only the start and the end
        SolverConfig(dt=1.0, t_end=5.0)
        SolverConfig(dt=5e-3, t_end=2.0, snapshot_interval=10.0)

    @pytest.mark.parametrize("dt,t_end,diag,snap,samples,snaps", [
        (1e-2, 0.2, 0.05, 0.1, (0, 5, 10, 15, 20), (0, 10, 20)),
        # 0.012 / 0.001 and 0.003 / 0.001 are not whole in floating point
        (1e-3, 0.012, 0.003, None, (0, 3, 6, 9, 12), ()),
        # a snapshot interval that does not divide t_end still ends on it
        (1e-2, 0.12, 0.02, 0.05, (0, 2, 4, 6, 8, 10, 12), (0, 5, 10, 12)),
        # intervals beyond t_end: only the start and the end
        (1.0, 5.0, None, 10.0, (0, 5), (0, 5))])
    def test_run_and_sample_count_follow_the_cadence(
            self, dt, t_end, diag, snap, samples, snaps):
        cfg = SolverConfig(dt=dt, t_end=t_end, diagnostics_interval=diag,
                           snapshot_interval=snap)
        assert cfg.nsteps == samples[-1]
        assert cfg.sample_steps == samples and cfg.snapshot_steps == snaps
        grid = SpectralGrid(2, 8, 20.0 * np.pi)
        sys = make_disordered_system(params(alpha=0.5, gamma0=1.0))
        u0 = random_solenoidal_field(grid, 1e-3, 0.5, 1)
        traj = run(u0, sys, grid, cfg, linearized=True)
        assert list(traj.times) == [i * dt for i in samples]
        assert traj.snapshot_times == [i * dt for i in snaps]
        assert len(traj.snapshots) == len(snaps)
        _require_samples(cfg, len(samples), "the test")
        with pytest.raises(ValueError, match=f"gives {len(samples)} samples"):
            _require_samples(cfg, len(samples) + 1, "the test")


class TestFieldOnAnotherGrid:
    """Every entry point takes its field through `Tendency._half`, which
    rejects a field whose grid is not the one it is run on: a field built
    at L = 2 pi, run on an L = 20 pi grid, would reach a wrong answer and
    end on the other grid."""

    grid = SpectralGrid(2, 16, 2.0 * np.pi)
    system = make_disordered_system(params())
    ENTRY_POINTS = {
        "run": lambda s: run(s.u_hat, s.system, s.grid,
                             SolverConfig(dt=1e-3, t_end=2e-3)),
        "step": lambda s: step(s, SolverConfig(dt=1e-3, t_end=1e-3)),
        "nonlinear_rhs": nonlinear_rhs,
        "recover_pressure": recover_pressure,
        "energy_budget": energy_budget}

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("other", [SpectralGrid(2, 16, 20.0 * np.pi),
                                       SpectralGrid(2, 32, 2.0 * np.pi)])
    def test_rejected(self, entry, other):
        u = random_solenoidal_field(self.grid, 0.1, 2.0, 3)
        with pytest.raises(ValueError, match="the field is on another grid"):
            self.ENTRY_POINTS[entry](SolverState(0.0, u, self.system, other))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_equal_grid_built_separately_accepted(self, entry):
        u = random_solenoidal_field(self.grid, 0.1, 2.0, 3)
        same = SpectralGrid(2, 16, 2.0 * np.pi)
        assert same is not u.grid
        self.ENTRY_POINTS[entry](SolverState(0.0, u, self.system, same))


def _convective_pressure(state):
    """Reference grad q and q: grad q = -(I-P)B with the bracket in
    convective form, B = lam0 (u.grad)u + M u + beta|u|^2 u - N(u), formed
    from u and grad u (gf[a, i] = d_a u_i) sampled on the factor-2 lattice;
    q has mean zero."""
    grid, system = state.grid, state.system
    p = system.params
    d = grid.dim
    uh = zero_nyquist(grid, state.u_hat.coeffs.copy())
    grads = 1j * grid.k_deriv_half[:, None] * uh
    lattice = FineLattice(grid, d + d * d)
    quad = quad_coeffs(system)

    def bracket(fine, out, scratch):
        uf, gf = fine[:d], fine[d:].reshape(d, d, -1)
        s = np.einsum("im,im->m", uf, uf)
        out[...] = p.lambda0 * np.einsum("am,aim->im", uf, gf) \
            + system.M @ uf + p.beta * s * uf \
            - np.einsum("jki,jm,km->im", quad, uf, uf)
    lattice.products(d, bracket, uh,
                     grads.reshape((d * d,) + grid.half_shape))
    B = lattice.band(np.zeros((d,) + grid.half_shape, np.complex128))
    k = grid.k_half
    kB = np.einsum("a...,a...->...", k, B) / np.where(
        grid.ksq_half == 0.0, 1.0, grid.ksq_half)
    phys = _irfft_spatial(np.concatenate([-k * kB, 1j * kB[None]]), grid.n,
                          d, grid.n // 2)
    return phys[:d], phys[d]


class TestPressure:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
    def test_matches_convective_reference(self, dim, n):
        # the rotational bracket plus lam0 |u|^2/2 is the convective one
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        ordered = make_ordered_system(params(alpha=-1.0, lambda0=1.3,
                                             lambda1=0.3, dim=dim))
        assert np.any(quad_coeffs(ordered))
        for sys in (ordered, make_disordered_system(
                params(alpha=0.4, lambda0=0.7, dim=dim))):
            for amp in (0.05, 1.0):
                state = SolverState(0.0, random_solenoidal_field(
                    grid, amp, 0.6, 11), sys, grid)
                out = recover_pressure(state)
                for got, ref in zip((out.grad_q, out.q),
                                    _convective_pressure(state)):
                    scale = max(1.0, float(np.max(np.abs(ref))))
                    assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_zero_state(self, grid32):
        sys = make_disordered_system(params())
        state = SolverState(0.0, SpectralField(
            grid32, np.zeros((2,) + grid32.half_shape, complex)), sys, grid32)
        out = recover_pressure(state)
        assert np.max(np.abs(out.grad_q)) == 0.0
        assert np.max(np.abs(out.q)) == 0.0

    def test_gradient_is_curl_free(self, grid32):
        from lfsim.spectral import curl_coeffs
        for grid in (grid32, SpectralGrid(3, 8, 20.0 * np.pi)):
            d = grid.dim
            sys = make_ordered_system(params(alpha=-1.0, lambda1=0.3, dim=d))
            u0 = random_solenoidal_field(grid, 0.1, 0.6, 31)
            out = recover_pressure(SolverState(0.0, u0, sys, grid))
            gq = np.fft.rfftn(out.grad_q, axes=tuple(range(1, d + 1)),
                              norm="forward")
            curl = curl_coeffs(grid, gq)
            assert np.max(np.abs(curl)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(gq)))), grid

    def test_single_transverse_mode_has_no_pressure(self, grid32):
        # Mu is solenoidal for scalar M and a transverse plane wave does not
        # self-advect, so grad q vanishes identically at first order
        sys = make_disordered_system(params(alpha=0.4))
        u0 = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], 1e-3)
        out = recover_pressure(SolverState(0.0, u0, sys, grid32))
        assert np.max(np.abs(out.grad_q)) <= 1e-18

    def test_pressure_is_second_order_in_amplitude(self, grid32):
        # two crossed modes: the advection cross terms give grad q = O(eps^2)
        sys = make_disordered_system(params(alpha=0.4))
        norms = []
        for eps in (1e-3, 1e-4):
            a = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], eps)
            b = single_mode_field(grid32, [0.0, 0.4], [1.0, 0.0], eps)
            u0 = SpectralField(grid32, a.coeffs + b.coeffs)
            out = recover_pressure(SolverState(0.0, u0, sys, grid32))
            norms.append(np.max(np.abs(out.grad_q)))
        assert norms[0] > 0.0
        ratio = norms[0] / norms[1]
        assert 95.0 < ratio < 105.0   # quadratic in eps

    def test_physical_pressure_gauge(self, grid32):
        # p = q + lambda1 |v|^2 (band-projected product) and q has zero mean
        from lfsim.spectral import pad_spectrum, truncate_spectrum
        sys = make_ordered_system(params(alpha=-1.0, lambda1=0.7))
        u0 = random_solenoidal_field(grid32, 0.05, 0.5, 8)
        state = SolverState(0.0, u0, sys, grid32)
        out = recover_pressure(state, with_physical_pressure=True)
        assert abs(np.mean(out.q)) < 1e-13
        # independent route: |v|^2 formed exactly on a fine lattice
        vhat = full_coeffs(u0)
        vhat[:, 0, 0] += sys.V
        vf = np.real(np.fft.ifftn(pad_spectrum(grid32, vhat, 64),
                                  axes=(1, 2), norm="forward"))
        vsq_hat = zero_nyquist(grid32, truncate_spectrum(
            grid32, np.fft.fftn(np.sum(vf * vf, axis=0), norm="forward")))
        vsq = np.real(np.fft.ifftn(vsq_hat, norm="forward"))
        diff = out.p - out.q - 0.7 * vsq
        assert np.max(np.abs(diff)) < 1e-12


class TestStepAllocations:
    """A warmed-up step runs its transforms in Stepper-owned buffers.

    When every transform allocated its output, the transient heap peak of
    one step was 939 KB (2D n = 64, ordered) and 3374 KB (3D n = 16); a
    step may use at most half of that.
    """

    @pytest.mark.parametrize("dim,n,ordered,limit_kb", [
        (2, 64, True, 939 / 2), (3, 16, False, 3374 / 2),
        # with two fine-lattice scratch rows allocated in every products
        # call, these steps peaked at 259 KB and 513 KB, and with a
        # temporary per ETDRK4 combine product at 199 KB and 343 KB; the
        # combines now write through free stage buffers, and the steps peak
        # at 194 KB and 291 KB
        (2, 64, True, 200), (3, 16, False, 300),
        # with the products of the slot basis on strided band views, which
        # numpy's iterator buffers (~193 KB a call at 2D n = 64), these
        # peaked at 194, 290 and 386 KB; staged on contiguous rows, they
        # peak at 35, 110 and 131 KB
        (2, 64, True, 40), (3, 16, False, 116), (3, 32, False, 136)])
    def test_transient_peak(self, dim, n, ordered, limit_kb):
        import tracemalloc
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3)
        uh = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        for i in range(2):
            uh = stepper.step(uh, i * 1e-3)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            stepper.step(uh, 2e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1024 <= limit_kb

    @pytest.mark.parametrize("dim,n,ordered,linearized,limit_kb", [
        # on complex coefficients, with |u|^2 rows of its own, M u and a
        # fine-lattice product row per component, a warmed sample peaked at
        # 393, 902, 617 and 4226 KB; on the float view and the lattice's
        # rows it peaks at 118, 119, 165 and 1227 KB (a 3D n = 32 step:
        # 1897 KB)
        (2, 64, True, True, 120), (2, 64, True, False, 120),
        (3, 16, False, False, 166), (3, 32, False, False, 1228)])
    def test_sample_transient_peak(self, dim, n, ordered, linearized,
                                   limit_kb):
        import tracemalloc
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3, linearized=linearized)
        u = stepper.cartesian(stepper.from_state(
            random_solenoidal_field(grid, 0.05, 0.5, 3)))
        recorder = integrate._SeriesRecorder(stepper, ())
        recorder.sample(0.0, u)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            recorder.sample(0.0, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1024 <= limit_kb

    def test_first_polar_sample_does_not_grow_the_lattice(self):
        # the sampler's u.V row follows the d sample rows; when the lattice
        # grew its physical buffer for it, the first sample of a fresh 3D
        # n = 16 polar stepper peaked at 1190 KB and kept 1025 KB, while the
        # later ones peaked at 165 KB; the slack covers first-call caches
        # of the interpreter and numpy (a few hundred bytes)
        import tracemalloc
        grid = SpectralGrid(3, 16, 20.0 * np.pi)
        stepper = Stepper(make_ordered_system(params(dim=3, alpha=-0.5)),
                          grid, dt=1e-3)
        u = stepper.cartesian(stepper.from_state(
            random_solenoidal_field(grid, 0.05, 0.5, 3)))
        recorder = integrate._SeriesRecorder(stepper, ())
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                recorder.sample(0.0, u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append((peak - before) / 1024)
        assert peaks[0] <= peaks[1] + 8, peaks

    def test_linearized_tendency_peak(self):
        # a linearized Stepper forms no products; with the product buffers
        # and the curl rows allocated, nonlinear_rhs(linearized=True) peaked
        # at 6828 KB here (3D n = 16)
        import tracemalloc
        grid = SpectralGrid(3, 16, 20.0 * np.pi)
        sys = make_disordered_system(params(dim=3, alpha=0.5))
        state = SolverState(0.0, random_solenoidal_field(grid, 0.05, 0.5, 3),
                            sys, grid)
        nonlinear_rhs(state, linearized=True)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            nonlinear_rhs(state, linearized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1024 < 6828 / 2

    @pytest.mark.parametrize("call,limit_kb", [
        # a whole Stepper, with its step coefficients and stage buffers,
        # took these calls to 3502 KB and 6613 KB (3D n = 16)
        (energy_budget, 3000), (nonlinear_rhs, 6200)],
        ids=["energy_budget", "nonlinear_rhs"])
    def test_one_state_peak(self, call, limit_kb):
        import tracemalloc
        grid = SpectralGrid(3, 16, 20.0 * np.pi)
        sys = make_ordered_system(params(dim=3, alpha=-0.5))
        state = SolverState(0.0, random_solenoidal_field(grid, 0.05, 0.5, 3),
                            sys, grid)
        call(state)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            call(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / 1024 < limit_kb

    @pytest.mark.parametrize("dim,n,ordered,limit_kb", [
        # with full-lattice rows for the samples of u and curl u, the
        # products and the forward transforms, building the stepper and
        # taking a step held 6345 KB; with the slab rows of the product
        # pass 4633 KB; with the pad cut to the h columns that the GEMM
        # path transforms it holds 3777 KB, and the pad grown back to
        # nf/2 + 1 columns (884 KB) breaks the bound
        (3, 16, False, 4200),
        # with the whole middle axis in the pad (6.3 MB) and d rows of
        # full-lattice samples in the physical buffer (6.3 MB), 3D n = 32
        # held 24294 KB; with the middle axis's band rows in the pad and its
        # passes in the slab loop, and the samples visited slab by slab, it
        # holds 16870 KB
        (3, 32, False, 17200),
        # one slab covers the 2D n = 64 lattice: 2650 KB before, 2645 after,
        # 2331 with the grid's half tables; on the live slots alone (no
        # k-hat row in the basis, the step coefficients and the state
        # buffers) it holds 1868 KB
        (2, 64, True, 1900)])
    def test_persistent_lattice_memory(self, dim, n, ordered, limit_kb):
        assert _held_after_one_step_kb(dim, n, ordered) <= limit_kb

    @pytest.mark.parametrize("n,ordered,limit_kb", [
        # with nine state-sized buffers (two outputs, four tendencies, three
        # stages, one of which held the samples' u) and a complex copy of k,
        # a 3D rest stepper held 3776 KB (n = 16) and 16870 KB (n = 32)
        # after one step; on two outputs and four stage buffers, k cast
        # only for the Cartesian tendency, it held 3343 KB and 13606 KB;
        # with kv and the grid's k_deriv_half built only for the Cartesian
        # tendency, it held 3272 KB and 13064 KB; on the live slots alone
        # (no k-hat row in the basis, the step coefficients and the state
        # buffers) it holds 3002 KB and 11024 KB
        (16, False, 3030), (32, False, 11100),
        # the polar stepper's per-slot coefficients are complex: it held
        # 3900 KB with the k-hat row, 3379 KB without
        (16, True, 3410)])
    def test_held_heap_after_one_step(self, n, ordered, limit_kb):
        assert _held_after_one_step_kb(3, n, ordered) <= limit_kb

    @pytest.mark.parametrize("dim,n,ordered,linearized", [
        (2, 16, True, False), (2, 16, True, True), (3, 8, False, False),
        (3, 8, True, False)])
    def test_steps_build_neither_kv_nor_k_deriv_half(self, dim, n, ordered,
                                                     linearized):
        # no step, sample, snapshot or state conversion reads the grid's
        # odd-derivative k
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3, linearized=linearized)
        a = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        recorder = integrate._SeriesRecorder(stepper, ())
        for i in range(3):
            a = stepper.step(a, i * 1e-3)
            recorder.sample(i * 1e-3, stepper.cartesian(a))
        stepper.physical(a)
        stepper.to_state(a)
        assert "k_deriv_half" not in vars(grid)

    def test_run_builds_no_full_table_after_its_stepper(self, tmp_path,
                                                        monkeypatch):
        # `lf run` of the 3D decay config, with snapshots: once its Stepper
        # exists, no step, sample, snapshot or check builds a wavevector
        # table (the grid held four full-lattice ones, 2.5 MB at n = 32,
        # through a run; it has only its half-spectrum tables now)
        from lfsim.cli import main
        built, late = [], []
        init, modes = Stepper.__init__, SpectralGrid._modes

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(True)

        def spy_modes(grid, *args, **kwargs):
            if built:
                late.append(args)
            return modes(grid, *args, **kwargs)
        monkeypatch.setattr(Stepper, "__init__", spy_init)
        monkeypatch.setattr(SpectralGrid, "_modes", spy_modes)
        config = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "configs", "nonlinear_decay.cfg")
        argv = ["run", config, "--out", str(tmp_path)]
        for override in ("params.dim=3", "grid.n_per_axis=16",
                         "solver.t_end=0.012",
                         "solver.diagnostics_interval=0.003",
                         "solver.snapshot_interval=0.006"):
            argv += ["--override", override]
        assert main(argv) == 0
        assert built == [True] and late == []

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 16), (3, 32)])
    def test_snapshot_transient_is_its_array(self, dim, n):
        # u is staged in the lattice's physical buffer; with a state-sized
        # Cartesian copy of its own, a 3D n = 32 snapshot peaked at 1586 KB
        # for its 768 KB of samples
        import tracemalloc
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(make_disordered_system(params(dim=dim, alpha=0.5)),
                          grid, dt=1e-3)
        a = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        half = stepper.cartesian(a).reshape((dim,) + grid.half_shape)
        want = _irfft_spatial(half, n, dim, n // 2)
        stepper.physical(a)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            snap = stepper.physical(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(snap, want)
        assert (peak - before) / 1024 <= snap.nbytes / 1024 + 8


    def test_run_peak_is_a_step_or_sample_peak(self, monkeypatch):
        # with a Cartesian buffer of its own and the conj and take
        # temporaries of the full-lattice conversion, to_state took this
        # run (3D n = 16) from the 4105 KB peak of its steps and samples to
        # 4441 KB; at 3D n = 32 its 1.5 MB full-lattice field rose 310 KB
        # above that peak until the run freed the stage buffers first; the
        # field is now the Cartesian half-spectrum itself
        import tracemalloc
        sys = make_disordered_system(params(dim=3, alpha=0.5))
        cfg = SolverConfig(dt=1e-3, t_end=2e-3, diagnostics_interval=1e-3)
        peaks = []
        to_state = Stepper.to_state

        def traced(self, a):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return to_state(self, a)
        monkeypatch.setattr(Stepper, "to_state", traced)
        for n in (16, 32):
            grid = SpectralGrid(3, n, 20.0 * np.pi)
            u0 = random_solenoidal_field(grid, 0.05, 0.5, 3)
            peaks.clear()
            tracemalloc.start()
            try:
                run(u0, sys, grid, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(peaks) == 1
            assert (peak - peaks[0]) / 1024 <= 64, n


def _held_after_one_step_kb(dim, n, ordered):
    """The heap a fresh stepper holds after one step from a random state."""
    import tracemalloc
    p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
    sys = make_ordered_system(p) if ordered else make_disordered_system(p)
    grid = SpectralGrid(dim, n, 20.0 * np.pi)
    u0 = random_solenoidal_field(grid, 0.05, 0.5, 3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        stepper = Stepper(sys, grid, dt=1e-3)
        stepper.step(stepper.from_state(u0), 0.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (held - before) / 1024


def _irfft_unpruned(arr, n_out, dim):
    """Reference inverse: every leading-axis line, in place, then irfft."""
    for ax in range(arr.ndim - dim, arr.ndim - 1):
        np.fft.ifft(arr, axis=ax, norm="forward", out=arr)
    return np.fft.irfft(arr, n=n_out, axis=-1, norm="forward")


def _rfft_unpruned(arr, dim):
    """Reference forward: rfft, then every leading-axis line, in place,
    from the middle axis to the first, the order of the product pass."""
    out = np.fft.rfft(arr, axis=-1, norm="forward")
    for ax in reversed(range(out.ndim - dim, out.ndim - 1)):
        np.fft.fft(out, axis=ax, norm="forward", out=out)
    return out


def _forward(grid, phys):
    """The band of the transforms of the physical rows `phys`, (rows,) +
    (nf,) * dim, through a fine lattice's product pass: a visitor writes
    them into its `out` rows, one slab at a time, in order."""
    rows, done = phys.reshape(len(phys), -1), [0]

    def fill(fine, out, scratch):
        out[...] = rows[:, done[0]:done[0] + out.shape[1]]
        done[0] += out.shape[1]
    lattice = FineLattice(grid, len(phys))
    lattice.products(len(phys), fill)   # the pad rows hold zeros
    return lattice.band(np.zeros((len(phys),) + grid.half_shape,
                                 np.complex128))


def _band_mask(dim, size, h):
    """True on the band |m| < h of a half-spectrum with `size` points on
    each leading axis."""
    rows = (np.arange(size) < h) | (np.arange(size) >= size - h + 1)
    mask = np.arange(size // 2 + 1) < h
    for _ in range(dim - 1):
        mask = np.logical_and.outer(rows, mask)
    return mask


class TestPrunedTransforms:
    """The pruned pair skips lines that are all zero on input (inverse) or
    never read back (forward); every line it does compute sees the same
    input as in the unpruned loop, so the results agree bit for bit."""

    CASES = [(2, 8), (2, 64), (3, 8), (3, 16)]

    @pytest.mark.parametrize("dim,n", CASES)
    @pytest.mark.parametrize("factor", [1, 2])
    def test_inverse_matches_unpruned(self, dim, n, factor):
        rng = np.random.default_rng(n + dim)
        size = factor * n
        shape = (dim,) + (size,) * (dim - 1) + (size // 2 + 1,)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        arr *= _band_mask(dim, size, n // 2)
        expect = _irfft_unpruned(arr.copy(), size, dim)
        out = np.empty((dim,) + (size,) * dim)
        got = _irfft_spatial(arr.copy(), size, dim, n // 2, out=out)
        assert got is out
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("dim,n", CASES)
    def test_forward_matches_unpruned_in_band(self, dim, n, monkeypatch):
        # the product pass on numpy's FFTs: rfft, in 3D the middle axis of
        # each slab, then the first axis on the band rows of the middle one
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS", 0)
        rng = np.random.default_rng(10 * n + dim)
        nf, h = 2 * n, n // 2
        arr = rng.standard_normal((dim,) + (nf,) * dim)
        out = _forward(SpectralGrid(dim, n, 20.0 * np.pi), arr)
        rows = np.r_[0:h, nf - h:nf]   # the fine rows of the coarse band
        expect = _rfft_unpruned(arr, dim)[
            (slice(None),) + np.ix_(*[rows] * (dim - 1), np.arange(h + 1))]
        band = np.broadcast_to(_band_mask(dim, n, h), out.shape)
        assert np.array_equal(out[band], expect[band])

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_fine_physical_after_rhs_matches_fresh(self, dim, n):
        # rhs leaves the pad buffer dirty wherever the pruned passes wrote;
        # the re-zeroing in _pad must cover all of it
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        sys = make_ordered_system(params(dim=dim, alpha=-0.5))
        stepper = Stepper(sys, grid, dt=1e-3)
        u = stepper.cartesian(stepper.from_state(
            random_solenoidal_field(grid, 0.3, 0.5, 4)))
        other = stepper.from_state(random_solenoidal_field(grid, 0.7, 0.8, 5))
        stepper.rhs(other, 0.0, np.empty_like(other))
        got = _collect(lambda visit: stepper.fine_physical(u, visit))
        fresh = Stepper(sys, grid, dt=1e-3)
        assert np.array_equal(got, _collect(
            lambda visit: fresh.fine_physical(u, visit)))

    def test_fft_work_of_a_step(self, monkeypatch):
        """5 L log2 L per complex line and 2.5 L log2 L per real line, from
        the shapes numpy.fft sees, against the same count for the unpruned
        passes over the whole fine lattice."""
        dim, n = 3, 16
        nf = 2 * n
        flops = []

        def counted(name, per):
            fn = getattr(np.fft, name)

            def wrapper(a, n=None, axis=-1, **kw):
                length = n if name == "irfft" else a.shape[axis]
                lines = a.size // a.shape[axis]
                flops.append(per * length * math.log2(length) * lines)
                return fn(a, n=n, axis=axis, **kw)
            monkeypatch.setattr(np.fft, name, wrapper)

        for name, per in (("fft", 5.0), ("ifft", 5.0), ("rfft", 2.5),
                          ("irfft", 2.5)):
            counted(name, per)
        # the pocketfft path, so that the last-axis passes are counted too
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS", 0)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(make_disordered_system(params(dim=dim)), grid,
                          dt=1e-3)
        uh = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        stepper.step(uh, 0.0)

        # per field row, unpruned: dim - 1 complex passes of
        # nf^(dim-2) (nf/2 + 1) lines and one real pass of nf^(dim-1) lines,
        # all of length nf; rows are u and curl u in, G out; 4 tendencies
        lines = (dim - 1) * 5.0 * nf ** (dim - 2) * (nf // 2 + 1) \
            + 2.5 * nf ** (dim - 1)
        unpruned = 4 * (2 * dim + dim) * lines * nf * math.log2(nf)
        assert sum(flops) <= 0.65 * unpruned, sum(flops) / unpruned


class TestFusedTransfers:
    """The tendency stages u = Q a and curl u, both formed from the slot
    coefficients a on contiguous rows, and copies them into the fine
    lattice's band: the same samples as the Cartesian route, which forms
    the curl i k x u from u.  The counts pin the transforms of one `rhs`."""

    @pytest.mark.parametrize("kind", ["rest", "polar", "polar_oblique"])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_samples_match_the_cartesian_route(self, dim, n, kind,
                                               monkeypatch):
        # in 3D both polar states turn the slot pair by the Jacobi angle
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3)
        a = stepper.from_state(random_solenoidal_field(grid, 0.3, 0.5, 4))
        _set_mean_slots(a, np.arange(1.0, dim + 1.0) / 10.0)
        slabs = []   # u and curl u as the product pass samples them
        monkeypatch.setattr(
            integrate._kernels, f"products_{dim}d",
            lambda u, w, *_: slabs.append(np.concatenate([u, w])))
        stepper._products(a, 1.0)
        got = np.concatenate(slabs, axis=1)
        u = stepper.cartesian(a).reshape((dim,) + grid.half_shape)
        kd = grid.k_deriv_half
        pairs = [(0, 1)] if dim == 2 else [(1, 2), (2, 0), (0, 1)]
        curl = np.stack([1j * (kd[i] * u[j] - kd[j] * u[i]) for i, j in pairs])
        want = _samples(FineLattice(grid, len(got)), u, curl)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def _rhs_transforms(dim, n, monkeypatch):
        """The names of the numpy.fft functions and np.matmul that one
        warmed `rhs` calls, in order."""
        sys = make_ordered_system(params(dim=dim, alpha=-0.5))
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3)
        a = stepper.from_state(random_solenoidal_field(grid, 0.3, 0.5, 4))
        out = np.empty_like(a)
        stepper.rhs(a, 0.0, out)
        names = []
        for mod, name in [(np.fft, name) for name in (
                "fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                "irfftn", "fft2", "ifft2", "rfft2", "irfft2")] + [
                (np, "matmul")]:
            def counted(*args, _fn=getattr(mod, name), _name=name, **kw):
                names.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(mod, name, counted)
        stepper.rhs(a, 0.0, out)
        return names

    # the first-axis passes of one pruned inverse of u and curl u and of one
    # truncated forward of G: ifft and fft in 2D, in 3D one each on the two
    # band blocks of the middle axis; then per product slab (one at 2D
    # n = 16 and 3D n = 8, two at 3D n = 16) the last-axis inverse and
    # forward, in 3D between an ifft and an fft of the slab's middle axis
    SLAB_COUNTS = [pytest.param(2, 16, 4, 1, id="2-16-4"),
                   pytest.param(3, 8, 8, 1, id="3-8-8"),
                   pytest.param(3, 16, 12, 2, id="3-16-12")]

    @pytest.mark.parametrize("dim,n,calls,slabs", SLAB_COUNTS)
    def test_rhs_transform_count(self, dim, n, calls, slabs, monkeypatch):
        # the GEMM path of short fine axes: one matmul each way per slab
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS", 2 * n)
        names = self._rhs_transforms(dim, n, monkeypatch)
        assert len(names) == calls, names
        assert names.count("matmul") == 2 * slabs, names

    @pytest.mark.parametrize("dim,n,calls,slabs", SLAB_COUNTS)
    def test_rhs_transform_count_pocketfft(self, dim, n, calls, slabs,
                                           monkeypatch):
        # the pocketfft path: one irfft and one rfft per slab, no matmul
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS", 2 * n - 1)
        names = self._rhs_transforms(dim, n, monkeypatch)
        assert len(names) == calls, names
        assert names.count("irfft") == names.count("rfft") == slabs, names
        assert "matmul" not in names, names


def _real_half_spectrum(grid, rows, seed):
    """Half-spectrum of `rows` random real fields, Nyquist zeroed, with the
    full-lattice coefficients."""
    rng = np.random.default_rng(seed)
    axes = tuple(range(1, grid.dim + 1))
    full = zero_nyquist(grid, np.fft.fftn(
        rng.standard_normal((rows,) + grid.shape), axes=axes, norm="forward"))
    return full[..., : grid.n // 2 + 1].copy(), full


class TestFineLattice:
    """The one fine-lattice engine against the full complex lattice route
    (`pad_spectrum`/`truncate_spectrum`), which splits no mode on
    Nyquist-free input: here on the GEMM path of the last axis, in
    `TestFineLatticePocketfft` on numpy's FFTs."""

    GEMM_MAX_POINTS = 1 << 30

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS",
                            self.GEMM_MAX_POINTS)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_samples_match_padded_full_lattice(self, dim, n):
        from lfsim.spectral import pad_spectrum
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        a_half, a = _real_half_spectrum(grid, dim, 1)
        b_half, b = _real_half_spectrum(grid, dim * dim, 2)
        got = _samples(FineLattice(grid, dim + dim * dim), a_half, b_half)
        axes = tuple(range(1, dim + 1))
        expect = np.real(np.fft.ifftn(
            pad_spectrum(grid, np.concatenate([a, b]), 2 * n), axes=axes,
            norm="forward"))
        assert got.shape == (dim + dim * dim, (2 * n) ** dim)
        assert np.max(np.abs(got - expect.reshape(got.shape))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_band_matches_truncated_full_lattice(self, dim, n):
        from lfsim.spectral import truncate_spectrum
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        rng = np.random.default_rng(3)
        phys = rng.standard_normal((dim,) + (2 * n,) * dim)
        out = _forward(grid, phys)
        axes = tuple(range(1, dim + 1))
        expect = truncate_spectrum(grid, np.fft.fftn(phys, axes=axes,
                                                     norm="forward"))
        band = np.broadcast_to(_band_mask(dim, n, n // 2), out.shape)
        assert np.max(np.abs(out[band] - expect[..., : n // 2 + 1][band])) \
            <= 1e-13
        assert np.all(out[~band] == 0.0)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_reuse_across_row_counts_matches_fresh(self, dim, n):
        # the passes leave the pad rows dirty wherever they wrote; a pass
        # must re-zero the gaps of the rows it uses
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        a_half, _ = _real_half_spectrum(grid, dim, 4)
        b_half, _ = _real_half_spectrum(grid, dim * dim, 5)
        u_half, _ = _real_half_spectrum(grid, dim, 6)
        lattice = FineLattice(grid, dim + dim * dim)
        _samples(lattice, a_half, b_half)
        got = _samples(lattice, u_half)
        assert np.array_equal(got, _samples(FineLattice(grid, dim), u_half))

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_column_zero_imaginary_part_is_ignored_as_by_irfft(self, dim, n):
        # input that is not Hermitian on the k_last = 0 plane leaves a
        # non-zero Im in column 0 after the leading passes; irfft drops it
        rng = np.random.default_rng(7)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        h, nf = n // 2, 2 * n
        shape = (dim,) + grid.half_shape
        half = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                ) * _band_mask(dim, n, h)
        pad = np.zeros((dim,) + (nf,) * (dim - 1) + (n + 1,), np.complex128)
        fine_rows, rows = np.r_[0:h, nf - h + 1:nf], np.r_[0:h, n - h + 1:n]
        pad[(slice(None),) + np.ix_(*[fine_rows] * (dim - 1), np.arange(h))] \
            = half[(slice(None),) + np.ix_(*[rows] * (dim - 1), np.arange(h))]
        col0 = np.fft.ifftn(pad[..., 0], axes=tuple(range(1, dim)),
                            norm="forward")
        assert np.max(np.abs(col0.imag)) > 0.1
        expect = _irfft_unpruned(pad, nf, dim).reshape(dim, -1)
        got = _samples(FineLattice(grid, dim), half)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestFineLatticePocketfft(TestFineLattice):
    GEMM_MAX_POINTS = 0


class TestSlabs:
    """The product pass runs one slab of first-axis planes at a time: every
    line transform and every pointwise product sees the same numbers in any
    number of slabs, so the slab count changes no bit."""

    @pytest.mark.parametrize("dim,n,kind", [(2, 64, "polar"), (3, 16, "rest"),
                                            (3, 16, "polar")])
    def test_slab_count_changes_no_bit(self, dim, n, kind, monkeypatch):
        self._states_at_slab_counts(dim, n, kind, monkeypatch)

    def test_slab_count_changes_no_bit_pocketfft(self, monkeypatch):
        # the 3D middle-axis passes of each slab with the last-axis FFTs
        monkeypatch.setattr("lfsim.lattice.GEMM_MAX_POINTS", 0)
        self._states_at_slab_counts(3, 16, "polar", monkeypatch)

    @staticmethod
    def _states_at_slab_counts(dim, n, kind, monkeypatch):
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        u0 = random_solenoidal_field(grid, 0.3, 0.5, 4)
        state = SolverState(0.0, u0, sys, grid)
        nf = 2 * n
        got = []
        # one slab, two, and slabs of 3 planes, which do not divide nf
        for planes in (nf, nf // 2, 3):
            monkeypatch.setattr("lfsim.lattice.SLAB_POINTS",
                                planes * nf ** (dim - 1))
            stepper = Stepper(sys, grid, dt=1e-3)
            assert len(stepper._lattice._slabs) == -(-nf // planes)
            got.append((stepper.step(stepper.from_state(u0), 0.0).copy(),
                        nonlinear_rhs(state).coeffs))
        for stepped, rhs in got[1:]:
            assert np.array_equal(stepped, got[0][0])
            assert np.array_equal(rhs, got[0][1])

    @pytest.mark.parametrize("dim,n,kind", [(2, 64, "polar"), (3, 16, "rest"),
                                            (3, 16, "polar_oblique")])
    def test_sampler_sums_agree_across_slab_counts(self, dim, n, kind,
                                                   monkeypatch):
        # the sampler adds its fine-lattice sums slab by slab, so only the
        # order of the additions depends on the slab count
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        u0 = random_solenoidal_field(grid, 0.3, 0.5, 4)
        nf = 2 * n
        rows = []
        for planes in (nf, nf // 2, 3):
            monkeypatch.setattr("lfsim.lattice.SLAB_POINTS",
                                planes * nf ** (dim - 1))
            stepper = Stepper(sys, grid, dt=1e-3)
            recorder = integrate._SeriesRecorder(stepper, ())
            recorder.sample(0.0, stepper.cartesian(stepper.from_state(u0)))
            rows.append(recorder.rows[0])
        assert rows[0]["l4_norm_4"] > 0.0
        assert (rows[0]["n_inner"] != 0.0) == (kind != "rest")
        for key in ("l4_norm_4", "n_inner"):
            want = rows[0][key]
            for row in rows[1:]:
                assert abs(row[key] - want) <= 1e-14 * abs(want), key


class TestSlotBasis:
    """The slot basis and symbol of the integrating factor
    (`stability._slot_basis`), mode by mode, against `stability.symbol_at`,
    and the growth rates built on it against their closed forms."""

    SYSTEMS = {
        "rest": lambda d: make_disordered_system(params(alpha=-0.3, dim=d)),
        "polar": lambda d: make_ordered_system(params(alpha=-1.0, dim=d)),
        # V along (1, 2, 2)/3 in 3D: oblique, with k || V on the lattice
        "polar_oblique": lambda d: make_ordered_system(
            params(alpha=-0.7, beta=1.3, lambda0=0.6, dim=d),
            [0.6, 0.8] if d == 2 else [1 / 3, 2 / 3, 2 / 3]),
    }

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_against_stability(self, dim, n, kind):
        from lfsim.stability import symbol_at
        sys = self.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        k = grid.k_half.reshape(dim, -1)
        Q, stiff, moved = _slot_basis(sys, k)
        lam = stiff + moved
        eye = np.eye(dim)
        assert np.max(np.abs(np.einsum("ism,itm->stm", Q, Q)
                             - eye[:, :, None])) <= 1e-14
        if kind != "rest":   # the lattice holds modes k || V, k != 0
            kabs = np.sqrt(np.sum(k * k, axis=0))
            along = np.abs(sys.V @ k) / np.linalg.norm(sys.V)
            assert np.count_nonzero((kabs > 0) & (kabs - along <= 1e-12)) >= 2
        for m in range(k.shape[1]):
            km = k[:, m]
            S = symbol_at(sys, km).matrix
            ksq = float(km @ km)
            sol = slice(None) if ksq == 0.0 else slice(0, dim - 1)
            P = eye if ksq == 0.0 else eye - np.outer(km, km) / ksq
            Qs = Q[:, sol, m]
            got = (Qs * lam[sol, m]) @ Qs.T
            assert np.max(np.abs(got - P @ S @ P)) <= 1e-12 * max(
                1.0, np.max(np.abs(S)))
            # the rate against the dense symbol on an SVD basis of k-perp
            B = eye if ksq == 0.0 else np.linalg.svd(km[None, :])[2][1:].T
            dense = -np.linalg.eigvalsh(B.T @ S.real @ B)[0]
            assert abs(growth_rate(sys, km) - dense) <= 1e-12 * max(
                1.0, abs(dense))

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_lattice_growth_rates(self, dim, n, kind):
        # the closed forms of M = alpha I (rest) and M = 2 beta V V^T
        # (polar), on every mode of the half-spectrum (the rate of -k is
        # that of k): the restricted M's
        # least eigenvalue is alpha at rest; for the polar state
        # 2 beta (V.k-hat-perp)^2 in 2D (0 at k = 0), and 0 in 3D, where
        # some x perp {V, k} always exists
        from lfsim.stability import lattice_growth_rates
        sys = self.SYSTEMS[kind](dim)
        p = sys.params
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        ksq = grid.ksq_half
        if kind == "rest":
            mu = np.full_like(ksq, p.alpha)
        elif dim == 2:
            knorm = np.sqrt(np.where(ksq > 0, ksq, 1.0))
            vdot = (sys.V[0] * -grid.k_half[1] + sys.V[1] * grid.k_half[0]) \
                / knorm
            mu = np.where(ksq > 0, 2.0 * p.beta * vdot**2, 0.0)
        else:
            mu = np.zeros_like(ksq)
        closed = -(p.gamma2 * ksq**2 + p.gamma0 * ksq + mu)
        rates = lattice_growth_rates(sys, grid)
        assert np.all(np.abs(rates - closed)
                      <= 1e-12 * np.maximum(1.0, np.abs(closed)))

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_pairs_on_the_zero_plane(self, dim, n, kind):
        # +-k both live in the m = 0 plane of the half layout: each column
        # of Q(-k) is +-Q(k) and lam(-k) = conj(lam(k)), bit for bit
        sys = self.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        Q, stiff, moved = _slot_basis(sys, grid.k_half.reshape(dim, -1))
        lam = stiff + moved
        Q = Q.reshape((dim, dim) + grid.half_shape)
        lam = lam.reshape((dim,) + grid.half_shape)
        rows = [i for i in range(n) if i != n // 2]   # no partner at n/2
        checked = 0
        for idx in itertools.product(rows, repeat=dim - 1):
            here = idx + (0,)
            there = tuple((-i) % n for i in idx) + (0,)
            for s in range(dim):
                a, b = Q[(slice(None), s) + here], Q[(slice(None), s) + there]
                assert np.array_equal(a, b) or np.array_equal(a, -b)
                assert lam[(s,) + there] == np.conj(lam[(s,) + here])
            checked += 1
        assert checked == (n - 1) ** (dim - 1)


class TestMeanSlot:
    """A state carries the live slots only: the first dim - 1 of every mode
    and, in one trailing column, the mean's last slot, which `cartesian`
    folds back into k = 0."""

    @pytest.mark.parametrize("kind", ["polar", "polar_oblique"])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_mean_decays_at_its_last_slot_rate(self, dim, n, kind):
        # a pure mean along the last slot of k = 0, whose rate differs from
        # the other slots' there: a dropped or misfolded trailing column
        # loses the mean or moves it at another rate
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        Q, stiff, moved = _slot_basis(sys, np.zeros((dim, 1)))
        lam = (stiff + moved)[:, 0]
        mu = lam[-1].real
        assert lam[-1].imag == 0.0 and np.all(np.abs(lam[:-1] - mu) > 0.5)
        mean = (slice(None),) + (0,) * dim
        coeffs = np.zeros((dim,) + grid.half_shape, complex)
        coeffs[mean] = 0.3 * Q[:, -1, 0]
        config = SolverConfig(dt=1e-2, t_end=1.0, diagnostics_interval=0.1)
        traj = run(SpectralField(grid, coeffs), sys, grid, config,
                   linearized=True)
        decay = np.exp(-mu * traj.times)
        l2 = traj.series["l2_norm_sq"]
        assert np.max(np.abs(l2 / (l2[0] * decay**2) - 1.0)) <= 1e-13
        got = traj.final.u_hat.coeffs
        want = coeffs[mean] * decay[-1]
        assert np.max(np.abs(got[mean] - want)) <= 1e-13 * np.max(np.abs(want))
        got[mean] = 0.0
        assert np.max(np.abs(got)) == 0.0

    @pytest.mark.parametrize("kind", sorted(TestSlotBasis.SYSTEMS))
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_round_trip_keeps_every_mean_component(self, dim, n, kind):
        # to_state(from_state(u)) at k = 0 is Q Q^T u of the whole basis
        # there, the last slot's term added last, bit for bit; where that
        # basis is a signed permutation (rest, polar along e1) it is u
        sys = TestSlotBasis.SYSTEMS[kind](dim)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        tendency = integrate.Tendency(sys, grid)
        mean = (slice(None),) + (0,) * dim
        Q = _slot_basis(sys, np.zeros((dim, 1)))[0]
        row = np.empty(1, complex)
        for seed in range(4):
            u = random_solenoidal_field(grid, 0.3, 0.5, seed, zero_mean=False)
            got = tendency.to_state(tendency.from_state(u)).coeffs[mean]
            a = _kernels.rotate(Q.transpose(1, 0, 2), u.coeffs[mean][:, None],
                                row, np.empty((dim, 1), complex))
            want = _kernels.rotate(Q, a, row, np.empty((dim, 1), complex))
            assert np.array_equal(got, want[:, 0])
            if kind != "polar_oblique":
                assert np.array_equal(got, u.coeffs[mean])

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_stepper_holds_no_k_hat_row(self, dim, n, ordered):
        # the basis, the step coefficients and every state buffer hold at
        # most dim - 1 slot rows of n_modes + 1 columns
        p = params(dim=dim, alpha=-0.5 if ordered else 0.5)
        sys = make_ordered_system(p) if ordered else make_disordered_system(p)
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        stepper = Stepper(sys, grid, dt=1e-3)
        a = stepper.from_state(random_solenoidal_field(grid, 0.05, 0.5, 3))
        stepper.step(a, 0.0)
        cols = stepper.n_modes + 1
        assert stepper.basis.shape == (dim, dim - 1, cols)
        coeffs, buffers = stepper._stages
        for arr in (a, stepper.symbol, stepper.E, *coeffs, *buffers,
                    *stepper._out_bufs):
            assert arr.shape[-1] == cols and len(arr) <= dim - 1
