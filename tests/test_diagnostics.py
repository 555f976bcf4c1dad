import dataclasses
import math

import numpy as np
import pytest

from lfsim.model import ModelParams, StateKind, make_disordered_system, \
    make_ordered_system
from lfsim.spectral import SpectralGrid, forward, l2_norm_sq, zero_nyquist
from lfsim.integrate import (SolverConfig, SolverState, run,
                             random_solenoidal_field, single_mode_field)
from lfsim.diagnostics import (DECAY_TOLERANCE_FACTOR, NonPositiveAmplitudeError,
                               WindowTooShortError, WrongSystemError,
                               advection_skew_inner, budget_series,
                               check_decay_bound, energy_budget,
                               fd4_derivative, fit_growth,
                               integrated_identity_residual,
                               quartic_gradient_inner)


def params(**kw):
    base = dict(lambda0=1.0, lambda1=0.0, alpha=0.1, beta=1.0,
                gamma0=-1.0, gamma2=1.0, dim=2)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid(2, 32, 20.0 * np.pi)


class TestEnergyBudget:
    def test_zero_state(self, grid32):
        sys = make_disordered_system(params())
        f = forward(grid32, np.zeros((2, 32, 32)))
        b = energy_budget(SolverState(0.0, f, sys, grid32))
        assert b.kinetic == 0.0 and b.dissipation_bilap == 0.0
        assert b.landau_quartic == 0.0 and b.ordered_projection == 0.0
        assert math.isnan(b.residual)

    def test_single_mode_arithmetic(self, grid32):
        # kinetic = a^2 vol / 4 and bilap = gamma2 |k|^4 * 2 * kinetic
        p = params(gamma2=1.7, alpha=0.3)
        sys = make_disordered_system(p)
        a, k = 0.25, np.array([0.5, 0.0])
        f = single_mode_field(grid32, k, [0.0, 1.0], a)
        b = energy_budget(SolverState(0.0, f, sys, grid32))
        kin = a**2 * grid32.volume / 4.0
        assert abs(b.kinetic - kin) <= 1e-12 * kin
        expect_bilap = 1.7 * 0.25**2 * 2.0 * kin
        assert abs(b.dissipation_bilap - expect_bilap) <= 1e-12 * expect_bilap
        assert abs(b.landau_linear - 0.3 * 2.0 * kin) <= 1e-12 * kin

    def test_parseval_consistency(self, grid32):
        rng = np.random.default_rng(2)
        phys = rng.standard_normal((2, 32, 32))
        f = forward(grid32, phys)
        quad = (grid32.length / 32) ** 2 * np.sum(phys**2)
        assert abs(l2_norm_sq(f) - quad) <= 1e-12 * quad

    def test_ordered_projection_value(self, grid32):
        p = params(alpha=-1.0, beta=2.0)
        sys = make_ordered_system(p, [1.0, 0.0])
        f = single_mode_field(grid32, [0.5, 0.0], [0.0, 1.0], 0.1)
        b = energy_budget(SolverState(0.0, f, sys, grid32))
        # u is perpendicular to V here: both M-form and projection vanish
        assert abs(b.ordered_projection) < 1e-15
        f2 = single_mode_field(grid32, [0.0, 0.5], [1.0, 0.0], 0.1)
        b2 = energy_budget(SolverState(0.0, f2, sys, grid32))
        kin = 0.1**2 * grid32.volume / 4.0
        # 2*beta*||V.u||^2 with |V|^2 = -alpha/beta = 1/2 and u || V
        vsq = -p.alpha / p.beta
        expect = 2.0 * p.beta * vsq * 2.0 * kin
        assert abs(b2.ordered_projection - expect) <= 1e-12 * expect
        assert abs(b2.landau_linear - b2.ordered_projection) <= 1e-12 * expect


    @pytest.mark.parametrize("dim,n,ordered", [(2, 32, True), (3, 8, False)])
    def test_equals_the_last_sample_of_the_run(self, dim, n, ordered):
        # one per-state computation: the budget of the final state is the
        # run's last sample, bit for bit
        if ordered:
            sys = make_ordered_system(params(alpha=-1.0, gamma0=-0.5, dim=dim))
        else:
            sys = make_disordered_system(params(alpha=0.5, gamma0=1.0, dim=dim))
        grid = SpectralGrid(dim, n, 20.0 * np.pi if dim == 2 else 2.0 * np.pi)
        u0 = random_solenoidal_field(grid, 0.1, 0.5 if dim == 2 else 2.0, 3)
        cfg = SolverConfig(dt=1e-2, t_end=0.5, diagnostics_interval=0.1)
        traj = run(u0, sys, grid, cfg)
        got = energy_budget(traj.final)
        want = budget_series(traj)[-1]
        for name in ("kinetic", "dissipation_bilap", "dissipation_lap",
                     "landau_linear", "landau_quartic", "ordered_projection"):
            assert getattr(got, name) == getattr(want, name), name

    def test_nyquist_modes_are_not_measured(self, grid32):
        sys = make_ordered_system(params(alpha=-1.0, beta=2.0), [1.0, 0.0])
        rng = np.random.default_rng(5)
        f = forward(grid32, rng.standard_normal((2, 32, 32)))
        assert np.any(f.coeffs[:, 16, :]) and np.any(f.coeffs[:, :, 16])
        clean = f.copy()
        zero_nyquist(grid32, clean.coeffs)
        got = dataclasses.astuple(energy_budget(SolverState(0.5, f, sys, grid32)))
        want = dataclasses.astuple(
            energy_budget(SolverState(0.5, clean, sys, grid32)))
        assert got[:-1] == want[:-1]


class TestFd4:
    def test_exact_on_quartic(self):
        t = np.linspace(0.0, 2.0, 21)
        y = t**4 - 3 * t**2 + t
        d = fd4_derivative(t, y)
        expect = 4 * t**3 - 6 * t + 1
        assert np.max(np.abs(d - expect)) < 1e-10

    def test_needs_uniform_sampling(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4])
        with pytest.raises(ValueError, match="uniform"):
            fd4_derivative(t, t)

    def test_needs_five_samples(self):
        with pytest.raises(ValueError, match="5"):
            fd4_derivative(np.arange(4.0), np.arange(4.0))


class TestFitGrowth:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_growth(t, 0.3 * np.exp(0.15 * t))
        assert abs(fit.rate - 0.15) < 1e-12
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 50)
        fit = fit_growth(t, np.full(50, 2.0))
        assert fit.rate == 0.0
        assert fit.r_squared == 1.0

    def test_window_selection(self):
        t = np.linspace(0.0, 10.0, 101)
        a = np.exp(0.1 * t)
        a[:30] = 5.0   # pollute outside the window
        fit = fit_growth(t, a, window=(3.0, 10.0))
        assert abs(fit.rate - 0.1) < 1e-12
        assert fit.window[0] >= 3.0

    def test_errors(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(NonPositiveAmplitudeError):
            fit_growth(t, np.linspace(-0.1, 1.0, 20))
        with pytest.raises(WindowTooShortError):
            fit_growth(t[:5], np.ones(5))


class TestDecayBound:
    def test_exact_envelope_holds(self):
        p = params(alpha=0.5, gamma0=1.0)
        t = np.linspace(0.0, 5.0, 200)
        series = 3.0 * np.exp(-2 * 0.5 * t)
        rep = check_decay_bound(t, series, p)
        assert rep.holds and rep.rate == 1.0
        assert 0.0 <= rep.margin <= math.log(DECAY_TOLERANCE_FACTOR) + 1e-12

    def test_slow_decay_fails(self):
        p = params(alpha=0.5, gamma0=1.0)
        t = np.linspace(0.0, 5.0, 200)
        rep = check_decay_bound(t, np.exp(-0.5 * t), p)
        assert not rep.holds and rep.margin < 0.0

    def test_gamma0_negative_rate(self):
        p = params(alpha=0.3, gamma0=-1.0)
        rep = check_decay_bound(np.linspace(0, 1, 20),
                                np.exp(-0.2 * np.linspace(0, 1, 20)), p)
        assert rep.rate == pytest.approx(2 * (0.3 - 0.25))
        assert rep.holds

    def test_alpha_zero_stability_form(self):
        p = params(alpha=0.0, gamma0=0.0)
        t = np.linspace(0, 2, 30)
        rep = check_decay_bound(t, np.full(30, 1.0), p)
        assert rep.rate == 0.0 and rep.holds   # ||u(t)|| <= ||u0||

    def test_rejects_ordered_runs(self):
        with pytest.raises(WrongSystemError):
            check_decay_bound(np.linspace(0, 1, 20), np.ones(20),
                              params(alpha=-1.0), StateKind.ORDERED)


class TestStructuralWitnesses:
    GRIDS = [(2, 32), (3, 8)]

    def test_advection_skew(self):
        from lfsim.spectral import grad_norm_sq, inverse
        for dim, n in self.GRIDS:
            grid = SpectralGrid(dim, n, 20.0 * np.pi)
            u = random_solenoidal_field(grid, 0.5, 0.6, 12)
            scale = (math.sqrt(l2_norm_sq(u)) * math.sqrt(grad_norm_sq(u))
                     * np.max(np.abs(inverse(u))))
            for V in (None, np.array([0.7, -0.3, 0.2][:dim])):
                val = advection_skew_inner(grid, u, V)
                assert abs(val) <= 1e-10 * scale, (grid, V)

    def test_quartic_gradient_nonnegative(self):
        for dim, n in self.GRIDS:
            grid = SpectralGrid(dim, n, 20.0 * np.pi)
            for seed in range(5):
                u = random_solenoidal_field(grid, 0.4, 0.6, seed)
                assert quartic_gradient_inner(grid, u) >= -1e-10, (grid, seed)

    def test_no_transform_of_the_full_fine_lattice(self, monkeypatch):
        # the witnesses and the pressure recovery pad through the pruned
        # half-spectrum engine, never through a full (2n)^dim complex array
        from lfsim.integrate import recover_pressure
        shapes = []
        for name in ("fftn", "ifftn"):
            def wrapper(a, *args, _fn=getattr(np.fft, name), **kw):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.fft, name, wrapper)
        for dim, n in self.GRIDS:
            grid = SpectralGrid(dim, n, 20.0 * np.pi)
            sys = make_ordered_system(params(alpha=-1.0, lambda1=0.3, dim=dim))
            u = random_solenoidal_field(grid, 0.4, 0.6, 7)
            shapes.clear()
            recover_pressure(SolverState(0.0, u, sys, grid))
            advection_skew_inner(grid, u)
            quartic_gradient_inner(grid, u)
            fine = (2 * n,) * dim
            assert not [s for s in shapes if s[-dim:] == fine], shapes


@pytest.fixture(scope="module")
def nonlinear_traj(grid32):
    sys = make_disordered_system(params(alpha=0.1))
    u0 = random_solenoidal_field(grid32, 1e-2, 0.5, 4)
    cfg = SolverConfig(dt=1e-3, t_end=0.5, diagnostics_interval=1e-2)
    return run(u0, sys, grid32, cfg)


class TestTrajectoryBudget:

    def test_residual_small(self, nonlinear_traj):
        budgets = budget_series(nonlinear_traj)
        worst = max(b.residual / max(1.0, b.kinetic) for b in budgets)
        assert worst <= 1e-6

    def test_budget_matches_energy_identity_terms(self, nonlinear_traj):
        p = nonlinear_traj.system.params
        b = budget_series(nonlinear_traj)[0]
        s = nonlinear_traj.series
        assert b.dissipation_bilap == pytest.approx(p.gamma2 * s["lap_norm_sq"][0])
        assert b.landau_linear == pytest.approx(0.1 * s["l2_norm_sq"][0])

    def test_linearized_ordered_integrated_identity(self, grid32):
        p = params(alpha=-1.0, gamma0=1.0)
        sys = make_ordered_system(p, [1.0, 0.0])
        u0 = random_solenoidal_field(grid32, 1e-3, 0.4, 6)
        cfg = SolverConfig(dt=5e-4, t_end=1.0, diagnostics_interval=5e-4)
        traj = run(u0, sys, grid32, cfg, linearized=True)
        assert integrated_identity_residual(traj) <= 1e-6
        l2 = traj.series["l2_norm_sq"]
        assert np.all(np.diff(l2) <= 1e-10 * l2[0])   # contractive
