"""Acceptance suite.

Each test certifies one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them inline).
Defaults are the desk scale (2D, N=64, L=20*pi, dt=1e-3); where a run states
a different dt/N/cadence it is noted inline and chosen so the criterion's
tolerance is still the binding constraint.
"""

import math

import numpy as np
import pytest

from lfsim.model import ModelParams, StateKind, make_disordered_system, \
    make_ordered_system
from lfsim.lattice import dealiased_product
from lfsim.spectral import (SpectralField, SpectralGrid, forward,
                            pad_spectrum, truncate_spectrum, zero_nyquist)
from lfsim.integrate import (SolverConfig, amp_label, run,
                             random_solenoidal_field, single_mode_field)
from lfsim.diagnostics import (budget_series, check_decay_bound, fit_growth,
                               integrated_identity_residual)
from lfsim.stability import (Classification, classify_disordered,
                             classify_ordered, growth_rate, unstable_band)
from lfsim.experiments import _linear_window, _seed_modes

L_BOX = 20.0 * math.pi


def params(**kw):
    base = dict(lambda0=1.0, lambda1=0.0, alpha=0.1, beta=1.0,
                gamma0=-1.0, gamma2=1.0, dim=2)
    base.update(kw)
    return ModelParams(**base)


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


@pytest.fixture(scope="module")
def grid64():
    return SpectralGrid(2, 64, L_BOX)


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid(2, 32, L_BOX)


# criterion 5 trajectory is shared with criterion 7
@pytest.fixture(scope="module")
def saturated_run(grid64):
    # dt = 1e-2 stated (t_end = 200 at the default dt is needlessly slow;
    # the stiff part is integrated exactly, the explicit scales are O(0.1))
    p = params(alpha=0.1, gamma0=-1.0)
    system = make_disordered_system(p)
    tracked = [(0.5, 0.5), (0.7, 0.0), (0.5, 0.0)]
    seeded = _seed_modes(grid64, system, tracked, 1e-5)
    background = random_solenoidal_field(grid64, 1e-6, 0.5, 2027)
    initial = SpectralField(grid64, seeded.coeffs + background.coeffs)
    cfg = SolverConfig(dt=1e-2, t_end=200.0, diagnostics_interval=0.05)
    return run(initial, system, grid64, cfg, tracked_wavevectors=tracked), system


def test_criterion_1_dispersion_fidelity(grid64):
    """Linearized modal rates match -(g2 k^4 + g0 k^2 + alpha) to 0.1%."""
    rng = np.random.default_rng(314)
    worst = 0.0
    pairs = 0
    for _ in range(4):
        p = params(alpha=float(rng.uniform(-0.5, 1.0)),
                   gamma0=float(rng.uniform(-1.5, 1.5)),
                   gamma2=float(rng.uniform(0.5, 2.0)),
                   lambda0=float(rng.uniform(-1.0, 2.0)))
        system = make_disordered_system(p)
        tracked = [(m * grid64.dk, 0.0) for m in (1, 2, 3, 4, 5)]
        initial = _seed_modes(grid64, system, tracked, 1e-4)
        cfg = SolverConfig(dt=1e-3, t_end=2.0, diagnostics_interval=2e-2)
        traj = run(initial, system, grid64, cfg, linearized=True,
                   tracked_wavevectors=tracked)
        for k in tracked:
            ksq = float(np.dot(k, k))
            predicted = -(p.gamma2 * ksq**2 + p.gamma0 * ksq + p.alpha)
            fit = fit_growth(traj.times, traj.series[amp_label(k)])
            worst = max(worst, abs(fit.rate - predicted) / abs(predicted))
            pairs += 1
    report(1, "dispersion-fidelity", pairs == 20 and worst <= 1e-3,
           f"{pairs} wavevectors, worst rel err {worst:.3g}")


def test_criterion_2_band_endpoints(grid64):
    """s_+-^2 formula vs root finding to 1e-10; measured growth flips sign
    across both endpoints (three modes inside grow, three outside decay)."""
    p = params(alpha=0.1, gamma0=-1.0, gamma2=1.0)
    band = unstable_band(p)
    roots = np.sort(np.roots([p.gamma2, p.gamma0, p.alpha]).real)
    formula_err = max(abs(band.s_minus_sq - roots[0]),
                      abs(band.s_plus_sq - roots[1]))

    system = make_disordered_system(p)
    inside = [(0.4, 0.0), (0.5, 0.0), (0.7, 0.0)]    # |k|^2 in (s_-^2, s_+^2)
    outside = [(0.1, 0.0), (0.3, 0.0), (1.0, 0.0)]
    tracked = inside + outside
    initial = _seed_modes(grid64, system, tracked, 1e-4)
    cfg = SolverConfig(dt=1e-3, t_end=3.0, diagnostics_interval=2e-2)
    traj = run(initial, system, grid64, cfg, linearized=True,
               tracked_wavevectors=tracked)
    rates = {k: fit_growth(traj.times, traj.series[amp_label(k)]).rate
             for k in tracked}
    grow = all(rates[k] > 0 for k in inside)
    decay = all(rates[k] < 0 for k in outside)
    report(2, "band-endpoints", formula_err <= 1e-10 and grow and decay,
           f"formula err {formula_err:.2e}, signs "
           f"{[f'{rates[k]:+.3f}' for k in tracked]}")


def test_criterion_3_classification_golden_suite():
    """200 parameter tuples straddling both boundary curves, exact match."""

    def expected_disordered(p):
        if p.gamma0 < 0:
            t = p.gamma0**2 / p.gamma2
            if 4 * p.alpha > t:
                return Classification.EXPONENTIALLY_STABLE
            if 4 * p.alpha == t:
                return Classification.ASYMPTOTICALLY_STABLE
            return Classification.EXPONENTIALLY_UNSTABLE
        if p.alpha > 0:
            return Classification.EXPONENTIALLY_STABLE
        if p.alpha == 0:
            return Classification.ASYMPTOTICALLY_STABLE
        return Classification.EXPONENTIALLY_UNSTABLE

    def expected_ordered(p):
        return (Classification.EXPONENTIALLY_UNSTABLE if p.gamma0 < 0
                else Classification.ASYMPTOTICALLY_STABLE)

    rng = np.random.default_rng(77)
    tuples = []
    # exact boundary points (binary-representable)
    tuples += [params(alpha=0.25, gamma0=-1.0), params(alpha=0.0, gamma0=1.0),
               params(alpha=0.0, gamma0=0.0), params(alpha=0.0625, gamma0=-0.5)]
    while len(tuples) < 200:
        g2 = float(rng.uniform(0.25, 2.0))
        g0 = float(rng.uniform(-2.0, 2.0))
        boundary = g0**2 / (4.0 * g2) if g0 < 0 else 0.0
        offset = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, 0))
        tuples.append(params(alpha=boundary + offset, gamma0=g0, gamma2=g2))

    mismatches = 0
    for p in tuples:
        if classify_disordered(p).classification is not expected_disordered(p):
            mismatches += 1
        if p.alpha < 0:
            if classify_ordered(p).classification is not expected_ordered(p):
                mismatches += 1
    report(3, "classification-golden-suite", mismatches == 0,
           f"{len(tuples)} tuples, {mismatches} mismatches")


def test_criterion_4_nonlinear_decay_certificates(grid64):
    """Full nonlinear runs obey the proof envelopes with margin >= 0."""
    cases = [(params(alpha=0.5, gamma0=1.0), 2 * 0.5),
             (params(alpha=0.3, gamma0=-1.0), 2 * (0.3 - 0.25))]
    details = []
    ok = True
    for p, expected_rate in cases:
        system = make_disordered_system(p)
        initial = random_solenoidal_field(grid64, 0.1, 0.5, 99)
        cfg = SolverConfig(dt=1e-3, t_end=5.0, diagnostics_interval=1e-2)
        traj = run(initial, system, grid64, cfg)
        rep = check_decay_bound(traj.times, traj.series["l2_norm_sq"], p)
        ok = ok and rep.holds and abs(rep.rate - expected_rate) < 1e-14
        details.append(f"g0={p.gamma0:+g}: rate {rep.rate:g}, "
                       f"margin {rep.margin:.3g}")
    report(4, "nonlinear-decay-certificates", ok, "; ".join(details))


def test_criterion_5_disordered_nonlinear_instability(saturated_run):
    """eps=1e-5 perturbation grows at 0.15 within 5%, then saturates with no
    blow-up through t = 200."""
    traj, system = saturated_run
    best = (0.5, 0.5)
    predicted = growth_rate(system, np.asarray(best))
    amps = traj.series[amp_label(best)]
    window = _linear_window(traj.times, amps, amps[0])
    fit = fit_growth(traj.times, amps, window=window, wavevector=best)
    rel = abs(fit.rate - predicted) / predicted
    kinetic = 0.5 * traj.series["l2_norm_sq"]
    bounded = bool(np.all(np.isfinite(kinetic))) and traj.final.t == 200.0
    saturated = kinetic[-1] > 1e3 * kinetic[0]   # left the linear regime
    report(5, "disordered-nonlinear-instability",
           rel <= 0.05 and bounded and saturated,
           f"predicted {predicted:g}, fitted {fit.rate:.6g} "
           f"(rel {rel:.2e}), final kinetic {kinetic[-1]:.4g}")


def test_criterion_6_ordered_instability_and_contractivity(grid64):
    """Transverse perturbation grows at 0.0625 within 5% for gamma0=-0.5;
    for gamma0=1 the linearized run is contractive and the integrated energy
    identity holds to 1e-6."""
    # unstable branch (dt = 1e-2 stated, cf. criterion 5)
    p_unstable = params(alpha=-1.0, gamma0=-0.5)
    system = make_ordered_system(p_unstable)        # V = e1
    k = (0.5, 0.0)                                  # witness k || V in 2D
    initial = single_mode_field(grid64, k, [0.0, 1.0], 1e-5)  # u perp V
    cfg = SolverConfig(dt=1e-2, t_end=50.0, diagnostics_interval=0.05)
    traj = run(initial, system, grid64, cfg, tracked_wavevectors=[k])
    amps = traj.series[amp_label(k)]
    window = _linear_window(traj.times, amps, amps[0])
    fit = fit_growth(traj.times, amps, window=window)
    rel = abs(fit.rate - 0.0625) / 0.0625

    # contractive branch (dt = 5e-4 and cadence = dt stated: the identity is
    # integrated with trapezoids, whose error must sit below 1e-6)
    p_stable = params(alpha=-1.0, gamma0=1.0)
    system2 = make_ordered_system(p_stable)
    initial2 = random_solenoidal_field(grid64, 1e-3, 0.4, 404)
    cfg2 = SolverConfig(dt=5e-4, t_end=1.5, diagnostics_interval=5e-4)
    traj2 = run(initial2, system2, grid64, cfg2, linearized=True)
    l2 = traj2.series["l2_norm_sq"]
    monotone = bool(np.all(np.diff(l2) <= 1e-10 * l2[0]))
    identity = integrated_identity_residual(traj2)

    report(6, "ordered-instability-and-contractivity",
           rel <= 0.05 and monotone and identity <= 1e-6,
           f"fitted {fit.rate:.6g} vs 0.0625 (rel {rel:.2e}); "
           f"monotone={monotone}, identity residual {identity:.3g}")


def test_criterion_7_energy_identity_residual(saturated_run):
    """Budget residual <= 1e-6 * max(1, kinetic) at every sample of a full
    nonlinear rest-state run (growth through saturation)."""
    traj, _ = saturated_run
    budgets = budget_series(traj)
    worst = max(b.residual / max(1.0, b.kinetic) for b in budgets)
    report(7, "energy-identity-residual", worst <= 1e-6,
           f"worst relative residual {worst:.3g} over {len(budgets)} samples")


def test_criterion_8_structural_invariants(grid32):
    """Divergence <= 1e-12 after every step, reality to 1e-12, u = 0
    preserved exactly, and ETDRK4 self-convergence order >= 3.5."""
    p = params(alpha=0.1, gamma0=-1.0)
    system = make_disordered_system(p)

    # solenoidality and reality along a nonlinear run (N = 32 stated)
    initial = random_solenoidal_field(grid32, 0.05, 0.5, 11)
    cfg = SolverConfig(dt=2e-3, t_end=0.2, diagnostics_interval=2e-3)
    traj = run(initial, system, grid32, cfg)
    max_div = float(np.max(traj.series["div_residual"]))
    # reality of a half-spectrum: its self-conjugate planes are Hermitian
    final = traj.final.u_hat
    reality = final.hermitian_residual() / max(
        float(np.max(np.abs(final.coeffs))), 1e-300)

    # exact preservation of the zero equilibrium (both steady states)
    zero_ok = True
    for system_z in (system, make_ordered_system(params(alpha=-1.0))):
        z0 = SpectralField(grid32, np.zeros((2,) + grid32.half_shape, complex))
        tz = run(z0, system_z, grid32,
                 SolverConfig(dt=1e-2, t_end=0.1))
        zero_ok = zero_ok and float(
            np.max(np.abs(tz.final.u_hat.coeffs))) == 0.0

    # self-convergence study (N = 32 stated; order is grid-independent).
    # A vigorous state is needed so the O(dt^4) truncation error sits well
    # above the roundoff floor at every stated dt.
    p_conv = params(alpha=0.5, gamma0=-1.0, lambda0=3.0)
    system_conv = make_disordered_system(p_conv)
    u0 = random_solenoidal_field(grid32, 3.0, 1.0, 21)
    T = 1.0
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    ref_dt = 5e-4 / 16.0
    finals = {}
    for dt in dts + [ref_dt]:
        tr = run(u0, system_conv, grid32, SolverConfig(dt=dt, t_end=T))
        finals[dt] = tr.final.u_hat.coeffs
    errors = [float(np.sqrt(np.sum(np.abs(finals[dt] - finals[ref_dt]) ** 2)))
              for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])

    ok = (max_div <= 1e-12 and reality <= 1e-12 and zero_ok and slope >= 3.5)
    report(8, "structural-invariants", ok,
           f"max div {max_div:.2e}, reality {reality:.2e}, zero preserved "
           f"{zero_ok}, observed order {slope:.2f}")


def test_criterion_9_oracle_equivalence():
    """Transforms vs direct-summation DFT on 8x8 grids to 1e-12; dealiased
    cubic product vs fine-grid exact product to 1e-12."""
    g = SpectralGrid(2, 8, 2.5)
    rng = np.random.default_rng(5)
    phys = rng.standard_normal((2, 8, 8))
    f = forward(g, phys)
    idx = np.arange(8)
    dft_err = 0.0
    for mi in range(8):
        for mj in range(5):   # the half-spectrum's columns
            phase = np.exp(-2j * np.pi * (mi * idx[:, None]
                                          + mj * idx[None, :]) / 8)
            direct = np.sum(phys * phase, axis=(1, 2)) / 64.0
            dft_err = max(dft_err, float(
                np.max(np.abs(f.coeffs[:, mi, mj] - direct))))

    g16 = SpectralGrid(2, 16, 2.0)
    factors_coarse, factors_fine = [], []
    for seed in range(3):
        c = rng.standard_normal(g16.shape) + 1j * rng.standard_normal(g16.shape)
        mirrored = c
        for ax in range(2):
            mirrored = np.take(mirrored, (-np.arange(16)) % 16, axis=ax)
        c = 0.5 * (c + np.conj(mirrored))
        zero_nyquist(g16, c[None])
        factors_coarse.append(np.real(np.fft.ifftn(c, norm="forward")))
        factors_fine.append(np.real(np.fft.ifftn(
            pad_spectrum(g16, c, 64), norm="forward")))
    got = dealiased_product(g16, factors_coarse)
    exact = truncate_spectrum(g16, np.fft.fftn(
        factors_fine[0] * factors_fine[1] * factors_fine[2], norm="forward"))
    exact = zero_nyquist(g16, exact[..., :9])
    cubic_err = float(np.max(np.abs(got - exact))
                      / max(1.0, float(np.max(np.abs(exact)))))

    report(9, "oracle-equivalence", dft_err <= 1e-12 and cubic_err <= 1e-12,
           f"DFT err {dft_err:.2e}, cubic dealias err {cubic_err:.2e}")
