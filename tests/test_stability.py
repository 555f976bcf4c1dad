import os
import subprocess
import sys

import numpy as np
import pytest

import lfsim
from lfsim.model import ModelParams, make_disordered_system, make_ordered_system
from lfsim.spectral import SpectralGrid
from lfsim.stability import (BandResult, Classification, classify_disordered,
                             classify_ordered, growth_rate,
                             lattice_growth_rates, lattice_max_growth,
                             phase_diagram, symbol_at, unstable_band,
                             write_dispersion_csv, write_phase_diagram_csv)

EXP_STABLE = Classification.EXPONENTIALLY_STABLE
ASYMPT = Classification.ASYMPTOTICALLY_STABLE
UNSTABLE = Classification.EXPONENTIALLY_UNSTABLE


def params(**kw):
    base = dict(lambda0=1.0, lambda1=0.0, alpha=0.1, beta=1.0,
                gamma0=-1.0, gamma2=1.0, dim=2)
    base.update(kw)
    return ModelParams(**base)


class TestSymbol:
    def test_disordered_scalar_value(self):
        sys = make_disordered_system(params(alpha=0.2))
        k = np.array([np.sqrt(0.5), 0.0])
        m = symbol_at(sys, k).matrix
        assert np.allclose(np.diag(m), -0.05)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) == 0.0

    def test_disordered_diagonal_for_oblique_k(self):
        # scalar M commutes with the projector on the solenoidal subspace:
        # the matrix stays exactly diagonal even for oblique wavevectors
        sys = make_disordered_system(params(alpha=-0.7))
        m = symbol_at(sys, np.array([0.3, 0.4])).matrix
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0

    def test_ordered_transverse_entry_independent_of_beta(self):
        for beta in (0.5, 1.0, 4.0):
            p = params(alpha=-1.0, beta=beta, gamma0=0.3, dim=3)
            sys = make_ordered_system(p, [1.0, 0.0, 0.0])
            k = np.array([0.0, 0.7, 0.0])          # k perp V
            x = np.array([0.0, 0.0, 1.0])          # x perp {V, k}
            val = x @ symbol_at(sys, k).matrix @ x
            ksq = 0.49
            assert abs(val - (p.gamma2 * ksq**2 + p.gamma0 * ksq)) < 1e-14

    def test_k_zero_returns_m(self):
        sys = make_ordered_system(params(alpha=-1.0), [1.0, 0.0])
        m = symbol_at(sys, np.zeros(2)).matrix
        assert np.allclose(m, sys.M)

    def test_projected_part_is_real_symmetric(self):
        p = params(alpha=-2.0, beta=0.7, lambda0=1.3)
        sys = make_ordered_system(p, np.array([0.6, 0.8]))
        k = np.array([0.4, -0.9])
        drift = 1j * p.lambda0 * np.dot(sys.V, k)
        m = symbol_at(sys, k).matrix - drift * np.eye(2)
        assert np.max(np.abs(m.imag)) < 1e-15
        assert np.max(np.abs(m - m.T)) < 1e-14


class TestGrowthRate:
    def test_pure_bilaplacian(self):
        sys = make_disordered_system(params(alpha=0.0, gamma0=0.0))
        assert abs(growth_rate(sys, np.array([1.0, 0.0])) + 1.0) < 1e-14

    def test_band_interior_value(self):
        sys = make_disordered_system(params(alpha=0.2))
        k = np.array([np.sqrt(0.5), 0.0])
        assert abs(growth_rate(sys, k) - 0.05) < 1e-14

    def test_ordered_nonnegative_gamma0_all_decay(self):
        sys = make_ordered_system(params(alpha=-1.0, gamma0=1.0))
        for kx in np.linspace(-2, 2, 9):
            for ky in np.linspace(-2, 2, 9):
                if kx == 0 and ky == 0:
                    continue
                assert growth_rate(sys, np.array([kx, ky])) < 0.0

    def test_scalar_symbol_property(self):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            p = params(alpha=float(rng.uniform(-2, 2)),
                       gamma0=float(rng.uniform(-2, 2)),
                       gamma2=float(rng.uniform(0.2, 3.0)),
                       lambda0=float(rng.uniform(-2, 2)))
            sys = make_disordered_system(p)
            k = rng.uniform(-3, 3, size=2)
            ksq = float(np.dot(k, k))
            expect = -(p.gamma2 * ksq**2 + p.gamma0 * ksq + p.alpha)
            assert abs(growth_rate(sys, k) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_drift_invariance(self):
        k = np.array([0.5, 0.3])
        rates = []
        for lam0 in (0.0, 1.0, 7.5):
            sys = make_ordered_system(params(alpha=-1.0, lambda0=lam0))
            rates.append(growth_rate(sys, k))
        assert max(rates) - min(rates) < 1e-14

    def test_ordered_2d_k_parallel_vs_perp(self):
        # k || V: transverse direction survives projection, M term drops out;
        # k perp V: the only solenoidal direction is along V, M term bites
        p = params(alpha=-1.0, gamma0=-0.5, beta=1.0)
        sys = make_ordered_system(p, [1.0, 0.0])
        k_par = np.array([0.5, 0.0])
        k_perp = np.array([0.0, 0.5])
        s = p.gamma2 * 0.0625 + p.gamma0 * 0.25
        assert abs(growth_rate(sys, k_par) - (-s)) < 1e-14
        assert abs(growth_rate(sys, k_perp) - (-(s + 2.0))) < 1e-14

    def test_ordered_zero_mode_eigenvector(self):
        # k || V, x perp V: P(k)VV'x = 0 and the symbol eigenvalue on x is
        # gamma2|k|^4 + gamma0|k|^2 + i lambda0 V.k
        p = params(alpha=-1.0, gamma0=0.7, lambda0=2.0)
        sys = make_ordered_system(p, [1.0, 0.0])
        k = np.array([0.5, 0.0])
        x = np.array([0.0, 1.0])
        m = symbol_at(sys, k).matrix
        got = m @ x
        expect = (p.gamma2 * 0.0625 + p.gamma0 * 0.25 + 1j * 2.0 * 0.5) * x
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_k_zero(self):
        assert growth_rate(make_disordered_system(params(alpha=0.3)),
                           np.zeros(2)) == -0.3
        sys = make_ordered_system(params(alpha=-1.0))
        assert abs(growth_rate(sys, np.zeros(2))) < 1e-14


class TestUnstableBand:
    def test_alpha_zero(self):
        b = unstable_band(params(alpha=0.0))
        assert b.has_band and b.s_minus_sq == 0.0 and abs(b.s_plus_sq - 1.0) < 1e-14

    def test_interior_alpha_against_root_oracle(self):
        p = params(alpha=0.1)
        b = unstable_band(p)
        roots = np.sort(np.roots([p.gamma2, p.gamma0, p.alpha]))
        assert abs(b.s_minus_sq - roots[0]) < 1e-12
        assert abs(b.s_plus_sq - roots[1]) < 1e-12
        assert abs(b.s_minus_sq - 0.1127016653792583) < 1e-12
        assert abs(b.s_plus_sq - 0.8872983346207417) < 1e-12

    def test_touching_discriminant_no_band(self):
        assert not unstable_band(params(alpha=0.25)).has_band

    def test_above_threshold_no_band(self):
        assert not unstable_band(params(alpha=0.3)).has_band

    def test_negative_alpha_clamps_lower_endpoint(self):
        b = unstable_band(params(alpha=-0.5))
        assert b.has_band and b.s_minus_sq == 0.0
        # upper endpoint still solves the quadratic
        p = params(alpha=-0.5)
        val = p.gamma2 * b.s_plus_sq**2 + p.gamma0 * b.s_plus_sq + p.alpha
        assert abs(val) < 1e-10

    def test_positive_gamma0_negative_alpha(self):
        p = params(alpha=-1.0, gamma0=1.0)
        b = unstable_band(p)
        assert b.has_band and b.s_minus_sq == 0.0
        val = p.gamma2 * b.s_plus_sq**2 + p.gamma0 * b.s_plus_sq + p.alpha
        assert abs(val) <= 1e-10

    def test_positive_gamma0_positive_alpha(self):
        assert not unstable_band(params(alpha=0.2, gamma0=1.0)).has_band

    def test_endpoint_polynomial_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = params(alpha=float(rng.uniform(-1, 1)),
                       gamma0=float(rng.uniform(-2, 2)),
                       gamma2=float(rng.uniform(0.2, 3)))
            b = unstable_band(p)
            if not b.has_band:
                continue
            coeff_scale = max(abs(p.gamma2), abs(p.gamma0), abs(p.alpha))
            for s in (b.s_minus_sq, b.s_plus_sq):
                if s == 0.0:
                    continue  # clamped endpoint, not a root
                val = p.gamma2 * s**2 + p.gamma0 * s + p.alpha
                assert abs(val) <= 1e-10 * coeff_scale

    def test_band_sign_consistency(self):
        p = params(alpha=0.1)
        sys = make_disordered_system(p)
        b = unstable_band(p)
        for ssq in np.linspace(b.s_minus_sq * 1.05, b.s_plus_sq * 0.95, 7):
            assert growth_rate(sys, np.array([np.sqrt(ssq), 0.0])) > 0.0
        for ssq in (b.s_minus_sq * 0.9, b.s_plus_sq * 1.1, b.s_plus_sq * 3):
            assert growth_rate(sys, np.array([np.sqrt(ssq), 0.0])) < 0.0


class TestClassifyDisordered:
    @pytest.mark.parametrize("alpha,gamma0,expect", [
        (0.3, -1.0, EXP_STABLE),      # 4*0.3 > 1
        (0.25, -1.0, ASYMPT),         # touching
        (0.1, -1.0, UNSTABLE),
        (1.0, 1.0, EXP_STABLE),
        (0.0, 1.0, ASYMPT),
        (-0.1, 0.0, UNSTABLE),
        (-0.1, 1.0, UNSTABLE),
    ])
    def test_trichotomy(self, alpha, gamma0, expect):
        rep = classify_disordered(params(alpha=alpha, gamma0=gamma0))
        assert rep.classification is expect

    def test_max_growth_rate_negative_gamma0(self):
        rep = classify_disordered(params(alpha=0.1))
        assert abs(rep.max_growth_rate - 0.15) < 1e-14
        assert abs(np.dot(rep.argmax_wavevector, rep.argmax_wavevector) - 0.5) < 1e-14

    def test_max_growth_rate_positive_gamma0(self):
        rep = classify_disordered(params(alpha=0.4, gamma0=2.0))
        assert rep.max_growth_rate == -0.4
        assert np.all(rep.argmax_wavevector == 0.0)

    def test_boundary_rate_is_zero(self):
        assert classify_disordered(params(alpha=0.25)).max_growth_rate == 0.0
        assert classify_disordered(params(alpha=0.0, gamma0=0.5)).max_growth_rate == 0.0

    def test_matches_numeric_minimization(self):
        rng = np.random.default_rng(17)
        s = np.linspace(0.0, 4.0, 200001)
        for _ in range(30):
            p = params(alpha=float(rng.uniform(-1, 1)),
                       gamma0=float(rng.uniform(-1.5, 1.5)),
                       gamma2=float(rng.uniform(0.3, 2.0)))
            rep = classify_disordered(p)
            grid_max = np.max(-(p.gamma2 * s**2 + p.gamma0 * s + p.alpha))
            assert abs(rep.max_growth_rate - grid_max) < 1e-7


class TestClassifyOrdered:
    def test_unstable_case(self):
        rep = classify_ordered(params(alpha=-1.0, gamma0=-0.5))
        assert rep.classification is UNSTABLE
        assert abs(rep.max_growth_rate - 0.0625) < 1e-14
        assert abs(np.dot(rep.argmax_wavevector, rep.argmax_wavevector) - 0.25) < 1e-14
        assert rep.band == BandResult(True, 0.0, 0.5)

    @pytest.mark.parametrize("gamma0", [0.0, 2.0])
    def test_stable_cases(self, gamma0):
        rep = classify_ordered(params(alpha=-1.0, gamma0=gamma0))
        assert rep.classification is ASYMPT
        assert rep.max_growth_rate == 0.0
        assert rep.note is not None      # L2-only statement

    def test_never_exponentially_stable(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rep = classify_ordered(params(
                alpha=float(-rng.uniform(0.05, 3.0)),
                gamma0=float(rng.uniform(-2, 2)),
                gamma2=float(rng.uniform(0.3, 2.0)),
                beta=float(rng.uniform(0.3, 2.0))))
            assert rep.classification is not EXP_STABLE

    def test_rejects_nonnegative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            classify_ordered(params(alpha=0.0))

    def test_argmax_family_by_dimension(self):
        rep2 = classify_ordered(params(alpha=-1.0, gamma0=-0.5, dim=2))
        assert rep2.argmax_wavevector[0] != 0.0           # k || V (V = e1)
        rep3 = classify_ordered(params(alpha=-1.0, gamma0=-0.5, dim=3))
        assert rep3.argmax_wavevector[0] == 0.0           # k perp V
        assert rep3.argmax_wavevector[1] != 0.0


class TestLatticeMaxGrowth:
    def test_disordered_near_continuum(self):
        p = params(alpha=0.1)
        grid = SpectralGrid(2, 64, 20.0 * np.pi)
        rate, k = lattice_max_growth(make_disordered_system(p), grid)
        assert abs(rate - 0.15) < 1e-4   # (0.5, 0.5) lattice hit is exact
        assert abs(np.dot(k, k) - 0.5) < 1e-12

    def test_ordered_2d_witness_along_v(self):
        p = params(alpha=-1.0, gamma0=-0.5)
        grid = SpectralGrid(2, 64, 20.0 * np.pi)
        rate, k = lattice_max_growth(make_ordered_system(p, [1.0, 0.0]), grid)
        assert abs(rate - 0.0625) < 1e-12
        assert k[1] == 0.0 and abs(abs(k[0]) - 0.5) < 1e-12


class TestRatesAgainstTheDenseSymbol:
    """`growth_rate` and `lattice_growth_rates` against -min eigvalsh of
    Re `symbol_at` on a numpy orthonormal basis of k-perp (the whole matrix
    at k = 0), on every mode of the lattice."""

    @pytest.mark.parametrize("gamma0", [1.0, -1.0])
    @pytest.mark.parametrize("kind", ["rest", "polar"])
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_random_direction(self, dim, n, kind, gamma0):
        rng = np.random.default_rng([dim, n, int(gamma0 > 0)])
        if kind == "rest":
            sys = make_disordered_system(params(alpha=0.3, gamma0=gamma0,
                                                dim=dim))
        else:
            V = rng.standard_normal(dim)
            sys = make_ordered_system(
                params(alpha=-0.7, beta=1.3, lambda0=0.6, gamma0=gamma0,
                       dim=dim), V / np.linalg.norm(V))
        grid = SpectralGrid(dim, n, 20.0 * np.pi)
        k = grid.k.reshape(dim, -1)
        dense = np.empty(k.shape[1])
        for m, km in enumerate(k.T):
            S = symbol_at(sys, km).matrix.real
            if km.any():
                B = np.linalg.svd(km[None, :])[2][1:].T   # k-perp, columns
                S = B.T @ S @ B
            dense[m] = -np.linalg.eigvalsh(S)[0]
        tol = 1e-15 * np.max(np.abs(dense))
        lattice = lattice_growth_rates(sys, grid).reshape(-1)
        assert np.max(np.abs(lattice - dense)) <= tol
        pointwise = np.array([growth_rate(sys, km) for km in k.T])
        assert np.max(np.abs(pointwise - dense)) <= tol
        if kind == "polar" and dim == 3:   # M = 2 beta V V^T: a double 0
            assert abs(growth_rate(sys, np.zeros(3))) <= 1e-15


def test_stability_does_not_import_integrate():
    # the package's __init__ imports every module, so load lfsim.stability
    # under a bare package on the same path
    code = ("import importlib, sys, types\n"
            "pkg = types.ModuleType('lfsim')\n"
            f"pkg.__path__ = [{os.path.dirname(lfsim.__file__)!r}]\n"
            "sys.modules['lfsim'] = pkg\n"
            "importlib.import_module('lfsim.stability')\n"
            "print(*sorted(m for m in sys.modules if m.startswith('lfsim')))\n")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "lfsim.stability" in loaded
    assert "lfsim.integrate" not in loaded


class TestPhaseDiagram:
    def test_boundary_and_regions(self):
        diag = phase_diagram(params(), (-1.0, -1.0), (0.0, 0.5), (2, 3))
        reps = diag.disordered[0]
        assert reps[0].classification is UNSTABLE        # alpha = 0
        assert reps[1].classification is ASYMPT          # alpha = 0.25 boundary
        assert reps[2].classification is EXP_STABLE      # alpha = 0.5
        assert diag.ordered[0][0] is None                # alpha = 0: no polar state

    def test_gamma0_zero_negative_alpha(self):
        diag = phase_diagram(params(), (0.0, 0.0), (-0.1, -0.1), (2, 2))
        assert diag.disordered[0][0].classification is UNSTABLE
        assert diag.ordered[0][0].classification is ASYMPT   # gamma0 >= 0

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            phase_diagram(params(), (0, 1), (0, 1), 1)

    def test_csv_writers(self, tmp_path):
        diag = phase_diagram(params(), (-1.5, 1.5), (-0.5, 0.5), 5)
        pd_path = tmp_path / "pd.csv"
        write_phase_diagram_csv(pd_path, diag, "disordered")
        lines = pd_path.read_text().strip().splitlines()
        assert lines[0] == "gamma0,alpha,class,max_growth_rate,argmax_k"
        assert len(lines) == 1 + 25
        rates_path = tmp_path / "rates.csv"
        write_dispersion_csv(rates_path, [{
            "k": (0.5, 0.0), "ksq": 0.25, "predicted_rate": "1",
            "measured_rate": "1", "rel_error": "0", "r_squared": "1"}])
        assert rates_path.read_text().splitlines()[0].startswith("k,ksq,")
