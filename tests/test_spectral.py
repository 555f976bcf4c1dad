import ast
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfsim
from lfsim.lattice import dealiased_product, l4_norm_4
from lfsim.spectral import (SpectralField, SpectralGrid, divergence_coeffs,
                            forward, gradient_coeffs, inner_l2, inverse,
                            l2_norm_sq, leray_project, pad_spectrum,
                            project_coeffs, read_snapshot, truncate_spectrum,
                            write_snapshot, zero_nyquist)


@pytest.fixture(scope="module")
def grid16():
    return SpectralGrid(2, 16, 2.0 * np.pi)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return forward(grid, rng.standard_normal((grid.dim,) + grid.shape))


def full_lattice_k(grid):
    """The wavevectors of the whole n^dim lattice in FFT storage order, the
    Nyquist mode at +n/2: the reference the half-spectrum tables slice."""
    m1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(np.int64)
    m1[grid.n // 2] = grid.n // 2
    m = np.stack(np.meshgrid(*([m1] * grid.dim), indexing="ij"))
    return m, grid.dk * m.astype(float)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(2, 15, 1.0)      # odd
        with pytest.raises(ValueError):
            SpectralGrid(2, 6, 1.0)       # too small
        with pytest.raises(ValueError):
            SpectralGrid(2, 16, -1.0)
        with pytest.raises(ValueError):
            SpectralGrid(4, 16, 1.0)

    def test_value_equality_and_hash(self, grid16):
        same = SpectralGrid(2, 16, 2.0 * np.pi)
        assert same == grid16 and hash(same) == hash(grid16)
        assert len({same, grid16}) == 1
        for other in (SpectralGrid(3, 16, 2.0 * np.pi),
                      SpectralGrid(2, 32, 2.0 * np.pi),
                      SpectralGrid(2, 16, 20.0 * np.pi), "grid"):
            assert grid16 != other

    def test_mode_zero_is_zero_vector(self, grid16):
        assert np.all(grid16.k_half[:, 0, 0] == 0.0)

    def test_wavevector_values(self):
        g = SpectralGrid(2, 8, 4.0)
        dk = 2.0 * np.pi / 4.0
        assert np.allclose(g.k_half[0, :, 0] / dk, [0, 1, 2, 3, 4, -3, -2, -1])
        assert np.allclose(g.k_half[1, 0, :] / dk, [0, 1, 2, 3, 4])
        # unpaired mode mapped to +n/2, and excluded from odd derivatives
        assert g.k_half[0, 4, 0] == 4 * dk
        assert g.k_deriv_half[0, 4, 0] == 0.0
        assert g.k_deriv_half[1, 0, 4] == 0.0

    @pytest.mark.parametrize("dim,n,length", [(2, 16, 2.0 * np.pi),
                                              (2, 10, 3.7), (3, 8, 20.0)])
    def test_tables_are_the_formulas(self, dim, n, length):
        g = SpectralGrid(dim, n, length)
        m, k = full_lattice_k(g)
        kd = np.where(m == n // 2, 0.0, k)
        h = n // 2 + 1
        want = {"k_half": k[..., :h], "k_deriv_half": kd[..., :h],
                "ksq_half": np.sum(k**2, axis=0)[..., :h]}
        for name, ref in want.items():
            got = getattr(g, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert np.array_equal(got, ref), name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[(0,) * got.ndim] = 1

    def test_grid_holds_only_its_half_tables(self):
        # the full-lattice mode numbers, k, k_deriv and ksq, held from
        # __init__, took a 3D n = 32 grid with the half tables that a run
        # reads to 3241 KB; the grid has no full-lattice table at all now
        import tracemalloc
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            g = SpectralGrid(3, 32, 20.0 * np.pi)
            g.k_half, g.ksq_half, g.parseval_weight_half
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (held - before) / 1024 <= 1024
        for name in ("mode_numbers", "k", "k_deriv", "ksq"):
            assert not hasattr(g, name), name

    def test_mode_index_roundtrip(self, grid16):
        # a k with -n/2 < m_last < 0 is found as its stored partner -k;
        # the planes m_last = 0 and n/2 hold k itself
        for k, conjugate in (([3.0, 2.0], False), ([3.0, -2.0], True),
                             ([-3.0, 0.0], False), ([3.0, -8.0], False),
                             ([-8.0, -7.0], True)):
            idx, got = grid16.mode_index(k)
            assert got is conjugate, k
            stored = grid16.k_half[(slice(None),) + idx]
            sign = -1.0 if conjugate else 1.0
            assert np.array_equal(sign * np.asarray(k) % 16, stored % 16), k
        with pytest.raises(ValueError, match="lattice"):
            grid16.mode_index([0.5, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_mode_index_rejects_non_finite(self, grid16, bad):
        # the off-lattice check alone is False for nan, which would then
        # reach the integer cast (numpy warns there) or read as k = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="is not finite"):
                grid16.mode_index([bad, 0.0])


class TestTransforms:
    def test_constant_field(self, grid16):
        f = forward(grid16, np.full((2, 16, 16), 3.5))
        assert np.allclose(f.coeffs[:, 0, 0], 3.5)
        other = f.coeffs.copy()
        other[:, 0, 0] = 0.0
        assert np.max(np.abs(other)) == 0.0

    def test_cosine_amplitudes(self, grid16):
        x = grid16.mesh
        phys = np.zeros((2, 16, 16))
        phys[0] = np.cos(2.0 * np.pi * x[0] / grid16.length)
        f = forward(grid16, phys)
        assert abs(f.coeffs[0, 1, 0] - 0.5) < 1e-14
        assert abs(f.coeffs[0, -1, 0] - 0.5) < 1e-14

    def test_matches_direct_dft(self):
        # brute-force O(N^2) DFT oracle on an 8x8 grid
        g = SpectralGrid(2, 8, 3.0)
        rng = np.random.default_rng(42)
        phys = rng.standard_normal((2, 8, 8))
        f = forward(g, phys)
        idx = np.arange(8)
        for mi in range(8):
            for mj in range(5):   # the half-spectrum's columns
                phase = np.exp(-2j * np.pi * (mi * idx[:, None]
                                              + mj * idx[None, :]) / 8)
                direct = np.sum(phys * phase, axis=(1, 2)) / 64.0
                assert np.max(np.abs(f.coeffs[:, mi, mj] - direct)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip(self, seed):
        g = SpectralGrid(2, 16, 5.0)
        rng = np.random.default_rng(seed)
        phys = rng.standard_normal((2, 16, 16))
        back = inverse(forward(g, phys))
        assert np.max(np.abs(back - phys)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(phys))))

    def test_roundtrip_3d(self):
        g = SpectralGrid(3, 8, 1.0)
        rng = np.random.default_rng(9)
        phys = rng.standard_normal((3, 8, 8, 8))
        assert np.max(np.abs(inverse(forward(g, phys)) - phys)) < 1e-13

    def test_parseval(self, grid16):
        rng = np.random.default_rng(3)
        phys = rng.standard_normal((2, 16, 16))
        f = forward(grid16, phys)
        quadrature = (grid16.length / 16) ** 2 * np.sum(phys * phys)
        assert abs(l2_norm_sq(f) - quadrature) <= 1e-12 * quadrature

    def test_shape_mismatch(self, grid16):
        with pytest.raises(ValueError, match="shape"):
            forward(grid16, np.zeros((2, 8, 8)))


class TestLeray:
    def test_gradient_direction_annihilated(self, grid16):
        f = random_field(grid16)
        f.coeffs[:] = 0.0
        idx, _ = grid16.mode_index([1.0, 0.0])
        f.coeffs[(slice(None),) + idx] = [1.0, 0.0]
        out = leray_project(f)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_transverse_mode_preserved(self, grid16):
        f = random_field(grid16)
        f.coeffs[:] = 0.0
        idx, _ = grid16.mode_index([1.0, 0.0])
        f.coeffs[(slice(None),) + idx] = [0.0, 1.0]
        out = leray_project(f)
        assert np.allclose(out.coeffs[(slice(None),) + idx], [0.0, 1.0])

    def test_diagonal_mode(self, grid16):
        f = random_field(grid16)
        f.coeffs[:] = 0.0
        idx, _ = grid16.mode_index([1.0, 1.0])
        f.coeffs[(slice(None),) + idx] = [1.0, 0.0]
        out = leray_project(f)
        assert np.allclose(out.coeffs[(slice(None),) + idx], [0.5, -0.5])

    def test_mode_zero_untouched(self, grid16):
        f = random_field(grid16, 4)
        mean = f.coeffs[:, 0, 0].copy()
        assert np.allclose(leray_project(f).coeffs[:, 0, 0], mean)

    def test_idempotent_and_solenoidal(self, grid16):
        f = random_field(grid16, 5)
        zero_nyquist(grid16, f.coeffs)  # derivative ops drop the unpaired mode
        once = leray_project(f)
        twice = leray_project(once)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-14
        assert once.divergence_residual() < 1e-13
        div = divergence_coeffs(grid16, once.coeffs)
        assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(f.coeffs))

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_half_spectrum_projection_is_the_full_ones_half(self, dim, n):
        # fields are projected on the rfft half, where they were once
        # projected on the full lattice and then sliced to the half
        g = SpectralGrid(dim, n, 5.0)
        phys = np.random.default_rng(8).standard_normal((dim,) + g.shape)
        c = np.fft.fftn(phys, axes=tuple(range(1, dim + 1)), norm="forward")
        _, k = full_lattice_k(g)
        ksq = np.sum(k**2, axis=0)
        ksq[ksq == 0.0] = 1.0
        full = c - k * (np.einsum("a...,a...->...", k, c) / ksq)
        half = np.ascontiguousarray(c[..., :n // 2 + 1])
        assert np.array_equal(project_coeffs(g, half), full[..., :n // 2 + 1])

    def test_self_adjoint(self, grid16):
        f = random_field(grid16, 6)
        g = random_field(grid16, 7)
        lhs = inner_l2(leray_project(f), g)
        rhs = inner_l2(f, leray_project(g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestDerivatives:
    def test_gradient_of_constant(self, grid16):
        f = forward(grid16, np.full((2, 16, 16), 2.0))
        assert np.max(np.abs(gradient_coeffs(grid16, f.coeffs))) == 0.0

    def test_gradient_is_real(self, grid16):
        # in the half-spectrum a real field is one whose self-conjugate
        # planes are Hermitian
        f = random_field(grid16, 8)
        zero_nyquist(grid16, f.coeffs)
        g = gradient_coeffs(grid16, f.coeffs)
        for a in range(2):
            assert SpectralField(grid16, g[a]).hermitian_residual() < 1e-13


class TestDealiasedProduct:
    def test_constants(self, grid16):
        a = np.full(grid16.shape, 2.0)
        b = np.full(grid16.shape, -1.5)
        out = dealiased_product(grid16, [a, b])
        assert abs(out[0, 0] - (-3.0)) < 1e-14
        out[0, 0] = 0.0
        assert np.max(np.abs(out)) < 1e-14

    def test_cosine_square(self, grid16):
        kappa = 3.0 * 2.0 * np.pi / grid16.length
        c = np.cos(kappa * grid16.mesh[0])
        out = dealiased_product(grid16, [c, c])
        # cos^2 = 1/2 + cos(2 kappa x)/2, nothing else
        assert abs(out[0, 0] - 0.5) < 1e-14
        assert abs(out[6, 0] - 0.25) < 1e-14
        assert abs(out[-6, 0] - 0.25) < 1e-14
        out[0, 0] = out[6, 0] = out[-6, 0] = 0.0
        assert np.max(np.abs(out)) < 1e-13

    def test_factor_count(self, grid16):
        a = np.zeros(grid16.shape)
        for bad in ([a], [a, a, a, a]):
            with pytest.raises(ValueError, match="factors"):
                dealiased_product(grid16, bad)

    def test_nyquist_content_is_dropped(self, grid16):
        # f = (-1)^i is the unpaired m = n/2 mode alone: like the solver's
        # products, these drop it before multiplying
        f = np.broadcast_to(np.cos(np.pi * np.arange(16))[:, None], (16, 16))
        assert np.max(np.abs(dealiased_product(grid16, [f, f]))) == 0.0
        u = forward(grid16, np.stack([f, np.zeros((16, 16))]))
        assert l4_norm_4(u) == 0.0

    # 2D n = 16 takes the lattice's last-axis GEMMs, 2D n = 64 (nf = 128)
    # its FFTs, 3D n = 8 its middle-axis passes
    ORACLE_GRIDS = [(2, 16), (2, 64), (3, 8)]

    @staticmethod
    def _band_limited(g, n_fine, seed):
        """Random field resolvable on g: its coefficients, its samples and
        its samples on the n_fine^dim lattice, exact."""
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        mirrored = coeffs
        for ax in range(g.dim):
            mirrored = np.take(mirrored, (-np.arange(g.n)) % g.n, axis=ax)
        coeffs = 0.5 * (coeffs + np.conj(mirrored))
        zero_nyquist(g, coeffs[None])
        coarse = np.real(np.fft.ifftn(coeffs, norm="forward"))
        fine = np.real(np.fft.ifftn(pad_spectrum(g, coeffs, n_fine),
                                    norm="forward"))
        return coeffs, coarse, fine

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_cubic_matches_fine_grid_oracle(self, dim, n):
        g = SpectralGrid(dim, n, 2.0)
        coarse, fine = [], []
        for seed in range(3):
            _, c, f = self._band_limited(g, 4 * n, seed)
            coarse.append(c)
            fine.append(f)
        got = dealiased_product(g, coarse)
        exact_fine = np.fft.fftn(fine[0] * fine[1] * fine[2], norm="forward")
        expect = truncate_spectrum(g, exact_fine)[..., :n // 2 + 1]
        zero_nyquist(g, expect)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_quadratic_matches_fine_grid_oracle(self, dim, n):
        g = SpectralGrid(dim, n, 2.0)
        (_, c0, f0), (_, c1, f1) = (self._band_limited(g, 4 * n, s)
                                    for s in (5, 6))
        got = dealiased_product(g, [c0, c1])
        expect = truncate_spectrum(g, np.fft.fftn(f0 * f1, norm="forward"))
        expect = zero_nyquist(g, expect[..., :n // 2 + 1])
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_l4_norm_matches_fine_grid_quadrature(self, dim, n):
        # |u|^4 holds modes |m| < 2n: the 2n^dim lattice integrates it exactly
        g = SpectralGrid(dim, n, 2.0)
        comps = [self._band_limited(g, 2 * n, seed) for seed in range(dim)]
        u = SpectralField(g, np.stack([c[0][..., :n // 2 + 1] for c in comps]))
        s = sum(c[2] ** 2 for c in comps)
        expect = g.volume * float(np.mean(s * s))
        assert abs(l4_norm_4(u) - expect) <= 1e-12 * expect


def test_src_does_not_use_the_padding_oracle():
    # pad_spectrum/truncate_spectrum are the exact side that the lattice's
    # products are tested against, and _kernels.assemble_rhs/leray the
    # Cartesian tendency that nonlinear_rhs is tested against, so no
    # program code may call, import or alias them outside their own
    # definitions; and fields hold the half-spectrum only, so neither the
    # full-lattice transforms nor a conversion to or from them may return
    oracle = {"pad_spectrum", "truncate_spectrum", "assemble_rhs", "leray",
              "from_half", "to_half", "fftn", "ifftn"}
    uses = []
    for path in sorted(pathlib.Path(lfsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in oracle:
                node.body = []
        for node in ast.walk(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or isinstance(node, ast.alias) and node.name)
            if name in oracle:
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


class TestPadTruncate:
    def test_roundtrip_with_nyquist_split(self):
        g = SpectralGrid(2, 8, 1.0)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        fine = pad_spectrum(g, coeffs, 12)
        back = truncate_spectrum(g, fine)
        assert np.max(np.abs(back - coeffs)) < 1e-15

    def test_pad_preserves_samples(self):
        # padding must reproduce the real trig interpolant on the fine grid,
        # including a pure Nyquist cosine
        g = SpectralGrid(2, 8, 2.0 * np.pi)
        phys = np.cos(4.0 * g.mesh[0])     # the unpaired mode
        coeffs = np.fft.fftn(phys, norm="forward")
        fine = np.real(np.fft.ifftn(pad_spectrum(g, coeffs, 16), norm="forward"))
        xf = np.arange(16) * (2.0 * np.pi / 16)
        expect = np.cos(4.0 * xf)[:, None] * np.ones(16)[None, :]
        assert np.max(np.abs(fine - expect)) < 1e-13


class TestHalfSpectrum:
    """The rfft half-spectrum is the whole of a real field; the full lattice
    appears here only as the tests' reference, by numpy's fftn/ifftn."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_roundtrip(self, dim, n):
        # forward's half is the full lattice's, sliced; inverse of that
        # half gives back the samples
        g = SpectralGrid(dim, n, 1.0)
        phys = np.random.default_rng(dim).standard_normal((dim,) + g.shape)
        axes = tuple(range(1, dim + 1))
        full = np.fft.fftn(phys, axes=axes, norm="forward")
        f = forward(g, phys)
        assert np.max(np.abs(f.coeffs - full[..., :n // 2 + 1])) < 1e-14
        assert np.max(np.abs(inverse(f) - phys)) < 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8), (3, 10)])
    def test_inverse_is_the_full_lattice_with_its_mirrored_tail(self, dim, n):
        # a half-spectrum that is not Hermitian on its self-conjugate
        # planes names the full lattice whose tail is the conjugate, flip
        # and np.take of it along each leading axis; inverse gives that
        # field's real part, dropping the planes' anti-Hermitian part
        g = SpectralGrid(dim, n, 1.0)
        rng = np.random.default_rng(n + dim)
        shape = (dim,) + g.half_shape
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = n // 2
        tail = np.flip(np.conj(half[..., 1:h]), axis=-1)
        for ax in range(1, dim):
            tail = np.take(tail, (-np.arange(n)) % n, axis=ax)
        full = np.concatenate([half, tail], axis=-1)
        want = np.real(np.fft.ifftn(full, axes=tuple(range(1, dim + 1)),
                                    norm="forward"))
        got = inverse(SpectralField(g, half))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestHermitianResidual:
    """The half-spectrum stores both k and -k on the planes m_last = 0 and
    n/2; `hermitian_residual` is how far those pairs are from a real
    field's c(-k) = conj c(k)."""

    @pytest.mark.parametrize("dim,n,m", [(2, 16, (3, 0)), (3, 8, (1, -2, 0)),
                                         (2, 16, (5, 8))])
    def test_planted_anti_hermitian_pair_reads_its_defect(self, dim, n, m):
        g = SpectralGrid(dim, n, 2.0 * np.pi)
        k = np.zeros(dim)
        k[0] = 2.0
        pol = np.zeros(dim)
        pol[1] = 1.0
        f = lfsim.single_mode_field(g, k, pol, 0.6)   # on the plane, real
        assert f.hermitian_residual() == 0.0
        d = np.array([0.3 - 0.4j] + [0.1j] * (dim - 1))
        (idx, _), (neg, _) = g.mode_index(m), g.mode_index(-np.asarray(m))
        f.coeffs[(slice(None),) + idx] += d
        f.coeffs[(slice(None),) + neg] -= np.conj(d)
        assert f.hermitian_residual() == 2.0 * np.max(np.abs(d))

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8), (3, 10)])
    def test_forward_of_real_samples_is_hermitian(self, dim, n):
        g = SpectralGrid(dim, n, 3.0)
        f = random_field(g, seed=n)
        assert f.hermitian_residual() <= 1e-15 * np.max(np.abs(f.coeffs))

    @pytest.mark.parametrize("dim,n,k", [(2, 16, (3.0, -2.0)),
                                         (2, 16, (-7.0, 5.0)),
                                         (3, 8, (1.0, -3.0, 2.0)),
                                         (3, 8, (0.0, 2.0, -1.0))])
    def test_mode_amplitude_is_even_off_the_plane(self, dim, n, k):
        g = SpectralGrid(dim, n, 2.0 * np.pi)
        f = random_field(g, seed=dim)
        k = np.asarray(k)
        assert g.mode_index(k)[1] != g.mode_index(-k)[1]
        assert f.mode_amplitude(k) == f.mode_amplitude(-k) > 0.0


class TestSnapshots:
    def test_roundtrip(self, tmp_path, grid16):
        rng = np.random.default_rng(11)
        phys = rng.standard_normal((2, 16, 16))
        path = tmp_path / "f.lfsnap"
        write_snapshot(path, grid16, phys, t=1.25)
        data, meta = read_snapshot(path)
        assert meta == {"dim": 2, "n": 16, "L": grid16.length, "t": 1.25}
        assert np.array_equal(data, phys)

    def test_binary_layout(self, tmp_path):
        # component-major, axis 0 fastest: float j*n+i is sample [c, i, j]
        g = SpectralGrid(2, 8, 1.0)
        phys = np.zeros((2, 8, 8))
        for c in range(2):
            for i in range(8):
                for j in range(8):
                    phys[c, i, j] = 1000 * c + 10 * i + j
        path = tmp_path / "layout.lfsnap"
        write_snapshot(path, g, phys, t=0.0)
        with open(path, "rb") as fh:
            header = fh.readline().decode()
            raw = np.frombuffer(fh.read(), dtype="<f8")
        assert header.startswith("LFSNAP v1 dim=2 n=8 L=1.0 t=0.0")
        for c in range(2):
            for i in range(8):
                for j in range(8):
                    assert raw[c * 64 + j * 8 + i] == phys[c, i, j]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"not a snapshot\n123")
        with pytest.raises(ValueError, match="LFSNAP"):
            read_snapshot(path)


class TestL4Norm:
    def test_single_mode_value(self):
        # ||a cos(kx)||_4^4 = a^4 * (3/8) * volume
        g = SpectralGrid(2, 16, 2.0 * np.pi)
        phys = np.zeros((2, 16, 16))
        phys[0] = 2.0 * np.cos(g.mesh[0])
        f = forward(g, phys)
        expect = 16.0 * (3.0 / 8.0) * g.volume
        assert abs(l4_norm_4(f) - expect) <= 1e-12 * expect
