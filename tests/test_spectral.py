import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfsim
from lfsim.lattice import dealiased_product, l4_norm_4
from lfsim.spectral import (SpectralField, SpectralGrid, divergence_coeffs,
                            forward, from_half, gradient_coeffs, inner_l2,
                            inverse, l2_norm_sq, leray_project, pad_spectrum,
                            project_coeffs, read_snapshot, to_half,
                            truncate_spectrum, write_snapshot, zero_nyquist)


@pytest.fixture(scope="module")
def grid16():
    return SpectralGrid(2, 16, 2.0 * np.pi)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return forward(grid, rng.standard_normal((grid.dim,) + grid.shape))


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

    def test_mode_zero_is_zero_vector(self, grid16):
        assert np.all(grid16.k[:, 0, 0] == 0.0)

    def test_wavevector_values(self):
        g = SpectralGrid(2, 8, 4.0)
        dk = 2.0 * np.pi / 4.0
        assert np.allclose(g.k[0, :, 0] / dk, [0, 1, 2, 3, 4, -3, -2, -1])
        # unpaired mode mapped to +n/2, and excluded from odd derivatives
        assert g.mode_numbers[0, 4, 0] == 4
        assert g.k_deriv[0, 4, 0] == 0.0

    @pytest.mark.parametrize("dim,n,length", [(2, 16, 2.0 * np.pi),
                                              (2, 10, 3.7), (3, 8, 20.0)])
    def test_tables_are_the_formulas(self, dim, n, length):
        g = SpectralGrid(dim, n, length)
        m1 = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        m1[n // 2] = n // 2
        m = np.stack(np.meshgrid(*([m1] * dim), indexing="ij"))
        k = g.dk * m.astype(float)
        kd = np.where(m == n // 2, 0.0, k)
        h = n // 2 + 1
        want = {"mode_numbers": m, "k": k, "k_deriv": kd,
                "ksq": np.sum(k**2, axis=0), "k_half": k[..., :h],
                "k_deriv_half": kd[..., :h],
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
        # reads to 3241 KB; they are now built on each use and dropped,
        # up to first-call caches of the interpreter and numpy (< 1 KB)
        import tracemalloc
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            g = SpectralGrid(3, 32, 20.0 * np.pi)
            g.k_half, g.ksq_half, g.parseval_weight_half
            held, _ = tracemalloc.get_traced_memory()
            assert g.k.shape == (3, 32, 32, 32) and g.ksq.shape == (32,) * 3
            g.mode_numbers, g.k_deriv
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (held - before) / 1024 <= 1024
        assert (after - held) / 1024 <= 4

    def test_mode_index_roundtrip(self, grid16):
        idx = grid16.mode_index([3.0, -2.0])
        assert np.allclose(grid16.k[(slice(None),) + idx], [3.0, -2.0])
        with pytest.raises(ValueError, match="lattice"):
            grid16.mode_index([0.5, 0.0])


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
            for mj in range(8):
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
        idx = grid16.mode_index([1.0, 0.0])
        f.coeffs[(slice(None),) + idx] = [1.0, 0.0]
        out = leray_project(f)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_transverse_mode_preserved(self, grid16):
        f = random_field(grid16)
        f.coeffs[:] = 0.0
        idx = grid16.mode_index([1.0, 0.0])
        f.coeffs[(slice(None),) + idx] = [0.0, 1.0]
        out = leray_project(f)
        assert np.allclose(out.coeffs[(slice(None),) + idx], [0.0, 1.0])

    def test_diagonal_mode(self, grid16):
        f = random_field(grid16)
        f.coeffs[:] = 0.0
        idx = grid16.mode_index([1.0, 1.0])
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
        # a forced run projects its forcing on the rfft half, where it
        # projected on the full lattice and then sliced the half
        g = SpectralGrid(dim, n, 5.0)
        c = random_field(g, 8).coeffs
        want = to_half(g, leray_project(SpectralField(g, c)).coeffs)
        assert np.array_equal(project_coeffs(g, to_half(g, c)), want)

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
        f = random_field(grid16, 8)
        zero_nyquist(grid16, f.coeffs)
        g = gradient_coeffs(grid16, f.coeffs)
        phys = np.fft.ifftn(g, axes=(2, 3), norm="forward")
        assert np.max(np.abs(phys.imag)) < 1e-13


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
        expect = truncate_spectrum(g, exact_fine)
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
        zero_nyquist(g, expect)
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
    def test_l4_norm_matches_fine_grid_quadrature(self, dim, n):
        # |u|^4 holds modes |m| < 2n: the 2n^dim lattice integrates it exactly
        g = SpectralGrid(dim, n, 2.0)
        comps = [self._band_limited(g, 2 * n, seed) for seed in range(dim)]
        u = SpectralField(g, np.stack([c[0] for c in comps]))
        s = sum(c[2] ** 2 for c in comps)
        expect = g.volume * float(np.mean(s * s))
        assert abs(l4_norm_4(u) - expect) <= 1e-12 * expect


def test_src_does_not_use_the_padding_oracle():
    # pad_spectrum/truncate_spectrum are the exact side that the lattice's
    # products are tested against, so no program code may call, import or
    # alias them outside their own definitions
    oracle = {"pad_spectrum", "truncate_spectrum"}
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
    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_roundtrip(self, dim, n):
        g = SpectralGrid(dim, n, 1.0)
        f = random_field(g, seed=dim)
        full = f.coeffs
        back = from_half(g, to_half(g, full))
        assert np.max(np.abs(back - full)) < 1e-14

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8), (3, 10)])
    def test_from_half_matches_the_mirrored_tail(self, dim, n):
        # the tail by conj, flip and np.take along each leading axis, as
        # from_half built it with temporaries, on a half-spectrum that is
        # not Hermitian on the k_last = 0 plane (its tail ignores that)
        g = SpectralGrid(dim, n, 1.0)
        rng = np.random.default_rng(n + dim)
        shape = (dim,) + g.half_shape
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = n // 2
        tail = np.flip(np.conj(half[..., 1:h]), axis=-1)
        for ax in range(1, dim):
            tail = np.take(tail, (-np.arange(n)) % n, axis=ax)
        assert np.array_equal(from_half(g, half),
                              np.concatenate([half, tail], axis=-1))


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
