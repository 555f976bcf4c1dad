import dataclasses

import numpy as np
import pytest

from lfsim import _kernels
from lfsim.model import (ModelParams, StateKind, TransformedSystem,
                         make_disordered_system, make_ordered_system,
                         untransform)


def params(**kw):
    base = dict(lambda0=1.0, lambda1=0.5, alpha=1.0, beta=1.0,
                gamma0=-1.0, gamma2=1.0, dim=2)
    base.update(kw)
    return ModelParams(**base)


class TestModelParams:
    def test_rejects_nonpositive_gamma2(self):
        with pytest.raises(ValueError, match="gamma2"):
            params(gamma2=0.0)
        with pytest.raises(ValueError, match="gamma2"):
            params(gamma2=-1.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            params(beta=-1.0)

    def test_rejects_bad_dim(self):
        for dim in (1, 4, 0):
            with pytest.raises(ValueError, match="dim"):
                params(dim=dim)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            params(alpha=float("nan"))

    def test_swimming_speed(self):
        p = params(alpha=-4.0, beta=1.0)
        assert p.swimming_speed == 2.0
        with pytest.raises(ValueError):
            params(alpha=1.0).swimming_speed


class TestSteadyStates:
    def test_disordered_is_rest(self):
        s = make_disordered_system(params())
        assert s.kind is StateKind.DISORDERED
        assert np.all(s.V == 0.0)

    def test_ordered_speed(self):
        s = make_ordered_system(params(alpha=-1.0))
        assert s.kind is StateKind.ORDERED
        assert np.allclose(s.V, [1.0, 0.0])

    def test_ordered_requires_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            make_ordered_system(params(alpha=0.0))

    def test_ordered_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            make_ordered_system(params(alpha=-1.0), direction=[2.0, 0.0])

    @pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (-4.0, 1.0),
                                            (-0.3, 2.5), (-2.0, 0.7)])
    def test_speed_identity(self, alpha, beta):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            sys = make_ordered_system(params(alpha=alpha, beta=beta), d)
            assert abs(np.dot(sys.V, sys.V) * beta + alpha) <= 1e-12 * abs(alpha)


class TestTransformedSystem:
    """The system is the pair (params, V); its kind and M follow from V."""

    def test_two_frozen_fields(self):
        sys = make_ordered_system(params(alpha=-1.0))
        assert [f.name for f in dataclasses.fields(sys)] == ["params", "V"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.V = np.zeros(2)
        for arr in (sys.V, sys.M):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_other_velocities(self, dim):
        p = params(alpha=-2.0, beta=0.5, dim=dim)
        V = make_ordered_system(p).V
        for scale in (0.5, 1.0 + 1e-9, 2.0):
            with pytest.raises(ValueError, match="polar velocity"):
                TransformedSystem(p, scale * V)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="polar velocity"):
                TransformedSystem(p, np.full(dim, bad))

    def test_rejects_velocity_without_polar_states(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha < 0"):
                TransformedSystem(params(alpha=alpha), [1.0, 0.0])

    def test_rejects_wrong_shape(self):
        for V in (np.zeros(3), np.zeros((2, 1)), 0.0):
            with pytest.raises(ValueError, match="shape"):
                TransformedSystem(params(), V)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_accepts_every_direction_the_factory_accepts(self, dim):
        rng = np.random.default_rng(8)
        for alpha, beta in ((-1.0, 1.0), (-0.3, 2.5), (-7.0, 0.2)):
            p = params(alpha=alpha, beta=beta, dim=dim)
            for scale in (1.0 - 0.9e-12, 1.0, 1.0 + 0.9e-12):
                d = rng.standard_normal(dim)
                d *= scale / np.linalg.norm(d)
                sys = make_ordered_system(p, d)
                assert np.array_equal(TransformedSystem(p, sys.V).V, sys.V)
            with pytest.raises(ValueError, match="unit"):
                make_ordered_system(p, d * (1.0 + 1e-11))

    def test_value_equality_and_hash(self):
        p = params(alpha=-1.0)
        a, b = make_ordered_system(p), make_ordered_system(p)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != make_ordered_system(p, [0.0, 1.0])
        assert a != make_ordered_system(params(alpha=-1.0, gamma0=0.5))
        assert a != make_disordered_system(p) and a != "system"
        # -0.0 == 0.0, so the hash must agree too
        neg = TransformedSystem(p, np.array([-0.0, 1.0]))
        pos = TransformedSystem(p, np.array([0.0, 1.0]))
        assert neg == pos and hash(neg) == hash(pos)
        rest = make_disordered_system(p)
        assert rest == TransformedSystem(p, -np.zeros(2))
        assert hash(rest) == hash(TransformedSystem(p, -np.zeros(2)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kind_and_m_bit_for_bit(self, dim):
        rng = np.random.default_rng(4)
        for alpha in (-2.0, -0.3, 0.0, 0.7):
            p = params(alpha=alpha, beta=1.3, dim=dim)
            rest = make_disordered_system(p)
            assert rest.kind is StateKind.DISORDERED
            assert np.array_equal(rest.M, p.alpha * np.eye(dim))
            if alpha < 0:
                d = rng.standard_normal(dim)
                d /= np.linalg.norm(d)
                polar = make_ordered_system(p, d)
                V = p.swimming_speed * d
                assert polar.kind is StateKind.ORDERED
                assert np.array_equal(polar.V, V)
                assert np.array_equal(polar.M,
                                      2.0 * p.beta * np.outer(V, V))


class TestDisorderedSystem:
    @pytest.mark.parametrize("alpha,dim", [(1.0, 2), (0.0, 3), (-2.0, 2)])
    def test_coefficients(self, alpha, dim):
        sys = make_disordered_system(params(alpha=alpha, dim=dim))
        assert np.array_equal(sys.M, alpha * np.eye(dim))
        assert np.all(sys.V == 0.0)
        assert sys.kind is StateKind.DISORDERED

    def test_quadratic_identically_zero(self):
        # at rest the products are lam0 (-u x curl u) + beta|u|^2 u: N = 0
        p = params(alpha=0.7, beta=1.4)
        sys = make_disordered_system(p)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.standard_normal((2, 16))
            got = _kernels.products_2d(u, np.zeros((1, 16)), 0.0, p.beta,
                                       sys.V, np.empty_like(u),
                                       np.empty((2, 16)))
            assert np.array_equal(got, p.beta * np.sum(u * u, axis=0) * u)


def _products(sys, u):
    """beta|u|^2 u - N(u) of the closed-form products, at lam0 = 0, for
    points u (dim, m)."""
    products = _kernels.products_2d if len(u) == 2 else _kernels.products_3d
    om = np.zeros((1 if len(u) == 2 else 3, u.shape[1]))
    return products(u, om, 0.0, sys.params.beta, sys.V, np.empty_like(u),
                    np.empty((2, u.shape[1])))


class TestOrderedSystem:
    def test_m_matrix_e1(self):
        sys = make_ordered_system(params(alpha=-1.0), [1.0, 0.0])
        assert np.allclose(sys.M, [[2.0, 0.0], [0.0, 0.0]])

    def test_m_matrix_e2_speed2(self):
        sys = make_ordered_system(params(alpha=-4.0), [0.0, 1.0])
        assert np.allclose(sys.V, [0.0, 2.0])
        assert np.allclose(sys.M, [[0.0, 0.0], [0.0, 8.0]])

    def test_quadratic_closed_form_example(self):
        # V=(1,0), beta=1, u=(1,1): N(u) = -|u|^2 V - 2 (u.V) u = (-4, -2),
        # and the products are |u|^2 u - N(u) = (2, 2) - (-4, -2)
        sys = make_ordered_system(params(alpha=-1.0), [1.0, 0.0])
        out = _products(sys, np.array([[1.0], [1.0]]))
        assert np.allclose(out[:, 0], [6.0, 4.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_quadratic_matches_closed_form(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = float(rng.uniform(0.2, 3.0))
            alpha = float(-rng.uniform(0.1, 4.0))
            d = rng.standard_normal(dim)
            d /= np.linalg.norm(d)
            sys = make_ordered_system(params(alpha=alpha, beta=beta, dim=dim), d)
            u = rng.standard_normal(dim)
            expect = (-beta * np.dot(u, u) * sys.V
                      - 2.0 * beta * np.dot(u, sys.V) * u)
            got = beta * np.dot(u, u) * u - _products(sys, u[:, None])[:, 0]
            assert np.max(np.abs(got - expect)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(expect))))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_m_positive_semidefinite(self, dim):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.standard_normal(dim)
            d /= np.linalg.norm(d)
            sys = make_ordered_system(params(alpha=-1.5, dim=dim), d)
            eigs = np.linalg.eigvalsh(sys.M)
            assert eigs.min() >= -1e-12

    def test_rejects_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            make_ordered_system(params(alpha=0.5))


class TestUntransform:
    def test_disordered_identity(self):
        sys = make_disordered_system(params())
        u = np.random.default_rng(1).standard_normal((2, 8, 8))
        assert np.array_equal(untransform(u, sys), u)

    def test_ordered_adds_drift(self):
        sys = make_ordered_system(params(alpha=-1.0), [1.0, 0.0])
        u = np.zeros((2, 4, 4))
        v = untransform(u, sys)
        assert np.allclose(v[0], 1.0) and np.all(v[1] == 0.0)
        u[0] += 0.1
        v = untransform(u, sys)
        assert np.allclose(v[0], 1.1)

    def test_dimension_mismatch(self):
        sys = make_disordered_system(params(dim=3))
        with pytest.raises(ValueError, match="components"):
            untransform(np.zeros((2, 4, 4)), sys)
