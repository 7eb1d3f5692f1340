"""Field model: quadrature algebra, source spectra, kernel conversions."""

import numpy as np
import pytest

import balhet as bh
from balhet.errors import ThresholdDivergence
from wick import (FourKernels, GaussianFieldState, four_kernels,
                  quadrature_correlations_to_gammas, quadrature_mean)


def random_state(rng):
    """Kernel pair with the model symmetries (g11 Hermitian, g20 even)."""
    a1, a2 = rng.uniform(0.3, 2.0, size=2)
    b1, b2 = rng.uniform(0.2, 3.0, size=2)
    c1 = rng.normal() + 1j * rng.normal()
    c2 = rng.normal() + 1j * rng.normal()

    def g11(tau):
        at = np.abs(tau)
        return np.exp(-a1 * at) * (c1.real * np.cos(b1 * tau)
                                   + 1j * c1.imag * np.sin(b1 * tau))

    def g20(tau):
        at = np.abs(tau)
        return c2 * np.exp(-a2 * at) * np.cos(b2 * tau)

    mean = rng.normal() + 1j * rng.normal()
    return GaussianFieldState(mean, g11, g20)


class TestQuadratureMean:
    def test_vacuum_is_zero_for_any_angle(self):
        for phibar in (0.0, 0.3, np.pi / 2, 2.0):
            assert quadrature_mean(0, phibar) == 0.0

    def test_unit_amplitude(self):
        assert quadrature_mean(1.0 + 0j, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert quadrature_mean(1.0 + 0j, np.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_general_angle_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal() + 1j * rng.normal()
            phibar = rng.uniform(-np.pi, np.pi)
            # direct evaluation: <a e^{-i phibar}> + c.c.
            expected = 2.0 * np.real(m * np.exp(-1j * phibar))
            assert quadrature_mean(m, phibar) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mean = rng.normal() + 1j * rng.normal()
            phibar = rng.uniform(-np.pi, np.pi)
            h = 1e-6
            fd = (quadrature_mean(mean, phibar + h)
                  - quadrature_mean(mean, phibar - h)) / (2 * h)
            assert bh.quadrature_mean_slope(mean, phibar) == pytest.approx(fd, rel=1e-8, abs=1e-8)


class TestOpoParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            bh.OpoParams(gamma=0.0, epsilon=0.0)
        with pytest.raises(ValueError):
            bh.OpoParams(gamma=1.0, epsilon=0.6)  # above threshold
        with pytest.raises(ValueError):
            bh.OpoParams(gamma=1.0, epsilon=0.2, eta=0.0)
        with pytest.raises(ValueError):
            bh.OpoParams(gamma=1.0, epsilon=0.2, eta=1.5)
        bh.OpoParams(gamma=1.0, epsilon=0.5)  # threshold itself is allowed

    def test_eta_whose_inverse_overflows_refused(self):
        # 2/eta = inf once turned every spectrum into [-inf, -inf]
        with pytest.raises(ValueError, match="2/eta finite, got 1e-320"):
            bh.OpoParams(gamma=1.0, epsilon=0.2, eta=1e-320)
        bh.OpoParams(gamma=1.0, epsilon=0.2, eta=1e-300)

    def test_gamma_whose_half_underflows_refused(self):
        # 5e-324 / 2 rounds to 0; this once ran and blamed a pump at threshold
        with pytest.raises(ValueError, match="gamma/2 > 0, got 5e-324"):
            bh.OpoParams(gamma=5e-324, epsilon=0.0)
        assert bh.OpoParams(gamma=1e-323, epsilon=0.0).gamma / 2.0 == 5e-324


class TestOpoSpectra:
    def test_frozen_values(self):
        s = bh.opo_spectra(bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0))
        assert float(s.xx(0.0)) == pytest.approx(-1.0, abs=1e-15)
        assert float(s.xx(1.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_no_pump_no_squeezing(self):
        s = bh.opo_spectra(bh.OpoParams(gamma=2.0, epsilon=0.0, eta=0.7))
        w = np.linspace(-5, 5, 11)
        assert np.all(s.xx(w) == 0.0)
        assert np.all(s.pp(w) == 0.0)

    def test_threshold_divergence(self):
        s = bh.opo_spectra(bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0))
        with pytest.raises(ThresholdDivergence):
            s.pp(0.0)
        # fine away from the pole and below threshold
        assert float(s.pp(0.3)) > 0
        below = bh.opo_spectra(bh.OpoParams(gamma=1.0, epsilon=0.4, eta=1.0))
        assert float(below.pp(0.0)) > 0

    def test_even_in_frequency(self):
        s = bh.opo_spectra(bh.OpoParams(gamma=1.3, epsilon=0.4, eta=0.8))
        w = np.linspace(0.1, 6.0, 40)
        assert np.array_equal(s.xx(w), s.xx(-w))
        assert np.array_equal(s.pp(w), s.pp(-w))

    def test_minimum_uncertainty_product(self):
        # (1 + eta phi11)(1 + eta phi22) >= 1 on a grid, below threshold
        for gamma, eps, eta in ((1.0, 0.4, 1.0), (2.0, 0.7, 0.6), (0.5, 0.05, 0.9)):
            s = bh.opo_spectra(bh.OpoParams(gamma=gamma, epsilon=eps, eta=eta))
            w = np.linspace(-10, 10, 201)
            product = (1 + eta * s.xx(w)) * (1 + eta * s.pp(w))
            assert np.all(product >= 1.0 - 1e-12)


class TestKernelConversions:
    def test_phase_insensitive_collapse(self):
        # vanishing g20: k11 = k22 = 2 Re g11, k12 = -k21 = 2 Im g11
        g11 = lambda tau: np.exp(-np.abs(tau)) * (1.0 + 0.5j * np.sign(tau))
        zero = lambda tau: np.zeros_like(np.asarray(tau, dtype=float)) + 0j
        state = GaussianFieldState(0j, g11, zero)
        k = four_kernels(state)
        tau = np.linspace(-3, 3, 31)
        assert np.allclose(k.k11(tau), 2 * np.real(g11(tau)), atol=1e-15)
        assert np.allclose(k.k22(tau), 2 * np.real(g11(tau)), atol=1e-15)
        assert np.allclose(k.k12(tau), 2 * np.imag(g11(tau)), atol=1e-15)
        assert np.allclose(k.k21(tau), -2 * np.imag(g11(tau)), atol=1e-15)

    def test_fully_squeezed_example(self):
        # g11 = exp(-|tau|), g20 = -exp(-|tau|) on the squeezing axis:
        # all fluctuation power in the conjugate quadrature.
        g11 = lambda tau: np.exp(-np.abs(tau)) + 0j
        g20 = lambda tau: -np.exp(-np.abs(tau)) + 0j
        state = GaussianFieldState(0j, g11, g20)
        k = four_kernels(state)
        tau = np.linspace(-2, 2, 21)
        assert np.allclose(k.k11(tau), 0.0, atol=1e-14)
        assert np.allclose(k.k22(tau), 4 * np.exp(-np.abs(tau)), atol=1e-14)
        assert np.allclose(k.k12(tau), 0.0, atol=1e-14)
        assert np.allclose(k.k21(tau), 0.0, atol=1e-14)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        tau = np.linspace(-4, 4, 41)
        for _ in range(25):
            state = random_state(rng)
            k = four_kernels(state)
            back = quadrature_correlations_to_gammas(k)
            for a, b in ((state.gamma11, back.gamma11), (state.gamma20, back.gamma20)):
                ref = np.asarray(a(tau))
                got = np.asarray(b(tau))
                scale = np.max(np.abs(ref)) + 1e-30
                assert np.max(np.abs(ref - got)) <= 1e-12 * scale

    def test_round_trip_from_kernel_side(self):
        rng = np.random.default_rng(12)
        tau = np.linspace(-3, 3, 17)
        values = {name: rng.normal(size=tau.size) for name in "abcd"}
        interp = {name: (lambda v: (lambda x: np.interp(x, tau, v)))(v)
                  for name, v in values.items()}
        k = FourKernels(interp["a"], interp["b"], interp["c"], interp["d"])
        state = quadrature_correlations_to_gammas(k)
        back = four_kernels(state)
        for name, f in zip("abcd", (back.k11, back.k22, back.k12, back.k21)):
            assert np.max(np.abs(f(tau) - values[name])) <= 1e-12


class TestOpoFieldState:
    def test_spectra_are_transforms_of_kernels(self):
        # independent route: numerically Fourier transform the time-domain
        # kernels and compare against the analytic Lorentzians
        params = bh.OpoParams(gamma=1.0, epsilon=0.4, eta=0.8)
        k = bh.opo_field_state(params)
        spectra = bh.opo_spectra(params)
        tau = np.linspace(-400.0, 400.0, 2 ** 20 + 1)
        for kernel, spectrum in ((k.xx, spectra.xx), (k.pp, spectra.pp)):
            values = kernel(tau)
            for w in (0.0, 0.5, 2.0):
                ft = np.trapezoid(values * np.cos(w * tau), tau)
                assert ft == pytest.approx(float(spectrum(w)), rel=2e-6, abs=2e-6)

    def test_cross_kernels_vanish(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.3)
        k = bh.opo_field_state(params)
        tau = np.linspace(-5, 5, 21)
        assert np.allclose(k.cross(tau), 0.0, atol=1e-15)

    def test_kernel_symmetries(self):
        # the stationary auto-correlations are even in the lag
        k = bh.opo_field_state(bh.OpoParams(gamma=1.0, epsilon=0.45))
        tau = np.linspace(0.1, 8.0, 30)
        assert np.allclose(k.xx(-tau), k.xx(tau), atol=1e-15)
        assert np.allclose(k.pp(-tau), k.pp(tau), atol=1e-15)

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdDivergence):
            bh.opo_field_state(bh.OpoParams(gamma=1.0, epsilon=0.5))
        # below threshold, but 1/(gamma/2 - epsilon) overflows a float
        with pytest.raises(ThresholdDivergence, match="gamma = 1e-309 and epsilon"):
            bh.opo_field_state(bh.OpoParams(gamma=1e-309, epsilon=0.0))

    def test_no_pump_gives_zero_kernels(self):
        # epsilon = 0 scales both kernels, and so the correlation, to exact zero
        k = bh.opo_field_state(bh.OpoParams(gamma=1.0, epsilon=0.0))
        tau = np.linspace(-5.0, 5.0, 21)
        assert np.all(k.xx(tau) == 0.0) and np.all(k.pp(tau) == 0.0)
        cfg = bh.HeterodyneConfig(Omega=2.0, phi1=0.3, phi2=0.7)
        assert np.all(bh.lambda_prime(k, cfg, tau) == 0.0)

    def test_flux_nonnegative(self):
        # the fluctuation flux Re g11(0) = (k11 + k22)(0)/4
        k = bh.opo_field_state(bh.OpoParams(gamma=1.0, epsilon=0.49))
        assert k.xx(0.0) + k.pp(0.0) >= 0.0


class TestHeterodyneConfig:
    def test_derived_phases(self):
        cfg = bh.HeterodyneConfig(Omega=1.0, phi1=0.2, phi2=0.8)
        assert cfg.phibar == pytest.approx(0.5)
        assert cfg.dphi == pytest.approx(0.3)

    def test_invariants(self):
        with pytest.raises(ValueError):
            bh.HeterodyneConfig(Omega=-1.0)
        with pytest.raises(ValueError):
            bh.HeterodyneConfig(Omega=1.0, amplitude=0.0)
        bh.HeterodyneConfig(Omega=0.0)  # homodyne limit allowed

    def test_phases_and_amplitude_are_keyword_only(self):
        # a positional call in the field order of earlier versions
        # (Omega, phi1, phi2, beta) must not bind a phase as the amplitude
        with pytest.raises(TypeError):
            bh.HeterodyneConfig(0.05, 0.0, 0.0, 0.3)
        with pytest.raises(TypeError):
            bh.HeterodyneConfig(0.05, 0.1)
        with pytest.raises(TypeError):
            bh.opo_field_state(bh.OpoParams(gamma=1.0, epsilon=0.3), 0.3)

    @pytest.mark.parametrize("field, value", [
        ("Omega", np.nan), ("Omega", np.inf), ("phi1", np.nan), ("phi2", np.inf),
        ("phi1", -np.inf), ("amplitude", np.inf), ("amplitude", np.nan),
        ("gamma", np.inf),
    ])
    def test_non_finite_refused(self, field, value):
        if field == "gamma":
            # the source's rate: OpoParams(gamma=inf) once passed, and its kernels
            # were NaN at epsilon = 0 and refused as "inverse overflows" at inf
            for epsilon in (0.0, value):
                with pytest.raises(ValueError, match=field):
                    bh.OpoParams(gamma=value, epsilon=epsilon)
            return
        with pytest.raises(ValueError, match=field):
            bh.HeterodyneConfig(**{"Omega": 1.0, field: value})
