"""Spectral engine: heterodyne/homodyne noise spectra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import balhet as bh
from balhet.errors import NonPhysicalSpectrum
from balhet.field import MAX_PHASE

FLAT = bh.QuadratureBranches(
    xx=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
    pp=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
    cross=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
)

THRESHOLD_OPO = bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0)


def nan_offset_config():
    """A config whose offset is NaN, set past the constructor's own check."""
    cfg = bh.HeterodyneConfig(Omega=0.5)
    object.__setattr__(cfg, "Omega", np.nan)
    return cfg


def grid_value(sd, w):
    i = np.argmin(np.abs(sd.omega_grid - w))
    assert abs(sd.omega_grid[i] - w) < 1e-12
    return sd.chi_normalized[i]


class TestFrequencyGrid:
    def test_symmetric_and_includes_offsets(self):
        g = bh.frequency_grid(3.0, 101, include=(0.37,))
        assert np.allclose(g, -g[::-1])
        assert 0.37 in g and -0.37 in g

    def test_validation(self):
        with pytest.raises(ValueError):
            bh.frequency_grid(-1.0, 100)
        with pytest.raises(ValueError, match="omega_max"):
            bh.frequency_grid(np.inf, 5)  # once [nan nan nan nan inf] and two warnings
        with pytest.raises(ValueError):
            bh.frequency_grid(1.0, 2)

    def test_overflowing_span_refused(self):
        # linspace's span 2 * omega_max once overflowed to [nan, inf, ...]
        with pytest.raises(ValueError, match="2 \\* omega_max finite, got 1e\\+308"):
            bh.frequency_grid(1e308, 1001)
        assert np.all(np.isfinite(bh.frequency_grid(np.finfo(float).max / 2.0, 1001)))


class TestSpectrumEquality:
    """The measured-quadrature spectrum compares by value, so it can key a memo.

    It compares the constants it evaluates, so a move that rounding absorbs
    (2/eta at eta = 0.8 and the float below it) leaves equal spectra.
    """

    BASE = dict(gamma=1.3, epsilon=0.4, eta=0.6, phibar=0.3, gain=0.6)

    @staticmethod
    def spectrum(gamma, epsilon, eta, phibar, gain):
        params = bh.OpoParams(gamma=gamma, epsilon=epsilon, eta=eta)
        return bh.quadrature_noise_spectrum(bh.opo_spectra(params), phibar, gain)

    def test_equal_arguments_give_equal_spectra(self):
        a, b = self.spectrum(**self.BASE), self.spectrum(**self.BASE)
        assert a is not b and a == b

    @pytest.mark.parametrize("name", ["gamma", "epsilon", "eta", "gain"])
    def test_one_float_apart_gives_unequal_spectra(self, name):
        moved = {**self.BASE, name: np.nextafter(self.BASE[name], 0.0)}
        assert self.spectrum(**moved) != self.spectrum(**self.BASE)


class TestHeterodyneSpectrum:
    def test_shot_noise_floor(self):
        cfg = bh.HeterodyneConfig(Omega=0.7)
        sd = bh.heterodyne_spectrum(FLAT, cfg, 0.9, np.linspace(-4, 4, 101))
        assert np.all(sd.chi_normalized == 1.0)
        assert sd.normalization == "heterodyne_floor"

    def test_narrow_offset_center_value(self):
        # closed-form at w=0, Omega=0.05 gamma: 1 - 1/(1 + 0.05^2)
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        cfg = bh.HeterodyneConfig(Omega=0.05)
        grid = bh.frequency_grid(3.0, 1001, include=(0.05,))
        sd = bh.heterodyne_spectrum(spectra, cfg, 1.0, grid)
        expected = 1.0 - 1.0 / (1.0 + 0.05 ** 2)
        assert grid_value(sd, 0.0) == pytest.approx(expected, abs=1e-15)
        assert grid_value(sd, 0.0) == pytest.approx(0.002494, abs=5e-7)

    def test_large_offset_three_db(self):
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        cfg = bh.HeterodyneConfig(Omega=5.0)
        grid = bh.frequency_grid(8.0, 1001, include=(5.0,))
        sd = bh.heterodyne_spectrum(spectra, cfg, 1.0, grid)
        expected = 1.0 - 0.5 / (1.0 + 10.0 ** 2) - 0.5
        assert grid_value(sd, 5.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.49505, abs=1e-5)

    def test_conjugate_quadrature_uses_antisqueezed_branch(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.4, eta=1.0)
        spectra = bh.opo_spectra(params)
        cfg = bh.HeterodyneConfig(Omega=0.8, phi1=np.pi / 2, phi2=np.pi / 2)
        grid = bh.frequency_grid(4.0, 401, include=(0.8,))
        sd = bh.heterodyne_spectrum(spectra, cfg, 1.0, grid)
        direct = 1.0 + 0.5 * (spectra.pp(grid + 0.8) + spectra.pp(grid - 0.8))
        assert np.allclose(sd.chi_normalized, direct, atol=1e-14)
        assert np.all(sd.chi_normalized >= 1.0)  # anti-squeezing only adds noise

    def test_split_shift_identity(self):
        # half-sum of shifted homodyne spectra, random offsets and grids
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        s = bh.quadrature_noise_spectrum(spectra, 0.0, 1.0)
        rng = np.random.default_rng(21)
        for _ in range(100):
            Omega = rng.uniform(0.01, 8.0)
            grid = np.sort(rng.uniform(-6, 6, size=57))
            cfg = bh.HeterodyneConfig(Omega=Omega)
            sd = bh.heterodyne_spectrum(spectra, cfg, 1.0, grid)
            split = 0.5 * (s(grid + Omega) + s(grid - Omega))
            assert np.max(np.abs(sd.chi_normalized - split)) <= 1e-12

    def test_even_spectrum(self):
        spectra = bh.opo_spectra(bh.OpoParams(gamma=1.0, epsilon=0.3, eta=0.8))
        cfg = bh.HeterodyneConfig(Omega=1.3, phi1=0.4, phi2=0.4)
        w = np.linspace(-5, 5, 201)
        sd = bh.heterodyne_spectrum(spectra, cfg, 0.8, w)
        assert np.allclose(sd.chi_normalized, sd.chi_normalized[::-1], atol=1e-14)

    def test_nonphysical_rejected(self):
        bad = bh.QuadratureBranches(
            xx=lambda w: -3.0 * np.ones_like(np.asarray(w, dtype=float)),
            pp=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
            cross=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
        )
        cfg = bh.HeterodyneConfig(Omega=0.5)
        with pytest.raises(NonPhysicalSpectrum):
            bh.heterodyne_spectrum(bad, cfg, 1.0, np.linspace(-2, 2, 21))

    @pytest.mark.parametrize("params, cfg, omega_max", [
        (bh.OpoParams(gamma=1.0, epsilon=0.3), nan_offset_config(), 2.0),
        # anti-squeezed branch at threshold: w^2 underflows and the pole
        # evaluates to inf without any grid point at w = 0
        (THRESHOLD_OPO, bh.HeterodyneConfig(Omega=2e-200, phi1=np.pi / 2,
                                            phi2=np.pi / 2), 1e-200),
    ])
    def test_nonfinite_rejected(self, params, cfg, omega_max):
        with pytest.raises(NonPhysicalSpectrum), np.errstate(divide="ignore"):
            bh.heterodyne_spectrum(bh.opo_spectra(params), cfg, 1.0,
                                   np.linspace(-omega_max, omega_max, 21))

    def test_eta_validation(self):
        cfg = bh.HeterodyneConfig(Omega=0.5)
        with pytest.raises(ValueError):
            bh.heterodyne_spectrum(FLAT, cfg, 0.0, np.linspace(-1, 1, 11))


class TestHomodyneSpectrum:
    def test_perfect_squeezing_at_center(self):
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        grid = bh.frequency_grid(3.0, 1001)
        sd = bh.homodyne_spectrum(spectra, 0.0, 1.0, grid)
        assert grid_value(sd, 0.0) == 0.0
        assert sd.normalization == "homodyne_floor"

    def test_flat_floor(self):
        sd = bh.homodyne_spectrum(FLAT, 0.7, 1.0, np.linspace(-2, 2, 41))
        assert np.all(sd.chi_normalized == 1.0)

    def test_heterodyne_limit(self):
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        grid = bh.frequency_grid(3.0, 1001)
        hom = bh.homodyne_spectrum(spectra, 0.0, 1.0, grid)
        het = bh.heterodyne_spectrum(spectra, bh.HeterodyneConfig(Omega=0.0), 1.0, grid)
        assert np.max(np.abs(hom.chi_normalized - het.chi_normalized)) <= 1e-12

    def test_general_angle_mixture(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.35, eta=0.9)
        spectra = bh.opo_spectra(params)
        w = np.linspace(-3, 3, 101)
        phibar = 0.6
        sd = bh.homodyne_spectrum(spectra, phibar, 0.9, w)
        direct = (1.0 + 0.9 * (spectra.xx(w) * np.cos(phibar) ** 2
                               + spectra.pp(w) * np.sin(phibar) ** 2))
        assert np.allclose(sd.chi_normalized, direct, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(phi1=st.floats(allow_nan=False, allow_infinity=False),
           phi2=st.floats(allow_nan=False, allow_infinity=False))
    @example(phi1=2.0 ** 53, phi2=2.0 ** 53)
    @example(phi1=1e300, phi2=1e300)
    @example(phi1=MAX_PHASE, phi2=MAX_PHASE - 0.4)
    @example(phi1=-MAX_PHASE, phi2=1.0)
    def test_phase_is_an_angle(self, phi1, phi2):
        # a phase is refused or measured at its angle; phases of 2**53 and more once
        # dropped every weight and read the flat floor 1.0 of a squeezed source
        try:
            phibar = bh.HeterodyneConfig(Omega=0.05, phi1=phi1, phi2=phi2).phibar
        except ValueError:
            return
        gamma, eps, eta = 1.0, 0.3, 0.7
        sd = bh.homodyne_spectrum(bh.opo_spectra(bh.OpoParams(gamma, eps, eta)),
                                  phibar, eta, [0.0])
        # phi11 and phi22 at w = 0, from their closed forms
        xx = -(2.0 / eta) * eps * gamma / (gamma / 2.0 + eps) ** 2
        pp = (2.0 / eta) * eps * gamma / (gamma / 2.0 - eps) ** 2
        expected = 1.0 + eta * (math.cos(phibar) ** 2 * xx + math.sin(phibar) ** 2 * pp)
        assert sd.chi_normalized[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def split_lorentzians(params, Omega, omega):
    """The paper's closed form at phibar = 0: squeezing Lorentzians at +/-Omega.

        chi(w) = 1 - eps gamma / ((gamma/2 + eps)^2 + (w + Omega)^2)
                   - eps gamma / ((gamma/2 + eps)^2 + (w - Omega)^2)

    The detector efficiency cancels between the spectrum and the floor.
    """
    kp = params.gamma / 2.0 + params.epsilon
    num = params.epsilon * params.gamma
    return (1.0
            - num / (kp * kp + (omega + Omega) ** 2)
            - num / (kp * kp + (omega - Omega) ** 2))


class TestClosedForm:
    def test_matches_engine_composition(self):
        grid = bh.frequency_grid(6.0, 801, include=(1.7,))
        for eps in (0.1, 0.3, 0.5):
            params = bh.OpoParams(gamma=1.0, epsilon=eps, eta=0.7)
            cf = bh.opo_heterodyne_closed_form(params, 1.7, grid)
            oracle = split_lorentzians(params, 1.7, grid)
            assert np.max(np.abs(cf.chi_normalized - oracle)) <= 1e-12

    def test_far_offset_recovers_floor(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.5)
        sd = bh.opo_heterodyne_closed_form(params, 1e6, np.linspace(-3, 3, 31))
        assert np.allclose(sd.chi_normalized, 1.0, atol=1e-9)

    def test_three_db_bound_for_resolved_sidebands(self):
        # offset >= 10 (gamma/2 + eps): reduction saturates at half the floor
        for eps in (0.2, 0.5):
            params = bh.OpoParams(gamma=1.0, epsilon=eps)
            Omega = 10.0 * (params.gamma / 2 + eps)
            grid = bh.frequency_grid(2 * Omega, 4001, include=(Omega,))
            sd = bh.opo_heterodyne_closed_form(params, Omega, grid)
            assert np.min(sd.chi_normalized) >= 0.5 - 0.01

    def test_vanishing_penalty_for_small_offset(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.5)
        Omega = 0.05 * (params.gamma / 2 + params.epsilon)
        grid = bh.frequency_grid(3.0, 2001, include=(Omega,))
        het = bh.opo_heterodyne_closed_form(params, Omega, grid)
        hom = bh.homodyne_spectrum(bh.opo_spectra(params), 0.0, params.eta, grid)
        assert abs(np.min(het.chi_normalized) - np.min(hom.chi_normalized)) <= 0.01

    def test_minimum_sits_at_offset(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.5)
        grid = bh.frequency_grid(8.0, 1001, include=(5.0,))
        sd = bh.opo_heterodyne_closed_form(params, 5.0, grid)
        i = np.argmin(sd.chi_normalized)
        w, v = sd.omega_grid[i], sd.chi_normalized[i]
        assert abs(abs(w) - 5.0) < 1e-12
        assert v == pytest.approx(0.49505, abs=1e-5)
