"""Correlation engine: truncated vs all-orders routes, time averaging."""

import numpy as np
import pytest

import balhet as bh
from balhet.correlation import check_averaging
from balhet.errors import InsufficientAveraging, ThresholdDivergence
from test_field import random_state
from wick import (FourKernels, GaussianFieldState, coherent_state, kernels,
                  quadrature_correlations_to_gammas, quadrature_mean,
                  strong_oscillator_background, wick_oracle)


def random_lo(rng, amplitude=1.0):
    return bh.HeterodyneConfig(
        Omega=rng.uniform(0.5, 5.0),
        phi1=rng.uniform(-np.pi, np.pi),
        phi2=rng.uniform(-np.pi, np.pi),
        amplitude=amplitude,
    )


def eight_term_correlation(state, cfg, t, iota):
    """Oracle: lambda(t, iota) as the eight-exponential sum plus its conjugate.

        E^2 { g11(i) [e^{iWi} + e^{-iWi} + e^{-iW(2t+i) - 2i dphi}
                      + e^{iW(2t+i) + 2i dphi}]
            + g20(i) [e^{iWi + i(phi1+phi2)} + e^{-iWi + i(phi1+phi2)}
                      + e^{-iW(2t+i) + 2i phi1} + e^{iW(2t+i) + 2i phi2}]
            + c.c. }

    Returned complex, so the realness of the conjugate pair stays testable.
    """
    t = np.asarray(t, dtype=float)
    iota = np.asarray(iota, dtype=float)
    W, dphi = cfg.Omega, cfg.dphi
    phi1, phi2 = cfg.phi1, cfg.phi2
    e2 = cfg.amplitude ** 2

    b11 = (np.exp(1j * W * iota) + np.exp(-1j * W * iota)
           + np.exp(-1j * (W * (2 * t + iota) + 2 * dphi))
           + np.exp(1j * (W * (2 * t + iota) + 2 * dphi)))
    b20 = (np.exp(1j * (W * iota + phi1 + phi2))
           + np.exp(1j * (-W * iota + phi1 + phi2))
           + np.exp(1j * (-W * (2 * t + iota) + 2 * phi1))
           + np.exp(1j * (W * (2 * t + iota) + 2 * phi2)))
    z = e2 * (state.gamma11(iota) * b11 + state.gamma20(iota) * b20)
    zc = e2 * (np.conj(state.gamma11(iota)) * np.conj(b11)
               + np.conj(state.gamma20(iota)) * np.conj(b20))
    return z + zc


class TestIntensityCorrelation:
    def test_vacuum_kernels_give_zero(self):
        k = kernels(coherent_state(0))
        cfg = bh.HeterodyneConfig(Omega=1.0, amplitude=50.0)
        t = np.linspace(0, 5, 11)
        assert np.all(bh.intensity_correlation(k, cfg, t, 0.3) == 0.0)

    def test_conjugate_pair_realness(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            state = random_state(rng)
            cfg = random_lo(rng)
            z = eight_term_correlation(state, cfg,
                                       rng.uniform(0, 3), rng.uniform(-2, 2))
            assert abs(np.imag(z)) < 1e-12

    def test_single_quadrature_reduction(self):
        # the measured-quadrature form equals the eight-term sum for general
        # states and oscillator phases, at scalar, array and broadcast (t, iota)
        rng = np.random.default_rng(41)
        for _ in range(200):
            state = random_state(rng)
            cfg = random_lo(rng, amplitude=rng.uniform(0.1, 50.0))
            t_arr, i_arr = rng.uniform(0, 5, size=7), rng.uniform(-3, 3, size=7)
            for t, iota in [(rng.uniform(0, 5), rng.uniform(-3, 3)),
                            (t_arr, rng.uniform(-3, 3)),
                            (rng.uniform(0, 5), i_arr),
                            (t_arr, i_arr),
                            (t_arr[:, None], i_arr[None, :])]:
                got = bh.intensity_correlation(kernels(state), cfg, t, iota)
                want = np.real(eight_term_correlation(state, cfg, t, iota))
                scale = cfg.amplitude ** 2 * (np.abs(state.gamma11(iota))
                                              + np.abs(state.gamma20(iota)))
                assert np.shape(got) == np.shape(want)
                assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestWickOracle:
    def test_zero_state_gives_zero(self):
        state = coherent_state(0)
        cfg = bh.HeterodyneConfig(Omega=1.3, amplitude=30.0)
        assert wick_oracle(state, cfg, 0.7, 0.2) == 0.0

    def test_opo_point_agrees_with_truncation(self):
        # zero-mean source: the two routes differ only by amplitude-free
        # kernel-squared terms, tiny against the kept quadratic terms; the
        # oscillator's cross kernels are even (zero), so k12 = k21 = cross/2
        params = bh.OpoParams(gamma=1.0, epsilon=0.4, eta=0.8)
        k = bh.opo_field_state(params)
        half = lambda tau: k.cross(tau) / 2.0
        state = quadrature_correlations_to_gammas(FourKernels(k.xx, k.pp, half, half))
        cfg = bh.HeterodyneConfig(Omega=1.5, phi1=0.0, phi2=0.0, amplitude=1e3)
        lam = bh.intensity_correlation(k, cfg, 0.0, 0.0)
        wick = wick_oracle(state, cfg, 0.0, 0.0)
        assert wick == pytest.approx(lam, rel=1e-5)

    def test_background_cancellation(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            state = random_state(rng)
            cfg = random_lo(rng, amplitude=rng.uniform(5.0, 50.0))
            joint, product = strong_oscillator_background(
                state, cfg, rng.uniform(0, 2), rng.uniform(-2, 2))
            assert abs(joint - product) <= 1e-10 * abs(joint)

    def test_truncation_gap_shrinks_with_amplitude(self):
        # relative gap (wick - truncated)/E^2 falls off as 1/E; the
        # prefactor for this seeded configuration measured once at 15.5
        # and pinned with margin as a regression bound
        pinned_c = 16.0
        rng = np.random.default_rng(33)
        state = random_state(rng)
        t0, i0 = 0.31, 0.17
        amplitudes = np.array([1e2, 1e3, 1e4])
        gaps = []
        for amp in amplitudes:
            cfg = bh.HeterodyneConfig(Omega=2.1, phi1=0.3, phi2=-0.8, amplitude=amp)
            lam = bh.intensity_correlation(kernels(state), cfg, t0, i0)
            wick = wick_oracle(state, cfg, t0, i0)
            gaps.append(abs(wick - lam) / amp ** 2)
            assert gaps[-1] <= pinned_c / amp
        slope = np.polyfit(np.log10(amplitudes), np.log10(gaps), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestLambdaPrime:
    def test_representation_equivalence(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            state = random_state(rng)
            cfg = bh.HeterodyneConfig(Omega=rng.uniform(0.5, 4.0),
                                      phi1=rng.uniform(-np.pi, np.pi),
                                      phi2=rng.uniform(-np.pi, np.pi),
                                      amplitude=1.0)
            tau = rng.uniform(-3, 3, size=15)
            a = bh.lambda_prime(kernels(state), cfg, tau)
            b = bh.lambda_prime_quadrature_form(kernels(state), cfg, tau)
            scale = np.max(np.abs(a)) + 1e-30
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_amplitude_quadrature_lock_form(self):
        # phibar = 0: only the k11 branch survives
        rng = np.random.default_rng(35)
        state = random_state(rng)
        cfg = bh.HeterodyneConfig(Omega=1.2, phi1=0.3, phi2=-0.3, amplitude=2.0)
        assert cfg.phibar == pytest.approx(0.0)
        k = kernels(state)
        tau = np.linspace(-2, 2, 21)
        expected = cfg.amplitude ** 2 * np.cos(cfg.Omega * tau) * 2.0 * k.xx(tau)
        assert np.allclose(bh.lambda_prime_quadrature_form(k, cfg, tau),
                           expected, atol=1e-13)

    def test_diagonal_mix_at_pi_over_four(self):
        rng = np.random.default_rng(36)
        state = random_state(rng)
        cfg = bh.HeterodyneConfig(Omega=0.9, phi1=np.pi / 4, phi2=np.pi / 4,
                                  amplitude=1.5)
        assert cfg.phibar == pytest.approx(np.pi / 4)
        k = kernels(state)
        tau = np.linspace(-2, 2, 17)
        expected = (cfg.amplitude ** 2 * np.cos(cfg.Omega * tau)
                    * (k.xx(tau) + k.pp(tau) + k.cross(tau)))
        assert np.allclose(bh.lambda_prime_quadrature_form(k, cfg, tau),
                           expected, atol=1e-13)

    def test_phase_insensitive_source(self):
        # vanishing g20: lambda' = 4 E^2 cos(W tau) Re g11(tau), any phases
        g11 = lambda tau: np.exp(-np.abs(tau)) * (0.8 + 0.3j * np.sign(tau))
        zero = lambda tau: np.zeros_like(np.asarray(tau, dtype=float)) + 0j
        state = GaussianFieldState(0j, g11, zero)
        cfg = bh.HeterodyneConfig(Omega=1.7, phi1=0.5, phi2=-1.1, amplitude=3.0)
        tau = np.linspace(-3, 3, 25)
        expected = 4.0 * 9.0 * np.cos(1.7 * tau) * np.real(g11(tau))
        assert np.allclose(bh.lambda_prime(kernels(state), cfg, tau), expected, atol=1e-12)


    @pytest.mark.parametrize("phibar, skipped", [(0.0, "k22"), (np.pi / 2, "k11")])
    def test_zero_weight_branch_never_evaluated(self, phibar, skipped):
        # at phibar = 0 a pp branch (k22, phi22) that raises, as the anti-squeezed
        # branch at threshold would, is never called, nor xx (k11, phi11) at
        # phibar = pi/2, nor the cross branch at either: not by the correlation
        # functions, which read branches of lag, nor by the spectral engine,
        # which reads the same type as branches of frequency
        def diverges(x):
            raise ThresholdDivergence("a zero-weight branch was evaluated")

        def branch(x):
            return np.exp(-np.abs(np.asarray(x, dtype=float)))

        fields = {"xx": branch, "pp": branch, "cross": diverges}
        fields[{"k11": "xx", "k22": "pp"}[skipped]] = diverges
        b = bh.QuadratureBranches(**fields)
        cfg = bh.HeterodyneConfig(Omega=2.0, phi1=phibar, phi2=phibar)
        tau = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(bh.lambda_prime(b, cfg, tau),
                              2.0 * np.cos(2.0 * tau) * branch(tau))
        assert np.all(np.isfinite(bh.intensity_correlation(b, cfg, 0.4, tau)))
        assert bh.time_average_reduce(b, cfg, 0.3, 20) == pytest.approx(
            float(bh.lambda_prime(b, cfg, 0.3)), rel=1e-10)
        w = np.linspace(-3.0, 3.0, 13)
        hom = bh.homodyne_spectrum(b, phibar, 1.0, w)
        assert np.array_equal(hom.chi_normalized, 1.0 + branch(w))
        het = bh.heterodyne_spectrum(b, cfg, 1.0, w)
        assert np.array_equal(het.chi_normalized,
                              0.5 * ((1.0 + branch(w + 2.0)) + (1.0 + branch(w - 2.0))))


class TestPhaseFrame:
    def test_rotation_of_frame_and_phases_changes_nothing(self):
        # rotating the field by theta (<a> -> <a> e^{-i theta}, so
        # g20 = <da+ da+> -> g20 e^{2i theta}) while shifting both
        # oscillator phases by -theta leaves every observable unchanged:
        # measuring phases from the squeezing axis loses no generality
        rng = np.random.default_rng(42)
        for _ in range(50):
            state = random_state(rng)
            theta = rng.uniform(-np.pi, np.pi)
            rotated = GaussianFieldState(
                state.mean_amplitude * np.exp(-1j * theta), state.gamma11,
                lambda tau, g20=state.gamma20, r=np.exp(2j * theta): g20(tau) * r)
            cfg = random_lo(rng, amplitude=rng.uniform(0.5, 3.0))
            shifted = bh.HeterodyneConfig(Omega=cfg.Omega, phi1=cfg.phi1 - theta,
                                          phi2=cfg.phi2 - theta, amplitude=cfg.amplitude)
            t, tau = rng.uniform(0, 5, size=(2, 9))
            phibar = rng.uniform(-np.pi, np.pi, size=9)
            for f, read, args in [(bh.lambda_prime, kernels, (tau,)),
                                  (bh.lambda_prime_quadrature_form, kernels, (tau,)),
                                  (bh.intensity_correlation, kernels, (t, tau)),
                                  (wick_oracle, lambda s: s, (t, tau))]:
                want = f(read(state), cfg, *args)
                got = f(read(rotated), shifted, *args)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            for f in (quadrature_mean, bh.quadrature_mean_slope):
                want = f(state.mean_amplitude, phibar)
                got = f(rotated.mean_amplitude, phibar - theta)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestTimeAverage:
    def test_commensurate_window_is_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            k = kernels(random_state(rng))
            cfg = random_lo(rng, amplitude=rng.uniform(0.5, 3.0))
            iota = 0.21  # keep cos(Omega iota) away from zero crossings
            if abs(np.cos(cfg.Omega * iota)) < 0.2:
                iota = 0.05
            closed = float(bh.lambda_prime(k, cfg, iota))
            mismatch = abs(bh.time_average_reduce(k, cfg, iota, 40) - closed)
            assert mismatch <= 1e-10 * max(abs(closed), 1e-12)

    def test_incommensurate_window_decays_inversely(self):
        rng = np.random.default_rng(38)
        k = kernels(random_state(rng))
        cfg = bh.HeterodyneConfig(Omega=2.0, phi1=0.2, phi2=0.9, amplitude=1.0)
        iota = 0.13
        # quarter-period offsets keep the leftover oscillation amplitude fixed
        counts = np.array([20, 64, 200, 640])
        periods = counts + 0.25
        closed = float(bh.lambda_prime(k, cfg, iota))
        mism = [abs(bh.time_average_reduce(k, cfg, iota, float(p)) - closed)
                for p in periods]
        slope = np.polyfit(np.log10(periods), np.log10(mism), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_short_window_rejected(self):
        k = kernels(random_state(np.random.default_rng(39)))
        cfg = bh.HeterodyneConfig(Omega=1.0, amplitude=1.0)
        with pytest.raises(InsufficientAveraging):
            bh.time_average_reduce(k, cfg, 0.1, averaging_periods=5)

    @pytest.mark.parametrize("Omega, periods", [(1.0, 1e308), (5e-324, 40),
                                                (10.0, np.float64(1e308))],
                             ids=["long_window", "subnormal_offset", "numpy_scalar"])
    def test_overflowing_beat_phase_rejected(self, Omega, periods):
        # these once escaped as a bare OverflowError, an int() ValueError or,
        # for a numpy scalar, an overflow RuntimeWarning
        k = kernels(random_state(np.random.default_rng(41)))
        cfg = bh.HeterodyneConfig(Omega=Omega, amplitude=1.0)
        with pytest.raises(InsufficientAveraging, match="overflows the beat phase"):
            bh.time_average_reduce(k, cfg, 0.1, periods)

    def test_exactly_ten_periods_accepted(self):
        # 20 pi / Omega rounds one ulp below 10 * (2 pi / Omega) at Omega = 0.05,
        # but the window is judged on its periods, not on T
        k = kernels(random_state(np.random.default_rng(40)))
        cfg = bh.HeterodyneConfig(Omega=0.05, amplitude=1.0)
        assert 20 * np.pi / cfg.Omega < 10 * (2 * np.pi / cfg.Omega)
        bh.time_average_reduce(k, cfg, 0.1, 20)
        with pytest.raises(InsufficientAveraging):
            bh.time_average_reduce(k, cfg, 0.1, 19.9)

    def test_periods_judged_as_check_averaging_judges_them(self):
        # one rule and one verdict: the float just below 20 is refused by both, 20 by neither
        k = kernels(random_state(np.random.default_rng(40)))
        cfg = bh.HeterodyneConfig(Omega=0.05, amplitude=1.0)
        below = np.nextafter(20, 0)
        with pytest.raises(InsufficientAveraging):
            check_averaging(cfg.Omega, below, 0.1)
        with pytest.raises(InsufficientAveraging):
            bh.time_average_reduce(k, cfg, 0.1, below)
        check_averaging(cfg.Omega, 20, 0.1)
        assert np.isfinite(bh.time_average_reduce(k, cfg, 0.1, 20))


class TestSpectralConsistency:
    def test_transform_of_lambda_prime_matches_engine(self):
        # cross-module: the transform of lambda' with a flat detector must
        # reproduce the analytic heterodyne spectrum after normalization
        params = bh.OpoParams(gamma=1.0, epsilon=0.4, eta=0.8)
        k = bh.opo_field_state(params)
        cfg = bh.HeterodyneConfig(Omega=2.2, phi1=0.5, phi2=0.1, amplitude=1.0)
        tau = np.linspace(0.0, 250.0, 50001)
        lam = bh.lambda_prime(k, cfg, tau)
        spectra = bh.opo_spectra(params)
        w_probe = np.array([0.0, 0.3, 1.0, 2.2, 3.5])
        engine = bh.heterodyne_spectrum(spectra, cfg, params.eta, w_probe)
        for i, w in enumerate(w_probe):
            transform = 2.0 * np.trapezoid(lam * np.cos(w * tau), tau)
            chi = 1.0 + params.eta * transform / (2.0 * cfg.amplitude ** 2)
            assert chi == pytest.approx(engine.chi_normalized[i], abs=2e-4)
