"""Phase lock: sideband algebra, demodulation, and the closed loop."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0 as sp_j0, j1 as sp_j1, jv

import balhet as bh
from balhet.errors import DemodClash, LockFailure
from balhet.locking import (_LOCK_BLOCK, _bessel_series, _demodulate,
                            _folded_sin, _lo_superposition_modulated)

TWO_PI = 2.0 * np.pi

# dyadic frequencies keep every beat line on an exactly representable
# cycle grid (common period 1/128 s)
F_HET = 1280.0
F_MOD = 1152.0
DET = bh.flat_detector()
STATE = bh.coherent_state(1.0 + 0j)


def het_config(phibar=0.3, amplitude=0.1, dphi=0.0):
    return bh.HeterodyneConfig(Omega=TWO_PI * F_HET, phi1=phibar - dphi,
                               phi2=phibar + dphi, beta=0.0,
                               amplitude=amplitude)


def lock_config(**kw):
    return bh.LockConfig(Omega_prime=TWO_PI * F_MOD, **kw)


class TestBessel:
    def test_series_against_scipy(self):
        for x in np.linspace(0.0, 3.0, 31):
            assert _bessel_series(0, x) == pytest.approx(float(sp_j0(x)), abs=1e-14)
            assert _bessel_series(1, x) == pytest.approx(float(sp_j1(x)), abs=1e-14)

    def test_upward_recurrence(self):
        # J_{n+1}(x) = (2n/x) J_n(x) - J_{n-1}(x)
        for x in (0.3, 0.9, 2.2):
            j0, j1 = _bessel_series(0, x), _bessel_series(1, x)
            j2 = (2.0 / x) * j1 - j0
            assert j2 == pytest.approx(float(jv(2, x)), abs=1e-12)

    def test_zero_depth(self):
        out = bh.bessel_truncation(0.0)
        assert (out.j0, out.j1, out.residual) == (1.0, 0.0, 0.0)

    def test_frozen_values_at_standard_depth(self):
        out = bh.bessel_truncation(0.2)
        assert out.j0 == pytest.approx(0.99002, abs=1e-5)
        assert out.j1 == pytest.approx(0.09950, abs=1e-5)
        assert out.residual < 1e-3

    def test_residual_quartic_growth(self):
        # leftover power is dominated by the second-order sidebands:
        # residual ~ 2 (theta^2/8)^2 = theta^4/32
        thetas = np.array([0.05, 0.1, 0.2, 0.4])
        residuals = np.array([bh.bessel_truncation(t).residual for t in thetas])
        ratio = residuals / thetas ** 4
        assert np.all(np.abs(ratio - 1.0 / 32.0) < 0.2 / 32.0)

    def test_residual_matches_retained_power(self):
        # Parseval route: residual = 1 - J0^2 - 2 J1^2
        for theta in (0.1, 0.2, 0.5):
            out = bh.bessel_truncation(theta)
            assert out.residual == pytest.approx(
                1.0 - out.j0 ** 2 - 2.0 * out.j1 ** 2, abs=1e-12)


class TestMeanPhotocurrent:
    def test_unmodulated_form(self):
        # theta = 0: DC + beat at the heterodyne frequency + oscillator power
        cfg = bh.HeterodyneConfig(Omega=TWO_PI * F_HET, phi1=0.4, phi2=1.0,
                                  beta=0.2, amplitude=0.7)
        lock = lock_config(theta=0.0)
        t = np.linspace(0.0, 3.0 / F_HET, 257)
        j = bh.mean_photocurrent(STATE, cfg, lock, DET, t, eta=0.9)
        xmean = bh.quadrature_mean(
            bh.GaussianFieldState(STATE.mean_amplitude, STATE.gamma11,
                                  STATE.gamma20, beta=0.2), cfg.phibar)
        expected = 0.9 * DET.charge * (
            abs(STATE.mean_amplitude) ** 2
            + 2.0 * cfg.amplitude * np.cos(cfg.Omega * t + cfg.dphi) * xmean
            + 4.0 * cfg.amplitude ** 2 * np.cos(cfg.Omega * t + cfg.dphi) ** 2)
        assert np.max(np.abs(j - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.2, 0.5])
    def test_demodulation_line_amplitude(self, theta):
        # numeric projection of the untruncated current vs the sideband
        # prediction; the first-order line is exact for these frequencies,
        # and the truncation residual bounds it loosely
        cfg = het_config(phibar=0.47, dphi=0.31)
        lock = lock_config(theta=theta)
        proj = bh.error_line_projection(STATE, cfg, lock, DET, eta=0.8,
                                        duration=0.25, samples=2 ** 15)
        pred = bh.error_line_prediction(STATE, cfg, lock, DET, eta=0.8)
        assert abs(proj - pred) <= bh.bessel_truncation(theta).residual * abs(pred) + 1e-13

    def test_vacuum_has_no_demodulation_line(self):
        cfg = het_config(phibar=0.3)
        lock = lock_config(theta=0.2)
        proj = bh.error_line_projection(bh.vacuum_state(), cfg, lock, DET,
                                        duration=0.25, samples=2 ** 15)
        assert abs(proj) < 1e-14

    def test_prediction_refuses_inaccurate_depth(self):
        # the power series is wrong past theta ~ 30; the lock check says so
        with pytest.raises(ValueError, match="sideband power"):
            bh.error_line_prediction(STATE, het_config(), lock_config(theta=40.0), DET)


class TestErrorSignal:
    def test_zero_at_extremum(self):
        e = bh.error_signal(STATE, het_config(phibar=0.0), lock_config(), DET,
                            average_time=0.125)
        assert abs(e) < 1e-12

    def test_restoring_sign(self):
        lock = lock_config()
        e_pos = bh.error_signal(STATE, het_config(phibar=+0.1), lock, DET,
                                average_time=0.125)
        e_neg = bh.error_signal(STATE, het_config(phibar=-0.1), lock, DET,
                                average_time=0.125)
        assert e_pos < 0 < e_neg
        assert e_pos == pytest.approx(-e_neg, rel=1e-9)

    def test_matches_mixer_dc_prediction(self):
        # DC after mixing: 2 eta q E J1 (dX/dphibar) cos(demod_phase - dphi)
        for phibar, dphi, demod in ((0.2, 0.0, 0.0), (-0.4, 0.25, 0.1)):
            cfg = het_config(phibar=phibar, dphi=dphi)
            lock = lock_config(theta=0.2, demod_phase=demod)
            e = bh.error_signal(STATE, cfg, lock, DET, eta=0.9,
                                average_time=0.125)
            j1 = bh.bessel_truncation(0.2).j1
            slope = bh.quadrature_mean_slope(STATE, phibar)
            expected = (2.0 * 0.9 * DET.charge * cfg.amplitude * j1 * slope
                        * np.cos(demod - dphi))
            assert e == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_quadrature_demodulation_nulls(self):
        for phibar in (0.0, 0.3, -0.8):
            cfg = het_config(phibar=phibar, dphi=0.2)
            lock = lock_config(demod_phase=0.2 + np.pi / 2)
            e = bh.error_signal(STATE, cfg, lock, DET, average_time=0.125)
            assert abs(e) < 1e-9

    def test_vacuum_gives_zero(self):
        e = bh.error_signal(bh.vacuum_state(), het_config(), lock_config(), DET,
                            average_time=0.125)
        assert abs(e) < 1e-12

    def test_demodulation_clash(self):
        lock = lock_config(lowpass_cutoff=TWO_PI * (F_HET - F_MOD) * 1.5)
        with pytest.raises(DemodClash):
            bh.error_signal(STATE, het_config(), lock, DET)

    def test_validation(self):
        with pytest.raises(ValueError):  # modulation above the beat
            bh.error_signal(STATE, het_config(),
                            bh.LockConfig(Omega_prime=TWO_PI * 2000.0), DET)
        with pytest.raises(ValueError):  # step too coarse
            bh.error_signal(STATE, het_config(), lock_config(dt=1e-3), DET)
        with pytest.raises(ValueError):  # depth outside the sideband picture
            bh.error_signal(STATE, het_config(), lock_config(theta=1.5), DET)

    def test_modulation_at_beat_rejected(self):
        # the lock check runs before the step count divides by Omega - Omega'
        with pytest.raises(ValueError, match="below the heterodyne offset"):
            bh.error_signal(STATE, het_config(),
                            bh.LockConfig(Omega_prime=TWO_PI * F_HET), DET)


class TestClosedLoop:
    def test_lock_from_standard_offset(self):
        traj = bh.closed_loop_simulate(STATE, het_config(phibar=0.3),
                                       lock_config(), DET)
        assert traj.locked
        assert abs(traj.phibar[-1]) < 1e-3
        assert traj.lock_time < 0.4
        assert traj.lock_point == pytest.approx(0.0)

    def test_deterministic(self):
        a = bh.closed_loop_simulate(STATE, het_config(), lock_config(), DET)
        b = bh.closed_loop_simulate(STATE, het_config(), lock_config(), DET)
        assert np.array_equal(a.phibar, b.phibar)
        assert np.array_equal(a.error_signal, b.error_signal)

    def test_basin_selects_adjacent_stable_zero(self):
        # starting just past the unstable extremum: converges to the next
        # stable point (2 pi), never back to pi
        traj = bh.closed_loop_simulate(STATE, het_config(phibar=1.1 * np.pi),
                                       lock_config(duration=1.0), DET)
        assert traj.locked
        assert traj.phibar[-1] == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert np.all(np.abs(traj.phibar - np.pi) > 0.05)

    def test_disturbance_attenuated_by_loop_gain(self):
        amp, w_dist = 0.05, TWO_PI * 1.0
        disturbance = lambda t: amp * np.sin(w_dist * np.asarray(t))
        lock = lock_config(duration=2.0, disturbance=disturbance,
                           lock_tolerance=0.02)
        traj = bh.closed_loop_simulate(STATE, het_config(phibar=0.0), lock, DET)
        n = len(traj.time)
        closed_rms = float(np.sqrt(np.mean(traj.phibar[n // 2:] ** 2)))
        open_rms = amp / np.sqrt(2.0)
        # loop gain at the disturbance frequency is ki K / w ~ 6
        assert closed_rms < 0.25 * open_rms

    def test_vacuum_raises_lock_failure(self):
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(bh.vacuum_state(), het_config(),
                                    lock_config(duration=0.05), DET)
        assert info.value.trajectory is not None

    def test_unconverged_raises_with_trajectory(self):
        slow = lock_config(ki=1.0, duration=0.05)
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(STATE, het_config(phibar=0.3), slow, DET)
        traj = info.value.trajectory
        assert traj is not None and not traj.locked
        assert np.isnan(traj.lock_time)


def _step_reference(state, cfg, lock, det, eta, n):
    """The lock loop with every input precomputed at full length."""
    t = np.arange(n) * lock.dt
    c0 = _lo_superposition_modulated(cfg, lock, t)
    qe = eta * det.charge
    base = (qe * (np.abs(c0) ** 2 - 2.0 * cfg.amplitude ** 2)).tolist()
    beat = (qe * np.conj(complex(state.mean_amplitude)) * c0).tolist()
    nu = cfg.Omega - lock.Omega_prime
    ref = (-2.0 * _folded_sin(nu / TWO_PI, t, lock.demod_phase)).tolist()
    disturb = np.asarray(lock.disturbance(t), dtype=float).tolist()
    alpha = 1.0 - math.exp(-lock.cutoff(cfg) * lock.dt)
    phibar, error = np.empty(n), np.empty(n)
    u = integ = filt = 0.0
    for k in range(n):
        psi = u + disturb[k]
        j_ac = base[k] + 2.0 * (beat[k] * cmath.exp(1j * psi)).real
        filt += alpha * (j_ac * ref[k] - filt)
        integ += filt * lock.dt
        u = lock.kp * filt + lock.ki * integ
        phibar[k] = cfg.phibar + psi
        error[k] = filt
    return t, phibar, error


class TestBlockedLoop:
    def test_blocked_loop_matches_step_reference(self):
        # two full blocks and a partial one, with every input term live
        state = bh.coherent_state(0.8 - 0.45j)
        cfg = het_config(phibar=0.6, dphi=0.15)
        lock = lock_config(kp=0.5, demod_phase=0.05,
                           disturbance=lambda t: 0.03 * np.sin(TWO_PI * 7.0 * t))
        n = 2 * _LOCK_BLOCK + 17
        got = _demodulate(state, cfg, lock, DET, 0.9, n)
        want = _step_reference(state, cfg, lock, DET, 0.9, n)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_loop_memory_bounded(self):
        # the loop keeps its returned arrays plus one block of work
        lock = lock_config(duration=4.0)
        tracemalloc.start()
        try:
            traj = bh.closed_loop_simulate(STATE, het_config(), lock, DET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.time) == 2 ** 17
        returned = traj.time.nbytes + traj.phibar.nbytes + traj.error_signal.nbytes
        assert peak <= 3 * returned
