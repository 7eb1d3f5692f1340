"""Phase lock: sideband algebra, demodulation, and the closed loop."""

import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0 as sp_j0, j1 as sp_j1, jv

import balhet as bh
from balhet.errors import DemodClash, LockFailure
from balhet.locking import _LOCK_BLOCK, _demodulate, _folded_sin, _lo_superposition_modulated
from wick import coherent_state, error_line_projection, mean_photocurrent, quadrature_mean

TWO_PI = 2.0 * np.pi

# dyadic frequencies keep every beat line on an exactly representable
# cycle grid (common period 1/128 s)
F_HET = 1280.0
F_MOD = 1152.0
MEAN = 1.0 + 0j
STATE = coherent_state(MEAN)


def het_config(phibar=0.3, amplitude=0.1, dphi=0.0):
    return bh.HeterodyneConfig(Omega=TWO_PI * F_HET, phi1=phibar - dphi,
                               phi2=phibar + dphi, amplitude=amplitude)


def lock_config(cfg, **kw):
    return bh.LockConfig(cfg, Omega_prime=TWO_PI * F_MOD, **kw)


class TestBessel:
    def test_series_against_scipy(self):
        for x in np.linspace(0.0, 1000.0, 2001):
            out = bh.bessel_truncation(x)
            assert out.j0 == pytest.approx(float(sp_j0(x)), abs=1e-13)
            assert out.j1 == pytest.approx(float(sp_j1(x)), abs=1e-13)

    def test_upward_recurrence(self):
        # J_{n+1}(x) = (2n/x) J_n(x) - J_{n-1}(x)
        for x in (0.3, 0.9, 2.2):
            out = bh.bessel_truncation(x)
            j0, j1 = out.j0, out.j1
            j2 = (2.0 / x) * j1 - j0
            assert j2 == pytest.approx(float(jv(2, x)), abs=1e-12)

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_non_finite_depth_refused(self, theta):
        with pytest.raises(ValueError, match="theta"):
            lock_config(het_config(), theta=theta)

    @pytest.mark.parametrize("theta", [math.inf, math.nan, -0.1])
    def test_truncation_refuses_bad_depth(self, theta):
        # inf and NaN once returned BesselTruncation(nan, nan, nan)
        with pytest.raises(ValueError, match="theta must be finite and >= 0"):
            bh.bessel_truncation(theta)

    def test_finite_depth_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (1e3, 1e10, 1e100, 1e308):
                assert bh.bessel_truncation(theta).residual >= 0.0

    def test_accepted_depth_boundary(self):
        cfg = het_config()
        lock_config(cfg, theta=1.180764)
        with pytest.raises(ValueError, match="sideband power"):
            lock_config(cfg, theta=1.180765)

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
        for theta in (0.1, 0.2, 0.5, 40.0):
            out = bh.bessel_truncation(theta)
            assert out.residual == pytest.approx(
                1.0 - out.j0 ** 2 - 2.0 * out.j1 ** 2, abs=1e-12)


class TestMeanPhotocurrent:
    def test_unmodulated_form(self):
        # theta = 0: DC + beat at the heterodyne frequency + oscillator power
        cfg = bh.HeterodyneConfig(Omega=TWO_PI * F_HET, phi1=0.4, phi2=1.0,
                                  amplitude=0.7)
        lock = lock_config(cfg, theta=0.0)
        t = np.linspace(0.0, 3.0 / F_HET, 257)
        j = mean_photocurrent(STATE, lock, t, eta=0.9)
        xmean = quadrature_mean(MEAN, cfg.phibar)
        expected = 0.9 * (
            abs(MEAN) ** 2
            + 2.0 * cfg.amplitude * np.cos(cfg.Omega * t + cfg.dphi) * xmean
            + 4.0 * cfg.amplitude ** 2 * np.cos(cfg.Omega * t + cfg.dphi) ** 2)
        assert np.max(np.abs(j - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.2, 0.5])
    def test_demodulation_line_amplitude(self, theta):
        # numeric projection of the untruncated current vs the sideband
        # prediction; the first-order line is exact for these frequencies,
        # and the truncation residual bounds it loosely
        cfg = het_config(phibar=0.47, dphi=0.31)
        lock = lock_config(cfg, theta=theta)
        proj = error_line_projection(STATE, lock, eta=0.8,
                                     duration=0.25, samples=2 ** 15)
        pred = bh.error_line_prediction(MEAN, lock, eta=0.8)
        assert abs(proj - pred) <= bh.bessel_truncation(theta).residual * abs(pred) + 1e-13

    def test_vacuum_has_no_demodulation_line(self):
        lock = lock_config(het_config(phibar=0.3), theta=0.2)
        proj = error_line_projection(coherent_state(0), lock,
                                     duration=0.25, samples=2 ** 15)
        assert abs(proj) < 1e-14

    def test_prediction_refuses_inaccurate_depth(self):
        # theta = 40 leaves almost all the power outside the two sidebands
        with pytest.raises(ValueError, match="sideband power"):
            lock_config(het_config(), theta=40.0)


class TestErrorSignal:
    def test_zero_at_extremum(self):
        e = bh.error_signal(MEAN, lock_config(het_config(phibar=0.0)),
                            average_time=0.125)
        assert abs(e) < 1e-12

    def test_restoring_sign(self):
        e_pos = bh.error_signal(MEAN, lock_config(het_config(phibar=+0.1)),
                                average_time=0.125)
        e_neg = bh.error_signal(MEAN, lock_config(het_config(phibar=-0.1)),
                                average_time=0.125)
        assert e_pos < 0 < e_neg
        assert e_pos == pytest.approx(-e_neg, rel=1e-9)

    def test_matches_mixer_dc_prediction(self):
        # DC after mixing: 2 eta E J1 (dX/dphibar) cos(demod_phase - dphi)
        for phibar, dphi, demod in ((0.2, 0.0, 0.0), (-0.4, 0.25, 0.1)):
            cfg = het_config(phibar=phibar, dphi=dphi)
            lock = lock_config(cfg, theta=0.2, demod_phase=demod)
            e = bh.error_signal(MEAN, lock, eta=0.9,
                                average_time=0.125)
            j1 = bh.bessel_truncation(0.2).j1
            slope = bh.quadrature_mean_slope(MEAN, phibar)
            expected = (2.0 * 0.9 * cfg.amplitude * j1 * slope
                        * np.cos(demod - dphi))
            assert e == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_quadrature_demodulation_nulls(self):
        for phibar in (0.0, 0.3, -0.8):
            cfg = het_config(phibar=phibar, dphi=0.2)
            lock = lock_config(cfg, demod_phase=0.2 + np.pi / 2)
            e = bh.error_signal(MEAN, lock, average_time=0.125)
            assert abs(e) < 1e-9

    @pytest.mark.parametrize("average_time", [-1.0, 0.0, math.nan, math.inf, 1e300])
    def test_bad_average_time_refused(self, average_time):
        # -1 once averaged one step, and NaN raised a bare float-to-integer error
        with pytest.raises(ValueError, match="average_time must be positive"):
            bh.error_signal(MEAN, lock_config(het_config()), average_time=average_time)

    @pytest.mark.parametrize("cutoff", [1e-300, 5e-324])
    def test_settling_beyond_max_length_refused(self, cutoff):
        # 1e-300 once asked numpy for an array beyond its index range, and
        # 5e-324 made the settling steps infinite (a bare OverflowError)
        with pytest.raises(ValueError, match="lowpass_cutoff"):
            bh.error_signal(MEAN, lock_config(het_config(), lowpass_cutoff=cutoff),
                            average_time=0.125)

    def test_vacuum_gives_zero(self):
        e = bh.error_signal(0j, lock_config(het_config()),
                            average_time=0.125)
        assert abs(e) < 1e-12

    def test_demodulation_clash(self):
        with pytest.raises(DemodClash):
            lock_config(het_config(), lowpass_cutoff=TWO_PI * (F_HET - F_MOD) * 1.5)

    @pytest.mark.parametrize("cutoff", [-50.0, 0.0, math.nan, math.inf])
    def test_cutoff_outside_open_half_line_refused(self, cutoff):
        # a negative cutoff once gave a finite error signal, a zero one a
        # bare ZeroDivisionError, and nan an unrelated int() ValueError
        with pytest.raises(ValueError, match="lowpass_cutoff"):
            lock_config(het_config(), lowpass_cutoff=cutoff)

    @pytest.mark.parametrize("tolerance", [-1e-3, 0.0, math.nan, math.inf])
    def test_tolerance_outside_open_half_line_refused(self, tolerance):
        # zero or a negative tolerance once ran the whole loop and reported
        # a loop that had settled as "did not settle"
        with pytest.raises(ValueError, match="lock_tolerance"):
            lock_config(het_config(), lock_tolerance=tolerance)

    def test_clash_is_part_of_the_lock_check(self):
        with pytest.raises(DemodClash, match="lowpass_cutoff: must lie below"):
            lock_config(het_config(), lowpass_cutoff=TWO_PI * (F_HET - F_MOD))

    def test_validation(self):
        with pytest.raises(ValueError):  # modulation above the beat
            bh.LockConfig(het_config(), Omega_prime=TWO_PI * 2000.0)
        with pytest.raises(ValueError):  # step too coarse
            lock_config(het_config(), dt=1e-3)
        with pytest.raises(ValueError):  # depth outside the sideband picture
            lock_config(het_config(), theta=1.5)

    def test_modulation_at_beat_rejected(self):
        # refused when built, so no step count ever divides by Omega - Omega'
        with pytest.raises(ValueError, match="below the heterodyne offset"):
            bh.LockConfig(het_config(), Omega_prime=TWO_PI * F_HET)

    def test_oscillators_replaced_are_checked(self):
        # every LockConfig that exists is valid, also one built by replace
        lock = lock_config(het_config())
        with pytest.raises(ValueError, match="below the heterodyne offset"):
            replace(lock, heterodyne=bh.HeterodyneConfig(Omega=lock.Omega_prime))


class TestClosedLoop:
    def test_lock_from_standard_offset(self):
        traj = bh.closed_loop_simulate(MEAN, lock_config(het_config(phibar=0.3)))
        assert traj.locked
        assert abs(traj.phibar[-1]) < 1e-3
        assert traj.lock_time < 0.4
        assert traj.lock_point == pytest.approx(0.0)

    def test_deterministic(self):
        a = bh.closed_loop_simulate(MEAN, lock_config(het_config()))
        b = bh.closed_loop_simulate(MEAN, lock_config(het_config()))
        assert np.array_equal(a.phibar, b.phibar)
        assert np.array_equal(a.error_signal, b.error_signal)

    def test_basin_selects_adjacent_stable_zero(self):
        # starting just past the unstable extremum: converges to the next
        # stable point (2 pi), never back to pi
        traj = bh.closed_loop_simulate(MEAN, lock_config(het_config(phibar=1.1 * np.pi),
                                                         duration=1.0))
        assert traj.locked
        assert traj.phibar[-1] == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert np.all(np.abs(traj.phibar - np.pi) > 0.05)

    def test_disturbance_attenuated_by_loop_gain(self):
        amp, w_dist = 0.05, TWO_PI * 1.0
        disturbance = lambda t: amp * np.sin(w_dist * np.asarray(t))
        lock = lock_config(het_config(phibar=0.0), duration=2.0, disturbance=disturbance,
                           lock_tolerance=0.02)
        traj = bh.closed_loop_simulate(MEAN, lock)
        n = len(traj.time)
        closed_rms = float(np.sqrt(np.mean(traj.phibar[n // 2:] ** 2)))
        open_rms = amp / np.sqrt(2.0)
        # loop gain at the disturbance frequency is ki K / w ~ 6
        assert closed_rms < 0.25 * open_rms

    def test_vacuum_raises_lock_failure(self):
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(0j, lock_config(het_config(), duration=0.05))
        assert info.value.trajectory is not None

    def test_infinite_actuator_phase_raises_lock_failure(self):
        # an infinite phase once reached math.cos as a bare ValueError
        lock = lock_config(het_config(), disturbance=lambda t: np.inf, duration=0.01)
        with pytest.raises(LockFailure, match="actuator phase overflowed"):
            bh.closed_loop_simulate(MEAN, lock)

    def test_unconverged_raises_with_trajectory(self):
        slow = lock_config(het_config(phibar=0.3), ki=1.0, duration=0.05)
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(MEAN, slow)
        traj = info.value.trajectory
        assert traj is not None and not traj.locked
        assert np.isnan(traj.lock_time)


def _step_reference(mean, lock, eta, n):
    """The lock loop with every input precomputed at full length."""
    cfg = lock.heterodyne
    t = np.arange(n) * lock.dt
    c0 = _lo_superposition_modulated(lock, t)
    base = (eta * (np.abs(c0) ** 2 - 2.0 * cfg.amplitude ** 2)).tolist()
    beat = (eta * np.conj(complex(mean)) * c0).tolist()
    nu = cfg.Omega - lock.Omega_prime
    ref = (-2.0 * _folded_sin(nu / TWO_PI, t, lock.demod_phase)).tolist()
    disturb = np.asarray(lock.disturbance(t), dtype=float).tolist()
    alpha = 1.0 - math.exp(-lock.cutoff * lock.dt)
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
        mean = 0.8 - 0.45j
        lock = lock_config(het_config(phibar=0.6, dphi=0.15), kp=0.5, demod_phase=0.05,
                           disturbance=lambda t: 0.03 * np.sin(TWO_PI * 7.0 * t))
        n = 2 * _LOCK_BLOCK + 17
        got = _demodulate(mean, lock, 0.9, n)
        want = _step_reference(mean, lock, 0.9, n)
        for g, w in zip(got, want[1:], strict=True):  # (phibar, error); the time is derived
            assert np.array_equal(g, w)

    def test_loop_memory_bounded(self):
        # the loop keeps its two returned arrays plus one block of work; no time axis
        lock = lock_config(het_config(), duration=4.0)
        tracemalloc.start()
        try:
            traj = bh.closed_loop_simulate(MEAN, lock)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.phibar) == 2 ** 17
        assert peak <= traj.phibar.nbytes + traj.error_signal.nbytes + 2 ** 20

    @staticmethod
    def _full_array_verdict(traj, tol):
        """The lock verdict read from full-length arrays in one pass."""
        n = len(traj.time)
        offset = (traj.phibar - traj.lock_point + np.pi) % TWO_PI - np.pi
        within = np.abs(offset) < tol
        tail = max(1, n // 10)
        locked = bool(np.all(within[-tail:]))
        residual_rms = float(np.sqrt(np.mean(offset[-tail:] ** 2)))
        lock_time = math.nan
        if locked:
            ever_out = np.nonzero(~within)[0]
            first = 0 if len(ever_out) == 0 else int(ever_out[-1]) + 1
            lock_time = float(traj.time[first])
        return locked, lock_time, residual_rms

    @staticmethod
    def _kicked_run():
        # a kick at 0.15 s leaves the last out-of-tolerance step in the
        # second block; the run ends in a partial third one
        n = 2 * _LOCK_BLOCK + 17
        kick = lambda t: 0.05 * np.exp(-((np.asarray(t) - 0.15) / 0.005) ** 2)
        lock = lock_config(het_config(), duration=n * 2.0 ** -15, lock_tolerance=3e-3,
                           disturbance=kick)
        return n, lock, bh.closed_loop_simulate(MEAN, lock)

    def test_time_axis_derived_bit_for_bit(self):
        # the derived axis is the one the loop once stored, and lock_time is read off it
        n, lock, traj = self._kicked_run()
        stored = np.arange(n, dtype=float)
        stored *= lock.dt
        assert traj.time.dtype == stored.dtype
        assert traj.time.tobytes() == stored.tobytes()
        offset = (traj.phibar - traj.lock_point + np.pi) % TWO_PI - np.pi
        last_out = int(np.flatnonzero(~(np.abs(offset) < lock.lock_tolerance))[-1])
        assert traj.lock_time == traj.time[last_out + 1]

    def test_verdict_matches_full_array_reading(self):
        n, lock, traj = self._kicked_run()
        assert len(traj.time) == n
        assert _LOCK_BLOCK < traj.lock_time / lock.dt < 2 * _LOCK_BLOCK
        got = (traj.locked, traj.lock_time, traj.residual_rms)
        assert got == self._full_array_verdict(traj, lock.lock_tolerance)

    def test_failed_verdict_matches_full_array_reading(self):
        lock = lock_config(het_config(), duration=0.3)
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(MEAN, lock)
        traj = info.value.trajectory
        locked, lock_time, residual_rms = self._full_array_verdict(
            traj, lock.lock_tolerance)
        assert traj.locked is locked is False
        assert np.isnan(traj.lock_time) and np.isnan(lock_time)
        assert traj.residual_rms == residual_rms == pytest.approx(5.254e-4, rel=1e-3)

    def test_nan_phase_counts_as_outside(self):
        # the loop settles by 0.2 s, then a NaN disturbance fills the tail
        gap = lambda t: np.where(np.asarray(t) < 0.2, 0.0, np.nan)
        lock = lock_config(het_config(), disturbance=gap)
        with pytest.raises(LockFailure) as info:
            bh.closed_loop_simulate(MEAN, lock)
        traj = info.value.trajectory
        assert not traj.locked and np.isnan(traj.lock_time)
        assert np.isnan(traj.residual_rms)
        assert not self._full_array_verdict(traj, lock.lock_tolerance)[0]
