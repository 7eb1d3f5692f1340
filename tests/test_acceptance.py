"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import balhet as bh
from balhet.cli import main as cli_main
from test_field import random_state
from wick import (coherent_state, error_line_projection, field_kernel_lambda_prime, kernels,
                  strong_oscillator_background, wick_oracle)

THRESHOLD_OPO = bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0)
WELCH = bh.WelchConfig(segment_length=8192, overlap=0.5, window="hann")
FS = 10.0
TWO_PI = 2.0 * np.pi


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def grid_value(sd, w):
    i = np.argmin(np.abs(sd.omega_grid - w))
    assert abs(sd.omega_grid[i] - w) < 1e-12
    return sd.chi_normalized[i]


def test_criterion_1_narrow_offset_panel():
    with report(1, "near-carrier heterodyne reproduces full squeezing"):
        grid = bh.frequency_grid(3.0, 1001, include=(0.05,))
        sd = bh.opo_heterodyne_closed_form(THRESHOLD_OPO, 0.05, grid)
        assert grid_value(sd, 0.0) == pytest.approx(0.00249, abs=1e-5)

        start = time.perf_counter()
        cfg = bh.HeterodyneConfig(Omega=0.05)
        mc = bh.monte_carlo_heterodyne(THRESHOLD_OPO, cfg, FS, 400, WELCH,
                                       seed=2024)
        elapsed = time.perf_counter() - start
        assert mc.config_snapshot["n_segments"] >= 400
        center = int(np.argmin(np.abs(mc.omega_grid)))
        assert mc.chi_normalized[center] <= 0.05
        assert elapsed <= 30.0


def test_criterion_2_resolved_sideband_panel():
    with report(2, "resolved sidebands cap the reduction at 3 dB"):
        grid = bh.frequency_grid(8.0, 1001, include=(5.0,))
        sd = bh.opo_heterodyne_closed_form(THRESHOLD_OPO, 5.0, grid)
        i = np.argmin(sd.chi_normalized)
        w_min, chi_min = sd.omega_grid[i], sd.chi_normalized[i]
        assert chi_min == pytest.approx(0.49505, abs=1e-5)
        assert abs(abs(w_min) - 5.0) < 1e-12

        cfg = bh.HeterodyneConfig(Omega=5.0)
        mc = bh.monte_carlo_heterodyne(THRESHOLD_OPO, cfg, FS, 400, WELCH,
                                       seed=2025)
        resolution = TWO_PI * FS / WELCH.segment_length
        near_dip = ((np.abs(np.abs(mc.omega_grid) - 5.0) < 0.25)
                    & (np.abs(mc.omega_grid - 5.0) > resolution)
                    & (np.abs(mc.omega_grid + 5.0) > resolution))
        estimate = float(np.mean(mc.chi_normalized[near_dip]))
        assert estimate == pytest.approx(0.50, abs=0.03)


def test_criterion_3_homodyne_limit():
    with report(3, "zero-offset heterodyne equals homodyne"):
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        grid = bh.frequency_grid(3.0, 1001)
        assert len(grid) >= 1001
        hom = bh.homodyne_spectrum(spectra, 0.0, 1.0, grid)
        het = bh.heterodyne_spectrum(spectra, bh.HeterodyneConfig(Omega=0.0),
                                     1.0, grid)
        assert np.max(np.abs(het.chi_normalized - hom.chi_normalized)) <= 1e-12
        assert abs(grid_value(hom, 0.0)) <= 1e-12


def test_criterion_4_split_shift_identity():
    with report(4, "heterodyne is the half-sum of shifted homodyne spectra"):
        spectra = bh.opo_spectra(THRESHOLD_OPO)
        s = bh.quadrature_noise_spectrum(spectra, 0.0, 1.0)
        rng = np.random.default_rng(404)
        for _ in range(100):
            Omega = rng.uniform(0.01, 10.0)
            grid = np.sort(rng.uniform(-8.0, 8.0, size=rng.integers(16, 200)))
            sd = bh.heterodyne_spectrum(spectra, bh.HeterodyneConfig(Omega=Omega),
                                        1.0, grid)
            split = 0.5 * (s(grid + Omega) + s(grid - Omega))
            assert np.max(np.abs(sd.chi_normalized - split)) <= 1e-12


def test_criterion_5_expansion_cancellation_and_truncation():
    with report(5, "background terms cancel; truncation gap scales as 1/E"):
        rng = np.random.default_rng(505)
        for _ in range(50):
            state = random_state(rng)
            cfg = bh.HeterodyneConfig(Omega=rng.uniform(0.5, 5.0),
                                      phi1=rng.uniform(-np.pi, np.pi),
                                      phi2=rng.uniform(-np.pi, np.pi),
                                      amplitude=rng.uniform(2.0, 80.0))
            joint, product = strong_oscillator_background(
                state, cfg, rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0))
            assert abs(joint - product) <= 1e-10 * abs(joint)

        state = random_state(np.random.default_rng(506))
        amplitudes = np.array([1e2, 1e3, 1e4])
        gaps = []
        for amp in amplitudes:
            cfg = bh.HeterodyneConfig(Omega=2.1, phi1=0.3, phi2=-0.8,
                                      amplitude=float(amp))
            lam = bh.intensity_correlation(kernels(state), cfg, 0.31, 0.17)
            wick = wick_oracle(state, cfg, 0.31, 0.17)
            gaps.append(abs(wick - lam) / amp ** 2)
        slope = np.polyfit(np.log10(amplitudes), np.log10(gaps), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


def test_criterion_6_time_average_reduction():
    with report(6, "time averaging reduces to the stationary correlation"):
        rng = np.random.default_rng(606)
        for _ in range(10):
            k = kernels(random_state(rng))
            cfg = bh.HeterodyneConfig(Omega=rng.uniform(0.5, 4.0),
                                      phi1=rng.uniform(-np.pi, np.pi),
                                      phi2=rng.uniform(-np.pi, np.pi),
                                      amplitude=1.0)
            iota = 0.07
            periods = int(rng.integers(20, 80))  # at least ten beat periods
            closed = float(bh.lambda_prime(k, cfg, iota))
            mismatch = abs(bh.time_average_reduce(k, cfg, iota, periods) - closed)
            assert mismatch <= 1e-10 * max(abs(closed), 1e-9)

        k = kernels(random_state(np.random.default_rng(607)))
        cfg = bh.HeterodyneConfig(Omega=2.0, phi1=0.2, phi2=0.9, amplitude=1.0)
        counts = np.array([20, 64, 200, 640])
        periods = counts + 0.25
        closed = float(bh.lambda_prime(k, cfg, 0.13))
        mism = [abs(bh.time_average_reduce(k, cfg, 0.13, float(p)) - closed)
                for p in periods]
        slope = np.polyfit(np.log10(periods), np.log10(mism), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


def test_criterion_7_representation_equivalence():
    with report(7, "field-kernel and quadrature-kernel correlation forms agree"):
        rng = np.random.default_rng(707)
        for _ in range(60):
            state = random_state(rng)
            cfg = bh.HeterodyneConfig(Omega=rng.uniform(0.3, 5.0),
                                      phi1=rng.uniform(-np.pi, np.pi),
                                      phi2=rng.uniform(-np.pi, np.pi),
                                      amplitude=rng.uniform(0.5, 2.0))
            tau = rng.uniform(-4.0, 4.0, size=25)
            a = field_kernel_lambda_prime(state, cfg, tau)
            b = bh.lambda_prime(kernels(state), cfg, tau)
            scale = np.max(np.abs(a)) + 1e-30
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_criterion_8_phase_lock():
    with report(8, "modulation lock converges and its error line is calibrated"):
        mean = 1.0 + 0j
        state = coherent_state(mean)
        cfg = bh.HeterodyneConfig(Omega=TWO_PI * 1280.0, phi1=0.3, phi2=0.3,
                                  amplitude=0.1)
        lock = bh.LockConfig(cfg, Omega_prime=TWO_PI * 1152.0, theta=0.2)

        trajectory = bh.closed_loop_simulate(mean, lock)
        assert trajectory.locked
        assert abs(trajectory.phibar[-1]) < 1e-3

        residual = bh.bessel_truncation(0.2).residual
        assert residual < 1e-3
        proj = error_line_projection(state, lock,
                                     duration=0.25, samples=2 ** 15)
        pred = bh.error_line_prediction(mean, lock)
        assert abs(proj - pred) <= residual * abs(pred)

        vacuum_error = bh.error_signal(0j, lock,
                                       average_time=0.125)
        assert abs(vacuum_error) < 1e-12


def test_criterion_9_deterministic_artifacts(tmp_path):
    with report(9, "identical config and seed give byte-identical artifacts"):
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\nsegments = 48\nsegment_length = 1024\n")
        outs = (tmp_path / "r1", tmp_path / "r2")
        for out in outs:
            with redirect_stdout(io.StringIO()):
                code = cli_main(["montecarlo", "--config", str(conf),
                                 "--seed", "99", "--out", str(out)])
                assert code == 0
                code = cli_main(["figure3", "--config", str(conf),
                                 "--seed", "99", "--out", str(out)])
                assert code == 0
        for name in ("montecarlo.csv", "montecarlo_analytic.csv",
                     "figure3_a.csv", "figure3_b.csv", "figure3_c.csv",
                     "figure3_d.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name
