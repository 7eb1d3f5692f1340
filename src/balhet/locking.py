"""Coherent-modulation phase locking for balanced heterodyne detection.

Both local oscillators pass through one phase modulator driven at
``Omega_prime`` with depth ``theta``, producing sidebands whose beats with
the detected mean field land at ``Omega - Omega_prime``.  Demodulating the
photocurrent there yields an error signal proportional to the derivative
of the measured quadrature mean with respect to ``phibar``, so a
proportional-integral loop can hold ``phibar`` at an extremum of the
heterodyne signal amplitude.

The demodulation line of the untruncated photocurrent is

    -2 eta q E J1(theta) [d<X(phibar)>/dphibar] sin((Omega-Omega')t + dphi)

(verified against the numeric Fourier projection; see
``error_line_prediction``).  The mixer reference is chosen as
``-2 sin((Omega-Omega')t + demod_phase)`` so the low-passed error comes
out as ``+2 eta q E J1(theta) [d<X>/dphibar] cos(demod_phase - dphi)``:
positive gains then restore ``phibar`` toward maxima of ``<X(phibar)>``.

Oscillator phases are evaluated by cycle folding, ``sin(2 pi frac(f t))``,
which keeps coherent demodulation over thousands of beat periods accurate
to machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DemodClash, LockFailure
from .field import DetectorModel, GaussianFieldState, HeterodyneConfig, quadrature_mean_slope

TWO_PI = 2.0 * math.pi

# Retained power of the three-line sideband truncation must be this close
# to unity for the small-depth expansion to be trusted.
TRUNCATION_POWER_TOL = 0.05
# Lock-loop steps per block of vectorized, feedback-independent inputs: a
# multiple of every SIMD width, so each input rounds as in one full array.
_LOCK_BLOCK = 4096


@dataclass(frozen=True)
class LockConfig:
    """Modulation, demodulation, and loop-controller settings.

    ``lowpass_cutoff = None`` resolves to one tenth of the demodulation
    frequency.  ``disturbance`` is an optional phase-noise trajectory
    (rad as a function of time) added common-mode to both oscillator
    phases.  ``lock_tolerance`` declares when the loop counts as locked.
    """

    Omega_prime: float
    theta: float = 0.2
    demod_phase: float = 0.0
    lowpass_cutoff: float | None = None
    kp: float = 0.0
    ki: float = 1000.0
    dt: float = 2.0 ** -15
    duration: float = 0.5
    disturbance: Callable | None = None
    lock_tolerance: float = 1e-3

    def __post_init__(self):
        if not self.Omega_prime > 0:
            raise ValueError(f"Omega_prime must be positive, got {self.Omega_prime}")
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.duration >= self.dt:
            raise ValueError(f"duration must be at least dt = {self.dt}, "
                             f"got {self.duration}")

    def cutoff(self, cfg: HeterodyneConfig) -> float:
        if self.lowpass_cutoff is not None:
            return self.lowpass_cutoff
        return (cfg.Omega - self.Omega_prime) / 10.0


@dataclass(frozen=True)
class BesselTruncation:
    """Zero- and first-order Bessel values with the truncation residual.

    ``residual`` is the mean squared error, over one modulation period, of
    approximating the modulation phasor by its carrier and first-order
    sidebands; it grows like theta^4 for small depth.
    """

    j0: float
    j1: float
    residual: float


@dataclass(frozen=True)
class LockTrajectory:
    """Closed-loop record: phase, error signal, and lock verdict."""

    time: np.ndarray
    phibar: np.ndarray
    error_signal: np.ndarray
    locked: bool
    lock_time: float
    lock_point: float
    residual_rms: float


def _bessel_series(order: int, x: float) -> float:
    """Bessel function of integer order by its ascending power series."""
    if order < 0:
        raise ValueError("order must be >= 0")
    half = 0.5 * x
    term = half ** order / math.factorial(order)
    total = term
    for k in range(1, 256):
        term *= -(half * half) / (k * (k + order))
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def bessel_truncation(theta: float) -> BesselTruncation:
    """Evaluate J0, J1 and the power left out by the two-sideband truncation."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    j0 = _bessel_series(0, theta)
    j1 = _bessel_series(1, theta)
    phase = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    exact = np.exp(1j * theta * np.sin(phase))
    truncated = j0 + j1 * np.exp(1j * phase) - j1 * np.exp(-1j * phase)
    residual = float(np.mean(np.abs(exact - truncated) ** 2))
    return BesselTruncation(j0=j0, j1=j1, residual=residual)


def validate_lock(cfg: HeterodyneConfig, lock: LockConfig) -> None:
    """Check the joint invariants of the oscillator and lock settings."""
    if not lock.Omega_prime < cfg.Omega:
        raise ValueError("modulation frequency must lie below the heterodyne offset")
    if not lock.dt < TWO_PI / (20.0 * cfg.Omega):
        raise ValueError(
            f"dt = {lock.dt} too coarse; need dt < {TWO_PI / (20 * cfg.Omega)}"
        )
    # The residual is the left-out power plus the series' own error, so an
    # inaccurate series (theta beyond ~30) or one that overflows is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        power_defect = bessel_truncation(lock.theta).residual
    if not power_defect < TRUNCATION_POWER_TOL:
        raise ValueError(
            f"modulation depth {lock.theta} leaves {power_defect:.3f} of the "
            "sideband power outside the two-sideband picture"
        )


def _folded_sin(freq_cycles, t, phase=0.0):
    cycles = freq_cycles * np.asarray(t, dtype=float)
    return np.sin(TWO_PI * (cycles - np.floor(cycles)) + phase)


def _folded_cis(freq_cycles, t, phase=0.0):
    cycles = freq_cycles * np.asarray(t, dtype=float)
    return np.exp(1j * (TWO_PI * (cycles - np.floor(cycles)) + phase))


def _lo_superposition_modulated(cfg: HeterodyneConfig, lock: LockConfig, t):
    """Rotating-frame oscillator sum with common phase modulation applied."""
    f_het = cfg.Omega / TWO_PI
    f_mod = lock.Omega_prime / TWO_PI
    modulation = lock.theta * _folded_sin(f_mod, t)
    lo1 = _folded_cis(-f_het, t, cfg.phi1) * np.exp(1j * modulation)
    lo2 = _folded_cis(f_het, t, cfg.phi2) * np.exp(1j * modulation)
    return cfg.amplitude * (lo1 + lo2)


def mean_photocurrent(state: GaussianFieldState, cfg: HeterodyneConfig,
                      lock: LockConfig, det: DetectorModel, t,
                      eta: float = 1.0):
    """Mean photocurrent eta q <I(t)> with phase-modulated oscillators.

    The full trigonometric form is evaluated (no sideband truncation), so
    the Bessel picture can be tested against it.  Assumes the
    photoelectron pulse is short against the beat period, so the pulse
    integrates to its charge.
    """
    c = _lo_superposition_modulated(cfg, lock, t)
    mean_i = (np.abs(c + state.mean_amplitude) ** 2
              + float(np.real(state.gamma11(0.0))))
    return eta * det.charge * mean_i


def error_line_prediction(state: GaussianFieldState, cfg: HeterodyneConfig,
                          lock: LockConfig, det: DetectorModel,
                          eta: float = 1.0) -> complex:
    """Analytic Fourier coefficient of the photocurrent at +(Omega - Omega').

    The sideband expansion puts the demodulation line at

        -2 eta q E J1(theta) [d<X(phibar)>/dphibar] sin(nu t + dphi),

    whose coefficient at exp(+i nu t) is returned.
    """
    validate_lock(cfg, lock)
    j1 = _bessel_series(1, lock.theta)
    slope = quadrature_mean_slope(state, cfg.phibar)
    amp = -2.0 * eta * det.charge * cfg.amplitude * j1 * slope
    return amp * np.exp(1j * cfg.dphi) / 2j


def error_line_projection(state: GaussianFieldState, cfg: HeterodyneConfig,
                          lock: LockConfig, det: DetectorModel,
                          eta: float = 1.0, duration: float = 1.0,
                          samples: int = 2 ** 16) -> complex:
    """Numeric Fourier coefficient of the photocurrent at +(Omega - Omega').

    ``duration`` should span a whole number of periods of every beat line
    (a multiple of the common period when the frequencies are
    commensurate) for the projection to isolate the line exactly.
    """
    t = np.arange(samples) * (duration / samples)
    j = mean_photocurrent(state, cfg, lock, det, t, eta)
    nu_cycles = (cfg.Omega - lock.Omega_prime) / TWO_PI
    return complex(np.mean(j * _folded_cis(-nu_cycles, t)))


def _demodulate(state: GaussianFieldState, cfg: HeterodyneConfig,
                lock: LockConfig, det: DetectorModel, eta: float, n: int):
    """Mix, low-pass and PI-correct ``n`` steps of the phase lock.

    Per step: evaluate the mean photocurrent at the current common-mode
    actuator phase (plus any disturbance), strip its DC part, multiply by
    the reference ``-2 sin((Omega - Omega')t + demod_phase)``, low-pass,
    and apply the PI law; the actuator shifts both oscillator phases
    equally, moving phibar while leaving dphi untouched.  Zero gains give
    the open-loop error signal.  Returns ``(t, phibar, error)``.
    """
    validate_lock(cfg, lock)
    nu = cfg.Omega - lock.Omega_prime
    cutoff = lock.cutoff(cfg)
    if nu <= cutoff:
        raise DemodClash(
            f"demodulation frequency {nu} inside the low-pass band ({cutoff})"
        )

    # The feedback-independent pieces are vectorized one block at a time,
    # so the loop holds only its three returned arrays plus one block.  The
    # actuator and disturbance enter both oscillator phases as a common
    # factor exp(i psi), so the beat against the mean field is b0 exp(i psi)
    # and 2 Re(b0 exp(i psi)) = 2 (br cos psi - bi sin psi), rounded as
    # complex multiplication rounds it.
    qe = eta * det.charge
    mean_conj = qe * np.conj(complex(state.mean_amplitude))
    alpha = 1.0 - math.exp(-cutoff * lock.dt)
    dt, kp, ki, phibar0 = lock.dt, lock.kp, lock.ki, cfg.phibar
    cos, sin = math.cos, math.sin

    phibar = np.empty(n)
    error = np.empty(n)
    u = 0.0
    integ = 0.0
    filt = 0.0
    for j in range(0, n, _LOCK_BLOCK):
        k = min(_LOCK_BLOCK, n - j)
        t = np.arange(j, j + k) * dt
        c0 = _lo_superposition_modulated(cfg, lock, t)
        base = qe * (np.abs(c0) ** 2 - 2.0 * cfg.amplitude ** 2)  # zero-mean LO beat
        beat = mean_conj * c0
        ref = -2.0 * _folded_sin(nu / TWO_PI, t, lock.demod_phase)
        if lock.disturbance is not None:
            disturb = np.asarray(lock.disturbance(t), dtype=float) * np.ones_like(t)
        else:
            disturb = np.zeros_like(t)
        phibar_b = []
        error_b = []
        for b, br, bi, r, d in zip(base.tolist(), beat.real.tolist(),
                                   beat.imag.tolist(), ref.tolist(),
                                   disturb.tolist()):
            psi = u + d
            j_ac = b + 2.0 * (br * cos(psi) - bi * sin(psi))
            filt += alpha * (j_ac * r - filt)
            integ += filt * dt
            u = kp * filt + ki * integ
            phibar_b.append(phibar0 + psi)
            error_b.append(filt)
        phibar[j:j + k] = phibar_b
        error[j:j + k] = error_b
    return np.arange(n) * dt, phibar, error


def error_signal(state: GaussianFieldState, cfg: HeterodyneConfig,
                 lock: LockConfig, det: DetectorModel, eta: float = 1.0,
                 average_time: float | None = None) -> float:
    """Demodulated DC error for the current oscillator phases.

    Runs the lock open loop (zero gains, no disturbance) and averages the
    low-passed error after a settling time of 30 filter time constants.
    The averaging window is rounded to whole periods of the demodulation
    frequency; pass ``average_time`` as a multiple of the common beat
    period for exact rejection of every residual line.
    """
    validate_lock(cfg, lock)
    nu_period = TWO_PI / (cfg.Omega - lock.Omega_prime)
    # long enough that the filter's startup transient is below rounding
    settle_time = 30.0 / lock.cutoff(cfg)
    if average_time is None:
        average_time = max(32.0 * nu_period,
                           nu_period * math.floor((lock.duration - settle_time)
                                                  / nu_period))
    n_avg = max(1, int(round(average_time / lock.dt)))
    n_settle = int(math.ceil(settle_time / lock.dt))
    open_loop = replace(lock, kp=0.0, ki=0.0, disturbance=None)
    _, _, error = _demodulate(state, cfg, open_loop, det, eta, n_settle + n_avg)
    return float(np.mean(error[n_settle:]))


def _wrap_angle(x):
    return (x + math.pi) % TWO_PI - math.pi


def closed_loop_simulate(state: GaussianFieldState, cfg: HeterodyneConfig,
                         lock: LockConfig, det: DetectorModel,
                         eta: float = 1.0) -> LockTrajectory:
    """Run the discrete-time PI phase-locking loop for ``lock.duration``.

    Raises LockFailure (with the trajectory attached) when the loop has
    not settled onto a stable extremum of the quadrature mean within the
    configured duration.
    """
    n = int(round(lock.duration / lock.dt))
    t, phibar, error = _demodulate(state, cfg, lock, det, eta, n)

    m = complex(state.mean_amplitude)
    if m == 0:
        raise LockFailure(
            "zero-mean field produces no error signal; nothing to lock to",
            trajectory=LockTrajectory(t, phibar, error, False, math.nan,
                                      math.nan, float(np.std(phibar))),
        )

    # Stable lock points are the maxima of <X(phibar)>.
    target = math.remainder(cmath.phase(m * cmath.exp(-1j * state.beta)), TWO_PI)
    offset = _wrap_angle(phibar - target)
    within = np.abs(offset) < lock.lock_tolerance
    tail = max(1, n // 10)
    locked = bool(np.all(within[-tail:]))
    residual_rms = float(np.sqrt(np.mean(offset[-tail:] ** 2)))
    if locked:
        ever_out = np.nonzero(~within)[0]
        first = 0 if len(ever_out) == 0 else int(ever_out[-1]) + 1
        lock_time = float(t[first]) if first < n else float(t[-1])
    else:
        lock_time = math.nan
    trajectory = LockTrajectory(t, phibar, error, locked, lock_time,
                                target, residual_rms)
    if not locked:
        raise LockFailure(
            f"loop did not settle within {lock.duration} s "
            f"(trailing residual rms {residual_rms:.3e} rad)",
            trajectory=trajectory,
        )
    return trajectory
