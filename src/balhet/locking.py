"""Coherent-modulation phase locking for balanced heterodyne detection.

Both local oscillators pass through one phase modulator driven at
``Omega_prime`` with depth ``theta``, producing sidebands whose beats with
the detected mean field land at ``Omega - Omega_prime``.  Demodulating the
photocurrent there yields an error signal proportional to the derivative
of the measured quadrature mean with respect to ``phibar``, so a
proportional-integral loop can hold ``phibar`` at an extremum of the
heterodyne signal amplitude.

The demodulation line of the untruncated photocurrent is

    -2 eta E J1(theta) [d<X(phibar)>/dphibar] sin((Omega-Omega')t + dphi)

(``error_line_prediction``; the tests check it against a numeric Fourier
projection of the full photocurrent).  The mixer reference is chosen as
``-2 sin((Omega-Omega')t + demod_phase)`` so the low-passed error comes
out as ``+2 eta E J1(theta) [d<X>/dphibar] cos(demod_phase - dphi)``:
positive gains then restore ``phibar`` toward maxima of ``<X(phibar)>``.
Photocurrents are in units of the elementary charge.

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

from .errors import MAX_LENGTH, DemodClash, LockFailure
from .field import HeterodyneConfig, quadrature_mean_slope

TWO_PI = 2.0 * math.pi

# Retained power of the three-line sideband truncation must be this close
# to unity for the small-depth expansion to be trusted.
TRUNCATION_POWER_TOL = 0.05
# Lock-loop steps per block of vectorized, feedback-independent inputs: a
# multiple of every SIMD width, so each input rounds as in one full array.
_LOCK_BLOCK = 4096


@dataclass(frozen=True)
class LockConfig:
    """Oscillator geometry, modulation, demodulation, and loop-controller settings.

    ``lowpass_cutoff = None`` resolves to one tenth of the demodulation
    frequency.  ``disturbance`` is an optional phase-noise trajectory
    (rad as a function of time) added common-mode to both oscillator
    phases.  ``lock_tolerance`` declares when the loop counts as locked.
    Construction checks each field, then the rules that tie the
    modulation to the oscillators; ``bessel_truncation`` checks ``theta``.
    """

    heterodyne: HeterodyneConfig
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
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.dt <= self.duration <= self.dt * MAX_LENGTH:  # duration / dt loop steps
            raise ValueError(f"duration must be at least dt = {self.dt} and at most "
                             f"{MAX_LENGTH} dt, got {self.duration}")
        if self.lowpass_cutoff is not None and not 0 < self.lowpass_cutoff < math.inf:
            raise ValueError(f"lowpass_cutoff must lie in (0, inf), got {self.lowpass_cutoff}")
        if not 0 < self.lock_tolerance < math.inf:
            raise ValueError(f"lock_tolerance must lie in (0, inf), got {self.lock_tolerance}")
        Omega = self.heterodyne.Omega
        if not self.Omega_prime < Omega:
            raise ValueError("modulation frequency must lie below the heterodyne offset")
        max_dt = TWO_PI / 20.0 / Omega  # 20.0 * Omega would overflow near the float maximum
        if not self.dt < max_dt:
            raise ValueError(f"dt = {self.dt} too coarse; need dt < {max_dt}")
        power_defect = bessel_truncation(self.theta).residual
        if not power_defect < TRUNCATION_POWER_TOL:
            raise ValueError(
                f"modulation depth {self.theta} leaves {power_defect:.3f} of the "
                "sideband power outside the two-sideband picture"
            )
        nu = Omega - self.Omega_prime
        if not self.cutoff < nu:
            raise DemodClash(f"lowpass_cutoff: must lie below the demodulation "
                             f"frequency {nu}, got {self.cutoff}")

    @property
    def cutoff(self) -> float:
        if self.lowpass_cutoff is not None:
            return self.lowpass_cutoff
        return (self.heterodyne.Omega - self.Omega_prime) / 10.0


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
    """Closed-loop record: phase, error signal, and lock verdict.

    The loop's step ``dt`` fixes the time axis, so ``time`` is derived.
    """

    dt: float
    phibar: np.ndarray
    error_signal: np.ndarray
    locked: bool
    lock_time: float
    lock_point: float
    residual_rms: float

    @property
    def time(self) -> np.ndarray:
        return np.arange(len(self.phibar), dtype=float) * self.dt


def bessel_truncation(theta: float) -> BesselTruncation:
    """Evaluate J0, J1 and the power left out by the two-sideband truncation.

    J_n(theta) is the phase average of cos(theta sin(phase) - n phase), the
    n-th Fourier coefficient of exp(i theta sin(phase)) (Abramowitz &
    Stegun 9.1.21); the periodic trapezoid rule on the 4096-point grid
    converges to it exponentially.  For n = 1 the cos(theta sin(phase))
    cos(phase) half averages to zero by symmetry.
    """
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    phase = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    exact = np.exp(1j * theta * np.sin(phase))
    j0 = float(np.mean(exact.real))
    j1 = float(np.mean(exact.imag * np.sin(phase)))
    truncated = j0 + j1 * np.exp(1j * phase) - j1 * np.exp(-1j * phase)
    residual = float(np.mean(np.abs(exact - truncated) ** 2))
    return BesselTruncation(j0=j0, j1=j1, residual=residual)


def _folded_sin(freq_cycles, t, phase=0.0):
    cycles = freq_cycles * np.asarray(t, dtype=float)
    return np.sin(TWO_PI * (cycles - np.floor(cycles)) + phase)


def _folded_cis(freq_cycles, t, phase=0.0):
    cycles = freq_cycles * np.asarray(t, dtype=float)
    return np.exp(1j * (TWO_PI * (cycles - np.floor(cycles)) + phase))


def _lo_superposition_modulated(lock: LockConfig, t):
    """Rotating-frame oscillator sum with common phase modulation applied."""
    cfg = lock.heterodyne
    f_het = cfg.Omega / TWO_PI
    f_mod = lock.Omega_prime / TWO_PI
    modulation = lock.theta * _folded_sin(f_mod, t)
    lo1 = _folded_cis(-f_het, t, cfg.phi1) * np.exp(1j * modulation)
    lo2 = _folded_cis(f_het, t, cfg.phi2) * np.exp(1j * modulation)
    return cfg.amplitude * (lo1 + lo2)


def error_line_prediction(mean: complex, lock: LockConfig, eta: float = 1.0) -> complex:
    """Analytic Fourier coefficient of the photocurrent at +(Omega - Omega').

    The sideband expansion puts the demodulation line at

        -2 eta E J1(theta) [d<X(phibar)>/dphibar] sin(nu t + dphi),

    whose coefficient at exp(+i nu t) is returned.
    """
    cfg = lock.heterodyne
    j1 = bessel_truncation(lock.theta).j1
    slope = quadrature_mean_slope(mean, cfg.phibar)
    amp = -2.0 * eta * cfg.amplitude * j1 * slope
    return amp * np.exp(1j * cfg.dphi) / 2j


def _block_inputs(lock: LockConfig, mean_conj: complex, eta: float, t):
    """Zip one block's feedback-independent step inputs, each a list of floats.

    The arrays die on return, so the step loop holds only the lists.
    """
    nu = lock.heterodyne.Omega - lock.Omega_prime
    c0 = _lo_superposition_modulated(lock, t)
    base = eta * (np.abs(c0) ** 2 - 2.0 * lock.heterodyne.amplitude ** 2)  # zero-mean LO beat
    beat = mean_conj * c0
    ref = -2.0 * _folded_sin(nu / TWO_PI, t, lock.demod_phase)
    disturb = np.asarray((lock.disturbance or np.zeros_like)(t), float) * np.ones_like(t)
    return zip(base.tolist(), beat.real.tolist(), beat.imag.tolist(), ref.tolist(),
               disturb.tolist())


def _demodulate(mean: complex, lock: LockConfig, eta: float, n: int):
    """Mix, low-pass and PI-correct ``n`` steps of the phase lock.

    Per step: evaluate the mean photocurrent at the current common-mode
    actuator phase (plus any disturbance), strip its DC part, multiply by
    the reference ``-2 sin((Omega - Omega')t + demod_phase)``, low-pass,
    and apply the PI law; the actuator shifts both oscillator phases
    equally, moving phibar while leaving dphi untouched.  Zero gains give
    the open-loop error signal.  Returns ``(phibar, error)``.
    """
    # The feedback-independent pieces are vectorized one block at a time,
    # so the loop holds only its two returned arrays plus one block's input
    # and output lists.  The actuator and disturbance enter both oscillator
    # phases as a common factor exp(i psi), so the beat against the mean
    # field is b0 exp(i psi) and 2 Re(b0 exp(i psi)) = 2 (br cos psi - bi
    # sin psi), rounded as complex multiplication rounds it.
    mean_conj = eta * np.conj(complex(mean))
    alpha = 1.0 - math.exp(-lock.cutoff * lock.dt)
    dt, kp, ki, phibar0 = lock.dt, lock.kp, lock.ki, lock.heterodyne.phibar
    cos, sin = math.cos, math.sin

    phibar = np.empty(n)
    error = np.empty(n)
    u = 0.0
    integ = 0.0
    filt = 0.0
    for j in range(0, n, _LOCK_BLOCK):
        k = min(_LOCK_BLOCK, n - j)
        phibar_b = []
        error_b = []
        inputs = _block_inputs(lock, mean_conj, eta, np.arange(j, j + k) * dt)
        try:  # free per step; only cos and sin of an infinite phase raise in the loop
            for b, br, bi, r, d in inputs:
                psi = u + d
                j_ac = b + 2.0 * (br * cos(psi) - bi * sin(psi))
                filt += alpha * (j_ac * r - filt)
                integ += filt * dt
                u = kp * filt + ki * integ
                phibar_b.append(phibar0 + psi)
                error_b.append(filt)
        except ValueError:
            raise LockFailure("loop diverged: the actuator phase overflowed") from None
        del inputs  # a spent zip still holds four lists; the next block is built without them
        phibar[j:j + k] = phibar_b
        error[j:j + k] = error_b
    return phibar, error


def error_signal(mean: complex, lock: LockConfig, eta: float = 1.0, *,
                 average_time: float) -> float:
    """Demodulated DC error for the current oscillator phases.

    Runs the lock open loop (zero gains, no disturbance) and averages the
    low-passed error over ``average_time`` after a settling time of 30
    filter time constants.  Pass ``average_time`` as a multiple of the
    common beat period for exact rejection of every residual line.
    """
    if not 0 < average_time / lock.dt <= MAX_LENGTH:  # NaN fails too
        raise ValueError(f"average_time must be positive and at most {MAX_LENGTH} dt, "
                         f"got {average_time}")
    # long enough that the filter's startup transient is below rounding
    settle_steps = 30.0 / lock.cutoff / lock.dt
    n_avg = max(1, int(round(average_time / lock.dt)))
    if not settle_steps <= MAX_LENGTH - n_avg:  # inf fails too
        raise ValueError(f"lowpass_cutoff {lock.cutoff} needs more than {MAX_LENGTH} dt "
                         "of settling and averaging")
    n_settle = math.ceil(settle_steps)
    open_loop = replace(lock, kp=0.0, ki=0.0, disturbance=None)
    _, error = _demodulate(mean, open_loop, eta, n_settle + n_avg)
    return float(np.mean(error[n_settle:]))


def _wrap_angle(x):
    return (x + math.pi) % TWO_PI - math.pi


def closed_loop_simulate(mean: complex, lock: LockConfig,
                         eta: float = 1.0) -> LockTrajectory:
    """Run the discrete-time PI phase-locking loop for ``lock.duration``.

    ``mean`` is the detected field's mean amplitude ``<a>``, all that the
    lock reads of the field.

    Raises LockFailure (with the trajectory attached) when the loop has
    not settled onto a stable extremum of the quadrature mean within the
    configured duration, and without one when the actuator phase overflows.
    """
    n = int(round(lock.duration / lock.dt))
    phibar, error = _demodulate(mean, lock, eta, n)

    m = complex(mean)
    if m == 0:
        raise LockFailure(
            "zero-mean field produces no error signal; nothing to lock to",
            trajectory=LockTrajectory(lock.dt, phibar, error, False, math.nan,
                                      math.nan, float(np.std(phibar))),
        )

    # Stable lock points are the maxima of <X(phibar)>.  The verdict is
    # read one block at a time: the last step outside the tolerance (NaN
    # counts as outside) must precede the trailing tenth of the run.
    target = cmath.phase(m)
    last_out = -1
    for j in range(0, n, _LOCK_BLOCK):
        offset = _wrap_angle(phibar[j:j + _LOCK_BLOCK] - target)
        out = np.flatnonzero(~(np.abs(offset) < lock.lock_tolerance))
        if out.size:
            last_out = j + int(out[-1])
    tail = max(1, n // 10)
    locked = last_out < n - tail
    residual_rms = float(np.sqrt(np.mean(_wrap_angle(phibar[-tail:] - target) ** 2)))
    lock_time = (last_out + 1) * lock.dt if locked else math.nan
    trajectory = LockTrajectory(lock.dt, phibar, error, locked, lock_time,
                                target, residual_rms)
    if not locked:
        raise LockFailure(
            f"loop did not settle within {lock.duration} s "
            f"(trailing residual rms {residual_rms:.3e} rad)",
            trajectory=trajectory,
        )
    return trajectory
