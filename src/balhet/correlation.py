"""Intensity-fluctuation correlations of the balanced-heterodyne photocurrent.

The correlation ``lambda(t, iota)`` of the intensity fluctuations keeps
only the terms quadratic in the oscillator amplitude (the strong-oscillator
result the spectral engine uses).  Every function here takes the source's
kernels as ``QuadratureBranches`` of lag and evaluates the correlation through
the one real kernel of the measured quadrature, ``measured_quadrature``'s mix.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_LENGTH, InsufficientAveraging
from .field import HeterodyneConfig, QuadratureBranches, measured_quadrature

# Samples per beat period used by the time-average quadrature.
_STEPS_PER_PERIOD = 50

# time_average_reduce needs a window of at least this many beat periods.
MIN_BEAT_PERIODS = 10


def intensity_correlation(kernels: QuadratureBranches, cfg: HeterodyneConfig,
                          t, iota):
    """Strong-oscillator intensity-fluctuation correlation lambda(t, iota).

    Keeps the terms quadratic in the oscillator amplitude E.  The
    oscillator sum is 2E e^{i(phi1+phi2)/2} cos(Wt + dphi), so those terms
    factorize through the one measured quadrature:

        lambda = 4 E^2 cos(Wt + dphi) cos(W(t+i) + dphi) k(i)
               = 2 E^2 k(i) [cos(W i) + cos(W(2t+i) + 2 dphi)]

    with the real kernel k of ``measured_quadrature`` at phibar, evaluated once.
    """
    t = np.asarray(t, dtype=float)
    iota = np.asarray(iota, dtype=float)
    W = cfg.Omega
    beat = np.cos(W * iota) + np.cos(W * (2.0 * t + iota) + 2.0 * cfg.dphi)
    return 2.0 * cfg.amplitude ** 2 * measured_quadrature(kernels, cfg.phibar)(iota) * beat


def lambda_prime(kernels: QuadratureBranches, cfg: HeterodyneConfig, tau):
    """Time-averaged intensity correlation, closed form.

    lambda'(tau) = 2 E^2 cos(W tau) {xx cos^2 phibar + pp sin^2 phibar
                                     + cross sin phibar cos phibar}
    """
    tau = np.asarray(tau, dtype=float)
    return (2.0 * cfg.amplitude ** 2 * np.cos(cfg.Omega * tau)
            * measured_quadrature(kernels, cfg.phibar)(tau))


def lambda_prime_quadrature_form(kernels: QuadratureBranches,
                                 cfg: HeterodyneConfig, tau):
    """Time-averaged intensity correlation in the double-angle form.

    lambda'(tau) = E^2 cos(W tau) { xx (1 + cos 2 phibar)
                                    + pp (1 - cos 2 phibar)
                                    + cross sin 2 phibar }

    Equals ``lambda_prime`` identically; it evaluates every branch, so
    comparing the two checks the measured-quadrature mix.
    """
    tau = np.asarray(tau, dtype=float)
    c2p = np.cos(2.0 * cfg.phibar)
    s2p = np.sin(2.0 * cfg.phibar)
    combo = (kernels.xx(tau) * (1.0 + c2p) + kernels.pp(tau) * (1.0 - c2p)
             + kernels.cross(tau) * s2p)
    return cfg.amplitude ** 2 * np.cos(cfg.Omega * tau) * combo


def check_averaging(Omega: float, averaging_periods: float, iota_max: float) -> None:
    """Refuse averaging lambda(t, iota) over T = averaging_periods * pi / Omega.

    Omega must be positive, T must span ``MIN_BEAT_PERIODS`` beat periods in at most
    ``MAX_LENGTH`` samples and Omega (2t + iota) stay finite for t <= T, |iota| <= iota_max.
    """
    if not Omega > 0:
        raise ValueError(f"omega must be positive for time averaging, got {Omega}")
    if not averaging_periods >= 2 * MIN_BEAT_PERIODS:
        raise InsufficientAveraging(f"averaging_periods = T Omega / pi must be at least "
                                    f"{2 * MIN_BEAT_PERIODS}, got {averaging_periods}")
    reach = 2.0 * (float(averaging_periods) * np.pi / float(Omega) + abs(float(iota_max)))
    if not float(Omega) * reach < np.inf:  # Python floats overflow to inf without a warning
        raise InsufficientAveraging(f"averaging window plus iota_max ({reach / 2}) "
                                    f"overflows the beat phase at omega = {Omega}")
    most = 2 * MAX_LENGTH // _STEPS_PER_PERIOD  # time_average_reduce's samples stay in MAX_LENGTH
    if not averaging_periods <= most:
        raise InsufficientAveraging(f"averaging_periods must be <= {most}, got {averaging_periods}")


def time_average_reduce(kernels: QuadratureBranches, cfg: HeterodyneConfig,
                        iota: float, averaging_periods: float) -> float:
    """Average lambda(t, iota) over t in [0, T]; ``lambda_prime`` is its limit.

    T = averaging_periods * pi / Omega.  Uses a uniform composite trapezoid with at
    least ``_STEPS_PER_PERIOD`` samples per beat period, which resolves the oscillating
    terms and integrates them to zero exactly when ``averaging_periods`` is a whole
    number.  ``check_averaging`` refuses the window first, on averaging_periods as given.
    """
    check_averaging(cfg.Omega, averaging_periods, iota)
    T = averaging_periods * np.pi / cfg.Omega
    period = 2.0 * np.pi / cfg.Omega
    n = int(np.ceil(T / (period / _STEPS_PER_PERIOD)))
    t = np.linspace(0.0, T, n + 1)
    values = intensity_correlation(kernels, cfg, t, iota)
    return float(np.trapezoid(values, t) / T)

