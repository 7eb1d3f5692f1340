"""Intensity-fluctuation correlations of the balanced-heterodyne photocurrent.

Two independent evaluation routes are provided for the correlation
``lambda(t, iota)`` of the intensity fluctuations:

* ``intensity_correlation`` keeps only the terms quadratic in the
  oscillator amplitude (the strong-oscillator result actually used by the
  spectral engine);
* ``wick_oracle`` expands the time-and-normal-ordered fourth moment of
  the total field term by term, factorizing every Gaussian moment into
  means and pair kernels, and retains all orders in the oscillator
  amplitude.

The gap between the two routes is the dropped remainder, linear in the
oscillator amplitude, and shrinks as 1/amplitude relative to the kept
terms.  Ordering is handled operationally: mixed pair correlators are
always evaluated with the conjugate (emission) operator on the left,
which is the arrangement the photodetection moments come in.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientAveraging
from .field import GaussianFieldState, HeterodyneConfig, gammas_to_quadrature_correlations

# Samples per beat period used by the time-average quadrature.
_STEPS_PER_PERIOD = 50

# time_average_reduce needs a window of at least this many beat periods.
MIN_BEAT_PERIODS = 10


def _lo_superposition(cfg: HeterodyneConfig, t):
    """Rotating-frame local-oscillator sum E (e^{-iWt+i phi1} + e^{+iWt+i phi2})."""
    t = np.asarray(t, dtype=float)
    return cfg.amplitude * (np.exp(-1j * cfg.Omega * t + 1j * cfg.phi1)
                            + np.exp(1j * cfg.Omega * t + 1j * cfg.phi2))


def _quadrature_kernel(state: GaussianFieldState, cfg: HeterodyneConfig, iota):
    """Measured-quadrature kernel k(iota) = 2 Re[g11(iota) + g20(iota) e^{i(phi1+phi2)}]."""
    phase = np.exp(1j * (cfg.phi1 + cfg.phi2))
    return 2.0 * np.real(state.gamma11(iota) + state.gamma20(iota) * phase)


def intensity_correlation(state: GaussianFieldState, cfg: HeterodyneConfig,
                          t, iota):
    """Strong-oscillator intensity-fluctuation correlation lambda(t, iota).

    Keeps the terms quadratic in the oscillator amplitude E.  The
    oscillator sum is 2E e^{i(phi1+phi2)/2} cos(Wt + dphi), so those terms
    factorize through the one measured quadrature:

        lambda = 4 E^2 cos(Wt + dphi) cos(W(t+i) + dphi) k(i)
               = 2 E^2 k(i) [cos(W i) + cos(W(2t+i) + 2 dphi)]

    with the real kernel k of ``_quadrature_kernel``, evaluated once.
    """
    t = np.asarray(t, dtype=float)
    iota = np.asarray(iota, dtype=float)
    W = cfg.Omega
    beat = np.cos(W * iota) + np.cos(W * (2.0 * t + iota) + 2.0 * cfg.dphi)
    return 2.0 * cfg.amplitude ** 2 * _quadrature_kernel(state, cfg, iota) * beat


def _moments(state: GaussianFieldState, iota):
    """Pair kernels and means used by the ordered-moment expansions."""
    mp = complex(state.mean_amplitude)
    mm = np.conj(mp)
    g11_0 = complex(state.gamma11(0.0))
    g11_p = state.gamma11(iota)          # <d-(t) d+(t+i)>
    g11_m = state.gamma11(-np.asarray(iota, dtype=float))
    g20_p = state.gamma20(iota)          # <d-(t) d-(t+i)>
    g20_c = np.conj(g20_p)               # <d+(t+i) d+(t)>
    return mp, mm, g11_0, g11_p, g11_m, g20_p, g20_c


def _joint_moment_terms(state, cfg, t, iota):
    """The sixteen terms of the ordered second intensity moment.

    Term order follows the expansion of <T:: I(t) I(t+iota) ::> by powers
    of the oscillator field: the oscillator quartic, four cubic terms
    against single field means, then quadratic, linear and field-only
    terms, each Gaussian moment split into means plus pair kernels.
    """
    t = np.asarray(t, dtype=float)
    t2 = t + np.asarray(iota, dtype=float)
    c1, c2 = _lo_superposition(cfg, t), _lo_superposition(cfg, t2)
    cb1, cb2 = np.conj(c1), np.conj(c2)
    mp, mm, g11_0, g11_p, g11_m, g20_p, g20_c = _moments(state, iota)
    n0 = mm * mp + g11_0  # <E-(s) E+(s)>, any time

    return [
        cb1 * c1 * cb2 * c2,
        c1 * cb2 * c2 * mm,
        cb1 * cb2 * c2 * mp,
        cb1 * c1 * c2 * mm,
        cb1 * c1 * cb2 * mp,
        cb2 * c2 * n0,
        cb1 * c1 * n0,
        c1 * cb2 * (mm * mp + g11_p),
        cb1 * c2 * (mm * mp + g11_m),
        c1 * c2 * (mm * mm + g20_p),
        cb1 * cb2 * (mp * mp + g20_c),
        cb1 * (mm * mp * mp + mm * g20_c + mp * (g11_0 + g11_m)),
        c1 * (mm * mm * mp + mp * g20_p + mm * (g11_p + g11_0)),
        cb2 * (mm * mp * mp + mm * g20_c + mp * (g11_p + g11_0)),
        c2 * (mm * mm * mp + mp * g20_p + mm * (g11_0 + g11_m)),
        (mm * mm * mp * mp + mm * mm * g20_c + mp * mp * g20_p
         + mm * mp * (g11_p + g11_m + 2.0 * g11_0)
         + g20_p * g20_c + g11_p * g11_m + g11_0 * g11_0),
    ]


def _product_moment_terms(state, cfg, t, iota):
    """The sixteen terms of the product of mean intensities <I(t)><I(t+iota)>.

    Same ordering as ``_joint_moment_terms``; the first seven terms are
    identical between the two expansions and cancel in the difference.
    """
    t = np.asarray(t, dtype=float)
    t2 = t + np.asarray(iota, dtype=float)
    c1, c2 = _lo_superposition(cfg, t), _lo_superposition(cfg, t2)
    cb1, cb2 = np.conj(c1), np.conj(c2)
    mp, mm, g11_0, _, _, _, _ = _moments(state, iota)
    n0 = mm * mp + g11_0

    return [
        cb1 * c1 * cb2 * c2,
        c1 * cb2 * c2 * mm,
        cb1 * cb2 * c2 * mp,
        cb1 * c1 * c2 * mm,
        cb1 * c1 * cb2 * mp,
        cb2 * c2 * n0,
        cb1 * c1 * n0,
        c1 * cb2 * mm * mp,
        cb1 * c2 * mm * mp,
        c1 * c2 * mm * mm,
        cb1 * cb2 * mp * mp,
        cb1 * mp * n0,
        c1 * mm * n0,
        cb2 * mp * n0,
        c2 * mm * n0,
        n0 * n0,
    ]


def wick_oracle(state: GaussianFieldState, cfg: HeterodyneConfig, t, iota):
    """All-orders intensity-fluctuation correlation by moment factorization.

    Subtracts the term-by-term expansion of the product of mean
    intensities from that of the ordered second moment; no truncation in
    the oscillator amplitude is performed.  Imaginary residue (conjugate
    pairs cancel algebraically) is discarded after the subtraction.
    """
    joint = _joint_moment_terms(state, cfg, t, iota)
    product = _product_moment_terms(state, cfg, t, iota)
    total = sum(joint[7:]) - sum(product[7:])
    # The leading seven terms are algebraically identical; subtracting
    # them pairwise avoids losing the small difference to cancellation.
    for a, b in zip(joint[:7], product[:7]):
        total = total + (a - b)
    return np.real(total)


def strong_oscillator_background(state: GaussianFieldState, cfg: HeterodyneConfig,
                                 t, iota):
    """Sum of the seven leading terms of each intensity-moment expansion.

    These are the oscillator-dominated background terms that must cancel
    between the ordered moment and the mean-intensity product; returns the
    pair (joint, product) for direct comparison.
    """
    joint = _joint_moment_terms(state, cfg, t, iota)
    product = _product_moment_terms(state, cfg, t, iota)
    return sum(joint[:7]), sum(product[:7])


def lambda_prime(state: GaussianFieldState, cfg: HeterodyneConfig, tau):
    """Time-averaged intensity correlation, closed form.

    lambda'(tau) = 2 E^2 cos(W tau) { g11(tau) + g20(tau) e^{i(phi1+phi2)} + c.c. }
    """
    tau = np.asarray(tau, dtype=float)
    return (2.0 * cfg.amplitude ** 2 * np.cos(cfg.Omega * tau)
            * _quadrature_kernel(state, cfg, tau))


def lambda_prime_quadrature_form(state: GaussianFieldState,
                                 cfg: HeterodyneConfig, tau):
    """Time-averaged intensity correlation in the quadrature-kernel form.

    lambda'(tau) = E^2 cos(W tau) { k11 (1 + cos 2 phibar)
                                    + k22 (1 - cos 2 phibar)
                                    + (k12 + k21) sin 2 phibar }

    Equals ``lambda_prime`` identically; evaluating both exercises the
    kernel conversion end to end.
    """
    tau = np.asarray(tau, dtype=float)
    k = gammas_to_quadrature_correlations(state)
    c2p = np.cos(2.0 * cfg.phibar)
    s2p = np.sin(2.0 * cfg.phibar)
    combo = (k.k11(tau) * (1.0 + c2p) + k.k22(tau) * (1.0 - c2p)
             + (k.k12(tau) + k.k21(tau)) * s2p)
    return cfg.amplitude ** 2 * np.cos(cfg.Omega * tau) * combo


def check_averaging(Omega: float, averaging_periods: float, iota_max: float = 0.0) -> None:
    """Refuse averaging lambda(t, iota) over T = averaging_periods * pi / Omega.

    Omega must be positive, T must span ``MIN_BEAT_PERIODS`` beat periods,
    and Omega (2t + iota) must stay finite for t <= T, |iota| <= iota_max.
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


def time_average_reduce(state: GaussianFieldState, cfg: HeterodyneConfig,
                        iota: float, T: float) -> float:
    """Average lambda(t, iota) over t in [0, T]; ``lambda_prime`` is its limit.

    Uses a uniform composite trapezoid with at least ``_STEPS_PER_PERIOD``
    samples per beat period, which resolves the oscillating terms and
    integrates them to zero exactly when T is a whole number of
    half-periods.  ``check_averaging`` refuses the window first.
    """
    # a few ulps of slack (2**-50 = 4 eps): T = 20 pi / Omega is exactly ten beat periods
    check_averaging(cfg.Omega, float(T) * cfg.Omega / np.pi * (1.0 + 2.0 ** -50), iota)
    period = 2.0 * np.pi / cfg.Omega
    n = int(np.ceil(T / (period / _STEPS_PER_PERIOD)))
    t = np.linspace(0.0, T, n + 1)
    values = intensity_correlation(state, cfg, t, iota)
    return float(np.trapezoid(values, t) / T)

