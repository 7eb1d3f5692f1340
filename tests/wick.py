"""Reference routes kept as test oracles, outside the library.

``wick_oracle`` expands the time-and-normal-ordered fourth moment of the
total field term by term, factorizing every Gaussian moment into means
and pair kernels, and retains all orders in the oscillator amplitude.
The library's ``intensity_correlation`` keeps only the terms quadratic in
the amplitude; the gap between the two is the dropped remainder, linear
in the amplitude, and shrinks as 1/amplitude relative to the kept terms.
Ordering is handled operationally: mixed pair correlators are always
evaluated with the conjugate (emission) operator on the left, which is
the arrangement the photodetection moments come in.

These oracles read a field through ``GaussianFieldState``: its mean
amplitude plus the complex kernels g11 = <da+(t) da(t+tau)> and
g20 = <da+(t) da+(t+tau)>.  The library's correlation functions take the
quadrature kernels instead, as ``QuadratureBranches``; ``kernels`` maps a
state to them.  ``four_kernels`` keeps k12 and k21 apart, and
``quadrature_correlations_to_gammas`` is its inverse, for round-trip
tests: only that round trip reads k12 - k21.  ``field_kernel_lambda_prime``
is the time-averaged correlation written in the field kernels, the oracle
for the library's ``lambda_prime``.

``quadrature_mean`` is the finite-difference reference for the library's
``quadrature_mean_slope``.  ``mean_photocurrent`` evaluates the full
photocurrent with phase-modulated oscillators, and ``error_line_projection``
projects it numerically onto the demodulation line: the lock oracle that
the sideband prediction ``error_line_prediction`` is checked against.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from balhet.field import HeterodyneConfig, QuadratureBranches
from balhet.locking import (TWO_PI, LockConfig, _folded_cis,
                            _lo_superposition_modulated)


@dataclass(frozen=True)
class GaussianFieldState:
    """Gaussian state of the detected mode: mean amplitude plus kernels.

    ``gamma11``/``gamma20`` are evaluable kernels of the time lag (seconds),
    complex-valued, in photons/s.  ``gamma11`` must satisfy
    ``gamma11(-tau) = conj(gamma11(tau))``; ``gamma20`` is even in tau for
    the source models used here.
    """

    mean_amplitude: complex
    gamma11: Callable
    gamma20: Callable


def coherent_state(mean_amplitude: complex) -> GaussianFieldState:
    """Coherent state: nonzero mean, vanishing normally-ordered kernels."""
    zero = lambda tau: np.zeros_like(np.asarray(tau, dtype=float)) + 0j
    return GaussianFieldState(complex(mean_amplitude), zero, zero)


class FourKernels(NamedTuple):
    """The quadrature kernels k11, k22, k12 and k21 of lag, in photons/s."""

    k11: Callable
    k22: Callable
    k12: Callable
    k21: Callable


def four_kernels(state: GaussianFieldState) -> FourKernels:
    """Convert the complex field kernels to the four quadrature kernels.

    Inverts the linear relations

        Re g11 = (k11 + k22)/4
        Im g11 = (k12 - k21)/4
        Re g20 = (k11 - k22)/4
        Im g20 = -(k12 + k21)/4
    """
    g11, g20 = state.gamma11, state.gamma20

    def k11(tau):
        return 2.0 * np.real(g11(tau)) + 2.0 * np.real(g20(tau))

    def k22(tau):
        return 2.0 * np.real(g11(tau)) - 2.0 * np.real(g20(tau))

    def k12(tau):
        return 2.0 * np.imag(g11(tau)) - 2.0 * np.imag(g20(tau))

    def k21(tau):
        return -2.0 * np.imag(g11(tau)) - 2.0 * np.imag(g20(tau))

    return FourKernels(k11=k11, k22=k22, k12=k12, k21=k21)


def kernels(state: GaussianFieldState) -> QuadratureBranches:
    """The branches the library reads: xx = k11, pp = k22, cross = k12 + k21."""
    k = four_kernels(state)
    return QuadratureBranches(xx=k.k11, pp=k.k22, cross=lambda tau: k.k12(tau) + k.k21(tau))


def field_kernel_lambda_prime(state: GaussianFieldState, cfg: HeterodyneConfig, tau):
    """Time-averaged correlation in the field kernels.

    lambda'(tau) = 2 E^2 cos(W tau) 2 Re[g11(tau) + g20(tau) e^{i(phi1+phi2)}]
    """
    tau = np.asarray(tau, dtype=float)
    phase = np.exp(1j * (cfg.phi1 + cfg.phi2))
    return (2.0 * cfg.amplitude ** 2 * np.cos(cfg.Omega * tau)
            * 2.0 * np.real(state.gamma11(tau) + state.gamma20(tau) * phase))


def _lo_superposition(cfg: HeterodyneConfig, t):
    """Rotating-frame local-oscillator sum E (e^{-iWt+i phi1} + e^{+iWt+i phi2})."""
    t = np.asarray(t, dtype=float)
    return cfg.amplitude * (np.exp(-1j * cfg.Omega * t + 1j * cfg.phi1)
                            + np.exp(1j * cfg.Omega * t + 1j * cfg.phi2))


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


def quadrature_correlations_to_gammas(kernels: FourKernels) -> GaussianFieldState:
    """Forward map from quadrature kernels back to the complex field kernels.

    Composing with ``four_kernels`` is the identity
    (up to rounding) in either direction.  The returned state carries zero
    mean amplitude.
    """
    def g11(tau):
        return ((kernels.k11(tau) + kernels.k22(tau)) / 4.0
                + 1j * (kernels.k12(tau) - kernels.k21(tau)) / 4.0)

    def g20(tau):
        return ((kernels.k11(tau) - kernels.k22(tau)) / 4.0
                - 1j * (kernels.k12(tau) + kernels.k21(tau)) / 4.0)

    return GaussianFieldState(0j, g11, g20)


def quadrature_mean(mean: complex, phibar: float) -> float:
    """Mean of the rotated quadrature X(phibar) = X cos(phibar) + P sin(phibar).

    With X = a + a+ and P its conjugate quadrature, the mean is
    2 Re<a> cos(phibar) + 2 Im<a> sin(phibar).
    """
    m = complex(mean)
    return 2.0 * (m.real * np.cos(phibar) + m.imag * np.sin(phibar))


def mean_photocurrent(state: GaussianFieldState, lock: LockConfig, t, eta: float = 1.0):
    """Mean photocurrent eta <I(t)> with phase-modulated oscillators.

    The full trigonometric form is evaluated (no sideband truncation), so
    the Bessel picture can be tested against it.
    """
    c = _lo_superposition_modulated(lock, t)
    return eta * (np.abs(c + state.mean_amplitude) ** 2 + np.real(state.gamma11(0.0)))


def error_line_projection(state: GaussianFieldState, lock: LockConfig, eta: float = 1.0,
                          duration: float = 1.0,
                          samples: int = 2 ** 16) -> complex:
    """Numeric Fourier coefficient of the photocurrent at +(Omega - Omega').

    ``duration`` should span a whole number of periods of every beat line
    (a multiple of the common period when the frequencies are
    commensurate) for the projection to isolate the line exactly.
    """
    t = np.arange(samples) * (duration / samples)
    j = mean_photocurrent(state, lock, t, eta)
    nu_cycles = (lock.heterodyne.Omega - lock.Omega_prime) / TWO_PI
    return complex(np.mean(j * _folded_cis(-nu_cycles, t)))
