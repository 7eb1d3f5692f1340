"""Field model for dual-local-oscillator (balanced heterodyne) detection.

Conventions used throughout the package:

* The optical carrier is factored out everywhere (rotating frame).  A
  detected mode is described by its mean amplitude ``<a>`` plus the
  stationary Gaussian fluctuation kernels

      g11(tau) = <da+(t) da(t+tau)>     (phase-insensitive, Hermitian)
      g20(tau) = <da+(t) da+(t+tau)>    (phase-sensitive, even in tau)

  in photon-flux units.  ``da`` denotes the zero-mean fluctuation part of
  the mode operator, ``da+`` its conjugate.
* Spectra are two-sided in angular frequency and use the transform
  ``integral dtau f(tau) exp(+i w tau)``.
* Every phase is measured from the source's squeezing axis, where
  ``g20`` is real and negative.  ``phibar = (phi1 + phi2)/2`` selects the
  measured quadrature and ``dphi = (phi2 - phi1)/2`` sets the beat phase
  of the heterodyne signal.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Callable

import numpy as np

from .errors import ThresholdDivergence


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold parametric-oscillator squeezing source.

    Parameters
    ----------
    gamma:
        Cavity damping rate, rad/s.
    epsilon:
        Effective pump rate, rad/s.  ``epsilon = gamma/2`` is the
        oscillation threshold; values above it are rejected.
    eta:
        Detector quantum-efficiency parameter, in (0, 1].
    """

    gamma: float
    epsilon: float
    eta: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.epsilon <= self.gamma / 2.0:
            raise ValueError(
                f"epsilon must lie in [0, gamma/2] = [0, {self.gamma / 2.0}], "
                f"got {self.epsilon}"
            )
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class HeterodyneConfig:
    """Dual local-oscillator geometry.

    The oscillators sit at ``+/- Omega`` from the optical carrier with
    global phases ``phi1``/``phi2`` and common amplitude ``amplitude`` in
    sqrt(photons/s).  Every field after ``Omega`` is keyword-only.

    ``Omega = 0`` is accepted so the homodyne limit can be driven through
    the same configuration type; operations that genuinely need a beat
    note check for a positive offset themselves.
    """

    Omega: float
    _: KW_ONLY
    phi1: float = 0.0
    phi2: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.Omega < np.inf:
            raise ValueError(f"Omega must lie in [0, inf), got {self.Omega}")
        # float products, so an oversized amplitude gives inf here, not OverflowError
        if not (0.0 < self.amplitude and 4.0 * self.amplitude * self.amplitude < np.inf):
            raise ValueError(f"amplitude must be positive with a finite oscillator power "
                             f"4 * amplitude**2, got {self.amplitude}")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValueError(f"phi1 and phi2 must be finite, got {self.phi1} and {self.phi2}")

    @property
    def phibar(self) -> float:
        """Quadrature-selection phase (phi1 + phi2)/2."""
        return (self.phi1 + self.phi2) / 2.0

    @property
    def dphi(self) -> float:
        """Oscillator phase difference (phi2 - phi1)/2."""
        return (self.phi2 - self.phi1) / 2.0


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


@dataclass(frozen=True)
class QuadratureSpectra:
    """Two-sided squeezing spectra of the quadrature fluctuations.

    Each field is an evaluable function of angular frequency (rad/s),
    real-valued, normalized so that ``1 + eta * phi`` is the corresponding
    floor-normalized homodyne noise level.
    """

    phi11: Callable
    phi22: Callable
    phi12_plus_phi21: Callable


@dataclass(frozen=True)
class QuadratureKernels:
    """Real correlation kernels of the two quadrature operators.

    ``k11``/``k22`` are the auto-correlations of the amplitude and phase
    quadratures, ``k12``/``k21`` the cross terms, all functions of lag.
    """

    k11: Callable
    k22: Callable
    k12: Callable
    k21: Callable


def quadrature_mean_slope(state: GaussianFieldState, phibar: float) -> float:
    """Derivative with respect to phibar of the rotated quadrature's mean.

    With X = a + a+ and P its conjugate quadrature, X(phibar) = X cos(phibar)
    + P sin(phibar) has mean 2 Re<a> cos(phibar) + 2 Im<a> sin(phibar).
    """
    m = complex(state.mean_amplitude)
    return 2.0 * (-m.real * np.sin(phibar) + m.imag * np.cos(phibar))


def opo_spectra(params: OpoParams) -> QuadratureSpectra:
    """Squeezing spectra of the below-threshold parametric oscillator.

    The squeezed branch is the Lorentzian

        phi11(w) = -(2/eta) eps gamma / ((gamma/2 + eps)^2 + w^2)

    and the anti-squeezed branch carries the conjugate pole,

        phi22(w) = +(2/eta) eps gamma / ((gamma/2 - eps)^2 + w^2),

    which is the unique minimum-uncertainty partner:
    (1 + eta phi11)(1 + eta phi22) = 1 at every frequency.  The cross
    spectrum vanishes for this source.  At threshold (eps = gamma/2) the
    anti-squeezed branch diverges at w = 0 and its evaluation there raises
    ThresholdDivergence.
    """
    gamma, eps, eta = params.gamma, params.epsilon, params.eta
    kp = gamma / 2.0 + eps
    km = gamma / 2.0 - eps

    def phi11(w):
        w = np.asarray(w, dtype=float)
        return -(2.0 / eta) * eps * gamma / (kp * kp + w * w)

    def phi22(w):
        w = np.asarray(w, dtype=float)
        if km == 0.0 and np.any(w == 0.0):
            raise ThresholdDivergence(
                "anti-squeezed spectrum diverges at w = 0 for a pump at threshold"
            )
        return (2.0 / eta) * eps * gamma / (km * km + w * w)

    def cross(w):
        return np.zeros_like(np.asarray(w, dtype=float))

    return QuadratureSpectra(phi11=phi11, phi22=phi22, phi12_plus_phi21=cross)


def opo_field_state(params: OpoParams) -> GaussianFieldState:
    """Time-domain kernels of the parametric-oscillator output.

    Inverse transforms of the Lorentzian spectra:

        g11(tau) = (eps gamma / 4 eta) [exp(-km|tau|)/km - exp(-kp|tau|)/kp]
        g20(tau) = -(eps gamma / 4 eta) [exp(-km|tau|)/km + exp(-kp|tau|)/kp]

    with kp = gamma/2 + eps and km = gamma/2 - eps.  Requires a pump
    strictly below threshold (km > 0); at threshold the anti-squeezed
    kernel has no stationary limit.  A km so small that 1/km overflows
    is refused the same way.
    """
    gamma, eps, eta = params.gamma, params.epsilon, params.eta
    kp = gamma / 2.0 + eps
    km = gamma / 2.0 - eps
    if km <= 0.0:
        raise ThresholdDivergence(
            "time-domain kernels require a pump strictly below threshold"
        )
    if not 1.0 / km < np.inf:
        raise ThresholdDivergence(
            f"gamma = {gamma} and epsilon = {eps} give a kernel decay rate "
            f"gamma/2 - epsilon = {km} whose inverse overflows"
        )
    scale = eps * gamma / (4.0 * eta)

    def g11(tau):
        at = np.abs(np.asarray(tau, dtype=float))
        return scale * (np.exp(-km * at) / km - np.exp(-kp * at) / kp) + 0j

    def g20(tau):
        at = np.abs(np.asarray(tau, dtype=float))
        return -scale * (np.exp(-km * at) / km + np.exp(-kp * at) / kp) + 0j

    return GaussianFieldState(0j, g11, g20)


def gammas_to_quadrature_correlations(state: GaussianFieldState) -> QuadratureKernels:
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

    return QuadratureKernels(k11=k11, k22=k22, k12=k12, k21=k21)
