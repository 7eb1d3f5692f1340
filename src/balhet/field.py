"""Field model for dual-local-oscillator (balanced heterodyne) detection.

Conventions used throughout the package:

* The optical carrier is factored out everywhere (rotating frame).  A
  detected mode is described by its mean amplitude ``<a>`` plus the
  stationary Gaussian correlation kernels of its two quadratures,
  X = da + da+ and P = -i (da - da+),

      k11(tau) = <:X(t) X(t+tau):>     k22(tau) = <:P(t) P(t+tau):>
      k12(tau) = <:X(t) P(t+tau):>     k21(tau) = <:P(t) X(t+tau):>

  in photon-flux units, normally ordered; ``da`` is the zero-mean
  fluctuation part of the mode operator and ``da+`` its conjugate.
  ``QuadratureBranches`` keeps xx = k11, pp = k22 and cross = k12 + k21:
  the measured quadrature X cos + P sin weighs k12 and k21 alike, so no
  observable reads their difference.
* Spectra are two-sided in angular frequency and use the transform
  ``integral dtau f(tau) exp(+i w tau)``.
* Every phase is measured from the source's squeezing axis, where ``k11``
  is the squeezed and ``k22`` the anti-squeezed kernel.  ``phibar =
  (phi1 + phi2)/2`` selects the measured quadrature X cos(phibar) +
  P sin(phibar) and ``dphi = (phi2 - phi1)/2`` sets the heterodyne beat phase.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable

import numpy as np

from .errors import ThresholdDivergence

MAX_PHASE = 2 ** 20  # rad; the float spacing there is 2.3e-10 rad


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
        if not (0.0 < self.gamma / 2.0 and self.gamma < np.inf):  # 5e-324 / 2 is 0
            raise ValueError(f"gamma must be finite with gamma/2 > 0, got {self.gamma}")
        if not 0.0 <= self.epsilon <= self.gamma / 2.0:
            raise ValueError(
                f"epsilon must lie in [0, gamma/2] = [0, {self.gamma / 2.0}], "
                f"got {self.epsilon}"
            )
        if not (0.0 < self.eta <= 1.0 and 2.0 / self.eta < np.inf):
            raise ValueError(f"eta must lie in (0, 1] with 2/eta finite, got {self.eta}")


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
        if not (abs(self.phi1) <= MAX_PHASE and abs(self.phi2) <= MAX_PHASE):
            raise ValueError(f"phi1 and phi2 must lie in [-{MAX_PHASE}, {MAX_PHASE}] rad, "
                             f"got {self.phi1} and {self.phi2}")

    @property
    def phibar(self) -> float:
        """Quadrature-selection phase (phi1 + phi2)/2."""
        return (self.phi1 + self.phi2) / 2.0

    @property
    def dphi(self) -> float:
        """Oscillator phase difference (phi2 - phi1)/2."""
        return (self.phi2 - self.phi1) / 2.0


@dataclass(frozen=True)
class QuadratureBranches:
    """A source's quadrature fluctuations, as spectra or as kernels.

    ``xx``/``pp`` are the X and P auto-terms, ``cross`` the symmetrized cross
    term; each is real and evaluable.  The spectra phi11, phi22, phi12 + phi21
    take angular frequency (rad/s), normalized so that ``1 + eta * phi`` is the
    floor-normalized homodyne noise level; the kernels k11, k22, k12 + k21 take
    lag (s), in photons/s.  ``opo_spectra`` and ``opo_field_state`` give the
    parametric oscillator's.
    """

    xx: Callable
    pp: Callable
    cross: Callable


def quadrature_mean_slope(mean: complex, phibar: float) -> float:
    """Derivative with respect to phibar of the rotated quadrature's mean.

    With X = a + a+ and P its conjugate quadrature, X(phibar) = X cos(phibar)
    + P sin(phibar) has mean 2 Re<a> cos(phibar) + 2 Im<a> sin(phibar).
    """
    m = complex(mean)
    return 2.0 * (-m.real * np.sin(phibar) + m.imag * np.cos(phibar))


def _zero(x):
    """A branch that vanishes at every frequency or lag."""
    return np.zeros_like(np.asarray(x, dtype=float))


def measured_quadrature(branches: QuadratureBranches, phibar: float,
                        *, floor: float = 0.0, gain: float = 1.0) -> Callable:
    """The function floor + gain [xx cos^2 + pp sin^2 + cross sin cos](phibar).

    A branch of zero weight is never evaluated, so the anti-squeezed branch
    of a source at threshold does not poison an amplitude-quadrature
    measurement.  A cosine or sine within half the float spacing at phibar
    of zero counts as zero: phibar is then the float nearest a zero of it,
    so ``phibar = pi/2`` measures P.  The result equals another built from
    equal branches, weights and floor.
    """
    half_ulp = np.spacing(abs(phibar)) / 2.0
    c, s = (0.0 if abs(v) <= half_ulp else v for v in (np.cos(phibar), np.sin(phibar)))
    return _Mixed(float(floor), tuple((gain * w, f) for w, f in (
        (c ** 2, branches.xx), (s ** 2, branches.pp), (s * c, branches.cross)) if w != 0.0))


@dataclass(frozen=True)
class _Mixed:
    """floor + the sum of weight * branch over ``terms``, compared by value; summed
    from the floor up, one branch at a time, so every spectrum keeps its rounding."""

    floor: float
    terms: tuple

    def __call__(self, x):
        total = np.full(np.shape(x), self.floor)
        for w, f in self.terms:
            total = total + w * f(x)
        return total


@dataclass(frozen=True)
class _Lorentzian:
    """The branch scale / (rate^2 + w^2) of angular frequency w, compared by value."""

    scale: float
    rate: float

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        if self.rate == 0.0 and np.any(w == 0.0):
            raise ThresholdDivergence(
                "anti-squeezed spectrum diverges at w = 0 for a pump at threshold")
        return self.scale / (self.rate * self.rate + w * w)


def opo_spectra(params: OpoParams) -> QuadratureBranches:
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
    if eps == 0.0:  # the vacuum's flat floor, also where gamma**2 underflows
        return QuadratureBranches(_zero, _zero, _zero)
    return QuadratureBranches(xx=_Lorentzian(-(2.0 / eta) * eps * gamma, gamma / 2.0 + eps),
                              pp=_Lorentzian((2.0 / eta) * eps * gamma, gamma / 2.0 - eps),
                              cross=_zero)


def opo_field_state(params: OpoParams) -> QuadratureBranches:
    """Time-domain quadrature kernels of the parametric-oscillator output.

    Inverse transforms of the Lorentzian spectra of ``opo_spectra``:

        k11(tau) = -(eps gamma / eta) exp(-kp|tau|)/kp
        k22(tau) = +(eps gamma / eta) exp(-km|tau|)/km

    with kp = gamma/2 + eps and km = gamma/2 - eps; the cross kernels
    vanish.  The output has zero mean.  Requires a pump strictly below
    threshold (km > 0); at threshold the anti-squeezed kernel has no
    stationary limit.  A km so small that 1/km overflows is refused the
    same way.
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
    scale = eps * gamma / eta

    def k11(tau):
        return -scale * np.exp(-kp * np.abs(np.asarray(tau, dtype=float))) / kp

    def k22(tau):
        return scale * np.exp(-km * np.abs(np.asarray(tau, dtype=float))) / km

    return QuadratureBranches(xx=k11, pp=k22, cross=_zero)
