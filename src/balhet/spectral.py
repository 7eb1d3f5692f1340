"""Analytic spectral densities of the photocurrent fluctuations.

All public results are floor-normalized: the heterodyne spectrum is
divided by ``2 eta E^2 |K(w)|^2`` and the homodyne spectrum by
``eta E^2 |K(w)|^2``, so the shot-noise level is 1 in either convention
and the detector response drops out of every plotted quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MAX_LENGTH, NonPhysicalSpectrum
from .field import (HeterodyneConfig, OpoParams, QuadratureBranches, measured_quadrature,
                    opo_spectra)

# Frequency bins more negative than this are treated as a physicality
# violation of the input spectra rather than rounding noise.
PHYSICALITY_TOL = 1e-9

HETERODYNE_FLOOR = "heterodyne_floor"
HOMODYNE_FLOOR = "homodyne_floor"


@dataclass(frozen=True)
class SpectralDensity:
    """Floor-normalized photocurrent noise spectrum on a frequency grid.

    ``normalization`` records which floor convention divided out the
    absolute scale; ``config_snapshot`` the parameters that produced the
    curve.  ``sigma`` optionally carries per-bin statistical error bars
    (Monte-Carlo estimates only).
    """

    omega_grid: np.ndarray
    chi_normalized: np.ndarray
    normalization: str
    config_snapshot: dict
    sigma: np.ndarray | None = None


def check_grid(omega_max: float, points: int) -> None:
    """Refuse a grid that ``frequency_grid`` cannot build, before allocating it."""
    if not (0 < omega_max and 2.0 * omega_max < np.inf):  # linspace overflows the span
        raise ValueError(f"omega_max must be positive with 2 * omega_max finite, got {omega_max}")
    if not 3 <= points <= MAX_LENGTH:
        raise ValueError(f"points must lie in [3, {MAX_LENGTH}], got {points}")


def frequency_grid(omega_max: float, points: int, include=()) -> np.ndarray:
    """Symmetric two-sided grid on [-omega_max, omega_max].

    Any frequencies in ``include`` (and their negatives) are inserted
    exactly; the extrema of split heterodyne spectra sit at +/-Omega, so
    grids for those curves should include the offset.
    """
    check_grid(omega_max, points)
    grid = np.linspace(-omega_max, omega_max, int(points))
    extra = []
    for w in include:
        for s in (w, -w):
            if abs(s) <= omega_max:
                extra.append(s)
    if extra:
        grid = np.unique(np.concatenate([grid, np.asarray(extra, dtype=float)]))
    return grid


def _check_physical(chi: np.ndarray) -> None:
    low, high = float(np.min(chi)), float(np.max(chi))
    if not (low >= -PHYSICALITY_TOL and high < np.inf):
        raise NonPhysicalSpectrum(
            f"normalized spectrum spans [{low}, {high}], outside "
            f"[-{PHYSICALITY_TOL}, inf); input quadrature spectra are inconsistent"
        )


def quadrature_noise_spectrum(spectra: QuadratureBranches, phibar: float, eta: float):
    """Homodyne-normalized noise spectrum of the measured quadrature.

    Returns the evaluable function

        S(w) = 1 + eta [xx cos^2(phibar) + pp sin^2(phibar)
                        + cross sin(phibar) cos(phibar)](w).

    This is ``measured_quadrature`` with floor 1 and gain eta, so a branch
    of zero weight is never evaluated.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return measured_quadrature(spectra, phibar, floor=1.0, gain=eta)


def heterodyne_spectrum(spectra: QuadratureBranches, cfg: HeterodyneConfig,
                        eta: float, omega_grid) -> SpectralDensity:
    """Floor-normalized heterodyne noise spectrum on a grid.

    chi(w) = 1 + (eta/4) [phi11(w+W) + phi11(w-W)] (1 + cos 2 phibar)
               + (eta/4) [phi22(w+W) + phi22(w-W)] (1 - cos 2 phibar)
               + (eta/4) [(phi12+phi21)(w+W) + (phi12+phi21)(w-W)] sin 2 phibar

    with W the heterodyne offset.  Equivalently, the half-sum of the
    homodyne-normalized quadrature spectrum shifted by +/-W.
    """
    omega = np.asarray(omega_grid, dtype=float)
    s = quadrature_noise_spectrum(spectra, cfg.phibar, eta)
    chi = 0.5 * (s(omega + cfg.Omega) + s(omega - cfg.Omega))
    _check_physical(chi)
    snapshot = {"Omega": cfg.Omega, "phibar": cfg.phibar, "dphi": cfg.dphi,
                "amplitude": cfg.amplitude, "eta": eta}
    return SpectralDensity(omega, chi, HETERODYNE_FLOOR, snapshot)


def homodyne_spectrum(spectra: QuadratureBranches, phibar: float, eta: float,
                      omega_grid) -> SpectralDensity:
    """Floor-normalized homodyne noise spectrum; the Omega -> 0 heterodyne limit."""
    omega = np.asarray(omega_grid, dtype=float)
    chi = quadrature_noise_spectrum(spectra, phibar, eta)(omega)
    _check_physical(chi)
    snapshot = {"phibar": phibar, "eta": eta}
    return SpectralDensity(omega, chi, HOMODYNE_FLOOR, snapshot)


def opo_heterodyne_closed_form(params: OpoParams, Omega: float,
                               omega_grid) -> SpectralDensity:
    """Heterodyne spectrum of the parametric-oscillator source at phibar = 0.

    The amplitude-quadrature lock of the paper's figure 3: the engine's
    half-sum of ``opo_spectra`` shifted by +/-Omega, which is a pair of
    squeezing Lorentzians split by the heterodyne offset.
    """
    sd = heterodyne_spectrum(opo_spectra(params), HeterodyneConfig(Omega=Omega),
                             params.eta, omega_grid)
    return replace(sd, config_snapshot={**sd.config_snapshot, "gamma": params.gamma,
                                        "epsilon": params.epsilon})
