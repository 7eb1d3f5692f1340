"""balhet: balanced-heterodyne detection of squeezed optical signals.

Analytic photocurrent noise spectra for dual-local-oscillator detection,
an independent stochastic verification engine, and a simulation of the
coherent-modulation phase lock that holds the measured quadrature.
"""

__version__ = "0.1.0"

from .errors import (AliasRisk, BalhetError, ConfigInvalid, DemodClash,
                     InsufficientAveraging, InsufficientData, LockFailure,
                     NonPhysicalSpectrum, ThresholdDivergence)
from .field import (HeterodyneConfig, OpoParams, QuadratureBranches,
                    opo_field_state, opo_spectra, quadrature_mean_slope)
from .spectral import (SpectralDensity, frequency_grid,
                       heterodyne_spectrum, homodyne_spectrum,
                       opo_heterodyne_closed_form, quadrature_noise_spectrum)
from .correlation import (intensity_correlation, lambda_prime,
                          lambda_prime_quadrature_form, time_average_reduce)
from .montecarlo import (TimeSeries, WelchConfig, monte_carlo_heterodyne,
                         monte_carlo_homodyne, synthesize_photocurrent,
                         synthesize_quadrature, welch_psd)
from .locking import (BesselTruncation, LockConfig, LockTrajectory,
                      bessel_truncation, closed_loop_simulate,
                      error_line_prediction, error_signal)

__all__ = [name for name in dir() if not name.startswith("_")]
