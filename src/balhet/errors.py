"""Exception hierarchy and size limit for the balanced-heterodyne simulator."""

MAX_LENGTH = 2 ** 56  # longest array a config may ask for: 512 PiB of floats, inside numpy's range


class BalhetError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(BalhetError):
    """An experiment configuration failed validation (CLI exit code 2)."""


class ThresholdDivergence(BalhetError):
    """Anti-squeezed spectrum requested at its pole (pump at threshold, w=0)."""


class NonPhysicalSpectrum(BalhetError):
    """A power spectrum came out negative beyond numerical tolerance."""


class AliasRisk(BalhetError):
    """Modulation frequency too close to the sampling Nyquist band."""


class InsufficientData(BalhetError):
    """Not enough samples for the requested number of averaging segments."""


class InsufficientAveraging(BalhetError):
    """Averaging window too short compared to the modulation period."""


class DemodClash(BalhetError):
    """Demodulation frequency not separable from the low-pass band."""


class LockFailure(BalhetError):
    """Phase lock did not converge within the simulated duration.

    The partial trajectory is attached as the ``trajectory`` attribute.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
