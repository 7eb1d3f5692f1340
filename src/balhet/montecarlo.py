"""Stochastic verification path for the analytic noise spectra.

Quadrature fluctuations are sampled semiclassically: a real stationary
Gaussian series is synthesized whose two-sided PSD equals the
homodyne-normalized quadrature spectrum (unit shot-noise floor included),
the heterodyne beat multiplies it by ``sqrt(2) cos(Omega t + dphi)``, and
an averaged periodogram estimates the output PSD.  For Gaussian states
and quadrature measurements this reproduces the quantum spectra in
distribution, and the floor normalization makes the calibration
unambiguous: a unit-variance white input always estimates to PSD 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MAX_LENGTH, AliasRisk, InsufficientData, NonPhysicalSpectrum
from .field import HeterodyneConfig, OpoParams, opo_spectra
from .spectral import (HETERODYNE_FLOOR, HOMODYNE_FLOOR, SpectralDensity,
                       quadrature_noise_spectrum)

WINDOWS = ("hann", "rectangular")

# Negative PSD values beyond this are rejected rather than clipped.
_NEGATIVE_TOL = 1e-12

# The beat offset must stay below this fraction of the sampling rate.
ALIAS_FRACTION = 0.4
# Samples per carrier block in the beat, and per Welch rfft batch (segments x
# segment length) or synthesis PSD slice, so that one batch stays in cache.
_BEAT_BLOCK = 4096
_BATCH_SAMPLES = 2 ** 16


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real series in floor-normalized amplitude units."""

    sample_rate: float
    samples: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        check_rate(self.sample_rate)
        if len(self.samples) < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class WelchConfig:
    """Averaged-periodogram settings."""

    segment_length: int
    overlap: float
    window: str

    def __post_init__(self):
        if not 8 <= self.segment_length <= MAX_LENGTH:
            raise ValueError(f"segment_length must lie in [8, {MAX_LENGTH}], "
                             f"got {self.segment_length}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must lie in [0, 1), got {self.overlap}")
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}, got {self.window!r}")

    @property
    def step(self) -> int:
        return max(1, int(round(self.segment_length * (1.0 - self.overlap))))

    def total_samples(self, n_segments: int) -> int:
        """Series length that yields exactly ``n_segments`` segments."""
        most = 1 + (MAX_LENGTH - self.segment_length) // self.step  # at most MAX_LENGTH samples
        if not 1 <= n_segments <= most:
            raise InsufficientData(f"segments: must lie in [1, {most}], got {n_segments}")
        return self.segment_length + self.step * (n_segments - 1)


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT factors cheaply."""
    best = 1 << (n - 1).bit_length()  # the power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def check_rate(fs: float) -> None:
    """Refuse a sample rate unless it and pi * fs, the top of Welch's grid, are finite and > 0."""
    if not (fs > 0 and np.pi * float(fs) < np.inf):  # float() overflows without a warning
        raise ValueError(f"sample rate must be positive with a finite angular Nyquist "
                         f"frequency pi * fs, got {fs}")


def check_alias(Omega: float, fs: float) -> None:
    """Refuse a beat offset at or above ALIAS_FRACTION of the angular sampling rate."""
    limit = ALIAS_FRACTION * 2.0 * np.pi * fs
    if not Omega < limit:
        raise AliasRisk(f"beat offset {Omega} must lie below the alias limit {limit}")


# The last seeded synthesis, replaced whole as (key, samples), so a repeat
# request (figure3's four panels per seed) skips the transform.
_last = None


def _target_slices(psd, m: int, fs: float):
    """Yield (slice, PSD) over the m rfft bins, at 2 pi np.fft.rfftfreq(m, 1/fs) bit for bit."""
    df, bins = 1.0 / (m * (1.0 / fs)), m // 2 + 1
    for j in range(0, bins, _BATCH_SAMPLES):
        part = slice(j, min(j + _BATCH_SAMPLES, bins))
        yield part, psd(2.0 * np.pi * (np.arange(part.start, part.stop) * df))


def synthesize_quadrature(psd, n: int, fs: float, seed) -> TimeSeries:
    """Real Gaussian series with prescribed two-sided PSD.

    ``psd`` is evaluated pointwise, on one slice of the nonnegative FFT
    frequencies (rad/s) at a time; an even spectrum is assumed.
    Circularly-symmetric Gaussian Fourier coefficients are drawn with
    variance proportional to the PSD, Hermitian symmetry is imposed, and
    the inverse transform returns a real series whose averaged
    periodogram converges to ``psd``.  The series is synthesized at the
    next 5-smooth length and truncated to ``n``; a stationary circular
    series stays stationary when truncated.
    The returned samples are read-only: a repeat call with the same
    ``n``, ``fs``, integer seed and an equal ``psd`` returns the same array
    without evaluating ``psd``.  The spectra of ``quadrature_noise_spectrum``
    compare by value; other callables compare by identity, so a fresh one
    with equal values recomputes the same bytes.
    """
    global _last
    if n < 2:
        raise ValueError("need at least 2 samples")
    check_rate(fs)
    m = _fast_length(n)
    key = (n, fs, seed, psd) if isinstance(seed, (int, np.integer)) else None
    last = _last
    if key is not None and last is not None and last[0] == key:
        return TimeSeries(sample_rate=fs, samples=last[1], seed=seed)
    _last = last = None  # free the old series before allocating the new one
    # the PSD is sampled into the gain row; all real parts are drawn before all
    # imaginary parts into the draw row.  As two heap chunks, heap slack decided their trim.
    gain, draw = np.empty((2, m // 2 + 1))
    for part, v in _target_slices(psd, m, fs):
        gain[part] = v
    del v  # the last slice, left alive, would pin the top of the heap
    if not np.min(gain) >= -_NEGATIVE_TOL:
        raise NonPhysicalSpectrum(f"target PSD reaches {np.min(gain)} on the synthesis grid")
    if not float(np.max(gain)) * m < np.inf:  # sqrt(m s / 2) overflows; float() avoids a warning
        raise NonPhysicalSpectrum(f"target PSD reaches {np.max(gain)} on the synthesis grid, "
                                  f"too large for a {m}-point synthesis")
    np.clip(gain, 0.0, None, out=gain)
    s_dc, s_nyquist = gain[0], gain[-1]
    np.multiply(m, gain, out=gain)
    gain /= 2.0
    np.sqrt(gain, out=gain)
    rng = np.random.default_rng(seed)
    coef = np.empty(len(gain), dtype=complex)
    rng.standard_normal(out=draw)
    dc, nyquist = draw[0], draw[-1]
    np.multiply(gain, draw, out=coef.real)
    rng.standard_normal(out=draw)
    np.multiply(gain, draw, out=coef.imag)
    del gain, draw
    coef[0] = np.sqrt(m * s_dc) * dc  # DC bin is real
    if m % 2 == 0:
        coef[-1] = np.sqrt(m * s_nyquist) * nyquist  # Nyquist bin is real
    samples = np.fft.irfft(coef, m)[:n]
    del coef
    samples.flags.writeable = False
    if key is not None:
        _last = (key, samples)
    return TimeSeries(sample_rate=fs, samples=samples, seed=seed)


def _beat(x: TimeSeries, Omega: float, dphi: float):
    """The heterodyne beat of ``x`` as a function of a sample range [lo, hi).

    One carrier block is rotated to each block's directly computed start phase, so
    rounding does not accumulate and any range is that range of the whole beat.
    """
    if not (np.isfinite(Omega) and np.isfinite(dphi)):
        raise ValueError(f"Omega and dphi must be finite, got {Omega} and {dphi}")
    fs = x.sample_rate
    check_alias(Omega, fs)
    n = len(x.samples)
    b = min(_BEAT_BLOCK, n)
    arg = Omega * (np.arange(b) / fs)
    c, s = np.sqrt(2.0) * np.cos(arg), np.sqrt(2.0) * np.sin(arg)
    theta = Omega * (np.arange(0, n, b) / fs) + dphi
    ct, st = np.cos(theta), np.sin(theta)

    def beat(lo: int, hi: int) -> np.ndarray:
        j0, j1 = lo // b, -(-hi // b)  # the blocks that cover [lo, hi)
        y = (ct[j0:j1, None] * c - st[j0:j1, None] * s).ravel()[lo - j0 * b:hi - j0 * b]
        y *= x.samples[lo:hi]
        return y
    return beat


def synthesize_photocurrent(x: TimeSeries, Omega: float, dphi: float) -> TimeSeries:
    """Apply the heterodyne beat: y(t) = sqrt(2) cos(Omega t + dphi) x(t).

    The sqrt(2) gain makes the modulation floor-preserving: the time
    average of 2 cos^2 is 1, so a unit-floor input stays at unit floor.
    ``welch_psd(x, cfg, beat=(Omega, dphi))`` estimates this series without building it.
    """
    n, beat = len(x.samples), _beat(x, Omega, dphi)
    y = np.empty(n)
    for j in range(0, n, _BATCH_SAMPLES):  # one batch of blocks at a time
        y[j:j + _BATCH_SAMPLES] = beat(j, min(j + _BATCH_SAMPLES, n))
    return TimeSeries(sample_rate=x.sample_rate, samples=y, seed=x.seed)


def _window(cfg: WelchConfig) -> np.ndarray:
    m = cfg.segment_length
    if cfg.window == "hann":
        # periodic form, appropriate for spectral averaging
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / m)
    return np.ones(m)


def welch_psd(y: TimeSeries, cfg: WelchConfig,
              normalization: str = HETERODYNE_FLOOR, beat=None) -> SpectralDensity:
    """Two-sided averaged-periodogram PSD estimate.

    Normalized so a unit-variance white input estimates to 1 in every
    bin.  ``sigma`` is the per-bin standard error for a Gaussian series,
    ``psd sqrt((1 + 2 sum_j (1 - j/K) rho_j^2) / K)`` over K segments whose
    windows overlap with correlation rho_j at a lag of j steps (Percival &
    Walden 1993), times sqrt(2) at the DC and Nyquist bins, which have one
    chi-square degree of freedom instead of two.  A series holding NaN or
    inf is refused, since it would turn the whole estimate into NaN.
    ``beat=(Omega, dphi)`` estimates synthesize_photocurrent's series bit for bit, batch by batch.
    """
    source = (lambda lo, hi: y.samples[lo:hi]) if beat is None else _beat(y, *beat)
    if not np.isfinite(y.samples).all():
        raise ValueError("series has non-finite samples")
    n = len(y.samples)
    m, step = cfg.segment_length, cfg.step
    if n < m:
        raise InsufficientData(f"series of {n} samples shorter than one segment ({m})")
    n_segments = 1 + (n - m) // step
    win = _window(cfg)
    norm = m * float(np.mean(win ** 2))
    acc = np.zeros(m // 2 + 1)
    batch = max(1, _BATCH_SAMPLES // m)
    for k in range(0, n_segments, batch):  # take each batch's rows from its samples
        part = source(k * step, (min(k + batch, n_segments) - 1) * step + m)
        if beat is not None and not np.isfinite(part).all():
            raise ValueError("series has non-finite samples")  # the beat overflowed
        segments = np.lib.stride_tricks.sliding_window_view(part, m)[::step]
        # rows are added one at a time, in segment order, as a per-segment
        # loop would: the estimate does not depend on the batch size
        for row in np.abs(np.fft.rfft(win * segments)) ** 2:
            acc += row
    # a real series has an even periodogram: mirror the negative frequencies
    acc = np.concatenate((acc, acc[1:(m + 1) // 2][::-1]))
    psd = np.fft.fftshift(acc / (n_segments * norm))
    omega = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, d=1.0 / y.sample_rate))
    lags = np.arange(step, min(m, n_segments * step), step)
    rho = np.array([np.dot(win[:m - lag], win[lag:]) for lag in lags]) / norm
    var = (1.0 + 2.0 * np.sum((1.0 - lags / (step * n_segments)) * rho ** 2)) / n_segments
    one_dof = np.fft.fftshift(np.isin(np.arange(m), (0, m / 2)))  # DC, even-m Nyquist
    sigma = psd * np.sqrt(np.where(one_dof, 2.0 * var, var))
    meta = {"n_segments": n_segments, "segment_length": m,
            "overlap": cfg.overlap, "window": cfg.window,
            "sample_rate": y.sample_rate, "seed": y.seed}
    return SpectralDensity(omega, psd, normalization, meta, sigma=sigma)


def monte_carlo_homodyne(params: OpoParams, phibar: float, fs: float,
                         n_segments: int, welch: WelchConfig, seed) -> SpectralDensity:
    """Monte-Carlo homodyne spectrum: synthesize the quadrature, estimate its PSD."""
    s = quadrature_noise_spectrum(opo_spectra(params), phibar, params.eta)
    n = welch.total_samples(n_segments)
    x = synthesize_quadrature(s, n, fs, seed)
    return welch_psd(x, welch, normalization=HOMODYNE_FLOOR)


def monte_carlo_heterodyne(params: OpoParams, cfg: HeterodyneConfig, fs: float,
                           n_segments: int, welch: WelchConfig, seed) -> SpectralDensity:
    """Monte-Carlo heterodyne spectrum for the parametric-oscillator source.

    Pipeline: squeezing spectra -> homodyne-normalized quadrature PSD at
    the configured phibar -> time-series synthesis -> heterodyne beat ->
    averaged periodogram.  Output bins are directly comparable with the
    analytic heterodyne spectrum evaluated on the same grid.
    """
    check_alias(cfg.Omega, fs)
    s = quadrature_noise_spectrum(opo_spectra(params), cfg.phibar, params.eta)
    n = welch.total_samples(n_segments)
    x = synthesize_quadrature(s, n, fs, seed)
    out = welch_psd(x, welch, normalization=HETERODYNE_FLOOR, beat=(cfg.Omega, cfg.dphi))
    return replace(out, config_snapshot={
        **out.config_snapshot, "gamma": params.gamma, "epsilon": params.epsilon,
        "eta": params.eta, "Omega": cfg.Omega, "phibar": cfg.phibar, "dphi": cfg.dphi})
