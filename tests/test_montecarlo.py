"""Stochastic engine: synthesis, modulation, PSD estimation, oracle agreement."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balhet as bh
from balhet import montecarlo
from balhet.cli import main
from balhet.errors import AliasRisk, InsufficientData, NonPhysicalSpectrum

WHITE = lambda w: np.ones_like(np.asarray(w, dtype=float))


def tiny_welch(segment=256, overlap=0.5, window="hann"):
    return bh.WelchConfig(segment_length=segment, overlap=overlap, window=window)


class TestSynthesis:
    def test_deterministic_per_seed(self):
        a = bh.synthesize_quadrature(WHITE, 4096, 4.0, seed=9)
        b = bh.synthesize_quadrature(WHITE, 4096, 4.0, seed=9)
        c = bh.synthesize_quadrature(WHITE, 4096, 4.0, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_white_variance(self):
        x = bh.synthesize_quadrature(WHITE, 2 ** 18, 4.0, seed=1)
        assert np.var(x.samples) == pytest.approx(1.0, abs=0.02)

    def test_negative_target_rejected(self):
        with pytest.raises(NonPhysicalSpectrum):
            bh.synthesize_quadrature(lambda w: -0.1 + 0.0 * np.asarray(w),
                                     1024, 4.0, seed=0)

    def test_nan_target_rejected(self):
        with pytest.raises(NonPhysicalSpectrum):
            bh.synthesize_quadrature(lambda w: np.nan + 0.0 * np.asarray(w),
                                     1024, 4.0, seed=0)

    @pytest.mark.parametrize("fs", [np.inf, np.nan, 0.0, -4.0])
    def test_bad_sample_rate_refused(self, fs):
        def untouched(w):
            raise AssertionError("PSD evaluated before the sample rate was checked")

        with pytest.raises(ValueError, match="fs must be positive and finite"):
            bh.synthesize_quadrature(untouched, 1024, fs, seed=0)

    @pytest.mark.parametrize("fs", [np.inf, np.nan, 0.0])
    def test_series_refuses_bad_sample_rate(self, fs):
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            bh.TimeSeries(sample_rate=fs, samples=np.zeros(8))

    def test_zero_touching_target_accepted(self):
        # squeezed floor touches zero exactly at threshold; must synthesize
        params = bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0)
        s = bh.quadrature_noise_spectrum(bh.opo_spectra(params), 0.0, 1.0)
        x = bh.synthesize_quadrature(s, 8192, 4.0, seed=2)
        assert np.all(np.isfinite(x.samples))


@pytest.fixture
def irfft_calls(monkeypatch):
    """Counts the inverse transforms, i.e. the syntheses the memo did not skip."""
    calls = []
    irfft = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(args[1])
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    monkeypatch.setattr(montecarlo, "_last", None)
    return calls


class TestSynthesisLength:
    def test_fast_length_matches_scipy(self):
        from scipy.fft import next_fast_len
        for n in [*range(2, 5000), 1_642_496]:
            assert montecarlo._fast_length(n) == next_fast_len(n, real=True)

    @pytest.mark.parametrize("n", [1001, 4099, 4000], ids=["odd", "prime", "smooth"])
    def test_returns_exactly_n(self, irfft_calls, n):
        x = bh.synthesize_quadrature(WHITE, n, 4.0, seed=12)
        assert len(x.samples) == n
        assert irfft_calls == [montecarlo._fast_length(n)]


# the final synthesis bin of n = 1000 samples at fs = 4 (rad/s)
NYQUIST_1000_4 = 2.0 * np.pi * np.fft.rfftfreq(montecarlo._fast_length(1000), 1 / 4.0)[-1]


class TestSynthesisMemo:
    BASE = dict(psd=WHITE, n=1000, fs=4.0, seed=3)

    def test_repeat_call_hits(self, irfft_calls):
        a = bh.synthesize_quadrature(**self.BASE)
        b = bh.synthesize_quadrature(**{**self.BASE, "seed": np.int64(3)})
        assert len(irfft_calls) == 1
        assert not b.samples.flags.writeable
        assert b.samples.tobytes() == a.samples.tobytes()

    @pytest.mark.parametrize("change", [
        {"seed": 4},
        {"n": 999},  # same 5-smooth synthesis length as n = 1000
        {"fs": 2.0},  # same samples of the white PSD
        {"psd": lambda w: np.where(np.asarray(w) == 0.0, np.nextafter(1.0, 2.0), 1.0)},
        {"psd": lambda w: np.where(np.asarray(w) == NYQUIST_1000_4, np.nextafter(1.0, 2.0), 1.0)},
    ], ids=["seed", "n", "fs", "psd", "psd_final_bin"])
    def test_any_change_misses(self, irfft_calls, change):
        bh.synthesize_quadrature(**self.BASE)
        bh.synthesize_quadrature(**{**self.BASE, **change})
        bh.synthesize_quadrature(**self.BASE)  # one entry: evicted by the change
        assert len(irfft_calls) == 3

    def test_repeat_below_tolerance_refused_as_cold(self, irfft_calls, monkeypatch):
        # clipped, the dip equals the stored zero; it must still be refused,
        # with the message of a call that finds no memo
        touch = lambda w: np.where(np.asarray(w) == 2.0 * np.pi, 0.0, 1.0)
        dip = lambda w: np.where(np.asarray(w) == 2.0 * np.pi, -1e-6, 1.0)
        bh.synthesize_quadrature(**{**self.BASE, "psd": touch})
        with pytest.raises(NonPhysicalSpectrum) as warm:
            bh.synthesize_quadrature(**{**self.BASE, "psd": dip})
        monkeypatch.setattr(montecarlo, "_last", None)
        with pytest.raises(NonPhysicalSpectrum) as cold:
            bh.synthesize_quadrature(**{**self.BASE, "psd": dip})
        assert str(warm.value) == str(cold.value)
        assert str(cold.value) == "target PSD reaches -1e-06 on the synthesis grid"
        assert len(irfft_calls) == 1

    def test_unseeded_never_memoized(self, irfft_calls):
        a = bh.synthesize_quadrature(**{**self.BASE, "seed": None})
        b = bh.synthesize_quadrature(**{**self.BASE, "seed": None})
        assert not np.array_equal(a.samples, b.samples)
        rng = np.random.default_rng(5)
        c = bh.synthesize_quadrature(**{**self.BASE, "seed": rng})
        d = bh.synthesize_quadrature(**{**self.BASE, "seed": rng})
        assert not np.array_equal(c.samples, d.samples)
        assert len(irfft_calls) == 4

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.05, 5.0), pump=st.floats(0.0, 0.49), eta=st.floats(0.01, 1.0),
           phibar=st.floats(-4.0, 4.0), seed=st.integers(0, 2 ** 32))
    def test_hit_from_separate_spectra_equals_cold(self, gamma, pump, eta, phibar, seed):
        # the spectrum is built twice from separately constructed parameters;
        # the second call hits on the equal spectrum and returns the cold bytes
        def target():
            params = bh.OpoParams(gamma=gamma, epsilon=pump * gamma, eta=eta)
            return bh.quadrature_noise_spectrum(bh.opo_spectra(params), phibar, eta)

        first = bh.synthesize_quadrature(target(), 1000, 4.0, seed)
        hit = bh.synthesize_quadrature(target(), 1000, 4.0, seed)
        assert hit.samples is first.samples
        montecarlo._last = None
        cold = bh.synthesize_quadrature(target(), 1000, 4.0, seed)
        assert cold.samples is not hit.samples
        assert cold.samples.tobytes() == hit.samples.tobytes()

    def test_memo_changes_no_figure3_output(self, tmp_path, monkeypatch, irfft_calls):
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\noverlay_seeds = 2\nsegments = 24\n"
                        "segment_length = 1024\n")
        assert main(["figure3", "--config", str(conf),
                     "--out", str(tmp_path / "memo")]) == 0
        assert len(irfft_calls) == 2  # one synthesis per seed for four panels
        synthesize = montecarlo.synthesize_quadrature

        def cold(*args, **kwargs):
            montecarlo._last = None
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "synthesize_quadrature", cold)
        assert main(["figure3", "--config", str(conf),
                     "--out", str(tmp_path / "cold")]) == 0
        assert len(irfft_calls) == 2 + 8
        for name in ("figure3_a.csv", "figure3_d.csv", "figure3.svg"):
            assert ((tmp_path / "memo" / name).read_bytes()
                    == (tmp_path / "cold" / name).read_bytes())


OPO_TARGET = bh.quadrature_noise_spectrum(
    bh.opo_spectra(bh.OpoParams(gamma=1.0, epsilon=0.4, eta=0.9)), 0.3, 0.9)


def whole_grid_synthesis(psd, n, fs, seed):
    """The synthesis with the PSD evaluated on the whole grid in one pass."""
    m = montecarlo._fast_length(n)
    s = np.asarray(psd(2.0 * np.pi * np.fft.rfftfreq(m, d=1.0 / fs)), dtype=float)
    s = np.clip(s, 0.0, None)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(len(s))
    im = rng.standard_normal(len(s))
    coef = np.sqrt(m * s / 2.0) * (re + 1j * im)
    coef[0] = np.sqrt(m * s[0]) * re[0]
    if m % 2 == 0:
        coef[-1] = np.sqrt(m * s[-1]) * re[-1]
    return np.fft.irfft(coef, m)[:n]


class TestSynthesisSlices:
    """The target PSD is evaluated one cache-sized slice of bins at a time."""

    BLOCK = montecarlo._BATCH_SAMPLES
    FS = 10.0

    # 2,501 bins (below one slice) and 150,001 bins (a partial third slice)
    @pytest.mark.parametrize("n", [5000, 300_000], ids=["one_slice", "partial_slice"])
    def test_matches_whole_grid(self, irfft_calls, n):
        lengths = []

        def psd(w):
            lengths.append(len(w))
            return OPO_TARGET(w)

        x = bh.synthesize_quadrature(psd, n, self.FS, seed=21)
        assert np.array_equal(x.samples, whole_grid_synthesis(OPO_TARGET, n, self.FS, 21))
        assert sum(lengths) == montecarlo._fast_length(n) // 2 + 1
        assert max(lengths) <= self.BLOCK

    # 300,000 = 2^5 3 5^5 and 759,375 = 3^5 5^5 bins over several slices
    @pytest.mark.parametrize("m", [300_000, 759_375], ids=["even", "odd"])
    def test_slice_grid_is_rfftfreq(self, irfft_calls, m):
        fs, grid = 3.7, []

        def psd(w):
            grid.append(w)
            return WHITE(w)

        assert montecarlo._fast_length(m) == m
        bh.synthesize_quadrature(psd, m, fs, seed=1)
        assert len(grid) > 2
        expected = 2.0 * np.pi * np.fft.rfftfreq(m, d=1.0 / fs)
        assert np.concatenate(grid).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value, where", [(-1e-6, "last"), (np.nan, "middle")],
                             ids=["negative_last", "nan_middle"])
    def test_bad_value_in_one_slice_refused(self, irfft_calls, value, where):
        n = 300_000
        omega = 2.0 * np.pi * np.fft.rfftfreq(montecarlo._fast_length(n), d=1.0 / self.FS)
        bins = len(omega)
        assert bins % self.BLOCK and bins > 2 * self.BLOCK
        bad = omega[-1] if where == "last" else omega[self.BLOCK + 5]
        psd = lambda w: np.where(np.asarray(w) == bad, value, 1.0)
        with pytest.raises(NonPhysicalSpectrum):
            bh.synthesize_quadrature(psd, n, self.FS, seed=0)
        assert irfft_calls == []

    # an inf bin, or a finite one whose gain sqrt(m s / 2) overflows, once became NaN samples
    @pytest.mark.parametrize("value", [np.inf, 1e308], ids=["inf", "gain_overflow"])
    def test_unsynthesizable_value_refused(self, irfft_calls, value):
        n = 300_000
        bad = 2.0 * np.pi * np.fft.rfftfreq(montecarlo._fast_length(n), d=1.0 / self.FS)[7]
        psd = lambda w: np.where(np.asarray(w) == bad, value, 1.0)
        with pytest.raises(NonPhysicalSpectrum, match="too large"):
            bh.synthesize_quadrature(psd, n, self.FS, seed=0)
        assert irfft_calls == []


class TestSynthesisMemory:
    def test_peak_within_bound(self, monkeypatch):
        # a memo miss holds one gain row (the PSD samples, then the gain) and one
        # draw row beside the coefficients, then the coefficients beside the
        # transform's output; no copy of the PSD lives through the transform
        n = 2 ** 20
        monkeypatch.setattr(montecarlo, "_last", None)
        tracemalloc.start()
        try:
            bh.synthesize_quadrature(OPO_TARGET, n, 10.0, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series_bytes = 8 * montecarlo._fast_length(n)
        assert peak <= 2.25 * series_bytes

    def test_repeat_call_allocates_no_full_length_array(self, monkeypatch):
        # a memo hit compares the key, spectrum included, and evaluates nothing
        n = 2 ** 20
        monkeypatch.setattr(montecarlo, "_last", None)
        first = bh.synthesize_quadrature(OPO_TARGET, n, 10.0, seed=4)
        tracemalloc.start()
        try:
            again = bh.synthesize_quadrature(OPO_TARGET, n, 10.0, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.samples is first.samples
        assert peak <= 0.01 * 8 * montecarlo._fast_length(n)


class TestWelch:
    @pytest.mark.parametrize("m", [256, 255])
    def test_matches_complex_fft_reference(self, m):
        welch = bh.WelchConfig(segment_length=m, overlap=0.5, window="hann")
        n_seg = 20
        x = bh.TimeSeries(4.0, np.random.default_rng(m).standard_normal(
            welch.total_samples(n_seg)))
        psd = bh.welch_psd(x, welch).chi_normalized
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / m)
        segments = [x.samples[k * welch.step:k * welch.step + m] for k in range(n_seg)]
        ref = np.mean([np.abs(np.fft.fft(win * seg)) ** 2 for seg in segments], axis=0)
        ref = np.fft.fftshift(ref / (m * np.mean(win ** 2)))
        np.testing.assert_allclose(psd, ref, rtol=1e-12, atol=0.0)
        dc, k = m // 2, np.arange(1, (m + 1) // 2)
        assert np.array_equal(psd[dc + k], psd[dc - k])

    @pytest.mark.parametrize("m, n_seg", [(4096, 13), (8192, 9), (16384, 13)])
    def test_batched_equals_segment_loop(self, m, n_seg):
        # one partial batch, one full batch plus one, several plus a remainder;
        # read-only input, as a synthesis memo hit hands it over
        welch = bh.WelchConfig(segment_length=m, overlap=0.5, window="hann")
        samples = np.random.default_rng(m).standard_normal(welch.total_samples(n_seg))
        samples.flags.writeable = False
        psd = bh.welch_psd(bh.TimeSeries(4.0, samples), welch).chi_normalized
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / m)
        acc = np.zeros(m // 2 + 1)
        for k in range(n_seg):
            acc += np.abs(np.fft.rfft(win * samples[k * welch.step:k * welch.step + m])) ** 2
        acc = np.concatenate((acc, acc[1:(m + 1) // 2][::-1]))
        ref = np.fft.fftshift(acc / (n_seg * (m * float(np.mean(win ** 2)))))
        assert np.array_equal(psd, ref)

    def test_white_floor_level(self):
        welch = tiny_welch()
        n = welch.total_samples(200)
        x = bh.synthesize_quadrature(WHITE, n, 4.0, seed=3)
        psd = bh.welch_psd(x, welch)
        assert np.mean(psd.chi_normalized) == pytest.approx(1.0, abs=0.05)
        assert np.max(np.abs(psd.chi_normalized - 1.0)) < 3.0 / np.sqrt(200) + 0.25
        assert psd.config_snapshot["n_segments"] == 200
        assert psd.sigma is not None

    def test_rectangular_window_floor(self):
        welch = tiny_welch(window="rectangular", overlap=0.0)
        x = bh.synthesize_quadrature(WHITE, welch.total_samples(150), 2.0, seed=4)
        psd = bh.welch_psd(x, welch)
        assert np.mean(psd.chi_normalized) == pytest.approx(1.0, abs=0.05)

    def test_pure_tone_integrated_power(self):
        # bin-centered cosine of amplitude A carries integrated power A^2/2
        fs, m = 8.0, 256
        welch = bh.WelchConfig(segment_length=m, overlap=0.0,
                               window="rectangular")
        n = welch.total_samples(16)
        t = np.arange(n) / fs
        a = 1.3
        k_line = 24
        x = bh.TimeSeries(fs, a * np.cos(2 * np.pi * k_line / m * fs * t), seed=None)
        psd = bh.welch_psd(x, welch)
        integrated = np.sum(psd.chi_normalized) / m
        assert integrated == pytest.approx(a ** 2 / 2, rel=1e-9)

    def test_variance_halves_with_double_segments(self):
        welch = tiny_welch(segment=128, overlap=0.0, window="rectangular")
        fs = 4.0
        trials = 36
        est = {n_seg: [] for n_seg in (25, 50)}
        for trial in range(trials):
            for n_seg in est:
                x = bh.synthesize_quadrature(WHITE, welch.total_samples(n_seg),
                                             fs, seed=1000 + trial * 7 + n_seg)
                est[n_seg].append(bh.welch_psd(x, welch).chi_normalized)
        var25 = np.mean(np.var(np.array(est[25]), axis=0))
        var50 = np.mean(np.var(np.array(est[50]), axis=0))
        assert var50 / var25 == pytest.approx(0.5, abs=0.1)

    def test_sigma_matches_seed_scatter(self):
        # sigma must predict the scatter of the estimate between seeds,
        # including the overlap correlation of the Hann segments and the
        # single degree of freedom of the DC and Nyquist bins
        welch = bh.WelchConfig(segment_length=64, overlap=0.5, window="hann")
        n = welch.total_samples(16)
        psds, sigmas = [], []
        for seed in range(400):
            x = bh.TimeSeries(1.0, np.random.default_rng(seed).standard_normal(n))
            sd = bh.welch_psd(x, welch)
            psds.append(sd.chi_normalized)
            sigmas.append(sd.sigma)
        ratio = np.std(psds, axis=0, ddof=1) / np.mean(sigmas, axis=0)
        dc, nyquist = 32, 0  # fftshift order puts -Nyquist first
        interior = np.delete(ratio, [nyquist, dc])
        assert np.mean(interior) == pytest.approx(1.0, abs=0.03)
        assert ratio[dc] == pytest.approx(1.0, abs=0.10)
        assert ratio[nyquist] == pytest.approx(1.0, abs=0.10)

    @pytest.mark.parametrize("m", [64, 63])
    def test_one_segment_sigma_is_the_estimate(self, m):
        # one segment is the estimator's floor: the variance factor is exactly 1, so
        # sigma is the estimate itself, times sqrt(2) at DC and the even-m Nyquist bin
        welch = tiny_welch(segment=m)
        x = bh.TimeSeries(1.0, np.random.default_rng(m).standard_normal(welch.total_samples(1)))
        sd = bh.welch_psd(x, welch)
        assert sd.config_snapshot["n_segments"] == 1
        one_dof = [m // 2] + ([0] if m % 2 == 0 else [])  # fftshift puts -Nyquist first
        interior = np.delete(np.arange(m), one_dof)
        assert np.array_equal(sd.sigma[interior], sd.chi_normalized[interior])
        assert np.array_equal(sd.sigma[one_dof], np.sqrt(2.0) * sd.chi_normalized[one_dof])

    def test_insufficient_segments(self):
        welch = tiny_welch(segment=1024)
        x = bh.synthesize_quadrature(WHITE, 1023, 4.0, seed=5)
        with pytest.raises(InsufficientData, match="shorter than one segment"):
            bh.welch_psd(x, welch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, bad):
        # one bad sample would turn every bin into NaN; refuse before any
        # transform, so no numpy warning escapes either
        samples = np.zeros(4096)
        samples[1000] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                bh.welch_psd(bh.TimeSeries(4.0, samples), tiny_welch())


# the PSD of a beaten series, estimated two ways: from the built photocurrent,
# or with the beat applied inside the Welch batches
BEATS = {
    "photocurrent": lambda x, Omega, dphi: bh.welch_psd(
        bh.synthesize_photocurrent(x, Omega, dphi), tiny_welch(segment=128)),
    "welch": lambda x, Omega, dphi: bh.welch_psd(
        x, tiny_welch(segment=128), beat=(Omega, dphi)),
}


class TestModulation:
    def test_floor_preserved(self):
        welch = tiny_welch(segment=512)
        x = bh.synthesize_quadrature(WHITE, welch.total_samples(300), 4.0, seed=6)
        for Omega, dphi in ((0.8, 0.0), (3.1, 0.7), (7.0, -1.2)):
            y = bh.synthesize_photocurrent(x, Omega, dphi)
            psd = bh.welch_psd(y, welch)
            assert np.mean(psd.chi_normalized) == pytest.approx(1.0, abs=0.05)

    def test_tone_splits_into_symmetric_lines(self):
        fs, m = 16.0, 512
        welch = bh.WelchConfig(segment_length=m, overlap=0.0,
                               window="rectangular")
        n = welch.total_samples(8)
        t = np.arange(n) / fs
        bin_w = 2 * np.pi * fs / m
        w1, Omega = 30 * bin_w, 100 * bin_w  # both bin-centered
        x = bh.TimeSeries(fs, np.cos(w1 * t), seed=None)
        y = bh.synthesize_photocurrent(x, Omega, 0.4)
        psd = bh.welch_psd(y, welch)
        total = np.sum(psd.chi_normalized) / m

        def line_power(w):
            i = np.argmin(np.abs(psd.omega_grid - w))
            return (psd.chi_normalized[i - 1:i + 2].sum()) / m

        upper = line_power(Omega + w1) + line_power(-(Omega + w1))
        lower = line_power(Omega - w1) + line_power(-(Omega - w1))
        assert upper == pytest.approx(total / 2, rel=1e-6)
        assert lower == pytest.approx(total / 2, rel=1e-6)
        assert total == pytest.approx(0.5, rel=1e-9)  # sqrt2*cos halves tone power... times 2 LO lines

    def test_psd_blind_to_beat_phase(self):
        # identical in expectation; per-bin estimates fluctuate independently
        welch = tiny_welch(segment=512)
        x = bh.synthesize_quadrature(WHITE, welch.total_samples(800), 4.0, seed=7)
        p0 = bh.welch_psd(bh.synthesize_photocurrent(x, 2.0, 0.0), welch)
        p1 = bh.welch_psd(bh.synthesize_photocurrent(x, 2.0, 1.1), welch)
        assert abs(np.mean(p0.chi_normalized) - np.mean(p1.chi_normalized)) < 0.01
        assert np.mean(np.abs(p0.chi_normalized - p1.chi_normalized)) < 0.08

    @pytest.mark.parametrize("n", [3 * 4096 + 17, 100])
    @pytest.mark.parametrize("Omega", [0.05, 0.5, 5.0])
    def test_beat_matches_direct_formula(self, Omega, n):
        # the blocked carrier against sqrt(2) cos(Omega t + dphi) x, over
        # several blocks with a ragged tail and within one short block
        fs, dphi = 10.0, 0.7
        x = bh.TimeSeries(fs, np.random.default_rng(n).standard_normal(n))
        y = bh.synthesize_photocurrent(x, Omega, dphi).samples
        ref = np.sqrt(2) * np.cos(Omega * (np.arange(n) / fs) + dphi) * x.samples
        assert len(y) == n
        assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(x.samples))

    # a step of one beat block, a ragged step over three batches, a series
    # shorter than one block, and the rectangular window
    @pytest.mark.parametrize("segment, overlap, window, n_seg", [
        (8192, 0.5, "hann", 11), (1000, 0.3, "hann", 150), (256, 0.5, "hann", 8),
        (512, 0.0, "rectangular", 20),
    ], ids=["step_4096", "step_700", "short", "rectangular"])
    def test_fused_beat_matches_photocurrent(self, segment, overlap, window, n_seg):
        welch = tiny_welch(segment, overlap, window)
        x = bh.synthesize_quadrature(WHITE, welch.total_samples(n_seg), 10.0, seed=segment)
        fused = bh.welch_psd(x, welch, beat=(2.3, 0.7))
        ref = bh.welch_psd(bh.synthesize_photocurrent(x, 2.3, 0.7), welch)
        assert fused.chi_normalized.tobytes() == ref.chi_normalized.tobytes()
        assert fused.sigma.tobytes() == ref.sigma.tobytes()
        assert fused.config_snapshot == ref.config_snapshot

    @pytest.mark.parametrize("beat", BEATS)
    def test_overflowing_beat_refused(self, beat):
        x = bh.TimeSeries(4.0, np.full(1024, 1.5e308))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            BEATS[beat](x, 1.0, 0.0)

    @pytest.mark.parametrize("Omega, dphi", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan),
                                             (1.0, -np.inf)])
    def test_non_finite_beat_refused(self, Omega, dphi):
        x = bh.synthesize_quadrature(WHITE, 1024, 4.0, seed=8)
        with pytest.raises(ValueError, match="must be finite"):
            bh.synthesize_photocurrent(x, Omega, dphi)

    def test_alias_guard(self):
        x = bh.synthesize_quadrature(WHITE, 1024, 1.0, seed=8)
        with pytest.raises(AliasRisk):
            bh.synthesize_photocurrent(x, 0.45 * 2 * np.pi * 1.0, 0.0)

    @pytest.mark.parametrize("Omega, dphi", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan),
                                             (1.0, -np.inf), (0.45 * 2 * np.pi * 1.0, 0.0)])
    def test_fused_beat_refused_alike(self, Omega, dphi):
        # the refusals of the two tests above, through welch_psd's beat
        x = bh.synthesize_quadrature(WHITE, 1024, 1.0, seed=8)
        with pytest.raises((ValueError, AliasRisk)) as built:
            BEATS["photocurrent"](x, Omega, dphi)
        with pytest.raises(built.type) as fused:
            BEATS["welch"](x, Omega, dphi)
        assert str(fused.value) == str(built.value)


class TestRefusedBeforeSynthesis:
    """The pipelines run their checks before the first inverse transform."""

    PARAMS = bh.OpoParams(gamma=1.0, epsilon=0.4, eta=0.9)
    FS = 4.0

    def test_too_few_segments(self, irfft_calls):
        welch = tiny_welch()
        with pytest.raises(InsufficientData, match="segments"):
            bh.monte_carlo_heterodyne(self.PARAMS, bh.HeterodyneConfig(Omega=1.0),
                                      self.FS, 0, welch, seed=1)
        with pytest.raises(InsufficientData, match="segments"):
            bh.monte_carlo_homodyne(self.PARAMS, 0.0, self.FS, 0, welch, seed=1)
        assert irfft_calls == []

    def test_offset_above_alias_limit(self, irfft_calls):
        cfg = bh.HeterodyneConfig(Omega=montecarlo.ALIAS_FRACTION * 2 * np.pi * self.FS)
        with pytest.raises(AliasRisk):
            bh.monte_carlo_heterodyne(self.PARAMS, cfg, self.FS, 8, tiny_welch(), seed=1)
        assert irfft_calls == []


class TestMonteCarloPipelines:
    PARAMS = bh.OpoParams(gamma=1.0, epsilon=0.5, eta=1.0)

    def analytic(self, cfg, grid):
        return bh.heterodyne_spectrum(bh.opo_spectra(self.PARAMS), cfg, 1.0, grid)

    def test_deep_squeezing_dip(self):
        welch = bh.WelchConfig(segment_length=8192, overlap=0.5, window="hann")
        psd = bh.monte_carlo_homodyne(self.PARAMS, 0.0, 10.0, 200, welch, seed=42)
        center = np.abs(psd.omega_grid) < 0.05
        assert np.max(psd.chi_normalized[center]) <= 0.05

    def test_squeezing_off_is_flat(self):
        params = bh.OpoParams(gamma=1.0, epsilon=0.0, eta=1.0)
        welch = tiny_welch(segment=1024)
        cfg = bh.HeterodyneConfig(Omega=2.0)
        psd = bh.monte_carlo_heterodyne(params, cfg, 10.0, 250, welch, seed=43)
        assert np.mean(psd.chi_normalized) == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(psd.chi_normalized - 1.0)) < 4.0 / np.sqrt(250) + 0.3

    @pytest.mark.parametrize("ratio", [0.05, 0.5, 5.0])
    def test_oracle_agreement_heterodyne(self, ratio):
        welch = bh.WelchConfig(segment_length=8192, overlap=0.5, window="hann")
        n_seg = 160
        cfg = bh.HeterodyneConfig(Omega=ratio)
        mc = bh.monte_carlo_heterodyne(self.PARAMS, cfg, 10.0, n_seg, welch,
                                       seed=int(100 * ratio) + 7)
        analytic = self.analytic(cfg, mc.omega_grid)
        resolution = 2 * np.pi * 10.0 / welch.segment_length
        mask = ((np.abs(mc.omega_grid - ratio) > resolution)
                & (np.abs(mc.omega_grid + ratio) > resolution))
        dev = np.abs(mc.chi_normalized - analytic.chi_normalized)[mask]
        bound = 4.0 / np.sqrt(n_seg)
        assert np.mean(dev <= bound) >= 0.95

    def test_oracle_agreement_homodyne(self):
        welch = bh.WelchConfig(segment_length=8192, overlap=0.5, window="hann")
        n_seg = 160
        mc = bh.monte_carlo_homodyne(self.PARAMS, 0.0, 10.0, n_seg, welch, seed=77)
        analytic = bh.homodyne_spectrum(bh.opo_spectra(self.PARAMS), 0.0, 1.0,
                                        mc.omega_grid)
        dev = np.abs(mc.chi_normalized - analytic.chi_normalized)
        assert np.mean(dev <= 4.0 / np.sqrt(n_seg)) >= 0.95

    def test_empirical_split_shift(self):
        # same underlying series: heterodyne PSD vs half-sum of the shifted
        # homodyne PSD, with the offset on the segment-bin grid
        welch = bh.WelchConfig(segment_length=1024, overlap=0.5, window="hann")
        fs, n_seg = 10.0, 400
        bin_w = 2 * np.pi * fs / welch.segment_length
        shift_bins = 40
        Omega = shift_bins * bin_w
        s = bh.quadrature_noise_spectrum(bh.opo_spectra(self.PARAMS), 0.0, 1.0)
        n = welch.total_samples(n_seg)
        x = bh.synthesize_quadrature(s, n, fs, seed=11)
        hom = bh.welch_psd(x, welch).chi_normalized
        het = bh.welch_psd(bh.synthesize_photocurrent(x, Omega, 0.3),
                           welch).chi_normalized
        up = np.roll(hom, -shift_bins)
        down = np.roll(hom, shift_bins)
        inner = slice(shift_bins + 2, len(hom) - shift_bins - 2)
        dev = np.abs(het - 0.5 * (up + down))[inner]
        assert np.mean(dev <= 3.0 / np.sqrt(n_seg)) >= 0.95
