"""CLI: config validation, artifact schemas, determinism, exit codes."""

import configparser
import hashlib
import json
import math
import os
import stat
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from balhet.cli import REFERENCE_INI, RUNNERS, load_config, main
from balhet.errors import ConfigInvalid, NonPhysicalSpectrum
from balhet.locking import closed_loop_simulate
from balhet.serialize import config_hash, write_table_csv


HUGE_SOURCE = "[opo]\ngamma = 1e300\nepsilon = 0.3e300\n"
# just below threshold at a tiny gamma: km^2 underflows, so the anti-squeezed
# quadrature's PSD is +inf at zero frequency
NEAR_THRESHOLD = {("opo", "gamma"): 1e-150, ("opo", "epsilon"): 4.9999999999999994e-151,
                  ("heterodyne", "phi1"): math.pi / 2, ("heterodyne", "phi2"): math.pi / 2}
NEAR_THRESHOLD_INI = ("[opo]\ngamma = 1e-150\nepsilon = 4.9999999999999994e-151\n"
                      "[heterodyne]\nphi1 = 1.5707963267948966\nphi2 = 1.5707963267948966\n")


def run_cli(*args):
    return main(list(args))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_ini(path, values):
    """Write {(section, key): value} as an INI file, one header per section."""
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    with open(path, "w") as handle:
        handle.write("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))


def read_csv(path):
    """Read back a package CSV: returns (meta dict, column dict of arrays)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    head = sum(line.startswith("#") for line in lines)
    meta = dict(line[2:].split(": ", 1) for line in lines[1:head])
    data = np.loadtxt(lines[head + 1:], delimiter=",", ndmin=2)
    return meta, dict(zip(lines[head].split(","), data.T))


class TestConfigLoading:
    def test_defaults_load(self):
        cfg = load_config(None, mode="spectrum")
        assert cfg.mode == "spectrum"
        assert cfg.opo.gamma == 1.0
        assert cfg.heterodyne.Omega == 0.05

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[opo]\ngamma = 2.0\nepsilon = 0.25\n")
        cfg = load_config(str(path), mode="spectrum")
        assert cfg.opo.gamma == 2.0
        assert cfg.opo.epsilon == 0.25

    def test_missing_file(self):
        with pytest.raises(ConfigInvalid):
            load_config("/nonexistent/exp.ini", mode="spectrum")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[opo]\ngamm = 2.0\n")
        with pytest.raises(ConfigInvalid, match="gamm"):
            load_config(str(path), mode="spectrum")

    def test_field_level_diagnostics(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[opo]\nepsilon = 0.9\n")  # above threshold
        with pytest.raises(ConfigInvalid, match=r"\[opo\]"):
            load_config(str(path), mode="spectrum")

    def test_seed_override(self):
        cfg = load_config(None, mode="spectrum", seed=777)
        assert cfg.seed == 777
        assert cfg.snapshot["run"]["seed"] == 777

    def test_shipped_reference_config_matches_defaults(self):
        ref_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "reference.ini")
        ref = load_config(ref_path, mode="spectrum")
        default = load_config(None, mode="spectrum")
        assert ref.opo == default.opo
        assert ref.heterodyne == default.heterodyne
        assert ref.welch == default.welch
        assert ref.lock == default.lock


class TestArtifacts:
    def test_spectrum_schema_golden(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--out", str(out)) == 0
        lines = (out / "spectrum_heterodyne.csv").read_text().splitlines()
        assert lines[0] == "# spectral-density csv v1"
        assert lines[1] == "# tool: balhet 0.1.0"
        header_index = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_index] == "omega,chi_normalized"
        assert any(l.startswith("# config_hash: ") for l in lines[:header_index])
        assert any(l.startswith("# normalization: heterodyne_floor") for l in lines)

    def test_rows_format_each_value(self, tmp_path):
        # the row template must render every float exactly as formatting
        # the numpy scalar on its own does, signed zeros and extremes included
        a = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e308])
        b = np.linspace(-3.0, 3.0, len(a)) ** 7
        write_table_csv(str(tmp_path / "t.csv"), {"a": a, "b": b})
        rows = (tmp_path / "t.csv").read_text().splitlines()[3:]
        assert rows == [f"{x:.12e},{y:.12e}" for x, y in zip(a, b)]
        with pytest.raises(NonPhysicalSpectrum, match="column c is not finite"):
            write_table_csv(str(tmp_path / "sub" / "u.csv"), {"b": b, "c": b * np.nan})
        assert not (tmp_path / "sub").exists()

    def test_montecarlo_has_sigma_column(self, tmp_path):
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[montecarlo]\nsegments = 32\nsegment_length = 512\n")
        assert run_cli("montecarlo", "--config", str(cfgfile),
                       "--out", str(out)) == 0
        meta, cols = read_csv(str(out / "montecarlo.csv"))
        assert list(cols) == ["omega", "chi_normalized", "sigma"]
        assert meta["n_segments"] == "32"
        assert np.all(cols["sigma"] >= 0)

    def test_montecarlo_one_segment(self, tmp_path, capsys):
        # one segment runs: the estimator's floor is its natural one
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[montecarlo]\nsegments = 1\n")
        assert run_cli("montecarlo", "--config", str(cfgfile), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        meta, cols = read_csv(str(out / "montecarlo.csv"))
        assert meta["n_segments"] == "1"
        assert all(np.all(np.isfinite(c)) for c in cols.values())

    def test_montecarlo_manifest_records_sizes(self, tmp_path):
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[montecarlo]\nsegments = 32\nsegment_length = 512\n")
        assert run_cli("montecarlo", "--config", str(cfgfile),
                       "--out", str(out)) == 0
        manifest = json.loads((out / "montecarlo_manifest.json").read_text())
        # 512 + 31 steps of 256, transformed at the 5-smooth 2^6 3^3 5
        assert (manifest["samples"], manifest["transform_length"]) == (8448, 8640)
        # the config echo is the parsed snapshot: typed values, no output directory
        assert manifest["config"] == load_config(str(cfgfile), mode="montecarlo").snapshot
        assert "out" not in manifest["config"]["run"]
        assert type(manifest["config"]["grid"]["points"]) is int
        assert manifest["config"]["grid"]["points"] == 1001

    def test_correlation_table(self, tmp_path):
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[opo]\nepsilon = 0.4\n[heterodyne]\nomega = 2.0\n"
                           "[correlation]\npoints = 41\n")
        assert run_cli("correlation", "--config", str(cfgfile),
                       "--out", str(out)) == 0
        _, cols = read_csv(str(out / "correlation.csv"))
        assert list(cols) == ["tau", "lambda_prime", "lambda_prime_quadrature",
                              "time_average"]
        assert np.allclose(cols["lambda_prime"], cols["lambda_prime_quadrature"],
                           atol=1e-12)
        assert np.allclose(cols["lambda_prime"], cols["time_average"],
                           atol=1e-8)

    def test_lock_mode_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("lock", "--out", str(out), "--svg") == 0
        summary = json.loads((out / "lock_summary.json").read_text())
        assert summary["locked"] is True
        assert summary["lock_time"] < 0.4
        assert abs(summary["residual_rms"]) < 1e-3
        _, cols = read_csv(str(out / "lock_trajectory.csv"))
        assert list(cols) == ["t", "phibar", "error"]
        assert abs(cols["phibar"][-1]) < 1e-3
        assert (out / "lock.svg").read_text().startswith("<svg")

    def test_lock_with_sine_disturbance(self, tmp_path):
        # the [lock] disturbance keys add amplitude * sin(omega t) to the loop
        conf = tmp_path / "exp.ini"
        conf.write_text("[lock]\ndisturbance_amplitude = 0.001\ndisturbance_omega = 50\n"
                        "lock_tolerance = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("lock", "--config", str(conf), "--out", str(out)) == 0
        summary = json.loads((out / "lock_summary.json").read_text())
        cfg = load_config(str(conf), mode="lock")
        sine = replace(cfg.lock, disturbance=lambda t: 0.001 * np.sin(50.0 * np.asarray(t)))
        expected = closed_loop_simulate(cfg.lock_mean, sine, eta=cfg.opo.eta)
        quiet = closed_loop_simulate(cfg.lock_mean, replace(cfg.lock, disturbance=None),
                                     eta=cfg.opo.eta)
        assert summary["locked"] is True
        assert summary["residual_rms"] == expected.residual_rms > quiet.residual_rms
        _, cols = read_csv(str(out / "lock_trajectory.csv"))
        stride = max(1, len(expected.time) // 4000)
        assert cols["phibar"].tolist() == [
            float(f"{v:.12e}") for v in expected.phibar[::stride]]

    def test_artifacts_honour_umask(self, tmp_path):
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert run_cli("spectrum", "--out", str(out)) == 0
        finally:
            os.umask(old)
        for name in ("spectrum_heterodyne.csv", "spectrum_homodyne.csv"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644

    def test_figure3_panels(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("figure3", "--out", str(out)) == 0
        _, a = read_csv(str(out / "figure3_a.csv"))
        _, c = read_csv(str(out / "figure3_c.csv"))
        _, d = read_csv(str(out / "figure3_d.csv"))
        assert np.min(a["chi_normalized"]) <= 0.003
        i = np.argmin(c["chi_normalized"])
        assert abs(abs(c["omega"][i]) - 5.0) < 1e-12
        assert np.min(c["chi_normalized"]) == pytest.approx(0.495, abs=1e-3)
        j = np.argmin(np.abs(d["omega"]))
        assert d["chi_normalized"][j] == 0.0
        assert (out / "figure3.svg").exists()

    def test_figure3_metadata(self, tmp_path):
        # panels a-c carry the engine's snapshot plus the source's gamma and epsilon
        out = tmp_path / "out"
        assert run_cli("figure3", "--out", str(out)) == 0
        a, _ = read_csv(str(out / "figure3_a.csv"))
        d, _ = read_csv(str(out / "figure3_d.csv"))
        common = {"tool", "config_hash", "normalization", "eta", "phibar"}
        assert set(a) == common | {"gamma", "epsilon", "Omega", "amplitude", "dphi"}
        assert (a["Omega"], a["phibar"], a["dphi"], a["amplitude"]) == ("0.05", "0.0", "0.0", "1.0")
        assert (a["gamma"], a["epsilon"], a["eta"]) == ("1.0", "0.5", "1.0")
        assert a["normalization"] == "heterodyne_floor"
        assert set(d) == common and d["normalization"] == "homodyne_floor"

    def test_figure3_with_overlay(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[montecarlo]\noverlay_seeds = 2\nsegments = 24\n"
                           "segment_length = 1024\n")
        assert run_cli("figure3", "--config", str(cfgfile), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        svg = (out / "figure3.svg").read_text()
        assert "circle" in svg  # Monte-Carlo points drawn

    def test_run_out_is_literal(self, tmp_path, monkeypatch):
        # values are literal: a % in [run] out names the directory as written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.ini").write_text("[run]\nout = pct%dir\n")
        assert run_cli("spectrum", "--config", "exp.ini") == 0
        assert (tmp_path / "pct%dir" / "spectrum_heterodyne.csv").stat().st_size > 0


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        # the output directory, named by --out or by [run] out, is not hashed
        seeded = ("montecarlo", "--seed", "31")
        ini = "[montecarlo]\nsegments = 24\nsegment_length = 512\n"
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        out1, out2, out3, out4 = (tmp_path / f"r{k}" for k in range(1, 5))
        assert run_cli(*seeded, "--config", str(conf), "--out", str(out1)) == 0
        assert run_cli(*seeded, "--config", str(conf), "--out", str(out2)) == 0
        for out in (out3, out4):
            conf.write_text(f"[run]\nout = {out}\n{ini}")
            assert run_cli(*seeded, "--config", str(conf)) == 0
        for name in ("montecarlo.csv", "montecarlo_analytic.csv", "montecarlo_manifest.json"):
            assert (read_bytes(out1 / name) == read_bytes(out2 / name)
                    == read_bytes(out3 / name) == read_bytes(out4 / name))

    def test_seed_changes_stochastic_output(self, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\nsegments = 24\nsegment_length = 512\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("montecarlo", "--seed", "1", "--config", str(conf),
                       "--out", str(out1)) == 0
        assert run_cli("montecarlo", "--seed", "2", "--config", str(conf),
                       "--out", str(out2)) == 0
        assert (read_bytes(out1 / "montecarlo.csv")
                != read_bytes(out2 / "montecarlo.csv"))

    def test_figure3_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("figure3", "--out", str(out1)) == 0
        assert run_cli("figure3", "--out", str(out2)) == 0
        for name in ("figure3_a.csv", "figure3_b.csv", "figure3_c.csv",
                     "figure3_d.csv", "figure3.svg"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)

    # each pair spells one run two ways: (options, config values) per side, where
    # {out} is that side's output directory, passed as --out if no side names it
    @pytest.mark.parametrize("left, right", [
        (([], {("opo", "gamma"): "1"}), ([], {("opo", "gamma"): "1.0"})),
        (([], {("heterodyne", "omega"): "0.05"}), ([], {("heterodyne", "omega"): "5e-2"})),
        (([], {("correlation", "averaging_periods"): "40"}),
         ([], {("correlation", "averaging_periods"): "40.0"})),
        ((["--seed", "7"], {}), ([], {("run", "seed"): "7"})),
        ((["--out", "{out}"], {}), ([], {("run", "out"): "{out}"})),
    ], ids=["gamma_int", "omega_exponent", "averaging_periods_int", "seed_option",
            "out_option"])
    @pytest.mark.parametrize("mode", RUNNERS)
    def test_spelling_leaves_artifacts_alike(self, tmp_path, mode, left, right):
        # the config hash holds the parsed values, so every byte matches
        artifacts = []
        for k, (options, values) in enumerate((left, right)):
            out = str(tmp_path / f"r{k}")
            conf = tmp_path / f"r{k}.ini"
            write_ini(conf, {("opo", "epsilon"): "0.3", ("montecarlo", "segments"): "24",
                             ("montecarlo", "segment_length"): "512",
                             **{entry: v.format(out=out) for entry, v in values.items()}})
            argv = [mode, "--config", str(conf), *(o.format(out=out) for o in options)]
            if "--out" not in left[0] + right[0]:
                argv += ["--out", out]
            assert run_cli(*argv) == 0
            artifacts.append({name: read_bytes(os.path.join(out, name))
                              for name in sorted(os.listdir(out))})
        assert artifacts[0] == artifacts[1]


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[opo]\nepsilon = 2.0\n")
        assert run_cli("spectrum", "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 2
        assert run_cli("spectrum", "--config", "/missing.ini") == 2

    @pytest.mark.parametrize("mode, ini, where", [
        ("lock", "[lock]\nomega_prime = 9000\n", "[lock]"),
        ("lock", "[lock]\ndt = 1e-3\n", "[lock]"),
        ("lock", "[lock]\ntheta = 1.5\n", "[lock]"),
        ("lock", "[lock]\nlowpass_cutoff = nan\n", "[lock] lowpass_cutoff"),
        ("lock", "[lock]\nlock_tolerance = 0\n", "[lock] lock_tolerance"),
        ("spectrum", "[grid]\npoints = 2\n", "[grid] points"),
        ("figure3", "[grid]\npoints = 2\n", "[grid] points"),
        ("spectrum", "[grid]\nomega_max = inf\n", "[grid] omega_max"),
        # a finite grid whose span 2 * omega_max overflows, set directly or by gamma
        ("spectrum", "[grid]\nomega_max = 1e308\n", "[grid] omega_max"),
        ("figure3", "[opo]\ngamma = 1e308\n", "[opo] gamma"),
        ("figure3", "[opo]\ngamma = 2e307\n", "[opo] gamma"),
        ("spectrum", "[opo]\neta = 1e-320\n", "[opo] eta"),
        ("spectrum", "[heterodyne]\nomega = nan\n", "[heterodyne] omega"),
        ("spectrum", "[heterodyne]\nomega0 = 0.0\n", "[heterodyne]"),
        ("spectrum", "[heterodyne]\nbeta = 0.3\n", "[heterodyne]"),
        ("montecarlo", "[montecarlo]\nsample_rate = -1\n", "[montecarlo] sample_rate"),
        # Welch's grid reaches pi * sample_rate, which overflows above about 5.7e307
        ("montecarlo", "[montecarlo]\nsample_rate = 1e308\n", "[montecarlo] sample_rate"),
        ("montecarlo", "[montecarlo]\nsample_rate = 1.7e308\n", "[montecarlo] sample_rate"),
        ("correlation", "[opo]\nepsilon = 0.3\n[heterodyne]\nomega = 0\n",
         "[heterodyne] omega"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\npoints = 0\n",
         "[correlation] points"),
        ("montecarlo", "[run]\nseed = -1\n", "[run] seed"),
        ("montecarlo --seed -1", "", "[run] seed"),
        ("lock", "[lock]\nlowpass_cutoff = 900\n", "[lock] lowpass_cutoff"),
        ("montecarlo", "[heterodyne]\nomega = 30\n", "[heterodyne] omega"),
        ("figure3", "[opo]\ngamma = 12\n[montecarlo]\noverlay_seeds = 1\n",
         "[opo] gamma"),
        ("montecarlo", "[montecarlo]\nsegments = 0\n", "[montecarlo] segments"),
        ("figure3", "[montecarlo]\nsegments = 0\noverlay_seeds = 1\n",
         "[montecarlo] segments"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 10\n",
         "[correlation] averaging_periods"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 19.9\n",
         "[correlation] averaging_periods"),
        ("spectrum", "[lock]\ntheta = 400\n", "[lock]"),
        ("lock", "[lock]\ntheta = 400\n", "[lock]"),
        ("lock", "[lock]\ntheta = 40.5980000000094\n", "[lock]"),
        ("figure3", "[montecarlo]\noverlay_seeds = -2\n", "[montecarlo] overlay_seeds"),
        ("lock", "[lock]\nduration = 1e-6\n", "[lock] duration must be at least dt"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\niota_max = -2\n",
         "[correlation] iota_max: must be positive"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\niota_max = 0\n",
         "[correlation] iota_max: must be positive"),
        ("spectrum", "[correlation]\niota_max = -2\n", "[correlation] iota_max"),
        ("correlation", "[opo]\nepsilon = 0.3\n[heterodyne]\nomega = 5e-324\n",
         "[correlation] averaging window plus iota_max"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\niota_max = 1e308\n",
         "[correlation] averaging window plus iota_max"),
        ("correlation", "[opo]\nepsilon = 0.3\n[heterodyne]\namplitude = 1e200\n",
         "[heterodyne] amplitude"),
        ("lock", "[lock]\namplitude = 1e200\n", "[lock] amplitude"),
        ("spectrum", "[nosuch]\nkey = 1\n", "unknown config section [nosuch]"),
        # a file configparser cannot read names itself on one line
        ("spectrum", "[opo]\ngamma = 1\ngamma = 2\n", "exp.ini: "),
        ("spectrum", "[opo]\ngamma = 1\n[opo]\neta = 1\n", "exp.ini: "),
        ("spectrum", "gamma = 1\n", "exp.ini: "),
        ("spectrum", "[opo]\ngarbage\n", "exp.ini: "),
        ("spectrum", b"[opo]\ngamma = \xff\n", "exp.ini: "),
        # values are literal: no %(name)s interpolation
        ("spectrum", "[opo]\ngamma = 1%\n", "[opo] gamma: cannot parse '1%'"),
        ("spectrum", "[opo]\ngamma = %(nothing)s\n",
         "[opo] gamma: cannot parse '%(nothing)s'"),
        # the subcommand names the mode; a config cannot contradict it
        ("spectrum", "[run]\nmode = lock\n", "unknown key 'mode' in section [run]"),
        # phases are angles: past 2**20 rad a phase keeps too few digits below 2 pi,
        # and these once overflowed in the half-sum phibar or half-difference dphi
        ("spectrum", "[heterodyne]\nphi1 = 1e308\nphi2 = 1e308\n",
         "[heterodyne] phi1 and phi2 must lie in [-1048576, 1048576] rad"),
        ("montecarlo", "[heterodyne]\nphi1 = 1e308\nphi2 = -1e308\n",
         "[heterodyne] phi1 and phi2 must lie in [-1048576, 1048576] rad"),
        ("lock", "[lock]\nphibar0 = 1e308\n", "[lock] phibar0"),
        # these once exited 0 with a flat 1.0 spectrum, and 3 blaming the loop
        ("spectrum", "[heterodyne]\nphi1 = 1e300\nphi2 = 1e300\n", "[heterodyne] phi1 and phi2"),
        ("lock", "[lock]\nphibar0 = 4e12\n", "[lock] phibar0: must be within +/-1048576 rad"),
        # the dt bound 2 pi / (20 omega) is finite where 20 * omega overflows
        ("spectrum", "[lock]\nomega = 1e308\n", "need dt < 3.14159265358979e-309"),
    ], ids=["omega_prime", "dt", "theta", "lowpass_nan", "lock_tolerance_zero",
            "spectrum_points",
            "figure3_points", "omega_max_inf", "omega_max_span_overflow",
            "figure3_gamma_grid_overflow", "figure3_gamma_grid_span_overflow",
            "eta_inverse_overflow", "omega_nan", "omega0_removed",
            "beta_removed", "sample_rate", "sample_rate_nyquist_overflow",
            "sample_rate_max", "correlation_omega_zero",
            "correlation_points", "seed_negative", "seed_override_negative", "demod_clash",
            "montecarlo_alias", "figure3_overlay_alias", "segments_below_min",
            "figure3_overlay_segments", "averaging_periods_10",
            "averaging_periods_19_9", "theta_overflow", "theta_overflow_lock",
            "overlay_seeds_negative", "theta_inaccurate_series",
            "lock_duration_below_dt", "iota_max_negative", "iota_max_zero",
            "iota_max_spectrum", "correlation_window_overflow", "iota_max_overflow",
            "amplitude_power_overflow", "lock_amplitude_power_overflow",
            "unknown_section", "duplicate_key", "duplicate_section", "no_section_header",
            "unparsable_line", "not_utf8", "percent_sign", "percent_reference",
            "run_mode_removed", "phibar_overflow", "dphi_overflow", "lock_phibar0_overflow",
            "phase_huge", "lock_phibar0_huge", "lock_dt_bound_overflow"])
    def test_config_errors_exit_two(self, tmp_path, capsys, mode, ini, where):
        conf = tmp_path / "exp.ini"
        conf.write_bytes(ini if isinstance(ini, bytes) else ini.encode())
        assert run_cli(*mode.split(), "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, ini, first", [
        ("spectrum", "[opo]\ngamma = text\n[lock]\ntheta = 400\n", "[opo]\ngamma = text\n"),
        ("spectrum", "[grid]\npoints = 2\n[correlation]\niota_max = -2\n",
         "[grid]\npoints = 2\n"),
        # load order, not file order: [opo] is checked before [heterodyne]
        ("montecarlo", "[heterodyne]\nomega = nan\n[opo]\nepsilon = 2\n",
         "[opo]\nepsilon = 2\n"),
    ], ids=["gamma_then_theta", "points_then_iota_max", "opo_before_heterodyne"])
    def test_first_fault_is_refused(self, tmp_path, capsys, mode, ini, first):
        # two faults: the refusal is the one-fault refusal of the fault checked first
        conf = tmp_path / "exp.ini"
        conf.write_text(first)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        alone = capsys.readouterr().err
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == alone
        assert alone.startswith("config error: ") and alone.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", [
        ("opo", "gamma"), ("heterodyne", "phi1"), ("montecarlo", "segment_length"),
        ("lock", "omega_prime"), ("lock", "omega"), ("lock", "phibar0"),
    ])
    def test_unparsable_value_reported_once(self, tmp_path, capsys, section, key):
        # the failed value is not passed on to the constructor that would refuse it again
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[{section}]\n{key} = text\n")
        assert run_cli("lock", "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {key}: cannot parse 'text'\n"

    @pytest.mark.parametrize("mode, ini", [
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 20\n"
                        "points = 21\n"),
        ("spectrum", "[heterodyne]\nomega = 30\n[montecarlo]\nsegments = 8\n"
                     "[correlation]\naveraging_periods = 10\n"),
        ("figure3", "[opo]\ngamma = 12\n[montecarlo]\nsegments = 8\n"),
        ("spectrum", "[run]\nout = a%b\n"),
        ("montecarlo", "[montecarlo]\nsample_rate = 5e307\nsegments = 16\n"
                       "segment_length = 64\n"),
    ], ids=["averaging_periods_20", "spectrum_ignores_mc_rules", "figure3_no_overlay",
            "percent_is_literal", "sample_rate_nyquist_finite"])
    def test_load_time_rules_admit(self, tmp_path, mode, ini):
        # ten beat periods exactly is enough; the Monte-Carlo and averaging
        # rules bind only the modes that run those stages; a % in a value is
        # literal, even in a [run] out that --out overrides
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == 0

    def test_physicality_error_is_three(self, tmp_path):
        # conjugate-quadrature Monte-Carlo with the pump at threshold needs
        # the anti-squeezed spectrum at zero frequency, which diverges
        conf = tmp_path / "exp.ini"
        conf.write_text("[heterodyne]\nphi1 = 1.5707963267948966\n"
                        "phi2 = 1.5707963267948966\n"
                        "[montecarlo]\nsegments = 16\nsegment_length = 256\n")
        assert run_cli("montecarlo", "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("mode, ini, key", [
        ("lock", "[lock]\nduration = 1e300\n", "duration"),
        ("lock", "[lock]\ndt = 1e-300\n", "dt"),
        ("spectrum", "[grid]\npoints = 100000000000000000000\n", "[grid] points"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\npoints = 100000000000000000000\n",
         "[correlation] points"),
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 1e300\n",
         "[correlation] averaging_periods"),
        ("montecarlo", "[montecarlo]\nsegments = 100000000000000000000\n", "[montecarlo] segments"),
        ("montecarlo", "[montecarlo]\nsegment_length = 100000000000000000000\n",
         "[montecarlo] segment_length"),
        ("figure3", "[montecarlo]\noverlay_seeds = 1\nsegments = 100000000000000000000\n",
         "[montecarlo] segments"),
    ], ids=["lock_duration", "lock_dt", "grid_points", "correlation_points",
            "averaging_periods", "segments", "segment_length", "figure3_overlay_segments"])
    def test_size_beyond_numpy_is_two(self, tmp_path, capsys, mode, ini, key):
        # each run once asked numpy for more elements than it can index and ended
        # in a ValueError traceback (exit 1); MAX_LENGTH refuses them at load
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, ini", [
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 1e15\n"),
        ("montecarlo", "[montecarlo]\nsegments = 10000000000000\n"),
        ("spectrum", "[grid]\npoints = 20000000000000000\n"),
    ], ids=["averaging_periods", "segments", "grid_points"])
    def test_unallocatable_size_is_three(self, tmp_path, capsys, mode, ini):
        # each run asks for one array of over 128 PiB, beyond any address
        # space, so numpy refuses it before touching memory
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode, ini, column", [
        ("correlation", "[opo]\ngamma = 1e300\nepsilon = 0.3e300\n", "lambda_prime"),
    ], ids=["correlation_gamma"])
    def test_non_finite_column_is_three(self, tmp_path, capsys, mode, ini, column):
        # this run once exited 0 with NaN in its CSV
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        code = run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o"))
        assert code == 3
        # one line and no traceback
        assert capsys.readouterr().err == f"error: column {column} is not finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("epsilon", ["0", "1e-310"])
    def test_overflowing_kernel_rate_is_three(self, tmp_path, capsys, epsilon):
        # 1/(gamma/2 - epsilon) overflows; this once read "column lambda_prime is not finite"
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[opo]\ngamma = 1e-309\nepsilon = {epsilon}\n")
        assert run_cli("correlation", "--config", str(conf), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gamma" in err and "epsilon" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, ini, code", [
        ("spectrum", HUGE_SOURCE, 3), ("figure3", HUGE_SOURCE, 3),
        ("correlation", HUGE_SOURCE, 3),
        ("figure3", "[opo]\ngamma = 1e300\n", 0),
        ("spectrum", "[heterodyne]\nomega = 1e200\n", 0),
        ("montecarlo", NEAR_THRESHOLD_INI, 3),
    ], ids=["spectrum", "figure3", "correlation", "figure3_gamma", "spectrum_omega",
            "montecarlo_near_threshold"])
    def test_extreme_magnitudes_stay_quiet(self, tmp_path, capsys, mode, ini, code):
        # each run overflows on the way; no numpy warning may reach stderr
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert err.count("\n") == (code == 3) and err.startswith("error: " if code else "")
        assert (tmp_path / "o").exists() == (code == 0)

    def test_gamma_whose_half_underflows_is_two(self, tmp_path, capsys):
        # gamma / 2 rounds to 0, so epsilon = 0 sat at threshold: this once exited 3
        # with "anti-squeezed spectrum diverges at w = 0 for a pump at threshold"
        conf = tmp_path / "exp.ini"
        conf.write_text("[opo]\ngamma = 5e-324\nepsilon = 0\n")
        assert run_cli("spectrum", "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [opo] gamma") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        # the half of 1e-323 is the smallest subnormal, not 0
        conf.write_text("[opo]\ngamma = 1e-323\nepsilon = 0\n")
        assert load_config(str(conf), mode="spectrum").opo.gamma == 1e-323

    @pytest.mark.parametrize("mode", ["spectrum", "figure3", "montecarlo"])
    @pytest.mark.parametrize("gamma", ["1e-200", "1e-323"])
    def test_vacuum_at_tiny_gamma_is_flat(self, tmp_path, capsys, mode, gamma):
        # without a pump every spectrum is the flat floor; gamma**2 underflowing once
        # gave 0 / 0 in the Lorentzians and exit 3
        conf = tmp_path / "exp.ini"
        conf.write_text(f"[opo]\ngamma = {gamma}\nepsilon = 0\n"
                        "[montecarlo]\nsegments = 16\nsegment_length = 64\n")
        out = tmp_path / "o"
        assert run_cli(mode, "--config", str(conf), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        analytic = [name for name in os.listdir(out)
                    if name.endswith(".csv") and name != "montecarlo.csv"]
        assert len(analytic) == {"spectrum": 2, "figure3": 4, "montecarlo": 1}[mode]
        for name in analytic:
            _, cols = read_csv(str(out / name))
            assert np.all(cols["chi_normalized"] == 1.0), name

    def test_failed_overlay_writes_nothing(self, tmp_path, capsys):
        # the overlay once ran after the four panel CSVs were written
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\noverlay_seeds = 1\nsegments = 10000000000000\n")
        assert run_cli("figure3", "--config", str(conf), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ini, where", [
        ("[lock]\nlowpass_cutoff = -50\n", "[lock] lowpass_cutoff"),
        ("[lock]\nlowpass_cutoff = 0\n", "[lock] lowpass_cutoff"),
    ], ids=["negative", "zero"])
    def test_library_cutoff_rule_exits_two(self, tmp_path, capsys, ini, where):
        # the load-time refusal is LockConfig's own
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli("lock", "--config", str(conf), "--out", str(tmp_path / "o")) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_io_error_is_four(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        assert run_cli("spectrum", "--out", str(blocker / "sub")) == 4


@pytest.mark.parametrize("mapping", [
    load_config(None, mode="spectrum").snapshot,
    {},
    {"b": [1, 2.5, None], "a": {"z": "\u00fc", "y": 1 + 2j}},
], ids=["reference", "empty", "nested"])
def test_config_hash_is_sha256(mapping):
    # every "# config_hash:" line is the first 12 hex digits of the canonical JSON's SHA-256
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"), default=str)
    assert config_hash(mapping) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# each "## Command line" invocation of the README: argv, config, artifacts
README_COMMANDS = {
    "figure3": (["figure3"], None, ["figure3_a.csv", "figure3_b.csv", "figure3_c.csv",
                                    "figure3_d.csv", "figure3.svg"]),
    "spectrum": (["spectrum", "--svg"], None,
                 ["spectrum_heterodyne.csv", "spectrum_homodyne.csv", "spectrum.svg"]),
    "montecarlo": (["montecarlo", "--seed", "7"],
                   "[montecarlo]\nsegments = 24\nsegment_length = 512\n",
                   ["montecarlo.csv", "montecarlo_analytic.csv", "montecarlo_manifest.json"]),
    "correlation": (["correlation"], "[opo]\nepsilon = 0.3\n", ["correlation.csv"]),
    "lock": (["lock", "--svg"], None, ["lock_trajectory.csv", "lock_summary.json", "lock.svg"]),
}


def _config(tmp_path, ini):
    if ini is None:
        return None
    (tmp_path / "below.ini").write_text(ini)
    return str(tmp_path / "below.ini")


# off the amplitude quadrature: phibar = 0.4 evaluates the anti-squeezed kernel k22 too,
# and phibar = 0.65 with dphi = 0.25 gives every spectral branch a nonzero weight
OFF_AXIS = "[opo]\nepsilon = 0.3\n[heterodyne]\nphi1 = 0.4\nphi2 = 0.4\n"
MIXED = "[opo]\nepsilon = 0.3\neta = 0.7\n[heterodyne]\nphi1 = 0.4\nphi2 = 0.9\n"


@pytest.mark.parametrize("argv, ini, artifacts", [
    *README_COMMANDS.values(),
    (["spectrum"], None, ["spectrum_heterodyne.csv", "spectrum_homodyne.csv"]),
    (["correlation"], OFF_AXIS, ["correlation.csv"]),
    (["spectrum", "--svg"], MIXED,
     ["spectrum_heterodyne.csv", "spectrum_homodyne.csv", "spectrum.svg"]),
    (["montecarlo"], MIXED + "[montecarlo]\nsegments = 24\nsegment_length = 512\n",
     ["montecarlo.csv", "montecarlo_analytic.csv", "montecarlo_manifest.json"]),
], ids=[*README_COMMANDS, "spectrum_without_svg", "correlation_off_axis", "spectrum_mixed",
        "montecarlo_mixed"])
def test_readme_commands(tmp_path, capsys, argv, ini, artifacts):
    # exactly the listed files: no SVG without --svg, except figure3's; nothing on stderr
    out = tmp_path / "out"
    if ini is not None:
        argv = [*argv, "--config", _config(tmp_path, ini)]
    assert run_cli(*argv, "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.split() == [str(out / name) for name in artifacts]
    assert sorted(os.listdir(out)) == sorted(artifacts)
    for name in artifacts:
        assert (out / name).stat().st_size > 0
        if name.endswith(".csv"):
            _, cols = read_csv(str(out / name))
            assert all(np.all(np.isfinite(c)) for c in cols.values())


@pytest.mark.parametrize("mode", RUNNERS)
def test_runners_compute_and_write_nothing(tmp_path, mode):
    # only main joins a name onto the output directory and calls its writer
    _, ini, artifacts = README_COMMANDS[mode]
    cfg = load_config(_config(tmp_path, ini), mode=mode, out=str(tmp_path / "out"))
    before = sorted(tmp_path.iterdir())
    returned, panels = RUNNERS[mode](cfg)
    assert sorted(tmp_path.iterdir()) == before
    assert [name for name, *_ in returned] == [
        name for name in artifacts if mode == "figure3" or name != f"{mode}.svg"]
    assert (panels == []) == (mode == "figure3")


_FLOATS = st.one_of(st.floats(), st.sampled_from(["nan", "inf", "-inf"]))


@settings(max_examples=50, deadline=None)
@given(omega=_FLOATS, phi1=_FLOATS, amplitude=_FLOATS, omega_max=_FLOATS,
       points=st.one_of(st.integers(-3, 3000), st.sampled_from(["nan", "inf"])))
def test_spectrum_fails_closed(omega, phi1, amplitude, omega_max, points):
    # any input either yields finite artifacts or a documented refusal
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "exp.ini")
        with open(conf, "w") as handle:
            handle.write(f"[heterodyne]\nomega = {omega}\nphi1 = {phi1}\n"
                         f"amplitude = {amplitude}\n"
                         f"[grid]\nomega_max = {omega_max}\npoints = {points}\n")
        out = os.path.join(tmp, "out")
        code = run_cli("spectrum", "--config", conf, "--out", out)
        assert code in (0, 2, 3, 4)
        if code == 0:
            for name in ("spectrum_heterodyne.csv", "spectrum_homodyne.csv"):
                _, cols = read_csv(os.path.join(out, name))
                assert all(np.all(np.isfinite(c)) for c in cols.values())


_REFERENCE = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
_REFERENCE.read(REFERENCE_INI)
_REFERENCE_KEYS = [(section, key) for section in _REFERENCE.sections()
                   for key in _REFERENCE[section]]


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from([*RUNNERS, None]), entry=st.sampled_from(_REFERENCE_KEYS),
       value=st.one_of(st.floats(), st.integers(),
                       st.sampled_from(["nan", "inf", "-inf", "", "text"])))
@example(mode="spectrum", entry=("lock", "theta"), value=400)
@example(mode="figure3", entry=("montecarlo", "overlay_seeds"), value=-2)
def test_reference_keys_load_or_refuse(mode, entry, value):
    # every key of the reference configuration, in every mode: a value is
    # either a documented refusal or a config with no negative seed or
    # replicate count and no non-finite number
    section, key = entry
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "exp.ini")
        with open(conf, "w") as handle:
            handle.write(f"[{section}]\n{key} = {value}\n")
        try:
            cfg = load_config(conf, mode=mode)
        except ConfigInvalid:
            return
    assert cfg.seed >= 0 and cfg.overlay_seeds >= 0
    assert all(math.isfinite(v) for v in vars(cfg).values() if isinstance(v, float))


_ANGLE = st.floats(-4.0, 4.0)

# Size caps keep one run small.  The other keys are optional and range
# mostly over admitted values; a few ranges reach past a load-time or
# run-time rule (epsilon above threshold, omega = 0 in correlation mode,
# deep modulation, a loop too slow to settle) so refusals are run too.
_RUN_SIZES = {
    ("montecarlo", "segments"): st.integers(1, 20),
    ("montecarlo", "segment_length"): st.integers(8, 256),
    ("montecarlo", "overlay_seeds"): st.integers(0, 2),
    ("lock", "duration"): st.floats(2.0 ** -15, 0.05),
    ("correlation", "points"): st.integers(2, 11),
}
_RUN_OPTIONAL = {
    ("opo", "gamma"): st.floats(0.05, 5.0),
    ("opo", "epsilon"): st.floats(0.0, 0.6),
    ("opo", "eta"): st.floats(0.01, 1.0),
    ("heterodyne", "omega"): st.floats(0.0, 6.0),
    ("heterodyne", "phi1"): _ANGLE,
    ("heterodyne", "phi2"): _ANGLE,
    ("heterodyne", "amplitude"): st.floats(0.01, 100.0),
    ("grid", "omega_max"): st.floats(0.01, 10.0),
    ("grid", "points"): st.integers(3, 300),
    ("montecarlo", "sample_rate"): st.floats(0.5, 20.0),
    ("montecarlo", "overlap"): st.floats(0.0, 0.9),
    ("montecarlo", "window"): st.sampled_from(["hann", "rectangular"]),
    ("correlation", "iota_max"): st.floats(0.01, 20.0),
    ("correlation", "averaging_periods"): st.floats(20.0, 100.0),
    ("lock", "theta"): st.floats(0.0, 1.5),
    ("lock", "demod_phase"): _ANGLE,
    ("lock", "lowpass_cutoff"): st.floats(10.0, 700.0),
    ("lock", "kp"): st.floats(-10.0, 10.0),
    ("lock", "ki"): st.floats(0.0, 20000.0),
    ("lock", "phibar0"): _ANGLE,
    ("lock", "mean_real"): st.floats(-2.0, 2.0),
    ("lock", "mean_imag"): st.floats(-2.0, 2.0),
    ("lock", "disturbance_amplitude"): st.floats(0.0, 1.0),
    ("lock", "disturbance_omega"): st.floats(0.0, 1000.0),
    ("lock", "lock_tolerance"): st.floats(1e-4, 0.1),
}


# One float key per example may instead take a log-uniform magnitude of
# either sign over the whole float range, or one of its two ends.  Left out:
# [correlation] averaging_periods, which sets the time-average length (about
# 25 samples per beat period for each lag), so a large one allocates without
# bound.
_MAGNITUDE_KEYS = [key for key in _RUN_OPTIONAL if key not in {
    ("grid", "points"), ("montecarlo", "window"), ("correlation", "averaging_periods")}]
_MAGNITUDE = st.one_of(
    st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([1.0, -1.0]),
              st.floats(-300.0, 300.0)),
    st.sampled_from([5e-324, 1.7e308]))


_SMALL = {("montecarlo", "segments"): 20, ("montecarlo", "segment_length"): 256,
          ("montecarlo", "overlay_seeds"): 0, ("lock", "duration"): 0.05,
          ("correlation", "points"): 11}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(list(RUNNERS)), svg=st.booleans(), seed=st.integers(0, 2 ** 32),
       values=st.fixed_dictionaries(_RUN_SIZES, optional=_RUN_OPTIONAL),
       extreme=st.none() | st.tuples(st.sampled_from(_MAGNITUDE_KEYS), _MAGNITUDE))
# a y span below the float spacing once looped the SVG tick generator forever
@example(mode="spectrum", svg=True, seed=0, values={**_SMALL, ("opo", "epsilon"): 1e-17},
         extreme=None)
# x spans of 1e-323 and 2e-323 once underflowed the SVG tick step to 0 (traceback)
@example(mode="spectrum", svg=True, seed=0, values=_SMALL,
         extreme=(("grid", "omega_max"), 5e-324))
@example(mode="spectrum", svg=True, seed=0, values=_SMALL,
         extreme=(("grid", "omega_max"), 1e-323))
# a one-step lock trajectory once divided by its zero time span in the SVG
@example(mode="lock", svg=True, seed=0,
         values={**_SMALL, ("lock", "duration"): 2.0 ** -15, ("lock", "phibar0"): 0.0},
         extreme=None)
# a subnormal offset once made the averaging window infinite (traceback)
@example(mode="correlation", svg=False, seed=0,
         values={**_SMALL, ("opo", "epsilon"): 0.3, ("heterodyne", "omega"): 5e-324},
         extreme=None)
# an infinite target PSD once reached welch_psd as NaN samples (traceback); one
# extreme key cannot put gamma and epsilon both at this magnitude
@example(mode="montecarlo", svg=False, seed=0, values={**_SMALL, **NEAR_THRESHOLD},
         extreme=None)
def test_every_mode_runs_or_refuses(tmp_path, capsys, mode, svg, seed, values, extreme):
    # run, not only load: finite artifacts and a quiet stderr, or a config
    # or numerical refusal of one line that writes nothing
    if extreme is not None:
        values = {**values, extreme[0]: extreme[1]}
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        conf = os.path.join(tmp, "exp.ini")
        write_ini(conf, values)
        out = os.path.join(tmp, "out")
        argv = [mode, "--config", conf, "--seed", str(seed), "--out", out]
        capsys.readouterr()
        code = run_cli(*argv, *(["--svg"] if svg else []))
        assert code in (0, 2, 3)
        assert capsys.readouterr().err.count("\n") == (0 if code == 0 else 1)
        if code in (2, 3):
            assert not os.path.exists(out)
        if code == 0:
            for name in os.listdir(out):
                if name.endswith(".csv"):
                    _, cols = read_csv(os.path.join(out, name))
                    assert all(np.all(np.isfinite(c)) for c in cols.values()), name
