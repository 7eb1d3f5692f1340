"""CLI: config validation, artifact schemas, determinism, exit codes."""

import configparser
import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from balhet.cli import REFERENCE_INI, RUNNERS, load_config, main
from balhet.errors import ConfigInvalid
from balhet.serialize import read_csv, write_table_csv


def run_cli(*args):
    return main(list(args))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


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
            load_config("/nonexistent/exp.ini")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[opo]\ngamm = 2.0\n")
        with pytest.raises(ConfigInvalid, match="gamm"):
            load_config(str(path))

    def test_field_level_diagnostics(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[opo]\nepsilon = 0.9\n")  # above threshold
        with pytest.raises(ConfigInvalid, match=r"\[opo\]"):
            load_config(str(path))

    def test_seed_override(self):
        cfg = load_config(None, mode="spectrum", seed=777)
        assert cfg.seed == 777
        assert cfg.snapshot["run"]["seed"] == "777"

    def test_shipped_reference_config_matches_defaults(self):
        ref_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "reference.ini")
        ref = load_config(ref_path, mode="spectrum")
        default = load_config(None, mode="spectrum")
        assert ref.opo == default.opo
        assert ref.heterodyne == default.heterodyne
        assert ref.welch == default.welch
        assert ref.lock_heterodyne == default.lock_heterodyne
        for key in ("Omega_prime", "theta", "demod_phase", "lowpass_cutoff",
                    "kp", "ki", "dt", "duration", "lock_tolerance"):
            assert getattr(ref.lock, key) == getattr(default.lock, key)


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
        # the numpy scalar on its own does, special values included
        a = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e308])
        b = np.linspace(-3.0, 3.0, len(a)) ** 7
        write_table_csv(str(tmp_path / "t.csv"), {"a": a, "b": b})
        rows = (tmp_path / "t.csv").read_text().splitlines()[3:]
        assert rows == [f"{x:.12e},{y:.12e}" for x, y in zip(a, b)]

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

    def test_figure3_with_overlay(self, tmp_path):
        out = tmp_path / "out"
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[montecarlo]\noverlay_seeds = 2\nsegments = 24\n"
                           "segment_length = 1024\nn_segments_min = 8\n")
        assert run_cli("figure3", "--config", str(cfgfile), "--out", str(out)) == 0
        svg = (out / "figure3.svg").read_text()
        assert "circle" in svg  # Monte-Carlo points drawn


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        seeded = ("montecarlo", "--seed", "31")
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\nsegments = 24\nsegment_length = 512\n"
                        "n_segments_min = 8\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*seeded, "--config", str(conf), "--out", str(out1)) == 0
        assert run_cli(*seeded, "--config", str(conf), "--out", str(out2)) == 0
        for name in ("montecarlo.csv", "montecarlo_analytic.csv"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)

    def test_seed_changes_stochastic_output(self, tmp_path):
        conf = tmp_path / "exp.ini"
        conf.write_text("[montecarlo]\nsegments = 24\nsegment_length = 512\n"
                        "n_segments_min = 8\n")
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
        ("spectrum", "[grid]\npoints = 2\n", "[grid] points"),
        ("figure3", "[grid]\npoints = 2\n", "[grid] points"),
        ("spectrum", "[grid]\nomega_max = inf\n", "[grid] omega_max"),
        ("spectrum", "[heterodyne]\nomega = nan\n", "[heterodyne] omega"),
        ("spectrum", "[heterodyne]\nomega0 = 0.0\n", "[heterodyne]"),
        ("montecarlo", "[montecarlo]\nsample_rate = -1\n", "[montecarlo] sample_rate"),
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
        ("montecarlo", "[montecarlo]\nsegments = 8\n", "[montecarlo] segments"),
        ("figure3", "[montecarlo]\nsegments = 8\noverlay_seeds = 1\n",
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
    ], ids=["omega_prime", "dt", "theta", "lowpass_nan", "spectrum_points",
            "figure3_points", "omega_max_inf", "omega_nan", "omega0_removed",
            "sample_rate", "correlation_omega_zero", "correlation_points",
            "seed_negative", "seed_override_negative", "demod_clash",
            "montecarlo_alias", "figure3_overlay_alias", "segments_below_min",
            "figure3_overlay_segments", "averaging_periods_10",
            "averaging_periods_19_9", "theta_overflow", "theta_overflow_lock",
            "overlay_seeds_negative", "theta_inaccurate_series",
            "lock_duration_below_dt"])
    def test_config_errors_exit_two(self, tmp_path, capsys, mode, ini, where):
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(*mode.split(), "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, ini", [
        ("correlation", "[opo]\nepsilon = 0.3\n[correlation]\naveraging_periods = 20\n"
                        "points = 21\n"),
        ("spectrum", "[heterodyne]\nomega = 30\n[montecarlo]\nsegments = 8\n"
                     "[correlation]\naveraging_periods = 10\n"),
        ("figure3", "[opo]\ngamma = 12\n[montecarlo]\nsegments = 8\n"),
    ], ids=["averaging_periods_20", "spectrum_ignores_mc_rules", "figure3_no_overlay"])
    def test_load_time_rules_admit(self, tmp_path, mode, ini):
        # ten beat periods exactly is enough; the Monte-Carlo and averaging
        # rules bind only the modes that run those stages
        conf = tmp_path / "exp.ini"
        conf.write_text(ini)
        assert run_cli(mode, "--config", str(conf), "--out", str(tmp_path / "o")) == 0

    def test_physicality_error_is_three(self, tmp_path):
        # conjugate-quadrature Monte-Carlo with the pump at threshold needs
        # the anti-squeezed spectrum at zero frequency, which diverges
        conf = tmp_path / "exp.ini"
        conf.write_text("[heterodyne]\nphi1 = 1.5707963267948966\n"
                        "phi2 = 1.5707963267948966\n"
                        "[montecarlo]\nsegments = 16\nsegment_length = 256\n"
                        "n_segments_min = 8\n")
        assert run_cli("montecarlo", "--config", str(conf),
                       "--out", str(tmp_path / "o")) == 3

    def test_io_error_is_four(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        assert run_cli("spectrum", "--out", str(blocker / "sub")) == 4


@pytest.mark.parametrize("argv, ini, artifacts", [
    (["figure3"], None, ["figure3_a.csv", "figure3_b.csv", "figure3_c.csv",
                         "figure3_d.csv", "figure3.svg"]),
    (["spectrum", "--svg"], None,
     ["spectrum_heterodyne.csv", "spectrum_homodyne.csv", "spectrum.svg"]),
    (["montecarlo", "--seed", "7"], "[montecarlo]\nsegments = 24\nsegment_length = 512\n",
     ["montecarlo.csv", "montecarlo_analytic.csv", "montecarlo_manifest.json"]),
    (["correlation"], "[opo]\nepsilon = 0.3\n", ["correlation.csv"]),
    (["lock", "--svg"], None, ["lock_trajectory.csv", "lock_summary.json", "lock.svg"]),
], ids=["figure3", "spectrum", "montecarlo", "correlation", "lock"])
def test_readme_commands(tmp_path, capsys, argv, ini, artifacts):
    # each "## Command line" invocation of the README, at shipped defaults
    out = tmp_path / "out"
    if ini is not None:
        (tmp_path / "below.ini").write_text(ini)
        argv = [*argv, "--config", str(tmp_path / "below.ini")]
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out.split() == [str(out / name) for name in artifacts]
    for name in artifacts:
        assert (out / name).stat().st_size > 0
        if name.endswith(".csv"):
            _, cols = read_csv(str(out / name))
            assert all(np.all(np.isfinite(c)) for c in cols.values())


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
        with np.errstate(all="ignore"):
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
