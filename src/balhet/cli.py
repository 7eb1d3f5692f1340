"""Experiment runner: reproduces the noise-spectrum panels, runs the
Monte-Carlo verification, dumps correlation tables, and simulates the
phase lock, all from a declarative INI configuration.

Runners compute, ``main`` writes.  Each ``run_<mode>`` writes nothing and
returns ``(artifacts, panels)``: artifacts are ``(file name, writer,
payload...)`` tuples, and panels are the plot panels that ``--svg`` writes to
``<mode>.svg`` (``figure3`` lists its SVG as an artifact and returns no
panels).  ``main`` joins each name onto the output directory and calls
``writer(path, *payload)``, so a refusal raised while a runner computes
leaves no output.

Exit codes: 0 success, 2 configuration error, 3 numerical/physicality
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .correlation import (check_averaging, lambda_prime, lambda_prime_quadrature_form,
                          time_average_reduce)
from .errors import MAX_LENGTH, BalhetError, ConfigInvalid, InsufficientAveraging
from .field import MAX_PHASE, HeterodyneConfig, OpoParams, opo_field_state, opo_spectra
from .locking import LockConfig, closed_loop_simulate
from .montecarlo import (WelchConfig, _fast_length, check_alias, check_rate,
                         monte_carlo_heterodyne, monte_carlo_homodyne)
from .serialize import config_hash, write_json, write_spectral_csv, write_table_csv
from .spectral import (frequency_grid, heterodyne_spectrum, homodyne_spectrum,
                       opo_heterodyne_closed_form)
from .svgplot import Panel, write_svg

FIGURE3_RATIOS = {"a": 0.05, "b": 0.5, "c": 5.0}

# The annotated reference configuration is the table of every key and its default.
REFERENCE_INI = os.path.join(os.path.dirname(__file__), "reference.ini")


@dataclass
class ExperimentConfig:
    """Run identity, the objects built from the config, and the hashed snapshot runners read."""

    mode: str
    seed: int
    out: str
    opo: OpoParams
    heterodyne: HeterodyneConfig
    welch: WelchConfig
    lock: LockConfig
    lock_mean: complex
    snapshot: dict

    @property
    def hash(self) -> str:
        return config_hash(self.snapshot)


def _parser_with_defaults(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    with open(REFERENCE_INI, encoding="utf-8") as handle:  # missing only in a broken install
        parser.read_file(handle)
    known = {section: set(parser[section]) for section in parser.sections()}
    try:
        if path is not None and not parser.read(path, encoding="utf-8"):
            raise ConfigInvalid(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:  # ParsingError spans lines
        raise ConfigInvalid(f"cannot read {path}: {' '.join(str(exc).split())}") from None
    for section in parser.sections():
        if section not in known:
            raise ConfigInvalid(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigInvalid(f"unknown key '{key}' in section [{section}]")
    return parser


def _check(where, check, *args, **kwargs):
    """Call a library constructor or check; refuse under ``where`` if it raises."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError, BalhetError) as exc:
        raise ConfigInvalid(f"{where} {exc}") from None


def load_config(path: str | None, *, mode: str, seed: int | None = None,
                out: str | None = None) -> ExperimentConfig:
    """Parse and check every key of an INI config, applying CLI overrides; the first fault,
    in a fixed order, is refused.  No check depends on ``mode``: a runner checks what it builds."""
    parser = _parser_with_defaults(path)
    if seed is not None:
        parser.set("run", "seed", str(seed))
    snapshot = {"run": {"mode": mode}}  # the hashed config: each value as read

    def read(section, key, conv, rule=None):
        """Convert, check and record one value; ``rule`` is (predicate, description)."""
        raw = parser.get(section, key)
        try:
            value = conv(raw)
        except ValueError:
            raise ConfigInvalid(f"[{section}] {key}: cannot parse {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigInvalid(f"[{section}] {key}: must be finite, got {raw!r}")
        if rule is not None and not rule[0](value):
            raise ConfigInvalid(f"[{section}] {key}: must be {rule[1]}, got {raw!r}")
        snapshot.setdefault(section, {})[key] = value
        return value
    f = lambda s, k, rule=None: read(s, k, float, rule)
    i = lambda s, k, rule=None: read(s, k, int, rule)

    if mode not in RUNNERS:
        raise ConfigInvalid(f"mode must be one of {tuple(RUNNERS)}, got {mode!r}")
    seed = i("run", "seed", (lambda v: v >= 0, "non-negative"))
    out = out or parser.get("run", "out")  # not recorded, so not hashed

    opo = _check("[opo]", OpoParams, gamma=f("opo", "gamma"),
                 epsilon=f("opo", "epsilon"), eta=f("opo", "eta"))
    het = _check("[heterodyne]", HeterodyneConfig, Omega=f("heterodyne", "omega"),
                 phi1=f("heterodyne", "phi1"), phi2=f("heterodyne", "phi2"),
                 amplitude=f("heterodyne", "amplitude"))
    welch = _check("[montecarlo]", WelchConfig,
                   segment_length=i("montecarlo", "segment_length"),
                   overlap=f("montecarlo", "overlap"),
                   window=read("montecarlo", "window", str))

    # the runners read these from the snapshot, the record the hash names
    f("grid", "omega_max")
    i("grid", "points")
    _check("[montecarlo] sample_rate:", check_rate, f("montecarlo", "sample_rate"))
    i("montecarlo", "overlay_seeds", (lambda v: v >= 0, "non-negative"))
    i("montecarlo", "segments")
    f("correlation", "iota_max", (lambda v: v > 0, "positive"))
    i("correlation", "points", (lambda v: 2 <= v <= MAX_LENGTH, f"in [2, {MAX_LENGTH}]"))
    f("correlation", "averaging_periods")

    phibar0 = f("lock", "phibar0", (lambda v: abs(v) <= MAX_PHASE, f"within +/-{MAX_PHASE} rad"))
    lock_het = _check("[lock]", HeterodyneConfig, Omega=f("lock", "omega"),
                      phi1=phibar0, phi2=phibar0, amplitude=f("lock", "amplitude"))
    dist_amp = f("lock", "disturbance_amplitude")
    dist_omega = f("lock", "disturbance_omega")
    disturbance = None
    if dist_amp and dist_omega:
        disturbance = _sine_disturbance(dist_amp, dist_omega)
    # a blank cutoff is None, which LockConfig resolves from the demodulation frequency
    cutoff = read("lock", "lowpass_cutoff", lambda raw: float(raw) if raw.strip() else None)
    lock = _check("[lock]", LockConfig, lock_het, lowpass_cutoff=cutoff, disturbance=disturbance,
                  Omega_prime=f("lock", "omega_prime"), theta=f("lock", "theta"),
                  demod_phase=f("lock", "demod_phase"), kp=f("lock", "kp"),
                  ki=f("lock", "ki"), dt=f("lock", "dt"), duration=f("lock", "duration"),
                  lock_tolerance=f("lock", "lock_tolerance"))
    lock_mean = complex(f("lock", "mean_real"), f("lock", "mean_imag"))

    return ExperimentConfig(mode=mode, seed=seed, out=out, opo=opo, heterodyne=het, welch=welch,
                            lock=lock, lock_mean=lock_mean, snapshot=snapshot)


def _sine_disturbance(amplitude: float, omega: float):
    def disturbance(t):
        return amplitude * np.sin(omega * np.asarray(t, dtype=float))
    return disturbance


def _spectrum_panel(title, curves, points=()):
    return Panel(title, "omega (rad/s)", "normalized noise power", curves, list(points))


def run_spectrum(cfg: ExperimentConfig) -> tuple[list, list]:
    grid = _check("[grid]", frequency_grid, cfg.snapshot["grid"]["omega_max"],
                  cfg.snapshot["grid"]["points"], include=(cfg.heterodyne.Omega,))
    spectra = opo_spectra(cfg.opo)
    het = heterodyne_spectrum(spectra, cfg.heterodyne, cfg.opo.eta, grid)
    hom = homodyne_spectrum(spectra, cfg.heterodyne.phibar, cfg.opo.eta, grid)
    meta = {"config_hash": cfg.hash}
    panel = _spectrum_panel("heterodyne vs homodyne",
                            [(het.omega_grid, het.chi_normalized),
                             (hom.omega_grid, hom.chi_normalized)])
    return [("spectrum_heterodyne.csv", write_spectral_csv, het, meta),
            ("spectrum_homodyne.csv", write_spectral_csv, hom, meta)], [panel]


def run_montecarlo(cfg: ExperimentConfig) -> tuple[list, list]:
    sizes = cfg.snapshot["montecarlo"]
    rate, segments = sizes["sample_rate"], sizes["segments"]
    n = _check("[montecarlo]", cfg.welch.total_samples, segments)
    _check("[heterodyne] omega:", check_alias, cfg.heterodyne.Omega, rate)
    mc = monte_carlo_heterodyne(cfg.opo, cfg.heterodyne, rate, segments, cfg.welch, cfg.seed)
    analytic = heterodyne_spectrum(opo_spectra(cfg.opo), cfg.heterodyne,
                                   cfg.opo.eta, mc.omega_grid)
    meta = {"config_hash": cfg.hash, "seed": cfg.seed}
    manifest = {"seed": cfg.seed, "config_hash": cfg.hash, "tool_version": __version__,
                "n_segments": mc.config_snapshot["n_segments"],
                "samples": n, "transform_length": _fast_length(n), "config": cfg.snapshot}
    stride = max(1, len(mc.omega_grid) // 200)
    panel = _spectrum_panel("Monte-Carlo vs analytic",
                            [(analytic.omega_grid, analytic.chi_normalized)],
                            [(mc.omega_grid[::stride], mc.chi_normalized[::stride])])
    return [("montecarlo.csv", write_spectral_csv, mc, meta),
            ("montecarlo_analytic.csv", write_spectral_csv, analytic, meta),
            ("montecarlo_manifest.json", write_json, manifest)], [panel]


def run_correlation(cfg: ExperimentConfig) -> tuple[list, list]:
    het = cfg.heterodyne
    corr = cfg.snapshot["correlation"]
    iota_max, periods = corr["iota_max"], corr["averaging_periods"]
    try:  # the window's faults are config faults, refused before the source is built
        check_averaging(het.Omega, periods, iota_max)
    except ValueError as exc:
        raise ConfigInvalid(f"[heterodyne] {exc}") from None
    except InsufficientAveraging as exc:
        raise ConfigInvalid(f"[correlation] {exc}") from None
    kernels = opo_field_state(cfg.opo)
    tau = np.linspace(-iota_max, iota_max, corr["points"])
    closed = lambda_prime(kernels, het, tau)
    quad_form = lambda_prime_quadrature_form(kernels, het, tau)
    T = periods * math.pi / het.Omega
    averaged = np.array([time_average_reduce(kernels, het, x, periods) for x in tau])
    columns = {"tau": tau, "lambda_prime": closed,
               "lambda_prime_quadrature": quad_form, "time_average": averaged}
    meta = {"config_hash": cfg.hash, "averaging_time": T}
    panel = Panel("time-averaged intensity correlation", "lag (s)", "lambda'",
                  [(tau, closed)], [(tau[::5], averaged[::5])])
    return [("correlation.csv", write_table_csv, columns, meta)], [panel]


def run_lock(cfg: ExperimentConfig) -> tuple[list, list]:
    trajectory = closed_loop_simulate(cfg.lock_mean, cfg.lock, eta=cfg.opo.eta)
    n = len(trajectory.phibar)
    stride = max(1, n // 4000)
    # the decimated axis directly: trajectory.time would build all n steps
    t = np.arange(0, n, stride, dtype=float) * trajectory.dt
    phibar, error = trajectory.phibar[::stride], trajectory.error_signal[::stride]
    summary = {"locked": trajectory.locked, "lock_time": trajectory.lock_time,
               "lock_point": trajectory.lock_point,
               "residual_rms": trajectory.residual_rms,
               "config_hash": cfg.hash, "tool_version": __version__}
    phase = Panel("phase trajectory", "t (s)", "phibar (rad)", [(t, phibar)])
    err = Panel("error signal", "t (s)", "error", [(t, error)])
    return [("lock_trajectory.csv", write_table_csv,
             {"t": t, "phibar": phibar, "error": error}, {"config_hash": cfg.hash}),
            ("lock_summary.json", write_json, summary)], [phase, err]


def run_figure3(cfg: ExperimentConfig) -> tuple[list, list]:
    """Reproduce the four noise-reduction panels; its SVG is an artifact.

    Panels a-c: heterodyne with offset/damping ratios 0.05, 0.5, 5 at the
    amplitude-quadrature lock, through ``heterodyne_spectrum``; panel d:
    homodyne with the same source.
    Monte-Carlo points overlay the curves when overlay_seeds > 0.
    """
    gamma, sizes = cfg.opo.gamma, cfg.snapshot["montecarlo"]
    rate, segments, seeds = sizes["sample_rate"], sizes["segments"], sizes["overlay_seeds"]
    grids = [_check(f"[opo] gamma and [grid] points (grid to 3 * gamma + {ratio} * gamma):",
                    frequency_grid, 3.0 * gamma + ratio * gamma, cfg.snapshot["grid"]["points"],
                    include=(ratio * gamma,)) for ratio in FIGURE3_RATIOS.values()]
    if seeds > 0:
        _check("[montecarlo]", cfg.welch.total_samples, segments)
        for ratio in FIGURE3_RATIOS.values():
            _check(f"[opo] gamma ({ratio} * gamma):", check_alias, ratio * gamma, rate)
    curves, estimators = [], []
    for (label, ratio), grid in zip(FIGURE3_RATIOS.items(), grids):
        Om = ratio * gamma
        curves.append((f"({label}) heterodyne, offset/damping = {ratio}",
                       opo_heterodyne_closed_form(cfg.opo, Om, grid)))
        het = HeterodyneConfig(Omega=Om)
        estimators.append(lambda seed, het=het: monte_carlo_heterodyne(
            cfg.opo, het, rate, segments, cfg.welch, seed))
    grid = frequency_grid(3.0 * gamma, cfg.snapshot["grid"]["points"])
    curves.append(("(d) homodyne",
                   homodyne_spectrum(opo_spectra(cfg.opo), 0.0, cfg.opo.eta, grid)))
    estimators.append(lambda seed: monte_carlo_homodyne(
        cfg.opo, 0.0, rate, segments, cfg.welch, seed))

    # Seed-major: all four panels build equal phibar = 0 spectra, and the
    # synthesis memo keys on the spectrum, so three of every four are hits.
    omega, chi_sums = None, [0.0] * len(estimators)
    for k in range(seeds):
        for j, estimate in enumerate(estimators):
            mc = estimate(cfg.seed + k)
            omega, chi_sums[j] = mc.omega_grid, chi_sums[j] + mc.chi_normalized
    meta = {"config_hash": cfg.hash}
    artifacts, panels = [], []
    for label, (title, sd), chi_sum in zip("abcd", curves, chi_sums):
        artifacts.append((f"figure3_{label}.csv", write_spectral_csv, sd, meta))
        points = [] if omega is None else _overlay_points(
            omega, chi_sum / seeds, sd.omega_grid[-1])
        panels.append(_spectrum_panel(title, [(sd.omega_grid, sd.chi_normalized)], points))
    return [*artifacts, ("figure3.svg", write_svg, panels)], []


def _overlay_points(omega, chi, omega_max: float) -> list:
    """About 60 seed-averaged Monte-Carlo points within +/-omega_max."""
    keep = np.abs(omega) <= omega_max
    stride = max(1, int(np.sum(keep)) // 60)
    return [(omega[keep][::stride], chi[keep][::stride])]


RUNNERS = {"spectrum": run_spectrum, "montecarlo": run_montecarlo,
           "correlation": run_correlation, "lock": run_lock,
           "figure3": run_figure3}


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balhet",
        description="Balanced-heterodyne squeezing detection simulator")
    parser.add_argument("--version", action="version",
                        version=f"balhet {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in RUNNERS:
        p = sub.add_parser(mode, help=f"run the {mode} pipeline")
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--svg", action="store_true", help="emit SVG plots")
    return parser


def main(argv=None) -> int:
    args = build_argument_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, mode=args.mode, seed=args.seed, out=args.out)
        # At extreme magnitudes numpy warns of overflow; the finiteness checks
        # refuse what matters, and a warning would break the one-line message.
        with np.errstate(all="ignore"):
            artifacts, panels = RUNNERS[cfg.mode](cfg)
            if args.svg and panels:
                artifacts.append((f"{cfg.mode}.svg", write_svg, panels))
            paths = []
            for name, writer, *payload in artifacts:
                paths.append(os.path.join(cfg.out, name))
                writer(paths[-1], *payload)
    except ConfigInvalid as exc:  # from load_config or a runner's check of what it builds
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BalhetError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
