"""Checks on every artifact a benchmark invocation writes.

The checks recompute what they can from first principles rather than
through balhet, so a change that breaks the program cannot also break
its own yardstick.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Shipped [opo] defaults, which no workload overrides for these modes.
GAMMA, EPSILON = 1.0, 0.5
FIGURE3_RATIOS = {"a": 0.05, "b": 0.5, "c": 5.0}
FIGURE3_TOL = 1e-9

# Acceptance tolerance of time_average against lambda_prime.
CORRELATION_REL, CORRELATION_FLOOR = 1e-10, 1e-9

# Shipped [heterodyne] omega and one Welch bin at the shipped sample rate
# and segment length: the bins next to +/-Omega carry the beat's leakage.
MC_OMEGA = 0.05
MC_RESOLUTION = 2.0 * math.pi * 10.0 / 8192
# The averaged periodogram's relative error is about 1.03/sqrt(segments)
# for 50 %-overlapped Hann segments; at 400 segments single seeds read
# 0.049-0.054 over 640 seeds.  The limit sits 17 % above the mean, so an
# estimator weakened to buy speed (half the segments reads 41 % higher)
# crosses it.
MC_ERR_FACTOR = 1.2

ARTIFACTS = {
    "spectrum": ["spectrum_heterodyne.csv", "spectrum_homodyne.csv"],
    "montecarlo": ["montecarlo.csv", "montecarlo_analytic.csv",
                   "montecarlo_manifest.json"],
    "correlation": ["correlation.csv"],
    "lock": ["lock_trajectory.csv", "lock_summary.json"],
    "figure3": ["figure3_a.csv", "figure3_b.csv", "figure3_c.csv",
                "figure3_d.csv", "figure3.svg"],
}


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a balhet CSV: ``#`` metadata lines, a header, float rows."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


def check_outputs(mode: str, svg: bool, out: Path, listed: list[str],
                  segments: int) -> tuple[list[str], dict[str, float]]:
    """Problems found in one successful invocation's outputs, and measures."""
    expected = ARTIFACTS[mode] + ([f"{mode}.svg"] if svg and mode != "figure3" else [])
    problems = [f"missing {name}" for name in expected if not (out / name).is_file()]
    problems += [f"listed but absent: {p}" for p in listed if not Path(p).is_file()]
    if problems:
        return problems, {}
    tables = {}
    for path in sorted(out.glob("*.csv")):
        tables[path.name] = table = read_csv(path)
        if not all(np.all(np.isfinite(col)) for col in table.values()):
            problems.append(f"{path.name}: NaN or inf")
    for path in out.glob("*.svg"):
        text = path.read_text()
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            problems.append(f"{path.name}: not an SVG document")
    measures = {}
    if mode == "figure3":
        problems += _figure3(tables)
    elif mode == "correlation":
        problems += _correlation(tables["correlation.csv"])
    elif mode == "lock":
        if json.loads((out / "lock_summary.json").read_text()).get("locked") is not True:
            problems.append("lock_summary.json: not locked")
    elif mode == "montecarlo":
        found, err = _montecarlo(tables["montecarlo.csv"],
                                 tables["montecarlo_analytic.csv"], segments)
        problems += found
        measures["mc_rel_rms_err"] = err
    return problems, measures


def _figure3(tables):
    """Panels a-c against the closed-form split Lorentzian on their own grid."""
    problems = []
    kappa = GAMMA / 2.0 + EPSILON
    for label, ratio in FIGURE3_RATIOS.items():
        table = tables[f"figure3_{label}.csv"]
        w, offset = table["omega"], ratio * GAMMA
        ref = (1.0 - EPSILON * GAMMA / (kappa ** 2 + (w + offset) ** 2)
               - EPSILON * GAMMA / (kappa ** 2 + (w - offset) ** 2))
        worst = float(np.max(np.abs(table["chi_normalized"] - ref)))
        if not worst <= FIGURE3_TOL:
            problems.append(f"figure3_{label}.csv: off the closed form by {worst:.3e}")
    return problems


def _correlation(table):
    closed, averaged = table["lambda_prime"], table["time_average"]
    tol = np.maximum(CORRELATION_REL * np.abs(closed), CORRELATION_FLOOR)
    worst = float(np.max(np.abs(averaged - closed) - tol))
    return [] if worst <= 0.0 else [f"correlation.csv: time_average off lambda_prime by {worst:.3e} beyond tolerance"]


def _montecarlo(mc, analytic, segments):
    """Grid agreement, and the RMS over unmasked bins of ``mc/analytic - 1``."""
    if len(mc["omega"]) != len(analytic["omega"]) or np.any(mc["omega"] != analytic["omega"]):
        return ["montecarlo.csv and montecarlo_analytic.csv grids differ"], math.nan
    w = mc["omega"]
    keep = (np.abs(w - MC_OMEGA) > MC_RESOLUTION) & (np.abs(w + MC_OMEGA) > MC_RESOLUTION)
    ratio = mc["chi_normalized"][keep] / analytic["chi_normalized"][keep]
    err = float(np.sqrt(np.mean((ratio - 1.0) ** 2)))
    limit = MC_ERR_FACTOR / math.sqrt(segments)
    problems = [] if err <= limit else [f"montecarlo.csv: relative RMS error {err:.4f} above {limit:.4f}"]
    return problems, err
