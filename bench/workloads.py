"""The benchmark's workloads: which CLI invocations one run of each makes.

Every workload is a closed loop with one client: the next invocation
starts only after the previous one has exited.  All seeds come from the
``random.Random`` the caller seeds with the benchmark's ``--seed``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

SEED_RANGE = range(1, 2 ** 31)

# Smoke mode shrinks every workload to a few seconds.  ``segments`` always
# applies (only the Monte-Carlo modes read it); the other keys only shrink
# what a workload's own INI file raised above the shipped default.
SMOKE_ALWAYS = {("montecarlo", "segments"): "16"}
SMOKE_IF_SET = {("montecarlo", "overlay_seeds"): "1", ("lock", "duration"): "0.5"}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``balhet <mode> --seed <seed> [--svg] [--config]``."""

    mode: str
    seed: int
    svg: bool = False
    config: str | None = None
    # Exit code of a known defect that the CLI reports as a documented,
    # one-line refusal.  It counts in fail_ratio, not as a broken run.
    refusal: int | None = None

    def segments(self, smoke: bool) -> int:
        return int(self.ini(smoke).get("montecarlo", "segments", fallback="400"))

    def ini(self, smoke: bool) -> configparser.ConfigParser:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if self.config:
            parser.read(INPUTS / self.config)
        if smoke:
            for (section, key), value in SMOKE_ALWAYS.items():
                _set(parser, section, key, value)
            for (section, key), value in SMOKE_IF_SET.items():
                if parser.has_option(section, key):
                    _set(parser, section, key, value)
        return parser

    def argv(self, out: Path, smoke: bool) -> list[str]:
        """CLI arguments; writes the composed INI into ``out``'s parent."""
        argv = [self.mode, "--seed", str(self.seed), "--out", str(out)]
        if self.svg:
            argv.append("--svg")
        parser = self.ini(smoke)
        if parser.sections():
            path = out.parent / "config.ini"
            with open(path, "w") as handle:
                parser.write(handle)
            argv += ["--config", str(path)]
        return argv


def _set(parser, section, key, value):
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)


def figure3_overlay(rng, smoke):
    # One process, 32 syntheses and 32 Welch estimates (4 panels x 8
    # overlay seeds), almost no output: the Monte-Carlo compute path.
    return [Call("figure3", rng.choice(SEED_RANGE), config="figure3_overlay.ini")]


def montecarlo_sweep(rng, smoke):
    # One cold synthesis per process and 2 x 8,192-row CSVs plus an SVG per
    # seed: the Monte-Carlo layer plus start-up, serialize and svgplot.
    return [Call("montecarlo", seed, svg=True)
            for seed in rng.sample(SEED_RANGE, 1 if smoke else 8)]


def analytic_lock(rng, smoke):
    # Never touches montecarlo: start-up, spectral, correlation, locking.
    seed = rng.choice(SEED_RANGE)
    return [Call("spectrum", seed, svg=True),
            Call("figure3", seed),
            # Pumps at threshold and exits 3 at the parent commit; kept so
            # the defect shows in fail_ratio.
            Call("correlation", seed, refusal=3),
            Call("correlation", seed, svg=True, config="correlation_eps03.ini"),
            Call("lock", seed, svg=True, config="lock_8s.ini")]


WORKLOADS = {f.__name__: f for f in (figure3_overlay, montecarlo_sweep, analytic_lock)}
