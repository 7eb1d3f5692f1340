"""Outside-in layer trace of an in-process balhet run.

The benchmark wraps the public functions of each balhet module from its
own side, in every namespace that holds them (``cli`` imports names
directly, and ``cli.RUNNERS`` holds the runners), and records one span
per call: name, start, end, parent and the invocation it belongs to.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from functools import wraps


def _points(args, kwargs, result):
    return {"points": len(result.omega_grid)}


def _series(args, kwargs, result):
    digest = hashlib.blake2b(result.samples.tobytes(), digest_size=16).hexdigest()
    return {"samples": len(result.samples), "digest": digest}


def _segments(args, kwargs, result):
    return {"segments": int(result.config_snapshot["n_segments"])}


def _steps(args, kwargs, result):
    return {"steps": len(result.time)}


def _file(args, kwargs, result):
    with open(args[0], "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    rows = sum(1 for line in lines if not line.startswith(b"#")) - 1
    return {"bytes": sum(map(len, lines)), "rows": rows}


# Traced function -> (observer run on its result, counts the observer sums).
TRACED = {
    "cli.main": (None, ()),
    "cli.load_config": (None, ()),
    **{f"cli.run_{mode}": (None, ())
       for mode in ("spectrum", "montecarlo", "correlation", "lock", "figure3")},
    "field.opo_spectra": (None, ()),
    "field.opo_field_state": (None, ()),
    "spectral.frequency_grid": (None, ()),
    "spectral.heterodyne_spectrum": (_points, ("points",)),
    "spectral.homodyne_spectrum": (_points, ("points",)),
    "spectral.opo_heterodyne_closed_form": (_points, ("points",)),
    "correlation.lambda_prime": (None, ()),
    "correlation.lambda_prime_quadrature_form": (None, ()),
    "correlation.time_average_reduce": (None, ()),
    "montecarlo.synthesize_quadrature": (_series, ("samples",)),
    "montecarlo.synthesize_photocurrent": (None, ()),
    "montecarlo.welch_psd": (_segments, ("segments",)),
    "montecarlo.monte_carlo_heterodyne": (None, ()),
    "montecarlo.monte_carlo_homodyne": (None, ()),
    "locking.closed_loop_simulate": (_steps, ("steps",)),
    "serialize.write_spectral_csv": (_file, ("rows", "bytes")),
    "serialize.write_table_csv": (_file, ("rows", "bytes")),
    "serialize.write_json": (None, ()),
    "svgplot.write_svg": (_file, ("bytes",)),
}


class Tracer:
    """Patches the traced functions while installed and records spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._open: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "balhet" or name.startswith("balhet.")]
        namespaces = [vars(m) for m in modules]
        namespaces += [v for ns in list(namespaces) for v in ns.values()
                       if isinstance(v, dict) and v is not ns]
        for name, (observe, _) in TRACED.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"balhet.{module}"], func)
            wrapper = self._wrap(name, original, observe)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._undo.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._undo):
            ns[key] = original
        self._undo.clear()

    def _wrap(self, name, fn, observe):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "request": self.request,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span.update(observe(args, kwargs, result))
                # The observer's time is tracing overhead, not the parent's work.
                span["observe_s"] = time.perf_counter() - span["end"]
            return result
        return traced


def largest_prime_factor(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) if n > 1 else largest


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-function calls, self time and counts of one traced iteration.

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"] + span.get("observe_s", 0.0)
    metrics = {}
    for name, (_, counts) in TRACED.items():
        mine = [(s, c) for s, c in zip(spans, covered) if s["name"] == name]
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.self_s"] = sum(s["end"] - s["start"] - c for s, c in mine)
        for key in counts:
            metrics[f"{name}.{key}"] = sum(s[key] for s, _ in mine)
    synth = [s for s in spans if s["name"] == "montecarlo.synthesize_quadrature"]
    metrics["montecarlo.synthesize_quadrature.fft_max_prime"] = max(
        (largest_prime_factor(s["samples"]) for s in synth), default=0)
    metrics["montecarlo.synthesize_quadrature.unique_ratio"] = (
        len({s["digest"] for s in synth}) / len(synth) if synth else 0.0)
    steps = metrics["locking.closed_loop_simulate.steps"]
    metrics["locking.closed_loop_simulate.ns_per_step"] = (
        metrics["locking.closed_loop_simulate.self_s"] / steps * 1e9 if steps else 0.0)
    return metrics


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_iteration)
            for name in per_iteration[0]}
