"""Benchmark of the balhet CLI, run against the checked-out ``src/``.

With ``--trace 0`` it launches the real CLI (``python -m balhet.cli``) as
one child process at a time, times each invocation from outside, reads
each child's peak RSS with ``os.wait4`` and checks every artifact the
child writes; it reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it replays the same invocations in-process through
``balhet.cli.main``, once plain and once with every layer's public
functions wrapped, checks that both write the same bytes, and reports
the per-layer metrics of BENCHMARK.json.

    python3 bench/run.py --workload analytic_lock --seed 1 --seconds 34
    python3 bench/run.py --workload figure3_overlay --seed 1 --trace 1
    python3 bench/run.py --workload all --smoke --seconds 1

``--workload all`` runs every workload in turn.  ``--smoke`` shrinks
every workload to a few seconds (16 Welch segments, one overlay seed,
one sweep seed, 0.5 s of lock) and keeps every check.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run records and spans
are written under ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from checks import check_outputs
from tracer import Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3
SETUP_GROUPS = 4
IMPORT_PROBES = 3
# A run stops starting invocations once this much time has passed, so
# it exits within the 180 s allowed even if an invocation hangs.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import balhet.cli; "
                "print(time.perf_counter() - t)")


class Run:
    """Outcome counts and samples of one workload run."""

    def __init__(self, smoke):
        self.smoke = smoke
        self.started = time.perf_counter()
        self.attempted = self.failed = self.refused = 0
        self.problems: list[str] = []
        self.measures: dict[str, list[float]] = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def judge(self, call, code, stdout, stderr, out):
        """Count one invocation: ok, a documented refusal, or failed."""
        self.attempted += 1
        one_line = len(stderr.strip().splitlines()) == 1
        if "Traceback" not in stderr and code == call.refusal and one_line:
            self.refused += 1
            return
        if "Traceback" in stderr or code != 0:
            found = [f"exit {code}: {stderr.strip()[-300:]}"]
        else:
            found, measures = check_outputs(call.mode, call.svg, out, stdout.split(),
                                            call.segments(self.smoke))
            for key, value in measures.items():
                self.measures.setdefault(key, []).append(value)
        if found:
            self.failed += 1
            self.problems += [f"{call.mode} seed {call.seed}: {p}" for p in found]

    @property
    def fail_ratio(self) -> float:
        return (self.failed + self.refused) / self.attempted if self.attempted else 1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: list[str], workdir: Path, timeout: float):
    """Run ``python <argv>`` to completion; return (exit, wall_s, maxrss_kb, stdout, stderr)."""
    stdout, stderr = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
            stdout.read_text(), stderr.read_text())


def probe(code: list[str], run: Run, expect: str) -> float | None:
    """Launch a short child; return its wall time, or the value it printed."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        exit_code, wall, _, stdout, stderr = launch(code, Path(tmp), run.remaining())
    if exit_code != 0 or not stdout.startswith(expect):
        run.problems.append(f"probe {' '.join(code)}: exit {exit_code}: {stderr.strip()[-300:]}")
        return None
    return wall if expect else float(stdout)


def time_for_another(measuring: float, started: float, seconds: float, run: Run) -> bool:
    """Whether one more pass, as long as the last, still ends within ``seconds``."""
    now = time.perf_counter()
    return (now - measuring) + (now - started) <= seconds and run.remaining() > 0


def run_untraced(name: str, args) -> tuple[Run, dict[str, float], dict]:
    run = Run(args.smoke)
    rng = random.Random(args.seed)
    setup, walls, rss_kb = [], [], 0
    measuring = time.perf_counter()
    probed = -math.inf
    while not run.problems:
        started = time.perf_counter()
        # Sample start-up in small groups spread over the run, so its median
        # sees the same host load as the workload does.
        if time.perf_counter() - probed >= args.seconds / SETUP_GROUPS:
            setup += [probe(["-m", "balhet.cli", "--version"], run, "balhet ")
                      for _ in range(SETUP_PROBES)]
            probed = time.perf_counter()
        wall = 0.0
        for call in WORKLOADS[name](rng, args.smoke):
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                out = Path(tmp) / "out"
                code, took, rss, stdout, stderr = launch(
                    ["-m", "balhet.cli", *call.argv(out, args.smoke)], Path(tmp),
                    run.remaining())
                wall += took
                rss_kb = max(rss_kb, rss)
                run.judge(call, code, stdout, stderr, out)
        walls.append(wall)
        if not time_for_another(measuring, started, args.seconds, run):
            break
    if run.problems:
        return run, {}, {"walls": walls, "setup": setup}
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_kb / 1024.0}
    return run, metrics, {"walls": walls, "setup": setup}


def call_in_process(main, argv):
    """``main(argv)`` with its output captured; exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def replay(calls, smoke, workdir: Path, tracer: Tracer | None, run: Run | None):
    """Run ``calls`` in-process into ``workdir``; return the summed wall time."""
    import balhet.cli as cli
    wall = 0.0
    if tracer:
        tracer.install()
    try:
        for i, call in enumerate(calls):
            out = workdir / str(i) / "out"
            out.parent.mkdir(parents=True)
            argv = call.argv(out, smoke)
            if tracer:
                tracer.request = i
            start = time.perf_counter()
            code, stdout, stderr = call_in_process(cli.main, argv)
            wall += time.perf_counter() - start
            if run:
                run.judge(call, code, stdout, stderr, out)
    finally:
        if tracer:
            tracer.uninstall()
    return wall


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every artifact under ``root/<call>/out``, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.glob("*/out/*"))}


def run_traced(name: str, args) -> tuple[Run, dict[str, float], dict]:
    run = Run(args.smoke)
    rng = random.Random(args.seed)
    imports = [probe(["-c", IMPORT_PROBE], run, "") for _ in range(IMPORT_PROBES)]
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # An untimed smoke-size pass first, so lazy imports and first-call
        # set-up favour neither of the timed replays.
        replay(WORKLOADS[name](random.Random(args.seed), True), True, Path(tmp), None, None)
    walls = {False: [], True: []}
    per_iteration, spans = [], []
    measuring = time.perf_counter()
    while not run.problems:
        started = time.perf_counter()
        calls = WORKLOADS[name](rng, args.smoke)
        tracer = Tracer()
        trees = {}
        # Alternate which replay goes first, so warm caches favour neither.
        for traced in (False, True) if len(per_iteration) % 2 == 0 else (True, False):
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                walls[traced].append(replay(calls, args.smoke, Path(tmp),
                                            tracer if traced else None,
                                            run if traced else None))
                trees[traced] = tree_bytes(Path(tmp))
        if trees[False] != trees[True]:
            run.problems.append("traced artifacts differ from untraced ones")
        per_iteration.append(layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        if not time_for_another(measuring, started, args.seconds, run):
            break
    if run.problems:
        return run, {}, {"spans": spans}
    metrics = median_metrics(per_iteration)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["fail_ratio"] = run.fail_ratio
    return run, metrics, {"walls_untraced": walls[False], "walls_traced": walls[True],
                          "spans": spans}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "load_shape": "one parent process, one child process at a time, closed loop",
        "host": "machine settings untouched; the numbers include whatever else "
                "the host was running",
    }


def percentile_line(walls: list[float]) -> str:
    """The highest percentile with at least ten runs beyond it."""
    n = len(walls)
    if n < 11:
        return f"no percentile has ten runs beyond it ({n} runs)"
    return f"p{100 * (n - 10) // n} {sorted(walls)[n - 11]:.4f} s ({n} runs)"


def report(name, args, run: Run, metrics, record, spec) -> dict:
    """Print the human-readable lines and return the result object."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"== {name}  seed {args.seed}  trace {args.trace}  smoke {int(args.smoke)}")
    for problem in run.problems:
        print(f"   FAILED {problem}")
    if args.trace:
        for key in units:
            if key in metrics:
                print(f"   {key:<52} {metrics[key]:.6g} {units[key]}")
    elif metrics:
        print(f"   wall_s          {metrics['wall_s']:.4f} s median; "
              f"{percentile_line(record['walls'])}")
        print(f"   setup_s         {metrics['setup_s']:.4f} s median of {len(record['setup'])}")
        print(f"   peak_rss_mb     {metrics['peak_rss_mb']:.1f} MiB")
        print(f"   fail_ratio      {run.fail_ratio:.4f} ({run.failed + run.refused}/"
              f"{run.attempted}; {run.refused} documented refusals)")
        errs = run.measures.get("mc_rel_rms_err")
        if errs:
            print(f"   mc_rel_rms_err  {statistics.fmean(errs):.5f} mean over {len(errs)} seeds")
    correct = not run.problems and set(units) <= set(metrics)
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    record.update(result=result, environment=environment(), fail_ratio=run.fail_ratio,
                  refused=run.refused, problems=run.problems,
                  measures=run.measures, smoke=args.smoke)
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    return result


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "balhet" / "cli.py").is_file():
        print(f"bench: no balhet source tree at {SRC / 'balhet'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run, metrics, record = (run_traced if args.trace else run_untraced)(name, args)
        results[name] = report(name, args, run, metrics, record, spec)
    print(f"   environment {json.dumps(environment())}")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
