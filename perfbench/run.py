"""Benchmark harness: drives the ``qpartitions`` CLI as a user does.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Every command is one cold ``python -m qpartitions ...`` process, run one at a
time from this single process, with only default options plus ``--to``,
``--order`` and ``--format``.  Each child's output is checked against the
recorded reference (``reference.json``).  This process and its children run
on one CPU, whose speed a probe thread measures while each child runs, so
that wall times can be scaled to a quiet CPU.  With ``--trace 0`` the
workload's command sequence is repeated for ``--seconds`` and the end-to-end
metrics are printed; with ``--trace 1`` the sequence runs once plain and once
under ``trace_child.py`` and the per-layer metrics are printed.  The last
line of standard output is one JSON object; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import CATALOG, DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
SETUP_CMD = ("seq", "p", "--from", "0", "--to", "0")
SETUP_RUNS_PER_PASS = 5
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
# options the benchmark never passes, and their environment defaults
SCRUBBED_ENV = ("QPARTITIONS_CACHE", "QPARTITIONS_ORDER")


# one probe: a fixed pure-Python loop, every 10 ms; on a quiet core of a
# 2-core Xeon it takes about PROBE_QUIET_S
PROBE_ITERATIONS = 2000
PROBE_INTERVAL_S = 0.01
PROBE_QUIET_S = 100e-6


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    probe_s: float  # median probe time while the child ran (0 if none ran)


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i
    return time.perf_counter() - t0


class CpuProbe:
    """Times a short fixed loop every 10 ms while a child runs.

    The loop runs on the child's CPU (see ``pin_to_one_cpu``), so a phase in
    which other tenants of the machine slow that CPU slows both by about the
    same factor.  The loop takes about 1% of the CPU from the child.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(_probe())

    def __enter__(self) -> "CpuProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def quiet_s(outcome: Outcome) -> float:
    """A child's wall time scaled to a CPU on which the probe takes PROBE_QUIET_S."""
    if not outcome.probe_s:
        return outcome.wall_s
    return outcome.wall_s * PROBE_QUIET_S / outcome.probe_s


def child_env() -> dict[str, str]:
    """The environment of every CLI child: the checkout's sources, no defaults."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Runs CLI children one at a time and checks each one's output."""

    def __init__(self, reference: dict, deadline: float) -> None:
        self.env = child_env()
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, argv, trace_path: Path | None = None) -> Outcome:
        self.count += 1
        out_path = WORK / f"out{self.count}.txt"
        err_path = WORK / f"err{self.count}.txt"
        if trace_path is None:
            cmd = [sys.executable, "-m", "qpartitions", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err, CpuProbe() as probe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        problem = self._check(argv, proc.returncode, stdout)
        self.attempted += 1
        if problem:
            self.failed += 1
            err_tail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
            print(f"FAILED: qpartitions {' '.join(argv)}: {problem}\n{err_tail}",
                  file=sys.stderr)
        out_path.unlink()
        err_path.unlink()
        probe_s = statistics.median(probe.samples) if probe.samples else 0.0
        return Outcome(wall, usage.ru_maxrss / 1024.0, probe_s)

    def _check(self, argv, code: int, stdout: str) -> str:
        ref = self.reference.get(check.key(argv))
        if ref is None:
            return "no reference output recorded for this command"
        if code != ref["exit"]:
            return f"exit code {code}, expected {ref['exit']}"
        try:
            got = check.canonical(argv, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"malformed output: {exc}"
        if got != ref["output"]:
            return "output differs from the reference"
        if tuple(argv) == CATALOG:
            problems = check.catalog_problems(got)
            if problems:
                return "; ".join(problems)
        return ""

    def sequence(self, cmds, trace_dir: Path | None = None) -> list[Outcome]:
        outcomes = []
        for i, argv in enumerate(cmds):
            trace = None if trace_dir is None else trace_dir / f"trace{i}.json"
            outcomes.append(self.run(argv, trace))
        return outcomes


def measure(runner: Runner, cmds, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics from passes over the sequence repeated for ``seconds``.

    On a shared machine the same command runs up to twice as slow while other
    tenants load its CPU, in phases of one second to many minutes.  Every
    child's wall time is therefore scaled to a quiet CPU by the ``CpuProbe``
    that ran beside it, and medians are taken over samples spread across the
    run:
    ``wall_s`` sums each command's median scaled time over the passes, and
    ``setup_s`` is the median scaled time of the set-up runs made at the
    start of every pass.  The unscaled medians are printed for people.
    """
    runner.run(SETUP_CMD)  # untimed: compiles bytecode and warms the file cache
    setup: list[Outcome] = []
    runs: list[list[Outcome]] = [[] for _ in cmds]
    start = time.perf_counter()
    while True:
        setup += [runner.run(SETUP_CMD) for _ in range(SETUP_RUNS_PER_PASS)]
        outcomes = runner.sequence(cmds)
        for samples, outcome in zip(runs, outcomes):
            samples.append(outcome)
        # start another pass only when at least half of it fits
        if time.perf_counter() - start + 0.5 * sum(o.wall_s for o in outcomes) > seconds:
            break

    def median(outcomes: list[Outcome], scaled: bool = True) -> float:
        return statistics.median(quiet_s(o) if scaled else o.wall_s for o in outcomes)

    metrics = {
        "wall_s": sum(median(samples) for samples in runs),
        "setup_s": median(setup),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in ps) for ps in zip(*runs)),
    }
    passes = len(runs[0])
    fail_frac = runner.failed / runner.attempted
    slowdowns = [o.probe_s / PROBE_QUIET_S for samples in runs for o in samples if o.probe_s]
    notes = [
        f"wall_s       {metrics['wall_s']:10.4f} s   sum over {len(cmds)} command(s) of the"
        f" median of {passes} passes, scaled to a quiet CPU"
        f" (unscaled {sum(median(samples, False) for samples in runs):.4f} s)",
        f"setup_s      {metrics['setup_s']:10.4f} s   median of {len(setup)} cold"
        f" `qpartitions {' '.join(SETUP_CMD)}`, scaled (unscaled"
        f" {median(setup, False):.4f} s)",
        f"peak_rss_mb  {metrics['peak_rss_mb']:10.2f} MB  median over passes of the"
        " largest child RSS",
        f"fail_frac    {fail_frac:10.4f}     {runner.failed} failed of"
        f" {runner.attempted} commands",
        f"slowdown     {statistics.median(slowdowns):10.3f}     median CPU slowdown the"
        f" probe saw, range {min(slowdowns):.3f}-{max(slowdowns):.3f}",
        "pass walls   " + " ".join(f"{sum(o.wall_s for o in p):.3f}" for p in zip(*runs)) + " s",
    ]
    notes += [f"  {median(samples):8.4f} s scaled, {median(samples, False):8.4f} s unscaled:"
              f" qpartitions {' '.join(argv)}" for argv, samples in zip(cmds, runs)]
    return metrics, notes


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> tuple[dict, set[str]]:
    """Per-layer metrics summed over the traces of one command sequence.

    Returns the metrics and the set of hook points a trace reported missing.
    """
    agg: list = []
    counters: Counter = Counter()
    caches: dict[str, list[int]] = {}
    missing: set[str] = set()
    ids: set[str] = set()
    for t in traces:
        agg += t["agg"]
        for k, v in t["counters"].items():
            counters[k] = max(counters[k], v) if k == "max_window" else counters[k] + v
        for k, (hits, misses) in t["caches"].items():
            h, m = caches.get(k, (0, 0))
            caches[k] = [h + hits, m + misses]
        missing.update(t["missing"])
        ids.update(t["identity_ids"])

    def total(field: int, layer: str, name=None, context=None, prefix=None) -> float:
        # field: 3 calls, 4 self_s, 5 incl_s
        return sum(
            row[field] for row in agg
            if row[0] == layer
            and (name is None or row[1] == name)
            and (prefix is None or row[1].startswith(prefix))
            and (context is None or row[2] == context)
        )

    def hit_ratio(names) -> float:
        hits = sum(caches[n][0] for n in names)
        return _ratio(hits, hits + sum(caches[n][1] for n in names))

    cf_caches = [n for n in caches if n.startswith("closed_forms.")]
    m = {
        "enumeration.self_s": total(4, "enumeration"),
        "enumeration.calls": total(3, "enumeration", prefix="count_"),
        "enumeration.sweeps": counters["sweeps"],
        "enumeration.tallied": counters["tallied"],
        "enumeration.read_ratio": _ratio(counters["useful"], counters["tallied"]),
        "enumeration.gen_yielded": counters["gen_yielded"],
        "series.self_s": total(4, "series"),
        "series.calls.add": total(3, "series", "add"),
        "series.calls.mul": total(3, "series", "mul"),
        "series.calls.inverse": total(3, "series", "inverse"),
        "series.calls.binomial": total(3, "series", "mul_binomial")
        + total(3, "series", "div_binomial"),
        "series.mul_terms": counters["mul_terms"],
        "series.max_window": counters["max_window"],
        "qobjects.self_s": total(4, "qobjects"),
        "qobjects.calls": total(3, "qobjects"),
        "qobjects.q_hyper_sum_s": total(5, "qobjects", "q_hyper_sum"),
        "closed_forms.self_s": total(4, "closed_forms"),
        "closed_forms.calls": total(3, "closed_forms"),
        "dsl.parse_s": total(5, "dsl", "parse"),
        "dsl.evaluate_s": total(5, "dsl", "evaluate"),
        "cli.main_s": total(5, "cli", "main"),
    }
    if "qobjects.poch_infinite" in caches:
        m["qobjects.poch_infinite.hit_ratio"] = hit_ratio(["qobjects.poch_infinite"])
    if cf_caches:
        m["closed_forms.cache_hit_ratio"] = hit_ratio(cf_caches)
    for ident in ids:
        m[f"identities.verify_s.{ident}"] = total(5, "identities", "verify", context=ident)
        m[f"identities.enum_s.{ident}"] = total(4, "enumeration", context=ident)
    return m, missing


# metric -> hook points it needs (besides its layer module)
_SWEEPS = ("enumeration._sweep_plain", "enumeration._sweep_diff", "enumeration.sweeps")
NEEDS = {
    "enumeration.sweeps": _SWEEPS,
    "enumeration.tallied": _SWEEPS,
    "enumeration.read_ratio": _SWEEPS + ("enumeration._HistCache.get",
                                         "enumeration.read_ratio"),
    "series.calls.add": ("series.LaurentSeries.add",),
    "series.calls.mul": ("series.LaurentSeries.mul",),
    "series.calls.inverse": ("series.LaurentSeries.inverse",),
    "series.calls.binomial": ("series.LaurentSeries.mul_binomial",
                              "series.LaurentSeries.div_binomial"),
    "series.mul_terms": ("series.LaurentSeries.mul", "series.mul_terms"),
    "series.max_window": ("series.max_window",),
    "qobjects.q_hyper_sum_s": ("qobjects.q_hyper_sum",),
    "dsl.parse_s": ("dsl.parse",),
    "dsl.evaluate_s": ("dsl.evaluate",),
    "cli.main_s": ("cli.main",),
}


def traced(runner: Runner, cmds, names: list[str]) -> tuple[dict, list[str]]:
    plain = runner.sequence(cmds)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(exist_ok=True)
    outcomes = runner.sequence(cmds, trace_dir)
    traces = []
    for i in range(len(cmds)):
        path = trace_dir / f"trace{i}.json"
        if path.exists():
            traces.append(json.loads(path.read_text(encoding="utf-8")))
    metrics, missing = layer_metrics(traces)
    metrics["trace.overhead_s"] = (sum(quiet_s(o) for o in outcomes)
                                   - sum(quiet_s(o) for o in plain))
    gone = set()
    for name in names:
        layer = name.split(".")[0]
        needs = set(NEEDS.get(name, ()))
        if layer == "identities":
            needs.add("identities.verify")
        if name not in metrics or layer in missing or needs & missing:
            gone.add(name)
    notes = [f"{name:42s} {metrics[name]:.6g}" for name in names if name not in gone]
    if gone:
        notes.append("missing per-layer metrics (hook point gone): " + ", ".join(sorted(gone)))
    return {n: metrics[n] for n in names if n not in gone}, notes


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # turn a termination request into an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qpartitions" / "__main__.py").is_file():
        print(f"error: no qpartitions sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    cmds = WORKLOADS[args.workload](args.seed)
    pin_to_one_cpu()
    runner = Runner(reference, deadline)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            metrics, notes = traced(runner, cmds, list(units))
        else:
            metrics, notes = measure(runner, cmds, args.seconds or spec["run_seconds"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
