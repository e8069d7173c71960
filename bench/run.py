"""Benchmark for clood: two closed-loop workloads over its public API.

    python3 bench/run.py --workload train-sweep --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

One client in one process makes every call and waits for each before the
next. Each unit of a workload runs in a fresh interpreter (worker.py) with
BLAS held to one thread, on the CPU that is quietest when the unit starts.
A run makes MIN_UNITS units, and more while another one fits in --seconds;
it then sets up again until it has set up MIN_SETUPS times. Each metric is
pooled over the units part by part: the median over units of each call
into clood, summed (see sum_of_medians). With --trace 1 the run makes one
plain and one traced unit on the same seed, prints the per-layer metrics
of the traced one, and checks that both produced the same outputs. A unit
still running LIMIT_FACTOR times --seconds after the run began is stopped,
and no further unit is started that would end after that.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when any
operation or output check failed, 2 when there is no clood source tree to
benchmark, and 3 when a unit was stopped at the time limit; such a run
prints no result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import Checks  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("train-sweep", "score-bank")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_steps_per_s", "1/s"),
    ("score_var_queries_per_s", "1/s"),
    ("score_cos_queries_per_s", "1/s"),
    ("auroc_shifted", "1"),
    ("auroc_scaled", "1"),
    ("auroc_interp", "1"),
    ("peak_rss_mb", "MB"),
]
MIN_UNITS = 2
MIN_SETUPS = 3
LIMIT_FACTOR = 2.5      # units are stopped this many times --seconds into a run
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quietest_cpu(rounds=5, loop=50_000):
    """The CPU of this process's set on which a fixed Python loop runs fastest.

    On a shared machine another tenant can load one CPU for tens of
    seconds at a time, slowing whatever runs there by half. Each unit is
    pinned to the CPU that is quietest when it starts.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = {cpu: [] for cpu in cpus}
    try:
        for _ in range(rounds):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                t = time.perf_counter()
                x = 0
                for i in range(loop):
                    x += i
                times[cpu].append(time.perf_counter() - t)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(cpus, key=lambda cpu: statistics.median(times[cpu]))


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.monotonic()
        self.limit = LIMIT_FACTOR * seconds
        self.checks = Checks()
        self.timeouts = []

    def unit(self, trace=0, setup_only=0):
        """Run one unit in a fresh interpreter; its report, or None."""
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINS)
        cpu = quietest_cpu()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--setup-only", str(setup_only),
               "--t0", repr(time.time())]
        what = f"unit trace={trace} setup_only={setup_only}"
        left = self.limit - (time.monotonic() - self.start)
        try:
            if left <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=left,
                                  preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        except subprocess.TimeoutExpired:
            self.timeouts.append(f"{what}: stopped {self.limit:g} s into the run")
            return None
        lines = proc.stdout.strip().splitlines()
        if not self.checks.check(proc.returncode == 0 and bool(lines),
                                 f"{what}: exit code {proc.returncode}"):
            return None
        report = json.loads(lines[-1])
        self.checks.merge(report)
        return report

    def plain(self):
        units, setups, durations = [], [], []
        while True:
            t = time.monotonic()
            report = self.unit()
            if report is None:
                break
            units.append(report)
            durations.append(time.monotonic() - t)
            until = self.seconds if len(units) >= MIN_UNITS else self.limit
            if time.monotonic() - self.start + statistics.median(durations) > until:
                break
        while units and len(units) + len(setups) < MIN_SETUPS:
            report = self.unit(setup_only=1)
            if report is None:
                break
            setups.append(report)
        for u in units[1:]:
            self.checks.check(u["digest"] == units[0]["digest"],
                              "units on one seed gave different outputs")
        return units, setups

    def traced(self):
        plain, traced = self.unit(), self.unit(trace=1)
        if plain is not None and traced is not None:
            self.checks.check(plain["digest"] == traced["digest"]
                              and plain["aurocs"] == traced["aurocs"],
                              "the traced unit's outputs differ from the plain unit's")
        return plain, traced


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def sum_of_medians(parts):
    """The sum over parts of each part's median time.

    A part is one call into clood that every unit makes, such as the
    sweep's third training, with one time from each unit (or each round)
    that made it. A burst of slow calls then moves a part's median only
    when it covers half of that part's calls or more, where it would move
    a total by its whole length.
    """
    return sum(statistics.median(times) for times in parts)


def end_to_end(units, setups, checks):
    """The end-to-end metrics of a run's units; None where nothing measured one."""
    def aligned(lists, what):
        """Column k holds every unit's k-th time; the units must agree."""
        if not lists or not checks.check(len({len(x) for x in lists}) == 1,
                                         f"units made different numbers of {what}"):
            return None
        return list(zip(*lists))

    def rate(work, parts):
        return work / sum_of_medians(parts) if parts else None

    walls = aligned([u["wall_parts"] for u in units], "calls in the timed phase")
    # set-up trains on score-bank only, so a sweep's set-up-only report has none
    trainings = [u["trainings"] for u in units + setups if u["trainings"]]
    train_parts = aligned([[s for _, s in t] for t in trainings], "trainings")
    by_call = {}
    for u in units:
        for key, kind, queries, seconds in u["evaluations"]:
            by_call.setdefault(kind, {}).setdefault(key, (queries, []))[1].append(seconds)

    metrics = {
        "setup_s": median_of(u["setup_s"] for u in units + setups),
        "wall_s": sum_of_medians(walls) if walls else None,
        "train_steps_per_s": rate(sum(n for n, _ in trainings[0]), train_parts)
        if train_parts else None,
        "peak_rss_mb": median_of(u["peak_rss_mb"] for u in units),
    }
    for kind in ("var", "cos"):
        calls = by_call.get(kind, {}).values()
        metrics[f"score_{kind}_queries_per_s"] = rate(
            sum(q for q, _ in calls), [times for _, times in calls])
    for name in ("shifted", "scaled", "interp"):
        metrics[f"auroc_{name}"] = median_of(u["aurocs"].get(name) for u in units)
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Run one workload and print its report; the exit code it calls for."""
    run = Run(workload, seed, seconds)
    print(f"# workload {workload} seed {seed} seconds {seconds} trace {trace}")
    if trace:
        plain, traced = run.traced()
        units = [u for u in (plain, traced) if u is not None]
        catalogue = [(name, unit) for name, unit, _ in PER_LAYER]
        metrics = traced["layers"] if traced is not None else {}
        for target in traced["missing_targets"] if traced is not None else ():
            print(f"# not traced, absent from clood: {target}")
        print(f"# units: {len(units)} of 1 plain and 1 traced")
    else:
        units, setups = run.plain()
        catalogue = END_TO_END
        metrics = {k: v for k, v in end_to_end(units, setups, run.checks).items()
                   if v is not None}
        print(f"# units: {len(units)} measured, {len(setups)} set-up only")
    for u in units:
        print(f"# env {json.dumps(u['env'], sort_keys=True)} digest {u['digest']}")
    for what in run.checks.failures:
        print(f"# FAILED {what}")
    failed, attempted = len(run.checks.failures), max(run.checks.attempted, 1)
    for name, unit in catalogue:
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_share {failed / attempted!r} share ({failed} of {attempted})")
    if run.timeouts:
        for what in run.timeouts:
            print(f"# TIMED OUT {what}")
        return 3
    result = {
        "correct": failed == 0 and len(metrics) == len(catalogue),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in catalogue if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clood", "__init__.py")):
        print(f"no clood source tree at {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
