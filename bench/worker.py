"""One unit of a benchmark workload, in a fresh interpreter.

run.py starts this file once per unit with BLAS pinned to one thread, so
each unit begins with cold module state, `ablate`'s run cache included.
A unit sets up, runs the timed phase, then checks the outputs. The last
line of standard output is one JSON object that run.py reads.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import layers  # noqa: E402
from run import PINS  # noqa: E402
from spans import Recorder, install, overhead_s, wrapper_costs  # noqa: E402

# score-bank's large bundles, one per model: the same seed, hence the same
# mixture centers, as the model's training bundle; a 10 000-row bank and
# 4 000 queries each, 8 000 over the two models
BIG = dict(train_per_component=2500, test_per_component=250, ood_samples=1000)
# rounds in which train-sweep scores its trained models with both kinds after
# the timed phase, so that every model and kind has several timed calls
SCORE_ROUNDS = 6


def import_clood():
    import clood
    where = os.path.dirname(os.path.abspath(clood.__file__))
    if where != os.path.join(SRC, "clood"):
        raise SystemExit(f"clood imported from {where}, not from {SRC}")
    return {name: importlib.import_module(f"clood.{name}")
            for name in ("ablate", "config", "data", "train")}


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in PINS},
    }


class Calls:
    """Times and keeps every `train` and `evaluate` call, wherever made."""

    def __init__(self):
        self.trainings = []      # (result, bundle, seconds)
        self.evaluations = []    # (result, bundle, report, seconds)
        self.seconds = []        # each call's seconds, in call order

    def patches(self):
        return [("clood.train:train", self._train),
                ("clood.ablate:train", self._train),
                ("clood.train:evaluate", self._evaluate),
                ("clood.ablate:evaluate", self._evaluate)]

    def _train(self, fn):
        def train(config, bundle, *args, **kwargs):
            t = time.perf_counter()
            result = fn(config, bundle, *args, **kwargs)
            self.seconds.append(time.perf_counter() - t)
            self.trainings.append((result, bundle, self.seconds[-1]))
            return result
        return train

    def _evaluate(self, fn):
        def evaluate(result, bundle, *args, **kwargs):
            t = time.perf_counter()
            report = fn(result, bundle, *args, **kwargs)
            self.seconds.append(time.perf_counter() - t)
            self.evaluations.append((result, bundle, report, self.seconds[-1]))
            return report
        return evaluate


class Unit:
    def __init__(self, workload, seed, mods, calls, checks):
        self.workload, self.seed = workload, seed
        self.m, self.calls, self.checks = mods, calls, checks
        self.rows, self.reports = None, []

    def bundle(self, cfg, seed):
        data = self.m["data"]
        return data.generate_synthetic(data.DatasetSpec.from_config(cfg), seed)

    def setup(self):
        T = self.m["train"]
        # seed s draws data seeds 2s and 2s + 1 (the sweep's two seeds are
        # base.seed + 0 and + 1), so that no two workload seeds share data
        self.base = self.m["config"].benchmark_config(seed=2 * self.seed)
        if self.workload == "score-bank":
            configs = [replace(self.base, seed=self.base.seed + i) for i in (0, 1)]
            self.jobs = [(T.train(cfg, self.bundle(cfg, cfg.seed)),
                          self.bundle(replace(cfg, **BIG), cfg.seed))
                         for cfg in configs]

    def timed(self):
        """The workload's calls."""
        T, guard = self.m["train"], self.checks.guard
        if self.workload == "train-sweep":
            self.rows = guard("run_sweep", self.m["ablate"].run_sweep,
                              "loss-terms", self.base, n_seeds=2)
        else:
            for model, big in self.jobs:
                for kind in ("var", "cos"):
                    guard(f"evaluate {kind} seed {model.config.seed}", T.evaluate,
                          model, big, score_kind=kind, k_top=self.base.k_top)

    def post(self):
        """Untimed: score what train-sweep trained, then check it all.

        Each round scores every trained model with each kind. These calls,
        with the sweep's own, give train-sweep's scoring rates.
        """
        T = self.m["train"]
        if self.workload == "train-sweep":
            for _ in range(SCORE_ROUNDS):
                for result, bundle, _ in self.calls.trainings:
                    for kind in ("var", "cos"):
                        self.checks.guard(f"evaluate {kind} seed {result.config.seed}",
                                          T.evaluate, result, bundle, score_kind=kind)
        self.reports = self.first_reports()
        digest = hashlib.sha256()
        for result, _, _ in self.calls.trainings:
            tag = f"train {result.config.hash()} seed {result.config.seed}"
            sha = self.checks.guard(tag, ck.check_training, self.checks, result,
                                    tag, T, OUT)
            digest.update(str(sha).encode())
        for result, bundle, report in self.reports:
            tag = f"evaluate {report.score_kind} {result.config.hash()}"
            self.checks.guard(tag, ck.check_report, self.checks, result, bundle,
                              report, tag)
            for scores in ck.score_arrays(report):
                digest.update(scores.tobytes())
            digest.update(repr(sorted(report.aurocs.items())).encode())
        if self.rows is not None:
            self.check_rows()
        return digest.hexdigest()

    def first_reports(self):
        """The first report of each model and score kind.

        Scoring a model again must give the same report.
        """
        first = {}
        for result, bundle, report, _ in self.calls.evaluations:
            key = (result.config.hash(), report.score_kind)
            if key not in first:
                first[key] = (result, bundle, report)
                continue
            self.checks.check(ck.same_report(first[key][2], report),
                              f"evaluate {key[1]} {key[0]}: scoring again changed the report")
        return list(first.values())

    def var_reports(self):
        return [(r, rep) for r, _, rep in self.reports if rep.score_kind == "var"]

    def check_rows(self):
        """Each sweep row's AUROC is the mean over its seeds' reports."""
        per_variant = {}
        for result, report in self.var_reports():
            key = replace(result.config, seed=self.base.seed).hash()
            per_variant.setdefault(key, []).append(report.aurocs)
        for row in self.rows:
            reports = per_variant.get(row["config_hash"], [])
            for name in ("shifted", "scaled", "interp"):
                want = float(np.mean([r[name] for r in reports])) if reports else None
                self.checks.check(row.get(f"auroc_{name}") == want,
                                  f"sweep row {row['variant']} auroc_{name} "
                                  f"{row.get(f'auroc_{name}')!r}, reports give {want!r}")

    def aurocs(self):
        """Mean var-score AUROC per OOD set over the evaluated models."""
        var = [rep.aurocs for _, rep in self.var_reports()]
        return {name: float(np.mean([a[name] for a in var])) for name in var[0]} \
            if var else {}


def samples(calls):
    """Each training's steps and seconds, and each evaluation's, in call order.

    run.py pools these over the units of a run; an evaluation is keyed by
    its model's config hash and score kind.
    """
    return {
        "trainings": [[layers.train_steps(r.config, b), s]
                      for r, b, s in calls.trainings],
        "evaluations": [[r.config.hash(), rep.score_kind,
                         len(b.id_test) + sum(len(v) for v in b.ood_sets.values()), s]
                        for r, b, rep, s in calls.evaluations],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("train-sweep", "score-bank"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.time() when run.py started this interpreter")
    args = p.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    mods = import_clood()
    calls, checks = Calls(), ck.Checks()
    install(calls.patches())
    unit = Unit(args.workload, args.seed, mods, calls, checks)
    unit.setup()
    out = {"setup_s": time.time() - args.t0, "env": environment()}
    if args.setup_only:
        out.update(samples(calls), attempted=0, failures=[])
        print(json.dumps(out))
        return 0

    if args.trace:
        recorder = Recorder()
        undo, missing = install(layers.patches(recorder))
    first = len(calls.seconds)
    t = time.perf_counter()
    unit.timed()
    out["wall_s"] = time.perf_counter() - t
    # the timed phase cut into its calls into clood, then the time between them
    calls_s = calls.seconds[first:]
    out["wall_parts"] = calls_s + [out["wall_s"] - sum(calls_s)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        undo()
        recorder.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        added = overhead_s(recorder, wrapper_costs())
        out["layers"] = dict(layers.per_layer(recorder.spans,
                                              recorder.counts.get("tensors", 0)),
                             **{"trace.overhead_share": added / (out["wall_s"] - added)})
        out["missing_targets"] = missing

    out["digest"] = unit.post()
    out.update(samples(calls), aurocs=unit.aurocs(),
               attempted=checks.attempted, failures=checks.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
