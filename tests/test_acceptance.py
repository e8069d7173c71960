"""Acceptance gate: one test per release criterion.

Each test prints a single "criterion N (...): PASS/FAIL" line. The
benchmark comparisons (criteria 4-8) take their variants from
`ablate.variants` and share trained models through `ablate.run_one`'s
per-process cache, so the module trains each of its ten model variants
once per seed over five seeds.
"""

from dataclasses import replace

import numpy as np

import oracles
from clood import ablate, losses, scoring
from clood.autodiff import finite_difference_check
from clood.clustering import assign
from clood.config import benchmark_config
from clood.data import generate_synthetic
from clood.scoring import ReferenceBank
from clood.scoring import write_report
from clood.train import (evaluate, load_checkpoint,
                         mean_max_center_similarity, serialize_checkpoint,
                         train)

SEEDS = range(5)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


def _seeded_instance(seed):
    """Small random problem instance: 8 rows, d=6, 3 clusters."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, 6))
    centers = rng.standard_normal((3, 6))
    assigns = rng.integers(3, size=8)
    assigns[1] = assigns[0]          # guarantee at least one positive pair
    phis = rng.uniform(0.3, 1.0, 3)
    return z, centers, assigns, phis


def _combine(combinator, *terms):
    """A linear loss combination, applied to values and gradients alike."""
    return tuple(combinator(*parts) for parts in zip(*terms))


def test_criterion_1_gradient_suite():
    failures = []
    for seed in range(20):
        z, centers, assigns, phis = _seeded_instance(seed)
        cases = {
            "pair": lambda t: losses.nt_xent_pair(0, 1, t, 0.5),
            "self": lambda t: losses.self_supervised_loss(t, 0.5),
            "center": lambda t: losses.cluster_center_loss(
                t, centers, assigns, phis),
            "instance": lambda t: losses.cluster_instance_loss(
                t, assigns, 0.5),
            "cluster": lambda t: _combine(
                losses.cluster_aware_loss,
                losses.cluster_center_loss(t, centers, assigns, phis),
                losses.cluster_instance_loss(t, assigns, 0.5)),
            "total": lambda t: _combine(
                lambda s, c: losses.total_loss(s, c, 0.5),
                losses.self_supervised_loss(t, 0.5),
                _combine(
                    losses.cluster_aware_loss,
                    losses.cluster_center_loss(t, centers, assigns, phis),
                    losses.cluster_instance_loss(t, assigns, 0.5))),
        }
        for name, f in cases.items():
            err = finite_difference_check(f, z, step=1e-5)
            if not err < 1e-4:
                failures.append((name, seed, err))
    _verdict(1, "gradient suite", not failures,
             detail=str(failures[:3]) if failures else "")


def test_criterion_2_oracle_suite():
    worst = 0.0
    assign_ok = True
    for seed in range(100):
        z, centers, assigns, phis = _seeded_instance(seed)
        rng = np.random.default_rng(1000 + seed)
        checks = [
            (losses.nt_xent_pair(0, 1, z, 0.5)[0],
             oracles.ntxent_pair_oracle(0, 1, z.tolist(), 0.5)),
            (losses.self_supervised_loss(z, 0.5)[0],
             oracles.self_supervised_oracle(z.tolist(), 0.5)),
            (losses.cluster_center_loss(z, centers, assigns, phis)[0],
             oracles.cluster_center_oracle(z.tolist(), centers.tolist(),
                                           assigns.tolist(), phis.tolist())),
            (losses.cluster_instance_loss(z, assigns, 0.5)[0],
             oracles.cluster_instance_oracle(z.tolist(), assigns.tolist(),
                                             0.5)),
        ]
        got_assign = assign(z, centers)
        want_assign = oracles.assign_oracle(z.tolist(), centers.tolist())
        assign_ok = assign_ok and list(got_assign) == list(want_assign)

        bank_rows = rng.standard_normal((12, 6))
        bank = ReferenceBank(bank_rows)
        q = rng.standard_normal(6)
        checks.append((scoring.score_cos(bank, q),
                       oracles.score_cos_oracle(bank_rows.tolist(),
                                                q.tolist())))
        checks.append((scoring.score_var(bank, q, 5),
                       oracles.score_var_oracle(bank_rows.tolist(),
                                                q.tolist(), 5)))
        ids = rng.integers(0, 5, size=9).astype(float)
        oods = rng.integers(0, 5, size=7).astype(float)
        checks.append((scoring.auroc(ids, oods),
                       oracles.auroc_oracle(ids.tolist(), oods.tolist())))
        worst = max(worst, max(abs(a - b) for a, b in checks))
    _verdict(2, "oracle suite", assign_ok and worst < 1e-10,
             detail=f"worst abs err {worst:.2e}")


def test_criterion_3_schedule_contract(tmp_path):
    config = benchmark_config(epochs_total=50, warmup_epochs=20,
                              update_interval=10)
    bundle = generate_synthetic(config, config.seed)
    full = train(config, bundle, probe_epochs=(20,))
    refits_ok = full.refit_epochs == [20, 30, 40]

    # the cluster terms must leave the parameters untouched before the
    # warm-up boundary: the epoch-20 probe (taken before the first refit)
    # must be bit-identical to a run that never uses them at all
    plain_cfg = replace(config, use_ccl=False, use_cil=False)
    plain = train(plain_cfg, bundle, probe_epochs=(20,))
    probes = []
    for label, result in (("full", full), ("plain", plain)):
        p = tmp_path / f"{label}.ckpt"
        p.write_bytes(result.snapshots[20])
        probes.append(load_checkpoint(p))
    params_ok = all(
        np.array_equal(a, b)
        for net in ("encoder", "projection")
        for a, b in zip(getattr(probes[0], net).arrays().values(),
                        getattr(probes[1], net).arrays().values()))
    _verdict(3, "schedule contract", refits_ok and params_ok,
             detail=f"refits={full.refit_epochs}")


def _mean_auroc(config, ood_set="shifted", score_kind="cos"):
    """Mean AUROC of `config` over seeds 0-4, each model trained once."""
    return float(np.mean([
        evaluate(*ablate.run_one(replace(config, seed=s)),
                 score_kind=score_kind).aurocs[ood_set]
        for s in SEEDS]))


def _sweep(name):
    return dict(ablate.variants(name, benchmark_config()))


def test_criterion_4_loss_term_comparison():
    means = {label: _mean_auroc(cfg)
             for label, cfg in _sweep("loss-terms").items()}
    ok = (means["full"] >= means["self_only"] + 0.02
          and means["self+ccl"] >= means["self_only"]
          and means["self+cil"] >= means["self_only"])
    _verdict(4, "loss term comparison", ok,
             detail=", ".join(f"{k}={v:.4f}" for k, v in means.items()))


def test_criterion_5_clustering_layer():
    variants = _sweep("cluster-layer")
    emb = _mean_auroc(variants["embedding"])
    proj = _mean_auroc(variants["projection"])
    _verdict(5, "clustering layer", emb >= proj,
             detail=f"embedding={emb:.4f}, projection={proj:.4f}")


def test_criterion_6_update_schedule():
    variants = _sweep("schedule")
    means = {label: _mean_auroc(variants[label])
             for label in ("no_warmup_u10", "warmup_u1", "warmup_u10",
                           "warmup_u50")}
    best = max(means["warmup_u1"], means["warmup_u10"], means["warmup_u50"])
    ok = (means["warmup_u10"] >= means["no_warmup_u10"]
          and means["warmup_u10"] >= best - 0.01)
    _verdict(6, "update schedule", ok,
             detail=", ".join(f"{k}={v:.4f}" for k, v in means.items()))


def test_criterion_7_cluster_count():
    r = benchmark_config().components
    variants = {cfg.clusters: cfg for cfg in _sweep("cluster-count").values()}
    aurocs = {k: _mean_auroc(cfg) for k, cfg in variants.items()}
    sims = {k: float(np.mean([
        mean_max_center_similarity(*ablate.run_one(replace(variants[k], seed=s)))
        for s in SEEDS])) for k in (r, 5 * r)}
    auroc_ok = aurocs[r] == max(aurocs.values())
    sim_ok = sims[r] >= sims[5 * r]
    _verdict(7, "cluster count", auroc_ok and sim_ok,
             detail=f"aurocs={ {k: round(v, 4) for k, v in aurocs.items()} }, "
                    f"sims={ {k: round(v, 4) for k, v in sims.items()} }")


def test_criterion_8_score_functions():
    gaps = {ood_set: _mean_auroc(benchmark_config(), ood_set, "var")
            - _mean_auroc(benchmark_config(), ood_set, "cos")
            for ood_set in ("shifted", "scaled", "interp")}
    ok = all(g >= -0.01 for g in gaps.values())
    _verdict(8, "score functions", ok,
             detail=", ".join(f"{k}:{v:+.4f}" for k, v in gaps.items()))


def test_criterion_9_determinism(tmp_path):
    config = benchmark_config(train_per_component=20, test_per_component=10,
                              ood_samples=40, epochs_total=30,
                              warmup_epochs=10, k_top=10)
    blobs, files = [], []
    for run in range(2):
        bundle = generate_synthetic(config, config.seed)
        result = train(config, bundle)
        blobs.append(serialize_checkpoint(result.encoder, result.projection,
                                          result.cluster_state, config))
        report = evaluate(result, bundle)
        sp, ap = tmp_path / f"scores{run}.csv", tmp_path / f"auroc{run}.csv"
        write_report(report, sp, ap)
        files.append((sp.read_bytes(), ap.read_bytes()))
    ok = blobs[0] == blobs[1] and files[0] == files[1]
    _verdict(9, "determinism", ok)
