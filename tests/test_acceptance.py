"""Acceptance gate: every release criterion asserted at its stated tolerance.

The end-to-end criteria share one battery of seeded runs (session fixture), so
the whole module stays inside the runtime budget.  Each test emits a single
``[criterion N] PASS/FAIL`` line on the live console.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from fragpair.config import ExperimentConfig
from fragpair.fragments import (
    fragment_labels,
    list_perfect_matchings,
    matching_score,
    select_contrastive_pairing,
)
from fragpair.metrics import error_residual_ratio, mae, mrae, selection_rate
from fragpair.net import NetSpec, init_net
from fragpair.pipeline import prepare_splits, run_experiment
from fragpair.selection import bernoulli_select, prior_rows
from oracles import gradient_check

SEEDS = (0, 1, 2)

BASE_RAW = {
    "dataset": {"kind": "synthetic", "n": 2000, "d": 2, "label_lo": 0.0,
                 "label_hi": 100.0, "feature_noise_std": 0.1},
    "noise": {"kind": "symmetric", "rate": 0.4},
    "fragments": 4,
    "jitter": 0.05,
    "knn_k": 5,
    "epochs": 100,
}


def report(criterion: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    return ok


def majority(flags: list[bool]) -> bool:
    return sum(flags) >= 2


@pytest.fixture(scope="session")
def battery(tmp_path_factory):
    """Seeded runs shared by the end-to-end criteria.

    Per seed: the selection pipeline, the vanilla baseline, the unjittered
    ablation, the adjacent-pairing ablation and the regression-expert variant.
    """
    runs: dict = {"out_dirs": {}}
    root = tmp_path_factory.mktemp("acceptance_runs")
    start = time.time()
    for seed in SEEDS:
        cfg = ExperimentConfig.from_dict({**BASE_RAW, "seed": seed})
        out_dir = root / f"select_s{seed}"
        runs[("select", seed)] = run_experiment(cfg, out_dir=out_dir)
        runs["out_dirs"][seed] = out_dir
        runs[("vanilla", seed)] = run_experiment(cfg.replace(mode="vanilla"))
        runs[("nojitter", seed)] = run_experiment(cfg.replace(jitter=0.0))
        runs[("adjacent", seed)] = run_experiment(
            cfg.replace(pairing_override=[[1, 2], [3, 4]])
        )
        runs[("regr", seed)] = run_experiment(cfg.replace(mode="select_regr"))
    runs["elapsed"] = time.time() - start
    runs["root"] = root
    return runs


def test_criterion_1_matching_enumeration_and_selection_oracle() -> None:
    start = time.time()
    double_factorial = {4: 3, 6: 15, 8: 105}
    counts_ok = all(
        len(list_perfect_matchings(F)) == expected
        for F, expected in double_factorial.items()
    )
    agree = True
    for F in (4, 6, 8):
        rng = np.random.default_rng(1000 + F)
        matchings = list_perfect_matchings(F)
        for _ in range(100):
            raw = rng.random((F, F))
            weights = (raw + raw.T) / 2.0
            np.fill_diagonal(weights, 0.0)
            best, best_score = None, (-np.inf, -np.inf)
            for matching in matchings:
                score = matching_score(matching, weights)
                if score > best_score:
                    best, best_score = matching, score
            if select_contrastive_pairing(weights).pairs != best:
                agree = False
    elapsed = time.time() - start
    ok = counts_ok and agree and elapsed < 5.0
    assert report(
        1, ok,
        f"counts 3/15/105 {'ok' if counts_ok else 'WRONG'}, "
        f"300 brute-force scans {'agree' if agree else 'DISAGREE'}, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_stride_pairing_on_populated_fragments() -> None:
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 100.0, 6000)
    y[0], y[1] = 0.0, 100.0
    from fragpair.data import Dataset
    from fragpair.fragments import fragment_edge_weights

    ds = Dataset(x=y[:, None].copy(), y=y)
    got4 = select_contrastive_pairing(
        fragment_edge_weights(ds, fragment_labels(ds, 4))
    ).pairs
    got6 = select_contrastive_pairing(
        fragment_edge_weights(ds, fragment_labels(ds, 6))
    ).pairs
    ok = got4 == ((1, 3), (2, 4)) and got6 == ((1, 4), (2, 5), (3, 6))
    assert report(2, ok, f"F=4 -> {got4}, F=6 -> {got6}")


def test_criterion_3_gradient_check_twenty_random_nets() -> None:
    start = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    for trial in range(20):
        activation = "tanh" if trial % 2 == 0 else "relu"
        hidden = tuple(int(h) for h in rng.integers(2, 7, size=int(rng.integers(1, 3))))
        net = init_net(NetSpec(3, hidden, 1, activation, seed=trial))
        X = rng.normal(size=(8, 3))
        if activation == "relu":
            X += 0.3
        for loss in ("mse", "bce_logits"):
            T = (
                rng.normal(size=(8, 1))
                if loss == "mse"
                else (rng.random((8, 1)) > 0.5).astype(float)
            )
            worst = max(worst, gradient_check(net, X, T, loss, eps=1e-5))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 10.0
    assert report(3, ok, f"max relative error {worst:.2e} < 1e-4, {elapsed:.2f}s < 10s")


def test_criterion_4_metric_identities() -> None:
    from fragpair.data import generate_synthetic, inject_symmetric_noise, Dataset

    ds = inject_symmetric_noise(
        generate_synthetic(1000, 2, 0.0, 100.0, 0.1, seed=5), 0.4, seed=6
    )
    full = error_residual_ratio(np.arange(ds.n), ds)
    clean_only = error_residual_ratio(np.flatnonzero(ds.y == ds.y_gt), ds)
    rate_full = selection_rate(np.arange(ds.n), ds)
    sel = np.arange(0, ds.n, 3)
    affine = Dataset(x=ds.x.copy(), y=2.0 * ds.y + 5.0, y_gt=2.0 * ds.y_gt + 5.0)
    drift = abs(error_residual_ratio(sel, affine) - error_residual_ratio(sel, ds))
    ok = (
        full == 1.0
        and clean_only == 0.0
        and mrae(3.7, 3.7) == 0.0
        and rate_full == 1.0
        and drift < 1e-12
    )
    assert report(
        4, ok,
        f"ERR(D)={full}, ERR(clean)={clean_only}, MRAE(rho,rho)=0, "
        f"rate(D)={rate_full}, affine drift {drift:.2e} < 1e-12",
    )


def test_criterion_5_prior_distribution_and_argmax() -> None:
    rng = np.random.default_rng(55)
    worst_sum = 0.0
    argmax_ok = True
    for _ in range(1000):
        F = int(rng.choice([4, 6, 8, 10]))
        lo = rng.uniform(-50.0, 0.0)
        hi = lo + rng.uniform(10.0, 200.0)
        means = np.sort(rng.uniform(lo, hi, F))
        y = rng.uniform(lo, hi)
        rho = prior_rows(np.asarray([y]), means, hi - lo)[0]
        worst_sum = max(worst_sum, abs(rho.sum() - 1.0))
        if rho.argmax() != np.abs(means - y).argmin():
            argmax_ok = False
    ok = worst_sum < 1e-12 and argmax_ok
    assert report(
        5, ok,
        f"1000 priors: max |sum-1| {worst_sum:.2e} < 1e-12, nearest-mean argmax "
        f"{'ok' if argmax_ok else 'VIOLATED'}",
    )


def test_criterion_6_bernoulli_sampling_concentration() -> None:
    p = np.full(10000, 0.5)
    outcome = bernoulli_select(p, p, seed=0, epoch=1)
    rate = len(outcome.combine("pred_only")) / 10000
    ok = 0.48 <= rate <= 0.52
    assert report(6, ok, f"|S^p|/|D| = {rate:.4f} in [0.48, 0.52]")


def test_criterion_7_noise_robustness_over_vanilla(battery) -> None:
    per_seed = []
    details = []
    for seed in SEEDS:
        select = battery[("select", seed)]
        vanilla = battery[("vanilla", seed)]
        cfg = ExperimentConfig.from_dict({**BASE_RAW, "seed": seed})
        train, _ = prepare_splits(cfg)
        n_selected = select.final["n_selected"]
        rand_rng = np.random.default_rng(9000 + seed)
        rand_errs = [
            error_residual_ratio(
                rand_rng.choice(train.n, size=n_selected, replace=False), train
            )
            for _ in range(5)
        ]
        err_random = float(np.mean(rand_errs))
        err = select.final_err
        conds = (
            err <= 0.7,
            err <= 0.9 * err_random,
            select.final_selection_rate >= 0.4,
            select.final_mae <= 0.85 * vanilla.final_mae,
        )
        per_seed.append(all(conds))
        details.append(
            f"s{seed}: err={err:.3f} rand={err_random:.3f} "
            f"rate={select.final_selection_rate:.3f} "
            f"mae={select.final_mae:.2f}/{vanilla.final_mae:.2f}"
        )
    runtime_ok = battery["elapsed"] < 300.0
    ok = majority(per_seed) and runtime_ok
    assert report(
        7, ok,
        f"{sum(per_seed)}/3 seeds pass all conditions "
        f"({'; '.join(details)}); battery {battery['elapsed']:.0f}s < 300s",
    )


def test_criterion_8_jittering_reduces_selection_error(battery) -> None:
    flags = []
    details = []
    for seed in SEEDS:
        jittered = battery[("select", seed)].final_err
        unjittered = battery[("nojitter", seed)].final_err
        flags.append(jittered <= unjittered)
        details.append(f"s{seed}: {jittered:.3f} vs {unjittered:.3f}")
    ok = majority(flags)
    assert report(8, ok, f"jittered <= unjittered in {sum(flags)}/3 seeds ({'; '.join(details)})")


def test_criterion_9_contrastive_beats_adjacent_pairing(battery) -> None:
    flags = []
    details = []
    for seed in SEEDS:
        contrastive = battery[("select", seed)].final_err
        adjacent = battery[("adjacent", seed)].final_err
        flags.append(contrastive <= adjacent)
        details.append(f"s{seed}: {contrastive:.3f} vs {adjacent:.3f}")
    ok = majority(flags)
    assert report(9, ok, f"contrastive <= adjacent in {sum(flags)}/3 seeds ({'; '.join(details)})")


def test_criterion_10_classifier_experts_beat_regression_experts(battery) -> None:
    flags = []
    details = []
    for seed in SEEDS:
        classifier = battery[("select", seed)].final_mae
        regression = battery[("regr", seed)].final_mae
        flags.append(classifier <= regression)
        details.append(f"s{seed}: {classifier:.2f} vs {regression:.2f}")
    ok = majority(flags)
    assert report(10, ok, f"classifier <= regression MAE in {sum(flags)}/3 seeds ({'; '.join(details)})")


def test_criterion_11_rerun_byte_reproduces_metrics(battery) -> None:
    seed = SEEDS[0]
    cfg = ExperimentConfig.from_dict({**BASE_RAW, "seed": seed})
    rerun_dir = battery["root"] / "select_s0_rerun"
    run_experiment(cfg, out_dir=rerun_dir)
    first = (battery["out_dirs"][seed] / "metrics.jsonl").read_bytes()
    second = (rerun_dir / "metrics.jsonl").read_bytes()
    ok = first == second
    assert report(11, ok, f"metrics.jsonl byte-identical across reruns ({len(first)} bytes)")
