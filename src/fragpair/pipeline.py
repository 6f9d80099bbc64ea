"""End-to-end experiment loop: data, pairing, per-epoch train/select/regress, artifacts.

Each epoch re-jitters the fragment boundaries, trains every pair expert for
one epoch on its jittered fragments, rebuilds the feature banks, samples the
clean set from both agreement variants and advances the downstream regressor
one epoch on the selected samples.  Held-out evaluation uses clean labels.
"""

from __future__ import annotations

import contextlib
import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import Dataset, generate_synthetic, load_csv, split_dataset
from .data import inject_gaussian_noise, inject_symmetric_noise
from .experts import (
    ExpertEnsemble,
    KShrinkWarning,
    build_feature_bank,
    init_ensemble,
    pair_sets,
    train_experts_epoch,
)
from .fragments import (
    FragmentationError,
    Pairing,
    fragment_edge_weights,
    fragment_labels,
    jitter_scheme,
    select_contrastive_pairing,
)
from .metrics import error_residual_ratio, mae, mrae, selection_rate
from .net import NetSpec, forward_batch, init_net, save_net, train_epoch
# Not called here; benchmark/tracing.py patches pipeline.train_step.
from .net import train_step  # noqa: F401
from .rng import derive_seed, stream
from .selection import SelectionOutcome, select_clean


class PipelineError(RuntimeError):
    """Wraps stage failures with the epoch and stage that produced them."""


@dataclass
class RunResult:
    config: ExperimentConfig
    pairing: Optional[Pairing]
    history: list[dict] = field(default_factory=list)
    out_dir: Optional[Path] = None
    last_selection: Optional[SelectionOutcome] = None

    @property
    def final(self) -> dict:
        return self.history[-1]

    @property
    def final_mae(self) -> float:
        return self.final["mae"]

    @property
    def final_err(self) -> Optional[float]:
        return self.final.get("err")

    @property
    def final_selection_rate(self) -> float:
        return self.final["selection_rate"]


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    """The config's source with the config's noise applied: the data a run splits."""
    src = cfg.dataset
    if src["kind"] == "synthetic":
        ds = generate_synthetic(
            n=src["n"],
            d=src["d"],
            label_lo=src["label_lo"],
            label_hi=src["label_hi"],
            feature_noise_std=src["feature_noise_std"],
            seed=derive_seed(cfg.seed, "data"),
        )
    else:
        ds = load_csv(
            src["path"],
            feature_cols=src["feature_cols"],
            label_col=src["label_col"],
            gt_col=src["gt_col"],
        )
    if cfg.noise is None:
        return ds
    noise_seed = cfg.noise["seed"]
    if noise_seed is None:
        noise_seed = derive_seed(cfg.seed, "noise")
    if cfg.noise["kind"] == "symmetric":
        return inject_symmetric_noise(ds, cfg.noise["rate"], noise_seed)
    return inject_gaussian_noise(ds, cfg.noise["max_std_frac"], noise_seed)


def prepare_splits(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Split the config's data (:func:`load_dataset`) into (train, test) by its seed."""
    return split_dataset(load_dataset(cfg), cfg.test_frac, derive_seed(cfg.seed, "split"))


def summary_row(cfg: ExperimentConfig, final: dict) -> dict:
    """One ``summary.csv`` row from a run's config and its last epoch record."""
    noise = cfg.noise or {}
    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "mode": cfg.mode,
        "noise_kind": noise.get("kind", "none"),
        "noise_param": noise.get("rate", noise.get("max_std_frac", "")),
        "fragments": cfg.fragments,
        "jitter": cfg.jitter,
        "knn_k": cfg.knn_k,
        "epochs": cfg.epochs,
        "final_mae": final["mae"],
        "final_selection_rate": final["selection_rate"],
        "final_err": final.get("err", ""),
        "final_mrae": final.get("mrae", ""),
        "rho": cfg.reference_rho if cfg.reference_rho is not None else "",
    }


def write_summary_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


@contextlib.contextmanager
def _first_k_shrink_only(shown: set):
    """Show the warnings raised in the block, but no K-shrink warning after the run's first.

    The K-NN vote shrinks K, and warns, on every call whose bank is too
    small, for every pair and epoch.  ``shown`` holds the categories the run
    has shown once.  The filters apply where each warning is raised.
    """
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        for w in caught:
            if issubclass(w.category, KShrinkWarning):
                if KShrinkWarning in shown:
                    continue
                shown.add(KShrinkWarning)
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str | Path] = None) -> RunResult:
    """Execute the full seeded loop; write the run directory when ``out_dir`` is given.

    The directory is written in run order: ``config.json`` and an open
    ``metrics.jsonl`` first, then each epoch's ``selection/epoch_NNNN.jsonl``
    and metrics line, and last ``layout.json``, ``checkpoints/`` and
    ``summary.csv``.  A failed run keeps ``config.json`` and the metrics lines
    and selection files of its finished epochs.
    """
    stage = "artifacts"
    epoch = 0
    out_dir = Path(out_dir) if out_dir is not None else None
    metrics_fh = None
    try:
        if out_dir is not None:
            (out_dir / "selection").mkdir(parents=True, exist_ok=True)
            config_text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
            (out_dir / "config.json").write_text(config_text)
            metrics_fh = (out_dir / "metrics.jsonl").open("w")

        stage = "prepare"
        train, test = prepare_splits(cfg)
        eval_targets = test.y_gt if test.y_gt is not None else test.y
        lo, span = train.label_min, train.label_range
        norm_targets = (train.y - lo) / span

        stage = "fragment"
        scheme = fragment_labels(train, cfg.fragments)
        pairing: Optional[Pairing] = None
        ens: Optional[ExpertEnsemble] = None
        if cfg.mode != "vanilla":
            stage = "pairing"
            empty = [str(f) for f in np.flatnonzero(scheme.counts == 0) + 1]
            if empty:
                raise FragmentationError(
                    f"empty fragment {', '.join(empty)}: every pair expert needs both its fragments"
                )
            if cfg.pairing_override is not None:
                pairing = Pairing.from_json(cfg.pairing_override)
            else:
                pairing = select_contrastive_pairing(fragment_edge_weights(train, scheme))
            ens = init_ensemble(
                pairing,
                input_dim=train.d,
                hidden_dims=cfg.expert_net.hidden_dims,
                activation=cfg.expert_net.activation,
                seed=derive_seed(cfg.seed, "experts"),
                objective="classify" if cfg.mode == "select" else "regress",
                label_lo=lo,
                label_range=span,
            )

        reg = init_net(
            NetSpec(
                input_dim=train.d,
                hidden_dims=cfg.regressor_net.hidden_dims,
                output_dim=1,
                activation=cfg.regressor_net.activation,
                seed=derive_seed(cfg.seed, "regressor"),
            )
        )

        result = RunResult(config=cfg, pairing=pairing, out_dir=out_dir)
        # The labels never change during a run: format their selection-row tails once.
        paired_dir = out_dir is not None and ens is not None
        tails = SelectionOutcome.jsonl_tails(train) if paired_dir else None
        shown: set = set()

        for epoch in range(1, cfg.epochs + 1):
            record: dict = {"epoch": epoch}
            if ens is not None:
                stage = "jitter"
                js = jitter_scheme(scheme, cfg.jitter, cfg.seed, epoch)
                record["jitter_delta"] = js.delta

                stage = "train_experts"
                sets = pair_sets(pairing, js, train.y)
                losses = train_experts_epoch(
                    ens,
                    train,
                    sets,
                    cfg.expert_lr,
                    cfg.batch_size,
                    derive_seed(cfg.seed, "expert_epoch", epoch),
                )
                record["expert_loss"] = float(np.mean(list(losses.values())))

                stage = "build_banks"
                banks = build_feature_bank(ens, train, sets)

                stage = "select"
                with _first_k_shrink_only(shown):
                    outcome = select_clean(train, ens, scheme, banks, cfg.knn_k, cfg.seed, epoch)
                selected = outcome.combine(cfg.selection_combine)
                record["n_pred"] = int(outcome.chosen_pred.sum())
                record["n_repr"] = int(outcome.chosen_repr.sum())
                result.last_selection = outcome
                if tails is not None:
                    path = out_dir / "selection" / f"epoch_{epoch:04d}.jsonl"
                    path.write_text(outcome.jsonl(tails))
            else:
                selected = np.arange(train.n)

            record["n_selected"] = int(len(selected))

            stage = "train_regressor"
            if len(selected) == 0:
                warnings.warn(f"epoch {epoch}: empty selection, regressor skips the epoch")
            else:
                shuffle = stream(derive_seed(cfg.seed, "regressor_epoch", epoch), "regressor_shuffle")
                order = shuffle.permutation(len(selected))
                record["regressor_loss"] = train_epoch(
                    reg, train.x, norm_targets, selected[order], "mse",
                    cfg.regressor_lr, cfg.batch_size,
                )

            stage = "evaluate"
            out, _ = forward_batch(reg, test.x)
            record["mae"] = mae(lo + out[:, 0] * span, eval_targets)
            record["selection_rate"] = selection_rate(selected, train)
            # Undefined metrics stay absent from the record.
            err = error_residual_ratio(selected, train) if train.y_gt is not None else None
            if err is not None:
                record["err"] = err
            if cfg.reference_rho is not None:
                record["mrae"] = mrae(record["mae"], cfg.reference_rho)
            result.history.append(record)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(record) + "\n")

        if out_dir is not None:
            stage = "artifacts"
            layout: dict = {"fragmentation": scheme.to_json()}
            if pairing is not None:
                layout["pairing"] = pairing.to_json()
                layout["jitter_deltas"] = [rec.get("jitter_delta") for rec in result.history]
            (out_dir / "layout.json").write_text(json.dumps(layout, indent=2, sort_keys=True))
            ckpt_dir = out_dir / "checkpoints"
            ckpt_dir.mkdir(exist_ok=True)
            save_net(reg, ckpt_dir / "regressor.npz")
            if ens is not None:
                for (i, j), net in ens.experts.items():
                    save_net(net, ckpt_dir / f"expert_{i}_{j}.npz")
            write_summary_csv(out_dir / "summary.csv", [summary_row(cfg, result.final)])
        return result
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"epoch {epoch}, stage {stage}: {exc}") from exc
    finally:
        if metrics_fh is not None:
            metrics_fh.close()


def run_noise_free_reference(
    cfg: ExperimentConfig, out_dir: Optional[str | Path] = None
) -> tuple[float, RunResult]:
    """Run the noise-free reference derived from ``cfg``; returns its held-out MAE.

    The reference is a config of its own: ``cfg`` in vanilla mode with no
    noise and no ``reference_rho``, and a csv source reads its labels from
    ``gt_col``.  So its ``config.json`` reruns it.  Its MAE is the
    denominator of relative-error reporting.
    """
    dataset = cfg.dataset
    if dataset["kind"] == "csv":
        if dataset["gt_col"] is None:
            raise ConfigError("dataset.gt_col: required for the noise-free reference of a csv source")
        dataset = dict(dataset, label_col=dataset["gt_col"])
    ref_cfg = cfg.replace(mode="vanilla", noise=None, reference_rho=None, dataset=dataset)
    result = run_experiment(ref_cfg, out_dir=out_dir)
    return result.final_mae, result


def compare_pairings(
    cfg: ExperimentConfig,
    pairings: list,
    out_path: Optional[str | Path] = None,
) -> list[dict]:
    """Run the experiment once per distinct pairing with shared seeds; one row each.
    Every pairing is canonicalised and checked as a config before the first run."""
    run_cfgs: dict[tuple, ExperimentConfig] = {}
    for raw in pairings:
        run_cfg = cfg.replace(pairing_override=raw)
        if run_cfg.pairing_override in run_cfgs:
            warnings.warn(f"duplicate pairing {[list(p) for p in run_cfg.pairing_override]} skipped")
            continue
        run_cfgs[run_cfg.pairing_override] = run_cfg
    rows = []
    for pairs, run_cfg in run_cfgs.items():
        result = run_experiment(run_cfg)
        rows.append(
            {
                "pairing": ";".join(f"{i}-{j}" for i, j in pairs),
                "final_err": result.final.get("err", ""),
                "final_selection_rate": result.final_selection_rate,
                "final_mae": result.final_mae,
            }
        )
    if out_path is not None and rows:
        write_summary_csv(Path(out_path), rows)
    return rows
