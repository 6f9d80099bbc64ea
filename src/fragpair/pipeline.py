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

from .config import ExperimentConfig
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
    FragmentationScheme,
    Pairing,
    fragment_edge_weights,
    fragment_labels,
    jitter_scheme,
    select_contrastive_pairing,
)
from .metrics import MetricsReport, error_residual_ratio, mae, mrae, selection_rate
from .net import Net, NetSpec, forward_batch, init_net, save_net, train_epoch
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
    rho: Optional[float] = None
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


def load_source_dataset(cfg: ExperimentConfig) -> Dataset:
    src = cfg.dataset
    if src["kind"] == "synthetic":
        return generate_synthetic(
            n=src["n"],
            d=src["d"],
            label_lo=src["label_lo"],
            label_hi=src["label_hi"],
            feature_noise_std=src["feature_noise_std"],
            seed=derive_seed(cfg.seed, "data"),
        )
    return load_csv(
        src["path"],
        feature_cols=src["feature_cols"],
        label_col=src["label_col"],
        gt_col=src["gt_col"],
    )


def prepare_splits(
    cfg: ExperimentConfig, use_ground_truth: bool = False
) -> tuple[Dataset, Dataset]:
    """Load, (optionally) corrupt and split the data.

    With ``use_ground_truth`` the observed labels are replaced by ground truth
    and no noise is injected: the setup of a noise-free reference run.
    """
    ds = load_source_dataset(cfg)
    if use_ground_truth:
        if ds.y_gt is None:
            raise PipelineError("reference run requires ground-truth labels")
        ds = Dataset(x=ds.x.copy(), y=ds.y_gt.copy(), y_gt=ds.y_gt.copy())
    elif cfg.noise is not None:
        noise_seed = cfg.noise["seed"]
        if noise_seed is None:
            noise_seed = derive_seed(cfg.seed, "noise")
        if cfg.noise["kind"] == "symmetric":
            ds = inject_symmetric_noise(ds, cfg.noise["rate"], noise_seed)
        else:
            ds = inject_gaussian_noise(ds, cfg.noise["max_std_frac"], noise_seed)
    return split_dataset(ds, cfg.test_frac, derive_seed(cfg.seed, "split"))


def resolve_pairing(cfg: ExperimentConfig, train: Dataset, scheme) -> Pairing:
    if cfg.pairing_override is not None:
        return Pairing.from_json(cfg.pairing_override)
    return select_contrastive_pairing(fragment_edge_weights(train, scheme))


def _predict_labels(reg: Net, X: np.ndarray, lo: float, span: float) -> np.ndarray:
    out, _ = forward_batch(reg, X)
    return lo + out[:, 0] * span


class _ArtifactWriter:
    """Single-threaded appenders for the run directory."""

    def __init__(self, out_dir: Optional[Path]):
        self.out_dir = out_dir
        self._tails: Optional[list[str]] = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "selection").mkdir(exist_ok=True)
            self._metrics = (out_dir / "metrics.jsonl").open("w")
        else:
            self._metrics = None

    def metrics_line(self, record: dict) -> None:
        if self._metrics is not None:
            self._metrics.write(json.dumps(record) + "\n")

    def selection_epoch(self, epoch: int, outcome: SelectionOutcome, train: Dataset) -> None:
        # The labels never change during a run: format their row tails once.
        if self._tails is None:
            self._tails = SelectionOutcome.jsonl_tails(train)
        path = self.out_dir / "selection" / f"epoch_{epoch:04d}.jsonl"
        path.write_text(outcome.jsonl(self._tails))

    def close(self) -> None:
        if self._metrics is not None:
            self._metrics.close()


def _write_final_artifacts(
    out_dir: Path,
    cfg: ExperimentConfig,
    scheme: FragmentationScheme,
    pairing: Optional[Pairing],
    ens: Optional[ExpertEnsemble],
    reg: Net,
    result: RunResult,
) -> None:
    with (out_dir / "config.json").open("w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    layout: dict = {"fragmentation": scheme.to_json()}
    if pairing is not None:
        layout["pairing"] = pairing.to_json()
        layout["jitter_deltas"] = [rec.get("jitter_delta") for rec in result.history]
    with (out_dir / "layout.json").open("w") as fh:
        json.dump(layout, fh, indent=2, sort_keys=True)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    save_net(reg, ckpt_dir / "regressor.npz")
    if ens is not None:
        for (i, j), net in ens.experts.items():
            save_net(net, ckpt_dir / f"expert_{i}_{j}.npz")
    write_summary_csv(out_dir / "summary.csv", [summary_row(cfg, result)])


def summary_row(cfg: ExperimentConfig, result: RunResult) -> dict:
    noise = cfg.noise or {}
    final = result.final
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
        "rho": result.rho if result.rho is not None else "",
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


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str | Path] = None,
    use_ground_truth: bool = False,
) -> RunResult:
    """Execute the full seeded loop; write artifacts when ``out_dir`` is given.

    A failed run still leaves the metrics of its finished epochs on disk.
    """
    stage = "prepare"
    epoch = 0
    writer: Optional[_ArtifactWriter] = None
    try:
        train, test = prepare_splits(cfg, use_ground_truth=use_ground_truth)
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
            pairing = resolve_pairing(cfg, train, scheme)
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

        writer = _ArtifactWriter(Path(out_dir) if out_dir is not None else None)
        result = RunResult(config=cfg, pairing=pairing, rho=cfg.reference_rho)
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
                if writer.out_dir is not None:
                    writer.selection_epoch(epoch, outcome, train)
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
            epoch_mae = mae(_predict_labels(reg, test.x, lo, span), eval_targets)
            err = (
                error_residual_ratio(selected, train)
                if train.y_gt is not None
                else None
            )
            report = MetricsReport(
                epoch=epoch,
                mae=epoch_mae,
                selection_rate=selection_rate(selected, train),
                err=err,
                mrae=mrae(epoch_mae, cfg.reference_rho)
                if cfg.reference_rho is not None
                else None,
            )
            record.update(report.to_json())
            result.history.append(record)
            writer.metrics_line(record)

        if writer.out_dir is not None:
            result.out_dir = writer.out_dir
            _write_final_artifacts(writer.out_dir, cfg, scheme, pairing, ens, reg, result)
        return result
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"epoch {epoch}, stage {stage}: {exc}") from exc
    finally:
        if writer is not None:
            writer.close()


def run_noise_free_reference(
    cfg: ExperimentConfig, out_dir: Optional[str | Path] = None
) -> tuple[float, RunResult]:
    """Train the same regressor on ground-truth labels; returns its held-out MAE.

    This is exactly vanilla mode with noise disabled, and supplies the
    denominator for relative-error reporting.
    """
    ref_cfg = cfg.replace(mode="vanilla", noise=None, reference_rho=None)
    result = run_experiment(ref_cfg, out_dir=out_dir, use_ground_truth=True)
    return result.final_mae, result


def compare_pairings(
    cfg: ExperimentConfig,
    pairings: list,
    out_path: Optional[str | Path] = None,
) -> list[dict]:
    """Run the experiment once per pairing with shared seeds; one row each."""
    seen: set[tuple] = set()
    rows = []
    for raw in pairings:
        pairing = Pairing.from_json(raw)
        if pairing.pairs in seen:
            warnings.warn(f"duplicate pairing {pairing.to_json()} skipped")
            continue
        seen.add(pairing.pairs)
        run_cfg = cfg.replace(pairing_override=[list(p) for p in pairing.pairs])
        result = run_experiment(run_cfg)
        rows.append(
            {
                "pairing": ";".join(f"{i}-{j}" for i, j in pairing.pairs),
                "final_err": result.final.get("err", ""),
                "final_selection_rate": result.final_selection_rate,
                "final_mae": result.final_mae,
            }
        )
    if out_path is not None and rows:
        write_summary_csv(Path(out_path), rows)
    return rows
