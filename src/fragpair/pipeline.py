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
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, TextIO

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import Dataset, generate_synthetic, load_csv, split_dataset
from .data import inject_gaussian_noise, inject_symmetric_noise
from .experts import (
    Experts,
    KShrinkWarning,
    Pair,
    PairSets,
    Passes,
    build_feature_bank,
    init_ensemble,
    knn_votes,
    pair_sets,
    pred_winners,
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
from .selection import SelectionOutcome, SelectionText, select_clean


class PipelineError(RuntimeError):
    """A stage failure, naming its ``epoch`` (0 before the first) and stage."""


def _stage_error(epoch: int, stage: str, exc: Exception) -> PipelineError:
    """The error for ``exc``, raised at ``stage`` of ``epoch`` and named its cause."""
    error = PipelineError(f"epoch {epoch}, stage {stage}: {exc}")
    error.epoch = epoch
    error.__cause__ = exc
    return error


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
    src = dict(cfg.dataset)
    if src.pop("kind") == "synthetic":
        ds = generate_synthetic(**src, seed=derive_seed(cfg.seed, "data"))
    else:
        ds = load_csv(**src)
    if cfg.noise is None:
        return ds
    noise = dict(cfg.noise)
    inject = inject_symmetric_noise if noise.pop("kind") == "symmetric" else inject_gaussian_noise
    if noise["seed"] is None:
        noise["seed"] = derive_seed(cfg.seed, "noise")
    return inject(ds, **noise)


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


def write_summary_csv(fh: TextIO, rows: list[dict]) -> None:
    """Write :func:`summary_row` rows, a header first, as CSV to the text stream ``fh``."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def _vote(job: tuple[int, dict]) -> tuple[dict, list]:
    """Every pair's :func:`knn_votes`, for a job of K and (features, rows, tags)
    per pair, of every row against the features at its rows; and the warnings raised."""
    K, sets = job
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        winners = {pair: knn_votes(feats[rows], tags, feats, K, pair)
                   for pair, (feats, rows, tags) in sets.items()}
    return winners, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _serve_votes(conn, parent_end) -> None:
    """The vote worker's loop: a job in, its :func:`_vote` or exception out."""
    import signal

    # Ctrl-C reaches the whole process group; the run's process ends the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            reply = _vote(job)
        except Exception as exc:
            reply = exc
        conn.send(reply)


class _Votes:
    """A run's K-NN votes, one epoch at a time: :meth:`submit` takes the
    epoch's pair sets and pass, and :meth:`collect` returns every pair's winners.

    Where more than one CPU is usable, a worker process forked for the run
    computes them between the two calls; otherwise :meth:`collect` does.
    """

    def __init__(self, K: int) -> None:
        self.K = K
        # Whether a vote has shrunk K yet: the run warns of it once.
        self.shrunk = False
        # The job handed over and not yet collected.
        self.job: Optional[tuple[int, dict]] = None
        self.proc = None
        if _usable_cpus() < 2:
            return
        # Imported here: the import takes about 10 ms, which vanilla runs and
        # one-CPU hosts need not pay.
        import multiprocessing

        if multiprocessing.current_process().daemon:  # a Pool worker starts no process
            return
        # A forked worker starts in milliseconds with numpy and fragpair
        # loaded; spawn or forkserver would import them again.
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve_votes, args=(child_end, self.conn), daemon=True)
        self.proc.start()
        child_end.close()

    def submit(self, sets: PairSets, passes: Passes) -> None:
        # Recorded first: a send cut short may leave the worker with the job.
        self.job = self.K, {pair: (passes[pair][1], rows, tags) for pair, (rows, tags) in sets.items()}
        if self.proc is not None:
            # A worker that is gone is reported, with its exit code, by collect.
            with contextlib.suppress(ConnectionError):
                self.conn.send(self.job)

    def collect(self) -> dict[Pair, np.ndarray]:
        if self.proc is None:
            reply = _vote(self.job)
        else:
            try:
                reply = self.conn.recv()
            except (EOFError, ConnectionError):  # the worker is gone, its job read or not
                self.proc.join()
                raise RuntimeError(f"K-NN vote worker exited with code {self.proc.exitcode}") from None
        self.job = None
        if isinstance(reply, Exception):
            raise reply
        winners, caught = reply
        # One registry per epoch, as the select stage's own warnings have;
        # the run's first K shrink is shown and the rest are dropped.
        registry: dict = {}
        for message, category, filename, lineno in caught:
            shrink = category is KShrinkWarning
            if not (shrink and self.shrunk):
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            self.shrunk |= shrink
        return winners

    def close(self) -> None:
        if self.proc is None:
            return
        if self.job is not None:  # a vote nobody will collect
            # Ended before the pipe closes, so that it never writes to or
            # reads from a closed pipe.
            self.proc.terminate()
        self.conn.close()
        self.proc.join()
        self.proc.close()


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str | Path] = None) -> RunResult:
    """Execute the full seeded loop; write the run directory when ``out_dir`` is given.

    The directory is written in run order: ``config.json`` and an empty
    ``metrics.jsonl`` first, then each epoch's ``selection/epoch_NNNN.jsonl``
    and metrics line, each file closed before the next epoch, and last
    ``layout.json``, ``checkpoints/`` and ``summary.csv``.  A failed run keeps
    ``config.json`` and the metrics lines and selection files of its finished
    epochs.  A rerun into a used directory first deletes the files a run
    writes there: ``selection/epoch_*.jsonl``, ``checkpoints/*.npz``,
    ``layout.json`` and ``summary.csv``.

    **Overlapped votes.**  The experts train on jittered fragments only, never
    on a selection, so epoch e's K-NN votes and epoch e+1's expert training
    are independent.  In ``select`` and ``select_regr`` modes, while epoch e's
    votes (``experts.knn_votes`` for every pair) are computed, this process
    does epoch e+1's jitter, pair sets, expert training and expert pass.  It
    then collects e's votes, hands over e+1's sets and pass with the run's K,
    and finishes epoch e (selection, regressor, evaluation and e's files)
    while e+1's votes are computed.  Where more than one CPU is usable
    (``os.sched_getaffinity``), one worker process, forked for the run at its
    first epoch and ended before it returns or raises, computes the votes;
    otherwise this process computes them when it collects them.  Either way
    the same ``_vote`` runs on the same inputs and its warnings are raised
    again here, in the select stage, with one warning registry per epoch.
    K is fitted to each bank inside the vote, and of the votes' warnings that
    K was shrunk to fit a bank only the run's first is shown.  Vanilla runs
    have no votes and no worker.  The bytes do not depend on where or when
    the votes are computed: every random stream is counter-based, keyed by
    epoch and pair, not by the order of draws.

    Failures keep the order of one epoch after another.  A failure of epoch
    e+1's expert half waits until epoch e is finished, then raises naming
    epoch e+1 and its stage.  A failure while finishing epoch e names epoch e,
    and e+1's work is dropped.  A vote that fails or a worker that dies names
    its epoch, stage ``select``: a worker that is gone when e+1's pass is
    handed over is reported when e+1's votes are collected.  Ctrl-C or an
    error while the run waits for a vote ends the worker at once.
    """
    stage = "artifacts"
    epoch = 0
    out_dir = Path(out_dir) if out_dir is not None else None
    votes: Optional[_Votes] = None
    try:
        if out_dir is not None:
            (out_dir / "selection").mkdir(parents=True, exist_ok=True)
            for pattern in ("selection/epoch_*.jsonl", "checkpoints/*.npz", "layout.json", "summary.csv"):
                for stale in out_dir.glob(pattern):
                    stale.unlink()
            config_text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
            (out_dir / "config.json").write_text(config_text)
            (out_dir / "metrics.jsonl").write_text("")

        stage = "prepare"
        train, test = prepare_splits(cfg)
        eval_targets = test.y_gt if test.y_gt is not None else test.y

        stage = "fragment"
        scheme = fragment_labels(train, cfg.fragments)
        lo, span = scheme.label_min, scheme.label_range
        norm_targets = (train.y - lo) / span
        pairing: Optional[Pairing] = None
        experts: Optional[Experts] = None
        # Regression experts regress the regressor's own targets.
        regress = cfg.mode == "select_regr"
        expert_labels = norm_targets if regress else None
        if cfg.mode != "vanilla":
            stage = "pairing"
            empty = [str(f) for f in np.flatnonzero(scheme.counts == 0) + 1]
            if empty:
                raise FragmentationError(
                    f"empty fragment {', '.join(empty)}: every pair expert needs both its fragments"
                )
            if cfg.pairing_override is not None:
                pairing = Pairing(pairs=cfg.pairing_override)
            else:
                pairing = select_contrastive_pairing(fragment_edge_weights(train, scheme))
            experts = init_ensemble(pairing, input_dim=train.d, **cfg.expert_net,
                                    seed=derive_seed(cfg.seed, "experts"))

        reg = init_net(NetSpec(input_dim=train.d, **cfg.regressor_net,
                               seed=derive_seed(cfg.seed, "regressor")))

        result = RunResult(config=cfg, pairing=pairing, out_dir=out_dir)
        selection_text = SelectionText(train) if out_dir is not None and experts is not None else None

        # Epoch e's expert half: its record begun, pair sets and expert pass, or the
        # PipelineError naming e and its stage, raised only when epoch e comes.
        def expert_half(e: int) -> tuple[dict, PairSets, Passes] | PipelineError:
            at = "jitter"
            try:
                js = jitter_scheme(scheme, cfg.jitter, cfg.seed, e)
                record = {"epoch": e, "jitter_delta": js.delta}
                at = "train_experts"
                sets = pair_sets(pairing, js, train.y)
                losses = train_experts_epoch(experts, train, sets, expert_labels, cfg.expert_lr,
                                             cfg.batch_size, derive_seed(cfg.seed, "expert_epoch", e))
                record["expert_loss"] = float(np.mean(list(losses.values())))
                at = "build_banks"
                return record, sets, build_feature_bank(experts, train)
            except Exception as exc:
                return _stage_error(e, at, exc)

        ahead = expert_half(1) if experts is not None else None

        for epoch in range(1, cfg.epochs + 1):
            if experts is None:
                record: dict = {"epoch": epoch}
                selected = np.arange(train.n)
            else:
                if isinstance(ahead, PipelineError):
                    raise ahead
                record, sets, passes = ahead
                stage = "select"
                if votes is None:
                    votes = _Votes(cfg.knn_k)
                    votes.submit(sets, passes)
                # The next epoch's expert half, done while this epoch's votes are.
                ahead = expert_half(epoch + 1) if epoch < cfg.epochs else None
                winners = votes.collect()
                # Handed over before this epoch is finished, so that the next
                # vote runs while it is.
                if isinstance(ahead, tuple):
                    votes.submit(*ahead[1:])
                outcome = select_clean(train, pairing, scheme, pred_winners(scheme, passes, regress),
                                       winners, cfg.seed, epoch)
                selected = outcome.combine(cfg.selection_combine)
                record["n_pred"] = int(outcome.chosen_pred.sum())
                record["n_repr"] = int(outcome.chosen_repr.sum())
                result.last_selection = outcome
                if selection_text is not None:
                    stage = "artifacts"
                    path = out_dir / "selection" / f"epoch_{epoch:04d}.jsonl"
                    path.write_text(selection_text.text(outcome))

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
            record["mae"] = mae(lo + out * span, eval_targets)
            record["selection_rate"] = selection_rate(selected, train)
            # Undefined metrics stay absent from the record.
            err = error_residual_ratio(selected, train) if train.y_gt is not None else None
            if err is not None:
                record["err"] = err
            if cfg.reference_rho is not None:
                record["mrae"] = mrae(record["mae"], cfg.reference_rho)
            result.history.append(record)
            if out_dir is not None:
                stage = "artifacts"
                with (out_dir / "metrics.jsonl").open("a") as fh:
                    fh.write(json.dumps(record) + "\n")

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
            if experts is not None:
                for (i, j), net in experts.items():
                    save_net(net, ckpt_dir / f"expert_{i}_{j}.npz")
            with (out_dir / "summary.csv").open("w", newline="") as fh:
                write_summary_csv(fh, [summary_row(cfg, result.final)])
        return result
    except PipelineError:
        raise
    except Exception as exc:
        raise _stage_error(epoch, stage, exc)
    finally:
        if votes is not None:
            votes.close()


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
