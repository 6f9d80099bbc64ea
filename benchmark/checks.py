"""Output checks computed apart from fragpair, with numpy and the standard library.

Each check raises CheckFailed naming what disagreed.  None of them calls into
fragpair except to reload ``config.json`` (the round trip is what is checked);
callers put fragpair's sources on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np
from fragpair.config import ExperimentConfig


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def max_min_pairing(train_y: np.ndarray, F: int) -> tuple[tuple[int, int], ...]:
    """Brute-force max-min perfect matching of F equal-width label fragments.

    A fragment's distance to another is the label gap between their closest
    samples.  Matchings are enumerated from permutations (pairs of consecutive
    entries, kept in canonical order), scored by (smallest gap, total gap).
    """
    y = np.asarray(train_y, dtype=np.float64)
    lo, hi = y.min(), y.max()
    frag = np.minimum(((y - lo) * F / (hi - lo)).astype(int), F - 1)
    members = [y[frag == f] for f in range(F)]
    require(all(len(m) for m in members), "check covers populated fragments only")
    gap = {(a, b): members[b].min() - members[a].max() for a in range(F) for b in range(a + 1, F)}
    best_score, best = None, None
    for perm in itertools.permutations(range(F)):
        firsts, seconds = perm[0::2], perm[1::2]
        if list(firsts) != sorted(firsts) or any(a > b for a, b in zip(firsts, seconds)):
            continue
        gaps = [gap[a, b] for a, b in zip(firsts, seconds)]
        score = (min(gaps), sum(gaps))
        if best_score is None or score > best_score:
            best_score, best = score, tuple((a + 1, b + 1) for a, b in zip(firsts, seconds))
    return best


def pairing(program_pairs, train_y: np.ndarray, F: int, expect=None) -> None:
    """The program's pairing is the brute-force max-min matching (and ``expect``)."""
    got = tuple(tuple(int(v) for v in p) for p in program_pairs)
    want = max_min_pairing(train_y, F)
    require(got == want, f"pairing {got} is not the max-min matching {want}")
    require(expect is None or got == expect, f"pairing {got} is not {expect}")


def selection(outcome, final: dict, train_y: np.ndarray, train_y_gt: np.ndarray) -> None:
    """Last-epoch union selection, its ``err`` and rate, recomputed from the picks."""
    for name in ("p_pred", "p_repr"):
        p = np.asarray(getattr(outcome, name))
        require(np.all((p >= 0.0) & (p <= 1.0)), f"{name} outside [0, 1]")
    pred = np.asarray(outcome.chosen_pred, dtype=bool)
    repr_ = np.asarray(outcome.chosen_repr, dtype=bool)
    union = np.flatnonzero(pred | repr_)
    require(np.array_equal(outcome.selected_union, union), "selected union is not pred | repr")
    require(final["n_pred"] == pred.sum(), f"n_pred {final['n_pred']} != {pred.sum()} picks")
    require(final["n_repr"] == repr_.sum(), f"n_repr {final['n_repr']} != {repr_.sum()} picks")
    require(final["n_selected"] == len(union), f"n_selected {final['n_selected']} != {len(union)}")
    noise = np.abs(np.asarray(train_y) - np.asarray(train_y_gt))
    err = noise[union].mean() / noise.mean()
    require(_close(err, final["err"], 1e-12), f"err {final['err']} != recomputed {err}")
    rate = len(union) / len(noise)
    require(_close(rate, final["selection_rate"], 1e-12),
             f"selection_rate {final['selection_rate']} != recomputed {rate}")
    require(err < 1.0, f"err {err} is no better than random selection")


def vanilla(final: dict, n_train: int) -> None:
    """Vanilla trains on every sample, so err and selection rate are exactly 1."""
    require(final["err"] == 1.0, f"vanilla err {final['err']} != 1.0")
    require(final["selection_rate"] == 1.0, f"vanilla selection_rate {final['selection_rate']} != 1.0")
    require(final["n_selected"] == n_train, f"vanilla n_selected {final['n_selected']} != {n_train}")


def beats_constant(final_mae: float, train_y: np.ndarray, test_y_gt: np.ndarray) -> None:
    """Held-out MAE below that of predicting the training-label mean everywhere."""
    constant = float(np.abs(np.mean(train_y) - np.asarray(test_y_gt)).mean())
    require(final_mae < constant, f"MAE {final_mae} does not beat the constant predictor's {constant}")


def checkpoint_mae(path: Path, test_x: np.ndarray, test_y_gt: np.ndarray, train_y: np.ndarray) -> float:
    """Held-out MAE of a saved regressor, from its raw arrays."""
    with np.load(path) as archive:
        spec = json.loads(archive["spec"].tobytes().decode())
        layers = [(archive[f"w{k}"], archive[f"b{k}"]) for k in range(len(spec["hidden_dims"]) + 1)]
    h = np.asarray(test_x, dtype=np.float64)
    for W, b in layers[:-1]:
        z = h @ W.T + b
        h = np.maximum(z, 0.0) if spec["activation"] == "relu" else np.tanh(z)
    W, b = layers[-1]
    lo, hi = float(np.min(train_y)), float(np.max(train_y))
    pred = lo + (h @ W.T + b)[:, 0] * (hi - lo)
    return float(np.abs(pred - np.asarray(test_y_gt)).mean())


def run_dir(run: Path, cfg, train, test, expected_pairs) -> dict:
    """A finished run directory is whole and agrees with itself; returns its last record."""
    run = Path(run)
    records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
    require([r["epoch"] for r in records] == list(range(1, cfg.epochs + 1)),
             f"metrics.jsonl holds epochs {[r['epoch'] for r in records][:3]}..., not 1..{cfg.epochs}")
    last = records[-1]

    names = sorted(p.name for p in (run / "selection").iterdir())
    require(names == [f"epoch_{e:04d}.jsonl" for e in range(1, cfg.epochs + 1)],
             f"selection/ holds {len(names)} files, not one per epoch")
    for name in names:
        with (run / "selection" / name).open() as fh:
            n_rows = sum(1 for _ in fh)
        require(n_rows == train.n, f"selection/{name} has {n_rows} rows, not {train.n}")
    rows = [json.loads(line) for line in (run / "selection" / names[-1]).read_text().splitlines()]
    require([r["index"] for r in rows] == list(range(train.n)), "last selection file rows out of order")
    require(np.array_equal([r["y"] for r in rows], train.y), "last selection file labels differ")
    pred = np.array([r["chosen_pred"] for r in rows])
    repr_ = np.array([r["chosen_repr"] for r in rows])
    union = np.flatnonzero(pred | repr_)
    require((last["n_pred"], last["n_repr"], last["n_selected"]) == (pred.sum(), repr_.sum(), len(union)),
             "last selection file picks disagree with metrics.jsonl counts")
    noise = np.abs(train.y - train.y_gt)
    err = noise[union].mean() / noise.mean()
    require(_close(err, last["err"], 1e-12), f"err {last['err']} != {err} from the selection file")

    loaded = ExperimentConfig.from_file(run / "config.json")
    summary = list(csv.DictReader(io.StringIO((run / "summary.csv").read_text())))
    require(len(summary) == 1, f"summary.csv holds {len(summary)} rows")
    require(loaded.config_hash() == summary[0]["config_hash"], "config.json does not reload to its hash")
    require(cfg.replace(reference_rho=loaded.reference_rho).config_hash() == loaded.config_hash(),
             "config.json is not the workload's config")

    layout = json.loads((run / "layout.json").read_text())
    require(tuple(map(tuple, layout["pairing"])) == expected_pairs, "layout.json pairing differs")
    for i, j in expected_pairs:
        require((run / "checkpoints" / f"expert_{i}_{j}.npz").is_file(), f"no checkpoint for expert ({i}, {j})")

    mae = checkpoint_mae(run / "checkpoints" / "regressor.npz", test.x, test.y_gt, train.y)
    require(_close(mae, last["mae"], 1e-9), f"MAE {last['mae']} != {mae} from the checkpoint")
    require(float(summary[0]["final_mae"]) == last["mae"], "summary.csv final_mae != metrics.jsonl")
    rho = loaded.reference_rho
    require(rho is not None and rho > 0, "config.json holds no reference MAE")
    require(_close(last["mrae"] + 1.0, last["mae"] / rho, 1e-12), f"mrae {last['mrae']} != mae / rho - 1")
    return last


def report(stdout: str, run: Path) -> None:
    """``fragpair report`` prints the run's summary.csv row."""
    printed = list(csv.reader(io.StringIO(stdout)))
    written = list(csv.reader(io.StringIO((Path(run) / "summary.csv").read_text())))
    require(printed == written, f"report printed {printed} but summary.csv holds {written}")
