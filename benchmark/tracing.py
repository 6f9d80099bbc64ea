"""Timing wrappers around fragpair's cross-module calls, for traced runs only.

Each wrapper replaces a public function in the namespace of the module that
calls it (``fragpair.selection.knn_votes``, not ``fragpair.experts.knn_votes``),
so a function one module imports from another is timed where it is used.  The
net engine is shared by the regressor and the experts, so its functions are
named per caller (``net.train_step.from_pipeline``, ``.from_experts``); every
other function carries one name.  Functions a module calls on itself are
wrapped in that module, and methods on their class.

Spans (name, start, end, parent, run id) are kept in memory while the run
lasts and written out afterwards.  A layer's self time is its spans' duration
minus the intervals its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


def _rows(args) -> int:
    # forward_batch(net, X) and train_step(net, X, T, loss, lr)
    return len(args[1])


def _dist_evals(args) -> int:
    # knn_votes(bank, pair, queries, K): one distance per query and bank row
    bank, pair, queries = args[:3]
    return len(queries) * bank.size(pair)


# (module whose namespace is patched, attribute, metric name, (count name, count))
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_experiment", "pipeline.run_experiment", None),
    ("pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("cli", "run_noise_free_reference", "pipeline.run_noise_free_reference", None),
    ("pipeline", "write_summary_csv", "pipeline.write_summary_csv", None),
    ("pipeline", "generate_synthetic", "data.generate_synthetic", None),
    ("pipeline", "split_dataset", "data.split_dataset", None),
    ("pipeline", "fragment_labels", "fragments.fragment_labels", None),
    ("pipeline", "fragment_edge_weights", "fragments.fragment_edge_weights", None),
    ("pipeline", "select_contrastive_pairing", "fragments.select_contrastive_pairing", None),
    ("pipeline", "jitter_scheme", "fragments.jitter_scheme", None),
    ("fragments", "JitteredScheme.membership_rows", "fragments.JitteredScheme.membership_rows", None),
    ("pipeline", "init_ensemble", "experts.init_ensemble", None),
    ("pipeline", "train_experts_epoch", "experts.train_experts_epoch", None),
    ("pipeline", "build_feature_bank", "experts.build_feature_bank", None),
    ("selection", "knn_votes", "experts.knn_votes", ("dist_evals", _dist_evals)),
    ("selection", "pair_logits", "experts.pair_logits", None),
    ("experts", "pair_logits", "experts.pair_logits", None),
    ("selection", "pair_features", "experts.pair_features", None),
    ("experts", "pair_features", "experts.pair_features", None),
    ("selection", "predict_label", "experts.predict_label", None),
    ("pipeline", "select_clean", "selection.select_clean", None),
    ("selection", "self_agreement_matrix", "selection.self_agreement_matrix", None),
    ("selection", "prior_rows", "selection.prior_rows", None),
    ("selection", "neighborhood_gate", "selection.neighborhood_gate", None),
    ("selection", "bernoulli_select", "selection.bernoulli_select", None),
    ("selection", "SelectionOutcome.records", "selection.SelectionOutcome.records", None),
    ("pipeline", "init_net", "net.init_net.from_pipeline", None),
    ("experts", "init_net", "net.init_net.from_experts", None),
    ("pipeline", "forward_batch", "net.forward_batch.from_pipeline", ("rows", _rows)),
    ("experts", "forward_batch", "net.forward_batch.from_experts", ("rows", _rows)),
    ("pipeline", "train_step", "net.train_step.from_pipeline", ("rows", _rows)),
    ("experts", "train_step", "net.train_step.from_experts", ("rows", _rows)),
    ("pipeline", "save_net", "net.save_net", None),
    ("pipeline", "mae", "metrics.mae", None),
    ("pipeline", "error_residual_ratio", "metrics.error_residual_ratio", None),
    ("pipeline", "selection_rate", "metrics.selection_rate", None),
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric the table reports, in a fixed order."""
    names: list[str] = []
    for _, _, name, count in WRAPS:
        for key in (f"{name}.self_s", f"{name}.calls") + ((f"{name}.{count[0]}",) if count else ()):
            if key not in names:
                names.append(key)
    return names


class Tracer:
    """Installs the wrappers, records spans, and turns them into a layer table."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, count]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, count in WRAPS:
            owner = importlib.import_module(f"fragpair.{module}")
            cls, _, fn_name = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, fn_name)
            self._saved.append((owner, fn_name, original))
            setattr(owner, fn_name, self._wrap(original, name, count[1] if count else None))

    def remove(self) -> None:
        while self._saved:
            owner, fn_name, original = self._saved.pop()
            setattr(owner, fn_name, original)

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, count(args) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return timed

    def layers(self) -> dict[str, float]:
        """Self time, calls and counts per metric name, zero for names never called."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        table = dict.fromkeys(layer_metric_names(), 0.0)
        counts = {name: count[0] for _, _, name, count in WRAPS if count}
        for (name, _, _, _, n), own in zip(self.spans, self_s):
            table[f"{name}.self_s"] += own
            table[f"{name}.calls"] += 1
            if name in counts:
                table[f"{name}.{counts[name]}"] += n
        return table

    def write(self, spans_path: Path, table_path: Path, table: dict[str, float]) -> None:
        with spans_path.open("w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": self.run_id}) + "\n")
        width = max(map(len, table))
        table_path.write_text("".join(f"{key:<{width}}  {value:.6g}\n" for key, value in table.items()))
