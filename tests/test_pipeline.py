from __future__ import annotations

import copy
import dataclasses
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fragpair.pipeline
from fragpair.cli import main
from fragpair.config import ConfigError, ExperimentConfig
from fragpair.experts import KShrinkWarning, build_feature_bank, knn_votes
from fragpair.fragments import fragment_labels
from fragpair.metrics import mae, mrae
from fragpair.net import forward_batch, load_net
from fragpair.pipeline import (
    PipelineError,
    prepare_splits,
    run_experiment,
    run_noise_free_reference,
)
from fragpair.selection import select_clean


def small_config(**overrides) -> ExperimentConfig:
    raw = {
        "dataset": {"kind": "synthetic", "n": 240, "d": 2, "label_lo": 0.0,
                     "label_hi": 100.0, "feature_noise_std": 0.1},
        "noise": {"kind": "symmetric", "rate": 0.4},
        "epochs": 3,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfigValidation:
    def test_unknown_key_rejected(self) -> None:
        with pytest.raises(ConfigError, match="unknown config keys: epochz"):
            ExperimentConfig.from_dict({"epochz": 5})

    def test_unknown_nested_key_rejected(self) -> None:
        with pytest.raises(ConfigError, match="dataset"):
            ExperimentConfig.from_dict({"dataset": {"kind": "synthetic", "m": 3}})

    def test_dataset_without_kind_changes_the_default_source(self) -> None:
        cfg = ExperimentConfig.from_dict({"dataset": {"n": 50, "d": 3}})
        assert cfg.dataset == {**ExperimentConfig.from_dict({}).dataset, "n": 50, "d": 3}

    def test_csv_fields_without_kind_rejected(self) -> None:
        with pytest.raises(ConfigError, match="^unknown dataset keys: path$"):
            ExperimentConfig.from_dict({"dataset": {"path": "x.csv"}})

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("fragments", 5, "fragments"),
            ("fragments", 14, "fragments"),
            ("jitter", 0.5, "jitter"),
            ("knn_k", 4, "knn_k"),
            ("epochs", 0, "epochs"),
            ("expert_lr", 0.0, "expert_lr"),
            ("batch_size", 0, "batch_size"),
            ("mode", "fancy", "mode"),
            ("selection_combine", "both", "selection_combine"),
            ("test_frac", 1.5, "test_frac"),
            ("expert_net", {"hidden_dims": []}, "^expert_net: hidden_dims: need one or more layers$"),
            ("expert_net", {"hidden_dims": [8, 0]}, "^expert_net: hidden_dims: must be an integer >= 1"),
            ("regressor_net", {"activation": "gelu"}, "^regressor_net: activation: must be one of"),
        ],
    )
    def test_invariant_violations_name_the_field(self, field, value, fragment) -> None:
        with pytest.raises(ConfigError, match=fragment):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"epochs": 2.5}, "epochs"),
            ({"epochs": True}, "epochs"),
            ({"batch_size": 8.0}, "batch_size"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "0"}, "seed"),
            ({"knn_k": True}, "knn_k"),
            ({"knn_k": 5.0}, "knn_k"),
            ({"fragments": 4.0}, "fragments"),
            ({"fragments": True}, "fragments"),
            ({"dataset": {"kind": "synthetic", "n": 200.0}}, "dataset.n"),
            ({"dataset": {"kind": "synthetic", "n": "200"}}, "dataset.n"),
            ({"dataset": {"kind": "synthetic", "d": True}}, "dataset.d"),
            ({"expert_net": {"hidden_dims": [True]}}, "expert_net.hidden_dims"),
            ({"regressor_net": {"hidden_dims": [16, 8.0]}}, "regressor_net.hidden_dims"),
            ({"regressor_net": {"hidden_dims": 16}}, "regressor_net.hidden_dims"),
            ({"pairing_override": [[1.7, 3], [2, 4]]}, "pairing_override"),
            ({"pairing_override": [[True, 3], [2, 4]]}, "pairing_override"),
            ({"pairing_override": [["a", 2], [3, 4]]}, "pairing_override"),
            ({"pairing_override": [[1, 2, 3], [3, 4]]}, "pairing_override"),
            ({"noise": {"kind": "symmetric", "rate": 0.4, "seed": 1.7}}, "noise.seed"),
            ({"noise": {"kind": "symmetric", "rate": 0.4, "seed": True}}, "noise.seed"),
            ({"noise": {"kind": "gaussian", "max_std_frac": 0.3, "seed": "x"}}, "noise.seed"),
        ],
    )
    def test_integer_fields_reject_other_types(self, overrides, field) -> None:
        with pytest.raises(ConfigError, match=f"^{field}: must be"):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "field,value",
        [("expert_net", [16, 8]), ("regressor_net", None), ("expert_net", "relu")],
    )
    def test_net_fields_must_be_objects(self, field, value) -> None:
        with pytest.raises(ConfigError, match=f"^{field}: must be an object$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["expert_net", "regressor_net"])
    @pytest.mark.parametrize("value", [{"hidden_dims": [4]}, [16, 8], None])
    def test_constructed_net_fields_must_be_net_configs(self, field, value) -> None:
        # A net field is a plain object: the constructor rejects anything else
        # and fills a partial one over its defaults, as from_dict does.
        if not isinstance(value, dict):
            with pytest.raises(ConfigError, match=f"^{field}: must be an object$"):
                ExperimentConfig(**{field: value})
            return
        cfg = ExperimentConfig(**{field: value})
        assert cfg == ExperimentConfig.from_dict({field: value})
        assert getattr(cfg, field) == {"hidden_dims": [4], "activation": "relu"}

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"expert_lr": True}, "expert_lr"),
            ({"expert_lr": "0.1"}, "expert_lr"),
            ({"regressor_lr": float("inf")}, "regressor_lr"),
            ({"regressor_lr": None}, "regressor_lr"),
            ({"jitter": None}, "jitter"),
            ({"jitter": float("nan")}, "jitter"),
            ({"test_frac": "0.2"}, "test_frac"),
            ({"reference_rho": True}, "reference_rho"),
            ({"reference_rho": float("inf")}, "reference_rho"),
            ({"dataset": {"kind": "synthetic", "label_lo": "0"}}, "dataset.label_lo"),
            ({"dataset": {"kind": "synthetic", "label_hi": "9"}}, "dataset.label_hi"),
            ({"dataset": {"kind": "synthetic", "label_hi": float("inf")}}, "dataset.label_hi"),
            ({"dataset": {"kind": "synthetic", "feature_noise_std": False}},
             "dataset.feature_noise_std"),
            ({"noise": {"kind": "symmetric", "rate": "0.4"}}, "noise.rate"),
            ({"noise": {"kind": "symmetric"}}, "noise.rate"),
            ({"noise": {"kind": "gaussian", "max_std_frac": True}}, "noise.max_std_frac"),
            ({"noise": {"kind": "gaussian", "max_std_frac": float("nan")}},
             "noise.max_std_frac"),
        ],
    )
    def test_real_fields_reject_other_types(self, overrides, field) -> None:
        with pytest.raises(ConfigError, match=f"^{field}: must be a finite number"):
            small_config(**overrides)

    CSV = {"kind": "csv", "path": "d.csv", "feature_cols": ["x0"]}

    @pytest.mark.parametrize(
        "dataset,field",
        [
            ({"path": None}, "dataset.path"),
            ({"path": ""}, "dataset.path"),
            ({"path": 3}, "dataset.path"),
            ({"feature_cols": "x0"}, "dataset.feature_cols"),
            ({"feature_cols": []}, "dataset.feature_cols"),
            ({"feature_cols": None}, "dataset.feature_cols"),
            ({"feature_cols": ["x0", 1]}, "dataset.feature_cols"),
            ({"label_col": 5}, "dataset.label_col"),
            ({"label_col": None}, "dataset.label_col"),
            ({"gt_col": 0}, "dataset.gt_col"),
            ({"gt_col": ["label_gt"]}, "dataset.gt_col"),
            ({"gt_col": ""}, "dataset.gt_col"),
            ({"label_col": ""}, "dataset.label_col"),
            ({"feature_cols": [""]}, "dataset.feature_cols"),
        ],
    )
    def test_csv_source_fields_reject_other_types(self, dataset, field) -> None:
        with pytest.raises(ConfigError, match=f"^{field}: must be"):
            small_config(dataset={**self.CSV, **dataset})

    @pytest.mark.parametrize("dataset", [
        {"feature_cols": ["x0", "label"]},
        {"feature_cols": ["x0", "noisy"], "label_col": "noisy"},
        {"feature_cols": ["label_gt", "x0"], "gt_col": "label_gt"},
        {"feature_cols": ["x0", "x0"]},
    ], ids=["label", "named_label", "ground_truth", "named_twice"])
    def test_feature_cols_hold_no_label_and_no_repeat(self, dataset) -> None:
        message = "^dataset.feature_cols: must name each column once and not label_col or gt_col, got "
        with pytest.raises(ConfigError, match=message):
            small_config(dataset={**self.CSV, **dataset})

    def test_label_col_may_be_gt_col(self) -> None:
        # The noise-free reference of a csv source reads its labels from gt_col.
        cfg = small_config(dataset={**self.CSV, "label_col": "label_gt", "gt_col": "label_gt"})
        assert cfg.dataset["label_col"] == cfg.dataset["gt_col"] == "label_gt"

    def test_to_dict_shares_nothing_with_the_config(self) -> None:
        cfg = small_config(dataset=self.CSV, pairing_override=[[1, 3], [2, 4]])
        before, digest = cfg.to_dict(), cfg.config_hash()
        raw = cfg.to_dict()
        raw["dataset"]["feature_cols"].append("x1")
        raw["expert_net"]["hidden_dims"].append(4)
        raw["pairing_override"][0].append(5)
        assert cfg.to_dict() == before and cfg.config_hash() == digest
        with pytest.raises(TypeError, match="read-only"):
            cfg.replace(seed=1).dataset["feature_cols"].append("x2")
        assert cfg.to_dict() == before and cfg.config_hash() == digest

    @pytest.mark.parametrize("path", ["dataset", "noise", "expert_net", "regressor_net",
                                      "dataset.feature_cols", "expert_net.hidden_dims"])
    def test_nested_objects_are_read_only(self, path) -> None:
        cfg = small_config(dataset=self.CSV)
        name, *inner = path.split(".")
        obj = getattr(cfg, name)
        for part in inner:
            obj = obj[part]
        key = 0 if isinstance(obj, list) else next(iter(obj))
        before, digest = cfg.to_dict(), cfg.config_hash()
        with pytest.raises(TypeError, match="read-only"):
            obj[key] = 7
        with pytest.raises(TypeError, match="read-only"):
            obj.append(7) if isinstance(obj, list) else obj.update({key: 7})
        with pytest.raises(TypeError, match="read-only"):
            obj.pop(key)
        with pytest.raises(TypeError, match="read-only"):
            del obj[key]
        with pytest.raises(TypeError, match="read-only"):
            obj.clear()
        with pytest.raises(TypeError, match="read-only"):
            if isinstance(obj, list):
                obj += [7]
            else:
                obj |= {key: 7}
        assert cfg.to_dict() == before and cfg.config_hash() == digest

    def test_copies_of_a_config_equal_it_and_stay_read_only(self) -> None:
        cfg = small_config(dataset=self.CSV, pairing_override=[[1, 3], [2, 4]])
        copies = pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), ExperimentConfig(**vars(cfg))
        for copied in copies:
            assert copied == cfg and copied.config_hash() == cfg.config_hash()
            with pytest.raises(TypeError, match="read-only"):
                copied.expert_net["hidden_dims"].append(4)

    def test_real_fields_accept_integers(self) -> None:
        cfg = small_config(expert_lr=1, jitter=0, reference_rho=2,
                           dataset={"kind": "synthetic", "n": 240, "label_lo": 0,
                                    "label_hi": 100})
        assert cfg.expert_lr == 1 and cfg.dataset["label_hi"] == 100

    def test_pairing_override_must_cover_fragments(self) -> None:
        with pytest.raises(ConfigError, match="pairing_override"):
            small_config(pairing_override=[[1, 2]])

    def test_round_trip_through_dict(self) -> None:
        cfg = small_config(jitter=0.1, mode="select_regr")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_hash_stable_and_sensitive(self) -> None:
        a, b = small_config(), small_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != small_config(seed=1).config_hash()
        # Pinned: a change to how fields are written changes every run's hash.
        assert ExperimentConfig(dataset={"kind": "synthetic"}).config_hash() == "02efc3080eddb640"
        raw = {
            "dataset": {"kind": "synthetic", "n": 2000, "d": 2},
            "noise": {"kind": "symmetric", "rate": 0.4},
            "mode": "select_regr",
            "pairing_override": [[1, 3], [2, 4]],
            "reference_rho": 2.5,
        }
        assert ExperimentConfig.from_dict(raw).config_hash() == "4a98fbe8ebdf0c26"


class TestRunExperiment:
    def test_deterministic_history(self) -> None:
        cfg = small_config()
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.history == second.history

    def test_k_shrink_warned_once_per_run(self, cpus) -> None:
        # Both pair banks hold fewer than 41 rows in every epoch.
        cfg = small_config(dataset={"kind": "synthetic", "n": 60}, knn_k=41, epochs=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        shrinks = [str(w.message) for w in caught if w.category is KShrinkWarning]
        assert len(shrinks) == 1
        assert re.fullmatch(
            r"K=41 exceeds bank size (\d+) for pair \(\d, \d\); using K=\d+", shrinks[0]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", KShrinkWarning)
            with pytest.raises(PipelineError, match=r"^epoch 1, stage select: K=41 exceeds bank "
                               r"size \d+ for pair \(1, 3\); using K=\d+$"):
                run_experiment(cfg)
        assert multiprocessing.active_children() == []

    def test_metrics_jsonl_byte_identical(self, tmp_path) -> None:
        cfg = small_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
            tmp_path / "b" / "metrics.jsonl"
        ).read_bytes()

    def test_artifacts_layout(self, tmp_path) -> None:
        cfg = small_config()
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        root = result.out_dir
        assert (root / "metrics.jsonl").exists()
        assert (root / "config.json").exists()
        assert (root / "layout.json").exists()
        assert (root / "summary.csv").exists()
        assert (root / "checkpoints" / "regressor.npz").exists()
        assert (root / "checkpoints" / "expert_1_3.npz").exists()
        selections = sorted((root / "selection").iterdir())
        assert len(selections) == cfg.epochs
        lines = selections[0].read_text().splitlines()
        train_n = 240 - round(240 * cfg.test_frac)
        assert len(lines) == train_n
        row = json.loads(lines[0])
        assert {"index", "p_pred", "p_repr", "chosen_pred", "chosen_repr", "y", "y_gt"} <= set(row)

    def test_selection_records_built_only_when_written(self, tmp_path, monkeypatch) -> None:
        from fragpair.selection import SelectionOutcome

        formatted, records = [], []
        jsonl = SelectionOutcome.jsonl
        monkeypatch.setattr(
            SelectionOutcome, "jsonl", lambda self, tails: formatted.append(1) or jsonl(self, tails)
        )
        monkeypatch.setattr(
            SelectionOutcome, "records", lambda self, ds: records.append(1) or []
        )
        cfg = small_config()
        run_experiment(cfg)
        assert formatted == []
        run_experiment(cfg, out_dir=tmp_path / "run")
        assert len(formatted) == cfg.epochs
        assert records == []

    def test_last_selection_file_matches_records(self, tmp_path) -> None:
        cfg = small_config()
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        train, _ = prepare_splits(cfg)
        expected = "".join(
            json.dumps(r) + "\n" for r in result.last_selection.records(train)
        )
        last = result.out_dir / "selection" / f"epoch_{cfg.epochs:04d}.jsonl"
        assert last.read_text() == expected

    def test_empty_selection_skips_the_regressor_epoch(self, tmp_path, monkeypatch, capsys) -> None:
        def nothing_picked_at_epoch_2(*args, **kwargs):
            outcome = select_clean(*args, **kwargs)
            if args[-1] != 2:
                return outcome
            none = np.zeros_like(outcome.chosen_pred)
            return dataclasses.replace(outcome, chosen_pred=none, chosen_repr=none)

        monkeypatch.setattr(fragpair.pipeline, "select_clean", nothing_picked_at_epoch_2)
        with pytest.warns(UserWarning, match="^epoch 2: empty selection, regressor skips the epoch$"):
            result = run_experiment(small_config(epochs=2), out_dir=tmp_path / "run")
        first, empty = result.history
        assert "regressor_loss" in first and first["n_selected"] > 0
        assert empty["n_selected"] == 0 and empty["selection_rate"] == 0.0
        assert "err" not in empty and "regressor_loss" not in empty
        assert empty["mae"] == first["mae"]  # no step ran, so the regressor is epoch 1's
        summary = (tmp_path / "run" / "summary.csv").read_bytes().decode()
        header, row = (line.split(",") for line in summary.splitlines())
        assert row[header.index("final_err")] == ""
        capsys.readouterr()
        assert main(["report", "--runs", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == summary

    @pytest.mark.parametrize("mode", ["select", "select_regr"])
    def test_checkpoints_reload_through_load_net(self, tmp_path, monkeypatch, mode) -> None:
        passes = []
        monkeypatch.setattr(fragpair.pipeline, "build_feature_bank",
                            lambda experts, ds: passes.append(build_feature_bank(experts, ds)) or passes[-1])
        cfg = small_config(mode=mode)
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        ckpts = tmp_path / "run" / "checkpoints"
        train, test = prepare_splits(cfg)
        scheme = fragment_labels(train, cfg.fragments)
        out, _ = forward_batch(load_net(ckpts / "regressor.npz"), test.x)
        last = json.loads((tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[-1])
        assert mae(scheme.label_min + out * scheme.label_range, test.y_gt) == last["mae"]
        assert len(passes) == cfg.epochs
        for (i, j), (outputs, feats) in passes[-1].items():
            out, back = forward_batch(load_net(ckpts / f"expert_{i}_{j}.npz"), train.x)
            assert np.array_equal(out, outputs) and np.array_equal(back, feats)
        assert sorted(p.name for p in ckpts.iterdir()) == sorted(
            ["regressor.npz"] + [f"expert_{i}_{j}.npz" for i, j in result.pairing.pairs])

    def test_jittered_membership_computed_once_per_epoch(self, monkeypatch) -> None:
        from fragpair.fragments import JitteredScheme

        calls = []
        membership_rows = JitteredScheme.membership_rows
        monkeypatch.setattr(
            JitteredScheme,
            "membership_rows",
            lambda self, y: calls.append(1) or membership_rows(self, y),
        )
        cfg = small_config(fragments=6)
        run_experiment(cfg)
        assert len(calls) == cfg.epochs

    @pytest.mark.parametrize("mode", ["select", "select_regr"])
    def test_one_expert_pass_per_pair_per_epoch(self, monkeypatch, mode) -> None:
        import fragpair.experts

        calls = []
        forward_batch = fragpair.experts.forward_batch
        monkeypatch.setattr(
            fragpair.experts,
            "forward_batch",
            lambda net, X: calls.append(len(X)) or forward_batch(net, X),
        )
        cfg = small_config(fragments=6, mode=mode)
        result = run_experiment(cfg)
        n_train = prepare_splits(cfg)[0].n
        assert calls == [n_train] * (len(result.pairing.pairs) * cfg.epochs)

    def test_resolved_config_round_trips(self, tmp_path) -> None:
        cfg = small_config()
        run_experiment(cfg, out_dir=tmp_path / "run")
        reloaded = ExperimentConfig.from_file(tmp_path / "run" / "config.json")
        assert reloaded == cfg

    def test_history_carries_selection_bookkeeping(self) -> None:
        result = run_experiment(small_config())
        for record in result.history:
            assert record["n_selected"] <= record["n_pred"] + record["n_repr"]
            assert record["n_selected"] >= max(record["n_pred"], record["n_repr"])
            assert 0.0 <= record["selection_rate"] <= 1.0
            assert "jitter_delta" in record

    def test_vanilla_selects_everything(self) -> None:
        result = run_experiment(small_config(mode="vanilla"))
        for record in result.history:
            assert record["selection_rate"] == 1.0
            assert record["err"] == pytest.approx(1.0)
            assert "n_pred" not in record

    def test_pairing_override_respected(self) -> None:
        result = run_experiment(small_config(pairing_override=[[1, 2], [3, 4]]))
        assert result.pairing.pairs == ((1, 2), (3, 4))

    def test_contrastive_pairing_discovered(self) -> None:
        result = run_experiment(small_config())
        assert result.pairing.pairs == ((1, 3), (2, 4))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_run_keeps_finished_epochs(self, tmp_path) -> None:
        # The regressor diverges at epoch 8; the caller still holds the failure.
        cfg = small_config(dataset={"kind": "synthetic", "n": 400}, mode="vanilla",
                           epochs=20, regressor_lr=1e4)
        with pytest.raises(PipelineError, match="epoch 8, stage train_regressor"):
            try:
                run_experiment(cfg, out_dir=tmp_path / "run")
            except PipelineError:
                lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
                assert [json.loads(line)["epoch"] for line in lines] == list(range(1, 8))
                assert ExperimentConfig.from_file(tmp_path / "run" / "config.json") == cfg
                raise

    def test_final_artifact_failure_names_the_artifacts_stage(self, tmp_path, monkeypatch) -> None:
        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        write_text, open_file = Path.write_text, Path.open

        def failing_write_text(path, *args, **kwargs):
            if path.name == "epoch_0002.jsonl":
                disk_full()
            return write_text(path, *args, **kwargs)

        def failing_open(path, *args, **kwargs):
            fh = open_file(path, *args, **kwargs)
            if path.name == "metrics.jsonl":
                write = fh.write
                fh.write = lambda text: disk_full() if '"epoch": 2,' in text else write(text)
            return fh

        # Epoch 2's write fails: a checkpoint, its selection file or its
        # metrics line; then the metrics lines and selection files left.
        cases = [(fragpair.pipeline, "save_net", disk_full, 2, 2),
                 (Path, "write_text", failing_write_text, 1, 1),
                 (Path, "open", failing_open, 1, 2)]
        for k, (owner, name, fake, lines, files) in enumerate(cases):
            run = tmp_path / f"run{k}"
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fake)
                with pytest.raises(PipelineError, match="^epoch 2, stage artifacts: disk full$"):
                    run_experiment(small_config(epochs=2), out_dir=run)
            assert len((run / "metrics.jsonl").read_text().splitlines()) == lines
            assert len(list((run / "selection").iterdir())) == files

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_rerun_leaves_no_file_of_the_run_before(self, tmp_path) -> None:
        # A select run, then a vanilla run into the same directory, then a run
        # that fails in epoch 1; a file no run writes stays.
        used = tmp_path / "used"
        run_experiment(small_config(epochs=5), out_dir=used)
        (used / "notes.txt").write_bytes(b"kept")
        for run in (used, tmp_path / "fresh"):
            run_experiment(small_config(mode="vanilla", epochs=2), out_dir=run)
        assert written(used) == {**written(tmp_path / "fresh"), Path("notes.txt"): b"kept"}
        for run in (used, tmp_path / "fresh_failed"):
            with pytest.raises(PipelineError, match="^epoch 1, stage train_regressor: "):
                run_experiment(small_config(epochs=2, regressor_lr=1e200), out_dir=run)
        assert written(used) == {**written(tmp_path / "fresh_failed"), Path("notes.txt"): b"kept"}

    def test_stage_reported_on_failure(self) -> None:
        cfg = small_config(dataset={"kind": "csv", "path": "missing.csv",
                                    "feature_cols": ["a"], "label_col": "label"})
        with pytest.raises(PipelineError, match="stage prepare"):
            run_experiment(cfg)

    @pytest.mark.filterwarnings("ignore:fragment .* is empty")
    @pytest.mark.parametrize("seed, fragment", [(0, 4), (2, 4), (4, 7)])
    def test_empty_fragment_rejected_at_pairing(self, seed, fragment) -> None:
        # n=40 over 12 fragments leaves one empty. Jitter can fill it for a
        # while (seed 0 until epoch 15), so only the base scheme shows it.
        cfg = ExperimentConfig.from_dict({"dataset": {"kind": "synthetic", "n": 40},
                                          "fragments": 12, "jitter": 0.04,
                                          "mode": "select", "seed": seed})
        with pytest.raises(PipelineError, match=f"epoch 0, stage pairing: empty fragment {fragment}:"):
            run_experiment(cfg)

    def test_empty_fragment_still_warns_and_runs_in_vanilla(self) -> None:
        cfg = ExperimentConfig.from_dict({"dataset": {"kind": "synthetic", "n": 40},
                                          "fragments": 12, "jitter": 0.04, "mode": "vanilla",
                                          "epochs": 2, "seed": 2})
        with pytest.warns(UserWarning, match="fragment 4 is empty"):
            result = run_experiment(cfg)
        assert len(result.history) == 2

    def test_selection_combine_variants_run(self) -> None:
        for combine in ("intersection", "pred_only", "repr_only"):
            result = run_experiment(small_config(selection_combine=combine))
            assert len(result.history) == 3


def written(run: Path) -> dict:
    """A run directory's files by relative path: the bytes of each, and the
    arrays of each checkpoint."""
    files = {}
    for path in sorted(run.rglob("*")):
        if path.suffix == ".npz":
            with np.load(path) as ckpt:
                files[path.relative_to(run)] = {
                    name: (ckpt[name].dtype.str, ckpt[name].shape, ckpt[name].tobytes())
                    for name in ckpt.files
                }
        elif path.is_file():
            files[path.relative_to(run)] = path.read_bytes()
    return files


def fail_on_call(monkeypatch, name: str, call: int, fail=None) -> None:
    """Make ``fragpair.pipeline.<name>`` run ``fail`` (raise "<name> failed" by
    default) on its ``call``-th call, and pass every other call through."""
    original = getattr(fragpair.pipeline, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            if fail is not None:
                fail()
            raise RuntimeError(f"{name} failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(fragpair.pipeline, name, patched)


def run_history(raw: dict) -> list[dict]:
    """The epoch records of the run of config ``raw``, where the call runs."""
    return run_experiment(ExperimentConfig.from_dict(raw)).history


@pytest.fixture(params=[2, 1], ids=["worker", "one_cpu"])
def cpus(request, monkeypatch):
    """Vote in the run's forked worker, or in its own process as on a one-CPU host."""
    monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: request.param)
    return request.param


class TestOverlappedVotes:
    """Each epoch's K-NN votes overlap the next epoch's expert training; the
    run's outputs and failures are those of one epoch after another."""

    @pytest.mark.parametrize("mode", ["select", "select_regr"])
    def test_worker_and_one_cpu_write_the_same_run(self, tmp_path, monkeypatch, mode) -> None:
        cfg = small_config(mode=mode, fragments=6, epochs=4)
        forked = []
        submit = fragpair.pipeline._Votes.submit
        monkeypatch.setattr(
            fragpair.pipeline._Votes,
            "submit",
            lambda self, *epoch: forked.append(self.proc is not None) or submit(self, *epoch),
        )
        for n in (2, 1):
            monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda n=n: n)
            run_experiment(cfg, out_dir=tmp_path / str(n))
        assert forked == [True] * 4 + [False] * 4
        runs = written(tmp_path / "2"), written(tmp_path / "1")
        assert runs[0] == runs[1]
        names = {str(path) for path in runs[0]}
        assert {"metrics.jsonl", "summary.csv", "layout.json", "selection/epoch_0004.jsonl",
                "checkpoints/regressor.npz", "checkpoints/expert_1_4.npz"} <= names

    def test_expert_failure_waits_for_the_epoch_before(self, tmp_path, monkeypatch, cpus) -> None:
        cfg = small_config(epochs=8)
        clean = written(run_experiment(cfg, out_dir=tmp_path / "clean").out_dir)
        fail_on_call(monkeypatch, "train_experts_epoch", 5)
        with pytest.raises(PipelineError,
                           match="^epoch 5, stage train_experts: train_experts_epoch failed$"):
            run_experiment(cfg, out_dir=tmp_path / "failed")
        failed = written(tmp_path / "failed")
        metrics = Path("metrics.jsonl")
        assert failed[metrics].decode().splitlines() == clean[metrics].decode().splitlines()[:4]
        selections = sorted(path for path in failed if path.parent.name == "selection")
        assert [path.name for path in selections] == [f"epoch_000{e}.jsonl" for e in range(1, 5)]
        assert all(failed[path] == clean[path] for path in selections)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("call, epoch", [(1, 1), (3, 2)])
    def test_vote_failure_names_its_epoch_and_select(self, monkeypatch, cpus, call, epoch) -> None:
        # Patched before the run, so that the forked worker calls the patch.
        fail_on_call(monkeypatch, "knn_votes", call)
        with pytest.raises(PipelineError,
                           match=f"^epoch {epoch}, stage select: knn_votes failed$"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    # Only a worker can fail a hand-over: on one CPU it records the job.
    @pytest.mark.parametrize("cpus", [2], ids=["worker"], indirect=True)
    def test_failed_hand_over_waits_for_the_epoch_before(self, tmp_path, monkeypatch,
                                                         cpus) -> None:
        cfg = small_config()
        clean = run_experiment(cfg, out_dir=tmp_path / "clean")
        collect = fragpair.pipeline._Votes.collect

        def collect_then_lose_the_worker(self):
            winners = collect(self)
            self.proc.kill()
            self.proc.join()
            return winners

        # Epoch 2's pass is handed over to a worker that is gone.
        monkeypatch.setattr(fragpair.pipeline._Votes, "collect", collect_then_lose_the_worker)
        with pytest.raises(PipelineError, match="^epoch 2, stage select: K-NN vote worker "
                           "exited with code -9$"):
            run_experiment(cfg, out_dir=tmp_path / "failed")
        metrics = (tmp_path / "failed" / "metrics.jsonl").read_text().splitlines()
        assert metrics == (clean.out_dir / "metrics.jsonl").read_text().splitlines()[:1]
        assert multiprocessing.active_children() == []

    def test_worker_lost_with_its_job_unread_names_its_epoch_and_select(self, monkeypatch) -> None:
        monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: 2)
        submit = fragpair.pipeline._Votes.submit
        calls = []

        def lose_the_worker_with_its_job_unread(self, *epoch):
            calls.append(1)
            if len(calls) == 2:  # epoch 2's job lands in the pipe, unread
                os.kill(self.proc.pid, signal.SIGSTOP)
            submit(self, *epoch)
            if len(calls) == 2:
                self.proc.kill()
                self.proc.join()

        monkeypatch.setattr(fragpair.pipeline._Votes, "submit", lose_the_worker_with_its_job_unread)
        with pytest.raises(PipelineError, match="^epoch 2, stage select: K-NN vote worker "
                           "exited with code -9$"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    def test_a_daemonic_process_votes_in_its_own_process(self, monkeypatch) -> None:
        # A Pool worker is daemonic and may not start children, so its run
        # forks no vote worker and votes as on a one-CPU host.
        monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: 2)
        raw = small_config().to_dict()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            history = pool.apply(run_history, (raw,))
        assert history == run_history(raw)
        assert multiprocessing.active_children() == []

    def test_cut_wait_ends_the_worker(self, monkeypatch, capfd) -> None:
        monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: 2)
        # Epoch 2's first pair, in the worker.
        fail_on_call(monkeypatch, "knn_votes", 3, fail=lambda: time.sleep(3))

        def cut(signum, frame):
            raise RuntimeError("wait cut short")

        previous = signal.signal(signal.SIGALRM, cut)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(PipelineError, match="^epoch 2, stage select: wait cut short$"):
                run_experiment(small_config())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 2
        assert multiprocessing.active_children() == []
        assert "Traceback" not in capfd.readouterr().err

    def test_worker_exit_names_its_epoch_and_select(self, monkeypatch) -> None:
        monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: 2)
        fail_on_call(monkeypatch, "knn_votes", 3, fail=lambda: os._exit(3))
        with pytest.raises(PipelineError,
                           match="^epoch 2, stage select: K-NN vote worker exited with code 3$"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    def test_vote_warnings_reach_the_select_stage(self, monkeypatch, cpus) -> None:
        def warn_then_vote(*args):
            np.log(-np.ones(1))
            return knn_votes(*args)

        monkeypatch.setattr(fragpair.pipeline, "knn_votes", warn_then_vote)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_experiment(small_config())
        # Both pairs warn in every epoch; the default filter shows it once an epoch.
        invalid = [w for w in caught if "invalid value encountered in log" in str(w.message)]
        assert [w.category for w in invalid] == [RuntimeWarning] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PipelineError,
                               match="^epoch 1, stage select: invalid value encountered in log$"):
                run_experiment(small_config())

    def test_failed_run_leaves_no_worker_behind(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: 2)
        with monkeypatch.context() as patch:
            # The regressor fails in epoch 2, with epoch 3's vote in flight.
            fail_on_call(patch, "train_epoch", 2)
            with pytest.raises(PipelineError, match="^epoch 2, stage train_regressor: "):
                run_experiment(small_config(fragments=6, epochs=5))
        assert multiprocessing.active_children() == []
        cfg = small_config(epochs=4)
        run_experiment(cfg, out_dir=tmp_path / "after")
        assert multiprocessing.active_children() == []
        script = ("import sys\n"
                  "from fragpair.config import ExperimentConfig\n"
                  "from fragpair.pipeline import run_experiment\n"
                  "run_experiment(ExperimentConfig.from_file(sys.argv[1]), out_dir=sys.argv[2])\n")
        env = dict(os.environ, PYTHONPATH=str(Path(fragpair.pipeline.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "after" / "config.json"),
                        str(tmp_path / "fresh")], env=env, check=True)
        assert written(tmp_path / "after") == written(tmp_path / "fresh")


class TestNoiseFreeBehavior:
    def test_vanilla_noise_free_learns_the_map(self) -> None:
        cfg = small_config(
            dataset={"kind": "synthetic", "n": 1000, "d": 2, "label_lo": 0.0,
                      "label_hi": 100.0, "feature_noise_std": 0.1},
            noise=None,
            mode="vanilla",
            epochs=100,
        )
        result = run_experiment(cfg)
        assert result.final_mae < 10.0  # under 10% of the label range

    def test_select_mode_keeps_clean_data(self) -> None:
        cfg = small_config(
            dataset={"kind": "synthetic", "n": 800, "d": 2, "label_lo": 0.0,
                      "label_hi": 100.0, "feature_noise_std": 0.1},
            noise=None,
            epochs=60,
        )
        result = run_experiment(cfg)
        assert result.final_selection_rate >= 0.9


class TestReferenceRun:
    def test_reference_equals_vanilla_on_ground_truth(self) -> None:
        cfg = small_config(epochs=5)
        rho, ref = run_noise_free_reference(cfg)
        again = run_experiment(cfg.replace(mode="vanilla", noise=None))
        assert ref.config == cfg.replace(mode="vanilla", noise=None)
        assert rho == again.final_mae
        assert rho > 0
        assert mrae(rho, rho) == 0.0

    def test_reference_feeds_relative_error(self) -> None:
        cfg = small_config(epochs=4)
        rho, _ = run_noise_free_reference(cfg)
        result = run_experiment(cfg.replace(reference_rho=rho))
        for record in result.history:
            assert record["mrae"] == pytest.approx(record["mae"] / rho - 1.0)

    def test_mrae_written_only_with_a_reference(self) -> None:
        cfg = small_config(epochs=2)
        assert all("mrae" not in record for record in run_experiment(cfg).history)
        for record in run_experiment(cfg.replace(reference_rho=2.0)).history:
            assert list(record)[0] == "epoch"
            assert list(record)[-4:] == ["mae", "selection_rate", "err", "mrae"]
            assert record["mrae"] == mrae(record["mae"], 2.0)

    def test_csv_run_without_ground_truth_writes_no_err(self, tmp_path) -> None:
        path = tmp_path / "plain.csv"
        path.write_text("a,label\n" + "\n".join(f"{i},{i}" for i in range(60)) + "\n")
        cfg = small_config(
            dataset={"kind": "csv", "path": str(path), "feature_cols": ["a"],
                      "label_col": "label"},
            noise=None, mode="vanilla", epochs=2,
        )
        run_experiment(cfg, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2
        assert all(list(r)[-2:] == ["mae", "selection_rate"] for r in records)

    def test_reference_requires_ground_truth(self, tmp_path, monkeypatch) -> None:
        path = tmp_path / "plain.csv"
        path.write_text("a,label\n" + "\n".join(f"{i},{i}" for i in range(30)) + "\n")
        cfg = small_config(
            dataset={"kind": "csv", "path": str(path), "feature_cols": ["a"],
                      "label_col": "label"},
            noise=None,
        )
        calls = []
        monkeypatch.setattr(fragpair.pipeline, "run_experiment", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="^dataset.gt_col: "):
            run_noise_free_reference(cfg, out_dir=tmp_path / "ref")
        assert calls == [] and not (tmp_path / "ref").exists()

    def test_csv_reference_reads_the_ground_truth_column(self, tmp_path) -> None:
        path = tmp_path / "noisy.csv"
        rows = [f"{i},{i if i % 3 else 99 - i},{i}" for i in range(60)]
        path.write_text("a,label,gt\n" + "\n".join(rows) + "\n")
        cfg = small_config(
            dataset={"kind": "csv", "path": str(path), "feature_cols": ["a"], "gt_col": "gt"},
            noise=None, epochs=2,
        )
        _, ref = run_noise_free_reference(cfg)
        assert ref.config.dataset["label_col"] == "gt"
        train, _ = prepare_splits(ref.config)
        assert np.array_equal(train.y, train.y_gt)


class TestSplitsPreparation:
    def test_noise_applied_before_split(self) -> None:
        cfg = small_config()
        train, test = prepare_splits(cfg)
        assert train.n == 192 and test.n == 48
        corrupted = (train.y != train.y_gt).mean()
        assert 0.25 < corrupted < 0.55

    def test_ground_truth_mode_strips_noise(self) -> None:
        _, ref = run_noise_free_reference(small_config(epochs=1))
        train, test = prepare_splits(ref.config)
        assert np.array_equal(train.y, train.y_gt)
