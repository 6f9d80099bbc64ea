from __future__ import annotations

import csv
import json

import numpy as np
import pytest

import fragpair.pipeline
from fragpair.cli import build_parser, main
from fragpair.config import ExperimentConfig
from fragpair.data import default_feature_cols, load_csv
from fragpair.pipeline import PipelineError, prepare_splits, run_experiment


@pytest.fixture(autouse=True)
def output_root(tmp_path, monkeypatch):
    root = tmp_path / "out_root"
    monkeypatch.setenv("FRAGPAIR_OUTPUT_ROOT", str(root))
    return root


def small_config_file(tmp_path, **overrides) -> str:
    raw = {
        "dataset": {"kind": "synthetic", "n": 160, "d": 2, "label_lo": 0.0,
                     "label_hi": 100.0, "feature_noise_std": 0.1},
        "noise": {"kind": "symmetric", "rate": 0.4},
        "epochs": 2,
        "seed": 0,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def csv_source(path, gt_col="label_gt") -> dict:
    """A config's ``dataset`` for a CSV file that ``generate`` wrote, with d=2."""
    return {"kind": "csv", "path": str(path), "feature_cols": default_feature_cols(2),
            "gt_col": gt_col}


def set_flag(key: str, value) -> list[str]:
    return ["--set", f"{key}={json.dumps(value)}"]


def synthetic(n: int, d: int = 2) -> list[str]:
    return set_flag("dataset", {"kind": "synthetic", "n": n, "d": d})


SYMMETRIC = {"kind": "symmetric", "rate": 0.5, "seed": 1}


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, capsys) -> None:
        out = tmp_path / "data.csv"
        argv = ["generate", *synthetic(50, d=3), "--out", str(out)]
        assert main(argv) == 0
        ds = load_csv(out, default_feature_cols(3), "label", gt_col="label_gt")
        assert ds.n == 50 and ds.d == 3
        assert "wrote 50 samples" in capsys.readouterr().out

    def test_dotted_set_changes_the_default_source(self, tmp_path, capsys) -> None:
        out = tmp_path / "data.csv"
        assert main(["generate", "--set", "dataset.n=50", "--out", str(out)]) == 0
        ds = load_csv(out, default_feature_cols(2), "label", gt_col="label_gt")
        assert ds.n == 50 and ds.d == 2
        assert "wrote 50 samples" in capsys.readouterr().out

    def test_writes_jsonl(self, tmp_path) -> None:
        out = tmp_path / "data.jsonl"
        main(["generate", *synthetic(10), "--out", str(out)])
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 10 and "label" in rows[0]

    def test_writes_the_data_a_run_loads(self, tmp_path, output_root) -> None:
        config = ["--config", small_config_file(tmp_path, seed=5)]
        data = tmp_path / "d.csv"
        main(["generate", *config, "--out", str(data)])
        main(["run", *config, "--out-dir", "synthetic"])
        main(["run", *config, *set_flag("dataset", csv_source(data)), "--set", "noise=null",
              "--out-dir", "csv"])

        def written(run) -> dict:
            files = [run / "metrics.jsonl", *sorted((run / "selection").iterdir())]
            return {path.relative_to(run): path.read_bytes() for path in files}

        synthetic = written(output_root / "synthetic")
        assert len(synthetic) == 3
        assert written(output_root / "csv") == synthetic


class TestInjectNoise:
    """``generate`` applies the config's noise to its source, a CSV file included."""

    def test_symmetric_corruption(self, tmp_path, capsys) -> None:
        src = tmp_path / "clean.csv"
        main(["generate", *synthetic(400), "--set", "seed=3", "--out", str(src)])
        dst = tmp_path / "noisy.csv"
        capsys.readouterr()
        code = main(["generate", *set_flag("dataset", csv_source(src)),
                     *set_flag("noise", SYMMETRIC), "--out", str(dst)])
        assert code == 0
        noisy = load_csv(dst, default_feature_cols(2), "label", gt_col="label_gt")
        fraction = np.mean(noisy.y != noisy.y_gt)
        assert 0.4 < fraction < 0.6
        assert f"{int(np.sum(noisy.y != noisy.y_gt))} labels corrupted" in capsys.readouterr().out

    def test_gaussian_kind(self, tmp_path) -> None:
        dst = tmp_path / "noisy.csv"
        main(["generate", *synthetic(200),
              *set_flag("noise", {"kind": "gaussian", "max_std_frac": 0.3}), "--out", str(dst)])
        noisy = load_csv(dst, default_feature_cols(2), "label", gt_col="label_gt")
        assert np.mean(np.abs(noisy.y - noisy.y_gt)) > 1.0


class TestRun:
    def test_artifacts_under_output_root(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path)
        assert main(["run", "--config", cfg, "--out-dir", "demo"]) == 0
        run_dir = output_root / "demo"
        assert (run_dir / "metrics.jsonl").exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert "run complete" in capsys.readouterr().out

    def test_default_directory_name_from_config(self, tmp_path, output_root) -> None:
        cfg = small_config_file(tmp_path)
        main(["run", "--config", cfg])
        candidates = list(output_root.iterdir())
        assert len(candidates) == 1
        assert candidates[0].name.startswith("select_")

    @pytest.mark.parametrize("command", [
        ["run"], ["generate", "--out", "data.csv"], ["reference"],
    ])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--epochs", "2"], ["--mode", "vanilla"]])
    def test_run_fields_have_no_flags(self, command, flag, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("source, seed", [
        ({"kind": "synthetic", "n": 6}, 0), ("csv", 4), ("csv", 5),
    ], ids=["synthetic_n6", "csv_seed4", "csv_seed5"])
    @pytest.mark.filterwarnings("ignore:fragment . is empty")
    def test_a_held_out_split_with_one_label_value(self, tmp_path, output_root, source,
                                                   seed) -> None:
        if source == "csv":
            # Label 9 on every tenth row, 5 elsewhere.
            data = tmp_path / "data.csv"
            data.write_text("x0,x1,label\n" + "".join(
                f"{k / 40},0.5,{9 if k % 10 == 0 else 5}\n" for k in range(40)))
            source = csv_source(data, gt_col=None)
        argv = ["run", *set_flag("dataset", source), "--set", "mode=vanilla",
                "--set", "epochs=2", "--set", f"seed={seed}", "--out-dir", "r"]
        assert main(argv) == 0
        _, test = prepare_splits(ExperimentConfig.from_file(output_root / "r" / "config.json"))
        assert test.label_range == 0.0
        assert len((output_root / "r" / "metrics.jsonl").read_text().splitlines()) == 2

    def test_set_overrides(self, tmp_path, output_root) -> None:
        cfg = small_config_file(tmp_path)
        main([
            "run", "--config", cfg, "--out-dir", "o",
            "--set", "dataset.n=120", "--set", "jitter=0.0",
        ])
        resolved = json.loads((output_root / "o" / "config.json").read_text())
        assert resolved["dataset"]["n"] == 120
        assert resolved["jitter"] == 0.0

    def test_with_reference_reports_relative_error(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path)
        main(["run", "--config", cfg, "--out-dir", "r", "--with-reference"])
        out = capsys.readouterr().out
        assert "noise-free reference MAE" in out
        assert "mrae=" in out
        record = json.loads(
            (output_root / "r" / "metrics.jsonl").read_text().splitlines()[-1]
        )
        assert "mrae" in record


class TestPairingComparison:
    """A pairing comparison is one ``run`` per pairing, then one ``report``."""

    def test_one_run_per_pairing_and_one_report(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path)
        main(["run", "--config", cfg, "--out-dir", "contrastive"])
        main(["run", "--config", cfg, *set_flag("pairing_override", [[1, 2], [3, 4]]),
              "--out-dir", "adjacent"])
        runs = [output_root / "contrastive", output_root / "adjacent"]
        capsys.readouterr()
        assert main(["report", "--runs", *map(str, runs)]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert len(rows) == 2
        column = {name: k for k, name in enumerate(header)}
        assert rows[0][column["config_hash"]] != rows[1][column["config_hash"]]
        for run, row, pairing in zip(runs, rows, ([[1, 3], [2, 4]], [[1, 2], [3, 4]])):
            assert json.loads((run / "layout.json").read_text())["pairing"] == pairing
            rerun = run_experiment(ExperimentConfig.from_file(run / "config.json"))
            assert float(row[column["final_err"]]) == rerun.final_err
            assert float(row[column["final_mae"]]) == rerun.final_mae


class TestReferenceCommand:
    def test_prints_rho(self, tmp_path, capsys) -> None:
        cfg = small_config_file(tmp_path)
        assert main(["reference", "--config", cfg]) == 0
        assert "noise-free reference MAE" in capsys.readouterr().out

    def test_config_json_reruns_a_csv_reference(self, tmp_path, output_root) -> None:
        data = tmp_path / "noisy.csv"
        main(["generate", *synthetic(400),
              *set_flag("noise", {"kind": "symmetric", "rate": 0.4}), "--out", str(data)])
        cfg = small_config_file(tmp_path, dataset=csv_source(data), noise=None,
                                mode="vanilla", epochs=5)
        main(["reference", "--config", cfg, "--out-dir", "A"])
        main(["run", "--config", str(output_root / "A" / "config.json"), "--out-dir", "B"])
        reference = (output_root / "A" / "metrics.jsonl").read_bytes()
        assert (output_root / "B" / "metrics.jsonl").read_bytes() == reference


class TestReportCommand:
    def test_summarizes_runs(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path)
        main(["run", "--config", cfg, "--out-dir", "one"])
        main(["run", "--config", cfg, "--out-dir", "two", "--set", "seed=1"])
        summary = tmp_path / "summary.csv"
        code = main([
            "report", "--runs", str(output_root / "one"), str(output_root / "two"),
            "--out", str(summary),
        ])
        assert code == 0
        lines = summary.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("config_hash,seed,mode")

    def test_stdout_table(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path)
        main(["run", "--config", cfg, "--out-dir", "one"])
        main(["report", "--runs", str(output_root / "one")])
        out = capsys.readouterr().out
        assert "config_hash" in out

    def test_stdout_rows_match_the_run_summary(self, tmp_path, output_root, capsys) -> None:
        cfg = small_config_file(tmp_path, reference_rho=2.5)
        main(["run", "--config", cfg, "--out-dir", "one"])
        capsys.readouterr()
        assert main(["report", "--runs", str(output_root / "one")]) == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        with (output_root / "one" / "summary.csv").open(newline="") as fh:
            written = list(csv.reader(fh))
        assert printed == written
        assert written[1][written[0].index("rho")] == "2.5"


class TestInputErrors:
    @pytest.mark.parametrize("sets, named", [
        (["noise=null", "noise.rate=0.2"], "noise.rate"),
        (["epochs.x=2"], "epochs.x"),
    ])
    def test_set_through_a_non_object(self, tmp_path, sets, named) -> None:
        argv = ["run", "--config", small_config_file(tmp_path)]
        for assignment in sets:
            argv += ["--set", assignment]
        with pytest.raises(SystemExit, match=f"--set {named}: "):
            main(argv)

    def exits_naming(self, argv, message) -> None:
        """``main(argv)`` exits with one line that starts with the command and
        holds ``message``."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        text = str(exc.value.code)
        assert text.startswith(f"fragpair {argv[0]}: ") and "\n" not in text
        assert message in text

    def test_set_to_an_invalid_value(self) -> None:
        self.exits_naming(["run", "--set", "knn_k=4"], "fragpair run: knn_k: ")

    def test_missing_config_file(self, tmp_path) -> None:
        missing = str(tmp_path / "missing.json")
        self.exits_naming(["run", "--config", missing], missing)

    def test_malformed_config_json(self, tmp_path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text('{"epochs": 2')
        self.exits_naming(["run", "--config", str(bad)], f"{bad}: ")

    def test_generate_with_no_samples(self, tmp_path) -> None:
        argv = ["generate", *synthetic(0), "--out", str(tmp_path / "d.csv")]
        self.exits_naming(argv, "dataset.n: must be >= 1")

    def test_inject_noise_on_a_missing_file(self, tmp_path) -> None:
        missing = str(tmp_path / "missing.csv")
        argv = ["generate", *set_flag("dataset", csv_source(missing)),
                *set_flag("noise", SYMMETRIC), "--out", str(tmp_path / "noisy.csv")]
        self.exits_naming(argv, f"no such file: {missing}")

    def test_inject_noise_rate_out_of_range(self, tmp_path) -> None:
        src = tmp_path / "clean.csv"
        main(["generate", *synthetic(20), "--out", str(src)])
        argv = ["generate", *set_flag("dataset", csv_source(src)),
                *set_flag("noise", {**SYMMETRIC, "rate": 2}), "--out", str(tmp_path / "noisy.csv")]
        self.exits_naming(argv, "noise.rate: must lie in [0, 1]")

    def test_set_on_a_config_that_is_not_an_object(self, tmp_path) -> None:
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        self.exits_naming(["run", "--config", str(listed), "--set", "seed=3"],
                          "fragpair run: config: must be an object")

    @pytest.mark.parametrize("command", [["reference"], ["run", "--with-reference"]])
    def test_reference_of_a_csv_without_ground_truth(self, tmp_path, output_root, command) -> None:
        data = tmp_path / "two.csv"
        data.write_text("x0,x1,label\n0.1,0.5,1\n0.2,0.6,2\n")
        argv = [*command, *set_flag("dataset", csv_source(data, gt_col=None)), "--out-dir", "r"]
        self.exits_naming(argv, f"fragpair {command[0]}: dataset.gt_col: ")
        assert not output_root.exists()

    @pytest.mark.parametrize("command", [["run"]], ids=["run"])
    @pytest.mark.parametrize("content, message", [
        (None, "no such file: "),
        ("x0,x1,label\n0.1,zz,1\n", "row 1: cannot parse x1='zz' as a number"),
        ("a,b\n1,2\n", "missing columns: x0, x1, label"),
    ], ids=["missing", "unparsable", "no_columns"])
    def test_unreadable_data_before_the_first_epoch(self, tmp_path, command, content,
                                                    message) -> None:
        data = tmp_path / "data.csv"
        if content is not None:
            data.write_text(content)
        argv = [*command, *set_flag("dataset", csv_source(data, gt_col=None))]
        self.exits_naming(argv, f"epoch 0, stage prepare: {message}")

    def test_a_training_set_with_one_label_value(self, tmp_path, output_root) -> None:
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,label\n" + "".join(f"{k},0.5,5\n" for k in range(20)))
        argv = ["run", *set_flag("dataset", csv_source(data, gt_col=None)), "--out-dir", "r"]
        self.exits_naming(argv, "epoch 0, stage fragment: observed label range is degenerate")
        assert (output_root / "r" / "metrics.jsonl").read_text() == ""

    def test_out_dir_that_is_a_file(self, tmp_path) -> None:
        taken = tmp_path / "taken"
        taken.write_text("")
        self.exits_naming(["run", *synthetic(40), "--out-dir", str(taken)],
                          "epoch 0, stage artifacts: ")

    @pytest.mark.filterwarnings("ignore:fragment 4 is empty")
    def test_failure_of_the_run_before_its_first_epoch_keeps_its_traceback(self) -> None:
        # Not a data or directory error: n=40 over 12 fragments leaves one empty.
        argv = ["run", *synthetic(40), "--set", "fragments=12", "--set", "jitter=0.04"]
        with pytest.raises(PipelineError, match="^epoch 0, stage pairing: empty fragment"):
            main(argv)

    @pytest.mark.parametrize("pairing, sets, message", [
        ([[1, 1], [2, 3]], [], "pairing_override: pair (1, 1) must be ordered i < j"),
        ([[1, 2], [3, 4]], ["--set", "fragments=6"], "pairing_override: covers 4 fragments, expected 6"),
    ], ids=["unordered_pair", "too_few_fragments"])
    def test_invalid_matching(self, tmp_path, output_root, pairing, sets, message) -> None:
        argv = ["run", "--config", small_config_file(tmp_path),
                *set_flag("pairing_override", pairing), *sets, "--out-dir", "r"]
        self.exits_naming(argv, message)
        assert not output_root.exists()

    def test_report_on_a_missing_directory(self, tmp_path) -> None:
        missing = tmp_path / "missing"
        self.exits_naming(["report", "--runs", str(missing)], str(missing / "config.json"))

    def test_report_on_a_run_with_no_finished_epoch(self, tmp_path, output_root, monkeypatch) -> None:
        def diverge(*args, **kwargs):
            raise RuntimeError("diverged")

        monkeypatch.setattr(fragpair.pipeline, "train_epoch", diverge)
        argv = ["run", "--config", small_config_file(tmp_path), "--out-dir", "failed"]
        # A run that fails part-way is not an input error: it keeps its traceback.
        with pytest.raises(PipelineError, match="epoch 1, stage train_regressor: diverged"):
            main(argv)
        run_dir = output_root / "failed"
        assert (run_dir / "metrics.jsonl").read_text() == ""
        self.exits_naming(["report", "--runs", str(run_dir)],
                          f"{run_dir}: metrics.jsonl holds no finished epoch")

    def test_report_on_a_cut_off_metrics_file(self, tmp_path, output_root) -> None:
        main(["run", "--config", small_config_file(tmp_path), "--out-dir", "cut"])
        metrics = output_root / "cut" / "metrics.jsonl"
        metrics.write_bytes(metrics.read_bytes()[:30])
        self.exits_naming(["report", "--runs", str(output_root / "cut")], f"{metrics}: line 1 ")
