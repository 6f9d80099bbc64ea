"""Self-test of the benchmark's output checks: each must reject a wrong output.

    python3 benchmark/selftest.py

Runs small real experiments (a few hundred samples, a few epochs), confirms
that every check accepts their outputs, then corrupts one output at a time and
confirms the matching check rejects it.  Exits 0 only if every check passed
on the real output and failed on every corrupted one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fragpair.cli  # noqa: E402
from fragpair.config import ExperimentConfig  # noqa: E402
from fragpair.pipeline import prepare_splits, run_experiment  # noqa: E402

import checks  # noqa: E402

SMALL = {"dataset": {"kind": "synthetic", "n": 400, "d": 2},
         "noise": {"kind": "symmetric", "rate": 0.4}, "epochs": 20, "seed": 3}


def _rejects(name: str, check) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"  rejected  {name}: {exc}")
        return True
    print(f"  ACCEPTED  {name}: the check did not fail")
    return False


def _accepts(name: str, check) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"  FAILED    {name} on the real output: {exc}")
        return False
    print(f"  accepted  {name} on the real output")
    return True


def _edit_last_line(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    lines[-1] = json.dumps(edit(json.loads(lines[-1])))
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    ok = []

    cfg = ExperimentConfig.from_dict({**SMALL, "mode": "select"})
    result = run_experiment(cfg)
    train, test = prepare_splits(cfg)
    outcome, final = result.last_selection, result.final
    flipped = copy.deepcopy(outcome)
    k = int(flipped.selected_union[0])
    flipped.chosen_pred[k] = flipped.chosen_repr[k] = False
    swapped = ((1, 2), (3, 4))
    ok += [
        _accepts("pairing", lambda: checks.pairing(result.pairing.pairs, train.y, 4, expect=((1, 3), (2, 4)))),
        _accepts("selection", lambda: checks.selection(outcome, final, train.y, train.y_gt)),
        _accepts("beats_constant", lambda: checks.beats_constant(final["mae"], train.y, test.y_gt)),
        _rejects("pairing swapped", lambda: checks.pairing(swapped, train.y, 4)),
        _rejects("selection index flipped", lambda: checks.selection(flipped, final, train.y, train.y_gt)),
        _rejects("err nudged", lambda: checks.selection(
            outcome, {**final, "err": final["err"] * (1 + 1e-9)}, train.y, train.y_gt)),
        _rejects("MAE above the constant predictor", lambda: checks.beats_constant(
            float(abs(train.y.mean() - test.y_gt).mean()), train.y, test.y_gt)),
    ]

    vcfg = ExperimentConfig.from_dict({**SMALL, "mode": "vanilla"})
    vfinal = run_experiment(vcfg).final
    n_train = prepare_splits(vcfg)[0].n
    ok += [
        _accepts("vanilla", lambda: checks.vanilla(vfinal, n_train)),
        _rejects("vanilla err below 1", lambda: checks.vanilla({**vfinal, "err": 0.999}, n_train)),
    ]

    rcfg = ExperimentConfig.from_dict({**SMALL, "noise": {"kind": "gaussian", "max_std_frac": 0.3},
                                       "fragments": 8, "epochs": 3, "mode": "select_regr"})
    rtrain, rtest = prepare_splits(rcfg)
    expected = checks.max_min_pairing(rtrain.y, 8)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        config_path, run = tmp / "config.json", tmp / "run"
        config_path.write_text(json.dumps(rcfg.to_dict()))
        report_out = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            fragpair.cli.main(["run", "--config", str(config_path), "--out-dir", str(run), "--with-reference"])
        with contextlib.redirect_stdout(report_out):
            fragpair.cli.main(["report", "--runs", str(run)])
        printed = report_out.getvalue()

        def check_dir(path):
            return lambda: checks.run_dir(path, rcfg, rtrain, rtest, expected)

        def corrupted(name, corrupt):
            copy_dir = tmp / name.replace(" ", "_")
            shutil.copytree(run, copy_dir)
            corrupt(copy_dir)
            return copy_dir

        def truncate(d):
            path = d / "selection" / "epoch_0002.jsonl"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        def nudge_mae(d):
            _edit_last_line(d / "metrics.jsonl", lambda r: {**r, "mae": r["mae"] * (1 + 1e-6)})

        def drop_epoch(d):
            path = d / "metrics.jsonl"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        def flip_pick(d):
            _edit_last_line(d / "selection" / "epoch_0003.jsonl",
                            lambda r: {**r, "chosen_pred": not r["chosen_pred"]})

        def swap_layout(d):
            layout = json.loads((d / "layout.json").read_text())
            layout["pairing"] = [[1, 2], [3, 4], [5, 6], [7, 8]]
            (d / "layout.json").write_text(json.dumps(layout))

        def alter_checkpoint(d):
            path = d / "checkpoints" / "regressor.npz"
            with np.load(path) as archive:
                arrays = dict(archive)
            arrays["b0"] = arrays["b0"] + 1e-3
            np.savez(path, **arrays)

        def nudge_mrae(d):
            _edit_last_line(d / "metrics.jsonl", lambda r: {**r, "mrae": r["mrae"] + 1e-6})

        ok += [
            _accepts("run_dir", check_dir(run)),
            _accepts("report", lambda: checks.report(printed, run)),
            _rejects("report row altered", lambda: checks.report(printed.replace(",3,", ",4,"), run)),
        ]
        for name, corrupt in [("selection file truncated", truncate), ("MAE nudged", nudge_mae),
                              ("metrics epoch dropped", drop_epoch), ("selection pick flipped", flip_pick),
                              ("layout pairing swapped", swap_layout), ("mrae nudged", nudge_mrae),
                              ("regressor checkpoint altered", alter_checkpoint)]:
            ok.append(_rejects(name, check_dir(corrupted(name, corrupt))))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"selftest: {sum(ok)}/{len(ok)} as expected")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
