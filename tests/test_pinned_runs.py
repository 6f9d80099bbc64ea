"""A small run set's outputs, pinned: three modes under symmetric 0.4 and
gaussian 0.3 noise, n=400, 10 epochs, seed 3, each run with the vote worker
and on one CPU.

Pinned exactly: each ``selection/`` file's sha256, every ``metrics.jsonl``
integer, and the sha256 of ``layout.json`` and ``config.json``; these bytes
were the same under every OpenBLAS kernel tried.  ``metrics.jsonl`` floats
agree to 1e-12 relative, and the checkpoints and ``summary.csv`` are pinned by
shape and keys only: their floats differ in bits from one kernel to another.

A change that moves these outputs by design re-pins them with
``PYTHONPATH=src python tests/test_pinned_runs.py`` and records the old and
new digests, and why they moved.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fragpair.pipeline
from fragpair.config import ExperimentConfig
from fragpair.pipeline import run_experiment

PINS = Path(__file__).with_name("pinned_runs.json")
NOISES = {"symmetric": {"kind": "symmetric", "rate": 0.4},
          "gaussian": {"kind": "gaussian", "max_std_frac": 0.3}}
RUNS = {f"{mode}_{kind}": {"mode": mode, "dataset": {"n": 400}, "noise": noise,
                           "epochs": 10, "seed": 3}
        for mode in ("select", "select_regr", "vanilla") for kind, noise in NOISES.items()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs(run: Path) -> dict:
    """What the pins hold of the run directory ``run``."""
    checkpoints = {}
    for path in sorted((run / "checkpoints").iterdir()):
        with np.load(path) as ckpt:
            checkpoints[path.name] = {name: [ckpt[name].dtype.str, list(ckpt[name].shape)]
                                      for name in ckpt.files}
    header, *rows = (run / "summary.csv").read_text().splitlines()
    return {
        "selection": {path.name: _sha256(path) for path in sorted((run / "selection").iterdir())},
        "config.json": _sha256(run / "config.json"),
        "layout.json": _sha256(run / "layout.json"),
        "metrics": [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()],
        "checkpoints": checkpoints,
        "summary.csv": {"header": header.split(","), "rows": [len(row.split(",")) for row in rows]},
    }


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "one_cpu"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_match_their_pins(name, cpus, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(fragpair.pipeline, "_usable_cpus", lambda: cpus)
    run_experiment(ExperimentConfig.from_dict(RUNS[name]), out_dir=tmp_path)
    got, want = outputs(tmp_path), json.loads(PINS.read_text())[name]
    got_metrics, want_metrics = got.pop("metrics"), want.pop("metrics")
    assert got == want
    assert len(got_metrics) == len(want_metrics)
    for got_record, want_record in zip(got_metrics, want_metrics):
        assert list(got_record) == list(want_record)
        for key, value in want_record.items():
            assert type(got_record[key]) is type(value), (got_record["epoch"], key)
            if isinstance(value, float):
                assert math.isclose(got_record[key], value, rel_tol=1e-12, abs_tol=0.0), \
                    (got_record["epoch"], key)
            else:
                assert got_record[key] == value, (got_record["epoch"], key)


if __name__ == "__main__":
    pins = {}
    with tempfile.TemporaryDirectory() as work:
        for name, raw in sorted(RUNS.items()):
            run_experiment(ExperimentConfig.from_dict(raw), out_dir=Path(work) / name)
            pins[name] = outputs(Path(work) / name)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
