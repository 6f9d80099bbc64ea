"""One operation of the fragpair benchmark, in a fresh process started by run.py.

    python3 benchmark/worker.py --workload NAME --seed N --trace 0|1 --work DIR [--n N]

Builds the workload's config from the seed, makes the workload's calls into
fragpair's public API, checks every output with checks.py and prints one JSON
line: ``ready_at`` (``time.monotonic()`` once fragpair is imported and the
config validated), ``run_s``, ``peak_rss_mb`` (``VmHWM``), ``failed`` (calls that raised
or whose check failed), ``problems``, the last-epoch record ``final`` and,
when traced, the per-layer table ``layers``.  Everything it writes goes under
``--work``, which it removes, apart from the span file of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fragpair.cli  # noqa: E402
import fragpair.pipeline  # noqa: E402
from fragpair.config import ExperimentConfig  # noqa: E402
from fragpair.fragments import (  # noqa: E402
    fragment_edge_weights,
    fragment_labels,
    select_contrastive_pairing,
)

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

TRACE_DIR = ROOT / ".bench_out" / "trace"

_SYNTHETIC = {"kind": "synthetic", "d": 2}
_ACCEPTANCE = {"noise": {"kind": "symmetric", "rate": 0.4}, "fragments": 4,
               "jitter": 0.05, "knn_k": 5, "epochs": 100}
CONFIGS = {
    "select-2k": {**_ACCEPTANCE, "dataset": {**_SYNTHETIC, "n": 2000}, "mode": "select"},
    "vanilla-8k": {**_ACCEPTANCE, "dataset": {**_SYNTHETIC, "n": 8000}, "mode": "vanilla"},
    "regr-f8-rundir": {**_ACCEPTANCE, "dataset": {**_SYNTHETIC, "n": 1000},
                       "noise": {"kind": "gaussian", "max_std_frac": 0.3},
                       "fragments": 8, "mode": "select_regr"},
}


@dataclass
class Workload:
    """``calls`` makes the call thunks (after any input files are written);
    ``verifiers[k]`` checks the output of call k; ``final`` reads the
    last-epoch record from the outputs."""

    calls: Callable
    verifiers: list[Callable]
    final: Callable


def _pipeline_calls(cfg, work):
    return [lambda: fragpair.pipeline.run_experiment(cfg)]


def _verify_select(cfg, result, work):
    train, test = fragpair.pipeline.prepare_splits(cfg)
    checks.pairing(result.pairing.pairs, train.y, cfg.fragments, expect=((1, 3), (2, 4)))
    checks.selection(result.last_selection, result.final, train.y, train.y_gt)
    checks.beats_constant(result.final_mae, train.y, test.y_gt)


def _verify_vanilla(cfg, result, work):
    train, test = fragpair.pipeline.prepare_splits(cfg)
    scheme = fragment_labels(train, cfg.fragments)
    program = select_contrastive_pairing(fragment_edge_weights(train, scheme))
    checks.pairing(program.pairs, train.y, cfg.fragments)
    checks.vanilla(result.final, train.n)
    checks.beats_constant(result.final_mae, train.y, test.y_gt)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fragpair.cli.main(argv)
    return code, out.getvalue()


def _cli_calls(cfg, work):
    config_path, run = work / "config.json", work / "run"
    config_path.write_text(json.dumps(cfg.to_dict()))
    return [
        lambda: _cli(["run", "--config", str(config_path), "--out-dir", str(run), "--with-reference"]),
        lambda: _cli(["report", "--runs", str(run)]),
    ]


def _verify_cli_run(cfg, output, work):
    code, _ = output
    checks.require(code == 0, f"fragpair run exited with {code}")
    train, test = fragpair.pipeline.prepare_splits(cfg)
    expected = checks.max_min_pairing(train.y, cfg.fragments)
    checks.run_dir(work / "run", cfg, train, test, expected)


def _verify_cli_report(cfg, output, work):
    code, stdout = output
    checks.require(code == 0, f"fragpair report exited with {code}")
    checks.report(stdout, work / "run")


def _last_record(outputs, work):
    return json.loads((work / "run" / "metrics.jsonl").read_text().splitlines()[-1])


WORKLOADS = {
    "select-2k": Workload(_pipeline_calls, [_verify_select], lambda outs, work: outs[0].final),
    "vanilla-8k": Workload(_pipeline_calls, [_verify_vanilla], lambda outs, work: outs[0].final),
    "regr-f8-rundir": Workload(_cli_calls, [_verify_cli_run, _verify_cli_report], _last_record),
}

_RAISED = object()


def _artifacts(run: Path) -> tuple[int, int]:
    files = [p for p in run.rglob("*") if p.is_file()] if run.is_dir() else []
    return sum(p.stat().st_size for p in files), len(files)


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it was exec'd (``VmHWM``).

    ``ru_maxrss`` would also count the parent's resident set at fork, which
    the peak of a worker forked from a numpy-holding ``run.py`` is not.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--n", type=int, default=None, help="override the dataset size")
    args = ap.parse_args()

    raw = dict(CONFIGS[args.workload], seed=args.seed)
    if args.n is not None:
        raw["dataset"] = dict(raw["dataset"], n=args.n)
    cfg = ExperimentConfig.from_dict(raw)
    workload = WORKLOADS[args.workload]
    args.work.mkdir(parents=True)
    calls = workload.calls(cfg, args.work)
    ready_at = time.monotonic()

    tracer = Tracer(f"{args.workload}-s{args.seed}-{args.work.name}") if args.trace else None
    outputs, run_s = [], 0.0
    if tracer:
        tracer.install()
    try:
        for call in calls:
            start = time.perf_counter()
            try:
                outputs.append(call())
            except Exception:
                traceback.print_exc()
                outputs.append(_RAISED)
            run_s += time.perf_counter() - start
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = _peak_rss_mb()

    failed, problems = 0, []
    for k, (output, verify) in enumerate(zip(outputs, workload.verifiers)):
        if output is _RAISED:
            failed += 1
            continue
        try:
            verify(cfg, output, args.work)
        except Exception as exc:  # a missing or unreadable output fails its check too
            failed += 1
            problems.append(f"{args.workload} seed {args.seed} call {k}: {type(exc).__name__}: {exc}")
    record = {"ready_at": ready_at, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "failed": failed, "problems": problems,
              "final": None if failed else workload.final(outputs, args.work)}
    if tracer:
        layers = tracer.layers()
        layers["pipeline.artifact_bytes"], layers["pipeline.artifact_files"] = _artifacts(args.work / "run")
        layers["trace.accounted_share"] = sum(
            v for k, v in layers.items() if k.endswith(".self_s")) / run_s
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-s{args.seed}"
        tracer.write(TRACE_DIR / f"{stem}.spans.jsonl", TRACE_DIR / f"{stem}.layers.txt", layers)
        record["layers"] = layers
    shutil.rmtree(args.work)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
