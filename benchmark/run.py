"""fragpair benchmark: measure one workload for a fixed time and check its outputs.

    python3 benchmark/run.py --workload select-2k --seed 1 --seconds 30 --trace 0

Every operation runs in a fresh Python process (worker.py), one at a time,
with BLAS pinned to one thread.  Rounds repeat until ``--seconds`` have
passed; with ``--trace 1`` a round is one untraced and one traced operation,
so tracing overhead is measured inside the same run; the two swap order
every round, so running second is no advantage to either.  The run's median
``run_s`` and ``setup_s`` are divided by the host slowdown measured around
its operations (hostspeed.py, timed in this process just before and after
each worker), so that the drift of a shared host's speed over minutes does
not read as a change of the program.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
See README.md beside this file for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = "1"
# Pinned before numpy is first imported, here (hostspeed.py) and in every worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Calls into fragpair per operation; each counts as one attempted operation.
CALLS = {"select-2k": 1, "vanilla-8k": 1, "regr-f8-rundir": 2}
# A run must end within 180 s: no round starts that could end past this.
DEADLINE_S = 165.0


def _operation(args, trace: int, work: Path, timeout: float):
    """One fresh-process operation; None if the process failed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--work", str(work)]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"operation timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"operation exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready_at") - started
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(CALLS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the dataset size (scaling reference only)")
    args = ap.parse_args()
    if not (ROOT / "src" / "fragpair" / "__init__.py").is_file():
        print(f"no fragpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_root))
    hostspeed.warm_up()
    plain, traced, problems, host_times = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    try:
        for round_index in itertools.count():
            round_start = time.monotonic()
            for trace in ((0, 1), (1, 0))[round_index % 2] if args.trace else (0,):
                remaining = DEADLINE_S - (time.monotonic() - start)
                host_times.append(hostspeed.measure())
                result = _operation(args, trace, tmp / f"op{attempted}", max(remaining, 1.0))
                host_times.append(hostspeed.measure())
                attempted += CALLS[args.workload]
                if result is None:
                    failed += CALLS[args.workload]
                    continue
                failed += result["failed"]
                problems += result["problems"]
                if result["failed"] == 0:
                    (traced if trace else plain).append(result)
            now = time.monotonic()
            if now - start >= args.seconds or 2 * now - round_start - start > DEADLINE_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    finals = [r["final"] for r in plain + traced]
    if any(f != finals[0] for f in finals):
        problems.append("last-epoch records differ between operations of one seed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("no operation succeeded; nothing to report", file=sys.stderr)
        return 1

    median = statistics.median
    slowdown = median(host_times) / hostspeed.REFERENCE_S
    wall_run_s = median(r["run_s"] for r in plain)
    wall_setup_s = median(r["setup_s"] for r in plain)
    if args.trace:
        values = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (median(r["run_s"] for r in traced) - wall_run_s) / slowdown
    else:
        values = {
            "run_s": wall_run_s / slowdown,
            "setup_s": wall_setup_s / slowdown,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "final_err": finals[0]["err"],
            "final_mae": finals[0]["mae"],
        }
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced operations, "
          f"BLAS threads {BLAS_THREADS}")
    print("  wall run_s per operation:   " + " ".join(f"{r['run_s']:.4g}" for r in plain))
    print("  wall setup_s per operation: " + " ".join(f"{r['setup_s']:.4g}" for r in plain))
    print("  host kernel s:              " + " ".join(f"{t:.4g}" for t in host_times))
    print(f"  wall medians: run_s {wall_run_s:.6g} s, setup_s {wall_setup_s:.6g} s; "
          f"host slowdown {slowdown:.6g} (kernel median over {hostspeed.REFERENCE_S} s)")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
