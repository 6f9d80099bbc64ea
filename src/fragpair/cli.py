"""Command-line interface: dataset tooling, experiment runs and reports.

Run directories default to ``$FRAGPAIR_OUTPUT_ROOT`` (or ``./runs``) unless an
absolute ``--out-dir`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import MODES, ExperimentConfig
from .data import (
    default_feature_cols,
    inject_gaussian_noise,
    inject_symmetric_noise,
    generate_synthetic,
    load_csv,
    write_csv,
    write_jsonl,
)
from .pipeline import (
    RunResult,
    compare_pairings,
    run_experiment,
    run_noise_free_reference,
    summary_row,
    write_summary_csv,
)

OUTPUT_ROOT_ENV = "FRAGPAIR_OUTPUT_ROOT"


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _resolve_out_dir(arg: str | None, cfg: ExperimentConfig) -> Path:
    if arg is None:
        name = f"{cfg.mode}_{cfg.config_hash()}_s{cfg.seed}"
        return output_root() / name
    path = Path(arg)
    return path if path.is_absolute() else output_root() / path


def _write_dataset(ds, out: str) -> None:
    if out.endswith(".jsonl"):
        write_jsonl(ds, out)
    else:
        write_csv(ds, out)


def _cmd_generate(args: argparse.Namespace) -> int:
    ds = generate_synthetic(
        n=args.n,
        d=args.d,
        label_lo=args.label_lo,
        label_hi=args.label_hi,
        feature_noise_std=args.feature_noise_std,
        seed=args.seed,
    )
    _write_dataset(ds, args.out)
    print(f"wrote {ds.n} samples (d={ds.d}) to {args.out}")
    return 0


def _cmd_inject_noise(args: argparse.Namespace) -> int:
    feature_cols = (
        args.feature_cols.split(",") if args.feature_cols else default_feature_cols(args.d)
    )
    ds = load_csv(args.data, feature_cols, args.label_col, args.gt_col)
    if args.kind == "symmetric":
        noisy = inject_symmetric_noise(ds, args.rate, args.seed)
    else:
        noisy = inject_gaussian_noise(ds, args.max_std_frac, args.seed)
    _write_dataset(noisy, args.out)
    corrupted = int((noisy.y != noisy.y_gt).sum())
    print(f"corrupted {corrupted}/{noisy.n} labels -> {args.out}")
    return 0


def _apply_set_overrides(raw: dict, assignments: list[str]) -> dict:
    for assignment in assignments:
        if "=" not in assignment:
            raise SystemExit(f"--set expects key=value, got {assignment!r}")
        key, text = assignment.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
        target[parts[-1]] = value
    return raw


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        raw["epochs"] = args.epochs
    if getattr(args, "mode", None) is not None:
        raw["mode"] = args.mode
    raw = _apply_set_overrides(raw, getattr(args, "set", []) or [])
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.with_reference and cfg.reference_rho is None:
        rho, _ = run_noise_free_reference(cfg)
        cfg = cfg.replace(reference_rho=rho)
        print(f"noise-free reference MAE: {rho:.6g}")
    out_dir = _resolve_out_dir(args.out_dir, cfg)
    result = run_experiment(cfg, out_dir=out_dir)
    final = result.final
    parts = [f"mae={final['mae']:.6g}", f"selection_rate={final['selection_rate']:.4f}"]
    if "err" in final:
        parts.append(f"err={final['err']:.4f}")
    if "mrae" in final:
        parts.append(f"mrae={100 * final['mrae']:.2f}%")
    print(f"run complete ({out_dir}): " + " ".join(parts))
    return 0


def _parse_pairings(text: str) -> list[list[list[int]]]:
    matchings = []
    for chunk in text.split(";"):
        pairs = []
        for pair in chunk.split(","):
            a, b = pair.split("-")
            pairs.append([int(a), int(b)])
        matchings.append(pairs)
    return matchings


def _cmd_compare_pairings(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    pairings = _parse_pairings(args.pairings)
    out = Path(args.out) if args.out else output_root() / "pairing_comparison.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = compare_pairings(cfg, pairings, out_path=out)
    for row in rows:
        print(
            f"{row['pairing']}: err={row['final_err']} "
            f"selection_rate={row['final_selection_rate']:.4f} mae={row['final_mae']:.6g}"
        )
    print(f"wrote {out}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = _resolve_out_dir(args.out_dir, cfg.replace(mode="vanilla")) if args.out_dir else None
    rho, _ = run_noise_free_reference(cfg, out_dir=out_dir)
    print(f"noise-free reference MAE: {rho:.6g}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for run_dir in args.runs:
        run_path = Path(run_dir)
        cfg = ExperimentConfig.from_file(run_path / "config.json")
        with (run_path / "metrics.jsonl").open() as fh:
            history = [json.loads(line) for line in fh]
        result = RunResult(config=cfg, pairing=None, history=history, rho=cfg.reference_rho)
        rows.append(summary_row(cfg, result))
    if not rows:
        print("no runs to report", file=sys.stderr)
        return 1
    if args.out:
        write_summary_csv(Path(args.out), rows)
        print(f"wrote {args.out}")
    else:
        writer_keys = list(rows[0].keys())
        print(",".join(writer_keys))
        for row in rows:
            print(",".join(str(row[k]) for k in writer_keys))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragpair",
        description="Noisy-label regression with fragment-pair clean-sample selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--n", type=int, default=2000)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--label-lo", type=float, default=0.0)
    gen.add_argument("--label-hi", type=float, default=100.0)
    gen.add_argument("--feature-noise-std", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help=".csv or .jsonl output path")
    gen.set_defaults(func=_cmd_generate)

    noise = sub.add_parser("inject-noise", help="corrupt labels in a CSV dataset")
    noise.add_argument("--data", required=True)
    noise.add_argument("--out", required=True)
    noise.add_argument("--kind", choices=("symmetric", "gaussian"), required=True)
    noise.add_argument("--rate", type=float, default=0.4, help="symmetric corruption probability")
    noise.add_argument("--max-std-frac", type=float, default=0.3, help="gaussian std cap (range fraction)")
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--d", type=int, default=2, help="feature count when --feature-cols is omitted")
    noise.add_argument("--feature-cols", help="comma-separated feature column names")
    noise.add_argument("--label-col", default="label")
    noise.add_argument("--gt-col", default=None)
    noise.set_defaults(func=_cmd_inject_noise)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field (dotted paths allowed)")

    run = sub.add_parser("run", help="execute one seeded experiment")
    add_config_args(run)
    run.add_argument("--mode", choices=MODES, default=None)
    run.add_argument("--out-dir", help="artifact directory (relative paths live under the output root)")
    run.add_argument("--with-reference", action="store_true",
                     help="train a noise-free reference first and report relative error")
    run.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare-pairings", help="run once per pairing and tabulate")
    add_config_args(cmp_p)
    cmp_p.add_argument("--pairings", required=True,
                       help="e.g. '1-3,2-4;1-2,3-4' (matchings split by ';')")
    cmp_p.add_argument("--out", help="comparison CSV path")
    cmp_p.set_defaults(func=_cmd_compare_pairings)

    ref = sub.add_parser("reference", help="noise-free reference MAE for relative error")
    add_config_args(ref)
    ref.add_argument("--out-dir", default=None)
    ref.set_defaults(func=_cmd_reference)

    rep = sub.add_parser("report", help="summarize finished run directories")
    rep.add_argument("--runs", nargs="+", required=True)
    rep.add_argument("--out", help="summary CSV path (prints to stdout when omitted)")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
