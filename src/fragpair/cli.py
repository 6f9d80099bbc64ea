"""Command-line interface: a config's data, experiment runs and reports.

Every command but ``report`` builds one config from ``--config`` and
``--set``; ``generate`` writes the data a run of that config loads, before
the split.  Every path is used as given, relative to the working directory;
a ``run`` without ``--out-dir`` writes ``runs/<mode>_<config hash>_s<seed>``.
``main`` turns bad input, and a run's unreadable data or directory, into one
``fragpair <command>: <message>`` exit; a run that fails otherwise raises ``PipelineError``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, read_json
from .data import DataError, write_csv
from .pipeline import (
    PipelineError,
    load_dataset,
    run_experiment,
    run_noise_free_reference,
    summary_row,
    write_summary_csv,
)

def _cmd_generate(args: argparse.Namespace) -> int:
    ds = load_dataset(_load_config(args))
    write_csv(ds, args.out)
    corrupted = "" if ds.y_gt is None else f", {int((ds.y != ds.y_gt).sum())} labels corrupted"
    print(f"wrote {ds.n} samples (d={ds.d}{corrupted}) to {args.out}")
    return 0


def _apply_set_overrides(raw: dict, assignments: list[str]) -> dict:
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, text = assignment.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set {key}: {part} is {json.dumps(target)}, not an object")
        target[parts[-1]] = value
    return raw


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = read_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError("config: must be an object")
    return ExperimentConfig.from_dict(_apply_set_overrides(raw, args.set or []))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.with_reference and cfg.reference_rho is None:
        rho, _ = run_noise_free_reference(cfg)
        cfg = cfg.replace(reference_rho=rho)
        print(f"noise-free reference MAE: {rho:.6g}")
    out_dir = Path(args.out_dir or f"runs/{cfg.mode}_{cfg.config_hash()}_s{cfg.seed}")
    result = run_experiment(cfg, out_dir=out_dir)
    final = result.final
    parts = [f"mae={final['mae']:.6g}", f"selection_rate={final['selection_rate']:.4f}"]
    if "err" in final:
        parts.append(f"err={final['err']:.4f}")
    if "mrae" in final:
        parts.append(f"mrae={100 * final['mrae']:.2f}%")
    print(f"run complete ({out_dir}): " + " ".join(parts))
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rho, _ = run_noise_free_reference(cfg, out_dir=args.out_dir or None)
    print(f"noise-free reference MAE: {rho:.6g}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for run_dir in map(Path, args.runs):
        cfg = ExperimentConfig.from_file(run_dir / "config.json")
        metrics = run_dir / "metrics.jsonl"
        try:
            records = metrics.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{metrics}: not UTF-8 text: {exc.reason}") from None
        if not records:
            raise ConfigError(f"{run_dir}: metrics.jsonl holds no finished epoch")
        try:
            final = json.loads(records[-1])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{metrics}: line {len(records)} is not a whole record ({exc.msg})") from None
        if not (isinstance(final, dict) and type(final.get("mae")) in (int, float)
                and type(final.get("selection_rate")) in (int, float)):
            raise ConfigError(f"{metrics}: line {len(records)} is not an epoch record")
        rows.append(summary_row(cfg, final))
    write_summary_csv(sys.stdout, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragpair",
        description="Noisy-label regression with fragment-pair clean-sample selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field (dotted paths allowed)")

    gen = sub.add_parser("generate", help="write the data a run of the config loads (before the split)")
    add_config_args(gen)
    gen.add_argument("--out", required=True, help="CSV output path (load_csv reads it back)")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="execute one seeded experiment")
    add_config_args(run)
    run.add_argument("--out-dir", help="run directory (default: runs/<mode>_<config hash>_s<seed>)")
    run.add_argument("--with-reference", action="store_true",
                     help="train a noise-free reference first and report relative error")
    run.set_defaults(func=_cmd_run)

    ref = sub.add_parser("reference", help="noise-free reference MAE for relative error")
    add_config_args(ref)
    ref.add_argument("--out-dir", help="run directory (none is written when omitted)")
    ref.set_defaults(func=_cmd_reference)

    rep = sub.add_parser("report", help="summarize finished run directories")
    rep.add_argument("--runs", nargs="+", required=True)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError) as exc:
        raise SystemExit(f"fragpair {args.command}: {exc}")
    except PipelineError as exc:
        # Unreadable data or an unusable run directory, before the first epoch.
        if exc.epoch == 0 and isinstance(exc.__cause__, (DataError, OSError)):
            raise SystemExit(f"fragpair {args.command}: {exc}")
        raise


if __name__ == "__main__":
    raise SystemExit(main())
