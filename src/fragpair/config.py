"""Experiment configuration: strict JSON schema, validation and hashing."""

from __future__ import annotations

import hashlib
import json
import math
from numbers import Real
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .fragments import Pairing, check_fragment_count, check_jitter
from .net import ACTIVATIONS
from .selection import COMBINES

MODES = ("select", "select_regr", "vanilla")


class ConfigError(ValueError):
    """Raised with the offending field named in the message."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_int(value, name: str, minimum: Optional[int] = None) -> None:
    """An integer field: bools (an int subclass) and integral floats are rejected."""
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name}: must be an integer, got {value!r}",
    )
    if minimum is not None:
        _require(value >= minimum, f"{name}: must be >= {minimum}")


def _require_real(value, name: str) -> None:
    """A real-valued field: a finite int or float, not a bool, string or null."""
    _require(
        isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value),
        f"{name}: must be a finite number, got {value!r}",
    )


def _require_rule(name: str, rule, *args):
    """A rule that another module owns; its ValueError becomes a ConfigError naming ``name``."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _take(raw: dict, allowed: dict, context: str) -> dict:
    _require(isinstance(raw, dict), f"{context}: must be an object")
    unknown = set(raw) - set(allowed)
    _require(not unknown, f"unknown {context} keys: {', '.join(sorted(unknown))}")
    merged = dict(allowed)
    merged.update(raw)
    return merged


def read_json(path: str | Path):
    """A JSON file's data; malformed JSON raises a ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class NetConfig:
    hidden_dims: tuple[int, ...] = (16, 8)
    activation: str = "relu"

    def validate(self, name: str) -> None:
        _require(len(self.hidden_dims) >= 1, f"{name}.hidden_dims: need one or more layers")
        for h in self.hidden_dims:
            _require_int(h, f"{name}.hidden_dims", 1)
        _require(
            self.activation in ACTIVATIONS,
            f"{name}.activation: must be one of {ACTIVATIONS}",
        )

    def to_dict(self) -> dict:
        return {"hidden_dims": list(self.hidden_dims), "activation": self.activation}

    @staticmethod
    def from_dict(raw: dict, default: "NetConfig", name: str) -> "NetConfig":
        """``raw``'s keys over ``default``, the field's own default net."""
        merged = _take(raw, default.to_dict(), name)
        _require(
            isinstance(merged["hidden_dims"], (list, tuple)),
            f"{name}.hidden_dims: must be a list of integers",
        )
        return NetConfig(
            hidden_dims=tuple(merged["hidden_dims"]), activation=merged["activation"]
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; (config, seed) determines every output byte."""

    dataset: dict
    noise: Optional[dict] = None
    fragments: int = 4
    jitter: float = 0.05
    knn_k: int = 5
    expert_net: NetConfig = field(default_factory=NetConfig)
    regressor_net: NetConfig = field(default_factory=lambda: NetConfig(hidden_dims=(32, 16)))
    epochs: int = 100
    expert_lr: float = 0.1
    regressor_lr: float = 0.1
    batch_size: int = 64
    seed: int = 0
    test_frac: float = 0.2
    pairing_override: Optional[tuple[tuple[int, int], ...]] = None
    mode: str = "select"
    selection_combine: str = "union"
    reference_rho: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        self._validate_dataset()
        self._validate_noise()
        F = self.fragments
        _require_int(F, "fragments")
        _require_rule("fragments", check_fragment_count, F)
        _require_real(self.jitter, "jitter")
        _require_rule("jitter", check_jitter, self.jitter, F)
        _require_int(self.knn_k, "knn_k", 1)
        _require(self.knn_k % 2 == 1, "knn_k: must be an odd integer >= 1")
        for name in ("expert_net", "regressor_net"):
            net = getattr(self, name)
            _require(isinstance(net, NetConfig), f"{name}: must be a NetConfig, got {net!r}")
            net.validate(name)
        _require_int(self.epochs, "epochs", 1)
        for name in ("expert_lr", "regressor_lr"):
            _require_real(getattr(self, name), name)
            _require(getattr(self, name) > 0, f"{name}: must be > 0")
        _require_int(self.batch_size, "batch_size", 1)
        _require_int(self.seed, "seed")
        _require_real(self.test_frac, "test_frac")
        _require(0.0 < self.test_frac < 1.0, "test_frac: must lie in (0, 1)")
        _require(self.mode in MODES, f"mode: must be one of {MODES}")
        _require(
            self.selection_combine in COMBINES,
            f"selection_combine: must be one of {tuple(COMBINES)}",
        )
        if self.pairing_override is not None:
            self._validate_pairing_override()
        if self.reference_rho is not None:
            _require_real(self.reference_rho, "reference_rho")
            _require(self.reference_rho > 0, "reference_rho: must be > 0")

    def _validate_pairing_override(self) -> None:
        shape = "pairing_override: must be a list of [i, j] fragment pairs"
        _require(isinstance(self.pairing_override, (list, tuple)), shape)
        for pair in self.pairing_override:
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2, shape)
            for f in pair:
                _require_int(f, "pairing_override")
        pairing = _require_rule("pairing_override", Pairing.from_json, self.pairing_override)
        F = self.fragments
        _require(
            pairing.num_fragments == F,
            f"pairing_override: covers {pairing.num_fragments} fragments, expected {F}",
        )
        object.__setattr__(self, "pairing_override", pairing.pairs)

    def _validate_dataset(self) -> None:
        _require(isinstance(self.dataset, dict), "dataset: must be an object")
        kind = self.dataset.get("kind")
        if kind == "synthetic":
            spec = _take(
                self.dataset,
                {
                    "kind": "synthetic",
                    "n": 2000,
                    "d": 2,
                    "label_lo": 0.0,
                    "label_hi": 100.0,
                    "feature_noise_std": 0.1,
                },
                "dataset",
            )
            _require_int(spec["n"], "dataset.n", 1)
            _require_int(spec["d"], "dataset.d", 1)
            for name in ("label_lo", "label_hi", "feature_noise_std"):
                _require_real(spec[name], f"dataset.{name}")
            _require(
                spec["label_hi"] > spec["label_lo"],
                "dataset.label_hi: must exceed dataset.label_lo",
            )
            _require(
                spec["feature_noise_std"] >= 0,
                "dataset.feature_noise_std: must be >= 0",
            )
            object.__setattr__(self, "dataset", spec)
        elif kind == "csv":
            spec = _take(
                self.dataset,
                {
                    "kind": "csv",
                    "path": None,
                    "feature_cols": None,
                    "label_col": "label",
                    "gt_col": None,
                },
                "dataset",
            )
            _require(isinstance(spec["path"], str) and spec["path"] != "",
                     f"dataset.path: must be a non-empty string, got {spec['path']!r}")
            cols = spec["feature_cols"]
            _require(isinstance(cols, list) and cols and all(isinstance(c, str) for c in cols),
                     f"dataset.feature_cols: must be a non-empty list of strings, got {cols!r}")
            _require(isinstance(spec["label_col"], str),
                     f"dataset.label_col: must be a string, got {spec['label_col']!r}")
            _require(spec["gt_col"] is None or isinstance(spec["gt_col"], str),
                     f"dataset.gt_col: must be null or a string, got {spec['gt_col']!r}")
            object.__setattr__(self, "dataset", spec)
        else:
            raise ConfigError("dataset.kind: must be 'synthetic' or 'csv'")

    def _validate_noise(self) -> None:
        if self.noise is None:
            return
        _require(isinstance(self.noise, dict), "noise: must be an object or null")
        kind = self.noise.get("kind")
        if kind == "symmetric":
            spec = _take(self.noise, {"kind": None, "rate": None, "seed": None}, "noise")
            _require_real(spec["rate"], "noise.rate")
            _require(0.0 <= spec["rate"] <= 1.0, "noise.rate: must lie in [0, 1]")
        elif kind == "gaussian":
            spec = _take(
                self.noise, {"kind": None, "max_std_frac": None, "seed": None}, "noise"
            )
            _require_real(spec["max_std_frac"], "noise.max_std_frac")
            _require(
                0.0 < spec["max_std_frac"] <= 1.0, "noise.max_std_frac: must lie in (0, 1]"
            )
        else:
            raise ConfigError("noise.kind: must be 'symmetric' or 'gaussian'")
        if spec["seed"] is not None:
            _require_int(spec["seed"], "noise.seed")
        object.__setattr__(self, "noise", spec)

    def to_dict(self) -> dict:
        """Every field as JSON data: nets as objects, pairs as lists, dicts copied."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, NetConfig):
                value = value.to_dict()
            elif isinstance(value, dict):
                value = dict(value)
            elif f.name == "pairing_override" and value is not None:
                value = [list(p) for p in value]
            out[f.name] = value
        return out

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        defaults = ExperimentConfig(dataset={"kind": "synthetic"})
        merged = _take(raw, defaults.to_dict(), "config")
        for name in ("expert_net", "regressor_net"):
            merged[name] = NetConfig.from_dict(merged[name], getattr(defaults, name), name)
        return ExperimentConfig(**merged)

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path))

    def replace(self, **changes) -> "ExperimentConfig":
        merged = self.to_dict()
        merged.update(changes)
        return ExperimentConfig.from_dict(merged)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
