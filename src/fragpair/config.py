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
from .net import NetSpec
from .selection import COMBINES

MODES = ("select", "select_regr", "vanilla")

# Each nested object's defaults, written once: by kind for the dataset and
# the noise, by field for the nets.  A partial object keeps these for the
# keys it leaves out.  A dataset's keys but its kind are the parameters of
# generate_synthetic or load_csv, a noise object's keys but its kind are the
# parameters of inject_symmetric_noise or inject_gaussian_noise, and a net's
# keys are NetSpec fields.
DEFAULTS = {
    "dataset": {
        "synthetic": {"n": 2000, "d": 2, "label_lo": 0.0, "label_hi": 100.0,
                      "feature_noise_std": 0.1},
        "csv": {"path": None, "feature_cols": None, "label_col": "label", "gt_col": None},
    },
    "noise": {
        "symmetric": {"rate": None, "seed": None},
        "gaussian": {"max_std_frac": None, "seed": None},
    },
    "expert_net": {"hidden_dims": [16, 8], "activation": "relu"},
    "regressor_net": {"hidden_dims": [32, 16], "activation": "relu"},
}


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


def _known(raw, allowed, context: str) -> dict:
    """``raw``, checked to be an object whose keys all lie in ``allowed``."""
    _require(isinstance(raw, dict), f"{context}: must be an object")
    unknown = set(raw) - set(allowed)
    _require(not unknown, f"unknown {context} keys: {', '.join(sorted(unknown))}")
    return raw


def _refuse(self, *args, **kwargs):
    raise TypeError("a validated config is read-only: change its to_dict() copy, or use replace()")


class _List(list):
    """A validated config's list; ``__reduce__`` lets pickle and deepcopy rebuild it."""

    append = extend = insert = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse

    def __reduce__(self):
        return _List, (list(self),)


class _Dict(dict):
    """A validated config's object, read-only like ``_List``."""

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Dict, (dict(self),)


def _read_only(value):
    """A copy of ``value`` in which every object and list is read-only."""
    if isinstance(value, dict):
        return _Dict((key, _read_only(item)) for key, item in value.items())
    return _List(map(_read_only, value)) if isinstance(value, list) else value


def _take(raw, defaults: dict, context: str) -> dict:
    """``raw``'s keys over ``defaults``, in a read-only copy that shares nothing with either."""
    return _read_only({**defaults, **_known(raw, defaults, context)})


def _take_kind(raw, context: str, kinds: dict, default_kind: Optional[str] = None) -> dict:
    """``raw``'s keys over the defaults of its ``kind``, ``default_kind`` where it names none."""
    _require(isinstance(raw, dict), f"{context}: must be an object")
    kind = raw.get("kind", default_kind)
    _require(kind in list(kinds), f"{context}.kind: must be {' or '.join(map(repr, kinds))}")
    return _take(raw, {"kind": kind, **kinds[kind]}, context)


def _is_name(value) -> bool:
    """A non-empty string: a file path or a column name."""
    return isinstance(value, str) and value != ""


def read_json(path: str | Path):
    """A UTF-8 JSON file's data; bad text or JSON raises a ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; (config, seed) determines every output byte.

    Every field is JSON data; validation fills each nested object from
    ``DEFAULTS`` and leaves it, and each list in it, read-only.
    """

    dataset: dict = field(default_factory=dict)
    noise: Optional[dict] = None
    fragments: int = 4
    jitter: float = 0.05
    knn_k: int = 5
    expert_net: dict = field(default_factory=dict)
    regressor_net: dict = field(default_factory=dict)
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
            self._validate_net(name)
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
        pairing = _require_rule("pairing_override", Pairing.from_json, self.pairing_override)
        F = self.fragments
        _require(
            pairing.num_fragments == F,
            f"pairing_override: covers {pairing.num_fragments} fragments, expected {F}",
        )
        object.__setattr__(self, "pairing_override", pairing.pairs)

    def _validate_dataset(self) -> None:
        # A dataset that names no kind is the synthetic one.
        spec = _take_kind(self.dataset, "dataset", DEFAULTS["dataset"], "synthetic")
        if spec["kind"] == "synthetic":
            _require_int(spec["n"], "dataset.n", 1)
            _require_int(spec["d"], "dataset.d", 1)
            for name in ("label_lo", "label_hi", "feature_noise_std"):
                _require_real(spec[name], f"dataset.{name}")
            _require(spec["label_hi"] > spec["label_lo"],
                     "dataset.label_hi: must exceed dataset.label_lo")
            _require(spec["feature_noise_std"] >= 0, "dataset.feature_noise_std: must be >= 0")
        else:
            _require(_is_name(spec["path"]),
                     f"dataset.path: must be a non-empty string, got {spec['path']!r}")
            cols = spec["feature_cols"]
            _require(isinstance(cols, list) and cols and all(map(_is_name, cols)),
                     f"dataset.feature_cols: must be a non-empty list of non-empty strings, "
                     f"got {cols!r}")
            _require(_is_name(spec["label_col"]),
                     f"dataset.label_col: must be a non-empty string, got {spec['label_col']!r}")
            _require(spec["gt_col"] is None or _is_name(spec["gt_col"]),
                     f"dataset.gt_col: must be null or a non-empty string, got {spec['gt_col']!r}")
            _require(len(set(cols)) == len(cols) and not {spec["label_col"], spec["gt_col"]} & set(cols),
                     f"dataset.feature_cols: must name each column once and not label_col or gt_col, got {cols!r}")
        object.__setattr__(self, "dataset", spec)

    def _validate_noise(self) -> None:
        if self.noise is None:
            return
        _require(isinstance(self.noise, dict), "noise: must be an object or null")
        spec = _take_kind(self.noise, "noise", DEFAULTS["noise"])
        if spec["kind"] == "symmetric":
            _require_real(spec["rate"], "noise.rate")
            _require(0.0 <= spec["rate"] <= 1.0, "noise.rate: must lie in [0, 1]")
        else:
            _require_real(spec["max_std_frac"], "noise.max_std_frac")
            _require(
                0.0 < spec["max_std_frac"] <= 1.0, "noise.max_std_frac: must lie in (0, 1]"
            )
        if spec["seed"] is not None:
            _require_int(spec["seed"], "noise.seed")
        object.__setattr__(self, "noise", spec)

    def _validate_net(self, name: str) -> None:
        spec = _take(getattr(self, name), DEFAULTS[name], name)
        dims = spec["hidden_dims"]
        _require(isinstance(dims, list) and all(isinstance(h, int) and not isinstance(h, bool) for h in dims),
                 f"{name}.hidden_dims: must be a list of integers, got {dims!r}")
        _require_rule(name, NetSpec, 1, dims, spec["activation"])
        object.__setattr__(self, name, spec)

    def to_dict(self) -> dict:
        """Every field as JSON data, in objects and lists that the config does not share."""
        return json.loads(json.dumps({f.name: getattr(self, f.name) for f in fields(self)}))

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        names = {f.name for f in fields(ExperimentConfig)}
        return ExperimentConfig(**_known(raw, names, "config"))

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path))

    def replace(self, **changes) -> "ExperimentConfig":
        return ExperimentConfig.from_dict({**self.to_dict(), **changes})

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
