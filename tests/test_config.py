"""Property tests of the config's dict round trip and of its per-field defaults."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fragpair.cli import _load_config, build_parser
from fragpair.config import MODES, ExperimentConfig
from fragpair.fragments import list_perfect_matchings, max_jitter
from fragpair.net import ACTIVATIONS
from fragpair.selection import COMBINES

# Each net field's own default, written out: a partial object keeps these.
DEFAULT_NETS = {
    "expert_net": {"hidden_dims": [16, 8], "activation": "relu"},
    "regressor_net": {"hidden_dims": [32, 16], "activation": "relu"},
}

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
positive = st.floats(min_value=1e-6, max_value=1e3)
hidden_dims = st.lists(st.integers(1, 64), min_size=1, max_size=3)
activations = st.sampled_from(ACTIVATIONS)


@st.composite
def datasets(draw) -> dict:
    lo = draw(finite)
    return {
        "kind": "synthetic",
        "n": draw(st.integers(1, 10_000)),
        "d": draw(st.integers(1, 8)),
        "label_lo": lo,
        "label_hi": lo + draw(positive),
        "feature_noise_std": draw(st.floats(min_value=0.0, max_value=10.0)),
    }


noises = st.one_of(
    st.none(),
    st.fixed_dictionaries({"kind": st.just("symmetric"), "rate": st.floats(0.0, 1.0),
                           "seed": st.none() | st.integers(0, 2**31)}),
    st.fixed_dictionaries({"kind": st.just("gaussian"),
                           "max_std_frac": st.floats(0.0, 1.0, exclude_min=True),
                           "seed": st.none() | st.integers(0, 2**31)}),
)


@st.composite
def pairing_overrides(draw, F: int):
    """None, or a perfect matching of 1..F listed in any order and orientation."""
    if draw(st.booleans()):
        return None
    matching = draw(st.sampled_from(list_perfect_matchings(F)))
    pairs = [list(p) if draw(st.booleans()) else [p[1], p[0]] for p in matching]
    return draw(st.permutations(pairs))


@st.composite
def raw_configs(draw) -> dict:
    F = draw(st.sampled_from(range(4, 13, 2)))
    raw = {
        "dataset": draw(datasets()),
        "noise": draw(noises),
        "fragments": F,
        "jitter": draw(st.floats(0.0, max_jitter(F))),
        "knn_k": 2 * draw(st.integers(0, 20)) + 1,
        "expert_net": {"hidden_dims": draw(hidden_dims), "activation": draw(activations)},
        "regressor_net": {"hidden_dims": draw(hidden_dims), "activation": draw(activations)},
        "epochs": draw(st.integers(1, 500)),
        "expert_lr": draw(positive),
        "regressor_lr": draw(positive),
        "batch_size": draw(st.integers(1, 512)),
        "seed": draw(st.integers(-(2**40), 2**40)),
        "test_frac": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "pairing_override": draw(pairing_overrides(F)),
        "mode": draw(st.sampled_from(MODES)),
        "selection_combine": draw(st.sampled_from(tuple(COMBINES))),
        "reference_rho": draw(st.none() | positive),
    }
    return raw


configs = raw_configs().map(ExperimentConfig.from_dict)


@st.composite
def partial_raw_configs(draw) -> dict:
    """A generated config's data with nested keys left to their defaults:
    maybe the dataset's kind, and any of each net's keys."""
    raw = draw(raw_configs())
    if draw(st.booleans()):
        del raw["dataset"]["kind"]
    for name in DEFAULT_NETS:
        for key in draw(st.sets(st.sampled_from(("hidden_dims", "activation")))):
            del raw[name][key]
    return raw


def _cli_config(assignments: dict) -> ExperimentConfig:
    """The config that ``fragpair run --set key=<json>`` resolves, one flag per key."""
    argv = ["run"]
    for key, value in assignments.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return _load_config(build_parser().parse_args(argv))


@settings(max_examples=150, deadline=None)
@given(configs)
def test_dict_round_trip(cfg) -> None:
    raw = cfg.to_dict()
    assert ExperimentConfig.from_dict(raw) == cfg
    back = ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


@settings(max_examples=50, deadline=None)
@given(configs)
def test_cli_set_round_trip(cfg) -> None:
    assert _cli_config(cfg.to_dict()) == cfg


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(DEFAULT_NETS)),
    st.sampled_from(("hidden_dims", "activation")),
    hidden_dims,
    activations,
    st.booleans(),
)
def test_partial_net_keeps_the_field_default(name, given_key, dims, activation, via_cli) -> None:
    value = {"hidden_dims": dims, "activation": activation}[given_key]
    if via_cli:
        cfg = _cli_config({f"{name}.{given_key}": value})
    else:
        cfg = ExperimentConfig.from_dict({name: {given_key: value}})
    assert getattr(cfg, name) == {**DEFAULT_NETS[name], given_key: value}
    other = next(n for n in DEFAULT_NETS if n != name)
    assert getattr(cfg, other) == DEFAULT_NETS[other]


@settings(max_examples=100, deadline=None)
@given(partial_raw_configs())
def test_constructor_and_from_dict_agree(raw) -> None:
    assert ExperimentConfig(**raw) == ExperimentConfig.from_dict(raw)
