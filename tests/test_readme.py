"""The README's examples run: its one python block as a script, and its one
json block as a config that is the defaults but for its noise."""

from __future__ import annotations

import json
import re
from pathlib import Path

from fragpair import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)
    return block


def test_python_block_runs() -> None:
    exec(compile(_block("python"), "README.md python block", "exec"), {})


def test_json_block_is_the_defaults_with_noise() -> None:
    documented = ExperimentConfig.from_dict(json.loads(_block("json")))
    # The README says that {} is its json config without its noise.
    assert documented.replace(noise=None) == ExperimentConfig.from_dict({}), "README json block is not the defaults"
