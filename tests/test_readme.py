"""The README's examples run: its one python block as a script, and its one
json block as a config that is the defaults but for its noise.  And, as its
"Install and test" says, plain ``python -m pytest`` fails on a numeric
warning or an unclosed file."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("category", [RuntimeWarning, ResourceWarning, pytest.PytestUnraisableExceptionWarning])
def test_the_suite_makes_warnings_errors(category) -> None:
    # pyproject.toml's filterwarnings: an unclosed file warns with a ResourceWarning
    # in its finalizer, which pytest reports as a PytestUnraisableExceptionWarning.
    with pytest.raises(category, match="^x$"):
        warnings.warn("x", category)
