"""The README quick start runs and prints what its `#>` lines say."""

import contextlib
import io
import re
import types
from pathlib import Path

import xxzchain

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Quick start\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    return block


def test_quick_start_prints_the_values_its_comments_state():
    block = _quick_start()
    stated = [line[3:] for line in block.splitlines() if line.startswith("#> ")]
    assert len(stated) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # every value comes from the thread-pinned sweeps or scalar math, so
    # each line is compared as a string: a stale digit fails
    assert out.getvalue().splitlines() == stated


def test_namespace_sentence_names_exactly_the_public_package_attributes():
    text = README.read_text(encoding="utf-8")
    (sentence,) = re.findall(r"^The package namespace .*?;", text, re.M | re.S)
    named = set(re.findall(r"`(\w+)`", sentence))
    public = {
        name
        for name, value in vars(xxzchain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert named == public
