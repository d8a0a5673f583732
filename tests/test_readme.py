"""The README quick start runs and prints what its `#>` lines say."""

import contextlib
import io
import math
import re
import types
from pathlib import Path

import xxzchain

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Quick start\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    return block


def _same_token(printed: str, stated: str) -> bool:
    try:
        a, b = float(printed), float(stated)
    except ValueError:
        return printed == stated
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_quick_start_prints_the_values_its_comments_state():
    block = _quick_start()
    stated = [line[3:] for line in block.splitlines() if line.startswith("#> ")]
    assert len(stated) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(stated)
    for got, want in zip(printed, stated):
        assert len(got.split()) == len(want.split()), (got, want)
        assert all(_same_token(a, b) for a, b in zip(got.split(), want.split())), (got, want)


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
