"""README.md's library quick start runs, and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np
import pytest

from warpquot.productgeo import StructureTag

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block after the ``## Library quick start`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_runs_and_gives_its_stated_values():
    ns = {}
    exec(compile(quick_start(), str(README), "exec"), ns)
    assert ns["tag"] is StructureTag.WARPED
    assert ns["K"] == pytest.approx(1.0, abs=1e-9)
    res, ref = ns["res"], ns["ref"]
    assert np.array_equal(res.components[-1], [0.0, 1.0])
    assert res.integral_omega == pytest.approx(np.log(np.sin(1.0)) - np.log(np.sin(2.0)),
                                               abs=1e-12)
    assert np.max(np.abs(ref.components[:, :, 0] - res.components)) < 1e-12
    assert np.max(np.abs(ref.integrals - res.integrals)) < 1e-12
