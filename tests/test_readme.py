"""The README's "Library use" example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    """Executing the example keeps its entry points (``run_condition``,
    ``SessionTranscript``'s fields and the rest) in step with the code."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:Library use", "exec"), namespace)
    test = namespace["test"]
    assert not test.zero_variance and 0.0 < test.p_value < 1.0
    assert namespace["run"].session_ids == ["s001", "s002", "mine"]
