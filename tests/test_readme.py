"""The documented public surface: the README's library example and ``nmqrc.__all__``."""

import re
from pathlib import Path

import nmqrc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_on_the_public_surface():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library use)", "exec"), namespace)
    assert 0.0 <= namespace["score"] <= 1.0
    missing = [name for name in nmqrc.__all__ if not hasattr(nmqrc, name)]
    assert missing == []
