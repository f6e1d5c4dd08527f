"""The documented public surface: the README's library example, its config
file example and ``nmqrc.__all__``."""

import re
from pathlib import Path

import nmqrc
from nmqrc.harness import RegimeSpec, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_on_the_public_surface():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library use)", "exec"), namespace)
    assert 0.0 <= namespace["score"] <= 1.0
    missing = [name for name in nmqrc.__all__ if not hasattr(nmqrc, name)]
    assert missing == []


def test_config_file_example_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("Config files are flat JSON", 1)[1]
    path = tmp_path / "config.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.task == "stm"
    assert cfg.regimes[-1] == RegimeSpec("strong", 0.2, 4.0)
    assert cfg.workers == 2
