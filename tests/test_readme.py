"""Every ```python block in README.md runs as written, each on its own, so an
API change that the docs miss fails here. The config table names every key
with its true default."""

import re
from pathlib import Path

import pytest

from frisim.config import _KEYS, ExperimentConfig, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def _config_table() -> dict[str, str]:
    """Key -> documented default, from the README's config table. A row may
    document several keys at once, as in ``grid.rows / grid.cols | 8 / 8``."""
    table = README.read_text().split("| Key | Default | Meaning |\n", 1)[1].split("\n\n", 1)[0]
    defaults = {}
    for row in table.splitlines()[1:]:
        keys, values = (cell.strip().split(" / ") for cell in row.strip("|").split("|")[:2])
        assert len(keys) == len(values), row
        defaults.update(zip(keys, values))
    return defaults


def test_readme_config_table_lists_every_key_with_its_default():
    defaults = _config_table()
    assert sorted(defaults) == sorted(_KEYS)
    text = "".join(f"{key} = {value}\n" for key, value in defaults.items())
    assert parse_config_text(text) == ExperimentConfig()
