"""``scripts/line_hits.py`` finds the one statement a run leaves unexecuted
in a small module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "line_hits", ROOT / "scripts" / "line_hits.py")
line_hits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_hits)

MODULE = '''\
"""A module docstring."""
COUNT = 0


def bump(flag):
    """A function docstring."""
    global COUNT
    if flag:
        COUNT += 1
        return COUNT
    COUNT = -1
'''


def test_finds_the_one_unexecuted_statement(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)

    def run():
        spec = importlib.util.spec_from_file_location("mod",
                                                      package / "mod.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.bump(True)

    lines, value = line_hits.missed(str(package), run)
    assert value == 1
    assert lines == [(str(package / "mod.py"), 11, "COUNT = -1")]
