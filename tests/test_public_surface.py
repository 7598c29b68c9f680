"""The names ``weylkit`` exports are the ones its engine, CLI and demos read."""

import re
from pathlib import Path

import weylkit

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_has_a_reader():
    # a reader is any line of the engine (outside __init__.py) or of a demo
    # that names it, other than the def or class line that defines it
    sources = [path for path in (ROOT / "src" / "weylkit").glob("*.py") if path.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unread = [
        name for name in weylkit.__all__
        if not any(re.search(rf"\b{name}\b", line)
                   and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)
    ]
    assert unread == []
