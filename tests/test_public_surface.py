"""The names ``weylkit`` exports are the ones its engine, CLI and demos read."""

import io
import tokenize
from pathlib import Path

import weylkit

ROOT = Path(__file__).resolve().parents[1]


def _code_names(path: Path) -> set[str]:
    """The names a module's code reads: every name token outside strings
    and comments, except the name a def or class line defines."""
    names, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            previous = token.string
    return names


def test_every_exported_name_has_a_reader():
    # a reader is code of the engine (outside __init__.py) or of a demo that
    # names it; a docstring or a comment that names it is not one
    sources = [path for path in (ROOT / "src" / "weylkit").glob("*.py") if path.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    read = set().union(*map(_code_names, sources))
    assert [name for name in weylkit.__all__ if name not in read] == []
