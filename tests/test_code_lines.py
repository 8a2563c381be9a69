"""``tools/code_lines.py``, the source-size count: what counts as a code line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_blank_comment_and_docstring_lines_are_not_code(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module\ndocstring."""\n\n# a comment\nx = 1  # a trailing comment\n\n\n'
        'def f():\n    """One line."""\n    return """a string,\nnot a docstring"""\n\n\n'
        'class C:\n    """Class\n    docstring."""\n\n    y = (1,\n         2)\n',
        encoding="utf-8",
    )
    # x = 1; def f(); both lines of the returned string; class C; both lines of y
    assert tool.code_lines(source) == 7
