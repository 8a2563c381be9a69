"""Print the code lines of each module of a package and their total.

A code line holds a token other than a comment, and is no line of a module,
class or function docstring; blank lines are not code.  Tokens come from
``tokenize`` and docstrings from ``ast``, so a line inside a multi-line
string that is not a docstring counts.  Stdlib only.

    python tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/shutter_sim`` beside this directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    source = path.read_bytes()
    lines: set[int] = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "shutter_sim"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({package.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
