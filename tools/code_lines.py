"""Count the lines of code of a Python source tree: lines that hold a
token of a statement, so not blank lines, comment lines or docstrings.

    python3 tools/code_lines.py [DIR ...]

Prints ``<count> <path>`` for each ``*.py`` file under each ``DIR``
(default: this checkout's ``src/``), in sorted order, then ``<total>
total``, as ``wc -l`` does.  A docstring is the string that opens a
module, class or function body; any other string, one spread over several
lines included, counts as code on each of its lines.  ``wc -l`` counts
docstrings, so a change that edits them moves its figure and not this one.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that hold no code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """The lines of every docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, metavar="DIR",
                        default=[ROOT / "src"],
                        help="directory to count (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(p for d in args.dirs for p in d.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
