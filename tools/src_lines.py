"""Count the lines of the package source, and its lines of code.

    python tools/src_lines.py [ROOT]

prints ``<path> lines=<all lines> code=<code lines>`` for each ``.py``
file under ``ROOT/src``, its path relative to ``ROOT`` (the repository
checkout, by default the one this script sits in), and then, as the last
line, ``lines=<all lines> code=<code lines>`` for all of them.  A code line holds at least one token that is
not a comment, and lies outside every docstring: the ``ast`` line range
of the string that opens a module, class or function body.  Blank lines,
comment lines and docstring lines are therefore not code.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
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


def count(text: str) -> tuple:
    """``(lines, code lines)`` of one source file."""
    skipped = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skipped)


def main(argv: list) -> int:
    root = (Path(argv[1]) if len(argv) > 1
            else Path(__file__).resolve().parents[1])
    totals = [0, 0]
    for path in sorted((root / "src").rglob("*.py")):
        counts = count(path.read_text())
        print("%s lines=%d code=%d" % (path.relative_to(root), *counts))
        for i, n in enumerate(counts):
            totals[i] += n
    print("lines=%d code=%d" % tuple(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
