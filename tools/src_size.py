"""Print the size of each module of src/akblocks/ and of the package.

Two counts per file: the physical lines, as ``wc -l`` counts them, and
the code lines, meaning lines that hold part of a statement.  Blank lines,
comment-only lines and the lines of module, class and function
docstrings are not code lines.

    python3 tools/src_size.py [package directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines that carry a token of a statement, docstrings
    excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "akblocks"
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>7} {'code':>7}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:<20} {wc:>7} {code:>7}")
    print(f"{'total':<20} {total_wc:>7} {total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
