"""Count the code lines of Python source trees and files, per module and in total.

A line counts when it holds a token other than a comment or whitespace and is
not part of a module, class or function docstring; blank lines, comment lines
and docstrings do not count. Uses only the standard library (ast, tokenize).

    python3 tools/code_lines.py [PATH ...]    # PATH defaults to src

Each PATH is a directory, whose .py files are counted, or a file. The
modules a CLI solve compiles, say:

    python3 tools/code_lines.py src/radialflow/{__init__,cli,ingest,model,solver}.py
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    with tokenize.open(path) as f:  # decoded as the file's coding line says
        text = f.read()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text, str(path))))


def python_files(arg: str) -> list[Path]:
    """The .py files under a directory, sorted, or a file on its own."""
    path = Path(arg)
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list[str]) -> int:
    total = 0
    for path in [p for arg in argv[1:] or ["src"] for p in python_files(arg)]:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
