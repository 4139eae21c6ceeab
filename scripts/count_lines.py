"""Print the lines and the code lines of the library's source, src/readout_tradeoff/,
file by file, and then of the test suite under tests/ as one total.

A code line is one that is not blank, not a comment and not part of a
docstring (the leading string of a module, class or function). Run it from
anywhere in the repository:

    python scripts/count_lines.py
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "readout_tradeoff"
TESTS = ROOT / "tests"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main():
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.name:16} {lines:5} {code_lines:5}")
    print(f"{'total':16} {total:5} {code:5}")
    tests = [count(path) for path in sorted(TESTS.glob("*.py"))]
    print(f"{'tests/':16} {sum(n for n, _ in tests):5} {sum(c for _, c in tests):5}")


if __name__ == "__main__":
    main()
