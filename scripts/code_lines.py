#!/usr/bin/env python3
"""Count code lines in Python sources: lines that hold a token of code.

    python scripts/code_lines.py [path ...]

Blank lines, comment lines and docstrings (the leading string of a module,
class or function) do not count. Prints one line per file and a total; the
default path is the repository's src/.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: bytes) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def python_files(path):
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        for name in names
        if name.endswith(".py")
    )


def main(paths):
    total = 0
    for path in paths or [os.path.join(os.path.dirname(__file__), os.pardir, "src")]:
        for name in python_files(path):
            with open(name, "rb") as handle:
                count = code_lines(handle.read())
            total += count
            print(f"{count:6d}  {os.path.relpath(name)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
