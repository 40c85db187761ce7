"""Count the code lines of Python files: non-blank lines that are neither comment nor docstring.

    python3 tools/codelines.py src/qconv/*.py

prints one number, the total over the files given.  A docstring is the first statement of a
module, class or function when it is a string literal; a line that holds any other token
counts, so a line with code and a trailing comment is a code line.
"""

import ast
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {line for tok in tokens if tok.type not in _LAYOUT
             for line in range(tok.start[0], tok.end[0] + 1)}
    with open(path, encoding="utf-8") as fh:
        return len(lines - docstring_lines(fh.read()))


if __name__ == "__main__":
    print(sum(code_lines(path) for path in sys.argv[1:]))
