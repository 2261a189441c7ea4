"""Code lines of each library module, and their total.

    python3 tests/code_lines.py

A code line holds at least one token that is not a comment and is not
part of a docstring (the string statement that opens a module, class or
function).  Blank lines, comment lines and docstring lines do not count.
The modules are the files of src/csobstruct next to this tests directory.

The file name does not match test_*.py, so pytest does not collect it.
"""

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def main():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "csobstruct"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
