"""Count the code lines of the gsvdcap package.

Every line of a module is one of: blank (whitespace only, inside a
docstring too), docstring (a line of a module, class or function
docstring), comment (only a ``#`` comment) or code. Prints one row per
module and a total.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/gsvdcap)
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(source):
    """Counts of each kind of line in one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if not text:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0] if argv else "src/gsvdcap")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in modules:
        counts = split(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<20}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<20}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
