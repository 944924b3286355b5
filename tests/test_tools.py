"""Unit tests for the repository tools."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring.

Second paragraph.
"""

import math  # a trailing comment is code


class Box:
    """One line."""

    # a comment line
    def area(self):
        """Two
        lines."""
        x = """not a docstring"""
        return math.pi * x
'''


class TestCodeLines:
    def test_split_kinds(self):
        assert code_lines.split(SOURCE) == {
            "code": 5, "docstring": 6, "comment": 1, "blank": 5}

    def test_package_total(self, capsys):
        assert code_lines.main([str(ROOT / "src" / "gsvdcap")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split() == ["module", *code_lines.KINDS]
        total = [int(n) for n in rows[-1].split()[1:]]
        lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in (ROOT / "src" / "gsvdcap").glob("*.py"))
        assert sum(total) == lines


class TestTolerancePolicy:
    def test_thresholds_are_defined_only_in_linalg(self):
        # linalg holds the one tolerance table. A module-level threshold
        # name anywhere else, assigned or imported, is a second definition.
        found = []
        for path in sorted((ROOT / "src" / "gsvdcap").glob("*.py")):
            if path.stem == "linalg":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    names = [n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                found += [f"{path.stem}.{name}" for name in names
                          if name.endswith(("_TOL", "_EPS", "_SLACK"))]
        assert found == []
