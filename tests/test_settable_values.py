"""The package's settable values, counted from its source: every parameter
with a default plus every dataclass field with a default. A new default
changes the pinned count on purpose, not by accident."""

import ast
from pathlib import Path

import selfmix

SETTABLE_VALUES = 15


def settable_values(package: Path) -> dict[str, int]:
    """Defaults per ``module.name`` of every function, lambda and dataclass
    under ``package`` that has any."""
    counts = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count = len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                count = sum(isinstance(s, ast.AnnAssign)
                            and s.value is not None for s in node.body)
            else:
                continue
            if count:
                name = getattr(node, "name", f"<lambda:{node.lineno}>")
                counts[f"{path.stem}.{name}"] = count
    return counts


def test_settable_value_count_is_pinned():
    counts = settable_values(Path(selfmix.__file__).parent)
    assert sum(counts.values()) == SETTABLE_VALUES, counts


def test_counter_sees_each_kind_of_default(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    a: int\n"
        "    b: int = 3\n"
        "    c: list = field(default_factory=list)\n"
        "class Q:\n"
        "    a: int = 4\n", encoding="utf-8")
    assert settable_values(tmp_path) == {"m.f": 2, "m.<lambda:3>": 1,
                                         "m.P": 2}
