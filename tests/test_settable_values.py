"""The library's settable values are counted, so a change that adds or removes
one shows it in its own diff.

A settable value is a parameter of a public function or method (``__init__``
included; self, cls and nested functions not) or a field of a dataclass, in
``src/decolab/*.py``.  A change that adds or removes one updates
SETTABLE_VALUES below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "decolab"

#: (public parameters, dataclass fields)
SETTABLE_VALUES = (184, 52)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _parameters(node: ast.FunctionDef) -> int:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return sum(name not in ("self", "cls") for name in names)


def settable_values(src: Path = SRC) -> tuple[int, int]:
    parameters = fields = 0

    def visit(body, public_owner: bool) -> None:
        nonlocal parameters, fields
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields += sum(isinstance(n, ast.AnnAssign) for n in node.body)
                visit(node.body, not node.name.startswith("_"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = not node.name.startswith("_") or node.name == "__init__"
                if public and public_owner:
                    parameters += _parameters(node)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, True)
    return parameters, fields


def test_settable_value_count_is_committed():
    assert settable_values() == SETTABLE_VALUES
