"""No function in the package asks whether a value is a Mapping.

The linkers and the scorer take the path of a file and read it
themselves. A function that also accepted an in-memory mapping would
be a second route through it, one that only tests take, to be kept
equal to the first. The check is an ast pass over the source.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node: ast.expr) -> list[str]:
    """The names a class expression refers to: a tuple of classes and abc.Mapping included."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _names(element)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def mapping_checks(source: str) -> list[str]:
    """The qualified name of each function holding an isinstance(..., Mapping) call.

    A call outside any function is reported as "<module>".
    """
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and "Mapping" in _names(child.args[1])
            ):
                found.append(where or "<module>")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_each_form_of_mapping_test():
    source = (
        "isinstance(x, Mapping)\n"
        "def f(x):\n"
        "    return isinstance(x, collections.abc.Mapping)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        def inner():\n"
        "            return isinstance(x, (str, Mapping))\n"
        "        return inner\n"
        "def h(x):\n"
        "    return isinstance(x, dict) or isinstance(Mapping, type) or issubclass(x, Mapping)\n"
    )
    assert mapping_checks(source) == ["<module>", "f", "C.g.inner"]


def test_no_function_in_the_package_asks_for_a_mapping():
    paths = sorted((ROOT / "src" / "linklab").glob("*.py"))
    assert paths
    found = [
        f"{path.stem}.{name}"
        for path in paths
        for name in mapping_checks(path.read_text(encoding="utf-8"))
    ]
    assert found == []
