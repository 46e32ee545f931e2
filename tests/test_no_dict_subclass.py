"""No class in the package subclasses dict, Counter or defaultdict.

CPython 3.11 specialises a subscript or an `in` test on a plain dict but
not on a subclass of one, so a table read in a per-name or per-instance
loop stays a plain dict. The check is an ast pass over the source.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DICT_TYPES = {"dict", "Counter", "defaultdict"}
# module.class -> why it may subclass a dict type
ALLOWED = {
    "corpus.Clustering": "perfbench/traced.py wraps Clustering.__init__ and from_assignment",
}


def _base_name(base: ast.expr) -> str | None:
    """The name a base class expression refers to: dict[K, V] and collections.Counter included."""
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Name):
        return base.id
    return None


def dict_subclasses(source: str) -> list[str]:
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(_base_name(base) in DICT_TYPES for base in node.bases)
    ]


def test_the_check_finds_each_form_of_dict_base():
    source = (
        "class A(dict): pass\n"
        "class B(dict[str, 'str | None']): pass\n"
        "class C(collections.Counter): pass\n"
        "class D(defaultdict): pass\n"
        "class E(NamedTuple): pass\n"
        "def f():\n"
        "    class G(Counter[str]): pass\n"
    )
    assert dict_subclasses(source) == ["A", "B", "C", "D", "G"]


def test_no_class_in_the_package_subclasses_a_dict_type():
    paths = sorted((ROOT / "src" / "linklab").glob("*.py"))
    assert paths
    found = [
        f"{path.stem}.{name}"
        for path in paths
        for name in dict_subclasses(path.read_text(encoding="utf-8"))
    ]
    assert [name for name in found if name not in ALLOWED] == []
    # every allowance is still needed
    assert sorted(ALLOWED) == sorted(set(found))
