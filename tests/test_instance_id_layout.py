"""The instance id's bit layout is spelt in corpus.py alone.

An instance id is one int, pmid << corpus.POSITION_BITS | position. Every
other module of the package shifts by that constant, so no module but
corpus.py may spell the layout's literals: a shift by 32, the mask
0xFFFFFFFF, or 2**32. The check is an ast pass over the source.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIDTH = 32
LITERALS = {2**WIDTH - 1, 2**WIDTH}


def _is_int(node: ast.expr, value: int) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def layout_literals(source: str) -> list[str]:
    """Each spelling of the layout in `source`, as ast.unparse gives it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.LShift, ast.RShift)
        ):
            shift = node.right if isinstance(node, ast.BinOp) else node.value
            if _is_int(shift, WIDTH):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _is_int(node.left, 2) and _is_int(node.right, WIDTH):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            if node.value in LITERALS:
                found.append(ast.unparse(node))
    return found


def test_the_check_finds_each_spelling_of_the_layout():
    source = (
        "a = i >> 32\n"
        "b = pmid << 32 | position\n"
        "c = i & 0xFFFFFFFF\n"
        "d = 4294967296\n"
        "e = 2 ** 32\n"
        "i >>= 32\n"
        "f = i >> POSITION_BITS\n"
        "g = x << 31\n"
        "h = 32\n"
    )
    assert sorted(layout_literals(source)) == sorted(
        ["i >> 32", "pmid << 32", "4294967295", "4294967296", "2 ** 32", "i >>= 32"]
    )


def test_only_corpus_spells_the_instance_id_layout():
    paths = sorted((ROOT / "src" / "linklab").glob("*.py"))
    assert paths
    found = {
        path.name: literals
        for path in paths
        if path.name != "corpus.py"
        and (literals := layout_literals(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    # corpus.py holds the layout, as the one constant the other modules import
    corpus = (ROOT / "src" / "linklab" / "corpus.py").read_text(encoding="utf-8")
    assert f"POSITION_BITS = {WIDTH}\n" in corpus
