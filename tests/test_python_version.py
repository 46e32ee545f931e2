"""The package's source is Python 3.10 syntax, the oldest Python pyproject.toml accepts.

ast.parse with feature_version rejects newer syntax (``except*``, type
parameters, the ``type`` statement); it does not see newer standard
library APIs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_source_parses_as_python_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    paths = sorted((ROOT / "src" / "linklab").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
