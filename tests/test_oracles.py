import ast
from pathlib import Path


def test_oracles_import_no_qusync():
    # the oracles cross-check the package, so they must not reuse its code
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "qusync"]
