"""The package's modules share only public names with each other."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "regret_miner"


def _private_sibling_imports(path: Path) -> list[str]:
    """`module: name` for each underscore name that path imports from a
    sibling module of the package, relatively or by its full name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = (node.level == 1 and node.module) or (
            node.level == 0 and (node.module or "").startswith("regret_miner."))
        if sibling:
            out += [f"{node.module}: {a.name}" for a in node.names
                    if a.name.startswith("_")]
    return out


def test_modules_import_no_private_name_from_a_sibling():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = {p.name: names for p in files if (names := _private_sibling_imports(p))}
    assert found == {}
