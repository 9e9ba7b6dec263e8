"""The step has one source: the planner handle's dt, which each scene records.

core.DT_DEFAULT may appear in the package only as its definition in core, or
as the default of a parameter or of a dataclass field. A module that reads it
anywhere else steps at a dt of its own, which a scene simulated at another
dt silently disagrees with.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "regret_miner"
NAME = "DT_DEFAULT"


def _allowed(tree: ast.Module, module: str) -> set[int]:
    """ids of the nodes where NAME may stand in tree: parameter and
    dataclass-field defaults, and, in core, the module-level definition."""
    ok = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            ok.update(id(d) for d in node.defaults + node.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            ok.update(id(s.value) for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None)
    if module == "core":
        ok.update(id(t) for s in tree.body if isinstance(s, ast.Assign) for t in s.targets)
    return ok


def _stray_uses(source: str, module: str) -> list[int]:
    """Lines of each read or write of NAME outside the allowed places."""
    tree = ast.parse(source)
    ok = _allowed(tree, module)
    return [node.lineno for node in ast.walk(tree)
            if ((isinstance(node, ast.Name) and node.id == NAME)
                or (isinstance(node, ast.Attribute) and node.attr == NAME))
            and id(node) not in ok]


def test_dt_default_is_only_defined_and_used_as_a_default():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = [f"{p.name}:{line}" for p in files
             for line in _stray_uses(p.read_text(), p.stem)]
    assert found == []


def test_the_guard_sees_a_hard_coded_step():
    code = ("from . import core\n"
            "from .core import DT_DEFAULT\n"
            "DT_DEFAULT = 0.2\n"
            "def f(x, dt=DT_DEFAULT, *, h: float = DT_DEFAULT):\n"
            "    return x * DT_DEFAULT + core.DT_DEFAULT\n")
    assert _stray_uses(code, "regret") == [3, 5, 5]
    assert _stray_uses(code, "core") == [5, 5]
