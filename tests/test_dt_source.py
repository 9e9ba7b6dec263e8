"""The step and the footprint radii each have one source: the planner
handle's dt and the humans' profiles, which each scene records.

core.DT_DEFAULT may appear in the package only as its definition in core, or
as the default of a parameter or of a dataclass field. core.CAR_RADIUS may
appear only as its definition in core, or as the default of a dataclass
field (HumanProfile.radius). A module that reads either anywhere else steps
at a dt or prices a human at a radius of its own, which a scene simulated
otherwise silently disagrees with.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "regret_miner"

# Each guarded name, and whether a parameter default may hold it.
PARAMETER_DEFAULT_OK = {"DT_DEFAULT": True, "CAR_RADIUS": False}


def _allowed(tree: ast.Module, module: str, name: str) -> set[int]:
    """ids of the nodes where name may stand in tree: dataclass-field
    defaults, parameter defaults where PARAMETER_DEFAULT_OK says so, and,
    in core, the module-level definition."""
    ok = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments) and PARAMETER_DEFAULT_OK[name]:
            ok.update(id(d) for d in node.defaults + node.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            ok.update(id(s.value) for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None)
    if module == "core":
        ok.update(id(t) for s in tree.body if isinstance(s, ast.Assign) for t in s.targets)
    return ok


def _stray_uses(source: str, module: str, name: str) -> list[int]:
    """Lines of each read or write of name outside the allowed places."""
    tree = ast.parse(source)
    ok = _allowed(tree, module, name)
    return [node.lineno for node in ast.walk(tree)
            if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name))
            and id(node) not in ok]


@pytest.mark.parametrize("name", PARAMETER_DEFAULT_OK)
def test_a_default_is_only_defined_and_used_as_a_default(name):
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = [f"{p.name}:{line}" for p in files
             for line in _stray_uses(p.read_text(), p.stem, name)]
    assert found == []


def test_the_guard_sees_a_hard_coded_step():
    code = ("from . import core\n"
            "from .core import DT_DEFAULT\n"
            "DT_DEFAULT = 0.2\n"
            "def f(x, dt=DT_DEFAULT, *, h: float = DT_DEFAULT):\n"
            "    return x * DT_DEFAULT + core.DT_DEFAULT\n")
    assert _stray_uses(code, "regret", "DT_DEFAULT") == [3, 5, 5]
    assert _stray_uses(code, "core", "DT_DEFAULT") == [5, 5]
    # A radius fallback in a parameter default or a body is stray; a
    # dataclass field's default is not.
    code = ("from .core import CAR_RADIUS\n"
            "class P:\n"
            "    radius: float = CAR_RADIUS\n"
            "def f(radii, r=CAR_RADIUS):\n"
            "    return radii[0] if radii else CAR_RADIUS\n")
    assert _stray_uses(code, "planner", "CAR_RADIUS") == [4, 5]
