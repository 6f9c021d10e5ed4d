"""The tape op set is exactly what the model needs, and no private helper
outlives its callers.

Every public function of ``lnt.tensor`` that records through ``_make`` is
an op; each must be called by another ``src/lnt`` module, through the
``tensor`` module alias (``tn.<name>``) or a name imported from it.  An op
that only tests or ``tensor.py`` itself call belongs in ``tests/helpers.py``.
Likewise a top-level ``_``-prefixed function must be referenced in
``src/lnt`` outside its own definition.  The sources are parsed, not
imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lnt"


def _recording_ops() -> set[str]:
    tree = ast.parse((SRC / "tensor.py").read_text())
    return {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_make"
                for call in ast.walk(node))
    }


def _tensor_names(tree: ast.Module) -> set[str]:
    """Every ``lnt.tensor`` attribute a module reads or imports by name."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
            elif node.module == "tensor":
                names.update(a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_recording_op_has_a_caller_in_src():
    ops = _recording_ops()
    assert {"conv1d_strided", "gru", "span_matvec"} <= ops, sorted(ops)
    used = set().union(*(
        _tensor_names(ast.parse(path.read_text()))
        for path in SRC.glob("*.py") if path.name != "tensor.py"
    ))
    unused = sorted(ops - used)
    assert not unused, f"lnt.tensor ops with no caller in src/lnt: {unused}"


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_helper_has_a_caller_in_src():
    helpers, used = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                helpers.add(node.name)
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    unused = sorted(helpers - used)
    assert not unused, f"private functions with no caller in src/lnt: {unused}"
