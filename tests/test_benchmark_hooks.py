"""The benchmark in ``perfbench/`` reaches into ``lnt`` by name.

Its tracer wraps the functions listed in ``tracing.TARGETS`` and its worker
calls a few more directly.  Renaming or removing one of them in ``src/lnt``
breaks the benchmark while every other test stays green, so the names are
read from the benchmark's sources (parsed, not imported) and resolved here.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names the worker calls; the source scan below must find at least these
WORKER_NAMES = {
    "cli.main", "cli.sha256_file", "checkpoint.load_model", "checkpoint.save_model",
    "metrics.roc_auc", "tensor.precision", "tensor.active_tape",
}


def _resolves(dotted: str) -> bool:
    """``module.attr[.attr]`` names a callable of the lnt package."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"lnt.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _lnt_names(tree: ast.Module) -> set[str]:
    """``module.attr`` for every lnt attribute the source imports or reads."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("lnt."):
                    aliases[a.asname or a.name] = a.name[len("lnt."):]
        elif isinstance(node, ast.ImportFrom) and node.module == "lnt":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lnt."):
            names.update(f"{node.module[len('lnt.'):]}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(f"{aliases[node.value.id]}.{node.attr}")
    return names


def test_tracer_targets_resolve():
    targets = next(
        ast.literal_eval(node.value) for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS"
    )
    assert targets
    missing = [f"{m}.{a}" for m, a, _ in targets if not _resolves(f"{m}.{a}")]
    assert not missing, f"perfbench/tracing.py TARGETS name missing lnt functions: {missing}"


def test_worker_names_resolve():
    used = _lnt_names(_tree("worker.py")) | _lnt_names(_tree("tracing.py"))
    assert WORKER_NAMES <= used, sorted(WORKER_NAMES - used)
    missing = sorted(name for name in used if not _resolves(name))
    assert not missing, f"perfbench calls missing lnt functions: {missing}"
