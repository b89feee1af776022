"""Every voxeval name that the benchmark scripts use must exist.

``perfbench/`` calls private helpers of ``voxeval.cli`` besides the public
API, so renaming one would fail benchmark runs while the rest of this
suite stays green.  The scripts are parsed with ``ast``, never run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def perfbench_references():
    """(script, module, dotted name) for each voxeval name used in perfbench."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name bound by ``import voxeval...`` -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voxeval"):
                refs.update((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "voxeval":
                        local = alias.asname or "voxeval"
                        modules[local] = alias.name if alias.asname else "voxeval"
        for node in ast.walk(tree):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted and dotted.split(".")[0] in modules:
                local, _, rest = dotted.partition(".")
                refs.add((path.name, modules[local], rest))
    return sorted(refs)


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_voxeval_name_used_by_perfbench_exists():
    refs = perfbench_references()
    # The private CLI helpers the traced passes call are among those found.
    for helper in ("_summary_rows", "_metrics_rows", "_write_csv", "_format_float"):
        assert ("drive.py", "voxeval.cli", helper) in refs
    missing = [ref for ref in refs if not _resolves(ref[1], ref[2])]
    assert not missing, f"perfbench uses names voxeval no longer has: {missing}"
