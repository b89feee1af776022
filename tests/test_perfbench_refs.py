"""Every voxeval name that the benchmark scripts use must exist, and every
call they make must bind to the callee's current signature.

``perfbench/`` calls private helpers of ``voxeval.cli`` besides the public
API, so renaming one would fail benchmark runs while the rest of this
suite stays green.  The scripts are parsed with ``ast``, never run.
"""

import ast
import importlib
import inspect
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


def _imports(tree):
    """Local name -> (module, dotted name or "") for each ``import voxeval...``
    or ``from voxeval... import name`` in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voxeval"):
            names.update((alias.asname or alias.name, (node.module, alias.name)) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "voxeval":
                    local = alias.asname or "voxeval"
                    names[local] = (alias.name if alias.asname else "voxeval", "")
    return names


def _reference(node, names):
    """(module, dotted name) of the voxeval object that ``node`` looks up, else None."""
    dotted = _dotted(node)
    if dotted is None or dotted.split(".")[0] not in names:
        return None
    local, _, rest = dotted.partition(".")
    module, name = names[local]
    return module, ".".join(part for part in (name, rest) if part)


def _scripts():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def perfbench_references():
    """(script, module, dotted name) for each voxeval name used in perfbench."""
    refs = set()
    for path, tree in _scripts():
        names = _imports(tree)
        refs.update((path.name, *names[local]) for local in names if names[local][1])
        for node in ast.walk(tree):
            ref = _reference(node, names) if isinstance(node, ast.Attribute) else None
            if ref and ref[1]:
                refs.add((path.name, *ref))
    return sorted(refs)


def perfbench_calls():
    """(script:line, module, dotted name, positional count, keyword names)
    for each call of a voxeval callable in perfbench that passes no
    ``*args`` or ``**kwargs``."""
    calls = []
    for path, tree in _scripts():
        names = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            ref = _reference(node.func, names)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            if ref and ref[1] and not unpacked:
                keywords = tuple(k.arg for k in node.keywords)
                calls.append((f"{path.name}:{node.lineno}", *ref, len(node.args), keywords))
    return calls


def _lookup(module: str, dotted: str):
    """The object ``module.dotted`` names, else None."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return None
        obj = getattr(obj, part)
    return obj


def test_every_voxeval_name_used_by_perfbench_exists():
    refs = perfbench_references()
    # The private CLI helpers the traced passes call are among those found.
    for helper in ("_summary_rows", "_metrics_rows", "_write_csv", "_format_float"):
        assert ("drive.py", "voxeval.cli", helper) in refs
    missing = [ref for ref in refs if _lookup(ref[1], ref[2]) is None]
    assert not missing, f"perfbench uses names voxeval no longer has: {missing}"


def test_every_perfbench_call_binds_to_the_current_signature():
    calls = perfbench_calls()
    # The private CLI helpers the traced passes call are among those checked.
    called = {name for _, module, name, _, _ in calls if module == "voxeval.cli"}
    assert {"main", "_summary_rows", "_metrics_rows", "_write_csv", "_format_float"} <= called
    unbound = []
    for where, module, name, positional, keywords in calls:
        obj = _lookup(module, name)
        if obj is None:
            continue  # reported by the test above
        try:
            inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append((where, f"{module}.{name}", str(exc)))
    assert not unbound, f"perfbench calls voxeval with arguments it no longer takes: {unbound}"
