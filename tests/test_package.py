import ast
from pathlib import Path

import lteturbo


def test_every_public_name_resolves():
    # a stale string in __all__ breaks `from lteturbo import *` only
    missing = [name for name in lteturbo.__all__ if not hasattr(lteturbo, name)]
    assert not missing
    assert len(set(lteturbo.__all__)) == len(lteturbo.__all__)


def _type_rules(path):
    """Each `raise TypeError`, each use of operator.index and each np.asarray
    in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id == "TypeError":
            found.append(f"{path.name}:{node.lineno} raise TypeError")
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in (("operator", "index"), ("np", "asarray"))):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            found.append(f"{path.name}:{node.lineno} from operator import")
    return found


def test_input_rules_live_in_checks():
    # the error contract has one boundary, lteturbo/_checks.py: a module
    # that refuses a value's kind or converts an integer or an array itself
    # states a rule a second time
    src = Path(lteturbo.__file__).parent
    elsewhere = [f for path in sorted(src.glob("*.py")) if path.name != "_checks.py"
                 for f in _type_rules(path)]
    assert elsewhere == []
    assert _type_rules(src / "_checks.py")   # the scan sees the rules where they are
