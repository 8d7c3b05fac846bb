"""The package's import graph, pinned, and the zero referee's independence."""

import ast
from pathlib import Path
from types import ModuleType

from brigkit import kernels, referee

SRC = Path(__file__).resolve().parent.parent / "src" / "brigkit"

# Every module's imports of other brigkit modules ("__init__" is the
# package itself).  A new edge has to be added here, and the referee's row
# stays empty: it checks the kernels' zero verdicts, so it may share no
# code with them.
IMPORT_GRAPH = {
    "__init__": {"core", "growth", "terms", "zeros"},
    "cli": {"__init__", "core", "growth", "sweep", "terms", "zeros"},
    "core": {"intutil"},
    "exactnum": {"intutil", "kernels"},
    "growth": {"core", "exactnum", "intutil", "kernels", "logbounds", "terms"},
    "intutil": set(),
    "kernels": {"intutil"},
    "logbounds": set(),
    "referee": set(),
    "sweep": {"__init__", "core", "growth", "kernels", "referee", "zeros"},
    "terms": {"intutil", "kernels"},
    "zeros": {"core", "kernels", "logbounds"},
}


def _imports(name: str) -> tuple[set, set]:
    """(brigkit modules, other top-level modules) that the module imports
    anywhere in its source, function bodies included."""
    own, other = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, (name, ast.dump(node))
            path = node.module.split(".") if node.module else []
            if node.level:
                path = ["brigkit", *path]
            # "from brigkit import x" and "from . import x" may name modules
            dotted = ([path + [alias.name] for alias in node.names]
                      if path == ["brigkit"] else [path])
        else:
            continue
        for parts in dotted:
            if parts[0] != "brigkit":
                other.add(parts[0])
            elif len(parts) > 1 and (SRC / f"{parts[1]}.py").exists():
                own.add(parts[1])
            else:
                own.add("__init__")
    own.discard(name)
    return own, other


def test_package_import_graph_is_pinned():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules == set(IMPORT_GRAPH)
    assert {name: _imports(name)[0] for name in modules} == IMPORT_GRAPH


def test_referee_shares_nothing_with_the_kernels():
    """The referee imports no brigkit module and, beyond that, only
    functools; none of its globals is a brigkit module or an object defined
    in one; and its prime is not the zero screen's."""
    assert _imports("referee") == (set(), {"__future__", "functools"})
    for name, value in vars(referee).items():
        origin = (value.__name__ if isinstance(value, ModuleType)
                  else getattr(value, "__module__", None))
        if isinstance(origin, str) and origin.split(".")[0] == "brigkit":
            assert origin == referee.__name__, (name, origin)
    assert referee._ORACLE_PRIME != kernels._SCREEN_PRIME
