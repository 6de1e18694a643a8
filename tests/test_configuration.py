"""One install configuration, one environment variable.

numpy is a declared dependency and ``REPRO_CODEGEN`` is the only thing
the package reads from the environment; the kernels switch
(:func:`repro.prob.kernels.set_numpy_enabled`) is moved by tests, never
from outside the process.  Both facts are structural, so they are
checked on the syntax tree of every module under ``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
    for path in sorted(SRC.rglob("*.py"))
}


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return False


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _is_os(node: ast.AST, attrs=_ENVIRONMENT) -> bool:
    """``os.<attr>`` for one of ``attrs``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def test_numpy_imports_are_plain_module_level_statements():
    guarded = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if _imports_numpy(node) and node not in tree.body
    ]
    assert not guarded, guarded
    assert any(_imports_numpy(n) for n in MODULES["prob/kernels.py"].body)


def test_the_environment_is_read_once():
    touched = []  # every mention of the environment, by module
    keys = []  # the mentions that read one literal key
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if _is_os(node):
                touched.append(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                touched += [name] * len(
                    _ENVIRONMENT & {alias.name for alias in node.names}
                )
            elif isinstance(node, ast.Call) and (
                _is_os(node.func, {"getenv"})
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _is_os(node.func.value, {"environ"})
            ):
                keys.append(ast.literal_eval(node.args[0]))
    assert touched == ["codegen/runtime.py"]
    assert keys == ["REPRO_CODEGEN"]
