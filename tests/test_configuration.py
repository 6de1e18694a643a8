"""One install configuration, one environment variable, one run record,
one invalidation rule.

numpy is a declared dependency and ``REPRO_CODEGEN`` is the only thing
the package reads from the environment; the kernels switch
(:func:`repro.prob.kernels.set_numpy_enabled`) is moved by tests, never
from outside the process.  What every engine run does the same way —
reading the clock, raising the timeout, stamping the envelope — is
written once, in :class:`repro.engine.sprout.Run`, and the engine × mode
table has one owner, :mod:`repro.engine.spec`; every stats key the
engines write is classified once, in :mod:`repro.engine.stats`, and
every classified key is still written.  No writer notifies a
cache: the distribution cache reconciles with the registry where it is
read (:mod:`repro.cache`).  A server write runs on the event loop; only
reads take the pool hop.  Monte-Carlo has one world evaluator and opens
no pool.  All of these facts are
structural, so they are checked on the syntax tree of every module
under ``src/repro``.
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


ENGINE_MODULES = {
    name: tree for name, tree in MODULES.items() if name.startswith("engine/")
}


def _mentions(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
        for node in ast.walk(tree)
    )


def _strings(tree: ast.AST) -> list:
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_the_engines_read_one_clock():
    readers = [
        name for name, tree in ENGINE_MODULES.items()
        if _mentions(tree, "perf_counter")
    ]
    assert readers == ["engine/sprout.py"]


def test_the_engines_raise_one_timeout():
    raises = [
        f"{name}:{node.lineno}"
        for name, tree in ENGINE_MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "QueryTimeoutError"
    ]
    assert len(raises) == 1 and raises[0].startswith("engine/sprout.py"), raises


def test_every_classified_stats_key_is_written():
    """``engine/stats.py`` classifies each key once, and only keys
    something still emits: each is a string literal in a module that
    writes stats (the pool's info dict becomes sprout's stats)."""
    from repro.engine.stats import DETERMINISTIC_STAT_KEYS, VOLATILE_STAT_KEYS

    assert not VOLATILE_STAT_KEYS & DETERMINISTIC_STAT_KEYS
    written = {
        value
        for name, tree in MODULES.items()
        if name.split("/")[0] in ("engine", "codegen", "server", "parallel")
        and name != "engine/stats.py"
        for value in _strings(tree)
    }
    unwritten = (VOLATILE_STAT_KEYS | DETERMINISTIC_STAT_KEYS) - written
    assert not unwritten, sorted(unwritten)


def test_the_envelope_is_stamped_once():
    # engine/stats.py classifies the key; one other place writes it.
    writers = [
        name
        for name, tree in ENGINE_MODULES.items()
        if name != "engine/stats.py"
        for value in _strings(tree)
        if value == "db_generation"
    ]
    assert writers == ["engine/sprout.py"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _function(module: str, name: str) -> ast.AST:
    (found,) = [
        node
        for node in ast.walk(MODULES[module])
        if isinstance(node, _FUNCTIONS) and node.name == name
    ]
    return found


def test_the_front_doors_read_the_engine_table():
    """Which engine answers which mode is ``ENGINE_TABLE``'s to say: the
    session and the server name no engine and no anytime mode."""
    owned = {"approx", "sample", "montecarlo"}
    for module, name in (
        ("session.py", "_build_spec"),
        ("session.py", "run_iter"),
        ("server/app.py", "_shed_rewrite"),
    ):
        spelt = owned & set(_strings(_function(module, name)))
        assert not spelt, (module, name, spelt)


def _identifiers(tree: ast.AST) -> set:
    """Every name a module binds, reads or imports — not its prose."""
    found = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg", "module"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.update(value.split("."))
    return found


def test_no_writer_tells_any_cache_anything():
    """One invalidation rule: the distribution cache reads what changed
    from the registry, so the mutation feed and everything that existed
    to cover its window are gone, and lineage invalidation has the one
    caller that reconciles."""
    for name, tree in MODULES.items():
        gone = {"watch", "on_mutation", "data_generation"}
        if name.startswith("db/"):
            gone |= {"weakref", "subscribe", "_listeners", "_notify"}
        assert not gone & _identifiers(tree), (name, gone & _identifiers(tree))
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "invalidate_variables"
    ]
    assert len(calls) == 1 and calls[0].startswith("cache.py"), calls
    caller = _function("cache.py", "_reconcile_locked")
    assert _mentions(caller, "invalidate_variables")
    parameters = _function("cache.py", "capture_stamp").args
    assert [a.arg for a in parameters.args + parameters.kwonlyargs] == [
        "db", "names", "registry",
    ]


def _callers(method: str) -> list:
    """``module:function`` of every ``<x>.method(...)`` call under
    ``src/repro``, by the innermost function that makes it."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                visit(child, module, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == method
            ):
                found.append(f"{module}:{function}")
            visit(child, module, function)

    for name, tree in MODULES.items():
        visit(tree, name, None)
    return found


# A server write compiles nothing: ``mutate`` applies it on the event
# loop, so the pool hop is the reads' alone and no lock keeps writes apart.


def test_a_server_write_takes_no_pool_hop():
    mutate = _function("server/app.py", "mutate")
    assert not {"_offload", "run_in_executor"} & _identifiers(mutate)


def test_no_lock_keeps_server_writes_apart():
    held = [
        name for name, tree in MODULES.items()
        if name.startswith("server/") and "_mutation_lock" in _identifiers(tree)
    ]
    assert not held, held


def test_mutate_is_the_one_caller_of_apply_mutation():
    assert _callers("_apply_mutation") == ["server/app.py:mutate"]


def test_execute_is_the_one_caller_of_offload():
    assert _callers("_offload") == ["server/app.py:execute"]


# Monte-Carlo valuates its sampled worlds in one batch (the per-world
# loop is its serial fallback): it has no seam a process pool could use.


def test_montecarlo_imports_nothing_from_the_parallel_package():
    tree = MODULES["engine/montecarlo.py"]
    parallel = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            name.startswith("repro.parallel")
            for name in (
                [node.module or ""]
                if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
        )
    ]
    assert not parallel, parallel
