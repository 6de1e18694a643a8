"""One install configuration, no environment variable, one run record,
one invalidation rule.

numpy is a declared dependency and the package reads nothing from the
environment; the kernels switch
(:func:`repro.prob.kernels.set_numpy_enabled`) is moved by tests, never
from outside the process.  What every engine run does the same way —
reading the clock, raising the timeout, stamping the envelope — is
written once, in :class:`repro.engine.sprout.Run`, and the engine × mode
table has one owner, :mod:`repro.engine.spec`; every stats key the
engines write is classified once, in :mod:`repro.engine.stats`, and
every classified key is still written.  No writer notifies a
cache: the distribution cache reconciles with the registry where it is
read (:mod:`repro.cache`).  A server write runs on the event loop; only
reads take the pool hop.  Monte-Carlo opens no pool and has one draw
stream, numpy's, drawn in blocks of uniforms, never through one
``Generator.choice`` call per variable; the per-world engines evaluate a
world through one function, :func:`repro.query.executor.world_evaluator`,
and no module imports the :mod:`repro.codegen` stub kept for the
benchmark harness;
the kernels switch is read only where it makes the compiler
Algorithm 1 verbatim; a cached variable set, a tuple until first
asked for as a set, is read elsewhere only through ``in`` and truth
tests; and composite expression nodes are built only by the smart
constructors and the normaliser, so every one is canonical.  All of
these facts are structural, so they are
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


def test_the_package_reads_no_environment_variable():
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
    assert touched == []
    assert keys == []


def _imported_modules(node: ast.AST) -> list:
    """The dotted names an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_no_module_imports_the_codegen_stub():
    importers = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if any(
            module == "repro.codegen" or module.startswith("repro.codegen.")
            for module in _imported_modules(node)
        )
    ]
    assert not importers, importers
    assert [n for n in MODULES if n.startswith("codegen/")] == ["codegen/__init__.py"]


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
        if name.split("/")[0] in ("engine", "server", "parallel.py")
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


def test_montecarlo_makes_no_generator_choice_call():
    """Block draws reproduce ``Generator.choice`` index for index
    (``tests/engine/test_montecarlo.py::TestDrawsMatchGeneratorChoice``)
    without paying its per-call overhead once per variable."""
    calls = [
        node.lineno
        for node in ast.walk(MODULES["engine/montecarlo.py"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
    ]
    assert not calls, calls


def _mentions(tree: ast.AST, name: str) -> list:
    """Lines of ``tree`` that mention ``name``: as a bare name, an
    attribute, a function it defines, or an imported name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.FunctionDef) and node.name == name
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == name for alias in node.names)
    ]


def test_the_kernels_switch_means_algorithm_1_verbatim():
    """``numpy_enabled`` is read by the kernels that have a verbatim
    twin and by the compiler's table leaf, and by nothing else: no
    engine picks an evaluator or a draw stream by it."""
    readers = sorted(
        name for name, tree in MODULES.items() if _mentions(tree, "numpy_enabled")
    )
    assert readers == ["core/compile.py", "prob/kernels.py"], readers


def test_montecarlo_has_one_draw_stream():
    tree = MODULES["engine/montecarlo.py"]
    modules = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "random" not in modules, modules
    assert not _mentions(tree, "choices")


def test_the_per_world_engines_share_one_world_evaluator():
    for name in ("engine/naive.py", "engine/montecarlo.py"):
        tree = MODULES[name]
        assert not _mentions(tree, "execute_deterministic"), name
        assert _mentions(tree, "world_evaluator"), name


def _in_truth_test(node: ast.AST, parents: dict) -> bool:
    """Whether only ``node``'s truth value is read: ``not`` it, test it
    in ``if``/``while``/``assert``/a conditional expression/a
    comprehension filter, or combine it with ``and``/``or`` there."""
    parent = parents.get(node)
    if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
        return True
    if isinstance(parent, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        return parent.test is node
    if isinstance(parent, ast.comprehension):
        return node in parent.ifs
    if isinstance(parent, ast.BoolOp):
        return _in_truth_test(parent, parents)
    return False


def test_variable_sets_are_read_only_through_in_and_truth_tests():
    """A :class:`~repro.algebra.expressions.Var` keeps its variable set
    as the tuple ``(name,)`` until :attr:`variables` is first read, so
    ``._vars`` outside the module that defines it may only be the right
    operand of ``in``/``not in`` or a truth test — both answer alike on
    a tuple and a frozenset.  Anything else goes through ``.variables``."""
    offending = []
    for name, tree in MODULES.items():
        if name == "algebra/expressions.py":
            continue
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "_vars"):
                continue
            parent = parents.get(node)
            membership = (
                isinstance(parent, ast.Compare)
                and len(parent.ops) == 1
                and isinstance(parent.ops[0], (ast.In, ast.NotIn))
                and parent.comparators[0] is node
            )
            if not (membership or _in_truth_test(node, parents)):
                offending.append((name, node.lineno))
    assert not offending, offending


#: Where each composite expression node may be constructed directly.
_NODE_CONSTRUCTORS = {
    "Sum": {"algebra/expressions.py"},
    "Prod": {"algebra/expressions.py"},
    "Tensor": {"algebra/semimodule.py"},
    "AggSum": {"algebra/semimodule.py", "algebra/simplify.py"},
    "Compare": {"algebra/conditions.py"},
}


def _node_class_called(call: ast.Call) -> str | None:
    """The node class ``call`` constructs, by bare name or as an
    attribute (``expressions.Sum(...)``); ``None`` for any other call."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return called if called in _NODE_CONSTRUCTORS else None


def test_composite_nodes_are_built_only_canonically():
    """Normalisation and pruning hand a node back unchanged when no rule
    applies to it, which is right only if every node is canonical —
    flat, key-sorted, free of neutral elements, a comparison already
    folded.  The smart constructors (and the normaliser's monoid-sum
    combination) are the only code that calls a node class."""
    offending = sorted(
        (called, name, node.lineno)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (called := _node_class_called(node)) is not None
        and name not in _NODE_CONSTRUCTORS[called]
    )
    assert not offending, offending
