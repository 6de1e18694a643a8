"""Lower a physical plan to one fused Python kernel (plan-to-code).

The emitter turns a :mod:`repro.query.physical` tree into the source of a
single function

``def _kernel(_world, _st, _trace, _ckd): ...``

whose body is a flat sequence of *blocks*.  Pipeline-safe operators —
scans, filters, hash-join probes, nested-loop probes, reorders, extends —
fuse into one loop nest; operators whose semantics require a
materialised mapping (projection and union, which merge duplicate keys,
and group-aggregation, which folds groups) or whose result is shared by
several consumers start a new block.  Fusion is exact because every
pipeline operator preserves key uniqueness (tuple concatenation over
unique-keyed inputs is injective, reorder is a permutation, filter is a
subset), so streaming rows into a plain dict assignment reproduces the
interpreter's mapping — content *and* insertion order.

Common-subexpression elimination happens at two levels:

* **shared subplans** — physical operators are structurally hashable, so
  a subtree appearing under several consumers (``op in shared``) is
  materialised once into a CSE temp and each consumer iterates the temp;
* **world-invariant work** — every block first consults the ``_st``
  statics mapping (``_tN = _st.get('bK')``).  A bound plan
  (:mod:`repro.codegen.binding`) pre-populates ``_st`` with the scans,
  hash-index builds, join build sides and whole subplan results that
  only touch deterministic tables, hoisting them out of the per-world
  loop entirely.

``_trace`` (a callable or None) fires once per *computed* block — the
test suite uses it to prove a shared subplan is evaluated exactly once —
and ``_ckd`` (``check_deadline`` or None) fires at the same block
boundaries so the PR-7 resilience contracts hold inside compiled
execution.

Semiring arithmetic is baked in: the Boolean semiring becomes ``or`` /
``and`` literals, the naturals become ``+`` / ``*``, and any other
semiring goes through constants bound into the kernel's namespace.  The
same specialisation applies to the standard aggregation monoids inside
group-aggregation folds, replicating the interpreter's
``acc = monoid.add(acc, monoid.act(mult, contribution, semiring))``
update expression-for-expression so float results stay bit-identical.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from repro.algebra.monoid import (
    CountMonoid,
    MaxMonoid,
    MinMonoid,
    ProdMonoid,
    SumMonoid,
)
from repro.algebra.semiring import BooleanSemiring, NaturalsSemiring
from repro.codegen.runtime import (
    KERNEL_GLOBALS,
    CodegenUnsupported,
    record_compile,
)
from repro.query.physical import (
    EmptyResult,
    ExtendOp,
    Filter,
    GroupAggOp,
    HashJoin,
    NestedLoopProduct,
    PhysicalOp,
    ProjectOp,
    ReorderOp,
    Scan,
    UnionOp,
    explain_plan,
)
from repro.query.predicates import AttrRef

__all__ = ["CompiledPlan", "compile_plan"]


#: Comparison symbols whose Python spelling is identical in value to the
#: registered ``ComparisonOp`` (all of them are thin ``operator`` wrappers).
_COMPARE_SYMBOLS = {
    "=": "==",
    "!=": "!=",
    "<=": "<=",
    ">=": ">=",
    "<": "<",
    ">": ">",
}

#: Operators that force a materialisation block: they merge duplicate
#: keys (π, ∪) or fold groups ($), so they cannot stream row-at-a-time
#: into a plain assignment.
_MERGE_OPS = (ProjectOp, UnionOp, GroupAggOp)


class _Emitter:
    def __init__(self, plan: PhysicalOp, semiring):
        self.plan = plan
        self.semiring = semiring
        if type(semiring) is BooleanSemiring:
            self.kind = "B"
        elif type(semiring) is NaturalsSemiring:
            self.kind = "N"
        else:
            self.kind = "G"
        counts: Counter = Counter()
        for op in plan.walk():
            counts[op] += 1
        self.counts = counts
        self.shared = {
            op
            for op, n in counts.items()
            if n > 1 and not isinstance(op, (Scan, EmptyResult))
        }
        self.blocks: list[list[str]] = []
        self.stack: list[list[str]] = []
        self.temp_memo: dict = {}
        self.consts: dict[str, object] = {}
        self._const_names: dict[int, str] = {}
        self.scan_names: list[str] = []
        self.index_sites: list[tuple] = []
        self.block_sites: list[tuple] = []
        self.block_scans: dict[str, tuple[str, ...]] = {}
        self.trace_labels: dict[str, str] = {}
        self._n = 0
        self._sites = 0

    # -- small helpers --------------------------------------------------------

    def sym(self, prefix: str) -> str:
        self._n += 1
        return f"_{prefix}{self._n}"

    def emit(self, depth: int, line: str = "") -> None:
        self.stack[-1].append("    " * depth + line if line else "")

    def const(self, value) -> str:
        """An expression for ``value``: a literal when repr round-trips,
        otherwise a name bound in the kernel namespace."""
        if value is None or value is True or value is False:
            return repr(value)
        t = type(value)
        if t is int or t is str:
            return repr(value)
        if t is float and math.isfinite(value):
            return repr(value)
        name = self._const_names.get(id(value))
        if name is None:
            # Numbered from the temps' counter: a temp that shared a
            # constant's name would make it a local of the kernel.
            name = self.sym("k")
            self.consts[name] = value
            self._const_names[id(value)] = name
        return name

    def mul_expr(self, a: str, b: str) -> str:
        if self.kind == "B":
            return f"({a} and {b})"
        if self.kind == "N":
            return f"({a} * {b})"
        return f"{self.const(self.semiring)}.mul({a}, {b})"

    def add_expr(self, a: str, b: str) -> str:
        if self.kind == "B":
            return f"({a} or {b})"
        if self.kind == "N":
            return f"({a} + {b})"
        return f"{self.const(self.semiring)}.add({a}, {b})"

    def zero_expr(self) -> str:
        if self.kind == "B":
            return "False"
        if self.kind == "N":
            return "0"
        return f"{self.const(self.semiring)}.zero"

    def one_expr(self) -> str:
        if self.kind == "B":
            return "True"
        if self.kind == "N":
            return "1"
        return f"{self.const(self.semiring)}.one"

    @staticmethod
    def key_expr(var: str, indices) -> str:
        if not indices:
            return "()"
        if len(indices) == 1:
            return f"({var}[{indices[0]}],)"
        return "(" + ", ".join(f"{var}[{i}]" for i in indices) + ")"

    @staticmethod
    def tuple_expr(parts) -> str:
        return "(" + "".join(f"{part}, " for part in parts) + ")"

    def new_site(self, op: PhysicalOp, kind: str, extra=None) -> str:
        key = f"b{self._sites}"
        self._sites += 1
        self.block_sites.append((key, kind, op, extra))
        # The site's world-dependency scope: every base table the block's
        # subtree can read.  Binding hoists the block iff all of these are
        # deterministic, so the emitted body must read nothing outside it.
        self.block_scans[key] = tuple(
            sorted(
                {node.name for node in op.walk() if isinstance(node, Scan)}
            )
        )
        self.trace_labels[key] = op.label()
        return key

    # -- materialisation blocks ----------------------------------------------

    def materialize(self, op: PhysicalOp) -> str:
        """Emit (once) a top-level block computing ``op`` into a dict temp
        guarded by its statics slot; return the temp's name."""
        tv = self.temp_memo.get(op)
        if tv is not None:
            return tv
        tv = self.sym("t")
        self.temp_memo[op] = tv
        key = self.new_site(op, "dict")
        buf: list[str] = []
        self.stack.append(buf)
        shared = f"  (shared x{self.counts[op]})" if op in self.shared else ""
        self.emit(1, f"# {key}: {tv} := {op.label()}{shared}")
        self.emit(1, f"{tv} = _st.get('{key}')")
        self.emit(1, f"if {tv} is None:")
        self.emit(2, f"if _ckd is not None: _ckd('codegen:{type(op).__name__}')")
        self.emit(2, f"if _trace is not None: _trace('{key}')")
        self.emit_block_body(op, tv, 2)
        self.stack.pop()
        buf.append("")
        self.blocks.append(buf)
        return tv

    def emit_block_body(self, op: PhysicalOp, tv: str, depth: int) -> None:
        if isinstance(op, ProjectOp):
            loops = self.prepare_stream(op.child, depth)
            indices = [op.child.schema.index(a) for a in op.attributes]
            self.emit(depth, f"{tv} = {{}}")

            def sink(v, m, d):
                pv = self.sym("p")
                self.emit(d, f"{pv} = {self.key_expr(v, indices)}")
                self.emit_merge(tv, pv, m, d)

            loops(sink, depth)
        elif isinstance(op, UnionOp):
            self.emit(depth, f"{tv} = {{}}")
            left_loops = self.prepare_stream(op.left, depth)
            left_loops(lambda v, m, d: self.emit(d, f"{tv}[{v}] = {m}"), depth)
            right_loops = self.prepare_stream(op.right, depth)
            right_loops(lambda v, m, d: self.emit_merge(tv, v, m, d), depth)
        elif isinstance(op, GroupAggOp):
            self.emit_group_agg(op, tv, depth)
        else:
            # Pipeline root (or a shared pipeline subtree): plain
            # assignment — the interpreter's rows are distinct, in order.
            loops = self.prepare_stream(op, depth, fuse_root=True)
            self.emit(depth, f"{tv} = {{}}")
            loops(lambda v, m, d: self.emit(d, f"{tv}[{v}] = {m}"), depth)

    def emit_merge(self, tv: str, v: str, m: str, d: int) -> None:
        """The interpreter's concrete ``merge``: sum annotations, drop zeros."""
        cu = self.sym("u")
        cb = self.sym("x")
        self.emit(d, f"{cu} = {tv}.get({v})")
        self.emit(d, f"if {cu} is None:")
        self.emit(d + 1, f"{tv}[{v}] = {m}")
        self.emit(d, "else:")
        self.emit(d + 1, f"{cb} = {self.add_expr(cu, m)}")
        self.emit(d + 1, f"if {cb} == {self.zero_expr()}:")
        self.emit(d + 2, f"del {tv}[{v}]")
        self.emit(d + 1, "else:")
        self.emit(d + 2, f"{tv}[{v}] = {cb}")

    # -- streaming ------------------------------------------------------------

    def prepare_stream(self, op: PhysicalOp, depth: int, fuse_root: bool = False):
        """Emit world-invariant setup for ``op``'s pipeline at ``depth``
        (scan lookups, build-side hash tables, product partner lists) and
        return ``loops(sink, depth)`` emitting the row loop itself."""
        if not fuse_root and (isinstance(op, _MERGE_OPS) or op in self.shared):
            tv = self.materialize(op)
            return self._dict_loops(tv)
        if isinstance(op, Scan):
            wv = self.sym("w")
            if op.name not in self.scan_names:
                self.scan_names.append(op.name)
            self.emit(depth, f"{wv} = _st.get({'t:' + op.name!r})")
            self.emit(depth, f"if {wv} is None:")
            self.emit(depth + 1, f"{wv} = _table(_world, {op.name!r})")
            return self._dict_loops(wv)
        if isinstance(op, EmptyResult):
            return lambda sink, d: None
        if isinstance(op, Filter):
            inner = self.prepare_stream(op.child, depth)
            guards = self.compile_filter(op)

            def loops(sink, d):
                inner(lambda v, m, dd: (guards(v, dd), sink(v, m, dd)), d)

            return loops
        if isinstance(op, ReorderOp):
            inner = self.prepare_stream(op.child, depth)
            indices = [op.child.schema.index(a) for a in op.attributes]

            def loops(sink, d):
                def reorder(v, m, dd):
                    nv = self.sym("v")
                    self.emit(dd, f"{nv} = {self.key_expr(v, indices)}")
                    sink(nv, m, dd)

                inner(reorder, d)

            return loops
        if isinstance(op, ExtendOp):
            inner = self.prepare_stream(op.child, depth)
            index = op.child.schema.index(op.source)

            def loops(sink, d):
                def extend(v, m, dd):
                    nv = self.sym("v")
                    self.emit(dd, f"{nv} = {v} + ({v}[{index}],)")
                    sink(nv, m, dd)

                inner(extend, d)

            return loops
        if isinstance(op, HashJoin):
            return self._prepare_hash_join(op, depth)
        if isinstance(op, NestedLoopProduct):
            return self._prepare_product(op, depth)
        raise CodegenUnsupported(
            f"no code generation for operator {type(op).__name__}"
        )

    def _dict_loops(self, var: str):
        def loops(sink, d):
            v = self.sym("v")
            m = self.sym("m")
            self.emit(d, f"for {v}, {m} in {var}.items():")
            sink(v, m, d + 1)

        return loops

    def _prepare_hash_join(self, op: HashJoin, depth: int):
        right_indices = tuple(op.right.schema.index(a) for a in op.right_keys)
        left_indices = [op.left.schema.index(a) for a in op.left_keys]
        bk = self.sym("b")
        if isinstance(op.right, Scan):
            # Base-table build side: the world relation's (cached) hash
            # index, exactly as the interpreter builds it.
            key = f"i:{op.right.name}:{','.join(op.right_keys)}"
            if op.right.name not in self.scan_names:
                self.scan_names.append(op.right.name)
            self.index_sites.append(
                (key, op.right.name, tuple(op.right_keys), right_indices)
            )
            self.emit(depth, f"{bk} = _st.get({key!r})")
            self.emit(depth, f"if {bk} is None:")
            self.emit(
                depth + 1,
                f"{bk} = _index(_world, {op.right.name!r}, "
                f"{tuple(op.right_keys)!r}, {right_indices!r})",
            )
        else:
            skey = self.new_site(op.right, "index", right_indices)
            self.emit(depth, f"{bk} = _st.get('{skey}')")
            self.emit(depth, f"if {bk} is None:")
            self.emit(
                depth + 1,
                "if _ckd is not None: _ckd('codegen:HashJoinBuild')",
            )
            self.emit(depth + 1, f"if _trace is not None: _trace('{skey}')")
            inner = self.prepare_stream(op.right, depth + 1)
            self.emit(depth + 1, f"{bk} = {{}}")

            def build(v, m, d):
                kv = self.sym("k")
                bu = self.sym("g")
                self.emit(d, f"{kv} = {self.key_expr(v, right_indices)}")
                self.emit(d, f"{bu} = {bk}.get({kv})")
                self.emit(d, f"if {bu} is None:")
                self.emit(d + 1, f"{bk}[{kv}] = {bu} = []")
                self.emit(d, f"{bu}.append(({v}, {m}))")

            inner(build, depth + 1)
        left_loops = self.prepare_stream(op.left, depth)

        def loops(sink, d):
            def probe(v, m, dd):
                rv = self.sym("v")
                rm = self.sym("m")
                self.emit(
                    dd,
                    f"for {rv}, {rm} in "
                    f"{bk}.get({self.key_expr(v, left_indices)}, ()):",
                )
                nv = self.sym("v")
                nm = self.sym("m")
                self.emit(dd + 1, f"{nv} = {v} + {rv}")
                self.emit(dd + 1, f"{nm} = {self.mul_expr(m, rm)}")
                sink(nv, nm, dd + 1)

            left_loops(probe, d)

        return loops

    def _prepare_product(self, op: NestedLoopProduct, depth: int):
        right = op.right
        if isinstance(right, _MERGE_OPS) or right in self.shared:
            # Already a materialised dict: iterate its items per left
            # row, exactly as the interpreter iterates the right rows.
            rv_var = self.materialize(right)
            right_iter = self._dict_loops(rv_var)
        else:
            ls = self.sym("l")
            skey = self.new_site(right, "list")
            self.emit(depth, f"{ls} = _st.get('{skey}')")
            self.emit(depth, f"if {ls} is None:")
            self.emit(
                depth + 1, "if _ckd is not None: _ckd('codegen:ProductBuild')"
            )
            self.emit(depth + 1, f"if _trace is not None: _trace('{skey}')")
            inner = self.prepare_stream(right, depth + 1)
            self.emit(depth + 1, f"{ls} = []")
            inner(
                lambda v, m, d: self.emit(d, f"{ls}.append(({v}, {m}))"),
                depth + 1,
            )

            def right_iter(sink, d):
                v = self.sym("v")
                m = self.sym("m")
                self.emit(d, f"for {v}, {m} in {ls}:")
                sink(v, m, d + 1)

        left_loops = self.prepare_stream(op.left, depth)

        def loops(sink, d):
            def outer(v, m, dd):
                def pair(rv, rm, ddd):
                    nv = self.sym("v")
                    nm = self.sym("m")
                    self.emit(ddd, f"{nv} = {v} + {rv}")
                    self.emit(ddd, f"{nm} = {self.mul_expr(m, rm)}")
                    sink(nv, nm, ddd)

                right_iter(pair, dd)

            left_loops(outer, d)

        return loops

    # -- filters --------------------------------------------------------------

    def compile_filter(self, op: Filter):
        """Compile the conjunction once; return ``guards(v, depth)``
        emitting per-row ``continue`` guards mirroring the interpreter's
        atom loop (symbolic operands drop the row)."""
        schema = op.child.schema
        atoms = list(dict.fromkeys(op.predicate.atoms()))
        dropped = len(list(op.predicate.atoms())) - len(atoms)
        plans = []
        for atom in atoms:
            operands = []
            for operand in (atom.left, atom.right):
                if isinstance(operand, AttrRef):
                    index = schema.index(operand.name)
                    operands.append(
                        ("attr", index, schema.is_aggregation(operand.name))
                    )
                else:
                    operands.append(("const", operand.value, None))
            plans.append((operands, atom.op))

        def guards(v, d):
            if dropped:
                self.emit(d, f"# cse: {dropped} duplicate predicate atom(s)")
            for (left, right), cmp_op in plans:
                exprs = []
                checks = []
                for tag, payload, is_agg in (left, right):
                    if tag == "attr":
                        expr = f"{v}[{payload}]"
                        if is_agg:
                            checks.append(expr)
                    else:
                        expr = self.const(payload)
                        if not isinstance(payload, (bool, int, float, str)):
                            checks.append(expr)
                    exprs.append(expr)
                if checks:
                    cond = " or ".join(
                        f"isinstance({expr}, _MX)" for expr in checks
                    )
                    self.emit(d, f"if {cond}:")
                    self.emit(d + 1, "continue")
                symbol = _COMPARE_SYMBOLS.get(cmp_op.symbol)
                if symbol is not None:
                    self.emit(
                        d, f"if not ({exprs[0]} {symbol} {exprs[1]}):"
                    )
                else:
                    opc = self.const(cmp_op)
                    self.emit(d, f"if not {opc}({exprs[0]}, {exprs[1]}):")
                self.emit(d + 1, "continue")

        return guards

    # -- group aggregation -----------------------------------------------------

    def emit_group_agg(self, op: GroupAggOp, tv: str, depth: int) -> None:
        child_schema = op.child.schema
        group_indices = [child_schema.index(a) for a in op.groupby]
        agg_indices = [
            None if spec.attribute is None else child_schema.index(spec.attribute)
            for spec in op.aggregations
        ]
        loops = self.prepare_stream(op.child, depth)
        g = self.sym("g")
        self.emit(depth, f"{g} = {{}}")

        def sink(v, m, d):
            kv = self.sym("k")
            bu = self.sym("g")
            self.emit(d, f"{kv} = {self.key_expr(v, group_indices)}")
            self.emit(d, f"{bu} = {g}.get({kv})")
            self.emit(d, f"if {bu} is None:")
            self.emit(d + 1, f"{g}[{kv}] = {bu} = []")
            self.emit(d, f"{bu}.append(({v}, {m}))")

        loops(sink, depth)
        if not op.groupby:
            self.emit(depth, f"if not {g}:")
            self.emit(depth + 1, f"{g}[()] = []  # $∅ always yields one tuple")
        self.emit(depth, f"{tv} = {{}}")
        kv = self.sym("k")
        ms = self.sym("r")
        self.emit(depth, f"for {kv}, {ms} in {g}.items():")
        accs = []
        updates = []
        for spec, index in zip(op.aggregations, agg_indices):
            acc = self.sym("a")
            zero, update = self._agg_update(spec, index, acc)
            self.emit(depth + 1, f"{acc} = {zero}")
            accs.append(acc)
            updates.append(update)
        if updates:
            v = self.sym("v")
            m = self.sym("m")
            self.emit(depth + 1, f"for {v}, {m} in {ms}:")
            for update in updates:
                self.emit(depth + 2, update(v, m))
        self.emit(
            depth + 1,
            f"{tv}[{kv} + {self.tuple_expr(accs)}] = {self.one_expr()}",
        )

    def _agg_update(self, spec, index, acc: str):
        """``(zero_expr, update(v, m) -> line)`` replicating the
        interpreter's ``acc = monoid.add(acc, monoid.act(m, c, sr))``."""
        monoid = spec.monoid
        mtype = type(monoid)
        count_like = index is None or isinstance(monoid, CountMonoid)

        def c(v):
            return "1" if count_like else f"{v}[{index}]"

        kind = self.kind
        if kind == "B":
            if mtype in (SumMonoid, CountMonoid):
                return "0", lambda v, m: (
                    f"{acc} = {acc} + ({c(v)} if {m} else 0)"
                )
            if mtype is MinMonoid:
                inf = self.const(math.inf)
                return inf, lambda v, m: (
                    f"{acc} = min({acc}, {c(v)} if {m} else {inf})"
                )
            if mtype is MaxMonoid:
                ninf = self.const(-math.inf)
                return ninf, lambda v, m: (
                    f"{acc} = max({acc}, {c(v)} if {m} else {ninf})"
                )
            if mtype is ProdMonoid:
                return "1", lambda v, m: (
                    f"{acc} = {acc} * ({c(v)} if {m} else 1)"
                )
        elif kind == "N":
            if mtype in (SumMonoid, CountMonoid):
                if count_like:
                    return "0", lambda v, m: f"{acc} = {acc} + {m}"
                return "0", lambda v, m: f"{acc} = {acc} + {m} * {c(v)}"
            if mtype is MinMonoid:
                inf = self.const(math.inf)
                return inf, lambda v, m: (
                    f"{acc} = min({acc}, {c(v)} if {m} > 0 else {inf})"
                )
            if mtype is MaxMonoid:
                ninf = self.const(-math.inf)
                return ninf, lambda v, m: (
                    f"{acc} = max({acc}, {c(v)} if {m} > 0 else {ninf})"
                )
            if mtype is ProdMonoid:
                return "1", lambda v, m: f"{acc} = {acc} * {c(v)} ** {m}"
        mo = self.const(monoid)
        sr = self.const(self.semiring)
        return f"{mo}.zero", lambda v, m: (
            f"{acc} = {mo}.add({acc}, {mo}.act({m}, {c(v)}, {sr}))"
        )

    # -- assembly -------------------------------------------------------------

    def build(self) -> str:
        root_buf: list[str] = []
        self.stack.append(root_buf)
        root = self.materialize(self.plan)
        self.emit(1, f"return {root}")
        self.stack.pop()
        self.blocks.append(root_buf)

        header = ["# repro.codegen kernel"]
        header.append(f"# semiring: {self.semiring.name}")
        header.append("# plan:")
        for line in explain_plan(self.plan).splitlines():
            header.append(f"#   {line}")
        if self.block_sites or self.index_sites:
            header.append("# statics / CSE temps:")
            for key, kind, op, _extra in self.block_sites:
                shared = (
                    f"  (shared x{self.counts[op]})" if op in self.shared else ""
                )
                header.append(f"#   {key} [{kind}] {op.label()}{shared}")
            for key, name, attrs, _indices in self.index_sites:
                header.append(
                    f"#   {key} [hash-index] {name} on {', '.join(attrs)}"
                )
        lines = header + ["def _kernel(_world, _st, _trace, _ckd):"]
        for buf in self.blocks:
            lines.extend(buf)
        return "\n".join(lines) + "\n"


class CompiledPlan:
    """A picklable compiled form of one physical plan.

    Carries the generated source, the constants its namespace needs, and
    the statics layout (scan slots, hash-index sites, block sites) a
    :class:`~repro.codegen.binding.BoundPlan` uses to hoist
    world-invariant work.  The exec'd function is rebuilt lazily and
    excluded from pickles, so shipping a compiled plan to a pool worker
    costs one source string.
    """

    __slots__ = (
        "plan",
        "semiring",
        "source",
        "consts",
        "scan_names",
        "index_sites",
        "block_sites",
        "block_scans",
        "trace_labels",
        "compile_seconds",
        "_fn",
    )

    def __init__(
        self,
        plan,
        semiring,
        source,
        consts,
        scan_names,
        index_sites,
        block_sites,
        block_scans,
        trace_labels,
        compile_seconds,
    ):
        self.plan = plan
        self.semiring = semiring
        self.source = source
        self.consts = consts
        self.scan_names = scan_names
        self.index_sites = index_sites
        self.block_sites = block_sites
        self.block_scans = block_scans
        self.trace_labels = trace_labels
        self.compile_seconds = compile_seconds
        self._fn = None

    @property
    def fn(self):
        fn = self._fn
        if fn is None:
            namespace = dict(KERNEL_GLOBALS)
            namespace.update(self.consts)
            exec(compile(self.source, "<repro.codegen>", "exec"), namespace)
            fn = self._fn = namespace["_kernel"]
        return fn

    def execute(self, world, statics=None, trace=None, check_deadline=None):
        """Run the kernel over one world; returns the raw result mapping."""
        return self.fn(
            world, {} if statics is None else statics, trace, check_deadline
        )

    def bind(self, db, names):
        """Pre-instantiate everything world-invariant against ``db``.

        Returns a :class:`~repro.codegen.binding.BoundPlan` whose
        ``run_assignment`` evaluates one world of the given variable
        ``names`` as a tight loop.  Raises :class:`CodegenUnsupported`
        when the database's annotations have no compiled form.
        """
        from repro.codegen.binding import BoundPlan

        return BoundPlan(self, db, names)

    def __getstate__(self):
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_fn"
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._fn = None

    def __repr__(self):
        return (
            f"<CompiledPlan {self.semiring.name} "
            f"blocks={len(self.block_sites)} scans={len(self.scan_names)}>"
        )


def compile_plan(plan: PhysicalOp, semiring) -> CompiledPlan:
    """Compile ``plan`` into a fused kernel for ``semiring``.

    Raises :class:`CodegenUnsupported` (never anything else) when the
    plan has no compiled form; callers fall back to the interpreter.
    """
    started = time.perf_counter()
    try:
        emitter = _Emitter(plan, semiring)
        source = emitter.build()
        compile(source, "<repro.codegen>", "exec")  # surface syntax bugs now
    except CodegenUnsupported:
        raise
    except Exception as exc:  # defensive: fall back, never crash a query
        raise CodegenUnsupported(
            f"plan compilation failed: {type(exc).__name__}: {exc}"
        ) from exc
    elapsed = time.perf_counter() - started
    record_compile(elapsed)
    return CompiledPlan(
        plan,
        semiring,
        source,
        emitter.consts,
        tuple(emitter.scan_names),
        tuple(emitter.index_sites),
        tuple(emitter.block_sites),
        dict(emitter.block_scans),
        dict(emitter.trace_labels),
        elapsed,
    )
