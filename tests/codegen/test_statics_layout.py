"""The statics layout a compiled kernel declares, checked by running it.

Binding (:class:`repro.codegen.binding.BoundPlan`) trusts what the
emitter declares about each kernel: ``block_scans`` says which base
tables a block can read, and a block whose tables are all deterministic
is evaluated once and injected into the kernel's statics.  A block that
reads a table it does not declare would be hoisted while it still
depends on the world, and every later world would reuse the first
world's answer.  These tests hold every shape of the differential corpus
to that layout, in both semirings: the reads each block makes, the keys
binding hoists, and the names the kernel's source binds.
"""

from __future__ import annotations

import ast
import builtins
import pickle

from repro.codegen import compile_plan
from repro.codegen.runtime import KERNEL_GLOBALS
from repro.db.worlds import enumerate_database_worlds
from repro.query.executor import prepare


def _compiled(db, query):
    prepared = prepare(query, db.catalog(), db.cardinalities(), optimize=False)
    return compile_plan(prepared.plan, db.semiring)


class _ReadRecorder(dict):
    """A world that notes which relation each block of a kernel reads.

    A kernel's blocks run one after another, and each announces itself
    through the trace hook when it starts, so a read belongs to the last
    block announced.
    """

    def __init__(self, world):
        super().__init__(world)
        self.block = None
        self.reads: dict[str, set] = {}

    def enter(self, key):
        self.block = key
        self.reads.setdefault(key, set())

    def __getitem__(self, name):
        assert self.block is not None, f"{name!r} read outside every block"
        self.reads[self.block].add(name)
        return super().__getitem__(name)


class TestStaticsLayout:
    def test_each_block_reads_only_the_tables_it_declares(self, db, query):
        compiled = _compiled(db, query)
        for world, _ in enumerate_database_worlds(db):
            recorder = _ReadRecorder(world)
            compiled.execute(recorder, trace=recorder.enter)
            assert set(recorder.reads) == set(compiled.block_scans)
            for key, read in recorder.reads.items():
                assert read <= set(compiled.block_scans[key]), key

    def test_every_site_is_declared_once(self, db, query):
        compiled = _compiled(db, query)
        block_keys = [key for key, *_ in compiled.block_sites]
        assert len(block_keys) == len(set(block_keys))
        assert set(block_keys) == set(compiled.block_scans)
        assert set(block_keys) == set(compiled.trace_labels)
        scanned = set(compiled.scan_names)
        for scans in compiled.block_scans.values():
            assert set(scans) <= scanned
        for _key, name, _attributes, _indices in compiled.index_sites:
            assert name in scanned

    def test_binding_hoists_exactly_the_world_invariant_sites(self, db, query):
        compiled = _compiled(db, query)
        static = {
            name for name in compiled.scan_names if not db.tables[name].variables
        }
        expected = (
            {f"t:{name}" for name in static}
            | {key for key, name, *_ in compiled.index_sites if name in static}
            | {
                key
                for key, scans in compiled.block_scans.items()
                if set(scans) <= static
            }
        )
        names = sorted(db.variables)
        assert set(compiled.bind(db, names).statics) == expected
        # A kernel shipped to a pool worker binds to the same layout.
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.block_scans == compiled.block_scans
        assert set(clone.bind(db, names).statics) == expected

    def test_kernel_names_resolve_and_never_shadow(self, db, query):
        compiled = _compiled(db, query)
        (kernel,) = ast.parse(compiled.source).body
        params = {arg.arg for arg in kernel.args.args}
        stored, loaded = set(), set()
        for node in ast.walk(kernel):
            if isinstance(node, ast.Name):
                target = stored if isinstance(node.ctx, ast.Store) else loaded
                target.add(node.id)
        namespace = set(KERNEL_GLOBALS) | set(compiled.consts)
        # A local named like a constant or a runtime helper would make
        # that name a local everywhere in the kernel.
        assert not stored & (namespace | params)
        assert loaded <= stored | params | namespace | set(dir(builtins))
